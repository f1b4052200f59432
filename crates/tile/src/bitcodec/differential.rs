//! Differential tests: the windowed [`BitReader`] and the block cursors
//! against the bit-at-a-time reader this module shipped before them, kept
//! here as the oracle.

use super::*;
use proptest::prelude::*;

/// One bit per call, a `pos / 8` and a bounds check each: slow, and
/// obviously right.
#[derive(Clone)]
struct BitOracle<'a> {
    bytes: &'a [u8],
    pos: u64,
}

impl BitOracle<'_> {
    fn eof(&self) -> bool {
        self.pos >= self.bytes.len() as u64 * 8
    }

    fn read_bit(&mut self) -> u64 {
        let byte = (self.pos / 8) as usize;
        let bit = match self.bytes.get(byte) {
            Some(b) => (b >> (7 - (self.pos % 8) as u32)) & 1,
            None => 0,
        };
        self.pos += 1;
        bit as u64
    }

    fn read_bits(&mut self, n: u32) -> u64 {
        (0..n).fold(0, |v, _| (v << 1) | self.read_bit())
    }

    /// Zero bits up to the next one (consumed) or the end of the stream,
    /// and whether a one ended the count.
    fn scan_unary(&mut self) -> (u64, bool) {
        let mut zeros = 0;
        while !self.eof() {
            if self.read_bit() == 1 {
                return (zeros, true);
            }
            zeros += 1;
        }
        (zeros, false)
    }

    fn skip_zeros(&mut self, mut zeros: u64, ones: &mut u64) {
        while zeros > 0 && !self.eof() {
            if self.read_bit() == 1 {
                *ones += 1;
            } else {
                zeros -= 1;
            }
        }
    }

    fn read_gamma(&mut self) -> u64 {
        let zeros = self.scan_unary().0.min(63) as u32;
        ((1u64 << zeros) | self.read_bits(zeros)) - 1
    }

    fn read_zeta(&mut self, k: u32) -> u64 {
        let h = self.scan_unary().0.min((63 / k) as u64) as u32;
        let (lo, z) = zeta_interval(h, k);
        if z <= 1 {
            return lo - 1;
        }
        let s = 64 - (z - 1).leading_zeros();
        let thresh = (1u64 << s) - z;
        let mut v = self.read_bits(s - 1);
        if v >= thresh {
            v = ((v << 1) | self.read_bit()) - thresh;
        }
        lo + v - 1
    }
}

/// Key-at-a-time decoder over [`BitOracle`]: the per-key logic of the
/// cursors before they decoded in blocks.
enum KeyOracle<'a> {
    Varint {
        bytes: &'a [u8],
        pos: usize,
        remaining: u64,
        key: u64,
    },
    Runs {
        r: BitOracle<'a>,
        zeta: bool,
        remaining: u64,
        run_remaining: u64,
        src: u64,
        dst: u64,
    },
    Ef {
        n: u64,
        l: u32,
        b: u32,
        idx: u64,
        high: u64,
        upper: BitOracle<'a>,
        lower: BitOracle<'a>,
    },
}

impl<'a> KeyOracle<'a> {
    /// Takes the parsed header (count, Elias-Fano geometry, payload start)
    /// from the cursor under test: header parsing is byte-aligned and not
    /// what these tests are about.
    fn of(cursor: &TileCursor<'a>) -> Self {
        let at = |r: &BitReader<'a>| BitOracle {
            bytes: r.bytes,
            pos: r.bit_pos(),
        };
        match cursor {
            TileCursor::Raw { .. } => panic!("raw tiles have no bit stream"),
            TileCursor::Varint {
                bytes,
                pos,
                remaining,
                key,
            } => KeyOracle::Varint {
                bytes,
                pos: *pos,
                remaining: *remaining,
                key: *key,
            },
            TileCursor::Gamma(rc) | TileCursor::Zeta(rc) => KeyOracle::Runs {
                r: at(&rc.r),
                zeta: matches!(cursor, TileCursor::Zeta(_)),
                remaining: rc.remaining,
                run_remaining: rc.run_remaining,
                src: rc.src,
                dst: rc.dst,
            },
            TileCursor::Ef(ef) => KeyOracle::Ef {
                n: ef.n,
                l: ef.l,
                b: ef.b,
                idx: ef.idx,
                high: ef.high,
                upper: at(&ef.upper),
                lower: at(&ef.lower),
            },
        }
    }

    fn remaining(&self) -> u64 {
        match self {
            KeyOracle::Varint { remaining, .. } | KeyOracle::Runs { remaining, .. } => *remaining,
            KeyOracle::Ef { n, idx, .. } => n - idx,
        }
    }

    fn next_key(&mut self) -> Option<u32> {
        match self {
            KeyOracle::Varint {
                bytes,
                pos,
                remaining,
                key,
            } => {
                if *remaining == 0 {
                    return None;
                }
                *remaining -= 1;
                let delta = read_varint(bytes, pos).unwrap_or(0);
                *key = key.saturating_add(delta).min(u32::MAX as u64);
                Some(*key as u32)
            }
            KeyOracle::Runs {
                r,
                zeta,
                remaining,
                run_remaining,
                src,
                dst,
            } => {
                if *remaining == 0 {
                    return None;
                }
                *remaining -= 1;
                let gap = |r: &mut BitOracle| match zeta {
                    true => r.read_zeta(ZETA_K),
                    false => r.read_gamma(),
                };
                if *run_remaining == 0 {
                    *src = src.wrapping_add(r.read_gamma()).wrapping_add(1).min(0xFFFF);
                    *run_remaining = r.read_gamma().saturating_add(1);
                    *dst = gap(r).min(0xFFFF);
                } else {
                    *dst = dst.saturating_add(gap(r)).min(0xFFFF);
                }
                *run_remaining -= 1;
                Some(((*src as u32) << 16) | *dst as u32)
            }
            KeyOracle::Ef {
                n,
                l,
                b,
                idx,
                high,
                upper,
                lower,
            } => {
                if *idx >= *n {
                    return None;
                }
                let (zeros, one) = upper.scan_unary();
                if !one {
                    *idx = *n;
                    return None;
                }
                *high += zeros;
                let packed = (*high << *l) | lower.read_bits(*l);
                *idx += 1;
                let src = (packed >> *b).min(0xFFFF) as u32;
                Some((src << 16) | (packed & ((1u64 << *b) - 1)) as u32)
            }
        }
    }
}

/// Keys compared per stream: a corrupt count header may claim 2^33 keys
/// that both decoders would dutifully make up out of zero bits.
const MAX_KEYS: usize = 5000;

/// Decodes `bytes` with the cursor in blocks of `block` and with the
/// oracle key by key, in lockstep.
fn assert_cursor_matches_oracle(codec: Codec, bytes: &[u8], block: usize) {
    let Ok(mut cursor) = codec.cursor(bytes) else {
        return;
    };
    let mut oracle = KeyOracle::of(&cursor);
    let mut keys = vec![0u32; block];
    let mut seen = 0;
    while seen < MAX_KEYS {
        assert_eq!(cursor.remaining(), oracle.remaining(), "{}", codec.name());
        let n = cursor.next_block(&mut keys);
        for &k in &keys[..n] {
            assert_eq!(Some(k), oracle.next_key(), "{} key {seen}", codec.name());
            seen += 1;
        }
        if n < block {
            // A short block means the cursor is done — by its count, or at
            // the end of a truncated Elias-Fano stream.
            assert_eq!(oracle.next_key(), None, "{}", codec.name());
            assert_eq!(cursor.remaining(), 0, "{}", codec.name());
            assert_eq!(cursor.next_block(&mut keys), 0, "{}", codec.name());
            return;
        }
    }
}

fn raw_tile(edges: &[(u16, u16)]) -> Vec<u8> {
    edges
        .iter()
        .flat_map(|&(s, d)| SnbEdge::new(s, d).to_bytes())
        .collect()
}

/// Tiles from dense to sparse: `spread` masks the locals, so small values
/// give long runs, duplicates and small gaps, and `0xFFFF` gives gap codes
/// of 20 bits and more and Elias-Fano unary gaps of hundreds of zeros. The
/// corner edge and a run longer than any block ride along.
fn tiles() -> impl Strategy<Value = Vec<u8>> {
    let spread =
        (0u32..17, 0u32..17).prop_map(|(s, d)| ((0xFFFFu32 >> s) as u16, (0xFFFFu32 >> d) as u16));
    (
        spread,
        proptest::collection::vec((any::<u16>(), any::<u16>()), 0..400),
        any::<bool>(),
        0u16..300,
    )
        .prop_map(|((src_mask, dst_mask), edges, corner, long_run)| {
            let mut edges: Vec<(u16, u16)> = edges
                .into_iter()
                .map(|(s, d)| (s & src_mask, d & dst_mask))
                .collect();
            if corner {
                edges.push((65535, 65535));
            }
            edges.extend((0..long_run).map(|i| (7, i.wrapping_mul(3) & dst_mask)));
            raw_tile(&edges)
        })
}

/// Unary runs of every length around the window's edges, at every bit
/// offset, with the stream ending at every point after the run: the
/// one-window decodes hand over to the general ones without a seam.
#[test]
fn codes_of_every_length_at_every_offset_match_the_oracle() {
    for zeros in 0..=130u64 {
        for offset in 0..8u32 {
            let mut w = BitWriter::new();
            w.write_bits(0xFF, offset);
            w.write_unary(zeros);
            w.write_bits(0xDEAD_BEEF_CAFE_F00D, 64);
            w.write_bits(0x0123_4567_89AB_CDEF, 64);
            let bytes = w.finish();
            let first_cut = bytes.len() - 17;
            for cut in first_cut..=bytes.len() {
                let bytes = &bytes[..cut];
                for op in 0..4 {
                    let mut reader = BitReader::at(bytes, offset as u64);
                    let mut oracle = BitOracle {
                        bytes,
                        pos: offset as u64,
                    };
                    match op {
                        0 => assert_eq!(reader.scan_unary(), oracle.scan_unary()),
                        1 => assert_eq!(read_gamma(&mut reader), oracle.read_gamma()),
                        2 => assert_eq!(read_zeta(&mut reader, 1), oracle.read_zeta(1)),
                        _ => assert_eq!(read_zeta(&mut reader, ZETA_K), oracle.read_zeta(ZETA_K)),
                    }
                    assert_eq!(
                        reader.bit_pos(),
                        oracle.pos,
                        "op {op}, {zeros} zeros at bit {offset}, {cut} bytes"
                    );
                }
            }
        }
    }
}

/// A gap code near 2^64 clamps the destination to `0xFFFF`; it must not
/// wrap around to a small one.
#[test]
fn huge_gaps_clamp() {
    for codec in [Codec::GammaGap, Codec::ZetaGap] {
        let mut header = Vec::new();
        write_varint(&mut header, 3);
        let mut w = BitWriter::with_prefix(header);
        write_gamma(&mut w, 2); // source 2
        write_gamma(&mut w, 2); // two more keys in the run
        match codec {
            Codec::GammaGap => {
                write_gamma(&mut w, 5);
                write_gamma(&mut w, u64::MAX - 1);
            }
            _ => {
                write_zeta(&mut w, 5, ZETA_K);
                write_zeta(&mut w, u64::MAX - 1, ZETA_K);
            }
        }
        let bytes = w.finish(); // the third key reads zeros past the end
        let mut cursor = codec.cursor(&bytes).unwrap();
        let mut keys = [0u32; 4];
        assert_eq!(cursor.next_block(&mut keys), 3);
        assert_eq!(keys[..3], [2 << 16 | 5, 2 << 16 | 0xFFFF, 2 << 16 | 0xFFFF]);
        assert_cursor_matches_oracle(codec, &bytes, 1);
    }
}

/// ζ_1 (which is γ) or the production ζ_3: the shapes whose top interval
/// ends exactly at 2^63, so every `u64` below the maximum has a code.
fn zeta_k(n: u32) -> u32 {
    [1, ZETA_K][n as usize % 2]
}

/// A value of any bit length up to 63.
fn value(v: u64, n: u32) -> u64 {
    v >> (1 + n % 63)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// (a) Encodings of arbitrary tiles decode to the sorted keys, block
    /// by block as key by key, whatever the block size.
    #[test]
    fn encoded_tiles_decode_like_the_oracle(raw in tiles()) {
        let want = sorted_keys(&raw).unwrap();
        for codec in Codec::CODED {
            let enc = codec.encode_tile(&raw).unwrap();
            for block in [1, 17, 128] {
                assert_cursor_matches_oracle(codec, &enc, block);
                let mut cursor = codec.cursor(&enc).unwrap();
                let mut keys = vec![0u32; block];
                let mut got = Vec::with_capacity(want.len());
                loop {
                    let n = cursor.next_block(&mut keys);
                    got.extend_from_slice(&keys[..n]);
                    if n == 0 {
                        break;
                    }
                }
                prop_assert_eq!(&got, &want, "{} block {}", codec.name(), block);
            }
            let mut cursor = codec.cursor(&enc).unwrap();
            let by_key: Vec<u32> = std::iter::from_fn(|| cursor.next_key()).collect();
            prop_assert_eq!(&by_key, &want, "{} next_key", codec.name());
        }
    }

    /// (b) Truncated and bit-flipped encodings: the same keys as the
    /// oracle, the same `remaining()`, and an end.
    #[test]
    fn damaged_streams_decode_like_the_oracle(
        raw in tiles(),
        cut in 0usize..10_000,
        flip in 0usize..80_000,
    ) {
        for codec in Codec::CODED {
            let mut enc = codec.encode_tile(&raw).unwrap();
            if enc.is_empty() {
                continue;
            }
            assert_cursor_matches_oracle(codec, &enc[..cut % (enc.len() + 1)], 17);
            let bit = flip % (enc.len() * 8);
            enc[bit / 8] ^= 0x80 >> (bit % 8);
            assert_cursor_matches_oracle(codec, &enc, 128);
        }
    }

    /// (b) Arbitrary bytes: most parse as a small count and a payload of
    /// noise that ends early.
    #[test]
    fn arbitrary_bytes_decode_like_the_oracle(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
        zero_tail in 0usize..40,
    ) {
        // Zeros at the end reach the unary scans' end-of-stream exits.
        let mut bytes = bytes;
        bytes.resize(bytes.len() + zero_tail, 0);
        for codec in Codec::CODED {
            for block in [1, 17, 128] {
                assert_cursor_matches_oracle(codec, &bytes, block);
            }
        }
    }

    /// `skip_to` may under-approximate but never passes a key `>= target`,
    /// from the start of the tile or from the middle of it.
    #[test]
    fn skip_to_then_scan_is_the_filtered_full_scan(
        raw in tiles(),
        target in any::<u32>(),
        prefix in 0usize..64,
    ) {
        let all = sorted_keys(&raw).unwrap();
        for codec in Codec::CODED {
            let enc = codec.encode_tile(&raw).unwrap();
            let mut cursor = codec.cursor(&enc).unwrap();
            let consumed = (0..prefix).map_while(|_| cursor.next_key()).count();
            cursor.skip_to(target);
            let got: Vec<u32> = std::iter::from_fn(|| cursor.next_key())
                .filter(|&k| k >= target)
                .collect();
            let want: Vec<u32> =
                all[consumed..].iter().copied().filter(|&k| k >= target).collect();
            prop_assert_eq!(got, want, "{} target {}", codec.name(), target);
        }
    }

    /// The reader's primitives, in arbitrary order on arbitrary bytes:
    /// same values and same position as the oracle after every call,
    /// past the end of the stream included.
    #[test]
    fn reader_primitives_match_the_oracle(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        sparse in any::<bool>(),
        start in 0u64..600,
        ops in proptest::collection::vec((0u8..6, 0u32..65, 0u64..200), 1..60),
    ) {
        // Mostly-zero bytes give the unary scans something to count.
        let bytes: Vec<u8> = if sparse {
            bytes.iter().map(|&b| if b % 5 == 0 { 1u8 << (b % 8) } else { 0 }).collect()
        } else {
            bytes
        };
        let mut reader = BitReader::at(&bytes, start);
        let mut oracle = BitOracle { bytes: &bytes, pos: start };
        for (op, n, arg) in ops {
            match op {
                0 => prop_assert_eq!(reader.read_bits(n), oracle.read_bits(n), "read_bits({})", n),
                1 => prop_assert_eq!(reader.scan_unary(), oracle.scan_unary()),
                2 => {
                    let (mut got, mut want) = (0, 0);
                    reader.skip_zeros(arg, &mut got);
                    oracle.skip_zeros(arg, &mut want);
                    prop_assert_eq!(got, want, "skip_zeros({})", arg);
                }
                3 => prop_assert_eq!(read_gamma(&mut reader), oracle.read_gamma()),
                4 => {
                    let k = zeta_k(n);
                    prop_assert_eq!(read_zeta(&mut reader, k), oracle.read_zeta(k), "k = {}", k);
                }
                _ => {
                    reader.seek(arg * 3);
                    oracle.pos = arg * 3;
                }
            }
            prop_assert_eq!(reader.bit_pos(), oracle.pos);
        }
    }

    /// The writer against the reader's oracle: every write reads back, at
    /// the position `bit_len` reported.
    #[test]
    fn writer_output_reads_back_bit_for_bit(
        writes in proptest::collection::vec((0u8..5, any::<u64>(), 0u32..65), 0..80),
    ) {
        let mut w = BitWriter::new();
        let mut ends = Vec::new();
        for &(op, v, n) in &writes {
            match op {
                0 => w.write_bits(v, n),
                1 => w.write_unary(v % 300),
                2 => write_gamma(&mut w, value(v, n)),
                3 => write_zeta(&mut w, value(v, n), zeta_k(n)),
                _ => w.write_bit(v),
            }
            ends.push(w.bit_len());
        }
        let total = w.bit_len();
        let bytes = w.finish();
        prop_assert_eq!(bytes.len() as u64, total.div_ceil(8));
        let mut r = BitOracle { bytes: &bytes, pos: 0 };
        for (&(op, v, n), end) in writes.iter().zip(ends) {
            match op {
                0 => {
                    let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
                    prop_assert_eq!(r.read_bits(n), v & mask);
                }
                1 => prop_assert_eq!(r.scan_unary(), (v % 300, true)),
                2 => prop_assert_eq!(r.read_gamma(), value(v, n)),
                3 => prop_assert_eq!(r.read_zeta(zeta_k(n)), value(v, n)),
                _ => prop_assert_eq!(r.read_bit(), v & 1),
            }
            prop_assert_eq!(r.pos, end);
        }
        // The pad bits of the last byte are zeros.
        prop_assert_eq!(r.read_bits((bytes.len() as u64 * 8 - total) as u32), 0);
    }
}
