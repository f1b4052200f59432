//! Bit-level tile codecs — WebGraph-style instantaneous codes over tile
//! contents (ROADMAP item 3; the paper's §VIII names tile compression as
//! future work).
//!
//! Every codec operates on one tile at a time. A tile's SNB edges pack
//! into `u32` keys `(src_local << 16) | dst_local`; sorting the keys makes
//! consecutive gaps small on skewed graphs, and the codecs exploit that:
//!
//! * [`Codec::RawSnb`] — identity; the tile bytes are the 4-byte SNB
//!   records, unsorted.
//! * [`Codec::DeltaVarint`] — sorted keys, delta gaps as LEB128 varints,
//!   the one byte-aligned codec.
//! * [`Codec::GammaGap`] / [`Codec::ZetaGap`] — row-run bit streams
//!   written through a [`BitWriter`]: consecutive keys sharing a source
//!   local form a run, coded as γ(src delta), γ(run length), then the
//!   destination gaps in the codec's own code (γ, or ζ_k whose shallower
//!   unary prefix suits power-law gap distributions). Runs avoid paying
//!   the `src << 16` jump on every row change that flat key deltas would.
//! * [`Codec::EliasFano`] — the quasi-succinct monotone-sequence encoding
//!   over *packed* keys `(src << b) | dst`, where `b` (stored per tile) is
//!   just wide enough for the tile's largest destination: a 2^11-side tile
//!   shrinks its key universe 32× versus the fixed 16-bit packing, and the
//!   lower-bit width `l = ⌊log2(u/n)⌋` shrinks with it. Low bits are
//!   packed contiguously, high bits form a unary-gap bit vector, giving
//!   near-O(1) forward skip ([`TileCursor::skip_to`]) for point reads.
//!
//! Every coded stream starts with a byte-aligned LEB128 edge count, so
//! [`Codec::edge_count`] never touches the bit-level payload. Decoding is
//! streamed through [`TileCursor`]: the read path pulls fixed-size key
//! blocks straight out of the bit stream without ever materialising a
//! decompressed tile buffer.

use crate::snb::{SnbEdge, SNB_EDGE_BYTES};
use gstore_graph::{GraphError, Result};

/// ζ code shape parameter; k = 3 is WebGraph's default for web/social
/// gap distributions.
pub const ZETA_K: u32 = 3;

/// Upper bound on the per-tile edge count a coded stream may claim.
/// Tiles address 2^16 × 2^16 locals, and duplicate multi-edges are rare;
/// the bound keeps a corrupt count header from driving a near-endless
/// decode loop.
const MAX_TILE_EDGES: u64 = 1 << 33;

/// Identifies a tile codec; stored in the `.start` header (byte 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// Identity: raw 4-byte SNB records.
    RawSnb,
    /// Sorted-key deltas as byte-aligned LEB128 varints.
    DeltaVarint,
    /// Sorted-key deltas as Elias γ codes.
    GammaGap,
    /// Sorted-key deltas as ζ_k codes (k = [`ZETA_K`]).
    ZetaGap,
    /// Elias-Fano monotone-sequence encoding of the sorted keys.
    EliasFano,
}

impl Codec {
    /// Every codec, raw first.
    pub const ALL: [Codec; 5] = [
        Codec::RawSnb,
        Codec::DeltaVarint,
        Codec::GammaGap,
        Codec::ZetaGap,
        Codec::EliasFano,
    ];

    /// The compressed codecs (everything but the identity).
    pub const CODED: [Codec; 4] = [
        Codec::DeltaVarint,
        Codec::GammaGap,
        Codec::ZetaGap,
        Codec::EliasFano,
    ];

    /// Header tag. 0 is the raw format (and the value the v1 header's pad
    /// byte always held).
    #[inline]
    pub fn tag(self) -> u8 {
        match self {
            Codec::RawSnb => 0,
            Codec::DeltaVarint => 1,
            Codec::GammaGap => 2,
            Codec::ZetaGap => 3,
            Codec::EliasFano => 4,
        }
    }

    /// Inverse of [`Codec::tag`].
    pub fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            0 => Codec::RawSnb,
            1 => Codec::DeltaVarint,
            2 => Codec::GammaGap,
            3 => Codec::ZetaGap,
            4 => Codec::EliasFano,
            t => return Err(GraphError::Format(format!("unknown codec tag {t}"))),
        })
    }

    /// Stable lowercase name (CLI flag value, JSON field).
    pub fn name(self) -> &'static str {
        match self {
            Codec::RawSnb => "raw",
            Codec::DeltaVarint => "varint",
            Codec::GammaGap => "gamma",
            Codec::ZetaGap => "zeta",
            Codec::EliasFano => "ef",
        }
    }

    /// Parses a CLI spelling.
    pub fn parse(s: &str) -> Result<Self> {
        Ok(match s {
            "raw" | "snb" => Codec::RawSnb,
            "varint" | "delta-varint" => Codec::DeltaVarint,
            "gamma" => Codec::GammaGap,
            "zeta" => Codec::ZetaGap,
            "ef" | "elias-fano" => Codec::EliasFano,
            other => {
                return Err(GraphError::InvalidParameter(format!(
                    "unknown codec '{other}' (expected raw|varint|gamma|zeta|ef)"
                )))
            }
        })
    }

    /// Encodes one raw SNB tile into this codec's stream. Empty tiles
    /// (a large fraction of real grids) encode to zero bytes.
    pub fn encode_tile(self, raw: &[u8]) -> Result<Vec<u8>> {
        if raw.is_empty() {
            return Ok(Vec::new());
        }
        match self {
            Codec::RawSnb => {
                if !raw.len().is_multiple_of(SNB_EDGE_BYTES) {
                    return Err(GraphError::Format(format!(
                        "tile length {} is not a multiple of the SNB edge size",
                        raw.len()
                    )));
                }
                Ok(raw.to_vec())
            }
            Codec::DeltaVarint => compress_tile(raw),
            Codec::GammaGap => encode_gaps::<false>(raw),
            Codec::ZetaGap => encode_gaps::<true>(raw),
            Codec::EliasFano => encode_elias_fano(raw),
        }
    }

    /// Decodes a coded tile back to raw SNB bytes. Coded tiles come back
    /// sorted by `(src, dst)` — a reordering of the original multiset,
    /// transparent to order-independent tile algorithms.
    pub fn decode_tile(self, bytes: &[u8]) -> Result<Vec<u8>> {
        if bytes.is_empty() {
            return Ok(Vec::new());
        }
        match self {
            Codec::RawSnb => {
                if !bytes.len().is_multiple_of(SNB_EDGE_BYTES) {
                    return Err(GraphError::Format(format!(
                        "raw tile length {} is not a multiple of the SNB edge size",
                        bytes.len()
                    )));
                }
                Ok(bytes.to_vec())
            }
            Codec::DeltaVarint => decompress_tile(bytes),
            _ => {
                let mut cur = self.cursor(bytes)?;
                let mut out = Vec::with_capacity(cur.remaining() as usize * SNB_EDGE_BYTES);
                let mut block = [0u32; DECODE_BLOCK];
                loop {
                    let n = cur.next_block(&mut block);
                    if n == 0 {
                        break;
                    }
                    for &k in &block[..n] {
                        let e = SnbEdge::new((k >> 16) as u16, (k & 0xFFFF) as u16);
                        out.extend_from_slice(&e.to_bytes());
                    }
                }
                Ok(out)
            }
        }
    }

    /// Opens a streaming cursor over an encoded tile.
    pub fn cursor(self, bytes: &[u8]) -> Result<TileCursor<'_>> {
        TileCursor::new(self, bytes)
    }

    /// Number of edges a coded tile holds, from its count header alone.
    pub fn edge_count(self, bytes: &[u8]) -> Result<u64> {
        if self == Codec::RawSnb {
            return Ok((bytes.len() / SNB_EDGE_BYTES) as u64);
        }
        if bytes.is_empty() {
            return Ok(0);
        }
        let mut pos = 0usize;
        let n = read_varint(bytes, &mut pos)?;
        if n > MAX_TILE_EDGES {
            return Err(GraphError::Format(format!(
                "coded tile claims {n} edges, above the per-tile bound"
            )));
        }
        Ok(n)
    }
}

/// Keys decoded per [`TileCursor::next_block`] call on the internal
/// helpers; matches the view layer's block size.
const DECODE_BLOCK: usize = 128;

// ---------------------------------------------------------------------------
// Bit stream primitives (MSB-first within each byte).
// ---------------------------------------------------------------------------

/// Appends bits MSB-first to a byte vector; the final partial byte is
/// zero-padded by [`BitWriter::finish`]. Pending bits sit at the low end
/// of a 64-bit accumulator and leave it 32 at a time, so fewer than 32
/// are pending between calls.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    used: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Continues a bit stream after byte-aligned header bytes.
    pub fn with_prefix(out: Vec<u8>) -> Self {
        BitWriter {
            out,
            acc: 0,
            used: 0,
        }
    }

    /// Appends the low `n <= 32` bits of `v`.
    #[inline]
    fn put(&mut self, v: u64, n: u32) {
        self.acc = (self.acc << n) | (v & ((1u64 << n) - 1));
        self.used += n;
        if self.used >= 32 {
            self.used -= 32;
            let word = (self.acc >> self.used) as u32;
            self.out.extend_from_slice(&word.to_be_bytes());
        }
    }

    #[inline]
    pub fn write_bit(&mut self, bit: u64) {
        self.put(bit, 1);
    }

    /// Writes the low `n` bits of `v`, MSB first. `n <= 64`.
    #[inline]
    pub fn write_bits(&mut self, v: u64, n: u32) {
        debug_assert!(n <= 64);
        if n > 32 {
            self.put(v >> 32, n - 32);
            self.put(v, 32);
        } else {
            self.put(v, n);
        }
    }

    /// Writes `zeros` zero bits followed by a one (unary code).
    #[inline]
    pub fn write_unary(&mut self, mut zeros: u64) {
        while zeros >= 32 {
            self.put(0, 32);
            zeros -= 32;
        }
        self.put(1, zeros as u32 + 1);
    }

    /// Bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.out.len() as u64 * 8 + self.used as u64
    }

    /// Flushes the pending bits, the last byte zero-padded, and returns
    /// the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let bytes = self.used.div_ceil(8) as usize;
        let top = (self.acc << (32 - self.used)) as u32;
        self.out.extend_from_slice(&top.to_be_bytes()[..bytes]);
        self.out
    }
}

/// Stream bits a [`BitReader`] window holds after a refill, at least.
const WINDOW_BITS: u32 = 56;

/// Reads bits MSB-first through a 64-bit window refilled by 8-byte
/// big-endian loads. The stream reads as zeros past its end (the tail load
/// is zero-extended), except that [`BitReader::read_unary`] and
/// [`BitReader::skip_zeros`] stop there — so corrupt streams produce wrong
/// keys, never unbounded work: every decode loop is bounded by the count
/// header or by the stream length.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Upcoming bits, the next one in the MSB. The top `avail` bits are
    /// stream bits; each lower bit is either the stream's or zero, which is
    /// what lets [`BitReader::refill`] OR a fresh word over them.
    window: u64,
    avail: u32,
    /// First byte not yet counted in `avail`; runs past `bytes.len()` when
    /// reads do.
    next: usize,
}

impl<'a> BitReader<'a> {
    /// A reader positioned at `bit_pos` bits into `bytes`.
    pub fn at(bytes: &'a [u8], bit_pos: u64) -> Self {
        let mut r = BitReader {
            bytes,
            window: 0,
            avail: 0,
            next: 0,
        };
        r.seek(bit_pos);
        r
    }

    /// Absolute bit position from the start of the stream.
    #[inline]
    pub fn bit_pos(&self) -> u64 {
        self.next as u64 * 8 - self.avail as u64
    }

    /// Repositions to an absolute bit offset.
    #[inline]
    pub fn seek(&mut self, bit_pos: u64) {
        self.next = (bit_pos / 8) as usize;
        self.window = 0;
        self.avail = 0;
        self.refill();
        self.consume((bit_pos % 8) as u32);
    }

    /// Stream bits between the position and the end (0 once past it).
    #[inline]
    fn bits_left(&self) -> u64 {
        (self.bytes.len() as u64 * 8).saturating_sub(self.bit_pos())
    }

    /// Tops the window up to at least 56 stream bits, whatever `avail` was:
    /// the loaded word lands below the `avail` counted bits, and the bytes
    /// that only partly fit are loaded again by the next refill.
    #[inline]
    fn refill(&mut self) {
        let word = match self.bytes.get(self.next..self.next.wrapping_add(8)) {
            Some(b) => u64::from_be_bytes(b.try_into().expect("slice of 8 bytes")),
            None => tail_word(self.bytes, self.next),
        };
        self.window |= word >> self.avail;
        self.next += ((63 - self.avail) >> 3) as usize;
        self.avail |= WINDOW_BITS;
    }

    /// Drops `n <= avail` bits off the front of the window.
    #[inline]
    fn consume(&mut self, n: u32) {
        debug_assert!(n <= self.avail);
        self.window <<= n;
        self.avail -= n;
    }

    /// Reads `n <= 56` bits: whatever `avail` is, one refill covers them.
    #[inline]
    fn take(&mut self, n: u32) -> u64 {
        if self.avail < n {
            self.refill();
        }
        // Two shifts: `n = 0` must come out as 0, not as a shift by 64.
        let v = (self.window >> 1) >> (63 - n);
        self.consume(n);
        v
    }

    #[inline]
    pub fn read_bit(&mut self) -> u64 {
        self.take(1)
    }

    /// Reads `n` bits MSB-first into the low bits of the result.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> u64 {
        debug_assert!(n <= 64);
        if n > 56 {
            let high = self.take(n - 32);
            return (high << 32) | self.take(32);
        }
        self.take(n)
    }

    /// Counts zero bits up to the next one bit (which is consumed).
    /// Stream exhaustion terminates the count.
    #[inline]
    pub fn read_unary(&mut self) -> u64 {
        self.scan_unary().0
    }

    /// [`BitReader::read_unary`], plus whether a one bit (and not the end
    /// of the stream) ended the count.
    #[inline]
    fn scan_unary(&mut self) -> (u64, bool) {
        let mut zeros = 0u64;
        loop {
            self.refill();
            let z = self.window.leading_zeros();
            if z < self.avail {
                self.consume(z + 1);
                return (zeros + z as u64, true);
            }
            // `avail` zeros: all of them stream bits, or the end is among them.
            let left = self.bits_left();
            if left <= self.avail as u64 {
                self.consume(left as u32);
                return (zeros + left, false);
            }
            zeros += self.avail as u64;
            self.consume(self.avail);
        }
    }

    /// Skips forward until `zeros` zero bits have been consumed, adding
    /// the one bits passed over to `ones` — the Elias-Fano upper-bits
    /// select, a popcount per window. Stops early at end of stream.
    pub fn skip_zeros(&mut self, mut zeros: u64, ones: &mut u64) {
        while zeros > 0 {
            self.refill();
            let n = self.bits_left().min(self.avail as u64) as u32;
            if n == 0 {
                return;
            }
            let chunk_ones = (self.window >> (64 - n)).count_ones();
            let chunk_zeros = (n - chunk_ones) as u64;
            if chunk_zeros < zeros {
                zeros -= chunk_zeros;
                *ones += chunk_ones as u64;
                self.consume(n);
                continue;
            }
            // The final zero is in this chunk; ones after it stay unread.
            while zeros > 0 {
                let run = (!self.window).leading_zeros();
                *ones += run as u64;
                self.consume(run + 1);
                zeros -= 1;
            }
        }
    }
}

/// The partial word at `bytes[next..]`, zero-extended (all zeros past the
/// end). Takes the reader's fields, not the reader: decode loops keep
/// theirs in registers, and a call on `&self` would pin it to memory.
#[cold]
fn tail_word(bytes: &[u8], next: usize) -> u64 {
    let mut buf = [0u8; 8];
    if let Some(tail) = bytes.get(next..) {
        buf[..tail.len()].copy_from_slice(tail);
    }
    u64::from_be_bytes(buf)
}

// ---------------------------------------------------------------------------
// Instantaneous codes over non-negative values (internally coded as v+1).
//
// A decoder first tries the whole code in one refilled window — a
// `leading_zeros` and a few shifts, no data-dependent branch — and falls
// back to `read_unary`/`read_bits` for codes longer than 56 bits, which
// is also what a unary part that runs into the end of the stream looks
// like.
// ---------------------------------------------------------------------------

#[inline]
fn write_gamma(w: &mut BitWriter, v: u64) {
    let x = v + 1;
    let n = 64 - x.leading_zeros(); // bit length of x, >= 1
    if n <= 32 {
        // x in 2n - 1 bits: its own n - 1 leading zeros are the unary part.
        w.write_bits(x, 2 * n - 1);
    } else {
        w.write_bits(0, n - 1);
        w.write_bits(x, n);
    }
}

#[inline(always)]
fn read_gamma(r: &mut BitReader) -> u64 {
    r.refill();
    let zeros = r.window.leading_zeros();
    let len = 2 * zeros + 1;
    if len <= WINDOW_BITS {
        // `zeros` zeros, then the `zeros + 1` bits of x.
        let x = r.window >> (64 - len);
        r.consume(len);
        return x - 1;
    }
    let zeros = r.read_unary().min(63) as u32;
    // The unary count gave the bit length; the leading one bit was
    // consumed, so read the remaining `zeros` payload bits.
    let x = (1u64 << zeros) | r.read_bits(zeros);
    x - 1
}

/// Width of the ζ interval `[2^(hk), 2^((h+1)k))`, saturated at the top of
/// the u64 range when `(h+1)k` would overflow a shift (largest shard, or a
/// corrupt stream implying an out-of-range value).
#[inline]
fn zeta_interval(h: u32, k: u32) -> (u64, u64) {
    let lo = 1u64 << (h * k).min(63);
    let hi_bits = (h + 1) * k;
    let z = if hi_bits >= 64 {
        lo.wrapping_neg() // 2^64 - lo
    } else {
        (1u64 << hi_bits) - lo
    };
    (lo, z)
}

#[inline]
fn write_zeta(w: &mut BitWriter, v: u64, k: u32) {
    let x = v + 1;
    let bits = 64 - x.leading_zeros(); // >= 1
    let h = (bits - 1) / k;
    let t = (h + 1) * k;
    if h + 1 + t <= 64 {
        // One write of what `read_zeta` spells out: h zeros, a one, then x
        // in t bits — or x - 2^(hk) in t - 1 bits when x < 2^(hk+1).
        let short = u32::from(x >> (h * k) == 1);
        let payload = x - ((short as u64) << (h * k));
        w.write_bits((1 << (t - short)) | payload, h + 1 + t - short);
        return;
    }
    w.write_unary(h as u64);
    // Minimal binary code of x - 2^(hk) over the interval
    // [0, 2^((h+1)k) - 2^(hk)).
    let (lo, z) = zeta_interval(h, k);
    let r = x - lo;
    let s = 64 - (z - 1).leading_zeros(); // ceil(log2(z)), <= 63
    let thresh = (1u64 << s) - z;
    if r < thresh {
        w.write_bits(r, s - 1);
    } else {
        w.write_bits(r + thresh, s);
    }
}

#[inline(always)]
fn read_zeta(r: &mut BitReader, k: u32) -> u64 {
    r.refill();
    let h = r.window.leading_zeros();
    let t = (h + 1) * k;
    if h + 1 + t <= WINDOW_BITS {
        // The minimal binary code's threshold is 2^(hk), so after the
        // unary part come the t bits of x itself — or, when x < 2^(hk+1)
        // and the first k-1 of them would be zero, x - 2^(hk) in t-1 bits.
        // Shifts by `short`, not a select on it: which form a code takes
        // is not predictable.
        let body = r.window << h; // the unary part's one bit on top
        let short = u32::from(body & (((1u64 << (k - 1)) - 1) << (64 - k)) == 0);
        let tail = (body << 1) >> (64 - t);
        r.consume(h + t);
        r.consume(1 - short);
        let x = (tail >> short) | ((short as u64) << (h * k));
        return x - 1;
    }
    let h = r.read_unary().min((63 / k) as u64) as u32;
    let (lo, z) = zeta_interval(h, k);
    if z <= 1 {
        return lo - 1;
    }
    let s = 64 - (z - 1).leading_zeros();
    let thresh = (1u64 << s) - z;
    let mut v = r.read_bits(s - 1);
    if v >= thresh {
        v = (v << 1) | r.read_bit();
        v -= thresh;
    }
    lo + v - 1
}

/// A destination gap of a γ (`ZETA = false`) or ζ_3 stream. A const
/// parameter, so the block decoder is compiled once per code.
#[inline]
fn write_gap<const ZETA: bool>(w: &mut BitWriter, v: u64) {
    if ZETA {
        write_zeta(w, v, ZETA_K)
    } else {
        write_gamma(w, v)
    }
}

#[inline(always)]
fn read_gap<const ZETA: bool>(r: &mut BitReader) -> u64 {
    if ZETA {
        read_zeta(r, ZETA_K)
    } else {
        read_gamma(r)
    }
}

// ---------------------------------------------------------------------------
// Byte-aligned delta varints (`Codec::DeltaVarint`) and the LEB128 count
// header every coded stream starts with.
// ---------------------------------------------------------------------------

/// Compresses a raw SNB tile byte slice. Returns the compressed bytes.
fn compress_tile(bytes: &[u8]) -> Result<Vec<u8>> {
    if !bytes.len().is_multiple_of(SNB_EDGE_BYTES) {
        return Err(GraphError::Format(format!(
            "tile length {} is not a multiple of the SNB edge size",
            bytes.len()
        )));
    }
    let mut keys: Vec<u32> = bytes
        .chunks_exact(SNB_EDGE_BYTES)
        .map(|c| {
            let e = SnbEdge::from_bytes([c[0], c[1], c[2], c[3]]);
            (e.src as u32) << 16 | e.dst as u32
        })
        .collect();
    keys.sort_unstable();

    let mut out = Vec::with_capacity(bytes.len() / 2 + 8);
    write_varint(&mut out, keys.len() as u64);
    let mut prev = 0u32;
    for (i, &k) in keys.iter().enumerate() {
        let delta = if i == 0 { k as u64 } else { (k - prev) as u64 };
        write_varint(&mut out, delta);
        prev = k;
    }
    Ok(out)
}

/// Decompresses bytes produced by [`compress_tile`] back into raw SNB
/// edge bytes (sorted order).
fn decompress_tile(compressed: &[u8]) -> Result<Vec<u8>> {
    let mut pos = 0usize;
    let count = read_varint(compressed, &mut pos)? as usize;
    // Every edge takes at least one byte of the stream: a corrupt count
    // cannot reserve more than the stream could hold.
    let mut out = Vec::with_capacity(count.min(compressed.len()) * SNB_EDGE_BYTES);
    let mut key = 0u64;
    for i in 0..count {
        let delta = read_varint(compressed, &mut pos)?;
        key = if i == 0 { delta } else { key + delta };
        if key > u32::MAX as u64 {
            return Err(GraphError::Format("compressed tile key overflow".into()));
        }
        let e = SnbEdge::new((key >> 16) as u16, (key & 0xFFFF) as u16);
        out.extend_from_slice(&e.to_bytes());
    }
    if pos != compressed.len() {
        return Err(GraphError::Format(format!(
            "trailing garbage in compressed tile: {} of {} bytes consumed",
            pos,
            compressed.len()
        )));
    }
    Ok(out)
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(GraphError::Format(
                "truncated varint in compressed tile".into(),
            ));
        };
        *pos += 1;
        if shift >= 64 {
            return Err(GraphError::Format(
                "varint overflow in compressed tile".into(),
            ));
        }
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

// ---------------------------------------------------------------------------
// Per-tile encoders.
// ---------------------------------------------------------------------------

/// Sorted `(src << 16) | dst` keys of a raw SNB tile.
fn sorted_keys(raw: &[u8]) -> Result<Vec<u32>> {
    if !raw.len().is_multiple_of(SNB_EDGE_BYTES) {
        return Err(GraphError::Format(format!(
            "tile length {} is not a multiple of the SNB edge size",
            raw.len()
        )));
    }
    let mut keys: Vec<u32> = raw
        .chunks_exact(SNB_EDGE_BYTES)
        .map(|c| {
            let e = SnbEdge::from_bytes([c[0], c[1], c[2], c[3]]);
            (e.src as u32) << 16 | e.dst as u32
        })
        .collect();
    keys.sort_unstable();
    Ok(keys)
}

/// Row-run layout: keys sharing a source local form a run coded as
/// `γ(src_delta) γ(len - 1) code(first_dst) code(dst_gap)…`. Run headers
/// are always γ (source deltas and run lengths are small); destination
/// gaps use the codec's own code. The first run's `src_delta` is the
/// absolute source local.
fn encode_gaps<const ZETA: bool>(raw: &[u8]) -> Result<Vec<u8>> {
    let keys = sorted_keys(raw)?;
    let mut header = Vec::with_capacity(raw.len() / 4 + 8);
    write_varint(&mut header, keys.len() as u64);
    let mut w = BitWriter::with_prefix(header);
    let mut i = 0usize;
    // prev_src + 1 + delta == src; u64::MAX makes the first delta absolute.
    let mut prev_src = u64::MAX;
    while i < keys.len() {
        let src = (keys[i] >> 16) as u64;
        let run_end = keys[i..]
            .iter()
            .position(|&k| (k >> 16) as u64 != src)
            .map(|p| i + p)
            .unwrap_or(keys.len());
        write_gamma(&mut w, src.wrapping_sub(prev_src).wrapping_sub(1));
        write_gamma(&mut w, (run_end - i - 1) as u64);
        write_gap::<ZETA>(&mut w, (keys[i] & 0xFFFF) as u64);
        for pair in keys[i..run_end].windows(2) {
            write_gap::<ZETA>(&mut w, ((pair[1] & 0xFFFF) - (pair[0] & 0xFFFF)) as u64);
        }
        prev_src = src;
        i = run_end;
    }
    Ok(w.finish())
}

/// Destination bit width used for packed Elias-Fano keys: just wide
/// enough for the tile's largest destination local, never zero.
#[inline]
fn ef_dst_bits(keys: &[u32]) -> u32 {
    let max_dst = keys.iter().map(|&k| k & 0xFFFF).max().unwrap_or(0);
    (32 - max_dst.leading_zeros()).max(1)
}

fn encode_elias_fano(raw: &[u8]) -> Result<Vec<u8>> {
    let keys = sorted_keys(raw)?;
    let n = keys.len() as u64;
    let mut out = Vec::with_capacity(raw.len() / 4 + 16);
    write_varint(&mut out, n);
    if n == 0 {
        return Ok(out);
    }
    // Pack each key as (src << b) | dst: the sequence stays strictly
    // sorted (same src order, same dst order within a src) while the
    // universe shrinks by 2^(16 - b).
    let b = ef_dst_bits(&keys);
    let packed: Vec<u64> = keys
        .iter()
        .map(|&k| ((k as u64 >> 16) << b) | (k as u64 & 0xFFFF))
        .collect();
    let last = *packed.last().unwrap();
    write_varint(&mut out, last);
    out.push(b as u8);
    let l = ef_lower_bits(last + 1, n);
    let mut w = BitWriter::with_prefix(out);
    // Lower halves, packed contiguously: element i's bits live at
    // [i*l, (i+1)*l) past the payload start, giving random access.
    if l > 0 {
        let mask = (1u64 << l) - 1;
        for &k in &packed {
            w.write_bits(k & mask, l);
        }
    }
    // Upper halves as unary gaps: high(k_i) - high(k_{i-1}) zeros, then a
    // one per element.
    let mut prev_high = 0u64;
    for &k in &packed {
        let high = k >> l;
        w.write_unary(high - prev_high);
        prev_high = high;
    }
    Ok(w.finish())
}

/// Elias-Fano lower-bit width: `⌊log2(u / n)⌋` for universe `u` and `n`
/// elements (0 when the sequence is dense).
#[inline]
fn ef_lower_bits(u: u64, n: u64) -> u32 {
    if n == 0 || u <= n {
        return 0;
    }
    63 - (u / n).leading_zeros()
}

// ---------------------------------------------------------------------------
// Streaming cursor.
// ---------------------------------------------------------------------------

/// Streaming decoder over one encoded tile. Yields the sorted
/// `(src_local << 16) | dst_local` keys (file order for [`Codec::RawSnb`])
/// without materialising the decompressed tile.
#[derive(Debug, Clone)]
pub enum TileCursor<'a> {
    Raw {
        bytes: &'a [u8],
        pos: usize,
    },
    Varint {
        bytes: &'a [u8],
        pos: usize,
        remaining: u64,
        key: u64,
    },
    Gamma(RunCursor<'a>),
    Zeta(RunCursor<'a>),
    Ef(EfCursor<'a>),
}

/// Decoder state for the γ/ζ row-run layout.
#[derive(Debug, Clone)]
pub struct RunCursor<'a> {
    r: BitReader<'a>,
    /// Keys not yet yielded across all runs.
    remaining: u64,
    /// Keys left in the current run (0 → the next key starts a new run).
    run_remaining: u64,
    /// Current source local; `u64::MAX` before the first run so the first
    /// γ(src_delta) decodes as an absolute value.
    src: u64,
    dst: u64,
}

impl<'a> RunCursor<'a> {
    fn new(bytes: &'a [u8], pos: usize, n: u64) -> Self {
        RunCursor {
            r: BitReader::at(bytes, pos as u64 * 8),
            remaining: n,
            run_remaining: 0,
            src: u64::MAX,
            dst: 0,
        }
    }

    /// Decodes up to `out.len()` keys: a run header where one is due, then
    /// the run's destination gaps prefix-summed straight into `out`.
    /// Corrupt out-of-range locals clamp to `0xFFFF`.
    #[inline]
    fn fill<const ZETA: bool>(&mut self, out: &mut [u32]) -> usize {
        let want = self.remaining.min(out.len() as u64) as usize;
        // A local copy stays in registers across the loop; fields behind
        // `self` would be stored and reloaded around every key.
        let mut c = self.clone();
        let mut out = &mut out[..want];
        while !out.is_empty() {
            if c.run_remaining == 0 {
                c.src = c
                    .src
                    .wrapping_add(read_gamma(&mut c.r))
                    .wrapping_add(1)
                    .min(0xFFFF);
                c.run_remaining = read_gamma(&mut c.r);
                c.dst = read_gap::<ZETA>(&mut c.r).min(0xFFFF);
                out[0] = ((c.src as u32) << 16) | c.dst as u32;
                out = &mut out[1..];
            }
            let take = c.run_remaining.min(out.len() as u64) as usize;
            let (run, rest) = out.split_at_mut(take);
            for slot in run {
                c.dst = c.dst.saturating_add(read_gap::<ZETA>(&mut c.r)).min(0xFFFF);
                *slot = ((c.src as u32) << 16) | c.dst as u32;
            }
            c.run_remaining -= take as u64;
            out = rest;
        }
        c.remaining -= want as u64;
        *self = c;
        want
    }
}

impl<'a> TileCursor<'a> {
    /// Parses the count header and positions the cursor at the first key.
    pub fn new(codec: Codec, bytes: &'a [u8]) -> Result<Self> {
        if codec == Codec::RawSnb {
            if !bytes.len().is_multiple_of(SNB_EDGE_BYTES) {
                return Err(GraphError::Format(format!(
                    "raw tile length {} is not a multiple of the SNB edge size",
                    bytes.len()
                )));
            }
            return Ok(TileCursor::Raw { bytes, pos: 0 });
        }
        if bytes.is_empty() {
            // Zero-length coded tiles are valid (empty tiles cost 0 bytes
            // on disk once the offset table collapses them).
            return Ok(TileCursor::Varint {
                bytes,
                pos: 0,
                remaining: 0,
                key: 0,
            });
        }
        let mut pos = 0usize;
        let n = read_varint(bytes, &mut pos)?;
        if n > MAX_TILE_EDGES {
            return Err(GraphError::Format(format!(
                "coded tile claims {n} edges, above the per-tile bound"
            )));
        }
        Ok(match codec {
            Codec::RawSnb => unreachable!(),
            Codec::DeltaVarint => TileCursor::Varint {
                bytes,
                pos,
                remaining: n,
                key: 0,
            },
            Codec::GammaGap => TileCursor::Gamma(RunCursor::new(bytes, pos, n)),
            Codec::ZetaGap => TileCursor::Zeta(RunCursor::new(bytes, pos, n)),
            Codec::EliasFano => TileCursor::Ef(EfCursor::new(bytes, pos, n)?),
        })
    }

    /// Keys not yet yielded.
    #[inline]
    pub fn remaining(&self) -> u64 {
        match self {
            TileCursor::Raw { bytes, pos } => ((bytes.len() - pos) / SNB_EDGE_BYTES) as u64,
            TileCursor::Varint { remaining, .. } => *remaining,
            TileCursor::Gamma(rc) | TileCursor::Zeta(rc) => rc.remaining,
            TileCursor::Ef(ef) => ef.n - ef.idx,
        }
    }

    /// Whether decoding has consumed bits past the end of a γ/ζ stream,
    /// which only a truncated or corrupt stream makes it do (the stream
    /// reads as zeros there). Never true of a whole stream. Every ζ code
    /// read at the end of the stream consumes bits, so a short ζ stream
    /// is always flagged; a γ code read there consumes none, so a γ
    /// stream cut on a code boundary is not. The other codecs never read
    /// past their end: a short Elias-Fano stream yields fewer keys.
    #[inline]
    pub fn overran(&self) -> bool {
        match self {
            TileCursor::Gamma(rc) | TileCursor::Zeta(rc) => {
                rc.r.bit_pos() > rc.r.bytes.len() as u64 * 8
            }
            _ => false,
        }
    }

    /// Next key, or `None` when exhausted.
    #[inline]
    pub fn next_key(&mut self) -> Option<u32> {
        let mut key = [0u32];
        (self.next_block(&mut key) == 1).then_some(key[0])
    }

    /// Decodes up to `out.len()` keys into `out`; returns how many were
    /// written. Zero means the cursor is exhausted. The codec is matched
    /// once per block, not per key. Not `#[inline]`: one copy of the
    /// decode loops serves every algorithm's `for_each_edge` kernel.
    pub fn next_block(&mut self, out: &mut [u32]) -> usize {
        match self {
            TileCursor::Raw { bytes, pos } => {
                let edges = bytes[*pos..].chunks_exact(SNB_EDGE_BYTES);
                let n = edges.len().min(out.len());
                for (slot, c) in out.iter_mut().zip(edges) {
                    let e = SnbEdge::from_bytes([c[0], c[1], c[2], c[3]]);
                    *slot = (e.src as u32) << 16 | e.dst as u32;
                }
                *pos += n * SNB_EDGE_BYTES;
                n
            }
            TileCursor::Varint {
                bytes,
                pos,
                remaining,
                key,
            } => {
                let n = (*remaining).min(out.len() as u64) as usize;
                for slot in &mut out[..n] {
                    let delta = read_varint(bytes, pos).unwrap_or(0);
                    *key = key.saturating_add(delta).min(u32::MAX as u64);
                    *slot = *key as u32;
                }
                *remaining -= n as u64;
                n
            }
            TileCursor::Gamma(rc) => rc.fill::<false>(out),
            TileCursor::Zeta(rc) => rc.fill::<true>(out),
            TileCursor::Ef(ef) => ef.fill(out),
        }
    }

    /// Best-effort forward skip: positions the cursor so subsequent keys
    /// include everything `>= target`. Elias-Fano skips through the upper
    /// bit vector in near-constant time; the sequential codecs are a
    /// no-op (their callers filter during the linear scan anyway).
    pub fn skip_to(&mut self, target: u32) {
        if let TileCursor::Ef(ef) = self {
            ef.skip_to(target);
        }
    }
}

/// Elias-Fano cursor state.
#[derive(Debug, Clone)]
pub struct EfCursor<'a> {
    n: u64,
    l: u32,
    /// Destination bit width of the packed keys `(src << b) | dst`.
    b: u32,
    /// Bit offset of the packed lower halves.
    lower_start: u64,
    idx: u64,
    high: u64,
    upper: BitReader<'a>,
    lower: BitReader<'a>,
}

impl<'a> EfCursor<'a> {
    fn new(bytes: &'a [u8], mut pos: usize, n: u64) -> Result<Self> {
        if n == 0 {
            return Ok(EfCursor {
                n: 0,
                l: 0,
                b: 16,
                lower_start: 0,
                idx: 0,
                high: 0,
                upper: BitReader::at(bytes, 0),
                lower: BitReader::at(bytes, 0),
            });
        }
        let last = read_varint(bytes, &mut pos)?;
        if last > u32::MAX as u64 {
            return Err(GraphError::Format(
                "Elias-Fano tile key above the 32-bit key space".into(),
            ));
        }
        let b = *bytes.get(pos).ok_or_else(|| {
            GraphError::Format("Elias-Fano tile truncated before the dst-width byte".into())
        })? as u32;
        if !(1..=16).contains(&b) {
            return Err(GraphError::Format(format!(
                "Elias-Fano dst width {b} outside 1..=16"
            )));
        }
        pos += 1;
        let l = ef_lower_bits(last + 1, n);
        let lower_start = pos as u64 * 8;
        let upper_start = lower_start + n * l as u64;
        Ok(EfCursor {
            n,
            l,
            b,
            lower_start,
            idx: 0,
            high: 0,
            upper: BitReader::at(bytes, upper_start),
            lower: BitReader::at(bytes, lower_start),
        })
    }

    /// Maps a packed `(src << b) | dst` value back to the canonical
    /// `(src << 16) | dst` key, clamping corrupt out-of-range halves.
    #[inline]
    fn unpack(&self, packed: u64) -> u32 {
        let src = (packed >> self.b).min(0xFFFF) as u32;
        let dst = (packed & ((1u64 << self.b) - 1)) as u32;
        (src << 16) | dst
    }

    /// Decodes up to `out.len()` keys. An upper bit vector that ends
    /// before this element's one bit (a truncated stream: the encoder
    /// wrote exactly n ones) ends the cursor.
    #[inline]
    fn fill(&mut self, out: &mut [u32]) -> usize {
        let want = (self.n - self.idx).min(out.len() as u64) as usize;
        // A local copy, for the reason `RunCursor::fill` gives.
        let mut c = self.clone();
        let mut done = 0;
        for slot in &mut out[..want] {
            let (zeros, one) = c.upper.scan_unary();
            if !one {
                c.idx = c.n;
                break;
            }
            c.high += zeros;
            let low = c.lower.read_bits(c.l);
            c.idx += 1;
            *slot = c.unpack((c.high << c.l) | low);
            done += 1;
        }
        *self = c;
        done
    }

    /// Skips to the first element whose high half is `>= packed(target) >>
    /// l`, using popcount scanning over the upper bit vector, then
    /// repositions the lower-bits reader by random access. The packed
    /// target rounds destinations beyond the tile's dst width down, so the
    /// skip under-approximates and never passes a key `>= target`.
    fn skip_to(&mut self, target: u32) {
        if self.n == 0 || self.idx >= self.n {
            return;
        }
        let mask = (1u64 << self.b) - 1;
        let packed_target = ((target as u64 >> 16) << self.b) | (target as u64 & 0xFFFF).min(mask);
        let target_high = packed_target >> self.l;
        if target_high <= self.high {
            return;
        }
        let mut ones = 0u64;
        self.upper.skip_zeros(target_high - self.high, &mut ones);
        self.idx += ones;
        self.high = target_high;
        if self.idx >= self.n {
            self.idx = self.n;
            return;
        }
        self.lower.seek(self.lower_start + self.idx * self.l as u64);
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;

    fn raw_tile(edges: &[(u16, u16)]) -> Vec<u8> {
        let mut buf = Vec::new();
        for &(s, d) in edges {
            buf.extend_from_slice(&SnbEdge::new(s, d).to_bytes());
        }
        buf
    }

    fn keys_of(raw: &[u8]) -> Vec<u32> {
        sorted_keys(raw).unwrap()
    }

    #[test]
    fn bit_writer_reader_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        w.write_unary(5);
        w.write_bits(0xDEADBEEF, 32);
        w.write_bit(1);
        let len = w.bit_len();
        assert_eq!(len, 4 + 6 + 32 + 1);
        let bytes = w.finish();
        let mut r = BitReader::at(&bytes, 0);
        assert_eq!(r.read_bits(4), 0b1011);
        assert_eq!(r.read_unary(), 5);
        assert_eq!(r.read_bits(32), 0xDEADBEEF);
        assert_eq!(r.read_bit(), 1);
    }

    #[test]
    fn reader_past_end_yields_zeros() {
        let bytes = [0xFFu8];
        let mut r = BitReader::at(&bytes, 0);
        assert_eq!(r.read_bits(8), 0xFF);
        assert_eq!(r.read_bits(16), 0);
        assert_eq!(r.read_unary(), 0); // terminates at end of stream
    }

    #[test]
    fn gamma_roundtrip_values() {
        let mut w = BitWriter::new();
        let vals = [0u64, 1, 2, 3, 7, 8, 127, 128, 1 << 16, u32::MAX as u64];
        for &v in &vals {
            write_gamma(&mut w, v);
        }
        let bytes = w.finish();
        let mut r = BitReader::at(&bytes, 0);
        for &v in &vals {
            assert_eq!(read_gamma(&mut r), v);
        }
    }

    #[test]
    fn zeta_roundtrip_values() {
        for k in 1..=6u32 {
            let mut w = BitWriter::new();
            let vals = [
                0u64,
                1,
                2,
                6,
                7,
                8,
                63,
                64,
                511,
                512,
                1 << 20,
                u32::MAX as u64,
            ];
            for &v in &vals {
                write_zeta(&mut w, v, k);
            }
            let bytes = w.finish();
            let mut r = BitReader::at(&bytes, 0);
            for &v in &vals {
                assert_eq!(read_zeta(&mut r, k), v, "k={k} v={v}");
            }
        }
    }

    #[test]
    fn zeta1_equals_gamma_length() {
        // ζ_1 is γ; the codes must agree bit for bit.
        for v in 0..200u64 {
            let mut a = BitWriter::new();
            write_gamma(&mut a, v);
            let mut b = BitWriter::new();
            write_zeta(&mut b, v, 1);
            assert_eq!(a.bit_len(), b.bit_len(), "v={v}");
            assert_eq!(a.finish(), b.finish(), "v={v}");
        }
    }

    fn sample_tiles() -> Vec<Vec<u8>> {
        let mut tiles = vec![
            raw_tile(&[]),                       // empty
            raw_tile(&[(0, 0)]),                 // single min edge
            raw_tile(&[(65535, 65535)]),         // single max edge
            raw_tile(&[(5, 9), (5, 9), (5, 9)]), // duplicates (gap 0)
            raw_tile(&[(0, 1), (0, 2), (0, 3), (1, 0)]),
        ];
        // Dense run (gap 1 everywhere).
        tiles.push(raw_tile(&(0..2000u16).map(|i| (0, i)).collect::<Vec<_>>()));
        // Skewed pseudo-random tile.
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut edges = Vec::new();
        for _ in 0..3000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            edges.push(((x >> 48) as u16 % 997, (x >> 32) as u16));
        }
        tiles.push(raw_tile(&edges));
        // Full corner spread.
        tiles.push(raw_tile(&[(0, 0), (0, 65535), (65535, 0), (65535, 65535)]));
        tiles
    }

    #[test]
    fn every_codec_roundtrips_every_sample() {
        for raw in sample_tiles() {
            let want = keys_of(&raw);
            for codec in Codec::ALL {
                let enc = codec.encode_tile(&raw).unwrap();
                assert_eq!(
                    codec.edge_count(&enc).unwrap(),
                    want.len() as u64,
                    "{} count",
                    codec.name()
                );
                // Full decode to SNB bytes.
                let dec = codec.decode_tile(&enc).unwrap();
                let mut got = keys_of(&dec);
                got.sort_unstable();
                assert_eq!(got, want, "{} bytes", codec.name());
                // Streaming cursor.
                let mut cur = codec.cursor(&enc).unwrap();
                assert_eq!(cur.remaining(), want.len() as u64);
                let mut keys = Vec::new();
                let mut block = [0u32; 17]; // odd size exercises refills
                loop {
                    let n = cur.next_block(&mut block);
                    if n == 0 {
                        break;
                    }
                    keys.extend_from_slice(&block[..n]);
                }
                keys.sort_unstable();
                assert_eq!(keys, want, "{} cursor", codec.name());
                assert_eq!(cur.remaining(), 0);
            }
        }
    }

    #[test]
    fn coded_streams_beat_varint_on_dense_tiles() {
        // Dense key space (u/n ~ 17): Elias-Fano spends ~log2(u/n) + 2 bits
        // per edge, so it only beats one-byte varint gaps on dense tiles.
        let raw = raw_tile(
            &(0..4000u16)
                .map(|i| (i / 2000, i % 2000))
                .collect::<Vec<_>>(),
        );
        let varint = Codec::DeltaVarint.encode_tile(&raw).unwrap().len();
        let gamma = Codec::GammaGap.encode_tile(&raw).unwrap().len();
        let zeta = Codec::ZetaGap.encode_tile(&raw).unwrap().len();
        let ef = Codec::EliasFano.encode_tile(&raw).unwrap().len();
        assert!(gamma < varint, "gamma {gamma} vs varint {varint}");
        assert!(zeta < varint, "zeta {zeta} vs varint {varint}");
        assert!(ef < varint, "ef {ef} vs varint {varint}");
    }

    #[test]
    fn elias_fano_skip_to_matches_linear_scan() {
        let mut edges: Vec<(u16, u16)> = Vec::new();
        let mut x = 0xDEADBEEFu64;
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            edges.push(((x >> 52) as u16, (x >> 36) as u16));
        }
        let raw = raw_tile(&edges);
        let keys = keys_of(&raw);
        let enc = Codec::EliasFano.encode_tile(&raw).unwrap();
        for target in [0u32, 1, 1 << 15, 1 << 22, keys[keys.len() / 2], u32::MAX] {
            let mut cur = Codec::EliasFano.cursor(&enc).unwrap();
            cur.skip_to(target);
            let mut got = Vec::new();
            while let Some(k) = cur.next_key() {
                if k >= target {
                    got.push(k);
                }
            }
            let want: Vec<u32> = keys.iter().copied().filter(|&k| k >= target).collect();
            assert_eq!(got, want, "target={target}");
        }
    }

    #[test]
    fn skip_to_midway_through_iteration() {
        let raw = raw_tile(
            &(0..1000u16)
                .map(|i| (i / 50, i.wrapping_mul(7)))
                .collect::<Vec<_>>(),
        );
        let keys = keys_of(&raw);
        let enc = Codec::EliasFano.encode_tile(&raw).unwrap();
        let mut cur = Codec::EliasFano.cursor(&enc).unwrap();
        // Consume a prefix, then skip.
        for _ in 0..100 {
            cur.next_key();
        }
        let target = keys[700];
        cur.skip_to(target);
        let mut got = Vec::new();
        while let Some(k) = cur.next_key() {
            if k >= target {
                got.push(k);
            }
        }
        let want: Vec<u32> = keys[100..]
            .iter()
            .copied()
            .filter(|&k| k >= target)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn a_zero_count_stream_is_an_empty_tile() {
        // Empty tiles encode to zero bytes, but a bare `varint(0)` count
        // header parses as zero edges under every codec too.
        assert_eq!(
            Codec::DeltaVarint.encode_tile(&[]).unwrap(),
            Vec::<u8>::new()
        );
        let zero = compress_tile(&[]).unwrap();
        assert_eq!(zero, [0]);
        assert_eq!(decompress_tile(&zero).unwrap(), Vec::<u8>::new());
        for codec in Codec::CODED {
            assert_eq!(codec.edge_count(&zero).unwrap(), 0);
            let mut cur = codec.cursor(&zero).unwrap();
            assert_eq!(cur.next_key(), None);
        }
    }

    #[test]
    fn dense_tiles_varint_well() {
        // Consecutive edges have delta 1: one byte per edge against four.
        let raw = raw_tile(&(0..1000u16).map(|i| (0, i)).collect::<Vec<_>>());
        let coded = compress_tile(&raw).unwrap();
        assert!(raw.len() > 3 * coded.len(), "{} bytes", coded.len());
    }

    #[test]
    fn corrupt_varint_streams_rejected() {
        let c = compress_tile(&raw_tile(&[(1, 2), (3, 4)])).unwrap();
        // Truncated.
        assert!(decompress_tile(&c[..c.len() - 1]).is_err());
        // Trailing garbage.
        let mut g = c.clone();
        g.push(0);
        assert!(decompress_tile(&g).is_err());
        // Unterminated varint.
        assert!(decompress_tile(&[0x80, 0x80]).is_err());
        // A count far beyond the stream is an error, not a huge reservation.
        let mut huge = Vec::new();
        write_varint(&mut huge, u64::MAX);
        huge.push(1);
        assert!(Codec::DeltaVarint.decode_tile(&huge).is_err());
    }

    #[test]
    fn varint_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn ragged_raw_tiles_rejected() {
        for codec in Codec::ALL {
            assert!(codec.encode_tile(&[1, 2, 3]).is_err(), "{}", codec.name());
        }
        assert!(Codec::RawSnb.cursor(&[1, 2, 3]).is_err());
    }

    #[test]
    fn corrupt_count_header_rejected() {
        // A count far above the per-tile bound must be refused, not looped.
        let mut bytes = Vec::new();
        write_varint(&mut bytes, u64::MAX);
        for codec in Codec::CODED {
            assert!(codec.cursor(&bytes).is_err(), "{}", codec.name());
            assert!(codec.edge_count(&bytes).is_err(), "{}", codec.name());
        }
    }

    #[test]
    fn truncated_streams_never_panic_or_hang() {
        let raw = raw_tile(&(0..500u16).map(|i| (i % 7, i)).collect::<Vec<_>>());
        for codec in Codec::CODED {
            let enc = codec.encode_tile(&raw).unwrap();
            for cut in [enc.len() / 2, enc.len().saturating_sub(1), 1] {
                if let Ok(mut cur) = codec.cursor(&enc[..cut]) {
                    let started = std::time::Instant::now();
                    let mut block = [0u32; 64];
                    let mut total = 0u64;
                    loop {
                        let n = cur.next_block(&mut block);
                        if n == 0 {
                            break;
                        }
                        total += n as u64;
                    }
                    assert!(total <= 500);
                    // The end of the stream ends the decode: work is
                    // bounded by the stream and its count header.
                    assert!(
                        started.elapsed() < std::time::Duration::from_millis(250),
                        "{} cut at {cut}: {:?}",
                        codec.name(),
                        started.elapsed()
                    );
                }
            }
        }
    }

    #[test]
    fn truncated_elias_fano_ends_at_end_of_stream() {
        // Half the upper bit vector is gone: the cursor yields the keys
        // whose one bits survive, all of them right, and then ends.
        let raw = raw_tile(&(0..500u16).map(|i| (i % 7, i)).collect::<Vec<_>>());
        let want = keys_of(&raw);
        let enc = Codec::EliasFano.encode_tile(&raw).unwrap();
        let TileCursor::Ef(whole) = Codec::EliasFano.cursor(&enc).unwrap() else {
            panic!("not an Elias-Fano cursor");
        };
        let upper_byte = (whole.upper.bit_pos() / 8) as usize;
        let cut = upper_byte + (enc.len() - upper_byte) / 2;
        let mut cur = Codec::EliasFano.cursor(&enc[..cut]).unwrap();
        let mut got = Vec::new();
        while let Some(k) = cur.next_key() {
            got.push(k);
        }
        assert!(!got.is_empty() && got.len() < want.len());
        assert_eq!(got, want[..got.len()]);
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn only_a_short_zeta_stream_overruns() {
        // A whole stream of any codec ends inside its last byte. A ζ
        // stream cut short — or zeroed from the cut on: a fixed byte range
        // keeps its length — still yields its header's count of keys, and
        // the reader's position is what tells.
        let drain = |cur: &mut TileCursor<'_>| while cur.next_key().is_some() {};
        for raw in sample_tiles() {
            for codec in Codec::CODED {
                let enc = codec.encode_tile(&raw).unwrap();
                let mut cur = codec.cursor(&enc).unwrap();
                drain(&mut cur);
                assert!(!cur.overran(), "{} whole", codec.name());
            }
        }
        let raw = raw_tile(&(0..500u16).map(|i| (i % 7, i)).collect::<Vec<_>>());
        let enc = Codec::ZetaGap.encode_tile(&raw).unwrap();
        for cut in [3, enc.len() / 2, enc.len() - 1] {
            let mut zeroed = enc.clone();
            zeroed[cut..].fill(0);
            for short in [&enc[..cut], &zeroed[..]] {
                let mut cur = Codec::ZetaGap.cursor(short).unwrap();
                drain(&mut cur);
                assert!(cur.overran(), "cut at {cut} of {}", enc.len());
            }
        }
    }

    /// FNV-1a over every golden tile's stream, each prefixed by its length.
    fn golden_hash(codec: Codec) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x100000001b3);
            }
        };
        for raw in golden_tiles() {
            let enc = codec.encode_tile(&raw).unwrap();
            eat(&(enc.len() as u64).to_le_bytes());
            eat(&enc);
        }
        h
    }

    /// The sample tiles plus fixed-seed xorshift tiles from dense (long
    /// runs, small gaps) to sparse (Elias-Fano unary gaps of hundreds of
    /// zeros, gap codes far past the 12-bit table).
    fn golden_tiles() -> Vec<Vec<u8>> {
        let mut tiles = sample_tiles();
        let mut x = 0x2545F4914F6CDD1Du64;
        for (edges, src_mask, dst_mask) in [
            (4000usize, 0x3Fu16, 0x3FFu16),
            (4000, 0xFFF, 0xFFF),
            (600, 0xFFFF, 0xFFFF),
            (40, 0xFFFF, 0xFFFF),
            (3, 0xFFFF, 0xFFFF),
        ] {
            let mut e = Vec::with_capacity(edges);
            for _ in 0..edges {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                e.push(((x >> 48) as u16 & src_mask, (x >> 24) as u16 & dst_mask));
            }
            tiles.push(raw_tile(&e));
        }
        tiles
    }

    #[test]
    fn coded_streams_are_byte_identical_to_the_bit_at_a_time_writer() {
        // Hashes recorded at the commit before the word-at-a-time
        // BitWriter (5fcef9e): the on-disk format did not move.
        for (codec, want) in [
            (Codec::DeltaVarint, 0xd82039a97a144519u64),
            (Codec::GammaGap, 0x9e2c3938fe5f36d2),
            (Codec::ZetaGap, 0xe5097e00c8488482),
            (Codec::EliasFano, 0xb8b047edd66514b1),
        ] {
            assert_eq!(golden_hash(codec), want, "{}", codec.name());
        }
    }

    #[test]
    fn tag_roundtrip_and_names() {
        for codec in Codec::ALL {
            assert_eq!(Codec::from_tag(codec.tag()).unwrap(), codec);
            assert_eq!(Codec::parse(codec.name()).unwrap(), codec);
        }
        assert!(Codec::from_tag(200).is_err());
        assert!(Codec::parse("zstd").is_err());
    }

    #[test]
    fn empty_bytes_decode_as_empty_tile() {
        for codec in Codec::ALL {
            let mut cur = codec.cursor(&[]).unwrap();
            assert_eq!(cur.remaining(), 0);
            assert_eq!(cur.next_key(), None);
            assert_eq!(codec.edge_count(&[]).unwrap(), 0);
        }
    }
}
