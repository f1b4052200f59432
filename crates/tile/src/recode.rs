//! Re-encoding raw stores with a bit-level tile codec, in memory or on
//! disk.
//!
//! A coded store keeps the `.tiles`/`.start`/`.deg` files: the data file
//! holds each tile's codec stream (concatenated in the same physical-group
//! order as raw stores), the version-2 `.start` header carries the codec
//! tag plus the per-tile compressed offset table (see [`crate::file`]),
//! and the `.deg` is the raw store's, byte for byte. The sweep engine, query batches, and point reads all
//! consume either format through the same [`crate::TileIndex`] byte
//! ranges; decoding happens on the fly in the view layer.
//!
//! Both entry points ([`encode_store`] from memory, [`recode_store_files`]
//! from disk) run the one wave executor below: tiles are taken in waves of
//! at most 1 MiB (`WAVE_BYTES`) of source bytes, a wave is fetched with one read,
//! its tiles are encoded in parallel (split by byte length) and the coded
//! blocks appended in tile order. The output does not depend on the thread
//! count, and memory is O(wave), a tile larger than the bound being a wave
//! of its own.

use crate::bitcodec::Codec;
use crate::codec::EdgeEncoding;
use crate::deg::write_deg_file;
use crate::file::{write_start_file_with, TileFile, TileIndex, TilePaths};
use crate::store::TileStore;
use gstore_graph::{GraphError, Result};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::path::Path;

/// Upper bound on the source bytes of one encode wave; a larger tile is a
/// wave of its own.
const WAVE_BYTES: u64 = 1 << 20;

/// Outcome of re-encoding a store with a codec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodecReport {
    pub codec: Codec,
    /// Raw SNB bytes the store represents (edges × 4).
    pub logical_bytes: u64,
    /// Bytes the coded tile streams occupy.
    pub disk_bytes: u64,
    pub edge_count: u64,
}

impl CodecReport {
    /// Logical / disk (> 1 means saving; 1.0 for empty stores).
    pub fn ratio(&self) -> f64 {
        if self.disk_bytes == 0 {
            1.0
        } else {
            self.logical_bytes as f64 / self.disk_bytes as f64
        }
    }

    /// On-disk bytes per (logical) edge.
    pub fn bytes_per_edge(&self) -> f64 {
        if self.edge_count == 0 {
            0.0
        } else {
            self.disk_bytes as f64 / self.edge_count as f64
        }
    }
}

fn require_snb(encoding: EdgeEncoding) -> Result<()> {
    if encoding != EdgeEncoding::Snb {
        return Err(GraphError::InvalidParameter(
            "tile codecs require SNB encoding".into(),
        ));
    }
    Ok(())
}

/// Encodes an in-memory store with `codec`, returning the coded index and
/// the coded data blob — ready to back an engine via `MemBackend` or an
/// SSD simulator. `Codec::RawSnb` returns a plain raw index over a copy of
/// the store's bytes.
pub fn encode_store(store: &TileStore, codec: Codec) -> Result<(TileIndex, Vec<u8>)> {
    let mut index = store.index();
    if codec == Codec::RawSnb {
        return Ok((index, store.data().to_vec()));
    }
    require_snb(store.encoding())?;
    let mut data = Vec::with_capacity(store.data().len() / 2 + 16);
    let source = WaveSource::Mem(store.data());
    let comp_offsets = encode_waves(&index, source, codec, WAVE_BYTES, |coded| {
        data.extend_from_slice(coded);
        Ok(())
    })?;
    index.codec = codec;
    index.comp_offsets = Some(comp_offsets);
    Ok((index, data))
}

/// Decodes coded tile `t`, holding the result to the edge count the index
/// records: a damaged stream that still parses must not re-encode into a
/// store whose tiles disagree with its start-edge array.
fn decode_checked(index: &TileIndex, t: u64, codec: Codec, bytes: &[u8]) -> Result<Vec<u8>> {
    let raw = codec.decode_tile(bytes)?;
    let edges = index.start_edge[t as usize + 1] - index.start_edge[t as usize];
    if raw.len() as u64 != edges * crate::snb::SNB_EDGE_BYTES as u64 {
        return Err(GraphError::Format(format!(
            "tile {t} decoded to {} bytes, index implies {edges} edges",
            raw.len()
        )));
    }
    Ok(raw)
}

/// Where a wave's source bytes come from.
enum WaveSource<'a> {
    /// An in-memory store's tile data, borrowed in place.
    Mem(&'a [u8]),
    /// An on-disk store, read into one reused wave buffer.
    File { file: &'a TileFile, wave: Vec<u8> },
}

impl WaveSource<'_> {
    fn fetch(&mut self, range: Range<u64>) -> Result<&[u8]> {
        match self {
            WaveSource::Mem(data) => Ok(&data[range.start as usize..range.end as usize]),
            WaveSource::File { file, wave } => {
                file.read_range_into(range, wave)?;
                Ok(wave)
            }
        }
    }
}

/// Re-encodes every tile `index` describes with `codec`, in waves of at
/// most `wave_bytes` source bytes, handing `sink` the coded bytes in tile
/// order. Returns the compressed offset table. A coded source is decoded
/// first.
fn encode_waves(
    index: &TileIndex,
    mut source: WaveSource<'_>,
    codec: Codec,
    wave_bytes: u64,
    mut sink: impl FnMut(&[u8]) -> Result<()>,
) -> Result<Vec<u64>> {
    let tile_count = index.tile_count();
    let src_codec = index.codec;
    let mut comp_offsets = Vec::with_capacity(tile_count as usize + 1);
    comp_offsets.push(0u64);
    let mut written = 0u64;
    let mut tiles: Vec<(u64, Range<usize>)> = Vec::new();
    let mut first = 0u64;
    while first < tile_count {
        let mut end = first + 1;
        while end < tile_count {
            let grown = index.tiles_byte_range(first, end + 1);
            if grown.end - grown.start > wave_bytes {
                break;
            }
            end += 1;
        }
        let wave = index.tiles_byte_range(first, end);
        let base = wave.start;
        let bytes = source.fetch(wave)?;
        tiles.clear();
        tiles.extend((first..end).map(|t| {
            let r = index.tile_byte_range(t);
            (t, (r.start - base) as usize..(r.end - base) as usize)
        }));
        let parts = rayon::par_weighted_chunks(
            &tiles,
            |(_, r)| r.len() as u64,
            |part| -> Result<(Vec<u8>, Vec<usize>)> {
                let mut coded = Vec::new();
                let mut lens = Vec::with_capacity(part.len());
                for (t, r) in part {
                    let block = match src_codec {
                        Codec::RawSnb => codec.encode_tile(&bytes[r.clone()])?,
                        c => {
                            codec.encode_tile(&decode_checked(index, *t, c, &bytes[r.clone()])?)?
                        }
                    };
                    lens.push(block.len());
                    coded.extend_from_slice(&block);
                }
                Ok((coded, lens))
            },
        );
        for part in parts {
            let (coded, lens) = part?;
            sink(&coded)?;
            for len in lens {
                written += len as u64;
                comp_offsets.push(written);
            }
        }
        first = end;
    }
    Ok(comp_offsets)
}

/// [`CodecReport`] for an already-built coded index.
pub fn report_for(index: &TileIndex) -> CodecReport {
    CodecReport {
        codec: index.codec,
        logical_bytes: index.logical_bytes(),
        disk_bytes: index.data_bytes(),
        edge_count: index.edge_count(),
    }
}

/// Writes an in-memory store to `dir/name.{tiles,start,deg}` in coded
/// form.
pub fn write_coded_store(
    store: &TileStore,
    dir: &Path,
    name: &str,
    codec: Codec,
) -> Result<(TilePaths, CodecReport)> {
    let (index, data) = encode_store(store, codec)?;
    let paths = TilePaths::new(dir, name);
    std::fs::write(&paths.tiles, &data)?;
    write_deg_file(&paths.deg, index.degrees())?;
    write_start_file_with(
        &paths.start,
        &index.layout,
        index.encoding,
        index.codec,
        &index.start_edge,
        index.comp_offsets.as_deref(),
    )?;
    Ok((paths, report_for(&index)))
}

/// Re-encodes an on-disk store wave by wave — O(wave) memory, no
/// full-store materialisation. `src` may itself be raw or coded (tiles are
/// decoded first when it is); the output store lands at `dir/name.*`, its
/// `.deg` a copy of the source's degree array.
///
/// All three files are written under temporary names (`name.tiles.tmp`,
/// `name.deg.tmp`, `name.start.tmp`) and renamed at the end, `.tiles`
/// first and `.start` last. An error while encoding or writing removes the
/// temporaries and leaves the final names as they were, so it never leaves
/// half a store there; only a failing rename after the `.tiles` one could.
/// Nothing is synced (no `sync_all`, no directory sync): the output is
/// not durable across a power loss.
pub fn recode_store_files(
    src: &TilePaths,
    dir: &Path,
    name: &str,
    codec: Codec,
) -> Result<(TilePaths, CodecReport)> {
    let tf = TileFile::open(src)?;
    require_snb(tf.index().encoding)?;
    if codec == Codec::RawSnb {
        return Err(GraphError::InvalidParameter(
            "recoding to the raw codec would just copy the store; use the raw pair directly".into(),
        ));
    }
    std::fs::create_dir_all(dir)?;
    let out = TilePaths::new(dir, name);
    if out == *src {
        return Err(GraphError::InvalidParameter(
            "recode output would overwrite its input store".into(),
        ));
    }
    let tmp = TilePaths {
        tiles: dir.join(format!("{name}.tiles.tmp")),
        start: dir.join(format!("{name}.start.tmp")),
        deg: dir.join(format!("{name}.deg.tmp")),
    };
    let index = tf.index();
    let written = (|| {
        let mut data = BufWriter::new(File::create(&tmp.tiles)?);
        let source = WaveSource::File {
            file: &tf,
            wave: Vec::new(),
        };
        let comp_offsets = encode_waves(index, source, codec, WAVE_BYTES, |coded| {
            data.write_all(coded)?;
            Ok(())
        })?;
        data.flush()?;
        write_deg_file(&tmp.deg, index.degrees())?;
        write_start_file_with(
            &tmp.start,
            &index.layout,
            index.encoding,
            codec,
            &index.start_edge,
            Some(&comp_offsets),
        )?;
        std::fs::rename(&tmp.tiles, &out.tiles)?;
        std::fs::rename(&tmp.deg, &out.deg)?;
        std::fs::rename(&tmp.start, &out.start)?;
        Ok(comp_offsets[comp_offsets.len() - 1])
    })()
    .inspect_err(|_: &GraphError| {
        // Whichever temporaries exist; the error to report is the first.
        for path in [&tmp.tiles, &tmp.deg, &tmp.start] {
            let _ = std::fs::remove_file(path);
        }
    })?;
    Ok((
        out,
        CodecReport {
            codec,
            logical_bytes: index.logical_bytes(),
            disk_bytes: written,
            edge_count: index.edge_count(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::ConversionOptions;
    use crate::file::write_store;
    use gstore_graph::gen::{generate_rmat, RmatParams};
    use gstore_graph::{Edge, EdgeList, GraphKind};

    fn sample_store() -> TileStore {
        let el = generate_rmat(&RmatParams::kron(10, 8)).unwrap();
        TileStore::build(&el, &ConversionOptions::new(5).with_group_side(4)).unwrap()
    }

    #[test]
    fn encode_store_roundtrips_through_index_ranges() {
        let store = sample_store();
        for codec in Codec::ALL {
            let (index, data) = encode_store(&store, codec).unwrap();
            assert_eq!(index.codec, codec);
            assert_eq!(index.data_bytes(), data.len() as u64);
            assert_eq!(index.logical_bytes(), store.data_bytes());
            // Every tile decodes back to the same key multiset.
            for idx in 0..store.tile_count() {
                let r = index.tile_byte_range(idx);
                let raw = codec
                    .decode_tile(&data[r.start as usize..r.end as usize])
                    .unwrap();
                let mut got: Vec<&[u8]> = raw.chunks_exact(4).collect();
                let mut want: Vec<&[u8]> = store.tile_bytes(idx).chunks_exact(4).collect();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "{} tile {idx}", codec.name());
            }
        }
    }

    #[test]
    fn coded_stores_are_smaller() {
        let store = sample_store();
        for codec in Codec::CODED {
            let (index, data) = encode_store(&store, codec).unwrap();
            assert!(
                (data.len() as u64) < store.data_bytes(),
                "{}: {} vs {}",
                codec.name(),
                data.len(),
                store.data_bytes()
            );
            assert!(index.compression_ratio() > 1.0);
        }
    }

    #[test]
    fn write_and_reopen_coded_store() {
        let dir = tempfile::tempdir().unwrap();
        let store = sample_store();
        for codec in Codec::CODED {
            let (paths, report) =
                write_coded_store(&store, dir.path(), codec.name(), codec).unwrap();
            assert!(report.ratio() > 1.0, "{}", codec.name());
            let tf = TileFile::open(&paths).unwrap();
            assert_eq!(tf.index().codec, codec);
            assert_eq!(tf.index().edge_count(), store.edge_count());
            assert_eq!(tf.index().data_bytes(), report.disk_bytes);
            // Full decode restores the edge multiset.
            let back = tf.load_all().unwrap();
            let mut got = back.to_edges();
            let mut want = store.to_edges();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{}", codec.name());
        }
    }

    #[test]
    fn recode_files_matches_in_memory_encoding() {
        let dir = tempfile::tempdir().unwrap();
        let store = sample_store();
        let raw_paths = write_store(&store, dir.path(), "g").unwrap();
        for codec in Codec::CODED {
            let (paths, report) = recode_store_files(
                &raw_paths,
                dir.path(),
                &format!("g-{}", codec.name()),
                codec,
            )
            .unwrap();
            let (mem_index, mem_data) = encode_store(&store, codec).unwrap();
            assert_eq!(std::fs::read(&paths.tiles).unwrap(), mem_data);
            let index = TileIndex::read(&paths.start).unwrap();
            assert_eq!(index.comp_offsets, mem_index.comp_offsets);
            assert_eq!(report.disk_bytes, mem_data.len() as u64);
            assert_eq!(report.logical_bytes, store.data_bytes());
        }
    }

    #[test]
    fn recode_between_codecs() {
        // coded → coded goes through a decode pass.
        let dir = tempfile::tempdir().unwrap();
        let store = sample_store();
        let (gamma_paths, _) =
            write_coded_store(&store, dir.path(), "gam", Codec::GammaGap).unwrap();
        let (ef_paths, _) =
            recode_store_files(&gamma_paths, dir.path(), "ef", Codec::EliasFano).unwrap();
        let (_, want) = encode_store(&store, Codec::EliasFano).unwrap();
        assert_eq!(std::fs::read(&ef_paths.tiles).unwrap(), want);
    }

    /// Tile-by-tile on one thread: what the wave executor must reproduce.
    fn sequential_reference(store: &TileStore, src: Codec, codec: Codec) -> (Vec<u8>, Vec<u64>) {
        let mut data = Vec::new();
        let mut comp_offsets = vec![0u64];
        for idx in 0..store.tile_count() {
            let raw = match src {
                Codec::RawSnb => store.tile_bytes(idx).to_vec(),
                c => c
                    .decode_tile(&c.encode_tile(store.tile_bytes(idx)).unwrap())
                    .unwrap(),
            };
            data.extend_from_slice(&codec.encode_tile(&raw).unwrap());
            comp_offsets.push(data.len() as u64);
        }
        (data, comp_offsets)
    }

    /// Runs the wave executor from memory and from a file, at `wave_bytes`.
    fn assert_waves_match(store: &TileStore, src: Codec, codec: Codec, wave_bytes: u64) {
        let (want_data, want_offsets) = sequential_reference(store, src, codec);
        let dir = tempfile::tempdir().unwrap();
        let (paths, _) = write_coded_store(store, dir.path(), "src", src).unwrap();
        let tf = TileFile::open(&paths).unwrap();
        let file = WaveSource::File {
            file: &tf,
            wave: Vec::new(),
        };
        let mut sources = vec![(tf.index().clone(), file)];
        if src == Codec::RawSnb {
            sources.push((tf.index().clone(), WaveSource::Mem(store.data())));
        }
        for (index, source) in sources {
            let mut data = Vec::new();
            let offsets = encode_waves(&index, source, codec, wave_bytes, |coded| {
                data.extend_from_slice(coded);
                Ok(())
            })
            .unwrap();
            let what = format!("{} -> {} waves of {wave_bytes}", src.name(), codec.name());
            assert_eq!(data, want_data, "{what}");
            assert_eq!(offsets, want_offsets, "{what}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Wave-parallel encoding equals the sequential per-tile reference
        /// byte for byte — `.tiles` and `comp_offsets` — for every coded
        /// target, raw and coded sources, and wave bounds from "every tile
        /// is larger than the wave" (runs of empty tiles then form waves of
        /// their own between the non-empty ones) up to the real constant.
        #[test]
        fn waves_match_sequential_reference(
            n in 2u64..300,
            pairs in proptest::collection::vec((0u64..300, 0u64..300), 0..600),
            directed in proptest::prelude::any::<bool>(),
            tile_bits in 1u32..7,
            src_sel in 0usize..5,
            codec_sel in 0usize..4,
            wave_sel in 0usize..5,
        ) {
            let kind = if directed { GraphKind::Directed } else { GraphKind::Undirected };
            let edges = pairs.into_iter().map(|(s, d)| Edge::new(s % n, d % n)).collect();
            let el = EdgeList::new(n, kind, edges).unwrap();
            let store =
                TileStore::build(&el, &ConversionOptions::new(tile_bits).with_group_side(2)).unwrap();
            let wave_bytes = [1, 16, 256, 4096, WAVE_BYTES][wave_sel];
            assert_waves_match(&store, Codec::ALL[src_sel], Codec::CODED[codec_sel], wave_bytes);
        }
    }

    #[test]
    fn all_empty_store_is_one_empty_wave() {
        let el = EdgeList::new(64, GraphKind::Undirected, vec![]).unwrap();
        let store = TileStore::build(&el, &ConversionOptions::new(2)).unwrap();
        for codec in Codec::CODED {
            for src in Codec::ALL {
                assert_waves_match(&store, src, codec, WAVE_BYTES);
            }
        }
    }

    #[test]
    fn a_tile_larger_than_the_wave_bound_is_its_own_wave() {
        // 300 000 edges in tile (0, 0) of a 2 x 2 grid: 1.2 MB of raw SNB,
        // above WAVE_BYTES, between a few small tiles and empty ones.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut edges: Vec<Edge> = (0..300_000)
            .map(|_| Edge::new(next() % 1024, next() % 1024))
            .collect();
        edges.extend((0..50).map(|i| Edge::new(1024 + i, i)));
        edges.extend((0..70).map(|i| Edge::new(1500 + i, 1100 + i)));
        let el = EdgeList::new(2048, GraphKind::Directed, edges).unwrap();
        let store = TileStore::build(&el, &ConversionOptions::new(10)).unwrap();
        assert!(store.tile_bytes(0).len() as u64 > WAVE_BYTES);
        let dir = tempfile::tempdir().unwrap();
        let raw_paths = write_store(&store, dir.path(), "g").unwrap();
        for codec in [Codec::ZetaGap, Codec::EliasFano] {
            let (want_data, want_offsets) = sequential_reference(&store, Codec::RawSnb, codec);
            let (index, data) = encode_store(&store, codec).unwrap();
            assert_eq!(data, want_data);
            assert_eq!(index.comp_offsets.as_deref(), Some(&want_offsets[..]));
            let (paths, _) =
                recode_store_files(&raw_paths, dir.path(), codec.name(), codec).unwrap();
            assert_eq!(std::fs::read(&paths.tiles).unwrap(), want_data);
            let index = TileIndex::read(&paths.start).unwrap();
            assert_eq!(index.comp_offsets, Some(want_offsets));
        }
    }

    fn dir_entries(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn failed_recode_leaves_no_half_pair() {
        let dir = tempfile::tempdir().unwrap();
        let store = sample_store();
        let (gamma, _) = write_coded_store(&store, dir.path(), "gam", Codec::GammaGap).unwrap();
        let good = std::fs::read(&gamma.tiles).unwrap();

        // Damage one tile in the middle of the store: its count header now
        // claims more edges than a tile can hold.
        let index = TileIndex::read(&gamma.start).unwrap();
        let victim = (index.tile_count() / 2..index.tile_count())
            .find(|&t| index.tile_byte_range(t).end - index.tile_byte_range(t).start >= 5)
            .unwrap();
        let at = index.tile_byte_range(victim).start as usize;
        let mut bad = good.clone();
        bad[at..at + 5].copy_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0x7F]);
        std::fs::write(&gamma.tiles, &bad).unwrap();

        let out = dir.path().join("out");
        let err = recode_store_files(&gamma, &out, "ef", Codec::EliasFano).unwrap_err();
        assert!(matches!(err, GraphError::Format(_)), "got {err:?}");
        assert_eq!(dir_entries(&out), Vec::<String>::new());

        // A stream that parses but yields another edge count than the
        // index records is refused as well: here, a neighbour's bytes.
        let edges = |t: u64| index.start_edge[t as usize + 1] - index.start_edge[t as usize];
        let other = (0..index.tile_count())
            .find(|&t| edges(t) > 0 && edges(t) != edges(victim))
            .unwrap();
        let r = index.tile_byte_range(other);
        let err = decode_checked(
            &index,
            victim,
            Codec::GammaGap,
            &good[r.start as usize..r.end as usize],
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::Format(_)), "got {err:?}");

        // A clean rerun into the same place succeeds, byte-identically.
        std::fs::write(&gamma.tiles, &good).unwrap();
        let (paths, _) = recode_store_files(&gamma, &out, "ef", Codec::EliasFano).unwrap();
        assert_eq!(dir_entries(&out), ["ef.deg", "ef.start", "ef.tiles"]);
        assert_eq!(
            std::fs::read(&paths.deg).unwrap(),
            std::fs::read(&gamma.deg).unwrap()
        );
        let (_, want) = sequential_reference(&store, Codec::GammaGap, Codec::EliasFano);
        let index = TileIndex::read(&paths.start).unwrap();
        assert_eq!(index.comp_offsets, Some(want));
        let (want_index, want_data) = encode_store(&store, Codec::EliasFano).unwrap();
        assert_eq!(std::fs::read(&paths.tiles).unwrap(), want_data);
        assert_eq!(index.comp_offsets, want_index.comp_offsets);
    }

    #[test]
    fn recode_rejects_self_overwrite_and_raw_target() {
        let dir = tempfile::tempdir().unwrap();
        let store = sample_store();
        let paths = write_store(&store, dir.path(), "g").unwrap();
        assert!(recode_store_files(&paths, dir.path(), "g", Codec::GammaGap).is_err());
        assert!(recode_store_files(&paths, dir.path(), "h", Codec::RawSnb).is_err());
    }

    #[test]
    fn non_snb_store_rejected() {
        let el = EdgeList::new(8, GraphKind::Directed, vec![Edge::new(0, 1)]).unwrap();
        let store = TileStore::build(
            &el,
            &ConversionOptions::new(2).with_encoding(EdgeEncoding::Tuple8),
        )
        .unwrap();
        assert!(encode_store(&store, Codec::GammaGap).is_err());
    }

    #[test]
    fn empty_store_encodes() {
        let dir = tempfile::tempdir().unwrap();
        let el = EdgeList::new(16, GraphKind::Directed, vec![]).unwrap();
        let store = TileStore::build(&el, &ConversionOptions::new(2)).unwrap();
        for codec in Codec::CODED {
            let (paths, report) =
                write_coded_store(&store, dir.path(), codec.name(), codec).unwrap();
            assert_eq!(report.edge_count, 0);
            assert_eq!(report.ratio(), 1.0);
            let back = TileFile::open(&paths).unwrap().load_all().unwrap();
            assert_eq!(back.edge_count(), 0);
        }
    }
}
