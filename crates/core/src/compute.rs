//! The compute phase: how a batch of resident tiles is turned into
//! algorithm updates (§V.C two-level parallelism).
//!
//! One executor, [`process_batch_queries`], serves every caller — the
//! engine's slide runs and rewind batches, the in-memory runner, and the
//! K = 1 wrapper [`process_batch`] the benches replay it through. A batch
//! goes through it in two steps:
//!
//! * **Decode stage** (coded stores only). The batch is cut into *waves*
//!   of at most [`WAVE_KEYS`] keys; a wave's tiles are decoded once, in
//!   parallel, into one reused scratch laid out as raw SNB
//!   ([`DecodeStage`]), and every consumer of the wave — destination-side
//!   item, source-side item, each query of the batch — reads a plain raw
//!   [`TileView`] over its slice. Raw stores skip the stage: their views
//!   borrow the caller's bytes.
//!
//! * **Apply**, per wave (a raw batch is one wave), column-sharded: each
//!   tile becomes one or two *work items* keyed by the vertex partition
//!   its updates write — destination-column for destination-side writes,
//!   source-row for source-side writes (the algorithm's
//!   [`Algorithm::update_mode`] says which sides it writes). Partitions
//!   are assigned to `S` disjoint shards (greedy LPT on byte weight, `S` =
//!   worker count), each shard runs sequentially, and shards run in
//!   parallel. Because a partition maps to exactly one shard, no two
//!   concurrent work items ever write the same vertex — metadata updates
//!   are plain load+store writes with no `lock`-prefixed RMW (see
//!   [`crate::atomics::AtomicF64::add_unsync`]). Within a shard, items are
//!   processed in ascending linear tile index, which *is*
//!   physical-group-major order (§V.A): one group's row/col metadata
//!   stays LLC-resident across its q×q tiles before the shard moves on.
//!
//! Integer metadata comes out the same whatever the shard count;
//! PageRank's floating-point accumulation order changes with it, within
//! the documented tolerance of the engine tests.

use crate::algorithm::{Algorithm, ShardSides, UpdateMode};
use crate::view::TileView;
use gstore_graph::{GraphError, Result};
use gstore_tile::{EdgeEncoding, TileCursor, TileIndex, SNB_EDGE_BYTES};
use rayon::prelude::*;
use std::sync::Mutex;
use std::time::Instant;

/// What one batch's compute pass did — the engine folds these into
/// [`crate::RunStats`] and the flight recorder's `compute` group.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Edges applied (each stored tuple counted once per consuming query).
    pub edges: u64,
    /// Endpoint updates performed as plain writes where an unsharded
    /// schedule would need an atomic RMW — the contention sharding avoids.
    pub plain_updates: u64,
    /// Physical-group visits across all shards' scheduling order (a group
    /// processed contiguously counts once per shard that touches it).
    pub groups_scheduled: u64,
    /// Keys the decode stage decoded: the stored edges of the batch's
    /// tiles, each once however many items and queries consumed them.
    /// 0 on raw stores.
    pub decoded_edges: u64,
    /// Set by [`process_batch`] when a coded tile's stream disagreed with
    /// the index: that tile's wave and every later one were not applied.
    pub corrupt_tile: Option<u64>,
}

impl BatchOutcome {
    fn absorb(&mut self, other: BatchOutcome) {
        self.edges += other.edges;
        self.plain_updates += other.plain_updates;
        self.groups_scheduled += other.groups_scheduled;
    }
}

/// Processes a batch of resident tiles for one algorithm:
/// [`process_batch_queries`] with K = 1.
pub fn process_batch(
    index: &TileIndex,
    alg: &dyn Algorithm,
    batch: &[(u64, &[u8])],
) -> BatchOutcome {
    let masked: Vec<(u64, &[u8], u64)> = batch.iter().map(|&(t, bytes)| (t, bytes, 1)).collect();
    match run_queries(index, &[alg], &masked, &mut DecodeStage::default()) {
        Ok(out) => out.aggregate(),
        Err(corrupt) => BatchOutcome {
            corrupt_tile: Some(corrupt.tile),
            ..BatchOutcome::default()
        },
    }
}

/// [`process_batch`], under the name gbench's compute replay
/// (`benchmark/src/layers.rs`) still calls; `mode` must be the
/// algorithm's own.
#[doc(hidden)]
pub fn process_batch_sharded(
    index: &TileIndex,
    alg: &dyn Algorithm,
    batch: &[(u64, &[u8])],
    mode: UpdateMode,
) -> BatchOutcome {
    assert_eq!(
        mode,
        alg.update_mode(),
        "{}: one update mode per algorithm",
        alg.name()
    );
    process_batch(index, alg, batch)
}

/// [`process_batch`], under the name gbench's compute replay
/// (`benchmark/src/layers.rs`) still calls for its BFS timing.
#[doc(hidden)]
pub fn process_batch_atomic(
    index: &TileIndex,
    alg: &dyn Algorithm,
    batch: &[(u64, &[u8])],
) -> BatchOutcome {
    process_batch(index, alg, batch)
}

/// Per-query outcomes of one shared batch. `groups_scheduled`,
/// `decoded_edges` and `decode_ns` belong to the shared schedule (tiles
/// are decoded once for all interested queries), so they are batch-level
/// numbers, not per-query ones.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MultiBatchOutcome {
    pub per_query: Vec<BatchOutcome>,
    pub groups_scheduled: u64,
    /// Keys the decode stage decoded (see [`BatchOutcome::decoded_edges`]).
    pub decoded_edges: u64,
    /// Wall time of the decode stage's waves; 0 unless the stage is timed.
    pub decode_ns: u64,
}

impl MultiBatchOutcome {
    /// Sums the per-query outcomes into one batch-level outcome (each
    /// query's work counted — a tile feeding three queries contributes
    /// its edges three times, once per query that consumed it).
    pub fn aggregate(&self) -> BatchOutcome {
        let mut out = BatchOutcome {
            groups_scheduled: self.groups_scheduled,
            decoded_edges: self.decoded_edges,
            ..BatchOutcome::default()
        };
        for q in &self.per_query {
            out.edges += q.edges;
            out.plain_updates += q.plain_updates;
        }
        out
    }
}

/// Keys one wave of the decode stage holds: 256 Ki keys = 1 MiB of raw
/// SNB. A constant, not a knob — the bound is what keeps the stage's
/// memory off the run's peak (a rewind batch is the whole SCR pool:
/// decoded at once it is three times the pool), and past a few tiles per
/// worker a longer wave buys nothing.
pub const WAVE_KEYS: usize = 256 << 10;

/// The decode stage's scratch: one wave of decoded keys laid out as raw
/// SNB, owned by the engine and reused by every batch of every run.
#[derive(Debug, Default)]
pub struct DecodeStage {
    raw: Vec<u8>,
    timed: bool,
}

impl DecodeStage {
    /// `timed`: take one `Instant` pair per wave and report the sum as
    /// [`MultiBatchOutcome::decode_ns`].
    pub fn new(timed: bool) -> Self {
        DecodeStage {
            raw: Vec::new(),
            timed,
        }
    }

    /// Bytes the scratch holds (0 until a coded batch arrives).
    #[cfg(test)]
    pub(crate) fn scratch_bytes(&self) -> usize {
        self.raw.capacity()
    }
}

/// A coded tile whose stream disagrees with the trusted index.
#[derive(Debug)]
struct CorruptTile {
    tile: u64,
    what: String,
}

impl From<CorruptTile> for GraphError {
    fn from(c: CorruptTile) -> Self {
        GraphError::Format(format!("coded tile {} is corrupt: {}", c.tile, c.what))
    }
}

/// One tile's share of a wave: `keys` keys from where `cursor` stands,
/// into `out`. The mutex only makes the job shareable with the worker
/// that claims it; it is locked once.
struct DecodeJob<'a, 's> {
    /// Position of the tile in the batch.
    item: usize,
    keys: usize,
    /// Keys of the tile later waves still have to decode.
    left: u64,
    state: Mutex<(TileCursor<'a>, &'s mut [u8])>,
}

impl<'a, 's> DecodeJob<'a, 's> {
    /// Gives the tile as many of its `left` keys as `rest` has room for,
    /// and that much of the front of `rest`.
    fn push(
        jobs: &mut Vec<Self>,
        rest: &mut &'s mut [u8],
        item: usize,
        cursor: TileCursor<'a>,
        left: u64,
    ) {
        let keys = left.min((rest.len() / SNB_EDGE_BYTES) as u64) as usize;
        let (out, tail) = std::mem::take(rest).split_at_mut(keys * SNB_EDGE_BYTES);
        *rest = tail;
        jobs.push(DecodeJob {
            item,
            keys,
            left: left - keys as u64,
            state: Mutex::new((cursor, out)),
        });
    }

    fn run(&self, tile: u64) -> std::result::Result<(), CorruptTile> {
        const BLOCK: usize = 256;
        let mut state = self
            .state
            .lock()
            .expect("no other holder can have panicked");
        let (cursor, out) = &mut *state;
        let mut keys = [0u32; BLOCK];
        for chunk in out.chunks_mut(BLOCK * SNB_EDGE_BYTES) {
            let want = chunk.len() / SNB_EDGE_BYTES;
            let got = cursor.next_block(&mut keys[..want]);
            if got < want {
                return Err(CorruptTile {
                    tile,
                    what: "its stream ends before the edge count the index gives".into(),
                });
            }
            // A key is `(src << 16) | dst`; an SNB record read as one
            // little-endian word is `(dst << 16) | src`.
            for (record, key) in chunk.chunks_exact_mut(SNB_EDGE_BYTES).zip(&keys[..want]) {
                record.copy_from_slice(&key.rotate_left(16).to_le_bytes());
            }
        }
        if self.left == 0 && cursor.overran() {
            return Err(CorruptTile {
                tile,
                what: "its stream is shorter than its edges need".into(),
            });
        }
        Ok(())
    }
}

/// Cuts a coded batch into waves of [`WAVE_KEYS`] keys, batch order kept.
/// A wave that fills up inside a tile leaves that tile's cursor for the
/// next one to resume, so a tile larger than a wave is decoded in slices.
struct Waves<'a, 'b> {
    index: &'b TileIndex,
    batch: &'b [(u64, &'a [u8], u64)],
    /// First batch item no wave has opened yet.
    next: usize,
    /// The tile the previous wave stopped inside: its batch position, its
    /// cursor, the keys still to come.
    carry: Option<(usize, TileCursor<'a>, u64)>,
}

impl<'a> Waves<'a, '_> {
    fn pending(&self) -> bool {
        self.carry.is_some() || self.next < self.batch.len()
    }

    /// Decodes the next wave into `raw` (one wave long) and returns its
    /// layout: `(batch position, keys)` per slice, slices back to back
    /// from the front. A tile's slice is sized from the index, never from
    /// the stream's own count header, and a stream that holds another
    /// count is an error.
    fn decode_next(
        &mut self,
        raw: &mut [u8],
    ) -> std::result::Result<Vec<(usize, usize)>, CorruptTile> {
        let mut jobs = Vec::new();
        let mut rest = raw;
        if let Some((item, cursor, left)) = self.carry.take() {
            DecodeJob::push(&mut jobs, &mut rest, item, cursor, left);
        }
        while !rest.is_empty() && self.next < self.batch.len() {
            let (tile, bytes, _) = self.batch[self.next];
            let t = tile as usize;
            let expected = self.index.start_edge[t + 1] - self.index.start_edge[t];
            let cursor = self.index.codec.cursor(bytes).map_err(|e| CorruptTile {
                tile,
                what: e.to_string(),
            })?;
            if cursor.remaining() != expected {
                return Err(CorruptTile {
                    tile,
                    what: format!(
                        "its stream claims {} edges, the index gives {expected}",
                        cursor.remaining()
                    ),
                });
            }
            DecodeJob::push(&mut jobs, &mut rest, self.next, cursor, expected);
            self.next += 1;
        }

        let batch = self.batch;
        for chunk in rayon::par_weighted_chunks(
            &jobs,
            |job| job.keys.max(1) as u64,
            |chunk| chunk.iter().try_for_each(|job| job.run(batch[job.item].0)),
        ) {
            chunk?;
        }

        let layout = jobs.iter().map(|job| (job.item, job.keys)).collect();
        // Only the last tile of a wave can be unfinished.
        if let Some(job) = jobs.pop().filter(|job| job.left > 0) {
            let (cursor, _) = job.state.into_inner().expect("no holder can have panicked");
            self.carry = Some((job.item, cursor, job.left));
        }
        Ok(layout)
    }
}

/// The queries of a batch that write the source side too, as a query
/// bitmask (every query writes the destination side).
fn both_sides_mask(queries: &[&dyn Algorithm]) -> u64 {
    let mut both = 0;
    for (q, alg) in queries.iter().enumerate() {
        if alg.update_mode() == UpdateMode::ShardedBoth {
            both |= 1 << q;
        }
    }
    both
}

/// A work item of the shared scan: one resident tile serving every query
/// whose bit is set. `dst_mask`/`src_mask` say which queries apply
/// destination-side / source-side updates from this item; all of them
/// write only partition `key`, so the single-query conflict-freedom
/// argument carries over unchanged (queries are data-independent — they
/// never write each other's metadata).
struct MultiItem<'a> {
    tile: u64,
    bytes: &'a [u8],
    key: u32,
    dst_mask: u64,
    src_mask: u64,
}

#[inline]
pub(crate) fn for_each_bit(mut bits: u64, mut f: impl FnMut(usize)) {
    while bits != 0 {
        f(bits.trailing_zeros() as usize);
        bits &= bits - 1;
    }
}

/// Processes one shared batch for a whole query batch: each item is
/// `(tile, bytes, mask)` where bit `q` of `mask` means query `q`'s
/// frontier covers the tile. A coded tile is decoded once, by the decode
/// stage, and every tile is dispatched to all interested queries
/// back-to-back — while its `TileView` and group metadata are hot — on
/// the column-sharded schedule.
///
/// Fails with [`GraphError::Format`], naming the tile, when a coded tile's
/// stream does not hold the edges the index says it does; waves before
/// that tile's have been applied by then.
pub fn process_batch_queries(
    index: &TileIndex,
    queries: &[&dyn Algorithm],
    batch: &[(u64, &[u8], u64)],
    stage: &mut DecodeStage,
) -> Result<MultiBatchOutcome> {
    Ok(run_queries(index, queries, batch, stage)?)
}

fn run_queries(
    index: &TileIndex,
    queries: &[&dyn Algorithm],
    batch: &[(u64, &[u8], u64)],
    stage: &mut DecodeStage,
) -> std::result::Result<MultiBatchOutcome, CorruptTile> {
    let k = queries.len();
    assert!(k <= 64, "tile masks are u64: at most 64 queries per batch");
    let both = both_sides_mask(queries);
    let mut out = MultiBatchOutcome {
        per_query: vec![BatchOutcome::default(); k],
        ..MultiBatchOutcome::default()
    };
    if !index.is_coded() {
        apply_wave(index, queries, both, index.encoding, batch, &mut out);
        return Ok(out);
    }

    if stage.raw.is_empty() {
        stage.raw = vec![0; WAVE_KEYS * SNB_EDGE_BYTES];
    }
    let mut waves = Waves {
        index,
        batch,
        next: 0,
        carry: None,
    };
    while waves.pending() {
        let started = stage.timed.then(Instant::now);
        let layout = waves.decode_next(&mut stage.raw)?;
        out.decode_ns += started.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let mut at = 0;
        let wave: Vec<(u64, &[u8], u64)> = layout
            .into_iter()
            .map(|(item, keys)| {
                let (tile, _, mask) = batch[item];
                let raw = &stage.raw[at..at + keys * SNB_EDGE_BYTES];
                at += raw.len();
                (tile, raw, mask)
            })
            .collect();
        out.decoded_edges += (at / SNB_EDGE_BYTES) as u64;
        apply_wave(index, queries, both, EdgeEncoding::Snb, &wave, &mut out);
    }
    Ok(out)
}

/// Applies one wave of raw tiles (a whole raw batch, or what the decode
/// stage just produced) to every interested query: the column-sharded
/// schedule, with each item fanning out to every query that wants the
/// tile.
fn apply_wave(
    index: &TileIndex,
    queries: &[&dyn Algorithm],
    both: u64,
    encoding: EdgeEncoding,
    tiles: &[(u64, &[u8], u64)],
    out: &mut MultiBatchOutcome,
) {
    let shards = plan_shards(index, tiles, both, rayon::current_num_threads().max(1));
    let per_shard: Vec<(Vec<BatchOutcome>, u64)> = shards
        .par_iter()
        .map(|shard| run_multi_shard(index, queries, encoding, shard))
        .collect();
    for (per_query, groups) in per_shard {
        for (dst, src) in out.per_query.iter_mut().zip(per_query) {
            dst.absorb(src);
        }
        out.groups_scheduled += groups;
    }
}

/// Builds the per-shard work-item lists of one wave (none when no query
/// wants any of its tiles). `both` masks the queries that also write the
/// source side.
fn plan_shards<'a>(
    index: &TileIndex,
    tiles: &[(u64, &'a [u8], u64)],
    both: u64,
    shard_count: usize,
) -> Vec<Vec<MultiItem<'a>>> {
    let mut items: Vec<MultiItem<'a>> = Vec::with_capacity(tiles.len() * 2);
    for &(t, bytes, dm) in tiles {
        if dm == 0 {
            continue;
        }
        let bm = dm & both;
        let coord = index.layout.coord_at(t);
        if coord.row == coord.col {
            items.push(MultiItem {
                tile: t,
                bytes,
                key: coord.col,
                dst_mask: dm,
                src_mask: bm,
            });
        } else {
            // Off-diagonal tiles split into a destination-side and a
            // source-side item over the same resident bytes, each keyed by
            // the partition it writes.
            items.push(MultiItem {
                tile: t,
                bytes,
                key: coord.col,
                dst_mask: dm,
                src_mask: 0,
            });
            if bm != 0 {
                items.push(MultiItem {
                    tile: t,
                    bytes,
                    key: coord.row,
                    dst_mask: 0,
                    src_mask: bm,
                });
            }
        }
    }
    if items.is_empty() {
        return Vec::new();
    }

    // Greedy LPT over partitions, weighted by bytes × fan-out: heaviest
    // partition first onto the lightest shard.
    let partitions = index.layout.tiling().partitions() as usize;
    let mut weight = vec![0u64; partitions];
    for it in &items {
        let fanout = u64::from((it.dst_mask | it.src_mask).count_ones());
        weight[it.key as usize] += (it.bytes.len() as u64).max(1) * fanout;
    }
    let mut order: Vec<u32> = (0..partitions as u32)
        .filter(|&p| weight[p as usize] > 0)
        .collect();
    order.sort_by_key(|&p| std::cmp::Reverse(weight[p as usize]));
    let shard_count = shard_count.min(order.len().max(1));
    let mut shard_of = vec![usize::MAX; partitions];
    let mut load = vec![0u64; shard_count];
    for p in order {
        let lightest = (0..shard_count).min_by_key(|&s| load[s]).unwrap();
        shard_of[p as usize] = lightest;
        load[lightest] += weight[p as usize];
    }
    let mut shards: Vec<Vec<MultiItem<'a>>> = (0..shard_count).map(|_| Vec::new()).collect();
    for it in items {
        let s = shard_of[it.key as usize];
        shards[s].push(it);
    }
    // Ascending linear tile index == physical-group-major order: a
    // group's q×q resident tiles are consecutive, so its row/col
    // metadata is touched in one contiguous burst per shard.
    for shard in &mut shards {
        shard.sort_by_key(|it| it.tile);
    }
    shards
}

/// Runs one shard of the shared scan sequentially (the shard owns its
/// partitions — plain writes only): every interested query processes a
/// tile back-to-back while the view and the tile's group metadata are
/// LLC-resident.
fn run_multi_shard(
    index: &TileIndex,
    queries: &[&dyn Algorithm],
    encoding: EdgeEncoding,
    items: &[MultiItem<'_>],
) -> (Vec<BatchOutcome>, u64) {
    let tiling = *index.layout.tiling();
    let mut out = vec![BatchOutcome::default(); queries.len()];
    let mut groups = 0u64;
    let mut last_group = u64::MAX;
    for it in items {
        let coord = index.layout.coord_at(it.tile);
        let view = TileView::new(&tiling, coord, encoding, it.bytes);
        let ec = view.edge_count();
        for_each_bit(it.dst_mask | it.src_mask, |q| {
            let sides = ShardSides {
                src: (it.src_mask >> q) & 1 == 1,
                dst: (it.dst_mask >> q) & 1 == 1,
            };
            queries[q].process_tile(&view, sides);
            // A tile's edges are counted once per consuming query, on its
            // destination-side item (every tile has exactly one).
            if sides.dst {
                out[q].edges += ec;
            }
            out[q].plain_updates += ec * (sides.src as u64 + sides.dst as u64);
        });
        let g = index.layout.group_of_tile(it.tile).tile_start;
        if g != last_group {
            groups += 1;
            last_group = g;
        }
    }
    (out, groups)
}

/// Static estimate of the per-group metadata working set the group-major
/// schedule keeps LLC-resident: one group spans `q` row partitions and `q`
/// column partitions of `tile_span` vertices each, at ~16 bytes of
/// algorithmic metadata per vertex (rank+next, or label+degree).
pub fn llc_resident_estimate(index: &TileIndex) -> u64 {
    let tiling = index.layout.tiling();
    let q = index.layout.group_side() as u64;
    2 * q * tiling.tile_span() * 16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Bfs, KCore, PageRank, Wcc};
    use crate::inmem::store_from_edges;
    use gstore_graph::gen::{generate_rmat, RmatParams};
    use gstore_graph::{reference, Csr, CsrDirection, Edge, EdgeList, GraphKind};
    use gstore_tile::{encode_store, Codec, TileStore};

    fn full_batch(store: &TileStore) -> Vec<(u64, &[u8])> {
        (0..store.tile_count())
            .map(|t| (t, store.tile_bytes(t)))
            .collect()
    }

    /// Every tile of a coded store (`encode_store`'s index and blob).
    fn coded_batch<'a>(index: &TileIndex, data: &'a [u8]) -> Vec<(u64, &'a [u8])> {
        (0..index.tile_count())
            .map(|t| {
                let r = index.tile_byte_range(t);
                (t, &data[r.start as usize..r.end as usize])
            })
            .collect()
    }

    fn masked<'a>(batch: &[(u64, &'a [u8])], mask: u64) -> Vec<(u64, &'a [u8], u64)> {
        batch.iter().map(|&(t, b)| (t, b, mask)).collect()
    }

    fn degrees(el: &gstore_graph::EdgeList) -> Vec<u64> {
        gstore_graph::degree::CompactDegrees::from_edge_list(el)
            .unwrap()
            .to_vec()
    }

    #[test]
    fn shard_plan_is_conflict_free_and_complete() {
        // One both-sides query: the K = 1 schedule of WCC and k-core.
        for kind in [GraphKind::Undirected, GraphKind::Directed] {
            let el = generate_rmat(&RmatParams::kron(8, 8).with_kind(kind)).unwrap();
            let store = store_from_edges(&el, 3);
            let index = store.index();
            let batch = masked(&full_batch(&store), 1);
            for shard_count in [1usize, 2, 7] {
                let shards = plan_shards(&index, &batch, 1, shard_count);
                assert!(shards.len() <= shard_count);
                // No partition appears in two shards.
                let mut owner = std::collections::HashMap::new();
                for (s, shard) in shards.iter().enumerate() {
                    for it in shard {
                        assert_eq!(*owner.entry(it.key).or_insert(s), s, "partition split");
                    }
                }
                // Every tile has exactly one dst-side item (edge counting)
                // and off-diagonal tiles also one src-side item.
                let mut dst_items = std::collections::HashMap::new();
                let mut src_items = std::collections::HashMap::new();
                for it in shards.iter().flatten() {
                    if it.dst_mask != 0 {
                        *dst_items.entry(it.tile).or_insert(0) += 1;
                    }
                    if it.src_mask != 0 {
                        *src_items.entry(it.tile).or_insert(0) += 1;
                    }
                }
                for &(t, _, _) in &batch {
                    assert_eq!(dst_items.get(&t), Some(&1), "tile {t}");
                    assert_eq!(src_items.get(&t), Some(&1), "tile {t}");
                }
                // Group-major within each shard: tile indices ascend.
                for shard in &shards {
                    assert!(shard.windows(2).all(|w| w[0].tile <= w[1].tile));
                }
            }
            // A wave no query wants plans no shard at all.
            assert!(plan_shards(&index, &masked(&full_batch(&store), 0), 1, 4).is_empty());
        }
    }

    /// Sweeps `alg` over every tile until it converges (or 200 sweeps);
    /// returns the first sweep's outcome.
    fn sweep_to_convergence(
        index: &TileIndex,
        batch: &[(u64, &[u8])],
        alg: &mut dyn Algorithm,
    ) -> BatchOutcome {
        let mut first = None;
        for iter in 0..200 {
            alg.begin_iteration(iter);
            first.get_or_insert(process_batch(index, alg, batch));
            if alg.end_iteration(iter) == crate::IterationOutcome::Converged {
                break;
            }
        }
        first.unwrap()
    }

    #[test]
    fn batch_counters_reconcile_and_wcc_matches_reference() {
        // One full-batch sweep: every edge applied once, every endpoint
        // write a plain one; run to convergence, WCC labels are exactly
        // the union-find reference's.
        let el = generate_rmat(&RmatParams::kron(8, 8)).unwrap();
        let store = store_from_edges(&el, 3);
        let index = store.index();
        let mut wcc = Wcc::new(*store.layout().tiling());
        let first = sweep_to_convergence(&index, &full_batch(&store), &mut wcc);
        assert_eq!(first.edges, el.edge_count());
        assert!(first.plain_updates > first.edges);
        assert!(first.groups_scheduled > 0);
        // Raw stores never enter the decode stage.
        assert_eq!((first.decoded_edges, first.corrupt_tile), (0, None));
        assert_eq!(wcc.labels(), reference::wcc_labels(&el));
    }

    #[test]
    fn batches_match_the_csr_references() {
        for kind in [GraphKind::Undirected, GraphKind::Directed] {
            let el = generate_rmat(&RmatParams::kron(8, 8).with_kind(kind)).unwrap();
            let store = store_from_edges(&el, 3);
            let (index, batch) = (store.index(), full_batch(&store));
            let tiling = *store.layout().tiling();
            let mut bfs = Bfs::new(tiling, 0);
            sweep_to_convergence(&index, &batch, &mut bfs);
            assert_eq!(
                bfs.depths(),
                reference::bfs_levels(&reference::bfs_csr(&el), 0)
            );
            let mut kc = KCore::new(tiling, 2);
            sweep_to_convergence(&index, &batch, &mut kc);
            assert_eq!(
                kc.membership(),
                crate::algorithms::kcore::kcore_reference(&el, 2)
            );
            let mut dc = crate::DegreeCount::new(tiling);
            sweep_to_convergence(&index, &batch, &mut dc);
            assert_eq!(dc.degrees(), degrees(&el), "{kind:?}");
            let mut pr = PageRank::new(tiling, degrees(&el), 0.85).with_iterations(10);
            sweep_to_convergence(&index, &batch, &mut pr);
            let csr = Csr::from_edge_list(&el, CsrDirection::Out);
            let want = reference::pagerank(&csr, 10, 0.85);
            for (a, b) in pr.ranks().iter().zip(&want) {
                assert!((a - b).abs() < 1e-9, "{a} vs {b} ({kind:?})");
            }
        }
    }

    #[test]
    fn mixed_query_batch_isolates_per_query_state_and_counters() {
        // Three queries over one shared scan: each must end
        // with the same metadata as a solo run, and per-query counters
        // must reflect only the tiles its mask covered.
        let el = generate_rmat(&RmatParams::kron(8, 8)).unwrap();
        let store = store_from_edges(&el, 3);
        let index = store.index();
        let batch = full_batch(&store);
        let deg = degrees(&el);

        let mut wcc_solo = Wcc::new(*store.layout().tiling());
        let mut kc_solo = KCore::new(*store.layout().tiling(), 2);
        let mut pr_solo =
            PageRank::new(*store.layout().tiling(), deg.clone(), 0.85).with_iterations(3);
        let mut wcc = Wcc::new(*store.layout().tiling());
        let mut kc = KCore::new(*store.layout().tiling(), 2);
        let mut pr = PageRank::new(*store.layout().tiling(), deg, 0.85).with_iterations(3);

        for iter in 0..3 {
            wcc_solo.begin_iteration(iter);
            let s_wcc = process_batch(&index, &wcc_solo, &batch);
            wcc_solo.end_iteration(iter);
            kc_solo.begin_iteration(iter);
            let s_kc = process_batch(&index, &kc_solo, &batch);
            kc_solo.end_iteration(iter);
            pr_solo.begin_iteration(iter);
            let s_pr = process_batch(&index, &pr_solo, &batch);
            pr_solo.end_iteration(iter);

            wcc.begin_iteration(iter);
            kc.begin_iteration(iter);
            pr.begin_iteration(iter);
            let masked = masked(&batch, 0b111);
            let queries: [&dyn Algorithm; 3] = [&wcc, &kc, &pr];
            let multi =
                process_batch_queries(&index, &queries, &masked, &mut DecodeStage::default())
                    .unwrap();
            wcc.end_iteration(iter);
            kc.end_iteration(iter);
            pr.end_iteration(iter);

            // Per-query counters match each solo sweep's counters
            // (modulo groups_scheduled, which is batch-level).
            assert_eq!(
                BatchOutcome {
                    groups_scheduled: s_wcc.groups_scheduled,
                    ..multi.per_query[0]
                },
                s_wcc
            );
            assert_eq!(
                BatchOutcome {
                    groups_scheduled: s_kc.groups_scheduled,
                    ..multi.per_query[1]
                },
                s_kc
            );
            assert_eq!(multi.per_query[2].edges, s_pr.edges);
            assert_eq!(multi.per_query[2].plain_updates, s_pr.plain_updates);
            let agg = multi.aggregate();
            assert_eq!(agg.edges, s_wcc.edges + s_kc.edges + s_pr.edges);
        }
        // Integer metadata is bitwise identical; PageRank shares the
        // sharded schedule shape but fan-out changes LPT weights, so only
        // an fp tolerance holds for it.
        assert_eq!(wcc.labels(), wcc_solo.labels());
        assert_eq!(kc.membership(), kc_solo.membership());
        for (a, b) in pr.ranks().iter().zip(pr_solo.ranks()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn query_masks_restrict_dispatch() {
        // Two WCC queries with disjoint tile masks: each processes only
        // its half of the batch, and counters reflect the split.
        let el = generate_rmat(&RmatParams::kron(7, 6)).unwrap();
        let store = store_from_edges(&el, 2);
        let index = store.index();
        let batch = full_batch(&store);
        let wcc0 = Wcc::new(*store.layout().tiling());
        let wcc1 = Wcc::new(*store.layout().tiling());
        let masked: Vec<(u64, &[u8], u64)> = batch
            .iter()
            .map(|&(t, b)| (t, b, if t % 2 == 0 { 0b01 } else { 0b10 }))
            .collect();
        let queries: [&dyn Algorithm; 2] = [&wcc0, &wcc1];
        let multi =
            process_batch_queries(&index, &queries, &masked, &mut DecodeStage::default()).unwrap();
        let edges_of = |t: u64| index.start_edge[t as usize + 1] - index.start_edge[t as usize];
        let even: u64 = (0..store.tile_count())
            .filter(|t| t % 2 == 0)
            .map(edges_of)
            .sum();
        let odd: u64 = (0..store.tile_count())
            .filter(|t| t % 2 == 1)
            .map(edges_of)
            .sum();
        assert_eq!(multi.per_query[0].edges, even);
        assert_eq!(multi.per_query[1].edges, odd);
        assert_eq!(multi.aggregate().edges, el.edge_count());
    }

    /// Runs `algs` as one K-query batch over every tile until all
    /// converge (or 200 sweeps); returns the physical decode count and the
    /// per-query edge counts of the first sweep, and the scratch's size.
    fn run_to_convergence(
        index: &TileIndex,
        batch: &[(u64, &[u8])],
        algs: &mut [&mut dyn Algorithm],
    ) -> (MultiBatchOutcome, usize) {
        let mut stage = DecodeStage::default();
        let batch = masked(batch, (1 << algs.len()) - 1);
        let mut first = None;
        let mut live = vec![true; algs.len()];
        for iter in 0..200 {
            for alg in algs.iter_mut() {
                alg.begin_iteration(iter);
            }
            let queries: Vec<&dyn Algorithm> = algs.iter().map(|alg| &**alg).collect();
            let out = process_batch_queries(index, &queries, &batch, &mut stage).unwrap();
            drop(queries);
            first.get_or_insert(out);
            for (alg, live) in algs.iter_mut().zip(&mut live) {
                *live &= alg.end_iteration(iter) == crate::IterationOutcome::Continue;
            }
            if !live.iter().any(|&l| l) {
                break;
            }
        }
        (first.unwrap(), stage.scratch_bytes())
    }

    #[test]
    fn coded_tiles_are_decoded_once_per_batch() {
        // The decode-once claim, pinned by a count: a sweep decodes each
        // stored edge once, whether one symmetric PageRank consumes a tile
        // as two work items or four queries share it.
        for kind in [GraphKind::Undirected, GraphKind::Directed] {
            let el = generate_rmat(&RmatParams::kron(8, 8).with_kind(kind)).unwrap();
            let store = store_from_edges(&el, 3);
            let tiling = *store.layout().tiling();
            let deg = degrees(&el);
            let raw_index = store.index();
            let raw_batch = full_batch(&store);

            let mut bfs_raw = Bfs::new(tiling, 0);
            let mut wcc_raw = Wcc::new(tiling);
            let mut kc_raw = KCore::new(tiling, 2);
            let mut pr_raw = PageRank::new(tiling, deg.clone(), 0.85).with_iterations(4);
            let (out, scratch) = run_to_convergence(
                &raw_index,
                &raw_batch,
                &mut [&mut bfs_raw, &mut wcc_raw, &mut kc_raw, &mut pr_raw],
            );
            assert_eq!((out.decoded_edges, out.decode_ns, scratch), (0, 0, 0));

            for codec in Codec::CODED {
                let (index, data) = encode_store(&store, codec).unwrap();
                let batch = coded_batch(&index, &data);
                let what = format!("{} {kind:?}", codec.name());

                let mut pr = PageRank::new(tiling, deg.clone(), 0.85).with_iterations(4);
                pr.begin_iteration(0);
                let solo = process_batch(&index, &pr, &batch);
                assert_eq!(solo.decoded_edges, el.edge_count(), "{what}");
                assert_eq!(solo.edges, el.edge_count(), "{what}");

                let mut bfs = Bfs::new(tiling, 0);
                let mut wcc = Wcc::new(tiling);
                let mut kc = KCore::new(tiling, 2);
                let mut pr = PageRank::new(tiling, deg.clone(), 0.85).with_iterations(4);
                let (out, _) =
                    run_to_convergence(&index, &batch, &mut [&mut bfs, &mut wcc, &mut kc, &mut pr]);
                assert_eq!(out.decoded_edges, el.edge_count(), "{what}");
                // Every query, BFS included, walks the same decoded slices
                // with plain writes.
                for q in &out.per_query {
                    assert_eq!(q.edges, el.edge_count(), "{what}");
                    assert!(q.plain_updates >= q.edges, "{what}");
                }
                assert_eq!(out.aggregate().edges, 4 * el.edge_count(), "{what}");
                assert_eq!(bfs.depths(), bfs_raw.depths(), "{what}");
                assert_eq!(wcc.labels(), wcc_raw.labels(), "{what}");
                assert_eq!(kc.membership(), kc_raw.membership(), "{what}");
                for (c, r) in pr.ranks().iter().zip(pr_raw.ranks()) {
                    assert!((c - r).abs() < 1e-9, "{what}: {c} vs {r}");
                }
            }
        }
    }

    /// 8 Ki vertices in 2 × 2 directed tiles of 4096²: tile (0, 1) holds
    /// 300 000 distinct edges — more than a wave — and the others a few,
    /// so the wave that fills up inside the dense tile starts on a small
    /// one and the wave that finishes it goes on to the next.
    fn dense_tile_edges() -> EdgeList {
        let mut edges = Vec::new();
        for i in 0..300_000u64 {
            edges.push(Edge::new(
                i % 4096,
                4096 + (i / 4096) * 53 + (i % 4096) % 53,
            ));
        }
        for i in 0..500u64 {
            edges.push(Edge::new(i * 7 % 4096, i * 11 % 4096));
            edges.push(Edge::new(4096 + i * 5 % 4096, i * 13 % 4096));
            edges.push(Edge::new(4096 + i * 3 % 4096, 4096 + i * 17 % 4096));
        }
        EdgeList::new(8192, GraphKind::Directed, edges).unwrap()
    }

    #[test]
    fn tile_larger_than_a_wave_is_decoded_in_slices() {
        let el = dense_tile_edges();
        let store = store_from_edges(&el, 12);
        assert_eq!(store.tile_count(), 4);
        assert!((0..4).any(|t| store.tile_edge_count(t) > WAVE_KEYS as u64));
        let tiling = *store.layout().tiling();
        let raw_index = store.index();
        let raw_batch = full_batch(&store);
        let mut bfs_raw = Bfs::new(tiling, 0);
        let mut wcc_raw = Wcc::new(tiling);
        run_to_convergence(&raw_index, &raw_batch, &mut [&mut bfs_raw, &mut wcc_raw]);

        for codec in [Codec::ZetaGap, Codec::EliasFano] {
            let (index, data) = encode_store(&store, codec).unwrap();
            let batch = coded_batch(&index, &data);
            let mut bfs = Bfs::new(tiling, 0);
            let mut wcc = Wcc::new(tiling);
            let (out, scratch) = run_to_convergence(&index, &batch, &mut [&mut bfs, &mut wcc]);
            assert_eq!(out.decoded_edges, el.edge_count(), "{}", codec.name());
            assert_eq!(out.per_query[0].edges, el.edge_count(), "{}", codec.name());
            assert_eq!(out.per_query[1].edges, el.edge_count(), "{}", codec.name());
            assert_eq!(bfs.depths(), bfs_raw.depths(), "{}", codec.name());
            assert_eq!(wcc.labels(), wcc_raw.labels(), "{}", codec.name());
            // The scratch is one wave, however large the batch.
            assert_eq!(scratch, WAVE_KEYS * SNB_EDGE_BYTES, "{}", codec.name());
        }
    }

    #[test]
    fn empty_tiles_and_empty_batches_pass_through_the_stage() {
        // 40 edges over a 16 × 16 grid: most tiles are empty.
        let edges = (0..40u64).map(|i| Edge::new(i * 37 % 256, i * 91 % 256));
        let el = EdgeList::new(256, GraphKind::Directed, edges.collect()).unwrap();
        let store = store_from_edges(&el, 4);
        let tiling = *store.layout().tiling();
        for codec in Codec::CODED {
            let (index, data) = encode_store(&store, codec).unwrap();
            let batch = coded_batch(&index, &data);
            assert!(batch.iter().filter(|(_, b)| b.is_empty()).count() > 200);
            let wcc = Wcc::new(tiling);
            let all = process_batch(&index, &wcc, &batch);
            assert_eq!((all.edges, all.decoded_edges), (40, 40), "{}", codec.name());

            let empties: Vec<(u64, &[u8])> = batch
                .iter()
                .copied()
                .filter(|(_, b)| b.is_empty())
                .collect();
            for batch in [&empties[..], &[]] {
                let out = process_batch(&index, &wcc, batch);
                assert_eq!((out.edges, out.decoded_edges), (0, 0), "{}", codec.name());
                assert_eq!(out.corrupt_tile, None, "{}", codec.name());
            }
        }
    }

    #[test]
    fn corrupt_coded_tile_is_reported_and_not_applied() {
        let el = generate_rmat(&RmatParams::kron(8, 8)).unwrap();
        let store = store_from_edges(&el, 3);
        let tiling = *store.layout().tiling();
        for codec in Codec::CODED {
            let (index, data) = encode_store(&store, codec).unwrap();
            let batch = coded_batch(&index, &data);
            let (victim, good) = *batch.iter().max_by_key(|(_, b)| b.len()).unwrap();
            assert!(good[0] < 0x7F, "a one-byte count header");

            let mut bad_count = good.to_vec();
            bad_count[0] += 1;
            let unparsable = vec![0xFF; good.len().max(10)];
            let mut cases = vec![("count + 1", bad_count), ("no header", unparsable)];
            if matches!(codec, Codec::ZetaGap | Codec::EliasFano) {
                // The header stands and the stream runs dry: ζ reads on
                // past its end, Elias-Fano stops short.
                let mut short = good.to_vec();
                short[good.len() / 2..].fill(0);
                cases.push(("zeroed tail", short));
            }
            for (what, bad) in &cases {
                let what = format!("{}: {what}", codec.name());
                let batch: Vec<(u64, &[u8])> = batch
                    .iter()
                    .map(|&(t, b)| (t, if t == victim { &bad[..] } else { b }))
                    .collect();
                let wcc = Wcc::new(tiling);
                let out = process_batch(&index, &wcc, &batch);
                assert_eq!(out.corrupt_tile, Some(victim), "{what}");
                assert_eq!(out.edges, 0, "{what}");
                // One wave holds this whole store, and a wave is decoded
                // before any of it is applied: nothing was written.
                assert!(index.edge_count() < WAVE_KEYS as u64);
                assert!(wcc.labels().iter().enumerate().all(|(v, &l)| l == v as u64));
                let err = process_batch_queries(
                    &index,
                    &[&wcc],
                    &masked(&batch, 1),
                    &mut DecodeStage::default(),
                )
                .unwrap_err();
                let GraphError::Format(msg) = &err else {
                    panic!("{what}: {err:?}");
                };
                assert!(msg.contains(&format!("tile {victim} ")), "{what}: {msg}");
            }
        }
    }

    #[test]
    fn llc_estimate_scales_with_group_side() {
        let el = generate_rmat(&RmatParams::kron(8, 4)).unwrap();
        let store = store_from_edges(&el, 3);
        let index = store.index();
        let est = llc_resident_estimate(&index);
        let q = index.layout.group_side() as u64;
        assert_eq!(est, 2 * q * index.layout.tiling().tile_span() * 16);
        assert!(est > 0);
    }
}
