//! Two-pass conversion from edge lists to the tile format (§IV.B
//! "Implementation", benchmarked against CSR construction in Table I).
//!
//! Pass 1 counts edges per tile (producing the start-edge array, the
//! analogue of CSR's beg-pos); pass 2 scatters encoded edges to their final
//! offsets. Both passes are parallel: counting folds per-chunk count
//! vectors, and the scatter shards the edge stream into fixed-size chunks
//! whose per-tile cursor bases are claimed by a sequential prefix sweep —
//! after which every chunk owns disjoint final byte ranges and writes them
//! with zero cross-chunk synchronization, byte-identical to a sequential
//! sweep. The same cursor scheme drives the out-of-core converter in
//! [`crate::stream`].

use crate::codec::EdgeEncoding;
use crate::grouping::GroupedLayout;
use crate::layout::Tiling;
use crate::store::TileStore;
use gstore_graph::{Edge, EdgeList, GraphError, GraphKind, Result};
use rayon::prelude::*;
use std::cell::UnsafeCell;

/// Options controlling a conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConversionOptions {
    /// log2 of vertices per tile side (paper default 16).
    pub tile_bits: u32,
    /// Tiles per physical-group side (`q`); `None` = ungrouped.
    pub group_side: Option<u32>,
    /// Per-edge encoding (default SNB).
    pub encoding: EdgeEncoding,
    /// When `false`, an undirected graph is stored the traditional way —
    /// both orientations across the full grid — instead of the upper
    /// triangle. This is the "Base" arm of the Figure 10 ablation.
    pub exploit_symmetry: bool,
}

impl ConversionOptions {
    pub fn new(tile_bits: u32) -> Self {
        ConversionOptions {
            tile_bits,
            group_side: None,
            encoding: EdgeEncoding::Snb,
            exploit_symmetry: true,
        }
    }

    /// Paper defaults: 2^16-vertex tiles, 256-tile groups, SNB.
    pub fn paper_default() -> Self {
        ConversionOptions::new(16).with_group_side(256)
    }

    pub fn with_group_side(mut self, q: u32) -> Self {
        self.group_side = Some(q);
        self
    }

    pub fn with_encoding(mut self, encoding: EdgeEncoding) -> Self {
        self.encoding = encoding;
        self
    }

    pub fn without_symmetry(mut self) -> Self {
        self.exploit_symmetry = false;
        self
    }
}

/// Runs the two-pass conversion: pass 1 counts, pass 2 scatters in
/// parallel (sequentially on one thread or one chunk's worth of edges).
pub fn convert(el: &EdgeList, opts: &ConversionOptions) -> Result<TileStore> {
    let plan = plan_conversion(el, opts)?;
    let data = scatter_parallel(el, opts, &plan);
    TileStore::from_raw_parts(plan.layout, opts.encoding, data, plan.start_edge)
}

/// Pass-1 output: the geometry plus the start-edge index, everything pass 2
/// needs to scatter.
struct ConversionPlan {
    layout: GroupedLayout,
    start_edge: Vec<u64>,
    /// The input's mirror orientations are materialized (undirected graph
    /// stored without the symmetry optimisation).
    duplicate_mirror: bool,
    /// Stored edges (≥ input edges when mirrors are duplicated).
    total_edges: u64,
}

/// Pass 1: validates the options, fixes the layout, and counts edges per
/// tile into the start-edge index.
fn plan_conversion(el: &EdgeList, opts: &ConversionOptions) -> Result<ConversionPlan> {
    let (layout, duplicate_mirror) = resolve_layout(el.vertex_count(), el.kind(), opts)?;

    // Per-tile edge counts, folded through the tiling.
    let tile_count = layout.tile_count() as usize;
    let counts = el
        .edges()
        .par_chunks(PASS_CHUNK)
        .fold(
            || vec![0u64; tile_count],
            |mut acc, chunk| {
                count_chunk(chunk.iter().copied(), duplicate_mirror, &layout, &mut acc);
                acc
            },
        )
        .reduce(
            || vec![0u64; tile_count],
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        );

    let (start_edge, total_edges) = prefix_sum(&counts);
    Ok(ConversionPlan {
        layout,
        start_edge,
        duplicate_mirror,
        total_edges,
    })
}

/// Shared front half of both converters: Tuple8 addressability check,
/// effective kind, tiling, grouped layout, mirror policy.
pub(crate) fn resolve_layout(
    vertex_count: u64,
    kind: GraphKind,
    opts: &ConversionOptions,
) -> Result<(GroupedLayout, bool)> {
    if opts.encoding == EdgeEncoding::Tuple8 && vertex_count > u32::MAX as u64 + 1 {
        return Err(GraphError::InvalidParameter(
            "Tuple8 encoding cannot address this vertex count".into(),
        ));
    }
    // Symmetry is only exploitable for undirected graphs; a directed graph
    // stores its single orientation regardless.
    let effective_kind = match (kind, opts.exploit_symmetry) {
        (GraphKind::Undirected, true) => GraphKind::Undirected,
        _ => GraphKind::Directed,
    };
    let tiling = Tiling::new(vertex_count.max(1), opts.tile_bits, effective_kind)?;
    let layout = match opts.group_side {
        Some(q) => GroupedLayout::new(tiling, q)?,
        None => GroupedLayout::ungrouped(tiling)?,
    };
    let duplicate_mirror = kind == GraphKind::Undirected && !opts.exploit_symmetry;
    Ok((layout, duplicate_mirror))
}

/// Adds one chunk's per-tile counts into `acc` (dense, `tile_count` long).
pub(crate) fn count_chunk(
    chunk: impl IntoIterator<Item = Edge>,
    duplicate_mirror: bool,
    layout: &GroupedLayout,
    acc: &mut [u64],
) {
    for e in chunk {
        for e in fold_orientations(e, duplicate_mirror) {
            acc[tile_slot(layout, e)] += 1;
        }
    }
}

/// Linear tile index a (possibly mirrored) edge folds into.
#[inline]
pub(crate) fn tile_slot(layout: &GroupedLayout, e: Edge) -> usize {
    let (coord, _) = layout.tiling().tile_of_edge(e);
    layout
        .index_of(coord)
        .expect("folded edge must land on a stored tile") as usize
}

/// `counts` → (start-edge index, total stored edges).
pub(crate) fn prefix_sum(counts: &[u64]) -> (Vec<u64>, u64) {
    let mut start_edge = Vec::with_capacity(counts.len() + 1);
    start_edge.push(0u64);
    let mut running = 0u64;
    for c in counts {
        running += c;
        start_edge.push(running);
    }
    (start_edge, running)
}

/// Writes one folded edge at `out` under `encoding`.
#[inline]
pub(crate) fn write_edge(encoding: EdgeEncoding, span_mask: u64, out: &mut [u8], e: Edge) {
    match encoding {
        EdgeEncoding::Snb => {
            out[0..2].copy_from_slice(&((e.src & span_mask) as u16).to_le_bytes());
            out[2..4].copy_from_slice(&((e.dst & span_mask) as u16).to_le_bytes());
        }
        EdgeEncoding::Tuple8 => {
            out[0..4].copy_from_slice(&(e.src as u32).to_le_bytes());
            out[4..8].copy_from_slice(&(e.dst as u32).to_le_bytes());
        }
        EdgeEncoding::Tuple16 => {
            out[0..8].copy_from_slice(&e.src.to_le_bytes());
            out[8..16].copy_from_slice(&e.dst.to_le_bytes());
        }
    }
}

/// Pass 2 on one thread: a single sweep with per-tile cursors, the
/// reference [`scatter_parallel`] is byte-identical to.
fn scatter_sequential(el: &EdgeList, opts: &ConversionOptions, plan: &ConversionPlan) -> Vec<u8> {
    let layout = &plan.layout;
    let bpe = opts.encoding.bytes_per_edge();
    let mut data = vec![0u8; plan.total_edges as usize * bpe];
    let tile_count = layout.tile_count() as usize;
    let mut cursor: Vec<u64> = plan.start_edge[..tile_count].to_vec();
    let tiling = *layout.tiling();
    let span_mask = tiling.tile_span() - 1;
    for &e in el.edges() {
        for e in fold_orientations(e, plan.duplicate_mirror) {
            let (coord, folded) = tiling.tile_of_edge(e);
            let idx = layout.index_of(coord).unwrap() as usize;
            let at = cursor[idx] as usize * bpe;
            cursor[idx] += 1;
            write_edge(opts.encoding, span_mask, &mut data[at..at + bpe], folded);
        }
    }
    debug_assert!(cursor
        .iter()
        .zip(&plan.start_edge[1..])
        .all(|(c, s)| c == s));
    data
}

/// Reusable per-chunk scatter state: dense `tile_count`-sized arrays reset
/// in O(touched tiles), so batches of chunks recycle the same memory
/// instead of allocating per chunk. Shared with the streaming converter.
pub(crate) struct ChunkCursors {
    /// Per-tile edge count of the current chunk (zero outside `touched`).
    pub counts: Vec<u64>,
    /// Tiles the current chunk touches, ascending.
    pub touched: Vec<u64>,
    /// Per touched tile: the chunk's claimed cursor base (global edge
    /// index). The scatter may advance these in place as it writes.
    pub bases: Vec<u64>,
}

impl ChunkCursors {
    pub fn new(tile_count: usize) -> Self {
        ChunkCursors {
            counts: vec![0u64; tile_count],
            touched: Vec::new(),
            bases: vec![0u64; tile_count],
        }
    }

    /// Counts `chunk` per tile, resetting any previous snapshot first.
    /// Independent across chunks, so batches count in parallel; only the
    /// [`ChunkCursors::claim`] step below must run in chunk order.
    pub fn count(
        &mut self,
        chunk: impl IntoIterator<Item = Edge>,
        duplicate_mirror: bool,
        layout: &GroupedLayout,
    ) {
        for &t in &self.touched {
            self.counts[t as usize] = 0;
        }
        self.touched.clear();
        for e in chunk {
            for e in fold_orientations(e, duplicate_mirror) {
                let idx = tile_slot(layout, e);
                if self.counts[idx] == 0 {
                    self.touched.push(idx as u64);
                }
                self.counts[idx] += 1;
            }
        }
        self.touched.sort_unstable();
    }

    /// Claims each touched tile's contiguous final range by advancing the
    /// rolling `cursor` — the sequential prefix step that makes the
    /// chunks' writes disjoint, O(touched tiles) rather than O(edges).
    /// Because `cursor[t]` only grows and `start_edge` is monotone, the
    /// claimed ranges are strictly increasing in tile index, so a chunk's
    /// runs are already in file order.
    pub fn claim(&mut self, cursor: &mut [u64]) {
        for &t in &self.touched {
            let t = t as usize;
            self.bases[t] = cursor[t];
            cursor[t] += self.counts[t];
        }
    }
}

/// Shared mutable scatter targets for the parallel phase. Safety rests on
/// the cursor scheme: each batch slot owns exactly one `ChunkCursors` and
/// writes only byte ranges its snapshot claimed, which are disjoint across
/// slots by construction of the rolling cursor.
struct ScatterShared<'a> {
    data: *mut u8,
    data_len: usize,
    slots: &'a [UnsafeCell<ChunkCursors>],
}

// One slot index per parallel task; no two tasks share a slot or a byte.
unsafe impl Sync for ScatterShared<'_> {}

impl ScatterShared<'_> {
    /// Safety: slot `s` must not be accessed by any other task while the
    /// returned reference lives.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slot(&self, s: usize) -> &mut ChunkCursors {
        &mut *self.slots[s].get()
    }

    /// Safety: `at..at + bytes.len()` must be a byte range exclusively
    /// claimed by the calling task's cursor snapshot.
    unsafe fn write(&self, at: usize, bytes: &[u8]) {
        debug_assert!(at + bytes.len() <= self.data_len);
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), self.data.add(at), bytes.len());
    }
}

/// Pass 2, chunk-sharded: batches of `num_threads` chunks count
/// their per-tile populations in parallel, claim cursor bases in a
/// sequential O(touched-tiles) prefix step, then encode straight to their
/// final offsets concurrently. Per-edge work is never serialized — only
/// the tiny cursor advance is. Unlike the bucket-copy variant this design
/// replaced, nothing is staged or memcpy'd — each edge is encoded once,
/// directly in place — so the parallel speedup is not eaten by
/// memory-bound bucketing.
fn scatter_parallel(el: &EdgeList, opts: &ConversionOptions, plan: &ConversionPlan) -> Vec<u8> {
    let k = rayon::current_num_threads().max(1);
    let edges = el.edges();
    if k == 1 || edges.len() <= PASS_CHUNK {
        return scatter_sequential(el, opts, plan);
    }
    let layout = &plan.layout;
    let duplicate_mirror = plan.duplicate_mirror;
    let bpe = opts.encoding.bytes_per_edge();
    let mut data = vec![0u8; plan.total_edges as usize * bpe];
    let tile_count = layout.tile_count() as usize;
    let tiling = *layout.tiling();
    let span_mask = tiling.tile_span() - 1;

    let mut cursor: Vec<u64> = plan.start_edge[..tile_count].to_vec();
    let slots: Vec<UnsafeCell<ChunkCursors>> = (0..k)
        .map(|_| UnsafeCell::new(ChunkCursors::new(tile_count)))
        .collect();
    let shared = ScatterShared {
        data: data.as_mut_ptr(),
        data_len: data.len(),
        slots: &slots,
    };

    let mut pos = 0usize;
    while pos < edges.len() {
        let mut batch: Vec<(usize, usize, usize)> = Vec::with_capacity(k); // (slot, lo, hi)
        for s in 0..k {
            if pos >= edges.len() {
                break;
            }
            let end = (pos + PASS_CHUNK).min(edges.len());
            batch.push((s, pos, end));
            pos = end;
        }
        // Phase A (parallel): count each chunk's per-tile population.
        batch
            .par_iter()
            .map(|&(s, lo, hi)| {
                // Safety: slot `s` appears exactly once in the batch.
                let slot = unsafe { shared.slot(s) };
                slot.count(edges[lo..hi].iter().copied(), duplicate_mirror, layout);
                0u64
            })
            .sum::<u64>();
        // Sequential prefix: claim cursor bases in chunk order —
        // O(touched tiles) per chunk, not O(edges).
        for &(s, _, _) in &batch {
            // Safety: the parallel count above has completed.
            let slot = unsafe { shared.slot(s) };
            slot.claim(&mut cursor);
        }
        // Phase B (parallel): each slot encodes its chunk to the final
        // offsets its claim reserved. Ranges are disjoint across slots.
        batch
            .par_iter()
            .map(|&(s, lo, hi)| {
                // Safety: slot `s` appears exactly once in the batch, and
                // the byte ranges written were claimed disjointly in
                // phase A.
                let slot = unsafe { shared.slot(s) };
                for &e in &edges[lo..hi] {
                    for e in fold_orientations(e, duplicate_mirror) {
                        let (coord, folded) = tiling.tile_of_edge(e);
                        let idx = layout.index_of(coord).unwrap() as usize;
                        let at = slot.bases[idx] as usize * bpe;
                        slot.bases[idx] += 1;
                        let mut enc = [0u8; 16];
                        write_edge(opts.encoding, span_mask, &mut enc[..bpe], folded);
                        unsafe { shared.write(at, &enc[..bpe]) };
                    }
                }
                0u64
            })
            .sum::<u64>();
    }
    debug_assert!(cursor
        .iter()
        .zip(&plan.start_edge[1..])
        .all(|(c, s)| c == s));
    data
}

pub(crate) const PASS_CHUNK: usize = 1 << 15;

/// Yields the orientations to store for one input edge: just the edge
/// itself normally, or both orientations when storing an undirected graph
/// without the symmetry optimisation (self-loops still stored once).
#[inline]
pub(crate) fn fold_orientations(e: Edge, duplicate_mirror: bool) -> impl Iterator<Item = Edge> {
    let second = (duplicate_mirror && !e.is_self_loop()).then(|| e.reversed());
    std::iter::once(e).chain(second)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::TileCoord;

    fn fig1(kind: GraphKind) -> EdgeList {
        EdgeList::new(
            8,
            kind,
            vec![
                Edge::new(0, 1),
                Edge::new(0, 3),
                Edge::new(0, 4),
                Edge::new(1, 2),
                Edge::new(1, 4),
                Edge::new(2, 4),
                Edge::new(4, 5),
                Edge::new(5, 6),
                Edge::new(5, 7),
            ],
        )
        .unwrap()
    }

    #[test]
    fn symmetric_store_halves_tiles() {
        let store = convert(&fig1(GraphKind::Undirected), &ConversionOptions::new(2)).unwrap();
        assert_eq!(store.tile_count(), 3);
        assert_eq!(store.edge_count(), 9);
    }

    #[test]
    fn base_format_duplicates_mirrors() {
        // Figure 10 "Base": undirected graph stored both ways on the full
        // grid; edge count doubles (no self-loops here).
        let opts = ConversionOptions::new(2).without_symmetry();
        let store = convert(&fig1(GraphKind::Undirected), &opts).unwrap();
        assert_eq!(store.tile_count(), 4);
        assert_eq!(store.edge_count(), 18);
        // partition[1,0] now exists and mirrors partition[0,1].
        let idx10 = store.layout().index_of(TileCoord::new(1, 0)).unwrap();
        let mut t = store.decode_tile(idx10).unwrap();
        t.sort_unstable();
        assert_eq!(t, vec![Edge::new(4, 0), Edge::new(4, 1), Edge::new(4, 2)]);
    }

    #[test]
    fn directed_graph_unaffected_by_symmetry_flag() {
        let a = convert(&fig1(GraphKind::Directed), &ConversionOptions::new(2)).unwrap();
        let b = convert(
            &fig1(GraphKind::Directed),
            &ConversionOptions::new(2).without_symmetry(),
        )
        .unwrap();
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.tile_count(), b.tile_count());
    }

    #[test]
    fn tuple_encodings_roundtrip() {
        for enc in [EdgeEncoding::Tuple8, EdgeEncoding::Tuple16] {
            let el = fig1(GraphKind::Undirected);
            let store = convert(&el, &ConversionOptions::new(2).with_encoding(enc)).unwrap();
            let mut got = store.to_edges();
            got.sort_unstable();
            let mut want: Vec<Edge> = el.edges().iter().map(|e| e.canonical()).collect();
            want.sort_unstable();
            assert_eq!(got, want);
            assert_eq!(store.data_bytes(), 9 * enc.bytes_per_edge() as u64);
        }
    }

    #[test]
    fn tuple8_rejects_huge_vertex_space() {
        let el = EdgeList::new((1 << 32) + 2, GraphKind::Directed, vec![]).unwrap();
        let opts = ConversionOptions::new(16).with_encoding(EdgeEncoding::Tuple8);
        assert!(convert(&el, &opts).is_err());
    }

    #[test]
    fn grouped_conversion_matches_ungrouped_multiset() {
        let el = fig1(GraphKind::Undirected);
        let a = convert(&el, &ConversionOptions::new(1)).unwrap();
        let b = convert(&el, &ConversionOptions::new(1).with_group_side(2)).unwrap();
        let mut ea = a.to_edges();
        let mut eb = b.to_edges();
        ea.sort_unstable();
        eb.sort_unstable();
        assert_eq!(ea, eb);
    }

    #[test]
    fn empty_edge_list() {
        let el = EdgeList::new(16, GraphKind::Directed, vec![]).unwrap();
        let store = convert(&el, &ConversionOptions::new(2)).unwrap();
        assert_eq!(store.edge_count(), 0);
        assert!(store.to_edges().is_empty());
    }

    #[test]
    fn conversion_is_deterministic() {
        use gstore_graph::gen::{generate_rmat, RmatParams};
        let el = generate_rmat(&RmatParams::kron(12, 8)).unwrap();
        let opts = ConversionOptions::new(8).with_group_side(8);
        let a = convert(&el, &opts).unwrap();
        let b = convert(&el, &opts).unwrap();
        assert_eq!(a.data(), b.data());
        assert_eq!(a.start_edge(), b.start_edge());
    }

    /// Pass 2 both ways over one plan: (sequential, parallel).
    fn both_scatters(el: &EdgeList, opts: &ConversionOptions) -> (Vec<u8>, Vec<u8>) {
        let plan = plan_conversion(el, opts).unwrap();
        (
            scatter_sequential(el, opts, &plan),
            scatter_parallel(el, opts, &plan),
        )
    }

    #[test]
    fn parallel_scatter_is_byte_identical_to_sequential() {
        use gstore_graph::gen::{generate_rmat, RmatParams};
        // Enough edges for several PASS_CHUNK batches, so the rolling
        // cursor actually crosses chunk boundaries.
        let el = generate_rmat(&RmatParams::kron(13, 8)).unwrap();
        for opts in [
            ConversionOptions::new(8).with_group_side(8),
            ConversionOptions::new(9),
            ConversionOptions::new(8).with_encoding(EdgeEncoding::Tuple8),
            ConversionOptions::new(8)
                .with_group_side(4)
                .with_encoding(EdgeEncoding::Tuple16),
        ] {
            let (seq, par) = both_scatters(&el, &opts);
            assert_eq!(seq, par, "scatters diverged: {opts:?}");
        }
    }

    #[test]
    fn parallel_scatter_handles_duplicated_mirrors() {
        use gstore_graph::gen::{generate_rmat, RmatParams};
        let mut el = generate_rmat(&RmatParams::kron(13, 6)).unwrap();
        // Force the undirected no-symmetry path (both orientations stored).
        el = EdgeList::new(el.vertex_count(), GraphKind::Undirected, el.into_edges()).unwrap();
        let opts = ConversionOptions::new(8)
            .with_group_side(8)
            .without_symmetry();
        let (seq, par) = both_scatters(&el, &opts);
        assert_eq!(seq, par);
    }

    #[test]
    fn duplicates_preserved() {
        let el = EdgeList::new(
            8,
            GraphKind::Directed,
            vec![Edge::new(1, 2), Edge::new(1, 2), Edge::new(1, 2)],
        )
        .unwrap();
        let store = convert(&el, &ConversionOptions::new(2)).unwrap();
        assert_eq!(store.edge_count(), 3);
        assert_eq!(store.to_edges(), vec![Edge::new(1, 2); 3]);
    }
}
