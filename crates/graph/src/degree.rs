//! Compact degree array (§IV.C of the paper).
//!
//! Power-law graphs have mostly tiny degrees with a few enormous ones.
//! G-Store stores each degree in 2 bytes: values up to `i16::MAX` are kept
//! inline with the MSB clear; a larger degree sets the MSB and lives in a
//! vertex-sorted hub table of `(vertex, degree)` pairs, found by binary
//! search. This halves the degree array compared to a flat `u32` layout
//! (e.g. 4 GB -> 2 GB for Kron-30-16), and the hub table has no size limit.

use crate::edgelist::EdgeList;
use crate::types::{GraphError, Result, VertexId};

/// Largest degree representable inline (15 bits).
pub const INLINE_MAX: u64 = i16::MAX as u64; // 32,767

/// The inline entry of a hub: the MSB alone.
const HUB_FLAG: u16 = 1 << 15;

/// Degree array with 2-byte entries and a hub table for the rest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactDegrees {
    inline: Vec<u16>,
    /// `(vertex, degree)` of every vertex above [`INLINE_MAX`], ascending
    /// by vertex.
    hubs: Vec<(VertexId, u64)>,
}

impl CompactDegrees {
    /// Builds from a plain degree vector.
    pub fn from_degrees(degrees: &[u64]) -> Self {
        let mut hubs = Vec::new();
        let inline = (0..)
            .zip(degrees)
            .map(|(v, &d)| {
                if d <= INLINE_MAX {
                    d as u16
                } else {
                    hubs.push((v, d));
                    HUB_FLAG
                }
            })
            .collect();
        CompactDegrees { inline, hubs }
    }

    /// Out-degree (or undirected degree) array of an edge list.
    pub fn from_edge_list(el: &EdgeList) -> Result<Self> {
        let mut degrees = vec![0u64; el.vertex_count() as usize];
        let undirected = !el.kind().is_directed();
        for e in el.edges() {
            degrees[e.src as usize] += 1;
            if undirected && !e.is_self_loop() {
                degrees[e.dst as usize] += 1;
            }
        }
        Ok(Self::from_degrees(&degrees))
    }

    /// Reassembles the array from its two parts, as [`Self::inline`] and
    /// [`Self::hubs`] return them. Fails with [`GraphError::Format`]
    /// unless the flagged inline entries and the hub table name the same
    /// vertices in the same order, and every hub is above [`INLINE_MAX`].
    pub fn from_parts(inline: Vec<u16>, hubs: Vec<(VertexId, u64)>) -> Result<Self> {
        let mut table = hubs.iter();
        for (v, &raw) in (0..).zip(&inline) {
            if raw & HUB_FLAG == 0 {
                continue;
            }
            match table.next() {
                Some(&(hub, d)) if raw == HUB_FLAG && hub == v && d > INLINE_MAX => {}
                _ => {
                    return Err(GraphError::Format(format!(
                        "inline entry {raw:#06x} of vertex {v} has no matching hub-table row"
                    )))
                }
            }
        }
        if let Some(&(hub, _)) = table.next() {
            return Err(GraphError::Format(format!(
                "hub table lists vertex {hub}, whose inline entry is not a hub's"
            )));
        }
        Ok(CompactDegrees { inline, hubs })
    }

    /// The 2-byte entries, one per vertex: a degree, or the MSB alone for
    /// a vertex in the hub table.
    #[inline]
    pub fn inline(&self) -> &[u16] {
        &self.inline
    }

    /// The hub table: `(vertex, degree)`, ascending by vertex.
    #[inline]
    pub fn hubs(&self) -> &[(VertexId, u64)] {
        &self.hubs
    }

    /// Number of vertices covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.inline.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inline.is_empty()
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u64 {
        let raw = self.inline[v as usize];
        if raw & HUB_FLAG == 0 {
            return raw as u64;
        }
        let at = self
            .hubs
            .binary_search_by_key(&v, |&(hub, _)| hub)
            .expect("every flagged entry has a hub-table row");
        self.hubs[at].1
    }

    /// Sum of all degrees, saturating at `u64::MAX`.
    pub fn total(&self) -> u64 {
        let inline: u64 = self
            .inline
            .iter()
            .filter(|&&raw| raw & HUB_FLAG == 0)
            .map(|&raw| raw as u64)
            .sum();
        self.hubs
            .iter()
            .fold(inline, |sum, &(_, d)| sum.saturating_add(d))
    }

    /// Number of vertices whose degree lives in the hub table.
    #[inline]
    pub fn hub_count(&self) -> usize {
        self.hubs.len()
    }

    /// Bytes used by this compact encoding.
    pub fn size_bytes(&self) -> u64 {
        (self.inline.len() * 2 + self.hubs.len() * 16) as u64
    }

    /// Bytes a flat array with `width` bytes per entry would use, for
    /// savings accounting.
    pub fn flat_size_bytes(&self, width: u64) -> u64 {
        self.inline.len() as u64 * width
    }

    /// Expands back to a plain `u64` degree vector.
    pub fn to_vec(&self) -> Vec<u64> {
        (0..self.len() as u64).map(|v| self.degree(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Edge, GraphKind};

    #[test]
    fn inline_and_hub_mix() {
        let degrees = vec![0, 1, INLINE_MAX, INLINE_MAX + 1, 5, 1 << 40];
        let c = CompactDegrees::from_degrees(&degrees);
        assert_eq!(c.to_vec(), degrees);
        assert_eq!(c.hubs(), &[(3, INLINE_MAX + 1), (5, 1 << 40)]);
        assert_eq!(c.total(), degrees.iter().sum::<u64>());
    }

    #[test]
    fn boundary_values() {
        let c = CompactDegrees::from_degrees(&[INLINE_MAX]);
        assert_eq!(c.hub_count(), 0);
        let c = CompactDegrees::from_degrees(&[INLINE_MAX + 1]);
        assert_eq!(c.hub_count(), 1);
        assert_eq!(c.degree(0), INLINE_MAX + 1);
    }

    /// The old overflow index had 15 bits, so 32 768 hubs were the most it
    /// could hold; the hub table has no such limit.
    #[test]
    fn more_hubs_than_fifteen_bits_can_index() {
        let degrees: Vec<u64> = (0..40_000u64)
            .map(|v| if v % 8 == 0 { 3 } else { INLINE_MAX + 1 + v })
            .collect();
        let c = CompactDegrees::from_degrees(&degrees);
        assert_eq!(c.hub_count(), 35_000);
        assert_eq!(c.to_vec(), degrees);
    }

    #[test]
    fn from_parts_accepts_its_own_parts_and_nothing_inconsistent() {
        let c = CompactDegrees::from_degrees(&[4, INLINE_MAX + 9, 0, 1 << 20]);
        let back = CompactDegrees::from_parts(c.inline().to_vec(), c.hubs().to_vec()).unwrap();
        assert_eq!(back, c);
        let bad = |inline: &[u16], hubs: &[(VertexId, u64)]| {
            let r = CompactDegrees::from_parts(inline.to_vec(), hubs.to_vec());
            assert!(
                matches!(r, Err(GraphError::Format(_))),
                "{inline:?} {hubs:?}"
            );
        };
        let big = INLINE_MAX + 1;
        bad(&[HUB_FLAG, 0], &[]); // a flagged entry without a row
        bad(&[0, 0], &[(1, big)]); // a row without a flagged entry
        bad(&[HUB_FLAG, HUB_FLAG], &[(1, big), (0, big)]); // out of order
        bad(&[HUB_FLAG], &[(0, 7)]); // a hub that fits inline
        bad(&[HUB_FLAG | 1], &[(0, big)]); // a non-canonical flag
        bad(&[HUB_FLAG], &[(0, big), (0, big)]); // a duplicate row
    }

    #[test]
    fn sizes_halve_flat_u32() {
        let degrees = vec![3u64; 1000];
        let c = CompactDegrees::from_degrees(&degrees);
        assert_eq!(c.size_bytes(), 2000);
        assert_eq!(c.flat_size_bytes(4), 4000);
    }

    #[test]
    fn from_edge_list_counts_both_ends_when_undirected() {
        let el = EdgeList::new(
            3,
            GraphKind::Undirected,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 2)],
        )
        .unwrap();
        let c = CompactDegrees::from_edge_list(&el).unwrap();
        assert_eq!(c.to_vec(), vec![1, 2, 2]); // self-loop counts once
    }

    #[test]
    fn from_edge_list_directed_is_out_degree() {
        let el = EdgeList::new(
            3,
            GraphKind::Directed,
            vec![Edge::new(0, 1), Edge::new(0, 2), Edge::new(1, 0)],
        )
        .unwrap();
        let c = CompactDegrees::from_edge_list(&el).unwrap();
        assert_eq!(c.to_vec(), vec![2, 1, 0]);
    }

    #[test]
    fn empty() {
        let c = CompactDegrees::from_degrees(&[]);
        assert!(c.is_empty());
        assert_eq!(c.size_bytes(), 0);
        assert_eq!(c.total(), 0);
    }
}
