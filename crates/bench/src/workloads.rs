//! Workload builders for the repro harness.
//!
//! Every experiment runs on scaled-down versions of the paper's graphs;
//! [`Scale`] centralises the scaling knobs so `repro --scale`/`--divisor`
//! affect all experiments uniformly.

use gstore_graph::gen::{generate_powerlaw, generate_rmat, PowerLawParams, RmatParams};
use gstore_graph::{EdgeList, GraphKind};
use gstore_tile::{ConversionOptions, EdgeEncoding, TileStore};

/// Global scaling knobs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Kronecker scale used for "Kron-28-16"-class workloads
    /// (paper: 28; default here: 18 → 262k vertices, 4.2M edges).
    pub kron_scale: u32,
    /// Edge factor for Kronecker workloads.
    pub edge_factor: u64,
    /// Divisor applied to the real-graph presets
    /// (paper: 1; default: 512 → Twitter-like with ~102k vertices).
    pub divisor: u64,
    /// Tile bits for scaled graphs. The paper uses 16; scaled graphs use
    /// smaller tiles so the grid keeps a paper-like number of partitions.
    pub tile_bits: u32,
    /// Physical-group side (q).
    pub group_side: u32,
}

impl Default for Scale {
    fn default() -> Self {
        // kron_scale 18 with tile_bits 11 gives p = 128 partitions —
        // the same grid magnitude the paper's graphs have at 2^16 tiles.
        Scale {
            kron_scale: 18,
            edge_factor: 16,
            divisor: 512,
            tile_bits: 11,
            group_side: 16,
        }
    }
}

impl Scale {
    /// A faster configuration for smoke runs (`repro --quick`).
    pub fn quick() -> Self {
        Scale {
            kron_scale: 14,
            edge_factor: 8,
            divisor: 4096,
            tile_bits: 9,
            group_side: 8,
        }
    }

    /// The scaled `Kron-<scale>-<ef>` undirected graph.
    pub fn kron(&self) -> EdgeList {
        generate_rmat(&RmatParams::kron(self.kron_scale, self.edge_factor)).unwrap()
    }

    /// A directed variant of the Kron workload.
    pub fn kron_directed(&self) -> EdgeList {
        generate_rmat(
            &RmatParams::kron(self.kron_scale, self.edge_factor).with_kind(GraphKind::Directed),
        )
        .unwrap()
    }

    /// Twitter-shaped directed graph at `divisor` scale.
    pub fn twitter(&self) -> EdgeList {
        generate_powerlaw(&PowerLawParams::twitter_like(self.divisor)).unwrap()
    }

    /// Twitter-shaped graph treated as undirected (the paper evaluates
    /// both orientations, the "-u"/"-d" suffixes of Figure 9).
    pub fn twitter_undirected(&self) -> EdgeList {
        generate_powerlaw(
            &PowerLawParams::twitter_like(self.divisor).with_kind(GraphKind::Undirected),
        )
        .unwrap()
    }

    /// Friendster-shaped directed graph.
    pub fn friendster(&self) -> EdgeList {
        generate_powerlaw(&PowerLawParams::friendster_like(self.divisor)).unwrap()
    }

    /// Subdomain-shaped directed graph.
    pub fn subdomain(&self) -> EdgeList {
        generate_powerlaw(&PowerLawParams::subdomain_like(self.divisor)).unwrap()
    }

    /// This scale's standard conversion options.
    pub fn conversion(&self) -> ConversionOptions {
        ConversionOptions::new(self.tile_bits).with_group_side(self.group_side)
    }

    /// Standard SNB store for an edge list under this scale's geometry.
    pub fn store(&self, el: &EdgeList) -> TileStore {
        TileStore::build(el, &self.conversion()).unwrap()
    }

    /// Store with explicit conversion options (ablations).
    pub fn store_with(
        &self,
        el: &EdgeList,
        encoding: EdgeEncoding,
        exploit_symmetry: bool,
    ) -> TileStore {
        let mut opts = ConversionOptions::new(self.tile_bits)
            .with_group_side(self.group_side)
            .with_encoding(encoding);
        if !exploit_symmetry {
            opts = opts.without_symmetry();
        }
        TileStore::build(el, &opts).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_builds_all_workloads() {
        let s = Scale::quick();
        let k = s.kron();
        assert_eq!(k.vertex_count(), 1 << 14);
        let t = s.twitter();
        assert!(t.edge_count() > 0);
        let store = s.store(&k);
        assert_eq!(store.edge_count(), k.edge_count());
        assert!(store.layout().tiling().partitions() >= 16);
        assert_eq!(store.degrees().len(), k.vertex_count() as usize);
    }

    #[test]
    fn ablation_stores_differ_in_size() {
        let s = Scale::quick();
        let k = s.kron();
        let base = s.store_with(&k, EdgeEncoding::Tuple8, false);
        let sym = s.store_with(&k, EdgeEncoding::Tuple8, true);
        let snb = s.store_with(&k, EdgeEncoding::Snb, true);
        assert!(base.data_bytes() > sym.data_bytes());
        assert!(sym.data_bytes() > snb.data_bytes());
        // Base ≈ 2x sym (mirrors); sym = 2x snb (8 vs 4 bytes/edge).
        assert_eq!(sym.data_bytes(), 2 * snb.data_bytes());
    }
}
