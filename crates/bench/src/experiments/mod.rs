//! One module per group of paper experiments. Each public function prints
//! a table mirroring the paper's figure/table and a note stating what the
//! paper reported, so the shape comparison is visible at a glance.

pub mod ablation;
pub mod comparison;
pub mod extensions;
pub mod format;
pub mod motivation;

use crate::workloads::Scale;

/// Experiment registry: (name, description, runner).
pub type Runner = fn(&Scale);

/// All experiments in paper order.
pub fn registry() -> Vec<(&'static str, &'static str, Runner)> {
    vec![
        (
            "fig2a",
            "X-Stream PageRank vs edge-tuple size",
            motivation::fig2a as Runner,
        ),
        (
            "fig2b",
            "in-memory PageRank vs partition count",
            motivation::fig2b,
        ),
        (
            "fig2c",
            "PageRank vs streaming-memory size",
            motivation::fig2c,
        ),
        (
            "fig5",
            "tile occupancy distribution (Twitter-like)",
            format::fig5,
        ),
        ("table1", "conversion time: CSR vs G-Store", format::table1),
        ("table2", "storage sizes and saving factors", format::table2),
        (
            "fig7",
            "physical-group occupancy (Twitter-like)",
            format::fig7,
        ),
        (
            "table3",
            "largest-scale runs (BFS/PageRank/WCC)",
            comparison::table3,
        ),
        ("fig9", "G-Store vs FlashGraph", comparison::fig9),
        (
            "xstream",
            "G-Store vs X-Stream",
            comparison::xstream_comparison,
        ),
        ("fig10", "speedup from space saving", ablation::fig10),
        ("fig11", "in-memory speedup from grouping", ablation::fig11),
        (
            "fig12",
            "LLC operations/misses vs grouping",
            ablation::fig12,
        ),
        ("fig13", "SCR vs base policy", ablation::fig13),
        ("fig14", "effect of cache size", ablation::fig14),
        ("fig15", "scalability on SSDs", ablation::fig15),
        (
            "ext-compress",
            "EXT: per-tile delta compression",
            extensions::ext_compress,
        ),
        (
            "ext-gridgraph",
            "EXT: vs GridGraph-style engine",
            extensions::ext_gridgraph,
        ),
        (
            "ext-tiered",
            "EXT: tiered SSD+HDD storage",
            extensions::ext_tiered,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_table_and_figure() {
        let names: Vec<&str> = registry().iter().map(|(n, _, _)| *n).collect();
        for expected in [
            "fig2a",
            "fig2b",
            "fig2c",
            "fig5",
            "fig7",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "table1",
            "table2",
            "table3",
            "xstream",
            "ext-compress",
            "ext-tiered",
            "ext-gridgraph",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        assert_eq!(names.len(), 19);
    }
}

#[cfg(test)]
mod smoke {
    use super::*;

    /// Runs every registered experiment end to end at smoke scale. Slow
    /// (~1-2 minutes in release); opt in with `-- --ignored`.
    #[test]
    #[ignore = "runs the full experiment suite at quick scale"]
    fn every_experiment_runs_at_quick_scale() {
        let scale = Scale::quick();
        for (name, _, run) in registry() {
            eprintln!("[smoke] {name}");
            run(&scale);
        }
    }
}
