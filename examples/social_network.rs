//! Social-network analytics on a Twitter-shaped graph — the paper's
//! motivating scenario (recommendation systems, social networks).
//!
//! Generates a power-law directed graph with Twitter-like skew, then uses
//! the G-Store engine to (a) rank influencers with PageRank, (b) find
//! weakly-connected communities, and (c) measure how far the network
//! reaches from its top influencer with BFS.
//!
//! Run with: `cargo run --release --example social_network`

use gstore::graph::gen::{generate_powerlaw, PowerLawParams};
use gstore::prelude::*;
use std::sync::Arc;

fn main() -> gstore::graph::Result<()> {
    // Twitter at 1/2000 scale: ~26k users, ~1M follow edges.
    let params = PowerLawParams::twitter_like(2000);
    let el = generate_powerlaw(&params)?;
    println!(
        "social graph: {} users, {} follow edges (directed, power-law)",
        el.vertex_count(),
        el.edge_count()
    );

    let store = TileStore::build(&el, &ConversionOptions::new(10).with_group_side(8))?;
    let tiling = *store.layout().tiling();
    let mut engine = GStoreEngine::builder()
        .store(&store)
        .scr(ScrConfig::new(128 << 10, 8 << 20)?)
        .build()?;

    // -- PageRank: who are the influencers? --
    // Degrees come with the store: the compact array its conversion counted.
    let degrees = store.degrees();
    let mut pr = PageRank::over(tiling, Arc::clone(degrees), 0.85).with_tolerance(1e-9);
    let stats = engine.run(&mut pr, 100)?;
    println!("\nPageRank converged in {} iterations", stats.iterations);
    let mut ranked: Vec<(usize, f64)> = pr.ranks().iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("top 5 influencers (user, rank, followers->):");
    for (user, rank) in ranked.iter().take(5) {
        println!(
            "  user {user:>8}  rank {rank:.6}  out-degree {}",
            degrees.degree(*user as u64)
        );
    }

    // -- WCC: community structure. --
    let mut wcc = Wcc::new(tiling);
    engine.run(&mut wcc, 1000)?;
    let labels = wcc.labels();
    let mut sizes = std::collections::HashMap::new();
    for &l in &labels {
        *sizes.entry(l).or_insert(0u64) += 1;
    }
    let mut sizes: Vec<u64> = sizes.into_values().collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    println!(
        "\n{} weakly-connected components; largest holds {:.1}% of users",
        wcc.component_count(),
        100.0 * sizes[0] as f64 / el.vertex_count() as f64
    );

    // -- BFS: reachability from the top influencer. --
    let root = ranked[0].0 as u64;
    let mut bfs = Bfs::new(tiling, root);
    let stats = engine.run(&mut bfs, 1000)?;
    let depths = bfs.depths();
    let reached = bfs.visited_count();
    let max_depth = depths
        .iter()
        .filter(|&&d| d != gstore::core::UNREACHED)
        .max()
        .copied()
        .unwrap_or(0);
    println!(
        "\nBFS from user {root}: reaches {reached} users ({:.1}%) within {max_depth} hops \
         in {} iterations",
        100.0 * reached as f64 / el.vertex_count() as f64,
        stats.iterations
    );
    Ok(())
}
