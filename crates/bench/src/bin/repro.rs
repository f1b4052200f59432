//! Repro harness: regenerates every table and figure of the G-Store paper
//! at laptop scale.
//!
//! Usage:
//!   repro <experiment|all> [--quick] [--scale N] [--edge-factor N]
//!         [--divisor N] [--tile-bits N] [--group-side N]
//!         [--metrics-json PATH]
//!
//! Flags are parsed with the same [`gstore::cli::Flags`] surface the
//! `gstore` CLI uses, so both binaries accept identical `--key value`
//! spellings, and an undeclared flag is a usage error in both.
//!
//! `--metrics-json PATH` additionally runs an instrumented PageRank at the
//! chosen scale and writes the engine's flight-recorder metrics (per-phase
//! timings, I/O counters, cache stats — see docs/METRICS.md) to PATH.
//!
//! Run `repro list` to see all experiments.

use bench::experiments::registry;
use bench::workloads::Scale;
use gstore::cli::Flags;

/// Every flag `repro` reads.
const FLAGS: &[&str] = &[
    "quick",
    "scale",
    "edge-factor",
    "divisor",
    "tile-bits",
    "group-side",
    "metrics-json",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (pos, flags) = match Flags::parse(&args)
        .and_then(|(pos, flags)| flags.check("repro", &[FLAGS]).map(|()| (pos, flags)))
    {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            usage();
            std::process::exit(2);
        }
    };
    if pos.is_empty() {
        usage();
        std::process::exit(2);
    }
    let which = pos[0].as_str();

    let mut scale = if flags.has("quick") {
        Scale::quick()
    } else {
        Scale::default()
    };
    let num = |key: &str, default: u64| -> u64 {
        flags.get(key, default).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    };
    scale.kron_scale = num("scale", scale.kron_scale as u64) as u32;
    scale.edge_factor = num("edge-factor", scale.edge_factor);
    scale.divisor = num("divisor", scale.divisor);
    scale.tile_bits = num("tile-bits", scale.tile_bits as u64) as u32;
    scale.group_side = num("group-side", scale.group_side as u64) as u32;

    // `--metrics-json` needs a path: with no value it parses as an empty
    // string, which is a usage error.
    let metrics_json = if flags.has("metrics-json") {
        match flags.get("metrics-json", String::new()) {
            Ok(p) if !p.is_empty() => Some(p),
            _ => {
                eprintln!("missing path for --metrics-json");
                std::process::exit(2);
            }
        }
    } else {
        None
    };

    match which {
        "list" => {
            for (name, desc, _) in registry() {
                println!("{name:<8} {desc}");
            }
        }
        "all" => {
            println!("# G-Store paper reproduction (scaled)");
            println!(
                "# kron-scale={} edge-factor={} divisor={} tile-bits={} group-side={}",
                scale.kron_scale,
                scale.edge_factor,
                scale.divisor,
                scale.tile_bits,
                scale.group_side
            );
            for (name, _, run) in registry() {
                eprintln!("[repro] running {name} ...");
                run(&scale);
            }
        }
        name => match registry().into_iter().find(|(n, _, _)| *n == name) {
            Some((_, _, run)) => run(&scale),
            None => {
                eprintln!("unknown experiment '{name}'");
                usage();
                std::process::exit(2);
            }
        },
    }

    if let Some(path) = metrics_json {
        eprintln!("[repro] writing flight-recorder metrics (instrumented PageRank) ...");
        match bench::model::metrics_json_for_scale(&scale) {
            Ok(json) => {
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(2);
                }
                eprintln!("[repro] metrics written to {path}");
            }
            Err(e) => {
                eprintln!("metrics failed: {e}");
                std::process::exit(2);
            }
        }
    }
}

fn usage() {
    eprintln!(
        "usage: repro <experiment|all|list> [--quick] [--scale N] [--edge-factor N] \
         [--divisor N] [--tile-bits N] [--group-side N] [--metrics-json PATH]"
    );
}
