//! Command line: the benchmark contract's flag form, `run`, `all` and
//! `compare`.

use crate::compare;
use crate::data::Scale;
use crate::report::Outcome;
use crate::workloads::{self, Limit, RunConfig, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;

const USAGE: &str = "\
usage:
  gbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one run as BENCHMARK.json's driver makes it; the last line of
      standard output is the result as one JSON object
  gbench run <workload> [--trace] [--quick] [options]
  gbench all [options]
      every workload, untraced then traced
  gbench compare <a> <b>
      two sets of results written with --out, metric by metric

options:
  --seed <n>       seed of the generators, BFS roots and request keys [1]
  --seconds <s>    time-box the timed section
  --units <n>      fixed number of units of work instead (the default:
                   each workload's count from ISSUE 11)
  --quick          smoke-test graphs: kron(14, 8) and twitter_like(4096)
  --out <dir>      write <workload>[.traced].json and <workload>.trace.json

workloads: pr_stream pr_resident pr_zeta batch_mixed point_zipf serve_mixed ingest";

/// Positional arguments and `--key [value]` flags.
struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

/// Flags that take no value.
const SWITCHES: [&str; 1] = ["quick"];

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        positional: Vec::new(),
        flags: BTreeMap::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.strip_prefix("--") {
            None => out.positional.push(arg.clone()),
            Some(key) if SWITCHES.contains(&key) => {
                out.flags.insert(key.to_string(), String::new());
            }
            // `--trace` is a switch after `run`, and takes 0|1 in the
            // contract's form.
            Some("trace") if it.peek().is_none_or(|v| v.starts_with("--")) => {
                out.flags.insert("trace".into(), "1".into());
            }
            Some(key) => {
                let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                out.flags.insert(key.to_string(), value.clone());
            }
        }
    }
    Ok(out)
}

impl Args {
    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.flags
            .get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("invalid value {v:?} for --{key}"))
            })
            .transpose()
    }

    fn config(&self, workload: Workload) -> Result<RunConfig, String> {
        for key in self.flags.keys() {
            if ![
                "workload", "seed", "seconds", "units", "quick", "out", "trace",
            ]
            .contains(&key.as_str())
            {
                return Err(format!("unknown flag --{key}"));
            }
        }
        let scale = if self.flags.contains_key("quick") {
            Scale::QUICK
        } else {
            Scale::STD
        };
        let limit = match (self.get::<f64>("seconds")?, self.get::<u64>("units")?) {
            (Some(_), Some(_)) => return Err("--seconds and --units exclude each other".into()),
            (Some(s), None) if s > 0.0 && s.is_finite() => Limit::Seconds(s),
            (Some(s), None) => return Err(format!("--seconds {s} must be positive")),
            (None, Some(n)) => Limit::Units(n),
            (None, None) => Limit::Units(workload.default_units()),
        };
        let trace = match self.flags.get("trace").map(String::as_str) {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        };
        Ok(RunConfig {
            workload,
            seed: self.get("seed")?.unwrap_or(1),
            scale,
            limit,
            trace,
            out: self.flags.get("out").map(PathBuf::from),
        })
    }
}

fn workload_named(name: &str) -> Result<Workload, String> {
    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
}

fn run_one(cfg: &RunConfig) -> Result<Outcome, String> {
    let outcome = workloads::run(cfg).map_err(|e| format!("{}: {e}", cfg.workload.name()))?;
    print!("{}", outcome.human());
    Ok(outcome)
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    let parsed = parse_args(args)?;
    let positional: Vec<&str> = parsed.positional.iter().map(String::as_str).collect();
    match positional.as_slice() {
        // One run: the contract's flags-only form, or `run <workload>`.
        [] | ["run", _] => {
            let name = match positional.get(1) {
                Some(name) => name,
                None => parsed.flags.get("workload").ok_or(USAGE)?.as_str(),
            };
            let outcome = run_one(&parsed.config(workload_named(name)?)?)?;
            println!("{}", outcome.contract_line());
            Ok(i32::from(!outcome.correct()))
        }
        // Every run in a process of its own, as the driver makes them: a
        // workload's peak RSS must not inherit the heap of the one before.
        ["all"] => {
            // Validates the flags once, before the first child starts.
            parsed.config(Workload::ALL[0])?;
            let exe = std::env::current_exe().map_err(|e| e.to_string())?;
            let mut status = 0;
            for workload in Workload::ALL {
                for trace in ["0", "1"] {
                    let mut child = std::process::Command::new(&exe);
                    child.args(["run", workload.name(), "--trace", trace]);
                    for (key, value) in parsed.flags.iter().filter(|(k, _)| *k != "trace") {
                        child.arg(format!("--{key}"));
                        if !value.is_empty() {
                            child.arg(value);
                        }
                    }
                    let ran = child.status().map_err(|e| e.to_string())?;
                    if !ran.success() {
                        eprintln!("{} (--trace {trace}) exited with {ran}", workload.name());
                        status = 1;
                    }
                }
            }
            Ok(status)
        }
        ["compare", a, b] => {
            let rows = compare::compare(a.as_ref(), b.as_ref())?;
            let (table, status) = compare::render(&rows);
            print!("{table}");
            Ok(status)
        }
        _ => Err(USAGE.to_string()),
    }
}

/// Runs the command line; returns the process exit status.
pub fn run(args: &[String]) -> i32 {
    match dispatch(args) {
        Ok(status) => status,
        Err(message) => {
            eprintln!("{message}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn contract_form_parses() {
        let a = parse_args(&args(&[
            "--workload",
            "pr_zeta",
            "--seed",
            "7",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ]))
        .unwrap();
        let cfg = a.config(Workload::PrZeta).unwrap();
        assert_eq!((cfg.seed, cfg.trace), (7, true));
        assert_eq!(cfg.limit, Limit::Seconds(2.5));
        assert_eq!(cfg.scale, Scale::STD);
    }

    #[test]
    fn run_form_takes_switches() {
        let a = parse_args(&args(&[
            "run", "ingest", "--trace", "--quick", "--units", "2",
        ]))
        .unwrap();
        assert_eq!(a.positional, ["run", "ingest"]);
        let cfg = a.config(Workload::Ingest).unwrap();
        assert!(cfg.trace);
        assert_eq!((cfg.scale, cfg.limit), (Scale::QUICK, Limit::Units(2)));
        let defaults = parse_args(&args(&["run", "ingest"])).unwrap();
        assert_eq!(
            defaults.config(Workload::Ingest).unwrap().limit,
            Limit::Units(8)
        );
    }

    #[test]
    fn bad_input_is_refused() {
        for bad in [
            vec!["run", "nope"],
            vec!["run", "ingest", "--seconds", "0"],
            vec!["run", "ingest", "--seconds", "1", "--units", "1"],
            vec!["run", "ingest", "--bogus", "1"],
            vec!["run", "ingest", "--seed"],
            vec!["--workload", "ingest", "--trace", "2"],
            vec!["compare", "only-one"],
            vec![],
        ] {
            assert_eq!(run(&args(&bad)), 2, "{bad:?}");
        }
    }
}
