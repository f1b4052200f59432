//! `gbench compare <a> <b>`: two sets of results, metric by metric.
//!
//! A set is a directory (searched recursively) of result files written by
//! `--out`; several files of one workload are several samples. For every
//! workload and metric the report gives both medians, the ratio with its
//! base, the bound and a verdict: `ok`, `regressed` (b's median is worse
//! than a's by more than the bound) or `unresolved` (either side's
//! quartile spread is wider than the bound, so the medians cannot be told
//! apart). Layer metrics have no bound and are listed as `info`; a traced
//! run's metric that is not applicable to a workload (`null` on both
//! sides) is left out.

use crate::json::{self, Json};
use crate::report::{Better, MetricDef, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
    Info,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: f64,
    pub b: f64,
    /// Quartile spread of each side as a share of its median.
    pub spread_a: f64,
    pub spread_b: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// `(workload, traced)` → metric → samples.
type Samples = BTreeMap<(String, bool), BTreeMap<String, Vec<f64>>>;

fn collect(dir: &Path, into: &mut Samples) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect(&path, into)?;
        } else if path.extension().is_some_and(|e| e == "json") {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let Ok(doc) = json::parse(&text) else {
                continue;
            };
            if doc.get("schema").and_then(Json::as_str) != Some("gbench-result-v1") {
                continue;
            }
            let workload = doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{}: no workload", path.display()))?;
            let traced = doc.get("traced") == Some(&Json::Bool(true));
            let metrics = doc
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("{}: no metrics", path.display()))?;
            let slot = into.entry((workload.to_string(), traced)).or_default();
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    slot.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    Ok(())
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` gives them (one sample: all equal).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n < 2 {
        let v = x.first().copied().unwrap_or(0.0);
        return [v, v, v];
    }
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    })
}

/// Quartile spread as a share of the median; around a median of 0 any
/// spread is unbounded and none is 0.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q3 == q1 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

fn judge(workload: &str, def: &'static MetricDef, a: &[f64], b: &[f64]) -> Row {
    let (ma, mb) = (quartiles(a)[1], quartiles(b)[1]);
    let (spread_a, spread_b) = (spread(a), spread(b));
    let worse_by = match def.better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    // The bound is a share of the base median, so from a base of 0 (what
    // `pr_resident` reads) any worsening is a regression.
    let verdict = if def.bound == 0.0 {
        Verdict::Info
    } else if spread_a > def.bound || spread_b > def.bound {
        Verdict::Unresolved
    } else if worse_by > def.bound * ma.abs() {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Row {
        workload: workload.to_string(),
        metric: def.name,
        unit: def.unit,
        a: ma,
        b: mb,
        spread_a,
        spread_b,
        bound: def.bound,
        verdict,
    }
}

/// Compares set `b` against base `a`.
pub fn compare(a: &Path, b: &Path) -> Result<Vec<Row>, String> {
    let (mut sa, mut sb) = (Samples::new(), Samples::new());
    collect(a, &mut sa)?;
    collect(b, &mut sb)?;
    if sa.is_empty() || sb.is_empty() {
        return Err("a set holds no gbench result files".into());
    }
    let mut rows = Vec::new();
    for ((workload, traced), metrics_a) in &sa {
        let Some(metrics_b) = sb.get(&(workload.clone(), *traced)) else {
            return Err(format!("{workload}: present in {} only", a.display()));
        };
        let defs = if *traced { PER_LAYER } else { END_TO_END };
        for def in defs {
            match (metrics_a.get(def.name), metrics_b.get(def.name)) {
                (Some(va), Some(vb)) => rows.push(judge(workload, def, va, vb)),
                // Not applicable to this workload on either side.
                (None, None) if *traced => {}
                _ => return Err(format!("{workload}: {} missing from a set", def.name)),
            }
        }
    }
    Ok(rows)
}

/// The table, and the exit status it stands for: 0 when every bounded
/// metric is `ok`, 1 when one regressed, 2 when none regressed but one is
/// unresolved.
pub fn render(rows: &[Row]) -> (String, i32) {
    let mut out = format!(
        "{:<12} {:<34} {:>14} {:>14} {:>9} {:>8} {:>8} {:>6}  {}\n",
        "workload", "metric", "a (base)", "b", "b/a", "iqr a", "iqr b", "bound", "verdict"
    );
    for r in rows {
        let bound = if r.verdict == Verdict::Info {
            "-".to_string()
        } else {
            format!("{:.0}%", r.bound * 100.0)
        };
        let ratio = if r.a == 0.0 {
            "-".to_string()
        } else {
            format!("{:.4}", r.b / r.a)
        };
        out.push_str(&format!(
            "{:<12} {:<34} {:>14.4} {:>14.4} {:>9} {:>7.1}% {:>7.1}% {:>6}  {} [{}]\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            ratio,
            r.spread_a * 100.0,
            r.spread_b * 100.0,
            bound,
            r.verdict.as_str(),
            r.unit,
        ));
    }
    let has = |v| rows.iter().any(|r| r.verdict == v);
    let status = if has(Verdict::Regressed) {
        1
    } else if has(Verdict::Unresolved) {
        2
    } else {
        0
    };
    (out, status)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Outcome;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    fn write_set(dir: &Path, medges: &[f64]) {
        std::fs::create_dir_all(dir).unwrap();
        for (i, m) in medges.iter().enumerate() {
            let mut o = Outcome::new("pr_stream", 1, "quick", false);
            o.attempted = 1;
            for d in END_TO_END {
                o.set(d.name, 10.0);
            }
            o.set("medges_per_s", *m);
            std::fs::write(dir.join(format!("run{i}.json")), o.to_json()).unwrap();
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let root = crate::data::WorkDir::new("compare-test").unwrap();
        let (a, same, slow, noisy) = (
            root.path().join("a"),
            root.path().join("same"),
            root.path().join("slow"),
            root.path().join("noisy"),
        );
        write_set(&a, &[100.0, 101.0, 99.0, 100.0]);
        write_set(&same, &[98.0, 99.0, 100.0, 99.0]);
        write_set(&slow, &[50.0, 51.0, 50.0, 49.0]);
        write_set(&noisy, &[60.0, 100.0, 140.0, 100.0]);
        let verdict_of = |b: &Path| {
            let rows = compare(&a, b).unwrap();
            let row = rows.iter().find(|r| r.metric == "medges_per_s").unwrap();
            (row.verdict, render(&rows).1)
        };
        assert_eq!(verdict_of(&same), (Verdict::Ok, 0));
        assert_eq!(verdict_of(&slow), (Verdict::Regressed, 1));
        assert_eq!(verdict_of(&noisy), (Verdict::Unresolved, 2));
        assert!(compare(&a, &root.path().join("missing")).is_err());
    }

    #[test]
    fn a_base_of_zero_is_judged_without_a_ratio() {
        let def = PER_LAYER
            .iter()
            .find(|d| d.name == "read_bytes_per_edge")
            .unwrap();
        let verdict = |a: &[f64], b: &[f64]| judge("pr_resident", def, a, b).verdict;
        assert_eq!(verdict(&[0.0, 0.0], &[0.0, 0.0]), Verdict::Ok);
        assert_eq!(verdict(&[0.0, 0.0], &[0.5, 0.5]), Verdict::Regressed);
        assert_eq!(verdict(&[0.5, 0.5], &[0.0, 0.0]), Verdict::Ok);
        assert_eq!(verdict(&[0.0, 0.0], &[0.0, 1.0, 2.0]), Verdict::Unresolved);
        assert!(render(&[judge("pr_resident", def, &[0.0], &[0.0])]).1 == 0);
    }

    #[test]
    fn not_applicable_layer_metrics_are_left_out() {
        let root = crate::data::WorkDir::new("compare-na-test").unwrap();
        let mut o = Outcome::new("ingest", 1, "quick", true);
        o.attempted = 1;
        o.set("tile.stream_pwrites", 12.0);
        for side in ["a", "b"] {
            let dir = root.path().join(side);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("ingest.traced.json"), o.to_json()).unwrap();
        }
        let rows = compare(&root.path().join("a"), &root.path().join("b")).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            (rows[0].metric, rows[0].verdict),
            ("tile.stream_pwrites", Verdict::Info)
        );
        // Applicable on one side only: the sets do not match.
        o.set("sweep_qps", 3.0);
        std::fs::write(root.path().join("b/ingest.traced.json"), o.to_json()).unwrap();
        assert!(compare(&root.path().join("a"), &root.path().join("b")).is_err());
    }
}
