//! `ledger compare <a.json> <b.json>`: is `b` no worse than `a`?
//!
//! One row per (workload, end-to-end metric). Each side's value is the
//! median over that side's runs; the change is judged against the
//! metric's bound, and against each side's own run-to-run spread — a row
//! whose spread is wider than its bound is *unresolved*, not *unchanged*.

use crate::fingerprint;
use crate::metrics::{self, Better, EndToEnd};
use crate::stats;
use serde_json::Value;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    /// Within the bound, but the runs of one side disagree with each other
    /// by more than the bound: nothing can be said.
    Unresolved,
    Regression,
    /// `b` no longer reports a metric `a` reported.
    Missing,
    /// `b` reports a metric `a` did not; nothing to compare against.
    New,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
            Verdict::Missing => "MISSING",
            Verdict::New => "new",
        }
    }

    pub fn fails(self) -> bool {
        matches!(self, Verdict::Regression | Verdict::Missing)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: Option<f64>,
    pub b: Option<f64>,
    /// How much worse `b` is, as a share of `a` (negative: better).
    pub worse_by: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judge one metric given each side's per-run values.
pub fn judge(def: &EndToEnd, a: &[f64], b: &[f64]) -> (f64, f64, Verdict) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let delta = match def.better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    // A bound of zero means any worsening at all, also from a base of 0.
    let worse_by = if ma != 0.0 {
        delta / ma.abs()
    } else if delta > 0.0 {
        f64::INFINITY
    } else {
        0.0
    };
    let spread = stats::spread(a).max(stats::spread(b));
    let verdict = if worse_by > def.bound {
        Verdict::Regression
    } else if spread > def.bound {
        Verdict::Unresolved
    } else if worse_by < -def.bound && def.bound > 0.0 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse_by, spread, verdict)
}

/// `workload -> metric -> values over the runs` of one result file.
fn values_by_workload(set: &Value) -> BTreeMap<String, BTreeMap<String, Vec<f64>>> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for run in set
        .get("runs")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
    {
        let Some(workload) = run.get("workload").and_then(Value::as_str) else {
            continue;
        };
        let Some(run_metrics) = run.get("metrics").and_then(Value::as_object) else {
            continue;
        };
        let by_metric = out.entry(workload.to_string()).or_default();
        for (name, entry) in run_metrics.iter() {
            if let Some(value) = entry.get("value").and_then(Value::as_f64) {
                by_metric.entry(name.clone()).or_default().push(value);
            }
        }
    }
    out
}

pub fn rows(a: &Value, b: &Value) -> Vec<Row> {
    let (va, vb) = (values_by_workload(a), values_by_workload(b));
    let workloads: std::collections::BTreeSet<&String> = va.keys().chain(vb.keys()).collect();
    let mut rows = Vec::new();
    for workload in workloads {
        for def in &metrics::END_TO_END {
            let side = |v: &BTreeMap<String, BTreeMap<String, Vec<f64>>>| {
                v.get(workload)
                    .and_then(|m| m.get(def.name))
                    .filter(|x| !x.is_empty())
                    .cloned()
            };
            let (xa, xb) = (side(&va), side(&vb));
            let (worse_by, spread, verdict) = match (&xa, &xb) {
                (Some(xa), Some(xb)) => judge(def, xa, xb),
                (Some(_), None) => (f64::NAN, 0.0, Verdict::Missing),
                (None, Some(_)) => (f64::NAN, 0.0, Verdict::New),
                // A metric this workload does not exercise is omitted.
                (None, None) => continue,
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name,
                unit: def.unit,
                a: xa.as_deref().map(stats::median),
                b: xb.as_deref().map(stats::median),
                worse_by,
                spread,
                bound: def.bound,
                verdict,
            });
        }
    }
    rows
}

pub struct Comparison {
    pub fingerprint_mismatches: Vec<String>,
    pub rows: Vec<Row>,
}

impl Comparison {
    pub fn failed(&self, allow_fingerprint_mismatch: bool) -> bool {
        (!allow_fingerprint_mismatch && !self.fingerprint_mismatches.is_empty())
            || self.rows.iter().any(|r| r.verdict.fails())
    }

    pub fn unresolved(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.verdict == Verdict::Unresolved)
            .count()
    }
}

pub fn compare(a: &Value, b: &Value) -> Comparison {
    Comparison {
        fingerprint_mismatches: fingerprint::mismatches(&a["fingerprint"], &b["fingerprint"]),
        rows: rows(a, b),
    }
}

pub fn print(comparison: &Comparison) {
    for mismatch in &comparison.fingerprint_mismatches {
        println!("fingerprint differs — {mismatch}");
    }
    println!(
        "{:<18} {:<26} {:>14} {:>14} {:>22} {:>8} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "b worse by (of a)", "spread", "bound"
    );
    let show = |x: Option<f64>| x.map_or("-".to_string(), |v| format!("{v:.4}"));
    for r in &comparison.rows {
        println!(
            "{:<18} {:<26} {:>14} {:>14} {:>21.2}% {:>7.2}% {:>6.1}%  {}",
            r.workload,
            format!("{} [{}]", r.metric, r.unit),
            show(r.a),
            show(r.b),
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.name()
        );
    }
    let count = |v: Verdict| comparison.rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} regression, {} missing, {} unresolved, {} improved, {} unchanged, {} new",
        comparison.rows.len(),
        count(Verdict::Regression),
        count(Verdict::Missing),
        count(Verdict::Unresolved),
        count(Verdict::Improved),
        count(Verdict::Unchanged),
        count(Verdict::New)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(cores: u64, runs: &[(&str, &[(&str, f64)])]) -> Value {
        let runs: Vec<String> = runs
            .iter()
            .map(|(workload, metrics)| {
                let metrics: Vec<String> = metrics
                    .iter()
                    .map(|(name, value)| {
                        format!("\"{name}\": {{\"value\": {value}, \"unit\": \"x\"}}")
                    })
                    .collect();
                format!(
                    "{{\"workload\": \"{workload}\", \"metrics\": {{{}}}}}",
                    metrics.join(", ")
                )
            })
            .collect();
        let text = format!(
            "{{\"fingerprint\": {{\"cpu_model\": \"m\", \"cores\": {cores}, \"nproc\": {cores}, \
             \"simd_tier\": \"avx2\", \"force_scalar\": false, \"build_route\": \"cargo\", \
             \"rustc\": \"r\"}}, \"runs\": [{}]}}",
            runs.join(", ")
        );
        serde_json::from_str(&text).expect("test set parses")
    }

    fn verdict_of(c: &Comparison, workload: &str, metric: &str) -> Verdict {
        c.rows
            .iter()
            .find(|r| r.workload == workload && r.metric == metric)
            .unwrap_or_else(|| panic!("no row for {workload}/{metric}"))
            .verdict
    }

    #[test]
    fn inside_and_outside_the_bound() {
        let a = set(
            2,
            &[("w", &[("search_qps", 1000.0), ("search_p50_ms", 1.0)])],
        );
        // qps 5 % lower (bound 25 %): unchanged. p50 40 % higher: regression.
        let b = set(
            2,
            &[("w", &[("search_qps", 950.0), ("search_p50_ms", 1.4)])],
        );
        let c = compare(&a, &b);
        assert_eq!(verdict_of(&c, "w", "search_qps"), Verdict::Unchanged);
        assert_eq!(verdict_of(&c, "w", "search_p50_ms"), Verdict::Regression);
        assert!(c.failed(false));
        // The other way round the p50 got 28.6 % better.
        let back = compare(&b, &a);
        assert_eq!(verdict_of(&back, "w", "search_p50_ms"), Verdict::Improved);
        assert!(!back.failed(false));
        let row = &c.rows.iter().find(|r| r.metric == "search_qps").unwrap();
        assert!((row.worse_by - 0.05).abs() < 1e-12, "qps fell by 5 % of a");
    }

    #[test]
    fn noisy_rows_are_unresolved_not_unchanged() {
        // Same medians, but side a's own runs span far more than the 25 % bound.
        let a = set(
            2,
            &[
                ("w", &[("search_qps", 700.0)]),
                ("w", &[("search_qps", 1000.0)]),
                ("w", &[("search_qps", 1300.0)]),
            ],
        );
        let b = set(
            2,
            &[
                ("w", &[("search_qps", 990.0)]),
                ("w", &[("search_qps", 1000.0)]),
                ("w", &[("search_qps", 1010.0)]),
            ],
        );
        let c = compare(&a, &b);
        assert_eq!(verdict_of(&c, "w", "search_qps"), Verdict::Unresolved);
        assert_eq!(c.unresolved(), 1);
        assert!(!c.failed(false), "unresolved is reported, not failed");
    }

    #[test]
    fn fingerprint_mismatch_fails_unless_overridden() {
        let a = set(2, &[("w", &[("search_qps", 1000.0)])]);
        let b = set(64, &[("w", &[("search_qps", 1000.0)])]);
        let c = compare(&a, &b);
        assert_eq!(c.fingerprint_mismatches.len(), 2, "cores and nproc differ");
        assert!(c.failed(false));
        assert!(!c.failed(true));
    }

    #[test]
    fn missing_metric_fails_new_metric_does_not() {
        let a = set(2, &[("w", &[("search_qps", 1000.0), ("recover_s", 2.0)])]);
        let b = set(
            2,
            &[("w", &[("search_qps", 1000.0), ("upsert_p99_ms", 9.0)])],
        );
        let c = compare(&a, &b);
        assert_eq!(verdict_of(&c, "w", "recover_s"), Verdict::Missing);
        assert_eq!(verdict_of(&c, "w", "upsert_p99_ms"), Verdict::New);
        assert!(c.failed(false));
        // Metrics neither side reports produce no row at all.
        assert!(c.rows.iter().all(|r| r.metric != "index_build_s"));
    }

    #[test]
    fn any_increase_in_error_rate_is_a_regression() {
        let a = set(2, &[("w", &[("error_rate", 0.0)])]);
        let b = set(2, &[("w", &[("error_rate", 0.001)])]);
        assert_eq!(
            verdict_of(&compare(&a, &b), "w", "error_rate"),
            Verdict::Regression
        );
        assert_eq!(
            verdict_of(&compare(&a, &a), "w", "error_rate"),
            Verdict::Unchanged
        );
    }
}
