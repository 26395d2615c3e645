//! Turning a run into text: the table a person reads, the one-line JSON
//! the benchmark driver reads, and the objects result files are made of.

use crate::ladder::{Span, Traced};
use crate::metrics;
use crate::run::{Check, Metric, RunResult};
use serde_json::Value;
use std::fmt::Write as _;

/// A JSON object from `(key, value)` pairs.
pub fn object<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn metrics_object(list: &[Metric]) -> Value {
    // NaN (a count the program no longer exposes) is written as null.
    let entry = |m: &Metric| {
        object([
            ("value", Value::from(m.value)),
            ("unit", Value::from(m.unit)),
        ])
    };
    Value::Object(list.iter().map(|m| (m.name.clone(), entry(m))).collect())
}

fn checks_value(checks: &[Check]) -> Value {
    let entry = |c: &Check| {
        object([
            ("check", Value::from(c.name)),
            ("passed", Value::from(c.passed)),
            ("detail", Value::from(c.detail.clone())),
        ])
    };
    Value::Array(checks.iter().map(entry).collect())
}

/// The driver's contract: one object with exactly `correct`, `attempted`,
/// `failed` and `metrics`, the metrics being exactly the declared ones.
pub fn contract_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let line = object([
        ("correct", Value::from(correct)),
        ("attempted", Value::from(attempted.max(1))),
        ("failed", Value::from(failed)),
        ("metrics", metrics_object(metrics)),
    ]);
    serde_json::to_string(&line).expect("a Value always serializes")
}

/// The measured metrics called `names`, in that order; an error names
/// the first one `who` did not measure.
fn declared<'n>(
    names: impl Iterator<Item = &'n str>,
    measured: &[Metric],
    who: &str,
) -> Result<Vec<Metric>, String> {
    names
        .map(|name| {
            let found = measured.iter().find(|m| m.name == name).cloned();
            found.ok_or_else(|| format!("{who} did not report {name}"))
        })
        .collect()
}

/// The end-to-end metrics every workload reports, in declaration order.
pub fn contract_end_to_end(result: &RunResult) -> Result<Vec<Metric>, String> {
    let every = metrics::END_TO_END.iter().filter(|def| def.every_workload);
    declared(every.map(|def| def.name), &result.metrics, result.workload)
}

/// The per-layer metrics every workload measures, in declaration order.
pub fn contract_per_layer(traced: &Traced) -> Result<Vec<Metric>, String> {
    let every = metrics::PER_LAYER.iter().filter(|def| def.every_workload);
    declared(every.map(|def| def.name), &traced.layers, traced.workload)
}

/// Everything one run observed, as it goes into a result file.
pub fn run_object(result: &RunResult) -> Value {
    let phase = |p: &crate::run::PhaseOps| {
        object([
            ("phase", Value::from(p.phase)),
            ("attempted", Value::from(p.attempted)),
            ("ok", Value::from(p.attempted - p.failed)),
            ("failed", Value::from(p.failed)),
        ])
    };
    object([
        ("workload", Value::from(result.workload)),
        ("seed", Value::from(result.seed)),
        ("seconds", Value::from(result.seconds)),
        ("points", Value::from(result.points)),
        ("correct", Value::from(result.correct())),
        ("metrics", metrics_object(&result.metrics)),
        ("notes", metrics_object(&result.notes)),
        (
            "phases",
            Value::Array(result.phases.iter().map(phase).collect()),
        ),
        ("checks", checks_value(&result.checks)),
    ])
}

/// Everything one traced run measured, spans apart.
pub fn traced_object(traced: &Traced) -> Value {
    object([
        ("workload", Value::from(traced.workload)),
        ("seed", Value::from(traced.seed)),
        ("correct", Value::from(traced.correct())),
        ("attempted", Value::from(traced.attempted)),
        ("failed", Value::from(traced.failed)),
        ("layers", metrics_object(&traced.layers)),
        ("shares", metrics_object(&traced.shares)),
        ("checks", checks_value(&traced.checks)),
    ])
}

/// Spans as JSON text: a name table, then one `[name, op, start_us,
/// dur_us, parent]` row per line — compact, and diffable.
pub fn spans_text(spans: &[Span]) -> String {
    let mut names: Vec<&'static str> = Vec::new();
    let mut rows = String::new();
    for (i, s) in spans.iter().enumerate() {
        let name = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
            names.push(s.name);
            names.len() - 1
        });
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let end = if i + 1 < spans.len() { ",\n" } else { "\n" };
        // Microsecond spans, to the nanosecond.
        write!(
            rows,
            "[{name},{},{:.3},{:.3},{parent}]{end}",
            s.op, s.start_us, s.dur_us
        )
        .expect("writing to a String cannot fail");
    }
    format!(
        "{{\"columns\": [\"name\",\"op\",\"start_us\",\"dur_us\",\"parent\"], \"names\": {}, \"spans\": [\n{rows}]}}",
        Value::from(names)
    )
}

pub fn print_metrics(title: &str, list: &[Metric]) {
    println!("{title}");
    for m in list {
        println!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

pub fn print_run(result: &RunResult) {
    println!(
        "== {} (seed {}, {} points, {} s measured)",
        result.workload, result.seed, result.points, result.seconds
    );
    print_metrics("end to end", &result.metrics);
    print_metrics("notes", &result.notes);
    println!("operations");
    for p in &result.phases {
        println!(
            "  {:<44} attempted {:>8}  ok {:>8}  failed {:>4}",
            p.phase,
            p.attempted,
            p.attempted - p.failed,
            p.failed
        );
    }
    print_checks(&result.checks);
}

pub fn print_checks(checks: &[Check]) {
    println!("checks");
    for c in checks {
        let mark = if c.passed { "ok" } else { "FAILED" };
        println!("  [{mark}] {:<28} {}", c.name, c.detail);
    }
}
