//! `ledger`: the repo's one benchmark. See `README.md` beside this crate
//! for the metric glossary, the workloads and how the numbers interact.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
//! ledger --workload <name> --seed <n> --setup-only [--smoke]
//! ledger set    --out <file> [--runs <r>] [--seed <n>] [--seconds <s>] [--smoke]
//! ledger traced --out <dir>  [--seed <n>] [--smoke]
//! ledger compare <a.json> <b.json> [--allow-fingerprint-mismatch]
//! ```
//!
//! The first form is what `BENCHMARK.json` runs: one workload in this
//! process, every metric printed by name, and as the last line of output
//! one JSON object for the driver. It runs the second form in child
//! processes for all but the last of the workload's set-ups. `set` and
//! `traced` run the first form once per workload in child processes (so
//! `peak_rss_mb` is per workload) and gather the results under one machine
//! fingerprint.

mod compare;
mod fingerprint;
mod inputs;
mod ladder;
mod metrics;
mod quiet;
mod report;
mod run;
mod spec;
mod stack;
mod stats;
#[cfg(test)]
mod tests;

use serde_json::{Map, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Seconds each run measures unless told otherwise (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;
/// What `--smoke` measures for: with the tenth-size data, a whole
/// four-workload set stays under twenty seconds.
const SMOKE_SECONDS: f64 = 1.0;

struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{flag}: cannot read `{text}`")),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn seconds(&self) -> Result<f64, String> {
        let default = if self.has("--smoke") {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        };
        let seconds: f64 = self.parsed("--seconds", default)?;
        if seconds > 0.0 && seconds.is_finite() {
            Ok(seconds)
        } else {
            Err(format!("--seconds must be positive, got {seconds}"))
        }
    }
}

/// Where a run leaves files nobody asked for by name (spans of a traced
/// contract run): under the build directory, which is never committed.
fn scratch_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("vq-ledger")
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).expect("a Value always serializes");
    write_text(path, &(text + "\n"))
}

fn read_text(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}

fn write_text(path: &Path, text: &str) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Value, String> {
    serde_json::from_str(&read_text(path)?).map_err(|e| format!("{}: {e}", path.display()))
}

fn sized(args: &Args, name: &str) -> Result<spec::Spec, String> {
    let spec = spec::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = spec::SPECS.iter().map(|s| s.name).collect();
        format!(
            "unknown workload `{name}`; the workloads are {}",
            known.join(", ")
        )
    })?;
    Ok(if args.has("--smoke") {
        spec.smoke()
    } else {
        spec
    })
}

/// One set-up of `workload` in a process of its own.
fn setup_child(args: &Args, workload: &str, seed: u64) -> Result<run::SetupCost, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate the ledger binary: {e}"))?;
    let mut command = Command::new(exe);
    command.args(["--workload", workload, "--seed", &seed.to_string()]);
    command.arg("--setup-only");
    if args.has("--smoke") {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("start a {workload} set-up: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text.lines().last().unwrap_or_default();
    let cost: Value = serde_json::from_str(line).map_err(|e| {
        let stderr = String::from_utf8_lossy(&output.stderr);
        format!("a {workload} set-up ended with {}: {e}: {stderr}", output.status)
    })?;
    let number = |key: &str| {
        cost[key]
            .as_f64()
            .ok_or_else(|| format!("a {workload} set-up did not report {key}"))
    };
    Ok(run::SetupCost {
        setup_s: number("setup_s")?,
        insert_pts_per_s: number("insert_pts_per_s")?,
        ready_s: number("ready_s")?,
    })
}

/// One workload in this process, as `BENCHMARK.json` runs it.
fn run_contract(args: &Args) -> Result<bool, String> {
    let name = args
        .value("--workload")
        .ok_or("--workload <name> is required")?;
    let spec = sized(args, name)?;
    let seed: u64 = args.parsed("--seed", 1)?;
    if args.has("--setup-only") {
        let cost = run::set_up_only(&spec, seed).map_err(|e| format!("{name}: {e}"))?;
        let line = report::object([
            ("setup_s", Value::from(cost.setup_s)),
            ("insert_pts_per_s", Value::from(cost.insert_pts_per_s)),
            ("ready_s", Value::from(cost.ready_s)),
        ]);
        println!("{line}");
        return Ok(true);
    }
    let seconds = args.seconds()?;
    let out = args.value("--out").map(PathBuf::from);
    println!("{name}: {}", spec.why);
    match args.parsed::<u8>("--trace", 0)? {
        0 => {
            let earlier = (1..spec::SETUP_REPEATS)
                .map(|_| setup_child(args, name, seed))
                .collect::<Result<Vec<_>, _>>()?;
            let quiet = quiet::QuietLog::open(&scratch_dir());
            let result = run::run(&spec, seed, seconds, &earlier, Some(&quiet))
                .map_err(|e| format!("{name}: {e}"))?;
            report::print_run(&result);
            if let Some(dir) = &out {
                write_json(
                    &dir.join(format!("run-{name}-seed{seed}.json")),
                    &report::run_object(&result),
                )?;
            }
            let declared = report::contract_end_to_end(&result)?;
            println!(
                "{}",
                report::contract_line(
                    result.correct(),
                    result.attempted(),
                    result.failed(),
                    &declared
                )
            );
            Ok(result.correct())
        }
        1 => {
            let traced = ladder::run(&spec, seed).map_err(|e| format!("{name}: {e}"))?;
            println!("== {} traced (seed {seed})", traced.workload);
            report::print_metrics("per layer", &traced.layers);
            report::print_metrics("shares of the operation", &traced.shares);
            report::print_checks(&traced.checks);
            let dir = out.unwrap_or_else(scratch_dir);
            let spans_path = dir.join(format!("spans-{name}.json"));
            write_text(&spans_path, &report::spans_text(&traced.spans))?;
            write_json(
                &dir.join(format!("traced-{name}.json")),
                &report::traced_object(&traced),
            )?;
            println!(
                "{} spans written to {}",
                traced.spans.len(),
                spans_path.display()
            );
            let declared = report::contract_per_layer(&traced)?;
            println!(
                "{}",
                report::contract_line(traced.correct(), traced.attempted, traced.failed, &declared)
            );
            Ok(traced.correct())
        }
        other => Err(format!("--trace takes 0 or 1, got {other}")),
    }
}

/// Run this binary again for one workload and wait for it.
fn child(args: &Args, workload: &str, seed: u64, trace: u8, out: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate the ledger binary: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--trace",
            &trace.to_string(),
        ])
        .args(["--seconds", &args.seconds()?.to_string()])
        .arg("--out")
        .arg(out);
    if args.has("--smoke") {
        command.arg("--smoke");
    }
    let status = command
        .status()
        .map_err(|e| format!("start the {workload} run: {e}"))?;
    Ok(status.success())
}

fn header(kind: &str, args: &Args) -> Result<Map<String, Value>, String> {
    let sizes: Map<String, Value> = spec::SPECS
        .iter()
        .map(|s| {
            let s = if args.has("--smoke") { s.smoke() } else { *s };
            let size = report::object([
                ("points", Value::from(s.points)),
                ("dim", Value::from(s.dim)),
                ("batch", Value::from(s.batch)),
                ("workers", Value::from(s.workers)),
                ("shards", Value::from(s.shards)),
                ("recall_queries", Value::from(s.recall_queries)),
                ("load_edge", Value::from(s.load_edge.name())),
                ("search_edge", Value::from(s.search_edge.name())),
            ]);
            (s.name.to_string(), size)
        })
        .collect();
    let counts = report::object([
        ("setup_repeats", Value::from(spec::SETUP_REPEATS)),
        ("query_pool", Value::from(spec::QUERY_POOL)),
        (
            "consistency_queries",
            Value::from(spec::CONSISTENCY_QUERIES),
        ),
        ("churn_tick_ms", Value::from(spec::CHURN_TICK_MS)),
        (
            "churn_updates_per_tick",
            Value::from(spec::CHURN_UPDATES_PER_TICK),
        ),
        (
            "churn_deletes_per_tick",
            Value::from(spec::CHURN_DELETES_PER_TICK),
        ),
        ("traced_search_prefix", Value::from(ladder::SEARCH_PREFIX)),
        ("traced_ingest_prefix", Value::from(ladder::INGEST_PREFIX)),
        ("traced_churn_ticks", Value::from(ladder::CHURN_TICKS)),
    ]);
    let mut object = Map::new();
    object.insert("kind".into(), Value::from(kind));
    object.insert("fingerprint".into(), fingerprint::collect());
    object.insert("smoke".into(), Value::from(args.has("--smoke")));
    object.insert("seconds".into(), Value::from(args.seconds()?));
    object.insert("workloads".into(), Value::Object(sizes));
    object.insert("op_counts".into(), counts);
    Ok(object)
}

/// `ledger set`: every workload `--runs` times, one result file.
fn run_set(args: &Args) -> Result<bool, String> {
    let out = PathBuf::from(args.value("--out").ok_or("set needs --out <file>")?);
    let runs: u64 = args.parsed("--runs", 3)?;
    let first_seed: u64 = args.parsed("--seed", 1)?;
    let work = out.with_extension("runs");
    let mut object = header("vq-ledger.set", args)?;
    let mut collected = Vec::new();
    let mut all_correct = true;
    for spec in &spec::SPECS {
        for seed in first_seed..first_seed + runs {
            all_correct &= child(args, spec.name, seed, 0, &work)?;
            let path = work.join(format!("run-{}-seed{seed}.json", spec.name));
            collected.push(read_json(&path)?);
        }
    }
    object.insert("runs".into(), Value::Array(collected));
    write_json(&out, &Value::Object(object))?;
    let _ = std::fs::remove_dir_all(&work);
    println!("set written to {}", out.display());
    Ok(all_correct)
}

/// `ledger traced`: the traced run of every workload, one layer table
/// and one span file.
fn run_traced(args: &Args) -> Result<bool, String> {
    let out = PathBuf::from(args.value("--out").ok_or("traced needs --out <dir>")?);
    let seed: u64 = args.parsed("--seed", 1)?;
    let mut table = header("vq-ledger.traced", args)?;
    let mut layers = Map::new();
    // Each workload's span file is JSON text already; the merged file is
    // those texts under their workload's name.
    let mut spans = Vec::new();
    let mut all_correct = true;
    for spec in &spec::SPECS {
        all_correct &= child(args, spec.name, seed, 1, &out)?;
        let traced = out.join(format!("traced-{}.json", spec.name));
        layers.insert(spec.name.to_string(), read_json(&traced)?);
        let own = out.join(format!("spans-{}.json", spec.name));
        spans.push(format!("\"{}\": {}", spec.name, read_text(&own)?));
        let _ = std::fs::remove_file(&traced);
        let _ = std::fs::remove_file(&own);
    }
    table.insert("traced".into(), Value::Object(layers));
    write_json(&out.join("traced.json"), &Value::Object(table))?;
    let path = out.join("spans.json");
    write_text(&path, &format!("{{\n{}\n}}\n", spans.join(",\n")))?;
    println!(
        "layer table written to {}, spans to {}",
        out.join("traced.json").display(),
        path.display()
    );
    Ok(all_correct)
}

fn run_compare(args: &Args) -> Result<bool, String> {
    let files: Vec<&String> = args
        .0
        .iter()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .collect();
    let [a, b] = files[..] else {
        return Err("compare takes two result files".into());
    };
    let allow = args.has("--allow-fingerprint-mismatch");
    let comparison = compare::compare(&read_json(Path::new(a))?, &read_json(Path::new(b))?);
    println!("a = {a}\nb = {b}");
    compare::print(&comparison);
    if comparison.unresolved() > 0 {
        println!("unresolved rows are wider than their bound run to run: rerun on a quieter machine, or with more --runs");
    }
    if !comparison.fingerprint_mismatches.is_empty() && !allow {
        println!("the two files come from different machines or builds; pass --allow-fingerprint-mismatch to read across them");
    }
    Ok(!comparison.failed(allow))
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let outcome = match args.0.first().map(String::as_str) {
        Some("set") => run_set(&args),
        Some("traced") => run_traced(&args),
        Some("compare") => run_compare(&args),
        _ => run_contract(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // The numbers were printed; a failed check is a failed run.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}
