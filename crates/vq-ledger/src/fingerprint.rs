//! The machine and build a number came from. Rankings flip across CPUs
//! ("Bang for the Buck", arXiv 2505.07621), so every result file starts
//! with this and `compare` refuses to read across different ones.

use serde_json::Value;
use std::process::Command;

/// How the binary was built; `run.sh` exports it.
pub const BUILD_ROUTE_ENV: &str = "VQ_LEDGER_BUILD_ROUTE";

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn threads_per_core() -> Option<u64> {
    let siblings =
        std::fs::read_to_string("/sys/devices/system/cpu/cpu0/topology/thread_siblings_list")
            .ok()?;
    // "0" or "0,64" or "0-1".
    let mut count = 0;
    for part in siblings.trim().split(',') {
        count += match part.split_once('-') {
            Some((lo, hi)) => {
                hi.parse::<u64>()
                    .ok()?
                    .checked_sub(lo.parse::<u64>().ok()?)?
                    + 1
            }
            None => 1,
        };
    }
    Some(count)
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find_map(|line| line.strip_prefix("model name"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
}

/// Fields two result files must share to be comparable.
pub const IDENTITY: [&str; 7] = [
    "cpu_model",
    "cores",
    "nproc",
    "simd_tier",
    "force_scalar",
    "build_route",
    "rustc",
];

pub fn collect() -> Value {
    let text = |found: Option<String>| Value::from(found.unwrap_or_else(|| "unknown".into()));
    let commit = command_line("git", &["rev-parse", "HEAD"]);
    let force_scalar = std::env::var("VQ_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0");
    let build_route = std::env::var(BUILD_ROUTE_ENV).unwrap_or_else(|_| "cargo".into());
    crate::report::object([
        ("commit", text(commit)),
        ("rustc", text(command_line("rustc", &["-V"]))),
        ("cpu_model", text(cpu_model())),
        ("cores", Value::from(vq_hpc::NodeTopology::detect().cores)),
        ("threads_per_core", Value::from(threads_per_core())),
        (
            "nproc",
            Value::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("simd_tier", Value::from(vq_core::simd::backend())),
        ("force_scalar", Value::from(force_scalar)),
        ("build_route", Value::from(build_route)),
    ])
}

/// The identity fields on which `a` and `b` differ.
pub fn mismatches(a: &Value, b: &Value) -> Vec<String> {
    IDENTITY
        .iter()
        .filter(|key| a.get(**key) != b.get(**key))
        .map(|key| format!("{key}: {} vs {}", a[*key], b[*key]))
        .collect()
}
