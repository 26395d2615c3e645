//! Waiting for a quiet machine before the measured phase.
//!
//! The sandbox is a few cores of a shared host, and for one to four
//! minutes at a time, about twice an hour, everything in it runs 15–40 %
//! slower (baseline/FINDINGS.md §4). No statistic taken inside a run sees
//! past a slump longer than the run. So before a run measures, it probes:
//! a few seconds of the workload's own searches on the stack it has just
//! set up. If that probe is well under what earlier runs in the same build
//! directory probed at, the run pauses and probes again until the machine is
//! back, or until it has waited as long as it may. Then it measures, and
//! reports what it measured, slump or not.
//!
//! The log is one line per run, `<workload> <probe searches/s> <seconds
//! waited>`, under the build directory: the benchmark driver's checkout of
//! one commit has its own, and a rebuilt binary starts a fresh one.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A probe under this share of the reference means the machine is busy.
/// Quiet probes of one workload sit within ±5 % of each other.
const QUIET_SHARE: f64 = 0.90;
/// Sleep between a slow probe and the next.
const PAUSE: Duration = Duration::from_secs(2);
/// Longest one run waits: with its set-ups, its measured phase and its
/// checks it must still end inside the driver's 180 seconds.
const MAX_WAIT: Duration = Duration::from_secs(100);
/// Longest all runs sharing one log wait together, so that a machine that
/// never comes back costs a bounded share of the driver's time.
const POOL: Duration = Duration::from_secs(400);

pub struct QuietLog {
    path: PathBuf,
}

/// What a run's wait came to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Settled {
    /// Searches per second of the last probe, the one the run went ahead on.
    pub probe_qps: f64,
    pub waited_s: f64,
}

impl QuietLog {
    /// The log in `dir`; one left by an older build of the ledger is
    /// dropped, because its probes say nothing about this one's speed.
    pub fn open(dir: &Path) -> QuietLog {
        let path = dir.join("quiet.log");
        let modified = |p: &Path| std::fs::metadata(p).and_then(|m| m.modified()).ok();
        let binary = std::env::current_exe().ok().and_then(|exe| modified(&exe));
        if matches!((modified(&path), binary), (Some(log), Some(exe)) if log < exe) {
            let _ = std::fs::remove_file(&path);
        }
        QuietLog { path }
    }

    /// `(workload, probe, waited)` of every run logged so far.
    fn entries(&self) -> Vec<(String, f64, f64)> {
        let text = std::fs::read_to_string(&self.path).unwrap_or_default();
        text.lines()
            .filter_map(|line| {
                let mut fields = line.split_whitespace();
                let workload = fields.next()?.to_string();
                let probe = fields.next()?.parse().ok()?;
                let waited = fields.next()?.parse().ok()?;
                Some((workload, probe, waited))
            })
            .collect()
    }

    fn record(&self, workload: &str, settled: Settled) {
        let mut text = std::fs::read_to_string(&self.path).unwrap_or_default();
        text += &format!("{workload} {} {}\n", settled.probe_qps, settled.waited_s);
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        // A log that cannot be written means no waiting, not a failed run.
        let _ = std::fs::write(&self.path, text);
    }

    /// Probe, and while the probe is slow and the wait allowance lasts,
    /// pause and probe again. `probe` returns searches per second.
    pub fn settle(&self, workload: &str, probe: &mut dyn FnMut() -> f64) -> Settled {
        let entries = self.entries();
        let settled = settle(&entries, workload, probe, PAUSE, MAX_WAIT);
        self.record(workload, settled);
        settled
    }
}

fn settle(
    entries: &[(String, f64, f64)],
    workload: &str,
    probe: &mut dyn FnMut() -> f64,
    pause: Duration,
    max_wait: Duration,
) -> Settled {
    let earlier: Vec<f64> = entries
        .iter()
        .filter(|(w, ..)| w == workload)
        .map(|&(_, probe, _)| probe)
        .collect();
    let spent: f64 = entries.iter().map(|&(.., waited)| waited).sum();
    let allowance = max_wait.min(POOL.saturating_sub(Duration::from_secs_f64(spent)));
    let mut probe_qps = probe();
    let began = Instant::now();
    if !earlier.is_empty() {
        // The median: a minority of runs that gave up waiting in a slump
        // does not move it, and one lucky probe does not raise the bar.
        let reference = crate::stats::median(&earlier);
        while probe_qps < QUIET_SHARE * reference && began.elapsed() + pause < allowance {
            std::thread::sleep(pause);
            probe_qps = probe();
        }
    }
    Settled {
        probe_qps,
        waited_s: began.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(lines: &[(&str, f64, f64)]) -> Vec<(String, f64, f64)> {
        lines.iter().map(|&(w, p, s)| (w.to_string(), p, s)).collect()
    }

    /// A probe that answers from a list and counts its calls.
    fn scripted(answers: &[f64]) -> (impl FnMut() -> f64 + '_, std::rc::Rc<std::cell::Cell<usize>>) {
        let calls = std::rc::Rc::new(std::cell::Cell::new(0));
        let seen = calls.clone();
        let probe = move || {
            let i = seen.get();
            seen.set(i + 1);
            answers[i.min(answers.len() - 1)]
        };
        (probe, calls)
    }

    #[test]
    fn first_run_of_a_workload_has_nothing_to_wait_for() {
        let (mut probe, calls) = scripted(&[10.0]);
        let entries = log(&[("other", 1000.0, 0.0)]);
        let settled = settle(&entries, "mine", &mut probe, Duration::ZERO, MAX_WAIT);
        assert_eq!(calls.get(), 1);
        assert_eq!(settled.probe_qps, 10.0);
        assert!(settled.waited_s < 0.1);
    }

    #[test]
    fn a_slow_probe_waits_until_the_machine_is_back() {
        // Reference: the median of 100, 104, 60 (one run gave up in a slump).
        let entries = log(&[("w", 100.0, 0.0), ("w", 104.0, 0.0), ("w", 60.0, 100.0)]);
        let (mut probe, calls) = scripted(&[70.0, 80.0, 89.9, 91.0, 50.0]);
        let settled = settle(&entries, "w", &mut probe, Duration::ZERO, MAX_WAIT);
        assert_eq!(calls.get(), 4, "stops at the first probe within 10 % of 100");
        assert_eq!(settled.probe_qps, 91.0);
        // A quiet probe is not repeated.
        let (mut probe, calls) = scripted(&[95.0, 50.0]);
        let settled = settle(&entries, "w", &mut probe, Duration::ZERO, MAX_WAIT);
        assert_eq!(settled.probe_qps, 95.0);
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn a_spent_pool_ends_the_waiting() {
        let entries = log(&[("w", 100.0, 0.0), ("x", 5.0, POOL.as_secs_f64())]);
        let (mut probe, calls) = scripted(&[10.0]);
        let settled = settle(&entries, "w", &mut probe, Duration::from_millis(1), MAX_WAIT);
        assert_eq!(calls.get(), 1, "no allowance left: measure on the slow machine");
        assert_eq!(settled.probe_qps, 10.0);
    }

    #[test]
    fn one_run_waits_no_longer_than_its_allowance() {
        let entries = log(&[("w", 100.0, 0.0)]);
        let (mut probe, calls) = scripted(&[10.0]);
        let (pause, max_wait) = (Duration::from_millis(5), Duration::from_millis(40));
        let settled = settle(&entries, "w", &mut probe, pause, max_wait);
        assert!(calls.get() > 1 && calls.get() <= 8, "{} probes", calls.get());
        assert!(settled.waited_s < 2.0 * max_wait.as_secs_f64());
        assert_eq!(settled.probe_qps, 10.0);
    }
}
