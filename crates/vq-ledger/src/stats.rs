//! Order statistics for latency samples and run-to-run spreads.

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Samples a fifth of a phase needs before its own p99 is worth taking.
pub const MIN_P99_SAMPLES: usize = 1_000;

/// Which rule produced a p99.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum P99Rule {
    /// Median of the p99s of the five consecutive fifths of the phase.
    PerFifth,
    /// One p99 over the whole phase.
    WholePhase,
    /// Fewer than [`MIN_P99_SAMPLES`] samples: the value is the maximum.
    TooFewSamples,
}

impl P99Rule {
    pub fn name(self) -> &'static str {
        match self {
            P99Rule::PerFifth => "median-of-fifths",
            P99Rule::WholePhase => "whole-phase",
            P99Rule::TooFewSamples => "too-few-samples",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub samples: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub rule: P99Rule,
}

fn p99_of(samples_ms: &[f64]) -> f64 {
    let mut sorted = samples_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 99.0)
}

/// Median and p99 of per-operation latencies given in arrival order.
///
/// A tail percentile of one long phase moves with whichever stall the
/// sandbox happened to have; the median of five per-fifth p99s does not,
/// so it is used whenever every fifth has enough samples behind it.
pub fn latency(samples_ms: &[f64]) -> Latency {
    assert!(!samples_ms.is_empty(), "no latency samples");
    let n = samples_ms.len();
    let (p99_ms, rule) = if n / 5 >= MIN_P99_SAMPLES {
        let fifth = n / 5;
        let p99s: Vec<f64> = (0..5)
            .map(|i| {
                let end = if i == 4 { n } else { (i + 1) * fifth };
                p99_of(&samples_ms[i * fifth..end])
            })
            .collect();
        (median(&p99s), P99Rule::PerFifth)
    } else if n >= MIN_P99_SAMPLES {
        (p99_of(samples_ms), P99Rule::WholePhase)
    } else {
        (
            samples_ms.iter().copied().fold(f64::MIN, f64::max),
            P99Rule::TooFewSamples,
        )
    };
    Latency {
        samples: n,
        p50_ms: median(samples_ms),
        p99_ms,
        rule,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them; needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need two values");
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median: the spread the
/// benchmark's bounds are judged against. With a single value, 0.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn per_fifth_p99_ignores_one_bad_fifth() {
        // Five fifths of 1 000 samples at 1 ms; the third fifth has 6 %
        // of its samples at 50 ms. A whole-phase p99 reads 50 ms (more
        // than 1 % of the 5 000 samples are slow); the median of the
        // per-fifth p99s reads 1 ms.
        let mut samples = vec![1.0; 5_000];
        for s in samples.iter_mut().skip(2_000).take(60) {
            *s = 50.0;
        }
        let l = latency(&samples);
        assert_eq!(l.rule, P99Rule::PerFifth);
        assert_eq!(l.p99_ms, 1.0);
        assert_eq!(l.p50_ms, 1.0);
        assert_eq!(l.samples, 5_000);
        assert_eq!(p99_of(&samples), 50.0);
    }

    #[test]
    fn p99_rule_follows_sample_count() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        let whole = latency(&ramp(2_000));
        assert_eq!(whole.rule, P99Rule::WholePhase);
        assert_eq!(whole.p99_ms, 1_980.0);
        let few = latency(&ramp(10));
        assert_eq!(few.rule, P99Rule::TooFewSamples);
        assert_eq!(few.p99_ms, 10.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
