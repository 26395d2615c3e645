//! Exporters: hand-rolled JSON and Prometheus text, zero dependencies.
//!
//! The JSON form is what `repro live` embeds into
//! `results/*.json` (callers with serde parse it into a `Value`); the
//! Prometheus text form is what the `vq` CLI serves/prints for scrape
//! pipelines.

use crate::metrics::HistogramSnapshot;
use crate::registry::{MetricValue, Snapshot};

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn histogram_json(h: &HistogramSnapshot) -> String {
    format!(
        "{{\"kind\":\"histogram\",\"count\":{},\"sum\":{},\"mean\":{:.3},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
        h.count,
        h.sum,
        h.mean(),
        h.p50,
        h.p95,
        h.p99,
        h.max
    )
}

impl Snapshot {
    /// Render the snapshot as one JSON object: metric name → value
    /// (counters and gauges as numbers, histograms as objects with
    /// `count`/`sum`/`mean`/`p50`/`p95`/`p99`/`max`, durations in
    /// nanoseconds).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&json_escape(&e.name));
            out.push_str("\":");
            match &e.value {
                MetricValue::Counter(v) => out.push_str(&v.to_string()),
                MetricValue::Gauge(v) => out.push_str(&v.to_string()),
                MetricValue::Histogram(h) => out.push_str(&histogram_json(h)),
            }
        }
        out.push('}');
        out
    }

    /// Render the snapshot in the Prometheus text exposition format
    /// (v0.0.4). Metric names are sanitized (`.` and `-` become `_`);
    /// `{label="v"}` suffixes pass through. Histograms are emitted as a
    /// `_count`/`_sum` pair plus quantile-bound gauges.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let (base, labels) = match e.name.find('{') {
                Some(i) => (&e.name[..i], &e.name[i..]),
                None => (e.name.as_str(), ""),
            };
            let base: String = base
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            match &e.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE vq_{base} counter\nvq_{base}{labels} {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE vq_{base} gauge\nvq_{base}{labels} {v}\n"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!("# TYPE vq_{base} summary\n"));
                    for (q, v) in [(0.5, h.p50), (0.95, h.p95), (0.99, h.p99)] {
                        let sep = if labels.is_empty() {
                            format!("{{quantile=\"{q}\"}}")
                        } else {
                            format!("{},quantile=\"{q}\"}}", &labels[..labels.len() - 1])
                        };
                        out.push_str(&format!("vq_{base}{sep} {v}\n"));
                    }
                    out.push_str(&format!("vq_{base}_sum{labels} {}\n", h.sum));
                    out.push_str(&format!("vq_{base}_count{labels} {}\n", h.count));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.counter("wal.synced_batches").add(15);
        r.gauge(&crate::labeled("worker.queue_depth", "worker", 2)).set(7);
        let h = r.histogram("phase.gather");
        for v in [100u64, 200, 400, 90_000] {
            h.record(v);
        }
        r.snapshot()
    }

    #[test]
    fn json_is_parseable_shape() {
        let json = sample().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"wal.synced_batches\":15"));
        assert!(json.contains("\"phase.gather\":{\"kind\":\"histogram\",\"count\":4"));
        assert!(json.contains("\"p50\":"));
        // The labeled gauge name must be escaped as-is inside one key.
        assert!(json.contains("\"worker.queue_depth{worker=\\\"2\\\"}\":7"));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn prometheus_text_has_types_and_quantiles() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE vq_wal_synced_batches counter"));
        assert!(text.contains("vq_wal_synced_batches 15"));
        assert!(text.contains("vq_worker_queue_depth{worker=\"2\"} 7"));
        assert!(text.contains("# TYPE vq_phase_gather summary"));
        assert!(text.contains("vq_phase_gather{quantile=\"0.5\"}"));
        assert!(text.contains("vq_phase_gather_count 4"));
        assert!(text.contains("vq_phase_gather_sum 90700"));
        // Labeled histogram quantiles merge the label sets.
        let r = Registry::new();
        r.histogram(&crate::labeled("phase.upsert", "worker", 1)).record(5);
        let labeled = r.snapshot().to_prometheus();
        assert!(labeled.contains("vq_phase_upsert{worker=\"1\",quantile=\"0.5\"}"), "{labeled}");
    }
}
