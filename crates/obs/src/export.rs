//! Exporters: Prometheus text exposition, a human-readable end-of-run
//! summary table and a single-object JSON run report.
//!
//! Everything here is hand-rolled over `std::fmt::Write` so the crate
//! stays dependency-free. JSON strings are escaped per RFC 8259;
//! numbers use Rust's shortest-roundtrip `Display` for `f64`.

use std::fmt::Write as _;

use crate::metrics::MetricSnapshot;

/// Escapes `s` as the body of a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON-safe number (JSON has no NaN/inf).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Prometheus-style text exposition of every registered metric.
///
/// Counters render as `name value`, gauges likewise, histograms as
/// cumulative `name_bucket{le="..."}` series plus `name_sum` and
/// `name_count`, each preceded by a `# TYPE` line.
pub(crate) fn prometheus(metrics: &[(String, MetricSnapshot)]) -> String {
    let mut out = String::new();
    for (name, snap) in metrics {
        match snap {
            MetricSnapshot::Counter(v) => {
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name} {v}");
            }
            MetricSnapshot::Gauge(v) => {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {v}");
            }
            MetricSnapshot::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {name} histogram");
                let mut cumulative = 0u64;
                for (bound, count) in h.bounds.iter().zip(&h.buckets) {
                    cumulative += count;
                    let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
                let _ = writeln!(out, "{name}_sum {}", h.sum);
                let _ = writeln!(out, "{name}_count {}", h.count);
            }
        }
    }
    out
}

/// Human-readable end-of-run summary table; the `trace:` line counts
/// the timeline intervals `retained` in its ring and `dropped` from it.
pub(crate) fn summary(
    metrics: &[(String, MetricSnapshot)],
    retained: usize,
    dropped: u64,
) -> String {
    let name_width = metrics
        .iter()
        .map(|(n, _)| n.len())
        .chain(std::iter::once("metric".len()))
        .max()
        .unwrap_or(6);

    let mut out = String::new();
    let _ = writeln!(out, "{:<name_width$}  {:>14}  detail", "metric", "value");
    let _ = writeln!(out, "{}  {}  {}", "-".repeat(name_width), "-".repeat(14), "-".repeat(30));
    for (name, snap) in metrics {
        match snap {
            MetricSnapshot::Counter(v) => {
                let _ = writeln!(out, "{name:<name_width$}  {v:>14}  counter");
            }
            MetricSnapshot::Gauge(v) => {
                let _ = writeln!(out, "{name:<name_width$}  {:>14}  gauge", format!("{v:.6}"));
            }
            MetricSnapshot::Histogram(h) => {
                let _ = writeln!(
                    out,
                    "{name:<name_width$}  {:>14}  histogram mean={:.6} p50<={} p95<={}",
                    h.count,
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.95),
                );
            }
        }
    }
    let _ = writeln!(out, "trace: {retained} events retained, {dropped} dropped (ring full)");
    out
}

/// Machine-readable run report: one JSON object with metric snapshots
/// and the timeline's trace totals, suitable for writing next to
/// experiment outputs.
pub(crate) fn report_json(
    label: &str,
    metrics: &[(String, MetricSnapshot)],
    retained: usize,
    dropped: u64,
) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"label\":\"{}\",", json_escape(label));

    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    for (name, snap) in metrics {
        match snap {
            MetricSnapshot::Counter(v) => {
                counters.push(format!("\"{}\":{}", json_escape(name), v));
            }
            MetricSnapshot::Gauge(v) => {
                gauges.push(format!("\"{}\":{}", json_escape(name), json_num(*v)));
            }
            MetricSnapshot::Histogram(h) => {
                let buckets: Vec<String> = h
                    .bounds
                    .iter()
                    .zip(&h.buckets)
                    .map(|(b, c)| format!("[{},{}]", json_num(*b), c))
                    .collect();
                // `mean` (sum/count) is exact where the bucket-derived
                // quantiles are quantized to bucket upper bounds.
                histograms.push(format!(
                    "\"{}\":{{\"count\":{},\"sum\":{},\"mean\":{},\"overflow\":{},\"buckets\":[{}]}}",
                    json_escape(name),
                    h.count,
                    json_num(h.sum),
                    json_num(h.mean()),
                    h.buckets.last().copied().unwrap_or(0),
                    buckets.join(","),
                ));
            }
        }
    }
    let _ = write!(out, "\"counters\":{{{}}},", counters.join(","));
    let _ = write!(out, "\"gauges\":{{{}}},", gauges.join(","));
    let _ = write!(out, "\"histograms\":{{{}}},", histograms.join(","));
    let _ =
        write!(out, "\"trace\":{{\"events_recorded\":{retained},\"events_dropped\":{dropped}}}}}");
    out.push('\n');
    out
}
