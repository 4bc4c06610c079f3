//! Every metric the benchmark prints, with its unit, and the result
//! line. `BENCHMARK.json` at the repository root lists the same names;
//! a test keeps the two in step.

use std::collections::BTreeMap;

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// End-to-end metrics, printed by every untraced run. Each workload
/// reads them for its own unit of work (see `perfbench/README.md`).
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s"),
    def("throughput_per_s", "1/s"),
    def("latency_p50_ms", "ms"),
    def("latency_p99_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run; a layer a workload
/// leaves idle reads 0.
pub const PER_LAYER: &[Def] = &[
    // Process probes.
    def("proc.peak_rss_mb", "MiB"),
    def("proc.cpu_util", "ratio"),
    def("proc.peak_threads", "count"),
    def("proc.ctx_switches_involuntary", "count"),
    // evr-sched / evr-core fleet.
    def("sched.lane_busy_imbalance", "ratio"),
    // evr-sas ingest.
    def("sas.ingest_calls", "count"),
    def("sas.ingest_video_s", "s"),
    def("sas.populate_ladder_s", "s"),
    def("sas.ingest_tiled_s", "s"),
    def("sas.segment_ms.p50", "ms"),
    def("sas.segment_ms.p99", "ms"),
    def("sas.fov_streams", "count"),
    def("sas.degraded_segments", "count"),
    def("sas.layer_coverage", "ratio"),
    // Ingest sub-layers, replayed through public calls.
    def("video.calls", "count"),
    def("video.render_image_us", "us"),
    def("video.encode_frame_us", "us"),
    def("semantics.calls", "count"),
    def("semantics.detect_us", "us"),
    def("semantics.select_k_us", "us"),
    def("projection.calls", "count"),
    def("projection.fov_frame_us", "us"),
    def("projection.lut_hit_ratio", "ratio"),
    // evr-video serving path.
    def("video.transcode_us", "us"),
    def("video.delta_encode_us", "us"),
    def("video.delta_reconstruct_us", "us"),
    // evr-sas store.
    def("store.hit_ratio", "ratio"),
    def("store.evictions", "count"),
    def("store.reconstructs", "count"),
    def("store.writes", "count"),
    def("store.resident_mb", "MiB"),
    def("store.delta_entries", "count"),
    // evr-sas server.
    def("server.calls", "count"),
    def("server.fetch_fov_us.p50", "us"),
    def("server.fetch_fov_us.p99", "us"),
    def("server.fetch_fov_rung_us.p50", "us"),
    def("server.fetch_fov_rung_us.p99", "us"),
    def("server.fetch_fov_upgrade_us.p50", "us"),
    def("server.fetch_fov_upgrade_us.p99", "us"),
    def("server.fetch_tile_us.p50", "us"),
    def("server.delta_upgrade_ratio", "ratio"),
    // evr-sas front.
    def("front.calls", "count"),
    def("front.admit_ns", "ns"),
    def("front.shed_rate", "ratio"),
    def("front.peak_queue_depth", "count"),
    // The serving loop.
    def("serve.queue_wait_ms.p50", "ms"),
    def("serve.queue_wait_ms.p99", "ms"),
    def("serve.service_ms.p50", "ms"),
    def("serve.service_ms.p99", "ms"),
    def("gen.lag_ms.p99", "ms"),
    // evr-trace.
    def("trace.calls", "count"),
    def("trace.user_trace_us", "us"),
    // evr-client.
    def("client.calls", "count"),
    def("client.session_ms.baseline", "ms"),
    def("client.session_ms.s", "ms"),
    def("client.session_ms.h", "ms"),
    def("client.session_ms.s_h", "ms"),
    def("client.session_ms.t", "ms"),
    def("client.session_ms.t_h", "ms"),
    def("client.plan_busy_s", "s"),
    def("client.fetch_busy_s", "s"),
    def("client.render_busy_s", "s"),
    def("client.account_busy_s", "s"),
    def("client.allocate_tile_rungs_us", "us"),
    def("client.fov_hit_ratio", "ratio"),
    // evr-pte (session construction pre-analyses the PTE memory pattern).
    def("pte.session_build_ms.baseline", "ms"),
    def("pte.session_build_ms.s", "ms"),
    def("pte.session_build_ms.h", "ms"),
    def("pte.session_build_ms.s_h", "ms"),
    def("pte.session_build_ms.t", "ms"),
    def("pte.session_build_ms.t_h", "ms"),
    // evr-obs.
    def("obs.trace_overhead_frac", "ratio"),
];

/// Values set by one run, checked against the declarations.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Sets a declared metric.
    ///
    /// # Panics
    ///
    /// Panics on a name neither list declares — a bug in this benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared"));
        self.values.insert(def.name, value);
    }

    /// The metrics of one mode in declaration order: every end-to-end
    /// metric must have been set; an unset per-layer metric is an idle
    /// layer and reads 0.
    pub fn for_mode(&self, traced: bool) -> Vec<(Def, f64)> {
        let defs = if traced { PER_LAYER } else { END_TO_END };
        defs.iter()
            .map(|d| {
                let v = self.values.get(d.name).copied();
                assert!(traced || v.is_some(), "end-to-end metric {} was not measured", d.name);
                (*d, v.unwrap_or(0.0))
            })
            .collect()
    }
}

/// The result object: the last line the benchmark prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(Def, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(d, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// The `"name"` entries of one top-level list of `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<(String, String)> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &BENCHMARK_JSON[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry.find(&format!("\"{key}\"")).expect("entry field");
                    let rest = &entry[at + key.len() + 2..];
                    let rest = &rest[rest.find('"').expect("value opens") + 1..];
                    rest[..rest.find('"').expect("value closes")].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn every_printed_name_is_listed_in_benchmark_json_with_its_unit() {
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = listed(section);
            for d in defs {
                assert!(valid_name(d.name), "{} uses characters outside [A-Za-z0-9_.-]", d.name);
                assert!(
                    listed.contains(&(d.name.to_string(), d.unit.to_string())),
                    "{} ({}) missing from BENCHMARK.json {section}",
                    d.name,
                    d.unit
                );
            }
            assert_eq!(
                listed.len(),
                defs.len(),
                "{section} lists names the benchmark never prints"
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = Metrics::default();
        for d in END_TO_END {
            m.set(d.name, 1.5);
        }
        let line = result_line(true, 10, 0, &m.for_mode(false));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        // Idle layers read zero rather than disappearing.
        let traced = m.for_mode(true);
        assert_eq!(traced.len(), PER_LAYER.len());
        assert!(traced.iter().all(|(_, v)| *v == 0.0));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_names_are_refused() {
        Metrics::default().set("no.such.metric", 1.0);
    }
}
