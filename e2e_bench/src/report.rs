//! The metric sets every workload reports, and the result line.
//!
//! Every workload reports every end-to-end metric (untraced runs) and
//! every per-layer metric (traced runs), so results line up by name across
//! workloads. A layer a workload bypasses reads 0: that workload spends no
//! time in it. What each metric means on each workload is documented in
//! `e2e_bench/README.md`.

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The end-to-end metrics, one value per workload.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EndToEnd {
    /// Median wall time of one program set-up, seconds.
    pub setup_s: f64,
    /// The program's peak resident memory while set up and serving, MB
    /// (see [`ProgramRss`](crate::host::ProgramRss)).
    pub rss_peak_mb: f64,
    /// Frames processed per second of time spent inside the program.
    pub frames_per_s: f64,
    /// Median per-utterance latency, ms.
    pub utt_latency_p50_ms: f64,
    /// 90th-percentile per-utterance latency, ms.
    pub utt_latency_p90_ms: f64,
}

impl EndToEnd {
    /// The metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", self.setup_s, "s"),
            Metric::new("rss_peak_mb", self.rss_peak_mb, "MB"),
            Metric::new("frames_per_s", self.frames_per_s, "1/s"),
            Metric::new("utt_latency_p50_ms", self.utt_latency_p50_ms, "ms"),
            Metric::new("utt_latency_p90_ms", self.utt_latency_p90_ms, "ms"),
        ]
    }

    /// Tracing overhead: `traced - untraced` for every metric, named
    /// `trace.overhead.<metric>`.
    pub fn overhead(traced: &EndToEnd, untraced: &EndToEnd) -> Vec<Metric> {
        traced
            .metrics()
            .into_iter()
            .zip(untraced.metrics())
            .map(|(t, u)| {
                Metric::new(
                    format!("trace.overhead.{}", t.name),
                    t.value - u.value,
                    t.unit,
                )
            })
            .collect()
    }
}

/// The per-layer metrics of a traced run. Fields a workload does not
/// exercise stay 0.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layers {
    pub online_busy_us_per_frame: f64,
    pub dnn_row_us_per_frame: f64,
    pub dnn_mmac_per_frame: f64,
    pub dnn_block_us_per_row: f64,
    pub dnn_block_rows: f64,
    pub search_step_us_per_frame: f64,
    pub search_finish_us: f64,
    pub search_arcs_per_frame: f64,
    pub search_expanded_per_frame: f64,
    pub search_expanded_over_active: f64,
    pub parallel_us_per_frame: f64,
    pub runtime_session_us_per_frame: f64,
    pub runtime_session_self_us_per_frame: f64,
    pub runtime_open_us: f64,
    pub runtime_finalize_us: f64,
    pub runtime_shed_sessions: f64,
    pub batch_rows_per_batch: f64,
    pub batch_single_row_fallback_share: f64,
    pub batch_widest: f64,
    pub batch_idle_flushes: f64,
    pub pool_tasks_queued_per_frame: f64,
    pub pool_stolen_share: f64,
    pub pool_helped_per_frame: f64,
    pub pool_peak_queue_depth: f64,
    pub pool_scratch_cold_checkouts: f64,
    pub pool_scratch_warm_checkouts: f64,
    pub store_image_load_ms: f64,
    pub store_validate_ms: f64,
    pub sim_prepare_ms: f64,
    pub sim_host_us_per_frame: f64,
    pub sim_cycles_per_frame: f64,
    pub sim_cycles_per_arc: f64,
    pub sim_state_cache_hit_ratio: f64,
    pub sim_arc_cache_hit_ratio: f64,
    pub sim_token_cache_hit_ratio: f64,
    pub sim_hash_overflow_accesses: f64,
    pub sim_offchip_bytes_per_frame: f64,
    pub sim_ms_per_speech_s: f64,
    pub sim_mj_per_speech_s: f64,
    pub trace_span_count: f64,
    pub trace_client_self_us_per_frame: f64,
}

impl Layers {
    /// The metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new(
                "online.busy_us_per_frame",
                self.online_busy_us_per_frame,
                "us",
            ),
            Metric::new("dnn.row_us_per_frame", self.dnn_row_us_per_frame, "us"),
            Metric::new("dnn.mmac_per_frame", self.dnn_mmac_per_frame, "MMAC"),
            Metric::new("dnn.block_us_per_row", self.dnn_block_us_per_row, "us"),
            Metric::new("dnn.block_rows", self.dnn_block_rows, "count"),
            Metric::new(
                "search.step_us_per_frame",
                self.search_step_us_per_frame,
                "us",
            ),
            Metric::new("search.finish_us", self.search_finish_us, "us"),
            Metric::new("search.arcs_per_frame", self.search_arcs_per_frame, "count"),
            Metric::new(
                "search.expanded_per_frame",
                self.search_expanded_per_frame,
                "count",
            ),
            Metric::new(
                "search.expanded_over_active",
                self.search_expanded_over_active,
                "ratio",
            ),
            Metric::new("parallel.us_per_frame", self.parallel_us_per_frame, "us"),
            Metric::new(
                "runtime.session_us_per_frame",
                self.runtime_session_us_per_frame,
                "us",
            ),
            Metric::new(
                "runtime.session_self_us_per_frame",
                self.runtime_session_self_us_per_frame,
                "us",
            ),
            Metric::new("runtime.open_us", self.runtime_open_us, "us"),
            Metric::new("runtime.finalize_us", self.runtime_finalize_us, "us"),
            Metric::new("runtime.shed_sessions", self.runtime_shed_sessions, "count"),
            Metric::new(
                "runtime.batch.rows_per_batch",
                self.batch_rows_per_batch,
                "count",
            ),
            Metric::new(
                "runtime.batch.single_row_fallback_share",
                self.batch_single_row_fallback_share,
                "ratio",
            ),
            Metric::new("runtime.batch.widest", self.batch_widest, "count"),
            Metric::new(
                "runtime.batch.idle_flushes",
                self.batch_idle_flushes,
                "count",
            ),
            Metric::new(
                "pool.tasks_queued_per_frame",
                self.pool_tasks_queued_per_frame,
                "count",
            ),
            Metric::new("pool.stolen_share", self.pool_stolen_share, "ratio"),
            Metric::new("pool.helped_per_frame", self.pool_helped_per_frame, "count"),
            Metric::new("pool.peak_queue_depth", self.pool_peak_queue_depth, "count"),
            Metric::new(
                "pool.scratch_cold_checkouts",
                self.pool_scratch_cold_checkouts,
                "count",
            ),
            Metric::new(
                "pool.scratch_warm_checkouts",
                self.pool_scratch_warm_checkouts,
                "count",
            ),
            Metric::new("store.image_load_ms", self.store_image_load_ms, "ms"),
            Metric::new("store.validate_ms", self.store_validate_ms, "ms"),
            Metric::new("sim.prepare_ms", self.sim_prepare_ms, "ms"),
            Metric::new("sim.host_us_per_frame", self.sim_host_us_per_frame, "us"),
            Metric::new("sim.cycles_per_frame", self.sim_cycles_per_frame, "cycles"),
            Metric::new("sim.cycles_per_arc", self.sim_cycles_per_arc, "cycles"),
            Metric::new(
                "sim.state_cache_hit_ratio",
                self.sim_state_cache_hit_ratio,
                "ratio",
            ),
            Metric::new(
                "sim.arc_cache_hit_ratio",
                self.sim_arc_cache_hit_ratio,
                "ratio",
            ),
            Metric::new(
                "sim.token_cache_hit_ratio",
                self.sim_token_cache_hit_ratio,
                "ratio",
            ),
            Metric::new(
                "sim.hash_overflow_accesses",
                self.sim_hash_overflow_accesses,
                "count",
            ),
            Metric::new(
                "sim.offchip_bytes_per_frame",
                self.sim_offchip_bytes_per_frame,
                "B",
            ),
            Metric::new("sim.ms_per_speech_s", self.sim_ms_per_speech_s, "ms/s"),
            Metric::new("sim.mj_per_speech_s", self.sim_mj_per_speech_s, "mJ/s"),
            Metric::new("trace.span_count", self.trace_span_count, "count"),
            Metric::new(
                "trace.client_self_us_per_frame",
                self.trace_client_self_us_per_frame,
                "us",
            ),
        ]
    }
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (utterances recognized, decodes simulated,
    /// replays checked).
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Workload-specific figures printed for readers, not gated.
    pub details: Vec<Metric>,
    /// Executor lanes of the runtime under test.
    pub lanes: usize,
}

impl Report {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Formats a metric map as a JSON object. A value that is not finite
/// cannot be written as JSON; it is written as 0 and reported by the
/// caller as a failed check (see [`non_finite`]).
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Names of metrics whose value is not a finite number.
pub fn non_finite(metrics: &[Metric]) -> Vec<&str> {
    metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.as_str())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names `BENCHMARK.json` declares, in order, for one section.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let rest = &text[start..];
        let end = rest.find(']').expect("section is a list");
        rest[..end]
            .split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap()
                    .to_owned()
            })
            .collect()
    }

    #[test]
    fn emitted_names_match_benchmark_json() {
        let e2e: Vec<String> = EndToEnd::default()
            .metrics()
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(e2e, declared("end_to_end"));
        let mut layers: Vec<String> = Layers::default()
            .metrics()
            .into_iter()
            .map(|m| m.name)
            .collect();
        layers.extend(
            EndToEnd::overhead(&EndToEnd::default(), &EndToEnd::default())
                .into_iter()
                .map(|m| m.name),
        );
        assert_eq!(layers, declared("per_layer"));
    }

    #[test]
    fn overhead_is_traced_minus_untraced() {
        let untraced = EndToEnd {
            frames_per_s: 100.0,
            utt_latency_p50_ms: 10.0,
            ..EndToEnd::default()
        };
        let traced = EndToEnd {
            frames_per_s: 98.0,
            utt_latency_p50_ms: 10.5,
            ..EndToEnd::default()
        };
        let o = EndToEnd::overhead(&traced, &untraced);
        let get = |n: &str| o.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("trace.overhead.frames_per_s"), -2.0);
        assert_eq!(get("trace.overhead.utt_latency_p50_ms"), 0.5);
        assert_eq!(get("trace.overhead.setup_s"), 0.0);
    }

    #[test]
    fn result_json_keeps_every_digit() {
        let json = metrics_json(&[Metric::new("x", 1.0 / 3.0, "ms")]);
        assert_eq!(
            json,
            "{\"x\": {\"value\": 0.3333333333333333, \"unit\": \"ms\"}}"
        );
        assert_eq!(non_finite(&[Metric::new("y", f64::NAN, "s")]), vec!["y"]);
    }
}
