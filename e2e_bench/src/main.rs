//! The repository's benchmark: raw audio to transcript end to end through
//! the public APIs, plus a traced run that breaks the work into layers.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! Workloads: `stream_dnn`, `search_200k` (see `e2e_bench/README.md`). The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`: every
//! end-to-end metric, or with `--trace 1` every per-layer metric. Result
//! files and spans go to `--out-dir`, by default `.bench_out` under the
//! current directory.

mod audio;
mod batching;
mod closed_loop;
mod host;
mod report;
mod schedule;
mod search_200k;
mod sim;
mod stats;
mod stream_dnn;
mod trace;

use asr_repro::runtime::RuntimeStats;
use report::{Layers, Metric, Report};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: asr-e2e-bench --workload <stream_dnn|search_200k> \
                     --seed <u64> --seconds <s> --trace <0|1> [--out-dir <dir>]";

/// Program set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// What a workload needs to know about its run.
#[derive(Debug)]
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Where result files and spans are written.
    pub out_dir: PathBuf,
}

impl Ctx {
    fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut out_dir = PathBuf::from(".bench_out");
        let mut args = args;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err("--seconds must be positive".to_owned());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_owned()),
                    })
                }
                "--out-dir" => out_dir = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !["stream_dnn", "search_200k"].contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}"));
        }
        Ok(Self {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            out_dir,
        })
    }

    fn stem(&self) -> String {
        format!(
            "{}-seed{}-trace{}",
            self.workload,
            self.seed,
            u8::from(self.trace)
        )
    }
}

/// Runs `set_up` [`SETUP_REPS`] times; returns the last result and the
/// median wall time in seconds.
pub fn timed_setup<T>(mut set_up: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous set-up first, so each one starts from the
        // same state.
        drop(last.take());
        let start = Instant::now();
        last = Some(set_up());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

/// Runs `set_up` [`SETUP_REPS`] times untraced and as many times into
/// `trace`, alternating which goes first; returns the median untraced and
/// traced wall times in seconds.
pub fn paired_setup<T>(
    trace: &mut trace::Trace,
    mut set_up: impl FnMut(&mut trace::Trace) -> T,
) -> (f64, f64) {
    let mut off = trace::Trace::new(false);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for rep in 0..SETUP_REPS {
        for traced_side in [rep % 2 == 1, rep % 2 == 0] {
            let (times, t) = if traced_side {
                (&mut traced, &mut *trace)
            } else {
                (&mut plain, &mut off)
            };
            let start = Instant::now();
            let built = set_up(t);
            times.push(start.elapsed().as_secs_f64());
            drop(built);
        }
    }
    (stats::median(&plain), stats::median(&traced))
}

/// The executor and scratch-pool counters accumulated between two
/// runtime snapshots, normalized by the frames served in between.
pub fn pool_layers(layers: &mut Layers, before: &RuntimeStats, after: &RuntimeStats, frames: u64) {
    let frames = frames.max(1) as f64;
    if let (Some(b), Some(a)) = (before.executor, after.executor) {
        layers.pool_tasks_queued_per_frame = (a.tasks_queued - b.tasks_queued) as f64 / frames;
        let taken = a.tasks_taken_by_lanes - b.tasks_taken_by_lanes;
        layers.pool_stolen_share = (a.tasks_stolen - b.tasks_stolen) as f64 / taken.max(1) as f64;
        layers.pool_helped_per_frame = (a.tasks_helped - b.tasks_helped) as f64 / frames;
        layers.pool_peak_queue_depth = a.peak_queue_depth as f64;
    }
    layers.pool_scratch_cold_checkouts =
        (after.scratch.cold_checkouts - before.scratch.cold_checkouts) as f64;
    layers.pool_scratch_warm_checkouts =
        (after.scratch.warm_checkouts - before.scratch.warm_checkouts) as f64;
}

/// Sample count and supported tail of a latency sample, for readers.
pub fn latency_details(latencies_ms: &[f64]) -> Vec<Metric> {
    let s = stats::Summary::of(latencies_ms);
    vec![
        Metric::new("latency_samples", s.n as f64, "count"),
        Metric::new("latency_tail_supported", s.tail.unwrap_or(0.0), "quantile"),
    ]
}

/// Self time of the `request` spans per frame: the client's own work
/// between its calls into the program and the replays.
pub fn client_self_us_per_frame(spans: &[trace::Span], frames: u64) -> f64 {
    let selfs = trace::self_times_ns(spans);
    trace::total_self_ns(spans, &selfs, "request") as f64 * 1e-3 / frames.max(1) as f64
}

/// Writes the traced run's spans as JSON lines into the output directory.
pub fn write_spans(ctx: &Ctx, trace: &trace::Trace) {
    let path = ctx.out_dir.join(format!("spans-{}.jsonl", ctx.stem()));
    if let Err(e) = trace.write_jsonl(&path) {
        eprintln!("could not write spans to {}: {e}", path.display());
    }
}

fn run(ctx: &Ctx) -> Report {
    match ctx.workload.as_str() {
        "stream_dnn" => stream_dnn::run(ctx),
        "search_200k" => search_200k::run(ctx),
        other => unreachable!("workload {other} was validated by the parser"),
    }
}

fn main() -> ExitCode {
    let ctx = match Ctx::parse(std::env::args().skip(1)) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("cannot create {}: {e}", ctx.out_dir.display());
        return ExitCode::from(1);
    }
    let mut report = run(&ctx);
    let bad = report::non_finite(&report.metrics);
    if !bad.is_empty() {
        eprintln!("metrics without a finite value: {}", bad.join(", "));
        report.failed += bad.len() as u64;
        report.attempted += bad.len() as u64;
    }
    let host = host::Fingerprint::probe(report.lanes).to_json();
    for d in &report.details {
        println!("{}: {} = {} {}", ctx.workload, d.name, d.value, d.unit);
    }
    for m in &report.metrics {
        println!("{}: {} = {} {}", ctx.workload, m.name, m.value, m.unit);
    }
    println!("host: {host}");
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        report::metrics_json(&report.metrics)
    );
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {host}, \
         \"details\": {}, \"result\": {result}}}\n",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        report::metrics_json(&report.details),
    );
    let path = ctx.out_dir.join(format!("result-{}.json", ctx.stem()));
    if let Err(e) = std::fs::write(&path, record) {
        eprintln!("could not write {}: {e}", path.display());
    }
    println!("{result}");
    ExitCode::SUCCESS
}
