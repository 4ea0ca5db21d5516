//! `stream_dnn`: one closed-loop client streams raw audio through
//! `AsrRuntime` sessions with the MLP acoustic model and no batch service.

use crate::audio::{self, AudioReplay, Expected, Utterance, PACKET_SAMPLES};
use crate::batching;
use crate::closed_loop::{self, Served};
use crate::host::ProgramRss;
use crate::report::{EndToEnd, Layers, Report};
use crate::sim::{Prepared, SimTotals};
use crate::trace::{self, SpanId, Trace};
use crate::{pool_layers, timed_setup, Ctx};
use asr_repro::runtime::AsrRuntime;
use std::time::Instant;

/// Builds the runtime and warms its pools and executor on one utterance.
fn set_up(trace: &mut Trace) -> AsrRuntime {
    let rt = trace.span("runtime.build", SpanId::NONE, 0, || {
        AsrRuntime::demo_with(audio::runtime_config(false)).expect("the demo graph composes")
    });
    trace.span("runtime.warmup", SpanId::NONE, 0, || {
        let audio = rt.render_words(&["call", "mom"]).expect("demo words");
        std::hint::black_box(rt.recognize(&audio));
    });
    rt
}

/// Streams one utterance in [`PACKET_SAMPLES`] packets, pushed as fast
/// as the session accepts them, through a fresh session.
fn serve(rt: &AsrRuntime, u: &Utterance, id: u32, trace: &mut Trace) -> Served {
    let request = trace.begin("request", SpanId::NONE, id);
    let start = Instant::now();
    let mut session = trace.span("runtime.open", request, id, || rt.open_session());
    for packet in u.samples.chunks(PACKET_SAMPLES) {
        trace.span("runtime.push", request, id, || session.push_samples(packet));
    }
    let transcript = trace.span("runtime.finalize", request, id, || session.finalize());
    let elapsed = start.elapsed();
    let got = Expected::of(&transcript);
    trace.end(request);
    (elapsed, u.frames as u64, got)
}

/// Simulates every pool utterance on the accelerator over the runtime's
/// graph and fills the `sim.*` metrics; a transcript differing from the
/// reference is a failed check.
fn simulate_pool(rt: &AsrRuntime, pool: &[Utterance], report: &mut Report, layers: &mut Layers) {
    let prepared = Prepared::new(rt.graph(), rt.options().beam);
    let mut totals = SimTotals::default();
    for u in pool {
        let (r, host_ns) = prepared.decode(&u.table);
        report.check(
            Expected::decoded(rt.lexicon(), &r.words, r.cost, r.reached_final) == u.expected,
        );
        totals.add(prepared.sim.config(), &r, host_ns);
    }
    totals.fill(layers);
    layers.sim_prepare_ms = prepared.prepare_ns as f64 * 1e-6;
}

/// Replays every pool utterance once, layer by layer, each under a
/// `replay` span; every replay must reproduce its reference transcript.
/// Returns the frames replayed.
fn replay_pool(
    rt: &AsrRuntime,
    pool: &[Utterance],
    replay: &mut AudioReplay,
    trace: &mut Trace,
    report: &mut Report,
) -> u64 {
    let mut frames = 0;
    for (i, u) in pool.iter().enumerate() {
        let id = i as u32;
        let root = trace.begin("replay", SpanId::NONE, id);
        let got = replay.run(rt, &u.samples, trace, root, id);
        trace.end(root);
        report.check(got == u.expected);
        frames += u.frames as u64;
    }
    frames
}

/// The audio layers' metrics from the replay spans over `frames` replayed
/// frames. Returns the replayed front-end, row scoring and search time
/// per frame, µs.
fn replay_layers(
    layers: &mut Layers,
    spans: &[trace::Span],
    frames: u64,
    replay: &AudioReplay,
) -> f64 {
    let per_frame = |ns: u64| ns as f64 * 1e-3 / frames as f64;
    let online = trace::total_ns(spans, "online.push") + trace::total_ns(spans, "online.pop");
    let finish = trace::total_ns(spans, "search.finish");
    layers.online_busy_us_per_frame = per_frame(online);
    layers.dnn_row_us_per_frame = per_frame(trace::total_ns(spans, "dnn.row"));
    layers.dnn_mmac_per_frame = replay.mlp().flops_per_frame() as f64 / 2e6;
    layers.search_step_us_per_frame = per_frame(trace::total_ns(spans, "search.step"));
    layers.search_finish_us =
        finish as f64 * 1e-3 / trace::count(spans, "search.finish").max(1) as f64;
    replay.search.fill(layers);
    layers.online_busy_us_per_frame
        + layers.dnn_row_us_per_frame
        + layers.search_step_us_per_frame
        + per_frame(finish)
}

/// Total time, ns, of the traced runtime calls of sessions (open, push,
/// finalize).
fn session_call_ns(spans: &[trace::Span]) -> u64 {
    ["runtime.open", "runtime.push", "runtime.finalize"]
        .iter()
        .map(|name| trace::total_ns(spans, name))
        .sum()
}

/// The runtime's session metrics: the mean open and finalize call from
/// the spans, the session time per frame, and its self time after the
/// replayed layers' time per frame.
fn session_layers(
    layers: &mut Layers,
    spans: &[trace::Span],
    session_us_per_frame: f64,
    replayed_us_per_frame: f64,
) {
    let sessions = trace::count(spans, "runtime.open").max(1) as f64;
    layers.runtime_session_us_per_frame = session_us_per_frame;
    layers.runtime_session_self_us_per_frame = session_us_per_frame - replayed_us_per_frame;
    layers.runtime_open_us = trace::total_ns(spans, "runtime.open") as f64 * 1e-3 / sessions;
    layers.runtime_finalize_us =
        trace::total_ns(spans, "runtime.finalize") as f64 * 1e-3 / sessions;
}

/// Runs the workload: utterances from the pool, round robin, until the
/// time is up.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let mut rss = ProgramRss::start();
    let (rt, setup_s) = timed_setup(|| set_up(&mut Trace::new(false)));
    rss.sample();
    report.lanes = rt.lanes();
    let pool = rss.exclude(|| audio::utterances(&rt, ctx.seed, &mut report));
    let input = |i: u32| i as usize % pool.len();
    let serve = |&k: &usize, id, trace: &mut Trace| serve(&rt, &pool[k], id, trace);
    let want = |&k: &usize| pool[k].expected.clone();
    if !ctx.trace {
        let pass = closed_loop::untraced(ctx.seconds, rss, &mut report, input, serve, want);
        report.metrics = pass.e2e(setup_s).metrics();
        report.details = crate::latency_details(&pass.latencies_ms);
        return report;
    }

    let mut trace = Trace::new(true);
    let (plain_setup_s, traced_setup_s) = crate::paired_setup(&mut trace, set_up);
    let before = rt.stats();
    let (plain, traced) = closed_loop::paired(
        ctx.seconds,
        rss,
        &mut trace,
        &mut report,
        input,
        serve,
        want,
    );
    let after = rt.stats();
    let mut replay = AudioReplay::new(&rt);
    let replayed = replay_pool(&rt, &pool, &mut replay, &mut trace, &mut report);

    let mut layers = Layers::default();
    let replayed_us = replay_layers(&mut layers, trace.spans(), replayed, &replay);
    let session_us = session_call_ns(trace.spans()) as f64 * 1e-3 / traced.frames as f64;
    session_layers(&mut layers, trace.spans(), session_us, replayed_us);
    pool_layers(&mut layers, &before, &after, plain.frames + traced.frames);
    simulate_pool(&rt, &pool, &mut report, &mut layers);
    // A lone session never forms a block; the batch layer is probed on an
    // open loop instead.
    report.details = batching::probe(
        &pool,
        &replay,
        ctx.seconds / 4.0,
        ctx.seed,
        &mut trace,
        &mut report,
        &mut layers,
    );
    layers.trace_span_count = trace.spans().len() as f64;
    layers.trace_client_self_us_per_frame =
        crate::client_self_us_per_frame(trace.spans(), traced.frames);
    report.metrics = layers.metrics();
    report.metrics.extend(EndToEnd::overhead(
        &traced.e2e(traced_setup_s),
        &plain.e2e(plain_setup_s),
    ));
    crate::write_spans(ctx, &trace);
    report
}
