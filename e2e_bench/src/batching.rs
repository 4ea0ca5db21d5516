//! The batched scoring layer, probed from the traced `stream_dnn` run.
//!
//! A lone closed-loop session never forms a block, so the probe offers
//! the `stream_dnn` utterances to a runtime with the batched scoring
//! service as an open loop: seeded Poisson arrivals at a `low` and then a
//! `high` rate, with one sender thread pushing every session's packets
//! paced at real time. The `high` window's service counters, and the
//! block forward pass replayed at the width it measured, give the
//! `runtime.batch.*` and `dnn.block_*` metrics.

use crate::audio::{self, AudioReplay, Expected, Utterance, PACKET_SAMPLES};
use crate::report::{Layers, Metric, Report};
use crate::schedule::{poisson_arrivals, LagLog, SplitMix64};
use crate::stats::{percentile, Summary};
use crate::trace::{self, SpanId, Trace};
use asr_repro::runtime::{AsrRuntime, BatchScoringStats, Session};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// The `low` offered rate, utterances per second.
pub const LOW_RATE: f64 = 20.0;
/// The `high` offered rate: past what one unbatched sender sustains.
pub const HIGH_RATE: f64 = 40.0;
/// Rate of the warm-up before the probe, which fills the runtime's
/// session pools.
const WARMUP_RATE: f64 = 80.0;
/// Windows as shares of the probe's time: `high` gets the most, for a
/// steady mean batch width.
const WARMUP_SHARE: f64 = 0.15;
const LOW_SHARE: f64 = 0.2;
const HIGH_SHARE: f64 = 0.65;
/// Packet spacing: real time.
const PACKET_NS: u64 = 10_000_000;
/// Lead time before the first arrival.
const LEAD_NS: u64 = 20_000_000;

/// What one rate's window measured, over the utterances that arrived in
/// it.
#[derive(Debug, Default)]
struct Rung {
    /// End of the window, s since the sender started.
    end: f64,
    /// Due time of each utterance's last packet to its transcript, ms.
    final_ms: Vec<f64>,
    /// Packet lateness against the schedule.
    lag: LagLog,
    /// Batched-scoring counters accumulated during the window.
    batch: BatchScoringStats,
}

/// One utterance in flight.
struct Live {
    rung: usize,
    utterance: usize,
    next_packet: usize,
    session: Option<Session>,
}

fn batch_delta(
    after: Option<BatchScoringStats>,
    before: Option<BatchScoringStats>,
) -> BatchScoringStats {
    let (a, b) = (after.unwrap_or_default(), before.unwrap_or_default());
    BatchScoringStats {
        batches: a.batches - b.batches,
        batched_rows: a.batched_rows - b.batched_rows,
        single_row_fallbacks: a.single_row_fallbacks - b.single_row_fallbacks,
        widest_batch: a.widest_batch,
        widened_flushes: a.widened_flushes - b.widened_flushes,
        idle_flushes: a.idle_flushes - b.idle_flushes,
        open_slots: a.open_slots,
        pending_rows: a.pending_rows,
    }
}

/// Offers `plan`'s windows (rate, share of `seconds`) back to back and
/// serves every packet from this thread at its due time.
fn offer(
    rt: &AsrRuntime,
    pool: &[Utterance],
    plan: &[(f64, f64)],
    seconds: f64,
    rng: &mut SplitMix64,
    report: &mut Report,
) -> Vec<Rung> {
    let mut rungs: Vec<Rung> = Vec::new();
    let mut live: Vec<Live> = Vec::new();
    let mut due: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut next_utterance = rng.below(pool.len());
    let mut start = LEAD_NS as f64 * 1e-9;
    for (i, &(rate, share)) in plan.iter().enumerate() {
        let window = seconds * share;
        let count = (rate * window).round() as usize;
        for t in poisson_arrivals(rate, count.max(1) * 4, rng) {
            if t >= window {
                break;
            }
            due.push(Reverse((((start + t) * 1e9) as u64, live.len())));
            live.push(Live {
                rung: i,
                utterance: next_utterance % pool.len(),
                next_packet: 0,
                session: None,
            });
            next_utterance += 1;
        }
        start += window;
        rungs.push(Rung {
            end: start,
            ..Rung::default()
        });
    }

    let mut mark = rt.stats().batch;
    let mut current = 0;
    let mut close_windows = |until: f64, rungs: &mut [Rung]| {
        while current < rungs.len() && until >= rungs[current].end {
            let now = rt.stats().batch;
            rungs[current].batch = batch_delta(now, mark);
            mark = now;
            current += 1;
        }
    };
    let epoch = Instant::now();
    while let Some(Reverse((due_ns, k))) = due.pop() {
        close_windows(due_ns as f64 * 1e-9, &mut rungs);
        let now = epoch.elapsed().as_nanos() as u64;
        if due_ns > now {
            std::thread::sleep(Duration::from_nanos(due_ns - now));
        }
        let l = &mut live[k];
        let rung = &mut rungs[l.rung];
        rung.lag
            .record(due_ns as f64 * 1e-9, epoch.elapsed().as_secs_f64());
        let u = &pool[l.utterance];
        let first = l.next_packet * PACKET_SAMPLES;
        let last = (first + PACKET_SAMPLES).min(u.samples.len());
        l.session
            .get_or_insert_with(|| rt.open_session())
            .push_samples(&u.samples[first..last]);
        l.next_packet += 1;
        if last < u.samples.len() {
            due.push(Reverse((due_ns + PACKET_NS, k)));
            continue;
        }
        let session = l.session.take().expect("opened with the first packet");
        let transcript = session.finalize();
        rung.final_ms
            .push((epoch.elapsed().as_secs_f64() - due_ns as f64 * 1e-9) * 1e3);
        report.check(Expected::of(&transcript) == u.expected);
    }
    close_windows(f64::INFINITY, &mut rungs);
    rungs
}

/// Probes the batched serving path for `seconds`, warm-up included, on a
/// runtime with the batch service, and fills the `runtime.batch.*`,
/// `runtime.shed_sessions` and `dnn.block_*` metrics. Returns the `high`
/// window's latency and lag, for readers. `replay` must hold the pool's
/// feature vectors.
pub fn probe(
    pool: &[Utterance],
    replay: &AudioReplay,
    seconds: f64,
    seed: u64,
    trace: &mut Trace,
    report: &mut Report,
    layers: &mut Layers,
) -> Vec<Metric> {
    let rt = AsrRuntime::demo_with(audio::runtime_config(true)).expect("the demo graph composes");
    let mut rng = SplitMix64::new(seed ^ 0x0BE4_0A11);
    offer(
        &rt,
        pool,
        &[(WARMUP_RATE, WARMUP_SHARE)],
        seconds,
        &mut rng,
        report,
    );
    let before = rt.stats();
    let plan = [(LOW_RATE, LOW_SHARE), (HIGH_RATE, HIGH_SHARE)];
    let rungs = offer(&rt, pool, &plan, seconds, &mut rng, report);
    let after = rt.stats();
    layers.runtime_shed_sessions = (after.shed_sessions - before.shed_sessions) as f64;

    let high = &rungs[1];
    let batch = high.batch;
    layers.batch_rows_per_batch = batch.batched_rows as f64 / batch.batches.max(1) as f64;
    layers.batch_single_row_fallback_share = batch.single_row_fallbacks as f64
        / (batch.batched_rows + batch.single_row_fallbacks).max(1) as f64;
    layers.batch_widest = batch.widest_batch as f64;
    layers.batch_idle_flushes = batch.idle_flushes as f64;
    let width = layers.batch_rows_per_batch.round().max(1.0) as usize;
    layers.dnn_block_rows = width as f64;
    layers.dnn_block_us_per_row = block_us_per_row(replay, width, trace);

    let finals = Summary::of(&high.final_ms);
    let mut lags = high.lag.lags_ms();
    lags.sort_by(f64::total_cmp);
    vec![
        Metric::new("probe.high.final_p50_ms", finals.p50, "ms"),
        Metric::new("probe.high.final_p90_ms", finals.p90, "ms"),
        Metric::new("probe.high.packet_lag_p90_ms", percentile(&lags, 0.9), "ms"),
    ]
}

/// Times [`Mlp::score_block_into`](asr_repro::acoustic::dnn::Mlp::score_block_into)
/// over the replayed feature vectors in blocks of `width` rows; µs per
/// row.
fn block_us_per_row(replay: &AudioReplay, width: usize, trace: &mut Trace) -> f64 {
    let mlp = replay.mlp();
    let dim = mlp.input_dim();
    let row_len = mlp.output_dim() + 1;
    let mut out = vec![0.0; width * row_len];
    let mut scratch = vec![0.0; mlp.block_scratch_len(width)];
    let mut scored = 0;
    for (i, block) in replay.feats.chunks_exact(width * dim).enumerate() {
        trace.span("dnn.block", SpanId::NONE, i as u32, || {
            mlp.score_block_into(block, width, &mut out, &mut scratch)
        });
        scored += width;
    }
    std::hint::black_box(&out);
    trace::total_ns(trace.spans(), "dnn.block") as f64 * 1e-3 / scored.max(1) as f64
}
