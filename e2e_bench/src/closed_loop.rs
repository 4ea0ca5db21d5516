//! The closed loop of one client: one operation after another until a
//! time budget has been spent inside the program.
//!
//! An untraced run drives the loop once. A traced run drives every
//! operation twice on the same input, once untraced and once traced, in
//! alternating order, so the tracing overhead is a difference of paired
//! figures taken under the same host conditions.

use crate::audio::Expected;
use crate::host::ProgramRss;
use crate::report::{EndToEnd, Report};
use crate::stats::Summary;
use crate::trace::Trace;
use std::time::Duration;

/// What one operation measured: its time inside the program, the frames
/// it recognized, and its transcript.
pub type Served = (Duration, u64, Expected);

/// What one side of a closed loop measured.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Latency of every operation, ms.
    pub latencies_ms: Vec<f64>,
    /// Frames recognized.
    pub frames: u64,
    /// Time inside the program, ns.
    pub busy_ns: u64,
    /// The program's resident memory, sampled after every operation.
    pub rss: ProgramRss,
}

impl Pass {
    fn new(rss: ProgramRss) -> Self {
        Self {
            latencies_ms: Vec::new(),
            frames: 0,
            busy_ns: 0,
            rss,
        }
    }

    fn record(&mut self, elapsed: Duration, frames: u64) {
        self.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
        self.busy_ns += elapsed.as_nanos() as u64;
        self.frames += frames;
    }

    /// The end-to-end metrics this pass measures.
    pub fn e2e(&self, setup_s: f64) -> EndToEnd {
        let lat = Summary::of(&self.latencies_ms);
        EndToEnd {
            setup_s,
            rss_peak_mb: self.rss.mb(),
            frames_per_s: self.frames as f64 / (self.busy_ns as f64 * 1e-9),
            utt_latency_p50_ms: lat.p50,
            utt_latency_p90_ms: lat.p90,
        }
    }
}

/// Runs operations `0, 1, ...` untraced until `seconds` have been spent
/// inside the program. `input(i)` makes operation `i`'s input, `serve`
/// performs it, and `want` gives its reference transcript, computed after
/// the measured call so that it does not warm the caches for it.
pub fn untraced<I>(
    seconds: f64,
    rss: ProgramRss,
    report: &mut Report,
    mut input: impl FnMut(u32) -> I,
    mut serve: impl FnMut(&I, u32, &mut Trace) -> Served,
    mut want: impl FnMut(&I) -> Expected,
) -> Pass {
    let mut pass = Pass::new(rss);
    let mut off = Trace::new(false);
    let budget_ns = (seconds * 1e9) as u64;
    let mut i = 0;
    while pass.latencies_ms.is_empty() || pass.busy_ns < budget_ns {
        let x = input(i);
        let (elapsed, frames, got) = serve(&x, i, &mut off);
        report.check(got == want(&x));
        pass.record(elapsed, frames);
        pass.rss.sample();
        i += 1;
    }
    pass
}

/// Like [`untraced`], but serves every input twice, untraced and into
/// `trace`, alternating which goes first, until the two sides together
/// have spent `seconds` inside the program. Returns the untraced and the
/// traced side. The untraced side's memory samples leave out the trace
/// buffer.
pub fn paired<I>(
    seconds: f64,
    rss: ProgramRss,
    trace: &mut Trace,
    report: &mut Report,
    mut input: impl FnMut(u32) -> I,
    mut serve: impl FnMut(&I, u32, &mut Trace) -> Served,
    mut want: impl FnMut(&I) -> Expected,
) -> (Pass, Pass) {
    let (mut plain, mut traced) = (Pass::new(rss), Pass::new(rss));
    let mut off = Trace::new(false);
    let budget_ns = (seconds * 1e9) as u64;
    let mut i = 0;
    while plain.latencies_ms.is_empty() || plain.busy_ns + traced.busy_ns < budget_ns {
        let x = input(i);
        let mut got = Vec::with_capacity(2);
        for traced_side in [i % 2 == 1, i % 2 == 0] {
            if traced_side {
                let (elapsed, frames, t) = serve(&x, i, trace);
                traced.record(elapsed, frames);
                traced.rss.sample();
                got.push(t);
            } else {
                let (elapsed, frames, t) = serve(&x, i, &mut off);
                plain.record(elapsed, frames);
                plain.rss.sample_less(trace.held_bytes());
                got.push(t);
            }
        }
        let want = want(&x);
        for t in got {
            report.check(t == want);
        }
        i += 1;
    }
    (plain, traced)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_serves_each_input_on_both_sides_in_alternating_order() {
        let mut trace = Trace::new(true);
        let mut report = Report::default();
        let mut order = Vec::new();
        let (plain, traced) = paired(
            2.5e-3,
            ProgramRss::start(),
            &mut trace,
            &mut report,
            |i| i,
            |&x, _, t: &mut Trace| {
                order.push((x, t.enabled()));
                (Duration::from_millis(1), 10, Expected::default())
            },
            |_| Expected::default(),
        );
        assert_eq!(order, vec![(0, false), (0, true), (1, true), (1, false)]);
        assert_eq!((plain.frames, traced.frames), (20, 20));
        assert_eq!((report.attempted, report.failed), (4, 0));
    }
}
