//! `search_200k`: pre-scored utterances over a 200k-state synthetic graph
//! loaded from a v2 store image, decoded by the runtime's
//! `recognize_scores`.
//!
//! Search work per frame swings by an order of magnitude with random
//! scores, so every operation gets a fresh seeded table: a run then
//! averages over hundreds of distinct utterances instead of replaying a
//! few. Each table's reference decode runs after the measured call.

use crate::audio::{Expected, SearchCounts};
use crate::closed_loop::{self, Served};
use crate::host::ProgramRss;
use crate::report::{EndToEnd, Layers, Metric, Report};
use crate::schedule::SplitMix64;
use crate::sim::{Prepared, SimTotals};
use crate::trace::{self, SpanId, Trace};
use crate::{pool_layers, timed_setup, Ctx};
use asr_repro::acoustic::scores::AcousticTable;
use asr_repro::decoder::parallel::ParallelDecoder;
use asr_repro::decoder::search::{DecodeOptions, DecodeScratch, ViterbiDecoder};
use asr_repro::decoder::stream::StreamingDecode;
use asr_repro::runtime::{AsrRuntime, RuntimeConfig};
use asr_repro::wfst::lexicon::Lexicon;
use asr_repro::wfst::sorted::SortedWfst;
use asr_repro::wfst::store::{self, GraphImage, ImageBytes};
use asr_repro::wfst::synth::{SynthConfig, SynthWfst};
use asr_repro::wfst::Wfst;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Graph states.
pub const STATES: usize = 200_000;
/// Seed of the synthetic graph: part of the model, fixed.
pub const GRAPH_SEED: u64 = 0xBEA7;
/// Frames per utterance: 2 s of speech.
pub const FRAMES: usize = 200;
/// Beam width.
pub const BEAM: f32 = 12.0;
/// Range of the random acoustic costs.
const COST_RANGE: (f32, f32) = (0.5, 4.0);
/// Utterances of the traced pass replayed layer by layer, at most.
const REPLAYED: usize = 16;
/// Seed of the utterance set-up warms the runtime on, fixed so set-up
/// does the same work on every seed.
const WARMUP_SEED: u64 = 0x3A2E_0000;

/// The model: the graph as a store image on disk, and a lexicon naming
/// every word label (`w<id>`), so transcripts compare word by word.
#[derive(Debug)]
pub struct Model {
    /// Path of the v2 store image.
    pub image: PathBuf,
    /// The lexicon.
    pub lexicon: Lexicon,
    /// Score columns a table needs (the graph's phone labels, epsilon
    /// included).
    pub phones: usize,
}

impl Model {
    /// Generates the graph and writes its image into `out_dir`.
    pub fn generate(out_dir: &Path) -> Self {
        let cfg = SynthConfig::with_states(STATES).with_seed(GRAPH_SEED);
        let graph = SynthWfst::generate(&cfg).expect("synthetic graph generation");
        let sorted = SortedWfst::new(&graph).expect("synthetic graphs sort");
        let image = out_dir.join(format!("synth{STATES}.wfstimg"));
        store::save(&sorted, &image).expect("the output directory is writable");
        let mut lexicon = Lexicon::new();
        for w in 1..=cfg.vocab_size {
            lexicon.add_word(&format!("w{w}"), &["p"]);
        }
        Self {
            image,
            lexicon,
            phones: graph.num_phones() as usize,
        }
    }

    /// The next seeded utterance.
    fn table(&self, rng: &mut SplitMix64) -> AcousticTable {
        AcousticTable::random(FRAMES, self.phones, COST_RANGE, rng.next_u64())
    }
}

/// The reference decoder: [`ViterbiDecoder`] over the same rows, with a
/// reused scratch.
struct Reference {
    decoder: ViterbiDecoder,
    scratch: DecodeScratch,
}

impl Reference {
    fn new(graph: &Wfst) -> Self {
        Self {
            decoder: ViterbiDecoder::new(DecodeOptions::with_beam(BEAM)),
            scratch: DecodeScratch::new(graph.num_states()),
        }
    }

    fn expected(&mut self, graph: &Wfst, lexicon: &Lexicon, table: &AcousticTable) -> Expected {
        let r = self.decoder.decode_with(&mut self.scratch, graph, table);
        Expected::of_result(lexicon, &r)
    }
}

/// Loads the store image: the file mapping (`store.image_load`), then
/// the validation that builds the typed views (`store.validate`).
pub fn load_image(path: &Path, trace: &mut Trace) -> GraphImage {
    let bytes = trace.span("store.image_load", SpanId::NONE, 0, || {
        ImageBytes::read_file(path).expect("image written during input generation")
    });
    trace.span("store.validate", SpanId::NONE, 0, || {
        GraphImage::from_image_bytes(bytes).expect("a freshly written image validates")
    })
}

/// Mean duration in ms of the spans named `name`.
fn mean_ms(spans: &[trace::Span], name: &str) -> f64 {
    trace::total_ns(spans, name) as f64 * 1e-6 / trace::count(spans, name).max(1) as f64
}

/// Loads the image and builds the runtime over its zero-copy graph, then
/// warms the runtime (executor, pools, mapped pages) on one utterance.
fn set_up(model: &Model, warmup: &AcousticTable, trace: &mut Trace) -> AsrRuntime {
    let image = load_image(&model.image, trace);
    let rt = trace.span("runtime.build", SpanId::NONE, 0, || {
        AsrRuntime::with_graph(
            image.wfst().clone(),
            model.lexicon.clone(),
            RuntimeConfig::new().beam(BEAM),
        )
    });
    trace.span("runtime.warmup", SpanId::NONE, 0, || {
        std::hint::black_box(rt.recognize_scores(warmup));
    });
    rt
}

/// Decodes one pre-scored utterance with `recognize_scores`.
fn serve(rt: &AsrRuntime, table: &AcousticTable, id: u32, trace: &mut Trace) -> Served {
    let request = trace.begin("request", SpanId::NONE, id);
    let start = Instant::now();
    let transcript = trace.span("runtime.recognize_scores", request, id, || {
        rt.recognize_scores(table)
    });
    let elapsed = start.elapsed();
    let got = Expected::of(&transcript);
    trace.end(request);
    (elapsed, table.num_frames() as u64, got)
}

/// Replays the first `count` utterances `rng` draws (request ids
/// `0..count`) through each search layer — [`StreamingDecode`] step by
/// step, a parallel decoder leased from the runtime, and the accelerator
/// simulator — checking each against the reference, and fills the
/// `search.*`, `parallel.*` and `sim.*` metrics.
#[allow(clippy::too_many_arguments)]
fn replay(
    rt: &AsrRuntime,
    model: &Model,
    rng: &mut SplitMix64,
    count: usize,
    reference: &mut Reference,
    prepared: &Prepared,
    trace: &mut Trace,
    report: &mut Report,
    layers: &mut Layers,
) {
    let leased: ParallelDecoder = rt.lease_decoder();
    let mut scratch = Some(DecodeScratch::new(rt.graph().num_states()));
    let mut counts = SearchCounts::default();
    let mut sim = SimTotals::default();
    for i in 0..count {
        let table = model.table(rng);
        let want = reference.expected(rt.graph(), &model.lexicon, &table);
        let (id, last) = (i as u32, table.num_frames() - 1);
        let root = trace.begin("replay", SpanId::NONE, id);
        let taken = scratch.take().expect("scratch returned after every replay");
        let mut decode = StreamingDecode::new(rt.graph(), rt.options().clone(), taken);
        for f in 0..last {
            trace.span("search.step", root, id, || decode.step(table.frame_row(f)));
        }
        let (result, taken) = trace.span("search.finish", root, id, || {
            decode.finish(Some(table.frame_row(last)))
        });
        scratch = Some(taken);
        counts.add(&result.stats);
        report.check(Expected::of_result(&model.lexicon, &result) == want);
        let parallel = trace.span("parallel.decode", root, id, || {
            leased.decode(rt.graph(), &table)
        });
        report.check(Expected::of_result(&model.lexicon, &parallel) == want);
        let (r, host_ns) = trace.span("sim.decode", root, id, || prepared.decode(&table));
        report.check(Expected::decoded(&model.lexicon, &r.words, r.cost, r.reached_final) == want);
        sim.add(prepared.sim.config(), &r, host_ns);
        trace.end(root);
    }
    let spans = trace.spans();
    let per_frame = |name: &str| trace::total_ns(spans, name) as f64 * 1e-3 / counts.frames as f64;
    layers.search_step_us_per_frame = per_frame("search.step");
    layers.search_finish_us = trace::total_ns(spans, "search.finish") as f64 * 1e-3 / count as f64;
    layers.parallel_us_per_frame = per_frame("parallel.decode");
    counts.fill(layers);
    sim.fill(layers);
    layers.sim_prepare_ms = prepared.prepare_ns as f64 * 1e-6;
}

/// Runs `search_200k`: a fresh seeded utterance per operation until the
/// time is up.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let model = Model::generate(&ctx.out_dir);
    let warmup = model.table(&mut SplitMix64::new(WARMUP_SEED));
    let mut rss = ProgramRss::start();
    let (rt, setup_s) = timed_setup(|| set_up(&model, &warmup, &mut Trace::new(false)));
    rss.sample();
    report.lanes = rt.lanes();
    let mut reference = rss.exclude(|| {
        let mut reference = Reference::new(rt.graph());
        reference.expected(rt.graph(), &model.lexicon, &warmup);
        reference
    });
    let mut rng = SplitMix64::new(ctx.seed);
    let input = |_: u32| model.table(&mut rng);
    let serve = |table: &AcousticTable, id, trace: &mut Trace| serve(&rt, table, id, trace);
    let want = |table: &AcousticTable| reference.expected(rt.graph(), &model.lexicon, table);
    if !ctx.trace {
        let pass = closed_loop::untraced(ctx.seconds, rss, &mut report, input, serve, want);
        report.metrics = pass.e2e(setup_s).metrics();
        report.details = crate::latency_details(&pass.latencies_ms);
        return report;
    }

    let mut trace = Trace::new(true);
    let (plain_setup_s, traced_setup_s) =
        crate::paired_setup(&mut trace, |trace| set_up(&model, &warmup, trace));
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

    // The replay decodes the loop's first utterances again.
    let mut layers = Layers::default();
    let prepared = Prepared::new(rt.graph(), BEAM);
    let replayed = REPLAYED.min(traced.latencies_ms.len());
    replay(
        &rt,
        &model,
        &mut SplitMix64::new(ctx.seed),
        replayed,
        &mut reference,
        &prepared,
        &mut trace,
        &mut report,
        &mut layers,
    );
    let spans = trace.spans();
    let session_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "runtime.recognize_scores" && (s.request as usize) < replayed)
        .map(trace::Span::duration)
        .sum();
    layers.runtime_session_us_per_frame = session_ns as f64 * 1e-3 / (replayed * FRAMES) as f64;
    // The route shows in the scratch pool: only the session path checks a
    // scratch out. The self time subtracts the replay of the decoder the
    // route ran on the same utterances.
    let session_route = after.scratch.checkouts() > before.scratch.checkouts();
    let routed = if session_route {
        layers.search_step_us_per_frame + layers.search_finish_us / FRAMES as f64
    } else {
        layers.parallel_us_per_frame
    };
    layers.runtime_session_self_us_per_frame = layers.runtime_session_us_per_frame - routed;
    pool_layers(&mut layers, &before, &after, plain.frames + traced.frames);
    layers.store_image_load_ms = mean_ms(spans, "store.image_load");
    layers.store_validate_ms = mean_ms(spans, "store.validate");
    layers.trace_span_count = spans.len() as f64;
    layers.trace_client_self_us_per_frame = crate::client_self_us_per_frame(spans, traced.frames);
    report.details.push(Metric::new(
        "search.route_is_session",
        f64::from(u8::from(session_route)),
        "bool",
    ));
    report.metrics = layers.metrics();
    report.metrics.extend(EndToEnd::overhead(
        &traced.e2e(traced_setup_s),
        &plain.e2e(plain_setup_s),
    ));
    crate::write_spans(ctx, &trace);
    report
}
