//! Raw-audio inputs and the layer replay for the demo-lexicon runtime with
//! the MLP acoustic model (`stream_dnn` and its batching probe).

use crate::report::Layers;
use crate::report::Report;
use crate::schedule::SplitMix64;
use crate::trace::{SpanId, Trace};
use asr_repro::acoustic::dnn::Mlp;
use asr_repro::acoustic::mfcc::{MfccConfig, MfccPipeline};
use asr_repro::acoustic::online::OnlineMfcc;
use asr_repro::acoustic::scores::AcousticTable;
use asr_repro::decoder::search::{DecodeResult, DecodeScratch, DecodeStats, ViterbiDecoder};
use asr_repro::decoder::stream::StreamingDecode;
use asr_repro::runtime::{AsrRuntime, BatchScoringConfig, RuntimeConfig, Transcript};
use asr_repro::wfst::lexicon::Lexicon;
use asr_repro::wfst::WordId;

/// Hidden layer widths of the acoustic MLP.
pub const MLP_HIDDEN: [usize; 2] = [512, 512];
/// Seed of the acoustic MLP's weights: part of the model, fixed.
pub const MLP_SEED: u64 = 0xD11_5EED;
/// Samples per pushed packet: 10 ms at 16 kHz.
pub const PACKET_SAMPLES: usize = 160;
/// Gather-window rows of the batched scoring service (the batching probe).
pub const BATCH_ROWS: usize = 64;
/// Utterances are 4 to 10 words long...
const MIN_WORDS: usize = 4;
const MAX_WORDS: usize = 10;
/// ...with this many utterances of each length, so every seed offers the
/// same mix of lengths and only the words differ.
const PER_LENGTH: usize = 12;

/// The runtime under test: demo lexicon, MLP acoustic model, default
/// lanes, with or without the batched scoring service.
pub fn runtime_config(batched: bool) -> RuntimeConfig {
    let config = RuntimeConfig::new().mlp_acoustic(&MLP_HIDDEN, MLP_SEED);
    if batched {
        config.batch_scoring(BatchScoringConfig::new(BATCH_ROWS))
    } else {
        config
    }
}

/// A transcript reduced to what must match exactly: words, cost bits and
/// whether the path ended in a final state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Expected {
    words: Vec<String>,
    cost_bits: u32,
    reached_final: bool,
}

impl Expected {
    /// From a runtime transcript.
    pub fn of(t: &Transcript) -> Self {
        Self {
            words: t.words.clone(),
            cost_bits: t.cost.to_bits(),
            reached_final: t.reached_final,
        }
    }

    /// From a decoder result, spelled through `lexicon`.
    pub fn decoded(lexicon: &Lexicon, words: &[WordId], cost: f32, reached_final: bool) -> Self {
        Self {
            words: lexicon.transcript(words),
            cost_bits: cost.to_bits(),
            reached_final,
        }
    }

    /// From a [`DecodeResult`].
    pub fn of_result(lexicon: &Lexicon, r: &DecodeResult) -> Self {
        Self::decoded(lexicon, &r.words, r.cost, r.reached_final)
    }
}

/// One seeded utterance with its reference transcript.
#[derive(Debug)]
pub struct Utterance {
    /// 16 kHz samples.
    pub samples: Vec<f32>,
    /// Acoustic frames (score rows) the utterance yields.
    pub frames: usize,
    /// Batch-scored rows, the input of the reference decode.
    pub table: AcousticTable,
    /// The reference transcript.
    pub expected: Expected,
}

/// A replica of the runtime's acoustic model, built as
/// [`RuntimeConfig::mlp_acoustic`] builds it: MFCC input width, the hidden
/// layers, one output per lexicon phone.
pub fn replica_mlp(rt: &AsrRuntime) -> Mlp {
    let mut dims = vec![MfccPipeline::new(MfccConfig::default()).dim()];
    dims.extend_from_slice(&MLP_HIDDEN);
    dims.push(rt.lexicon().num_phones());
    Mlp::new(&dims, MLP_SEED)
}

/// Batch-scores a waveform with the replica: the batch front-end, then
/// [`Mlp::score_row_into`] per frame.
fn replica_scores(pipeline: &MfccPipeline, mlp: &Mlp, samples: &[f32]) -> AcousticTable {
    let (mut x, mut y) = (Vec::new(), Vec::new());
    let rows: Vec<Vec<f32>> = pipeline
        .process(samples)
        .iter()
        .map(|feat| {
            let mut row = vec![0.0; mlp.output_dim() + 1];
            mlp.score_row_into(feat, &mut row, &mut x, &mut y);
            row
        })
        .collect();
    AcousticTable::from_fn(rows.len(), mlp.output_dim() + 1, |f, p| rows[f][p])
}

/// The seeded utterance pool, in seeded order, with reference transcripts:
/// batch-scored rows, then [`ViterbiDecoder`] over them.
///
/// The rows come from the replica model rather than [`AsrRuntime::score`],
/// which runs the network once per phone column; one check per run
/// confirms the replica scores exactly as `AsrRuntime::score` does.
pub fn utterances(rt: &AsrRuntime, seed: u64, report: &mut Report) -> Vec<Utterance> {
    let pipeline = MfccPipeline::new(MfccConfig::default());
    let mlp = replica_mlp(rt);
    let probe = rt.render_words(&["call", "mom"]).expect("demo words");
    let same = |a: &AcousticTable, b: &AcousticTable| {
        a.num_frames() == b.num_frames()
            && (0..a.num_frames()).all(|f| {
                let (ra, rb) = (a.frame_row(f), b.frame_row(f));
                ra.len() == rb.len() && ra.iter().zip(rb).all(|(x, y)| x.to_bits() == y.to_bits())
            })
    };
    report.check(same(
        &rt.score(&probe),
        &replica_scores(&pipeline, &mlp, &probe.samples),
    ));

    let mut rng = SplitMix64::new(seed);
    let lexicon = rt.lexicon();
    let mut vocabulary: Vec<&str> = (1..=lexicon.num_words())
        .filter_map(|i| lexicon.word_name(WordId::from_index(i)))
        .collect();
    let mut lengths: Vec<usize> = (MIN_WORDS..=MAX_WORDS)
        .flat_map(|n| std::iter::repeat_n(n, PER_LENGTH))
        .collect();
    rng.shuffle(&mut lengths);
    let reference = ViterbiDecoder::new(rt.options().clone());
    // Words are dealt from a shuffled deck of the vocabulary, reshuffled
    // when empty, so every word is spoken equally often on every seed.
    let mut dealt = vocabulary.len();
    lengths
        .into_iter()
        .map(|n| {
            let words: Vec<&str> = (0..n)
                .map(|_| {
                    if dealt == vocabulary.len() {
                        rng.shuffle(&mut vocabulary);
                        dealt = 0;
                    }
                    dealt += 1;
                    vocabulary[dealt - 1]
                })
                .collect();
            let utterance = rt
                .render_words(&words)
                .expect("words come from the runtime's lexicon");
            let table = replica_scores(&pipeline, &mlp, &utterance.samples);
            let expected = Expected::of_result(lexicon, &reference.decode(rt.graph(), &table));
            Utterance {
                frames: table.num_frames(),
                samples: utterance.samples,
                table,
                expected,
            }
        })
        .collect()
}

/// Search activity summed over decodes.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchCounts {
    /// Frames decoded.
    pub frames: u64,
    /// Arcs traversed.
    pub arcs: u64,
    /// Tokens expanded (beam survivors).
    pub expanded: u64,
    /// Tokens alive before pruning.
    pub active: u64,
}

impl SearchCounts {
    /// Adds one decode's statistics.
    pub fn add(&mut self, stats: &DecodeStats) {
        for f in &stats.frames {
            self.frames += 1;
            self.arcs += f.arcs_traversed as u64;
            self.expanded += f.expanded_tokens as u64;
            self.active += f.active_tokens as u64;
        }
    }

    /// Fills the `search.*` counts.
    pub fn fill(&self, layers: &mut Layers) {
        let frames = self.frames.max(1) as f64;
        layers.search_arcs_per_frame = self.arcs as f64 / frames;
        layers.search_expanded_per_frame = self.expanded as f64 / frames;
        layers.search_expanded_over_active = self.expanded as f64 / self.active.max(1) as f64;
    }
}

/// Replays a session's work layer by layer through the public layer APIs
/// — [`OnlineMfcc`] push/pop, [`Mlp::score_row_into`],
/// [`StreamingDecode::step`]/`finish` — recording a span around each
/// call. The transcript check proves the replay does the runtime's work.
#[derive(Debug)]
pub struct AudioReplay {
    mfcc: OnlineMfcc,
    mlp: Mlp,
    feat: Vec<f32>,
    row: Vec<f32>,
    front: Vec<f32>,
    x: Vec<f32>,
    y: Vec<f32>,
    scratch: Option<DecodeScratch>,
    /// Search activity of every replayed utterance.
    pub search: SearchCounts,
    /// Feature vectors of the replayed utterances, packed row-major (kept
    /// for the block-scoring replay).
    pub feats: Vec<f32>,
}

impl AudioReplay {
    /// A replica of `rt`'s streaming front-end, acoustic model and search.
    pub fn new(rt: &AsrRuntime) -> Self {
        let mfcc = OnlineMfcc::new(MfccConfig::default());
        let mlp = replica_mlp(rt);
        let row_len = mlp.output_dim() + 1;
        Self {
            feat: vec![0.0; mfcc.dim()],
            mfcc,
            mlp,
            row: vec![0.0; row_len],
            front: vec![0.0; row_len],
            x: Vec::new(),
            y: Vec::new(),
            scratch: Some(DecodeScratch::new(rt.graph().num_states())),
            search: SearchCounts::default(),
            feats: Vec::new(),
        }
    }

    /// The replica acoustic model.
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    /// Replays one utterance pushed in [`PACKET_SAMPLES`] packets; returns
    /// the replayed transcript.
    pub fn run(
        &mut self,
        rt: &AsrRuntime,
        samples: &[f32],
        trace: &mut Trace,
        parent: SpanId,
        request: u32,
    ) -> Expected {
        let scratch = self
            .scratch
            .take()
            .expect("scratch returned after every replay");
        let mut decode = StreamingDecode::new(rt.graph(), rt.options().clone(), scratch);
        let mut have_front = false;
        self.mfcc.reset();
        let packets = samples.chunks(PACKET_SAMPLES);
        let last = packets.len();
        for (i, packet) in packets.enumerate() {
            trace.span("online.push", parent, request, || {
                self.mfcc.push_samples(packet)
            });
            if i + 1 == last {
                trace.span("online.push", parent, request, || self.mfcc.finish());
            }
            loop {
                let popped = trace.span("online.pop", parent, request, || {
                    self.mfcc.pop_frame_into(&mut self.feat)
                });
                if !popped {
                    break;
                }
                self.feats.extend_from_slice(&self.feat);
                trace.span("dnn.row", parent, request, || {
                    self.mlp
                        .score_row_into(&self.feat, &mut self.row, &mut self.x, &mut self.y)
                });
                if have_front {
                    trace.span("search.step", parent, request, || decode.step(&self.front));
                }
                std::mem::swap(&mut self.front, &mut self.row);
                have_front = true;
            }
        }
        let last_row = have_front.then_some(self.front.as_slice());
        let (result, scratch) =
            trace.span("search.finish", parent, request, || decode.finish(last_row));
        self.scratch = Some(scratch);
        self.search.add(&result.stats);
        Expected::of_result(rt.lexicon(), &result)
    }
}
