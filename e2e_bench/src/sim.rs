//! The accelerator simulator as a layer: simulated time and energy per
//! second of speech, its hardware counters, and its host cost.

use crate::report::Layers;
use asr_repro::accel::energy::{EnergyModel, EnergyParams};
use asr_repro::accel::{AcceleratorConfig, DesignPoint, PreparedWfst, SimResult, Simulator};
use asr_repro::acoustic::scores::AcousticTable;
use asr_repro::wfst::Wfst;
use std::time::Instant;

/// Seconds of speech per frame (10 ms frame shift).
pub const FRAME_SECONDS: f64 = 0.01;

/// The paper's final design point at beam `beam`.
pub fn config(beam: f32) -> AcceleratorConfig {
    AcceleratorConfig::for_design(DesignPoint::StateAndArc).with_beam(beam)
}

/// A prepared design point and the time its preparation took.
#[derive(Debug)]
pub struct Prepared {
    /// The simulator.
    pub sim: Simulator,
    /// The graph in the design point's layout.
    pub graph: PreparedWfst,
    /// Wall time of [`PreparedWfst::new`], ns.
    pub prepare_ns: u64,
}

impl Prepared {
    /// Prepares `graph` for the final design point at `beam`.
    pub fn new(graph: &Wfst, beam: f32) -> Self {
        let cfg = config(beam);
        let start = Instant::now();
        let prepared = PreparedWfst::new(graph, &cfg).expect("synthetic graphs re-layout cleanly");
        let prepare_ns = start.elapsed().as_nanos() as u64;
        Self {
            sim: Simulator::new(cfg),
            graph: prepared,
            prepare_ns,
        }
    }

    /// Simulates one utterance, returning the result and its host time in
    /// ns.
    pub fn decode(&self, table: &AcousticTable) -> (SimResult, u64) {
        let start = Instant::now();
        let result = self
            .sim
            .decode(&self.graph, table)
            .expect("a freshly prepared layout matches its index unit");
        (
            std::hint::black_box(result),
            start.elapsed().as_nanos() as u64,
        )
    }
}

/// Simulated statistics summed over utterances.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimTotals {
    /// Frames simulated.
    pub frames: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Simulated seconds.
    pub seconds: f64,
    /// Simulated energy, J.
    pub energy_j: f64,
    /// Host time spent in the simulator, ns.
    pub host_ns: u64,
    arcs: u64,
    state: (u64, u64),
    arc: (u64, u64),
    token: (u64, u64),
    overflow: u64,
    offchip_bytes: u64,
}

impl SimTotals {
    /// Adds one simulated utterance.
    pub fn add(&mut self, cfg: &AcceleratorConfig, r: &SimResult, host_ns: u64) {
        let s = &r.stats;
        self.frames += s.frames as u64;
        self.cycles += s.cycles;
        self.seconds += s.seconds(cfg.frequency_hz);
        self.energy_j += EnergyModel::new(EnergyParams::default())
            .energy(cfg, s)
            .total_j();
        self.host_ns += host_ns;
        self.arcs += s.arcs_processed + s.eps_arcs_processed;
        self.state.0 += s.state_cache.hits;
        self.state.1 += s.state_cache.accesses();
        self.arc.0 += s.arc_cache.hits;
        self.arc.1 += s.arc_cache.accesses();
        self.token.0 += s.token_cache.hits;
        self.token.1 += s.token_cache.accesses();
        self.overflow += s.hash.overflow_accesses;
        let t = &s.traffic;
        self.offchip_bytes += t.states + t.arcs + t.tokens + t.overflow + t.acoustic;
    }

    fn speech_seconds(&self) -> f64 {
        self.frames as f64 * FRAME_SECONDS
    }

    /// Simulated milliseconds per second of speech.
    pub fn ms_per_speech_s(&self) -> f64 {
        self.seconds * 1e3 / self.speech_seconds()
    }

    /// Simulated millijoules per second of speech.
    pub fn mj_per_speech_s(&self) -> f64 {
        self.energy_j * 1e3 / self.speech_seconds()
    }

    /// Fills the `sim.*` per-layer metrics (all but `sim.prepare_ms`).
    pub fn fill(&self, layers: &mut Layers) {
        let ratio = |(hits, accesses): (u64, u64)| {
            if accesses == 0 {
                0.0
            } else {
                hits as f64 / accesses as f64
            }
        };
        let frames = self.frames as f64;
        layers.sim_host_us_per_frame = self.host_ns as f64 * 1e-3 / frames;
        layers.sim_cycles_per_frame = self.cycles as f64 / frames;
        layers.sim_cycles_per_arc = self.cycles as f64 / self.arcs.max(1) as f64;
        layers.sim_state_cache_hit_ratio = ratio(self.state);
        layers.sim_arc_cache_hit_ratio = ratio(self.arc);
        layers.sim_token_cache_hit_ratio = ratio(self.token);
        layers.sim_hash_overflow_accesses = self.overflow as f64;
        layers.sim_offchip_bytes_per_frame = self.offchip_bytes as f64 / frames;
        layers.sim_ms_per_speech_s = self.ms_per_speech_s();
        layers.sim_mj_per_speech_s = self.mj_per_speech_s();
    }
}
