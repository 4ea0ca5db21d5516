//! Microbenchmarks of the simulator's hardware building blocks and the
//! software substrates: per-operation costs of the cache, hash table, DRAM
//! model and in-order window, plus the front-end (FFT/MFCC), the MLP
//! forward pass (one row and one 8-row block) and the reference decoder's
//! per-frame step.

use asr_accel::config::{AcceleratorConfig, CacheConfig, DesignPoint};
use asr_accel::hash::HashTable;
use asr_accel::mem::{Cache, Dram, TrafficKind};
use asr_accel::prefetch::InOrderWindow;
use asr_accel::sim::Simulator;
use asr_acoustic::dnn::Mlp;
use asr_acoustic::fft::power_spectrum;
use asr_acoustic::mfcc::{MfccConfig, MfccPipeline};
use asr_acoustic::scores::AcousticTable;
use asr_acoustic::signal::{render_phones, SignalConfig};
use asr_decoder::reference::ReferenceDecoder;
use asr_decoder::search::{DecodeOptions, DecodeScratch, ViterbiDecoder};
use asr_wfst::synth::{SynthConfig, SynthWfst};
use asr_wfst::PhoneId;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    group.bench_function("access_hit", |b| {
        let mut cache = Cache::new(
            CacheConfig {
                capacity: 1024 * 1024,
                ways: 4,
                line: 64,
            },
            false,
        );
        cache.access(0x1000, false);
        b.iter(|| black_box(cache.access(black_box(0x1000), false)))
    });
    group.bench_function("access_streaming_misses", |b| {
        let mut cache = Cache::new(
            CacheConfig {
                capacity: 1024 * 1024,
                ways: 4,
                line: 64,
            },
            false,
        );
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr.wrapping_add(4096);
            black_box(cache.access(black_box(addr), false))
        })
    });
    group.finish();
}

fn bench_hash(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash");
    group.bench_function("access_32k_entries", |b| {
        let mut h = HashTable::new(32 * 1024, false);
        // Realistic state space: the timing model's slot arrays are dense
        // per-state, like the token table they shadow.
        h.reserve_states(1 << 20);
        let mut s = 0u32;
        b.iter(|| {
            s = s.wrapping_add(7919) & ((1 << 20) - 1);
            black_box(h.access(black_box(s)))
        })
    });
    group.finish();
}

fn bench_dram_and_window(c: &mut Criterion) {
    let mut group = c.benchmark_group("mem_models");
    group.bench_function("dram_request", |b| {
        let mut d = Dram::new(50, 32, 64);
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            black_box(d.request(black_box(t), TrafficKind::Arcs))
        })
    });
    group.bench_function("inorder_window_push", |b| {
        let mut w = InOrderWindow::new(64);
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            black_box(w.push(black_box(t + 50)))
        })
    });
    group.finish();
}

fn bench_frontend(c: &mut Criterion) {
    let mut group = c.benchmark_group("acoustic_frontend");
    let frame: Vec<f32> = (0..160).map(|i| (i as f32 * 0.1).sin()).collect();
    group.bench_function("fft_256", |b| {
        b.iter(|| black_box(power_spectrum(black_box(&frame), 256)))
    });
    let pipeline = MfccPipeline::new(MfccConfig::default());
    let wave = render_phones(&[PhoneId(1); 10], 6, &SignalConfig::default());
    group.bench_function("mfcc_60_frames", |b| {
        b.iter(|| black_box(pipeline.process(black_box(&wave))))
    });
    group.finish();
}

fn bench_mlp(c: &mut Criterion) {
    let mut group = c.benchmark_group("mlp");
    let mlp = Mlp::new(&[39, 512, 512, 20], 7);
    let row_len = mlp.output_dim() + 1;
    let features: Vec<f32> = (0..8 * mlp.input_dim())
        .map(|i| (i as f32 * 0.37).sin())
        .collect();
    group.bench_function("mlp_row_39x512x512x20", |b| {
        let (mut x, mut y) = (Vec::new(), Vec::new());
        let mut row = vec![0.0; row_len];
        b.iter(|| {
            mlp.score_row_into(
                black_box(&features[..mlp.input_dim()]),
                &mut row,
                &mut x,
                &mut y,
            );
            black_box(row[1])
        })
    });
    group.bench_function("mlp_block_8rows", |b| {
        let mut out = vec![0.0; 8 * row_len];
        let mut scratch = vec![0.0; mlp.block_scratch_len(8)];
        b.iter(|| {
            mlp.score_block_into(black_box(&features), 8, &mut out, &mut scratch);
            black_box(out[1])
        })
    });
    group.finish();
}

fn bench_decoder_and_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("search");
    group.sample_size(20);
    let wfst = SynthWfst::generate(&SynthConfig::with_states(20_000)).unwrap();
    let scores = AcousticTable::random(10, wfst.num_phones() as usize, (0.5, 4.0), 5);
    group.bench_function("hashmap_reference_10_frames", |b| {
        let d = ReferenceDecoder::new(DecodeOptions::with_beam(10.0));
        b.iter(|| black_box(d.decode(black_box(&wfst), black_box(&scores))))
    });
    group.bench_function("token_table_decoder_10_frames", |b| {
        let d = ViterbiDecoder::new(DecodeOptions::with_beam(10.0));
        b.iter(|| black_box(d.decode(black_box(&wfst), black_box(&scores))))
    });
    group.bench_function("token_table_reused_scratch_10_frames", |b| {
        let d = ViterbiDecoder::new(DecodeOptions::with_beam(10.0));
        let mut scratch = DecodeScratch::new(wfst.num_states());
        b.iter(|| black_box(d.decode_with(&mut scratch, black_box(&wfst), black_box(&scores))))
    });
    group.bench_function("simulator_base_10_frames", |b| {
        let sim = Simulator::new(AcceleratorConfig::for_design(DesignPoint::Base).with_beam(10.0));
        b.iter(|| {
            black_box(
                sim.decode_wfst(black_box(&wfst), black_box(&scores))
                    .unwrap(),
            )
        })
    });
    group.bench_function("simulator_final_10_frames", |b| {
        let sim =
            Simulator::new(AcceleratorConfig::for_design(DesignPoint::StateAndArc).with_beam(10.0));
        b.iter(|| {
            black_box(
                sim.decode_wfst(black_box(&wfst), black_box(&scores))
                    .unwrap(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cache,
    bench_hash,
    bench_dram_and_window,
    bench_frontend,
    bench_mlp,
    bench_decoder_and_sim
);
criterion_main!(benches);
