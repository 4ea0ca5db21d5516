//! From-scratch multi-layer perceptron acoustic model.
//!
//! The paper's hybrid system runs a DNN on the GPU to produce per-phone
//! likelihoods while the accelerator searches. This module implements that
//! DNN: dense layers with ReLU activations and a log-softmax output over
//! the phone set. Weights are deterministic (seeded Xavier-style init);
//! since no training corpus ships with the reproduction, *functional*
//! decoding accuracy comes from [`crate::template`], while this MLP
//! provides the realistic compute/memory workload for the platform models
//! (FLOP counts, batch scoring).

use crate::scores::AcousticTable;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Inputs folded per pass over a row's accumulators: one load and store
/// of each accumulator covers this many multiply-adds.
const INPUTS_PER_PASS: usize = 4;

/// Rows of a block that share one read of the weight matrix.
const ROWS_PER_GROUP: usize = 8;

/// One dense layer: `y = W x + b`.
#[derive(Debug, Clone)]
pub struct Dense {
    weights: Vec<f32>, // input-major [in][out]
    bias: Vec<f32>,
    in_dim: usize,
    out_dim: usize,
}

impl Dense {
    /// Creates a layer with Xavier-uniform weights drawn from `rng`.
    ///
    /// Weights are drawn output by output (`W[o][i]`, `i` fastest) and
    /// stored input-major: the draw order is part of what a seed means,
    /// and the golden test in this module pins it.
    pub fn random<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "degenerate layer shape");
        let limit = (6.0 / (in_dim + out_dim) as f32).sqrt();
        let mut weights = vec![0.0; in_dim * out_dim];
        for o in 0..out_dim {
            for slot in weights[o..].iter_mut().step_by(out_dim) {
                *slot = rng.gen_range(-limit..limit);
            }
        }
        let bias = vec![0.0; out_dim];
        Self {
            weights,
            bias,
            in_dim,
            out_dim,
        }
    }

    /// Applies the affine map.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != in_dim`.
    pub fn forward(&self, input: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.forward_into(input, &mut out);
        out
    }

    /// Allocation-free form of [`Dense::forward`]: `out` is cleared and
    /// refilled (no allocation once its capacity reaches the layer
    /// width). This is [`Dense::forward_block_into`] on a block of one
    /// row, so it folds every output in the same order.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != in_dim`.
    pub fn forward_into(&self, input: &[f32], out: &mut Vec<f32>) {
        assert_eq!(input.len(), self.in_dim, "layer input dimension mismatch");
        out.clear();
        out.resize(self.out_dim, 0.0);
        self.forward_block_into(input, self.in_dim, 1, out, self.out_dim);
    }

    /// Multiply-accumulate count of one forward pass.
    pub fn flops(&self) -> u64 {
        2 * (self.in_dim as u64) * (self.out_dim as u64)
    }

    /// Applies the affine map to a *block* of `rows` input vectors at
    /// once — the matrix–matrix form of [`Dense::forward_into`] that
    /// cross-session batched scoring runs once per gather window.
    ///
    /// The weights are stored input-major, so input `i` owns one
    /// contiguous row of `out_dim` weights, and each output row is
    /// computed as a sequence of axpys: `acc[o] += w[i][o] * x[i]` for
    /// `i` ascending, from accumulators at `-0.0`, with the bias added
    /// last. The lanes of an axpy are independent outputs, so the loop
    /// vectorises across `o`, while each output still folds its products
    /// one at a time in input order. That is exactly the fold of
    /// `row.iter().zip(x).map(|(w, x)| w * x).sum::<f32>() + b` over an
    /// `[out][in]` row (`f32` sums start at `-0.0`, and Rust never fuses
    /// a multiply and an add), so every output is **bit-identical** to
    /// the dot-product form, on every path and whatever rows share the
    /// block. Rows are taken in groups that share each read of the
    /// weights, so a block of `B` rows reads the weight matrix about
    /// `B / 8` times instead of `B` times.
    ///
    /// `input` and `out` are caller-owned slices holding one vector per
    /// row at the given strides (`input[r * in_stride ..][.. in_dim]`,
    /// `out[r * out_stride ..][.. out_dim]`); nothing here can grow or
    /// allocate, and the padding past each row's width is not touched.
    ///
    /// # Panics
    ///
    /// Panics if a stride is narrower than the matching dimension or
    /// either slice is too short for `rows`.
    pub fn forward_block_into(
        &self,
        input: &[f32],
        in_stride: usize,
        rows: usize,
        out: &mut [f32],
        out_stride: usize,
    ) {
        if rows == 0 {
            return;
        }
        assert!(in_stride >= self.in_dim, "input stride below layer width");
        assert!(
            out_stride >= self.out_dim,
            "output stride below layer width"
        );
        assert!(
            input.len() >= (rows - 1) * in_stride + self.in_dim,
            "input block too short for {rows} rows"
        );
        assert!(
            out.len() >= (rows - 1) * out_stride + self.out_dim,
            "output block too short for {rows} rows"
        );
        let (k, n) = (self.in_dim, self.out_dim);
        for first in (0..rows).step_by(ROWS_PER_GROUP) {
            let group = first..rows.min(first + ROWS_PER_GROUP);
            for r in group.clone() {
                out[r * out_stride..r * out_stride + n].fill(-0.0);
            }
            for i in (0..k).step_by(INPUTS_PER_PASS) {
                let end = k.min(i + INPUTS_PER_PASS);
                let w = &self.weights[i * n..end * n];
                for r in group.clone() {
                    let x = &input[r * in_stride + i..r * in_stride + end];
                    fold_inputs(&mut out[r * out_stride..r * out_stride + n], w, x);
                }
            }
            for r in group {
                for (acc, b) in out[r * out_stride..r * out_stride + n]
                    .iter_mut()
                    .zip(&self.bias)
                {
                    *acc += b;
                }
            }
        }
    }
}

/// Folds inputs `xs` into one output row: `acc[o] += w[i][o] * xs[i]` for
/// `i` ascending, where `w` holds `xs.len()` weight rows of `acc.len()`
/// each. Every product is rounded and added on its own, in input order; a
/// full pass of [`INPUTS_PER_PASS`] inputs does its four adds per output
/// while the accumulator sits in a register.
fn fold_inputs(acc: &mut [f32], w: &[f32], xs: &[f32]) {
    let n = acc.len();
    if let [x0, x1, x2, x3] = *xs {
        let (w0, rest) = w.split_at(n);
        let (w1, rest) = rest.split_at(n);
        let (w2, w3) = rest.split_at(n);
        for ((((a, w0), w1), w2), w3) in acc.iter_mut().zip(w0).zip(w1).zip(w2).zip(w3) {
            *a = (((*a + w0 * x0) + w1 * x1) + w2 * x2) + w3 * x3;
        }
    } else {
        for (w, &x) in w.chunks_exact(n).zip(xs) {
            for (a, w) in acc.iter_mut().zip(w) {
                *a += w * x;
            }
        }
    }
}

/// A feed-forward acoustic network: input features → hidden ReLU layers →
/// log-softmax over phones.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes, e.g. `[39, 512, 512, 2001]`
    /// (input dim, hidden dims..., phone count). Deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn new(dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let layers = dims
            .windows(2)
            .map(|w| Dense::random(w[0], w[1], &mut rng))
            .collect();
        Self { layers }
    }

    /// The paper-like topology used by the platform models: 39-dim MFCC
    /// input, a few wide hidden layers, `num_phones` outputs.
    pub fn kaldi_like(input_dim: usize, num_phones: usize, seed: u64) -> Self {
        Self::new(&[input_dim, 512, 512, 512, num_phones], seed)
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim
    }

    /// Number of output classes (phones).
    pub fn output_dim(&self) -> usize {
        self.layers.last().unwrap().out_dim
    }

    /// Forward pass returning log-posteriors (log-softmax output).
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the input dimension.
    pub fn log_posteriors(&self, features: &[f32]) -> Vec<f32> {
        let mut x = Vec::new();
        let mut y = Vec::new();
        self.log_posteriors_into(features, &mut x, &mut y);
        x
    }

    /// Allocation-free form of [`Mlp::log_posteriors`] over two
    /// caller-owned activation buffers (ping-ponged between layers); the
    /// log-posteriors are left in `x`. Once both buffers have grown to
    /// the widest layer, repeated calls allocate nothing — this is what
    /// [`crate::online::MlpScorer`] pumps per streamed frame.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the input dimension.
    pub fn log_posteriors_into(&self, features: &[f32], x: &mut Vec<f32>, y: &mut Vec<f32>) {
        x.clear();
        x.extend_from_slice(features);
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            layer.forward_into(x, y);
            std::mem::swap(x, y);
            if i != last {
                for v in x.iter_mut() {
                    *v = v.max(0.0); // ReLU
                }
            }
        }
        log_softmax(x);
    }

    /// The widest activation any layer produces or consumes — the row
    /// stride of the block scratch layout.
    pub fn max_width(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.in_dim.max(l.out_dim))
            .max()
            .unwrap()
    }

    /// Exact scratch length (in `f32`s) [`Mlp::log_posteriors_block_into`]
    /// and [`Mlp::score_block_into`] require for a block of `rows`
    /// frames: two ping-pong activation planes of `rows` × the widest
    /// layer.
    pub fn block_scratch_len(&self, rows: usize) -> usize {
        2 * rows * self.max_width()
    }

    /// Forward pass over a *block* of `rows` feature vectors — the
    /// matrix–matrix form of [`Mlp::log_posteriors_into`] that batched
    /// scoring runs once per gather window instead of once per session.
    ///
    /// `features` holds the block packed row-major (`rows` ×
    /// [`Mlp::input_dim`], no padding). `scratch` is a caller-owned
    /// slice of **exactly** [`Mlp::block_scratch_len`]`(rows)` — a
    /// fixed-size borrow, unlike the `&mut Vec<f32>` buffers of the
    /// single-row path, so the batch hot loop cannot silently grow or
    /// allocate. On return the log-posteriors of row `r` sit at
    /// `scratch[r * stride ..][.. output_dim]` where `stride` is the
    /// returned row stride ([`Mlp::max_width`]).
    ///
    /// Every row's result is **bit-identical** to
    /// [`Mlp::log_posteriors_into`] on that row alone: each element is
    /// computed with the same dot-product fold order, the same ReLU, and
    /// the same log-softmax, and no value ever crosses between rows —
    /// batch composition is numerically invisible.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != rows * input_dim` or the scratch
    /// slice is not exactly the documented length (the allocation-free
    /// contract is also pinned by a debug assert at every layer step).
    pub fn log_posteriors_block_into(
        &self,
        features: &[f32],
        rows: usize,
        scratch: &mut [f32],
    ) -> usize {
        let w = self.max_width();
        assert_eq!(
            features.len(),
            rows * self.input_dim(),
            "feature block dimension mismatch"
        );
        assert_eq!(
            scratch.len(),
            self.block_scratch_len(rows),
            "block scratch must be exactly sized: caller-owned slices \
             cannot grow mid-batch"
        );
        if rows == 0 {
            return w;
        }
        let (a, b) = scratch.split_at_mut(rows * w);
        // Ping-pong between the two planes; pick the starting plane by
        // layer-count parity so the final activations always land in `a`
        // (the plane the caller reads) without a fix-up copy.
        let (mut cur, mut next): (&mut [f32], &mut [f32]) = if self.layers.len().is_multiple_of(2) {
            (a, b)
        } else {
            (b, a)
        };
        let in_dim = self.input_dim();
        for r in 0..rows {
            cur[r * w..r * w + in_dim].copy_from_slice(&features[r * in_dim..(r + 1) * in_dim]);
        }
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            debug_assert_eq!(
                cur.len() + next.len(),
                self.block_scratch_len(rows),
                "block scratch planes grew mid-batch"
            );
            layer.forward_block_into(cur, w, rows, next, w);
            std::mem::swap(&mut cur, &mut next);
            if i != last {
                for r in 0..rows {
                    for v in cur[r * w..r * w + layer.out_dim].iter_mut() {
                        *v = v.max(0.0); // ReLU
                    }
                }
            }
        }
        let out_dim = self.output_dim();
        for r in 0..rows {
            log_softmax(&mut cur[r * w..r * w + out_dim]);
        }
        w
    }

    /// Scores one frame's features into an acoustic *cost row*
    /// (`row[0]` the epsilon column at `0.0`, `row[1 + p]` the negative
    /// log-posterior of phone class `p`) over caller-owned activation
    /// buffers — the single-row path the batched service's lone-session
    /// fallback takes, byte-identical to one row of
    /// [`Mlp::score_block_into`].
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != output_dim + 1` or the feature dimension
    /// mismatches.
    pub fn score_row_into(
        &self,
        features: &[f32],
        row: &mut [f32],
        x: &mut Vec<f32>,
        y: &mut Vec<f32>,
    ) {
        assert_eq!(row.len(), self.output_dim() + 1, "row length mismatch");
        self.log_posteriors_into(features, x, y);
        row[0] = 0.0;
        for (slot, lp) in row[1..].iter_mut().zip(x.iter()) {
            *slot = -lp;
        }
    }

    /// Scores a block of `rows` feature vectors into packed acoustic
    /// cost rows — one [`Mlp::log_posteriors_block_into`] pass plus the
    /// cost mapping of [`Mlp::score_row_into`] per row. `out` is packed
    /// row-major (`rows` × `output_dim + 1`); `scratch` must be exactly
    /// [`Mlp::block_scratch_len`]`(rows)`.
    ///
    /// # Panics
    ///
    /// Panics on any dimension mismatch (see
    /// [`Mlp::log_posteriors_block_into`]).
    pub fn score_block_into(
        &self,
        features: &[f32],
        rows: usize,
        out: &mut [f32],
        scratch: &mut [f32],
    ) {
        let row_len = self.output_dim() + 1;
        assert_eq!(out.len(), rows * row_len, "output block dimension mismatch");
        let stride = self.log_posteriors_block_into(features, rows, scratch);
        for r in 0..rows {
            let row = &mut out[r * row_len..(r + 1) * row_len];
            row[0] = 0.0;
            for (slot, lp) in row[1..].iter_mut().zip(&scratch[r * stride..]) {
                *slot = -lp;
            }
        }
    }

    /// Scores a whole utterance into an [`AcousticTable`] of costs
    /// (negative log-posteriors), with phone id 0 (epsilon) left at cost 0:
    /// one [`Mlp::score_row_into`] per frame over reused activation
    /// buffers, so every row is bit-identical to the per-row path.
    ///
    /// # Panics
    ///
    /// Panics if a frame's feature dimension differs from the input
    /// dimension.
    pub fn score_utterance(&self, features: &[Vec<f32>]) -> AcousticTable {
        let row_len = self.output_dim() + 1;
        let (mut x, mut y) = (Vec::new(), Vec::new());
        let mut costs = vec![0.0; features.len() * row_len];
        for (frame, row) in features.iter().zip(costs.chunks_exact_mut(row_len)) {
            self.score_row_into(frame, row, &mut x, &mut y);
        }
        AcousticTable::from_row_major(features.len(), row_len, costs)
    }

    /// Multiply-accumulate count of one frame's forward pass — used by the
    /// GPU platform model to estimate DNN runtime.
    pub fn flops_per_frame(&self) -> u64 {
        self.layers.iter().map(Dense::flops).sum()
    }
}

/// Numerically-stable in-place log-softmax.
fn log_softmax(x: &mut [f32]) {
    let max = x.iter().cloned().fold(f32::MIN, f32::max);
    let log_sum = x.iter().map(|v| (v - max).exp()).sum::<f32>().ln() + max;
    for v in x {
        *v -= log_sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_posteriors_normalize() {
        let mlp = Mlp::new(&[4, 8, 5], 1);
        let lp = mlp.log_posteriors(&[0.1, -0.2, 0.3, 0.4]);
        let total: f32 = lp.iter().map(|v| v.exp()).sum();
        assert!((total - 1.0).abs() < 1e-4, "posteriors sum to {total}");
        assert!(lp.iter().all(|v| *v <= 0.0));
    }

    #[test]
    fn construction_is_deterministic() {
        let a = Mlp::new(&[4, 6, 3], 42).log_posteriors(&[1.0, 2.0, 3.0, 4.0]);
        let b = Mlp::new(&[4, 6, 3], 42).log_posteriors(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_different_weights() {
        let a = Mlp::new(&[4, 6, 3], 1).log_posteriors(&[1.0; 4]);
        let b = Mlp::new(&[4, 6, 3], 2).log_posteriors(&[1.0; 4]);
        assert_ne!(a, b);
    }

    #[test]
    fn flops_count_matches_topology() {
        let mlp = Mlp::new(&[39, 512, 2001], 0);
        assert_eq!(mlp.flops_per_frame(), 2 * (39 * 512 + 512 * 2001) as u64);
    }

    #[test]
    fn score_utterance_shapes_table() {
        let mlp = Mlp::new(&[4, 8, 5], 3);
        let feats = vec![vec![0.0; 4]; 6];
        let table = mlp.score_utterance(&feats);
        assert_eq!(table.num_frames(), 6);
        assert_eq!(table.num_phones(), 6); // 5 classes + epsilon slot
                                           // Costs are non-negative (posteriors <= 1).
        for f in 0..6 {
            for p in 1..6u32 {
                assert!(table.cost(f, asr_wfst::PhoneId(p)) >= 0.0);
            }
        }
    }

    #[test]
    fn log_softmax_is_stable_for_large_inputs() {
        let mut x = vec![1000.0, 1000.0, 1000.0];
        log_softmax(&mut x);
        for v in &x {
            assert!((v - (1f32 / 3.0).ln()).abs() < 1e-4);
            assert!(v.is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_input_dim_panics() {
        Mlp::new(&[4, 3], 0).log_posteriors(&[0.0; 5]);
    }

    #[test]
    fn kaldi_like_topology() {
        let mlp = Mlp::kaldi_like(39, 2000, 0);
        assert_eq!(mlp.input_dim(), 39);
        assert_eq!(mlp.output_dim(), 2000);
    }

    /// A deterministic block of pseudo-random feature rows.
    fn feature_block(mlp: &Mlp, rows: usize, seed: u64) -> Vec<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..rows * mlp.input_dim())
            .map(|_| rng.gen_range(-2.0..2.0))
            .collect()
    }

    #[test]
    fn block_log_posteriors_match_single_rows_bit_for_bit() {
        // Odd and even layer counts exercise both ping-pong parities.
        for dims in [&[7usize, 16, 5][..], &[7, 16, 12, 5][..]] {
            let mlp = Mlp::new(dims, 11);
            for rows in [1usize, 2, 3, 8] {
                let feats = feature_block(&mlp, rows, rows as u64);
                let mut scratch = vec![0.0; mlp.block_scratch_len(rows)];
                let stride = mlp.log_posteriors_block_into(&feats, rows, &mut scratch);
                for r in 0..rows {
                    let single = mlp.log_posteriors(&feats[r * 7..(r + 1) * 7]);
                    let block = &scratch[r * stride..r * stride + mlp.output_dim()];
                    for (b, s) in block.iter().zip(&single) {
                        assert_eq!(
                            b.to_bits(),
                            s.to_bits(),
                            "row {r} of a {rows}-row block diverged ({dims:?})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn block_cost_rows_match_score_row_into_bit_for_bit() {
        let mlp = Mlp::new(&[6, 24, 9], 23);
        let rows = 5;
        let feats = feature_block(&mlp, rows, 99);
        let row_len = mlp.output_dim() + 1;
        let mut out = vec![0.0; rows * row_len];
        let mut scratch = vec![0.0; mlp.block_scratch_len(rows)];
        mlp.score_block_into(&feats, rows, &mut out, &mut scratch);
        let (mut x, mut y) = (Vec::new(), Vec::new());
        let mut single = vec![0.0; row_len];
        for r in 0..rows {
            mlp.score_row_into(&feats[r * 6..(r + 1) * 6], &mut single, &mut x, &mut y);
            let block_row = &out[r * row_len..(r + 1) * row_len];
            assert_eq!(block_row[0], 0.0, "epsilon column");
            for (b, s) in block_row.iter().zip(&single) {
                assert_eq!(b.to_bits(), s.to_bits(), "cost row {r} diverged");
            }
        }
    }

    #[test]
    fn block_rows_are_independent_of_batch_composition() {
        // The same feature row must score to the same bytes whether its
        // batch mates are zeros, itself, or noise.
        let mlp = Mlp::new(&[5, 20, 7], 31);
        let probe: Vec<f32> = feature_block(&mlp, 1, 7);
        let stride = mlp.max_width();
        let score_at = |block: &[f32], rows: usize, at: usize| -> Vec<u32> {
            let mut scratch = vec![0.0; mlp.block_scratch_len(rows)];
            mlp.log_posteriors_block_into(block, rows, &mut scratch);
            scratch[at * stride..at * stride + mlp.output_dim()]
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        let alone = score_at(&probe, 1, 0);
        let mut with_zeros = vec![0.0; 5];
        with_zeros.extend_from_slice(&probe);
        assert_eq!(score_at(&with_zeros, 2, 1), alone);
        let mut with_noise = feature_block(&mlp, 3, 5);
        with_noise.extend_from_slice(&probe);
        assert_eq!(score_at(&with_noise, 4, 3), alone);
    }

    #[test]
    #[should_panic(expected = "exactly sized")]
    fn block_scratch_must_be_exactly_sized() {
        let mlp = Mlp::new(&[4, 8, 3], 0);
        let feats = vec![0.0; 8];
        let mut oversized = vec![0.0; mlp.block_scratch_len(2) + 1];
        mlp.log_posteriors_block_into(&feats, 2, &mut oversized);
    }

    /// FNV-1a over the bit patterns of `values`, continuing from `hash`.
    fn fnv1a(mut hash: u64, values: &[f32]) -> u64 {
        for v in values {
            for byte in v.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// Hash of the log-posteriors of `rows` fixed feature rows.
    fn golden_hash(mlp: &Mlp, rows: usize) -> u64 {
        let feats = feature_block(mlp, rows, 0x5EED);
        feats
            .chunks(mlp.input_dim())
            .fold(0xcbf2_9ce4_8422_2325, |h, row| {
                fnv1a(h, &mlp.log_posteriors(row))
            })
    }

    #[test]
    fn log_posteriors_match_golden_bits() {
        // Pinned on the `[out][in]` dot-product implementation: any change
        // to the weight draw order or a layer's fold order moves a bit.
        assert_eq!(
            golden_hash(&Mlp::new(&[39, 512, 512, 20], 7), 4),
            0xcc4637b668a1c5d5,
            "demo-sized MLP"
        );
        assert_eq!(
            golden_hash(&Mlp::kaldi_like(39, 2001, 3), 2),
            0xe9e844e7d1ba1f2c,
            "kaldi_like"
        );
    }

    /// A layer in the `[out][in]` layout with each output one dot-product
    /// fold: the form [`Dense`] must reproduce bit for bit.
    struct NaiveDense {
        weights: Vec<f32>, // row-major [out][in]
        bias: Vec<f32>,
        in_dim: usize,
    }

    impl NaiveDense {
        fn forward(&self, x: &[f32]) -> Vec<f32> {
            self.weights
                .chunks_exact(self.in_dim)
                .zip(&self.bias)
                .map(|(row, b)| row.iter().zip(x).map(|(w, x)| w * x).sum::<f32>() + b)
                .collect()
        }
    }

    /// The same layer twice: [`Dense::random`] and the reference drawn
    /// from the same seed in `[out][in]` order, sharing a bias.
    fn layer_pair(in_dim: usize, out_dim: usize, seed: u64, bias: &[f32]) -> (Dense, NaiveDense) {
        let mut dense = Dense::random(in_dim, out_dim, &mut ChaCha8Rng::seed_from_u64(seed));
        dense.bias = bias.to_vec();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let limit = (6.0 / (in_dim + out_dim) as f32).sqrt();
        let naive = NaiveDense {
            weights: (0..in_dim * out_dim)
                .map(|_| rng.gen_range(-limit..limit))
                .collect(),
            bias: bias.to_vec(),
            in_dim,
        };
        (dense, naive)
    }

    /// Bit equality, except that any NaN matches any NaN: Rust does not
    /// pin the payload or sign of a NaN an operation produces.
    fn same_bits(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Input row `r` of width `dim`: random values with signed zeros and
    /// subnormals mixed in, `+inf` first on rows 5 and 8, and `-inf`
    /// last on row 8 (a NaN wherever the two products' signs differ).
    fn awkward_row(dim: usize, r: usize, rng: &mut ChaCha8Rng) -> Vec<f32> {
        const SPECIALS: [f32; 6] = [0.0, -0.0, 1e-40, -1e-40, f32::MIN_POSITIVE, -3e-39];
        let mut x: Vec<f32> = (0..dim)
            .map(|i| match r + i {
                j if j % 3 == 0 => SPECIALS[j / 3 % SPECIALS.len()],
                _ => rng.gen_range(-3.0..3.0),
            })
            .collect();
        if r == 5 || r == 8 {
            x[0] = f32::INFINITY;
        }
        if r == 8 {
            x[dim - 1] = f32::NEG_INFINITY;
        }
        x
    }

    /// Runs `rows` awkward input rows through `forward_block_into` (at
    /// strides wider than the layer) and `forward_into`, checking both
    /// against the reference fold and the padding against writes.
    fn check_against_reference(
        dense: &Dense,
        naive: &NaiveDense,
        rows: usize,
        rng: &mut ChaCha8Rng,
    ) {
        let (in_dim, out_dim) = (dense.in_dim, dense.out_dim);
        let (in_stride, out_stride) = (in_dim + 3, out_dim + 2);
        let mut input = vec![f32::NAN; rows * in_stride];
        for r in 0..rows {
            input[r * in_stride..][..in_dim].copy_from_slice(&awkward_row(in_dim, r, rng));
        }
        let mut block = vec![42.0; rows * out_stride];
        dense.forward_block_into(&input, in_stride, rows, &mut block, out_stride);
        let mut single = Vec::new();
        for r in 0..rows {
            let x = &input[r * in_stride..][..in_dim];
            dense.forward_into(x, &mut single);
            let block_row = &block[r * out_stride..(r + 1) * out_stride];
            for (o, want) in naive.forward(x).into_iter().enumerate() {
                let (b, s) = (block_row[o], single[o]);
                let at = format!("{in_dim}x{out_dim}, row {r} of {rows}, output {o}");
                assert!(same_bits(b, want), "block {at}: {b} vs {want}");
                assert!(same_bits(s, want), "single {at}: {s} vs {want}");
            }
            assert!(
                block_row[out_dim..].iter().all(|&v| v == 42.0),
                "padding past the layer width was written ({in_dim}x{out_dim})"
            );
        }
    }

    #[test]
    fn input_major_layer_matches_out_in_dot_products_bit_for_bit() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        for in_dim in [1usize, 3, 4, 7, 13] {
            for out_dim in [1usize, 5, 8, 17] {
                let seed = (in_dim * 100 + out_dim) as u64;
                // Random biases, and an all-`-0.0` bias that exposes the
                // sign of a zero sum.
                let random: Vec<f32> = (0..out_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                for bias in [random, vec![-0.0; out_dim]] {
                    let (dense, naive) = layer_pair(in_dim, out_dim, seed, &bias);
                    for rows in 1..=9 {
                        check_against_reference(&dense, &naive, rows, &mut rng);
                    }
                }
            }
        }
    }

    #[test]
    fn score_utterance_rows_match_score_row_into_bit_for_bit() {
        let mlp = Mlp::new(&[6, 24, 9], 5);
        let feats: Vec<Vec<f32>> = feature_block(&mlp, 7, 3)
            .chunks(6)
            .map(<[f32]>::to_vec)
            .collect();
        let table = mlp.score_utterance(&feats);
        assert_eq!(table.num_frames(), 7);
        let (mut x, mut y) = (Vec::new(), Vec::new());
        let mut row = vec![0.0; mlp.output_dim() + 1];
        for (frame, f) in feats.iter().enumerate() {
            mlp.score_row_into(f, &mut row, &mut x, &mut y);
            let got: Vec<u32> = table.frame_row(frame).iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = row.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "frame {frame}");
        }
        assert_eq!(mlp.score_utterance(&[]).num_frames(), 0);
    }

    #[test]
    fn empty_block_is_a_no_op() {
        let mlp = Mlp::new(&[4, 8, 3], 0);
        let mut scratch: Vec<f32> = Vec::new();
        assert_eq!(
            mlp.log_posteriors_block_into(&[], 0, &mut scratch),
            mlp.max_width()
        );
    }
}
