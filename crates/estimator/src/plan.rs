//! The trained [`EstimatorNet`] lowered for serving.
//!
//! [`InferencePlan::compile`] reads a network's parameters once and
//! builds the same pipeline — conv → conv → pool → residual → conv →
//! pool → residual → global-average pool → linear — out of the fused
//! channel-major kernels of [`omniboost_tensor::infer`]. The plan owns
//! every buffer it touches: a batch is staged into its input buffer,
//! [`InferencePlan::forward`] runs it, and after the first call at a
//! given batch size nothing allocates. Outputs compare `==` to the
//! graph's `forward` (see the numerical contract in
//! [`omniboost_tensor::infer`]), so the graph stays the training path
//! and the reference, and this is the only path that serves.

use crate::model::{ActivationKind, EstimatorNet};
use omniboost_tensor::infer::{dense, global_avg_pool, max_pool2x2, Conv3x3, Probe, Stage};
use omniboost_tensor::{export_params, Tensor};

/// A compiled, allocation-free forward pass of one trained
/// [`EstimatorNet`].
///
/// ```
/// use omniboost_estimator::{ActivationKind, EstimatorNet, InferencePlan};
/// use omniboost_tensor::{Module, Tensor};
///
/// let mut net = EstimatorNet::new(11, 37, ActivationKind::Gelu, 42);
/// let mut plan = InferencePlan::compile(&mut net);
/// let x = Tensor::randn(&[2, 3, 11, 37], 1);
/// plan.stage_nchw(&x);
/// assert_eq!(plan.forward(), net.forward(&x).data());
/// ```
pub struct InferencePlan {
    activation: ActivationKind,
    /// Embedding grid `[M, L]` the plan was compiled for.
    grid: [usize; 2],
    /// The network's parameters in `export_params` order — what `io.rs`
    /// persists; the forward reads the output head (the last two) from
    /// here and everything else from `convs`.
    params: Vec<Tensor>,
    /// In `export_params` order: the two stem convs, the first residual
    /// pair, the widening conv, the second residual pair.
    convs: [Conv3x3; 7],
    /// Batch size staged by the last [`InferencePlan::input_mut`].
    n: usize,
    /// Activation buffers the layers rotate through; `bufs[0]` is also
    /// the staged input. Grown to the largest batch seen, never shrunk.
    bufs: [Vec<f32>; 3],
    /// `[n][C]` global-average-pooled features.
    pooled: Vec<f32>,
    /// `[n][3]` outputs.
    out: Vec<f32>,
}

/// Grows `buf` to at least `len` floats (new cells zeroed); a shorter
/// request keeps what is there, so batch sizes can alternate without
/// reallocating.
fn grow(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

impl InferencePlan {
    /// Lowers `net` (its current parameter values) into a plan. Takes
    /// `&mut` only because that is how a [`Module`] lends its
    /// parameters; the network is not changed.
    ///
    /// [`Module`]: omniboost_tensor::Module
    pub fn compile(net: &mut EstimatorNet) -> Self {
        let (m, l) = (net.num_models(), net.max_layers());
        let p = export_params(net);
        assert_eq!(p.len(), 16, "EstimatorNet exports 7 convs and a head");
        let (half, quarter) = ([m / 2, l / 2], [m / 4, l / 4]);
        let conv = |i: usize, [h, w]: [usize; 2]| Conv3x3::new(&p[2 * i], &p[2 * i + 1], h, w);
        let convs = [
            conv(0, [m, l]),
            conv(1, [m, l]),
            conv(2, half),
            conv(3, half),
            conv(4, half),
            conv(5, quarter),
            conv(6, quarter),
        ];
        Self {
            activation: net.activation(),
            grid: [m, l],
            convs,
            params: p,
            n: 0,
            bufs: Default::default(),
            pooled: Vec::new(),
            out: Vec::new(),
        }
    }

    /// The activation family the network was built with.
    pub fn activation(&self) -> ActivationKind {
        self.activation
    }

    /// The parameters the plan was compiled from, in
    /// [`export_params`] order.
    pub fn params(&self) -> &[Tensor] {
        &self.params
    }

    /// Channel counts along the pipeline: input, after the first stem
    /// conv, through the first residual block, after the widening conv.
    fn widths(&self) -> [usize; 4] {
        let [stem_a, stem_b, _, _, widen, ..] = &self.convs;
        [
            stem_a.in_ch(),
            stem_a.out_ch(),
            stem_b.out_ch(),
            widen.out_ch(),
        ]
    }

    /// Floats per channel of a batch of `n` at full, half (after the
    /// first pool) and quarter resolution.
    fn extents(&self, n: usize) -> [usize; 3] {
        let [m, l] = self.grid;
        [n * m * l, n * (m / 2) * (l / 2), n * (m / 4) * (l / 4)]
    }

    /// Stages a batch of `n` samples: returns the zeroed channel-major
    /// input `[3][n·M·L]` for the caller to fill — cell `(d, row, layer)`
    /// of sample `i` is at `(d·n + i)·M·L + row·L + layer` — and sizes
    /// every buffer the next [`InferencePlan::forward`] needs.
    pub fn input_mut(&mut self, n: usize) -> &mut [f32] {
        let [c0, c1, c2, c3] = self.widths();
        let [full, half, quarter] = self.extents(n);
        // The widest tenant of each buffer (see `forward_probed`).
        grow(&mut self.bufs[0], c2 * full);
        grow(&mut self.bufs[1], (c1 * full).max(c3 * half));
        grow(&mut self.bufs[2], (c2 * half).max(c3 * quarter));
        grow(&mut self.pooled, n * c3);
        grow(&mut self.out, n * 3);
        self.n = n;
        let input = &mut self.bufs[0][..c0 * full];
        input.fill(0.0);
        input
    }

    /// Runs the staged batch; returns its `[n][3]` outputs.
    pub fn forward(&mut self) -> &[f32] {
        self.forward_probed(&mut ())
    }

    /// [`InferencePlan::forward`] announcing each stage to `probe`.
    pub fn forward_probed<P: Probe>(&mut self, probe: &mut P) -> &[f32] {
        let n = self.n;
        let act = self.activation;
        let [m, l] = self.grid;
        let ([h1, w1], [h2, w2]) = ([m / 2, l / 2], [m / 4, l / 4]);
        let [c0, c1, c2, c3] = self.widths();
        let [full, half, quarter] = self.extents(n);
        let [stem_a, stem_b, res1_a, res1_b, widen, res2_a, res2_b] = &mut self.convs;
        let [a, b, c] = &mut self.bufs;

        stem_a.forward(n, &a[..c0 * full], None, act, &mut b[..c1 * full], probe);
        stem_b.forward(n, &b[..c1 * full], None, act, &mut a[..c2 * full], probe);
        probe.enter(Stage::Pool);
        max_pool2x2(c2 * n, m, l, &a[..c2 * full], &mut b[..c2 * half]);

        let skip = &b[..c2 * half];
        res1_a.forward(n, skip, None, act, &mut c[..c2 * half], probe);
        res1_b.forward(
            n,
            &c[..c2 * half],
            Some(skip),
            act,
            &mut a[..c2 * half],
            probe,
        );
        widen.forward(n, &a[..c2 * half], None, act, &mut b[..c3 * half], probe);
        probe.enter(Stage::Pool);
        max_pool2x2(c3 * n, h1, w1, &b[..c3 * half], &mut a[..c3 * quarter]);

        let skip = &a[..c3 * quarter];
        res2_a.forward(n, skip, None, act, &mut c[..c3 * quarter], probe);
        res2_b.forward(
            n,
            &c[..c3 * quarter],
            Some(skip),
            act,
            &mut b[..c3 * quarter],
            probe,
        );
        probe.enter(Stage::Pool);
        let pooled = &mut self.pooled[..n * c3];
        global_avg_pool(c3, n, h2 * w2, &b[..c3 * quarter], pooled);

        probe.enter(Stage::Head);
        let [.., weight, bias] = &self.params[..] else {
            unreachable!("compile checked the parameter count");
        };
        dense(n, weight, bias, pooled, &mut self.out[..n * 3]);
        &self.out[..n * 3]
    }

    /// Stages an NCHW `[N, 3, M, L]` (or a single `[3, M, L]`) tensor —
    /// the graph's calling convention, for comparing the two.
    ///
    /// # Panics
    ///
    /// Panics if the tensor does not match the plan's grid.
    pub fn stage_nchw(&mut self, input: &Tensor) {
        let [m, l] = self.grid;
        let plane = m * l;
        let n = input.len() / (3 * plane);
        assert!(
            input.shape() == [n, 3, m, l] || (n == 1 && input.shape() == [3, m, l]),
            "input grid mismatch"
        );
        let staged = self.input_mut(n);
        for (i, src) in input.data().chunks_exact(plane).enumerate() {
            let (sample, channel) = (i / 3, i % 3);
            staged[(channel * n + sample) * plane..][..plane].copy_from_slice(src);
        }
    }

    /// Floats of heap the plan holds for staged batches — what
    /// [`InferencePlan::input_mut`] may grow. Constant once the largest
    /// batch size has been seen.
    pub fn scratch_capacity(&self) -> usize {
        self.bufs.iter().map(Vec::capacity).sum::<usize>()
            + self.pooled.capacity()
            + self.out.capacity()
    }
}
