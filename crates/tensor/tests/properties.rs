//! Property-based tests over the tensor/NN substrate.

use omniboost_tensor::infer::{dense, global_avg_pool, max_pool2x2, Activation, Conv3x3};
use omniboost_tensor::{
    export_params, reference, Act, Adam, Conv2d, Flatten, GlobalAvgPool, L1Loss, Linear, Loss,
    MaxPool2d, Module, MseLoss, Param, Sequential, Tensor,
};
use proptest::prelude::*;

/// `Conv3x3::forward`'s contract computed one output at a time, on
/// channel-major slices: the bias, then the taps in ascending
/// `(ic, ky, kx)` order (padded taps contribute `w·0.0`), then the
/// residual, then the activation. `fused` selects one `mul_add` per tap
/// — the contract — or the separate multiply and add it replaced.
#[allow(clippy::too_many_arguments)]
fn naive_conv3x3(
    n: usize,
    h: usize,
    w: usize,
    weight: &Tensor,
    bias: &Tensor,
    x: &[f32],
    residual: Option<&[f32]>,
    act: Activation,
    fused: bool,
) -> Vec<f32> {
    let [oc, ic, 3, 3] = *weight.shape() else {
        panic!("expects an [OC, IC, 3, 3] weight");
    };
    let (s, cols) = (h * w, n * h * w);
    let mut y = vec![0.0f32; oc * cols];
    for (at, out) in y.iter_mut().enumerate() {
        let (o, col) = (at / cols, at % cols);
        let (ni, oy, ox) = (col / s, col % s / w, col % w);
        let mut acc = bias.data()[o];
        for c in 0..ic {
            for ky in 0..3 {
                for kx in 0..3 {
                    let wv = weight.data()[((o * ic + c) * 3 + ky) * 3 + kx];
                    let inside = (1..=h).contains(&(oy + ky)) && (1..=w).contains(&(ox + kx));
                    let xv = if inside {
                        x[c * cols + ni * s + (oy + ky - 1) * w + (ox + kx - 1)]
                    } else {
                        0.0
                    };
                    acc = if fused {
                        wv.mul_add(xv, acc)
                    } else {
                        acc + wv * xv
                    };
                }
            }
        }
        *out = act.apply(residual.map_or(acc, |r| acc + r[at]));
    }
    y
}

fn arb_small_tensor(shape: &'static [usize]) -> impl Strategy<Value = Tensor> {
    let n: usize = shape.iter().product();
    proptest::collection::vec(-3.0f32..3.0, n).prop_map(move |data| Tensor::from_vec(data, shape))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Element-wise algebra: addition commutes, Hadamard distributes over
    /// scalar scaling.
    #[test]
    fn tensor_algebra(a in arb_small_tensor(&[3, 4]), b in arb_small_tensor(&[3, 4]), s in -2.0f32..2.0) {
        prop_assert_eq!(a.add(&b), b.add(&a));
        let left = a.hadamard(&b).scale(s);
        let right = a.scale(s).hadamard(&b);
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() <= 1e-4 * (1.0 + x.abs()));
        }
    }

    /// Convolution is a linear operator in its input when bias is zero:
    /// conv(αx) = α·conv(x).
    #[test]
    fn conv_is_linear_with_zero_bias(x in arb_small_tensor(&[1, 2, 5, 5]), alpha in -2.0f32..2.0) {
        let mut conv = Conv2d::new(2, 3, 7);
        for p in conv.params_mut().into_iter().skip(1) { // zero the bias
            p.value.fill_zero();
        }
        let y1 = conv.forward(&x.scale(alpha));
        let y2 = conv.forward(&x).scale(alpha);
        for (a, b) in y1.data().iter().zip(y2.data()) {
            prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    /// Max pooling never invents values: every output element is present
    /// in the input, and pooling is monotone under input scaling by a
    /// positive constant.
    #[test]
    fn maxpool_selects_existing_values(x in arb_small_tensor(&[1, 2, 4, 6])) {
        let mut pool = MaxPool2d::new();
        let y = pool.forward(&x);
        for v in y.data() {
            prop_assert!(x.data().contains(v));
        }
    }

    /// GELU is bounded below by a small constant and asymptotically
    /// linear: |gelu(x)| <= |x| + 0.2 everywhere.
    #[test]
    fn gelu_is_bounded(x in arb_small_tensor(&[1, 16])) {
        let mut g = Act::new(Activation::Gelu);
        let y = g.forward(&x);
        for (xi, yi) in x.data().iter().zip(y.data()) {
            prop_assert!(yi.abs() <= xi.abs() + 0.2);
            prop_assert!(*yi >= -0.2);
        }
    }

    /// Losses are non-negative, zero exactly on perfect predictions, and
    /// symmetric in sign of the error for L1.
    #[test]
    fn loss_axioms(p in arb_small_tensor(&[2, 3]), t in arb_small_tensor(&[2, 3])) {
        let (l1, _) = L1Loss.compute(&p, &t);
        let (l2, _) = MseLoss.compute(&p, &t);
        prop_assert!(l1 >= 0.0 && l2 >= 0.0);
        let (self1, _) = L1Loss.compute(&p, &p);
        prop_assert_eq!(self1, 0.0);
        // Swapping prediction and target leaves both losses unchanged.
        let (l1s, _) = L1Loss.compute(&t, &p);
        prop_assert!((l1 - l1s).abs() < 1e-6);
    }

    /// One Adam step on any loss surface moves parameters by at most the
    /// learning rate per coordinate (the Adam step-size bound).
    #[test]
    fn adam_step_is_bounded(x in arb_small_tensor(&[4, 3]), t in arb_small_tensor(&[4, 2])) {
        let mut layer = Linear::new(3, 2, 3);
        let before: Vec<f32> = layer.params_mut().iter().flat_map(|p| p.value.data().to_vec()).collect();
        let y = layer.forward(&x);
        let (_, grad) = MseLoss.compute(&y, &t);
        layer.zero_grad();
        layer.backward(&grad);
        let lr = 0.05f32;
        Adam::new(lr).step(&mut layer.params_mut());
        let after: Vec<f32> = layer.params_mut().iter().flat_map(|p| p.value.data().to_vec()).collect();
        for (b, a) in before.iter().zip(&after) {
            // Adam's per-step displacement is bounded by ~lr/(1-beta1).
            prop_assert!((b - a).abs() <= lr * 11.0, "{b} -> {a}");
        }
    }

    /// The GEMM-structured backward agrees with the direct reference
    /// kernels on dW, dX and db within 1e-5, across batch sizes
    /// (`n == 1` included), channel counts and planes down to one row
    /// or column.
    #[test]
    fn conv_backward_gemm_equals_direct(
        n in 1usize..=3,
        cin in 1usize..=3,
        cout in 1usize..=4,
        h in 1usize..=6,
        w in 1usize..=7,
        seed in 0u64..1000,
    ) {
        let mut conv = Conv2d::new(cin, cout, seed);
        let x = Tensor::randn(&[n, cin, h, w], seed.wrapping_add(1));
        let y = conv.forward(&x);
        let grad = Tensor::randn(y.shape(), seed.wrapping_add(2));
        conv.zero_grad();
        let gx = conv.backward(&grad);
        let r = reference::conv3x3_backward(&x, &export_params(&mut conv)[0], &grad);
        let ctx = format!("n={n} cin={cin} cout={cout} h={h} w={w}");
        let params = conv.params_mut();
        for (got, want) in [(&gx, &r.input), (&params[0].grad, &r.weight), (&params[1].grad, &r.bias)] {
            for (a, b) in got.data().iter().zip(want.data()) {
                prop_assert!((a - b).abs() < 1e-5 * (1.0 + b.abs()), "{a} vs {b} [{ctx}]");
            }
        }
    }

    /// The batched GEMM forward equals, sample by sample, both the GEMM
    /// forward of that sample alone and the direct reference loop.
    #[test]
    fn conv_forward_batched_equals_per_sample(n in 1usize..=4, seed in 0u64..1000) {
        let mut conv = Conv2d::new(2, 3, seed);
        let p = export_params(&mut conv);
        let (h, w) = (5usize, 6usize);
        let x = Tensor::randn(&[n, 2, h, w], seed.wrapping_add(3));
        let yb = conv.forward(&x);
        let per = 2 * h * w;
        let oper = yb.len() / n;
        for i in 0..n {
            let xi = Tensor::from_vec(x.data()[i * per..(i + 1) * per].to_vec(), &[1, 2, h, w]);
            let batched = &yb.data()[i * oper..(i + 1) * oper];
            prop_assert_eq!(batched, conv.forward(&xi).data(), "sample {} of {}", i, n);
            prop_assert_eq!(batched, reference::conv3x3_forward(&xi, &p[0], &p[1]).data());
        }
    }

    /// One Adam step from the GEMM backward's gradients and one from the
    /// reference kernel's keep the two weight sets within 1e-5 — the
    /// gradients feed updates identically.
    #[test]
    fn conv_sgd_step_agrees_across_backwards(x in arb_small_tensor(&[3, 2, 5, 5]), n in 1usize..=3) {
        let x = Tensor::from_vec(x.data()[..n * 50].to_vec(), &[n, 2, 5, 5]);
        let mut conv = Conv2d::new(2, 3, 31);
        let p = export_params(&mut conv);
        let y = conv.forward(&x);
        let (_, grad) = MseLoss.compute(&y, &Tensor::zeros(y.shape()));
        conv.zero_grad();
        conv.backward(&grad);
        Adam::new(0.01).step(&mut conv.params_mut());

        let r = reference::conv3x3_backward(&x, &p[0], &grad);
        let mut weight = Param { value: p[0].clone(), grad: r.weight };
        let mut bias = Param { value: p[1].clone(), grad: r.bias };
        Adam::new(0.01).step(&mut [&mut weight, &mut bias]);
        for (pa, pb) in conv.params_mut().iter().zip([&weight, &bias]) {
            for (va, vb) in pa.value.data().iter().zip(pb.value.data()) {
                prop_assert!((va - vb).abs() < 1e-5, "{va} vs {vb}");
            }
        }
    }

    /// A full network forward pass is deterministic and batch-consistent:
    /// evaluating a 2-batch equals evaluating the two samples separately.
    #[test]
    fn forward_is_batch_consistent(a in arb_small_tensor(&[1, 2, 4, 4]), b in arb_small_tensor(&[1, 2, 4, 4])) {
        let build = || {
            Sequential::new()
                .push(Conv2d::new(2, 4, 11))
                .push(Act::new(Activation::Gelu))
                .push(GlobalAvgPool::new())
                .push(Flatten::new())
                .push(Linear::new(4, 2, 12))
        };
        let mut net = build();
        let mut data = a.data().to_vec();
        data.extend_from_slice(b.data());
        let batch = Tensor::from_vec(data, &[2, 2, 4, 4]);
        let yb = net.forward(&batch);
        let ya = net.forward(&a);
        let yb2 = net.forward(&b);
        for i in 0..2 {
            prop_assert!((yb.get(&[0, i]) - ya.get(&[0, i])).abs() < 1e-4);
            prop_assert!((yb.get(&[1, i]) - yb2.get(&[0, i])).abs() < 1e-4);
        }
    }

    /// The fused-multiply-add contract has a witness that shares no code
    /// with the kernels: `Conv3x3::forward` equals the naive per-output
    /// loop bit for bit — over one-row and one-column planes, a batch
    /// whose last tile block is short, channel counts off the `MR` grid,
    /// with and without a residual — and the same loop with a separate
    /// multiply and add does not, so a site that slid back to
    /// `a * b + c` cannot pass.
    #[test]
    fn conv3x3_equals_the_naive_fused_loop(seed in 0u64..10_000) {
        let mut contracts_differ = false;
        for (i, &(n, ic, oc, h, w)) in [
            (3usize, 4usize, 6usize, 11usize, 37usize), // two samples per block: 2 + 1
            (2, 3, 8, 5, 9),
            (4, 2, 5, 1, 7),
            (3, 2, 3, 6, 1),
            (5, 1, 1, 1, 1),
            (1, 5, 7, 3, 34),
        ]
        .iter()
        .enumerate()
        {
            let at = seed * 16 + i as u64 * 4;
            let weight = Tensor::randn(&[oc, ic, 3, 3], at);
            let bias = Tensor::randn(&[oc], at + 1);
            let x = Tensor::randn(&[ic * n * h * w], at + 2);
            let skip = Tensor::randn(&[oc * n * h * w], at + 3);
            let mut conv = Conv3x3::new(&weight, &bias, h, w);
            let mut y = vec![f32::NAN; skip.len()];
            for (residual, act) in [(None, Activation::Gelu), (Some(skip.data()), Activation::Relu)] {
                conv.forward(n, x.data(), residual, act, &mut y, &mut ());
                let want = naive_conv3x3(n, h, w, &weight, &bias, x.data(), residual, act, true);
                prop_assert_eq!(&y, &want, "n={} ic={} oc={} {}x{}", n, ic, oc, h, w);
                contracts_differ |=
                    want != naive_conv3x3(n, h, w, &weight, &bias, x.data(), residual, act, false);
            }
        }
        prop_assert!(contracts_differ, "no case tells the fused contract from the unfused one");
    }

    /// The inference kernels change layout and bookkeeping, never
    /// values: a conv → GELU → pool → GAP → linear pipeline built from
    /// `infer` equals the graph's forward element for element.
    #[test]
    fn inference_mode_preserves_values(x in arb_small_tensor(&[2, 2, 4, 4])) {
        let mut conv = Conv2d::new(2, 4, 17);
        let mut linear = Linear::new(4, 2, 18);
        let (cp, lp) = (export_params(&mut conv), export_params(&mut linear));
        let mut net = Sequential::new()
            .push(conv)
            .push(Act::new(Activation::Gelu))
            .push(MaxPool2d::new())
            .push(GlobalAvgPool::new())
            .push(Flatten::new())
            .push(linear);
        let y_graph = net.forward(&x);

        // NCHW [2, 2, 4, 4] → channel-major [2][2·16].
        let mut staged = vec![0.0f32; x.len()];
        for (i, plane) in x.data().chunks_exact(16).enumerate() {
            let (sample, channel) = (i / 2, i % 2);
            staged[(channel * 2 + sample) * 16..][..16].copy_from_slice(plane);
        }
        let (mut a, mut b) = (vec![0.0f32; 4 * 2 * 16], vec![0.0f32; 4 * 2 * 4]);
        let (mut pooled, mut y) = (vec![0.0f32; 2 * 4], vec![0.0f32; 2 * 2]);
        Conv3x3::new(&cp[0], &cp[1], 4, 4).forward(2, &staged, None, Activation::Gelu, &mut a, &mut ());
        max_pool2x2(4 * 2, 4, 4, &a, &mut b);
        global_avg_pool(4, 2, 4, &b, &mut pooled);
        dense(2, &lp[0], &lp[1], &pooled, &mut y);
        prop_assert_eq!(y_graph.data(), &y[..]);
    }
}
