//! Phase-level timing probe for the estimator training hot path: where
//! does a §V-shaped training step actually spend its time? Used to aim
//! the GEMM-backward optimization work (and to re-check on new hosts).
//! Training runs one GEMM path per layer; the "reference" row times
//! `tensor::reference::conv3x3_backward`, the direct loop the `tensor`
//! proptests use as their oracle, on `conv2`'s shapes next to the GEMM
//! backward.
//!
//! ```sh
//! cargo run --release -p omniboost-bench --bin probe_train
//! ```

use omniboost::estimator::{ActivationKind, DatasetConfig, EstimatorNet, InferencePlan};
use omniboost::tensor::infer::Activation;
use omniboost::tensor::{export_params, reference, Act, Loss, Module, MseLoss, Tensor};
use omniboost_hw::Board;
use std::time::Instant;

fn time_ms(mut f: impl FnMut(), reps: usize) -> f64 {
    // One warm-up, then the median of `reps`.
    f();
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

fn main() {
    let board = Board::hikey970();
    let dataset = DatasetConfig {
        num_workloads: 40,
        threads: 4,
        ..DatasetConfig::default()
    }
    .generate(&board);
    let m = dataset.embedding.num_models();
    let l = dataset.embedding.max_layers();
    let batch = 32usize;
    let mut data = Vec::new();
    for i in 0..batch {
        data.extend_from_slice(dataset.samples[i % dataset.samples.len()].input.data());
    }
    let x = Tensor::from_vec(data, &[batch, 3, m, l]);
    let target = Tensor::randn(&[batch, 3], 1);

    let mut net = EstimatorNet::new(m, l, ActivationKind::Gelu, 42);
    let reps = 20;

    let fwd_train = time_ms(
        || {
            let _ = net.forward(&x);
        },
        reps,
    );
    // The same batch through the compiled serving plan, for scale.
    let mut plan = InferencePlan::compile(&mut net);
    let fwd_plan = time_ms(
        || {
            plan.stage_nchw(&x);
            let _ = plan.forward();
        },
        reps,
    );

    let y = net.forward(&x);
    let (_, grad) = MseLoss.compute(&y, &target);
    let bwd_gemm = time_ms(
        || {
            net.zero_grad();
            let _ = net.backward(&grad);
        },
        reps,
    );

    // GELU in isolation at a training-step-representative element count
    // (sum of every activation map in the net for this batch).
    let gelu_elems = batch * (8 + 16) * m * l + batch * (16 * 3 + 24 * 3) * (m / 2) * (l / 2);
    let gx = Tensor::randn(&[gelu_elems], 2);
    let mut gelu = Act::new(Activation::Gelu);
    let gelu_fwd = time_ms(
        || {
            let _ = gelu.forward(&gx);
        },
        reps,
    );
    let gy = gelu.forward(&gx);
    let gelu_bwd = time_ms(
        || {
            let _ = gelu.backward(&gy);
        },
        reps,
    );

    // Raw kernel throughput at conv2's exact shapes (15M MAC each).
    {
        use omniboost::tensor::{gemm_nn, gemm_nt, gemm_tn, GemmScratch};
        let (oc, kk, cols_w, spatial) = (16usize, 72usize, 13024usize, 407usize);
        let a = Tensor::randn(&[oc * cols_w], 7);
        let bmat = Tensor::randn(&[kk * cols_w], 8);
        let mut c = vec![0.0f32; oc.max(kk) * cols_w];
        let mut scratch = GemmScratch::default();
        let nn = time_ms(
            || gemm_nn(oc, kk, cols_w, a.data(), bmat.data(), &mut c, &mut scratch),
            reps,
        );
        let mut cw = vec![0.0f32; oc * kk];
        let nt = time_ms(
            || gemm_nt(oc, cols_w, kk, a.data(), bmat.data(), &mut cw),
            reps,
        );
        let mut dc = vec![0.0f32; kk * spatial];
        let tn = time_ms(
            || {
                for ni in 0..32 {
                    gemm_tn(
                        kk,
                        oc,
                        spatial,
                        bmat.data(),
                        &a.data()[ni * spatial..],
                        cols_w,
                        &mut dc,
                    );
                }
            },
            reps,
        );
        let gmacs = 15.0e6 / 1e6; // MMAC per call
        println!(
            "  gemm @conv2 shapes: nn {nn:.2} ms ({:.1} GMAC/s), nt {nt:.2} ms ({:.1}), tn {tn:.2} ms ({:.1})",
            gmacs / nn,
            gmacs / nt,
            gmacs / tn,
        );
    }

    // Per-layer-type timings at this batch's real shapes.
    use omniboost::tensor::{Conv2d, MaxPool2d};
    let mut conv2 = Conv2d::new(8, 16, 3);
    let cx = Tensor::randn(&[batch, 8, m, l], 4);
    let conv2_fwd = time_ms(
        || {
            let _ = conv2.forward(&cx);
        },
        reps,
    );
    let cy = conv2.forward(&cx);
    let cg = Tensor::randn(cy.shape(), 5);
    let conv2_bwd = time_ms(
        || {
            conv2.zero_grad();
            let _ = conv2.backward(&cg);
        },
        reps,
    );
    let conv2_weight = export_params(&mut conv2).swap_remove(0);
    let conv2_ref = time_ms(
        || {
            let _ = reference::conv3x3_backward(&cx, &conv2_weight, &cg);
        },
        reps,
    );
    let mut pool = MaxPool2d::new();
    let px = Tensor::randn(&[batch, 16, m, l], 6);
    let pool_fwd = time_ms(
        || {
            let _ = pool.forward(&px);
        },
        reps,
    );
    println!(
        "  conv2 (8->16, {m}x{l}) fwd: {conv2_fwd:.2} ms, bwd gemm: {conv2_bwd:.2} ms, \
         bwd reference: {conv2_ref:.2} ms ({:.1}x)",
        conv2_ref / conv2_bwd
    );
    println!("  maxpool (16ch, {m}x{l}) fwd: {pool_fwd:.2} ms");

    println!("batch {batch} on {m}x{l} grid (median of {reps}):");
    println!("  forward (graph):      {fwd_train:.2} ms");
    println!("  forward (plan):       {fwd_plan:.2} ms");
    println!("  backward (graph):     {bwd_gemm:.2} ms");
    println!("  gelu fwd over {gelu_elems} elems: {gelu_fwd:.2} ms");
    println!("  gelu bwd over {gelu_elems} elems: {gelu_bwd:.2} ms");
}
