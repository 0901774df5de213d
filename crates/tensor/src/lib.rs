//! # omniboost-tensor
//!
//! A minimal, from-scratch tensor and neural-network library — the
//! reproduction's substitute for PyTorch, which the paper uses to build
//! and train its ~20k-parameter CNN throughput estimator (§IV-B, §V).
//!
//! Scope is deliberately exactly what the estimator needs:
//!
//! * dense [`Tensor`]s of `f32` with shape bookkeeping;
//! * a shared packed, register-blocked GEMM core ([`gemm`]) behind the
//!   batched convolution/linear forward *and* backward passes;
//! * forward/backward [`Module`]s: [`Conv2d`] (3×3, stride 1, same
//!   padding), [`Linear`], [`Act`] (GELU or ReLU, one
//!   [`infer::Activation`] rule), [`MaxPool2d`] (2×2), [`GlobalAvgPool`],
//!   [`Flatten`], [`ResidualBlock`] and [`Sequential`] composition —
//!   the training graph, which runs one GEMM path per layer at every
//!   batch size, and the reference the serving kernels are tested
//!   against;
//! * [`reference`]: the direct loop kernels the GEMM conv/linear passes
//!   are tested against — an oracle nothing in training calls;
//! * [`infer`]: the fused, allocation-free kernels a trained graph is
//!   lowered to for serving (channel-major activations, bias-started
//!   accumulators, residual add and activation applied as a tile is
//!   stored) — the one inference path, `==` to the graph's `forward`;
//! * [`L1Loss`]/[`MseLoss`] criteria (the paper trains with L1 and reports
//!   L2 as "too aggressive");
//! * the [`Adam`] optimizer.
//!
//! Backpropagation is implemented per-module (each module caches its
//! forward activations — there is no eval mode; inference does not run
//! the graph), which keeps gradients easy to verify against finite
//! differences — the test suite does exactly that for every module, and
//! additionally property-tests the GEMM-structured forward and backward
//! against the [`reference`] kernels.
//!
//! ```
//! use omniboost_tensor::{Adam, L1Loss, Linear, Loss, Module, Tensor};
//!
//! let mut layer = Linear::new(4, 2, 42);
//! let x = Tensor::randn(&[8, 4], 1);
//! let target = Tensor::zeros(&[8, 2]);
//! let mut opt = Adam::new(1e-2);
//! for _ in 0..10 {
//!     let y = layer.forward(&x);
//!     let (loss, grad) = L1Loss.compute(&y, &target);
//!     layer.zero_grad();
//!     layer.backward(&grad);
//!     opt.step(&mut layer.params_mut());
//!     assert!(loss.is_finite());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// The forward kernels are `mul_add` loops. Without hardware FMA each one
// is a libm `fmaf` call per element: the same bits, ~90x the time.
#[cfg(all(target_arch = "x86_64", not(target_feature = "fma")))]
compile_error!(
    "omniboost-tensor needs hardware FMA on x86_64: build with the rustflags in \
     .cargo/config.toml (`-C target-cpu=native`). Cargo finds that file from the \
     working directory, not from `--manifest-path` — run cargo from the repository \
     root, and do not override it with RUSTFLAGS."
);

pub mod gemm;
pub mod infer;
mod init;
mod loss;
mod module;
pub mod ops;
mod optim;
pub mod reference;
mod tensor;

pub use gemm::{gemm_nn, gemm_nt, gemm_tn, GemmScratch};
pub use init::kaiming_uniform;
pub use loss::{L1Loss, Loss, MseLoss};
pub use module::{export_params, import_params, Module, Param, Sequential};
pub use ops::activation::Act;
pub use ops::conv::Conv2d;
pub use ops::flatten::Flatten;
pub use ops::linear::Linear;
pub use ops::pool::{GlobalAvgPool, MaxPool2d};
pub use ops::residual::ResidualBlock;
pub use optim::Adam;
pub use tensor::Tensor;
