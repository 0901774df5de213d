//! Ergonomic construction of DNN descriptions.
//!
//! [`DnnModelBuilder`] tracks the activation shape as layers are appended
//! and derives each kernel's FLOPs and memory traffic from standard
//! formulas, so zoo definitions (and user-supplied custom networks, one of
//! the paper's extensibility claims) stay declarative.

use crate::graph::{DnnModel, ModelError};
use crate::kernel::{Kernel, KernelClass};
use crate::layer::{Layer, LayerKind};
use crate::shapes::TensorShape;

/// Builder for [`DnnModel`] chains.
///
/// ```
/// use omniboost_models::{DnnModelBuilder, TensorShape};
///
/// let model = DnnModelBuilder::new(TensorShape::new(3, 224, 224))
///     .conv("conv1", 64, 7, 2, 3)
///     .max_pool("pool1", 3, 2, 1)
///     .global_avg_pool("gap")
///     .fc("fc", 1000)
///     .build("tiny")?;
/// assert_eq!(model.num_layers(), 4);
/// # Ok::<(), omniboost_models::ModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DnnModelBuilder {
    input_shape: TensorShape,
    shape: TensorShape,
    layers: Vec<Layer>,
}

impl DnnModelBuilder {
    /// Starts a model whose input activation has the given shape.
    pub fn new(input_shape: TensorShape) -> Self {
        Self {
            input_shape,
            shape: input_shape,
            layers: Vec::new(),
        }
    }

    /// Appends a pre-constructed layer, updating the tracked shape.
    #[must_use]
    pub fn layer(mut self, layer: Layer) -> Self {
        self.shape = layer.output_shape();
        self.layers.push(layer);
        self
    }

    /// Dense convolution with a fused activation. `kernel == 1` is priced
    /// as a pointwise convolution.
    #[must_use]
    pub fn conv(self, name: &str, out_ch: usize, kernel: usize, stride: usize, pad: usize) -> Self {
        let kind = if kernel == 1 {
            LayerKind::PointwiseConv
        } else {
            LayerKind::Conv
        };
        self.conv_inner(name, kind, out_ch, kernel, stride, pad)
    }

    fn conv_inner(
        mut self,
        name: &str,
        kind: LayerKind,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        let inp = self.shape;
        let out = TensorShape::new(
            out_ch,
            TensorShape::conv_out_extent(inp.height, kernel, stride, pad),
            TensorShape::conv_out_extent(inp.width, kernel, stride, pad),
        );
        let class = if kernel == 1 {
            KernelClass::PointwiseConv
        } else {
            KernelClass::DirectConv
        };
        let conv = conv_kernel(name, class, inp, out, kernel, inp.channels);
        let act = activation_kernel(&format!("{name}.act"), out);
        self.shape = out;
        self.layers
            .push(Layer::new(name, kind, vec![conv, act], out));
        self
    }

    /// Depthwise convolution (one filter per input channel) + activation.
    #[must_use]
    pub fn dw_conv(mut self, name: &str, kernel: usize, stride: usize, pad: usize) -> Self {
        let inp = self.shape;
        let out = TensorShape::new(
            inp.channels,
            TensorShape::conv_out_extent(inp.height, kernel, stride, pad),
            TensorShape::conv_out_extent(inp.width, kernel, stride, pad),
        );
        // Depthwise: each output element needs k*k MACs (single channel).
        let flops = 2 * kernel * kernel * out.elements();
        let weights = kernel * kernel * inp.channels * 4;
        let dw = Kernel::new(name, KernelClass::DepthwiseConv)
            .with_flops(flops as u64)
            .with_bytes(inp.bytes() as u64, out.bytes() as u64, weights as u64);
        let act = activation_kernel(&format!("{name}.act"), out);
        self.shape = out;
        self.layers.push(Layer::new(
            name,
            LayerKind::DepthwiseConv,
            vec![dw, act],
            out,
        ));
        self
    }

    /// Max-pooling layer.
    #[must_use]
    pub fn max_pool(mut self, name: &str, kernel: usize, stride: usize, pad: usize) -> Self {
        let inp = self.shape;
        let out = TensorShape::new(
            inp.channels,
            TensorShape::conv_out_extent(inp.height, kernel, stride, pad),
            TensorShape::conv_out_extent(inp.width, kernel, stride, pad),
        );
        let k = pool_kernel(name, inp, out, kernel);
        self.shape = out;
        self.layers
            .push(Layer::new(name, LayerKind::Pool, vec![k], out));
        self
    }

    /// Global average pooling down to `C×1×1`.
    #[must_use]
    pub fn global_avg_pool(mut self, name: &str) -> Self {
        let inp = self.shape;
        let out = TensorShape::flat(inp.channels);
        let k = Kernel::new(name, KernelClass::Pool)
            .with_flops(inp.elements() as u64)
            .with_bytes(inp.bytes() as u64, out.bytes() as u64, 0);
        self.shape = out;
        self.layers
            .push(Layer::new(name, LayerKind::Pool, vec![k], out));
        self
    }

    /// Fully-connected layer (+ fused activation).
    #[must_use]
    pub fn fc(mut self, name: &str, out_features: usize) -> Self {
        let inp = self.shape;
        let out = TensorShape::flat(out_features);
        let in_features = inp.elements();
        let flops = 2 * in_features * out_features;
        let weights = in_features * out_features * 4;
        let gemm = Kernel::new(name, KernelClass::Gemm)
            .with_flops(flops as u64)
            .with_bytes(inp.bytes() as u64, out.bytes() as u64, weights as u64);
        let act = activation_kernel(&format!("{name}.act"), out);
        self.shape = out;
        self.layers.push(Layer::new(
            name,
            LayerKind::FullyConnected,
            vec![gemm, act],
            out,
        ));
        self
    }

    /// Local response normalization (AlexNet-era), folded into the
    /// preceding conv layer's schedulable unit would hide a real kernel, so
    /// it is priced as part of the conv layer that calls this helper.
    #[must_use]
    pub fn with_lrn(mut self) -> Self {
        let last = self.layers.last_mut().expect("lrn follows a layer");
        let out = last.output_shape();
        let norm = Kernel::new(format!("{}.lrn", last.name()), KernelClass::Norm)
            .with_flops((out.elements() * 5) as u64)
            .with_bytes(out.bytes() as u64, out.bytes() as u64, 0);
        let mut kernels = last.kernels().to_vec();
        kernels.push(norm);
        *last = Layer::new(last.name().to_owned(), last.kind(), kernels, out);
        self
    }

    /// SqueezeNet fire module, modelled as **two** schedulable layers
    /// (squeeze, then expand+concat), matching the paper's layer counting
    /// for the motivational example.
    #[must_use]
    pub fn fire(mut self, name: &str, squeeze_ch: usize, expand_ch: usize) -> Self {
        let inp = self.shape;
        // Squeeze: 1x1 conv to squeeze_ch.
        let sq_out = TensorShape::new(squeeze_ch, inp.height, inp.width);
        let squeeze = conv_kernel(
            &format!("{name}.squeeze"),
            KernelClass::PointwiseConv,
            inp,
            sq_out,
            1,
            inp.channels,
        );
        let sq_act = activation_kernel(&format!("{name}.squeeze.act"), sq_out);
        self.layers.push(Layer::new(
            format!("{name}.squeeze"),
            LayerKind::Fire,
            vec![squeeze, sq_act],
            sq_out,
        ));

        // Expand: parallel 1x1 and 3x3 convs, concatenated.
        let half = TensorShape::new(expand_ch / 2, sq_out.height, sq_out.width);
        let out = TensorShape::new(expand_ch, sq_out.height, sq_out.width);
        let e1 = conv_kernel(
            &format!("{name}.expand1x1"),
            KernelClass::PointwiseConv,
            sq_out,
            half,
            1,
            sq_out.channels,
        );
        let e3 = conv_kernel(
            &format!("{name}.expand3x3"),
            KernelClass::DirectConv,
            sq_out,
            half,
            3,
            sq_out.channels,
        );
        let cat = Kernel::new(format!("{name}.concat"), KernelClass::Concat).with_bytes(
            out.bytes() as u64,
            out.bytes() as u64,
            0,
        );
        let act = activation_kernel(&format!("{name}.expand.act"), out);
        self.shape = out;
        self.layers.push(Layer::new(
            format!("{name}.expand"),
            LayerKind::Fire,
            vec![e1, e3, cat, act],
            out,
        ));
        self
    }

    /// ResNet basic residual block (3×3 conv → 3×3 conv → add), one
    /// schedulable layer. A projection shortcut is added when the stride or
    /// channel count changes.
    #[must_use]
    pub fn residual_basic(mut self, name: &str, out_ch: usize, stride: usize) -> Self {
        let inp = self.shape;
        let mid = TensorShape::new(
            out_ch,
            TensorShape::conv_out_extent(inp.height, 3, stride, 1),
            TensorShape::conv_out_extent(inp.width, 3, stride, 1),
        );
        let out = mid;
        let mut kernels = vec![
            conv_kernel(
                &format!("{name}.conv1"),
                KernelClass::DirectConv,
                inp,
                mid,
                3,
                inp.channels,
            ),
            activation_kernel(&format!("{name}.act1"), mid),
            conv_kernel(
                &format!("{name}.conv2"),
                KernelClass::DirectConv,
                mid,
                out,
                3,
                mid.channels,
            ),
        ];
        if stride != 1 || inp.channels != out_ch {
            kernels.push(conv_kernel(
                &format!("{name}.proj"),
                KernelClass::PointwiseConv,
                inp,
                out,
                1,
                inp.channels,
            ));
        }
        kernels.push(eltwise_add_kernel(&format!("{name}.add"), out));
        kernels.push(activation_kernel(&format!("{name}.act2"), out));
        self.shape = out;
        self.layers
            .push(Layer::new(name, LayerKind::Residual, kernels, out));
        self
    }

    /// ResNet bottleneck residual block (1×1 → 3×3 → 1×1 + add), one
    /// schedulable layer.
    #[must_use]
    pub fn residual_bottleneck(
        mut self,
        name: &str,
        mid_ch: usize,
        out_ch: usize,
        stride: usize,
    ) -> Self {
        let inp = self.shape;
        let reduce = TensorShape::new(mid_ch, inp.height, inp.width);
        let spatial = TensorShape::new(
            mid_ch,
            TensorShape::conv_out_extent(inp.height, 3, stride, 1),
            TensorShape::conv_out_extent(inp.width, 3, stride, 1),
        );
        let out = TensorShape::new(out_ch, spatial.height, spatial.width);
        let mut kernels = vec![
            conv_kernel(
                &format!("{name}.reduce"),
                KernelClass::PointwiseConv,
                inp,
                reduce,
                1,
                inp.channels,
            ),
            activation_kernel(&format!("{name}.act1"), reduce),
            conv_kernel(
                &format!("{name}.conv3x3"),
                KernelClass::DirectConv,
                reduce,
                spatial,
                3,
                reduce.channels,
            ),
            activation_kernel(&format!("{name}.act2"), spatial),
            conv_kernel(
                &format!("{name}.expand"),
                KernelClass::PointwiseConv,
                spatial,
                out,
                1,
                spatial.channels,
            ),
        ];
        if stride != 1 || inp.channels != out_ch {
            kernels.push(conv_kernel(
                &format!("{name}.proj"),
                KernelClass::PointwiseConv,
                inp,
                out,
                1,
                inp.channels,
            ));
        }
        kernels.push(eltwise_add_kernel(&format!("{name}.add"), out));
        kernels.push(activation_kernel(&format!("{name}.act3"), out));
        self.shape = out;
        self.layers
            .push(Layer::new(name, LayerKind::Residual, kernels, out));
        self
    }

    /// Generic inception block: parallel convolution branches whose outputs
    /// are concatenated. Each branch is a chain of `(out_ch, kernel)` convs
    /// applied to the block input; the block output stacks the branch
    /// channels at (possibly strided) spatial resolution.
    #[must_use]
    pub fn inception(mut self, name: &str, branches: &[&[(usize, usize)]], stride: usize) -> Self {
        let inp = self.shape;
        let out_h = TensorShape::conv_out_extent(inp.height, 3, stride, 1);
        let out_w = TensorShape::conv_out_extent(inp.width, 3, stride, 1);
        let mut kernels = Vec::new();
        let mut total_ch = 0usize;
        for (bi, branch) in branches.iter().enumerate() {
            let mut cur = inp;
            for (ci, (out_ch, k)) in branch.iter().enumerate() {
                let is_last = ci == branch.len() - 1;
                let (h, w) = if is_last {
                    (out_h, out_w)
                } else {
                    (cur.height, cur.width)
                };
                let nxt = TensorShape::new(*out_ch, h, w);
                let class = if *k == 1 {
                    KernelClass::PointwiseConv
                } else {
                    KernelClass::DirectConv
                };
                // Inception factorizes k>=7 windows into 1×k + k×1 pairs;
                // price them as such (2k MACs/element instead of k²).
                let kern = if *k >= 7 {
                    factorized_conv_kernel(&format!("{name}.b{bi}.c{ci}"), cur, nxt, *k)
                } else {
                    conv_kernel(
                        &format!("{name}.b{bi}.c{ci}"),
                        class,
                        cur,
                        nxt,
                        *k,
                        cur.channels,
                    )
                };
                kernels.push(kern);
                cur = nxt;
            }
            total_ch += cur.channels;
        }
        let out = TensorShape::new(total_ch, out_h, out_w);
        kernels.push(
            Kernel::new(format!("{name}.concat"), KernelClass::Concat).with_bytes(
                out.bytes() as u64,
                out.bytes() as u64,
                0,
            ),
        );
        kernels.push(activation_kernel(&format!("{name}.act"), out));
        self.shape = out;
        self.layers
            .push(Layer::new(name, LayerKind::Inception, kernels, out));
        self
    }

    /// Appends a softmax classifier kernel to the last layer.
    #[must_use]
    pub fn with_softmax(mut self) -> Self {
        let last = self.layers.last_mut().expect("softmax follows a layer");
        let out = last.output_shape();
        let sm = Kernel::new(format!("{}.softmax", last.name()), KernelClass::Softmax)
            .with_flops((out.elements() * 3) as u64)
            .with_bytes(out.bytes() as u64, out.bytes() as u64, 0);
        let mut kernels = last.kernels().to_vec();
        kernels.push(sm);
        *last = Layer::new(last.name().to_owned(), last.kind(), kernels, out);
        self
    }

    /// Finalizes the model.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from [`DnnModel::new`] (empty chain or
    /// duplicate layer names).
    pub fn build(self, name: impl Into<String>) -> Result<DnnModel, ModelError> {
        DnnModel::new(name, self.input_shape, self.layers)
    }
}

fn conv_kernel(
    name: &str,
    class: KernelClass,
    inp: TensorShape,
    out: TensorShape,
    kernel: usize,
    in_ch: usize,
) -> Kernel {
    let flops = 2 * kernel * kernel * in_ch * out.elements();
    let weights = kernel * kernel * in_ch * out.channels * 4;
    Kernel::new(name, class)
        .with_flops(flops as u64)
        .with_bytes(inp.bytes() as u64, out.bytes() as u64, weights as u64)
}

/// A 1×k-then-k×1 factorized convolution pair, priced as one kernel.
fn factorized_conv_kernel(name: &str, inp: TensorShape, out: TensorShape, k: usize) -> Kernel {
    let flops = 2 * (2 * k) * inp.channels * out.elements();
    let weights = 2 * k * inp.channels * out.channels * 4;
    Kernel::new(name, KernelClass::DirectConv)
        .with_flops(flops as u64)
        .with_bytes(inp.bytes() as u64, out.bytes() as u64, weights as u64)
}

fn activation_kernel(name: &str, shape: TensorShape) -> Kernel {
    Kernel::new(name, KernelClass::Activation)
        .with_flops(shape.elements() as u64)
        .with_bytes(shape.bytes() as u64, shape.bytes() as u64, 0)
}

fn pool_kernel(name: &str, inp: TensorShape, out: TensorShape, kernel: usize) -> Kernel {
    Kernel::new(name, KernelClass::Pool)
        .with_flops((kernel * kernel * out.elements()) as u64)
        .with_bytes(inp.bytes() as u64, out.bytes() as u64, 0)
}

fn eltwise_add_kernel(name: &str, shape: TensorShape) -> Kernel {
    Kernel::new(name, KernelClass::EltwiseAdd)
        .with_flops(shape.elements() as u64)
        .with_bytes((2 * shape.bytes()) as u64, shape.bytes() as u64, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_shapes_propagate() {
        let b = DnnModelBuilder::new(TensorShape::new(3, 224, 224))
            .conv("c1", 64, 7, 2, 3)
            .max_pool("p1", 3, 2, 1);
        assert_eq!(b.shape, TensorShape::new(64, 56, 56));
    }

    #[test]
    fn conv_flops_match_formula() {
        let m = DnnModelBuilder::new(TensorShape::new(3, 224, 224))
            .conv("c1", 64, 7, 2, 3)
            .build("m")
            .unwrap();
        // 2 * 7*7 * 3 * (64*112*112) MACs + activation elements.
        let conv_flops = 2u64 * 49 * 3 * (64 * 112 * 112);
        let act_flops = 64 * 112 * 112;
        assert_eq!(m.total_flops(), conv_flops + act_flops);
    }

    #[test]
    fn fire_produces_two_layers() {
        let m = DnnModelBuilder::new(TensorShape::new(96, 55, 55))
            .fire("fire2", 16, 128)
            .build("m")
            .unwrap();
        assert_eq!(m.num_layers(), 2);
        assert_eq!(m.layers()[1].output_shape().channels, 128);
    }

    #[test]
    fn residual_block_adds_projection_on_stride() {
        let strided = DnnModelBuilder::new(TensorShape::new(64, 56, 56))
            .residual_basic("r", 128, 2)
            .build("m")
            .unwrap();
        let plain = DnnModelBuilder::new(TensorShape::new(64, 56, 56))
            .residual_basic("r", 64, 1)
            .build("m")
            .unwrap();
        assert_eq!(
            strided.layers()[0].kernels().len(),
            plain.layers()[0].kernels().len() + 1
        );
    }

    #[test]
    fn inception_concatenates_branch_channels() {
        let m = DnnModelBuilder::new(TensorShape::new(192, 28, 28))
            .inception("mix", &[&[(64, 1)], &[(96, 1), (128, 3)], &[(32, 5)]], 1)
            .build("m")
            .unwrap();
        assert_eq!(m.layers()[0].output_shape().channels, 64 + 128 + 32);
    }

    #[test]
    fn fc_weights_dominate_bytes() {
        let m = DnnModelBuilder::new(TensorShape::new(256, 6, 6))
            .fc("fc6", 4096)
            .build("m")
            .unwrap();
        let w = m.total_weight_bytes();
        assert_eq!(w, (256 * 6 * 6 * 4096 * 4) as u64);
    }
}
