//! The [`Layer`] trait: the contract every network component implements.

use vc_tensor::{Tensor, Workspace};

/// A differentiable network component.
///
/// Layers own their parameters *and* their gradients: the backward pass
/// accumulates into layer-local gradient buffers, and the model aggregates
/// them into the flat vectors that the optimizers and the distributed
/// schemes exchange.
///
/// `Send` is required so entire models can be moved into rayon tasks — the
/// simulated volunteer fleet trains one independent model replica per
/// subtask, in parallel.
///
/// ## One path: the workspace
///
/// [`forward_ws`](Layer::forward_ws) / [`backward_ws`](Layer::backward_ws)
/// are the layer's only implementation of its math. Tensors move *by
/// value* through the layer chain: each layer draws its output buffer from
/// the replica's [`Workspace`] (or writes in place) and recycles the
/// buffers it consumed, so a warm training loop allocates nothing.
/// [`forward`](Layer::forward) / [`backward`](Layer::backward) are
/// convenience wrappers that clone their argument into a fresh workspace.
///
/// ## The training cache
///
/// A training forward (`train = true`) caches what the next backward
/// reads. An inference forward (`train = false`) drops that cache: a
/// backward after it panics until the next training forward. A layer whose
/// backward reads no cache (e.g. inference-mode [`crate::Dropout`]) is the
/// only exception.
pub trait Layer: Send {
    /// Computes the layer output, consuming the input tensor and recycling
    /// its storage once no longer needed. When `train` is true the layer
    /// may cache activations for the backward pass and use batch statistics
    /// (BatchNorm); when false it must be a pure function of its parameters
    /// and leaves no training cache behind.
    fn forward_ws(&mut self, x: Tensor, train: bool, ws: &mut Workspace) -> Tensor;

    /// Propagates the output gradient `dy` to an input gradient, consuming
    /// `dy`, and accumulates parameter gradients into layer-local buffers.
    /// Must follow a training [`forward_ws`](Layer::forward_ws) on the same
    /// input.
    fn backward_ws(&mut self, dy: Tensor, ws: &mut Workspace) -> Tensor;

    /// [`forward_ws`](Layer::forward_ws) on a copy of `x`, with a fresh
    /// workspace.
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.forward_ws(x.clone(), train, &mut Workspace::new())
    }

    /// [`backward_ws`](Layer::backward_ws) on a copy of `dy`, with a fresh
    /// workspace.
    fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.backward_ws(dy.clone(), &mut Workspace::new())
    }

    /// Parameter-only variant of [`backward_ws`](Layer::backward_ws):
    /// accumulates exactly the parameter gradients `backward_ws` would, but
    /// computes no input gradient. The trainer calls it on the first
    /// trainable layer, whose input gradient nobody reads. The default runs
    /// `backward_ws` and recycles the result; layers whose input gradient
    /// costs real work (conv, dense) override it to skip that work.
    ///
    /// It ends the step for this layer: an override may hand its forward
    /// cache back to `ws` (the next step's batch gather then reuses that
    /// buffer), so another backward needs a fresh training forward first.
    fn backward_params_ws(&mut self, dy: Tensor, ws: &mut Workspace) {
        let dx = self.backward_ws(dy, ws);
        ws.recycle(dx.into_vec());
    }

    /// Asks the layer to fuse a ReLU into its output epilogue (the
    /// bias+activation epilogue of the blocked GEMM). Returns `true` when
    /// the layer supports it and has switched it on; the following ReLU
    /// layer must then be told via [`set_fused_upstream`]
    /// (Layer::set_fused_upstream). Default: unsupported.
    fn enable_relu_fusion(&mut self) -> bool {
        false
    }

    /// True for ReLU layers — the fusion peephole's target. Fusing is
    /// bit-exact: `relu(x) > 0 ⇔ x > 0`, so the downstream mask and values
    /// are unchanged.
    fn is_relu(&self) -> bool {
        false
    }

    /// Informs a ReLU layer that its upstream neighbour already applies the
    /// rectification, so its forward becomes a mask-only pass-through.
    fn set_fused_upstream(&mut self) {}

    /// Number of scalar parameters this layer owns (including buffers that
    /// must travel with the weights, e.g. BatchNorm running statistics —
    /// the paper ships the complete `.h5` state, so do we).
    fn param_len(&self) -> usize {
        0
    }

    /// Appends this layer's parameters to `out` in a fixed order.
    fn collect_params(&self, _out: &mut Vec<f32>) {}

    /// Reads `param_len()` values from the front of `src`, returning the
    /// number consumed. Order must mirror `collect_params`.
    fn load_params(&mut self, _src: &[f32]) -> usize {
        0
    }

    /// Appends this layer's parameter gradients to `out`; same order and
    /// length as `collect_params` (buffers contribute zeros).
    fn collect_grads(&self, _out: &mut Vec<f32>) {}

    /// Clears accumulated gradients.
    fn zero_grads(&mut self) {}

    /// Human-readable layer kind, for summaries and error messages.
    fn name(&self) -> &'static str;

    /// Output shape for a given input shape, used by the model builder to
    /// validate specs before allocating parameters.
    fn out_dims(&self, in_dims: &[usize]) -> Vec<usize>;
}

/// A boxed layer, as stored by [`crate::Sequential`].
pub type BoxedLayer = Box<dyn Layer>;

/// A copy of `t` in a buffer drawn from `ws`, for a layer that must both
/// consume a tensor and keep reading it (a cache, a skip path).
pub(crate) fn pooled_copy(t: &Tensor, ws: &mut Workspace) -> Tensor {
    let mut buf = ws.take(t.numel());
    buf.copy_from_slice(t.data());
    Tensor::from_vec(buf, t.dims())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A do-nothing layer to exercise trait defaults: copies its input into
    /// a pooled buffer and recycles the consumed one.
    struct Identity;

    impl Identity {
        fn copy(t: Tensor, ws: &mut Workspace) -> Tensor {
            let out = pooled_copy(&t, ws);
            ws.recycle(t.into_vec());
            out
        }
    }

    impl Layer for Identity {
        fn forward_ws(&mut self, x: Tensor, _train: bool, ws: &mut Workspace) -> Tensor {
            Self::copy(x, ws)
        }
        fn backward_ws(&mut self, dy: Tensor, ws: &mut Workspace) -> Tensor {
            Self::copy(dy, ws)
        }
        fn name(&self) -> &'static str {
            "identity"
        }
        fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
            in_dims.to_vec()
        }
    }

    #[test]
    fn defaults_are_paramless() {
        let mut l = Identity;
        assert_eq!(l.param_len(), 0);
        let mut v = Vec::new();
        l.collect_params(&mut v);
        l.collect_grads(&mut v);
        assert!(v.is_empty());
        assert_eq!(l.load_params(&[1.0, 2.0]), 0);
        l.zero_grads();
    }

    #[test]
    fn boxed_layer_is_usable() {
        let mut l: BoxedLayer = Box::new(Identity);
        let x = Tensor::ones(&[2, 2]);
        let y = l.forward(&x, false);
        assert_eq!(y.data(), x.data());
        assert_eq!(l.backward(&y).data(), x.data());
        assert_eq!(l.name(), "identity");
    }

    #[test]
    fn ws_defaults_fall_back_and_recycle() {
        let mut l = Identity;
        let mut ws = Workspace::new();
        let y = l.forward_ws(Tensor::ones(&[2, 3]), true, &mut ws);
        assert_eq!(y.dims(), &[2, 3]);
        assert_eq!(ws.pooled(), 1, "consumed input must be recycled");
        let dy = l.backward_ws(y, &mut ws);
        assert_eq!(dy.dims(), &[2, 3]);
        let pooled = ws.pooled();
        let (takes, _) = ws.stats();
        l.backward_params_ws(dy, &mut ws);
        let taken = (ws.stats().0 - takes) as usize;
        assert_eq!(
            ws.pooled() + taken,
            pooled + 2,
            "both the consumed dy and the dropped dx must be recycled"
        );
        assert!(!l.enable_relu_fusion());
        assert!(!l.is_relu());
    }

    /// The trait's cache rule, for every layer that keeps one: after a
    /// training forward, an inference forward drops the cache, so the
    /// following backward panics.
    #[test]
    fn inference_forward_drops_the_training_cache() {
        use crate::{
            AvgPoolGlobal, BatchNorm, Conv2d, Dense, Flatten, LeakyRelu, MaxPool2, Relu, Residual,
            Sequential, Sigmoid, Tanh,
        };
        use vc_tensor::NormalSampler;
        let mut s = NormalSampler::seed_from(1);
        let img = || Tensor::ones(&[2, 2, 4, 4]);
        let cases: Vec<(BoxedLayer, Tensor)> = vec![
            (Box::new(Conv2d::new(2, 2, 3, 1, 1, &mut s)), img()),
            (Box::new(Conv2d::new(2, 2, 3, 2, 1, &mut s)), img()),
            (Box::new(Dense::new(3, 2, &mut s)), Tensor::ones(&[2, 3])),
            (Box::new(Relu::new()), img()),
            (Box::new(MaxPool2::new()), img()),
            (Box::new(AvgPoolGlobal::new()), img()),
            (Box::new(Flatten::new()), img()),
            (Box::new(BatchNorm::new(2, 0.9)), img()),
            (Box::new(Sigmoid::new()), img()),
            (Box::new(Tanh::new()), img()),
            (Box::new(LeakyRelu::new(0.1)), img()),
            (
                Box::new(Residual::new(Sequential::new().push(Relu::new()))),
                img(),
            ),
        ];
        for (mut layer, x) in cases {
            let y = layer.forward(&x, true);
            let _ = layer.backward(&Tensor::ones(y.dims()));
            let y = layer.forward(&x, false);
            let dy = Tensor::ones(y.dims());
            let panicked =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| layer.backward(&dy)))
                    .is_err();
            assert!(
                panicked,
                "{}: backward after inference must panic",
                layer.name()
            );
        }
    }
}
