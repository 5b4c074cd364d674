//! The [`Layer`] trait: the contract every network component implements.

use vc_tensor::{Tensor, Workspace};

/// A differentiable network component.
///
/// Layers own their parameters *and* their gradients: `backward` accumulates
/// into layer-local gradient buffers, and the model aggregates them into the
/// flat vectors that the optimizers and the distributed schemes exchange.
///
/// `Send` is required so entire models can be moved into rayon tasks — the
/// simulated volunteer fleet trains one independent model replica per
/// subtask, in parallel.
///
/// ## Workspace path
///
/// [`forward_ws`](Layer::forward_ws) / [`backward_ws`](Layer::backward_ws)
/// are the allocation-free variants the training hot loop uses: tensors move
/// *by value* through the layer chain, each layer draws its output buffer
/// from the replica's [`Workspace`] and recycles the buffers it consumed.
/// The defaults fall back to the borrowing `forward`/`backward`, so custom
/// layers stay correct without opting in; the layers on the paper-CNN hot
/// path (conv, dense, relu, pooling, flatten) all override them. Both paths
/// compute bit-identical values.
pub trait Layer: Send {
    /// Computes the layer output. When `train` is true the layer may cache
    /// activations for `backward` and use batch statistics (BatchNorm);
    /// when false it must be a pure function of its parameters.
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Propagates the output gradient `dy` to an input gradient, and
    /// accumulates parameter gradients into layer-local buffers. Must be
    /// called after a `forward(.., true)` on the same input.
    fn backward(&mut self, dy: &Tensor) -> Tensor;

    /// Workspace variant of [`forward`](Layer::forward): consumes the input
    /// tensor and recycles its storage once no longer needed.
    fn forward_ws(&mut self, x: Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let y = self.forward(&x, train);
        ws.recycle(x.into_vec());
        y
    }

    /// Workspace variant of [`backward`](Layer::backward): consumes the
    /// output gradient and recycles its storage once no longer needed.
    fn backward_ws(&mut self, dy: Tensor, ws: &mut Workspace) -> Tensor {
        let dx = self.backward(&dy);
        ws.recycle(dy.into_vec());
        dx
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A do-nothing layer to exercise trait defaults.
    struct Identity;
    impl Layer for Identity {
        fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
            x.clone()
        }
        fn backward(&mut self, dy: &Tensor) -> Tensor {
            dy.clone()
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
        l.backward_params_ws(dy, &mut ws);
        assert_eq!(
            ws.pooled(),
            pooled + 2,
            "both the consumed dy and the dropped dx must be recycled"
        );
        assert!(!l.enable_relu_fusion());
        assert!(!l.is_relu());
    }
}
