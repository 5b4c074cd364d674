//! The [`Sequential`] model container.

use crate::layer::{BoxedLayer, Layer};
use vc_tensor::{Tensor, Workspace};

/// A model as an ordered pipeline of layers.
///
/// `Sequential` itself implements [`Layer`], which lets [`crate::Residual`]
/// blocks nest arbitrary sub-pipelines. Its flat-parameter accessors are the
/// bridge to the distributed layer: [`Sequential::params_flat`] produces the
/// `W` vector of the paper's Eq. (1) and [`Sequential::set_params_flat`]
/// installs a server copy received over the (simulated) network.
pub struct Sequential {
    layers: Vec<BoxedLayer>,
    /// Whether the ReLU-fusion peephole has run over this pipeline.
    fused: bool,
}

impl Sequential {
    /// An empty pipeline.
    pub fn new() -> Self {
        Sequential {
            layers: Vec::new(),
            fused: false,
        }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer.
    pub fn push_boxed(&mut self, layer: BoxedLayer) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the pipeline has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total number of scalar parameters (the paper's model has 4,972,746).
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_len()).sum()
    }

    /// Copies all parameters into one flat vector.
    pub fn params_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        self.params_flat_into(&mut out);
        out
    }

    /// [`Self::params_flat`] into a reused vector: cleared, then filled.
    pub fn params_flat_into(&self, out: &mut Vec<f32>) {
        out.clear();
        for l in &self.layers {
            l.collect_params(out);
        }
    }

    /// Installs a flat parameter vector. Panics when the length disagrees
    /// with `param_count()` — a corrupted blob must never half-load.
    pub fn set_params_flat(&mut self, params: &[f32]) {
        assert_eq!(
            params.len(),
            self.param_count(),
            "parameter vector length {} does not match model ({})",
            params.len(),
            self.param_count()
        );
        let mut off = 0;
        for l in &mut self.layers {
            off += l.load_params(&params[off..]);
        }
        debug_assert_eq!(off, params.len());
    }

    /// Copies all accumulated gradients into one flat vector (same layout as
    /// [`Self::params_flat`]).
    pub fn grads_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        self.grads_flat_into(&mut out);
        out
    }

    /// [`Self::grads_flat`] into a reused vector: cleared, then filled. After
    /// the first call the vector's capacity suffices, so the per-step
    /// gradient gather in the workspace trainer allocates nothing.
    pub fn grads_flat_into(&self, out: &mut Vec<f32>) {
        out.clear();
        for l in &self.layers {
            l.collect_grads(out);
        }
    }

    /// Clears gradients in every layer.
    pub fn zero_grads_all(&mut self) {
        for l in &mut self.layers {
            l.zero_grads();
        }
    }

    /// Fuses each ReLU that directly follows a fusion-capable layer (dense,
    /// conv) into that layer's GEMM epilogue. Bit-exact: the downstream
    /// values and masks are unchanged (`relu(x) > 0 ⇔ x > 0`); the fused
    /// pipeline just skips one full pass over each activation. Idempotent;
    /// called automatically by the workspace training path.
    pub fn fuse_relu(&mut self) {
        if self.fused {
            return;
        }
        self.fused = true;
        for i in 0..self.layers.len().saturating_sub(1) {
            if self.layers[i + 1].is_relu() && self.layers[i].enable_relu_fusion() {
                self.layers[i + 1].set_fused_upstream();
            }
        }
    }

    /// Forward over the whole pipeline: tensors move by value and buffers
    /// recycle through `ws`. The same as [`Layer::forward_ws`], callable
    /// without the trait in scope.
    pub fn forward_pipeline_ws(&mut self, x: Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let mut cur = x;
        for l in &mut self.layers {
            cur = l.forward_ws(cur, train, ws);
        }
        cur
    }

    /// One-line summary of the architecture, e.g. `conv2d→relu→…`.
    pub fn summary(&self) -> String {
        self.layers
            .iter()
            .map(|l| l.name())
            .collect::<Vec<_>>()
            .join("→")
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Sequential {
    fn forward_ws(&mut self, x: Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        self.forward_pipeline_ws(x, train, ws)
    }

    /// Backward over the whole pipeline; the returned input gradient's
    /// buffer also comes from `ws`.
    fn backward_ws(&mut self, dy: Tensor, ws: &mut Workspace) -> Tensor {
        let mut cur = dy;
        for l in self.layers.iter_mut().rev() {
            cur = l.backward_ws(cur, ws);
        }
        cur
    }

    /// Backward for a trainer that reads only parameter gradients: the
    /// full workspace backward down to the first layer that owns
    /// parameters, its parameter-only backward there, and nothing below it
    /// — the parameter-free layers under it (e.g. a leading `Flatten`)
    /// have no gradient to accumulate. `grads_flat()` afterwards is
    /// bitwise what [`Layer::backward_ws`] leaves.
    fn backward_params_ws(&mut self, dy: Tensor, ws: &mut Workspace) {
        let Some(first) = self.layers.iter().position(|l| l.param_len() > 0) else {
            ws.recycle(dy.into_vec());
            return;
        };
        let mut cur = dy;
        for l in self.layers[first + 1..].iter_mut().rev() {
            cur = l.backward_ws(cur, ws);
        }
        self.layers[first].backward_params_ws(cur, ws);
    }

    fn param_len(&self) -> usize {
        self.param_count()
    }

    fn collect_params(&self, out: &mut Vec<f32>) {
        for l in &self.layers {
            l.collect_params(out);
        }
    }

    fn load_params(&mut self, src: &[f32]) -> usize {
        let mut off = 0;
        for l in &mut self.layers {
            off += l.load_params(&src[off..]);
        }
        off
    }

    fn collect_grads(&self, out: &mut Vec<f32>) {
        for l in &self.layers {
            l.collect_grads(out);
        }
    }

    fn zero_grads(&mut self) {
        self.zero_grads_all();
    }

    fn name(&self) -> &'static str {
        "sequential"
    }

    fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
        let mut dims = in_dims.to_vec();
        for l in &self.layers {
            dims = l.out_dims(&dims);
        }
        dims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::dense::Dense;
    use crate::loss::SoftmaxCrossEntropy;
    use vc_tensor::NormalSampler;

    fn tiny_model(seed: u64) -> Sequential {
        let mut s = NormalSampler::seed_from(seed);
        Sequential::new()
            .push(Dense::new(4, 8, &mut s))
            .push(Relu::new())
            .push(Dense::new(8, 3, &mut s))
    }

    #[test]
    fn forward_shapes_compose() {
        let mut m = tiny_model(1);
        let y = m.forward(&Tensor::zeros(&[5, 4]), false);
        assert_eq!(y.dims(), &[5, 3]);
        assert_eq!(m.out_dims(&[5, 4]), vec![5, 3]);
    }

    #[test]
    fn flat_params_roundtrip() {
        let m = tiny_model(2);
        let p = m.params_flat();
        assert_eq!(p.len(), m.param_count());
        assert_eq!(p.len(), 4 * 8 + 8 + 8 * 3 + 3);
        let mut m2 = tiny_model(3);
        m2.set_params_flat(&p);
        assert_eq!(m2.params_flat(), p);
    }

    #[test]
    fn identical_params_give_identical_outputs() {
        let mut a = tiny_model(4);
        let mut b = tiny_model(5);
        b.set_params_flat(&a.params_flat());
        let mut s = NormalSampler::seed_from(6);
        let x = Tensor::randn(&[3, 4], 0.0, 1.0, &mut s);
        assert_eq!(a.forward(&x, false).data(), b.forward(&x, false).data());
    }

    #[test]
    #[should_panic(expected = "does not match model")]
    fn rejects_wrong_length_vector() {
        tiny_model(7).set_params_flat(&[0.0; 3]);
    }

    #[test]
    fn one_sgd_step_reduces_loss() {
        // The end-to-end sanity check: backprop through the whole pipeline
        // must reduce the training loss for a small step.
        let mut m = tiny_model(8);
        let mut s = NormalSampler::seed_from(9);
        let x = Tensor::randn(&[16, 4], 0.0, 1.0, &mut s);
        let labels: Vec<usize> = (0..16).map(|i| i % 3).collect();

        let logits = m.forward(&x, true);
        let (loss0, dlogits) = SoftmaxCrossEntropy::loss_and_grad_ws(logits, &labels);
        m.zero_grads_all();
        m.backward(&dlogits);
        let mut p = m.params_flat();
        let g = m.grads_flat();
        for (pi, gi) in p.iter_mut().zip(&g) {
            *pi -= 0.1 * gi;
        }
        m.set_params_flat(&p);
        let logits1 = m.forward(&x, true);
        let loss1 = SoftmaxCrossEntropy::loss(&logits1, &labels);
        assert!(loss1 < loss0, "loss {loss0} -> {loss1}");
    }

    #[test]
    fn grads_flat_matches_param_layout() {
        let mut m = tiny_model(10);
        let x = Tensor::ones(&[2, 4]);
        let y = m.forward(&x, true);
        m.zero_grads_all();
        m.backward(&Tensor::ones(y.dims()));
        assert_eq!(m.grads_flat().len(), m.param_count());
    }

    #[test]
    fn summary_names_layers() {
        assert_eq!(tiny_model(11).summary(), "dense→relu→dense");
    }

    #[test]
    fn ws_pipeline_with_fusion_is_bitwise_identical() {
        // The steady-state pool assertion below is sensitive to the conv
        // path toggling mid-test (different path → different buffer
        // sizes → spurious miss), so hold the toggle lock.
        let _g = crate::CONV_PATH_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        use crate::conv::Conv2d;
        use crate::pool::{Flatten, MaxPool2};

        let build = |seed| {
            let mut s = NormalSampler::seed_from(seed);
            Sequential::new()
                .push(Conv2d::new(1, 4, 3, 1, 1, &mut s))
                .push(Relu::new())
                .push(MaxPool2::new())
                .push(Flatten::new())
                .push(Dense::new(4 * 4 * 4, 8, &mut s))
                .push(Relu::new())
                .push(Dense::new(8, 3, &mut s))
        };
        let mut plain = build(40);
        let mut fused = build(41);
        fused.set_params_flat(&plain.params_flat());
        fused.fuse_relu();

        let mut s = NormalSampler::seed_from(42);
        let x = Tensor::randn(&[2, 1, 8, 8], 0.0, 1.0, &mut s);
        let labels = [1usize, 2];
        let mut ws = Workspace::new();

        // Reference: the unfused model through the `forward` / `backward`
        // wrappers, each on a fresh workspace.
        let logits_p = plain.forward(&x, true);
        let (loss_p, dy_p) = SoftmaxCrossEntropy::loss_and_grad_ws(logits_p.clone(), &labels);
        plain.zero_grads_all();
        plain.backward(&dy_p);

        // The fused model on one reused workspace must be bit-identical.
        let logits_w = fused.forward_pipeline_ws(x.clone(), true, &mut ws);
        assert_eq!(logits_p.data(), logits_w.data());
        let (loss_w, dy_w) = SoftmaxCrossEntropy::loss_and_grad_ws(logits_w, &labels);
        assert_eq!(loss_p.to_bits(), loss_w.to_bits());
        fused.zero_grads_all();
        let _ = fused.backward_ws(dy_w, &mut ws);
        assert_eq!(plain.grads_flat(), fused.grads_flat());

        // Steady state: a second ws step must not miss the buffer pool.
        let (_, misses_warm) = ws.stats();
        let logits2 = fused.forward_pipeline_ws(x.clone(), true, &mut ws);
        let (_, dy2) = SoftmaxCrossEntropy::loss_and_grad_ws(logits2, &labels);
        let _ = fused.backward_ws(dy2, &mut ws);
        let (_, misses_steady) = ws.stats();
        assert_eq!(misses_warm, misses_steady, "steady-state step allocated");
    }

    /// Two training steps (so each layer's recycle-previous-cache path
    /// runs) on twin replicas of `spec`, one with the full workspace
    /// backward and one with the parameter-only backward; the gradients
    /// must match bit for bit after every step.
    fn assert_params_only_backward_is_bitwise(spec: &crate::ModelSpec, batch: usize) {
        let mut full = spec.build(60);
        let mut params_only = spec.build(60);
        full.fuse_relu();
        params_only.fuse_relu();
        let mut dims = vec![batch];
        dims.extend_from_slice(&spec.input);
        let mut s = NormalSampler::seed_from(61);
        let x = Tensor::randn(&dims, 0.0, 1.0, &mut s);
        let labels: Vec<usize> = (0..batch).map(|i| i % spec.classes).collect();
        let (mut ws_full, mut ws_params) = (Workspace::new(), Workspace::new());
        let bits = |m: &Sequential| {
            m.grads_flat()
                .iter()
                .map(|g| g.to_bits())
                .collect::<Vec<_>>()
        };
        for step in 0..2 {
            let logits = full.forward_pipeline_ws(x.clone(), true, &mut ws_full);
            let (_, dy) = SoftmaxCrossEntropy::loss_and_grad_ws(logits, &labels);
            full.zero_grads_all();
            let dx = full.backward_ws(dy, &mut ws_full);
            ws_full.recycle(dx.into_vec());

            let logits = params_only.forward_pipeline_ws(x.clone(), true, &mut ws_params);
            let (_, dy) = SoftmaxCrossEntropy::loss_and_grad_ws(logits, &labels);
            params_only.zero_grads_all();
            params_only.backward_params_ws(dy, &mut ws_params);

            assert_eq!(
                bits(&full),
                bits(&params_only),
                "{}: step {step} grads differ",
                spec.name
            );
        }
    }

    #[test]
    fn params_only_backward_matches_full_backward_bitwise() {
        // Forces the direct 3×3 conv path, so hold the toggle lock.
        let _g = crate::CONV_PATH_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        use crate::spec::{mlp, resnet_lite, small_cnn};
        use crate::LayerSpec;
        vc_tensor::conv_direct::set_enabled(true);
        // First layer: a direct-path 3×3 conv.
        assert_params_only_backward_is_bitwise(&small_cnn(&[3, 8, 8], 4), 3);
        // First layer: a parameter-free `Flatten`, then a dense.
        assert_params_only_backward_is_bitwise(&mlp(&[2, 4, 4], 8, 3), 4);
        // Residual blocks and BatchNorm above the stem conv.
        assert_params_only_backward_is_bitwise(&resnet_lite(&[3, 8, 8], 1, 4), 2);
        // First layer: a 5×5 conv, which takes the im2col route.
        let mut wide = small_cnn(&[3, 8, 8], 4);
        wide.layers[0] = LayerSpec::Conv {
            in_ch: 3,
            out_ch: 16,
            k: 5,
            stride: 1,
            pad: 2,
        };
        assert_params_only_backward_is_bitwise(&wide, 3);
        vc_tensor::conv_direct::clear_forced();
    }

    #[test]
    fn fused_predict_matches_unfused_predict() {
        let mut plain = tiny_model(50);
        let mut fused = tiny_model(51);
        fused.set_params_flat(&plain.params_flat());
        fused.fuse_relu();
        let mut s = NormalSampler::seed_from(52);
        let x = Tensor::randn(&[3, 4], 0.0, 1.0, &mut s);
        assert_eq!(
            plain.forward(&x, false).data(),
            fused.forward(&x, false).data()
        );
    }
}
