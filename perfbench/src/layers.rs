//! Layer-by-layer replay of one training step.
//!
//! The model is rebuilt here layer by layer from its [`ModelSpec`] through
//! each layer's public constructor, drawing from the same seeded sampler
//! in the same order as [`ModelSpec::build`], so the replayed layers hold
//! the very parameters the runtime trains (checked bitwise). A step then
//! runs the workspace path `train_minibatch_ws` takes — gather, fused
//! forward, loss, backward, gradient clip, optimizer, parameter reload —
//! with a span around every layer's forward and backward, the loss and the
//! optimizer. Whatever the step does outside those spans is its remainder.

use crate::record::{Checks, Metric};
use crate::spans::{name, Tracer};
use crate::stats::median;
use vc_nn::{
    AvgPoolGlobal, BatchNorm, Conv2d, Dense, Dropout, Flatten, Layer, LayerSpec, LeakyRelu,
    MaxPool2, ModelSpec, Relu, Residual, Sequential, Sigmoid, SoftmaxCrossEntropy, Tanh,
};
use vc_optim::{clip_by_global_norm, Optimizer, OptimizerSpec};
use vc_tensor::{NormalSampler, Tensor, Workspace};

/// The gradient-clip norm every client subtask trains with.
pub const CLIP_NORM: f32 = 5.0;

fn build_layer(spec: &LayerSpec, sampler: &mut NormalSampler) -> Box<dyn Layer> {
    match spec {
        LayerSpec::Dense { input, output } => Box::new(Dense::new(*input, *output, sampler)),
        LayerSpec::Conv {
            in_ch,
            out_ch,
            k,
            stride,
            pad,
        } => Box::new(Conv2d::new(*in_ch, *out_ch, *k, *stride, *pad, sampler)),
        LayerSpec::Relu => Box::new(Relu::new()),
        LayerSpec::MaxPool2 => Box::new(MaxPool2::new()),
        LayerSpec::AvgPoolGlobal => Box::new(AvgPoolGlobal::new()),
        LayerSpec::Flatten => Box::new(Flatten::new()),
        LayerSpec::BatchNorm { ch } => Box::new(BatchNorm::new(*ch, 0.9)),
        LayerSpec::Dropout { p } => {
            let seed = (sampler.sample().to_bits() as u64) << 16;
            Box::new(Dropout::new(*p, seed))
        }
        LayerSpec::Tanh => Box::new(Tanh::new()),
        LayerSpec::Sigmoid => Box::new(Sigmoid::new()),
        LayerSpec::LeakyRelu { slope } => Box::new(LeakyRelu::new(*slope)),
        LayerSpec::Residual { body } => {
            let mut inner = Sequential::new();
            for l in body {
                inner.push_boxed(build_layer(l, sampler));
            }
            Box::new(Residual::new(inner))
        }
    }
}

/// A model held as its separate top-level layers.
pub struct Layers {
    layers: Vec<Box<dyn Layer>>,
    /// Span names `L<i>.<kind>.fwd` / `.bwd`, built once.
    fwd: Vec<&'static str>,
    bwd: Vec<&'static str>,
}

/// Builds the top-level layers of `spec` with `seed` exactly as
/// [`ModelSpec::build`] does, then applies the ReLU-fusion peephole the
/// workspace trainer applies.
fn fused_layers(spec: &ModelSpec, seed: u64) -> Vec<Box<dyn Layer>> {
    let mut sampler = NormalSampler::seed_from(seed);
    let mut layers: Vec<Box<dyn Layer>> = spec
        .layers
        .iter()
        .map(|l| build_layer(l, &mut sampler))
        .collect();
    for i in 0..layers.len().saturating_sub(1) {
        if layers[i + 1].is_relu() && layers[i].enable_relu_fusion() {
            layers[i + 1].set_fused_upstream();
        }
    }
    layers
}

impl Layers {
    /// [`fused_layers`] plus their span names.
    pub fn build(spec: &ModelSpec, seed: u64) -> Self {
        let layers = fused_layers(spec, seed);
        let label = |i: usize, l: &dyn Layer, dir: &str| name(format!("L{i}.{}.{dir}", l.name()));
        let fwd = layers
            .iter()
            .enumerate()
            .map(|(i, l)| label(i, l.as_ref(), "fwd"))
            .collect();
        let bwd = layers
            .iter()
            .enumerate()
            .map(|(i, l)| label(i, l.as_ref(), "bwd"))
            .collect();
        Layers { layers, fwd, bwd }
    }

    /// Flat parameters, in `Sequential::params_flat` order.
    pub fn params_flat_into(&self, out: &mut Vec<f32>) {
        out.clear();
        for l in &self.layers {
            l.collect_params(out);
        }
    }

    /// Installs a flat parameter vector, in `Sequential::set_params_flat`
    /// order.
    pub fn set_params_flat(&mut self, params: &[f32]) {
        let mut off = 0;
        for l in &mut self.layers {
            off += l.load_params(&params[off..]);
        }
        assert_eq!(off, params.len(), "parameter length mismatch");
    }

    /// Forward through every layer on the workspace path, without spans.
    pub fn forward_ws(&mut self, x: Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let mut cur = x;
        for l in &mut self.layers {
            cur = l.forward_ws(cur, train, ws);
        }
        cur
    }

    /// The span names of layer `i`'s forward and backward.
    pub fn span_names(&self, i: usize) -> (&'static str, &'static str) {
        (self.fwd[i], self.bwd[i])
    }
}

/// One optimizer's worth of training state for the replayed layers.
pub struct Stepper {
    model: Layers,
    opt: Optimizer,
    params: Vec<f32>,
    grads: Vec<f32>,
    labels: Vec<usize>,
    ws: Workspace,
}

impl Stepper {
    /// Fresh layers from `spec`/`seed` and a fresh optimizer, as a client
    /// subtask starts.
    pub fn new(spec: &ModelSpec, seed: u64, optimizer: &OptimizerSpec) -> Self {
        let model = Layers::build(spec, seed);
        let mut params = Vec::new();
        model.params_flat_into(&mut params);
        Stepper {
            opt: optimizer.build(params.len()),
            model,
            params,
            grads: Vec::new(),
            labels: Vec::new(),
            ws: Workspace::new(),
        }
    }

    /// Starts a client subtask as `train_client_replica_ws` does: a freshly
    /// built model loaded with the fetched snapshot and a fresh optimizer.
    /// The workspace pools carry over, as a worker thread's do.
    pub fn start_subtask(
        &mut self,
        spec: &ModelSpec,
        seed: u64,
        params: &[f32],
        optimizer: &OptimizerSpec,
    ) {
        self.model.layers = fused_layers(spec, seed);
        self.model.set_params_flat(params);
        self.params.clear();
        self.params.extend_from_slice(params);
        self.opt = optimizer.build(params.len());
    }

    /// The current flat parameters.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// One training step on the samples `idx` of `(images, labels)`, inside
    /// a `step` span with one child span per layer pass, the loss and the
    /// optimizer. Returns the batch loss.
    pub fn step(
        &mut self,
        t: &mut Tracer,
        images: &Tensor,
        labels: &[usize],
        idx: &[usize],
    ) -> f32 {
        let step = t.begin("step");
        let dims = images.dims();
        let sample_len: usize = dims[1..].iter().product();
        let mut data = self.ws.take(idx.len() * sample_len);
        self.labels.clear();
        for (bi, &i) in idx.iter().enumerate() {
            data[bi * sample_len..(bi + 1) * sample_len]
                .copy_from_slice(&images.data()[i * sample_len..(i + 1) * sample_len]);
            self.labels.push(labels[i]);
        }
        let mut bdims = [0usize; 4];
        bdims[0] = idx.len();
        bdims[1..dims.len()].copy_from_slice(&dims[1..]);
        let mut cur = Tensor::from_vec(data, &bdims[..dims.len()]);

        for i in 0..self.model.layers.len() {
            let id = t.begin(self.model.fwd[i]);
            cur = self.model.layers[i].forward_ws(cur, true, &mut self.ws);
            t.end(id);
        }
        let id = t.begin("loss");
        let (loss, mut dy) = SoftmaxCrossEntropy::loss_and_grad_ws(cur, &self.labels);
        t.end(id);
        for l in &mut self.model.layers {
            l.zero_grads();
        }
        for i in (0..self.model.layers.len()).rev() {
            let id = t.begin(self.model.bwd[i]);
            dy = self.model.layers[i].backward_ws(dy, &mut self.ws);
            t.end(id);
        }
        self.ws.recycle(dy.into_vec());
        self.grads.clear();
        for l in &self.model.layers {
            l.collect_grads(&mut self.grads);
        }
        clip_by_global_norm(&mut self.grads, CLIP_NORM);
        let id = t.begin("optim");
        self.opt.step(&mut self.params, &self.grads);
        t.end(id);
        self.model.set_params_flat(&self.params);
        t.end(step);
        loss
    }
}

/// Bitwise equality of two float slices.
pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The replay-fidelity checks for one model: the replayed layers hold the
/// parameters `ModelSpec::build(seed)` produces, and their forward logits
/// equal `Sequential::forward_pipeline_ws` on the same batch, bit for bit.
pub fn check_fidelity(
    spec: &ModelSpec,
    seed: u64,
    batch: &Tensor,
    label: &str,
    checks: &mut Checks,
) {
    let mut reference = spec.build(seed);
    let mut replay = Layers::build(spec, seed);
    let mut ours = Vec::new();
    replay.params_flat_into(&mut ours);
    checks.check(
        &format!("{label}.replay_params_bitwise"),
        bits_equal(&ours, &reference.params_flat()),
        "replayed layers hold different parameters than ModelSpec::build",
    );
    reference.fuse_relu();
    let mut ws = Workspace::new();
    let want = reference.forward_pipeline_ws(batch.clone(), true, &mut ws);
    let got = replay.forward_ws(batch.clone(), true, &mut ws);
    checks.check(
        &format!("{label}.replay_logits_bitwise"),
        bits_equal(got.data(), want.data()),
        "replayed forward differs from Sequential::forward_pipeline_ws",
    );
}

/// What [`step_table`] measures.
pub struct TableSpec<'a> {
    /// Metric prefix under `nn.` / `optim.`, e.g. `small_cnn`.
    pub model: &'static str,
    pub spec: &'a ModelSpec,
    pub seed: u64,
    pub optimizer: &'a OptimizerSpec,
    pub images: &'a Tensor,
    pub labels: &'a [usize],
    pub batch: usize,
    /// Measure for at least this long (after one warm-up step)…
    pub budget_s: f64,
    /// …and at least this many steps.
    pub min_steps: usize,
    /// The paper's model family: also time the bodies of the first
    /// `Residual` of each width standalone, and check that the loss falls
    /// and that the layers account for the step.
    pub paper_family: bool,
}

/// Replays training steps of one model layer by layer and reports, per
/// top-level layer, the median forward and backward time, plus the loss,
/// the optimizer, the whole step and the step's remainder. Layers without
/// parameters or work of their own (`flatten`) are timed but not reported.
pub fn step_table(ts: &TableSpec<'_>, t: &mut Tracer, checks: &mut Checks) -> Vec<Metric> {
    let n = ts.labels.len();
    let batches: Vec<Vec<usize>> = (0..n / ts.batch)
        .map(|b| (b * ts.batch..(b + 1) * ts.batch).collect())
        .collect();
    assert!(!batches.is_empty(), "step table needs at least one batch");
    let first = gather(ts.images, &batches[0]);
    check_fidelity(
        ts.spec,
        ts.seed,
        &first,
        &format!("nn.{}", ts.model),
        checks,
    );

    let mut st = Stepper::new(ts.spec, ts.seed, ts.optimizer);
    // Warm-up: fills the workspace pools, as the first subtask step does.
    let mut warm = Tracer::with_capacity(64);
    st.step(&mut warm, ts.images, ts.labels, &batches[0]);

    let root = t.begin(name(format!("nn.{}", ts.model)));
    let t0 = std::time::Instant::now();
    let mut losses = Vec::new();
    let mut k = 0;
    while k < ts.min_steps || t0.elapsed().as_secs_f64() < ts.budget_s {
        losses.push(st.step(t, ts.images, ts.labels, &batches[k % batches.len()]));
        k += 1;
    }
    t.end(root);

    // Step spans of this table are the `step` children of `root`; layer,
    // loss and optimizer spans are the steps' children.
    let spans = t.spans();
    let all = crate::spans::all_self_times(spans);
    let is_step = |i: usize| spans[i].name == "step" && spans[i].parent == Some(root);
    let steps: Vec<usize> = (root..spans.len()).filter(|&i| is_step(i)).collect();
    let child_times = |label: &str| -> Vec<f64> {
        (root..spans.len())
            .filter(|&i| spans[i].name == label && spans[i].parent.is_some_and(is_step))
            .map(|i| spans[i].duration())
            .collect()
    };
    let p = ts.model;
    let mut out = Vec::new();
    for i in 0..st.model.layers.len() {
        let kind = st.model.layers[i].name();
        if kind == "flatten" {
            continue;
        }
        let (f, b) = st.model.span_names(i);
        out.push(secs(format!("nn.{p}.{f}_s"), median(&child_times(f))));
        out.push(secs(format!("nn.{p}.{b}_s"), median(&child_times(b))));
    }
    out.push(secs(format!("nn.{p}.loss_s"), median(&child_times("loss"))));
    out.push(secs(
        format!("optim.{p}.step_s"),
        median(&child_times("optim")),
    ));
    let step_s: Vec<f64> = steps.iter().map(|&s| spans[s].duration()).collect();
    let remainder: Vec<f64> = steps.iter().map(|&s| all[s]).collect();
    // The per-layer medians (all layers, flatten included), loss,
    // optimizer and remainder must account for the median step.
    let parts: f64 = (0..st.model.layers.len())
        .flat_map(|i| {
            let (f, b) = st.model.span_names(i);
            [median(&child_times(f)), median(&child_times(b))]
        })
        .chain(["loss", "optim"].map(|l| median(&child_times(l))))
        .sum::<f64>()
        + median(&remainder);
    let whole = median(&step_s);
    if ts.paper_family {
        checks.check(
            &format!("nn.{p}.layers_account_for_step"),
            (parts - whole).abs() <= 0.1 * whole,
            format!("layers + loss + optimizer + remainder = {parts} s, step {whole} s"),
        );
    }
    out.push(secs(format!("nn.{p}.step_s"), whole));
    out.push(secs(format!("nn.{p}.step_remainder_s"), median(&remainder)));

    let finite = losses.iter().all(|l| l.is_finite());
    checks.check(
        &format!("nn.{p}.loss_finite"),
        finite,
        format!("losses {losses:?}"),
    );
    if ts.paper_family {
        // The paper's model family must also learn on the replayed path:
        // the mean loss over the last pass through the batches is below
        // the first pass's.
        let nb = batches.len();
        let falling = losses.len() >= 2 * nb
            && crate::stats::mean(&to_f64(&losses[losses.len() - nb..]))
                < crate::stats::mean(&to_f64(&losses[..nb]));
        checks.check(
            &format!("nn.{p}.loss_falling"),
            falling,
            format!("losses {losses:?}"),
        );
        out.extend(residual_bodies(ts, &mut st, &first, t));
    }
    out
}

fn to_f64(xs: &[f32]) -> Vec<f64> {
    xs.iter().map(|&x| f64::from(x)).collect()
}

fn secs(name: String, value: f64) -> Metric {
    Metric {
        name,
        value,
        unit: "s",
    }
}

/// Copies the samples `idx` of `images` into one batch tensor.
pub fn gather(images: &Tensor, idx: &[usize]) -> Tensor {
    let dims = images.dims();
    let sample_len: usize = dims[1..].iter().product();
    let mut data = Vec::with_capacity(idx.len() * sample_len);
    for &i in idx {
        data.extend_from_slice(&images.data()[i * sample_len..(i + 1) * sample_len]);
    }
    let mut d = dims.to_vec();
    d[0] = idx.len();
    Tensor::from_vec(data, &d)
}

/// Times the body layers of the first `Residual` of each channel width
/// standalone, at the shapes the block sees in the model, on the path the
/// block itself takes (`Residual` runs its body through `Layer::forward` /
/// `Layer::backward`).
fn residual_bodies(
    ts: &TableSpec<'_>,
    st: &mut Stepper,
    batch: &Tensor,
    t: &mut Tracer,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut seen_widths = Vec::new();
    // Activations entering each top-level layer, in inference mode so the
    // model's batch-norm statistics are untouched.
    let mut x = batch.clone();
    for i in 0..ts.spec.layers.len() {
        if let LayerSpec::Residual { body } = &ts.spec.layers[i] {
            let width = x.dims()[1];
            if !seen_widths.contains(&width) {
                seen_widths.push(width);
                let mut params = Vec::new();
                st.model.layers[i].collect_params(&mut params);
                out.extend(time_body(
                    ts.model,
                    i,
                    body,
                    &params,
                    &x,
                    ts.budget_s / 4.0,
                    t,
                ));
            }
        }
        x = st.model.layers[i].forward(&x, false);
    }
    out
}

fn time_body(
    model: &str,
    at: usize,
    body: &[LayerSpec],
    params: &[f32],
    x: &Tensor,
    budget_s: f64,
    t: &mut Tracer,
) -> Vec<Metric> {
    let mut sampler = NormalSampler::seed_from(0);
    let mut layers: Vec<Box<dyn Layer>> =
        body.iter().map(|l| build_layer(l, &mut sampler)).collect();
    let mut off = 0;
    for l in &mut layers {
        off += l.load_params(&params[off..]);
    }
    let names: Vec<(&'static str, &'static str)> = layers
        .iter()
        .enumerate()
        .map(|(j, l)| {
            (
                name(format!("L{at}.body.{j}.{}.fwd", l.name())),
                name(format!("L{at}.body.{j}.{}.bwd", l.name())),
            )
        })
        .collect();
    let root = t.begin(name(format!("nn.{model}.L{at}.body")));
    let t0 = std::time::Instant::now();
    let mut reps = 0;
    while reps < 3 || t0.elapsed().as_secs_f64() < budget_s {
        let mut cur = x.clone();
        for (l, n) in layers.iter_mut().zip(&names) {
            cur = t.span(n.0, |_| l.forward(&cur, true));
        }
        let mut dy = Tensor::ones(cur.dims());
        for l in &mut layers {
            l.zero_grads();
        }
        for (l, n) in layers.iter_mut().zip(&names).rev() {
            dy = t.span(n.1, |_| l.backward(&dy));
        }
        reps += 1;
    }
    t.end(root);
    let spans = &t.spans()[root..];
    let med = |n: &str| {
        median(
            &spans
                .iter()
                .filter(|s| s.name == n)
                .map(|s| s.duration())
                .collect::<Vec<_>>(),
        )
    };
    names
        .iter()
        .flat_map(|(f, b)| {
            [
                secs(format!("nn.{model}.{f}_s"), med(f)),
                secs(format!("nn.{model}.{b}_s"), med(b)),
            ]
        })
        .collect()
}
