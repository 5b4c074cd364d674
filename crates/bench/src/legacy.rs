//! Frozen copy of the pre-optimization compute path, kept for honest
//! before/after numbers in `bench_train`.
//!
//! The current `vc_tensor::ops` kernels are cache-blocked micro-kernels
//! running on the persistent worker pool; the originals were branchy
//! row-parallel loops fanned out over **freshly spawned scoped threads on
//! every call**, and the layers cloned tensors at every stage boundary.
//! This module preserves that old behaviour verbatim (kernels, per-call
//! thread spawning, per-step allocation churn) so the benchmark's "before"
//! column measures the real seed implementation rather than a strawman.

use vc_tensor::ops::{col2im, im2col, ConvGeom};
use vc_tensor::{NormalSampler, Tensor};

/// Threshold (in output elements) below which the legacy matmuls ran
/// serially, copied from the seed kernels.
const PAR_THRESHOLD: usize = 64 * 64;

/// The seed shim's thread count: `available_parallelism` capped at 8.
pub fn legacy_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// The seed `rayon` shim's fan-out: split the chunk list evenly and spawn
/// one scoped OS thread per portion — per call, no pool.
fn spawn_per_call_chunks<F>(out: &mut [f32], chunk_size: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let mut chunks: Vec<(usize, &mut [f32])> = out.chunks_mut(chunk_size).enumerate().collect();
    let threads = legacy_threads().min(chunks.len());
    if threads <= 1 {
        for (i, chunk) in chunks {
            f(i, chunk);
        }
        return;
    }
    let per = chunks.len().div_ceil(threads);
    std::thread::scope(|s| {
        while !chunks.is_empty() {
            let take = per.min(chunks.len());
            let portion: Vec<(usize, &mut [f32])> = chunks.drain(..take).collect();
            let f = &f;
            s.spawn(move || {
                for (i, chunk) in portion {
                    f(i, chunk);
                }
            });
        }
    });
}

/// The seed `matmul`: `i-k-j` loops with an `aik == 0.0` skip, rows fanned
/// out over spawn-per-call threads.
pub fn legacy_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    assert_eq!(k, b.dims()[0], "legacy_matmul shape mismatch");
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    let row_kernel = |i: usize, out_row: &mut [f32]| {
        for p in 0..k {
            let aik = ad[i * k + p];
            if aik == 0.0 {
                continue;
            }
            let brow = &bd[p * n..(p + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(brow) {
                *o += aik * bv;
            }
        }
    };
    if m * n >= PAR_THRESHOLD && m > 1 {
        spawn_per_call_chunks(&mut out, n, row_kernel);
    } else {
        for (i, row) in out.chunks_mut(n).enumerate() {
            row_kernel(i, row);
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// The seed `matmul_at_b`: serial `p-i-j` accumulation with a zero skip.
pub fn legacy_matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "legacy_matmul_at_b inner dims");
    let ad = a.data();
    let bd = b.data();
    let mut out = vec![0.0f32; m * n];
    for p in 0..k {
        let arow = &ad[p * m..(p + 1) * m];
        let brow = &bd[p * n..(p + 1) * n];
        for (i, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// The seed `matmul_a_bt`: per-output-element dot products, rows fanned out
/// over spawn-per-call threads.
pub fn legacy_matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (n, k2) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "legacy_matmul_a_bt inner dims");
    let ad = a.data();
    let bd = b.data();
    let mut out = vec![0.0f32; m * n];
    let kernel = |i: usize, orow: &mut [f32]| {
        let arow = &ad[i * k..(i + 1) * k];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = &bd[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in arow.iter().zip(brow) {
                acc += av * bv;
            }
            *o = acc;
        }
    };
    if m * n >= PAR_THRESHOLD && m > 1 {
        spawn_per_call_chunks(&mut out, n, kernel);
    } else {
        for (i, row) in out.chunks_mut(n).enumerate() {
            kernel(i, row);
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// `[batch*oh*ow, out_ch]` rows into `[batch, out_ch, oh, ow]` images, as
/// the seed `Conv2d` did (fresh output vector per call).
fn rows_to_images(flat: &Tensor, batch: usize, out_ch: usize, oh: usize, ow: usize) -> Tensor {
    let src = flat.data();
    let mut out = vec![0.0f32; batch * out_ch * oh * ow];
    for b in 0..batch {
        for p in 0..oh * ow {
            let row = (b * oh * ow + p) * out_ch;
            for c in 0..out_ch {
                out[((b * out_ch + c) * oh * ow) + p] = src[row + c];
            }
        }
    }
    Tensor::from_vec(out, &[batch, out_ch, oh, ow])
}

/// Inverse of [`rows_to_images`].
fn images_to_rows(img: &Tensor) -> Tensor {
    let dims = img.dims();
    let (batch, ch, oh, ow) = (dims[0], dims[1], dims[2], dims[3]);
    let src = img.data();
    let mut out = vec![0.0f32; batch * oh * ow * ch];
    for b in 0..batch {
        for c in 0..ch {
            for p in 0..oh * ow {
                out[(b * oh * ow + p) * ch + c] = src[(b * ch + c) * oh * ow + p];
            }
        }
    }
    Tensor::from_vec(out, &[batch * oh * ow, ch])
}

struct LegacyConv {
    kernel: Tensor,
    bias: Tensor,
    dkernel: Tensor,
    dbias: Tensor,
    in_ch: usize,
    out_ch: usize,
    geom0: ConvGeom,
    cols: Option<Tensor>,
    batch: usize,
}

impl LegacyConv {
    fn new(in_ch: usize, out_ch: usize, h: usize, w: usize, s: &mut NormalSampler) -> Self {
        let fan_in = in_ch * 9;
        LegacyConv {
            kernel: Tensor::he_normal(&[out_ch, fan_in], fan_in, s),
            bias: Tensor::zeros(&[out_ch]),
            dkernel: Tensor::zeros(&[out_ch, fan_in]),
            dbias: Tensor::zeros(&[out_ch]),
            in_ch,
            out_ch,
            geom0: ConvGeom {
                h,
                w,
                kh: 3,
                kw: 3,
                stride: 1,
                pad: 1,
            },
            cols: None,
            batch: 0,
        }
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let batch = x.dims()[0];
        let cols = im2col(x, self.in_ch, self.geom0);
        let flat = legacy_matmul_a_bt(&cols, &self.kernel).add_row_broadcast(&self.bias);
        let y = rows_to_images(
            &flat,
            batch,
            self.out_ch,
            self.geom0.out_h(),
            self.geom0.out_w(),
        );
        self.cols = Some(cols);
        self.batch = batch;
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let cols = self.cols.as_ref().expect("legacy conv backward");
        let dy_rows = images_to_rows(dy);
        self.dkernel.add_assign(&legacy_matmul_at_b(&dy_rows, cols));
        self.dbias.add_assign(&dy_rows.sum_axis0());
        let dcols = legacy_matmul(&dy_rows, &self.kernel);
        col2im(&dcols, self.batch, self.in_ch, self.geom0)
    }
}

struct LegacyDense {
    w: Tensor,
    b: Tensor,
    dw: Tensor,
    db: Tensor,
    x: Option<Tensor>,
}

impl LegacyDense {
    fn new(input: usize, output: usize, s: &mut NormalSampler) -> Self {
        LegacyDense {
            w: Tensor::he_normal(&[input, output], input, s),
            b: Tensor::zeros(&[output]),
            dw: Tensor::zeros(&[input, output]),
            db: Tensor::zeros(&[output]),
            x: None,
        }
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.x = Some(x.clone());
        legacy_matmul(x, &self.w).add_row_broadcast(&self.b)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self.x.as_ref().expect("legacy dense backward");
        self.dw.add_assign(&legacy_matmul_at_b(x, dy));
        self.db.add_assign(&dy.sum_axis0());
        legacy_matmul_a_bt(dy, &self.w)
    }
}

fn relu_forward(x: &Tensor) -> (Tensor, Vec<bool>) {
    let mask = x.data().iter().map(|&v| v > 0.0).collect();
    (x.map(|v| v.max(0.0)), mask)
}

fn relu_backward(dy: &Tensor, mask: &[bool]) -> Tensor {
    let data = dy
        .data()
        .iter()
        .zip(mask)
        .map(|(&g, &m)| if m { g } else { 0.0 })
        .collect();
    Tensor::from_vec(data, dy.dims())
}

fn maxpool_forward(x: &Tensor) -> (Tensor, Vec<usize>) {
    let d = x.dims();
    let (b, c, h, w) = (d[0], d[1], d[2], d[3]);
    let (oh, ow) = (h / 2, w / 2);
    let src = x.data();
    let mut out = vec![0.0f32; b * c * oh * ow];
    let mut arg = vec![0usize; out.len()];
    for bc in 0..b * c {
        let plane = &src[bc * h * w..(bc + 1) * h * w];
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best_idx = (2 * oy) * w + 2 * ox;
                let mut best = plane[best_idx];
                for (dy, dx) in [(0, 1), (1, 0), (1, 1)] {
                    let idx = (2 * oy + dy) * w + 2 * ox + dx;
                    if plane[idx] > best {
                        best = plane[idx];
                        best_idx = idx;
                    }
                }
                let o = bc * oh * ow + oy * ow + ox;
                out[o] = best;
                arg[o] = bc * h * w + best_idx;
            }
        }
    }
    (Tensor::from_vec(out, &[b, c, oh, ow]), arg)
}

fn maxpool_backward(dy: &Tensor, arg: &[usize], in_dims: &[usize]) -> Tensor {
    let mut dx = vec![0.0f32; in_dims.iter().product()];
    for (g, &i) in dy.data().iter().zip(arg) {
        dx[i] += g;
    }
    Tensor::from_vec(dx, in_dims)
}

/// The seed-era `small_cnn` training path, hard-wired: conv(→16)–relu–pool,
/// conv(→32)–relu–pool, flatten, dense(→64)–relu, dense(→classes), trained
/// with flat-vector SGD exactly as the old trainer did (fresh parameter and
/// gradient vectors gathered every step).
pub struct LegacySmallCnn {
    conv1: LegacyConv,
    conv2: LegacyConv,
    fc1: LegacyDense,
    fc2: LegacyDense,
    input: [usize; 3],
    classes: usize,
}

impl LegacySmallCnn {
    /// Builds the network for `[ch, h, w]` inputs (h, w divisible by 4).
    pub fn new(input: [usize; 3], classes: usize, seed: u64) -> Self {
        let (ch, h, w) = (input[0], input[1], input[2]);
        assert!(h % 4 == 0 && w % 4 == 0);
        let mut s = NormalSampler::seed_from(seed);
        LegacySmallCnn {
            conv1: LegacyConv::new(ch, 16, h, w, &mut s),
            conv2: LegacyConv::new(16, 32, h / 2, w / 2, &mut s),
            fc1: LegacyDense::new(32 * (h / 4) * (w / 4), 64, &mut s),
            fc2: LegacyDense::new(64, classes, &mut s),
            input,
            classes,
        }
    }

    /// One full forward+backward+SGD step on `(x, labels)`, allocating as
    /// the seed implementation did. Returns the batch loss.
    pub fn train_step(&mut self, x: &Tensor, labels: &[usize], lr: f32) -> f32 {
        // Forward, cloning at each stage boundary like the old Sequential.
        let c1 = self.conv1.forward(x);
        let (r1, m1) = relu_forward(&c1);
        let (p1, a1) = maxpool_forward(&r1);
        let c2 = self.conv2.forward(&p1);
        let (r2, m2) = relu_forward(&c2);
        let (p2, a2) = maxpool_forward(&r2);
        let batch = x.dims()[0];
        let flat_len = p2.numel() / batch;
        let f = p2.clone().reshape(&[batch, flat_len]);
        let d1 = self.fc1.forward(&f);
        let (r3, m3) = relu_forward(&d1);
        let logits = self.fc2.forward(&r3);

        // Softmax cross-entropy, as the shared loss does; the clone keeps
        // the seed loop's per-step gradient allocation.
        let (loss, dlogits) = vc_nn::SoftmaxCrossEntropy::loss_and_grad_ws(logits.clone(), labels);

        // Backward.
        self.zero_grads();
        let dr3 = self.fc2.backward(&dlogits);
        let dd1 = relu_backward(&dr3, &m3);
        let df = self.fc1.backward(&dd1);
        let dp2 = df.clone().reshape(p2.dims());
        let dr2 = maxpool_backward(&dp2, &a2, r2.dims());
        let dc2 = relu_backward(&dr2, &m2);
        let dp1 = self.conv2.backward(&dc2);
        let dr1 = maxpool_backward(&dp1, &a1, r1.dims());
        let dc1 = relu_backward(&dr1, &m1);
        let _ = self.conv1.backward(&dc1);

        // Flat-vector SGD with per-step gather/scatter, like the old loop.
        let mut params = self.params_flat();
        let grads = self.grads_flat();
        for (p, g) in params.iter_mut().zip(&grads) {
            *p -= lr * g;
        }
        self.load_params(&params);
        loss
    }

    fn tensors(&self) -> [&Tensor; 8] {
        [
            &self.conv1.kernel,
            &self.conv1.bias,
            &self.conv2.kernel,
            &self.conv2.bias,
            &self.fc1.w,
            &self.fc1.b,
            &self.fc2.w,
            &self.fc2.b,
        ]
    }

    fn grad_tensors(&self) -> [&Tensor; 8] {
        [
            &self.conv1.dkernel,
            &self.conv1.dbias,
            &self.conv2.dkernel,
            &self.conv2.dbias,
            &self.fc1.dw,
            &self.fc1.db,
            &self.fc2.dw,
            &self.fc2.db,
        ]
    }

    fn params_flat(&self) -> Vec<f32> {
        let mut out = Vec::new();
        for t in self.tensors() {
            out.extend_from_slice(t.data());
        }
        out
    }

    fn grads_flat(&self) -> Vec<f32> {
        let mut out = Vec::new();
        for t in self.grad_tensors() {
            out.extend_from_slice(t.data());
        }
        out
    }

    fn load_params(&mut self, src: &[f32]) {
        let mut off = 0;
        for t in [
            &mut self.conv1.kernel,
            &mut self.conv1.bias,
            &mut self.conv2.kernel,
            &mut self.conv2.bias,
            &mut self.fc1.w,
            &mut self.fc1.b,
            &mut self.fc2.w,
            &mut self.fc2.b,
        ] {
            let n = t.numel();
            t.data_mut().copy_from_slice(&src[off..off + n]);
            off += n;
        }
    }

    fn zero_grads(&mut self) {
        for t in [
            &mut self.conv1.dkernel,
            &mut self.conv1.dbias,
            &mut self.conv2.dkernel,
            &mut self.conv2.dbias,
            &mut self.fc1.dw,
            &mut self.fc1.db,
            &mut self.fc2.dw,
            &mut self.fc2.db,
        ] {
            t.map_inplace(|_| 0.0);
        }
    }

    /// Input dims (for building matching batches).
    pub fn input_dims(&self) -> [usize; 3] {
        self.input
    }

    /// Class count.
    pub fn classes(&self) -> usize {
        self.classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_tensor::ops::matmul_naive;
    use vc_tensor::{approx_eq, TEST_EPS};

    #[test]
    fn legacy_kernels_agree_with_naive() {
        let mut s = NormalSampler::seed_from(1);
        let a = Tensor::randn(&[7, 5], 0.0, 1.0, &mut s);
        let b = Tensor::randn(&[5, 9], 0.0, 1.0, &mut s);
        assert!(approx_eq(
            &legacy_matmul(&a, &b),
            &matmul_naive(&a, &b),
            TEST_EPS
        ));
        let at = a.transpose();
        assert!(approx_eq(
            &legacy_matmul_at_b(&at, &b),
            &matmul_naive(&a, &b),
            TEST_EPS
        ));
        let bt = b.transpose();
        assert!(approx_eq(
            &legacy_matmul_a_bt(&a, &bt),
            &matmul_naive(&a, &b),
            TEST_EPS
        ));
    }

    #[test]
    fn legacy_cnn_trains_without_nans() {
        let mut net = LegacySmallCnn::new([1, 8, 8], 3, 2);
        let mut s = NormalSampler::seed_from(3);
        let x = Tensor::randn(&[4, 1, 8, 8], 0.0, 1.0, &mut s);
        let labels = [0usize, 1, 2, 0];
        let first = net.train_step(&x, &labels, 0.05);
        let mut last = first;
        for _ in 0..5 {
            last = net.train_step(&x, &labels, 0.05);
        }
        assert!(first.is_finite() && last.is_finite());
        assert!(last < first, "loss {first} -> {last}");
    }
}
