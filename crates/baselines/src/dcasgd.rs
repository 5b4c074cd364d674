//! Delay-Compensated ASGD (Zheng et al., ICML 2017).

use crate::harness::{AsyncCurve, AsyncEnvConfig, AsyncPoint};
use serde::{Deserialize, Serialize};
use vc_nn::{Layer, SoftmaxCrossEntropy};
use vc_tensor::{Tensor, Workspace};

/// DC-ASGD parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DcAsgdConfig {
    /// Shared environment.
    pub env: AsyncEnvConfig,
    /// Server learning rate applied to (compensated) gradients.
    pub lr: f32,
    /// Delay-compensation strength λ; 0 reduces to plain ASGD.
    pub lambda: f32,
    /// Total server updates.
    pub updates: usize,
    /// Mini-batch size for the client gradient.
    pub batch_size: usize,
}

impl DcAsgdConfig {
    /// A small configuration for tests.
    pub fn small(seed: u64) -> Self {
        DcAsgdConfig {
            env: AsyncEnvConfig::small(seed),
            lr: 0.05,
            lambda: 0.04,
            updates: 96,
            batch_size: 32,
        }
    }
}

/// Runs DC-ASGD. When sampled, a client computes one mini-batch gradient
/// `g` at the stale parameters `W_bak` it fetched on its previous turn; the
/// server applies the delay-compensated update
///
/// ```text
/// W ← W − lr·(g + λ · g ⊙ g ⊙ (W − W_bak))
/// ```
///
/// where `g ⊙ g` is the diagonal (outer-product) approximation of the
/// Hessian. The client then fetches the fresh `W` as its next `W_bak`.
/// Like Downpour, the scheme needs every client's gradient — §II-B notes it
/// is therefore not fault tolerant; the `drop_prob` fault injection shows
/// the effect.
pub fn run_dcasgd(cfg: &DcAsgdConfig) -> AsyncCurve {
    let mut env = cfg.env.build();
    let n = cfg.env.clients;
    let mut server = env.init_params.clone();
    // Each client's last-fetched parameter copy (the W_bak of the paper).
    let mut backup: Vec<Vec<f32>> = vec![server.clone(); n];
    let mut cursors = vec![0usize; n];
    let mut ws = Workspace::new();

    let mut points = Vec::new();
    let mut dropped = 0usize;
    for update in 1..=cfg.updates {
        let c = env.sample_client();
        // One mini-batch gradient at the stale copy.
        let data = &env.client_data[c];
        let bs = cfg.batch_size.min(data.len());
        let idx: Vec<usize> = (0..bs).map(|k| (cursors[c] + k) % data.len()).collect();
        cursors[c] = (cursors[c] + bs) % data.len();
        let sub = data.select(&idx);
        let mut model = env.model_with(&backup[c]);
        let logits = model.forward_ws(sub.images, true, &mut ws);
        let (_, dlogits) = SoftmaxCrossEntropy::loss_and_grad_ws(logits, &sub.labels);
        model.zero_grads_all();
        model.backward_params_ws(dlogits, &mut ws);
        let g = model.grads_flat();

        if env.drops(cfg.env.drop_prob) {
            dropped += 1;
        } else {
            for i in 0..server.len() {
                let gi = g[i];
                let comp = cfg.lambda * gi * gi * (server[i] - backup[c][i]);
                server[i] -= cfg.lr * (gi + comp);
            }
        }
        // Fetch: the fresh server copy becomes the next backup.
        backup[c].copy_from_slice(&server);

        if update % cfg.env.eval_every == 0 || update == cfg.updates {
            let acc = env.score(&server);
            points.push(AsyncPoint {
                updates: update,
                val_acc: acc,
            });
        }
    }
    let final_val_acc = points.last().map(|p| p.val_acc).unwrap_or(0.0);
    AsyncCurve {
        label: format!("dc-asgd(lambda={})", cfg.lambda),
        points,
        final_val_acc,
        dropped_updates: dropped,
    }
}

/// A `Tensor`-level reference of the compensated update, used by tests.
pub fn dc_update_reference(w: &Tensor, w_bak: &Tensor, g: &Tensor, lr: f32, lambda: f32) -> Tensor {
    let drift = w.sub(w_bak);
    let comp = g.mul(g).mul(&drift).scale(lambda);
    w.sub(&g.add(&comp).scale(lr))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dcasgd_learns() {
        let curve = run_dcasgd(&DcAsgdConfig::small(1));
        assert!(
            curve.final_val_acc > 0.3,
            "final accuracy {}",
            curve.final_val_acc
        );
    }

    #[test]
    fn lambda_zero_is_plain_asgd_update() {
        let w = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let bak = Tensor::from_vec(vec![0.5, 2.5], &[2]);
        let g = Tensor::from_vec(vec![0.2, -0.1], &[2]);
        let plain = dc_update_reference(&w, &bak, &g, 0.1, 0.0);
        assert!((plain.data()[0] - (1.0 - 0.1 * 0.2)).abs() < 1e-6);
        assert!((plain.data()[1] - (2.0 + 0.1 * 0.1)).abs() < 1e-6);
    }

    #[test]
    fn compensation_pushes_against_drift() {
        // With positive drift (W ahead of the stale copy) and any gradient,
        // the compensation term g²·drift adds a pull back proportional to
        // the drift — shrinking the effective step when the update is very
        // stale.
        let w = Tensor::from_vec(vec![2.0], &[1]);
        let bak = Tensor::from_vec(vec![0.0], &[1]); // large staleness
        let g = Tensor::from_vec(vec![1.0], &[1]);
        let no_comp = dc_update_reference(&w, &bak, &g, 0.1, 0.0);
        let comp = dc_update_reference(&w, &bak, &g, 0.1, 0.5);
        assert!(comp.data()[0] < no_comp.data()[0]);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_dcasgd(&DcAsgdConfig::small(2));
        let b = run_dcasgd(&DcAsgdConfig::small(2));
        assert_eq!(a, b);
    }
}
