//! The assimilator: the `Pn` parameter-server pool that applies Eq. (1).
//!
//! On threads, accepted results are handed to `Pn` assimilator threads
//! that contend on the shared [`vc_kvstore::VersionedStore`] for real — in
//! eventual mode, overlapping read-blend-write cycles genuinely lose
//! updates, not by simulation but by racing. The simulator runs the same
//! [`ShardedAssimilator`] calls from its event loop; under Table I timing
//! each assimilation is a CPU phase (`table1_cpu_s`) followed by the
//! store update ([`store_update_s`]), which is the eventual-mode race
//! window.

use crate::config::RuntimeConfig;
use crate::protocol::{AssimTask, ToServer};
use crossbeam::channel::{Receiver, Sender};
use rand::Rng;
use std::sync::Arc;
use vc_asgd::JobConfig;
use vc_data::Dataset;
use vc_kvstore::{Consistency, LatencyModel};
use vc_nn::metrics::evaluate;
use vc_ps::ShardedAssimilator;
use vc_simnet::table1;
use vc_tensor::codec::encoded_len;

/// Everything one assimilator (parameter-server) thread needs.
pub struct AssimCtx {
    /// Shared per-shard Eq. (1) applier over the shared store.
    pub assim: Arc<ShardedAssimilator>,
    /// Consistency mode (decides the store access pattern).
    pub mode: Consistency,
    /// Shared run configuration (model spec for the eval replica).
    pub cfg: Arc<RuntimeConfig>,
    /// The validation subset scored after every assimilation.
    pub val_eval: Arc<Dataset>,
    /// Task intake (MPMC: the pool shares one receiver).
    pub task_rx: Receiver<AssimTask>,
    /// Outcome uplink into the coordinator's inbox.
    pub out: Sender<ToServer>,
}

/// The assimilator thread body: blend, score, report, until the task
/// channel closes.
pub fn assimilator_main(ctx: AssimCtx) {
    let mut eval_model = ctx.cfg.job.model.build(ctx.cfg.job.seed);
    while let Ok(t) = ctx.task_rx.recv() {
        let updated = match ctx.mode {
            Consistency::Eventual => {
                // Read-blend-write with the read at cycle start: the window
                // between begin and commit is a real race against the other
                // assimilator threads. The yield widens it the same way a
                // network hop to Redis would.
                let snap = ctx.assim.begin_eventual();
                std::thread::yield_now();
                ctx.assim.commit_eventual(snap, &t.client, t.epoch).0
            }
            Consistency::Strong => ctx.assim.assimilate_strong(&t.client, t.epoch),
        };
        // Parameter-server validation scoring (§III-A).
        eval_model.set_params_flat(&updated);
        let (_, acc) = evaluate(
            &mut eval_model,
            &ctx.val_eval.images,
            &ctx.val_eval.labels,
            256,
        );
        if ctx
            .out
            .send(ToServer::Assimilated {
                wu: t.wu,
                host: t.host,
                epoch: t.epoch,
                shard_id: t.shard_id,
                acc,
                accepted_at: t.accepted_at,
            })
            .is_err()
        {
            return; // coordinator gone
        }
    }
}

/// Virtual seconds of one assimilation's CPU phase (deserialization,
/// validation prep) under Table I timing, with `inflight` results on the
/// parameter-server pool. It runs outside the race window. Its ±10 %
/// jitter, drawn from `rng`, desynchronizes parameter servers that picked
/// results up in the same burst; without it commits tie exactly and the
/// eventual loss rate is pathologically overstated.
pub(crate) fn table1_cpu_s<R: Rng>(job: &JobConfig, inflight: usize, rng: &mut R) -> f64 {
    let jitter = 0.9 + 0.2 * rng.gen::<f64>();
    job.compute.assim_s(&table1::server(), job.pn, inflight) * jitter
}

/// Seconds the store update of a `param_count`-parameter blob takes in
/// `mode` (§IV-D's measured latencies): the window between an
/// assimilation's read and its write-back.
pub fn store_update_s(mode: Consistency, param_count: usize) -> f64 {
    LatencyModel::for_mode(mode).update_s(encoded_len(param_count))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_asgd::alpha::eq2_closed_form;
    use vc_asgd::AlphaSchedule;
    use vc_kvstore::VersionedStore;

    /// The pool's merge over `n` parameters in one shard — the runtime's
    /// default layout.
    fn assim(mode: Consistency, alpha: AlphaSchedule, n: usize) -> ShardedAssimilator {
        ShardedAssimilator::new(Arc::new(VersionedStore::new()), n, 1, mode, alpha)
    }

    #[test]
    fn seed_and_read_roundtrip() {
        let a = assim(Consistency::Strong, AlphaSchedule::Const(0.9), 3);
        a.seed_params(&[1.0, 2.0, 3.0]);
        let (p, v) = a.read_params();
        assert_eq!(p, vec![1.0, 2.0, 3.0]);
        assert_eq!(v, vec![1]);
    }

    #[test]
    fn strong_sequence_matches_eq2() {
        let a = assim(Consistency::Strong, AlphaSchedule::Const(0.8), 2);
        let w0 = vec![0.0f32, 1.0];
        a.seed_params(&w0);
        let clients: Vec<Vec<f32>> = (0..5).map(|i| vec![i as f32, -(i as f32)]).collect();
        let mut last = Vec::new();
        for wc in &clients {
            last = a.assimilate_strong(wc, 1);
        }
        let expect = eq2_closed_form(&w0, &clients, 0.8);
        for (l, e) in last.iter().zip(&expect) {
            assert!((l - e).abs() < 1e-5);
        }
        assert_eq!(a.lost_updates(), 0);
    }

    #[test]
    fn eventual_overlap_loses_the_first_update() {
        let a = assim(Consistency::Eventual, AlphaSchedule::Const(0.5), 1);
        a.seed_params(&[0.0]);
        // Two parameter servers start assimilating concurrently: both read
        // the seed snapshot.
        let s1 = a.begin_eventual();
        let s2 = a.begin_eventual();
        assert_eq!(s1.versions(), s2.versions());
        // PS1 commits client value 2.0: server becomes 1.0.
        let (_, c1) = a.commit_eventual(s1, &[2.0], 1);
        assert_eq!(c1, 0);
        // PS2 commits client value 4.0 against the stale snapshot: PS1's
        // contribution is overwritten.
        let (_, c2) = a.commit_eventual(s2, &[4.0], 1);
        assert_eq!(c2, 1);
        let (p, _) = a.read_params();
        assert_eq!(p, vec![2.0], "0.5*0 + 0.5*4, PS1's update lost");
        assert_eq!(a.lost_updates(), 1);
    }

    #[test]
    fn eventual_sequential_is_lossless() {
        let a = assim(Consistency::Eventual, AlphaSchedule::Const(0.9), 1);
        a.seed_params(&[1.0]);
        for i in 0..10 {
            let s = a.begin_eventual();
            let (_, clobbered) = a.commit_eventual(s, &[i as f32], 1);
            assert_eq!(clobbered, 0);
        }
        assert_eq!(a.lost_updates(), 0);
    }

    #[test]
    fn epoch_drives_alpha_schedule() {
        let a = assim(Consistency::Strong, AlphaSchedule::VarEOverE1, 1);
        a.seed_params(&[0.0]);
        // Epoch 1: alpha 0.5 — server moves halfway to the client.
        let p = a.assimilate_strong(&[1.0], 1);
        assert!((p[0] - 0.5).abs() < 1e-6);
        // Epoch 99: alpha 0.99 — tiny step.
        let a2 = assim(Consistency::Strong, AlphaSchedule::VarEOverE1, 1);
        a2.seed_params(&[0.0]);
        let p2 = a2.assimilate_strong(&[1.0], 99);
        assert!(p2[0] < 0.02);
    }

    #[test]
    fn latency_tracks_mode() {
        let n = 4_972_746; // the paper's parameter count
        let ratio =
            store_update_s(Consistency::Strong, n) / store_update_s(Consistency::Eventual, n);
        assert!(
            (ratio - 1.29 / 0.87).abs() < 0.02,
            "strong/eventual ratio {ratio}"
        );
    }
}
