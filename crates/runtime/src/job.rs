//! A paper training job on the simulator: the Table I testbed timing.
//!
//! [`Scenario::table1`] turns a [`JobConfig`] into a deterministic
//! scenario whose virtual clock follows the paper's testbed instead of the
//! flat test-scale costs: the job's `compute`, `network` and `preemption`
//! models price every subtask here, and its assimilations are priced by
//! [`crate::assimilator`]. The figure runners, examples and paper-claim
//! tests all run through this one path.

use crate::config::RuntimeConfig;
use crate::sim::{Scenario, Timing};
use rand::Rng;
use vc_asgd::JobConfig;
use vc_simnet::{table1, InstanceSpec};

/// Idle-poll and housekeeping cadence of [`Scenario::table1`], virtual
/// seconds.
pub const TABLE1_POLL_S: f64 = 0.5;

impl Scenario {
    /// The paper's evaluation: `job` on the Table I testbed timing
    /// ([`Timing::TableI`]), with the job's seed naming the schedule and
    /// every worker's RNG stream. Idle hosts re-poll and the coordinator
    /// ticks every [`TABLE1_POLL_S`] virtual seconds — minutes-long
    /// subtasks make a finer cadence pure event overhead.
    pub fn table1(job: JobConfig) -> Self {
        let seed = job.seed;
        let mut cfg = RuntimeConfig::new(job);
        cfg.poll_interval_s = TABLE1_POLL_S;
        cfg.faults.seed = seed;
        // The safety net bounds virtual seconds: a year of simulated
        // training is a livelock, not a slow run.
        cfg.max_wall_s = 365.0 * 86_400.0;
        Scenario {
            seed,
            cfg,
            timing: Timing::TableI,
            tick_s: TABLE1_POLL_S,
            sched_jitter_s: 0.002,
            ops: false,
        }
    }
}

/// Virtual durations of one subtask, drawn when it is assigned.
pub(crate) struct SubtaskTiming {
    pub download_s: f64,
    pub train_s: f64,
    pub upload_s: f64,
    /// Seconds into training at which the instance is reclaimed.
    pub preempt_after_s: Option<f64>,
}

impl SubtaskTiming {
    /// Table I timing of one subtask on `spec`, now running `resident`
    /// subtasks. The download is the `fetched` parameter bytes the worker's
    /// shard cache actually moved (nothing on a full hit) plus
    /// `shard_bytes` of training data on a sticky-cache miss; the upload is
    /// `upload_bytes`. Draws download, preemption and upload, in that
    /// order, from the worker's `rng`.
    pub(crate) fn table1<R: Rng>(
        job: &JobConfig,
        spec: &InstanceSpec,
        resident: u32,
        fetched: u64,
        shard_bytes: Option<usize>,
        upload_bytes: usize,
        rng: &mut R,
    ) -> Self {
        let mut download_s = 0.0;
        if fetched > 0 {
            download_s += job.network.transfer_s(spec, fetched as usize, rng);
        }
        if let Some(bytes) = shard_bytes {
            download_s += job.network.transfer_s(spec, bytes, rng);
        }
        let train_s = job.compute.subtask_s(spec, resident as usize);
        let preempt_after_s = job.preemption.draw_preemption(train_s, rng);
        let upload_s = job.network.transfer_s(spec, upload_bytes, rng);
        SubtaskTiming {
            download_s,
            train_s,
            upload_s,
            preempt_after_s,
        }
    }
}

/// Virtual seconds the warm-start epochs (§II-B) cost before the first
/// poll: one epoch covers every shard back-to-back at the serial rate,
/// with the intra-op parallelism a dedicated server instance sustains (see
/// vc-baselines).
pub(crate) fn warm_start_s(job: &JobConfig) -> f64 {
    let epoch_s =
        job.shards as f64 * job.compute.base_subtask_s / table1::server().core_speed() / 4.0;
    job.warm_start_epochs as f64 * epoch_s
}

#[cfg(test)]
mod tests {
    use crate::report::RuntimeReport;
    use crate::sim::{run_scenario, Scenario};
    use vc_asgd::JobConfig;
    use vc_kvstore::Consistency;
    use vc_simnet::PreemptionModel;
    use vc_tensor::codec::encoded_len;

    fn run(cfg: JobConfig) -> RuntimeReport {
        run_scenario(&Scenario::table1(cfg)).unwrap().report
    }

    #[test]
    fn small_job_completes_all_epochs() {
        let cfg = JobConfig::test_small(1);
        let report = run(cfg.clone());
        assert_eq!(report.epochs.len(), cfg.epochs);
        for (i, e) in report.epochs.iter().enumerate() {
            assert_eq!(e.epoch, i + 1);
            assert_eq!(e.assimilated, cfg.shards);
            assert!(e.mean_val_acc >= e.min_val_acc && e.mean_val_acc <= e.max_val_acc);
        }
        // Simulated time advances monotonically.
        for w in report.epochs.windows(2) {
            assert!(w[1].end_wall_s > w[0].end_wall_s);
        }
        assert!(report.wall_s > 0.0);
    }

    #[test]
    fn job_learns_above_chance() {
        let mut cfg = JobConfig::test_small(2);
        cfg.epochs = 5;
        let report = run(cfg);
        // 10 classes -> chance is 0.1; even 5 tiny epochs must beat it.
        assert!(
            report.final_mean_acc() > 0.2,
            "accuracy {}",
            report.final_mean_acc()
        );
        // Test and validation accuracy broadly agree (Fig. 6's premise).
        assert!((report.final_test_acc - report.final_val_acc).abs() < 0.2);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(JobConfig::test_small(7));
        let b = run(JobConfig::test_small(7));
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(a.final_test_acc, b.final_test_acc);
        assert_eq!(a.bytes_transferred, b.bytes_transferred);
    }

    #[test]
    fn target_accuracy_stops_early() {
        let mut cfg = JobConfig::test_small(3);
        cfg.epochs = 50;
        cfg.target_accuracy = Some(0.15); // trivially reachable
        let report = run(cfg);
        assert!(report.epochs.len() < 50);
        let last = report.epochs.last().unwrap();
        assert!(last.mean_val_acc >= 0.15);
    }

    #[test]
    fn preemption_inflates_time_but_job_finishes() {
        let mut base = JobConfig::test_small(4);
        base.epochs = 2;
        let clean = run(base.clone());

        let mut stormy = base;
        stormy.preemption = PreemptionModel::BernoulliPerSubtask { p: 0.3 };
        let hit = run(stormy);
        assert!(hit.kills > 0, "a 30% storm must hit at least once");
        assert!(hit.server_metrics.timeouts > 0);
        assert_eq!(hit.epochs.len(), 2, "fault tolerance: still completes");
        assert!(
            hit.wall_s > clean.wall_s,
            "preemption must cost time: {} vs {}",
            hit.wall_s,
            clean.wall_s
        );
    }

    #[test]
    fn more_clients_train_faster() {
        let mut small = JobConfig::test_small(5);
        small.epochs = 2;
        small.cn = 1;
        small.tn = 2;
        let one = run(small.clone());
        let mut big = small;
        big.cn = 4;
        let four = run(big);
        assert!(
            four.wall_s < one.wall_s,
            "horizontal scaling: {} vs {}",
            four.wall_s,
            one.wall_s
        );
    }

    #[test]
    fn eventual_mode_with_many_ps_may_lose_updates() {
        // With pn > 1, assimilations overlap in simulated time; eventual
        // consistency then loses updates while strong never does.
        // Zeroing the CPU phase makes queued results reach the store phase
        // together, so the read-modify-write windows reliably collide.
        let mut cfg = JobConfig::test_small(6);
        cfg.pn = 4;
        cfg.epochs = 2;
        cfg.compute.assim_cpu_s = 0.0;
        cfg.consistency = Consistency::Eventual;
        let ev = run(cfg.clone());
        let mut cfg_s = cfg;
        cfg_s.consistency = Consistency::Strong;
        let st = run(cfg_s);
        assert_eq!(
            st.store_ops.lost_updates, 0,
            "strong mode never loses updates"
        );
        // Eventual mode *can* lose updates (it does whenever two
        // assimilations overlap, which pn=4 with 8 shards makes likely).
        assert!(
            ev.store_ops.lost_updates > 0,
            "expected overlapping assimilations to clobber"
        );
    }

    #[test]
    fn bytes_accounting_scales_with_work() {
        let cfg = JobConfig::test_small(8);
        let blob = encoded_len(cfg.model.build(1).param_count()) as u64;
        let r = run(cfg);
        // At minimum: every assignment downloads a parameter blob and every
        // completion uploads one.
        let min_bytes = r.server_metrics.completed * 2 * blob;
        assert!(
            r.bytes_transferred >= min_bytes / 2,
            "{}",
            r.bytes_transferred
        );
    }
}
