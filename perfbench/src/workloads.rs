//! The workloads: their configurations, the timed runs behind the
//! end-to-end metrics, and the traced runs behind the per-layer ones.

use crate::layers::{step_table, TableSpec};
use crate::record::{peak_rss_mb, Checks, Metric};
use crate::replay::{self, Replay};
use crate::spans::Tracer;
use crate::stats::{failed_share, interpolated_tta, mean, median};
use std::sync::Arc;
use std::time::Instant;
use vc_asgd::{AlphaSchedule, JobConfig};
use vc_data::{ShardSet, SyntheticSpec};
use vc_kvstore::{Consistency, VersionedStore};
use vc_middleware::{BoincServer, ShardManifest};
use vc_nn::spec::{resnet_lite, small_cnn};
use vc_ps::{MemClient, PsService, ShardCache, ShardedAssimilator, TcpClient, TcpPsServer};
use vc_runtime::{
    run_runtime, run_scenario, ByzantineMode, Runtime, RuntimeConfig, RuntimeReport, Scenario,
};
use vc_simnet::SimTime;
use vc_telemetry::{Histogram, HistogramSnapshot, Telemetry, TraceStage};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's job at reproduction scale over the threaded runtime.
    CnnTcp,
    /// The 10k-host chaos fleet on the deterministic simulator.
    FleetDst,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::CnnTcp, Workload::FleetDst];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CnnTcp => "cnn_tcp",
            Workload::FleetDst => "fleet_dst",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Epoch-mean validation accuracy `tta_s` measures the time to. Every
    /// job must reach it. `cnn_tcp` jobs train until they do (a seed can
    /// stall for several epochs before accuracy climbs); `fleet_dst` runs
    /// a fixed four epochs, and its target sits four seed-to-seed standard
    /// deviations below their mean final accuracy (190 seeds).
    pub fn target(self) -> f64 {
        match self {
            Workload::CnnTcp => 0.40,
            Workload::FleetDst => 0.20,
        }
    }

    /// The runtime configuration of one job of the workload.
    pub fn config(self, seed: u64) -> RuntimeConfig {
        match self {
            Workload::CnnTcp => cnn_tcp(seed),
            Workload::FleetDst => fleet_dst(seed).cfg,
        }
    }

    pub fn codec_name(self) -> String {
        format!("{:?}", self.config(0).codec)
    }
}

/// `small_cnn` on the CIFAR-like data at 16×16×3, 5000 samples, 50
/// subtasks per epoch, P1C2T1, strong consistency, Raw codec over TCP.
///
/// A job trains until the epoch-mean accuracy reaches the target, for at
/// most [`CNN_MAX_EPOCHS`] epochs.
///
/// The pixel noise is 1.6 instead of `cifar_like`'s 2.6: at 2.6 most seeds
/// sit on a plateau for the first four epochs, so one job fills a whole run
/// and its time-to-accuracy swings with the seed. At 1.6 most seeds climb
/// from the first epoch and a job takes about four. The work per subtask
/// is the same either way.
pub fn cnn_tcp(seed: u64) -> RuntimeConfig {
    let mut job = JobConfig::paper_default(seed);
    job.data.noise = 1.6;
    job.pn = 1;
    job.cn = 2;
    job.tn = 1;
    job.consistency = Consistency::Strong;
    job.epochs = CNN_MAX_EPOCHS;
    job.target_accuracy = Some(Workload::CnnTcp.target() as f32);
    let mut cfg = RuntimeConfig::new(job);
    cfg.ps_tcp = true;
    cfg
}

/// The 10k-host generated fleet of the scheduler scale test: 30% of hosts
/// killed on their second assignment and respawned 5 virtual seconds
/// later, 10% byzantine, replication 2 with quorum 2, 2 s polls, eventual
/// consistency.
pub fn fleet_dst(seed: u64) -> Scenario {
    let cn = 10_000;
    let mut sc = Scenario::new(seed)
        .cn(cn)
        .tn(1)
        .epochs(4)
        .fleet_generated(seed ^ 0xf1ee7)
        .poll_interval(2.0)
        .replication(2)
        .quorum(2)
        .kill_fraction(0.3, 2)
        .respawn_after(5.0)
        .byzantine((0..(cn as u32 / 10)).collect(), ByzantineMode::Poison);
    sc.cfg.job.shards = 32;
    sc.cfg.job.data.train_n = 1280;
    sc.cfg.job.val_eval_n = 60;
    sc.cfg.job.alpha = AlphaSchedule::Const(0.3);
    sc.tick_s = 1.0;
    sc
}

/// Epoch cap of a `cnn_tcp` job: about four times what a typical job needs.
const CNN_MAX_EPOCHS: usize = 15;

/// The seed of job `j` within a run of `seed` (splitmix64).
pub fn sub_seed(seed: u64, j: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(j + 1))
        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 31)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 29)) % 1_000_000_007
}

/// Runs `f` with the data-parallel kernel pool capped so that the job's
/// `cn` worker threads and their pool helpers together use at most every
/// hardware thread once: with two workers on two hardware threads the
/// workers run their kernels inline, where pool helpers would only contend
/// for the same cores and make job times swing.
fn within_hardware_threads<T>(cn: usize, f: impl FnOnce() -> T) -> T {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let prev = rayon::set_thread_cap((hw / cn).max(1));
    let out = f();
    rayon::set_thread_cap(prev);
    out
}

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// What `run_runtime` does before its fleet trains, through the same
/// public calls: data generation and split, model build, parameter store,
/// sharded service and snapshot publish, fleet and middleware, PS sockets
/// with one client per worker, and the worker and assimilator threads with
/// the state each builds before its first message.
fn setup_threaded(cfg: &RuntimeConfig) -> Result<f64, String> {
    let t0 = Instant::now();
    let job = &cfg.job;
    let (train, val, _test) = job.data.generate();
    let _shards = ShardSet::split(&train, job.shards);
    let _val_eval = val.select(&(0..job.val_eval_n).collect::<Vec<_>>());
    let service = publish_initial(cfg);
    let _server = middleware(cfg, service.assimilator());
    let tcp =
        TcpPsServer::bind(service.clone(), job.ps_shards.min(4)).map_err(|e| e.to_string())?;
    let clients = (0..job.cn)
        .map(|_| TcpClient::connect(tcp.addrs(), tcp.groups()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let threads: Vec<_> = (0..job.cn + job.pn)
        .map(|i| {
            let spec = job.model.clone();
            let seed = job.seed;
            let worker = i < job.cn;
            std::thread::spawn(move || {
                if worker {
                    drop(vc_optim::TrainWorkspace::new());
                } else {
                    drop(spec.build(seed));
                }
            })
        })
        .collect();
    for th in threads {
        th.join().map_err(|_| "set-up thread panicked")?;
    }
    drop(clients);
    tcp.shutdown();
    Ok(t0.elapsed().as_secs_f64())
}

/// What `run_scenario` does before its first event: data, model, store,
/// service, the 10k-host generated fleet and its middleware, one shard
/// cache and in-memory PS client per simulated worker, and one evaluation
/// model per assimilator slot.
fn setup_fleet(sc: &Scenario) -> f64 {
    let t0 = Instant::now();
    let job = &sc.cfg.job;
    let (train, val, _test) = job.data.generate();
    let _shards = ShardSet::split(&train, job.shards);
    let _val_eval = val.select(&(0..job.val_eval_n).collect::<Vec<_>>());
    let service = publish_initial(&sc.cfg);
    let _server = middleware(&sc.cfg, service.assimilator());
    let layout = *service.assimilator().layout();
    let _workers: Vec<_> = (0..job.cn)
        .map(|_| {
            (
                ShardCache::new(layout).with_codec(sc.cfg.codec),
                MemClient::new(service.clone()),
            )
        })
        .collect();
    let _evals: Vec<_> = (0..job.pn).map(|_| job.model.build(job.seed)).collect();
    t0.elapsed().as_secs_f64()
}

fn publish_initial(cfg: &RuntimeConfig) -> Arc<PsService> {
    let job = &cfg.job;
    let tel = Telemetry::silent();
    let init = job.model.build(job.seed).params_flat();
    let store = Arc::new(VersionedStore::new().with_telemetry(&tel));
    let assim = Arc::new(
        ShardedAssimilator::new(store, init.len(), job.ps_shards, job.consistency, job.alpha)
            .with_telemetry(&tel),
    );
    assim.seed_params(&init);
    let service = Arc::new(
        PsService::new(assim.clone())
            .with_codec(cfg.codec)
            .with_telemetry(&tel),
    );
    service.publish_snapshot(1, &init, &assim.versions());
    service
}

fn middleware(cfg: &RuntimeConfig, assim: &ShardedAssimilator) -> BoincServer {
    let job = &cfg.job;
    let fleet = job.fleet.build(job.cn);
    let mut server = BoincServer::new(
        job.middleware.clone(),
        fleet.iter().map(|s| (s.clone(), job.tn)).collect(),
    );
    server.add_epoch_sharded(
        1,
        job.shards,
        &ShardManifest(assim.versions()),
        SimTime::ZERO,
    );
    server
}

/// Totals over the jobs of one timed run.
#[derive(Default)]
struct Tally {
    wus: u64,
    expected_wus: u64,
    wall_s: f64,
    bytes: u64,
    tta: Vec<f64>,
    final_acc: Vec<f64>,
    /// Resident-set high-water mark after set-up and the first job, so
    /// the figure does not depend on how many jobs fit in the run.
    peak_rss_mb: f64,
}

impl Tally {
    fn metrics(&self, setup: &[f64]) -> Vec<Metric> {
        let m = |name: &str, value: f64, unit: &'static str| Metric {
            name: name.into(),
            value,
            unit,
        };
        vec![
            m("wu_per_s", self.wus as f64 / self.wall_s, "1/s"),
            // Each job has its own seed; the mean over a run's jobs damps
            // the seed-to-seed spread of learning better than a median of
            // a handful.
            m("tta_s", mean(&self.tta), "s"),
            m("final_acc", mean(&self.final_acc), "ratio"),
            m(
                "bytes_per_wu",
                self.bytes as f64 / self.wus.max(1) as f64,
                "B",
            ),
            m("setup_s", median(setup), "s"),
            m("peak_rss_mb", self.peak_rss_mb, "MB"),
        ]
    }
}

/// The outcome of one run: metrics in order, plus the operation counts.
pub struct RunOutcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Extra record fields (per-job figures, replay spans).
    pub detail: Vec<(String, crate::record::Json)>,
}

fn epoch_points(r: &RuntimeReport) -> Vec<(f64, f64)> {
    r.epochs
        .iter()
        .map(|e| (e.end_wall_s, f64::from(e.mean_val_acc)))
        .collect()
}

/// Correctness of one threaded job, whatever its length.
fn check_job(cfg: &RuntimeConfig, r: &RuntimeReport, checks: &mut Checks) {
    let job = &cfg.job;
    checks.check(
        "job.not_halted_early",
        !r.halted_early,
        "the job halted early",
    );
    let reached = job.target_accuracy.is_some_and(|t| r.final_mean_acc() >= t);
    checks.check(
        "job.ran_to_completion",
        r.epochs.len() == job.epochs || reached,
        format!("{} of {} epochs", r.epochs.len(), job.epochs),
    );
    checks.check(
        "job.every_shard_assimilated",
        r.epochs.iter().all(|e| e.assimilated == job.shards),
        "an epoch assimilated fewer workunits than shards",
    );
    if job.consistency == Consistency::Strong {
        checks.check(
            "job.no_lost_updates",
            r.store_ops.lost_updates == 0,
            format!(
                "{} lost updates under strong consistency",
                r.store_ops.lost_updates
            ),
        );
    }
}

/// Correctness of one full threaded job, which must also reach the
/// workload's target; returns the interpolated time to it.
fn check_threaded(
    w: Workload,
    cfg: &RuntimeConfig,
    r: &RuntimeReport,
    checks: &mut Checks,
) -> Option<f64> {
    check_job(cfg, r, checks);
    let tta = interpolated_tta(&epoch_points(r), w.target());
    checks.check(
        "job.reaches_target",
        tta.is_some(),
        format!(
            "epoch means {:?} never reach {}",
            epoch_points(r),
            w.target()
        ),
    );
    tta
}

/// Timed run of a threaded workload: whole jobs through `run_runtime`,
/// back to back, while the next one (at the mean job length so far) still
/// fits in `seconds`; at least one.
pub fn timed_threaded(
    w: Workload,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
) -> Result<RunOutcome, String> {
    let cn = w.config(0).job.cn;
    within_hardware_threads(cn, || timed_jobs(w, seed, seconds, checks))
}

fn timed_jobs(
    w: Workload,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
) -> Result<RunOutcome, String> {
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        setup.push(setup_threaded(&w.config(sub_seed(seed, 0)))?);
    }
    let start = Instant::now();
    let mut tally = Tally::default();
    let mut j = 0;
    let mut per_job = Vec::new();
    loop {
        let cfg = w.config(sub_seed(seed, j));
        let t0 = Instant::now();
        let r = run_runtime(cfg.clone())?;
        let wall = t0.elapsed().as_secs_f64();
        let assimilated: u64 = r.epochs.iter().map(|e| e.assimilated as u64).sum();
        tally.wus += assimilated;
        // A job that trains to its target decides its own length: it owes
        // every shard of each epoch it ran.
        tally.expected_wus += (r.epochs.len().max(1) * cfg.job.shards) as u64;
        tally.wall_s += wall;
        tally.bytes += r.bytes_transferred;
        if let Some(t) = check_threaded(w, &cfg, &r, checks) {
            tally.tta.push(t);
        }
        tally.final_acc.push(f64::from(r.final_mean_acc()));
        if j == 0 {
            tally.peak_rss_mb = peak_rss_mb();
        }
        per_job.push(job_json(cfg.job.seed, wall, &r));
        j += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / j as f64 > seconds {
            break;
        }
    }
    let failed_wus = tally.expected_wus - tally.wus.min(tally.expected_wus);
    Ok(RunOutcome {
        metrics: tally.metrics(&setup),
        attempted: tally.expected_wus + checks.count(),
        failed: failed_wus + checks.failed(),
        detail: vec![("jobs".into(), crate::record::Json::Arr(per_job))],
    })
}

fn job_json(seed: u64, wall: f64, r: &RuntimeReport) -> crate::record::Json {
    use crate::record::Json;
    Json::Obj(vec![
        ("seed".into(), Json::Num(seed as f64)),
        ("wall_s".into(), Json::Num(wall)),
        (
            "epochs".into(),
            Json::Arr(
                r.epochs
                    .iter()
                    .map(|e| {
                        Json::Arr(vec![
                            Json::Num(e.end_wall_s),
                            Json::Num(f64::from(e.mean_val_acc)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("bytes".into(), Json::Num(r.bytes_transferred as f64)),
        (
            "final_val_acc".into(),
            Json::Num(f64::from(r.final_val_acc)),
        ),
    ])
}

/// One fleet scenario's wall time, run again with only its first `k`
/// epochs. The simulation is a pure function of the scenario, so the
/// shorter run must replay the longer one's first `k` epochs exactly; its
/// wall time is then the wall time at the end of epoch `k`.
fn prefix_wall(
    sc: &Scenario,
    k: usize,
    full: &RuntimeReport,
    checks: &mut Checks,
) -> Result<f64, String> {
    let short = sc.clone().epochs(k);
    let t0 = Instant::now();
    let out = run_scenario(&short)?;
    let wall = t0.elapsed().as_secs_f64();
    checks.check(
        "fleet.prefix_replays_exactly",
        out.report.epochs[..] == full.epochs[..k],
        format!("a {k}-epoch run diverged from the first {k} epochs of the full run"),
    );
    Ok(wall)
}

/// Timed run of `fleet_dst`: whole scenarios through `run_scenario`.
/// `tta_s` interpolates between the wall times at the two epoch ends
/// around the crossing, each measured by a run cut at that epoch.
pub fn timed_fleet(seed: u64, seconds: f64, checks: &mut Checks) -> Result<RunOutcome, String> {
    let w = Workload::FleetDst;
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        setup.push(setup_fleet(&fleet_dst(sub_seed(seed, 0))));
    }
    let start = Instant::now();
    let mut tally = Tally::default();
    let mut per_job = Vec::new();
    let mut j = 0;
    loop {
        let sc = fleet_dst(sub_seed(seed, j));
        let t0 = Instant::now();
        let out = run_scenario(&sc)?;
        let wall = t0.elapsed().as_secs_f64();
        let r = &out.report;
        let consistency = out.verify_consistency();
        checks.check(
            "fleet.consistency",
            consistency.is_ok(),
            consistency.err().unwrap_or_default(),
        );
        checks.check(
            "fleet.not_halted_early",
            !r.halted_early,
            "the scenario halted early",
        );
        checks.check(
            "fleet.every_shard_assimilated",
            r.epochs.len() == sc.cfg.job.epochs
                && r.epochs.iter().all(|e| e.assimilated == sc.cfg.job.shards),
            "an epoch assimilated fewer workunits than shards",
        );
        if j == 0 {
            let again = run_scenario(&sc)?;
            checks.check(
                "fleet.report_hash_stable",
                hash(&again.report_json()) == hash(&out.report_json()),
                "two runs of one seed produced different reports",
            );
        }
        let accs: Vec<f64> = r.epochs.iter().map(|e| f64::from(e.mean_val_acc)).collect();
        match accs.iter().position(|&a| a >= w.target()) {
            None => checks.check(
                "job.reaches_target",
                false,
                format!("epoch means {accs:?} never reach {}", w.target()),
            ),
            Some(k) => {
                // Epoch `k + 1` (1-based) crosses; wall times at its start
                // and end bracket the crossing.
                let end = if k + 1 == accs.len() {
                    wall
                } else {
                    prefix_wall(&sc, k + 1, r, checks)?
                };
                let mut pts = vec![(end, accs[k])];
                if k > 0 {
                    pts.insert(0, (prefix_wall(&sc, k, r, checks)?, accs[k - 1]));
                }
                checks.check("job.reaches_target", true, "");
                tally
                    .tta
                    .push(interpolated_tta(&pts, w.target()).expect("bracketed"));
            }
        }
        let wus: u64 = r.epochs.iter().map(|e| e.assimilated as u64).sum();
        tally.wus += wus;
        tally.expected_wus += (sc.cfg.job.epochs * sc.cfg.job.shards) as u64;
        tally.wall_s += wall;
        tally.bytes += r.bytes_transferred;
        tally.final_acc.push(f64::from(r.final_mean_acc()));
        if j == 0 {
            tally.peak_rss_mb = peak_rss_mb();
        }
        per_job.push(job_json(sc.seed, wall, r));
        j += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / j as f64 > seconds {
            break;
        }
    }
    let failed_wus = tally.expected_wus - tally.wus.min(tally.expected_wus);
    Ok(RunOutcome {
        metrics: tally.metrics(&setup),
        attempted: tally.expected_wus + checks.count(),
        failed: failed_wus + checks.failed(),
        detail: vec![("jobs".into(), crate::record::Json::Arr(per_job))],
    })
}

fn hash(s: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

fn hist_mean(h: &HistogramSnapshot) -> f64 {
    if h.count == 0 {
        0.0
    } else {
        h.sum / h.count as f64
    }
}

/// Per-layer metrics shared by every traced run, from the run report, the
/// replay and the in-situ stage means (`None` where the workload has no
/// wall-clock stage times; the replayed busy times stand in). The run's
/// checks so far count toward `middleware.failed_share`.
fn layer_metrics(
    checks: &Checks,
    report: &RuntimeReport,
    replay: &Replay,
    in_situ: Option<([f64; 6], (f64, f64, f64))>,
    wu_wall_s: f64,
    threads: usize,
    overhead: f64,
) -> Vec<Metric> {
    let m = |name: &str, value: f64, unit: &'static str| Metric {
        name: name.into(),
        value,
        unit,
    };
    let sm = &report.server_metrics;
    let ps = &report.ps_ops;
    let b = &replay.busy;
    let busy = [
        b.dispatch,
        b.fetch,
        b.train,
        b.upload,
        b.validate,
        b.assimilate,
    ];
    let (stages, store) = in_situ.unwrap_or((busy, replay.store_s));
    let mut out = replay.metrics.clone();
    out.push(m(
        "middleware.useful_ratio",
        sm.completed as f64 / sm.assigned.max(1) as f64,
        "ratio",
    ));
    out.push(m(
        "middleware.failed_share",
        failed_share(
            sm.assigned,
            sm.timeouts,
            sm.invalid_results,
            sm.stale_results,
            checks.count(),
            checks.failed(),
        ),
        "ratio",
    ));
    out.push(m(
        "ps.wire_bytes",
        (ps.bytes_rx + ps.bytes_tx) as f64 / ps.fetches.max(1) as f64,
        "B",
    ));
    // Workunits whose fetch the worker's sticky cache served without a
    // transport call.
    out.push(m(
        "ps.cache_hit_ratio",
        1.0 - (ps.fetches as f64 / sm.assigned.max(1) as f64).min(1.0),
        "ratio",
    ));
    out.push(m("kvstore.read_s", store.0, "s"));
    out.push(m("kvstore.write_s", store.1, "s"));
    out.push(m("kvstore.transact_s", store.2, "s"));
    out.push(m(
        "kvstore.lost_updates",
        report.store_ops.lost_updates as f64,
        "count",
    ));
    // The middleware traces validation as instantaneous, so its in-situ
    // time is 0 by construction and is left out.
    let timed = TraceStage::ALL
        .iter()
        .enumerate()
        .filter(|(_, s)| **s != TraceStage::Validate);
    for (i, stage) in timed.clone() {
        out.push(m(&format!("runtime.{}_s", stage.as_str()), stages[i], "s"));
    }
    for (i, stage) in timed {
        out.push(m(
            &format!("runtime.{}.wait_s", stage.as_str()),
            stages[i] - busy[i],
            "s",
        ));
    }
    let path = if threads == 1 { b.total() } else { b.worker() };
    out.push(m(
        "runtime.unattributed_s",
        wu_wall_s * threads as f64 - b.total(),
        "s",
    ));
    out.push(m(
        "runtime.fleet_efficiency",
        path / (wu_wall_s * threads as f64),
        "ratio",
    ));
    out.push(m("telemetry.trace_overhead", overhead, "ratio"));
    out
}

/// Epochs of each job a threaded traced run times.
const OVERHEAD_EPOCHS: usize = 2;

/// Replay budget of the workunit path, seconds.
const REPLAY_BUDGET_S: f64 = 3.0;

/// Traced run of a threaded workload: short jobs of the same seed,
/// untraced, traced, traced, untraced (so a steady drift in machine speed
/// cancels out of the overhead), then the replay and the layer tables.
pub fn traced_threaded(
    w: Workload,
    seed: u64,
    t: &mut Tracer,
    checks: &mut Checks,
) -> Result<RunOutcome, String> {
    let cn = w.config(0).job.cn;
    let (mut metrics, expected, got) =
        within_hardware_threads(cn, || traced_jobs(w, seed, t, checks))?;
    metrics.extend(layer_tables(seed, t, checks));
    Ok(RunOutcome {
        metrics,
        attempted: expected + checks.count(),
        failed: expected - got.min(expected) + checks.failed(),
        detail: Vec::new(),
    })
}

/// The jobs and the replay of [`traced_threaded`]: its per-layer metrics,
/// the workunits the jobs should assimilate and those they did.
fn traced_jobs(
    w: Workload,
    seed: u64,
    t: &mut Tracer,
    checks: &mut Checks,
) -> Result<(Vec<Metric>, u64, u64), String> {
    let mut cfg = w.config(sub_seed(seed, 0));
    cfg.job.epochs = OVERHEAD_EPOCHS;
    cfg.job.target_accuracy = None;
    let mut traced_cfg = cfg.clone();
    traced_cfg.trace = true;
    let tel = Telemetry::silent();
    let (mut plain_s, mut traced_s, mut plain_wus, mut got) = (0.0, 0.0, 0u64, 0u64);
    let mut traced = None;
    for with_trace in [false, true, true, false] {
        let t0 = Instant::now();
        let r = if with_trace {
            Runtime::new(traced_cfg.clone())?
                .with_telemetry(tel.clone())
                .run()?
        } else {
            run_runtime(cfg.clone())?
        };
        let wall = t0.elapsed().as_secs_f64();
        check_job(&cfg, &r, checks);
        let wus: u64 = r.epochs.iter().map(|e| e.assimilated as u64).sum();
        got += wus;
        if with_trace {
            traced_s += wall;
            traced = Some(r);
        } else {
            plain_s += wall;
            plain_wus += wus;
        }
    }
    let traced = traced.expect("two traced jobs ran");

    // In-situ stage means over both traced jobs (they share the hub).
    let mut stages = [0.0; 6];
    for (i, stage) in TraceStage::ALL.iter().enumerate() {
        let h = tel
            .registry()
            .histogram_with(stage.histogram_name(), Histogram::latency_bounds);
        stages[i] = hist_mean(&h.snapshot());
    }
    let rt = &traced.telemetry;
    let store = (
        hist_mean(&rt.store_read_s),
        hist_mean(&rt.store_write_s),
        hist_mean(&rt.store_transact_s),
    );

    let replay = replay::workunits(&cfg, REPLAY_BUDGET_S, t, checks)?;
    let metrics = layer_metrics(
        checks,
        &traced,
        &replay,
        Some((stages, store)),
        plain_s / plain_wus.max(1) as f64,
        cfg.job.cn,
        traced_s / plain_s - 1.0,
    );
    let expected = 4 * (cfg.job.epochs * cfg.job.shards) as u64;
    Ok((metrics, expected, got))
}

/// Traced run of `fleet_dst`: after a warm-up run, scenarios of the same
/// seed untraced, traced, traced, untraced; then the replay over the same
/// generated fleet and the layer tables. The simulator's stage times are
/// virtual, so the replayed busy times stand in for the in-situ ones.
pub fn traced_fleet(seed: u64, t: &mut Tracer, checks: &mut Checks) -> Result<RunOutcome, String> {
    let sc = fleet_dst(sub_seed(seed, 0));
    let traced_sc = sc.clone().tracing(true);
    let plain = run_scenario(&sc)?;
    let (mut plain_wall, mut traced_wall) = (0.0, 0.0);
    for with_trace in [false, true, true, false] {
        let t0 = Instant::now();
        let out = run_scenario(if with_trace { &traced_sc } else { &sc })?;
        let wall = t0.elapsed().as_secs_f64();
        checks.check(
            "fleet.tracing_changes_nothing",
            out.report_json() == plain.report_json(),
            "a traced scenario reported differently from the untraced one",
        );
        if with_trace {
            traced_wall += wall;
        } else {
            plain_wall += wall;
        }
    }
    let replay = replay::workunits(&sc.cfg, REPLAY_BUDGET_S, t, checks)?;
    let wus: u64 = plain
        .report
        .epochs
        .iter()
        .map(|e| e.assimilated as u64)
        .sum();
    let mut metrics = layer_metrics(
        checks,
        &plain.report,
        &replay,
        None,
        plain_wall / (2 * wus.max(1)) as f64,
        1,
        traced_wall / plain_wall - 1.0,
    );
    metrics.extend(layer_tables(seed, t, checks));
    let expected = (sc.cfg.job.epochs * sc.cfg.job.shards) as u64;
    Ok(RunOutcome {
        metrics,
        attempted: expected + checks.count(),
        failed: expected - wus.min(expected) + checks.failed(),
        detail: Vec::new(),
    })
}

/// Layer-by-layer step tables of every model the benchmark trains, plus
/// the paper's model family (`resnet_lite`, two blocks per stage, 32×32×3,
/// batch 32), so every traced run reports the same per-layer metrics.
fn layer_tables(seed: u64, t: &mut Tracer, checks: &mut Checks) -> Vec<Metric> {
    let data = |img: [usize; 3], n: usize| {
        let mut spec = SyntheticSpec::cifar_like(seed);
        spec.img = img;
        spec.train_n = n;
        spec.val_n = 1;
        spec.test_n = 1;
        spec.generate().0
    };
    let small = data([3, 16, 16], 128);
    let big = data([3, 32, 32], 128);
    let cnn = cnn_tcp(seed).job;
    let fleet = fleet_dst(seed).cfg.job;
    let resnet = resnet_lite(&[3, 32, 32], 2, 10);
    let cnn_spec = small_cnn(&[3, 16, 16], 10);
    let tables = [
        (
            "small_cnn",
            &cnn_spec,
            &cnn.optimizer,
            &small,
            32,
            1.0,
            10,
            false,
        ),
        (
            "mlp32",
            &fleet.model,
            &fleet.optimizer,
            &small,
            32,
            0.25,
            20,
            false,
        ),
        (
            "resnet_lite",
            &resnet,
            &cnn.optimizer,
            &big,
            32,
            2.0,
            8,
            true,
        ),
    ];
    let mut out = Vec::new();
    for (model, spec, optimizer, ds, batch, budget_s, min_steps, paper_family) in tables {
        let ts = TableSpec {
            model,
            spec,
            seed,
            optimizer,
            images: &ds.images,
            labels: &ds.labels,
            batch,
            budget_s,
            min_steps,
            paper_family,
        };
        out.extend(step_table(&ts, t, checks));
    }
    out
}
