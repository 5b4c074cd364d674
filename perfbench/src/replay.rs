//! Single-threaded replay of the workunit path on a workload's own config
//! and seed: dispatch → fetch → train (layer by layer, loss, optimizer) →
//! encode → validate → assimilate → evaluate, every stage in a span, plus
//! standalone timings of the calls a workunit makes only some of the time
//! (idle polls, timeout scans, cold fetches).

use crate::layers::{bits_equal, Stepper};
use crate::record::{Checks, Metric};
use crate::spans::Tracer;
use crate::stats::{mean, median};
use crossbeam::channel::unbounded;
use rand::seq::SliceRandom;
use std::sync::Arc;
use std::time::Instant;
use vc_asgd::client::client_rng;
use vc_asgd::result_is_valid;
use vc_data::ShardSet;
use vc_kvstore::{Consistency, VersionedStore, STORE_READ_S, STORE_TRANSACT_S, STORE_WRITE_S};
use vc_middleware::{BoincServer, HostId, ReportStatus, ShardManifest, ToleranceComparator};
use vc_nn::metrics::evaluate;
use vc_ps::codec::apply_update_roundtrip;
use vc_ps::{
    MemClient, PsClient, PsService, ShardCache, ShardedAssimilator, TcpClient, TcpPsServer,
};
use vc_runtime::RuntimeConfig;
use vc_simnet::SimTime;
use vc_telemetry::{Histogram, Telemetry};

/// Assignments replayed at least, whatever the time budget.
const MIN_ASSIGNMENTS: usize = 4;
/// Repetitions of each standalone call (idle poll, scan, cold fetch,
/// encode).
const STANDALONE_REPS: usize = 64;
/// Repetitions of each parameter-store operation.
const STORE_REPS: usize = 8;

/// Busy seconds per workunit of each runtime stage, as replayed.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageBusy {
    pub dispatch: f64,
    pub fetch: f64,
    pub train: f64,
    /// The worker's codec pass over its upload (lossy codecs only); the
    /// runtime runs it between its `train` and `upload` stages.
    pub encode: f64,
    /// The upload: a channel send of the result.
    pub upload: f64,
    pub validate: f64,
    /// Merge plus the validation-set evaluation every assimilation runs.
    pub assimilate: f64,
}

impl StageBusy {
    /// Work on a worker's path per workunit.
    pub fn worker(&self) -> f64 {
        self.dispatch + self.fetch + self.train + self.encode + self.upload
    }

    /// All replayed work per workunit.
    pub fn total(&self) -> f64 {
        self.worker() + self.validate + self.assimilate
    }
}

/// What the replay measured.
pub struct Replay {
    /// `middleware.*`, `ps.*`, `nn.eval_s`, `data.*` and `simnet.*`.
    pub metrics: Vec<Metric>,
    pub busy: StageBusy,
    /// Mean seconds of the replay's own parameter-store operations:
    /// (read, write, transact).
    pub store_s: (f64, f64, f64),
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Replays the workunit path of `cfg` for at least `budget_s` seconds (or
/// until the first epoch's workunits are all accepted), then the
/// standalone calls. Fidelity checks go to `checks`.
pub fn workunits(
    cfg: &RuntimeConfig,
    budget_s: f64,
    t: &mut Tracer,
    checks: &mut Checks,
) -> Result<Replay, String> {
    let job = &cfg.job;
    let root = t.begin("replay");

    // --- set-up, mirroring Runtime::run -------------------------------
    let (train, val, _test) = t.span("data.generate", |_| job.data.generate());
    let shards = t.span("data.split", |_| ShardSet::split(&train, job.shards));
    let val_eval = val.select(&(0..job.val_eval_n).collect::<Vec<_>>());
    let fleet = t.span("simnet.fleet", |_| job.fleet.build(job.cn));
    let slots =
        |fleet: &[vc_simnet::InstanceSpec]| fleet.iter().map(|s| (s.clone(), job.tn)).collect();
    let tel = Telemetry::silent();
    let mut server = BoincServer::new(job.middleware.clone(), slots(&fleet));
    server.set_telemetry(tel.clone());
    if cfg.codec.is_lossy() {
        let (atol, rtol) = cfg.codec.quorum_tolerance();
        server.set_comparator(Box::new(ToleranceComparator { atol, rtol }));
    }
    let store = Arc::new(VersionedStore::new().with_telemetry(&tel));
    let init = job.model.build(job.seed).params_flat();
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
    let manifest = assim.versions();
    service.publish_snapshot(1, &init, &manifest);
    server.add_epoch_sharded(
        1,
        job.shards,
        &ShardManifest(manifest.clone()),
        SimTime::ZERO,
    );
    let tcp = if cfg.ps_tcp {
        Some(TcpPsServer::bind(service.clone(), job.ps_shards.min(4)).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let connect = || -> Result<Box<dyn PsClient>, String> {
        Ok(match &tcp {
            Some(srv) => {
                Box::new(TcpClient::connect(srv.addrs(), srv.groups()).map_err(|e| e.to_string())?)
            }
            None => Box::new(MemClient::new(service.clone())),
        })
    };
    let new_cache = || ShardCache::new(*assim.layout()).with_codec(cfg.codec);

    // Fidelity: a cold fetch returns the published snapshot bit for bit.
    let mut probe = connect()?;
    let fetched = new_cache()
        .sync(1, &manifest, probe.as_mut())
        .map_err(|e| e.to_string())?
        .to_vec();
    checks.check(
        "ps.fetch_returns_snapshot_bitwise",
        bits_equal(&fetched, &init),
        "a cold fetch differs from the published snapshot",
    );

    // --- the workunit path ---------------------------------------------
    struct Host {
        cache: ShardCache,
        client: Box<dyn PsClient>,
        residual: Vec<f32>,
    }
    let n_hosts = job.cn.min(64);
    let mut hosts: Vec<Option<Host>> = (0..n_hosts).map(|_| None).collect();
    let mut stepper = Stepper::new(&job.model, job.seed, &job.optimizer);
    let mut eval_model = job.model.build(job.seed);
    let (mut x, mut y, mut blob) = (Vec::new(), Vec::new(), Vec::new());
    let mut order: Vec<usize> = Vec::new();
    let (uplink_tx, uplink_rx) = unbounded::<Vec<f32>>();
    let t0 = Instant::now();
    let now = |t0: Instant| SimTime::from_secs(t0.elapsed().as_secs_f64());
    let (mut assigned, mut accepted) = (0usize, 0usize);
    let mut h = 0usize;
    let mut misses = 0usize;
    while !server.all_done()
        && (assigned < MIN_ASSIGNMENTS || t0.elapsed().as_secs_f64() < budget_s)
    {
        let host = HostId(h as u32);
        h = (h + 1) % n_hosts;
        let poll = t.begin("dispatch");
        let asg = server.request_work(host, now(t0));
        t.end(poll);
        let Some(asg) = asg else {
            t.rename(poll, "idle_poll");
            misses += 1;
            if misses > 4 * n_hosts {
                return Err("replay: no host can take the remaining workunits".into());
            }
            continue;
        };
        misses = 0;
        assigned += 1;
        if hosts[host.0 as usize].is_none() {
            hosts[host.0 as usize] = Some(Host {
                cache: new_cache(),
                client: connect()?,
                residual: Vec::new(),
            });
        }
        let hs = hosts[host.0 as usize].as_mut().expect("host just set up");
        let wu = t.begin("wu");
        let snapshot = t
            .span("fetch", |_| {
                hs.cache.sync(
                    asg.wu.epoch as u64,
                    &asg.wu.param_versions.0,
                    hs.client.as_mut(),
                )
            })
            .map_err(|e| e.to_string())?;
        let data = &shards.shard(asg.wu.shard_id).data;
        let mut params = t.span("train", |t| {
            t.span("model_build", |_| {
                stepper.start_subtask(&job.model, job.seed, snapshot, &job.optimizer)
            });
            let mut rng = client_rng(job.seed, asg.wu.epoch, asg.wu.shard_id);
            order.clear();
            order.extend(0..data.len());
            for _ in 0..job.local_epochs {
                order.shuffle(&mut rng);
                for chunk in order.chunks(job.batch_size) {
                    stepper.step(t, &data.images, &data.labels, chunk);
                }
            }
            stepper.params().to_vec()
        });
        if cfg.codec.is_lossy() {
            t.span("encode", |_| {
                apply_update_roundtrip(
                    cfg.codec,
                    hs.cache.params(),
                    &mut params,
                    &mut hs.residual,
                    &mut x,
                    &mut blob,
                    &mut y,
                )
            });
        }
        // The upload is a message to the coordinator; the span covers the
        // send, as the runtime's upload stage does.
        t.span("upload", |_| uplink_tx.send(params))
            .map_err(|e| e.to_string())?;
        let params = uplink_rx.recv().map_err(|e| e.to_string())?;
        let status = t.span("validate", |t| {
            if !result_is_valid(&params) {
                return None;
            }
            Some(t.span("report", |_| {
                server.report_result(asg.wu.id, host, &params, now(t0))
            }))
        });
        if status == Some(ReportStatus::Accepted) {
            accepted += 1;
            let updated = t.span("assimilate", |_| match job.consistency {
                Consistency::Strong => assim.assimilate_strong(&params, asg.wu.epoch),
                Consistency::Eventual => {
                    let snap = assim.begin_eventual();
                    assim.commit_eventual(snap, &params, asg.wu.epoch).0
                }
            });
            t.span("evaluate", |_| {
                eval_model.set_params_flat(&updated);
                evaluate(&mut eval_model, &val_eval.images, &val_eval.labels, 256)
            });
        }
        t.end(wu);
    }
    checks.check(
        "replay.workunits_accepted",
        accepted > 0,
        format!("{assigned} assignments replayed, none accepted"),
    );

    // --- standalone calls -------------------------------------------------
    // Idle polls against the same fleet with an empty queue, as most polls
    // of a large fleet are.
    let mut idle = BoincServer::new(job.middleware.clone(), slots(&fleet));
    idle.set_telemetry(tel.clone());
    for r in 0..STANDALONE_REPS {
        let host = HostId((r % n_hosts) as u32);
        let got = t.span("idle_poll", |_| idle.request_work(host, now(t0)));
        debug_assert!(got.is_none());
    }
    for _ in 0..STANDALONE_REPS {
        t.span("scan", |_| server.scan_timeouts(now(t0)));
    }
    let mut client = connect()?;
    for _ in 0..STANDALONE_REPS {
        let mut cache = new_cache();
        t.span("cold_fetch", |_| {
            cache.sync(1, &manifest, client.as_mut()).map(|_| ())
        })
        .map_err(|e| e.to_string())?;
    }
    let mut residual = Vec::new();
    let trained = stepper.params().to_vec();
    for _ in 0..STANDALONE_REPS {
        let mut p = trained.clone();
        t.span("upload_codec", |_| {
            apply_update_roundtrip(
                cfg.codec,
                &init,
                &mut p,
                &mut residual,
                &mut x,
                &mut blob,
                &mut y,
            )
        });
    }
    // Parameter-store operations off the path, so every workload reports
    // all three: snapshot reads, seeding writes and strong-mode merges.
    for _ in 0..STORE_REPS {
        assim.read_params();
        assim.seed_params(&init);
        assim.assimilate_strong(&trained, 1);
    }
    t.end(root);
    drop(hosts);
    drop(client);
    drop(probe);
    if let Some(srv) = tcp {
        srv.shutdown();
    }

    let med = |n: &str| median(&t.durations(n));
    let avg = |n: &str| mean(&t.durations(n));
    let per_wu = |n: &str| t.durations(n).iter().sum::<f64>() / accepted.max(1) as f64;
    let busy = StageBusy {
        dispatch: per_wu("dispatch"),
        fetch: per_wu("fetch"),
        train: per_wu("train"),
        encode: per_wu("encode"),
        upload: per_wu("upload"),
        validate: per_wu("validate"),
        assimilate: per_wu("assimilate") + per_wu("evaluate"),
    };
    let store_mean = |name: &str| {
        let s = tel
            .registry()
            .histogram_with(name, Histogram::latency_bounds)
            .snapshot();
        if s.count == 0 {
            0.0
        } else {
            s.sum / s.count as f64
        }
    };
    let metrics = vec![
        metric("middleware.assign_s", med("dispatch"), "s"),
        metric("middleware.idle_poll_s", med("idle_poll"), "s"),
        metric("middleware.report_s", med("report"), "s"),
        metric("middleware.scan_s", med("scan"), "s"),
        metric("ps.fetch_s", med("cold_fetch"), "s"),
        metric("ps.encode_s", med("upload_codec"), "s"),
        metric("ps.merge_s", med("assimilate"), "s"),
        metric("nn.eval_s", med("evaluate"), "s"),
        metric("data.generate_s", avg("data.generate"), "s"),
        metric("data.split_s", avg("data.split"), "s"),
        metric("simnet.fleet_s", avg("simnet.fleet"), "s"),
    ];
    Ok(Replay {
        metrics,
        busy,
        store_s: (
            store_mean(STORE_READ_S),
            store_mean(STORE_WRITE_S),
            store_mean(STORE_TRANSACT_S),
        ),
    })
}
