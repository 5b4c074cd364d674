//! # perfbench
//!
//! The repository benchmark. One command runs one named workload:
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cnn_tcp|fleet_dst> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times whole training jobs, back to back, for as
//! many as fit in `--seconds` seconds, and reports the end-to-end
//! metrics. With `--trace 1` it times untraced and traced jobs of one seed
//! against each other, replays one workunit's path layer by layer, and
//! reports the per-layer metrics.
//! Every run checks its outputs. The last line of standard output is the
//! result: `{"correct", "attempted", "failed", "metrics"}`; the line before
//! it is the provenance header. The full record (per-job figures, checks,
//! and for traced runs every replay span) is written to
//! `perfbench/out/<workload>-seed<n>-trace<t>.json`.

mod layers;
mod record;
mod replay;
mod spans;
mod stats;
mod workloads;

use record::{provenance, result_line, Checks, Json};
use spans::{all_self_times, Tracer};
use workloads::{timed_fleet, timed_threaded, traced_fleet, traced_threaded, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?} (known: {names:?})"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

/// Per span name: count, median seconds and the supported tail
/// percentile.
fn span_stats(t: &Tracer) -> Json {
    let mut by_name: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for s in t.spans() {
        by_name.entry(s.name).or_default().push(s.duration());
    }
    Json::Obj(
        by_name
            .into_iter()
            .map(|(name, xs)| {
                let (median, tail) = stats::median_and_tail(&xs);
                let mut fields = vec![
                    ("count".to_string(), Json::Num(xs.len() as f64)),
                    ("median_s".to_string(), Json::Num(median)),
                ];
                if let Some((p, v)) = tail {
                    fields.push((format!("p{p}_s"), Json::Num(v)));
                }
                (name.to_string(), Json::Obj(fields))
            })
            .collect(),
    )
}

fn spans_json(t: &Tracer) -> Json {
    let own = all_self_times(t.spans());
    Json::Arr(
        t.spans()
            .iter()
            .zip(own)
            .map(|(s, own)| {
                Json::Arr(vec![
                    Json::Str(s.name.into()),
                    Json::Num(s.start),
                    Json::Num(s.end),
                    s.parent.map_or(Json::Num(-1.0), |p| Json::Num(p as f64)),
                    Json::Num(own),
                ])
            })
            .collect(),
    )
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let w = args.workload;
    let header = provenance(
        w.name(),
        args.seed,
        args.seconds,
        args.trace,
        &w.codec_name(),
    );
    println!("{}", Json::Obj(vec![("provenance".into(), header.clone())]));

    let mut checks = Checks::default();
    let mut tracer = Tracer::with_capacity(1 << 18);
    let seconds = args.seconds as f64;
    let out = match (w, args.trace) {
        (Workload::FleetDst, false) => timed_fleet(args.seed, seconds, &mut checks)?,
        (Workload::FleetDst, true) => traced_fleet(args.seed, &mut tracer, &mut checks)?,
        (_, false) => timed_threaded(w, args.seed, seconds, &mut checks)?,
        (_, true) => traced_threaded(w, args.seed, &mut tracer, &mut checks)?,
    };

    let mut record = vec![
        ("provenance".to_string(), header),
        ("checks".to_string(), checks.to_json()),
        (
            "metrics".to_string(),
            Json::Obj(
                out.metrics
                    .iter()
                    .map(|m| (m.name.clone(), Json::Num(m.value)))
                    .collect(),
            ),
        ),
    ];
    record.extend(out.detail);
    if args.trace {
        record.push(("span_stats".into(), span_stats(&tracer)));
        record.push(("spans".into(), spans_json(&tracer)));
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        w.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(&path, Json::Obj(record).to_string()))
    {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }

    println!(
        "{}",
        result_line(
            checks.failed() == 0,
            out.attempted,
            out.failed,
            &out.metrics
        )
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
