//! The run record: a provenance header, named metrics with units, the
//! correctness checks, and the one-line result the benchmark ends on.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A minimal JSON value, enough for the record.
#[derive(Clone, Debug)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Compact serialization. Non-finite numbers (which no metric may be)
/// become `null`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            // Integers print without a fraction; everything else with the
            // shortest representation that round-trips.
            Json::Num(x) if x.is_finite() && x.fract() == 0.0 && x.abs() < 1e15 => {
                write!(f, "{}", *x as i64)
            }
            Json::Num(x) if x.is_finite() => write!(f, "{x:?}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => {
                f.write_char('"')?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => f.write_char(c)?,
                    }
                }
                f.write_char('"')
            }
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{}:{v}", Json::Str(k.clone()))?;
                }
                f.write_char('}')
            }
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Named correctness checks; any failure fails the run. A check made
/// several times (once per job) keeps its pass and fail counts.
#[derive(Default, Debug)]
pub struct Checks {
    results: BTreeMap<String, (u64, u64)>,
}

impl Checks {
    /// Records one check; `detail` goes to standard error on failure.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl std::fmt::Display) {
        let entry = self.results.entry(name.to_string()).or_default();
        if ok {
            entry.0 += 1;
        } else {
            entry.1 += 1;
            eprintln!("perfbench: check failed: {name}: {detail}");
        }
    }

    /// Checks made so far.
    pub fn count(&self) -> u64 {
        self.results.values().map(|(p, f)| p + f).sum()
    }

    /// Checks that failed.
    pub fn failed(&self) -> u64 {
        self.results.values().map(|(_, f)| f).sum()
    }

    /// The checks as `{name: {"passed": n, "failed": m}}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.results
                .iter()
                .map(|(n, (p, f))| {
                    let counts = vec![
                        ("passed".to_string(), Json::Num(*p as f64)),
                        ("failed".to_string(), Json::Num(*f as f64)),
                    ];
                    (n.clone(), Json::Obj(counts))
                })
                .collect(),
        )
    }
}

/// Which revision, hardware and configuration produced a record.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool, codec: &str) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::Obj(vec![
        ("git_rev".into(), Json::Str(git_revision())),
        ("nproc".into(), Json::Num(nproc as f64)),
        ("simd".into(), Json::Str(simd_path().into())),
        (
            "conv_path".into(),
            Json::Str(
                if vc_tensor::conv_direct::enabled() {
                    "direct"
                } else {
                    "im2col"
                }
                .into(),
            ),
        ),
        ("codec".into(), Json::Str(codec.into())),
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), Json::Num(seed as f64)),
        ("seconds".into(), Json::Num(seconds as f64)),
        ("trace".into(), Json::Bool(trace)),
    ])
}

/// The GEMM kernel family the tensor crate dispatches to on this CPU (the
/// same feature test it runs).
pub fn simd_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return "avx2+fma";
        }
    }
    "portable"
}

/// The checked-out revision, read from `.git` without running git;
/// `unknown` outside a git checkout.
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{r}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The process's resident-set high-water mark in MB (`VmHWM`); 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The final line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Json::Obj(vec![
                                ("value".into(), Json::Num(m.value)),
                                ("unit".into(), Json::Str(m.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_numbers_keep_all_digits() {
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(0.1234567891).to_string(), "0.1234567891");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Str("a\"b".into()).to_string(), "\"a\\\"b\"");
        assert_eq!(Json::Str("\n".into()).to_string(), "\"\\u000a\"");
    }

    #[test]
    fn checks_count_every_pass_and_failure() {
        let mut c = Checks::default();
        c.check("a", true, "");
        c.check("a", false, "second job");
        c.check("b", true, "");
        assert_eq!(c.count(), 3);
        assert_eq!(c.failed(), 1);
        assert_eq!(
            c.to_json().to_string(),
            r#"{"a":{"passed":1,"failed":1},"b":{"passed":1,"failed":0}}"#
        );
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(
            true,
            10,
            0,
            &[Metric {
                name: "setup_s".into(),
                value: 0.5,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
    }
}
