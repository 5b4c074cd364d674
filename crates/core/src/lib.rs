//! # vc-asgd
//!
//! **The paper's primary contribution**: VC-ASGD, an asynchronous parameter-
//! update scheme for distributed deep-learning training on volunteer-
//! computing-like fleets, together with the job description and client step
//! every execution substrate shares.
//!
//! ## The scheme (§III-C)
//!
//! The parameter server assimilates each arriving client result immediately,
//! in arrival order, with the recursive blend of Eq. (1):
//!
//! ```text
//! W_s ← α·W_s + (1 − α)·W_c,j
//! ```
//!
//! It never waits for stragglers, so the scheme is fault tolerant: a lost or
//! late subtask simply contributes nothing until the middleware re-issues
//! it. Unrolling Eq. (1) over the `n_t` subtasks of an epoch yields Eq. (2),
//! which [`alpha`] and the property tests verify against the implementation.
//! α may vary per epoch ([`alpha::AlphaSchedule`]); the paper's "Var"
//! schedule is `α_e = e/(e+1)`.
//!
//! ## The driver
//!
//! This crate holds the scheme itself — the α schedule ([`alpha`]), the
//! client training step ([`client`]) and the job description
//! ([`JobConfig`]). It runs on one discrete-event engine,
//! `vc_runtime::sim`: `Scenario::table1(job)` shards the synthetic dataset
//! through the work generator, schedules subtasks through the BOINC-like
//! middleware onto a simulated heterogeneous fleet timed by the paper's
//! Table I testbed, trains *real* client models, and assimilates the
//! results through the sharded parameter service's Eq. (1) merge over a
//! strong- or eventually-consistent store. The per-epoch
//! `(simulated time, validation accuracy mean/min/max)` series it reports
//! is what the paper's Figures 2–6 plot. The threaded `vc_runtime::Runtime`
//! runs the same job on OS threads and wall-clock time.

pub mod alpha;
pub mod client;
pub mod config;

pub use alpha::AlphaSchedule;
pub use client::{result_is_valid, train_client_replica_ws, warm_start_params};
pub use config::{FleetKind, JobConfig};
