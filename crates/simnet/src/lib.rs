//! # vc-simnet
//!
//! Discrete-event simulation of a volunteer-computing-like fleet: the
//! substrate that stands in for the paper's AWS testbed.
//!
//! The paper's evaluation plots accuracy against *wall-clock training time*
//! on a fleet of heterogeneous cloud instances (Table I), with WAN latency
//! and preemptible-instance terminations. Reproducing those axes without
//! the testbed requires simulating time while computing accuracy for real:
//!
//! * [`SimTime`] — the simulated-time type every event is stamped with
//!   (the one event queue is `vc_runtime::StepScheduler`).
//! * [`InstanceSpec`]/[`table1`] — the paper's instance catalog with vCPU,
//!   clock, RAM, bandwidth and AWS-calibrated prices.
//! * [`ComputeModel`] — client subtask service times under concurrency
//!   (vertical scaling, §IV-B) and server assimilation times under multiple
//!   parameter servers, including the saturation effects the paper reports
//!   ("client throughput decreases after T8, server throughput after P5").
//! * [`NetworkModel`] — bandwidth-based transfer times for model/parameter/
//!   shard files plus lognormal WAN jitter (variable network latency,
//!   §III-B).
//! * [`PreemptionModel`] — Bernoulli-per-subtask and exponential-lifetime
//!   instance terminations (§IV-E).
//!
//! The middleware and the deterministic simulator (`vc_runtime::sim`, with
//! its Table I timing) schedule *real* training computations at simulated
//! completion times, so asynchrony, staleness and assimilation order are
//! faithful to the modelled fleet.

pub mod compute;
pub mod network;
pub mod preempt;
pub mod specs;
pub mod time;

pub use compute::ComputeModel;
pub use network::NetworkModel;
pub use preempt::PreemptionModel;
pub use specs::{generated_fleet, table1, InstanceSpec};
pub use time::SimTime;
