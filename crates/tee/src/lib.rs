//! Simulated TEE/REE execution substrate for the TBNet reproduction.
//!
//! The paper deploys on a Raspberry Pi 3B running OP-TEE (ARM TrustZone).
//! This crate replaces that hardware with an explicit, measurable model of
//! the same mechanisms:
//!
//! * [`CostModel`] — throughput/latency constants for the rich world (REE),
//!   the secure world (TEE), world switches and the shared-memory channel;
//!   the default profile is calibrated to a Raspberry-Pi-3-class device.
//! * [`MemoryLedger`] / [`SecureWorld`] — secure-memory accounting with a
//!   hard budget, the resource the paper's Fig. 3 measures.
//! * [`channel`] — a **type-enforced one-way channel**: the REE endpoint can
//!   only send and the TEE endpoint can only receive, so the "one-way context
//!   switch" design requirement of the paper holds by construction.
//! * [`executor`] — an event-driven latency simulator for (a) the baseline
//!   "entire model inside the TEE" deployment and (b) the TBNet two-branch
//!   deployment, reproducing the paper's Table 3 comparison; plus
//!   [`executor::calibrate_cost_model`], which fits a [`CostModel`] to stage
//!   times measured by the concurrent serving runtime so the simulator
//!   becomes a tested model of the real pipeline.
//! * [`fault`] — a deterministic, seeded nemesis ([`FaultPlan`]) injecting
//!   secure-world failures (aborted world switches, channel stalls, payload
//!   corruption, secure-memory exhaustion, TA crashes) for the serving
//!   runtime's recovery paths to be tested against.
//!
//! # Example
//!
//! ```
//! use tbnet_models::vgg;
//! use tbnet_tee::{executor, CostModel};
//!
//! let spec = vgg::vgg_tiny(10, 3, (16, 16));
//! let cost = CostModel::raspberry_pi3();
//! let report = executor::simulate_baseline(&spec, &cost).expect("valid spec");
//! assert!(report.total_s > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod executor;
pub mod fault;

mod cost;
mod error;
mod memory;
mod world;

pub use cost::CostModel;
pub use error::TeeError;
pub use executor::{
    calibrate_cost_model, simulate_baseline, simulate_partition, simulate_two_branch,
    LatencyReport, MeasuredStages,
};
pub use fault::{checksum_f32, corrupt_f32, ConsumerFault, FaultCounts, FaultKind, FaultPlan};
pub use memory::{MemoryLedger, MemoryReport};
pub use world::{Deployment, ModelHandle, SecureWorld};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, TeeError>;
