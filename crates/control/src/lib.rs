//! # Online control plane for the hybrid VoD server
//!
//! The paper's hybrid (§1) decides *offline* which titles get periodic
//! broadcast: the top `m` of a known Zipf ranking. This crate closes the
//! loop online, for a server whose popularity ranking drifts over the day:
//!
//! * [`estimator`] — sliding-window popularity estimation from the
//!   observed request stream (exponentially-decayed counts),
//! * [`allocator`] — hysteretic, drain-safe reassignment of skyscraper
//!   channel groups toward the current top titles,
//! * [`admission`] — reject/defer control on the batching pool's
//!   projected load,
//! * [`sim`] — [`ControlledSim`], the engine-driven simulation tying the
//!   three together under a [`ControlPolicy`] (Static reproduces the
//!   paper's offline split; Dynamic reallocates online).
//!
//! Everything is deterministic and clock-free, so control experiments are
//! exactly reproducible and metrics snapshots are byte-identical across
//! worker-thread counts.

#![forbid(unsafe_code)]

pub mod admission;
pub mod allocator;
pub mod estimator;
pub mod sim;

pub use admission::{AdmissionControl, AdmissionDecision, Backoff};
pub use allocator::{ChannelAllocator, CommittedSwap, PendingSwap, PlannedSwap, Slot};
pub use estimator::PopularityEstimator;
pub use sim::{ControlConfig, ControlOutcome, ControlPolicy, ControlReport, ControlledSim};
