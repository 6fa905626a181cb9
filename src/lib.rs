//! # Skyscraper Broadcasting — a SIGCOMM '97 reproduction in Rust
//!
//! This facade crate re-exports the whole workspace so applications (and
//! the `examples/`) can depend on one crate:
//!
//! * [`core`] — the Skyscraper scheme itself (series,
//!   fragmentation, channel design, the exact slot-level client model);
//! * [`pyramid`] — the baselines: PB:a/b, PPB:a/b, staggered;
//! * [`sim`] — the metropolitan VoD simulator;
//! * [`workload`] — Zipf popularity, Poisson arrivals,
//!   reneging;
//! * [`batching`] — scheduled multicast for the unpopular
//!   tail, and the §1 hybrid server;
//! * [`control`] — the online control plane: popularity
//!   estimation, dynamic channel reallocation, admission control;
//! * [`resilience`] — bursty-loss channels, fault scripts,
//!   and graceful-degradation policies;
//! * [`metrics`] — the deterministic counters/gauges/histograms
//!   registry the simulators report into;
//! * [`analysis`] — every figure and table of the paper's
//!   evaluation, regenerated;
//! * [`units`] — the physical-quantity newtypes underneath it
//!   all.
//!
//! Start with [`prelude`], or see `examples/quickstart.rs`.

#![forbid(unsafe_code)]

pub use sb_analysis as analysis;
pub use sb_batching as batching;
pub use sb_control as control;
pub use sb_core as core;
pub use sb_metrics as metrics;
pub use sb_pyramid as pyramid;
pub use sb_resilience as resilience;
pub use sb_sim as sim;
pub use sb_workload as workload;
pub use vod_units as units;

/// The things almost every program wants in scope: the scheme and
/// baseline constructors, the single-session policy helpers, and —
/// via [`sb_sim::prelude`] — the whole `execute(RunConfig)` run
/// surface (builder, outcome, partition selector, distributed
/// tier) plus the supervised-run outcomes from `sb-resilience`.
pub mod prelude {
    pub use sb_core::plan::VideoId;
    pub use sb_core::prelude::*;
    pub use sb_pyramid::{PermutationPyramid, PyramidBroadcasting, StaggeredBroadcasting};
    pub use sb_resilience::{PartialRun, Recovered};
    pub use sb_sim::policy::{schedule_client, ClientPolicy};
    pub use sb_sim::prelude::*;
    pub use vod_units::{MBytes, Mbits, Mbps, Minutes, Seconds};
}
