//! The one-stop public run surface.
//!
//! Everything needed to configure and execute a system run — the
//! [`RunConfig`] builder, its outcome, the partition selector,
//! trace sinks, and the distributed-tier types — re-exported from a
//! single place so downstream crates write
//! `use sb_sim::prelude::*;` instead of chasing module paths:
//!
//! ```
//! use sb_sim::prelude::*;
//! use sb_sim::policy::ClientPolicy;
//! use sb_core::prelude::*;
//! use sb_core::plan::VideoId;
//!
//! let cfg = SystemConfig::paper_defaults(Mbps(120.0));
//! let plan = Skyscraper::with_width(Width::capped(52).unwrap())
//!     .plan(&cfg)
//!     .unwrap();
//! let reqs = vec![Request { at: Minutes(3.0), video: VideoId(0) }];
//! let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
//! let out = sim
//!     .execute(RunConfig::new(&reqs).shards(1))
//!     .unwrap();
//! assert_eq!(out.fold.sessions, 1);
//! ```
//!
//! The resilience layer's supervised-run types (`PartialRun`,
//! `Recovered`) live in `sb-resilience`, which depends on this crate;
//! the facade crate's `skyscraper_broadcasting::prelude` re-exports
//! both surfaces together.

pub use crate::distribution::{
    route_catalog, DistributionConfig, RouteOutcome, SegmentWindow, SessionRecord,
};
pub use crate::engine::EngineStats;
pub use crate::run::{RunConfig, RunOutcome, RunParts};
pub use crate::shard::{merge_shard_runs, owning_shard, plan_shards, shard_of, ShardSlice};
pub use crate::sink::{CollectTraces, NullSink, SessionSummary, StreamingFold, TraceSink};
pub use crate::system::{Request, SystemReport, SystemSim};
pub use crate::trace::{ClientModel, SessionTrace};
