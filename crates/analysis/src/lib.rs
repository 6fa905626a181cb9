//! # Evaluation machinery for the Skyscraper Broadcasting reproduction
//!
//! Everything §5 of the paper plots or tabulates, regenerated:
//!
//! | module | reproduces |
//! |--------|------------|
//! | [`lineup`] | the scheme lineup of §5 (SB at the studied widths, PB:a/b, PPB:a/b, staggered) |
//! | [`sweep`] | the bandwidth sweep 100–600 Mb/s underlying Figures 5–8 |
//! | [`figures`] | Figure 5 (K, P, α), Figure 6 (disk bandwidth), Figure 7 (latency), Figure 8 (storage), Figures 1–4 (buffer-transition profiles) |
//! | [`tables`] | Table 1 (performance formulas, evaluated) and Table 2 (design parameters) |
//! | [`render`] | plain-text rendering of figures/tables plus JSON export |
//! | [`crosscheck`] | analytic-vs-simulated comparison for `EXPERIMENTS.md` |
//! | [`frontier`] | the Pareto frontier in latency × client-I/O × buffer over a bandwidth × catalog grid, analytic and simulated |
//! | [`ablation`] | beyond-paper studies: series shape and width sensitivity |
//! | [`hybrid_study`] | §1's hybrid-vs-pure-batching throughput argument, measured |
//! | [`control_study`] | static-vs-dynamic channel allocation under a popularity shift |
//! | [`resilience_study`] | schemes under bursty loss/outages and the control plane's recovery |
//! | [`recovery_study`] | checkpoint-cadence trade under the crash-recovery supervisor: checkpoints vs replayed sessions, byte-identity re-verified per cell |
//! | [`scale_study`] | sharded scale-out: per-shard agenda footprint and sim-time rates vs `S` |
//! | [`scenario_study`] | metropolitan scenarios: per-region-class SB vs baselines, flash crowds, correlated outages, diurnal × density |
//! | [`mod@distribution_study`] | the distributed tier: placement policies × peer assist priced against the Viennot source-once bound |
//! | [`study`] | the [`study::Study`] trait and registry: every paper table and figure and every study, one `sbcast` subcommand each |
//! | [`runner`] | [`runner::Experiment`] descriptors, the deterministic parallel [`runner::Runner`], and [`runner::RunManifest`] timings |
//!
//! `sbcast <name>` runs any registered study: `sbcast table1`, `sbcast
//! fig7` and their siblings print one paper artifact each, and `--json`
//! writes its data.

#![forbid(unsafe_code)]

pub mod ablation;
pub mod control_study;
pub mod crosscheck;
pub mod distribution_study;
pub mod figures;
pub mod frontier;
pub mod hybrid_study;
pub mod lineup;
pub mod recovery_study;
pub mod render;
pub mod resilience_study;
pub mod runner;
pub mod scale_study;
pub mod scenario_study;
pub mod study;
pub mod sweep;
pub mod tables;

pub use distribution_study::{
    distribution_study, render_distribution, DistributionReport, DistributionStudyConfig,
};
pub use figures::Figure;
pub use frontier::{frontier_report, render_frontier, FrontierConfig, FrontierReport};
pub use lineup::{paper_lineup, SchemeId};
pub use runner::{Experiment, RunManifest, Runner};
pub use study::{find, registry, Study, StudyCtx, StudyOpts, StudyOutput};
pub use sweep::SweepRow;
