//! Static-vs-dynamic control under a popularity shift, measured.
//!
//! The paper's hybrid fixes its popular set offline. This study asks what
//! that costs when popularity drifts: a [`PopularityShift`] workload
//! rotates the Zipf ranking mid-run, so the titles the static split
//! broadcasts stop being the ones viewers ask for. Every post-shift
//! request for a new favourite then queues at the batching pool — whose
//! service time is a whole video — while the broadcast channels
//! periodically transmit titles nobody wants.
//!
//! [`shift_study`] runs the *same* request streams through
//! [`ControlledSim`] twice, once per [`ControlPolicy`], over a set of
//! seeds. Arrival times and patience draws are identical between the two
//! runs (the shift only relabels which title is asked for), so any
//! latency difference is attributable to reallocation alone. Per-seed
//! cells run in parallel on the [`Runner`]; each run's metrics snapshot
//! is [relabeled](Snapshot::relabel) with its `policy` and merged in seed
//! order, so the output is byte-identical for every thread count.

use serde::{Deserialize, Serialize};
use vod_units::Minutes;

use sb_control::{ControlConfig, ControlPolicy, ControlReport, ControlledSim};
use sb_core::error::{Result, SchemeError};
use sb_metrics::Snapshot;
use sb_sim::RunConfig;
use sb_workload::{Catalog, Patience, PoissonArrivals, PopularityShift, ZipfPopularity};

use crate::runner::Runner;

/// Parameters of the popularity-shift study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShiftStudyConfig {
    /// The controlled-server configuration shared by both policies.
    pub control: ControlConfig,
    /// Arrival rate, requests per minute.
    pub rate: f64,
    /// Workload horizon.
    pub horizon: Minutes,
    /// When the popularity ranking rotates.
    pub shift_at: Minutes,
    /// How far the ranking rotates (`new rank = (old + rotate) % titles`).
    pub rotate: usize,
    /// Mean viewer patience (exponential).
    pub mean_patience: Minutes,
    /// One simulation cell per seed; results are averaged over them.
    pub seeds: Vec<u64>,
}

impl ShiftStudyConfig {
    /// A saturating default: long patient queues against a small pool, so
    /// a stale hot set actually hurts. The rotation pushes the entire old
    /// head out of the broadcast slots.
    #[must_use]
    pub fn paper_defaults() -> Self {
        let control = ControlConfig::paper_defaults(vod_units::Mbps(300.0));
        Self {
            rotate: control.titles / 2,
            control,
            rate: 6.0,
            horizon: Minutes(600.0),
            shift_at: Minutes(150.0),
            mean_patience: Minutes(45.0),
            seeds: vec![11, 23, 47],
        }
    }
}

/// Both policies' reports for one workload seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShiftCell {
    /// Workload seed.
    pub seed: u64,
    /// The run with the hot set frozen at `{0..m}`.
    pub static_report: ControlReport,
    /// The run with online reallocation.
    pub dynamic_report: ControlReport,
}

/// The whole study: per-seed cells plus cross-seed latency means.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShiftStudy {
    /// The configuration that produced this study.
    pub config: ShiftStudyConfig,
    /// One cell per seed, in seed order.
    pub cells: Vec<ShiftCell>,
    /// Mean served-request latency under the static policy, averaged
    /// across seeds.
    pub static_mean_latency: Minutes,
    /// Same under the dynamic policy.
    pub dynamic_mean_latency: Minutes,
    /// Served requests (both halves), summed across seeds, per policy.
    pub static_served: usize,
    /// Served requests under the dynamic policy.
    pub dynamic_served: usize,
}

/// Run the study. Cells (seeds) run in parallel on `runner`; the report
/// and the merged snapshot are byte-identical for every thread count.
///
/// Returns an error when the control configuration cannot sustain the
/// broadcast slots or leaves no pool.
pub fn shift_study(cfg: &ShiftStudyConfig, runner: &Runner) -> Result<(ShiftStudy, Snapshot)> {
    let catalog = Catalog::paper_defaults(cfg.control.titles);
    let sim = ControlledSim::new(cfg.control, &catalog)?;
    let popularity = ZipfPopularity::paper(cfg.control.titles);

    let cells: Vec<(ShiftCell, [Snapshot; 2])> =
        runner.timed_map("control-shift", &cfg.seeds, |&seed| {
            let requests = PopularityShift {
                arrivals: PoissonArrivals::new(cfg.rate, seed)
                    .with_patience(Patience::Exponential(cfg.mean_patience)),
                shift_at: cfg.shift_at,
                rotate: cfg.rotate,
            }
            .generate(&popularity, cfg.horizon);

            // The `policy` label keeps static and dynamic runs distinct
            // after merging.
            let run = |policy: ControlPolicy| {
                let out = sim
                    .execute(policy, RunConfig::new(&requests))
                    .expect("the empty fault script is always valid");
                let label = policy.to_string();
                (out.summary, out.snapshot.relabel(&[("policy", &label)]))
            };
            let (static_report, static_snap) = run(ControlPolicy::Static);
            let (dynamic_report, dynamic_snap) = run(ControlPolicy::Dynamic);
            (
                ShiftCell {
                    seed,
                    static_report,
                    dynamic_report,
                },
                [static_snap, dynamic_snap],
            )
        });

    let mut out = Vec::with_capacity(cells.len());
    let mut snapshot = Snapshot::default();
    for (cell, snaps) in cells {
        for snap in &snaps {
            snapshot.merge(snap).map_err(|e| SchemeError::MetricMerge {
                what: e.to_string(),
            })?;
        }
        out.push(cell);
    }

    let n = out.len().max(1) as f64;
    let static_mean_latency = Minutes(
        out.iter()
            .map(|c| c.static_report.mean_latency.value())
            .sum::<f64>()
            / n,
    );
    let dynamic_mean_latency = Minutes(
        out.iter()
            .map(|c| c.dynamic_report.mean_latency.value())
            .sum::<f64>()
            / n,
    );
    let served = |r: &ControlReport| r.served_broadcast + r.served_pool;
    let static_served = out.iter().map(|c| served(&c.static_report)).sum();
    let dynamic_served = out.iter().map(|c| served(&c.dynamic_report)).sum();

    Ok((
        ShiftStudy {
            config: cfg.clone(),
            cells: out,
            static_mean_latency,
            dynamic_mean_latency,
            static_served,
            dynamic_served,
        },
        snapshot,
    ))
}

/// Plain-text rendering of a [`ShiftStudy`] for the CLI.
#[must_use]
pub fn render_shift_study(study: &ShiftStudy) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "popularity-shift study: rate {}/min, shift at {} min, rotate {}\n",
        study.config.rate,
        study.config.shift_at.value(),
        study.config.rotate
    ));
    out.push_str("seed   policy    served  defected  rejected  swaps  mean-lat  p95-lat\n");
    for c in &study.cells {
        for (name, r) in [("static", &c.static_report), ("dynamic", &c.dynamic_report)] {
            out.push_str(&format!(
                "{:<6} {:<8} {:>7} {:>9} {:>9} {:>6} {:>9.3} {:>8.3}\n",
                c.seed,
                name,
                r.served_broadcast + r.served_pool,
                r.defected,
                r.rejected,
                r.swaps_committed,
                r.mean_latency.value(),
                r.p95_latency.value(),
            ));
        }
    }
    out.push_str(&format!(
        "mean latency: static {:.3} min, dynamic {:.3} min\n",
        study.static_mean_latency.value(),
        study.dynamic_mean_latency.value()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> ShiftStudyConfig {
        ShiftStudyConfig {
            horizon: Minutes(400.0),
            seeds: vec![11, 23],
            ..ShiftStudyConfig::paper_defaults()
        }
    }

    #[test]
    fn dynamic_beats_static_under_a_shift() {
        let (study, snap) = shift_study(&quick_config(), &Runner::serial()).unwrap();
        assert!(
            study.dynamic_mean_latency < study.static_mean_latency,
            "dynamic {} vs static {}",
            study.dynamic_mean_latency,
            study.static_mean_latency
        );
        // The snapshot keeps the two policies apart.
        assert!(snap.counter_total("control_reallocations_total") > 0);
        let txt = render_shift_study(&study);
        assert!(txt.contains("dynamic"));
    }

    #[test]
    fn parallel_study_is_bit_identical_to_serial() {
        let cfg = quick_config();
        let (serial, s_snap) = shift_study(&cfg, &Runner::serial()).unwrap();
        let (par, p_snap) = shift_study(&cfg, &Runner::new(8)).unwrap();
        assert_eq!(serial, par);
        assert_eq!(s_snap, p_snap);
        let a = serde_json::to_string(&serial).unwrap();
        let b = serde_json::to_string(&par).unwrap();
        assert_eq!(a, b);
    }
}
