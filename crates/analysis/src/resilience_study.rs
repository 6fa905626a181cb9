//! The fault study: schemes under bursty loss and outages, and the
//! control plane's recovery from them.
//!
//! Two halves, one shared [`FaultScript`]:
//!
//! * **Client half** — for every scheme in the lineup, every loss
//!   condition (i.i.d. [`LossModel`] and a bursty [`GilbertElliott`]
//!   channel *with the same mean loss rate*), and every seed, a grid of
//!   client sessions is scheduled and replayed through
//!   [`sb_resilience::replay`] under each [`Degradation`] policy. The
//!   tally — stall, skipped and degraded minutes, truncated sessions —
//!   shows what each scheme's redundancy (frequent early fragments)
//!   actually buys under identical damage, and what burstiness costs at
//!   equal average loss.
//! * **Recovery half** — the same script drives [`ControlledSim`] under
//!   both [`ControlPolicy`] variants over a popularity-shift workload:
//!   a mid-run slot outage plus a drifting ranking. Static control eats
//!   both; dynamic control repairs in-flight sessions, redirects dark
//!   arrivals, and re-plans toward the new favourites.
//!
//! Cells run in parallel on the [`Runner`]; snapshots merge in grid
//! order, so the whole study is byte-identical for every thread count.

use serde::{Deserialize, Serialize};
use vod_units::{Mbps, Minutes};

use sb_control::{ControlConfig, ControlPolicy, ControlReport, ControlledSim};
use sb_core::config::SystemConfig;
use sb_core::error::{Result, SchemeError};
use sb_core::plan::VideoId;
use sb_metrics::{Registry, Snapshot};
use sb_resilience::{replay, Degradation, FaultScript, GilbertElliott, ScriptedLoss};
use sb_sim::{LossModel, LossProcess, RunConfig};
use sb_workload::{Catalog, Patience, PoissonArrivals, PopularityShift, ZipfPopularity};

use crate::lineup::SchemeId;
use crate::runner::Runner;
use crate::scenario_study::model_for;

/// How a loss condition realises its mean rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LossKind {
    /// Independent per-occurrence drops ([`LossModel`]).
    Iid,
    /// Gilbert–Elliott bursts at the same long-run rate
    /// ([`GilbertElliott::burst`]).
    Burst,
}

impl LossKind {
    /// Short label used in tables and metric labels.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            LossKind::Iid => "iid",
            LossKind::Burst => "burst",
        }
    }
}

/// Parameters of the fault study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceStudyConfig {
    /// Server bandwidth for the client half's plans.
    pub bandwidth: Mbps,
    /// Client arrivals are spread over `[0, horizon)`.
    pub horizon: Minutes,
    /// Client sessions per cell.
    pub samples: usize,
    /// Schemes under study.
    pub schemes: Vec<SchemeId>,
    /// Mean loss rates, each realised i.i.d. *and* bursty. Must lie in
    /// `(0, 1)` and leave the bursty gap length above one cycle.
    pub loss_rates: Vec<f64>,
    /// Mean burst length (in channel occurrences) of the bursty
    /// realisation.
    pub burst_len: f64,
    /// Degradation policies each session is replayed under.
    pub policies: Vec<Degradation>,
    /// The shared fault script: its outages damage both halves.
    pub script: FaultScript,
    /// One cell per seed on both halves.
    pub seeds: Vec<u64>,
    /// Controlled-server configuration for the recovery half.
    pub control: ControlConfig,
    /// Arrival rate (requests per minute) of the recovery workload.
    pub rate: f64,
    /// Recovery-workload horizon.
    pub control_horizon: Minutes,
    /// When the recovery workload's popularity ranking rotates.
    pub shift_at: Minutes,
    /// How far it rotates.
    pub rotate: usize,
    /// Mean viewer patience (exponential).
    pub mean_patience: Minutes,
}

impl ResilienceStudyConfig {
    /// A representative default: the paper's flagship width against the
    /// competing schemes, light-to-heavy loss, and one mid-run outage of
    /// broadcast channel 0 shared by both halves.
    #[must_use]
    pub fn paper_defaults() -> Self {
        let control = ControlConfig::paper_defaults(Mbps(300.0));
        Self {
            bandwidth: Mbps(320.0),
            horizon: Minutes(200.0),
            samples: 24,
            schemes: vec![
                SchemeId::Sb(Some(52)),
                SchemeId::PbA,
                SchemeId::PpbA,
                SchemeId::Staggered,
            ],
            loss_rates: vec![0.01, 0.05, 0.2],
            burst_len: 4.0,
            policies: Degradation::all().to_vec(),
            script: FaultScript {
                outages: vec![sb_resilience::ChannelOutage {
                    channel: 0,
                    start: Minutes(60.0),
                    duration: Minutes(25.0),
                }],
                ..FaultScript::none()
            },
            seeds: vec![11, 23, 47],
            rotate: control.titles / 2,
            control,
            rate: 6.0,
            control_horizon: Minutes(400.0),
            shift_at: Minutes(150.0),
            mean_patience: Minutes(45.0),
        }
    }

    /// Check every loss condition is constructible before any cell runs.
    ///
    /// # Errors
    /// The constructor error of the first invalid [`LossModel`] or
    /// [`GilbertElliott`] condition, or the script's own
    /// [`FaultScript::validate`] failure.
    pub fn validate(&self) -> Result<()> {
        self.script.validate()?;
        for &p in &self.loss_rates {
            LossModel::new(p, 0)?;
            let _ = GilbertElliott::burst(self.burst_len, gap_for(self.burst_len, p), 1.0, 0)?;
        }
        Ok(())
    }
}

/// Mean gap length giving a bursty channel of mean burst `b` the long-run
/// loss rate `p` (with certain loss inside bursts): `p = b / (b + gap)`.
#[must_use]
pub fn gap_for(burst_len: f64, p: f64) -> f64 {
    burst_len * (1.0 - p) / p
}

/// One degradation policy's tally over a cell's sessions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyTally {
    /// Policy label (`stall` / `skip` / `quality`).
    pub policy: String,
    /// Total stall minutes across the cell's sessions.
    pub stall_minutes: f64,
    /// Total skipped display minutes.
    pub skipped_minutes: f64,
    /// Total degraded-quality display minutes.
    pub degraded_minutes: f64,
    /// Sessions with at least one reception past the retry cap.
    pub truncated_sessions: usize,
}

/// One (scheme, loss kind, rate, seed) cell of the client half.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceCell {
    /// Scheme label.
    pub scheme: String,
    /// How the loss condition realises its rate.
    pub kind: LossKind,
    /// Mean loss rate of the condition.
    pub loss_rate: f64,
    /// Arrival-phase seed.
    pub seed: u64,
    /// Sessions scheduled (the arrival grid size).
    pub sessions: usize,
    /// Mean fault-free startup latency over the cell.
    pub mean_startup_latency: f64,
    /// One tally per configured degradation policy, in config order.
    pub tallies: Vec<PolicyTally>,
}

/// Both control policies' reports for one recovery-workload seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryCell {
    /// Workload seed.
    pub seed: u64,
    /// The run with the hot set frozen.
    pub static_report: ControlReport,
    /// The run with online reallocation.
    pub dynamic_report: ControlReport,
}

/// The whole fault study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceStudy {
    /// The configuration that produced this study.
    pub config: ResilienceStudyConfig,
    /// Client-half cells in grid order (scheme × kind × rate × seed);
    /// infeasible (scheme, bandwidth) cells are omitted.
    pub cells: Vec<ResilienceCell>,
    /// Recovery-half cells in seed order.
    pub recovery: Vec<RecoveryCell>,
    /// Mean served latency under static control, across seeds.
    pub static_mean_latency: Minutes,
    /// Same under dynamic control.
    pub dynamic_mean_latency: Minutes,
}

/// Deterministic arrival-phase fraction in `(0, 1)` from a seed
/// (splitmix-style scramble; the same rule [`crate::crosscheck`] uses).
fn phase_of(seed: u64) -> f64 {
    if seed == 0 {
        return 0.31;
    }
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// One grid point of the client half.
type GridPoint = (SchemeId, LossKind, f64, u64);

fn run_cell(cfg: &ResilienceStudyConfig, point: &GridPoint) -> Option<(ResilienceCell, Snapshot)> {
    let &(id, kind, rate, seed) = point;
    let sys = SystemConfig::paper_defaults(cfg.bandwidth);
    let plan = id.build().plan(&sys).ok()?;
    match kind {
        LossKind::Iid => {
            let base = LossModel::new(rate, seed).expect("config validated");
            run_sessions(cfg, point, &plan, &sys, &base)
        }
        LossKind::Burst => {
            let base =
                GilbertElliott::burst(cfg.burst_len, gap_for(cfg.burst_len, rate), 1.0, seed)
                    .expect("config validated");
            run_sessions(cfg, point, &plan, &sys, &base)
        }
    }
}

fn run_sessions<L: LossProcess>(
    cfg: &ResilienceStudyConfig,
    point: &GridPoint,
    plan: &sb_core::plan::ChannelPlan,
    sys: &SystemConfig,
    base: &L,
) -> Option<(ResilienceCell, Snapshot)> {
    let &(id, kind, rate, seed) = point;
    let losses = ScriptedLoss::compile(plan, &cfg.script, base);
    let model = model_for(id);
    let index = plan.index();
    let phase = phase_of(seed);

    let mut reg = Registry::new();

    let mut tallies: Vec<PolicyTally> = cfg
        .policies
        .iter()
        .map(|p| PolicyTally {
            policy: p.label().to_string(),
            stall_minutes: 0.0,
            skipped_minutes: 0.0,
            degraded_minutes: 0.0,
            truncated_sessions: 0,
        })
        .collect();
    let mut latency_sum = 0.0f64;
    let mut sessions = 0usize;

    for i in 0..cfg.samples {
        let arrival = Minutes(cfg.horizon.value() * (i as f64 + phase) / cfg.samples as f64);
        let trace = model
            .session_indexed(&index, VideoId(0), arrival, sys.display_rate)
            .ok()?;
        sessions += 1;
        latency_sum += trace.startup_latency().value();
        for (p, tally) in cfg.policies.iter().zip(tallies.iter_mut()) {
            let rep = replay(plan, &trace, &losses, *p, &mut reg);
            tally.stall_minutes += rep.total_stall().value();
            tally.skipped_minutes += rep.skipped_minutes().value();
            tally.degraded_minutes += rep.degraded_minutes().value();
            tally.truncated_sessions += usize::from(!rep.truncated.is_empty());
        }
    }

    // The `scheme` and `kind` labels keep cells distinct after the merge.
    let scheme = id.label();
    let snapshot = reg
        .snapshot()
        .relabel(&[("scheme", &scheme), ("kind", kind.label())]);
    Some((
        ResilienceCell {
            scheme,
            kind,
            loss_rate: rate,
            seed,
            sessions,
            mean_startup_latency: latency_sum / sessions.max(1) as f64,
            tallies,
        },
        snapshot,
    ))
}

/// Run the study. Both halves' cells run in parallel on `runner`; the
/// study and the merged snapshot are byte-identical for every thread
/// count.
///
/// # Errors
/// An invalid configuration ([`ResilienceStudyConfig::validate`]), a
/// control configuration the bandwidth cannot sustain, or a script whose
/// outages name slots the control half does not have.
pub fn resilience_study(
    cfg: &ResilienceStudyConfig,
    runner: &Runner,
) -> Result<(ResilienceStudy, Snapshot)> {
    cfg.validate()?;

    let mut grid: Vec<GridPoint> = Vec::new();
    for &id in &cfg.schemes {
        for kind in [LossKind::Iid, LossKind::Burst] {
            for &rate in &cfg.loss_rates {
                for &seed in &cfg.seeds {
                    grid.push((id, kind, rate, seed));
                }
            }
        }
    }
    let cells: Vec<Option<(ResilienceCell, Snapshot)>> =
        runner.timed_map("resilience-grid", &grid, |p| run_cell(cfg, p));

    let catalog = Catalog::paper_defaults(cfg.control.titles);
    let sim = ControlledSim::new(cfg.control, &catalog)?
        .with_faults(cfg.script.clone(), Degradation::Stall)?;
    let popularity = ZipfPopularity::paper(cfg.control.titles);
    let recovery: Vec<Result<(RecoveryCell, [Snapshot; 2])>> =
        runner.timed_map("resilience-recovery", &cfg.seeds, |&seed| {
            let requests = PopularityShift {
                arrivals: PoissonArrivals::new(cfg.rate, seed)
                    .with_patience(Patience::Exponential(cfg.mean_patience)),
                shift_at: cfg.shift_at,
                rotate: cfg.rotate,
            }
            .generate(&popularity, cfg.control_horizon);
            let run = |policy: ControlPolicy| {
                sim.execute(policy, RunConfig::new(&requests)).map(|o| {
                    let label = policy.to_string();
                    (o.summary, o.snapshot.relabel(&[("policy", &label)]))
                })
            };
            let (static_report, static_snap) = run(ControlPolicy::Static)?;
            let (dynamic_report, dynamic_snap) = run(ControlPolicy::Dynamic)?;
            Ok((
                RecoveryCell {
                    seed,
                    static_report,
                    dynamic_report,
                },
                [static_snap, dynamic_snap],
            ))
        });

    let mut snapshot = Snapshot::default();
    let mut out_cells = Vec::new();
    for (cell, snap) in cells.into_iter().flatten() {
        snapshot
            .merge(&snap)
            .map_err(|e| SchemeError::MetricMerge {
                what: e.to_string(),
            })?;
        out_cells.push(cell);
    }
    let mut out_recovery = Vec::new();
    for r in recovery {
        let (cell, snaps) = r?;
        for snap in &snaps {
            snapshot.merge(snap).map_err(|e| SchemeError::MetricMerge {
                what: e.to_string(),
            })?;
        }
        out_recovery.push(cell);
    }

    let n = out_recovery.len().max(1) as f64;
    let static_mean_latency = Minutes(
        out_recovery
            .iter()
            .map(|c| c.static_report.mean_latency.value())
            .sum::<f64>()
            / n,
    );
    let dynamic_mean_latency = Minutes(
        out_recovery
            .iter()
            .map(|c| c.dynamic_report.mean_latency.value())
            .sum::<f64>()
            / n,
    );

    Ok((
        ResilienceStudy {
            config: cfg.clone(),
            cells: out_cells,
            recovery: out_recovery,
            static_mean_latency,
            dynamic_mean_latency,
        },
        snapshot,
    ))
}

/// Plain-text rendering of a [`ResilienceStudy`] for the CLI: the client
/// half aggregated across seeds, then the recovery half per seed.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn render_resilience_study(study: &ResilienceStudy) -> String {
    let cfg = &study.config;
    let mut out = String::new();
    out.push_str(&format!(
        "fault study: {} Mb/s, {} sessions/cell over {} min, burst len {}, {} outage(s)\n",
        cfg.bandwidth.value(),
        cfg.samples,
        cfg.horizon.value(),
        cfg.burst_len,
        cfg.script.outages.len(),
    ));
    out.push_str(
        "scheme     loss   rate   policy   stall-min  skipped  degraded  truncated  sessions\n",
    );
    // Aggregate cells over seeds, preserving grid order.
    let mut keys: Vec<(String, LossKind, String)> = Vec::new();
    for c in &study.cells {
        let key = (c.scheme.clone(), c.kind, format!("{}", c.loss_rate));
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    for (scheme, kind, rate) in &keys {
        let group: Vec<&ResilienceCell> = study
            .cells
            .iter()
            .filter(|c| {
                c.scheme == *scheme && c.kind == *kind && format!("{}", c.loss_rate) == *rate
            })
            .collect();
        let sessions: usize = group.iter().map(|c| c.sessions).sum();
        for (pi, policy) in cfg.policies.iter().enumerate() {
            let sum = |f: fn(&PolicyTally) -> f64| -> f64 {
                group.iter().map(|c| f(&c.tallies[pi])).sum()
            };
            let truncated: usize = group.iter().map(|c| c.tallies[pi].truncated_sessions).sum();
            out.push_str(&format!(
                "{:<10} {:<6} {:<6} {:<8} {:>9.2} {:>8.2} {:>9.2} {:>10} {:>9}\n",
                scheme,
                kind.label(),
                rate,
                policy.label(),
                sum(|t| t.stall_minutes),
                sum(|t| t.skipped_minutes),
                sum(|t| t.degraded_minutes),
                truncated,
                sessions,
            ));
        }
    }
    out.push_str("\nrecovery under the same script (+ popularity shift):\n");
    out.push_str("seed   policy    served  defected  redirected  repaired  retries  mean-lat\n");
    for c in &study.recovery {
        for (name, r) in [("static", &c.static_report), ("dynamic", &c.dynamic_report)] {
            out.push_str(&format!(
                "{:<6} {:<8} {:>7} {:>9} {:>11} {:>9} {:>8} {:>9.3}\n",
                c.seed,
                name,
                r.served_broadcast + r.served_pool,
                r.defected,
                r.resilience.redirected,
                r.resilience.repaired_sessions,
                r.resilience.retries,
                r.mean_latency.value(),
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

    fn quick_config() -> ResilienceStudyConfig {
        ResilienceStudyConfig {
            samples: 8,
            loss_rates: vec![0.05],
            seeds: vec![11, 23],
            control_horizon: Minutes(300.0),
            shift_at: Minutes(120.0),
            ..ResilienceStudyConfig::paper_defaults()
        }
    }

    #[test]
    fn study_runs_and_damage_grows_with_burstiness_kept_honest() {
        let (study, snap) = resilience_study(&quick_config(), &Runner::serial()).unwrap();
        assert!(!study.cells.is_empty());
        assert_eq!(study.recovery.len(), 2);
        // The script's outage actually reached the control half.
        assert!(study
            .recovery
            .iter()
            .all(|c| c.static_report.resilience.outages == 1));
        // Every configured policy shows up in every cell.
        for c in &study.cells {
            assert_eq!(c.tallies.len(), 3);
        }
        let txt = render_resilience_study(&study);
        assert!(txt.contains("recovery"));
        assert!(snap.counter_total("resilience_outages_total") > 0);
    }

    #[test]
    fn parallel_study_is_bit_identical_to_serial() {
        let cfg = quick_config();
        let (serial, s_snap) = resilience_study(&cfg, &Runner::serial()).unwrap();
        let (par, p_snap) = resilience_study(&cfg, &Runner::new(4)).unwrap();
        assert_eq!(serial, par);
        assert_eq!(s_snap, p_snap);
        let a = serde_json::to_string(&serial).unwrap();
        let b = serde_json::to_string(&par).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bad_loss_rates_are_rejected_up_front() {
        let cfg = ResilienceStudyConfig {
            loss_rates: vec![1.5],
            ..ResilienceStudyConfig::paper_defaults()
        };
        assert!(resilience_study(&cfg, &Runner::serial()).is_err());
    }
}
