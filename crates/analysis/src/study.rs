//! The [`Study`] trait and registry: one dispatch surface for every
//! study this crate ships, the paper's own tables and figures included.
//!
//! `sbcast <name>` is the only way to run a study. A [`Study`] owns
//! everything one run needs behind four methods:
//!
//! * [`Study::name`] — the subcommand spelling (`table1`, `fig7`,
//!   `sweep`, `frontier`, …),
//! * [`Study::artifact`] — the default `BENCH_*.json` path, when the
//!   study emits one unconditionally,
//! * [`Study::sharded`] — whether `--shards > 1` is meaningful,
//! * [`Study::run`] — flags in ([`StudyCtx`]), results out
//!   ([`StudyOutput`]).
//!
//! The CLI resolves a subcommand with [`find`], runs it, prints
//! [`StudyOutput::rendered`] to stdout and writes
//! [`StudyOutput::report_json`] to the artifact path (or `--json`).
//! Both are byte-identical for every `--threads` and `--shards`.
//! The wall-clock rate comes from [`StudyOutput::sessions`] and goes to
//! stderr only.
//!
//! The paper's artifacts — `table1`, `table2`, `fig1_4`, `fig5`–`fig8`,
//! `crosscheck`, `ablation` and `landscape` — are fixed evaluations:
//! they read no flags of their own, write no default artifact and are
//! not sharded.
//!
//! Two subcommands keep a non-study half outside the registry: `hybrid`
//! without `--rates` (the single-server report) and `recovery --mode
//! run` (one supervised run under an explicit chaos script). Their study
//! halves (`--rates`, `--mode sweep`) dispatch through here like
//! everything else.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use sb_batching::BatchPolicy;
use sb_control::ControlConfig;
use sb_core::custom::{greedy_max_series, PhaseBudget};
use sb_core::series::{series, Width};
use sb_metrics::Snapshot;
use sb_resilience::{ChannelOutage, FaultScript};
use sb_workload::{PlacementPolicy, ScenarioPreset};
use vod_units::{Mbps, Minutes};

use crate::ablation::{series_ablation_with, width_ablation};
use crate::control_study::{render_shift_study, shift_study, ShiftStudyConfig};
use crate::crosscheck::crosscheck_lineup_with;
use crate::distribution_study::{distribution_study, render_distribution, DistributionStudyConfig};
use crate::figures::Figure;
use crate::frontier::{frontier_report, render_frontier, FrontierConfig};
use crate::lineup::{extended_lineup, landscape_lineup, paper_lineup, schemes_from, SchemeId};
use crate::recovery_study::{recovery_study, render_recovery, RecoveryConfig};
use crate::render::{
    render_ablation, render_crosscheck, render_evaluations, render_figure, render_formulas,
    render_transition_demos,
};
use crate::resilience_study::{render_resilience_study, resilience_study, ResilienceStudyConfig};
use crate::runner::{bandwidth_range, run_experiment, Experiment, Runner};
use crate::scale_study::{render_scale, scale_study, ScaleConfig};
use crate::scenario_study::{render_scenario, scenario_study, ScenarioStudyConfig};
use crate::sweep::{paper_sweep_with, SweepRow};
use crate::tables::{evaluate_tables_with, table1_formulas, table2_rules};
use crate::{figures, hybrid_study};

/// The `--key value` flag map of one `sbcast` invocation, which every
/// command and study parses its configuration from.
///
/// Absent keys take the caller's default; a value that does not parse
/// is `--{key}: bad number `{v}`` or `--{key}: bad integer `{v}``.
/// Every lookup records its key, so the front end can reject the flags
/// no command read ([`StudyOpts::unread`]).
#[derive(Debug, Clone, Default)]
pub struct StudyOpts(BTreeMap<String, String>, RefCell<BTreeSet<String>>);

impl StudyOpts {
    /// Build from any `(key, value)` pairs (keys without the `--`).
    pub fn from_pairs<I, K, V>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (K, V)>,
        K: Into<String>,
        V: Into<String>,
    {
        Self(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
            RefCell::default(),
        )
    }

    /// The raw value of `--{key}`, if given.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.1.borrow_mut().insert(key.to_string());
        self.0.get(key).map(String::as_str)
    }

    /// The first given key (in sorted order) that no lookup has asked
    /// for — a flag the command would otherwise silently ignore.
    #[must_use]
    pub fn unread(&self) -> Option<String> {
        let read = self.1.borrow();
        self.0.keys().find(|k| !read.contains(*k)).cloned()
    }

    /// `--{key}` as an `f64`, or `default` when absent.
    ///
    /// # Errors
    /// `--{key}: bad number `{v}`` when the value does not parse.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad number `{v}`")),
        }
    }

    /// `--{key}` as a positive, finite `f64` — a rate, horizon, patience
    /// or boost — or `default` when absent.
    ///
    /// # Errors
    /// `--{key}: bad number `{v}`` when the value does not parse, and
    /// `--{key}: must be positive and finite, got `{v}`` when it is zero,
    /// negative, NaN or infinite.
    pub fn get_positive(&self, key: &str, default: f64) -> Result<f64, String> {
        positive(key, self.get_f64(key, default)?)
    }

    /// `--{key}` as a `usize`, or `default` when absent.
    ///
    /// # Errors
    /// `--{key}: bad integer `{v}`` when the value does not parse.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        self.get_int(key, default)
    }

    /// `--{key}` as a `u64` (a seed), or `default` when absent.
    ///
    /// # Errors
    /// `--{key}: bad integer `{v}`` when the value does not parse.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        self.get_int(key, default)
    }

    fn get_int<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad integer `{v}`")),
        }
    }

    /// `--{key}` as a string, or `default` when absent.
    #[must_use]
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.get(key).unwrap_or(default).to_string()
    }
}

/// Everything a [`Study`] receives from its caller: the flag map plus
/// the execution knobs the common `--threads` / `--shards` parser
/// already validated. A study that takes a workload seed reads `--seed`
/// from `opts` itself, so the others refuse it as an unread flag.
pub struct StudyCtx<'a> {
    /// Study-specific flags (never the execution knobs).
    pub opts: &'a StudyOpts,
    /// Shard count for sharded studies (validated ≥ 1; 1 otherwise).
    pub shards: usize,
    /// The worker pool.
    pub runner: &'a Runner,
}

/// What a [`Study`] produced. Everything deterministic lives here;
/// wall-clock is the caller's business.
#[derive(Debug)]
pub struct StudyOutput {
    /// The plain-text report, exactly what goes to stdout.
    pub rendered: String,
    /// The structured report as pretty JSON — the bytes of the
    /// `BENCH_*.json` artifact (or of `--json` for artifact-less
    /// studies).
    pub report_json: String,
    /// The metrics snapshot, for studies instrumented with one
    /// (`--metrics <path>` writes it).
    pub metrics: Option<Snapshot>,
    /// Sessions the study simulated, denominating the stderr wall-clock
    /// rate (0 when a rate would be meaningless).
    pub sessions: usize,
}

impl StudyOutput {
    /// Package a report: render text + serialize JSON in one step.
    fn of<T: serde::Serialize>(rendered: String, report: &T) -> Result<Self, String> {
        Ok(Self {
            rendered,
            report_json: serde_json::to_string_pretty(report).map_err(|e| e.to_string())?,
            metrics: None,
            sessions: 0,
        })
    }

    /// Attach a metrics snapshot.
    fn with_metrics(mut self, snapshot: Snapshot) -> Self {
        self.metrics = Some(snapshot);
        self
    }

    /// Attach the wall-clock denominator.
    fn with_rates(mut self, sessions: usize) -> Self {
        self.sessions = sessions;
        self
    }
}

/// One study: a named, self-describing flag-parse / run / render unit
/// every front end (CLI subcommand, bench binary) dispatches through.
pub trait Study: Sync {
    /// The subcommand spelling (`sweep`, `scale`, `distribution`, …).
    fn name(&self) -> &'static str;

    /// The default artifact path when the study always writes one
    /// (`BENCH_*.json`); `None` means JSON only goes where `--json`
    /// points.
    fn artifact(&self) -> Option<&'static str> {
        None
    }

    /// Whether `--shards > 1` is meaningful for this study. Non-sharded
    /// studies reject the flag instead of silently ignoring it.
    fn sharded(&self) -> bool {
        false
    }

    /// Parse flags from the context and run.
    ///
    /// # Errors
    /// A CLI-facing message: a flag that does not parse, an out-of-range
    /// configuration, or a study failure.
    fn run(&self, ctx: &StudyCtx<'_>) -> Result<StudyOutput, String>;
}

/// `v` when it is positive and finite, else the typed `--{key}` error
/// [`StudyOpts::get_positive`] documents.
fn positive(key: &str, v: f64) -> Result<f64, String> {
    if v > 0.0 && v.is_finite() {
        Ok(v)
    } else {
        Err(format!("--{key}: must be positive and finite, got `{v}`"))
    }
}

/// Parse a comma-separated list, with the CLI's `bad {what} `{t}``
/// message on the first token that does not parse.
fn parse_csv<T: std::str::FromStr>(spec: &str, what: &str) -> Result<Vec<T>, String> {
    spec.split(',')
        .map(|t| t.trim().parse().map_err(|_| format!("bad {what} `{t}`")))
        .collect()
}

/// Resolve `--profile paper|smoke` into a config via the two
/// constructors, with the shared error message.
fn parse_profile<T>(
    opts: &StudyOpts,
    paper: impl FnOnce() -> T,
    smoke: impl FnOnce() -> T,
) -> Result<T, String> {
    match opts.get_str("profile", "paper").as_str() {
        "paper" => Ok(paper()),
        "smoke" => Ok(smoke()),
        other => Err(format!(
            "--profile: expected `smoke` or `paper`, got `{other}`"
        )),
    }
}

/// Parse the admission-backoff flags shared by `control`, `resilience`
/// and `recovery --mode run`: `--retry <base-minutes>` enables deferral;
/// `--retry-factor` (default 2) and `--retry-attempts` (default 5) shape
/// the exponential schedule.
///
/// # Errors
/// `--retry: bad number `{v}`` (and the usual messages for the other two
/// flags), or the backoff constructor's own validation error.
pub fn parse_backoff(opts: &StudyOpts) -> Result<Option<sb_control::Backoff>, String> {
    let Some(base) = opts.get("retry") else {
        return Ok(None);
    };
    let base: f64 = base
        .parse()
        .map_err(|_| format!("--retry: bad number `{base}`"))?;
    let factor = opts.get_f64("retry-factor", 2.0)?;
    let attempts = opts.get_usize("retry-attempts", 5)? as u32;
    sb_control::Backoff::new(Minutes(base), factor, attempts)
        .map(Some)
        .map_err(|e| e.to_string())
}

/// The bandwidth sweep behind Figures 6/7/8 plus the analytic-vs-simulated
/// crosscheck.
struct SweepStudy;

impl Study for SweepStudy {
    fn name(&self) -> &'static str {
        "sweep"
    }

    fn run(&self, ctx: &StudyCtx<'_>) -> Result<StudyOutput, String> {
        let o = ctx.opts;
        let from = o.get_f64("from", 100.0)?;
        let to = o.get_f64("to", 600.0)?;
        let step = o.get_f64("step", 20.0)?;
        let samples = o.get_usize("samples", 24)?;
        let seed = o.get_u64("seed", 0)?;
        let ids = schemes_from(&o.get_str("scheme", "all"))?;
        let bandwidths = bandwidth_range(from, to, step)
            .ok_or_else(|| format!("bad sweep range: from {from} to {to} step {step}"))?;
        let exp = Experiment::new("sweep", ids.clone(), bandwidths).with_seed(seed);
        let report = run_experiment(&exp, Minutes(15.0), samples, ctx.runner);
        let mut rendered = String::new();
        for (fig, name) in [
            (figures::figure7(&report.rows, &ids), "latency"),
            (figures::figure6(&report.rows, &ids), "disk bandwidth"),
            (figures::figure8(&report.rows, &ids), "storage"),
        ] {
            rendered.push_str(&format!("--- {name} ---\n"));
            rendered.push_str(&render_figure(&fig));
            rendered.push('\n');
        }
        if !report.checks.is_empty() {
            let worst_latency = report
                .checks
                .iter()
                .map(crate::crosscheck::CrossCheck::latency_ratio)
                .fold(0.0f64, f64::max);
            let worst_buffer = report
                .checks
                .iter()
                .map(crate::crosscheck::CrossCheck::buffer_ratio)
                .fold(0.0f64, f64::max);
            rendered.push_str(&format!(
                "--- crosscheck: {} (scheme, bandwidth) points × {samples} simulated arrivals (seed {seed}) ---\n",
                report.checks.len()
            ));
            rendered.push_str(&format!(
                "worst simulated/analytic latency ratio: {worst_latency:.4} (must be <= 1)\n"
            ));
            rendered.push_str(&format!(
                "worst simulated/analytic buffer  ratio: {worst_buffer:.4} (must be <= 1)\n"
            ));
        }
        StudyOutput::of(rendered, &report)
    }
}

/// `hybrid --rates …`: hybrid vs pure batching over a list of arrival
/// rates (the flag-less single-server report stays in the CLI).
struct HybridStudy;

impl Study for HybridStudy {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn run(&self, ctx: &StudyCtx<'_>) -> Result<StudyOutput, String> {
        let o = ctx.opts;
        let spec = o.get("rates").ok_or_else(|| {
            "hybrid study mode needs --rates r1,r2,… (run without --rates for the single-server report)"
                .to_string()
        })?;
        let rates = parse_csv(spec, "rate")?
            .into_iter()
            .map(|r| positive("rates", r))
            .collect::<Result<Vec<f64>, _>>()?;
        let b = o.get_f64("bandwidth", 600.0)?;
        let titles = o.get_usize("titles", 60)?;
        let popular = o.get_usize("popular", 10)?;
        let horizon = o.get_positive("horizon", 600.0)?;
        let width = o.get_usize("width", 52)? as u64;
        let cfg = hybrid_study::StudyConfig {
            titles,
            popular,
            bandwidth: Mbps(b),
            width,
            broadcast_fraction: 0.5,
            horizon: Minutes(horizon),
            mean_patience: Minutes(8.0),
            seed: o.get_u64("seed", 42)?,
        };
        let points = hybrid_study::throughput_study_with(cfg, &rates, ctx.runner);
        let mut rendered = format!(
            "hybrid vs pure batching: {titles} titles, {popular} broadcast, B = {b} Mb/s\n"
        );
        rendered.push_str(&format!(
            "{:>8} {:>9} {:>11} {:>12} {:>13} {:>14}\n",
            "rate/min", "requests", "pure served", "pure renege", "hybrid served", "hybrid renege"
        ));
        for p in &points {
            rendered.push_str(&format!(
                "{:>8.1} {:>9} {:>11} {:>11.1}% {:>13} {:>13.1}%\n",
                p.rate_per_minute,
                p.requests,
                p.pure_served,
                p.pure_renege_rate * 100.0,
                p.hybrid_served,
                p.hybrid_renege_rate * 100.0
            ));
        }
        if let Some(first) = points.first() {
            rendered.push_str(&format!(
                "broadcast worst latency (rate-independent): {:.3}\n",
                first.broadcast_worst_latency
            ));
        }
        StudyOutput::of(rendered, &points)
    }
}

/// Static vs dynamic channel control under a popularity shift.
struct ControlStudy;

impl Study for ControlStudy {
    fn name(&self) -> &'static str {
        "control"
    }

    fn run(&self, ctx: &StudyCtx<'_>) -> Result<StudyOutput, String> {
        let o = ctx.opts;
        let titles = o.get_usize("titles", 40)?;
        let control = ControlConfig {
            titles,
            hot_slots: o.get_usize("popular", 8)?,
            total_bandwidth: Mbps(o.get_f64("bandwidth", 300.0)?),
            broadcast_fraction: o.get_f64("fraction", 0.6)?,
            width: Width::capped_lossy(o.get_usize("width", 52)? as u64),
            batch: BatchPolicy::Mql,
            tick: Minutes(o.get_f64("tick", 15.0)?),
            half_life: Minutes(o.get_f64("half-life", 45.0)?),
            hysteresis: o.get_f64("hysteresis", 0.1)?,
            admission_ceiling: o.get_f64("ceiling", 3.0)?,
            admission_retry: parse_backoff(o)?,
        };
        let cfg = ShiftStudyConfig {
            control,
            rate: o.get_positive("rate", 6.0)?,
            horizon: Minutes(o.get_positive("horizon", 600.0)?),
            shift_at: Minutes(o.get_f64("shift-at", 150.0)?),
            rotate: o.get_usize("rotate", titles / 2)?,
            mean_patience: Minutes(o.get_positive("patience", 45.0)?),
            seeds: parse_csv(&o.get_str("seeds", "11,23,47"), "seed")?,
        };
        let (study, snapshot) = shift_study(&cfg, ctx.runner).map_err(|e| e.to_string())?;
        Ok(StudyOutput::of(render_shift_study(&study), &study)?.with_metrics(snapshot))
    }
}

/// The fault study: schemes under bursty loss/outages and the control
/// plane's recovery.
struct ResilienceStudy;

impl Study for ResilienceStudy {
    fn name(&self) -> &'static str {
        "resilience"
    }

    fn run(&self, ctx: &StudyCtx<'_>) -> Result<StudyOutput, String> {
        let o = ctx.opts;
        let mut cfg = ResilienceStudyConfig::paper_defaults();
        cfg.bandwidth = Mbps(o.get_f64("bandwidth", 320.0)?);
        cfg.horizon = Minutes(o.get_positive("horizon", 200.0)?);
        cfg.samples = o.get_usize("samples", 24)?;
        cfg.burst_len = o.get_f64("burst-len", 4.0)?;
        if let Some(spec) = o.get("loss-rates") {
            cfg.loss_rates = parse_csv(spec, "loss rate")?;
        }
        cfg.seeds = parse_csv(&o.get_str("seeds", "11,23,47"), "seed")?;
        cfg.script = FaultScript {
            outages: vec![ChannelOutage {
                channel: o.get_usize("outage-channel", 0)?,
                start: Minutes(o.get_f64("outage-start", 60.0)?),
                duration: Minutes(o.get_f64("outage-duration", 25.0)?),
            }],
            ..FaultScript::none()
        };
        cfg.rate = o.get_positive("rate", 6.0)?;
        cfg.mean_patience = Minutes(o.get_positive("patience", 45.0)?);
        cfg.control.admission_retry = parse_backoff(o)?;
        let (study, snapshot) = resilience_study(&cfg, ctx.runner).map_err(|e| e.to_string())?;
        Ok(StudyOutput::of(render_resilience_study(&study), &study)?.with_metrics(snapshot))
    }
}

/// Sharded scale-out: per-shard agenda footprint and sim-time rates.
struct ScaleStudy;

impl Study for ScaleStudy {
    fn name(&self) -> &'static str {
        "scale"
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("BENCH_scale.json")
    }

    fn sharded(&self) -> bool {
        true
    }

    fn run(&self, ctx: &StudyCtx<'_>) -> Result<StudyOutput, String> {
        let o = ctx.opts;
        let mut cfg = ScaleConfig::paper_defaults();
        cfg.bandwidth = Mbps(o.get_f64("bandwidth", cfg.bandwidth.value())?);
        cfg.sessions = o.get_usize("sessions", cfg.sessions)?;
        cfg.horizon = Minutes(o.get_positive("horizon", cfg.horizon.value())?);
        cfg.videos = o.get_usize("videos", cfg.videos)?;
        cfg.seed = o.get_u64("seed", cfg.seed)?;
        let (report, snapshot) =
            scale_study(&cfg, ctx.shards, ctx.runner).map_err(|e| e.to_string())?;
        // One pass per grid cell plus the flagship: the wall-rate
        // denominator counts what actually streamed.
        let passes = report.cells.len() + 1;
        Ok(StudyOutput::of(render_scale(&report), &report)?
            .with_metrics(snapshot)
            .with_rates(report.total_sessions * passes))
    }
}

/// The metropolitan scenario pack: regional SB vs baselines, flash
/// crowds, correlated outages.
struct ScenarioStudy;

impl Study for ScenarioStudy {
    fn name(&self) -> &'static str {
        "scenario"
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("BENCH_scenario.json")
    }

    fn sharded(&self) -> bool {
        true
    }

    fn run(&self, ctx: &StudyCtx<'_>) -> Result<StudyOutput, String> {
        let o = ctx.opts;
        let mut cfg = parse_profile(
            o,
            ScenarioStudyConfig::paper_defaults,
            ScenarioStudyConfig::smoke,
        )?;
        cfg.presets = parse_presets(o, cfg.presets)?;
        if let Some(s) = o.get("scheme") {
            cfg.schemes = schemes_from(s)?;
        }
        cfg.rate = o.get_positive("rate", cfg.rate)?;
        cfg.horizon = Minutes(o.get_positive("horizon", cfg.horizon.value())?);
        cfg.mean_patience = Minutes(o.get_positive("patience", cfg.mean_patience.value())?);
        cfg.flash_at = Minutes(o.get_f64("flash-at", cfg.flash_at.value())?);
        cfg.flash_rate_boost = o.get_positive("flash-boost", cfg.flash_rate_boost)?;
        cfg.outage_start = Minutes(o.get_f64("outage-start", cfg.outage_start.value())?);
        cfg.outage_duration = Minutes(o.get_f64("outage-duration", cfg.outage_duration.value())?);
        cfg.seed = o.get_u64("seed", cfg.seed)?;
        let (report, snapshot) =
            scenario_study(&cfg, ctx.shards, ctx.runner).map_err(|e| e.to_string())?;
        Ok(StudyOutput::of(render_scenario(&report), &report)?
            .with_metrics(snapshot)
            .with_rates(report.total_sessions))
    }
}

/// Resolve `--preset urban|rural|remote|all` against a profile's default
/// preset list.
fn parse_presets(
    opts: &StudyOpts,
    default: Vec<ScenarioPreset>,
) -> Result<Vec<ScenarioPreset>, String> {
    match opts.get_str("preset", "all").as_str() {
        "all" => Ok(default),
        "urban" => Ok(vec![ScenarioPreset::Urban]),
        "rural" => Ok(vec![ScenarioPreset::Rural]),
        "remote" => Ok(vec![ScenarioPreset::Remote]),
        other => Err(format!(
            "--preset: expected `urban`, `rural`, `remote` or `all`, got `{other}`"
        )),
    }
}

/// `recovery --mode sweep`: the checkpoint-cadence trade under the
/// crash-recovery supervisor (`--mode run` stays in the CLI).
struct RecoveryStudy;

impl Study for RecoveryStudy {
    fn name(&self) -> &'static str {
        "recovery"
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("BENCH_recovery.json")
    }

    fn sharded(&self) -> bool {
        true
    }

    fn run(&self, ctx: &StudyCtx<'_>) -> Result<StudyOutput, String> {
        let o = ctx.opts;
        let mut cfg = parse_profile(o, RecoveryConfig::paper_defaults, RecoveryConfig::smoke)?;
        cfg.bandwidth = Mbps(o.get_f64("bandwidth", cfg.bandwidth.value())?);
        cfg.sessions = o.get_usize("sessions", cfg.sessions)?;
        cfg.horizon = Minutes(o.get_positive("horizon", cfg.horizon.value())?);
        cfg.videos = o.get_usize("titles", cfg.videos)?;
        cfg.kills = o.get_usize("kills", cfg.kills)?;
        cfg.seed = o.get_u64("seed", cfg.seed)?;
        if ctx.shards > 1 {
            cfg.shards = ctx.shards;
        }
        let report = recovery_study(&cfg, ctx.runner).map_err(|e| e.to_string())?;
        // One baseline pass plus one supervised pass per cadence cell
        // (replays run on top, but they are part of the measurement, not
        // the denominator).
        let sessions = report.fold.sessions * (report.rows.len() + 1);
        Ok(StudyOutput::of(render_recovery(&report), &report)?.with_rates(sessions))
    }
}

/// The scheme-zoo Pareto frontier in latency × client-I/O × buffer.
struct FrontierStudy;

impl Study for FrontierStudy {
    fn name(&self) -> &'static str {
        "frontier"
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("BENCH_frontier.json")
    }

    fn sharded(&self) -> bool {
        true
    }

    fn run(&self, ctx: &StudyCtx<'_>) -> Result<StudyOutput, String> {
        let o = ctx.opts;
        let mut cfg = parse_profile(o, FrontierConfig::paper, FrontierConfig::smoke)?;
        if let Some(spec) = o.get("bandwidths") {
            cfg.bandwidths = parse_csv(spec, "bandwidth")?;
        }
        if let Some(spec) = o.get("catalogs") {
            cfg.catalogs = parse_csv(spec, "catalog size")?;
        }
        cfg.sessions = o.get_usize("sessions", cfg.sessions)?;
        cfg.horizon = Minutes(o.get_positive("horizon", cfg.horizon.value())?);
        cfg.include_buggy_hb = o.get_str("buggy-hb", "no") != "no";
        cfg.seed = o.get_u64("seed", cfg.seed)?;
        let report = frontier_report(&cfg, ctx.shards, ctx.runner);
        StudyOutput::of(render_frontier(&report), &report)
    }
}

/// The distributed tier: placement policies × peer assist priced against
/// the Viennot source-once bound.
struct DistributionStudy;

impl Study for DistributionStudy {
    fn name(&self) -> &'static str {
        "distribution"
    }

    fn artifact(&self) -> Option<&'static str> {
        Some("BENCH_distribution.json")
    }

    fn sharded(&self) -> bool {
        true
    }

    fn run(&self, ctx: &StudyCtx<'_>) -> Result<StudyOutput, String> {
        let o = ctx.opts;
        let mut cfg = parse_profile(
            o,
            DistributionStudyConfig::paper_defaults,
            DistributionStudyConfig::smoke,
        )?;
        cfg.presets = parse_presets(o, cfg.presets)?;
        if let Some(s) = o.get("scheme") {
            let ids = schemes_from(s)?;
            if ids.len() != 1 {
                return Err("distribution prices one scheme per run (got `all`)".to_string());
            }
            cfg.scheme = ids[0];
        }
        if let Some(spec) = o.get("policies") {
            cfg.policies = spec
                .split(',')
                .map(|t| {
                    PlacementPolicy::parse(t.trim())
                        .ok_or_else(|| format!("unknown placement policy `{t}`"))
                })
                .collect::<Result<_, _>>()?;
        }
        cfg.rate = o.get_positive("rate", cfg.rate)?;
        cfg.horizon = Minutes(o.get_positive("horizon", cfg.horizon.value())?);
        cfg.mean_patience = Minutes(o.get_positive("patience", cfg.mean_patience.value())?);
        cfg.backbone_mbps = o.get_f64("backbone", cfg.backbone_mbps)?;
        cfg.tail_from = o.get_usize("tail-from", cfg.tail_from)?;
        cfg.uplink_fraction = o.get_f64("uplink-fraction", cfg.uplink_fraction)?;
        cfg.seed = o.get_u64("seed", cfg.seed)?;
        let (report, snapshot) =
            distribution_study(&cfg, ctx.shards, ctx.runner).map_err(|e| e.to_string())?;
        Ok(StudyOutput::of(render_distribution(&report), &report)?
            .with_metrics(snapshot)
            .with_rates(report.total_sessions))
    }
}

/// A table of Table-1 metrics over a fixed lineup and bandwidth list:
/// Table 1, Table 2 and the beyond-paper landscape. The report is the
/// evaluated rows; the text wraps them in the table's own preamble.
struct TableStudy {
    name: &'static str,
    /// Everything printed above the rows.
    intro: fn() -> String,
    lineup: fn() -> Vec<SchemeId>,
    bandwidths: &'static [f64],
    /// Everything printed below the rows.
    outro: &'static str,
}

impl Study for TableStudy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(&self, ctx: &StudyCtx<'_>) -> Result<StudyOutput, String> {
        let rows = evaluate_tables_with(&(self.lineup)(), self.bandwidths, ctx.runner);
        let rendered = format!(
            "{}{}{}",
            (self.intro)(),
            render_evaluations(&rows),
            self.outro
        );
        StudyOutput::of(rendered, &rows)
    }
}

fn table1_intro() -> String {
    format!(
        "Table 1: performance computation (as reconstructed; DESIGN.md section 3)\n\n{}\n\
         Evaluated at the paper's workload (M=10, D=120 min, b=1.5 Mb/s):\n\n",
        render_formulas(&table1_formulas())
    )
}

fn table2_intro() -> String {
    let mut out = String::from(
        "Table 2: design parameter determination (as reconstructed; DESIGN.md section 3)\n\n",
    );
    for (scheme, rule) in table2_rules() {
        out.push_str(&format!("{scheme:7} {rule}\n"));
    }
    out.push_str("\nResolved parameters:\n\n");
    out
}

fn landscape_intro() -> String {
    "periodic-broadcast landscape at the paper's workload (M=10, D=120, b=1.5):\n\n".to_string()
}

/// Draws one figure panel from the paper sweep's rows and lineup.
type Panel = fn(&[SweepRow], &[SchemeId]) -> Figure;

/// One of Figures 5–8: panels drawn from the paper's 100–600 Mb/s sweep
/// of the paper lineup. A one-panel figure reports that figure; Figure
/// 5's two panels report as an array.
struct FigureStudy {
    name: &'static str,
    panels: &'static [Panel],
}

impl Study for FigureStudy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(&self, ctx: &StudyCtx<'_>) -> Result<StudyOutput, String> {
        let ids = paper_lineup();
        let rows = paper_sweep_with(&ids, ctx.runner);
        let figs: Vec<Figure> = self.panels.iter().map(|panel| panel(&rows, &ids)).collect();
        let rendered = figs
            .iter()
            .map(render_figure)
            .collect::<Vec<_>>()
            .join("\n");
        match figs.as_slice() {
            [fig] => StudyOutput::of(rendered, fig),
            _ => StudyOutput::of(rendered, &figs),
        }
    }
}

/// Figures 1–4: the §4 group-transition buffer profiles, measured from
/// the exact slot-level client model at each case's worst arrival phase.
struct TransitionStudy;

impl Study for TransitionStudy {
    fn name(&self) -> &'static str {
        "fig1_4"
    }

    fn run(&self, ctx: &StudyCtx<'_>) -> Result<StudyOutput, String> {
        let demos = figures::figures1_to_4_with(ctx.runner);
        StudyOutput::of(render_transition_demos(&demos), &demos)
    }
}

/// Analytic vs simulated latency and buffer for the extended lineup at
/// the paper's spotlight bandwidths — the data behind EXPERIMENTS.md.
struct CrosscheckStudy;

impl Study for CrosscheckStudy {
    fn name(&self) -> &'static str {
        "crosscheck"
    }

    fn run(&self, ctx: &StudyCtx<'_>) -> Result<StudyOutput, String> {
        let mut rendered = String::new();
        let mut all = Vec::new();
        for b in [100.0, 320.0, 600.0] {
            let checks =
                crosscheck_lineup_with(&extended_lineup(), Mbps(b), Minutes(15.0), 120, ctx.runner);
            rendered.push_str(&render_crosscheck(b, &checks));
            all.extend(checks);
        }
        StudyOutput::of(rendered, &all)
    }
}

/// The beyond-paper ablations: series shape (A1), width sensitivity (A2)
/// and the greedy rediscovery of the paper's series (A3).
struct AblationStudy;

impl Study for AblationStudy {
    fn name(&self) -> &'static str {
        "ablation"
    }

    fn run(&self, ctx: &StudyCtx<'_>) -> Result<StudyOutput, String> {
        let reports = series_ablation_with(12, Minutes(120.0), 1024, ctx.runner);
        let widths = width_ablation(Minutes(120.0), 40);
        let greedy = greedy_max_series(11, PhaseBudget::ExhaustiveUpTo(100_000));
        let rendered = render_ablation(&reports, &widths, &greedy, &series(11));
        StudyOutput::of(rendered, &(reports, widths, greedy))
    }
}

/// Every registered study, in `sbcast`'s usage order: the paper's
/// artifacts first, then the studies beyond it.
#[must_use]
pub fn registry() -> &'static [&'static dyn Study] {
    const REGISTRY: &[&dyn Study] = &[
        &TableStudy {
            name: "table1",
            intro: table1_intro,
            lineup: paper_lineup,
            bandwidths: &[100.0, 200.0, 300.0, 320.0, 400.0, 500.0, 600.0],
            outro: "",
        },
        &TableStudy {
            name: "table2",
            intro: table2_intro,
            lineup: paper_lineup,
            bandwidths: &[
                100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0, 450.0, 500.0, 550.0, 600.0,
            ],
            outro: "",
        },
        &TransitionStudy,
        &FigureStudy {
            name: "fig5",
            panels: &[
                |rows, _| figures::figure5a(rows),
                |rows, _| figures::figure5b(rows),
            ],
        },
        &FigureStudy {
            name: "fig6",
            panels: &[figures::figure6],
        },
        &FigureStudy {
            name: "fig7",
            panels: &[figures::figure7],
        },
        &FigureStudy {
            name: "fig8",
            panels: &[figures::figure8],
        },
        &CrosscheckStudy,
        &AblationStudy,
        &TableStudy {
            name: "landscape",
            intro: landscape_intro,
            lineup: landscape_lineup,
            bandwidths: &[100.0, 320.0, 600.0],
            outro: "\nnote: FB needs K+1 display-rate tuners at the client; HB:delayed needs to\n\
                    record every channel mid-broadcast (see sb_sim::receive_all for the\n\
                    original HB's correctness bug, demonstrated).\n",
        },
        &SweepStudy,
        &HybridStudy,
        &ControlStudy,
        &ResilienceStudy,
        &ScaleStudy,
        &ScenarioStudy,
        &RecoveryStudy,
        &FrontierStudy,
        &DistributionStudy,
    ];
    REGISTRY
}

/// Look a study up by its subcommand spelling.
#[must_use]
pub fn find(name: &str) -> Option<&'static dyn Study> {
    registry().iter().copied().find(|s| s.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_artifacts_and_shards() {
        let names: Vec<_> = registry().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "table1",
                "table2",
                "fig1_4",
                "fig5",
                "fig6",
                "fig7",
                "fig8",
                "crosscheck",
                "ablation",
                "landscape",
                "sweep",
                "hybrid",
                "control",
                "resilience",
                "scale",
                "scenario",
                "recovery",
                "frontier",
                "distribution",
            ]
        );
        for s in registry() {
            assert_eq!(find(s.name()).map(Study::name), Some(s.name()));
            if let Some(a) = s.artifact() {
                assert_eq!(a, format!("BENCH_{}.json", s.name()));
            }
        }
        let sharded: Vec<_> = registry()
            .iter()
            .filter(|s| s.sharded())
            .map(|s| s.name())
            .collect();
        assert_eq!(
            sharded,
            ["scale", "scenario", "recovery", "frontier", "distribution"]
        );
        assert!(find("plan").is_none(), "non-study subcommands stay out");
    }

    #[test]
    fn opts_error_strings_match_the_cli() {
        let o = StudyOpts::from_pairs([("rate", "x"), ("samples", "y")]);
        assert_eq!(
            o.get_f64("rate", 1.0).unwrap_err(),
            "--rate: bad number `x`"
        );
        assert_eq!(
            o.get_usize("samples", 1).unwrap_err(),
            "--samples: bad integer `y`"
        );
        assert_eq!(o.get_f64("absent", 2.5).unwrap(), 2.5);
        assert_eq!(o.get_str("absent", "d"), "d");
        assert_eq!(
            parse_csv::<f64>("1,zap", "rate").unwrap_err(),
            "bad rate `zap`"
        );
        assert_eq!(
            parse_profile(&StudyOpts::from_pairs([("profile", "warm")]), || 1, || 2).unwrap_err(),
            "--profile: expected `smoke` or `paper`, got `warm`"
        );
    }

    #[test]
    fn opts_record_every_key_looked_up() {
        let o = StudyOpts::from_pairs([("rate", "2"), ("sesions", "9")]);
        assert_eq!(o.get_f64("rate", 1.0).unwrap(), 2.0);
        assert_eq!(o.get_usize("sessions", 5).unwrap(), 5);
        assert_eq!(
            o.unread().as_deref(),
            Some("sesions"),
            "the typo was never read"
        );
    }

    #[test]
    fn sweep_study_runs_through_the_trait() {
        let opts = StudyOpts::from_pairs([
            ("from", "300"),
            ("to", "300"),
            ("step", "20"),
            ("samples", "2"),
            ("scheme", "SB:W=52"),
        ]);
        let runner = Runner::serial();
        let ctx = StudyCtx {
            opts: &opts,
            shards: 1,
            runner: &runner,
        };
        let out = find("sweep").unwrap().run(&ctx).unwrap();
        assert!(out.rendered.contains("--- latency ---"));
        assert!(out.rendered.contains("--- crosscheck:"));
        assert!(out.report_json.contains("\"rows\""));
        assert!(out.metrics.is_none());
    }

    #[test]
    fn hybrid_study_requires_rates() {
        let opts = StudyOpts::default();
        let runner = Runner::serial();
        let ctx = StudyCtx {
            opts: &opts,
            shards: 1,
            runner: &runner,
        };
        let err = find("hybrid").unwrap().run(&ctx).unwrap_err();
        assert!(err.contains("--rates"), "{err}");
    }
}
