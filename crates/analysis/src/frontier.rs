//! The automated Pareto frontier across the scheme zoo.
//!
//! §5 argues SB's latency × client-I/O × buffer trade-off against its
//! baselines in prose; this module makes the argument executable. Every
//! scheme in the landscape — SB expanded over *all* candidate widths at
//! each operating point, the pyramids, staggered, FB, HB (delayed fix),
//! CTIFB and AQHB — is evaluated over a shared bandwidth × catalog grid,
//! twice per cell:
//!
//! * **analytically** — the Table-1 closed forms
//!   (latency, client I/O, buffer), and
//! * **empirically** — each scheme's plan executed under its own client
//!   model through [`sb_sim::system::SystemSim`], folded by the streaming
//!   [`sb_sim::sink::SessionSummary`] (worst latency, peak buffer,
//!   max concurrent streams).
//!
//! Pareto dominance is then computed in both spaces: a point is *on the
//! frontier* when no other scheme in the same cell is at least as good on
//! all three axes and strictly better on one. The paper's §6 claim —
//! "\[SB\] offers low access latency, requires small I/O bandwidth and
//! little storage space" — becomes the pinned assertion that SB widths
//! survive on the frontier at the paper's operating points while PPB
//! never does.
//!
//! The original (buggy) HB point is excluded by default — its `D/N`
//! latency claim was refuted by Pâris, Carter & Long, so advertising it
//! would put an infeasible point on the frontier. An explicit
//! [`FrontierConfig::include_buggy_hb`] opt-in adds it, and the simulated
//! axes then show the refutation: its sessions stall.
//!
//! ## Determinism
//!
//! The report is a pure function of [`FrontierConfig`]: arrivals come
//! from a splitmix-scrambled phase of the seed, every per-cell simulation
//! runs through [`sb_sim::run::RunConfig`] (whose outcome is byte-
//! identical across shard and thread choices, re-asserted here by a
//! proptest over random grids), and the runner's `timed_map` reassembles
//! parallel cells in index order. Timings go only to the manifest —
//! `BENCH_frontier.json` is byte-identical across `--shards × --threads`.

use serde::{Deserialize, Serialize};
use vod_units::{Mbps, Minutes};

use sb_core::config::SystemConfig;
use sb_core::plan::VideoId;
use sb_core::scheme::BroadcastScheme;
use sb_core::series::Width;
use sb_core::Skyscraper;
use sb_pyramid::{AdaptiveQuasiHarmonic, HarmonicBroadcasting};
use sb_sim::trace::{ClientModel, CycleRecordingClient, PausingClient, RecordingClient};
use sb_sim::{ClientPolicy, Request, RunConfig, SessionTrace, SystemSim, TraceSink};

use crate::lineup::SchemeId;
use crate::runner::Runner;

/// The frontier study's grid and workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierConfig {
    /// Server bandwidths to study, Mb/s.
    pub bandwidths: Vec<f64>,
    /// Catalog sizes `M` to study.
    pub catalogs: Vec<usize>,
    /// Simulated arrivals per cell.
    pub sessions: usize,
    /// Arrival horizon, minutes.
    pub horizon: Minutes,
    /// Workload seed (phase-scrambles the arrival grid).
    pub seed: u64,
    /// Include the original (refuted) HB point — see the module docs.
    pub include_buggy_hb: bool,
}

impl FrontierConfig {
    /// The full study: the paper's spotlight bandwidths at the paper's
    /// catalog and a doubled one.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            bandwidths: vec![200.0, 320.0, 450.0, 600.0],
            catalogs: vec![10, 20],
            sessions: 48,
            horizon: Minutes(30.0),
            seed: 0,
            include_buggy_hb: false,
        }
    }

    /// A single-cell smoke grid for CI.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            bandwidths: vec![320.0],
            catalogs: vec![10],
            sessions: 16,
            horizon: Minutes(12.0),
            seed: 0,
            include_buggy_hb: false,
        }
    }
}

/// One scheme at one grid cell: closed forms, simulated counterparts, and
/// frontier membership in both spaces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierPoint {
    /// Scheme label.
    pub scheme: String,
    /// Analytic access latency, minutes.
    pub latency: f64,
    /// Analytic client I/O bandwidth, Mb/s.
    pub io_mbps: f64,
    /// Analytic client buffer, MBytes.
    pub buffer_mb: f64,
    /// Worst simulated startup latency, minutes.
    pub sim_worst_latency: f64,
    /// Worst simulated peak buffer, MBytes.
    pub sim_peak_buffer_mb: f64,
    /// Largest simulated number of concurrent reception streams.
    pub sim_max_streams: usize,
    /// Every simulated session met every playback deadline. `false` only
    /// for infeasible points, i.e. the opt-in buggy HB.
    pub sim_jitter_free: bool,
    /// On the Pareto frontier of the analytic
    /// latency × I/O × buffer space.
    pub on_frontier_analytic: bool,
    /// On the Pareto frontier of the simulated
    /// latency × streams × buffer space.
    pub on_frontier_sim: bool,
}

/// All feasible schemes at one bandwidth × catalog cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierCell {
    /// Server bandwidth `B`, Mb/s.
    pub bandwidth: f64,
    /// Catalog size `M`.
    pub num_videos: usize,
    /// Per-scheme points (infeasible schemes absent).
    pub points: Vec<FrontierPoint>,
}

/// The deterministic frontier artifact (`BENCH_frontier.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierReport {
    /// The grid and workload that produced the report.
    pub config: FrontierConfig,
    /// One cell per bandwidth × catalog pair, bandwidth-major.
    pub cells: Vec<FrontierCell>,
}

impl FrontierReport {
    /// The cell at `(bandwidth, num_videos)`, if in the grid.
    #[must_use]
    pub fn cell(&self, bandwidth: f64, num_videos: usize) -> Option<&FrontierCell> {
        self.cells
            .iter()
            .find(|c| c.bandwidth == bandwidth && c.num_videos == num_videos)
    }
}

/// The non-SB landscape ids swept in every cell (SB is expanded over its
/// per-cell candidate widths instead of the fixed paper widths).
fn baseline_ids() -> Vec<SchemeId> {
    vec![
        SchemeId::PbA,
        SchemeId::PbB,
        SchemeId::PpbA,
        SchemeId::PpbB,
        SchemeId::Staggered,
        SchemeId::Fast,
        SchemeId::Harmonic,
        SchemeId::Ctifb,
        SchemeId::Aqhb,
    ]
}

/// The client model that matches each scheme's reception discipline.
/// Feasibility must already have been established (`metrics(cfg)` Ok).
fn model_for(id: SchemeId, cfg: &SystemConfig) -> Box<dyn ClientModel> {
    match id {
        SchemeId::PbA | SchemeId::PbB => Box::new(ClientPolicy::PbEarliest),
        SchemeId::PpbA | SchemeId::PpbB => Box::new(PausingClient),
        SchemeId::Harmonic => Box::new(RecordingClient {
            playback_delay: HarmonicBroadcasting::delayed()
                .slot(cfg)
                .expect("feasibility established by metrics()"),
        }),
        SchemeId::Aqhb => Box::new(RecordingClient {
            playback_delay: AdaptiveQuasiHarmonic
                .slot(cfg)
                .expect("feasibility established by metrics()"),
        }),
        SchemeId::Ctifb => Box::new(CycleRecordingClient),
        _ => Box::new(ClientPolicy::LatestFeasible),
    }
}

/// The deterministic arrival grid: `sessions` arrivals uniform over the
/// horizon, phase-shifted by a splitmix scramble of the seed (seed 0
/// reproduces the legacy crosscheck phase), round-robin over the catalog.
fn arrivals(cfg: &FrontierConfig, num_videos: usize) -> Vec<Request> {
    let phase = if cfg.seed == 0 {
        0.31
    } else {
        let mut x = cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..cfg.sessions)
        .map(|i| Request {
            at: Minutes(cfg.horizon.value() * (i as f64 + phase) / cfg.sessions as f64),
            video: VideoId(i % num_videos),
        })
        .collect()
}

/// Evaluate one scheme in one cell: closed forms plus a simulated pass of
/// the cell's arrival stream under the scheme's own client model. `None`
/// where the scheme is infeasible.
fn evaluate_scheme(
    label: String,
    scheme: &dyn BroadcastScheme,
    model: &dyn ClientModel,
    sys: &SystemConfig,
    reqs: &[Request],
    shards: usize,
) -> Option<FrontierPoint> {
    let metrics = scheme.metrics(sys).ok()?;
    let plan = scheme.plan(sys).ok()?;
    let sim = SystemSim::new(&plan, sys.display_rate, model);
    let mut probe = JitterProbe { ok: true };
    let out = sim
        .execute(
            RunConfig::new(reqs)
                .shards(shards)
                .threads(1)
                .sink(&mut probe),
        )
        .expect("every catalog title is requested against its own plan");
    Some(FrontierPoint {
        scheme: label,
        latency: metrics.access_latency.value(),
        io_mbps: metrics.client_io_bandwidth.value(),
        buffer_mb: metrics.buffer_mbytes().value(),
        sim_worst_latency: out.fold.worst_latency.value(),
        sim_peak_buffer_mb: out.fold.worst_buffer.value() / 8.0,
        sim_max_streams: out.fold.max_streams,
        sim_jitter_free: probe.ok,
        on_frontier_analytic: false,
        on_frontier_sim: false,
    })
}

/// A sink that only checks deadlines: `true` while every folded session
/// plays back jitter-free.
struct JitterProbe {
    ok: bool,
}

impl TraceSink for JitterProbe {
    fn accept(&mut self, trace: &SessionTrace) {
        self.ok &= trace.is_jitter_free(1e-9);
    }
}

/// `true` when `q` Pareto-dominates `p` in a three-axis space: at least
/// as good everywhere (within tolerance), strictly better somewhere.
fn dominates3(q: &[f64; 3], p: &[f64; 3]) -> bool {
    q.iter().zip(p).all(|(a, b)| *a <= b + 1e-9) && q.iter().zip(p).any(|(a, b)| *a < b - 1e-9)
}

/// Mark both frontiers within one cell.
fn mark_frontiers(points: &mut [FrontierPoint]) {
    let analytic: Vec<[f64; 3]> = points
        .iter()
        .map(|p| [p.latency, p.io_mbps, p.buffer_mb])
        .collect();
    let sim: Vec<[f64; 3]> = points
        .iter()
        .map(|p| {
            [
                p.sim_worst_latency,
                p.sim_max_streams as f64,
                p.sim_peak_buffer_mb,
            ]
        })
        .collect();
    for i in 0..points.len() {
        points[i].on_frontier_analytic = !analytic
            .iter()
            .enumerate()
            .any(|(j, q)| j != i && dominates3(q, &analytic[i]));
        // A point that missed deadlines is infeasible: its simulated
        // numbers are not achievable, so it never makes the sim frontier.
        points[i].on_frontier_sim = points[i].sim_jitter_free
            && !sim
                .iter()
                .enumerate()
                .any(|(j, q)| j != i && dominates3(q, &sim[i]));
    }
}

/// Build one bandwidth × catalog cell.
fn build_cell(
    cfg: &FrontierConfig,
    bandwidth: f64,
    num_videos: usize,
    shards: usize,
) -> FrontierCell {
    let mut sys = SystemConfig::paper_defaults(Mbps(bandwidth));
    sys.num_videos = num_videos;
    let reqs = arrivals(cfg, num_videos);
    let mut points = Vec::new();
    let k = (sys.channels_ratio().floor() as usize).min(sb_core::series::MAX_SEGMENTS);
    for w in sb_core::width::candidate_widths(k) {
        let scheme = Skyscraper::with_width(Width::Capped(w));
        let model = ClientPolicy::LatestFeasible;
        if let Some(p) = evaluate_scheme(format!("SB:W={w}"), &scheme, &model, &sys, &reqs, shards)
        {
            points.push(p);
        }
    }
    for id in baseline_ids() {
        let scheme = id.build();
        if scheme.metrics(&sys).is_err() {
            continue;
        }
        let model = model_for(id, &sys);
        if let Some(p) = evaluate_scheme(id.label(), &*scheme, &*model, &sys, &reqs, shards) {
            points.push(p);
        }
    }
    if cfg.include_buggy_hb {
        let scheme = HarmonicBroadcasting::original();
        let model = RecordingClient::default();
        if let Some(p) = evaluate_scheme("HB".to_string(), &scheme, &model, &sys, &reqs, shards) {
            points.push(p);
        }
    }
    mark_frontiers(&mut points);
    FrontierCell {
        bandwidth,
        num_videos,
        points,
    }
}

/// Run the frontier study over the whole grid. Cells run in parallel on
/// `runner` (reassembled in grid order); each cell's simulation uses
/// `shards` shards. The report is byte-identical for every
/// `(shards, threads)` choice.
#[must_use]
pub fn frontier_report(cfg: &FrontierConfig, shards: usize, runner: &Runner) -> FrontierReport {
    let grid: Vec<(f64, usize)> = cfg
        .bandwidths
        .iter()
        .flat_map(|&b| cfg.catalogs.iter().map(move |&m| (b, m)))
        .collect();
    let cells = runner.timed_map("frontier", &grid, |&(b, m)| build_cell(cfg, b, m, shards));
    FrontierReport {
        config: cfg.clone(),
        cells,
    }
}

/// Plain-text rendering: one table per cell, frontier membership marked
/// `A` (analytic), `S` (simulated) or `AS`.
#[must_use]
pub fn render_frontier(report: &FrontierReport) -> String {
    let mut out = String::new();
    out.push_str("Pareto frontier: latency x client I/O x buffer\n");
    out.push_str("(frontier column: A = analytic space, S = simulated space)\n");
    for cell in &report.cells {
        out.push_str(&format!(
            "\nB = {} Mb/s, M = {} videos\n",
            cell.bandwidth, cell.num_videos
        ));
        out.push_str(&format!(
            "{:<12} {:>9} {:>8} {:>9} {:>9} {:>9} {:>7} {:>8}\n",
            "scheme", "lat(min)", "io(Mbps)", "buf(MB)", "simLat", "simBuf", "streams", "frontier"
        ));
        for p in &cell.points {
            let marker = match (p.on_frontier_analytic, p.on_frontier_sim) {
                (true, true) => "AS",
                (true, false) => "A",
                (false, true) => "S",
                (false, false) => "-",
            };
            out.push_str(&format!(
                "{:<12} {:>9.3} {:>8.2} {:>9.1} {:>9.3} {:>9.1} {:>7} {:>8}\n",
                p.scheme,
                p.latency,
                p.io_mbps,
                p.buffer_mb,
                p.sim_worst_latency,
                p.sim_peak_buffer_mb,
                p.sim_max_streams,
                marker
            ));
        }
        let survivors: Vec<&str> = cell
            .points
            .iter()
            .filter(|p| p.on_frontier_analytic)
            .map(|p| p.scheme.as_str())
            .collect();
        out.push_str(&format!("analytic frontier: {}\n", survivors.join(", ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn smoke_report() -> FrontierReport {
        frontier_report(&FrontierConfig::smoke(), 1, &Runner::serial())
    }

    #[test]
    fn sb_on_the_frontier_at_the_paper_operating_point() {
        // §6's claim, as Pareto membership at B = 320, M = 10: at least
        // one SB width survives on both frontiers, and PPB never does.
        let report = smoke_report();
        let cell = report.cell(320.0, 10).unwrap();
        assert!(
            cell.points
                .iter()
                .any(|p| p.scheme.starts_with("SB:W=") && p.on_frontier_analytic),
            "no SB width on the analytic frontier"
        );
        assert!(
            cell.points
                .iter()
                .any(|p| p.scheme.starts_with("SB:W=") && p.on_frontier_sim),
            "no SB width on the simulated frontier"
        );
        for p in cell.points.iter().filter(|p| p.scheme.starts_with("PPB")) {
            assert!(!p.on_frontier_analytic, "{} on the frontier", p.scheme);
        }
        // The zoo is complete: both successors are present and feasible.
        for scheme in ["CTIFB", "AQHB", "FB", "HB:delayed", "STAG"] {
            assert!(
                cell.points.iter().any(|p| p.scheme == scheme),
                "{scheme} missing"
            );
        }
    }

    #[test]
    fn simulation_respects_the_closed_forms() {
        // The newly pinned schemes: simulated latency never exceeds the
        // analytic promise, and the phase-invariant buffer profiles land
        // exactly on their closed forms.
        let report = smoke_report();
        let cell = report.cell(320.0, 10).unwrap();
        for scheme in ["CTIFB", "AQHB", "FB", "STAG"] {
            let p = cell.points.iter().find(|p| p.scheme == scheme).unwrap();
            assert!(
                p.sim_worst_latency <= p.latency + 1e-6,
                "{scheme}: sim latency {} vs analytic {}",
                p.sim_worst_latency,
                p.latency
            );
            assert!(
                p.sim_peak_buffer_mb <= p.buffer_mb + 1e-6,
                "{scheme}: sim buffer {} vs analytic {}",
                p.sim_peak_buffer_mb,
                p.buffer_mb
            );
            assert!(p.sim_jitter_free, "{scheme} missed a deadline");
        }
        let ctifb = cell.points.iter().find(|p| p.scheme == "CTIFB").unwrap();
        assert!(
            (ctifb.sim_peak_buffer_mb - ctifb.buffer_mb).abs() < 1e-6 * ctifb.buffer_mb,
            "CTIFB sim peak {} must equal analytic {}",
            ctifb.sim_peak_buffer_mb,
            ctifb.buffer_mb
        );
    }

    #[test]
    fn buggy_hb_only_on_opt_in_and_visibly_infeasible() {
        let mut cfg = FrontierConfig::smoke();
        let runner = Runner::serial();
        let without = frontier_report(&cfg, 1, &runner);
        assert!(without.cells[0].points.iter().all(|p| p.scheme != "HB"));
        cfg.include_buggy_hb = true;
        let with = frontier_report(&cfg, 1, &runner);
        let hb = with.cells[0]
            .points
            .iter()
            .find(|p| p.scheme == "HB")
            .unwrap();
        // The refutation shows up in the simulated axes: some session
        // misses a playback deadline under the D/N latency claim.
        assert!(!hb.sim_jitter_free, "buggy HB should miss deadlines");
    }

    proptest! {
        // Two cases: each runs the full grid three times (once per knob
        // combination), and the heavy-K cells dominate the suite's
        // wall-clock; the verify.sh shards × threads CLI diff covers the
        // same invariant at the paper grid.
        #![proptest_config(ProptestConfig::with_cases(2))]

        // The frontier artifact is byte-identical across shard and thread
        // knobs, for random grids — the CLI's diff gate, as a property.
        #[test]
        fn report_is_invariant_to_knobs_over_random_grids(
            bw_mask in 1u8..8,
            cat_mask in 1u8..8,
            sessions in 4usize..10,
            seed in 0u64..1_000,
        ) {
            let all = [150.0, 320.0, 500.0];
            let bandwidths: Vec<f64> = all
                .iter()
                .enumerate()
                .filter(|(i, _)| bw_mask & (1 << i) != 0)
                .map(|(_, &b)| b)
                .collect();
            let catalogs: Vec<usize> = [5usize, 10, 16]
                .iter()
                .enumerate()
                .filter(|(i, _)| cat_mask & (1 << i) != 0)
                .map(|(_, &m)| m)
                .collect();
            let cfg = FrontierConfig {
                bandwidths,
                catalogs,
                sessions,
                horizon: Minutes(10.0),
                seed,
                include_buggy_hb: false,
            };
            let base = serde_json::to_string(&frontier_report(&cfg, 1, &Runner::serial())).unwrap();
            for (shards, threads) in [(2usize, 2usize), (3, 2)] {
                let other = serde_json::to_string(&frontier_report(
                    &cfg, shards, &Runner::new(threads),
                )).unwrap();
                prop_assert_eq!(&base, &other, "knobs ({}, {})", shards, threads);
            }
        }
    }
}
