//! The four workloads: how each makes its inputs from a seed, hands them
//! to one `execute` call, and checks the outcome.
//!
//! Every workload is an offline batch: the whole request trace goes to a
//! single `execute` call, so it is neither an open nor a closed loop.

use sb_control::{ControlConfig, ControlOutcome, ControlPolicy, ControlledSim};
use sb_core::config::SystemConfig;
use sb_core::plan::{ChannelPlan, VideoId};
use sb_core::scheme::{BroadcastScheme, SchemeMetrics};
use sb_core::{Skyscraper, Width};
use sb_pyramid::PermutationPyramid;
use sb_sim::{
    ClientModel, ClientPolicy, PausingClient, Request, RunConfig, RunOutcome, SessionTrace,
    SystemSim, TraceSink,
};
use sb_workload::{
    to_workload, Catalog, FlashCrowd, GridArrivals, MetroScenario, Patience, ScenarioPreset,
    ScenarioRequest, ScenarioWorkload, WorkloadRequest,
};
use serde::Serialize;
use vod_units::{Mbps, Minutes};

use crate::trace::Tracer;

/// Server shards of the two metro workloads: one per urban region.
const SHARDS: usize = 4;
/// Worker threads of the timed passes. On a shared two-vCPU machine a
/// two-thread pass varied about four times as much as a serial one (27%
/// against 7% quartile spread of sessions/s over ten seeds), more than
/// any regression bound can absorb; the traced pass checks that two
/// threads reproduce the same bytes.
const THREADS: usize = 1;

/// The grid workloads' arrival density, sessions a minute: the flagship
/// run's 500k sessions over 22 727 minutes.
const GRID_RATE: f64 = 22.0;
/// `sb_grid` sessions per pass at full scale.
const GRID_SESSIONS: f64 = 100_000.0;
/// `ppb_pausing` sessions per pass at full scale.
const PPB_SESSIONS: f64 = 15_000.0;
/// `metro_sharded` metro-wide arrivals a minute at full scale.
const METRO_RATE: f64 = 200.0;
/// `metro_control` metro-wide arrivals a minute at full scale.
const CONTROL_RATE: f64 = 2_700.0;
/// The urban geometry is fixed: `--seed` varies only the arrival draws,
/// never the region demand shares that set how uneven the shards are.
const GEOMETRY_SEED: u64 = 17;
/// Mean viewer patience of the scenario streams, minutes.
const MEAN_PATIENCE: f64 = 45.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SB:W=52 at 320 Mb/s over a session grid, serial.
    SbGrid,
    /// The urban scenario, region-sharded, with a per-region user sink.
    MetroSharded,
    /// PPB:b with the pausing client over a session grid, serial.
    PpbPausing,
    /// The controlled hybrid server under the urban scenario, sharded.
    MetroControl,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::SbGrid,
        Workload::MetroSharded,
        Workload::PpbPausing,
        Workload::MetroControl,
    ];

    /// The CLI and `BENCHMARK.json` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SbGrid => "sb_grid",
            Workload::MetroSharded => "metro_sharded",
            Workload::PpbPausing => "ppb_pausing",
            Workload::MetroControl => "metro_control",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Make the workload's inputs from `seed`, with a span around each
    /// set-up layer.
    pub fn setup(self, seed: u64, scale: Scale, tr: &mut Tracer) -> Setup {
        match self {
            Workload::SbGrid | Workload::PpbPausing => {
                let cfg = SystemConfig::paper_defaults(Mbps(320.0));
                let (sessions, scheme, model): (_, Box<dyn BroadcastScheme>, Box<dyn ClientModel>) =
                    if self == Workload::SbGrid {
                        (
                            GRID_SESSIONS,
                            Box::new(Skyscraper::with_width(Width::Capped(52))),
                            Box::new(ClientPolicy::LatestFeasible),
                        )
                    } else {
                        (
                            PPB_SESSIONS,
                            Box::new(PermutationPyramid::b()),
                            Box::new(PausingClient),
                        )
                    };
                let grid = GridArrivals {
                    sessions: scale.count(sessions),
                    horizon: Minutes(sessions / GRID_RATE),
                    titles: cfg.num_videos,
                    patience: Patience::Infinite,
                    seed,
                };
                let arrivals = tr.span("arrivals", |tr| {
                    let reqs = grid.generate();
                    tr.count(reqs.len() as u64);
                    reqs
                });
                let (plan, bounds) = plan(&*scheme, &cfg, tr);
                let requests = tr.span("convert", |_| {
                    arrivals
                        .iter()
                        .map(|r| Request {
                            at: r.at,
                            video: VideoId(r.video),
                        })
                        .collect()
                });
                Setup::Sim(SimSetup {
                    plan,
                    bounds,
                    display_rate: cfg.display_rate,
                    model,
                    requests,
                    shards: 1,
                    partition: None,
                    regions: None,
                })
            }
            Workload::MetroSharded => {
                let (scenario, arrivals) = metro(
                    seed,
                    scale.rate(METRO_RATE),
                    Minutes(600.0),
                    Minutes(150.0),
                    tr,
                );
                let titles = scenario.titles();
                let cfg = SystemConfig {
                    num_videos: titles,
                    ..SystemConfig::paper_defaults(Mbps(30.0 * titles as f64))
                };
                let (plan, bounds) = plan(&Skyscraper::with_width(Width::Capped(52)), &cfg, tr);
                let (requests, of_request) = tr.span("convert", |_| {
                    arrivals
                        .iter()
                        .map(|r| {
                            (
                                Request {
                                    at: r.at,
                                    video: VideoId(r.video),
                                },
                                (r.region, r.patience.value()),
                            )
                        })
                        .unzip()
                });
                Setup::Sim(SimSetup {
                    plan,
                    bounds,
                    display_rate: cfg.display_rate,
                    model: Box::new(ClientPolicy::LatestFeasible),
                    requests,
                    shards: SHARDS,
                    partition: Some(scenario.shard_map(SHARDS)),
                    regions: Some(RegionMeta {
                        of_request,
                        regions: scenario.regions.len(),
                    }),
                })
            }
            Workload::MetroControl => {
                let (scenario, arrivals) = metro(
                    seed,
                    scale.rate(CONTROL_RATE),
                    Minutes(720.0),
                    Minutes(360.0),
                    tr,
                );
                let cfg = ControlConfig::paper_defaults(Mbps(300.0));
                let csim = tr.span("plan", |_| {
                    ControlledSim::new(cfg, &Catalog::paper_defaults(cfg.titles))
                        .expect("the paper's control defaults size a valid server")
                });
                let requests = tr.span("convert", |_| to_workload(&arrivals));
                Setup::Control(ControlSetup {
                    csim,
                    requests,
                    partition: scenario.shard_map(SHARDS),
                })
            }
        }
    }
}

/// Input size: `full` is the benchmark, `smoke` about 1% of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// About 1% of every size, for the smoke test.
    Smoke,
}

impl Scale {
    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    /// Parse a scale name.
    pub fn parse(s: &str) -> Option<Self> {
        [Scale::Full, Scale::Smoke]
            .into_iter()
            .find(|x| x.name() == s)
    }

    fn rate(self, full: f64) -> f64 {
        match self {
            Scale::Full => full,
            Scale::Smoke => full / 100.0,
        }
    }

    fn count(self, full: f64) -> usize {
        self.rate(full).round() as usize
    }
}

/// Plan `scheme` for `cfg` and build its `PlanIndex`, as the simulator
/// does on every run.
fn plan(
    scheme: &dyn BroadcastScheme,
    cfg: &SystemConfig,
    tr: &mut Tracer,
) -> (ChannelPlan, SchemeMetrics) {
    tr.span("plan", |_| {
        let plan = scheme
            .plan(cfg)
            .expect("the workload's scheme fits its bandwidth");
        std::hint::black_box(plan.index());
        let bounds = scheme.metrics(cfg).expect("a plannable scheme has metrics");
        (plan, bounds)
    })
}

/// The urban scenario and its diurnal request stream, with a premiere
/// flash crowd at `flash_at` in the busiest region.
fn metro(
    seed: u64,
    rate: f64,
    horizon: Minutes,
    flash_at: Minutes,
    tr: &mut Tracer,
) -> (MetroScenario, Vec<ScenarioRequest>) {
    tr.span("arrivals", |tr| {
        let scenario = MetroScenario::generate(&ScenarioPreset::Urban.config(GEOMETRY_SEED));
        let busiest = scenario.regions.iter().fold(0, |best, r| {
            if r.demand_share > scenario.regions[best].demand_share {
                r.id
            } else {
                best
            }
        });
        let reqs = ScenarioWorkload {
            rate_per_minute: rate,
            horizon,
            mean_patience: Minutes(MEAN_PATIENCE),
            diurnal: true,
            flash: Some(FlashCrowd {
                at: flash_at,
                region: busiest,
            }),
            seed,
        }
        .generate(&scenario);
        tr.count(reqs.len() as u64);
        (scenario, reqs)
    })
}

/// What the timed passes and the traced pass compare against: the first
/// pass's serialized outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Facts {
    /// The outcome as bytes; every pass must reproduce them.
    pub bytes: String,
    /// The streamed fold alone (system workloads).
    pub fold_json: String,
    /// The snapshot's `sim_sessions_total` (system workloads).
    pub sessions_total: u64,
}

/// A workload's inputs, ready for `execute`.
pub enum Setup {
    /// A `SystemSim` workload.
    Sim(SimSetup),
    /// The `ControlledSim` workload.
    Control(ControlSetup),
}

/// What one `execute` call returned.
pub enum Outcome {
    /// `SystemSim::execute`'s outcome and the user sink's rows.
    Sim(RunOutcome, Vec<RegionRow>),
    /// `ControlledSim::execute`'s outcome.
    Control(ControlOutcome),
}

impl Setup {
    /// Requests handed to `execute`.
    pub fn requests(&self) -> usize {
        match self {
            Setup::Sim(s) => s.requests.len(),
            Setup::Control(c) => c.requests.len(),
        }
    }

    /// The timed call: one `execute` over the whole trace.
    pub fn execute(&self) -> Result<Outcome, String> {
        match self {
            Setup::Sim(s) => s.execute(THREADS).map(|(o, rows)| Outcome::Sim(o, rows)),
            Setup::Control(c) => c.execute(THREADS).map(Outcome::Control),
        }
    }

    /// Check the outcome's invariants and serialize it.
    pub fn check(&self, out: &Outcome) -> Result<Facts, String> {
        match (self, out) {
            (Setup::Sim(s), Outcome::Sim(o, rows)) => s.check(o, rows),
            (Setup::Control(c), Outcome::Control(o)) => c.check(o),
            _ => Err("outcome from another kind of simulation".to_string()),
        }
    }
}

/// Each request's originating region and patience, for the user sink.
pub struct RegionMeta {
    of_request: Vec<(usize, f64)>,
    regions: usize,
}

/// Inputs of a `SystemSim` workload.
pub struct SimSetup {
    pub(crate) plan: ChannelPlan,
    bounds: SchemeMetrics,
    pub(crate) display_rate: Mbps,
    pub(crate) model: Box<dyn ClientModel>,
    pub(crate) requests: Vec<Request>,
    pub(crate) shards: usize,
    pub(crate) partition: Option<Vec<usize>>,
    regions: Option<RegionMeta>,
}

impl SimSetup {
    /// The simulator over this setup's plan and client model.
    pub fn sim(&self) -> SystemSim<'_> {
        SystemSim::new(&self.plan, self.display_rate, &*self.model)
    }

    /// A fresh user sink, on the workload that has one.
    pub fn region_fold(&self) -> Option<RegionFold<'_>> {
        self.regions.as_ref().map(RegionFold::new)
    }

    /// Run the whole trace on `threads` workers (only sharded runs use
    /// more than one); the outcome does not depend on `threads`.
    pub fn execute(&self, threads: usize) -> Result<(RunOutcome, Vec<RegionRow>), String> {
        let mut fold = self.region_fold();
        let mut cfg = RunConfig::new(&self.requests)
            .shards(self.shards)
            .threads(threads);
        if let Some(map) = &self.partition {
            cfg = cfg.partition(map);
        }
        if let Some(f) = fold.as_mut() {
            cfg = cfg.sink(f);
        }
        let out = self.sim().execute(cfg).map_err(|e| e.to_string())?;
        Ok((out, fold.map(RegionFold::rows).unwrap_or_default()))
    }

    /// Check the outcome's invariants and serialize it.
    pub fn check(&self, out: &RunOutcome, rows: &[RegionRow]) -> Result<Facts, String> {
        let n = self.requests.len();
        let s = &out.summary;
        ensure(
            s.sessions == n && out.fold.sessions == n,
            format!(
                "{} sessions reported, {} folded, for {n} requests",
                s.sessions, out.fold.sessions
            ),
        )?;
        let st = &out.stats;
        ensure(
            st.fired == 2 * n as u64,
            format!("{} events fired for {n} sessions", st.fired),
        )?;
        ensure(
            st.scheduled == st.fired + st.cancelled,
            format!(
                "{} events scheduled but {} fired and {} cancelled",
                st.scheduled, st.fired, st.cancelled
            ),
        )?;
        let latency = self.bounds.access_latency.value();
        ensure(
            s.worst_latency.value() <= latency + 1e-6,
            format!(
                "worst latency {} exceeds the scheme's {latency}",
                s.worst_latency.value()
            ),
        )?;
        let buffer = self.bounds.buffer_requirement.value();
        ensure(
            s.worst_buffer.value() <= buffer * (1.0 + 1e-6),
            format!(
                "worst buffer {} exceeds the scheme's {buffer}",
                s.worst_buffer.value()
            ),
        )?;
        if self.regions.is_some() {
            let folded: usize = rows.iter().map(|r| r.sessions).sum();
            ensure(
                folded == n,
                format!("the user sink saw {folded} of {n} sessions"),
            )?;
        }
        Ok(Facts {
            bytes: json(&(&out.summary, &out.fold, &out.snapshot, rows)),
            fold_json: json(&out.fold),
            sessions_total: out.snapshot.counter_total("sim_sessions_total"),
        })
    }
}

/// Inputs of the `ControlledSim` workload.
pub struct ControlSetup {
    csim: ControlledSim,
    pub(crate) requests: Vec<WorkloadRequest>,
    partition: Vec<usize>,
}

impl ControlSetup {
    /// Run the dynamic policy over the 4-shard metro on `threads`
    /// workers; the outcome does not depend on `threads`.
    pub fn execute(&self, threads: usize) -> Result<ControlOutcome, String> {
        self.csim
            .execute(
                ControlPolicy::Dynamic,
                RunConfig::new(&self.requests)
                    .shards(SHARDS)
                    .threads(threads)
                    .partition(&self.partition),
            )
            .map_err(|e| e.to_string())
    }

    /// Every request must end served, defected or rejected.
    pub fn check(&self, out: &ControlOutcome) -> Result<Facts, String> {
        let n = self.requests.len();
        let s = &out.summary;
        ensure(
            s.requests == n && s.accounted() == n,
            format!(
                "{} requests offered and {} accounted for {n} requests",
                s.requests,
                s.accounted()
            ),
        )?;
        Ok(Facts {
            bytes: json(&(&out.summary, &out.snapshot)),
            fold_json: String::new(),
            sessions_total: 0,
        })
    }
}

fn ensure(ok: bool, what: String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what)
    }
}

/// Compact JSON of an in-memory value.
pub fn json<T: Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("in-memory values always serialize")
}

/// One region's row of the user sink.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RegionRow {
    /// Sessions from the region.
    pub sessions: usize,
    /// Sessions whose startup latency exceeded the viewer's patience.
    pub defected: usize,
    /// Mean startup latency, minutes.
    pub mean_latency: f64,
    /// 95th-percentile startup latency (nearest rank), minutes.
    pub p95_latency: f64,
}

/// `metro_sharded`'s user sink: a per-region latency and would-be
/// defection fold, as the scenario study keeps. Traces arrive in global
/// engine order, which for the time-sorted request slice is slice order.
pub struct RegionFold<'a> {
    meta: &'a [(usize, f64)],
    cursor: usize,
    defected: Vec<usize>,
    latency_sum: Vec<f64>,
    latencies: Vec<Vec<f64>>,
}

impl<'a> RegionFold<'a> {
    fn new(meta: &'a RegionMeta) -> Self {
        Self {
            meta: &meta.of_request,
            cursor: 0,
            defected: vec![0; meta.regions],
            latency_sum: vec![0.0; meta.regions],
            latencies: vec![Vec::new(); meta.regions],
        }
    }

    fn rows(self) -> Vec<RegionRow> {
        (0..self.latencies.len())
            .map(|r| {
                let mut sorted = self.latencies[r].clone();
                sorted.sort_by(f64::total_cmp);
                let n = sorted.len();
                RegionRow {
                    sessions: n,
                    defected: self.defected[r],
                    mean_latency: if n == 0 {
                        0.0
                    } else {
                        self.latency_sum[r] / n as f64
                    },
                    p95_latency: if n == 0 {
                        0.0
                    } else {
                        sorted[((n as f64 - 1.0) * 0.95).round() as usize]
                    },
                }
            })
            .collect()
    }
}

impl TraceSink for RegionFold<'_> {
    fn accept(&mut self, trace: &SessionTrace) {
        let (region, patience) = self.meta[self.cursor];
        self.cursor += 1;
        let latency = trace.startup_latency().value();
        self.latency_sum[region] += latency;
        self.latencies[region].push(latency);
        if latency > patience {
            self.defected[region] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
    }

    #[test]
    fn the_same_seed_makes_the_same_inputs() {
        for w in Workload::ALL {
            let a = w.setup(5, Scale::Smoke, &mut Tracer::new());
            let b = w.setup(5, Scale::Smoke, &mut Tracer::new());
            match (&a, &b) {
                (Setup::Sim(a), Setup::Sim(b)) => assert_eq!(a.requests, b.requests),
                (Setup::Control(a), Setup::Control(b)) => assert_eq!(a.requests, b.requests),
                _ => panic!("{} changed kind", w.name()),
            }
            assert!(a.requests() > 0, "{}", w.name());
        }
    }

    #[test]
    fn every_smoke_workload_passes_its_checks() {
        for w in Workload::ALL {
            let setup = w.setup(17, Scale::Smoke, &mut Tracer::new());
            let out = setup.execute().expect("smoke inputs execute");
            let facts = setup.check(&out).expect("smoke outcome passes");
            assert!(!facts.bytes.is_empty());
        }
    }
}
