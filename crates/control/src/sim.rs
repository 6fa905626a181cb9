//! The controlled hybrid simulation: broadcast slots + batching pool under
//! an online control plane.
//!
//! [`ControlledSim`] re-runs the §1 hybrid as a discrete-event simulation
//! on [`sb_sim::Engine`], with these event kinds:
//!
//! * **Arrive** — a viewer requests a title. Fresh arrivals are known
//!   before the run, so they never enter the agenda: each shard streams
//!   them past it ([`sb_sim::Engine::run_with`]) from an index over the
//!   caller's request slice, in `(arrival tick, slice index)` order and
//!   ahead of every agenda event of their tick. The agenda holds only
//!   what is scheduled: ticks, fault events, admission retries and pool
//!   completions. Hot titles (committed in the
//!   [`ChannelAllocator`]) are served by the periodic broadcast: the wait
//!   is the time to the slot's next first-fragment cycle, at most `D₁`.
//!   Cold titles go through [`AdmissionControl`] into the per-title
//!   batching queues.
//! * **PoolDone** — a multicast stream finishes and frees a channel; the
//!   dispatcher purges reneged waiters and serves the next batch under
//!   the configured [`BatchPolicy`].
//! * **Tick** — the periodic control event. The estimator's scores are
//!   read, matured swaps commit, and (under [`ControlPolicy::Dynamic`])
//!   new swaps are planned toward the current top-`m` titles.
//! * **Fault events** — a [`FaultScript`] replays as first-class events:
//!   `OutageStart`/`OutageEnd` take a broadcast slot out of service and
//!   back (the allocator reacts with its drain-safe machinery, in-flight
//!   sessions are repaired per the run's [`Degradation`] policy, and new
//!   arrivals for the dark title are redirected to the pool); `Restart`
//!   models a server crash-recovery (pending swaps cancelled, estimator
//!   reset); `Churn` makes a seeded fraction of waiting clients abandon.
//!
//! Under [`ControlPolicy::Static`] the tick never plans a swap, so the
//! initial hot set `{0, …, m−1}` stays fixed — exactly the paper's
//! offline split. The workload, the pool, the admission rule, the fault
//! script and every event timestamp are identical between the two
//! policies; the *only* difference is whether reallocation happens. That
//! makes static-vs-dynamic sweeps a controlled experiment, with or
//! without faults.
//!
//! Everything is deterministic: the engine breaks timestamp ties FIFO,
//! queues are per-title vectors ordered by arrival, churn draws come from
//! a per-event seeded stream, and no clocks enter the control path.
//!
//! The event loop records nothing as it runs: it counts each fact once,
//! into the shard's `Tally`. Once the engine drains, the shard's
//! [`ControlReport`] and its metrics snapshot are both projected from
//! that tally. Counters add and gauges take a max in any order, and each
//! histogram series keeps its own observations in event order, so the
//! snapshot is the one per-event recording would build.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use vod_units::{Mbps, Minutes, TickDuration, TickScale};

use sb_batching::BatchPolicy;
use sb_core::config::SystemConfig;
use sb_core::error::{Result, SchemeError};
use sb_core::scheme::BroadcastScheme;
use sb_core::series::Width;
use sb_core::Skyscraper;
use sb_metrics::{MetricKind, MetricOp, Registry, Snapshot};
use sb_resilience::{Degradation, FaultScript, ResilienceOutcome};
use sb_sim::run::RunParts;
use sb_sim::shard::tick_at;
use sb_sim::{owning_shard, parallel_map, route, Engine, EngineStats, RunConfig, ShardSlice};
use sb_workload::{Catalog, WorkloadRequest};

use crate::admission::{AdmissionControl, AdmissionDecision, Backoff};
use crate::allocator::ChannelAllocator;
use crate::estimator::PopularityEstimator;

/// Whether the control plane may reassign broadcast slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ControlPolicy {
    /// The paper's offline split: the initial hot set never changes.
    Static,
    /// Online reallocation: ticks plan hysteretic, drain-safe swaps
    /// toward the estimator's current top titles.
    Dynamic,
}

impl core::fmt::Display for ControlPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ControlPolicy::Static => write!(f, "static"),
            ControlPolicy::Dynamic => write!(f, "dynamic"),
        }
    }
}

/// Configuration of the controlled hybrid server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControlConfig {
    /// Catalog size (titles are popularity ranks `0..titles`).
    pub titles: usize,
    /// Number of broadcast slots `m` (each a K-channel skyscraper group).
    pub hot_slots: usize,
    /// Total server network-I/O bandwidth.
    pub total_bandwidth: Mbps,
    /// Fraction of bandwidth reserved for the broadcast half, in `(0, 1)`.
    pub broadcast_fraction: f64,
    /// Skyscraper width cap for the broadcast half.
    pub width: Width,
    /// Batch-selection policy for the pool.
    pub batch: BatchPolicy,
    /// Control-tick period.
    pub tick: Minutes,
    /// Popularity-estimator decay half-life.
    pub half_life: Minutes,
    /// Hysteresis margin a challenger must clear to displace an incumbent.
    pub hysteresis: f64,
    /// Admission ceiling on projected pool load.
    pub admission_ceiling: f64,
    /// If set, over-ceiling requests retry on this backoff schedule
    /// instead of being rejected outright.
    pub admission_retry: Option<Backoff>,
}

impl ControlConfig {
    /// A paper-flavoured default: 40 titles, 8 broadcast slots, W = 52,
    /// MQL pool, 15-minute ticks, 45-minute half-life, 10% hysteresis,
    /// reject-only admission at 3× pool load.
    #[must_use]
    pub fn paper_defaults(total_bandwidth: Mbps) -> Self {
        Self {
            titles: 40,
            hot_slots: 8,
            total_bandwidth,
            broadcast_fraction: 0.6,
            width: Width::Capped(52),
            batch: BatchPolicy::Mql,
            tick: Minutes(15.0),
            half_life: Minutes(45.0),
            hysteresis: 0.1,
            admission_ceiling: 3.0,
            admission_retry: None,
        }
    }
}

/// What came out of a controlled run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControlReport {
    /// The policy that produced this report.
    pub policy: ControlPolicy,
    /// Total requests offered.
    pub requests: usize,
    /// Requests served by the broadcast half.
    pub served_broadcast: usize,
    /// Requests served by the batching pool.
    pub served_pool: usize,
    /// Requests whose patience ran out (either half), including waiters
    /// lost to churn events.
    pub defected: usize,
    /// Requests turned away by admission control.
    pub rejected: usize,
    /// Defer events issued by admission control (not terminal: a deferred
    /// request is later served, defects, or is rejected).
    pub deferred: usize,
    /// Slot swaps planned by the allocator.
    pub swaps_planned: usize,
    /// Slot swaps that matured and committed.
    pub swaps_committed: usize,
    /// Mean access latency over served requests.
    pub mean_latency: Minutes,
    /// 95th-percentile access latency over served requests.
    pub p95_latency: Minutes,
    /// Worst access latency over served requests.
    pub worst_latency: Minutes,
    /// The committed hot set at the end of the run, in slot order.
    pub final_hot: Vec<usize>,
    /// Channels (display-rate streams) held by the broadcast half.
    pub broadcast_channels: usize,
    /// Channels in the batching pool.
    pub pool_channels: usize,
    /// First-fragment cycle length `D₁` (= worst-case broadcast wait).
    pub cycle: Minutes,
    /// The recovery-side ledger: what the control plane did about the
    /// run's fault script (all-zero for a fault-free run).
    pub resilience: ResilienceOutcome,
}

impl ControlReport {
    /// Every offered request ends served, defected, or rejected.
    #[must_use]
    pub fn accounted(&self) -> usize {
        self.served_broadcast + self.served_pool + self.defected + self.rejected
    }
}

/// A waiter in a pool queue.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    /// Original arrival time (latency is measured from here, so deferral
    /// delay counts against the system).
    arrival: f64,
    /// Absolute patience deadline.
    deadline: f64,
}

/// An in-flight broadcast session, tracked for outage repair.
#[derive(Debug, Clone, Copy)]
struct BroadcastSession {
    /// When the session's first-fragment cycle started.
    start: f64,
    /// When delivery completes (extends when a repair stalls it).
    end: f64,
}

/// Engine event payloads.
enum Ev {
    /// Request `idx` (an index into the caller's slice) arrives;
    /// `attempt` counts admission retries already behind it (0 = fresh
    /// arrival, streamed; retries go through the agenda).
    Arrive { idx: usize, attempt: u32 },
    /// A pool stream finished, freeing a channel.
    PoolDone,
    /// Periodic control tick.
    Tick,
    /// Outage `idx` of the fault script begins.
    OutageStart { idx: usize },
    /// Outage `idx` of the fault script ends.
    OutageEnd { idx: usize },
    /// Server restart epoch.
    Restart,
    /// Churn event `idx` of the fault script fires.
    Churn { idx: usize },
}

/// One shard's share of a run, as [`ControlledSim::execute`] routes it.
struct Share<'r> {
    /// The shard's requests, in the order their fresh arrivals fire in.
    route: ShardSlice<'r, WorkloadRequest>,
    /// The shard's latest arrival, minutes; control ticks run up to it.
    horizon: f64,
    /// The global id of each shard-local title.
    titles: Vec<usize>,
}

/// How many whole cycles a broadcast admission may slip past burst-lost
/// first fragments before the client is counted as defected.
const MAX_SLIPS: usize = 64;

/// Everything a controlled run produces — the control plane's analogue
/// of [`sb_sim::RunOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct ControlOutcome {
    /// The control-plane report (identical to the historical
    /// `ControlledSim::run` output when `shards(1)`).
    pub summary: ControlReport,
    /// Engine statistics, summed across shards; `peak_agenda` is the
    /// maximum over shards. Streamed fresh arrivals count as scheduled
    /// and fired, like every other event.
    pub stats: EngineStats,
    /// Each shard's agenda high-water mark, in shard order
    /// (`len == shards`): ticks, fault events, retries and pool
    /// completions only, since fresh arrivals never enter the agenda.
    pub shard_peak_agenda: Vec<u64>,
    /// Snapshot of the run's private metrics registry, merged across
    /// shards in shard order.
    pub snapshot: Snapshot,
    /// The merged popularity view: the end-of-run estimator score for
    /// every global title, stitched from each owning shard's estimator
    /// (`len == titles`).
    pub popularity: Vec<f64>,
}

/// One control shard's raw results, pre-merge.
struct ShardOut {
    report: ControlReport,
    /// Served-request latencies, minutes (sorted within the shard).
    latencies: Vec<f64>,
    /// End-of-run estimator scores, indexed by shard-local title.
    scores: Vec<f64>,
    stats: EngineStats,
    snapshot: Snapshot,
}

/// What one shard's event loop counts, each fact once. The shard's
/// report and its metrics registry are both projections of it, taken
/// after the engine drains.
#[derive(Default)]
struct Tally {
    /// Waits of requests the broadcast half served, in event order.
    broadcast_waits: Vec<f64>,
    /// Waits of requests the pool served, in event order.
    pool_waits: Vec<f64>,
    /// Waiters whose patience ran out in a pool queue or before a retry.
    defected_pool: usize,
    /// Broadcast admissions whose slipped start passed their deadline.
    defected_broadcast: usize,
    /// Waiters lost to churn events.
    churned: usize,
    rejected: usize,
    /// Defer decisions; each is one backoff retry.
    deferred: usize,
    /// Retries turned away after their backoff budget ran dry.
    backoff_rejects: usize,
    /// Fresh arrivals for a dark hot title, sent to the pool.
    redirected: usize,
    /// Whole cycles broadcast admissions slipped past burst-lost fragments.
    burst_slips: usize,
    swaps_planned: usize,
    swaps_committed: usize,
    outages: usize,
    /// Pending swaps aborted by an outage on their slot.
    outage_cancelled: usize,
    /// Slots returned to service at an outage's end.
    restored: usize,
    restarts: usize,
    /// Pending swaps cancelled by restarts.
    restart_cancelled: usize,
    /// Fresh requests per shard-local title.
    requests: Vec<usize>,
    /// Pool batches served per shard-local title.
    batches: Vec<usize>,
    /// Lost delivery minutes per repair, by how the repair resolved them,
    /// in event order. Every repair adds one entry to `stall` or
    /// `skipped`; a quality drop adds its other half to `degraded`.
    stall: Vec<f64>,
    skipped: Vec<f64>,
    degraded: Vec<f64>,
    /// Highest queue depth and busy pool channels seen at a tick; `None`
    /// until the first tick fires.
    peaks: Option<(usize, usize)>,
}

/// A ledger's minute sum: added in event order from `+0.0`, exactly as
/// a histogram accumulates its `sum`.
fn minutes(values: &[f64]) -> f64 {
    values.iter().fold(0.0, |acc, v| acc + v)
}

impl Tally {
    /// Sessions repaired after an outage cut into them: each repair
    /// resolved its lost minutes into `stall` or `skipped`, once.
    fn repaired(&self) -> usize {
        self.stall.len() + self.skipped.len()
    }

    /// The recovery-side ledger these counts make.
    fn resilience(&self) -> ResilienceOutcome {
        ResilienceOutcome {
            outages: self.outages,
            reallocations: self.outages
                + self.outage_cancelled
                + self.restored
                + self.restart_cancelled,
            repaired_sessions: self.repaired(),
            redirected: self.redirected,
            retries: self.deferred,
            backoff_rejects: self.backoff_rejects,
            churned: self.churned,
            restarts: self.restarts,
            stall_minutes: minutes(&self.stall),
            skipped_minutes: minutes(&self.skipped),
            degraded_minutes: minutes(&self.degraded),
        }
    }

    /// The shard's metrics registry, each series written once from its
    /// count. A series' final value depends only on the operations
    /// applied to it: counters add and gauges take the max in any order,
    /// and each histogram observes its own population in event order, so
    /// the snapshot is the one per-event recording would build. A counter
    /// is written only when its count is positive and a histogram only
    /// when it has observations, so a series appears exactly when the
    /// shard counted the fact; the engine counts are always written.
    /// `titles[v]` is the global id of shard-local title `v`, the id the
    /// title series are labelled with.
    fn registry(
        &self,
        titles: &[usize],
        degradation: Degradation,
        stats: &EngineStats,
    ) -> Registry {
        let mut reg = Registry::new();
        let mut count = |name: &str, labels: &[(&str, &str)], n: usize| {
            if n > 0 {
                reg.incr(name, labels, n as u64);
            }
        };
        for ((&t, &requests), &batches) in titles.iter().zip(&self.requests).zip(&self.batches) {
            let video = t.to_string();
            count("control_requests_total", &[("video", &video)], requests);
            count("control_batches_total", &[("video", &video)], batches);
        }
        for (class, n) in [
            ("pool", self.defected_pool),
            ("broadcast", self.defected_broadcast),
            ("churn", self.churned),
        ] {
            count("control_defections_total", &[("class", class)], n);
        }
        for (kind, n) in [
            ("committed", self.swaps_committed),
            ("planned", self.swaps_planned),
            ("outage-cancelled", self.outage_cancelled),
            ("restored", self.restored),
            ("restart-cancelled", self.restart_cancelled),
        ] {
            count("control_reallocations_total", &[("kind", kind)], n);
        }
        for (name, n) in [
            ("control_rejected_total", self.rejected),
            ("control_deferrals_total", self.deferred),
            ("resilience_burst_slips_total", self.burst_slips),
            ("resilience_redirected_total", self.redirected),
            ("resilience_backoff_rejects_total", self.backoff_rejects),
            ("resilience_outages_total", self.outages),
            ("resilience_restarts_total", self.restarts),
            ("resilience_churned_total", self.churned),
            ("resilience_repaired_sessions_total", self.repaired()),
        ] {
            count(name, &[], n);
        }
        if let Some((queued, busy)) = self.peaks {
            reg.gauge_max("control_peak_queue_depth", &[], queued as f64);
            reg.gauge_max("control_peak_pool_busy", &[], busy as f64);
        }
        let mut observe = |name: &str, label: (&str, &str), values: &[f64]| {
            // Resolved but never observed, a series stays unexported.
            let id = reg.resolve(name, &[label], MetricKind::Histogram);
            for &v in values {
                reg.apply(id, MetricOp::Observe(v));
            }
        };
        let latency = "control_latency_minutes";
        observe(latency, ("class", "broadcast"), &self.broadcast_waits);
        observe(latency, ("class", "pool"), &self.pool_waits);
        let policy = ("policy", degradation.label());
        observe("resilience_stall_minutes", policy, &self.stall);
        observe("resilience_skipped_minutes", policy, &self.skipped);
        observe("resilience_degraded_minutes", policy, &self.degraded);
        for (kind, n) in [
            ("scheduled", stats.scheduled),
            ("fired", stats.fired),
            ("cancelled", stats.cancelled),
        ] {
            reg.incr("engine_events_total", &[("kind", kind)], n);
        }
        reg
    }
}

/// The controlled hybrid simulation (see [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct ControlledSim {
    cfg: ControlConfig,
    /// First-fragment cycle / worst-case broadcast wait `D₁`.
    d1: Minutes,
    /// Video length `D` (pool service time).
    video_length: Minutes,
    /// Title display rate (uniform across the catalog).
    display_rate: Mbps,
    broadcast_channels: usize,
    pool: usize,
    /// The validated fault script every run replays.
    script: FaultScript,
    /// How repair lateness is resolved for cut-into sessions.
    degradation: Degradation,
}

impl ControlledSim {
    /// Size the broadcast half and the pool for `cfg` against `catalog`.
    ///
    /// # Errors
    /// [`SchemeError::InvalidConfig`] on a malformed configuration (slot
    /// or title counts, broadcast fraction, tick period), and the usual
    /// bandwidth errors when the broadcast fraction cannot sustain one SB
    /// channel per slot or leaves an empty pool.
    pub fn new(cfg: ControlConfig, catalog: &Catalog) -> Result<Self> {
        if cfg.titles == 0 || cfg.hot_slots == 0 || cfg.hot_slots > cfg.titles {
            return Err(SchemeError::InvalidConfig {
                what: "need 0 < hot_slots <= titles",
            });
        }
        if cfg.titles > catalog.len() {
            return Err(SchemeError::InvalidConfig {
                what: "catalog smaller than configured title count",
            });
        }
        let v0 = catalog.get(0).expect("non-empty catalog");
        Self::sized(cfg, v0.length, v0.display_rate)
    }

    /// Size a server for `cfg` from the title parameters directly, with
    /// no catalog in hand — the constructor the sharded executor uses
    /// for its per-shard sub-servers.
    fn sized(cfg: ControlConfig, video_length: Minutes, display_rate: Mbps) -> Result<Self> {
        if cfg.titles == 0 || cfg.hot_slots == 0 || cfg.hot_slots > cfg.titles {
            return Err(SchemeError::InvalidConfig {
                what: "need 0 < hot_slots <= titles",
            });
        }
        if !(cfg.broadcast_fraction > 0.0 && cfg.broadcast_fraction < 1.0) {
            return Err(SchemeError::InvalidConfig {
                what: "broadcast fraction must be in (0, 1)",
            });
        }
        if !(cfg.tick.value() > 0.0 && cfg.tick.value().is_finite()) {
            return Err(SchemeError::InvalidConfig {
                what: "control tick period must be positive and finite",
            });
        }
        let sb_cfg = SystemConfig {
            server_bandwidth: Mbps(cfg.total_bandwidth.value() * cfg.broadcast_fraction),
            num_videos: cfg.hot_slots,
            video_length,
            display_rate,
        };
        let scheme = Skyscraper::with_width(cfg.width);
        let metrics = scheme.metrics(&sb_cfg)?;
        let k = scheme.channels_per_video(&sb_cfg)?;
        let broadcast_channels = k * cfg.hot_slots;
        let leftover =
            cfg.total_bandwidth.value() - broadcast_channels as f64 * display_rate.value();
        let pool = (leftover / display_rate.value()).floor() as usize;
        if pool == 0 {
            return Err(SchemeError::InsufficientBandwidth {
                channels_per_video: 0,
                required: 1,
            });
        }
        Ok(Self {
            cfg,
            d1: metrics.access_latency,
            video_length,
            display_rate,
            broadcast_channels,
            pool,
            script: FaultScript::none(),
            degradation: Degradation::Stall,
        })
    }

    /// Replay `script` on every run of this server, resolving repair
    /// lateness per `degradation`. A server built by [`Self::new`] runs
    /// fault-free, with stall repair. The script is validated here, once,
    /// however many runs replay it.
    ///
    /// # Errors
    /// [`SchemeError::InvalidConfig`] on an invalid fault script or an
    /// outage naming a broadcast slot the config does not have.
    pub fn with_faults(self, script: FaultScript, degradation: Degradation) -> Result<Self> {
        script.validate()?;
        if script
            .outages
            .iter()
            .any(|o| o.channel >= self.cfg.hot_slots)
        {
            return Err(SchemeError::InvalidConfig {
                what: "fault script outage names a broadcast slot the config does not have",
            });
        }
        Ok(Self {
            script,
            degradation,
            ..self
        })
    }

    /// Worst-case broadcast wait `D₁` (also the reallocation cycle).
    #[must_use]
    pub fn cycle(&self) -> Minutes {
        self.d1
    }

    /// Channels in the batching pool.
    #[must_use]
    pub fn pool_channels(&self) -> usize {
        self.pool
    }

    /// One shard's event loop, behind [`ControlledSim::execute`] at every
    /// shard count. The loop only counts, into a [`Tally`]; once the
    /// engine drains, the shard's report and metrics snapshot are
    /// projected from it. Returns, besides those, the raw material the
    /// merge needs: the sorted served-latency population, the end-of-run
    /// estimator scores and the engine statistics. The report's latency
    /// fields stay zero; the merge derives them from the pooled
    /// population. The shard's requests are `requests[i]` for each `i`
    /// on `share.route`, their titles mapped to shard-local ids through
    /// `local_of`.
    #[allow(clippy::too_many_lines)]
    fn run_faults_core(
        &self,
        requests: &[WorkloadRequest],
        local_of: &[(usize, usize)],
        share: &Share<'_>,
        policy: ControlPolicy,
    ) -> ShardOut {
        let (script, degradation) = (&self.script, self.degradation);
        let scale = TickScale::default();

        let mut est = PopularityEstimator::new(self.cfg.titles, self.cfg.half_life);
        let initial: Vec<usize> = (0..self.cfg.hot_slots).collect();
        let mut alloc = ChannelAllocator::new(&initial, self.d1, self.cfg.hysteresis);
        let mut adm = AdmissionControl::new(self.cfg.admission_ceiling);
        adm.retry = self.cfg.admission_retry;

        // Fresh arrivals stream past the agenda along `share.route`; the
        // agenda holds only what is scheduled here and by the handler.
        let mut eng: Engine<Ev> = Engine::new();
        let tick = self.cfg.tick.value();
        let mut t = tick;
        while t <= share.horizon {
            eng.schedule_at(tick_at(Minutes(t)), Ev::Tick);
            t += tick;
        }
        for (idx, o) in script.outages.iter().enumerate() {
            eng.schedule_at(tick_at(o.start), Ev::OutageStart { idx });
            eng.schedule_at(tick_at(o.end()), Ev::OutageEnd { idx });
        }
        for r in &script.restarts {
            eng.schedule_at(tick_at(*r), Ev::Restart);
        }
        for (idx, c) in script.churn.iter().enumerate() {
            eng.schedule_at(tick_at(c.at), Ev::Churn { idx });
        }

        // Pool state.
        let mut free = self.pool;
        let mut queues: Vec<Vec<Waiter>> = vec![Vec::new(); self.cfg.titles];
        let mut total_queued = 0usize;

        // In-flight broadcast sessions per slot, for outage repair.
        let mut active: Vec<Vec<BroadcastSession>> = vec![Vec::new(); self.cfg.hot_slots];

        let mut tally = Tally {
            requests: vec![0; self.cfg.titles],
            batches: vec![0; self.cfg.titles],
            ..Tally::default()
        };

        let video_length = self.video_length.value();
        let d1 = self.d1.value();
        let pool = self.pool;
        let batch = self.cfg.batch;

        // Purge reneged waiters, then serve batches while channels and
        // candidates last. Defined as a closure-shaped helper so both
        // Arrive and PoolDone share it.
        let dispatch = |eng: &mut Engine<Ev>,
                        now: f64,
                        free: &mut usize,
                        queues: &mut Vec<Vec<Waiter>>,
                        total_queued: &mut usize,
                        tally: &mut Tally| {
            for q in queues.iter_mut() {
                let before = q.len();
                q.retain(|w| w.deadline >= now);
                let gone = before - q.len();
                *total_queued -= gone;
                tally.defected_pool += gone;
            }
            while *free > 0 {
                let Some(v) = batch.choose(queues, |w| w.arrival) else {
                    break;
                };
                let q = core::mem::take(&mut queues[v]);
                *total_queued -= q.len();
                *free -= 1;
                tally.batches[v] += 1;
                tally.pool_waits.extend(q.iter().map(|w| now - w.arrival));
                eng.schedule_at(tick_at(Minutes(now + video_length)), Ev::PoolDone);
            }
        };

        let arrivals = share
            .route
            .iter()
            .map(|idx| (tick_at(requests[idx].at), Ev::Arrive { idx, attempt: 0 }));
        eng.run_with(arrivals, |eng, at, ev| {
            let engine_now = scale.minutes(TickDuration(at.0)).value();
            match ev {
                Ev::Arrive { idx, attempt } => {
                    let r = &requests[idx];
                    let video = local_of[r.video].1;
                    let fresh = attempt == 0;
                    // Fresh arrivals use the exact arrival time; retries
                    // use the (tick-rounded) engine clock.
                    let now = if fresh { r.at.value() } else { engine_now };
                    tally.swaps_committed += alloc.commit_matured(Minutes(now)).len();
                    if fresh {
                        est.observe(r.at, video);
                        tally.requests[video] += 1;
                    }
                    let deadline = r.at.value() + r.patience.value();
                    if let Some(slot) = alloc.slot_of(video) {
                        // Broadcast service: wait for the slot's next
                        // first-fragment cycle — slipping whole cycles
                        // past burst-lost first fragments, boundedly.
                        let mut start = now + alloc.wait_for(slot, Minutes(now)).value();
                        let mut slips = 0;
                        while slips < MAX_SLIPS
                            && script.bursts.iter().any(|b| {
                                start >= b.start.value()
                                    && start < b.end().value()
                                    && b.loss.is_lost(slot, (start / d1) as u64)
                            })
                        {
                            start += d1;
                            slips += 1;
                        }
                        tally.burst_slips += slips;
                        if start > deadline {
                            tally.defected_broadcast += 1;
                        } else {
                            tally.broadcast_waits.push(start - r.at.value());
                            active[slot].push(BroadcastSession {
                                start,
                                end: start + video_length,
                            });
                        }
                    } else if now > deadline {
                        // A retry that outlived its patience.
                        tally.defected_pool += 1;
                    } else {
                        if fresh && alloc.slot_of_any(video).is_some() {
                            // Hot but dark: redirected to the pool.
                            tally.redirected += 1;
                        }
                        match adm.decide(pool - free, total_queued, pool, attempt) {
                            AdmissionDecision::Admit => {
                                let w = Waiter {
                                    arrival: r.at.value(),
                                    deadline,
                                };
                                // Keep the queue sorted by arrival so FCFS
                                // sees the true head even after retries.
                                let pos = queues[video].partition_point(|x| x.arrival <= w.arrival);
                                queues[video].insert(pos, w);
                                total_queued += 1;
                                dispatch(
                                    eng,
                                    now,
                                    &mut free,
                                    &mut queues,
                                    &mut total_queued,
                                    &mut tally,
                                );
                            }
                            AdmissionDecision::Defer(delay) => {
                                let retry_at = now + delay.value();
                                if retry_at < deadline {
                                    tally.deferred += 1;
                                    eng.schedule_at(
                                        tick_at(Minutes(retry_at)),
                                        Ev::Arrive {
                                            idx,
                                            attempt: attempt + 1,
                                        },
                                    );
                                } else {
                                    tally.rejected += 1;
                                }
                            }
                            AdmissionDecision::Reject => {
                                if attempt > 0 {
                                    // Backoff budget exhausted, not a
                                    // plain over-ceiling turn-away.
                                    tally.backoff_rejects += 1;
                                }
                                tally.rejected += 1;
                            }
                        }
                    }
                }
                Ev::PoolDone => {
                    free += 1;
                    dispatch(
                        eng,
                        engine_now,
                        &mut free,
                        &mut queues,
                        &mut total_queued,
                        &mut tally,
                    );
                }
                Ev::Tick => {
                    let now = Minutes(engine_now);
                    tally.swaps_committed += alloc.commit_matured(now).len();
                    if policy == ControlPolicy::Dynamic {
                        tally.swaps_planned += alloc.plan(now, est.scores()).len();
                    }
                    let (queued, busy) = tally.peaks.unwrap_or_default();
                    tally.peaks = Some((queued.max(total_queued), busy.max(pool - free)));
                }
                Ev::OutageStart { idx } => {
                    let o = &script.outages[idx];
                    let now = engine_now;
                    tally.outages += 1;
                    if alloc.out_of_service(o.channel).is_some() {
                        // A swap in flight on the failed slot is aborted.
                        tally.outage_cancelled += 1;
                    }
                    // Repair every in-flight session the dark window cuts
                    // into: the lost delivery time is resolved per the
                    // degradation policy, and the session still completes.
                    let o_start = o.start.value();
                    let o_end = o.end().value();
                    active[o.channel].retain(|s| s.end > now);
                    for s in &mut active[o.channel] {
                        let overlap = (s.end.min(o_end) - s.start.max(o_start)).max(0.0);
                        if overlap <= 0.0 {
                            continue;
                        }
                        match degradation {
                            Degradation::Stall => {
                                s.end += overlap;
                                tally.stall.push(overlap);
                            }
                            Degradation::SkipSegment => tally.skipped.push(overlap),
                            Degradation::QualityDrop => {
                                let half = overlap / 2.0;
                                s.end += half;
                                tally.stall.push(half);
                                tally.degraded.push(half);
                            }
                        }
                    }
                }
                Ev::OutageEnd { idx } => {
                    let o = &script.outages[idx];
                    alloc.restore(o.channel, Minutes(engine_now));
                    tally.restored += 1;
                }
                Ev::Restart => {
                    tally.restart_cancelled += alloc.cancel_all_pending();
                    est = PopularityEstimator::new(self.cfg.titles, self.cfg.half_life);
                    tally.restarts += 1;
                }
                Ev::Churn { idx } => {
                    let c = &script.churn[idx];
                    let mut rng = SmallRng::seed_from_u64(c.seed);
                    // Queues are walked in title order, waiters in arrival
                    // order: the draw sequence is deterministic.
                    for q in queues.iter_mut() {
                        let before = q.len();
                        q.retain(|_| rng.gen::<f64>() >= c.fraction);
                        let gone = before - q.len();
                        total_queued -= gone;
                        tally.churned += gone;
                    }
                }
            }
        });

        // Every queue drains before the agenda does: a busy channel always
        // has a PoolDone ahead, and each PoolDone re-dispatches.
        debug_assert_eq!(total_queued, 0, "waiters left queued after exhaustion");

        let stats = eng.stats();
        let snapshot = tally
            .registry(&share.titles, degradation, &stats)
            .snapshot();
        let report = ControlReport {
            policy,
            requests: share.route.len(),
            served_broadcast: tally.broadcast_waits.len(),
            served_pool: tally.pool_waits.len(),
            // The leftover waiters are defensive: account for them anyway.
            defected: tally.defected_pool + tally.defected_broadcast + tally.churned + total_queued,
            rejected: tally.rejected,
            deferred: tally.deferred,
            swaps_planned: tally.swaps_planned,
            swaps_committed: tally.swaps_committed,
            mean_latency: Minutes(0.0),
            p95_latency: Minutes(0.0),
            worst_latency: Minutes(0.0),
            final_hot: alloc.hot_videos(),
            broadcast_channels: self.broadcast_channels,
            pool_channels: self.pool,
            cycle: self.d1,
            resilience: tally.resilience(),
        };
        // The two classes pool into one population, sorted here, on the
        // shard's worker, so the merge's sort only merges sorted runs.
        let mut latencies = tally.broadcast_waits;
        latencies.extend_from_slice(&tally.pool_waits);
        latencies.sort_by(f64::total_cmp);
        ShardOut {
            report,
            latencies,
            scores: est.scores().to_vec(),
            stats,
            snapshot,
        }
    }

    /// Execute `cfg` under `policy`, on one server or partitioned across
    /// `shards(S)` sub-servers.
    ///
    /// The title space is partitioned across `S = shards` sub-servers —
    /// broadcast slot `i` goes to shard `i % S`, cold titles to their
    /// [`owning_shard`] (a scenario's region table, when the config's
    /// `partition` slot covers them, keeps each region's cold tail on its
    /// region's shard) — each with `hot_slots /
    /// S`-proportional bandwidth, its own allocator, estimator, admission
    /// control and batching pool, run concurrently on the deterministic
    /// pool and merged in shard order. One shard takes the same path: its
    /// partition is the identity and its merge a copy, so `shards(1)` (the
    /// default) is exactly the single-server run, bit for bit.
    /// The sharded run is a *partitioned system model* (each shard batches
    /// and admits over its own pool), so its report differs from
    /// `shards(1)` by design; for a fixed `S` it is byte-identical for
    /// every thread count.
    ///
    /// The server's fault script (see [`Self::with_faults`]) replays on
    /// every run: outages are routed to the owning shard, restarts and
    /// churn waves reach every shard, and burst-loss episodes apply to
    /// each shard's local slot indices.
    ///
    /// The control plane produces no session traces, so its config has
    /// no sink to set; this does not compile:
    ///
    /// ```compile_fail
    /// use sb_sim::{NullSink, RunConfig};
    /// use sb_workload::WorkloadRequest;
    ///
    /// let requests: Vec<WorkloadRequest> = Vec::new();
    /// let mut sink = NullSink;
    /// let _cfg = RunConfig::new(&requests).shards(2).sink(&mut sink);
    /// ```
    ///
    /// while the same lines over the system simulator's requests do:
    ///
    /// ```
    /// use sb_sim::{NullSink, RunConfig};
    /// use sb_sim::Request;
    ///
    /// let requests: Vec<Request> = Vec::new();
    /// let mut sink = NullSink;
    /// let _cfg = RunConfig::new(&requests).shards(2).sink(&mut sink);
    /// ```
    ///
    /// # Errors
    /// [`SchemeError::InvalidConfig`] on `shards` exceeding `hot_slots`;
    /// sizing errors if a shard's bandwidth share cannot sustain its
    /// broadcast half plus a non-empty pool.
    pub fn execute(
        &self,
        policy: ControlPolicy,
        cfg: RunConfig<'_, WorkloadRequest>,
    ) -> Result<ControlOutcome> {
        let RunParts {
            requests,
            shards,
            threads,
            seed,
            partition,
            ..
        } = cfg.into_parts();
        let m = self.cfg.hot_slots;
        if shards > m {
            return Err(SchemeError::InvalidConfig {
                what: "more shards than broadcast slots",
            });
        }

        // Partition the title space. Broadcast slot (= hot title) `i`
        // goes to shard `i % S` and, because titles are visited in
        // ascending order, lands on local ids `0..k_s` — exactly the
        // sub-server's initial hot set. Cold titles go to their owning
        // shard; hot slots must stay `i % S` because the sub-server
        // bandwidth shares are sized off that stride.
        let mut titles: Vec<Vec<usize>> = vec![Vec::new(); shards];
        let mut local_of: Vec<(usize, usize)> = Vec::with_capacity(self.cfg.titles);
        for t in 0..self.cfg.titles {
            let s = if t < m {
                t % shards
            } else {
                owning_shard(t, shards, seed, partition)
            };
            local_of.push((s, titles[s].len()));
            titles[s].push(t);
        }

        // Check every title and find each shard's latest arrival, then
        // route each request to its title's shard by the shared rule: an
        // index into the caller's slice, in `(tick, slice index)` order,
        // the order its arrival fires in.
        let mut horizons = vec![0.0f64; shards];
        for r in requests {
            let Some(&(s, _)) = local_of.get(r.video) else {
                return Err(SchemeError::UnknownTitle {
                    title: r.video,
                    titles: self.cfg.titles,
                });
            };
            horizons[s] = horizons[s].max(r.at.value());
        }
        let routes = route(requests, shards, |r| local_of[r.video].0, |r| r.at).map_err(|_| {
            SchemeError::InvalidConfig {
                what: "more requests than a u32 index holds",
            }
        })?;
        let shares: Vec<Share> = routes
            .into_iter()
            .zip(titles)
            .zip(horizons)
            .map(|((route, titles), horizon)| Share {
                route,
                horizon,
                titles,
            })
            .collect();

        // Size the sub-servers: shard `s` owns `k_s` of the `m` slots
        // and gets the proportional bandwidth share, so its per-video
        // broadcast bandwidth — and with it `D₁` — matches the whole
        // server's. Outages go to the shard owning their slot; restarts,
        // bursts and churn waves are server-wide and reach every shard.
        let mut sims = Vec::with_capacity(shards);
        for (s, share) in shares.iter().enumerate() {
            let k_s = (0..m).filter(|i| i % shards == s).count();
            let cfg_s = ControlConfig {
                titles: share.titles.len(),
                hot_slots: k_s,
                total_bandwidth: Mbps(self.cfg.total_bandwidth.value() * (k_s as f64 / m as f64)),
                ..self.cfg
            };
            let mut sim = Self::sized(cfg_s, self.video_length, self.display_rate)?;
            sim.script = FaultScript {
                outages: Vec::new(),
                ..self.script.clone()
            };
            sim.degradation = self.degradation;
            sims.push(sim);
        }
        for o in &self.script.outages {
            let mut routed = *o;
            routed.channel = o.channel / shards;
            sims[o.channel % shards].script.outages.push(routed);
        }

        let inputs: Vec<usize> = (0..shards).collect();
        let outs: Vec<ShardOut> = parallel_map(threads, "control-shards", &inputs, |_, &s| {
            sims[s].run_faults_core(requests, &local_of, &shares[s], policy)
        });

        // Merge, in shard order throughout. Counters add; the latency
        // population concatenates and re-sorts; every shard replayed the
        // same restart epochs, so that one counter takes the max rather
        // than the sum.
        let mut latencies: Vec<f64> = Vec::new();
        let mut summary = ControlReport {
            policy,
            requests: requests.len(),
            served_broadcast: 0,
            served_pool: 0,
            defected: 0,
            rejected: 0,
            deferred: 0,
            swaps_planned: 0,
            swaps_committed: 0,
            mean_latency: Minutes(0.0),
            p95_latency: Minutes(0.0),
            worst_latency: Minutes(0.0),
            final_hot: vec![0; m],
            broadcast_channels: 0,
            pool_channels: 0,
            cycle: sims[0].d1,
            resilience: ResilienceOutcome::default(),
        };
        let mut stats = EngineStats::default();
        let mut shard_peak_agenda = Vec::with_capacity(shards);
        let mut snapshot = Snapshot::default();
        for out in &outs {
            let r = &out.report;
            summary.served_broadcast += r.served_broadcast;
            summary.served_pool += r.served_pool;
            summary.defected += r.defected;
            summary.rejected += r.rejected;
            summary.deferred += r.deferred;
            summary.swaps_planned += r.swaps_planned;
            summary.swaps_committed += r.swaps_committed;
            summary.broadcast_channels += r.broadcast_channels;
            summary.pool_channels += r.pool_channels;
            let res = &mut summary.resilience;
            res.outages += r.resilience.outages;
            res.reallocations += r.resilience.reallocations;
            res.repaired_sessions += r.resilience.repaired_sessions;
            res.redirected += r.resilience.redirected;
            res.retries += r.resilience.retries;
            res.backoff_rejects += r.resilience.backoff_rejects;
            res.churned += r.resilience.churned;
            res.restarts = res.restarts.max(r.resilience.restarts);
            res.stall_minutes += r.resilience.stall_minutes;
            res.skipped_minutes += r.resilience.skipped_minutes;
            res.degraded_minutes += r.resilience.degraded_minutes;
            latencies.extend_from_slice(&out.latencies);
            stats.scheduled += out.stats.scheduled;
            stats.fired += out.stats.fired;
            stats.cancelled += out.stats.cancelled;
            stats.compactions += out.stats.compactions;
            stats.peak_agenda = stats.peak_agenda.max(out.stats.peak_agenda);
            shard_peak_agenda.push(out.stats.peak_agenda);
            snapshot
                .merge(&out.snapshot)
                .map_err(|e| SchemeError::MetricMerge {
                    what: e.to_string(),
                })?;
        }
        for (i, slot) in summary.final_hot.iter_mut().enumerate() {
            let s = i % shards;
            let local_hot = outs[s].report.final_hot[i / shards];
            *slot = shares[s].titles[local_hot];
        }

        latencies.sort_by(f64::total_cmp);
        summary.mean_latency = Minutes(if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<f64>() / latencies.len() as f64
        });
        summary.p95_latency = Minutes(if latencies.is_empty() {
            0.0
        } else {
            let i = ((latencies.len() as f64 * 0.95).ceil() as usize).clamp(1, latencies.len());
            latencies[i - 1]
        });
        summary.worst_latency = Minutes(latencies.last().copied().unwrap_or(0.0));

        let mut popularity = vec![0.0; self.cfg.titles];
        for (t, score) in popularity.iter_mut().enumerate() {
            let (s, local) = local_of[t];
            *score = outs[s].scores[local];
        }

        Ok(ControlOutcome {
            summary,
            stats,
            shard_peak_agenda,
            snapshot,
            popularity,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_resilience::{BurstEpisode, ChannelOutage, ChurnEvent, GilbertElliott};
    use sb_workload::{Patience, PoissonArrivals, PopularityShift, ZipfPopularity};

    fn shifted_workload(
        titles: usize,
        rate: f64,
        horizon: f64,
        shift_at: f64,
        rotate: usize,
        seed: u64,
    ) -> Vec<WorkloadRequest> {
        PopularityShift {
            arrivals: PoissonArrivals::new(rate, seed)
                .with_patience(Patience::Exponential(Minutes(30.0))),
            shift_at: Minutes(shift_at),
            rotate,
        }
        .generate(&ZipfPopularity::paper(titles), Minutes(horizon))
    }

    fn sim(bandwidth: f64) -> ControlledSim {
        let cfg = ControlConfig::paper_defaults(Mbps(bandwidth));
        let catalog = Catalog::paper_defaults(cfg.titles);
        ControlledSim::new(cfg, &catalog).unwrap()
    }

    fn exec(sim: &ControlledSim, reqs: &[WorkloadRequest], policy: ControlPolicy) -> ControlReport {
        sim.execute(policy, RunConfig::new(reqs)).unwrap().summary
    }

    fn exec_faults(
        sim: &ControlledSim,
        reqs: &[WorkloadRequest],
        policy: ControlPolicy,
        script: &FaultScript,
        degradation: Degradation,
    ) -> Result<ControlReport> {
        let sim = sim.clone().with_faults(script.clone(), degradation)?;
        Ok(sim.execute(policy, RunConfig::new(reqs))?.summary)
    }

    #[test]
    fn accounting_adds_up_under_both_policies() {
        let sim = sim(300.0);
        let reqs = shifted_workload(40, 3.0, 400.0, 200.0, 13, 5);
        for policy in [ControlPolicy::Static, ControlPolicy::Dynamic] {
            let report = exec(&sim, &reqs, policy);
            assert_eq!(report.accounted(), reqs.len(), "{policy}");
            assert!(
                report.resilience.is_quiet(),
                "fault-free run took recovery actions"
            );
        }
    }

    #[test]
    fn static_policy_never_reallocates() {
        let sim = sim(300.0);
        let reqs = shifted_workload(40, 3.0, 400.0, 200.0, 13, 7);
        let report = exec(&sim, &reqs, ControlPolicy::Static);
        assert_eq!(report.swaps_planned, 0);
        assert_eq!(report.swaps_committed, 0);
        assert_eq!(report.final_hot, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn dynamic_policy_tracks_the_shift() {
        let sim = sim(300.0);
        // Rotate the head of the Zipf right out of the initial hot set.
        let reqs = shifted_workload(40, 6.0, 500.0, 120.0, 20, 11);
        let report = exec(&sim, &reqs, ControlPolicy::Dynamic);
        assert!(report.swaps_committed > 0, "no swaps committed");
        // The post-shift favourites are ranks 20.. (old rank r now arrives
        // as (r + 20) % 40); the final hot set should have moved there.
        let moved = report
            .final_hot
            .iter()
            .filter(|&&v| (20..28).contains(&v))
            .count();
        assert!(moved >= 4, "final hot set {:?}", report.final_hot);
    }

    #[test]
    fn broadcast_wait_never_exceeds_the_cycle() {
        let sim = sim(300.0);
        let reqs = shifted_workload(40, 4.0, 300.0, 150.0, 10, 3);
        for policy in [ControlPolicy::Static, ControlPolicy::Dynamic] {
            let snap = sim.execute(policy, RunConfig::new(&reqs)).unwrap().snapshot;
            let h = snap
                .histogram("control_latency_minutes", "class=broadcast")
                .expect("broadcast latency recorded");
            // Broadcast waits are bounded by D₁ (fresh arrivals); only
            // deferred pool arrivals could see more, and they are class=pool.
            assert!(h.count > 0);
            assert!(
                h.sum / h.count as f64 <= sim.cycle().value(),
                "mean broadcast wait above the cycle bound"
            );
        }
    }

    #[test]
    fn reruns_are_bit_identical() {
        let sim = sim(240.0);
        let reqs = shifted_workload(40, 5.0, 300.0, 150.0, 15, 29);
        let a = sim
            .execute(ControlPolicy::Dynamic, RunConfig::new(&reqs))
            .unwrap();
        let b = sim
            .execute(ControlPolicy::Dynamic, RunConfig::new(&reqs))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn admission_rejects_under_overload() {
        let cfg = ControlConfig {
            admission_ceiling: 1.5,
            ..ControlConfig::paper_defaults(Mbps(200.0))
        };
        let catalog = Catalog::paper_defaults(cfg.titles);
        let sim = ControlledSim::new(cfg, &catalog).unwrap();
        // Patient viewers + heavy load: queues build until the ceiling.
        let reqs = PoissonArrivals::new(8.0, 17)
            .with_patience(Patience::Infinite)
            .generate(&ZipfPopularity::paper(40), Minutes(400.0));
        let report = exec(&sim, &reqs, ControlPolicy::Static);
        assert!(report.rejected > 0, "ceiling never triggered");
        assert_eq!(report.accounted(), reqs.len());
    }

    #[test]
    fn deferral_retries_instead_of_rejecting() {
        let cfg = ControlConfig {
            admission_ceiling: 1.5,
            admission_retry: Some(Backoff::fixed(Minutes(5.0)).unwrap()),
            ..ControlConfig::paper_defaults(Mbps(200.0))
        };
        let catalog = Catalog::paper_defaults(cfg.titles);
        let sim = ControlledSim::new(cfg, &catalog).unwrap();
        let reqs = PoissonArrivals::new(8.0, 17)
            .with_patience(Patience::Exponential(Minutes(40.0)))
            .generate(&ZipfPopularity::paper(40), Minutes(400.0));
        let report = exec(&sim, &reqs, ControlPolicy::Static);
        assert!(report.deferred > 0, "no deferrals issued");
        assert_eq!(report.accounted(), reqs.len());
    }

    #[test]
    fn bounded_backoff_rejects_after_the_attempt_budget() {
        let cfg = ControlConfig {
            admission_ceiling: 1.2,
            admission_retry: Some(Backoff::new(Minutes(2.0), 2.0, 3).unwrap()),
            ..ControlConfig::paper_defaults(Mbps(200.0))
        };
        let catalog = Catalog::paper_defaults(cfg.titles);
        let sim = ControlledSim::new(cfg, &catalog).unwrap();
        // Very patient viewers: the only way out of a full pool is the
        // backoff budget running dry.
        let reqs = PoissonArrivals::new(10.0, 23)
            .with_patience(Patience::Infinite)
            .generate(&ZipfPopularity::paper(40), Minutes(400.0));
        let report = exec_faults(
            &sim,
            &reqs,
            ControlPolicy::Static,
            &FaultScript::none(),
            Degradation::Stall,
        )
        .unwrap();
        assert!(report.resilience.retries > 0, "no backoff retries");
        assert!(
            report.resilience.backoff_rejects > 0,
            "attempt cap never reached"
        );
        assert_eq!(report.accounted(), reqs.len());
    }

    #[test]
    fn invalid_configs_error_instead_of_panicking() {
        let catalog = Catalog::paper_defaults(40);
        let bad_slots = ControlConfig {
            hot_slots: 0,
            ..ControlConfig::paper_defaults(Mbps(300.0))
        };
        assert!(ControlledSim::new(bad_slots, &catalog).is_err());
        let bad_tick = ControlConfig {
            tick: Minutes(0.0),
            ..ControlConfig::paper_defaults(Mbps(300.0))
        };
        assert!(ControlledSim::new(bad_tick, &catalog).is_err());
        let bad_fraction = ControlConfig {
            broadcast_fraction: 1.5,
            ..ControlConfig::paper_defaults(Mbps(300.0))
        };
        assert!(ControlledSim::new(bad_fraction, &catalog).is_err());
    }

    #[test]
    fn outage_redirects_arrivals_and_repairs_sessions() {
        let sim = sim(300.0);
        let reqs = shifted_workload(40, 6.0, 400.0, 200.0, 13, 5);
        let script = FaultScript {
            outages: vec![ChannelOutage {
                channel: 0,
                start: Minutes(100.0),
                duration: Minutes(60.0),
            }],
            ..FaultScript::none()
        };
        for policy in [ControlPolicy::Static, ControlPolicy::Dynamic] {
            let report = exec_faults(&sim, &reqs, policy, &script, Degradation::Stall).unwrap();
            assert_eq!(report.accounted(), reqs.len(), "{policy}");
            assert_eq!(report.resilience.outages, 1);
            assert!(
                report.resilience.redirected > 0,
                "{policy}: nobody redirected"
            );
            assert!(
                report.resilience.repaired_sessions > 0,
                "{policy}: no sessions repaired"
            );
            assert!(report.resilience.stall_minutes > 0.0);
        }
    }

    #[test]
    fn degradation_policies_fill_their_own_ledgers() {
        let sim = sim(300.0);
        let reqs = shifted_workload(40, 6.0, 400.0, 200.0, 13, 5);
        let script = FaultScript {
            outages: vec![ChannelOutage {
                channel: 1,
                start: Minutes(120.0),
                duration: Minutes(45.0),
            }],
            ..FaultScript::none()
        };
        let run = |d: Degradation| {
            exec_faults(&sim, &reqs, ControlPolicy::Static, &script, d)
                .unwrap()
                .resilience
        };
        let stall = run(Degradation::Stall);
        assert!(stall.stall_minutes > 0.0 && stall.skipped_minutes == 0.0);
        let skip = run(Degradation::SkipSegment);
        assert!(skip.skipped_minutes > 0.0 && skip.stall_minutes == 0.0);
        let quality = run(Degradation::QualityDrop);
        assert!(quality.stall_minutes > 0.0 && quality.degraded_minutes > 0.0);
        // Same faults, same repairs — only the resolution differs.
        assert_eq!(stall.repaired_sessions, skip.repaired_sessions);
        assert!((skip.skipped_minutes - stall.stall_minutes).abs() < 1e-9);
        assert!((quality.stall_minutes - stall.stall_minutes / 2.0).abs() < 1e-9);
    }

    #[test]
    fn churn_defects_a_seeded_fraction_of_waiters() {
        let cfg = ControlConfig {
            admission_ceiling: 5.0,
            ..ControlConfig::paper_defaults(Mbps(200.0))
        };
        let catalog = Catalog::paper_defaults(cfg.titles);
        let sim = ControlledSim::new(cfg, &catalog).unwrap();
        let reqs = PoissonArrivals::new(8.0, 17)
            .with_patience(Patience::Infinite)
            .generate(&ZipfPopularity::paper(40), Minutes(300.0));
        let script = FaultScript {
            churn: vec![ChurnEvent {
                at: Minutes(150.0),
                fraction: 0.5,
                seed: 9,
            }],
            ..FaultScript::none()
        };
        let report = exec_faults(
            &sim,
            &reqs,
            ControlPolicy::Static,
            &script,
            Degradation::Stall,
        )
        .unwrap();
        assert!(report.resilience.churned > 0, "nobody churned");
        assert_eq!(report.accounted(), reqs.len());
        // Deterministic: same script, same churn.
        let again = exec_faults(
            &sim,
            &reqs,
            ControlPolicy::Static,
            &script,
            Degradation::Stall,
        )
        .unwrap();
        assert_eq!(report, again);
    }

    #[test]
    fn restart_resets_the_estimator_and_cancels_swaps() {
        let sim = sim(300.0);
        let reqs = shifted_workload(40, 6.0, 500.0, 120.0, 20, 11);
        let script = FaultScript {
            restarts: vec![Minutes(130.0)],
            ..FaultScript::none()
        };
        let report = exec_faults(
            &sim,
            &reqs,
            ControlPolicy::Dynamic,
            &script,
            Degradation::Stall,
        )
        .unwrap();
        assert_eq!(report.resilience.restarts, 1);
        assert_eq!(report.accounted(), reqs.len());
        // Recovery continues after the restart: the shift still gets
        // tracked once the estimator re-learns it.
        assert!(report.swaps_committed > 0);
    }

    #[test]
    fn fault_scripts_are_validated() {
        let bad_slot = FaultScript {
            outages: vec![ChannelOutage {
                channel: 99,
                start: Minutes(10.0),
                duration: Minutes(5.0),
            }],
            ..FaultScript::none()
        };
        let bad_window = FaultScript {
            outages: vec![ChannelOutage {
                channel: 0,
                start: Minutes(10.0),
                duration: Minutes(0.0),
            }],
            ..FaultScript::none()
        };
        for script in [bad_slot, bad_window] {
            let err = sim(300.0).with_faults(script, Degradation::Stall);
            assert!(matches!(err, Err(SchemeError::InvalidConfig { .. })));
        }
    }

    #[test]
    fn sharded_control_partitions_and_is_thread_invariant() {
        let sim = sim(300.0);
        let reqs = shifted_workload(40, 5.0, 400.0, 200.0, 13, 5);
        for shards in [2, 4, 8] {
            let base = sim
                .execute(ControlPolicy::Dynamic, RunConfig::new(&reqs).shards(shards))
                .unwrap();
            assert_eq!(base.summary.accounted(), reqs.len(), "S={shards}");
            assert_eq!(base.summary.final_hot.len(), 8);
            assert_eq!(base.popularity.len(), 40);
            assert_eq!(base.shard_peak_agenda.len(), shards);
            // The hot partition keeps every slot owned by a real title.
            let mut hot = base.summary.final_hot.clone();
            hot.sort_unstable();
            hot.dedup();
            assert_eq!(hot.len(), 8, "duplicate titles across shards");
            for threads in [2, 4] {
                let out = sim
                    .execute(
                        ControlPolicy::Dynamic,
                        RunConfig::new(&reqs).shards(shards).threads(threads),
                    )
                    .unwrap();
                assert_eq!(base, out, "S={shards} T={threads} diverged");
            }
        }
    }

    #[test]
    fn sharded_control_routes_faults_to_owning_shards() {
        let sim = sim(300.0);
        let reqs = shifted_workload(40, 6.0, 400.0, 200.0, 13, 5);
        let script = FaultScript {
            outages: vec![ChannelOutage {
                channel: 5,
                start: Minutes(100.0),
                duration: Minutes(60.0),
            }],
            restarts: vec![Minutes(220.0)],
            ..FaultScript::none()
        };
        let out = sim
            .with_faults(script, Degradation::Stall)
            .unwrap()
            .execute(ControlPolicy::Static, RunConfig::new(&reqs).shards(4))
            .unwrap();
        let res = &out.summary.resilience;
        assert_eq!(res.outages, 1, "outage lands on exactly one shard");
        assert_eq!(res.restarts, 1, "server-wide restart counted once");
        assert_eq!(out.summary.accounted(), reqs.len());
    }

    #[test]
    fn sharded_title_series_carry_global_titles() {
        let sim = sim(300.0);
        let reqs = shifted_workload(40, 6.0, 400.0, 200.0, 13, 5);
        let mut fresh = vec![0; 40];
        for r in &reqs {
            fresh[r.video] += 1;
        }
        for policy in [ControlPolicy::Static, ControlPolicy::Dynamic] {
            let snap = sim
                .execute(policy, RunConfig::new(&reqs).shards(4))
                .unwrap()
                .snapshot;
            for (t, &n) in fresh.iter().enumerate() {
                let label = format!("video={t}");
                let got = snap.counter("control_requests_total", &label);
                assert_eq!(got.unwrap_or(0), n, "{policy}: requests for title {t}");
            }
            if policy == ControlPolicy::Dynamic {
                continue;
            }
            // Under the static split the hot titles 0..8 are never batched.
            for s in &snap.family("control_batches_total").unwrap().series {
                let t: usize = s.labels["video=".len()..].parse().unwrap();
                assert!(t >= 8, "hot title {t} was batched");
            }
        }
    }

    #[test]
    fn sharding_past_the_slot_count_errors() {
        let sim = sim(300.0);
        let reqs = shifted_workload(40, 3.0, 100.0, 50.0, 5, 1);
        let err = sim
            .execute(ControlPolicy::Static, RunConfig::new(&reqs).shards(16))
            .unwrap_err();
        assert!(matches!(err, SchemeError::InvalidConfig { .. }));
    }

    #[test]
    fn an_unknown_title_is_an_error_at_every_shard_count() {
        let sim = sim(300.0);
        let mut reqs = shifted_workload(40, 3.0, 100.0, 50.0, 5, 1);
        reqs[7].video = 45;
        for shards in [1, 4] {
            let err = sim
                .execute(ControlPolicy::Static, RunConfig::new(&reqs).shards(shards))
                .unwrap_err();
            assert_eq!(
                err,
                SchemeError::UnknownTitle {
                    title: 45,
                    titles: 40
                },
                "S={shards}"
            );
            assert!(err.to_string().contains("title 45"), "{err}");
        }
    }

    #[test]
    fn the_agenda_holds_no_fresh_arrivals() {
        // Fresh arrivals stream past the agenda, so a shard's agenda
        // peaks at its ticks, faults, retries and pool completions: far
        // below its request count.
        let sim = retrying_sim()
            .with_faults(pinned_script(), Degradation::Stall)
            .unwrap();
        let reqs = shifted_workload(40, 6.0, 400.0, 200.0, 13, 5);
        for shards in [1, 4] {
            let out = sim
                .execute(ControlPolicy::Dynamic, RunConfig::new(&reqs).shards(shards))
                .unwrap();
            let mut per_shard = vec![0usize; shards];
            for r in &reqs {
                let s = if r.video < 8 {
                    r.video % shards
                } else {
                    owning_shard(r.video, shards, 0, None)
                };
                per_shard[s] += 1;
            }
            for (s, (&peak, &n)) in out.shard_peak_agenda.iter().zip(&per_shard).enumerate() {
                assert!(
                    peak > 0 && peak * 5 < n as u64,
                    "S={shards} shard {s}: agenda peaked at {peak} for {n} requests"
                );
            }
        }
    }

    /// FNV-1a 64-bit over `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The fault script the pinned digests replay: one outage on slot 5,
    /// a restart, a burst-loss episode and a churn wave.
    fn pinned_script() -> FaultScript {
        FaultScript {
            outages: vec![ChannelOutage {
                channel: 5,
                start: Minutes(100.0),
                duration: Minutes(60.0),
            }],
            restarts: vec![Minutes(220.0)],
            bursts: vec![BurstEpisode {
                start: Minutes(250.0),
                duration: Minutes(40.0),
                loss: GilbertElliott::burst(3.0, 6.0, 0.8, 4).unwrap(),
            }],
            churn: vec![ChurnEvent {
                at: Minutes(300.0),
                fraction: 0.3,
                seed: 9,
            }],
        }
    }

    /// A server whose admission ceiling defers and then, past a bounded
    /// backoff budget, rejects.
    fn retrying_sim() -> ControlledSim {
        let cfg = ControlConfig {
            admission_ceiling: 1.2,
            admission_retry: Some(Backoff::new(Minutes(2.0), 2.0, 3).unwrap()),
            ..ControlConfig::paper_defaults(Mbps(200.0))
        };
        ControlledSim::new(cfg, &Catalog::paper_defaults(cfg.titles)).unwrap()
    }

    /// The tick a minute value lands on, as the engine rounds it.
    fn tick_of(m: f64) -> u64 {
        TickScale::default().duration_from_minutes(Minutes(m)).0
    }

    /// A request at `at` for `video` with a fixed 30-minute patience.
    fn request(at: f64, video: usize) -> WorkloadRequest {
        WorkloadRequest {
            at: Minutes(at),
            video,
            patience: Minutes(30.0),
        }
    }

    /// The pinned rows' workload in a fixed scrambled order, plus
    /// requests that land exactly on the tick of other requests (one a
    /// hair above and one a hair below the tick's minute), of control
    /// ticks and of the pinned script's outage start, restart and churn
    /// wave. Fresh arrivals fire in `(tick, slice index)` order and
    /// before every other event of their tick; this slice exercises
    /// both rules.
    fn unsorted_workload() -> Vec<WorkloadRequest> {
        let base = shifted_workload(40, 6.0, 400.0, 200.0, 13, 5);
        let mut reqs = base.clone();
        let per_tick = 6000.0; // ticks per minute at the default scale
        for r in [&base[100], &base[1000]] {
            let t = tick_of(r.at.value()) as f64;
            for (offset, video) in [(0.3, 25), (-0.3, 3), (0.0, 17)] {
                let at = (t + offset) / per_tick;
                assert_eq!(tick_of(at), t as u64, "the extra shares the tick");
                reqs.push(request(at, video));
            }
        }
        for at in [45.0, 90.0, 100.0, 195.0, 220.0, 300.0] {
            for video in [5, 0, 30, 12] {
                reqs.push(request(at, video));
            }
        }
        // FNV-1a of the position orders the slice: a fixed permutation.
        let mut order: Vec<usize> = (0..reqs.len()).collect();
        order.sort_by_key(|&i| fnv1a(&i.to_le_bytes()));
        order.into_iter().map(|i| reqs[i]).collect()
    }

    /// The pinned rows' workload plus fresh arrivals on the ticks where
    /// deferrals of `retrying_sim` retry: the first retry of every
    /// tenth request (2 minutes after it), and the second retry of
    /// every thirtieth (4 minutes after the first, on the tick-rounded
    /// clock).
    fn retry_tie_workload() -> Vec<WorkloadRequest> {
        let base = shifted_workload(40, 6.0, 400.0, 200.0, 13, 5);
        let mut reqs = base.clone();
        let scale = TickScale::default();
        for (i, r) in base.iter().enumerate().filter(|(i, _)| i % 10 == 0) {
            let first = r.at.value() + 2.0;
            reqs.push(request(first, (r.video + 11) % 40));
            if i % 30 == 0 {
                let clock = scale.minutes(TickDuration(tick_of(first))).value();
                reqs.push(request(clock + 4.0, (r.video + 23) % 40));
            }
        }
        reqs.sort_by(|a, b| a.at.value().total_cmp(&b.at.value()));
        reqs
    }

    /// A pinned row: name, server, requests, shards and the degradation
    /// policy of the pinned fault script (`None`: fault-free).
    type Row<'a> = (
        &'a str,
        &'a ControlledSim,
        &'a [WorkloadRequest],
        usize,
        Option<Degradation>,
    );

    #[test]
    fn execute_digests_are_pinned() {
        // Summary, merged snapshot and popularity bits of fixed runs,
        // pinned as digests: a change to how `execute` partitions, runs,
        // counts or merges must leave every one of them unchanged. The
        // rows cover one shard and four, every degradation policy, an
        // admission that defers and exhausts its backoff budget, and the
        // FCFS batch policy; the last three rows pin the order of fresh
        // arrivals on an unsorted slice and on tick ties with other
        // events. The digested tuple ends in an empty
        // snapshot, kept so the digests stay those taken when it held a
        // caller's registry.
        let sim300 = sim(300.0);
        let retrying = retrying_sim();
        let fcfs = {
            let cfg = ControlConfig {
                batch: BatchPolicy::Fcfs,
                ..ControlConfig::paper_defaults(Mbps(300.0))
            };
            ControlledSim::new(cfg, &Catalog::paper_defaults(cfg.titles)).unwrap()
        };
        let reqs = shifted_workload(40, 6.0, 400.0, 200.0, 13, 5);
        let unsorted = unsorted_workload();
        let retry_ties = retry_tie_workload();
        let script = pinned_script();
        let stall = Some(Degradation::Stall);
        let rows: [Row; 11] = [
            ("S=1 quiet", &sim300, &reqs, 1, None),
            ("S=1 stall", &sim300, &reqs, 1, stall),
            ("S=4 quiet", &sim300, &reqs, 4, None),
            ("S=4 stall", &sim300, &reqs, 4, stall),
            (
                "S=1 skip",
                &sim300,
                &reqs,
                1,
                Some(Degradation::SkipSegment),
            ),
            (
                "S=1 quality",
                &sim300,
                &reqs,
                1,
                Some(Degradation::QualityDrop),
            ),
            ("S=1 backoff", &retrying, &reqs, 1, stall),
            ("S=1 fcfs", &fcfs, &reqs, 1, stall),
            ("S=1 unsorted", &sim300, &unsorted, 1, stall),
            ("S=4 unsorted", &sim300, &unsorted, 4, stall),
            ("S=1 retry ties", &retrying, &retry_ties, 1, stall),
        ];
        let mut got = Vec::new();
        for (name, sim, reqs, shards, degradation) in rows {
            let sim = match degradation {
                Some(degradation) => sim.clone().with_faults(script.clone(), degradation),
                None => Ok(sim.clone()),
            }
            .unwrap();
            let out = sim
                .execute(ControlPolicy::Dynamic, RunConfig::new(reqs).shards(shards))
                .unwrap();
            let res = &out.summary.resilience;
            assert_eq!(
                res.outages == 1 && res.restarts == 1,
                degradation.is_some(),
                "{name}"
            );
            let popularity: Vec<u64> = out.popularity.iter().map(|p| p.to_bits()).collect();
            let bytes = serde_json::to_string(&(
                &out.summary,
                &out.snapshot,
                popularity,
                Snapshot::default(),
            ))
            .unwrap();
            got.push((name, fnv1a(bytes.as_bytes())));
        }
        let want = [
            ("S=1 quiet", 0x610f_3099_43b7_fb46),
            ("S=1 stall", 0x36b0_defd_ad46_f4ab),
            ("S=4 quiet", 0xee46_d38b_b7d3_2d3e),
            ("S=4 stall", 0xe966_6d28_ff88_2d9d),
            ("S=1 skip", 0x2890_e782_88f5_86a0),
            ("S=1 quality", 0x9833_467b_27e6_c23b),
            ("S=1 backoff", 0xf6c0_c4e8_cc5a_6ddc),
            ("S=1 fcfs", 0x35da_b3cd_3042_f5f9),
            ("S=1 unsorted", 0x8318_efcc_26ab_5a0a),
            ("S=4 unsorted", 0x11e3_74cb_e47d_d341),
            ("S=1 retry ties", 0x872b_9c1f_da48_c3cf),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn the_snapshot_agrees_with_the_report_at_one_shard() {
        let sim = retrying_sim();
        let reqs = shifted_workload(40, 6.0, 400.0, 200.0, 13, 5);
        let script = pinned_script();
        for degradation in [
            Degradation::Stall,
            Degradation::SkipSegment,
            Degradation::QualityDrop,
        ] {
            let out = sim
                .clone()
                .with_faults(script.clone(), degradation)
                .unwrap()
                .execute(ControlPolicy::Dynamic, RunConfig::new(&reqs))
                .unwrap();
            let (r, res, snap) = (&out.summary, &out.summary.resilience, &out.snapshot);
            let total = |name: &str| snap.counter_total(name) as usize;
            let counter =
                |name: &str, labels: &str| snap.counter(name, labels).unwrap_or(0) as usize;
            assert!(res.retries > 0 && res.backoff_rejects > 0 && res.churned > 0);
            assert!(res.repaired_sessions > 0 && res.redirected > 0);
            assert_eq!(total("control_requests_total"), reqs.len());
            assert_eq!(total("control_rejected_total"), r.rejected);
            assert_eq!(total("control_deferrals_total"), r.deferred);
            assert_eq!(r.deferred, res.retries);
            assert_eq!(total("control_defections_total"), r.defected);
            assert_eq!(
                counter("control_defections_total", "class=churn"),
                res.churned
            );
            assert_eq!(total("resilience_redirected_total"), res.redirected);
            assert_eq!(
                total("resilience_backoff_rejects_total"),
                res.backoff_rejects
            );
            assert_eq!(total("resilience_outages_total"), res.outages);
            assert_eq!(
                total("resilience_repaired_sessions_total"),
                res.repaired_sessions
            );
            assert_eq!(total("resilience_churned_total"), res.churned);
            assert_eq!(total("resilience_restarts_total"), res.restarts);
            let realloc = |kind: &str| counter("control_reallocations_total", kind);
            assert_eq!(realloc("kind=committed"), r.swaps_committed);
            assert_eq!(realloc("kind=planned"), r.swaps_planned);
            assert_eq!(
                res.outages
                    + realloc("kind=outage-cancelled")
                    + realloc("kind=restored")
                    + realloc("kind=restart-cancelled"),
                res.reallocations
            );
            let count = |labels: &str| {
                snap.histogram("control_latency_minutes", labels)
                    .map_or(0, |h| h.count) as usize
            };
            assert_eq!(count("class=broadcast"), r.served_broadcast);
            assert_eq!(count("class=pool"), r.served_pool);
            let policy = format!("policy={}", degradation.label());
            let sum = |name: &str| snap.histogram(name, &policy).map_or(0.0, |h| h.sum);
            assert_eq!(
                sum("resilience_stall_minutes").to_bits(),
                res.stall_minutes.to_bits()
            );
            assert_eq!(
                sum("resilience_skipped_minutes").to_bits(),
                res.skipped_minutes.to_bits()
            );
            assert_eq!(
                sum("resilience_degraded_minutes").to_bits(),
                res.degraded_minutes.to_bits()
            );
        }
    }
}
