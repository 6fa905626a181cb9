//! Whole-system simulation: many clients against one broadcast plan.
//!
//! Periodic broadcast's selling point (§1) is that server load is
//! *independent of the request rate* — the channels burn the same
//! bandwidth whether one client or a million watch. What varies with load
//! is the client-side picture: how many sessions are active, what startup
//! latencies the population experiences, how much buffer the worst client
//! of the day needed. [`SystemSim`] aggregates exactly those statistics.
//!
//! Clients under periodic broadcast never interact, so a run needs no
//! event engine: it is one ordered sweep. The requests are served in
//! `(arrival tick, slice index)` order, and an `ActiveSweep` keeps the
//! end ticks of the sessions still playing, popping those strictly
//! before each arrival and draining the rest after the last one. The
//! serial run, each shard, a resumed checkpoint and the shard merge all
//! share that sweep.
//!
//! The simulation is scheme-agnostic: any [`ClientModel`] — a
//! [`crate::policy::ClientPolicy`] for the tune-at-start schemes, a
//! [`crate::trace::PausingClient`] for PPB's max-saving client, a
//! [`crate::trace::RecordingClient`] for Harmonic Broadcasting — plugs
//! into the same [`SystemSim`], because every model reduces its sessions
//! to the common [`crate::trace::SessionTrace`].

use sb_metrics::{Recorder, Registry, Snapshot, TeeRecorder};
use serde::{Deserialize, Serialize};
use vod_units::{Mbits, Mbps, Minutes, TickScale, Ticks};

use sb_core::plan::{ChannelPlan, VideoId};

use crate::agenda::MinQueue;
use crate::checkpoint::{encode_state, CheckpointState, Probe, ShardCrash, Verdict};
use crate::engine::EngineStats;
use crate::policy::PolicyError;
use crate::shard::SessionScalars;
use crate::sink::{SessionSummary, TraceSink};
use crate::trace::ClientModel;

/// One viewer request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Arrival time.
    pub at: Minutes,
    /// Requested video.
    pub video: VideoId,
}

/// Aggregate statistics from a system run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemReport {
    /// Number of sessions served.
    pub sessions: usize,
    /// Mean startup latency over all sessions.
    pub mean_latency: Minutes,
    /// Median (p50) startup latency.
    pub p50_latency: Minutes,
    /// 95th-percentile startup latency.
    pub p95_latency: Minutes,
    /// Worst startup latency over all sessions.
    pub worst_latency: Minutes,
    /// Worst per-client peak buffer over all sessions.
    pub worst_buffer: Mbits,
    /// Largest number of simultaneously active sessions.
    pub peak_active_sessions: usize,
    /// Total client-hours of playback delivered.
    pub delivered_minutes: Minutes,
}

impl SystemReport {
    /// The report of a run whose sessions folded into `fold`: every field
    /// is the fold's but the peak active-session count, which only the
    /// active-session sweep sees.
    pub(crate) fn project(fold: &SessionSummary, peak_active_sessions: usize) -> Self {
        Self {
            sessions: fold.sessions,
            mean_latency: fold.mean_latency,
            p50_latency: fold.p50_latency,
            p95_latency: fold.p95_latency,
            worst_latency: fold.worst_latency,
            worst_buffer: fold.worst_buffer,
            peak_active_sessions,
            delivered_minutes: fold.delivered_minutes,
        }
    }
}

/// The active-session sweep every [`SystemSim`] path shares — the
/// serial run, each shard, a resumed checkpoint and the shard merge: the
/// end ticks of the sessions still playing, and the peak of their count.
/// Its one tie rule: a session ending at tick `T` is still active for
/// every arrival at `T`, so only ends *strictly* before an arrival leave
/// the active set ahead of it.
#[derive(Debug, Default)]
pub(crate) struct ActiveSweep {
    ends: MinQueue<u64>,
    peak: usize,
}

impl ActiveSweep {
    /// A sweep resumed with `ends` still playing and `peak` as the
    /// high-water mark so far.
    pub(crate) fn resume(ends: impl IntoIterator<Item = u64>, peak: usize) -> Self {
        let mut sweep = Self {
            ends: MinQueue::new(),
            peak,
        };
        for end in ends {
            sweep.ends.push(end);
        }
        sweep
    }

    /// Pop the earliest active end strictly before `tick`, or any active
    /// end for `None` (the drain after the last arrival).
    pub(crate) fn pop_end(&mut self, before: Option<u64>) -> Option<u64> {
        let &end = self.ends.peek()?;
        if before.is_some_and(|tick| end >= tick) {
            return None;
        }
        self.ends.pop()
    }

    /// Start a session whose playback ends at `end_tick`.
    pub(crate) fn arrive(&mut self, end_tick: u64) {
        self.ends.push(end_tick);
        self.peak = self.peak.max(self.ends.len());
    }

    /// The largest number of sessions active at once so far.
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }
}

/// A request slice in sweep order: by arrival tick, ties by slice index.
/// A slice whose ticks are already non-decreasing is walked as is;
/// anything else gets one stable index sort up front.
pub(crate) struct SweepOrder<'r> {
    requests: &'r [Request],
    scale: TickScale,
    sorted: Option<Vec<usize>>,
}

impl<'r> SweepOrder<'r> {
    fn new(requests: &'r [Request], scale: TickScale) -> Self {
        let mut order = Self {
            requests,
            scale,
            sorted: None,
        };
        if (1..requests.len()).any(|i| order.tick(i - 1) > order.tick(i)) {
            let mut sorted: Vec<usize> = (0..requests.len()).collect();
            sorted.sort_by_key(|&pos| order.tick(pos));
            order.sorted = Some(sorted);
        }
        order
    }

    /// Number of requests.
    pub(crate) fn len(&self) -> usize {
        self.requests.len()
    }

    /// The slice index of the request served `cursor`-th.
    pub(crate) fn pos(&self, cursor: usize) -> usize {
        self.sorted.as_ref().map_or(cursor, |sorted| sorted[cursor])
    }

    /// The arrival tick of the request at slice index `pos`.
    pub(crate) fn tick(&self, pos: usize) -> u64 {
        (Ticks::ZERO + self.scale.duration_from_minutes(self.requests[pos].at)).0
    }
}

/// The engine counters a [`SystemSim`] run reports for shards serving
/// `shard_sessions` sessions each. They are the counts of the event
/// engine the sweep replaced: one arrival and one end per session, none
/// cancelled, and a shard's whole pending set — its unserved arrivals
/// plus its active ends, which start at `n` and never grow — as the
/// largest agenda.
pub(crate) fn sweep_stats(shard_sessions: &[usize]) -> EngineStats {
    let total: u64 = shard_sessions.iter().map(|&n| n as u64).sum();
    EngineStats {
        scheduled: 2 * total,
        fired: 2 * total,
        cancelled: 0,
        peak_agenda: shard_sessions.iter().max().map_or(0, |&n| n as u64),
        compactions: 0,
    }
}

/// The checkpoint hooks of [`SystemSim::run_core`]: take a checkpoint
/// every `every` served sessions, show it and every event to `probe`, and
/// optionally start from a decoded checkpoint instead of the beginning.
pub(crate) struct Checkpoints<'p> {
    pub(crate) every: u64,
    pub(crate) probe: &'p mut dyn FnMut(Probe<'_>) -> Verdict,
    pub(crate) resume: Option<CheckpointState>,
}

/// Show the kill probe, if any, the event at `tick`; a kill ends the
/// attempt with `done` sessions served and `taken` checkpoints taken.
fn probe_event(
    checkpoints: &mut Option<Checkpoints<'_>>,
    tick: u64,
    done: usize,
    taken: u64,
) -> Result<(), ShardCrash> {
    let Some(ck) = checkpoints else {
        return Ok(());
    };
    match (ck.probe)(Probe::Event { tick }) {
        Verdict::Kill => Err(ShardCrash::killed(tick, done as u64, taken)),
        Verdict::Continue => Ok(()),
    }
}

/// What [`SystemSim::run_core`] returns on completion.
pub(crate) struct CoreOut {
    pub(crate) peak_active: usize,
    pub(crate) scalars: Vec<SessionScalars>,
    pub(crate) snapshot: Snapshot,
    pub(crate) checkpoints_taken: u64,
}

/// A many-client simulation over a fixed broadcast plan.
pub struct SystemSim<'a> {
    plan: &'a ChannelPlan,
    display_rate: Mbps,
    model: Box<dyn ClientModel + 'a>,
    scale: TickScale,
}

impl<'a> SystemSim<'a> {
    /// Create a simulation against `plan`, driving clients through any
    /// [`ClientModel`].
    #[must_use]
    pub fn new(plan: &'a ChannelPlan, display_rate: Mbps, model: impl ClientModel + 'a) -> Self {
        Self {
            plan,
            display_rate,
            model: Box::new(model),
            scale: TickScale::default(),
        }
    }

    /// Use a non-default tick resolution.
    #[must_use]
    pub fn with_scale(mut self, scale: TickScale) -> Self {
        self.scale = scale;
        self
    }

    /// The one loop every execution path runs: an ordered sweep.
    ///
    /// Serves `requests` in [`SweepOrder`], popping the session ends
    /// strictly before each arrival off an [`ActiveSweep`] and draining
    /// the rest after the last one. Traces stream into `sink`, metric
    /// events into the core's own registry and, when given, into `rec`
    /// as well. With `capture` it also keeps one [`SessionScalars`] per
    /// served session in sweep order — the ordered-replay merge's input;
    /// the serial path streams without them. `checkpoints` (which needs
    /// `capture`) adds the supervisor's hooks: resume, a checkpoint every
    /// `every` sessions, and the kill probe, shown each popped end and
    /// each arrival.
    pub(crate) fn run_core(
        &self,
        requests: &[Request],
        capture: bool,
        mut rec: Option<&mut dyn Recorder>,
        sink: &mut dyn TraceSink,
        mut checkpoints: Option<Checkpoints<'_>>,
    ) -> Result<CoreOut, ShardCrash> {
        let order = SweepOrder::new(requests, self.scale);
        // The cursor is the number of scalars captured: zero unless resumed.
        let (mut sweep, mut reg, mut scalars) =
            match checkpoints.as_mut().and_then(|c| c.resume.take()) {
                Some(cp) => (
                    cp.check_fits(&order).map_err(ShardCrash::Corrupt)?,
                    Registry::from_snapshot(&cp.snapshot),
                    cp.scalars,
                ),
                None => (
                    ActiveSweep::default(),
                    Registry::new(),
                    Vec::with_capacity(if capture { requests.len() } else { 0 }),
                ),
            };
        let index = self.plan.index();
        let mut taken = 0u64;
        for cursor in scalars.len()..order.len() {
            let pos = order.pos(cursor);
            let tick = order.tick(pos);
            while let Some(end) = sweep.pop_end(Some(tick)) {
                probe_event(&mut checkpoints, end, cursor, taken)?;
            }
            probe_event(&mut checkpoints, tick, cursor, taken)?;
            let mut tee;
            let r: &mut dyn Recorder = match rec.as_deref_mut() {
                Some(b) => {
                    tee = TeeRecorder { a: &mut reg, b };
                    &mut tee
                }
                None => &mut reg,
            };
            let cap = if capture { Some(&mut scalars) } else { None };
            let end = self
                .serve(tick, pos, requests[pos], &index, r, sink, cap)
                .map_err(ShardCrash::Policy)?;
            sweep.arrive(end);
            let done = cursor as u64 + 1;
            let Some(ck) = checkpoints.as_mut().filter(|ck| done % ck.every == 0) else {
                continue;
            };
            let encoded = encode_state(sweep.peak(), &scalars, &reg.snapshot());
            taken += 1;
            if let Verdict::Kill = (ck.probe)(Probe::Checkpoint {
                index: done / ck.every,
                encoded: &encoded,
            }) {
                return Err(ShardCrash::killed(tick, done, taken));
            }
        }
        while let Some(end) = sweep.pop_end(None) {
            probe_event(&mut checkpoints, end, order.len(), taken)?;
        }
        let stats = sweep_stats(&[order.len()]);
        for r in [Some(&mut reg as &mut dyn Recorder), rec]
            .into_iter()
            .flatten()
        {
            r.gauge_max("sim_peak_active_sessions", &[], sweep.peak() as f64);
            for (kind, n) in [
                ("scheduled", stats.scheduled),
                ("fired", stats.fired),
                ("cancelled", stats.cancelled),
            ] {
                r.incr("engine_events_total", &[("kind", kind)], n);
            }
        }
        Ok(CoreOut {
            peak_active: sweep.peak(),
            scalars,
            snapshot: reg.snapshot(),
            checkpoints_taken: taken,
        })
    }

    /// Serve request `r` (slice index `pos`) arriving at `tick` — the
    /// exact per-session statements (and float order) every execution
    /// path shares; bitwise identity between serial, sharded and
    /// checkpoint-resumed runs rests on this being the *only* copy of
    /// them. Returns the tick the session's playback ends.
    #[allow(clippy::too_many_arguments)]
    fn serve(
        &self,
        tick: u64,
        pos: usize,
        r: Request,
        index: &sb_core::plan::PlanIndex<'_>,
        rec: &mut dyn Recorder,
        sink: &mut dyn TraceSink,
        capture: Option<&mut Vec<SessionScalars>>,
    ) -> Result<u64, PolicyError> {
        let s = self
            .model
            .session_indexed(index, r.video, r.at, self.display_rate)?;
        sink.accept(&s);
        let lat = s.startup_latency();
        let end = s.playback_end();
        let video = r.video.0.to_string();
        let vl: &[(&str, &str)] = &[("video", &video)];
        rec.incr("sim_sessions_total", vl, 1);
        rec.observe("sim_latency_minutes", vl, lat.value());
        rec.observe("sim_peak_buffer_mbits", vl, s.peak_buffer().value());
        for rx in &s.receptions {
            let channel = rx.channel.to_string();
            rec.observe(
                "sim_channel_busy_minutes",
                &[("channel", &channel)],
                rx.duration.value(),
            );
        }
        let end_tick = (Ticks::ZERO + self.scale.duration_from_minutes(end)).0;
        if let Some(cap) = capture {
            // The floats `StreamingFold::accept` folds, computed by the
            // same expressions, so the merge's replay is bit-identical.
            cap.push(SessionScalars {
                tick,
                idx: pos,
                end_tick,
                latency: lat.value(),
                peak_buffer: s.peak_buffer().value(),
                total_received: s.total_received().value(),
                delivered: end.value() - s.playback_start.value(),
                max_streams: s.max_concurrent_receptions(),
            });
        }
        Ok(end_tick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ClientPolicy;
    use crate::run::RunConfig;
    use sb_core::config::SystemConfig;
    use sb_core::scheme::BroadcastScheme;
    use sb_core::series::Width;
    use sb_core::Skyscraper;

    fn requests_grid(n: usize, videos: usize, span: f64) -> Vec<Request> {
        (0..n)
            .map(|i| Request {
                at: Minutes(span * i as f64 / n as f64),
                video: VideoId(i % videos),
            })
            .collect()
    }

    #[test]
    fn hundred_clients_all_bounded() {
        let cfg = SystemConfig::paper_defaults(Mbps(300.0));
        let scheme = Skyscraper::with_width(Width::Capped(52));
        let plan = scheme.plan(&cfg).unwrap();
        let metrics = scheme.metrics(&cfg).unwrap();
        let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
        let requests = requests_grid(100, 10, 30.0);
        let report = sim.execute(RunConfig::new(&requests)).unwrap().summary;
        assert_eq!(report.sessions, 100);
        assert!(report.worst_latency.value() <= metrics.access_latency.value() + 1e-9);
        assert!(report.worst_buffer.value() <= metrics.buffer_requirement.value() * (1.0 + 1e-9));
        assert!(report.mean_latency.value() <= report.worst_latency.value());
        assert!(report.p50_latency <= report.p95_latency);
        assert!(report.p95_latency <= report.worst_latency);
        // All 100 two-hour sessions overlap within the 30-minute window.
        assert!(report.peak_active_sessions >= 90);
        assert!(report.delivered_minutes.value() > 100.0 * 119.0);
    }

    #[test]
    fn mean_latency_is_about_half_worst() {
        // Uniform arrivals against a periodic first fragment: the mean wait
        // approaches half the period.
        let cfg = SystemConfig::paper_defaults(Mbps(300.0));
        let scheme = Skyscraper::with_width(Width::Capped(2));
        let plan = scheme.plan(&cfg).unwrap();
        let d1 = scheme.metrics(&cfg).unwrap().access_latency.value();
        let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
        let requests = requests_grid(500, 1, 50.0);
        let report = sim.execute(RunConfig::new(&requests)).unwrap().summary;
        let ratio = report.mean_latency.value() / d1;
        assert!((ratio - 0.5).abs() < 0.05, "mean/worst = {ratio:.3}");
    }

    #[test]
    fn recorded_run_matches_bare_run_and_fills_registry() {
        let cfg = SystemConfig::paper_defaults(Mbps(300.0));
        let scheme = Skyscraper::with_width(Width::Capped(52));
        let plan = scheme.plan(&cfg).unwrap();
        let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
        let requests = requests_grid(60, 10, 30.0);
        let bare = sim.execute(RunConfig::new(&requests)).unwrap().summary;
        let mut reg = sb_metrics::Registry::new();
        let recorded = sim
            .execute(RunConfig::new(&requests).recorder(&mut reg))
            .unwrap()
            .summary;
        assert_eq!(bare, recorded, "recording must not steer the simulation");
        let snap = reg.snapshot();
        assert_eq!(snap.counter_total("sim_sessions_total"), 60);
        // 60 sessions over 10 videos → 10 per-video latency series.
        assert_eq!(snap.family("sim_latency_minutes").unwrap().series.len(), 10);
        // Every session's reception time lands on some channel series.
        assert!(snap.family("sim_channel_busy_minutes").is_some());
        assert_eq!(
            snap.counter("engine_events_total", "kind=fired"),
            Some(120),
            "one Arrive and one Finish per session"
        );
        let lat = snap.histogram("sim_latency_minutes", "video=0").unwrap();
        assert!(lat.count > 0 && lat.mean() <= bare.worst_latency.value());
    }

    #[test]
    fn sink_observes_without_steering_and_paths_agree_bitwise() {
        let cfg = SystemConfig::paper_defaults(Mbps(300.0));
        let plan = Skyscraper::with_width(Width::Capped(52))
            .plan(&cfg)
            .unwrap();
        let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
        let requests = requests_grid(60, 10, 30.0);
        let bare = sim.execute(RunConfig::new(&requests)).unwrap().summary;

        let mut fold = crate::sink::StreamingFold::new();
        let folded = sim
            .execute(RunConfig::new(&requests).sink(&mut fold))
            .unwrap()
            .summary;
        assert_eq!(bare, folded, "a sink must not steer the simulation");

        let mut collect = crate::sink::CollectTraces::new();
        let collected = sim
            .execute(RunConfig::new(&requests).sink(&mut collect))
            .unwrap()
            .summary;
        assert_eq!(bare, collected);
        assert_eq!(collect.traces.len(), 60);

        // The streaming fold and the materializing summary agree bitwise.
        let a = fold.finish();
        let b = collect.summarize();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        // And they agree with the run's report where they overlap.
        assert_eq!(a.sessions, bare.sessions);
        assert_eq!(a.mean_latency, bare.mean_latency);
        assert_eq!(a.p50_latency, bare.p50_latency);
        assert_eq!(a.p95_latency, bare.p95_latency);
        assert_eq!(a.worst_latency, bare.worst_latency);
        assert_eq!(a.worst_buffer, bare.worst_buffer);
        assert_eq!(a.delivered_minutes, bare.delivered_minutes);

        // The materializing path still feeds the packet-level replay.
        let e2e = crate::e2e::replay(&collect.traces[0], crate::e2e::PacketConfig::default());
        assert!(e2e.underruns.is_empty());
    }

    #[test]
    fn empty_request_stream() {
        let cfg = SystemConfig::paper_defaults(Mbps(300.0));
        let plan = Skyscraper::unbounded().plan(&cfg).unwrap();
        let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
        let report = sim.execute(RunConfig::new(&[])).unwrap().summary;
        assert_eq!(report.sessions, 0);
        assert_eq!(report.peak_active_sessions, 0);
    }

    #[test]
    fn unknown_video_propagates() {
        let cfg = SystemConfig::paper_defaults(Mbps(300.0));
        let plan = Skyscraper::unbounded().plan(&cfg).unwrap();
        let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
        let requests = [Request {
            at: Minutes(0.0),
            video: VideoId(77),
        }];
        let err = sim.execute(RunConfig::new(&requests)).unwrap_err();
        assert_eq!(err, PolicyError::UnknownVideo(VideoId(77)));
    }
}
