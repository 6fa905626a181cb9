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
//! share that sweep. A run's sweep is a resumable state, `Sweep`: the
//! serial run and a supervised shard step it once to the end, and a
//! sharded run steps each shard's sweep one merge window at a time.
//!
//! Each session is reduced to its numbers in one scalar pass: `serve`
//! derives the startup latency, playback end, peak buffer, payload,
//! delivered minutes and peak concurrent receptions once, as a
//! `SessionScalars`, and every consumer reads that one copy — the run's
//! metric registry, the [`StreamingFold`] on the serial path, the
//! captured scalars the shard merge replays. The registry is fed through
//! series handles each run resolves lazily, per video and per channel,
//! the first time that video or channel is served, so a session formats
//! no label and looks up no series by name.
//!
//! Sessions that catch the same broadcast of segment 0 share one
//! schedule. A sweep keeps, per video, the last session it served, and
//! asks the model whether the next arrival of that video
//! [reuses](ClientModel::reuses) it; if so, the session is the held one
//! with the new arrival and the latency it gives, and nothing is
//! scheduled. Arrivals are served in time order, so the sessions of one
//! caught broadcast are a contiguous run of their video's arrivals and
//! one held session per video finds every reuse. The model's answer is
//! exact, so the bytes are those of scheduling every session.
//!
//! Such a class also records its channels' busy time once per run of
//! sessions: the class resolves its receptions into series handles when
//! it starts and counts the sessions it serves, and the count is written
//! in one [`Registry::observe_repeated`] step, which gives the bits of
//! writing each session in turn. It is written when a fresh session of
//! its video replaces it, before a checkpoint is encoded and when the
//! sweep finishes, and on a channel that carries more than one video,
//! before another video's session counts on that channel. The per-video
//! series are still recorded session by session.
//!
//! The simulation is scheme-agnostic: any [`ClientModel`] — a
//! [`crate::policy::ClientPolicy`] for the tune-at-start schemes, a
//! [`crate::trace::PausingClient`] for PPB's max-saving client, a
//! [`crate::trace::RecordingClient`] for Harmonic Broadcasting — plugs
//! into the same [`SystemSim`], because every model reduces its sessions
//! to the common [`crate::trace::SessionTrace`].

use std::borrow::Cow;

use sb_metrics::{MetricKind, MetricOp, Registry, SeriesId, Snapshot};
use serde::{Deserialize, Serialize};
use vod_units::{Mbits, Mbps, Minutes};

use sb_core::plan::{ChannelPlan, PlanIndex, VideoId};

use crate::agenda::MinQueue;
use crate::checkpoint::{
    encode_state, CheckpointError, CheckpointState, Probe, ShardCrash, Verdict,
};
use crate::engine::EngineStats;
use crate::policy::PolicyError;
use crate::shard::{tick_at, SessionScalars, ShardSlice};
use crate::sink::{SessionSummary, StreamingFold, TraceSink};
use crate::trace::{ClientModel, Reception, SessionTrace};

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

/// The checkpoint hooks of a supervised [`Sweep`]: take a checkpoint
/// every `every` served sessions, and show it and every event to
/// `probe`.
pub(crate) struct Checkpoints<'p> {
    pub(crate) every: u64,
    pub(crate) probe: &'p mut dyn FnMut(Probe<'_>) -> Verdict,
}

/// Show the kill probe, if any, the event at `tick`; a kill ends the
/// attempt with `done` sessions served and `taken` checkpoints taken.
fn probe_event(
    checkpoints: &mut Option<&mut Checkpoints<'_>>,
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

/// Where a [`Sweep`] step puts each session it serves.
pub(crate) enum Keep<'k> {
    /// Fold the scalars and show the trace to the sink, if any: the
    /// serial path, which keeps nothing.
    Fold(&'k mut StreamingFold, Option<&'k mut dyn TraceSink>),
    /// Append the scalars, slice-indexed, and the trace when given a
    /// trace buffer: a merge's input.
    Capture(
        &'k mut Vec<SessionScalars>,
        Option<&'k mut Vec<SessionTrace>>,
    ),
}

/// What a completed [`Sweep`] reports.
pub(crate) struct SweepEnd {
    pub(crate) peak_active: usize,
    pub(crate) snapshot: Snapshot,
    pub(crate) checkpoints_taken: u64,
}

/// A run registry's per-session series handles, by video id and by
/// channel id, each resolved the first time that video or channel is
/// served — so a series appears in the registry exactly when the string
/// calls would have created it.
#[derive(Default)]
struct SeriesTable {
    /// `[sim_sessions_total, sim_latency_minutes, sim_peak_buffer_mbits]`.
    videos: Vec<Option<[SeriesId; 3]>>,
    /// `sim_channel_busy_minutes`.
    channels: Vec<Option<SeriesId>>,
}

/// The slot for `id` in a lazily grown per-id table.
fn slot<T>(table: &mut Vec<Option<T>>, id: usize) -> &mut Option<T> {
    if id >= table.len() {
        table.resize_with(id + 1, || None);
    }
    &mut table[id]
}

impl SeriesTable {
    /// Record one session's count, latency and peak buffer on its
    /// video's series.
    fn record(&mut self, rec: &mut Registry, video: VideoId, sc: &SessionScalars) {
        let [sessions, latency, buffer] =
            *slot(&mut self.videos, video.0).get_or_insert_with(|| {
                let id = video.0.to_string();
                let vl: &[(&str, &str)] = &[("video", &id)];
                [
                    rec.resolve("sim_sessions_total", vl, MetricKind::Counter),
                    rec.resolve("sim_latency_minutes", vl, MetricKind::Histogram),
                    rec.resolve("sim_peak_buffer_mbits", vl, MetricKind::Histogram),
                ]
            });
        rec.apply(sessions, MetricOp::Incr(1));
        rec.apply(latency, MetricOp::Observe(sc.latency));
        rec.apply(buffer, MetricOp::Observe(sc.peak_buffer));
    }
}

/// The busy time of a class of sessions: what one session of the class
/// records on the channels' series, resolved once, and how many of its
/// sessions have not been written yet.
#[derive(Default)]
struct Busy {
    /// Each reception's duration on its channel's
    /// `sim_channel_busy_minutes` series, in reception order.
    observations: Vec<(SeriesId, f64)>,
    /// The mixed channels among them, each once.
    mixed: Vec<usize>,
    /// Sessions served and not yet written.
    unwritten: u64,
}

impl Busy {
    /// Write the unwritten sessions into `reg`, in one step that gives
    /// the bits of writing them one session at a time.
    fn write(&mut self, reg: &mut Registry) {
        reg.observe_repeated(&self.observations, self.unwritten);
        self.unwritten = 0;
    }
}

/// The registry a run records into (the outcome's snapshot), its series
/// handles, and each video's class of sessions, whose busy time is
/// written once per run of sessions.
///
/// A class's busy time may wait in it only while no other session adds
/// to the same channel series. A class is written before a fresh session
/// of its video replaces it, so a channel that carries one video is
/// exact. A channel that carries several is *mixed*: before a session
/// of one video counts on it, the class of the video that counted on it
/// last is written.
struct Taps {
    reg: Registry,
    series: SeriesTable,
    /// By video, the busy time of the video's class.
    classes: Vec<Busy>,
    /// By channel id, whether the plan's channel carries more than one
    /// video; a channel past its end counts as mixed.
    mixed: Vec<bool>,
    /// By mixed channel id, the video that counted a session on it last.
    writer: Vec<Option<usize>>,
    /// The busy time of a session no class keeps.
    alone: Busy,
}

impl Taps {
    fn new(reg: Registry, plan: &ChannelPlan) -> Self {
        let len = plan.channels.iter().map(|ch| ch.id + 1).max().unwrap_or(0);
        let (mut carried, mut mixed) = (vec![None; len], vec![false; len]);
        for ch in &plan.channels {
            for s in &ch.cycle {
                let video = *carried[ch.id].get_or_insert(s.item.video);
                mixed[ch.id] |= video != s.item.video;
            }
        }
        Self {
            reg,
            series: SeriesTable::default(),
            classes: Vec::new(),
            mixed,
            writer: Vec::new(),
            alone: Busy::default(),
        }
    }

    /// Fill `busy` from one session's `receptions`, with nothing
    /// unwritten.
    fn resolve(&mut self, receptions: &[Reception], busy: &mut Busy) {
        busy.observations.clear();
        busy.mixed.clear();
        busy.unwritten = 0;
        for rx in receptions {
            let id = *slot(&mut self.series.channels, rx.channel).get_or_insert_with(|| {
                let id = rx.channel.to_string();
                self.reg.resolve(
                    "sim_channel_busy_minutes",
                    &[("channel", &id)],
                    MetricKind::Histogram,
                )
            });
            busy.observations.push((id, rx.duration.value()));
            if self.mixed.get(rx.channel).copied().unwrap_or(true)
                && !busy.mixed.contains(&rx.channel)
            {
                busy.mixed.push(rx.channel);
            }
        }
    }

    /// Before a session of `video` counts on the mixed `channels`, write
    /// the class of each other video that counted on one of them last.
    fn claim(&mut self, video: usize, channels: &[usize]) {
        for &ch in channels {
            match slot(&mut self.writer, ch).replace(video) {
                Some(other) if other != video => {
                    if let Some(class) = self.classes.get_mut(other) {
                        class.write(&mut self.reg);
                    }
                }
                _ => {}
            }
        }
    }

    /// Count one more session of `video`'s class.
    fn count(&mut self, video: usize) {
        let class = &mut self.classes[video];
        class.unwritten += 1;
        if !class.mixed.is_empty() {
            let mixed = std::mem::take(&mut class.mixed);
            self.claim(video, &mixed);
            self.classes[video].mixed = mixed;
        }
    }

    /// Start `video`'s class anew from a fresh session that made
    /// `receptions`: write the class it replaces, then count the
    /// session.
    fn start(&mut self, video: usize, receptions: &[Reception]) {
        if video >= self.classes.len() {
            self.classes.resize_with(video + 1, Busy::default);
        }
        let mut class = std::mem::take(&mut self.classes[video]);
        class.write(&mut self.reg);
        self.resolve(receptions, &mut class);
        self.classes[video] = class;
        self.count(video);
    }

    /// Write a session of `video` that no class keeps, at once.
    fn write_alone(&mut self, video: usize, receptions: &[Reception]) {
        let mut alone = std::mem::take(&mut self.alone);
        self.resolve(receptions, &mut alone);
        self.claim(video, &alone.mixed);
        alone.unwritten = 1;
        alone.write(&mut self.reg);
        self.alone = alone;
    }

    /// Write every class's unwritten sessions.
    fn write_all(&mut self) {
        for class in &mut self.classes {
            class.write(&mut self.reg);
        }
    }
}

/// The last session a [`Sweep`] served of one video: its trace and
/// scalars, which the video's next arrival takes over when the model
/// [reuses](ClientModel::reuses) it.
struct Held {
    trace: SessionTrace,
    sc: SessionScalars,
}

/// One shard's ordered sweep, resumable between steps: the cursor on
/// its route, the [`ActiveSweep`], the registry's handles,
/// the checkpoint count and, per video, the last session served. Every
/// execution path runs one: the serial run and a supervised shard step
/// it once to the end; a sharded `execute` steps each shard's window by
/// window. A resumed sweep starts with no session held, which costs it
/// only the first scheduling of each video again.
///
/// A step may be lent checkpoint hooks, which need the whole run's
/// scalars captured and so one step to the end.
pub(crate) struct Sweep<'s> {
    sim: &'s SystemSim<'s>,
    slice: &'s ShardSlice<'s>,
    index: &'s PlanIndex<'s>,
    cursor: usize,
    active: ActiveSweep,
    taps: Taps,
    taken: u64,
    held: Vec<Option<Held>>,
    /// Scratch for each fresh session's rate-change list.
    events: Vec<(f64, f64)>,
}

impl<'s> Sweep<'s> {
    /// A sweep along `slice`'s route from the start, scheduling
    /// sessions against `index`, the index of `sim`'s plan (which the
    /// shards of one run share).
    pub(crate) fn new(
        sim: &'s SystemSim<'s>,
        index: &'s PlanIndex<'s>,
        slice: &'s ShardSlice<'s>,
    ) -> Self {
        Self {
            sim,
            slice,
            index,
            cursor: 0,
            active: ActiveSweep::default(),
            taps: Taps::new(Registry::new(), sim.plan),
            taken: 0,
            held: Vec::new(),
            events: Vec::new(),
        }
    }

    /// A sweep along `slice`'s route resumed from checkpoint `cp`, with
    /// the scalars it had captured, once `cp` is checked to fit them.
    pub(crate) fn resume(
        sim: &'s SystemSim<'s>,
        index: &'s PlanIndex<'s>,
        slice: &'s ShardSlice<'s>,
        cp: CheckpointState,
    ) -> Result<(Self, Vec<SessionScalars>), CheckpointError> {
        let mut sweep = Self::new(sim, index, slice);
        sweep.active = cp.check_fits(slice)?;
        sweep.taps.reg = Registry::from_snapshot(&cp.snapshot);
        sweep.cursor = cp.scalars.len();
        Ok((sweep, cp.scalars))
    }

    /// Serve, in sweep order, every remaining request whose
    /// `(arrival tick, slice index)` is before `until` — all of them for
    /// `None` — into `keep`, popping the session ends strictly before
    /// each arrival off the active sweep. Metric events go into the
    /// sweep's registry; `checkpoints` (which needs
    /// [`Keep::Capture`] of the whole run) takes a checkpoint every
    /// `every` sessions and shows the kill probe each popped end and
    /// each arrival.
    pub(crate) fn serve_until(
        &mut self,
        until: Option<(u64, usize)>,
        mut keep: Keep<'_>,
        mut checkpoints: Option<&mut Checkpoints<'_>>,
    ) -> Result<(), ShardCrash> {
        while self.cursor < self.slice.len() {
            let pos = self.slice.pos(self.cursor);
            let tick = self.slice.tick(pos);
            if until.is_some_and(|bound| (tick, pos) >= bound) {
                break;
            }
            while let Some(end) = self.active.pop_end(Some(tick)) {
                probe_event(&mut checkpoints, end, self.cursor, self.taken)?;
            }
            probe_event(&mut checkpoints, tick, self.cursor, self.taken)?;
            let owned = matches!(keep, Keep::Capture(_, Some(_)));
            let (sc, trace) = self
                .sim
                .serve(
                    tick,
                    pos,
                    self.slice.requests[pos],
                    self.index,
                    &mut self.held,
                    &mut self.events,
                    owned,
                    &mut self.taps,
                )
                .map_err(ShardCrash::Policy)?;
            self.active.arrive(sc.end_tick);
            self.cursor += 1;
            let scalars = match &mut keep {
                Keep::Fold(fold, sink) => {
                    if let Some(sink) = sink {
                        sink.accept(&trace);
                    }
                    sc.fold_into(fold);
                    continue;
                }
                Keep::Capture(scalars, traces) => {
                    scalars.push(sc);
                    if let Some(traces) = traces {
                        traces.push(trace.into_owned());
                    }
                    scalars
                }
            };
            let done = self.cursor as u64;
            let Some(ck) = checkpoints.as_mut().filter(|ck| done % ck.every == 0) else {
                continue;
            };
            self.taps.write_all();
            let encoded = encode_state(self.active.peak(), scalars, &self.taps.reg.snapshot());
            self.taken += 1;
            if let Verdict::Kill = (ck.probe)(Probe::Checkpoint {
                index: done / ck.every,
                encoded: &encoded,
            }) {
                return Err(ShardCrash::killed(tick, done, self.taken));
            }
        }
        Ok(())
    }

    /// End the sweep once every request is served: drain the sessions
    /// still playing (shown to the kill probe), then record the peak
    /// and the engine counters into the registry.
    pub(crate) fn finish(
        mut self,
        mut checkpoints: Option<&mut Checkpoints<'_>>,
    ) -> Result<SweepEnd, ShardCrash> {
        debug_assert_eq!(
            self.cursor,
            self.slice.len(),
            "finish after the last arrival"
        );
        while let Some(end) = self.active.pop_end(None) {
            probe_event(&mut checkpoints, end, self.slice.len(), self.taken)?;
        }
        let stats = sweep_stats(&[self.slice.len()]);
        let peak = self.active.peak();
        self.taps.write_all();
        let mut reg = self.taps.reg;
        reg.gauge_max("sim_peak_active_sessions", &[], peak as f64);
        for (kind, n) in [
            ("scheduled", stats.scheduled),
            ("fired", stats.fired),
            ("cancelled", stats.cancelled),
        ] {
            reg.incr("engine_events_total", &[("kind", kind)], n);
        }
        Ok(SweepEnd {
            peak_active: peak,
            snapshot: reg.snapshot(),
            checkpoints_taken: self.taken,
        })
    }
}

/// A many-client simulation over a fixed broadcast plan.
pub struct SystemSim<'a> {
    plan: &'a ChannelPlan,
    display_rate: Mbps,
    model: Box<dyn ClientModel + 'a>,
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
        }
    }

    /// The lookup index of the plan, which every sweep of a run
    /// schedules against.
    pub(crate) fn plan_index(&self) -> PlanIndex<'a> {
        self.plan.index()
    }

    /// Serve request `r` (the caller's slice index `pos`) arriving at
    /// `tick` — the exact per-session statements (and float order)
    /// every execution path shares; bitwise identity between serial,
    /// sharded and checkpoint-resumed runs rests on this being the
    /// *only* copy of them. Derives the session's scalars once, records
    /// them into `taps`, counts the session's busy time in its video's
    /// class (or, for a session no class keeps, writes it at once), and
    /// returns the scalars with the trace.
    ///
    /// `events` is the sweep's scratch for a fresh session's rate-change
    /// list. `held` is the sweep's last session per video. When the model
    /// [reuses](ClientModel::reuses) the video's, the session is that
    /// one with the new arrival, tick and index and the latency they
    /// give; otherwise it is scheduled and, if the model reuses
    /// sessions at all (it reuses a fresh one at its own arrival),
    /// becomes the video's held session and starts its class anew. The
    /// trace comes back borrowed from `held` where it can; with `owned`
    /// (the caller keeps it) a fresh trace is copied into the held one's
    /// buffers and returned itself, so each session is copied once.
    #[allow(clippy::too_many_arguments)]
    fn serve<'h>(
        &self,
        tick: u64,
        pos: usize,
        r: Request,
        index: &PlanIndex<'_>,
        held: &'h mut Vec<Option<Held>>,
        events: &mut Vec<(f64, f64)>,
        owned: bool,
        taps: &mut Taps,
    ) -> Result<(SessionScalars, Cow<'h, SessionTrace>), PolicyError> {
        let fresh = match held.get_mut(r.video.0).and_then(Option::as_mut) {
            Some(h) if self.model.reuses(index, r.video, &h.trace, r.at) => {
                h.trace.arrival = r.at;
                h.sc = SessionScalars {
                    tick,
                    idx: pos,
                    latency: h.trace.startup_latency().value(),
                    ..h.sc
                };
                taps.count(r.video.0);
                None
            }
            _ => {
                let s = self
                    .model
                    .session_indexed(index, r.video, r.at, self.display_rate)?;
                let end = s.playback_end();
                let (peak_buffer, max_streams) = s.peak_buffer_and_streams(events);
                // The floats `StreamingFold::accept` folds, computed by
                // the same expressions, so every path's fold is
                // bit-identical.
                let sc = SessionScalars {
                    tick,
                    idx: pos,
                    end_tick: tick_at(end).0,
                    latency: s.startup_latency().value(),
                    peak_buffer: peak_buffer.value(),
                    total_received: s.total_received().value(),
                    delivered: end.value() - s.playback_start.value(),
                    max_streams,
                };
                let slot = slot(held, r.video.0);
                if slot.is_none() && !self.model.reuses(index, r.video, &s, r.at) {
                    taps.write_alone(r.video.0, &s.receptions);
                    Some((sc, s))
                } else {
                    taps.start(r.video.0, &s.receptions);
                    if owned {
                        match slot {
                            Some(h) => {
                                h.trace.clone_from(&s);
                                h.sc = sc;
                            }
                            None => {
                                *slot = Some(Held {
                                    trace: s.clone(),
                                    sc,
                                })
                            }
                        }
                        Some((sc, s))
                    } else {
                        *slot = Some(Held { trace: s, sc });
                        None
                    }
                }
            }
        };
        let (sc, trace) = match (fresh, &held[r.video.0]) {
            (Some((sc, s)), _) => (sc, Cow::Owned(s)),
            (None, Some(h)) => (h.sc, Cow::Borrowed(&h.trace)),
            (None, None) => unreachable!("a session not returned is held"),
        };
        taps.series.record(&mut taps.reg, r.video, &sc);
        Ok((sc, trace))
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
    fn a_run_fills_its_snapshot() {
        let cfg = SystemConfig::paper_defaults(Mbps(300.0));
        let scheme = Skyscraper::with_width(Width::Capped(52));
        let plan = scheme.plan(&cfg).unwrap();
        let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
        let requests = requests_grid(60, 10, 30.0);
        let out = sim.execute(RunConfig::new(&requests)).unwrap();
        let (bare, snap) = (out.summary, out.snapshot);
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
