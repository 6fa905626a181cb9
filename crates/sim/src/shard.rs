//! Sharded scale-out execution: partition one metropolitan system
//! across `S` server shards, byte-identically.
//!
//! The paper sizes Skyscraper Broadcasting for a single server; the
//! scalable-VoD line of work in `PAPERS.md` partitions the catalog
//! across many. This module is that partitioned regime for every
//! executor behind [`RunConfig`]: the catalog (and with it the arrival
//! stream) is split by a seeded, stable hash of the video id, each
//! shard runs its own sweep + [`StreamingFold`] + metrics registry on
//! the deterministic scoped pool, and the per-shard results are merged
//! **in a canonical order** so that the outcome is bitwise identical
//! for any shard count and any thread count.
//!
//! The determinism argument, in three parts (pinned by the
//! `shard_invariance` proptest and `scripts/verify.sh`):
//!
//! 1. **Partition is a function of (video, seed) only.** A video's
//!    shard never depends on the request stream, the thread schedule,
//!    or the shard count of a previous run. Because every broadcast
//!    channel in this workspace carries exactly one video, each metric
//!    series (`…{video}`, `…{channel}`) lives on exactly one shard.
//! 2. **Per-shard runs serve a subsequence of the global sweep
//!    order.** A shard's route, its [`ShardSlice`], is its requests'
//!    indices into the caller's slice in `(tick, slice index)` order —
//!    the one [`route`] rule both executors share — so two requests on
//!    the same shard are served in the same relative order as in the
//!    unsharded run, and no request is copied.
//! 3. **Merge = ordered replay, window by window.** Each shard captures
//!    one `SessionScalars` per session — the exact floats the fold
//!    consumes, keyed by `(arrival tick, slice index)` from the start,
//!    with no rewrite. A k-way merge over those keys reconstructs the
//!    global sweep order; replaying the scalars through one
//!    [`StreamingFold::fold_scalars`] repeats the identical
//!    floating-point operations in the identical order as `shards(1)`,
//!    and the report is projected from that fold. `execute` does not
//!    wait for the shards to finish: it cuts the global sweep order into
//!    windows of `MERGE_WINDOW` sessions, every shard serves its part of
//!    a window (by leg 2, the shard's requests before the window's end
//!    key), moving the scalars and, for a caller's sink, the traces into
//!    its window buffers, and one continuing merger takes the window —
//!    the sink sees each trace in global order — and clears the
//!    buffers. So a run holds one window of traces and scalars, never
//!    one per session, and the bytes are the same for every window
//!    length. [`merge_shard_runs`] feeds the same merger whole runs as
//!    one window. Snapshots merge in shard order (sums of disjoint
//!    series plus integer counters), and the one global quantity a
//!    shard cannot see — peak simultaneously-active sessions — is
//!    recomputed exactly by the serial run's `ActiveSweep` over the
//!    merged `(arrival, end)` intervals and merged in first (gauges
//!    merge by `max`, and the global peak dominates every shard's).

use std::sync::{Mutex, MutexGuard};

use sb_metrics::{Registry, Snapshot};
use vod_units::{Minutes, TickScale, Ticks};

use crate::checkpoint::{ShardCrash, ShardRun};
use crate::policy::PolicyError;
use crate::pool::parallel_map;
use crate::run::{RunConfig, RunOutcome, RunParts};
use crate::sink::{SessionSummary, StreamingFold, TraceSink};
use crate::system::{sweep_stats, ActiveSweep, Keep, Request, Sweep, SystemReport, SystemSim};
use crate::trace::SessionTrace;

/// The shard owning `key` (a video id) under `seed`, for `shards`
/// servers: a full-avalanche splitmix64 finalizer, so consecutive video
/// ids spread evenly and the assignment is stable across runs,
/// platforms and request streams.
///
/// # Panics
/// Panics if `shards` is zero.
#[must_use]
pub fn shard_of(key: u64, seed: u64, shards: usize) -> usize {
    assert!(shards > 0, "no zero-shard systems");
    let mut x = key ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % shards as u64) as usize
}

/// The shard owning `video` in a run of `shards` shards: the scenario
/// `partition` table's entry, wrapped into range by `% shards`, when the
/// table covers the video, else the seeded [`shard_of`] hash. Either way
/// the owner is a pure function of `(video, seed)`, which is leg one of
/// the module's determinism argument. [`plan_shards`] routes every
/// request by it, and the control plane its cold titles.
///
/// # Panics
/// Panics if `shards` is zero.
#[must_use]
pub fn owning_shard(video: usize, shards: usize, seed: u64, partition: Option<&[usize]>) -> usize {
    match partition.and_then(|map| map.get(video)) {
        Some(&owner) => owner % shards,
        None => shard_of(video as u64, seed, shards),
    }
}

/// Per-session scalars: everything the fold reads from a trace, plus
/// the `(tick, idx)` merge key and the session's end tick for the
/// global peak-active sweep. A sharded `execute` holds one window of
/// them; a supervised shard captures its whole run for its checkpoints.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SessionScalars {
    /// Arrival tick (the sweep time the session was served).
    pub tick: u64,
    /// The request's index in the caller's slice.
    pub idx: usize,
    /// Tick at which playback ends (the `Finish` event's time).
    pub end_tick: u64,
    /// Startup latency, minutes.
    pub latency: f64,
    /// Peak client buffer, Mbits.
    pub peak_buffer: f64,
    /// Total payload received, Mbits.
    pub total_received: f64,
    /// Playback minutes delivered.
    pub delivered: f64,
    /// Peak concurrent receptions within the session.
    pub max_streams: usize,
}

impl SessionScalars {
    /// Fold the session into `fold` — exactly the operations
    /// [`TraceSink::accept`] performs on its trace, in the same order.
    pub(crate) fn fold_into(&self, fold: &mut StreamingFold) {
        fold.fold_scalars(
            self.latency,
            self.peak_buffer,
            self.total_received,
            self.delivered,
            self.max_streams,
        );
    }
}

/// The tick `at` lands on at the default [`TickScale`]: the one clock
/// both executors order requests on, and a sweep its session ends.
#[must_use]
#[inline]
pub fn tick_at(at: Minutes) -> Ticks {
    Ticks::ZERO + TickScale::default().duration_from_minutes(at)
}

/// One shard's route over the caller's borrowed request slice: the
/// indices of the requests the shard owns, in `(arrival tick, slice
/// index)` order, the order its sweep serves them in. A route over a
/// whole slice that is already in that order holds no index.
#[derive(Debug, Clone)]
pub struct ShardSlice<'r, R = Request> {
    pub(crate) requests: &'r [R],
    /// The slice indices in sweep order; `None` for the whole slice as
    /// it is.
    order: Option<Vec<u32>>,
}

/// Route `requests` to `shards` shards: the one routing rule behind both
/// executors. `owner` names each request's shard, below `shards`, and
/// `at` its arrival. A shard's route lists its requests' slice indices
/// in slice order and, only when their [`tick_at`] ticks are out of
/// order, sorts them once, stably, by tick. One shard over a slice
/// already in order gets a route with no index.
///
/// # Errors
/// [`PolicyError::TooManyRequests`] for a slice longer than a `u32`
/// index reaches.
///
/// # Panics
/// Panics if `shards` is zero or `owner` names a shard out of range.
pub fn route<R>(
    requests: &[R],
    shards: usize,
    mut owner: impl FnMut(&R) -> usize,
    at: impl Fn(&R) -> Minutes,
) -> Result<Vec<ShardSlice<'_, R>>, PolicyError> {
    assert!(shards > 0, "no zero-shard systems");
    if u32::try_from(requests.len()).is_err() {
        return Err(PolicyError::TooManyRequests(requests.len()));
    }
    let tick = |r: &R| tick_at(at(r));
    if shards == 1 && requests.is_sorted_by_key(tick) {
        return Ok(vec![ShardSlice {
            requests,
            order: None,
        }]);
    }
    // Each shard's indices, its last tick, and whether its ticks fell.
    let mut orders = vec![(Vec::new(), Ticks::ZERO, false); shards];
    for (i, r) in requests.iter().enumerate() {
        let (order, last, fell) = &mut orders[owner(r)];
        let t = tick(r);
        *fell |= t < *last;
        *last = t;
        order.push(i as u32);
    }
    let tick_of = |&i: &u32| tick(&requests[i as usize]);
    Ok(orders
        .into_iter()
        .map(|(mut order, _, fell)| {
            if fell {
                order.sort_by_key(tick_of);
            }
            ShardSlice {
                requests,
                order: Some(order),
            }
        })
        .collect())
}

impl<R> ShardSlice<'_, R> {
    /// Number of requests on this shard.
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.as_ref().map_or(self.requests.len(), Vec::len)
    }

    /// Whether the shard owns no requests.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slice index of the request served `cursor`-th, for `cursor`
    /// below [`ShardSlice::len`].
    pub(crate) fn pos(&self, cursor: usize) -> usize {
        self.order
            .as_ref()
            .map_or(cursor, |order| order[cursor] as usize)
    }

    /// The slice indices in sweep order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).map(|cursor| self.pos(cursor))
    }
}

impl<'r> ShardSlice<'r> {
    /// [`route`] each request to its video's [`owning_shard`]: the plan
    /// behind `execute` and the crash-recovery supervisor, so a
    /// supervised run splits the stream byte-identically to a plain one.
    ///
    /// # Errors
    /// [`PolicyError::TooManyRequests`] for a slice longer than a `u32`
    /// index reaches.
    pub fn plan(
        requests: &'r [Request],
        shards: usize,
        seed: u64,
        partition: Option<&[usize]>,
    ) -> Result<Vec<Self>, PolicyError> {
        let owner = |r: &Request| owning_shard(r.video.0, shards, seed, partition);
        route(requests, shards, owner, |r| r.at)
    }

    /// The arrival tick of the request at slice index `pos`.
    pub(crate) fn tick(&self, pos: usize) -> u64 {
        tick_at(self.requests[pos].at).0
    }
}

/// [`ShardSlice::plan`], for a slice a `u32` index reaches.
///
/// # Panics
/// Panics if `shards` is zero or the slice is longer.
#[must_use]
pub fn plan_shards<'r>(
    requests: &'r [Request],
    shards: usize,
    seed: u64,
    partition: Option<&[usize]>,
) -> Vec<ShardSlice<'r>> {
    ShardSlice::plan(requests, shards, seed, partition).expect("a slice a u32 index reaches")
}

/// Attribute a merge inconsistency to its shard and run label.
fn merge_err(shard: usize, label: &str, what: impl Into<String>) -> PolicyError {
    PolicyError::ShardMerge {
        shard,
        label: label.to_string(),
        what: what.into(),
    }
}

/// The canonical ordered-replay merge, fed one window of sessions at a
/// time: a k-way merge of per-shard scalar streams by `(arrival tick,
/// slice index)`, folding each session's scalars into one
/// [`StreamingFold`] in the global sweep order — the identical
/// floating-point statements, in the identical order, as the serial
/// path's fold — and advancing the global active-session sweep.
#[derive(Default)]
struct Merger {
    fold: StreamingFold,
    sweep: ActiveSweep,
    /// The last merged session's key: every later one must follow it.
    last: Option<(u64, usize)>,
    cursors: Vec<usize>,
}

impl Merger {
    /// Merge one window: `streams` pairs each shard index with its
    /// window's scalars, keyed by slice index and in sweep order, and
    /// every key must follow every key merged before. `on_session` is
    /// called once per merged session (stream position, cursor) *before*
    /// its scalars are folded — the executor feeds user sinks through it.
    ///
    /// Streams out of sweep order surface as [`PolicyError::ShardMerge`]
    /// carrying the shard index and `label`, never as a panic mid-merge.
    fn feed(
        &mut self,
        streams: &[(usize, &[SessionScalars])],
        label: &str,
        mut on_session: impl FnMut(usize, usize) -> Result<(), PolicyError>,
    ) -> Result<(), PolicyError> {
        self.cursors.clear();
        self.cursors.resize(streams.len(), 0);
        loop {
            let mut best: Option<(&SessionScalars, usize)> = None;
            for (pos, (_, scalars)) in streams.iter().enumerate() {
                if let Some(sc) = scalars.get(self.cursors[pos]) {
                    if best.is_none_or(|(b, _)| (sc.tick, sc.idx) < (b.tick, b.idx)) {
                        best = Some((sc, pos));
                    }
                }
            }
            let Some((&sc, pos)) = best else {
                return Ok(());
            };
            let key = (sc.tick, sc.idx);
            if self.last.is_some_and(|last| key <= last) {
                return Err(merge_err(
                    streams[pos].0,
                    label,
                    format!("session {key:?} out of sweep order"),
                ));
            }
            self.last = Some(key);
            on_session(pos, self.cursors[pos])?;
            // The global active-session sweep, with the shards' tie rule.
            while self.sweep.pop_end(Some(sc.tick)).is_some() {}
            self.sweep.arrive(sc.end_tick);
            sc.fold_into(&mut self.fold);
            self.cursors[pos] += 1;
        }
    }

    /// The merged fold's summary and the global peak of simultaneously
    /// active sessions.
    fn finish(self) -> (SessionSummary, usize) {
        (self.fold.finish(), self.sweep.peak())
    }
}

/// Merge per-shard snapshots in shard order onto the one global
/// quantity no shard can see (the peak simultaneously-active sessions),
/// with shape clashes propagated as [`PolicyError::ShardMerge`] naming
/// the shard that brought them.
fn merge_snapshots<'a>(
    snaps: impl Iterator<Item = (usize, &'a Snapshot)>,
    peak_active: usize,
    label: &str,
) -> Result<Snapshot, PolicyError> {
    // Shards only saw their own peak; the global one dominates them all
    // (gauge merge is `max`), so the merge can start from it.
    let mut global = Registry::new();
    global.gauge_max("sim_peak_active_sessions", &[], peak_active as f64);
    let mut snapshot = global.snapshot();
    for (shard, snap) in snaps {
        snapshot
            .merge(snap)
            .map_err(|e| merge_err(shard, label, e.to_string()))?;
    }
    Ok(snapshot)
}

/// Merge completed [`ShardRun`]s — from the
/// crash-recovery supervisor or
/// any other caller of [`SystemSim::run_shard`] — into a [`RunOutcome`],
/// performing the identical ordered replay `execute` uses, so a
/// supervised (killed, resumed, retried) run's outcome is byte-identical
/// to an uninterrupted `execute` of the same `RunConfig`.
///
/// `runs` pairs each [`ShardRun`] with its
/// shard index; any subset of a
/// run's shards may be merged (the supervisor's graceful-degradation
/// path merges the survivors), in any order — merging is canonicalized
/// by shard index internally. `label` names the experiment for error
/// attribution.
///
/// # Errors
/// [`PolicyError::ShardMerge`] when the per-shard streams are
/// inconsistent; never panics on untrusted shard output.
pub fn merge_shard_runs(
    mut runs: Vec<(usize, ShardRun)>,
    label: &str,
) -> Result<RunOutcome, PolicyError> {
    runs.sort_by_key(|&(s, _)| s);
    for pair in runs.windows(2) {
        if pair[0].0 == pair[1].0 {
            return Err(merge_err(
                pair[1].0,
                label,
                "the same shard appears twice in the merge set",
            ));
        }
    }
    let streams: Vec<(usize, &[SessionScalars])> = runs
        .iter()
        .map(|(s, r)| (*s, r.scalars.as_slice()))
        .collect();
    // Whole runs are one window.
    let mut merger = Merger::default();
    merger.feed(&streams, label, |_, _| Ok(()))?;
    conclude(
        merger,
        runs.iter().map(|(s, r)| (*s, &r.snapshot)),
        runs.iter().map(|(_, r)| r.scalars.len()).collect(),
        label,
    )
}

/// The outcome of a merge once every session is merged: the fold and
/// peak from `merger`, the shard snapshots merged onto that peak.
fn conclude<'a>(
    merger: Merger,
    snaps: impl Iterator<Item = (usize, &'a Snapshot)>,
    shard_sessions: Vec<usize>,
    label: &str,
) -> Result<RunOutcome, PolicyError> {
    let (fold, peak_active) = merger.finish();
    let snapshot = merge_snapshots(snaps, peak_active, label)?;
    Ok(outcome(fold, peak_active, shard_sessions, snapshot))
}

/// The outcome of a run whose sessions folded into `fold`, with its
/// engine counters derived from the sessions each shard served.
fn outcome(
    fold: SessionSummary,
    peak_active: usize,
    shard_sessions: Vec<usize>,
    snapshot: Snapshot,
) -> RunOutcome {
    RunOutcome {
        summary: SystemReport::project(&fold, peak_active),
        fold,
        stats: sweep_stats(&shard_sessions),
        shard_peak_agenda: shard_sessions.iter().map(|&n| n as u64).collect(),
        snapshot,
    }
}

/// Sessions of the global sweep order per merge window of a sharded
/// `execute`: the most scalars and traces its shards hold at once.
const MERGE_WINDOW: usize = 1024;

/// A lane's lock is poisoned only by a panic `parallel_map` re-raised.
const POISONED: &str = "a panicked lane is never locked again";

/// One shard of a windowed `execute`: its sweep and its share of the
/// current window.
struct Lane<'s> {
    sweep: Sweep<'s>,
    scalars: Vec<SessionScalars>,
    traces: Option<Vec<SessionTrace>>,
}

impl Lane<'_> {
    /// Serve the shard's requests before the key `until` — all of them
    /// for `None` — into the window buffers.
    fn serve_until(&mut self, until: Option<(u64, usize)>) -> Result<(), ShardCrash> {
        self.sweep.serve_until(
            until,
            Keep::Capture(&mut self.scalars, self.traces.as_mut()),
            None,
        )
    }
}

/// Lock a lane: uncontended, since the pool's workers each take
/// one lane at a time and the merger takes them between windows.
fn lock<'a, 's>(lane: &'a Mutex<Lane<'s>>) -> MutexGuard<'a, Lane<'s>> {
    lane.lock().expect(POISONED)
}

/// The policy error behind a crash of an `execute` run, which has no
/// probe to kill it and no checkpoint to resume.
fn policy_error(crash: ShardCrash) -> PolicyError {
    match crash {
        ShardCrash::Policy(e) => e,
        ShardCrash::Killed(_) | ShardCrash::Corrupt(_) => {
            unreachable!("execute runs without a probe or a resume: {crash}")
        }
    }
}

impl SystemSim<'_> {
    /// Execute `cfg`, on one shard or partitioned across `shards(S)`.
    ///
    /// The outcome (report, streamed fold, merged snapshot) is
    /// byte-identical for every `shards(S)` and `threads(N)`; only
    /// `stats.peak_agenda` (and the per-shard breakdown next to it)
    /// legitimately shrinks as shards grow, which is the point of
    /// sharding. With `shards(1)` this is exactly the historical serial
    /// run, bit for bit.
    ///
    /// # Errors
    /// Propagates the first [`PolicyError`] (in shard order) from any
    /// shard, e.g. a request naming a video the plan does not carry;
    /// [`PolicyError::TooManyRequests`] for a slice longer than a `u32`
    /// index reaches.
    pub fn execute(&self, cfg: RunConfig<'_, Request>) -> Result<RunOutcome, PolicyError> {
        let parts = cfg.into_parts();
        let slices = ShardSlice::plan(parts.requests, parts.shards, parts.seed, parts.partition)?;
        match &slices[..] {
            [slice] => self.execute_serial(slice, parts.sink),
            _ => self.execute_sharded(&slices, parts, MERGE_WINDOW),
        }
    }

    /// The unsharded fast path: one sweep, each session's scalars folded
    /// as it is served and its trace handed to the caller's sink, nothing
    /// buffered.
    fn execute_serial(
        &self,
        slice: &ShardSlice<'_>,
        sink: Option<&mut dyn TraceSink>,
    ) -> Result<RunOutcome, PolicyError> {
        let mut fold = StreamingFold::new();
        let index = self.plan_index();
        let mut sweep = Sweep::new(self, &index, slice);
        sweep
            .serve_until(
                None,
                Keep::Fold(&mut fold, sink.map(|sink| sink as &mut dyn TraceSink)),
                None,
            )
            .map_err(policy_error)?;
        let end = sweep.finish(None).map_err(policy_error)?;
        Ok(outcome(
            fold.finish(),
            end.peak_active,
            vec![slice.len()],
            end.snapshot,
        ))
    }

    /// The partitioned path: the shards' sweeps step in lockstep windows
    /// of `window` sessions of the global sweep order, on the
    /// deterministic pool, and the ordered-replay merge described in the
    /// module docs takes each window as it is served.
    fn execute_sharded(
        &self,
        slices: &[ShardSlice<'_>],
        parts: RunParts<'_, Request>,
        window: usize,
    ) -> Result<RunOutcome, PolicyError> {
        const LABEL: &str = "sim-shards";
        let index = self.plan_index();
        let lanes: Vec<Mutex<Lane<'_>>> = slices
            .iter()
            .map(|slice| {
                Mutex::new(Lane {
                    sweep: Sweep::new(self, &index, slice),
                    scalars: Vec::new(),
                    traces: parts.sink.is_some().then(Vec::new),
                })
            })
            .collect();

        // The global sweep order, the route of the whole slice on one
        // shard, cut every `window` sessions. A shard serves a
        // subsequence of it, so a window of each shard's sweep ends at
        // the same key, and merging window after window is merging the
        // whole run.
        let order = route(parts.requests, 1, |_| 0, |r| r.at)?.swap_remove(0);
        let mut merger = Merger::default();
        let mut user_sink = parts.sink;
        for start in (0..order.len()).step_by(window) {
            let until = (start + window < order.len()).then(|| {
                let pos = order.pos(start + window);
                (order.tick(pos), pos)
            });
            let served = parallel_map(parts.threads, LABEL, &lanes, |_, lane| {
                lock(lane).serve_until(until)
            });
            if served.iter().any(Result::is_err) {
                // Report the first error in shard order over the whole
                // run, as running every shard to its end would.
                for (lane, result) in lanes.iter().zip(served) {
                    result
                        .and_then(|()| lock(lane).serve_until(None))
                        .map_err(policy_error)?;
                }
            }
            let mut guards: Vec<_> = lanes.iter().map(lock).collect();
            let streams: Vec<(usize, &[SessionScalars])> = guards
                .iter()
                .enumerate()
                .map(|(s, lane)| (s, lane.scalars.as_slice()))
                .collect();
            merger.feed(&streams, LABEL, |s, cursor| {
                if let (Some(sink), Some(traces)) = (user_sink.as_deref_mut(), &guards[s].traces) {
                    sink.accept(&traces[cursor]);
                }
                Ok(())
            })?;
            for lane in &mut guards {
                lane.scalars.clear();
                if let Some(traces) = &mut lane.traces {
                    traces.clear();
                }
            }
        }

        let mut snapshots = Vec::with_capacity(lanes.len());
        for lane in lanes {
            let lane = lane.into_inner().expect(POISONED);
            let end = lane.sweep.finish(None).map_err(policy_error)?;
            snapshots.push(end.snapshot);
        }
        conclude(
            merger,
            snapshots.iter().enumerate(),
            slices.iter().map(ShardSlice::len).collect(),
            LABEL,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ClientPolicy;
    use crate::sink::{CollectTraces, SessionSummary};
    use sb_core::config::SystemConfig;
    use sb_core::plan::VideoId;
    use sb_core::scheme::BroadcastScheme;
    use sb_core::series::Width;
    use sb_core::Skyscraper;
    use vod_units::{Mbps, Minutes};

    #[test]
    fn shard_of_is_stable_in_range_and_seed_sensitive() {
        for shards in [1, 2, 4, 8] {
            for v in 0..64u64 {
                let a = shard_of(v, 17, shards);
                assert_eq!(a, shard_of(v, 17, shards), "stable");
                assert!(a < shards);
            }
        }
        // A different seed shuffles at least one assignment.
        assert!((0..64u64).any(|v| shard_of(v, 1, 8) != shard_of(v, 2, 8)));
    }

    #[test]
    fn routes_index_the_slice_in_tick_then_slice_order() {
        // (arrival minutes, owning shard)
        let requests = [(3.0, 0), (1.0, 1), (3.0, 1), (0.0, 0), (1.0, 0)];
        let at = |r: &(f64, usize)| Minutes(r.0);
        let indices = |route: &ShardSlice<'_, _>| route.iter().collect::<Vec<_>>();
        let one = route(&requests, 1, |_| 0, at).unwrap();
        assert_eq!(indices(&one[0]), [3, 1, 4, 0, 2]);
        let two = route(&requests, 2, |r| r.1, at).unwrap();
        assert_eq!(indices(&two[0]), [3, 4, 0]);
        assert_eq!(indices(&two[1]), [1, 2]);
        // One shard over a slice already in order holds no index.
        let sorted = route(&[(0.0, 0), (1.0, 0), (1.0, 0)], 1, |_| 0, at).unwrap();
        assert!(sorted[0].order.is_none());
        assert_eq!(indices(&sorted[0]), [0, 1, 2]);
    }

    #[test]
    fn a_slice_past_a_u32_index_is_a_typed_error() {
        const N: usize = u32::MAX as usize + 1;
        // Zero-sized requests: the slice is long and holds no bytes.
        let requests = [(); N];
        let err = route(&requests, 2, |()| 0, |()| Minutes(0.0)).unwrap_err();
        assert_eq!(err, PolicyError::TooManyRequests(N));
    }

    fn lineup() -> (SystemConfig, sb_core::plan::ChannelPlan, Vec<Request>) {
        let cfg = SystemConfig::paper_defaults(Mbps(300.0));
        let plan = Skyscraper::with_width(Width::Capped(52))
            .plan(&cfg)
            .unwrap();
        let requests: Vec<Request> = (0..240)
            .map(|i| Request {
                at: Minutes(45.0 * (i as f64 + 0.31) / 240.0),
                video: VideoId(i % 10),
            })
            .collect();
        (cfg, plan, requests)
    }

    fn outcome_key(o: &RunOutcome) -> (String, String, String, SessionSummary) {
        (
            serde_json::to_string(&o.summary).unwrap(),
            serde_json::to_string(&o.fold).unwrap(),
            serde_json::to_string(&o.snapshot).unwrap(),
            o.fold.clone(),
        )
    }

    #[test]
    fn sharded_outcomes_are_bitwise_shard_and_thread_invariant() {
        let (cfg, plan, requests) = lineup();
        let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
        let base = sim.execute(RunConfig::new(&requests)).unwrap();
        assert_eq!(base.summary.sessions, 240);
        for shards in [2, 4, 8] {
            for threads in [1, 4] {
                let out = sim
                    .execute(RunConfig::new(&requests).shards(shards).threads(threads))
                    .unwrap();
                assert_eq!(
                    outcome_key(&base),
                    outcome_key(&out),
                    "S={shards} T={threads} diverged"
                );
                assert_eq!(out.shard_peak_agenda.len(), shards);
                assert_eq!(
                    out.stats.scheduled, base.stats.scheduled,
                    "event totals are shard-invariant"
                );
            }
        }
    }

    #[test]
    fn partition_map_routes_without_changing_a_single_byte() {
        // A region-style owning-shard table (videos 0..10 → 3 "regions")
        // produces the same outcome as the hash partition and the serial
        // run — the scenario slot only decides *where* a session runs.
        let (cfg, plan, requests) = lineup();
        let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
        let base = sim.execute(RunConfig::new(&requests)).unwrap();
        let map: Vec<usize> = (0..10).map(|v| v % 3).collect();
        let short_map: Vec<usize> = vec![0; 4]; // videos 4..10 fall back to the hash
        for shards in [2, 3, 4] {
            for threads in [1, 4] {
                for table in [&map, &short_map] {
                    let out = sim
                        .execute(
                            RunConfig::new(&requests)
                                .shards(shards)
                                .threads(threads)
                                .partition(table),
                        )
                        .unwrap();
                    assert_eq!(
                        outcome_key(&base),
                        outcome_key(&out),
                        "partitioned S={shards} T={threads} diverged"
                    );
                }
            }
        }
        // And the table genuinely moves load: with 3 shards, the mapped
        // run's per-shard agenda peaks differ from the hash run's.
        let mapped = sim
            .execute(RunConfig::new(&requests).shards(3).partition(&map))
            .unwrap();
        let hashed = sim.execute(RunConfig::new(&requests).shards(3)).unwrap();
        assert_eq!(outcome_key(&mapped), outcome_key(&hashed));
        assert_ne!(
            mapped.shard_peak_agenda, hashed.shard_peak_agenda,
            "the scenario slot should actually re-route sessions"
        );
    }

    #[test]
    fn sharded_sink_slot_matches_serial() {
        let (cfg, plan, requests) = lineup();
        let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
        let drive = |shards: usize| {
            let mut collect = CollectTraces::new();
            let out = sim
                .execute(
                    RunConfig::new(&requests)
                        .shards(shards)
                        .threads(2)
                        .sink(&mut collect),
                )
                .unwrap();
            (
                serde_json::to_string(&out.snapshot).unwrap(),
                serde_json::to_string(&collect.summarize()).unwrap(),
                serde_json::to_string(&out.fold).unwrap(),
            )
        };
        let serial = drive(1);
        let sharded = drive(4);
        assert_eq!(serial.0, sharded.0, "snapshot diverged");
        assert_eq!(serial.1, sharded.1, "user sink replay diverged");
        // The traces the user sink saw summarize to the fold itself.
        assert_eq!(serial.1, serial.2);
    }

    #[test]
    fn window_length_changes_no_byte() {
        // Unsorted arrivals with exact ties between videos, so between
        // shards: windows cut through runs of equal ticks, and the
        // global order is a sort.
        let (cfg, plan, mut requests) = lineup();
        requests.reverse();
        for (i, r) in requests.iter_mut().enumerate() {
            r.at = Minutes((i * 7 % 48) as f64 * 0.5);
        }
        let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
        let drive = |shards: usize, window: usize| {
            let mut collect = CollectTraces::new();
            let parts = RunConfig::new(&requests)
                .shards(shards)
                .threads(2)
                .sink(&mut collect)
                .into_parts();
            let slices = plan_shards(&requests, shards, 0, None);
            let out = sim.execute_sharded(&slices, parts, window).unwrap();
            (
                outcome_key(&out),
                serde_json::to_string(&collect.traces).unwrap(),
            )
        };
        let serial = {
            let mut collect = CollectTraces::new();
            let out = sim
                .execute(RunConfig::new(&requests).sink(&mut collect))
                .unwrap();
            (
                outcome_key(&out),
                serde_json::to_string(&collect.traces).unwrap(),
            )
        };
        for shards in [2, 4] {
            for window in [1, 3, MERGE_WINDOW] {
                assert_eq!(
                    serial,
                    drive(shards, window),
                    "S={shards} window {window} diverged"
                );
            }
        }
    }

    #[test]
    fn unknown_video_errors_deterministically_when_sharded() {
        let (cfg, plan, _) = lineup();
        let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
        let requests = vec![
            Request {
                at: Minutes(0.0),
                video: VideoId(3),
            },
            Request {
                at: Minutes(1.0),
                video: VideoId(99),
            },
        ];
        let err = sim
            .execute(RunConfig::new(&requests).shards(4))
            .unwrap_err();
        assert_eq!(err, PolicyError::UnknownVideo(VideoId(99)));
    }
}
