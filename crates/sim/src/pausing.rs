//! The PPB *max-saving* client: mid-broadcast retuning ("pausing").
//!
//! §2 of the paper, describing PPB: "To further reduce this requirement,
//! PPB occasionally pauses the incoming stream to allow the playback to
//! catch up. This is done by allowing a client to discontinue the current
//! stream and tune to another subchannel, which broadcasts the same
//! fragment, at a later time to collect the remaining data. This, however,
//! is difficult to implement since a client must be able to tune to a
//! channel during, instead of at the beginning of, a broadcast."
//!
//! This module implements that difficult client, so the repository can
//! measure both sides of the paper's argument: the tune-at-start client
//! (in [`crate::policy`]) overshoots PPB's Table-1 buffer by up to ≈2×,
//! while this pausing client gets *under* it — at the price of reception
//! schedules made of many precisely-timed mid-broadcast joins.
//!
//! ## How the schedule is built
//!
//! A fragment of on-air time `T` is replicated on `P` subchannels with
//! phase shifts `δ = T/P`. Replica `p` transmits byte offset `y` at wall
//! times `p·δ + y/r + n·T`, so reception of the content at offset `y` can
//! begin at any time on the lattice `y/r + k·δ` (picking the replica that
//! is at the right offset then). We cut each fragment into `P·m` chunks
//! (`m` = [`SUBDIVISIONS`]); chunk `j`, covering content from byte
//! `y_j = j·r·ε` (`ε = δ/m`), may start at any `j·ε + k·δ`. The
//! minimal-buffer schedule is then a reverse greedy: walk chunks from the
//! last deadline backwards, giving each the latest lattice point that
//! (a) meets its deadline, (b) does not overlap an already-scheduled chunk
//! (one tuner), and (c) is not before the client's arrival. Finer `m`
//! means smaller buffers and ever more mid-broadcast joins — the knob §2's
//! complexity warning is about.

use serde::{Deserialize, Serialize};
use vod_units::{MBytes, Mbits, Mbps, Minutes};

use sb_core::plan::{BroadcastItem, ChannelPlan, LogicalChannel, PlanIndex, VideoId};

use crate::policy::{earliest_start, PolicyError};
use crate::trace::{Reception, SessionTrace};

/// How many pieces each replica-phase window is subdivided into. The
/// client's retune lattice has spacing `δ = T/P` in time; `m` chunks per
/// window bound the per-fragment prefetch lead by `≈ δ/m + ` drain slack,
/// trading buffer for mid-broadcast joins.
pub const SUBDIVISIONS: usize = 8;

/// One contiguous reception burst (a chunk of one fragment, from one
/// replica, joined possibly mid-broadcast).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Burst {
    /// The fragment being received.
    pub segment: usize,
    /// Chunk index within the fragment (0-based).
    pub chunk: usize,
    /// The subchannel replica delivering this chunk.
    pub channel: usize,
    /// Wall-clock start, minutes.
    pub start: Minutes,
    /// Burst duration, minutes.
    pub duration: Minutes,
    /// Reception rate (the subchannel rate).
    pub rate: Mbps,
    /// Content byte-offset of the chunk within the fragment, in Mbits.
    pub content_offset: Mbits,
    /// Chunk payload, Mbits.
    pub size: Mbits,
}

impl Burst {
    /// Wall-clock end of the burst.
    #[must_use]
    pub fn end(&self) -> Minutes {
        self.start + self.duration
    }
}

/// A complete pausing-client session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PausingSchedule {
    /// Arrival time.
    pub arrival: Minutes,
    /// Playback start (first catchable broadcast of fragment 0).
    pub playback_start: Minutes,
    /// Display rate.
    pub display_rate: Mbps,
    /// Fragment sizes in playback order.
    pub segment_sizes: Vec<Mbits>,
    /// All reception bursts, sorted by start time.
    pub bursts: Vec<Burst>,
}

impl PausingSchedule {
    /// Playback start of segment `i`.
    #[must_use]
    pub fn playback_start_of(&self, i: usize) -> Minutes {
        let prefix: f64 = self.segment_sizes[..i]
            .iter()
            .map(|s| (*s / self.display_rate).to_minutes().value())
            .sum();
        Minutes(self.playback_start.value() + prefix)
    }

    /// End of playback.
    #[must_use]
    pub fn playback_end(&self) -> Minutes {
        self.playback_start_of(self.segment_sizes.len())
    }

    /// Startup latency.
    #[must_use]
    pub fn startup_latency(&self) -> Minutes {
        Minutes(self.playback_start.value() - self.arrival.value())
    }

    /// The session as a scheme-agnostic [`SessionTrace`]: one
    /// [`Reception`] per burst, carrying the chunk's content interval. All
    /// buffer and jitter accounting lives on the trace.
    #[must_use]
    pub fn trace(&self) -> SessionTrace {
        SessionTrace {
            arrival: self.arrival,
            playback_start: self.playback_start,
            display_rate: self.display_rate,
            segment_sizes: self.segment_sizes.clone(),
            receptions: self.receptions(),
        }
    }

    /// [`PausingSchedule::trace`], moving the segment sizes into the
    /// trace instead of copying them.
    #[must_use]
    pub fn into_trace(self) -> SessionTrace {
        SessionTrace {
            arrival: self.arrival,
            playback_start: self.playback_start,
            display_rate: self.display_rate,
            receptions: self.receptions(),
            segment_sizes: self.segment_sizes,
        }
    }

    fn receptions(&self) -> Vec<Reception> {
        self.bursts
            .iter()
            .map(|b| Reception {
                segment: b.segment,
                channel: b.channel,
                start: b.start,
                duration: b.duration,
                rate: b.rate,
                content_offset: b.content_offset,
                size: b.size,
            })
            .collect()
    }

    /// Starvation check: every content byte must be received no later
    /// than it is consumed (exact per-byte check on the trace).
    #[must_use]
    pub fn is_jitter_free(&self, tol: f64) -> bool {
        self.trace().is_jitter_free(tol)
    }

    /// `true` when no two bursts overlap (the client has a single tuner).
    #[must_use]
    pub fn single_tuner(&self, tol: f64) -> bool {
        self.trace().single_tuner(tol)
    }

    /// Peak buffer occupancy (received − consumed), in Mbits.
    #[must_use]
    pub fn peak_buffer(&self) -> Mbits {
        self.trace().peak_buffer()
    }

    /// Peak buffer in the paper's Figure-8 unit.
    #[must_use]
    pub fn peak_buffer_mbytes(&self) -> MBytes {
        self.peak_buffer().to_mbytes()
    }

    /// Number of mid-broadcast joins (bursts that do not begin at a
    /// replica's cycle start) — the implementation complexity §2 warns
    /// about, quantified.
    #[must_use]
    pub fn mid_broadcast_joins(&self) -> usize {
        self.bursts.iter().filter(|b| b.chunk != 0).count()
    }
}

/// The broadcast of segment 0 a client arriving at `arrival` catches: the
/// earliest start, then the first carrier within 1e-9 of it. The scheduler
/// plays from it and `PausingClient::reuses` checks against it.
pub(crate) fn caught_broadcast<'a>(
    index: &PlanIndex<'a>,
    video: VideoId,
    arrival: Minutes,
) -> Option<(&'a LogicalChannel, Minutes)> {
    let first = BroadcastItem { video, segment: 0 };
    let (_, start) = earliest_start(index, first, arrival)?;
    let carriers = index.carriers(first);
    let replica = carriers
        .iter()
        .find(|occ| index.next_start(occ, arrival).approx_eq(start, 1e-9))
        .unwrap_or(&carriers[0]);
    Some((index.channel(replica), start))
}

/// Build the pausing schedule for one PPB client against a throwaway
/// index of `plan` (see [`schedule_pausing_client_indexed`]).
pub fn schedule_pausing_client(
    plan: &ChannelPlan,
    video: VideoId,
    arrival: Minutes,
    display_rate: Mbps,
) -> Result<PausingSchedule, PolicyError> {
    schedule_pausing_client_indexed(&plan.index(), video, arrival, display_rate)
}

/// Build the pausing schedule for one PPB client against a prebuilt
/// [`PlanIndex`].
///
/// The indexed plan must be a PPB plan: every fragment carried by
/// `P ≥ 1` equal-rate subchannels whose phases are `j·T/P` apart.
pub fn schedule_pausing_client_indexed(
    index: &PlanIndex<'_>,
    video: VideoId,
    arrival: Minutes,
    display_rate: Mbps,
) -> Result<PausingSchedule, PolicyError> {
    let sizes: &[Mbits] = index
        .plan()
        .segment_sizes
        .get(video.0)
        .ok_or(PolicyError::UnknownVideo(video))?;

    // Playback start: earliest catchable broadcast of fragment 0 over its
    // replicas (identical to the tune-at-start client).
    let (ch0, playback_start) =
        caught_broadcast(index, video, arrival).ok_or(PolicyError::MissingSegment(0))?;

    let mut sched = PausingSchedule {
        arrival,
        playback_start,
        display_rate,
        segment_sizes: sizes.to_vec(),
        bursts: Vec::new(),
    };

    // Fragment 0 is consumed live from its broadcast: one burst, chunk 0,
    // from the replica whose broadcast starts at playback_start.
    sched.bursts.push(Burst {
        segment: 0,
        chunk: 0,
        channel: ch0.id,
        start: playback_start,
        duration: (sizes[0] / ch0.rate).to_minutes(),
        rate: ch0.rate,
        content_offset: Mbits(0.0),
        size: sizes[0],
    });

    // Remaining fragments: reverse-greedy chunk placement.
    // Collect chunks with their deadlines first.
    struct PendingChunk {
        segment: usize,
        chunk: usize,
        lattice_origin: f64, // j·ε: earliest-phase start of this chunk's lattice
        lattice_step: f64,   // δ for this fragment, minutes
        duration: f64,       // ε, minutes
        deadline: f64,       // latest permissible start, minutes
        rate: Mbps,
        offset: Mbits,
        size: Mbits,
        replicas: (usize, usize), // the fragment's (first, count) in `by_phase`
    }
    // Every fragment's carriers as (phase, channel id), one run per
    // fragment, each run sorted by phase.
    let mut by_phase: Vec<(f64, usize)> = Vec::new();
    let mut pending: Vec<PendingChunk> = Vec::new();
    #[allow(clippy::needless_range_loop)] // `segment` is an identifier, not just an index
    for segment in 1..sizes.len() {
        let carriers = index.carriers(BroadcastItem { video, segment });
        if carriers.is_empty() {
            return Err(PolicyError::MissingSegment(segment));
        }
        let p = carriers.len();
        let rate = index.channel(&carriers[0]).rate;
        // Replica `j` (in phase order) has phase `j·δ`; lattice point
        // `origin + k·δ` is served by replica `k mod p`.
        let first = by_phase.len();
        by_phase.extend(carriers.iter().map(|occ| {
            let c = index.channel(occ);
            (c.phase.value(), c.id)
        }));
        by_phase[first..].sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let on_air = (sizes[segment] / rate).to_minutes().value();
        let delta = on_air / p as f64;
        let chunks = p * SUBDIVISIONS;
        let eps = on_air / chunks as f64;
        let chunk_size = Mbits(sizes[segment].value() / chunks as f64);
        let pb = sched.playback_start_of(segment).value();
        let b = display_rate.value();
        for j in 0..chunks {
            // Deadline of the chunk's first byte under playback at b.
            let offset = Mbits(chunk_size.value() * j as f64);
            let deadline = pb + offset.value() / (b * 60.0);
            pending.push(PendingChunk {
                segment,
                chunk: j,
                lattice_origin: j as f64 * eps,
                lattice_step: delta,
                duration: eps,
                deadline,
                rate,
                offset,
                size: chunk_size,
                replicas: (first, p),
            });
        }
    }
    // Latest deadlines first.
    pending.sort_by(|a, b| b.deadline.partial_cmp(&a.deadline).expect("finite"));

    // Occupied intervals (start, end), kept sorted by start.
    let mut occupied: Vec<(f64, f64)> = Vec::with_capacity(pending.len() + 1);
    occupied.push((playback_start.value(), sched.bursts[0].end().value()));
    sched.bursts.reserve(pending.len());

    for c in &pending {
        // Content at this chunk's offset is on the air at lattice points
        // `origin + k·δ` (the PPB plan's replica 0 has phase 0).
        let mut k = ((c.deadline - c.lattice_origin) / c.lattice_step).floor();
        // f64 guard: make sure we start at or before the deadline.
        while c.lattice_origin + k * c.lattice_step > c.deadline + 1e-9 {
            k -= 1.0;
        }
        let start = loop {
            let s = c.lattice_origin + k * c.lattice_step;
            if k < 0.0 || s + 1e-9 < arrival.value() {
                return Err(PolicyError::NoFeasibleBroadcast { segment: c.segment });
            }
            let e = s + c.duration;
            // Free iff the predecessor, the last interval with
            // `os + 1e-9 < e`, ends by `s`. Exact: the intervals failing
            // `e <= os + 1e-9` are a prefix (monotone in `os`), and each
            // placed interval passed the test against all earlier ones
            // and outlasts 2e-9, so starts are distinct and ends increase
            // in start order; the prefix's last end is its largest.
            let before = occupied.partition_point(|&(os, _)| os + 1e-9 < e);
            if before == 0 || s >= occupied[before - 1].1 - 1e-9 {
                break s;
            }
            k -= 1.0;
        };
        let placed = (start, start + c.duration);
        let at = occupied.partition_point(|o| o.partial_cmp(&placed).expect("finite").is_le());
        occupied.insert(at, placed);
        let (first, p) = c.replicas;
        let replica = (k as i64).rem_euclid(p as i64) as usize;
        sched.bursts.push(Burst {
            segment: c.segment,
            chunk: c.chunk,
            channel: by_phase[first + replica].1,
            start: Minutes(start),
            duration: Minutes(c.duration),
            rate: c.rate,
            content_offset: c.offset,
            size: c.size,
        });
    }
    sched
        .bursts
        .sort_by(|a, b| a.start.partial_cmp(&b.start).expect("finite"));
    Ok(sched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{schedule_client, ClientPolicy};
    use proptest::prelude::*;
    use sb_core::config::SystemConfig;
    use sb_core::scheme::BroadcastScheme;
    use sb_pyramid::PermutationPyramid;

    fn setup(b: f64) -> (SystemConfig, sb_core::plan::ChannelPlan, PermutationPyramid) {
        let cfg = SystemConfig::paper_defaults(Mbps(b));
        let scheme = PermutationPyramid::b();
        let plan = scheme.plan(&cfg).unwrap();
        (cfg, plan, scheme)
    }

    #[test]
    fn pausing_client_is_consistent() {
        let (cfg, plan, _) = setup(320.0);
        for i in 0..40 {
            let arrival = Minutes(30.0 * i as f64 / 40.0);
            let s = schedule_pausing_client(&plan, VideoId(0), arrival, cfg.display_rate).unwrap();
            assert!(s.is_jitter_free(1e-6), "arrival {arrival}");
            assert!(s.single_tuner(1e-6), "arrival {arrival}");
            // Total received equals the video.
            let received: f64 = s.bursts.iter().map(|b| b.size.value()).sum();
            let total: f64 = s.segment_sizes.iter().map(|x| x.value()).sum();
            assert!((received - total).abs() < 1e-6 * total);
        }
    }

    #[test]
    fn pausing_beats_tune_at_start_and_the_table1_number() {
        // The point of the module: the §2 "max saving" client needs less
        // buffer than both the tune-at-start client and the analytic
        // Table-1 PPB requirement.
        let (cfg, plan, scheme) = setup(320.0);
        let analytic = scheme.metrics(&cfg).unwrap().buffer_requirement;
        let mut worst_pausing = 0.0f64;
        let mut worst_start = 0.0f64;
        for i in 0..60 {
            let arrival = Minutes(30.0 * i as f64 / 60.0);
            let p = schedule_pausing_client(&plan, VideoId(0), arrival, cfg.display_rate).unwrap();
            worst_pausing = worst_pausing.max(p.peak_buffer().value());
            let t = schedule_client(
                &plan,
                VideoId(0),
                arrival,
                cfg.display_rate,
                ClientPolicy::LatestFeasible,
            )
            .unwrap();
            worst_start = worst_start.max(t.peak_buffer().value());
        }
        assert!(
            worst_pausing < worst_start * 0.8,
            "pausing {worst_pausing:.0} vs tune-at-start {worst_start:.0} Mbit"
        );
        assert!(
            worst_pausing <= analytic.value() * 1.01,
            "pausing {worst_pausing:.0} vs Table-1 {analytic}"
        );
    }

    #[test]
    fn pausing_pays_in_synchronization_complexity() {
        // §2's criticism, measured: the schedule is full of mid-broadcast
        // joins, unlike the tune-at-start client which has none.
        let (cfg, plan, _) = setup(320.0);
        let s = schedule_pausing_client(&plan, VideoId(0), Minutes(3.7), cfg.display_rate).unwrap();
        assert!(
            s.mid_broadcast_joins() > 0,
            "expected mid-broadcast tunings, got a trivial schedule"
        );
        // Latency is unchanged (first fragment handling is identical).
        let t = schedule_client(
            &plan,
            VideoId(0),
            Minutes(3.7),
            cfg.display_rate,
            ClientPolicy::LatestFeasible,
        )
        .unwrap();
        assert!(s.startup_latency().approx_eq(t.startup_latency(), 1e-9));
    }

    #[test]
    fn works_for_ppb_a_single_replica() {
        // P = 1: the retune lattice degenerates to one point per cycle —
        // the client pauses and picks the content up again on a *later
        // cycle of the same subchannel*, which still slashes its buffer
        // relative to tune-at-start.
        let cfg = SystemConfig::paper_defaults(Mbps(320.0));
        let scheme = PermutationPyramid::a();
        let plan = scheme.plan(&cfg).unwrap();
        let analytic = scheme.metrics(&cfg).unwrap().buffer_requirement;
        let s = schedule_pausing_client(&plan, VideoId(1), Minutes(5.0), cfg.display_rate).unwrap();
        assert!(s.is_jitter_free(1e-6));
        assert!(s.single_tuner(1e-6));
        let t = schedule_client(
            &plan,
            VideoId(1),
            Minutes(5.0),
            cfg.display_rate,
            ClientPolicy::LatestFeasible,
        )
        .unwrap();
        assert!(s.peak_buffer().value() < t.peak_buffer().value());
        assert!(s.peak_buffer().value() <= analytic.value() * 1.01);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Pausing sessions stay consistent across bandwidths, variants,
        /// videos and arrivals, and never exceed the Table-1 buffer.
        #[test]
        fn pausing_invariants(
            b in 95.0f64..600.0,
            variant_b in any::<bool>(),
            video in 0usize..10,
            arrival in 0.0f64..40.0,
        ) {
            let cfg = SystemConfig::paper_defaults(Mbps(b));
            let scheme = if variant_b {
                PermutationPyramid::b()
            } else {
                PermutationPyramid::a()
            };
            let Ok(plan) = scheme.plan(&cfg) else { return Ok(()) };
            let analytic = scheme.metrics(&cfg).unwrap().buffer_requirement;
            let s = schedule_pausing_client(
                &plan,
                VideoId(video),
                Minutes(arrival),
                cfg.display_rate,
            )
            .unwrap();
            prop_assert!(s.is_jitter_free(1e-6));
            prop_assert!(s.single_tuner(1e-6));
            prop_assert!(s.peak_buffer().value() <= analytic.value() * 1.01);
            let received: f64 = s.bursts.iter().map(|x| x.size.value()).sum();
            let total: f64 = s.segment_sizes.iter().map(|x| x.value()).sum();
            prop_assert!((received - total).abs() < 1e-6 * total);
        }
    }

    /// The scanning scheduler as it stood before the indexed one replaced
    /// it, kept verbatim as the reference the indexed path must match bit
    /// for bit: `channels_for` and `next_start_of` per segment, a replica
    /// list per chunk, and an `all` scan plus a re-sort of the occupied
    /// intervals for every chunk placed.
    fn scanning_reference(
        plan: &ChannelPlan,
        video: VideoId,
        arrival: Minutes,
        display_rate: Mbps,
    ) -> Result<PausingSchedule, PolicyError> {
        let sizes: &[Mbits] = plan
            .segment_sizes
            .get(video.0)
            .ok_or(PolicyError::UnknownVideo(video))?;

        let first = BroadcastItem { video, segment: 0 };
        let carriers0 = plan.channels_for(first);
        if carriers0.is_empty() {
            return Err(PolicyError::MissingSegment(0));
        }
        let playback_start = carriers0
            .iter()
            .filter_map(|c| c.next_start_of(first, arrival))
            .min_by(|a, b| a.partial_cmp(b).expect("finite"))
            .ok_or(PolicyError::MissingSegment(0))?;

        let mut sched = PausingSchedule {
            arrival,
            playback_start,
            display_rate,
            segment_sizes: sizes.to_vec(),
            bursts: Vec::new(),
        };

        let ch0 = carriers0
            .iter()
            .find(|c| {
                c.next_start_of(first, arrival)
                    .is_some_and(|s| s.approx_eq(playback_start, 1e-9))
            })
            .unwrap_or(&carriers0[0]);
        sched.bursts.push(Burst {
            segment: 0,
            chunk: 0,
            channel: ch0.id,
            start: playback_start,
            duration: (sizes[0] / ch0.rate).to_minutes(),
            rate: ch0.rate,
            content_offset: Mbits(0.0),
            size: sizes[0],
        });

        struct PendingChunk {
            segment: usize,
            chunk: usize,
            lattice_origin: f64,
            lattice_step: f64,
            duration: f64,
            deadline: f64,
            rate: Mbps,
            offset: Mbits,
            size: Mbits,
            replicas: Vec<usize>,
        }
        let mut pending: Vec<PendingChunk> = Vec::new();
        #[allow(clippy::needless_range_loop)]
        for segment in 1..sizes.len() {
            let item = BroadcastItem { video, segment };
            let carriers = plan.channels_for(item);
            if carriers.is_empty() {
                return Err(PolicyError::MissingSegment(segment));
            }
            let p = carriers.len();
            let rate = carriers[0].rate;
            let mut by_phase: Vec<_> = carriers.iter().map(|c| (c.phase.value(), c.id)).collect();
            by_phase.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let replicas: Vec<usize> = by_phase.into_iter().map(|(_, id)| id).collect();
            let on_air = (sizes[segment] / rate).to_minutes().value();
            let delta = on_air / p as f64;
            let chunks = p * SUBDIVISIONS;
            let eps = on_air / chunks as f64;
            let chunk_size = Mbits(sizes[segment].value() / chunks as f64);
            let pb = sched.playback_start_of(segment).value();
            let b = display_rate.value();
            for j in 0..chunks {
                let offset = Mbits(chunk_size.value() * j as f64);
                let deadline = pb + offset.value() / (b * 60.0);
                pending.push(PendingChunk {
                    segment,
                    chunk: j,
                    lattice_origin: j as f64 * eps,
                    lattice_step: delta,
                    duration: eps,
                    deadline,
                    rate,
                    offset,
                    size: chunk_size,
                    replicas: replicas.clone(),
                });
            }
        }
        pending.sort_by(|a, b| b.deadline.partial_cmp(&a.deadline).expect("finite"));

        let mut occupied: Vec<(f64, f64)> = sched
            .bursts
            .iter()
            .map(|b| (b.start.value(), b.end().value()))
            .collect();

        for c in &pending {
            let mut k = ((c.deadline - c.lattice_origin) / c.lattice_step).floor();
            while c.lattice_origin + k * c.lattice_step > c.deadline + 1e-9 {
                k -= 1.0;
            }
            let start = loop {
                let s = c.lattice_origin + k * c.lattice_step;
                if k < 0.0 || s + 1e-9 < arrival.value() {
                    return Err(PolicyError::NoFeasibleBroadcast { segment: c.segment });
                }
                let e = s + c.duration;
                let free = occupied
                    .iter()
                    .all(|&(os, oe)| e <= os + 1e-9 || s >= oe - 1e-9);
                if free {
                    break s;
                }
                k -= 1.0;
            };
            occupied.push((start, start + c.duration));
            occupied.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let replica = (k as i64).rem_euclid(c.replicas.len() as i64) as usize;
            sched.bursts.push(Burst {
                segment: c.segment,
                chunk: c.chunk,
                channel: c.replicas[replica],
                start: Minutes(start),
                duration: Minutes(c.duration),
                rate: c.rate,
                content_offset: c.offset,
                size: c.size,
            });
        }
        sched
            .bursts
            .sort_by(|a, b| a.start.partial_cmp(&b.start).expect("finite"));
        Ok(sched)
    }

    /// A scheduling result as comparable bytes: the schedule's JSON, or
    /// the error.
    fn result_bytes(r: &Result<PausingSchedule, PolicyError>) -> String {
        match r {
            Ok(s) => serde_json::to_string(s).unwrap(),
            Err(e) => format!("error {e:?}"),
        }
    }

    /// Every PPB plan the pin covers: both variants at each bandwidth
    /// that plans.
    fn pinned_plans() -> Vec<(String, ChannelPlan, Mbps)> {
        let mut out = Vec::new();
        for b in [60.0, 120.0, 200.0, 320.0, 600.0] {
            let cfg = SystemConfig::paper_defaults(Mbps(b));
            for (tag, scheme) in [
                ("PPB:a", PermutationPyramid::a()),
                ("PPB:b", PermutationPyramid::b()),
            ] {
                if let Ok(plan) = scheme.plan(&cfg) {
                    out.push((format!("{tag} at {b} Mb/s"), plan, cfg.display_rate));
                }
            }
        }
        assert!(out.len() >= 6, "too few PPB plans to pin: {}", out.len());
        out
    }

    /// Arrivals that sit on the scheduler's edges for `video`: exact
    /// segment-0 broadcast starts (early and late in the run), ±1e-9 and
    /// ±1e-12 of them, and chunk lattice points of the first and last
    /// paused segments.
    fn edge_arrivals(plan: &ChannelPlan, video: VideoId) -> Vec<f64> {
        let first = BroadcastItem { video, segment: 0 };
        let mut starts: Vec<f64> = Vec::new();
        for c in plan.channels_for(first) {
            for t in [0.0, 7.3, 611.9] {
                if let Some(s) = c.next_start_of(first, Minutes(t)) {
                    starts.push(s.value());
                }
            }
        }
        let mut out = Vec::new();
        for s in starts {
            for d in [0.0, 1e-9, -1e-9, 1e-12, -1e-12] {
                out.push(s + d);
            }
        }
        let sizes = &plan.segment_sizes[video.0];
        for segment in [1, sizes.len() - 1] {
            let carriers = plan.channels_for(BroadcastItem { video, segment });
            let p = carriers.len();
            let on_air = (sizes[segment] / carriers[0].rate).to_minutes().value();
            let delta = on_air / p as f64;
            let eps = on_air / (p * SUBDIVISIONS) as f64;
            for (j, k) in [
                (0usize, 1.0f64),
                (1, 2.0),
                (SUBDIVISIONS - 1, 3.0),
                (3, 40.0),
            ] {
                out.push(j as f64 * eps + k * delta);
            }
        }
        out
    }

    #[test]
    fn indexed_scheduler_matches_the_scanning_reference_on_every_edge() {
        let mut compared = 0usize;
        for (name, plan, rate) in pinned_plans() {
            let index = plan.index();
            for v in 0..=plan.num_videos() {
                let video = VideoId(v);
                let arrivals = if v < plan.num_videos() {
                    edge_arrivals(&plan, video)
                } else {
                    vec![0.0]
                };
                for arrival in arrivals {
                    let want = scanning_reference(&plan, video, Minutes(arrival), rate);
                    let got =
                        schedule_pausing_client_indexed(&index, video, Minutes(arrival), rate);
                    assert_eq!(
                        result_bytes(&got),
                        result_bytes(&want),
                        "{name}, video {v}, arrival {arrival:e}"
                    );
                    compared += 1;
                }
            }
        }
        assert!(compared > 1000, "only {compared} schedules compared");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The indexed scheduler gives the scanning reference's bytes at
        /// random bandwidths, variants, videos and arrivals, on and off
        /// the segment-0 broadcast starts.
        #[test]
        fn indexed_scheduler_matches_the_scanning_reference(
            plan_pick in 0usize..64,
            video in 0usize..11,
            arrival in 0.0f64..900.0,
            snap in 0usize..6,
        ) {
            let plans = pinned_plans();
            let (name, plan, rate) = &plans[plan_pick % plans.len()];
            let video = VideoId(video);
            let arrival = if snap == 0 || video.0 >= plan.num_videos() {
                arrival
            } else {
                // The next segment-0 start, nudged by one of the edge
                // offsets.
                let first = BroadcastItem { video, segment: 0 };
                let s = plan.channels_for(first)[0]
                    .next_start_of(first, Minutes(arrival))
                    .unwrap()
                    .value();
                s + [0.0, 1e-9, -1e-9, 1e-12, -1e-12][snap - 1]
            };
            let want = scanning_reference(plan, video, Minutes(arrival), *rate);
            let got = schedule_pausing_client_indexed(&plan.index(), video, Minutes(arrival), *rate);
            prop_assert_eq!(
                result_bytes(&got),
                result_bytes(&want),
                "{}, video {}, arrival {:e}",
                name,
                video.0,
                arrival
            );
        }
    }

    #[test]
    fn unknown_video_errors() {
        let (cfg, plan, _) = setup(320.0);
        assert!(matches!(
            schedule_pausing_client(&plan, VideoId(55), Minutes(0.0), cfg.display_rate),
            Err(PolicyError::UnknownVideo(_))
        ));
    }
}
