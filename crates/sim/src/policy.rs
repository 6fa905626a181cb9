//! Per-scheme client policies: how a set-top box decides *which broadcast
//! to catch* for each fragment.
//!
//! All policies share the tune-at-start discipline the paper insists on
//! ("we only tune to the beginning of any broadcast as in the original
//! PB") and differ only in which beginning they pick:
//!
//! * [`ClientPolicy::LatestFeasible`] — for each segment, catch the
//!   **latest** broadcast that still delivers every byte by its playback
//!   deadline. This is the behaviour of SB's odd/even loaders (see
//!   `sb_core::client`), of a PPB client choosing among its phase-shifted
//!   replicas, and of a staggered client (which degenerates to "play the
//!   next start live"). It is the buffer-minimizing choice.
//! * [`ClientPolicy::PbEarliest`] — PB's rule from §2: "it downloads the
//!   next fragment at the earliest possible time after beginning to play
//!   back the current fragment". Buffer-hungry but simple; reproducing
//!   PB's storage numbers requires modeling it faithfully.
//!
//! Playback start is policy-independent: the earliest broadcast of the
//! video's first fragment at or after the client's arrival, over all
//! channels that carry it — whose worst case over arrivals is exactly the
//! scheme's access latency.

use serde::{Deserialize, Serialize};
use vod_units::{Mbits, Mbps, Minutes};

use sb_core::plan::{BroadcastItem, ChannelPlan, PlanIndex, VideoId};

use crate::schedule::{ClientSchedule, Download};

/// Which broadcast a client catches for each fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ClientPolicy {
    /// Latest deadline-meeting broadcast (SB / PPB / staggered).
    LatestFeasible,
    /// Earliest broadcast after the previous fragment's playback begins
    /// (PB's prefetch rule).
    PbEarliest,
}

/// Errors a client session can hit against a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyError {
    /// The requested video is not in the plan.
    UnknownVideo(VideoId),
    /// A segment is not carried by any channel.
    MissingSegment(usize),
    /// No catchable broadcast exists for a segment: every deadline-meeting
    /// broadcast begins before the client's arrival. (Cannot happen for a
    /// correct scheme; surfaces plan bugs.)
    NoFeasibleBroadcast {
        /// The segment without a catchable broadcast.
        segment: usize,
    },
    /// A shard's results could not be merged: the per-shard streams were
    /// inconsistent (e.g. a trace stream shorter than its scalar stream,
    /// or metric families of conflicting shapes). Carries the offending
    /// shard and the experiment/pool label, mirroring the worker-panic
    /// attribution of `sim::pool`.
    ShardMerge {
        /// Index of the shard whose results broke the merge.
        shard: usize,
        /// Experiment or pool label identifying the run.
        label: String,
        /// What was inconsistent.
        what: String,
    },
    /// A run's request slice is longer than the `u32` index a shard's
    /// route holds per request reaches; carries the slice's length.
    TooManyRequests(usize),
}

impl core::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PolicyError::UnknownVideo(v) => write!(f, "video {v} is not in the plan"),
            PolicyError::MissingSegment(s) => write!(f, "segment {s} is never broadcast"),
            PolicyError::NoFeasibleBroadcast { segment } => {
                write!(f, "no catchable broadcast for segment {segment}")
            }
            PolicyError::ShardMerge { shard, label, what } => {
                write!(f, "shard {shard} ({label}): merge failed: {what}")
            }
            PolicyError::TooManyRequests(n) => {
                write!(f, "{n} requests are more than a u32 index reaches")
            }
        }
    }
}

impl std::error::Error for PolicyError {}

/// Compute a complete client session: arrival at `arrival`, watching
/// `video` from `plan`, consuming at `display_rate`, catching broadcasts
/// according to `policy`.
///
/// Builds a throwaway [`PlanIndex`] — callers scheduling many sessions
/// against one plan (the simulator does) should build the index once and
/// use [`schedule_client_indexed`].
pub fn schedule_client(
    plan: &ChannelPlan,
    video: VideoId,
    arrival: Minutes,
    display_rate: Mbps,
    policy: ClientPolicy,
) -> Result<ClientSchedule, PolicyError> {
    schedule_client_indexed(&plan.index(), video, arrival, display_rate, policy)
}

/// [`schedule_client`] against a prebuilt carrier index — bit-identical
/// output, lookup cost proportional to the answer instead of the plan.
pub fn schedule_client_indexed(
    index: &PlanIndex<'_>,
    video: VideoId,
    arrival: Minutes,
    display_rate: Mbps,
    policy: ClientPolicy,
) -> Result<ClientSchedule, PolicyError> {
    let plan = index.plan();
    let sizes: &[Mbits] = plan
        .segment_sizes
        .get(video.0)
        .ok_or(PolicyError::UnknownVideo(video))?;

    // Playback start: earliest catchable broadcast of segment 0.
    let first = BroadcastItem { video, segment: 0 };
    let (first_ch, first_start) =
        earliest_start(index, first, arrival).ok_or(PolicyError::MissingSegment(0))?;

    let mut sched = ClientSchedule {
        arrival,
        playback_start: first_start,
        display_rate,
        segment_sizes: sizes.to_vec(),
        downloads: Vec::with_capacity(sizes.len()),
    };
    sched.downloads.push(Download {
        item: first,
        channel: first_ch,
        start: first_start,
        rate: plan.channels[first_ch].rate,
        size: sizes[0],
    });

    // Running playback-time prefixes — the same left-to-right summation
    // `ClientSchedule::playback_start_of` performs, kept incrementally so
    // the per-segment deadline is O(1) instead of O(segment).
    let durs: Vec<f64> = sizes
        .iter()
        .map(|&s| (s / display_rate).to_minutes().value())
        .collect();
    let b = display_rate.value();
    let mut prefix = 0.0f64; // Σ durs[j] for j < segment (updated below)
    #[allow(clippy::needless_range_loop)] // `segment` is an identifier, not just an index
    for segment in 1..sizes.len() {
        let prefix_prev = prefix; // Σ_{j < segment−1}
        prefix += durs[segment - 1]; // Σ_{j < segment}
        let pb = sched.playback_start.value() + prefix;
        let item = BroadcastItem { video, segment };
        let pick = match policy {
            ClientPolicy::LatestFeasible => {
                // Latest broadcast start that both (a) is not before
                // arrival and (b) meets the segment's delivery deadline,
                // accounting for the channel's rate.
                let mut best: Option<(usize, Minutes)> = None;
                for occ in index.carriers(item) {
                    let ch = index.channel(occ);
                    // `ClientSchedule::required_start(segment, ch.rate)`.
                    let r = ch.rate.value();
                    let deadline = if r >= b {
                        Minutes(pb)
                    } else {
                        Minutes(pb + durs[segment] * (1.0 - b / r))
                    };
                    if let Some(s) = index.prev_start(occ, deadline) {
                        if s.value() >= arrival.value() - 1e-9 && best.is_none_or(|(_, b)| s > b) {
                            best = Some((ch.id, s));
                        }
                    }
                }
                best
            }
            ClientPolicy::PbEarliest => {
                // Earliest broadcast at or after the previous segment's
                // playback begins.
                let after = Minutes(sched.playback_start.value() + prefix_prev);
                earliest_start(index, item, after)
            }
        };
        let (ch_id, start) = pick.ok_or(PolicyError::NoFeasibleBroadcast { segment })?;
        sched.downloads.push(Download {
            item,
            channel: ch_id,
            start,
            rate: plan.channels[ch_id].rate,
            size: sizes[segment],
        });
    }
    Ok(sched)
}

/// The earliest broadcast start of `item` at or after `t`, over all
/// carrying channels. Returns `(channel id, start)`.
pub(crate) fn earliest_start(
    index: &PlanIndex<'_>,
    item: BroadcastItem,
    t: Minutes,
) -> Option<(usize, Minutes)> {
    let mut best: Option<(usize, Minutes)> = None;
    for occ in index.carriers(item) {
        let s = index.next_start(occ, t);
        if best.is_none_or(|(_, b)| s < b) {
            best = Some((index.channel(occ).id, s));
        }
    }
    best
}

/// The worst observed startup latency over a grid of `n` arrival times in
/// `[0, horizon)` — an empirical stand-in for the scheme's analytic access
/// latency.
pub fn empirical_worst_latency(
    plan: &ChannelPlan,
    video: VideoId,
    display_rate: Mbps,
    policy: ClientPolicy,
    horizon: Minutes,
    n: usize,
) -> Result<Minutes, PolicyError> {
    let index = plan.index();
    let mut worst = Minutes(0.0);
    for i in 0..n {
        let arrival = Minutes(horizon.value() * (i as f64 + 0.37) / n as f64);
        let s = schedule_client_indexed(&index, video, arrival, display_rate, policy)?;
        worst = worst.max(s.startup_latency());
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_core::config::SystemConfig;
    use sb_core::scheme::BroadcastScheme;
    use sb_core::series::Width;
    use sb_core::Skyscraper;
    use sb_pyramid::{PermutationPyramid, PyramidBroadcasting, StaggeredBroadcasting};

    use vod_units::Mbits;

    fn cfg(b: f64) -> SystemConfig {
        SystemConfig::paper_defaults(Mbps(b))
    }

    #[test]
    fn sb_client_matches_slot_model() {
        // The continuous LatestFeasible policy must reproduce the exact
        // integer slot model of sb_core::client, phase for phase.
        let c = cfg(150.0); // K = 10
        let scheme = Skyscraper::with_width(Width::Capped(12));
        let plan = scheme.plan(&c).unwrap();
        let frag = scheme.fragmentation(&c).unwrap();
        let d1 = frag.slot.value();
        for phase_slots in [0u64, 1, 3, 7, 11, 23, 59] {
            let arrival = Minutes(d1 * phase_slots as f64);
            let cont = schedule_client(
                &plan,
                VideoId(2),
                arrival,
                c.display_rate,
                ClientPolicy::LatestFeasible,
            )
            .unwrap();
            cont.validate(&plan).unwrap();
            assert!(cont.jitter_violations(1e-6).is_empty());

            let slot = sb_core::client::ClientTimeline::compute(&frag.units, phase_slots);
            // Same playback start (arrival is exactly on a slot boundary).
            assert!(
                (cont.playback_start.value() - d1 * slot.t0 as f64).abs() < 1e-6,
                "phase {phase_slots}"
            );
            // Same peak buffer, converted through 60·b·D₁ per unit.
            let unit_mbits = c.display_rate.value() * d1 * 60.0;
            let expect = slot.peak_buffer_units() as f64 * unit_mbits;
            let got = cont.peak_buffer().value();
            assert!(
                (got - expect).abs() < 1e-3 * unit_mbits.max(1.0),
                "phase {phase_slots}: slot model {expect} vs continuous {got}"
            );
            assert!(cont.max_concurrent_downloads() <= 2);
        }
    }

    #[test]
    fn sb_latency_bound_holds_empirically() {
        let c = cfg(300.0);
        let scheme = Skyscraper::with_width(Width::Capped(52));
        let plan = scheme.plan(&c).unwrap();
        let analytic = scheme.metrics(&c).unwrap().access_latency;
        let worst = empirical_worst_latency(
            &plan,
            VideoId(0),
            c.display_rate,
            ClientPolicy::LatestFeasible,
            Minutes(10.0),
            400,
        )
        .unwrap();
        assert!(
            worst.value() <= analytic.value() + 1e-9,
            "worst {worst} vs analytic {analytic}"
        );
        // And the bound is nearly attained on a fine grid.
        assert!(worst.value() > analytic.value() * 0.9);
    }

    #[test]
    fn pb_client_buffer_matches_table1() {
        // Drive a PB client at the worst-ish phase and compare the peak
        // buffer with the analytic 60·b·(D_{K−1}(1−1/M)+D_K).
        let c = cfg(300.0);
        let scheme = PyramidBroadcasting::a();
        let plan = scheme.plan(&c).unwrap();
        let analytic = scheme.metrics(&c).unwrap().buffer_requirement;
        let mut worst = Mbits(0.0);
        for i in 0..300 {
            let arrival = Minutes(12.0 * i as f64 / 300.0);
            let s = schedule_client(
                &plan,
                VideoId(0),
                arrival,
                c.display_rate,
                ClientPolicy::PbEarliest,
            )
            .unwrap();
            assert!(s.jitter_violations(1e-6).is_empty(), "arrival {arrival}");
            assert!(s.max_concurrent_downloads() <= 2, "PB uses ≤ 2 channels");
            worst = worst.max(s.peak_buffer());
        }
        let ratio = worst.value() / analytic.value();
        assert!(
            (0.85..=1.01).contains(&ratio),
            "empirical {worst} vs analytic {analytic} (ratio {ratio:.3})"
        );
    }

    #[test]
    fn ppb_client_single_stream_and_latency() {
        let c = cfg(320.0);
        let scheme = PermutationPyramid::b();
        let plan = scheme.plan(&c).unwrap();
        let analytic = scheme.metrics(&c).unwrap();
        let mut worst_latency = Minutes(0.0);
        let mut worst_buffer = Mbits(0.0);
        for i in 0..200 {
            let arrival = Minutes(30.0 * i as f64 / 200.0);
            let s = schedule_client(
                &plan,
                VideoId(1),
                arrival,
                c.display_rate,
                ClientPolicy::LatestFeasible,
            )
            .unwrap();
            assert!(s.jitter_violations(1e-6).is_empty(), "arrival {arrival}");
            // §2: PPB's receptions are (near) sequential — one subchannel
            // stream at a time (abutting windows may share an instant).
            assert!(s.max_concurrent_downloads() <= 2);
            worst_latency = worst_latency.max(s.startup_latency());
            worst_buffer = worst_buffer.max(s.peak_buffer());
        }
        assert!(
            worst_latency.value() <= analytic.access_latency.value() + 1e-6,
            "latency {worst_latency} vs analytic {}",
            analytic.access_latency
        );
        assert!(worst_latency.value() > analytic.access_latency.value() * 0.8);
        // Empirical buffer within the analytic requirement.
        assert!(
            worst_buffer.value() <= analytic.buffer_requirement.value() * 1.02,
            "buffer {worst_buffer} vs analytic {}",
            analytic.buffer_requirement
        );
    }

    #[test]
    fn staggered_client_plays_live() {
        let c = cfg(300.0);
        let plan = StaggeredBroadcasting.plan(&c).unwrap();
        let s = schedule_client(
            &plan,
            VideoId(4),
            Minutes(2.0),
            c.display_rate,
            ClientPolicy::LatestFeasible,
        )
        .unwrap();
        assert!(s.jitter_violations(1e-6).is_empty());
        assert_eq!(s.max_concurrent_downloads(), 1);
        assert!(s.peak_buffer().value() < 1e-6);
        // Worst wait 6 minutes (120/20).
        assert!(s.startup_latency().value() <= 6.0 + 1e-9);
    }

    #[test]
    fn unknown_video_is_an_error() {
        let c = cfg(300.0);
        let plan = StaggeredBroadcasting.plan(&c).unwrap();
        let err = schedule_client(
            &plan,
            VideoId(99),
            Minutes(0.0),
            c.display_rate,
            ClientPolicy::LatestFeasible,
        )
        .unwrap_err();
        assert_eq!(err, PolicyError::UnknownVideo(VideoId(99)));
    }
}
