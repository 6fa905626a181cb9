//! Client schedules: the continuous-time counterpart of
//! `sb_core::client`, usable with *any* [`ChannelPlan`].
//!
//! A [`ClientSchedule`] is the complete record of one client session: when
//! playback of each segment begins and when each segment is received, from
//! which channel, at what rate. From it the simulator derives the three
//! Table-1 metrics empirically:
//!
//! * [`ClientSchedule::startup_latency`] — arrival → playback start,
//! * [`ClientSchedule::max_concurrent_downloads`] — client I/O pressure,
//! * [`ClientSchedule::peak_buffer`] — the maximum of the piecewise-linear
//!   buffer-occupancy curve (received − consumed).
//!
//! [`ClientSchedule::jitter_violations`] checks starvation exactly: byte
//! `b·τ` of a segment must be delivered no later than it is consumed, which
//! for a constant-rate contiguous reception reduces to a closed-form test
//! per segment (worst at the start for fast channels, at the end for slow
//! ones).

use serde::{Deserialize, Serialize};
use vod_units::{Mbits, Mbps, Minutes};

use sb_core::plan::{BroadcastItem, ChannelPlan};

use crate::trace::{Reception, SessionTrace};

/// One contiguous reception of a segment from a channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Download {
    /// What is received.
    pub item: BroadcastItem,
    /// The channel it is received from.
    pub channel: usize,
    /// Reception start (a broadcast start — clients only tune to
    /// beginnings of broadcasts).
    pub start: Minutes,
    /// Reception rate (the channel rate).
    pub rate: Mbps,
    /// Segment size.
    pub size: Mbits,
}

impl Download {
    /// Reception end.
    #[must_use]
    pub fn end(&self) -> Minutes {
        self.start + (self.size / self.rate).to_minutes()
    }
}

/// A starvation report: a segment whose delivery cannot keep up with its
/// playback.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JitterViolation {
    /// The late segment.
    pub segment: usize,
    /// Playback start of the segment.
    pub playback_start: Minutes,
    /// The latest time reception could start and still be jitter-free.
    pub required_start: Minutes,
    /// The actual reception start.
    pub actual_start: Minutes,
}

/// The full record of one client session against a broadcast plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientSchedule {
    /// Arrival time of the request.
    pub arrival: Minutes,
    /// When playback of segment 0 begins.
    pub playback_start: Minutes,
    /// Display rate `b`.
    pub display_rate: Mbps,
    /// Segment sizes in playback order.
    pub segment_sizes: Vec<Mbits>,
    /// One download per segment, in playback order.
    pub downloads: Vec<Download>,
}

impl ClientSchedule {
    /// Playback duration of segment `i`.
    #[must_use]
    pub fn segment_duration(&self, i: usize) -> Minutes {
        (self.segment_sizes[i] / self.display_rate).to_minutes()
    }

    /// Playback start of segment `i`.
    #[must_use]
    pub fn playback_start_of(&self, i: usize) -> Minutes {
        let prefix: f64 = (0..i).map(|j| self.segment_duration(j).value()).sum();
        Minutes(self.playback_start.value() + prefix)
    }

    /// End of playback.
    #[must_use]
    pub fn playback_end(&self) -> Minutes {
        self.playback_start_of(self.segment_sizes.len())
    }

    /// The §5 access latency of this session: arrival → playback start.
    #[must_use]
    pub fn startup_latency(&self) -> Minutes {
        Minutes(self.playback_start.value() - self.arrival.value())
    }

    /// The latest reception start for segment `i` (given its reception
    /// rate) that still delivers every byte on time: byte `b·τ` must arrive
    /// by playback time `τ`, i.e. `start + (b/r)·τ ≤ playback_start + τ`
    /// for all `τ ∈ [0, dur]`. Tight at `τ = 0` when `r ≥ b`, at `τ = dur`
    /// when `r < b`.
    #[must_use]
    pub fn required_start(&self, i: usize, rate: Mbps) -> Minutes {
        let pb = self.playback_start_of(i).value();
        let b = self.display_rate.value();
        let r = rate.value();
        if r >= b {
            Minutes(pb)
        } else {
            let dur = self.segment_duration(i).value();
            Minutes(pb + dur * (1.0 - b / r))
        }
    }

    /// The session as a scheme-agnostic [`SessionTrace`]: one
    /// [`Reception`] per download, covering its whole segment. All buffer,
    /// jitter and concurrency accounting lives on the trace.
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

    /// [`ClientSchedule::trace`], moving the segment sizes into the trace
    /// instead of copying them.
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
        self.downloads
            .iter()
            .map(|d| Reception {
                segment: d.item.segment,
                channel: d.channel,
                start: d.start,
                duration: (d.size / d.rate).to_minutes(),
                rate: d.rate,
                content_offset: Mbits(0.0),
                size: d.size,
            })
            .collect()
    }

    /// All segments whose reception starts too late for starvation-free
    /// playback, within a relative tolerance `tol` (in minutes).
    #[must_use]
    pub fn jitter_violations(&self, tol: f64) -> Vec<JitterViolation> {
        self.trace()
            .violations(tol)
            .into_iter()
            .map(|v| JitterViolation {
                segment: v.segment,
                playback_start: v.playback_start,
                required_start: v.required_start,
                actual_start: v.actual_start,
            })
            .collect()
    }

    /// Maximum number of simultaneously active receptions.
    #[must_use]
    pub fn max_concurrent_downloads(&self) -> usize {
        self.trace().max_concurrent_receptions()
    }

    /// The buffer-occupancy curve as `(time, Mbits)` vertices: total data
    /// received minus total data consumed, evaluated at every breakpoint
    /// (download starts/ends, playback start/end).
    #[must_use]
    pub fn buffer_profile(&self) -> Vec<(Minutes, Mbits)> {
        self.trace().buffer_profile()
    }

    /// Peak of the buffer-occupancy curve.
    #[must_use]
    pub fn peak_buffer(&self) -> Mbits {
        self.trace().peak_buffer()
    }

    /// Structural sanity: one download per segment, in order, matching the
    /// plan's sizes; receptions start no earlier than arrival.
    pub fn validate(&self, plan: &ChannelPlan) -> Result<(), String> {
        if self.downloads.len() != self.segment_sizes.len() {
            return Err(format!(
                "{} downloads for {} segments",
                self.downloads.len(),
                self.segment_sizes.len()
            ));
        }
        for (i, d) in self.downloads.iter().enumerate() {
            if d.item.segment != i {
                return Err(format!("download {i} fetches segment {}", d.item.segment));
            }
            if d.start.value() + 1e-9 < self.arrival.value() {
                return Err(format!(
                    "segment {i} reception at {} precedes arrival {}",
                    d.start, self.arrival
                ));
            }
            let ch = plan
                .channels
                .get(d.channel)
                .ok_or_else(|| format!("download {i} uses unknown channel {}", d.channel))?;
            if !ch.rate.approx_eq(d.rate, 1e-9) {
                return Err(format!(
                    "download {i} rate mismatch with channel {}",
                    d.channel
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sb_core::plan::VideoId;

    /// A hand-built two-segment schedule for exercising the math:
    /// playback at t=10, segments of 2 and 4 minutes at b = 1.5;
    /// segment 0 received live (rate b), segment 1 prefetched early at 3 Mb/s.
    fn toy() -> ClientSchedule {
        let b = Mbps(1.5);
        let sizes = vec![b * Minutes(2.0), b * Minutes(4.0)];
        ClientSchedule {
            arrival: Minutes(9.5),
            playback_start: Minutes(10.0),
            display_rate: b,
            segment_sizes: sizes.clone(),
            downloads: vec![
                Download {
                    item: BroadcastItem {
                        video: VideoId(0),
                        segment: 0,
                    },
                    channel: 0,
                    start: Minutes(10.0),
                    rate: b,
                    size: sizes[0],
                },
                Download {
                    item: BroadcastItem {
                        video: VideoId(0),
                        segment: 1,
                    },
                    channel: 1,
                    start: Minutes(10.0),
                    rate: Mbps(3.0),
                    size: sizes[1],
                },
            ],
        }
    }

    #[test]
    fn latency_and_playback_times() {
        let s = toy();
        assert!(s.startup_latency().approx_eq(Minutes(0.5), 1e-12));
        assert!(s.playback_start_of(1).approx_eq(Minutes(12.0), 1e-12));
        assert!(s.playback_end().approx_eq(Minutes(16.0), 1e-12));
    }

    #[test]
    fn no_jitter_and_two_streams() {
        let s = toy();
        assert!(s.jitter_violations(1e-9).is_empty());
        assert_eq!(s.max_concurrent_downloads(), 2);
    }

    #[test]
    fn buffer_peaks_when_prefetch_outruns_playback() {
        let s = toy();
        // Segment 1 (360 Mbit) arrives over [10, 12] at 3 Mb/s while only
        // segment 0 plays: at t=12 the whole 360 Mbit of segment 1 is
        // buffered and segment 0 has been consumed as received → 360.
        let peak = s.peak_buffer();
        assert!(
            peak.approx_eq(Mbits(360.0), 1e-6),
            "expected 360 Mbit, got {peak}"
        );
        // And the curve drains to zero at playback end.
        let profile = s.buffer_profile();
        let last = profile.last().unwrap();
        assert!(last.1.approx_eq(Mbits::ZERO, 1e-6));
    }

    #[test]
    fn late_start_is_flagged() {
        let mut s = toy();
        s.downloads[1].start = Minutes(12.5); // playback of seg 1 is at 12.0
        let v = s.jitter_violations(1e-9);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].segment, 1);
        assert!(v[0].required_start.approx_eq(Minutes(12.0), 1e-9));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Real SB sessions across random widths/bandwidths/arrivals keep
        /// every invariant: valid against the plan, jitter-free, ≤ 2
        /// streams, buffer profile starting and ending empty, latency
        /// within the analytic bound.
        #[test]
        fn sb_session_invariants(
            wi in 0usize..6,
            b in 100.0f64..600.0,
            arrival in 0.0f64..30.0,
            video in 0usize..10,
        ) {
            use sb_core::config::SystemConfig;
            use sb_core::scheme::BroadcastScheme;
            use sb_core::series::{unit, Width};
            use sb_core::Skyscraper;
            use crate::policy::{schedule_client, ClientPolicy};

            let width = if wi == 0 { Width::Unbounded } else { Width::Capped(unit(2 * wi)) };
            let cfg = SystemConfig::paper_defaults(Mbps(b));
            let scheme = Skyscraper::with_width(width);
            let plan = scheme.plan(&cfg).unwrap();
            let metrics = scheme.metrics(&cfg).unwrap();
            let s = schedule_client(
                &plan,
                VideoId(video),
                Minutes(arrival),
                cfg.display_rate,
                ClientPolicy::LatestFeasible,
            )
            .unwrap();
            s.validate(&plan).unwrap();
            prop_assert!(s.jitter_violations(1e-6).is_empty());
            prop_assert!(s.max_concurrent_downloads() <= 2);
            prop_assert!(s.startup_latency().value() <= metrics.access_latency.value() + 1e-6);
            prop_assert!(s.peak_buffer().value() <= metrics.buffer_requirement.value() * (1.0 + 1e-6));
            let profile = s.buffer_profile();
            prop_assert!(profile.first().unwrap().1.value() < 1e-6);
            prop_assert!(profile.last().unwrap().1.value() < 1e-6);
            // At most two streams, none above the display rate: the
            // client receives at most two display-rate loaders' worth.
            prop_assert!(s.downloads.iter().all(|d| d.rate.value() <= cfg.display_rate.value() + 1e-9));
        }

        /// `required_start` is the exact feasibility boundary: starting at
        /// it is jitter-free, starting any later is not.
        #[test]
        fn required_start_is_tight(rate in 0.8f64..6.0, seg_minutes in 0.5f64..20.0) {
            let b = Mbps(1.5);
            let size = b * Minutes(seg_minutes);
            let mut s = toy();
            s.segment_sizes[1] = size;
            s.downloads[1].size = size;
            s.downloads[1].rate = Mbps(rate);
            let boundary = s.required_start(1, Mbps(rate));
            s.downloads[1].start = boundary;
            prop_assert!(s.jitter_violations(1e-9).is_empty());
            s.downloads[1].start = Minutes(boundary.value() + 0.01);
            prop_assert_eq!(s.jitter_violations(1e-9).len(), 1);
        }
    }

    #[test]
    fn slow_channel_needs_head_start() {
        let mut s = toy();
        // Receive segment 1 at half the display rate: must start dur·(1−b/r)
        // = 4·(1−2) = −4 minutes before its playback, i.e. by t = 8.
        s.downloads[1].rate = Mbps(0.75);
        let required = s.required_start(1, Mbps(0.75));
        assert!(required.approx_eq(Minutes(8.0), 1e-9));
        s.downloads[1].start = Minutes(8.0);
        // Can't actually receive before arrival, but the jitter math itself
        // is what we're testing here.
        assert!(s.jitter_violations(1e-9).is_empty());
        s.downloads[1].start = Minutes(9.0);
        assert_eq!(s.jitter_violations(1e-9).len(), 1);
    }
}
