//! Scheme-agnostic broadcast plans.
//!
//! Every periodic-broadcast scheme in this workspace — Skyscraper, PB, PPB,
//! staggered — reduces to the same server-side artifact: a set of *logical
//! channels*, each with a fixed rate, a phase offset, and a finite cyclic
//! schedule of `(video, segment)` items that repeats forever. The
//! discrete-event simulator consumes exactly this representation, so the
//! analytic formulas and the empirical measurements are computed from the
//! same object.

use serde::{Deserialize, Serialize};
use vod_units::{Mbits, Mbps, Minutes};

/// Identifier of a video within a plan (dense, 0-based).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct VideoId(pub usize);

impl core::fmt::Display for VideoId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// One `(video, segment)` pair carried by a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BroadcastItem {
    /// The video the segment belongs to.
    pub video: VideoId,
    /// Segment index within the video (0-based).
    pub segment: usize,
}

/// One entry of a channel's cyclic schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduledSegment {
    /// What is broadcast.
    pub item: BroadcastItem,
    /// Size of the segment in Mbits.
    pub size: Mbits,
    /// On-air time of one transmission of the segment at the channel rate,
    /// in minutes (`size / rate`).
    pub on_air: Minutes,
}

/// A logical channel: a constant-rate stream cyclically transmitting its
/// schedule, first transmission beginning at `phase` minutes past the
/// simulation epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogicalChannel {
    /// Dense channel id within the plan.
    pub id: usize,
    /// Constant transmission rate of the channel.
    pub rate: Mbps,
    /// Offset of the first cycle start from the epoch. PPB's
    /// phase-shifted subchannel replicas are expressed with this; all
    /// other schemes use zero.
    pub phase: Minutes,
    /// The cyclic schedule (repeats forever, back to back).
    pub cycle: Vec<ScheduledSegment>,
}

impl LogicalChannel {
    /// Duration of one full cycle in minutes.
    #[must_use]
    pub fn period(&self) -> Minutes {
        self.cycle.iter().map(|s| s.on_air).sum()
    }

    /// Boundary tolerance for occurrence arithmetic, in period units.
    ///
    /// Callers hand in times computed from the same plan, so a boundary
    /// reached through a different float chain must count as a hit. The
    /// slack scales with `q` (occurrence index) because the noise in
    /// `offset + n·period` does — but only by ulps: 256·ε ≈ 5.7e-14
    /// relative, a couple of orders above accumulated rounding error
    /// and many below any genuinely distinct arrival. (A fixed `1e-9`
    /// *relative* slack once swallowed a real 3.2e-5-minute gap at
    /// t ≈ 32 000 min, handing clients a "next" broadcast that had
    /// already started and making their follow-up segment infeasible.)
    fn boundary_eps(q: f64) -> f64 {
        256.0 * f64::EPSILON * q.abs().max(1.0)
    }

    /// The first transmission start of `item` at or after `t`.
    ///
    /// Returns `None` if the channel never carries `item`.
    #[must_use]
    pub fn next_start_of(&self, item: BroadcastItem, t: Minutes) -> Option<Minutes> {
        let period = self.period().value();
        debug_assert!(period > 0.0, "channel {} has an empty cycle", self.id);
        let mut acc = 0.0;
        let mut best: Option<f64> = None;
        for s in &self.cycle {
            if s.item == item {
                // Occurrences are phase + offset + n·period for n ≥ 0; want
                // the smallest ≥ t, treating boundary hits (within
                // [`Self::boundary_eps`]) as valid occurrences.
                let offset = self.phase.value() + acc;
                let q = (t.value() - offset) / period;
                let eps = Self::boundary_eps(q);
                let n = (q - eps).ceil().max(0.0);
                let candidate = offset + n * period;
                // Guard against f64 edge: candidate may land just below t.
                let candidate = if candidate < t.value() - eps * period {
                    candidate + period
                } else {
                    candidate
                };
                best = Some(match best {
                    Some(b) => b.min(candidate),
                    None => candidate,
                });
            }
            acc += s.on_air.value();
        }
        best.map(Minutes)
    }
}

/// A complete broadcast plan for the popular-video set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelPlan {
    /// Human-readable scheme tag (e.g. `"SB:W=52"`, `"PB:a"`).
    pub scheme: String,
    /// Per-video segment sizes in Mbits (index = `VideoId`).
    pub segment_sizes: Vec<Vec<Mbits>>,
    /// The logical channels.
    pub channels: Vec<LogicalChannel>,
}

impl ChannelPlan {
    /// Aggregate bandwidth of all channels.
    #[must_use]
    pub fn total_bandwidth(&self) -> Mbps {
        Mbps(self.channels.iter().map(|c| c.rate.value()).sum())
    }

    /// Number of videos covered by the plan.
    #[must_use]
    pub fn num_videos(&self) -> usize {
        self.segment_sizes.len()
    }

    /// The channels carrying a given item, if any.
    #[must_use]
    pub fn channels_for(&self, item: BroadcastItem) -> Vec<&LogicalChannel> {
        self.channels
            .iter()
            .filter(|c| c.cycle.iter().any(|s| s.item == item))
            .collect()
    }

    /// Precompute the carrier index: per-item channel/occurrence lookup
    /// in O(1) instead of a scan over every cycle entry of every channel.
    ///
    /// The index answers exactly the queries [`ChannelPlan::channels_for`]
    /// and [`LogicalChannel::next_start_of`] answer, and the scanning
    /// `prev_start_of` this module's tests keep, with bit-identical
    /// results (same float expressions, same fold order) — it only
    /// changes the lookup cost, which matters for plans with tens of
    /// thousands of cycle entries (FB/CTIFB at their segment cap).
    #[must_use]
    pub fn index(&self) -> PlanIndex<'_> {
        PlanIndex::new(self)
    }

    /// Structural validation:
    ///
    /// * every `(video, segment)` of `segment_sizes` is carried by at least
    ///   one channel, with a matching size;
    /// * total channel bandwidth does not exceed `budget` (within a relative
    ///   tolerance for float accumulation);
    /// * all cycles are non-empty and rates positive.
    pub fn validate(&self, budget: Mbps) -> Result<(), String> {
        for ch in &self.channels {
            if ch.cycle.is_empty() {
                return Err(format!("channel {} has an empty cycle", ch.id));
            }
            if !(ch.rate.value().is_finite() && ch.rate.value() > 0.0) {
                return Err(format!("channel {} has non-positive rate", ch.id));
            }
            if ch.phase.value() < 0.0 {
                return Err(format!("channel {} has negative phase", ch.id));
            }
            for s in &ch.cycle {
                let (v, g) = (s.item.video.0, s.item.segment);
                let expect = self
                    .segment_sizes
                    .get(v)
                    .and_then(|ss| ss.get(g))
                    .ok_or_else(|| format!("channel {} schedules unknown item v{v}/s{g}", ch.id))?;
                if !s.size.approx_eq(*expect, 1e-6 * expect.value().max(1.0)) {
                    return Err(format!(
                        "channel {} carries v{v}/s{g} with size {} but layout says {}",
                        ch.id, s.size, expect
                    ));
                }
            }
        }
        for (v, sizes) in self.segment_sizes.iter().enumerate() {
            for g in 0..sizes.len() {
                let item = BroadcastItem {
                    video: VideoId(v),
                    segment: g,
                };
                if self.channels_for(item).is_empty() {
                    return Err(format!("item v{v}/s{g} is never broadcast"));
                }
            }
        }
        let total = self.total_bandwidth();
        if total.value() > budget.value() * (1.0 + 1e-9) {
            return Err(format!(
                "plan uses {total} which exceeds the budget {budget}"
            ));
        }
        Ok(())
    }
}

/// One channel's occurrences of one item: the channel's position in
/// [`ChannelPlan::channels`] plus the absolute start offset of each
/// occurrence within the first cycle (phase included), in cycle order.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemOccurrences {
    /// Index into [`ChannelPlan::channels`].
    pub channel: usize,
    /// `phase + Σ on_air` of the entries preceding each occurrence —
    /// the occurrence's start time within the first cycle.
    offsets: Vec<f64>,
}

/// A precomputed per-item carrier index over a [`ChannelPlan`].
///
/// [`ChannelPlan::channels_for`] scans every cycle entry of every channel
/// on each call, and the per-channel occurrence searches rescan the whole
/// cycle; for FB-shaped plans at the segment cap (2¹⁶ − 1 segments per
/// video) a single client session costs ~4·10¹⁰ comparisons that way.
/// The index is built once in O(total cycle entries) and then answers
/// carrier and next/prev-start queries in time proportional to the
/// answer. All arithmetic is copied expression-for-expression from
/// [`LogicalChannel`] (including the ulp-scale boundary tolerance and the
/// fold order over occurrences), so results are bit-identical to the
/// scanning path — the unit tests pin this.
#[derive(Debug)]
pub struct PlanIndex<'a> {
    plan: &'a ChannelPlan,
    /// Per channel: cycle period, same summation order as
    /// [`LogicalChannel::period`].
    periods: Vec<f64>,
    /// `carriers[video][segment]` → occurrences, in channel order.
    carriers: Vec<Vec<Vec<ItemOccurrences>>>,
}

impl<'a> PlanIndex<'a> {
    fn new(plan: &'a ChannelPlan) -> Self {
        let mut carriers: Vec<Vec<Vec<ItemOccurrences>>> = plan
            .segment_sizes
            .iter()
            .map(|sizes| vec![Vec::new(); sizes.len()])
            .collect();
        let mut periods = Vec::with_capacity(plan.channels.len());
        for (ci, ch) in plan.channels.iter().enumerate() {
            // Same accumulation as `LogicalChannel::period` /
            // `next_start_of`: a running sum over the cycle in order.
            let mut acc = 0.0f64;
            for s in &ch.cycle {
                let (v, g) = (s.item.video.0, s.item.segment);
                if let Some(per_seg) = carriers.get_mut(v).and_then(|vs| vs.get_mut(g)) {
                    let offset = ch.phase.value() + acc;
                    match per_seg.last_mut() {
                        Some(occ) if occ.channel == ci => occ.offsets.push(offset),
                        _ => per_seg.push(ItemOccurrences {
                            channel: ci,
                            offsets: vec![offset],
                        }),
                    }
                }
                acc += s.on_air.value();
            }
            periods.push(ch.cycle.iter().map(|s| s.on_air.value()).sum());
        }
        Self {
            plan,
            periods,
            carriers,
        }
    }

    /// The plan this index was built from.
    #[must_use]
    pub fn plan(&self) -> &'a ChannelPlan {
        self.plan
    }

    /// The channels carrying `item`, in the same order
    /// [`ChannelPlan::channels_for`] returns them. Empty when the item is
    /// unknown or never broadcast.
    #[must_use]
    pub fn carriers(&self, item: BroadcastItem) -> &[ItemOccurrences] {
        self.carriers
            .get(item.video.0)
            .and_then(|vs| vs.get(item.segment))
            .map_or(&[], Vec::as_slice)
    }

    /// The channel behind an occurrence list.
    #[must_use]
    pub fn channel(&self, occ: &ItemOccurrences) -> &'a LogicalChannel {
        &self.plan.channels[occ.channel]
    }

    /// The channel's cycle period (same value as
    /// [`LogicalChannel::period`]).
    #[must_use]
    pub fn period(&self, occ: &ItemOccurrences) -> Minutes {
        Minutes(self.periods[occ.channel])
    }

    /// [`LogicalChannel::next_start_of`] for an indexed carrier: the first
    /// transmission start of the item at or after `t`. Never `None` — an
    /// [`ItemOccurrences`] only exists for carried items.
    #[must_use]
    pub fn next_start(&self, occ: &ItemOccurrences, t: Minutes) -> Minutes {
        let period = self.periods[occ.channel];
        let mut best: Option<f64> = None;
        for &offset in &occ.offsets {
            let q = (t.value() - offset) / period;
            let eps = LogicalChannel::boundary_eps(q);
            let n = (q - eps).ceil().max(0.0);
            let candidate = offset + n * period;
            let candidate = if candidate < t.value() - eps * period {
                candidate + period
            } else {
                candidate
            };
            best = Some(match best {
                Some(b) => b.min(candidate),
                None => candidate,
            });
        }
        Minutes(best.expect("occurrence lists are non-empty by construction"))
    }

    /// The last transmission start of the item at or before `t` (but
    /// never before the channel's phase), `None` when the channel has
    /// not aired it yet.
    #[must_use]
    pub fn prev_start(&self, occ: &ItemOccurrences, t: Minutes) -> Option<Minutes> {
        let period = self.periods[occ.channel];
        let mut best: Option<f64> = None;
        for &offset in &occ.offsets {
            let q = (t.value() - offset) / period;
            let eps = LogicalChannel::boundary_eps(q);
            if q >= -eps {
                let n = (q + eps).floor().max(0.0);
                let mut candidate = offset + n * period;
                if candidate > t.value() + eps * period {
                    candidate -= period;
                }
                if candidate >= offset - 1e-12 {
                    best = Some(match best {
                        Some(b) => b.max(candidate),
                        None => candidate,
                    });
                }
            }
        }
        best.map(Minutes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scanning lookup the index's `prev_start` replaced: the last
    /// transmission start of `item` on `ch` at or before `t` (but never
    /// before the channel's phase), `None` if the channel never carries
    /// `item` or has not yet aired it by `t`.
    fn prev_start_of(ch: &LogicalChannel, item: BroadcastItem, t: Minutes) -> Option<Minutes> {
        let period = ch.period().value();
        let mut acc = 0.0;
        let mut best: Option<f64> = None;
        for s in &ch.cycle {
            if s.item == item {
                let offset = ch.phase.value() + acc;
                // Occurrences at offset + n·period, n ≥ 0; want the largest
                // ≤ t, treating boundary hits (within
                // [`LogicalChannel::boundary_eps`]) as valid occurrences.
                let q = (t.value() - offset) / period;
                let eps = LogicalChannel::boundary_eps(q);
                if q >= -eps {
                    let n = (q + eps).floor().max(0.0);
                    let mut candidate = offset + n * period;
                    if candidate > t.value() + eps * period {
                        candidate -= period;
                    }
                    if candidate >= offset - 1e-12 {
                        best = Some(match best {
                            Some(b) => b.max(candidate),
                            None => candidate,
                        });
                    }
                }
            }
            acc += s.on_air.value();
        }
        best.map(Minutes)
    }

    fn toy_channel() -> LogicalChannel {
        // One channel alternating two items of 1 and 2 minutes on air.
        let mk = |video, segment, mins: f64| ScheduledSegment {
            item: BroadcastItem {
                video: VideoId(video),
                segment,
            },
            size: Mbps(1.5) * Minutes(mins),
            on_air: Minutes(mins),
        };
        LogicalChannel {
            id: 0,
            rate: Mbps(1.5),
            phase: Minutes(0.0),
            cycle: vec![mk(0, 0, 1.0), mk(0, 1, 2.0)],
        }
    }

    #[test]
    fn period_and_starts() {
        let ch = toy_channel();
        assert!(ch.period().approx_eq(Minutes(3.0), 1e-12));
        let item0 = BroadcastItem {
            video: VideoId(0),
            segment: 0,
        };
        let item1 = BroadcastItem {
            video: VideoId(0),
            segment: 1,
        };
        for (item, t, start) in [
            (item0, 0.0, 0.0),
            (item0, 0.1, 3.0),
            (item0, 3.1, 6.0),
            (item1, 0.0, 1.0),
            (item1, 1.1, 4.0),
        ] {
            assert_eq!(ch.next_start_of(item, Minutes(t)), Some(Minutes(start)));
        }
    }

    #[test]
    fn next_start_respects_phase() {
        let mut ch = toy_channel();
        ch.phase = Minutes(0.5);
        let item1 = BroadcastItem {
            video: VideoId(0),
            segment: 1,
        };
        // First airing of item1 at phase + 1.0 = 1.5.
        assert!(ch
            .next_start_of(item1, Minutes(0.0))
            .unwrap()
            .approx_eq(Minutes(1.5), 1e-12));
        assert!(ch
            .next_start_of(item1, Minutes(1.6))
            .unwrap()
            .approx_eq(Minutes(4.5), 1e-12));
        // Exactly at an occurrence returns that occurrence.
        assert!(ch
            .next_start_of(item1, Minutes(4.5))
            .unwrap()
            .approx_eq(Minutes(4.5), 1e-12));
    }

    #[test]
    fn prev_start_mirrors_next_start() {
        let mut ch = toy_channel();
        ch.phase = Minutes(0.5);
        let item1 = BroadcastItem {
            video: VideoId(0),
            segment: 1,
        };
        // Occurrences at 1.5, 4.5, 7.5, …
        assert_eq!(prev_start_of(&ch, item1, Minutes(1.0)), None);
        assert!(prev_start_of(&ch, item1, Minutes(1.5))
            .unwrap()
            .approx_eq(Minutes(1.5), 1e-12));
        assert!(prev_start_of(&ch, item1, Minutes(5.0))
            .unwrap()
            .approx_eq(Minutes(4.5), 1e-12));
        // prev(next(t)) == next(t).
        let nxt = ch.next_start_of(item1, Minutes(3.0)).unwrap();
        assert!(prev_start_of(&ch, item1, nxt)
            .unwrap()
            .approx_eq(nxt, 1e-12));
    }

    #[test]
    fn boundary_eps_stays_below_real_gaps_at_large_t() {
        // Regression: at t ≈ 32 343 min on a 120/713-minute period
        // (≈ 192 000 occurrences in), a 1e-9-relative slack once
        // swallowed a genuine 3.2e-5-minute gap and `next_start_of`
        // returned a broadcast that had already started. The tolerance
        // must be ulp-scale: next ≥ t, and prev strictly behind next.
        let mk = |segment, mins: f64| ScheduledSegment {
            item: BroadcastItem {
                video: VideoId(7),
                segment,
            },
            size: Mbps(1.5) * Minutes(mins),
            on_air: Minutes(mins),
        };
        let period = 120.0 / 713.0;
        let ch = LogicalChannel {
            id: 147,
            rate: Mbps(1.5),
            phase: Minutes(0.0),
            cycle: vec![mk(0, period)],
        };
        let item = BroadcastItem {
            video: VideoId(7),
            segment: 0,
        };
        // The 2.2M-session grid arrival that used to go infeasible.
        let t = Minutes(32_343.113_636_363_636);
        let next = ch.next_start_of(item, t).unwrap();
        assert!(
            next.value() >= t.value() - 1e-9,
            "next_start_of went backwards: {} < {}",
            next.value(),
            t.value(),
        );
        // The plan's index holds the channel as its only carrier.
        let mut segment_sizes = vec![Vec::new(); 8];
        segment_sizes[7] = vec![ch.cycle[0].size];
        let plan = ChannelPlan {
            scheme: "boundary".into(),
            segment_sizes,
            channels: vec![ch.clone()],
        };
        let index = plan.index();
        let occ = &index.carriers(item)[0];
        assert_eq!(index.next_start(occ, t), next);
        let prev = index.prev_start(occ, t).unwrap();
        assert!(prev < next, "prev {prev:?} not behind next {next:?}");
        assert!((next.value() - prev.value() - period).abs() < 1e-6);
        // Exact boundary hits (same float chain) still snap.
        assert_eq!(ch.next_start_of(item, next), Some(next));
        assert_eq!(index.prev_start(occ, prev), Some(prev));
    }

    #[test]
    fn index_is_bit_identical_to_the_scanning_path() {
        // Two channels, phases, interleaved multi-occurrence cycles — the
        // index must reproduce channels_for / next_start_of /
        // prev_start_of exactly (same floats, not just approximately).
        let mk = |video, segment, mins: f64| ScheduledSegment {
            item: BroadcastItem {
                video: VideoId(video),
                segment,
            },
            size: Mbps(1.5) * Minutes(mins),
            on_air: Minutes(mins),
        };
        let plan = ChannelPlan {
            scheme: "toy".into(),
            segment_sizes: vec![
                vec![Mbps(1.5) * Minutes(1.0), Mbps(1.5) * Minutes(2.0)],
                vec![Mbps(1.5) * Minutes(0.7)],
            ],
            channels: vec![
                LogicalChannel {
                    id: 0,
                    rate: Mbps(1.5),
                    phase: Minutes(0.0),
                    // Item (0,0) occurs twice, interleaved with (0,1).
                    cycle: vec![mk(0, 0, 1.0), mk(0, 1, 2.0), mk(0, 0, 1.0)],
                },
                LogicalChannel {
                    id: 1,
                    rate: Mbps(3.0),
                    phase: Minutes(0.4),
                    cycle: vec![mk(1, 0, 0.7), mk(0, 0, 1.0)],
                },
            ],
        };
        let index = plan.index();
        for (v, sizes) in plan.segment_sizes.iter().enumerate() {
            for g in 0..sizes.len() {
                let item = BroadcastItem {
                    video: VideoId(v),
                    segment: g,
                };
                let scan = plan.channels_for(item);
                let fast = index.carriers(item);
                assert_eq!(
                    scan.iter().map(|c| c.id).collect::<Vec<_>>(),
                    fast.iter().map(|o| index.channel(o).id).collect::<Vec<_>>(),
                    "carrier order for v{v}/s{g}"
                );
                for (ch, occ) in scan.iter().zip(fast) {
                    assert_eq!(ch.period(), index.period(occ));
                    // Awkward query times included: negative offsets,
                    // exact boundaries, far future.
                    for t in [0.0, 0.35, 0.4, 1.0, 2.9999999, 3.0, 17.23, 1234.5678] {
                        assert_eq!(
                            ch.next_start_of(item, Minutes(t)),
                            Some(index.next_start(occ, Minutes(t))),
                            "next_start v{v}/s{g} ch{} t={t}",
                            ch.id
                        );
                        assert_eq!(
                            prev_start_of(ch, item, Minutes(t)),
                            index.prev_start(occ, Minutes(t)),
                            "prev_start v{v}/s{g} ch{} t={t}",
                            ch.id
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn next_start_of_missing_item_is_none() {
        let ch = toy_channel();
        let ghost = BroadcastItem {
            video: VideoId(9),
            segment: 9,
        };
        assert_eq!(ch.next_start_of(ghost, Minutes(0.0)), None);
    }

    #[test]
    fn plan_validation() {
        let ch = toy_channel();
        let plan = ChannelPlan {
            scheme: "toy".into(),
            segment_sizes: vec![vec![Mbps(1.5) * Minutes(1.0), Mbps(1.5) * Minutes(2.0)]],
            channels: vec![ch],
        };
        plan.validate(Mbps(2.0)).unwrap();
        assert!(plan.validate(Mbps(1.0)).is_err()); // over budget
        let mut broken = plan.clone();
        broken.segment_sizes[0].push(Mbps(1.5) * Minutes(9.0));
        assert!(broken.validate(Mbps(2.0)).is_err()); // un-broadcast item
    }
}
