//! End-to-end packet-level replay of a client session.
//!
//! The closed-form [`crate::trace::SessionTrace`] treats receptions as
//! fluid flows. This module re-executes a session at *packet* granularity:
//! each reception window is chopped into fixed-duration packets, every
//! packet arrival is an event, the player's deadline for each byte is
//! checked against actual cumulative deliveries, and the buffer peak is
//! measured from the event sequence alone. The whole schedule is known up
//! front and nothing is ever cancelled, so the events are sorted once
//! (stably, by tick: equal ticks replay in the order they were built) and
//! walked, with no event engine.
//!
//! Its purpose is defence in depth: the fluid model and the packet replay
//! are *independent* accountings of the same session, so agreement (peak
//! within one packet per concurrent stream, zero underruns) catches
//! errors in either. Because the input is a trace, the replay works for
//! every client model uniformly — tune-at-start downloads, PPB's
//! mid-broadcast chunks, HB's wrap-around recordings — and it also gives
//! the repository a concrete answer to "what does the set-top box
//! actually see on the wire": packets per second, instantaneous stream
//! counts, burst boundaries.

use serde::{Deserialize, Serialize};
use vod_units::{Mbits, Minutes, Seconds, TickDuration, TickScale};

use crate::trace::SessionTrace;

/// Configuration of the packet replay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PacketConfig {
    /// Simulated-time resolution.
    pub scale: TickScale,
    /// Packet pacing: one packet per this many ticks per active stream.
    pub ticks_per_packet: u64,
    /// Network delay jitter: each packet is delayed by a deterministic
    /// pseudo-random amount in `[0, jitter_ticks]`. Zero = ideal plant.
    pub jitter_ticks: u64,
    /// Client de-jitter buffer: playback deadlines are relaxed by this
    /// startup delay (the set-top box holds back playback to absorb
    /// `jitter_ticks` of network variation).
    pub dejitter_ticks: u64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for PacketConfig {
    fn default() -> Self {
        Self {
            // 100 ticks/s, one packet per 10 ticks → 10 packets/s/stream:
            // at 1.5 Mb/s a packet is 18.75 kB, a cable-plant-ish burst.
            scale: TickScale::default(),
            ticks_per_packet: 10,
            jitter_ticks: 0,
            dejitter_ticks: 0,
            seed: 0,
        }
    }
}

impl PacketConfig {
    /// An ideal plant with the given jitter and a matching de-jitter
    /// buffer (the correct dimensioning: hold back exactly the worst-case
    /// network delay).
    #[must_use]
    pub fn with_jitter(jitter_ticks: u64, seed: u64) -> Self {
        Self {
            jitter_ticks,
            dejitter_ticks: jitter_ticks,
            seed,
            ..Self::default()
        }
    }
}

/// Deterministic per-packet delay in `[0, jitter]` (splitmix-style hash of
/// seed, stream and packet index).
fn packet_jitter(seed: u64, stream: usize, idx: u64, jitter: u64) -> u64 {
    if jitter == 0 {
        return 0;
    }
    let mut x = seed
        ^ (stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ idx.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x % (jitter + 1)
}

/// One detected underrun: the player needed data that had not arrived.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Underrun {
    /// The starving segment.
    pub segment: usize,
    /// When the player ran dry.
    pub at: Minutes,
    /// How many Mbits short the delivery was at that instant.
    pub shortfall: Mbits,
}

/// The outcome of a packet-level replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct E2eReport {
    /// Total packets delivered.
    pub packets: usize,
    /// Peak buffer observed across packet events, Mbits.
    pub peak_buffer: Mbits,
    /// Largest number of simultaneously active reception streams.
    pub max_streams: usize,
    /// Underruns detected (empty for a correct trace).
    pub underruns: Vec<Underrun>,
}

/// Replay `trace` at packet granularity.
///
/// # Panics
/// Panics if the trace's times are not finite.
#[must_use]
pub fn replay(trace: &SessionTrace, cfg: PacketConfig) -> E2eReport {
    #[derive(Clone, Copy)]
    enum Ev {
        /// A packet of `bits` for reception stream `reception` (cumulative
        /// delivery bookkeeping happens in the handler).
        Packet {
            reception: usize,
            bits: f64,
        },
        StreamStart,
        StreamEnd,
    }

    let scale = cfg.scale;
    let mut events: Vec<(u64, Ev)> = Vec::new();

    // List every packet of every reception window up front, then sort.
    // Each window [start, end) at rate r becomes ⌈window/packet⌉ packets,
    // the last one short.
    for (reception, rec) in trace.receptions.iter().enumerate() {
        let start = scale.duration_from_seconds(Seconds(rec.start.value() * 60.0));
        let end = scale.duration_from_seconds(Seconds(rec.end().value() * 60.0));
        events.push((start.0, Ev::StreamStart));
        events.push((end.0, Ev::StreamEnd));
        let window_ticks = (end.0).saturating_sub(start.0);
        let mut t = start.0;
        let mut delivered = 0.0f64;
        let mut idx = 0u64;
        while t < start.0 + window_ticks {
            let step = cfg.ticks_per_packet.min(start.0 + window_ticks - t);
            t += step;
            let upto = scale
                .data_over(rec.rate, TickDuration(t - start.0))
                .value()
                .min(rec.size.value());
            let bits = upto - delivered;
            delivered = upto;
            if bits > 0.0 {
                let delay = packet_jitter(cfg.seed, reception, idx, cfg.jitter_ticks);
                events.push((t + delay, Ev::Packet { reception, bits }));
            }
            idx += 1;
        }
    }

    let b = trace.display_rate.value();
    // The de-jitter buffer shifts every playback deadline later.
    let dejitter_min = cfg.dejitter_ticks as f64 / scale.ticks_per_second as f64 / 60.0;
    let playback_start_min = trace.playback_start.value() + dejitter_min;
    let total: f64 = trace.segment_sizes.iter().map(|s| s.value()).sum();
    let playback_end_min = trace.playback_end().value();

    // Per-reception cumulative deliveries, per-segment playback offsets,
    // and each segment's reception streams (a segment may arrive as
    // several content intervals — PPB chunks, HB wrap halves).
    let n = trace.segment_sizes.len();
    let mut delivered_rec = vec![0.0f64; trace.receptions.len()];
    let pb_start: Vec<f64> = (0..n)
        .map(|i| trace.playback_start_of(i).value() + dejitter_min)
        .collect();
    let mut streams_of_segment: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, rec) in trace.receptions.iter().enumerate() {
        streams_of_segment[rec.segment].push(i);
    }

    let mut packets = 0usize;
    let mut peak = 0.0f64;
    let mut streams = 0usize;
    let mut max_streams = 0usize;
    let mut delivered_total = 0.0f64;
    let mut underruns = Vec::new();

    // Stable, so equal ticks keep their build order.
    events.sort_by_key(|&(at, _)| at);
    for (at, ev) in events {
        match ev {
            Ev::StreamStart => {
                streams += 1;
                max_streams = max_streams.max(streams);
            }
            Ev::StreamEnd => {
                streams = streams.saturating_sub(1);
            }
            Ev::Packet { reception, bits } => {
                let now_min = scale.seconds(TickDuration(at)).value() / 60.0;
                let segment = trace.receptions[reception].segment;
                // Underrun check: everything the player needed from this
                // segment *just before* this packet must already be there.
                // `needed` is a content level; each reception stream owes the
                // part of [0, needed) its content interval covers.
                let needed = ((now_min - pb_start[segment]) * b * 60.0)
                    .clamp(0.0, trace.segment_sizes[segment].value());
                let packet_seconds = cfg.ticks_per_packet as f64 / scale.ticks_per_second as f64;
                let mut worst_short = 0.0f64;
                for &k in &streams_of_segment[segment] {
                    let rec = &trace.receptions[k];
                    let owed = (needed - rec.content_offset.value()).clamp(0.0, rec.size.value());
                    // Packetization slack: a just-in-time fluid stream lags by
                    // up to one whole packet at its own rate, plus tick
                    // rounding of the window start. Two packets' worth is the
                    // agreed margin. Network jitter is NOT added — absorbing
                    // it is the de-jitter buffer's job; an undersized buffer
                    // must surface as an underrun.
                    let slack = 2.0 * rec.rate.value() * packet_seconds
                        + 2.0 * b / scale.ticks_per_second as f64;
                    if owed > delivered_rec[k] + slack + 1e-9 {
                        worst_short = worst_short.max(owed - delivered_rec[k]);
                    }
                }
                if worst_short > 0.0 {
                    underruns.push(Underrun {
                        segment,
                        at: Minutes(now_min),
                        shortfall: Mbits(worst_short),
                    });
                }
                delivered_rec[reception] += bits;
                delivered_total += bits;
                packets += 1;
                let consumed = ((now_min - playback_start_min) * b * 60.0).clamp(
                    0.0,
                    total.min((playback_end_min - playback_start_min) * b * 60.0),
                );
                peak = peak.max(delivered_total - consumed);
            }
        }
    }

    E2eReport {
        packets,
        peak_buffer: Mbits(peak.max(0.0)),
        max_streams,
        underruns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::policy::{schedule_client, ClientPolicy};
    use crate::trace::{ClientModel, PausingClient, RecordingClient};
    use sb_core::config::SystemConfig;
    use sb_core::plan::VideoId;
    use sb_core::scheme::BroadcastScheme;
    use sb_core::series::Width;
    use sb_core::Skyscraper;
    use sb_pyramid::{PermutationPyramid, PyramidBroadcasting, StaggeredBroadcasting};
    use vod_units::Mbps;
    use vod_units::Ticks;

    fn replay_scheme(
        plan: &sb_core::plan::ChannelPlan,
        policy: ClientPolicy,
        arrival: f64,
    ) -> (SessionTrace, E2eReport) {
        let trace = policy
            .session(plan, VideoId(0), Minutes(arrival), Mbps(1.5))
            .unwrap();
        let report = replay(&trace, PacketConfig::default());
        (trace, report)
    }

    /// One packet's worth of data per concurrently active stream, the
    /// agreed tolerance between fluid and packet accounting.
    fn tolerance(report: &E2eReport, trace: &SessionTrace) -> f64 {
        let packet_seconds = 0.1; // 10 ticks at 100 ticks/s
        let max_rate: f64 = trace
            .receptions
            .iter()
            .map(|r| r.rate.value())
            .fold(0.0, f64::max);
        report.max_streams as f64 * max_rate * packet_seconds + 1.0
    }

    /// The engine-driven replay `replay` replaced, copied verbatim: every
    /// packet goes through [`Engine`], whose agenda breaks equal ticks
    /// first-in-first-out. `replay_matches_the_engine_driven_reference`
    /// pins the sort-driven replay against it.
    fn engine_replay(trace: &SessionTrace, cfg: PacketConfig) -> E2eReport {
        #[derive(Clone, Copy)]
        enum Ev {
            /// A packet of `bits` for reception stream `reception` (cumulative
            /// delivery bookkeeping happens in the handler).
            Packet {
                reception: usize,
                bits: f64,
            },
            StreamStart,
            StreamEnd,
        }

        let scale = cfg.scale;
        let mut engine: Engine<Ev> = Engine::new();

        // Enqueue every packet of every reception window up front; the engine
        // orders and replays them. Each window [start, end) at rate r becomes
        // ⌈window/packet⌉ packets, the last one short.
        for (reception, rec) in trace.receptions.iter().enumerate() {
            let start = scale.duration_from_seconds(Seconds(rec.start.value() * 60.0));
            let end = scale.duration_from_seconds(Seconds(rec.end().value() * 60.0));
            engine.schedule_at(Ticks::ZERO + start, Ev::StreamStart);
            engine.schedule_at(Ticks::ZERO + end, Ev::StreamEnd);
            let window_ticks = (end.0).saturating_sub(start.0);
            let mut t = start.0;
            let mut delivered = 0.0f64;
            let mut idx = 0u64;
            while t < start.0 + window_ticks {
                let step = cfg.ticks_per_packet.min(start.0 + window_ticks - t);
                t += step;
                let upto = scale
                    .data_over(rec.rate, vod_units::TickDuration(t - start.0))
                    .value()
                    .min(rec.size.value());
                let bits = upto - delivered;
                delivered = upto;
                if bits > 0.0 {
                    let delay = packet_jitter(cfg.seed, reception, idx, cfg.jitter_ticks);
                    engine.schedule_at(Ticks(t + delay), Ev::Packet { reception, bits });
                }
                idx += 1;
            }
        }

        let b = trace.display_rate.value();
        // The de-jitter buffer shifts every playback deadline later.
        let dejitter_min = cfg.dejitter_ticks as f64 / scale.ticks_per_second as f64 / 60.0;
        let playback_start_min = trace.playback_start.value() + dejitter_min;
        let total: f64 = trace.segment_sizes.iter().map(|s| s.value()).sum();
        let playback_end_min = trace.playback_end().value();

        // Per-reception cumulative deliveries, per-segment playback offsets,
        // and each segment's reception streams (a segment may arrive as
        // several content intervals — PPB chunks, HB wrap halves).
        let n = trace.segment_sizes.len();
        let mut delivered_rec = vec![0.0f64; trace.receptions.len()];
        let pb_start: Vec<f64> = (0..n)
            .map(|i| trace.playback_start_of(i).value() + dejitter_min)
            .collect();
        let mut streams_of_segment: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, rec) in trace.receptions.iter().enumerate() {
            streams_of_segment[rec.segment].push(i);
        }

        let mut packets = 0usize;
        let mut peak = 0.0f64;
        let mut streams = 0usize;
        let mut max_streams = 0usize;
        let mut delivered_total = 0.0f64;
        let mut underruns = Vec::new();

        engine.run(|_eng, at, ev| match ev {
            Ev::StreamStart => {
                streams += 1;
                max_streams = max_streams.max(streams);
            }
            Ev::StreamEnd => {
                streams = streams.saturating_sub(1);
            }
            Ev::Packet { reception, bits } => {
                let now_min = scale.seconds(at.since(Ticks::ZERO)).value() / 60.0;
                let segment = trace.receptions[reception].segment;
                // Underrun check: everything the player needed from this
                // segment *just before* this packet must already be there.
                // `needed` is a content level; each reception stream owes the
                // part of [0, needed) its content interval covers.
                let needed = ((now_min - pb_start[segment]) * b * 60.0)
                    .clamp(0.0, trace.segment_sizes[segment].value());
                let packet_seconds = cfg.ticks_per_packet as f64 / scale.ticks_per_second as f64;
                let mut worst_short = 0.0f64;
                for &k in &streams_of_segment[segment] {
                    let rec = &trace.receptions[k];
                    let owed = (needed - rec.content_offset.value()).clamp(0.0, rec.size.value());
                    // Packetization slack: a just-in-time fluid stream lags by
                    // up to one whole packet at its own rate, plus tick
                    // rounding of the window start. Two packets' worth is the
                    // agreed margin. Network jitter is NOT added — absorbing
                    // it is the de-jitter buffer's job; an undersized buffer
                    // must surface as an underrun.
                    let slack = 2.0 * rec.rate.value() * packet_seconds
                        + 2.0 * b / scale.ticks_per_second as f64;
                    if owed > delivered_rec[k] + slack + 1e-9 {
                        worst_short = worst_short.max(owed - delivered_rec[k]);
                    }
                }
                if worst_short > 0.0 {
                    underruns.push(Underrun {
                        segment,
                        at: Minutes(now_min),
                        shortfall: Mbits(worst_short),
                    });
                }
                delivered_rec[reception] += bits;
                delivered_total += bits;
                packets += 1;
                let consumed = ((now_min - playback_start_min) * b * 60.0).clamp(
                    0.0,
                    total.min((playback_end_min - playback_start_min) * b * 60.0),
                );
                peak = peak.max(delivered_total - consumed);
            }
        });

        E2eReport {
            packets,
            peak_buffer: Mbits(peak.max(0.0)),
            max_streams,
            underruns,
        }
    }

    #[test]
    fn sb_replay_matches_fluid_model() {
        let cfg = SystemConfig::paper_defaults(Mbps(300.0));
        let plan = Skyscraper::with_width(Width::Capped(52))
            .plan(&cfg)
            .unwrap();
        for arrival in [0.0, 3.7, 7.31, 11.9] {
            let (trace, report) = replay_scheme(&plan, ClientPolicy::LatestFeasible, arrival);
            assert!(
                report.underruns.is_empty(),
                "arrival {arrival}: {:?}",
                report.underruns
            );
            assert!(report.max_streams <= 2);
            let fluid = trace.peak_buffer().value();
            let diff = (report.peak_buffer.value() - fluid).abs();
            assert!(
                diff <= tolerance(&report, &trace),
                "arrival {arrival}: packet {} vs fluid {fluid}",
                report.peak_buffer
            );
            // 2 hours of video at ≥1 packet per second per stream.
            assert!(report.packets > 10_000, "{} packets", report.packets);
        }
    }

    #[test]
    fn pb_replay_matches_fluid_model() {
        let cfg = SystemConfig::paper_defaults(Mbps(300.0));
        let plan = PyramidBroadcasting::a().plan(&cfg).unwrap();
        let (trace, report) = replay_scheme(&plan, ClientPolicy::PbEarliest, 4.4);
        assert!(report.underruns.is_empty());
        assert!(report.max_streams <= 2);
        let diff = (report.peak_buffer.value() - trace.peak_buffer().value()).abs();
        assert!(diff <= tolerance(&report, &trace));
    }

    #[test]
    fn ppb_and_staggered_replay() {
        let cfg = SystemConfig::paper_defaults(Mbps(320.0));
        for plan in [
            PermutationPyramid::b().plan(&cfg).unwrap(),
            StaggeredBroadcasting.plan(&cfg).unwrap(),
        ] {
            let (trace, report) = replay_scheme(&plan, ClientPolicy::LatestFeasible, 2.2);
            assert!(report.underruns.is_empty(), "{}", plan.scheme);
            let diff = (report.peak_buffer.value() - trace.peak_buffer().value()).abs();
            assert!(diff <= tolerance(&report, &trace), "{}", plan.scheme);
        }
    }

    #[test]
    fn pausing_replay_is_underrun_free() {
        // The replay consumes traces from any model: PPB's max-saving
        // client streams dozens of mid-broadcast chunks, and the packet
        // accounting still sees every byte arrive on time.
        let cfg = SystemConfig::paper_defaults(Mbps(320.0));
        let plan = PermutationPyramid::b().plan(&cfg).unwrap();
        let trace = PausingClient
            .session(&plan, VideoId(0), Minutes(3.7), cfg.display_rate)
            .unwrap();
        let report = replay(&trace, PacketConfig::default());
        assert!(
            report.underruns.is_empty(),
            "{:?}",
            &report.underruns[..report.underruns.len().min(3)]
        );
        let diff = (report.peak_buffer.value() - trace.peak_buffer().value()).abs();
        assert!(diff <= tolerance(&report, &trace));
    }

    #[test]
    fn recording_replay_catches_the_hb_bug() {
        // The HB wrap-around receptions starve at zero delay (the
        // Pâris–Carter–Long bug) and play cleanly with the one-slot fix —
        // at packet granularity, independent of the fluid analysis.
        let cfg = SystemConfig::paper_defaults(Mbps(60.0));
        let scheme = sb_pyramid::HarmonicBroadcasting::original();
        let plan = scheme.plan(&cfg).unwrap();
        let slot = scheme.slot(&cfg).unwrap();
        // An arrival phase where the fluid check shows starvation.
        let mut bug_seen = false;
        for i in 0..12 {
            let arrival = Minutes(slot.value() * i as f64 / 12.0 * 7.0);
            let buggy = RecordingClient::default()
                .session(&plan, VideoId(0), arrival, cfg.display_rate)
                .unwrap();
            let fixed = RecordingClient {
                playback_delay: slot,
            }
            .session(&plan, VideoId(0), arrival, cfg.display_rate)
            .unwrap();
            let fixed_report = replay(&fixed, PacketConfig::default());
            assert!(
                fixed_report.underruns.is_empty(),
                "arrival {arrival}: {:?}",
                &fixed_report.underruns[..fixed_report.underruns.len().min(3)]
            );
            if !buggy.is_jitter_free(1e-6) {
                let report = replay(&buggy, PacketConfig::default());
                assert!(
                    !report.underruns.is_empty(),
                    "fluid model starves at arrival {arrival}, replay must too"
                );
                bug_seen = true;
            }
        }
        assert!(bug_seen, "no starving phase sampled");
    }

    #[test]
    fn corrupted_trace_is_caught() {
        // Push one reception past its deadline: the replay must flag it.
        let cfg = SystemConfig::paper_defaults(Mbps(300.0));
        let plan = Skyscraper::with_width(Width::Capped(12))
            .plan(&cfg)
            .unwrap();
        let mut trace = schedule_client(
            &plan,
            VideoId(0),
            Minutes(1.0),
            Mbps(1.5),
            ClientPolicy::LatestFeasible,
        )
        .unwrap()
        .trace();
        let last = trace.receptions.len() - 1;
        trace.receptions[last].start = Minutes(trace.receptions[last].start.value() + 5.0);
        let report = replay(&trace, PacketConfig::default());
        assert!(
            !report.underruns.is_empty(),
            "a 5-minute-late segment must starve the player"
        );
        assert_eq!(report.underruns[0].segment, last);
    }

    #[test]
    fn jitter_within_dejitter_buffer_is_absorbed() {
        let cfg = SystemConfig::paper_defaults(Mbps(300.0));
        let plan = Skyscraper::with_width(Width::Capped(12))
            .plan(&cfg)
            .unwrap();
        let trace = schedule_client(
            &plan,
            VideoId(0),
            Minutes(5.2),
            Mbps(1.5),
            ClientPolicy::LatestFeasible,
        )
        .unwrap()
        .trace();
        // 2 seconds of network jitter, correctly dimensioned buffer.
        for seed in 0..5 {
            let report = replay(&trace, PacketConfig::with_jitter(200, seed));
            assert!(
                report.underruns.is_empty(),
                "seed {seed}: {:?}",
                &report.underruns[..report.underruns.len().min(3)]
            );
        }
    }

    #[test]
    fn undersized_dejitter_buffer_underruns() {
        let cfg = SystemConfig::paper_defaults(Mbps(300.0));
        let plan = Skyscraper::with_width(Width::Capped(12))
            .plan(&cfg)
            .unwrap();
        let trace = schedule_client(
            &plan,
            VideoId(0),
            Minutes(5.2),
            Mbps(1.5),
            ClientPolicy::LatestFeasible,
        )
        .unwrap()
        .trace();
        // Heavy jitter (30 s) with NO de-jitter buffer: must starve.
        let mut cfg_bad = PacketConfig::with_jitter(3000, 7);
        cfg_bad.dejitter_ticks = 0;
        let report = replay(&trace, cfg_bad);
        assert!(
            !report.underruns.is_empty(),
            "3000 ticks of jitter with no buffer must underrun"
        );
    }

    #[test]
    fn finer_packets_converge_to_fluid() {
        let cfg = SystemConfig::paper_defaults(Mbps(300.0));
        let plan = Skyscraper::with_width(Width::Capped(12))
            .plan(&cfg)
            .unwrap();
        let trace = schedule_client(
            &plan,
            VideoId(0),
            Minutes(5.2),
            Mbps(1.5),
            ClientPolicy::LatestFeasible,
        )
        .unwrap()
        .trace();
        let fluid = trace.peak_buffer().value();
        let coarse = replay(
            &trace,
            PacketConfig {
                scale: TickScale::new(100),
                ticks_per_packet: 100,
                ..PacketConfig::default()
            },
        );
        let fine = replay(
            &trace,
            PacketConfig {
                scale: TickScale::new(1000),
                ticks_per_packet: 10,
                ..PacketConfig::default()
            },
        );
        let err_coarse = (coarse.peak_buffer.value() - fluid).abs();
        let err_fine = (fine.peak_buffer.value() - fluid).abs();
        assert!(
            err_fine <= err_coarse + 1e-9,
            "fine {err_fine} vs coarse {err_coarse}"
        );
        assert!(
            err_fine < 0.2,
            "fine-grained replay within 0.2 Mbit of fluid"
        );
    }

    #[test]
    fn replay_matches_the_engine_driven_reference() {
        // Traces from every client model family the replay consumes:
        // tune-at-start (SB latest-feasible, PB earliest), PPB:b's pausing
        // chunks, and HB's record-all streams with the buggy and the
        // fixed playback delay. Arrivals 0 and 1 start the first reception
        // (and every HB reception) on an exact tick, and HB's record-all
        // client starts all its streams on one tick, so starts, ends and
        // packets tie.
        let b = Mbps(1.5);
        let cfg300 = SystemConfig::paper_defaults(Mbps(300.0));
        let cfg320 = SystemConfig::paper_defaults(Mbps(320.0));
        let cfg60 = SystemConfig::paper_defaults(Mbps(60.0));
        let sb = Skyscraper::with_width(Width::Capped(52))
            .plan(&cfg300)
            .unwrap();
        let pb = PyramidBroadcasting::a().plan(&cfg300).unwrap();
        let ppb = PermutationPyramid::b().plan(&cfg320).unwrap();
        let hb_scheme = sb_pyramid::HarmonicBroadcasting::original();
        let hb = hb_scheme.plan(&cfg60).unwrap();
        let slot = hb_scheme.slot(&cfg60).unwrap();
        let buggy = RecordingClient::default();
        let fixed = RecordingClient {
            playback_delay: slot,
        };
        // The first sampled phase where the buggy delay starves, so the
        // underrun records are compared too, not only empty lists.
        let starving = (0..12)
            .map(|i| Minutes(slot.value() * i as f64 / 12.0 * 7.0))
            .find(|&at| {
                !buggy
                    .session(&hb, VideoId(0), at, b)
                    .unwrap()
                    .is_jitter_free(1e-6)
            })
            .expect("a starving HB phase");
        let mut traces = Vec::new();
        for at in [0.0, 1.0, 3.7, 7.31] {
            let sb_policy = ClientPolicy::LatestFeasible;
            traces.push(sb_policy.session(&sb, VideoId(0), Minutes(at), b));
        }
        for at in [0.0, 4.4] {
            let pb_policy = ClientPolicy::PbEarliest;
            traces.push(pb_policy.session(&pb, VideoId(0), Minutes(at), b));
            traces.push(PausingClient.session(&ppb, VideoId(0), Minutes(at), b));
        }
        traces.push(buggy.session(&hb, VideoId(0), starving, b));
        traces.push(fixed.session(&hb, VideoId(0), Minutes(0.0), b));
        let mut underran = false;
        for (i, trace) in traces.into_iter().enumerate() {
            let trace = trace.unwrap();
            for cfg in [
                PacketConfig::default(),
                PacketConfig::with_jitter(200, i as u64),
            ] {
                let got = replay(&trace, cfg);
                assert_eq!(got, engine_replay(&trace, cfg), "trace {i}, {cfg:?}");
                underran |= !got.underruns.is_empty();
            }
        }
        assert!(underran, "no trace underran");
    }
}
