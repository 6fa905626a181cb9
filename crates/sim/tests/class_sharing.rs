//! Byte identity of shared sessions: a model that lets sessions which
//! catch the same broadcast of segment 0 share one schedule must give
//! the bytes a model that schedules every session from scratch gives.
//!
//! Each model runs twice over the same requests: as itself, and behind
//! [`Unshared`], a wrapper that forwards only `session` and
//! `session_indexed` and so never shares. The arrivals sit on exact
//! segment-0 broadcast starts, at ±1e-9 and ±1e-12 of them and between
//! them, with duplicates, in unsorted order over several videos, so the
//! sessions of one broadcast class differ only in their arrival and
//! every arrival filter a model has is exercised at its boundary. For
//! shards {1, 4} × threads {1, 2}, with and without a caller sink, the
//! summary, fold, snapshot and the traces a `CollectTraces` sink
//! receives must serialize to the same bytes.

use proptest::prelude::*;
use vod_units::{Mbits, Mbps, Minutes};

use sb_core::config::SystemConfig;
use sb_core::plan::{
    BroadcastItem, ChannelPlan, LogicalChannel, PlanIndex, ScheduledSegment, VideoId,
};
use sb_core::scheme::BroadcastScheme;
use sb_core::series::Width;
use sb_core::Skyscraper;
use sb_pyramid::{HarmonicBroadcasting, PermutationPyramid};
use sb_sim::policy::{ClientPolicy, PolicyError};
use sb_sim::system::{Request, SystemSim};
use sb_sim::trace::{ClientModel, PausingClient, RecordingClient, SessionTrace};
use sb_sim::{CollectTraces, RunConfig};
use serde::Serialize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A model that schedules every session itself: it forwards the
/// scheduling method and keeps every other method's default.
struct Unshared<'m>(&'m dyn ClientModel);

impl ClientModel for Unshared<'_> {
    fn session_indexed(
        &self,
        index: &PlanIndex<'_>,
        video: VideoId,
        arrival: Minutes,
        display_rate: Mbps,
    ) -> Result<SessionTrace, PolicyError> {
        self.0.session_indexed(index, video, arrival, display_rate)
    }
}

/// The models whose sessions may share, on the plans they serve, and
/// HB's recording client, which must not.
fn lineup() -> Vec<(&'static str, ChannelPlan, Box<dyn ClientModel>)> {
    let cfg = SystemConfig::paper_defaults(Mbps(320.0));
    let sb = Skyscraper::with_width(Width::Capped(52))
        .plan(&cfg)
        .unwrap();
    let ppb = PermutationPyramid::b().plan(&cfg).unwrap();
    vec![
        (
            "latest-feasible on SB:W=52",
            sb.clone(),
            Box::new(ClientPolicy::LatestFeasible),
        ),
        (
            "pb-earliest on SB:W=52",
            sb,
            Box::new(ClientPolicy::PbEarliest),
        ),
        (
            "latest-feasible on PPB:b",
            ppb.clone(),
            Box::new(ClientPolicy::LatestFeasible),
        ),
        ("pausing on PPB:b", ppb, Box::new(PausingClient)),
        (
            "recording on HB",
            HarmonicBroadcasting::delayed().plan(&cfg).unwrap(),
            Box::new(RecordingClient::default()),
        ),
    ]
}

/// The earliest broadcast start of `video`'s segment 0 at or after `t`.
fn caught(index: &PlanIndex<'_>, video: VideoId, t: f64) -> f64 {
    index
        .carriers(BroadcastItem { video, segment: 0 })
        .iter()
        .map(|occ| index.next_start(occ, Minutes(t)).value())
        .fold(f64::INFINITY, f64::min)
}

/// Every byte a run's caller and outcome see, as one string per part:
/// summary, fold, snapshot, and — when `observed` — the traces the
/// caller's sink received.
fn run_bytes(
    sim: &SystemSim<'_>,
    reqs: &[Request],
    shards: usize,
    threads: usize,
    observed: bool,
) -> Vec<String> {
    if !observed {
        let out = sim
            .execute(RunConfig::new(reqs).shards(shards).threads(threads))
            .unwrap();
        return vec![json(&out.summary), json(&out.fold), json(&out.snapshot)];
    }
    let mut collect = CollectTraces::new();
    let out = sim
        .execute(
            RunConfig::new(reqs)
                .shards(shards)
                .threads(threads)
                .sink(&mut collect),
        )
        .unwrap();
    vec![
        json(&out.summary),
        json(&out.fold),
        json(&out.snapshot),
        json(&collect.traces),
    ]
}

fn json(value: &impl Serialize) -> String {
    serde_json::to_string(value).expect("in-memory values serialize")
}

/// Offsets from a caught broadcast start: on it, just after and just
/// before it at two scales, and (as `None`) back at the instant the
/// broadcast was looked up from, which may lie well before it.
const NUDGES: [Option<f64>; 6] = [
    Some(0.0),
    Some(1e-9),
    Some(-1e-9),
    Some(1e-12),
    Some(-1e-12),
    None,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn shared_sessions_give_the_unshared_bytes(
        bases in prop::collection::vec(0u32..240, 1..24),
        vids in prop::collection::vec(0usize..4, 24),
        nudges in prop::collection::vec(0usize..6, 24),
        copies in prop::collection::vec(1usize..6, 24),
        step in 0.05f64..0.9,
        seed in any::<u64>(),
    ) {
        let cfg = SystemConfig::paper_defaults(Mbps(320.0));
        for (name, plan, model) in lineup() {
            let index = plan.index();
            let videos = plan.num_videos().min(4);
            // Each base instant gives one caught broadcast and a run of
            // arrivals around it: `copies` of them, walking the nudges,
            // every nudge twice so exact duplicates are common.
            let mut reqs = Vec::new();
            for (i, &base) in bases.iter().enumerate() {
                let video = VideoId(vids[i] % videos);
                let from = step * f64::from(base);
                let start = caught(&index, video, from);
                for k in 0..copies[i] {
                    let at = NUDGES[(nudges[i] + k / 2) % NUDGES.len()]
                        .map_or(from, |dt| (start + dt).max(0.0));
                    reqs.push(Request { at: Minutes(at), video });
                }
            }
            // An unsorted slice: the sweep sorts it, ties by index.
            let mut shuffle = seed | 1;
            for i in (1..reqs.len()).rev() {
                shuffle ^= shuffle << 13;
                shuffle ^= shuffle >> 7;
                shuffle ^= shuffle << 17;
                reqs.swap(i, (shuffle % (i as u64 + 1)) as usize);
            }
            let shared = SystemSim::new(&plan, cfg.display_rate, model.as_ref());
            let unshared = SystemSim::new(&plan, cfg.display_rate, Unshared(model.as_ref()));
            for observed in [false, true] {
                let want = run_bytes(&unshared, &reqs, 1, 1, observed);
                for shards in [1, 4] {
                    for threads in [1, 2] {
                        let got = run_bytes(&shared, &reqs, shards, threads, observed);
                        prop_assert_eq!(
                            &got,
                            &want,
                            "{}: S={} T={} observed={}",
                            name,
                            shards,
                            threads,
                            observed
                        );
                    }
                }
            }
        }
    }
}

/// A pausing client that counts the sessions it schedules and forwards
/// everything else, `reuses` included.
#[derive(Default)]
struct Counting(AtomicUsize);

impl ClientModel for Counting {
    fn session_indexed(
        &self,
        index: &PlanIndex<'_>,
        video: VideoId,
        arrival: Minutes,
        display_rate: Mbps,
    ) -> Result<SessionTrace, PolicyError> {
        self.0.fetch_add(1, Ordering::Relaxed);
        PausingClient.session_indexed(index, video, arrival, display_rate)
    }

    fn reuses(
        &self,
        index: &PlanIndex<'_>,
        video: VideoId,
        cached: &SessionTrace,
        arrival: Minutes,
    ) -> bool {
        PausingClient.reuses(index, video, cached, arrival)
    }
}

/// Sharing is live through `SystemSim`, whether the model reaches it
/// boxed or borrowed: a one-video PPB:b grid schedules one session per
/// caught broadcast, not one per arrival.
#[test]
fn one_schedule_per_caught_broadcast() {
    let cfg = SystemConfig::paper_defaults(Mbps(320.0));
    let plan = PermutationPyramid::b().plan(&cfg).unwrap();
    let index = plan.index();
    let reqs: Vec<Request> = (0..1500)
        .map(|i| Request {
            at: Minutes(0.1 * f64::from(i)),
            video: VideoId(0),
        })
        .collect();
    let mut starts: Vec<u64> = reqs
        .iter()
        .map(|r| caught(&index, r.video, r.at.value()).to_bits())
        .collect();
    starts.dedup();
    let counting = Counting::default();
    let boxed: Box<dyn ClientModel + '_> = Box::new(&counting);
    for (how, sim) in [
        ("boxed", SystemSim::new(&plan, cfg.display_rate, boxed)),
        (
            "borrowed",
            SystemSim::new(&plan, cfg.display_rate, &counting),
        ),
    ] {
        counting.0.store(0, Ordering::Relaxed);
        let out = sim.execute(RunConfig::new(&reqs)).unwrap();
        assert_eq!(out.summary.sessions, reqs.len());
        let scheduled = counting.0.load(Ordering::Relaxed);
        assert_eq!(scheduled, starts.len(), "{how}: one schedule per broadcast");
        assert!(scheduled * 5 < reqs.len(), "{how}: {scheduled} schedules");
    }
}

/// A one-video plan of two segments, each on its own channel:
/// `(size in Mbit, channel rate in Mb/s, phase in minutes)` per segment,
/// each segment back to back on its channel.
fn two_channel_plan(segments: [(f64, f64, f64); 2]) -> ChannelPlan {
    let channels = segments
        .iter()
        .enumerate()
        .map(|(id, &(size, rate, phase))| LogicalChannel {
            id,
            rate: Mbps(rate),
            phase: Minutes(phase),
            cycle: vec![ScheduledSegment {
                item: BroadcastItem {
                    video: VideoId(0),
                    segment: id,
                },
                size: Mbits(size),
                on_air: Minutes(size / rate / 60.0),
            }],
        })
        .collect();
    ChannelPlan {
        scheme: "two-channel".to_string(),
        segment_sizes: vec![segments.iter().map(|&(size, ..)| Mbits(size)).collect()],
        channels,
    }
}

/// Arrival filters decide, not the caught broadcast alone. At a display
/// rate of 1 Mb/s, each plan serves an early arrival of a caught
/// segment-0 broadcast and fails a later one, which a session shared
/// from the early one would hide:
///
/// * latest-feasible: segment 0 airs every 10 minutes, segment 1 at
///   half the display rate every 20 minutes from minute 5. A client
///   playing from minute 10 must tune to segment 1 by minute 10, and
///   only the broadcast at 5 will do: arrival 3 gets it, 7 does not.
/// * pausing: segment 0 airs every half minute, segment 1 every 1.75
///   minutes. A client playing from minute 9 takes segment 1's first
///   chunk at 8.75, before the tuner is busy with segment 0: arrival
///   8.6 gets it, 8.9 does not.
#[test]
fn an_arrival_past_every_feasible_broadcast_is_not_shared() {
    let policy = ClientPolicy::LatestFeasible;
    let cases: [(ChannelPlan, &dyn ClientModel, f64, f64); 2] = [
        (
            two_channel_plan([(600.0, 1.0, 0.0), (600.0, 0.5, 5.0)]),
            &policy,
            3.0,
            7.0,
        ),
        (
            two_channel_plan([(60.0, 2.0, 0.0), (420.0, 4.0, 0.0)]),
            &PausingClient,
            8.6,
            8.9,
        ),
    ];
    let at = |t| Request {
        at: Minutes(t),
        video: VideoId(0),
    };
    for (plan, model, served, refused) in cases {
        let run = |model: &dyn ClientModel, reqs: &[Request]| {
            SystemSim::new(&plan, Mbps(1.0), model)
                .execute(RunConfig::new(reqs))
                .map(|out| json(&out.fold))
        };
        assert!(run(&Unshared(model), &[at(served)]).is_ok());
        let alone = run(&Unshared(model), &[at(refused)]);
        assert_eq!(alone, Err(PolicyError::NoFeasibleBroadcast { segment: 1 }));
        for reqs in [[at(served), at(served)], [at(served), at(refused)]] {
            assert_eq!(run(model, &reqs), run(&Unshared(model), &reqs));
        }
        assert_eq!(run(model, &[at(served), at(refused)]), alone);
    }
}
