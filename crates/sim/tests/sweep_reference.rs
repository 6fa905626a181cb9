//! The ordered sweep against the event engine it replaced.
//!
//! `SystemSim` runs without an event engine: it serves requests in
//! `(arrival tick, slice index)` order and, before each arrival, pops the
//! session ends strictly before its tick. The reference here is the
//! engine-driven run that sweep replaced: one `Arrive` per request
//! scheduled up front in slice order, and a `Finish` scheduled at each
//! session's playback end. On unsorted, tie-heavy slices (repeated
//! arrival times, and ends that land on later arrival ticks) the sweep
//! must show a trace sink the same session order, report the same peak
//! of active sessions and engine counters, and show the kill probe the
//! same tick sequence.

use proptest::prelude::*;
use vod_units::{Mbps, Minutes, TickScale, Ticks};

use sb_core::config::SystemConfig;
use sb_core::plan::{ChannelPlan, VideoId};
use sb_core::scheme::BroadcastScheme;
use sb_core::series::Width;
use sb_core::Skyscraper;
use sb_pyramid::{HarmonicBroadcasting, PermutationPyramid};
use sb_sim::policy::ClientPolicy;
use sb_sim::system::{Request, SystemSim};
use sb_sim::trace::{ClientModel, PausingClient, RecordingClient, SessionTrace};
use sb_sim::{
    plan_shards, AgendaKind, CollectTraces, Engine, EngineStats, Probe, RunConfig, Verdict,
};

/// Each model against the plan its scheme prescribes.
fn lineup() -> Vec<(&'static str, ChannelPlan, Box<dyn ClientModel>)> {
    let cfg = SystemConfig::paper_defaults(Mbps(320.0));
    vec![
        (
            "latest-feasible on SB:W=52",
            Skyscraper::with_width(Width::Capped(52))
                .plan(&cfg)
                .unwrap(),
            Box::new(ClientPolicy::LatestFeasible),
        ),
        (
            "pausing on PPB:b",
            PermutationPyramid::b().plan(&cfg).unwrap(),
            Box::new(PausingClient),
        ),
        (
            "recording on HB",
            HarmonicBroadcasting::delayed().plan(&cfg).unwrap(),
            Box::new(RecordingClient::default()),
        ),
    ]
}

enum Ev {
    Arrive(usize),
    Finish,
}

/// What the engine-driven run shows.
struct Reference {
    traces: Vec<SessionTrace>,
    peak_active: usize,
    ticks: Vec<u64>,
    stats: EngineStats,
}

fn tick(at: Minutes) -> Ticks {
    Ticks::ZERO + TickScale::default().duration_from_minutes(at)
}

fn reference(
    plan: &ChannelPlan,
    model: &dyn ClientModel,
    display_rate: Mbps,
    requests: &[Request],
) -> Reference {
    let mut engine = Engine::new();
    for (pos, r) in requests.iter().enumerate() {
        engine.schedule_at(tick(r.at), Ev::Arrive(pos));
    }
    let (mut active, mut peak_active) = (0usize, 0usize);
    let mut traces = Vec::new();
    let mut ticks = Vec::new();
    while let Some((at, ev)) = engine.next() {
        ticks.push(at.0);
        match ev {
            Ev::Arrive(pos) => {
                let r = requests[pos];
                let s = model.session(plan, r.video, r.at, display_rate).unwrap();
                active += 1;
                peak_active = peak_active.max(active);
                engine.schedule_at(tick(s.playback_end()), Ev::Finish);
                traces.push(s);
            }
            Ev::Finish => active -= 1,
        }
    }
    Reference {
        traces,
        peak_active,
        ticks,
        stats: engine.stats(),
    }
}

/// A tie-heavy, unsorted slice: arrivals on a coarse grid of `slots`
/// (so several requests share a tick) for the videos in `vids`, plus,
/// for every request picked by `follow`, a second request at exactly
/// that session's playback end, inserted at a pseudo-random position.
fn tie_heavy(
    plan: &ChannelPlan,
    model: &dyn ClientModel,
    display_rate: Mbps,
    slots: &[u8],
    vids: &[usize],
    step: f64,
    follow: &[bool],
) -> Vec<Request> {
    let videos = plan.num_videos().max(1);
    let mut requests: Vec<Request> = slots
        .iter()
        .zip(vids)
        .map(|(&slot, &v)| Request {
            at: Minutes(step * f64::from(slot)),
            video: VideoId(v % videos),
        })
        .collect();
    for (i, r) in requests.clone().into_iter().enumerate() {
        if follow[i % follow.len()] {
            let end = model
                .session(plan, r.video, r.at, display_rate)
                .unwrap()
                .playback_end();
            let at = (i * 7 + 3) % (requests.len() + 1);
            requests.insert(
                at,
                Request {
                    at: end,
                    video: r.video,
                },
            );
        }
    }
    requests
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sweep_matches_the_engine_it_replaced(
        slots in prop::collection::vec(0u8..12, 1..32),
        vids in prop::collection::vec(0usize..16, 32),
        step in 5.0f64..40.0,
        follow in prop::collection::vec(any::<bool>(), 1..8),
    ) {
        let cfg = SystemConfig::paper_defaults(Mbps(320.0));
        for (name, plan, model) in lineup() {
            let model = model.as_ref();
            let requests =
                tie_heavy(&plan, model, cfg.display_rate, &slots, &vids, step, &follow);
            let want = reference(&plan, model, cfg.display_rate, &requests);
            let sim = SystemSim::new(&plan, cfg.display_rate, model);

            for shards in [1, 3] {
                let mut collect = CollectTraces::new();
                let out = sim
                    .execute(RunConfig::new(&requests).shards(shards).sink(&mut collect))
                    .unwrap();
                prop_assert!(
                    collect.traces == want.traces,
                    "{}: S={} served sessions in another order", name, shards
                );
                prop_assert_eq!(
                    out.summary.peak_active_sessions, want.peak_active,
                    "{}: S={} peak active", name, shards
                );
                if shards == 1 {
                    prop_assert_eq!(out.stats, want.stats, "{}: engine counters", name);
                }
            }

            let slices = plan_shards(&requests, 1, 0, None);
            let mut ticks = Vec::new();
            let mut probe = |p: Probe<'_>| {
                if let Probe::Event { tick } = p {
                    ticks.push(tick);
                }
                Verdict::Continue
            };
            sim.run_shard(&slices[0], AgendaKind::Heap, u64::MAX, None, &mut probe)
                .unwrap();
            prop_assert_eq!(&ticks, &want.ticks, "{}: probe ticks", name);
        }
    }
}
