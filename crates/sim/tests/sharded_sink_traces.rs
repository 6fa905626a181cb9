//! Trace-level property for sharded runs: the caller's [`TraceSink`]
//! sees every session's whole trace, in the serial run's order.
//!
//! `shard_invariance` compares the folds a sink ends with; this suite
//! compares the traces themselves. For five client models, requests in
//! *unsorted* arrival order with exact tick ties (so the sweep sorts
//! and ties break by request index), and shards {2, 4} × threads {1, 2},
//! the traces a [`CollectTraces`] receives must serialize to the same
//! bytes, in the same order, as a serial run's. A merge that mixed up a
//! shard-local and a global request index would reorder tied or
//! out-of-order sessions here even where the folds happen to agree.

use proptest::prelude::*;
use vod_units::{Mbps, Minutes};

use sb_core::config::SystemConfig;
use sb_core::plan::{ChannelPlan, VideoId};
use sb_core::scheme::BroadcastScheme;
use sb_core::series::Width;
use sb_core::Skyscraper;
use sb_pyramid::{Ctifb, HarmonicBroadcasting, PermutationPyramid};
use sb_sim::policy::ClientPolicy;
use sb_sim::system::{Request, SystemSim};
use sb_sim::trace::{ClientModel, CycleRecordingClient, PausingClient, RecordingClient};
use sb_sim::{CollectTraces, RunConfig};

/// Five client models, each on a plan it serves. CTIFB runs at
/// 60 Mb/s, where it splits each video into 15 slots; at 320 Mb/s it
/// would split it into 65,535 and record as many cycles per session.
fn lineup() -> Vec<(&'static str, ChannelPlan, Box<dyn ClientModel>)> {
    let cfg = SystemConfig::paper_defaults(Mbps(320.0));
    let sb = Skyscraper::with_width(Width::Capped(52))
        .plan(&cfg)
        .unwrap();
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
            "pausing on PPB:b",
            PermutationPyramid::b().plan(&cfg).unwrap(),
            Box::new(PausingClient),
        ),
        (
            "recording on HB",
            HarmonicBroadcasting::delayed().plan(&cfg).unwrap(),
            Box::new(RecordingClient::default()),
        ),
        (
            "cycle-recording on CTIFB",
            Ctifb
                .plan(&SystemConfig::paper_defaults(Mbps(60.0)))
                .unwrap(),
            Box::new(CycleRecordingClient),
        ),
    ]
}

/// The traces a `CollectTraces` sink received, as one JSON document.
fn sink_bytes(
    sim: &SystemSim<'_>,
    reqs: &[Request],
    shards: usize,
    threads: usize,
    seed: u64,
) -> (usize, String) {
    let mut collect = CollectTraces::new();
    sim.execute(
        RunConfig::new(reqs)
            .sink(&mut collect)
            .shards(shards)
            .threads(threads)
            .seed(seed),
    )
    .unwrap();
    (
        collect.traces.len(),
        serde_json::to_string(&collect.traces).unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sharded_sink_traces_are_the_serial_bytes(
        slots in prop::collection::vec(0u32..40, 1..56),
        vids in prop::collection::vec(0usize..16, 56),
        step in 0.25f64..3.0,
        shard_seed in any::<u64>(),
    ) {
        let cfg = SystemConfig::paper_defaults(Mbps(320.0));
        for (name, plan, model) in lineup() {
            let videos = plan.num_videos().max(1);
            // A few dozen arrival instants for up to 55 requests, drawn
            // out of order: ties and inversions are both common.
            let reqs: Vec<Request> = slots
                .iter()
                .zip(&vids)
                .map(|(&slot, &v)| Request {
                    at: Minutes(step * f64::from(slot)),
                    video: VideoId(v % videos),
                })
                .collect();
            let sim = SystemSim::new(&plan, cfg.display_rate, model.as_ref());
            let serial = sink_bytes(&sim, &reqs, 1, 1, shard_seed);
            prop_assert_eq!(serial.0, reqs.len(), "{}: serial sink count", name);
            for shards in [2, 4] {
                for threads in [1, 2] {
                    let sharded = sink_bytes(&sim, &reqs, shards, threads, shard_seed);
                    prop_assert_eq!(
                        &serial,
                        &sharded,
                        "{}: S={} T={} sink traces diverged",
                        name,
                        shards,
                        threads
                    );
                }
            }
        }
    }
}
