//! Golden bytes for `SystemSim::execute`: the serialized summary, fold
//! and metrics snapshot of a fixed run, a caller registry's snapshot
//! merged with the run's, and the traces a caller's sink receives,
//! pinned as FNV-1a digests for each client model at one and four
//! shards.
//!
//! The shard-invariance suite proves serial and sharded runs agree with
//! *each other*; this file proves they agree with the bytes the
//! simulator produced when the digests were taken. A change to the hot
//! path (how the registry is fed, how the fold reads a session, how a
//! schedule becomes a trace) must leave every digest unchanged.

use sb_core::config::SystemConfig;
use sb_core::plan::{ChannelPlan, VideoId};
use sb_core::scheme::BroadcastScheme;
use sb_core::series::Width;
use sb_core::Skyscraper;
use sb_metrics::Registry;
use sb_pyramid::{HarmonicBroadcasting, PermutationPyramid};
use sb_sim::policy::ClientPolicy;
use sb_sim::system::{Request, SystemSim};
use sb_sim::trace::{ClientModel, PausingClient, RecordingClient};
use sb_sim::{CollectTraces, RunConfig};
use serde::Serialize;
use vod_units::{Mbps, Minutes};

/// FNV-1a 64-bit over the value's `serde_json` bytes.
fn digest(value: &impl Serialize) -> u64 {
    let bytes = serde_json::to_string(value).expect("in-memory values serialize");
    bytes.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The client models on the plans their schemes prescribe, plus the
/// latest-feasible client on PPB:b, whose several carriers per segment
/// let the arrival filter bind.
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

/// 180 requests over all but the last two videos, in scrambled arrival
/// order (so the sweep sorts), with repeated arrival instants (so ties
/// break by slice index).
fn requests(videos: usize) -> Vec<Request> {
    let served = videos.saturating_sub(2).max(1);
    let mut x = 0x2545_f491_4f6c_dd1du64;
    (0..180)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            Request {
                at: Minutes((x % 2400) as f64 * 0.05),
                video: VideoId((i * 7 + (x >> 32) as usize) % served),
            }
        })
        .collect()
}

/// `(summary, fold, snapshot, caller registry merged with the
/// snapshot, caller sink)` digests of one run.
fn digests(plan: &ChannelPlan, model: &dyn ClientModel, shards: usize) -> [u64; 5] {
    let cfg = SystemConfig::paper_defaults(Mbps(320.0));
    let reqs = requests(plan.num_videos());
    let sim = SystemSim::new(plan, cfg.display_rate, model);
    let bare = sim
        .execute(RunConfig::new(&reqs).shards(shards).threads(2))
        .unwrap();
    // A caller's registry that already holds a series of the run's own
    // families and one of its own takes the run's snapshot in by a
    // merge: both series survive it.
    let mut reg = Registry::new();
    reg.incr("sim_sessions_total", &[("video", "0")], 5);
    reg.incr("caller_total", &[], 1);
    let mut merged = reg.snapshot();
    merged
        .merge(&bare.snapshot)
        .expect("the run's families keep their kinds");
    let mut collect = CollectTraces::new();
    let slotted = sim
        .execute(
            RunConfig::new(&reqs)
                .shards(shards)
                .threads(2)
                .sink(&mut collect),
        )
        .unwrap();
    assert_eq!(bare, slotted, "the caller's sink must not steer the run");
    // A video nobody asked for has no series, in either snapshot.
    let idle = format!("video={}", plan.num_videos() - 1);
    assert!(bare
        .snapshot
        .histogram("sim_latency_minutes", &idle)
        .is_none());
    assert!(merged.counter("sim_sessions_total", &idle).is_none());
    [
        digest(&bare.summary),
        digest(&bare.fold),
        digest(&bare.snapshot),
        digest(&merged),
        digest(&collect.summarize()),
    ]
}

#[test]
fn execute_bytes_are_pinned_for_every_model_and_shard_count() {
    let expected: [(&str, [u64; 5]); 5] = [
        (
            "latest-feasible on SB:W=52",
            [
                0x77b4_6424_4844_3487,
                0xacde_7e9e_73d0_e9bd,
                0xb8a1_4a10_0336_6f6a,
                0xf596_5408_37ce_58a2,
                0xacde_7e9e_73d0_e9bd,
            ],
        ),
        (
            "pb-earliest on SB:W=52",
            [
                0x6b79_bb26_01be_8446,
                0xbd5f_2c03_8ab5_84f9,
                0x1b63_6562_5d1a_7341,
                0x0cf9_15fc_8791_aa51,
                0xbd5f_2c03_8ab5_84f9,
            ],
        ),
        (
            "latest-feasible on PPB:b",
            [
                0x37e6_e01c_8439_2b08,
                0x3db3_2c3e_4d22_90d9,
                0x700a_0fc1_8d45_2586,
                0xad46_73e0_8257_a75c,
                0x3db3_2c3e_4d22_90d9,
            ],
        ),
        (
            "pausing on PPB:b",
            [
                0xdfe1_cc8f_fc81_7ea1,
                0x900a_be21_645e_9d1d,
                0x0e92_33c0_3e3d_c81f,
                0x9bf0_e9c2_802b_900b,
                0x900a_be21_645e_9d1d,
            ],
        ),
        (
            "recording on HB",
            [
                0xec1a_fcaa_0ec5_b376,
                0xea0a_a080_7123_97a0,
                0xea77_cf37_1eef_5337,
                0x3afc_b0c8_92ef_59d3,
                0xea0a_a080_7123_97a0,
            ],
        ),
    ];
    let mut got = Vec::new();
    for (name, plan, model) in lineup() {
        for shards in [1, 4] {
            got.push((name, shards, digests(&plan, model.as_ref(), shards)));
        }
    }
    for (name, shards, d) in got {
        let want = expected
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, w)| *w)
            .unwrap_or_else(|| panic!("no digests for {name}"));
        assert_eq!(d, want, "{name} at {shards} shard(s)");
    }
}
