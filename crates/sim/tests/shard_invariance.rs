//! Property test for `sim::shard`: sharding is invisible in the results.
//!
//! For random request streams (arbitrary arrival fractions, video
//! choices and shard-hash seeds) and **all three client models**, a
//! `shards(4)` run on a worker pool must be *bitwise* identical to the
//! serial `shards(1)` run: same [`SystemReport`], same streamed
//! [`StreamingFold`] summary (struct and serialized bytes), same merged
//! metrics snapshot, and the same engine-event totals. This pins the
//! merge-as-ordered-replay argument of `DESIGN.md` §11 against the
//! whole input space, not just the handcrafted unit fixtures.

use proptest::prelude::*;
use vod_units::{Mbps, Minutes};

use sb_core::config::SystemConfig;
use sb_core::plan::{ChannelPlan, VideoId};
use sb_core::scheme::BroadcastScheme;
use sb_core::series::Width;
use sb_core::Skyscraper;
use sb_pyramid::{HarmonicBroadcasting, PermutationPyramid};
use sb_sim::policy::ClientPolicy;
use sb_sim::system::{Request, SystemSim};
use sb_sim::trace::{ClientModel, PausingClient, RecordingClient};
use sb_sim::{RunConfig, StreamingFold};

/// Each model against the plan its scheme prescribes (the same lineup
/// the streaming-equivalence suite pins).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn four_shards_fold_bitwise_equal_to_one(
        fracs in prop::collection::vec(0.0f64..1.0, 1..48),
        vids in prop::collection::vec(0usize..16, 48),
        span in 1.0f64..240.0,
        shard_seed in any::<u64>(),
    ) {
        let cfg = SystemConfig::paper_defaults(Mbps(320.0));
        for (name, plan, model) in lineup() {
            let videos = plan.num_videos().max(1);
            let reqs: Vec<Request> = fracs
                .iter()
                .zip(&vids)
                .map(|(&frac, &v)| Request {
                    at: Minutes(span * frac),
                    video: VideoId(v % videos),
                })
                .collect();

            let mut base_fold = StreamingFold::new();
            let base = SystemSim::new(&plan, cfg.display_rate, model.as_ref())
                .execute(RunConfig::new(&reqs).sink(&mut base_fold).seed(shard_seed))
                .unwrap_or_else(|e| panic!("{name}: {e}"));

            let mut sharded_fold = StreamingFold::new();
            let sharded = SystemSim::new(&plan, cfg.display_rate, model.as_ref())
                .execute(
                    RunConfig::new(&reqs)
                        .sink(&mut sharded_fold)
                        .shards(4)
                        .threads(2)
                        .seed(shard_seed),
                )
                .unwrap_or_else(|e| panic!("{name}: {e}"));

            // The engine-side report, the streamed fold and the merged
            // snapshot are the same structs…
            prop_assert_eq!(&base.summary, &sharded.summary, "{}: report diverged", name);
            prop_assert_eq!(&base.fold, &sharded.fold, "{}: fold diverged", name);
            prop_assert_eq!(&base.snapshot, &sharded.snapshot, "{}: snapshot diverged", name);

            // …and the same bytes, caller-side sinks included.
            let a = base_fold.finish();
            let b = sharded_fold.finish();
            prop_assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap(),
                "{}: caller fold bytes diverged", name
            );
            prop_assert_eq!(
                serde_json::to_string(&base.fold).unwrap(),
                serde_json::to_string(&sharded.fold).unwrap(),
                "{}: outcome fold bytes diverged", name
            );
            prop_assert_eq!(
                serde_json::to_string(&base.snapshot).unwrap(),
                serde_json::to_string(&sharded.snapshot).unwrap(),
                "{}: snapshot bytes diverged", name
            );

            // Event totals are conserved across the partition; only the
            // agenda split may differ (4 shards, 4 high-water marks).
            prop_assert_eq!(base.stats.scheduled, sharded.stats.scheduled, "{}", name);
            prop_assert_eq!(base.stats.fired, sharded.stats.fired, "{}", name);
            prop_assert_eq!(base.stats.cancelled, sharded.stats.cancelled, "{}", name);
            prop_assert_eq!(sharded.shard_peak_agenda.len(), 4, "{}", name);
        }
    }
}

/// The report is the fold's projection: every field they share is the
/// same bits, serial and sharded, for every client model.
#[test]
fn summary_shares_the_folds_bits() {
    let cfg = SystemConfig::paper_defaults(Mbps(320.0));
    for (name, plan, model) in lineup() {
        let videos = plan.num_videos().max(1);
        let reqs: Vec<Request> = (0..60)
            .map(|i| Request {
                at: Minutes(0.77 * i as f64),
                video: VideoId(i % videos),
            })
            .collect();
        let sim = SystemSim::new(&plan, cfg.display_rate, model.as_ref());
        for shards in [1, 4] {
            let out = sim
                .execute(RunConfig::new(&reqs).shards(shards))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let (s, f) = (&out.summary, &out.fold);
            assert_eq!(s.sessions, f.sessions, "{name} S={shards}");
            for (a, b) in [
                (s.mean_latency.value(), f.mean_latency.value()),
                (s.p50_latency.value(), f.p50_latency.value()),
                (s.p95_latency.value(), f.p95_latency.value()),
                (s.worst_latency.value(), f.worst_latency.value()),
                (s.worst_buffer.value(), f.worst_buffer.value()),
                (s.delivered_minutes.value(), f.delivered_minutes.value()),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "{name} S={shards}");
            }
        }
    }
}
