//! The crash-recovery supervisor's flagship invariants, end to end.
//!
//! 1. **Bitwise identity under chaos** — a supervised run whose shards
//!    are killed (at ticks and at checkpoints) and resumed from their
//!    checkpoints produces the exact bytes of an uninterrupted
//!    `SystemSim::execute`, for every `shards {1,2,4} × threads {1,2,4}`
//!    combination.
//!    The same holds over an unsorted stream whose equal arrival ticks
//!    fall on different shards, so each shard's sweep order and the
//!    merge's tie-break by slice index both matter.
//! 2. **Corruption fallback** — a corrupted latest checkpoint is
//!    rejected by its checksum and the shard falls back to the previous
//!    one, still landing on identical bytes.
//! 3. **Graceful degradation** — a shard that exhausts its restart
//!    budget yields an explicit [`PartialRun`] with a [`MissingShard`]
//!    marker, never a panic, and the survivors still merge canonically.

use vod_units::{Mbps, Minutes};

use sb_core::config::SystemConfig;
use sb_core::plan::VideoId;
use sb_core::scheme::BroadcastScheme;
use sb_core::series::Width;
use sb_core::Skyscraper;
use sb_resilience::{Backoff, CrashScript, Recovered, RunSpec, Supervisor};
use sb_sim::policy::ClientPolicy;
use sb_sim::system::{Request, SystemSim};
use sb_sim::{owning_shard, plan_shards, RunConfig, RunOutcome};

fn lineup() -> (SystemConfig, sb_core::plan::ChannelPlan, Vec<Request>) {
    let cfg = SystemConfig::paper_defaults(Mbps(300.0));
    let plan = Skyscraper::with_width(Width::Capped(52))
        .plan(&cfg)
        .unwrap();
    let requests: Vec<Request> = (0..240)
        .map(|i| Request {
            at: Minutes(45.0 * (i as f64 + 0.31) / 240.0),
            video: VideoId(i % 10),
        })
        .collect();
    (cfg, plan, requests)
}

fn outcome_bytes(o: &RunOutcome) -> (String, String, String) {
    (
        serde_json::to_string(&o.summary).unwrap(),
        serde_json::to_string(&o.fold).unwrap(),
        serde_json::to_string(&o.snapshot).unwrap(),
    )
}

fn backoff() -> Backoff {
    Backoff::new(Minutes(1.0), 2.0, 8).unwrap()
}

#[test]
fn supervised_chaos_is_bitwise_identical_to_uninterrupted_execute() {
    let (cfg, plan, requests) = lineup();
    let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
    let supervisor = Supervisor::new(backoff(), 10).unwrap();
    for shards in [1usize, 2, 4] {
        // Kill every shard once at its first checkpoint, and shard 0 a
        // second time mid-stream by tick.
        let mut spec_items: Vec<String> = (0..shards).map(|s| format!("kill:{s}@ckpt:1")).collect();
        spec_items.push("kill:0@tick:40000".to_string());
        let chaos = CrashScript::parse(&spec_items.join(";")).unwrap();
        for threads in [1usize, 2, 4] {
            let base = sim
                .execute(RunConfig::new(&requests).shards(shards).threads(threads))
                .unwrap();
            let spec = RunSpec {
                shards,
                threads,
                ..RunSpec::default()
            };
            let recovered = supervisor.run(&sim, &requests, &spec, &chaos).unwrap();
            let Recovered::Complete { outcome, stats } = recovered else {
                panic!("S={shards} T={threads}: expected a complete run");
            };
            assert_eq!(
                outcome_bytes(&base),
                outcome_bytes(&outcome),
                "S={shards} T={threads}: supervised bytes diverged"
            );
            assert!(
                stats.crashes_injected >= shards as u64,
                "S={shards}: every scripted per-shard kill should fire \
                 (got {})",
                stats.crashes_injected
            );
            assert!(stats.restores >= 1, "kills at ckpt 1 resume from it");
            assert!(stats.checkpoints_taken > 0);
            assert!(stats.recovery_delay.value() > 0.0, "delays are modeled");
        }
    }
}

#[test]
fn supervised_chaos_over_unsorted_tied_arrivals_matches_execute() {
    // Reversed, then re-timed onto 48 half-minute marks: the stream is
    // out of order and every mark carries five requests of different
    // videos.
    let (cfg, plan, mut requests) = lineup();
    requests.reverse();
    for (i, r) in requests.iter_mut().enumerate() {
        r.at = Minutes((i * 7 % 48) as f64 * 0.5);
    }
    let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
    let base = sim.execute(RunConfig::new(&requests)).unwrap();
    let cadence = 10;
    let supervisor = Supervisor::new(backoff(), cadence).unwrap();
    for shards in [2usize, 4] {
        let owner = |r: &Request| owning_shard(r.video.0, shards, 0, None);
        assert!(
            requests.iter().enumerate().any(|(i, a)| requests[i + 1..]
                .iter()
                .any(|b| a.at == b.at && owner(a) != owner(b))),
            "S={shards}: some equal arrival ticks fall on different shards"
        );
        // Every shard is killed at its first checkpoint, and shard 0
        // again at tick 60000 (minute 10), past that checkpoint.
        let mut items: Vec<String> = (0..shards).map(|s| format!("kill:{s}@ckpt:1")).collect();
        items.push("kill:0@tick:60000".to_string());
        let chaos = CrashScript::parse(&items.join(";")).unwrap();
        let checkpointed = plan_shards(&requests, shards, 0, None)
            .iter()
            .filter(|slice| slice.len() as u64 >= cadence)
            .count();
        for threads in [1usize, 2] {
            let spec = RunSpec {
                shards,
                threads,
                ..RunSpec::default()
            };
            let recovered = supervisor.run(&sim, &requests, &spec, &chaos).unwrap();
            let Recovered::Complete { outcome, stats } = recovered else {
                panic!("S={shards} T={threads}: expected a complete run");
            };
            assert_eq!(
                outcome_bytes(&base),
                outcome_bytes(&outcome),
                "S={shards} T={threads}: supervised bytes diverged"
            );
            assert_eq!(
                stats.crashes_injected,
                checkpointed as u64 + 1,
                "S={shards} T={threads}: each checkpoint kill and the tick kill fire once"
            );
            assert!(stats.restores >= 1, "kills at ckpt 1 resume from it");
        }
    }
}

#[test]
fn chaos_free_supervision_matches_execute_too() {
    let (cfg, plan, requests) = lineup();
    let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
    let supervisor = Supervisor::new(backoff(), 25).unwrap();
    let base = sim
        .execute(RunConfig::new(&requests).shards(2).threads(2))
        .unwrap();
    let spec = RunSpec {
        shards: 2,
        threads: 2,
        ..RunSpec::default()
    };
    let recovered = supervisor
        .run(&sim, &requests, &spec, &CrashScript::none())
        .unwrap();
    let Recovered::Complete { outcome, stats } = recovered else {
        panic!("expected a complete run");
    };
    assert_eq!(outcome_bytes(&base), outcome_bytes(&outcome));
    assert_eq!(stats.crashes_injected, 0);
    assert_eq!(stats.restores, 0);
    assert_eq!(stats.replayed_sessions, 0);
    assert_eq!(stats.recovery_delay, Minutes(0.0));
}

#[test]
fn corrupted_checkpoint_is_rejected_and_the_previous_one_serves() {
    let (cfg, plan, requests) = lineup();
    let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
    let cadence = 10u64;
    let supervisor = Supervisor::new(backoff(), cadence).unwrap();
    let base = sim.execute(RunConfig::new(&requests).shards(2)).unwrap();
    // Corrupt shard 1's second checkpoint *and* kill it right there: the
    // restore must reject checkpoint 2 by checksum and fall back to
    // checkpoint 1, replaying one cadence worth of sessions.
    let chaos = CrashScript::parse("corrupt:1@ckpt:2;kill:1@ckpt:2").unwrap();
    let spec = RunSpec {
        shards: 2,
        threads: 2,
        ..RunSpec::default()
    };
    let recovered = supervisor.run(&sim, &requests, &spec, &chaos).unwrap();
    let Recovered::Complete { outcome, stats } = recovered else {
        panic!("expected a complete run");
    };
    assert_eq!(
        outcome_bytes(&base),
        outcome_bytes(&outcome),
        "corruption fallback changed the bytes"
    );
    assert_eq!(stats.crashes_injected, 1);
    assert_eq!(stats.corrupt_rejected, 1, "checksum must catch the flip");
    assert_eq!(stats.restores, 1, "the previous checkpoint serves");
    assert_eq!(
        stats.replayed_sessions, cadence,
        "falling back one checkpoint replays exactly one cadence"
    );
}

#[test]
fn exhausted_restart_budget_degrades_to_an_explicit_partial_run() {
    let (cfg, plan, requests) = lineup();
    let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
    // One restart allowed; two kills scripted on shard 1 → shard 1 lost.
    let tight = Backoff::new(Minutes(1.0), 2.0, 1).unwrap();
    let supervisor = Supervisor::new(tight, 10).unwrap();
    let chaos = CrashScript::parse("kill:1@ckpt:1;kill:1@ckpt:3").unwrap();
    let spec = RunSpec {
        shards: 2,
        threads: 2,
        ..RunSpec::default()
    };
    let recovered = supervisor.run(&sim, &requests, &spec, &chaos).unwrap();
    let Recovered::Partial(partial) = recovered else {
        panic!("expected a degraded run");
    };
    assert_eq!(partial.missing.len(), 1, "exactly one shard is lost");
    let marker = &partial.missing[0];
    assert_eq!(marker.shard, 1);
    assert_eq!(marker.attempts, 1, "the whole budget was consumed");
    assert!(
        marker.last_error.contains("killed"),
        "the marker names the crash: {}",
        marker.last_error
    );
    // The survivors still merge: shard 0's sessions are all present and
    // match a solo run of the same slice.
    assert!(partial.outcome.summary.sessions > 0);
    assert!(partial.outcome.summary.sessions < 240);
    assert_eq!(partial.stats.crashes_injected, 2);
    // Determinism of degradation itself: the same inputs lose the same
    // shard with the same bytes.
    let again = supervisor.run(&sim, &requests, &spec, &chaos).unwrap();
    let Recovered::Partial(partial2) = again else {
        panic!("expected the same degraded run");
    };
    assert_eq!(
        outcome_bytes(&partial.outcome),
        outcome_bytes(&partial2.outcome)
    );
    assert_eq!(partial.missing, partial2.missing);
}

#[test]
fn seeded_scripts_drive_identical_supervised_runs() {
    let (cfg, plan, requests) = lineup();
    let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
    let supervisor = Supervisor::new(backoff(), 10).unwrap();
    let chaos = CrashScript::seeded(7, 4, 6);
    let spec = RunSpec {
        shards: 4,
        threads: 4,
        ..RunSpec::default()
    };
    let a = supervisor.run(&sim, &requests, &spec, &chaos).unwrap();
    let b = supervisor.run(&sim, &requests, &spec, &chaos).unwrap();
    assert_eq!(outcome_bytes(a.outcome()), outcome_bytes(b.outcome()));
    assert_eq!(a.stats(), b.stats());
    // And when every shard completes, the usual identity holds.
    if let Recovered::Complete { outcome, .. } = &a {
        let base = sim
            .execute(RunConfig::new(&requests).shards(4).threads(4))
            .unwrap();
        assert_eq!(outcome_bytes(&base), outcome_bytes(outcome));
    }
}
