//! Acceptance tests for the resilience subsystem, pinned across crate
//! boundaries: outage recovery completes every admitted session, dynamic
//! control strictly beats static under the same fault script, and the
//! whole fault study is byte-identical for every worker-thread count.

use skyscraper_broadcasting::analysis::resilience_study::{
    resilience_study, ResilienceStudyConfig,
};
use skyscraper_broadcasting::analysis::Runner;
use skyscraper_broadcasting::control::{ControlConfig, ControlPolicy, ControlledSim};
use skyscraper_broadcasting::resilience::{ChannelOutage, Degradation, FaultScript};
use skyscraper_broadcasting::sim::RunConfig;
use skyscraper_broadcasting::units::{Mbps, Minutes};
use skyscraper_broadcasting::workload::{
    Catalog, Patience, PoissonArrivals, PopularityShift, ZipfPopularity,
};

fn outage_script() -> FaultScript {
    FaultScript {
        outages: vec![ChannelOutage {
            channel: 0,
            start: Minutes(100.0),
            duration: Minutes(60.0),
        }],
        ..FaultScript::none()
    }
}

fn shifted_requests(seed: u64) -> Vec<skyscraper_broadcasting::workload::WorkloadRequest> {
    PopularityShift {
        arrivals: PoissonArrivals::new(6.0, seed)
            .with_patience(Patience::Exponential(Minutes(45.0))),
        shift_at: Minutes(150.0),
        rotate: 20,
    }
    .generate(&ZipfPopularity::paper(40), Minutes(400.0))
}

/// Under a mid-run outage, both policies account for every request, the
/// dark window's sessions are repaired rather than dropped, and dynamic
/// control strictly beats static on mean access latency.
#[test]
fn outage_recovery_completes_every_session_and_dynamic_wins() {
    let cfg = ControlConfig::paper_defaults(Mbps(300.0));
    let catalog = Catalog::paper_defaults(cfg.titles);
    let sim = ControlledSim::new(cfg, &catalog).unwrap();
    let requests = shifted_requests(11);
    let script = outage_script();

    let mut reports = Vec::new();
    for policy in [ControlPolicy::Static, ControlPolicy::Dynamic] {
        for degradation in [Degradation::Stall, Degradation::SkipSegment] {
            let r = sim
                .clone()
                .with_faults(script.clone(), degradation)
                .unwrap()
                .execute(policy, RunConfig::new(&requests))
                .unwrap()
                .summary;
            // Nobody starves: every offered request ends served,
            // defected, or rejected — none lost in the dark window.
            assert_eq!(r.accounted(), requests.len(), "{policy}/{degradation:?}");
            assert!(r.resilience.repaired_sessions > 0, "{policy}: no repairs");
            assert!(r.resilience.redirected > 0, "{policy}: no redirects");
            match degradation {
                Degradation::Stall => assert!(r.resilience.stall_minutes > 0.0),
                Degradation::SkipSegment => assert!(r.resilience.skipped_minutes > 0.0),
                Degradation::QualityDrop => unreachable!(),
            }
            reports.push(r);
        }
    }
    let static_lat = reports[0].mean_latency;
    let dynamic_lat = reports[2].mean_latency;
    assert!(
        dynamic_lat < static_lat,
        "dynamic {dynamic_lat} must strictly beat static {static_lat} under the same script"
    );
}

/// The full fault study is byte-identical across worker-thread counts.
#[test]
fn resilience_study_is_byte_identical_across_thread_counts() {
    let cfg = ResilienceStudyConfig {
        samples: 6,
        loss_rates: vec![0.05],
        seeds: vec![11, 23],
        control_horizon: Minutes(300.0),
        shift_at: Minutes(120.0),
        ..ResilienceStudyConfig::paper_defaults()
    };
    let runs: Vec<(String, String)> = [1usize, 2, 4]
        .iter()
        .map(|&threads| {
            let (study, snap) = resilience_study(&cfg, &Runner::new(threads)).unwrap();
            (
                serde_json::to_string(&study).unwrap(),
                serde_json::to_string(&snap).unwrap(),
            )
        })
        .collect();
    assert_eq!(runs[0], runs[1], "threads 1 vs 2 diverge");
    assert_eq!(runs[0], runs[2], "threads 1 vs 4 diverge");
}

/// FNV-1a 64-bit over `json`'s bytes.
fn fnv1a(json: &str) -> u64 {
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A small study and its scheme-, kind- and policy-labelled snapshot,
/// pinned as one digest: a change to how the cells record or merge
/// their metrics must leave the bytes unchanged.
#[test]
fn resilience_study_bytes_are_pinned() {
    let cfg = ResilienceStudyConfig {
        samples: 6,
        loss_rates: vec![0.05],
        seeds: vec![7],
        control_horizon: Minutes(200.0),
        shift_at: Minutes(80.0),
        ..ResilienceStudyConfig::paper_defaults()
    };
    let (study, snap) = resilience_study(&cfg, &Runner::serial()).unwrap();
    assert!(snap.families.iter().any(|f| f
        .series
        .iter()
        .any(|s| s.labels.contains("scheme=") && s.labels.contains("kind="))));
    assert!(snap
        .families
        .iter()
        .any(|f| f.series.iter().any(|s| s.labels.contains("policy=dynamic"))));
    let json = serde_json::to_string(&(&study, &snap)).unwrap();
    assert_eq!(fnv1a(&json), 0x7ca2_5e29_6225_3acb);
}
