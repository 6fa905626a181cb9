//! End-to-end contract of the online control plane (the §1 "hybrid
//! approach", made adaptive): under a popularity shift the dynamic
//! allocator must beat the frozen paper configuration, the static policy
//! must reproduce it exactly, and everything must stay deterministic.

use skyscraper_broadcasting::analysis::control_study::{
    render_shift_study, shift_study, ShiftStudyConfig,
};
use skyscraper_broadcasting::analysis::runner::Runner;
use skyscraper_broadcasting::control::{ControlPolicy, ControlledSim};
use skyscraper_broadcasting::sim::RunConfig;
use skyscraper_broadcasting::units::Minutes;
use skyscraper_broadcasting::workload::arrivals::{Patience, PoissonArrivals, PopularityShift};
use skyscraper_broadcasting::workload::catalog::Catalog;
use skyscraper_broadcasting::workload::zipf::ZipfPopularity;

fn study_config() -> ShiftStudyConfig {
    ShiftStudyConfig {
        horizon: Minutes(400.0),
        seeds: vec![11, 23],
        ..ShiftStudyConfig::paper_defaults()
    }
}

fn shifted_requests(
    cfg: &ShiftStudyConfig,
    seed: u64,
) -> Vec<skyscraper_broadcasting::workload::arrivals::WorkloadRequest> {
    let shift = PopularityShift {
        arrivals: PoissonArrivals::new(cfg.rate, seed)
            .with_patience(Patience::Exponential(cfg.mean_patience)),
        shift_at: cfg.shift_at,
        rotate: cfg.rotate,
    };
    shift.generate(&ZipfPopularity::paper(cfg.control.titles), cfg.horizon)
}

#[test]
fn dynamic_control_beats_static_under_a_popularity_shift() {
    let (study, snap) = shift_study(&study_config(), &Runner::serial()).unwrap();
    assert!(
        study.dynamic_mean_latency < study.static_mean_latency,
        "dynamic {} should beat static {}",
        study.dynamic_mean_latency,
        study.static_mean_latency
    );
    assert!(study.dynamic_served >= study.static_served);
    // The improvement comes from actual reallocations, visible in metrics.
    assert!(snap.counter_total("control_reallocations_total") > 0);
    // The rendered table carries both policies for every seed.
    let table = render_shift_study(&study);
    assert!(table.contains("static") && table.contains("dynamic"));
}

#[test]
fn static_policy_never_moves_a_channel() {
    let cfg = study_config();
    let catalog = Catalog::paper_defaults(cfg.control.titles);
    let sim = ControlledSim::new(cfg.control, &catalog).unwrap();
    let reqs = shifted_requests(&cfg, 11);
    let report = sim
        .execute(ControlPolicy::Static, RunConfig::new(&reqs))
        .unwrap()
        .summary;
    assert_eq!(report.swaps_planned, 0);
    assert_eq!(report.swaps_committed, 0);
    assert_eq!(
        report.final_hot,
        (0..cfg.control.hot_slots).collect::<Vec<_>>()
    );
    assert_eq!(report.accounted(), reqs.len());
}

#[test]
fn shift_study_snapshot_is_byte_identical_across_thread_counts() {
    let cfg = study_config();
    let (serial_study, serial_snap) = shift_study(&cfg, &Runner::serial()).unwrap();
    for threads in [2, 8] {
        let (study, snap) = shift_study(&cfg, &Runner::new(threads)).unwrap();
        assert_eq!(
            serde_json::to_string_pretty(&serial_study).unwrap(),
            serde_json::to_string_pretty(&study).unwrap(),
            "{threads}-thread study diverged"
        );
        assert_eq!(
            serde_json::to_string_pretty(&serial_snap).unwrap(),
            serde_json::to_string_pretty(&snap).unwrap(),
            "{threads}-thread snapshot diverged"
        );
    }
}

#[test]
fn policies_are_distinguishable_inside_one_merged_snapshot() {
    let (study, snap) = shift_study(&study_config(), &Runner::serial()).unwrap();
    // Both policies' latency histograms live side by side in the merged
    // snapshot, separated by the appended policy label.
    let count_for = |policy: &str| -> u64 {
        ["class=broadcast", "class=pool"]
            .iter()
            .filter_map(|class| {
                snap.histogram(
                    "control_latency_minutes",
                    &format!("{class},policy={policy}"),
                )
            })
            .map(|h| h.count)
            .sum()
    };
    let served_static = count_for("static");
    let served_dynamic = count_for("dynamic");
    assert_eq!(served_static as usize, study.static_served);
    assert_eq!(served_dynamic as usize, study.dynamic_served);
    assert!(served_static > 0 && served_dynamic >= served_static);
}

#[test]
fn a_rerun_into_a_fresh_registry_is_identical() {
    let cfg = study_config();
    let catalog = Catalog::paper_defaults(cfg.control.titles);
    let sim = ControlledSim::new(cfg.control, &catalog).unwrap();
    let reqs = shifted_requests(&cfg, 23);
    let run = || {
        let out = sim
            .execute(ControlPolicy::Dynamic, RunConfig::new(&reqs))
            .unwrap();
        (
            serde_json::to_string(&out.summary).unwrap(),
            serde_json::to_string(&out.snapshot).unwrap(),
        )
    };
    assert_eq!(run(), run());
}

/// FNV-1a 64-bit over `json`'s bytes.
fn fnv1a(json: &str) -> u64 {
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The study and its policy-labelled snapshot, pinned as one digest: a
/// change to how the cells record or merge their metrics must leave the
/// bytes unchanged.
#[test]
fn shift_study_bytes_are_pinned() {
    let (study, snap) = shift_study(&study_config(), &Runner::serial()).unwrap();
    let json = serde_json::to_string(&(&study, &snap)).unwrap();
    assert_eq!(fnv1a(&json), 0x9ca2_fcc0_728c_785e);
}
