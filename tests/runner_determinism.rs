//! The experiment runner's core contract: results are a pure function of
//! the [`Experiment`], never of the worker-pool size. `--threads 8` must
//! serialize to the *same bytes* as `--threads 1`.

use skyscraper_broadcasting::analysis::lineup::{extended_lineup, paper_lineup};
use skyscraper_broadcasting::analysis::runner::{run_experiment, Experiment, Runner};
use skyscraper_broadcasting::units::Minutes;

#[test]
fn same_experiment_is_byte_identical_across_thread_counts() {
    let exp =
        Experiment::over_range("determinism", paper_lineup(), 100.0, 600.0, 100.0).with_seed(97);
    let serial = run_experiment(&exp, Minutes(15.0), 8, &Runner::serial());
    let serial_json = serde_json::to_string_pretty(&serial).unwrap();
    for threads in [2, 8] {
        let parallel = run_experiment(&exp, Minutes(15.0), 8, &Runner::new(threads));
        let parallel_json = serde_json::to_string_pretty(&parallel).unwrap();
        assert_eq!(
            serial_json, parallel_json,
            "{threads}-thread run diverged from serial"
        );
    }
}

#[test]
fn workload_seed_is_a_real_axis() {
    // Different seeds probe different arrival phases, so the empirical
    // crosscheck numbers may differ — but each seed is itself stable.
    let base = Experiment::new("seeded", extended_lineup(), vec![320.0]);
    let a = run_experiment(
        &base.clone().with_seed(1),
        Minutes(15.0),
        16,
        &Runner::new(4),
    );
    let b = run_experiment(&base.with_seed(1), Minutes(15.0), 16, &Runner::serial());
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
}
