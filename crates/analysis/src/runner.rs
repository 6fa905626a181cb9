//! The experiment runner: descriptors, a deterministic worker pool, and
//! run manifests.
//!
//! Every artifact binary and the `sbcast` front end used to carry its own
//! loop over (scheme × bandwidth) plus its own JSON plumbing. This module
//! centralizes that: an [`Experiment`] names the grid (scheme lineup ×
//! bandwidth grid × workload seed), a [`Runner`] executes closures over
//! slices with a fixed-size `std::thread::scope` pool, and a
//! [`RunManifest`] records what ran and how long each stage took.
//!
//! **Determinism is the design constraint.** Workers pull item indices
//! from a shared counter and return `(index, result)` pairs; the runner
//! reassembles results *by index*, so the output of [`Runner::map`] is
//! identical to the serial loop for every thread count. Anything
//! non-deterministic (wall-clock timings) goes to stderr or the manifest,
//! never to the result values — `--threads 8` must serialize to the same
//! bytes as `--threads 1`.

use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use vod_units::{Mbps, Minutes};

use crate::crosscheck::{crosscheck_seeded, CrossCheck};
use crate::lineup::SchemeId;
use crate::sweep::{evaluate, SweepRow};
use sb_core::config::SystemConfig;

/// A named evaluation grid: which schemes, at which bandwidths, under
/// which workload seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Experiment {
    /// Name used in manifests and progress output.
    pub name: String,
    /// The scheme lineup.
    pub schemes: Vec<SchemeId>,
    /// Server bandwidths (Mb/s) to evaluate at.
    pub bandwidths: Vec<f64>,
    /// Seed for the empirical workload (arrival-phase scramble); 0 is the
    /// legacy fixed grid.
    pub seed: u64,
}

impl Experiment {
    /// An experiment over an explicit bandwidth list.
    #[must_use]
    pub fn new(name: &str, schemes: Vec<SchemeId>, bandwidths: Vec<f64>) -> Self {
        Self {
            name: name.to_string(),
            schemes,
            bandwidths,
            seed: 0,
        }
    }

    /// An experiment over `[from, to]` in steps of `step` Mb/s.
    ///
    /// # Panics
    /// Panics on a range [`bandwidth_range`] rejects.
    #[must_use]
    pub fn over_range(name: &str, schemes: Vec<SchemeId>, from: f64, to: f64, step: f64) -> Self {
        let bandwidths = bandwidth_range(from, to, step).expect("bad sweep range");
        Self::new(name, schemes, bandwidths)
    }

    /// Set the workload seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The full (scheme, bandwidth) grid, bandwidth-major — the exact
    /// order the serial loops have always used.
    #[must_use]
    pub fn grid(&self) -> Vec<(SchemeId, f64)> {
        self.bandwidths
            .iter()
            .flat_map(|&b| self.schemes.iter().map(move |&id| (id, b)))
            .collect()
    }
}

/// The most bandwidths one range may hold.
const MAX_RANGE_POINTS: usize = 10_000;

/// The bandwidth grid `from, from + step, …` up to `to` (inclusive, with
/// a 1e-9 tolerance), or `None` when `from`, `to` or `step` is not
/// finite, `step` is not positive, `to < from`, or the grid would hold
/// more than 10 000 points. The cap also stops a step too small to move
/// `from` at all.
#[must_use]
pub fn bandwidth_range(from: f64, to: f64, step: f64) -> Option<Vec<f64>> {
    if !(from.is_finite() && to.is_finite() && step.is_finite() && step > 0.0 && to >= from) {
        return None;
    }
    let mut bandwidths = Vec::new();
    let mut b = from;
    while b <= to + 1e-9 {
        if bandwidths.len() == MAX_RANGE_POINTS {
            return None;
        }
        bandwidths.push(b);
        b += step;
    }
    Some(bandwidths)
}

/// Wall-clock record of one runner stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Stage label (usually the experiment name).
    pub stage: String,
    /// Items mapped.
    pub items: usize,
    /// Worker threads used for this stage.
    pub threads: usize,
    /// Wall-clock milliseconds.
    pub wall_ms: u64,
}

/// What a run did and how long it took — written next to (never into) the
/// result JSON, because timings differ run to run while results must not.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// The runner's configured thread count.
    pub threads: usize,
    /// Per-stage timings, in execution order.
    pub stages: Vec<StageTiming>,
}

impl RunManifest {
    /// Total wall-clock milliseconds across stages.
    #[must_use]
    pub fn total_wall_ms(&self) -> u64 {
        self.stages.iter().map(|s| s.wall_ms).sum()
    }

    /// One line per stage, for stderr.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for s in &self.stages {
            out.push_str(&format!(
                "{}: {} items on {} thread(s) in {} ms\n",
                s.stage, s.items, s.threads, s.wall_ms
            ));
        }
        out.push_str(&format!(
            "total: {} ms ({} thread(s) configured)\n",
            self.total_wall_ms(),
            self.threads
        ));
        out
    }
}

/// A deterministic worker pool.
pub struct Runner {
    threads: usize,
    timings: Mutex<Vec<StageTiming>>,
}

impl Runner {
    /// A runner with `threads` workers; `0` means one per available core.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            threads
        };
        Self {
            threads,
            timings: Mutex::new(Vec::new()),
        }
    }

    /// The serial runner — the reference the parallel paths must match.
    #[must_use]
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Map `f` over `items`, preserving order. With one thread (or one
    /// item) this is the plain serial loop; otherwise workers race through
    /// a shared index counter and results are reassembled by index, so the
    /// output is identical either way.
    pub fn map<T: Sync, R: Send>(&self, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        sb_sim::parallel_map(self.threads, "map", items, |_, t| f(t))
    }

    /// [`Runner::map`] plus a [`StageTiming`] entry in the manifest.
    ///
    /// [`sb_sim::parallel_map`] does the claiming and reassembly, so a
    /// panicking cell surfaces as `"<stage>: worker panicked on item
    /// <index>/<n>: <payload>"` instead of an anonymous worker-join abort.
    pub fn timed_map<T: Sync, R: Send>(
        &self,
        stage: &str,
        items: &[T],
        f: impl Fn(&T) -> R + Sync,
    ) -> Vec<R> {
        let t0 = Instant::now();
        let out = sb_sim::parallel_map(self.threads, stage, items, |_, t| f(t));
        self.timings
            .lock()
            .expect("timings poisoned")
            .push(StageTiming {
                stage: stage.to_string(),
                items: items.len(),
                threads: self.threads.min(items.len().max(1)),
                wall_ms: u64::try_from(t0.elapsed().as_millis()).unwrap_or(u64::MAX),
            });
        out
    }

    /// The manifest accumulated so far (stages recorded by
    /// [`Runner::timed_map`]).
    #[must_use]
    pub fn manifest(&self) -> RunManifest {
        RunManifest {
            threads: self.threads,
            stages: self.timings.lock().expect("timings poisoned").clone(),
        }
    }
}

/// Execute the analytic half of `exp`: one [`SweepRow`] per bandwidth,
/// bandwidths in parallel. Identical to the serial loop for every thread
/// count.
#[must_use]
pub fn run_sweep(exp: &Experiment, runner: &Runner) -> Vec<SweepRow> {
    runner.timed_map(&exp.name, &exp.bandwidths, |&b| {
        let cfg = SystemConfig::paper_defaults(Mbps(b));
        SweepRow {
            bandwidth: Mbps(b),
            points: exp
                .schemes
                .iter()
                .filter_map(|&id| evaluate(id, &cfg))
                .collect(),
        }
    })
}

/// Execute the empirical half of `exp`: a simulated arrival-grid
/// cross-check per feasible (scheme, bandwidth) cell, cells in parallel.
/// `exp.seed` scrambles the arrival phase (0 = the legacy grid).
#[must_use]
pub fn run_crosscheck(
    exp: &Experiment,
    horizon: Minutes,
    samples: usize,
    runner: &Runner,
) -> Vec<CrossCheck> {
    let grid = exp.grid();
    let stage = format!("{}:sim", exp.name);
    runner
        .timed_map(&stage, &grid, |&(id, b)| {
            crosscheck_seeded(id, Mbps(b), horizon, samples, exp.seed)
        })
        .into_iter()
        .flatten()
        .collect()
}

/// Analytic sweep plus empirical cross-check, as one serializable report —
/// the `sbcast sweep --json` payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// The experiment that produced this report.
    pub experiment: Experiment,
    /// Analytic rows, one per bandwidth.
    pub rows: Vec<SweepRow>,
    /// Empirical checks, bandwidth-major, infeasible cells absent. Empty
    /// when the run was analytic-only.
    pub checks: Vec<CrossCheck>,
}

/// Run `exp` end to end: analytic rows always, plus `samples`-arrival
/// cross-checks when `samples > 0`.
#[must_use]
pub fn run_experiment(
    exp: &Experiment,
    horizon: Minutes,
    samples: usize,
    runner: &Runner,
) -> SweepReport {
    let rows = run_sweep(exp, runner);
    let checks = if samples > 0 {
        run_crosscheck(exp, horizon, samples, runner)
    } else {
        Vec::new()
    };
    SweepReport {
        experiment: exp.clone(),
        rows,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineup::{extended_lineup, paper_lineup};
    use crate::sweep::sweep_bandwidth_with;

    #[test]
    fn map_matches_serial_for_any_thread_count() {
        let items: Vec<u64> = (0..137).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let runner = Runner::new(threads);
            let par = runner.map(&items, |&x| x * x + 1);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        assert!(Runner::new(0).threads() >= 1);
        assert_eq!(Runner::serial().threads(), 1);
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let exp = Experiment::over_range("t", paper_lineup(), 100.0, 600.0, 50.0);
        let serial = sweep_bandwidth_with(&exp.schemes, 100.0, 600.0, 50.0, &Runner::serial());
        let par = run_sweep(&exp, &Runner::new(8));
        assert_eq!(par, serial);
        let a = serde_json::to_string(&par).unwrap();
        let b = serde_json::to_string(&serial).unwrap();
        assert_eq!(a, b, "serialized bytes must match");
    }

    #[test]
    fn bandwidth_ranges_are_finite_and_bounded() {
        assert_eq!(
            bandwidth_range(100.0, 600.0, 20.0).map(|b| b.len()),
            Some(26)
        );
        assert_eq!(bandwidth_range(300.0, 300.0, 20.0), Some(vec![300.0]));
        for (from, to, step) in [
            (100.0, f64::INFINITY, 20.0),
            (f64::NAN, 600.0, 20.0),
            (100.0, 600.0, f64::INFINITY),
            (100.0, 600.0, 0.0),
            (600.0, 100.0, 20.0),
            // `b += 1` does not move 1e17: only the point cap stops it.
            (1e17, 2e17, 1.0),
            (1e17, 1e17, 1.0),
            (0.0, 10_000.0, 1.0),
        ] {
            assert_eq!(bandwidth_range(from, to, step), None, "{from} {to} {step}");
        }
        assert_eq!(
            bandwidth_range(1.0, 10_000.0, 1.0).map(|b| b.len()),
            Some(10_000)
        );
    }

    #[test]
    fn crosscheck_grid_order_is_bandwidth_major() {
        let exp = Experiment::new("t", extended_lineup(), vec![300.0, 320.0]);
        let g = exp.grid();
        assert_eq!(g.len(), 20);
        assert_eq!(g[0], (exp.schemes[0], 300.0));
        assert_eq!(g[10], (exp.schemes[0], 320.0));
    }

    #[test]
    fn manifest_records_stages() {
        let runner = Runner::new(2);
        let _ = runner.timed_map("alpha", &[1, 2, 3], |&x: &i32| x + 1);
        let _ = runner.timed_map("beta", &[1], |&x: &i32| x);
        let m = runner.manifest();
        assert_eq!(m.threads, 2);
        assert_eq!(m.stages.len(), 2);
        assert_eq!(m.stages[0].stage, "alpha");
        assert_eq!(m.stages[0].items, 3);
        assert_eq!(m.stages[0].threads, 2);
        assert_eq!(m.stages[1].threads, 1, "one item uses one worker");
        assert!(m.summary().contains("alpha: 3 items"));
    }

    #[test]
    fn empty_input_is_fine() {
        let runner = Runner::new(4);
        let out: Vec<u8> = runner.map(&[] as &[u8], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn a_panicking_cell_names_the_stage_and_grid_index() {
        // Regression: the old pool surfaced worker deaths as an anonymous
        // "runner worker panicked", losing which cell of which experiment
        // blew up. The message must now carry both.
        for threads in [1, 4] {
            let runner = Runner::new(threads);
            let items: Vec<u32> = (0..32).collect();
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                runner.timed_map("bw-sweep", &items, |&x| {
                    assert!(x != 13, "cell 13 exploded");
                    x
                })
            }))
            .expect_err("the panic must propagate");
            let msg = err
                .downcast_ref::<String>()
                .expect("panic payload is a string");
            assert!(msg.contains("bw-sweep"), "no stage label in: {msg}");
            assert!(msg.contains("item 13/32"), "no grid index in: {msg}");
            assert!(msg.contains("cell 13 exploded"), "payload lost in: {msg}");
        }
    }
}
