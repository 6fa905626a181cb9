//! Shared plumbing for the figure-regeneration binaries.
//!
//! Each paper artifact has a binary (`fig5` … `fig8`, `fig1_4`, `table1`,
//! `table2`, `ablation`, `crosscheck`, `hybrid_study`, `landscape`,
//! `pareto`) that prints the regenerated data as text and, with `--json
//! <path>`, also writes the structured data for plotting. All of them
//! execute through [`sb_analysis::runner`]: `--threads N` picks the
//! worker-pool size (output is bit-identical for every N), and
//! `--manifest <path>` writes the run's [`sb_analysis::RunManifest`] —
//! per-stage wall-clock timings — as JSON. The Criterion benches live in
//! `benches/`.
//!
//! The study benchmarks (`throughput_bench`, `scale_bench`,
//! `scenario_bench`, `recovery_bench`, `frontier_bench`,
//! `distribution_bench`) dispatch through [`sb_analysis::study::find`] —
//! the same registry the `sbcast` subcommands run on — and only add the
//! wall-clock instrumentation: timed passes on stderr plus the
//! nondeterministic [`WallclockReport`] artifact.

#![forbid(unsafe_code)]

use std::path::PathBuf;

use sb_analysis::runner::Runner;
use serde::{Deserialize, Serialize};

/// Parsed command line shared by every figure binary.
#[derive(Debug, Default)]
pub struct Args {
    /// `--json <path>`: where to additionally write JSON output.
    pub json: Option<PathBuf>,
    /// `--threads <n>`: runner worker count (0 = one per core, default 1).
    pub threads: usize,
    /// `--manifest <path>`: where to write the JSON run manifest.
    pub manifest: Option<PathBuf>,
    /// `--progress`: live per-stage counters on stderr.
    pub progress: bool,
    /// `--shards <n>`: shard count for scale-out binaries (default 1).
    /// Results are byte-identical for every value; only wall-clock and
    /// per-shard footprints (stderr) change.
    pub shards: usize,
    /// `--sessions <n>`: session-count override for binaries that size
    /// their own workload (`scale_bench`); `None` keeps the binary's
    /// default.
    pub sessions: Option<usize>,
}

impl Args {
    /// Parse `std::env::args()`. Unknown flags abort with a usage message.
    #[must_use]
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (testable).
    ///
    /// # Panics
    /// Panics on unknown arguments or a missing flag value.
    #[must_use]
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = Args {
            threads: 1,
            shards: 1,
            ..Args::default()
        };
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--json" => {
                    let path = it.next().expect("--json requires a path");
                    out.json = Some(PathBuf::from(path));
                }
                "--threads" => {
                    let n = it.next().expect("--threads requires a count");
                    out.threads = n.parse().expect("--threads: not an integer");
                }
                "--manifest" => {
                    let path = it.next().expect("--manifest requires a path");
                    out.manifest = Some(PathBuf::from(path));
                }
                "--shards" => {
                    let n = it.next().expect("--shards requires a count");
                    out.shards = n.parse().expect("--shards: not an integer");
                    assert!(out.shards >= 1, "--shards must be at least 1");
                }
                "--sessions" => {
                    let n = it.next().expect("--sessions requires a count");
                    out.sessions = Some(n.parse().expect("--sessions: not an integer"));
                }
                "--progress" => out.progress = true,
                other => panic!(
                    "unknown argument `{other}` (supported: --json <path> --threads <n> \
                     --shards <n> --sessions <n> --manifest <path> --progress)"
                ),
            }
        }
        out
    }

    /// The [`Runner`] this invocation asked for.
    #[must_use]
    pub fn runner(&self) -> Runner {
        Runner::new(self.threads).with_progress(self.progress)
    }

    /// Write `value` as pretty JSON if `--json` was given.
    pub fn maybe_write_json<T: serde::Serialize>(&self, value: &T) {
        if let Some(path) = &self.json {
            let json = serde_json::to_string_pretty(value).expect("serializable artifact");
            std::fs::write(path, json).expect("writable --json path");
            eprintln!("wrote {}", path.display());
        }
    }

    /// Write pre-serialized pretty JSON — a [`sb_analysis::StudyOutput`]'s
    /// `report_json` — if `--json` was given. Byte-for-byte what
    /// [`Args::maybe_write_json`] would produce from the report value.
    pub fn maybe_write_json_str(&self, json: &str) {
        if let Some(path) = &self.json {
            std::fs::write(path, json).expect("writable --json path");
            eprintln!("wrote {}", path.display());
        }
    }

    /// Finish the run: print the runner's per-stage timings to stderr and
    /// write the manifest if `--manifest` was given. Timings never touch
    /// stdout, which stays byte-identical across thread counts.
    pub fn finish(&self, runner: &Runner) {
        let manifest = runner.manifest();
        eprint!("{}", manifest.summary());
        if let Some(path) = &self.manifest {
            let json = serde_json::to_string_pretty(&manifest).expect("serializable manifest");
            std::fs::write(path, json).expect("writable --manifest path");
            eprintln!("wrote {}", path.display());
        }
    }
}

/// One timed pass of a wall-clock benchmark.
///
/// Everything here is *nondeterministic by design* — wall seconds vary
/// run to run and machine to machine — which is why these records go to
/// [`WallclockReport`]'s own artifact (`BENCH_wallclock.json`) and never
/// into the deterministic study JSON that `scripts/verify.sh` diffs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WallclockRun {
    /// Sessions streamed through the simulator in this pass.
    pub sessions: usize,
    /// Engine events fired in this pass.
    pub events: u64,
    /// Wall-clock seconds the pass took.
    pub wall_secs: f64,
    /// `sessions / wall_secs`.
    pub sessions_per_sec: f64,
    /// `events / wall_secs`.
    pub events_per_sec: f64,
}

impl WallclockRun {
    /// Build a run record from raw counts and a measured duration.
    #[must_use]
    pub fn new(sessions: usize, events: u64, wall_secs: f64) -> Self {
        let secs = wall_secs.max(1e-9);
        Self {
            sessions,
            events,
            wall_secs,
            sessions_per_sec: sessions as f64 / secs,
            events_per_sec: events as f64 / secs,
        }
    }
}

/// The wall-clock throughput of one benchmark binary's timed passes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WallclockReport {
    /// Which binary produced this (`throughput_bench`, `scale_bench`).
    pub benchmark: String,
    /// One record per timed pass, in execution order.
    pub runs: Vec<WallclockRun>,
}

impl WallclockReport {
    /// Assemble a report.
    #[must_use]
    pub fn new(benchmark: &str, runs: Vec<WallclockRun>) -> Self {
        Self {
            benchmark: benchmark.to_string(),
            runs,
        }
    }

    /// Write the report next to `sibling` (or into the working directory
    /// when the run wrote no deterministic artifact) as
    /// `BENCH_wallclock.json`.
    ///
    /// # Panics
    /// Panics when the path is not writable — wall-clock evidence is a
    /// deliverable here, not a best-effort extra.
    pub fn write_beside(&self, sibling: Option<&std::path::Path>) {
        let dir = sibling
            .and_then(std::path::Path::parent)
            .unwrap_or_else(|| std::path::Path::new("."));
        let path = dir.join("BENCH_wallclock.json");
        let json = serde_json::to_string_pretty(self).expect("serializable wallclock report");
        std::fs::write(&path, json).expect("writable BENCH_wallclock.json path");
        eprintln!(
            "wrote {} (nondeterministic; excluded from diffs)",
            path.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_json_flag() {
        let a = Args::parse_from(["--json".to_string(), "/tmp/x.json".to_string()]);
        assert_eq!(a.json, Some(PathBuf::from("/tmp/x.json")));
        assert_eq!(a.threads, 1);
        let none = Args::parse_from(std::iter::empty());
        assert!(none.json.is_none());
        assert!(none.manifest.is_none());
    }

    #[test]
    fn parses_runner_flags() {
        let a = Args::parse_from(
            ["--threads", "8", "--manifest", "/tmp/m.json", "--progress"].map(str::to_string),
        );
        assert_eq!(a.threads, 8);
        assert_eq!(a.manifest, Some(PathBuf::from("/tmp/m.json")));
        assert!(a.progress);
        assert_eq!(a.runner().threads(), 8);
    }

    #[test]
    fn zero_threads_means_all_cores() {
        let a = Args::parse_from(["--threads", "0"].map(str::to_string));
        assert!(a.runner().threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn rejects_unknown_flags() {
        let _ = Args::parse_from(["--bogus".to_string()]);
    }

    #[test]
    fn parses_shards_and_defaults_to_one() {
        let a = Args::parse_from(["--shards", "4"].map(str::to_string));
        assert_eq!(a.shards, 4);
        assert_eq!(Args::parse_from(std::iter::empty()).shards, 1);
    }

    #[test]
    #[should_panic(expected = "--shards must be at least 1")]
    fn rejects_zero_shards() {
        let _ = Args::parse_from(["--shards", "0"].map(str::to_string));
    }

    #[test]
    fn parses_sessions() {
        let a = Args::parse_from(["--sessions", "500000"].map(str::to_string));
        assert_eq!(a.sessions, Some(500_000));
        assert_eq!(Args::parse_from(std::iter::empty()).sessions, None);
    }

    #[test]
    fn wallclock_run_derives_rates() {
        let run = WallclockRun::new(100, 1000, 2.0);
        assert!((run.sessions_per_sec - 50.0).abs() < 1e-12);
        assert!((run.events_per_sec - 500.0).abs() < 1e-12);
    }

    #[test]
    fn wallclock_report_round_trips_through_json() {
        let report = WallclockReport::new("scale_bench", vec![WallclockRun::new(42, 420, 0.5)]);
        let json = serde_json::to_string(&report).unwrap();
        for field in ["sessions", "events", "wall_secs", "sessions_per_sec"] {
            assert!(json.contains(field), "missing `{field}` in {json}");
        }
        let back: WallclockReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
