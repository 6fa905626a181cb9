//! `sbperf`: the end-to-end and per-layer benchmark of the Skyscraper
//! Broadcasting simulator. See `README.md` beside this crate.
//!
//! ```text
//! sbperf --workload W --seed N --seconds S --trace 0|1 [--scale full|smoke] [--out DIR]
//! sbperf all [--seed 17] [--seconds 20] [--trace 0|1] [--scale full|smoke] [--out DIR]
//! sbperf compare PARENT.json CHANGE.json
//! sbperf pairs --parent BIN --change BIN --workload W [--pairs 10] [--seed 29]
//!              [--seconds 20] [--scale full|smoke] [--out DIR]
//! ```

mod compare;
mod layers;
mod metrics;
mod run;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use metrics::{AllResults, Machine, WorkloadResult};
use run::RunArgs;
use workload::{Scale, Workload};

/// The tuning seed; 29 is held out for claims.
const DEFAULT_SEED: u64 = 17;
/// Seconds of timed passes per workload run, as `BENCHMARK.json` sets.
const DEFAULT_SECONDS: f64 = 20.0;

/// Flags shared by every subcommand, with their defaults.
struct Flags {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    scale: Scale,
    out: PathBuf,
    parent: Option<PathBuf>,
    change: Option<PathBuf>,
    pairs: usize,
    files: Vec<PathBuf>,
}

fn parse_flags(args: &[String], seed: u64) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed,
        seconds: DEFAULT_SECONDS,
        trace: None,
        scale: Scale::Full,
        out: PathBuf::from("sbperf/out"),
        parent: None,
        change: None,
        pairs: 10,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !flag.starts_with("--") {
            f.files.push(PathBuf::from(flag));
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                f.workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| bad(&Workload::ALL.map(Workload::name).join(", ")))?,
                );
            }
            "--seed" => f.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                f.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?;
            }
            "--trace" => {
                f.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            "--scale" => f.scale = Scale::parse(value).ok_or_else(|| bad("full or smoke"))?,
            "--out" => f.out = PathBuf::from(value),
            "--parent" => f.parent = Some(PathBuf::from(value)),
            "--change" => f.change = Some(PathBuf::from(value)),
            "--pairs" => {
                f.pairs = value
                    .parse()
                    .ok()
                    .filter(|&p| p > 0)
                    .ok_or_else(|| bad("a positive integer"))?;
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(f)
}

/// Run every workload, one child process each so that peak RSS is per
/// workload, and write `<out>/<seed>/all.json`.
fn all(f: &Flags) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let trace = f.trace.unwrap_or(true);
    let mut workloads: Vec<WorkloadResult> = Vec::new();
    for w in Workload::ALL {
        let out = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &f.seed.to_string()])
            .args(["--seconds", &f.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .args(["--scale", f.scale.name()])
            .arg("--out")
            .arg(&f.out)
            .output()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        // Every line but the last, which is the machine-read result.
        for line in &lines[..lines.len().saturating_sub(1)] {
            println!("{line}");
        }
        if !out.status.success() {
            return Err(format!("{} exited with {}", w.name(), out.status));
        }
        let path = f
            .out
            .join(f.seed.to_string())
            .join(format!("{}.json", w.name()));
        workloads.push(run::read(&path)?);
    }
    let correct = workloads.iter().all(|w| w.correct && w.failed == 0);
    let path = f.out.join(f.seed.to_string()).join("all.json");
    run::write(
        &path,
        &AllResults {
            seed: f.seed,
            machine: Machine::current(),
            workloads,
        },
    )?;
    println!("wrote {}", path.display());
    Ok(correct)
}

fn main_inner() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some(c @ ("all" | "compare" | "pairs")) => (c, &args[1..]),
        _ => ("run", &args[..]),
    };
    let held_out = if cmd == "pairs" { 29 } else { DEFAULT_SEED };
    let f = parse_flags(rest, held_out)?;
    if !run::overflow_checks_live() {
        return Err("this build does not trap integer overflow; build with the \
                    release profile in sbperf/Cargo.toml"
            .into());
    }
    match cmd {
        "all" => all(&f),
        "compare" => match f.files.as_slice() {
            [parent, change] => compare::compare(parent, change).map(|regressed| !regressed),
            _ => Err("compare takes two result files: PARENT.json CHANGE.json".into()),
        },
        "pairs" => {
            let (Some(parent), Some(change), Some(workload)) =
                (f.parent.clone(), f.change.clone(), f.workload)
            else {
                return Err("pairs needs --parent BIN --change BIN --workload W".into());
            };
            compare::pairs(&compare::PairsArgs {
                parent,
                change,
                workload,
                pairs: f.pairs,
                seed: f.seed,
                seconds: f.seconds,
                scale: f.scale,
                out: f.out.join("pairs"),
            })
            .map(|()| true)
        }
        _ => {
            let workload = f.workload.ok_or("--workload is required")?;
            run::run(&RunArgs {
                workload,
                seed: f.seed,
                seconds: f.seconds,
                trace: f.trace.unwrap_or(false),
                scale: f.scale,
                out: f.out,
            })
            .map(|()| true)
        }
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("sbperf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn the_benchmark_flags_parse() {
        let f = parse_flags(
            &strings(&[
                "--workload",
                "sb_grid",
                "--seed",
                "4",
                "--seconds",
                "10",
                "--trace",
                "1",
            ]),
            DEFAULT_SEED,
        )
        .unwrap();
        assert_eq!(f.workload, Some(Workload::SbGrid));
        assert_eq!((f.seed, f.seconds, f.trace), (4, 10.0, Some(true)));
        assert_eq!(f.scale, Scale::Full);
    }

    #[test]
    fn all_runs_as_long_as_benchmark_json_says() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the crate");
        let v: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let seconds = serde::field(v.as_object().unwrap(), "run_seconds").as_f64();
        assert_eq!(seconds, Some(DEFAULT_SECONDS));
    }

    #[test]
    fn bad_flags_are_refused() {
        for bad in [
            &["--trace", "2"][..],
            &["--workload", "nope"],
            &["--seconds", "-1"],
            &["--bogus", "1"],
            &["--seed"],
        ] {
            assert!(parse_flags(&strings(bad), DEFAULT_SEED).is_err(), "{bad:?}");
        }
    }
}
