//! The scheme-zoo Pareto frontier as a benchmark: every scheme (SB
//! expanded over its candidate widths, the PB/PPB/FB/HB/CTIFB/AQHB
//! baselines) across the paper's bandwidth × catalog grid, each point
//! marked for dominance in latency × client-I/O × buffer both from the
//! closed forms and from simulated sessions — dispatched through the
//! [`sb_analysis::study`] registry. Emits `BENCH_frontier.json` unless
//! `--json` names another path.
//!
//! `--shards <n>` picks the per-cell shard count and `--threads <n>` the
//! worker pool — the JSON artifact and stdout are byte-identical for
//! every combination (the determinism gate `scripts/verify.sh` diffs
//! them). `--sessions <n>` overrides the simulated arrivals per cell. Wall-clock goes to stderr.

use std::path::PathBuf;
use std::time::Instant;

use sb_analysis::study::{StudyCtx, StudyOpts};

fn main() {
    let study = sb_analysis::study::find("frontier").expect("frontier study registered");
    let mut args = sb_bench::Args::parse();
    if args.json.is_none() {
        args.json = Some(PathBuf::from(study.artifact().expect("artifact study")));
    }
    let runner = args.runner();
    let mut opts = StudyOpts::default();
    if let Some(sessions) = args.sessions {
        opts.set("sessions", sessions.to_string());
    }
    let ctx = StudyCtx {
        opts: &opts,
        shards: args.shards,
        seed: None,
        runner: &runner,
    };
    let t0 = Instant::now();
    let out = study.run(&ctx).expect("valid default config");
    let wall = t0.elapsed().as_secs_f64();

    print!("{}", out.rendered);
    // Wall-clock is machine- and thread-dependent: stderr only, so
    // stdout and the JSON artifact stay byte-identical across
    // `--shards` and `--threads`.
    eprintln!(
        "wall: {:.3}s at --shards {} --threads {}",
        wall,
        args.shards,
        runner.threads(),
    );
    args.maybe_write_json_str(&out.report_json);
    args.finish(&runner);
}
