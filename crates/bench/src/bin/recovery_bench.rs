//! Crash-recovery cadence trade: checkpoints written vs sessions
//! replayed under one seeded chaos script, with the byte-identity
//! invariant re-verified in every cell — dispatched through the
//! [`sb_analysis::study`] registry. Emits `BENCH_recovery.json` unless
//! `--json` names another path.
//!
//! `--threads <n>` picks the worker pool and `--shards <n>` the
//! supervised shard count — the JSON artifact and stdout are
//! byte-identical for every combination (the determinism gate
//! `scripts/verify.sh` diffs them). `--sessions <n>` resizes the
//! arrival grid. Wall-clock goes to stderr and to the sibling
//! nondeterministic `BENCH_wallclock.json`.

use std::path::PathBuf;
use std::time::Instant;

use sb_analysis::study::{StudyCtx, StudyOpts};
use sb_bench::{WallclockReport, WallclockRun};

fn main() {
    let study = sb_analysis::study::find("recovery").expect("recovery study registered");
    let mut args = sb_bench::Args::parse();
    if args.json.is_none() {
        args.json = Some(PathBuf::from(study.artifact().expect("artifact study")));
    }
    let runner = args.runner();
    let mut opts = StudyOpts::default();
    if let Some(sessions) = args.sessions {
        assert!(sessions >= 1, "--sessions must be at least 1");
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
    // One baseline pass plus one supervised pass per cadence cell, all
    // over the same grid (replays re-run sessions on top of that, but
    // they are part of the measurement, not the denominator).
    eprintln!(
        "wall: {:.3}s at --threads {}, {:.0} sessions/sec over the grid",
        wall,
        runner.threads(),
        out.sessions as f64 / wall,
    );
    WallclockReport::new(
        "recovery_bench",
        vec![WallclockRun::new(out.sessions, out.events, wall)],
    )
    .write_beside(args.json.as_deref());
    args.maybe_write_json_str(&out.report_json);
    args.finish(&runner);
}
