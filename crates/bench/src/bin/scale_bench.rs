//! Sharded scale-out: per-shard agenda footprint and simulated-time
//! rates at `S ∈ {1, 2, 4, 8}`, a million-session grid per cell (raise
//! it with `--sessions`), dispatched through the [`sb_analysis::study`]
//! registry. Emits `BENCH_scale.json` unless `--json` names another
//! path.
//!
//! `--shards <n>` picks the flagship pass's shard count and
//! `--threads <n>` the worker pool — the JSON artifact and stdout are
//! byte-identical for every combination (the determinism gate
//! `scripts/verify.sh` diffs them). Wall-clock
//! sessions/sec go to stderr and to the sibling nondeterministic
//! `BENCH_wallclock.json`, which the byte-identity smokes exclude.

use std::path::PathBuf;
use std::time::Instant;

use sb_analysis::study::{StudyCtx, StudyOpts};
use sb_bench::{WallclockReport, WallclockRun};

fn main() {
    let study = sb_analysis::study::find("scale").expect("scale study registered");
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
    let metrics = out.metrics.as_ref().expect("scale study is instrumented");
    println!(
        "metrics: {} engine events, {} sessions",
        metrics.counter_total("engine_events_total"),
        metrics.counter_total("sim_sessions_total"),
    );
    // Wall-clock rates are machine- and thread-dependent: stderr only,
    // so stdout and the JSON artifact stay byte-identical across
    // `--shards` and `--threads`. The study's rate
    // denominators already count every grid cell plus the flagship pass.
    eprintln!(
        "wall: {:.3}s at --shards {} --threads {}, {:.0} sessions/sec over the grid",
        wall,
        args.shards,
        runner.threads(),
        out.sessions as f64 / wall,
    );
    WallclockReport::new(
        "scale_bench",
        vec![WallclockRun::new(out.sessions, out.events, wall)],
    )
    .write_beside(args.json.as_deref());
    args.maybe_write_json_str(&out.report_json);
    args.finish(&runner);
}
