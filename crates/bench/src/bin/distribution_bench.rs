//! The distributed tier as a benchmark: placement policies × peer
//! assist over the full urban/rural/remote preset grid at paper scale,
//! every configuration priced against the Viennot source-once bound —
//! dispatched through the [`sb_analysis::study`] registry. Emits
//! `BENCH_distribution.json` unless `--json` names another path.
//!
//! `--shards <n>` picks the flagship pass's shard count and
//! `--threads <n>` the worker pool — the JSON artifact and stdout are
//! byte-identical for every combination (the determinism gate
//! `scripts/verify.sh` diffs them). Wall-clock
//! rates go to stderr and to the sibling nondeterministic
//! `BENCH_wallclock.json`, which the byte-identity smokes exclude.

use std::path::PathBuf;
use std::time::Instant;

use sb_analysis::study::{StudyCtx, StudyOpts};
use sb_bench::{WallclockReport, WallclockRun};

fn main() {
    let study = sb_analysis::study::find("distribution").expect("distribution study registered");
    let mut args = sb_bench::Args::parse();
    if args.json.is_none() {
        args.json = Some(PathBuf::from(study.artifact().expect("artifact study")));
    }
    let runner = args.runner();
    let opts = StudyOpts::default();
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
    let metrics = out
        .metrics
        .as_ref()
        .expect("distribution study is instrumented");
    println!(
        "metrics: {} engine events, {} sessions",
        metrics.counter_total("engine_events_total"),
        metrics.counter_total("sim_sessions_total"),
    );
    // Wall-clock rates are machine- and thread-dependent: stderr only,
    // so stdout and the JSON artifact stay byte-identical across
    // `--shards` and `--threads`.
    eprintln!(
        "wall: {:.3}s at --shards {} --threads {}, {:.0} sessions/sec",
        wall,
        args.shards,
        runner.threads(),
        out.sessions as f64 / wall,
    );
    WallclockReport::new(
        "distribution_bench",
        vec![WallclockRun::new(out.sessions, out.events, wall)],
    )
    .write_beside(args.json.as_deref());
    args.maybe_write_json_str(&out.report_json);
    args.finish(&runner);
}
