//! Streaming-core throughput: per-scheme engine/agenda accounting plus
//! the cancel-heavy churn stress, dispatched through the
//! [`sb_analysis::study`] registry. Emits `BENCH_throughput.json` unless
//! `--json` names another path.
//!
//! The JSON is fully deterministic (simulated-time rates only), so runs
//! with different `--threads` counts diff clean. Wall-clock rates are
//! machine truth, not simulation truth: they go to stderr and to the
//! sibling `BENCH_wallclock.json`, which the byte-identity smokes in
//! `scripts/verify.sh` explicitly exclude.

use std::path::PathBuf;
use std::time::Instant;

use sb_analysis::study::{StudyCtx, StudyOpts};
use sb_bench::{WallclockReport, WallclockRun};

/// The deepest agenda any study cell reached, read back from the
/// serialized report (the registry hands the artifact over as JSON).
fn peak_agenda(report_json: &str) -> u64 {
    let v: serde_json::Value = serde_json::from_str(report_json).expect("valid report JSON");
    let cells = v
        .as_object()
        .map(|o| serde::field(o, "cells"))
        .and_then(serde_json::Value::as_array)
        .unwrap_or(&[]);
    cells
        .iter()
        .filter_map(|c| {
            c.as_object()
                .map(|o| serde::field(o, "engine"))
                .and_then(serde_json::Value::as_object)
                .map(|e| serde::field(e, "peak_agenda"))
                .and_then(serde_json::Value::as_u64)
        })
        .max()
        .unwrap_or(0)
}

fn main() {
    let study = sb_analysis::study::find("throughput").expect("throughput study registered");
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
        .expect("throughput study is instrumented");
    println!(
        "metrics: {} engine events, {} sessions",
        metrics.counter_total("engine_events_total"),
        metrics.counter_total("sim_sessions_total"),
    );
    // Wall-clock rates are machine- and thread-dependent: stderr only,
    // so stdout and the JSON artifact stay byte-identical across
    // `--threads` counts. The study's event denominator includes the
    // churn half (fired + cancelled).
    eprintln!(
        "wall: {:.3}s, {:.0} sessions/sec, {:.0} events/sec, peak agenda {}",
        wall,
        out.sessions as f64 / wall,
        out.events as f64 / wall,
        peak_agenda(&out.report_json),
    );
    args.maybe_write_json_str(&out.report_json);

    let wallclock = WallclockReport::new(
        "throughput_bench",
        vec![WallclockRun::new(out.sessions, out.events, wall)],
    );
    wallclock.write_beside(args.json.as_deref());
    args.finish(&runner);
}
