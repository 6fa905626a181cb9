//! End-to-end smoke tests for the `sbcast` binary: bad input must exit
//! nonzero with a one-line error on stderr, never a panic backtrace.

use std::process::Command;

fn sbcast(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sbcast"))
        .args(args)
        .output()
        .expect("spawn sbcast")
}

fn assert_clean_failure(out: &std::process::Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "expected nonzero exit");
    assert!(
        stderr.contains("error:") || stderr.contains("usage:"),
        "stderr should explain the failure, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "bad input must not panic: {stderr}"
    );
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = sbcast(&[]);
    assert_clean_failure(&out);
}

#[test]
fn unknown_command_fails_cleanly() {
    // `throughput` was a study once; its name is not kept as an alias.
    for cmd in ["frobnicate", "throughput"] {
        let out = sbcast(&[cmd]);
        assert_clean_failure(&out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("error: unknown command `{cmd}`")),
            "got: {stderr}"
        );
    }
}

#[test]
fn bad_flag_value_fails_cleanly() {
    let out = sbcast(&["plan", "--bandwidth", "not-a-number"]);
    assert_clean_failure(&out);
}

#[test]
fn dangling_flag_fails_cleanly() {
    let out = sbcast(&["metrics", "--bandwidth"]);
    assert_clean_failure(&out);
}

#[test]
fn bad_resilience_config_fails_cleanly() {
    // Loss rate above 1: rejected by up-front validation, not a panic.
    let out = sbcast(&["resilience", "--loss-rates", "1.5", "--samples", "1"]);
    assert_clean_failure(&out);
    // An outage naming a slot the control half does not have.
    let out = sbcast(&["resilience", "--outage-channel", "99", "--samples", "1"]);
    assert_clean_failure(&out);
}

#[test]
fn the_retired_agenda_flag_is_rejected() {
    let out = sbcast(&[
        "scale",
        "--sessions",
        "300",
        "--horizon",
        "60",
        "--agenda",
        "heap",
    ]);
    assert_clean_failure(&out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: unknown flag --agenda for scale"),
        "got: {stderr}"
    );
}

#[test]
fn a_misspelt_or_unused_flag_is_rejected() {
    // A typo, and a seed handed to a study whose workload takes none.
    for (args, msg) in [
        (
            &["plan", "--bandwith", "300"][..],
            "unknown flag --bandwith for plan",
        ),
        (
            &["control", "--seed", "5"][..],
            "unknown flag --seed for control",
        ),
    ] {
        let out = sbcast(args);
        assert_clean_failure(&out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("error: {msg}")), "got: {stderr}");
    }
}

#[test]
fn plan_succeeds_on_defaults() {
    let out = sbcast(&["plan"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("channels"));
}

#[test]
fn every_study_subcommand_rejects_zero_threads_identically() {
    for study in sb_analysis::study::registry() {
        let cmd = study.name();
        let out = sbcast(&[cmd, "--threads", "0"]);
        assert_clean_failure(&out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error: --threads must be at least 1 (got 0)"),
            "`{cmd}` must reject --threads 0 with the shared message, got: {stderr}"
        );
    }
}

#[test]
fn zero_shards_and_unsharded_commands_reject_the_shards_flag() {
    for study in sb_analysis::study::registry() {
        let cmd = study.name();
        let out = sbcast(&[cmd, "--shards", "0"]);
        assert_clean_failure(&out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error: --shards must be at least 1 (got 0)"),
            "`{cmd}` must reject --shards 0, got: {stderr}"
        );
        if study.sharded() {
            continue;
        }
        let out = sbcast(&[cmd, "--shards", "2"]);
        assert_clean_failure(&out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(
                "--shards applies only to `scale`, `scenario`, `recovery`, `frontier` and \
                 `distribution`"
            ),
            "`{cmd}` must refuse --shards through the shared gate, got: {stderr}"
        );
    }
}

#[test]
fn scenario_rejects_bad_preset_and_profile_cleanly() {
    let out = sbcast(&["scenario", "--preset", "atlantis"]);
    assert_clean_failure(&out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("--preset"));
    let out = sbcast(&["scenario", "--profile", "huge"]);
    assert_clean_failure(&out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("--profile"));
}

#[test]
fn scenario_is_shard_and_thread_invariant() {
    // A deliberately small stream (the binary under test is a debug
    // build): one preset, one scheme, 120 simulated minutes. The full
    // smoke profile runs in release under scripts/verify.sh.
    let dir = std::env::temp_dir().join(format!("sbcast-scenario-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut outs = Vec::new();
    for (shards, threads) in [("1", "1"), ("2", "4"), ("4", "2")] {
        let json = dir.join(format!("scenario-{shards}-{threads}.json"));
        let out = sbcast(&[
            "scenario",
            "--profile",
            "smoke",
            "--preset",
            "urban",
            "--scheme",
            "SB:W=52",
            "--rate",
            "1.5",
            "--horizon",
            "120",
            "--flash-at",
            "40",
            "--outage-start",
            "45",
            "--outage-duration",
            "30",
            "--shards",
            shards,
            "--threads",
            threads,
            "--json",
            json.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "scenario must run at {shards}/{threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        outs.push((out.stdout, std::fs::read(&json).unwrap()));
    }
    for (stdout, json) in &outs[1..] {
        assert_eq!(
            &outs[0].0, stdout,
            "stdout must not depend on --shards/--threads"
        );
        assert_eq!(
            &outs[0].1, json,
            "JSON must not depend on --shards/--threads"
        );
    }
    let json = String::from_utf8_lossy(&outs[0].1);
    assert!(json.contains("demand_share"));
    assert!(json.contains("dynamic_report"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scale_is_shard_and_thread_count_invariant() {
    let dir = std::env::temp_dir().join(format!("sbcast-scale-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut outs = Vec::new();
    for (shards, threads) in [("1", "1"), ("2", "4"), ("4", "2")] {
        let json = dir.join(format!("scale-{shards}-{threads}.json"));
        let out = sbcast(&[
            "scale",
            "--sessions",
            "2000",
            "--horizon",
            "200",
            "--shards",
            shards,
            "--threads",
            threads,
            "--json",
            json.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "scale must run at {shards}/{threads}");
        outs.push((out.stdout, std::fs::read(&json).unwrap()));
    }
    for (stdout, json) in &outs[1..] {
        assert_eq!(
            &outs[0].0, stdout,
            "stdout must not depend on --shards/--threads"
        );
        assert_eq!(
            &outs[0].1, json,
            "JSON must not depend on --shards/--threads"
        );
    }
    let json = String::from_utf8_lossy(&outs[0].1);
    assert!(json.contains("shard_peak_agenda"));
    assert!(json.contains("sessions_per_sim_second"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_rejects_bad_configs_with_typed_errors() {
    // A zero checkpoint cadence: caught by Supervisor::new up front.
    let out = sbcast(&["recovery", "--cadence", "0"]);
    assert_clean_failure(&out);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("checkpoint cadence is 0 sessions"),
        "got: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // A chaos script aimed at a shard the run does not have.
    let out = sbcast(&["recovery", "--shards", "2", "--chaos", "kill:5@ckpt:1"]);
    assert_clean_failure(&out);
    assert!(String::from_utf8_lossy(&out.stderr)
        .contains("chaos script targets shard 5, but the run has only 2 shard(s)"));
    // A malformed chaos spec item, named in the error.
    for (spec, what) in [
        ("corrupt:0@tick:9", "corruption targets checkpoints"),
        ("kill:1", "expected"),
        ("explode:1@tick:5", "unknown op"),
    ] {
        let out = sbcast(&["recovery", "--chaos", spec]);
        assert_clean_failure(&out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("bad chaos spec item") && stderr.contains(what),
            "spec {spec:?}: got {stderr}"
        );
    }
    // A bad mode.
    let out = sbcast(&["recovery", "--mode", "chaos-monkey"]);
    assert_clean_failure(&out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("--mode"));
}

#[test]
fn recovery_under_chaos_matches_the_plain_run_for_every_knob() {
    // The flagship invariant through the CLI: the binary itself verifies
    // supervised-vs-uninterrupted byte identity (it exits nonzero on
    // divergence), and stdout must not depend on how the run executed.
    let mut outs = Vec::new();
    for (shards, threads) in [("1", "1"), ("2", "4"), ("2", "2")] {
        let out = sbcast(&[
            "recovery",
            "--sessions",
            "1000",
            "--horizon",
            "100",
            "--cadence",
            "25",
            "--chaos",
            "kill:0@ckpt:1;corrupt:0@ckpt:2;kill:0@ckpt:2",
            "--shards",
            shards,
            "--threads",
            threads,
        ]);
        assert!(
            out.status.success(),
            "recovery must run at {shards}/{threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(
            stdout.contains("identical to uninterrupted execute: yes"),
            "the binary must verify the invariant, got: {stdout}"
        );
        assert!(stdout.contains("corrupt rejected 1"), "got: {stdout}");
        outs.push(out.stdout);
    }
    // Shard counts change the chaos targets' slices, so only runs with
    // equal --shards must agree byte-for-byte; threads never matter.
    assert_eq!(outs[1], outs[2], "stdout must not depend on --threads");
}

#[test]
fn recovery_degrades_to_an_explicit_partial_run() {
    // Two kills against a one-restart budget: shard 1 is lost, and the
    // CLI reports the marker instead of panicking or silently shrinking.
    let out = sbcast(&[
        "recovery",
        "--sessions",
        "1000",
        "--horizon",
        "100",
        "--cadence",
        "25",
        "--shards",
        "2",
        "--chaos",
        "kill:1@ckpt:1;kill:1@ckpt:2",
        "--retry",
        "1",
        "--retry-attempts",
        "1",
    ]);
    assert!(
        out.status.success(),
        "a partial run is a graceful outcome: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("PARTIAL RUN: 1 shard(s) lost"), "{stdout}");
    assert!(
        stdout.contains("shard 1: lost after 1 attempt(s)"),
        "{stdout}"
    );
    assert!(stdout.contains("killed"), "{stdout}");
}

#[test]
fn non_positive_rates_and_horizons_are_typed_errors() {
    // Each value would reach a workload constructor's assert.
    for (args, message) in [
        (
            &["hybrid", "--rates", "-1"][..],
            "--rates: must be positive and finite, got `-1`",
        ),
        (
            &["hybrid", "--rates", "0"][..],
            "--rates: must be positive and finite, got `0`",
        ),
        (
            &["control", "--rate", "0"][..],
            "--rate: must be positive and finite, got `0`",
        ),
        (
            &["resilience", "--rate", "-2"][..],
            "--rate: must be positive and finite, got `-2`",
        ),
        (
            &["distribution", "--rate", "-1", "--profile", "smoke"][..],
            "--rate: must be positive and finite, got `-1`",
        ),
        (
            &["scenario", "--flash-boost", "-1", "--profile", "smoke"][..],
            "--flash-boost: must be positive and finite, got `-1`",
        ),
    ] {
        let out = sbcast(args);
        assert_clean_failure(&out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{args:?}: got {stderr}");
    }
}

#[test]
fn unbounded_sweep_ranges_are_rejected_promptly() {
    // Without the point cap, `--to inf` loops forever, and so does a
    // step too small to move 1e17.
    for args in [
        &["sweep", "--to", "inf"][..],
        &["sweep", "--from", "1e17", "--to", "2e17", "--step", "1"][..],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sbcast"))
            .args(args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn sbcast");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while child.try_wait().expect("poll sbcast").is_none() {
            if std::time::Instant::now() > deadline {
                child.kill().ok();
                panic!("{args:?} did not terminate");
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let out = child.wait_with_output().expect("collect sbcast");
        assert_clean_failure(&out);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error: bad sweep range"),
            "{args:?}: got {stderr}"
        );
    }
}

#[test]
fn a_repeated_flag_is_rejected() {
    let out = sbcast(&["metrics", "--bandwidth", "100", "--bandwidth", "320"]);
    assert_clean_failure(&out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: flag --bandwidth given twice"),
        "got: {stderr}"
    );
}

#[test]
fn paper_studies_are_thread_count_invariant() {
    let dir = std::env::temp_dir().join(format!("sbcast-paper-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for study in [
        "table1",
        "table2",
        "fig1_4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "crosscheck",
        "ablation",
        "landscape",
    ] {
        let mut outs = Vec::new();
        for threads in ["1", "2"] {
            let json = dir.join(format!("{study}-{threads}.json"));
            let out = sbcast(&[
                study,
                "--threads",
                threads,
                "--json",
                json.to_str().unwrap(),
            ]);
            assert!(
                out.status.success(),
                "`{study}` must run: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            outs.push((out.stdout, std::fs::read(&json).unwrap()));
        }
        assert!(!outs[0].0.is_empty(), "`{study}` printed nothing");
        assert_eq!(
            outs[0].0, outs[1].0,
            "`{study}` stdout depends on --threads"
        );
        assert_eq!(outs[0].1, outs[1].1, "`{study}` JSON depends on --threads");
    }
    std::fs::remove_dir_all(&dir).ok();
}
