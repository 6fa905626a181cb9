//! `sbperf all --scale smoke`: every workload at about 1% size, end to
//! end through the built binary.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use serde::Value;

fn obj(v: &Value) -> &[(String, Value)] {
    v.as_object().expect("a JSON object")
}

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    serde::field(obj(v), name)
}

fn load(path: &PathBuf) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn smoke_all_emits_every_benchmark_metric_and_passes_its_checks() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = std::fs::remove_dir_all(&out);
    let started = Instant::now();
    let run = Command::new(env!("CARGO_BIN_EXE_sbperf"))
        .args(["all", "--scale", "smoke", "--seconds", "0", "--seed", "17"])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("sbperf runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "sbperf all failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    eprintln!("smoke took {:.1} s", started.elapsed().as_secs_f64());

    let bench = load(&PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"));
    let all = load(&out.join("17").join("all.json"));
    let results = field(&all, "workloads").as_array().expect("workload list");
    let workloads = field(&bench, "workloads")
        .as_array()
        .expect("workload list");
    assert_eq!(results.len(), workloads.len());
    for w in workloads {
        let name = field(w, "name").as_str().expect("workload name");
        let r = results
            .iter()
            .find(|r| field(r, "workload").as_str() == Some(name))
            .unwrap_or_else(|| panic!("no result for {name}"));
        assert_eq!(
            field(r, "correct").as_bool(),
            Some(true),
            "{name} failed a check"
        );
        assert_eq!(
            field(r, "failed").as_u64(),
            Some(0),
            "{name}: failed_share is not 0"
        );
        assert!(field(r, "attempted").as_u64().unwrap() > 0, "{name}");
        assert!(
            stdout.contains(&format!("{name} failed_share 0 ratio")),
            "{name} printed a non-zero failed_share"
        );
        let metrics = field(r, "metrics").as_array().expect("metric list");
        for key in ["end_to_end", "per_layer"] {
            for m in field(&bench, key).as_array().expect("metric list") {
                let metric = field(m, "name").as_str().expect("metric name");
                let unit = field(m, "unit").as_str().expect("metric unit");
                let got = metrics
                    .iter()
                    .find(|s| field(s, "name").as_str() == Some(metric))
                    .unwrap_or_else(|| panic!("{name} did not emit {metric}"));
                assert_eq!(field(got, "unit").as_str(), Some(unit), "{name} {metric}");
                let samples = field(got, "samples").as_array().expect("samples");
                assert!(!samples.is_empty(), "{name} {metric}");
                assert!(
                    samples
                        .iter()
                        .all(|v| v.as_f64().is_some_and(f64::is_finite)),
                    "{name} {metric}"
                );
                assert!(
                    stdout.contains(&format!("{name} {metric} ")),
                    "{name} {metric} has no printed row"
                );
            }
        }
    }
}
