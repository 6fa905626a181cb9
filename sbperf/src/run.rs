//! One workload run: timed passes, then optionally the traced pass.

use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::Value;

use crate::layers::traced_pass;
use crate::metrics::{median, Series, WorkloadResult, END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::workload::{json, Facts, Scale, Workload};

/// Timed passes per run, at the least; more run until `--seconds` is up.
pub const MIN_PASSES: usize = 5;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Seed of the inputs.
    pub seed: u64,
    /// Keep starting timed passes until this many seconds have passed.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Where result files go (`<out>/<seed>/<workload>.json`).
    pub out: PathBuf,
}

/// Whether this build traps integer overflow, as the repository's
/// release profile does.
pub fn overflow_checks_live() -> bool {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let trapped =
        std::panic::catch_unwind(|| std::hint::black_box(u32::MAX) + std::hint::black_box(1))
            .is_err();
    std::panic::set_hook(hook);
    trapped
}

/// The process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn series(name: &str, samples: Vec<f64>) -> Series {
    let unit = crate::metrics::def(name)
        .expect("metric is in the table")
        .unit;
    Series {
        name: name.to_string(),
        unit: unit.to_string(),
        samples,
    }
}

/// Run `a`: print one row per metric and, last, the JSON result line.
/// Writes `<out>/<seed>/<workload>.json` and, when traced, the spans to
/// `<out>/<seed>/<workload>.trace.json`.
pub fn run(a: &RunArgs) -> Result<(), String> {
    let (mut setup_s, mut exec_s, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first: Option<Facts> = None;
    let mut errors = Vec::new();
    // Peak RSS is read after the first pass: one set-up and one
    // `execute` in a fresh process, as a user runs it. Later passes only
    // add allocator fragmentation, which grows with the pass count.
    let mut rss = None;
    let start = Instant::now();
    while exec_s.len() < MIN_PASSES || start.elapsed().as_secs_f64() < a.seconds {
        let pass = exec_s.len() + 1;
        let t = Instant::now();
        let setup = a.workload.setup(a.seed, a.scale, &mut Tracer::new());
        setup_s.push(t.elapsed().as_secs_f64());
        let n = setup.requests();
        let t = Instant::now();
        let out = setup.execute();
        let dt = t.elapsed().as_secs_f64();
        exec_s.push(dt);
        rates.push(n as f64 / dt);
        attempted += n as u64;
        match out.and_then(|o| setup.check(&o)) {
            Ok(facts) => match &first {
                None => first = Some(facts),
                Some(f) if f.bytes == facts.bytes => {}
                Some(_) => {
                    failed += n as u64;
                    errors.push(format!("pass {pass}: outcome bytes differ from pass 1"));
                }
            },
            Err(e) => {
                failed += n as u64;
                errors.push(format!("pass {pass}: {e}"));
            }
        }
        if rss.is_none() {
            rss = Some(peak_rss_mib()?);
        }
    }
    let rss = rss.expect("at least one pass ran");
    let mut metrics = vec![
        series("sessions_per_s", rates),
        series("setup_s", setup_s),
        series("peak_rss_mib", vec![rss]),
    ];

    let dir = a.out.join(a.seed.to_string());
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    if a.trace {
        if first.is_none() {
            errors.push("no timed pass succeeded, so the traced pass has nothing to match".into());
        }
        let traced = traced_pass(a.workload, a.seed, a.scale, first.as_ref(), median(&exec_s));
        errors.extend(traced.errors);
        for (d, v) in PER_LAYER.iter().zip(traced.values) {
            metrics.push(series(d.name, vec![v]));
        }
        let trace = Value::Object(vec![
            ("workload".into(), Value::Str(a.workload.name().into())),
            ("seed".into(), Value::UInt(a.seed)),
            (
                "spans".into(),
                serde_json::to_value(traced.tracer.spans()).expect("spans serialize"),
            ),
        ]);
        write(
            &dir.join(format!("{}.trace.json", a.workload.name())),
            &trace,
        )?;
    }
    if metrics
        .iter()
        .flat_map(|s| &s.samples)
        .any(|v| !v.is_finite())
    {
        errors.push("a metric is not a finite number".into());
    }

    let result = WorkloadResult {
        workload: a.workload.name().to_string(),
        seed: a.seed,
        scale: a.scale.name().to_string(),
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics,
    };
    write(&dir.join(format!("{}.json", a.workload.name())), &result)?;
    for e in &errors {
        eprintln!("sbperf: {}: {e}", a.workload.name());
    }
    for s in &result.metrics {
        println!("{}", s.row(&result.workload));
    }
    println!(
        "{} failed_share {} ratio",
        result.workload,
        result.failed as f64 / result.attempted as f64
    );
    println!("{}", result_line(&result, a.trace));
    Ok(())
}

/// The last stdout line: `correct`, `attempted`, `failed` and the median
/// of every end-to-end metric, or of every per-layer one when traced.
fn result_line(r: &WorkloadResult, trace: bool) -> String {
    let table = if trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let metrics = table
        .iter()
        .filter_map(|d| r.metric(d.name))
        .map(|s| {
            (
                s.name.clone(),
                Value::Object(vec![
                    ("value".into(), Value::Float(s.median())),
                    ("unit".into(), Value::Str(s.unit.clone())),
                ]),
            )
        })
        .collect();
    json(&Value::Object(vec![
        ("correct".into(), Value::Bool(r.correct)),
        ("attempted".into(), Value::UInt(r.attempted)),
        ("failed".into(), Value::UInt(r.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]))
}

/// Write `value` as pretty JSON to `path`.
pub fn write<T: serde::Serialize>(path: &Path, value: &T) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).expect("in-memory values always serialize");
    std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Read a JSON file written by [`write`].
pub fn read<T: serde::Deserialize>(path: &Path) -> Result<T, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_checks_are_live() {
        // `cargo test --release` runs this under the release profile the
        // benchmark measures with; `run` refuses to start without them.
        assert!(overflow_checks_live());
    }

    #[test]
    fn peak_rss_reads_a_positive_size() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }

    #[test]
    fn result_line_carries_exactly_the_contract_keys() {
        let r = WorkloadResult {
            workload: "sb_grid".into(),
            seed: 3,
            scale: "smoke".into(),
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .map(|d| series(d.name, vec![1.5, 2.5]))
                .collect(),
        };
        let line = result_line(&r, false);
        let v: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = serde::field(v.as_object().unwrap(), "metrics")
            .as_object()
            .unwrap();
        assert_eq!(m.len(), END_TO_END.len());
        let setup = serde::field(m, "setup_s").as_object().unwrap();
        assert_eq!(serde::field(setup, "value").as_f64(), Some(2.0));
        assert_eq!(serde::field(setup, "unit").as_str(), Some("s"));
        let traced: Value = serde_json::from_str(&result_line(&r, true)).unwrap();
        let m = serde::field(traced.as_object().unwrap(), "metrics");
        assert_eq!(m.as_object().unwrap().len(), PER_LAYER.len());
    }
}
