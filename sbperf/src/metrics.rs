//! The metric table `BENCHMARK.json` mirrors, the sample statistics every
//! report uses, and the result files runs write.

use serde::{Deserialize, Serialize};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

#[cfg(test)]
impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name, as printed and as named in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the simulator sees, measured with tracing off. A run
/// that fails counts in the result's `failed` field; there is no
/// failure-share metric because it would read 0 on every healthy run.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("sessions_per_s", "1/s", Better::Higher, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.10),
];

/// One traced pass's per-layer numbers. A layer the workload does not
/// run keeps an empty span: its time is the probe's own overhead and its
/// counts are 0.
pub const PER_LAYER: [MetricDef; 28] = [
    layer("arrivals.s", "s", Better::Lower),
    layer("arrivals.requests", "count", Better::Higher),
    layer("plan.s", "s", Better::Lower),
    layer("shard_plan.s", "s", Better::Lower),
    layer("shard_plan.max_share", "ratio", Better::Lower),
    layer("client.s", "s", Better::Lower),
    layer("client.us_per_session", "us", Better::Lower),
    layer("client.receptions_per_session", "count", Better::Lower),
    layer("core.s", "s", Better::Lower),
    layer("agenda.s", "s", Better::Lower),
    layer("agenda.events", "count", Better::Lower),
    layer("agenda.peak", "count", Better::Lower),
    layer("recorder.s", "s", Better::Lower),
    layer("recorder.calls", "count", Better::Lower),
    layer("recorder.series", "count", Better::Lower),
    layer("fold.s", "s", Better::Lower),
    layer("fold.retained_bytes", "B", Better::Lower),
    layer("shards.busy_sum_s", "s", Better::Lower),
    layer("shards.skew", "ratio", Better::Lower),
    layer("merge.s", "s", Better::Lower),
    layer("checkpoint.s", "s", Better::Lower),
    layer("checkpoint.bytes_per_session", "B", Better::Lower),
    layer("json.s", "s", Better::Lower),
    layer("json.bytes", "B", Better::Lower),
    layer("control.serial_s", "s", Better::Lower),
    layer("control.swaps", "count", Better::Lower),
    layer("control.rejected_share", "ratio", Better::Lower),
    layer("traced.coverage", "ratio", Better::Higher),
];

/// Look a metric up by name in either table.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median, as Python's `statistics.median` computes it.
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles, as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes them; a single sample is its own quartiles.
///
/// # Panics
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Quartile spread as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// One metric's samples from one run: per pass for timings, one value
/// for counts and traced numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The samples, in measurement order.
    pub samples: Vec<f64>,
}

impl Series {
    /// The series' median.
    pub fn median(&self) -> f64 {
        median(&self.samples)
    }

    /// `workload metric value unit (q1, q3, n)`, the line every command
    /// prints.
    pub fn row(&self, workload: &str) -> String {
        let (q1, q3) = quartiles(&self.samples);
        format!(
            "{workload} {} {} {} ({}, {}, {})",
            self.name,
            fmt_num(self.median()),
            self.unit,
            fmt_num(q1),
            fmt_num(q3),
            self.samples.len()
        )
    }
}

/// Six significant digits: enough to read, short enough to scan.
pub fn fmt_num(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let digits = 6 - 1 - v.abs().log10().floor() as i32;
    if digits <= 0 {
        format!("{v:.0}")
    } else {
        format!("{v:.*}", digits as usize)
    }
}

/// Everything one workload run measured, as written to
/// `<out>/<seed>/<workload>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// The `--seed` the inputs were made from.
    pub seed: u64,
    /// `full` or `smoke`.
    pub scale: String,
    /// Every check passed.
    pub correct: bool,
    /// Requests handed to `execute`, over all timed passes.
    pub attempted: u64,
    /// Requests in passes that errored or failed a check.
    pub failed: u64,
    /// Every metric measured, end-to-end first.
    pub metrics: Vec<Series>,
}

impl WorkloadResult {
    /// The named metric's series.
    pub fn metric(&self, name: &str) -> Option<&Series> {
        self.metrics.iter().find(|s| s.name == name)
    }
}

/// The machine a set of numbers was measured on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
}

impl Machine {
    /// Describe the machine this process runs on.
    pub fn current() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu,
            rustc: env!("SBPERF_RUSTC").to_string(),
        }
    }
}

/// What `sbperf all` writes to `<out>/<seed>/all.json`: one result per
/// workload plus the machine that measured them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllResults {
    /// The `--seed` of every run.
    pub seed: u64,
    /// Where the numbers were measured.
    pub machine: Machine,
    /// One result per workload, in run order.
    pub workloads: Vec<WorkloadResult>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn metric_names_and_units_fit_the_benchmark_format() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(all[i + 1..].iter().all(|o| o.name != d.name), "{}", d.name);
        }
        for d in END_TO_END {
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", d.name);
        }
        assert!(def("setup_s").is_some_and(|d| d.unit == "s" && d.better == Better::Lower));
    }

    #[test]
    fn benchmark_json_mirrors_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the crate");
        let v: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let obj = v.as_object().expect("BENCHMARK.json is an object");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = serde::field(obj, key).as_array().expect("metric list");
            assert_eq!(listed.len(), table.len(), "{key}");
            for (m, d) in listed.iter().zip(table) {
                let m = m.as_object().expect("metric entry");
                assert_eq!(serde::field(m, "name").as_str(), Some(d.name));
                assert_eq!(serde::field(m, "unit").as_str(), Some(d.unit), "{}", d.name);
                assert_eq!(
                    serde::field(m, "better").as_str(),
                    Some(d.better.name()),
                    "{}",
                    d.name
                );
                assert_eq!(serde::field(m, "bound").as_f64(), d.bound, "{}", d.name);
            }
        }
        let workloads: Vec<&str> = serde::field(obj, "workloads")
            .as_array()
            .expect("workload list")
            .iter()
            .map(|w| {
                serde::field(w.as_object().unwrap(), "name")
                    .as_str()
                    .unwrap()
            })
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL.map(|w| w.name()).to_vec();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn rows_print_median_quartiles_and_count() {
        let s = Series {
            name: "setup_s".into(),
            unit: "s".into(),
            samples: vec![0.5, 0.25, 1.0],
        };
        assert_eq!(
            s.row("sb_grid"),
            "sb_grid setup_s 0.500000 s (0.250000, 1.00000, 3)"
        );
    }
}
