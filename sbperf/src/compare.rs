//! Parent-versus-change reports: `sbperf compare` over two result files
//! and `sbperf pairs` over two built binaries.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

use crate::metrics::{def, fmt_num, median, quartiles, spread, AllResults, Better, WorkloadResult};
use crate::run::read;
use crate::workload::{Scale, Workload};

/// How a change's samples of one metric relate to the parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse than the parent by more than the bound.
    Regression,
    /// Spread wider than the bound on either side, and not every change
    /// sample beats every parent sample.
    Unresolved,
    /// Within the bound.
    Same,
    /// Better than the parent by more than the bound.
    Better,
    /// Counts and traced numbers carry no bound: equal medians.
    Identical,
    /// Counts and traced numbers carry no bound: different medians.
    Differs,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Identical => "identical",
            Verdict::Differs => "differs",
        }
    }
}

/// By how much `change` is worse than `parent`, as a share of the
/// parent (negative when better).
fn worsening(better: Better, parent: f64, change: f64) -> f64 {
    let d = match better {
        Better::Higher => parent - change,
        Better::Lower => change - parent,
    };
    if parent == 0.0 {
        if d == 0.0 {
            0.0
        } else {
            d.signum() * f64::INFINITY
        }
    } else {
        d / parent.abs()
    }
}

fn beats(better: Better, a: f64, b: f64) -> bool {
    match better {
        Better::Higher => a > b,
        Better::Lower => a < b,
    }
}

/// Judge one metric's samples, parent first.
pub fn verdict(name: &str, parent: &[f64], change: &[f64]) -> Verdict {
    let d = def(name).expect("metric is in the table");
    let (mp, mc) = (median(parent), median(change));
    let Some(bound) = d.bound else {
        return if mp == mc {
            Verdict::Identical
        } else {
            Verdict::Differs
        };
    };
    let worse = worsening(d.better, mp, mc);
    let all_better = change
        .iter()
        .all(|&c| parent.iter().all(|&p| beats(d.better, c, p)));
    if worse > bound {
        Verdict::Regression
    } else if (spread(parent) > bound || spread(change) > bound) && !all_better {
        Verdict::Unresolved
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn stats(samples: &[f64]) -> String {
    let (q1, q3) = quartiles(samples);
    format!(
        "{} ({}, {}, {})",
        fmt_num(median(samples)),
        fmt_num(q1),
        fmt_num(q3),
        samples.len()
    )
}

/// Load `all.json` or a single workload's result file.
fn load(path: &Path) -> Result<Vec<WorkloadResult>, String> {
    read::<AllResults>(path)
        .map(|a| a.workloads)
        .or_else(|_| read::<WorkloadResult>(path).map(|w| vec![w]))
}

/// Print one row per workload and metric present in both files. Returns
/// whether any end-to-end metric regressed.
pub fn compare(parent: &Path, change: &Path) -> Result<bool, String> {
    let (a, b) = (load(parent)?, load(change)?);
    println!("workload metric unit | parent median (q1, q3, n) | change median (q1, q3, n) | change | verdict");
    let mut regressed = false;
    for wa in &a {
        let Some(wb) = b.iter().find(|w| w.workload == wa.workload) else {
            println!("{} missing from {}", wa.workload, change.display());
            continue;
        };
        for sa in &wa.metrics {
            let Some(sb) = wb.metric(&sa.name) else {
                continue;
            };
            let v = verdict(&sa.name, &sa.samples, &sb.samples);
            regressed |= v == Verdict::Regression;
            let (ma, mb) = (median(&sa.samples), median(&sb.samples));
            let change = if ma == 0.0 {
                "-".to_string()
            } else {
                format!("{:+.1}%", (mb - ma) / ma.abs() * 100.0)
            };
            println!(
                "{} {} {} | {} | {} | {change} | {}",
                wa.workload,
                sa.name,
                sa.unit,
                stats(&sa.samples),
                stats(&sb.samples),
                v.name()
            );
        }
    }
    Ok(regressed)
}

/// What `sbperf pairs` runs.
#[derive(Debug, Clone)]
pub struct PairsArgs {
    /// The parent commit's `sbperf` binary.
    pub parent: PathBuf,
    /// The change's `sbperf` binary.
    pub change: PathBuf,
    /// The workload both run.
    pub workload: Workload,
    /// Pairs to run.
    pub pairs: usize,
    /// Input seed of every run.
    pub seed: u64,
    /// `--seconds` of every run.
    pub seconds: f64,
    /// Input size.
    pub scale: Scale,
    /// Result files go under `<out>/parent` and `<out>/change`.
    pub out: PathBuf,
}

/// Run `bin` once and read the end-to-end medians off its last line.
fn run_once(bin: &Path, a: &PairsArgs, side: &str) -> Result<Vec<(String, f64)>, String> {
    let out = Command::new(bin)
        .args(["--workload", a.workload.name()])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", "0", "--scale", a.scale.name()])
        .arg("--out")
        .arg(a.out.join(side))
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!("{} exited with {}", bin.display(), out.status));
    }
    let v: Value = serde_json::from_str(last).map_err(|e| format!("{side} result line: {e}"))?;
    let obj = v.as_object().ok_or("result line is not an object")?;
    if serde::field(obj, "correct").as_bool() != Some(true) {
        return Err(format!("{side} run failed its checks"));
    }
    let metrics = serde::field(obj, "metrics")
        .as_object()
        .ok_or("result line has no metrics")?;
    Ok(metrics
        .iter()
        .filter_map(|(k, m)| {
            let m = m.as_object()?;
            Some((k.clone(), serde::field(m, "value").as_f64()?))
        })
        .collect())
}

/// Alternate parent and change runs, `pairs` times, and apply the
/// 9-of-10 win rule to every end-to-end metric.
pub fn pairs(a: &PairsArgs) -> Result<(), String> {
    let mut parent: Vec<Vec<(String, f64)>> = Vec::new();
    let mut change: Vec<Vec<(String, f64)>> = Vec::new();
    for i in 0..a.pairs {
        // Alternate which side runs first, so drift favours neither.
        if i % 2 == 0 {
            parent.push(run_once(&a.parent, a, "parent")?);
            change.push(run_once(&a.change, a, "change")?);
        } else {
            change.push(run_once(&a.change, a, "change")?);
            parent.push(run_once(&a.parent, a, "parent")?);
        }
        eprintln!("sbperf pairs: {} of {} done", i + 1, a.pairs);
    }
    println!(
        "{} seed {}: metric | parent median (q1, q3, n) | change median (q1, q3, n) | wins | verdict",
        a.workload.name(),
        a.seed
    );
    for (name, _) in &parent[0] {
        let pick = |runs: &[Vec<(String, f64)>]| -> Vec<f64> {
            runs.iter()
                .filter_map(|r| r.iter().find(|(k, _)| k == name).map(|(_, v)| *v))
                .collect()
        };
        let (p, c) = (pick(&parent), pick(&change));
        let Some(d) = def(name) else { continue };
        let wins = p
            .iter()
            .zip(&c)
            .filter(|(p, c)| beats(d.better, **c, **p))
            .count();
        let v = pair_verdict(name, &p, &c, wins);
        println!(
            "{name} | {} | {} | {wins}/{} | {v}",
            stats(&p),
            stats(&c),
            p.len()
        );
    }
    Ok(())
}

/// A gain needs wins in at least nine tenths of the pairs and medians
/// further apart than the parent's own quartile spread.
fn pair_verdict(name: &str, parent: &[f64], change: &[f64], wins: usize) -> &'static str {
    let d = def(name).expect("metric is in the table");
    let (mp, mc) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let bound = d.bound.unwrap_or(0.0);
    if worsening(d.better, mp, mc) > bound {
        "regression"
    } else if wins * 10 >= parent.len() * 9 && beats(d.better, mc, mp) && (mc - mp).abs() > q3 - q1
    {
        "gain"
    } else {
        "no gain"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [60.0, 61.0, 59.0, 60.5, 59.5];
        let faster = [140.0, 141.0, 139.0, 140.5, 139.5];
        let noisy = [60.0, 140.0, 100.0, 70.0, 130.0];
        assert_eq!(
            verdict("sessions_per_s", &parent, &slower),
            Verdict::Regression
        );
        assert_eq!(verdict("sessions_per_s", &parent, &faster), Verdict::Better);
        assert_eq!(verdict("sessions_per_s", &parent, &parent), Verdict::Same);
        assert_eq!(
            verdict("sessions_per_s", &parent, &noisy),
            Verdict::Unresolved
        );
        // Lower is better for set-up time.
        assert_eq!(verdict("setup_s", &parent, &faster), Verdict::Regression);
        assert_eq!(verdict("setup_s", &faster, &slower), Verdict::Better);
        assert_eq!(verdict("agenda.events", &[4.0], &[4.0]), Verdict::Identical);
        assert_eq!(verdict("agenda.events", &[4.0], &[5.0]), Verdict::Differs);
    }

    #[test]
    fn noisy_sides_resolve_only_when_every_change_run_wins() {
        let parent = [60.0, 140.0, 100.0, 70.0, 130.0];
        let change = [150.0, 160.0, 155.0, 145.0, 170.0];
        assert_eq!(verdict("sessions_per_s", &parent, &change), Verdict::Better);
    }

    #[test]
    fn gains_need_nine_wins_in_ten_and_a_gap_beyond_the_spread() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let change: Vec<f64> = parent.iter().map(|p| p + 20.0).collect();
        assert_eq!(pair_verdict("sessions_per_s", &parent, &change, 10), "gain");
        assert_eq!(
            pair_verdict("sessions_per_s", &parent, &change, 8),
            "no gain"
        );
        let slower: Vec<f64> = parent.iter().map(|p| p * 0.7).collect();
        assert_eq!(
            pair_verdict("sessions_per_s", &parent, &slower, 0),
            "regression"
        );
    }
}
