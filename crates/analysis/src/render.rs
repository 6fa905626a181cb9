//! Plain-text and JSON rendering of figures and tables.
//!
//! The paper's artifacts are regenerated as fixed-width text (one row per
//! bandwidth, one column per curve) so `sbcast fig7` and its siblings
//! print something directly comparable with the paper's plots, plus JSON
//! for downstream plotting.

use std::fmt::Write as _;

use crate::ablation::SeriesReport;
use crate::crosscheck::CrossCheck;
use crate::figures::{Figure, TransitionDemo};
use crate::tables::{EvaluatedRow, FormulaRow};

/// Render a figure as a fixed-width table: x in the first column, one
/// column per series, `-` where a series has no point.
#[must_use]
pub fn render_figure(fig: &Figure) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {} [{}]", fig.title, fig.id);
    let _ = writeln!(out, "# x = {}, y = {}", fig.x_label, fig.y_label);

    // Collect the x grid (union over series).
    let mut xs: Vec<f64> = fig
        .series
        .iter()
        .flat_map(|s| s.points.iter().map(|&(x, _)| x))
        .collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);

    let width = 12usize;
    let _ = write!(out, "{:>8}", "B");
    for s in &fig.series {
        let _ = write!(out, "{:>width$}", truncate(&s.label, width - 1));
    }
    let _ = writeln!(out);
    for &x in &xs {
        let _ = write!(out, "{x:>8.0}");
        for s in &fig.series {
            match s
                .points
                .iter()
                .find(|(px, _)| (*px - x).abs() < 1e-9)
                .map(|&(_, y)| y)
            {
                Some(y) => {
                    let _ = write!(out, "{y:>width$.4}");
                }
                None => {
                    let _ = write!(out, "{:>width$}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        s.chars().take(n).collect()
    }
}

/// Render Table 1's formula box.
#[must_use]
pub fn render_formulas(rows: &[FormulaRow]) -> String {
    let mut out = String::new();
    for r in rows {
        let _ = writeln!(out, "{}:", r.scheme);
        let _ = writeln!(out, "  I/O bandwidth : {}", r.io_bandwidth);
        let _ = writeln!(out, "  access latency: {}", r.access_latency);
        let _ = writeln!(out, "  buffer space  : {}", r.buffer_space);
    }
    out
}

/// Render the numeric table evaluations.
#[must_use]
pub fn render_evaluations(rows: &[EvaluatedRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:<12} {:>4} {:>4} {:>7} {:>10} {:>12} {:>12}",
        "B", "scheme", "K", "P", "alpha", "IO(Mb/s)", "latency(min)", "buffer(MB)"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>6.0} {:<12} {:>4} {:>4} {:>7} {:>10.2} {:>12.4} {:>12.1}",
            r.bandwidth,
            r.scheme,
            r.k,
            r.p.map_or("-".to_string(), |p| p.to_string()),
            r.alpha.map_or("-".to_string(), |a| format!("{a:.3}")),
            r.io_mbps,
            r.latency_min,
            r.buffer_mbytes,
        );
    }
    out
}

/// Render Figures 1–4: per transition case, the worst arrival phase's
/// measured peak against §4's bound, then its full buffer profile.
#[must_use]
pub fn render_transition_demos(demos: &[TransitionDemo]) -> String {
    let mut out = String::new();
    for d in demos {
        let _ = writeln!(out, "== {} ==", d.figure);
        let _ = writeln!(out, "{}", d.description);
        let _ = writeln!(out, "units: {:?}", d.units);
        let _ = writeln!(
            out,
            "worst phase t0={}  measured peak = {} units  (section-4 bound: {} units; 1 unit = 60*b*D1 Mbits)",
            d.worst_phase, d.measured_peak_units, d.bound_units
        );
        out.push_str("buffer profile (slot units): ");
        for (t, b) in &d.profile {
            let _ = write!(out, "({t},{b}) ");
        }
        out.push_str("\n\n");
    }
    out
}

/// Render one bandwidth's analytic-vs-simulated cross-check table
/// (buffers in MBytes).
#[must_use]
pub fn render_crosscheck(bandwidth: f64, checks: &[CrossCheck]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== B = {bandwidth} Mb/s ==");
    let _ = writeln!(
        out,
        "{:<12} {:>14} {:>14} {:>7} {:>14} {:>14} {:>7} {:>8}",
        "scheme",
        "latency(anl)",
        "latency(sim)",
        "ratio",
        "buffer(anl)MB",
        "buffer(sim)MB",
        "ratio",
        "streams"
    );
    for c in checks {
        let _ = writeln!(
            out,
            "{:<12} {:>14.4} {:>14.4} {:>7.3} {:>14.1} {:>14.1} {:>7.3} {:>8}",
            c.scheme,
            c.analytic.access_latency.value(),
            c.sim_worst_latency,
            c.latency_ratio(),
            c.analytic.buffer_requirement.value() / 8.0,
            c.sim_peak_buffer / 8.0,
            c.buffer_ratio(),
            c.sim_max_streams
        );
    }
    out.push('\n');
    out
}

/// Render the ablations: A1's series-shape table, A2's width-sensitivity
/// rows `(W, latency, buffer, marginal MB per saved second)`, and A3's
/// greedy series next to the paper's.
#[must_use]
pub fn render_ablation(
    reports: &[SeriesReport],
    widths: &[(u64, f64, f64, f64)],
    greedy: &[u64],
    paper: &[u64],
) -> String {
    let mut out =
        String::from("A1: series-shape ablation (K=12, D=120 min, 1024 arrival phases)\n\n");
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "series", "latency(min)", "conflicts", "jitter", "peak(u)", "usable", "loaders"
    );
    for r in reports {
        let _ = writeln!(
            out,
            "{:<16} {:>12.4} {:>10} {:>10} {:>10} {:>9} {:>9}",
            r.name,
            r.latency_min,
            r.phases_with_conflicts,
            r.phases_with_jitter,
            r.worst_peak_units,
            r.usable(),
            r.loaders_needed.map_or("-".into(), |l| l.to_string()),
        );
    }
    out.push_str("\nA2: width sensitivity at K=40 (B=600 Mb/s)\n\n");
    let _ = writeln!(
        out,
        "{:>8} {:>14} {:>12} {:>22}",
        "W", "latency(min)", "buffer(MB)", "marginal MB per sec"
    );
    for (w, lat, buf, marginal) in widths {
        let _ = writeln!(out, "{w:>8} {lat:>14.4} {buf:>12.1} {marginal:>22.2}");
    }
    out.push_str("\nA3: greedy search for the fastest two-loader-safe series\n\n");
    let _ = writeln!(out, "greedy-maximal: {greedy:?}");
    let _ = writeln!(out, "paper's series: {paper:?}");
    let _ = writeln!(
        out,
        "match: {} — the paper's series is exactly the fastest series the\n\
         two-loader client can follow",
        greedy == paper
    );
    out
}

/// Serialize any serde value as pretty JSON.
///
/// # Panics
/// Panics if serialization fails (plain data types here never do).
#[must_use]
pub fn to_json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("figure data serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Series;

    fn toy_figure() -> Figure {
        Figure {
            id: "t".into(),
            title: "toy".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![
                Series {
                    label: "a".into(),
                    points: vec![(1.0, 2.0), (2.0, 3.0)],
                },
                Series {
                    label: "b".into(),
                    points: vec![(2.0, 9.0)],
                },
            ],
        }
    }

    #[test]
    fn figure_renders_grid_with_gaps() {
        let txt = render_figure(&toy_figure());
        assert!(txt.contains("# toy [t]"));
        // x=1 row has a value for `a` and a dash for `b`.
        let row1 = txt
            .lines()
            .find(|l| l.trim_start().starts_with('1'))
            .unwrap();
        assert!(row1.contains("2.0000"));
        assert!(row1.contains('-'));
        let row2 = txt
            .lines()
            .find(|l| l.trim_start().starts_with('2'))
            .unwrap();
        assert!(row2.contains("9.0000"));
    }

    #[test]
    fn json_roundtrip() {
        let fig = toy_figure();
        let json = to_json(&fig);
        let back: Figure = serde_json::from_str(&json).unwrap();
        assert_eq!(back, fig);
    }

    #[test]
    fn formula_and_eval_render() {
        let f = render_formulas(&crate::tables::table1_formulas());
        assert!(f.contains("60*b*D1*(W-1)"));
        let rows =
            crate::tables::evaluate_tables(&[crate::lineup::SchemeId::Sb(Some(52))], &[300.0]);
        let t = render_evaluations(&rows);
        assert!(t.contains("SB:W=52"));
        assert!(t.contains("300"));
    }
}
