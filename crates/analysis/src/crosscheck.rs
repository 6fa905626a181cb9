//! Analytic-vs-simulated cross-validation.
//!
//! Every number in the paper's figures comes from a closed form. For each
//! scheme we also *run* the plan against simulated clients and compare:
//! the empirical worst latency and peak buffer over an arrival-phase grid
//! must sit at (and never above) the analytic values. `EXPERIMENTS.md`'s
//! paper-vs-measured table is generated from these reports.

use serde::{Deserialize, Serialize};
use vod_units::{Mbps, Minutes};

use sb_core::config::SystemConfig;
use sb_core::plan::VideoId;
use sb_core::scheme::SchemeMetrics;
use sb_sim::policy::{schedule_client, ClientPolicy};

use crate::lineup::SchemeId;

/// Analytic vs empirical numbers for one (scheme, bandwidth) point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossCheck {
    /// Scheme label.
    pub scheme: String,
    /// Server bandwidth (Mb/s).
    pub bandwidth: f64,
    /// The closed-form metrics.
    pub analytic: SchemeMetrics,
    /// Worst observed startup latency (minutes).
    pub sim_worst_latency: f64,
    /// Worst observed peak buffer (Mbits).
    pub sim_peak_buffer: f64,
    /// Largest observed number of concurrent reception streams.
    pub sim_max_streams: usize,
    /// Arrival samples evaluated.
    pub samples: usize,
}

impl CrossCheck {
    /// Empirical latency / analytic latency (should be ≤ 1, near 1 on a
    /// fine grid).
    #[must_use]
    pub fn latency_ratio(&self) -> f64 {
        self.sim_worst_latency / self.analytic.access_latency.value()
    }

    /// Empirical buffer / analytic buffer.
    #[must_use]
    pub fn buffer_ratio(&self) -> f64 {
        if self.analytic.buffer_requirement.value() <= 0.0 {
            if self.sim_peak_buffer <= 1e-6 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.sim_peak_buffer / self.analytic.buffer_requirement.value()
        }
    }
}

/// The client policy each scheme's receivers follow.
#[must_use]
pub fn policy_for(id: SchemeId) -> ClientPolicy {
    match id {
        SchemeId::PbA | SchemeId::PbB => ClientPolicy::PbEarliest,
        _ => ClientPolicy::LatestFeasible,
    }
}

/// Run the cross-check for one scheme at one bandwidth, over `samples`
/// arrivals uniform in `[0, horizon)` with a seeded arrival-phase offset:
/// the workload-seed axis of [`crate::runner::Experiment`]. Seed 0 is the
/// legacy fixed grid; any other seed shifts every arrival by a
/// deterministic fraction of the grid step, probing different broadcast
/// phases.
///
/// Returns `None` where the scheme is infeasible.
#[must_use]
pub fn crosscheck_seeded(
    id: SchemeId,
    bandwidth: Mbps,
    horizon: Minutes,
    samples: usize,
    seed: u64,
) -> Option<CrossCheck> {
    let cfg = SystemConfig::paper_defaults(bandwidth);
    let scheme = id.build();
    let (Ok(analytic), Ok(plan)) = (scheme.metrics(&cfg), scheme.plan(&cfg)) else {
        return None;
    };
    let policy = policy_for(id);
    let phase = if seed == 0 {
        0.31
    } else {
        // splitmix-style scramble to a fraction in (0, 1)
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (x >> 11) as f64 / (1u64 << 53) as f64
    };

    let mut worst_latency = 0.0f64;
    let mut peak_buffer = 0.0f64;
    let mut max_streams = 0usize;
    for i in 0..samples {
        let arrival = Minutes(horizon.value() * (i as f64 + phase) / samples as f64);
        let s = schedule_client(&plan, VideoId(0), arrival, cfg.display_rate, policy)
            .expect("feasible plan serves every arrival");
        debug_assert!(s.jitter_violations(1e-6).is_empty());
        worst_latency = worst_latency.max(s.startup_latency().value());
        peak_buffer = peak_buffer.max(s.peak_buffer().value());
        max_streams = max_streams.max(s.max_concurrent_downloads());
    }
    Some(CrossCheck {
        scheme: id.label(),
        bandwidth: bandwidth.value(),
        analytic,
        sim_worst_latency: worst_latency,
        sim_peak_buffer: peak_buffer,
        sim_max_streams: max_streams,
        samples,
    })
}

/// Cross-check the whole lineup at one bandwidth on an explicit
/// [`crate::runner::Runner`] — schemes checked in parallel, output
/// identical to the serial path.
#[must_use]
pub fn crosscheck_lineup_with(
    ids: &[SchemeId],
    bandwidth: Mbps,
    horizon: Minutes,
    samples: usize,
    runner: &crate::runner::Runner,
) -> Vec<CrossCheck> {
    runner
        .timed_map("crosscheck", ids, |&id| {
            crosscheck_seeded(id, bandwidth, horizon, samples, 0)
        })
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineup::{extended_lineup, SchemeId};

    #[test]
    fn lineup_crosschecks_at_320() {
        let checks = crosscheck_lineup_with(
            &extended_lineup(),
            Mbps(320.0),
            Minutes(12.0),
            60,
            &crate::runner::Runner::serial(),
        );
        assert_eq!(checks.len(), 10);
        for c in &checks {
            // Simulation must never exceed the analytic latency promise.
            assert!(
                c.latency_ratio() <= 1.0 + 1e-6,
                "{}: latency ratio {}",
                c.scheme,
                c.latency_ratio()
            );
            if c.scheme.starts_with("PPB") {
                // The paper's PPB buffer formula assumes the max-saving
                // client that retunes *mid-broadcast* — the very mechanism
                // §2 criticizes as "difficult to implement". Our clients
                // tune only at broadcast beginnings (like SB), and pay for
                // it: the measured buffer exceeds the Table-1 number by up
                // to ~2×. That gap IS the paper's point; assert it.
                let r = c.buffer_ratio();
                assert!(
                    (0.7..=2.5).contains(&r),
                    "{}: tune-at-start buffer ratio {} outside the expected band",
                    c.scheme,
                    r
                );
            } else {
                assert!(
                    c.buffer_ratio() <= 1.0 + 1e-6,
                    "{}: buffer ratio {}",
                    c.scheme,
                    c.buffer_ratio()
                );
            }
        }
        // …and the latency bound is tight for the fine-grained schemes.
        let sb = checks.iter().find(|c| c.scheme == "SB:W=52").unwrap();
        assert!(sb.latency_ratio() > 0.85, "{}", sb.latency_ratio());
        assert!(sb.sim_max_streams <= 2);
    }

    #[test]
    fn pb_buffer_nearly_attains_analytic() {
        let c = crosscheck_seeded(SchemeId::PbA, Mbps(300.0), Minutes(12.0), 200, 0).unwrap();
        assert!(
            c.buffer_ratio() > 0.85 && c.buffer_ratio() <= 1.0 + 1e-6,
            "ratio {}",
            c.buffer_ratio()
        );
    }

    #[test]
    fn infeasible_scheme_yields_none() {
        assert!(crosscheck_seeded(SchemeId::PpbB, Mbps(50.0), Minutes(5.0), 10, 0).is_none());
    }
}
