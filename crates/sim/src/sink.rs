//! Streaming aggregation of session traces: the [`TraceSink`] fold.
//!
//! A [`crate::trace::SessionTrace`] is small for one client and enormous
//! for a population: every reception of every session, retained until the
//! end of the run, just to compute a dozen summary numbers. Long-horizon
//! sweeps (the adaptive-harmonic and scalable-VoD scales in `PAPERS.md`)
//! are memory-bound on exactly that retention.
//!
//! [`TraceSink`] decouples *producing* sessions from *retaining* them:
//! the simulation hands each finished trace to a sink and drops it. Two
//! sinks cover the two consumers:
//!
//! * [`StreamingFold`] — incremental aggregation. Keeps scalar
//!   accumulators plus one `f64` per session (for exact percentiles);
//!   memory is ~8 bytes per session instead of the whole reception list.
//! * [`CollectTraces`] — the materializing path. Retains every trace,
//!   because packet-level [`crate::e2e`] replay and fault re-injection
//!   need the full reception lists. It is a caller's choice only:
//!   `SystemSim::execute` never collects on its own account. A sharded
//!   run moves each merge window's traces into a buffer it clears once
//!   the window has reached the caller's sink, so a sink that keeps
//!   nothing costs no memory per session on any path.
//!
//! The two must agree **bitwise**: [`CollectTraces::summarize`] performs
//! the same floating-point operations in the same (arrival) order as the
//! fold, so `StreamingFold::finish()` and a post-hoc summary of the
//! collected traces serialize to identical bytes. A test in this module
//! and the cross-model suite in `tests/` pin that equivalence — it is
//! what lets experiments switch to the streaming path without changing a
//! single published number.

use serde::{Deserialize, Serialize};
use vod_units::{Mbits, Minutes};

use crate::faults::StallReport;
use crate::trace::SessionTrace;

/// Consumes finished session traces one at a time, in arrival order.
///
/// Implementations must not assume the trace outlives the call — the
/// caller is free to drop it immediately afterwards (that is the point).
pub trait TraceSink {
    /// Accept one finished session.
    fn accept(&mut self, trace: &SessionTrace);

    /// Accept one session replayed under losses. The default folds the
    /// repaired trace and ignores the stall bookkeeping; statistics sinks
    /// override to account stall time and truncation too.
    fn accept_stalls(&mut self, report: &StallReport) {
        self.accept(&report.trace);
    }
}

/// A sink that drops everything — the zero-cost default.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn accept(&mut self, _trace: &SessionTrace) {}
}

/// Aggregate statistics over a population of sessions: the summary both
/// the streaming and the materializing paths produce.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSummary {
    /// Sessions folded.
    pub sessions: usize,
    /// Mean startup latency.
    pub mean_latency: Minutes,
    /// Median (p50) startup latency.
    pub p50_latency: Minutes,
    /// 95th-percentile startup latency.
    pub p95_latency: Minutes,
    /// Worst startup latency.
    pub worst_latency: Minutes,
    /// Worst per-session peak buffer.
    pub worst_buffer: Mbits,
    /// Total payload received across all sessions (the bandwidth side).
    pub total_received: Mbits,
    /// Total playback minutes delivered.
    pub delivered_minutes: Minutes,
    /// Largest per-session concurrent reception count.
    pub max_streams: usize,
    /// Total stall (frozen playback) minutes, when folded via
    /// [`TraceSink::accept_stalls`].
    pub stall_minutes: Minutes,
    /// Number of individual stalls.
    pub stalls: usize,
    /// Sessions whose loss repair gave up on at least one reception.
    pub truncated_sessions: usize,
}

/// Exact percentile over sorted latencies, the same nearest-rank rule
/// [`crate::system::SystemReport`] uses.
fn percentile(sorted: &[f64], q: f64) -> Minutes {
    if sorted.is_empty() {
        Minutes(0.0)
    } else {
        let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        Minutes(sorted[idx])
    }
}

/// The streaming fold: constant state per statistic plus one `f64` per
/// session for exact percentiles. Never retains a trace.
#[derive(Debug, Default, Clone)]
pub struct StreamingFold {
    sessions: usize,
    latency_sum: f64,
    latencies: Vec<f64>,
    worst_latency: f64,
    worst_buffer: f64,
    total_received: f64,
    delivered: f64,
    max_streams: usize,
    stall_minutes: f64,
    stalls: usize,
    truncated_sessions: usize,
}

impl StreamingFold {
    /// An empty fold.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one session from its pre-extracted scalars — exactly the
    /// operations [`TraceSink::accept`] performs, in the same order.
    ///
    /// `SystemSim` folds every session through here: the serial run as
    /// each session is served, the sharded run by capturing the scalars
    /// inside each shard and replaying them in global sweep order, which
    /// is what makes an `S`-shard fold bitwise identical to the one-shard
    /// fold (see `sim::shard`).
    pub fn fold_scalars(
        &mut self,
        latency: f64,
        peak_buffer: f64,
        total_received: f64,
        delivered: f64,
        max_streams: usize,
    ) {
        self.sessions += 1;
        self.latency_sum += latency;
        self.latencies.push(latency);
        self.worst_latency = self.worst_latency.max(latency);
        self.worst_buffer = self.worst_buffer.max(peak_buffer);
        self.total_received += total_received;
        self.delivered += delivered;
        self.max_streams = self.max_streams.max(max_streams);
    }

    /// Export the fold's accumulators as a [`FoldState`]: the running
    /// sums with their exact bits and the percentile buffer in fold order.
    #[must_use]
    pub fn freeze(&self) -> FoldState {
        FoldState {
            sessions: self.sessions,
            latency_sum: self.latency_sum,
            latencies: self.latencies.clone(),
            worst_latency: self.worst_latency,
            worst_buffer: self.worst_buffer,
            total_received: self.total_received,
            delivered: self.delivered,
            max_streams: self.max_streams,
            stall_minutes: self.stall_minutes,
            stalls: self.stalls,
            truncated_sessions: self.truncated_sessions,
        }
    }

    /// Finish the fold into a [`SessionSummary`].
    #[must_use]
    pub fn finish(&self) -> SessionSummary {
        let mut sorted = self.latencies.clone();
        sorted.sort_by(f64::total_cmp);
        SessionSummary {
            sessions: self.sessions,
            mean_latency: Minutes(if self.sessions > 0 {
                self.latency_sum / self.sessions as f64
            } else {
                0.0
            }),
            p50_latency: percentile(&sorted, 0.5),
            p95_latency: percentile(&sorted, 0.95),
            worst_latency: Minutes(self.worst_latency),
            worst_buffer: Mbits(self.worst_buffer),
            total_received: Mbits(self.total_received),
            delivered_minutes: Minutes(self.delivered),
            max_streams: self.max_streams,
            stall_minutes: Minutes(self.stall_minutes),
            stalls: self.stalls,
            truncated_sessions: self.truncated_sessions,
        }
    }
}

/// The exported accumulators of a [`StreamingFold`], as plain public
/// fields (the fold itself keeps its fields private — only
/// [`StreamingFold::freeze`] reads them out wholesale).
#[derive(Debug, Clone, PartialEq)]
pub struct FoldState {
    /// Sessions folded.
    pub sessions: usize,
    /// Running latency sum (association-sensitive: restored verbatim).
    pub latency_sum: f64,
    /// Per-session latencies for exact percentiles, in fold order.
    pub latencies: Vec<f64>,
    /// Worst latency so far.
    pub worst_latency: f64,
    /// Worst per-session peak buffer so far.
    pub worst_buffer: f64,
    /// Running total payload received.
    pub total_received: f64,
    /// Running playback minutes delivered.
    pub delivered: f64,
    /// Largest per-session concurrent reception count so far.
    pub max_streams: usize,
    /// Running stall minutes.
    pub stall_minutes: f64,
    /// Stalls counted.
    pub stalls: usize,
    /// Truncated sessions counted.
    pub truncated_sessions: usize,
}

impl TraceSink for StreamingFold {
    fn accept(&mut self, trace: &SessionTrace) {
        let (peak_buffer, max_streams) = trace.peak_buffer_and_streams(&mut Vec::new());
        self.fold_scalars(
            trace.startup_latency().value(),
            peak_buffer.value(),
            trace.total_received().value(),
            trace.playback_end().value() - trace.playback_start.value(),
            max_streams,
        );
    }

    fn accept_stalls(&mut self, report: &StallReport) {
        self.accept(&report.trace);
        self.stall_minutes += report.total_stall().value();
        self.stalls += report.stalls.len();
        if report.is_truncated() {
            self.truncated_sessions += 1;
        }
    }
}

/// The materializing sink: retains every trace (and stall report) whole,
/// for consumers that need the full reception lists — packet-level
/// [`crate::e2e`] replay, fault re-injection, trace serialization.
#[derive(Debug, Default, Clone)]
pub struct CollectTraces {
    /// Every accepted trace, in arrival order (repaired traces for
    /// sessions folded via [`TraceSink::accept_stalls`]).
    pub traces: Vec<SessionTrace>,
    /// Stall reports for the sessions that came with one, in arrival
    /// order. `(index into traces, stall minutes, stall count, truncated)`
    /// stays implicit: the report's trace is also in `traces`.
    pub stall_reports: Vec<StallReport>,
}

impl CollectTraces {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Summarize the retained traces post hoc — the materializing
    /// counterpart of [`StreamingFold::finish`]. Performs the identical
    /// floating-point operations in the identical order, so the result is
    /// **bitwise** equal to the streaming fold over the same sessions.
    #[must_use]
    pub fn summarize(&self) -> SessionSummary {
        let sessions = self.traces.len();
        let latencies: Vec<f64> = self
            .traces
            .iter()
            .map(|t| t.startup_latency().value())
            .collect();
        // Explicit 0.0-seeded folds, not `Iterator::sum` (which seeds
        // with -0.0): the streaming accumulators start at 0.0, and the
        // two paths must match bitwise even on empty input.
        let latency_sum: f64 = latencies.iter().fold(0.0, |a, &l| a + l);
        let mut sorted = latencies.clone();
        sorted.sort_by(f64::total_cmp);
        SessionSummary {
            sessions,
            mean_latency: Minutes(if sessions > 0 {
                latency_sum / sessions as f64
            } else {
                0.0
            }),
            p50_latency: percentile(&sorted, 0.5),
            p95_latency: percentile(&sorted, 0.95),
            worst_latency: Minutes(latencies.iter().fold(0.0f64, |a, &l| a.max(l))),
            worst_buffer: Mbits(
                self.traces
                    .iter()
                    .fold(0.0f64, |a, t| a.max(t.peak_buffer().value())),
            ),
            total_received: Mbits(
                self.traces
                    .iter()
                    .fold(0.0, |a, t| a + t.total_received().value()),
            ),
            delivered_minutes: Minutes(self.traces.iter().fold(0.0, |a, t| {
                a + (t.playback_end().value() - t.playback_start.value())
            })),
            max_streams: self
                .traces
                .iter()
                .fold(0usize, |a, t| a.max(t.max_concurrent_receptions())),
            stall_minutes: Minutes(
                self.stall_reports
                    .iter()
                    .fold(0.0, |a, r| a + r.total_stall().value()),
            ),
            stalls: self.stall_reports.iter().map(|r| r.stalls.len()).sum(),
            truncated_sessions: self
                .stall_reports
                .iter()
                .filter(|r| r.is_truncated())
                .count(),
        }
    }
}

impl TraceSink for CollectTraces {
    fn accept(&mut self, trace: &SessionTrace) {
        self.traces.push(trace.clone());
    }

    fn accept_stalls(&mut self, report: &StallReport) {
        self.traces.push(report.trace.clone());
        self.stall_reports.push(report.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{apply_losses, LossModel};
    use crate::policy::ClientPolicy;
    use crate::trace::ClientModel;
    use sb_core::config::SystemConfig;
    use sb_core::plan::VideoId;
    use sb_core::scheme::BroadcastScheme;
    use sb_core::series::Width;
    use sb_core::Skyscraper;
    use vod_units::Mbps;

    fn traces() -> (sb_core::plan::ChannelPlan, Vec<SessionTrace>) {
        let cfg = SystemConfig::paper_defaults(Mbps(300.0));
        let plan = Skyscraper::with_width(Width::Capped(52))
            .plan(&cfg)
            .unwrap();
        let traces = (0..40)
            .map(|i| {
                ClientPolicy::LatestFeasible
                    .session(
                        &plan,
                        VideoId(0),
                        Minutes(0.37 * i as f64),
                        cfg.display_rate,
                    )
                    .unwrap()
            })
            .collect();
        (plan, traces)
    }

    #[test]
    fn streaming_equals_materializing_bitwise() {
        let (_, ts) = traces();
        let mut fold = StreamingFold::new();
        let mut collect = CollectTraces::new();
        for t in &ts {
            fold.accept(t);
            collect.accept(t);
        }
        let a = fold.finish();
        let b = collect.summarize();
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "summaries must serialize to identical bytes"
        );
        assert_eq!(a.sessions, 40);
        assert!(a.worst_latency.value() > 0.0);
        assert!(a.total_received.value() > 0.0);
    }

    #[test]
    fn stall_accounting_folds_identically() {
        let (plan, ts) = traces();
        let losses = LossModel::new(0.2, 7).unwrap();
        let mut fold = StreamingFold::new();
        let mut collect = CollectTraces::new();
        for t in &ts {
            let report = apply_losses(&plan, t, &losses);
            fold.accept_stalls(&report);
            collect.accept_stalls(&report);
        }
        let a = fold.finish();
        let b = collect.summarize();
        assert_eq!(a, b);
        assert!(a.stalls > 0, "20% loss must stall someone");
        assert!(a.stall_minutes.value() > 0.0);
        assert_eq!(collect.traces.len(), 40);
        assert_eq!(collect.stall_reports.len(), 40);
    }

    #[test]
    fn empty_fold_is_well_defined() {
        let a = StreamingFold::new().finish();
        let b = CollectTraces::new().summarize();
        assert_eq!(a, b);
        assert_eq!(a.sessions, 0);
        assert_eq!(a.mean_latency, Minutes(0.0));
        assert_eq!(a.stalls, 0);
    }

    #[test]
    fn null_sink_accepts_everything() {
        let (_, ts) = traces();
        let mut sink = NullSink;
        for t in &ts {
            sink.accept(t);
        }
    }
}
