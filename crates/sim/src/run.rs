//! The one run entry point: [`RunConfig`] and [`RunOutcome`].
//!
//! A [`RunConfig`] describes a run by what every executor reads — the
//! requests, the shard count, the worker threads, the shard-hash seed
//! and the scenario's partition table — plus, on system runs only, a
//! sink for the session traces:
//!
//! ```text
//! RunConfig::new(&requests)
//!     .sink(&mut fold)          // optional, system runs only: stream finished traces
//!     .shards(4)                // optional: partitioned scale-out
//!     .threads(4)               // optional: worker pool for the shards
//!     .seed(7)                  // optional: catalog-to-shard hash seed
//!     .partition(&map)          // optional: scenario's video → shard table
//! ```
//!
//! consumed by `SystemSim::execute` (and, over the control plane's
//! request type, by `ControlledSim::execute`, whose fault script lives on
//! the simulator, not on the run). The outcome
//! always carries the report, the streamed [`SessionSummary`], merged
//! [`EngineStats`], and a metrics [`Snapshot`] — byte-identical for any
//! shard count and any thread count (see `sim::shard`). The snapshot is
//! the run's one metrics output: a caller that wants the run's metrics
//! under extra labels, or folded into its own, takes
//! [`Snapshot::relabel`] and [`Snapshot::merge`] of it.

use sb_metrics::Snapshot;

use crate::engine::EngineStats;
use crate::sink::{SessionSummary, TraceSink};
use crate::system::{Request, SystemReport};

/// Declarative description of one simulation run.
///
/// Generic over the request type `R` (the system sim's [`Request`], the
/// control plane's `WorkloadRequest`). Build with [`RunConfig::new`]
/// plus the chained setters; executors destructure via
/// [`RunConfig::into_parts`]. Only a [`Request`] config has a
/// [`sink`](RunConfig::sink) setter: the other executors produce no
/// session traces for one to read.
pub struct RunConfig<'a, R> {
    requests: &'a [R],
    sink: Option<&'a mut dyn TraceSink>,
    shards: usize,
    threads: usize,
    seed: u64,
    partition: Option<&'a [usize]>,
}

impl<'a, R> RunConfig<'a, R> {
    /// A run over `requests` with every slot empty: one shard, one
    /// thread, seed 0, no sink.
    #[must_use]
    pub fn new(requests: &'a [R]) -> Self {
        Self {
            requests,
            sink: None,
            shards: 1,
            threads: 1,
            seed: 0,
            partition: None,
        }
    }

    /// Partition the run across `shards` server shards (default 1).
    /// Results are byte-identical for every shard count.
    ///
    /// # Panics
    /// Panics if `shards` is zero — there is no zero-server system.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "a run needs at least one shard");
        self.shards = shards;
        self
    }

    /// Worker threads for the shard pool (default 1; 0 = one per core).
    /// Purely an execution knob: results never depend on it.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Seed for the stable catalog-to-shard hash (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The scenario slot: a per-video owning-shard table
    /// (`map[video] % shards` is the shard that runs the session),
    /// replacing the default seeded hash. This is how a metropolitan
    /// scenario pins each region's catalog slice — and with it the
    /// region's arrival stream and channel budget — to one shard.
    /// Videos beyond the table's length fall back to the hash. Results
    /// stay byte-identical for every shard count either way: the
    /// partition only decides *where* a session runs, the ordered-replay
    /// merge restores the global order (see `sim::shard`).
    #[must_use]
    pub fn partition(mut self, map: &'a [usize]) -> Self {
        self.partition = Some(map);
        self
    }

    /// Destructure into the executor-facing parts.
    #[must_use]
    pub fn into_parts(self) -> RunParts<'a, R> {
        RunParts {
            requests: self.requests,
            sink: self.sink,
            shards: self.shards,
            threads: self.threads,
            seed: self.seed,
            partition: self.partition,
        }
    }
}

impl<'a> RunConfig<'a, Request> {
    /// Stream every finished session trace into `sink`.
    ///
    /// The sink observes every trace in global sweep order. With
    /// `shards(1)` it sees each as it finishes, retaining nothing; with
    /// more shards the executor buffers one merge window of traces
    /// (about a thousand sessions) at a time, however long the run.
    #[must_use]
    pub fn sink(mut self, sink: &'a mut dyn TraceSink) -> Self {
        self.sink = Some(sink);
        self
    }
}

/// The destructured fields of a [`RunConfig`], for executors.
pub struct RunParts<'a, R> {
    /// The request stream (need not be sorted).
    pub requests: &'a [R],
    /// Optional trace sink; only a [`Request`] config can set it.
    pub sink: Option<&'a mut dyn TraceSink>,
    /// Shard count (≥ 1).
    pub shards: usize,
    /// Worker threads (0 = one per core).
    pub threads: usize,
    /// Shard-hash seed.
    pub seed: u64,
    /// Optional per-video owning-shard table (the scenario slot).
    pub partition: Option<&'a [usize]>,
}

/// Everything a system run produces, whatever the slot combination.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The run's report (identical to the historical
    /// `SystemSim::run` output).
    pub summary: SystemReport,
    /// The streamed population summary ([`crate::sink::StreamingFold`]
    /// over every session, in global sweep order).
    pub fold: SessionSummary,
    /// Engine statistics, summed across shards; `peak_agenda` is the
    /// *maximum* over shards (the largest single agenda anywhere) and is
    /// the one field that legitimately varies with the shard count.
    /// `SystemSim` runs without an engine and reports the counts of the
    /// one its sweep replaced: two events per session, none cancelled,
    /// and a shard's session count as its agenda peak.
    pub stats: EngineStats,
    /// Each shard's agenda high-water mark, in shard order (`len ==
    /// shards`): the per-server memory story of a scale-out run.
    pub shard_peak_agenda: Vec<u64>,
    /// Snapshot of the run's metrics registry, merged across shards in
    /// shard order.
    pub snapshot: Snapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_one_serial_unseeded_shard() {
        let reqs: Vec<u8> = vec![1, 2, 3];
        let parts = RunConfig::new(&reqs).into_parts();
        assert_eq!(parts.requests, &[1, 2, 3]);
        assert!(parts.sink.is_none());
        assert_eq!((parts.shards, parts.threads, parts.seed), (1, 1, 0));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let reqs: Vec<u8> = Vec::new();
        let _ = RunConfig::new(&reqs).shards(0);
    }
}
