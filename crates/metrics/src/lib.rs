//! # Deterministic metrics for the simulator workspace
//!
//! An observability layer with one hard constraint inherited from the
//! experiment runner: **identical inputs must produce identical bytes**,
//! whatever the worker-pool size. Consequently this crate has none of the
//! usual metrics machinery — no clocks, no atomics, no sampling. A
//! [`Registry`] is a plain value owned by whoever is simulating; parallel
//! work shards record into private registries whose [`Snapshot`]s are
//! merged *in item-index order* by the caller, exactly like the runner
//! reassembles its results.
//!
//! Three instrument kinds, all keyed by `(family name, label set)`:
//!
//! * **counters** — monotone `u64` event counts (sessions, defections);
//! * **gauges** — high-water marks, merged by `max` (peak active
//!   sessions, peak busy channels);
//! * **histograms** — fixed, pre-declared bucket bounds plus exact
//!   `count`/`sum`, so merging is bucket-wise addition and the mean is
//!   exact (latency, waits, buffer occupancy).
//!
//! Families and series are stored in `BTreeMap`s: iteration (and thus
//! serialization) order is the sorted label order, never insertion order.
//! A simulation run records into a registry of its own and returns its
//! [`Snapshot`]; [`Snapshot::relabel`] adds a caller's labels to it
//! before a merge. The [`Recorder`] trait is the write-side seam for code
//! whose caller picks the destination; [`NullRecorder`] makes
//! instrumentation free on the un-instrumented paths.
//!
//! A recorder is two methods: [`Recorder::resolve`] maps a series key
//! `(name, labels, kind)` to a [`SeriesId`] handle, and
//! [`Recorder::apply`] applies a [`MetricOp`] through one. A hot loop
//! resolves each series lazily, the first time it records into it, and
//! then applies by handle: no label formatting, no map lookup, no
//! allocation per event. The string calls (`incr`, `gauge_max`,
//! `observe`) are provided on top of the two. A [`Registry`] keeps its
//! series in a dense slot table named by its sorted maps, and a series
//! resolved but never written is not exported, so handles leave
//! snapshot bytes exactly what the string calls alone produce.

#![forbid(unsafe_code)]

pub mod recorder;
pub mod registry;

pub use recorder::{NullRecorder, Recorder};
pub use registry::{
    FamilySnapshot, HistogramValue, MergeClash, MergeError, MetricKind, MetricOp, MetricValue,
    Registry, SeriesId, SeriesSnapshot, Snapshot, DEFAULT_BUCKETS,
};
