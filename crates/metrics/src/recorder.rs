//! The write-side seam the simulators record through.
//!
//! The simulators record into a [`crate::Registry`] of their own and
//! return its snapshot. The trait is for code that lets its caller
//! choose the destination: the degradation `replay` and the benchmark's
//! layer replica take `&mut dyn Recorder`, so the same code runs bare
//! (a [`NullRecorder`], zero cost) or instrumented (a registry). Keeping
//! the trait object at the call boundary — rather than a generic —
//! keeps every downstream signature monomorphic.
//!
//! The trait has two required methods. [`Recorder::resolve`] turns a
//! `(name, labels, kind)` series key into a [`SeriesId`], a dense index
//! into the recorder's own table; [`Recorder::apply`] mutates the series
//! a handle names. A hot loop resolves each series once — lazily, the
//! first time it has something to record — and then applies by handle,
//! with no string formatting or map lookup per event. The string calls
//! ([`Recorder::incr`], [`Recorder::gauge_max`], [`Recorder::observe`])
//! are provided methods that resolve and apply in one step, so callers
//! that record rarely keep their one-line form.
//!
//! Resolving is not recording: a series exists in a snapshot only once
//! an operation was applied to it.

use crate::registry::{MetricKind, MetricOp, Registry, SeriesId};

/// A sink for simulation events.
pub trait Recorder {
    /// The handle of the series `name{labels}` holding instrument `kind`.
    /// Resolving the same key again returns the same handle; a handle is
    /// valid only for the recorder that returned it.
    fn resolve(&mut self, name: &str, labels: &[(&str, &str)], kind: MetricKind) -> SeriesId;

    /// Apply `op` to the series `id` names. `op` must match the kind the
    /// series was resolved with.
    fn apply(&mut self, id: SeriesId, op: MetricOp);

    /// Add `by` to the counter `name{labels}`.
    fn incr(&mut self, name: &str, labels: &[(&str, &str)], by: u64) {
        let id = self.resolve(name, labels, MetricKind::Counter);
        self.apply(id, MetricOp::Incr(by));
    }

    /// Raise the gauge `name{labels}` to `v` if higher.
    fn gauge_max(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let id = self.resolve(name, labels, MetricKind::Gauge);
        self.apply(id, MetricOp::GaugeMax(v));
    }

    /// Record `v` into the histogram `name{labels}`.
    fn observe(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let id = self.resolve(name, labels, MetricKind::Histogram);
        self.apply(id, MetricOp::Observe(v));
    }
}

impl Recorder for Registry {
    fn resolve(&mut self, name: &str, labels: &[(&str, &str)], kind: MetricKind) -> SeriesId {
        Registry::resolve(self, name, labels, kind)
    }
    fn apply(&mut self, id: SeriesId, op: MetricOp) {
        Registry::apply(self, id, op);
    }
}

/// Discards everything — the un-instrumented paths' recorder.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn resolve(&mut self, _name: &str, _labels: &[(&str, &str)], _kind: MetricKind) -> SeriesId {
        SeriesId::new(0)
    }
    fn apply(&mut self, _id: SeriesId, _op: MetricOp) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_into(rec: &mut dyn Recorder) {
        rec.incr("events", &[("kind", "a")], 2);
        rec.gauge_max("peak", &[], 4.5);
        rec.observe("lat", &[], 0.7);
    }

    #[test]
    fn registry_implements_recorder() {
        let mut r = Registry::new();
        record_into(&mut r);
        let s = r.snapshot();
        assert_eq!(s.counter("events", "kind=a"), Some(2));
        assert_eq!(s.histogram("lat", "").unwrap().count, 1);
    }

    #[test]
    fn null_recorder_discards() {
        let mut n = NullRecorder;
        record_into(&mut n);
    }
}
