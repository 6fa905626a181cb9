//! The write-side seam the simulators record through.
//!
//! Simulation code takes `&mut dyn Recorder` so the same run can be
//! driven bare (a [`NullRecorder`], zero cost, the historical output
//! paths) or instrumented (a [`crate::Registry`] that snapshots into the
//! run's report). Keeping the trait object at the call boundary — rather
//! than a generic — keeps every downstream signature monomorphic and the
//! public APIs unchanged.
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
//! Resolving is not recording: a series exists in a snapshot, or in an
//! [`OpLog`]'s replay, only once an operation was applied to it.

use std::collections::HashMap;

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

/// Duplicates every event into two recorders, `a` first.
///
/// The controlled simulation records into a private [`Registry`] (the
/// run's snapshot) while simultaneously feeding any caller-supplied
/// recorder; the tee is what keeps both sides seeing the identical event
/// stream. Its handles index pairs of the two sides' handles.
pub struct TeeRecorder<'a> {
    a: &'a mut dyn Recorder,
    b: &'a mut dyn Recorder,
    pairs: Vec<(SeriesId, SeriesId)>,
    index: HashMap<(SeriesId, SeriesId), SeriesId>,
}

impl<'a> TeeRecorder<'a> {
    /// A tee feeding `a`, then `b`.
    pub fn new(a: &'a mut dyn Recorder, b: &'a mut dyn Recorder) -> Self {
        Self {
            a,
            b,
            pairs: Vec::new(),
            index: HashMap::new(),
        }
    }
}

impl Recorder for TeeRecorder<'_> {
    fn resolve(&mut self, name: &str, labels: &[(&str, &str)], kind: MetricKind) -> SeriesId {
        let pair = (
            self.a.resolve(name, labels, kind),
            self.b.resolve(name, labels, kind),
        );
        *self.index.entry(pair).or_insert_with(|| {
            self.pairs.push(pair);
            SeriesId::new(self.pairs.len() - 1)
        })
    }
    fn apply(&mut self, id: SeriesId, op: MetricOp) {
        let (a, b) = self.pairs[id.index()];
        self.a.apply(a, op);
        self.b.apply(b, op);
    }
}

/// One interned series key of an [`OpLog`].
#[derive(Debug, Clone, PartialEq)]
struct SeriesKey {
    name: String,
    labels: Vec<(String, String)>,
    kind: MetricKind,
}

/// A recorder that buffers its event stream for deterministic replay.
///
/// Parallel shards cannot share one `&mut dyn Recorder`; instead each
/// shard records into a private [`OpLog`], and the caller
/// [`OpLog::replay`]s the logs *in shard order* into the destination
/// recorder after the join. Replay preserves per-series event order
/// (each series lives on exactly one shard in the sharded simulation), so
/// the destination ends in the same state a serial run would have
/// produced.
///
/// Each distinct series key is stored once; an event is a key index and
/// the operation.
#[derive(Debug, Default, Clone)]
pub struct OpLog {
    keys: Vec<SeriesKey>,
    /// Encoded key → its index in `keys`.
    index: HashMap<String, SeriesId>,
    /// Scratch buffer for the encoded key, so resolving an interned key
    /// allocates nothing.
    scratch: String,
    ops: Vec<(SeriesId, MetricOp)>,
}

impl OpLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when no events were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Replay the buffered events, in recording order, into `rec`. Each
    /// series is resolved in `rec` at its first event, so a key that was
    /// resolved here but never written stays unknown to `rec`.
    pub fn replay(&self, rec: &mut dyn Recorder) {
        let mut ids: Vec<Option<SeriesId>> = vec![None; self.keys.len()];
        for &(key, op) in &self.ops {
            let id = *ids[key.index()].get_or_insert_with(|| {
                let k = &self.keys[key.index()];
                let labels: Vec<(&str, &str)> = k
                    .labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                rec.resolve(&k.name, &labels, k.kind)
            });
            rec.apply(id, op);
        }
    }
}

impl Recorder for OpLog {
    fn resolve(&mut self, name: &str, labels: &[(&str, &str)], kind: MetricKind) -> SeriesId {
        // Length-prefixed parts, so distinct keys never encode alike.
        use std::fmt::Write as _;
        self.scratch.clear();
        let _ = write!(self.scratch, "{kind:?}");
        for part in std::iter::once(name).chain(labels.iter().flat_map(|&(k, v)| [k, v])) {
            let _ = write!(self.scratch, "/{}:{part}", part.len());
        }
        if let Some(&id) = self.index.get(self.scratch.as_str()) {
            return id;
        }
        let id = SeriesId::new(self.keys.len());
        self.keys.push(SeriesKey {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            kind,
        });
        self.index.insert(self.scratch.clone(), id);
        id
    }

    fn apply(&mut self, id: SeriesId, op: MetricOp) {
        self.ops.push((id, op));
    }
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

    #[test]
    fn tee_feeds_both_sides_identically() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        {
            let mut tee = TeeRecorder::new(&mut a, &mut b);
            record_into(&mut tee);
            record_into(&mut tee);
            // One tee handle per distinct series, however often resolved.
            assert_eq!(tee.pairs.len(), 3);
        }
        assert_eq!(
            serde_json::to_string(&a.snapshot()).unwrap(),
            serde_json::to_string(&b.snapshot()).unwrap()
        );
    }

    #[test]
    fn oplog_replay_reproduces_the_direct_registry() {
        let mut direct = Registry::new();
        record_into(&mut direct);
        record_into(&mut direct);
        let mut log = OpLog::new();
        record_into(&mut log);
        record_into(&mut log);
        assert_eq!(log.len(), 6);
        assert_eq!(log.keys.len(), 3, "each series key is stored once");
        assert!(!log.is_empty());
        let mut replayed = Registry::new();
        log.replay(&mut replayed);
        assert_eq!(
            serde_json::to_string(&direct.snapshot()).unwrap(),
            serde_json::to_string(&replayed.snapshot()).unwrap()
        );
    }

    #[test]
    fn oplog_keys_do_not_collide() {
        let mut log = OpLog::new();
        let ids = [
            log.resolve("a", &[("b", "c")], MetricKind::Counter),
            log.resolve("a", &[("b", "c")], MetricKind::Gauge),
            log.resolve("a", &[("bc", "")], MetricKind::Counter),
            log.resolve("a", &[("b", ""), ("", "c")], MetricKind::Counter),
            log.resolve("ab", &[("", "c")], MetricKind::Counter),
        ];
        for (i, a) in ids.iter().enumerate() {
            for b in &ids[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(log.resolve("a", &[("b", "c")], MetricKind::Counter), ids[0]);
    }
}
