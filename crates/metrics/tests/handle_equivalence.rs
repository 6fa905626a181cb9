//! Handles are an optimisation, never a semantic: any interleaving of
//! string calls and handle calls leaves a recorder in the state the
//! string calls alone produce, byte for byte — directly, across a
//! `Registry::from_snapshot` resume, and relabeled afterwards with
//! `Snapshot::relabel`. Series that are resolved but never written
//! appear nowhere.

use proptest::prelude::*;
use sb_metrics::{MetricKind, MetricOp, Recorder, Registry, SeriesId, Snapshot};

/// A series key: family name, label pairs, instrument kind.
type Key = (
    &'static str,
    &'static [(&'static str, &'static str)],
    MetricKind,
);

/// The series the random streams write: every kind, empty and
/// multi-pair label sets, and two families sharing a label set.
const SERIES: [Key; 8] = [
    ("c", &[("k", "a")], MetricKind::Counter),
    ("c", &[("k", "b")], MetricKind::Counter),
    ("c2", &[("a", "1"), ("b", "2")], MetricKind::Counter),
    ("g", &[], MetricKind::Gauge),
    ("g", &[("k", "a")], MetricKind::Gauge),
    ("h", &[("v", "0")], MetricKind::Histogram),
    ("h", &[("v", "1")], MetricKind::Histogram),
    ("h2", &[], MetricKind::Histogram),
];

/// Series every handle-using recorder resolves up front and never
/// writes: one in a written family, one in a family of its own.
const IDLE: [Key; 2] = [
    ("h", &[("v", "9")], MetricKind::Histogram),
    ("idle", &[], MetricKind::Counter),
];

fn op(kind: MetricKind, v: f64) -> MetricOp {
    match kind {
        MetricKind::Counter => MetricOp::Incr(v as u64),
        MetricKind::Gauge => MetricOp::GaugeMax(v),
        MetricKind::Histogram => MetricOp::Observe(v),
    }
}

/// Write one event through the string path.
fn by_string(rec: &mut dyn Recorder, series: usize, v: f64) {
    by_string_with(rec, series, v, &[]);
}

/// Write one event through the string path, `extra` appended to the
/// series' labels.
fn by_string_with(rec: &mut dyn Recorder, series: usize, v: f64, extra: &[(&str, &str)]) {
    let (name, labels, kind) = SERIES[series];
    let mut labels = labels.to_vec();
    labels.extend_from_slice(extra);
    match op(kind, v) {
        MetricOp::Incr(by) => rec.incr(name, &labels, by),
        MetricOp::GaugeMax(v) => rec.gauge_max(name, &labels, v),
        MetricOp::Observe(v) => rec.observe(name, &labels, v),
    }
}

/// A recorder driven by a mixed stream: a lazily filled handle table
/// per recorder, and the idle series resolved before anything else.
struct Mixed {
    handles: [Option<SeriesId>; SERIES.len()],
}

impl Mixed {
    fn new(rec: &mut dyn Recorder) -> Self {
        for (name, labels, kind) in IDLE {
            rec.resolve(name, labels, kind);
        }
        Self {
            handles: [None; SERIES.len()],
        }
    }

    fn write(&mut self, rec: &mut dyn Recorder, series: usize, v: f64, via_handle: bool) {
        if !via_handle {
            return by_string(rec, series, v);
        }
        let (name, labels, kind) = SERIES[series];
        let id = *self.handles[series].get_or_insert_with(|| rec.resolve(name, labels, kind));
        rec.apply(id, op(kind, v));
    }
}

fn bytes(s: &Snapshot) -> String {
    serde_json::to_string(s).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn handle_and_string_calls_give_the_same_bytes(
        series in prop::collection::vec(0usize..SERIES.len(), 1..80),
        values in prop::collection::vec(0.0f64..200.0, 80),
        via_handle in prop::collection::vec(any::<bool>(), 80),
        split in 0usize..80,
    ) {
        let events: Vec<(usize, f64, bool)> = series
            .iter()
            .zip(&values)
            .zip(&via_handle)
            .map(|((&s, &v), &h)| (s, v, h))
            .collect();
        let split = split.min(events.len());

        // The reference: string calls alone.
        let mut reference = Registry::new();
        for &(s, v, _) in &events {
            by_string(&mut reference, s, v);
        }
        let want = bytes(&reference.snapshot());

        // Mixed calls into one registry.
        let mut direct = Registry::new();
        let mut mixed = Mixed::new(&mut direct);
        for &(s, v, h) in &events {
            mixed.write(&mut direct, s, v, h);
        }
        prop_assert_eq!(bytes(&direct.snapshot()), want.clone(), "direct");

        // Mixed calls, snapshotted at `split` and resumed in a fresh
        // registry whose handles are resolved anew.
        let mut prefix = Registry::new();
        let mut mixed = Mixed::new(&mut prefix);
        for &(s, v, h) in &events[..split] {
            mixed.write(&mut prefix, s, v, h);
        }
        let mut resumed = Registry::from_snapshot(&prefix.snapshot());
        let mut mixed = Mixed::new(&mut resumed);
        for &(s, v, h) in &events[split..] {
            mixed.write(&mut resumed, s, v, h);
        }
        prop_assert_eq!(bytes(&resumed.snapshot()), want.clone(), "resumed");

        // Mixed calls relabeled afterwards: the string calls alone with
        // the extra labels on every series.
        let extra = [("policy", "a+"), ("k", "")];
        let mut labeled = Registry::new();
        for &(s, v, _) in &events {
            by_string_with(&mut labeled, s, v, &extra);
        }
        prop_assert_eq!(
            bytes(&direct.snapshot().relabel(&extra)),
            bytes(&labeled.snapshot()),
            "relabeled"
        );
    }
}
