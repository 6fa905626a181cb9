//! The metric store: labeled families of counters, gauges and histograms,
//! and the serializable [`Snapshot`] they export.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Default histogram bucket upper bounds (minutes-scale quantities).
///
/// A final `+∞` bucket is always implied, so `counts.len()` is
/// `bounds.len() + 1`.
pub const DEFAULT_BUCKETS: [f64; 10] = [0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 120.0];

/// What kind of instrument a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Monotone event count.
    Counter,
    /// High-water mark, merged by `max`.
    Gauge,
    /// Fixed-bucket distribution with exact count and sum.
    Histogram,
}

/// A histogram over fixed bucket bounds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramValue {
    /// Bucket upper bounds, strictly increasing; a `+∞` bucket is implied.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Exact sum of observed values.
    pub sum: f64,
}

impl HistogramValue {
    /// An empty histogram over the given bounds.
    ///
    /// # Panics
    /// Panics unless `bounds` is non-empty, finite and strictly increasing.
    #[must_use]
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite and strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        self.observe_times(v, 1);
    }

    /// Count `v` in its bucket `times` times over and add it to the sum
    /// once: the first of `times` observations of `v`.
    fn observe_times(&mut self, v: f64, times: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += times;
        self.count += times;
        self.sum += v;
    }

    /// Fold another histogram into this one (bucket-wise addition).
    ///
    /// # Errors
    /// [`MergeClash::Bounds`] when the bucket bounds differ; `self` is
    /// left unchanged.
    pub fn merge(&mut self, other: &Self) -> Result<(), MergeClash> {
        if self.bounds != other.bounds {
            return Err(MergeClash::Bounds);
        }
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        Ok(())
    }

    /// Exact mean of the observations (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One series' current value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram(HistogramValue),
}

/// A series resolved by a [`crate::Recorder`]: a dense index into that
/// recorder's own series table, valid only for the recorder that
/// returned it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeriesId(usize);

impl SeriesId {
    /// The handle for slot `index` of a recorder's table.
    #[must_use]
    pub(crate) const fn new(index: usize) -> Self {
        Self(index)
    }
}

/// One metric mutation, applied to a resolved series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricOp {
    /// Add to a counter.
    Incr(u64),
    /// Raise a gauge to this value if higher.
    GaugeMax(f64),
    /// Record an observation into a histogram.
    Observe(f64),
}

#[derive(Debug, Clone)]
struct Family {
    kind: MetricKind,
    buckets: Vec<f64>,
    /// Every resolved series of the family, by canonical label key.
    series: BTreeMap<String, SeriesId>,
    /// Restored by [`Registry::from_snapshot`]: exported even with no
    /// live series, as the snapshot it came from had it.
    restored: bool,
}

/// One series' storage. `live` turns true at the first applied
/// operation; until then the series is resolved but not exported.
#[derive(Debug, Clone)]
struct Slot {
    value: MetricValue,
    live: bool,
}

/// The in-process metric store.
///
/// Plain value semantics by design: no interior mutability, no
/// global state. Each simulation shard owns its registry; cross-shard
/// aggregation happens through [`Snapshot::merge`] in a caller-chosen
/// (index) order.
///
/// Series live in one dense slot table that [`SeriesId`]s index; the
/// sorted family and label maps only name the slots, so a snapshot
/// walks them in sorted order whatever order the series were resolved
/// in. Resolving a series does not export it: a series appears in
/// [`Registry::snapshot`] once an operation has been applied to it,
/// exactly as when every call went through the string path.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    families: BTreeMap<String, Family>,
    slots: Vec<Slot>,
    /// Scratch buffer for the label key, so resolving an existing
    /// series allocates nothing.
    key: String,
}

/// Write the canonical label-set key into `out`: `k=v` pairs joined by
/// `,` in caller order.
fn label_key(labels: &[(&str, &str)], out: &mut String) {
    out.clear();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The handle of the series `name{labels}` of instrument `kind`,
    /// creating its slot on first use. Histograms take
    /// [`DEFAULT_BUCKETS`], or the bounds a restored family carries.
    ///
    /// # Panics
    /// Panics if `name` already holds another instrument kind — one
    /// family name used as two kinds is a programming error.
    pub fn resolve(&mut self, name: &str, labels: &[(&str, &str)], kind: MetricKind) -> SeriesId {
        label_key(labels, &mut self.key);
        if let Some(f) = self.families.get(name) {
            assert_eq!(f.kind, kind, "metric {name} used as two different kinds");
            if let Some(&id) = f.series.get(self.key.as_str()) {
                return id;
            }
        }
        let f = self
            .families
            .entry(name.to_string())
            .or_insert_with(|| Family {
                kind,
                buckets: DEFAULT_BUCKETS.to_vec(),
                series: BTreeMap::new(),
                restored: false,
            });
        let value = match kind {
            MetricKind::Counter => MetricValue::Counter(0),
            MetricKind::Gauge => MetricValue::Gauge(f64::NEG_INFINITY),
            MetricKind::Histogram => MetricValue::Histogram(HistogramValue::new(&f.buckets)),
        };
        let id = SeriesId::new(self.slots.len());
        self.slots.push(Slot { value, live: false });
        f.series.insert(self.key.clone(), id);
        id
    }

    /// Apply `op` to the series `id` names.
    ///
    /// # Panics
    /// Panics if `id` did not come from this registry's
    /// [`Registry::resolve`], or names a series of another kind than
    /// `op`'s.
    pub fn apply(&mut self, id: SeriesId, op: MetricOp) {
        let slot = &mut self.slots[id.0];
        match (&mut slot.value, op) {
            (MetricValue::Counter(c), MetricOp::Incr(by)) => *c += by,
            (MetricValue::Gauge(g), MetricOp::GaugeMax(v)) => *g = g.max(v),
            (MetricValue::Histogram(h), MetricOp::Observe(v)) => h.observe(v),
            _ => panic!("{op:?} applied to a series of another kind"),
        }
        slot.live = true;
    }

    /// Observe each `(id, v)` of `observations`, in list order, `times`
    /// times over: bit for bit what `times` passes of
    /// `apply(id, MetricOp::Observe(v))` over the list give. Bucket counts
    /// and `count` grow by `times` per entry in one step, but a float sum
    /// depends on the order of its additions, so each series' `sum`
    /// repeats its own additions pass after pass, in list order; it is
    /// neither `v * times` nor grouped by value. `times == 0` applies
    /// nothing.
    ///
    /// # Panics
    /// Panics if an `id` did not come from this registry's
    /// [`Registry::resolve`] or names a series that is not a histogram.
    pub fn observe_repeated(&mut self, observations: &[(SeriesId, f64)], times: u64) {
        if times == 0 {
            return;
        }
        for &(id, v) in observations {
            let slot = &mut self.slots[id.0];
            histogram(&mut slot.value).observe_times(v, times);
            slot.live = true;
        }
        for _ in 1..times {
            for &(id, v) in observations {
                histogram(&mut self.slots[id.0].value).sum += v;
            }
        }
    }

    /// Add `by` to the counter `name{labels}`.
    pub fn incr(&mut self, name: &str, labels: &[(&str, &str)], by: u64) {
        let id = self.resolve(name, labels, MetricKind::Counter);
        self.apply(id, MetricOp::Incr(by));
    }

    /// Raise the gauge `name{labels}` to `v` if `v` is higher.
    pub fn gauge_max(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let id = self.resolve(name, labels, MetricKind::Gauge);
        self.apply(id, MetricOp::GaugeMax(v));
    }

    /// Record `v` into the histogram `name{labels}`.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let id = self.resolve(name, labels, MetricKind::Histogram);
        self.apply(id, MetricOp::Observe(v));
    }

    /// Rebuild a registry from a [`Snapshot`], the exact inverse of
    /// [`Registry::snapshot`]: `Registry::from_snapshot(&r.snapshot())`
    /// observes like `r` itself from that point on, bit for bit.
    ///
    /// This is the checkpoint/restore path's primitive — a crashed shard
    /// resumes its metric state mid-run and keeps accumulating into the
    /// *same* counters, gauges and float sums, so the final snapshot is
    /// byte-identical to an uninterrupted run. (Merging a checkpoint
    /// snapshot with a freshly-recorded tail would not be: float sums
    /// re-associate.)
    ///
    /// Histogram families recover their bucket bounds from the first
    /// series' stored [`HistogramValue::bounds`]; a histogram family with
    /// no series yet falls back to [`DEFAULT_BUCKETS`], which is the only
    /// shape the simulation core ever declares.
    #[must_use]
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        let mut reg = Self::default();
        for f in &snap.families {
            let buckets = f
                .series
                .iter()
                .find_map(|s| match &s.value {
                    MetricValue::Histogram(h) => Some(h.bounds.clone()),
                    _ => None,
                })
                .unwrap_or_else(|| DEFAULT_BUCKETS.to_vec());
            let mut series = BTreeMap::new();
            for s in &f.series {
                series.insert(s.labels.clone(), SeriesId(reg.slots.len()));
                reg.slots.push(Slot {
                    value: s.value.clone(),
                    live: true,
                });
            }
            reg.families.insert(
                f.name.clone(),
                Family {
                    kind: f.kind,
                    buckets,
                    series,
                    restored: true,
                },
            );
        }
        reg
    }

    /// Export the registry as a serializable, mergeable [`Snapshot`].
    /// Families and series appear in sorted-name order — the same bytes
    /// however the registry was filled, and whichever series were
    /// resolved but never written.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut families = Vec::with_capacity(self.families.len());
        for (name, f) in &self.families {
            let series: Vec<SeriesSnapshot> = f
                .series
                .iter()
                .filter(|(_, id)| self.slots[id.0].live)
                .map(|(labels, id)| SeriesSnapshot {
                    labels: labels.clone(),
                    value: self.slots[id.0].value.clone(),
                })
                .collect();
            if f.restored || !series.is_empty() {
                families.push(FamilySnapshot {
                    name: name.clone(),
                    kind: f.kind,
                    series,
                });
            }
        }
        Snapshot { families }
    }
}

/// The histogram a [`Registry::observe_repeated`] entry names.
fn histogram(value: &mut MetricValue) -> &mut HistogramValue {
    match value {
        MetricValue::Histogram(h) => h,
        _ => panic!("observations repeated into a series of another kind"),
    }
}

/// What made two snapshots unmergeable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeClash {
    /// The same family or series holds two instrument kinds.
    Kind,
    /// The same histogram series has two different bucket bound lists.
    Bounds,
}

/// A [`Snapshot::merge`] failure: the family or series (`name{labels}`)
/// whose two sides clash, and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeError {
    /// The clashing family, with `{labels}` when one series clashes.
    pub series: String,
    /// What clashed.
    pub clash: MergeClash,
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.clash {
            MergeClash::Kind => write!(f, "metric {} has two kinds", self.series),
            MergeClash::Bounds => {
                write!(f, "histogram {} has mismatched bucket bounds", self.series)
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// One series inside a [`FamilySnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesSnapshot {
    /// Canonical label string (`k=v` pairs joined by `,`).
    pub labels: String,
    /// The series value.
    pub value: MetricValue,
}

/// One metric family inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamilySnapshot {
    /// Family name.
    pub name: String,
    /// Instrument kind.
    pub kind: MetricKind,
    /// Series in sorted label order.
    pub series: Vec<SeriesSnapshot>,
}

/// A point-in-time export of a [`Registry`]: sorted, serializable, and
/// mergeable. Merging is commutative for counters and gauges and
/// order-independent for histograms of equal bounds, but callers should
/// still merge in a deterministic (index) order so float sums accumulate
/// identically run to run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Snapshot {
    /// Families in sorted name order.
    pub families: Vec<FamilySnapshot>,
}

impl Snapshot {
    /// Fold `other` into `self`: counters add, gauges take the max,
    /// histograms add bucket-wise. Families or series present on one side
    /// only are kept as-is.
    ///
    /// # Errors
    /// [`MergeError`] when the same family or series has different kinds
    /// or histogram bounds on the two sides. `self` may then hold part of
    /// `other`; callers drop it.
    pub fn merge(&mut self, other: &Snapshot) -> Result<(), MergeError> {
        for of in &other.families {
            let pos = match self.families.binary_search_by(|f| f.name.cmp(&of.name)) {
                Err(pos) => {
                    self.families.insert(pos, of.clone());
                    continue;
                }
                Ok(pos) => pos,
            };
            let f = &mut self.families[pos];
            if f.kind != of.kind {
                return Err(MergeError {
                    series: f.name.clone(),
                    clash: MergeClash::Kind,
                });
            }
            for os in &of.series {
                let pos = match f.series.binary_search_by(|s| s.labels.cmp(&os.labels)) {
                    Err(pos) => {
                        f.series.insert(pos, os.clone());
                        continue;
                    }
                    Ok(pos) => pos,
                };
                match (&mut f.series[pos].value, &os.value) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => {
                        *a += b;
                        Ok(())
                    }
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => {
                        *a = a.max(*b);
                        Ok(())
                    }
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                    _ => Err(MergeClash::Kind),
                }
                .map_err(|clash| MergeError {
                    series: format!("{}{{{}}}", f.name, os.labels),
                    clash,
                })?;
            }
        }
        Ok(())
    }

    /// Merge an ordered sequence of snapshots (index order = determinism).
    ///
    /// # Errors
    /// The first [`MergeError`] any part raises.
    pub fn merged(parts: impl IntoIterator<Item = Snapshot>) -> Result<Snapshot, MergeError> {
        let mut out = Snapshot::default();
        for p in parts {
            out.merge(&p)?;
        }
        Ok(out)
    }

    /// The snapshot with `extra` appended to every series' labels, keyed
    /// exactly as a registry that resolved `labels ++ extra` for each
    /// series would key it, and each family's series re-sorted under
    /// the new keys. This is how a caller keeps several runs' snapshots
    /// apart in one merge (a `policy` or `scheme` label per run).
    #[must_use]
    pub fn relabel(&self, extra: &[(&str, &str)]) -> Snapshot {
        let mut suffix = String::new();
        label_key(extra, &mut suffix);
        let families = self
            .families
            .iter()
            .map(|f| {
                let mut series: Vec<SeriesSnapshot> = f
                    .series
                    .iter()
                    .map(|s| SeriesSnapshot {
                        labels: match (s.labels.is_empty(), suffix.is_empty()) {
                            (_, true) => s.labels.clone(),
                            (true, false) => suffix.clone(),
                            (false, false) => format!("{},{suffix}", s.labels),
                        },
                        value: s.value.clone(),
                    })
                    .collect();
                series.sort_by(|a, b| a.labels.cmp(&b.labels));
                FamilySnapshot {
                    name: f.name.clone(),
                    kind: f.kind,
                    series,
                }
            })
            .collect();
        Snapshot { families }
    }

    /// Look up a family by name.
    #[must_use]
    pub fn family(&self, name: &str) -> Option<&FamilySnapshot> {
        self.families
            .binary_search_by(|f| f.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.families[i])
    }

    /// A counter series' value, if present.
    #[must_use]
    pub fn counter(&self, name: &str, labels: &str) -> Option<u64> {
        match self.series_value(name, labels)? {
            MetricValue::Counter(c) => Some(*c),
            _ => None,
        }
    }

    /// Sum of every series of a counter family (0 when absent).
    #[must_use]
    pub fn counter_total(&self, name: &str) -> u64 {
        self.family(name).map_or(0, |f| {
            f.series
                .iter()
                .map(|s| match &s.value {
                    MetricValue::Counter(c) => *c,
                    _ => 0,
                })
                .sum()
        })
    }

    /// A histogram series, if present.
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &str) -> Option<&HistogramValue> {
        match self.series_value(name, labels)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    fn series_value(&self, name: &str, labels: &str) -> Option<&MetricValue> {
        let f = self.family(name)?;
        f.series
            .binary_search_by(|s| s.labels.as_str().cmp(labels))
            .ok()
            .map(|i| &f.series[i].value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let mut r = Registry::new();
        r.incr("sessions", &[("video", "2")], 1);
        r.incr("sessions", &[("video", "0")], 2);
        r.incr("sessions", &[("video", "2")], 3);
        let s = r.snapshot();
        let f = s.family("sessions").unwrap();
        assert_eq!(f.series.len(), 2);
        assert_eq!(f.series[0].labels, "video=0");
        assert_eq!(s.counter("sessions", "video=2"), Some(4));
        assert_eq!(s.counter_total("sessions"), 6);
    }

    #[test]
    fn from_snapshot_resumes_recording_bit_for_bit() {
        // Record a prefix, snapshot, restore, record the suffix — the
        // result must equal recording the whole stream into one registry.
        // The values are chosen so float-sum association matters.
        let obs = [0.1f64, 0.2, 0.7, 1e-9, 3.3, 0.001, 2.2];
        let mut whole = Registry::new();
        for (i, &v) in obs.iter().enumerate() {
            whole.incr("n", &[("k", "a")], i as u64 + 1);
            whole.observe("lat", &[("k", "a")], v);
            whole.gauge_max("peak", &[], v);
        }
        let mut prefix = Registry::new();
        for (i, &v) in obs.iter().take(3).enumerate() {
            prefix.incr("n", &[("k", "a")], i as u64 + 1);
            prefix.observe("lat", &[("k", "a")], v);
            prefix.gauge_max("peak", &[], v);
        }
        let mut resumed = Registry::from_snapshot(&prefix.snapshot());
        for (i, &v) in obs.iter().enumerate().skip(3) {
            resumed.incr("n", &[("k", "a")], i as u64 + 1);
            resumed.observe("lat", &[("k", "a")], v);
            resumed.gauge_max("peak", &[], v);
        }
        assert_eq!(whole.snapshot(), resumed.snapshot());
        // Exact round trip of the snapshot itself, including the float
        // sum, which a merge-based restore would re-associate.
        assert_eq!(
            Registry::from_snapshot(&whole.snapshot()).snapshot(),
            whole.snapshot()
        );
    }

    #[test]
    fn gauge_is_high_water_mark() {
        let mut r = Registry::new();
        r.gauge_max("peak", &[], 3.0);
        r.gauge_max("peak", &[], 1.0);
        let s = r.snapshot();
        assert_eq!(
            s.family("peak").unwrap().series[0].value,
            MetricValue::Gauge(3.0)
        );
    }

    #[test]
    fn histogram_buckets_count_and_mean() {
        let mut h = HistogramValue::new(&[1.0, 10.0]);
        for v in [0.5, 0.9, 5.0, 50.0] {
            h.observe(v);
        }
        assert_eq!(h.counts, vec![2, 1, 1]);
        assert_eq!(h.count, 4);
        assert!((h.mean() - 14.1).abs() < 1e-12);
    }

    #[test]
    fn snapshot_bytes_independent_of_insertion_order() {
        let mut a = Registry::new();
        a.incr("x", &[("v", "1")], 1);
        a.incr("y", &[], 1);
        let mut b = Registry::new();
        b.incr("y", &[], 1);
        b.incr("x", &[("v", "1")], 1);
        assert_eq!(
            serde_json::to_string(&a.snapshot()).unwrap(),
            serde_json::to_string(&b.snapshot()).unwrap()
        );
    }

    #[test]
    fn merge_adds_counters_and_histograms_maxes_gauges() {
        let mut a = Registry::new();
        a.incr("c", &[], 1);
        a.gauge_max("g", &[], 2.0);
        a.observe("h", &[], 0.2);
        let mut b = Registry::new();
        b.incr("c", &[], 2);
        b.gauge_max("g", &[], 1.0);
        b.observe("h", &[], 7.0);
        b.incr("only_b", &[], 5);
        let merged = Snapshot::merged([a.snapshot(), b.snapshot()]).unwrap();
        assert_eq!(merged.counter("c", ""), Some(3));
        assert_eq!(merged.counter("only_b", ""), Some(5));
        assert_eq!(
            merged.family("g").unwrap().series[0].value,
            MetricValue::Gauge(2.0)
        );
        let h = merged.histogram("h", "").unwrap();
        assert_eq!(h.count, 2);
        assert!((h.sum - 7.2).abs() < 1e-12);
    }

    #[test]
    fn merge_order_of_equal_shards_is_immaterial() {
        let mut a = Registry::new();
        a.observe("h", &[], 1.0);
        let mut b = Registry::new();
        b.observe("h", &[], 2.0);
        let ab = Snapshot::merged([a.snapshot(), b.snapshot()]).unwrap();
        let ba = Snapshot::merged([b.snapshot(), a.snapshot()]).unwrap();
        assert_eq!(
            serde_json::to_string(&ab).unwrap(),
            serde_json::to_string(&ba).unwrap()
        );
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let mut r = Registry::new();
        r.incr("c", &[("k", "v")], 3);
        r.observe("h", &[], 0.3);
        r.gauge_max("g", &[], 9.5);
        let s = r.snapshot();
        let json = serde_json::to_string_pretty(&s).unwrap();
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    #[should_panic(expected = "two different kinds")]
    fn kind_confusion_panics() {
        let mut r = Registry::new();
        r.incr("m", &[], 1);
        r.observe("m", &[], 1.0);
    }

    #[test]
    fn histogram_bound_mismatch_is_an_error() {
        let mut a = HistogramValue::new(&[1.0]);
        a.observe(0.5);
        let before = a.clone();
        let b = HistogramValue::new(&[2.0]);
        assert_eq!(a.merge(&b), Err(MergeClash::Bounds));
        assert_eq!(a, before, "a failed merge leaves the histogram as it was");

        let mut left = Registry::new();
        left.observe("h", &[("k", "v")], 0.5);
        let mut snap = left.snapshot();
        let mut other = snap.clone();
        let MetricValue::Histogram(h) = &mut other.families[0].series[0].value else {
            unreachable!("h is a histogram");
        };
        h.bounds[0] = 0.02;
        let err = snap.merge(&other).unwrap_err();
        assert_eq!(err.clash, MergeClash::Bounds);
        assert_eq!(err.series, "h{k=v}");
        assert_eq!(
            err.to_string(),
            "histogram h{k=v} has mismatched bucket bounds"
        );
    }

    #[test]
    fn kind_clash_in_merge_is_an_error() {
        // The same family as two kinds…
        let mut a = Registry::new();
        a.incr("m", &[], 1);
        let mut b = Registry::new();
        b.gauge_max("m", &[], 1.0);
        let err = a.snapshot().merge(&b.snapshot()).unwrap_err();
        assert_eq!(
            err,
            MergeError {
                series: "m".to_string(),
                clash: MergeClash::Kind,
            }
        );
        assert_eq!(err.to_string(), "metric m has two kinds");
        // …and one series whose value contradicts its family's kind.
        let mut forged = a.snapshot();
        forged.families[0].series[0].value = MetricValue::Gauge(2.0);
        let err = a.snapshot().merge(&forged).unwrap_err();
        assert_eq!(err.series, "m{}");
        assert_eq!(err.clash, MergeClash::Kind);
        assert!(Snapshot::merged([a.snapshot(), b.snapshot()]).is_err());
    }

    #[test]
    fn resolved_but_unwritten_series_stay_out_of_the_snapshot() {
        let mut r = Registry::new();
        let idle = r.resolve("lat", &[("video", "9")], MetricKind::Histogram);
        let _ = r.resolve("other", &[], MetricKind::Counter);
        assert_eq!(r.snapshot(), Snapshot::default());
        let hot = r.resolve("lat", &[("video", "0")], MetricKind::Histogram);
        r.apply(hot, MetricOp::Observe(0.5));
        let s = r.snapshot();
        assert_eq!(s.families.len(), 1);
        assert_eq!(s.family("lat").unwrap().series.len(), 1);
        // Resolving again hands back the same slot.
        assert_eq!(
            r.resolve("lat", &[("video", "9")], MetricKind::Histogram),
            idle
        );
        assert_eq!(
            r.resolve("lat", &[("video", "0")], MetricKind::Histogram),
            hot
        );
    }

    #[test]
    fn relabel_matches_a_registry_that_resolved_the_extra_labels() {
        // `a` and `a+` swap places once `,policy=…` follows them: `+`
        // sorts below `,`, so the relabeled series must be re-sorted.
        let base: &[&[(&str, &str)]] = &[&[], &[("v", "a")], &[("v", "a+")]];
        for extra in [&[][..], &[("policy", "static")], &[("s", "x"), ("k", "")]] {
            let mut plain = Registry::new();
            let mut direct = Registry::new();
            for (i, labels) in base.iter().enumerate() {
                let mut full = labels.to_vec();
                full.extend_from_slice(extra);
                plain.incr("n", labels, i as u64 + 1);
                direct.incr("n", &full, i as u64 + 1);
                plain.observe("lat", labels, 0.1 * i as f64);
                direct.observe("lat", &full, 0.1 * i as f64);
            }
            plain.gauge_max("peak", &[], 2.5);
            direct.gauge_max("peak", extra, 2.5);
            assert_eq!(
                serde_json::to_string(&plain.snapshot().relabel(extra)).unwrap(),
                serde_json::to_string(&direct.snapshot()).unwrap(),
                "extra {extra:?}"
            );
        }
    }

    /// `k` in-order passes of `apply` over `list`, as a snapshot.
    fn passes(list: &[f64], k: u64) -> Snapshot {
        let mut r = Registry::new();
        let id = r.resolve("busy", &[], MetricKind::Histogram);
        for _ in 0..k {
            for &v in list {
                r.apply(id, MetricOp::Observe(v));
            }
        }
        r.snapshot()
    }

    #[test]
    fn repeated_observations_keep_their_interleaved_order() {
        // Five passes over [0.1, 0.2] on one series: added in pass
        // order, grouped by value and as `v * k`, the sum is three
        // different floats, so only the pass order gives its bits.
        let (list, k) = ([0.1, 0.2], 5);
        let sum = |s: &Snapshot| s.histogram("busy", "").unwrap().sum.to_bits();
        let in_order = passes(&list, k);
        let by_value: Vec<f64> = list
            .iter()
            .flat_map(|&v| std::iter::repeat_n(v, k as usize))
            .collect();
        let grouped = passes(&by_value, 1);
        let times = list.iter().fold(0.0, |acc, v| acc + v * k as f64);
        assert_ne!(sum(&in_order), sum(&grouped));
        assert_ne!(sum(&in_order), times.to_bits());
        assert_ne!(sum(&grouped), times.to_bits());

        // Replaying the list `k` times gives the passes' bytes, and so
        // does a list that interleaves a second series with the first.
        let mut r = Registry::new();
        let id = r.resolve("busy", &[], MetricKind::Histogram);
        r.observe_repeated(&[(id, 0.1), (id, 0.2)], k);
        assert_eq!(
            serde_json::to_string(&r.snapshot()).unwrap(),
            serde_json::to_string(&in_order).unwrap()
        );
        let mut apply = Registry::new();
        let mut repeat = Registry::new();
        let mut ids = Vec::new();
        for reg in [&mut apply, &mut repeat] {
            let a = reg.resolve("busy", &[("c", "a")], MetricKind::Histogram);
            let b = reg.resolve("busy", &[("c", "b")], MetricKind::Histogram);
            ids.push([(a, 0.1), (b, 3.3), (a, 0.2), (b, 1e-9), (a, 70.0)]);
        }
        for times in [0, 1, 3] {
            for _ in 0..times {
                for &(id, v) in &ids[0] {
                    apply.apply(id, MetricOp::Observe(v));
                }
            }
            repeat.observe_repeated(&ids[1], times);
            assert_eq!(
                serde_json::to_string(&apply.snapshot()).unwrap(),
                serde_json::to_string(&repeat.snapshot()).unwrap(),
                "after {times} more passes"
            );
        }
    }

    #[test]
    #[should_panic(expected = "repeated into a series of another kind")]
    fn repeating_into_a_counter_panics() {
        let mut r = Registry::new();
        let id = r.resolve("c", &[], MetricKind::Counter);
        r.observe_repeated(&[(id, 1.0)], 2);
    }

    #[test]
    #[should_panic(expected = "applied to a series of another kind")]
    fn applying_the_wrong_kind_panics() {
        let mut r = Registry::new();
        let id = r.resolve("c", &[], MetricKind::Counter);
        r.apply(id, MetricOp::Observe(1.0));
    }
}
