//! Deterministic checkpoint/restore for shard execution.
//!
//! A checkpoint is a complete still image of one shard's mid-run state,
//! each fact stored once: the peak active-session count, the captured
//! per-session scalars the merge folds (each keyed by its request's
//! index in the caller's slice, so a checkpoint fits only the shard
//! whose route served them), and the metrics registry snapshot.
//! Everything else is derived from the scalars on resume: the sweep's
//! cursor is their count, and the sessions still playing are those
//! whose end tick is at or after the last served arrival tick.
//! Restoring one and running to completion produces **bitwise
//! identical** artifacts to the uninterrupted run, because every value
//! resumes with its exact bit pattern and the sweep serves the remaining
//! requests and ends in the same order (see `DESIGN.md` §14 for the full
//! argument).
//!
//! ## Wire format
//!
//! ```text
//! SBCKPT <version> <fnv1a64-of-payload, 16 hex digits> <payload-len>\n
//! <payload: JSON, one line>
//! ```
//!
//! The header is checked before the payload is even parsed: wrong magic
//! or version → [`CheckpointError::BadHeader`] /
//! [`CheckpointError::UnsupportedVersion`]; any flipped payload byte →
//! [`CheckpointError::ChecksumMismatch`]. The supervisor uses that
//! rejection to fall back to the previous checkpoint (`resilience`'s
//! recovery module).
//!
//! Every `f64` in the payload is encoded as its IEEE-754 bit pattern
//! (`f64::to_bits`, a JSON unsigned integer), **not** as a decimal
//! float: the restore must reproduce accumulator bit patterns exactly,
//! including `-0.0` and values a shortest-representation printer would
//! round. This is a persistence format, not an artifact format — the
//! run's published JSON artifacts are unchanged.

use std::collections::BTreeMap;

use sb_metrics::{
    FamilySnapshot, HistogramValue, MetricKind, MetricValue, SeriesSnapshot, Snapshot,
};

use crate::agenda::AgendaKind;
use crate::policy::PolicyError;
use crate::shard::{SessionScalars, ShardSlice};
use crate::system::{ActiveSweep, Checkpoints, Keep, Sweep, SystemSim};

/// Format version written (and the only one accepted) by this build.
const VERSION: u64 = 4;

/// Header magic.
const MAGIC: &str = "SBCKPT";

/// A decoded checkpoint: one shard's complete mid-run execution state.
///
/// Obtain one with [`decode_state`]; the fields stay private — the only
/// supported operation is resuming a run from it
/// ([`SystemSim::run_shard`]).
#[derive(Debug, Clone)]
pub struct CheckpointState {
    pub(crate) peak_active: usize,
    pub(crate) scalars: Vec<SessionScalars>,
    pub(crate) snapshot: Snapshot,
}

/// Why a checkpoint could not be decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// No header line, or a header that does not parse.
    BadHeader(String),
    /// The header names a format version this build does not speak.
    UnsupportedVersion(u64),
    /// Payload bytes do not hash to the header's checksum — the
    /// checkpoint was corrupted (or truncated) after it was written.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        stored: u64,
        /// Checksum of the payload actually present.
        computed: u64,
    },
    /// Payload length differs from the header's declared length.
    LengthMismatch {
        /// Length recorded in the header.
        stored: usize,
        /// Length of the payload actually present.
        actual: usize,
    },
    /// The payload passed the checksum but has the wrong shape.
    Malformed(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadHeader(what) => write!(f, "bad checkpoint header: {what}"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (this build speaks {VERSION})")
            }
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: header says {stored:016x}, payload hashes to {computed:016x}"
            ),
            CheckpointError::LengthMismatch { stored, actual } => write!(
                f,
                "checkpoint length mismatch: header says {stored} payload bytes, found {actual}"
            ),
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint payload: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// What the supervisor's crash probe is shown.
#[derive(Debug, Clone, Copy)]
pub enum Probe<'a> {
    /// About to handle a session end or an arrival at `tick`.
    Event {
        /// The event's tick.
        tick: u64,
    },
    /// A checkpoint was just taken (and is handed over as `encoded` —
    /// the supervisor stores the bytes; the shard keeps nothing).
    Checkpoint {
        /// 1-based checkpoint index: `sessions_done / cadence`.
        index: u64,
        /// The encoded checkpoint (header + payload).
        encoded: &'a [u8],
    },
}

/// The probe's answer: keep running, or die right here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Keep running.
    Continue,
    /// Crash the shard at this point, deterministically.
    Kill,
}

/// Where and when a shard was killed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Killed {
    /// Tick at the kill point.
    pub tick: u64,
    /// Sessions the shard had served.
    pub sessions_done: u64,
    /// Checkpoints the shard had taken (this attempt).
    pub checkpoints_taken: u64,
}

/// Why a shard attempt did not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardCrash {
    /// The simulation itself failed (e.g. a request for an unknown
    /// video) — retrying is pointless, the error is deterministic.
    Policy(PolicyError),
    /// The crash probe killed the shard.
    Killed(Killed),
    /// The resume bytes were rejected before the run even started.
    Corrupt(CheckpointError),
}

impl ShardCrash {
    pub(crate) fn killed(tick: u64, sessions_done: u64, checkpoints_taken: u64) -> Self {
        ShardCrash::Killed(Killed {
            tick,
            sessions_done,
            checkpoints_taken,
        })
    }
}

impl std::fmt::Display for ShardCrash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardCrash::Policy(e) => write!(f, "shard failed: {e}"),
            ShardCrash::Killed(k) => write!(
                f,
                "shard killed at tick {} after {} sessions ({} checkpoints)",
                k.tick, k.sessions_done, k.checkpoints_taken
            ),
            ShardCrash::Corrupt(e) => write!(f, "shard resume rejected: {e}"),
        }
    }
}

impl std::error::Error for ShardCrash {}

/// One shard's completed results, ready for [`crate::shard::merge_shard_runs`].
///
/// Opaque by design: the scalars inside are keyed by the caller's slice
/// index and must only be recombined by the canonical ordered-replay
/// merge.
pub struct ShardRun {
    pub(crate) scalars: Vec<SessionScalars>,
    pub(crate) snapshot: Snapshot,
    pub(crate) checkpoints_taken: u64,
}

impl ShardRun {
    /// Checkpoints taken during the (final, completing) attempt.
    #[must_use]
    pub fn checkpoints_taken(&self) -> u64 {
        self.checkpoints_taken
    }
}

impl SystemSim<'_> {
    /// Run one shard slice as a restartable unit.
    ///
    /// The sweep serves the slice exactly as `execute` would; `probe` is
    /// consulted before every session end and arrival and after every
    /// checkpoint
    /// (taken every `checkpoint_every` served sessions), so a supervisor
    /// can inject deterministic crashes and collect checkpoint bytes.
    /// Passing `resume` continues from a previously collected checkpoint;
    /// the completed [`ShardRun`] is bitwise identical either way.
    ///
    /// # Errors
    /// [`ShardCrash::Corrupt`] when `resume` fails to decode or does not
    /// fit `slice` (nothing has run yet — fall back to an older
    /// checkpoint or a fresh start);
    /// [`ShardCrash::Killed`] when the probe said [`Verdict::Kill`];
    /// [`ShardCrash::Policy`] for deterministic simulation errors.
    ///
    /// # Panics
    /// Panics if `checkpoint_every` is zero — `Supervisor::new` rejects
    /// that cadence before any shard runs.
    pub fn run_shard(
        &self,
        slice: &ShardSlice<'_>,
        _agenda: AgendaKind,
        checkpoint_every: u64,
        resume: Option<&[u8]>,
        probe: &mut dyn FnMut(Probe<'_>) -> Verdict,
    ) -> Result<ShardRun, ShardCrash> {
        assert!(checkpoint_every > 0, "validated by the supervisor");
        let mut checkpoints = Checkpoints {
            every: checkpoint_every,
            probe,
        };
        let index = self.plan_index();
        let (mut sweep, mut scalars) = match resume {
            Some(bytes) => decode_state(bytes)
                .and_then(|cp| Sweep::resume(self, &index, slice, cp))
                .map_err(ShardCrash::Corrupt)?,
            None => (
                Sweep::new(self, &index, slice),
                Vec::with_capacity(slice.len()),
            ),
        };
        sweep.serve_until(
            None,
            Keep::Capture(&mut scalars, None),
            Some(&mut checkpoints),
        )?;
        let end = sweep.finish(Some(&mut checkpoints))?;
        Ok(ShardRun {
            scalars,
            snapshot: end.snapshot,
            checkpoints_taken: end.checkpoints_taken,
        })
    }
}

impl CheckpointState {
    /// Check this checkpoint against the shard it is about to resume
    /// and rebuild the sweep's active sessions from it. The scalars must
    /// be the first requests of the shard's route, each keyed by its
    /// index in the caller's slice and at its own arrival tick, and the
    /// peak must cover the sessions still playing. A checksum only
    /// proves the bytes are the ones written; this proves they can
    /// drive this shard without indexing out of range or resuming a
    /// sweep that never happened, on this shard or another.
    pub(crate) fn check_fits(
        &self,
        slice: &ShardSlice<'_>,
    ) -> Result<ActiveSweep, CheckpointError> {
        if self.scalars.len() > slice.len() {
            return malformed(format!(
                "scalars: {} sessions served from a route of {} requests",
                self.scalars.len(),
                slice.len()
            ));
        }
        for (cursor, sc) in self.scalars.iter().enumerate() {
            let pos = slice.pos(cursor);
            if (sc.idx, sc.tick) != (pos, slice.tick(pos)) {
                return malformed(format!(
                    "scalar.idx: session {cursor} is slice request {} at tick {}, but the \
                     route serves slice request {pos} at tick {} there",
                    sc.idx,
                    sc.tick,
                    slice.tick(pos)
                ));
            }
        }
        // Each video's session counter and histograms count exactly its
        // captured sessions; any other count is forged, and one near
        // `u64::MAX` would overflow on the video's next session.
        let mut served: BTreeMap<String, u64> = BTreeMap::new();
        for sc in &self.scalars {
            *served
                .entry(format!("video={}", slice.requests[sc.idx].video.0))
                .or_default() += 1;
        }
        for name in [
            "sim_sessions_total",
            "sim_latency_minutes",
            "sim_peak_buffer_mbits",
        ] {
            let series = self.snapshot.family(name).map_or(&[][..], |f| &f.series);
            let fits = series.len() == served.len()
                && series.iter().all(|s| {
                    let count = match &s.value {
                        MetricValue::Counter(c) => Some(*c),
                        MetricValue::Histogram(h) => Some(h.count),
                        MetricValue::Gauge(_) => None,
                    };
                    count.is_some() && served.get(&s.labels).copied() == count
                });
            if !fits {
                return malformed(format!(
                    "{name}: series counts differ from the {} sessions served per video",
                    self.scalars.len()
                ));
            }
        }
        let last = self.scalars.last().map_or(0, |sc| sc.tick);
        let ends: Vec<u64> = self
            .scalars
            .iter()
            .map(|sc| sc.end_tick)
            .filter(|&end| end >= last)
            .collect();
        if self.peak_active < ends.len() {
            return malformed(format!(
                "peak_active: {} below the {} sessions still playing",
                self.peak_active,
                ends.len()
            ));
        }
        Ok(ActiveSweep::resume(ends, self.peak_active))
    }
}

// ---- encoding --------------------------------------------------------------

/// FNV-1a 64-bit over the payload bytes: tiny, dependency-free, and more
/// than enough to catch the bit flips and truncations the corruption
/// fallback exists for (this is an integrity check, not authentication).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn obj(fields: Vec<(&str, serde::Value)>) -> serde::Value {
    serde::Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn uint(u: u64) -> serde::Value {
    serde::Value::UInt(u)
}

/// An `f64` as its exact bit pattern — see the module docs for why the
/// persistence format never prints floats as decimals.
fn bits(f: f64) -> serde::Value {
    serde::Value::UInt(f.to_bits())
}

fn bits_arr(fs: &[f64]) -> serde::Value {
    serde::Value::Array(fs.iter().map(|&f| bits(f)).collect())
}

fn encode_snapshot(snap: &Snapshot) -> serde::Value {
    serde::Value::Array(
        snap.families
            .iter()
            .map(|f| {
                let kind = match f.kind {
                    MetricKind::Counter => "counter",
                    MetricKind::Gauge => "gauge",
                    MetricKind::Histogram => "histogram",
                };
                obj(vec![
                    ("name", serde::Value::Str(f.name.clone())),
                    ("kind", serde::Value::Str(kind.to_string())),
                    (
                        "series",
                        serde::Value::Array(
                            f.series
                                .iter()
                                .map(|s| {
                                    let value = match &s.value {
                                        MetricValue::Counter(c) => obj(vec![("c", uint(*c))]),
                                        MetricValue::Gauge(g) => obj(vec![("g", bits(*g))]),
                                        MetricValue::Histogram(h) => obj(vec![(
                                            "h",
                                            obj(vec![
                                                ("bounds", bits_arr(&h.bounds)),
                                                (
                                                    "counts",
                                                    serde::Value::Array(
                                                        h.counts.iter().map(|&c| uint(c)).collect(),
                                                    ),
                                                ),
                                                ("count", uint(h.count)),
                                                ("sum", bits(h.sum)),
                                            ]),
                                        )]),
                                    };
                                    obj(vec![
                                        ("labels", serde::Value::Str(s.labels.clone())),
                                        ("value", value),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

/// Serialize a checkpoint to its wire form (header + payload).
pub(crate) fn encode_state(
    peak_active: usize,
    scalars: &[SessionScalars],
    snapshot: &Snapshot,
) -> Vec<u8> {
    let payload_value = obj(vec![
        ("peak_active", uint(peak_active as u64)),
        (
            "scalars",
            serde::Value::Array(
                scalars
                    .iter()
                    .map(|sc| {
                        serde::Value::Array(vec![
                            uint(sc.tick),
                            uint(sc.idx as u64),
                            uint(sc.end_tick),
                            bits(sc.latency),
                            bits(sc.peak_buffer),
                            bits(sc.total_received),
                            bits(sc.delivered),
                            uint(sc.max_streams as u64),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("snapshot", encode_snapshot(snapshot)),
    ]);
    let payload = serde_json::to_string(&payload_value).expect("value serialization is total");
    let mut out = format!(
        "{MAGIC} {VERSION} {:016x} {}\n",
        fnv1a64(payload.as_bytes()),
        payload.len()
    )
    .into_bytes();
    out.extend_from_slice(payload.as_bytes());
    out
}

// ---- decoding --------------------------------------------------------------

fn malformed<T>(what: impl Into<String>) -> Result<T, CheckpointError> {
    Err(CheckpointError::Malformed(what.into()))
}

fn want_obj<'a>(
    v: &'a serde::Value,
    what: &str,
) -> Result<&'a [(String, serde::Value)], CheckpointError> {
    v.as_object()
        .ok_or_else(|| CheckpointError::Malformed(format!("{what}: expected object")))
}

fn want_arr<'a>(v: &'a serde::Value, what: &str) -> Result<&'a [serde::Value], CheckpointError> {
    v.as_array()
        .ok_or_else(|| CheckpointError::Malformed(format!("{what}: expected array")))
}

fn want_u64(v: &serde::Value, what: &str) -> Result<u64, CheckpointError> {
    v.as_u64()
        .ok_or_else(|| CheckpointError::Malformed(format!("{what}: expected unsigned integer")))
}

fn want_usize(v: &serde::Value, what: &str) -> Result<usize, CheckpointError> {
    usize::try_from(want_u64(v, what)?)
        .map_err(|_| CheckpointError::Malformed(format!("{what}: out of range")))
}

/// Decode an `f64` stored as its bit pattern.
fn want_bits(v: &serde::Value, what: &str) -> Result<f64, CheckpointError> {
    Ok(f64::from_bits(want_u64(v, what)?))
}

fn want_bits_arr(v: &serde::Value, what: &str) -> Result<Vec<f64>, CheckpointError> {
    want_arr(v, what)?
        .iter()
        .map(|x| want_bits(x, what))
        .collect()
}

fn want_str<'a>(v: &'a serde::Value, what: &str) -> Result<&'a str, CheckpointError> {
    v.as_str()
        .ok_or_else(|| CheckpointError::Malformed(format!("{what}: expected string")))
}

/// The largest counter value or histogram count a checkpoint may hold: a
/// run adds one per session or reception, so no run comes near it.
const MAX_COUNT: u64 = 1 << 53;

/// Check a decoded series value against its family's `kind`, its count
/// against [`MAX_COUNT`] and, for a histogram, the shape recording into
/// it relies on: non-empty, finite, strictly increasing bounds, one more
/// bucket than bounds, and a count that is the buckets' sum.
fn check_value(value: &MetricValue, kind: MetricKind) -> Result<(), CheckpointError> {
    let h = match (value, kind) {
        (MetricValue::Counter(c), MetricKind::Counter) if *c > MAX_COUNT => {
            return malformed(format!("counter: {c} is above {MAX_COUNT}"))
        }
        (MetricValue::Counter(_), MetricKind::Counter)
        | (MetricValue::Gauge(_), MetricKind::Gauge) => return Ok(()),
        (MetricValue::Histogram(h), MetricKind::Histogram) => h,
        _ => return malformed(format!("series.value: not a value of a {kind:?} family")),
    };
    if h.bounds.is_empty()
        || !h.bounds.iter().all(|b| b.is_finite())
        || !h.bounds.windows(2).all(|w| w[0] < w[1])
    {
        return malformed("histogram.bounds: expected finite, strictly increasing bounds");
    }
    if h.counts.len() != h.bounds.len() + 1 {
        return malformed(format!(
            "histogram.counts: {} buckets for {} bounds",
            h.counts.len(),
            h.bounds.len()
        ));
    }
    let total = h.counts.iter().try_fold(0u64, |sum, &c| sum.checked_add(c));
    if total != Some(h.count) {
        return malformed(format!(
            "histogram.count: {} is not the sum of the buckets",
            h.count
        ));
    }
    if h.count > MAX_COUNT {
        return malformed(format!("histogram.count: {} is above {MAX_COUNT}", h.count));
    }
    Ok(())
}

fn decode_snapshot(v: &serde::Value) -> Result<Snapshot, CheckpointError> {
    let mut families = Vec::new();
    for fv in want_arr(v, "snapshot")? {
        let fo = want_obj(fv, "snapshot family")?;
        let kind = match want_str(serde::field(fo, "kind"), "family.kind")? {
            "counter" => MetricKind::Counter,
            "gauge" => MetricKind::Gauge,
            "histogram" => MetricKind::Histogram,
            other => return malformed(format!("family.kind: unknown kind {other:?}")),
        };
        let mut series = Vec::new();
        for sv in want_arr(serde::field(fo, "series"), "family.series")? {
            let so = want_obj(sv, "series")?;
            let vo = want_obj(serde::field(so, "value"), "series.value")?;
            let value = match vo {
                [(k, v)] if k == "c" => MetricValue::Counter(want_u64(v, "counter")?),
                [(k, v)] if k == "g" => MetricValue::Gauge(want_bits(v, "gauge")?),
                [(k, v)] if k == "h" => {
                    let ho = want_obj(v, "histogram")?;
                    MetricValue::Histogram(HistogramValue {
                        bounds: want_bits_arr(serde::field(ho, "bounds"), "histogram.bounds")?,
                        counts: want_arr(serde::field(ho, "counts"), "histogram.counts")?
                            .iter()
                            .map(|c| want_u64(c, "histogram.counts"))
                            .collect::<Result<_, _>>()?,
                        count: want_u64(serde::field(ho, "count"), "histogram.count")?,
                        sum: want_bits(serde::field(ho, "sum"), "histogram.sum")?,
                    })
                }
                _ => return malformed("series.value: expected one of c/g/h"),
            };
            check_value(&value, kind)?;
            series.push(SeriesSnapshot {
                labels: want_str(serde::field(so, "labels"), "series.labels")?.to_string(),
                value,
            });
        }
        families.push(FamilySnapshot {
            name: want_str(serde::field(fo, "name"), "family.name")?.to_string(),
            kind,
            series,
        });
    }
    Ok(Snapshot { families })
}

/// Parse and verify the wire form produced by a checkpoint probe.
///
/// # Errors
/// Every way the bytes can be wrong maps to a distinct
/// [`CheckpointError`]; see the variant docs. A checkpoint that decodes
/// successfully is exactly the state that was frozen — the checksum
/// covers the entire payload.
pub fn decode_state(bytes: &[u8]) -> Result<CheckpointState, CheckpointError> {
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| CheckpointError::BadHeader("no header line".to_string()))?;
    let header = std::str::from_utf8(&bytes[..nl])
        .map_err(|_| CheckpointError::BadHeader("header is not UTF-8".to_string()))?;
    let mut parts = header.split(' ');
    let (magic, version, checksum, len) = match (
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
    ) {
        (Some(m), Some(v), Some(c), Some(l), None) => (m, v, c, l),
        _ => {
            return Err(CheckpointError::BadHeader(format!(
                "expected 4 header fields, got {header:?}"
            )))
        }
    };
    if magic != MAGIC {
        return Err(CheckpointError::BadHeader(format!("bad magic {magic:?}")));
    }
    let version: u64 = version
        .parse()
        .map_err(|_| CheckpointError::BadHeader(format!("unparsable version {version:?}")))?;
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let stored = u64::from_str_radix(checksum, 16)
        .map_err(|_| CheckpointError::BadHeader(format!("unparsable checksum {checksum:?}")))?;
    let stored_len: usize = len
        .parse()
        .map_err(|_| CheckpointError::BadHeader(format!("unparsable length {len:?}")))?;
    let payload = &bytes[nl + 1..];
    if payload.len() != stored_len {
        return Err(CheckpointError::LengthMismatch {
            stored: stored_len,
            actual: payload.len(),
        });
    }
    let computed = fnv1a64(payload);
    if computed != stored {
        return Err(CheckpointError::ChecksumMismatch { stored, computed });
    }
    let payload = std::str::from_utf8(payload)
        .map_err(|_| CheckpointError::Malformed("payload is not UTF-8".to_string()))?;
    let value: serde::Value = serde_json::from_str(payload)
        .map_err(|e| CheckpointError::Malformed(format!("payload does not parse: {e}")))?;
    let root = want_obj(&value, "checkpoint")?;

    let mut scalars = Vec::new();
    for sv in want_arr(serde::field(root, "scalars"), "scalars")? {
        let row = want_arr(sv, "scalar row")?;
        let [tick, idx, end_tick, latency, peak_buffer, total_received, delivered, max_streams] =
            row
        else {
            return malformed("scalar row: expected 8 entries");
        };
        scalars.push(SessionScalars {
            tick: want_u64(tick, "scalar.tick")?,
            idx: want_usize(idx, "scalar.idx")?,
            end_tick: want_u64(end_tick, "scalar.end_tick")?,
            latency: want_bits(latency, "scalar.latency")?,
            peak_buffer: want_bits(peak_buffer, "scalar.peak_buffer")?,
            total_received: want_bits(total_received, "scalar.total_received")?,
            delivered: want_bits(delivered, "scalar.delivered")?,
            max_streams: want_usize(max_streams, "scalar.max_streams")?,
        });
    }

    Ok(CheckpointState {
        peak_active: want_usize(serde::field(root, "peak_active"), "peak_active")?,
        scalars,
        snapshot: decode_snapshot(serde::field(root, "snapshot"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_metrics::Registry;

    fn encode(cp: &CheckpointState) -> Vec<u8> {
        encode_state(cp.peak_active, &cp.scalars, &cp.snapshot)
    }

    fn sample_state() -> CheckpointState {
        let mut reg = Registry::new();
        reg.incr("n", &[("video", "3")], 2);
        reg.observe("lat", &[], 0.30000000000000004);
        reg.gauge_max("peak", &[], -0.0);
        CheckpointState {
            peak_active: 3,
            // The printer-hostile cases: -0.0, a sum that prints long,
            // a subnormal-adjacent value.
            scalars: vec![SessionScalars {
                tick: 11,
                idx: 7,
                end_tick: 22,
                latency: 0.1 + 0.2,
                peak_buffer: -0.0,
                total_received: f64::MIN_POSITIVE,
                delivered: 119.999_999_999_999_99,
                max_streams: 2,
            }],
            snapshot: reg.snapshot(),
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let cp = sample_state();
        let bytes = encode(&cp);
        let back = decode_state(&bytes).unwrap();
        assert_eq!(back.scalars.len(), 1);
        assert_eq!(back.peak_active, cp.peak_active);
        // Bit patterns, not just values: -0.0 and friends must survive.
        for (a, b) in [
            (back.scalars[0].latency, cp.scalars[0].latency),
            (back.scalars[0].total_received, cp.scalars[0].total_received),
            (back.scalars[0].delivered, cp.scalars[0].delivered),
        ] {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back.snapshot, cp.snapshot);
        assert_eq!(
            back.scalars[0].peak_buffer.to_bits(),
            (-0.0f64).to_bits(),
            "negative zero must not collapse to +0"
        );
        // And a re-encode of the decoded state is byte-identical.
        assert_eq!(encode(&back), bytes);
    }

    #[test]
    fn every_corruption_is_rejected_with_the_right_error() {
        let bytes = encode(&sample_state());
        // Flip one payload byte → checksum.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(matches!(
            decode_state(&flipped),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
        // Truncate the payload → length.
        let truncated = &bytes[..bytes.len() - 3];
        assert!(matches!(
            decode_state(truncated),
            Err(CheckpointError::LengthMismatch { .. })
        ));
        // Damage the magic → header.
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            decode_state(&bad_magic),
            Err(CheckpointError::BadHeader(_))
        ));
        // A past or future version → unsupported.
        for (digit, version) in [(b'1', 1), (b'2', 2), (b'3', 3), (b'9', 9)] {
            let mut other = bytes.clone();
            other[7] = digit;
            assert_eq!(
                decode_state(&other).unwrap_err(),
                CheckpointError::UnsupportedVersion(version)
            );
        }
        // No newline at all.
        assert!(matches!(
            decode_state(b"SBCKPT"),
            Err(CheckpointError::BadHeader(_))
        ));
        // Checksum-valid garbage payload → malformed, not a panic.
        let garbage = b"[1,2,3]";
        let mut forged = format!(
            "SBCKPT {VERSION} {:016x} {}\n",
            fnv1a64(garbage),
            garbage.len()
        )
        .into_bytes();
        forged.extend_from_slice(garbage);
        assert!(matches!(
            decode_state(&forged),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn errors_display_their_diagnosis() {
        let e = CheckpointError::ChecksumMismatch {
            stored: 0xAB,
            computed: 0xCD,
        };
        let msg = e.to_string();
        assert!(msg.contains("checksum"), "{msg}");
        assert!(CheckpointError::UnsupportedVersion(9)
            .to_string()
            .contains("version 9"),);
        let k = ShardCrash::killed(500, 12, 2);
        assert!(k.to_string().contains("tick 500"), "{k}");
    }
}
