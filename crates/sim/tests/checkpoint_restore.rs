//! Checkpoint/restore bitwise-identity properties.
//!
//! The flagship invariant of the crash-recovery work: a run that is
//! **killed at a checkpoint and resumed from the serialized bytes** is
//! bitwise identical to the uninterrupted run — same report, same fold,
//! same metrics snapshot, same serialized bytes — for **all three client
//! models**. The checkpoint travels through its real wire format
//! (`SBCKPT` header + checksum + payload), not through in-memory state.

use proptest::prelude::*;
use vod_units::{Mbps, Minutes};

use sb_core::config::SystemConfig;
use sb_core::plan::{ChannelPlan, VideoId};
use sb_core::scheme::BroadcastScheme;
use sb_core::series::Width;
use sb_core::Skyscraper;
use sb_pyramid::{HarmonicBroadcasting, PermutationPyramid};
use sb_sim::policy::ClientPolicy;
use sb_sim::system::{Request, SystemSim};
use sb_sim::trace::{ClientModel, PausingClient, RecordingClient};
use sb_sim::{
    merge_shard_runs, plan_shards, AgendaKind, CheckpointError, Probe, RunConfig, RunOutcome,
    ShardCrash, Verdict,
};

/// Each model against the plan its scheme prescribes (the same lineup
/// the shard-invariance suite pins).
fn lineup() -> Vec<(&'static str, ChannelPlan, Box<dyn ClientModel>)> {
    let cfg = SystemConfig::paper_defaults(Mbps(320.0));
    vec![
        (
            "latest-feasible on SB:W=52",
            Skyscraper::with_width(Width::Capped(52))
                .plan(&cfg)
                .unwrap(),
            Box::new(ClientPolicy::LatestFeasible),
        ),
        (
            "pausing on PPB:b",
            PermutationPyramid::b().plan(&cfg).unwrap(),
            Box::new(PausingClient),
        ),
        (
            "recording on HB",
            HarmonicBroadcasting::delayed().plan(&cfg).unwrap(),
            Box::new(RecordingClient::default()),
        ),
    ]
}

fn outcome_bytes(o: &RunOutcome) -> (String, String, String) {
    (
        serde_json::to_string(&o.summary).unwrap(),
        serde_json::to_string(&o.fold).unwrap(),
        serde_json::to_string(&o.snapshot).unwrap(),
    )
}

/// Run the whole request stream as one supervised shard: kill it right
/// after checkpoint `kill_at_ckpt`, then resume from those exact bytes.
/// If the run finishes
/// before that checkpoint exists, the uninterrupted result is used —
/// the property still has to hold.
fn killed_and_resumed(
    sim: &SystemSim<'_>,
    requests: &[Request],
    cadence: u64,
    kill_at_ckpt: u64,
) -> (RunOutcome, bool) {
    let slices = plan_shards(requests, 1, 0, None);
    let slice = &slices[0];

    let mut captured: Option<Vec<u8>> = None;
    let mut probe = |p: Probe<'_>| -> Verdict {
        if let Probe::Checkpoint { index, encoded } = p {
            captured = Some(encoded.to_vec());
            if index == kill_at_ckpt {
                return Verdict::Kill;
            }
        }
        Verdict::Continue
    };
    let first = sim.run_shard(slice, AgendaKind::Heap, cadence, None, &mut probe);
    let (run, was_killed) = match first {
        Ok(run) => (run, false),
        Err(ShardCrash::Killed(_)) => {
            let bytes = captured.expect("a kill at a checkpoint implies captured bytes");
            let mut quiet = |_: Probe<'_>| Verdict::Continue;
            let resumed = sim
                .run_shard(slice, AgendaKind::Heap, cadence, Some(&bytes), &mut quiet)
                .expect("resume from an intact checkpoint");
            (resumed, true)
        }
        Err(e) => panic!("unexpected shard crash: {e}"),
    };
    let outcome = merge_shard_runs(vec![(0, run)], "checkpoint-test").unwrap();
    (outcome, was_killed)
}

fn requests_for(plan: &ChannelPlan, n: usize, span: f64) -> Vec<Request> {
    let videos = plan.num_videos().max(1);
    (0..n)
        .map(|i| Request {
            at: Minutes(span * (i as f64 + 0.31) / n as f64),
            video: VideoId(i % videos),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn killed_and_resumed_runs_are_bitwise_identical(
        cadence in 5u64..40,
        kill_at_ckpt in 1u64..5,
        n in 40usize..120,
        span in 20.0f64..90.0,
    ) {
        let cfg = SystemConfig::paper_defaults(Mbps(320.0));
        for (name, plan, model) in lineup() {
            let requests = requests_for(&plan, n, span);
            let sim = SystemSim::new(&plan, cfg.display_rate, model.as_ref());
            let base = sim
                .execute(RunConfig::new(&requests))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let (resumed, _) =
                killed_and_resumed(&sim, &requests, cadence, kill_at_ckpt);
            prop_assert_eq!(
                outcome_bytes(&base),
                outcome_bytes(&resumed),
                "{}: killed+resumed diverged from uninterrupted \
                 (cadence {}, kill at ckpt {})",
                name, cadence, kill_at_ckpt
            );
        }
    }
}

/// Deterministic regression: a kill at the second checkpoint fires, and
/// the resumed run matches the uninterrupted one byte for byte.
#[test]
fn checkpoint_restores_bit_for_bit() {
    let cfg = SystemConfig::paper_defaults(Mbps(320.0));
    for (name, plan, model) in lineup() {
        let requests = requests_for(&plan, 96, 45.0);
        let sim = SystemSim::new(&plan, cfg.display_rate, model.as_ref());
        let base = sim.execute(RunConfig::new(&requests)).unwrap();
        let (resumed, was_killed) = killed_and_resumed(&sim, &requests, 20, 2);
        assert!(was_killed, "{name}: the kill at checkpoint 2 must fire");
        assert_eq!(
            outcome_bytes(&base),
            outcome_bytes(&resumed),
            "{name}: the resumed run diverged"
        );
    }
}

/// FNV-1a 64, the SBCKPT payload checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Apply `edit` to the SBCKPT payload and re-seal the bytes under the
/// header's own version with a valid checksum and length, as a forger
/// would.
fn forge(bytes: &[u8], edit: impl FnOnce(&mut Vec<(String, serde::Value)>)) -> Vec<u8> {
    let nl = bytes.iter().position(|&b| b == b'\n').unwrap();
    let header = std::str::from_utf8(&bytes[..nl]).unwrap();
    let version = header.split(' ').nth(1).unwrap();
    let mut root: serde::Value =
        serde_json::from_str(std::str::from_utf8(&bytes[nl + 1..]).unwrap()).unwrap();
    let serde::Value::Object(fields) = &mut root else {
        panic!("the payload is not an object")
    };
    edit(fields);
    let payload = serde_json::to_string(&root).unwrap();
    let mut out = format!(
        "SBCKPT {version} {:016x} {}\n",
        fnv1a64(payload.as_bytes()),
        payload.len()
    )
    .into_bytes();
    out.extend_from_slice(payload.as_bytes());
    out
}

/// The payload field `key`.
fn field<'a>(fields: &'a mut [(String, serde::Value)], key: &str) -> &'a mut serde::Value {
    &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1
}

/// The payload's scalar rows.
fn scalar_rows(fields: &mut [(String, serde::Value)]) -> &mut Vec<serde::Value> {
    let serde::Value::Array(rows) = field(fields, "scalars") else {
        panic!("scalars is not an array")
    };
    rows
}

/// Set column `col` of the first scalar row to `value`.
fn set_first_scalar(fields: &mut [(String, serde::Value)], col: usize, value: u64) {
    let serde::Value::Array(row) = &mut scalar_rows(fields)[0] else {
        panic!("a scalar row is not an array")
    };
    row[col] = serde::Value::UInt(value);
}

/// The first histogram family's first series value (the `h` object) in
/// the payload's snapshot.
fn first_histogram(fields: &mut [(String, serde::Value)]) -> &mut Vec<(String, serde::Value)> {
    let serde::Value::Array(families) = field(fields, "snapshot") else {
        panic!("snapshot is not an array")
    };
    let family = families
        .iter_mut()
        .find_map(|f| match f {
            serde::Value::Object(fo)
                if fo
                    .iter()
                    .any(|(k, v)| k == "kind" && v.as_str() == Some("histogram")) =>
            {
                Some(fo)
            }
            _ => None,
        })
        .expect("the snapshot holds a histogram family");
    let serde::Value::Array(series) = field(family, "series") else {
        panic!("series is not an array")
    };
    let serde::Value::Object(so) = &mut series[0] else {
        panic!("a series is not an object")
    };
    let serde::Value::Object(value) = field(so, "value") else {
        panic!("a series value is not an object")
    };
    let serde::Value::Object(h) = field(value, "h") else {
        panic!("a histogram value is not an object")
    };
    h
}

/// The value object (its one `c`, `g` or `h` field) of the first series
/// of family `name` in the payload's snapshot.
fn first_value<'a>(
    fields: &'a mut [(String, serde::Value)],
    name: &str,
) -> &'a mut Vec<(String, serde::Value)> {
    let serde::Value::Array(families) = field(fields, "snapshot") else {
        panic!("snapshot is not an array")
    };
    let family = families
        .iter_mut()
        .find_map(|f| match f {
            serde::Value::Object(fo)
                if fo
                    .iter()
                    .any(|(k, v)| k == "name" && v.as_str() == Some(name)) =>
            {
                Some(fo)
            }
            _ => None,
        })
        .unwrap_or_else(|| panic!("no {name} family"));
    let serde::Value::Array(series) = field(family, "series") else {
        panic!("series is not an array")
    };
    let serde::Value::Object(so) = &mut series[0] else {
        panic!("a series is not an object")
    };
    let serde::Value::Object(value) = field(so, "value") else {
        panic!("a series value is not an object")
    };
    value
}

/// The `key` array of the first histogram.
fn histogram_array<'a>(
    fields: &'a mut [(String, serde::Value)],
    key: &str,
) -> &'a mut Vec<serde::Value> {
    let serde::Value::Array(values) = field(first_histogram(fields), key) else {
        panic!("histogram.{key} is not an array")
    };
    values
}

/// A checksum-valid checkpoint whose scalars or peak do not fit the
/// slice, whose snapshot holds a histogram recording into it would
/// index out of range, or whose session counts differ from the sessions
/// it served, is rejected as corrupt before anything runs, never a
/// panic.
#[test]
fn forged_scalar_rows_are_rejected_as_corrupt() {
    let cfg = SystemConfig::paper_defaults(Mbps(320.0));
    let plan = Skyscraper::with_width(Width::Capped(52))
        .plan(&cfg)
        .unwrap();
    let requests = requests_for(&plan, 100, 45.0);
    let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
    let slices = plan_shards(&requests, 1, 0, None);
    let mut captured = None;
    let mut probe = |p: Probe<'_>| match p {
        Probe::Checkpoint { encoded, .. } => {
            captured = Some(encoded.to_vec());
            Verdict::Kill
        }
        Probe::Event { .. } => Verdict::Continue,
    };
    let first = sim.run_shard(&slices[0], AgendaKind::Heap, 10, None, &mut probe);
    assert!(matches!(first, Err(ShardCrash::Killed(_))));
    let bytes = captured.expect("the first checkpoint was captured");

    type Edit = fn(&mut Vec<(String, serde::Value)>);
    let forgeries: [(&str, Edit); 14] = [
        ("more scalars than the slice holds", |f| {
            let rows = scalar_rows(f);
            let first = rows[0].clone();
            rows.resize(101, first);
        }),
        ("a scalar out of sweep order", |f| set_first_scalar(f, 1, 1)),
        ("a scalar request index outside the slice", |f| {
            set_first_scalar(f, 1, 1_000_000_000)
        }),
        ("a scalar at another arrival tick", |f| {
            set_first_scalar(f, 0, u64::MAX)
        }),
        ("a peak below the sessions still playing", |f| {
            *field(f, "peak_active") = serde::Value::UInt(0)
        }),
        ("histogram counts cut to one bucket", |f| {
            histogram_array(f, "counts").truncate(1)
        }),
        ("a histogram bucket more than its bounds allow", |f| {
            histogram_array(f, "counts").push(serde::Value::UInt(0))
        }),
        ("histogram bounds emptied", |f| {
            histogram_array(f, "bounds").clear();
            let counts = histogram_array(f, "counts");
            let total = counts.iter().map(|c| c.as_u64().unwrap()).sum();
            *counts = vec![serde::Value::UInt(total)];
        }),
        ("a non-finite histogram bound", |f| {
            histogram_array(f, "bounds")[0] = serde::Value::UInt(f64::NAN.to_bits())
        }),
        ("histogram bounds out of order", |f| {
            histogram_array(f, "bounds").swap(0, 1)
        }),
        ("a histogram count off its buckets' sum", |f| {
            let h = first_histogram(f);
            let count = field(h, "count").as_u64().unwrap();
            *field(h, "count") = serde::Value::UInt(count + 1);
        }),
        ("a session counter at u64::MAX", |f| {
            *field(first_value(f, "sim_sessions_total"), "c") = serde::Value::UInt(u64::MAX)
        }),
        ("a channel-busy histogram count at u64::MAX", |f| {
            let serde::Value::Object(h) = field(first_value(f, "sim_channel_busy_minutes"), "h")
            else {
                panic!("a channel-busy value is not a histogram")
            };
            let serde::Value::Array(counts) = field(h, "counts") else {
                panic!("histogram.counts is not an array")
            };
            counts.fill(serde::Value::UInt(0));
            counts[0] = serde::Value::UInt(u64::MAX);
            *field(h, "count") = serde::Value::UInt(u64::MAX);
        }),
        ("a histogram value in a counter family", |f| {
            let serde::Value::Array(families) = field(f, "snapshot") else {
                panic!("snapshot is not an array")
            };
            for family in families {
                let serde::Value::Object(fo) = family else {
                    panic!("a family is not an object")
                };
                let kind = field(fo, "kind");
                if kind.as_str() == Some("histogram") {
                    *kind = serde::Value::Str("counter".to_string());
                    return;
                }
            }
        }),
    ];
    for (what, edit) in forgeries {
        let forged = forge(&bytes, edit);
        let mut quiet = |_: Probe<'_>| Verdict::Continue;
        match sim.run_shard(&slices[0], AgendaKind::Heap, 10, Some(&forged), &mut quiet) {
            Err(ShardCrash::Corrupt(CheckpointError::Malformed(_))) => {}
            Err(e) => panic!("{what}: wrong rejection {e}"),
            Ok(_) => panic!("{what}: a forged checkpoint resumed"),
        }
    }
    // The untouched bytes still resume.
    let mut quiet = |_: Probe<'_>| Verdict::Continue;
    assert!(sim
        .run_shard(&slices[0], AgendaKind::Heap, 10, Some(&bytes), &mut quiet)
        .is_ok());
}

/// A checkpoint belongs to the shard that took it: shard 0's first
/// checkpoint, resumed through `run_shard` on shard 1 of the same plan,
/// is refused before anything runs.
#[test]
fn a_checkpoint_resumed_on_another_shard_is_refused() {
    let cfg = SystemConfig::paper_defaults(Mbps(320.0));
    let plan = Skyscraper::with_width(Width::Capped(52))
        .plan(&cfg)
        .unwrap();
    let requests = requests_for(&plan, 100, 45.0);
    let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);
    let slices = plan_shards(&requests, 2, 0, None);
    assert!(slices.iter().all(|slice| slice.len() >= 10));
    let mut captured = None;
    let mut probe = |p: Probe<'_>| match p {
        Probe::Checkpoint { encoded, .. } => {
            captured = Some(encoded.to_vec());
            Verdict::Kill
        }
        Probe::Event { .. } => Verdict::Continue,
    };
    let first = sim.run_shard(&slices[0], AgendaKind::Heap, 10, None, &mut probe);
    assert!(matches!(first, Err(ShardCrash::Killed(_))));
    let bytes = captured.expect("shard 0's first checkpoint was captured");
    let mut quiet = |_: Probe<'_>| Verdict::Continue;
    match sim.run_shard(&slices[1], AgendaKind::Heap, 10, Some(&bytes), &mut quiet) {
        Err(ShardCrash::Corrupt(CheckpointError::Malformed(_))) => {}
        Err(e) => panic!("wrong rejection {e}"),
        Ok(_) => panic!("shard 0's checkpoint resumed shard 1"),
    }
    // On its own shard the same bytes resume.
    assert!(sim
        .run_shard(&slices[0], AgendaKind::Heap, 10, Some(&bytes), &mut quiet)
        .is_ok());
}
