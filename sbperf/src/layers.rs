//! The traced pass: after the timed passes, re-run each layer's public
//! function on the same inputs, in engine order, from outside the
//! program, with a span around every call.
//!
//! The probes time public APIs under the simulator's current call
//! pattern; they do not see inside `execute`. A layer the workload does
//! not run keeps an empty span.

use sb_metrics::{Recorder, Registry};
use sb_sim::{
    merge_shard_runs, plan_shards, AgendaKind, CollectTraces, Engine, Probe, Reception, Request,
    SessionTrace, ShardSlice, StreamingFold, TraceSink, Verdict,
};
use vod_units::{Mbits, TickScale, Ticks};

use crate::metrics::PER_LAYER;
use crate::trace::Tracer;
use crate::workload::{json, ControlSetup, Facts, Scale, Setup, SimSetup, Workload};

/// Sessions per client → recorder → fold round: large enough that the
/// timer calls vanish, small enough that the traces of one round stay
/// cheap to hold.
const CHUNK: usize = 4096;

/// Every span the per-layer metrics read.
const LAYERS: [&str; 13] = [
    "arrivals",
    "plan",
    "shard_plan",
    "client",
    "core",
    "agenda",
    "recorder",
    "fold",
    "shard",
    "merge",
    "checkpoint",
    "json",
    "control",
];

/// The traced pass's spans, per-layer values (in [`PER_LAYER`] order)
/// and any check it failed.
pub struct Traced {
    /// Every span recorded.
    pub tracer: Tracer,
    /// One value per per-layer metric.
    pub values: Vec<f64>,
    /// Checks that failed.
    pub errors: Vec<String>,
}

/// Numbers the traced pass measures besides span times and counts.
#[derive(Default)]
struct Extras {
    max_share: f64,
    receptions: u64,
    agenda_peak: u64,
    series: usize,
    fold_bytes: usize,
    checkpoint_bytes_per_session: f64,
    swaps: usize,
    rejected_share: f64,
    /// The spans of layers `execute` runs.
    on_path: &'static [&'static str],
    /// Median seconds of the timed (one-thread) `execute`: what the
    /// on-path layers are set against.
    busy: f64,
}

/// Run the traced pass. `expect` is the first timed pass's outcome and
/// `exec_median` the median timed `execute` seconds.
pub fn traced_pass(
    workload: Workload,
    seed: u64,
    scale: Scale,
    expect: Option<&Facts>,
    exec_median: f64,
) -> Traced {
    let mut tr = Tracer::new();
    let mut x = Extras {
        on_path: &["client", "core", "agenda", "recorder", "fold"],
        busy: exec_median,
        ..Extras::default()
    };
    let setup = tr.span("setup", |tr| workload.setup(seed, scale, tr));
    let result = match &setup {
        Setup::Sim(s) => sim_layers(s, &mut tr, &mut x, expect),
        Setup::Control(c) => control_layers(c, &mut tr, &mut x, expect),
    };
    for name in LAYERS {
        tr.ensure(name);
    }
    let values = PER_LAYER.iter().map(|d| value(d.name, &tr, &x)).collect();
    Traced {
        tracer: tr,
        values,
        errors: result.err().into_iter().collect(),
    }
}

fn value(name: &str, tr: &Tracer, x: &Extras) -> f64 {
    let sessions = tr.total("client");
    let per_session = |v: f64| {
        if sessions == 0 {
            0.0
        } else {
            v / sessions as f64
        }
    };
    match name {
        "arrivals.s" => tr.seconds("arrivals"),
        "arrivals.requests" => tr.total("arrivals") as f64,
        "plan.s" => tr.seconds("plan"),
        "shard_plan.s" => tr.seconds("shard_plan"),
        "shard_plan.max_share" => x.max_share,
        "client.s" => tr.seconds("client"),
        "client.us_per_session" => per_session(tr.seconds("client") * 1e6),
        "client.receptions_per_session" => per_session(x.receptions as f64),
        "core.s" => tr.seconds("core"),
        "agenda.s" => tr.seconds("agenda"),
        "agenda.events" => tr.total("agenda") as f64,
        "agenda.peak" => x.agenda_peak as f64,
        "recorder.s" => tr.seconds("recorder"),
        "recorder.calls" => tr.total("recorder") as f64,
        "recorder.series" => x.series as f64,
        "fold.s" => tr.seconds("fold"),
        "fold.retained_bytes" => x.fold_bytes as f64,
        "shards.busy_sum_s" => tr.seconds("shard"),
        "shards.skew" => {
            let busy = tr.durations("shard");
            let mean = busy.iter().sum::<f64>() / busy.len() as f64;
            let max = busy.iter().copied().fold(0.0, f64::max);
            if mean > 0.0 {
                max / mean
            } else {
                0.0
            }
        }
        "merge.s" => tr.seconds("merge"),
        "checkpoint.s" => tr.seconds("checkpoint"),
        "checkpoint.bytes_per_session" => x.checkpoint_bytes_per_session,
        "json.s" => tr.seconds("json"),
        "json.bytes" => tr.total("json") as f64,
        "control.serial_s" => tr.seconds("control"),
        "control.swaps" => x.swaps as f64,
        "control.rejected_share" => x.rejected_share,
        "traced.coverage" => {
            let on_path: f64 = x.on_path.iter().map(|l| tr.seconds(l)).sum();
            if x.busy > 0.0 {
                on_path / x.busy
            } else {
                0.0
            }
        }
        other => unreachable!("per-layer metric {other} has no probe"),
    }
}

/// The per-session metric calls `SystemSim` makes, with the same string
/// labels. Returns the number of calls.
fn record_session(rec: &mut dyn Recorder, r: &Request, s: &SessionTrace) -> u64 {
    let video = r.video.0.to_string();
    let vl: &[(&str, &str)] = &[("video", &video)];
    rec.incr("sim_sessions_total", vl, 1);
    rec.observe("sim_latency_minutes", vl, s.startup_latency().value());
    rec.observe("sim_peak_buffer_mbits", vl, s.peak_buffer().value());
    for rx in &s.receptions {
        let channel = rx.channel.to_string();
        rec.observe(
            "sim_channel_busy_minutes",
            &[("channel", &channel)],
            rx.duration.value(),
        );
    }
    3 + s.receptions.len() as u64
}

/// The per-session numbers `SystemSim`'s core derives from a trace
/// besides the recorder's and the fold's: the latency, the worst-buffer
/// candidate and the end tick, plus the merge scalars each shard
/// captures on sharded runs. Returns the session's end tick.
fn core_scalars(t: &SessionTrace, sharded: bool, ticks: TickScale) -> u64 {
    std::hint::black_box((t.startup_latency(), t.peak_buffer()));
    if sharded {
        std::hint::black_box((
            t.peak_buffer(),
            t.total_received(),
            t.max_concurrent_receptions(),
        ));
    }
    (Ticks::ZERO + ticks.duration_from_minutes(t.playback_end())).0
}

/// Heap and inline bytes one buffered trace holds.
fn trace_bytes(t: &SessionTrace) -> usize {
    std::mem::size_of::<SessionTrace>()
        + t.receptions.len() * std::mem::size_of::<Reception>()
        + t.segment_sizes.len() * std::mem::size_of::<Mbits>()
}

fn sim_layers(
    s: &SimSetup,
    tr: &mut Tracer,
    x: &mut Extras,
    expect: Option<&Facts>,
) -> Result<(), String> {
    let n = s.requests.len();
    let slices = tr.span("shard_plan", |tr| {
        tr.count(n as u64);
        plan_shards(&s.requests, s.shards, 0, s.partition.as_deref())
    });
    let largest = slices.iter().map(ShardSlice::len).max().unwrap_or(0);
    x.max_share = largest as f64 / n.max(1) as f64;

    // Client model, core, recorder and sinks, in engine order (the slice
    // is sorted by arrival), a chunk of sessions per round.
    let sharded = s.shards > 1;
    let index = s.plan.index();
    let ticks = TickScale::default();
    let mut end_ticks: Vec<u64> = Vec::with_capacity(n);
    let mut reg = Registry::new();
    let mut fold = StreamingFold::new();
    let mut user = s.region_fold();
    let mut buffered_bytes = 0usize;
    tr.span("sessions", |tr| {
        for chunk in s.requests.chunks(CHUNK) {
            let traces = tr.span("client", |tr| {
                tr.count(chunk.len() as u64);
                chunk
                    .iter()
                    .map(|r| {
                        s.model
                            .session_indexed(&index, r.video, r.at, s.display_rate)
                    })
                    .collect::<Result<Vec<_>, _>>()
            });
            let traces = traces.map_err(|e| format!("traced client: {e}"))?;
            x.receptions += traces
                .iter()
                .map(|t| t.receptions.len() as u64)
                .sum::<u64>();
            tr.span("core", |tr| {
                tr.count(traces.len() as u64);
                for t in &traces {
                    end_ticks.push(core_scalars(t, sharded, ticks));
                }
            });
            tr.span("recorder", |tr| {
                let rec: &mut dyn Recorder = &mut reg;
                for (r, t) in chunk.iter().zip(&traces) {
                    tr.count(record_session(rec, r, t));
                }
            });
            tr.span("fold", |tr| {
                tr.count(traces.len() as u64);
                match (sharded, user.as_mut()) {
                    // Serial: the streaming fold, teed with any user sink.
                    (false, mut user) => {
                        for t in &traces {
                            fold.accept(t);
                            if let Some(u) = user.as_mut() {
                                u.accept(t);
                            }
                        }
                    }
                    // Sharded with a user sink: each shard buffers whole
                    // traces, which the merge then replays into the sink.
                    (true, Some(u)) => {
                        let mut buffer = CollectTraces::new();
                        for t in &traces {
                            buffer.accept(t);
                        }
                        for t in &buffer.traces {
                            u.accept(t);
                            buffered_bytes += trace_bytes(t);
                        }
                    }
                    // Sharded without one: the merge folds the scalars.
                    (true, None) => {}
                }
            });
            if sharded {
                // Only for the checks below; the merge folds on this path.
                for t in &traces {
                    fold.accept(t);
                }
            }
        }
        Ok::<(), String>(())
    })?;
    let snapshot = reg.snapshot();
    x.series = snapshot.families.iter().map(|f| f.series.len()).sum();
    x.fold_bytes = fold.freeze().latencies.len() * std::mem::size_of::<f64>() + buffered_bytes;

    // The agenda: every Arrive up front, a Finish at each session's end.
    #[derive(Clone, Copy)]
    enum Ev {
        Arrive(usize),
        Finish,
    }
    let stats = tr.span("agenda", |tr| {
        let mut engine: Engine<Ev> = Engine::new();
        for (i, r) in s.requests.iter().enumerate() {
            engine.schedule_at(
                Ticks::ZERO + ticks.duration_from_minutes(r.at),
                Ev::Arrive(i),
            );
        }
        engine.run(|engine, _, ev| {
            if let Ev::Arrive(i) = ev {
                engine.schedule_at(Ticks(end_ticks[i]), Ev::Finish);
            }
        });
        let stats = engine.stats();
        tr.count(stats.fired);
        stats
    });
    x.agenda_peak = stats.peak_agenda;

    // Shards run serially, then the canonical merge.
    let sim = s.sim();
    let runs = tr.span("shards", |tr| {
        slices
            .iter()
            .enumerate()
            .map(|(i, slice)| {
                tr.span("shard", |tr| {
                    tr.count(slice.len() as u64);
                    sim.run_shard(slice, AgendaKind::Heap, u64::MAX, None, &mut |_| {
                        Verdict::Continue
                    })
                    .map(|run| (i, run))
                })
            })
            .collect::<Result<Vec<_>, _>>()
    });
    let runs = runs.map_err(|e| format!("traced shard: {e}"))?;
    if s.shards > 1 {
        x.on_path = &["client", "core", "agenda", "recorder", "fold", "merge"];
        let (out, rows) = tr.span("threads2", |tr| {
            tr.count(n as u64);
            s.execute(2)
        })?;
        let facts = s.check(&out, &rows)?;
        same_as_timed(&facts, expect)?;
    }
    let merged = tr
        .span("merge", |tr| {
            tr.count(n as u64);
            merge_shard_runs(runs, "sbperf")
        })
        .map_err(|e| format!("traced merge: {e}"))?;

    // One checkpointed run of the largest shard, four checkpoints deep.
    let big = slices
        .iter()
        .max_by_key(|sl| sl.len())
        .expect("a run has at least one shard");
    let cadence = (big.len() as u64 / 4).max(1);
    let mut last = (0u64, 0usize);
    tr.span("checkpoint", |tr| {
        let run = sim.run_shard(big, AgendaKind::Heap, cadence, None, &mut |p| {
            if let Probe::Checkpoint { index, encoded } = p {
                last = (index, encoded.len());
            }
            Verdict::Continue
        });
        tr.count(last.1 as u64);
        run
    })
    .map_err(|e| format!("traced checkpoint: {e}"))?;
    if last.0 > 0 {
        x.checkpoint_bytes_per_session = last.1 as f64 / (last.0 * cadence) as f64;
    }

    tr.span("json", |tr| {
        for text in [
            serde_json::to_string_pretty(&merged.summary),
            serde_json::to_string_pretty(&merged.fold),
            serde_json::to_string_pretty(&merged.snapshot),
        ] {
            tr.count(text.expect("in-memory values always serialize").len() as u64);
        }
    });

    let fold_json = json(&fold.finish());
    same(
        stats.fired == 2 * n as u64,
        "the agenda fires one Arrive and one Finish per request",
    )?;
    same(
        json(&merged.fold) == fold_json,
        "merge_shard_runs folds the same bytes as the outside fold",
    )?;
    if let Some(e) = expect {
        same(
            fold_json == e.fold_json,
            "the outside fold serializes to execute's fold bytes",
        )?;
        same(
            snapshot.counter_total("sim_sessions_total") == e.sessions_total,
            "the recorder counts execute's sim_sessions_total",
        )?;
    }
    Ok(())
}

fn control_layers(
    c: &ControlSetup,
    tr: &mut Tracer,
    x: &mut Extras,
    expect: Option<&Facts>,
) -> Result<(), String> {
    // The control plane has no finer public layer than the whole run.
    x.on_path = &["control"];
    let out = tr.span("control", |tr| {
        tr.count(c.requests.len() as u64);
        c.execute(1)
    })?;
    let s = &out.summary;
    x.swaps = s.swaps_committed;
    x.rejected_share = s.rejected as f64 / s.requests.max(1) as f64;
    tr.span("json", |tr| {
        for text in [
            serde_json::to_string_pretty(&out.summary),
            serde_json::to_string_pretty(&out.snapshot),
        ] {
            tr.count(text.expect("in-memory values always serialize").len() as u64);
        }
    });
    same_as_timed(&c.check(&out)?, expect)?;
    let threads2 = tr.span("threads2", |tr| {
        tr.count(c.requests.len() as u64);
        c.execute(2)
    })?;
    same_as_timed(&c.check(&threads2)?, expect)
}

/// The outcome matches the first timed pass byte for byte.
fn same_as_timed(facts: &Facts, expect: Option<&Facts>) -> Result<(), String> {
    match expect {
        Some(e) => same(
            facts.bytes == e.bytes,
            "the traced re-run reproduces the timed outcome's bytes",
        ),
        None => Ok(()),
    }
}

fn same(holds: bool, what: &str) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(format!("traced check failed: {what}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_per_layer_metric_has_a_probe() {
        let mut tr = Tracer::new();
        for name in LAYERS {
            tr.ensure(name);
        }
        for d in PER_LAYER {
            assert!(
                value(d.name, &tr, &Extras::default()).is_finite(),
                "{}",
                d.name
            );
        }
    }

    #[test]
    fn traced_smoke_passes_match_their_timed_outcome() {
        for w in Workload::ALL {
            let setup = w.setup(17, Scale::Smoke, &mut Tracer::new());
            let out = setup.execute().expect("smoke inputs execute");
            let facts = setup.check(&out).expect("smoke outcome passes");
            let traced = traced_pass(w, 17, Scale::Smoke, Some(&facts), 1.0);
            assert!(
                traced.errors.is_empty(),
                "{}: {:?}",
                w.name(),
                traced.errors
            );
            assert_eq!(traced.values.len(), PER_LAYER.len());
            assert!(traced.values.iter().all(|v| v.is_finite()));
        }
    }
}
