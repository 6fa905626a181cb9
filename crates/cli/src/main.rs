//! `sbcast` — plan, inspect and simulate periodic-broadcast schemes.
//!
//! ```text
//! sbcast plan     --scheme SB:W=52 --bandwidth 300      print the channel plan summary
//! sbcast metrics  --scheme all    --bandwidth 320       Table-1 metrics at one bandwidth
//! sbcast client   --scheme SB:W=52 --bandwidth 300 --arrival 7.3
//!                                                       one client session, with buffer profile
//! sbcast sweep    [--from 100 --to 600 --step 20 --threads 8 --samples 24]
//!                                                       the Figures 6/7/8 data + crosschecks
//! sbcast hybrid   --bandwidth 600 --titles 60 --rate 3  the §1 hybrid system
//! sbcast control  --bandwidth 300 --shift-at 150 --rotate 20
//!                                                       static vs dynamic channel
//!                                                       control under a popularity shift
//! sbcast resilience --horizon 200 --seeds 7 --threads 2 the fault study: schemes under
//!                                                       bursty loss/outages + recovery
//! sbcast scale    --shards 4 --threads 4                sharded scale-out: agenda footprint
//!                                                       and sim-time rates -> BENCH_scale.json
//! sbcast scenario --preset urban --shards 4             metropolitan scenario pack: regional
//!                                                       SB vs baselines, flash crowds,
//!                                                       correlated outages -> BENCH_scenario.json
//! sbcast recovery --shards 2 --cadence 50 --chaos "kill:1@ckpt:1"
//!                                                       crash-recovery supervision: checkpoint,
//!                                                       kill, restore, verify byte-identity;
//!                                                       --mode sweep -> BENCH_recovery.json
//! sbcast frontier --profile smoke --shards 2            the scheme-zoo Pareto frontier in
//!                                                       latency x client I/O x buffer,
//!                                                       analytic + simulated -> BENCH_frontier.json
//! sbcast distribution --profile smoke --shards 2        the distributed metro tier: placement
//!                                                       x peer assist vs the source-once
//!                                                       bound -> BENCH_distribution.json
//! sbcast table1 | table2 | fig1_4 | fig5 | fig6 | fig7 | fig8 | crosscheck | ablation | landscape
//!                                                       the paper's tables and figures
//! ```
//!
//! Scheme names: `SB:W=<w>`, `SB:W=inf`, `PB:a`, `PB:b`, `PPB:a`, `PPB:b`,
//! `STAG`, or `all`.
//!
//! Every study subcommand — the paper's tables and figures and every
//! study beyond them — dispatches through the [`sb_analysis::study`]
//! registry, one [`sb_analysis::Study`] per subcommand, behind one
//! execution-flag parser: `--threads N` sizes the worker pool (must be
//! ≥ 1; stdout and `--json` output are byte-identical for every N),
//! `--shards N` picks the scale-out shard count (sharded studies only;
//! also result-invariant), `--json <path>` writes the structured
//! report, and `--manifest <path>` writes per-stage wall-clock timings.
//! Commands with a seeded workload also take `--seed`.
//!
//! A flag the command never reads is an error, not a silent no-op:
//! `unknown flag --<key> for <cmd>`. So is a flag given twice.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap};
use std::process::ExitCode;

use sb_analysis::lineup::{schemes_from, SchemeId};
use sb_analysis::render::render_evaluations;
use sb_analysis::runner::Runner;
use sb_analysis::study::{Study, StudyCtx, StudyOpts};
use sb_batching::{BatchPolicy, HybridConfig};
use sb_core::config::SystemConfig;
use sb_core::plan::VideoId;
use sb_core::series::Width;
use sb_sim::policy::schedule_client;
use sb_workload::{Catalog, Patience, PoissonArrivals, ZipfPopularity};
use vod_units::{Mbps, Minutes};

fn usage() -> String {
    let studies: Vec<&str> = sb_analysis::study::registry()
        .iter()
        .map(|s| s.name())
        .collect();
    format!(
        "usage: sbcast <plan|metrics|client|{}|series|hetero|pausing> [--key value]...\n\
         keys: --scheme --bandwidth --arrival --video --from --to --step\n\
         --titles --popular --rate --rates 1,2,4 --horizon --width --seed\n\
         --units 1,2,2,5,5 --k 10 --lengths 95,120,150\n\
         --shift-at --rotate --tick --half-life --hysteresis --ceiling\n\
         --retry --retry-factor --retry-attempts\n\
         --patience --fraction --seeds 11,23,47\n\
         --loss-rates 0.01,0.05 --burst-len 4\n\
         --outage-channel --outage-start --outage-duration\n\
         --threads N --shards N --sessions N --videos N --samples N\n\
         --preset urban|rural|remote|all --profile smoke|paper\n\
         --flash-at --flash-boost\n\
         --mode run|sweep --cadence N --kills N\n\
         --bandwidths 200,320 --catalogs 10,20 --buggy-hb yes\n\
         --chaos 'kill:1@ckpt:1;kill:0@tick:500;corrupt:1@ckpt:2'\n\
         --policies full,partitioned,hothead,proportional\n\
         --backbone N --tail-from N --uplink-fraction F\n\
         --json PATH --metrics PATH --manifest PATH",
        studies.join("|")
    )
}

/// Parse the `--key value` flags of one invocation. Every lookup on the
/// result records its key, so `main` can reject the flags no command
/// read ([`reject_unread`]); a key given twice is rejected here.
fn parse_flags(args: &[String]) -> Result<StudyOpts, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --key, got `{k}`"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        if map.insert(key, v.as_str()).is_some() {
            return Err(format!("flag --{key} given twice"));
        }
    }
    Ok(StudyOpts::from_pairs(map))
}

/// Fail on the first given key (in sorted order) nothing has read.
fn reject_unread(opts: &StudyOpts, cmd: &str) -> Result<(), String> {
    match opts.unread() {
        Some(key) => Err(format!("unknown flag --{key} for {cmd}")),
        None => Ok(()),
    }
}

fn cmd_plan(opts: &StudyOpts) -> Result<(), String> {
    let b = opts.get_f64("bandwidth", 300.0)?;
    let ids = schemes_from(&opts.get_str("scheme", "SB:W=52"))?;
    let cfg = SystemConfig::paper_defaults(Mbps(b));
    for id in ids {
        let scheme = id.build();
        match scheme.plan(&cfg) {
            Ok(plan) => {
                println!(
                    "{}: {} channels, {} total",
                    plan.scheme,
                    plan.channels.len(),
                    plan.total_bandwidth()
                );
                let mut by_rate: HashMap<String, usize> = HashMap::new();
                for ch in &plan.channels {
                    *by_rate.entry(format!("{:.3}", ch.rate)).or_default() += 1;
                }
                let mut rates: Vec<_> = by_rate.into_iter().collect();
                rates.sort();
                for (rate, n) in rates {
                    println!("  {n} channel(s) at {rate}");
                }
                let sizes = &plan.segment_sizes[0];
                println!("  per-video fragments: {}", sizes.len());
                for (i, s) in sizes.iter().enumerate().take(8) {
                    println!(
                        "    segment {i}: {:.1} ({:.2} min at display rate)",
                        s,
                        s.value() / (1.5 * 60.0)
                    );
                }
                if sizes.len() > 8 {
                    println!("    … {} more", sizes.len() - 8);
                }
            }
            Err(e) => println!("{}: infeasible here ({e})", scheme.name()),
        }
    }
    Ok(())
}

fn cmd_metrics(opts: &StudyOpts) -> Result<(), String> {
    let b = opts.get_f64("bandwidth", 320.0)?;
    let ids = schemes_from(&opts.get_str("scheme", "all"))?;
    let rows = sb_analysis::tables::evaluate_tables(&ids, &[b]);
    print!("{}", render_evaluations(&rows));
    Ok(())
}

fn cmd_client(opts: &StudyOpts) -> Result<(), String> {
    let b = opts.get_f64("bandwidth", 300.0)?;
    let arrival = Minutes(opts.get_f64("arrival", 0.0)?);
    let video = VideoId(opts.get_usize("video", 0)?);
    let id = SchemeId::parse(&opts.get_str("scheme", "SB:W=52"))
        .ok_or_else(|| "unknown scheme".to_string())?;
    let cfg = SystemConfig::paper_defaults(Mbps(b));
    let scheme = id.build();
    let plan = scheme.plan(&cfg).map_err(|e| e.to_string())?;
    let policy = sb_analysis::crosscheck::policy_for(id);
    let s = schedule_client(&plan, video, arrival, cfg.display_rate, policy)
        .map_err(|e| e.to_string())?;
    println!("scheme {}   arrival {:.3}", plan.scheme, arrival);
    println!(
        "playback starts {:.4} (latency {:.4})",
        s.playback_start,
        s.startup_latency()
    );
    println!("downloads:");
    for d in &s.downloads {
        println!(
            "  seg {:>2}  ch {:>4}  [{:>9.4} .. {:>9.4}] min at {}",
            d.item.segment,
            d.channel,
            d.start.value(),
            d.end().value(),
            d.rate
        );
    }
    println!(
        "peak buffer {:.1} = {:.1}",
        s.peak_buffer(),
        s.peak_buffer().to_mbytes()
    );
    println!("max concurrent streams {}", s.max_concurrent_downloads());
    let jv = s.jitter_violations(1e-9);
    println!("jitter violations: {}", jv.len());
    Ok(())
}

/// The execution flags every study subcommand shares — `--threads`,
/// `--shards`, `--json`, `--manifest` — parsed and validated by one
/// routine so every registered study rejects bad values with identical
/// messages. `--seed` is not among them: only the commands with a
/// seeded workload read it.
struct CommonArgs {
    /// Worker-pool size (validated ≥ 1; results never depend on it).
    threads: usize,
    /// Shard count (validated ≥ 1; only the sharded studies accept > 1).
    shards: usize,
    /// `--json <path>`: where to write the structured report.
    json: Option<String>,
    /// `--manifest <path>`: where to write per-stage wall timings.
    manifest: Option<String>,
}

impl CommonArgs {
    fn parse(opts: &StudyOpts) -> Result<Self, String> {
        let threads = opts.get_usize("threads", 1)?;
        if threads == 0 {
            return Err("--threads must be at least 1 (got 0)".into());
        }
        let shards = opts.get_usize("shards", 1)?;
        if shards == 0 {
            return Err("--shards must be at least 1 (got 0)".into());
        }
        Ok(Self {
            threads,
            shards,
            json: opts.get("json").map(str::to_string),
            manifest: opts.get("manifest").map(str::to_string),
        })
    }

    /// The worker pool this invocation asked for.
    fn runner(&self) -> Runner {
        Runner::new(self.threads)
    }

    /// Studies that are not sharded refuse the scale-out flag instead of
    /// silently ignoring it; the registry's [`Study::sharded`] studies
    /// skip this gate, and the message names them.
    fn reject_shards(&self, cmd: &str) -> Result<(), String> {
        if self.shards > 1 {
            let sharded: Vec<String> = sb_analysis::study::registry()
                .iter()
                .filter(|s| s.sharded())
                .map(|s| format!("`{}`", s.name()))
                .collect();
            let (last, rest) = sharded.split_last().expect("a sharded study is registered");
            return Err(format!(
                "--shards applies only to {} and {last} (got {} for `{cmd}`)",
                rest.join(", "),
                self.shards
            ));
        }
        Ok(())
    }

    /// Write `value` as pretty JSON if `--json` was given.
    fn maybe_write_json<T: serde::Serialize>(&self, value: &T) -> Result<(), String> {
        if let Some(path) = &self.json {
            let json = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
            std::fs::write(path, json).map_err(|e| format!("--json {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        Ok(())
    }
}

/// Print per-stage timings to stderr and honour `--manifest`. Timings
/// never touch stdout, so results stay byte-identical across `--threads`.
fn finish_runner(common: &CommonArgs, runner: &Runner) -> Result<(), String> {
    let manifest = runner.manifest();
    eprint!("{}", manifest.summary());
    if let Some(path) = &common.manifest {
        let json = serde_json::to_string_pretty(&manifest).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("--manifest {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// Run one registered study: parse the common execution flags, build the
/// [`StudyCtx`], print the rendered report to stdout, write the JSON
/// artifact (the registry default or `--json`), honour `--metrics`, and
/// put wall-clock rates on stderr.
fn run_study(study: &'static dyn Study, opts: &StudyOpts) -> Result<(), String> {
    let common = CommonArgs::parse(opts)?;
    if !study.sharded() {
        common.reject_shards(study.name())?;
    }
    let runner = common.runner();
    let ctx = StudyCtx {
        opts,
        shards: common.shards,
        runner: &runner,
    };
    let t0 = std::time::Instant::now();
    let out = study.run(&ctx)?;
    let wall = t0.elapsed().as_secs_f64();
    let metrics = out
        .metrics
        .as_ref()
        .and_then(|snapshot| opts.get("metrics").map(|path| (snapshot, path)));
    // Every flag has been read by now: refuse the rest before any output.
    reject_unread(opts, study.name())?;
    print!("{}", out.rendered);
    match study.artifact() {
        Some(default) => {
            // Wall-clock is machine truth, not simulation truth: stderr
            // only, so stdout and the artifact stay byte-identical
            // across `--shards` and `--threads`.
            let mut line = format!(
                "wall: {wall:.3}s at --shards {} --threads {}",
                common.shards,
                runner.threads(),
            );
            if out.sessions > 0 {
                line.push_str(&format!(", {:.0} sessions/sec", out.sessions as f64 / wall));
            }
            eprintln!("{line}");
            let path = common.json.clone().unwrap_or_else(|| default.to_string());
            std::fs::write(&path, &out.report_json).map_err(|e| format!("--json {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => {
            if let Some(path) = &common.json {
                std::fs::write(path, &out.report_json)
                    .map_err(|e| format!("--json {path}: {e}"))?;
                eprintln!("wrote {path}");
            }
        }
    }
    if let Some((snapshot, path)) = metrics {
        let json = serde_json::to_string_pretty(snapshot).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("--metrics {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    finish_runner(&common, &runner)
}

/// Resolve a registry study by name; a miss is a bug in the dispatch
/// table, not user error.
fn study(name: &str) -> &'static dyn Study {
    sb_analysis::study::find(name).expect("subcommand registered in sb_analysis::study")
}

/// The `hybrid` single-server report (the `--rates` study mode
/// dispatches through the registry instead).
fn cmd_hybrid(opts: &StudyOpts) -> Result<(), String> {
    let b = opts.get_f64("bandwidth", 600.0)?;
    let titles = opts.get_usize("titles", 60)?;
    let popular = opts.get_usize("popular", 10)?;
    let rate = opts.get_positive("rate", 3.0)?;
    let horizon = opts.get_positive("horizon", 600.0)?;
    let width = opts.get_usize("width", 52)? as u64;
    let common = CommonArgs::parse(opts)?;
    common.reject_shards("hybrid")?;
    let seed = opts.get_u64("seed", 42)?;
    let catalog = Catalog::paper_defaults(titles);
    let requests = PoissonArrivals::new(rate, seed)
        .with_patience(Patience::Exponential(Minutes(8.0)))
        .generate(&ZipfPopularity::paper(titles), Minutes(horizon));
    let cfg = HybridConfig {
        total_bandwidth: Mbps(b),
        popular,
        width: Width::capped_lossy(width),
        policy: BatchPolicy::Mql,
        broadcast_fraction: 0.5,
    };
    let report = cfg.run(&catalog, &requests).map_err(|e| e.to_string())?;
    println!("hybrid server: {titles} titles, {popular} broadcast, B = {b} Mb/s");
    println!("requests: {}", requests.len());
    println!(
        "broadcast half : {} channels, worst latency {:.3}, {} requests ({} impatient)",
        report.broadcast_channels,
        report.broadcast_worst_latency,
        report.broadcast_requests,
        report.broadcast_impatient
    );
    println!(
        "multicast half : {} channels, served {} / reneged {} (renege rate {:.1}%), mean wait {:.2}, mean batch {:.2}",
        report.multicast_channels,
        report.multicast.served,
        report.multicast.reneged,
        report.multicast.renege_rate() * 100.0,
        report.multicast.mean_wait,
        report.multicast.mean_batch_size
    );
    Ok(())
}

/// One missing-shard marker, serialized for `--json`.
#[derive(serde::Serialize)]
struct MissingShardJson {
    shard: usize,
    attempts: u32,
    last_error: String,
}

/// The `recovery run` report, serialized for `--json`.
#[derive(serde::Serialize)]
struct RecoveryRunJson {
    sessions_merged: usize,
    complete: bool,
    identical: bool,
    crashes_injected: u64,
    restores: u64,
    corrupt_rejected: u64,
    replayed_sessions: u64,
    checkpoints: u64,
    recovery_delay_min: f64,
    missing: Vec<MissingShardJson>,
}

/// `recovery --mode run` (the default): one supervised run under an
/// explicit `--chaos` script, re-verifying the byte-identity invariant
/// against a plain `execute`. The `--mode sweep` study half dispatches
/// through the registry instead. Both are byte-identical across
/// `--threads` and `--shards`.
fn cmd_recovery_run(opts: &StudyOpts) -> Result<(), String> {
    use sb_resilience::{Backoff, CrashScript, Recovered, RunSpec, Supervisor};
    use sb_sim::policy::ClientPolicy;
    use sb_sim::system::{Request, SystemSim};
    use sb_sim::RunConfig;
    use sb_workload::GridArrivals;

    let common = CommonArgs::parse(opts)?;

    let bandwidth = Mbps(opts.get_f64("bandwidth", 320.0)?);
    let sessions = opts.get_usize("sessions", 2_000)?;
    let titles = opts.get_usize("titles", 10)?;
    let horizon = Minutes(opts.get_positive("horizon", 200.0)?);
    let cadence = opts.get_usize("cadence", 50)? as u64;
    let seed = opts.get_u64("seed", 17)?;
    let chaos = CrashScript::parse(&opts.get_str("chaos", "")).map_err(|e| e.to_string())?;
    let backoff = sb_analysis::study::parse_backoff(opts)?
        .map_or_else(|| Backoff::new(Minutes(1.0), 2.0, 8), Ok)
        .map_err(|e| e.to_string())?;

    let id = SchemeId::parse(&opts.get_str("scheme", "SB:W=52"))
        .ok_or_else(|| format!("unknown scheme `{}`", opts.get_str("scheme", "SB:W=52")))?;
    let sys = SystemConfig::paper_defaults(bandwidth);
    let plan = id.build().plan(&sys).map_err(|e| e.to_string())?;
    let requests: Vec<Request> = GridArrivals {
        sessions,
        horizon,
        titles: titles.min(plan.num_videos().max(1)),
        patience: Patience::Infinite,
        seed,
    }
    .generate()
    .into_iter()
    .map(|w| Request {
        at: w.at,
        video: VideoId(w.video),
    })
    .collect();

    // Up-front validation: an unread flag or a zero cadence is a typed
    // error before anything runs.
    reject_unread(opts, "recovery")?;
    let run_cfg = RunConfig::new(&requests)
        .shards(common.shards)
        .threads(common.threads)
        .seed(seed);
    let supervisor = Supervisor::new(backoff, cadence).map_err(|e| e.to_string())?;

    let sim = SystemSim::new(&plan, sys.display_rate, ClientPolicy::LatestFeasible);
    let baseline = sim.execute(run_cfg).map_err(|e| e.to_string())?;
    let spec = RunSpec {
        shards: common.shards,
        threads: common.threads,
        seed,
        partition: None,
    };
    let recovered = supervisor
        .run(&sim, &requests, &spec, &chaos)
        .map_err(|e| e.to_string())?;

    let bytes = |o: &sb_sim::RunOutcome| {
        serde_json::to_string(&(&o.summary, &o.fold, &o.snapshot)).expect("outcomes serialize")
    };
    let stats = *recovered.stats();
    let complete = matches!(recovered, Recovered::Complete { .. });
    let identical = complete && bytes(&baseline) == bytes(recovered.outcome());
    println!(
        "recovery run: {} at {} Mb/s, {} sessions on {} shard(s), cadence {}",
        id.label(),
        bandwidth.value(),
        sessions,
        common.shards,
        cadence,
    );
    println!(
        "chaos: {} event(s); crashes {}, restores {}, corrupt rejected {}, \
         replayed {}, checkpoints {}, modeled delay {:.1} min",
        chaos.events().len(),
        stats.crashes_injected,
        stats.restores,
        stats.corrupt_rejected,
        stats.replayed_sessions,
        stats.checkpoints_taken,
        stats.recovery_delay.value(),
    );
    println!(
        "sessions merged: {} of {}",
        recovered.outcome().summary.sessions,
        baseline.summary.sessions,
    );
    let missing: Vec<MissingShardJson> = match &recovered {
        Recovered::Complete { .. } => {
            println!(
                "identical to uninterrupted execute: {}",
                if identical { "yes" } else { "NO" }
            );
            Vec::new()
        }
        Recovered::Partial(p) => {
            println!("PARTIAL RUN: {} shard(s) lost", p.missing.len());
            for m in &p.missing {
                println!(
                    "  shard {}: lost after {} attempt(s): {}",
                    m.shard, m.attempts, m.last_error
                );
            }
            p.missing
                .iter()
                .map(|m| MissingShardJson {
                    shard: m.shard,
                    attempts: m.attempts,
                    last_error: m.last_error.clone(),
                })
                .collect()
        }
    };
    common.maybe_write_json(&RecoveryRunJson {
        sessions_merged: recovered.outcome().summary.sessions,
        complete,
        identical,
        crashes_injected: stats.crashes_injected,
        restores: stats.restores,
        corrupt_rejected: stats.corrupt_rejected,
        replayed_sessions: stats.replayed_sessions,
        checkpoints: stats.checkpoints_taken,
        recovery_delay_min: stats.recovery_delay.value(),
        missing,
    })?;
    if !identical && complete {
        return Err("supervised run diverged from the uninterrupted baseline".into());
    }
    Ok(())
}

fn cmd_series(opts: &StudyOpts) -> Result<(), String> {
    use sb_core::custom::{greedy_max_series, validate_units, PhaseBudget};
    let budget = PhaseBudget::ExhaustiveUpTo(100_000);
    if let Some(spec) = opts.get("units") {
        let units: Vec<u64> = spec
            .split(',')
            .map(|t| t.trim().parse().map_err(|_| format!("bad unit `{t}`")))
            .collect::<Result<_, _>>()?;
        match validate_units(&units, budget) {
            Ok(()) => {
                println!("series {units:?} is VALID for the two-loader client");
                let total: u64 = units.iter().sum();
                println!(
                    "  latency for a 120-min video: {:.4} min",
                    120.0 / total as f64
                );
            }
            Err(v) => println!("series {units:?} is INVALID: {v}"),
        }
        Ok(())
    } else {
        let k = opts.get_usize("k", 10)?;
        let found = greedy_max_series(k, budget);
        println!("fastest two-loader-safe series of {k} fragments:");
        println!("  {found:?}");
        println!(
            "  (the paper's series: {:?})",
            sb_core::series::series(k.min(40))
        );
        Ok(())
    }
}

fn cmd_hetero(opts: &StudyOpts) -> Result<(), String> {
    use sb_core::heterogeneous::{plan_heterogeneous, HeteroVideo};
    let b = opts.get_f64("bandwidth", 300.0)?;
    let width = opts.get_usize("width", 52)? as u64;
    let lengths = opts.get_str("lengths", "95,120,150,87,133");
    let videos: Vec<HeteroVideo> = lengths
        .split(',')
        .map(|t| {
            t.trim()
                .parse::<f64>()
                .map(|m| HeteroVideo { length: Minutes(m) })
                .map_err(|_| format!("bad length `{t}`"))
        })
        .collect::<Result<_, _>>()?;
    let hp = plan_heterogeneous(Mbps(b), Mbps(1.5), &videos, Width::capped_lossy(width))
        .map_err(|e| e.to_string())?;
    println!(
        "heterogeneous SB plan: {} videos × {} channels, {} total",
        videos.len(),
        hp.channels_per_video,
        hp.plan.total_bandwidth()
    );
    println!(
        "{:>6} {:>12} {:>14} {:>12}",
        "video", "length(min)", "latency(min)", "buffer(MB)"
    );
    for (v, pv) in hp.per_video.iter().enumerate() {
        println!(
            "{v:>6} {:>12.0} {:>14.4} {:>12.1}",
            videos[v].length.value(),
            pv.metrics.access_latency.value(),
            pv.metrics.buffer_requirement.to_mbytes().value()
        );
    }
    Ok(())
}

fn cmd_pausing(opts: &StudyOpts) -> Result<(), String> {
    use sb_sim::pausing::schedule_pausing_client;
    let b = opts.get_f64("bandwidth", 320.0)?;
    let arrival = Minutes(opts.get_f64("arrival", 0.0)?);
    let id = SchemeId::parse(&opts.get_str("scheme", "PPB:b"))
        .ok_or_else(|| "unknown scheme".to_string())?;
    if !matches!(id, SchemeId::PpbA | SchemeId::PpbB) {
        return Err("pausing clients exist only for PPB (scheme PPB:a or PPB:b)".into());
    }
    let cfg = SystemConfig::paper_defaults(Mbps(b));
    let scheme = id.build();
    let plan = scheme.plan(&cfg).map_err(|e| e.to_string())?;
    let s = schedule_pausing_client(&plan, VideoId(0), arrival, cfg.display_rate)
        .map_err(|e| e.to_string())?;
    let t = schedule_client(
        &plan,
        VideoId(0),
        arrival,
        cfg.display_rate,
        sb_analysis::crosscheck::policy_for(id),
    )
    .map_err(|e| e.to_string())?;
    println!("PPB max-saving (pausing) client vs tune-at-start, arrival {arrival:.2}:");
    println!("  bursts               : {}", s.bursts.len());
    println!("  mid-broadcast joins  : {}", s.mid_broadcast_joins());
    println!("  pausing peak buffer  : {:.1}", s.peak_buffer_mbytes());
    println!(
        "  tune-at-start buffer : {:.1}",
        t.peak_buffer().to_mbytes()
    );
    println!(
        "  Table-1 analytic     : {:.1}",
        scheme
            .metrics(&cfg)
            .map_err(|e| e.to_string())?
            .buffer_requirement
            .to_mbytes()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let run = parse_flags(rest).and_then(|opts| {
        match cmd.as_str() {
            "plan" => cmd_plan(&opts),
            "metrics" => cmd_metrics(&opts),
            "client" => cmd_client(&opts),
            // Dual-mode subcommands: the study half goes through the
            // registry, the other half stays hand-rolled.
            "hybrid" if opts.get("rates").is_none() => cmd_hybrid(&opts),
            "recovery" => match opts.get_str("mode", "run").as_str() {
                "run" => cmd_recovery_run(&opts),
                "sweep" => run_study(study("recovery"), &opts),
                mode => Err(format!("--mode: expected `run` or `sweep`, got `{mode}`")),
            },
            "series" => cmd_series(&opts),
            "hetero" => cmd_hetero(&opts),
            "pausing" => cmd_pausing(&opts),
            other => match sb_analysis::study::find(other) {
                Some(study) => run_study(study, &opts),
                None => Err(format!("unknown command `{other}`\n{}", usage())),
            },
        }?;
        reject_unread(&opts, cmd)
    });
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
