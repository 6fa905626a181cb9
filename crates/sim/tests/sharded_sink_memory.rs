//! Memory gate for sharded runs with a caller's trace sink: the memory
//! a run needs must not grow with its session count by more than a few
//! words per session.
//!
//! A sharded run hands the caller's sink every trace in global sweep
//! order. Buffering each shard's traces until all shards finish costs
//! about 1.4 KB per SB session; merging in bounded windows keeps only
//! one window of traces alive. This file holds a single test so that it
//! runs as a process of its own: the peak resident set (`VmHWM`) it
//! reads after the run is then the run's peak, not another test's.

use sb_core::config::SystemConfig;
use sb_core::plan::VideoId;
use sb_core::scheme::BroadcastScheme;
use sb_core::series::Width;
use sb_core::Skyscraper;
use sb_sim::policy::ClientPolicy;
use sb_sim::system::{Request, SystemSim};
use sb_sim::{NullSink, RunConfig};
use vod_units::{Mbps, Minutes};

/// Sessions in the run.
const SESSIONS: usize = 50_000;

/// The most the run's peak may exceed the resident set before it, per
/// session. The per-session state a run must keep is a few words: its
/// 4 B route entry and the fold's one latency. The requests are the
/// caller's, borrowed, and allocated before the run.
const MAX_BYTES_PER_SESSION: f64 = 256.0;

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find(|l| l.starts_with(field))
        .unwrap_or_else(|| panic!("{field} is missing from /proc/self/status"));
    let kb: u64 = line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("{line:?}: {e}"));
    kb * 1024
}

#[test]
fn four_shard_sink_run_holds_no_per_session_traces() {
    let cfg = SystemConfig::paper_defaults(Mbps(320.0));
    let plan = Skyscraper::with_width(Width::Capped(52))
        .plan(&cfg)
        .unwrap();
    let videos = plan.num_videos();
    // 22 arrivals a minute, the paper's flagship load, over ten titles.
    let requests: Vec<Request> = (0..SESSIONS)
        .map(|i| Request {
            at: Minutes(i as f64 / 22.0),
            video: VideoId(i * 7 % videos),
        })
        .collect();
    let sim = SystemSim::new(&plan, cfg.display_rate, ClientPolicy::LatestFeasible);

    let before = status_bytes("VmRSS:");
    let mut sink = NullSink;
    let out = sim
        .execute(RunConfig::new(&requests).shards(4).sink(&mut sink))
        .unwrap();
    let peak = status_bytes("VmHWM:");
    assert_eq!(out.summary.sessions, SESSIONS);

    let growth = peak.saturating_sub(before) as f64;
    let per_session = growth / SESSIONS as f64;
    eprintln!(
        "VmRSS before {before} B, VmHWM after {peak} B: {per_session:.1} B per session \
         over {SESSIONS} sessions"
    );
    assert!(
        per_session < MAX_BYTES_PER_SESSION,
        "a 4-shard sink run grew the peak resident set by {per_session:.1} B per session \
         (bound {MAX_BYTES_PER_SESSION} B)"
    );
}
