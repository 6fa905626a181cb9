//! The scheduled-multicast channel-pool simulation.
//!
//! A pool of `channels` server streams serves a catalog of videos. Viewer
//! requests queue per video; whenever a channel is (or becomes) free and
//! somebody is waiting, the [`BatchPolicy`] picks a queue and the whole
//! batch is served by one multicast stream, which occupies the channel for
//! the video's full length. Viewers renege when their patience runs out
//! before service starts — the behaviour §1 says bounded-latency broadcast
//! improves.

use sb_sim::MinQueue;
use serde::{Deserialize, Serialize};
use vod_units::Minutes;

use sb_workload::{Catalog, WorkloadRequest};

use crate::policy::BatchPolicy;

/// Per-request outcome of a batching run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ServiceOutcome {
    /// Served at the given start time (wait = start − arrival).
    Served {
        /// When the multicast stream carrying this viewer began.
        at: Minutes,
    },
    /// Gave up waiting at the given time.
    Reneged {
        /// When the viewer deserted.
        at: Minutes,
    },
}

/// Aggregate statistics of one batching run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceReport {
    /// Requests that were served.
    pub served: usize,
    /// Requests that reneged.
    pub reneged: usize,
    /// Mean wait of served requests.
    pub mean_wait: Minutes,
    /// Worst wait of served requests.
    pub worst_wait: Minutes,
    /// Number of multicast streams started.
    pub streams: usize,
    /// Mean batch size (served requests per stream).
    pub mean_batch_size: f64,
    /// Per-request outcomes, in input order.
    pub outcomes: Vec<ServiceOutcome>,
}

impl ServiceReport {
    /// Fraction of requests that reneged.
    #[must_use]
    pub fn renege_rate(&self) -> f64 {
        let total = self.served + self.reneged;
        if total == 0 {
            0.0
        } else {
            self.reneged as f64 / total as f64
        }
    }
}

/// The channel-pool server.
#[derive(Debug, Clone)]
pub struct BatchingServer {
    /// Number of concurrent multicast streams the pool supports.
    pub channels: usize,
    /// The batch-selection policy.
    pub policy: BatchPolicy,
}

/// Wrapper giving finite f64 completion times a total order, so they can
/// ride in the shared [`MinQueue`] (the same min-heap idiom the engine's
/// heap agenda uses).
#[derive(PartialEq)]
struct T(f64);
impl Eq for T {}
impl PartialOrd for T {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for T {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("finite times")
    }
}

impl BatchingServer {
    /// A pool with the given size and policy.
    ///
    /// # Panics
    /// Panics if `channels == 0`.
    #[must_use]
    pub fn new(channels: usize, policy: BatchPolicy) -> Self {
        assert!(channels > 0, "a server needs at least one channel");
        Self { channels, policy }
    }

    /// Run the pool over a request stream (`video` indexes `catalog`).
    ///
    /// Requests must be sorted by arrival time (as produced by
    /// `sb_workload::PoissonArrivals::generate`).
    ///
    /// # Panics
    /// Panics if a request names a video outside the catalog or the stream
    /// is unsorted.
    #[must_use]
    pub fn run(&self, catalog: &Catalog, requests: &[WorkloadRequest]) -> ServiceReport {
        for w in requests.windows(2) {
            assert!(w[0].at <= w[1].at, "request stream must be sorted");
        }
        let n_videos = catalog.len();
        // Per-video queues of (arrival, patience deadline, request index).
        let mut queues: Vec<Vec<(f64, f64, usize)>> = vec![Vec::new(); n_videos];
        let mut outcomes: Vec<Option<ServiceOutcome>> = vec![None; requests.len()];
        // Completion times of busy channels.
        let mut busy: MinQueue<T> = MinQueue::new();
        let mut free = self.channels;
        let mut streams = 0usize;
        let mut served = 0usize;
        let mut batch_sum = 0usize;
        let mut wait_sum = 0.0f64;
        let mut worst_wait = 0.0f64;

        let mut dispatch = |now: f64,
                            queues: &mut Vec<Vec<(f64, f64, usize)>>,
                            free: &mut usize,
                            busy: &mut MinQueue<T>,
                            outcomes: &mut Vec<Option<ServiceOutcome>>| {
            loop {
                if *free == 0 {
                    return;
                }
                // Purge reneged viewers before selecting.
                for q in queues.iter_mut() {
                    q.retain(|&(_, deadline, idx)| {
                        if deadline < now {
                            outcomes[idx] = Some(ServiceOutcome::Reneged {
                                at: Minutes(deadline),
                            });
                            false
                        } else {
                            true
                        }
                    });
                }
                let Some(v) = self.policy.choose(queues, |&(a, _, _)| a) else {
                    return;
                };
                // Serve the whole batch for video v.
                let batch = std::mem::take(&mut queues[v]);
                streams += 1;
                batch_sum += batch.len();
                for (arrival, _, idx) in batch {
                    let wait = now - arrival;
                    wait_sum += wait;
                    worst_wait = worst_wait.max(wait);
                    served += 1;
                    outcomes[idx] = Some(ServiceOutcome::Served { at: Minutes(now) });
                }
                *free -= 1;
                let dur = catalog.get(v).expect("video in catalog").length.value();
                busy.push(T(now + dur));
            }
        };

        let mut i = 0usize;
        loop {
            let next_arrival = requests.get(i).map(|r| r.at.value());
            let next_completion = busy.peek().map(|&T(t)| t);
            match (next_arrival, next_completion) {
                (None, None) => break,
                (Some(a), c) if c.is_none_or(|c| a <= c) => {
                    let r = &requests[i];
                    assert!(r.video < n_videos, "request for unknown video {}", r.video);
                    queues[r.video].push((a, a + r.patience.value(), i));
                    i += 1;
                    dispatch(a, &mut queues, &mut free, &mut busy, &mut outcomes);
                }
                (_, Some(c)) => {
                    busy.pop();
                    free += 1;
                    dispatch(c, &mut queues, &mut free, &mut busy, &mut outcomes);
                }
                (Some(_), None) => {
                    unreachable!("arrival-first guard admits every no-completion case")
                }
            }
        }

        // Whoever is still queued at the end reneges at their deadline
        // (the pool never got to them).
        for q in &queues {
            for &(_, deadline, idx) in q {
                outcomes[idx] = Some(ServiceOutcome::Reneged {
                    at: Minutes(deadline),
                });
            }
        }

        let outcomes: Vec<ServiceOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("every request resolved"))
            .collect();
        let reneged = outcomes
            .iter()
            .filter(|o| matches!(o, ServiceOutcome::Reneged { .. }))
            .count();
        ServiceReport {
            served,
            reneged,
            mean_wait: Minutes(if served > 0 {
                wait_sum / served as f64
            } else {
                0.0
            }),
            worst_wait: Minutes(worst_wait),
            streams,
            mean_batch_size: if streams > 0 {
                batch_sum as f64 / streams as f64
            } else {
                0.0
            },
            outcomes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sb_workload::{Patience, PoissonArrivals, ZipfPopularity};

    fn req(at: f64, video: usize, patience: f64) -> WorkloadRequest {
        WorkloadRequest {
            at: Minutes(at),
            video,
            patience: Minutes(patience),
        }
    }

    #[test]
    fn single_request_served_immediately() {
        let catalog = Catalog::paper_defaults(3);
        let server = BatchingServer::new(2, BatchPolicy::Fcfs);
        let report = server.run(&catalog, &[req(1.0, 0, f64::INFINITY)]);
        assert_eq!(report.served, 1);
        assert_eq!(report.reneged, 0);
        assert_eq!(report.streams, 1);
        assert_eq!(report.mean_wait, Minutes(0.0));
        assert_eq!(
            report.outcomes[0],
            ServiceOutcome::Served { at: Minutes(1.0) }
        );
    }

    #[test]
    fn batching_shares_one_stream() {
        // Both channels busy with filler, then 5 requests for video 2
        // accumulate and are served by a single stream.
        let catalog = Catalog::paper_defaults(3);
        let server = BatchingServer::new(1, BatchPolicy::Fcfs);
        let mut reqs = vec![req(0.0, 0, f64::INFINITY)];
        for i in 0..5 {
            reqs.push(req(1.0 + i as f64, 2, f64::INFINITY));
        }
        let report = server.run(&catalog, &reqs);
        assert_eq!(report.served, 6);
        assert_eq!(report.streams, 2);
        // The batch of 5 starts when the filler finishes at t = 120.
        for o in &report.outcomes[1..] {
            assert_eq!(*o, ServiceOutcome::Served { at: Minutes(120.0) });
        }
        assert!((report.mean_batch_size - 3.0).abs() < 1e-12);
    }

    #[test]
    fn impatient_viewers_renege() {
        let catalog = Catalog::paper_defaults(2);
        let server = BatchingServer::new(1, BatchPolicy::Fcfs);
        let reqs = vec![
            req(0.0, 0, f64::INFINITY), // occupies the only channel to 120
            req(1.0, 1, 5.0),           // deserts at 6.0
            req(2.0, 1, 500.0),         // served at 120
        ];
        let report = server.run(&catalog, &reqs);
        assert_eq!(report.served, 2);
        assert_eq!(report.reneged, 1);
        assert_eq!(
            report.outcomes[1],
            ServiceOutcome::Reneged { at: Minutes(6.0) }
        );
        assert_eq!(
            report.outcomes[2],
            ServiceOutcome::Served { at: Minutes(120.0) }
        );
        assert!((report.renege_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mql_prefers_big_batches_fcfs_prefers_old() {
        let catalog = Catalog::paper_defaults(3);
        // One channel busy until t=120; queues: video 1 has 1 old request,
        // video 2 has 3 newer ones.
        let reqs = vec![
            req(0.0, 0, f64::INFINITY),
            req(1.0, 1, f64::INFINITY),
            req(2.0, 2, f64::INFINITY),
            req(3.0, 2, f64::INFINITY),
            req(4.0, 2, f64::INFINITY),
        ];
        let fcfs = BatchingServer::new(1, BatchPolicy::Fcfs).run(&catalog, &reqs);
        let mql = BatchingServer::new(1, BatchPolicy::Mql).run(&catalog, &reqs);
        // FCFS serves video 1 first (oldest head), MQL serves video 2 first.
        assert_eq!(
            fcfs.outcomes[1],
            ServiceOutcome::Served { at: Minutes(120.0) }
        );
        assert_eq!(
            mql.outcomes[2],
            ServiceOutcome::Served { at: Minutes(120.0) }
        );
        assert_eq!(
            mql.outcomes[1],
            ServiceOutcome::Served { at: Minutes(240.0) }
        );
    }

    #[test]
    fn throughput_mql_beats_or_ties_fcfs_under_load() {
        // Classic batching result: under overload with reneging, MQL
        // serves at least as many viewers as FCFS.
        let catalog = Catalog::paper_defaults(40);
        let z = ZipfPopularity::paper(40);
        let reqs = PoissonArrivals::new(2.0, 42)
            .with_patience(Patience::Exponential(Minutes(10.0)))
            .generate(&z, Minutes(1200.0));
        let fcfs = BatchingServer::new(8, BatchPolicy::Fcfs).run(&catalog, &reqs);
        let mql = BatchingServer::new(8, BatchPolicy::Mql).run(&catalog, &reqs);
        assert!(
            mql.served as f64 >= fcfs.served as f64 * 0.98,
            "MQL {} vs FCFS {}",
            mql.served,
            fcfs.served
        );
        // Sanity: the load is heavy enough that reneging actually occurs.
        assert!(fcfs.reneged > 0 && mql.reneged > 0);
    }

    #[test]
    fn all_resolved_and_conserved() {
        let catalog = Catalog::paper_defaults(10);
        let z = ZipfPopularity::paper(10);
        let reqs = PoissonArrivals::new(1.0, 7)
            .with_patience(Patience::Fixed(Minutes(30.0)))
            .generate(&z, Minutes(600.0));
        let report = BatchingServer::new(4, BatchPolicy::Mql).run(&catalog, &reqs);
        assert_eq!(report.served + report.reneged, reqs.len());
        assert_eq!(report.outcomes.len(), reqs.len());
        // Served waits never exceed the fixed patience.
        for (r, o) in reqs.iter().zip(&report.outcomes) {
            if let ServiceOutcome::Served { at } = o {
                assert!(at.value() - r.at.value() <= 30.0 + 1e-9);
            }
        }
        assert!(report.worst_wait.value() <= 30.0 + 1e-9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Conservation and ordering invariants over random workloads.
        #[test]
        fn conservation_over_random_workloads(
            channels in 1usize..12,
            rate in 0.2f64..4.0,
            seed in 0u64..500,
            patience in 2.0f64..60.0,
        ) {
            let catalog = Catalog::paper_defaults(12);
            let z = ZipfPopularity::paper(12);
            let reqs = PoissonArrivals::new(rate, seed)
                .with_patience(Patience::Fixed(Minutes(patience)))
                .generate(&z, Minutes(400.0));
            for policy in [BatchPolicy::Fcfs, BatchPolicy::Mql] {
                let report = BatchingServer::new(channels, policy).run(&catalog, &reqs);
                prop_assert_eq!(report.served + report.reneged, reqs.len());
                prop_assert_eq!(report.outcomes.len(), reqs.len());
                prop_assert!(report.worst_wait.value() <= patience + 1e-9);
                // Streams never exceed what served batches could need.
                prop_assert!(report.streams <= report.served.max(1));
                // Outcomes are causally consistent with arrivals.
                for (r, o) in reqs.iter().zip(&report.outcomes) {
                    match o {
                        ServiceOutcome::Served { at } => prop_assert!(*at >= r.at),
                        ServiceOutcome::Reneged { at } => {
                            prop_assert!((at.value() - (r.at.value() + patience)).abs() < 1e-9)
                        }
                    }
                }
            }
        }

        /// More channels never serve fewer viewers (same stream, policy).
        #[test]
        fn monotone_in_channel_count(seed in 0u64..200) {
            let catalog = Catalog::paper_defaults(15);
            let z = ZipfPopularity::paper(15);
            let reqs = PoissonArrivals::new(1.5, seed)
                .with_patience(Patience::Fixed(Minutes(15.0)))
                .generate(&z, Minutes(300.0));
            let few = BatchingServer::new(2, BatchPolicy::Mql).run(&catalog, &reqs);
            let many = BatchingServer::new(8, BatchPolicy::Mql).run(&catalog, &reqs);
            prop_assert!(many.served >= few.served);
        }
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_requests_rejected() {
        let catalog = Catalog::paper_defaults(2);
        let server = BatchingServer::new(1, BatchPolicy::Fcfs);
        let _ = server.run(&catalog, &[req(5.0, 0, 1.0), req(1.0, 1, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        let _ = BatchingServer::new(0, BatchPolicy::Fcfs);
    }
}
