//! Batch-selection policies.
//!
//! When a server channel frees up, the scheduler must pick *which video's
//! queue* to serve with a single multicast stream. §1 names Maximum Queue
//! Length (MQL) as the throughput-maximizing example; FCFS is the fairness
//! baseline the batching literature compares it to.

use serde::{Deserialize, Serialize};

/// How a freed channel picks its next batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BatchPolicy {
    /// Serve the video whose oldest pending request has waited longest.
    /// Fair (bounded unfairness), but a popular title's queue drains no
    /// faster than an unpopular one's.
    Fcfs,
    /// Dan et al.'s Maximum Queue Length: serve the video with the most
    /// pending requests. Maximizes throughput; starves cold titles under
    /// load.
    Mql,
}

impl BatchPolicy {
    /// Choose a queue index among `queues` (the caller's per-video
    /// pending lists, each sorted by arrival, read in place), where
    /// `arrival` gives a pending request's arrival time in minutes. Only
    /// each queue's length and head are read. Returns `None` if all are
    /// empty. Ties break toward the lower video index, deterministically.
    ///
    /// # Panics
    /// Panics under FCFS if two non-empty queues' head arrivals do not
    /// compare (a NaN arrival).
    #[must_use]
    pub fn choose<T>(&self, queues: &[Vec<T>], arrival: impl Fn(&T) -> f64) -> Option<usize> {
        match self {
            BatchPolicy::Fcfs => queues
                .iter()
                .enumerate()
                .filter(|(_, q)| !q.is_empty())
                .min_by(|(ai, a), (bi, b)| {
                    let (ha, hb) = (arrival(&a[0]), arrival(&b[0]));
                    ha.partial_cmp(&hb)
                        .expect("finite arrivals")
                        .then(ai.cmp(bi))
                })
                .map(|(i, _)| i),
            BatchPolicy::Mql => queues
                .iter()
                .enumerate()
                .filter(|(_, q)| !q.is_empty())
                .max_by(|(ai, a), (bi, b)| {
                    a.len().cmp(&b.len()).then(bi.cmp(ai)) // prefer lower index on ties
                })
                .map(|(i, _)| i),
        }
    }
}

impl core::fmt::Display for BatchPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BatchPolicy::Fcfs => write!(f, "FCFS"),
            BatchPolicy::Mql => write!(f, "MQL"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Queues of bare arrival times, read through the identity.
    fn choose(policy: BatchPolicy, queues: &[Vec<f64>]) -> Option<usize> {
        policy.choose(queues, |&a| a)
    }

    #[test]
    fn fcfs_picks_oldest_head() {
        let queues = vec![vec![5.0, 6.0], vec![2.0], vec![3.0, 3.5, 4.0]];
        assert_eq!(choose(BatchPolicy::Fcfs, &queues), Some(1));
    }

    #[test]
    fn mql_picks_longest_queue() {
        let queues = vec![vec![5.0, 6.0], vec![2.0], vec![3.0, 3.5, 4.0]];
        assert_eq!(choose(BatchPolicy::Mql, &queues), Some(2));
    }

    #[test]
    fn empty_queues_yield_none() {
        let queues: Vec<Vec<f64>> = vec![vec![], vec![]];
        assert_eq!(choose(BatchPolicy::Fcfs, &queues), None);
        assert_eq!(choose(BatchPolicy::Mql, &queues), None);
    }

    #[test]
    fn ties_break_deterministically_low_index() {
        let queues = vec![vec![1.0], vec![1.0]];
        assert_eq!(choose(BatchPolicy::Fcfs, &queues), Some(0));
        let queues = vec![vec![], vec![9.0], vec![1.0]];
        // Equal lengths: MQL prefers the lower index.
        assert_eq!(choose(BatchPolicy::Mql, &queues), Some(1));
    }
}
