//! The workspace's one min-heap idiom, [`MinQueue`], which backs the
//! engine's event store ([`crate::engine::Engine`]), `SystemSim`'s
//! active-session sweep and the batching server's busy queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The engine's event-store selector, reduced to its one remaining
/// store: the binary heap.
///
/// Kept only because the frozen `sbperf` benchmark passes
/// `AgendaKind::Heap` to [`crate::system::SystemSim::run_shard`]; it goes
/// away with the next change to that benchmark. Nothing else takes or
/// stores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AgendaKind {
    /// The slab-backed binary heap.
    #[default]
    Heap,
}

/// A min-heap: [`BinaryHeap`] with the `Reverse` inversion applied once,
/// here, instead of hand-rolled at every use site.
#[derive(Debug, Clone)]
pub struct MinQueue<T: Ord>(BinaryHeap<Reverse<T>>);

impl<T: Ord> Default for MinQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord> MinQueue<T> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self(BinaryHeap::new())
    }

    /// Insert a value.
    pub fn push(&mut self, value: T) {
        self.0.push(Reverse(value));
    }

    /// Remove and return the minimum.
    pub fn pop(&mut self) -> Option<T> {
        self.0.pop().map(|Reverse(v)| v)
    }

    /// The minimum, without removing it.
    #[must_use]
    pub fn peek(&self) -> Option<&T> {
        self.0.peek().map(|Reverse(v)| v)
    }

    /// Number of stored values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Keep only the values for which `keep` returns `true`.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        self.0.retain(|Reverse(v)| keep(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_queue_pops_in_order() {
        let mut q = MinQueue::new();
        for v in [5u64, 1, 9, 3] {
            q.push(v);
        }
        assert_eq!(q.peek(), Some(&1));
        q.retain(|&v| v != 3);
        assert_eq!(q.len(), 3);
        assert_eq!(
            std::iter::from_fn(|| q.pop()).collect::<Vec<_>>(),
            vec![1, 5, 9]
        );
        assert!(q.is_empty());
    }
}
