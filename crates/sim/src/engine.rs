//! A small, deterministic discrete-event engine.
//!
//! The broadcast side of the simulator is deterministic and computed in
//! closed form ([`crate::schedule`]), but whole-system questions — how many
//! clients are active at once, how a channel pool drains a request queue —
//! need an agenda-driven simulation. This engine provides exactly that:
//! a tick clock ([`vod_units::Ticks`]), a binary-heap agenda with
//! deterministic FIFO tie-breaking, and event cancellation.
//!
//! Events are user-defined payloads; the engine is generic and contains no
//! domain logic. Determinism matters for reproducible experiments: two
//! events scheduled for the same tick fire in the order they were
//! scheduled, because the heap orders entries by `(tick, seq)` with a
//! globally monotonic `seq`.
//!
//! Events known before the run starts need not pass through the agenda.
//! [`Engine::run_with`] merges a caller's tick-ordered stream into the
//! one run loop: a streamed event fires before every agenda entry of its
//! tick, exactly as if it had been scheduled ahead of them, and never
//! takes a heap entry or a slab slot.
//!
//! ## The agenda: slab slots, generations, amortized compaction
//!
//! Event liveness is tracked in a **slab**: every scheduled event owns a
//! slot (reused through a free list), and an [`EventId`] packs the slot
//! index with the slot's **generation** — bumped every time the slot is
//! freed — so a stale id can never alias a later event that happens to
//! reuse the slot. Lookup, scheduling and cancellation are all O(1) with
//! no hashing; the heap itself stores stale entries like any others.
//!
//! Cancellation is **lazy**: the agenda entry of a cancelled event stays
//! in the heap until it surfaces (or a compaction removes it). Lazy
//! alone is unbounded — a workload that cancels most of what it schedules
//! (fault scripts, allocator drain-swaps) grows the agenda forever even
//! though almost nothing in it is live. So the engine **compacts**:
//! whenever the stale entries outnumber the live ones (past a small floor
//! that keeps tiny agendas out of the machinery), the heap drops its
//! stale entries in O(n). Every stale entry is paid for at most twice —
//! once when cancelled, once when compacted away — so the amortized cost
//! stays O(log n) per operation and the agenda length is bounded by
//! roughly 2× the live event count at all times (see
//! [`Engine::agenda_len`]).

use std::cmp::Ordering;

use vod_units::{TickDuration, Ticks};

use crate::agenda::MinQueue;

/// Handle to a scheduled event, usable for cancellation.
///
/// Packs a slab slot index with that slot's generation at scheduling
/// time, so ids stay valid (as *rejected*, not misdelivered) after the
/// slot is reused by a later event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

impl EventId {
    fn new(slot: u32, gen: u32) -> Self {
        Self(u64::from(gen) << 32 | u64::from(slot))
    }

    fn slot(self) -> u32 {
        (self.0 & 0xFFFF_FFFF) as u32
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// One slab slot: the current generation plus whether an event lives here.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Bumped on every free; an agenda entry is live iff its recorded
    /// generation matches.
    gen: u32,
    /// `true` while a scheduled, un-fired, un-cancelled event owns the
    /// slot.
    occupied: bool,
}

/// Lifetime counters of an [`Engine`]'s agenda traffic.
///
/// Deterministic for a deterministic run, so they can be exported into a
/// metrics snapshot: `scheduled == fired + cancelled + pending` holds at
/// every instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EngineStats {
    /// Events ever scheduled, streamed events included.
    pub scheduled: u64,
    /// Events that fired, streamed events included.
    pub fired: u64,
    /// Events cancelled before firing.
    pub cancelled: u64,
    /// High-water mark of the agenda length (live + stale entries) —
    /// the engine's memory footprint in events. Streamed events never
    /// enter the agenda, so they do not count here.
    pub peak_agenda: u64,
    /// Heap rebuilds that purged stale (lazily-cancelled) entries.
    pub compactions: u64,
}

/// Agendas smaller than this never compact: below the floor the stale
/// entries cost less than the rebuild bookkeeping.
pub(crate) const COMPACT_FLOOR: usize = 32;

/// One scheduled event as the heap stores it: the firing tick, the
/// global FIFO tie-break sequence, the slab handle for liveness checks,
/// and the payload. Ordered by `(at, seq)` only; `seq` is globally
/// unique, so the order is total and payloads never compare.
struct Entry<E> {
    at: Ticks,
    seq: u64,
    id: EventId,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The discrete-event engine: a clock plus an agenda of pending events.
pub struct Engine<E> {
    now: Ticks,
    /// Monotonic FIFO tie-break counter (never reused, unlike slots).
    seq: u64,
    agenda: MinQueue<Entry<E>>,
    /// Slab of event slots; `EventId`s index into it.
    slots: Vec<Slot>,
    /// Freed slot indices available for reuse.
    free: Vec<u32>,
    /// Live (scheduled, neither fired nor cancelled) events.
    live: usize,
    /// Cancelled events whose agenda entries have not yet been dropped.
    stale: usize,
    stats: EngineStats,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// A fresh engine at tick zero with an empty agenda.
    #[must_use]
    pub fn new() -> Self {
        Self {
            now: Ticks::ZERO,
            seq: 0,
            agenda: MinQueue::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            stale: 0,
            stats: EngineStats::default(),
        }
    }

    /// Lifetime agenda counters (scheduled / fired / cancelled / peaks).
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The current simulation time.
    #[must_use]
    pub fn now(&self) -> Ticks {
        self.now
    }

    /// Number of pending (non-cancelled) events. O(1), exact across
    /// cancellations and compactions.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.live
    }

    /// Current agenda length: live entries plus stale entries awaiting
    /// lazy removal. Compaction keeps this bounded by roughly
    /// `2 × pending()` (plus the compaction floor).
    #[must_use]
    pub fn agenda_len(&self) -> usize {
        self.agenda.len()
    }

    /// Whether `id` still names a scheduled, un-fired, un-cancelled
    /// event.
    fn id_live(&self, id: EventId) -> bool {
        let s = self.slots[id.slot() as usize];
        s.occupied && s.gen == id.gen()
    }

    /// Free `slot`, invalidating every outstanding reference to it.
    fn release(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.occupied = false;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot);
        self.live -= 1;
    }

    /// Schedule `payload` at the absolute tick `at`.
    ///
    /// # Panics
    /// Panics if `at` precedes the current time — the past is immutable.
    pub fn schedule_at(&mut self, at: Ticks, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at} < {})",
            self.now
        );
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].occupied = true;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("agenda outgrew u32 slots");
                self.slots.push(Slot {
                    gen: 0,
                    occupied: true,
                });
                slot
            }
        };
        let gen = self.slots[slot as usize].gen;
        let id = EventId::new(slot, gen);
        self.agenda.push(Entry {
            at,
            seq: self.seq,
            id,
            payload,
        });
        self.live += 1;
        self.seq += 1;
        self.stats.scheduled += 1;
        self.stats.peak_agenda = self.stats.peak_agenda.max(self.agenda.len() as u64);
        id
    }

    /// Schedule `payload` after a delay from now.
    pub fn schedule_in(&mut self, delay: TickDuration, payload: E) -> EventId {
        self.schedule_at(self.now + delay, payload)
    }

    /// Cancel a pending event. Returns `true` if it had not yet fired.
    ///
    /// Ids that never existed, already fired, or were already cancelled
    /// all return `false` and leave the agenda untouched — so
    /// [`Engine::pending`] stays exact no matter what callers pass in.
    ///
    /// The agenda entry is dropped lazily — either when it surfaces in
    /// [`Engine::next`] or a run loop, or when stale entries
    /// outnumber live ones and the agenda compacts.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let (slot, gen) = (id.slot(), id.gen());
        match self.slots.get(slot as usize) {
            Some(s) if s.occupied && s.gen == gen => {}
            _ => return false,
        }
        self.release(slot);
        self.stale += 1;
        self.stats.cancelled += 1;
        self.maybe_compact();
        true
    }

    /// Drop the heap's stale entries once they outnumber the live ones.
    /// O(current agenda); amortized O(1) per cancel, because at least
    /// half the entries paid for by the rebuild are discarded by it.
    fn maybe_compact(&mut self) {
        if self.stale <= self.live || self.agenda.len() < COMPACT_FLOOR {
            return;
        }
        let slots = &self.slots;
        self.agenda.retain(|e| {
            let s = slots[e.id.slot() as usize];
            s.occupied && s.gen == e.id.gen()
        });
        debug_assert_eq!(
            self.agenda.len(),
            self.live,
            "compaction must keep exactly the live set"
        );
        self.stale = 0;
        self.stats.compactions += 1;
    }

    /// Pop the next event, advancing the clock to its timestamp.
    /// Returns `None` when the agenda is exhausted.
    ///
    /// Deliberately named like `Iterator::next`; the engine is not an
    /// `Iterator` only because handlers need `&mut self` back.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(Ticks, E)> {
        while let Some(entry) = self.agenda.pop() {
            if !self.id_live(entry.id) {
                self.stale -= 1;
                continue; // cancelled; drop the stale entry
            }
            self.release(entry.id.slot());
            debug_assert!(entry.at >= self.now, "agenda went backwards");
            self.now = entry.at;
            self.stats.fired += 1;
            return Some((entry.at, entry.payload));
        }
        None
    }

    /// Drop stale entries off the top of the agenda and return the tick
    /// of the next live one, without firing it.
    fn peek_live(&mut self) -> Option<Ticks> {
        loop {
            let (at, id) = self.agenda.peek().map(|e| (e.at, e.id))?;
            if self.id_live(id) {
                return Some(at);
            }
            self.agenda.pop(); // cancelled; drop the stale entry
            self.stale -= 1;
        }
    }

    /// Run the agenda to exhaustion, calling `handler` for each event.
    /// The handler may schedule further events through the engine.
    pub fn run(&mut self, handler: impl FnMut(&mut Self, Ticks, E)) {
        self.drive(core::iter::empty(), None, handler);
    }

    /// Like [`Engine::run`], with the events of `stream` merged in.
    ///
    /// `stream` yields `(tick, payload)` pairs in non-decreasing tick
    /// order, and each fires before every agenda entry of its tick, as
    /// if all of them had been scheduled before anything else. Streamed
    /// events never enter the agenda: they hold no slot and no heap
    /// entry, and count as both scheduled and fired in [`Engine::stats`]
    /// (but not in `peak_agenda`). A caller with many known-in-advance
    /// events keeps the agenda down to the events its handler schedules.
    ///
    /// # Panics
    /// Panics if `stream` goes backwards: a streamed tick before the
    /// current time, like [`Engine::schedule_at`] into the past.
    pub fn run_with(
        &mut self,
        stream: impl IntoIterator<Item = (Ticks, E)>,
        handler: impl FnMut(&mut Self, Ticks, E),
    ) {
        self.drive(stream, None, handler);
    }

    /// Like [`Engine::run`] but stops once the clock passes `horizon`
    /// (events beyond it stay pending).
    pub fn run_until(&mut self, horizon: Ticks, handler: impl FnMut(&mut Self, Ticks, E)) {
        self.drive(core::iter::empty(), Some(horizon), handler);
    }

    /// The one run loop: fire the earlier of the stream's head and the
    /// agenda's next live entry (the stream's on a tie) until both are
    /// exhausted or the next event lies past `horizon`.
    fn drive(
        &mut self,
        stream: impl IntoIterator<Item = (Ticks, E)>,
        horizon: Option<Ticks>,
        mut handler: impl FnMut(&mut Self, Ticks, E),
    ) {
        let mut stream = stream.into_iter().peekable();
        loop {
            let agenda_at = self.peek_live();
            let (at, streamed) = match (stream.peek().map(|&(at, _)| at), agenda_at) {
                (Some(at), Some(next)) if at <= next => (at, true),
                (Some(at), None) => (at, true),
                (_, Some(next)) => (next, false),
                (None, None) => return,
            };
            if horizon.is_some_and(|h| at > h) {
                return;
            }
            let (at, payload) = if streamed {
                assert!(
                    at >= self.now,
                    "event stream went backwards ({at} < {})",
                    self.now
                );
                let (at, payload) = stream.next().expect("peeked stream event exists");
                self.now = at;
                self.stats.scheduled += 1;
                self.stats.fired += 1;
                (at, payload)
            } else {
                self.next().expect("peeked event exists")
            };
            handler(self, at, payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fires_in_time_order_with_fifo_ties() {
        let mut eng: Engine<&'static str> = Engine::new();
        eng.schedule_at(Ticks(10), "b");
        eng.schedule_at(Ticks(5), "a");
        eng.schedule_at(Ticks(10), "c"); // same tick as "b", scheduled later
        let mut seen = Vec::new();
        eng.run(|_, at, p| seen.push((at.0, p)));
        assert_eq!(seen, vec![(5, "a"), (10, "b"), (10, "c")]);
    }

    #[test]
    fn handler_can_schedule_more() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(Ticks(1), 0);
        let mut fired = Vec::new();
        eng.run(|eng, _, n| {
            fired.push(n);
            if n < 4 {
                eng.schedule_in(TickDuration(2), n + 1);
            }
        });
        assert_eq!(fired, vec![0, 1, 2, 3, 4]);
        assert_eq!(eng.now(), Ticks(9));
    }

    #[test]
    fn cancellation() {
        let mut eng: Engine<&'static str> = Engine::new();
        let a = eng.schedule_at(Ticks(1), "a");
        eng.schedule_at(Ticks(2), "b");
        assert!(eng.cancel(a));
        assert!(!eng.cancel(a), "double-cancel reports false");
        assert_eq!(eng.pending(), 1);
        let mut seen = Vec::new();
        eng.run(|_, _, p| seen.push(p));
        assert_eq!(seen, vec!["b"]);
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut eng: Engine<()> = Engine::new();
        assert!(!eng.cancel(EventId::new(42, 0)));
        assert!(!eng.cancel(EventId::new(0, 7)));
    }

    #[test]
    fn cancel_after_fire_is_false_and_pending_stays_exact() {
        // Regression: cancelling an id that already fired used to be
        // accepted, leaking a tombstone that made `pending()` underflow
        // once the agenda drained.
        let mut eng: Engine<&'static str> = Engine::new();
        let a = eng.schedule_at(Ticks(1), "a");
        eng.schedule_at(Ticks(2), "b");
        assert_eq!(eng.pending(), 2);
        let (_, p) = eng.next().expect("a fires");
        assert_eq!(p, "a");
        assert!(!eng.cancel(a), "cancelling a fired event must fail");
        assert_eq!(eng.pending(), 1, "the refused cancel must not count");
        let (_, p) = eng.next().expect("b fires");
        assert_eq!(p, "b");
        assert_eq!(eng.pending(), 0);
        assert!(eng.next().is_none());
        // And cancelling after exhaustion is still a clean no-op.
        assert!(!eng.cancel(a));
        assert_eq!(eng.pending(), 0);
    }

    #[test]
    fn stale_id_does_not_cancel_a_slot_reuser() {
        // Slot reuse must not let an old id reach the new tenant: the
        // generation in the id has to mismatch.
        let mut eng: Engine<&'static str> = Engine::new();
        let a = eng.schedule_at(Ticks(1), "a");
        assert!(eng.cancel(a));
        // "b" reuses slot 0 at a later generation.
        let b = eng.schedule_at(Ticks(2), "b");
        assert!(!eng.cancel(a), "the stale id must not hit b");
        assert_eq!(eng.pending(), 1);
        let mut seen = Vec::new();
        eng.run(|_, _, p| seen.push(p));
        assert_eq!(seen, vec!["b"]);
        assert!(!eng.cancel(b), "b already fired");
    }

    #[test]
    fn cancelled_event_skipped_by_run_until_peek() {
        let mut eng: Engine<u8> = Engine::new();
        let a = eng.schedule_at(Ticks(1), 1);
        eng.schedule_at(Ticks(2), 2);
        eng.schedule_at(Ticks(100), 3);
        assert!(eng.cancel(a));
        let mut seen = Vec::new();
        eng.run_until(Ticks(50), |_, _, p| seen.push(p));
        assert_eq!(seen, vec![2]);
        assert_eq!(eng.pending(), 1);
    }

    #[test]
    fn run_until_leaves_future_events() {
        let mut eng: Engine<u8> = Engine::new();
        eng.schedule_at(Ticks(1), 1);
        eng.schedule_at(Ticks(100), 2);
        let mut seen = Vec::new();
        eng.run_until(Ticks(50), |_, _, p| seen.push(p));
        assert_eq!(seen, vec![1]);
        assert_eq!(eng.pending(), 1);
        assert_eq!(eng.now(), Ticks(1));
    }

    #[test]
    fn schedule_after_a_run_until_stop_still_fires_in_order() {
        // run_until peeked at the 1000 tick and stopped; a later schedule
        // between the clock and that tick must still fire first.
        let mut eng: Engine<u8> = Engine::new();
        eng.schedule_at(Ticks(10), 1);
        eng.schedule_at(Ticks(1000), 3);
        let mut seen = Vec::new();
        eng.run_until(Ticks(500), |_, _, p| seen.push(p));
        assert_eq!(seen, vec![1]);
        assert_eq!(eng.now(), Ticks(10));
        eng.schedule_at(Ticks(200), 2);
        eng.run(|_, _, p| seen.push(p));
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn stats_conserve_scheduled_events() {
        let mut eng: Engine<u8> = Engine::new();
        let a = eng.schedule_at(Ticks(1), 1);
        eng.schedule_at(Ticks(2), 2);
        eng.schedule_at(Ticks(9), 3);
        assert!(eng.cancel(a));
        assert!(!eng.cancel(a), "double-cancel must not double-count");
        eng.run_until(Ticks(5), |_, _, _| {});
        let s = eng.stats();
        assert_eq!(s.scheduled, 3);
        assert_eq!(s.cancelled, 1);
        assert_eq!(s.fired, 1);
        assert_eq!(s.peak_agenda, 3);
        assert_eq!(
            s.scheduled,
            s.fired + s.cancelled + eng.pending() as u64,
            "conservation: every scheduled event is fired, cancelled or pending"
        );
    }

    #[test]
    fn engine_stats_serialize_as_five_counters_in_field_order() {
        let s = EngineStats {
            scheduled: 5,
            fired: 3,
            cancelled: 1,
            peak_agenda: 4,
            compactions: 0,
        };
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(
            json,
            r#"{"scheduled":5,"fired":3,"cancelled":1,"peak_agenda":4,"compactions":0}"#
        );
        let back: EngineStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn cancel_heavy_agenda_stays_bounded() {
        // The unbounded-growth regression: schedule/cancel churn with a
        // small live population. Before compaction the heap kept every
        // cancelled entry until its (far-future) timestamp surfaced —
        // 40 000 cancellations meant a 40 000-entry agenda. Now the
        // agenda length must stay within ~2× the live count.
        let live_target = 100usize;
        let mut eng: Engine<u64> = Engine::new();
        let mut ids = std::collections::VecDeque::new();
        for i in 0..live_target as u64 {
            ids.push_back(eng.schedule_at(Ticks(1_000_000 + i), i));
        }
        let mut cancels = 0u64;
        for i in 0..40_000u64 {
            let id = ids.pop_front().expect("live population maintained");
            assert!(eng.cancel(id));
            cancels += 1;
            ids.push_back(eng.schedule_at(Ticks(2_000_000 + i), i));
            assert!(
                eng.agenda_len() <= 2 * live_target + COMPACT_FLOOR,
                "agenda {} after {} cancels",
                eng.agenda_len(),
                cancels
            );
        }
        assert_eq!(cancels, 40_000);
        let s = eng.stats();
        assert!(s.compactions > 0, "churn at this scale must compact");
        assert!(
            s.peak_agenda <= (2 * live_target + COMPACT_FLOOR) as u64,
            "peak agenda {}",
            s.peak_agenda
        );
        assert_eq!(s.cancelled, 40_000);
        assert_eq!(eng.pending(), live_target);
        assert_eq!(s.scheduled, s.fired + s.cancelled + eng.pending() as u64);
        // The survivors still fire in order, and the drained agenda
        // conserves every event.
        let mut fired = 0usize;
        eng.run(|_, _, _| fired += 1);
        assert_eq!(fired, live_target);
        let s = eng.stats();
        assert_eq!(s.scheduled, s.fired + s.cancelled);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut eng: Engine<()> = Engine::new();
        eng.schedule_at(Ticks(5), ());
        let _ = eng.next();
        eng.schedule_at(Ticks(3), ());
    }

    /// A handler that logs every event and churns the agenda: an even
    /// payload schedules a follow-up at its own tick or later (up to 200
    /// of them), and every fifth payload cancels the latest follow-up.
    fn follow_ups<'a>(
        log: &'a mut Vec<(u64, u64)>,
        ids: &'a mut Vec<EventId>,
    ) -> impl FnMut(&mut Engine<u64>, Ticks, u64) + 'a {
        let mut next = 10_000u64;
        move |eng, at, p| {
            log.push((at.0, p));
            if p % 2 == 0 && next < 10_200 {
                ids.push(eng.schedule_at(at + TickDuration(p % 7), next));
                next += 1;
            }
            if p % 5 == 0 {
                if let Some(id) = ids.pop() {
                    eng.cancel(id);
                }
            }
        }
    }

    #[test]
    fn streamed_events_fire_before_agenda_entries_of_their_tick() {
        let mut eng: Engine<&'static str> = Engine::new();
        eng.schedule_at(Ticks(5), "agenda@5");
        eng.schedule_at(Ticks(10), "agenda@10");
        eng.schedule_at(Ticks(20), "agenda@20");
        let stream = [(Ticks(10), "stream@10"), (Ticks(10), "stream@10b")];
        let mut seen = Vec::new();
        eng.run_with(stream, |eng, at, p| {
            if p == "stream@10" {
                // Scheduled at the current tick, after the stream's
                // next event of the same tick.
                eng.schedule_at(at, "handler@10");
            }
            seen.push(p);
        });
        assert_eq!(
            seen,
            [
                "agenda@5",
                "stream@10",
                "stream@10b",
                "agenda@10",
                "handler@10",
                "agenda@20"
            ]
        );
        assert_eq!(eng.now(), Ticks(20));
    }

    #[test]
    fn streamed_runs_skip_cancelled_entries() {
        let mut eng: Engine<u8> = Engine::new();
        let a = eng.schedule_at(Ticks(3), 1);
        let b = eng.schedule_at(Ticks(8), 2);
        eng.schedule_at(Ticks(9), 3);
        assert!(eng.cancel(a));
        let mut seen = Vec::new();
        eng.run_with([(Ticks(4), 10), (Ticks(8), 11)], |eng, _, p| {
            if p == 10 {
                assert!(eng.cancel(b));
            }
            seen.push(p);
        });
        assert_eq!(seen, [10, 11, 3]);
        let s = eng.stats();
        assert_eq!((s.scheduled, s.fired, s.cancelled), (5, 3, 2));
    }

    #[test]
    #[should_panic(expected = "went backwards")]
    fn a_stream_that_goes_backwards_panics() {
        let mut eng: Engine<()> = Engine::new();
        eng.run_with([(Ticks(5), ()), (Ticks(3), ())], |_, _, ()| {});
    }

    #[test]
    #[should_panic(expected = "went backwards")]
    fn a_stream_behind_the_agenda_clock_panics() {
        let mut eng: Engine<()> = Engine::new();
        eng.schedule_at(Ticks(7), ());
        let _ = eng.next();
        eng.run_with([(Ticks(6), ())], |_, _, ()| {});
    }

    #[test]
    fn streamed_events_count_as_scheduled_and_fired_but_not_as_agenda() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(Ticks(50), 7);
        let stream = (1..=100u32).map(|i| (Ticks(u64::from(i)), i));
        let mut fired = 0u64;
        eng.run_with(stream, |eng, at, p| {
            fired += 1;
            let s = eng.stats();
            assert_eq!(
                s.scheduled,
                s.fired + s.cancelled + eng.pending() as u64,
                "conservation at tick {at}"
            );
            if p % 25 == 0 {
                let id = eng.schedule_at(at + TickDuration(1_000), p + 1);
                if p % 50 == 0 {
                    assert!(eng.cancel(id));
                }
            }
        });
        let s = eng.stats();
        // 100 streamed, 1 pre-scheduled, 4 from the handler (2 cancelled).
        assert_eq!((s.scheduled, s.fired, s.cancelled), (105, 103, 2));
        assert_eq!(fired, 103);
        assert_eq!(eng.pending(), 0);
        // The agenda held the pre-scheduled event and, at most, the four
        // the handler scheduled: never a streamed one.
        assert!(s.peak_agenda <= 5, "peak agenda {}", s.peak_agenda);
    }

    proptest! {
        /// A streamed run fires exactly what pre-scheduling the stream
        /// ahead of everything else fires, in the same order, with the
        /// same scheduled/fired/cancelled counts: the stream is the
        /// agenda's ordering, without the agenda.
        #[test]
        fn streaming_matches_pre_scheduling(
            stream_ticks in proptest::collection::vec(0u64..300, 0..60),
            agenda_ticks in proptest::collection::vec(0u64..300, 0..30),
        ) {
            let mut stream_ticks = stream_ticks;
            stream_ticks.sort_unstable();
            let (mut pre_log, mut pre_ids) = (Vec::new(), Vec::new());
            let mut pre: Engine<u64> = Engine::new();
            for (i, &t) in stream_ticks.iter().enumerate() {
                pre.schedule_at(Ticks(t), i as u64);
            }
            for (i, &t) in agenda_ticks.iter().enumerate() {
                pre.schedule_at(Ticks(t), 1000 + i as u64);
            }
            pre.run(follow_ups(&mut pre_log, &mut pre_ids));

            let (mut log, mut ids) = (Vec::new(), Vec::new());
            let mut eng: Engine<u64> = Engine::new();
            for (i, &t) in agenda_ticks.iter().enumerate() {
                eng.schedule_at(Ticks(t), 1000 + i as u64);
            }
            let stream = stream_ticks.iter().enumerate().map(|(i, &t)| (Ticks(t), i as u64));
            eng.run_with(stream, follow_ups(&mut log, &mut ids));

            prop_assert_eq!(log, pre_log);
            let (a, b) = (eng.stats(), pre.stats());
            prop_assert_eq!((a.scheduled, a.fired, a.cancelled), (b.scheduled, b.fired, b.cancelled));
            prop_assert!(a.peak_agenda <= b.peak_agenda);
            prop_assert_eq!(eng.now(), pre.now());
        }

        /// Events always replay in non-decreasing time order with FIFO
        /// tie-breaking, whatever the insertion order.
        #[test]
        fn replay_order_invariant(times in proptest::collection::vec(0u64..1000, 1..200)) {
            let mut eng: Engine<usize> = Engine::new();
            for (i, &t) in times.iter().enumerate() {
                eng.schedule_at(Ticks(t), i);
            }
            let mut fired: Vec<(u64, usize)> = Vec::new();
            eng.run(|_, at, i| fired.push((at.0, i)));
            prop_assert_eq!(fired.len(), times.len());
            for w in fired.windows(2) {
                prop_assert!(w[0].0 <= w[1].0);
                if w[0].0 == w[1].0 {
                    // FIFO within a tick: insertion (payload) order.
                    prop_assert!(w[0].1 < w[1].1);
                }
            }
        }

        /// Cancelling an arbitrary subset removes exactly that subset.
        #[test]
        fn cancellation_subset(times in proptest::collection::vec(0u64..100, 1..50), mask in proptest::collection::vec(any::<bool>(), 50)) {
            let mut eng: Engine<usize> = Engine::new();
            let ids: Vec<_> = times.iter().enumerate().map(|(i, &t)| eng.schedule_at(Ticks(t), i)).collect();
            let mut expect: Vec<usize> = Vec::new();
            for (i, id) in ids.iter().enumerate() {
                if mask[i % mask.len()] {
                    eng.cancel(*id);
                } else {
                    expect.push(i);
                }
            }
            let mut fired = Vec::new();
            eng.run(|_, _, i| fired.push(i));
            fired.sort_unstable();
            expect.sort_unstable();
            prop_assert_eq!(fired, expect);
        }

        /// Conservation under arbitrary interleavings of schedule, cancel
        /// (including bogus and repeated ids) and partial draining:
        /// `scheduled == fired + cancelled + pending`, with the agenda
        /// compacting rather than accumulating stale entries, and every
        /// pop in non-decreasing time order.
        #[test]
        fn conservation_under_cancel_heavy_churn(
            ops in proptest::collection::vec(0u64..5000, 1..400),
        ) {
            let mut eng: Engine<u64> = Engine::new();
            let mut ids: Vec<EventId> = Vec::new();
            let mut fired = 0u64;
            let mut last = Ticks::ZERO;
            for &raw in &ops {
                let (op, x) = (raw % 10, raw / 10);
                match op {
                    // Weight cancels heavily (ops 0..=5): the regression
                    // workload cancels most of what it schedules.
                    0..=5 => {
                        if !ids.is_empty() {
                            // May be stale: must be a no-op then.
                            eng.cancel(ids[x as usize % ids.len()]);
                        }
                    }
                    // Near and far schedules.
                    6 | 7 => ids.push(eng.schedule_at(Ticks(eng.now().0 + x), x)),
                    8 => ids.push(eng.schedule_at(Ticks(eng.now().0 + (x << 13)), x)),
                    _ => {
                        if let Some((at, _)) = eng.next() {
                            prop_assert!(at >= last, "agenda went backwards");
                            last = at;
                            fired += 1;
                        }
                    }
                }
                let s = eng.stats();
                prop_assert_eq!(
                    s.scheduled,
                    s.fired + s.cancelled + eng.pending() as u64,
                    "conservation violated"
                );
                prop_assert_eq!(s.fired, fired);
                prop_assert!(
                    eng.agenda_len() <= 2 * eng.pending() + COMPACT_FLOOR,
                    "agenda {} vs live {}",
                    eng.agenda_len(),
                    eng.pending()
                );
            }
            // Draining fires exactly the still-pending events.
            let before = eng.pending();
            let mut drained = 0usize;
            eng.run(|_, _, _| drained += 1);
            prop_assert_eq!(drained, before);
            prop_assert_eq!(eng.pending(), 0);
            let s = eng.stats();
            prop_assert_eq!(s.scheduled, s.fired + s.cancelled);
        }
    }
}
