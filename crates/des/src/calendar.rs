//! A calendar queue — the classic O(1) event list of discrete-event
//! simulation (R. Brown, CACM 1988: "Calendar queues: a fast O(1) priority
//! queue implementation for the simulation event set problem" — exactly
//! contemporary with the paper).
//!
//! This implementation is the degenerate-but-fast corner of Brown's design
//! space, chosen for the ORACLE simulation's measured event density of tens
//! of events per time unit: a *unit-width* wheel of `WHEEL_SLOTS` buckets
//! covering the window `[window_start, window_start + WHEEL_SLOTS)`, plus a
//! binary-heap overflow for events beyond the window. With one timestamp
//! per bucket, a bucket holds only same-instant events, so `schedule` is a
//! bounds check and a push, and `pop` walks the clock forward to the next
//! non-empty bucket and extracts that bucket's minimum-*key* entry with a
//! short linked-list scan (buckets hold at most a few tens of entries at
//! the densities the simulator produces). When the wheel drains, the window
//! jumps straight to the earliest overflow timestamp and due overflow
//! events are decanted into the wheel in `(time, key)` order — there is no
//! full-calendar scan anywhere.
//!
//! [`CalendarQueue`] implements the same interface and — crucially — the
//! same *deterministic order* as [`crate::EventQueue`] (time, then ordering
//! key), so the two are interchangeable; property tests check order
//! equality on random, sparse, and interleaved schedules, and
//! `benches/engine.rs` compares their throughput.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Number of unit-width buckets on the wheel (one simulated-time unit
/// each). Power of two so the slot index is a mask. Events scheduled
/// further than this beyond the window start wait in the overflow heap.
const WHEEL_SLOTS: usize = 1024;
const MASK: u64 = WHEEL_SLOTS as u64 - 1;

/// Sentinel "no node" index into the wheel's node pool.
const NIL: u32 = u32::MAX;

/// A pooled wheel entry: the payload and its ordering key, plus the pool
/// index of the next entry in the same slot's list (or, for free nodes, the
/// next free node).
#[derive(Clone)]
struct Node<E> {
    payload: Option<E>,
    key: u64,
    next: u32,
}

/// An overflow entry. Ordered by time, then by ordering key — the same
/// deterministic order as [`crate::EventQueue`].
#[derive(Clone)]
struct Deferred<E> {
    at: u64,
    key: u64,
    payload: E,
}

impl<E> PartialEq for Deferred<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}
impl<E> Eq for Deferred<E> {}
impl<E> PartialOrd for Deferred<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Deferred<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.key).cmp(&(other.at, other.key))
    }
}

/// A two-tier timing-wheel calendar with deterministic keyed tie-breaking.
///
/// ```
/// use oracle_des::{CalendarQueue, SimTime};
///
/// let mut q = CalendarQueue::new();
/// q.schedule_after(10, "late");
/// q.schedule_after(5, "early");
/// assert_eq!(q.pop(), Some((SimTime(5), "early")));
/// assert_eq!(q.pop(), Some((SimTime(10), "late")));
/// ```
#[derive(Clone)]
pub struct CalendarQueue<E> {
    /// Shared node pool for every wheel slot. Each slot is a singly-linked
    /// list threaded through this arena (`head`/`tail` below), and freed
    /// nodes go on a free list — so the steady state allocates nothing, and
    /// the pool grows O(log peak-pending) times total instead of each of
    /// the 1024 slots growing its own buffer.
    pool: Vec<Node<E>>,
    /// Head of the free list through `pool` (`NIL` when exhausted).
    free: u32,
    /// `head[t & MASK]`/`tail[t & MASK]` delimit the list of every pending
    /// event at exactly time `t`, for `t` in `[window_start, window_start +
    /// WHEEL_SLOTS)`. One timestamp per slot — the window is exactly one
    /// wheel revolution. Pop extracts the minimum-key entry of a slot.
    head: Vec<u32>,
    tail: Vec<u32>,
    /// Start of the window the wheel currently covers. Only moves forward,
    /// and only when the wheel is empty (so nothing can be left behind).
    window_start: u64,
    /// Events at or beyond `window_start + WHEEL_SLOTS`.
    overflow: BinaryHeap<Reverse<Deferred<E>>>,
    /// Pending events currently on the wheel (as opposed to in overflow).
    wheel_len: usize,
    now: SimTime,
    seq: u64,
    len: usize,
    processed: u64,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    /// An empty calendar with the clock at time zero.
    pub fn new() -> Self {
        CalendarQueue {
            pool: Vec::new(),
            free: NIL,
            head: vec![NIL; WHEEL_SLOTS],
            tail: vec![NIL; WHEEL_SLOTS],
            window_start: 0,
            overflow: BinaryHeap::new(),
            wheel_len: 0,
            now: SimTime::ZERO,
            seq: 0,
            len: 0,
            processed: 0,
        }
    }

    /// Append `payload` to the slot covering time `t` (which must lie
    /// inside the current window).
    #[inline]
    fn wheel_push(&mut self, t: u64, key: u64, payload: E) {
        let idx = if self.free != NIL {
            let idx = self.free;
            let node = &mut self.pool[idx as usize];
            self.free = node.next;
            node.payload = Some(payload);
            node.key = key;
            node.next = NIL;
            idx
        } else {
            assert!(self.pool.len() < NIL as usize, "event pool overflow");
            self.pool.push(Node {
                payload: Some(payload),
                key,
                next: NIL,
            });
            (self.pool.len() - 1) as u32
        };
        let s = (t & MASK) as usize;
        if self.tail[s] == NIL {
            self.head[s] = idx;
        } else {
            self.pool[self.tail[s] as usize].next = idx;
        }
        self.tail[s] = idx;
        self.wheel_len += 1;
    }

    /// Detach and return the minimum-key entry of slot `s`, if any,
    /// recycling its node onto the free list. The scan is over same-instant
    /// events only (one timestamp per slot), which stays short at simulated
    /// event densities.
    #[inline]
    fn wheel_pop(&mut self, s: usize) -> Option<(u64, E)> {
        let first = self.head[s];
        if first == NIL {
            return None;
        }
        // Find the minimum-key node and its predecessor.
        let mut best = first;
        let mut best_prev = NIL;
        let mut prev = first;
        let mut cur = self.pool[first as usize].next;
        let mut best_key = self.pool[first as usize].key;
        while cur != NIL {
            let k = self.pool[cur as usize].key;
            if k < best_key {
                best_key = k;
                best = cur;
                best_prev = prev;
            }
            prev = cur;
            cur = self.pool[cur as usize].next;
        }
        let node = &mut self.pool[best as usize];
        let payload = node.payload.take().expect("linked node holds a payload");
        let after = node.next;
        node.next = self.free;
        self.free = best;
        if best_prev == NIL {
            self.head[s] = after;
        } else {
            self.pool[best_prev as usize].next = after;
        }
        if self.tail[s] == best {
            self.tail[s] = best_prev;
        }
        self.wheel_len -= 1;
        Some((best_key, payload))
    }

    /// Current simulated time (timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events popped so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Schedule `payload` at the absolute instant `at` with an explicit
    /// ordering key (see [`crate::EventQueue::schedule_keyed_at`]).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past.
    pub fn schedule_keyed_at(&mut self, at: SimTime, key: u64, payload: E) {
        assert!(
            at >= self.now,
            "scheduled event at {at} but the clock is already at {}",
            self.now
        );
        let t = at.units();
        if t < self.window_start + WHEEL_SLOTS as u64 {
            self.wheel_push(t, key, payload);
        } else {
            self.overflow.push(Reverse(Deferred {
                at: t,
                key,
                payload,
            }));
        }
        self.len += 1;
    }

    /// Schedule `payload` at the absolute instant `at` with an
    /// automatically assigned, strictly increasing key (same-instant ties
    /// fire in insertion order).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        let key = self.seq;
        self.seq += 1;
        self.schedule_keyed_at(at, key, payload);
    }

    /// Schedule `payload` to fire `delay` units from now.
    #[inline]
    pub fn schedule_after(&mut self, delay: u64, payload: E) {
        self.schedule_at(self.now + delay, payload);
    }

    /// Timestamp of the next pending event, if any. O(window occupancy) in
    /// the worst case but O(1) amortized on the densities the simulator
    /// produces (the scan resumes from `now`).
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if self.wheel_len == 0 {
            return self.overflow.peek().map(|Reverse(d)| SimTime(d.at));
        }
        let mut t = self.now.units().max(self.window_start);
        loop {
            if self.head[(t & MASK) as usize] != NIL {
                return Some(SimTime(t));
            }
            t += 1;
            debug_assert!(
                t < self.window_start + WHEEL_SLOTS as u64,
                "wheel_len > 0 but no occupied slot in the window"
            );
        }
    }

    /// Remove and return the next event, advancing the clock.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed().map(|(at, _, e)| (at, e))
    }

    /// Remove and return the next event together with its ordering key,
    /// advancing the clock.
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u64, E)> {
        if self.len == 0 {
            return None;
        }
        if self.wheel_len == 0 {
            // Everything pending is in overflow: jump the window to the
            // earliest deferred timestamp and decant what now fits. The
            // drain order is (time, key); pop re-derives the slot minimum
            // anyway, so the decant order is not load-bearing.
            let at = match self.overflow.peek() {
                Some(Reverse(d)) => d.at,
                None => unreachable!("len > 0 with empty wheel and overflow"),
            };
            self.window_start = at;
            let end = at + WHEEL_SLOTS as u64;
            while let Some(Reverse(d)) = self.overflow.peek() {
                if d.at >= end {
                    break;
                }
                let Reverse(d) = self.overflow.pop().expect("peeked");
                self.wheel_push(d.at, d.key, d.payload);
            }
        }
        // Walk the clock forward to the next occupied slot. Every wheel
        // event is at >= now (past events are gone) and within the window,
        // so this finds the (time, key)-minimum pending event: overflow
        // events are all at or beyond the window's end.
        let mut t = self.now.units().max(self.window_start);
        loop {
            if let Some((key, payload)) = self.wheel_pop((t & MASK) as usize) {
                let at = SimTime(t);
                self.now = at;
                self.len -= 1;
                self.processed += 1;
                return Some((at, key, payload));
            }
            t += 1;
            debug_assert!(
                t < self.window_start + WHEEL_SLOTS as u64,
                "wheel_len > 0 but no occupied slot in the window"
            );
        }
    }

    /// Rebuild a queue from checkpoint parts: the clock, the processed
    /// count, and every pending event in pop order with its recorded
    /// ordering key. The wheel window starts back at zero — every pending
    /// event is at or after `now`, so the window-jump logic in
    /// [`CalendarQueue::pop`] recovers the working position on the first
    /// pop. Keys are preserved exactly; the auto-key counter resumes past
    /// the largest restored key.
    pub fn from_snapshot(now: SimTime, processed: u64, events: Vec<(SimTime, u64, E)>) -> Self {
        let mut q = CalendarQueue::new();
        for (at, key, payload) in events {
            q.schedule_keyed_at(at, key, payload);
            q.seq = q.seq.max(key.saturating_add(1));
        }
        q.now = now;
        q.processed = processed;
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;
    use crate::rng::Rng;

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new();
        q.schedule_at(SimTime(30), 3);
        q.schedule_at(SimTime(10), 1);
        q.schedule_at(SimTime(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut q = CalendarQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn explicit_keys_override_insertion_order() {
        let mut q = CalendarQueue::new();
        q.schedule_keyed_at(SimTime(7), 30, "c");
        q.schedule_keyed_at(SimTime(7), 10, "a");
        q.schedule_keyed_at(SimTime(7), 20, "b");
        // One of them in the overflow at the same far timestamp.
        q.schedule_keyed_at(SimTime(50_000), 2, "y");
        q.schedule_keyed_at(SimTime(50_000), 1, "x");
        assert_eq!(q.pop_keyed(), Some((SimTime(7), 10, "a")));
        assert_eq!(q.pop_keyed(), Some((SimTime(7), 20, "b")));
        assert_eq!(q.pop_keyed(), Some((SimTime(7), 30, "c")));
        assert_eq!(q.pop_keyed(), Some((SimTime(50_000), 1, "x")));
        assert_eq!(q.pop_keyed(), Some((SimTime(50_000), 2, "y")));
    }

    #[test]
    fn far_future_jump_works() {
        let mut q = CalendarQueue::new();
        q.schedule_at(SimTime(1_000_000), "far");
        q.schedule_at(SimTime(5), "near");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.now(), SimTime(1_000_000));
        assert!(q.is_empty());
    }

    #[test]
    fn simultaneous_wheel_and_overflow_arrivals_fire_in_seq_order() {
        // Same timestamp reached two ways: via overflow decant and via a
        // direct wheel insert after the window has jumped. Order must still
        // be pure insertion sequence.
        let mut cal = CalendarQueue::new();
        let mut heap = EventQueue::new();
        let t = 50_000u64; // far outside the initial window
        cal.schedule_at(SimTime(t), 0); // overflow
        heap.schedule_at(SimTime(t), 0);
        cal.schedule_at(SimTime(2), 1); // wheel
        heap.schedule_at(SimTime(2), 1);
        assert_eq!(cal.pop(), heap.pop()); // pops 1, window jumps on next pop
        cal.schedule_at(SimTime(t), 2); // overflow again (window still early)
        heap.schedule_at(SimTime(t), 2);
        assert_eq!(cal.pop(), heap.pop()); // t arrives: seq 0 first
                                           // Window now covers t; a fresh same-time insert goes on the wheel.
        cal.schedule_at(SimTime(t), 3);
        heap.schedule_at(SimTime(t), 3);
        assert_eq!(cal.pop(), heap.pop()); // seq 2 (decanted) before seq 3
        assert_eq!(cal.pop(), heap.pop());
        assert!(cal.pop().is_none() && heap.pop().is_none());
    }

    #[test]
    fn sparse_schedule_matches_heap() {
        // Consecutive events many windows apart exercise the window jump
        // and the overflow decant path.
        let mut cal = CalendarQueue::new();
        let mut heap = EventQueue::new();
        let mut t = 0u64;
        for i in 0..200u64 {
            t += 10_000 + (i * 977) % 5_000;
            cal.schedule_at(SimTime(t), i);
            heap.schedule_at(SimTime(t), i);
        }
        while let Some(a) = cal.pop() {
            assert_eq!(Some(a), heap.pop());
        }
        assert!(heap.pop().is_none());
        assert_eq!(cal.events_processed(), 200);
    }

    #[test]
    fn interleaved_sparse_and_dense_matches_heap() {
        let mut rng = Rng::seed_from_u64(3);
        let mut cal = CalendarQueue::new();
        let mut heap = EventQueue::new();
        for i in 0..2_000u64 {
            // Mostly tight spacing with occasional huge jumps.
            let d = if rng.below(50) == 0 {
                1_000_000 + rng.below(1_000_000)
            } else {
                rng.below(30)
            };
            cal.schedule_after(d, i);
            heap.schedule_after(d, i);
            if i % 3 == 0 {
                assert_eq!(cal.pop(), heap.pop(), "diverged at step {i}");
            }
        }
        loop {
            match (cal.pop(), heap.pop()) {
                (None, None) => break,
                (a, b) => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn random_explicit_keys_match_heap() {
        // Keyed scheduling with keys assigned out of insertion order — the
        // contract the simulator's `(actor, seq)` event keys rely on.
        let mut rng = Rng::seed_from_u64(41);
        let mut cal = CalendarQueue::new();
        let mut heap = EventQueue::new();
        for i in 0..3_000u64 {
            let d = rng.below(40);
            // Unique but non-monotone keys (the low word makes them unique,
            // the random high word scrambles their order).
            let key = (rng.below(1 << 20) << 32) | i;
            let at_c = cal.now() + d;
            let at_h = heap.now() + d;
            assert_eq!(at_c, at_h);
            cal.schedule_keyed_at(at_c, key, i);
            heap.schedule_keyed_at(at_h, key, i);
            if i % 2 == 0 {
                assert_eq!(cal.pop_keyed(), heap.pop_keyed(), "diverged at step {i}");
            }
        }
        loop {
            match (cal.pop_keyed(), heap.pop_keyed()) {
                (None, None) => break,
                (a, b) => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn peek_time_agrees_with_pop() {
        let mut rng = Rng::seed_from_u64(17);
        let mut cal = CalendarQueue::new();
        for i in 0..500u64 {
            let d = if rng.below(20) == 0 {
                100_000 + rng.below(10_000)
            } else {
                rng.below(60)
            };
            cal.schedule_after(d, i);
            if i % 4 == 0 {
                let peeked = cal.peek_time();
                let popped = cal.pop();
                assert_eq!(peeked, popped.map(|(t, _)| t));
            }
        }
        while let Some((t, _)) = {
            let peeked = cal.peek_time();
            let popped = cal.pop();
            assert_eq!(peeked, popped.map(|(t, _)| t));
            popped
        } {
            let _ = t;
        }
    }

    #[test]
    fn resize_preserves_everything() {
        let mut q = CalendarQueue::new();
        for i in 0..1000u64 {
            q.schedule_at(SimTime(i * 17 % 4096), i);
        }
        assert_eq!(q.len(), 1000);
        let mut last = (SimTime::ZERO, 0u64);
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last.0);
            last = (t, 0);
            count += 1;
        }
        assert_eq!(count, 1000);
        assert_eq!(q.events_processed(), 1000);
    }

    #[test]
    fn matches_binary_heap_order_on_random_schedules() {
        // The decisive test: identical pop order to EventQueue under an
        // interleaved random hold pattern.
        let mut rng = Rng::seed_from_u64(99);
        let mut cal = CalendarQueue::new();
        let mut heap = EventQueue::new();
        for i in 0..64u64 {
            let d = rng.below(100);
            cal.schedule_after(d, i);
            heap.schedule_after(d, i);
        }
        for i in 0..10_000u64 {
            let (tc, ec) = cal.pop().expect("calendar drained early");
            let (th, eh) = heap.pop().expect("heap drained early");
            assert_eq!((tc, ec), (th, eh), "diverged at step {i}");
            // Hold: reschedule a new event with a random delay.
            let d = rng.below(200);
            cal.schedule_after(d, i + 1000);
            heap.schedule_after(d, i + 1000);
        }
        // Drain both.
        loop {
            match (cal.pop(), heap.pop()) {
                (None, None) => break,
                (a, b) => assert_eq!(
                    a.as_ref().map(|(t, e)| (*t, *e)),
                    b.as_ref().map(|(t, e)| (*t, *e))
                ),
            }
        }
    }

    #[test]
    #[should_panic(expected = "clock is already")]
    fn scheduling_in_the_past_panics() {
        let mut q = CalendarQueue::new();
        q.schedule_at(SimTime(10), ());
        q.pop();
        q.schedule_at(SimTime(5), ());
    }

    #[test]
    fn empty_pop_is_none() {
        let mut q: CalendarQueue<()> = CalendarQueue::new();
        assert!(q.pop().is_none());
        assert_eq!(q.now(), SimTime::ZERO);
    }
}
