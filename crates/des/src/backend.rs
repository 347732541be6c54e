//! Runtime-selectable event-list backend.
//!
//! The simulator core works against [`DualQueue`], an enum over the two
//! interchangeable event lists — the binary-heap [`EventQueue`] and the
//! bucket-based [`CalendarQueue`]. Enum dispatch keeps the queue choice a
//! runtime configuration knob without infecting the public `Machine` /
//! `Strategy` API with a generic parameter, and the two variants share the
//! exact deterministic ordering contract (time, then insertion sequence), so
//! swapping backends never changes a simulated result — `tests/cross_queue.rs`
//! pins that on the full paper workloads.

use crate::calendar::CalendarQueue;
use crate::event::EventQueue;
use crate::time::SimTime;

/// The portable state of an event list: the clock, the processed-event
/// count, and every pending event in pop order with its ordering key.
/// Because both backends order events identically (time, then key), this is
/// a complete and backend-agnostic description — a snapshot drained from a
/// heap can be restored into a calendar queue and vice versa without
/// changing a single future pop, and the preserved keys keep restored
/// events merging correctly with keyed events scheduled later.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueSnapshot<E> {
    /// Timestamp of the last popped event.
    pub now: SimTime,
    /// Events popped before the snapshot was taken.
    pub processed: u64,
    /// Every pending event with its ordering key, in exactly the order
    /// `pop` would return them.
    pub events: Vec<(SimTime, u64, E)>,
}

/// An event list that is either a binary heap or a calendar queue.
///
/// ```
/// use oracle_des::{DualQueue, SimTime};
///
/// for mut q in [DualQueue::heap(), DualQueue::calendar()] {
///     q.schedule_after(10, "late");
///     q.schedule_after(5, "early");
///     assert_eq!(q.pop(), Some((SimTime(5), "early")));
///     assert_eq!(q.pop(), Some((SimTime(10), "late")));
/// }
/// ```
#[derive(Clone)]
pub enum DualQueue<E> {
    /// Binary-heap event list ([`EventQueue`]) — the default.
    Heap(EventQueue<E>),
    /// Calendar-queue event list ([`CalendarQueue`], Brown 1988).
    Calendar(CalendarQueue<E>),
}

impl<E> DualQueue<E> {
    /// An empty binary-heap queue.
    pub fn heap() -> Self {
        DualQueue::Heap(EventQueue::new())
    }

    /// An empty binary-heap queue with pre-reserved capacity.
    pub fn heap_with_capacity(capacity: usize) -> Self {
        DualQueue::Heap(EventQueue::with_capacity(capacity))
    }

    /// An empty calendar queue.
    pub fn calendar() -> Self {
        DualQueue::Calendar(CalendarQueue::new())
    }

    /// Current simulated time (timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        match self {
            DualQueue::Heap(q) => q.now(),
            DualQueue::Calendar(q) => q.now(),
        }
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            DualQueue::Heap(q) => q.len(),
            DualQueue::Calendar(q) => q.len(),
        }
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        match self {
            DualQueue::Heap(q) => q.is_empty(),
            DualQueue::Calendar(q) => q.is_empty(),
        }
    }

    /// Events popped so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        match self {
            DualQueue::Heap(q) => q.events_processed(),
            DualQueue::Calendar(q) => q.events_processed(),
        }
    }

    /// Schedule `payload` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past.
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        match self {
            DualQueue::Heap(q) => q.schedule_at(at, payload),
            DualQueue::Calendar(q) => q.schedule_at(at, payload),
        }
    }

    /// Schedule `payload` to fire `delay` units from now.
    #[inline]
    pub fn schedule_after(&mut self, delay: u64, payload: E) {
        match self {
            DualQueue::Heap(q) => q.schedule_after(delay, payload),
            DualQueue::Calendar(q) => q.schedule_after(delay, payload),
        }
    }

    /// Schedule `payload` at the absolute instant `at` with an explicit
    /// ordering key (see [`EventQueue::schedule_keyed_at`]).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past.
    #[inline]
    pub fn schedule_keyed_at(&mut self, at: SimTime, key: u64, payload: E) {
        match self {
            DualQueue::Heap(q) => q.schedule_keyed_at(at, key, payload),
            DualQueue::Calendar(q) => q.schedule_keyed_at(at, key, payload),
        }
    }

    /// Timestamp of the next pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        match self {
            DualQueue::Heap(q) => q.peek_time(),
            DualQueue::Calendar(q) => q.peek_time(),
        }
    }

    /// Remove and return the next event, advancing the clock.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match self {
            DualQueue::Heap(q) => q.pop(),
            DualQueue::Calendar(q) => q.pop(),
        }
    }

    /// Remove and return the next event together with its ordering key,
    /// advancing the clock.
    #[inline]
    pub fn pop_keyed(&mut self) -> Option<(SimTime, u64, E)> {
        match self {
            DualQueue::Heap(q) => q.pop_keyed(),
            DualQueue::Calendar(q) => q.pop_keyed(),
        }
    }

    /// Drain the queue into a [`QueueSnapshot`], leaving it empty. Popping
    /// is the only operation whose order both backends define identically,
    /// so draining *is* the canonical serialization; callers that need to
    /// keep running rebuild the queue with [`DualQueue::from_snapshot`].
    pub fn take_snapshot(&mut self) -> QueueSnapshot<E> {
        let now = self.now();
        let processed = self.events_processed();
        let mut events = Vec::with_capacity(self.len());
        while let Some(entry) = self.pop_keyed() {
            events.push(entry);
        }
        QueueSnapshot {
            now,
            processed,
            events,
        }
    }

    /// Rebuild a queue of the same backend kind as `self` from a snapshot.
    /// Used to restore a queue in place after [`DualQueue::take_snapshot`]
    /// drained it (the drain advances internal cursors that must not leak
    /// into the continuing run).
    pub fn restore_snapshot(&mut self, snap: QueueSnapshot<E>) {
        *self = match self {
            DualQueue::Heap(_) => DualQueue::Heap(EventQueue::from_snapshot(
                snap.now,
                snap.processed,
                snap.events,
            )),
            DualQueue::Calendar(_) => DualQueue::Calendar(CalendarQueue::from_snapshot(
                snap.now,
                snap.processed,
                snap.events,
            )),
        };
    }

    /// Build a queue from a snapshot, choosing the backend explicitly.
    pub fn from_snapshot(use_heap: bool, snap: QueueSnapshot<E>) -> Self {
        if use_heap {
            DualQueue::Heap(EventQueue::from_snapshot(
                snap.now,
                snap.processed,
                snap.events,
            ))
        } else {
            DualQueue::Calendar(CalendarQueue::from_snapshot(
                snap.now,
                snap.processed,
                snap.events,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn backends_agree_on_random_schedules() {
        let mut rng = Rng::seed_from_u64(7);
        let mut heap = DualQueue::heap_with_capacity(64);
        let mut cal = DualQueue::calendar();
        for i in 0..64u64 {
            let d = rng.below(50);
            heap.schedule_after(d, i);
            cal.schedule_after(d, i);
        }
        for i in 0..5_000u64 {
            let a = heap.pop().expect("heap drained early");
            let b = cal.pop().expect("calendar drained early");
            assert_eq!(a, b, "diverged at step {i}");
            let d = rng.below(120);
            heap.schedule_after(d, i + 64);
            cal.schedule_after(d, i + 64);
        }
        while let Some(a) = heap.pop() {
            assert_eq!(Some(a), cal.pop());
        }
        assert!(cal.pop().is_none());
        assert_eq!(heap.events_processed(), cal.events_processed());
        assert_eq!(heap.now(), cal.now());
        assert!(heap.is_empty() && cal.is_empty());
        assert_eq!(heap.len(), 0);
    }

    #[test]
    fn snapshot_round_trip_preserves_pop_order_across_backends() {
        // Build two identical schedules, snapshot one mid-run, restore the
        // snapshot into BOTH backend kinds, and check every later pop.
        let mut reference = DualQueue::<u64>::heap();
        let mut snap_source = DualQueue::<u64>::calendar();
        let mut rng = Rng::seed_from_u64(13);
        for i in 0..200u64 {
            // Delays up to 2000 exercise both the wheel and the overflow.
            let d = rng.below(2_000);
            reference.schedule_after(d, i);
            snap_source.schedule_after(d, i);
        }
        for _ in 0..60 {
            assert_eq!(reference.pop(), snap_source.pop());
        }
        let snap = snap_source.take_snapshot();
        assert!(snap_source.is_empty());
        let mut as_heap = DualQueue::from_snapshot(true, snap.clone());
        let mut as_cal = DualQueue::from_snapshot(false, snap.clone());
        snap_source.restore_snapshot(snap);
        assert_eq!(snap_source.now(), reference.now());
        assert_eq!(snap_source.events_processed(), reference.events_processed());
        loop {
            let want = reference.pop();
            assert_eq!(as_heap.pop(), want);
            assert_eq!(as_cal.pop(), want);
            assert_eq!(snap_source.pop(), want);
            if want.is_none() {
                break;
            }
        }
    }
}
