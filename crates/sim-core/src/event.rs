//! A stable, timestamped event queue.
//!
//! [`EventQueue`] orders events primarily by their scheduled [`SimTime`] and
//! secondarily by insertion order, so events scheduled for the same instant
//! pop in FIFO order. Stability matters for determinism: without it, the
//! relative order of simultaneous packet arrivals would depend on queue
//! internals and reruns would diverge.
//!
//! The queue is a plain `BinaryHeap` keyed on `(time, insertion seq)`:
//! a two-level timer wheel behind the same contract pops faster in
//! isolation but made no end-to-end difference to a campaign or a swarm
//! (DESIGN.md, "Performance architecture").

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A priority queue of `(SimTime, E)` pairs popped in chronological order,
/// FIFO among ties.
///
/// # Example
///
/// ```
/// use h3cdn_sim_core::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let t = SimTime::from_nanos(7);
/// q.schedule(t, "first");
/// q.schedule(t, "second");
/// assert_eq!(q.pop(), Some((t, "first")));
/// assert_eq!(q.pop(), Some((t, "second")));
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// The total order the queue pops by.
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        // BinaryHeap is a max-heap; reverse so the earliest (time, seq)
        // pops first.
        other.key().cmp(&self.key())
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the chronologically next event, or `None` when
    /// the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// Removes and returns the next event if it is due at or before
    /// `deadline`.
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.heap.peek()?.at > deadline {
            return None;
        }
        self.pop()
    }

    /// Returns the timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(at(3), 'c');
        q.schedule(at(1), 'a');
        q.schedule(at(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(at(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_ties_preserve_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(at(1), "early-1");
        q.schedule(at(2), "late-1");
        q.schedule(at(1), "early-2");
        q.schedule(at(2), "late-2");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["early-1", "early-2", "late-1", "late-2"]);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(at(9), ());
        assert_eq!(q.peek_time(), Some(at(9)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn spans_every_level() {
        // Nanosecond, millisecond, multi-second and sentinel times,
        // scheduled out of order.
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, "sentinel");
        q.schedule(at(10_000), "10 s");
        q.schedule(at(100), "100 ms");
        q.schedule(SimTime::from_nanos(50), "50 ns");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["50 ns", "100 ms", "10 s", "sentinel"]);
    }

    #[test]
    fn past_events_pop_before_future_ones() {
        let mut q = EventQueue::new();
        q.schedule(at(50), "future");
        assert_eq!(q.pop().map(|(_, e)| e), Some("future"));
        // The last pop was at 50 ms; schedule into the past.
        q.schedule(at(10), "past");
        q.schedule(at(60), "later");
        assert_eq!(q.pop(), Some((at(10), "past")));
        assert_eq!(q.pop(), Some((at(60), "later")));
    }

    #[test]
    fn l1_window_slides_without_missing_events() {
        // 600 events about 16.8 ms apart, spanning about 10 s.
        let mut q = EventQueue::new();
        for i in 0..600u64 {
            q.schedule(SimTime::from_nanos(i << 24), i);
        }
        let mut prev = None;
        while let Some((t, i)) = q.pop() {
            assert_eq!(t.as_nanos(), i << 24);
            assert!(prev < Some(i), "must pop in order");
            prev = Some(i);
        }
        assert_eq!(prev, Some(599));
    }

    #[test]
    fn pop_at_or_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(at(10), "early");
        q.schedule(at(30), "late");
        assert_eq!(q.pop_at_or_before(at(5)), None);
        assert_eq!(q.pop_at_or_before(at(10)), Some((at(10), "early")));
        assert_eq!(q.pop_at_or_before(at(20)), None);
        assert_eq!(q.pop_at_or_before(SimTime::MAX), Some((at(30), "late")));
        assert_eq!(q.pop_at_or_before(SimTime::MAX), None);
    }

    #[test]
    fn pop_at_or_before_handles_same_slot_deadline() {
        // A deadline 50 ns before the only pending event must not admit it.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(100), ());
        assert_eq!(q.pop_at_or_before(SimTime::from_nanos(50)), None);
        assert_eq!(
            q.pop_at_or_before(SimTime::from_nanos(100)),
            Some((SimTime::from_nanos(100), ()))
        );
    }
}
