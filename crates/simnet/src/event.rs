//! Deterministic time-ordered event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event queue popping entries in `(time, class, insertion order)`
/// order.
///
/// Determinism matters: two events scheduled for the same virtual instant
/// (common when several devices share a latency) must always pop in the
/// same order, or federated runs would not be reproducible across
/// executions. The insertion sequence number provides that tie-break.
///
/// The optional *class* orders simultaneous events of different kinds:
/// ring simulation schedules message arrivals with a lower class than
/// training completions so that a model arriving at instant `τ` is
/// visible to a training step that starts at `τ`. Ring transfers take
/// no virtual time, so without it a homogeneous ring (all latencies
/// equal) would never relay: every completion would pop before the
/// arrival it should consume.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

/// Default event class used by [`EventQueue::push`].
const DEFAULT_CLASS: u8 = 128;

#[derive(Debug)]
struct Entry<T> {
    time: SimTime,
    class: u8,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.class == other.class && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.class.cmp(&self.class))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedule `payload` at `time` with the default class.
    pub fn push(&mut self, time: SimTime, payload: T) {
        self.push_class(time, DEFAULT_CLASS, payload);
    }

    /// Schedule `payload` at `time` with an explicit class; lower classes
    /// pop first among simultaneous events.
    pub fn push_class(&mut self, time: SimTime, class: u8, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            time,
            class,
            seq,
            payload,
        });
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// Time of the earliest pending event.
    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pop the earliest event only if it fires strictly before `deadline`.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, T)> {
        match self.peek_time() {
            Some(t) if t < deadline => self.pop(),
            _ => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(3.0), "c");
        q.push(SimTime::new(1.0), "a");
        q.push(SimTime::new(2.0), "b");
        assert_eq!(q.pop().map(|(_, p)| p), Some("a"));
        assert_eq!(q.pop().map(|(_, p)| p), Some("b"));
        assert_eq!(q.pop().map(|(_, p)| p), Some("c"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::new(1.0), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().map(|(_, p)| p), Some(i));
        }
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(1.0), "early");
        q.push(SimTime::new(5.0), "late");
        assert_eq!(
            q.pop_before(SimTime::new(2.0)).map(|(_, p)| p),
            Some("early")
        );
        assert!(q.pop_before(SimTime::new(2.0)).is_none());
        assert_eq!(q.len(), 1);
        // The deadline itself is exclusive.
        assert!(q.pop_before(SimTime::new(5.0)).is_none());
        assert_eq!(
            q.pop_before(SimTime::new(5.0001)).map(|(_, p)| p),
            Some("late")
        );
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(2.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::new(2.0)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn clear_empties() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn classes_order_simultaneous_events() {
        let mut q = EventQueue::new();
        q.push_class(SimTime::new(1.0), 1, "completion");
        q.push_class(SimTime::new(1.0), 0, "arrival");
        q.push_class(SimTime::new(0.5), 1, "earlier-completion");
        assert_eq!(q.pop().map(|(_, p)| p), Some("earlier-completion"));
        assert_eq!(
            q.pop().map(|(_, p)| p),
            Some("arrival"),
            "class 0 first at equal time"
        );
        assert_eq!(q.pop().map(|(_, p)| p), Some("completion"));
    }

    #[test]
    fn same_class_ties_keep_insertion_order() {
        let mut q = EventQueue::new();
        q.push_class(SimTime::new(1.0), 3, 1);
        q.push_class(SimTime::new(1.0), 3, 2);
        assert_eq!(q.pop().map(|(_, p)| p), Some(1));
        assert_eq!(q.pop().map(|(_, p)| p), Some(2));
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(10.0), 10);
        q.push(SimTime::new(1.0), 1);
        assert_eq!(q.pop().map(|(_, p)| p), Some(1));
        q.push(SimTime::new(5.0), 5);
        q.push(SimTime::new(2.0), 2);
        assert_eq!(q.pop().map(|(_, p)| p), Some(2));
        assert_eq!(q.pop().map(|(_, p)| p), Some(5));
        assert_eq!(q.pop().map(|(_, p)| p), Some(10));
    }
}
