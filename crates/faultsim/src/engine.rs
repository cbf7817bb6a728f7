//! Discrete-event core: a deterministic priority event queue.
//!
//! The fault injector runs many concurrent stochastic processes (one Poisson
//! arrival process per incident family plus periodic telemetry). Rather than
//! materialising each process independently and sorting afterwards, arrivals
//! are interleaved chronologically through this queue: each family schedules
//! its next occurrence, the queue yields the global next event, and the
//! handler re-schedules. Ties are broken by insertion sequence so runs are
//! fully deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use hpc_logs::time::SimTime;

/// A scheduled entry. Ordering is `(time, seq)` — item payloads do not
/// participate in comparisons, so `T` needs no `Ord`.
#[derive(Debug, Clone)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Deterministic min-priority queue keyed by [`SimTime`].
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<T> EventQueue<T> {
    /// Empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue::default()
    }

    /// Schedules `item` at `time`.
    pub fn push(&mut self, time: SimTime, item: T) {
        self.heap.push(Entry {
            time,
            seq: self.seq,
            item,
        });
        self.seq += 1;
    }

    /// Removes and returns the earliest entry.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| (e.time, e.item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(t(5), 1);
        q.push(t(5), 2);
        q.push(t(5), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, x)| x).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(t(100), "late");
        q.push(t(1), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.push(t(50), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "late");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simulates_rescheduling_process() {
        // A process that reschedules itself every 10 ms until 50 ms,
        // verifying queue-driven loops terminate correctly.
        let mut q = EventQueue::new();
        q.push(t(0), ());
        let mut fired = Vec::new();
        while let Some((now, ())) = q.pop() {
            fired.push(now.as_millis());
            let next = now + hpc_logs::time::SimDuration::from_millis(10);
            if next.as_millis() <= 50 {
                q.push(next, ());
            }
        }
        assert_eq!(fired, vec![0, 10, 20, 30, 40, 50]);
    }
}
