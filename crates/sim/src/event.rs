//! The event queue: the reactor at the heart of the simulator.
//!
//! Events are ordered by `(time, sequence number)`. Each event takes the
//! next number when scheduled, so ties break by insertion order whatever
//! the heap does, which is what lets every experiment in this repository
//! be reproduced bit-for-bit from a seed. [`EventQueue::reserve`] takes a
//! number for an event pushed later by [`EventQueue::schedule_reserved`],
//! which then pops where it would have had it been scheduled at once.
//!
//! A heap entry is 32 bytes: a `u128` key `(time << 64) | seq` and a
//! 16-byte `Copy` [`Event`]. Packets wait on their [`crate::Link`].

use crate::packet::{AppId, FlowId, LinkId};
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Something that will happen at a point in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// An application wakes up to generate traffic.
    AppWake { app: AppId },
    /// A link finished serializing the packet at the head of its queue.
    TxComplete { link: LinkId },
    /// The oldest packet propagating on the link arrives at its far end.
    Arrival { link: LinkId },
    /// Retransmission-timer check for a flow. The simulator matches the
    /// popped `(time, seq)` against the flow's armed timer, and the flow's
    /// epoch decides whether that timer is still live.
    RtoCheck { flow: FlowId },
}

struct Scheduled {
    /// `(at << 64) | seq`: one integer compare orders by time, then seq.
    key: u128,
    event: Event,
}

fn key(at: SimTime, seq: u64) -> u128 {
    ((at.as_nanos() as u128) << 64) | seq as u128
}

fn time_of(key: u128) -> SimTime {
    SimTime((key >> 64) as u64)
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other.key.cmp(&self.key)
    }
}

/// Deterministic min-queue of scheduled events.
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
    /// Key of the last popped event; nothing may be pushed below it.
    last: u128,
}

impl EventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        time_of(self.last)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Take the next sequence number without scheduling anything; pass
    /// it to [`EventQueue::schedule_reserved`] later.
    pub fn reserve(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past is
    /// a simulator bug and panics.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.reserve();
        self.schedule_reserved(at, seq, event);
    }

    /// Schedule `event` at `at` under a number from
    /// [`EventQueue::reserve`]. An entry that would pop before the last
    /// popped event is a simulator bug and panics, like a past time.
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, event: Event) {
        debug_assert!(seq < self.next_seq, "seq {seq} was never reserved");
        let key = key(at, seq);
        assert!(
            key >= self.last,
            "scheduling into the past: ({at}, seq {seq}) < {}",
            self.now()
        );
        self.heap.push(Scheduled { key, event });
    }

    /// Schedule `event` after a delay from now.
    pub fn schedule_in(&mut self, delay: SimTime, event: Event) {
        self.schedule(self.now() + delay, event);
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| time_of(s.key))
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    /// Returns its time, its sequence number and the event.
    pub fn pop(&mut self) -> Option<(SimTime, u64, Event)> {
        let s = self.heap.pop()?;
        debug_assert!(s.key >= self.last, "time went backwards");
        self.last = s.key;
        Some((time_of(s.key), s.key as u64, s.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_32_bytes() {
        assert_eq!(std::mem::size_of::<Event>(), 16);
        assert_eq!(std::mem::size_of::<Scheduled>(), 32);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), Event::AppWake { app: 3 });
        q.schedule(SimTime(10), Event::AppWake { app: 1 });
        q.schedule(SimTime(20), Event::AppWake { app: 2 });
        let mut order = vec![];
        while let Some((t, _, Event::AppWake { app })) = q.pop() {
            order.push((t.as_nanos(), app));
        }
        assert_eq!(order, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for app in 0..5 {
            q.schedule(SimTime(7), Event::AppWake { app });
        }
        let mut order = vec![];
        while let Some((_, _, Event::AppWake { app })) = q.pop() {
            order.push(app);
        }
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_in(SimTime::from_millis(5), Event::AppWake { app: 0 });
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(5));
        q.schedule_in(SimTime::from_millis(2), Event::AppWake { app: 1 });
        let (t, _, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_millis(7));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_past_scheduling() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), Event::AppWake { app: 0 });
        q.pop();
        q.schedule(SimTime(5), Event::AppWake { app: 0 });
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_a_reserved_seq_behind_the_last_pop() {
        let mut q = EventQueue::new();
        let seq = q.reserve();
        q.schedule(SimTime(10), Event::AppWake { app: 0 });
        q.pop();
        q.schedule_reserved(SimTime(10), seq, Event::AppWake { app: 1 });
    }

    #[test]
    fn len_and_empty_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime(1), Event::AppWake { app: 0 });
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }
}
