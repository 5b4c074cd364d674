//! The deterministic event order under the virtual clock.
//!
//! [`WakeupQueue`] is the single-owner queue a [`crate::VirtualClock`]
//! shares between its handles: pending wake-ups pop earliest first, equal
//! instants in registration order, and popping one moves `now` to its
//! instant. The simulator's `StepScheduler` builds on the clock, so every
//! simulated event is ordered here first.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use vc_simnet::SimTime;

/// One pending wake-up: delivery time, then an insertion sequence number
/// (FIFO among equal times), then the caller's opaque token identifying
/// who asked to be woken.
type QueuedWakeup = Reverse<(SimTime, u64, u64)>;

/// Time-ordered wake-up tokens plus the instant of the last one popped.
pub(crate) struct WakeupQueue {
    now: SimTime,
    heap: BinaryHeap<QueuedWakeup>,
    seq: u64,
}

impl WakeupQueue {
    /// An empty queue whose `now` reads `start`.
    pub(crate) fn starting_at(start: SimTime) -> Self {
        WakeupQueue {
            now: start,
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// The instant of the last popped wake-up (or the start).
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Queues `token` at `at`, clamped to `now` if already past.
    pub(crate) fn schedule(&mut self, at: SimTime, token: u64) {
        let at = at.max(self.now);
        self.heap.push(Reverse((at, self.seq, token)));
        self.seq += 1;
    }

    /// The earliest queued instant, if any.
    pub(crate) fn peek(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    /// Pops the earliest wake-up and moves `now` to its instant.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, u64)> {
        let Reverse((at, _, token)) = self.heap.pop()?;
        self.now = self.now.max(at);
        Some((self.now, token))
    }

    /// Number of queued wake-ups.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut WakeupQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop().map(|(_, t)| t)).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = WakeupQueue::starting_at(SimTime::ZERO);
        q.schedule(SimTime::from_secs(5.0), 3);
        q.schedule(SimTime::from_secs(1.0), 1);
        q.schedule(SimTime::from_secs(3.0), 2);
        assert_eq!(drain(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = WakeupQueue::starting_at(SimTime::ZERO);
        let t = SimTime::from_secs(2.0);
        for i in 0..10 {
            q.schedule(t, i);
        }
        assert_eq!(drain(&mut q), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn now_tracks_popped_events() {
        let mut q = WakeupQueue::starting_at(SimTime::ZERO);
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(q.now() + 10.0, 0);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(10.0));
        q.schedule(q.now() + 5.0, 0);
        assert_eq!(q.peek(), Some(SimTime::from_secs(15.0)));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = WakeupQueue::starting_at(SimTime::ZERO);
        q.schedule(SimTime::from_secs(1.0), 1);
        q.schedule(SimTime::from_secs(4.0), 4);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule(SimTime::from_secs(2.0), 2); // still in the future
        q.schedule(SimTime::from_secs(3.0), 3);
        assert_eq!(drain(&mut q), vec![2, 3, 4]);
        assert_eq!(q.len(), 0);
    }
}
