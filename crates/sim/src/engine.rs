//! The event queue at the heart of the discrete-event simulation.
//!
//! [`Engine`] is deliberately minimal: it orders `(time, payload)` pairs and
//! advances a clock. Everything domain-specific (what an event *means*) lives
//! in the crates layered above.
//!
//! Events are delivered in the total order of `(time, seq)`, where `seq` is
//! a counter bumped on every schedule: time order, and FIFO among events
//! scheduled for the same instant. Simulation outcomes therefore never
//! depend on heap internals. Payloads sit inline in the entries of a
//! [`BinaryHeap`]. There is no cancellation: a caller whose timer goes
//! stale drops it on delivery (the simulator tags such events with a node
//! epoch).

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// One queued event. Ordered by `Reverse((time, seq))` alone, so the std
/// max-heap pops the earliest event and the payload needs no `Ord`.
#[derive(Debug)]
struct Entry<E> {
    key: Reverse<(SimTime, u64)>,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
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
        self.key.cmp(&other.key)
    }
}

/// A time-ordered event queue with a virtual clock.
///
/// `E` is the event payload; the engine never inspects it.
#[derive(Debug)]
pub struct Engine<E> {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Entry<E>>,
    delivered: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Create an empty engine with the clock at zero and a small default
    /// capacity. Use [`Engine::with_capacity`] when the caller knows its
    /// steady-state event population (e.g. nodes × daemons).
    pub fn new() -> Self {
        Self::with_capacity(64)
    }

    /// Create an empty engine pre-sized for `capacity` concurrently
    /// scheduled events (no reallocation until the population exceeds it).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            now: 0,
            seq: 0,
            heap: BinaryHeap::with_capacity(capacity),
            delivered: 0,
        }
    }

    /// Current virtual time. Monotone: only advanced by [`Engine::pop`].
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far (diagnostics/throughput).
    #[inline]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of scheduled events not yet delivered.
    #[inline]
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// `at` may not precede the current clock; scheduling in the past is a
    /// logic error in the caller and panics in debug builds. In release
    /// builds the event is clamped to `now` so a long simulation degrades
    /// rather than wedges.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {at} < {}",
            self.now
        );
        let key = Reverse((at.max(self.now), self.seq));
        self.seq += 1;
        self.heap.push(Entry { key, payload });
    }

    /// Schedule `payload` at `now + delay`.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimTime, payload: E) {
        self.schedule_at(self.now.saturating_add(delay), payload)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Entry {
            key: Reverse((time, _)),
            payload,
        } = self.heap.pop()?;
        debug_assert!(time >= self.now);
        self.now = time;
        self.delivered += 1;
        Some((time, payload))
    }

    /// Timestamp of the next event without popping it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.key.0 .0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(30, 3);
        e.schedule_at(10, 1);
        e.schedule_at(20, 2);
        assert_eq!(e.pop(), Some((10, 1)));
        assert_eq!(e.pop(), Some((20, 2)));
        assert_eq!(e.pop(), Some((30, 3)));
        assert_eq!(e.pop(), None);
        assert_eq!(e.now(), 30);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut e: Engine<u32> = Engine::new();
        for i in 0..100 {
            e.schedule_at(5, i);
        }
        for i in 0..100 {
            assert_eq!(e.pop(), Some((5, i)));
        }
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut e: Engine<&str> = Engine::new();
        e.schedule_at(100, "a");
        e.pop();
        e.schedule_in(10, "b");
        assert_eq!(e.pop(), Some((110, "b")));
    }

    #[test]
    fn peek_takes_a_shared_ref() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(10, 1);
        // &self access: usable through a shared reference while other
        // shared borrows are alive.
        let shared: &Engine<u32> = &e;
        assert_eq!(shared.peek_time(), Some(10));
        e.pop();
        let shared: &Engine<u32> = &e;
        assert_eq!(shared.peek_time(), None);
    }

    #[test]
    fn with_capacity_does_not_change_semantics() {
        let mut e: Engine<u32> = Engine::with_capacity(2);
        for i in 0..100 {
            e.schedule_at(i, i as u32);
        }
        assert_eq!(e.pending(), 100);
        for i in 0..100 {
            assert_eq!(e.pop(), Some((i, i as u32)));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(100, 1);
        e.pop();
        e.schedule_at(50, 2);
    }

    #[test]
    fn scheduling_in_the_past_clamps_in_release() {
        // In release builds the past event is clamped to `now` instead of
        // panicking, so long simulations degrade rather than wedge.
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(100, 1);
        e.pop();
        if cfg!(not(debug_assertions)) {
            e.schedule_at(50, 2);
            assert_eq!(e.pop(), Some((100, 2)), "clamped to now");
        }
    }

    #[test]
    fn clock_is_monotone_under_interleaved_scheduling() {
        let mut e: Engine<u64> = Engine::new();
        e.schedule_at(1, 0);
        let mut last = 0;
        let mut n = 0u64;
        while let Some((t, v)) = e.pop() {
            assert!(t >= last);
            last = t;
            n += 1;
            if n < 1000 {
                // Re-schedule two children with pseudo-random offsets.
                e.schedule_in(v % 7 + 1, v.wrapping_mul(2).wrapping_add(1));
                if n.is_multiple_of(3) {
                    e.schedule_in(v % 3, v.wrapping_mul(2).wrapping_add(2));
                }
                // Keep the queue bounded.
                if e.pending() > 4 {
                    e.pop();
                }
            }
        }
    }
}
