//! Calendar queue: O(1)-amortized pending-event structure for very
//! large simulations.
//!
//! A [`CalendarQueue`] keeps pending events in a circular array of
//! *day* buckets, each covering one `width`-wide window of simulated
//! time (Brown's calendar queue, CACM 1988). Insert hashes the fire
//! time to a bucket in O(1); pop drains the bucket under the clock
//! hand, advancing day by day. When occupancy drifts out of the sweet
//! spot the calendar resizes and re-estimates its bucket width from
//! the live event population, keeping both operations O(1) amortized
//! — where a [`BinaryHeap`](std::collections::BinaryHeap) pays
//! O(log n) per operation, which at millions of pending wakeups (the
//! metro-scale fleet engine of `witag-net`) is the difference between
//! a flat and a growing per-event cost.
//!
//! The contract is identical to [`EventQueue`](crate::EventQueue) —
//! min order on `(time, seq)` so simultaneous events pop FIFO, a
//! monotone clock, and a panic on scheduling into the past — and both
//! structures implement the [`Timeline`]
//! abstraction, which is what lets the property tests drive the two
//! against each other on random workloads.

use crate::event::{ScheduledEvent, Timeline};
use crate::time::{Duration, Instant};

/// One pending event: fire time, FIFO tie-break, payload.
struct Entry<E> {
    at: Instant,
    seq: u64,
    payload: E,
}

/// Default bucket width before the first adaptive resize: wide enough
/// that microsecond-scale MAC events cluster a few per day, narrow
/// enough that second-scale duty-cycle wakeups don't all share one.
const DEFAULT_WIDTH: Duration = Duration::micros(512);

/// Initial number of day buckets (power of two; the bucket index is
/// masked, never divided).
const INITIAL_BUCKETS: usize = 16;

/// A bucketed calendar queue with the same semantics as
/// [`EventQueue`](crate::EventQueue).
///
/// ```
/// use witag_sim::{CalendarQueue, Instant, Timeline};
/// let mut q = CalendarQueue::new();
/// q.schedule(Instant::from_nanos(20), "b");
/// q.schedule(Instant::from_nanos(10), "a");
/// q.schedule(Instant::from_nanos(20), "c"); // same time as "b": FIFO
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
pub struct CalendarQueue<E> {
    /// Day buckets; `buckets.len()` is always a power of two.
    buckets: Vec<Vec<Entry<E>>>,
    /// Width of one day in nanoseconds (≥ 1).
    width_ns: u64,
    /// Absolute day index the clock hand is draining:
    /// `now.nanos() / width_ns`, advanced monotonically by `pop`.
    day: u64,
    /// Pending events across all buckets.
    size: usize,
    next_seq: u64,
    now: Instant,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    /// An empty calendar with the clock at [`Instant::ZERO`] and the
    /// default bucket width (adaptively re-estimated as it fills).
    pub fn new() -> Self {
        Self::with_width(DEFAULT_WIDTH)
    }

    /// An empty calendar whose initial day width is `width` (clamped
    /// to ≥ 1 ns). A caller that knows its typical event spacing —
    /// e.g. the metro fleet engine, whose wakeups are spaced by
    /// exchange airtimes — can skip the first few adaptive resizes.
    pub fn with_width(width: Duration) -> Self {
        CalendarQueue {
            buckets: std::iter::repeat_with(Vec::new).take(INITIAL_BUCKETS).collect(),
            width_ns: width.as_nanos().max(1),
            day: 0,
            size: 0,
            next_seq: 0,
            now: Instant::ZERO,
        }
    }

    /// Current simulation time: the fire time of the last popped event.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.size
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    fn bucket_of(&self, at: Instant) -> usize {
        ((at.nanos() / self.width_ns) & (self.buckets.len() as u64 - 1)) as usize
    }

    /// Schedule `payload` to fire at absolute time `at`. Returns the
    /// event's unique sequence id.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current simulation time —
    /// events may not be scheduled in the past.
    pub fn schedule(&mut self, at: Instant, payload: E) -> u64 {
        assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < now {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let b = self.bucket_of(at);
        self.buckets[b].push(Entry { at, seq, payload }); // lint:allow(panic_path) bucket_of masks by buckets.len()-1
        self.size += 1;
        if self.size > self.buckets.len() * 4 {
            self.resize(self.buckets.len() * 2);
        }
        seq
    }

    /// Schedule `payload` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Duration, payload: E) -> u64 {
        self.schedule(self.now + delay, payload)
    }

    /// Fire time of the next pending event without removing it.
    ///
    /// O(buckets) worst case (it walks days from the clock hand, then
    /// falls back to a full scan) — fine for an occasional peek, but a
    /// loop that peeks every iteration should pop instead.
    pub fn peek_time(&self) -> Option<Instant> {
        if self.size == 0 {
            return None;
        }
        let n = self.buckets.len() as u64;
        for step in 0..n {
            let day = self.day + step;
            let b = (day & (n - 1)) as usize;
            let best = self.buckets[b] // lint:allow(panic_path) index masked by buckets.len()-1
                .iter()
                .filter(|e| e.at.nanos() / self.width_ns == day)
                .map(|e| e.at)
                .min();
            if best.is_some() {
                return best;
            }
        }
        self.buckets.iter().flatten().map(|e| e.at).min()
    }

    /// Pop the earliest event (min `(time, seq)`), advancing the
    /// simulation clock to its fire time. Returns `None` when the
    /// queue is exhausted.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        if self.size == 0 {
            return None;
        }
        let n = self.buckets.len() as u64;
        // Walk the clock hand day by day; events whose fire time falls
        // in the current day are candidates, earlier days are already
        // drained (schedule() rejects the past, so nothing can land
        // behind the hand).
        for step in 0..n {
            let day = self.day + step;
            let b = (day & (n - 1)) as usize;
            let hit = self.buckets[b] // lint:allow(panic_path) index masked by buckets.len()-1
                .iter()
                .enumerate()
                .filter(|(_, e)| e.at.nanos() / self.width_ns == day)
                .min_by_key(|(_, e)| (e.at, e.seq))
                .map(|(i, _)| i);
            if let Some(i) = hit {
                self.day = day;
                return Some(self.take(b, i));
            }
        }
        // A full lap found nothing in-window: the population is sparse
        // relative to the calendar year. Jump the hand straight to the
        // global minimum instead of spinning through empty days.
        let (b, i) = self
            .buckets
            .iter()
            .enumerate()
            .flat_map(|(b, v)| v.iter().enumerate().map(move |(i, e)| (b, i, e)))
            .min_by_key(|(_, _, e)| (e.at, e.seq))
            .map(|(b, i, _)| (b, i))?;
        self.day = self.buckets[b][i].at.nanos() / self.width_ns; // lint:allow(panic_path) (b, i) found by the scan above
        Some(self.take(b, i))
    }

    /// Remove entry `i` of bucket `b` (both known to exist), advance
    /// the clock, and shrink the calendar if occupancy fell far below
    /// the bucket count.
    fn take(&mut self, b: usize, i: usize) -> ScheduledEvent<E> {
        let entry = self.buckets[b].swap_remove(i); // lint:allow(panic_path) caller located (b, i) in a scan
        self.size -= 1;
        debug_assert!(entry.at >= self.now, "calendar returned an event in the past");
        self.now = entry.at;
        if self.size * 4 < self.buckets.len() && self.buckets.len() > INITIAL_BUCKETS {
            self.resize(self.buckets.len() / 2);
        }
        ScheduledEvent {
            at: entry.at,
            seq: entry.seq,
            payload: entry.payload,
        }
    }

    /// Rebuild with `new_len` buckets (a power of two) and a width
    /// re-estimated from the live population: the mean gap between
    /// event times on a bounded sample, aiming for a few events per
    /// day. Deterministic — a pure function of queue contents.
    fn resize(&mut self, new_len: usize) {
        let new_len = new_len.max(INITIAL_BUCKETS).next_power_of_two();
        let mut entries: Vec<Entry<E>> = Vec::with_capacity(self.size);
        for bucket in self.buckets.iter_mut() {
            entries.append(bucket);
        }
        // Sample up to 64 fire times to estimate spacing.
        let stride = (entries.len() / 64).max(1);
        let mut sample: Vec<u64> = entries
            .iter()
            .step_by(stride)
            .map(|e| e.at.nanos())
            .collect();
        sample.sort_unstable();
        if sample.len() >= 2 {
            let span = sample.last().copied().unwrap_or(0)
                - sample.first().copied().unwrap_or(0);
            let mean_gap = span / (sample.len() as u64 - 1);
            // Three "typical gaps" per day keeps buckets a few deep.
            self.width_ns = (mean_gap.saturating_mul(3)).clamp(1, 1_000_000_000);
        }
        self.buckets = std::iter::repeat_with(Vec::new).take(new_len).collect();
        self.day = self.now.nanos() / self.width_ns;
        for e in entries {
            let b = self.bucket_of(e.at);
            self.buckets[b].push(e); // lint:allow(panic_path) bucket_of masks by buckets.len()-1
        }
    }

    /// Drop every pending event (the clock is left where it is).
    pub fn clear(&mut self) {
        for b in self.buckets.iter_mut() {
            b.clear();
        }
        self.size = 0;
    }
}

impl<E> Timeline<E> for CalendarQueue<E> {
    fn now(&self) -> Instant {
        CalendarQueue::now(self)
    }
    fn len(&self) -> usize {
        CalendarQueue::len(self)
    }
    fn schedule(&mut self, at: Instant, payload: E) -> u64 {
        CalendarQueue::schedule(self, at, payload)
    }
    fn peek_time(&self) -> Option<Instant> {
        CalendarQueue::peek_time(self)
    }
    fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        CalendarQueue::pop(self)
    }
    fn clear(&mut self) {
        CalendarQueue::clear(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new();
        q.schedule(Instant::from_nanos(30), 3);
        q.schedule(Instant::from_nanos(10), 1);
        q.schedule(Instant::from_nanos(20), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = CalendarQueue::new();
        let t = Instant::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = CalendarQueue::new();
        q.schedule(Instant::from_nanos(100), ());
        assert_eq!(q.now(), Instant::ZERO);
        q.pop();
        assert_eq!(q.now(), Instant::from_nanos(100));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = CalendarQueue::new();
        q.schedule(Instant::from_nanos(50), "first");
        q.pop();
        q.schedule_in(Duration::nanos(25), "second");
        let e = q.pop().unwrap();
        assert_eq!(e.at, Instant::from_nanos(75));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_past_events() {
        let mut q = CalendarQueue::new();
        q.schedule(Instant::from_nanos(10), ());
        q.pop();
        q.schedule(Instant::from_nanos(5), ());
    }

    #[test]
    fn peek_does_not_advance_clock() {
        let mut q = CalendarQueue::new();
        q.schedule(Instant::from_nanos(42), ());
        assert_eq!(q.peek_time(), Some(Instant::from_nanos(42)));
        assert_eq!(q.now(), Instant::ZERO);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = CalendarQueue::new();
        q.schedule(Instant::from_nanos(1), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn survives_growth_and_shrink_through_resizes() {
        // Push far past the resize threshold, interleave pops, and
        // check global ordering end to end.
        let mut q = CalendarQueue::with_width(Duration::nanos(64));
        let mut expect = Vec::new();
        for i in 0u64..5_000 {
            // Mixed spacings: dense bursts plus sparse stragglers.
            let t = (i % 7) * 13 + (i / 7) * 1_000_003 % 50_000_000;
            q.schedule(Instant::from_nanos(t), i);
            expect.push((t, i));
        }
        expect.sort_by_key(|&(t, i)| (t, i));
        let mut got = Vec::new();
        while let Some(e) = q.pop() {
            got.push((e.at.nanos(), e.payload));
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn sparse_far_future_events_pop_via_direct_search() {
        // Events many calendar years apart exercise the full-lap
        // fallback that jumps the hand to the global minimum.
        let mut q = CalendarQueue::with_width(Duration::nanos(2));
        q.schedule(Instant::from_nanos(1), "a");
        q.schedule(Instant::from_nanos(1_000_000_000), "z");
        q.schedule(Instant::from_nanos(500_000), "m");
        assert_eq!(q.pop().unwrap().payload, "a");
        assert_eq!(q.pop().unwrap().payload, "m");
        assert_eq!(q.pop().unwrap().payload, "z");
        assert!(q.pop().is_none());
    }
}
