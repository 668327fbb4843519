//! The event queue of the [`Scheduler`](crate::Scheduler).
//!
//! A calendar queue (Brown 1988) hashes each event into a circular array of
//! time buckets — "days" of a fixed `width` — and pops by walking the
//! calendar from the current day forward. With the bucket count and width
//! tracking the event population (the ladder-queue-style `rebuild` below),
//! both `push` and `pop` are O(1) amortized, against a binary heap's
//! O(log n): at the ROADMAP's million-pending-event populations that log
//! factor is the DES hot loop's dominant cost.
//!
//! A day is a `Vec` that is only ever appended to, and put in order —
//! descending by [`Scheduled::key`], so its earliest event is `last()` and
//! taking it is `Vec::pop` — when the search reaches it (see [`Day`]). Every
//! insert is then O(1) whatever it lands next to, which matters because
//! newcomers land everywhere: of `deep_nfs`'s 7.29 M inserts, 47 % are the
//! earliest event of their day, 25 % the latest and 28 % in between, on
//! days of 2.6 events on average; at 200 k users `specs/million-user.json`
//! appends 57 % latest, on days of 24. Order is restored once per batch of
//! appends — about three events on `deep_nfs` — and a run appended in `seq`
//! order on a dense same-µs day is one reversal.
//!
//! Ordering contract: events drain in exactly `(time, seq)` order, including
//! FIFO tie-breaking of simultaneous events. `tests/properties.rs` checks it
//! against a reference that scans a `Vec` for the minimum and shares no code
//! with the queue. Two invariants make the search exact:
//!
//! * every queued event is at or after the start of the day window the
//!   search stands on: the walk only leaves a window it found empty, and a
//!   `push` below the window moves the search back onto the pushed event's
//!   day, and
//! * equal-time events always hash to the same day, so FIFO ties are
//!   resolved inside one day's sort, never across days.
//!
//! The first is all the queue assumes about its caller. The scheduler's
//! held slot (see [`Scheduler`](crate::Scheduler)) dispatches events the
//! calendar never saw and hands back a popped event that overshot a
//! deadline, so pushes may land before the last popped event's time.

use crate::scheduler::Scheduled;
use std::cmp::Reverse;

/// Smallest and largest bucket counts (both powers of two). The cap bounds
/// the bucket array's memory at 64 MiB of 32-byte [`Day`] headers while
/// still giving millions of pending events ~1 event per bucket.
const MIN_BUCKETS: usize = 4;
const MAX_BUCKETS: usize = 1 << 21;

/// Events sampled when re-estimating the bucket width.
const WIDTH_SAMPLE: usize = 64;

/// Direct searches in a row tolerated before the geometry is declared
/// stale and rebuilt. Keeps a queue whose time scale drifted (e.g. after a
/// burst of far-future events) from paying O(buckets) per pop forever.
const MISS_LIMIT: u32 = 16;

/// Empty days a pop may walk, averaged over a window of pops, before the
/// day width is declared stale and re-estimated (the dequeue-cost trigger of
/// the SNOOPy calendar queue, Tan & Thng 2000). A width fitted to the
/// population gives ~3 events per occupied day and well under one empty day
/// per pop; a width fitted to a burst that has since spread out — a login
/// wave estimated at a zero span, left at 1 µs — walks dozens, and neither
/// the resize thresholds nor [`MISS_LIMIT`] ever notice: a walk that finds
/// its event before a full lap is not a miss.
const WALK_LIMIT: u64 = 2;

/// Shortest window, in pops, the walk is averaged over. The window is never
/// shorter than the bucket count either, so the empty days walked before a
/// recalibration cost no more than the O(len) rebuild they trigger. The
/// floor is deliberately long: 32 k wasted day visits are tens of
/// microseconds, and a queue of a few dozen events riding out a start-up
/// transient is left to [`MISS_LIMIT`] and the resize rebuilds, which
/// sample it later and better.
const WALK_WINDOW: u64 = 16_384;

/// One day: its events, descending by key up to `sorted`, in append order
/// after it. Appending reads nothing of the day — at 10⁵ pending events its
/// last event is a cache miss — and [`Day::front`] restores the order.
#[derive(Debug)]
struct Day<E> {
    events: Vec<Scheduled<E>>,
    sorted: usize,
}

impl<E> Day<E> {
    fn new() -> Self {
        Day {
            events: Vec::new(),
            sorted: 0,
        }
    }

    /// The earliest event, `last()` once the events appended since the last
    /// call are in order: one comparison each if they kept it, one reversal
    /// if the whole day ascends (same-µs events arrive in `seq` order), one
    /// sort otherwise. Keys are unique, so the unstable sort is exact.
    fn front(&mut self) -> Option<&Scheduled<E>> {
        if self.sorted < self.events.len() {
            let appended = &self.events[self.sorted.saturating_sub(1)..];
            if !appended.is_sorted_by(|a, b| a.key() > b.key()) {
                if self.events.is_sorted_by_key(|e| e.key()) {
                    self.events.reverse();
                } else {
                    self.events.sort_unstable_by_key(|e| Reverse(e.key()));
                }
            }
            self.sorted = self.events.len();
        }
        self.events.last()
    }

    /// Takes the earliest event; [`Day::front`] ran since the last append.
    fn pop(&mut self) -> Option<Scheduled<E>> {
        debug_assert_eq!(self.sorted, self.events.len(), "popped an unsorted day");
        self.sorted = self.sorted.saturating_sub(1);
        self.events.pop()
    }
}

/// The calendar proper. See the module documentation.
#[derive(Debug)]
pub(crate) struct CalendarQueue<E> {
    buckets: Vec<Day<E>>,
    /// `buckets.len() - 1`; the bucket count is always a power of two.
    mask: usize,
    /// Width of one day, µs (≥ 1).
    width: u64,
    len: usize,
    /// The day the search currently stands on.
    cur: usize,
    /// Exclusive upper time bound of `cur`'s current year-lap window; every
    /// queued event is at or after `bucket_top - width`. `u128`: the window
    /// may sweep past `u64::MAX` while scanning toward a far-future outlier.
    bucket_top: u128,
    /// Direct searches since a walk last reached its event (or a rebuild).
    misses: u32,
    /// Empty days walked and pops made in the current window.
    walked: u64,
    pops: u64,
    /// Windows a recalibration waits for: doubled each time one leaves the
    /// width as it was, so a shape the estimator cannot help stops paying
    /// for rebuilds; back to 1 when the width moves.
    patience: u64,
}

impl<E> CalendarQueue<E> {
    pub(crate) fn new() -> Self {
        let mut q = Self {
            buckets: (0..MIN_BUCKETS).map(|_| Day::new()).collect(),
            mask: MIN_BUCKETS - 1,
            width: 1,
            len: 0,
            cur: 0,
            bucket_top: 0,
            misses: 0,
            walked: 0,
            pops: 0,
            patience: 1,
        };
        q.anchor(0);
        q
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Points the search at the day containing `at`.
    fn anchor(&mut self, at: u64) {
        let day = at / self.width;
        self.cur = (day as usize) & self.mask;
        self.bucket_top = (u128::from(day) + 1) * u128::from(self.width);
    }

    fn bucket_of(&self, at: u64) -> usize {
        ((at / self.width) as usize) & self.mask
    }

    /// Appends without checking the resize thresholds (shared by `push` and
    /// `rebuild`).
    fn insert(&mut self, ev: Scheduled<E>) {
        let idx = self.bucket_of(ev.at.micros());
        self.buckets[idx].events.push(ev);
        self.len += 1;
    }

    pub(crate) fn push(&mut self, ev: Scheduled<E>) {
        // Below the window the search stands on: every queued event is at or
        // after the window's start, so this one is the new minimum and the
        // search moves back onto its day.
        let at = ev.at.micros();
        if u128::from(at) + u128::from(self.width) < self.bucket_top {
            self.anchor(at);
        }
        self.insert(ev);
        if self.len > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.rebuild(self.buckets.len() * 2);
        }
    }

    /// Removes and returns the earliest event by `(time, seq)`.
    pub(crate) fn pop(&mut self) -> Option<Scheduled<E>> {
        if self.len == 0 {
            return None;
        }
        let day = self.seek();
        Some(self.take_front(day))
    }

    /// Removes and returns the earliest event if its key is below `key`;
    /// otherwise leaves the queue as it is, with the search parked on that
    /// event's day.
    pub(crate) fn pop_before(&mut self, key: u128) -> Option<Scheduled<E>> {
        if self.len == 0 {
            return None;
        }
        let day = self.seek();
        let front = self.buckets[day]
            .events
            .last()
            .expect("seek found this event");
        (front.key() < key).then(|| self.take_front(day))
    }

    /// Moves the search onto the day of the earliest event and returns that
    /// day, in order: the event is its `last()`. The queue must not be empty.
    fn seek(&mut self) -> usize {
        self.check_walk();
        // Year lap: walk at most one full calendar year from the current
        // day. The first event found inside its day's window is the global
        // minimum: every queued event is ≥ the window start, and any event
        // earlier than the current window's top would have hashed into a
        // day already inspected.
        let start = self.cur;
        for _ in 0..self.buckets.len() {
            let front = self.buckets[self.cur].front().map(|e| e.at.micros());
            if front.is_some_and(|at| u128::from(at) < self.bucket_top) {
                // Finding the event where the last seek left the search
                // says nothing about the geometry.
                if self.cur != start {
                    self.misses = 0;
                }
                return self.cur;
            }
            self.cur = (self.cur + 1) & self.mask;
            self.bucket_top += u128::from(self.width);
            self.walked += 1;
        }
        // A whole year holds nothing (far-future outliers): jump straight
        // to the earliest event instead of spinning through empty years.
        let (key, day) = (self.buckets.iter_mut().enumerate())
            .filter_map(|(i, day)| day.front().map(|e| (e.key(), i)))
            .min()
            .expect("len > 0 means some bucket is non-empty");
        self.anchor((key >> 64) as u64); // the key's high half is the time
        self.misses += 1;
        day
    }

    /// Re-estimates the width once the pops of the current window have
    /// walked more than [`WALK_LIMIT`] empty days each, and starts a new
    /// window when this one ends within that budget. Runs on entry to
    /// `seek`, when the population is whole (fewer than two events have no
    /// span to estimate from). A pure function of the queue's own history,
    /// like every other rebuild.
    fn check_walk(&mut self) {
        let window = self
            .patience
            .saturating_mul(WALK_WINDOW.max(self.buckets.len() as u64));
        if self.walked > WALK_LIMIT.saturating_mul(window) && self.len >= 2 {
            let before = self.width;
            self.rebuild(self.buckets.len());
            self.patience = if self.width == before {
                self.patience.saturating_mul(2)
            } else {
                1
            };
        } else if self.pops >= window {
            self.pops = 0;
            self.walked = 0;
        }
    }

    /// Takes the earliest event of day `idx`, which `seek` just put in order.
    fn take_front(&mut self, idx: usize) -> Scheduled<E> {
        let ev = self.buckets[idx].pop().expect("seek found it");
        self.len -= 1;
        self.pops += 1;
        if self.len < self.buckets.len() / 2 && self.buckets.len() > MIN_BUCKETS {
            self.rebuild(self.buckets.len() / 2);
        } else if self.misses >= MISS_LIMIT && self.len > 0 {
            // The geometry keeps missing its events: re-estimate the width.
            self.rebuild(self.buckets.len());
        }
        ev
    }

    /// Re-sizes to `nbuckets` days, re-estimating the day width from the
    /// surviving events and re-appending them all. O(len); the doubling/
    /// halving thresholds amortize it to O(1) per operation.
    fn rebuild(&mut self, nbuckets: usize) {
        let nbuckets = nbuckets.clamp(MIN_BUCKETS, MAX_BUCKETS);
        // A rebuild never runs mid-walk, so the window rests on a day some
        // real event or anchor named and its start is a `u64` time.
        let window_start = u64::try_from(self.bucket_top - u128::from(self.width))
            .expect("the search window rests on a real event's day");
        let mut all: Vec<Scheduled<E>> = Vec::with_capacity(self.len);
        for day in &mut self.buckets {
            all.append(&mut day.events);
            day.sorted = 0;
        }
        self.width = estimate_width(&all);
        if self.buckets.len() != nbuckets {
            self.buckets = (0..nbuckets).map(|_| Day::new()).collect();
            self.mask = nbuckets - 1;
        }
        self.len = 0;
        self.misses = 0;
        self.walked = 0;
        self.pops = 0;
        self.anchor(window_start);
        for ev in all {
            self.insert(ev);
        }
    }
}

/// Picks a day width giving ~3 events per occupied day: the 10th–90th
/// percentile span of a deterministic event sample, divided by the events it
/// covers. Robust against the two adversarial shapes the property suite
/// throws at it — all-same-timestamp bursts (zero span → minimum width) and
/// far-future outliers (trimmed percentiles ignore them).
fn estimate_width<E>(events: &[Scheduled<E>]) -> u64 {
    if events.len() < 2 {
        return 1;
    }
    let stride = (events.len() / WIDTH_SAMPLE).max(1);
    let mut sample: Vec<u64> = events
        .iter()
        .step_by(stride)
        .take(WIDTH_SAMPLE)
        .map(|e| e.at.micros())
        .collect();
    sample.sort_unstable();
    let trim = sample.len() / 10;
    let span = sample[sample.len() - 1 - trim] - sample[trim];
    if span == 0 {
        return 1;
    }
    // The trimmed span covers ~80% of the population.
    let gap = span as f64 / (0.8 * events.len() as f64);
    ((3.0 * gap).ceil() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimTime;

    fn ev(at: u64, seq: u64) -> Scheduled<u64> {
        Scheduled {
            at: SimTime::from_micros(at),
            seq,
            event: seq,
        }
    }

    /// Drains the queue, asserting the exact (time, seq) total order.
    fn drain_sorted(q: &mut CalendarQueue<u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push((e.at.micros(), e.seq));
        }
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(out, sorted, "calendar queue broke (time, seq) order");
        out
    }

    #[test]
    fn drains_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        for (i, at) in [30u64, 10, 20, 10, 0, 30].iter().enumerate() {
            q.push(ev(*at, i as u64));
        }
        assert_eq!(q.len(), 6);
        let order = drain_sorted(&mut q);
        assert_eq!(
            order,
            vec![(0, 4), (10, 1), (10, 3), (20, 2), (30, 0), (30, 5)]
        );
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_timestamp_burst_stays_fifo_through_resizes() {
        // 10k simultaneous events force several doublings with a zero-span
        // width estimate; FIFO order must survive every rebuild.
        let mut q = CalendarQueue::new();
        for seq in 0..10_000u64 {
            q.push(ev(777, seq));
        }
        let order = drain_sorted(&mut q);
        assert_eq!(order.len(), 10_000);
        assert!(order
            .iter()
            .enumerate()
            .all(|(i, &(at, seq))| at == 777 && seq == i as u64));
    }

    #[test]
    fn far_future_outlier_does_not_stall_the_lap() {
        let mut q = CalendarQueue::new();
        q.push(ev(u64::MAX - 3, 0)); // ~584k years out
        for seq in 1..100u64 {
            q.push(ev(seq, seq));
        }
        let order = drain_sorted(&mut q);
        assert_eq!(order.first(), Some(&(1, 1)));
        assert_eq!(order.last(), Some(&(u64::MAX - 3, 0)));
    }

    #[test]
    fn grows_and_shrinks_around_the_population() {
        let mut q = CalendarQueue::new();
        for seq in 0..4_096u64 {
            q.push(ev(seq * 17, seq));
        }
        assert!(q.buckets.len() >= 1_024, "queue should have grown");
        for _ in 0..4_090 {
            q.pop();
        }
        assert!(q.buckets.len() <= 16, "queue should have shrunk");
        assert_eq!(drain_sorted(&mut q).len(), 6);
    }

    #[test]
    fn interleaved_push_pop_respects_floor() {
        // Pushes at exactly the floor time (the scheduler's clamp case) must
        // still drain before later events.
        let mut q = CalendarQueue::new();
        q.push(ev(50, 0));
        assert_eq!(q.pop().unwrap().seq, 0);
        q.push(ev(50, 1)); // "now"
        q.push(ev(51, 2));
        q.push(ev(50, 3)); // same instant, later seq
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 3);
        assert_eq!(q.pop().unwrap().seq, 2);
    }

    #[test]
    fn push_below_the_window_after_a_declined_pop() {
        // The scheduler's held event fires without the queue moving, but the
        // question "is yours earlier?" walks the search to the queue's own
        // minimum. What the handler then schedules lands below that window.
        let mut q = CalendarQueue::new();
        q.push(ev(1_000, 0));
        assert!(q.pop_before(ev(5, 1).key()).is_none());
        assert_eq!(q.len(), 1, "a declined pop removes nothing");
        q.push(ev(20, 2));
        q.push(ev(10, 3));
        q.push(ev(20, 4));
        // A tie on the key is not "before" it.
        assert!(q.pop_before(ev(10, 3).key()).is_none());
        assert_eq!(q.pop_before(ev(10, 4).key()).unwrap().seq, 3);
        assert_eq!(drain_sorted(&mut q), vec![(20, 2), (20, 4), (1_000, 0)]);
    }

    #[test]
    fn push_below_the_window_after_an_overshoot() {
        // `run_until` pops a far event, finds it past the deadline and
        // keeps it; the search stays on that event's day while the caller
        // schedules from a clock a million µs behind — enough pushes to
        // rebuild the calendar under the stranded window twice over.
        let mut q = CalendarQueue::new();
        q.push(ev(1_000_000, 0));
        q.push(ev(2_000_000, 1));
        let far = q.pop().unwrap();
        for seq in 2..40u64 {
            q.push(ev(100 + 7 * (40 - seq), seq));
        }
        q.push(far);
        let order = drain_sorted(&mut q);
        assert_eq!(order.len(), 40);
        assert_eq!(order[0], (107, 39));
        assert_eq!(order[38..], [(1_000_000, 0), (2_000_000, 1)]);
    }

    #[test]
    fn repeated_sparse_hold_recalibrates() {
        // A standing population of 2 events light-years apart direct-searches
        // until MISS_LIMIT trips the rebuild; the queue must stay correct
        // throughout.
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        let mut t = 0u64;
        q.push(ev(t + 1, seq));
        q.push(ev(t + 1_000_000_000, seq + 1));
        seq += 2;
        for _ in 0..100 {
            let e = q.pop().unwrap();
            assert!(e.at.micros() >= t, "time ran backwards");
            t = e.at.micros();
            q.push(ev(t + 1_000_000_000, seq));
            seq += 1;
        }
        assert_eq!(q.len(), 2);
    }

    /// Pops once, returning the event and the empty days the pop walked.
    /// `pop` may close its window on entry; doing that first (a second
    /// `check_walk` changes nothing) keeps the counter monotonic across it.
    /// A pop that rebuilds on its way out (`MISS_LIMIT`, halving) zeroes the
    /// counter and reads as 0.
    fn pop_walk(q: &mut CalendarQueue<u64>) -> (Scheduled<u64>, u64) {
        q.check_walk();
        let before = q.walked;
        let e = q.pop().expect("hold loops never drain the queue");
        (e, q.walked.saturating_sub(before))
    }

    /// A hold loop: every popped event is rescheduled `step(i)` µs later.
    /// Returns the empty days walked by the second half of the pops and the
    /// number of rebuilds (on a constant population each one is a
    /// recalibration, and moves the width or doubles the patience).
    fn hold(q: &mut CalendarQueue<u64>, pops: u64, mut step: impl FnMut(u64) -> u64) -> (u64, u32) {
        let (mut late_walk, mut recalibrations, mut now) = (0, 0, 0);
        for i in 0..pops {
            let geometry = (q.width, q.patience);
            let (e, walk) = pop_walk(q);
            if (q.width, q.patience) != geometry {
                recalibrations += 1;
            }
            if i >= pops / 2 {
                late_walk += walk;
            }
            assert!(e.at.micros() >= now, "time ran backwards");
            now = e.at.micros();
            q.push(ev(now + step(i), 1_000_000 + i));
        }
        (late_walk, recalibrations)
    }

    #[test]
    fn burst_then_spread_recalibrates_the_width() {
        // The login-wave shape: thousands of events land on one timestamp
        // while nothing pops, so every growth rebuild sees a zero span and
        // leaves the width at 1 µs. The hold loop then spreads the same
        // population over 2·10⁵ µs — ~50 empty days between events, never a
        // whole empty year, and no resize to re-estimate on.
        let mut q = CalendarQueue::new();
        for seq in 0..4_096u64 {
            q.push(ev(777, seq));
        }
        assert_eq!(q.width, 1);
        let mut lcg = 24_301u64;
        let pops = 40_000;
        let (late_walk, _) = hold(&mut q, pops, |_| {
            lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (lcg >> 33) % 200_000
        });
        assert!(q.width > 1, "the stale width was never re-estimated");
        assert!(
            late_walk < pops / 2,
            "{late_walk} empty days over the last {} pops",
            pops / 2
        );
        assert_eq!(drain_sorted(&mut q).len(), 4_096);
    }

    #[test]
    fn unhelpable_shapes_back_off_instead_of_thrashing() {
        let log2 = |pops: u64| u64::BITS - pops.leading_zeros();
        // Two events a billion µs apart: one rebuild fixes the width for
        // good.
        let mut q = CalendarQueue::new();
        q.push(ev(1, 0));
        q.push(ev(1_000_000_000, 1));
        let (_, recalibrations) = hold(&mut q, 100_000, |_| 2_000_000_000);
        assert!(recalibrations <= log2(100_000), "{recalibrations} rebuilds");
        assert_eq!(drain_sorted(&mut q).len(), 2);

        // A shape the estimator cannot see: 99 % of the population parked on
        // one far timestamp (trimmed span 0 → width 1) while ten live events
        // step through the present 100 µs apart. Every recalibration returns
        // the same width, so the patience doubles each time.
        let mut q = CalendarQueue::new();
        for seq in 0..1_000u64 {
            q.push(ev(1_000_000_000_000, seq));
        }
        for seq in 0..10u64 {
            q.push(ev(seq * 100, 1_000 + seq));
        }
        let pops = 200_000;
        let (late_walk, recalibrations) = hold(&mut q, pops, |_| 1_000);
        assert!(late_walk > pops, "the shape was meant to keep walking");
        assert!(
            (2..=log2(pops)).contains(&recalibrations),
            "{recalibrations} rebuilds in {pops} pops"
        );
        assert_eq!(q.width, 1);
        assert_eq!(drain_sorted(&mut q).len(), 1_010);
    }

    #[test]
    fn width_estimate_handles_edge_shapes() {
        let burst: Vec<Scheduled<u64>> = (0..100).map(|s| ev(5, s)).collect();
        assert_eq!(estimate_width(&burst), 1);
        assert_eq!(estimate_width(&burst[..1]), 1);
        let spread: Vec<Scheduled<u64>> = (0..100).map(|s| ev(s * 1_000, s)).collect();
        let w = estimate_width(&spread);
        assert!(
            (1_000..=10_000).contains(&w),
            "width {w} off the ~3-per-day target"
        );
        // One outlier must not blow up the width.
        let mut with_outlier = spread;
        with_outlier.push(ev(u64::MAX / 2, 100));
        assert!(estimate_width(&with_outlier) < 100_000);
    }
}
