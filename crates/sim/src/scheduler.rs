//! Event scheduling and the simulation main loop.

use crate::calendar::CalendarQueue;
use crate::SimTime;
use serde::{Deserialize, Serialize};

/// The behaviour of a simulated system: how it reacts to each event.
///
/// Handlers receive the event and the [`Scheduler`], from which they can read
/// the current time and schedule follow-up events. Keeping the world and the
/// scheduler separate sidesteps borrow conflicts between simulation state and
/// the event queue.
pub trait World {
    /// The event type driving this world.
    type Event;

    /// Reacts to one event. The current time is `sched.now()`.
    fn handle(&mut self, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// The event queue's data structure, as specs and `uswg run --scheduler`
/// name it.
///
/// There is one: the calendar queue (see [`CalendarQueue`]), O(1)
/// amortized per operation. The enum exists so that specs naming
/// `"calendar"` still parse; choosing it changes nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum SchedulerBackend {
    /// Calendar queue with adaptive bucket resizing.
    #[default]
    Calendar,
}

impl SchedulerBackend {
    /// The backend's canonical name.
    pub fn name(self) -> &'static str {
        "calendar"
    }
}

/// One pending event. Ordered by time, then by insertion sequence so that
/// simultaneous events run in FIFO order (deterministic replay): by
/// [`Scheduled::key`].
///
/// Layout note: `at` and `seq` lead so the comparison key sits in the first
/// 16 bytes; with a zero-sized or small event payload an entry is two or
/// three words of a calendar day's vector (see the `scheduled_stays_compact`
/// test).
pub(crate) struct Scheduled<E> {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

impl<E> Scheduled<E> {
    /// The `(at, seq)` order as one integer, `at` in the high half: one
    /// 128-bit comparison where the tuple takes two compares and a branch.
    /// Computed, not stored, so the entry stays two words plus payload.
    #[inline]
    pub(crate) fn key(&self) -> u128 {
        (u128::from(self.at.micros()) << 64) | u128::from(self.seq)
    }
}

/// A lazily materialized block of time-zero seed events: event `i` of
/// `count` is `make(i)`, occupying slot `(SimTime::ZERO, seq = i)` in the
/// drain order. Population-scale simulations seed one wake-up per user;
/// materializing those up front costs O(users) queue memory for events
/// whose content is a pure function of their index. Streaming them instead
/// is free: every seed sequence number is below every dynamic sequence
/// number (the scheduler's counter starts at `count`), and `now` cannot
/// advance while a time-zero event remains, so a pending seed event *always*
/// precedes the entire queue — [`Scheduler::pop`] can drain the stream
/// unconditionally, no peek or merge required. The drain order is
/// byte-identical to scheduling the same events eagerly before `run`.
struct SeedEvents<E> {
    make: Box<dyn FnMut(usize) -> E + Send>,
    next: usize,
    count: usize,
}

impl<E> std::fmt::Debug for SeedEvents<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeedEvents")
            .field("next", &self.next)
            .field("count", &self.count)
            .finish_non_exhaustive()
    }
}

/// The event queue and virtual clock of a simulation.
///
/// # The held slot
///
/// A handler's follow-up is very often the next event to fire: a zero-delay
/// hand-off, or a stage that completes before any other user's next event.
/// Pushing it into the queue only to pop it straight back is the queue's
/// whole cost for nothing, so `schedule_at` parks one event — the earliest
/// it has seen since the last pop — in `held` and queues the rest. `pop`
/// then asks the queue for its minimum only *if that sorts before* `held`
/// (`CalendarQueue::pop_before`): if not, `held` fires without the queue
/// having moved; if so, the queue's event fires and `held` is pushed, which
/// is one pop and one push, what every event cost before. Each event is still
/// dispatched in `(time, seq)` order with the sequence number it was given
/// at `schedule_at`, so the drain order and the event count are those of a
/// scheduler without the slot.
#[derive(Debug)]
pub struct Scheduler<E> {
    now: SimTime,
    seq: u64,
    queue: CalendarQueue<E>,
    seed: Option<SeedEvents<E>>,
    held: Option<Scheduled<E>>,
}

impl<E> std::fmt::Debug for Scheduled<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduled")
            .field("at", &self.at)
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Self {
            now: SimTime::ZERO,
            seq: 0,
            queue: CalendarQueue::new(),
            seed: None,
            held: None,
        }
    }

    /// Like `new`, but with `count` time-zero seed events streamed lazily
    /// from `make` instead of stored (see [`SeedEvents`]). The seed events
    /// own sequence numbers `0..count`; dynamically scheduled events
    /// continue from `count`, so the drain order is byte-identical to
    /// calling `schedule(0, make(i))` for each `i` before the first pop —
    /// without ever holding the seeds in memory.
    fn seeded(count: usize, make: impl FnMut(usize) -> E + Send + 'static) -> Self {
        let mut sched = Self::new();
        sched.seq = count as u64;
        if count > 0 {
            sched.seed = Some(SeedEvents {
                make: Box::new(make),
                next: 0,
                count,
            });
        }
        sched
    }

    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay_micros` after the current time.
    #[inline]
    pub fn schedule(&mut self, delay_micros: u64, event: E) {
        self.schedule_at(self.now.saturating_add(delay_micros), event);
    }

    /// Schedules `event` at an absolute time.
    ///
    /// Events scheduled in the past are clamped to fire "now" (they still run
    /// after the current handler returns), preserving causality.
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let ev = Scheduled { at, seq, event };
        match &mut self.held {
            None => self.held = Some(ev),
            Some(held) => {
                let later = if ev.key() < held.key() {
                    std::mem::replace(held, ev)
                } else {
                    ev
                };
                self.queue.push(later);
            }
        }
    }

    /// Number of events still pending (held, queued and unstreamed seed
    /// events).
    pub fn pending(&self) -> usize {
        usize::from(self.held.is_some())
            + self.queue.len()
            + self.seed.as_ref().map_or(0, |s| s.count - s.next)
    }

    /// Drops every pending event — held, queued and unstreamed seeds — so
    /// the run loop returns as soon as the current handler does. For a
    /// handler that hit an error it cannot continue past: draining a
    /// million-user queue just to ignore each event is the alternative.
    pub fn halt(&mut self) {
        self.held = None;
        self.seed = None;
        self.queue = CalendarQueue::new();
    }

    #[inline]
    fn pop(&mut self) -> Option<Scheduled<E>> {
        // A pending seed event is (ZERO, seq < count): it precedes every
        // queued event, whose time is ≥ 0 and whose seq is ≥ count. No
        // comparison against the queue top is needed (see [`SeedEvents`]).
        if let Some(seed) = self.seed.as_mut() {
            let i = seed.next;
            seed.next += 1;
            let event = (seed.make)(i);
            if seed.next == seed.count {
                self.seed = None;
            }
            return Some(Scheduled {
                at: SimTime::ZERO,
                seq: i as u64,
                event,
            });
        }
        let Some(held) = self.held.take() else {
            return self.queue.pop();
        };
        match self.queue.pop_before(held.key()) {
            Some(ev) => {
                self.queue.push(held);
                Some(ev)
            }
            None => Some(held),
        }
    }

    /// Takes back an event that was popped but **not** executed (the
    /// deadline overshoot in [`Simulation::run_until`]). `pop` always leaves
    /// the held slot empty, so the event waits there, with its original
    /// sequence number, for the next `pop` or an earlier `schedule`.
    fn unpop(&mut self, ev: Scheduled<E>) {
        // Only deadline overshoots land here, and a seed event (time zero)
        // cannot overshoot any deadline — so holding it while seeds still
        // stream first can never reorder against them.
        debug_assert!(
            self.seed.is_none() || ev.at > SimTime::ZERO,
            "a time-zero seed event cannot overshoot a deadline"
        );
        debug_assert!(self.held.is_none(), "pop empties the held slot");
        self.held = Some(ev);
    }
}

/// A discrete-event simulation: a [`World`] plus its [`Scheduler`].
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug)]
pub struct Simulation<W: World> {
    world: W,
    sched: Scheduler<W::Event>,
}

impl<W: World> Simulation<W> {
    /// Creates a simulation at time zero with an empty event queue.
    pub fn new(world: W) -> Self {
        Self {
            world,
            sched: Scheduler::new(),
        }
    }

    /// [`Simulation::new`]: there is one backend, and the calendar sizes
    /// itself from its live population.
    #[doc(hidden)]
    pub fn with_backend(world: W, _backend: SchedulerBackend, _capacity: usize) -> Self {
        Self::new(world)
    }

    /// Creates a simulation pre-loaded with `count` time-zero seed events,
    /// streamed lazily: event `i` is `make(i)`, fired in index order before
    /// every dynamically scheduled event. Byte-identical to calling
    /// `schedule(0, make(i))` for `i` in `0..count` after construction, but
    /// the seeds occupy no queue memory — the difference between O(users)
    /// and O(live events) resident footprint for population-scale runs
    /// whose users are mostly idle at any instant.
    pub fn seeded(
        world: W,
        count: usize,
        make: impl FnMut(usize) -> W::Event + Send + 'static,
    ) -> Self {
        Self {
            world,
            sched: Scheduler::seeded(count, make),
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Number of events still pending in the queue.
    pub fn pending(&self) -> usize {
        self.sched.pending()
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the simulation, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Schedules an initial event `delay_micros` from now.
    pub fn schedule(&mut self, delay_micros: u64, event: W::Event) {
        self.sched.schedule(delay_micros, event);
    }

    /// Runs until the event queue is empty. Returns the number of events
    /// processed.
    pub fn run(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    /// Runs until the queue is empty or the next event is later than
    /// `deadline` (that event stays queued). Returns the number of events
    /// processed.
    ///
    /// The loop is fused: each event is extracted with a single pop instead
    /// of a peek/pop pair, and the rare event beyond the deadline goes back
    /// into the held slot with its original sequence number, which keeps it
    /// at exactly its previous position (FIFO order among simultaneous
    /// events is untouched).
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut steps = 0;
        while let Some(ev) = self.sched.pop() {
            if ev.at > deadline {
                self.sched.unpop(ev);
                break;
            }
            debug_assert!(ev.at >= self.sched.now, "time must not run backwards");
            self.sched.now = ev.at;
            self.world.handle(ev.event, &mut self.sched);
            steps += 1;
        }
        steps
    }

    /// Runs at most `max_events` events. Returns the number processed.
    pub fn run_steps(&mut self, max_events: u64) -> u64 {
        let mut steps = 0;
        while steps < max_events {
            let Some(ev) = self.sched.pop() else { break };
            self.sched.now = ev.at;
            self.world.handle(ev.event, &mut self.sched);
            steps += 1;
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records the order and time at which labeled events fire.
    struct Recorder {
        fired: Vec<(u32, SimTime)>,
    }

    impl World for Recorder {
        type Event = u32;
        fn handle(&mut self, event: u32, sched: &mut Scheduler<u32>) {
            self.fired.push((event, sched.now()));
            // Event 100 chains a follow-up.
            if event == 100 {
                sched.schedule(10, 101);
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new(Recorder { fired: vec![] });
        sim.schedule(30, 3);
        sim.schedule(10, 1);
        sim.schedule(20, 2);
        let steps = sim.run();
        assert_eq!(steps, 3);
        let order: Vec<u32> = sim.world().fired.iter().map(|&(e, _)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_micros(30));
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut sim = Simulation::new(Recorder { fired: vec![] });
        for i in 0..50 {
            sim.schedule(5, i);
        }
        sim.run();
        let order: Vec<u32> = sim.world().fired.iter().map(|&(e, _)| e).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn chained_events_advance_clock() {
        let mut sim = Simulation::new(Recorder { fired: vec![] });
        sim.schedule(5, 100);
        sim.run();
        assert_eq!(
            sim.world().fired,
            vec![
                (100, SimTime::from_micros(5)),
                (101, SimTime::from_micros(15))
            ]
        );
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(Recorder { fired: vec![] });
        sim.schedule(10, 1);
        sim.schedule(20, 2);
        sim.schedule(30, 3);
        let steps = sim.run_until(SimTime::from_micros(20));
        assert_eq!(steps, 2);
        assert_eq!(sim.now(), SimTime::from_micros(20));
        // The remaining event is still there.
        assert_eq!(sim.run(), 1);
        assert_eq!(sim.now(), SimTime::from_micros(30));
    }

    #[test]
    fn run_steps_bounds_event_count() {
        let mut sim = Simulation::new(Recorder { fired: vec![] });
        for i in 0..10 {
            sim.schedule(i as u64, i);
        }
        assert_eq!(sim.run_steps(4), 4);
        assert_eq!(sim.world().fired.len(), 4);
    }

    #[test]
    fn past_events_clamp_to_now() {
        struct PastScheduler;
        impl World for PastScheduler {
            type Event = bool;
            fn handle(&mut self, first: bool, sched: &mut Scheduler<bool>) {
                if first {
                    // Try to schedule before "now"; must clamp, not panic.
                    sched.schedule_at(SimTime::ZERO, false);
                }
            }
        }
        let mut sim = Simulation::new(PastScheduler);
        sim.schedule(100, true);
        assert_eq!(sim.run(), 2);
        assert_eq!(sim.now(), SimTime::from_micros(100));
    }

    #[test]
    fn pending_counts_queue() {
        let mut sim = Simulation::new(Recorder { fired: vec![] });
        sim.schedule(1, 1);
        sim.schedule(2, 2);
        assert_eq!(sim.sched.pending(), 2);
        assert_eq!(sim.pending(), 2);
    }

    #[test]
    fn pending_counts_the_held_event() {
        let mut sim = Simulation::new(Recorder { fired: vec![] });
        sim.schedule(7, 1);
        assert_eq!(sim.pending(), 1, "the only event is the held one");
        sim.schedule(3, 2);
        sim.schedule(5, 3);
        assert_eq!(sim.pending(), 3);
        // The overshooting event is taken back, not lost.
        assert_eq!(sim.run_until(SimTime::from_micros(4)), 1);
        assert_eq!(sim.pending(), 2);
        assert_eq!(sim.run(), 2);
        assert_eq!(sim.pending(), 0);
    }

    /// Schedules two follow-ups per event and halts on event `stop`.
    struct Halting {
        stop: u32,
        handled: u32,
    }

    impl World for Halting {
        type Event = u32;
        fn handle(&mut self, event: u32, sched: &mut Scheduler<u32>) {
            self.handled += 1;
            sched.schedule(0, event + 1);
            sched.schedule(10, event + 2);
            if event == self.stop {
                sched.halt();
            }
        }
    }

    #[test]
    fn halt_drops_held_queued_and_seed_events() {
        let world = Halting {
            stop: 2,
            handled: 0,
        };
        // Seeds 0..1000 stream first: 0, 1, 2 — and 2 halts with 997
        // seeds unstreamed, one event held and the rest queued.
        let mut sim = Simulation::seeded(world, 1_000, |i| i as u32);
        assert_eq!(sim.run(), 3);
        assert_eq!(sim.pending(), 0);
        assert_eq!(sim.world().handled, 3);
        // The scheduler is still usable afterwards.
        sim.world_mut().stop = u32::MAX;
        sim.schedule(1, 5);
        assert_eq!(sim.run_steps(4), 4);
    }

    #[test]
    fn run_until_pushback_preserves_fifo_order() {
        // Two events at the same instant beyond the deadline: the popped-
        // then-reinserted head must still fire before its sibling.
        let mut sim = Simulation::new(Recorder { fired: vec![] });
        sim.schedule(5, 0);
        sim.schedule(10, 1);
        sim.schedule(10, 2);
        assert_eq!(sim.run_until(SimTime::from_micros(5)), 1);
        assert_eq!(sim.pending(), 2);
        sim.run();
        let order: Vec<u32> = sim.world().fired.iter().map(|&(e, _)| e).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn backend_serde_uses_snake_case_names() {
        let json = serde_json::to_string(&SchedulerBackend::Calendar).unwrap();
        assert_eq!(json, "\"calendar\"");
        let back: SchedulerBackend = serde_json::from_str(&json).unwrap();
        assert_eq!(back, SchedulerBackend::Calendar);
    }

    #[test]
    fn pushback_then_earlier_schedule_stays_ordered() {
        // Regression: run_until pops a far-future event, takes it back, and
        // the caller then schedules an *earlier* event. The calendar's
        // search had advanced to the far event's day during the pop; the
        // earlier event takes the held slot, the far one goes back into the
        // queue, and whatever is scheduled next lands below the search
        // window (see `CalendarQueue::push`). Unhandled, the far event
        // drains first (debug builds panic on "time must not run
        // backwards").
        let mut sim = Simulation::new(Recorder { fired: vec![] });
        sim.schedule(5, 0);
        sim.schedule(1_000_000, 1);
        assert_eq!(sim.run_until(SimTime::from_micros(10)), 1);
        sim.schedule(100, 2); // earlier than the taken-back event
        sim.schedule(50, 3); // earlier still: 2 is pushed below the window
        sim.run();
        let fired: Vec<(u32, u64)> = (sim.world().fired.iter())
            .map(|&(e, at)| (e, at.micros()))
            .collect();
        assert_eq!(fired, vec![(0, 5), (3, 55), (2, 105), (1, 1_000_000)]);
    }

    #[test]
    fn key_orders_exactly_like_time_then_seq() {
        let edges = [
            0,
            1,
            2,
            1 << 32,
            (1 << 63) - 1,
            1 << 63,
            u64::MAX - 1,
            u64::MAX,
        ];
        let all: Vec<Scheduled<()>> = (edges.iter())
            .flat_map(|&at| edges.iter().map(move |&seq| (at, seq)))
            .map(|(at, seq)| Scheduled {
                at: SimTime::from_micros(at),
                seq,
                event: (),
            })
            .collect();
        for a in &all {
            for b in &all {
                let tuples = (a.at, a.seq).cmp(&(b.at, b.seq));
                assert_eq!(a.key().cmp(&b.key()), tuples, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn scheduled_stays_compact() {
        // The hot-loop entry must remain two comparison words plus payload.
        assert_eq!(std::mem::size_of::<Scheduled<()>>(), 16);
        assert!(std::mem::size_of::<Scheduled<u64>>() <= 24);
    }

    #[test]
    fn into_world_returns_state() {
        let mut sim = Simulation::new(Recorder { fired: vec![] });
        sim.schedule(1, 7);
        sim.run();
        let world = sim.into_world();
        assert_eq!(world.fired.len(), 1);
    }
}
