//! Property-based tests of the simulation kernel's ordering guarantees.

use proptest::prelude::*;
use uswg_sim::{Resource, Scheduler, SchedulerBackend, SimTime, Simulation, World};

/// Records (event id, fire time) pairs.
struct Recorder {
    fired: Vec<(u64, SimTime)>,
}

impl World for Recorder {
    type Event = u64;
    fn handle(&mut self, ev: u64, sched: &mut Scheduler<u64>) {
        self.fired.push((ev, sched.now()));
    }
}

/// One step of a random scheduler workout: either schedule a batch of
/// events or drain a few.
#[derive(Debug, Clone)]
enum QueueOp {
    /// Schedule one event this many µs after the current time.
    Schedule(u64),
    /// Pop (run) up to this many pending events.
    Drain(u64),
    /// Run until `now + delta`, exercising the pop-then-push-back path on
    /// the event just beyond the deadline.
    RunUntil(u64),
}

/// Delays spanning the calendar queue's adversarial shapes: same-instant
/// bursts (0), dense clusters, mid-range spread, and far-future outliers
/// that park an event many bucket-years out.
fn delay_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        0u64..8,
        0u64..10_000,
        1_000_000u64..1_000_050_000,
        Just(u64::MAX / 3),
        Just(u64::MAX - 1),
    ]
}

fn op_strategy() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        delay_strategy().prop_map(QueueOp::Schedule),
        (1u64..20).prop_map(QueueOp::Drain),
        (0u64..20_000).prop_map(QueueOp::RunUntil),
    ]
}

/// Applies one schedule/pop interleaving to a fresh simulation on `backend`
/// and returns the full `(event id, fire time)` drain sequence.
fn interleave(backend: SchedulerBackend, ops: &[QueueOp]) -> Vec<(u64, SimTime)> {
    let mut sim = Simulation::with_backend(Recorder { fired: vec![] }, backend, 0);
    let mut id = 0u64;
    for op in ops {
        match *op {
            QueueOp::Schedule(delay) => {
                sim.schedule(delay, id);
                id += 1;
            }
            QueueOp::Drain(count) => {
                sim.run_steps(count);
            }
            QueueOp::RunUntil(delta) => {
                sim.run_until(sim.now().saturating_add(delta));
            }
        }
    }
    sim.run();
    sim.into_world().fired
}

/// An event of the branching world: `depth` bounds the family tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    id: u64,
    depth: u8,
}

/// Follow-ups a handled event schedules, as delays: 0–3 of them, a pure
/// function of the event id, drawn from `delays` (which holds zeros, ties
/// and `u64::MAX - 1`). Shared by the kernel-driven world and the reference,
/// so the two can differ only in the order they dispatch.
fn follow_ups(node: Node, delays: &[u64]) -> impl Iterator<Item = u64> + '_ {
    let h = node.id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17;
    let count = if node.depth >= 4 { 0 } else { h % 4 };
    (0..count).map(move |k| delays[((h + k) % delays.len() as u64) as usize])
}

/// The branching world on the real kernel.
struct Branching {
    delays: Vec<u64>,
    next_id: u64,
    fired: Vec<(u64, SimTime)>,
}

impl World for Branching {
    type Event = Node;
    fn handle(&mut self, node: Node, sched: &mut Scheduler<Node>) {
        self.fired.push((node.id, sched.now()));
        for delay in follow_ups(node, &self.delays) {
            let child = Node {
                id: self.next_id,
                depth: node.depth + 1,
            };
            self.next_id += 1;
            sched.schedule(delay, child);
        }
    }
}

/// The order oracle: pending events in a `Vec`, the next one found by
/// scanning for the minimum `(at, seq)`. Shares no code with the kernel.
struct Reference {
    next_id: u64,
    fired: Vec<(u64, SimTime)>,
    now: u64,
    seq: u64,
    pending: Vec<(u64, u64, Node)>,
}

impl Reference {
    fn schedule(&mut self, delay: u64, node: Node) {
        self.pending
            .push((self.now.saturating_add(delay), self.seq, node));
        self.seq += 1;
    }

    /// Dispatches the earliest event if it is due by `deadline`.
    fn step(&mut self, delays: &[u64], deadline: u64) -> bool {
        let Some(i) =
            (0..self.pending.len()).min_by_key(|&i| (self.pending[i].0, self.pending[i].1))
        else {
            return false;
        };
        if self.pending[i].0 > deadline {
            return false;
        }
        let (at, _, node) = self.pending.swap_remove(i);
        self.now = at;
        self.fired.push((node.id, SimTime::from_micros(at)));
        for delay in follow_ups(node, delays) {
            let child = Node {
                id: self.next_id,
                depth: node.depth + 1,
            };
            self.next_id += 1;
            self.schedule(delay, child);
        }
        true
    }

    fn run(&mut self, delays: &[u64], max_events: u64, deadline: u64) -> u64 {
        let mut steps = 0;
        while steps < max_events && self.step(delays, deadline) {
            steps += 1;
        }
        steps
    }
}

/// Drives the branching world through `ops` on `backend` and on the
/// reference in lockstep, comparing step counts, clock and population after
/// every slice and the full dispatch sequence at the end. `seeds` time-zero
/// events stream from the kernel's lazy seed block first.
fn check_against_reference(
    backend: SchedulerBackend,
    seeds: usize,
    delays: &[u64],
    ops: &[QueueOp],
) {
    let root = |id: u64| Node { id, depth: 0 };
    let world = Branching {
        delays: delays.to_vec(),
        next_id: 1 << 32,
        fired: vec![],
    };
    let mut sim =
        Simulation::with_backend_seeded(world, backend, 0, seeds, move |i| root(i as u64));
    let mut reference = Reference {
        next_id: 1 << 32,
        fired: vec![],
        now: 0,
        seq: 0,
        pending: vec![],
    };
    for i in 0..seeds {
        reference.schedule(0, root(i as u64));
    }
    let mut id = seeds as u64;
    for op in ops {
        match *op {
            QueueOp::Schedule(delay) => {
                sim.schedule(delay, root(id));
                reference.schedule(delay, root(id));
                id += 1;
            }
            QueueOp::Drain(count) => {
                prop_assert_eq!(sim.run_steps(count), reference.run(delays, count, u64::MAX));
            }
            QueueOp::RunUntil(delta) => {
                let deadline = sim.now().saturating_add(delta);
                prop_assert_eq!(
                    sim.run_until(deadline),
                    reference.run(delays, u64::MAX, deadline.micros())
                );
            }
        }
        prop_assert_eq!(sim.now().micros(), reference.now);
        prop_assert_eq!(sim.pending(), reference.pending.len());
    }
    prop_assert_eq!(sim.run(), reference.run(delays, u64::MAX, u64::MAX));
    prop_assert_eq!(sim.pending(), 0);
    prop_assert_eq!(&sim.world().fired, &reference.fired);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The heap-against-calendar comparisons below share the scheduler's
    /// held slot, so a bug in it passes them. This one does not: handlers
    /// that schedule follow-ups (the only way an event meets a non-empty
    /// held slot mid-run), sliced by `run_steps` / `run_until`, against a
    /// reference that scans a `Vec` for the minimum.
    #[test]
    fn dispatch_order_matches_a_scanning_reference(
        seeds in 0usize..6,
        delays in prop::collection::vec(delay_strategy(), 4..48),
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        for backend in [SchedulerBackend::Heap, SchedulerBackend::Calendar] {
            check_against_reference(backend, seeds, &delays, &ops);
        }
    }

    /// Tentpole oracle: any random schedule/pop interleaving — including
    /// bucket-rotation, resize, all-same-timestamp and far-future-outlier
    /// shapes — drains in identical `(time, seq)` order on the calendar and
    /// heap backends.
    #[test]
    fn backends_drain_identically(ops in prop::collection::vec(op_strategy(), 1..250)) {
        let heap = interleave(SchedulerBackend::Heap, &ops);
        let calendar = interleave(SchedulerBackend::Calendar, &ops);
        prop_assert_eq!(heap.len(), calendar.len());
        prop_assert_eq!(heap, calendar);
    }

    /// Heavy same-instant bursts punctuated by far-future jumps: the
    /// calendar's zero-width-span resizes and direct-search laps must not
    /// disturb FIFO order.
    #[test]
    fn calendar_burst_and_outlier_storm_matches_heap(
        bursts in prop::collection::vec((0u64..4, 1usize..60), 1..20),
        outlier in 1_000_000_000u64..u64::MAX / 2,
    ) {
        let mut ops = Vec::new();
        for &(delay, burst) in &bursts {
            for _ in 0..burst {
                ops.push(QueueOp::Schedule(delay));
            }
            ops.push(QueueOp::Schedule(outlier));
            ops.push(QueueOp::Drain(burst as u64 / 2 + 1));
        }
        let heap = interleave(SchedulerBackend::Heap, &ops);
        let calendar = interleave(SchedulerBackend::Calendar, &ops);
        prop_assert_eq!(heap, calendar);
    }

    /// Events fire in non-decreasing time order no matter the insertion
    /// order, and equal-time events fire in insertion order.
    #[test]
    fn time_order_is_total(delays in prop::collection::vec(0u64..10_000, 1..100)) {
        let mut sim = Simulation::new(Recorder { fired: vec![] });
        for (i, &d) in delays.iter().enumerate() {
            sim.schedule(d, i as u64);
        }
        let n = sim.run();
        prop_assert_eq!(n as usize, delays.len());
        let fired = &sim.world().fired;
        for w in fired.windows(2) {
            prop_assert!(w[1].1 >= w[0].1, "time went backwards");
            if w[1].1 == w[0].1 {
                prop_assert!(w[1].0 > w[0].0, "FIFO violated for simultaneous events");
            }
        }
        // Every event fired exactly at its scheduled time.
        for &(id, at) in fired {
            prop_assert_eq!(at.micros(), delays[id as usize]);
        }
    }

    /// A FIFO resource conserves work: completions are spaced by at least
    /// the service times, and total busy time equals total service.
    #[test]
    fn resource_conserves_work(jobs in prop::collection::vec((0u64..1_000, 1u64..500), 1..60)) {
        let mut sorted = jobs.clone();
        sorted.sort_by_key(|&(at, _)| at);
        let mut r = Resource::new("srv", 1);
        let mut last_completion = SimTime::ZERO;
        for &(at, service) in &sorted {
            let out = r.serve(SimTime::from_micros(at), service);
            // Completions are ordered (FIFO) and never overlap.
            prop_assert!(out.completion >= last_completion);
            prop_assert!(out.start.micros() >= at);
            prop_assert_eq!(out.completion - out.start, service);
            last_completion = out.completion;
        }
        let total_service: u64 = sorted.iter().map(|&(_, s)| s).sum();
        prop_assert_eq!(r.stats().total_service, total_service);
        prop_assert_eq!(r.stats().jobs, sorted.len() as u64);
        // Makespan is at least the total work (single server).
        prop_assert!(last_completion.micros() >= total_service.min(last_completion.micros()));
    }

    /// Multi-server resources never give a worse completion than a single
    /// server for the same arrival sequence.
    #[test]
    fn more_servers_never_hurt(jobs in prop::collection::vec((0u64..500, 1u64..300), 1..40)) {
        let mut sorted = jobs.clone();
        sorted.sort_by_key(|&(at, _)| at);
        let run = |capacity: usize| {
            let mut r = Resource::new("srv", capacity);
            let mut makespan = SimTime::ZERO;
            for &(at, service) in &sorted {
                let out = r.serve(SimTime::from_micros(at), service);
                makespan = makespan.max(out.completion);
            }
            makespan
        };
        prop_assert!(run(2) <= run(1));
        prop_assert!(run(4) <= run(2));
    }
}
