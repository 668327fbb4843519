//! Property-based tests of the simulation kernel's ordering guarantees.

use proptest::prelude::*;
use uswg_sim::{Resource, Scheduler, SimTime, Simulation, World};

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

/// An event of the branching world: `depth` bounds the family tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    id: u64,
    depth: u8,
}

/// The follow-ups a handled event schedules, as delays: a pure function of
/// the event. Shared by the kernel-driven world and the reference, so the
/// two can differ only in the order they dispatch.
type Rule<'a> = &'a dyn Fn(Node) -> Vec<u64>;

/// A well-mixed hash of an event id, for rules that draw from it.
fn mix(id: u64) -> u64 {
    id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17
}

/// 0–3 follow-ups, drawn from `delays` (which holds zeros, ties and
/// `u64::MAX - 1`).
fn follow_ups(node: Node, delays: &[u64]) -> Vec<u64> {
    let h = mix(node.id);
    let count = if node.depth >= 4 { 0 } else { h % 4 };
    (0..count)
        .map(|k| delays[((h + k) % delays.len() as u64) as usize])
        .collect()
}

/// The branching world on the real kernel.
struct Branching<'a> {
    rule: Rule<'a>,
    next_id: u64,
    fired: Vec<(u64, SimTime)>,
}

impl World for Branching<'_> {
    type Event = Node;
    fn handle(&mut self, node: Node, sched: &mut Scheduler<Node>) {
        self.fired.push((node.id, sched.now()));
        for delay in (self.rule)(node) {
            let child = Node {
                id: self.next_id,
                depth: node.depth.saturating_add(1),
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
    fn step(&mut self, rule: Rule, deadline: u64) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        // A plain loop: the dense-day oracles scan 2,048 events 10⁵ times,
        // unoptimized.
        let mut i = 0;
        for (j, e) in self.pending.iter().enumerate() {
            let min = &self.pending[i];
            if e.0 < min.0 || e.0 == min.0 && e.1 < min.1 {
                i = j;
            }
        }
        if self.pending[i].0 > deadline {
            return false;
        }
        let (at, _, node) = self.pending.swap_remove(i);
        self.now = at;
        self.fired.push((node.id, SimTime::from_micros(at)));
        for delay in rule(node) {
            let child = Node {
                id: self.next_id,
                depth: node.depth.saturating_add(1),
            };
            self.next_id += 1;
            self.schedule(delay, child);
        }
        true
    }

    fn run(&mut self, rule: Rule, max_events: u64, deadline: u64) -> u64 {
        let mut steps = 0;
        while steps < max_events && self.step(rule, deadline) {
            steps += 1;
        }
        steps
    }
}

/// Drives the branching world through `ops` on the kernel and on the
/// reference in lockstep, comparing step counts, clock and population after
/// every slice and the full dispatch sequence at the end. `seeds` time-zero
/// events stream from the kernel's lazy seed block first.
fn check_against_reference(seeds: usize, rule: Rule, ops: &[QueueOp]) {
    let root = |id: u64| Node { id, depth: 0 };
    let world = Branching {
        rule,
        next_id: 1 << 32,
        fired: vec![],
    };
    let mut sim = Simulation::seeded(world, seeds, move |i| root(i as u64));
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
                let steps = reference.run(rule, count, u64::MAX);
                prop_assert_eq!(sim.run_steps(count), steps);
            }
            QueueOp::RunUntil(delta) => {
                let deadline = reference.now.saturating_add(delta);
                let steps = reference.run(rule, u64::MAX, deadline);
                prop_assert_eq!(sim.run_until(SimTime::from_micros(deadline)), steps);
            }
        }
        prop_assert_eq!(sim.now().micros(), reference.now);
        prop_assert_eq!(sim.pending(), reference.pending.len());
    }
    let steps = reference.run(rule, u64::MAX, u64::MAX);
    prop_assert_eq!(sim.run(), steps);
    prop_assert_eq!(sim.pending(), 0);
    prop_assert_eq!(&sim.world().fired, &reference.fired);
}

/// Event ids at which the hold rules below stop rescheduling: ~10⁵ events
/// past the seeds (dynamic ids start at 2³²), then the population drains.
const HOLD_LAST_ID: u64 = (1 << 32) + 100_000;

/// Runs a hold world — `entities` seed events, each handled event
/// rescheduling itself once at `delay(mix(id))` — against the reference,
/// sliced by `run_steps` and `run_until` along the way.
fn hold_against_reference(entities: usize, delay: fn(u64) -> u64) {
    let rule = |node: Node| {
        if node.id < HOLD_LAST_ID {
            vec![delay(mix(node.id))]
        } else {
            vec![]
        }
    };
    let ops: Vec<QueueOp> = (0..8)
        .flat_map(|i| [QueueOp::Drain(4_000), QueueOp::RunUntil(i * 3_000)])
        .collect();
    check_against_reference(entities, &rule, &ops);
}

/// `deep_nfs`'s queue: 64 users, one pending event each — zero-delay
/// hand-offs, 60–1,200 µs service stages and millisecond think times — so
/// newcomers land first, last and in between on days of a few events.
#[test]
fn hold_order_at_the_deep_nfs_shape() {
    hold_against_reference(64, |h| match h % 10 {
        0..=3 => 0,
        4..=7 => 60 + h / 10 % 1_141,
        _ => 1_000 + h / 10 % 50_000,
    });
}

/// 2,048 events within 200 µs: ~10 residents per µs-wide day, and a
/// newcomer (the largest `seq` at its time) is almost always its day's
/// latest — the appends a day sorts as one reversal.
#[test]
fn hold_order_at_a_dense_same_microsecond_shape() {
    hold_against_reference(2_048, |h| 1 + h % 200);
}

/// A sparse present and residents years ahead (up to the saturating
/// clock), hashed onto the same days: a day holds events of several years,
/// so its earliest event need not be in the current window.
#[test]
fn hold_order_with_far_future_residents() {
    hold_against_reference(96, |h| match h % 16 {
        0 => 1_000_000_000 + h % 1_000_000_000_000,
        1 if h % 7 == 0 => u64::MAX / 3,
        _ => 10 + h % 1_000,
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Handlers that schedule follow-ups (the only way an event meets a
    /// non-empty held slot mid-run), sliced by `run_steps` / `run_until`,
    /// against a reference that scans a `Vec` for the minimum.
    #[test]
    fn dispatch_order_matches_a_scanning_reference(
        seeds in 0usize..6,
        delays in prop::collection::vec(delay_strategy(), 4..48),
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        check_against_reference(seeds, &|node| follow_ups(node, &delays), &ops);
    }

    /// Any random schedule/pop interleaving — including bucket-rotation,
    /// resize, all-same-timestamp and far-future-outlier shapes — drains in
    /// the reference's `(time, seq)` order.
    #[test]
    fn backends_drain_identically(ops in prop::collection::vec(op_strategy(), 1..250)) {
        check_against_reference(0, &|_| vec![], &ops);
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
        check_against_reference(0, &|_| vec![], &ops);
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
