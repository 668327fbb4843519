//! Stage chains: how one operation's latency is assembled from fixed delays
//! and contended services.

use uswg_sim::{ResourceId, ResourcePool, SimTime};

/// One step in an operation's service path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// A fixed latency with no contention (e.g. wire propagation).
    Delay(u64),
    /// FIFO service at a shared resource.
    Service {
        /// The contended resource.
        resource: ResourceId,
        /// Service demand in microseconds.
        micros: u64,
    },
}

/// Result of advancing a pending operation by one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The operation continues; re-advance at this time.
    NextAt(SimTime),
    /// All stages finished.
    Done,
}

/// An operation in flight: its stage chain and how far along it is.
///
/// The driver advances it one stage at a time, always *at the simulated time
/// the stage actually begins*, so resource arrivals happen in global time
/// order and FIFO queueing is exact.
///
/// The chain is the `Vec` the timing model returned, walked by a cursor; a
/// delay in front of it (a latency spike, a retry backoff) is a field, so
/// putting an operation in flight allocates nothing and moves no stage.
#[derive(Debug, Clone)]
pub struct PendingOp {
    lead: Option<u64>,
    stages: Vec<Stage>,
    next: usize,
}

impl PendingOp {
    /// Wraps a stage chain produced by a timing model.
    pub fn new(stages: Vec<Stage>) -> Self {
        Self::behind(None, stages)
    }

    /// Like [`PendingOp::new`], with `lead` µs of uncontended delay ahead of
    /// the chain when it is `Some`: one more stage, equal to a leading
    /// [`Stage::Delay`].
    pub fn behind(lead: Option<u64>, stages: Vec<Stage>) -> Self {
        Self {
            lead,
            stages,
            next: 0,
        }
    }

    /// Number of stages still to run.
    pub fn remaining(&self) -> usize {
        usize::from(self.lead.is_some()) + self.stages.len() - self.next
    }

    /// Executes the next stage at time `now`.
    ///
    /// For a [`Stage::Delay`] the next advance time is `now + delay`; for a
    /// [`Stage::Service`] the job is offered to the resource (queueing there
    /// if busy) and the next advance time is its service completion.
    pub fn advance(&mut self, pool: &mut ResourcePool, now: SimTime) -> StepOutcome {
        if let Some(micros) = self.lead.take() {
            return StepOutcome::NextAt(now.saturating_add(micros));
        }
        let Some(&stage) = self.stages.get(self.next) else {
            return StepOutcome::Done;
        };
        self.next += 1;
        match stage {
            Stage::Delay(micros) => StepOutcome::NextAt(now.saturating_add(micros)),
            Stage::Service { resource, micros } => {
                let outcome = pool.get_mut(resource).serve(now, micros);
                StepOutcome::NextAt(outcome.completion)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uswg_sim::Resource;

    #[test]
    fn delay_only_chain_sums() {
        let mut pool = ResourcePool::new();
        let mut op = PendingOp::new(vec![Stage::Delay(10), Stage::Delay(20)]);
        assert_eq!(op.remaining(), 2);
        let t1 = match op.advance(&mut pool, SimTime::ZERO) {
            StepOutcome::NextAt(t) => t,
            StepOutcome::Done => panic!("not done"),
        };
        assert_eq!(t1, SimTime::from_micros(10));
        let t2 = match op.advance(&mut pool, t1) {
            StepOutcome::NextAt(t) => t,
            StepOutcome::Done => panic!("not done"),
        };
        assert_eq!(t2, SimTime::from_micros(30));
        assert_eq!(op.advance(&mut pool, t2), StepOutcome::Done);
    }

    #[test]
    fn service_stage_queues() {
        let mut pool = ResourcePool::new();
        let disk = pool.add(Resource::new("disk", 1));
        let mut a = PendingOp::new(vec![Stage::Service {
            resource: disk,
            micros: 100,
        }]);
        let mut b = PendingOp::new(vec![Stage::Service {
            resource: disk,
            micros: 100,
        }]);
        let ta = a.advance(&mut pool, SimTime::ZERO);
        let tb = b.advance(&mut pool, SimTime::from_micros(10));
        assert_eq!(ta, StepOutcome::NextAt(SimTime::from_micros(100)));
        // b queues behind a.
        assert_eq!(tb, StepOutcome::NextAt(SimTime::from_micros(200)));
    }

    /// Walks `op` alone from `start` µs; returns each stage's completion
    /// time.
    fn walk(op: &mut PendingOp, pool: &mut ResourcePool, start: u64) -> Vec<u64> {
        let (mut now, mut times) = (SimTime::from_micros(start), Vec::new());
        while let StepOutcome::NextAt(t) = op.advance(pool, now) {
            times.push(t.micros());
            now = t;
        }
        times
    }

    #[test]
    fn cursor_walks_the_chain_once_and_stays_done() {
        let mut pool = ResourcePool::new();
        let disk = pool.add(Resource::new("disk", 1));
        let mut op = PendingOp::new(vec![
            Stage::Delay(5),
            Stage::Service {
                resource: disk,
                micros: 40,
            },
            Stage::Delay(0),
        ]);
        assert_eq!(op.remaining(), 3);
        assert_eq!(walk(&mut op, &mut pool, 0), vec![5, 45, 45]);
        assert_eq!(op.remaining(), 0);
        assert_eq!(op.advance(&mut pool, SimTime::ZERO), StepOutcome::Done);
        assert_eq!(pool.get_mut(disk).stats().jobs, 1);
    }

    #[test]
    fn a_leading_delay_is_one_more_stage_ahead_of_the_chain() {
        let chain = || vec![Stage::Delay(10), Stage::Delay(20)];
        let mut pool = ResourcePool::new();
        // A spike in front: the same times as a chain with the delay
        // inserted as its first stage.
        let mut spiked = PendingOp::behind(Some(700), chain());
        let mut inserted =
            PendingOp::new(vec![Stage::Delay(700), Stage::Delay(10), Stage::Delay(20)]);
        assert_eq!(spiked.remaining(), 3);
        assert_eq!(walk(&mut spiked, &mut pool, 0), vec![700, 710, 730]);
        assert_eq!(walk(&mut inserted, &mut pool, 0), vec![700, 710, 730]);
        // A zero-length spike still takes its step (the event count of a
        // run depends on it); no spike takes none.
        assert_eq!(PendingOp::behind(Some(0), chain()).remaining(), 3);
        assert_eq!(PendingOp::behind(None, chain()).remaining(), 2);
        assert_eq!(
            walk(&mut PendingOp::behind(Some(0), chain()), &mut pool, 0),
            vec![0, 10, 30]
        );
    }

    #[test]
    fn a_retry_walks_a_fresh_chain_behind_its_backoff() {
        // What the driver does when an attempt fails: the model is asked for
        // the chain again and the operation re-enters behind a backoff,
        // queueing at the resources a second time.
        let mut pool = ResourcePool::new();
        let disk = pool.add(Resource::new("disk", 1));
        let chain = || {
            vec![Stage::Service {
                resource: disk,
                micros: 100,
            }]
        };
        let mut first = PendingOp::behind(Some(30), chain());
        assert_eq!(walk(&mut first, &mut pool, 0), vec![30, 130]);
        let mut retry = PendingOp::behind(Some(1_000), chain());
        assert_eq!(walk(&mut retry, &mut pool, 130), vec![1_130, 1_230]);
        assert_eq!(pool.get_mut(disk).stats().jobs, 2);
    }

    #[test]
    fn empty_chain_is_done_immediately() {
        let mut pool = ResourcePool::new();
        let mut op = PendingOp::new(vec![]);
        assert_eq!(op.advance(&mut pool, SimTime::ZERO), StepOutcome::Done);
    }
}
