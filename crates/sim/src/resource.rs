//! FIFO queueing resources.
//!
//! A [`Resource`] models a service station (a CPU, a network link, a disk
//! arm, an NFS server daemon) with one or more servers and an implicit FIFO
//! queue. Because the simulation delivers arrival events in global time
//! order, the earliest-free-server rule implemented here is an exact FIFO
//! queue without materializing a queue data structure.

use crate::SimTime;
use serde::{Deserialize, Serialize};

/// Identifier of a resource within a [`ResourcePool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ResourceId(usize);

impl ResourceId {
    /// The raw pool index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// What happened when a job was offered to a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceOutcome {
    /// When service began (arrival time plus queueing delay).
    pub start: SimTime,
    /// When service completes.
    pub completion: SimTime,
    /// Microseconds spent waiting in the queue.
    pub waited: u64,
}

/// Cumulative statistics of one resource.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceStats {
    /// Jobs served (including any still in service).
    pub jobs: u64,
    /// Total service time dispensed, in microseconds.
    pub total_service: u64,
    /// Total time jobs spent queued, in microseconds.
    pub total_wait: u64,
    /// Largest single queueing delay observed, in microseconds.
    pub max_wait: u64,
    /// Parallel servers of the resource.
    pub capacity: usize,
}

impl ResourceStats {
    /// Mean queueing delay per job, in microseconds.
    pub fn mean_wait(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.total_wait as f64 / self.jobs as f64
        }
    }

    /// Fraction of `elapsed` the servers spent busy (per-server average).
    ///
    /// Work-conserving FIFO means busy time equals dispensed service time.
    pub fn utilization(&self, elapsed: SimTime) -> f64 {
        let span = elapsed.micros() as f64 * self.capacity.max(1) as f64;
        if span <= 0.0 {
            0.0
        } else {
            (self.total_service as f64 / span).min(1.0)
        }
    }
}

/// A FIFO service station with fixed capacity.
#[derive(Debug, Clone)]
pub struct Resource {
    name: String,
    /// Completion time of the job currently holding each server.
    free_at: Vec<SimTime>,
    stats: ResourceStats,
}

impl Resource {
    /// Creates a resource with `capacity` parallel servers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "resource capacity must be positive");
        Self {
            name: name.into(),
            free_at: vec![SimTime::ZERO; capacity],
            stats: ResourceStats {
                capacity,
                ..ResourceStats::default()
            },
        }
    }

    /// The resource name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of parallel servers.
    pub fn capacity(&self) -> usize {
        self.free_at.len()
    }

    /// Offers a job arriving `now` needing `service_micros` of service.
    ///
    /// The job enters the FIFO queue, waits until the earliest server frees,
    /// is served, and the outcome (start, completion, wait) is returned.
    /// Arrivals must be offered in non-decreasing time order — the discrete-
    /// event loop guarantees this naturally.
    pub fn serve(&mut self, now: SimTime, service_micros: u64) -> ServiceOutcome {
        // Earliest-free server.
        let (idx, &free) = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .expect("capacity > 0");
        let start = now.max(free);
        let completion = start.saturating_add(service_micros);
        self.free_at[idx] = completion;
        let waited = start.saturating_since(now);
        self.stats.jobs += 1;
        self.stats.total_service += service_micros;
        self.stats.total_wait += waited;
        self.stats.max_wait = self.stats.max_wait.max(waited);
        ServiceOutcome {
            start,
            completion,
            waited,
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> ResourceStats {
        self.stats
    }
}

/// A collection of resources addressed by [`ResourceId`].
///
/// Timing models hold ids rather than references, so one pool can be owned
/// by the simulation world while models stay `'static`.
#[derive(Debug, Clone, Default)]
pub struct ResourcePool {
    resources: Vec<Resource>,
}

impl ResourcePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a resource and returns its id.
    pub fn add(&mut self, resource: Resource) -> ResourceId {
        self.resources.push(resource);
        ResourceId(self.resources.len() - 1)
    }

    /// Shared access to a resource.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this pool.
    pub fn get(&self, id: ResourceId) -> &Resource {
        &self.resources[id.0]
    }

    /// Exclusive access to a resource.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this pool.
    pub fn get_mut(&mut self, id: ResourceId) -> &mut Resource {
        &mut self.resources[id.0]
    }

    /// Iterates over `(id, resource)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceId, &Resource)> {
        self.resources
            .iter()
            .enumerate()
            .map(|(i, r)| (ResourceId(i), r))
    }

    /// Number of resources in the pool.
    pub fn len(&self) -> usize {
        self.resources.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.resources.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Resource::new("cpu", 0);
    }

    #[test]
    fn idle_server_starts_immediately() {
        let mut r = Resource::new("disk", 1);
        let out = r.serve(SimTime::from_micros(100), 50);
        assert_eq!(out.start, SimTime::from_micros(100));
        assert_eq!(out.completion, SimTime::from_micros(150));
        assert_eq!(out.waited, 0);
    }

    #[test]
    fn busy_server_queues_fifo() {
        let mut r = Resource::new("disk", 1);
        let a = r.serve(SimTime::from_micros(0), 100);
        let b = r.serve(SimTime::from_micros(10), 100);
        let c = r.serve(SimTime::from_micros(20), 100);
        assert_eq!(a.completion, SimTime::from_micros(100));
        assert_eq!(b.start, SimTime::from_micros(100));
        assert_eq!(b.waited, 90);
        assert_eq!(c.start, SimTime::from_micros(200));
        assert_eq!(c.waited, 180);
    }

    #[test]
    fn multi_server_parallelism() {
        let mut r = Resource::new("nfsd", 2);
        let a = r.serve(SimTime::ZERO, 100);
        let b = r.serve(SimTime::ZERO, 100);
        let c = r.serve(SimTime::ZERO, 100);
        assert_eq!(a.waited, 0);
        assert_eq!(b.waited, 0);
        assert_eq!(c.start, SimTime::from_micros(100));
    }

    #[test]
    fn stats_accumulate() {
        let mut r = Resource::new("net", 1);
        r.serve(SimTime::ZERO, 10);
        r.serve(SimTime::ZERO, 30);
        let s = r.stats();
        assert_eq!(s.jobs, 2);
        assert_eq!(s.total_service, 40);
        assert_eq!(s.total_wait, 10);
        assert_eq!(s.max_wait, 10);
        assert!((s.mean_wait() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_bounded() {
        let mut r = Resource::new("cpu", 1);
        r.serve(SimTime::ZERO, 500);
        let u = r.stats().utilization(SimTime::from_micros(1_000));
        assert!((u - 0.5).abs() < 1e-12);
        assert_eq!(r.stats().utilization(SimTime::ZERO), 0.0);
        let mut pair = Resource::new("cpus", 2);
        pair.serve(SimTime::ZERO, 500);
        let u = pair.stats().utilization(SimTime::from_micros(1_000));
        assert!((u - 0.25).abs() < 1e-12, "half of one of two servers");
    }

    #[test]
    fn pool_addressing() {
        let mut pool = ResourcePool::new();
        assert!(pool.is_empty());
        let cpu = pool.add(Resource::new("cpu", 1));
        let disk = pool.add(Resource::new("disk", 1));
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.get(cpu).name(), "cpu");
        pool.get_mut(disk).serve(SimTime::ZERO, 5);
        assert_eq!(pool.get(disk).stats().jobs, 1);
        let names: Vec<&str> = pool.iter().map(|(_, r)| r.name()).collect();
        assert_eq!(names, vec!["cpu", "disk"]);
    }
}
