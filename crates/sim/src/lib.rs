//! Discrete-event simulation kernel.
//!
//! The paper's evaluation runs the workload generator against a real SUN NFS
//! installation (a SUN 3/50 client and a SUN 4/490 file server). A
//! reproduction cannot assume that hardware, so the `uswg` workspace replaces
//! the testbed with a queueing simulation: this crate supplies the kernel —
//! a virtual microsecond clock ([`SimTime`]), an event [`Scheduler`], the
//! [`World`] trait that event handlers implement, and FIFO queueing
//! [`Resource`]s with service statistics. The actual file-system timing
//! models (client CPU, network, server, disk) live in `uswg-netfs`.
//!
//! # Example
//!
//! A tiny world that schedules one event and counts it:
//!
//! ```
//! use uswg_sim::{Scheduler, SimTime, Simulation, World};
//!
//! struct Counter(u64);
//! impl World for Counter {
//!     type Event = ();
//!     fn handle(&mut self, _: (), _sched: &mut Scheduler<()>) {
//!         self.0 += 1;
//!     }
//! }
//!
//! let mut sim = Simulation::new(Counter(0));
//! sim.schedule(5, ());
//! sim.run();
//! assert_eq!(sim.world().0, 1);
//! assert_eq!(sim.now(), SimTime::from_micros(5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod calendar;
mod resource;
mod scheduler;
mod time;

pub use resource::{Resource, ResourceId, ResourcePool, ResourceStats, ServiceOutcome};
pub use scheduler::{Scheduler, SchedulerBackend, Simulation, World};
pub use time::SimTime;
