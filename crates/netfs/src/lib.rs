//! File-system timing models.
//!
//! The paper measures SUN NFS on real hardware: a SUN 3/50 client with the
//! files on a SUN 4/490 server (Section 5.1). This crate replaces that
//! testbed with queueing models built on the `uswg-sim` kernel. Each model
//! maps one file-access system call to a chain of [`Stage`]s — fixed
//! latencies and FIFO [`Resource`](uswg_sim::Resource) services — which the
//! User Simulator walks event by event, so concurrent users contend for the
//! network, the server CPU and the disk exactly as they would on the wire.
//!
//! Three models are provided, matching the comparison study the paper
//! sketches in Section 5.3:
//!
//! * [`LocalDiskModel`] — all I/O served by a local disk;
//! * [`NfsModel`] — an NFS-like remote file system: client CPU, shared
//!   (half-duplex) network, server CPU, server disk, with an optional
//!   client block cache;
//! * [`WholeFileCacheModel`] — an AFS-like design that fetches whole files
//!   on open and writes them back on close.
//!
//! Absolute latencies are parameters ([`NfsParams`], …); defaults are tuned
//! so single-user response times land in the paper's microsecond range, but
//! every experiment in `uswg-bench` reports *shapes* (who wins, slopes,
//! crossovers), not absolute agreement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod afs;
mod distributed;
mod local;
mod lru;
mod nfs;
mod op;
mod stage;

pub use afs::{WholeFileCacheModel, WholeFileCacheParams};
pub use distributed::{DistributedNfsModel, DistributedNfsParams};
pub use local::{LocalDiskModel, LocalDiskParams};
pub use nfs::{NfsModel, NfsParams};
pub use op::{FileId, OpKind, OpRequest, UserId};
pub use stage::{PendingOp, Stage, StepOutcome};

use rand::RngCore;
use uswg_sim::ResourcePool;

/// A file-system timing model: maps one system call to its service stages.
///
/// Implementations may keep state (caches) and may randomize service times.
/// Resources are registered in a shared [`ResourcePool`] at construction; the
/// returned stages reference them by id so that all users of the pool contend.
pub trait ServiceModel: std::fmt::Debug + Send {
    /// A short human-readable name for reports (e.g. `"nfs"`).
    fn name(&self) -> &str;

    /// Produces the stage chain for one operation.
    fn stages(&mut self, req: &OpRequest, rng: &mut dyn RngCore) -> Vec<Stage>;

    /// Called when a file is removed, so caches can drop entries.
    fn invalidate(&mut self, _file: FileId) {}
}

/// Convenience: runs a single operation to completion against the pool with
/// no competing traffic and returns its response time in microseconds.
///
/// Useful for calibration and tests; real experiments interleave many users
/// through the event loop instead.
pub fn isolated_response(
    model: &mut dyn ServiceModel,
    pool: &mut ResourcePool,
    req: &OpRequest,
    rng: &mut dyn RngCore,
    start: uswg_sim::SimTime,
) -> u64 {
    let mut pending = PendingOp::new(model.stages(req, rng));
    let mut now = start;
    loop {
        match pending.advance(pool, now) {
            StepOutcome::NextAt(t) => now = t,
            StepOutcome::Done => return now - start,
        }
    }
}
