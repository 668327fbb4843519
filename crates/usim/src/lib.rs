//! The User Simulator (USIM).
//!
//! "The USIM simulates workload on a terminal or workstation, i.e., a series
//! of users logging in and using the computer. […] Based on these
//! specifications, the USIM repeatedly randomly selects a file access
//! operation to be performed, the file on which to perform the operation,
//! the amount of this file to access, and the time delay to the next
//! operation." (Section 4.1.3)
//!
//! The specification mirrors the paper's inputs: the number of users, the
//! user types with their population fractions ([`PopulationSpec`]), and per
//! user type × file category the distributions of number of files accessed,
//! file size and size accessed per operation ([`CategoryUsage`]), plus think
//! time (Table 5.4). All distributions are compiled to CDF tables — the GDS
//! artifact — before simulation.
//!
//! Two drivers execute the generated operation stream:
//!
//! * [`DesDriver`] runs all users concurrently in **simulated time** against
//!   a [`ServiceModel`](uswg_netfs::ServiceModel), producing the response
//!   times of the paper's Chapter 5 experiments;
//! * [`DirectDriver`] runs sessions back-to-back against the
//!   [`Vfs`](uswg_vfs::Vfs) with no timing model, for usage-distribution
//!   studies (Figures 5.3–5.5) and throughput benchmarking.
//!
//! Both record a [`UsageLog`] — the paper's "usage log file".

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod compile;
mod des;
mod direct;
mod error;
mod faults;
mod log;
mod session;
mod shard;
mod sink;
mod spec;
mod spill;
mod stats;
mod temporal;

pub use compile::{BehaviorState, CompiledPopulation, CompiledUserType};
pub use des::{DesDriver, DesRunStats};
pub use direct::DirectDriver;
pub use error::UsimError;
pub use faults::{FaultSpec, RetryPolicy, PPM_SCALE};
pub use log::{OpRecord, SessionRecord, UsageLog};
pub use session::MAX_ACCESS_BYTES;
pub use shard::{
    merge_shard_logs, merge_spill_shards, shard_model_seed, ShardEnv, ShardPlan, ShardedDesDriver,
};
pub use sink::{ChannelSink, LogSink, OpKindSummary, SummarySink, UserTypeStream};
pub use spec::{AccessPattern, CategoryUsage, PopulationSpec, RunConfig, UserTypeSpec};
pub use spill::{
    read_spill, read_spill_path, FrameIndex, FrameIndexEntry, SpillCodec, SpillReader, SpillRecord,
    SpillSink, FRAME_CAP,
};
pub use stats::{Overflow, StreamingSummary, Summary, TotalsOverflow};
pub use temporal::{DiurnalProfile, PhaseModel, PhaseState};
pub use uswg_sim::SchedulerBackend;
