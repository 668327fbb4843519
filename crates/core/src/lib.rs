//! # uswg — a user-oriented synthetic workload generator
//!
//! A Rust reproduction of *"A User-Oriented Synthetic Workload Generator"*
//! (Wei-lun Kao, UIUC CRHC-91-19; ICDCS 1992): a workload generator that
//! simulates typed users accessing files at the system-call level, driven by
//! arbitrary distributions of the usage measures.
//!
//! The workspace follows the paper's architecture:
//!
//! * **GDS** (`uswg-distr`) — distribution specification, fitting and CDF
//!   tables ([`DistributionSpec`], [`PhaseTypeExp`], [`MultiStageGamma`]);
//! * **FSC** (`uswg-fsc`) — creation of the initial synthetic file system
//!   ([`FscSpec`], [`uswg_fsc::FileSystemCreator`]);
//! * **USIM** (`uswg-usim`) — simulation of login sessions issuing file I/O
//!   ([`PopulationSpec`], [`DesDriver`]; the zero-stage model runs it as a
//!   pure usage study, the queueing models measure response times);
//! * substrates the paper ran on real hardware: an in-memory UNIX-like file
//!   system (`uswg-vfs`) and queueing models of NFS-like installations
//!   (`uswg-netfs`) on a discrete-event kernel (`uswg-sim`).
//!
//! This crate ties them together: [`WorkloadSpec`] is the one-document
//! description of a whole workload (serde/JSON round-trippable),
//! [`presets`] holds the paper's Tables 5.1, 5.2 and 5.4, and
//! [`experiment`] re-runs the Chapter 5 studies (user sweeps, population
//! mixes, access-size sweeps).
//!
//! # Quickstart
//!
//! ```
//! use uswg_core::{experiment::ModelConfig, UsageLog, WorkloadSpec};
//!
//! # fn main() -> Result<(), uswg_core::CoreError> {
//! // The paper's workload: Table 5.1 file system, Table 5.2 heavy users.
//! let mut spec = WorkloadSpec::paper_default()?;
//! spec.run.sessions_per_user = 2; // keep the doctest quick
//! let (log, stats) = spec.run_des(&ModelConfig::default_nfs(), UsageLog::new())?;
//! assert!(!log.sessions().is_empty());
//! assert_eq!(stats.model, "nfs");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiment;
pub mod presets;

mod error;
mod synth;
mod workload;

pub use error::CoreError;
pub use synth::{synthesize_spec, MeasureFit, SynthesisOptions, SynthesizedSpec};
pub use workload::WorkloadSpec;

// Re-export the workspace surface so downstream users need one dependency.
// (`uswg_analyze::fit` items are re-exported individually — the module name
// `fit` is taken by the `uswg_distr::fit` re-export below.)
pub use uswg_analyze::{
    collect_fit, metrics, scan, FitCollector, FitObservation, FitOutcome, Histogram, ScanOptions,
    Summary, Table,
};
pub use uswg_distr::{
    fit, gof, plot, spec::DistributionSpec, CdfTable, DistrError, Distribution, Exponential,
    MultiStageGamma, PhaseTypeExp,
};
pub use uswg_fsc::{
    CatalogFile, CategorySpec, FileCatalog, FileCategory, FillPattern, FscError, FscSpec, Owner,
    UsageClass,
};
pub use uswg_netfs::{
    FileId, NfsParams, OpKind, OpRequest, ServiceModel, Stage, WholeFileCacheParams,
};
pub use uswg_sim::{
    Resource, ResourcePool, ResourceStats, Scheduler, SchedulerBackend, SimTime, Simulation, World,
};
pub use uswg_usim::{
    read_spill, read_spill_path, write_spill_json, AccessPattern, CategoryUsage, ChannelSink,
    CompiledPopulation, DesDriver, DesRunStats, DirectDriver, DiurnalProfile, FaultSpec,
    FrameIndex, LogSink, OpRecord, PhaseModel, PopulationSpec, RetryPolicy, RunConfig,
    SessionRecord, SpillCodec, SpillReader, SpillRecord, SpillSink, SummarySink, UsageLog,
    UserTypeSpec, UsimError,
};
pub use uswg_vfs::{Fd, FsError, Metadata, OpenFlags, SeekFrom, Vfs, VfsConfig};
