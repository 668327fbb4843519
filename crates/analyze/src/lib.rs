//! The Usage Analyzer.
//!
//! "There is also a program, Usage Analyzer, for users to analyze the
//! results and display them graphically." (Section 5.1) — this crate is that
//! program: it turns a [`UsageLog`](uswg_usim::UsageLog) into the summary
//! statistics, histograms (with the paper's before/after smoothing views)
//! and per-system-call tables that Chapter 5 of the paper reports.
//!
//! * [`Summary`] — mean / standard deviation / extrema of a sample;
//! * [`Histogram`] — fixed-width bins plus moving-average [`Histogram::smoothed`];
//! * [`metrics`] — per-session usage series (access-per-byte, file size,
//!   files referenced) and per-syscall access-size/response summaries;
//! * [`Table`] — plain-text table rendering for experiment reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fit;
mod histogram;
pub mod metrics;
pub mod scan;
mod table;

pub use fit::{collect_fit, FitCollector, FitObservation, FitOutcome, Reservoir};
pub use histogram::Histogram;
pub use scan::{CountingReader, Coverage, Pass, ScanOptions, ScanOutcome};
pub use table::{Align, Table};
pub use uswg_usim::{StreamingSummary, Summary};
