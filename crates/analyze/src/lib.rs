//! The Usage Analyzer.
//!
//! "There is also a program, Usage Analyzer, for users to analyze the
//! results and display them graphically." (Section 5.1) — this crate is that
//! program: it turns a record stream into the summary statistics,
//! histograms (with the paper's before/after smoothing views) and
//! per-system-call tables that Chapter 5 of the paper reports.
//!
//! * [`metrics`] — the per-system-call summaries, data-op aggregate,
//!   response per byte and per-user-type breakdown, all read off the one
//!   accumulator [`SummarySink`](uswg_usim::SummarySink) (fed by a live
//!   run, by [`scan`] from a spill file, or replayed from a
//!   [`UsageLog`](uswg_usim::UsageLog)), plus per-session usage series and
//!   per-category observations;
//! * [`scan`] — the pass over a spill capture, indexed or streamed;
//! * [`fit`] — the collector behind `uswg fit`;
//! * [`Summary`] — mean / standard deviation / extrema of a sample;
//! * [`Histogram`] — fixed-width bins plus moving-average [`Histogram::smoothed`];
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
pub use scan::{CountingReader, Coverage, Pass, ScanOptions};
pub use table::Table;
pub use uswg_usim::{StreamingSummary, Summary};
