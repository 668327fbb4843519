//! Where the pacer's operations come from.
//!
//! The driver used to demand the whole op vector up front, which tied the
//! length of a replay to resident memory. [`OpSource`] inverts that: the
//! pacer pulls one timestamped op at a time from a fallible stream, so a
//! soak run is bounded by the drive queue, never by the log. Three sources
//! cover the workspace's producers:
//!
//! * [`VecSource`] — the original materialized path (sorted on
//!   construction), kept so existing callers and tests are untouched;
//! * [`SpillSource`] — replays a `uswg run --spill` capture through
//!   [`SpillReader`] in ops-only mode (both codecs), one frame resident;
//! * [`ChannelSource`] — drains a bounded channel fed by a live DES run on
//!   a producer thread, with a `finish` hook to surface the producer's
//!   outcome once the channel closes.

use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::sync::mpsc::Receiver;
use uswg_usim::{OpRecord, SpillReader, SpillRecord};

/// Why an op source stopped yielding before its end of stream (an I/O
/// error in a spill capture, a failed DES producer). The driver drains
/// what was already offered and reports it alongside this message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceError(pub String);

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SourceError {}

impl From<std::io::Error> for SourceError {
    fn from(err: std::io::Error) -> Self {
        SourceError(err.to_string())
    }
}

/// A fallible stream of timestamped operations for the pacer.
///
/// Items arrive in whatever order the producer emits them; the pacer
/// sleeps until each op's scaled arrival and offers an already-late op
/// immediately, so a source need not guarantee nondecreasing timestamps
/// (a merged sharded log is ordered; a raw one may interleave).
pub trait OpSource {
    /// The next operation and its simulated arrival time in µs, `None` at
    /// a clean end of stream.
    ///
    /// # Errors
    ///
    /// Returns [`SourceError`] when the stream fails mid-run; the driver
    /// stops offering, drains the queue, and surfaces the partial report.
    fn next_op(&mut self) -> Result<Option<(u64, OpRecord)>, SourceError>;
}

/// The materialized adapter: owns a `Vec<OpRecord>`, sorted by arrival
/// time on construction.
#[derive(Debug)]
pub struct VecSource {
    ops: std::vec::IntoIter<OpRecord>,
}

impl VecSource {
    /// Wraps an owned op vector, sorting it by `at`.
    pub fn new(mut ops: Vec<OpRecord>) -> Self {
        ops.sort_by_key(|op| op.at);
        Self {
            ops: ops.into_iter(),
        }
    }
}

impl OpSource for VecSource {
    fn next_op(&mut self) -> Result<Option<(u64, OpRecord)>, SourceError> {
        Ok(self.ops.next().map(|op| (op.at, op)))
    }
}

/// Replays a spill capture without ever materializing the log: the
/// [`SpillReader`] keeps one frame resident and skips session payloads
/// structurally. Works for both codecs (raw v1 and compressed v2).
#[derive(Debug)]
pub struct SpillSource {
    reader: SpillReader<BufReader<File>>,
}

impl SpillSource {
    /// Opens a spill capture for ops-only streaming.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be opened or
    /// its magic is not a spill header.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self {
            reader: SpillReader::open(path)?.ops_only(),
        })
    }
}

impl OpSource for SpillSource {
    fn next_op(&mut self) -> Result<Option<(u64, OpRecord)>, SourceError> {
        loop {
            match self.reader.next() {
                None => return Ok(None),
                Some(Ok(SpillRecord::Op(op))) => return Ok(Some((op.at, op))),
                // ops_only skips sessions structurally; tolerate one anyway.
                Some(Ok(SpillRecord::Session(_))) => continue,
                Some(Err(err)) => return Err(SourceError(format!("spill source: {err}"))),
            }
        }
    }
}

/// A hook the channel source runs once its channel closes, to learn how
/// the producer ended (joined cleanly, failed, panicked).
pub type FinishFn = Box<dyn FnOnce() -> Result<(), SourceError> + Send>;

/// Drains ops from a bounded channel fed by a producer thread (a live DES
/// run through `ChannelSink`). The channel's capacity *is* the
/// backpressure: the producer blocks once the pacer falls that many ops
/// behind, so resident memory stays O(channel + queue) however long the
/// run. When the channel disconnects, the optional `finish` hook reports
/// whether the producer ended cleanly.
pub struct ChannelSource {
    rx: Receiver<OpRecord>,
    finish: Option<FinishFn>,
}

impl ChannelSource {
    /// Wraps a receiver whose sender just ends the stream when dropped.
    pub fn new(rx: Receiver<OpRecord>) -> Self {
        Self { rx, finish: None }
    }

    /// Installs a hook run once when the channel closes; an `Err` from it
    /// becomes the source error (so a failed producer fails the drive).
    #[must_use]
    pub fn on_finish(mut self, finish: FinishFn) -> Self {
        self.finish = Some(finish);
        self
    }
}

impl std::fmt::Debug for ChannelSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelSource")
            .field("finish", &self.finish.is_some())
            .finish_non_exhaustive()
    }
}

impl OpSource for ChannelSource {
    fn next_op(&mut self) -> Result<Option<(u64, OpRecord)>, SourceError> {
        match self.rx.recv() {
            Ok(op) => Ok(Some((op.at, op))),
            // Sender gone: a clean end of stream unless the finish hook
            // says the producer died.
            Err(_) => match self.finish.take() {
                Some(finish) => finish().map(|()| None),
                None => Ok(None),
            },
        }
    }
}
