//! [`SpillSink`]: buffers records a frame at a time, hands each full buffer
//! to [`write_frame`] and seals the stream with the end marker and the
//! index footer.

use super::frame::{write_frame, Row, FRAME_CAP, MAGIC_V2, TAG_END};
use super::index::{write_index_footer, FrameIndexEntry};
use crate::log::{OpRecord, SessionRecord};
use crate::sink::LogSink;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// A [`LogSink`] that streams records to a binary columnar file instead of
/// holding them in memory, in the v2 format (see the module documentation).
///
/// I/O failures are deferred: the `LogSink` methods are infallible by
/// signature, so the first error is stored and surfaced by
/// [`SpillSink::finish`] (recording becomes a no-op in between).
#[derive(Debug)]
pub struct SpillSink<W: Write> {
    out: W,
    frame_cap: usize,
    ops: Vec<OpRecord>,
    sessions: Vec<SessionRecord>,
    /// Ops recorded over the sink's whole life (buffered + flushed), for
    /// the end-of-stream marker.
    ops_total: u64,
    /// Sessions recorded over the sink's whole life.
    sessions_total: u64,
    /// Byte offset the next frame will land at (the frame writer reports
    /// its exact size), feeding the index entries.
    pos: u64,
    /// Per-frame index entries for the footer; `None` once
    /// [`SpillSink::without_index`] disabled it.
    index: Option<Vec<FrameIndexEntry>>,
    error: Option<io::Error>,
}

impl SpillSink<BufWriter<File>> {
    /// Creates (truncating) `path` and returns a sink spilling into it.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created or
    /// the header written.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Self::new(BufWriter::new(File::create(path)?))
    }
}

impl<W: Write> SpillSink<W> {
    /// Wraps a writer, emitting the format header immediately.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the header write fails.
    pub fn new(out: W) -> io::Result<Self> {
        Self::with_options(out, FRAME_CAP)
    }

    /// Wraps a writer with an explicit frame capacity (clamped to
    /// `1..=FRAME_CAP`). Smaller frames trade compression ratio for less
    /// buffered memory; tests use tiny frames to cross many boundaries
    /// cheaply.
    ///
    /// # Errors
    ///
    /// As for [`SpillSink::new`].
    pub fn with_options(mut out: W, frame_cap: usize) -> io::Result<Self> {
        out.write_all(MAGIC_V2)?;
        let frame_cap = frame_cap.clamp(1, FRAME_CAP);
        Ok(Self {
            out,
            frame_cap,
            ops: Vec::with_capacity(frame_cap),
            sessions: Vec::with_capacity(frame_cap),
            ops_total: 0,
            sessions_total: 0,
            pos: 8, // the magic
            index: Some(Vec::new()),
            error: None,
        })
    }

    /// Disables the frame-index footer: [`SpillSink::finish`] seals the
    /// stream with the end marker alone, reproducing the pre-index byte
    /// layout exactly. The file stays fully readable — it just streams
    /// instead of seeking under `uswg analyze`.
    pub fn without_index(mut self) -> Self {
        self.index = None;
        self
    }

    /// Flushes buffered frames, seals the stream with the end-of-stream
    /// marker (followed by the index footer unless
    /// [`SpillSink::without_index`] disabled it) and flushes the writer,
    /// returning it. A spill file without the marker (the sink was dropped
    /// instead — a crashed run) is rejected by
    /// [`read_spill`](super::read_spill) as truncated.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error encountered at any point of the sink's
    /// life (including deferred mid-run failures).
    pub fn finish(mut self) -> io::Result<W> {
        let rows = std::mem::take(&mut self.ops);
        self.ops = self.flush(rows);
        let rows = std::mem::take(&mut self.sessions);
        self.sessions = self.flush(rows);
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.write_all(&[TAG_END])?;
        self.out.write_all(&self.ops_total.to_le_bytes())?;
        self.out.write_all(&self.sessions_total.to_le_bytes())?;
        if let Some(entries) = self.index.take() {
            write_index_footer(&mut self.out, &entries)?;
        }
        self.out.flush()?;
        Ok(self.out)
    }

    /// Writes the buffered `rows` as one frame — nothing when there are
    /// none, or once a write has failed — and notes it in the index. Hands
    /// the emptied buffer back for reuse.
    fn flush<T: Row>(&mut self, mut rows: Vec<T>) -> Vec<T> {
        if !rows.is_empty() && self.error.is_none() {
            match write_frame(&mut self.out, &rows) {
                Ok((tag, written)) => {
                    if let Some(index) = &mut self.index {
                        let (min_time, max_time) = rows
                            .iter()
                            .map(Row::time)
                            .fold((u64::MAX, 0), |(lo, hi), t| (lo.min(t), hi.max(t)));
                        index.push(FrameIndexEntry {
                            offset: self.pos,
                            tag,
                            records: rows.len() as u32, // frame_cap ≤ FRAME_CAP ≪ u32::MAX
                            min_time,
                            max_time,
                        });
                    }
                    self.pos += written;
                }
                Err(e) => self.error = Some(e),
            }
        }
        rows.clear();
        rows
    }
}

impl<W: Write> LogSink for SpillSink<W> {
    fn record_op(&mut self, op: &OpRecord) {
        self.ops_total += 1;
        self.ops.push(*op);
        if self.ops.len() >= self.frame_cap {
            let rows = std::mem::take(&mut self.ops);
            self.ops = self.flush(rows);
        }
    }

    fn record_session(&mut self, session: &SessionRecord) {
        self.sessions_total += 1;
        self.sessions.push(*session);
        if self.sessions.len() >= self.frame_cap {
            let rows = std::mem::take(&mut self.sessions);
            self.sessions = self.flush(rows);
        }
    }
}
