//! Spill scans: the one pass over a capture behind both `uswg analyze`
//! and `uswg fit`, and the one place that decides whether it seeks through
//! the index footer or streams every frame.
//!
//! [`visit_path`] hands every selected record to a visitor, in file order,
//! on the calling thread; [`scan_path`] is that pass folded into a
//! [`SummarySink`]. When the options select frames and the file carries a
//! [`FrameIndex`], only the frames whose completion-time range overlaps the
//! window are decoded (optionally thinned to every k-th) — O(window), not
//! O(file) — through [`visit_indexed`]; otherwise every frame streams
//! through the same record-level filter.

use std::fs::File;
use std::io::{self, BufReader, Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use uswg_usim::{
    FrameIndex, FrameIndexEntry, LogSink, SpillCodec, SpillReader, SpillRecord, SummarySink,
};

/// Which records a pass over a capture keeps.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanOptions {
    /// Keep records completing at or after this time, µs.
    pub since: Option<u64>,
    /// Keep records completing at or before this time, µs.
    pub until: Option<u64>,
    /// Decode only every k-th of the selected frames (`None` or `Some(1)`
    /// decodes them all) — a cheap estimate over a huge capture.
    pub sample: Option<u64>,
}

impl ScanOptions {
    /// Whether the options can drop records — the only way a pass over a
    /// non-empty capture can come back empty, and the only reason a pass
    /// uses the index footer: a plain full pass streams, footer or not.
    pub fn filters(&self) -> bool {
        self.since.is_some() || self.until.is_some() || self.sample.is_some()
    }

    /// Whether a decoded record falls inside the `[since, until]` window.
    /// Frames are selected by their index *range*, so a frame straddling a
    /// window edge still carries out-of-window records; this is the
    /// record-level filter applied after decoding. Ops filter on their
    /// completion time `at`, sessions on `end` — the same times the index
    /// entries aggregate.
    pub fn record_in_window(&self, record: &SpillRecord) -> bool {
        let t = match record {
            SpillRecord::Op(op) => op.at,
            SpillRecord::Session(s) => s.end,
        };
        self.since.is_none_or(|s| t >= s) && self.until.is_none_or(|u| t <= u)
    }
}

/// The frames of `index` overlapping the window, thinned to every k-th
/// when sampling — the selection every indexed pass decodes.
fn select_frames(index: &FrameIndex, opts: &ScanOptions) -> Vec<(usize, FrameIndexEntry)> {
    let selected: Vec<(usize, FrameIndexEntry)> = index
        .entries()
        .iter()
        .enumerate()
        .filter(|(_, e)| e.overlaps(opts.since, opts.until))
        .map(|(i, e)| (i, *e))
        .collect();
    match opts.sample {
        Some(k) if k > 1 => selected.into_iter().step_by(k as usize).collect(),
        _ => selected,
    }
}

/// How much of the file a path-level pass decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coverage {
    /// Streamed every frame: the options filter nothing.
    Full,
    /// Streamed every frame through the record filter: the options wanted
    /// the index but the file carries no usable footer.
    Filtered,
    /// Seeked via the index footer and decoded only the selected frames.
    Indexed {
        /// Frames decoded (selected by window, thinned by sampling).
        decoded: usize,
        /// Frames in the file, per the index.
        total: usize,
    },
}

/// How a path-level pass went: what the file is, how much of it was
/// decoded, and whether it ended early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pass {
    /// The codec the file was written with.
    pub codec: SpillCodec,
    /// Which frames the pass decoded.
    pub coverage: Coverage,
    /// The file ended before its format said it should and `salvage`
    /// accepted that: the pass covers the intact prefix only.
    pub truncated: bool,
    /// The end marker validated, so every *record* was seen even if the
    /// pass is `truncated` — the cut fell inside the index footer and the
    /// totals are exact, not a lower bound.
    pub stream_complete: bool,
}

/// A spill reader over a buffered file, as [`SpillReader::open`] returns.
pub type FileReader = SpillReader<BufReader<File>>;

/// The Usage Analyzer pass over the capture at `path`: [`visit_path`]
/// folding every selected record into a [`SummarySink`] — no `UsageLog`,
/// no O(run length) memory, any file the format can hold.
///
/// # Errors
///
/// Propagates open and decode errors; see [`visit_path`] for what
/// `salvage` accepts. A capture whose byte or µs totals pass `u64::MAX`
/// is refused with an `InvalidData` error wrapping
/// [`TotalsOverflow`](uswg_usim::TotalsOverflow).
pub fn scan_path<P: AsRef<Path>>(
    path: P,
    opts: &ScanOptions,
    salvage: bool,
) -> io::Result<(SummarySink, Pass)> {
    let mut stats = SummarySink::new();
    let pass = visit_path(
        path,
        opts,
        salvage,
        |reader| reader,
        |record| match record {
            SpillRecord::Op(op) => stats.record_op(op),
            SpillRecord::Session(s) => stats.record_session(s),
        },
    )?;
    stats.check_totals()?;
    Ok((stats, pass))
}

/// Passes every selected record of the capture at `path` to `visit`, in
/// file order: through the index footer when [`ScanOptions::filters`] and
/// the file has one ([`visit_indexed`]), else streamed frame by frame.
/// A present-but-malformed footer fails closed (the trailer promised an
/// index that lied); an absent or truncated one streams. `adapt` restricts
/// each reader the pass opens (`SpillReader::ops_only`, `sessions_only`,
/// or the identity).
///
/// With `salvage`, a *truncated* file ends the pass early instead of
/// failing it ([`Pass::truncated`]): every record already visited came
/// from an intact (v2: checksummed) frame, so the prefix is trustworthy.
/// Corruption (`InvalidData`) means a frame lied and fails closed either
/// way — and that includes garbage after a valid end marker.
///
/// # Errors
///
/// Propagates open and decode errors. An index that disagrees with the
/// file (a seek landing mid-frame, a frame ending early) surfaces as the
/// decode error the misaligned read produces.
pub fn visit_path<P, A, V>(
    path: P,
    opts: &ScanOptions,
    salvage: bool,
    adapt: A,
    visit: V,
) -> io::Result<Pass>
where
    P: AsRef<Path>,
    A: Fn(FileReader) -> FileReader,
    V: FnMut(&SpillRecord),
{
    let path = path.as_ref();
    let index = if opts.filters() {
        FrameIndex::load_path(path)?
    } else {
        None
    };
    let Some(index) = index else {
        return stream_path(path, opts, salvage, adapt, visit);
    };
    let open = || SpillReader::open(path).map(&adapt);
    let codec = open()?.codec();
    let coverage = visit_indexed(&index, opts, open, visit)?;
    Ok(Pass {
        codec,
        coverage,
        truncated: false,
        stream_complete: true,
    })
}

/// The streamed pass under [`visit_path`].
fn stream_path(
    path: &Path,
    opts: &ScanOptions,
    salvage: bool,
    adapt: impl Fn(FileReader) -> FileReader,
    mut visit: impl FnMut(&SpillRecord),
) -> io::Result<Pass> {
    let mut reader = adapt(SpillReader::open(path)?);
    let mut truncated = false;
    for record in reader.by_ref() {
        match record {
            Ok(record) if opts.record_in_window(&record) => visit(&record),
            Ok(_) => {}
            Err(e) if salvage && e.kind() == io::ErrorKind::UnexpectedEof => {
                truncated = true;
                break;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Pass {
        codec: reader.codec(),
        coverage: if opts.filters() {
            Coverage::Filtered
        } else {
            Coverage::Full
        },
        truncated,
        stream_complete: reader.stream_complete(),
    })
}

/// Passes every in-window record of the frames of `index` that `opts`
/// selects to `visit`, in file order: the indexed half of [`visit_path`],
/// over any reader `open` returns. `open` is called at most once, and
/// only when a frame is selected; the reader only ever seeks to frame
/// offsets taken from the index, so the per-frame checksums still guard
/// every decoded byte. Consecutive selected frames coalesce into one seek
/// and one multi-frame budget (adjacent frames abut on disk), so a dense
/// window costs one seek, not one per frame.
///
/// # Errors
///
/// Propagates reader-open and decode errors, as [`visit_path`].
pub fn visit_indexed<R, V>(
    index: &FrameIndex,
    opts: &ScanOptions,
    open: impl FnOnce() -> io::Result<SpillReader<R>>,
    mut visit: V,
) -> io::Result<Coverage>
where
    R: Read + Seek,
    V: FnMut(&SpillRecord),
{
    let frames = select_frames(index, opts);
    let coverage = Coverage::Indexed {
        decoded: frames.len(),
        total: index.frames(),
    };
    if frames.is_empty() {
        return Ok(coverage);
    }
    let mut reader = open()?;
    let mut i = 0;
    while i < frames.len() {
        let mut j = i + 1;
        while j < frames.len() && frames[j].0 == frames[j - 1].0 + 1 {
            j += 1;
        }
        let run = &frames[i..j];
        reader.seek_to_frames(run[0].1.offset, run.len() as u64)?;
        for record in &mut reader {
            let record = record?;
            if opts.record_in_window(&record) {
                visit(&record);
            }
        }
        i = j;
    }
    Ok(coverage)
}

/// A [`Read`]`+`[`Seek`] wrapper that counts the bytes actually read
/// through it — how the tests and the bench prove a windowed scan's I/O is
/// O(window): wrap the file, run the pass, read the counter.
#[derive(Debug)]
pub struct CountingReader<R> {
    inner: R,
    bytes: Arc<AtomicU64>,
}

impl<R> CountingReader<R> {
    /// Wraps `inner`; every byte read adds to `bytes`.
    pub fn new(inner: R, bytes: Arc<AtomicU64>) -> Self {
        Self { inner, bytes }
    }
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

impl<R: Seek> Seek for CountingReader<R> {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.inner.seek(pos)
    }
}
