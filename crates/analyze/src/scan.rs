//! Spill scans: the one place that decides whether a pass over a capture
//! seeks through the index footer or streams every frame, behind both
//! `uswg analyze` and `uswg fit`.
//!
//! [`scan_path`] (fold into a [`SummarySink`]) and [`visit_path`] (hand
//! every record to a visitor) make the same choice from the same
//! [`ScanOptions`]: when the options select or fan out frames and the file
//! carries a [`FrameIndex`], only the frames whose completion-time range
//! overlaps the window are decoded (optionally thinned to every k-th) —
//! O(window), not O(file); otherwise every frame streams through the same
//! record-level filter. With `jobs > 1` [`scan_indexed`] splits the
//! selected frames into near-equal chunks fanned out under the pool's
//! global thread budget; each worker opens its own reader, accumulates
//! independently, and the chunks merge in file order via
//! [`SummarySink::merge`], matching the sequential pass to
//! floating-point roundoff.

use std::fs::File;
use std::io::{self, BufReader, Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use uswg_usim::{
    FrameIndex, FrameIndexEntry, LogSink, SpillCodec, SpillReader, SpillRecord, SummarySink,
};

/// What an indexed scan should select and how it should run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanOptions {
    /// Keep records completing at or after this time, µs.
    pub since: Option<u64>,
    /// Keep records completing at or before this time, µs.
    pub until: Option<u64>,
    /// Decode only every k-th of the selected frames (`None` or `Some(1)`
    /// decodes them all) — a cheap estimate over a huge capture.
    pub sample: Option<u64>,
    /// Worker threads to request from the pool's global thread budget
    /// (`0` or `1` runs sequentially on the calling thread; `0` is "not
    /// asked for", any other value also asks for the indexed path).
    pub jobs: usize,
}

impl ScanOptions {
    /// Whether the options can drop records — the only way a pass over a
    /// non-empty capture can come back empty.
    pub fn filters(&self) -> bool {
        self.since.is_some() || self.until.is_some() || self.sample.is_some()
    }

    /// Whether a pass should use the index footer when the file has one:
    /// a filter can skip frames through it, and `jobs` needs it to split
    /// the file. A plain full pass streams, footer or not.
    pub fn wants_index(&self) -> bool {
        self.filters() || self.jobs > 0
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

/// The result of an indexed scan, with enough accounting to report how
/// much of the file the index let the pass skip.
#[derive(Debug)]
pub struct ScanOutcome {
    /// The folded statistics over every in-window record of the decoded
    /// frames.
    pub stats: SummarySink,
    /// Frames in the file, per the index.
    pub frames_total: usize,
    /// Frames actually decoded (selected by window, thinned by sampling).
    pub frames_decoded: usize,
}

/// Runs an indexed scan: selects the frames of `index` overlapping the
/// window, thins them to every k-th if sampling, fans contiguous frame
/// runs across `opts.jobs` workers (each opening its own reader through
/// `open`), and merges the per-chunk [`SummarySink`] in file order.
///
/// `open` is called once per worker (once total when sequential); each
/// reader only ever seeks to frame offsets taken from the index, so the
/// per-frame checksums still guard every decoded byte.
///
/// # Errors
///
/// Propagates reader-open and decode errors. An index that disagrees with
/// the file (a seek landing mid-frame, a frame ending early) surfaces as
/// the decode error the misaligned read produces.
pub fn scan_indexed<R, F>(
    index: &FrameIndex,
    opts: &ScanOptions,
    open: F,
) -> io::Result<ScanOutcome>
where
    R: Read + Seek,
    F: Fn() -> io::Result<SpillReader<R>> + Sync,
{
    let sampled = select_frames(index, opts);
    let frames_decoded = sampled.len();
    let workers = opts.jobs.max(1);
    let chunks: Vec<&[(usize, FrameIndexEntry)]> = split_even(&sampled, workers);
    // A single chunk runs inline on the calling thread.
    let mut stats = SummarySink::new();
    for chunk_stats in stealpool::try_map_indexed(workers, chunks.len(), |i| {
        scan_chunk(&open, chunks[i], opts)
    })? {
        stats.merge(&chunk_stats);
    }
    Ok(ScanOutcome {
        stats,
        frames_total: index.frames(),
        frames_decoded,
    })
}

/// The frames of `index` overlapping the window, thinned to every k-th
/// when sampling — the selection every indexed pass decodes.
pub(crate) fn select_frames(
    index: &FrameIndex,
    opts: &ScanOptions,
) -> Vec<(usize, FrameIndexEntry)> {
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
    /// Streamed every frame, no filter and no fan-out asked for.
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

impl Pass {
    /// An indexed pass: it only runs over a footer that loaded whole.
    fn complete(codec: SpillCodec, coverage: Coverage) -> Self {
        Self {
            codec,
            coverage,
            truncated: false,
            stream_complete: true,
        }
    }
}

/// A spill reader over a buffered file, as [`SpillReader::open`] returns.
pub type FileReader = SpillReader<BufReader<File>>;

/// The index footer of the capture at `path` when `opts` can use one and
/// the file has one. A present-but-malformed footer fails closed (the
/// trailer promised an index that lied); an absent or truncated one is
/// `None` and the pass streams.
fn index_for(path: &Path, opts: &ScanOptions) -> io::Result<Option<FrameIndex>> {
    if opts.wants_index() {
        FrameIndex::load_path(path)
    } else {
        Ok(None)
    }
}

/// The Usage Analyzer pass over the capture at `path`: every selected
/// record folded into a [`SummarySink`], through the index footer
/// (across `opts.jobs` workers) when [`ScanOptions::wants_index`] and the
/// file has one, else streamed frame-by-frame — no `UsageLog`, no O(run
/// length) memory, any file the format can hold.
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
    let path = path.as_ref();
    let (stats, pass) = match index_for(path, opts)? {
        None => {
            let mut stats = SummarySink::new();
            let fold = |record: &SpillRecord| match record {
                SpillRecord::Op(op) => stats.record_op(op),
                SpillRecord::Session(s) => stats.record_session(s),
            };
            let pass = stream_path(path, opts, salvage, |reader| reader, fold)?;
            (stats, pass)
        }
        Some(index) => {
            let codec = SpillReader::open(path)?.codec();
            let outcome = scan_indexed(&index, opts, || SpillReader::open(path))?;
            let coverage = Coverage::Indexed {
                decoded: outcome.frames_decoded,
                total: outcome.frames_total,
            };
            (outcome.stats, Pass::complete(codec, coverage))
        }
    };
    stats.check_totals()?;
    Ok((stats, pass))
}

/// Passes every selected record of the capture at `path` to `visit`, in
/// file order, making the same index-or-stream choice as [`scan_path`] —
/// for passes (like the fit collector) that fold into something other than
/// a [`SummarySink`]. `adapt` restricts each reader the pass opens
/// (`SpillReader::ops_only`, `sessions_only`, or the identity).
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
    mut visit: V,
) -> io::Result<Pass>
where
    P: AsRef<Path>,
    A: Fn(FileReader) -> FileReader,
    V: FnMut(&SpillRecord),
{
    let path = path.as_ref();
    let Some(index) = index_for(path, opts)? else {
        return stream_path(path, opts, salvage, adapt, visit);
    };
    let open = || SpillReader::open(path).map(&adapt);
    let codec = open()?.codec();
    let frames = select_frames(&index, opts);
    visit_frames(&open, &frames, opts, &mut visit)?;
    let coverage = Coverage::Indexed {
        decoded: frames.len(),
        total: index.frames(),
    };
    Ok(Pass::complete(codec, coverage))
}

/// The streamed pass under [`scan_path`] and [`visit_path`].
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
        coverage: if opts.wants_index() {
            Coverage::Filtered
        } else {
            Coverage::Full
        },
        truncated,
        stream_complete: reader.stream_complete(),
    })
}

/// Splits `frames` into at most `parts` near-equal contiguous chunks
/// (never an empty chunk; fewer chunks than `parts` when frames are few).
fn split_even(
    frames: &[(usize, FrameIndexEntry)],
    parts: usize,
) -> Vec<&[(usize, FrameIndexEntry)]> {
    if frames.is_empty() {
        return Vec::new();
    }
    let parts = parts.clamp(1, frames.len());
    let base = frames.len() / parts;
    let extra = frames.len() % parts;
    let mut chunks = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        chunks.push(&frames[start..start + len]);
        start += len;
    }
    chunks
}

/// Decodes one worker's frames: consecutive index positions coalesce into
/// a single seek + multi-frame budget (adjacent frames abut on disk), so a
/// dense window costs one seek, not one per frame.
fn scan_chunk<R, F>(
    open: &F,
    frames: &[(usize, FrameIndexEntry)],
    opts: &ScanOptions,
) -> io::Result<SummarySink>
where
    R: Read + Seek,
    F: Fn() -> io::Result<SpillReader<R>>,
{
    let mut stats = SummarySink::new();
    visit_frames(open, frames, opts, &mut |record| match record {
        SpillRecord::Op(op) => stats.record_op(op),
        SpillRecord::Session(s) => stats.record_session(s),
    })?;
    Ok(stats)
}

/// Streams every in-window record of `frames` to `visit`, coalescing
/// consecutive index positions into a single seek + multi-frame budget
/// (adjacent frames abut on disk), so a dense window costs one seek, not
/// one per frame.
fn visit_frames<R, F, V>(
    open: &F,
    frames: &[(usize, FrameIndexEntry)],
    opts: &ScanOptions,
    visit: &mut V,
) -> io::Result<()>
where
    R: Read + Seek,
    F: Fn() -> io::Result<SpillReader<R>>,
    V: FnMut(&SpillRecord),
{
    if frames.is_empty() {
        return Ok(());
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
    Ok(())
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
