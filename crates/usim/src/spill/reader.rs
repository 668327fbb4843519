//! [`SpillReader`]: walks a spill stream frame by frame — headers, the end
//! marker, the trailing index-footer region — handing each frame body to
//! `frame` to decode or skip.

use super::bad_data;
use super::frame::{self, SpillCodec, SpillRecord, MAGIC_V1, MAGIC_V2, TAG_END};
use super::index::{
    decode_entries, INDEX_ENTRY_BYTES, INDEX_FIXED_BYTES, MAGIC_INDEX, MAGIC_TRAILER, TRAILER_BYTES,
};
use crate::log::UsageLog;
use std::fs::File;
use std::io::{self, BufReader, Read, Seek, SeekFrom};
use std::path::Path;

/// Where a [`SpillReader`] is in its stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReaderState {
    /// More frames (or the end marker) expected.
    Streaming,
    /// The end marker validated; the stream is complete.
    Finished,
    /// An error was yielded; the iterator is fused.
    Failed,
}

/// Streaming spill-file reader: yields every record frame-by-frame without
/// ever materializing a [`UsageLog`] — resident memory is one frame.
///
/// Iteration yields `io::Result<SpillRecord>`; the first error fuses the
/// iterator. A stream that ends without its end-of-stream marker, or whose
/// marker totals disagree with the frames read, yields that error as its
/// final item — callers that must not act on partial data (everything
/// except progress displays) should treat any `Err` as invalidating every
/// record already seen, exactly as [`read_spill`] does by returning `Err`
/// for the whole file.
#[derive(Debug)]
pub struct SpillReader<R: Read> {
    r: R,
    codec: SpillCodec,
    /// When set, only session frames (`true`) or only op frames (`false`,
    /// either op tag) are decoded; the other kind is skipped structurally
    /// (headers parsed, bodies never decoded).
    keep_sessions: Option<bool>,
    ops_seen: u64,
    sessions_seen: u64,
    /// The current frame, its records handed out from `next` on; its
    /// buffers are reused from frame to frame.
    pending: frame::Decoded,
    next: usize,
    state: ReaderState,
    /// `Some(n)` after [`SpillReader::seek_to_frames`]: decode at most `n`
    /// more frames, then finish — the end marker is not expected (the
    /// index already validated the stream's shape).
    frames_left: Option<u64>,
    /// True once the end marker's totals have validated, even if the
    /// trailing-bytes probe failed afterwards: every *record* of the
    /// stream was intact, only the optional footer region is damaged.
    end_validated: bool,
}

impl SpillReader<BufReader<File>> {
    /// Opens a spill file for streaming.
    ///
    /// # Errors
    ///
    /// Propagates file-open failures and header validation errors.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Self::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read> SpillReader<R> {
    /// Wraps a reader, validating the format magic immediately.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for an unknown magic, or the underlying read
    /// error.
    pub fn new(mut r: R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        let codec = if &magic == MAGIC_V1 {
            SpillCodec::Raw
        } else if &magic == MAGIC_V2 {
            SpillCodec::Compressed
        } else {
            return Err(bad_data(format!("bad spill magic {magic:02x?}")));
        };
        Ok(Self {
            r,
            codec,
            keep_sessions: None,
            ops_seen: 0,
            sessions_seen: 0,
            pending: frame::Decoded::default(),
            next: 0,
            state: ReaderState::Streaming,
            frames_left: None,
            end_validated: false,
        })
    }

    /// The codec the file was written with (sniffed from the magic).
    pub fn codec(&self) -> SpillCodec {
        self.codec
    }

    /// Restricts iteration to op records. Session frames are *skipped
    /// structurally* — their headers are parsed (so frame counts still
    /// reconcile against the end-of-stream marker) but their bodies are
    /// never decoded or allocated, which halves the work of passes that
    /// only want one record kind (`fit` reads a capture once per kind, and
    /// `drive --from-spill` replays only ops). Skipped frames' checksums are not verified;
    /// a pass that consumes the other kind (or [`read_spill`]) still
    /// verifies them.
    pub fn ops_only(mut self) -> Self {
        self.keep_sessions = Some(false);
        self
    }

    /// Restricts iteration to session records; op frames are skipped
    /// structurally (see [`SpillReader::ops_only`]).
    pub fn sessions_only(mut self) -> Self {
        self.keep_sessions = Some(true);
        self
    }

    /// Whether the end marker's totals validated against the frames read.
    /// Once true, every *record* of the stream is accounted for, even if
    /// the reader subsequently errored in the trailing region — the
    /// distinction `uswg analyze --salvage` uses to report exact totals
    /// for a file whose only damage is a truncated index footer.
    pub fn stream_complete(&self) -> bool {
        self.end_validated
    }

    /// The stream's next byte, or `None` at a clean end of it.
    fn next_byte(&mut self) -> io::Result<Option<u8>> {
        let mut byte = [0u8; 1];
        match self.r.read_exact(&mut byte) {
            Ok(()) => Ok(Some(byte[0])),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Reads `read_exact`-style from inside the index footer region, where
    /// a short read means the footer was truncated — the record stream
    /// itself is already complete, so the error stays `UnexpectedEof`
    /// (salvageable) rather than `InvalidData`.
    fn read_footer_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        self.r.read_exact(buf).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "spill stream truncated inside the index footer: \
                 the record stream is complete but its index is not",
            ),
            _ => e,
        })
    }

    /// Polices the region after a validated end marker: the only bytes
    /// allowed there are a well-formed index footer (checked in full —
    /// magic, entry consistency, CRC, trailer, then EOF) or nothing at
    /// all. Anything else is `InvalidData`. Pre-index readers returned
    /// `Ok(None)` at the marker without looking, so a valid stream
    /// followed by arbitrary garbage read back clean — exactly the region
    /// the footer now occupies, so it has to be policed.
    fn check_trailing(&mut self) -> io::Result<()> {
        let Some(first) = self.next_byte()? else {
            return Ok(());
        };
        if first != MAGIC_INDEX[0] {
            return Err(bad_data(format!(
                "trailing byte {first:#04x} after the end-of-stream marker"
            )));
        }
        let mut magic_rest = [0u8; 7];
        self.read_footer_exact(&mut magic_rest)?;
        if magic_rest != MAGIC_INDEX[1..] {
            return Err(bad_data(
                "trailing bytes after the end-of-stream marker are not an index footer".to_string(),
            ));
        }
        let mut count_raw = [0u8; 4];
        self.read_footer_exact(&mut count_raw)?;
        let count = u32::from_le_bytes(count_raw);
        // Every frame holds at least one record, so the totals the end
        // marker just validated bound the entry count — reject a corrupt
        // length before it sizes an allocation.
        if u64::from(count) > self.ops_seen + self.sessions_seen {
            return Err(bad_data(format!(
                "index footer claims {count} frames for {} records",
                self.ops_seen + self.sessions_seen
            )));
        }
        let mut counted = count_raw.to_vec();
        counted.resize(4 + count as usize * INDEX_ENTRY_BYTES + 4, 0);
        self.read_footer_exact(&mut counted[4..])?;
        // This path's own check: the entries describe the stream just
        // read — record counts summing to the marker totals.
        let (mut ops, mut sessions) = (0u64, 0u64);
        for entry in decode_entries(&counted)? {
            if entry.is_session_frame() {
                sessions += u64::from(entry.records);
            } else {
                ops += u64::from(entry.records);
            }
        }
        if ops != self.ops_seen || sessions != self.sessions_seen {
            return Err(bad_data(format!(
                "index footer accounts for {ops} ops / {sessions} sessions, \
                 stream held {} / {}",
                self.ops_seen, self.sessions_seen
            )));
        }
        let mut trailer = [0u8; TRAILER_BYTES];
        self.read_footer_exact(&mut trailer)?;
        let footer_len = (INDEX_FIXED_BYTES + count as usize * INDEX_ENTRY_BYTES) as u32;
        if u32::from_le_bytes(trailer[..4].try_into().expect("4 bytes")) != footer_len
            || &trailer[4..] != MAGIC_TRAILER
        {
            return Err(bad_data("index trailer does not match its footer".into()));
        }
        // Nothing may follow the trailer.
        match self.next_byte()? {
            None => Ok(()),
            Some(_) => Err(bad_data(
                "trailing bytes after the index trailer".to_string(),
            )),
        }
    }

    /// Decodes frames until a record is available, the validated end of the
    /// stream, or an error.
    fn next_record(&mut self) -> io::Result<Option<SpillRecord>> {
        loop {
            if let Some(&record) = self.pending.rows.get(self.next) {
                self.next += 1;
                return Ok(Some(record));
            }
            if self.state == ReaderState::Finished {
                return Ok(None);
            }
            if self.frames_left == Some(0) {
                // Frame budget exhausted (seek mode): stop without looking
                // for the end marker — the index already accounted for it.
                self.state = ReaderState::Finished;
                return Ok(None);
            }
            let Some(tag) = self.next_byte()? else {
                // Truncation, not corruption: every record already yielded
                // came from an intact frame, which is what `uswg analyze
                // --salvage` relies on to distinguish a killed writer
                // (recoverable prefix) from a damaged one.
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "spill stream ends without its end-of-stream marker: \
                     the writing run did not finish, so the log is incomplete",
                ));
            };
            if tag == TAG_END {
                if self.frames_left.is_some() {
                    // Seek mode promised more frames than the stream holds:
                    // the index footer and the frame sequence disagree.
                    return Err(bad_data(
                        "end marker reached while the frame index promised more frames".to_string(),
                    ));
                }
                let mut totals = [0u8; 16];
                self.r.read_exact(&mut totals)?;
                let ops_total = u64::from_le_bytes(totals[..8].try_into().expect("8 bytes"));
                let sessions_total = u64::from_le_bytes(totals[8..].try_into().expect("8 bytes"));
                if ops_total != self.ops_seen || sessions_total != self.sessions_seen {
                    return Err(bad_data(format!(
                        "end marker promises {ops_total} ops / {sessions_total} sessions, \
                         stream held {} / {}",
                        self.ops_seen, self.sessions_seen
                    )));
                }
                self.end_validated = true;
                self.check_trailing()?;
                self.state = ReaderState::Finished;
                return Ok(None);
            }
            let head = frame::read_header(&mut self.r, tag)?;
            if let Some(n) = &mut self.frames_left {
                *n -= 1;
            }
            // Record the frame's count whether decoded or skipped, so the
            // end-of-stream totals always reconcile. Both op tags feed the
            // one op total.
            if head.is_sessions() {
                self.sessions_seen += head.count() as u64;
            } else {
                self.ops_seen += head.count() as u64;
            }
            if self
                .keep_sessions
                .is_some_and(|keep| keep != head.is_sessions())
            {
                frame::skip_body(&mut self.r, self.codec, head)?;
                continue;
            }
            self.next = 0;
            frame::read_body(&mut self.r, self.codec, head, &mut self.pending)?;
        }
    }
}

impl<R: Read + Seek> SpillReader<R> {
    /// Repositions the reader at a frame boundary taken from a
    /// [`FrameIndex`](super::FrameIndex) and bounds it to decode exactly `frames` frames
    /// before finishing — the seekable half of windowed and parallel
    /// analyze. The reader does not expect (and must not meet) the end
    /// marker inside the budget; per-frame v2 checksums still verify every
    /// decoded frame, but end-of-stream totals are the index's problem,
    /// already cross-checked when the footer loaded.
    ///
    /// `offset` must be a frame tag-byte offset from the index; `frames`
    /// counts consecutive frames from there. A previous iteration error
    /// state is cleared: each seek starts a fresh bounded pass.
    ///
    /// # Errors
    ///
    /// Propagates seek failures.
    pub fn seek_to_frames(&mut self, offset: u64, frames: u64) -> io::Result<()> {
        self.r.seek(SeekFrom::Start(offset))?;
        self.pending.rows.clear();
        self.state = ReaderState::Streaming;
        self.frames_left = Some(frames);
        self.end_validated = false;
        Ok(())
    }
}

impl<R: Read> Iterator for SpillReader<R> {
    type Item = io::Result<SpillRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.state == ReaderState::Failed {
            return None;
        }
        let item = self.next_record().transpose();
        if matches!(item, Some(Err(_))) {
            self.state = ReaderState::Failed;
        }
        item
    }
}

/// Reads a spill stream back into the [`UsageLog`] the run would have
/// materialized in memory: op and session records reappear in their
/// original recording order. Both formats (v1 raw and v2 compressed) are
/// accepted; the magic selects the decoder.
///
/// # Errors
///
/// Returns I/O errors from the reader; `InvalidData` for a bad magic, an
/// unknown frame tag, an unknown op/category code, a frame checksum
/// mismatch (v2), or marker counts that disagree with the frames actually
/// read; and `UnexpectedEof` for a stream that ends before its
/// end-of-stream marker (the writer died before [`SpillSink::finish`](super::SpillSink::finish) —
/// the log would be silently incomplete). The `UnexpectedEof` kind marks
/// errors where everything already decoded is trustworthy — the salvage
/// distinction `uswg analyze --salvage` exposes.
pub fn read_spill<R: Read>(r: R) -> io::Result<UsageLog> {
    let mut log = UsageLog::new();
    for record in SpillReader::new(r)? {
        match record? {
            SpillRecord::Op(op) => log.push_op(op),
            SpillRecord::Session(s) => log.push_session(s),
        }
    }
    Ok(log)
}

/// [`read_spill`] over a buffered file.
///
/// # Errors
///
/// Propagates [`read_spill`] errors and file-open failures.
pub fn read_spill_path<P: AsRef<Path>>(path: P) -> io::Result<UsageLog> {
    read_spill(BufReader::new(File::open(path)?))
}
