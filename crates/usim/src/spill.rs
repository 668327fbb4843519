//! Spill-to-disk log sink: full-fidelity op streams that survive beyond
//! RAM.
//!
//! At the ROADMAP's millions-of-users scale a materialized [`UsageLog`] is
//! the memory ceiling (~80 bytes per op record). [`SpillSink`] keeps full
//! fidelity without the ceiling: records stream into **columnar frames** on
//! disk, buffered at most [`FRAME_CAP`] records at a time, so resident
//! memory is O(1) in run length. Reading back has two shapes:
//! [`read_spill`] reconstructs the exact `UsageLog` the run would have
//! produced in memory (losslessly, byte-for-byte through JSON — guarded by
//! round-trip property tests), and [`SpillReader`] iterates the records
//! frame-by-frame without ever materializing a log — the substrate of the
//! streamed sharded merge and of `uswg analyze`.
//!
//! # Formats
//!
//! Two on-disk formats share the frame structure; the reader sniffs the
//! magic, so both read back through the same API (codec negotiation is the
//! first 8 bytes of the file):
//!
//! * **v1 raw** (`USWGSPL1`, [`SpillCodec::Raw`]) — fixed-width
//!   little-endian columns, exactly the format earlier releases wrote.
//!   Still written on request and always readable.
//! * **v2 compressed** (`USWGSPL2`, [`SpillCodec::Compressed`], the
//!   default) — the same columns per frame, but each column is
//!   independently compressed: integer columns as zigzag **delta +
//!   LEB128 varint** (the op stream is sorted by completion time and most
//!   magnitudes are small, so deltas collapse), byte columns as **RLE**
//!   when that wins over the raw bytes. Every v2 frame carries a CRC32 of
//!   its header and payload, so a flipped bit is a clean
//!   [`io::ErrorKind::InvalidData`] instead of silently different records.
//!
//! ```text
//! magic: 8 bytes  b"USWGSPL1" | b"USWGSPL2"
//! frame*:
//!   tag:   1 byte   0 = op frame, 1 = session frame, 3 = op frame with
//!                   fault outcomes
//!   count: u32 LE   records in this frame (1..=FRAME_CAP)
//!   v2 only — crc: u32 LE  CRC32 (IEEE) over tag, count and every column
//!                          (length prefixes included)
//!   columns, in declaration order:
//!     v1: `count` fixed-width LE values per column
//!     v2: u32 LE encoded length, then the encoded column
//!     ops:      at u64 | user u64 | session u32 | op u8 | ino u64 |
//!               bytes u64 | file_size u64 | response u64 | category u8
//!     ops with fault outcomes: the op columns, then
//!               retries u32 | aborted u8 (0/1)
//!     sessions: user u64 | user_type u64 | session u32 | start u64 |
//!               end u64 | ops u64 | files_referenced u64 |
//!               file_bytes_referenced u64 | bytes_accessed u64 |
//!               bytes_read u64 | bytes_written u64 | total_response u64
//! end marker (written by `finish` only):
//!   tag:   1 byte   2
//!   totals: u64 LE ops, u64 LE sessions — must match the frames read
//! index footer (optional, after the end marker; default on):
//!   magic: 8 bytes  b"USWGIDX1"
//!   count: u32 LE   index entries (one per frame, in file order)
//!   entry*:         offset u64 LE (of the frame's tag byte) | tag u8 |
//!                   records u32 LE | min_time u64 LE | max_time u64 LE
//!                   (completion-time range: `at` for ops, `end` for
//!                   sessions)
//!   crc:   u32 LE   CRC32 (IEEE) over magic, count and every entry
//! trailer (fixed size, last 12 bytes of an indexed file):
//!   footer_len: u32 LE  bytes from the footer magic to its CRC inclusive
//!   magic: 8 bytes  b"USWGTRL1"
//! ```
//!
//! The footer makes a sealed file *seekable*: [`FrameIndex::load`] finds it
//! by seeking to EOF−12, and `uswg analyze` uses the per-frame time ranges
//! to decode only the frames overlapping a `--since/--until` window — or to
//! fan disjoint frame ranges across threads — instead of streaming the
//! whole file. Files without a footer (every pre-index release, or
//! [`SpillSink::without_index`]) end at the marker and stream exactly as
//! before. Crucially the footer lives *after* the end marker, the region
//! old readers never looked at — and the region this module now polices:
//! after a validated end marker the stream must hold either a well-formed
//! footer or clean EOF, anything else is `InvalidData`.
//!
//! The fault-outcome tag is chosen **per frame**: a frame whose records
//! all carry the default outcome (no retries, not aborted) is written as a
//! plain op frame, so a run without fault injection produces byte-identical
//! files under both codecs to every earlier release, and old readers only
//! reject files that actually contain fault data.
//!
//! v2 integer columns (u32 widened to u64): per value the zigzag-encoded
//! wrapping delta from the previous value, as an LEB128 varint. v2 byte
//! columns: a flag byte — `0` = the `count` bytes verbatim, `1` = RLE
//! `(value u8, run length varint)` pairs; the writer picks whichever is
//! smaller.
//!
//! Columnar-within-frame keeps each column a single contiguous run —
//! trivially compressible and decodable without per-record branching —
//! while the frame granularity preserves the stream's op/session
//! interleaving order within each record kind.

mod index;

pub use self::index::{FrameIndex, FrameIndexEntry};

use self::index::{
    decode_entries, write_index_footer, INDEX_ENTRY_BYTES, INDEX_FIXED_BYTES, MAGIC_INDEX,
    MAGIC_TRAILER, TRAILER_BYTES,
};
use crate::log::{OpRecord, SessionRecord, UsageLog};
use crate::sink::LogSink;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use uswg_fsc::{FileCategory, FileType, Owner, UsageClass};
use uswg_netfs::OpKind;

/// v1 file magic: format name + version (fixed-width raw columns).
const MAGIC_V1: &[u8; 8] = b"USWGSPL1";
/// v2 file magic (per-frame compressed columns + CRC).
const MAGIC_V2: &[u8; 8] = b"USWGSPL2";
/// Frame tag for op-record frames.
const TAG_OPS: u8 = 0;
/// Frame tag for session-record frames.
const TAG_SESSIONS: u8 = 1;
/// End-of-stream marker, written only by [`SpillSink::finish`]: tag byte
/// followed by the total op and session counts (u64 LE each). Its absence
/// tells the reader the writer died mid-run — without it, a file truncated
/// exactly at a frame boundary (a killed process, a full disk under a
/// `BufWriter` drop) would read back as a clean but silently incomplete
/// log.
const TAG_END: u8 = 2;
/// Frame tag for op-record frames carrying fault outcomes (two extra
/// columns: retries, aborted). Only written when a frame holds at least one
/// non-default outcome, so fault-free spill files keep the historical byte
/// layout exactly.
const TAG_OPS_FAULTS: u8 = 3;

/// Records buffered per frame: the sink's entire resident footprint is two
/// buffers of at most this many records (~320 KiB of ops), independent of
/// how long the run is. Also the hard ceiling the reader enforces on frame
/// counts, for both formats.
pub const FRAME_CAP: usize = 4096;

/// How a [`SpillSink`] encodes its frames on disk. Both codecs hold the
/// identical record stream; the reader sniffs the file magic, so the choice
/// only trades bytes on disk against encode/decode work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpillCodec {
    /// The v1 format: fixed-width little-endian columns, byte-for-byte what
    /// earlier releases wrote. No checksums.
    Raw,
    /// The v2 format (the default): delta+varint integer columns, RLE byte
    /// columns, CRC32 per frame.
    #[default]
    Compressed,
}

/// Encodes an [`OpKind`] as its index in [`OpKind::ALL`].
fn encode_op(kind: OpKind) -> u8 {
    OpKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("every OpKind is in ALL") as u8
}

fn decode_op(code: u8) -> io::Result<OpKind> {
    OpKind::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| bad_data(format!("unknown op code {code}")))
}

/// Packs a [`FileCategory`] into one byte: `type * 8 + owner * 4 + usage`.
fn encode_category(cat: FileCategory) -> u8 {
    let t = match cat.file_type {
        FileType::Dir => 0u8,
        FileType::Reg => 1,
        FileType::Notes => 2,
    };
    let o = match cat.owner {
        Owner::User => 0u8,
        Owner::Other => 1,
    };
    let u = match cat.usage {
        UsageClass::ReadOnly => 0u8,
        UsageClass::New => 1,
        UsageClass::ReadWrite => 2,
        UsageClass::Temp => 3,
    };
    t * 8 + o * 4 + u
}

fn decode_category(code: u8) -> io::Result<FileCategory> {
    let file_type = match code / 8 {
        0 => FileType::Dir,
        1 => FileType::Reg,
        2 => FileType::Notes,
        _ => return Err(bad_data(format!("unknown category code {code}"))),
    };
    let owner = match (code / 4) % 2 {
        0 => Owner::User,
        _ => Owner::Other,
    };
    let usage = match code % 4 {
        0 => UsageClass::ReadOnly,
        1 => UsageClass::New,
        2 => UsageClass::ReadWrite,
        _ => UsageClass::Temp,
    };
    Ok(FileCategory {
        file_type,
        owner,
        usage,
    })
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

// ---------------------------------------------------------------------------
// v2 primitives: varint, zigzag, RLE, CRC32
// ---------------------------------------------------------------------------

/// CRC32 (IEEE 802.3, reflected) lookup table, built at compile time.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// Running CRC32 over a frame's header and columns: the v2 integrity check
/// that turns a flipped bit anywhere in a frame into a clean decode error
/// (CRC32 detects every single-bit error by construction).
#[derive(Debug, Clone, Copy)]
struct Crc32(u32);

impl Crc32 {
    fn new() -> Self {
        Self(0xFFFF_FFFF)
    }

    fn update(&mut self, bytes: &[u8]) {
        let mut c = self.0;
        for &b in bytes {
            c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    fn finish(self) -> u32 {
        !self.0
    }
}

/// Zigzag: maps small-magnitude signed deltas to small unsigned varints.
fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Appends `v` as an LEB128 varint (1–10 bytes).
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one varint from `buf` at `*pos`, rejecting truncated or
/// overflowing encodings.
fn take_varint(buf: &[u8], pos: &mut usize) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf
            .get(*pos)
            .ok_or_else(|| bad_data("varint runs past its column".into()))?;
        *pos += 1;
        let payload = (b & 0x7F) as u64;
        if shift >= 64 || (shift == 63 && payload > 1) {
            return Err(bad_data("varint overflows u64".into()));
        }
        v |= payload << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Appends one v2 integer column: length prefix + zigzag-delta varints.
fn push_delta_col(body: &mut Vec<u8>, values: impl Iterator<Item = u64>) {
    let len_at = body.len();
    body.extend_from_slice(&[0u8; 4]);
    let data_at = body.len();
    let mut prev = 0u64;
    for v in values {
        put_varint(body, zigzag(v.wrapping_sub(prev) as i64));
        prev = v;
    }
    let len = (body.len() - data_at) as u32;
    body[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Decodes a v2 integer column back to its `count` values, requiring the
/// encoding to consume the column exactly.
fn decode_delta_col(buf: &[u8], count: usize) -> io::Result<Vec<u64>> {
    let mut out = Vec::with_capacity(count);
    let mut pos = 0usize;
    let mut prev = 0u64;
    for _ in 0..count {
        let z = take_varint(buf, &mut pos)?;
        prev = prev.wrapping_add(unzigzag(z) as u64);
        out.push(prev);
    }
    if pos != buf.len() {
        return Err(bad_data("trailing bytes in integer column".into()));
    }
    Ok(out)
}

/// Appends one v2 byte column: length prefix, then a flag byte (`0` raw /
/// `1` RLE) and the payload — whichever encoding is smaller.
fn push_u8_col(body: &mut Vec<u8>, values: &[u8]) {
    let mut rle = Vec::new();
    let mut i = 0usize;
    while i < values.len() {
        let v = values[i];
        let mut run = 1u64;
        while i + (run as usize) < values.len() && values[i + run as usize] == v {
            run += 1;
        }
        rle.push(v);
        put_varint(&mut rle, run);
        i += run as usize;
    }
    let (flag, payload): (u8, &[u8]) = if rle.len() < values.len() {
        (1, &rle)
    } else {
        (0, values)
    };
    let len = (1 + payload.len()) as u32;
    body.extend_from_slice(&len.to_le_bytes());
    body.push(flag);
    body.extend_from_slice(payload);
}

/// Decodes a v2 byte column back to its `count` bytes.
fn decode_u8_col(buf: &[u8], count: usize) -> io::Result<Vec<u8>> {
    let (&flag, payload) = buf
        .split_first()
        .ok_or_else(|| bad_data("byte column missing its encoding flag".into()))?;
    match flag {
        0 => {
            if payload.len() != count {
                return Err(bad_data(format!(
                    "raw byte column holds {} bytes, frame promises {count}",
                    payload.len()
                )));
            }
            Ok(payload.to_vec())
        }
        1 => {
            let mut out = Vec::with_capacity(count);
            let mut pos = 0usize;
            while out.len() < count {
                let v = *payload
                    .get(pos)
                    .ok_or_else(|| bad_data("RLE column runs out of pairs".into()))?;
                pos += 1;
                let run = take_varint(payload, &mut pos)?;
                if run == 0 || run > (count - out.len()) as u64 {
                    return Err(bad_data(format!("RLE run length {run} out of range")));
                }
                out.resize(out.len() + run as usize, v);
            }
            if pos != payload.len() {
                return Err(bad_data("trailing bytes in RLE column".into()));
            }
            Ok(out)
        }
        other => Err(bad_data(format!("unknown byte-column encoding {other}"))),
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// A [`LogSink`] that streams records to a binary columnar file instead of
/// holding them in memory. See the module documentation for the formats.
///
/// I/O failures are deferred: the `LogSink` methods are infallible by
/// signature, so the first error is stored and surfaced by
/// [`SpillSink::finish`] (recording becomes a no-op in between).
#[derive(Debug)]
pub struct SpillSink<W: Write> {
    out: W,
    codec: SpillCodec,
    frame_cap: usize,
    ops: Vec<OpRecord>,
    sessions: Vec<SessionRecord>,
    /// Ops recorded over the sink's whole life (buffered + flushed), for
    /// the end-of-stream marker.
    ops_total: u64,
    /// Sessions recorded over the sink's whole life.
    sessions_total: u64,
    /// Byte offset the next frame will land at (every frame writer reports
    /// its exact size), feeding the index entries.
    pos: u64,
    /// Per-frame index entries for the footer; `None` once
    /// [`SpillSink::without_index`] disabled it.
    index: Option<Vec<FrameIndexEntry>>,
    error: Option<io::Error>,
}

impl SpillSink<BufWriter<File>> {
    /// Creates (truncating) `path` and returns a sink spilling into it with
    /// the default (compressed, v2) codec.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created or
    /// the header written.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Self::create_with(path, SpillCodec::default())
    }

    /// [`SpillSink::create`] with an explicit codec.
    ///
    /// # Errors
    ///
    /// As for [`SpillSink::create`].
    pub fn create_with<P: AsRef<Path>>(path: P, codec: SpillCodec) -> io::Result<Self> {
        Self::with_codec(BufWriter::new(File::create(path)?), codec)
    }
}

impl<W: Write> SpillSink<W> {
    /// Wraps a writer with the default (compressed, v2) codec, emitting the
    /// format header immediately.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the header write fails.
    pub fn new(out: W) -> io::Result<Self> {
        Self::with_codec(out, SpillCodec::default())
    }

    /// Wraps a writer with an explicit codec.
    ///
    /// # Errors
    ///
    /// As for [`SpillSink::new`].
    pub fn with_codec(out: W, codec: SpillCodec) -> io::Result<Self> {
        Self::with_options(out, codec, FRAME_CAP)
    }

    /// Wraps a writer with an explicit codec and frame capacity (clamped to
    /// `1..=FRAME_CAP`). Smaller frames trade compression ratio for less
    /// buffered memory; tests use tiny frames to cross many boundaries
    /// cheaply.
    ///
    /// # Errors
    ///
    /// As for [`SpillSink::new`].
    pub fn with_options(mut out: W, codec: SpillCodec, frame_cap: usize) -> io::Result<Self> {
        out.write_all(match codec {
            SpillCodec::Raw => MAGIC_V1,
            SpillCodec::Compressed => MAGIC_V2,
        })?;
        let frame_cap = frame_cap.clamp(1, FRAME_CAP);
        Ok(Self {
            out,
            codec,
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

    /// The codec this sink writes.
    pub fn codec(&self) -> SpillCodec {
        self.codec
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
    /// instead — a crashed run) is rejected by [`read_spill`] as truncated.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error encountered at any point of the sink's
    /// life (including deferred mid-run failures).
    pub fn finish(mut self) -> io::Result<W> {
        self.flush_ops();
        self.flush_sessions();
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

    /// Records one flushed frame in the index (when enabled): `times`
    /// yields the completion time of every record in the frame.
    fn note_frame(&mut self, offset: u64, tag: u8, records: usize, times: (u64, u64)) {
        if let Some(index) = &mut self.index {
            index.push(FrameIndexEntry {
                offset,
                tag,
                records: records as u32, // frame_cap ≤ FRAME_CAP ≪ u32::MAX
                min_time: times.0,
                max_time: times.1,
            });
        }
    }

    fn flush_ops(&mut self) {
        if self.ops.is_empty() || self.error.is_some() {
            self.ops.clear();
            return;
        }
        let offset = self.pos;
        let result = match self.codec {
            SpillCodec::Raw => write_op_frame_v1(&mut self.out, &self.ops),
            SpillCodec::Compressed => write_op_frame_v2(&mut self.out, &self.ops),
        };
        match result {
            Ok(written) => {
                self.pos += written;
                let tag = if frame_has_faults(&self.ops) {
                    TAG_OPS_FAULTS
                } else {
                    TAG_OPS
                };
                let times = min_max(self.ops.iter().map(|o| o.at));
                let records = self.ops.len();
                self.note_frame(offset, tag, records, times);
            }
            Err(e) => self.error = Some(e),
        }
        self.ops.clear();
    }

    fn flush_sessions(&mut self) {
        if self.sessions.is_empty() || self.error.is_some() {
            self.sessions.clear();
            return;
        }
        let offset = self.pos;
        let result = match self.codec {
            SpillCodec::Raw => write_session_frame_v1(&mut self.out, &self.sessions),
            SpillCodec::Compressed => write_session_frame_v2(&mut self.out, &self.sessions),
        };
        match result {
            Ok(written) => {
                self.pos += written;
                let times = min_max(self.sessions.iter().map(|s| s.end));
                let records = self.sessions.len();
                self.note_frame(offset, TAG_SESSIONS, records, times);
            }
            Err(e) => self.error = Some(e),
        }
        self.sessions.clear();
    }
}

/// `(min, max)` of a non-empty iterator (frames are never flushed empty).
fn min_max(values: impl Iterator<Item = u64>) -> (u64, u64) {
    values.fold((u64::MAX, 0), |(lo, hi), v| (lo.min(v), hi.max(v)))
}

impl<W: Write> LogSink for SpillSink<W> {
    fn record_op(&mut self, op: &OpRecord) {
        self.ops_total += 1;
        self.ops.push(*op);
        if self.ops.len() >= self.frame_cap {
            self.flush_ops();
        }
    }

    fn record_session(&mut self, session: &SessionRecord) {
        self.sessions_total += 1;
        self.sessions.push(*session);
        if self.sessions.len() >= self.frame_cap {
            self.flush_sessions();
        }
    }
}

/// Writes one column of `u64` values (v1).
fn write_u64s<W: Write>(out: &mut W, values: impl Iterator<Item = u64>) -> io::Result<()> {
    for v in values {
        out.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Writes one column of `u32` values (v1).
fn write_u32s<W: Write>(out: &mut W, values: impl Iterator<Item = u32>) -> io::Result<()> {
    for v in values {
        out.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Writes one column of `u8` values (v1).
fn write_u8s<W: Write>(out: &mut W, values: impl Iterator<Item = u8>) -> io::Result<()> {
    for v in values {
        out.write_all(&[v])?;
    }
    Ok(())
}

fn write_frame_header<W: Write>(out: &mut W, tag: u8, count: usize) -> io::Result<()> {
    let count = u32::try_from(count).map_err(|_| bad_data("frame too large".into()))?;
    out.write_all(&[tag])?;
    out.write_all(&count.to_le_bytes())
}

/// Whether a buffered op frame needs the fault-outcome tag: any record
/// with a non-default outcome promotes the whole frame.
fn frame_has_faults(ops: &[OpRecord]) -> bool {
    ops.iter().any(|o| o.retries != 0 || o.aborted)
}

/// Fixed v1 bytes per record for `tag` — the sum of the column widths,
/// shared by the writer (frame sizes for the index) and the reader
/// (structural skip).
fn v1_row_bytes(tag: u8) -> u64 {
    match tag {
        TAG_OPS => 6 * 8 + 4 + 2,                // six u64s, one u32, two u8s
        TAG_OPS_FAULTS => 6 * 8 + 4 + 2 + 4 + 1, // + retries u32, aborted u8
        _ => 11 * 8 + 4,                         // eleven u64s, one u32
    }
}

/// Frame writers return the exact bytes written, so [`SpillSink`] can track
/// byte offsets for the index footer without a counting writer.
fn write_op_frame_v1<W: Write>(out: &mut W, ops: &[OpRecord]) -> io::Result<u64> {
    let faulted = frame_has_faults(ops);
    let tag = if faulted { TAG_OPS_FAULTS } else { TAG_OPS };
    write_frame_header(out, tag, ops.len())?;
    write_u64s(out, ops.iter().map(|o| o.at))?;
    write_u64s(out, ops.iter().map(|o| o.user as u64))?;
    write_u32s(out, ops.iter().map(|o| o.session))?;
    write_u8s(out, ops.iter().map(|o| encode_op(o.op)))?;
    write_u64s(out, ops.iter().map(|o| o.ino))?;
    write_u64s(out, ops.iter().map(|o| o.bytes))?;
    write_u64s(out, ops.iter().map(|o| o.file_size))?;
    write_u64s(out, ops.iter().map(|o| o.response))?;
    write_u8s(out, ops.iter().map(|o| encode_category(o.category)))?;
    if faulted {
        write_u32s(out, ops.iter().map(|o| o.retries))?;
        write_u8s(out, ops.iter().map(|o| u8::from(o.aborted)))?;
    }
    Ok(5 + v1_row_bytes(tag) * ops.len() as u64)
}

fn write_session_frame_v1<W: Write>(out: &mut W, sessions: &[SessionRecord]) -> io::Result<u64> {
    write_frame_header(out, TAG_SESSIONS, sessions.len())?;
    write_u64s(out, sessions.iter().map(|s| s.user as u64))?;
    write_u64s(out, sessions.iter().map(|s| s.user_type as u64))?;
    write_u32s(out, sessions.iter().map(|s| s.session))?;
    write_u64s(out, sessions.iter().map(|s| s.start))?;
    write_u64s(out, sessions.iter().map(|s| s.end))?;
    write_u64s(out, sessions.iter().map(|s| s.ops))?;
    write_u64s(out, sessions.iter().map(|s| s.files_referenced))?;
    write_u64s(out, sessions.iter().map(|s| s.file_bytes_referenced))?;
    write_u64s(out, sessions.iter().map(|s| s.bytes_accessed))?;
    write_u64s(out, sessions.iter().map(|s| s.bytes_read))?;
    write_u64s(out, sessions.iter().map(|s| s.bytes_written))?;
    write_u64s(out, sessions.iter().map(|s| s.total_response))?;
    Ok(5 + v1_row_bytes(TAG_SESSIONS) * sessions.len() as u64)
}

/// Writes a whole v2 frame: header, CRC over header + body, body. Returns
/// the bytes written.
fn write_frame_v2<W: Write>(out: &mut W, tag: u8, count: usize, body: &[u8]) -> io::Result<u64> {
    let count = u32::try_from(count).map_err(|_| bad_data("frame too large".into()))?;
    let mut crc = Crc32::new();
    crc.update(&[tag]);
    crc.update(&count.to_le_bytes());
    crc.update(body);
    out.write_all(&[tag])?;
    out.write_all(&count.to_le_bytes())?;
    out.write_all(&crc.finish().to_le_bytes())?;
    out.write_all(body)?;
    Ok(9 + body.len() as u64)
}

fn write_op_frame_v2<W: Write>(out: &mut W, ops: &[OpRecord]) -> io::Result<u64> {
    let faulted = frame_has_faults(ops);
    let mut body = Vec::new();
    push_delta_col(&mut body, ops.iter().map(|o| o.at));
    push_delta_col(&mut body, ops.iter().map(|o| o.user as u64));
    push_delta_col(&mut body, ops.iter().map(|o| o.session as u64));
    let op_codes: Vec<u8> = ops.iter().map(|o| encode_op(o.op)).collect();
    push_u8_col(&mut body, &op_codes);
    push_delta_col(&mut body, ops.iter().map(|o| o.ino));
    push_delta_col(&mut body, ops.iter().map(|o| o.bytes));
    push_delta_col(&mut body, ops.iter().map(|o| o.file_size));
    push_delta_col(&mut body, ops.iter().map(|o| o.response));
    let cat_codes: Vec<u8> = ops.iter().map(|o| encode_category(o.category)).collect();
    push_u8_col(&mut body, &cat_codes);
    if faulted {
        push_delta_col(&mut body, ops.iter().map(|o| u64::from(o.retries)));
        let aborted: Vec<u8> = ops.iter().map(|o| u8::from(o.aborted)).collect();
        push_u8_col(&mut body, &aborted);
    }
    let tag = if faulted { TAG_OPS_FAULTS } else { TAG_OPS };
    write_frame_v2(out, tag, ops.len(), &body)
}

fn write_session_frame_v2<W: Write>(out: &mut W, sessions: &[SessionRecord]) -> io::Result<u64> {
    let mut body = Vec::new();
    push_delta_col(&mut body, sessions.iter().map(|s| s.user as u64));
    push_delta_col(&mut body, sessions.iter().map(|s| s.user_type as u64));
    push_delta_col(&mut body, sessions.iter().map(|s| s.session as u64));
    push_delta_col(&mut body, sessions.iter().map(|s| s.start));
    push_delta_col(&mut body, sessions.iter().map(|s| s.end));
    push_delta_col(&mut body, sessions.iter().map(|s| s.ops));
    push_delta_col(&mut body, sessions.iter().map(|s| s.files_referenced));
    push_delta_col(&mut body, sessions.iter().map(|s| s.file_bytes_referenced));
    push_delta_col(&mut body, sessions.iter().map(|s| s.bytes_accessed));
    push_delta_col(&mut body, sessions.iter().map(|s| s.bytes_read));
    push_delta_col(&mut body, sessions.iter().map(|s| s.bytes_written));
    push_delta_col(&mut body, sessions.iter().map(|s| s.total_response));
    write_frame_v2(out, TAG_SESSIONS, sessions.len(), &body)
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// One decoded column of `u64` values (v1).
fn read_u64s<R: Read>(r: &mut R, count: usize) -> io::Result<Vec<u64>> {
    let mut raw = vec![0u8; count * 8];
    r.read_exact(&mut raw)?;
    Ok(raw
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
        .collect())
}

fn read_u32s<R: Read>(r: &mut R, count: usize) -> io::Result<Vec<u32>> {
    let mut raw = vec![0u8; count * 4];
    r.read_exact(&mut raw)?;
    Ok(raw
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("chunk of 4")))
        .collect())
}

fn read_u8s<R: Read>(r: &mut R, count: usize) -> io::Result<Vec<u8>> {
    let mut raw = vec![0u8; count];
    r.read_exact(&mut raw)?;
    Ok(raw)
}

/// Narrows a decoded u64 column value back to u32 (the session column).
fn narrow_u32(v: u64) -> io::Result<u32> {
    u32::try_from(v).map_err(|_| bad_data(format!("session ordinal {v} exceeds u32")))
}

/// Decodes the 0/1 aborted column, rejecting other values (corruption —
/// v1 has no CRC, so the strict check is its only line of defence).
fn decode_aborted(code: u8) -> io::Result<bool> {
    match code {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(bad_data(format!("aborted flag {other} is not 0/1"))),
    }
}

fn read_op_frame_v1<R: Read>(r: &mut R, count: usize, faulted: bool) -> io::Result<Vec<OpRecord>> {
    let at = read_u64s(r, count)?;
    let user = read_u64s(r, count)?;
    let session = read_u32s(r, count)?;
    let op = read_u8s(r, count)?;
    let ino = read_u64s(r, count)?;
    let bytes = read_u64s(r, count)?;
    let file_size = read_u64s(r, count)?;
    let response = read_u64s(r, count)?;
    let category = read_u8s(r, count)?;
    let (retries, aborted) = if faulted {
        (read_u32s(r, count)?, read_u8s(r, count)?)
    } else {
        (Vec::new(), Vec::new())
    };
    (0..count)
        .map(|i| {
            Ok(OpRecord {
                at: at[i],
                user: user[i] as usize,
                session: session[i],
                op: decode_op(op[i])?,
                ino: ino[i],
                bytes: bytes[i],
                file_size: file_size[i],
                response: response[i],
                category: decode_category(category[i])?,
                retries: if faulted { retries[i] } else { 0 },
                aborted: if faulted {
                    decode_aborted(aborted[i])?
                } else {
                    false
                },
            })
        })
        .collect()
}

fn read_session_frame_v1<R: Read>(r: &mut R, count: usize) -> io::Result<Vec<SessionRecord>> {
    let user = read_u64s(r, count)?;
    let user_type = read_u64s(r, count)?;
    let session = read_u32s(r, count)?;
    let start = read_u64s(r, count)?;
    let end = read_u64s(r, count)?;
    let ops = read_u64s(r, count)?;
    let files_referenced = read_u64s(r, count)?;
    let file_bytes_referenced = read_u64s(r, count)?;
    let bytes_accessed = read_u64s(r, count)?;
    let bytes_read = read_u64s(r, count)?;
    let bytes_written = read_u64s(r, count)?;
    let total_response = read_u64s(r, count)?;
    Ok((0..count)
        .map(|i| SessionRecord {
            user: user[i] as usize,
            user_type: user_type[i] as usize,
            session: session[i],
            start: start[i],
            end: end[i],
            ops: ops[i],
            files_referenced: files_referenced[i],
            file_bytes_referenced: file_bytes_referenced[i],
            bytes_accessed: bytes_accessed[i],
            bytes_read: bytes_read[i],
            bytes_written: bytes_written[i],
            total_response: total_response[i],
        })
        .collect())
}

/// Reads the length-prefixed encoded bytes of one v2 column, feeding the
/// prefix and payload into the running CRC. `max_len` bounds the
/// allocation: a corrupt length fails cleanly before any oversized buffer.
fn read_v2_col<R: Read>(r: &mut R, crc: &mut Crc32, max_len: usize) -> io::Result<Vec<u8>> {
    let mut len_raw = [0u8; 4];
    r.read_exact(&mut len_raw)?;
    crc.update(&len_raw);
    let len = u32::from_le_bytes(len_raw) as usize;
    if len > max_len {
        return Err(bad_data(format!(
            "column length {len} exceeds the bound {max_len}"
        )));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    crc.update(&buf);
    Ok(buf)
}

/// Varint of a u64 is at most 10 bytes; the per-value bound on an integer
/// column's encoded length.
const MAX_VARINT: usize = 10;

/// Reads a whole v2 frame's columns and verifies the CRC *before* any
/// decoding: `n_int` integer columns and `n_u8` byte columns arrive
/// interleaved per `layout` (false = integer, true = byte column).
fn read_v2_columns<R: Read>(
    r: &mut R,
    tag: u8,
    count: usize,
    layout: &[bool],
) -> io::Result<Vec<Vec<u8>>> {
    let mut stored = [0u8; 4];
    r.read_exact(&mut stored)?;
    let stored = u32::from_le_bytes(stored);
    let mut crc = Crc32::new();
    crc.update(&[tag]);
    crc.update(&(count as u32).to_le_bytes());
    let mut cols = Vec::with_capacity(layout.len());
    for &is_u8 in layout {
        let max_len = if is_u8 {
            // flag + worst-case RLE (value byte + varint run each); the
            // writer never exceeds 1 + count, but stay permissive within
            // the same O(count) bound.
            1 + count * (1 + MAX_VARINT)
        } else {
            count * MAX_VARINT
        };
        cols.push(read_v2_col(r, &mut crc, max_len)?);
    }
    if crc.finish() != stored {
        return Err(bad_data(
            "frame checksum mismatch: the spill file is corrupt".into(),
        ));
    }
    Ok(cols)
}

/// Column layout of a v2 op frame (false = delta-varint, true = bytes).
const OP_LAYOUT: [bool; 9] = [false, false, false, true, false, false, false, false, true];
/// Column layout of a v2 op frame with fault outcomes: the op columns plus
/// retries (delta-varint) and aborted (bytes).
const OP_FAULTS_LAYOUT: [bool; 11] = [
    false, false, false, true, false, false, false, false, true, false, true,
];
/// Column layout of a v2 session frame.
const SESSION_LAYOUT: [bool; 12] = [false; 12];

fn read_op_frame_v2<R: Read>(r: &mut R, count: usize, faulted: bool) -> io::Result<Vec<OpRecord>> {
    let (tag, layout): (u8, &[bool]) = if faulted {
        (TAG_OPS_FAULTS, &OP_FAULTS_LAYOUT)
    } else {
        (TAG_OPS, &OP_LAYOUT)
    };
    let cols = read_v2_columns(r, tag, count, layout)?;
    let at = decode_delta_col(&cols[0], count)?;
    let user = decode_delta_col(&cols[1], count)?;
    let session = decode_delta_col(&cols[2], count)?;
    let op = decode_u8_col(&cols[3], count)?;
    let ino = decode_delta_col(&cols[4], count)?;
    let bytes = decode_delta_col(&cols[5], count)?;
    let file_size = decode_delta_col(&cols[6], count)?;
    let response = decode_delta_col(&cols[7], count)?;
    let category = decode_u8_col(&cols[8], count)?;
    let (retries, aborted) = if faulted {
        (
            decode_delta_col(&cols[9], count)?,
            decode_u8_col(&cols[10], count)?,
        )
    } else {
        (Vec::new(), Vec::new())
    };
    (0..count)
        .map(|i| {
            Ok(OpRecord {
                at: at[i],
                user: user[i] as usize,
                session: narrow_u32(session[i])?,
                op: decode_op(op[i])?,
                ino: ino[i],
                bytes: bytes[i],
                file_size: file_size[i],
                response: response[i],
                category: decode_category(category[i])?,
                retries: if faulted {
                    u32::try_from(retries[i])
                        .map_err(|_| bad_data(format!("retry count {} exceeds u32", retries[i])))?
                } else {
                    0
                },
                aborted: if faulted {
                    decode_aborted(aborted[i])?
                } else {
                    false
                },
            })
        })
        .collect()
}

fn read_session_frame_v2<R: Read>(r: &mut R, count: usize) -> io::Result<Vec<SessionRecord>> {
    let cols = read_v2_columns(r, TAG_SESSIONS, count, &SESSION_LAYOUT)?;
    let decoded: Vec<Vec<u64>> = cols
        .iter()
        .map(|c| decode_delta_col(c, count))
        .collect::<io::Result<_>>()?;
    (0..count)
        .map(|i| {
            Ok(SessionRecord {
                user: decoded[0][i] as usize,
                user_type: decoded[1][i] as usize,
                session: narrow_u32(decoded[2][i])?,
                start: decoded[3][i],
                end: decoded[4][i],
                ops: decoded[5][i],
                files_referenced: decoded[6][i],
                file_bytes_referenced: decoded[7][i],
                bytes_accessed: decoded[8][i],
                bytes_read: decoded[9][i],
                bytes_written: decoded[10][i],
                total_response: decoded[11][i],
            })
        })
        .collect()
}

/// One record yielded by a [`SpillReader`]: the stream interleaves the two
/// kinds at frame granularity, preserving each kind's recording order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpillRecord {
    /// An executed operation.
    Op(OpRecord),
    /// A completed session.
    Session(SessionRecord),
}

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
    /// When set, only frames with this tag are decoded; the other kind is
    /// skipped structurally (headers parsed, bodies never decoded).
    keep: Option<u8>,
    ops_seen: u64,
    sessions_seen: u64,
    pending: std::vec::IntoIter<SpillRecord>,
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
            keep: None,
            ops_seen: 0,
            sessions_seen: 0,
            pending: Vec::new().into_iter(),
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
    /// only want one record kind (the sharded k-way merge reads every
    /// file once per kind). Skipped frames' checksums are not verified;
    /// a pass that consumes the other kind (or [`read_spill`]) still
    /// verifies them.
    pub fn ops_only(mut self) -> Self {
        self.keep = Some(TAG_OPS);
        self
    }

    /// Restricts iteration to session records; op frames are skipped
    /// structurally (see [`SpillReader::ops_only`]).
    pub fn sessions_only(mut self) -> Self {
        self.keep = Some(TAG_SESSIONS);
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
        let mut first = [0u8; 1];
        match self.r.read_exact(&mut first) {
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
            Ok(()) => {}
        }
        if first[0] != MAGIC_INDEX[0] {
            return Err(bad_data(format!(
                "trailing byte {:#04x} after the end-of-stream marker",
                first[0]
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
        let mut extra = [0u8; 1];
        match self.r.read_exact(&mut extra) {
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(()),
            Err(e) => Err(e),
            Ok(()) => Err(bad_data(
                "trailing bytes after the index trailer".to_string(),
            )),
        }
    }

    /// Consumes exactly `n` bytes of the underlying reader without
    /// decoding them, erroring on a short stream.
    fn skip_exact(&mut self, n: u64) -> io::Result<()> {
        let copied = io::copy(&mut self.r.by_ref().take(n), &mut io::sink())?;
        if copied != n {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "spill stream truncated inside a skipped frame",
            ));
        }
        Ok(())
    }

    /// Skips one frame body (everything after tag + count) without
    /// decoding it: fixed-width arithmetic for v1, length-prefix hops for
    /// v2.
    fn skip_frame(&mut self, tag: u8, count: usize) -> io::Result<()> {
        match self.codec {
            SpillCodec::Raw => self.skip_exact(v1_row_bytes(tag) * count as u64),
            SpillCodec::Compressed => {
                self.skip_exact(4)?; // the frame CRC
                let columns = match tag {
                    TAG_OPS => OP_LAYOUT.len(),
                    TAG_OPS_FAULTS => OP_FAULTS_LAYOUT.len(),
                    _ => SESSION_LAYOUT.len(),
                };
                for _ in 0..columns {
                    let mut len_raw = [0u8; 4];
                    self.r.read_exact(&mut len_raw)?;
                    let len = u32::from_le_bytes(len_raw) as u64;
                    // Same bound as the decoding path: a corrupt length
                    // must not skip an unbounded distance into the stream.
                    if len > (count * (1 + MAX_VARINT)) as u64 + 1 {
                        return Err(bad_data(format!(
                            "column length {len} exceeds the bound while skipping"
                        )));
                    }
                    self.skip_exact(len)?;
                }
                Ok(())
            }
        }
    }

    /// Decodes frames until a record is available, the validated end of the
    /// stream, or an error.
    fn next_record(&mut self) -> io::Result<Option<SpillRecord>> {
        loop {
            if let Some(record) = self.pending.next() {
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
            let mut tag = [0u8; 1];
            match self.r.read_exact(&mut tag) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                    // Truncation, not corruption: every record already
                    // yielded came from an intact frame, which is what
                    // `uswg analyze --salvage` relies on to distinguish a
                    // killed writer (recoverable prefix) from a damaged one.
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "spill stream ends without its end-of-stream marker: \
                         the writing run did not finish, so the log is incomplete",
                    ));
                }
                Err(e) => return Err(e),
            }
            if tag[0] == TAG_END {
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
            let mut count_raw = [0u8; 4];
            self.r.read_exact(&mut count_raw)?;
            let count = u32::from_le_bytes(count_raw) as usize;
            // The writer never emits more than FRAME_CAP records per frame,
            // so a larger count is corruption — reject it before the
            // per-column allocations turn a flipped bit into an OOM.
            if count > FRAME_CAP {
                return Err(bad_data(format!(
                    "frame count {count} exceeds the format maximum {FRAME_CAP}"
                )));
            }
            let tag = match tag[0] {
                TAG_OPS | TAG_SESSIONS | TAG_OPS_FAULTS => tag[0],
                other => return Err(bad_data(format!("unknown frame tag {other}"))),
            };
            if let Some(n) = &mut self.frames_left {
                *n -= 1;
            }
            // Record the frame's count whether decoded or skipped, so the
            // end-of-stream totals always reconcile. Both op tags feed the
            // one op total.
            if tag == TAG_SESSIONS {
                self.sessions_seen += count as u64;
            } else {
                self.ops_seen += count as u64;
            }
            // `keep` filters by record kind: either op tag passes an
            // ops-only filter.
            let wanted = match self.keep {
                None => true,
                Some(TAG_SESSIONS) => tag == TAG_SESSIONS,
                Some(_) => tag != TAG_SESSIONS,
            };
            if !wanted {
                self.skip_frame(tag, count)?;
                continue;
            }
            let records: Vec<SpillRecord> = match (tag, self.codec) {
                (TAG_SESSIONS, SpillCodec::Raw) => read_session_frame_v1(&mut self.r, count)?
                    .into_iter()
                    .map(SpillRecord::Session)
                    .collect(),
                (TAG_SESSIONS, SpillCodec::Compressed) => {
                    read_session_frame_v2(&mut self.r, count)?
                        .into_iter()
                        .map(SpillRecord::Session)
                        .collect()
                }
                (t, SpillCodec::Raw) => read_op_frame_v1(&mut self.r, count, t == TAG_OPS_FAULTS)?
                    .into_iter()
                    .map(SpillRecord::Op)
                    .collect(),
                (t, SpillCodec::Compressed) => {
                    read_op_frame_v2(&mut self.r, count, t == TAG_OPS_FAULTS)?
                        .into_iter()
                        .map(SpillRecord::Op)
                        .collect()
                }
            };
            self.pending = records.into_iter();
        }
    }
}

impl<R: Read + Seek> SpillReader<R> {
    /// Repositions the reader at a frame boundary taken from a
    /// [`FrameIndex`] and bounds it to decode exactly `frames` frames
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
        self.pending = Vec::new().into_iter();
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
        match self.next_record() {
            Ok(Some(record)) => Some(Ok(record)),
            Ok(None) => None,
            Err(e) => {
                self.state = ReaderState::Failed;
                Some(Err(e))
            }
        }
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
/// end-of-stream marker (the writer died before [`SpillSink::finish`] —
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_op(i: u64) -> OpRecord {
        OpRecord {
            at: i * 17,
            user: (i % 5) as usize,
            session: (i % 3) as u32,
            op: OpKind::ALL[(i % 8) as usize],
            ino: i,
            bytes: i * 100,
            file_size: i * 1000,
            response: i + 7,
            category: FileCategory::REG_USER_RDONLY,
            retries: 0,
            aborted: false,
        }
    }

    /// A record with a fault outcome, promoting its frame to the
    /// fault-outcome tag.
    fn faulted_op(i: u64) -> OpRecord {
        OpRecord {
            retries: (i % 4) as u32,
            aborted: i.is_multiple_of(5),
            ..sample_op(i)
        }
    }

    fn sample_session(i: u64) -> SessionRecord {
        SessionRecord {
            user: (i % 5) as usize,
            user_type: (i % 2) as usize,
            session: i as u32,
            start: i,
            end: i + 100,
            ops: i * 3,
            files_referenced: i,
            file_bytes_referenced: i * 512,
            bytes_accessed: i * 128,
            bytes_read: i * 96,
            bytes_written: i * 32,
            total_response: i * 11,
        }
    }

    #[test]
    fn category_codes_round_trip() {
        for t in [FileType::Dir, FileType::Reg, FileType::Notes] {
            for o in [Owner::User, Owner::Other] {
                for u in [
                    UsageClass::ReadOnly,
                    UsageClass::New,
                    UsageClass::ReadWrite,
                    UsageClass::Temp,
                ] {
                    let cat = FileCategory {
                        file_type: t,
                        owner: o,
                        usage: u,
                    };
                    assert_eq!(decode_category(encode_category(cat)).unwrap(), cat);
                }
            }
        }
        assert!(decode_category(24).is_err());
    }

    #[test]
    fn op_codes_round_trip() {
        for kind in OpKind::ALL {
            assert_eq!(decode_op(encode_op(kind)).unwrap(), kind);
        }
        assert!(decode_op(8).is_err());
    }

    #[test]
    fn varint_and_zigzag_round_trip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(take_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        for d in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
        // A truncated varint errors instead of panicking.
        assert!(take_varint(&[0x80], &mut 0).is_err());
        // An 11-byte encoding overflows u64.
        let over = [0xFFu8; 10];
        assert!(take_varint(&over, &mut 0).is_err());
    }

    #[test]
    fn delta_column_round_trips_extremes() {
        let values = [0u64, u64::MAX, 1, u64::MAX / 2, 0, 3, 3, 3];
        let mut body = Vec::new();
        push_delta_col(&mut body, values.iter().copied());
        let len = u32::from_le_bytes(body[..4].try_into().unwrap()) as usize;
        assert_eq!(len, body.len() - 4);
        assert_eq!(
            decode_delta_col(&body[4..], values.len()).unwrap(),
            values.to_vec()
        );
        // Trailing garbage in a column is rejected.
        let mut padded = body[4..].to_vec();
        padded.push(0);
        assert!(decode_delta_col(&padded, values.len()).is_err());
    }

    #[test]
    fn u8_column_picks_the_smaller_encoding() {
        // A long run compresses via RLE…
        let run = vec![7u8; 100];
        let mut body = Vec::new();
        push_u8_col(&mut body, &run);
        let len = u32::from_le_bytes(body[..4].try_into().unwrap()) as usize;
        assert!(len < run.len(), "run of 100 should RLE to a few bytes");
        assert_eq!(decode_u8_col(&body[4..], run.len()).unwrap(), run);
        // …while an alternating column falls back to the raw bytes.
        let alt: Vec<u8> = (0..100u8).map(|i| i % 2).collect();
        let mut body = Vec::new();
        push_u8_col(&mut body, &alt);
        let len = u32::from_le_bytes(body[..4].try_into().unwrap()) as usize;
        assert_eq!(len, 1 + alt.len(), "alternating bytes stay raw");
        assert_eq!(decode_u8_col(&body[4..], alt.len()).unwrap(), alt);
        // Corrupt RLE runs are rejected: zero-length and overlong.
        assert!(decode_u8_col(&[1, 7, 0], 3).is_err());
        assert!(decode_u8_col(&[1, 7, 9], 3).is_err());
        assert!(decode_u8_col(&[2, 0, 0], 2).is_err());
    }

    fn write_all(codec: SpillCodec, n_ops: u64) -> (Vec<u8>, UsageLog) {
        let mut sink = SpillSink::with_codec(Vec::new(), codec).unwrap();
        let mut expected = UsageLog::new();
        for i in 0..n_ops {
            let op = sample_op(i);
            sink.record_op(&op);
            expected.push_op(op);
            if i % 997 == 0 {
                let s = sample_session(i);
                sink.record_session(&s);
                expected.push_session(s);
            }
        }
        (sink.finish().unwrap(), expected)
    }

    #[test]
    fn round_trips_multiple_frames_both_codecs() {
        // 3 × FRAME_CAP ops forces mid-run frame flushes; interleaved
        // session records verify per-kind order is preserved.
        for codec in [SpillCodec::Raw, SpillCodec::Compressed] {
            let (bytes, expected) = write_all(codec, 3 * FRAME_CAP as u64 + 100);
            let back = read_spill(bytes.as_slice()).unwrap();
            assert_eq!(back.ops().len(), expected.ops().len());
            assert_eq!(back.sessions().len(), expected.sessions().len());
            // Byte-identical serialized form: the reconstruction is
            // lossless under either codec.
            assert_eq!(back.to_json().unwrap(), expected.to_json().unwrap());
        }
    }

    #[test]
    fn compressed_files_are_measurably_smaller() {
        let (raw, _) = write_all(SpillCodec::Raw, 2 * FRAME_CAP as u64);
        let (compressed, _) = write_all(SpillCodec::Compressed, 2 * FRAME_CAP as u64);
        assert!(
            (compressed.len() as f64) < 0.7 * raw.len() as f64,
            "compressed {} vs raw {}",
            compressed.len(),
            raw.len()
        );
    }

    #[test]
    fn v1_format_is_frozen_byte_for_byte() {
        // The raw codec must keep writing exactly the historical v1 layout,
        // so files from earlier releases and files from `SpillCodec::Raw`
        // are the same format. Reconstruct the expected bytes from the
        // documented layout by hand and compare.
        let ops = [sample_op(1), sample_op(2)];
        let session = sample_session(5);
        let mut sink = SpillSink::with_codec(Vec::new(), SpillCodec::Raw)
            .unwrap()
            .without_index();
        for op in &ops {
            sink.record_op(op);
        }
        sink.record_session(&session);
        let bytes = sink.finish().unwrap();

        let mut expected = MAGIC_V1.to_vec();
        expected.push(TAG_OPS);
        expected.extend_from_slice(&2u32.to_le_bytes());
        for o in &ops {
            expected.extend_from_slice(&o.at.to_le_bytes());
        }
        for o in &ops {
            expected.extend_from_slice(&(o.user as u64).to_le_bytes());
        }
        for o in &ops {
            expected.extend_from_slice(&o.session.to_le_bytes());
        }
        for o in &ops {
            expected.push(encode_op(o.op));
        }
        for o in &ops {
            expected.extend_from_slice(&o.ino.to_le_bytes());
        }
        for o in &ops {
            expected.extend_from_slice(&o.bytes.to_le_bytes());
        }
        for o in &ops {
            expected.extend_from_slice(&o.file_size.to_le_bytes());
        }
        for o in &ops {
            expected.extend_from_slice(&o.response.to_le_bytes());
        }
        for o in &ops {
            expected.push(encode_category(o.category));
        }
        expected.push(TAG_SESSIONS);
        expected.extend_from_slice(&1u32.to_le_bytes());
        for v in [session.user as u64, session.user_type as u64] {
            expected.extend_from_slice(&v.to_le_bytes());
        }
        expected.extend_from_slice(&session.session.to_le_bytes());
        for v in [
            session.start,
            session.end,
            session.ops,
            session.files_referenced,
            session.file_bytes_referenced,
            session.bytes_accessed,
            session.bytes_read,
            session.bytes_written,
            session.total_response,
        ] {
            expected.extend_from_slice(&v.to_le_bytes());
        }
        expected.push(TAG_END);
        expected.extend_from_slice(&2u64.to_le_bytes());
        expected.extend_from_slice(&1u64.to_le_bytes());
        assert_eq!(bytes, expected, "v1 byte layout must stay frozen");
        // And it reads back losslessly.
        let back = read_spill(bytes.as_slice()).unwrap();
        assert_eq!(back.ops().len(), 2);
        assert_eq!(back.sessions().len(), 1);
    }

    #[test]
    fn fault_outcomes_round_trip_both_codecs() {
        // Mixed stream: clean frames keep the plain tag, frames holding
        // any non-default outcome carry the fault columns; both read back
        // losslessly and interleave correctly with session frames.
        for codec in [SpillCodec::Raw, SpillCodec::Compressed] {
            let mut sink = SpillSink::with_options(Vec::new(), codec, 4).unwrap();
            let mut expected = UsageLog::new();
            for i in 0..40 {
                // First half clean, second half faulted: the 4-record
                // frames cross both kinds of op frame.
                let op = if i < 20 { sample_op(i) } else { faulted_op(i) };
                sink.record_op(&op);
                expected.push_op(op);
                if i % 7 == 0 {
                    let s = sample_session(i);
                    sink.record_session(&s);
                    expected.push_session(s);
                }
            }
            let bytes = sink.finish().unwrap();
            let back = read_spill(bytes.as_slice()).unwrap();
            assert_eq!(
                back.to_json().unwrap(),
                expected.to_json().unwrap(),
                "{codec:?}"
            );
            // Filtered readers handle (decode and skip) both op tags.
            let ops: Vec<OpRecord> = SpillReader::new(bytes.as_slice())
                .unwrap()
                .ops_only()
                .map(|r| match r.unwrap() {
                    SpillRecord::Op(op) => op,
                    SpillRecord::Session(_) => panic!("sessions were filtered out"),
                })
                .collect();
            assert_eq!(ops, expected.ops(), "{codec:?}");
            let sessions: Vec<SessionRecord> = SpillReader::new(bytes.as_slice())
                .unwrap()
                .sessions_only()
                .map(|r| match r.unwrap() {
                    SpillRecord::Session(s) => s,
                    SpillRecord::Op(_) => panic!("ops were filtered out"),
                })
                .collect();
            assert_eq!(sessions, expected.sessions(), "{codec:?}");
        }
    }

    #[test]
    fn default_outcomes_never_change_the_byte_stream() {
        // Records whose outcome fields hold the defaults must produce a
        // file indistinguishable from one written by a pre-fault release:
        // the same bytes, under both codecs.
        for codec in [SpillCodec::Raw, SpillCodec::Compressed] {
            // `frame_has_faults` gates the tag choice: all-default frames
            // take the historical tag…
            assert!(!frame_has_faults(&[sample_op(3), sample_op(4)]));
            assert!(frame_has_faults(&[sample_op(3), faulted_op(21)]));
            // …so decoding a clean stream and re-writing it reproduces the
            // original file byte for byte (no fault frames appear).
            let (bytes, _) = write_all(codec, 200);
            let log = read_spill(bytes.as_slice()).unwrap();
            let mut rewrite = SpillSink::with_codec(Vec::new(), codec).unwrap();
            for op in log.ops() {
                rewrite.record_op(op);
            }
            for s in log.sessions() {
                rewrite.record_session(s);
            }
            assert_eq!(rewrite.finish().unwrap(), bytes, "{codec:?}");
        }
    }

    #[test]
    fn v2_fault_frames_detect_bit_flips() {
        let mut sink = SpillSink::with_codec(Vec::new(), SpillCodec::Compressed).unwrap();
        for i in 0..32 {
            sink.record_op(&faulted_op(i));
        }
        let bytes = sink.finish().unwrap();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                assert!(
                    read_spill(flipped.as_slice()).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn v1_rejects_non_boolean_aborted() {
        // Build a valid v1 fault frame, then corrupt the aborted column:
        // the strict 0/1 decode is v1's only integrity check.
        let mut sink = SpillSink::with_codec(Vec::new(), SpillCodec::Raw)
            .unwrap()
            .without_index();
        sink.record_op(&faulted_op(21)); // retries 1, not aborted
        let mut bytes = sink.finish().unwrap();
        let aborted_at = bytes.len() - 17 - 1; // last column byte before the end marker
        assert_eq!(bytes[aborted_at], 0);
        bytes[aborted_at] = 7;
        let err = read_spill(bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("aborted flag"), "{err}");
    }

    #[test]
    fn empty_run_round_trips() {
        let sink = SpillSink::new(Vec::new()).unwrap();
        let bytes = sink.finish().unwrap();
        // Header, the sealed end marker (tag + two u64 totals), then the
        // empty index footer and its fixed-size trailer.
        assert_eq!(
            bytes.len(),
            MAGIC_V2.len() + 1 + 16 + INDEX_FIXED_BYTES + TRAILER_BYTES
        );
        assert_eq!(&bytes[..8], MAGIC_V2);
        let back = read_spill(bytes.as_slice()).unwrap();
        assert!(back.ops().is_empty());
        assert!(back.sessions().is_empty());
        // Without the index the file is exactly the pre-footer layout.
        let bare = SpillSink::new(Vec::new())
            .unwrap()
            .without_index()
            .finish()
            .unwrap();
        assert_eq!(bare.len(), MAGIC_V2.len() + 1 + 16);
        assert_eq!(bare, bytes[..bare.len()]);
        assert!(read_spill(bare.as_slice()).unwrap().ops().is_empty());
    }

    #[test]
    fn unsealed_stream_is_rejected_as_truncated() {
        // A writer that dies before finish() leaves frames but no end
        // marker — that must not read back as a clean (but partial) log.
        let mut sink = SpillSink::new(Vec::new()).unwrap().without_index();
        for i in 0..10 {
            sink.record_op(&sample_op(i));
        }
        let bytes = sink.finish().unwrap();
        let unsealed = &bytes[..bytes.len() - 17]; // strip the end marker
        let err = read_spill(unsealed).unwrap_err();
        // Truncation is UnexpectedEof (salvageable), not InvalidData.
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("end-of-stream"), "{err}");
        // A marker whose counts disagree with the frames is also rejected.
        let mut lying = unsealed.to_vec();
        lying.push(TAG_END);
        lying.extend_from_slice(&99u64.to_le_bytes());
        lying.extend_from_slice(&0u64.to_le_bytes());
        let err = read_spill(lying.as_slice()).unwrap_err();
        assert!(err.to_string().contains("promises"), "{err}");
    }

    #[test]
    fn trailing_garbage_after_the_end_marker_is_rejected() {
        // The historical bug: a valid stream + junk read back clean. Both
        // the streaming and collecting readers must now reject it, with
        // and without an index footer in between.
        for indexed in [false, true] {
            for codec in [SpillCodec::Raw, SpillCodec::Compressed] {
                let mut sink = SpillSink::with_codec(Vec::new(), codec).unwrap();
                if !indexed {
                    sink = sink.without_index();
                }
                for i in 0..10 {
                    sink.record_op(&sample_op(i));
                }
                let mut bytes = sink.finish().unwrap();
                assert!(read_spill(bytes.as_slice()).is_ok());
                bytes.push(0xA5);
                let err = read_spill(bytes.as_slice()).unwrap_err();
                assert_eq!(
                    err.kind(),
                    io::ErrorKind::InvalidData,
                    "{indexed} {codec:?}"
                );
                let mut reader = SpillReader::new(bytes.as_slice()).unwrap();
                let last = (&mut reader).last().expect("at least one item");
                assert!(last.is_err(), "streaming reader accepted garbage");
                // The records themselves were all intact: salvage callers
                // can still tell this apart from mid-stream damage.
                assert!(reader.stream_complete());
            }
        }
    }

    #[test]
    fn index_footer_round_trips_and_matches_the_stream() {
        for codec in [SpillCodec::Raw, SpillCodec::Compressed] {
            let mut sink = SpillSink::with_options(Vec::new(), codec, 8).unwrap();
            let mut expected = UsageLog::new();
            for i in 0..50 {
                let op = if i < 25 { sample_op(i) } else { faulted_op(i) };
                sink.record_op(&op);
                expected.push_op(op);
                if i % 9 == 0 {
                    let s = sample_session(i);
                    sink.record_session(&s);
                    expected.push_session(s);
                }
            }
            let bytes = sink.finish().unwrap();
            let index = FrameIndex::load(&mut io::Cursor::new(&bytes))
                .unwrap()
                .expect("footer present");
            assert_eq!(index.records(), 50 + 6, "{codec:?}");
            let (ops, sessions): (Vec<&FrameIndexEntry>, Vec<&FrameIndexEntry>) =
                index.entries().iter().partition(|e| !e.is_session_frame());
            assert_eq!(ops.iter().map(|e| u64::from(e.records)).sum::<u64>(), 50);
            assert_eq!(
                sessions.iter().map(|e| u64::from(e.records)).sum::<u64>(),
                6
            );
            // Seeking to each entry decodes exactly its records, and the
            // entry's time range matches what the records say.
            let mut reader = SpillReader::new(io::Cursor::new(&bytes)).unwrap();
            for entry in index.entries() {
                reader.seek_to_frames(entry.offset, 1).unwrap();
                let records: Vec<SpillRecord> = (&mut reader).collect::<io::Result<_>>().unwrap();
                assert_eq!(records.len(), entry.records as usize, "{codec:?}");
                let times: Vec<u64> = records
                    .iter()
                    .map(|r| match r {
                        SpillRecord::Op(o) => o.at,
                        SpillRecord::Session(s) => s.end,
                    })
                    .collect();
                assert_eq!(times.iter().min(), Some(&entry.min_time));
                assert_eq!(times.iter().max(), Some(&entry.max_time));
            }
            // A multi-frame seek spanning the whole file reproduces the log.
            reader
                .seek_to_frames(index.entries()[0].offset, index.frames() as u64)
                .unwrap();
            let all: Vec<SpillRecord> = (&mut reader).collect::<io::Result<_>>().unwrap();
            assert_eq!(
                all.len() as u64,
                expected.ops().len() as u64 + expected.sessions().len() as u64
            );
            // Overrunning the frame budget into the end marker is corruption.
            reader
                .seek_to_frames(index.entries()[0].offset, index.frames() as u64 + 1)
                .unwrap();
            let err = (&mut reader).collect::<io::Result<Vec<_>>>().unwrap_err();
            assert!(err.to_string().contains("promised more frames"), "{err}");
        }
    }

    #[test]
    fn unindexed_and_pre_footer_files_load_no_index() {
        let mut sink = SpillSink::new(Vec::new()).unwrap().without_index();
        for i in 0..10 {
            sink.record_op(&sample_op(i));
        }
        let bytes = sink.finish().unwrap();
        assert!(FrameIndex::load(&mut io::Cursor::new(&bytes))
            .unwrap()
            .is_none());
        // Too-short files (shorter than any footered stream) are also None.
        assert!(FrameIndex::load(&mut io::Cursor::new(b"USWGSPL2"))
            .unwrap()
            .is_none());
    }

    #[test]
    fn footer_truncation_degrades_to_streaming() {
        // Cut anywhere inside the footer region: FrameIndex::load falls
        // back to None (no trailer yet) and the streaming reader reports
        // UnexpectedEof with the stream itself complete — never InvalidData.
        let mut sink = SpillSink::with_options(Vec::new(), SpillCodec::Compressed, 8).unwrap();
        for i in 0..30 {
            sink.record_op(&sample_op(i));
        }
        let bytes = sink.finish().unwrap();
        let footer_len = INDEX_FIXED_BYTES + 4 * INDEX_ENTRY_BYTES + TRAILER_BYTES;
        let marker_end = bytes.len() - footer_len;
        for cut in marker_end + 1..bytes.len() {
            let part = &bytes[..cut];
            assert!(
                FrameIndex::load(&mut io::Cursor::new(part))
                    .unwrap()
                    .is_none(),
                "cut at {cut}"
            );
            let mut reader = SpillReader::new(part).unwrap();
            let err = (&mut reader).collect::<io::Result<Vec<_>>>().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
            assert!(reader.stream_complete(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_bad_magic_and_tag() {
        assert!(read_spill(&b"NOTSPILL"[..]).is_err());
        for magic in [MAGIC_V1, MAGIC_V2] {
            let mut raw = magic.to_vec();
            raw.extend_from_slice(&[9, 0, 0, 0, 0]); // unknown tag 9, count 0
            assert!(read_spill(raw.as_slice()).is_err());
        }
    }

    #[test]
    fn rejects_oversized_frame_count() {
        // A corrupt count must fail as InvalidData *before* the reader
        // tries to allocate column buffers for it.
        for magic in [MAGIC_V1, MAGIC_V2] {
            let mut raw = magic.to_vec();
            raw.push(TAG_OPS);
            raw.extend_from_slice(&u32::MAX.to_le_bytes());
            let err = read_spill(raw.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("frame count"), "{err}");
        }
    }

    #[test]
    fn truncated_stream_errors() {
        for codec in [SpillCodec::Raw, SpillCodec::Compressed] {
            let mut sink = SpillSink::with_codec(Vec::new(), codec).unwrap();
            sink.record_op(&sample_op(1));
            let bytes = sink.finish().unwrap();
            // Drop the last byte: the final marker comes up short.
            assert!(read_spill(&bytes[..bytes.len() - 1]).is_err());
        }
    }

    #[test]
    fn v2_detects_every_single_bit_flip() {
        // CRC32 over tag + count + columns, plus the end-marker totals and
        // the magic check, cover every byte of a v2 file: any single-bit
        // corruption must surface as a clean error, never as a silently
        // different log (and never as a panic).
        let (bytes, _) = write_all(SpillCodec::Compressed, 64);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                let err = read_spill(flipped.as_slice());
                assert!(
                    err.is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn reader_streams_the_same_records_read_spill_collects() {
        for codec in [SpillCodec::Raw, SpillCodec::Compressed] {
            let (bytes, expected) = write_all(codec, 300);
            let mut streamed = UsageLog::new();
            let mut reader = SpillReader::new(bytes.as_slice()).unwrap();
            assert_eq!(reader.codec(), codec);
            for record in &mut reader {
                match record.unwrap() {
                    SpillRecord::Op(op) => streamed.push_op(op),
                    SpillRecord::Session(s) => streamed.push_session(s),
                }
            }
            assert_eq!(streamed.to_json().unwrap(), expected.to_json().unwrap());
            // Exhausted readers stay exhausted.
            assert!(reader.next().is_none());
        }
    }

    #[test]
    fn filtered_readers_skip_without_decoding() {
        for codec in [SpillCodec::Raw, SpillCodec::Compressed] {
            // Tiny frames force many skips of each kind, interleaved.
            let mut sink = SpillSink::with_options(Vec::new(), codec, 3).unwrap();
            let mut expected = UsageLog::new();
            for i in 0..25 {
                let op = sample_op(i);
                sink.record_op(&op);
                expected.push_op(op);
                let s = sample_session(i);
                sink.record_session(&s);
                expected.push_session(s);
            }
            let bytes = sink.finish().unwrap();
            let ops: Vec<OpRecord> = SpillReader::new(bytes.as_slice())
                .unwrap()
                .ops_only()
                .map(|r| match r.unwrap() {
                    SpillRecord::Op(op) => op,
                    SpillRecord::Session(_) => panic!("sessions were filtered out"),
                })
                .collect();
            assert_eq!(ops, expected.ops(), "{codec:?}");
            let sessions: Vec<SessionRecord> = SpillReader::new(bytes.as_slice())
                .unwrap()
                .sessions_only()
                .map(|r| match r.unwrap() {
                    SpillRecord::Session(s) => s,
                    SpillRecord::Op(_) => panic!("ops were filtered out"),
                })
                .collect();
            assert_eq!(sessions, expected.sessions(), "{codec:?}");
            // Truncation inside a *skipped* frame still errors cleanly.
            let cut = &bytes[..bytes.len() / 2];
            let results: Vec<_> = SpillReader::new(cut).unwrap().ops_only().collect();
            assert!(results.last().is_some_and(Result::is_err));
        }
    }

    #[test]
    fn reader_fuses_after_an_error() {
        let (bytes, _) = write_all(SpillCodec::Compressed, 10);
        let truncated = &bytes[..bytes.len() - 5];
        let mut reader = SpillReader::new(truncated).unwrap();
        let mut errors = 0;
        for record in &mut reader {
            if record.is_err() {
                errors += 1;
            }
        }
        assert_eq!(errors, 1, "exactly one terminal error");
        assert!(reader.next().is_none());
    }

    #[test]
    fn tiny_frame_caps_cross_many_boundaries() {
        for codec in [SpillCodec::Raw, SpillCodec::Compressed] {
            let mut sink = SpillSink::with_options(Vec::new(), codec, 3).unwrap();
            let mut expected = UsageLog::new();
            for i in 0..20 {
                let op = sample_op(i);
                sink.record_op(&op);
                expected.push_op(op);
                let s = sample_session(i);
                sink.record_session(&s);
                expected.push_session(s);
            }
            let bytes = sink.finish().unwrap();
            let back = read_spill(bytes.as_slice()).unwrap();
            assert_eq!(back.to_json().unwrap(), expected.to_json().unwrap());
        }
    }

    /// A writer that fails after `n` bytes, to exercise deferred errors.
    struct FailAfter {
        left: usize,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if buf.len() > self.left {
                return Err(io::Error::other("disk full"));
            }
            self.left -= buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_errors_surface_at_finish() {
        for codec in [SpillCodec::Raw, SpillCodec::Compressed] {
            let mut sink = SpillSink::with_codec(FailAfter { left: 64 }, codec).unwrap();
            for i in 0..(FRAME_CAP as u64 + 1) {
                sink.record_op(&sample_op(i)); // mid-run flush hits the fault
            }
            assert!(sink.finish().is_err());
        }
    }
}

#[cfg(test)]
mod corrupt_trailer {
    use super::*;

    /// A trailer whose declared `footer_len` exceeds the file must fail
    /// cleanly — the footer-start computation used to underflow (a debug
    /// panic; in release the wrapped offset sailed past the sanity check).
    #[test]
    fn huge_footer_len_is_rejected_not_a_panic() {
        let mut sink = SpillSink::new(Vec::new()).unwrap().without_index();
        for i in 0..10u64 {
            let op = OpRecord {
                at: i,
                user: 0,
                session: 0,
                op: OpKind::Read,
                ino: i,
                bytes: 0,
                file_size: 0,
                response: 0,
                category: FileCategory::REG_USER_RDONLY,
                retries: 0,
                aborted: false,
            };
            sink.record_op(&op);
        }
        let mut bytes = sink.finish().unwrap();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(MAGIC_TRAILER);
        let err = FrameIndex::load(&mut std::io::Cursor::new(&bytes))
            .expect_err("a footer larger than the file is corrupt, not absent");
        assert!(
            err.to_string().contains("impossible"),
            "unexpected error: {err}"
        );
    }
}
