//! The record schema and the two frame encodings — the executable form of
//! the format diagram in the parent module.
//!
//! Which columns a record has, in which order and at which width, is said
//! once: a column table per record kind and a [`Row`] impl per kind mapping
//! a record to its column values and back, strict decode checks included.
//! [`write_frame`], [`read_body`] and [`skip_body`] walk the table for
//! either codec; v1 and v2 differ only in which of `column`'s codecs a
//! column goes through, and in v2's CRC. All are functions of bytes and
//! records: nothing here knows about the sink or the reader.

use super::bad_data;
use super::column::{
    decode_aborted, decode_category, decode_delta_col, decode_fixed_col, decode_op, decode_u8_col,
    encode_category, encode_op, push_delta_col, push_fixed_col, push_u8_col, MAX_VARINT,
};
use super::crc::crc32;
use crate::log::{OpRecord, SessionRecord};
use std::io::{self, Read, Write};

/// v1 file magic: format name + version (fixed-width raw columns).
pub(super) const MAGIC_V1: &[u8; 8] = b"USWGSPL1";
/// v2 file magic (per-frame compressed columns + CRC).
pub(super) const MAGIC_V2: &[u8; 8] = b"USWGSPL2";
/// Frame tag for op-record frames.
pub(super) const TAG_OPS: u8 = 0;
/// Frame tag for session-record frames.
pub(super) const TAG_SESSIONS: u8 = 1;
/// End-of-stream marker, written only when the writer seals a stream: tag
/// byte followed by the total op and session counts (u64 LE each). Its
/// absence tells the reader the writer died mid-run — without it, a file
/// truncated exactly at a frame boundary (a killed process, a full disk
/// under a `BufWriter` drop) would read back as a clean but silently
/// incomplete log.
pub(super) const TAG_END: u8 = 2;
/// Frame tag for op-record frames carrying fault outcomes (two extra
/// columns: retries, aborted). Only written when a frame holds at least one
/// non-default outcome, so fault-free spill files keep the historical byte
/// layout exactly.
pub(super) const TAG_OPS_FAULTS: u8 = 3;

/// Records buffered per frame: the sink's entire resident footprint is two
/// buffers of at most this many records (~320 KiB of ops), independent of
/// how long the run is. Also the hard ceiling the reader enforces on frame
/// counts, for both formats.
pub const FRAME_CAP: usize = 4096;

/// How a spill file encodes its frames on disk. Both codecs hold the
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

/// One record of a spill stream: the stream interleaves the two kinds at
/// frame granularity, preserving each kind's recording order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpillRecord {
    /// An executed operation.
    Op(OpRecord),
    /// A completed session.
    Session(SessionRecord),
}

/// How one column is stored: its v1 width in bytes (the discriminant) and,
/// under v2, its encoding (integers as zigzag-delta varints, bytes as
/// raw-or-RLE).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Col {
    U64 = 8,
    U32 = 4,
    U8 = 1,
}
use Col::{U32, U64, U8};

impl Col {
    /// Bytes per value under v1.
    fn width(self) -> usize {
        self as usize
    }

    /// The longest encoding a v2 column of `count` values may declare — the
    /// one bound a length read from the file meets, on the decoding and the
    /// skipping path alike, before it sizes an allocation or a skip.
    fn max_encoded_len(self, count: usize) -> usize {
        match self {
            // flag + worst-case RLE (value byte + varint run each); the
            // writer never exceeds 1 + count, but stay permissive within
            // the same O(count) bound.
            U8 => 1 + count * (1 + MAX_VARINT),
            U64 | U32 => count * MAX_VARINT,
        }
    }
}

/// Op columns: at | user | session | op | ino | bytes | file size |
/// response | category, then the fault-outcome tail: retries | aborted.
const OP_COLS: [Col; 11] = [U64, U64, U32, U8, U64, U64, U64, U64, U8, U32, U8];
/// Trailing [`OP_COLS`] entries only [`TAG_OPS_FAULTS`] frames carry.
const OP_FAULT_COLS: usize = 2;
/// Session columns: user | user type | session | start | end | ops | files
/// referenced | file bytes referenced | bytes accessed | read | written |
/// total response.
const SESSION_COLS: [Col; 12] = [U64, U64, U32, U64, U64, U64, U64, U64, U64, U64, U64, U64];

/// The columns a frame tagged `tag` holds, in file order.
pub(super) fn frame_cols(tag: u8) -> &'static [Col] {
    match tag {
        TAG_OPS => &OP_COLS[..OP_COLS.len() - OP_FAULT_COLS],
        TAG_OPS_FAULTS => &OP_COLS,
        _ => &SESSION_COLS,
    }
}

/// Fixed v1 bytes per record for `tag` — the sum of the column widths.
pub(super) fn v1_row_bytes(tag: u8) -> u64 {
    frame_cols(tag).iter().map(|col| col.width() as u64).sum()
}

/// One frame's decoded values as one column-major slab: column `c`'s value
/// for record `i` is `vals[c * count + i]`. The slab is as wide as the
/// record kind's whole table and starts zeroed, so a column the frame's tag
/// does not carry reads as 0 — the default fault outcome.
pub(super) struct Cols<'a> {
    vals: &'a [u64],
    count: usize,
}

impl Cols<'_> {
    /// Column `c` of record `i`, narrowed to the field's type — a value the
    /// field cannot hold (only a corrupt v2 integer column has one) is
    /// `InvalidData`.
    fn get<T: TryFrom<u64>>(&self, c: usize, i: usize) -> io::Result<T> {
        let v = self.vals[c * self.count + i];
        T::try_from(v).map_err(|_| bad_data(format!("column {c} value {v} exceeds its field")))
    }
}

/// One column on its way into a frame.
pub(super) struct ColWriter<'a> {
    frame: &'a mut Vec<u8>,
    codec: SpillCodec,
    col: Col,
}

impl ColWriter<'_> {
    /// Appends the column's `values` as its storage class and the codec
    /// encode them.
    fn put(self, values: impl Iterator<Item = u64>) {
        match (self.codec, self.col) {
            (SpillCodec::Raw, col) => push_fixed_col(self.frame, col.width(), values),
            (SpillCodec::Compressed, U8) => {
                let bytes: Vec<u8> = values.map(|v| v as u8).collect();
                push_u8_col(self.frame, &bytes);
            }
            (SpillCodec::Compressed, U64 | U32) => push_delta_col(self.frame, values),
        }
    }
}

/// A record kind's side of the schema: its table, and the mapping between
/// a record and its column values (indices into the table).
pub(super) trait Row: Copy {
    /// The kind's whole column table.
    const COLS: &'static [Col];
    /// The tag a frame of `rows` is written under.
    fn tag(rows: &[Self]) -> u8;
    /// Completion time, the key of the frame index.
    fn time(&self) -> u64;
    /// Hands column `c` of `rows` to `out`. One arm per column, so each
    /// column is encoded by a loop of its own: choosing the field per value
    /// instead costs ~8 ns a record.
    fn put_col(rows: &[Self], c: usize, out: ColWriter<'_>);
    /// Record `i` of a decoded frame, rejecting codes no writer produces.
    fn from_cols(cols: &Cols<'_>, i: usize) -> io::Result<Self>;
}

/// Whether a buffered op frame needs the fault-outcome tag: any record
/// with a non-default outcome promotes the whole frame.
pub(super) fn frame_has_faults(ops: &[OpRecord]) -> bool {
    ops.iter().any(|o| o.retries != 0 || o.aborted)
}

impl Row for OpRecord {
    const COLS: &'static [Col] = &OP_COLS;

    fn tag(rows: &[Self]) -> u8 {
        if frame_has_faults(rows) {
            TAG_OPS_FAULTS
        } else {
            TAG_OPS
        }
    }

    fn time(&self) -> u64 {
        self.at
    }

    fn put_col(rows: &[Self], c: usize, out: ColWriter<'_>) {
        match c {
            0 => out.put(rows.iter().map(|o| o.at)),
            1 => out.put(rows.iter().map(|o| o.user as u64)),
            2 => out.put(rows.iter().map(|o| o.session.into())),
            3 => out.put(rows.iter().map(|o| encode_op(o.op).into())),
            4 => out.put(rows.iter().map(|o| o.ino)),
            5 => out.put(rows.iter().map(|o| o.bytes)),
            6 => out.put(rows.iter().map(|o| o.file_size)),
            7 => out.put(rows.iter().map(|o| o.response)),
            8 => out.put(rows.iter().map(|o| encode_category(o.category).into())),
            9 => out.put(rows.iter().map(|o| o.retries.into())),
            10 => out.put(rows.iter().map(|o| o.aborted.into())),
            _ => unreachable!("an op record has {} columns", OP_COLS.len()),
        }
    }

    #[inline]
    fn from_cols(cols: &Cols<'_>, i: usize) -> io::Result<Self> {
        Ok(Self {
            at: cols.get(0, i)?,
            user: cols.get(1, i)?,
            session: cols.get(2, i)?,
            op: decode_op(cols.get(3, i)?)?,
            ino: cols.get(4, i)?,
            bytes: cols.get(5, i)?,
            file_size: cols.get(6, i)?,
            response: cols.get(7, i)?,
            category: decode_category(cols.get(8, i)?)?,
            retries: cols.get(9, i)?,
            aborted: decode_aborted(cols.get(10, i)?)?,
        })
    }
}

impl Row for SessionRecord {
    const COLS: &'static [Col] = &SESSION_COLS;

    fn tag(_rows: &[Self]) -> u8 {
        TAG_SESSIONS
    }

    fn time(&self) -> u64 {
        self.end
    }

    fn put_col(rows: &[Self], c: usize, out: ColWriter<'_>) {
        match c {
            0 => out.put(rows.iter().map(|s| s.user as u64)),
            1 => out.put(rows.iter().map(|s| s.user_type as u64)),
            2 => out.put(rows.iter().map(|s| s.session.into())),
            3 => out.put(rows.iter().map(|s| s.start)),
            4 => out.put(rows.iter().map(|s| s.end)),
            5 => out.put(rows.iter().map(|s| s.ops)),
            6 => out.put(rows.iter().map(|s| s.files_referenced)),
            7 => out.put(rows.iter().map(|s| s.file_bytes_referenced)),
            8 => out.put(rows.iter().map(|s| s.bytes_accessed)),
            9 => out.put(rows.iter().map(|s| s.bytes_read)),
            10 => out.put(rows.iter().map(|s| s.bytes_written)),
            11 => out.put(rows.iter().map(|s| s.total_response)),
            _ => unreachable!("a session record has {} columns", SESSION_COLS.len()),
        }
    }

    #[inline]
    fn from_cols(cols: &Cols<'_>, i: usize) -> io::Result<Self> {
        Ok(Self {
            user: cols.get(0, i)?,
            user_type: cols.get(1, i)?,
            session: cols.get(2, i)?,
            start: cols.get(3, i)?,
            end: cols.get(4, i)?,
            ops: cols.get(5, i)?,
            files_referenced: cols.get(6, i)?,
            file_bytes_referenced: cols.get(7, i)?,
            bytes_accessed: cols.get(8, i)?,
            bytes_read: cols.get(9, i)?,
            bytes_written: cols.get(10, i)?,
            total_response: cols.get(11, i)?,
        })
    }
}

/// Writes `rows` (the sink passes `1..=FRAME_CAP` of them; [`read_header`]
/// rejects anything else) as one frame — tag, count, v2's CRC over both
/// and every column, then the columns of the tag's table in `codec`'s
/// encoding. Returns the tag it chose and the exact bytes written, which
/// is what the frame index records.
pub(super) fn write_frame<T: Row, W: Write>(
    out: &mut W,
    codec: SpillCodec,
    rows: &[T],
) -> io::Result<(u8, u64)> {
    let tag = T::tag(rows);
    let count = u32::try_from(rows.len()).map_err(|_| bad_data("frame too large".into()))?;
    let mut frame = vec![tag];
    frame.extend_from_slice(&count.to_le_bytes());
    if codec == SpillCodec::Compressed {
        frame.extend_from_slice(&[0u8; 4]); // the CRC, once the columns are in
    }
    for (c, &col) in frame_cols(tag).iter().enumerate() {
        let frame = &mut frame;
        T::put_col(rows, c, ColWriter { frame, codec, col });
    }
    if codec == SpillCodec::Compressed {
        let crc = crc32(&[&frame[..5], &frame[9..]]);
        frame[5..9].copy_from_slice(&crc.to_le_bytes());
    }
    out.write_all(&frame)?;
    Ok((tag, frame.len() as u64))
}

/// A frame's tag and record count as only [`read_header`] builds them: the
/// tag is one of the three record tags and the count is `1..=FRAME_CAP`, so
/// whatever [`read_body`] and [`skip_body`] size from a header is bounded.
#[derive(Debug, Clone, Copy)]
pub(super) struct FrameHeader {
    tag: u8,
    count: usize,
}

impl FrameHeader {
    /// Whether the frame holds session records (otherwise op records, with
    /// or without fault outcomes).
    pub(super) fn is_sessions(&self) -> bool {
        self.tag == TAG_SESSIONS
    }

    pub(super) fn count(&self) -> usize {
        self.count
    }
}

/// Reads the rest of a frame header after its `tag` byte — the one place a
/// header is parsed, so decoded, skipped and seek-mode passes share its
/// checks.
pub(super) fn read_header<R: Read>(r: &mut R, tag: u8) -> io::Result<FrameHeader> {
    let mut count_raw = [0u8; 4];
    r.read_exact(&mut count_raw)?;
    let count = u32::from_le_bytes(count_raw) as usize;
    // The writer emits 1..=FRAME_CAP records per frame. More is corruption,
    // rejected before the per-column allocations turn a flipped bit into an
    // OOM; none is too — v1 has no CRC to notice a spliced-in empty frame,
    // which would shift every later frame off its index offset while the
    // end-marker totals still reconcile.
    if count == 0 || count > FRAME_CAP {
        return Err(bad_data(format!(
            "frame count {count} is outside the format's 1..={FRAME_CAP}"
        )));
    }
    if !matches!(tag, TAG_OPS | TAG_SESSIONS | TAG_OPS_FAULTS) {
        return Err(bad_data(format!("unknown frame tag {tag}")));
    }
    Ok(FrameHeader { tag, count })
}

/// Reads one v2 column's length prefix and holds it to the column's bound:
/// a corrupt length fails cleanly before it sizes a buffer or a skip.
fn read_col_len<R: Read>(r: &mut R, col: Col, count: usize) -> io::Result<u32> {
    let mut len_raw = [0u8; 4];
    r.read_exact(&mut len_raw)?;
    let len = u32::from_le_bytes(len_raw);
    let max_len = col.max_encoded_len(count);
    if len as usize > max_len {
        return Err(bad_data(format!(
            "column length {len} exceeds the bound {max_len}"
        )));
    }
    Ok(len)
}

/// One decoded frame and what decoding it needed — the value slab
/// (column-major, see [`Cols`]) and the bytes as stored — kept by the reader
/// across frames: allocated afresh (~430, ~360 and ~70 kB) they sit astride
/// glibc's trim threshold, and whether the heap then shrank and regrew
/// around every frame — 10× the page faults — depended on what was
/// allocated before the first one.
#[derive(Debug, Default)]
pub(super) struct Decoded {
    /// The frame's records (nothing usable after a failed [`read_body`]).
    pub(super) rows: Vec<SpillRecord>,
    vals: Vec<u64>,
    raw: Vec<u8>,
}

/// Reads and decodes one frame body (everything after tag + count) into
/// `out`, replacing what it held. A v2 body is read whole and its CRC
/// verified *before* any column is decoded.
pub(super) fn read_body<R: Read>(
    r: &mut R,
    codec: SpillCodec,
    head: FrameHeader,
    out: &mut Decoded,
) -> io::Result<()> {
    if head.is_sessions() {
        read_rows(r, codec, head, out, SpillRecord::Session)
    } else {
        read_rows(r, codec, head, out, SpillRecord::Op)
    }
}

fn read_rows<T: Row, R: Read>(
    r: &mut R,
    codec: SpillCodec,
    FrameHeader { tag, count }: FrameHeader,
    Decoded { rows, vals, raw }: &mut Decoded,
    wrap: impl Fn(T) -> SpillRecord,
) -> io::Result<()> {
    let cols = frame_cols(tag);
    rows.clear();
    vals.clear();
    vals.resize(T::COLS.len() * count, 0);
    match codec {
        SpillCodec::Raw => {
            for (col, out) in cols.iter().zip(vals.chunks_exact_mut(count)) {
                raw.resize(col.width() * count, 0);
                r.read_exact(raw)?;
                decode_fixed_col(raw, col.width(), out);
            }
        }
        SpillCodec::Compressed => {
            let mut stored = [0u8; 4];
            r.read_exact(&mut stored)?;
            // Every column with its length prefix, exactly as checksummed.
            raw.clear();
            for &col in cols {
                let len = read_col_len(r, col, count)?;
                raw.extend_from_slice(&len.to_le_bytes());
                let at = raw.len();
                raw.resize(at + len as usize, 0);
                r.read_exact(&mut raw[at..])?;
            }
            if crc32(&[&[tag], &(count as u32).to_le_bytes(), raw]) != u32::from_le_bytes(stored) {
                return Err(bad_data(
                    "frame checksum mismatch: the spill file is corrupt".into(),
                ));
            }
            let mut rest = raw.as_slice();
            for (col, out) in cols.iter().zip(vals.chunks_exact_mut(count)) {
                let (len_raw, tail) = rest.split_at(4);
                let len = u32::from_le_bytes(len_raw.try_into().expect("4 bytes")) as usize;
                let (buf, tail) = tail.split_at(len);
                match col {
                    U64 | U32 => decode_delta_col(buf, out)?,
                    U8 => decode_u8_col(buf, out)?,
                }
                rest = tail;
            }
        }
    }
    let cols = Cols { vals, count };
    rows.reserve(count);
    for i in 0..count {
        rows.push(wrap(T::from_cols(&cols, i)?));
    }
    Ok(())
}

/// Consumes exactly `n` bytes of `r` without decoding them, erroring on a
/// short stream.
fn skip_exact<R: Read>(r: &mut R, n: u64) -> io::Result<()> {
    let copied = io::copy(&mut r.by_ref().take(n), &mut io::sink())?;
    if copied != n {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "spill stream truncated inside a skipped frame",
        ));
    }
    Ok(())
}

/// Skips one frame body (everything after tag + count) without decoding it
/// or verifying its checksum: fixed-width arithmetic for v1, length-prefix
/// hops for v2.
pub(super) fn skip_body<R: Read>(
    r: &mut R,
    codec: SpillCodec,
    FrameHeader { tag, count }: FrameHeader,
) -> io::Result<()> {
    match codec {
        SpillCodec::Raw => skip_exact(r, v1_row_bytes(tag) * count as u64),
        SpillCodec::Compressed => {
            skip_exact(r, 4)?; // the frame CRC
            for &col in frame_cols(tag) {
                let len = read_col_len(r, col, count)?;
                skip_exact(r, len.into())?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{faulted_op, sample_op, sample_session};
    use super::*;

    const CODECS: [SpillCodec; 2] = [SpillCodec::Raw, SpillCodec::Compressed];
    const TAGS: [u8; 3] = [TAG_OPS, TAG_OPS_FAULTS, TAG_SESSIONS];

    /// One three-record frame of `tag`, exactly as [`write_frame`] emits it.
    fn frame(codec: SpillCodec, tag: u8) -> Vec<u8> {
        let mut out = Vec::new();
        let wrote = match tag {
            TAG_OPS => write_frame(&mut out, codec, &[1, 2, 3].map(sample_op)),
            TAG_OPS_FAULTS => write_frame(&mut out, codec, &[1, 2, 3].map(faulted_op)),
            _ => write_frame(&mut out, codec, &[1, 2, 3].map(sample_session)),
        };
        assert_eq!(wrote.unwrap(), (tag, out.len() as u64));
        out
    }

    #[test]
    fn the_tables_describe_what_is_written() {
        for tag in TAGS {
            let raw = frame(SpillCodec::Raw, tag);
            assert_eq!((raw.len() - 5) as u64, 3 * v1_row_bytes(tag));
            // Hopping v2's length prefixes lands on the end of the frame
            // after exactly the table's number of columns.
            let v2 = frame(SpillCodec::Compressed, tag);
            let (mut at, mut columns) = (9, 0);
            while at < v2.len() {
                at += 4 + u32::from_le_bytes(v2[at..at + 4].try_into().unwrap()) as usize;
                columns += 1;
            }
            assert_eq!((at, columns), (v2.len(), frame_cols(tag).len()));
            // A skip consumes the frame and not a byte of what follows.
            for (codec, mut stream) in [(SpillCodec::Raw, raw), (SpillCodec::Compressed, v2)] {
                stream.push(0xEE);
                let mut r = &stream[1..];
                let head = read_header(&mut r, tag).unwrap();
                skip_body(&mut r, codec, head).unwrap();
                assert_eq!(r, [0xEE], "{codec:?} tag {tag}");
            }
        }
    }

    /// A reader that remembers the largest buffer it was asked to fill —
    /// every buffer the frame decoder sizes from a length in the file.
    struct Probe<'a>(&'a [u8], usize);

    impl Read for Probe<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.1 = self.1.max(buf.len());
            self.0.read(buf)
        }
    }

    /// Decodes one frame (tag byte first) with no reader around it.
    fn decode(codec: SpillCodec, bytes: &[u8]) -> io::Result<Vec<SpillRecord>> {
        let mut r = Probe(&bytes[1..], 0);
        let mut out = Decoded::default();
        let read =
            read_header(&mut r, bytes[0]).and_then(|h| read_body(&mut r, codec, h, &mut out));
        let rows = read.map(|()| out.rows);
        // Nothing is sized past one column of FRAME_CAP values.
        assert!(r.1 <= 1 + FRAME_CAP * (1 + MAX_VARINT));
        assert!(rows.as_ref().map_or(0, Vec::len) <= FRAME_CAP);
        rows
    }

    #[test]
    fn mutated_frames_decode_or_fail_and_never_panic() {
        for (codec, tag) in CODECS.into_iter().flat_map(|c| TAGS.map(|t| (c, t))) {
            let good = frame(codec, tag);
            assert_eq!(decode(codec, &good).unwrap().len(), 3);
            for cut in 1..good.len() {
                assert!(decode(codec, &good[..cut]).is_err(), "{codec:?} cut {cut}");
            }
            for at in 0..good.len() {
                for byte in [0x00, 0xFF] {
                    let mut bad = good.clone();
                    bad[at] = byte;
                    // Ok or Err, never a panic: v1 may read other values
                    // back, v2's CRC lets no change through.
                    let result = decode(codec, &bad);
                    if codec == SpillCodec::Compressed && bad != good {
                        assert!(result.is_err(), "tag {tag} byte {at}");
                    }
                }
            }
        }
    }
}
