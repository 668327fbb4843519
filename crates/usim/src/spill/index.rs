//! The index footer of a sealed spill file: its entry type, its writer and
//! the one decoder both readers share. The byte layout is drawn in the
//! parent module's documentation.
//!
//! [`FrameIndex::load`] (seek to the trailer at EOF) and the streaming
//! reader's trailing-region check (arrive at the footer after the end
//! marker) reach the same bytes from opposite ends; both hand them to
//! [`decode_entries`], then each adds the one check only it can make —
//! offsets inside the file, totals equal to the end marker's.

use super::bad_data;
use super::crc::crc32;
use super::frame::{FRAME_CAP, TAG_OPS, TAG_OPS_FAULTS, TAG_SESSIONS};
use std::fs::File;
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Index-footer magic, the first bytes after the end marker of an indexed
/// file.
pub(super) const MAGIC_INDEX: &[u8; 8] = b"USWGIDX1";
/// Trailer magic, the last 8 bytes of an indexed file.
pub(super) const MAGIC_TRAILER: &[u8; 8] = b"USWGTRL1";
/// Bytes per index entry: offset u64, tag u8, records u32, min/max u64.
pub(super) const INDEX_ENTRY_BYTES: usize = 8 + 1 + 4 + 8 + 8;
/// Fixed footer overhead around the entries: magic, count, CRC.
pub(super) const INDEX_FIXED_BYTES: usize = 8 + 4 + 4;
/// Trailer length: footer length (u32) + trailer magic.
pub(super) const TRAILER_BYTES: usize = 4 + 8;
/// The shortest possible sealed stream: magic + end marker.
const MIN_STREAM_BYTES: u64 = 8 + 1 + 16;

/// One frame of a spill file as the index footer describes it: where the
/// frame starts, what it holds and the completion-time range it covers —
/// everything a windowed or parallel pass needs to decide whether to decode
/// the frame without reading it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameIndexEntry {
    /// Byte offset of the frame's tag byte from the start of the file.
    pub offset: u64,
    /// Records in the frame (`1..=FRAME_CAP`).
    pub records: u32,
    /// Smallest completion time in the frame, µs (`at` for op frames,
    /// `end` for session frames).
    pub min_time: u64,
    /// Largest completion time in the frame, µs.
    pub max_time: u64,
    /// The frame's tag byte.
    pub(super) tag: u8,
}

impl FrameIndexEntry {
    /// Whether the frame holds session records (otherwise op records,
    /// with or without fault outcomes).
    pub fn is_session_frame(&self) -> bool {
        self.tag == TAG_SESSIONS
    }

    /// Whether the frame's completion-time range intersects the closed
    /// window `[since, until]` (an open bound always matches).
    pub fn overlaps(&self, since: Option<u64>, until: Option<u64>) -> bool {
        since.is_none_or(|s| self.max_time >= s) && until.is_none_or(|u| self.min_time <= u)
    }
}

/// Decodes the counted part of an index footer — `count u32 | entry* |
/// crc u32`, everything after [`MAGIC_INDEX`] — into its entries.
///
/// # Errors
///
/// `InvalidData` when the length disagrees with the count, the CRC (over
/// the magic, the count and the entries) fails, or an entry cannot
/// describe a frame: unknown tag, `records` outside `1..=FRAME_CAP`,
/// offsets not strictly increasing from the end of the file magic, or
/// `min_time > max_time`. The CRC already vouches for the bytes; the entry
/// checks catch a *writer* bug before a seek lands mid-frame.
pub(super) fn decode_entries(counted: &[u8]) -> io::Result<Vec<FrameIndexEntry>> {
    let (count_raw, rest) = counted
        .split_first_chunk::<4>()
        .ok_or_else(|| bad_data("index footer is shorter than its entry count".into()))?;
    let count = u32::from_le_bytes(*count_raw) as usize;
    if Some(rest.len()) != count.checked_mul(INDEX_ENTRY_BYTES).map(|n| n + 4) {
        return Err(bad_data(format!(
            "index footer length {} does not match its {count} entries",
            MAGIC_INDEX.len() + counted.len()
        )));
    }
    let (raw_entries, stored) = rest.split_at(rest.len() - 4);
    if crc32(&[MAGIC_INDEX, count_raw, raw_entries])
        != u32::from_le_bytes(stored.try_into().expect("4 bytes"))
    {
        return Err(bad_data("index footer checksum mismatch".into()));
    }
    let mut entries: Vec<FrameIndexEntry> = Vec::with_capacity(count);
    for raw in raw_entries.chunks_exact(INDEX_ENTRY_BYTES) {
        let entry = FrameIndexEntry {
            offset: u64::from_le_bytes(raw[..8].try_into().expect("8 bytes")),
            tag: raw[8],
            records: u32::from_le_bytes(raw[9..13].try_into().expect("4 bytes")),
            min_time: u64::from_le_bytes(raw[13..21].try_into().expect("8 bytes")),
            max_time: u64::from_le_bytes(raw[21..29].try_into().expect("8 bytes")),
        };
        // Frames start right after the 8-byte file magic, one after another.
        let in_order = match entries.last() {
            None => entry.offset >= 8,
            Some(prev) => entry.offset > prev.offset,
        };
        if !matches!(entry.tag, TAG_OPS | TAG_SESSIONS | TAG_OPS_FAULTS)
            || entry.records == 0
            || entry.records as usize > FRAME_CAP
            || !in_order
            || entry.min_time > entry.max_time
        {
            return Err(bad_data(format!(
                "index entry {entry:?} is inconsistent with the file layout"
            )));
        }
        entries.push(entry);
    }
    Ok(entries)
}

/// The frame index of a sealed spill file, loaded from the footer
/// [`SpillSink::finish`](super::SpillSink::finish) appends after the end
/// marker. [`FrameIndex::load`] finds the footer by seeking to the
/// fixed-size trailer at EOF, so a multi-gigabyte capture answers "which
/// frames overlap t∈[a,b]" from a few dozen kilobytes of index — the entry
/// point of `uswg analyze --since/--until/--sample/--jobs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameIndex {
    entries: Vec<FrameIndexEntry>,
}

impl FrameIndex {
    /// The per-frame entries, in file order.
    pub fn entries(&self) -> &[FrameIndexEntry] {
        &self.entries
    }

    /// Frames in the file.
    pub fn frames(&self) -> usize {
        self.entries.len()
    }

    /// Records over all frames (ops + sessions).
    pub fn records(&self) -> u64 {
        self.entries.iter().map(|e| u64::from(e.records)).sum()
    }

    /// Loads the index footer from a seekable spill file. Returns
    /// `Ok(None)` when the file carries no trailer — a pre-index file, an
    /// unindexed sink, or a file truncated anywhere inside the footer
    /// (the trailer is the last thing written, so a damaged footer simply
    /// fails to announce itself and the caller falls back to streaming).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when a trailer is present but the footer it
    /// points at is malformed (bad magic, size mismatch, checksum
    /// failure, nonsense entries), and propagates underlying I/O errors.
    pub fn load<R: Read + Seek>(r: &mut R) -> io::Result<Option<Self>> {
        let len = r.seek(SeekFrom::End(0))?;
        if len < MIN_STREAM_BYTES + (INDEX_FIXED_BYTES + TRAILER_BYTES) as u64 {
            return Ok(None);
        }
        r.seek(SeekFrom::End(-(TRAILER_BYTES as i64)))?;
        let mut trailer = [0u8; TRAILER_BYTES];
        r.read_exact(&mut trailer)?;
        if &trailer[4..] != MAGIC_TRAILER {
            return Ok(None);
        }
        let footer_len = u64::from(u32::from_le_bytes(
            trailer[..4].try_into().expect("4 bytes"),
        ));
        let footer_start = len
            .checked_sub(TRAILER_BYTES as u64)
            .and_then(|n| n.checked_sub(footer_len))
            .filter(|&start| footer_len >= INDEX_FIXED_BYTES as u64 && start >= MIN_STREAM_BYTES)
            .ok_or_else(|| {
                bad_data(format!(
                    "index trailer declares a {footer_len}-byte footer, impossible \
                     in a {len}-byte file"
                ))
            })?;
        r.seek(SeekFrom::Start(footer_start))?;
        let mut footer = vec![0u8; footer_len as usize];
        r.read_exact(&mut footer)?;
        let (magic, counted) = footer.split_at(MAGIC_INDEX.len());
        if magic != MAGIC_INDEX {
            return Err(bad_data(format!("bad index footer magic {magic:02x?}")));
        }
        let entries = decode_entries(counted)?;
        // This path's own check: every frame lies before the footer.
        if let Some(entry) = entries.iter().find(|e| e.offset >= footer_start) {
            return Err(bad_data(format!(
                "index entry {entry:?} points past the frames, into the footer at {footer_start}"
            )));
        }
        Ok(Some(Self { entries }))
    }

    /// [`FrameIndex::load`] over a buffered file.
    ///
    /// # Errors
    ///
    /// Propagates [`FrameIndex::load`] errors and file-open failures.
    pub fn load_path<P: AsRef<Path>>(path: P) -> io::Result<Option<Self>> {
        Self::load(&mut BufReader::new(File::open(path)?))
    }
}

/// Serializes the footer + trailer for `entries`.
///
/// # Errors
///
/// Propagates write failures; errors if the file somehow holds more than
/// `u32::MAX` frames.
pub(super) fn write_index_footer<W: Write>(
    out: &mut W,
    entries: &[FrameIndexEntry],
) -> io::Result<()> {
    let count =
        u32::try_from(entries.len()).map_err(|_| bad_data("too many frames to index".into()))?;
    let mut footer = Vec::with_capacity(INDEX_FIXED_BYTES + entries.len() * INDEX_ENTRY_BYTES);
    footer.extend_from_slice(MAGIC_INDEX);
    footer.extend_from_slice(&count.to_le_bytes());
    for e in entries {
        footer.extend_from_slice(&e.offset.to_le_bytes());
        footer.push(e.tag);
        footer.extend_from_slice(&e.records.to_le_bytes());
        footer.extend_from_slice(&e.min_time.to_le_bytes());
        footer.extend_from_slice(&e.max_time.to_le_bytes());
    }
    let crc = crc32(&[&footer]);
    footer.extend_from_slice(&crc.to_le_bytes());
    out.write_all(&footer)?;
    out.write_all(&(footer.len() as u32).to_le_bytes())?;
    out.write_all(MAGIC_TRAILER)
}
