//! Spill-to-disk log sink: full-fidelity op streams that survive beyond
//! RAM.
//!
//! At the ROADMAP's millions-of-users scale a materialized
//! [`UsageLog`](crate::UsageLog) is the memory ceiling (~80 bytes per op
//! record). [`SpillSink`] keeps full fidelity without the ceiling: records
//! stream into **columnar frames** on disk, buffered at most [`FRAME_CAP`]
//! records at a time, so resident memory is O(1) in run length. Reading
//! back has two shapes:
//! [`read_spill`] reconstructs the exact `UsageLog` the run would have
//! produced in memory (losslessly, byte-for-byte through JSON — guarded by
//! round-trip property tests), and [`SpillReader`] iterates the records
//! frame-by-frame without ever materializing a log — the substrate of
//! `uswg analyze`, `fit` and `drive --from-spill`.
//!
//! # Formats
//!
//! Two on-disk formats share the frame structure; the reader sniffs the
//! magic, so both read back through the same API (codec negotiation is the
//! first 8 bytes of the file):
//!
//! * **v1 raw** (`USWGSPL1`, [`SpillCodec::Raw`]) — fixed-width
//!   little-endian columns, the format earlier releases wrote. Read only:
//!   [`SpillSink`] writes v2, and the committed capture
//!   `tests/golden/v1.spill` pins the v1 reader.
//! * **v2 compressed** (`USWGSPL2`, [`SpillCodec::Compressed`], what the
//!   sink writes) — the same columns per frame, but each column is
//!   independently compressed: integer columns as zigzag **delta +
//!   LEB128 varint** (the op stream is sorted by completion time and most
//!   magnitudes are small, so deltas collapse), byte columns as **RLE**
//!   when that wins over the raw bytes. Every v2 frame carries a CRC32 of
//!   its header and payload, so a flipped bit is a clean
//!   [`InvalidData`](std::io::ErrorKind::InvalidData) instead of silently
//!   different records.
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
//! plain op frame, so a run without fault injection produces files
//! byte-identical to every earlier v2 release, and old readers only
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
//!
//! The diagram above is drawn once, here; its executable form is `frame`'s
//! column tables, which the writer, the reader and the skip walk.

mod column;
mod crc;
mod frame;
mod index;
mod reader;
mod writer;

#[cfg(test)]
mod corrupt_trailer;
#[cfg(test)]
mod tests;

pub use self::frame::{SpillCodec, SpillRecord, FRAME_CAP};
pub use self::index::{FrameIndex, FrameIndexEntry};
pub use self::reader::{read_spill, read_spill_path, SpillReader};
pub use self::writer::SpillSink;

fn bad_data(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}
