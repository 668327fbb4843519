//! Property suite for the spill-to-disk sink: any op/session stream —
//! arbitrary field values, arbitrary interleaving, any length relative to
//! the frame size — must survive the disk round trip byte-identically
//! (compared through the serialized JSON form, the on-disk "usage log
//! file" of the paper), both through the collecting `read_spill` and the
//! streaming `SpillReader`.
//!
//! The robustness half: truncated (at any byte), bit-flipped and
//! wrong-magic files must come back as clean `io::Error`s — no panics and
//! no silently different records. (The writer writes v2 only; the v1
//! reader is pinned on the committed capture `tests/golden/v1.spill`.)

use proptest::prelude::*;
use std::io::Cursor;
use uswg_fsc::{FileCategory, FileType, Owner, UsageClass};
use uswg_netfs::OpKind;
use uswg_usim::{
    read_spill, FrameIndex, LogSink, OpRecord, SessionRecord, SpillReader, SpillRecord, SpillSink,
    UsageLog, FRAME_CAP,
};

/// Bytes the index footer adds after the end marker: the fixed header
/// (8-byte magic + 4-byte count + 4-byte CRC), one 29-byte entry per
/// frame, and the 12-byte trailer. Mirrors the format spec; the footer
/// round-trip property below checks the entries themselves.
fn footer_bytes(frames: usize) -> usize {
    (8 + 4 + 4) + 29 * frames + 12
}

fn arb_category() -> impl Strategy<Value = FileCategory> {
    (0usize..3, 0usize..2, 0usize..4).prop_map(|(t, o, u)| FileCategory {
        file_type: [FileType::Dir, FileType::Reg, FileType::Notes][t],
        owner: [Owner::User, Owner::Other][o],
        usage: [
            UsageClass::ReadOnly,
            UsageClass::New,
            UsageClass::ReadWrite,
            UsageClass::Temp,
        ][u],
    })
}

fn arb_op() -> impl Strategy<Value = OpRecord> {
    (
        any::<u64>(),
        any::<u32>(),
        0usize..8,
        any::<u64>(),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        arb_category(),
        0usize..10_000,
    )
        .prop_map(
            |(at, session, op, ino, (bytes, file_size, response, outcome), category, user)| {
                // Most streams are fault-free; fold the fault outcome out
                // of one u64 so frames mix the plain and fault-outcome
                // tags across the generated interleavings.
                OpRecord {
                    at,
                    user,
                    session,
                    op: OpKind::ALL[op],
                    ino,
                    bytes,
                    file_size,
                    response,
                    category,
                    retries: if outcome % 3 == 0 {
                        (outcome >> 32) as u32
                    } else {
                        0
                    },
                    aborted: outcome % 5 == 0,
                }
            },
        )
}

fn arb_session() -> impl Strategy<Value = SessionRecord> {
    (
        0usize..10_000,
        0usize..8,
        any::<u32>(),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(user, user_type, session, (start, end, ops, files_referenced), tail)| {
                let (file_bytes_referenced, bytes_read, bytes_written, total_response) = tail;
                SessionRecord {
                    user,
                    user_type,
                    session,
                    start,
                    end,
                    ops,
                    files_referenced,
                    file_bytes_referenced,
                    bytes_accessed: bytes_read.wrapping_add(bytes_written),
                    bytes_read,
                    bytes_written,
                    total_response,
                }
            },
        )
}

/// Writes an interleaved record stream with the given frame capacity;
/// returns the file bytes and the log the stream described.
fn spill_stream(
    records: &[Result<OpRecord, SessionRecord>],
    frame_cap: usize,
) -> (Vec<u8>, UsageLog) {
    let mut sink = SpillSink::with_options(Vec::new(), frame_cap).unwrap();
    let mut expected = UsageLog::new();
    for record in records {
        match record {
            Ok(op) => {
                sink.record_op(op);
                expected.push_op(*op);
            }
            Err(session) => {
                sink.record_session(session);
                expected.push_session(*session);
            }
        }
    }
    (sink.finish().unwrap(), expected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Satellite oracle: SpillSink → disk bytes → read_spill reproduces the
    /// UsageLog byte-identically, for arbitrary record interleavings,
    /// and any frame capacity (tiny caps cross many
    /// frame boundaries; the empty stream is in range too).
    #[test]
    fn spill_round_trips_any_stream(
        records in prop::collection::vec(
            prop_oneof![arb_op().prop_map(Ok), arb_session().prop_map(Err)],
            0..300,
        ),
        frame_cap in 1usize..48,
    ) {
        let (bytes, expected) = spill_stream(&records, frame_cap);
        let back = read_spill(bytes.as_slice()).unwrap();
        prop_assert_eq!(back.to_json().unwrap(), expected.to_json().unwrap());
    }

    /// The streaming `SpillReader` yields exactly the records `read_spill`
    /// collects, in the same per-kind order, without a `UsageLog`.
    #[test]
    fn streaming_reader_matches_collecting_reader(
        records in prop::collection::vec(
            prop_oneof![arb_op().prop_map(Ok), arb_session().prop_map(Err)],
            0..200,
        ),
        frame_cap in 1usize..48,
    ) {
        let (bytes, expected) = spill_stream(&records, frame_cap);
        let mut streamed = UsageLog::new();
        for record in SpillReader::new(bytes.as_slice()).unwrap() {
            match record.unwrap() {
                SpillRecord::Op(op) => streamed.push_op(op),
                SpillRecord::Session(s) => streamed.push_session(s),
            }
        }
        prop_assert_eq!(streamed.to_json().unwrap(), expected.to_json().unwrap());
    }

    /// Robustness: a file cut at *any* byte short of its full length reads
    /// back as a clean error — never a panic, never a silently partial
    /// log. (The cut point is taken modulo the file length, so every
    /// region — magic, frame headers, columns, end marker — is hit.)
    #[test]
    fn any_truncation_is_a_clean_error(
        records in prop::collection::vec(
            prop_oneof![arb_op().prop_map(Ok), arb_session().prop_map(Err)],
            0..80,
        ),
        frame_cap in 1usize..32,
        cut_seed in any::<usize>(),
    ) {
        let (bytes, expected) = spill_stream(&records, frame_cap);
        let cut = cut_seed % bytes.len();
        // One cut is special: removing exactly the whole index footer
        // leaves a complete, unindexed stream — the pre-footer format —
        // which must stay readable with unchanged records.
        let frames = FrameIndex::load(&mut Cursor::new(&bytes)).unwrap().unwrap().frames();
        if cut == bytes.len() - footer_bytes(frames) {
            let back = read_spill(&bytes[..cut]).unwrap();
            prop_assert_eq!(back.to_json().unwrap(), expected.to_json().unwrap());
        } else {
            let err = read_spill(&bytes[..cut]);
            prop_assert!(err.is_err(), "cut at {} of {} must error", cut, bytes.len());
            // The streaming reader agrees: iteration ends in exactly one
            // error (or fails to open, when the magic itself is cut).
            match SpillReader::new(&bytes[..cut]) {
                Err(_) => {}
                Ok(reader) => {
                    let results: Vec<_> = reader.collect();
                    prop_assert!(results.last().is_some_and(Result::is_err));
                    prop_assert_eq!(
                        results.iter().filter(|r| r.is_err()).count(),
                        1,
                        "exactly one terminal error"
                    );
                }
            }
        }
    }

    /// Robustness: flipping any single bit of a file is detected — the
    /// CRC per frame, the magic check and the end-marker totals leave no
    /// unprotected byte.
    #[test]
    fn any_v2_bit_flip_is_detected(
        records in prop::collection::vec(
            prop_oneof![arb_op().prop_map(Ok), arb_session().prop_map(Err)],
            0..60,
        ),
        frame_cap in 1usize..32,
        flip_seed in any::<usize>(),
        bit in 0u8..8,
    ) {
        let (bytes, _) = spill_stream(&records, frame_cap);
        let mut flipped = bytes.clone();
        let at = flip_seed % flipped.len();
        flipped[at] ^= 1 << bit;
        prop_assert!(
            read_spill(flipped.as_slice()).is_err(),
            "flip at byte {} bit {} of {} went undetected",
            at,
            bit,
            flipped.len()
        );
    }

    /// Robustness: random leading bytes (wrong magic) are rejected up
    /// front unless they happen to *be* a valid magic.
    #[test]
    fn wrong_magic_is_rejected(head in prop::collection::vec(any::<u8>(), 0..32)) {
        if !head.starts_with(b"USWGSPL1") && !head.starts_with(b"USWGSPL2") {
            prop_assert!(read_spill(head.as_slice()).is_err());
        }
    }

    /// The index footer is a faithful map of the stream, for any record
    /// interleaving and frame capacity: entry record counts sum to
    /// the totals, tags match the frame kind, and seeking to each entry
    /// decodes exactly its records inside exactly its time range.
    #[test]
    fn index_footer_maps_every_frame(
        records in prop::collection::vec(
            prop_oneof![arb_op().prop_map(Ok), arb_session().prop_map(Err)],
            0..200,
        ),
        frame_cap in 1usize..48,
    ) {
        let (bytes, expected) = spill_stream(&records, frame_cap);
        let index = FrameIndex::load(&mut Cursor::new(&bytes)).unwrap().unwrap();
        let indexed: u64 = index.entries().iter().map(|e| u64::from(e.records)).sum();
        prop_assert_eq!(
            indexed as usize,
            expected.ops().len() + expected.sessions().len()
        );
        let mut reader = SpillReader::new(Cursor::new(&bytes)).unwrap();
        let (mut ops_seen, mut sessions_seen) = (0usize, 0usize);
        for entry in index.entries() {
            reader.seek_to_frames(entry.offset, 1).unwrap();
            let mut count = 0u32;
            let (mut min, mut max) = (u64::MAX, u64::MIN);
            for record in reader.by_ref() {
                let t = match record.unwrap() {
                    SpillRecord::Op(op) => {
                        prop_assert!(!entry.is_session_frame());
                        ops_seen += 1;
                        op.at
                    }
                    SpillRecord::Session(s) => {
                        prop_assert!(entry.is_session_frame());
                        sessions_seen += 1;
                        s.end
                    }
                };
                min = min.min(t);
                max = max.max(t);
                count += 1;
            }
            prop_assert_eq!(count, entry.records);
            prop_assert_eq!(min, entry.min_time);
            prop_assert_eq!(max, entry.max_time);
        }
        prop_assert_eq!(ops_seen, expected.ops().len());
        prop_assert_eq!(sessions_seen, expected.sessions().len());
    }

    /// Any cut *inside* the footer (the record stream and its end marker
    /// intact) degrades to unindexed streaming: `FrameIndex::load` reports
    /// no index, the streaming reader still yields every record, and the
    /// terminal error marks the stream itself complete — the salvage path
    /// that lets `--salvage` report exact totals.
    #[test]
    fn footer_cuts_degrade_to_unindexed_streaming(
        records in prop::collection::vec(
            prop_oneof![arb_op().prop_map(Ok), arb_session().prop_map(Err)],
            0..80,
        ),
        frame_cap in 1usize..32,
        cut_seed in any::<usize>(),
    ) {
        let (bytes, expected) = spill_stream(&records, frame_cap);
        let frames = FrameIndex::load(&mut Cursor::new(&bytes)).unwrap().unwrap().frames();
        let footer = footer_bytes(frames);
        let stream_end = bytes.len() - footer;
        let cut = stream_end + 1 + cut_seed % (footer - 1);
        let cut_bytes = &bytes[..cut];
        prop_assert!(FrameIndex::load(&mut Cursor::new(cut_bytes)).unwrap().is_none());
        let mut reader = SpillReader::new(cut_bytes).unwrap();
        let mut streamed = UsageLog::new();
        let mut terminal = None;
        for record in reader.by_ref() {
            match record {
                Ok(SpillRecord::Op(op)) => streamed.push_op(op),
                Ok(SpillRecord::Session(s)) => streamed.push_session(s),
                Err(e) => {
                    terminal = Some(e);
                    break;
                }
            }
        }
        let err = terminal.expect("a footer cut must end iteration in an error");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        prop_assert!(reader.stream_complete(), "the record stream itself is complete");
        prop_assert_eq!(streamed.to_json().unwrap(), expected.to_json().unwrap());
    }
}

/// Streams longer than one frame flush mid-run; the frame boundaries must
/// be invisible to the reader. (Deterministic, because it is about sizes,
/// not values.)
#[test]
fn frame_boundaries_are_invisible() {
    for count in [FRAME_CAP - 1, FRAME_CAP, FRAME_CAP + 1, 2 * FRAME_CAP + 37] {
        let mut sink = SpillSink::new(Vec::new()).unwrap();
        let mut expected = UsageLog::new();
        for i in 0..count as u64 {
            let op = OpRecord {
                at: i,
                user: (i % 7) as usize,
                session: (i % 3) as u32,
                op: OpKind::ALL[(i % 8) as usize],
                ino: i,
                bytes: i * 3,
                file_size: i * 5,
                response: i * 7,
                category: FileCategory::REG_USER_RDONLY,
                retries: 0,
                aborted: false,
            };
            sink.record_op(&op);
            expected.push_op(op);
        }
        let bytes = sink.finish().unwrap();
        let back = read_spill(bytes.as_slice()).unwrap();
        assert_eq!(back.ops().len(), count);
        assert_eq!(back.to_json().unwrap(), expected.to_json().unwrap());
    }
}

/// Robustness of the v1 reader, on the committed capture from the last
/// release that wrote v1: v1 has no checksum, so damage may read back as
/// other values, but a cut is always an error and a flipped bit never a
/// panic.
#[test]
fn v1_bit_flips_never_panic() {
    let v1 = include_bytes!("../../../tests/golden/v1.spill");
    for cut in 0..v1.len() {
        assert!(read_spill(&v1[..cut]).is_err(), "cut at {cut}");
    }
    for byte in 0..v1.len() {
        for bit in 0..8 {
            let mut flipped = v1.to_vec();
            flipped[byte] ^= 1 << bit;
            let _ = read_spill(flipped.as_slice()); // any Result is fine; panics are not
        }
    }
}
