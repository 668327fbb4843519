//! The format's whole-file tests: records through [`SpillSink`], bytes back
//! through [`SpillReader`] / [`read_spill`] / [`FrameIndex`], plus the
//! column and code round trips underneath.

use super::column::*;
use super::frame::*;
use super::index::*;
use super::*;
use crate::log::{OpRecord, SessionRecord, UsageLog};
use crate::sink::LogSink;
use std::io::{self, Write};
use uswg_fsc::{FileCategory, FileType, Owner, UsageClass};
use uswg_netfs::OpKind;

/// The column decoders fill a slice the frame decoder sized; these hand the
/// column tests their values back.
fn decode_delta_col(buf: &[u8], count: usize) -> io::Result<Vec<u64>> {
    let mut out = vec![0; count];
    column::decode_delta_col(buf, &mut out).map(|()| out)
}

fn decode_u8_col(buf: &[u8], count: usize) -> io::Result<Vec<u8>> {
    let mut out = vec![0; count];
    column::decode_u8_col(buf, &mut out).map(|()| out.iter().map(|&v| v as u8).collect())
}

pub(super) fn sample_op(i: u64) -> OpRecord {
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
pub(super) fn faulted_op(i: u64) -> OpRecord {
    OpRecord {
        retries: (i % 4) as u32,
        aborted: i.is_multiple_of(5),
        ..sample_op(i)
    }
}

pub(super) fn sample_session(i: u64) -> SessionRecord {
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

/// What the ops-only and the sessions-only reader each yield from `bytes`.
fn filtered(bytes: &[u8]) -> (Vec<OpRecord>, Vec<SessionRecord>) {
    let ops = SpillReader::new(bytes)
        .unwrap()
        .ops_only()
        .map(|r| match r.unwrap() {
            SpillRecord::Op(op) => op,
            SpillRecord::Session(_) => panic!("sessions were filtered out"),
        })
        .collect();
    let sessions = SpillReader::new(bytes)
        .unwrap()
        .sessions_only()
        .map(|r| match r.unwrap() {
            SpillRecord::Session(s) => s,
            SpillRecord::Op(_) => panic!("ops were filtered out"),
        })
        .collect();
    (ops, sessions)
}

fn write_all(n_ops: u64) -> (Vec<u8>, UsageLog) {
    let mut sink = SpillSink::new(Vec::new()).unwrap();
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
fn round_trips_multiple_frames() {
    // 3 × FRAME_CAP ops forces mid-run frame flushes; interleaved
    // session records verify per-kind order is preserved.
    let (bytes, expected) = write_all(3 * FRAME_CAP as u64 + 100);
    let back = read_spill(bytes.as_slice()).unwrap();
    assert_eq!(back.ops().len(), expected.ops().len());
    assert_eq!(back.sessions().len(), expected.sessions().len());
    // Byte-identical serialized form: the reconstruction is lossless.
    assert_eq!(back.to_json().unwrap(), expected.to_json().unwrap());
}

/// A v1 capture from the last release that wrote the format: the records
/// of [`record_v1_fixture`] at 4 per frame, without the index footer.
const V1: &[u8] = include_bytes!("../../../../tests/golden/v1.spill");

/// Records what [`V1`] holds into `sink`: 40 ops, clean for the first 20
/// and faulted after, so the 4-record frames cross both kinds of op frame,
/// and a session every 7 ops.
fn record_v1_fixture(sink: &mut impl LogSink) {
    for i in 0..40 {
        sink.record_op(&if i < 20 { sample_op(i) } else { faulted_op(i) });
        if i % 7 == 0 {
            sink.record_session(&sample_session(i));
        }
    }
}

/// The records of [`V1`] as the writer writes them today, 4 per frame.
fn v1_fixture_as_v2() -> Vec<u8> {
    let mut sink = SpillSink::with_options(Vec::new(), 4).unwrap();
    record_v1_fixture(&mut sink);
    sink.finish().unwrap()
}

#[test]
fn fault_outcomes_round_trip_both_codecs() {
    // Clean frames keep the plain tag, frames holding any non-default
    // outcome carry the fault columns; a stream written today (v2) and the
    // committed v1 capture both read back losslessly and interleave
    // correctly with session frames.
    let mut expected = UsageLog::new();
    record_v1_fixture(&mut expected);
    for bytes in [v1_fixture_as_v2().as_slice(), V1] {
        let back = read_spill(bytes).unwrap();
        assert_eq!(back.to_json().unwrap(), expected.to_json().unwrap());
        // Filtered readers handle (decode and skip) both op tags.
        let (ops, sessions) = filtered(bytes);
        assert_eq!(ops, expected.ops());
        assert_eq!(sessions, expected.sessions());
    }
    assert_eq!(SpillReader::new(V1).unwrap().codec(), SpillCodec::Raw);
}

#[test]
fn compressed_files_are_measurably_smaller() {
    let v2 = v1_fixture_as_v2();
    assert!(
        (v2.len() as f64) < 0.7 * V1.len() as f64,
        "v2 {} vs v1 {}",
        v2.len(),
        V1.len()
    );
}

#[test]
fn v1_rejects_non_boolean_aborted() {
    // The strict 0/1 decode is v1's only integrity check. Op 39's aborted
    // byte (0) ends the last op frame, which the last session frame (2
    // records of 92 bytes after a 5-byte header) and the end marker follow.
    let mut bad = V1.to_vec();
    let aborted_at = bad.len() - 17 - (5 + 2 * 92) - 1;
    assert_eq!(bad[aborted_at], 0);
    bad[aborted_at] = 7;
    let err = read_spill(bad.as_slice()).unwrap_err();
    assert!(err.to_string().contains("aborted flag"), "{err}");
}

#[test]
fn default_outcomes_never_change_the_byte_stream() {
    // Records whose outcome fields hold the defaults must produce a
    // file indistinguishable from one written by a pre-fault release.
    // `frame_has_faults` gates the tag choice: all-default frames take the
    // historical tag…
    assert!(!frame_has_faults(&[sample_op(3), sample_op(4)]));
    assert!(frame_has_faults(&[sample_op(3), faulted_op(21)]));
    // …so decoding a clean stream and re-writing it reproduces the
    // original file byte for byte (no fault frames appear).
    let (bytes, _) = write_all(200);
    let log = read_spill(bytes.as_slice()).unwrap();
    let mut rewrite = SpillSink::new(Vec::new()).unwrap();
    for op in log.ops() {
        rewrite.record_op(op);
    }
    for s in log.sessions() {
        rewrite.record_session(s);
    }
    assert_eq!(rewrite.finish().unwrap(), bytes);
}

#[test]
fn v2_fault_frames_detect_bit_flips() {
    let mut sink = SpillSink::new(Vec::new()).unwrap();
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
        let mut sink = SpillSink::new(Vec::new()).unwrap();
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
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{indexed}");
        let mut reader = SpillReader::new(bytes.as_slice()).unwrap();
        let last = (&mut reader).last().expect("at least one item");
        assert!(last.is_err(), "streaming reader accepted garbage");
        // The records themselves were all intact: salvage callers
        // can still tell this apart from mid-stream damage.
        assert!(reader.stream_complete());
    }
}

#[test]
fn index_footer_round_trips_and_matches_the_stream() {
    let mut sink = SpillSink::with_options(Vec::new(), 8).unwrap();
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
    assert_eq!(index.records(), 50 + 6);
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
        assert_eq!(records.len(), entry.records as usize);
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
    let mut sink = SpillSink::with_options(Vec::new(), 8).unwrap();
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
fn rejects_empty_frames() {
    // A well-formed frame of no records (v2: CRC and all) spliced in before
    // the end marker used to read back clean: the totals still reconcile,
    // and in an indexed file every later frame sits off its footer offset.
    // The one header parse rejects it, so decoding, skipping and seeking
    // passes all do.
    let mut sink = SpillSink::new(Vec::new()).unwrap();
    sink.record_op(&sample_op(1));
    sink.record_session(&sample_session(1));
    let v2 = sink.without_index().finish().unwrap();
    let mut v2_empties = [Vec::new(), Vec::new()];
    write_frame::<OpRecord, _>(&mut v2_empties[0], &[]).unwrap();
    write_frame::<SessionRecord, _>(&mut v2_empties[1], &[]).unwrap();
    // v1 has no CRC to notice one: its empty frame is the header alone.
    let v1_empties = [TAG_OPS, TAG_SESSIONS].map(|tag| vec![tag, 0, 0, 0, 0]);
    for (stream, empties) in [(v2, v2_empties), (V1.to_vec(), v1_empties)] {
        for empty in empties {
            let mut bytes = stream.clone();
            let at = bytes.len() - 17; // just before the end marker
            bytes.splice(at..at, empty);
            let open = || SpillReader::new(bytes.as_slice()).unwrap();
            let mut seeking = SpillReader::new(io::Cursor::new(&bytes)).unwrap();
            seeking.seek_to_frames(at as u64, 1).unwrap();
            let passes: [io::Result<Vec<SpillRecord>>; 4] = [
                open().collect(),
                open().ops_only().collect(),
                open().sessions_only().collect(),
                seeking.collect(),
            ];
            for pass in passes {
                let err = pass.unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                assert!(err.to_string().contains("frame count"), "{err}");
            }
        }
    }
}

#[test]
fn truncated_stream_errors() {
    let mut sink = SpillSink::new(Vec::new()).unwrap();
    sink.record_op(&sample_op(1));
    let bytes = sink.finish().unwrap();
    // Drop the last byte: the final marker comes up short.
    assert!(read_spill(&bytes[..bytes.len() - 1]).is_err());
}

#[test]
fn v2_detects_every_single_bit_flip() {
    // CRC32 over tag + count + columns, plus the end-marker totals and
    // the magic check, cover every byte of a v2 file: any single-bit
    // corruption must surface as a clean error, never as a silently
    // different log (and never as a panic).
    let (bytes, _) = write_all(64);
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
    let (bytes, expected) = write_all(300);
    let mut streamed = UsageLog::new();
    let mut reader = SpillReader::new(bytes.as_slice()).unwrap();
    assert_eq!(reader.codec(), SpillCodec::Compressed);
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

#[test]
fn filtered_readers_skip_without_decoding() {
    // Tiny frames force many skips of each kind, interleaved.
    let mut sink = SpillSink::with_options(Vec::new(), 3).unwrap();
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
    let (ops, sessions) = filtered(&bytes);
    assert_eq!(ops, expected.ops());
    assert_eq!(sessions, expected.sessions());
    // Truncation inside a *skipped* frame still errors cleanly.
    let cut = &bytes[..bytes.len() / 2];
    let results: Vec<_> = SpillReader::new(cut).unwrap().ops_only().collect();
    assert!(results.last().is_some_and(Result::is_err));
}

#[test]
fn reader_fuses_after_an_error() {
    let (bytes, _) = write_all(10);
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
    let mut sink = SpillSink::with_options(Vec::new(), 3).unwrap();
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
    let mut sink = SpillSink::new(FailAfter { left: 64 }).unwrap();
    for i in 0..(FRAME_CAP as u64 + 1) {
        sink.record_op(&sample_op(i)); // mid-run flush hits the fault
    }
    assert!(sink.finish().is_err());
}
