//! Acceptance pins for spill scans: a windowed pass reads O(window) bytes
//! (counting-reader budget), sampling thins frames, a parallel pass merges
//! to the sequential statistics within 1e-9, and the path-level entry
//! points make one index-or-stream choice for `analyze` and `fit` alike.

use std::io::{Cursor, ErrorKind};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use uswg_analyze::scan::{scan_indexed, scan_path};
use uswg_analyze::{collect_fit, CountingReader, Coverage, ScanOptions};
use uswg_usim::{
    FrameIndex, LogSink, OpRecord, SessionRecord, SpillReader, SpillRecord, SpillSink, SummarySink,
};

use uswg_fsc::FileCategory;
use uswg_netfs::OpKind;

const FRAME: usize = 64;
const OPS: u64 = 4000;

/// A capture with strictly increasing completion times, several op kinds,
/// fault outcomes and interleaved sessions, at a small frame cap so the
/// file holds many frames.
fn capture() -> Vec<u8> {
    fill(SpillSink::with_options(Vec::new(), FRAME).unwrap())
}

fn fill(mut sink: SpillSink<Vec<u8>>) -> Vec<u8> {
    for i in 0..OPS {
        sink.record_op(&OpRecord {
            at: i * 10,
            user: (i % 97) as usize,
            session: (i % 7) as u32,
            op: OpKind::ALL[(i % 8) as usize],
            ino: i % 31,
            bytes: (i * 37) % 4096,
            file_size: 10_000,
            response: (i * 13) % 900 + 1,
            category: FileCategory::REG_USER_RDONLY,
            retries: (i % 5 == 0) as u32,
            aborted: i % 113 == 0,
        });
        if i % 60 == 0 {
            sink.record_session(&SessionRecord {
                user: (i % 97) as usize,
                user_type: (i % 3) as usize,
                session: (i / 60) as u32,
                start: i * 10,
                end: i * 10 + 5,
                ops: 60,
                files_referenced: 3,
                file_bytes_referenced: 30_000,
                bytes_accessed: i * 11,
                bytes_read: i * 7,
                bytes_written: i * 4,
                total_response: i * 29,
            });
        }
    }
    sink.finish().unwrap()
}

/// The plain sequential pass: stream every record, filter by window.
fn sequential(bytes: &[u8], opts: &ScanOptions) -> SummarySink {
    let mut stats = SummarySink::new();
    for record in SpillReader::new(bytes).unwrap() {
        let record = record.unwrap();
        if opts.record_in_window(&record) {
            match record {
                SpillRecord::Op(op) => stats.record_op(&op),
                SpillRecord::Session(s) => stats.record_session(&s),
            }
        }
    }
    stats
}

fn assert_stats_match(a: &SummarySink, b: &SummarySink) {
    assert_eq!(a.ops, b.ops);
    assert_eq!(a.sessions, b.sessions);
    assert_eq!(a.total_response, b.total_response);
    assert_eq!(a.data_bytes, b.data_bytes);
    assert_eq!(a.retries, b.retries);
    assert_eq!(a.aborted_ops, b.aborted_ops);
    assert_eq!(a.aborted_bytes, b.aborted_bytes);
    assert_eq!(a.user_types(), b.user_types());
    let (a_kinds, b_kinds) = (a.op_kind_summaries(), b.op_kind_summaries());
    assert_eq!(a_kinds.len(), b_kinds.len());
    for (x, y) in a_kinds.iter().zip(&b_kinds) {
        assert_eq!(x.kind, y.kind);
        assert_eq!(x.count, y.count);
        assert!((x.access_size.mean - y.access_size.mean).abs() < 1e-9);
        assert!((x.access_size.std_dev - y.access_size.std_dev).abs() < 1e-9);
        assert!((x.response.mean - y.response.mean).abs() < 1e-9);
        assert!((x.response.std_dev - y.response.std_dev).abs() < 1e-9);
        assert_eq!(x.access_size.min, y.access_size.min);
        assert_eq!(x.response.max, y.response.max);
    }
    let ((a_sz, a_re), (b_sz, b_re)) = (a.data_op_summary(), b.data_op_summary());
    assert_eq!(a_sz.n, b_sz.n);
    assert!((a_sz.mean - b_sz.mean).abs() < 1e-9);
    assert!((a_sz.std_dev - b_sz.std_dev).abs() < 1e-9);
    assert!((a_re.std_dev - b_re.std_dev).abs() < 1e-9);
    assert!((a.response_per_byte() - b.response_per_byte()).abs() < 1e-9);
}

#[test]
fn windowed_scan_reads_only_overlapping_frames() {
    let bytes = capture();
    let index = FrameIndex::load(&mut Cursor::new(&bytes)).unwrap().unwrap();
    // A ~5% window in the middle of the [0, 40_000) µs time line.
    let opts = ScanOptions {
        since: Some(20_000),
        until: Some(22_000),
        ..ScanOptions::default()
    };
    let overlapping: Vec<usize> = index
        .entries()
        .iter()
        .enumerate()
        .filter(|(_, e)| e.overlaps(opts.since, opts.until))
        .map(|(i, _)| i)
        .collect();
    assert!(!overlapping.is_empty());
    assert!(
        overlapping.len() < index.frames() / 10,
        "a 5% window should select well under 10% of {} frames",
        index.frames()
    );
    // Exact byte budget: the file magic plus the spans of the decoded
    // frames (each span = next entry's offset − this entry's offset; the
    // window excludes the last frame, so every decoded frame has a
    // successor). Seeks read nothing.
    let entries = index.entries();
    assert!(*overlapping.last().unwrap() < entries.len() - 1);
    let budget: u64 = 8 + overlapping
        .iter()
        .map(|&i| entries[i + 1].offset - entries[i].offset)
        .sum::<u64>();
    let bytes_read = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&bytes_read);
    let outcome = scan_indexed(&index, &opts, || {
        SpillReader::new(CountingReader::new(
            Cursor::new(&bytes),
            Arc::clone(&counter),
        ))
    })
    .unwrap();
    assert_eq!(outcome.frames_decoded, overlapping.len());
    assert_eq!(outcome.frames_total, index.frames());
    let read = bytes_read.load(Ordering::Relaxed);
    assert!(
        read <= budget,
        "windowed scan read {read} bytes, budget {budget} (file {})",
        bytes.len()
    );
    assert!(read < bytes.len() as u64 / 10, "not O(window)");
    // And the records match the filtered sequential pass exactly.
    assert_stats_match(&outcome.stats, &sequential(&bytes, &opts));
}

#[test]
fn parallel_scan_matches_sequential_within_1e_9() {
    let bytes = capture();
    let index = FrameIndex::load(&mut Cursor::new(&bytes)).unwrap().unwrap();
    let full = sequential(&bytes, &ScanOptions::default());
    for jobs in [2, 4, 7] {
        let opts = ScanOptions {
            jobs,
            ..ScanOptions::default()
        };
        let outcome =
            scan_indexed(&index, &opts, || SpillReader::new(Cursor::new(&bytes))).unwrap();
        assert_eq!(outcome.frames_decoded, index.frames());
        assert_stats_match(&outcome.stats, &full);
    }
    // A parallel *windowed* scan also matches its sequential filter.
    let opts = ScanOptions {
        since: Some(5_000),
        until: Some(30_000),
        jobs: 3,
        ..ScanOptions::default()
    };
    let outcome = scan_indexed(&index, &opts, || SpillReader::new(Cursor::new(&bytes))).unwrap();
    assert_stats_match(&outcome.stats, &sequential(&bytes, &opts));
}

#[test]
fn sampling_thins_the_selected_frames() {
    let bytes = capture();
    let index = FrameIndex::load(&mut Cursor::new(&bytes)).unwrap().unwrap();
    let k = 5u64;
    let opts = ScanOptions {
        sample: Some(k),
        ..ScanOptions::default()
    };
    let outcome = scan_indexed(&index, &opts, || SpillReader::new(Cursor::new(&bytes))).unwrap();
    let expected_frames = index.frames().div_ceil(k as usize);
    assert_eq!(outcome.frames_decoded, expected_frames);
    // The sampled stats hold exactly the records of every k-th frame.
    let expected_records: u64 = index
        .entries()
        .iter()
        .step_by(k as usize)
        .map(|e| u64::from(e.records))
        .sum();
    assert_eq!(outcome.stats.ops + outcome.stats.sessions, expected_records);
    // sample=1 and sample=None decode everything.
    let all = scan_indexed(
        &index,
        &ScanOptions {
            sample: Some(1),
            ..ScanOptions::default()
        },
        || SpillReader::new(Cursor::new(&bytes)),
    )
    .unwrap();
    assert_eq!(all.frames_decoded, index.frames());
    assert_stats_match(&all.stats, &sequential(&bytes, &ScanOptions::default()));
}

#[test]
fn empty_window_scans_nothing() {
    let bytes = capture();
    let index = FrameIndex::load(&mut Cursor::new(&bytes)).unwrap().unwrap();
    let opts = ScanOptions {
        since: Some(1_000_000),
        jobs: 4,
        ..ScanOptions::default()
    };
    let bytes_read = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&bytes_read);
    let outcome = scan_indexed(&index, &opts, || {
        SpillReader::new(CountingReader::new(
            Cursor::new(&bytes),
            Arc::clone(&counter),
        ))
    })
    .unwrap();
    assert_eq!(outcome.frames_decoded, 0);
    assert_eq!(outcome.stats.ops, 0);
    assert_eq!(outcome.stats.sessions, 0);
    // No frames selected → no reader ever opened.
    assert_eq!(bytes_read.load(Ordering::Relaxed), 0);
}

/// `bytes` as a file under cargo's per-target test tmpdir.
fn on_disk(name: &str, bytes: &[u8]) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("uswg-scan-{name}.bin"));
    std::fs::write(&path, bytes).unwrap();
    path
}

fn opts(since: Option<u64>, sample: Option<u64>, jobs: usize) -> ScanOptions {
    let until = since.map(|s| s + 2_000);
    ScanOptions {
        since,
        until,
        sample,
        jobs,
    }
}

#[test]
fn analyze_and_fit_make_one_index_or_stream_choice() {
    let indexed = on_disk("indexed", &capture());
    let bare = SpillSink::with_options(Vec::new(), FRAME).unwrap();
    let unindexed = on_disk("unindexed", &fill(bare.without_index()));
    // A filter, a fan-out request and `--sample 1` (which drops nothing) all
    // ask for the index; only the plain full pass does not.
    for (opts, wants_index) in [
        (opts(None, None, 0), false),
        (opts(Some(20_000), None, 0), true),
        (opts(None, Some(1), 0), true),
        (opts(None, Some(4), 0), true),
        (opts(None, None, 1), true),
        (opts(None, None, 3), true),
    ] {
        let (with, pass) = scan_path(&indexed, &opts, false).unwrap();
        let (without, streamed) = scan_path(&unindexed, &opts, false).unwrap();
        // Same records either way — unless sampling thins *frames*, which
        // only an index can do.
        if opts.sample.is_none_or(|k| k == 1) {
            assert_stats_match(&with, &without);
        }
        assert!(!pass.truncated && !streamed.truncated);
        let fallback = if wants_index {
            Coverage::Filtered
        } else {
            Coverage::Full
        };
        assert_eq!(streamed.coverage, fallback, "{opts:?}");
        // `fit` reports the frames `analyze` reports, or neither does.
        let fit = collect_fit(&indexed, &opts).unwrap();
        match pass.coverage {
            Coverage::Indexed { decoded, total } if wants_index => {
                assert_eq!(
                    (fit.frames_decoded, fit.frames_total),
                    (Some(decoded), Some(total))
                );
            }
            Coverage::Full if !wants_index => assert_eq!(fit.frames_total, None),
            other => panic!("{opts:?}: {other:?}"),
        }
    }
}

#[test]
fn salvage_accepts_a_cut_says_where_and_still_rejects_corruption() {
    let bytes = capture();
    let full = ScanOptions::default();
    // Mid-stream: the intact prefix, a lower bound.
    let mid = on_disk("cut-mid", &bytes[..bytes.len() * 2 / 3]);
    let err = scan_path(&mid, &full, false).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    let (stats, pass) = scan_path(&mid, &full, true).unwrap();
    assert!(pass.truncated && !pass.stream_complete);
    assert!(0 < stats.ops && stats.ops < OPS, "{}", stats.ops);
    // Inside the footer: every record, exact totals — and a windowed pass
    // streams rather than trusting half an index.
    let foot = on_disk("cut-foot", &bytes[..bytes.len() - 5]);
    assert!(scan_path(&foot, &full, false).is_err());
    let (stats, pass) = scan_path(&foot, &opts(Some(0), None, 0), true).unwrap();
    assert!(pass.truncated && pass.stream_complete);
    assert_eq!(
        (stats.ops, pass.coverage),
        (2_000 / 10 + 1, Coverage::Filtered)
    );
    // A flipped byte is a frame that lied: no salvage.
    let mut flipped = bytes.clone();
    flipped[bytes.len() / 2] ^= 0x40;
    let err = scan_path(on_disk("flipped", &flipped), &full, true).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData);
}
