use super::index::MAGIC_TRAILER;
use super::tests::sample_op;
use super::{FrameIndex, SpillSink};
use crate::sink::LogSink;

/// A trailer whose declared `footer_len` exceeds the file must fail
/// cleanly — the footer-start computation used to underflow (a debug
/// panic; in release the wrapped offset sailed past the sanity check).
#[test]
fn huge_footer_len_is_rejected_not_a_panic() {
    let mut sink = SpillSink::new(Vec::new()).unwrap().without_index();
    for i in 0..10 {
        sink.record_op(&sample_op(i));
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
