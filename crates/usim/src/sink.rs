//! Streaming destinations for usage records.
//!
//! At paper scale (a handful of users × 50 sessions) materializing every
//! [`OpRecord`] is free; at millions of users the op vector **is** the
//! memory ceiling, and no report needs it: every Table 5.3 and Figures
//! 5.6–5.12 number is a running summary of the record stream. [`LogSink`]
//! abstracts where records go: a [`UsageLog`] collects everything, a
//! spill file streams it to disk, and [`SummarySink`] — the one
//! accumulator every report reads, live or replayed — folds each record
//! into running aggregates in O(1) memory regardless of run length.

use crate::log::{OpRecord, SessionRecord, UsageLog};
use crate::stats::{Overflow, StreamingSummary, Summary, TotalsOverflow};
use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, SyncSender};
use uswg_netfs::OpKind;

/// A destination for the records a driver produces.
///
/// Methods take references so a sink never forces a copy it does not need.
pub trait LogSink {
    /// Receives one executed operation. Only called when the run's
    /// `record_ops` flag is on.
    fn record_op(&mut self, op: &OpRecord);

    /// Receives one completed session.
    fn record_session(&mut self, session: &SessionRecord);
}

/// Collects everything.
impl LogSink for UsageLog {
    fn record_op(&mut self, op: &OpRecord) {
        self.push_op(*op);
    }

    fn record_session(&mut self, session: &SessionRecord) {
        self.push_session(*session);
    }
}

/// A tee: every record goes to both sinks, left first. Lets one run feed a
/// streaming summary *and* a spill file (the `uswg run --spill` path) with
/// no extra driver machinery.
impl<A: LogSink, B: LogSink> LogSink for (A, B) {
    fn record_op(&mut self, op: &OpRecord) {
        self.0.record_op(op);
        self.1.record_op(op);
    }

    fn record_session(&mut self, session: &SessionRecord) {
        self.0.record_session(session);
        self.1.record_session(session);
    }
}

/// Bounded-channel sink: forwards each op record to a consumer on another
/// thread, blocking once the channel holds `capacity` records. That block
/// *is* the backpressure — a DES run producing on one thread and a
/// consumer pacing on another hold at most O(capacity) records resident
/// between them, however long the run. Session records are dropped (the
/// consumer side of this sink is an op stream).
///
/// If the receiver goes away the sink stops sending and the run finishes
/// normally; [`ChannelSink::is_disconnected`] reports that it happened.
#[derive(Debug)]
pub struct ChannelSink {
    tx: SyncSender<OpRecord>,
    disconnected: bool,
}

impl ChannelSink {
    /// A sink/receiver pair over a channel buffering `capacity` records
    /// (floored at one).
    pub fn bounded(capacity: usize) -> (Self, Receiver<OpRecord>) {
        let (tx, rx) = std::sync::mpsc::sync_channel(capacity.max(1));
        (
            Self {
                tx,
                disconnected: false,
            },
            rx,
        )
    }

    /// True once the receiver has hung up; later records are discarded.
    pub fn is_disconnected(&self) -> bool {
        self.disconnected
    }
}

impl LogSink for ChannelSink {
    fn record_op(&mut self, op: &OpRecord) {
        if self.disconnected {
            return;
        }
        if self.tx.send(*op).is_err() {
            self.disconnected = true;
        }
    }

    fn record_session(&mut self, _session: &SessionRecord) {}
}

/// One row of the per-system-call summary (Table 5.3).
#[derive(Debug, Clone, PartialEq)]
pub struct OpKindSummary {
    /// The system call.
    pub kind: OpKind,
    /// Number of calls observed.
    pub count: usize,
    /// Access-size statistics over the calls (bytes).
    pub access_size: Summary,
    /// Response-time statistics over the calls (µs).
    pub response: Summary,
}

/// Per-user-type aggregates folded from the session records of a stream:
/// the breakdown `uswg analyze --by-type` reports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UserTypeStream {
    /// Sessions completed by users of this type.
    pub sessions: u64,
    /// System calls those sessions issued.
    pub ops: u64,
    /// Bytes moved by those sessions' reads and writes.
    pub bytes_accessed: u64,
    /// Total response time of those sessions' calls, µs.
    pub total_response_us: u64,
}

impl UserTypeStream {
    /// Mean response time per accessed byte, µs (0 while no bytes moved).
    pub fn response_per_byte(&self) -> f64 {
        if self.bytes_accessed == 0 {
            0.0
        } else {
            self.total_response_us as f64 / self.bytes_accessed as f64
        }
    }

    fn absorb(&mut self, other: &Self, overflow: &mut Overflow) {
        overflow.add(&mut self.sessions, other.sessions);
        overflow.add(&mut self.ops, other.ops);
        overflow.add(&mut self.bytes_accessed, other.bytes_accessed);
        overflow.add(&mut self.total_response_us, other.total_response_us);
    }
}

/// The Usage Analyzer's accumulator (Section 5.1): folds a record stream
/// into the Table 5.3 per-system-call summaries, the data-op aggregate,
/// the Figures 5.6–5.12 response-per-byte metric, fault outcomes and a
/// per-user-type session breakdown, in O(1) memory however long the
/// stream. `uswg run`, the sweeps and replications feed it live, `uswg
/// analyze` from a spill file, and [`SummarySink::of`] replays a collected
/// [`UsageLog`] through it. Counts, extrema and means equal a two-pass
/// [`Summary::of`] over the same values; standard deviations are one-pass
/// Welford and agree to ≤ 1e-9 relative (property-tested). Byte and µs
/// totals saturate rather than wrap: [`SummarySink::check_totals`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SummarySink {
    /// Operations observed.
    pub ops: u64,
    /// Data operations (reads/writes moving at least one byte).
    pub data_ops: u64,
    /// Bytes moved by data operations.
    pub data_bytes: u64,
    /// Total response time over all operations, µs.
    pub total_response: u64,
    /// Sessions observed.
    pub sessions: u64,
    /// Total bytes accessed across sessions.
    pub session_bytes_accessed: u64,
    /// Retried attempts summed over all operations (fault injection).
    pub retries: u64,
    /// Operations that exhausted their retry budget and were aborted.
    pub aborted_ops: u64,
    /// Bytes moved by *aborted* data operations — subtract from
    /// `data_bytes` for goodput.
    pub aborted_bytes: u64,
    /// Access-size and response moments of every call, by
    /// [`OpKind::index`].
    per_kind: [(StreamingSummary, StreamingSummary); OpKind::ALL.len()],
    /// Running moments of data-op access sizes and response times. Their
    /// own accumulators, not a merge of the read and write rows, so a
    /// sweep point's statistics keep their exact accumulation order.
    access_size: StreamingSummary,
    response: StreamingSummary,
    user_types: BTreeMap<usize, UserTypeStream>,
    overflow: Overflow,
}

impl SummarySink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulator over a collected log: its op records, then its
    /// session records — the post-hoc form of every figure here.
    pub fn of(log: &UsageLog) -> Self {
        let mut sink = Self::new();
        for op in log.ops() {
            sink.record_op(op);
        }
        for session in log.sessions() {
            sink.record_session(session);
        }
        sink
    }

    /// Folds `other` into `self`, as if every record `other` saw had been
    /// recorded here too. This is the reduction step for sweep,
    /// replicated and parallel-analyze passes: fan the stream out over
    /// independent sinks, then merge them in order — counts, sums and
    /// extrema combine exactly, and the variance accumulators combine via
    /// Chan's parallel formula, so a merged sink differs from a single pass
    /// over the concatenated stream only by floating-point rounding order
    /// (≤ 1e-9 relative, property-tested).
    pub fn merge(&mut self, other: &SummarySink) {
        let overflow = &mut self.overflow;
        overflow.merge(other.overflow);
        for (total, x) in [
            (&mut self.ops, other.ops),
            (&mut self.data_ops, other.data_ops),
            (&mut self.data_bytes, other.data_bytes),
            (&mut self.total_response, other.total_response),
            (&mut self.sessions, other.sessions),
            (
                &mut self.session_bytes_accessed,
                other.session_bytes_accessed,
            ),
            (&mut self.retries, other.retries),
            (&mut self.aborted_ops, other.aborted_ops),
            (&mut self.aborted_bytes, other.aborted_bytes),
        ] {
            overflow.add(total, x);
        }
        for (mine, theirs) in self.per_kind.iter_mut().zip(&other.per_kind) {
            mine.0.merge(&theirs.0);
            mine.1.merge(&theirs.1);
        }
        self.access_size.merge(&other.access_size);
        self.response.merge(&other.response);
        for (&user_type, theirs) in &other.user_types {
            let mine = self.user_types.entry(user_type).or_default();
            mine.absorb(theirs, overflow);
        }
    }

    /// `Err` when a byte or µs total passed `u64::MAX` and saturated: every
    /// sum-derived figure would be wrong, so a report should refuse.
    ///
    /// # Errors
    ///
    /// [`TotalsOverflow`] once any total has saturated.
    pub fn check_totals(&self) -> Result<(), TotalsOverflow> {
        self.overflow.check()
    }

    /// Bytes moved by data operations that completed without aborting —
    /// the goodput numerator under fault injection (equal to `data_bytes`
    /// in a fault-free run).
    pub fn goodput_bytes(&self) -> u64 {
        self.data_bytes - self.aborted_bytes
    }

    /// Fraction of operations that aborted (0 in a fault-free run).
    pub fn abort_rate(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.aborted_ops as f64 / self.ops as f64
        }
    }

    /// Mean response time per data byte, µs — the Figures 5.6–5.12 metric
    /// (matching [`SessionRecord::response_per_byte`]). It charges metadata
    /// calls to the transferred bytes: a whole-file-caching design does its
    /// expensive work at `open` time, and a per-byte metric that ignored
    /// opens would make it look free (Section 5.3's comparison would be
    /// meaningless).
    pub fn response_per_byte(&self) -> f64 {
        if self.data_bytes == 0 {
            0.0
        } else {
            self.total_response as f64 / self.data_bytes as f64
        }
    }

    /// Access-size statistics over data operations, bytes (the zero
    /// summary while empty, matching `Summary::of(&[])`).
    pub fn access_size(&self) -> Summary {
        self.access_size.summary()
    }

    /// Response-time statistics over data operations, µs.
    pub fn response(&self) -> Summary {
        self.response.summary()
    }

    /// [`access_size`](Self::access_size) and
    /// [`response`](Self::response): the aggregate over data calls that
    /// Table 5.3 reports per user count.
    pub fn data_op_summary(&self) -> (Summary, Summary) {
        (self.access_size(), self.response())
    }

    /// Per-system-call summaries in [`OpKind::ALL`] order, skipping kinds
    /// that never occurred.
    pub fn op_kind_summaries(&self) -> Vec<OpKindSummary> {
        OpKind::ALL
            .iter()
            .zip(&self.per_kind)
            .filter(|(_, (sizes, _))| sizes.count() > 0)
            .map(|(&kind, (sizes, responses))| OpKindSummary {
                kind,
                count: sizes.count() as usize,
                access_size: sizes.summary(),
                response: responses.summary(),
            })
            .collect()
    }

    /// Per-user-type session aggregates, keyed by the population's type
    /// index (ascending).
    pub fn user_types(&self) -> &BTreeMap<usize, UserTypeStream> {
        &self.user_types
    }
}

impl LogSink for SummarySink {
    fn record_op(&mut self, op: &OpRecord) {
        let overflow = &mut self.overflow;
        self.ops += 1;
        overflow.add(&mut self.total_response, op.response);
        overflow.add(&mut self.retries, u64::from(op.retries));
        if op.aborted {
            self.aborted_ops += 1;
        }
        let (bytes, response) = (op.bytes as f64, op.response as f64);
        let kind = &mut self.per_kind[op.op.index()];
        kind.0.push(bytes);
        kind.1.push(response);
        if op.op.is_data() && op.bytes > 0 {
            self.data_ops += 1;
            overflow.add(&mut self.data_bytes, op.bytes);
            if op.aborted {
                overflow.add(&mut self.aborted_bytes, op.bytes);
            }
            self.access_size.push(bytes);
            self.response.push(response);
        }
    }

    fn record_session(&mut self, session: &SessionRecord) {
        self.sessions += 1;
        let overflow = &mut self.overflow;
        overflow.add(&mut self.session_bytes_accessed, session.bytes_accessed);
        let stream = UserTypeStream {
            sessions: 1,
            ops: session.ops,
            bytes_accessed: session.bytes_accessed,
            total_response_us: session.total_response,
        };
        let entry = self.user_types.entry(session.user_type).or_default();
        entry.absorb(&stream, overflow);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use uswg_fsc::FileCategory;

    fn op(kind: OpKind, bytes: u64, response: u64) -> OpRecord {
        OpRecord {
            at: 0,
            user: 0,
            session: 0,
            op: kind,
            ino: 1,
            bytes,
            file_size: 1000,
            response,
            category: FileCategory::REG_USER_RDONLY,
            retries: 0,
            aborted: false,
        }
    }

    #[test]
    fn summary_matches_metrics_semantics() {
        let mut sink = SummarySink::new();
        sink.record_op(&op(OpKind::Open, 0, 400));
        sink.record_op(&op(OpKind::Read, 400, 100));
        // (400 + 100) µs over 400 data bytes: the open is charged too.
        assert!((sink.response_per_byte() - 1.25).abs() < 1e-12);
        assert_eq!(sink.ops, 2);
        assert_eq!(sink.data_ops, 1);
    }

    #[test]
    fn empty_sink_is_all_zero() {
        let sink = SummarySink::new();
        assert_eq!(sink.response_per_byte(), 0.0);
        assert_eq!(sink.access_size(), Summary::of(&[]));
        assert_eq!(sink.response(), Summary::of(&[]));
        assert!(sink.op_kind_summaries().is_empty() && sink.user_types().is_empty());
        assert_eq!(UserTypeStream::default().response_per_byte(), 0.0);
    }

    #[test]
    fn usage_log_is_a_sink() {
        let mut log = UsageLog::new();
        LogSink::record_op(&mut log, &op(OpKind::Read, 8, 1));
        assert_eq!(log.ops().len(), 1);
    }

    #[test]
    fn extrema_track_data_ops_only() {
        let mut sink = SummarySink::new();
        assert_eq!(sink.access_size().min, 0.0);
        assert_eq!(sink.response().max, 0.0);
        sink.record_op(&op(OpKind::Open, 0, 9_999)); // metadata: no extrema
        sink.record_op(&op(OpKind::Read, 100, 10));
        sink.record_op(&op(OpKind::Write, 300, 30));
        assert_eq!(sink.access_size().min, 100.0);
        assert_eq!(sink.access_size().max, 300.0);
        assert_eq!(sink.response().min, 10.0);
        assert_eq!(sink.response().max, 30.0);
    }

    #[test]
    fn summary_moments_match_direct_computation() {
        let sink = fold(
            &[op(OpKind::Write, 100, 10), op(OpKind::Write, 300, 30)],
            &[],
        );
        assert!((sink.access_size().mean - 200.0).abs() < 1e-9);
        // Sample std dev of {100, 300} is sqrt(20000) ≈ 141.42.
        assert!((sink.access_size().std_dev - 20000f64.sqrt()).abs() < 1e-9);
        assert!((sink.response().mean - 20.0).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_single_stream() {
        let records = [
            op(OpKind::Read, 100, 10),
            op(OpKind::Open, 0, 5),
            op(OpKind::Write, 300, 30),
            op(OpKind::Read, 50, 7),
        ];
        let session = SessionRecord {
            ops: 4,
            bytes_accessed: 450,
            total_response: 52,
            ..SessionRecord::default()
        };
        let whole = fold(&records, &[session]);
        let mut merged = fold(&records[..2], &[]);
        merged.merge(&fold(&records[2..], &[session]));
        // Integer tallies and extrema combine exactly; the float sums here
        // are small integers, so even those are exact.
        assert_eq!(merged, whole);
        // Merging an empty sink is the identity.
        merged.merge(&SummarySink::new());
        assert_eq!(merged, whole);
    }

    fn fold(ops: &[OpRecord], sessions: &[SessionRecord]) -> SummarySink {
        let mut sink = SummarySink::new();
        ops.iter().for_each(|o| sink.record_op(o));
        sessions.iter().for_each(|s| sink.record_session(s));
        sink
    }

    #[track_caller]
    fn assert_close(got: &Summary, want: &Summary) {
        let rel = |a: f64, b: f64| (a - b).abs() / a.abs().max(b.abs()).max(1.0);
        assert_eq!((got.n, got.min, got.max), (want.n, want.min, want.max));
        assert!(rel(got.mean, want.mean) < 1e-9, "{got:?} vs {want:?}");
        assert!(rel(got.std_dev, want.std_dev) < 1e-9, "{got:?} vs {want:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random records over every kind, faults on or off, 1–4 user
        /// types, split at a random point: the two halves merged equal one
        /// pass (integer tallies exactly, moments to 1e-9), and every
        /// summary equals a two-pass `Summary::of` over the same values.
        #[test]
        fn merge_equals_a_single_pass(
            ops in prop::collection::vec((0usize..8, 0u64..5_000, 0u64..90_000, 0u32..4, 0u8..6), 0..300),
            sessions in prop::collection::vec((0usize..4, 0u64..500, 0u64..1 << 20, 0u64..1 << 24), 0..40),
            faults in any::<bool>(),
            types in 1usize..5,
            split in 0.0f64..1.0,
        ) {
            let ops: Vec<OpRecord> = ops
                .into_iter()
                .map(|(kind, bytes, response, retries, abort)| OpRecord {
                    retries: if faults { retries } else { 0 },
                    aborted: faults && abort == 0,
                    ..op(OpKind::ALL[kind], bytes, response)
                })
                .collect();
            let sessions: Vec<SessionRecord> = sessions
                .into_iter()
                .map(|(user_type, ops, bytes_accessed, total_response)| SessionRecord {
                    user_type: user_type % types,
                    ops,
                    bytes_accessed,
                    total_response,
                    ..SessionRecord::default()
                })
                .collect();
            let whole = fold(&ops, &sessions);
            let (i, j) = ((ops.len() as f64 * split) as usize, (sessions.len() as f64 * split) as usize);
            let mut merged = fold(&ops[..i], &sessions[..j]);
            merged.merge(&fold(&ops[i..], &sessions[j..]));

            let tallies = |s: &SummarySink| {
                [s.ops, s.data_ops, s.data_bytes, s.total_response, s.sessions,
                 s.session_bytes_accessed, s.retries, s.aborted_ops, s.aborted_bytes]
            };
            prop_assert_eq!(tallies(&merged), tallies(&whole));
            prop_assert_eq!(merged.user_types(), whole.user_types());
            let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
            for (&t, row) in whole.user_types() {
                let of_type: Vec<_> = sessions.iter().filter(|s| s.user_type == t).collect();
                let bytes: u64 = of_type.iter().map(|s| s.bytes_accessed).sum();
                let response: u64 = of_type.iter().map(|s| s.total_response).sum();
                prop_assert!(t < types);
                prop_assert_eq!((row.sessions, row.bytes_accessed), (of_type.len() as u64, bytes));
                prop_assert_eq!(row.response_per_byte(), ratio(response, bytes));
            }
            prop_assert_eq!(whole.check_totals(), Ok(()));
            let data = |o: &&OpRecord| o.op.is_data() && o.bytes > 0;
            let data_bytes: u64 = ops.iter().filter(data).map(|o| o.bytes).sum();
            let total: u64 = ops.iter().map(|o| o.response).sum();
            prop_assert_eq!((whole.data_bytes, whole.total_response), (data_bytes, total));
            // Metadata calls are charged to the data bytes.
            prop_assert_eq!(whole.response_per_byte(), ratio(total, data_bytes));
            let aborted = ops.iter().filter(|o| o.aborted);
            let aborted_bytes: u64 = aborted.clone().filter(data).map(|o| o.bytes).sum();
            prop_assert_eq!(whole.abort_rate(), ratio(aborted.count() as u64, ops.len() as u64));
            prop_assert_eq!(whole.goodput_bytes(), data_bytes - aborted_bytes);
            let two_pass = |of: &mut dyn Iterator<Item = &OpRecord>| {
                let rows: Vec<_> = of.map(|o| (o.bytes as f64, o.response as f64)).collect();
                let (sizes, responses): (Vec<f64>, Vec<f64>) = rows.into_iter().unzip();
                (Summary::of(&sizes), Summary::of(&responses))
            };
            for sink in [&whole, &merged] {
                let (sizes, responses) = two_pass(&mut ops.iter().filter(data));
                assert_close(&sink.access_size(), &sizes);
                assert_close(&sink.response(), &responses);
                let rows = sink.op_kind_summaries();
                let seen: Vec<OpKind> =
                    OpKind::ALL.into_iter().filter(|&k| ops.iter().any(|o| o.op == k)).collect();
                prop_assert_eq!(rows.iter().map(|r| r.kind).collect::<Vec<_>>(), seen);
                for row in &rows {
                    let (sizes, responses) = two_pass(&mut ops.iter().filter(|o| o.op == row.kind));
                    prop_assert_eq!(row.count, sizes.n);
                    assert_close(&row.access_size, &sizes);
                    assert_close(&row.response, &responses);
                }
            }
        }
    }

    #[test]
    fn response_per_byte_weights_by_bytes() {
        let sink = fold(
            &[op(OpKind::Read, 100, 100), op(OpKind::Read, 300, 100)],
            &[],
        );
        // 200 µs over 400 bytes.
        assert!((sink.response_per_byte() - 0.5).abs() < 1e-12);
        assert_eq!(SummarySink::new().response_per_byte(), 0.0);
    }

    #[test]
    fn stream_stats_fold_fault_outcomes() {
        let stream = fold(
            &[
                op(OpKind::Read, 100, 10), // clean
                OpRecord {
                    retries: 2,
                    ..op(OpKind::Read, 200, 50)
                },
                OpRecord {
                    retries: 3,
                    aborted: true,
                    ..op(OpKind::Write, 400, 90)
                },
                OpRecord {
                    aborted: true,
                    ..op(OpKind::Open, 0, 5) // aborted metadata call moves no bytes
                },
            ],
            &[],
        );
        assert_eq!(stream.retries, 5);
        assert_eq!(stream.aborted_ops, 2);
        assert_eq!(stream.aborted_bytes, 400);
        assert!((stream.abort_rate() - 0.5).abs() < 1e-12);
        assert_eq!(stream.goodput_bytes(), 300);
        // A fault-free stream reports zeros.
        let clean = SummarySink::new();
        assert_eq!(clean.abort_rate(), 0.0);
        assert_eq!(clean.goodput_bytes(), 0);
    }

    #[test]
    fn std_dev_survives_large_mean_small_variance() {
        // The regime that kills the naive `sumsq − sum²/n` form: a million
        // samples near 2^26 whose true spread is ~1 — the squared sums
        // agree to ~16 digits, so the naive difference is pure rounding
        // noise, while Welford keeps full precision. This is exactly the
        // large-population profile the summary mode exists for.
        let base = 1u64 << 26;
        let n = 1_000_000u64;
        let mut whole = SummarySink::new();
        let mut parts: Vec<SummarySink> = (0..10).map(|_| SummarySink::new()).collect();
        for i in 0..n {
            let record = op(OpKind::Read, base + i % 3, base + i % 3);
            whole.record_op(&record);
            parts[(i % 10) as usize].record_op(&record);
        }
        // Values cycle {base, base+1, base+2}: sample variance → 2/3.
        let expected = (2.0f64 / 3.0).sqrt();
        let got = whole.access_size().std_dev;
        assert!(
            (got - expected).abs() < 1e-6,
            "sequential std {got} vs {expected}"
        );
        // Chan's merge keeps the same stability across partial sinks.
        let mut merged = SummarySink::new();
        for part in &parts {
            merged.merge(part);
        }
        let got = merged.access_size().std_dev;
        assert!(
            (got - expected).abs() < 1e-6,
            "merged std {got} vs {expected}"
        );
        assert_eq!(merged.data_ops, whole.data_ops);
        assert_eq!(merged.access_size().mean, whole.access_size().mean);
    }

    #[test]
    fn tee_feeds_both_sinks() {
        let mut tee = (SummarySink::new(), UsageLog::new());
        tee.record_op(&op(OpKind::Read, 64, 3));
        assert_eq!(tee.0.data_ops, 1);
        assert_eq!(tee.1.ops().len(), 1);
    }

    #[test]
    fn channel_sink_preserves_op_order_under_backpressure() {
        // Capacity 2 forces the producer to block on the consumer; the
        // records still arrive exactly once, in recording order.
        let (mut sink, rx) = ChannelSink::bounded(2);
        let producer = std::thread::spawn(move || {
            for i in 0..100u64 {
                sink.record_op(&op(OpKind::Read, i + 1, i));
            }
            sink.is_disconnected()
        });
        let got: Vec<u64> = rx.iter().map(|record| record.response).collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert!(!producer.join().unwrap());
    }

    #[test]
    fn channel_sink_survives_a_hung_up_receiver() {
        let (mut sink, rx) = ChannelSink::bounded(1);
        drop(rx);
        // No panic, records silently discarded, and the hangup is visible.
        sink.record_op(&op(OpKind::Read, 8, 1));
        sink.record_op(&op(OpKind::Write, 8, 2));
        assert!(sink.is_disconnected());
    }

    #[test]
    fn channel_sink_ignores_sessions() {
        let (mut sink, rx) = ChannelSink::bounded(4);
        sink.record_session(&SessionRecord::default());
        sink.record_op(&op(OpKind::Read, 8, 7));
        drop(sink);
        let got: Vec<_> = rx.iter().collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].response, 7);
    }
}
