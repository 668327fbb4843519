//! Streaming destinations for usage records.
//!
//! At paper scale (a handful of users × 50 sessions) materializing every
//! [`OpRecord`] is free; at the ROADMAP's millions-of-users scale the op
//! vector **is** the memory ceiling — a sweep point only needs running
//! summaries of the op stream. [`LogSink`] abstracts where records go: the
//! default [`UsageLog`] sink collects everything (so existing figures are
//! byte-identical), while [`SummarySink`] folds each record into running
//! aggregates and retains O(1) memory regardless of run length.

use crate::log::{OpRecord, SessionRecord, UsageLog};
use crate::stats::{StreamingSummary, Summary};
use std::sync::mpsc::{Receiver, SyncSender};

/// A destination for the records a driver produces.
///
/// Methods take references so a sink never forces a copy it does not need.
///
/// # Sharded runs
///
/// How K shard results combine is a property of the sink. A sink whose
/// per-shard instances can be combined in memory overrides
/// [`LogSink::shard_sink`] and [`LogSink::absorb_shards`]: every shard
/// then records into its own instance and the instances are folded in
/// shard order, with no I/O. Any other sink sees the merged record stream
/// replayed from per-shard temporary spill files (all ops in merged order,
/// then all sessions) — see
/// [`ShardedDesDriver::run`](crate::ShardedDesDriver::run).
pub trait LogSink {
    /// Receives one executed operation. Only called when the run's
    /// `record_ops` flag is on.
    fn record_op(&mut self, op: &OpRecord);

    /// Receives one completed session.
    fn record_session(&mut self, session: &SessionRecord);

    /// Capacity hint from the driver before an unsharded run starts: about
    /// `ops` operation records and `sessions` session records will follow.
    /// Collecting sinks pre-size from it; streaming sinks ignore it.
    fn reserve(&mut self, _ops: usize, _sessions: usize) {}

    /// A fresh, empty sink for one shard of a sharded run, or `None` (the
    /// default) when per-shard instances cannot be combined in memory.
    fn shard_sink(&self) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }

    /// Folds the per-shard sinks handed out by [`LogSink::shard_sink`],
    /// given **in shard order**, into `self`.
    fn absorb_shards(&mut self, shards: Vec<Self>)
    where
        Self: Sized,
    {
        debug_assert!(shards.is_empty(), "shard_sink() handed out no sinks");
    }
}

/// Collects everything; a sharded run k-way merges the per-shard logs by
/// completion time ([`merge_shard_logs`](crate::merge_shard_logs)).
impl LogSink for UsageLog {
    fn record_op(&mut self, op: &OpRecord) {
        self.push_op(*op);
    }

    fn record_session(&mut self, session: &SessionRecord) {
        self.push_session(*session);
    }

    fn reserve(&mut self, ops: usize, sessions: usize) {
        UsageLog::reserve(self, ops, sessions);
    }

    fn shard_sink(&self) -> Option<Self> {
        Some(UsageLog::new())
    }

    fn absorb_shards(&mut self, shards: Vec<Self>) {
        crate::shard::merge_shard_logs_into(self, &shards);
    }
}

/// A tee: every record goes to both sinks, left first. Lets one run feed a
/// streaming summary *and* a spill file (the `uswg run --spill` path) with
/// no extra driver machinery. Shards combine in memory when both halves
/// can, and through the streamed merge otherwise.
impl<A: LogSink, B: LogSink> LogSink for (A, B) {
    fn record_op(&mut self, op: &OpRecord) {
        self.0.record_op(op);
        self.1.record_op(op);
    }

    fn record_session(&mut self, session: &SessionRecord) {
        self.0.record_session(session);
        self.1.record_session(session);
    }

    fn reserve(&mut self, ops: usize, sessions: usize) {
        self.0.reserve(ops, sessions);
        self.1.reserve(ops, sessions);
    }

    fn shard_sink(&self) -> Option<Self> {
        Some((self.0.shard_sink()?, self.1.shard_sink()?))
    }

    fn absorb_shards(&mut self, shards: Vec<Self>) {
        let (left, right) = shards.into_iter().unzip();
        self.0.absorb_shards(left);
        self.1.absorb_shards(right);
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

/// Streaming-aggregate sink: folds the op stream into the figures' headline
/// metrics without materializing any records.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SummarySink {
    /// Operations observed.
    pub ops: u64,
    /// Data operations (reads/writes moving at least one byte).
    pub data_ops: u64,
    /// Bytes moved by data operations.
    pub data_bytes: u64,
    /// Total response time over all operations, µs.
    pub total_response: u64,
    /// Running moments of data-op access sizes.
    access_size: StreamingSummary,
    /// Running moments of data-op response times.
    response: StreamingSummary,
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
}

impl SummarySink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds `other` into `self`, as if every record `other` saw had been
    /// recorded here too. This is the reduction step for sharded or
    /// replicated runs: fan the population out over independent sinks, then
    /// merge them pairwise — counts, sums and extrema combine exactly, and
    /// the variance accumulators combine via Chan's parallel formula, so a
    /// merged sink differs from a single-sink run of the concatenated
    /// stream only by floating-point rounding order (≤ 1e-9 relative,
    /// property-tested).
    pub fn merge(&mut self, other: &SummarySink) {
        self.access_size.merge(&other.access_size);
        self.response.merge(&other.response);
        self.ops += other.ops;
        self.data_ops += other.data_ops;
        self.data_bytes += other.data_bytes;
        self.total_response += other.total_response;
        self.sessions += other.sessions;
        self.session_bytes_accessed += other.session_bytes_accessed;
        self.retries += other.retries;
        self.aborted_ops += other.aborted_ops;
        self.aborted_bytes += other.aborted_bytes;
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

    /// Mean response time per data byte, µs — the Figures 5.6–5.12 metric,
    /// charging metadata calls to the transferred bytes exactly like
    /// `uswg_analyze::metrics::response_time_per_byte`.
    pub fn response_per_byte(&self) -> f64 {
        if self.data_bytes == 0 {
            0.0
        } else {
            self.total_response as f64 / self.data_bytes as f64
        }
    }

    /// Access-size statistics over data operations, bytes (the zero
    /// summary while empty, matching `Summary::of(&[])`). Mean, count and
    /// extrema are bit-identical to post-hoc aggregation of the same
    /// record stream; the standard deviation is one-pass Welford.
    pub fn access_size(&self) -> Summary {
        self.access_size.summary()
    }

    /// Response-time statistics over data operations, µs.
    pub fn response(&self) -> Summary {
        self.response.summary()
    }
}

impl LogSink for SummarySink {
    fn record_op(&mut self, op: &OpRecord) {
        self.ops += 1;
        self.total_response += op.response;
        self.retries += u64::from(op.retries);
        if op.aborted {
            self.aborted_ops += 1;
        }
        if op.op.is_data() && op.bytes > 0 {
            self.data_ops += 1;
            self.data_bytes += op.bytes;
            if op.aborted {
                self.aborted_bytes += op.bytes;
            }
            self.access_size.push(op.bytes as f64);
            self.response.push(op.response as f64);
        }
    }

    fn record_session(&mut self, session: &SessionRecord) {
        self.sessions += 1;
        self.session_bytes_accessed += session.bytes_accessed;
    }

    fn shard_sink(&self) -> Option<Self> {
        Some(SummarySink::new())
    }

    fn absorb_shards(&mut self, shards: Vec<Self>) {
        for shard in &shards {
            self.merge(shard);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uswg_fsc::FileCategory;
    use uswg_netfs::OpKind;

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
        // (400 + 100) µs over 400 data bytes, as response_time_per_byte.
        assert!((sink.response_per_byte() - 1.25).abs() < 1e-12);
        assert_eq!(sink.ops, 2);
        assert_eq!(sink.data_ops, 1);
    }

    #[test]
    fn summary_moments_match_direct_computation() {
        let mut sink = SummarySink::new();
        for (bytes, resp) in [(100u64, 10u64), (300, 30)] {
            sink.record_op(&op(OpKind::Write, bytes, resp));
        }
        assert!((sink.access_size().mean - 200.0).abs() < 1e-9);
        // Sample std dev of {100, 300} is sqrt(20000) ≈ 141.42.
        assert!((sink.access_size().std_dev - 20000f64.sqrt()).abs() < 1e-9);
        assert!((sink.response().mean - 20.0).abs() < 1e-9);
    }

    #[test]
    fn empty_sink_is_all_zero() {
        let sink = SummarySink::new();
        assert_eq!(sink.response_per_byte(), 0.0);
        assert_eq!(sink.access_size(), Summary::of(&[]));
        assert_eq!(sink.response(), Summary::of(&[]));
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
    fn merge_equals_single_stream() {
        let records = [
            op(OpKind::Read, 100, 10),
            op(OpKind::Open, 0, 5),
            op(OpKind::Write, 300, 30),
            op(OpKind::Read, 50, 7),
        ];
        let mut whole = SummarySink::new();
        for r in &records {
            whole.record_op(r);
        }
        whole.record_session(&SessionRecord {
            user: 0,
            user_type: 0,
            session: 0,
            start: 0,
            end: 1,
            ops: 4,
            files_referenced: 2,
            file_bytes_referenced: 100,
            bytes_accessed: 450,
            bytes_read: 150,
            bytes_written: 300,
            total_response: 52,
        });
        let mut left = SummarySink::new();
        let mut right = SummarySink::new();
        for r in &records[..2] {
            left.record_op(r);
        }
        for r in &records[2..] {
            right.record_op(r);
        }
        right.record_session(&SessionRecord {
            user: 0,
            user_type: 0,
            session: 0,
            start: 0,
            end: 1,
            ops: 4,
            files_referenced: 2,
            file_bytes_referenced: 100,
            bytes_accessed: 450,
            bytes_read: 150,
            bytes_written: 300,
            total_response: 52,
        });
        let mut merged = left;
        merged.merge(&right);
        // Integer tallies and extrema combine exactly; the float sums here
        // are small integers, so even those are exact.
        assert_eq!(merged, whole);
        // Merging an empty sink is the identity.
        merged.merge(&SummarySink::new());
        assert_eq!(merged, whole);
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
        let mut shards: Vec<SummarySink> = (0..10).map(|_| SummarySink::new()).collect();
        for i in 0..n {
            let record = op(OpKind::Read, base + i % 3, base + i % 3);
            whole.record_op(&record);
            shards[(i % 10) as usize].record_op(&record);
        }
        // Values cycle {base, base+1, base+2}: sample variance → 2/3.
        let expected = (2.0f64 / 3.0).sqrt();
        let got = whole.access_size().std_dev;
        assert!(
            (got - expected).abs() < 1e-6,
            "sequential std {got} vs {expected}"
        );
        // Chan's merge keeps the same stability across shard reductions.
        let mut merged = SummarySink::new();
        for shard in &shards {
            merged.merge(shard);
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
        sink.record_session(&SessionRecord {
            user: 0,
            user_type: 0,
            session: 0,
            start: 0,
            end: 1,
            ops: 0,
            files_referenced: 0,
            file_bytes_referenced: 0,
            bytes_accessed: 0,
            bytes_read: 0,
            bytes_written: 0,
            total_response: 0,
        });
        sink.record_op(&op(OpKind::Read, 8, 7));
        drop(sink);
        let got: Vec<_> = rx.iter().collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].response, 7);
    }
}
