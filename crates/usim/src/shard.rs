//! Sharded single-run DES: one giant population split across cores.
//!
//! Sweeps and replication studies fan whole simulations out across the
//! cores; this does the same inside one *point* — one run, millions of
//! users. The paper's workload model draws every user's sessions
//! independently (Section 3.1.4's independence assumption), so the
//! population is embarrassingly partitionable: [`ShardedDesDriver`] splits
//! the users round-robin into K shards ([`ShardPlan`]), runs each shard as
//! an independent DES instance with its own [`Scheduler`](uswg_sim::Scheduler),
//! file system and timing model, and merges the results deterministically.
//!
//! # What sharding preserves, exactly and statistically
//!
//! Each user's PRNG stream is derived from the *global* user id and each
//! shard's model-jitter stream from the root seed and the *shard index*
//! ([`shard_model_seed`]), so behaviour never depends on K's thread
//! schedule, and a one-shard run replays the unsharded simulation byte for
//! byte. What changes with K > 1 is *contention*: every shard owns a full
//! copy of the timing model's resources, so users queue only behind their
//! own shard — the per-shard resource model is an **approximation** of one
//! globally contended model (resource statistics are aggregated at merge
//! time). Everything derived from the operation streams alone — operation
//! counts, access sizes, bytes moved, session counts — is preserved
//! exactly for workloads whose cross-user coupling is read-only (shared
//! files are not resized and the device never fills); response times are
//! preserved only statistically. `RunConfig { shards: None }` remains the
//! exact, fully contended path. The equivalence suite
//! (`tests/shard_equivalence.rs`) pins both halves of this contract.
//!
//! # Determinism of the merge
//!
//! Shards execute in parallel, but every shard's result lands in a slot
//! indexed by its shard number, and merging walks those slots in shard
//! order. *How* they merge is the sink's choice (see [`LogSink`]): a
//! [`SummarySink`](crate::SummarySink) folds per-shard sinks with its
//! `merge`; a [`UsageLog`] k-way-merges the per-shard logs by completion
//! time (ties broken by shard index, within-shard order preserved) — a
//! global re-sequencing that makes the merged log a pure function of
//! (spec, seed, K), independent of worker count; any
//! other sink sees that same merged sequence replayed from per-shard spill
//! files.

use crate::compile::CompiledPopulation;
use crate::des::{DesDriver, DesRunStats, UserArena, MODEL_SEED_XOR};
use crate::log::{OpRecord, SessionRecord, UsageLog};
use crate::sink::LogSink;
use crate::spill::{SpillReader, SpillRecord, SpillSink};
use crate::{RunConfig, UsimError};
use std::io;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use uswg_fsc::FileCatalog;
use uswg_netfs::ServiceModel;
use uswg_sim::{ResourcePool, ResourceStats};
use uswg_vfs::Vfs;

/// Multiplier deriving each shard's model-jitter stream from the shard
/// index: odd, so the map `shard ↦ shard × MUL` is injective modulo 2⁶⁴ and
/// per-shard seeds are guaranteed distinct.
const SHARD_SEED_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// The model-randomness seed of one shard: shard 0 uses exactly the
/// unsharded driver's stream (so K = 1 replays the unsharded run byte for
/// byte), and every other shard gets a distinct stream that depends only on
/// the root seed and the shard index — never on K or the thread schedule.
pub fn shard_model_seed(seed: u64, shard: usize) -> u64 {
    seed ^ MODEL_SEED_XOR ^ (shard as u64).wrapping_mul(SHARD_SEED_MUL)
}

/// The partitioning of a population across K shards: user `u` belongs to
/// shard `u mod K` (round-robin). Round-robin — rather than contiguous
/// blocks — interleaves the deterministic type assignment
/// ([`CompiledPopulation::assign`] hands out types in population order), so
/// every shard sees approximately the population's type mix instead of one
/// shard getting all the heavy users.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    n_users: usize,
    shards: usize,
}

impl ShardPlan {
    /// Plans `n_users` across `shards` shards.
    pub fn new(n_users: usize, shards: NonZeroUsize) -> Self {
        Self {
            n_users,
            shards: shards.get(),
        }
    }

    /// The requested shard count K.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Shards that actually hold users: `min(K, n_users)`. With round-robin
    /// assignment the populated shards are exactly `0..active_shards()`,
    /// so empty shards never spin up a simulation.
    pub fn active_shards(&self) -> usize {
        self.shards.min(self.n_users)
    }

    /// The shard user `user` belongs to. A pure function of the user id and
    /// K — stable across runs, worker counts and schedules.
    pub fn shard_of(&self, user: usize) -> usize {
        user % self.shards
    }

    /// Global ids of the users in `shard`, in ascending order.
    pub fn members(&self, shard: usize) -> impl Iterator<Item = usize> + '_ {
        (shard..self.n_users).step_by(self.shards)
    }

    /// Number of users in `shard`.
    pub fn shard_len(&self, shard: usize) -> usize {
        if shard >= self.shards || shard >= self.n_users {
            0
        } else {
            (self.n_users - shard).div_ceil(self.shards)
        }
    }
}

/// Everything one shard needs that the driver cannot clone for itself: the
/// synthetic file system, its catalog, and a freshly built timing model
/// with the resource pool it registered into. Callers build one per active
/// shard from the same spec and seed, so all shards start from identical
/// initial file-system states.
#[derive(Debug)]
pub struct ShardEnv {
    /// The shard's private copy of the synthetic file system.
    pub vfs: Vfs,
    /// The shard's file catalog (matching `vfs`).
    pub catalog: FileCatalog,
    /// The shard's timing model, registered into `pool`.
    pub model: Box<dyn ServiceModel>,
    /// The resource pool `model` registered its resources in.
    pub pool: ResourcePool,
}

/// Runs one population as K independent DES instances in parallel and
/// merges the results deterministically. See the module documentation for
/// the exact-vs-statistical contract.
#[derive(Debug, Default)]
pub struct ShardedDesDriver {
    workers: usize,
}

impl ShardedDesDriver {
    /// A driver that asks for one worker per active shard.
    pub fn new() -> Self {
        Self { workers: 0 }
    }

    /// A driver asking for this many workers (`0` = one per shard; the pool
    /// grants what the host has). The count changes wall-clock, never results.
    pub fn with_workers(workers: usize) -> Self {
        Self { workers }
    }

    /// Runs every active shard through [`DesDriver::run_inner`] with its
    /// own sink (`sinks[s]` for shard `s`), returning `(sink, stats)` per
    /// shard **in shard order** — the property every merge relies on. A
    /// shard failure cancels unclaimed shards and the lowest-indexed error
    /// among the shards that ran is returned.
    fn run_shards<S: LogSink + Send>(
        &self,
        population: &CompiledPopulation,
        config: &RunConfig,
        plan: ShardPlan,
        envs: Vec<ShardEnv>,
        sinks: Vec<S>,
    ) -> Result<Vec<(S, DesRunStats)>, UsimError> {
        let active = plan.active_shards();
        debug_assert_eq!(sinks.len(), active, "one sink per active shard");
        let driver = DesDriver::new();
        let cells: Vec<Mutex<Option<(ShardEnv, S)>>> = envs
            .into_iter()
            .zip(sinks)
            .map(|cell| Mutex::new(Some(cell)))
            .collect();
        let workers = match self.workers {
            0 => active,
            n => n,
        };
        stealpool::try_map_indexed(workers, active, |s| {
            let (env, sink) = cells[s]
                .lock()
                .expect("shard cell lock")
                .take()
                .expect("each shard cell is taken exactly once");
            // Each shard builds only its own slice of the user columns:
            // nothing population-sized is shared or cloned across shards.
            let users = UserArena::build(
                population,
                config.seed,
                config.n_users,
                plan.members(s),
                plan.shard_len(s),
            );
            driver.run_inner(
                env.vfs,
                env.catalog,
                population,
                env.model,
                env.pool,
                config,
                users,
                shard_model_seed(config.seed, s),
                sink,
            )
        })
    }

    /// Executes the run as K independent shard simulations and merges
    /// their records into `sink` and their resource statistics into one
    /// [`DesRunStats`].
    ///
    /// The sink picks the merge (see [`LogSink`]). One that hands out
    /// per-shard instances ([`LogSink::shard_sink`]: `SummarySink`,
    /// `UsageLog`) has them filled in parallel and folded in shard order —
    /// no I/O. Any other sink gets the **streamed** merge: every shard
    /// spills to a private temporary file as it runs, and the files are
    /// k-way merged *frame by frame* into `sink` in exactly
    /// [`merge_shard_logs`]' deterministic order (`(completion time, shard
    /// index)` for ops, `(end, shard index)` for sessions; all merged ops
    /// first, then all merged sessions), so resident memory is
    /// O(K × frame) regardless of run length — the path that lets
    /// `uswg run --spill --shards K` capture runs that would never fit in
    /// RAM. The streamed sequence is byte-identical to the in-memory merge
    /// (property-tested in `tests/spill_pipeline.rs`). Temporary files live
    /// in a fresh directory under [`std::env::temp_dir`] and are removed
    /// before returning (including on error).
    ///
    /// `envs` must hold exactly one [`ShardEnv`] per *active* shard
    /// (`ShardPlan::new(config.n_users, shards).active_shards()`), each
    /// built from the same spec and seed.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors, a shard-environment
    /// count mismatch, any file-system error raised inside a shard, and —
    /// on the streamed path — [`UsimError::Spill`] for any failure
    /// creating, writing, sealing or reading the temporary spill streams.
    pub fn run<S: LogSink + Send>(
        &self,
        population: &CompiledPopulation,
        config: &RunConfig,
        shards: NonZeroUsize,
        envs: Vec<ShardEnv>,
        mut sink: S,
    ) -> Result<(S, DesRunStats), UsimError> {
        config.validate()?;
        let plan = ShardPlan::new(config.n_users, shards);
        let active = plan.active_shards();
        if envs.len() != active {
            return Err(UsimError::ShardEnvMismatch {
                expected: active,
                got: envs.len(),
            });
        }
        let in_memory: Option<Vec<S>> = (0..active).map(|_| sink.shard_sink()).collect();
        let stats = if let Some(sinks) = in_memory {
            let (sinks, stats): (Vec<S>, Vec<DesRunStats>) = self
                .run_shards(population, config, plan, envs, sinks)?
                .into_iter()
                .unzip();
            sink.absorb_shards(sinks);
            stats
        } else {
            let dir = ShardSpillDir::create()?;
            let paths: Vec<PathBuf> = (0..active)
                .map(|s| dir.path().join(format!("shard{s:04}.spill")))
                .collect();
            let spills = paths
                .iter()
                .map(SpillSink::create)
                .collect::<io::Result<Vec<_>>>()?;
            let mut stats = Vec::with_capacity(active);
            for (spill, st) in self.run_shards(population, config, plan, envs, spills)? {
                // Seal each stream: an unsealed spill file is
                // indistinguishable from a crashed run and the merge would
                // reject it.
                spill.finish()?;
                stats.push(st);
            }
            merge_spill_shards(&paths, &mut sink)?;
            stats
        };
        Ok((sink, merge_stats(stats)))
    }
}

/// Monotonic counter distinguishing concurrent streamed runs in one
/// process (tests run many in parallel).
static SPILL_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh per-run temporary directory for per-shard spill streams,
/// removed (best-effort) when dropped — also on the error paths.
#[derive(Debug)]
struct ShardSpillDir(PathBuf);

impl ShardSpillDir {
    fn create() -> io::Result<Self> {
        let path = std::env::temp_dir().join(format!(
            "uswg-shard-spill-{}-{}",
            std::process::id(),
            SPILL_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ShardSpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Folds per-shard run statistics (given in shard order) into one:
/// event counts sum, the duration is the longest shard's, and resource
/// statistics aggregate positionally by name — every shard built its model
/// from the same config, so the pools register the same resources in the
/// same order.
fn merge_stats(stats: Vec<DesRunStats>) -> DesRunStats {
    let mut iter = stats.into_iter();
    let mut merged = iter.next().expect("at least one active shard");
    for st in iter {
        merged.events += st.events;
        merged.duration = merged.duration.max(st.duration);
        for (i, (name, rs)) in st.resources.into_iter().enumerate() {
            match merged.resources.get_mut(i) {
                Some((have, acc)) if *have == name => add_stats(acc, &rs),
                // Defensive: heterogeneous shard models should not happen,
                // but a mismatch must not silently mis-aggregate.
                _ => merged.resources.push((name, rs)),
            }
        }
    }
    merged
}

/// Adds `b`'s tallies into `a` (sums and the max single wait).
fn add_stats(a: &mut ResourceStats, b: &ResourceStats) {
    a.jobs += b.jobs;
    a.total_service += b.total_service;
    a.total_wait += b.total_wait;
    a.max_wait = a.max_wait.max(b.max_wait);
}

/// Deterministic k-way merge of per-shard usage logs, the full-log half of
/// the shard merge.
///
/// Within a shard, the DES emits operation records in nondecreasing
/// *completion* time (`at + response`) and session records in nondecreasing
/// logout time — both are sorted streams. The merge therefore re-sequences
/// globally by `(completion time, shard index)` for ops and `(end, shard
/// index)` for sessions, preserving within-shard order, which makes the
/// merged log a pure function of the shard logs: independent of worker
/// count and finish order. With a single shard this is
/// the identity, so a K = 1 merged log is byte-identical to the unsharded
/// driver's.
pub fn merge_shard_logs(logs: Vec<UsageLog>) -> UsageLog {
    let mut out = UsageLog::new();
    merge_shard_logs_into(&mut out, &logs);
    out
}

/// [`merge_shard_logs`] appending to an existing log — the
/// [`LogSink::absorb_shards`] of [`UsageLog`].
pub(crate) fn merge_shard_logs_into(out: &mut UsageLog, logs: &[UsageLog]) {
    out.reserve(
        logs.iter().map(|l| l.ops().len()).sum(),
        logs.iter().map(|l| l.sessions().len()).sum(),
    );
    let op_streams: Vec<_> = logs.iter().map(|l| l.ops()).collect();
    kway_merge_by(
        &op_streams,
        |op| op.at.saturating_add(op.response),
        |op| out.push_op(op),
    );
    let session_streams: Vec<_> = logs.iter().map(|l| l.sessions()).collect();
    kway_merge_by(&session_streams, |s| s.end, |s| out.push_session(s));
}

/// The streaming counterpart of [`merge_shard_logs`]: k-way merges sealed
/// per-shard spill files (one per shard, **in shard order**) directly from
/// their frame iterators into `sink`, emitting every merged op record and
/// then every merged session record — the same `(key, shard index)` order
/// and the same replay shape, without materializing any log. Each file is
/// streamed twice (an op pass, then a session pass); each pass decodes
/// only its own record kind and hops over the other kind's frames
/// structurally, so resident memory is one decoded frame per shard and no
/// frame is decoded more than once across the two passes.
///
/// # Errors
///
/// Propagates open/decode errors from the spill files, including the
/// truncation and corruption rejections of
/// [`SpillReader`](crate::SpillReader); nothing is emitted past the first
/// error.
pub fn merge_spill_shards<S: LogSink>(paths: &[PathBuf], sink: &mut S) -> io::Result<()> {
    let op_streams: Vec<_> = paths
        .iter()
        .map(|p| {
            // `ops_only` hops over session frames structurally, so each
            // pass decodes only the record kind it merges.
            SpillReader::open(p).map(|r| {
                r.ops_only().filter_map(|record| match record {
                    Ok(SpillRecord::Op(op)) => Some(Ok(op)),
                    Ok(SpillRecord::Session(_)) => None,
                    Err(e) => Some(Err(e)),
                })
            })
        })
        .collect::<io::Result<_>>()?;
    kway_merge_streams(
        op_streams,
        |op: &OpRecord| op.at.saturating_add(op.response),
        |op| sink.record_op(&op),
    )?;
    let session_streams: Vec<_> = paths
        .iter()
        .map(|p| {
            SpillReader::open(p).map(|r| {
                r.sessions_only().filter_map(|record| match record {
                    Ok(SpillRecord::Session(s)) => Some(Ok(s)),
                    Ok(SpillRecord::Op(_)) => None,
                    Err(e) => Some(Err(e)),
                })
            })
        })
        .collect::<io::Result<_>>()?;
    kway_merge_streams(
        session_streams,
        |s: &SessionRecord| s.end,
        |s| sink.record_session(&s),
    )
}

/// Stable k-way merge over fallible streams: repeatedly emits the head with
/// the smallest `(key, stream index)`, holding one head per stream. The
/// streaming twin of [`kway_merge_by`]; the first stream error aborts the
/// merge.
fn kway_merge_streams<T, I>(
    mut streams: Vec<I>,
    key: impl Fn(&T) -> u64,
    mut emit: impl FnMut(T),
) -> io::Result<()>
where
    I: Iterator<Item = io::Result<T>>,
{
    let mut heads: Vec<Option<T>> = streams
        .iter_mut()
        .map(|s| s.next().transpose())
        .collect::<io::Result<_>>()?;
    loop {
        let mut best: Option<(u64, usize)> = None;
        for (s, head) in heads.iter().enumerate() {
            if let Some(item) = head {
                let k = key(item);
                if best.is_none_or(|(bk, _)| k < bk) {
                    best = Some((k, s));
                }
            }
        }
        let Some((_, s)) = best else {
            return Ok(());
        };
        let item = heads[s].take().expect("best head exists");
        heads[s] = streams[s].next().transpose()?;
        emit(item);
    }
}

/// Stable k-way merge of sorted streams: repeatedly emits the head with the
/// smallest `(key, stream index)`. Streams are expected nondecreasing in
/// `key` (debug-asserted); a linear scan over stream heads is plenty — K is
/// a core count, not a collection size.
fn kway_merge_by<T: Copy>(streams: &[&[T]], key: impl Fn(&T) -> u64, mut emit: impl FnMut(T)) {
    #[cfg(debug_assertions)]
    for stream in streams {
        debug_assert!(
            stream.windows(2).all(|w| key(&w[0]) <= key(&w[1])),
            "shard streams must be sorted by merge key"
        );
    }
    let mut heads = vec![0usize; streams.len()];
    loop {
        let mut best: Option<(u64, usize)> = None;
        for (s, stream) in streams.iter().enumerate() {
            if let Some(item) = stream.get(heads[s]) {
                let k = key(item);
                if best.is_none_or(|(bk, _)| k < bk) {
                    best = Some((k, s));
                }
            }
        }
        let Some((_, s)) = best else {
            return;
        };
        emit(streams[s][heads[s]]);
        heads[s] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_partitions_every_user_exactly_once() {
        for (n, k) in [(1usize, 1usize), (5, 2), (7, 3), (3, 7), (10, 4)] {
            let plan = ShardPlan::new(n, NonZeroUsize::new(k).unwrap());
            let mut seen = vec![0u32; n];
            for s in 0..plan.shards() {
                assert_eq!(plan.members(s).count(), plan.shard_len(s), "n={n} k={k}");
                for u in plan.members(s) {
                    assert_eq!(plan.shard_of(u), s);
                    seen[u] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "n={n} k={k}: {seen:?}");
            assert_eq!(plan.active_shards(), n.min(k));
            // Empty shards report zero members.
            for s in plan.active_shards()..plan.shards() {
                assert_eq!(plan.shard_len(s), 0);
            }
        }
    }

    #[test]
    fn shard_zero_replays_the_unsharded_model_stream() {
        assert_eq!(shard_model_seed(0x5EED, 0), 0x5EED ^ MODEL_SEED_XOR);
    }

    #[test]
    fn shard_seeds_are_distinct_and_k_independent() {
        let mut seen = std::collections::HashSet::new();
        for s in 0..512 {
            assert!(seen.insert(shard_model_seed(42, s)), "collision at {s}");
        }
        // The seed formula never mentions K: trivially stable under K by
        // construction; pin it anyway so a refactor cannot sneak K in.
        let plan2 = ShardPlan::new(10, NonZeroUsize::new(2).unwrap());
        let plan5 = ShardPlan::new(10, NonZeroUsize::new(5).unwrap());
        assert_eq!(plan2.shard_of(7) % 2, 1);
        assert_eq!(plan5.shard_of(7), 2);
        assert_eq!(shard_model_seed(9, 1), shard_model_seed(9, 1));
    }

    #[test]
    fn kway_merge_is_stable_and_ordered() {
        let a = [1u64, 3, 3, 9];
        let b = [2u64, 3, 8];
        let c: [u64; 0] = [];
        let mut out = Vec::new();
        kway_merge_by(&[&a, &b, &c], |&x| x, |x| out.push(x));
        assert_eq!(out, vec![1, 2, 3, 3, 3, 8, 9]);
        // Ties: stream 0's 3s both precede stream 1's 3 (shard order).
        let mut tagged = Vec::new();
        let ta = [(3u64, 'a'), (3, 'A')];
        let tb = [(3u64, 'b')];
        kway_merge_by(&[&ta, &tb], |&(k, _)| k, |x| tagged.push(x.1));
        assert_eq!(tagged, vec!['a', 'A', 'b']);
    }

    #[test]
    fn streaming_kway_merge_matches_slice_merge() {
        let a = [1u64, 3, 3, 9];
        let b = [2u64, 3, 8];
        let c: [u64; 0] = [];
        let mut slice_out = Vec::new();
        kway_merge_by(&[&a, &b, &c], |&x| x, |x| slice_out.push(x));
        let streams: Vec<_> = [&a[..], &b[..], &c[..]]
            .into_iter()
            .map(|s| s.iter().copied().map(io::Result::Ok))
            .collect();
        let mut stream_out = Vec::new();
        kway_merge_streams(streams, |&x| x, |x| stream_out.push(x)).unwrap();
        assert_eq!(stream_out, slice_out);
        // An error in any stream aborts the merge.
        let bad: Vec<io::Result<u64>> = vec![Ok(1), Err(io::Error::other("boom"))];
        let good: Vec<io::Result<u64>> = vec![Ok(2), Ok(3)];
        let mut out = Vec::new();
        let err = kway_merge_streams(
            vec![bad.into_iter(), good.into_iter()],
            |&x| x,
            |x| out.push(x),
        );
        assert!(err.is_err());
    }

    #[test]
    fn merge_spill_shards_matches_merge_shard_logs() {
        // Two hand-built shard logs, spilled to files, streamed back
        // through the k-way merge — record-for-record what the in-memory
        // oracle produces.
        let dir = std::env::temp_dir().join(format!(
            "uswg-shard-merge-test-{}-{}",
            std::process::id(),
            SPILL_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mk_op = |at: u64, response: u64, user: usize| OpRecord {
            at,
            user,
            session: 0,
            op: uswg_netfs::OpKind::Read,
            ino: 1,
            bytes: 64,
            file_size: 640,
            response,
            category: uswg_fsc::FileCategory::REG_USER_RDONLY,
            retries: 0,
            aborted: false,
        };
        let mk_session = |end: u64, user: usize| SessionRecord {
            user,
            user_type: 0,
            session: 0,
            start: 0,
            end,
            ops: 2,
            files_referenced: 1,
            file_bytes_referenced: 640,
            bytes_accessed: 128,
            bytes_read: 128,
            bytes_written: 0,
            total_response: 9,
        };
        let mut shard0 = UsageLog::new();
        shard0.push_op(mk_op(1, 4, 0)); // completes at 5
        shard0.push_op(mk_op(7, 0, 0)); // completes at 7 (tie with shard 1)
        shard0.push_session(mk_session(10, 0));
        let mut shard1 = UsageLog::new();
        shard1.push_op(mk_op(2, 1, 1)); // completes at 3
        shard1.push_op(mk_op(6, 1, 1)); // completes at 7 (loses the tie)
        shard1.push_session(mk_session(9, 1));
        let paths: Vec<PathBuf> = (0..2).map(|s| dir.join(format!("s{s}.spill"))).collect();
        for (path, log) in paths.iter().zip([&shard0, &shard1]) {
            let mut sink = SpillSink::create(path).unwrap();
            for op in log.ops() {
                crate::LogSink::record_op(&mut sink, op);
            }
            for s in log.sessions() {
                crate::LogSink::record_session(&mut sink, s);
            }
            sink.finish().unwrap();
        }
        let mut streamed = UsageLog::new();
        merge_spill_shards(&paths, &mut streamed).unwrap();
        let oracle = merge_shard_logs(vec![shard0, shard1]);
        assert_eq!(streamed.to_json().unwrap(), oracle.to_json().unwrap());
        // The tie at completion time 7 resolves in shard order.
        assert_eq!(streamed.ops()[2].user, 0);
        assert_eq!(streamed.ops()[3].user, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_stream_merge_is_identity() {
        let mut log = UsageLog::new();
        log.push_session(crate::log::SessionRecord {
            user: 3,
            user_type: 0,
            session: 0,
            start: 0,
            end: 10,
            ops: 1,
            files_referenced: 1,
            file_bytes_referenced: 5,
            bytes_accessed: 5,
            bytes_read: 5,
            bytes_written: 0,
            total_response: 2,
        });
        let before = log.to_json().unwrap();
        let merged = merge_shard_logs(vec![log]);
        assert_eq!(merged.to_json().unwrap(), before);
    }
}
