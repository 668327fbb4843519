//! The discrete-event driver: all users run concurrently in simulated time
//! against a file-system timing model.
//!
//! This is the reproduction of the paper's measurement setup. Each user
//! alternates between thinking and issuing a system call; the call's
//! semantic effect executes against the VFS immediately, while its latency
//! is the traversal of the timing model's stage chain through the shared
//! resource pool. Response times therefore include queueing behind every
//! other user — the effect Chapter 5 measures.
//!
//! # Memory layout: cold columns, hot slots
//!
//! A million-user population spends almost all of its simulated life logged
//! out, so per-user state is split by temperature. The whole-run facts —
//! id, type, behaviour phase, session count, PRNG — live in [`UserArena`],
//! parallel columns costing tens of bytes per user. Everything a user only
//! needs *while logged in* — the VFS process, the planned [`Session`], the
//! in-flight operation and its retry state — is materialized into a
//! [`HotArena`] slot at login and recycled at logout, so that memory scales
//! with the number of *concurrently active* users, not the population.
//! Materialization is invisible to replay: session planning draws from the
//! same per-user PRNG stream at the same points, so the op stream stays a
//! pure function of (spec, seed, K) — pinned byte for byte by
//! `tests/golden_identity.rs`.

use crate::compile::{BehaviorState, CompiledPopulation};
use crate::log::OpRecord;
use crate::session::{ExecutedOp, Session};
use crate::sink::LogSink;
use crate::{RunConfig, UsimError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use uswg_fsc::FileCatalog;
use uswg_netfs::{PendingOp, ServiceModel, StepOutcome};
use uswg_sim::{ResourcePool, ResourceStats, Scheduler, SimTime, Simulation, World};
use uswg_vfs::{Process, Vfs};

/// Events driving one simulated user. The payload is the *local* user
/// index, packed to `u32` like [`UserArena::gid`] (populations beyond
/// `u32::MAX` are rejected by [`RunConfig::validate`]): with an 8-byte
/// payload a queue entry is 32 bytes, with 4 it is 24 — at a million
/// pending events that is the difference between 32 MB and 24 MB of queue.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// The user's think time expired: issue the next operation.
    Wake(u32),
    /// An in-flight operation finished a stage.
    Step(u32),
}

/// Hot-slot sentinel: the user is logged out (idle or finished).
const HOT_NONE: u32 = u32::MAX;

/// Whole-run per-user state as parallel columns (struct of arrays). These
/// are the only fields a population of N users pays for N times; everything
/// session-scoped lives in [`HotArena`] slots.
pub(crate) struct UserArena {
    /// The user's global id: equal to the local slot index in an unsharded
    /// run, and the population-wide index in a shard of a
    /// [`ShardedDesDriver`](crate::ShardedDesDriver) run. Seeds the user's
    /// PRNG stream and labels every record, so a user's behaviour is a
    /// function of the global id alone — independent of how the population
    /// is partitioned. Packed to `u32`; [`RunConfig::validate`] rejects
    /// larger populations.
    gid: Vec<u32>,
    /// Index into the compiled population's types.
    type_idx: Vec<u16>,
    behavior: Vec<BehaviorState>,
    sessions_done: Vec<u32>,
    rng: Vec<StdRng>,
    /// The user's [`HotArena`] slot while logged in, [`HOT_NONE`] otherwise.
    hot: Vec<u32>,
}

impl UserArena {
    /// Builds the columns for `members` — the full population for the
    /// unsharded entry points, one shard's global ids otherwise. The type
    /// assignment is evaluated per member with
    /// [`CompiledPopulation::type_of`], so nothing population-sized is ever
    /// materialized besides the columns themselves.
    pub(crate) fn build(
        population: &CompiledPopulation,
        seed: u64,
        n_users: usize,
        members: impl Iterator<Item = usize>,
        len_hint: usize,
    ) -> Self {
        let mut arena = Self {
            gid: Vec::with_capacity(len_hint),
            type_idx: Vec::with_capacity(len_hint),
            behavior: Vec::with_capacity(len_hint),
            sessions_done: Vec::with_capacity(len_hint),
            rng: Vec::with_capacity(len_hint),
            hot: Vec::with_capacity(len_hint),
        };
        for gid in members {
            let t = population.type_of(gid, n_users);
            arena
                .gid
                .push(u32::try_from(gid).expect("validated: population fits u32 ids"));
            arena
                .type_idx
                .push(u16::try_from(t).expect("more than 65535 user types"));
            arena.behavior.push(population.types()[t].new_behavior());
            arena.sessions_done.push(0);
            arena.rng.push(StdRng::seed_from_u64(
                seed ^ (gid as u64).wrapping_mul(USER_SEED_MUL),
            ));
            arena.hot.push(HOT_NONE);
        }
        arena
    }

    /// Number of users in the arena.
    pub(crate) fn len(&self) -> usize {
        self.gid.len()
    }
}

/// Session-scoped state, materialized at login and recycled at logout: the
/// planned session, the VFS process (fd table), and the in-flight-op/retry
/// slots. A logged-out user carries none of this.
struct HotUser {
    proc: Process,
    session: Session,
    pending: Option<PendingOp>,
    current: Option<(ExecutedOp, SimTime)>,
    /// Attempts made on the current operation (1 = first try). Only read
    /// when fault injection is enabled.
    attempts: u32,
    /// The previous retry backoff, µs — the decorrelated-jitter state.
    prev_backoff: u64,
}

/// Free-list arena of [`HotUser`] slots, sized by the peak number of
/// *concurrently logged-in* users rather than the population.
#[derive(Default)]
struct HotArena {
    slots: Vec<Option<HotUser>>,
    free: Vec<u32>,
}

impl HotArena {
    fn acquire(&mut self, hot: HotUser) -> u32 {
        match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = Some(hot);
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("hot slots fit u32");
                self.slots.push(Some(hot));
                idx
            }
        }
    }

    fn release(&mut self, idx: u32) -> HotUser {
        let hot = self.slots[idx as usize]
            .take()
            .expect("released slot is live");
        self.free.push(idx);
        hot
    }

    fn get_mut(&mut self, idx: u32) -> &mut HotUser {
        self.slots[idx as usize]
            .as_mut()
            .expect("used slot is live")
    }
}

/// The simulated world: file system, catalog, model, pool and users.
/// Generic over the [`LogSink`] receiving its records, so sweeps can stream
/// straight into running summaries instead of materializing the op vector.
struct UsimWorld<S: LogSink> {
    vfs: Vfs,
    catalog: FileCatalog,
    pool: ResourcePool,
    model: Box<dyn ServiceModel>,
    /// Separate stream for model randomness (disk jitter), so the timing
    /// model never perturbs the users' operation selection: the same seed
    /// produces the same op stream under every model and under the direct
    /// driver.
    model_rng: StdRng,
    population: CompiledPopulation,
    config: RunConfig,
    users: UserArena,
    hot: HotArena,
    sink: S,
    error: Option<UsimError>,
}

impl<S: LogSink> UsimWorld<S> {
    fn finish_session(&mut self, user: usize, now: SimTime) {
        let slot = self.users.hot[user];
        if slot == HOT_NONE {
            return;
        }
        let hot = self.hot.release(slot);
        self.users.hot[user] = HOT_NONE;
        self.sink.record_session(&hot.session.finish(now.micros()));
        self.users.sessions_done[user] += 1;
    }
}

impl<S: LogSink> World for UsimWorld<S> {
    type Event = Ev;

    fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        self.vfs.set_clock(now.micros());
        match event {
            Ev::Wake(u) => {
                let user = u as usize;
                // Materialize a session (or the user is finished). The VFS
                // process is per session too: process creation is
                // state-free and fd numbers never reach records or PRNG
                // streams, so recycling it with the slot is invisible to
                // replay.
                if self.users.hot[user] == HOT_NONE {
                    if self.users.sessions_done[user] >= self.config.sessions_per_user {
                        return;
                    }
                    let type_idx = usize::from(self.users.type_idx[user]);
                    let session = Session::plan(
                        self.users.gid[user] as usize,
                        type_idx,
                        self.users.sessions_done[user],
                        now.micros(),
                        &self.population.types()[type_idx],
                        &self.catalog,
                        &mut self.users.rng[user],
                    );
                    self.users.hot[user] = self.hot.acquire(HotUser {
                        proc: self.vfs.new_process(),
                        session,
                        pending: None,
                        current: None,
                        attempts: 0,
                        prev_backoff: 0,
                    });
                }
                // Issue the next operation.
                let utype = &self.population.types()[usize::from(self.users.type_idx[user])];
                let hot = self.hot.get_mut(self.users.hot[user]);
                let next = hot.session.next_op(
                    &mut self.vfs,
                    &mut hot.proc,
                    utype,
                    &self.catalog,
                    &mut self.users.rng[user],
                );
                match next {
                    Ok(Some(exec)) => {
                        let stages = self.model.stages(&exec.request, &mut self.model_rng);
                        // Latency spike on the first attempt: a seeded draw
                        // from the issuing user's own stream, so the outcome
                        // is independent of sharding and backend. The
                        // disabled default draws nothing.
                        let spike = self.config.faults.sample_spike(&mut self.users.rng[user]);
                        hot.attempts = 1;
                        hot.prev_backoff = 0;
                        hot.pending = Some(PendingOp::behind(spike, stages));
                        hot.current = Some((exec, now));
                        sched.schedule(0, Ev::Step(u));
                    }
                    Ok(None) => {
                        // Logout; the next login follows after the user
                        // type's inter-session gap (0 by default — the
                        // paper runs sessions back to back per terminal).
                        // A *finished* user gets no re-wake at all: the
                        // event would pop into the early-return above
                        // without touching state or RNG, and the user's
                        // stream draws nothing further — so skipping both
                        // the gap draw and the event leaves the op stream
                        // byte-identical while cutting one dead queue entry
                        // per user (the whole population's worth lands
                        // simultaneously when sessions are back to back).
                        self.finish_session(user, now);
                        if self.users.sessions_done[user] < self.config.sessions_per_user {
                            let utype =
                                &self.population.types()[usize::from(self.users.type_idx[user])];
                            let gap =
                                utype.sample_inter_session(now.micros(), &mut self.users.rng[user]);
                            sched.schedule(gap, Ev::Wake(u));
                        }
                    }
                    Err(e) => {
                        // Nothing already pending may run once the file
                        // system has failed: the run reports this error.
                        self.error = Some(e);
                        sched.halt();
                    }
                }
            }
            Ev::Step(u) => {
                let user = u as usize;
                let slot = self.users.hot[user];
                if slot == HOT_NONE {
                    return;
                }
                let hot = self.hot.get_mut(slot);
                let Some(pending) = hot.pending.as_mut() else {
                    return;
                };
                match pending.advance(&mut self.pool, now) {
                    StepOutcome::NextAt(t) => {
                        sched.schedule_at(t, Ev::Step(u));
                    }
                    StepOutcome::Done => {
                        hot.pending = None;
                        // Transient-fault draw for the finished attempt
                        // (per-user stream; nothing is drawn when faults
                        // are off). A failed attempt retries under the
                        // policy: the service traversal is regenerated and
                        // re-entered behind a backoff delay, keeping the
                        // original issue time so the recorded response
                        // spans every attempt. The call's semantic effect
                        // already executed at issue time — faults model the
                        // latency and disposition of the call, not its
                        // file-system state.
                        let faults = self.config.faults;
                        let mut aborted = false;
                        if faults.enabled() && faults.sample_fault(&mut self.users.rng[user]) {
                            if hot.attempts < faults.max_attempts() {
                                let backoff = faults
                                    .retry
                                    .backoff(hot.prev_backoff, &mut self.users.rng[user]);
                                hot.prev_backoff = backoff;
                                hot.attempts += 1;
                                let (exec, _) = hot.current.as_ref().expect("op in flight");
                                let stages = self.model.stages(&exec.request, &mut self.model_rng);
                                hot.pending = Some(PendingOp::behind(Some(backoff), stages));
                                sched.schedule(0, Ev::Step(u));
                                return;
                            }
                            aborted = true; // retry budget exhausted
                        }
                        let (exec, issued) = hot.current.take().expect("op in flight");
                        let response = now - issued;
                        hot.session.record.total_response += response;
                        if self.config.record_ops {
                            self.sink.record_op(&OpRecord {
                                at: issued.micros(),
                                user: self.users.gid[user] as usize,
                                session: hot.session.record.session,
                                op: exec.request.kind,
                                ino: exec.request.file.0,
                                bytes: exec.request.bytes,
                                file_size: exec.request.file_size,
                                response,
                                category: exec.category,
                                retries: hot.attempts.saturating_sub(1),
                                aborted,
                            });
                        }
                        let utype =
                            &self.population.types()[usize::from(self.users.type_idx[user])];
                        let think = utype.sample_think(
                            &mut self.users.behavior[user],
                            &mut self.users.rng[user],
                        );
                        sched.schedule(think, Ev::Wake(u));
                    }
                }
            }
        }
    }
}

/// Run-level statistics of a DES run: everything it reports besides the
/// records that went to the sink.
#[derive(Debug)]
pub struct DesRunStats {
    /// Final statistics of every model resource, by name.
    pub resources: Vec<(String, ResourceStats)>,
    /// Simulated duration of the whole run.
    pub duration: SimTime,
    /// Name of the timing model used.
    pub model: String,
    /// Total events processed by the kernel.
    pub events: u64,
}

/// XOR mask deriving the model-randomness stream (disk jitter) from the
/// run seed. Shard 0 of a sharded run uses exactly this stream, so a
/// one-shard run replays the unsharded simulation byte for byte.
pub(crate) const MODEL_SEED_XOR: u64 = 0x4D4F_4445_4C00_0001;

/// Multiplier deriving each user's PRNG stream from the run seed and the
/// user's *global* id, so a user's operation stream is independent of how
/// the population is partitioned across shards.
pub(crate) const USER_SEED_MUL: u64 = 0x9E37_79B9;

/// Capacity hint for a collecting sink: the session count
/// (saturating — the `n_users × sessions_per_user` product can exceed
/// `usize` long before either factor looks suspicious) and the compiled
/// population's expected op count, both capped so the upfront reservation
/// stays bounded no matter how large the run is. 2^20 records (~80 MiB of
/// `OpRecord`s) is the most a hint should pre-commit — beyond that,
/// amortized growth is cheap anyway, and a 10M-user request must reserve
/// hint-sized, not population-sized, buffers.
pub(crate) fn log_capacity_hint(
    population: &CompiledPopulation,
    config: &RunConfig,
) -> (usize, usize) {
    const CAP: usize = 1 << 20;
    let sessions = config
        .n_users
        .saturating_mul(config.sessions_per_user as usize)
        .min(CAP);
    let est_ops = if config.record_ops {
        let total = population.expected_ops_per_user_session()
            * config.n_users as f64
            * f64::from(config.sessions_per_user);
        if total.is_finite() && total > 0.0 {
            (total as usize).min(CAP) // saturating float→int cast
        } else {
            0
        }
    } else {
        0
    };
    (est_ops, sessions)
}

/// The world and its scheduler, ready to run: `users` logged out, one
/// time-zero wake per user pending.
#[allow(clippy::too_many_arguments)]
fn simulation<S: LogSink>(
    vfs: Vfs,
    mut catalog: FileCatalog,
    population: &CompiledPopulation,
    model: Box<dyn ServiceModel>,
    pool: ResourcePool,
    config: &RunConfig,
    users: UserArena,
    model_seed: u64,
    sink: S,
) -> Simulation<UsimWorld<S>> {
    // Precompute the O(1) alias samplers for session planning's
    // file-selection picks. Draw-for-draw identical to the unsealed
    // modulo path, so seeded replay is unaffected. A catalog the
    // caller already sealed — possibly with a *weighted* popularity
    // policy via `FileCatalog::seal_with` — is left alone: re-sealing
    // here would silently reset those weights to uniform.
    if !catalog.is_sealed() {
        catalog.seal();
    }
    let n_local = users.len();
    let world = UsimWorld {
        vfs,
        catalog,
        pool,
        model,
        model_rng: StdRng::seed_from_u64(model_seed),
        population: population.clone(),
        config: *config,
        users,
        hot: HotArena::default(),
        sink,
        error: None,
    };
    // The initial one-wake-per-user volley streams lazily from the
    // scheduler's seed mechanism — byte-identical to scheduling each
    // `Wake` eagerly (same `(time, seq)` slots), but the million-user
    // login wave never occupies queue memory. Steady state holds at
    // most one *dynamic* pending event per user (wake or step), and a
    // mostly-idle population holds far fewer, so the queue pre-sizes
    // for a capped slice of the population and grows only if the run
    // actually keeps that many operations in flight. The backend choice
    // never changes the drain order (both drain in (time, seq) order),
    // so it is free to vary per run without breaking replay.
    let capacity = (n_local + 1).min(1 << 16);
    Simulation::with_backend_seeded(world, config.scheduler_backend(), capacity, n_local, |u| {
        Ev::Wake(u as u32)
    })
}

/// Runs a population against a timing model in simulated time. See the
/// module documentation.
#[derive(Debug, Default)]
pub struct DesDriver;

impl DesDriver {
    /// Creates a driver.
    pub fn new() -> Self {
        Self
    }

    /// Executes the run, streaming every record into `sink`: a
    /// [`UsageLog`](crate::UsageLog) collects them all (pre-sized through
    /// [`LogSink::reserve`]), a [`SummarySink`](crate::SummarySink) keeps
    /// O(1) memory. The record stream is the same whatever the sink.
    ///
    /// `vfs` and `catalog` are consumed (the simulation owns them while it
    /// runs); `pool` must be the pool the model registered its resources in.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors and any unexpected
    /// file-system error raised mid-run.
    #[allow(clippy::too_many_arguments)]
    pub fn run_with_sink<S: LogSink>(
        &self,
        vfs: Vfs,
        catalog: FileCatalog,
        population: &CompiledPopulation,
        model: Box<dyn ServiceModel>,
        pool: ResourcePool,
        config: &RunConfig,
        mut sink: S,
    ) -> Result<(S, DesRunStats), UsimError> {
        config.validate()?;
        let (est_ops, sessions) = log_capacity_hint(population, config);
        sink.reserve(est_ops, sessions);
        let users = UserArena::build(
            population,
            config.seed,
            config.n_users,
            0..config.n_users,
            config.n_users,
        );
        self.run_inner(
            vfs,
            catalog,
            population,
            model,
            pool,
            config,
            users,
            config.seed ^ MODEL_SEED_XOR,
            sink,
        )
    }

    /// Shared body of [`Self::run_with_sink`] and the sharded driver's
    /// per-shard runs: simulates the users in `users` —
    /// the full population for the unsharded entry points, one shard's
    /// members otherwise. Per-user PRNG streams are derived from the
    /// *global* ids (by [`UserArena::build`]), so each user's operation
    /// stream is the same under every partitioning; `model_seed` seeds the
    /// timing model's jitter stream (per shard in sharded runs).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_inner<S: LogSink>(
        &self,
        vfs: Vfs,
        catalog: FileCatalog,
        population: &CompiledPopulation,
        model: Box<dyn ServiceModel>,
        pool: ResourcePool,
        config: &RunConfig,
        users: UserArena,
        model_seed: u64,
        sink: S,
    ) -> Result<(S, DesRunStats), UsimError> {
        let model_name = model.name().to_string();
        let mut sim = simulation(
            vfs, catalog, population, model, pool, config, users, model_seed, sink,
        );
        let events = sim.run();
        let duration = sim.now();
        let world = sim.into_world();
        if let Some(e) = world.error {
            return Err(e);
        }
        let resources = world
            .pool
            .iter()
            .map(|(_, r)| (r.name().to_string(), r.stats()))
            .collect();
        Ok((
            world.sink,
            DesRunStats {
                resources,
                duration,
                model: model_name,
                events,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CategoryUsage, PopulationSpec, UsageLog, UserTypeSpec};
    use uswg_distr::DistributionSpec;
    use uswg_fsc::{CategorySpec, FileCategory, FileSystemCreator, FillPattern, FscSpec};
    use uswg_netfs::{NfsModel, NfsParams};
    use uswg_sim::SchedulerBackend;
    use uswg_vfs::{FsError, VfsConfig};

    fn population() -> CompiledPopulation {
        let t = UserTypeSpec::new(
            "heavy",
            DistributionSpec::exponential(5000.0),
            DistributionSpec::exponential(1024.0),
            vec![CategoryUsage::exponential(
                FileCategory::REG_USER_RDONLY,
                1.42,
                2608.0,
                6.0,
                1.0,
            )],
        );
        CompiledPopulation::compile(&PopulationSpec::single(t).unwrap(), 64).unwrap()
    }

    /// The over-reservation regression the arena diet fixes: a 10M-user
    /// request must reserve hint-sized, not population-sized, buffers —
    /// and the session product must not overflow on any host.
    #[test]
    fn capacity_hint_is_bounded_for_ten_million_users() {
        let population = population();
        let mut config = RunConfig {
            n_users: 10_000_000,
            ..RunConfig::default()
        };
        config.sessions_per_user = u32::MAX; // product far beyond usize::MAX / hint cap
        let (ops, sessions) = log_capacity_hint(&population, &config);
        assert_eq!(sessions, 1 << 20);
        assert!(ops > 0 && ops <= 1 << 20);
        config.record_ops = false;
        let (ops, _) = log_capacity_hint(&population, &config);
        assert_eq!(ops, 0);
    }

    #[test]
    fn arena_build_packs_members_in_order() {
        let population = population();
        let arena = UserArena::build(&population, 7, 10, (1..10).step_by(3), 3);
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.gid, vec![1, 4, 7]);
        assert!(arena.hot.iter().all(|&h| h == HOT_NONE));
        assert!(arena.sessions_done.iter().all(|&s| s == 0));
    }

    /// A file system for `n_users` whose every file owned by `broken` has
    /// turned into a directory: that user's first `open` fails with an error
    /// the session engine cannot degrade.
    fn fs_with_a_broken_user(n_users: usize, broken: usize) -> (Vfs, FileCatalog) {
        let spec = FscSpec::new(vec![CategorySpec::new(
            FileCategory::REG_USER_RDONLY,
            1.0,
            DistributionSpec::exponential(2608.0),
        )])
        .unwrap()
        .with_files_per_user(3)
        .unwrap()
        .with_fill(FillPattern::Sparse);
        let mut vfs = Vfs::new(VfsConfig::default());
        let catalog = FileSystemCreator::new(spec)
            .build(&mut vfs, n_users, &mut StdRng::seed_from_u64(3))
            .unwrap();
        for (idx, file) in catalog.files().iter().enumerate() {
            if file.owner_user == Some(broken) {
                vfs.unlink(catalog.path(idx)).unwrap();
                vfs.mkdir(catalog.path(idx)).unwrap();
            }
        }
        (vfs, catalog)
    }

    #[test]
    fn a_file_system_error_halts_the_run_where_it_happens() {
        let population = population();
        let (n_users, broken) = (400, 150);
        for backend in [SchedulerBackend::Heap, SchedulerBackend::Calendar] {
            let config = RunConfig {
                n_users,
                sessions_per_user: 2,
                scheduler: Some(backend),
                ..RunConfig::default()
            };
            let build = || {
                let (vfs, catalog) = fs_with_a_broken_user(n_users, broken);
                let mut pool = ResourcePool::new();
                let model = Box::new(NfsModel::new(&mut pool, NfsParams::default()));
                (vfs, catalog, model, pool)
            };
            // The login wave wakes users in order, so the broken user's wake
            // is event 151: 249 seed wakes unstreamed, 150 users' first
            // stages held or queued. None of them may run.
            let (vfs, catalog, model, pool) = build();
            let users = UserArena::build(&population, config.seed, n_users, 0..n_users, n_users);
            let mut sim = simulation(
                vfs,
                catalog,
                &population,
                model,
                pool,
                &config,
                users,
                1,
                UsageLog::new(),
            );
            assert_eq!(sim.run(), broken as u64 + 1, "{backend}");
            assert_eq!(sim.pending(), 0);
            assert_eq!(
                sim.world().error,
                Some(UsimError::FileSystem(FsError::IsADirectory))
            );
            // And the driver reports it as the run's typed error.
            let (vfs, catalog, model, pool) = build();
            let result = DesDriver::new().run_with_sink(
                vfs,
                catalog,
                &population,
                model,
                pool,
                &config,
                UsageLog::new(),
            );
            assert_eq!(
                result.err(),
                Some(UsimError::FileSystem(FsError::IsADirectory))
            );
        }
    }

    #[test]
    fn oversized_population_is_rejected() {
        let config = RunConfig {
            n_users: u32::MAX as usize + 1,
            ..RunConfig::default()
        };
        assert!(matches!(
            config.validate(),
            Err(UsimError::PopulationTooLarge { .. })
        ));
    }
}
