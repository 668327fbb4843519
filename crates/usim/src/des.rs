//! The discrete-event driver: all users run concurrently in simulated time
//! against a file-system timing model.
//!
//! This is the reproduction of the paper's measurement setup, and the only
//! driver. Each user alternates between thinking and issuing a system call;
//! the call's semantic effect executes against the VFS immediately, while
//! its latency is the traversal of the timing model's stage chain through
//! the shared resource pool. Response times therefore include queueing
//! behind every other user — the effect Chapter 5 measures. Under the
//! zero-stage model ([`ZeroModel`](uswg_netfs::ZeroModel)) the chain is
//! empty: every call completes the instant it is issued and think times
//! alone drive the clock — the usage study of Figures 5.3–5.5.
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
//! A user's home in the file system follows the same rule: it is built at
//! the first login whose session names it and dropped after the user's last
//! session ([`FileCatalog::build_home`], [`FileCatalog::drop_home`]).
//! Materialization is invisible to replay: session planning draws from the
//! same per-user PRNG stream at the same points, so the op stream stays a
//! pure function of (spec, seed) — pinned byte for byte by
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

/// The event driving one simulated user — a *wake* (think time over: issue
/// the next operation) or a *step* (an in-flight operation finished a
/// stage) — for the user's id, packed to `u32`. One word, the kind in bit
/// 32, so the scheduler moves it in one 8-byte store and load: a
/// two-variant enum was stored as tag and payload, 4 bytes each, and read
/// back by one 8-byte load the CPU cannot forward from them — a stall on
/// 6.4 % of `deep_nfs`'s samples.
#[derive(Debug, Clone, Copy)]
struct Ev(u64);

impl Ev {
    const STEP: u64 = 1 << 32;

    fn wake(user: u32) -> Self {
        Ev(u64::from(user))
    }

    fn step(user: u32) -> Self {
        Ev(u64::from(user) | Self::STEP)
    }

    fn user(self) -> u32 {
        self.0 as u32
    }

    fn is_step(self) -> bool {
        self.0 & Self::STEP != 0
    }
}

/// Hot-slot sentinel: the user is logged out (idle or finished).
const HOT_NONE: u32 = u32::MAX;

/// Whole-run per-user state as parallel columns (struct of arrays). These
/// are the only fields a population of N users pays for N times; everything
/// session-scoped lives in [`HotArena`] slots. A user's id is its slot
/// index: it seeds the user's PRNG stream and labels every record. Events
/// carry it as a `u32`; [`RunConfig::validate`] rejects larger populations.
pub(crate) struct UserArena {
    /// Index into the compiled population's types.
    type_idx: Vec<u16>,
    behavior: Vec<BehaviorState>,
    sessions_done: Vec<u32>,
    rng: Vec<StdRng>,
    /// The user's [`HotArena`] slot while logged in, [`HOT_NONE`] otherwise.
    hot: Vec<u32>,
}

impl UserArena {
    /// Builds the columns for users `0..n_users`. The type assignment is
    /// evaluated per user with [`CompiledPopulation::type_of`], so nothing
    /// population-sized is ever materialized besides the columns
    /// themselves.
    pub(crate) fn build(population: &CompiledPopulation, seed: u64, n_users: usize) -> Self {
        let mut arena = Self {
            type_idx: Vec::with_capacity(n_users),
            behavior: Vec::with_capacity(n_users),
            sessions_done: Vec::with_capacity(n_users),
            rng: Vec::with_capacity(n_users),
            hot: Vec::with_capacity(n_users),
        };
        for user in 0..n_users {
            let t = population.type_of(user, n_users);
            arena
                .type_idx
                .push(u16::try_from(t).expect("compile caps the user types"));
            arena.behavior.push(population.types()[t].new_behavior());
            arena.sessions_done.push(0);
            arena.rng.push(user_rng(seed, user));
            arena.hot.push(HOT_NONE);
        }
        arena
    }

    /// Number of users in the arena.
    pub(crate) fn len(&self) -> usize {
        self.hot.len()
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
    /// Every path a session names is rendered here.
    path: String,
    pool: ResourcePool,
    model: Box<dyn ServiceModel>,
    /// Separate stream for model randomness (disk jitter), so the timing
    /// model never perturbs the users' operation selection: a user's draws
    /// are the same under every model, and only the interleaving of users
    /// (through files they share) depends on it.
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
        if self.users.sessions_done[user] == self.config.sessions_per_user {
            self.catalog.drop_home(&mut self.vfs, user);
        }
    }
}

impl<S: LogSink> World for UsimWorld<S> {
    type Event = Ev;

    fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        let u = event.user();
        let user = u as usize;
        if event.is_step() {
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
                    sched.schedule_at(t, Ev::step(u));
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
                            sched.schedule(0, Ev::step(u));
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
                            user,
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
                    let utype = &self.population.types()[usize::from(self.users.type_idx[user])];
                    let think = utype
                        .sample_think(&mut self.users.behavior[user], &mut self.users.rng[user]);
                    sched.schedule(think, Ev::wake(u));
                }
            }
        } else {
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
                    user,
                    type_idx,
                    self.users.sessions_done[user],
                    now.micros(),
                    &self.population.types()[type_idx],
                    &self.catalog,
                    &mut self.users.rng[user],
                );
                if session.names_home(&self.catalog) {
                    if let Err(e) = self.catalog.build_home(&mut self.vfs, user) {
                        self.error = Some(e.into());
                        sched.halt();
                        return;
                    }
                }
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
                &mut self.path,
                &mut self.users.rng[user],
            );
            match next {
                Ok(Some(exec)) => {
                    let stages = self.model.stages(&exec.request, &mut self.model_rng);
                    // Latency spike on the first attempt: a seeded draw
                    // from the issuing user's own stream, so the outcome
                    // is independent of the timing model. The disabled
                    // default draws nothing.
                    let spike = self.config.faults.sample_spike(&mut self.users.rng[user]);
                    hot.attempts = 1;
                    hot.prev_backoff = 0;
                    hot.pending = Some(PendingOp::behind(spike, stages));
                    hot.current = Some((exec, now));
                    sched.schedule(0, Ev::step(u));
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
                        sched.schedule(gap, Ev::wake(u));
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
/// run seed.
const MODEL_SEED_XOR: u64 = 0x4D4F_4445_4C00_0001;

/// Multiplier deriving each user's PRNG stream from the run seed and the
/// user's id.
const USER_SEED_MUL: u64 = 0x9E37_79B9;

/// User `user`'s PRNG stream under run seed `seed` — the one a user's
/// sessions are drawn from.
pub fn user_rng(seed: u64, user: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (user as u64).wrapping_mul(USER_SEED_MUL))
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
        path: String::new(),
        pool,
        model,
        model_rng: StdRng::seed_from_u64(config.seed ^ MODEL_SEED_XOR),
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
    // login wave never occupies queue memory.
    Simulation::seeded(world, n_local, |u| Ev::wake(u as u32))
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
    /// [`UsageLog`](crate::UsageLog) collects them all, a
    /// [`SummarySink`](crate::SummarySink) keeps O(1) memory. The record
    /// stream is the same whatever the sink.
    ///
    /// `vfs` and `catalog` are consumed (the simulation owns them while it
    /// runs); `pool` must be the pool the model registered its resources in.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors and any unexpected
    /// file-system error raised mid-run; [`UsimError::ClockOverflow`] if
    /// the simulated clock saturated.
    #[allow(clippy::too_many_arguments)]
    pub fn run_with_sink<S: LogSink>(
        &self,
        mut vfs: Vfs,
        catalog: FileCatalog,
        population: &CompiledPopulation,
        model: Box<dyn ServiceModel>,
        pool: ResourcePool,
        config: &RunConfig,
        sink: S,
    ) -> Result<(S, DesRunStats), UsimError> {
        self.run_on(&mut vfs, catalog, population, model, pool, config, sink)
    }

    /// [`Self::run_with_sink`] on a file system the caller keeps: `vfs`
    /// holds the run's final state when it returns, so its counters and
    /// free space can be read.
    ///
    /// # Errors
    ///
    /// As [`Self::run_with_sink`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_on<S: LogSink>(
        &self,
        vfs: &mut Vfs,
        catalog: FileCatalog,
        population: &CompiledPopulation,
        model: Box<dyn ServiceModel>,
        pool: ResourcePool,
        config: &RunConfig,
        sink: S,
    ) -> Result<(S, DesRunStats), UsimError> {
        config.validate()?;
        let users = UserArena::build(population, config.seed, config.n_users);
        let model_name = model.name().to_string();
        let owned = std::mem::replace(vfs, Vfs::new(*vfs.config()));
        let mut sim = simulation(owned, catalog, population, model, pool, config, users, sink);
        let events = sim.run();
        let duration = sim.now();
        let world = sim.into_world();
        *vfs = world.vfs;
        if let Some(e) = world.error {
            return Err(e);
        }
        // A clock pinned at its limit means some addition saturated there.
        if duration == SimTime::MAX {
            return Err(UsimError::ClockOverflow);
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

    #[test]
    fn arena_build_packs_members_in_order() {
        let population = population();
        let arena = UserArena::build(&population, 7, 10);
        assert_eq!(arena.len(), 10);
        // Slot `u` is user `u`: its stream is seeded from that id.
        assert_eq!(
            arena.rng[4],
            StdRng::seed_from_u64(7 ^ 4u64.wrapping_mul(USER_SEED_MUL))
        );
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
        catalog.build_home(&mut vfs, broken).unwrap();
        for (idx, file) in catalog.files().enumerate() {
            if file.owner_user == Some(broken as u32) {
                vfs.unlink(&catalog.path(idx)).unwrap();
                vfs.mkdir(&catalog.path(idx)).unwrap();
            }
        }
        (vfs, catalog)
    }

    #[test]
    fn a_file_system_error_halts_the_run_where_it_happens() {
        let population = population();
        let (n_users, broken) = (400, 150);
        let config = RunConfig {
            n_users,
            sessions_per_user: 2,
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
        let users = UserArena::build(&population, config.seed, n_users);
        let mut sim = simulation(
            vfs,
            catalog,
            &population,
            model,
            pool,
            &config,
            users,
            UsageLog::new(),
        );
        assert_eq!(sim.run(), broken as u64 + 1);
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
