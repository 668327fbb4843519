//! User-type and population specifications (the USIM inputs of Section
//! 4.1.3, with Tables 5.2 and 5.4 as the canonical values).

use crate::UsimError;
use serde::{Deserialize, Serialize};
use std::num::NonZeroUsize;
use uswg_distr::DistributionSpec;
use uswg_fsc::FileCategory;
use uswg_sim::SchedulerBackend;

/// Tolerance when validating that population fractions sum to one.
const FRACTION_TOL: f64 = 1e-6;

/// How the bytes of a file are visited.
///
/// The paper simulates only sequential access but flags the alternative:
/// "in other environments, such as a commercial database system,
/// nonsequential (or random) file access may be the predominant behavior"
/// (Section 4.2), and lists indexed/direct-access files as future work
/// (Section 6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum AccessPattern {
    /// Sequential with explicit `lseek` wraparound (the paper's model).
    #[default]
    Sequential,
    /// Direct access: each data operation is preceded by an `lseek` to a
    /// uniformly random offset (database-style record access).
    Random,
}

/// How one user type uses one file category: a row of Table 5.2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CategoryUsage {
    /// The file category.
    pub category: FileCategory,
    /// Mean number of times each byte of an accessed file is accessed
    /// (Table 5.2's "accesses" measure, after \[DI86\]'s access-per-byte).
    /// A file of size `s` receives about `access_per_byte × s` bytes of I/O.
    pub access_per_byte: f64,
    /// Size distribution of files the user creates in this category
    /// (`NEW`/`TEMP`); pre-existing categories take sizes from the catalog.
    pub file_size: DistributionSpec,
    /// Distribution of the number of files of this category referenced per
    /// login session.
    pub files: DistributionSpec,
    /// Probability (0–1) that a session accesses this category at all
    /// (Table 5.2's "percent of users accessing category" / 100).
    pub pct_users: f64,
    /// How bytes within a file are visited (sequential by default).
    #[serde(default)]
    pub access_pattern: AccessPattern,
}

impl CategoryUsage {
    /// Creates a category usage with exponential file-size and file-count
    /// distributions, matching the paper's assumption that "the usage
    /// measures are specified in terms of mean values only; the measures are
    /// assumed to be exponentially distributed".
    pub fn exponential(
        category: FileCategory,
        access_per_byte: f64,
        mean_file_size: f64,
        mean_files: f64,
        pct_users: f64,
    ) -> Self {
        Self {
            category,
            access_per_byte,
            file_size: DistributionSpec::exponential(mean_file_size),
            files: DistributionSpec::exponential(mean_files),
            pct_users,
            access_pattern: AccessPattern::default(),
        }
    }

    /// Builder-style access-pattern override (random = database-style
    /// direct access).
    pub fn with_access_pattern(mut self, pattern: AccessPattern) -> Self {
        self.access_pattern = pattern;
        self
    }

    fn validate(&self, type_name: &str) -> Result<(), UsimError> {
        if !(0.0..=1.0).contains(&self.pct_users) {
            return Err(UsimError::BadProbability {
                name: "pct_users",
                value: self.pct_users,
            });
        }
        if !(self.access_per_byte.is_finite() && self.access_per_byte >= 0.0) {
            return Err(UsimError::BadProbability {
                name: "access_per_byte",
                value: self.access_per_byte,
            });
        }
        let _ = type_name;
        Ok(())
    }
}

/// The default inter-session gap: immediate re-login, the paper's behavior.
fn default_inter_session() -> DistributionSpec {
    DistributionSpec::constant(0.0)
}

/// One user type: think time, access size, and per-category usage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserTypeSpec {
    /// Human-readable name ("heavy I/O", …).
    pub name: String,
    /// Think time (inter-I/O-request time) distribution, µs (Table 5.4).
    pub think_time: DistributionSpec,
    /// Access size per file I/O system call, bytes.
    pub access_size: DistributionSpec,
    /// Usage of each file category.
    pub categories: Vec<CategoryUsage>,
    /// Gap between a logout and the next login, µs (defaults to 0 —
    /// back-to-back sessions, the paper's measurement mode).
    #[serde(default = "default_inter_session")]
    pub inter_session_time: DistributionSpec,
    /// Optional Markov phase model scaling think times over time
    /// (Section 6.2's CPU-bound/I/O-bound extension).
    #[serde(default)]
    pub phases: Option<crate::PhaseModel>,
    /// Optional time-of-day profile applied to inter-session times
    /// (Section 6.2's \[CS85\] inter-login-time extension).
    #[serde(default)]
    pub diurnal: Option<crate::DiurnalProfile>,
}

impl UserTypeSpec {
    /// Creates a user type with back-to-back sessions and stationary
    /// behaviour (the paper's model).
    pub fn new(
        name: impl Into<String>,
        think_time: DistributionSpec,
        access_size: DistributionSpec,
        categories: Vec<CategoryUsage>,
    ) -> Self {
        Self {
            name: name.into(),
            think_time,
            access_size,
            categories,
            inter_session_time: default_inter_session(),
            phases: None,
            diurnal: None,
        }
    }

    /// Builder-style inter-session (inter-login) time override.
    pub fn with_inter_session_time(mut self, dist: DistributionSpec) -> Self {
        self.inter_session_time = dist;
        self
    }

    /// Builder-style Markov phase model override.
    pub fn with_phases(mut self, phases: crate::PhaseModel) -> Self {
        self.phases = Some(phases);
        self
    }

    /// Builder-style diurnal profile override.
    pub fn with_diurnal(mut self, diurnal: crate::DiurnalProfile) -> Self {
        self.diurnal = Some(diurnal);
        self
    }

    pub(crate) fn validate(&self) -> Result<(), UsimError> {
        if self.categories.is_empty() {
            return Err(UsimError::EmptyUserType {
                name: self.name.clone(),
            });
        }
        for usage in &self.categories {
            usage.validate(&self.name)?;
        }
        Ok(())
    }
}

/// A population: user types and the fraction of users belonging to each.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationSpec {
    types: Vec<(UserTypeSpec, f64)>,
}

impl PopulationSpec {
    /// Creates a population from `(type, fraction)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`UsimError::EmptyPopulation`] for an empty list,
    /// [`UsimError::BadFractions`] when fractions do not sum to one, and the
    /// per-type validation errors.
    pub fn new(types: Vec<(UserTypeSpec, f64)>) -> Result<Self, UsimError> {
        if types.is_empty() {
            return Err(UsimError::EmptyPopulation);
        }
        let sum: f64 = types.iter().map(|&(_, f)| f).sum();
        // A NaN or infinite fraction makes the sum non-finite, and `NaN > TOL` is false.
        let off_one = !sum.is_finite() || (sum - 1.0).abs() > FRACTION_TOL;
        if off_one || types.iter().any(|&(_, f)| f < 0.0) {
            return Err(UsimError::BadFractions { sum });
        }
        for (t, _) in &types {
            t.validate()?;
        }
        Ok(Self { types })
    }

    /// A population consisting of a single user type.
    ///
    /// # Errors
    ///
    /// Propagates the type's validation errors.
    pub fn single(user_type: UserTypeSpec) -> Result<Self, UsimError> {
        Self::new(vec![(user_type, 1.0)])
    }

    /// The `(type, fraction)` pairs.
    pub fn types(&self) -> &[(UserTypeSpec, f64)] {
        &self.types
    }

    /// Deterministically assigns `n_users` to types in proportion to the
    /// fractions: user `i` takes the type whose cumulative fraction covers
    /// `(i + 0.5) / n`. With 5 users and an 80/20 split this yields exactly
    /// 4 + 1, which matters for the paper's small populations.
    pub fn assign(&self, n_users: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(n_users);
        for i in 0..n_users {
            let target = (i as f64 + 0.5) / n_users as f64;
            let mut acc = 0.0;
            let mut chosen = self.types.len() - 1;
            for (idx, &(_, frac)) in self.types.iter().enumerate() {
                acc += frac;
                if target < acc + 1e-12 {
                    chosen = idx;
                    break;
                }
            }
            out.push(chosen);
        }
        out
    }
}

/// Run-level configuration of a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Number of concurrent users ("load intensity").
    pub n_users: usize,
    /// Login sessions each user completes.
    pub sessions_per_user: u32,
    /// Base RNG seed; every user derives an independent stream from it.
    pub seed: u64,
    /// Whether to record every operation in the log (sessions are always
    /// recorded). Turn off for very long runs.
    pub record_ops: bool,
    /// Resolution of the compiled CDF tables (samples per distribution).
    pub cdf_resolution: usize,
    /// Event-queue backend of the DES driver. Both backends produce
    /// byte-identical simulations for the same seed; the calendar queue is
    /// O(1) per event and wins beyond ~100k concurrently pending events
    /// (roughly, users). `None` — the default, and what a freshly written
    /// spec serializes — is [`SchedulerBackend::default`], the calendar;
    /// set `Some` (or pass `--scheduler` to `uswg run`) to pin one
    /// explicitly.
    #[serde(default)]
    pub scheduler: Option<SchedulerBackend>,
    /// Shards a single DES run across cores: the population is split
    /// round-robin into this many independent DES instances and the
    /// results are merged deterministically (see
    /// [`ShardedDesDriver`](crate::ShardedDesDriver)). `None` — the
    /// default — runs the exact single-instance simulation with one
    /// globally contended resource model. `Some(1)` routes
    /// through the sharded driver with one shard, which replays the exact
    /// path byte for byte; `Some(K > 1)` trades contention fidelity for
    /// wall-clock — each shard owns a private copy of the timing model's
    /// resources, so response times are preserved statistically, not
    /// exactly, while the operation streams themselves are unchanged.
    #[serde(default)]
    pub shards: Option<NonZeroUsize>,
    /// Seeded fault injection at the service boundary: transient errors
    /// with deterministic retries, and latency spikes. The default is
    /// fully disabled and draws no PRNG values, so specs without a
    /// `faults` section replay pre-fault runs byte for byte.
    #[serde(default)]
    pub faults: crate::FaultSpec,
}

impl Default for RunConfig {
    /// One user, 50 sessions (the paper's per-point session count), ops
    /// recorded, 1024-point tables.
    fn default() -> Self {
        Self {
            n_users: 1,
            sessions_per_user: 50,
            seed: 0x5EED,
            record_ops: true,
            cdf_resolution: 1024,
            scheduler: None,
            shards: None,
            faults: crate::FaultSpec::default(),
        }
    }
}

impl RunConfig {
    /// Validates the counts.
    ///
    /// # Errors
    ///
    /// Returns [`UsimError::BadCount`] when users, sessions or resolution
    /// are zero, and [`UsimError::PopulationTooLarge`] when the population
    /// exceeds the user arena's packed `u32` ids.
    pub fn validate(&self) -> Result<(), UsimError> {
        if self.n_users == 0 {
            return Err(UsimError::BadCount { name: "n_users" });
        }
        if self.n_users > u32::MAX as usize {
            return Err(UsimError::PopulationTooLarge {
                n_users: self.n_users,
            });
        }
        if self.sessions_per_user == 0 {
            return Err(UsimError::BadCount {
                name: "sessions_per_user",
            });
        }
        if self.cdf_resolution < 2 {
            return Err(UsimError::BadCount {
                name: "cdf_resolution",
            });
        }
        self.faults.validate()?;
        Ok(())
    }

    /// Builder-style user count override.
    pub fn with_users(mut self, n: usize) -> Self {
        self.n_users = n;
        self
    }

    /// Builder-style session count override.
    pub fn with_sessions(mut self, n: u32) -> Self {
        self.sessions_per_user = n;
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style fault-injection override.
    pub fn with_faults(mut self, faults: crate::FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// The backend this run will use: the pinned choice, or
    /// [`SchedulerBackend::default`].
    pub fn scheduler_backend(&self) -> SchedulerBackend {
        self.scheduler.unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_type(name: &str) -> UserTypeSpec {
        UserTypeSpec::new(
            name,
            DistributionSpec::constant(0.0),
            DistributionSpec::exponential(1024.0),
            vec![CategoryUsage::exponential(
                FileCategory::REG_USER_RDONLY,
                1.0,
                2608.0,
                2.0,
                1.0,
            )],
        )
    }

    #[test]
    fn population_validation() {
        assert!(matches!(
            PopulationSpec::new(vec![]),
            Err(UsimError::EmptyPopulation)
        ));
        let bad = PopulationSpec::new(vec![(minimal_type("a"), 0.5)]);
        assert!(matches!(bad, Err(UsimError::BadFractions { .. })));
        // Nor is NaN a fraction, or infinity, or a negative share that sums to one.
        for (a, b) in [(f64::NAN, 0.5), (f64::INFINITY, 0.5), (1.5, -0.5)] {
            let bad = PopulationSpec::new(vec![(minimal_type("a"), a), (minimal_type("b"), b)]);
            assert!(matches!(bad, Err(UsimError::BadFractions { .. })), "{a}");
        }
        let empty_type = UserTypeSpec::new(
            "e",
            DistributionSpec::constant(0.0),
            DistributionSpec::exponential(1.0),
            vec![],
        );
        assert!(matches!(
            PopulationSpec::single(empty_type),
            Err(UsimError::EmptyUserType { .. })
        ));
    }

    #[test]
    fn probability_bounds_checked() {
        let mut t = minimal_type("x");
        t.categories[0].pct_users = 1.5;
        assert!(matches!(
            PopulationSpec::single(t),
            Err(UsimError::BadProbability { .. })
        ));
    }

    #[test]
    fn assignment_is_proportional() {
        let pop = PopulationSpec::new(vec![
            (minimal_type("heavy"), 0.8),
            (minimal_type("light"), 0.2),
        ])
        .unwrap();
        let assigned = pop.assign(5);
        assert_eq!(assigned.iter().filter(|&&t| t == 0).count(), 4);
        assert_eq!(assigned.iter().filter(|&&t| t == 1).count(), 1);
        // 50/50 over 6 users.
        let pop = PopulationSpec::new(vec![
            (minimal_type("heavy"), 0.5),
            (minimal_type("light"), 0.5),
        ])
        .unwrap();
        let assigned = pop.assign(6);
        assert_eq!(assigned.iter().filter(|&&t| t == 0).count(), 3);
    }

    #[test]
    fn assignment_single_type() {
        let pop = PopulationSpec::single(minimal_type("only")).unwrap();
        assert_eq!(pop.assign(4), vec![0, 0, 0, 0]);
        assert_eq!(pop.types().len(), 1);
    }

    #[test]
    fn run_config_validation() {
        assert!(RunConfig::default().validate().is_ok());
        assert!(RunConfig::default().with_users(0).validate().is_err());
        assert!(RunConfig::default().with_sessions(0).validate().is_err());
        let c = RunConfig {
            cdf_resolution: 1,
            ..RunConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn serde_round_trip() {
        let pop = PopulationSpec::new(vec![
            (minimal_type("heavy"), 0.8),
            (minimal_type("light"), 0.2),
        ])
        .unwrap();
        let json = serde_json::to_string(&pop).unwrap();
        let back: PopulationSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(pop, back);
    }
}
