//! Compilation of specifications into CDF tables.
//!
//! "First, file distributions and usage distributions must be specified.
//! These are used to compute tables of cumulative distribution function
//! (CDF) values for use in random number generation." (Section 4.1) — this
//! module is that step: every distribution in a [`PopulationSpec`] becomes a
//! [`CdfTable`] at the configured resolution, and sampling during simulation
//! is pure inverse-transform table lookup, exactly as in the original tool.

use crate::spec::AccessPattern;
use crate::{DiurnalProfile, PhaseModel, PopulationSpec, UsimError};
use rand::RngCore;
use uswg_distr::CdfTable;
use uswg_fsc::FileCategory;

/// A compiled category usage: CDF tables plus scalar parameters.
#[derive(Debug, Clone)]
pub(crate) struct CompiledCategoryUsage {
    pub category: FileCategory,
    pub access_per_byte: f64,
    pub file_size: CdfTable,
    pub files: CdfTable,
    pub pct_users: f64,
    pub access_pattern: AccessPattern,
}

/// Per-user progress of the time-varying behaviour models (current Markov
/// phase). Create one per simulated user with
/// [`CompiledUserType::new_behavior`]. Packed to `u32`: the whole
/// population pays for this once per user (a user-arena column), and a
/// phase chain is spec data — a handful of states, nowhere near 2³².
#[derive(Debug, Clone, Copy, Default)]
pub struct BehaviorState {
    phase: u32,
}

/// A compiled user type, ready for simulation.
#[derive(Debug, Clone)]
pub struct CompiledUserType {
    pub(crate) name: String,
    pub(crate) think_time: CdfTable,
    pub(crate) access_size: CdfTable,
    pub(crate) categories: Vec<CompiledCategoryUsage>,
    pub(crate) inter_session_time: CdfTable,
    pub(crate) phases: Option<PhaseModel>,
    pub(crate) diurnal: Option<DiurnalProfile>,
}

impl CompiledUserType {
    /// The user type's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Mean think time recorded from the spec, µs.
    pub fn mean_think_time(&self) -> f64 {
        self.think_time.mean()
    }

    /// Mean access size recorded from the spec, bytes.
    pub fn mean_access_size(&self) -> f64 {
        self.access_size.mean()
    }

    /// Fresh behaviour state (phase chain at state 0) for one user.
    pub fn new_behavior(&self) -> BehaviorState {
        BehaviorState::default()
    }

    /// Samples the think time after one operation, stepping the phase chain
    /// if one is configured. Both drivers call this at the same point of
    /// the per-user RNG stream, so runs stay driver-independent.
    pub fn sample_think(&self, behavior: &mut BehaviorState, rng: &mut dyn RngCore) -> u64 {
        let base = self.think_time.sample(rng);
        let scale = match &self.phases {
            Some(model) => {
                let u = uniform01(rng);
                behavior.phase = model.step(behavior.phase as usize, u) as u32;
                model.scale(behavior.phase as usize)
            }
            None => 1.0,
        };
        (base * scale).round().max(0.0) as u64
    }

    /// Samples the logout→login gap at time `now_micros`, applying the
    /// diurnal profile if configured.
    pub fn sample_inter_session(&self, now_micros: u64, rng: &mut dyn RngCore) -> u64 {
        let base = self.inter_session_time.sample(rng);
        let factor = self
            .diurnal
            .as_ref()
            .map_or(1.0, |d| d.factor_at(now_micros));
        (base * factor).round().max(0.0) as u64
    }

    /// Expected file-access system calls per login session, estimated from
    /// the compiled tables' recorded means: per category, `pct_users ×
    /// mean_files × (bookkeeping calls + data calls)`, where data calls ≈
    /// `access_per_byte × mean_file_size / mean_access_size`. Used to
    /// pre-size usage logs; it is a capacity hint, not a guarantee.
    pub fn expected_ops_per_session(&self) -> f64 {
        // open + close + the occasional create/unlink/stat/seek per file.
        const BOOKKEEPING_OPS: f64 = 4.0;
        let access = self.access_size.mean().max(1.0);
        self.categories
            .iter()
            .map(|c| {
                let data_ops = (c.access_per_byte * c.file_size.mean().max(0.0) / access).ceil();
                c.pct_users * c.files.mean().max(0.0) * (BOOKKEEPING_OPS + data_ops)
            })
            .sum()
    }

    /// Total CDF-table bytes held by this type — the memory cost the paper
    /// flags in Section 4.2 ("the product of the number of user types,
    /// number of file types, and the number of sample values").
    pub fn table_memory_bytes(&self) -> usize {
        self.think_time.memory_bytes()
            + self.access_size.memory_bytes()
            + self.inter_session_time.memory_bytes()
            + self
                .categories
                .iter()
                .map(|c| c.file_size.memory_bytes() + c.files.memory_bytes())
                .sum::<usize>()
    }
}

/// A compiled population: types, fractions and user→type assignment.
#[derive(Debug, Clone)]
pub struct CompiledPopulation {
    types: Vec<CompiledUserType>,
    fractions: Vec<f64>,
}

impl CompiledPopulation {
    /// Compiles every distribution in `spec` to CDF tables with `resolution`
    /// sample points.
    ///
    /// # Errors
    ///
    /// Propagates distribution construction/tabulation errors.
    pub fn compile(spec: &PopulationSpec, resolution: usize) -> Result<Self, UsimError> {
        let mut types = Vec::with_capacity(spec.types().len());
        let mut fractions = Vec::with_capacity(spec.types().len());
        for (t, frac) in spec.types() {
            let mut categories = Vec::with_capacity(t.categories.len());
            for usage in &t.categories {
                categories.push(CompiledCategoryUsage {
                    category: usage.category,
                    access_per_byte: usage.access_per_byte,
                    file_size: CdfTable::from_distribution(&*usage.file_size.build()?, resolution)?,
                    files: CdfTable::from_distribution(&*usage.files.build()?, resolution)?,
                    pct_users: usage.pct_users,
                    access_pattern: usage.access_pattern,
                });
            }
            types.push(CompiledUserType {
                name: t.name.clone(),
                think_time: CdfTable::from_distribution(&*t.think_time.build()?, resolution)?,
                access_size: CdfTable::from_distribution(&*t.access_size.build()?, resolution)?,
                categories,
                inter_session_time: CdfTable::from_distribution(
                    &*t.inter_session_time.build()?,
                    resolution,
                )?,
                phases: t.phases.clone(),
                diurnal: t.diurnal.clone(),
            });
            fractions.push(*frac);
        }
        Ok(Self { types, fractions })
    }

    /// The compiled types.
    pub fn types(&self) -> &[CompiledUserType] {
        &self.types
    }

    /// Deterministic proportional assignment of users to type indices (see
    /// [`PopulationSpec::assign`]).
    pub fn assign(&self, n_users: usize) -> Vec<usize> {
        (0..n_users).map(|i| self.type_of(i, n_users)).collect()
    }

    /// The type index [`Self::assign`] gives user `i` of an `n_users`
    /// population — the same proportional split, evaluated per user in
    /// O(types). This is what the columnar user arenas call, so a
    /// million-user run never materializes the population-wide assignment
    /// vector.
    pub fn type_of(&self, i: usize, n_users: usize) -> usize {
        let target = (i as f64 + 0.5) / n_users as f64;
        let mut acc = 0.0;
        let mut chosen = self.types.len() - 1;
        for (idx, &frac) in self.fractions.iter().enumerate() {
            acc += frac;
            if target < acc + 1e-12 {
                chosen = idx;
                break;
            }
        }
        chosen
    }

    /// Fraction-weighted expected file-access calls per login session
    /// across the population: the O(types) log-capacity hint the DES
    /// driver pre-sizes with. The proportional assignment differs from the
    /// exact fractions only by per-type rounding, which a hint can ignore
    /// — evaluating the estimate per assigned user would cost
    /// O(users × categories).
    pub fn expected_ops_per_user_session(&self) -> f64 {
        self.types
            .iter()
            .zip(&self.fractions)
            .map(|(t, frac)| frac * t.expected_ops_per_session())
            .sum()
    }

    /// Total CDF-table memory across all types, bytes.
    pub fn table_memory_bytes(&self) -> usize {
        self.types.iter().map(|t| t.table_memory_bytes()).sum()
    }
}

pub(crate) fn uniform01(rng: &mut dyn RngCore) -> f64 {
    const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
    (rng.next_u64() >> 11) as f64 * SCALE
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CategoryUsage, UserTypeSpec};
    use uswg_distr::DistributionSpec;

    fn population() -> PopulationSpec {
        let t = UserTypeSpec::new(
            "heavy",
            DistributionSpec::exponential(5000.0),
            DistributionSpec::exponential(1024.0),
            vec![
                CategoryUsage::exponential(FileCategory::REG_USER_RDONLY, 1.42, 2608.0, 6.0, 1.0),
                CategoryUsage::exponential(FileCategory::REG_USER_TEMP, 2.0, 9233.0, 9.7, 0.59),
            ],
        );
        PopulationSpec::single(t).unwrap()
    }

    #[test]
    fn compiles_all_tables() {
        let pop = CompiledPopulation::compile(&population(), 256).unwrap();
        assert_eq!(pop.types().len(), 1);
        let t = &pop.types()[0];
        assert_eq!(t.name(), "heavy");
        assert_eq!(t.categories.len(), 2);
        assert!((t.mean_think_time() - 5000.0).abs() < 1e-9);
        assert!((t.mean_access_size() - 1024.0).abs() < 1e-9);
    }

    #[test]
    fn memory_scales_with_resolution() {
        let lo = CompiledPopulation::compile(&population(), 64).unwrap();
        let hi = CompiledPopulation::compile(&population(), 640).unwrap();
        // Near-linear in resolution; the degenerate constant inter-session
        // table (2 points at any resolution) keeps it just under 10×.
        assert!(hi.table_memory_bytes() > 9 * lo.table_memory_bytes());
        assert!(hi.table_memory_bytes() <= 10 * lo.table_memory_bytes());
    }

    #[test]
    fn assignment_matches_spec_assignment() {
        let spec = population();
        let compiled = CompiledPopulation::compile(&spec, 64).unwrap();
        assert_eq!(spec.assign(7), compiled.assign(7));
    }
}
