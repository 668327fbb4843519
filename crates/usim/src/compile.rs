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

/// Most user types a population, and most categories one type, compiles:
/// a user's type is a `u16` in the DES driver's user arena, and a scratch
/// file's category a `u16` in its task and its path.
pub(crate) const MAX_IDS: usize = 1 << 16;

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
    /// [`UsimError::TooLarge`], before any table is built, for more than
    /// 65,536 user types or more than 65,536 categories in one type;
    /// otherwise propagates distribution construction/tabulation errors.
    pub fn compile(spec: &PopulationSpec, resolution: usize) -> Result<Self, UsimError> {
        let widest = spec.types().iter().map(|(t, _)| t.categories.len()).max();
        let ids = [
            ("user types", spec.types().len()),
            ("categories per user type", widest.unwrap_or(0)),
        ];
        if let Some(&(name, value)) = ids.iter().find(|id| id.1 > MAX_IDS) {
            let max = MAX_IDS;
            return Err(UsimError::TooLarge { name, value, max });
        }
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

    /// The type index [`PopulationSpec::assign`] gives user `i` of an
    /// `n_users` population, evaluated per user in O(types): both drivers
    /// call it per user, so a million-user run never materializes the
    /// population-wide assignment vector.
    pub fn type_of(&self, i: usize, n_users: usize) -> usize {
        crate::spec::type_of(self.fractions.iter().copied(), i, n_users)
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
    fn user_types_and_categories_past_u16_ids_are_refused() {
        let spec = |types: usize, categories: usize| {
            let mut t = population().types()[0].0.clone();
            t.categories = vec![t.categories[0].clone(); categories];
            let spec = PopulationSpec::new(vec![(t, 1.0 / types as f64); types]).unwrap();
            CompiledPopulation::compile(&spec, 2).map(drop)
        };
        let refused = |name, value| {
            Err(UsimError::TooLarge {
                name,
                value,
                max: 65_536,
            })
        };
        assert_eq!((spec(65_536, 1), spec(1, 65_536)), (Ok(()), Ok(())));
        assert_eq!(spec(65_537, 1), refused("user types", 65_537));
        assert_eq!(spec(1, 65_537), refused("categories per user type", 65_537));
    }

    #[test]
    fn assignment_matches_spec_assignment() {
        let spec = population();
        let compiled = CompiledPopulation::compile(&spec, 64).unwrap();
        let per_user: Vec<usize> = (0..7).map(|i| compiled.type_of(i, 7)).collect();
        assert_eq!(spec.assign(7), per_user);
    }
}
