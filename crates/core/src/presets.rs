//! The paper's published parameters: Tables 5.1, 5.2 and 5.4, the Figure
//! 5.1/5.2 example mixtures, and the default access-size / think-time
//! assumptions of Section 5.1.
//!
//! The underlying measurements come from the \[DI86\]/\[Dev88\] trace studies
//! the paper builds on; only means were published, so — exactly like the
//! paper — every measure defaults to an exponential distribution with the
//! published mean.
//!
//! One OCR note: Table 5.2's first "accesses" entry prints as `3128` in the
//! scanned thesis; every other entry in that column lies in `0.75–3.50`, so
//! it is read here as `3.128` (the decimal point was lost in scanning).

use uswg_distr::{DistributionSpec, MultiStageGamma, PhaseTypeExp};
use uswg_fsc::{CategorySpec, FileCategory, FscSpec};
use uswg_usim::{CategoryUsage, PopulationSpec, UserTypeSpec};

/// Mean access size per file I/O system call, bytes (Section 5.1: "we
/// assume they are exponentially distributed with a mean of 1024 bytes").
pub const ACCESS_SIZE_MEAN: f64 = 1024.0;

/// Think time of "extremely heavy I/O" users, µs (Table 5.4).
pub const THINK_EXTREMELY_HEAVY: f64 = 0.0;

/// Think time of "heavy I/O" users, µs (Table 5.4).
pub const THINK_HEAVY: f64 = 5_000.0;

/// Think time of "light I/O" users, µs (Table 5.4).
pub const THINK_LIGHT: f64 = 20_000.0;

/// Table 5.1 — file characterization by file category: `(category, mean
/// file size, percent of files)`.
pub const TABLE_5_1: [(FileCategory, f64, f64); 9] = [
    (FileCategory::DIR_USER_RDONLY, 714.0, 7.7),
    (FileCategory::DIR_OTHER_RDONLY, 779.0, 3.4),
    (FileCategory::REG_USER_RDONLY, 5_794.0, 21.8),
    (FileCategory::REG_USER_NEW, 11_164.0, 9.7),
    (FileCategory::REG_USER_RDWRT, 17_431.0, 4.6),
    (FileCategory::REG_USER_TEMP, 12_431.0, 38.2),
    (FileCategory::REG_OTHER_RDONLY, 31_347.0, 6.4),
    (FileCategory::REG_OTHER_RDWRT, 18_771.0, 3.2),
    (FileCategory::NOTES_OTHER_RDONLY, 15_072.0, 5.0),
];

/// Table 5.2 — user characterization by file category: `(category,
/// accesses-per-byte, mean file size, mean files, percent of users)`.
pub const TABLE_5_2: [(FileCategory, f64, f64, f64, f64); 9] = [
    (FileCategory::DIR_USER_RDONLY, 3.128, 808.0, 2.9, 69.0),
    (FileCategory::DIR_OTHER_RDONLY, 2.28, 1_198.0, 2.5, 70.0),
    (FileCategory::REG_USER_RDONLY, 1.42, 2_608.0, 6.0, 100.0),
    (FileCategory::REG_USER_NEW, 2.36, 11_438.0, 4.0, 40.0),
    (FileCategory::REG_USER_RDWRT, 3.50, 19_860.0, 2.2, 46.0),
    (FileCategory::REG_USER_TEMP, 2.00, 9_233.0, 9.7, 59.0),
    (FileCategory::REG_OTHER_RDONLY, 0.75, 53_965.0, 11.3, 53.0),
    (FileCategory::REG_OTHER_RDWRT, 1.77, 20_383.0, 5.7, 38.0),
    (FileCategory::NOTES_OTHER_RDONLY, 2.11, 13_578.0, 3.1, 55.0),
];

/// The Table 5.1 file-system specification, with exponential size
/// distributions as assumed in Section 5.1.
///
/// # Errors
///
/// Never fails for the built-in constants; the `Result` mirrors
/// [`FscSpec::new`]'s validation.
pub fn table_5_1_fs_spec() -> Result<FscSpec, uswg_fsc::FscError> {
    let categories = TABLE_5_1
        .iter()
        .map(|&(category, mean_size, pct)| {
            CategorySpec::new(
                category,
                pct / 100.0,
                DistributionSpec::exponential(mean_size),
            )
        })
        .collect();
    FscSpec::new(categories)
}

/// The Table 5.2 category usages, with exponential distributions.
pub fn table_5_2_usages() -> Vec<CategoryUsage> {
    TABLE_5_2
        .iter()
        .map(|&(category, apb, mean_size, mean_files, pct)| {
            CategoryUsage::exponential(category, apb, mean_size, mean_files, pct / 100.0)
        })
        .collect()
}

/// A user type with the Table 5.2 usage profile and the given think time
/// (µs). Zero think time becomes a point mass, exactly Table 5.4's
/// "extremely heavy I/O" row; anything else is exponential.
pub(crate) fn user_type_with_think(name: &str, mean_think_us: f64) -> UserTypeSpec {
    user_type_with(name, mean_think_us, ACCESS_SIZE_MEAN)
}

/// A user type with the Table 5.2 usage profile, the given think time (µs)
/// and the given mean access size (bytes) — the knob Figure 5.12 sweeps.
pub fn user_type_with(name: &str, mean_think_us: f64, mean_access_bytes: f64) -> UserTypeSpec {
    let think = if mean_think_us <= 0.0 {
        DistributionSpec::constant(0.0)
    } else {
        DistributionSpec::exponential(mean_think_us)
    };
    UserTypeSpec::new(
        name,
        think,
        DistributionSpec::exponential(mean_access_bytes),
        table_5_2_usages(),
    )
}

/// The "extremely heavy I/O" user type (Table 5.4, think time 0).
pub fn extremely_heavy_user() -> UserTypeSpec {
    user_type_with_think("extremely heavy I/O", THINK_EXTREMELY_HEAVY)
}

/// The "heavy I/O" user type (Table 5.4, think time 5 000 µs).
pub fn heavy_user() -> UserTypeSpec {
    user_type_with_think("heavy I/O", THINK_HEAVY)
}

/// The "light I/O" user type (Table 5.4, think time 20 000 µs).
pub fn light_user() -> UserTypeSpec {
    user_type_with_think("light I/O", THINK_LIGHT)
}

/// A population mixing heavy and light users, `heavy_fraction` heavy — the
/// populations of Figures 5.7–5.11 (100%, 80%, 50%, 20%, 0% heavy).
///
/// # Errors
///
/// Mirrors [`PopulationSpec::new`] validation (never fails for fractions in
/// `[0, 1]`).
pub fn heavy_light_population(heavy_fraction: f64) -> Result<PopulationSpec, uswg_usim::UsimError> {
    if heavy_fraction >= 1.0 {
        PopulationSpec::single(heavy_user())
    } else if heavy_fraction <= 0.0 {
        PopulationSpec::single(light_user())
    } else {
        PopulationSpec::new(vec![
            (heavy_user(), heavy_fraction),
            (light_user(), 1.0 - heavy_fraction),
        ])
    }
}

/// The three phase-type exponential examples of Figure 5.1 (the middle
/// panel's parameters are partially illegible in the scan; the legible ones
/// are used and the reconstruction is noted in EXPERIMENTS.md).
///
/// # Errors
///
/// Never fails for the built-in constants.
pub fn figure_5_1_examples() -> Result<Vec<(String, PhaseTypeExp)>, uswg_distr::DistrError> {
    Ok(vec![
        (
            "f(x) = exp(22.1, x)".to_string(),
            PhaseTypeExp::new(vec![(1.0, 22.1, 0.0)])?,
        ),
        (
            "f(x) = 0.6 exp(15.3, x) + 0.4 exp(15.3, x-35)".to_string(),
            PhaseTypeExp::new(vec![(0.6, 15.3, 0.0), (0.4, 15.3, 35.0)])?,
        ),
        (
            "f(x) = 0.4 exp(12.7, x) + 0.3 exp(18.2, x-18) + 0.3 exp(15.0, x-40)".to_string(),
            PhaseTypeExp::new(vec![(0.4, 12.7, 0.0), (0.3, 18.2, 18.0), (0.3, 15.0, 40.0)])?,
        ),
    ])
}

/// The three multi-stage gamma examples of Figure 5.2 (same reconstruction
/// caveat as [`figure_5_1_examples`]).
///
/// # Errors
///
/// Never fails for the built-in constants.
pub fn figure_5_2_examples() -> Result<Vec<(String, MultiStageGamma)>, uswg_distr::DistrError> {
    Ok(vec![
        (
            "f(x) = g(2.0, 14.0, x)".to_string(),
            MultiStageGamma::single(2.0, 14.0, 0.0)?,
        ),
        (
            "f(x) = g(1.5, 25.4, x-12)".to_string(),
            MultiStageGamma::single(1.5, 25.4, 12.0)?,
        ),
        (
            "f(x) = 0.7 g(1.3, 12.3, x) + 0.2 g(1.5, 12.4, x-23) + 0.1 g(1.4, 12.3, x-41)"
                .to_string(),
            MultiStageGamma::new(vec![
                (0.7, 1.3, 12.3, 0.0),
                (0.2, 1.5, 12.4, 23.0),
                (0.1, 1.4, 12.3, 41.0),
            ])?,
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use uswg_distr::Distribution;

    #[test]
    fn table_5_1_fractions_sum_to_one() {
        let total: f64 = TABLE_5_1.iter().map(|&(_, _, pct)| pct).sum();
        assert!((total - 100.0).abs() < 1e-9, "total = {total}");
        assert!(table_5_1_fs_spec().is_ok());
    }

    #[test]
    fn table_5_2_has_all_nine_categories() {
        let usages = table_5_2_usages();
        assert_eq!(usages.len(), 9);
        let set: std::collections::HashSet<_> = usages.iter().map(|u| u.category).collect();
        assert_eq!(set.len(), 9);
        // Every REG/USER/RDONLY session accesses the category (100%).
        let rdonly = usages
            .iter()
            .find(|u| u.category == FileCategory::REG_USER_RDONLY)
            .unwrap();
        assert_eq!(rdonly.pct_users, 1.0);
    }

    #[test]
    fn user_types_differ_only_in_think_time() {
        let heavy = heavy_user();
        let light = light_user();
        assert_eq!(heavy.categories, light.categories);
        assert_ne!(heavy.think_time, light.think_time);
        assert!((heavy.think_time.mean().unwrap() - 5_000.0).abs() < 1e-9);
        assert!((light.think_time.mean().unwrap() - 20_000.0).abs() < 1e-9);
        assert_eq!(extremely_heavy_user().think_time.mean().unwrap(), 0.0);
    }

    #[test]
    fn populations_mix_correctly() {
        let p = heavy_light_population(0.8).unwrap();
        assert_eq!(p.types().len(), 2);
        assert_eq!(p.assign(5).iter().filter(|&&t| t == 0).count(), 4);
        assert_eq!(heavy_light_population(1.0).unwrap().types().len(), 1);
        assert_eq!(heavy_light_population(0.0).unwrap().types().len(), 1);
    }

    #[test]
    fn figure_examples_are_proper_densities() {
        for (label, d) in figure_5_1_examples().unwrap() {
            assert!(d.mean() > 0.0, "{label}");
            assert!((d.cdf(d.support_max()) - 1.0).abs() < 1e-6, "{label}");
        }
        for (label, d) in figure_5_2_examples().unwrap() {
            assert!(d.mean() > 0.0, "{label}");
            assert!((d.cdf(d.support_max()) - 1.0).abs() < 1e-6, "{label}");
        }
    }

    #[test]
    fn access_size_sweep_types() {
        let t = user_type_with("sweep", 0.0, 128.0);
        assert!((t.access_size.mean().unwrap() - 128.0).abs() < 1e-9);
    }
}
