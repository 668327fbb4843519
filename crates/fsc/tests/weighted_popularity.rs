//! Weighted file popularity through the catalog's alias tables: chi-square
//! goodness-of-fit of empirical pick frequencies against the analytic
//! weights ([`FilePopularity::weights`]), plus the bit-identity guarantee
//! that the uniform policy remains the historical pick.

use rand::rngs::StdRng;
use rand::SeedableRng;
use uswg_fsc::{CatalogFile, FileCatalog, FileCategory, FilePopularity};

/// A shared-pool catalog with `sizes.len()` files of the given sizes.
fn catalog_with_sizes(sizes: &[u64]) -> FileCatalog {
    let mut catalog = FileCatalog::new();
    for (n, &size) in sizes.iter().enumerate() {
        let file = CatalogFile {
            ino: n as u64 + 1,
            size,
            category: FileCategory::REG_OTHER_RDONLY,
            owner_user: None,
        };
        catalog.add(&format!("/shared/f{n}"), file);
    }
    catalog
}

/// Pearson chi-square statistic of observed counts against the expected
/// proportions implied by `weights`.
fn chi_square(observed: &[u64], weights: &[f64], draws: u64) -> f64 {
    let sum: f64 = weights.iter().sum();
    observed
        .iter()
        .zip(weights)
        .map(|(&o, &w)| {
            let e = w / sum * draws as f64;
            (o as f64 - e) * (o as f64 - e) / e
        })
        .sum()
}

/// Draws `draws` picks and tallies them per candidate position.
fn tally(catalog: &FileCatalog, n: usize, draws: u64, seed: u64) -> Vec<u64> {
    let mut counts = vec![0u64; n];
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..draws {
        let idx = catalog
            .pick(0, FileCategory::REG_OTHER_RDONLY, &mut rng)
            .expect("candidates exist");
        counts[idx] += 1;
    }
    counts
}

const DRAWS: u64 = 200_000;
/// df = 7, α = 0.001 — deterministic seeds make each statistic a fixed
/// number, so this is a margin check, not a flaky significance test.
const CHI_CRIT_DF7_P001: f64 = 24.32;

#[test]
fn size_weighted_picks_fit_the_size_distribution() {
    // Table 5.1-flavoured sizes spanning three orders of magnitude.
    let sizes = [714u64, 779, 5_794, 11_164, 17_431, 12_431, 31_347, 18_771];
    let mut catalog = catalog_with_sizes(&sizes);
    catalog.seal_with(FilePopularity::SizeWeighted);
    assert!(catalog.is_sealed());

    let counts = tally(&catalog, sizes.len(), DRAWS, 0x517E);
    let weights = FilePopularity::SizeWeighted.weights(
        catalog.files(),
        catalog.candidates(0, FileCategory::REG_OTHER_RDONLY),
    );
    let expected: Vec<f64> = sizes.iter().map(|&s| s as f64).collect();
    assert_eq!(weights, expected, "analytic weights are the byte sizes");
    let chi = chi_square(&counts, &weights, DRAWS);
    assert!(
        chi < CHI_CRIT_DF7_P001,
        "size-weighted picks diverge from the sizes: chi2 = {chi:.2}"
    );
    // Big files must actually dominate: the largest file draws more than
    // the two smallest combined by an order of magnitude.
    assert!(counts[6] > 10 * (counts[0] + counts[1]));
}

#[test]
fn zipf_picks_fit_the_analytic_zipf_weights() {
    let sizes = [100u64; 8]; // equal sizes: the skew comes from rank alone
    let mut catalog = catalog_with_sizes(&sizes);
    let policy = FilePopularity::Zipf { exponent: 1.0 };
    catalog.seal_with(policy);

    let counts = tally(&catalog, sizes.len(), DRAWS, 0x21BF);
    let weights = policy.weights(
        catalog.files(),
        catalog.candidates(0, FileCategory::REG_OTHER_RDONLY),
    );
    for (r, w) in weights.iter().enumerate() {
        assert!((w - 1.0 / (r as f64 + 1.0)).abs() < 1e-12);
    }
    let chi = chi_square(&counts, &weights, DRAWS);
    assert!(
        chi < CHI_CRIT_DF7_P001,
        "zipf picks diverge from 1/(r+1): chi2 = {chi:.2}"
    );
    // Monotone popularity by rank.
    for w in counts.windows(2) {
        assert!(w[0] > w[1], "zipf counts must fall with rank: {counts:?}");
    }
}

#[test]
fn uniform_seal_with_is_bit_identical_to_seal_and_modulo() {
    let sizes = [10u64, 20, 30, 40, 50];
    let mut uniform = catalog_with_sizes(&sizes);
    uniform.seal_with(FilePopularity::Uniform);
    let mut plain = catalog_with_sizes(&sizes);
    plain.seal();
    let unsealed = catalog_with_sizes(&sizes);

    let mut a = StdRng::seed_from_u64(99);
    let mut b = StdRng::seed_from_u64(99);
    let mut c = StdRng::seed_from_u64(99);
    for _ in 0..2_000 {
        let via_uniform = uniform.pick(0, FileCategory::REG_OTHER_RDONLY, &mut a);
        let via_seal = plain.pick(0, FileCategory::REG_OTHER_RDONLY, &mut b);
        let via_modulo = unsealed.pick(0, FileCategory::REG_OTHER_RDONLY, &mut c);
        assert_eq!(via_uniform, via_seal);
        assert_eq!(via_uniform, via_modulo);
    }
}

#[test]
fn zero_size_files_stay_reachable_under_size_weighting() {
    let mut catalog = catalog_with_sizes(&[0, 1_000]);
    catalog.seal_with(FilePopularity::SizeWeighted);
    let counts = tally(&catalog, 2, 100_000, 7);
    // The zero-size file keeps weight 1 against 1000: ~100 expected hits —
    // rare, but never starved outright.
    assert!(counts[0] > 0, "zero-size file starved: {counts:?}");
    assert!(counts[1] > counts[0] * 100);
}

#[test]
fn per_user_lists_honour_the_policy_too() {
    let mut catalog = FileCatalog::new();
    for (n, size) in [(0usize, 10u64), (1, 1_000)] {
        let file = CatalogFile {
            ino: n as u64 + 1,
            size,
            category: FileCategory::REG_USER_RDONLY,
            owner_user: Some(0),
        };
        catalog.add(&format!("/u0/f{n}"), file);
    }
    catalog.seal_with(FilePopularity::SizeWeighted);
    let mut rng = StdRng::seed_from_u64(11);
    let mut counts = [0u64; 2];
    for _ in 0..50_000 {
        let idx = catalog
            .pick(0, FileCategory::REG_USER_RDONLY, &mut rng)
            .unwrap();
        counts[idx] += 1;
    }
    // 100:1 weights → the big file dominates (99.0% expected).
    assert!(counts[1] > 40 * counts[0], "{counts:?}");
}
