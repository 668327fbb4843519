//! Property tests: the alias-table file-selection path is draw-for-draw
//! identical to the historical linear/modulo path, so sealing a catalog can
//! never change a seeded workload.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use uswg_fsc::{AliasTable, FileCatalog, FileCategory, FilePopularity, Owner};

/// The catalog of a build that made `runs` — `(category, count)`, shared
/// and per-user ones mixed — for three users, file `n` of size `100 + n`.
fn catalog(runs: &[(FileCategory, u32)]) -> FileCatalog {
    let side = |owner| {
        let mine = runs.iter().filter(|run| run.0.owner == owner);
        mine.copied().collect::<Vec<_>>()
    };
    let (shared, personal) = (side(Owner::Other), side(Owner::User));
    let count = |runs: &[(FileCategory, u32)]| runs.iter().map(|run| run.1).sum::<u32>();
    let files = count(&shared) + 3 * count(&personal);
    let sizes = (0..files).map(|n| 100 + u64::from(n)).collect();
    let inos = (0..count(&shared)).collect();
    FileCatalog::from_plan(&shared, &personal, 3, sizes, inos, files)
}

/// The categories a pick can target, mixing shared and per-user lists.
const CATS: [FileCategory; 4] = [
    FileCategory::REG_USER_RDONLY,
    FileCategory::REG_OTHER_RDONLY,
    FileCategory::NOTES_OTHER_RDONLY,
    FileCategory::DIR_USER_RDONLY,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satellite oracle: a sealed catalog (alias path) and an unsealed one
    /// (modulo path) pick identical files from the same PRNG stream, for
    /// any population shape and any pick sequence.
    #[test]
    fn sealed_and_unsealed_catalogs_pick_identically(
        per_cat in prop::collection::vec((0usize..4, 1usize..30), 1..12),
        picks in prop::collection::vec((0usize..3, 0usize..4), 1..200),
        seed in 0u64..1_000_000,
    ) {
        let runs: Vec<_> = per_cat.iter().map(|&(cat, count)| (CATS[cat], count as u32)).collect();
        let unsealed = catalog(&runs);
        let mut sealed = unsealed.clone();
        sealed.seal();
        prop_assert!(sealed.is_sealed());

        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        for &(user, cat_idx) in &picks {
            let cat = CATS[cat_idx];
            let a = sealed.pick(user, cat, &mut rng_a);
            let b = unsealed.pick(user, cat, &mut rng_b);
            prop_assert_eq!(a, b, "sealed and unsealed picks diverged");
        }
        // Both consumed the same number of random words.
        prop_assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }

    /// The uniform alias draw is bit-identical to `u % n` for every size,
    /// not just the ones the catalog happens to produce.
    #[test]
    fn uniform_alias_matches_modulo_for_any_size(n in 1usize..5_000, seed in 0u64..1_000_000) {
        let table = AliasTable::uniform(n).unwrap();
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            prop_assert_eq!(table.draw(&mut a), (b.next_u64() % n as u64) as usize);
        }
    }

    /// Sealing again replaces the policy: a catalog sealed weighted and
    /// then uniform picks exactly as one never sealed, and never an index
    /// that does not exist.
    #[test]
    fn mutation_after_seal_stays_equivalent(
        initial in 2u32..20,
        exponent in 0.5f64..3.0,
        seed in 0u64..1_000_000,
    ) {
        let cat = FileCategory::REG_OTHER_RDONLY;
        let unsealed = catalog(&[(cat, initial)]);
        let mut sealed = unsealed.clone();
        sealed.seal_with(FilePopularity::Zipf { exponent });
        sealed.seal_with(FilePopularity::SizeWeighted);
        sealed.seal();
        prop_assert!(sealed.is_sealed());

        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let a = sealed.pick(0, cat, &mut rng_a);
            let b = unsealed.pick(0, cat, &mut rng_b);
            prop_assert_eq!(a, b);
            if let Some(idx) = a {
                prop_assert!(idx < initial as usize, "picked an index that never existed");
            }
        }
    }
}
