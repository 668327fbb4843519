//! Property tests: the alias-table file-selection path is draw-for-draw
//! identical to the historical linear/modulo path, so sealing a catalog can
//! never change a seeded workload.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use uswg_fsc::{AliasTable, CatalogFile, FileCatalog, FileCategory};

fn file(cat: FileCategory, user: Option<u32>, n: usize) -> CatalogFile {
    CatalogFile {
        ino: n as u64,
        size: 100 + n as u64,
        category: cat,
        owner_user: user,
    }
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
        let mut unsealed = FileCatalog::new();
        let mut n = 0usize;
        for &(cat_idx, count) in &per_cat {
            let cat = CATS[cat_idx];
            for _ in 0..count {
                let owner = match cat.owner {
                    uswg_fsc::Owner::User => Some(n as u32 % 3),
                    uswg_fsc::Owner::Other => None,
                };
                unsealed.add(&format!("/f{n}"), file(cat, owner, n));
                n += 1;
            }
        }
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

    /// Mutating a sealed catalog invalidates the touched list: picks remain
    /// correct (never a stale or out-of-range index) and still mirror the
    /// unsealed catalog.
    #[test]
    fn mutation_after_seal_stays_equivalent(
        initial in 2usize..20,
        removals in prop::collection::vec(0usize..20, 1..6),
        seed in 0u64..1_000_000,
    ) {
        let cat = FileCategory::REG_OTHER_RDONLY;
        let mut sealed = FileCatalog::new();
        for i in 0..initial {
            sealed.add(&format!("/f{i}"), file(cat, None, i));
        }
        let mut unsealed = sealed.clone();
        sealed.seal();
        for &r in &removals {
            sealed.remove(r % initial);
            unsealed.remove(r % initial);
        }
        // One list grew back after sealing, too.
        sealed.add(&format!("/f{initial}"), file(cat, None, initial));
        unsealed.add(&format!("/f{initial}"), file(cat, None, initial));

        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let a = sealed.pick(0, cat, &mut rng_a);
            let b = unsealed.pick(0, cat, &mut rng_b);
            prop_assert_eq!(a, b);
            if let Some(idx) = a {
                prop_assert!(idx <= initial, "picked an index that never existed");
            }
        }
    }
}
