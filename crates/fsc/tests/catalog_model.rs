//! Model oracle for the catalog's flat index: random interleavings of `add`
//! (any owner, any category, so most arrive out of build order and take the
//! re-deriving path) and `remove`, against what the per-owner lists it
//! replaced held — they were pushed to and `retain`ed, so a list was the
//! live files of its `(owner, category)` in the order they were added.
//! `alias_equivalence` and `build_equivalence` compare the catalog with
//! itself, and only in build order.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use uswg_fsc::{AliasTable, CatalogFile, FileCatalog, FileCategory, FilePopularity, Owner};

/// Both sides of the ownership split. A file's owner is drawn independently
/// of its category, so some files sit under an owner no lookup reaches.
const CATS: [FileCategory; 5] = [
    FileCategory::REG_USER_RDONLY,
    FileCategory::REG_USER_TEMP,
    FileCategory::DIR_USER_RDONLY,
    FileCategory::REG_OTHER_RDONLY,
    FileCategory::NOTES_OTHER_RDONLY,
];
/// Users 0–3 own files; user 4 never does.
const USERS: usize = 5;

/// The files added so far, each with whether it has been removed.
type Model = Vec<(CatalogFile, bool)>;

fn candidates(model: &Model, user: usize, category: FileCategory) -> Vec<usize> {
    let owner = match category.owner {
        Owner::User => Some(user as u32),
        Owner::Other => None,
    };
    let listed = |(file, removed): &(CatalogFile, bool)| {
        !removed && (file.owner_user, file.category) == (owner, category)
    };
    (0..model.len())
        .filter(|&idx| listed(&model[idx]))
        .collect()
}

fn pick(model: &Model, policy: FilePopularity, list: &[usize], rng: &mut StdRng) -> Option<usize> {
    let files: Vec<CatalogFile> = model.iter().map(|(file, _)| *file).collect();
    let at = match policy {
        _ if list.is_empty() => return None,
        FilePopularity::Uniform => (rng.next_u64() % list.len() as u64) as usize,
        _ => AliasTable::new(&policy.weights(&files, list))
            .unwrap()
            .draw(rng),
    };
    Some(list[at])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flat_index_matches_the_per_owner_lists_it_replaced(
        // (remove when 0, owner slot, category, size or index to remove)
        steps in prop::collection::vec((0usize..5, 0..USERS, 0..CATS.len(), 0u64..64), 1..48),
        seed in 0u64..1_000_000,
    ) {
        let (mut catalog, mut model) = (FileCatalog::new(), Model::new());
        for &(op, owner, cat, n) in &steps {
            let idx = model.len();
            if op == 0 {
                let idx = n as usize % (idx + 1); // one past the end: a no-op
                catalog.remove(idx);
                if let Some((_, removed)) = model.get_mut(idx) {
                    *removed = true;
                }
            } else {
                let file = CatalogFile {
                    ino: idx as u64,
                    size: n * 100, // zero included: size-weighting keeps it reachable
                    category: CATS[cat],
                    owner_user: owner.checked_sub(1).map(|user| user as u32),
                };
                prop_assert_eq!(catalog.add(&format!("/o{owner}/f{idx}"), file), idx);
                prop_assert!(!catalog.is_sealed(), "a mutation unseals");
                model.push((file, false));
            }

            for (idx, (file, _)) in model.iter().enumerate() {
                prop_assert_eq!(catalog.file(idx), file);
                let owner = file.owner_user.map_or(0, |user| user + 1);
                prop_assert_eq!(catalog.path(idx), format!("/o{owner}/f{idx}"));
            }
            for policy in [
                FilePopularity::Uniform,
                FilePopularity::SizeWeighted,
                FilePopularity::Zipf { exponent: 1.1 },
            ] {
                catalog.seal_with(policy);
                prop_assert!(catalog.is_sealed());
                let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                for (user, category) in (0..USERS).flat_map(|u| CATS.map(|c| (u, c))) {
                    let expected = candidates(&model, user, category);
                    prop_assert_eq!(catalog.candidates(user, category), &expected[..]);
                    for _ in 0..4 {
                        let picked = catalog.pick(user, category, &mut a);
                        prop_assert_eq!(picked, pick(&model, policy, &expected, &mut b));
                    }
                }
                prop_assert_eq!(a.next_u64(), b.next_u64(), "picks consumed different streams");
            }
        }
    }
}
