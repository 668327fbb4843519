//! Model oracle for the catalog's plan arithmetic: random build plans —
//! shared and per-user runs of any category, a category named in several
//! runs, a run under an owner no lookup reaches — against the catalog as it
//! used to be stored: every file's record and path written out in creation
//! order, and a candidate list that is the files of its `(owner, category)`
//! in that order. `alias_equivalence` and `build_equivalence` compare the
//! catalog with itself and with the creator.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use uswg_fsc::{
    AliasTable, CatalogFile, FileCatalog, FileCategory, FilePopularity, FileType, Owner,
};

/// Both sides of the ownership split and every file type.
const CATS: [FileCategory; 5] = [
    FileCategory::REG_USER_RDONLY,
    FileCategory::REG_USER_TEMP,
    FileCategory::DIR_USER_RDONLY,
    FileCategory::REG_OTHER_RDONLY,
    FileCategory::NOTES_OTHER_RDONLY,
];
/// Lookups go to users 0–4; a plan has at most four.
const USERS: usize = 5;

/// Every file with its path, in creation order.
type Model = Vec<(CatalogFile, String)>;

/// The first inode number of the homes in every model.
const FIRST_HOME: u32 = 1_000;

fn model(shared: &[(FileCategory, u32)], personal: &[(FileCategory, u32)], users: u32) -> Model {
    let mut files = Model::new();
    let per_user: u32 = personal.iter().map(|run| run.1).sum();
    let owners = std::iter::once((None, shared)).chain((0..users).map(|u| (Some(u), personal)));
    for (owner_user, runs) in owners {
        for &(category, count) in runs {
            for seq in 0..count {
                let dir = match (category.file_type, owner_user) {
                    (FileType::Notes, _) => "/notes".to_string(),
                    (_, None) => "/system".to_string(),
                    (_, Some(user)) => format!("/u/user{user:03}"),
                };
                let stem = match category.file_type {
                    FileType::Dir => "dir",
                    FileType::Reg => "file",
                    FileType::Notes => "note",
                };
                let idx = files.len();
                // Shared files anywhere; a user's in its home's run, after
                // the home and scratch directories.
                let ino = match owner_user {
                    None => idx as u64 * 3 + 1,
                    Some(user) => {
                        let at = (idx - shared_files(shared)) as u64 % u64::from(per_user);
                        u64::from(FIRST_HOME + user * (2 + per_user)) + 2 + at
                    }
                };
                let file = CatalogFile {
                    ino,
                    size: (idx as u64 * 7919 % 64) * 100, // zero included
                    category,
                    owner_user,
                };
                files.push((file, format!("{dir}/{stem}{idx:05}_{seq:04}")));
            }
        }
    }
    files
}

fn shared_files(shared: &[(FileCategory, u32)]) -> usize {
    shared.iter().map(|run| run.1 as usize).sum()
}

fn candidates(model: &Model, user: usize, category: FileCategory) -> Vec<usize> {
    let owner = match category.owner {
        Owner::User => Some(user as u32),
        Owner::Other => None,
    };
    let listed = |file: &CatalogFile| (file.owner_user, file.category) == (owner, category);
    (0..model.len())
        .filter(|&idx| listed(&model[idx].0))
        .collect()
}

fn pick(model: &Model, policy: FilePopularity, list: &[usize], rng: &mut StdRng) -> Option<usize> {
    let sizes = list.iter().map(|&idx| model[idx].0.size);
    let at = match policy {
        _ if list.is_empty() => return None,
        FilePopularity::Uniform => (rng.next_u64() % list.len() as u64) as usize,
        _ => AliasTable::new(&policy.weights(sizes)).unwrap().draw(rng),
    };
    Some(list[at])
}

fn runs() -> impl Strategy<Value = Vec<(FileCategory, u32)>> {
    prop::collection::vec((0..CATS.len(), 0u32..4), 0..6)
        .prop_map(|runs| runs.into_iter().map(|(cat, n)| (CATS[cat], n)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flat_index_matches_the_per_owner_lists_it_replaced(
        shared in runs(),
        personal in runs(),
        users in 0u32..USERS as u32,
        seed in 0u64..1_000_000,
    ) {
        let model = model(&shared, &personal, users);
        let sizes = model.iter().map(|(file, _)| file.size).collect();
        let shared_inos = model[..shared_files(&shared)].iter();
        let inos = shared_inos.map(|(file, _)| file.ino as u32).collect();
        let mut catalog =
            FileCatalog::from_plan(&shared, &personal, users, sizes, inos, FIRST_HOME);
        prop_assert!(!catalog.is_sealed());
        prop_assert_eq!(catalog.len(), model.len());
        prop_assert!(catalog.files().eq(model.iter().map(|(file, _)| *file)));
        let mut path = String::from("stale");
        for (idx, (file, expected)) in model.iter().enumerate() {
            prop_assert_eq!(catalog.file(idx), *file);
            catalog.write_path(idx, &mut path);
            prop_assert_eq!(&path, expected);
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
                let listed: Vec<usize> = catalog.candidates(user, category).collect();
                prop_assert_eq!(&listed, &expected);
                for _ in 0..4 {
                    let picked = catalog.pick(user, category, &mut a);
                    prop_assert_eq!(picked, pick(&model, policy, &expected, &mut b));
                }
            }
            prop_assert_eq!(a.next_u64(), b.next_u64(), "picks consumed different streams");
        }
    }
}
