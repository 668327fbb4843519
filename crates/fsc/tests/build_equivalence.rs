//! State-equivalence oracle for [`FileSystemCreator::build`] and the homes
//! it reserves.
//!
//! The builder creates the shared objects by name inside a directory inode
//! it holds, and reserves every user's home, built later at its reserved
//! numbers. The reference below is the population sequence written the
//! plain way, every home at once — one absolute path per object, resolved
//! from `/` by every call, a filled file one `write` of its size — and the
//! property is that nobody downstream can tell the two apart: the same
//! `statfs` and block counts before any home is built, and once every home
//! is built, in any order, the same tree (names, inode numbers, kinds,
//! sizes, link counts, timestamps, held blocks), the same catalog, the same
//! candidate lists, and the same picks from the same PRNG stream under
//! every popularity policy. A home dropped unwritten and built again is
//! the home it was. The
//! reference's catalog is stored the naive way: every path and record
//! written out, a candidate list filtered from them, a pick drawn over it.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use uswg_distr::DistributionSpec;
use uswg_fsc::{
    AliasTable, CatalogFile, CategorySpec, FileCatalog, FileCategory, FilePopularity,
    FileSystemCreator, FileType, FillPattern, FscError, FscSpec, Owner,
};
use uswg_vfs::{Metadata, Vfs, VfsConfig};

/// Every file the reference created: its path and record.
type StoredCatalog = Vec<(String, CatalogFile)>;

/// The files of `category` that `user` draws from, in creation order.
fn candidates(files: &StoredCatalog, user: usize, category: FileCategory) -> Vec<usize> {
    let owner = (category.owner == Owner::User).then_some(user as u32);
    let listed = |file: &CatalogFile| (file.owner_user, file.category) == (owner, category);
    (0..files.len())
        .filter(|&idx| listed(&files[idx].1))
        .collect()
}

/// A pick from `list`: the modulo draw when `table` is `None`.
fn pick(list: &[usize], table: Option<&AliasTable>, rng: &mut StdRng) -> Option<usize> {
    let at = match table {
        _ if list.is_empty() => return None,
        None => (rng.next_u64() % list.len() as u64) as usize,
        Some(table) => table.draw(rng),
    };
    Some(list[at])
}

/// The by-path population sequence.
fn reference_build(
    spec: &FscSpec,
    vfs: &mut Vfs,
    n_users: usize,
    rng: &mut StdRng,
) -> StoredCatalog {
    let mut catalog = StoredCatalog::new();
    for dir in ["/system", "/notes", "/u", "/tmp"] {
        vfs.mkdir_all(dir).unwrap();
    }
    reference_populate(spec, vfs, rng, &mut catalog, spec.shared_files, None);
    for user in 0..n_users {
        vfs.mkdir_all(&FileSystemCreator::user_dir(user)).unwrap();
        vfs.mkdir_all(&FileSystemCreator::scratch_dir(user))
            .unwrap();
        reference_populate(
            spec,
            vfs,
            rng,
            &mut catalog,
            spec.files_per_user,
            Some(user),
        );
    }
    catalog
}

fn reference_populate(
    spec: &FscSpec,
    vfs: &mut Vfs,
    rng: &mut StdRng,
    catalog: &mut StoredCatalog,
    total: u64,
    owner_user: Option<usize>,
) {
    let owner = owner_user.map_or(Owner::Other, |_| Owner::User);
    let mine = |c: &&CategorySpec| c.category.owner == owner && c.category.preexisting();
    let frac_sum: f64 = spec
        .categories
        .iter()
        .filter(mine)
        .map(|c| c.fraction)
        .sum();
    if frac_sum <= 0.0 || total == 0 {
        return;
    }
    for c in spec.categories.iter().filter(mine) {
        let count = ((c.fraction / frac_sum) * total as f64).round().max(1.0) as u64;
        let dist = c.size.build().unwrap();
        for seq in 0..count {
            let size = dist.sample(rng).round().max(0.0) as u64;
            let (stem, root) = match (c.category.file_type, owner_user) {
                (FileType::Notes, _) => ("note", "/notes".to_string()),
                (FileType::Dir, Some(user)) => ("dir", FileSystemCreator::user_dir(user)),
                (FileType::Reg, Some(user)) => ("file", FileSystemCreator::user_dir(user)),
                (FileType::Dir, None) => ("dir", "/system".to_string()),
                (FileType::Reg, None) => ("file", "/system".to_string()),
            };
            let path = format!("{root}/{stem}{:05}_{seq:04}", catalog.len());
            let mut proc = vfs.new_process();
            match (c.category.file_type, spec.fill) {
                (FileType::Dir, _) => vfs.mkdir_all(&path).unwrap(),
                (_, FillPattern::Sparse) => {
                    vfs.write_file(&mut proc, &path, 0).unwrap();
                    vfs.truncate(&path, size).unwrap();
                }
                (_, FillPattern::Pattern) => {
                    vfs.write_file(&mut proc, &path, size as usize).unwrap()
                }
            }
            let file = CatalogFile {
                ino: vfs.resolve(&path).unwrap().number(),
                size,
                category: c.category,
                owner_user: owner_user.map(|user| user as u32),
            };
            catalog.push((path, file));
        }
    }
}

/// Every object under `dir`, depth first in name order: path, metadata, and
/// the indices of the blocks it holds.
fn walk(vfs: &mut Vfs, dir: &str, out: &mut Vec<(String, Metadata, Vec<u64>)>) {
    for entry in vfs.readdir(dir).unwrap() {
        let path = format!("{}/{}", dir.trim_end_matches('/'), entry.name);
        let meta = vfs.stat(&path).unwrap();
        assert_eq!((meta.ino, meta.kind), (entry.ino, entry.kind), "{path}");
        let blocks = vfs.block_indices(meta.ino).to_vec();
        assert_eq!(blocks.len() as u64, meta.blocks, "{path}");
        out.push((path.clone(), meta, blocks));
        if meta.is_dir() {
            walk(vfs, &path, out);
        }
    }
}

/// Every file type on both sides of the ownership split, plus two
/// categories users create at run time (never materialized).
fn spec(files_per_user: u64, shared_files: u64, fill: FillPattern) -> FscSpec {
    let sized = |category, fraction, mean| {
        CategorySpec::new(category, fraction, DistributionSpec::exponential(mean))
    };
    FscSpec::new(vec![
        sized(FileCategory::DIR_USER_RDONLY, 0.10, 700.0),
        sized(FileCategory::DIR_OTHER_RDONLY, 0.05, 800.0),
        sized(FileCategory::REG_USER_RDONLY, 0.20, 5_000.0),
        sized(FileCategory::REG_USER_NEW, 0.05, 11_000.0),
        sized(FileCategory::REG_USER_RDWRT, 0.15, 9_000.0),
        sized(FileCategory::REG_USER_TEMP, 0.05, 12_000.0),
        sized(FileCategory::REG_OTHER_RDONLY, 0.20, 20_000.0),
        sized(FileCategory::REG_OTHER_RDWRT, 0.10, 4_000.0),
        sized(FileCategory::NOTES_OTHER_RDONLY, 0.10, 3_000.0),
    ])
    .unwrap()
    .with_files_per_user(files_per_user)
    .unwrap()
    .with_shared_files(shared_files)
    .unwrap()
    .with_fill(fill)
}

/// The creator's build and the reference's, from the same seed, into file
/// systems that already hold `/u` and `/system` when `preexisting_layout`
/// (made at another clock than the build's).
fn both(
    spec: &FscSpec,
    n_users: usize,
    seed: u64,
    preexisting_layout: bool,
) -> (Vfs, FileCatalog, Vfs, StoredCatalog) {
    let fresh = || {
        let mut vfs = Vfs::new(VfsConfig::default());
        vfs.set_clock(7);
        if preexisting_layout {
            vfs.mkdir_all("/u").unwrap();
            vfs.mkdir_all("/system").unwrap();
        }
        vfs.set_clock(42);
        vfs
    };
    let (mut vfs, mut rng) = (fresh(), StdRng::seed_from_u64(seed));
    let built = FileSystemCreator::new(spec.clone())
        .build(&mut vfs, n_users, &mut rng)
        .unwrap();
    let (mut ref_vfs, mut ref_rng) = (fresh(), StdRng::seed_from_u64(seed));
    let reference = reference_build(spec, &mut ref_vfs, n_users, &mut ref_rng);
    assert_eq!(rng.next_u64(), ref_rng.next_u64(), "size draws diverged");
    (vfs, built, ref_vfs, reference)
}

/// The whole tree of `vfs`.
fn tree(vfs: &mut Vfs) -> Vec<(String, Metadata, Vec<u64>)> {
    let mut out = Vec::new();
    walk(vfs, "/", &mut out);
    out
}

/// The fill `sparse` says.
fn fill(sparse: bool) -> FillPattern {
    if sparse {
        FillPattern::Sparse
    } else {
        FillPattern::Pattern
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn by_handle_build_is_indistinguishable_from_the_by_path_sequence(
        n_users in 1usize..=40,
        files_per_user in 1u64..=12,
        shared_files in 1u64..=40,
        seed in 0u64..1_000_000,
        sparse in any::<bool>(),
        preexisting_layout in any::<bool>(),
    ) {
        let spec = spec(files_per_user, shared_files, fill(sparse));
        let (mut vfs, mut built, mut ref_vfs, reference) =
            both(&spec, n_users, seed, preexisting_layout);
        // Before any home is built, the counts read as if every one were.
        prop_assert_eq!(vfs.statfs(), ref_vfs.statfs());
        prop_assert_eq!(vfs.block_stats(), ref_vfs.block_stats());

        // Built in any order, at any later time, the homes make the
        // reference tree exactly.
        let mut order: Vec<usize> = (0..n_users).collect();
        let mut shuffle = StdRng::seed_from_u64(seed ^ 0x5EED);
        for i in (1..order.len()).rev() {
            order.swap(i, (shuffle.next_u64() % (i as u64 + 1)) as usize);
        }
        for user in order {
            vfs.set_clock(100 + user as u64);
            built.build_home(&mut vfs, user).unwrap();
        }
        vfs.set_clock(42);
        prop_assert_eq!(tree(&mut vfs), tree(&mut ref_vfs));
        prop_assert_eq!(vfs.stat("/").unwrap(), ref_vfs.stat("/").unwrap());
        prop_assert_eq!(vfs.statfs(), ref_vfs.statfs());
        prop_assert_eq!(vfs.block_stats(), ref_vfs.block_stats());

        prop_assert!(built.is_sealed());
        prop_assert_eq!(built.len(), reference.len());
        for (idx, (path, file)) in reference.iter().enumerate() {
            prop_assert_eq!(&built.file(idx), file);
            prop_assert_eq!(&built.path(idx), path);
        }
        for policy in [
            FilePopularity::Uniform,
            FilePopularity::SizeWeighted,
            FilePopularity::Zipf { exponent: 1.1 },
        ] {
            built.seal_with(policy);
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            for user in 0..n_users {
                for category in FileCategory::TABLE_5_1 {
                    let list = candidates(&reference, user, category);
                    prop_assert_eq!(built.candidates(user, category).collect::<Vec<_>>(), &list[..]);
                    let sizes = list.iter().map(|&idx| reference[idx].1.size);
                    let table = (policy != FilePopularity::Uniform && !list.is_empty())
                        .then(|| AliasTable::new(&policy.weights(sizes)).unwrap());
                    for _ in 0..1_000 {
                        prop_assert_eq!(
                            built.pick(user, category, &mut a),
                            pick(&list, table.as_ref(), &mut b)
                        );
                    }
                }
            }
            prop_assert_eq!(a.next_u64(), b.next_u64(), "picks consumed different streams");
        }
    }

    #[test]
    fn a_home_dropped_unwritten_is_built_again_identical(
        n_users in 1usize..=12,
        files_per_user in 1u64..=12,
        seed in 0u64..1_000_000,
        sparse in any::<bool>(),
    ) {
        let spec = spec(files_per_user, 5, fill(sparse));
        let (mut vfs, built, mut ref_vfs, _) = both(&spec, n_users, seed, false);
        (0..n_users).try_for_each(|user| built.build_home(&mut vfs, user)).unwrap();
        let user = seed as usize % n_users;
        let (counts, blocks) = (vfs.statfs(), vfs.block_stats());
        built.drop_home(&mut vfs, user);
        prop_assert!(!vfs.home_built(user));
        prop_assert!(!vfs.exists(&FileSystemCreator::user_dir(user)));
        prop_assert!(!vfs.exists(&FileSystemCreator::scratch_dir(user)));
        prop_assert_eq!((vfs.statfs(), vfs.block_stats()), (counts, blocks), "the drop counts as nothing");
        vfs.set_clock(1_000);
        built.build_home(&mut vfs, user).unwrap();
        vfs.set_clock(42);
        prop_assert_eq!(tree(&mut vfs), tree(&mut ref_vfs));
        prop_assert_eq!((vfs.statfs(), vfs.block_stats()), (counts, blocks));
    }
}

#[test]
fn a_file_where_a_home_should_be_is_not_a_directory() {
    // Homes are built at the numbers reserved for them, which are an
    // eager build's only on a fresh table: a file system that holds
    // something where homes go, or hands out freed numbers, is refused
    // before anything is built.
    let mut vfs = Vfs::new(VfsConfig::default());
    vfs.mkdir_all("/u").unwrap();
    let mut proc = vfs.new_process();
    vfs.write_file(&mut proc, "/u/user001", 10).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let creator = FileSystemCreator::new(spec(2, 2, FillPattern::Sparse));
    let err = creator.build(&mut vfs, 3, &mut rng).unwrap_err();
    assert_eq!(err, FscError::NotFresh { freed: 0, homes: 1 });
    assert!(err.to_string().contains("holds 1 homes"), "{err}");
    assert!(!vfs.exists("/system"), "nothing was built");

    vfs.unlink("/u/user001").unwrap();
    let err = creator.build(&mut vfs, 3, &mut rng).unwrap_err();
    assert_eq!(err, FscError::NotFresh { freed: 1, homes: 0 });

    // A second build into a built file system is the same error.
    let mut vfs = Vfs::new(VfsConfig::default());
    creator.build(&mut vfs, 3, &mut rng).unwrap();
    let err = creator.build(&mut vfs, 3, &mut rng).unwrap_err();
    assert_eq!(err, FscError::NotFresh { freed: 0, homes: 3 });
}
