//! State-equivalence oracle for [`FileSystemCreator::build`].
//!
//! The builder creates every object by name inside a directory inode it
//! holds. The reference below is the population sequence written the plain
//! way — one absolute path per object, resolved from `/` by every call — and
//! the property is that nobody downstream can tell the two apart: the same
//! tree (names, inode numbers, kinds, sizes, link counts, timestamps), the
//! same `statfs`, the same catalog, the same candidate lists, and the same
//! picks from the same PRNG stream under every popularity policy.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use uswg_distr::DistributionSpec;
use uswg_fsc::{
    CatalogFile, CategorySpec, FileCatalog, FileCategory, FilePopularity, FileSystemCreator,
    FileType, FillPattern, FscSpec, Owner,
};
use uswg_vfs::{Metadata, Vfs, VfsConfig};

/// The by-path population sequence.
fn reference_build(spec: &FscSpec, vfs: &mut Vfs, n_users: usize, rng: &mut StdRng) -> FileCatalog {
    let mut catalog = FileCatalog::new();
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
    catalog.seal_with(spec.popularity);
    catalog
}

fn reference_populate(
    spec: &FscSpec,
    vfs: &mut Vfs,
    rng: &mut StdRng,
    catalog: &mut FileCatalog,
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
            match (c.category.file_type, spec.fill) {
                (FileType::Dir, _) => vfs.mkdir_all(&path).unwrap(),
                (_, FillPattern::Sparse) => {
                    vfs.write_file(&path, &[]).unwrap();
                    vfs.truncate(&path, size).unwrap();
                }
                (_, FillPattern::Pattern) => {
                    let data: Vec<u8> = (0..size).map(|i| (i % 8192 % 251) as u8).collect();
                    vfs.write_file(&path, &data).unwrap();
                }
            }
            let file = CatalogFile {
                ino: vfs.resolve(&path).unwrap().number(),
                size,
                category: c.category,
                owner_user,
            };
            catalog.add(&path, file);
        }
    }
}

/// Every object under `dir`, depth first in name order: path, metadata, and
/// the contents of regular files.
fn walk(vfs: &mut Vfs, dir: &str, out: &mut Vec<(String, Metadata, Vec<u8>)>) {
    for entry in vfs.readdir(dir).unwrap() {
        let path = format!("{}/{}", dir.trim_end_matches('/'), entry.name);
        let meta = vfs.stat(&path).unwrap();
        assert_eq!((meta.ino, meta.kind), (entry.ino, entry.kind), "{path}");
        if meta.is_dir() {
            out.push((path.clone(), meta, Vec::new()));
            walk(vfs, &path, out);
        } else {
            let data = vfs.read_file(&path).unwrap();
            out.push((path, meta, data));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn by_handle_build_is_indistinguishable_from_the_by_path_sequence(
        n_users in 1usize..=40,
        files_per_user in 1u64..=12,
        shared_files in 1u64..=40,
        seed in 0u64..1_000_000,
        sparse in any::<bool>(),
        preexisting_home in any::<bool>(),
    ) {
        let fill = if sparse { FillPattern::Sparse } else { FillPattern::Pattern };
        let spec = spec(files_per_user, shared_files, fill);
        let fresh = || {
            let mut vfs = Vfs::new(VfsConfig::default());
            vfs.set_clock(7);
            if preexisting_home {
                vfs.mkdir_all("/u/user000").unwrap();
            }
            vfs.set_clock(42);
            vfs
        };

        let (mut vfs, mut rng) = (fresh(), StdRng::seed_from_u64(seed));
        let mut built = FileSystemCreator::new(spec.clone())
            .build(&mut vfs, n_users, &mut rng)
            .unwrap();
        let (mut ref_vfs, mut ref_rng) = (fresh(), StdRng::seed_from_u64(seed));
        let mut reference = reference_build(&spec, &mut ref_vfs, n_users, &mut ref_rng);
        prop_assert_eq!(rng.next_u64(), ref_rng.next_u64(), "size draws diverged");

        let (mut tree, mut ref_tree) = (Vec::new(), Vec::new());
        walk(&mut vfs, "/", &mut tree);
        walk(&mut ref_vfs, "/", &mut ref_tree);
        prop_assert_eq!(tree, ref_tree);
        prop_assert_eq!(vfs.stat("/").unwrap(), ref_vfs.stat("/").unwrap());
        prop_assert_eq!(vfs.statfs(), ref_vfs.statfs());

        prop_assert!(built.is_sealed());
        prop_assert_eq!(built.files(), reference.files());
        for idx in 0..built.len() {
            prop_assert_eq!(built.path(idx), reference.path(idx));
        }
        for policy in [
            FilePopularity::Uniform,
            FilePopularity::SizeWeighted,
            FilePopularity::Zipf { exponent: 1.1 },
        ] {
            built.seal_with(policy);
            reference.seal_with(policy);
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            for user in 0..n_users {
                for category in FileCategory::TABLE_5_1 {
                    prop_assert_eq!(
                        built.candidates(user, category),
                        reference.candidates(user, category)
                    );
                    for _ in 0..1_000 {
                        prop_assert_eq!(
                            built.pick(user, category, &mut a),
                            reference.pick(user, category, &mut b)
                        );
                    }
                }
            }
            prop_assert_eq!(a.next_u64(), b.next_u64(), "picks consumed different streams");
        }
    }
}

#[test]
fn a_file_where_a_home_should_be_is_not_a_directory() {
    let mut vfs = Vfs::new(VfsConfig::default());
    vfs.mkdir_all("/u").unwrap();
    vfs.write_file("/u/user001", b"in the way").unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let err = FileSystemCreator::new(spec(2, 2, FillPattern::Sparse))
        .build(&mut vfs, 3, &mut rng)
        .unwrap_err();
    assert_eq!(
        err,
        uswg_fsc::FscError::FileSystem(uswg_vfs::FsError::NotADirectory)
    );
}
