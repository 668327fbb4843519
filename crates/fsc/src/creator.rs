//! The creator proper: specification validation and file-system population.

use crate::{CatalogFile, FileCatalog, FileCategory, FilePopularity, FileType, FscError, Owner};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use uswg_distr::{Distribution, DistributionSpec};
use uswg_vfs::{Fd, FsError, Ino, OpenFlags, Process, Vfs};

/// Tolerance when validating that category fractions sum to one.
const FRACTION_TOL: f64 = 1e-6;

/// One category's share of the file population and its size distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CategorySpec {
    /// The category being described.
    pub category: FileCategory,
    /// Fraction of all files belonging to this category (Table 5.1's
    /// "percent of files in category" / 100).
    pub fraction: f64,
    /// Distribution of file sizes within the category.
    pub size: DistributionSpec,
}

impl CategorySpec {
    /// Creates a category spec.
    pub fn new(category: FileCategory, fraction: f64, size: DistributionSpec) -> Self {
        Self {
            category,
            fraction,
            size,
        }
    }
}

/// How created files are filled with data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FillPattern {
    /// Write a deterministic byte pattern (real data blocks are allocated).
    #[default]
    Pattern,
    /// Set sizes with `truncate` only: files are holes and occupy no blocks.
    /// Reads return zeros; use for large simulated populations.
    Sparse,
}

/// The full FSC specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FscSpec {
    /// Per-category population shares and size distributions.
    pub categories: Vec<CategorySpec>,
    /// Total pre-existing files created per virtual user (spread over the
    /// user-owned categories by their fractions).
    pub files_per_user: u64,
    /// Total pre-existing shared files (spread over the `OTHER`-owned
    /// categories by their fractions).
    pub shared_files: u64,
    /// Data fill strategy.
    pub fill: FillPattern,
    /// How the User Simulator's per-reference file picks weight the
    /// candidates: the catalog is sealed with this policy at build time,
    /// so specs opt into `size_weighted` or `zipf` hot sets without any
    /// code. Defaults to uniform — the paper's model, bit-identical to the
    /// historical modulo pick — and a serialized spec without the field
    /// deserializes to uniform, so existing spec files are unchanged.
    #[serde(default)]
    pub popularity: FilePopularity,
}

impl FscSpec {
    /// Creates a spec with the default population counts (50 files per user,
    /// 120 shared files, pattern fill).
    ///
    /// # Errors
    ///
    /// Returns [`FscError::EmptySpec`] for an empty category list and
    /// [`FscError::BadFractions`] when fractions do not sum to one within
    /// `1e-6`.
    pub fn new(categories: Vec<CategorySpec>) -> Result<Self, FscError> {
        let spec = Self {
            categories,
            files_per_user: 50,
            shared_files: 120,
            fill: FillPattern::default(),
            popularity: FilePopularity::default(),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Builder-style override of the per-user file count.
    ///
    /// # Errors
    ///
    /// Returns [`FscError::BadCount`] when `n` is zero.
    pub fn with_files_per_user(mut self, n: u64) -> Result<Self, FscError> {
        if n == 0 {
            return Err(FscError::BadCount {
                name: "files_per_user",
                value: n,
            });
        }
        self.files_per_user = n;
        Ok(self)
    }

    /// Builder-style override of the shared file count.
    ///
    /// # Errors
    ///
    /// Returns [`FscError::BadCount`] when `n` is zero.
    pub fn with_shared_files(mut self, n: u64) -> Result<Self, FscError> {
        if n == 0 {
            return Err(FscError::BadCount {
                name: "shared_files",
                value: n,
            });
        }
        self.shared_files = n;
        Ok(self)
    }

    /// Builder-style override of the fill pattern.
    pub fn with_fill(mut self, fill: FillPattern) -> Self {
        self.fill = fill;
        self
    }

    /// Builder-style override of the file-popularity policy.
    pub fn with_popularity(mut self, popularity: FilePopularity) -> Self {
        self.popularity = popularity;
        self
    }

    fn validate(&self) -> Result<(), FscError> {
        if self.categories.is_empty() {
            return Err(FscError::EmptySpec);
        }
        let sum: f64 = self.categories.iter().map(|c| c.fraction).sum();
        if (sum - 1.0).abs() > FRACTION_TOL || self.categories.iter().any(|c| c.fraction < 0.0) {
            return Err(FscError::BadFractions { sum });
        }
        // The popularity policy arrives from untrusted spec files and is
        // fed straight into the alias-table construction at build time —
        // reject unusable parameters here, where they are an error, not a
        // panic.
        self.popularity.validate()
    }
}

/// Builds a synthetic file system from an [`FscSpec`].
///
/// Directory layout (Section 4.1.2): `/system` for shared files, `/notes`
/// for notesfiles, `/u/user<k>` per virtual user, plus `/tmp/user<k>`
/// scratch directories for the `TEMP`/`NEW` files users create while running.
#[derive(Debug, Clone)]
pub struct FileSystemCreator {
    spec: FscSpec,
}

impl FileSystemCreator {
    /// Wraps a validated specification.
    pub fn new(spec: FscSpec) -> Self {
        Self { spec }
    }

    /// The underlying specification.
    pub fn spec(&self) -> &FscSpec {
        &self.spec
    }

    /// The home directory path of virtual user `k`.
    pub fn user_dir(user: usize) -> String {
        format!("/u/user{user:03}")
    }

    /// The scratch directory path of virtual user `k`.
    pub fn scratch_dir(user: usize) -> String {
        format!("/tmp/user{user:03}")
    }

    /// Populates `vfs` for `n_users` virtual users and returns the catalog.
    ///
    /// Only *pre-existing* categories are materialized; `NEW` and `TEMP`
    /// files appear later when simulated users create them. "Note that many
    /// files are not referenced. For the file distributions, we only need to
    /// consider those files which were accessed during the measurement"
    /// (Section 4.1.2) — the population counts in the spec are therefore the
    /// *accessed* population, not a whole disk.
    ///
    /// Every object is created by name inside a directory inode the builder
    /// already holds, so the cost per object does not grow with the
    /// population. A `vfs` that already contains part of the layout is
    /// stepped into, as `mkdir -p` would.
    ///
    /// # Errors
    ///
    /// [`FscError::InodeDemand`] — before anything is created — when the
    /// population cannot fit in the inodes `vfs` has left (an upper bound:
    /// directories `vfs` already holds are counted again), and
    /// [`FscError::CatalogDemand`] when it has more files or path bytes
    /// than the catalog's `u32` offsets address; otherwise propagates
    /// validation, distribution and file-system errors.
    pub fn build(
        &self,
        vfs: &mut Vfs,
        n_users: usize,
        rng: &mut dyn RngCore,
    ) -> Result<FileCatalog, FscError> {
        self.spec.validate()?;
        if n_users == 0 {
            return Err(FscError::BadCount {
                name: "n_users",
                value: 0,
            });
        }
        let shared = self.plan(Owner::Other, self.spec.shared_files)?;
        let personal = self.plan(Owner::User, self.spec.files_per_user)?;
        let files = file_demand(n_users, &shared, &personal);
        check_inode_demand(vfs, n_users, files)?;
        check_catalog_demand(n_users, files)?;

        let root = vfs.root();
        let system = Dir::ensure(vfs, root, "/system")?;
        let notes = Dir::ensure(vfs, root, "/notes")?;
        let homes = Dir::ensure(vfs, root, "/u")?;
        let scratch = Dir::ensure(vfs, root, "/tmp")?;
        let mut build = Build {
            fill: self.spec.fill,
            proc: vfs.new_process(),
            vfs,
            rng,
            notes,
            catalog: FileCatalog::new(),
        };
        // Every catalog path is rendered here; its tail is the VFS name.
        let mut path = String::new();
        build.populate(&shared, &system, None, &mut path)?;
        for user in 0..n_users {
            let home_path = Self::user_dir(user);
            let home = Dir::ensure(build.vfs, homes.ino, &home_path)?;
            // The scratch directory carries the home's name (`scratch_dir`).
            build
                .vfs
                .ensure_dir_at(scratch.ino, last_component(&home_path))?;
            build.populate(&personal, &home, Some(user), &mut path)?;
        }
        // Seal with the spec's popularity policy so the pick weighting is
        // part of the declarative workload description. Uniform sealing is
        // bit-identical to the historical unsealed modulo pick
        // (property-tested in tests/alias_equivalence.rs), so default
        // specs reproduce every earlier run byte for byte.
        let mut catalog = build.catalog;
        catalog.seal_with(self.spec.popularity);
        Ok(catalog)
    }

    /// The pre-existing categories owned by `owner`, with `total` objects
    /// spread across them by renormalized fraction (at least one each).
    fn plan(&self, owner: Owner, total: u64) -> Result<Vec<PlannedCategory>, FscError> {
        let specs: Vec<&CategorySpec> = self
            .spec
            .categories
            .iter()
            .filter(|c| c.category.owner == owner && c.category.preexisting())
            .collect();
        let frac_sum: f64 = specs.iter().map(|c| c.fraction).sum();
        if frac_sum <= 0.0 || total == 0 {
            return Ok(Vec::new());
        }
        specs
            .into_iter()
            .map(|spec| {
                Ok(PlannedCategory {
                    category: spec.category,
                    count: ((spec.fraction / frac_sum) * total as f64).round().max(1.0) as u64,
                    size: spec.size.build()?,
                })
            })
            .collect()
    }
}

/// One pre-existing category as a build populates it: how many objects each
/// owner gets, and the size distribution, built once.
#[derive(Debug)]
struct PlannedCategory {
    category: FileCategory,
    count: u64,
    size: Box<dyn Distribution>,
}

/// A directory the builder holds: its inode and its absolute path.
#[derive(Debug)]
struct Dir<'a> {
    ino: Ino,
    path: &'a str,
}

impl<'a> Dir<'a> {
    /// Steps into (or creates) the last component of `path` inside `parent`.
    fn ensure(vfs: &mut Vfs, parent: Ino, path: &'a str) -> Result<Self, FscError> {
        let ino = vfs.ensure_dir_at(parent, last_component(path))?;
        Ok(Self { ino, path })
    }
}

fn last_component(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// What one `build` threads through every object it creates.
struct Build<'b> {
    fill: FillPattern,
    vfs: &'b mut Vfs,
    rng: &'b mut dyn RngCore,
    /// The descriptor table every file is created through.
    proc: Process,
    /// Notesfiles of every owner live here.
    notes: Dir<'static>,
    catalog: FileCatalog,
}

impl Build<'_> {
    /// Creates one owner's objects: notesfiles under `/notes`, everything
    /// else under `dir`.
    fn populate(
        &mut self,
        plan: &[PlannedCategory],
        dir: &Dir<'_>,
        owner_user: Option<usize>,
        path: &mut String,
    ) -> Result<(), FscError> {
        for planned in plan {
            let category = planned.category;
            let (stem, dir) = match category.file_type {
                FileType::Dir => ("dir", dir),
                FileType::Reg => ("file", dir),
                FileType::Notes => ("note", &self.notes),
            };
            let (dir_ino, dir_path) = (dir.ino, dir.path);
            for seq in 0..planned.count {
                let size = planned.size.sample(self.rng).round().max(0.0) as u64;
                let unique = self.catalog.len();
                path.clear();
                write!(path, "{dir_path}/{stem}{unique:05}_{seq:04}").expect("String write");
                let name = &path[dir_path.len() + 1..];
                let ino = match category.file_type {
                    FileType::Dir => self.vfs.ensure_dir_at(dir_ino, name)?,
                    FileType::Reg | FileType::Notes => self.create_file(dir_ino, name, size)?,
                };
                let file = CatalogFile {
                    ino: ino.number(),
                    // Directories have no byte size; record the sampled size
                    // anyway as the "directory data" the workload reads.
                    size,
                    category,
                    owner_user,
                };
                self.catalog.add(path, file);
            }
        }
        Ok(())
    }

    /// Creates (or replaces) regular file `name` in `dir` with `size` bytes
    /// of the spec's fill, and returns its inode.
    fn create_file(&mut self, dir: Ino, name: &str, size: u64) -> Result<Ino, FsError> {
        let (vfs, proc) = (&mut *self.vfs, &mut self.proc);
        let fd = vfs.open_at(proc, dir, name, OpenFlags::create_write())?;
        let ino = vfs.fstat(proc, fd)?.ino;
        let filled = match self.fill {
            FillPattern::Sparse => vfs.ftruncate(proc, fd, size),
            FillPattern::Pattern => write_pattern(vfs, proc, fd, size),
        };
        vfs.close(proc, fd)?;
        filled?;
        Ok(ino)
    }
}

/// Objects a build creates and catalogs: the shared ones, and the personal
/// ones of every user. `None` past `u64`.
fn file_demand(
    n_users: usize,
    shared: &[PlannedCategory],
    personal: &[PlannedCategory],
) -> Option<u64> {
    let objects = |plan: &[PlannedCategory]| {
        plan.iter()
            .try_fold(0u64, |sum, planned| sum.checked_add(planned.count))
    };
    objects(personal)?
        .checked_mul(n_users as u64)?
        .checked_add(objects(shared)?)
}

/// Fails unless `vfs` has inodes left for what a build allocates on a fresh
/// file system: the `files`, the four top-level directories, and per user a
/// home and a scratch directory.
fn check_inode_demand(vfs: &Vfs, n_users: usize, files: Option<u64>) -> Result<(), FscError> {
    let demand = files
        .zip((n_users as u64).checked_mul(2))
        .and_then(|(files, dirs)| files.checked_add(dirs)?.checked_add(4))
        .unwrap_or(u64::MAX);
    let stats = vfs.statfs();
    let available = stats.total_inodes.saturating_sub(stats.used_inodes);
    if demand > available {
        return Err(FscError::InodeDemand {
            demand,
            available,
            limit: stats.total_inodes,
        });
    }
    Ok(())
}

/// Fails unless the catalog's `u32` offsets can address the bytes of every
/// path (at a byte or more each, so the `files` as well), taking each as
/// the longest: in the last user's home, numbered as the last file, which
/// no sequence number exceeds either.
fn check_catalog_demand(n_users: usize, files: Option<u64>) -> Result<(), FscError> {
    let files = files.unwrap_or(u64::MAX);
    let home = FileSystemCreator::user_dir(n_users.saturating_sub(1));
    let longest = format!("{home}/file{files:05}_{files:04}").len() as u64;
    let path_bytes = files.saturating_mul(longest);
    if path_bytes > u64::from(u32::MAX) {
        return Err(FscError::CatalogDemand { files, path_bytes });
    }
    Ok(())
}

/// Writes `size` bytes of the deterministic fill pattern through `fd`,
/// stopping early if the device fills.
fn write_pattern(vfs: &mut Vfs, proc: &mut Process, fd: Fd, size: u64) -> Result<(), FsError> {
    static CHUNK: [u8; 8192] = {
        let mut chunk = [0; 8192];
        let mut i = 0;
        while i < chunk.len() {
            chunk[i] = (i % 251) as u8;
            i += 1;
        }
        chunk
    };
    let mut left = size as usize;
    while left > 0 {
        let written = vfs.write(proc, fd, &CHUNK[..left.min(CHUNK.len())])?;
        if written == 0 {
            break;
        }
        left -= written;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use uswg_vfs::VfsConfig;

    fn two_category_spec() -> FscSpec {
        FscSpec::new(vec![
            CategorySpec::new(
                FileCategory::REG_USER_RDONLY,
                0.5,
                DistributionSpec::exponential(4096.0),
            ),
            CategorySpec::new(
                FileCategory::REG_OTHER_RDONLY,
                0.5,
                DistributionSpec::exponential(8192.0),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn validation_rejects_bad_specs() {
        assert!(matches!(FscSpec::new(vec![]), Err(FscError::EmptySpec)));
        let bad = FscSpec::new(vec![CategorySpec::new(
            FileCategory::REG_USER_RDONLY,
            0.4,
            DistributionSpec::exponential(1.0),
        )]);
        assert!(matches!(bad, Err(FscError::BadFractions { .. })));
        assert!(two_category_spec().with_files_per_user(0).is_err());
        assert!(two_category_spec().with_shared_files(0).is_err());
    }

    #[test]
    fn build_creates_layout() {
        let spec = two_category_spec();
        let creator = FileSystemCreator::new(spec);
        let mut vfs = Vfs::new(VfsConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let catalog = creator.build(&mut vfs, 3, &mut rng).unwrap();
        assert!(vfs.exists("/system"));
        assert!(vfs.exists("/notes"));
        for u in 0..3 {
            assert!(vfs.exists(&FileSystemCreator::user_dir(u)));
            assert!(vfs.exists(&FileSystemCreator::scratch_dir(u)));
        }
        // 50 per user × 3 + 120 shared (only one category on each side).
        assert_eq!(catalog.len(), 50 * 3 + 120);
        assert!(creator.spec().files_per_user == 50);
    }

    #[test]
    fn zero_users_rejected() {
        let creator = FileSystemCreator::new(two_category_spec());
        let mut vfs = Vfs::new(VfsConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            creator.build(&mut vfs, 0, &mut rng),
            Err(FscError::BadCount { .. })
        ));
    }

    #[test]
    fn inode_demand_is_checked_before_anything_is_built() {
        let creator = FileSystemCreator::new(two_category_spec().with_fill(FillPattern::Sparse));
        // Four top-level directories, 120 shared files, and per user a home,
        // a scratch directory and 50 files.
        let demand = 4 + 120 + 3 * (2 + 50);
        let with_inodes = |max_inodes| {
            Vfs::new(VfsConfig {
                max_inodes,
                ..VfsConfig::default()
            })
        };
        let mut rng = StdRng::seed_from_u64(1);

        let mut vfs = with_inodes(demand); // the root takes one
        let err = creator.build(&mut vfs, 3, &mut rng).unwrap_err();
        assert_eq!(
            err,
            FscError::InodeDemand {
                demand: demand as u64,
                available: demand as u64 - 1,
                limit: demand as u64,
            }
        );
        assert_eq!(vfs.statfs().used_inodes, 1, "nothing was built");
        assert_eq!(vfs.readdir("/").unwrap(), vec![]);

        let mut vfs = with_inodes(demand + 1);
        creator.build(&mut vfs, 3, &mut rng).unwrap();
        assert_eq!(vfs.statfs().used_inodes, demand as u64 + 1, "exact fit");

        // A population no u64 can count is the same typed error.
        let mut vfs = with_inodes(demand);
        assert!(matches!(
            creator.build(&mut vfs, usize::MAX, &mut rng),
            Err(FscError::InodeDemand {
                demand: u64::MAX,
                ..
            })
        ));
    }

    #[test]
    fn a_population_the_catalog_cannot_address_is_refused_up_front() {
        // One user, nine-digit counts: `/u/user000/file126322567_126322567`
        // is 34 bytes, and 34 × 126,322,567 is the last product under 2^32.
        assert_eq!(check_catalog_demand(1, Some(126_322_567)), Ok(()));
        let err = check_catalog_demand(1, Some(126_322_568)).unwrap_err();
        let (files, path_bytes) = (126_322_568, 34 * 126_322_568);
        assert_eq!(err, FscError::CatalogDemand { files, path_bytes });
        for part in ["126322568 files", "4294967312 bytes", "at most 4294967295"] {
            assert!(err.to_string().contains(part), "{err}");
        }
        // The million-user smoke is 3 M files and 99 MB of paths at most;
        // forty times the users is refused, and so is a count past `u64`.
        assert_eq!(check_catalog_demand(1_000_000, Some(3_000_120)), Ok(()));
        assert!(check_catalog_demand(40_000_000, Some(120_000_120)).is_err());
        assert!(check_catalog_demand(usize::MAX, None).is_err());

        // Through `build`, with inodes to spare: nothing is created.
        let spec = two_category_spec().with_files_per_user(5_000_000_000);
        let mut vfs = Vfs::new(VfsConfig {
            max_inodes: usize::MAX,
            ..VfsConfig::default()
        });
        let err = FileSystemCreator::new(spec.unwrap())
            .build(&mut vfs, 1, &mut StdRng::seed_from_u64(1))
            .unwrap_err();
        let files = 5_000_000_120;
        assert!(matches!(err, FscError::CatalogDemand { files: f, .. } if f == files));
        assert_eq!(vfs.statfs().used_inodes, 1, "nothing was built");
    }

    #[test]
    fn new_and_temp_categories_not_materialized() {
        let spec = FscSpec::new(vec![
            CategorySpec::new(
                FileCategory::REG_USER_TEMP,
                0.5,
                DistributionSpec::exponential(1000.0),
            ),
            CategorySpec::new(
                FileCategory::REG_USER_RDONLY,
                0.5,
                DistributionSpec::exponential(1000.0),
            ),
        ])
        .unwrap();
        let creator = FileSystemCreator::new(spec);
        let mut vfs = Vfs::new(VfsConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        let catalog = creator.build(&mut vfs, 1, &mut rng).unwrap();
        assert!(catalog
            .files()
            .iter()
            .all(|f| f.category == FileCategory::REG_USER_RDONLY));
    }

    #[test]
    fn sparse_fill_allocates_no_blocks() {
        let spec = two_category_spec().with_fill(FillPattern::Sparse);
        let creator = FileSystemCreator::new(spec);
        let mut vfs = Vfs::new(VfsConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        let catalog = creator.build(&mut vfs, 1, &mut rng).unwrap();
        assert_eq!(
            vfs.block_stats().allocated,
            0,
            "sparse files hold no blocks"
        );
        // Sizes still reflect the distribution.
        let total: u64 = catalog.files().iter().map(|f| f.size).sum();
        assert!(total > 0);
    }

    #[test]
    fn pattern_fill_writes_real_data() {
        let spec = two_category_spec();
        let creator = FileSystemCreator::new(spec);
        let mut vfs = Vfs::new(VfsConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        let catalog = creator.build(&mut vfs, 1, &mut rng).unwrap();
        let idx = catalog
            .files()
            .iter()
            .position(|f| f.size > 0)
            .expect("some non-empty file");
        let data = vfs.read_file(catalog.path(idx)).unwrap();
        assert_eq!(data.len() as u64, catalog.file(idx).size);
        assert!(vfs.block_stats().allocated > 0);
    }

    #[test]
    fn sampled_sizes_follow_distribution_mean() {
        let spec = FscSpec::new(vec![CategorySpec::new(
            FileCategory::REG_OTHER_RDONLY,
            1.0,
            DistributionSpec::exponential(8192.0),
        )])
        .unwrap()
        .with_shared_files(2_000)
        .unwrap()
        .with_fill(FillPattern::Sparse);
        let creator = FileSystemCreator::new(spec);
        let mut vfs = Vfs::new(VfsConfig {
            max_inodes: 1 << 20,
            ..VfsConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(5);
        let catalog = creator.build(&mut vfs, 1, &mut rng).unwrap();
        let summary = catalog.characterize();
        let (count, mean) = summary[&FileCategory::REG_OTHER_RDONLY];
        assert_eq!(count, 2_000);
        assert!((mean - 8192.0).abs() / 8192.0 < 0.1, "mean = {mean}");
    }

    #[test]
    fn directory_categories_create_directories() {
        let spec = FscSpec::new(vec![
            CategorySpec::new(
                FileCategory::DIR_USER_RDONLY,
                0.5,
                DistributionSpec::exponential(714.0),
            ),
            CategorySpec::new(
                FileCategory::REG_USER_RDONLY,
                0.5,
                DistributionSpec::exponential(5794.0),
            ),
        ])
        .unwrap();
        let creator = FileSystemCreator::new(spec);
        let mut vfs = Vfs::new(VfsConfig::default());
        let mut rng = StdRng::seed_from_u64(6);
        let catalog = creator.build(&mut vfs, 1, &mut rng).unwrap();
        let dir_file = catalog
            .files()
            .iter()
            .position(|f| f.category == FileCategory::DIR_USER_RDONLY)
            .expect("dir category populated");
        assert!(vfs.stat(catalog.path(dir_file)).unwrap().is_dir());
    }

    #[test]
    fn deterministic_under_seed() {
        let build = |seed| {
            let creator =
                FileSystemCreator::new(two_category_spec().with_fill(FillPattern::Sparse));
            let mut vfs = Vfs::new(VfsConfig::default());
            let mut rng = StdRng::seed_from_u64(seed);
            let catalog = creator.build(&mut vfs, 2, &mut rng).unwrap();
            catalog
                .files()
                .iter()
                .enumerate()
                .map(|(idx, f)| (catalog.path(idx).to_string(), f.size))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(42), build(42));
        assert_ne!(build(42), build(43));
    }

    #[test]
    fn serde_spec_round_trip() {
        let spec = two_category_spec();
        let json = serde_json::to_string(&spec).unwrap();
        let back: FscSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn serde_popularity_round_trips_every_policy() {
        for policy in [
            FilePopularity::Uniform,
            FilePopularity::SizeWeighted,
            FilePopularity::Zipf { exponent: 1.25 },
        ] {
            let spec = two_category_spec().with_popularity(policy);
            let json = serde_json::to_string(&spec).unwrap();
            let back: FscSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back.popularity, policy, "{json}");
        }
    }

    #[test]
    fn missing_popularity_field_defaults_to_uniform() {
        // Spec files written before the field existed must keep parsing —
        // and keep meaning the paper's uniform model. Serialize, strip the
        // field (it is declared last, so it is the trailing entry), parse.
        let spec = two_category_spec();
        let json = serde_json::to_string(&spec).unwrap();
        let legacy = json.replace(",\"popularity\":{\"policy\":\"uniform\"}", "");
        assert_ne!(legacy, json, "the field must have been present");
        let back: FscSpec = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.popularity, FilePopularity::Uniform);
        assert_eq!(back, spec);
    }

    #[test]
    fn absurd_zipf_exponents_are_errors_not_panics() {
        // The policy arrives from hand-editable JSON: an exponent whose
        // weights overflow must be rejected at validation time, never
        // reach the alias table's panic.
        for exponent in [-2000.0, 2000.0, f64::NAN, f64::INFINITY] {
            let spec = two_category_spec()
                .with_popularity(FilePopularity::Zipf { exponent })
                .with_fill(FillPattern::Sparse);
            let creator = FileSystemCreator::new(spec);
            let mut vfs = Vfs::new(VfsConfig::default());
            let mut rng = StdRng::seed_from_u64(8);
            assert!(
                matches!(
                    creator.build(&mut vfs, 1, &mut rng),
                    Err(FscError::BadPopularity { .. })
                ),
                "exponent {exponent} must be rejected"
            );
        }
        // The boundary itself is usable.
        let spec = two_category_spec()
            .with_popularity(FilePopularity::Zipf {
                exponent: crate::MAX_ZIPF_EXPONENT,
            })
            .with_fill(FillPattern::Sparse);
        let mut vfs = Vfs::new(VfsConfig::default());
        let mut rng = StdRng::seed_from_u64(9);
        assert!(FileSystemCreator::new(spec)
            .build(&mut vfs, 1, &mut rng)
            .is_ok());
    }

    #[test]
    fn build_seals_with_the_spec_popularity() {
        let creator = FileSystemCreator::new(
            two_category_spec()
                .with_fill(FillPattern::Sparse)
                .with_popularity(FilePopularity::SizeWeighted),
        );
        let mut vfs = Vfs::new(VfsConfig::default());
        let mut rng = StdRng::seed_from_u64(7);
        let catalog = creator.build(&mut vfs, 1, &mut rng).unwrap();
        assert!(catalog.is_sealed(), "build seals the catalog");
    }
}
