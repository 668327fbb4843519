//! The creator proper: specification validation and file-system population.

use crate::{catalog, FileCatalog, FileCategory, FilePopularity, FileType, FscError, Owner};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use uswg_distr::{Distribution, DistributionSpec};
use uswg_vfs::{FsError, Ino, OpenFlags, Process, Vfs};

/// Tolerance when validating that category fractions sum to one.
const FRACTION_TOL: f64 = 1e-6;

/// The directory of every shared file but the notesfiles.
pub(crate) const SYSTEM: &str = "/system";
/// The directory of every notesfile, whoever owns it.
pub(crate) const NOTES: &str = "/notes";

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
    /// Allocate data blocks for every byte of the file: the device fills as
    /// the sizes say. A block is a count and an index in its file; it holds
    /// no bytes.
    #[default]
    Pattern,
    /// Set sizes with `truncate` only: files are holes and occupy no blocks.
    /// Reads return the same byte counts; use for large simulated
    /// populations.
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
        self.files_per_user = positive("files_per_user", n)?;
        Ok(self)
    }

    /// Builder-style override of the shared file count.
    ///
    /// # Errors
    ///
    /// Returns [`FscError::BadCount`] when `n` is zero.
    pub fn with_shared_files(mut self, n: u64) -> Result<Self, FscError> {
        self.shared_files = positive("shared_files", n)?;
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
        let mut dir = String::new();
        Self::push_user_dir(&mut dir, user);
        dir
    }

    /// Appends [`Self::user_dir`] to `out`.
    pub(crate) fn push_user_dir(out: &mut String, user: usize) {
        write!(out, "/u/user{user:03}").expect("String write");
    }

    /// The scratch directory path of virtual user `k`.
    pub fn scratch_dir(user: usize) -> String {
        let mut dir = String::new();
        Self::push_scratch_dir(&mut dir, user);
        dir
    }

    /// Appends [`Self::scratch_dir`] to `out`.
    pub fn push_scratch_dir(out: &mut String, user: usize) {
        write!(out, "/tmp/user{user:03}").expect("String write");
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
    /// The build creates `/system`, `/notes`, `/u`, `/tmp` and the shared
    /// files, and samples every file's size, the shared ones first, then
    /// each user's in user order. It creates no user's objects: it
    /// reserves the inode numbers and, under pattern fill, the data blocks
    /// a build that created them would have used ([`Vfs::reserve_homes`]),
    /// so `statfs` and the block counts read as if it had. A home is built
    /// when it is first needed ([`FileCatalog::build_home`]) and dropped
    /// when it no longer is ([`FileCatalog::drop_home`]). Every object is
    /// created by name inside a directory inode the builder already holds,
    /// so the cost per object does not grow with the population. Top-level
    /// directories `vfs` already holds are stepped into, as `mkdir -p`
    /// would.
    ///
    /// # Errors
    ///
    /// Before anything is created: [`FscError::NotFresh`] when `vfs` has
    /// freed inode numbers or already holds homes — the homes' numbers are
    /// the ones an eager build would hand out only on a fresh table —
    /// [`FscError::InodeDemand`] when the population cannot fit in the
    /// inodes `vfs` has left (an upper bound: directories `vfs` already
    /// holds are counted again), and [`FscError::CatalogDemand`] when its
    /// file count or the inode numbers it can be handed do not fit the
    /// catalog's `u32`s; otherwise propagates validation, distribution and
    /// file-system errors, a file too large or a device too small for the
    /// homes' files among them.
    pub fn build(
        &self,
        vfs: &mut Vfs,
        n_users: usize,
        rng: &mut dyn RngCore,
    ) -> Result<FileCatalog, FscError> {
        self.spec.validate()?;
        positive("n_users", n_users as u64)?;
        let shared = self.plan(Owner::Other, self.spec.shared_files)?;
        let personal = self.plan(Owner::User, self.spec.files_per_user)?;
        check_fresh(vfs)?;
        let files = file_demand(n_users, &shared, &personal);
        let inodes = check_inode_demand(vfs, n_users, files)?;
        let files = check_catalog_demand(vfs, files, inodes)?;
        let shared_files = objects(&shared).expect("counted with the population") as usize;
        let per_home = 2 + objects(&personal).expect("counted with the population");
        let reserve = |table, bytes| FscError::Reserve { table, bytes };
        // A home is built whole, so one home's inodes must fit.
        let home = per_home.saturating_mul(Vfs::INODE_BYTES as u64);
        (Vec::<u8>::new().try_reserve_exact(home as usize))
            .map_err(|_| reserve("inodes of a home", home))?;
        let dense = 4 + shared_files;
        vfs.try_reserve_inodes(dense)
            .map_err(|_| reserve("inode table", dense as u64 * Vfs::INODE_BYTES as u64))?;
        let mut sizes = Vec::new();
        let mut inos = Vec::new();
        (sizes.try_reserve_exact(files))
            .map_err(|_| reserve("catalog's sizes", 8 * files as u64))?;
        (inos.try_reserve_exact(shared_files))
            .map_err(|_| reserve("catalog's inode numbers", 4 * shared_files as u64))?;

        let root = vfs.root();
        let system = vfs.ensure_dir_at(root, last_component(SYSTEM))?;
        let notes = vfs.ensure_dir_at(root, last_component(NOTES))?;
        vfs.ensure_dir_at(root, "u")?;
        vfs.ensure_dir_at(root, "tmp")?;
        let mut build = Build {
            fill: self.spec.fill,
            proc: vfs.new_process(),
            vfs,
            rng,
            notes,
            sizes,
            inos,
        };
        // Every catalog path is rendered here; its tail is the VFS name.
        let mut path = String::new();
        build.populate(&shared, system, &mut path)?;
        // The inode check bounds the users by the u32 inode numbers.
        let users = u32::try_from(n_users).expect("checked with the inode numbers");
        let blocks = build.plan_homes(&personal, users)?;
        let (vfs, sizes, inos) = (build.vfs, build.sizes, build.inos);
        let first_home = (vfs.reserve_homes(n_users, per_home, blocks))
            .map_err(|_| reserve("home table", 16 * n_users as u64))?;
        let first_home = u32::try_from(first_home.number()).expect("checked before the build");
        let runs = |plan: &[PlannedCategory]| -> Vec<_> {
            plan.iter().map(|p| (p.category, p.count as u32)).collect()
        };
        let mut catalog = FileCatalog::from_plan(
            &runs(&shared),
            &runs(&personal),
            users,
            sizes,
            inos,
            first_home,
        );
        catalog.fill = self.spec.fill;
        // Seal with the spec's popularity policy so the pick weighting is
        // part of the declarative workload description. Uniform sealing is
        // bit-identical to the historical unsealed modulo pick
        // (property-tested in tests/alias_equivalence.rs), so default
        // specs reproduce every earlier run byte for byte.
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

pub(crate) fn last_component(path: &str) -> &str {
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
    notes: Ino,
    /// Every file's size and every shared file's inode number, in catalog
    /// order.
    sizes: Vec<u64>,
    inos: Vec<u32>,
}

impl Build<'_> {
    /// Creates the shared objects: notesfiles under `/notes`, everything
    /// else under `dir`.
    fn populate(
        &mut self,
        plan: &[PlannedCategory],
        dir: Ino,
        path: &mut String,
    ) -> Result<(), FscError> {
        for planned in plan {
            let category = planned.category;
            let dir = match category.file_type {
                FileType::Notes => self.notes,
                FileType::Dir | FileType::Reg => dir,
            };
            for seq in 0..planned.count as u32 {
                let size = planned.size.sample(self.rng).round().max(0.0) as u64;
                let idx = self.sizes.len();
                path.clear();
                catalog::push_path(path, None, category, idx, seq);
                let name = last_component(path);
                let ino = match category.file_type {
                    FileType::Dir => self.vfs.ensure_dir_at(dir, name)?,
                    FileType::Reg | FileType::Notes => self.create_file(dir, name, size)?,
                };
                // Directories have no byte size; record the sampled size
                // anyway as the "directory data" the workload reads.
                self.sizes.push(size);
                let ino = u32::try_from(ino.number()).expect("checked before the build");
                self.inos.push(ino);
            }
        }
        Ok(())
    }

    /// Samples the sizes of every user's files, user by user, and returns
    /// the data blocks their fill takes — failing on the first file that
    /// creating them in this order would have failed on.
    fn plan_homes(&mut self, plan: &[PlannedCategory], users: u32) -> Result<u64, FscError> {
        let config = *self.vfs.config();
        let free = self.vfs.statfs().free_blocks;
        let mut blocks = 0u64;
        for _ in 0..users {
            for planned in plan {
                let file = planned.category.file_type != FileType::Dir;
                for _ in 0..planned.count {
                    let size = planned.size.sample(self.rng).round().max(0.0) as u64;
                    if file && size > config.max_file_size {
                        return Err(FsError::FileTooLarge.into());
                    }
                    if file && self.fill == FillPattern::Pattern {
                        blocks += size.div_ceil(config.block_size as u64);
                        if blocks > free {
                            return Err(FsError::NoSpace.into());
                        }
                    }
                    self.sizes.push(size);
                }
            }
        }
        Ok(blocks)
    }

    /// Creates (or replaces) regular file `name` in `dir` with `size` bytes
    /// of the spec's fill, and returns its inode.
    fn create_file(&mut self, dir: Ino, name: &str, size: u64) -> Result<Ino, FsError> {
        let (vfs, proc) = (&mut *self.vfs, &mut self.proc);
        let fd = vfs.open_at(proc, dir, name, OpenFlags::create_write())?;
        let ino = vfs.fstat(proc, fd)?.ino;
        let filled = match self.fill {
            FillPattern::Sparse => vfs.ftruncate(proc, fd, size),
            // The whole size in one call; a short write is a full device.
            FillPattern::Pattern => match vfs.write(proc, fd, size as usize) {
                Ok(n) if n as u64 == size => Ok(()),
                Ok(_) => Err(FsError::NoSpace),
                Err(e) => Err(e),
            },
        };
        vfs.close(proc, fd)?;
        filled?;
        Ok(ino)
    }
}

/// `n`, or [`FscError::BadCount`] naming `name` when it is zero.
fn positive(name: &'static str, n: u64) -> Result<u64, FscError> {
    match n {
        0 => Err(FscError::BadCount { name, value: 0 }),
        n => Ok(n),
    }
}

/// Objects of `plan`, `None` past `u64`.
fn objects(plan: &[PlannedCategory]) -> Option<u64> {
    plan.iter()
        .try_fold(0u64, |sum, planned| sum.checked_add(planned.count))
}

/// Fails unless `vfs` hands out numbers in order from its table's end and
/// holds no home: no freed numbers, no homes reserved, nothing in `/u` or
/// `/tmp`.
fn check_fresh(vfs: &Vfs) -> Result<(), FscError> {
    let freed = vfs.freed_inodes() as u64;
    let mut homes = vfs.homes() as u64;
    for dir in ["/u", "/tmp"] {
        homes += vfs.resolve(dir).map_or(0, |dir| vfs.entry_count(dir));
    }
    if freed > 0 || homes > 0 {
        return Err(FscError::NotFresh { freed, homes });
    }
    Ok(())
}

/// Objects a build catalogs: the shared ones, and the personal ones of
/// every user. `None` past `u64`.
fn file_demand(
    n_users: usize,
    shared: &[PlannedCategory],
    personal: &[PlannedCategory],
) -> Option<u64> {
    objects(personal)?
        .checked_mul(n_users as u64)?
        .checked_add(objects(shared)?)
}

/// The inodes a build allocates or reserves on a fresh file system — the
/// `files`, the four top-level directories, and per user a home and a
/// scratch directory — or an error unless `vfs` has that many left.
fn check_inode_demand(vfs: &Vfs, n_users: usize, files: Option<u64>) -> Result<usize, FscError> {
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
    Ok(demand as usize)
}

/// Fails unless the catalog's `u32`s hold the file count and every inode
/// number the build can hand out: below the inode table's length plus the
/// `inodes` it allocates. Returns the file count.
fn check_catalog_demand(vfs: &Vfs, files: Option<u64>, inodes: usize) -> Result<usize, FscError> {
    let files = files.unwrap_or(u64::MAX);
    let highest_ino = (vfs.inode_slots() as u64 + inodes as u64).saturating_sub(1);
    if files.max(highest_ino) > u64::from(u32::MAX) {
        return Err(FscError::CatalogDemand { files, highest_ino });
    }
    Ok(files as usize)
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

    /// Builds `spec` for `n_users` users on a default file system.
    fn build(spec: FscSpec, n_users: usize, seed: u64) -> Result<(Vfs, FileCatalog), FscError> {
        let mut vfs = Vfs::new(VfsConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let catalog = FileSystemCreator::new(spec).build(&mut vfs, n_users, &mut rng)?;
        Ok((vfs, catalog))
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
        let (mut vfs, catalog) = build(two_category_spec(), 3, 1).unwrap();
        assert!(vfs.exists("/system"));
        assert!(vfs.exists("/notes"));
        for u in 0..3 {
            // A home stands once it is built, and not before.
            let exists = |vfs: &Vfs| vfs.exists(&FileSystemCreator::user_dir(u));
            assert!(!exists(&vfs));
            catalog.build_home(&mut vfs, u).unwrap();
            assert!(exists(&vfs));
            assert!(vfs.exists(&FileSystemCreator::scratch_dir(u)));
        }
        // 50 per user × 3 + 120 shared (only one category on each side).
        assert_eq!(catalog.len(), 50 * 3 + 120);
        let creator = FileSystemCreator::new(two_category_spec());
        assert!(creator.spec().files_per_user == 50);
    }

    #[test]
    fn zero_users_rejected() {
        let result = build(two_category_spec(), 0, 1);
        assert!(matches!(result, Err(FscError::BadCount { .. })));
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
        // On a fresh file system the root holds slot 0, so a build of
        // `inodes` hands out numbers up to `inodes`, and u32::MAX is the
        // last one a catalog holds.
        let vfs = Vfs::new(VfsConfig::default());
        let max = u32::MAX as usize;
        assert_eq!(check_catalog_demand(&vfs, Some(7), max), Ok(7));
        let err = check_catalog_demand(&vfs, Some(7), max + 1).unwrap_err();
        let (files, highest_ino) = (7, u32::MAX as u64 + 1);
        assert_eq!(err, FscError::CatalogDemand { files, highest_ino });
        for part in ["7 files", "up to 4294967296", "at most 4294967295"] {
            assert!(err.to_string().contains(part), "{err}");
        }
        // A count past `u64` is refused whatever the inodes.
        assert!(check_catalog_demand(&vfs, None, 7).is_err());

        // Through `build`, with inodes to spare: one user, 120 shared files
        // and five billion of its own, nothing created.
        let spec = two_category_spec().with_files_per_user(5_000_000_000);
        let mut vfs = Vfs::new(VfsConfig {
            max_inodes: usize::MAX,
            ..VfsConfig::default()
        });
        let err = FileSystemCreator::new(spec.unwrap())
            .build(&mut vfs, 1, &mut StdRng::seed_from_u64(1))
            .unwrap_err();
        let (files, highest_ino) = (5_000_000_120, 5_000_000_126);
        assert_eq!(err, FscError::CatalogDemand { files, highest_ino });
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
        let (_, catalog) = build(spec, 1, 2).unwrap();
        assert!(catalog
            .files()
            .all(|f| f.category == FileCategory::REG_USER_RDONLY));
    }

    #[test]
    fn sparse_fill_allocates_no_blocks() {
        let (vfs, catalog) =
            build(two_category_spec().with_fill(FillPattern::Sparse), 1, 3).unwrap();
        assert_eq!(
            vfs.block_stats().allocated,
            0,
            "sparse files hold no blocks"
        );
        // Sizes still reflect the distribution.
        let total: u64 = catalog.files().map(|f| f.size).sum();
        assert!(total > 0);
    }

    #[test]
    fn pattern_fill_writes_real_data() {
        let (mut vfs, catalog) = build(two_category_spec(), 1, 4).unwrap();
        let idx = catalog
            .files()
            .position(|f| f.size > 0)
            .expect("some non-empty file");
        let md = vfs.stat(&catalog.path(idx)).unwrap();
        assert_eq!(md.size, catalog.file(idx).size);
        let blocks = md.size.div_ceil(u64::from(md.block_size));
        assert_eq!(md.blocks, blocks, "every block of the size is held");
        assert!(vfs.block_stats().allocated >= blocks);
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
        let summary = build(spec, 1, 5).unwrap().1.characterize();
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
        let (mut vfs, catalog) = build(spec, 1, 6).unwrap();
        catalog.build_home(&mut vfs, 0).unwrap();
        let dir_file = catalog
            .files()
            .position(|f| f.category == FileCategory::DIR_USER_RDONLY)
            .expect("dir category populated");
        assert!(vfs.stat(&catalog.path(dir_file)).unwrap().is_dir());
    }

    #[test]
    fn deterministic_under_seed() {
        let paths = |seed| {
            let spec = two_category_spec().with_fill(FillPattern::Sparse);
            let (_, catalog) = build(spec, 2, seed).unwrap();
            catalog
                .files()
                .enumerate()
                .map(|(idx, f)| (catalog.path(idx), f.size))
                .collect::<Vec<_>>()
        };
        assert_eq!(paths(42), paths(42));
        assert_ne!(paths(42), paths(43));
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
            let result = build(spec, 1, 8);
            let rejected = matches!(result, Err(FscError::BadPopularity { .. }));
            assert!(rejected, "exponent {exponent} must be rejected");
        }
        // The boundary itself is usable.
        let spec = two_category_spec()
            .with_popularity(FilePopularity::Zipf {
                exponent: crate::MAX_ZIPF_EXPONENT,
            })
            .with_fill(FillPattern::Sparse);
        assert!(build(spec, 1, 9).is_ok());
    }

    #[test]
    fn build_seals_with_the_spec_popularity() {
        let spec = two_category_spec()
            .with_fill(FillPattern::Sparse)
            .with_popularity(FilePopularity::SizeWeighted);
        let (_, catalog) = build(spec, 1, 7).unwrap();
        assert!(catalog.is_sealed(), "build seals the catalog");
    }
}
