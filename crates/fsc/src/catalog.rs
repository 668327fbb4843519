//! The file catalog: the FSC's output, consumed by the User Simulator.
//!
//! A build catalogs its files in a fixed order: the shared runs, then for
//! each user, in user order, the same per-user runs, where a run is
//! `count` files of one category. So the catalog stores that plan — the
//! shared `(category, count)` runs, the per-user runs and the user count —
//! and per file only what the plan cannot say: its size (`u64`), and for a
//! shared file its inode number (`u32`). Everything else about catalog
//! index `idx` is arithmetic on the plan: the owner, the category, the
//! file's place `seq` in its run, its path
//! `"{dir}/{stem}{idx:05}_{seq:04}"` ([`FileCatalog::write_path`]), the
//! candidate list of `(user, category)` — the files of that category in
//! the owner's block, in index order (one run, or several when a spec names
//! a category twice) — and a user's inode numbers: user `u`'s home holds
//! the run of `2 + files per user` numbers from `first_home + u × (2 +
//! files per user)`, its home directory, its scratch directory and its
//! files in order. That is what makes a home buildable at any time from
//! the catalog alone ([`FileCatalog::build_home`]).
//! [`FileSystemCreator::build`](crate::FileSystemCreator::build) refuses,
//! before it creates anything, a plan whose file count or inode numbers do
//! not fit `u32`.

use crate::creator::{self, last_component};
use crate::{AliasTable, FileCategory, FileSystemCreator, FileType, FillPattern, Owner};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use uswg_vfs::{FileKind, FsError, Vfs};

/// One file created by the FSC, as [`FileCatalog::file`] reports it. The
/// catalog renders its path ([`FileCatalog::write_path`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CatalogFile {
    /// Inode number in the VFS.
    pub ino: u64,
    /// Size at creation time, bytes.
    pub size: u64,
    /// The file's category.
    pub category: FileCategory,
    /// Owning virtual user for `Owner::User` categories, `None` for shared.
    pub owner_user: Option<u32>,
}

/// How [`FileCatalog::pick`] weights the candidates within one candidate
/// list (the ROADMAP's weighted-popularity follow-up to the alias tables:
/// the Walker/Vose sampler was always general, this exposes it).
///
/// Weighted popularity changes which files a seeded workload touches, so it
/// is an explicit opt-in via [`FileCatalog::seal_with`] — or declaratively
/// via `FscSpec::popularity`, the serialized form workload specs carry
/// (`{"policy": "uniform" | "size_weighted" | "zipf", ...}`; a spec
/// without the field stays uniform). The plain [`FileCatalog::seal`] stays
/// uniform and bit-identical to the historical modulo pick.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[serde(tag = "policy", rename_all = "snake_case")]
pub enum FilePopularity {
    /// Every candidate equally likely (the paper's model; bit-identical to
    /// an unsealed modulo pick).
    #[default]
    Uniform,
    /// Candidates weighted by their file size in bytes (zero-size files
    /// keep weight 1 so they stay reachable): big files attract
    /// proportionally more of the traffic, the \[DI86\]-style
    /// bytes-follow-bytes assumption.
    SizeWeighted,
    /// Zipf-like popularity by list position: the candidate at position
    /// `r` (0-based) has weight `1 / (r + 1)^exponent`. With exponent
    /// around 1 this is the classic hot-set skew observed in file-system
    /// traces.
    Zipf {
        /// The skew exponent (larger = more skewed; 0 = uniform).
        exponent: f64,
    },
}

/// Largest accepted Zipf exponent magnitude: `(r + 1)^16` stays finite
/// (and its reciprocal stays positive) for candidate lists far beyond any
/// realistic catalog, while anything past this is a typo — the weights
/// would overflow to infinity (or underflow to zero) and the alias-table
/// construction would panic on a value that arrived from an untrusted
/// spec file.
pub const MAX_ZIPF_EXPONENT: f64 = 16.0;

impl FilePopularity {
    /// Validates the policy's parameters. Spec-file deserialization feeds
    /// this (via `FscSpec::validate`), so a hand-edited JSON spec with an
    /// absurd exponent is a clean error at load time instead of a panic
    /// inside [`FileCatalog::seal_with`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::FscError::BadPopularity`] for a non-finite Zipf
    /// exponent or one whose magnitude exceeds [`MAX_ZIPF_EXPONENT`].
    pub fn validate(self) -> Result<(), crate::FscError> {
        if let FilePopularity::Zipf { exponent } = self {
            if !exponent.is_finite() {
                return Err(crate::FscError::BadPopularity {
                    reason: "zipf exponent must be finite",
                    value: exponent,
                });
            }
            if exponent.abs() > MAX_ZIPF_EXPONENT {
                return Err(crate::FscError::BadPopularity {
                    reason: "zipf exponent magnitude is capped at 16",
                    value: exponent,
                });
            }
        }
        Ok(())
    }

    /// The weight vector this policy assigns to a candidate list, given
    /// the sizes of its files in list order. The analytic ground truth the
    /// chi-square goodness-of-fit tests compare empirical pick frequencies
    /// against.
    pub fn weights(self, sizes: impl ExactSizeIterator<Item = u64>) -> Vec<f64> {
        match self {
            FilePopularity::Uniform => vec![1.0; sizes.len()],
            FilePopularity::SizeWeighted => sizes.map(|size| size.max(1) as f64).collect(),
            FilePopularity::Zipf { exponent } => (0..sizes.len())
                .map(|r| ((r + 1) as f64).powf(-exponent))
                .collect(),
        }
    }
}

/// The runs every owner on one side of the ownership split gets: the shared
/// pool's, or each user's.
#[derive(Debug, Clone, Default)]
struct Runs {
    /// `(category, count)` in creation order; no count is zero.
    runs: Vec<(FileCategory, u32)>,
    /// Each distinct category with its file count, in order of first
    /// appearance: one candidate list per owner and entry.
    lists: Vec<(FileCategory, u32)>,
    /// Files per owner.
    files: u32,
}

impl Runs {
    fn new(runs: &[(FileCategory, u32)]) -> Self {
        let mut out = Self::default();
        for &(category, count) in runs.iter().filter(|run| run.1 > 0) {
            out.runs.push((category, count));
            out.files =
                (out.files.checked_add(count)).expect("an owner holds at most u32::MAX files");
            match out.lists.iter_mut().find(|list| list.0 == category) {
                Some(list) => list.1 += count,
                None => out.lists.push((category, count)),
            }
        }
        out
    }

    /// The category of an owner's `at`-th file, and its place in its run.
    fn locate(&self, mut at: u32) -> (FileCategory, u32) {
        for &(category, count) in &self.runs {
            if at < count {
                return (category, at);
            }
            at -= count;
        }
        unreachable!("an index inside the owner's files")
    }

    /// Where in an owner's files the `i`-th candidate of `category` is.
    fn nth(&self, category: FileCategory, mut i: u32) -> u32 {
        let mut start = 0;
        for &(run, count) in &self.runs {
            if run == category {
                if i < count {
                    return start + i;
                }
                i -= count;
            }
            start += count;
        }
        unreachable!("a position inside the list")
    }
}

/// One owner's candidate list of one category.
struct List<'c> {
    runs: &'c Runs,
    category: FileCategory,
    /// The catalog index of the owner's first file.
    base: usize,
    len: u32,
    /// The list's number among all lists: its alias table's.
    table: usize,
}

impl List<'_> {
    /// The catalog index of the list's `i`-th candidate.
    fn nth(&self, i: u32) -> usize {
        self.base + self.runs.nth(self.category, i) as usize
    }
}

/// An index of the synthetic file population by `(user, category)`.
///
/// The User Simulator asks the catalog for candidate files: a user accessing
/// a `USER`-owned category draws from their own directory, a user accessing
/// an `OTHER`-owned category draws from the shared pool. The layout is
/// described at the top of this file.
#[derive(Debug, Clone, Default)]
pub struct FileCatalog {
    shared: Runs,
    personal: Runs,
    users: u32,
    sizes: Vec<u64>,
    /// The shared files' inode numbers.
    inos: Vec<u32>,
    /// The first inode number of user 0's home.
    first_home: u32,
    /// How a home's files hold their bytes when it is built.
    pub(crate) fill: FillPattern,
    /// One table per list after a weighted seal — the shared pool's lists,
    /// then each user's — else empty: [`FileCatalog::pick`] then draws
    /// `u % n`, the uniform policy exactly.
    aliases: Vec<AliasTable>,
    /// Whether [`FileCatalog::seal_with`] ran.
    sealed: bool,
}

impl FileCatalog {
    /// The catalog of a build that planned the `shared` runs, then the
    /// `personal` runs for each of `users` users, with every file's size in
    /// catalog order, the shared files' inode numbers, and the first number
    /// of the homes' runs. Unsealed; homes are built as holes.
    ///
    /// # Panics
    ///
    /// Panics unless `sizes` holds one entry per planned file and `inos`
    /// one per shared file.
    pub fn from_plan(
        shared: &[(FileCategory, u32)],
        personal: &[(FileCategory, u32)],
        users: u32,
        sizes: Vec<u64>,
        inos: Vec<u32>,
        first_home: u32,
    ) -> Self {
        let (shared, personal) = (Runs::new(shared), Runs::new(personal));
        let planned = u64::from(shared.files) + u64::from(users) * u64::from(personal.files);
        assert_eq!(sizes.len() as u64, planned, "a size per planned file");
        assert_eq!(
            inos.len(),
            shared.files as usize,
            "a number per shared file"
        );
        Self {
            shared,
            personal,
            users,
            sizes,
            inos,
            first_home,
            fill: FillPattern::Sparse,
            aliases: Vec::new(),
            sealed: false,
        }
    }

    /// Inode numbers per home: the home and scratch directories and the
    /// user's files.
    fn per_home(&self) -> u64 {
        2 + u64::from(self.personal.files)
    }

    /// The first inode number of `user`'s home.
    fn home_base(&self, user: u32) -> u64 {
        u64::from(self.first_home) + u64::from(user) * self.per_home()
    }

    /// Seals the catalog with the uniform policy. Sealing is purely an
    /// access-path declaration: a uniform draw is the modulo pick, so a
    /// sealed and an unsealed catalog pick exactly the same files from the
    /// same PRNG stream (see `tests/alias_equivalence.rs`).
    pub fn seal(&mut self) {
        self.seal_with(FilePopularity::Uniform);
    }

    /// Seals the catalog with an explicit popularity policy. A weighted
    /// policy gives every candidate list an [`AliasTable`] over the
    /// policy's weights, so weighted picks stay O(1) — one `next_u64` per
    /// draw, like the uniform path — and deliberately changes which files
    /// seeded workloads touch. [`FilePopularity::Uniform`] builds nothing:
    /// the modulo pick already is the uniform alias draw, bit for bit.
    /// Sealing again replaces the policy.
    pub fn seal_with(&mut self, popularity: FilePopularity) {
        let mut tables = Vec::new();
        if popularity != FilePopularity::Uniform {
            let (shared, per_user) = (self.shared.files as usize, self.personal.files as usize);
            let users = (0..self.users as usize).map(|u| (&self.personal, shared + u * per_user));
            for (runs, base) in std::iter::once((&self.shared, 0)).chain(users) {
                for &(category, len) in &runs.lists {
                    let list = List {
                        runs,
                        category,
                        base,
                        len,
                        table: tables.len(),
                    };
                    let sizes = (0..len).map(|i| self.sizes[list.nth(i)]);
                    let table = AliasTable::new(&popularity.weights(sizes));
                    tables.push(table.expect("positive weights"));
                }
            }
        }
        self.aliases = tables;
        self.sealed = true;
    }

    /// Whether the catalog has been sealed.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Every file, in catalog order.
    pub fn files(&self) -> impl ExactSizeIterator<Item = CatalogFile> + '_ {
        (0..self.len()).map(|idx| self.file(idx))
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Whether the catalog has no files.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// The owner, category and run position of the file at `idx`.
    fn locate(&self, idx: usize) -> (Option<u32>, FileCategory, u32) {
        assert!(idx < self.len(), "catalog index {idx} of {}", self.len());
        match idx.checked_sub(self.shared.files as usize) {
            None => {
                let (category, seq) = self.shared.locate(idx as u32);
                (None, category, seq)
            }
            Some(at) => {
                let per_user = self.personal.files as usize;
                let (category, seq) = self.personal.locate((at % per_user) as u32);
                (Some((at / per_user) as u32), category, seq)
            }
        }
    }

    /// The file at a catalog index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn file(&self, idx: usize) -> CatalogFile {
        let (owner_user, category, _) = self.locate(idx);
        let ino = match owner_user {
            None => u64::from(self.inos[idx]),
            Some(user) => {
                let at = (idx - self.shared.files as usize) % self.personal.files as usize;
                self.home_base(user) + 2 + at as u64
            }
        };
        CatalogFile {
            ino,
            size: self.sizes[idx],
            category,
            owner_user,
        }
    }

    /// Replaces `out` with the absolute path of the file at a catalog
    /// index; panics like [`Self::file`].
    pub fn write_path(&self, idx: usize, out: &mut String) {
        let (owner_user, category, seq) = self.locate(idx);
        out.clear();
        push_path(out, owner_user, category, idx, seq);
    }

    /// The absolute path of the file at a catalog index, in a new string;
    /// panics like [`Self::file`].
    pub fn path(&self, idx: usize) -> String {
        let mut path = String::new();
        self.write_path(idx, &mut path);
        path
    }

    /// The list `user` draws `category` from.
    fn list(&self, user: usize, category: FileCategory) -> Option<List<'_>> {
        let (runs, base, first) = match category.owner {
            Owner::Other => (&self.shared, 0, 0),
            Owner::User if user < self.users as usize => (
                &self.personal,
                self.shared.files as usize + user * self.personal.files as usize,
                self.shared.lists.len() + user * self.personal.lists.len(),
            ),
            Owner::User => return None,
        };
        let at = runs.lists.iter().position(|list| list.0 == category)?;
        Some(List {
            runs,
            category,
            base,
            len: runs.lists[at].1,
            table: first + at,
        })
    }

    /// Candidate file indices for `user` accessing `category`, ascending.
    pub fn candidates(
        &self,
        user: usize,
        category: FileCategory,
    ) -> impl ExactSizeIterator<Item = usize> + '_ {
        let list = self.list(user, category);
        let len = list.as_ref().map_or(0, |list| list.len);
        (0..len).map(move |i| list.as_ref().expect("a list with candidates").nth(i))
    }

    /// Picks a random candidate for `user` × `category` under the policy
    /// the catalog was sealed with (uniform when unsealed).
    ///
    /// After a weighted seal a list answers through its alias table; a
    /// uniform or unsealed catalog draws modulo. Both consume one
    /// `next_u64`.
    pub fn pick(
        &self,
        user: usize,
        category: FileCategory,
        rng: &mut dyn RngCore,
    ) -> Option<usize> {
        let list = self.list(user, category)?;
        let i = match self.aliases.get(list.table) {
            Some(table) => table.draw(rng) as u32,
            None => (rng.next_u64() % u64::from(list.len)) as u32,
        };
        Some(list.nth(i))
    }

    /// Builds `user`'s home in `vfs`, the file system this catalog was
    /// built into, unless it is built: the home and scratch directories
    /// under `/u` and `/tmp`, and the user's files — directories and
    /// regular files in the home, notesfiles under `/notes` — at the inode
    /// numbers, sizes and fill the build reserved for them. No counter of
    /// `vfs` moves.
    ///
    /// # Errors
    ///
    /// The file system's, when `vfs` is not the one this catalog was built
    /// into or a path of the home was taken since.
    pub fn build_home(&self, vfs: &mut Vfs, user: usize) -> Result<(), FsError> {
        let user32 = u32::try_from(user).map_err(|_| FsError::InvalidArgument)?;
        if vfs.home_built(user) || user32 >= self.users {
            return Ok(());
        }
        let [homes, scratch, notes] = self.parents(vfs)?;
        let base = self.home_base(user32);
        let mut path = FileSystemCreator::user_dir(user);
        let name = last_component(&path);
        let home = vfs.place(homes, name, base, FileKind::Directory, 0, false)?;
        vfs.place(scratch, name, base + 1, FileKind::Directory, 0, false)?;
        let filled = self.fill == FillPattern::Pattern;
        for (at, idx) in self.home_files(user32).enumerate() {
            let (_, category, seq) = self.locate(idx);
            path.clear();
            push_path(&mut path, Some(user32), category, idx, seq);
            let (parent, kind) = match category.file_type {
                FileType::Dir => (home, FileKind::Directory),
                FileType::Reg => (home, FileKind::Regular),
                FileType::Notes => (notes, FileKind::Regular),
            };
            let (name, number) = (last_component(&path), base + 2 + at as u64);
            vfs.place(parent, name, number, kind, self.sizes[idx], filled)?;
        }
        Ok(())
    }

    /// Drops `user`'s home from `vfs` if it is built: everything
    /// [`Self::build_home`] built, and everything created inside the home
    /// and scratch directories since, goes, while its inode numbers and
    /// data blocks stay counted as used, as if it still stood
    /// ([`Vfs::retire`]).
    pub fn drop_home(&self, vfs: &mut Vfs, user: usize) {
        if !vfs.home_built(user) {
            return;
        }
        if let Ok([homes, scratch, notes]) = self.parents(vfs) {
            let user32 = user as u32;
            let mut path = FileSystemCreator::user_dir(user);
            vfs.retire(homes, last_component(&path));
            vfs.retire(scratch, last_component(&path));
            for idx in self.home_files(user32) {
                let (_, category, seq) = self.locate(idx);
                if category.file_type == FileType::Notes {
                    path.clear();
                    push_path(&mut path, Some(user32), category, idx, seq);
                    vfs.retire(notes, last_component(&path));
                }
            }
        }
        vfs.drop_home(user);
    }

    /// Whether catalog file `idx` lives in a user's home.
    pub fn in_home(&self, idx: usize) -> bool {
        idx >= self.shared.files as usize
    }

    /// The catalog indices of `user`'s files.
    fn home_files(&self, user: u32) -> std::ops::Range<usize> {
        let per_user = self.personal.files as usize;
        let first = self.shared.files as usize + user as usize * per_user;
        first..first + per_user
    }

    /// The directories homes are built in: `/u`, `/tmp` and `/notes`.
    fn parents(&self, vfs: &Vfs) -> Result<[uswg_vfs::Ino; 3], FsError> {
        Ok([
            vfs.resolve("/u")?,
            vfs.resolve("/tmp")?,
            vfs.resolve(creator::NOTES)?,
        ])
    }

    /// Per-category summary: `(count, mean size)` over every file.
    pub fn characterize(&self) -> HashMap<FileCategory, (usize, f64)> {
        let mut out: HashMap<FileCategory, (usize, f64)> = HashMap::new();
        for f in self.files() {
            let entry = out.entry(f.category).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += f.size as f64;
        }
        for (_, entry) in out.iter_mut() {
            if entry.0 > 0 {
                entry.1 /= entry.0 as f64;
            }
        }
        out
    }
}

/// Appends the path a build gives file `idx`, the `seq`-th of its run of
/// `category` under `owner_user`: `"{dir}/{stem}{idx:05}_{seq:04}"`.
pub(crate) fn push_path(
    out: &mut String,
    owner_user: Option<u32>,
    category: FileCategory,
    idx: usize,
    seq: u32,
) {
    use std::fmt::Write as _;
    let stem = match category.file_type {
        FileType::Dir => "dir",
        FileType::Reg => "file",
        FileType::Notes => "note",
    };
    match (category.file_type, owner_user) {
        (FileType::Notes, _) => out.push_str(creator::NOTES),
        (_, None) => out.push_str(creator::SYSTEM),
        (_, Some(user)) => crate::FileSystemCreator::push_user_dir(out, user as usize),
    }
    write!(out, "/{stem}{idx:05}_{seq:04}").expect("String write");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn a_file_record_is_32_bytes() {
        assert!(std::mem::size_of::<CatalogFile>() <= 32);
    }

    #[test]
    fn user_files_are_private() {
        let cat = FileCategory::REG_USER_RDONLY;
        let c = FileCatalog::from_plan(&[], &[(cat, 1)], 2, vec![100; 2], vec![], 5);
        assert_eq!(c.candidates(0, cat).collect::<Vec<_>>(), [0]);
        assert_eq!(c.candidates(1, cat).collect::<Vec<_>>(), [1]);
        assert_eq!(c.file(1).owner_user, Some(1));
        // User 1's home is the run 8, 9, 10: directories, then its file.
        assert_eq!(c.file(1).ino, 10);
        assert_eq!(c.path(1), "/u/user001/file00001_0000");
        assert_eq!(c.candidates(2, cat).len(), 0, "no such user");
    }

    #[test]
    fn shared_files_are_visible_to_all() {
        let cat = FileCategory::REG_OTHER_RDONLY;
        let c = FileCatalog::from_plan(&[(cat, 1)], &[], 0, vec![100], vec![0], 1);
        assert_eq!(c.candidates(0, cat).collect::<Vec<_>>(), [0]);
        assert_eq!(c.candidates(7, cat).collect::<Vec<_>>(), [0]);
        assert_eq!(c.path(0), "/system/file00000_0000");
    }

    #[test]
    fn pick_returns_none_when_empty() {
        let c = FileCatalog::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        assert!(c.pick(0, FileCategory::REG_USER_RDONLY, &mut rng).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn pick_covers_all_candidates() {
        let cat = FileCategory::NOTES_OTHER_RDONLY;
        let c = FileCatalog::from_plan(&[(cat, 4)], &[], 0, vec![10; 4], vec![0, 1, 2, 3], 4);
        assert_eq!(c.path(3), "/notes/note00003_0003");
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(c.pick(0, cat, &mut rng).unwrap());
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn characterize_means() {
        let cat = FileCategory::REG_USER_RDONLY;
        let c = FileCatalog::from_plan(&[], &[(cat, 2)], 1, vec![100, 300], vec![], 0);
        let summary = c.characterize();
        let (count, mean) = summary[&cat];
        assert_eq!(count, 2);
        assert!((mean - 200.0).abs() < 1e-12);
    }
}
