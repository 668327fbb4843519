//! The file catalog: the FSC's output, consumed by the User Simulator.
//!
//! A build creates its files in a fixed order: the shared runs, then for
//! each user, in user order, the same per-user runs, where a run is
//! `count` files of one category. So the catalog stores that plan — the
//! shared `(category, count)` runs, the per-user runs and the user count —
//! and per file only what the plan cannot say: its size (`u64`) and its
//! inode number (`u32`), 12 bytes. Everything else about catalog index
//! `idx` is arithmetic on the plan: the owner, the category, the file's
//! place `seq` in its run, its path `"{dir}/{stem}{idx:05}_{seq:04}"`
//! ([`FileCatalog::write_path`]), and the candidate list of `(user,
//! category)` — the files of that category in the owner's block, in
//! index order (one run, or several when a spec names a category twice).
//! [`FileSystemCreator::build`](crate::FileSystemCreator::build) refuses,
//! before it creates anything, a plan whose file count or inode numbers do
//! not fit `u32`.

use crate::{creator, AliasTable, FileCategory, FileType, Owner};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

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
    inos: Vec<u32>,
    /// One table per list after a weighted seal — the shared pool's lists,
    /// then each user's — else empty: [`FileCatalog::pick`] then draws
    /// `u % n`, the uniform policy exactly.
    aliases: Vec<AliasTable>,
    /// Whether [`FileCatalog::seal_with`] ran.
    sealed: bool,
}

impl FileCatalog {
    /// The catalog of a build that created the `shared` runs, then the
    /// `personal` runs for each of `users` users, with the files' sizes and
    /// inode numbers in creation order. Unsealed.
    ///
    /// # Panics
    ///
    /// Panics unless `sizes` and `inos` hold one entry per planned file.
    pub fn from_plan(
        shared: &[(FileCategory, u32)],
        personal: &[(FileCategory, u32)],
        users: u32,
        sizes: Vec<u64>,
        inos: Vec<u32>,
    ) -> Self {
        let (shared, personal) = (Runs::new(shared), Runs::new(personal));
        let planned = u64::from(shared.files) + u64::from(users) * u64::from(personal.files);
        let lens = [sizes.len(), inos.len()].map(|len| len as u64);
        assert_eq!(
            lens, [planned; 2],
            "a size and an inode number per planned file"
        );
        Self {
            shared,
            personal,
            users,
            sizes,
            inos,
            aliases: Vec::new(),
            sealed: false,
        }
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
        CatalogFile {
            ino: u64::from(self.inos[idx]),
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
        let c = FileCatalog::from_plan(&[], &[(cat, 1)], 2, vec![100; 2], vec![0, 1]);
        assert_eq!(c.candidates(0, cat).collect::<Vec<_>>(), [0]);
        assert_eq!(c.candidates(1, cat).collect::<Vec<_>>(), [1]);
        assert_eq!(c.file(1).owner_user, Some(1));
        assert_eq!(c.path(1), "/u/user001/file00001_0000");
        assert_eq!(c.candidates(2, cat).len(), 0, "no such user");
    }

    #[test]
    fn shared_files_are_visible_to_all() {
        let cat = FileCategory::REG_OTHER_RDONLY;
        let c = FileCatalog::from_plan(&[(cat, 1)], &[], 0, vec![100], vec![0]);
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
        let c = FileCatalog::from_plan(&[(cat, 4)], &[], 0, vec![10; 4], vec![0, 1, 2, 3]);
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
        let c = FileCatalog::from_plan(&[], &[(cat, 2)], 1, vec![100, 300], vec![0, 1]);
        let summary = c.characterize();
        let (count, mean) = summary[&cat];
        assert_eq!(count, 2);
        assert!((mean - 200.0).abs() < 1e-12);
    }
}
