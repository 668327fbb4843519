//! The file catalog: the FSC's output, consumed by the User Simulator.
//!
//! At population scale the catalog is millions of small facts, so it is six
//! flat vectors and no file, list or owner has a heap block of its own:
//! `files` (one 32-byte `Copy` record per file), `paths` + `path_ends` (every path
//! back to back, and where each ends), `candidates` (every candidate list
//! back to back: live indices, ascending), `lists` (per list its category
//! and its run of `candidates`; one owner's lists are adjacent) and
//! `owner_lists` (per owner slot — 0 is the shared pool, `u + 1` user `u` —
//! where its lists start). Offsets and owners are `u32`;
//! [`FileSystemCreator::build`](crate::FileSystemCreator::build) refuses a
//! plan they cannot address, and reserves the three per-file vectors at
//! their final length before it adds the first file.
//!
//! [`FileCatalog::add`] is an O(1) append when files arrive as the FSC
//! builds them: into the list of the previous `add`, or a new list of that
//! owner or a later one. Any other `add`, and every
//! [`FileCatalog::remove`], re-derives the index in O(files log files), to
//! the same candidate lists in the same order; only tests take that path.

use crate::{AliasTable, FileCategory, Owner};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One file created by the FSC. The catalog keeps its path
/// ([`FileCatalog::path`]).
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

    /// The weight vector this policy assigns to `candidates` (catalog
    /// indices, in list order). The analytic ground truth the chi-square
    /// goodness-of-fit tests compare empirical pick frequencies against.
    pub fn weights(self, files: &[CatalogFile], candidates: &[usize]) -> Vec<f64> {
        match self {
            FilePopularity::Uniform => vec![1.0; candidates.len()],
            FilePopularity::SizeWeighted => candidates
                .iter()
                .map(|&idx| files[idx].size.max(1) as f64)
                .collect(),
            FilePopularity::Zipf { exponent } => (0..candidates.len())
                .map(|r| ((r + 1) as f64).powf(-exponent))
                .collect(),
        }
    }
}

/// One candidate list: its category and its run of `candidates`, never
/// empty (a list whose last file is removed goes with it).
#[derive(Debug, Clone, Copy)]
struct List {
    category: FileCategory,
    start: u32,
    len: u32,
}

impl List {
    fn run<'c>(&self, candidates: &'c [usize]) -> &'c [usize] {
        &candidates[self.start as usize..][..self.len as usize]
    }
}

/// The owner slot a file is indexed under.
fn slot(owner_user: Option<u32>) -> usize {
    owner_user.map_or(0, |user| user as usize + 1)
}

/// Narrows a count of files, lists or path bytes to a stored offset.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("a catalog holds at most u32::MAX files and path bytes")
}

/// An index of the synthetic file population by `(user, category)`.
///
/// The User Simulator asks the catalog for candidate files: a user accessing
/// a `USER`-owned category draws from their own directory, a user accessing
/// an `OTHER`-owned category draws from the shared pool. The layout is
/// described at the top of this file.
#[derive(Debug, Clone, Default)]
pub struct FileCatalog {
    files: Vec<CatalogFile>,
    paths: String,
    path_ends: Vec<u32>,
    candidates: Vec<usize>,
    lists: Vec<List>,
    owner_lists: Vec<u32>,
    /// One table per list after a weighted seal, else empty:
    /// [`FileCatalog::pick`] then draws `u % n`, the uniform policy exactly.
    aliases: Vec<AliasTable>,
    /// Whether [`FileCatalog::seal_with`] ran since the last mutation.
    sealed: bool,
}

impl FileCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a file under `path` and indexes it. Returns its catalog
    /// index. Panics past `u32::MAX` files or path bytes.
    pub fn add(&mut self, path: &str, file: CatalogFile) -> usize {
        let idx = self.files.len();
        self.files.push(file);
        self.paths.push_str(path);
        self.path_ends.push(offset(self.paths.len()));
        self.unseal();
        if !self.append(idx) {
            self.reindex(|live| live.push(idx));
        }
        idx
    }

    /// Makes room for `files` more files in the per-file vectors, with no
    /// slack.
    pub(crate) fn try_reserve(&mut self, files: usize) -> Result<(), crate::FscError> {
        fn exact<T>(v: &mut Vec<T>, n: usize, table: &'static str) -> Result<(), crate::FscError> {
            let bytes = (n as u64).saturating_mul(std::mem::size_of::<T>() as u64);
            (v.try_reserve_exact(n)).map_err(|_| crate::FscError::Reserve { table, bytes })
        }
        exact(&mut self.files, files, "catalog's file records")?;
        exact(&mut self.path_ends, files, "catalog's path ends")?;
        exact(&mut self.candidates, files, "catalog's candidate index")
    }

    fn unseal(&mut self) {
        self.sealed = false;
        self.aliases.clear();
    }

    /// Indexes file `idx` in place if it arrives in build order: into the
    /// last list, or a new list of the last owner or a later one.
    fn append(&mut self, idx: usize) -> bool {
        let file = self.files[idx];
        let slot = slot(file.owner_user);
        if slot + 1 < self.owner_lists.len() {
            return false; // an earlier owner
        }
        let first = match self.owner_lists.get(slot) {
            Some(&first) => first as usize,
            None => self.lists.len(),
        };
        let mut own = self.lists[first..].iter();
        match own.position(|list| list.category == file.category) {
            Some(at) if first + at + 1 < self.lists.len() => return false, // an earlier list
            Some(_) => self.lists.last_mut().expect("just found").len += 1,
            None => {
                let owners = self.owner_lists.len().max(slot + 1);
                self.owner_lists.resize(owners, offset(self.lists.len()));
                self.lists.push(List {
                    category: file.category,
                    start: offset(self.candidates.len()),
                    len: 1,
                });
            }
        }
        self.candidates.push(idx);
        true
    }

    /// Re-derives the index over the live files as `change` leaves them, by
    /// appending them in an order that is build order.
    fn reindex(&mut self, change: impl FnOnce(&mut Vec<usize>)) {
        let mut live = std::mem::take(&mut self.candidates);
        change(&mut live);
        let files = &self.files;
        live.sort_unstable_by_key(|&idx| (slot(files[idx].owner_user), files[idx].category, idx));
        self.lists.clear();
        self.owner_lists.clear();
        for idx in live {
            let appended = self.append(idx);
            debug_assert!(appended, "sorted by owner, then category");
        }
    }

    /// Removes a file from the index (e.g. after `unlink`). The entry stays
    /// in the backing vector so indices remain stable.
    pub fn remove(&mut self, idx: usize) {
        if idx < self.files.len() {
            self.unseal();
            self.reindex(|live| live.retain(|&i| i != idx));
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
    /// Mutating the catalog afterwards unseals it and drops the tables;
    /// re-seal to restore them. A sealed catalog is expected to stay as it
    /// is, so its vectors give back their spare capacity.
    pub fn seal_with(&mut self, popularity: FilePopularity) {
        self.aliases.clear();
        if popularity != FilePopularity::Uniform {
            let tables = self.lists.iter().map(|list| {
                let weights = popularity.weights(&self.files, list.run(&self.candidates));
                AliasTable::new(&weights).expect("positive weights")
            });
            self.aliases.extend(tables);
        }
        self.files.shrink_to_fit();
        self.paths.shrink_to_fit();
        self.path_ends.shrink_to_fit();
        self.candidates.shrink_to_fit();
        self.lists.shrink_to_fit();
        self.owner_lists.shrink_to_fit();
        self.sealed = true;
    }

    /// Whether the catalog has been sealed since it was last mutated.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// All registered files (including removed ones; see [`Self::remove`]).
    pub fn files(&self) -> &[CatalogFile] {
        &self.files
    }

    /// Number of registered files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the catalog has no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// The file at a catalog index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn file(&self, idx: usize) -> &CatalogFile {
        &self.files[idx]
    }

    /// The absolute path of the file at a catalog index; panics like
    /// [`Self::file`].
    pub fn path(&self, idx: usize) -> &str {
        let start = idx.checked_sub(1).map_or(0, |prev| self.path_ends[prev]);
        &self.paths[start as usize..self.path_ends[idx] as usize]
    }

    /// The list `user` draws `category` from, with its list number.
    fn list(&self, user: usize, category: FileCategory) -> Option<(usize, &List)> {
        let slot = match category.owner {
            Owner::User => user + 1,
            Owner::Other => 0,
        };
        let first = *self.owner_lists.get(slot)? as usize;
        let end = (self.owner_lists.get(slot + 1)).map_or(self.lists.len(), |&at| at as usize);
        let at = first + (self.lists[first..end].iter()).position(|l| l.category == category)?;
        Some((at, &self.lists[at]))
    }

    /// Candidate file indices for `user` accessing `category`.
    pub fn candidates(&self, user: usize, category: FileCategory) -> &[usize] {
        self.list(user, category)
            .map_or(&[], |(_, list)| list.run(&self.candidates))
    }

    /// Picks a random candidate for `user` × `category` under the policy
    /// the catalog was sealed with (uniform when unsealed).
    ///
    /// After a weighted seal a list answers through its alias table; a
    /// uniform, unsealed or since-mutated catalog draws modulo. Both
    /// consume one `next_u64`.
    pub fn pick(
        &self,
        user: usize,
        category: FileCategory,
        rng: &mut dyn RngCore,
    ) -> Option<usize> {
        let (at, list) = self.list(user, category)?;
        let run = list.run(&self.candidates);
        let i = match self.aliases.get(at) {
            Some(table) => table.draw(rng),
            None => (rng.next_u64() % run.len() as u64) as usize,
        };
        Some(run[i])
    }

    /// Per-category summary: `(count, mean size)` over indexed (live) files.
    pub fn characterize(&self) -> HashMap<FileCategory, (usize, f64)> {
        let mut out: HashMap<FileCategory, (usize, f64)> = HashMap::new();
        for &idx in &self.candidates {
            let f = &self.files[idx];
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn file(cat: FileCategory, user: Option<u32>, size: u64, n: usize) -> CatalogFile {
        CatalogFile {
            ino: n as u64,
            size,
            category: cat,
            owner_user: user,
        }
    }

    #[test]
    fn a_file_record_is_32_bytes() {
        assert!(std::mem::size_of::<CatalogFile>() <= 32);
    }

    #[test]
    fn user_files_are_private() {
        let mut c = FileCatalog::new();
        c.add("/f0", file(FileCategory::REG_USER_RDONLY, Some(0), 100, 0));
        c.add("/f1", file(FileCategory::REG_USER_RDONLY, Some(1), 100, 1));
        assert_eq!(c.candidates(0, FileCategory::REG_USER_RDONLY), &[0]);
        assert_eq!(c.candidates(1, FileCategory::REG_USER_RDONLY), &[1]);
    }

    #[test]
    fn shared_files_are_visible_to_all() {
        let mut c = FileCatalog::new();
        c.add("/f0", file(FileCategory::REG_OTHER_RDONLY, None, 100, 0));
        assert_eq!(c.candidates(0, FileCategory::REG_OTHER_RDONLY), &[0]);
        assert_eq!(c.candidates(7, FileCategory::REG_OTHER_RDONLY), &[0]);
    }

    #[test]
    fn pick_returns_none_when_empty() {
        let c = FileCatalog::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        assert!(c.pick(0, FileCategory::REG_USER_RDONLY, &mut rng).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn pick_covers_all_candidates() {
        let mut c = FileCatalog::new();
        for n in 0..4 {
            c.add(
                &format!("/f{n}"),
                file(FileCategory::NOTES_OTHER_RDONLY, None, 10, n),
            );
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(
                c.pick(0, FileCategory::NOTES_OTHER_RDONLY, &mut rng)
                    .unwrap(),
            );
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn remove_hides_from_candidates_but_keeps_record() {
        let mut c = FileCatalog::new();
        let idx = c.add("/f0", file(FileCategory::REG_USER_TEMP, Some(0), 10, 0));
        assert_eq!(c.candidates(0, FileCategory::REG_USER_TEMP).len(), 1);
        c.remove(idx);
        assert!(c.candidates(0, FileCategory::REG_USER_TEMP).is_empty());
        assert_eq!(c.len(), 1, "record is retained for stable indices");
        c.remove(999); // out of range is a no-op
    }

    #[test]
    fn characterize_means() {
        let mut c = FileCatalog::new();
        c.add("/f0", file(FileCategory::REG_USER_RDONLY, Some(0), 100, 0));
        c.add("/f1", file(FileCategory::REG_USER_RDONLY, Some(0), 300, 1));
        let summary = c.characterize();
        let (count, mean) = summary[&FileCategory::REG_USER_RDONLY];
        assert_eq!(count, 2);
        assert!((mean - 200.0).abs() < 1e-12);
    }
}
