//! The file catalog: the FSC's output, consumed by the User Simulator.

use crate::{AliasTable, FileCategory};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One file created by the FSC (or registered later by the USIM for files
/// users create themselves).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CatalogFile {
    /// Absolute path in the synthetic file system.
    pub path: String,
    /// Inode number in the VFS.
    pub ino: u64,
    /// Size at creation time, bytes.
    pub size: u64,
    /// The file's category.
    pub category: FileCategory,
    /// Owning virtual user for `Owner::User` categories, `None` for shared.
    pub owner_user: Option<usize>,
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

/// One candidate list: the live catalog indices of one category for one
/// owner, with the alias sampler a weighted seal built over them.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct CandidateList {
    indices: Vec<usize>,
    /// `None` until a weighted seal, and again once the list is mutated:
    /// [`FileCatalog::pick`] then draws `u % n`, which is also exactly the
    /// uniform policy.
    alias: Option<AliasTable>,
}

/// One owner's candidate lists. An owner has a handful of categories, so a
/// linear scan beats hashing.
type OwnerLists = Vec<(FileCategory, CandidateList)>;

/// An index of the synthetic file population by `(user, category)`.
///
/// The User Simulator asks the catalog for candidate files: a user accessing
/// a `USER`-owned category draws from their own directory, a user accessing
/// an `OTHER`-owned category draws from the shared pool.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FileCatalog {
    files: Vec<CatalogFile>,
    /// Candidate lists of the shared files.
    shared: OwnerLists,
    /// Candidate lists of each user's own files, indexed by user.
    per_user: Vec<OwnerLists>,
    /// Whether [`FileCatalog::seal_with`] ran since the last mutation.
    sealed: bool,
}

impl FileCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// The lists `owner_user`'s files are indexed in, grown on demand.
    fn lists_mut(&mut self, owner_user: Option<usize>) -> &mut OwnerLists {
        match owner_user {
            Some(user) => {
                if self.per_user.len() <= user {
                    self.per_user.resize_with(user + 1, Vec::new);
                }
                &mut self.per_user[user]
            }
            None => &mut self.shared,
        }
    }

    /// Registers a file and indexes it. Returns its catalog index.
    pub fn add(&mut self, file: CatalogFile) -> usize {
        let idx = self.files.len();
        self.sealed = false;
        let lists = self.lists_mut(file.owner_user);
        let at = lists
            .iter()
            .position(|(cat, _)| *cat == file.category)
            .unwrap_or_else(|| {
                lists.push((file.category, CandidateList::default()));
                lists.len() - 1
            });
        let list = &mut lists[at].1;
        list.indices.push(idx);
        list.alias = None;
        self.files.push(file);
        idx
    }

    /// Removes a file from the index (e.g. after `unlink`). The entry stays
    /// in the backing vector so indices remain stable.
    pub fn remove(&mut self, idx: usize) {
        let Some(file) = self.files.get(idx) else {
            return;
        };
        let (owner_user, category) = (file.owner_user, file.category);
        self.sealed = false;
        let lists = self.lists_mut(owner_user);
        if let Some((_, list)) = lists.iter_mut().find(|(cat, _)| *cat == category) {
            list.indices.retain(|&i| i != idx);
            list.alias = None;
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
    /// Mutating the catalog afterwards unseals it and drops the touched
    /// list's table; re-seal to restore it.
    pub fn seal_with(&mut self, popularity: FilePopularity) {
        let files = &self.files;
        for (_, list) in self.per_user.iter_mut().flatten().chain(&mut self.shared) {
            let weighted = popularity != FilePopularity::Uniform && !list.indices.is_empty();
            list.alias = weighted.then(|| {
                AliasTable::new(&popularity.weights(files, &list.indices))
                    .expect("positive weights")
            });
        }
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

    fn list(&self, user: usize, category: FileCategory) -> Option<&CandidateList> {
        let lists = match category.owner {
            crate::Owner::User => self.per_user.get(user)?,
            crate::Owner::Other => &self.shared,
        };
        lists
            .iter()
            .find_map(|(cat, list)| (*cat == category).then_some(list))
    }

    /// Candidate file indices for `user` accessing `category`.
    pub fn candidates(&self, user: usize, category: FileCategory) -> &[usize] {
        self.list(user, category)
            .map_or(&[], |list| list.indices.as_slice())
    }

    /// Picks a random candidate for `user` × `category` under the policy
    /// the catalog was sealed with (uniform when unsealed).
    ///
    /// A weighted list answers through its alias table; a uniform, unsealed
    /// or since-mutated list draws modulo. Both consume one `next_u64`.
    pub fn pick(
        &self,
        user: usize,
        category: FileCategory,
        rng: &mut dyn RngCore,
    ) -> Option<usize> {
        let list = self.list(user, category)?;
        if list.indices.is_empty() {
            return None;
        }
        let i = match &list.alias {
            Some(table) => table.draw(rng),
            None => (rng.next_u64() % list.indices.len() as u64) as usize,
        };
        Some(list.indices[i])
    }

    /// Per-category summary: `(count, mean size)` over indexed (live) files.
    pub fn characterize(&self) -> HashMap<FileCategory, (usize, f64)> {
        let mut out: HashMap<FileCategory, (usize, f64)> = HashMap::new();
        let lists = self.per_user.iter().flatten().chain(&self.shared);
        for &idx in lists.flat_map(|(_, list)| &list.indices) {
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

    fn file(cat: FileCategory, user: Option<usize>, size: u64, n: usize) -> CatalogFile {
        CatalogFile {
            path: format!("/f{n}"),
            ino: n as u64,
            size,
            category: cat,
            owner_user: user,
        }
    }

    #[test]
    fn user_files_are_private() {
        let mut c = FileCatalog::new();
        c.add(file(FileCategory::REG_USER_RDONLY, Some(0), 100, 0));
        c.add(file(FileCategory::REG_USER_RDONLY, Some(1), 100, 1));
        assert_eq!(c.candidates(0, FileCategory::REG_USER_RDONLY), &[0]);
        assert_eq!(c.candidates(1, FileCategory::REG_USER_RDONLY), &[1]);
    }

    #[test]
    fn shared_files_are_visible_to_all() {
        let mut c = FileCatalog::new();
        c.add(file(FileCategory::REG_OTHER_RDONLY, None, 100, 0));
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
            c.add(file(FileCategory::NOTES_OTHER_RDONLY, None, 10, n));
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
        let idx = c.add(file(FileCategory::REG_USER_TEMP, Some(0), 10, 0));
        assert_eq!(c.candidates(0, FileCategory::REG_USER_TEMP).len(), 1);
        c.remove(idx);
        assert!(c.candidates(0, FileCategory::REG_USER_TEMP).is_empty());
        assert_eq!(c.len(), 1, "record is retained for stable indices");
        c.remove(999); // out of range is a no-op
    }

    #[test]
    fn characterize_means() {
        let mut c = FileCatalog::new();
        c.add(file(FileCategory::REG_USER_RDONLY, Some(0), 100, 0));
        c.add(file(FileCategory::REG_USER_RDONLY, Some(0), 300, 1));
        let summary = c.characterize();
        let (count, mean) = summary[&FileCategory::REG_USER_RDONLY];
        assert_eq!(count, 2);
        assert!((mean - 200.0).abs() < 1e-12);
    }
}
