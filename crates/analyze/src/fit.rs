//! Trace fitting: the streaming accumulators behind `uswg fit`.
//!
//! [`collect_fit`] reads a spill capture twice — session records first (to
//! learn which user belongs to which user type), then op records — and
//! folds both passes into a [`FitObservation`]: per-user-type op-mix
//! counts, bounded reservoir samples of every usage measure the paper's
//! workload model parameterizes (access size, op interarrival, think time,
//! session length, inter-session gap), per-category usage aggregates and
//! the distinct-file geometry of the capture. Both passes go through
//! [`scan::visit_path`](crate::scan::visit_path): with a frame index and a
//! window they seek straight to the overlapping frames; without one they
//! stream the whole file through the same record-level window filter.
//!
//! Memory follows what the capture holds, never its largest id: the
//! session pass keeps one map entry per distinct user, which the first op
//! record freezes into columns indexed by the user's rank in ascending id
//! order (80 B per user), and the op pass adds one entry per distinct file
//! plus the files of each user's largest session. At 10⁵–2·10⁵ users of
//! `specs/million-user.json` `uswg fit`'s resident set grows by about
//! 107 B per user in all.
//!
//! This module only *collects*; it never fits. `uswg-core` runs the
//! `uswg-distr` fitters over the reservoirs and emits the runnable
//! `WorkloadSpec`, so `uswg-analyze` stays independent of the distribution
//! engine.

use crate::scan::{visit_path, Coverage, ScanOptions};
use crate::StreamingSummary;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io;
use std::mem::take;
use std::path::Path;
use uswg_fsc::FileCategory;
use uswg_netfs::OpKind;
use uswg_usim::{OpRecord, Overflow, SessionRecord, SpillReader, SpillRecord, TotalsOverflow};

/// Default bound on every reservoir the collector keeps: large enough that
/// KS distances against it resolve to ~0.5%, small enough that a fit pass
/// over a billion-op capture stays in tens of megabytes.
pub const DEFAULT_RESERVOIR_CAP: usize = 65_536;

/// A bounded uniform sample of a value stream (Vitter's algorithm R),
/// driven by a fixed-seed xorshift64* generator so the same capture always
/// collects the same sample — and therefore always fits to the same spec.
#[derive(Debug, Clone)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    state: u64,
    samples: Vec<f64>,
}

impl Reservoir {
    /// An empty reservoir holding at most `cap` samples.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "reservoir capacity must be positive");
        Self {
            cap,
            seen: 0,
            state: 0x9E37_79B9_7F4A_7C15,
            samples: Vec::new(),
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Offers one value: kept outright while below capacity, then replaces
    /// a random held sample with probability `cap / seen`.
    pub fn push(&mut self, value: f64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(value);
        } else {
            let j = self.next_u64() % self.seen;
            if (j as usize) < self.cap {
                self.samples[j as usize] = value;
            }
        }
    }

    /// The held samples (at most the capacity), in no particular order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Values offered so far, held or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no value has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

impl Default for Reservoir {
    fn default() -> Self {
        Self::new(DEFAULT_RESERVOIR_CAP)
    }
}

/// Per-category usage aggregate of one user type: the observed counterpart
/// of a Table 5.2 `CategoryUsage` row.
#[derive(Debug, Clone)]
pub struct CategoryAggregate {
    /// The file category.
    pub category: FileCategory,
    /// Sessions of the type that touched the category at all.
    pub sessions: u64,
    /// File references summed over those sessions.
    pub files: u64,
    /// Referenced-file bytes summed over those sessions (largest size seen
    /// per file wins, since created files grow while written).
    pub file_bytes: u64,
    /// Bytes moved by reads and writes against the category.
    pub data_bytes: u64,
    /// Files referenced per touching session.
    pub files_per_session: Reservoir,
    /// Sizes of the referenced files, bytes.
    pub file_sizes: Reservoir,
}

impl CategoryAggregate {
    /// Mean bytes accessed per byte of file referenced (Figure 5.3's
    /// metric), 0 while nothing was referenced.
    pub fn access_per_byte(&self) -> f64 {
        if self.file_bytes == 0 {
            0.0
        } else {
            self.data_bytes as f64 / self.file_bytes as f64
        }
    }
}

/// Everything the fit pass measured about one user type.
#[derive(Debug, Clone)]
pub struct TypeObservation {
    /// The population's type index (from the session records).
    pub type_index: usize,
    /// Distinct users of this type seen in the window.
    pub users: usize,
    /// Sessions completed.
    pub sessions: u64,
    /// Ops classified to this type.
    pub ops: u64,
    /// Op counts indexed by position in [`OpKind::ALL`].
    pub op_mix: [u64; OpKind::ALL.len()],
    /// Transfer sizes of data ops, bytes.
    pub access_size: Reservoir,
    /// Issue-to-issue gaps between consecutive ops of a session, µs.
    pub interarrival: Reservoir,
    /// Completion-to-issue gaps between consecutive ops of a session
    /// (interarrival minus the previous op's response, floored at 0), µs —
    /// the paper's think time.
    pub think_time: Reservoir,
    /// Session lengths (`end − start`), µs.
    pub session_length: Reservoir,
    /// Per-user gaps between one session's end and the next one's start, µs.
    pub inter_session: Reservoir,
    /// Sessions per user of this type.
    pub sessions_per_user: StreamingSummary,
    /// Per-category aggregates, in category order.
    pub categories: Vec<CategoryAggregate>,
}

/// Distinct-file footprint of one category across the whole capture.
#[derive(Debug, Clone)]
pub struct CategoryFiles {
    /// The file category.
    pub category: FileCategory,
    /// Distinct files (inodes) observed.
    pub files: u64,
    /// Their sizes summed, bytes.
    pub bytes: u64,
    /// Their individual sizes, bytes.
    pub sizes: Reservoir,
}

/// The capture's file-system geometry: every distinct inode any op
/// touched, grouped per category — what `uswg-core` sizes the synthesized
/// file-system characterization and VFS limits from.
#[derive(Debug, Clone, Default)]
pub struct FileGeometry {
    /// Per-category footprints, in category order.
    pub categories: Vec<CategoryFiles>,
    /// Largest inode number observed.
    pub max_ino: u64,
    /// Largest single file size observed, bytes.
    pub max_file_size: u64,
    /// Distinct files observed.
    pub total_files: u64,
    /// Their sizes summed, bytes.
    pub total_bytes: u64,
}

/// The finished output of a fit collection pass.
#[derive(Debug, Clone)]
pub struct FitObservation {
    /// Per-user-type observations, ascending by type index.
    pub types: Vec<TypeObservation>,
    /// Distinct users seen in session records.
    pub users: usize,
    /// Session records folded.
    pub sessions: u64,
    /// Op records classified to a type.
    pub ops: u64,
    /// Op records whose user completed no session in the window — counted,
    /// never silently dropped.
    pub ops_unclassified: u64,
    /// The capture's distinct-file geometry.
    pub geometry: FileGeometry,
}

impl FitObservation {
    /// Whether the pass saw nothing at all (an empty window).
    pub fn is_empty(&self) -> bool {
        self.sessions == 0 && self.ops == 0 && self.ops_unclassified == 0
    }
}

/// Per-type accumulation state.
#[derive(Debug)]
struct TypeState {
    cap: usize,
    /// Distinct users seen under this type.
    users: usize,
    sessions: u64,
    ops: u64,
    op_mix: [u64; OpKind::ALL.len()],
    access_size: Reservoir,
    interarrival: Reservoir,
    think_time: Reservoir,
    session_length: Reservoir,
    inter_session: Reservoir,
    sessions_per_user: StreamingSummary,
    categories: BTreeMap<FileCategory, CatState>,
}

impl TypeState {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            users: 0,
            sessions: 0,
            ops: 0,
            op_mix: [0; OpKind::ALL.len()],
            access_size: Reservoir::new(cap),
            interarrival: Reservoir::new(cap),
            think_time: Reservoir::new(cap),
            session_length: Reservoir::new(cap),
            inter_session: Reservoir::new(cap),
            sessions_per_user: StreamingSummary::default(),
            categories: BTreeMap::new(),
        }
    }
}

#[derive(Debug)]
struct CatState {
    sessions: u64,
    files: u64,
    file_bytes: u64,
    data_bytes: u64,
    files_per_session: Reservoir,
    file_sizes: Reservoir,
}

impl CatState {
    fn new(cap: usize) -> Self {
        Self {
            sessions: 0,
            files: 0,
            file_bytes: 0,
            data_bytes: 0,
            files_per_session: Reservoir::new(cap),
            file_sizes: Reservoir::new(cap),
        }
    }
}

/// One user's in-flight session during the op pass. It is reset in place
/// at the user's next session, so its buffers are allocated once per user
/// and hold at most the distinct files of the user's largest session.
#[derive(Debug)]
struct SessionScratch {
    session: u32,
    /// `(at, response)` of the previous op in this session.
    last: Option<(u64, u64)>,
    /// Per category ever touched by the user, unordered until a flush sorts
    /// it; an entry with no sizes was not touched in this session.
    per_cat: Vec<(FileCategory, CatScratch)>,
}

impl SessionScratch {
    fn new(session: u32) -> Self {
        Self {
            session,
            last: None,
            per_cat: Vec::new(),
        }
    }
}

#[derive(Debug, Default)]
struct CatScratch {
    /// Referenced inode → largest size seen.
    sizes: HashMap<u64, u64>,
    data_bytes: u64,
}

/// What the session pass keeps of one user.
#[derive(Debug)]
struct UserSessions {
    /// Type index of the user's last session.
    ty: usize,
    sessions: u64,
    last_end: u64,
}

/// Pass 1's state, keyed as the session records name users and types.
#[derive(Debug, Default)]
struct SessionPass {
    users: BTreeMap<usize, UserSessions>,
    types: BTreeMap<usize, TypeState>,
    /// `(user, type)` of every type a user was seen under, for the users
    /// seen under more than one: each pair counts once in its type's users.
    mixed: BTreeSet<(usize, usize)>,
}

/// Pass 2's state: pass 1 frozen into columns indexed by user rank, the
/// user's position in ascending id order.
#[derive(Debug)]
struct UserColumns {
    /// Ascending user ids.
    ids: Vec<usize>,
    /// Per rank: the user's last type, as a position in `types`.
    ty: Vec<usize>,
    /// Per rank: sessions completed.
    sessions: Vec<u64>,
    /// Per rank: the in-flight session, from the user's first op on.
    scratch: Vec<Option<SessionScratch>>,
    /// `(type index, state)`, ascending by type index.
    types: Vec<(usize, TypeState)>,
}

impl UserColumns {
    fn freeze(pass: SessionPass) -> Self {
        let types: Vec<(usize, TypeState)> = pass.types.into_iter().collect();
        let n = pass.users.len();
        let mut ids = Vec::with_capacity(n);
        let (mut ty, mut sessions) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for (id, user) in pass.users {
            ids.push(id);
            let rank = types.binary_search_by_key(&user.ty, |&(index, _)| index);
            ty.push(rank.expect("type created in pass 1"));
            sessions.push(user.sessions);
        }
        Self {
            ids,
            ty,
            sessions,
            scratch: std::iter::repeat_with(|| None).take(n).collect(),
            types,
        }
    }

    /// The rank of `user`, `None` for a user with no session record.
    fn rank(&self, user: usize) -> Option<usize> {
        // O(1) when the ids are exactly `0..n`, as in every `run` capture.
        if self.ids.get(user) == Some(&user) {
            return Some(user);
        }
        self.ids.binary_search(&user).ok()
    }
}

/// The two-pass streaming accumulator: feed every session record (pass 1),
/// then every op record (pass 2), then [`finish`](Self::finish). Sessions
/// must come first — they carry the user → user-type mapping that
/// classifies the ops. Memory stays bounded by the reservoir capacity, the
/// distinct users in the session records (never the largest user id) and
/// the distinct files, never by the op count: 80 B per user in the op pass,
/// plus the files of each user's largest session.
#[derive(Debug)]
pub struct FitCollector {
    cap: usize,
    /// Pass 1's state, emptied when the first op record freezes it.
    pass: SessionPass,
    /// Pass 2's state, from the first op record on.
    columns: Option<UserColumns>,
    sessions: u64,
    ops_unclassified: u64,
    /// Distinct inode → (largest size seen, last category seen).
    files: HashMap<u64, (u64, FileCategory)>,
    /// A flushed category's `(inode, size)` pairs, sorted by inode; kept
    /// to reuse its buffer.
    by_ino: Vec<(u64, u64)>,
    /// Byte totals saturate rather than wrap; `finish` refuses them.
    overflow: Overflow,
}

impl Default for FitCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl FitCollector {
    /// A collector with the default reservoir capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RESERVOIR_CAP)
    }

    /// A collector whose reservoirs hold at most `cap` samples each.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap > 0, "reservoir capacity must be positive");
        Self {
            cap,
            pass: SessionPass::default(),
            columns: None,
            sessions: 0,
            ops_unclassified: 0,
            files: HashMap::new(),
            by_ino: Vec::new(),
            overflow: Overflow::default(),
        }
    }

    /// Folds one session record (pass 1).
    ///
    /// # Panics
    ///
    /// Panics if an op record was folded before it: the op pass classifies
    /// by the users the session pass saw, so it starts only once that ends.
    pub fn record_session(&mut self, s: &SessionRecord) {
        assert!(
            self.columns.is_none(),
            "FitCollector: a session record after the op pass began"
        );
        let pass = &mut self.pass;
        self.sessions += 1;
        let t = pass
            .types
            .entry(s.user_type)
            .or_insert_with(|| TypeState::new(self.cap));
        t.sessions += 1;
        t.session_length.push(s.end.saturating_sub(s.start) as f64);
        let user = pass.users.entry(s.user).or_insert(UserSessions {
            ty: s.user_type,
            sessions: 0,
            last_end: 0,
        });
        if user.sessions == 0 {
            t.users += 1;
        } else {
            // Sessions of one user are sequential; a start before the
            // previous end would be a malformed log, skipped rather than
            // recorded as a negative gap.
            if s.start >= user.last_end {
                t.inter_session.push((s.start - user.last_end) as f64);
            }
            if user.ty != s.user_type {
                pass.mixed.insert((s.user, user.ty));
                if pass.mixed.insert((s.user, s.user_type)) {
                    t.users += 1;
                }
                user.ty = s.user_type;
            }
        }
        user.sessions += 1;
        user.last_end = s.end;
    }

    /// Folds one op record (pass 2). Ops of users with no in-window
    /// session have no type to charge; they count as unclassified.
    pub fn record_op(&mut self, op: &OpRecord) {
        let entry = self.files.entry(op.ino).or_insert((0, op.category));
        entry.0 = entry.0.max(op.file_size);
        entry.1 = op.category;
        let users = self
            .columns
            .get_or_insert_with(|| UserColumns::freeze(take(&mut self.pass)));
        let Some(rank) = users.rank(op.user) else {
            self.ops_unclassified += 1;
            return;
        };
        let t = &mut users.types[users.ty[rank]].1;
        t.ops += 1;
        t.op_mix[op.op.index()] += 1;
        if op.op.is_data() && op.bytes > 0 {
            t.access_size.push(op.bytes as f64);
        }
        let scratch = users.scratch[rank].get_or_insert_with(|| SessionScratch::new(op.session));
        if scratch.session != op.session {
            Self::flush_scratch(t, scratch, &mut self.by_ino, &mut self.overflow);
            (scratch.session, scratch.last) = (op.session, None);
        }
        if let Some((last_at, last_resp)) = scratch.last {
            if op.at >= last_at {
                t.interarrival.push((op.at - last_at) as f64);
                t.think_time
                    .push(op.at.saturating_sub(last_at.saturating_add(last_resp)) as f64);
            }
        }
        scratch.last = Some((op.at, op.response));
        let per_cat = &mut scratch.per_cat;
        let i = per_cat.iter().position(|(c, _)| *c == op.category);
        let i = i.unwrap_or_else(|| {
            per_cat.push((op.category, CatScratch::default()));
            per_cat.len() - 1
        });
        let c = &mut per_cat[i].1;
        let size = c.sizes.entry(op.ino).or_insert(0);
        *size = (*size).max(op.file_size);
        if op.op.is_data() {
            self.overflow.add(&mut c.data_bytes, op.bytes);
        }
    }

    /// Folds a finished session into its type, in category order and, in
    /// each category, inode order, and empties it for the user's next.
    fn flush_scratch(
        t: &mut TypeState,
        done: &mut SessionScratch,
        by_ino: &mut Vec<(u64, u64)>,
        overflow: &mut Overflow,
    ) {
        let cap = t.cap;
        done.per_cat.sort_unstable_by_key(|&(category, _)| category);
        for (category, c) in &mut done.per_cat {
            if c.sizes.is_empty() {
                continue;
            }
            let cs = t
                .categories
                .entry(*category)
                .or_insert_with(|| CatState::new(cap));
            cs.sessions += 1;
            cs.files += c.sizes.len() as u64;
            overflow.add(&mut cs.data_bytes, take(&mut c.data_bytes));
            cs.files_per_session.push(c.sizes.len() as f64);
            by_ino.extend(c.sizes.drain());
            by_ino.sort_unstable_by_key(|&(ino, _)| ino);
            for (_, size) in by_ino.drain(..) {
                overflow.add(&mut cs.file_bytes, size);
                cs.file_sizes.push(size as f64);
            }
        }
    }

    /// Flushes the in-flight sessions and returns the observation.
    ///
    /// # Errors
    ///
    /// [`TotalsOverflow`] when a byte total of the records passed
    /// `u64::MAX`: a spec fitted from it would be wrong.
    pub fn finish(mut self) -> Result<FitObservation, TotalsOverflow> {
        let UserColumns {
            ty,
            sessions,
            scratch,
            mut types,
            ..
        } = self
            .columns
            .take()
            .unwrap_or_else(|| UserColumns::freeze(take(&mut self.pass)));
        let users = ty.len();
        for ((scratch, &ty), &count) in scratch.into_iter().zip(&ty).zip(&sessions) {
            let t = &mut types[ty].1;
            if let Some(mut scratch) = scratch {
                Self::flush_scratch(t, &mut scratch, &mut self.by_ino, &mut self.overflow);
            }
            t.sessions_per_user.push(count as f64);
        }
        let mut ops = 0;
        let types: Vec<TypeObservation> = types
            .into_iter()
            .map(|(type_index, t)| {
                ops += t.ops;
                TypeObservation {
                    type_index,
                    users: t.users,
                    sessions: t.sessions,
                    ops: t.ops,
                    op_mix: t.op_mix,
                    access_size: t.access_size,
                    interarrival: t.interarrival,
                    think_time: t.think_time,
                    session_length: t.session_length,
                    inter_session: t.inter_session,
                    sessions_per_user: t.sessions_per_user,
                    categories: t
                        .categories
                        .into_iter()
                        .map(|(category, c)| CategoryAggregate {
                            category,
                            sessions: c.sessions,
                            files: c.files,
                            file_bytes: c.file_bytes,
                            data_bytes: c.data_bytes,
                            files_per_session: c.files_per_session,
                            file_sizes: c.file_sizes,
                        })
                        .collect(),
                }
            })
            .collect();
        let mut files: Vec<(u64, (u64, FileCategory))> = self.files.into_iter().collect();
        files.sort_unstable_by_key(|&(ino, _)| ino);
        let mut geom: BTreeMap<FileCategory, CategoryFiles> = BTreeMap::new();
        let mut geometry = FileGeometry::default();
        for (ino, (size, category)) in files {
            geometry.max_ino = geometry.max_ino.max(ino);
            geometry.max_file_size = geometry.max_file_size.max(size);
            geometry.total_files += 1;
            self.overflow.add(&mut geometry.total_bytes, size);
            let cf = geom.entry(category).or_insert_with(|| CategoryFiles {
                category,
                files: 0,
                bytes: 0,
                sizes: Reservoir::new(self.cap),
            });
            cf.files += 1;
            self.overflow.add(&mut cf.bytes, size);
            cf.sizes.push(size as f64);
        }
        geometry.categories = geom.into_values().collect();
        self.overflow.check()?;
        Ok(FitObservation {
            types,
            users,
            sessions: self.sessions,
            ops,
            ops_unclassified: self.ops_unclassified,
            geometry,
        })
    }
}

/// The result of [`collect_fit`], with the frame accounting of the indexed
/// path (absent when the file was streamed without an index).
#[derive(Debug)]
pub struct FitOutcome {
    /// What the pass measured.
    pub observation: FitObservation,
    /// Frames in the file, per the index.
    pub frames_total: Option<usize>,
    /// Frames decoded per pass (selected by window, thinned by sampling).
    pub frames_decoded: Option<usize>,
}

/// Runs the two fit passes over the spill capture at `path` — either
/// codec — each through [`visit_path`], so fitting seeks or streams
/// exactly when `uswg analyze` would for the same options (and streams
/// footer-less pre-index captures through the same record filter). Each
/// pass skips the other record kind structurally, so a pass never decodes
/// the frames it doesn't need.
///
/// # Errors
///
/// Propagates open and decode errors. A truncated or corrupt capture
/// errors mid-pass; fitting never salvages, since a spec synthesized from
/// a partial read would silently misrepresent the workload. A capture
/// whose byte totals pass `u64::MAX` is refused the same way
/// (`InvalidData` wrapping [`TotalsOverflow`]).
pub fn collect_fit<P: AsRef<Path>>(path: P, opts: &ScanOptions) -> io::Result<FitOutcome> {
    let path = path.as_ref();
    let mut collector = FitCollector::new();
    visit_path(path, opts, false, SpillReader::sessions_only, |record| {
        if let SpillRecord::Session(s) = record {
            collector.record_session(s);
        }
    })?;
    let pass = visit_path(path, opts, false, SpillReader::ops_only, |record| {
        if let SpillRecord::Op(op) = record {
            collector.record_op(op);
        }
    })?;
    let (frames_total, frames_decoded) = match pass.coverage {
        Coverage::Indexed { decoded, total } => (Some(total), Some(decoded)),
        Coverage::Full | Coverage::Filtered => (None, None),
    };
    Ok(FitOutcome {
        observation: collector.finish()?,
        frames_total,
        frames_decoded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(user: usize, session: u32, at: u64, kind: OpKind, bytes: u64) -> OpRecord {
        OpRecord {
            at,
            user,
            session,
            op: kind,
            ino: 1,
            bytes,
            file_size: 4096,
            response: 100,
            category: FileCategory::REG_USER_RDONLY,
            retries: 0,
            aborted: false,
        }
    }

    fn session(user: usize, user_type: usize, session: u32, start: u64, end: u64) -> SessionRecord {
        SessionRecord {
            user,
            user_type,
            session,
            start,
            end,
            ops: 1,
            files_referenced: 1,
            file_bytes_referenced: 4096,
            bytes_accessed: 100,
            bytes_read: 100,
            bytes_written: 0,
            total_response: 100,
        }
    }

    #[test]
    fn reservoir_below_capacity_keeps_everything() {
        let mut r = Reservoir::new(16);
        for i in 0..10 {
            r.push(i as f64);
        }
        assert_eq!(r.len(), 10);
        assert_eq!(r.seen(), 10);
        assert_eq!(r.samples(), (0..10).map(f64::from).collect::<Vec<_>>());
    }

    #[test]
    fn reservoir_bounds_memory_and_stays_deterministic() {
        let fill = |n: u64| {
            let mut r = Reservoir::new(64);
            for i in 0..n {
                r.push(i as f64);
            }
            r
        };
        let a = fill(100_000);
        assert_eq!(a.len(), 64);
        assert_eq!(a.seen(), 100_000);
        // Same stream → identical sample (no ambient randomness).
        let b = fill(100_000);
        assert_eq!(a.samples(), b.samples());
        // The sample is roughly uniform over the stream: its mean is near
        // the stream mean, not stuck at either end.
        let mean = a.samples().iter().sum::<f64>() / a.len() as f64;
        assert!((20_000.0..80_000.0).contains(&mean), "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn reservoir_rejects_zero_capacity() {
        let _ = Reservoir::new(0);
    }

    #[test]
    fn collector_classifies_ops_by_type_and_derives_gaps() {
        let mut c = FitCollector::new();
        // Two users of different types; user 9 has no session record.
        c.record_session(&session(0, 0, 0, 0, 10_000));
        c.record_session(&session(0, 0, 1, 15_000, 30_000));
        c.record_session(&session(1, 1, 0, 0, 20_000));
        // User 0, session 0: ops at 1000 and 1600 (response 100), so one
        // interarrival gap of 600 and one think gap of 500.
        c.record_op(&op(0, 0, 1_000, OpKind::Open, 0));
        c.record_op(&op(0, 0, 1_600, OpKind::Read, 256));
        // Session change resets the gap chain: no gap across sessions.
        c.record_op(&op(0, 1, 16_000, OpKind::Write, 512));
        c.record_op(&op(1, 0, 2_000, OpKind::Read, 128));
        c.record_op(&op(9, 0, 3_000, OpKind::Read, 64));

        let obs = c.finish().unwrap();
        assert_eq!(obs.users, 2);
        assert_eq!(obs.sessions, 3);
        assert_eq!(obs.ops, 4);
        assert_eq!(obs.ops_unclassified, 1);
        assert_eq!(obs.types.len(), 2);

        let t0 = &obs.types[0];
        assert_eq!(t0.type_index, 0);
        assert_eq!(t0.users, 1);
        assert_eq!(t0.sessions, 2);
        assert_eq!(t0.ops, 3);
        for kind in [OpKind::Open, OpKind::Read, OpKind::Write] {
            assert_eq!(t0.op_mix[kind.index()], 1);
        }
        assert_eq!(t0.access_size.samples(), &[256.0, 512.0]);
        assert_eq!(t0.interarrival.samples(), &[600.0]);
        assert_eq!(t0.think_time.samples(), &[500.0]);
        assert_eq!(t0.session_length.samples(), &[10_000.0, 15_000.0]);
        // Session 0 ends at 10_000, session 1 starts at 15_000.
        assert_eq!(t0.inter_session.samples(), &[5_000.0]);
        assert!((t0.sessions_per_user.summary().mean - 2.0).abs() < 1e-12);

        let t1 = &obs.types[1];
        assert_eq!(t1.type_index, 1);
        assert_eq!(t1.ops, 1);
        assert!(t1.interarrival.is_empty());
    }

    #[test]
    fn collector_aggregates_categories_and_geometry() {
        let mut c = FitCollector::new();
        c.record_session(&session(0, 0, 0, 0, 10_000));
        let mut o1 = op(0, 0, 100, OpKind::Read, 1_000);
        o1.ino = 10;
        o1.file_size = 8_192;
        let mut o2 = op(0, 0, 200, OpKind::Write, 500);
        o2.ino = 11;
        o2.file_size = 2_048;
        o2.category = FileCategory::REG_USER_RDWRT;
        // The same file again, grown: largest size wins, not double-counted.
        let mut o3 = op(0, 0, 300, OpKind::Write, 500);
        o3.ino = 11;
        o3.file_size = 4_096;
        o3.category = FileCategory::REG_USER_RDWRT;
        c.record_op(&o1);
        c.record_op(&o2);
        c.record_op(&o3);

        let obs = c.finish().unwrap();
        let cats = &obs.types[0].categories;
        assert_eq!(cats.len(), 2);
        let rdonly = cats
            .iter()
            .find(|c| c.category == FileCategory::REG_USER_RDONLY)
            .unwrap();
        assert_eq!(rdonly.files, 1);
        assert_eq!(rdonly.file_bytes, 8_192);
        assert_eq!(rdonly.data_bytes, 1_000);
        assert_eq!(rdonly.sessions, 1);
        assert!((rdonly.access_per_byte() - 1_000.0 / 8_192.0).abs() < 1e-12);
        let rdwr = cats
            .iter()
            .find(|c| c.category == FileCategory::REG_USER_RDWRT)
            .unwrap();
        assert_eq!(rdwr.files, 1);
        assert_eq!(rdwr.file_bytes, 4_096);
        assert_eq!(rdwr.data_bytes, 1_000);

        assert_eq!(obs.geometry.total_files, 2);
        assert_eq!(obs.geometry.total_bytes, 8_192 + 4_096);
        assert_eq!(obs.geometry.max_ino, 11);
        assert_eq!(obs.geometry.max_file_size, 8_192);
        assert_eq!(obs.geometry.categories.len(), 2);
    }

    #[test]
    fn an_order_preserving_relabel_of_the_users_changes_nothing() {
        let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/k1.spill");
        let log = uswg_usim::read_spill_path(golden).unwrap();
        let collect = |relabel: fn(usize) -> usize| {
            let mut c = FitCollector::new();
            for s in log.sessions() {
                c.record_session(&SessionRecord {
                    user: relabel(s.user),
                    ..*s
                });
            }
            for op in log.ops() {
                c.record_op(&OpRecord {
                    user: relabel(op.user),
                    ..*op
                });
            }
            format!("{:?}", c.finish().unwrap())
        };
        let dense = collect(|u| u);
        assert!(dense.contains("ops_unclassified: 0"), "{dense}");
        assert_eq!(collect(|u| u * 1_000_003 + 11), dense);
    }

    #[test]
    fn a_huge_user_id_costs_one_user() {
        let mut c = FitCollector::new();
        c.record_session(&session(usize::MAX - 1, 0, 0, 0, 10_000));
        c.record_op(&op(usize::MAX - 1, 0, 100, OpKind::Read, 64));
        c.record_op(&op(0, 0, 200, OpKind::Read, 64));
        let obs = c.finish().unwrap();
        assert_eq!((obs.users, obs.ops, obs.ops_unclassified), (1, 1, 1));
        assert_eq!(obs.types[0].users, 1);
    }

    #[test]
    fn ops_of_a_user_without_a_session_stay_unclassified() {
        let mut c = FitCollector::new();
        c.record_session(&session(5, 0, 0, 0, 10_000));
        c.record_session(&session(9, 0, 0, 0, 10_000));
        for user in [0, 5, 7, 9, 10, usize::MAX] {
            c.record_op(&op(user, 0, 100, OpKind::Read, 64));
        }
        let obs = c.finish().unwrap();
        assert_eq!((obs.users, obs.ops, obs.ops_unclassified), (2, 2, 4));
    }

    #[test]
    fn a_user_seen_under_two_types_counts_once_in_each() {
        let mut c = FitCollector::new();
        c.record_session(&session(3, 0, 0, 0, 1_000));
        c.record_session(&session(3, 1, 1, 2_000, 3_000));
        c.record_session(&session(3, 0, 2, 4_000, 5_000));
        c.record_session(&session(4, 1, 0, 0, 1_000));
        // User 3's ops go to its last type, 0.
        c.record_op(&op(3, 2, 4_100, OpKind::Read, 64));
        let obs = c.finish().unwrap();
        assert_eq!(obs.users, 2);
        let users: Vec<_> = obs
            .types
            .iter()
            .map(|t| (t.users, t.sessions, t.ops))
            .collect();
        assert_eq!(users, [(1, 2, 1), (2, 2, 0)]);
        // Sessions per user go to the last type: user 3's three to type 0.
        assert_eq!(obs.types[0].sessions_per_user.summary().n, 1);
        assert!((obs.types[0].sessions_per_user.summary().mean - 3.0).abs() < 1e-12);
        // Gaps follow the user across types: 1_000 into type 1, the next into 0.
        assert_eq!(obs.types[1].inter_session.samples(), &[1_000.0]);
        assert_eq!(obs.types[0].inter_session.samples(), &[1_000.0]);
    }

    #[test]
    fn a_session_flushes_its_files_in_inode_order() {
        let mut c = FitCollector::new();
        c.record_session(&session(0, 0, 0, 0, 10_000_000));
        c.record_session(&session(0, 0, 1, 10_000_000, 20_000_000));
        let files = 10_000u64;
        for (i, ino) in (1..=files).rev().enumerate() {
            let mut o = op(0, 0, i as u64, OpKind::Read, 1);
            (o.ino, o.file_size) = (ino, ino);
            c.record_op(&o);
        }
        // The next session flushes the first; the second flushes at finish.
        let mut last = op(0, 1, 10_000_001, OpKind::Read, 1);
        (last.ino, last.file_size) = (files + 1, files + 1);
        c.record_op(&last);
        let obs = c.finish().unwrap();
        let cat = &obs.types[0].categories[0];
        let ascending: Vec<f64> = (1..=files + 1).map(|ino| ino as f64).collect();
        assert_eq!(cat.file_sizes.samples(), &ascending[..]);
        assert_eq!(cat.files_per_session.samples(), &[files as f64, 1.0]);
        assert_eq!(obs.geometry.categories[0].sizes.samples(), &ascending[..]);
    }

    #[test]
    fn empty_observation_is_detected() {
        let obs = FitCollector::new().finish().unwrap();
        assert!(obs.is_empty());
        assert!(obs.types.is_empty());
        let mut c = FitCollector::new();
        c.record_op(&op(5, 0, 0, OpKind::Read, 1));
        assert!(!c.finish().unwrap().is_empty());
    }
}
