//! What `generate_fs` leaves on the heap per additional user, as a gate: at
//! population scale the file system is the program's memory (ROADMAP
//! Direction 4). Measured with a counting allocator in the
//! `specs/million-user.json` shape that the `wide_local` benchmark workload
//! and CI's `million-user-smoke` run (a directory and two sparse files per
//! home, 120 shared files), and so are what a built home costs, what its
//! drop gives back, and the high-water mark the build passes on its way.
//! One test in its own binary: nothing else allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};
use uswg_core::{FillPattern, SeekFrom, Vfs, VfsConfig, WorkloadSpec};

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static LIVE_BLOCKS: AtomicIsize = AtomicIsize::new(0);
/// The most `LIVE_BYTES` has been since it was last reset.
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, counting requested bytes and blocks and tracking
/// the high-water mark of the bytes. `realloc` is the trait's default,
/// which goes through `alloc` and `dealloc`, so a growing vector counts its
/// old and new buffers at once.
struct Counting;

// SAFETY: both calls are forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are statistics and guard no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let size = layout.size() as isize;
        PEAK_BYTES.fetch_max(LIVE_BYTES.fetch_add(size, Relaxed) + size, Relaxed);
        LIVE_BLOCKS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Relaxed);
        LIVE_BLOCKS.fetch_sub(1, Relaxed);
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What the file system of `users` users holds on the heap, `[bytes,
/// blocks]`: as `generate_fs()` returns it, with every home built, and
/// with every home dropped again; also the blocks that dropping the catalog
/// alone gives back, and the most bytes the build held above those it
/// returns.
struct Footprint {
    built: [isize; 2],
    homes: [isize; 2],
    dropped: [isize; 2],
    catalog_blocks: isize,
    overshoot: isize,
}

fn footprint(users: usize) -> Footprint {
    let live = || [LIVE_BYTES.load(Relaxed), LIVE_BLOCKS.load(Relaxed)];
    let mut spec = WorkloadSpec::from_json(include_str!("../specs/million-user.json")).unwrap();
    spec.run.n_users = users;
    let before = live();
    PEAK_BYTES.store(before[0], Relaxed);
    let (mut vfs, catalog) = spec.generate_fs().unwrap();
    let built = live();
    let overshoot = PEAK_BYTES.load(Relaxed) - built[0];
    assert_eq!(catalog.len(), 120 + 3 * users);
    (0..users)
        .try_for_each(|user| catalog.build_home(&mut vfs, user))
        .unwrap();
    let homes = live();
    (0..users).for_each(|user| catalog.drop_home(&mut vfs, user));
    let dropped = live();
    drop(catalog);
    let catalog_blocks = dropped[1] - live()[1];
    drop(vfs);
    let less = |after: [isize; 2]| [after[0] - before[0], after[1] - before[1]];
    Footprint {
        built: less(built),
        homes: less(homes),
        dropped: less(dropped),
        catalog_blocks,
        overshoot,
    }
}

#[test]
fn the_file_system_costs_a_known_number_of_bytes_and_blocks_per_user() {
    // The build sizes its tables to the plan, so no capacity lands past the
    // population. The difference of two sizes cancels the shared tree and
    // every other fixed cost.
    const STEP: usize = 3_250;
    let (a, b) = (footprint(STEP), footprint(2 * STEP));
    let per_user =
        |a: [isize; 2], b: [isize; 2]| [0, 1].map(|i| (b[i] - a[i]) as f64 / STEP as f64);
    let [bytes_per_user, blocks_per_user] = per_user(a.built, b.built);
    println!("{bytes_per_user:.1} B and {blocks_per_user:.3} blocks per user");
    // Measured 40.0 B and no block: a user's three sizes and its home's
    // page slot; the bound is that plus 10 %. With every home built at
    // the start it read 604.4 B and 1.295 blocks; with the catalog storing
    // every path, record and candidate list 817.4 B; with every directory
    // a B-tree keyed by boxed names, an owner id in every inode and a
    // `usize` owner in every catalog record, 1,099.7 B and 6.295 blocks;
    // with directories in a hash map beside the inode table and a catalog
    // of per-owner lists, 1,967.9 B and 13.295.
    assert!(bytes_per_user <= 44.0, "{bytes_per_user} bytes per user");
    assert!(blocks_per_user <= 0.01, "{blocks_per_user} blocks per user");
    // A built home costs what one cost when every home was built at the
    // start: its page of five inodes, its three entries and its share of
    // `/u` and `/tmp`.
    let [home_bytes, home_blocks] = per_user(a.homes, b.homes);
    println!("{home_bytes:.1} B and {home_blocks:.3} blocks per user with every home built");
    // Measured 488.4 B and 2.295 blocks, the bound 10 % above; 608.4 B
    // while every inode kept three timestamps (72 B a slot, now 48 B).
    assert!(home_bytes <= 537.3, "{home_bytes} bytes per built home");
    assert!(home_blocks <= 2.3, "{home_blocks} blocks per built home");
    // Dropped, the homes give back all of it but the emptied `/u` and
    // `/tmp` nodes.
    for size in [&a, &b] {
        let left = size.dropped[0] - size.built[0];
        println!("{left} B left after dropping every home");
        assert!(left <= 1_024, "{left} B left after the drop");
    }
    // A handful of vectors however many files: no block per file, list or
    // owner (712,007 blocks at 100 k users when every owner held its own
    // lists).
    assert!(b.catalog_blocks <= 8, "{} catalog blocks", b.catalog_blocks);
    // The build reserves what it returns before it creates anything, so
    // it never holds much more: a table grown by doubling and trimmed at
    // the end passes the mark by up to its whole size (16 % over at 100 k
    // users when the catalog's paths were built that way).
    let (overshoot, built) = (b.overshoot, b.built[0] as f64);
    println!("build peak {overshoot} B over the {built} B it returns");
    assert!(
        overshoot as f64 <= 0.02 * built,
        "{overshoot} B over {built} B"
    );

    // Pattern fill allocates a data block for every block of every file; a
    // block costs its index in its file's list. Over the sparse build of
    // the same spec, homes built, that measured 14.15 bytes a block: 8 B an
    // index and the spare room a list grown by doubling keeps (33.5 B when
    // the store kept an id and an empty buffer slot per block, the block's
    // 8 KiB when each held a zeroed buffer).
    let built = |fill| {
        let mut spec = WorkloadSpec::paper_default().unwrap();
        spec.fsc.fill = fill;
        let before = LIVE_BYTES.load(Relaxed);
        let (mut vfs, catalog) = spec.generate_fs().unwrap();
        catalog.build_home(&mut vfs, 0).unwrap();
        let bytes = LIVE_BYTES.load(Relaxed) - before;
        (bytes, vfs.block_stats().allocated)
    };
    let [(pattern, blocks), (sparse, no_blocks)] =
        [FillPattern::Pattern, FillPattern::Sparse].map(built);
    let bytes_per_block = (pattern - sparse) as f64 / blocks as f64;
    println!("{bytes_per_block:.1} B per data block over {blocks} blocks");
    assert_eq!(no_blocks, 0);
    assert!(blocks > 100, "{blocks} data blocks");
    assert!(bytes_per_block <= 14.15, "{bytes_per_block} B per block");

    // A block at a far offset is one entry of its file's list: one byte
    // at 2^39 where files may reach 2^40 bytes (536,871,948 B of peak heap
    // when a file's list had a slot for every block below the last).
    let mut vfs = Vfs::new(VfsConfig {
        max_file_size: 1 << 40,
        ..VfsConfig::default()
    });
    let mut proc = vfs.new_process();
    let fd = vfs.creat(&mut proc, "/far").unwrap();
    vfs.lseek(&mut proc, fd, SeekFrom::Start(1 << 39)).unwrap();
    let before = LIVE_BYTES.load(Relaxed);
    PEAK_BYTES.store(before, Relaxed);
    assert_eq!(vfs.write(&mut proc, fd, 1), Ok(1));
    let far = PEAK_BYTES.load(Relaxed) - before;
    println!("{far} B of peak heap for one byte at 2^39");
    assert_eq!(vfs.stat("/far").unwrap().blocks, 1);
    assert!(far < 1_024, "{far} B for one far block");
}
