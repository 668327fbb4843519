//! What `generate_fs` leaves on the heap per additional user, as a gate: at
//! population scale the file system is the program's memory (ROADMAP
//! Direction 4). Measured with a counting allocator in the
//! `specs/million-user.json` shape that the `wide_local` benchmark workload
//! and CI's `million-user-smoke` run (a directory and two sparse files per
//! home, 120 shared files). One test in its own binary: nothing else
//! allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};
use uswg_core::WorkloadSpec;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static LIVE_BLOCKS: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, counting requested bytes and blocks. `realloc` is
/// the trait's default, which goes through `alloc` and `dealloc`.
struct Counting;

// SAFETY: both calls are forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are statistics and guard no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Relaxed);
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

/// Live `[bytes, blocks]` of `generate_fs()`'s result at `users` users, and
/// the blocks that dropping the catalog alone gives back.
fn footprint(users: usize) -> ([isize; 2], isize) {
    let live = || [LIVE_BYTES.load(Relaxed), LIVE_BLOCKS.load(Relaxed)];
    let mut spec = WorkloadSpec::from_json(include_str!("../specs/million-user.json")).unwrap();
    spec.run.n_users = users;
    let before = live();
    let (vfs, catalog) = spec.generate_fs().unwrap();
    let built = live();
    assert_eq!(catalog.len(), 120 + 3 * users);
    drop(catalog);
    let catalog_blocks = built[1] - live()[1];
    drop(vfs);
    ([built[0] - before[0], built[1] - before[1]], catalog_blocks)
}

#[test]
fn the_file_system_costs_a_known_number_of_bytes_and_blocks_per_user() {
    // 125 + 5 inodes per user: 16,375 and 32,625, which fill the doubling
    // inode table (16,384 and 32,768 slots), so the figure is what a user
    // costs and not where a capacity happened to land. The difference of
    // two sizes cancels the shared tree and every other fixed cost.
    const STEP: usize = 3_250;
    let ([bytes_a, blocks_a], _) = footprint(STEP);
    let ([bytes_b, blocks_b], catalog_blocks) = footprint(2 * STEP);
    let bytes_per_user = (bytes_b - bytes_a) as f64 / STEP as f64;
    let blocks_per_user = (blocks_b - blocks_a) as f64 / STEP as f64;
    println!("{bytes_per_user:.1} B and {blocks_per_user:.3} blocks per user");
    // Measured 1,099.7 B and 6.295 blocks (100 k → 200 k users: 1,136 B and
    // 6.31); the bounds are that plus 10 %. With directories in a hash map
    // beside the inode table and a catalog of per-owner lists the same
    // measurement read 1,967.9 B and 13.295 blocks (2,023 B and 13.31).
    assert!(bytes_per_user <= 1_210.0, "{bytes_per_user} bytes per user");
    assert!(blocks_per_user <= 6.93, "{blocks_per_user} blocks per user");
    // Six vectors however many files: no block per file, list or owner
    // (712,007 blocks at 100 k users when every owner held its own lists).
    assert!(catalog_blocks <= 8, "{catalog_blocks} catalog blocks");
}
