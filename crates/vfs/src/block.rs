//! The block store: counts of fixed-size data blocks against a capacity
//! limit, giving the file system real `ENOSPC` behaviour and allocation
//! statistics. A block is a number in the counts and an index in the file
//! that holds it; no block holds bytes.
//!
//! Blocks can also be *reserved*: allocated in the statistics, and so in
//! `statfs` and against the capacity, before any file holds them. A home
//! built later takes its blocks out of the reservation, and a home dropped
//! puts them back ([`crate::Vfs::reserve_homes`]); neither moves a count.

use crate::FsError;

/// Allocation statistics of the block store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockStats {
    /// Blocks currently allocated to files.
    pub allocated: u64,
    /// Lifetime allocation count.
    pub total_allocations: u64,
    /// Lifetime free count.
    pub total_frees: u64,
}

/// A pool of fixed-size data blocks, by count.
#[derive(Debug)]
pub(crate) struct BlockStore {
    max_blocks: u64,
    stats: BlockStats,
    /// Blocks counted in `stats.allocated` that no file holds.
    reserved: u64,
}

impl BlockStore {
    pub(crate) fn new(block_size: usize, max_blocks: usize) -> Self {
        assert!(block_size >= 64, "block size unrealistically small");
        Self {
            max_blocks: max_blocks as u64,
            stats: BlockStats::default(),
            reserved: 0,
        }
    }

    pub(crate) fn free_blocks(&self) -> u64 {
        self.max_blocks.saturating_sub(self.stats.allocated)
    }

    pub(crate) fn stats(&self) -> BlockStats {
        self.stats
    }

    /// Allocates one block.
    pub(crate) fn alloc(&mut self) -> Result<(), FsError> {
        if self.stats.allocated >= self.max_blocks {
            return Err(FsError::NoSpace);
        }
        self.stats.allocated += 1;
        self.stats.total_allocations += 1;
        Ok(())
    }

    /// Allocates `n` blocks in the statistics that no file holds yet.
    pub(crate) fn reserve(&mut self, n: u64) -> Result<(), FsError> {
        if n > self.free_blocks() {
            return Err(FsError::NoSpace);
        }
        self.stats.allocated += n;
        self.stats.total_allocations += n;
        self.reserved += n;
        Ok(())
    }

    /// `n` reserved blocks, for a file to hold; no count moves.
    pub(crate) fn take_reserved(&mut self, n: u64) -> Result<(), FsError> {
        self.reserved = self.reserved.checked_sub(n).ok_or(FsError::NoSpace)?;
        Ok(())
    }

    /// Puts `n` blocks a file held back into the reservation; no count
    /// moves.
    pub(crate) fn retire(&mut self, n: u64) {
        self.reserved += n;
    }

    /// Frees `n` blocks a file held.
    pub(crate) fn free(&mut self, n: u64) {
        debug_assert!(n <= self.stats.allocated, "freeing {n} blocks");
        self.stats.allocated -= n;
        self.stats.total_frees += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free_cycle() {
        let mut s = BlockStore::new(4096, 4);
        s.alloc().unwrap();
        s.alloc().unwrap();
        assert_eq!(s.stats().allocated, 2);
        assert_eq!(s.free_blocks(), 2);
        s.free(1);
        assert_eq!(s.stats().allocated, 1);
        s.alloc().unwrap();
        assert_eq!(s.stats().total_allocations, 3);
        assert_eq!(s.stats().total_frees, 1);
    }

    #[test]
    fn capacity_enforced() {
        let mut s = BlockStore::new(128, 2);
        s.alloc().unwrap();
        s.alloc().unwrap();
        assert_eq!(s.alloc(), Err(FsError::NoSpace));
        // Freeing restores capacity.
        s.free(1);
        assert!(s.alloc().is_ok());
    }

    #[test]
    fn reserved_blocks_count_until_the_reservation_ends_and_never_after() {
        let mut s = BlockStore::new(128, 4);
        s.reserve(3).unwrap();
        assert_eq!((s.stats().allocated, s.free_blocks()), (3, 1));
        assert_eq!(s.reserve(2), Err(FsError::NoSpace));
        s.take_reserved(2).unwrap();
        assert_eq!(s.take_reserved(2), Err(FsError::NoSpace), "one is left");
        s.retire(2);
        let counts = BlockStats {
            allocated: 3,
            total_allocations: 3,
            total_frees: 0,
        };
        assert_eq!(s.stats(), counts, "taking and retiring moves no count");
        s.take_reserved(3).unwrap();
        assert!(s.alloc().is_ok());
        assert_eq!(s.alloc(), Err(FsError::NoSpace));
    }

    #[test]
    #[should_panic(expected = "unrealistically small")]
    fn tiny_blocks_rejected() {
        let _ = BlockStore::new(16, 4);
    }
}
