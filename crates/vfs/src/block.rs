//! The block store: fixed-size data blocks with a free list and a capacity
//! limit, giving the file system real `ENOSPC` behaviour and allocation
//! statistics. A block holds memory only once a caller writes into it.
//!
//! Blocks can also be *reserved*: allocated in the statistics, and so in
//! `statfs` and against the capacity, before any file holds them. A home
//! built later takes its blocks out of the reservation, and a home dropped
//! puts them back ([`crate::Vfs::reserve_homes`]); neither moves a count.

use crate::FsError;
use std::ops::Range;

/// Identifier of one block in the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BlockId(u32);

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

/// A pool of fixed-size data blocks.
#[derive(Debug)]
pub(crate) struct BlockStore {
    block_size: usize,
    max_blocks: usize,
    /// `None` for a free id; an empty buffer (no heap memory) for an
    /// allocated block nobody has written, which reads as zeros.
    blocks: Vec<Option<Box<[u8]>>>,
    free: Vec<BlockId>,
    stats: BlockStats,
    /// Blocks counted in `stats.allocated` that no file holds.
    reserved: u64,
}

impl BlockStore {
    pub(crate) fn new(block_size: usize, max_blocks: usize) -> Self {
        assert!(block_size >= 64, "block size unrealistically small");
        Self {
            block_size,
            max_blocks,
            blocks: Vec::new(),
            free: Vec::new(),
            stats: BlockStats::default(),
            reserved: 0,
        }
    }

    pub(crate) fn free_blocks(&self) -> u64 {
        (self.max_blocks as u64).saturating_sub(self.stats.allocated)
    }

    pub(crate) fn stats(&self) -> BlockStats {
        self.stats
    }

    /// Allocates a block that reads as zeros.
    pub(crate) fn alloc(&mut self) -> Result<BlockId, FsError> {
        if self.stats.allocated as usize >= self.max_blocks {
            return Err(FsError::NoSpace);
        }
        self.stats.allocated += 1;
        self.stats.total_allocations += 1;
        Ok(self.take_id())
    }

    /// An unused id, holding a block that reads as zeros.
    fn take_id(&mut self) -> BlockId {
        if let Some(id) = self.free.pop() {
            self.blocks[id.0 as usize] = Some(Box::default());
            return id;
        }
        self.blocks.push(Some(Box::default()));
        BlockId(self.blocks.len() as u32 - 1)
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

    /// A reserved block, for a file to hold; no count moves.
    pub(crate) fn take_reserved(&mut self) -> Result<BlockId, FsError> {
        self.reserved = self.reserved.checked_sub(1).ok_or(FsError::NoSpace)?;
        Ok(self.take_id())
    }

    /// Puts a file's block back into the reservation: its bytes go and its
    /// id is free for another file, while its count stays.
    pub(crate) fn retire(&mut self, id: BlockId) {
        self.blocks[id.0 as usize] = None;
        self.free.push(id);
        self.reserved += 1;
    }

    /// Returns a block to the free list.
    pub(crate) fn free(&mut self, id: BlockId) {
        let slot = &mut self.blocks[id.0 as usize];
        debug_assert!(slot.is_some(), "double free of block {id:?}");
        *slot = None;
        self.free.push(id);
        self.stats.allocated -= 1;
        self.stats.total_frees += 1;
    }

    fn buffer(&mut self, id: BlockId) -> &mut Box<[u8]> {
        self.blocks[id.0 as usize]
            .as_mut()
            .expect("access to freed block")
    }

    /// The bytes of block `id`, or `None` while no caller has written into
    /// it and it reads as zeros.
    pub(crate) fn data(&self, id: BlockId) -> Option<&[u8]> {
        let data = self.blocks[id.0 as usize]
            .as_deref()
            .expect("access to freed block");
        (!data.is_empty()).then_some(data)
    }

    /// The bytes of block `id` to write into: a zeroed buffer on first use.
    pub(crate) fn data_mut(&mut self, id: BlockId) -> &mut [u8] {
        let size = self.block_size;
        let buffer = self.buffer(id);
        if buffer.is_empty() {
            *buffer = vec![0; size].into_boxed_slice();
        }
        buffer
    }

    /// Zeros `range` of block `id`, which takes no work (and no memory)
    /// unless the block has a buffer.
    pub(crate) fn zero(&mut self, id: BlockId, range: Range<usize>) {
        if let Some(bytes) = self.buffer(id).get_mut(range) {
            bytes.fill(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free_cycle() {
        let mut s = BlockStore::new(4096, 4);
        let a = s.alloc().unwrap();
        let b = s.alloc().unwrap();
        assert_ne!(a, b);
        assert_eq!(s.stats().allocated, 2);
        assert_eq!(s.free_blocks(), 2);
        s.free(a);
        assert_eq!(s.stats().allocated, 1);
        let c = s.alloc().unwrap();
        assert_eq!(c, a, "freed block is reused");
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
        let id = BlockId(0);
        s.free(id);
        assert!(s.alloc().is_ok());
    }

    #[test]
    fn reserved_blocks_count_until_the_reservation_ends_and_never_after() {
        let mut s = BlockStore::new(128, 4);
        s.reserve(3).unwrap();
        assert_eq!((s.stats().allocated, s.free_blocks()), (3, 1));
        assert_eq!(s.reserve(2), Err(FsError::NoSpace));
        let a = s.take_reserved().unwrap();
        s.data_mut(a).fill(1);
        s.retire(a);
        let counts = BlockStats {
            allocated: 3,
            total_allocations: 3,
            total_frees: 0,
        };
        assert_eq!(s.stats(), counts, "taking and retiring moves no count");
        let b = s.take_reserved().unwrap();
        assert_eq!((b, s.data(b)), (a, None), "a retired block reads as zeros");
        assert!(s.alloc().is_ok());
        assert_eq!(s.alloc(), Err(FsError::NoSpace));
    }

    #[test]
    fn blocks_are_zeroed_on_alloc() {
        let mut s = BlockStore::new(128, 2);
        let a = s.alloc().unwrap();
        assert_eq!(s.data(a), None, "a fresh block has no buffer");
        s.data_mut(a).fill(0xAB);
        s.free(a);
        let b = s.alloc().unwrap();
        assert_eq!(b, a);
        assert_eq!(s.data(b), None, "recycled block must read as zeros");
        s.zero(b, 0..128);
        assert_eq!(s.data(b), None, "zeroing gives no buffer");
        assert_eq!(s.data_mut(b), &[0; 128][..]);
    }

    #[test]
    fn data_round_trips() {
        let mut s = BlockStore::new(128, 1);
        let a = s.alloc().unwrap();
        s.data_mut(a)[..5].copy_from_slice(b"hello");
        s.zero(a, 1..3);
        assert_eq!(&s.data(a).unwrap()[..5], b"h\0\0lo");
        assert_eq!(s.data(a).unwrap().len(), 128);
    }

    #[test]
    #[should_panic(expected = "unrealistically small")]
    fn tiny_blocks_rejected() {
        let _ = BlockStore::new(16, 4);
    }
}
