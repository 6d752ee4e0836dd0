//! Block allocation bitmap.

use crate::layout::FsGeometry;
use crate::{FsError, FsResult};
use blockrep_storage::BlockDevice;
use blockrep_types::{BlockData, BlockIndex};
use std::collections::BTreeMap;

/// Allocator over the on-disk bitmap: one bit per device block, set = used.
/// Stateless — every operation reads and writes the bitmap blocks through
/// the device, so crashes of the *device's* sites never desynchronize it
/// from the data (within the paper's sequential, single-client model).
///
/// Every update is batched and all-or-nothing: an operation writes each
/// bitmap block it touches once, in one vectored `write_blocks`, and
/// [`alloc`](Self::alloc) claims nothing unless it can claim everything.
/// The allocator never writes the blocks it hands out. The file system
/// keeps the invariant instead: every freshly allocated block is fully
/// written before any pointer to it is persisted, so stale contents of a
/// reused block can never be read back.
pub struct Bitmap<'a, D> {
    dev: &'a D,
    geo: &'a FsGeometry,
}

impl<'a, D: BlockDevice> Bitmap<'a, D> {
    /// Creates an allocator view over `dev`.
    pub fn new(dev: &'a D, geo: &'a FsGeometry) -> Self {
        Bitmap { dev, geo }
    }

    fn bits_per_block(&self) -> u64 {
        self.geo.block_size as u64 * 8
    }

    fn locate(&self, block: u64) -> (BlockIndex, usize, u8) {
        let bitmap_block = self.geo.bitmap_start + block / self.bits_per_block();
        let bit = block % self.bits_per_block();
        (
            BlockIndex::new(bitmap_block),
            (bit / 8) as usize,
            1u8 << (bit % 8),
        )
    }

    /// Whether `block` is marked used.
    pub fn is_used(&self, block: u64) -> FsResult<bool> {
        let (bb, byte, mask) = self.locate(block);
        let raw = self.dev.read_block(bb)?;
        Ok(raw.as_slice()[byte] & mask != 0)
    }

    /// Marks every block of `blocks` used or free: each touched bitmap
    /// block is read once and written back once, in one vectored round.
    pub fn set(&self, blocks: &[u64], used: bool) -> FsResult<()> {
        if blocks.is_empty() {
            return Ok(());
        }
        let mut touched: BTreeMap<BlockIndex, Vec<(usize, u8)>> = BTreeMap::new();
        for &block in blocks {
            let (bb, byte, mask) = self.locate(block);
            touched.entry(bb).or_default().push((byte, mask));
        }
        let indices: Vec<BlockIndex> = touched.keys().copied().collect();
        let images = self.dev.read_blocks(&indices)?;
        let writes: Vec<(BlockIndex, BlockData)> = touched
            .into_iter()
            .zip(images)
            .map(|((bb, bits), raw)| {
                let mut raw = raw.as_slice().to_vec();
                for (byte, mask) in bits {
                    if used {
                        raw[byte] |= mask;
                    } else {
                        raw[byte] &= !mask;
                    }
                }
                (bb, BlockData::from(raw))
            })
            .collect();
        self.dev.write_blocks(&writes)?;
        Ok(())
    }

    /// Claims `n` free data blocks, first fit from `data_start`, and
    /// returns them in ascending order. The touched bitmap blocks are
    /// written once, in one vectored round; the claimed blocks themselves
    /// are not written (see the type docs for who fills them).
    ///
    /// # Errors
    ///
    /// [`FsError::NoSpace`] when fewer than `n` data blocks are free — and
    /// then nothing has been written.
    pub fn alloc(&self, n: usize) -> FsResult<Vec<u64>> {
        let mut claimed = Vec::with_capacity(n);
        let mut writes = Vec::new();
        for bb in 0..self.geo.bitmap_blocks {
            if claimed.len() == n {
                break;
            }
            let index = BlockIndex::new(self.geo.bitmap_start + bb);
            let mut bytes = self.dev.read_block(index)?.as_slice().to_vec();
            let first = bb * self.bits_per_block();
            let end = self.geo.num_blocks.min(first + self.bits_per_block());
            let before = claimed.len();
            for block in self.geo.data_start.max(first)..end {
                if claimed.len() == n {
                    break;
                }
                let bit = (block - first) as usize;
                let mask = 1u8 << (bit % 8);
                if bytes[bit / 8] & mask == 0 {
                    bytes[bit / 8] |= mask;
                    claimed.push(block);
                }
            }
            if claimed.len() > before {
                writes.push((index, BlockData::from(bytes)));
            }
        }
        if claimed.len() < n {
            return Err(FsError::NoSpace);
        }
        if !writes.is_empty() {
            self.dev.write_blocks(&writes)?;
        }
        Ok(claimed)
    }

    /// Frees previously allocated data blocks in one vectored round.
    ///
    /// # Panics
    ///
    /// Debug-asserts that every block lies in the data region.
    pub fn free(&self, blocks: &[u64]) -> FsResult<()> {
        debug_assert!(
            blocks
                .iter()
                .all(|&b| b >= self.geo.data_start && b < self.geo.num_blocks),
            "freeing non-data block in {blocks:?}"
        );
        self.set(blocks, false)
    }

    /// Number of free data blocks (for `statfs`-style reporting and tests).
    pub fn free_count(&self) -> FsResult<u64> {
        let mut free = 0;
        for block in self.geo.data_start..self.geo.num_blocks {
            if !self.is_used(block)? {
                free += 1;
            }
        }
        Ok(free)
    }

    /// Marks all metadata blocks (superblock, bitmap, inode table) used —
    /// called once at format time.
    pub fn reserve_metadata(&self) -> FsResult<()> {
        let metadata: Vec<u64> = (0..self.geo.data_start).collect();
        self.set(&metadata, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::CountingDevice;
    use blockrep_storage::MemStore;

    fn setup() -> (MemStore, FsGeometry) {
        let geo = FsGeometry::plan(128, 512).unwrap();
        (MemStore::new(128, 512), geo)
    }

    #[test]
    fn metadata_reservation_covers_prefix() {
        let (dev, geo) = setup();
        let bm = Bitmap::new(&dev, &geo);
        bm.reserve_metadata().unwrap();
        for block in 0..geo.data_start {
            assert!(bm.is_used(block).unwrap(), "block {block}");
        }
        assert!(!bm.is_used(geo.data_start).unwrap());
    }

    #[test]
    fn alloc_claims_distinct_blocks_without_writing_them() {
        let (dev, geo) = setup();
        let bm = Bitmap::new(&dev, &geo);
        bm.reserve_metadata().unwrap();
        let stale = BlockData::from(vec![0xAB; 512]);
        dev.write_block(BlockIndex::new(geo.data_start), stale.clone())
            .unwrap();
        let got = bm.alloc(2).unwrap();
        assert_eq!(got, vec![geo.data_start, geo.data_start + 1]);
        assert_eq!(
            dev.read_block(BlockIndex::new(geo.data_start)).unwrap(),
            stale,
            "the caller, not the allocator, fills fresh blocks"
        );
        assert_eq!(bm.alloc(0).unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn free_makes_block_reusable() {
        let (dev, geo) = setup();
        let bm = Bitmap::new(&dev, &geo);
        bm.reserve_metadata().unwrap();
        let a = bm.alloc(3).unwrap();
        bm.free(&a[1..2]).unwrap();
        assert_eq!(bm.alloc(1).unwrap(), vec![a[1]], "first fit reuses it");
    }

    #[test]
    fn exhaustion_reports_no_space() {
        let (dev, geo) = setup();
        let bm = Bitmap::new(&dev, &geo);
        bm.reserve_metadata().unwrap();
        let data_blocks = geo.num_blocks - geo.data_start;
        bm.alloc(data_blocks as usize).unwrap();
        assert!(matches!(bm.alloc(1), Err(FsError::NoSpace)));
        assert_eq!(bm.free_count().unwrap(), 0);
    }

    #[test]
    fn short_alloc_claims_nothing() {
        let (dev, geo) = setup();
        let bm = Bitmap::new(&dev, &geo);
        bm.reserve_metadata().unwrap();
        bm.alloc(5).unwrap();
        let free = bm.free_count().unwrap();
        assert!(matches!(bm.alloc(free as usize + 1), Err(FsError::NoSpace)));
        assert_eq!(bm.free_count().unwrap(), free);
    }

    #[test]
    fn free_count_tracks_allocations() {
        let (dev, geo) = setup();
        let bm = Bitmap::new(&dev, &geo);
        bm.reserve_metadata().unwrap();
        let initial = bm.free_count().unwrap();
        assert_eq!(initial, geo.num_blocks - geo.data_start);
        bm.alloc(2).unwrap();
        assert_eq!(bm.free_count().unwrap(), initial - 2);
    }

    #[test]
    fn updates_spanning_bitmap_blocks_write_each_once_in_one_round() {
        // 4096 bits per 512-byte bitmap block: 8192 blocks need two.
        let geo = FsGeometry::plan(8192, 512).unwrap();
        assert_eq!(geo.bitmap_blocks, 2);
        let dev = CountingDevice::new(MemStore::new(8192, 512));
        let bm = Bitmap::new(&dev, &geo);
        bm.reserve_metadata().unwrap();
        let before = dev.counts();
        let got = bm.alloc(4000).unwrap();
        assert!(got[0] < 4096 && got[3999] >= 4096, "spans both blocks");
        let after = dev.counts();
        assert_eq!(after.write_batches - before.write_batches, 1);
        assert_eq!(after.blocks_written - before.blocks_written, 2);
        assert_eq!(after.single_writes, before.single_writes);
        bm.free(&got).unwrap();
        let freed = dev.counts();
        assert_eq!(freed.write_batches - after.write_batches, 1);
        assert_eq!(freed.blocks_written - after.blocks_written, 2);
        assert_eq!(bm.free_count().unwrap(), geo.num_blocks - geo.data_start);
    }
}
