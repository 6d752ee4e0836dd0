//! Test-only device wrappers.

use blockrep_storage::BlockDevice;
use blockrep_types::{BlockData, BlockIndex, DeviceResult};
use parking_lot::Mutex;

/// Device calls seen by a [`CountingDevice`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `write_block` calls.
    pub single_writes: u64,
    /// `write_blocks` calls.
    pub write_batches: u64,
    /// Blocks written by either call.
    pub blocks_written: u64,
}

/// Forwards every call to `inner`, counting write calls and the blocks
/// they carry; a vectored write counts as one batch.
pub struct CountingDevice<D> {
    inner: D,
    counts: Mutex<Counts>,
}

impl<D> CountingDevice<D> {
    pub fn new(inner: D) -> Self {
        CountingDevice {
            inner,
            counts: Mutex::new(Counts::default()),
        }
    }

    pub fn counts(&self) -> Counts {
        *self.counts.lock()
    }
}

impl<D: BlockDevice> BlockDevice for CountingDevice<D> {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn read_block(&self, k: BlockIndex) -> DeviceResult<BlockData> {
        self.inner.read_block(k)
    }
    fn write_block(&self, k: BlockIndex, data: BlockData) -> DeviceResult<()> {
        let mut c = self.counts.lock();
        c.single_writes += 1;
        c.blocks_written += 1;
        drop(c);
        self.inner.write_block(k, data)
    }
    fn write_blocks(&self, writes: &[(BlockIndex, BlockData)]) -> DeviceResult<()> {
        let mut c = self.counts.lock();
        c.write_batches += 1;
        c.blocks_written += writes.len() as u64;
        drop(c);
        self.inner.write_blocks(writes)
    }
}
