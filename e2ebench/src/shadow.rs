//! Correctness oracles: self-describing payloads and shadows of what the
//! system must return.
//!
//! Every block the benchmark writes names its own block index and a unique
//! write tag, and the rest of the block is a pattern derived from the two,
//! so a read can be decoded and checked for torn or misplaced data without
//! keeping payloads around. The shadows then decide which tags a read may
//! legally return.

use crate::rng::mix;
use blockrep_types::BlockData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The payload of write `tag` to block `k`.
pub fn block_payload(k: u64, tag: u64, size: usize) -> BlockData {
    let mut bytes = vec![0u8; size];
    bytes[..8].copy_from_slice(&k.to_le_bytes());
    bytes[8..16].copy_from_slice(&tag.to_le_bytes());
    fill(&mut bytes[16..], k.rotate_left(32) ^ tag);
    BlockData::from(bytes)
}

/// Decodes a block read from `k`, returning the write tag it carries.
///
/// # Errors
///
/// A description of the damage when the block is not an intact payload
/// written to `k`.
pub fn decode_block(k: u64, data: &[u8]) -> Result<u64, String> {
    if data.len() < 16 {
        return Err(format!("block {k}: {} bytes is too short", data.len()));
    }
    let home = u64::from_le_bytes(data[..8].try_into().expect("8-byte header"));
    let tag = u64::from_le_bytes(data[8..16].try_into().expect("8-byte header"));
    if home != k {
        return Err(format!("block {k}: holds the payload of block {home}"));
    }
    let mut expect = vec![0u8; data.len() - 16];
    fill(&mut expect, k.rotate_left(32) ^ tag);
    if expect != data[16..] {
        return Err(format!("block {k}: payload of tag {tag:#x} is torn"));
    }
    Ok(tag)
}

/// The contents of file version `tag` in slot `slot`, `len` bytes long.
pub fn file_bytes(slot: usize, tag: u64, len: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; len];
    fill(&mut bytes, mix(slot as u64) ^ tag);
    bytes
}

fn fill(out: &mut [u8], seed: u64) {
    for (i, chunk) in out.chunks_mut(8).enumerate() {
        let word = mix(seed.wrapping_add(i as u64)).to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
}

/// One write to a block as the clients saw it, stamped on the shadow's
/// logical clock.
#[derive(Debug, Clone, Copy)]
struct WriteRec {
    tag: u64,
    start: u64,
    /// `u64::MAX` until acknowledged; stays there if the write failed,
    /// since a failed write may still have landed.
    end: u64,
}

/// A per-block register oracle for concurrent clients.
///
/// A read that began at `rs` and ended at `re` may return the value of a
/// write `w` only if `w` began before `re` and no other write both began
/// after `w` was acknowledged and was itself acknowledged before `rs`.
/// That admits exactly "the last acknowledged value, or the value of a
/// write still in flight", without trusting the order in which two clients
/// record their acknowledgements.
#[derive(Debug)]
pub struct BlockShadow {
    blocks: Vec<Mutex<Vec<WriteRec>>>,
    clock: AtomicU64,
    /// Per client: a lower bound of the start of its read in flight, or
    /// `u64::MAX`. Records no such read can still need are pruned.
    reads: Vec<AtomicU64>,
}

impl BlockShadow {
    /// A shadow of `num_blocks` blocks shared by `clients` clients.
    pub fn new(num_blocks: u64, clients: usize) -> BlockShadow {
        BlockShadow {
            blocks: (0..num_blocks).map(|_| Mutex::new(Vec::new())).collect(),
            clock: AtomicU64::new(1),
            reads: (0..clients).map(|_| AtomicU64::new(u64::MAX)).collect(),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst)
    }

    fn block(&self, k: u64) -> std::sync::MutexGuard<'_, Vec<WriteRec>> {
        self.blocks[k as usize]
            .lock()
            .expect("a shadow lock holder panicked")
    }

    /// Records the set-up value of block `k`, acknowledged before any
    /// client starts.
    pub fn install(&self, k: u64, tag: u64) {
        *self.block(k) = vec![WriteRec {
            tag,
            start: 0,
            end: 0,
        }];
    }

    /// Records writes of `tags` to `ks` as in flight; call right before the
    /// device call.
    pub fn begin_write(&self, ks: &[u64], tag: u64) {
        let start = self.tick();
        for &k in ks {
            self.block(k).push(WriteRec {
                tag,
                start,
                end: u64::MAX,
            });
        }
    }

    /// Records the outcome of a write begun with [`begin_write`]; call right
    /// after the device call returns.
    ///
    /// [`begin_write`]: Self::begin_write
    pub fn end_write(&self, ks: &[u64], tag: u64, ok: bool) {
        let end = self.tick();
        let horizon = self.horizon();
        for &k in ks {
            let mut recs = self.block(k);
            if ok {
                if let Some(r) = recs.iter_mut().find(|r| r.tag == tag) {
                    r.end = end;
                }
            }
            if recs.len() > 4 {
                let snapshot = recs.clone();
                recs.retain(|w| !superseded_before(w, &snapshot, horizon));
            }
        }
    }

    /// The oldest logical time a read still in flight may need.
    fn horizon(&self) -> u64 {
        let now = self.clock.load(Ordering::SeqCst);
        self.reads
            .iter()
            .map(|r| r.load(Ordering::SeqCst))
            .fold(now, u64::min)
    }

    /// Marks the start of `client`'s read; returns its start time.
    pub fn begin_read(&self, client: usize) -> u64 {
        // Publish a lower bound before taking the stamp, so a concurrent
        // pruner never drops a record this read may still return.
        self.reads[client].store(self.clock.load(Ordering::SeqCst), Ordering::SeqCst);
        self.tick()
    }

    /// Checks that `tag` was a legal answer for block `k` to a read that
    /// began at `rs` and has just returned.
    ///
    /// # Errors
    ///
    /// The violation, when the read returned a value it must not see.
    pub fn check_read(&self, rs: u64, k: u64, tag: u64) -> Result<(), String> {
        let re = self.tick();
        let recs = self.block(k);
        let Some(w) = recs.iter().find(|w| w.tag == tag) else {
            return Err(format!(
                "block {k}: read returned tag {tag:#x}, which no live write produced"
            ));
        };
        if w.start >= re {
            return Err(format!(
                "block {k}: read returned tag {tag:#x} from a write issued after the read"
            ));
        }
        if superseded_before(w, &recs, rs) {
            return Err(format!(
                "block {k}: read returned tag {tag:#x}, overwritten before the read began"
            ));
        }
        Ok(())
    }

    /// Marks the end of `client`'s read.
    pub fn end_read(&self, client: usize) {
        self.reads[client].store(u64::MAX, Ordering::SeqCst);
    }

    /// Damages every record, so any checked read must fail: the smoke
    /// test's proof that the oracle is live.
    pub fn corrupt(&self) {
        for b in &self.blocks {
            for w in b.lock().expect("a shadow lock holder panicked").iter_mut() {
                w.tag ^= 1 << 62;
            }
        }
    }
}

/// Whether `w` was overwritten by an acknowledged write that began after
/// `w` was acknowledged and was itself acknowledged before time `t`.
fn superseded_before(w: &WriteRec, recs: &[WriteRec], t: u64) -> bool {
    w.end != u64::MAX
        && recs
            .iter()
            .any(|w2| w2.start > w.end && w2.end != u64::MAX && w2.end < t)
}

/// What one file slot must hold, for the single fs client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// No file.
    Empty,
    /// File version `tag`, `len` bytes long.
    File { tag: u64, len: usize },
    /// A failed write or delete left the slot in an unknown state; it is
    /// no longer checked.
    Unknown,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_round_trip_and_detect_damage() {
        let data = block_payload(5, 0xabc, 512);
        assert_eq!(decode_block(5, data.as_slice()), Ok(0xabc));
        assert!(decode_block(6, data.as_slice()).is_err());
        let mut torn = data.as_slice().to_vec();
        torn[300] ^= 1;
        assert!(decode_block(5, &torn).is_err());
        assert!(decode_block(0, &[0u8; 512]).is_err());
    }

    #[test]
    fn register_admits_last_acked_and_in_flight_values_only() {
        let s = BlockShadow::new(1, 2);
        s.install(0, 1);
        s.begin_write(&[0], 2);
        s.end_write(&[0], 2, true);
        let rs = s.begin_read(0);
        assert!(
            s.check_read(rs, 0, 1).is_err(),
            "overwritten before the read"
        );
        assert!(s.check_read(rs, 0, 2).is_ok());
        s.begin_write(&[0], 3);
        assert!(s.check_read(rs, 0, 3).is_ok(), "in flight during the read");
        assert!(s.check_read(rs, 0, 9).is_err(), "never written");
        s.end_read(0);
    }

    #[test]
    fn overlapping_acknowledgements_admit_either_writer() {
        let s = BlockShadow::new(1, 2);
        s.install(0, 1);
        s.begin_write(&[0], 2);
        s.begin_write(&[0], 3);
        // Client 3 records its acknowledgement first, although the device
        // may have applied 2 last.
        s.end_write(&[0], 3, true);
        s.end_write(&[0], 2, true);
        let rs = s.begin_read(1);
        assert!(s.check_read(rs, 0, 2).is_ok());
        assert!(s.check_read(rs, 0, 3).is_ok());
        assert!(s.check_read(rs, 0, 1).is_err());
    }

    #[test]
    fn corruption_fails_every_read() {
        let s = BlockShadow::new(2, 1);
        s.install(1, 7);
        s.corrupt();
        let rs = s.begin_read(0);
        assert!(s.check_read(rs, 1, 7).is_err());
    }
}
