//! The storage layer's one checksum kernel: XXH64 (Yann Collet's xxHash,
//! 64-bit variant), one-shot over a byte slice.
//!
//! Every torn-write detector of the crate runs on it: the per-block
//! checksum of the [`VersionedStore`](crate::VersionedStore) and the record
//! and superblock checksums of the [`wal`](crate::wal). The threat model is
//! a crash, not an adversary, so a fast non-cryptographic hash whose output
//! bits each depend on every input bit is enough; XXH64 consumes eight
//! bytes per multiply where a byte-wise hash consumes one.
//!
//! # Examples
//!
//! ```
//! use blockrep_storage::checksum::xxh64;
//!
//! assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
//! assert_ne!(xxh64(b"abc", 1), xxh64(b"abc", 0));
//! ```

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn read_u64(bytes: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(b)
}

fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn merge(acc: u64, lane: u64) -> u64 {
    (acc ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

/// XXH64 of `data` under `seed`.
pub fn xxh64(data: &[u8], seed: u64) -> u64 {
    let stripes = data.chunks_exact(32);
    let rest = stripes.remainder();
    let mut h = if data.len() >= 32 {
        let mut v = [
            seed.wrapping_add(P1).wrapping_add(P2),
            seed.wrapping_add(P2),
            seed,
            seed.wrapping_sub(P1),
        ];
        for stripe in stripes {
            for (i, acc) in v.iter_mut().enumerate() {
                *acc = round(*acc, read_u64(&stripe[8 * i..]));
            }
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &lane| merge(h, lane))
    } else {
        seed.wrapping_add(P5)
    };
    h = h.wrapping_add(data.len() as u64);
    let mut words = rest.chunks_exact(8);
    for word in &mut words {
        h = (h ^ round(0, read_u64(word)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut rest = words.remainder();
    if rest.len() >= 4 {
        let mut b = [0u8; 4];
        b.copy_from_slice(&rest[..4]);
        h = (h ^ u64::from(u32::from_le_bytes(b)).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::versioned::checksum as store_sum;
    use crate::wal::record_crc;
    use blockrep_types::{BlockData, VersionNumber};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    const BLOCK: usize = 512;

    /// A detector under test, as a function of `(version, payload)`.
    type Detector = fn(u64, &[u8]) -> u64;

    /// The store checksum, and the record CRC of a fixed epoch and block.
    fn detectors() -> [(&'static str, Detector); 2] {
        [
            ("store checksum", |v, data| {
                store_sum(VersionNumber::new(v), &BlockData::from(data.to_vec()))
            }),
            ("record crc", |v, data| record_crc(3, 17, v, data)),
        ]
    }

    fn block() -> Vec<u8> {
        (0..BLOCK).map(|i| (i * 7 + 1) as u8).collect()
    }

    #[test]
    fn checksum_matches_published_xxh64_vectors() {
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        // At least 32 bytes: the four-lane stripe path.
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition", 0),
            0xFBCE_A83C_8A37_8BF1
        );
        // A nonzero seed.
        assert_eq!(xxh64(b"xxhash", 20141025), 0xB559_B98D_844E_0635);
    }

    #[test]
    fn checksum_detects_every_single_bit_flip_of_a_block() {
        let data = block();
        for (name, sum) in detectors() {
            let good = sum(5, &data);
            for bit in 0..BLOCK * 8 {
                let mut bad = data.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(sum(5, &bad), good, "{name}: flip of bit {bit} undetected");
            }
        }
    }

    #[test]
    fn checksum_detects_seeded_two_bit_flips() {
        let data = block();
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for (name, sum) in detectors() {
            let good = sum(5, &data);
            for _ in 0..10_000 {
                let a = rng.random_range(0..BLOCK * 8);
                let b = (a + rng.random_range(1..BLOCK * 8)) % (BLOCK * 8);
                let mut bad = data.clone();
                bad[a / 8] ^= 1 << (a % 8);
                bad[b / 8] ^= 1 << (b % 8);
                assert_ne!(
                    sum(5, &bad),
                    good,
                    "{name}: flips of bits {a}, {b} undetected"
                );
            }
        }
    }

    #[test]
    fn checksum_detects_every_torn_suffix() {
        // The new payload differs from the old one in every byte, so each
        // tear leaves an image different from both.
        let old = block();
        let new: Vec<u8> = old.iter().map(|b| !b).collect();
        for (name, sum) in detectors() {
            let good = sum(6, &new);
            for keep in 0..BLOCK {
                let mut torn = old.clone();
                torn[..keep].copy_from_slice(&new[..keep]);
                assert_ne!(sum(6, &torn), good, "{name}: tear at {keep} undetected");
            }
        }
    }

    #[test]
    fn checksum_binds_the_version() {
        let data = block();
        for (name, sum) in detectors() {
            for v in 0..1_000 {
                assert_ne!(
                    sum(v, &data),
                    sum(v + 1, &data),
                    "{name}: v{v} = v{}",
                    v + 1
                );
            }
        }
    }
}
