//! Seeded input generation: a SplitMix64 stream and a Zipf sampler.
//!
//! The benchmark derives every input (keys, op mix, file sizes, payloads)
//! from `--seed` through these two types, so one seed always produces the
//! same inputs and the system under test sees only the generated values.

/// The SplitMix64 finalizer: a cheap, well-mixed 64-bit hash.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A SplitMix64 pseudo-random stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `seed`, offset by `stream` so that each client of one
    /// run draws its own independent sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5EED))))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// A value uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A value uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `percent / 100`.
    pub fn percent(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// Zipf-distributed ranks over `0..n` with exponent `theta`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The sampler for `n` ranks.
    pub fn new(n: usize, theta: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(theta);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// One rank; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_per_stream() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 0).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 0).next_u64(), Rng::new(7, 1).next_u64());
        assert_ne!(Rng::new(7, 0).next_u64(), Rng::new(8, 0).next_u64());
    }

    #[test]
    fn zipf_is_head_heavy() {
        let z = Zipf::new(1024, 0.99);
        let mut rng = Rng::new(1, 0);
        let head = (0..10_000).filter(|_| z.sample(&mut rng) == 0).count();
        assert!(head > 1000, "rank 0 drew {head} of 10000");
    }
}
