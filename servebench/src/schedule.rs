//! Seeded arrival schedules and skewed draws: everything the load
//! generator decides comes from the workload seed, so the same seed gives
//! the same requests at the same offsets.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A Zipf(`s`) distribution over ranks `0..n` (rank 0 most popular).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over an empty set");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// `count` Poisson arrival offsets (seconds from the phase start) at `rate`
/// requests per second: exponential gaps drawn from `rng`.
pub fn poisson_offsets(rng: &mut StdRng, rate: f64, count: usize) -> Vec<f64> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate;
            t
        })
        .collect()
}

/// A child RNG for one named stream of a seeded run, so phases draw
/// independent but reproducible sequences.
pub fn stream_rng(seed: u64, stream: &str) -> StdRng {
    // FNV-1a over the stream name, mixed with the seed.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in stream.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    StdRng::seed_from_u64(seed.rotate_left(29) ^ h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson_offsets(&mut stream_rng(5, "open"), 200.0, 500);
        let b = poisson_offsets(&mut stream_rng(5, "open"), 200.0, 500);
        assert_eq!(a, b);
        let c = poisson_offsets(&mut stream_rng(6, "open"), 200.0, 500);
        assert_ne!(a, c);
        let d = poisson_offsets(&mut stream_rng(5, "closed"), 200.0, 500);
        assert_ne!(a, d);
    }

    #[test]
    fn poisson_offsets_increase_at_the_requested_rate() {
        let offs = poisson_offsets(&mut stream_rng(1, "rate"), 400.0, 20_000);
        assert!(offs.windows(2).all(|w| w[1] > w[0]));
        let observed = offs.len() as f64 / offs[offs.len() - 1];
        assert!((observed - 400.0).abs() < 12.0, "rate {observed}");
    }

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let z = Zipf::new(64, 1.0);
        let draw = |seed| {
            let mut rng = stream_rng(seed, "zipf");
            (0..5000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        assert!(a.iter().all(|&k| k < 64));
        let top = a.iter().filter(|&&k| k == 0).count();
        let tail = a.iter().filter(|&&k| k == 63).count();
        assert!(top > 10 * tail.max(1), "rank 0 {top} vs rank 63 {tail}");
    }
}
