//! Deterministic pseudo-random numbers.
//!
//! A hand-rolled xoshiro256** generator (Blackman & Vigna), seeded through
//! SplitMix64. The simulator's reproducibility guarantees rest on this:
//! a run is a pure function of `(config, seed)`, so the generator must be
//! fully specified rather than borrowed from a crate whose algorithm may
//! change between versions. The statistical quality of xoshiro256** is far
//! beyond what a load-balancing simulation can detect.

use crate::snapshot::{Snap, SnapError, SnapReader, SnapWriter};

/// SplitMix64 step — used to expand a 64-bit seed into generator state and
/// to derive independent substreams.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256** PRNG.
///
/// ```
/// use oracle_des::Rng;
///
/// let mut a = Rng::seed_from_u64(7);
/// let mut b = Rng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// assert!(a.below(10) < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Build a generator from a 64-bit seed. Any seed (including 0) is valid.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derive an independent substream (e.g. one per PE) without perturbing
    /// the parent's future output beyond a single draw.
    pub fn fork(&mut self) -> Rng {
        Rng::seed_from_u64(self.next_u64())
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)` using Lemire's unbiased method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Rng::below called with bound 0");
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range [{lo}, {hi}]");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(hi - lo + 1)
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Pick a uniformly random element of `items`, or `None` if empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.below(items.len() as u64) as usize])
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The four state words: restoring them resumes the exact output stream.
impl Snap for Rng {
    fn put(&self, w: &mut SnapWriter) {
        self.s.put(w);
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(Rng { s: Snap::get(r)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = Rng::seed_from_u64(0);
        let x = r.next_u64();
        let y = r.next_u64();
        assert_ne!(x, 0);
        assert_ne!(x, y);
    }

    #[test]
    fn known_xoshiro_reference_values() {
        // Reference: xoshiro256** initialised with state [1, 2, 3, 4]
        // produces 11520, 0, 1509978240 as its first outputs.
        let mut r = Rng { s: [1, 2, 3, 4] };
        assert_eq!(r.next_u64(), 11520);
        assert_eq!(r.next_u64(), 0);
        assert_eq!(r.next_u64(), 1509978240);
    }

    #[test]
    fn below_stays_in_bounds_and_hits_all_values() {
        let mut r = Rng::seed_from_u64(7);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let v = r.below(5);
            assert!(v < 5);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = Rng::seed_from_u64(99);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[r.below(4) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "skewed counts: {counts:?}");
        }
    }

    #[test]
    fn range_inclusive_covers_endpoints() {
        let mut r = Rng::seed_from_u64(5);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2000 {
            let v = r.range_inclusive(10, 13);
            assert!((10..=13).contains(&v));
            lo_seen |= v == 10;
            hi_seen |= v == 13;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::seed_from_u64(11);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn chance_probability_is_respected() {
        let mut r = Rng::seed_from_u64(12);
        let hits = (0..100_000).filter(|_| r.chance(0.25)).count();
        assert!((24_000..26_000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = Rng::seed_from_u64(8);
        let mut child = parent.fork();
        let p: Vec<u64> = (0..16).map(|_| parent.next_u64()).collect();
        let c: Vec<u64> = (0..16).map(|_| child.next_u64()).collect();
        assert_ne!(p, c);
    }

    #[test]
    fn choose_and_shuffle() {
        let mut r = Rng::seed_from_u64(21);
        assert_eq!(r.choose::<u8>(&[]), None);
        let items = [1, 2, 3];
        assert!(items.contains(r.choose(&items).unwrap()));

        let mut v: Vec<u32> = (0..50).collect();
        let orig = v.clone();
        r.shuffle(&mut v);
        assert_ne!(v, orig, "50-element shuffle left order unchanged");
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig, "shuffle changed the multiset");
    }

    #[test]
    #[should_panic(expected = "bound 0")]
    fn below_zero_bound_panics() {
        Rng::seed_from_u64(0).below(0);
    }
}
