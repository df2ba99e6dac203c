//! The benchmark's seeded draws: SplitMix64, so inputs depend only on
//! the `--seed` argument and where they are drawn, never on the
//! platform or a dependency's version.

#[derive(Clone, Debug)]
pub struct Rng(u64);

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// A stream keyed by a tuple: the seed, then which workload, block
    /// and op (or other purpose) the draws are for.
    pub fn new(key: &[u64]) -> Rng {
        let state = key.iter().fold(0x5EED_5EED_5EED_5EEDu64, |acc, &k| {
            mix(acc ^ k.wrapping_add(0x9E37_79B9_7F4A_7C15))
        });
        Rng(state)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_same_draws_other_key_other_draws() {
        let draws = |key: &[u64]| {
            let mut r = Rng::new(key);
            (0..64).map(|_| r.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draws(&[7, 0, 1]), draws(&[7, 0, 1]));
        assert_ne!(draws(&[7, 0, 1]), draws(&[8, 0, 1]));
        assert_ne!(draws(&[7, 0, 1]), draws(&[7, 1, 0]));
        let mut r = Rng::new(&[1]);
        assert!((0..1000).all(|_| r.below(5) < 5));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let perm = |seed| {
            let mut v: Vec<u32> = (0..44).collect();
            Rng::new(&[seed]).shuffle(&mut v);
            v
        };
        let mut p = perm(3);
        assert_eq!(p, perm(3));
        assert_ne!(p, perm(4));
        p.sort_unstable();
        assert_eq!(p, (0..44).collect::<Vec<_>>());
    }
}
