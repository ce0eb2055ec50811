//! A small deterministic generator: every input the benchmark makes
//! (budgets, edits, arrival times) comes from one `--seed`.

/// SplitMix64: tiny, fast, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_1998_D47E_0001)
    }

    /// An independent stream for one purpose, so adding draws to one
    /// generator never shifts another's sequence.
    pub fn fork(&self, stream: u64) -> Self {
        let mut r = Rng(self.0 ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) has no value to draw");
        (self.next_u64() % n as u64) as usize
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
    fn same_seed_same_stream() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(Rng::new(8).next_u64(), xs[0]);
    }

    #[test]
    fn forks_are_independent_of_parent_use() {
        let base = Rng::new(3);
        let mut used = base.clone();
        used.next_u64();
        assert_eq!(base.fork(1).next_u64(), base.clone().fork(1).next_u64());
        assert_ne!(base.fork(1).next_u64(), base.fork(2).next_u64());
    }
}
