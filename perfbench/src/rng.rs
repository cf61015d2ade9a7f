//! SplitMix64: the benchmark's seeded input generator.

/// A SplitMix64 stream. The same seed yields the same sequence.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// A stream for item `index` of a workload, independent of how many
    /// draws earlier items made.
    pub fn for_item(seed: u64, index: u64) -> Self {
        let mut mixer = Self::new(seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03));
        Self::new(mixer.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// A drift factor clearly outside a 5 % tolerance: low in
    /// `[0.6, 0.85)` or high in `[1.2, 1.6)`, each half the time.
    pub fn drift(&mut self) -> f64 {
        if self.next_u64() & 1 == 0 {
            self.range(0.6, 0.85)
        } else {
            self.range(1.2, 1.6)
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..4)
            .map(|i| SplitMix64::for_item(7, i).next_u64())
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|i| SplitMix64::for_item(7, i).next_u64())
            .collect();
        assert_eq!(a, b);
        assert_ne!(a[0], SplitMix64::for_item(8, 0).next_u64());
    }
}
