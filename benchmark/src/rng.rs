//! The benchmark's only source of randomness: a SplitMix64 stream seeded from
//! `--seed`. Schedule order, input seeds and churn markers all derive from it,
//! so one seed names one exact sequence of operations.

/// SplitMix64 (Steele, Lea & Flood): tiny, full-period, and good enough to
/// shuffle schedules and derive sub-seeds.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound` must be nonzero).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// An independent stream for a named purpose: the same `(seed, label)`
    /// always yields the same stream, whatever else was drawn before.
    pub fn fork(&self, label: u64) -> Rng {
        let mut child = Rng(self.0 ^ label.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        child.next_u64();
        child
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_shuffle() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(a.next_u64(), b.next_u64());
        let mut xs: Vec<u32> = (0..50).collect();
        let mut ys = xs.clone();
        a.shuffle(&mut xs);
        b.shuffle(&mut ys);
        assert_eq!(xs, ys);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(xs, sorted, "a 50-element shuffle that changes nothing");
    }

    #[test]
    fn forks_are_independent_of_draw_order() {
        let base = Rng::new(11);
        let first = base.fork(3).next_u64();
        let mut other = base.fork(4);
        other.next_u64();
        assert_eq!(base.fork(3).next_u64(), first);
        assert_ne!(base.fork(4).next_u64(), first);
        assert_ne!(Rng::new(12).fork(3).next_u64(), first);
    }
}
