//! A minimal fixed-capacity bitset used to track per-world node coverage.
//!
//! The coverage state of the live-edge estimator needs one bit per node per
//! sampled world; a `Vec<bool>` would waste 8x the memory and the standard
//! library has no bitset, so this small purpose-built type keeps the hot
//! estimator loops compact.

/// Fixed-capacity bitset over `len` bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates a bitset with `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        BitSet { words: vec![0u64; len.div_ceil(64)], len }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the bitset has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tests bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        // lint:allow(panic-reachability): documented bounds contract — node ids are < len by graph construction
        assert!(index < self.len, "bit index {index} out of range {}", self.len);
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Sets bit `index`, returning `true` if it was previously clear.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[inline]
    pub fn insert(&mut self, index: usize) -> bool {
        // lint:allow(panic-reachability): documented bounds contract — node ids are < len by graph construction
        assert!(index < self.len, "bit index {index} out of range {}", self.len);
        let word = &mut self.words[index / 64];
        let mask = 1u64 << (index % 64);
        let was_clear = *word & mask == 0;
        *word |= mask;
        was_clear
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterator over the indices of set bits in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &word)| {
            (0..64).filter_map(move |b| {
                let idx = wi * 64 + b;
                if idx < self.len && (word >> b) & 1 == 1 {
                    Some(idx)
                } else {
                    None
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query() {
        let mut b = BitSet::new(100);
        assert_eq!(b.len(), 100);
        assert!(!b.contains(63));
        assert!(b.insert(63));
        assert!(!b.insert(63));
        assert!(b.contains(63));
        assert!(b.insert(64));
        assert!(b.insert(99));
        assert_eq!(b.count(), 3);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![63, 64, 99]);
    }

    #[test]
    fn clear_resets_everything() {
        let mut b = BitSet::new(10);
        b.insert(3);
        b.insert(7);
        b.clear();
        assert_eq!(b.count(), 0);
        assert!(!b.contains(3));
    }

    #[test]
    fn zero_length_bitset_is_empty() {
        let b = BitSet::new(0);
        assert!(b.is_empty());
        assert_eq!(b.count(), 0);
        assert_eq!(b.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_access_panics() {
        let b = BitSet::new(5);
        b.contains(5);
    }
}
