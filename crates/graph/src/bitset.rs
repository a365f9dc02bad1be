//! A small fixed-capacity bitset used by the exact independence solver
//! and the simulator's slot kernel.

/// A bitset over `0..capacity` backed by `u64` words.
#[derive(PartialEq, Eq, Debug, Default)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl Clone for BitSet {
    fn clone(&self) -> Self {
        BitSet {
            words: self.words.clone(),
            capacity: self.capacity,
        }
    }

    /// Reuses `self`'s allocation, so a scratch set can be refilled
    /// without allocating.
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.capacity = source.capacity;
    }
}

impl BitSet {
    /// An empty set with room for `capacity` elements.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The full set `{0, …, capacity−1}`.
    pub fn full(capacity: usize) -> Self {
        let mut s = BitSet::new(capacity);
        for i in 0..capacity {
            s.insert(i);
        }
        s
    }

    /// Capacity (universe size).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Raises the capacity to at least `capacity`; new elements start absent.
    pub fn grow(&mut self, capacity: usize) {
        if capacity > self.capacity {
            self.words.resize(capacity.div_ceil(64), 0);
            self.capacity = capacity;
        }
    }

    /// Inserts `i`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.capacity);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.capacity);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.capacity);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if no element is present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every element of `other` (set difference, in place).
    pub fn subtract_words(&mut self, other: &[u64]) {
        for (w, o) in self.words.iter_mut().zip(other.iter()) {
            *w &= !o;
        }
    }

    /// Keeps only the elements of `other` (intersection, in place).
    pub fn intersect_words(&mut self, other: &[u64]) {
        for (w, o) in self.words.iter_mut().zip(other.iter()) {
            *w &= o;
        }
    }

    /// Index of the lowest set bit, if any.
    pub fn first(&self) -> Option<usize> {
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(i * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(i * 64 + b)
                }
            })
        })
    }

    /// Count of elements also present in `other` (given as raw words).
    pub fn intersection_len(&self, other: &[u64]) -> usize {
        self.words
            .iter()
            .zip(other.iter())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Raw word access (for adjacency-row operations).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let mut s = BitSet::new(130);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert_eq!(s.len(), 3);
        assert!(s.contains(64));
        assert!(!s.contains(63));
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 129]);
        assert_eq!(s.first(), Some(0));
    }

    #[test]
    fn full_and_subtract() {
        let mut s = BitSet::full(70);
        assert_eq!(s.len(), 70);
        let mut mask = BitSet::new(70);
        for i in 0..35 {
            mask.insert(i * 2);
        }
        s.subtract_words(mask.words());
        assert_eq!(s.len(), 35);
        assert!(s.iter().all(|i| i % 2 == 1));
    }

    #[test]
    fn intersect_and_clone_from() {
        let mut a = BitSet::full(70);
        let mut b = BitSet::new(70);
        b.insert(3);
        b.insert(69);
        a.intersect_words(b.words());
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 69]);
        let mut c = BitSet::full(130);
        c.clone_from(&a);
        assert_eq!(c, a);
    }

    #[test]
    fn intersection_len() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        for i in 0..50 {
            a.insert(i);
        }
        for i in 25..75 {
            b.insert(i);
        }
        assert_eq!(a.intersection_len(b.words()), 25);
    }

    #[test]
    fn empty_capacity() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.first(), None);
    }
}
