//! Fixed-capacity inline vectors for constant-degree routing state.
//!
//! A constant-degree overlay keeps a fixed handful of links per node
//! regardless of network size. Storing those links in heap-allocated
//! `Vec`s costs a pointer chase plus a 24-byte header per list — for a
//! four-entry successor list that is more header than payload.
//! [`InlineVec`] keeps the elements inline in the owning struct (and
//! therefore inline in the [`crate::sim::Membership`] state slab), so a
//! node's entire routing table lives in one contiguous allocation.
//! (Cycloid goes one step further: its leaf-set sides are sized by the
//! leaf radius and carry no length byte; see `cycloid::state`.)
//!
//! The API is the small slice of `Vec` the overlay crates actually use:
//! push/clear/truncate, `Deref` to `[T]` for iteration and indexing, and
//! conversions from `Vec`/slices for code that builds lists dynamically
//! before freezing them into a node's state. Capacity overflow panics —
//! the overlays validate their list lengths (e.g. Koorde's backup lists)
//! at configuration time, so an overflow here is a logic error.

use std::fmt;

/// A fixed-capacity vector storing up to `N` elements inline.
///
/// `T` must be `Copy + Default` so the backing array can be materialised
/// eagerly; unused slots hold `T::default()` and are never observed
/// through the public API.
#[derive(Clone, Copy)]
pub struct InlineVec<T: Copy + Default, const N: usize> {
    len: u8,
    buf: [T; N],
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// Creates an empty inline vector.
    pub fn new() -> Self {
        assert!(
            N <= u8::MAX as usize,
            "InlineVec capacity exceeds u8 length"
        );
        Self {
            len: 0,
            buf: [T::default(); N],
        }
    }

    /// Creates an inline vector holding `len` copies of `value`.
    ///
    /// Panics if `len > N`.
    pub fn repeat(value: T, len: usize) -> Self {
        assert!(
            len <= N,
            "InlineVec::repeat length {len} exceeds capacity {N}"
        );
        let mut v = Self::new();
        for _ in 0..len {
            v.push(value);
        }
        v
    }

    /// Creates an inline vector from a slice.
    ///
    /// Panics if the slice is longer than the capacity `N`.
    pub fn from_slice(slice: &[T]) -> Self {
        assert!(
            slice.len() <= N,
            "InlineVec::from_slice length {} exceeds capacity {N}",
            slice.len()
        );
        let mut v = Self::new();
        for &item in slice {
            v.push(item);
        }
        v
    }

    /// Number of live elements.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The fixed capacity `N`.
    pub const fn capacity(&self) -> usize {
        N
    }

    /// Appends an element. Panics if the vector is full.
    pub fn push(&mut self, value: T) {
        assert!((self.len as usize) < N, "InlineVec overflow: capacity {N}");
        self.buf[self.len as usize] = value;
        self.len += 1;
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Shortens the vector to `len` elements; no-op if already shorter.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len as usize {
            self.len = len as u8;
        }
    }

    /// Replaces each element by `f(original index, element)`, dropping
    /// those mapped to `None` and closing the gaps in order.
    pub fn filter_map_in_place(&mut self, mut f: impl FnMut(usize, T) -> Option<T>) {
        let mut kept = 0;
        for i in 0..self.len() {
            if let Some(v) = f(i, self.buf[i]) {
                self.buf[kept] = v;
                kept += 1;
            }
        }
        self.len = kept as u8;
    }

    /// Drops every element equal to the one before it, as `Vec::dedup`.
    pub fn dedup(&mut self)
    where
        T: PartialEq,
    {
        let mut prev = None;
        self.filter_map_in_place(|_, x| (prev.replace(x) != Some(x)).then_some(x));
    }

    /// The live elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        &self.buf[..self.len as usize]
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> std::ops::Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> std::ops::DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf[..self.len as usize]
    }
}

impl<T: Copy + Default, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    fn from(v: Vec<T>) -> Self {
        Self::from_slice(&v)
    }
}

impl<T: Copy + Default, const N: usize> From<&[T]> for InlineVec<T, N> {
    fn from(v: &[T]) -> Self {
        Self::from_slice(v)
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    #[inline]
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = Self::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<Vec<T>> for InlineVec<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<InlineVec<T, N>> for Vec<T> {
    fn eq(&self, other: &InlineVec<T, N>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_len_and_deref() {
        let mut v: InlineVec<u64, 4> = InlineVec::new();
        assert!(v.is_empty());
        v.push(3);
        v.push(7);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0], 3);
        assert_eq!(v.last(), Some(&7));
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![3, 7]);
    }

    #[test]
    fn from_vec_and_eq_vec() {
        let v: InlineVec<u64, 4> = vec![1, 2, 3].into();
        assert_eq!(v, vec![1, 2, 3]);
        assert_eq!(vec![1, 2, 3], v);
        assert_ne!(v, vec![1, 2]);
    }

    #[test]
    fn repeat_fills() {
        let v: InlineVec<u64, 4> = InlineVec::repeat(9, 3);
        assert_eq!(v, vec![9, 9, 9]);
    }

    #[test]
    fn clear_and_truncate() {
        let mut v: InlineVec<u64, 4> = vec![1, 2, 3, 4].into();
        v.truncate(2);
        assert_eq!(v, vec![1, 2]);
        v.truncate(10);
        assert_eq!(v.len(), 2);
        v.clear();
        assert!(v.is_empty());
    }

    #[test]
    fn filter_map_in_place_sees_original_indexes_and_drops_none() {
        let mut v: InlineVec<u64, 4> = vec![10, 20, 30, 40].into();
        let mut seen = Vec::new();
        v.filter_map_in_place(|i, x| {
            seen.push((i, x));
            (i != 1).then_some(x + i as u64)
        });
        // Index 2 is still reported as 2 after index 1 was dropped.
        assert_eq!(seen, vec![(0, 10), (1, 20), (2, 30), (3, 40)]);
        assert_eq!(v, vec![10, 32, 43]);
        v.filter_map_in_place(|_, _| None);
        assert!(v.is_empty());
    }

    #[test]
    fn dedup_drops_adjacent_repeats_only() {
        let mut v: InlineVec<u64, 8> = vec![1, 1, 2, 3, 3, 3, 1].into();
        v.dedup();
        assert_eq!(v, vec![1, 2, 3, 1]);
    }

    #[test]
    fn mutate_through_deref_mut() {
        let mut v: InlineVec<u64, 4> = vec![1, 2].into();
        v[0] = 5;
        v.sort_unstable();
        assert_eq!(v, vec![2, 5]);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn push_past_capacity_panics() {
        let mut v: InlineVec<u64, 2> = vec![1, 2].into();
        v.push(3);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn from_slice_past_capacity_panics() {
        let _: InlineVec<u64, 2> = InlineVec::from_slice(&[1, 2, 3]);
    }

    #[test]
    fn chain_via_into_iterator_ref() {
        let a: InlineVec<u64, 4> = vec![1, 2].into();
        let b: InlineVec<u64, 4> = vec![3].into();
        let all: Vec<u64> = a.iter().chain(&b).copied().collect();
        assert_eq!(all, vec![1, 2, 3]);
    }
}
