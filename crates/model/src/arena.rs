//! Copy-on-write chunked arena: the storage behind every [`SchemaGraph`]
//! arena (types, attributes, relationships, operations, links).
//!
//! Slots live in fixed-size chunks of [`CHUNK`] slots, each behind an
//! [`Arc`]. Cloning an arena bumps one refcount per chunk instead of
//! copying a single node, so a read snapshot of the whole graph costs
//! O(slots / `CHUNK`) pointer copies. The first write to a chunk that is
//! still shared goes through [`Arc::make_mut`] and copies just that chunk:
//! writer and snapshot then diverge chunk by chunk, never node by node
//! beyond the `CHUNK` slots a write lands in. IDs stay plain slot indices,
//! stable while appending, exactly as with the `Vec`s this replaces.
//!
//! The nodes stay inline in their chunks, so a walk over the arena reads
//! them contiguously. What a node owns on the heap is shared rather than
//! owned: a type's member lists are [`SharedList`]s and an operation's
//! signature is an `Arc`. Copying a chunk therefore copies each node's
//! fields and bumps one refcount per non-empty list — no allocation — and
//! the write that follows allocates only the one list it changes.
//!
//! [`SchemaGraph`]: crate::SchemaGraph

use std::fmt;
use std::ops::{Deref, Index, IndexMut};
use std::sync::Arc;

/// Slots per chunk. Picked from a sweep of 16 / 32 / 64 over the serve
/// publish path on 1k- and 10k-type schemas (`docs/performance.md`):
/// smaller chunks make the snapshot clone longer, larger ones make the
/// writer's first touch after a snapshot copy more nodes.
pub const CHUNK: usize = 32;

/// A growable arena of `T` stored as shared, copy-on-write chunks: full
/// chunks are fixed arrays of `CHUNK` slots, inline in their `Arc`
/// allocation (so an index is the chunk pointer, then the slot — one load
/// more than a `Vec`), followed by one shared tail of fewer than `CHUNK`
/// slots that pushes grow.
pub struct ChunkedVec<T> {
    chunks: Vec<Arc<[T; CHUNK]>>,
    tail: Arc<Vec<T>>,
}

impl<T> Clone for ChunkedVec<T> {
    fn clone(&self) -> Self {
        ChunkedVec {
            chunks: self.chunks.clone(),
            tail: Arc::clone(&self.tail),
        }
    }
}

impl<T> Default for ChunkedVec<T> {
    fn default() -> Self {
        ChunkedVec::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for ChunkedVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T> ChunkedVec<T> {
    /// An empty arena.
    pub fn new() -> Self {
        ChunkedVec {
            chunks: Vec::new(),
            tail: Arc::new(Vec::new()),
        }
    }

    /// Slots held in full chunks.
    #[inline]
    fn full(&self) -> usize {
        self.chunks.len() * CHUNK
    }

    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.full() + self.tail.len()
    }

    /// No slots at all?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slot at `i`, if any.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        match self.chunks.get(i / CHUNK) {
            Some(chunk) => Some(&chunk[i % CHUNK]),
            None => self.tail.get(i - self.full()),
        }
    }

    /// Iterate over the slots in index order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            slots: [].iter(),
            chunks: self.chunks.iter(),
            tail: &self.tail,
        }
    }

    /// Do `self` and `other` share the chunk holding slot `i`? (Snapshot
    /// isolation tests use this to see copy-on-write at work.)
    #[cfg(test)]
    pub(crate) fn shares_chunk_with(&self, other: &ChunkedVec<T>, i: usize) -> bool {
        match (self.chunks.get(i / CHUNK), other.chunks.get(i / CHUNK)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => Arc::ptr_eq(&self.tail, &other.tail),
            _ => false,
        }
    }
}

impl<T: Clone> ChunkedVec<T> {
    /// Append a slot; a tail that reaches `CHUNK` slots becomes a chunk.
    pub fn push(&mut self, value: T) {
        let tail = Arc::make_mut(&mut self.tail);
        tail.push(value);
        if tail.len() == CHUNK {
            let slots = std::mem::replace(tail, Vec::with_capacity(CHUNK));
            let chunk: [T; CHUNK] = slots
                .try_into()
                .unwrap_or_else(|_| unreachable!("the tail holds exactly CHUNK slots"));
            self.chunks.push(Arc::new(chunk));
        }
    }

    /// Drop every slot at index `len` and above.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len() {
            return;
        }
        let keep = len / CHUNK;
        if keep < self.chunks.len() {
            // The cut lands in a full chunk: its kept prefix becomes the tail.
            let prefix = self.chunks[keep][..len % CHUNK].to_vec();
            self.chunks.truncate(keep);
            self.tail = Arc::new(prefix);
        } else {
            let full = self.full();
            Arc::make_mut(&mut self.tail).truncate(len - full);
        }
    }

    /// The slot at `i`, mutably; copies its chunk (or the tail) first if
    /// a snapshot still shares it.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        let full = self.full();
        match self.chunks.get_mut(i / CHUNK) {
            Some(chunk) => Some(&mut Arc::make_mut(chunk)[i % CHUNK]),
            None if i - full < self.tail.len() => {
                Some(&mut Arc::make_mut(&mut self.tail)[i - full])
            }
            None => None,
        }
    }
}

/// A copy-on-write list inside an arena slot: empty is no pointer at all,
/// otherwise one [`Arc`]`<[T]>` whose refcounts and elements share one
/// allocation and whose length sits inline in the slot, so a read follows
/// the same single pointer an inline `Vec` would.
///
/// A clone bumps the refcount. A write builds the list it leaves behind
/// and swaps it in, so it never touches what a clone still shares:
/// [`push`](Self::push) allocates once, [`retain`](Self::retain) only if
/// it drops something, [`clear`](Self::clear) never. Reads go through
/// [`Deref`] to `[T]`, so `node.attrs.iter()` and `node.attrs.push(id)`
/// read as on a `Vec`.
#[derive(Clone, PartialEq, Eq)]
pub struct SharedList<T>(Option<Arc<[T]>>);

impl<T: Clone> SharedList<T> {
    /// Append `value`.
    pub fn push(&mut self, value: T) {
        let list: Arc<[T]> = self.iter().cloned().chain([value]).collect();
        self.0 = Some(list);
    }

    /// Keep only the elements `keep` accepts, in order; `keep` sees each
    /// element once, and a list it keeps whole is not copied.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let Some(cut) = self.iter().position(|value| !keep(value)) else {
            return;
        };
        let list: SharedList<T> = self[..cut]
            .iter()
            .chain(self[cut + 1..].iter().filter(|value| keep(value)))
            .cloned()
            .collect();
        *self = list;
    }
}

impl<T> SharedList<T> {
    /// Drop every element (and this list's hold on its allocation).
    pub fn clear(&mut self) {
        self.0 = None;
    }

    /// Do `self` and `other` hold the same allocation (or are both empty
    /// without one)? Tests use this to see copy-on-write at work.
    #[cfg(test)]
    pub(crate) fn shares_with(&self, other: &SharedList<T>) -> bool {
        match (&self.0, &other.0) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }
}

impl<T> Default for SharedList<T> {
    #[inline]
    fn default() -> Self {
        SharedList(None)
    }
}

impl<T> FromIterator<T> for SharedList<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let list: Arc<[T]> = iter.into_iter().collect();
        SharedList((!list.is_empty()).then_some(list))
    }
}

impl<T> Deref for SharedList<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match &self.0 {
            Some(list) => list,
            None => &[],
        }
    }
}

impl<'a, T> IntoIterator for &'a SharedList<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: PartialEq<U>, U> PartialEq<Vec<U>> for SharedList<T> {
    fn eq(&self, other: &Vec<U>) -> bool {
        **self == *other
    }
}

impl<T: fmt::Debug> fmt::Debug for SharedList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// Iterator over a [`ChunkedVec`]'s slots, one chunk's slice at a time.
pub struct Iter<'a, T> {
    slots: std::slice::Iter<'a, T>,
    chunks: std::slice::Iter<'a, Arc<[T; CHUNK]>>,
    tail: &'a [T],
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    #[inline]
    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(slot) = self.slots.next() {
                return Some(slot);
            }
            self.slots = match self.chunks.next() {
                Some(chunk) => chunk.iter(),
                None if !self.tail.is_empty() => std::mem::take(&mut self.tail).iter(),
                None => return None,
            };
        }
    }

    /// Skips whole chunks without touching their slots, so `skip(base)`
    /// costs O(1) instead of a walk over every skipped slot.
    fn nth(&mut self, n: usize) -> Option<&'a T> {
        let in_slice = self.slots.len();
        if n < in_slice {
            return self.slots.nth(n);
        }
        let n = n - in_slice;
        let chunks_left = self.chunks.len();
        let skip = if n / CHUNK < chunks_left {
            self.slots = self.chunks.nth(n / CHUNK)?.iter();
            n % CHUNK
        } else {
            self.chunks = Default::default();
            self.slots = std::mem::take(&mut self.tail).iter();
            n - chunks_left * CHUNK
        };
        self.slots.nth(skip)
    }
}

impl<T> Index<usize> for ChunkedVec<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        match self.chunks.get(i / CHUNK) {
            Some(chunk) => &chunk[i % CHUNK],
            None => &self.tail[i - self.full()],
        }
    }
}

impl<T: Clone> IndexMut<usize> for ChunkedVec<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        let full = self.full();
        match self.chunks.get_mut(i / CHUNK) {
            Some(chunk) => &mut Arc::make_mut(chunk)[i % CHUNK],
            None => &mut Arc::make_mut(&mut self.tail)[i - full],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize) -> ChunkedVec<usize> {
        let mut v = ChunkedVec::new();
        for i in 0..n {
            v.push(i);
        }
        v
    }

    #[test]
    fn push_index_iter_agree_with_a_vec() {
        let v = filled(3 * CHUNK + 5);
        assert_eq!(v.len(), 3 * CHUNK + 5);
        assert_eq!(
            v.iter().copied().collect::<Vec<_>>(),
            (0..v.len()).collect::<Vec<_>>()
        );
        assert_eq!(v[CHUNK], CHUNK);
        assert_eq!(v.get(v.len()), None);
    }

    #[test]
    fn truncate_at_and_inside_chunk_boundaries() {
        for cut in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK] {
            let mut v = filled(2 * CHUNK + 3);
            v.truncate(cut);
            assert_eq!(v.len(), cut);
            assert_eq!(v.iter().count(), cut);
            v.push(999);
            assert_eq!(v[cut], 999);
            assert_eq!(v.iter().count(), cut + 1);
        }
    }

    #[test]
    fn skip_jumps_chunks_and_agrees_with_a_walk() {
        let check = |v: &ChunkedVec<usize>, label: &str| {
            let all: Vec<usize> = v.iter().copied().collect();
            for k in 0..=v.len() + 1 {
                let skipped: Vec<usize> = v.iter().skip(k).copied().collect();
                assert_eq!(skipped, all.get(k..).unwrap_or(&[]), "{label}: skip({k})");
                assert_eq!(v.iter().nth(k), all.get(k), "{label}: nth({k})");
            }
            // `nth` from mid-iteration, across the slice it is in.
            let mut it = v.iter();
            let mut at = 0;
            for step in [0, 3, CHUNK - 2, 1, CHUNK, 2 * CHUNK] {
                assert_eq!(
                    it.nth(step),
                    all.get(at + step),
                    "{label}: nth({step}) at {at}"
                );
                at += step + 1;
            }
        };
        for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK, 3 * CHUNK + 5] {
            check(&filled(n), &format!("len {n}"));
        }
        for cut in [0, 5, CHUNK, 2 * CHUNK + 1] {
            let mut v = filled(3 * CHUNK + 7);
            v.truncate(cut);
            v.push(999);
            check(&v, &format!("truncated to {cut}"));
        }
    }

    #[test]
    fn writes_after_clone_copy_only_the_touched_chunk() {
        let mut writer = filled(4 * CHUNK);
        let snapshot = writer.clone();
        writer[CHUNK + 1] = 7_000;
        writer.push(8_000);
        writer.truncate(3 * CHUNK - 1);
        assert_eq!(snapshot[CHUNK + 1], CHUNK + 1);
        assert_eq!(snapshot.len(), 4 * CHUNK);
        assert_eq!(
            snapshot.iter().copied().collect::<Vec<_>>(),
            (0..4 * CHUNK).collect::<Vec<_>>()
        );
        assert!(writer.shares_chunk_with(&snapshot, 0));
        assert!(!writer.shares_chunk_with(&snapshot, CHUNK));
        assert!(!writer.shares_chunk_with(&snapshot, 2 * CHUNK));
    }

    #[test]
    fn empty_lists_hold_no_allocation_and_unchanged_lists_stay_shared() {
        let empty: SharedList<usize> = SharedList::default();
        assert!(empty.is_empty());
        assert!(std::iter::empty()
            .collect::<SharedList<usize>>()
            .shares_with(&empty));
        let mut written = empty.clone();
        written.push(0);
        written.push(1);
        assert_eq!(written, vec![0, 1]);
        assert!(!written.shares_with(&empty));
        assert!(empty.is_empty());

        // A retain that keeps everything leaves the list shared; one that
        // drops everything leaves no allocation behind.
        let view = written.clone();
        written.retain(|_| true);
        assert!(written.shares_with(&view));
        written.retain(|&i| i != 0);
        assert_eq!(written, vec![1]);
        assert_eq!(view, vec![0, 1]);
        written.retain(|_| false);
        assert!(written.shares_with(&empty));
        written.push(2);
        written.clear();
        assert!(written.shares_with(&empty));
    }
}
