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
//! [`SchemaGraph`]: crate::SchemaGraph

use std::fmt;
use std::ops::{Index, IndexMut};
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
}
