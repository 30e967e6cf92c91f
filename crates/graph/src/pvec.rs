//! A persistent, structurally shared vector.
//!
//! [`PVec`] is the storage layer that makes graph snapshots O(delta): a
//! 64-way radix trie of `Arc`-shared nodes. `clone()` is one `Arc`
//! bump; mutation path-copies only the O(log₆₄ n) nodes between the
//! root and the touched slot (via [`Arc::make_mut`], so a vector that
//! is *not* currently shared mutates fully in place and pays nothing).
//!
//! The generational [`Arena`](crate::arena::Arena) keeps its slots in a
//! `PVec`, which is what lets the instance layer above publish
//! whole-database snapshots by reference instead of by deep copy (see
//! `good_core::snapshot`). Only the operations an arena needs are
//! provided: `push`, indexed `get`/`get_mut`, iteration, `clear`.
//!
//! Std-only by design (the "persistent data structures" crates are
//! unavailable offline, and the subset needed here is small).

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// log₂ of the branching factor: 64-way nodes keep the trie at depth
/// ≤ 3 for a quarter-million slots, so indexed access stays a short
/// pointer chase (the matcher hits it in its innermost loops), while a
/// path copy touches at most `depth × 64` pointers.
const BITS: usize = 6;
/// Branching factor (and leaf capacity).
const WIDTH: usize = 1 << BITS;
/// Index mask for one trie level.
const MASK: usize = WIDTH - 1;

#[derive(Debug, Clone)]
enum Node<T> {
    /// Up to [`WIDTH`] values.
    Leaf(Vec<T>),
    /// Up to [`WIDTH`] children, all subtrees full except the last.
    Branch(Vec<Arc<Node<T>>>),
}

impl<T> Node<T> {
    /// A minimal path of branches down to a one-element leaf, for an
    /// index whose prefix is all zeros below `shift`.
    fn spine(shift: usize, value: T) -> Node<T> {
        if shift == 0 {
            Node::Leaf(vec![value])
        } else {
            Node::Branch(vec![Arc::new(Node::spine(shift - BITS, value))])
        }
    }
}

/// A persistent vector: `clone` is O(1), element mutation is
/// O(log₆₄ n) shared-node copies (amortized O(1) when unshared).
///
/// ```
/// use good_graph::pvec::PVec;
///
/// let mut v: PVec<u32> = PVec::new();
/// for i in 0..1_000 {
///     v.push(i);
/// }
/// let snapshot = v.clone();          // one Arc bump
/// *v.get_mut(17).unwrap() = 999;     // path-copies ~2 nodes
/// assert_eq!(snapshot.get(17), Some(&17));
/// assert_eq!(v.get(17), Some(&999));
/// ```
#[derive(Debug, Clone)]
pub struct PVec<T> {
    root: Option<Arc<Node<T>>>,
    /// Bits consumed by the root level (`depth - 1` × [`BITS`]).
    shift: usize,
    len: usize,
}

impl<T> Default for PVec<T> {
    fn default() -> Self {
        PVec::new()
    }
}

impl<T> PVec<T> {
    /// An empty vector.
    pub fn new() -> Self {
        PVec {
            root: None,
            shift: 0,
            len: 0,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no elements are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Shared access to the element at `index`.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.len {
            return None;
        }
        let mut node = self.root.as_ref().expect("non-empty");
        let mut shift = self.shift;
        loop {
            match node.as_ref() {
                Node::Leaf(items) => return items.get(index & MASK),
                Node::Branch(children) => {
                    node = &children[(index >> shift) & MASK];
                    shift -= BITS;
                }
            }
        }
    }

    /// Drop all elements.
    pub fn clear(&mut self) {
        self.root = None;
        self.shift = 0;
        self.len = 0;
    }

    /// Iterate over the elements in index order. Leaves are yielded
    /// chunk by chunk, so full iteration is O(n) with no per-element
    /// trie descent.
    pub fn iter(&self) -> Iter<'_, T> {
        let mut iter = Iter {
            stack: [None; MAX_DEPTH],
            depth: 0,
            leaf: [].iter(),
        };
        if let Some(root) = &self.root {
            iter.stack[0] = Some((root.as_ref(), 0));
            iter.depth = 1;
        }
        iter
    }

    /// Approximate heap footprint of the trie in bytes, counting every
    /// node once (i.e. the *unshared* size; shared nodes are not
    /// deduplicated). Used by snapshot retention estimates.
    pub fn approx_bytes(&self) -> usize {
        fn node_bytes<T>(node: &Node<T>) -> usize {
            match node {
                Node::Leaf(items) => items.capacity() * std::mem::size_of::<T>() + 32,
                Node::Branch(children) => {
                    children.capacity() * std::mem::size_of::<usize>()
                        + 32
                        + children.iter().map(|c| node_bytes(c)).sum::<usize>()
                }
            }
        }
        self.root.as_ref().map_or(0, |root| node_bytes(root))
    }
}

impl<T> PVec<T> {
    /// Append an element, reaching each trie node on the way down
    /// through `via`: copy-on-write for [`PVec::push`], plain unique
    /// access while a vector is being built (nothing shares it yet).
    fn push_with(&mut self, value: T, via: impl Fn(&mut Arc<Node<T>>) -> &mut Node<T>) {
        let index = self.len;
        self.len += 1;
        // A full root grows the trie by one level: the old root becomes
        // child 0 of a new root and the value goes into a fresh spine
        // as child 1.
        if index == WIDTH << self.shift {
            let old = self.root.take().expect("a full root");
            let spine = Arc::new(Node::spine(self.shift, value));
            self.root = Some(Arc::new(Node::Branch(vec![old, spine])));
            self.shift += BITS;
            return;
        }
        let Some(root) = self.root.as_mut() else {
            self.root = Some(Arc::new(Node::Leaf(vec![value])));
            return;
        };
        let (mut node, mut shift) = (via(root), self.shift);
        loop {
            match node {
                Node::Leaf(items) => {
                    debug_assert!(items.len() < WIDTH);
                    return items.push(value);
                }
                Node::Branch(children) => {
                    let child = (index >> shift) & MASK;
                    shift -= BITS;
                    if child == children.len() {
                        return children.push(Arc::new(Node::spine(shift, value)));
                    }
                    node = via(&mut children[child]);
                }
            }
        }
    }
}

impl<T: Clone> PVec<T> {
    /// Mutable access to the element at `index`, path-copying any
    /// shared trie nodes on the way down.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        if index >= self.len {
            return None;
        }
        fn descend<T: Clone>(node: &mut Arc<Node<T>>, shift: usize, index: usize) -> &mut T {
            match Arc::make_mut(node) {
                Node::Leaf(items) => &mut items[index & MASK],
                Node::Branch(children) => {
                    descend(&mut children[(index >> shift) & MASK], shift - BITS, index)
                }
            }
        }
        Some(descend(
            self.root.as_mut().expect("non-empty"),
            self.shift,
            index,
        ))
    }

    /// Append an element.
    pub fn push(&mut self, value: T) {
        self.push_with(value, Arc::make_mut)
    }
}

/// Upper bound on trie depth: the shift grows by `BITS` per root
/// growth, and a 64-bit index is exhausted after `64 / BITS + 1`
/// levels — so 12 frames can never overflow even at the theoretical
/// maximum length.
const MAX_DEPTH: usize = 12;

/// Iterator over a [`PVec`], chunked by leaf.
///
/// The descent stack is a fixed inline array (see [`MAX_DEPTH`]):
/// creating and draining an iterator never heap-allocates.
pub struct Iter<'v, T> {
    /// Branch nodes with the index of the next child to visit.
    stack: [Option<(&'v Node<T>, usize)>; MAX_DEPTH],
    depth: usize,
    leaf: std::slice::Iter<'v, T>,
}

impl<'v, T> Iterator for Iter<'v, T> {
    type Item = &'v T;

    fn next(&mut self) -> Option<&'v T> {
        loop {
            if let Some(item) = self.leaf.next() {
                return Some(item);
            }
            if self.depth == 0 {
                return None;
            }
            self.depth -= 1;
            let (node, child) = self.stack[self.depth].take().expect("frame below depth");
            match node {
                Node::Leaf(items) => {
                    self.leaf = items.iter();
                }
                Node::Branch(children) => {
                    if let Some(next) = children.get(child) {
                        self.stack[self.depth] = Some((node, child + 1));
                        self.stack[self.depth + 1] = Some((next.as_ref(), 0));
                        self.depth += 2;
                    }
                }
            }
        }
    }
}

impl<T> FromIterator<T> for PVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = PVec::new();
        for item in iter {
            v.push_with(item, |node| Arc::get_mut(node).expect("unshared"));
        }
        v
    }
}

impl<T: PartialEq> PartialEq for PVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<T: Eq> Eq for PVec<T> {}

/// Serializes exactly like a `Vec<T>` (a plain sequence), so switching
/// the arena's slot storage to `PVec` left the journal/snapshot format
/// byte-identical.
impl<T: Serialize> Serialize for PVec<T> {
    fn serialize(&self, out: &mut serde::Serializer) -> Result<(), serde::Error> {
        out.collect_seq(self.iter())
    }
}

impl<T: Deserialize> Deserialize for PVec<T> {
    fn deserialize(de: &mut serde::Deserializer<'_>) -> Result<Self, serde::Error> {
        de.seq()?.collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip_across_level_growth() {
        let mut v = PVec::new();
        // Crosses leaf (64), depth-2 (4096) boundaries.
        for i in 0..5_000usize {
            v.push(i);
            assert_eq!(v.len(), i + 1);
        }
        for i in 0..5_000 {
            assert_eq!(v.get(i), Some(&i));
        }
        assert_eq!(v.get(5_000), None);
    }

    #[test]
    fn clone_shares_until_written() {
        let mut v: PVec<u32> = (0..10_000).collect();
        let snapshot = v.clone();
        for i in (0..10_000).step_by(97) {
            *v.get_mut(i as usize).unwrap() = i + 1_000_000;
        }
        for i in (0..10_000).step_by(97) {
            assert_eq!(snapshot.get(i as usize), Some(&i));
            assert_eq!(v.get(i as usize), Some(&(i + 1_000_000)));
        }
        // Untouched slots are still shared and equal.
        assert_eq!(v.get(1), Some(&1));
    }

    #[test]
    fn pushes_after_clone_do_not_disturb_the_snapshot() {
        let mut v: PVec<usize> = (0..100).collect();
        let snapshot = v.clone();
        for i in 100..300 {
            v.push(i);
        }
        assert_eq!(snapshot.len(), 100);
        assert_eq!(snapshot.iter().count(), 100);
        assert_eq!(v.len(), 300);
        assert_eq!(v.get(299), Some(&299));
    }

    #[test]
    fn iteration_matches_index_order() {
        let v: PVec<usize> = (0..4_200).collect();
        let collected: Vec<usize> = v.iter().copied().collect();
        assert_eq!(collected, (0..4_200).collect::<Vec<_>>());
    }

    #[test]
    fn clear_resets() {
        let mut v: PVec<u32> = (0..100).collect();
        v.clear();
        assert!(v.is_empty());
        assert_eq!(v.iter().count(), 0);
        v.push(1);
        assert_eq!(v.get(0), Some(&1));
    }

    #[test]
    fn serde_matches_vec_format() {
        let v: PVec<u32> = (0..200).collect();
        let json = serde_json::to_string(&v).unwrap();
        let as_vec: Vec<u32> = (0..200).collect();
        assert_eq!(json, serde_json::to_string(&as_vec).unwrap());
        let back: PVec<u32> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v);
    }
}
