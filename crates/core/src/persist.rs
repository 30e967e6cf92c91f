//! Persistent ordered maps and sets for the instance's secondary
//! indexes.
//!
//! [`PMap`] is an `Arc`-chunked B-tree in the "maxes array" style: a
//! branch holds its children plus the maximum key of each child, so
//! lookups binary-search the maxes and descend. All nodes sit behind
//! `Arc`s and every write goes through [`Arc::make_mut`], so
//!
//! * `clone()` is one `Arc` bump (the substrate of O(delta) snapshot
//!   publishes — see `crate::snapshot`),
//! * a write path-copies only the O(log n) nodes from the root to the
//!   touched leaf, and copies nothing at all when the map is unshared.
//!
//! Deletion removes entries (and empty nodes) without rebalancing:
//! separator maxes stay valid upper bounds, so search correctness is
//! unaffected, and tree height only ever grows via root splits, so the
//! O(log n) bound survives. Indexes here shrink rarely (GOOD deletions
//! are typically followed by more insertions), so the occasional sparse
//! node is a fine trade for simpler path-copying.
//!
//! [`PSet`] is a thin wrapper over `PMap<T, ()>` mirroring the
//! `BTreeSet` surface the matcher probes. Both serialize exactly like
//! their `std` counterparts (`BTreeMap` → JSON object, `BTreeSet` →
//! JSON array), keeping on-disk artifacts format-identical.
//!
//! Std-only by design, like `good_graph::pvec` (the persistent-structure
//! crates are unavailable offline; the needed subset is small).

use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// Maximum entries in a leaf / children in a branch before splitting.
/// 32-wide nodes keep the tree at depth ≤ 4 for a million keys while
/// keeping path copies small (a split copies at most 32 entries), and
/// make iteration mostly contiguous slice walks.
const MAX: usize = 32;

#[derive(Debug, Clone)]
enum MNode<K, V> {
    Leaf {
        keys: Vec<K>,
        vals: Vec<V>,
    },
    Branch {
        /// `maxes[i]` is an upper bound for every key in `children[i]`
        /// and a strict lower bound for every key in `children[i + 1]`.
        maxes: Vec<K>,
        children: Vec<Arc<MNode<K, V>>>,
    },
}

/// Result of a recursive insert: the displaced value (if the key was
/// present) and, on overflow, the split-off right sibling as
/// `(left_max, right_max, right_node)`.
type Displaced<K, V> = (Option<V>, Option<(K, K, Arc<MNode<K, V>>)>);

/// A persistent ordered map: `clone` is O(1), reads and writes are
/// O(log n), writes path-copy only shared nodes.
///
/// ```
/// use good_core::persist::PMap;
///
/// let mut m: PMap<u32, &str> = PMap::new();
/// for i in 0..100 {
///     m.insert(i, "x");
/// }
/// let snapshot = m.clone(); // one Arc bump
/// m.insert(17, "y");
/// assert_eq!(snapshot.get(&17), Some(&"x"));
/// assert_eq!(m.get(&17), Some(&"y"));
/// ```
#[derive(Clone)]
pub struct PMap<K, V> {
    root: Option<Arc<MNode<K, V>>>,
    len: usize,
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap::new()
    }
}

impl<K, V> PMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        PMap { root: None, len: 0 }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate over `(key, value)` pairs in ascending key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        let mut iter = Iter {
            stack: [None; MAX_HEIGHT],
            depth: 0,
            keys: [].iter(),
            vals: [].iter(),
        };
        if let Some(root) = &self.root {
            iter.stack[0] = Some((root.as_ref(), 0));
            iter.depth = 1;
        }
        iter
    }

    /// Iterate over keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Iterate over values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

impl<K: Ord, V> PMap<K, V> {
    /// Shared access to the value for `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut node = self.root.as_deref()?;
        loop {
            match node {
                MNode::Leaf { keys, vals } => {
                    let i = keys.binary_search_by(|k| k.borrow().cmp(key)).ok()?;
                    return Some(&vals[i]);
                }
                MNode::Branch { maxes, children } => {
                    let i = maxes.partition_point(|m| m.borrow() < key);
                    node = children.get(i)?.as_ref();
                }
            }
        }
    }

    /// True if `key` has an entry.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.get(key).is_some()
    }
}

impl<K: Ord + Clone, V: Clone> PMap<K, V> {
    /// Insert `key → value`, returning the previous value if any.
    /// Path-copies shared nodes; splits full ones on the way back up.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.root.as_mut() {
            None => {
                self.root = Some(Arc::new(MNode::Leaf {
                    keys: vec![key],
                    vals: vec![value],
                }));
                self.len = 1;
                None
            }
            Some(root) => {
                let (displaced, split) = Self::insert_rec(root, key, value);
                if let Some((left_max, right_max, right)) = split {
                    let old = self.root.take().expect("non-empty");
                    self.root = Some(Arc::new(MNode::Branch {
                        maxes: vec![left_max, right_max],
                        children: vec![old, right],
                    }));
                }
                if displaced.is_none() {
                    self.len += 1;
                }
                displaced
            }
        }
    }

    fn insert_rec(node: &mut Arc<MNode<K, V>>, key: K, value: V) -> Displaced<K, V> {
        match Arc::make_mut(node) {
            MNode::Leaf { keys, vals } => match keys.binary_search(&key) {
                Ok(i) => (Some(std::mem::replace(&mut vals[i], value)), None),
                Err(i) => {
                    keys.insert(i, key);
                    vals.insert(i, value);
                    if keys.len() > MAX {
                        let half = keys.len() / 2;
                        let right_keys = keys.split_off(half);
                        let right_vals = vals.split_off(half);
                        let left_max = keys.last().expect("non-empty half").clone();
                        let right_max = right_keys.last().expect("non-empty half").clone();
                        let right = Arc::new(MNode::Leaf {
                            keys: right_keys,
                            vals: right_vals,
                        });
                        (None, Some((left_max, right_max, right)))
                    } else {
                        (None, None)
                    }
                }
            },
            MNode::Branch { maxes, children } => {
                let mut i = maxes.partition_point(|m| *m < key);
                if i == children.len() {
                    // Larger than everything: goes into the last child,
                    // whose recorded max grows to match.
                    i -= 1;
                    maxes[i] = key.clone();
                }
                let (displaced, split) = Self::insert_rec(&mut children[i], key, value);
                if let Some((left_max, right_max, right)) = split {
                    maxes[i] = left_max;
                    maxes.insert(i + 1, right_max);
                    children.insert(i + 1, right);
                    if children.len() > MAX {
                        let half = children.len() / 2;
                        let right_children = children.split_off(half);
                        let right_maxes = maxes.split_off(half);
                        let left_max = maxes.last().expect("non-empty half").clone();
                        let right_max = right_maxes.last().expect("non-empty half").clone();
                        let right = Arc::new(MNode::Branch {
                            maxes: right_maxes,
                            children: right_children,
                        });
                        return (displaced, Some((left_max, right_max, right)));
                    }
                }
                (displaced, None)
            }
        }
    }

    /// Mutable access to the value for `key`, path-copying shared nodes
    /// on the way down.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        fn descend<'a, K, V, Q>(node: &'a mut Arc<MNode<K, V>>, key: &Q) -> Option<&'a mut V>
        where
            K: Ord + Clone + Borrow<Q>,
            V: Clone,
            Q: Ord + ?Sized,
        {
            match Arc::make_mut(node) {
                MNode::Leaf { keys, vals } => {
                    let i = keys.binary_search_by(|k| k.borrow().cmp(key)).ok()?;
                    Some(&mut vals[i])
                }
                MNode::Branch { maxes, children } => {
                    let i = maxes.partition_point(|m| m.borrow() < key);
                    descend(children.get_mut(i)?, key)
                }
            }
        }
        descend(self.root.as_mut()?, key)
    }

    /// Remove the entry for `key`, returning its value if present.
    /// Empty nodes are unlinked; no rebalancing (see module docs).
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        fn remove_rec<K, V, Q>(node: &mut Arc<MNode<K, V>>, key: &Q) -> (Option<V>, bool)
        where
            K: Ord + Clone + Borrow<Q>,
            V: Clone,
            Q: Ord + ?Sized,
        {
            match Arc::make_mut(node) {
                MNode::Leaf { keys, vals } => {
                    match keys.binary_search_by(|k| k.borrow().cmp(key)) {
                        Ok(i) => {
                            keys.remove(i);
                            let value = vals.remove(i);
                            (Some(value), keys.is_empty())
                        }
                        Err(_) => (None, false),
                    }
                }
                MNode::Branch { maxes, children } => {
                    let i = maxes.partition_point(|m| m.borrow() < key);
                    let Some(child) = children.get_mut(i) else {
                        return (None, false);
                    };
                    let (removed, child_empty) = remove_rec(child, key);
                    if child_empty {
                        children.remove(i);
                        maxes.remove(i);
                    }
                    (removed, children.is_empty())
                }
            }
        }
        let root = self.root.as_mut()?;
        let (removed, root_empty) = remove_rec(root, key);
        if removed.is_some() {
            self.len -= 1;
            if root_empty {
                self.root = None;
            } else {
                // Collapse single-child root chains so height tracks the
                // live key count.
                while let Some(MNode::Branch { children, .. }) = self.root.as_deref() {
                    if children.len() != 1 {
                        break;
                    }
                    let only = children[0].clone();
                    self.root = Some(only);
                }
            }
        }
        removed
    }

    /// The value for `key`, inserting `default()` first if absent.
    pub fn get_or_insert_with(&mut self, key: &K, default: impl FnOnce() -> V) -> &mut V {
        if !self.contains_key(key) {
            self.insert(key.clone(), default());
        }
        self.get_mut(key).expect("just ensured present")
    }
}

impl<K, V> PMap<K, V> {
    /// Approximate heap footprint in bytes, counting every node once
    /// (shared nodes are not deduplicated). Feeds MVCC retention.
    pub fn approx_bytes(&self) -> usize {
        fn node_bytes<K, V>(node: &MNode<K, V>) -> usize {
            match node {
                MNode::Leaf { keys, vals } => {
                    keys.capacity() * std::mem::size_of::<K>()
                        + vals.capacity() * std::mem::size_of::<V>()
                        + 48
                }
                MNode::Branch { maxes, children } => {
                    maxes.capacity() * std::mem::size_of::<K>()
                        + children.capacity() * std::mem::size_of::<usize>()
                        + 48
                        + children.iter().map(|c| node_bytes(c)).sum::<usize>()
                }
            }
        }
        self.root.as_ref().map_or(0, |root| node_bytes(root))
    }
}

/// Upper bound on the descent depth an iterator can see. Height grows
/// only on root splits, and every node holds at least `MAX / 2 = 16`
/// entries when created — reaching height 12 therefore requires on the
/// order of `16^11 ≈ 10¹³` historic insertions, far past anything the
/// arena's `u32` node ids can address. Kept small deliberately: the
/// iterator lives on the stack of matcher hot loops, so its
/// zero-initialization cost matters.
const MAX_HEIGHT: usize = 12;

/// Iterator over a [`PMap`] in key order, chunked by leaf.
///
/// The descent stack is a fixed inline array (see [`MAX_HEIGHT`]):
/// creating and draining an iterator never heap-allocates, which keeps
/// index probes in the matcher's hot loop allocation-free.
pub struct Iter<'m, K, V> {
    stack: [Option<(&'m MNode<K, V>, usize)>; MAX_HEIGHT],
    depth: usize,
    keys: std::slice::Iter<'m, K>,
    vals: std::slice::Iter<'m, V>,
}

impl<'m, K, V> Iterator for Iter<'m, K, V> {
    type Item = (&'m K, &'m V);

    fn next(&mut self) -> Option<(&'m K, &'m V)> {
        loop {
            if let Some(key) = self.keys.next() {
                let val = self.vals.next().expect("keys and vals zip");
                return Some((key, val));
            }
            if self.depth == 0 {
                return None;
            }
            self.depth -= 1;
            let (node, child) = self.stack[self.depth].take().expect("frame below depth");
            match node {
                MNode::Leaf { keys, vals } => {
                    self.keys = keys.iter();
                    self.vals = vals.iter();
                }
                MNode::Branch { children, .. } => {
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

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Ord + Clone, V: Clone> FromIterator<(K, V)> for PMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut m = PMap::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

impl<K: PartialEq, V: PartialEq> PartialEq for PMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<K: Eq, V: Eq> Eq for PMap<K, V> {}

/// Serializes exactly like a `BTreeMap` (entries in key order).
impl<K: Serialize, V: Serialize> Serialize for PMap<K, V> {
    fn serialize(&self, out: &mut serde::Serializer) -> Result<(), serde::Error> {
        out.collect_map(self.iter())
    }
}

impl<K: Deserialize + Ord + Clone, V: Deserialize + Clone> Deserialize for PMap<K, V> {
    fn deserialize(de: &mut serde::Deserializer<'_>) -> Result<Self, serde::Error> {
        de.map()?.collect()
    }
}

/// A persistent ordered set: `clone` is O(1), membership and updates
/// are O(log n) with path copying. A thin wrapper over [`PMap<T, ()>`]
/// mirroring the `BTreeSet` probes the matcher uses.
#[derive(Clone)]
pub struct PSet<T> {
    map: PMap<T, ()>,
}

impl<T> Default for PSet<T> {
    fn default() -> Self {
        PSet::new()
    }
}

impl<T> PSet<T> {
    /// An empty set.
    pub fn new() -> Self {
        PSet { map: PMap::new() }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no elements are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.map.keys()
    }

    /// Approximate heap footprint in bytes (unshared size).
    pub fn approx_bytes(&self) -> usize {
        self.map.approx_bytes()
    }
}

impl<T: Ord> PSet<T> {
    /// True if `value` is in the set.
    pub fn contains<Q>(&self, value: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.map.contains_key(value)
    }

    /// The smallest element, if any.
    pub fn first(&self) -> Option<&T> {
        self.map.iter().next().map(|(k, ())| k)
    }
}

impl<T: Ord + Clone> PSet<T> {
    /// Insert `value`; returns true if it was newly added.
    pub fn insert(&mut self, value: T) -> bool {
        self.map.insert(value, ()).is_none()
    }

    /// Remove `value`; returns true if it was present.
    pub fn remove<Q>(&mut self, value: &Q) -> bool
    where
        T: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.map.remove(value).is_some()
    }
}

impl<T: fmt::Debug> fmt::Debug for PSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<T: Ord + Clone> FromIterator<T> for PSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        PSet {
            map: iter.into_iter().map(|v| (v, ())).collect(),
        }
    }
}

impl<T: PartialEq> PartialEq for PSet<T> {
    fn eq(&self, other: &Self) -> bool {
        self.map == other.map
    }
}

impl<T: Eq> Eq for PSet<T> {}

/// Serializes exactly like a `BTreeSet` (a sorted sequence).
impl<T: Serialize> Serialize for PSet<T> {
    fn serialize(&self, out: &mut serde::Serializer) -> Result<(), serde::Error> {
        out.collect_seq(self.iter())
    }
}

impl<T: Deserialize + Ord + Clone> Deserialize for PSet<T> {
    fn deserialize(de: &mut serde::Deserializer<'_>) -> Result<Self, serde::Error> {
        de.seq()?.collect()
    }
}

/// An `Arc`-shared hash map for the *outer*, scheme-bounded levels of
/// the instance indexes (label → inner structure).
///
/// [`PMap`] pays an ordered descent — several key comparisons — on
/// every probe, which the matcher's innermost loops feel when keys are
/// labels (string compares). The outer index levels hold one entry per
/// *label*: a handful, bounded by the scheme, independent of instance
/// size. So they keep plain `HashMap` probe speed, and cloning stays
/// O(1) by sharing the whole table behind one `Arc`. The first write
/// after a clone copies the table via [`Arc::make_mut`] — O(#labels)
/// entry clones, and the inner values are themselves persistent
/// structures whose clone is an `Arc` bump — so the O(delta) publish
/// story (see `crate::snapshot`) is unchanged.
///
/// Iteration order is the hash map's (arbitrary): never let it reach
/// rendered or serialized output. The instance only iterates these
/// maps for order-insensitive audits and byte accounting.
#[derive(Debug, Clone)]
pub struct SharedMap<K, V> {
    inner: Arc<std::collections::HashMap<K, V>>,
}

impl<K, V> Default for SharedMap<K, V> {
    fn default() -> Self {
        SharedMap::new()
    }
}

impl<K, V> SharedMap<K, V> {
    /// Create an empty map.
    pub fn new() -> Self {
        SharedMap {
            inner: Arc::new(std::collections::HashMap::new()),
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True if the map has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Iterate over `(&key, &value)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.inner.iter()
    }

    /// Iterate over values in arbitrary order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.inner.values()
    }

    /// Approximate heap footprint of the table itself in bytes (the
    /// values' own heap data is the caller's to add).
    pub fn approx_bytes(&self) -> usize {
        self.inner.capacity() * (std::mem::size_of::<K>() + std::mem::size_of::<V>() + 8) + 48
    }
}

impl<K: Eq + std::hash::Hash, V> SharedMap<K, V> {
    /// Shared access to the value under `key`.
    #[inline]
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + std::hash::Hash + ?Sized,
    {
        self.inner.get(key)
    }
}

impl<K: Eq + std::hash::Hash + Clone, V: Clone> SharedMap<K, V> {
    /// Mutable access to the value under `key`, copying the table if
    /// it is shared.
    #[inline]
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Eq + std::hash::Hash + ?Sized,
    {
        Arc::make_mut(&mut self.inner).get_mut(key)
    }

    /// Mutable access to the value under `key`, inserting
    /// `default()` first if absent. The key is cloned only on insert.
    pub fn get_or_insert_with(&mut self, key: &K, default: impl FnOnce() -> V) -> &mut V {
        let inner = Arc::make_mut(&mut self.inner);
        if !inner.contains_key(key) {
            inner.insert(key.clone(), default());
        }
        inner.get_mut(key).expect("just ensured present")
    }

    /// Remove and return the value under `key`.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Eq + std::hash::Hash + ?Sized,
    {
        Arc::make_mut(&mut self.inner).remove(key)
    }
}

impl<K: Eq + std::hash::Hash + Clone, V: Clone> FromIterator<(K, V)> for SharedMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        SharedMap {
            inner: Arc::new(iter.into_iter().collect()),
        }
    }
}

impl<K: Eq + std::hash::Hash, V: PartialEq> PartialEq for SharedMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.inner == other.inner
    }
}

impl<K: Eq + std::hash::Hash, V: Eq> Eq for SharedMap<K, V> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_roundtrip_ordered() {
        let mut m = PMap::new();
        // Insert in a scrambled order that exercises splits.
        for i in 0..2_000u32 {
            let key = (i * 7919) % 2_000;
            m.insert(key, key * 10);
        }
        assert_eq!(m.len(), 2_000);
        for i in 0..2_000 {
            assert_eq!(m.get(&i), Some(&(i * 10)));
        }
        let keys: Vec<u32> = m.keys().copied().collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(keys.len(), 2_000);
    }

    #[test]
    fn insert_replaces_and_reports_displaced() {
        let mut m = PMap::new();
        assert_eq!(m.insert("k", 1), None);
        assert_eq!(m.insert("k", 2), Some(1));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get("k"), Some(&2));
    }

    #[test]
    fn remove_matches_btreemap_under_random_workload() {
        let mut ours = PMap::new();
        let mut reference = BTreeMap::new();
        let mut state = 0x243F_6A88u64;
        for _ in 0..4_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (state >> 33) as u32 % 512;
            if state & 4 == 0 {
                assert_eq!(ours.remove(&key), reference.remove(&key));
            } else {
                assert_eq!(ours.insert(key, state), reference.insert(key, state));
            }
            assert_eq!(ours.len(), reference.len());
        }
        let flat: Vec<_> = ours.iter().map(|(k, v)| (*k, *v)).collect();
        let expect: Vec<_> = reference.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(flat, expect);
        for key in 0..512u32 {
            assert_eq!(ours.get(&key), reference.get(&key));
        }
    }

    #[test]
    fn clone_shares_until_written() {
        let mut m: PMap<u32, u32> = (0..1_000).map(|i| (i, i)).collect();
        let snapshot = m.clone();
        m.insert(17, 999);
        m.remove(&400);
        assert_eq!(snapshot.get(&17), Some(&17));
        assert_eq!(snapshot.get(&400), Some(&400));
        assert_eq!(snapshot.len(), 1_000);
        assert_eq!(m.get(&17), Some(&999));
        assert_eq!(m.len(), 999);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut m: PMap<u32, u32> = (0..100).map(|i| (i, i)).collect();
        let snapshot = m.clone();
        *m.get_mut(&50).unwrap() += 1_000;
        assert_eq!(m.get(&50), Some(&1_050));
        assert_eq!(snapshot.get(&50), Some(&50));
        assert!(m.get_mut(&200).is_none());
    }

    #[test]
    fn get_or_insert_with_inserts_once() {
        let mut m: PMap<u32, Vec<u32>> = PMap::new();
        m.get_or_insert_with(&1, Vec::new).push(10);
        m.get_or_insert_with(&1, Vec::new).push(11);
        assert_eq!(m.get(&1), Some(&vec![10, 11]));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn borrowed_key_lookup() {
        let mut m: PMap<String, u32> = PMap::new();
        m.insert("alpha".to_string(), 1);
        m.insert("beta".to_string(), 2);
        assert_eq!(m.get("alpha"), Some(&1));
        assert!(m.contains_key("beta"));
        assert_eq!(m.remove("alpha"), Some(1));
        assert_eq!(m.get("alpha"), None);
    }

    #[test]
    fn pset_mirrors_btreeset() {
        let mut s = PSet::new();
        assert!(s.insert(3));
        assert!(s.insert(1));
        assert!(!s.insert(3));
        assert!(s.contains(&1));
        assert_eq!(s.first(), Some(&1));
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![1, 3]);
        assert!(s.remove(&1));
        assert!(!s.remove(&1));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn serde_matches_std_formats() {
        let m: PMap<String, u32> = [("a".to_string(), 1), ("b".to_string(), 2)]
            .into_iter()
            .collect();
        let std_m: BTreeMap<String, u32> = [("a".to_string(), 1), ("b".to_string(), 2)]
            .into_iter()
            .collect();
        assert_eq!(
            serde_json::to_string(&m).unwrap(),
            serde_json::to_string(&std_m).unwrap()
        );
        let back: PMap<String, u32> =
            serde_json::from_str(&serde_json::to_string(&m).unwrap()).unwrap();
        assert_eq!(back, m);

        let s: PSet<u32> = [3, 1, 2].into_iter().collect();
        assert_eq!(serde_json::to_string(&s).unwrap(), "[1,2,3]");
    }

    #[test]
    fn deep_workload_after_clone_keeps_snapshot_frozen() {
        let mut m: PMap<u32, u32> = (0..5_000).map(|i| (i, i)).collect();
        let snapshot = m.clone();
        for i in 0..5_000 {
            m.remove(&i);
        }
        assert!(m.is_empty());
        assert_eq!(snapshot.len(), 5_000);
        assert_eq!(snapshot.iter().count(), 5_000);
    }

    #[test]
    fn shared_map_clone_is_isolated_from_writes() {
        let mut m: SharedMap<String, u32> = SharedMap::new();
        *m.get_or_insert_with(&"a".to_string(), || 0) = 1;
        *m.get_or_insert_with(&"b".to_string(), || 0) = 2;
        let snapshot = m.clone();
        *m.get_mut("a").unwrap() = 10;
        m.remove("b");
        *m.get_or_insert_with(&"c".to_string(), || 3) += 1;
        assert_eq!(snapshot.get("a"), Some(&1));
        assert_eq!(snapshot.get("b"), Some(&2));
        assert_eq!(snapshot.get("c"), None);
        assert_eq!(m.get("a"), Some(&10));
        assert_eq!(m.get("b"), None);
        assert_eq!(m.get("c"), Some(&4));
        assert_eq!(snapshot.len(), 2);
        assert_eq!(m.len(), 2);
        assert_ne!(m, snapshot);
    }
}
