//! A generational slot arena.
//!
//! Identifiers are `(index, generation)` pairs. Removing a slot bumps its
//! generation, so stale identifiers held by callers can never silently
//! alias a later insertion — the classic ABA hazard of free-list arenas.
//! This matters for GOOD because node deletion (`ND`) is a first-class
//! operation and patterns, matchings and method frames all hold node
//! handles across mutations.
//!
//! Slots are stored in a persistent [`PVec`](crate::pvec::PVec), so
//! cloning an arena is one `Arc` bump and mutating it path-copies only
//! the O(log n) trie nodes around the touched slot — the property the
//! snapshot/MVCC layers above rely on for O(delta) publishes.

use crate::pvec::PVec;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A handle into an [`Arena`].
///
/// `ArenaId` is intentionally opaque; the only guarantees are that it is
/// `Copy`, cheap to hash, and that an id obtained from [`Arena::insert`]
/// stays valid exactly until the corresponding [`Arena::remove`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ArenaId {
    index: u32,
    generation: u32,
}

impl ArenaId {
    /// The slot index. Only meaningful to the arena that produced the id,
    /// but useful as a dense key for side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// The generation of the slot when this id was produced.
    #[inline]
    pub fn generation(self) -> u32 {
        self.generation
    }
}

impl fmt::Debug for ArenaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}v{}", self.index, self.generation)
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Slot<T> {
    Occupied {
        generation: u32,
        value: T,
    },
    Vacant {
        generation: u32,
        next_free: Option<u32>,
    },
}

/// A generational arena: a persistent vector of slots with an intrusive
/// free list.
///
/// Insertions reuse vacated slots (keeping the id space dense, which the
/// graph layer exploits for `Vec`-backed side tables) and removals are
/// O(1). Cloning is O(1) — the slot trie is structurally shared with
/// the clone until either side writes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Arena<T> {
    slots: PVec<Slot<T>>,
    free_head: Option<u32>,
    len: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Arena<T> {
    /// Create an empty arena.
    pub fn new() -> Self {
        Arena {
            slots: PVec::new(),
            free_head: None,
            len: 0,
        }
    }

    /// Number of live values.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no live values are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The exclusive upper bound of slot indexes ever used. Useful for
    /// sizing dense side tables indexed by [`ArenaId::index`].
    #[inline]
    pub fn index_bound(&self) -> usize {
        self.slots.len()
    }

    /// True if `id` refers to a live value.
    #[inline]
    pub fn contains(&self, id: ArenaId) -> bool {
        self.get(id).is_some()
    }

    /// Shared access to the value with id `id`.
    #[inline]
    pub fn get(&self, id: ArenaId) -> Option<&T> {
        match self.slots.get(id.index()) {
            Some(Slot::Occupied { generation, value }) if *generation == id.generation => {
                Some(value)
            }
            _ => None,
        }
    }

    /// Iterate over `(id, &value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (ArenaId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(index, slot)| match slot {
                Slot::Occupied { generation, value } => Some((
                    ArenaId {
                        index: index as u32,
                        generation: *generation,
                    },
                    value,
                )),
                Slot::Vacant { .. } => None,
            })
    }

    /// Iterate over live ids.
    pub fn ids(&self) -> impl Iterator<Item = ArenaId> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Rough heap footprint of the slot trie in bytes (payload
    /// indirections are not followed). Feeds byte-based MVCC retention.
    pub fn approx_bytes(&self) -> usize {
        self.slots.approx_bytes()
    }

    /// Drop all values and reset the arena. Previously issued ids become
    /// invalid (generations are *not* preserved across `clear`, so only use
    /// this when no stale ids can be dereferenced afterwards).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free_head = None;
        self.len = 0;
    }
}

impl<T: Clone> Arena<T> {
    /// Insert a value, returning its id.
    pub fn insert(&mut self, value: T) -> ArenaId {
        self.len += 1;
        match self.free_head {
            Some(index) => {
                let slot = self
                    .slots
                    .get_mut(index as usize)
                    .expect("free list points outside the slot vector");
                let (generation, next_free) = match slot {
                    Slot::Vacant {
                        generation,
                        next_free,
                    } => (*generation, *next_free),
                    Slot::Occupied { .. } => unreachable!("free list points at occupied slot"),
                };
                self.free_head = next_free;
                *slot = Slot::Occupied { generation, value };
                ArenaId { index, generation }
            }
            None => {
                let index = u32::try_from(self.slots.len()).expect("arena capacity exceeded u32");
                self.slots.push(Slot::Occupied {
                    generation: 0,
                    value,
                });
                ArenaId {
                    index,
                    generation: 0,
                }
            }
        }
    }

    /// Remove the value with id `id`, returning it if it was live.
    pub fn remove(&mut self, id: ArenaId) -> Option<T> {
        let slot = self.slots.get_mut(id.index())?;
        match slot {
            Slot::Occupied { generation, .. } if *generation == id.generation => {
                let next_gen = id.generation.wrapping_add(1);
                let old = std::mem::replace(
                    slot,
                    Slot::Vacant {
                        generation: next_gen,
                        next_free: self.free_head,
                    },
                );
                self.free_head = Some(id.index);
                self.len -= 1;
                match old {
                    Slot::Occupied { value, .. } => Some(value),
                    Slot::Vacant { .. } => unreachable!(),
                }
            }
            _ => None,
        }
    }

    /// Mutable access to the value with id `id`.
    #[inline]
    pub fn get_mut(&mut self, id: ArenaId) -> Option<&mut T> {
        match self.slots.get_mut(id.index()) {
            Some(Slot::Occupied { generation, value }) if *generation == id.generation => {
                Some(value)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut arena = Arena::new();
        let a = arena.insert("a");
        let b = arena.insert("b");
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(a), Some(&"a"));
        assert_eq!(arena.get(b), Some(&"b"));
        assert_eq!(arena.remove(a), Some("a"));
        assert_eq!(arena.get(a), None);
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn stale_id_does_not_alias_reused_slot() {
        let mut arena = Arena::new();
        let a = arena.insert(1);
        arena.remove(a);
        let b = arena.insert(2);
        // Slot is reused...
        assert_eq!(a.index(), b.index());
        // ...but the stale id no longer resolves.
        assert_eq!(arena.get(a), None);
        assert_eq!(arena.get(b), Some(&2));
        assert_eq!(arena.remove(a), None);
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn free_list_reuses_multiple_slots() {
        let mut arena = Arena::new();
        let ids: Vec<_> = (0..10).map(|i| arena.insert(i)).collect();
        for id in &ids[2..5] {
            arena.remove(*id);
        }
        let bound_before = arena.index_bound();
        for i in 100..103 {
            arena.insert(i);
        }
        // Reinsertions reuse vacated slots instead of growing the arena.
        assert_eq!(arena.index_bound(), bound_before);
        assert_eq!(arena.len(), 10);
    }

    #[test]
    fn iteration_skips_vacant_slots() {
        let mut arena = Arena::new();
        let a = arena.insert("a");
        let _b = arena.insert("b");
        let c = arena.insert("c");
        arena.remove(a);
        arena.remove(c);
        let values: Vec<_> = arena.iter().map(|(_, v)| *v).collect();
        assert_eq!(values, vec!["b"]);
    }

    #[test]
    fn clone_shares_until_written() {
        let mut arena = Arena::new();
        let ids: Vec<_> = (0..100).map(|i| arena.insert(i)).collect();
        let snapshot = arena.clone();
        *arena.get_mut(ids[0]).unwrap() = 999;
        arena.remove(ids[50]);
        // The clone is an unchanged point-in-time view.
        assert_eq!(snapshot.get(ids[0]), Some(&0));
        assert_eq!(snapshot.get(ids[50]), Some(&50));
        assert_eq!(snapshot.len(), 100);
        assert_eq!(arena.get(ids[0]), Some(&999));
        assert_eq!(arena.len(), 99);
    }

    #[test]
    fn get_mut_respects_generation() {
        let mut arena = Arena::new();
        let a = arena.insert(1);
        arena.remove(a);
        assert!(arena.get_mut(a).is_none());
    }

    #[test]
    fn clear_resets() {
        let mut arena = Arena::new();
        arena.insert(1);
        arena.insert(2);
        arena.clear();
        assert!(arena.is_empty());
        assert_eq!(arena.index_bound(), 0);
    }

    #[test]
    fn serde_roundtrip() {
        let mut arena = Arena::new();
        let a = arena.insert(7u32);
        arena.insert(8);
        let json = serde_json::to_string(&arena).unwrap();
        let back: Arena<u32> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.get(a), Some(&7));
    }
}
