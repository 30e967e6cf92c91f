//! Snapshot publication: epoch-tagged, atomically rotated immutable
//! [`Instance`] handles, with a bounded MVCC version ring.
//!
//! GOOD's operational semantics treat pattern matching as a read-only
//! function of a *fixed* instance (Section 3; likewise the
//! operational-semantics and evaluation-complexity literature on graph
//! query languages). That makes snapshot isolation the natural
//! concurrency model: writers produce a fresh instance value, publish
//! it with one pointer rotation, and every reader that grabbed the
//! previous pointer keeps computing over a frozen, immutable graph —
//! no torn reads, no locks on the match path.
//!
//! Because [`Instance`] is persistent (structurally shared `PVec`/
//! `PMap` internals — see `good_graph::pvec` and `crate::persist`),
//! retaining a published version costs a few `Arc` bumps plus the
//! O(delta · log n) trie nodes that version does *not* share with its
//! neighbours. [`SnapshotCell`] exploits that: every publish is pushed
//! onto a version ring, [`SnapshotCell::load_at`] serves time-travel
//! reads against any retained epoch, and a [`RetentionPolicy`]
//! (count- and/or byte-capped) trims the tail.
//!
//! [`SnapshotCell`] stays std-only (the `arc-swap` idiom without the
//! dependency): a `Mutex` held only for the nanoseconds of a pointer
//! clone or swap, plus an `AtomicU64` epoch mirror so epoch polls
//! never contend with publishes. Readers pay one mutex lock + one
//! `Arc::clone` per *snapshot acquisition*, and nothing at all per
//! read — matching, `explain`, DOT rendering, and browsing all run
//! against the `&Instance` behind the `Arc`.

use crate::instance::Instance;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An epoch-tagged published snapshot.
///
/// The epoch is a monotone generation counter: it increments on every
/// [`SnapshotCell::publish`], so a reader can cheaply detect that the
/// world has moved on (`server` uses it to report how many batches a
/// long-held snapshot is behind) without ever blocking a writer.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The frozen instance. Immutable by construction: the only route
    /// to this `Arc` is through a cell publish, and cells never hand
    /// out `&mut`.
    pub instance: Arc<Instance>,
    /// The generation this snapshot was published at (0 = the cell's
    /// initial value).
    pub epoch: u64,
}

impl Snapshot {
    /// The frozen instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }
}

/// How many historical versions the cell's MVCC ring retains.
///
/// The current version is always kept and does not count against
/// either limit. Retained versions are structurally shared with their
/// neighbours, so the marginal cost of one more version is the delta
/// it does not share — the byte cap therefore uses the *unshared*
/// [`Instance::approx_bytes`] estimate as a conservative bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Maximum historical versions kept behind the current one.
    /// 0 disables time travel entirely.
    pub max_versions: usize,
    /// Approximate byte budget for historical versions (each version
    /// scored by `Instance::approx_bytes`). 0 means unlimited — and
    /// also skips the O(graph) size estimate on the publish path, so
    /// leave it 0 unless a byte bound is actually needed.
    pub max_bytes: usize,
}

impl Default for RetentionPolicy {
    fn default() -> Self {
        RetentionPolicy {
            max_versions: 64,
            max_bytes: 0,
        }
    }
}

impl RetentionPolicy {
    /// Retain nothing but the current version (PR 4 behavior).
    pub fn none() -> Self {
        RetentionPolicy {
            max_versions: 0,
            max_bytes: 0,
        }
    }

    /// Retain up to `versions` historical versions, no byte cap.
    pub fn versions(versions: usize) -> Self {
        RetentionPolicy {
            max_versions: versions,
            max_bytes: 0,
        }
    }
}

/// One retained version: epoch, handle, and its (lazily skipped)
/// approx-byte score — 0 when the policy has no byte cap.
type Version = (u64, Arc<Instance>, usize);

#[derive(Debug)]
struct Ring {
    /// Retained versions in epoch order; the back is the current one.
    versions: VecDeque<Version>,
    policy: RetentionPolicy,
    /// Sum of the byte scores of non-current versions.
    history_bytes: usize,
}

impl Ring {
    /// Push a freshly published version; return history trimmed to policy.
    fn push(&mut self, epoch: u64, instance: Arc<Instance>) -> Vec<Version> {
        let bytes = if self.policy.max_bytes > 0 {
            instance.approx_bytes()
        } else {
            0
        };
        if let Some(previous) = self.versions.back() {
            self.history_bytes += previous.2;
        }
        self.versions.push_back((epoch, instance, bytes));
        let mut trimmed = Vec::new();
        // `history_bytes` is 0 without a byte cap (all scores are 0).
        while self.versions.len() - 1 > self.policy.max_versions
            || self.history_bytes > self.policy.max_bytes
        {
            let version = self.versions.pop_front().expect("non-empty");
            self.history_bytes -= version.2;
            trimmed.push(version);
        }
        trimmed
    }
}

/// The publication cell: a mutex-held version ring plus an atomic
/// epoch mirror.
///
/// ```
/// use good_core::snapshot::{RetentionPolicy, SnapshotCell};
/// use good_core::instance::Instance;
/// use good_core::scheme::Scheme;
///
/// let cell = SnapshotCell::new(Instance::new(Scheme::new()));
/// let before = cell.load();
/// cell.publish(Instance::new(Scheme::new()));
/// let after = cell.load();
/// assert_eq!(before.epoch, 0);
/// assert_eq!(after.epoch, 1);
/// // `before` still reads the frozen pre-publish instance...
/// assert_eq!(before.instance().node_count(), 0);
/// // ...and epoch 0 is also servable directly from the ring.
/// assert_eq!(cell.load_at(0).unwrap().epoch, 0);
/// ```
#[derive(Debug)]
pub struct SnapshotCell {
    ring: Mutex<Ring>,
    /// Mirror of the newest epoch so [`SnapshotCell::epoch`] is one
    /// atomic load — epoch polls never contend with publishes.
    epoch: AtomicU64,
}

impl SnapshotCell {
    /// A cell initially publishing `instance` at epoch 0, with the
    /// default retention policy.
    pub fn new(instance: Instance) -> Self {
        Self::new_shared(Arc::new(instance), RetentionPolicy::default())
    }

    /// A cell initially publishing `instance` at epoch 0 under
    /// `policy`. Takes the instance by `Arc` so a caller that keeps
    /// its own handle (the server's writer does) shares rather than
    /// clones.
    pub fn new_shared(instance: Arc<Instance>, policy: RetentionPolicy) -> Self {
        let bytes = if policy.max_bytes > 0 {
            instance.approx_bytes()
        } else {
            0
        };
        let mut versions = VecDeque::new();
        versions.push_back((0, instance, bytes));
        SnapshotCell {
            ring: Mutex::new(Ring {
                versions,
                policy,
                history_bytes: 0,
            }),
            epoch: AtomicU64::new(0),
        }
    }

    /// Acquire the current snapshot: one short lock, one `Arc::clone`.
    /// The returned handle stays valid (and immutable) forever,
    /// regardless of later publishes.
    pub fn load(&self) -> Snapshot {
        let guard = self.ring.lock().expect("snapshot cell poisoned");
        let (epoch, instance, _) = guard.versions.back().expect("ring never empty");
        Snapshot {
            instance: Arc::clone(instance),
            epoch: *epoch,
        }
    }

    /// Time-travel read: the snapshot published at exactly `epoch`, if
    /// the ring still retains it. `None` means the version was trimmed
    /// by the retention policy (or never existed).
    pub fn load_at(&self, epoch: u64) -> Option<Snapshot> {
        let guard = self.ring.lock().expect("snapshot cell poisoned");
        let i = guard
            .versions
            .binary_search_by_key(&epoch, |(e, _, _)| *e)
            .ok()?;
        let (epoch, instance, _) = &guard.versions[i];
        Some(Snapshot {
            instance: Arc::clone(instance),
            epoch: *epoch,
        })
    }

    /// The current epoch: a single atomic load, no mutex.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The epochs currently retained by the ring, oldest first (the
    /// last entry is the current version).
    pub fn retained_epochs(&self) -> Vec<u64> {
        let guard = self.ring.lock().expect("snapshot cell poisoned");
        guard.versions.iter().map(|(e, _, _)| *e).collect()
    }

    /// Publish a new instance value, rotating the pointer and bumping
    /// the epoch. Readers holding older snapshots are unaffected; the
    /// previous version stays servable via [`SnapshotCell::load_at`]
    /// until the retention policy trims it.
    pub fn publish(&self, instance: Instance) -> u64 {
        self.publish_arc(Arc::new(instance))
    }

    /// [`SnapshotCell::publish`] for an already-shared instance (lets a
    /// writer that keeps its own `Arc` publish with zero copies). Trimmed
    /// versions are freed after the lock: no `load`/`load_at` waits on it.
    pub fn publish_arc(&self, instance: Arc<Instance>) -> u64 {
        let mut guard = self.ring.lock().expect("snapshot cell poisoned");
        let epoch = guard.versions.back().expect("ring never empty").0 + 1;
        let _trimmed = guard.push(epoch, instance);
        // Mirror under the lock: epoch() observers see monotone values
        // that never run ahead of a load().
        self.epoch.store(epoch, Ordering::Release);
        drop(guard);
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SchemeBuilder;

    fn tiny() -> Instance {
        let scheme = SchemeBuilder::new().object("Info").build();
        Instance::new(scheme)
    }

    fn with_nodes(count: usize) -> Instance {
        let mut db = tiny();
        for _ in 0..count {
            db.add_object("Info").unwrap();
        }
        db
    }

    #[test]
    fn load_returns_the_published_value() {
        let cell = SnapshotCell::new(tiny());
        let snap = cell.load();
        assert_eq!(snap.epoch, 0);
        assert_eq!(snap.instance().node_count(), 0);
    }

    #[test]
    fn publish_rotates_without_disturbing_held_snapshots() {
        let cell = SnapshotCell::new(tiny());
        let held = cell.load();
        let epoch = cell.publish(with_nodes(1));
        assert_eq!(epoch, 1);
        assert_eq!(cell.epoch(), 1);
        // The held snapshot still sees the old world.
        assert_eq!(held.instance().node_count(), 0);
        assert_eq!(held.epoch, 0);
        // A fresh load sees the new one.
        let fresh = cell.load();
        assert_eq!(fresh.instance().node_count(), 1);
        assert_eq!(fresh.epoch, 1);
    }

    #[test]
    fn epochs_are_monotone_across_publishes() {
        let cell = SnapshotCell::new(tiny());
        for expected in 1..=5 {
            assert_eq!(cell.publish(tiny()), expected);
        }
    }

    #[test]
    fn load_at_serves_every_retained_epoch() {
        let cell = SnapshotCell::new(with_nodes(0));
        for i in 1..=10 {
            cell.publish(with_nodes(i));
        }
        for epoch in 0..=10u64 {
            let snap = cell.load_at(epoch).expect("retained");
            assert_eq!(snap.epoch, epoch);
            assert_eq!(snap.instance().node_count(), epoch as usize);
        }
        assert!(cell.load_at(11).is_none());
    }

    #[test]
    fn count_retention_trims_oldest_versions() {
        let cell = SnapshotCell::new_shared(Arc::new(tiny()), RetentionPolicy::versions(3));
        for i in 1..=10 {
            cell.publish(with_nodes(i));
        }
        // Current (10) plus 3 history entries.
        assert_eq!(cell.retained_epochs(), vec![7, 8, 9, 10]);
        assert!(cell.load_at(6).is_none());
        assert_eq!(cell.load_at(7).unwrap().instance().node_count(), 7);
        // A handle loaded before a trim survives the trim.
        let held = cell.load_at(7).unwrap();
        for i in 11..=20 {
            cell.publish(with_nodes(i));
        }
        assert!(cell.load_at(7).is_none());
        assert_eq!(held.instance().node_count(), 7);
    }

    #[test]
    fn zero_retention_keeps_only_current() {
        let cell = SnapshotCell::new_shared(Arc::new(tiny()), RetentionPolicy::none());
        cell.publish(with_nodes(1));
        cell.publish(with_nodes(2));
        assert_eq!(cell.retained_epochs(), vec![2]);
        assert!(cell.load_at(1).is_none());
        assert_eq!(cell.load_at(2).unwrap().epoch, 2);
    }

    #[test]
    fn byte_retention_trims_when_over_budget() {
        let policy = RetentionPolicy {
            max_versions: usize::MAX,
            // Small enough that a handful of 50-node instances blow it.
            max_bytes: with_nodes(50).approx_bytes() * 2,
        };
        let cell = SnapshotCell::new_shared(Arc::new(tiny()), policy);
        for i in 1..=10 {
            cell.publish(with_nodes(50 + i));
        }
        let retained = cell.retained_epochs();
        // The byte cap kicked in: far fewer than 11 versions remain,
        // but the current one always survives.
        assert!(retained.len() < 11, "retained {retained:?}");
        assert_eq!(*retained.last().unwrap(), 10);
    }

    #[test]
    fn concurrent_loads_and_publishes_do_not_tear() {
        use std::sync::atomic::AtomicBool;
        let cell = Arc::new(SnapshotCell::new(tiny()));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let snap = cell.load();
                        // Every observable state is a fully built
                        // instance: node counts are 0 or 1, never junk.
                        assert!(snap.instance().node_count() <= 1);
                        // The atomic mirror never lags a loaded epoch.
                        assert!(cell.epoch() >= snap.epoch);
                    }
                });
            }
            for round in 0..100 {
                let mut next = tiny();
                if round % 2 == 0 {
                    next.add_object("Info").unwrap();
                }
                cell.publish(next);
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(cell.epoch(), 100);
    }
}
