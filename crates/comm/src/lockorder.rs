//! Debug-gated runtime twin of the static lock-order model.
//!
//! `sssp-lint --concurrency` builds a *static* lock-order graph from this
//! crate's sources and commits it as `crates/lint/golden/lock_order.txt`.
//! This module is the runtime half of that contract: every rank thread
//! carries a [`Recorder`] that logs the actual acquisition order of the
//! named locks, and when the rank's context is dropped (i.e. at the end
//! of the rank body, surfaced by `run_threaded`'s join) it asserts that
//! every observed held→acquired pair is an edge of the static graph and
//! that no unmodeled lock was taken. A refactor that inverts an order or
//! sneaks in a new lock therefore fails debug runs even before the lint
//! golden is regenerated.
//!
//! [`STATIC_LOCKS`] and [`STATIC_EDGES`] mirror the committed golden; a
//! lint test cross-checks they stay in sync. Release builds compile the
//! recorder down to nothing.

#[cfg(debug_assertions)]
use std::cell::RefCell;
#[cfg(debug_assertions)]
use std::collections::BTreeSet;

/// Locks of the static model, by the names the static pass extracts from
/// the declarations (see `crates/lint/golden/lock_order.txt`). `park` and
/// its condvar `wake` are the last rung of the rendezvous barrier's wait
/// ladder and `mailbox` is the exchange's cell lock; `queue` is the
/// serving layer's single state mutex, and `work_ready`/`done_ready` are
/// its condvars (condvars are modeled as primitives by the static pass
/// even though waiting on them only ever re-parks their mutex's guard).
/// Only `mailbox` is taken through a rank's [`Recorder`]: the barrier is
/// shared by all ranks and takes `park` with nothing else held.
pub const STATIC_LOCKS: &[&str] = &[
    "park",
    "wake",
    "mailbox",
    "queue",
    "work_ready",
    "done_ready",
];

/// Held→acquired edges of the static lock-order graph. Neither the
/// rendezvous runtime nor the serving layer nests acquisitions, so the
/// graph has no edges; any engine that wants to nest must extend this
/// (and the golden) first.
pub const STATIC_EDGES: &[(&str, &str)] = &[];

/// Per-thread acquisition-order recorder. Rank-private (`RefCell`, no
/// sharing); all bookkeeping exists only under `debug_assertions`.
#[derive(Default)]
pub struct Recorder {
    /// Stack of locks currently held by this thread.
    #[cfg(debug_assertions)]
    held: RefCell<Vec<&'static str>>,
    /// Every held→acquired pair observed on this thread.
    #[cfg(debug_assertions)]
    observed: RefCell<BTreeSet<(&'static str, &'static str)>>,
    /// Every lock name acquired on this thread.
    #[cfg(debug_assertions)]
    acquired: RefCell<BTreeSet<&'static str>>,
}

impl Recorder {
    /// A fresh recorder with nothing held or observed.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Record the acquisition of `name` and wrap `guard` so its release is
    /// recorded too. Call this *around* the acquisition expression so the
    /// lexical site keeps its `.lock(` token visible to the static pass:
    ///
    /// ```text
    /// let mut cell = self.lock_rec.track(
    ///     "mailbox",
    ///     mailbox[i].lock().unwrap_or_else(PoisonError::into_inner),
    /// );
    /// ```
    pub fn track<G>(&self, name: &'static str, guard: G) -> Tracked<'_, G> {
        self.on_acquire(name);
        Tracked {
            guard,
            name,
            rec: self,
        }
    }

    fn on_acquire(&self, name: &'static str) {
        #[cfg(debug_assertions)]
        {
            self.acquired.borrow_mut().insert(name);
            let mut observed = self.observed.borrow_mut();
            for held in self.held.borrow().iter() {
                observed.insert((held, name));
            }
            self.held.borrow_mut().push(name);
        }
        #[cfg(not(debug_assertions))]
        let _ = name;
    }

    fn on_release(&self, name: &'static str) {
        #[cfg(debug_assertions)]
        {
            let mut held = self.held.borrow_mut();
            if let Some(at) = held.iter().rposition(|h| *h == name) {
                held.remove(at);
            }
        }
        #[cfg(not(debug_assertions))]
        let _ = name;
    }

    /// Test hook: record a held→acquired pair as if it had happened, so
    /// differential tests can prove the consistency check actually fires.
    #[cfg(debug_assertions)]
    pub fn inject_pair(&self, from: &'static str, to: &'static str) {
        self.acquired.borrow_mut().insert(from);
        self.acquired.borrow_mut().insert(to);
        self.observed.borrow_mut().insert((from, to));
    }

    /// Every held→acquired pair observed so far, in sorted order.
    #[cfg(debug_assertions)]
    pub fn observed_pairs(&self) -> Vec<(&'static str, &'static str)> {
        self.observed.borrow().iter().copied().collect()
    }

    /// Every lock name acquired so far, in sorted order.
    #[cfg(debug_assertions)]
    pub fn observed_locks(&self) -> Vec<&'static str> {
        self.acquired.borrow().iter().copied().collect()
    }
}

/// The consistency check: runs when the rank's context is dropped at the
/// end of the rank body, so a violation panics the rank thread and
/// `run_threaded` re-raises it at the join. Skipped while unwinding so it
/// never masks the original failure.
#[cfg(debug_assertions)]
impl Drop for Recorder {
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        for name in self.acquired.borrow().iter() {
            assert!(
                STATIC_LOCKS.contains(name),
                "runtime lock acquisition order check: lock `{name}` is not \
                 in the static model — add it to lockorder::STATIC_LOCKS and \
                 regenerate crates/lint/golden/lock_order.txt"
            );
        }
        for (from, to) in self.observed.borrow().iter() {
            assert!(
                STATIC_EDGES.contains(&(from, to)),
                "runtime lock acquisition order `{from}` -> `{to}` is not an \
                 edge of the static lock-order graph — update \
                 lockorder::STATIC_EDGES and regenerate \
                 crates/lint/golden/lock_order.txt if the nesting is intended"
            );
        }
    }
}

/// A lock guard wrapped for release tracking: derefs to the inner guard,
/// notifies the recorder when dropped.
pub struct Tracked<'a, G> {
    guard: G,
    name: &'static str,
    rec: &'a Recorder,
}

impl<G> std::ops::Deref for Tracked<'_, G> {
    type Target = G;
    fn deref(&self) -> &G {
        &self.guard
    }
}

impl<G> std::ops::DerefMut for Tracked<'_, G> {
    fn deref_mut(&mut self) -> &mut G {
        &mut self.guard
    }
}

impl<G> Drop for Tracked<'_, G> {
    fn drop(&mut self) {
        self.rec.on_release(self.name);
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    #[test]
    fn acquisitions_and_releases_balance() {
        let rec = Recorder::new();
        {
            let g = rec.track("mailbox", 7u32);
            assert_eq!(*g, 7);
        }
        assert_eq!(rec.observed_locks(), vec!["mailbox"]);
        assert!(rec.observed_pairs().is_empty());
        assert!(rec.held.borrow().is_empty());
    }

    #[test]
    fn nesting_records_the_pair() {
        let rec = Recorder::new();
        {
            let _a = rec.track("mailbox", ());
            let _b = rec.track("queue", ());
            assert_eq!(rec.observed_pairs(), vec![("mailbox", "queue")]);
        }
        std::mem::forget(rec); // the pair would (correctly) trip Drop
    }

    #[test]
    fn sequential_acquisitions_record_no_pair() {
        let rec = Recorder::new();
        {
            let _a = rec.track("mailbox", ());
        }
        {
            let _b = rec.track("mailbox", ());
        }
        assert!(rec.observed_pairs().is_empty());
    }

    #[test]
    fn tracked_deref_mut_reaches_the_guard() {
        let rec = Recorder::new();
        let mut g = rec.track("mailbox", vec![1u64]);
        g.push(2);
        assert_eq!(*g, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "lock acquisition order")]
    fn unmodeled_lock_trips_the_drop_check() {
        let rec = Recorder::new();
        {
            let _g = rec.track("phantom", ());
        }
        drop(rec);
    }

    #[test]
    #[should_panic(expected = "lock acquisition order")]
    fn injected_inversion_trips_the_drop_check() {
        let rec = Recorder::new();
        rec.inject_pair("mailbox", "mailbox");
        drop(rec);
    }
}
