//! RMA windows: passive-target one-sided operations and MPI-3
//! shared-memory windows.
//!
//! A window is a buffer of `i64` elements contributed per rank (the only
//! element type the hierarchical DLS queues need — scheduling step and
//! scheduled-iteration counters). All accesses are sequentially
//! consistent atomics, which is *stronger* than MPI's separate memory
//! model but matches the `MPI_Win_lock`/`MPI_Fetch_and_op` usage the
//! paper relies on.

use crate::comm::{Comm, TAG_WIN};
use crate::error::{Error, Result};
use crate::rmalog::{AtomicOpKind, RmaEvent, RmaLog};
use crate::sync::QueuedLock;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{fence, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Process-wide window id source, so every allocation (across all
/// universes a test binary runs) gets a distinct id in RMA logs.
static NEXT_WIN_ID: AtomicU64 = AtomicU64::new(0);

/// `MPI_Win_lock` lock type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockKind {
    /// `MPI_LOCK_EXCLUSIVE`.
    Exclusive,
    /// `MPI_LOCK_SHARED`.
    Shared,
}

/// Predefined op for `MPI_Fetch_and_op`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RmaOp {
    /// `MPI_SUM` — fetch-and-add.
    Sum,
    /// `MPI_REPLACE` — atomic swap.
    Replace,
    /// `MPI_MIN`.
    Min,
    /// `MPI_MAX`.
    Max,
    /// `MPI_NO_OP` — atomic read.
    NoOp,
}

struct WinState {
    /// Process-unique id, stamped into RMA log records.
    id: u64,
    data: Vec<AtomicI64>,
    /// `(offset, len)` of each rank's region within `data`.
    regions: Vec<(usize, usize)>,
    /// One passive-target lock per rank region. Each records the comm
    /// rank of its current *exclusive* holder, which recovery code uses
    /// to decide whether a stuck lock is held by a dead rank before
    /// revoking it.
    locks: Vec<QueuedLock>,
    shared: bool,
}

/// Snapshot of one rank's window activity counters — the per-rank view
/// of the contention the paper attributes `X+SS` slowdowns to. Taken
/// with [`Window::rank_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankWinStats {
    /// Successful `MPI_Win_lock` epochs this rank opened (shared and
    /// exclusive, including `try_lock` successes and `lock_all`).
    pub lock_acquisitions: u64,
    /// Failed poll attempts: failed admission checks against a lock
    /// state not seen before (each release or admission the waiter
    /// observes while still queued), plus `try_lock` failures — this
    /// rank's share of the lock-attempt message traffic.
    pub failed_polls: u64,
    /// Nanoseconds this rank spent blocked *acquiring* window locks.
    pub lock_wait_ns: u64,
    /// Nanoseconds this rank spent *inside* lock epochs (lock→unlock).
    pub lock_held_ns: u64,
    /// RMA atomic operations issued (`MPI_Fetch_and_op`,
    /// `MPI_Compare_and_swap`, `MPI_Accumulate`).
    pub rma_atomic_ops: u64,
    /// `MPI_Put` operations issued (a multi-element put counts once).
    pub puts: u64,
    /// `MPI_Get` operations issued (a multi-element get counts once).
    pub gets: u64,
    /// Recovery actions this rank performed: expired leases it
    /// reclaimed plus dead-holder locks it repaired
    /// ([`Window::note_reclaim`] / [`Window::repair_lock`]).
    pub reclaims: u64,
}

/// This rank's cumulative counters plus the open-epoch bookkeeping the
/// held-time measurement needs. One per rank per window (shared by
/// clones of the same handle, which stay on the creating rank).
#[derive(Default)]
struct RankLocal {
    lock_acquisitions: AtomicU64,
    failed_polls: AtomicU64,
    lock_wait_ns: AtomicU64,
    lock_held_ns: AtomicU64,
    rma_atomic_ops: AtomicU64,
    puts: AtomicU64,
    gets: AtomicU64,
    reclaims: AtomicU64,
    /// Grant instant of each epoch this rank currently holds, by target.
    held_since: Mutex<HashMap<u32, Instant>>,
}

impl RankLocal {
    fn granted(&self, target: u32, requested: Instant, polls: u64) {
        let granted = Instant::now();
        self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
        self.failed_polls.fetch_add(polls, Ordering::Relaxed);
        self.lock_wait_ns
            .fetch_add(granted.duration_since(requested).as_nanos() as u64, Ordering::Relaxed);
        self.held_since.lock().insert(target, granted);
    }

    fn released(&self, target: u32) {
        if let Some(granted) = self.held_since.lock().remove(&target) {
            self.lock_held_ns.fetch_add(granted.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> RankWinStats {
        RankWinStats {
            lock_acquisitions: self.lock_acquisitions.load(Ordering::Relaxed),
            failed_polls: self.failed_polls.load(Ordering::Relaxed),
            lock_wait_ns: self.lock_wait_ns.load(Ordering::Relaxed),
            lock_held_ns: self.lock_held_ns.load(Ordering::Relaxed),
            rma_atomic_ops: self.rma_atomic_ops.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            reclaims: self.reclaims.load(Ordering::Relaxed),
        }
    }
}

/// A window handle held by one rank. Cloning is cheap.
///
/// ```
/// use mpisim::{RmaOp, Topology, Universe, Window};
///
/// let totals = Universe::run(Topology::single_node(4), |p| {
///     let w = p.world();
///     let win = Window::allocate(w, if w.rank() == 0 { 1 } else { 0 }).unwrap();
///     win.fetch_and_op(0, 0, 1, RmaOp::Sum).unwrap(); // everyone increments
///     w.barrier();
///     win.get(0, 0).unwrap()
/// });
/// assert_eq!(totals, vec![4; 4]);
/// ```
#[derive(Clone)]
pub struct Window {
    state: Arc<WinState>,
    comm: Comm,
    rank: Arc<RankLocal>,
    /// Recording mode: when set, every passive-target operation appends
    /// an [`RmaEvent`] for this rank to the log. Clones of a recording
    /// handle keep recording to the same log.
    log: Option<RmaLog>,
}

impl Window {
    /// `MPI_Win_create`-style collective allocation: every rank
    /// contributes `local_len` elements (may differ per rank), zeroed.
    pub fn allocate(comm: &Comm, local_len: usize) -> Result<Window> {
        Self::build(comm, local_len, false)
    }

    /// `MPI_Win_allocate_shared`: like [`Window::allocate`] but requires
    /// the communicator to be confined to one compute node.
    pub fn allocate_shared(comm: &Comm, local_len: usize) -> Result<Window> {
        if comm.node_scope().is_none() {
            return Err(Error::NotShared);
        }
        Self::build(comm, local_len, true)
    }

    fn build(comm: &Comm, local_len: usize, shared: bool) -> Result<Window> {
        let lens: Vec<usize> = comm.allgather(local_len)?;
        assert!(
            lens.len() <= QueuedLock::MAX_OWNER as usize + 1,
            "window lock words record holder ranks up to {}",
            QueuedLock::MAX_OWNER
        );
        let state = if comm.rank() == 0 {
            let mut regions = Vec::with_capacity(lens.len());
            let mut offset = 0usize;
            for &len in &lens {
                regions.push((offset, len));
                offset += len;
            }
            let state = Arc::new(WinState {
                id: NEXT_WIN_ID.fetch_add(1, Ordering::Relaxed),
                data: (0..offset).map(|_| AtomicI64::new(0)).collect(),
                locks: (0..lens.len()).map(|_| QueuedLock::new()).collect(),
                regions,
                shared,
            });
            for dest in 1..comm.size() {
                comm.send(dest, TAG_WIN, Arc::clone(&state))?;
            }
            state
        } else {
            let (_, _, state): (_, _, Arc<WinState>) = comm.recv(Some(0), Some(TAG_WIN))?;
            state
        };
        Ok(Window { state, comm: comm.clone(), rank: Arc::new(RankLocal::default()), log: None })
    }

    /// The communicator the window was created over.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// Process-unique id of this window allocation, as stamped into
    /// [`RmaRecord`](crate::RmaRecord)s.
    pub fn win_id(&self) -> u64 {
        self.state.id
    }

    /// Enter recording mode: append every subsequent passive-target
    /// operation of *this rank's handle* (and its clones) to `log`.
    /// Emits one [`RmaEvent::Attach`] declaring the window's shape.
    /// Every rank that should appear in the log must call this on its
    /// own handle, normally right after allocation.
    pub fn record_to(&mut self, log: &RmaLog) {
        self.log = Some(log.clone());
        self.rec(RmaEvent::Attach { shared: self.state.shared, comm_size: self.comm.size() });
    }

    /// Report an application-level barrier over the window's
    /// communicator to the RMA log (no-op when not recording). The
    /// checker treats it as a collective synchronization point; call it
    /// right after `comm().barrier()`.
    pub fn note_barrier(&self) {
        self.rec(RmaEvent::Barrier);
    }

    #[inline]
    fn rec(&self, event: RmaEvent) {
        if let Some(log) = &self.log {
            log.push(self.state.id, self.comm.rank(), event);
        }
    }

    /// True for windows created with [`Window::allocate_shared`].
    pub fn is_shared(&self) -> bool {
        self.state.shared
    }

    /// Length of `target`'s region.
    pub fn len_of(&self, target: u32) -> Result<usize> {
        self.region(target).map(|(_, len)| len)
    }

    fn region(&self, target: u32) -> Result<(usize, usize)> {
        self.state
            .regions
            .get(target as usize)
            .copied()
            .ok_or(Error::RankOutOfRange { rank: target, size: self.comm.size() })
    }

    fn lock_of(&self, target: u32) -> Result<&QueuedLock> {
        self.state
            .locks
            .get(target as usize)
            .ok_or(Error::RankOutOfRange { rank: target, size: self.comm.size() })
    }

    fn slot(&self, target: u32, disp: usize) -> Result<&AtomicI64> {
        let (offset, len) = self.region(target)?;
        if disp >= len {
            return Err(Error::OffsetOutOfRange { offset: disp, len });
        }
        Ok(&self.state.data[offset + disp])
    }

    /// ULFM-style failure guard: on a non-shared window, an operation
    /// targeting a dead rank's region reports [`Error::RankFailed`]
    /// instead of proceeding (real one-sided traffic to a failed
    /// process would error or hang). Shared windows stay fully
    /// accessible — the OS keeps the segment mapped while any node peer
    /// lives, which is exactly what makes node-local lease recovery
    /// possible.
    fn check_alive(&self, target: u32) -> Result<()> {
        if !self.state.shared && self.comm.is_failed(target) {
            return Err(Error::RankFailed { rank: target });
        }
        Ok(())
    }

    /// `MPI_Win_lock(kind, target)`: begin a passive-target access epoch
    /// on `target`'s region. Blocks until granted.
    pub fn lock(&self, kind: LockKind, target: u32) -> Result<()> {
        self.check_alive(target)?;
        let lock = self.lock_of(target)?;
        let requested = Instant::now();
        let polls = match kind {
            LockKind::Exclusive => lock.lock_exclusive(self.comm.rank()),
            LockKind::Shared => lock.lock_shared(),
        };
        self.rank.granted(target, requested, polls);
        // Stamped after the grant: a correctly-disciplined exclusive
        // epoch's [Lock.seq, Unlock.seq] interval cannot overlap another
        // rank's on the same target.
        self.rec(RmaEvent::Lock { kind, target });
        Ok(())
    }

    /// Nonblocking exclusive lock attempt (an extension real MPI lacks;
    /// useful for tests and backoff schemes). Returns `true` when the
    /// lock was acquired — the caller must then
    /// `unlock(LockKind::Exclusive, target)`.
    pub fn try_lock_exclusive(&self, target: u32) -> Result<bool> {
        self.check_alive(target)?;
        let lock = self.lock_of(target)?;
        let requested = Instant::now();
        if lock.try_lock_exclusive(self.comm.rank()) {
            self.rank.granted(target, requested, 0);
            self.rec(RmaEvent::Lock { kind: LockKind::Exclusive, target });
            Ok(true)
        } else {
            self.rank.failed_polls.fetch_add(1, Ordering::Relaxed);
            Ok(false)
        }
    }

    /// `MPI_Win_unlock(target)`: end the epoch begun by [`Window::lock`].
    pub fn unlock(&self, kind: LockKind, target: u32) -> Result<()> {
        let lock = self.lock_of(target)?;
        // Stamped before the release (even if the release turns out to
        // be mismatched — the checker wants to see the attempt).
        self.rec(RmaEvent::Unlock { kind, target });
        let ok = match kind {
            LockKind::Exclusive => lock.unlock_exclusive(),
            LockKind::Shared => lock.unlock_shared(),
        };
        if ok {
            self.rank.released(target);
            fence(Ordering::SeqCst);
            Ok(())
        } else {
            Err(Error::NotLocked)
        }
    }

    /// `MPI_Fetch_and_op`: atomically apply `op` with `operand` to the
    /// element at (`target`, `disp`) and return the previous value.
    pub fn fetch_and_op(&self, target: u32, disp: usize, operand: i64, op: RmaOp) -> Result<i64> {
        self.check_alive(target)?;
        let slot = self.slot(target, disp)?;
        self.rank.rma_atomic_ops.fetch_add(1, Ordering::Relaxed);
        self.rec(RmaEvent::Atomic { target, disp, op: AtomicOpKind::FetchAndOp });
        let prev = match op {
            RmaOp::Sum => slot.fetch_add(operand, Ordering::SeqCst),
            RmaOp::Replace => slot.swap(operand, Ordering::SeqCst),
            RmaOp::Min => slot.fetch_min(operand, Ordering::SeqCst),
            RmaOp::Max => slot.fetch_max(operand, Ordering::SeqCst),
            RmaOp::NoOp => slot.load(Ordering::SeqCst),
        };
        Ok(prev)
    }

    /// `MPI_Compare_and_swap`: if the element equals `expected`, replace
    /// it with `new`; returns the previous value either way.
    pub fn compare_and_swap(
        &self,
        target: u32,
        disp: usize,
        expected: i64,
        new: i64,
    ) -> Result<i64> {
        self.check_alive(target)?;
        let slot = self.slot(target, disp)?;
        self.rank.rma_atomic_ops.fetch_add(1, Ordering::Relaxed);
        self.rec(RmaEvent::Atomic { target, disp, op: AtomicOpKind::CompareAndSwap });
        Ok(match slot.compare_exchange(expected, new, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(prev) => prev,
            Err(prev) => prev,
        })
    }

    /// `MPI_Get` of one element.
    pub fn get(&self, target: u32, disp: usize) -> Result<i64> {
        self.check_alive(target)?;
        let slot = self.slot(target, disp)?;
        self.rank.gets.fetch_add(1, Ordering::Relaxed);
        self.rec(RmaEvent::Get { target, disp, len: 1 });
        Ok(slot.load(Ordering::SeqCst))
    }

    /// `MPI_Put` of one element.
    pub fn put(&self, target: u32, disp: usize, value: i64) -> Result<()> {
        self.check_alive(target)?;
        let slot = self.slot(target, disp)?;
        self.rank.puts.fetch_add(1, Ordering::Relaxed);
        self.rec(RmaEvent::Put { target, disp, len: 1 });
        slot.store(value, Ordering::SeqCst);
        Ok(())
    }

    /// `MPI_Get` of a whole region.
    pub fn get_all(&self, target: u32) -> Result<Vec<i64>> {
        self.check_alive(target)?;
        let (offset, len) = self.region(target)?;
        self.rank.gets.fetch_add(1, Ordering::Relaxed);
        self.rec(RmaEvent::Get { target, disp: 0, len });
        Ok(self.state.data[offset..offset + len].iter().map(|a| a.load(Ordering::SeqCst)).collect())
    }

    /// `MPI_Accumulate` with a predefined op on a single element — like
    /// [`Window::fetch_and_op`] but without returning the old value.
    pub fn accumulate(&self, target: u32, disp: usize, operand: i64, op: RmaOp) -> Result<()> {
        self.fetch_and_op(target, disp, operand, op).map(|_| ())
    }

    /// `MPI_Get` of `len` consecutive elements starting at `disp`.
    pub fn get_range(&self, target: u32, disp: usize, len: usize) -> Result<Vec<i64>> {
        self.check_alive(target)?;
        let (offset, region_len) = self.region(target)?;
        if disp + len > region_len {
            return Err(Error::OffsetOutOfRange { offset: disp + len, len: region_len });
        }
        self.rank.gets.fetch_add(1, Ordering::Relaxed);
        self.rec(RmaEvent::Get { target, disp, len });
        Ok(self.state.data[offset + disp..offset + disp + len]
            .iter()
            .map(|a| a.load(Ordering::SeqCst))
            .collect())
    }

    /// `MPI_Put` of consecutive elements starting at `disp`.
    pub fn put_range(&self, target: u32, disp: usize, values: &[i64]) -> Result<()> {
        self.check_alive(target)?;
        let (offset, region_len) = self.region(target)?;
        if disp + values.len() > region_len {
            return Err(Error::OffsetOutOfRange { offset: disp + values.len(), len: region_len });
        }
        self.rank.puts.fetch_add(1, Ordering::Relaxed);
        self.rec(RmaEvent::Put { target, disp, len: values.len() });
        for (i, &v) in values.iter().enumerate() {
            self.state.data[offset + disp + i].store(v, Ordering::SeqCst);
        }
        Ok(())
    }

    /// `MPI_Win_lock_all`: shared-lock every rank's region (ascending
    /// rank order, so concurrent `lock_all` calls cannot deadlock).
    pub fn lock_all(&self) {
        for (target, lock) in self.state.locks.iter().enumerate() {
            let requested = Instant::now();
            let polls = lock.lock_shared();
            self.rank.granted(target as u32, requested, polls);
        }
        self.rec(RmaEvent::LockAll);
    }

    /// `MPI_Win_unlock_all`: release the epoch begun by
    /// [`Window::lock_all`].
    pub fn unlock_all(&self) -> Result<()> {
        self.rec(RmaEvent::UnlockAll);
        for (target, lock) in self.state.locks.iter().enumerate() {
            if !lock.unlock_shared() {
                return Err(Error::NotLocked);
            }
            self.rank.released(target as u32);
        }
        fence(Ordering::SeqCst);
        Ok(())
    }

    /// `MPI_Win_flush`: complete outstanding operations at `target`.
    /// All operations in this runtime complete eagerly, so this is a
    /// memory fence — but flushing towards a dead rank on a non-shared
    /// window reports [`Error::RankFailed`], as completing operations
    /// at a failed process is impossible.
    pub fn flush(&self, target: u32) -> Result<()> {
        self.check_alive(target)?;
        fence(Ordering::SeqCst);
        self.rec(RmaEvent::Flush { target });
        Ok(())
    }

    /// `MPI_Win_sync`: memory barrier for the unified window model.
    pub fn sync(&self) {
        fence(Ordering::SeqCst);
        self.rec(RmaEvent::Sync);
    }

    /// Contention statistics of `target`'s lock:
    /// `(acquisitions, contended, polls)`.
    pub fn lock_stats(&self, target: u32) -> Result<(u64, u64, u64)> {
        let lock = self.lock_of(target)?;
        Ok(lock.stats().snapshot())
    }

    /// This rank's cumulative window activity: lock acquisitions, failed
    /// poll attempts, time blocked acquiring and time spent inside lock
    /// epochs, one-sided operation counts, and recovery actions.
    /// Counters are per handle lineage — clones of this handle share
    /// them, other ranks' handles do not.
    pub fn rank_stats(&self) -> RankWinStats {
        self.rank.snapshot()
    }

    /// Comm rank currently holding `target`'s lock exclusively, if any.
    pub fn exclusive_holder(&self, target: u32) -> Result<Option<u32>> {
        Ok(self.lock_of(target)?.holder())
    }

    /// Count one lease reclamation performed by this rank into
    /// [`Window::rank_stats`].
    pub fn note_reclaim(&self) {
        self.rank.reclaims.fetch_add(1, Ordering::Relaxed);
    }

    /// Lock repair: revoke an exclusive hold left on `target`'s lock by
    /// a *dead* rank. Refuses to touch a live holder's epoch. Returns
    /// `true` when this call performed the revocation; concurrent
    /// repair attempts race on the lock word and exactly one wins.
    /// The FIFO ticket queue is preserved, so surviving waiters are
    /// admitted in arrival order afterwards.
    pub fn repair_lock(&self, target: u32) -> Result<bool> {
        let lock = self.lock_of(target)?;
        let Some(holder) = lock.holder() else {
            return Ok(false); // not exclusively held
        };
        if !self.comm.is_failed(holder) {
            return Ok(false); // holder alive: not ours to revoke
        }
        let revoked = lock.revoke_exclusive(holder);
        if revoked {
            self.rank.reclaims.fetch_add(1, Ordering::Relaxed);
            // The repairer closes the corpse's epoch in the log so the
            // revocation is attributed on the timeline.
            self.rec(RmaEvent::Unlock { kind: LockKind::Exclusive, target });
        }
        Ok(revoked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Topology, Universe};

    #[test]
    fn fetch_and_add_is_atomic_across_ranks() {
        let out = Universe::run(Topology::new(2, 4), |p| {
            let w = p.world();
            let win = Window::allocate(w, if w.rank() == 0 { 1 } else { 0 }).unwrap();
            // Every rank increments rank 0's counter 100 times.
            let mut last = 0;
            for _ in 0..100 {
                last = win.fetch_and_op(0, 0, 1, RmaOp::Sum).unwrap();
            }
            w.barrier();
            let total = win.get(0, 0).unwrap();
            assert_eq!(total, 800);
            last
        });
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn compare_and_swap_unique_winner() {
        let out = Universe::run(Topology::new(1, 8), |p| {
            let w = p.world();
            let win = Window::allocate(w, if w.rank() == 0 { 1 } else { 0 }).unwrap();
            let prev = win.compare_and_swap(0, 0, 0, i64::from(w.rank()) + 1).unwrap();
            w.barrier();
            prev == 0
        });
        assert_eq!(out.iter().filter(|&&won| won).count(), 1);
    }

    #[test]
    fn shared_window_requires_single_node_comm() {
        Universe::run(Topology::new(2, 2), |p| {
            let w = p.world();
            assert!(matches!(Window::allocate_shared(w, 1), Err(Error::NotShared)));
            let node = w.split_shared().unwrap();
            let win = Window::allocate_shared(&node, 2).unwrap();
            assert!(win.is_shared());
        });
    }

    #[test]
    fn shared_window_visible_to_node_peers() {
        Universe::run(Topology::new(2, 2), |p| {
            let node = p.world().split_shared().unwrap();
            let win = Window::allocate_shared(&node, 1).unwrap();
            if node.rank() == 0 {
                win.put(0, 0, 1000 + i64::from(p.node_id())).unwrap();
            }
            node.barrier();
            let v = win.get(0, 0).unwrap();
            assert_eq!(v, 1000 + i64::from(p.node_id()));
        });
    }

    #[test]
    fn exclusive_lock_serialises_read_modify_write() {
        let out = Universe::run(Topology::new(1, 8), |p| {
            let w = p.world();
            let win = Window::allocate(w, if w.rank() == 0 { 1 } else { 0 }).unwrap();
            for _ in 0..50 {
                win.lock(LockKind::Exclusive, 0).unwrap();
                // Unprotected get+put would race; the lock must make it safe.
                let v = win.get(0, 0).unwrap();
                win.put(0, 0, v + 1).unwrap();
                win.unlock(LockKind::Exclusive, 0).unwrap();
            }
            w.barrier();
            win.get(0, 0).unwrap()
        });
        assert_eq!(out[0], 400);
    }

    #[test]
    fn unlock_without_lock_is_error() {
        Universe::run(Topology::new(1, 1), |p| {
            let win = Window::allocate(p.world(), 1).unwrap();
            assert_eq!(win.unlock(LockKind::Exclusive, 0).unwrap_err(), Error::NotLocked);
        });
    }

    #[test]
    fn offset_out_of_range() {
        Universe::run(Topology::new(1, 1), |p| {
            let win = Window::allocate(p.world(), 2).unwrap();
            assert!(matches!(win.get(0, 2), Err(Error::OffsetOutOfRange { offset: 2, len: 2 })));
        });
    }

    #[test]
    fn regions_are_per_rank() {
        Universe::run(Topology::new(1, 3), |p| {
            let w = p.world();
            let win = Window::allocate(w, 1).unwrap();
            win.put(w.rank(), 0, i64::from(w.rank()) * 7).unwrap();
            w.barrier();
            for r in 0..3 {
                assert_eq!(win.get(r, 0).unwrap(), i64::from(r) * 7);
            }
        });
    }

    #[test]
    fn min_max_noop_ops() {
        Universe::run(Topology::new(1, 1), |p| {
            let win = Window::allocate(p.world(), 1).unwrap();
            win.put(0, 0, 10).unwrap();
            assert_eq!(win.fetch_and_op(0, 0, 3, RmaOp::Min).unwrap(), 10);
            assert_eq!(win.get(0, 0).unwrap(), 3);
            assert_eq!(win.fetch_and_op(0, 0, 50, RmaOp::Max).unwrap(), 3);
            assert_eq!(win.get(0, 0).unwrap(), 50);
            assert_eq!(win.fetch_and_op(0, 0, 123, RmaOp::NoOp).unwrap(), 50);
            assert_eq!(win.get(0, 0).unwrap(), 50);
            assert_eq!(win.fetch_and_op(0, 0, -7, RmaOp::Replace).unwrap(), 50);
            assert_eq!(win.get(0, 0).unwrap(), -7);
        });
    }

    #[test]
    fn lock_stats_counted() {
        Universe::run(Topology::new(1, 4), |p| {
            let w = p.world();
            let win = Window::allocate(w, if w.rank() == 0 { 1 } else { 0 }).unwrap();
            for _ in 0..25 {
                win.lock(LockKind::Exclusive, 0).unwrap();
                win.unlock(LockKind::Exclusive, 0).unwrap();
            }
            w.barrier();
            let (acq, _, _) = win.lock_stats(0).unwrap();
            assert_eq!(acq, 100);
        });
    }

    #[test]
    fn range_put_get_roundtrip() {
        Universe::run(Topology::new(1, 2), |p| {
            let w = p.world();
            let win = Window::allocate(w, 5).unwrap();
            if w.rank() == 0 {
                win.put_range(1, 1, &[10, 20, 30]).unwrap();
            }
            w.barrier();
            assert_eq!(win.get_range(1, 1, 3).unwrap(), vec![10, 20, 30]);
            assert_eq!(win.get(1, 0).unwrap(), 0);
            assert_eq!(win.get(1, 4).unwrap(), 0);
        });
    }

    #[test]
    fn range_bounds_checked() {
        Universe::run(Topology::new(1, 1), |p| {
            let win = Window::allocate(p.world(), 3).unwrap();
            assert!(win.get_range(0, 2, 2).is_err());
            assert!(win.put_range(0, 0, &[1, 2, 3, 4]).is_err());
            assert!(win.get_range(0, 0, 3).is_ok());
        });
    }

    #[test]
    fn accumulate_applies_op() {
        Universe::run(Topology::new(1, 4), |p| {
            let w = p.world();
            let win = Window::allocate(w, if w.rank() == 0 { 1 } else { 0 }).unwrap();
            win.accumulate(0, 0, 5, RmaOp::Sum).unwrap();
            w.barrier();
            assert_eq!(win.get(0, 0).unwrap(), 20);
        });
    }

    #[test]
    fn lock_all_excludes_exclusive() {
        Universe::run(Topology::new(1, 2), |p| {
            let w = p.world();
            let win = Window::allocate(w, 1).unwrap();
            if w.rank() == 0 {
                win.lock_all();
                w.send(1, 0, ()).unwrap();
                let (_, _, ()) = w.recv(Some(1), Some(1)).unwrap();
                win.unlock_all().unwrap();
            } else {
                let (_, _, ()) = w.recv(Some(0), Some(0)).unwrap();
                // While rank 0 holds the shared lock_all, an exclusive
                // try-lock cannot succeed (QueuedLock semantics).
                assert!(!win.try_lock_exclusive(0).unwrap());
                w.send(0, 1, ()).unwrap();
            }
        });
    }

    #[test]
    fn unlock_all_without_lock_errors() {
        Universe::run(Topology::new(1, 1), |p| {
            let win = Window::allocate(p.world(), 1).unwrap();
            assert!(win.unlock_all().is_err());
        });
    }

    #[test]
    fn rank_stats_count_this_ranks_activity() {
        let snaps = Universe::run(Topology::new(1, 4), |p| {
            let w = p.world();
            let win = Window::allocate(w, if w.rank() == 0 { 1 } else { 0 }).unwrap();
            for _ in 0..10 {
                win.lock(LockKind::Exclusive, 0).unwrap();
                let v = win.get(0, 0).unwrap();
                win.put(0, 0, v + 1).unwrap();
                win.unlock(LockKind::Exclusive, 0).unwrap();
            }
            win.fetch_and_op(0, 0, 1, RmaOp::Sum).unwrap();
            w.barrier();
            win.rank_stats()
        });
        for s in &snaps {
            // Counters are per rank, not per window: every rank did
            // exactly 10 epochs, 10 gets/puts and 1 atomic op.
            assert_eq!(s.lock_acquisitions, 10);
            assert_eq!(s.gets, 10);
            assert_eq!(s.puts, 10);
            assert_eq!(s.rma_atomic_ops, 1);
            assert!(s.lock_held_ns > 0, "held time must accumulate");
        }
    }

    #[test]
    fn blocked_acquire_records_failed_polls_and_wait_time() {
        Universe::run(Topology::new(1, 2), |p| {
            let w = p.world();
            let win = Window::allocate(w, 1).unwrap();
            if w.rank() == 0 {
                win.lock(LockKind::Exclusive, 0).unwrap();
                w.send(1, 0, ()).unwrap();
                // Hold until rank 1 is provably blocked in its acquire
                // (its first failed poll shows up in the lock stats).
                while win.lock_stats(0).unwrap().2 == 0 {
                    std::thread::yield_now();
                }
                win.unlock(LockKind::Exclusive, 0).unwrap();
            } else {
                let (_, _, ()) = w.recv(Some(0), Some(0)).unwrap();
                win.lock(LockKind::Exclusive, 0).unwrap();
                win.unlock(LockKind::Exclusive, 0).unwrap();
                let s = win.rank_stats();
                assert!(s.failed_polls >= 1, "blocked acquire must poll");
                assert!(s.lock_wait_ns > 0, "blocked acquire must wait");
            }
            w.barrier();
        });
    }

    #[test]
    fn try_lock_failure_counts_as_failed_poll() {
        Universe::run(Topology::new(1, 2), |p| {
            let w = p.world();
            let win = Window::allocate(w, 1).unwrap();
            if w.rank() == 0 {
                win.lock(LockKind::Exclusive, 0).unwrap();
                w.send(1, 0, ()).unwrap();
                let (_, _, ()) = w.recv(Some(1), Some(1)).unwrap();
                win.unlock(LockKind::Exclusive, 0).unwrap();
            } else {
                let (_, _, ()) = w.recv(Some(0), Some(0)).unwrap();
                assert!(!win.try_lock_exclusive(0).unwrap());
                assert_eq!(win.rank_stats().failed_polls, 1);
                assert_eq!(win.rank_stats().lock_acquisitions, 0);
                w.send(0, 1, ()).unwrap();
            }
        });
    }

    #[test]
    fn recording_mode_logs_every_op_with_rank_provenance() {
        let log = RmaLog::new();
        let outer = log.clone();
        Universe::run(Topology::new(1, 2), move |p| {
            let w = p.world();
            let mut win = Window::allocate(w, 2).unwrap();
            win.record_to(&log);
            win.lock(LockKind::Exclusive, 0).unwrap();
            win.put(0, 0, i64::from(w.rank())).unwrap();
            let _ = win.get(0, 1).unwrap();
            win.unlock(LockKind::Exclusive, 0).unwrap();
            win.fetch_and_op(1, 0, 1, RmaOp::Sum).unwrap();
            w.barrier();
            win.note_barrier();
        });
        let records = outer.records();
        // Per rank: Attach, Lock, Put, Get, Unlock, Atomic, Barrier.
        assert_eq!(records.len(), 14);
        for rank in 0..2 {
            let mine: Vec<_> = records.iter().filter(|r| r.rank == rank).map(|r| r.event).collect();
            assert!(matches!(mine[0], RmaEvent::Attach { shared: false, comm_size: 2 }));
            assert!(mine.contains(&RmaEvent::Put { target: 0, disp: 0, len: 1 }));
            assert!(mine.contains(&RmaEvent::Atomic {
                target: 1,
                disp: 0,
                op: AtomicOpKind::FetchAndOp
            }));
            assert_eq!(mine.last(), Some(&RmaEvent::Barrier));
        }
        // Exclusive epochs must not interleave: between one rank's Lock
        // and Unlock seqs there is no other rank's Lock on target 0.
        let locks: Vec<_> = records
            .iter()
            .filter(|r| matches!(r.event, RmaEvent::Lock { .. } | RmaEvent::Unlock { .. }))
            .collect();
        for pair in locks.chunks(2) {
            assert_eq!(pair[0].rank, pair[1].rank, "epochs interleaved: {locks:?}");
        }
    }

    #[test]
    fn non_recording_window_logs_nothing() {
        let log = RmaLog::new();
        let outer = log.clone();
        Universe::run(Topology::new(1, 1), move |p| {
            let win = Window::allocate(p.world(), 1).unwrap();
            win.put(0, 0, 7).unwrap();
            let _ = log.len(); // log moved in but never attached
        });
        assert!(outer.is_empty());
    }

    #[test]
    fn get_all_region() {
        Universe::run(Topology::new(1, 2), |p| {
            let w = p.world();
            let win = Window::allocate(w, 3).unwrap();
            if w.rank() == 1 {
                for i in 0..3 {
                    win.put(1, i, i as i64 + 1).unwrap();
                }
            }
            w.barrier();
            assert_eq!(win.get_all(1).unwrap(), vec![1, 2, 3]);
        });
    }
}
