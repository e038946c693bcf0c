//! A FIFO ticket reader/writer lock with *manual* acquire/release (MPI's
//! `MPI_Win_lock` / `MPI_Win_unlock` are separate calls, so a guard-based
//! lock cannot model them) and contention accounting.
//!
//! Acquisition order is strict arrival order: every acquirer — shared or
//! exclusive — draws a ticket, and a ticket is admitted only after every
//! earlier ticket has been admitted. A reader queued behind a writer
//! waits for that writer even while other readers hold the lock, so a
//! writer can be bypassed by at most the readers that arrived before it.
//! This is the FCFS discipline whose bounded-bypass property the
//! `model-check` crate verifies over the hierarchical queue protocol
//! (`wait_bound = ranks_per_node - 1`).
//!
//! # The ticket word
//!
//! The whole lock state is one cache-line-aligned 64-bit word, so every
//! transition is a single atomic read-modify-write and the uncontended
//! acquire/release path touches no mutex:
//!
//! | bits  | field                                           |
//! |-------|-------------------------------------------------|
//! | 0–12  | exclusive holder (valid while the exclusive bit is set) |
//! | 13    | exclusive bit                                   |
//! | 14–24 | reader count                                    |
//! | 25–35 | parked-waiter count                             |
//! | 36–49 | `now_serving` (14-bit, wrapping)                |
//! | 50–63 | `next_ticket` (14-bit, wrapping; at the top so a draw's `fetch_add` wraps out of the word) |
//!
//! An acquirer draws a ticket with one `fetch_add`, then waits until
//! `now_serving` reaches it and the held state admits it; admission is
//! a CAS that bumps `now_serving` and sets the exclusive bit (with the
//! holder) or increments the reader count. The admission CAS is
//! `Acquire` and every release `Release`, which orders one holder's
//! critical section before the next; the draw and the waiting loads are
//! `Relaxed`, because the admission CAS re-validates whatever they read.
//!
//! Waiting is spin-then-park: the acquirer re-reads the word for
//! [`SPIN_LIMIT`] iterations, which covers the ~15 µs a kernel park/wake
//! round trip costs, and only then parks on a mutex/condvar pair. A
//! release wakes parked waiters only when the word says some are parked.
//! The handshake cannot lose a wake-up: the waiter increments the parked
//! count (under the park mutex) *before* re-checking the word, and every
//! release publishes the freed state and reads the parked count in the
//! same read-modify-write, then notifies under the park mutex. Either the
//! release sees the parked count, or the waiter's re-check sees the
//! release.
//!
//! The contention counters matter: the paper attributes the poor
//! performance of `X+SS` under MPI+MPI to `MPI_Win_lock`'s *lock-polling*
//! implementation, where each blocked process repeatedly issues
//! lock-attempt messages (Zhao, Balaji & Gropp, ISPDC 2016). The
//! `cluster-sim` crate turns these counts into virtual time; here they
//! are exposed as statistics. A *failed poll* is a failed admission check
//! against a lock state the acquirer had not seen before — a release, an
//! admission or a reader leaving — not every iteration of the spin.

use std::sync::atomic::AtomicU64;

// Synchronization facade: the word, the park mutex and its condvar
// resolve to `std::sync` in a normal build and to the instrumented
// `conc-check` primitives under `--cfg conc_check`, so the explorer
// drives this exact lock code. The statistics counters stay plain std
// atomics: they are outside the protocol. (`Ordering` is the std type in
// both builds.)
#[cfg(not(conc_check))]
mod prim {
    pub use std::sync::atomic::{AtomicU64, Ordering};
    pub use std::sync::{Condvar, Mutex, MutexGuard};
}

#[cfg(conc_check)]
mod prim {
    pub use conc_check::sync::atomic::{AtomicU64, Ordering};
    pub use conc_check::sync::{Condvar, Mutex, MutexGuard};
}

use prim::{Condvar, Mutex, MutexGuard, Ordering};

/// Spin iterations before an acquirer parks: at the ~20 ns one
/// load-and-pause iteration takes on the 2-vCPU x86 host the lock was
/// tuned on, about 15 µs — the cost of the park/wake round trip it
/// avoids. The checking build spins twice, enough to explore both the
/// spin-admitted and the parked paths.
#[cfg(not(conc_check))]
const SPIN_LIMIT: u32 = 768;
#[cfg(conc_check)]
const SPIN_LIMIT: u32 = 2;

const HOLDER_MASK: u64 = (1 << 13) - 1;
const EXCL: u64 = 1 << 13;
const READER_SHIFT: u32 = 14;
const READER_ONE: u64 = 1 << READER_SHIFT;
const PARKED_SHIFT: u32 = 25;
const PARKED_ONE: u64 = 1 << PARKED_SHIFT;
const COUNT_MASK: u64 = (1 << 11) - 1;
const SERVING_SHIFT: u32 = 36;
const NEXT_SHIFT: u32 = 50;
const NEXT_ONE: u64 = 1 << NEXT_SHIFT;
const TICKET_MASK: u64 = (1 << 14) - 1;
/// The fields an admission check reads; a change in any of them is a
/// new lock state (ticket draws and parking are not).
const ADMISSION_MASK: u64 = (TICKET_MASK << SERVING_SHIFT) | (COUNT_MASK << READER_SHIFT) | EXCL;

fn serving(w: u64) -> u64 {
    (w >> SERVING_SHIFT) & TICKET_MASK
}

fn next_ticket(w: u64) -> u64 {
    w >> NEXT_SHIFT
}

fn readers(w: u64) -> u64 {
    (w >> READER_SHIFT) & COUNT_MASK
}

fn parked(w: u64) -> u64 {
    (w >> PARKED_SHIFT) & COUNT_MASK
}

fn is_free(w: u64) -> bool {
    w & EXCL == 0 && readers(w) == 0
}

/// What an acquirer asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Shared,
    /// Exclusive, on behalf of this owner.
    Exclusive(u32),
}

impl Mode {
    /// Whether `w` admits the holder of `ticket` in this mode.
    fn admits(self, w: u64, ticket: u64) -> bool {
        serving(w) == ticket
            && match self {
                Mode::Shared => w & EXCL == 0,
                Mode::Exclusive(_) => is_free(w),
            }
    }

    /// `w` after admitting the head ticket in this mode.
    fn admitted(self, w: u64) -> u64 {
        let served = ((serving(w) + 1) & TICKET_MASK) << SERVING_SHIFT;
        let w = (w & !(TICKET_MASK << SERVING_SHIFT)) | served;
        match self {
            Mode::Shared => {
                assert!(readers(w) < COUNT_MASK, "QueuedLock: too many concurrent readers");
                w + READER_ONE
            }
            Mode::Exclusive(owner) => (w & !HOLDER_MASK) | EXCL | u64::from(owner),
        }
    }
}

/// Cumulative lock statistics, updated atomically.
#[derive(Debug, Default)]
pub struct LockStats {
    /// Total successful acquisitions (shared + exclusive).
    pub acquisitions: AtomicU64,
    /// Acquisitions that had to wait at least once.
    pub contended: AtomicU64,
    /// Failed admission checks (and failed `try_lock`s) — a proxy for
    /// the number of lock-attempt polls an MPI implementation would send.
    pub polls: AtomicU64,
    /// Exclusive holds revoked from dead holders via
    /// [`QueuedLock::revoke_exclusive`] (lock repair after a
    /// crash-while-holding-lock).
    pub revocations: AtomicU64,
}

impl LockStats {
    /// Snapshot `(acquisitions, contended, polls)`.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.acquisitions.load(Ordering::Relaxed),
            self.contended.load(Ordering::Relaxed),
            self.polls.load(Ordering::Relaxed),
        )
    }
}

/// The lock word on a cache line of its own.
#[repr(align(64))]
#[derive(Default)]
struct TicketWord(prim::AtomicU64);

/// Manual-release reader/writer lock with strict FIFO admission and
/// contention statistics.
#[derive(Default)]
pub struct QueuedLock {
    word: TicketWord,
    park: Mutex<()>,
    unparked: Condvar,
    stats: LockStats,
    /// Seeded bug for the checker: a release that reads the parked
    /// count *before* publishing itself, which can lose a wake-up.
    #[cfg(conc_check)]
    early_parked_read: bool,
}

impl QueuedLock {
    /// Largest owner id an exclusive hold can record.
    pub const MAX_OWNER: u32 = HOLDER_MASK as u32;

    /// New unlocked lock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquire exclusively on behalf of `owner`, blocking until this
    /// caller reaches the head of the ticket queue *and* no holder
    /// remains. Returns the number of failed polls — the caller's share
    /// of the lock-attempt traffic recorded in [`LockStats::polls`].
    pub fn lock_exclusive(&self, owner: u32) -> u64 {
        assert!(owner <= Self::MAX_OWNER, "QueuedLock: owner {owner} does not fit the word");
        let ticket = self.draw();
        self.admit(ticket, Mode::Exclusive(owner))
    }

    /// Acquire shared, blocking until this caller reaches the head of
    /// the ticket queue and no exclusive holder exists. Consecutive
    /// shared tickets admit each other in turn, so a batch of readers
    /// still overlaps — but a reader queued behind a writer waits for
    /// it. Returns the caller's failed polls, as
    /// [`QueuedLock::lock_exclusive`] does.
    pub fn lock_shared(&self) -> u64 {
        let ticket = self.draw();
        self.admit(ticket, Mode::Shared)
    }

    /// Take the next ticket. Admission is a separate step so a test can
    /// hold a ticket queued without a thread blocked on it.
    fn draw(&self) -> u64 {
        next_ticket(self.word.0.fetch_add(NEXT_ONE, Ordering::Relaxed))
    }

    /// Wait until `ticket` is admitted in `mode`; returns the failed
    /// polls.
    fn admit(&self, ticket: u64, mode: Mode) -> u64 {
        let mut polls = Polls::default();
        let mut w = self.word.0.load(Ordering::Relaxed);
        for _ in 0..SPIN_LIMIT {
            if mode.admits(w, ticket) {
                let next = mode.admitted(w);
                match self.word.0.compare_exchange(w, next, Ordering::Acquire, Ordering::Relaxed) {
                    Ok(_) => return self.on_admission(mode, next, polls),
                    Err(now) => w = now,
                }
                continue;
            }
            polls.failed(w, &self.stats);
            std::hint::spin_loop();
            w = self.word.0.load(Ordering::Relaxed);
        }

        // Park: count ourselves in, then re-check before every wait, all
        // under the park mutex a waker must take to notify.
        let mut guard = self.park_guard();
        w = self.word.0.fetch_add(PARKED_ONE, Ordering::SeqCst) + PARKED_ONE;
        assert!(parked(w) < COUNT_MASK, "QueuedLock: too many parked waiters");
        loop {
            if mode.admits(w, ticket) {
                let next = mode.admitted(w) - PARKED_ONE;
                match self.word.0.compare_exchange(w, next, Ordering::Acquire, Ordering::Relaxed) {
                    Ok(_) => {
                        drop(guard);
                        return self.on_admission(mode, next, polls);
                    }
                    Err(now) => w = now,
                }
                continue;
            }
            polls.failed(w, &self.stats);
            guard = self.unparked.wait(guard).unwrap_or_else(std::sync::PoisonError::into_inner);
            w = self.word.0.load(Ordering::Relaxed);
        }
    }

    /// Bookkeeping after a successful admission that left the word at
    /// `w`. A shared admission may have made the next ticket (another
    /// reader) admissible, so it wakes parked waiters.
    fn on_admission(&self, mode: Mode, w: u64, polls: Polls) -> u64 {
        self.stats.acquisitions.fetch_add(1, Ordering::Relaxed);
        if polls.count > 0 {
            self.stats.contended.fetch_add(1, Ordering::Relaxed);
        }
        if mode == Mode::Shared && parked(w) > 0 {
            self.wake();
        }
        polls.count
    }

    fn park_guard(&self) -> MutexGuard<'_, ()> {
        self.park.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Wake every parked waiter. Taking the park mutex orders the
    /// notify after any waiter's count-then-re-check step.
    fn wake(&self) {
        let _guard = self.park_guard();
        self.unparked.notify_all();
    }

    /// Apply a releasing transition (`update` returns `None` when there
    /// is nothing to release) and wake parked waiters if the lock is now
    /// free. The parked count is read by the same read-modify-write that
    /// publishes the release.
    fn release(&self, mut update: impl FnMut(u64) -> Option<u64>) -> bool {
        #[cfg(conc_check)]
        let early = self.early_parked_read.then(|| parked(self.word.0.load(Ordering::SeqCst)));
        let Ok(prev) = self.word.0.fetch_update(Ordering::Release, Ordering::Relaxed, &mut update)
        else {
            return false;
        };
        #[cfg(conc_check)]
        let waiting = early.unwrap_or(parked(prev));
        #[cfg(not(conc_check))]
        let waiting = parked(prev);
        let now = update(prev).expect("the applied release is repeatable");
        if waiting > 0 && is_free(now) {
            self.wake();
        }
        true
    }

    /// Release an exclusive hold. Returns `false` (and does nothing) if
    /// the lock is not exclusively held.
    pub fn unlock_exclusive(&self) -> bool {
        self.release(|w| (w & EXCL != 0).then_some(w & !(EXCL | HOLDER_MASK)))
    }

    /// Forcibly release an exclusive hold on behalf of `holder`, a
    /// *dead* owner (lock repair). The ticket queue is untouched: the
    /// next queued acquirer is admitted normally, preserving FIFO order
    /// for the survivors. Returns `false` unless `holder` holds the lock
    /// exclusively, so of several concurrent repairers exactly one wins.
    /// Counts into [`LockStats::revocations`].
    pub fn revoke_exclusive(&self, holder: u32) -> bool {
        let revoked = self.release(|w| {
            (w & EXCL != 0 && w & HOLDER_MASK == u64::from(holder))
                .then_some(w & !(EXCL | HOLDER_MASK))
        });
        if revoked {
            self.stats.revocations.fetch_add(1, Ordering::Relaxed);
        }
        revoked
    }

    /// Release one shared hold. Returns `false` if no shared hold exists.
    pub fn unlock_shared(&self) -> bool {
        self.release(|w| (readers(w) > 0).then(|| w - READER_ONE))
    }

    /// Try to acquire exclusively on behalf of `owner` without blocking.
    /// Fails if the lock is held *or* any acquirer is queued ahead — a
    /// trylock may not barge past the ticket line.
    pub fn try_lock_exclusive(&self, owner: u32) -> bool {
        assert!(owner <= Self::MAX_OWNER, "QueuedLock: owner {owner} does not fit the word");
        let mode = Mode::Exclusive(owner);
        let mut w = self.word.0.load(Ordering::Relaxed);
        loop {
            if next_ticket(w) != serving(w) || !is_free(w) {
                self.stats.polls.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            let next = mode.admitted(w.wrapping_add(NEXT_ONE));
            match self.word.0.compare_exchange(w, next, Ordering::Acquire, Ordering::Relaxed) {
                Ok(_) => {
                    self.stats.acquisitions.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                Err(now) => w = now,
            }
        }
    }

    /// The owner holding the lock exclusively, if any.
    pub fn holder(&self) -> Option<u32> {
        let w = self.word.0.load(Ordering::SeqCst);
        (w & EXCL != 0).then_some((w & HOLDER_MASK) as u32)
    }

    /// Acquirers currently queued (ticket drawn, not yet admitted).
    pub fn waiters(&self) -> u32 {
        let w = self.word.0.load(Ordering::SeqCst);
        ((next_ticket(w).wrapping_sub(serving(w))) & TICKET_MASK) as u32
    }

    /// Contention statistics.
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }
}

/// One acquirer's failed-poll count: a failed admission check counts
/// only when the lock state differs from the one last checked.
#[derive(Default)]
struct Polls {
    count: u64,
    last: Option<u64>,
}

impl Polls {
    fn failed(&mut self, w: u64, stats: &LockStats) {
        let state = w & ADMISSION_MASK;
        if self.last != Some(state) {
            self.last = Some(state);
            self.count += 1;
            stats.polls.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::SeqCst;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn exclusive_excludes() {
        let lock = Arc::new(QueuedLock::new());
        lock.lock_exclusive(0);
        assert!(!lock.try_lock_exclusive(1));
        assert!(lock.unlock_exclusive());
        assert!(lock.try_lock_exclusive(1));
        assert_eq!(lock.holder(), Some(1));
        assert!(lock.unlock_exclusive());
        assert_eq!(lock.holder(), None);
    }

    #[test]
    fn shared_allows_readers_blocks_writer() {
        let lock = QueuedLock::new();
        lock.lock_shared();
        lock.lock_shared();
        assert!(!lock.try_lock_exclusive(0));
        assert!(lock.unlock_shared());
        assert!(lock.unlock_shared());
        assert!(lock.try_lock_exclusive(0));
    }

    #[test]
    fn unlock_without_lock_rejected() {
        let lock = QueuedLock::new();
        assert!(!lock.unlock_exclusive());
        assert!(!lock.unlock_shared());
    }

    #[test]
    fn uncontended_acquire_counts_no_poll() {
        let lock = QueuedLock::new();
        assert_eq!(lock.lock_exclusive(3), 0);
        assert!(lock.unlock_exclusive());
        assert_eq!(lock.lock_shared(), 0);
        assert!(lock.unlock_shared());
        assert_eq!(lock.stats().snapshot(), (2, 0, 0));
    }

    #[test]
    fn revoke_frees_dead_hold_and_counts() {
        let lock = Arc::new(QueuedLock::new());
        // No hold: nothing to revoke.
        assert!(!lock.revoke_exclusive(4));
        lock.lock_exclusive(4);
        // Only the recorded holder's epoch can be revoked.
        assert!(!lock.revoke_exclusive(5));
        // A peer revokes the (dead) holder's lock; the queue drains
        // normally afterwards.
        assert!(lock.revoke_exclusive(4));
        assert!(!lock.revoke_exclusive(4), "a second repairer must lose");
        assert!(lock.try_lock_exclusive(0));
        assert!(lock.unlock_exclusive());
        assert_eq!(lock.stats().revocations.load(SeqCst), 1);
    }

    #[test]
    fn contention_counted() {
        let lock = Arc::new(QueuedLock::new());
        lock.lock_exclusive(0);
        let l2 = Arc::clone(&lock);
        let t = thread::spawn(move || {
            let polls = l2.lock_exclusive(1);
            l2.unlock_exclusive();
            polls
        });
        // Release only once the second thread has provably failed an
        // admission check.
        while lock.stats().polls.load(SeqCst) == 0 {
            thread::yield_now();
        }
        lock.unlock_exclusive();
        let mine = t.join().unwrap();
        let (acq, contended, polls) = lock.stats().snapshot();
        assert_eq!(acq, 2);
        assert_eq!(contended, 1);
        assert!(mine >= 1);
        assert_eq!(polls, mine);
    }

    #[test]
    fn fifo_grant_order() {
        // Writers queued one at a time must acquire in arrival order.
        let lock = Arc::new(QueuedLock::new());
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        lock.lock_exclusive(0);
        let mut handles = Vec::new();
        for id in 0..4u32 {
            let l = Arc::clone(&lock);
            let o = Arc::clone(&order);
            handles.push(thread::spawn(move || {
                l.lock_exclusive(id + 1);
                o.lock().unwrap().push(id);
                l.unlock_exclusive();
            }));
            // Wait until this waiter has drawn its ticket before
            // spawning the next, pinning the arrival order.
            while lock.waiters() < id + 1 {
                thread::yield_now();
            }
        }
        lock.unlock_exclusive();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn trylock_cannot_barge_past_queue() {
        // A queued ticket whose admission has not run yet is exactly the
        // window a barging trylock would exploit; drawing it by hand pins
        // that window open without racing a thread.
        let lock = QueuedLock::new();
        lock.lock_exclusive(0);
        let queued = lock.draw();
        assert_eq!(lock.waiters(), 1);
        // The queued writer is ahead of us even the instant we release:
        // the lock is free, but the trylock must not jump the line.
        assert!(lock.unlock_exclusive());
        assert!(!lock.try_lock_exclusive(1));
        assert_eq!(lock.admit(queued, Mode::Exclusive(2)), 0);
        assert_eq!(lock.holder(), Some(2));
        assert!(lock.unlock_exclusive());
        // Queue drained: now it succeeds.
        assert!(lock.try_lock_exclusive(1));
        assert!(lock.unlock_exclusive());
    }

    #[test]
    fn tickets_wrap_around_the_word() {
        // Bring the queue to its last ticket value, then queue a ticket
        // across the wrap: order and the no-barge rule must survive it.
        let lock = QueuedLock::new();
        for i in 0..TICKET_MASK {
            if i % 2 == 0 {
                lock.lock_shared();
                assert!(lock.unlock_shared());
            } else {
                assert!(lock.try_lock_exclusive(0));
                assert!(lock.unlock_exclusive());
            }
        }
        lock.lock_exclusive(0);
        assert_eq!(held_ticket(&lock), TICKET_MASK);
        let queued = lock.draw();
        assert_eq!(queued, 0);
        assert_eq!(lock.waiters(), 1);
        assert!(lock.unlock_exclusive());
        assert!(!lock.try_lock_exclusive(1));
        assert_eq!(lock.admit(queued, Mode::Exclusive(2)), 0);
        assert_eq!(held_ticket(&lock), 0);
        assert!(lock.unlock_exclusive());
        assert!(lock.try_lock_exclusive(1));
        assert_eq!(lock.stats().acquisitions.load(SeqCst), TICKET_MASK + 3);
    }

    #[test]
    fn reader_queued_behind_writer_waits() {
        // r1 holds shared; w queued; r2 arrives after w. FIFO means r2
        // must not overlap with r1 — it enters only after w finishes.
        let lock = Arc::new(QueuedLock::new());
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        lock.lock_shared();

        let (lw, ow) = (Arc::clone(&lock), Arc::clone(&order));
        let w = thread::spawn(move || {
            lw.lock_exclusive(1);
            ow.lock().unwrap().push("w");
            lw.unlock_exclusive();
        });
        while lock.waiters() == 0 {
            thread::yield_now();
        }

        let (lr, or) = (Arc::clone(&lock), Arc::clone(&order));
        let r2 = thread::spawn(move || {
            lr.lock_shared();
            or.lock().unwrap().push("r2");
            lr.unlock_shared();
        });
        while lock.waiters() < 2 {
            thread::yield_now();
        }

        lock.unlock_shared();
        w.join().unwrap();
        r2.join().unwrap();
        assert_eq!(*order.lock().unwrap(), vec!["w", "r2"]);
    }

    #[test]
    fn parked_waiter_is_woken() {
        // Hold long enough that the waiter exhausts its spin and parks;
        // the release must find the parked count and wake it.
        let lock = Arc::new(QueuedLock::new());
        lock.lock_exclusive(0);
        let l2 = Arc::clone(&lock);
        let t = thread::spawn(move || {
            l2.lock_exclusive(1);
            l2.unlock_exclusive();
        });
        while parked(lock.word.0.load(SeqCst)) == 0 {
            thread::yield_now();
        }
        assert!(lock.unlock_exclusive());
        t.join().unwrap();
        assert_eq!(parked(lock.word.0.load(SeqCst)), 0);
        assert_eq!(lock.waiters(), 0);
    }

    #[test]
    fn mutual_exclusion_under_stress() {
        let lock = Arc::new(QueuedLock::new());
        let counter = Arc::new(std::sync::Mutex::new(0u64));
        let mut handles = Vec::new();
        for id in 0..8 {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                for _ in 0..200 {
                    lock.lock_exclusive(id);
                    // Non-atomic read-modify-write protected by our lock.
                    let v = *counter.lock().unwrap();
                    *counter.lock().unwrap() = v + 1;
                    lock.unlock_exclusive();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock().unwrap(), 8 * 200);
    }

    /// The current `now_serving`. Inside an exclusive hold nothing else
    /// can be admitted, so the holder's own ticket is this minus one.
    fn held_ticket(lock: &QueuedLock) -> u64 {
        serving(lock.word.0.load(SeqCst)).wrapping_sub(1) & TICKET_MASK
    }

    #[test]
    fn mixed_operations_stress_keeps_rw_invariant_and_ticket_order() {
        // Six threads (more than the cores a CI box has, so holders get
        // descheduled and waiters park) mixing every entry point.
        const THREADS: u32 = 6;
        const OPS: u32 = 1500;
        let lock = Arc::new(QueuedLock::new());
        // Admissions so far, counted inside each hold: an exclusive
        // holder with ticket t must see exactly t earlier admissions.
        let admitted = Arc::new(AtomicU64::new(0));
        let readers_in = Arc::new(AtomicU64::new(0));
        let writer_in = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|id| {
                let (lock, admitted) = (Arc::clone(&lock), Arc::clone(&admitted));
                let (readers_in, writer_in) = (Arc::clone(&readers_in), Arc::clone(&writer_in));
                thread::spawn(move || {
                    let mut mine = [0u64; 4]; // shared, exclusive, trylock, revoked
                    let exclusive_hold = |lock: &QueuedLock| {
                        assert_eq!(writer_in.swap(1, SeqCst), 0, "two exclusive holders");
                        assert_eq!(readers_in.load(SeqCst), 0, "reader inside exclusive hold");
                        assert_eq!(lock.holder(), Some(id));
                        let t = held_ticket(lock);
                        assert_eq!(admitted.fetch_add(1, SeqCst) & TICKET_MASK, t, "FIFO");
                        writer_in.store(0, SeqCst);
                    };
                    for op in 0..OPS {
                        match (op + id) % 4 {
                            0 => {
                                let t = lock.draw();
                                lock.admit(t, Mode::Shared);
                                readers_in.fetch_add(1, SeqCst);
                                assert_eq!(writer_in.load(SeqCst), 0, "writer inside shared hold");
                                // Concurrent readers count their admissions
                                // in any order, but never more than the
                                // other threads' worth away from the ticket.
                                let before = admitted.fetch_add(1, SeqCst);
                                let gap = t.wrapping_sub(before) & TICKET_MASK;
                                let near = u64::from(THREADS);
                                assert!(gap < near || gap > TICKET_MASK - near, "FIFO");
                                readers_in.fetch_sub(1, SeqCst);
                                assert!(lock.unlock_shared());
                                mine[0] += 1;
                            }
                            1 => {
                                lock.lock_exclusive(id);
                                exclusive_hold(&lock);
                                assert!(lock.unlock_exclusive());
                                mine[1] += 1;
                            }
                            2 => {
                                if lock.try_lock_exclusive(id) {
                                    exclusive_hold(&lock);
                                    assert!(lock.unlock_exclusive());
                                    mine[2] += 1;
                                }
                            }
                            _ => {
                                // Die holding the lock; a peer's repair
                                // revokes it, and only for the real holder.
                                lock.lock_exclusive(id);
                                exclusive_hold(&lock);
                                assert!(!lock.revoke_exclusive(id + 1));
                                assert!(lock.revoke_exclusive(id));
                                mine[3] += 1;
                            }
                        }
                    }
                    mine
                })
            })
            .collect();
        let mut total = [0u64; 4];
        for h in handles {
            let mine = h.join().unwrap();
            for (t, m) in total.iter_mut().zip(mine) {
                *t += m;
            }
        }
        let acquired: u64 = total.iter().sum();
        assert_eq!(total[0] + total[1] + total[3], u64::from(THREADS * OPS) * 3 / 4);
        assert_eq!(lock.stats().acquisitions.load(SeqCst), acquired);
        assert_eq!(admitted.load(SeqCst), acquired);
        assert_eq!(lock.stats().revocations.load(SeqCst), total[3]);
        let w = lock.word.0.load(SeqCst);
        assert!(is_free(w) && parked(w) == 0 && lock.waiters() == 0, "lock left busy");
    }
}

// Interleaving models that drive the real lock through the conc-check
// explorer. Compiled only by the checking build:
// `RUSTFLAGS="--cfg conc_check" cargo test -p mpisim --features conc-check --lib conc_models`.
#[cfg(all(test, conc_check))]
mod conc_models {
    use super::*;
    use conc_check::{check, check_minimal, explore, replay, Config, Outcome, ViolationKind};
    use std::sync::atomic::Ordering::SeqCst;
    use std::sync::Arc;

    /// One model thread's use of the lock.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Read,
        Write,
        TryWrite,
    }

    /// Hold-side bookkeeping in plain std atomics: the model runs one
    /// thread at a time, so these never race, and the explorer sees only
    /// the lock's own operations.
    #[derive(Default)]
    struct Holds {
        admitted: AtomicU64,
        readers_in: AtomicU64,
        writer_in: AtomicU64,
    }

    impl Holds {
        fn shared(&self) {
            self.readers_in.fetch_add(1, SeqCst);
            assert_eq!(self.writer_in.load(SeqCst), 0, "reader admitted during an exclusive hold");
            self.admitted.fetch_add(1, SeqCst);
            self.readers_in.fetch_sub(1, SeqCst);
        }

        /// Inside an exclusive hold nothing else can be admitted, so the
        /// holder's ticket is `now_serving - 1`; FIFO admission means
        /// exactly that many tickets were admitted before it.
        fn exclusive(&self, lock: &QueuedLock) {
            assert_eq!(self.writer_in.swap(1, SeqCst), 0, "two exclusive holders");
            assert_eq!(self.readers_in.load(SeqCst), 0, "writer admitted during a shared hold");
            let ticket = serving(lock.word.0.load(Ordering::SeqCst)).wrapping_sub(1) & TICKET_MASK;
            assert_eq!(self.admitted.fetch_add(1, SeqCst), ticket, "admitted out of ticket order");
            self.writer_in.store(0, SeqCst);
        }
    }

    fn model(early_parked_read: bool, ops: &'static [Op]) -> impl Fn() + Send + Sync + 'static {
        move || {
            let lock = Arc::new(QueuedLock { early_parked_read, ..QueuedLock::default() });
            let holds = Arc::new(Holds::default());
            let threads: Vec<_> = ops
                .iter()
                .enumerate()
                .map(|(id, &op)| {
                    let (lock, holds) = (Arc::clone(&lock), Arc::clone(&holds));
                    conc_check::thread::spawn(move || match op {
                        Op::Read => {
                            lock.lock_shared();
                            holds.shared();
                            assert!(lock.unlock_shared());
                        }
                        Op::Write => {
                            lock.lock_exclusive(id as u32);
                            holds.exclusive(&lock);
                            assert!(lock.unlock_exclusive());
                        }
                        Op::TryWrite => {
                            if lock.try_lock_exclusive(id as u32) {
                                holds.exclusive(&lock);
                                assert!(lock.unlock_exclusive());
                            }
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().expect("lock user panicked");
            }
            let w = lock.word.0.load(Ordering::SeqCst);
            assert!(is_free(w) && parked(w) == 0, "lock left held or with parked waiters");
            assert_eq!(next_ticket(w), serving(w), "a ticket was never admitted");
        }
    }

    fn assert_pass(name: &str, outcome: &Outcome) {
        match outcome {
            Outcome::Pass(stats) => {
                assert!(stats.complete, "{name}: hit the schedule cap");
                // A facade silently resolved to std would give the
                // explorer no visible ops and a single schedule.
                assert!(stats.schedules > 1, "{name}: facade not engaged?");
            }
            Outcome::Fail(cx) => panic!("{name}: counterexample against the real lock:\n{cx}"),
        }
    }

    /// Schedules with at most two preemptions: the three-thread models
    /// run past the explorer's schedule cap unbounded. A lost wake-up
    /// needs one preemption (see the seeded bug below), so the bound
    /// still covers it.
    fn bounded() -> Config {
        Config { preemption_bound: Some(2), ..Config::default() }
    }

    /// A writer and a reader, every schedule: mutual exclusion, readers
    /// never overlapping a writer, admission in ticket order, and both
    /// admitted on every schedule — an all-blocked state (a lost
    /// wake-up included) is reported as a deadlock.
    #[test]
    fn writer_and_reader_exclude_and_admit_in_ticket_order() {
        assert_pass("writer + reader", &check(model(false, &[Op::Write, Op::Read])));
    }

    /// The same properties with two writers and a reader between them.
    #[test]
    fn two_writers_and_reader_exclude_and_admit_in_ticket_order() {
        let outcome = explore(&bounded(), model(false, &[Op::Write, Op::Read, Op::Write]));
        assert_pass("two writers + reader", &outcome);
    }

    /// Two readers queued behind a writer that must be inside together
    /// (each waits for the other while holding, as two ranks' shared
    /// epochs around a barrier do): the first reader's admission must
    /// wake the second if it parked, or both block for good.
    #[test]
    fn readers_queued_behind_a_writer_share_the_lock() {
        let outcome = explore(&bounded(), || {
            let lock = Arc::new(QueuedLock::default());
            let inside = Arc::new((conc_check::sync::Mutex::new(0u32), Condvar::new()));
            lock.lock_exclusive(0);
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let (lock, inside) = (Arc::clone(&lock), Arc::clone(&inside));
                    conc_check::thread::spawn(move || {
                        lock.lock_shared();
                        let (count, changed) = &*inside;
                        let mut n = count.lock().expect("model mutex");
                        *n += 1;
                        changed.notify_all();
                        while *n < 2 {
                            n = changed.wait(n).expect("model mutex");
                        }
                        drop(n);
                        assert!(lock.unlock_shared());
                    })
                })
                .collect();
            assert!(lock.unlock_exclusive());
            for r in readers {
                r.join().expect("reader panicked");
            }
        });
        assert_pass("two readers behind a writer", &outcome);
    }

    /// A trylock racing a queued writer (every schedule) and a writer
    /// plus a reader (bounded): it may succeed only with no ticket ahead
    /// of it, so every exclusive hold still sees exactly its ticket's
    /// worth of earlier admissions.
    #[test]
    fn trylock_never_barges_a_queued_ticket() {
        assert_pass("trylock vs writer", &check(model(false, &[Op::Write, Op::TryWrite])));
        let outcome = explore(&bounded(), model(false, &[Op::Write, Op::TryWrite, Op::Read]));
        assert_pass("trylock vs writer + reader", &outcome);
    }

    /// Seeded bug: a release that reads the parked count before
    /// publishing itself. A waiter that parks in between re-checks a
    /// still-held lock and sleeps; the release saw nobody parked and
    /// never wakes it.
    #[test]
    fn early_parked_read_loses_a_wakeup() {
        const OPS: &[Op] = &[Op::Write, Op::Write];
        let cfg = Config::default();
        let outcome = check_minimal(&cfg, model(true, OPS));
        let cx = outcome.expect_fail("release reading the parked count early");
        assert_eq!(cx.kind, ViolationKind::Deadlock, "expected a lost wake-up:\n{cx}");
        // One preemption suffices: the releaser is switched out between
        // its early parked-count read and its release, while the waiter
        // parks. No schedule without a preemption loses the wake-up.
        assert_eq!(cx.preemptions, 1, "counterexample is not preemption-minimal:\n{cx}");
        assert!(
            cx.trace.iter().any(|s| s.text.contains("wait")),
            "the counterexample must show the waiter parking:\n{cx}"
        );
        let (kind, _) = replay(&cfg, model(true, OPS), &cx.choices);
        assert_eq!(kind, Some(ViolationKind::Deadlock), "replay lost the deadlock");
    }
}
