//! Instrumented drop-in replacements for the `std::sync` subset the
//! `dls-service` core and `mpisim`'s window lock use.
//!
//! Inside a model run every operation is a visible op of the
//! deterministic scheduler ([`crate::sched`]): loads/stores/RMWs honour
//! their declared [`atomic::Ordering`] (a `Relaxed` load is a branch
//! point that may observe stale stores), `Mutex` acquisition blocks
//! virtually (the scheduler never runs a thread into a held lock), and
//! `Condvar` waits model timeouts and spurious wakeups as explorable
//! transitions.
//!
//! Outside a model run — e.g. `dls-service` compiled with `--cfg
//! conc_check` but executed as a normal server — every primitive
//! degrades to its plain `std::sync` equivalent, so the instrumented
//! build still works end to end.

use crate::sched::{with_ctx, Execution, Tid};
use std::sync::OnceLock;
use std::time::Duration;

pub use std::sync::Arc;

fn ctx() -> Option<(Arc<Execution>, Tid)> {
    with_ctx(|c| c.map(|(e, t)| (Arc::clone(e), *t)))
}

/// Result of a timed condvar wait (mirrors
/// `std::sync::WaitTimeoutResult`, which has no public constructor).
#[derive(Clone, Copy, Debug)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Whether the wait ended by timeout rather than notification.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

/// Instrumented atomics; re-exports [`std::sync::atomic::Ordering`].
pub mod atomic {
    use super::*;
    pub use std::sync::atomic::Ordering;

    /// Instrumented `AtomicU64`.
    #[derive(Debug, Default)]
    pub struct AtomicU64 {
        real: std::sync::atomic::AtomicU64,
        vid: OnceLock<usize>,
        name: OnceLock<String>,
    }

    impl AtomicU64 {
        /// New atomic with `init` as the initial store.
        pub fn new(init: u64) -> AtomicU64 {
            AtomicU64 {
                real: std::sync::atomic::AtomicU64::new(init),
                vid: OnceLock::new(),
                name: OnceLock::new(),
            }
        }

        /// Attach a display name used in counterexample traces.
        pub fn named(self, name: &str) -> AtomicU64 {
            let _ = self.name.set(name.to_string());
            self
        }

        fn vid(&self, exec: &Execution) -> usize {
            *self.vid.get_or_init(|| {
                let name = self.name.get().cloned().unwrap_or_default();
                exec.register_atomic(name, self.real.load(Ordering::Relaxed))
            })
        }

        /// Atomic load honouring `ord` (non-SeqCst loads may observe
        /// stale stores inside a model).
        pub fn load(&self, ord: Ordering) -> u64 {
            match ctx() {
                Some((exec, me)) => {
                    let id = self.vid(&exec);
                    exec.atomic_load(me, id, ord)
                }
                None => self.real.load(ord),
            }
        }

        /// Atomic store.
        pub fn store(&self, val: u64, ord: Ordering) {
            match ctx() {
                Some((exec, me)) => {
                    let id = self.vid(&exec);
                    exec.atomic_store(me, id, val, ord);
                }
                None => self.real.store(val, ord),
            }
        }

        fn rmw(
            &self,
            ord: Ordering,
            label: &'static str,
            f: impl FnOnce(u64) -> Option<u64>,
        ) -> (u64, bool) {
            let (exec, me) = ctx().expect("rmw fallback handled by callers");
            let id = self.vid(&exec);
            exec.atomic_rmw(me, id, ord, label, f)
        }

        /// Atomic add; returns the previous value.
        pub fn fetch_add(&self, v: u64, ord: Ordering) -> u64 {
            match ctx() {
                Some(_) => self.rmw(ord, "fetch_add", |old| Some(old.wrapping_add(v))).0,
                None => self.real.fetch_add(v, ord),
            }
        }

        /// Atomic subtract; returns the previous value.
        pub fn fetch_sub(&self, v: u64, ord: Ordering) -> u64 {
            match ctx() {
                Some(_) => self.rmw(ord, "fetch_sub", |old| Some(old.wrapping_sub(v))).0,
                None => self.real.fetch_sub(v, ord),
            }
        }

        /// Atomic max; returns the previous value.
        pub fn fetch_max(&self, v: u64, ord: Ordering) -> u64 {
            match ctx() {
                Some(_) => self.rmw(ord, "fetch_max", |old| Some(old.max(v))).0,
                None => self.real.fetch_max(v, ord),
            }
        }

        /// CAS loop with a pure update function; `Ok(prev)` when `f`
        /// returned `Some` and the write was applied.
        pub fn fetch_update(
            &self,
            set_order: Ordering,
            fetch_order: Ordering,
            mut f: impl FnMut(u64) -> Option<u64>,
        ) -> Result<u64, u64> {
            match ctx() {
                // Under the scheduler an RMW is one visible op reading
                // the newest store, so a single application of `f`
                // decides success or failure.
                Some(_) => {
                    let (old, wrote) = self.rmw(set_order, "fetch_update", &mut f);
                    if wrote {
                        Ok(old)
                    } else {
                        Err(old)
                    }
                }
                None => self.real.fetch_update(set_order, fetch_order, f),
            }
        }

        /// Compare-and-exchange; `Ok(prev)` on success.
        pub fn compare_exchange(
            &self,
            expect: u64,
            new: u64,
            success: Ordering,
            failure: Ordering,
        ) -> Result<u64, u64> {
            match ctx() {
                Some(_) => {
                    let (old, wrote) =
                        self.rmw(success, "compare_exchange", |o| (o == expect).then_some(new));
                    if wrote {
                        Ok(old)
                    } else {
                        Err(old)
                    }
                }
                None => self.real.compare_exchange(expect, new, success, failure),
            }
        }
    }

    /// Instrumented `AtomicBool` (modelled as a 0/1 `AtomicU64`).
    #[derive(Debug, Default)]
    pub struct AtomicBool {
        inner: AtomicU64,
    }

    impl AtomicBool {
        /// New atomic flag.
        pub fn new(init: bool) -> AtomicBool {
            AtomicBool { inner: AtomicU64::new(u64::from(init)) }
        }

        /// Attach a display name used in counterexample traces.
        pub fn named(self, name: &str) -> AtomicBool {
            AtomicBool { inner: self.inner.named(name) }
        }

        /// Atomic load honouring `ord`.
        pub fn load(&self, ord: Ordering) -> bool {
            self.inner.load(ord) != 0
        }

        /// Atomic store.
        pub fn store(&self, val: bool, ord: Ordering) {
            self.inner.store(u64::from(val), ord)
        }

        /// Atomic swap; returns the previous value.
        pub fn swap(&self, val: bool, ord: Ordering) -> bool {
            match ctx() {
                Some(_) => self.inner.rmw(ord, "swap", |_| Some(u64::from(val))).0 != 0,
                None => self.inner.real.swap(u64::from(val), ord) != 0,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// Instrumented mutex. Inside a model, acquisition is a scheduling
/// decision and can never deadlock silently (an all-blocked state is
/// reported with a trace); data is still carried by an inner
/// `std::sync::Mutex`, which the virtual protocol keeps uncontended.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
    vid: OnceLock<usize>,
    name: OnceLock<String>,
}

/// RAII guard for [`Mutex`]; releases the virtual lock on drop.
pub struct MutexGuard<'a, T> {
    // `Option` so drop order can be controlled: the inner std guard is
    // released *before* the virtual unlock yields to the scheduler.
    inner: Option<std::sync::MutexGuard<'a, T>>,
    mutex: &'a Mutex<T>,
    model: Option<(Arc<Execution>, Tid, usize)>,
}

impl<T> Mutex<T> {
    /// New mutex owning `value`.
    pub fn new(value: T) -> Mutex<T> {
        Mutex { inner: std::sync::Mutex::new(value), vid: OnceLock::new(), name: OnceLock::new() }
    }

    /// Attach a display name used in counterexample traces.
    pub fn named(self, name: &str) -> Mutex<T> {
        let _ = self.name.set(name.to_string());
        self
    }

    fn vid(&self, exec: &Execution) -> usize {
        *self.vid.get_or_init(|| {
            let name = self.name.get().cloned().unwrap_or_default();
            exec.register_lock(name)
        })
    }

    fn std_lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Acquire the lock (a blocking visible op inside a model). Never
    /// actually poisons; the `LockResult` shape matches `std`.
    #[allow(clippy::type_complexity)]
    pub fn lock(&self) -> Result<MutexGuard<'_, T>, std::sync::PoisonError<MutexGuard<'_, T>>> {
        match ctx() {
            Some((exec, me)) => {
                let id = self.vid(&exec);
                exec.lock_acquire(me, id);
                Ok(MutexGuard {
                    inner: Some(self.std_lock()),
                    mutex: self,
                    model: Some((exec, me, id)),
                })
            }
            None => Ok(MutexGuard { inner: Some(self.std_lock()), mutex: self, model: None }),
        }
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard already released")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard already released")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock first: the virtual unlock passes the
        // baton, and the next holder re-locks the inner mutex
        // immediately.
        drop(self.inner.take());
        if let Some((exec, me, id)) = self.model.take() {
            exec.lock_release(me, id);
        }
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// Instrumented condition variable. Timed waits model the timeout (and
/// spurious wakeups) as an always-enabled transition, so properties
/// must hold whether or not the notification ever arrives — exactly the
/// contract of `Condvar::wait_timeout_while`.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
    vid: OnceLock<usize>,
    name: OnceLock<String>,
}

impl Condvar {
    /// New condvar.
    pub fn new() -> Condvar {
        Condvar { inner: std::sync::Condvar::new(), vid: OnceLock::new(), name: OnceLock::new() }
    }

    /// Attach a display name used in counterexample traces.
    pub fn named(self, name: &str) -> Condvar {
        let _ = self.name.set(name.to_string());
        self
    }

    fn vid(&self, exec: &Execution) -> usize {
        *self.vid.get_or_init(|| {
            let name = self.name.get().cloned().unwrap_or_default();
            exec.register_cv(name)
        })
    }

    /// Wait until `condition` returns false or the timeout fires.
    #[allow(clippy::type_complexity)]
    pub fn wait_timeout_while<'a, T, F>(
        &self,
        mut guard: MutexGuard<'a, T>,
        dur: Duration,
        mut condition: F,
    ) -> Result<
        (MutexGuard<'a, T>, WaitTimeoutResult),
        std::sync::PoisonError<(MutexGuard<'a, T>, WaitTimeoutResult)>,
    >
    where
        F: FnMut(&mut T) -> bool,
    {
        match guard.model.clone() {
            Some((exec, me, lock_vid)) => {
                let cv = self.vid(&exec);
                loop {
                    if !condition(&mut guard) {
                        return Ok((guard, WaitTimeoutResult { timed_out: false }));
                    }
                    // Drop the real guard, park virtually (release +
                    // wait + virtual reacquire), then re-take the real
                    // lock the protocol has just granted us.
                    drop(guard.inner.take());
                    let notified = exec.cv_wait(me, cv, lock_vid, true);
                    guard.inner = Some(guard.mutex.std_lock());
                    if !notified {
                        let timed_out = condition(&mut guard);
                        return Ok((guard, WaitTimeoutResult { timed_out }));
                    }
                }
            }
            None => {
                let inner = guard.inner.take().expect("guard already released");
                let (g, r) = match self.inner.wait_timeout_while(inner, dur, |t| condition(t)) {
                    Ok((g, r)) => (g, r),
                    Err(p) => p.into_inner(),
                };
                guard.inner = Some(g);
                Ok((guard, WaitTimeoutResult { timed_out: r.timed_out() }))
            }
        }
    }

    /// Block until notified (mirrors `std::sync::Condvar::wait`). Inside
    /// a model the wait has no timeout transition, so a notification
    /// that never comes leaves the waiter blocked and the explorer
    /// reports a deadlock — how a lost wake-up shows. Spurious wake-ups
    /// are not modelled: callers re-check their condition in a loop, and
    /// an extra re-check only adds schedules a notification already
    /// covers.
    #[allow(clippy::type_complexity)]
    pub fn wait<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
    ) -> Result<MutexGuard<'a, T>, std::sync::PoisonError<MutexGuard<'a, T>>> {
        match guard.model.clone() {
            Some((exec, me, lock_vid)) => {
                let cv = self.vid(&exec);
                drop(guard.inner.take());
                exec.cv_wait(me, cv, lock_vid, false);
                guard.inner = Some(guard.mutex.std_lock());
                Ok(guard)
            }
            None => {
                let inner = guard.inner.take().expect("guard already released");
                let g = self.inner.wait(inner).unwrap_or_else(std::sync::PoisonError::into_inner);
                guard.inner = Some(g);
                Ok(guard)
            }
        }
    }

    /// Wake every waiter (a visible op inside a model).
    pub fn notify_all(&self) {
        if let Some((exec, me)) = ctx() {
            let cv = self.vid(&exec);
            exec.cv_notify_all(me, cv);
        }
        self.inner.notify_all();
    }

    /// Wake one waiter. Modelled conservatively as `notify_all` (the
    /// waiters racing for the lock afterwards is already explored).
    pub fn notify_one(&self) {
        self.notify_all()
    }
}
