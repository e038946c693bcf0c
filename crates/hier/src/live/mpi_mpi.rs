//! Real-thread MPI+MPI executor: the paper's proposed approach on the
//! `mpisim` runtime.
//!
//! * The **global work queue** is an RMA window exposed by world rank 0
//!   holding `[step, scheduled]`, updated under `MPI_Win_lock(EXCLUSIVE)`
//!   — the distributed chunk-calculation state.
//! * Each node's **local work queue** is an `MPI_Win_allocate_shared`
//!   window on the node communicator holding
//!   `[refilling, global_done, lo, hi, step, taken]`, updated under
//!   `MPI_Win_lock(EXCLUSIVE)` + `MPI_Win_sync`.
//! * A worker that drains the local queue and sees no refill in flight
//!   sets the `refilling` flag and fetches the next chunk itself — the
//!   fastest worker takes the responsibility; nobody blocks.

use super::{LiveConfig, LiveResult};
use crate::queue::SubChunk;
use crate::stats::RunStats;
use cluster_sim::trace::{SegmentKind, Trace};
use mpisim::{LockKind, RankWinStats, RmaLog, RmaRecord, Topology, Universe, Window};
use std::time::Instant;
use workloads::Workload;

// Local window slot indices.
const REFILLING: usize = 0;
const GLOBAL_DONE: usize = 1;
const LO: usize = 2;
const HI: usize = 3;
const STEP: usize = 4;
const TAKEN: usize = 5;
/// Start of the AWF measurement history: per local rank, two slots —
/// cumulative iterations and cumulative time in ns.
const HIST_BASE: usize = 6;

/// Start of the lease area: per local rank, four slots —
/// `[lo, hi, epoch, heartbeat]`. An odd epoch means the range
/// `[lo, hi)` is granted but not completed; the owner bumps it even on
/// completion (settled at its next queue poll), a reclaimer bumps it
/// even when re-depositing a dead owner's range. The heartbeat ticks on
/// every queue poll — piggybacked liveness, no extra messages.
fn lease_base(wpn: u32) -> usize {
    HIST_BASE + 2 * wpn as usize
}

const LEASE_LO: usize = 0;
const LEASE_HI: usize = 1;
const LEASE_EPOCH: usize = 2;
const HEARTBEAT: usize = 3;

fn lease_slot(wpn: u32, local: u32, field: usize) -> usize {
    lease_base(wpn) + 4 * local as usize + field
}

/// Which local rank currently holds the refill role (valid while
/// `REFILLING == 1`); lets survivors detect a refiller that died
/// between claiming the role and depositing.
fn refiller_slot(wpn: u32) -> usize {
    lease_base(wpn) + 4 * wpn as usize
}

fn local_slots(wpn: u32) -> usize {
    refiller_slot(wpn) + 1
}

// Global window slot indices (on world rank 0).
const GSTEP: usize = 0;
const GSCHED: usize = 1;

pub(super) struct RankOutcome {
    pub(super) worker: u32,
    pub(super) node: u32,
    pub(super) iterations: u64,
    pub(super) sub_chunks: u64,
    pub(super) global_fetches: u64,
    pub(super) deposits: u64,
    pub(super) checksum: u64,
    pub(super) executed: Vec<(u32, SubChunk)>,
    /// `(acquisitions, contended, polls)` of the node lock, reported by
    /// local rank 0 only (None elsewhere) to avoid double counting.
    pub(super) lock_stats: Option<(u64, u64, u64)>,
    pub(super) global_accesses: u64,
    /// This rank's window counters, local + global window summed.
    pub(super) win_stats: RankWinStats,
    /// Wall-clock timeline of this rank (empty unless tracing).
    pub(super) trace: Trace,
    /// When this rank left the main loop, in ns since the run epoch
    /// (0 unless tracing: only the timeline's idle tail uses it).
    pub(super) finish_ns: u64,
    /// Recovery actions this rank performed (lease reclaims + lock
    /// repairs).
    pub(super) reclaims: u64,
    /// Crash / detection / repair events this rank observed.
    pub(super) recovery: Vec<resilience::RecoveryEvent>,
}

/// Acquire the node-window lock. Fault-free runs use the blocking FIFO
/// path untouched; under an active fault plan the acquisition is a
/// bounded-poll loop so a lock abandoned by a dead holder is detected
/// (after `detect_polls` failed attempts) and revoked via
/// [`Window::repair_lock`]. Returns the dead holder's local rank when
/// *this* call performed a repair.
fn lock_queue(
    win: &Window,
    node_comm: &mpisim::Comm,
    plan_active: bool,
    detect_polls: u32,
) -> mpisim::Result<Option<u32>> {
    if !plan_active {
        win.lock(LockKind::Exclusive, 0)?;
        return Ok(None);
    }
    let mut repaired = None;
    let mut polls = 0u32;
    loop {
        if win.try_lock_exclusive(0)? {
            return Ok(repaired);
        }
        polls += 1;
        if polls >= detect_polls {
            polls = 0;
            if let Some(h) = win.exclusive_holder(0)? {
                if node_comm.is_failed(h) && win.repair_lock(0)? {
                    repaired = Some(h);
                }
            }
            std::thread::yield_now();
        }
        std::hint::spin_loop();
    }
}

/// Run the MPI+MPI approach with real threads.
///
/// Allocation or RMA failures from any rank surface as `Err`.
pub fn run_live_mpi_mpi(
    cfg: &LiveConfig,
    workload: &(dyn Workload + Sync),
) -> mpisim::Result<LiveResult> {
    let topology = Topology::new(cfg.nodes, cfg.workers_per_node);
    let n = workload.n_iters();
    assert!(n <= i64::MAX as u64, "loop too large for i64 window slots");
    let inter_spec = dls::LoopSpec::new(n, cfg.nodes);
    let wpn = cfg.workers_per_node;
    let spec = cfg.spec;
    let awf = cfg.awf;
    let weights = cfg.weights.clone();
    let global_mode = cfg.global_mode;
    let do_trace = cfg.trace;
    let rma_log = cfg.record_rma.then(RmaLog::new);
    let log_for_ranks = rma_log.clone();
    let faults = cfg.faults.clone();
    let epoch = Instant::now();

    let outcomes = Universe::run(topology, move |p| -> mpisim::Result<RankOutcome> {
        let now = || epoch.elapsed().as_nanos() as u64;
        // Timeline stamps: an untraced run never reads the clock for
        // them (`Trace::record` drops the empty segment).
        let stamp = || if do_trace { now() } else { 0 };
        let world = p.world();
        let me = world.rank();
        let mut global_win = Window::allocate(world, if me == 0 { 2 } else { 0 })?;
        let node_comm = world.split_shared()?;
        let mut local_win = Window::allocate_shared(
            &node_comm,
            if node_comm.rank() == 0 { local_slots(wpn) } else { 0 },
        )?;
        if let Some(log) = &log_for_ranks {
            global_win.record_to(log);
            local_win.record_to(log);
        }
        world.barrier();
        global_win.note_barrier();
        local_win.note_barrier();
        if global_mode == crate::config::GlobalQueueMode::SingleAtomic {
            // The distributed chunk calculation runs on bare
            // fetch_and_op, so the whole run is one passive-target
            // access epoch on the global window (the MPI-3 idiom for
            // lock-free shared counters).
            global_win.lock_all();
        }

        let mut out = RankOutcome {
            worker: me,
            node: p.node_id(),
            iterations: 0,
            sub_chunks: 0,
            global_fetches: 0,
            deposits: 0,
            checksum: 0,
            executed: Vec::new(),
            lock_stats: None,
            global_accesses: 0,
            win_stats: RankWinStats::default(),
            trace: if do_trace { Trace::recording() } else { Trace::disabled() },
            finish_ns: 0,
            reclaims: 0,
            recovery: Vec::new(),
        };

        let plan_active = faults.is_active();
        let detect_polls = faults.recovery.detect_polls;
        let my_local = node_comm.rank();
        let my_node = p.node_id();
        let world_of = |local: u32| my_node * wpn + local;
        let straggle = faults.straggle_factor(me, u64::MAX);
        // Only a straggler's stretch and AWF's rate history time the
        // kernel itself.
        let time_kernel = straggle > 1.0 || awf.is_some();
        // Mirror of my own LEASE_EPOCH slot — single-writer while alive.
        let mut my_epoch: i64 = 0;
        let mut fetches_done: u32 = 0;

        loop {
            // ---- probe the local queue under the window lock ----
            let probe_start = stamp();
            if let Some(h) = lock_queue(&local_win, &node_comm, plan_active, detect_polls)? {
                out.reclaims += 1;
                out.recovery.push(resilience::RecoveryEvent::LockRepair {
                    node: my_node,
                    dead_holder: world_of(h),
                    by: me,
                    at_ns: now(),
                });
            }
            local_win.sync();
            if plan_active {
                // Settle my previous grant (the sub-chunk it covered is
                // done — this poll is the completion acknowledgement)
                // and tick the piggybacked heartbeat.
                if my_epoch % 2 == 1 {
                    my_epoch += 1;
                    local_win.put(0, lease_slot(wpn, my_local, LEASE_EPOCH), my_epoch)?;
                }
                let hb_slot = lease_slot(wpn, my_local, HEARTBEAT);
                let hb = local_win.get(0, hb_slot)?;
                local_win.put(0, hb_slot, hb + 1)?;
                if faults
                    .crash_holding_lock_after(me)
                    .is_some_and(|k| out.sub_chunks >= u64::from(k))
                {
                    // Die inside the critical section: mark the failure
                    // and leave without unlocking — survivors must
                    // detect the abandoned grant and repair the lock.
                    node_comm.mark_failed();
                    local_win.sync();
                    out.recovery.push(resilience::RecoveryEvent::Crash {
                        rank: me,
                        at_ns: now(),
                        holding_lock: true,
                    });
                    break;
                }
            }
            let lo = local_win.get(0, LO)? as u64;
            let hi = local_win.get(0, HI)? as u64;
            let step = local_win.get(0, STEP)? as u64;
            let taken = local_win.get(0, TAKEN)? as u64;
            let len = hi - lo;

            if taken < len {
                let local = node_comm.rank();
                // Weight: learned from the shared history under AWF,
                // configured statically otherwise. AWF replaces the
                // intra technique with WF over the learned weights.
                let (technique, weight) = if awf.is_some() {
                    let mut hist: Vec<(u64, u64)> = Vec::with_capacity(wpn as usize);
                    for r in 0..wpn as usize {
                        let iters = local_win.get(0, HIST_BASE + 2 * r)? as u64;
                        let time = local_win.get(0, HIST_BASE + 2 * r + 1)? as u64;
                        hist.push((iters, time));
                    }
                    let w = crate::adaptive::weights_from_hist(&hist)[local as usize];
                    (dls::Technique::wf(), w)
                } else {
                    (spec.intra, weights.get(me as usize).copied().unwrap_or(1.0))
                };
                let ctx = dls::technique::WorkerCtx { worker: local, weight };
                let size = crate::queue::sub_chunk_size_for(&technique, len, wpn, step, taken, ctx);
                local_win.put(0, STEP, (step + 1) as i64)?;
                local_win.put(0, TAKEN, (taken + size) as i64)?;
                let sub = SubChunk { start: lo + taken, end: lo + taken + size };
                if plan_active {
                    // Record the grant as a lease *in the same critical
                    // section as the take*: if this rank dies before the
                    // next poll settles it, the odd epoch plus the dead
                    // flag tell survivors exactly which range was lost.
                    local_win.put(0, lease_slot(wpn, my_local, LEASE_LO), sub.start as i64)?;
                    local_win.put(0, lease_slot(wpn, my_local, LEASE_HI), sub.end as i64)?;
                    my_epoch += 1; // odd: active
                    local_win.put(0, lease_slot(wpn, my_local, LEASE_EPOCH), my_epoch)?;
                    if faults
                        .crash_after_sub_chunks(me)
                        .is_some_and(|k| out.sub_chunks + 1 >= u64::from(k))
                    {
                        // Die after taking, before executing: the queue
                        // counters already account the range to this
                        // rank, so only the lease can get it back.
                        node_comm.mark_failed();
                        local_win.sync();
                        local_win.unlock(LockKind::Exclusive, 0)?;
                        out.recovery.push(resilience::RecoveryEvent::Crash {
                            rank: me,
                            at_ns: now(),
                            holding_lock: false,
                        });
                        break;
                    }
                }
                local_win.sync();
                local_win.unlock(LockKind::Exclusive, 0)?;
                out.trace.record(me, probe_start, stamp(), SegmentKind::Sched);
                let started = time_kernel.then(Instant::now);
                let compute_start = stamp();
                execute(workload, &sub, &mut out);
                if let Some(started) = started.filter(|_| straggle > 1.0) {
                    // Injected straggler: stretch the kernel time to
                    // `straggle`× by busy-waiting out the difference.
                    let target = started.elapsed().mul_f64(straggle);
                    while started.elapsed() < target {
                        std::hint::spin_loop();
                    }
                }
                out.trace.record(me, compute_start, stamp(), SegmentKind::Compute);
                if let Some(started) = started.filter(|_| awf.is_some()) {
                    // Charge the measured kernel time to the shared
                    // history (AWF-C style: per chunk completion).
                    let elapsed = started.elapsed().as_nanos().min(i64::MAX as u128) as i64;
                    let hist_start = stamp();
                    lock_queue(&local_win, &node_comm, plan_active, detect_polls)?;
                    // Unified-model visibility: sync before reading
                    // counters peers put under their own epochs (the
                    // rma-check MissingSync rule flags the read-modify-
                    // write below as stale without it).
                    local_win.sync();
                    let i_slot = HIST_BASE + 2 * local as usize;
                    let it = local_win.get(0, i_slot)?;
                    let tm = local_win.get(0, i_slot + 1)?;
                    local_win.put(0, i_slot, it + sub.len() as i64)?;
                    // Ensure a nonzero time so rates stay finite.
                    local_win.put(0, i_slot + 1, tm + elapsed.max(1))?;
                    local_win.sync();
                    local_win.unlock(LockKind::Exclusive, 0)?;
                    out.trace.record(me, hist_start, stamp(), SegmentKind::Sched);
                }
                continue;
            }

            let global_done = local_win.get(0, GLOBAL_DONE)? != 0;
            let refilling = local_win.get(0, REFILLING)? != 0;
            if plan_active {
                // Queue drained: scan peer leases for a range stranded
                // by a dead owner before exiting, backing off, or
                // refilling. The queue holds one range, so reclaim one
                // lease per poll; the next poll picks up any others.
                let mut reclaimed = false;
                for r in (0..wpn).filter(|&r| r != my_local && node_comm.is_failed(r)) {
                    let e = local_win.get(0, lease_slot(wpn, r, LEASE_EPOCH))?;
                    if e % 2 == 1 {
                        let rlo = local_win.get(0, lease_slot(wpn, r, LEASE_LO))?;
                        let rhi = local_win.get(0, lease_slot(wpn, r, LEASE_HI))?;
                        local_win.put(0, LO, rlo)?;
                        local_win.put(0, HI, rhi)?;
                        local_win.put(0, STEP, 0)?;
                        local_win.put(0, TAKEN, 0)?;
                        local_win.put(0, lease_slot(wpn, r, LEASE_EPOCH), e + 1)?;
                        local_win.note_reclaim();
                        out.reclaims += 1;
                        out.deposits += 1;
                        let at = now();
                        out.recovery.push(resilience::RecoveryEvent::LeaseExpired {
                            owner: world_of(r),
                            lo: rlo as u64,
                            hi: rhi as u64,
                            at_ns: at,
                        });
                        out.recovery.push(resilience::RecoveryEvent::Reclaim {
                            by: me,
                            owner: world_of(r),
                            lo: rlo as u64,
                            hi: rhi as u64,
                            at_ns: at,
                        });
                        reclaimed = true;
                        break;
                    }
                }
                if reclaimed {
                    local_win.sync();
                    local_win.unlock(LockKind::Exclusive, 0)?;
                    out.trace.record(me, probe_start, stamp(), SegmentKind::Sched);
                    continue;
                }
                if refilling {
                    // Refill in flight: if the rank that claimed the
                    // role died before depositing, fail the role over
                    // (its fetched chunk, if any, sits in its lease and
                    // was reclaimed by the scan above).
                    let rr = local_win.get(0, refiller_slot(wpn))? as u32;
                    if node_comm.is_failed(rr) {
                        local_win.put(0, REFILLING, 0)?;
                        local_win.sync();
                        local_win.unlock(LockKind::Exclusive, 0)?;
                        out.recovery.push(resilience::RecoveryEvent::RefillFailover {
                            node: my_node,
                            from: world_of(rr),
                            at_ns: now(),
                        });
                        out.trace.record(me, probe_start, stamp(), SegmentKind::Sched);
                        continue;
                    }
                }
            }
            if global_done {
                local_win.unlock(LockKind::Exclusive, 0)?;
                out.trace.record(me, probe_start, stamp(), SegmentKind::Sched);
                break;
            }
            if refilling {
                // A peer is refilling: back off briefly and re-probe.
                local_win.unlock(LockKind::Exclusive, 0)?;
                std::thread::yield_now();
                // A queue-empty observation while a peer refills is peer
                // waiting, not scheduling work of our own.
                out.trace.record(me, probe_start, stamp(), SegmentKind::Sync);
                continue;
            }
            // This worker becomes the refiller.
            local_win.put(0, REFILLING, 1)?;
            if plan_active {
                local_win.put(0, refiller_slot(wpn), i64::from(my_local))?;
            }
            local_win.sync();
            local_win.unlock(LockKind::Exclusive, 0)?;

            // ---- fetch a chunk from the global queue ----
            out.global_accesses += 1;
            let fetched = match global_mode {
                crate::config::GlobalQueueMode::SingleAtomic => {
                    // The PDP'19 distributed chunk calculation: one
                    // fetch-and-increment of the step counter, then the
                    // chunk bounds are a pure local function of it. The
                    // run-long lock_all epoch covers it; the flush
                    // completes the operation at the target before the
                    // local deposit proceeds.
                    let my_step = global_win.fetch_and_op(0, GSTEP, 1, mpisim::RmaOp::Sum)? as u64;
                    global_win.flush(0)?;
                    dls::single_counter::assignment(&spec.inter, &inter_spec, my_step)
                        .map(|(start, len)| (start, start + len))
                }
                crate::config::GlobalQueueMode::LockedCounters => {
                    global_win.lock(LockKind::Exclusive, 0)?;
                    let gstep = global_win.get(0, GSTEP)? as u64;
                    let gsched = global_win.get(0, GSCHED)? as u64;
                    let fetched = if gsched < n {
                        let state = dls::SchedState { step: gstep, scheduled: gsched };
                        let size = dls::ChunkCalculator::chunk_size(
                            &spec.inter,
                            &inter_spec,
                            state,
                            dls::technique::WorkerCtx::default(),
                        )
                        .clamp(1, n - gsched);
                        global_win.put(0, GSTEP, (gstep + 1) as i64)?;
                        global_win.put(0, GSCHED, (gsched + size) as i64)?;
                        Some((gsched, gsched + size))
                    } else {
                        None
                    };
                    global_win.unlock(LockKind::Exclusive, 0)?;
                    fetched
                }
            };

            if plan_active && fetched.is_some() {
                fetches_done += 1;
                if faults.crash_as_refiller_after(me).is_some_and(|g| fetches_done >= g) {
                    // Die as the refiller: the global step is already
                    // consumed, so the fetched chunk exists only in this
                    // rank's lease. Publish it and stop — REFILLING
                    // stays set until a survivor fails the role over.
                    let (clo, chi) = fetched.unwrap_or((0, 0));
                    lock_queue(&local_win, &node_comm, plan_active, detect_polls)?;
                    local_win.put(0, lease_slot(wpn, my_local, LEASE_LO), clo as i64)?;
                    local_win.put(0, lease_slot(wpn, my_local, LEASE_HI), chi as i64)?;
                    my_epoch += 1; // odd: active
                    local_win.put(0, lease_slot(wpn, my_local, LEASE_EPOCH), my_epoch)?;
                    node_comm.mark_failed();
                    local_win.sync();
                    local_win.unlock(LockKind::Exclusive, 0)?;
                    out.recovery.push(resilience::RecoveryEvent::Crash {
                        rank: me,
                        at_ns: now(),
                        holding_lock: false,
                    });
                    break;
                }
            }

            // ---- deposit (or mark the node done) ----
            if let Some(h) = lock_queue(&local_win, &node_comm, plan_active, detect_polls)? {
                out.reclaims += 1;
                out.recovery.push(resilience::RecoveryEvent::LockRepair {
                    node: my_node,
                    dead_holder: world_of(h),
                    by: me,
                    at_ns: now(),
                });
            }
            match fetched {
                Some((clo, chi)) => {
                    out.global_fetches += 1;
                    out.deposits += 1;
                    local_win.put(0, LO, clo as i64)?;
                    local_win.put(0, HI, chi as i64)?;
                    local_win.put(0, STEP, 0)?;
                    local_win.put(0, TAKEN, 0)?;
                }
                None => {
                    local_win.put(0, GLOBAL_DONE, 1)?;
                }
            }
            local_win.put(0, REFILLING, 0)?;
            local_win.sync();
            local_win.unlock(LockKind::Exclusive, 0)?;
            // The whole refill transaction (global fetch + deposit) is
            // scheduling overhead.
            out.trace.record(me, probe_start, stamp(), SegmentKind::Sched);
        }

        if global_mode == crate::config::GlobalQueueMode::SingleAtomic {
            global_win.unlock_all()?;
        }
        out.finish_ns = stamp();
        world.barrier();
        global_win.note_barrier();
        local_win.note_barrier();
        if node_comm.rank() == 0 {
            out.lock_stats = Some(local_win.lock_stats(0)?);
        }
        let lw = local_win.rank_stats();
        let gw = global_win.rank_stats();
        // Under SingleAtomic the global window's only epoch is the
        // run-long lock_all around bare fetch-and-adds: it excludes no
        // one and spans the whole loop on every region, so it is not
        // lock time. Count the real epochs only.
        let (g_wait_ns, g_held_ns) = match global_mode {
            crate::config::GlobalQueueMode::SingleAtomic => (0, 0),
            crate::config::GlobalQueueMode::LockedCounters => (gw.lock_wait_ns, gw.lock_held_ns),
        };
        out.win_stats = RankWinStats {
            lock_acquisitions: lw.lock_acquisitions + gw.lock_acquisitions,
            failed_polls: lw.failed_polls + gw.failed_polls,
            lock_wait_ns: lw.lock_wait_ns + g_wait_ns,
            lock_held_ns: lw.lock_held_ns + g_held_ns,
            rma_atomic_ops: lw.rma_atomic_ops + gw.rma_atomic_ops,
            puts: lw.puts + gw.puts,
            gets: lw.gets + gw.gets,
            reclaims: lw.reclaims + gw.reclaims,
        };
        Ok(out)
    });

    let outcomes = outcomes.into_iter().collect::<mpisim::Result<Vec<_>>>()?;
    let rma = rma_log.map(|l| l.records()).unwrap_or_default();
    Ok(aggregate(cfg, outcomes, rma))
}

pub(super) fn execute(workload: &dyn Workload, sub: &SubChunk, out: &mut RankOutcome) {
    for i in sub.start..sub.end {
        out.checksum = out.checksum.wrapping_add(workload.execute(i));
    }
    out.iterations += sub.len();
    out.sub_chunks += 1;
    out.executed.push((out.worker, *sub));
}

pub(super) fn aggregate(
    cfg: &LiveConfig,
    outcomes: Vec<RankOutcome>,
    rma: Vec<RmaRecord>,
) -> LiveResult {
    let total_workers = (cfg.nodes * cfg.workers_per_node) as usize;
    let mut stats = RunStats::new(total_workers, cfg.nodes as usize);
    let mut checksum = 0u64;
    let mut executed = Vec::new();
    let mut trace = if cfg.trace { Trace::recording() } else { Trace::disabled() };
    let mut recovery = Vec::new();
    let makespan_ns = outcomes.iter().map(|o| o.finish_ns).max().unwrap_or(0);
    for o in outcomes {
        let w = o.worker as usize;
        stats.workers[w].iterations = o.iterations;
        stats.workers[w].sub_chunks = o.sub_chunks;
        stats.workers[w].global_fetches = o.global_fetches;
        stats.workers[w].lock_polls = o.win_stats.failed_polls;
        stats.workers[w].lock_time_ns = o.win_stats.lock_wait_ns + o.win_stats.lock_held_ns;
        stats.workers[w].rma_ops = o.win_stats.rma_atomic_ops;
        stats.workers[w].reclaims = o.reclaims;
        recovery.extend(o.recovery.iter().copied());
        let node = &mut stats.nodes[o.node as usize];
        node.deposits += o.deposits;
        node.sub_chunks += o.sub_chunks;
        if let Some((acq, contended, polls)) = o.lock_stats {
            node.lock_acquisitions = acq;
            node.lock_contended = contended;
            node.lock_polls = polls;
        }
        stats.global_accesses += o.global_accesses;
        stats.total_iterations += o.iterations;
        checksum = checksum.wrapping_add(o.checksum);
        executed.extend(o.executed);
        for s in o.trace.segments() {
            trace.record(s.worker, s.start, s.end, s.kind);
        }
        // Pad the tail so every worker's timeline spans the makespan.
        trace.record(o.worker, o.finish_ns, makespan_ns, SegmentKind::Idle);
    }
    recovery.sort_by_key(resilience::RecoveryEvent::at_ns);
    LiveResult { stats, checksum, executed, trace, rma, recovery }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Approach, HierSpec};
    use crate::live::serial_checksum;
    use dls::verify::check_exactly_once;
    use dls::Kind;
    use workloads::synthetic::Synthetic;

    fn run(spec: HierSpec, nodes: u32, wpn: u32, n: u64) -> (LiveResult, u64) {
        let w = Synthetic::uniform(n, 1, 100, 3);
        let cfg = LiveConfig::new(nodes, wpn, spec, Approach::MpiMpi);
        let serial = serial_checksum(&w);
        (run_live_mpi_mpi(&cfg, &w).expect("live run"), serial)
    }

    fn assert_exact(r: &LiveResult, serial: u64, n: u64) {
        assert_eq!(r.checksum, serial, "checksum mismatch vs serial");
        assert_eq!(r.stats.total_iterations, n);
        let chunks: Vec<dls::Chunk> = r
            .executed
            .iter()
            .map(|(_, s)| dls::Chunk { start: s.start, len: s.len(), step: 0 })
            .collect();
        check_exactly_once(&chunks, n).expect("exactly-once");
    }

    #[test]
    fn all_paper_combinations_execute_exactly_once() {
        for inter in [Kind::STATIC, Kind::GSS, Kind::TSS, Kind::FAC2] {
            for intra in [Kind::STATIC, Kind::SS, Kind::GSS, Kind::TSS, Kind::FAC2] {
                let (r, serial) = run(HierSpec::new(inter, intra), 2, 3, 600);
                assert_exact(&r, serial, 600);
            }
        }
    }

    #[test]
    fn single_node() {
        let (r, serial) = run(HierSpec::new(Kind::GSS, Kind::SS), 1, 4, 300);
        assert_exact(&r, serial, 300);
    }

    #[test]
    fn single_worker_per_node() {
        let (r, serial) = run(HierSpec::new(Kind::FAC2, Kind::GSS), 3, 1, 300);
        assert_exact(&r, serial, 300);
    }

    #[test]
    fn tiny_loop_fewer_iterations_than_workers() {
        let (r, serial) = run(HierSpec::new(Kind::GSS, Kind::GSS), 2, 4, 5);
        assert_exact(&r, serial, 5);
    }

    #[test]
    fn lock_stats_populated() {
        let (r, _) = run(HierSpec::new(Kind::GSS, Kind::SS), 2, 4, 500);
        for node in &r.stats.nodes {
            assert!(node.lock_acquisitions > 0);
        }
    }

    #[test]
    fn trace_and_window_counters_recorded() {
        let w = Synthetic::uniform(600, 1, 100, 3);
        let mut cfg = LiveConfig::new(2, 3, HierSpec::new(Kind::GSS, Kind::SS), Approach::MpiMpi);
        cfg.trace = true;
        let r = run_live_mpi_mpi(&cfg, &w).expect("live run");
        assert!(!r.trace.segments().is_empty());
        let totals = r.trace.totals();
        assert!(totals.compute > 0, "compute segments must be recorded");
        assert!(totals.sched > 0, "sched segments must be recorded");
        for w in 0..6 {
            assert!(r.trace.worker_totals(w).total() > 0, "worker {w} has an empty timeline");
        }
        // Every rank locks the local window at least once per sub-chunk
        // and issues a global fetch_and_op per refill attempt (successful
        // fetches plus the exhaustion probe that comes back empty).
        for ws in &r.stats.workers {
            assert!(ws.lock_time_ns > 0, "time-in-lock must accumulate");
            assert!(ws.rma_ops >= ws.global_fetches);
        }
        for node in &r.stats.nodes {
            assert!(node.lock_acquisitions > 0);
        }
    }

    #[test]
    fn single_atomic_lock_time_counts_only_real_epochs() {
        // The default SingleAtomic mode holds a run-long lock_all on the
        // global window; counted as lock time it alone would be 2
        // regions x the loop per rank, past ranks x the wall time.
        let w = Synthetic::constant(2000, 20_000); // ~20us per iteration
        let cfg = LiveConfig::new(1, 2, HierSpec::new(Kind::FAC2, Kind::SS), Approach::MpiMpi);
        assert_eq!(cfg.global_mode, crate::config::GlobalQueueMode::SingleAtomic);
        let t0 = Instant::now();
        let r = run_live_mpi_mpi(&cfg, &w).expect("live run");
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let lock_ns: u64 = r.stats.workers.iter().map(|ws| ws.lock_time_ns).sum();
        assert!(lock_ns > 0, "the node-window epochs must still count");
        assert!(lock_ns <= 2 * wall_ns, "lock time {lock_ns} ns exceeds 2 ranks x {wall_ns} ns");
    }

    #[test]
    fn trace_disabled_by_default() {
        let (r, _) = run(HierSpec::new(Kind::GSS, Kind::SS), 1, 2, 100);
        assert!(r.trace.segments().is_empty());
    }

    #[test]
    fn every_worker_participates_on_balanced_load() {
        let w = Synthetic::constant(2000, 20_000); // ~20us per iteration
        let cfg = LiveConfig::new(2, 3, HierSpec::new(Kind::GSS, Kind::SS), Approach::MpiMpi);
        let r = run_live_mpi_mpi(&cfg, &w).expect("live run");
        assert_eq!(r.stats.total_iterations, 2000);
    }

    #[test]
    fn rma_log_disabled_by_default_and_recorded_on_request() {
        let w = Synthetic::uniform(300, 1, 100, 3);
        let cfg = LiveConfig::new(2, 2, HierSpec::new(Kind::GSS, Kind::SS), Approach::MpiMpi);
        let r = run_live_mpi_mpi(&cfg, &w).expect("live run");
        assert!(r.rma.is_empty());

        let mut cfg = cfg;
        cfg.record_rma = true;
        let r = run_live_mpi_mpi(&cfg, &w).expect("live run");
        // Every rank attaches both windows and the protocol locks,
        // syncs, gets and puts throughout — the log must see them all.
        assert!(r.rma.len() > 50, "only {} records", r.rma.len());
        let wins: std::collections::HashSet<u64> = r.rma.iter().map(|rec| rec.win).collect();
        assert_eq!(wins.len(), 3, "global + one shared window per node");
    }
}
