//! Real-thread MPI+OpenMP executor: the baseline hybrid on the `mpisim`
//! runtime, with the intra-node level running on the `openmp-sim`
//! worksharing runtime.
//!
//! One MPI rank per node. Inside each rank, an OpenMP-style team
//! executes chunks: thread 0 (the main thread — the only one allowed to
//! call MPI, as the paper notes) fetches chunks from the global RMA
//! window; every worksharing region over a chunk ends in the **implicit
//! team barrier** `openmp_sim::TeamCtx::for_each` provides, so fast
//! threads wait for the slowest one before the next chunk can be
//! fetched.
//!
//! As on the paper's testbed (Intel OpenMP), only `schedule(static)`,
//! `schedule(dynamic)` and `schedule(guided)` exist at this level:
//! requesting TSS/FAC2/... intra-node under MPI+OpenMP panics with the
//! same limitation message the paper gives for skipping those
//! combinations.

use super::{LiveConfig, LiveResult};
use crate::queue::SubChunk;
use crate::stats::RunStats;
use cluster_sim::trace::{SegmentKind, Trace};
use dls::openmp::{omp_equivalent, OmpSchedule};
use dls::technique::WorkerCtx;
use dls::ChunkCalculator;
use mpisim::{LockKind, RankWinStats, RmaLog, RmaRecord, Topology, Universe, Window};
use openmp_sim::{Schedule, Team, TeamCtx};
use parking_lot::Mutex;
use std::time::Instant;
use workloads::Workload;

const GSTEP: usize = 0;
const GSCHED: usize = 1;

struct ThreadOutcome {
    iterations: u64,
    sub_chunks: u64,
    checksum: u64,
    executed: Vec<SubChunk>,
    /// Timeline keyed by the *local* thread id; remapped to global
    /// worker ids during aggregation.
    trace: Trace,
    /// When this thread left the loop (0 unless tracing: only the
    /// timeline's idle tail uses it).
    finish_ns: u64,
}

struct NodeOutcome {
    node: u32,
    threads: Vec<ThreadOutcome>,
    global_fetches: u64,
    global_accesses: u64,
    deposits: u64,
    /// The node rank's window counters (only thread 0 calls MPI).
    win_stats: RankWinStats,
}

/// The intra technique as an `openmp-sim` schedule, or the paper's
/// limitation message.
fn omp_schedule(intra: &dls::Technique) -> Schedule {
    match omp_equivalent(intra.kind()) {
        Some(OmpSchedule::Static { chunk }) => Schedule::Static { chunk },
        Some(OmpSchedule::Dynamic { chunk }) => Schedule::Dynamic { chunk },
        Some(OmpSchedule::Guided { chunk }) => Schedule::Guided { chunk },
        None => panic!(
            "the Intel OpenMP runtime only supports schedule(static|dynamic|guided); \
             {} at the intra-node level requires Approach::MpiMpi",
            intra.kind()
        ),
    }
}

/// Run the MPI+OpenMP approach with real threads.
///
/// Allocation or RMA failures from any node's master thread surface as
/// `Err`.
pub fn run_live_mpi_omp(
    cfg: &LiveConfig,
    workload: &(dyn Workload + Sync),
) -> mpisim::Result<LiveResult> {
    // One MPI process per node; the team provides the node's parallelism.
    let topology = Topology::new(cfg.nodes, 1);
    let n = workload.n_iters();
    assert!(n <= i64::MAX as u64, "loop too large for i64 window slots");
    let inter_spec = dls::LoopSpec::new(n, cfg.nodes);
    let schedule = omp_schedule(&cfg.spec.intra);
    let team_size = cfg.workers_per_node;
    let spec = cfg.spec;
    let do_trace = cfg.trace;
    let rma_log = cfg.record_rma.then(RmaLog::new);
    let log_for_ranks = rma_log.clone();
    // Timeline epoch: every thread stamps segments relative to this.
    let epoch = Instant::now();

    let outcomes = Universe::run(topology, move |p| -> mpisim::Result<NodeOutcome> {
        let world = p.world();
        let me = world.rank();
        let mut global_win = Window::allocate(world, if me == 0 { 2 } else { 0 })?;
        if let Some(log) = &log_for_ranks {
            global_win.record_to(log);
        }
        world.barrier();
        global_win.note_barrier();

        let chunk_slot: Mutex<Option<(u64, u64)>> = Mutex::new(None);
        let fetches = Mutex::new((0u64, 0u64, 0u64)); // fetches, accesses, deposits
                                                      // First RMA error the master thread hit (it cannot return a
                                                      // Result through the worksharing closure); reported after the
                                                      // team joins.
        let fetch_err: Mutex<Option<mpisim::Error>> = Mutex::new(None);

        let thread_outcomes = Team::new(team_size).parallel(|ctx| {
            team_thread(
                ctx,
                workload,
                &global_win,
                &chunk_slot,
                &fetches,
                &fetch_err,
                &spec,
                &inter_spec,
                schedule,
                n,
                do_trace,
                epoch,
            )
        });

        if let Some(e) = fetch_err.into_inner() {
            return Err(e);
        }
        let win_stats = global_win.rank_stats();
        let f = fetches.into_inner();
        Ok(NodeOutcome {
            node: me,
            threads: thread_outcomes,
            global_fetches: f.0,
            global_accesses: f.1,
            deposits: f.2,
            win_stats,
        })
    });

    let outcomes = outcomes.into_iter().collect::<mpisim::Result<Vec<_>>>()?;
    let rma = rma_log.map(|l| l.records()).unwrap_or_default();
    Ok(aggregate(cfg, outcomes, rma))
}

/// One team thread's life: thread 0 fetches chunks over MPI; everyone
/// executes worksharing regions with the implicit end barrier.
#[allow(clippy::too_many_arguments)]
fn team_thread(
    ctx: &TeamCtx,
    workload: &dyn Workload,
    global_win: &Window,
    chunk_slot: &Mutex<Option<(u64, u64)>>,
    fetches: &Mutex<(u64, u64, u64)>,
    fetch_err: &Mutex<Option<mpisim::Error>>,
    spec: &crate::config::HierSpec,
    inter_spec: &dls::LoopSpec,
    schedule: Schedule,
    n: u64,
    do_trace: bool,
    epoch: Instant,
) -> ThreadOutcome {
    let mut out = ThreadOutcome {
        iterations: 0,
        sub_chunks: 0,
        checksum: 0,
        executed: Vec::new(),
        trace: if do_trace { Trace::recording() } else { Trace::disabled() },
        finish_ns: 0,
    };
    // Timeline stamps: an untraced run never reads the clock (every
    // stamp is 0 and `Trace::record` drops the empty segment).
    let now = || if do_trace { epoch.elapsed().as_nanos() as u64 } else { 0 };
    let tid = ctx.thread_num();
    loop {
        let fetch_start = now();
        // Only the main thread calls MPI. An RMA failure parks its
        // error in `fetch_err` and posts `None` so the whole team
        // drains out of the loop.
        ctx.master(|| {
            let fetched = (|| -> mpisim::Result<Option<(u64, u64)>> {
                global_win.lock(LockKind::Exclusive, 0)?;
                let gstep = global_win.get(0, GSTEP)? as u64;
                let gsched = global_win.get(0, GSCHED)? as u64;
                let mut f = fetches.lock();
                f.1 += 1;
                let fetched = if gsched < n {
                    let state = dls::SchedState { step: gstep, scheduled: gsched };
                    let size = spec
                        .inter
                        .chunk_size(inter_spec, state, WorkerCtx::default())
                        .clamp(1, n - gsched);
                    global_win.put(0, GSTEP, (gstep + 1) as i64)?;
                    global_win.put(0, GSCHED, (gsched + size) as i64)?;
                    f.0 += 1;
                    f.2 += 1;
                    Some((gsched, gsched + size))
                } else {
                    None
                };
                drop(f);
                global_win.unlock(LockKind::Exclusive, 0)?;
                Ok(fetched)
            })();
            *chunk_slot.lock() = match fetched {
                Ok(c) => c,
                Err(e) => {
                    fetch_err.lock().get_or_insert(e);
                    None
                }
            };
        });
        if tid == 0 {
            // The master's MPI round-trip is scheduling overhead.
            out.trace.record(tid, fetch_start, now(), SegmentKind::Sched);
        }
        // Region start: the team waits for the fetch.
        let barrier_start = now();
        ctx.barrier();
        out.trace.record(tid, barrier_start, now(), SegmentKind::Sync);
        let Some((lo, hi)) = *chunk_slot.lock() else {
            break;
        };
        // The worksharing region; `for_each_dispatch` ends in the
        // implicit barrier the paper's Figure 2 illustrates.
        let mut last_end = now();
        ctx.for_each_dispatch(lo..hi, schedule, |r| {
            let c0 = now();
            for i in r.clone() {
                out.checksum = out.checksum.wrapping_add(workload.execute(i));
            }
            out.iterations += r.end - r.start;
            out.sub_chunks += 1;
            out.executed.push(SubChunk { start: r.start, end: r.end });
            last_end = now();
            out.trace.record(tid, c0, last_end, SegmentKind::Compute);
        });
        // Fast threads sit in the region's implicit end barrier until
        // the slowest one drains its share.
        out.trace.record(tid, last_end, now(), SegmentKind::Sync);
    }
    out.finish_ns = now();
    out
}

fn aggregate(cfg: &LiveConfig, outcomes: Vec<NodeOutcome>, rma: Vec<RmaRecord>) -> LiveResult {
    let team = cfg.workers_per_node;
    let total_workers = (cfg.nodes * team) as usize;
    let mut stats = RunStats::new(total_workers, cfg.nodes as usize);
    let mut checksum = 0u64;
    let mut executed = Vec::new();
    let mut trace = if cfg.trace { Trace::recording() } else { Trace::disabled() };
    let makespan_ns =
        outcomes.iter().flat_map(|o| o.threads.iter().map(|t| t.finish_ns)).max().unwrap_or(0);
    for o in outcomes {
        for (tid, t) in o.threads.into_iter().enumerate() {
            let w = o.node * team + tid as u32;
            stats.workers[w as usize].iterations = t.iterations;
            stats.workers[w as usize].sub_chunks = t.sub_chunks;
            stats.nodes[o.node as usize].sub_chunks += t.sub_chunks;
            stats.total_iterations += t.iterations;
            checksum = checksum.wrapping_add(t.checksum);
            executed.extend(t.executed.into_iter().map(|s| (w, s)));
            // Thread timelines are keyed by the local thread id; remap
            // to the global worker id and pad the tail so every worker
            // timeline spans the whole run.
            for s in t.trace.segments() {
                trace.record(w, s.start, s.end, s.kind);
            }
            trace.record(w, t.finish_ns, makespan_ns, SegmentKind::Idle);
        }
        let master = (o.node * team) as usize;
        stats.workers[master].global_fetches = o.global_fetches;
        // Only thread 0 touches the global window, so the rank's window
        // counters are the master worker's.
        stats.workers[master].lock_polls = o.win_stats.failed_polls;
        stats.workers[master].lock_time_ns = o.win_stats.lock_wait_ns + o.win_stats.lock_held_ns;
        stats.workers[master].rma_ops = o.win_stats.rma_atomic_ops;
        stats.nodes[o.node as usize].lock_acquisitions = o.win_stats.lock_acquisitions;
        stats.nodes[o.node as usize].lock_polls = o.win_stats.failed_polls;
        stats.nodes[o.node as usize].deposits = o.deposits;
        stats.global_accesses += o.global_accesses;
    }
    LiveResult { stats, checksum, executed, trace, rma, recovery: Vec::new() }
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
        let cfg = LiveConfig::new(nodes, wpn, spec, Approach::MpiOpenMp);
        let serial = serial_checksum(&w);
        (run_live_mpi_omp(&cfg, &w).expect("live run"), serial)
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
    fn openmp_supported_combinations_execute_exactly_once() {
        for inter in [Kind::STATIC, Kind::GSS, Kind::TSS, Kind::FAC2] {
            for intra in [Kind::STATIC, Kind::SS, Kind::GSS] {
                let (r, serial) = run(HierSpec::new(inter, intra), 2, 3, 600);
                assert_exact(&r, serial, 600);
            }
        }
    }

    #[test]
    fn only_thread_zero_fetches() {
        let (r, _) = run(HierSpec::new(Kind::GSS, Kind::GSS), 2, 4, 800);
        for (w, ws) in r.stats.workers.iter().enumerate() {
            if w % 4 != 0 {
                assert_eq!(ws.global_fetches, 0);
            }
        }
    }

    #[test]
    fn static_intra_splits_blocks() {
        let (r, serial) = run(HierSpec::new(Kind::STATIC, Kind::STATIC), 2, 4, 800);
        assert_exact(&r, serial, 800);
        // STATIC+STATIC: every thread executes exactly one block of 100.
        for ws in &r.stats.workers {
            assert_eq!(ws.iterations, 100);
            assert_eq!(ws.sub_chunks, 1);
        }
    }

    #[test]
    fn tiny_loop() {
        let (r, serial) = run(HierSpec::new(Kind::GSS, Kind::SS), 2, 4, 3);
        assert_exact(&r, serial, 3);
    }

    #[test]
    fn single_node_single_thread() {
        let (r, serial) = run(HierSpec::new(Kind::FAC2, Kind::GSS), 1, 1, 200);
        assert_exact(&r, serial, 200);
    }

    #[test]
    fn trace_covers_every_team_thread() {
        let w = Synthetic::uniform(600, 1, 100, 3);
        let mut cfg =
            LiveConfig::new(2, 3, HierSpec::new(Kind::GSS, Kind::SS), Approach::MpiOpenMp);
        cfg.trace = true;
        let r = run_live_mpi_omp(&cfg, &w).expect("live run");
        let totals = r.trace.totals();
        assert!(totals.compute > 0, "compute segments must be recorded");
        assert!(totals.sched > 0, "the master's fetches are sched time");
        assert!(totals.sync > 0, "region barriers are sync time");
        for w in 0..6 {
            assert!(r.trace.worker_totals(w).total() > 0, "worker {w} has an empty timeline");
        }
        // Only the master thread of each node touches MPI, so only it
        // can accumulate window counters.
        for (w, ws) in r.stats.workers.iter().enumerate() {
            if w % 3 == 0 {
                assert!(ws.rma_ops == 0, "chunk fetches use put/get, not atomics");
                assert!(ws.lock_time_ns > 0, "the master holds the global lock");
            } else {
                assert_eq!(ws.lock_time_ns, 0);
                assert_eq!(ws.lock_polls, 0);
            }
        }
        for node in &r.stats.nodes {
            assert!(node.lock_acquisitions > 0);
        }
    }

    #[test]
    fn trace_disabled_by_default() {
        let (r, _) = run(HierSpec::new(Kind::GSS, Kind::SS), 1, 2, 100);
        assert!(r.trace.segments().is_empty());
    }

    #[test]
    #[should_panic(expected = "Intel OpenMP runtime only supports")]
    fn unsupported_intra_technique_rejected() {
        let w = Synthetic::constant(10, 1);
        let cfg = LiveConfig::new(1, 2, HierSpec::new(Kind::GSS, Kind::TSS), Approach::MpiOpenMp);
        let _ = run_live_mpi_omp(&cfg, &w);
    }

    #[test]
    fn rma_log_records_master_protocol() {
        let w = Synthetic::uniform(400, 1, 100, 3);
        let mut cfg =
            LiveConfig::new(2, 3, HierSpec::new(Kind::GSS, Kind::SS), Approach::MpiOpenMp);
        cfg.record_rma = true;
        let r = run_live_mpi_omp(&cfg, &w).expect("live run");
        assert!(!r.rma.is_empty());
        // Only masters call MPI: every non-barrier record comes from a
        // lock/get/put/unlock fetch cycle on the one global window.
        let wins: std::collections::HashSet<u64> = r.rma.iter().map(|rec| rec.win).collect();
        assert_eq!(wins.len(), 1);
    }
}
