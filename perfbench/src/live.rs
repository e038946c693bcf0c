//! `live_ss` and `live_gss`: real threads on `mpisim`, one node x two
//! ranks, inter FAC2, intra SS or GSS under both approaches, over a
//! seeded uniform cost of 2.5-7.5 us per iteration burned by
//! `workloads::Spin`.
//!
//! Under intra SS every iteration is a sub-chunk, so window-lock
//! handoff, the global fetch-and-add and the sub-chunk take sit on the
//! critical path of the MPI+MPI cell; the OpenMP-team baseline runs the
//! same loop without window locks. Intra GSS takes a few hundred
//! sub-chunks, so the same mechanisms are nearly bypassed: a change to
//! them should move `live_ss` and leave `live_gss` where it was.

use crate::tally::Tally;
use crate::{e2e, metric, Cfg, Clock, Out, Rng};
use cluster_sim::SegmentKind;
use dls::Kind;
use hier::live::{run_live, serial_checksum, LiveConfig, LiveResult};
use hier::{Approach, HierSpec};
use mpisim::{LockKind, RmaOp, Topology, Universe, Window};
use std::time::Instant;
use workloads::synthetic::Synthetic;
use workloads::{Spin, Workload};

/// Ranks on the one node: sized for two cores.
pub const RANKS: u32 = 2;
/// Loop size of one timed cell run.
const N: u64 = 25_000;
const COST_NS: (u64, u64) = (2_500, 7_500);
/// Loop size of the warm-up run of each cell during set-up.
const N_WARM: u64 = 2_000;
const SETUPS: usize = 9;
/// Operations per rank in the window microbenchmark.
const WINDOW_OPS: u64 = 20_000;

fn config(intra: Kind, approach: Approach, trace: bool) -> LiveConfig {
    let mut cfg = LiveConfig::new(1, RANKS, HierSpec::new(Kind::FAC2, intra), approach);
    cfg.trace = trace;
    cfg
}

fn run_cell(intra: Kind, approach: Approach, trace: bool, w: &Spin<Synthetic>) -> LiveResult {
    run_live(&config(intra, approach, trace), w).expect("live run")
}

/// Per-cell samples of one run.
#[derive(Default)]
struct CellSamples {
    loop_s: Vec<f64>,
    /// Σ over ranks of (compute, sched, sync, idle) seconds, per run.
    activity: Vec<[f64; 4]>,
    lock_polls: Vec<f64>,
    lock_wait_ms: Vec<f64>,
    rma_ops: Vec<f64>,
}

/// Run the two cells of intra `intra` (SS for `live_ss`, GSS for
/// `live_gss`) in seeded order, one round after another.
pub fn run(cfg: &Cfg, workload: &'static str, intra: Kind) -> Out {
    let cells: Vec<(Approach, String)> = Approach::ALL
        .iter()
        .map(|&a| {
            let prefix = if a == Approach::MpiMpi { "mpimpi" } else { "mpiomp" };
            (a, format!("{prefix}_{}", intra.name().to_lowercase()))
        })
        .collect();
    let (lo, hi) = COST_NS;
    let mut setup_s = Vec::new();
    let mut input = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let w = Spin(Synthetic::uniform(N, lo, hi, cfg.seed));
        let serial = serial_checksum(&w.0);
        // Spawn the ranks, allocate the windows and fault the code in
        // once per cell before anything is timed.
        let warm = Spin(Synthetic::uniform(N_WARM, lo, hi, cfg.seed));
        for (approach, _) in &cells {
            run_cell(intra, *approach, false, &warm);
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        input = Some((w, serial));
    }
    let (w, serial) = input.expect("at least one set-up");

    let mut rng = Rng::new(cfg.seed);
    let mut tally = Tally::default();
    let mut per_cell: Vec<CellSamples> = cells.iter().map(|_| CellSamples::default()).collect();
    let mut round_ms = Vec::new();
    let mut iterations = 0u64;
    let before = crate::procfs::threads();
    let start = Instant::now();
    while round_ms.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
        let mut round = 0.0;
        for i in rng.permutation(cells.len()) {
            let t0 = Instant::now();
            let r = run_cell(intra, cells[i].0, cfg.traced, &w);
            let secs = t0.elapsed().as_secs_f64();
            round += secs;
            iterations += r.stats.total_iterations;
            tally.check(r.checksum == serial && r.stats.total_iterations == N);
            let s = &mut per_cell[i];
            s.loop_s.push(secs);
            if cfg.traced {
                s.activity.push(activity(&r));
                let sum = |f: fn(&hier::stats::WorkerStats) -> u64| {
                    r.stats.workers.iter().map(f).sum::<u64>() as f64
                };
                s.lock_polls.push(sum(|w| w.lock_polls));
                s.lock_wait_ms.push(sum(|w| w.lock_time_ns) / 1e6);
                s.rma_ops.push(sum(|w| w.rma_ops));
            }
        }
        round_ms.push(round * 1e3);
    }
    let timed_s = start.elapsed().as_secs_f64();
    let rq_wait_ms =
        crate::procfs::runqueue_wait_ns(&before, &crate::procfs::threads()) as f64 / 1e6;
    let rss = crate::procfs::rss_mb();

    let med = crate::stats::median;
    let mut out = Out::new(tally);
    out.e2e = e2e(&setup_s, rss, out.tally, iterations as f64 / timed_s, &mut round_ms);
    out.named = cells
        .iter()
        .zip(&per_cell)
        .map(|((_, label), s)| metric(&format!("{label}_loop_s"), med(&s.loop_s), "s", Clock::Wall))
        .collect();
    let ideal_s = (0..N).map(|i| w.cost(i)).sum::<u64>() as f64 / 1e9 / f64::from(RANKS);
    out.named.push(metric("ideal_loop_s", ideal_s, "s", Clock::Wall));

    if cfg.traced {
        let names = ["compute", "sched", "sync", "idle"];
        for ((_, label), s) in cells.iter().zip(&per_cell) {
            for (k, part) in names.iter().enumerate() {
                let v: Vec<f64> = s.activity.iter().map(|a| a[k]).collect();
                out.layers.push(metric(
                    &format!("hier.live.{label}.{part}_s"),
                    med(&v),
                    "s",
                    Clock::Wall,
                ));
            }
        }
        out.layers.push(metric(
            &format!("os.{workload}.runqueue_wait_ms"),
            rq_wait_ms,
            "ms",
            Clock::Wall,
        ));
        if intra == Kind::SS {
            let t0 = Instant::now();
            let check: u64 = (0..N).map(|i| w.execute(i)).sum();
            let serial_loop_s = t0.elapsed().as_secs_f64();
            out.tally.verify(check == serial);
            out.layers.push(metric("workloads.serial_loop_s", serial_loop_s, "s", Clock::Wall));
            let mm = &per_cell[0];
            out.layers.push(metric(
                "mpisim.lock_polls",
                med(&mm.lock_polls),
                "count",
                Clock::Count,
            ));
            out.layers.push(metric(
                "mpisim.lock_wait_ms",
                med(&mm.lock_wait_ms),
                "ms",
                Clock::Wall,
            ));
            out.layers.push(metric("mpisim.rma_ops", med(&mm.rma_ops), "count", Clock::Count));
            let (lock_unlock_ns, faa_ns) = window_microbench();
            out.layers.push(metric("mpisim.lock_unlock_ns", lock_unlock_ns, "ns", Clock::Wall));
            out.layers.push(metric("mpisim.faa_ns", faa_ns, "ns", Clock::Wall));
        }

        // Every rank is busy, scheduling, synchronising or idle from the
        // start of the run to its end, so the four parts summed over
        // ranks should cover RANKS x the loop time.
        let parts: Vec<f64> = (0..4)
            .map(|k| per_cell.iter().map(|s| s.activity.iter().map(|a| a[k]).sum::<f64>()).sum())
            .collect();
        let wall: f64 = per_cell.iter().map(|s| s.loop_s.iter().sum::<f64>()).sum();
        out.recon.push(crate::recon::Recon {
            workload,
            what: "sum over ranks of compute+sched+sync+idle against ranks x loop wall time",
            unit: "s",
            parts: names.iter().copied().zip(parts).collect(),
            total_name: "ranks_x_loop_s",
            total: f64::from(RANKS) * wall,
            tolerance: 0.05,
        });
    }
    out
}

/// Σ over ranks of each activity in one traced run, in seconds.
fn activity(r: &LiveResult) -> [f64; 4] {
    let mut a = [0.0; 4];
    for s in r.trace.segments() {
        let k = match s.kind {
            SegmentKind::Compute => 0,
            SegmentKind::Sched => 1,
            SegmentKind::Sync => 2,
            SegmentKind::Idle => 3,
        };
        a[k] += s.duration() as f64 / 1e9;
    }
    a
}

/// Two ranks hammering one window: nanoseconds per exclusive
/// lock + get + put + unlock cycle, and per fetch-and-add, each the
/// median over ranks.
fn window_microbench() -> (f64, f64) {
    let per_rank = Universe::run(Topology::single_node(RANKS), |p| {
        let w = p.world();
        let win = Window::allocate(w, if w.rank() == 0 { 2 } else { 0 }).expect("window");
        w.barrier();
        let t0 = Instant::now();
        for _ in 0..WINDOW_OPS {
            win.lock(LockKind::Exclusive, 0).expect("lock");
            let v = win.get(0, 0).expect("get");
            win.put(0, 0, v + 1).expect("put");
            win.unlock(LockKind::Exclusive, 0).expect("unlock");
        }
        let lock_ns = t0.elapsed().as_nanos() as f64 / WINDOW_OPS as f64;
        w.barrier();
        let t0 = Instant::now();
        for _ in 0..WINDOW_OPS {
            win.fetch_and_op(0, 1, 1, RmaOp::Sum).expect("fetch-and-add");
        }
        let faa_ns = t0.elapsed().as_nanos() as f64 / WINDOW_OPS as f64;
        w.barrier();
        (lock_ns, faa_ns)
    });
    let med = crate::stats::median;
    (
        med(&per_rank.iter().map(|r| r.0).collect::<Vec<_>>()),
        med(&per_rank.iter().map(|r| r.1).collect::<Vec<_>>()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_sums_segments_by_kind() {
        let w = Spin(Synthetic::uniform(500, 100, 200, 1));
        let r = run_cell(Kind::SS, Approach::MpiMpi, true, &w);
        let a = activity(&r);
        assert!(a[0] > 0.0, "compute recorded");
        assert_eq!(r.checksum, serial_checksum(&w.0));
    }
}
