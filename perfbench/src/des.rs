//! `paper_des`: the paper's Figure 4-7 cells at 16 nodes x 16 workers in
//! virtual time, on the Mandelbrot-quick and PSIA-quick cost tables.
//!
//! One thread. `cluster-sim`, `hier::sim` and `dls` do all the work; the
//! virtual makespans are exact, so every repetition must reproduce them
//! bit for bit, and the 16-node STATIC+SS cells must equal what the
//! `figures` grid for Figure 4 computes. The inputs are the paper's
//! fixed cost tables and the cells run in a fixed order, so the seed
//! changes nothing here: a seeded order moved the sweep's wall time by
//! a few percent through cache effects alone.

use crate::span::Spans;
use crate::tally::Tally;
use crate::{e2e, metric, Cfg, Clock, Out};
use dls::sequence::schedule_all;
use dls::{Kind, LoopSpec, Technique};
use hdls::figures::{figure_grid, point};
use hdls::HierSchedule;
use hier::sim::SimResult;
use hier::{Approach, HierSpec};
use std::time::Instant;
use workloads::CostTable;

const NODES: u32 = 16;
const WORKERS: u32 = 16;
const INTERS: [Kind; 3] = [Kind::STATIC, Kind::GSS, Kind::FAC2];
const INTRAS: [Kind; 3] = [Kind::SS, Kind::GSS, Kind::FAC2];
/// Cost-table set-ups per run; the median is reported.
const SETUPS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq)]
struct Cell {
    table: usize,
    inter: Kind,
    intra: Kind,
    approach: Approach,
}

/// What a cell's virtual-time run must reproduce exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Exact {
    makespan: u64,
    sub_chunks: u64,
    global_accesses: u64,
    lock_polls: u64,
    lock_poll_penalty: u64,
    iterations: u64,
}

impl Exact {
    fn of(r: &SimResult) -> Exact {
        Exact {
            makespan: r.makespan,
            sub_chunks: r.stats.nodes.iter().map(|n| n.sub_chunks).sum(),
            global_accesses: r.stats.global_accesses,
            lock_polls: r.stats.nodes.iter().map(|n| n.lock_polls).sum(),
            lock_poll_penalty: r.lock_poll_penalty,
            iterations: r.stats.total_iterations,
        }
    }
}

/// The 30 cells: inter {STATIC, GSS, FAC2} x intra {SS, GSS, FAC2} x
/// both approaches on both tables, minus the intra FAC2 cells the
/// OpenMP runtime cannot express.
fn cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for table in 0..2 {
        for inter in INTERS {
            for intra in INTRAS {
                for approach in Approach::ALL {
                    if approach == Approach::MpiOpenMp
                        && !HierSpec::new(inter, intra).supported_by_openmp()
                    {
                        continue;
                    }
                    out.push(Cell { table, inter, intra, approach });
                }
            }
        }
    }
    out
}

fn schedule(c: &Cell) -> HierSchedule {
    HierSchedule::builder()
        .inter(c.inter)
        .intra(c.intra)
        .approach(c.approach)
        .nodes(NODES)
        .workers_per_node(WORKERS)
        .build()
}

fn tables() -> [CostTable; 2] {
    [CostTable::build(&bench::mandelbrot_quick()), CostTable::build(&bench::psia_quick())]
}

pub fn run(cfg: &Cfg) -> Out {
    let mut setup_s = Vec::new();
    let mut tables_opt = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let t = tables();
        setup_s.push(t0.elapsed().as_secs_f64());
        tables_opt = Some(t);
    }
    let tables = tables_opt.expect("at least one set-up");

    let all = cells();
    let mut spans = Spans::new();
    let mut tally = Tally::default();
    let mut reference: Vec<Option<Exact>> = vec![None; all.len()];
    let mut cell_ms = Vec::new();
    let mut sweep_s = Vec::new();
    let mut cells_done = 0u64;

    let before = crate::procfs::threads();
    let start = Instant::now();
    while sweep_s.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
        let t_sweep = spans.now();
        let sweep = spans.open("sweep", t_sweep, None);
        for i in 0..all.len() {
            let c = &all[i];
            let table = &tables[c.table];
            let t0 = spans.now();
            let r = schedule(c).simulate(table);
            let t1 = spans.now();
            spans.record("cell", t0, t1, Some(sweep));
            cell_ms.push((t1 - t0) as f64 / 1e6);
            cells_done += 1;
            let exact = Exact::of(&r);
            let repeat_ok = *reference[i].get_or_insert(exact) == exact;
            tally.check(repeat_ok && exact.iterations == table.n_iters());
        }
        let t_end = spans.now();
        spans.close(sweep, t_end);
        sweep_s.push((t_end - t_sweep) as f64 / 1e9);
    }
    let timed_s = start.elapsed().as_secs_f64();
    let rq_wait_ms =
        crate::procfs::runqueue_wait_ns(&before, &crate::procfs::threads()) as f64 / 1e6;
    let rss = crate::procfs::rss_mb();

    // The Figure 4 grid (inter STATIC) on Mandelbrot-quick is what
    // `figures --quick --fig4` prints; its 16-node SS points must be
    // the cells measured here, to the bit.
    let grid =
        figure_grid(Kind::STATIC, &tables[0], cluster_sim::MachineParams::default(), WORKERS);
    let vt = |approach| {
        let i = all
            .iter()
            .position(|c| {
                c.table == 0
                    && c.inter == Kind::STATIC
                    && c.intra == Kind::SS
                    && c.approach == approach
            })
            .expect("STATIC+SS cell present");
        let exact = reference[i].expect("every cell ran");
        let secs = cluster_sim::time::to_secs(exact.makespan);
        (secs, exact)
    };
    let (vt_mm, mm_exact) = vt(Approach::MpiMpi);
    let (vt_mo, _) = vt(Approach::MpiOpenMp);
    for (approach, secs) in [(Approach::MpiMpi, vt_mm), (Approach::MpiOpenMp, vt_mo)] {
        let fig = point(&grid, Kind::SS, approach, NODES);
        tally.verify(fig.map(f64::to_bits) == Some(secs.to_bits()));
    }

    let des_wall_s = crate::stats::median(&sweep_s);
    let mut out = Out::new(tally);
    out.e2e = e2e(&setup_s, rss, out.tally, cells_done as f64 / timed_s, &mut cell_ms);
    out.named = vec![
        metric("des_wall_s", des_wall_s, "s", Clock::Wall),
        metric("vt_mpimpi_static_ss_s", vt_mm, "virtual_s", Clock::Virtual),
        metric("vt_mpiomp_static_ss_s", vt_mo, "virtual_s", Clock::Virtual),
        metric("sweeps", sweep_s.len() as f64, "count", Clock::Count),
    ];

    if cfg.traced {
        let one: Vec<Exact> = reference.iter().map(|e| e.expect("every cell ran")).collect();
        let sub_chunks: u64 = one.iter().map(|e| e.sub_chunks).sum();
        out.layers = vec![
            metric("workloads.cost_table_s", crate::stats::median(&setup_s), "s", Clock::Wall),
            metric("hier.sim.sweep_wall_s", des_wall_s, "s", Clock::Wall),
            metric("dls.chunk_calc_ns", chunk_calc_ns(&all, &tables), "ns", Clock::Wall),
            metric("hier.sim.sub_chunks", sub_chunks as f64, "count", Clock::Count),
            metric(
                "hier.sim.global_accesses",
                one.iter().map(|e| e.global_accesses).sum::<u64>() as f64,
                "count",
                Clock::Count,
            ),
            metric(
                "hier.sim.lock_polls",
                one.iter().map(|e| e.lock_polls).sum::<u64>() as f64,
                "count",
                Clock::Count,
            ),
            metric(
                "hier.sim.ns_per_sub_chunk",
                des_wall_s * 1e9 / sub_chunks as f64,
                "ns",
                Clock::Wall,
            ),
            metric(
                "cluster_sim.lock_poll_penalty_s",
                cluster_sim::time::to_secs(mm_exact.lock_poll_penalty),
                "virtual_s",
                Clock::Virtual,
            ),
            metric("vt.mpimpi_static_ss_s", vt_mm, "virtual_s", Clock::Virtual),
            metric("vt.mpiomp_static_ss_s", vt_mo, "virtual_s", Clock::Virtual),
            metric("os.paper_des.runqueue_wait_ms", rq_wait_ms, "ms", Clock::Wall),
        ];
        // Each cell is timed on its own, the untraced sweep as a whole;
        // the gaps between cells are the sweep span's self time.
        let sweeps = sweep_s.len() as f64;
        out.recon.push(crate::recon::Recon {
            workload: "paper_des",
            what: "per-cell wall times summed per sweep against the untraced des_wall_s",
            unit: "s",
            parts: vec![
                ("cells", spans.total("cell") as f64 / 1e9 / sweeps),
                ("between_cells", spans.self_time("sweep") as f64 / 1e9 / sweeps),
            ],
            total_name: "untraced_des_wall_s",
            total: cfg.untraced_metric("des_wall_s").expect("untraced run first"),
            tolerance: 0.10,
        });
    }
    out
}

/// Nanoseconds per chunk for the sweep's chunk sequences replayed
/// through the public calculators: each cell's inter-node sequence over
/// 16 nodes, and the intra-node sequence of each of its chunks over 16
/// workers.
fn chunk_calc_ns(all: &[Cell], tables: &[CostTable; 2]) -> f64 {
    let mut chunks = 0u64;
    let t0 = Instant::now();
    for c in all {
        let table = &tables[c.table];
        let inter = Technique::from_kind(c.inter);
        let intra = Technique::from_kind(c.intra);
        let outer = schedule_all(&table.loop_spec(NODES), &inter);
        chunks += outer.len() as u64;
        for ch in &outer {
            let inner = schedule_all(&LoopSpec::new(ch.len, WORKERS), &intra);
            chunks += std::hint::black_box(inner).len() as u64;
        }
    }
    t0.elapsed().as_nanos() as f64 / chunks as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirty_cells_without_openmp_fac2() {
        let c = cells();
        assert_eq!(c.len(), 30);
        assert!(!c.iter().any(|c| c.approach == Approach::MpiOpenMp && c.intra == Kind::FAC2));
    }
}
