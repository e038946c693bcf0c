//! `perfbench`: one command for the end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload paper_des|live_ss|live_gss|svc_stream|svc_churn \
//!           --seed N --seconds S --trace 0|1 [--work-dir DIR]
//! ```
//!
//! With `--trace 0` the workload runs untraced and the last line of
//! standard output carries the end-to-end metrics. With `--trace 1` the
//! named workload runs untraced and then traced, each for half of
//! `--seconds`, the other four do the same for a one-second probe, and
//! the last line carries every per-layer metric; the lines before it
//! give each workload's reconciliations and tracing overhead.
//!
//! Every layer is measured from outside: the benchmark times calls into
//! the public functions of each crate, reads the counters those calls
//! return and each thread's `/proc/self/task/*/schedstat`, and replays
//! recorded inputs through the public codecs, calculators and journal.

mod des;
mod live;
mod procfs;
mod recon;
mod span;
mod stats;
mod svc;
mod tally;

use std::path::PathBuf;
use tally::Tally;

const WORKLOADS: [&str; 5] = ["paper_des", "live_ss", "live_gss", "svc_stream", "svc_churn"];
/// Seconds each of the other workloads runs untraced and then
/// traced in a traced run.
const PROBE_SECONDS: f64 = 1.0;

/// How a metric's value was obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Measured wall-clock time (or a rate over it).
    Wall,
    /// Simulated time of the virtual-time cluster model: exact.
    Virtual,
    /// A count, size or ratio of counts.
    Count,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Virtual => "virtual",
            Clock::Count => "count",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
}

pub fn metric(name: &str, value: f64, unit: &'static str, clock: Clock) -> Metric {
    Metric { name: name.to_string(), value, unit, clock }
}

/// One workload run's results.
pub struct Out {
    pub tally: Tally,
    /// The end-to-end metrics every workload reports, see [`e2e`].
    pub e2e: Vec<Metric>,
    /// The workload's own end-to-end figures under their own names.
    pub named: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    pub recon: Vec<recon::Recon>,
}

impl Out {
    pub fn new(tally: Tally) -> Out {
        Out { tally, e2e: Vec::new(), named: Vec::new(), layers: Vec::new(), recon: Vec::new() }
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.e2e.iter().chain(&self.named).find(|m| m.name == name).map(|m| m.value)
    }
}

/// What one workload run is asked to do.
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Working space inside the checkout (journal directories).
    pub work_dir: PathBuf,
    /// The same workload's untraced metrics, measured just before a
    /// traced run (empty otherwise).
    pub untraced: Vec<Metric>,
}

impl Cfg {
    pub fn untraced_metric(&self, name: &str) -> Option<f64> {
        self.untraced.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// The end-to-end metrics, the same six for every workload. A workload
/// completes *units*: DES cells (`paper_des`), loop iterations, timed
/// per round of the two approaches' loops (`live_ss`, `live_gss`),
/// chunks, timed per fetch
/// round trip (`svc_stream`), and jobs, timed from create to
/// `JobFinished` (`svc_churn`). Sorts `unit_ms` in place.
pub fn e2e(
    setup_s: &[f64],
    rss_mb: f64,
    tally: Tally,
    rate_per_s: f64,
    unit_ms: &mut [f64],
) -> Vec<Metric> {
    unit_ms.sort_by(f64::total_cmp);
    let tail = stats::tail(unit_ms).map_or(unit_ms[unit_ms.len() - 1], |t| t.1);
    vec![
        metric("setup_s", stats::median(setup_s), "s", Clock::Wall),
        metric("rss_mb", rss_mb, "MB", Clock::Count),
        metric("ok_ratio", 1.0 - tally.failed_ratio(), "ratio", Clock::Count),
        metric("rate_per_s", rate_per_s, "1/s", Clock::Wall),
        metric("p50_ms", stats::percentile(unit_ms, 50.0), "ms", Clock::Wall),
        metric("tail_ms", tail, "ms", Clock::Wall),
    ]
}

/// A number with all its digits, as JSON.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// splitmix64: the workloads' only source of randomness, from `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded shuffle of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

fn run(workload: &str, cfg: &Cfg) -> Out {
    match workload {
        "paper_des" => des::run(cfg),
        "live_ss" => live::run(cfg, "live_ss", dls::Kind::SS),
        "live_gss" => live::run(cfg, "live_gss", dls::Kind::GSS),
        "svc_stream" => svc::stream(cfg),
        "svc_churn" => svc::churn(cfg),
        other => unreachable!("workload {other} was validated"),
    }
}

/// (load threads, connections) a workload drives its load from.
fn load_shape(workload: &str) -> (u32, u32) {
    match workload {
        "paper_des" => (1, 0),
        "live_ss" | "live_gss" => (live::RANKS, 0),
        // One load thread; the server's threads are the system under
        // test, not load.
        "svc_stream" => (1, svc::STREAM_CONNS),
        _ => (1, svc::CHURN_SLOTS as u32),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 [--work-dir DIR]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => usage(&format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                let s: f64 = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    usage("--seconds must be in (0, 120]");
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => usage("--trace must be 0 or 1"),
            },
            "--work-dir" => work_dir = value.into(),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        work_dir,
    }
}

/// `{"name": {"value": .., "unit": ..}, ...}`, with each metric's clock
/// label when `clock` is set.
fn metrics_json(ms: &[Metric], clock: bool) -> String {
    let parts: Vec<String> = ms
        .iter()
        .map(|m| {
            let label =
                if clock { format!(", \"clock\": \"{}\"", m.clock.label()) } else { String::new() };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"{label}}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", parts.join(", "))
}

fn context_json(args: &Args, nproc: u32) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let (threads, conns) = load_shape(&args.workload);
    format!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"commit\": \"{}\", \"source_digest\": \"{}\", \"rustc\": \"{}\", \
         \"load_threads\": {threads}, \"connections\": {conns}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env("PERFBENCH_COMMIT"),
        env("PERFBENCH_SOURCE_DIGEST"),
        env("PERFBENCH_RUSTC"),
    )
}

fn print_named(workload: &str, phase: &str, out: &Out) {
    println!(
        "{{\"workload\": \"{workload}\", \"phase\": \"{phase}\", \"attempted\": {}, \"failed\": {}, \
         \"failed_ratio\": {}, \"end_to_end\": {}, \"named\": {}}}",
        out.tally.attempted,
        out.tally.failed,
        num(out.tally.failed_ratio()),
        metrics_json(&out.e2e, true),
        metrics_json(&out.named, true)
    );
}

fn main() {
    let args = parse_args();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get() as u32);
    let involved: Vec<&str> =
        if args.trace { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    for w in &involved {
        let (threads, _) = load_shape(w);
        if threads > nproc {
            eprintln!("perfbench: {w} needs {threads} load threads but nproc is {nproc}; refusing");
            std::process::exit(3);
        }
    }
    std::fs::create_dir_all(&args.work_dir).expect("create the work directory");
    println!("{}", context_json(&args, nproc));

    let cfg = |seconds, traced, untraced| Cfg {
        seed: args.seed,
        seconds,
        traced,
        work_dir: args.work_dir.clone(),
        untraced,
    };
    let mut tally = Tally::default();
    let metrics = if !args.trace {
        let out = run(&args.workload, &cfg(args.seconds, false, Vec::new()));
        print_named(&args.workload, "untraced", &out);
        tally.add(out.tally);
        out.e2e
    } else {
        let mut layers = Vec::new();
        let order = std::iter::once(args.workload.as_str())
            .chain(WORKLOADS.iter().copied().filter(|w| *w != args.workload));
        for w in order {
            let seconds = if w == args.workload { args.seconds / 2.0 } else { PROBE_SECONDS };
            let untraced = run(w, &cfg(seconds, false, Vec::new()));
            print_named(w, "untraced", &untraced);
            tally.add(untraced.tally);
            let base: Vec<Metric> = untraced.e2e.iter().chain(&untraced.named).cloned().collect();
            let traced = run(w, &cfg(seconds, true, base));
            print_named(w, "traced", &traced);
            tally.add(traced.tally);
            for r in &traced.recon {
                println!("{}", r.to_json());
            }
            let rows: Vec<String> = untraced
                .e2e
                .iter()
                .chain(&untraced.named)
                .filter_map(|m| {
                    let t = traced.metric(&m.name)?;
                    Some(format!(
                        "\"{}\": {{\"untraced\": {}, \"traced\": {}, \"change\": {}}}",
                        m.name,
                        num(m.value),
                        num(t),
                        num(t / m.value - 1.0)
                    ))
                })
                .collect();
            println!("{{\"tracing_overhead\": \"{w}\", \"metrics\": {{{}}}}}", rows.join(", "));
            layers.extend(traced.layers);
        }
        layers
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.wrong == 0,
        tally.attempted,
        tally.failed,
        metrics_json(&metrics, false)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_permutes() {
        let a = Rng::new(7).permutation(30);
        assert_eq!(a, Rng::new(7).permutation(30));
        assert_ne!(a, Rng::new(8).permutation(30));
        let mut s = a.clone();
        s.sort_unstable();
        assert_eq!(s, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn e2e_reports_six_metrics_and_ok_ratio() {
        let mut t = Tally::default();
        t.record_n(tally::Unit::Ok, 3);
        t.record(tally::Unit::Refused(dls_service::ErrorCode::TooManyJobs));
        let mut units: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let m = e2e(&[1.0, 3.0, 2.0], 10.0, t, 5.0, &mut units);
        assert_eq!(units[0], 1.0, "sorted in place");
        let get = |n: &str| m.iter().find(|x| x.name == n).map(|x| x.value);
        assert_eq!(m.len(), 6);
        assert_eq!(get("setup_s"), Some(2.0));
        assert_eq!(get("ok_ratio"), Some(0.75));
        assert_eq!(get("p50_ms"), Some(50.0));
        assert_eq!(get("tail_ms"), Some(90.0), "100 samples: rank 90 has ten beyond");
    }
}
