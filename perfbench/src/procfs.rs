//! Process and thread counters read from `/proc/self`: resident memory
//! and each thread's scheduler statistics.

use std::fs;

/// Current resident set size (`VmRSS`) in MiB.
pub fn rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One thread's `schedstat`: nanoseconds on the CPU and nanoseconds
/// waiting on a run queue.
#[derive(Clone, Debug)]
pub struct ThreadStat {
    pub tid: u64,
    pub name: String,
    pub cpu_ns: u64,
    pub wait_ns: u64,
}

/// Every live thread of this process.
pub fn threads() -> Vec<ThreadStat> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else { return Vec::new() };
    let mut out: Vec<ThreadStat> = dir
        .filter_map(|e| {
            let path = e.ok()?.path();
            let tid = path.file_name()?.to_str()?.parse().ok()?;
            let name = fs::read_to_string(path.join("comm")).ok()?.trim().to_string();
            let sched = fs::read_to_string(path.join("schedstat")).ok()?;
            let mut f = sched.split_whitespace().map(|v| v.parse::<u64>().unwrap_or(0));
            Some(ThreadStat { tid, name, cpu_ns: f.next()?, wait_ns: f.next()? })
        })
        .collect();
    out.sort_by_key(|t| t.tid);
    out
}

/// CPU nanoseconds of the named thread. A new thread names itself once
/// it runs, so this waits up to a second for the name to appear.
pub fn thread_cpu_ns(name: &str) -> Option<u64> {
    for _ in 0..1000 {
        if let Some(t) = threads().into_iter().find(|t| t.name == name) {
            return Some(t.cpu_ns);
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    None
}

/// Run-queue wait summed over `after`'s threads, minus what the same
/// threads had waited in `before` (threads new in `after` count whole).
pub fn runqueue_wait_ns(before: &[ThreadStat], after: &[ThreadStat]) -> u64 {
    after
        .iter()
        .map(|a| {
            let base = before.iter().find(|b| b.tid == a.tid).map_or(0, |b| b.wait_ns);
            a.wait_ns.saturating_sub(base)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_threads_and_memory() {
        assert!(rss_mb() > 0.0);
        let ts = threads();
        assert!(!ts.is_empty());
        let h = std::thread::Builder::new()
            .name("probe-thread".into())
            .spawn(|| {
                let t0 = std::time::Instant::now();
                while t0.elapsed().as_millis() < 5 {
                    std::hint::spin_loop();
                }
                thread_cpu_ns("probe-thread")
            })
            .expect("spawn probe thread");
        let cpu = h.join().expect("probe thread");
        assert!(cpu.is_some_and(|ns| ns > 0));
    }

    #[test]
    fn runqueue_wait_is_a_delta() {
        let t = |tid, wait_ns| ThreadStat { tid, name: String::new(), cpu_ns: 0, wait_ns };
        assert_eq!(runqueue_wait_ns(&[t(1, 10)], &[t(1, 25), t(2, 7)]), 22);
    }
}
