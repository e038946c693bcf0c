//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start, an end and the span that caused it. A
//! span's self time is its duration minus the part of it that its
//! children cover. Spans stay in memory until the run ends.

use std::time::Instant;

/// One recorded span, in nanoseconds since the recorder's origin.
#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
}

/// In-memory span store.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans { origin: Instant::now(), spans: Vec::new() }
    }

    /// Nanoseconds since the origin; pass to [`Spans::record`].
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span and return its id, for children.
    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span { name, start, end, parent });
        self.spans.len() - 1
    }

    /// Reserve a parent span before its children are known; close it
    /// with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, start: u64, parent: Option<usize>) -> usize {
        self.record(name, start, start, parent)
    }

    pub fn close(&mut self, id: usize, end: u64) {
        self.spans[id].end = end;
    }

    /// Total duration of every span called `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end - s.start).sum()
    }

    /// Summed self time of every span called `name`: its duration minus
    /// the union of its children's intervals, clipped to the span.
    pub fn self_time(&self, name: &str) -> u64 {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                let covered = covered(&mut children[i], s.start, s.end);
                (s.end - s.start) - covered
            })
            .sum()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut sp = Spans::new();
        let root = sp.record("rtt", 0, 100, None);
        sp.record("encode", 0, 10, Some(root));
        sp.record("write", 10, 30, Some(root));
        sp.record("decode", 90, 100, Some(root));
        assert_eq!(sp.self_time("rtt"), 60);
        assert_eq!(sp.self_time("write"), 20, "a leaf's self time is its duration");
        assert_eq!(sp.total("rtt"), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let mut sp = Spans::new();
        let root = sp.record("sweep", 100, 200, None);
        sp.record("cell", 90, 130, Some(root)); // starts before the parent
        sp.record("cell", 120, 150, Some(root)); // overlaps its sibling
        sp.record("cell", 190, 260, Some(root)); // ends after the parent
                                                 // Covered inside [100, 200): [100, 150) and [190, 200) = 60.
        assert_eq!(sp.self_time("sweep"), 40);
        assert_eq!(sp.total("cell"), 40 + 30 + 70);
    }

    #[test]
    fn open_close_parent() {
        let mut sp = Spans::new();
        let root = sp.open("job", 5, None);
        sp.record("create", 5, 7, Some(root));
        sp.close(root, 25);
        assert_eq!(sp.self_time("job"), 18);
    }
}
