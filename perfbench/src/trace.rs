//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps its own calls into each layer in spans: name,
//! start, end and the enclosing span. A layer's *self time* is its
//! span's duration minus the time its child spans cover. Spans stay in
//! memory and are summarised when the run ends. A disabled recorder
//! makes `open`/`close` a branch and nothing more, so the untraced run
//! pays no clock reads.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Handle of an open span; pass it back to [`Tracer::close`].
#[must_use]
#[derive(Debug)]
pub struct Open(Option<usize>);

/// One thread's span log.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn close(&mut self, open: Open) {
        let Some(idx) = open.0 else {
            return;
        };
        assert_eq!(
            self.stack.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Records a span with explicit bounds (ns since the origin).
    #[cfg(test)]
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Appends another thread's spans (indices re-based).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per-span-name durations and self times.
    pub fn profile(&self) -> Profile {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut by_name: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        let mut root_ns = 0u64;
        let mut attributed_ns = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let self_ns = dur.saturating_sub(child_ns[i]);
            let e = by_name.entry(s.name).or_default();
            e.durations_ns.push(dur);
            e.self_ns += self_ns;
            if s.parent.is_none() {
                root_ns += dur;
            } else {
                attributed_ns += self_ns;
            }
        }
        Profile {
            by_name,
            root_ns,
            attributed_ns,
        }
    }
}

#[derive(Debug, Default, Clone)]
pub struct NameStats {
    pub durations_ns: Vec<u64>,
    pub self_ns: u64,
}

/// Summary of a span log.
#[derive(Debug, Default)]
pub struct Profile {
    pub by_name: BTreeMap<&'static str, NameStats>,
    /// Total duration of root spans (the traced wall time, summed over
    /// threads).
    pub root_ns: u64,
    /// Self time of every non-root span.
    pub attributed_ns: u64,
}

impl Profile {
    /// Durations of one span name, scaled to the given unit (ns per unit).
    pub fn durations(&self, name: &str, ns_per_unit: f64) -> Vec<f64> {
        self.by_name.get(name).map_or_else(Vec::new, |s| {
            s.durations_ns
                .iter()
                .map(|&d| d as f64 / ns_per_unit)
                .collect()
        })
    }

    pub fn self_ns(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |s| s.self_ns)
    }

    #[cfg(test)]
    pub fn total_ns(&self, name: &str) -> u64 {
        self.by_name
            .get(name)
            .map_or(0, |s| s.durations_ns.iter().sum())
    }

    /// Share of the traced wall time that lands in some layer span's
    /// self time (the rest is the benchmark's own glue inside roots).
    pub fn coverage(&self) -> f64 {
        if self.root_ns == 0 {
            0.0
        } else {
            self.attributed_ns as f64 / self.root_ns as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children() {
        let mut t = Tracer::new(true, Instant::now());
        // root [0, 100) holds a [10, 40) and b [50, 90); b holds c [60, 70).
        let root = t.record("root", 0, 100, None);
        t.record("a", 10, 40, Some(root));
        let b = t.record("b", 50, 90, Some(root));
        t.record("c", 60, 70, Some(b));
        let p = t.profile();
        assert_eq!(p.self_ns("root"), 100 - 30 - 40);
        assert_eq!(p.self_ns("a"), 30);
        assert_eq!(p.self_ns("b"), 40 - 10);
        assert_eq!(p.self_ns("c"), 10);
        assert_eq!(p.root_ns, 100);
        // a + b-self + c = 70 of 100 ns attributed.
        assert!((p.coverage() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn live_spans_nest_and_merge_across_threads() {
        let origin = Instant::now();
        let mut t = Tracer::new(true, origin);
        let outer = t.open("outer");
        let inner = t.open("inner");
        t.close(inner);
        t.close(outer);
        let mut other = Tracer::new(true, origin);
        let o = other.open("outer");
        other.close(o);
        t.absorb(other);
        let p = t.profile();
        assert_eq!(p.durations("outer", 1.0).len(), 2);
        assert_eq!(p.durations("inner", 1.0).len(), 1);
        assert!(p.self_ns("outer") <= p.total_ns("outer"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let g = t.open("x");
        t.close(g);
        assert!(t.profile().by_name.is_empty());
        assert_eq!(t.profile().coverage(), 0.0);
    }
}
