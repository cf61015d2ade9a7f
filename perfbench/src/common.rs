//! Pieces every workload shares: arguments, the metric catalogue, the
//! result record, set-up timing, counters and host metadata.

use crate::stats::Summary;
use crate::trace::{Profile, Tracer};
use flames_obs::MetricsSnapshot;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Command-line settings, every one required. The serve ladder, nominal
/// rate and latency limit are fixed by the benchmark's command line in
/// `BENCHMARK.json`, not by the seed.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub ladder_rps: Vec<f64>,
    pub nominal_rps: f64,
    pub latency_limit_ms: f64,
}

/// Every end-to-end metric, with its unit. Each workload reports all of
/// them (README.md gives the per-workload meaning).
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("boards_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("probes_per_board", "count"),
    ("diagnosis_accuracy", "ratio"),
];

/// Every per-layer metric, with its unit. Timings appear as `.p50` and
/// `.tail`; a layer a workload does not exercise reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("circuit.compile_s.p50", "s"),
    ("circuit.compile_s.tail", "s"),
    ("engine.acquire_us.p50", "us"),
    ("engine.acquire_us.tail", "us"),
    ("engine.measure_us.p50", "us"),
    ("engine.measure_us.tail", "us"),
    ("engine.report_us.p50", "us"),
    ("engine.report_us.tail", "us"),
    ("propagation.lane_ms.p50", "ms"),
    ("propagation.lane_ms.tail", "ms"),
    ("propagation.apps_per_board", "count/board"),
    ("propagation.classifications_per_board", "count/board"),
    ("propagation.share", "ratio"),
    ("propagation.resume_ms.p50", "ms"),
    ("propagation.resume_ms.tail", "ms"),
    ("atms.nogood_proposals_per_board", "count/board"),
    ("atms.nogood_install_ratio", "ratio"),
    ("atms.env_intern_hit_ratio", "ratio"),
    ("atms.candidates_us.p50", "us"),
    ("atms.candidates_us.tail", "us"),
    ("strategy.recommend_us.p50", "us"),
    ("strategy.recommend_us.tail", "us"),
    ("strategy.recommends_per_board", "count/board"),
    ("rule_store.decide_us.p50", "us"),
    ("rule_store.decide_us.tail", "us"),
    ("rule_store.absorb_us.p50", "us"),
    ("rule_store.absorb_us.tail", "us"),
    ("rule_store.hit_ratio", "ratio"),
    ("rule_store.rules", "count"),
    ("serve.parse_us.p50", "us"),
    ("serve.parse_us.tail", "us"),
    ("serve.wave_ms.p50", "ms"),
    ("serve.wave_ms.tail", "ms"),
    ("serve.render_us.p50", "us"),
    ("serve.render_us.tail", "us"),
    ("serve.http_queue_ms.p50", "ms"),
    ("serve.http_queue_ms.tail", "ms"),
    ("serve.coalesced_share", "ratio"),
    ("serve.dedup_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.deadline_missed", "count"),
    ("shard.build_s.p50", "s"),
    ("shard.build_s.tail", "s"),
    ("shard.propagate_s.p50", "s"),
    ("shard.propagate_s.tail", "s"),
    ("shard.report_ms.p50", "ms"),
    ("shard.report_ms.tail", "ms"),
    ("shard.cross_nogoods_per_board", "count/board"),
    ("shard.boundary_envs_per_board", "count/board"),
    ("shard.waves_per_board", "count/board"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed window (boards, isolations or
    /// requests).
    pub attempted: u64,
    /// Failed operations: errors, non-200 responses and wrong outputs.
    pub failed: u64,
    /// Outputs found wrong by the correctness checks (part of `failed`).
    pub wrong: u64,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// Human-readable report lines (shares, tails, rung table).
    pub notes: Vec<String>,
    /// Workload-specific metadata: `(key, JSON value)`.
    pub meta: Vec<(String, String)>,
}

impl Outcome {
    /// Fills `e2e` from a name → value map, in catalogue order, and notes
    /// the peak resident set (printed, not a gated metric: it follows the
    /// heaviest board of the run and moves by a fifth between seeds).
    pub fn set_e2e(&mut self, values: &BTreeMap<&'static str, f64>) {
        self.note(format!("peak_rss_mb = {} MB", peak_rss_mb()));
        self.e2e = E2E_METRICS
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: *values
                    .get(name)
                    .unwrap_or_else(|| panic!("workload did not measure {name}")),
                unit,
            })
            .collect();
    }

    /// Fills `layers` in catalogue order; a metric the workload does not
    /// exercise reads 0.
    pub fn set_layers(&mut self, layers: Layers) {
        for name in layers.values.keys() {
            assert!(
                LAYER_METRICS.iter().any(|(n, _)| n == name),
                "{name} is not in the per-layer catalogue"
            );
        }
        self.layers = LAYER_METRICS
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: layers.values.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect();
        self.notes.extend(layers.notes);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn meta(&mut self, key: &str, json_value: impl Into<String>) {
        self.meta.push((key.to_owned(), json_value.into()));
    }
}

/// Per-layer values under construction, with their report lines.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<String, f64>,
    notes: Vec<String>,
}

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    /// Adds `<base>.p50` and `<base>.tail` for a timing distribution.
    pub fn timing(&mut self, base: &str, samples: &[f64]) {
        if let Some(s) = Summary::of(samples) {
            self.set(&format!("{base}.p50"), s.p50);
            self.set(&format!("{base}.tail"), s.tail);
            self.notes.push(format!("{base}: {}", s.describe("")));
        }
    }

    /// [`Layers::timing`] of every span called `span`, in units of
    /// `ns_per_unit` nanoseconds.
    pub fn span(&mut self, base: &str, profile: &Profile, span: &str, ns_per_unit: f64) {
        self.timing(base, &profile.durations(span, ns_per_unit));
    }
}

/// Runs a set-up `repeats` times and returns the last result with the
/// wall time of each attempt. Earlier results are dropped (servers shut
/// down, models freed) before the next attempt.
pub fn timed_setup<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut samples = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let start = Instant::now();
        let value = setup();
        samples.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    (last.expect("at least one set-up"), samples)
}

/// What one worker thread tallies over a timed window.
pub trait Tally: Default + Send {
    /// Adds another worker's tally into this one.
    fn merge(&mut self, other: Self);
}

/// A timed window: the merged tallies, the merged span log, and the
/// wall time until the last worker stopped.
#[derive(Debug)]
pub struct Window<T> {
    pub tally: T,
    pub tracer: Tracer,
    pub wall_s: f64,
}

/// Runs `step` on every worker state, one thread each, until `seconds`
/// have passed. Each call gets the next item index from `next`, which
/// carries over between windows so no item is served twice.
pub fn run_workers<S: Send, T: Tally>(
    states: &mut [S],
    next: &AtomicUsize,
    seconds: f64,
    traced: bool,
    step: impl Fn(&mut S, usize, &mut T, &mut Tracer) + Sync,
) -> Window<T> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let step = &step;
    let parts: Vec<(T, Tracer, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .map(|state| {
                scope.spawn(move || {
                    let mut tally = T::default();
                    let mut tracer = Tracer::new(traced, start);
                    while Instant::now() < deadline {
                        step(
                            state,
                            next.fetch_add(1, Ordering::Relaxed),
                            &mut tally,
                            &mut tracer,
                        );
                    }
                    (tally, tracer, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let mut window = Window {
        tally: T::default(),
        tracer: Tracer::new(traced, start),
        wall_s: 0.0,
    };
    for (tally, tracer, end) in parts {
        window.tally.merge(tally);
        window.tracer.absorb(tracer);
        window.wall_s = window.wall_s.max(end.duration_since(start).as_secs_f64());
    }
    window
}

/// `VmHWM` (peak resident set) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Available cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Worker threads of the in-process workloads: every core but one, which
/// is left to the operating system and whatever else shares the host so
/// that their noise lands off the measured threads.
pub fn workers() -> usize {
    nproc().saturating_sub(1).max(1)
}

/// Counter deltas over a window, as read from the obs registry.
#[derive(Debug)]
pub struct Counters(MetricsSnapshot);

impl Counters {
    pub fn since(before: &MetricsSnapshot) -> Self {
        Self(MetricsSnapshot::capture().delta_since(before))
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name) as f64
    }

    /// Puts the propagation and ATMS counter ratios of a board-diagnosis
    /// window into `layers`.
    pub fn put_engine_layers(&self, layers: &mut Layers, boards: f64) {
        let classifications = self.get("core.coincidence_corroborations")
            + self.get("core.coincidence_splits")
            + self.get("core.coincidence_partial_conflicts")
            + self.get("core.coincidence_total_conflicts");
        let installs = self.get("atms.nogood_installs");
        let proposals = installs + self.get("atms.nogood_subsumed");
        let hits = self.get("atms.env_intern_hits");
        let interns = hits + self.get("atms.env_intern_misses");
        layers.set(
            "propagation.classifications_per_board",
            classifications / boards,
        );
        layers.set("atms.nogood_proposals_per_board", proposals / boards);
        layers.set("atms.nogood_install_ratio", ratio(installs, proposals));
        layers.set("atms.env_intern_hit_ratio", ratio(hits, interns));
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The kind of defect a generated board carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Healthy,
    Soft,
    Hard,
    Double,
}

/// Counts of board classes, printed as shares.
#[derive(Debug, Default, Clone)]
pub struct Shares {
    counts: BTreeMap<&'static str, u64>,
    total: u64,
}

impl Shares {
    pub fn add(&mut self, label: &'static str) {
        *self.counts.entry(label).or_default() += 1;
        self.total += 1;
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &Shares) {
        for (label, n) in &other.counts {
            *self.counts.entry(label).or_default() += n;
        }
        self.total += other.total;
    }

    pub fn add_class(&mut self, class: Class) {
        self.add(match class {
            Class::Healthy => "healthy",
            Class::Soft => "soft",
            Class::Hard => "hard",
            Class::Double => "double",
        });
    }

    pub fn line(&self, what: &str, labels: &[&str]) -> String {
        let parts: Vec<String> = labels
            .iter()
            .map(|l| {
                let n = self.counts.get(l).copied().unwrap_or(0);
                format!("{l} {:.3}", ratio(n as f64, self.total as f64))
            })
            .collect();
        format!("{what} shares over {}: {}", self.total, parts.join(", "))
    }
}

pub const CLASS_LABELS: &[&str] = &["healthy", "soft", "hard", "double"];

/// Accuracy rule: a healthy board is right when it gets no candidate; a
/// faulty board is right when some injected culprit is a member of one
/// of the first three ranked candidates.
pub fn diagnosis_correct<'a>(
    healthy: bool,
    culprits: &[String],
    candidates: impl IntoIterator<Item = &'a [String]>,
) -> bool {
    let mut candidates = candidates.into_iter().peekable();
    if healthy {
        return candidates.peek().is_none();
    }
    candidates
        .take(3)
        .any(|members| members.iter().any(|m| culprits.contains(m)))
}

/// Formats a metric value as a JSON number (non-finite values, which
/// JSON cannot carry, read 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn json_string(s: &str) -> String {
    flames_obs::trace::escape_json(s)
}

/// The source revision: read from `.git` when the benchmark runs in a
/// git checkout, `"unknown"` otherwise.
fn git_revision() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_owned(),
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_owned())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split(' ').next())
                        .unwrap_or("unknown")
                        .to_owned()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

/// Host and build metadata recorded with every result.
pub fn metadata_json(args: &Args, outcome: &Outcome) -> String {
    let rustflags = env!("PERFBENCH_RUSTFLAGS");
    let force_scalar = std::env::var("FLAMES_FORCE_SCALAR").ok();
    let mut fields = vec![
        ("workload".to_owned(), json_string(&args.workload)),
        ("seed".to_owned(), args.seed.to_string()),
        ("seconds".to_owned(), json_number(args.seconds)),
        ("trace".to_owned(), args.trace.to_string()),
        ("nproc".to_owned(), nproc().to_string()),
        (
            "wide_enabled".to_owned(),
            flames_obs::wide_enabled().to_string(),
        ),
        (
            "FLAMES_FORCE_SCALAR".to_owned(),
            force_scalar
                .as_deref()
                .map_or_else(|| "null".into(), json_string),
        ),
        ("rustflags".to_owned(), json_string(rustflags)),
        (
            "target_cpu_native".to_owned(),
            rustflags.contains("target-cpu=native").to_string(),
        ),
        ("obs".to_owned(), flames_obs::enabled().to_string()),
        ("git_rev".to_owned(), json_string(&git_revision())),
    ];
    fields.extend(outcome.meta.iter().cloned());
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_rule() {
        let r2 = vec!["R2".to_owned()];
        let none: Vec<Vec<String>> = vec![];
        assert!(diagnosis_correct(true, &[], none.iter().map(Vec::as_slice)));
        let cands = [
            vec!["R1".to_owned()],
            vec!["T1".into()],
            vec!["R3".into()],
            vec!["R2".into()],
        ];
        assert!(!diagnosis_correct(
            true,
            &[],
            cands.iter().map(Vec::as_slice)
        ));
        // R2 ranks fourth: outside the top three.
        assert!(!diagnosis_correct(
            false,
            &r2,
            cands.iter().map(Vec::as_slice)
        ));
        assert!(diagnosis_correct(
            false,
            &r2,
            cands[1..].iter().map(Vec::as_slice)
        ));
    }

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<&str> = E2E_METRICS
            .iter()
            .chain(LAYER_METRICS)
            .map(|m| m.0)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
