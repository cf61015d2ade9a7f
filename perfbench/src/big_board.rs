//! `big_board`: the region-sharded engine on a hierarchical board.
//!
//! A `hierarchy` board (backbone power tree plus amplifier blocks) is
//! compiled into a `ShardedModel` on the boundary-sparse partition at
//! the shipped 4-shard setting. Each board carries a seeded soft-fault
//! pair (one backbone resistor, one block component) and is read at
//! seven probe points spread over the board, in the pattern the shard
//! scaling experiment uses. Warm `ShardedSession`s (one per worker
//! thread) serve the boards one after another: reset, measure,
//! propagate, merged report. This is the only workload for
//! `core::shard` / `atms::shard`.

use crate::common::{
    diagnosis_correct, ratio, run_workers, workers, Args, Counters, Layers, Outcome, Tally, Window,
};
use crate::rng::SplitMix64;
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use flames_circuit::circuits::{hierarchy, Hierarchy, HierarchySpec};
use flames_circuit::constraint::{extract, ExtractOptions};
use flames_circuit::fault::inject_faults;
use flames_circuit::{CompId, Fault};
use flames_core::propagation::PropagatorConfig;
use flames_core::{ShardReport, ShardedModel, ShardedSession};
use flames_fuzzy::FuzzyInterval;
use flames_obs::MetricsSnapshot;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicUsize;
use std::time::Instant;

/// The board: 8 backbone taps, 2-section blocks (73 components). The
/// 5,185-component `HierarchySpec::large` board takes 20–46 s to build
/// and seconds per board, too slow for a benchmark run that repeats its
/// set-up; this one keeps every shard code path at a run-sized cost.
pub const SPEC: HierarchySpec = HierarchySpec {
    backbone_sections: 8,
    block_sections: 2,
    tolerance: 0.01,
    seed: 7,
};
const SHARDS: usize = 4;
const IMPRECISION: f64 = 0.02;
const STREAM: usize = 512;
const SETUP_REPEATS: usize = 5;
const PREGATE_BOARDS: usize = 2;
const CHECK_EVERY: usize = 8;

fn config() -> PropagatorConfig {
    PropagatorConfig {
        max_steps: 5_000_000,
        ..PropagatorConfig::default()
    }
}

/// Seven probe points: early, mid and late backbone taps plus two block
/// outputs.
fn probes(h: &Hierarchy) -> Vec<usize> {
    let b = h.spec.backbone_sections;
    vec![0, 1, b / 2 - 1, b / 2 + 1, b - 1, b + 2, b + b / 2 + 1]
}

struct BigBoard {
    readings: Vec<FuzzyInterval>,
    culprits: Vec<String>,
}

fn make_board(h: &Hierarchy, seed: u64, index: usize) -> BigBoard {
    // Sites rotate through every backbone resistor and every block in the
    // same order for every seed (a run serves only a few dozen boards, so
    // seeded sites would make runs differ in what they diagnose); the
    // drift factors are drawn per board.
    let mut rng = SplitMix64::for_item(seed ^ 0xB16_B0A2D, index as u64);
    let b = h.spec.backbone_sections;
    let site = index;
    let backbone: CompId = if site.is_multiple_of(2) {
        h.backbone_series[(site / 2) % b]
    } else {
        h.backbone_shunt[(site / 2) % b]
    };
    let block = &h.blocks[(site * 3 + 1) % b];
    let inner = block[(site / b) % block.len()];
    let soft = |rng: &mut SplitMix64| {
        if rng.below(2) == 0 {
            rng.range(0.75, 0.9)
        } else {
            rng.range(1.1, 1.3)
        }
    };
    let faults = [
        (backbone, Fault::ParamFactor(soft(&mut rng))),
        (inner, Fault::ParamFactor(soft(&mut rng))),
    ];
    let netlist = inject_faults(&h.netlist, &faults).expect("soft faults inject");
    BigBoard {
        readings: h.readings(&netlist, IMPRECISION).expect("replica solves"),
        culprits: faults
            .iter()
            .map(|(id, _)| h.netlist.component(*id).name().to_owned())
            .collect(),
    }
}

/// Compile-once half, timed in two parts: model extraction plus
/// compositional predictions (`circuit`), then the sharded build.
fn build(h: &Hierarchy) -> (ShardedModel, f64, f64) {
    let t = Instant::now();
    let network = extract(&h.netlist, ExtractOptions::default());
    let predictions = h.predictions().expect("replica solves");
    let compile_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (regions, count) = h.sparse_regions();
    let model = ShardedModel::new(
        h.netlist.clone(),
        network,
        h.test_points.clone(),
        predictions,
        &regions,
        count,
        SHARDS,
        config(),
    );
    (model, compile_s, t.elapsed().as_secs_f64())
}

fn serve_board(
    session: &mut ShardedSession<'_>,
    probes: &[usize],
    board: &BigBoard,
    tr: &mut Tracer,
) -> ShardReport {
    let g = tr.open("shard.reset");
    session.reset();
    tr.close(g);
    let g = tr.open("engine.measure");
    for &i in probes {
        session
            .measure_point(i, board.readings[i])
            .expect("probe point exists");
    }
    tr.close(g);
    let g = tr.open("shard.propagate");
    session.propagate();
    tr.close(g);
    let g = tr.open("shard.report");
    let report = session.report();
    tr.close(g);
    report
}

/// What a big-board window measured.
#[derive(Debug, Default)]
struct BoardTally {
    latency_ms: Vec<f64>,
    boards: u64,
    correct: u64,
    /// Sampled reports, re-checked against a warm re-serve afterwards.
    sampled: Vec<(usize, String)>,
}

impl Tally for BoardTally {
    fn merge(&mut self, other: Self) {
        self.latency_ms.extend(other.latency_ms);
        self.boards += other.boards;
        self.correct += other.correct;
        self.sampled.extend(other.sampled);
    }
}

/// Serves boards on every session until `seconds` have passed.
fn run_window(
    sessions: &mut [ShardedSession<'_>],
    probes: &[usize],
    stream: &[BigBoard],
    next: &AtomicUsize,
    seconds: f64,
    traced: bool,
) -> Window<BoardTally> {
    run_workers(
        sessions,
        next,
        seconds,
        traced,
        |session, i, w: &mut BoardTally, tr| {
            let board = &stream[i % stream.len()];
            let root = tr.open("big_board.board");
            let t0 = Instant::now();
            let report = serve_board(session, probes, board, tr);
            w.latency_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            tr.close(root);
            w.boards += 1;
            w.correct += u64::from(diagnosis_correct(
                false,
                &board.culprits,
                report.candidates.iter().map(|c| c.members.as_slice()),
            ));
            if i.is_multiple_of(CHECK_EVERY) {
                w.sampled.push((i, format!("{report:?}")));
            }
        },
    )
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let h = hierarchy(SPEC);
    let probes = probes(&h);
    let stream: Vec<BigBoard> = (0..STREAM).map(|i| make_board(&h, args.seed, i)).collect();
    out.meta("components", h.netlist.components().count().to_string());
    out.meta("shards", SHARDS.to_string());
    let threads = workers();
    out.meta("threads", threads.to_string());

    // Set-up: extraction, predictions, sharded build, warm session.
    let (mut compile_s, mut build_s, mut setup_samples) = (Vec::new(), Vec::new(), Vec::new());
    let mut model = None;
    for _ in 0..SETUP_REPEATS {
        drop(model.take());
        let t = Instant::now();
        let (m, c, b) = build(&h);
        {
            let mut session = m.session();
            session.reset();
        }
        setup_samples.push(t.elapsed().as_secs_f64());
        compile_s.push(c);
        build_s.push(b);
        model = Some(m);
    }
    let model = model.expect("built");
    let mut sessions: Vec<ShardedSession<'_>> = (0..threads)
        .map(|_| {
            let mut session = model.session();
            session.reset();
            session
        })
        .collect();

    // Pre-gate: a merged report must equal a warm re-serve of the board.
    let mut off = Tracer::new(false, Instant::now());
    for (i, board) in stream[..PREGATE_BOARDS].iter().enumerate() {
        let first = format!(
            "{:?}",
            serve_board(&mut sessions[0], &probes, board, &mut off)
        );
        let again = format!(
            "{:?}",
            serve_board(&mut sessions[0], &probes, board, &mut off)
        );
        if first != again {
            return Err(format!("pre-gate: warm re-serve of board {i} differs"));
        }
    }

    let next = AtomicUsize::new(0);
    let (window, traced) = if args.trace {
        let untraced = run_window(
            &mut sessions,
            &probes,
            &stream,
            &next,
            args.seconds * 0.3,
            false,
        );
        let before = MetricsSnapshot::capture();
        let traced = run_window(
            &mut sessions,
            &probes,
            &stream,
            &next,
            args.seconds * 0.7,
            true,
        );
        let counters = Counters::since(&before);
        let rate = |w: &Window<BoardTally>| w.tally.boards as f64 / w.wall_s;
        let overhead = rate(&untraced) / rate(&traced) - 1.0;
        (traced, Some((overhead, counters)))
    } else {
        let window = run_window(&mut sessions, &probes, &stream, &next, args.seconds, false);
        (window, None)
    };
    let w = &window.tally;

    // Post-check: sampled boards re-served on a warm session.
    let wrong = w
        .sampled
        .iter()
        .filter(|(i, got)| {
            *got != format!(
                "{:?}",
                serve_board(&mut sessions[0], &probes, &stream[i % STREAM], &mut off)
            )
        })
        .count() as u64;
    out.attempted = w.boards;
    out.wrong = wrong;
    out.failed = wrong;
    out.note(format!(
        "board shares over {}: healthy 0.000, soft 0.000, hard 0.000, double 1.000",
        w.boards
    ));
    out.note(format!(
        "checked {} sampled boards against a warm re-serve: {wrong} wrong",
        w.sampled.len()
    ));
    let lat = Summary::of(&w.latency_ms).ok_or("no board completed")?;
    out.note(format!("latency per board: {}", lat.describe("ms")));
    out.note(format!("set-up samples (s): {setup_samples:?}"));

    let boards = w.boards as f64;
    let mut e2e = BTreeMap::new();
    e2e.insert("setup_s", median(&setup_samples));
    e2e.insert("boards_per_s", boards / window.wall_s);
    e2e.insert("latency_p50_ms", lat.p50);
    e2e.insert("latency_tail_ms", lat.tail);
    e2e.insert("probes_per_board", probes.len() as f64);
    e2e.insert("diagnosis_accuracy", ratio(w.correct as f64, boards));
    out.set_e2e(&e2e);

    if let Some((overhead, counters)) = traced {
        let profile = window.tracer.profile();
        let mut layers = Layers::default();
        counters.put_engine_layers(&mut layers, boards);
        layers.timing("circuit.compile_s", &compile_s);
        layers.timing("shard.build_s", &build_s);
        layers.span("engine.acquire_us", &profile, "shard.reset", 1e3);
        layers.span("engine.measure_us", &profile, "engine.measure", 1e3);
        layers.span("shard.propagate_s", &profile, "shard.propagate", 1e9);
        layers.span("shard.report_ms", &profile, "shard.report", 1e6);
        layers.set(
            "propagation.apps_per_board",
            counters.get("core.constraint_apps") / boards,
        );
        layers.set(
            "propagation.share",
            ratio(
                profile.self_ns("shard.propagate") as f64,
                profile.root_ns as f64,
            ),
        );
        layers.set(
            "shard.cross_nogoods_per_board",
            counters.get("shard.cross_nogoods") / boards,
        );
        layers.set(
            "shard.boundary_envs_per_board",
            counters.get("shard.boundary_envs") / boards,
        );
        layers.set(
            "shard.waves_per_board",
            counters.get("shard.waves") / boards,
        );
        layers.set("trace.coverage", profile.coverage());
        layers.set("trace.overhead", overhead);
        out.set_layers(layers);
    }
    Ok(out)
}
