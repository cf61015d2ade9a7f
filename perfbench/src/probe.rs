//! `probe`: the paper's §8 guided-probing loop on a 16-stage cascade.
//!
//! Each board starts from one reading (the last stage output), then
//! `strategy::probe_until_isolated` (fuzzy entropy, λ = 0) picks, reads
//! and propagates one point at a time on a pooled session until one
//! component stands out or every point is read. This is the only
//! workload where a quiescent session resumes propagation after a single
//! new reading on the solo scalar path, and where `recommend` and the
//! incremental candidates run on every step. No lanes, serve or cache.

use crate::common::{
    diagnosis_correct, ratio, run_workers, timed_setup, workers, Args, Class, Counters, Layers,
    Outcome, Shares, Tally, Window, CLASS_LABELS,
};
use crate::rng::SplitMix64;
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use flames_circuit::circuits::{cascade, Cascade};
use flames_circuit::fault::inject_faults;
use flames_circuit::predict::measure_all;
use flames_circuit::{CompId, Fault};
use flames_core::strategy::{
    probe_until_isolated, recommend_with_memo, Policy, ProbeRun, CANDIDATE_BUDGET,
};
use flames_core::{Candidate, Diagnoser, DiagnoserConfig, Session, SessionPool};
use flames_fuzzy::entropy::EntropyMemo;
use flames_fuzzy::FuzzyInterval;
use flames_obs::MetricsSnapshot;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicUsize;
use std::time::Instant;

const STAGES: usize = 16;
const GAIN: f64 = 1.2;
const TOLERANCE: f64 = 0.03;
const IMPRECISION: f64 = 0.01;
/// The reading every board starts from: the last stage output.
const FIRST_POINT: usize = STAGES - 1;
const STREAM: usize = 4096;
const SETUP_REPEATS: usize = 51;
const PREGATE_BOARDS: usize = 8;
const CHECK_EVERY: usize = 16;
/// Sessions pre-opened per pool.
const POOL_WARM: usize = 2;

/// An eighth healthy, half soft, an eighth dead stages, a quarter
/// double drifts — shuffled per block of eight by the seed.
const PATTERN: [Class; 8] = [
    Class::Healthy,
    Class::Soft,
    Class::Soft,
    Class::Soft,
    Class::Soft,
    Class::Hard,
    Class::Double,
    Class::Double,
];

struct ProbeBoard {
    readings: Vec<FuzzyInterval>,
    class: Class,
    culprits: Vec<String>,
}

fn make_board(c: &Cascade, seed: u64, index: usize) -> ProbeBoard {
    let mut pattern = PATTERN;
    SplitMix64::for_item(seed ^ 0x009B_0BE5, (index / PATTERN.len()) as u64).shuffle(&mut pattern);
    let class = pattern[index % PATTERN.len()];
    // The (first) faulty stage rotates through the cascade from a seeded
    // offset, so every run probes the same spread of positions.
    let mut rng = SplitMix64::for_item(seed ^ 0x0CA5_CADE, index as u64);
    let a = (index + SplitMix64::new(seed).below(1 << 16)) % STAGES;
    let faults: Vec<(CompId, Fault)> = match class {
        Class::Healthy => Vec::new(),
        Class::Soft => vec![(c.amps[a], Fault::ParamFactor(rng.drift()))],
        Class::Hard => vec![(c.amps[a], Fault::Open)],
        Class::Double => {
            let b = (a + 1 + rng.below(STAGES - 1)) % STAGES;
            vec![
                (c.amps[a], Fault::ParamFactor(rng.drift())),
                (c.amps[b], Fault::ParamFactor(rng.drift())),
            ]
        }
    };
    let netlist = if faults.is_empty() {
        c.netlist.clone()
    } else {
        inject_faults(&c.netlist, &faults).expect("cascade faults inject")
    };
    ProbeBoard {
        readings: measure_all(&netlist, &c.stages, IMPRECISION).expect("cascade solves"),
        class,
        culprits: faults
            .iter()
            .map(|(id, _)| c.netlist.component(*id).name().to_owned())
            .collect(),
    }
}

fn compile(c: &Cascade) -> Diagnoser {
    Diagnoser::from_netlist(
        &c.netlist,
        c.test_points.clone(),
        DiagnoserConfig::default(),
    )
    .expect("the cascade compiles")
}

fn isolated_in(cands: &[Candidate]) -> bool {
    match cands {
        [] => false,
        [only] => only.members.len() == 1,
        [first, second, ..] => first.members.len() == 1 && first.degree > second.degree + 1e-9,
    }
}

fn candidates(session: &Session<'_>) -> Vec<Candidate> {
    session.candidates(CANDIDATE_BUDGET.max_size, CANDIDATE_BUDGET.max_count)
}

/// Reads the first point and propagates: the state every run starts in.
fn first_reading(session: &mut Session<'_>, board: &ProbeBoard, tr: &mut Tracer) {
    let g = tr.open("engine.measure");
    session
        .measure_point(FIRST_POINT, board.readings[FIRST_POINT])
        .expect("first point exists");
    tr.close(g);
    let g = tr.open("propagation.resume");
    session.propagate();
    tr.close(g);
}

/// `probe_until_isolated` spelled out call by call so each layer can be
/// wrapped in a span; the pre-gate holds it equal to the library loop.
fn traced_loop(session: &mut Session<'_>, board: &ProbeBoard, tr: &mut Tracer) -> (ProbeRun, u64) {
    let mut memo = EntropyMemo::new();
    let mut probes = Vec::new();
    let mut cost = 0.0;
    let mut recommends = 0;
    loop {
        let g = tr.open("strategy.recommend");
        let choices = recommend_with_memo(session, Policy::FuzzyEntropy, 0.0, 1, &mut memo);
        tr.close(g);
        recommends += 1;
        let Some(choice) = choices.first() else {
            break;
        };
        let g = tr.open("engine.measure");
        session
            .measure_point(choice.point, board.readings[choice.point])
            .expect("recommended point exists");
        tr.close(g);
        let g = tr.open("propagation.resume");
        session.propagate();
        tr.close(g);
        probes.push(choice.name.clone());
        cost += choice.cost;
        let g = tr.open("atms.candidates");
        let done = isolated_in(&candidates(session));
        tr.close(g);
        if done {
            break;
        }
    }
    let g = tr.open("atms.candidates");
    let cands = candidates(session);
    tr.close(g);
    let run = ProbeRun {
        probes,
        cost,
        top_candidate: cands.first().map(|c| c.members.clone()).unwrap_or_default(),
        isolated: isolated_in(&cands),
    };
    (run, recommends)
}

fn library_loop(session: &mut Session<'_>, board: &ProbeBoard) -> ProbeRun {
    probe_until_isolated(session, Policy::FuzzyEntropy, 0.0, &|k| board.readings[k])
        .expect("probe loop runs")
}

/// One isolation on a pooled session: the run, whether the diagnosis is
/// right, and the planner calls it made.
fn isolate(
    pool: &mut SessionPool<'_>,
    board: &ProbeBoard,
    tr: &mut Tracer,
) -> (ProbeRun, bool, u64) {
    let g = tr.open("engine.acquire");
    let mut session = pool.acquire();
    tr.close(g);
    first_reading(&mut session, board, tr);
    let (run, recommends) = if tr.enabled() {
        traced_loop(&mut session, board, tr)
    } else {
        (library_loop(&mut session, board), 0)
    };
    let correct = diagnosis_correct(
        board.class == Class::Healthy,
        &board.culprits,
        candidates(&session).iter().map(|c| c.members.as_slice()),
    );
    pool.release(session);
    (run, correct, recommends)
}

/// What a probe window measured.
#[derive(Debug, Default)]
struct ProbeTally {
    latency_ms: Vec<f64>,
    boards: u64,
    correct: u64,
    probes: u64,
    recommends: u64,
    shares: Shares,
    /// Sampled runs, re-checked against fresh sessions afterwards.
    sampled: Vec<(usize, ProbeRun)>,
}

impl Tally for ProbeTally {
    fn merge(&mut self, other: Self) {
        self.latency_ms.extend(other.latency_ms);
        self.boards += other.boards;
        self.correct += other.correct;
        self.probes += other.probes;
        self.recommends += other.recommends;
        self.shares.merge(&other.shares);
        self.sampled.extend(other.sampled);
    }
}

/// Isolates boards on every pool until `seconds` have passed.
fn run_window(
    stream: &[ProbeBoard],
    pools: &mut [SessionPool<'_>],
    next: &AtomicUsize,
    seconds: f64,
    traced: bool,
) -> Window<ProbeTally> {
    run_workers(
        pools,
        next,
        seconds,
        traced,
        |pool, i, w: &mut ProbeTally, tr| {
            let board = &stream[i % stream.len()];
            let root = tr.open("probe.isolation");
            let t0 = Instant::now();
            let (run, correct, recommends) = isolate(pool, board, tr);
            w.latency_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            tr.close(root);
            w.boards += 1;
            w.correct += u64::from(correct);
            w.probes += 1 + run.probes.len() as u64;
            w.recommends += recommends;
            w.shares.add_class(board.class);
            if i.is_multiple_of(CHECK_EVERY) {
                w.sampled.push((i, run));
            }
        },
    )
}

/// A reference run of one board on a fresh session.
fn fresh_run(diagnoser: &Diagnoser, board: &ProbeBoard) -> ProbeRun {
    let mut session = diagnoser.session();
    first_reading(&mut session, board, &mut Tracer::new(false, Instant::now()));
    library_loop(&mut session, board)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let c = cascade(STAGES, GAIN, TOLERANCE);
    let stream: Vec<ProbeBoard> = (0..STREAM).map(|i| make_board(&c, args.seed, i)).collect();

    // Pre-gate: the spelled-out traced loop must equal the library loop.
    {
        let diagnoser = compile(&c);
        let mut tr = Tracer::new(true, Instant::now());
        for (i, board) in stream[..PREGATE_BOARDS].iter().enumerate() {
            let mut session = diagnoser.session();
            first_reading(&mut session, board, &mut tr);
            let (traced, _) = traced_loop(&mut session, board, &mut tr);
            if traced != fresh_run(&diagnoser, board) {
                return Err(format!("pre-gate: traced probe loop diverged on board {i}"));
            }
        }
    }

    let threads = workers();
    let (diagnoser, compile_s) = timed_setup(SETUP_REPEATS, || compile(&c));
    let mut pools = Vec::new();
    let mut setup_samples = Vec::new();
    for compile in &compile_s {
        let t = Instant::now();
        pools = (0..threads)
            .map(|_| {
                let mut pool = SessionPool::new(&diagnoser);
                pool.warm(POOL_WARM);
                pool
            })
            .collect();
        setup_samples.push(compile + t.elapsed().as_secs_f64());
    }
    out.meta("threads", threads.to_string());

    let next = AtomicUsize::new(0);
    let (window, traced) = if args.trace {
        let untraced = run_window(&stream, &mut pools, &next, args.seconds * 0.3, false);
        let before = MetricsSnapshot::capture();
        let traced = run_window(&stream, &mut pools, &next, args.seconds * 0.7, true);
        let counters = Counters::since(&before);
        let rate = |w: &Window<ProbeTally>| w.tally.boards as f64 / w.wall_s;
        let overhead = rate(&untraced) / rate(&traced) - 1.0;
        (traced, Some((overhead, counters)))
    } else {
        (
            run_window(&stream, &mut pools, &next, args.seconds, false),
            None,
        )
    };
    let w = &window.tally;

    let wrong = w
        .sampled
        .iter()
        .filter(|(i, got)| *got != fresh_run(&diagnoser, &stream[i % STREAM]))
        .count() as u64;
    out.attempted = w.boards;
    out.wrong = wrong;
    out.failed = wrong;
    out.note(w.shares.line("board", CLASS_LABELS));
    out.note(format!(
        "checked {} sampled runs against fresh sessions: {wrong} wrong",
        w.sampled.len()
    ));
    let lat = Summary::of(&w.latency_ms).ok_or("no isolation completed")?;
    let boards = w.boards as f64;
    let isolations_per_s = boards / window.wall_s;
    out.note(format!("isolations_per_s = {isolations_per_s} 1/s"));
    out.note(format!("latency per isolation: {}", lat.describe("ms")));

    let mut e2e = BTreeMap::new();
    e2e.insert("setup_s", median(&setup_samples));
    e2e.insert("boards_per_s", isolations_per_s);
    e2e.insert("latency_p50_ms", lat.p50);
    e2e.insert("latency_tail_ms", lat.tail);
    e2e.insert("probes_per_board", w.probes as f64 / boards);
    e2e.insert("diagnosis_accuracy", ratio(w.correct as f64, boards));
    out.set_e2e(&e2e);

    if let Some((overhead, counters)) = traced {
        let profile = window.tracer.profile();
        let mut layers = Layers::default();
        counters.put_engine_layers(&mut layers, boards);
        layers.timing("circuit.compile_s", &compile_s);
        layers.span("engine.acquire_us", &profile, "engine.acquire", 1e3);
        layers.span("engine.measure_us", &profile, "engine.measure", 1e3);
        layers.span("propagation.resume_ms", &profile, "propagation.resume", 1e6);
        layers.span("atms.candidates_us", &profile, "atms.candidates", 1e3);
        layers.span("strategy.recommend_us", &profile, "strategy.recommend", 1e3);
        layers.set(
            "strategy.recommends_per_board",
            w.recommends as f64 / boards,
        );
        layers.set(
            "propagation.apps_per_board",
            counters.get("core.constraint_apps") / boards,
        );
        layers.set(
            "propagation.share",
            ratio(
                profile.self_ns("propagation.resume") as f64,
                profile.root_ns as f64,
            ),
        );
        layers.set("trace.coverage", profile.coverage());
        layers.set("trace.overhead", overhead);
        out.set_layers(layers);
    }
    Ok(out)
}
