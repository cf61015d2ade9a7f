//! `fleet`: unique three-stage boards, all three points measured,
//! diagnosed in lanes of pooled sessions, one pool per worker thread.
//!
//! Execution per lane: `SessionPool::acquire` + `Session::measure_point`
//! per board, one `Session::propagate_lane`, then `Session::report` and
//! `SessionPool::release` per board. No rule store, no planning, and no
//! board repeats, so dedup or rule-cache changes must show no gain here.

use crate::common::{
    diagnosis_correct, ratio, run_workers, timed_setup, workers, Class, Counters, Layers, Outcome,
    Shares, Tally, Window, CLASS_LABELS,
};
use crate::rng::SplitMix64;
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use flames_circuit::circuits::{three_stage, ThreeStage};
use flames_circuit::fault::inject_faults;
use flames_circuit::predict::measure_all;
use flames_circuit::{CompId, Fault, Netlist};
use flames_core::{Board, Diagnoser, DiagnoserConfig, Report, Session, SessionPool};
use flames_obs::MetricsSnapshot;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Boards per `propagate_lane` call.
pub const LANE: usize = 8;
/// Boards generated per run; a run that diagnoses more wraps around.
const STREAM: usize = 8192;
/// Instrument imprecision of a simulated reading (volts).
pub const IMPRECISION: f64 = 0.02;
/// Component tolerance of the three-stage amplifier.
pub const TOLERANCE: f64 = 0.05;
const SETUP_REPEATS: usize = 31;
const PREGATE_BOARDS: usize = 16;
/// Every this-many boards of the timed window are re-diagnosed on a fresh
/// session after the window and compared.
const CHECK_EVERY: usize = 16;

/// A generated board with its ground truth.
#[derive(Debug, Clone)]
pub struct GenBoard {
    pub board: Board,
    pub class: Class,
    pub culprits: Vec<String>,
}

/// Class of each board in a block of eight, shuffled per block by the
/// seed: a quarter healthy, three eighths soft drifts, a quarter
/// open/short, an eighth double drifts.
const PATTERN: [Class; 8] = [
    Class::Healthy,
    Class::Healthy,
    Class::Soft,
    Class::Soft,
    Class::Soft,
    Class::Hard,
    Class::Hard,
    Class::Double,
];

/// The class of board `index` of a seeded stream.
pub fn class_of(seed: u64, index: usize) -> Class {
    let mut pattern = PATTERN;
    SplitMix64::for_item(seed ^ 0x0C1A_55E5, (index / PATTERN.len()) as u64).shuffle(&mut pattern);
    pattern[index % PATTERN.len()]
}

fn resistors(ts: &ThreeStage) -> [CompId; 6] {
    [ts.r1, ts.r2, ts.r3, ts.r4, ts.r5, ts.r6]
}

fn components(ts: &ThreeStage) -> [CompId; 9] {
    [
        ts.r1, ts.r2, ts.r3, ts.r4, ts.r5, ts.r6, ts.t1, ts.t2, ts.t3,
    ]
}

fn name(netlist: &Netlist, id: CompId) -> String {
    netlist.component(id).name().to_owned()
}

/// All test points of a (possibly faulted) netlist, read through the
/// instrument imprecision.
pub fn read_all(ts: &ThreeStage, netlist: &Netlist) -> Option<Board> {
    let nets: Vec<_> = ts.test_points.iter().map(|tp| tp.net).collect();
    let values = measure_all(netlist, &nets, IMPRECISION).ok()?;
    Some(values.into_iter().enumerate().collect())
}

/// Board `index` of the seeded stream with the given class. The first
/// fault site rotates through the components from a seeded offset, so
/// every run sees the same spread of sites; factors, open/short and the
/// second site are drawn. A draw whose faulted circuit does not solve is
/// redrawn, so every board is valid.
pub fn three_stage_board(ts: &ThreeStage, seed: u64, index: usize, class: Class) -> GenBoard {
    let mut rng = SplitMix64::for_item(seed, index as u64);
    let site = index + SplitMix64::new(seed).below(1 << 16);
    let mut first_try = true;
    loop {
        let mut pick = |rng: &mut SplitMix64, n: usize| {
            if std::mem::take(&mut first_try) {
                site % n
            } else {
                rng.below(n)
            }
        };
        let faults: Vec<(CompId, Fault)> = match class {
            Class::Healthy => Vec::new(),
            Class::Soft => {
                let all = components(ts);
                vec![(
                    all[pick(&mut rng, all.len())],
                    Fault::ParamFactor(rng.drift()),
                )]
            }
            Class::Hard => {
                let rs = resistors(ts);
                let fault = if rng.below(2) == 0 {
                    Fault::Open
                } else {
                    Fault::Short
                };
                vec![(rs[pick(&mut rng, rs.len())], fault)]
            }
            Class::Double => {
                let all = components(ts);
                let a = pick(&mut rng, all.len());
                let b = (a + 1 + rng.below(all.len() - 1)) % all.len();
                vec![
                    (all[a], Fault::ParamFactor(rng.drift())),
                    (all[b], Fault::ParamFactor(rng.drift())),
                ]
            }
        };
        let netlist = if faults.is_empty() {
            ts.netlist.clone()
        } else {
            match inject_faults(&ts.netlist, &faults) {
                Ok(n) => n,
                Err(_) => continue,
            }
        };
        if let Some(board) = read_all(ts, &netlist) {
            return GenBoard {
                board,
                class,
                culprits: faults.iter().map(|(c, _)| name(&ts.netlist, *c)).collect(),
            };
        }
    }
}

pub fn compile(ts: &ThreeStage) -> Diagnoser {
    Diagnoser::from_netlist(
        &ts.netlist,
        ts.test_points.clone(),
        DiagnoserConfig::default(),
    )
    .expect("the three-stage amplifier compiles")
}

/// Reference diagnosis: a fresh session, solo `propagate`.
pub fn fresh_report(diagnoser: &Diagnoser, board: &Board) -> Report {
    let mut session = diagnoser.session();
    for &(idx, value) in board {
        session
            .measure_point(idx, value)
            .expect("generated points exist");
    }
    session.propagate();
    session.report()
}

pub fn report_correct(gen: &GenBoard, report: &Report) -> bool {
    diagnosis_correct(
        gen.class == Class::Healthy,
        &gen.culprits,
        report.candidates.iter().map(|c| c.members.as_slice()),
    )
}

/// Diagnoses one lane on pooled sessions; returns the reports and the
/// constraint applications of the lane.
fn diagnose_lane(
    pool: &mut SessionPool<'_>,
    boards: &[&Board],
    tr: &mut Tracer,
) -> (Vec<Report>, usize, u64) {
    let mut failed = 0;
    let mut sessions = Vec::with_capacity(boards.len());
    for board in boards {
        let g = tr.open("engine.acquire");
        let mut session = pool.acquire();
        tr.close(g);
        let g = tr.open("engine.measure");
        for &(idx, value) in board.iter() {
            if session.measure_point(idx, value).is_err() {
                failed += 1;
            }
        }
        tr.close(g);
        sessions.push(session);
    }
    let g = tr.open("propagation.lane");
    let steps: usize = {
        let mut refs: Vec<&mut Session<'_>> = sessions.iter_mut().collect();
        Session::propagate_lane(&mut refs).iter().sum()
    };
    tr.close(g);
    let mut reports = Vec::with_capacity(boards.len());
    for session in sessions {
        let g = tr.open("engine.report");
        reports.push(session.report());
        tr.close(g);
        let g = tr.open("engine.release");
        pool.release(session);
        tr.close(g);
    }
    (reports, steps, failed)
}

/// What a fleet window measured.
#[derive(Debug, Default)]
struct FleetTally {
    lane_ms: Vec<f64>,
    boards: u64,
    correct: u64,
    failed: u64,
    apps: u64,
    shares: Shares,
    /// Sampled reports, re-checked against fresh sessions afterwards.
    sampled: Vec<(usize, String)>,
}

impl Tally for FleetTally {
    fn merge(&mut self, other: Self) {
        self.lane_ms.extend(other.lane_ms);
        self.boards += other.boards;
        self.correct += other.correct;
        self.failed += other.failed;
        self.apps += other.apps;
        self.shares.merge(&other.shares);
        self.sampled.extend(other.sampled);
    }
}

/// Diagnoses lanes on every pool until `seconds` have passed.
fn run_window(
    stream: &[GenBoard],
    pools: &mut [SessionPool<'_>],
    next_lane: &AtomicUsize,
    seconds: f64,
    traced: bool,
) -> Window<FleetTally> {
    run_workers(
        pools,
        next_lane,
        seconds,
        traced,
        |pool, lane, w: &mut FleetTally, tr| {
            let idxs: Vec<usize> = (lane * LANE..(lane + 1) * LANE).collect();
            let boards: Vec<&Board> = idxs
                .iter()
                .map(|&i| &stream[i % stream.len()].board)
                .collect();
            let root = tr.open("fleet.lane");
            let t0 = Instant::now();
            let (reports, steps, failed) = diagnose_lane(pool, &boards, tr);
            w.lane_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            tr.close(root);
            w.apps += steps as u64;
            w.failed += failed;
            for (&i, report) in idxs.iter().zip(&reports) {
                let gen = &stream[i % stream.len()];
                w.boards += 1;
                w.shares.add_class(gen.class);
                w.correct += u64::from(report_correct(gen, report));
                if i.is_multiple_of(CHECK_EVERY) {
                    w.sampled.push((i, format!("{report:?}")));
                }
            }
        },
    )
}

pub fn run(args: &crate::common::Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ts = three_stage(TOLERANCE);
    let stream: Vec<GenBoard> = (0..STREAM)
        .map(|i| three_stage_board(&ts, args.seed, i, class_of(args.seed, i)))
        .collect();

    // Correctness pre-gate: lanes of pooled sessions must reproduce
    // fresh-session solo propagation byte for byte.
    {
        let diagnoser = compile(&ts);
        let mut pool = SessionPool::new(&diagnoser);
        let mut tr = Tracer::new(false, Instant::now());
        for (lane_no, lane) in stream[..PREGATE_BOARDS].chunks(LANE).enumerate() {
            let boards: Vec<&Board> = lane.iter().map(|g| &g.board).collect();
            let (reports, _, _) = diagnose_lane(&mut pool, &boards, &mut tr);
            for (k, (gen, report)) in lane.iter().zip(&reports).enumerate() {
                if format!("{report:?}") != format!("{:?}", fresh_report(&diagnoser, &gen.board)) {
                    return Err(format!(
                        "pre-gate: lane report of board {} differs from a fresh session",
                        lane_no * LANE + k
                    ));
                }
            }
        }
    }

    // Set-up: compile the model, then open one warm pool per thread.
    let threads = workers();
    let (diagnoser, compile_s) = timed_setup(SETUP_REPEATS, || compile(&ts));
    let mut pools = Vec::new();
    let mut setup_samples = Vec::new();
    for compile in &compile_s {
        let t = Instant::now();
        pools = (0..threads)
            .map(|_| {
                let mut pool = SessionPool::new(&diagnoser);
                pool.warm(LANE);
                pool
            })
            .collect();
        setup_samples.push(compile + t.elapsed().as_secs_f64());
    }
    out.meta("threads", threads.to_string());
    out.meta("lane_width", LANE.to_string());

    let next_lane = AtomicUsize::new(0);
    let mut layers = Layers::default();
    let (window, overhead) = if args.trace {
        let untraced = run_window(&stream, &mut pools, &next_lane, args.seconds * 0.3, false);
        let before = MetricsSnapshot::capture();
        let traced = run_window(&stream, &mut pools, &next_lane, args.seconds * 0.7, true);
        Counters::since(&before).put_engine_layers(&mut layers, traced.tally.boards as f64);
        let rate = |w: &Window<FleetTally>| w.tally.boards as f64 / w.wall_s;
        let overhead = rate(&untraced) / rate(&traced) - 1.0;
        (traced, Some(overhead))
    } else {
        (
            run_window(&stream, &mut pools, &next_lane, args.seconds, false),
            None,
        )
    };
    let w = &window.tally;

    // Post-check: sampled boards re-diagnosed on fresh sessions.
    let wrong = w
        .sampled
        .iter()
        .filter(|(i, got)| {
            *got != format!("{:?}", fresh_report(&diagnoser, &stream[i % STREAM].board))
        })
        .count() as u64;
    out.attempted = w.boards;
    out.wrong = wrong;
    out.failed = w.failed + wrong;
    out.note(w.shares.line("board", CLASS_LABELS));
    out.note(format!(
        "checked {} sampled boards against fresh sessions: {wrong} wrong",
        w.sampled.len()
    ));
    if next_lane.load(Ordering::Relaxed) * LANE > STREAM {
        out.note("stream wrapped: some boards were diagnosed twice");
    }
    let lat = Summary::of(&w.lane_ms).ok_or("no lane completed")?;
    out.note(format!(
        "lane latency ({LANE} boards): {}",
        lat.describe("ms")
    ));
    out.note(format!(
        "boards {} in {:.3} s on {threads} threads",
        w.boards, window.wall_s
    ));

    let boards = w.boards as f64;
    let mut e2e = BTreeMap::new();
    e2e.insert("setup_s", median(&setup_samples));
    e2e.insert("boards_per_s", boards / window.wall_s);
    e2e.insert("latency_p50_ms", lat.p50);
    e2e.insert("latency_tail_ms", lat.tail);
    e2e.insert("probes_per_board", 3.0);
    e2e.insert("diagnosis_accuracy", ratio(w.correct as f64, boards));
    out.set_e2e(&e2e);

    if let Some(overhead) = overhead {
        let profile = window.tracer.profile();
        layers.timing("circuit.compile_s", &compile_s);
        layers.span("engine.acquire_us", &profile, "engine.acquire", 1e3);
        layers.span("engine.measure_us", &profile, "engine.measure", 1e3);
        layers.span("engine.report_us", &profile, "engine.report", 1e3);
        layers.span("propagation.lane_ms", &profile, "propagation.lane", 1e6);
        layers.set("propagation.apps_per_board", w.apps as f64 / boards);
        layers.set(
            "propagation.share",
            ratio(
                profile.self_ns("propagation.lane") as f64,
                profile.root_ns as f64,
            ),
        );
        layers.set("trace.coverage", profile.coverage());
        layers.set("trace.overhead", overhead);
        out.set_layers(layers);
    }
    Ok(out)
}
