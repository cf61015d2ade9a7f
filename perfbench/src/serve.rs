//! `serve`: the HTTP diagnosis service, closed-loop and under an
//! open-loop schedule.
//!
//! An in-process `flames_serve::serve` on loopback with the default
//! `ServeConfig` plus a `RuleStore` that starts empty with learning on.
//! Requests carry 1–8 boards: the eight recurring modes of the learning
//! experiment, novel drifts, exact retests of earlier boards, and
//! partial boards (1–2 of the 3 points) sent with `next_probe: true`.
//! This is the only workload through http, protocol, queue, wave and
//! the rule cache. A run serves several independent episodes, each on a
//! fresh server and store with a seeded stream of its own: after a
//! seed-independent training pass and an untimed warm-up, a closed loop
//! over one connection gives the service rate, the request latency and
//! the diagnosis accuracy. The last episode's server then takes requests
//! open-loop at a fixed nominal rate, and a fixed ladder of higher rates
//! finds the highest one that still meets the latency limit.

use crate::common::{
    diagnosis_correct, nproc, ratio, timed_setup, Args, Class, Layers, Outcome, Shares,
    CLASS_LABELS,
};
use crate::fleet::{compile, read_all, three_stage_board, TOLERANCE};
use crate::openloop::{run_phase, Rung, Sent};
use crate::rng::SplitMix64;
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use flames_circuit::circuits::{three_stage, ThreeStage};
use flames_circuit::fault::inject_faults;
use flames_circuit::Fault;
use flames_core::{
    board_symptoms, Board, CacheConfig, CacheDecision, Diagnoser, RuleStore, SessionPool,
};
use flames_obs::json::{parse, Value};
use flames_serve::protocol::{parse_diagnose, render_response};
use flames_serve::{run_wave_cached, serve, Client, ServeConfig, ServerHandle};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Requests generated for the last episode, which also serves the
/// nominal phase and the ladder; a run that sends more wraps around.
const STREAM: usize = 4096;
/// Closed-loop episodes per run. Learning is seed-dependent: on about one
/// stream in eight a novel board's rule displaces a recurring mode's rule
/// for the rest of the stream. Over several independent streams such a
/// displacement moves a run's accuracy by a fraction of what it does to
/// one stream, so runs with different seeds read alike.
const EPISODES: usize = 4;
const SETUP_REPEATS: usize = 31;
const PREGATE_REQUESTS: usize = 16;
/// Training requests sent before timing, each carrying all eight
/// recurring modes: the store starts every run having confirmed the same
/// rules, so the timed phases measure the warm service and learning from
/// the seeded stream starts from one state.
const TRAINING_REQUESTS: usize = 8;
/// Stream requests sent one at a time after training, untimed.
const WARMUP_REQUESTS: usize = 64;
/// Stream requests sent back to back over one connection after each
/// episode's warm-up, timed for the service rate: 64 whole blocks of the
/// stream, 2,048 requests over the run.
const EPISODE_REQUESTS: usize = 512;
/// Consecutive closed-loop requests per latency window: 16 blocks, so
/// the tail rule picks p90, which falls among the ~20 ms model-path
/// requests (one a block), above the rule hits and below the
/// partial-board requests (one every fourth block).
const LATENCY_WINDOW: usize = 128;
/// Share of the run spent at the nominal rate; the ladder gets the rest.
const NOMINAL_SHARE: f64 = 0.6;
/// Completed-request traces the server keeps for `GET /trace/:id`.
const TRACE_CAPACITY: usize = 4;
/// Shortest time spent on one ladder rate.
const MIN_RUNG_S: f64 = 0.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Recurring,
    Novel,
    Retest,
    Partial,
}

#[derive(Debug, Clone)]
struct ServeBoard {
    board: Board,
    kind: Kind,
    class: Class,
    culprits: Vec<String>,
}

#[derive(Debug, Clone)]
struct Request {
    boards: Vec<ServeBoard>,
    next_probe: bool,
}

/// The learning experiment's eight recurring modes: healthy plus seven
/// single drifts that discretise to distinct symptom sets.
fn recurring_modes(ts: &ThreeStage) -> Vec<ServeBoard> {
    let modes = [
        None,
        Some((ts.r2, 1.3)),
        Some((ts.r4, 0.8)),
        Some((ts.r5, 1.25)),
        Some((ts.r1, 1.4)),
        Some((ts.r3, 1.3)),
        Some((ts.r6, 0.7)),
        Some((ts.r6, 1.2)),
    ];
    modes
        .iter()
        .map(|mode| {
            let (netlist, culprits, class) = match mode {
                None => (ts.netlist.clone(), Vec::new(), Class::Healthy),
                Some((id, factor)) => (
                    inject_faults(&ts.netlist, &[(*id, Fault::ParamFactor(*factor))])
                        .expect("mode injects"),
                    vec![ts.netlist.component(*id).name().to_owned()],
                    Class::Soft,
                ),
            };
            ServeBoard {
                board: read_all(ts, &netlist).expect("mode solves"),
                kind: Kind::Recurring,
                class,
                culprits,
            }
        })
        .collect()
}

/// The request stream, in blocks of eight requests whose sizes are a
/// seeded permutation of 1..=8 boards. Every fourth block turns its 1- or
/// 2-board request (alternately) into a partial-board request
/// (`next_probe: true`); every second block carries one novel drift; each
/// block carries three exact retests of recent novel boards, taken in
/// turn so each is retested about as often; recurring modes fill the
/// rest. Recurring modes come from a shuffled deck of 37 cards: the
/// healthy mode twice (the cache never answers "healthy", so every
/// healthy board takes the model path) and each drift mode five times.
/// The healthy and novel boards of a block ride in its largest full
/// request, the other boards are dealt at random over the rest. Fixed
/// counts per block keep the model-path share of every run alike, and
/// packing keeps model-path requests near one in six: with one in four,
/// rule-hit requests queued behind them put the median at the edge of
/// the rule-hit cluster, and it jumped between runs.
fn make_stream(ts: &ThreeStage, seed: u64, len: usize) -> Vec<Request> {
    let modes = recurring_modes(ts);
    let mut rng = SplitMix64::new(seed ^ 0x5E4E_F10D);
    let mut novel: Vec<ServeBoard> = Vec::new();
    let mut fresh = 0usize;
    // Every fourth novel board is a double fault, the rest single drifts.
    let mut novel_board = || {
        fresh += 1;
        let class = if fresh.is_multiple_of(4) {
            Class::Double
        } else {
            Class::Soft
        };
        let g = three_stage_board(ts, seed, fresh, class);
        ServeBoard {
            board: g.board,
            kind: Kind::Novel,
            class,
            culprits: g.culprits,
        }
    };
    let mut mode_deck: Vec<usize> = Vec::new();
    let mut retests = 0usize;
    let mut out = Vec::with_capacity(len);
    for block in 0.. {
        if out.len() >= len {
            break;
        }
        let mut sizes: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
        rng.shuffle(&mut sizes);
        let partial_size = if block % 4 == 0 {
            1 + (block / 4) % 2
        } else {
            0
        };
        let full_boards: usize = 36 - partial_size;
        let mut kinds = vec![Kind::Recurring; full_boards];
        let novel_count = usize::from(block % 2 == 0);
        for k in &mut kinds[..novel_count] {
            *k = Kind::Novel;
        }
        for k in &mut kinds[novel_count..novel_count + 3] {
            *k = Kind::Retest;
        }
        rng.shuffle(&mut kinds);
        let mut full: Vec<ServeBoard> = kinds
            .into_iter()
            .map(|kind| match kind {
                Kind::Retest if !novel.is_empty() => {
                    let recent = novel.len().min(64);
                    retests += 1;
                    let mut b = novel[novel.len() - 1 - retests % recent].clone();
                    b.kind = Kind::Retest;
                    b
                }
                Kind::Novel | Kind::Retest => {
                    let b = novel_board();
                    novel.push(b.clone());
                    b
                }
                _ => {
                    if mode_deck.is_empty() {
                        mode_deck = [0; 2]
                            .into_iter()
                            .chain((1..modes.len()).flat_map(|m| [m; 5]))
                            .collect();
                        rng.shuffle(&mut mode_deck);
                    }
                    modes[mode_deck.pop().expect("deck refilled")].clone()
                }
            })
            .collect();
        // Boards the rule cache cannot answer go first, into the block's
        // largest full request.
        full.sort_by_key(|b| !(b.kind == Kind::Novel || b.class == Class::Healthy));
        let mut by_size: Vec<usize> = (0..sizes.len())
            .filter(|&i| sizes[i] != partial_size)
            .collect();
        by_size.sort_by_key(|&i| std::cmp::Reverse(sizes[i]));
        let mut requests: Vec<Vec<ServeBoard>> = vec![Vec::new(); sizes.len()];
        let mut full = full.into_iter();
        for i in by_size {
            requests[i] = full.by_ref().take(sizes[i]).collect();
        }
        for (i, &n) in sizes.iter().enumerate() {
            if n == partial_size {
                let boards = (0..n)
                    .map(|_| {
                        let mut b = novel_board();
                        // Keep one or two of the three points.
                        let keep = 1 + rng.below(2);
                        rng.shuffle(&mut b.board);
                        b.board.truncate(keep);
                        b.board.sort_by_key(|&(idx, _)| idx);
                        b.kind = Kind::Partial;
                        b
                    })
                    .collect();
                out.push(Request {
                    boards,
                    next_probe: true,
                });
            } else {
                out.push(Request {
                    boards: std::mem::take(&mut requests[i]),
                    next_probe: false,
                });
            }
        }
    }
    out.truncate(len);
    out
}

fn body_of(req: &Request) -> String {
    let boards: Vec<String> = req
        .boards
        .iter()
        .map(|b| {
            let points: Vec<String> = b
                .board
                .iter()
                .map(|(idx, v)| {
                    format!(
                        "{{\"point\":{idx},\"value\":{{\"m1\":{},\"m2\":{},\"alpha\":{},\"beta\":{}}}}}",
                        v.core_lo(),
                        v.core_hi(),
                        v.spread_left(),
                        v.spread_right()
                    )
                })
                .collect();
            format!("[{}]", points.join(","))
        })
        .collect();
    format!(
        "{{\"boards\":[{}],\"next_probe\":{}}}",
        boards.join(","),
        req.next_probe
    )
}

/// The default server plus the learned-rule store. The trace ring is cut
/// from 64 requests to [`TRACE_CAPACITY`]: each model-path board's
/// retained trace runs to megabytes, and 64 requests of them held the
/// process at 1–2.3 GB with a peak that varied with the request mix.
fn server_config(store: &Arc<RuleStore>) -> ServeConfig {
    ServeConfig {
        rule_store: Some(Arc::clone(store)),
        cache: CacheConfig::default(),
        trace_capacity: TRACE_CAPACITY,
        ..ServeConfig::default()
    }
}

struct Service {
    handle: ServerHandle,
    /// One keep-alive connection. A connection holds one of the server's
    /// HTTP workers until it closes, so set-up opens no more.
    client: Client,
    diagnoser: Diagnoser,
    /// Time spent compiling the model, within the set-up.
    compile_s: f64,
}

fn start(ts: &ThreeStage) -> Service {
    let t = Instant::now();
    let diagnoser = compile(ts);
    let compile_s = t.elapsed().as_secs_f64();
    let store = Arc::new(RuleStore::new());
    let handle =
        serve("127.0.0.1:0", diagnoser.clone(), server_config(&store)).expect("bind loopback");
    let client = Client::connect(handle.addr()).expect("connect loopback");
    Service {
        handle,
        client,
        diagnoser,
        compile_s,
    }
}

/// In-process reference: what a fresh server answers to `requests` sent
/// one at a time (each request is then its own wave).
fn reference_bodies(diagnoser: &Diagnoser, requests: &[Request]) -> Vec<String> {
    let store = RuleStore::new();
    let config = CacheConfig::default();
    let mut pool = SessionPool::new(diagnoser);
    requests
        .iter()
        .map(|req| {
            let boards: Vec<Board> = req.boards.iter().map(|b| b.board.clone()).collect();
            let outcomes = run_wave_cached(
                &mut pool,
                &boards,
                &vec![req.next_probe; boards.len()],
                Some((&store, &config)),
            )
            .expect("reference wave runs");
            render_response(&outcomes)
        })
        .collect()
}

/// Checks a 200 body against its request; returns per-board accuracy
/// verdicts, or `None` when the body is wrong.
fn check_body(req: &Request, body: &str) -> Option<Vec<bool>> {
    let root = parse(body).ok()?;
    let boards = root.member("boards")?.as_array()?;
    if boards.len() != req.boards.len() {
        return None;
    }
    let mut verdicts = Vec::with_capacity(boards.len());
    for (sb, b) in req.boards.iter().zip(boards) {
        let points = b.member("points")?.as_array()?;
        let measured = points
            .iter()
            .filter(|p| p.member("measured").is_some())
            .count();
        if points.len() != 3 || measured != sb.board.len() {
            return None;
        }
        let from_rule = b.member("rule_provenance").is_some();
        let probe_given = !matches!(b.member("next_probe")?, Value::Null);
        let wants_probe = req.next_probe && sb.board.len() < 3 && !from_rule;
        if probe_given != wants_probe {
            return None;
        }
        let candidates: Vec<Vec<String>> = b
            .member("candidates")?
            .as_array()?
            .iter()
            .map(|c| {
                c.member("members")
                    .and_then(Value::as_array)
                    .map(|ms| {
                        ms.iter()
                            .filter_map(|m| m.as_str().map(str::to_owned))
                            .collect()
                    })
                    .unwrap_or_default()
            })
            .collect();
        verdicts.push(diagnosis_correct(
            sb.class == Class::Healthy,
            &sb.culprits,
            candidates.iter().map(Vec::as_slice),
        ));
    }
    Some(verdicts)
}

/// The server's counters, read over HTTP.
fn server_metrics(client: &mut Client) -> BTreeMap<String, f64> {
    let Ok(resp) = client.request("GET", "/metrics", None) else {
        return BTreeMap::new();
    };
    parse(&resp.body)
        .ok()
        .and_then(|v| {
            v.as_object().map(|fields| {
                fields
                    .iter()
                    .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x)))
                    .collect()
            })
        })
        .unwrap_or_default()
}

fn delta(after: &BTreeMap<String, f64>, before: &BTreeMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// Per-request timings of an in-process replay.
struct Replay {
    wall_s: f64,
    tracer: Tracer,
    decided: u64,
    hits: u64,
    rules: usize,
}

fn board_key(board: &Board) -> Vec<(usize, [u64; 4])> {
    board
        .iter()
        .map(|(i, v)| {
            (
                *i,
                [
                    v.core_lo().to_bits(),
                    v.core_hi().to_bits(),
                    v.spread_left().to_bits(),
                    v.spread_right().to_bits(),
                ],
            )
        })
        .collect()
}

/// Replays request bodies in process through `parse_diagnose`,
/// `run_wave_cached` and `render_response` on a fresh pool and store.
/// The first `warm` bodies only fill the store; the rest are timed.
/// Both replays also run `board_symptoms` + `decide` and `absorb` on a
/// shadow store that receives the same updates as the real one, so the
/// traced and untraced replays differ only in the tracer.
fn replay(diagnoser: &Diagnoser, bodies: &[&str], warm: usize, traced: bool) -> Replay {
    let store = RuleStore::new();
    let shadow = RuleStore::new();
    let config = CacheConfig::default();
    let mut pool = SessionPool::new(diagnoser);
    let mut start = Instant::now();
    let mut tr = Tracer::new(false, start);
    let (mut decided, mut hits) = (0, 0);
    for (k, body) in bodies.iter().enumerate() {
        if k == warm {
            start = Instant::now();
            tr = Tracer::new(traced, start);
        }
        let timed = k >= warm;
        let root = tr.open("serve.replay");
        let g = tr.open("serve.parse");
        let req = parse_diagnose(body, diagnoser).expect("generated bodies parse");
        tr.close(g);
        let mut unique: Vec<&Board> = Vec::new();
        let mut seen = HashSet::new();
        let snapshot = shadow.snapshot();
        for board in &req.boards {
            if seen.insert(board_key(board)) {
                unique.push(board);
                let g = tr.open("rule_store.decide");
                let symptoms = board_symptoms(diagnoser, board).expect("valid board");
                let decision = snapshot.decide(&symptoms, &config);
                tr.close(g);
                if timed {
                    decided += 1;
                    hits += u64::from(matches!(decision, CacheDecision::Hit(_)));
                }
            }
        }
        let g = tr.open("serve.wave");
        let outcomes = run_wave_cached(
            &mut pool,
            &req.boards,
            &vec![req.next_probe; req.boards.len()],
            Some((&store, &config)),
        )
        .expect("replayed wave runs");
        tr.close(g);
        // The real store absorbed each unique model-path board in
        // first-occurrence order; the shadow follows suit.
        for board in unique {
            let at = req
                .boards
                .iter()
                .position(|b| b == board)
                .expect("board is in request");
            if outcomes[at].provenance.is_none() {
                let g = tr.open("rule_store.absorb");
                shadow.absorb(&outcomes[at].report);
                tr.close(g);
            }
        }
        let g = tr.open("serve.render");
        std::hint::black_box(render_response(&outcomes));
        tr.close(g);
        tr.close(root);
    }
    Replay {
        wall_s: start.elapsed().as_secs_f64(),
        tracer: tr,
        decided,
        hits,
        rules: shadow.len(),
    }
}

/// Request latencies of a phase, overall and split by path: requests
/// answered wholly from learned rules, and requests with a board on the
/// model path.
fn latency_split<'a>(
    phase: &str,
    sent: impl IntoIterator<Item = (&'a [Request], &'a Sent)>,
) -> String {
    let (mut all, mut rules, mut model) = (Vec::new(), Vec::new(), Vec::new());
    for (stream, s) in sent {
        let hits = s.body.matches("\"rule_provenance\"").count();
        let latency = s.latency_ms();
        all.push(latency);
        if hits == stream[s.index % stream.len()].boards.len() {
            rules.push(latency);
        } else {
            model.push(latency);
        }
    }
    let describe =
        |v: &[f64]| Summary::of(v).map_or_else(|| "none".to_owned(), |x| x.describe("ms"));
    format!(
        "{phase} latency {}; requests answered from rules: {}; with a model-path board: {}",
        describe(&all),
        describe(&rules),
        describe(&model)
    )
}

/// One episode's seeded request stream and its request bodies.
struct Episode {
    stream: Vec<Request>,
    bodies: Vec<String>,
}

/// Training, warm-up and the closed loop of one episode, over `client`.
/// Returns the closed-loop requests and the boards they carried.
fn closed_loop(
    client: &mut Client,
    addr: std::net::SocketAddr,
    training: &str,
    episode: &Episode,
) -> Result<(Vec<Sent>, usize), String> {
    // Training, untimed and the same for every seed.
    for _ in 0..TRAINING_REQUESTS {
        client
            .diagnose(training)
            .map_err(|e| format!("training: {e}"))?;
    }
    // Warm-up: the first eight blocks of the stream, one at a time and
    // untimed, so the pool and the store are past their first use before
    // timing.
    for body in &episode.bodies[..WARMUP_REQUESTS] {
        client.diagnose(body).map_err(|e| format!("warm-up: {e}"))?;
    }
    // Closed loop: the next requests back to back over the same
    // connection, so the store learns them in stream order.
    let mut sent_all = Vec::with_capacity(EPISODE_REQUESTS);
    let mut boards = 0;
    let start = Instant::now();
    for index in WARMUP_REQUESTS..WARMUP_REQUESTS + EPISODE_REQUESTS {
        let sent = start.elapsed();
        let reply = client.diagnose(&episode.bodies[index]);
        let done = start.elapsed();
        let (status, body) = match reply {
            Ok(r) => (Some(r.status), r.body),
            Err(e) => {
                *client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                (None, e.to_string())
            }
        };
        boards += episode.stream[index].boards.len();
        sent_all.push(Sent {
            index,
            due: sent,
            sent,
            done,
            status,
            body,
        });
    }
    Ok((sent_all, boards))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ts = three_stage(TOLERANCE);
    let episodes: Vec<Episode> = (0..EPISODES as u64)
        .map(|e| {
            let seed = SplitMix64::for_item(args.seed, e).next_u64();
            let len = if e + 1 == EPISODES as u64 {
                STREAM
            } else {
                WARMUP_REQUESTS + EPISODE_REQUESTS
            };
            let stream = make_stream(&ts, seed, len);
            let bodies = stream.iter().map(body_of).collect();
            Episode { stream, bodies }
        })
        .collect();
    // One generator connection per server HTTP worker at most: a
    // keep-alive connection holds its worker until it closes, so any
    // further connection would wait in the accept backlog.
    let server_workers = ServeConfig::default().workers.max(1);
    let connections = nproc().min(server_workers);
    out.meta("server_workers", server_workers.to_string());
    out.meta("connections", connections.to_string());
    out.meta("episodes", EPISODES.to_string());
    out.meta("ladder_rps", format!("{:?}", args.ladder_rps));
    out.meta("nominal_rps", crate::common::json_number(args.nominal_rps));
    out.meta(
        "latency_limit_ms",
        crate::common::json_number(args.latency_limit_ms),
    );

    // Pre-gate: a fresh server answering one request at a time must send
    // exactly the bytes the in-process wave path renders.
    {
        let first = &episodes[0];
        let mut svc = start(&ts);
        let want = reference_bodies(&svc.diagnoser, &first.stream[..PREGATE_REQUESTS]);
        for (i, want) in want.iter().enumerate() {
            let got = svc
                .client
                .diagnose(&first.bodies[i])
                .map_err(|e| format!("pre-gate: {e}"))?;
            if got.status != 200 || got.body != *want {
                return Err(format!(
                    "pre-gate: served bytes of request {i} differ from the in-process wave"
                ));
            }
        }
        svc.handle.shutdown();
    }

    let mut compile_s = Vec::new();
    let (svc, setup_samples) = timed_setup(SETUP_REPEATS, || {
        let s = start(&ts);
        compile_s.push(s.compile_s);
        s
    });

    let training = body_of(&Request {
        boards: recurring_modes(&ts),
        next_probe: false,
    });

    // Closed-loop episodes. Each runs on a fresh server and store (the
    // first on the last timed set-up); the last server stays up for the
    // nominal phase and the ladder. The service rate is the boards
    // answered per second of closed loop over all episodes.
    let mut closed: Vec<(usize, Sent)> = Vec::new();
    let (mut closed_boards, mut closed_s) = (0, 0.0);
    let mut svc = Some(svc);
    let mut last = None;
    for (e, episode) in episodes.iter().enumerate() {
        let mut s = match svc.take() {
            Some(s) => s,
            None => start(&ts),
        };
        let addr = s.handle.addr();
        let (sent, boards) = closed_loop(&mut s.client, addr, &training, episode)?;
        closed_s += sent.last().map_or(0.0, |x| x.done.as_secs_f64());
        closed_boards += boards;
        closed.extend(sent.into_iter().map(|x| (e, x)));
        if e + 1 == EPISODES {
            last = Some(s);
        } else {
            drop(s.client);
            s.handle.shutdown();
        }
    }
    let Service {
        handle,
        client,
        diagnoser,
        compile_s: _,
    } = last.ok_or("no episode ran")?;
    let service_rate = closed_boards as f64 / closed_s;
    out.note(format!(
        "closed loop: {EPISODES} episodes of {EPISODE_REQUESTS} requests, {closed_boards} boards \
         over one connection in {closed_s:.3} s"
    ));
    // Request latency is taken over the closed loops, where each request
    // is due when the previous reply is in. At the open-loop nominal rate
    // the host idles between requests, and its wake-up latency moved the
    // median (a rule-hit request, mostly thread hand-offs) between 0.9
    // and 2.5 ms from run to run; closed-loop medians stayed within
    // 0.26-0.31 ms on the same runs. Both figures are medians over
    // windows of consecutive requests: over all 2,048 requests the tail
    // rule picks p99, which sits among the few partial-board requests
    // and host stalls, and it spread past its bound between runs.
    let windows: Vec<Summary> = closed
        .chunks(LATENCY_WINDOW)
        .filter_map(|w| Summary::of(&w.iter().map(|(_, s)| s.latency_ms()).collect::<Vec<_>>()))
        .collect();
    let window_median = |f: fn(&Summary) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    let (latency_p50, latency_tail) = (window_median(|w| w.p50), window_median(|w| w.tail));
    out.note(format!(
        "closed-loop latency over {} windows of {LATENCY_WINDOW} requests: median p50 {latency_p50:.3} ms, \
         median {} {latency_tail:.3} ms",
        windows.len(),
        windows.first().map_or("tail", |w| w.tail_label.as_str()),
    ));
    out.note(latency_split(
        "closed-loop",
        closed
            .iter()
            .map(|(e, s)| (episodes[*e].stream.as_slice(), s)),
    ));
    let addr = handle.addr();
    let mut clients = vec![client];
    let Episode { stream, bodies } = episodes.last().expect("at least one episode");
    let mut next = WARMUP_REQUESTS + EPISODE_REQUESTS;

    // Nominal phase, over one connection: requests then reach the server
    // in stream order and never share a wave, so the store learns the
    // same rules on every run with this seed. Over two connections,
    // coalescing changed the absorb order and dedup from run to run, and
    // with them which recurring boards kept hitting: the median latency
    // moved between 0.9 and 2.8 ms on the same seed.
    let nominal_s = args.seconds * NOMINAL_SHARE;
    let count = ((args.nominal_rps * nominal_s).round() as usize).max(1);
    let nominal_first = next;
    let nominal = run_phase(
        addr,
        &mut clients,
        bodies,
        nominal_first,
        count,
        args.nominal_rps,
    );
    next += count;
    let nominal_rung =
        Rung::judge(args.nominal_rps, &nominal, args.latency_limit_ms).ok_or("no request sent")?;
    out.note(format!("nominal {}", nominal_rung.describe()));
    out.note(latency_split(
        "nominal",
        nominal.iter().map(|s| (stream.as_slice(), s)),
    ));
    let mut open: Vec<Sent> = nominal.clone();

    // Ladder, over every connection: climb from the nominal rate until a
    // rate misses the limit, or step down if the nominal rate missed. The
    // server counters over the ladder give the coalescing layer metrics.
    while clients.len() < connections {
        clients.push(Client::connect(addr).map_err(|e| format!("connect: {e}"))?);
    }
    let before = server_metrics(&mut clients[0]);
    let mut max_rps = None;
    let mut ladder_boards = 0.0;
    {
        let above: Vec<f64> = args
            .ladder_rps
            .iter()
            .copied()
            .filter(|&r| r > args.nominal_rps)
            .collect();
        let below: Vec<f64> = args
            .ladder_rps
            .iter()
            .rev()
            .copied()
            .filter(|&r| r < args.nominal_rps)
            .collect();
        let (rates, climbing) = if nominal_rung.meets {
            max_rps = Some(args.nominal_rps);
            (above, true)
        } else {
            (below, false)
        };
        let rung_s =
            (args.seconds * (1.0 - NOMINAL_SHARE) / rates.len().max(1) as f64).max(MIN_RUNG_S);
        for rate in rates {
            let n = ((rate * rung_s).round() as usize).max(1);
            let sent = run_phase(addr, &mut clients, bodies, next, n, rate);
            ladder_boards += (next..next + n)
                .map(|i| stream[i % stream.len()].boards.len() as f64)
                .sum::<f64>();
            next += n;
            let rung = Rung::judge(rate, &sent, args.latency_limit_ms).ok_or("no request sent")?;
            out.note(format!("ladder {}", rung.describe()));
            open.extend(sent);
            if rung.meets {
                max_rps = Some(rate);
                if !climbing {
                    break;
                }
            } else if climbing {
                break;
            }
        }
    }
    let after = server_metrics(&mut clients[0]);

    // Correctness of every response. Accuracy is read from the served
    // candidates of the closed loops, where each store learns in stream
    // order, so it is a function of the seed alone; on the ladder,
    // coalescing makes the absorb order differ from run to run.
    let mut shares = Shares::default();
    let mut kinds = Shares::default();
    let (mut boards, mut correct, mut points, mut failed, mut wrong) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let checked = closed
        .iter()
        .map(|(e, s)| (&episodes[*e].stream, s, true))
        .chain(open.iter().map(|s| (stream, s, false)));
    for (stream, s, scored) in checked {
        let req = &stream[s.index % stream.len()];
        if s.status != Some(200) {
            failed += 1;
            continue;
        }
        match check_body(req, &s.body) {
            None => {
                failed += 1;
                wrong += 1;
            }
            Some(verdicts) => {
                for (b, ok) in req.boards.iter().zip(verdicts) {
                    if scored {
                        boards += 1;
                        correct += u64::from(ok);
                        points += b.board.len() as u64;
                    }
                    shares.add_class(b.class);
                    kinds.add(match b.kind {
                        Kind::Recurring => "recurring",
                        Kind::Novel => "novel",
                        Kind::Retest => "retest",
                        Kind::Partial => "partial",
                    });
                }
            }
        }
    }
    out.attempted = (closed.len() + open.len()) as u64;
    out.failed = failed;
    out.wrong = wrong;
    out.note(shares.line("board", CLASS_LABELS));
    out.note(kinds.line("board-kind", &["recurring", "novel", "retest", "partial"]));
    let sent_boards: f64 =
        stream.iter().map(|r| r.boards.len() as f64).sum::<f64>() / stream.len() as f64;
    let served_hits = delta(&after, &before, "learn.hit");
    let served_decided = served_hits
        + delta(&after, &before, "learn.miss")
        + delta(&after, &before, "learn.fallback");
    out.note(format!(
        "rule hit ratio over the ladder = {} ({} of {} unique boards)",
        ratio(served_hits, served_decided),
        served_hits,
        served_decided
    ));
    out.note(format!("stream mean boards per request = {sent_boards}"));

    let mut e2e = BTreeMap::new();
    e2e.insert("setup_s", median(&setup_samples));
    e2e.insert("latency_p50_ms", latency_p50);
    e2e.insert("latency_tail_ms", latency_tail);
    e2e.insert("probes_per_board", ratio(points as f64, boards as f64));
    e2e.insert("diagnosis_accuracy", ratio(correct as f64, boards as f64));
    match max_rps {
        Some(max) => out.note(format!("max_rps_under_limit = {max} 1/s")),
        None => out.note("max_rps_under_limit = none: no ladder rate met the limit"),
    }
    e2e.insert("boards_per_s", service_rate);

    if args.trace {
        // Replay the last episode from training through the nominal
        // phase; only the nominal requests are timed into the layer
        // metrics.
        let replayed: Vec<&str> = std::iter::repeat_n(training.as_str(), TRAINING_REQUESTS)
            .chain((0..nominal_first + count).map(|i| bodies[i].as_str()))
            .collect();
        let warm = TRAINING_REQUESTS + nominal_first;
        let untraced = replay(&diagnoser, &replayed, warm, false);
        let traced = replay(&diagnoser, &replayed, warm, true);
        let profile = traced.tracer.profile();
        let mut layers = Layers::default();
        layers.timing("circuit.compile_s", &compile_s);
        layers.span("serve.parse_us", &profile, "serve.parse", 1e3);
        layers.span("serve.wave_ms", &profile, "serve.wave", 1e6);
        layers.span("serve.render_us", &profile, "serve.render", 1e3);
        layers.span("rule_store.decide_us", &profile, "rule_store.decide", 1e3);
        layers.span("rule_store.absorb_us", &profile, "rule_store.absorb", 1e3);
        // Each replayed request has exactly one parse, wave and render span.
        let service_ms = |k: usize| -> f64 {
            ["serve.parse", "serve.wave", "serve.render"]
                .iter()
                .map(|p| profile.by_name[p].durations_ns[k] as f64 / 1e6)
                .sum()
        };
        let http_queue: Vec<f64> = nominal
            .iter()
            .enumerate()
            .map(|(k, s)| s.latency_ms() - service_ms(k))
            .collect();
        layers.timing("serve.http_queue_ms", &http_queue);
        layers.set(
            "rule_store.hit_ratio",
            ratio(traced.hits as f64, traced.decided as f64),
        );
        layers.set("rule_store.rules", traced.rules as f64);
        let accepted = delta(&after, &before, "serve.accepted");
        let counter = |name: &str| delta(&after, &before, name);
        layers.set(
            "serve.coalesced_share",
            ratio(counter("serve.coalesced"), accepted),
        );
        layers.set(
            "serve.dedup_ratio",
            ratio(counter("serve.deduped_boards"), ladder_boards),
        );
        layers.set("serve.shed", counter("serve.shed"));
        layers.set("serve.deadline_missed", counter("serve.deadline_missed"));
        layers.set("trace.coverage", profile.coverage());
        layers.set("trace.overhead", traced.wall_s / untraced.wall_s - 1.0);
        out.note(format!(
            "replay of {count} nominal requests: {:.3} s untraced, {:.3} s traced",
            untraced.wall_s, traced.wall_s
        ));
        out.set_layers(layers);
    }
    clients.clear();
    handle.shutdown();
    out.set_e2e(&e2e);
    Ok(out)
}
