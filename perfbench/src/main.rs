//! End-to-end benchmark of the FLAMES diagnosis stack.
//!
//! ```text
//! cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
//!     --ladder-rps 16,24,32,48,64,96,128,192,256,384,512 --nominal-rps 16 \
//!     --latency-limit-ms 100 --workload fleet --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every flag is required; `BENCHMARK.json` holds the fixed ones.
//!
//! Runs one seeded workload (`fleet`, `probe`, `serve`, `big_board`)
//! against the public API, checks its outputs, and prints one report
//! line per metric followed by a final JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` re-runs the workload with spans
//! around every call into a layer and reports the per-layer metrics.
//! A correctness pre-gate failure exits non-zero without a result line.
//! See `perfbench/README.md` for why each workload exists and which
//! layer metric should move which end-to-end metric.

mod big_board;
mod common;
mod fleet;
mod openloop;
mod probe;
mod rng;
mod serve;
mod stats;
mod trace;

use common::{Args, Outcome};
use std::process::ExitCode;

const USAGE: &str = "usage: flames-perfbench --workload <fleet|probe|serve|big_board> \
--seed <n> --seconds <s> --trace <0|1> --ladder-rps <r1,r2,..> --nominal-rps <r> \
--latency-limit-ms <ms>";

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    text.trim().parse().map_err(|e| format!("{flag}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut given = std::collections::BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        given.insert(flag, value);
    }
    let mut take = |flag: &str| {
        given
            .remove(flag)
            .ok_or_else(|| format!("{flag} is required"))
    };
    let workload = take("--workload")?;
    let seed = number("--seed", &take("--seed")?)?;
    let seconds: f64 = number("--seconds", &take("--seconds")?)?;
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let mut ladder_rps: Vec<f64> = take("--ladder-rps")?
        .split(',')
        .map(|r| number("--ladder-rps", r))
        .collect::<Result<_, _>>()?;
    let nominal_rps: f64 = number("--nominal-rps", &take("--nominal-rps")?)?;
    let latency_limit_ms: f64 = number("--latency-limit-ms", &take("--latency-limit-ms")?)?;
    if let Some(other) = given.keys().next() {
        return Err(format!("unknown argument {other}"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if ladder_rps.iter().any(|r| r.is_nan() || *r <= 0.0) {
        return Err("--ladder-rps must list positive rates".into());
    }
    if !(nominal_rps > 0.0 && latency_limit_ms > 0.0) {
        return Err("--nominal-rps and --latency-limit-ms must be positive".into());
    }
    ladder_rps.sort_by(f64::total_cmp);
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        ladder_rps,
        nominal_rps,
        latency_limit_ms,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "fleet" => fleet::run(&args),
        "probe" => probe::run(&args),
        "serve" => serve::run(&args),
        "big_board" => big_board::run(&args),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    match result {
        Ok(outcome) => {
            print_outcome(&args, &outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

fn print_outcome(args: &Args, outcome: &Outcome) {
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("meta {}", common::metadata_json(args, outcome));
    for note in &outcome.notes {
        println!("  {note}");
    }
    let fail_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "  fail_frac = {fail_frac} ratio ({} failed of {} attempted)",
        outcome.failed, outcome.attempted
    );
    let metrics = if args.trace {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    for m in metrics {
        println!("  {} = {} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                common::json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.wrong == 0,
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
}
