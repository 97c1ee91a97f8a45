//! One benchmark for the airshare fleet engine, query path and live
//! service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet_1m|query_la|serve_open> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run is timed and prints the end-to-end metrics;
//! with `--trace 1` it records spans around every call into a layer,
//! writes them to `perfbench/out/`, and prints the per-layer metrics.
//! Every run checks its outputs and exits nonzero if any check fails.
//! The last line of standard output is the JSON result.

mod kernels;
mod serve;
mod sims;
mod spans;
mod util;

use sims::SimWorkload;
use spans::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use util::{Checks, Metrics};

/// What a run hands back besides its checks.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "## {} seed {} seconds {} trace {} | available parallelism {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        util::nproc()
    );
    let mut checks = Checks::default();
    let mut tr = Tracer::new(args.trace, Instant::now(), 1);
    let outcome = match (args.workload.as_str(), args.trace) {
        ("fleet_1m", false) => {
            sims::timed(SimWorkload::Fleet1m, args.seed, args.seconds, &mut checks)
        }
        ("fleet_1m", true) => sims::traced(SimWorkload::Fleet1m, args.seed, &mut checks, &mut tr),
        ("query_la", false) => {
            sims::timed(SimWorkload::QueryLa, args.seed, args.seconds, &mut checks)
        }
        ("query_la", true) => sims::traced(SimWorkload::QueryLa, args.seed, &mut checks, &mut tr),
        ("serve_open", false) => serve::timed(args.seed, args.seconds, &mut checks),
        ("serve_open", true) => serve::traced(args.seed, args.seconds, &mut checks, &mut tr),
        (other, _) => {
            eprintln!("perfbench: unknown workload {other} (fleet_1m, query_la, serve_open)");
            return ExitCode::from(2);
        }
    };

    if args.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match spans::write(&tr.spans, &path) {
            Ok(table) => {
                println!("{} spans written to {}", tr.spans.len(), path.display());
                print!("{table}");
            }
            Err(e) => checks
                .failures
                .push(format!("writing spans to {}: {e}", path.display())),
        }
    }
    for (name, unit, value) in &outcome.metrics.0 {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    for f in &checks.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let correct = checks.failures.is_empty() && outcome.metrics.0.iter().all(|m| m.2.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
