//! The softhw benchmark: three workloads over the three end-to-end paths
//! of the system, each from seeded inputs, each output checked against a
//! computation made apart from the code under test.
//!
//! ```text
//! softhw-perfbench --workload <service_mix|decide_mix|paper_queries>
//!                  --seed <n> --seconds <s> --trace <0|1> [--serve <path>]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). See README.md.

mod check;
mod decide;
mod layers;
mod paper;
mod service;
mod stats;

use stats::Report;
use std::process::ExitCode;
use std::time::Instant;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `softhw-serve` executable `service_mix` starts.
    pub serve: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        serve: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--serve" => args.serve = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Runs whole rounds until `seconds` have passed and at least
/// `min_rounds` are done. `round(i)` runs round `i` and returns the
/// seconds its operations took; the result holds one entry per round.
pub fn timed_rounds(
    seconds: f64,
    min_rounds: usize,
    mut round: impl FnMut(usize) -> f64,
) -> Vec<f64> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < min_rounds || start.elapsed().as_secs_f64() < seconds {
        rounds.push(round(rounds.len()));
    }
    rounds
}

/// Peak RSS of this process in MB.
pub fn own_peak_rss_mb() -> f64 {
    stats::peak_rss_mb("self").unwrap_or(0.0)
}

/// The end-to-end metrics every workload reports the same way.
pub fn push_common(r: &mut Report, setup_s: f64, peak_rss_mb: f64, ops_per_s: f64) {
    r.push("setup_s", setup_s, "s");
    r.push("peak_rss_mb", peak_rss_mb, "MB");
    r.push("ops_per_s", ops_per_s, "1/s");
}

/// Adds a ledger for one path: the whole, the sum of its layers, and the
/// residual (whole minus layers), also as a share of the whole.
pub fn push_ledger(r: &mut Report, path: &str, unit: &'static str, whole: f64, layers: f64) {
    let residual = whole - layers;
    r.push(format!("ledger.{path}.whole_{unit}"), whole, unit);
    r.push(format!("ledger.{path}.layers_{unit}"), layers, unit);
    r.push(format!("ledger.{path}.residual_{unit}"), residual, unit);
    r.push(
        format!("ledger.{path}.residual_share"),
        100.0 * residual / whole,
        "%",
    );
}

/// The traced run: the layered replay of all three paths on the seed's
/// inputs, whichever workload is named, so that every per-layer metric
/// is measured in every traced run.
fn traced(args: &Args) -> Result<Report, String> {
    let mut r = Report {
        correct: true,
        ..Report::default()
    };
    let ops = service::layer_pass(args.seed, args.seconds, args.serve.as_deref(), &mut r)?
        + decide::layer_pass(args.seed, &mut r)?
        + paper::layer_pass(args.seed, &mut r)?;
    r.attempted = ops as u64;
    Ok(r)
}

fn run(args: &Args) -> Result<Report, String> {
    let workload = match args.workload.as_str() {
        "service_mix" => service::run,
        "decide_mix" => decide::run,
        "paper_queries" => paper::run,
        other => return Err(format!("unknown workload {other:?}")),
    };
    if args.trace {
        traced(args)
    } else {
        workload(args)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("softhw-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("softhw-perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
