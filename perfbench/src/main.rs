//! The repository's benchmark: one command, three named workloads, end-
//! to-end metrics from an untraced run and per-layer attribution from a
//! traced one.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload learn-n400 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is the
//! result as one JSON object; the lines above it are the same numbers for
//! people, with the provenance stamp and the correctness gate's verdict.
//! The command exits non-zero when the gate finds a mismatch or any
//! operation fails. See `perfbench/README.md` for the workloads and what
//! each metric should move.

mod host;
mod ladder;
mod learn;
mod metrics;
mod provenance;
mod schedule;
mod serve;
mod stats;
mod wire;

use std::path::Path;

use metrics::{Metric, Values, END_TO_END, PER_LAYER};

/// The workloads, by the names `BENCHMARK.json` gives them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One in-process N400 learner.
    LearnN400,
    /// 16 sessions on one server, closed loop.
    ServeClosed,
    /// 16 sessions through a shadowed 2-shard cluster, open loop.
    ClusterOpen,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "learn-n400" => Some(Workload::LearnN400),
            "serve-closed" => Some(Workload::ServeClosed),
            "cluster-open" => Some(Workload::ClusterOpen),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::LearnN400 => "learn-n400",
            Workload::ServeClosed => "serve-closed",
            Workload::ClusterOpen => "cluster-open",
        }
    }
}

/// Command-line arguments; all four are required.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("trace must be 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metric values (the untraced run's).
    pub e2e: Values,
    /// Per-layer metric values (traced runs only).
    pub layer: Values,
    /// Operations attempted: timed requests plus correctness checks.
    pub attempted: u64,
    /// Failed operations: error replies, timeouts, gate mismatches.
    pub failed: u64,
    /// Human-readable findings printed above the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one correctness check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.check_many(1, u64::from(!ok), what);
    }

    /// Records `checks` correctness checks of which `mismatches` failed.
    pub fn check_many(&mut self, checks: u64, mismatches: u64, what: &str) {
        self.attempted += checks;
        self.failed += mismatches;
        if mismatches > 0 {
            self.notes
                .push(format!("GATE FAILED: {what} ({mismatches} of {checks})"));
        }
    }
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn run() -> Result<i32, String> {
    if !Path::new("BENCHMARK.json").is_file() || !Path::new("crates").is_dir() {
        return Err("run from the repository root".into());
    }
    let args = Args::parse(std::env::args().skip(1))?;
    let prov = provenance::Provenance::collect(args.seed, serve::OPEN_RATE_SPS)?;
    let nproc = prov.nproc;
    let outcome = match args.workload {
        Workload::LearnN400 => learn::run(&args, nproc)?,
        Workload::ServeClosed => serve::run_closed(&args, nproc)?,
        Workload::ClusterOpen => serve::run_open(&args, nproc)?,
    };

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("provenance: {}", prov.line());
    for note in &outcome.notes {
        println!("note: {note}");
    }
    print_table("end-to-end", END_TO_END, &outcome.e2e);
    if args.trace {
        print_table("per-layer", PER_LAYER, &outcome.layer);
    }
    let failed_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "gate: attempted={} failed={} failed_ratio={failed_ratio}",
        outcome.attempted, outcome.failed
    );

    let (set, values) = if args.trace {
        (PER_LAYER, &outcome.layer)
    } else {
        (END_TO_END, &outcome.e2e)
    };
    let correct = outcome.failed == 0;
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics::render(set, values)?
    );
    write_result(&args, &prov, &line)?;
    println!("{line}");
    Ok(if correct { 0 } else { 1 })
}

fn print_table(title: &str, set: &[Metric], values: &Values) {
    println!("{title}:");
    for metric in set {
        let value = values.get(metric.name).copied().unwrap_or(f64::NAN);
        println!(
            "  {:<44} {:>18.6} {:<9} {:<6}  {}",
            metric.name,
            value,
            metric.unit,
            metric.better.as_str(),
            metric.note
        );
    }
}

/// Keeps a provenance-stamped copy of the result under `perfbench/out/`.
fn write_result(args: &Args, prov: &provenance::Provenance, line: &str) -> Result<(), String> {
    let dir = Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let body = format!(
        "{{\"workload\": \"{}\", \"seconds\": {:?}, \"provenance\": {}, \"result\": {line}}}\n",
        args.workload.name(),
        args.seconds,
        prov.json()
    );
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))
}
