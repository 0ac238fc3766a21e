//! UpKit update-path benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <device_update|generation_batch|campaign|dissemination> \
//!     --seed <n> [--seconds <s>] --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process: set-up (repeated,
//! median reported), a closed loop timed for `--seconds` (default 20, the
//! run length of `BENCHMARK.json`), and output checks computed apart from
//! the program. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! also writes its spans to `perfbench/traces/<workload>-seed<n>.jsonl`. A
//! wrong output exits with status 1 after printing the result.

mod batch;
mod campaign;
mod checks;
mod device;
mod device_update;
mod dissemination;
mod generation_batch;
mod host;
mod layers;
mod replay;
mod spans;
mod stats;

use std::time::Instant;

use spans::SpanLog;
use stats::{median, Outcome};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 4] = [
    "device_update",
    "generation_batch",
    "campaign",
    "dissemination",
];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    // BENCHMARK.json's `run_seconds`.
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
            }
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let steal_before = host::steal_ticks();
    let outcome = match args.workload.as_str() {
        "device_update" => device_update::run(&args),
        "generation_batch" => generation_batch::run(&args),
        "campaign" => campaign::run(&args),
        _ => dissemination::run(&args),
    };
    let steal = match (steal_before, host::steal_ticks()) {
        (Some(a), Some(b)) => (b - a).to_string(),
        _ => "unavailable".into(),
    };
    println!(
        "# workload={} seed={} trace={} attempted={} failed={} threads={} nproc={} steal_ticks={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed,
        outcome.threads,
        host::nproc(),
        steal
    );
    println!("{}", outcome.to_json());
    if !outcome.correct {
        std::process::exit(1);
    }
}

/// Runs `setup` `times` times and keeps the last result, with the median
/// set-up time in seconds.
pub fn setup_repeated<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut walls = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        walls.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&walls))
}

/// Writes a traced run's spans next to the benchmark's sources.
pub fn write_spans(args: &Args, log: &SpanLog, events: &[(String, u64)]) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) = log.write(&path, events) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// A new outcome with no operations yet.
pub fn outcome(threads: usize) -> Outcome {
    Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        threads,
    }
}
