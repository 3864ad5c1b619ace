//! Command-line entry point of the simtune benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-x86-smoke --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`). Progress and
//! layer breakdowns go to standard error. The exit code is nonzero when
//! a correctness check failed or the arguments are invalid.

use simtune_perfbench::cold::{self, COLD_RISCV_QUARTER, COLD_X86_SMOKE};
use simtune_perfbench::report::Report;
use simtune_perfbench::warm::{self, WARM_SERVE_RISCV};
use std::process::ExitCode;

const USAGE: &str = "usage: simtune-perfbench --workload <cold-x86-smoke|cold-riscv-quarter|warm-serve-riscv> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let out = match (args.workload.as_str(), args.trace) {
        ("cold-x86-smoke", false) => cold::run(&COLD_X86_SMOKE, args.seed, args.seconds),
        ("cold-x86-smoke", true) => cold::run_traced(&COLD_X86_SMOKE, args.seed),
        ("cold-riscv-quarter", false) => cold::run(&COLD_RISCV_QUARTER, args.seed, args.seconds),
        ("cold-riscv-quarter", true) => cold::run_traced(&COLD_RISCV_QUARTER, args.seed),
        ("warm-serve-riscv", false) => warm::run(&WARM_SERVE_RISCV, args.seed, args.seconds),
        ("warm-serve-riscv", true) => warm::run_traced(&WARM_SERVE_RISCV, args.seed),
        (other, _) => return Err(format!("unknown workload {other:?}")),
    };
    out.map_err(|e| format!("workload failed: {e}"))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.correct && report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
