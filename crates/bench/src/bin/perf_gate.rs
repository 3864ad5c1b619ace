//! CI perf-regression gate: compares a fresh `BENCH_5.json` (written by
//! `strategy_sweep --json`) against the committed
//! `ci/bench-baseline.json` and exits non-zero when sweep throughput
//! regressed beyond the allowed fraction.
//!
//! ```text
//! cargo run --release --bin perf_gate -- \
//!     --current BENCH_5.json --baseline ci/bench-baseline.json --max-regression 0.25
//! ```
//!
//! The baseline file holds one JSON document per line — one entry per
//! gated fidelity (`accurate`, `pipelined:btb=512,ras=8`, ...). The
//! gate picks the line whose `fidelity` matches the current sweep and
//! errors when no entry covers it, so adding a fidelity to the CI
//! sweep without regenerating the baseline fails loudly.
//!
//! `--warm` switches to the warm-start comparison: `--current` is a
//! resweep over a reloaded cache snapshot, `--baseline` the cold sweep
//! that wrote it, and the gate demands a near-perfect memo hit rate
//! plus a throughput win instead of mere non-regression:
//!
//! ```text
//! cargo run --release --bin perf_gate -- \
//!     --warm --current BENCH_5_WARM.json --baseline BENCH_5.json \
//!     --min-hit-rate 0.99 --min-speedup 1.05
//! ```
//!
//! Scores are *not* gated here: the fixed-seed sweep is bit-deterministic
//! and its results are locked down by `crates/core/tests/pool_determinism.rs`;
//! this gate only watches the harness's speed.

use simtune_bench::{gate, warm_gate, PerfSummary};
use std::process::ExitCode;

struct GateArgs {
    current: String,
    baseline: String,
    max_regression: f64,
    warm: bool,
    min_hit_rate: f64,
    min_speedup: f64,
}

/// One-line flag summary, printed after the program name under every
/// command-line error.
const USAGE: &str = "--current PATH --baseline PATH [--max-regression F] \
[--warm [--min-hit-rate F] [--min-speedup X]]";

/// Parses a flag value and checks it against the range the flag
/// documents; `range` names that range in the error message.
fn bounded(flag: &str, value: &str, range: &str, ok: impl Fn(f64) -> bool) -> Result<f64, String> {
    match value.parse::<f64>() {
        Ok(v) if ok(v) => Ok(v),
        _ => Err(format!("{flag} must be {range}, got {value:?}")),
    }
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<GateArgs, String> {
    let mut current = None;
    let mut baseline = None;
    let mut max_regression = 0.25;
    let mut warm = false;
    let mut min_hit_rate = 0.99;
    let mut min_speedup = 1.05;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut need = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--current" => current = Some(need("--current")?),
            "--baseline" => baseline = Some(need("--baseline")?),
            "--max-regression" => {
                let v = need("--max-regression")?;
                max_regression = bounded("--max-regression", &v, "a fraction in (0, 1)", |x| {
                    x > 0.0 && x < 1.0
                })?;
            }
            "--warm" => warm = true,
            "--min-hit-rate" => {
                let v = need("--min-hit-rate")?;
                min_hit_rate = bounded("--min-hit-rate", &v, "a fraction in [0, 1]", |x| {
                    (0.0..=1.0).contains(&x)
                })?;
            }
            "--min-speedup" => {
                let v = need("--min-speedup")?;
                min_speedup = bounded("--min-speedup", &v, "a factor >= 1", |x| x >= 1.0)?;
            }
            "--help" | "-h" => return Err("help requested".into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(GateArgs {
        current: current.ok_or("--current <BENCH_5.json> is required")?,
        baseline: baseline.ok_or("--baseline <ci/bench-baseline.json> is required")?,
        max_regression,
        warm,
        min_hit_rate,
        min_speedup,
    })
}

fn load(path: &str) -> Result<PerfSummary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    PerfSummary::from_json(text.trim()).map_err(|e| format!("parsing {path}: {e}"))
}

/// Loads the baseline entry matching the current sweep's fidelity. The
/// baseline is JSONL — one `PerfSummary` per gated fidelity.
fn load_baseline(path: &str, current: &PerfSummary) -> Result<PerfSummary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut entries = Vec::new();
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        entries.push(PerfSummary::from_json(line).map_err(|e| format!("parsing {path}: {e}"))?);
    }
    let n = entries.len();
    entries
        .into_iter()
        .find(|b| b.fidelity == current.fidelity)
        .ok_or_else(|| {
            format!(
                "no baseline entry for fidelity {:?} in {path} ({n} entries); \
                 regenerate it with the provenance command of an existing entry \
                 plus the new --fidelity value",
                current.fidelity
            )
        })
}

fn print_summaries(current: &PerfSummary, baseline: &PerfSummary) {
    println!(
        "  current : {:>8.1} trials/sec, memo hit rate {:>5.1} % ({} trials)",
        current.totals.trials_per_sec,
        current.totals.memo_hit_rate * 100.0,
        current.totals.trials
    );
    println!(
        "  baseline: {:>8.1} trials/sec, memo hit rate {:>5.1} % ({} trials)",
        baseline.totals.trials_per_sec,
        baseline.totals.memo_hit_rate * 100.0,
        baseline.totals.trials
    );
    for s in &current.strategies {
        println!(
            "  {:>13}: {:>8.1} trials/sec, best {:.4}, stages p/b/s/s = {:?} ms",
            s.name,
            s.trials_per_sec,
            s.best_score,
            s.stage_nanos.map(|n| n / 1_000_000)
        );
    }
}

fn run(args: &GateArgs) -> Result<bool, String> {
    let current = load(&args.current)?;
    let baseline = load_baseline(&args.baseline, &current)?;
    let passes = if args.warm {
        let report = warm_gate(&current, &baseline, args.min_hit_rate, args.min_speedup)?;
        println!("perf gate: {}", report.verdict());
        report.passes()
    } else {
        let report = gate(&current, &baseline, args.max_regression)?;
        println!("perf gate: {}", report.verdict());
        report.passes()
    };
    print_summaries(&current, &baseline);
    Ok(passes)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\nusage: perf_gate {USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            if args.warm {
                eprintln!(
                    "perf gate FAILED: the warm-start resweep did not replay from the snapshot \
                     (hit rate < {:.2} or speedup < {:.2}x)",
                    args.min_hit_rate, args.min_speedup
                );
                eprintln!(
                    "the snapshot, cold and warm JSON documents are uploaded as CI artifacts"
                );
            } else {
                eprintln!(
                    "perf gate FAILED: throughput regressed more than {:.0} % vs the committed baseline",
                    args.max_regression * 100.0
                );
                eprintln!("if the regression is intended, regenerate ci/bench-baseline.json (see that file's provenance line)");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perf gate error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<GateArgs, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    fn parse_err(s: &str) -> String {
        parse(s).err().expect("must be rejected")
    }

    #[test]
    fn defaults_apply_when_only_paths_are_given() {
        let a = parse("--current c.json --baseline b.json").unwrap();
        assert_eq!(
            (a.current.as_str(), a.baseline.as_str()),
            ("c.json", "b.json")
        );
        assert_eq!(a.max_regression, 0.25);
        assert!(!a.warm);
        assert_eq!((a.min_hit_rate, a.min_speedup), (0.99, 1.05));
        let w = parse("--warm --current c --baseline b --min-hit-rate 1 --min-speedup 1").unwrap();
        assert!(w.warm);
        assert_eq!((w.min_hit_rate, w.min_speedup), (1.0, 1.0));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(parse_err("--bogus").contains("unknown flag --bogus"));
        assert!(parse_err("--help").contains("help"));
    }

    #[test]
    fn missing_values_are_rejected() {
        assert!(parse_err("--current").contains("--current needs a value"));
        assert!(parse_err("--current c --baseline b --max-regression")
            .contains("--max-regression needs a value"));
    }

    #[test]
    fn missing_paths_are_rejected() {
        assert!(parse_err("--baseline b").contains("--current"));
        assert!(parse_err("--current c").contains("--baseline"));
    }

    #[test]
    fn max_regression_must_lie_in_the_open_unit_interval() {
        for bad in ["5", "1", "0", "-0.1", "NaN", "lots"] {
            let err = parse_err(&format!("--current c --baseline b --max-regression {bad}"));
            assert!(err.contains("(0, 1)"), "{bad}: {err}");
        }
        let ok = parse("--current c --baseline b --max-regression 0.5").unwrap();
        assert_eq!(ok.max_regression, 0.5);
    }

    #[test]
    fn min_hit_rate_must_lie_in_the_closed_unit_interval() {
        for bad in ["1.5", "-0.01", "NaN"] {
            let err = parse_err(&format!("--current c --baseline b --min-hit-rate {bad}"));
            assert!(err.contains("[0, 1]"), "{bad}: {err}");
        }
        let ok = parse("--current c --baseline b --min-hit-rate 0").unwrap();
        assert_eq!(ok.min_hit_rate, 0.0);
    }

    #[test]
    fn min_speedup_must_be_at_least_one() {
        for bad in ["0.9", "0", "NaN"] {
            let err = parse_err(&format!("--current c --baseline b --min-speedup {bad}"));
            assert!(err.contains(">= 1"), "{bad}: {err}");
        }
    }
}
