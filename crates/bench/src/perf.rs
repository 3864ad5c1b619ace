//! Machine-readable perf-smoke format and the CI regression gate.
//!
//! The `perf-smoke` CI job runs a short fixed-seed tuning sweep
//! (`strategy_sweep --json`), writes the resulting [`PerfSummary`] as
//! `BENCH_5.json`, and compares it against the committed
//! `ci/bench-baseline.json` with [`gate`]: a throughput drop beyond the
//! allowed fraction fails the build. Local runs share the exact same
//! format, so a developer can regenerate the baseline with one command
//! (see `ci/bench-baseline.json` for the provenance line).

use serde::{Deserialize, Serialize};

/// Format marker so the gate can reject files from other tools or
/// incompatible revisions instead of mis-parsing them.
///
/// v3: documents carry the sweep's fidelity-mode label (a
/// `FidelitySpec` digest or an escalation-policy name), and the gates
/// refuse cross-fidelity comparisons; v2 baselines predate the
/// pipelined timing tier and the unified spec and are rejected rather
/// than compared against a sweep whose fidelity is unknown.
///
/// v2: documents carry the replay-engine identity plus per-engine
/// replay-throughput counters (`replay_nanos`, `replay_trials_per_sec`);
/// v1 baselines predate the engine ladder.
pub const PERF_SCHEMA: &str = "simtune-perf-smoke-v3";

/// Per-strategy measurement of one sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StrategyPerf {
    /// Strategy label ("random", "grid", ...).
    pub name: String,
    /// Best (lowest) score the strategy found.
    pub best_score: f64,
    /// Evaluated trials (history length — failed builds included, the
    /// same definition [`PerfTotals::trials`] sums).
    pub trials: u64,
    /// Simulations submitted to the session (successful builds only;
    /// memo hits included).
    pub simulations: u64,
    /// Wall-clock of the whole tuning run, in seconds.
    pub wall_seconds: f64,
    /// `trials / wall_seconds`.
    pub trials_per_sec: f64,
    /// Producer-side stage split, nanoseconds:
    /// `[propose, build, sim_blocked, score]`. `sim_blocked` only counts
    /// time the loop *waited* on the worker pool — simulation hidden
    /// behind the pipelined build never shows up here.
    pub stage_nanos: [u64; 4],
    /// Fraction of trials escalated to the accurate tier
    /// (`accurate_runs / trials`). `null` for accurate-only runs, set
    /// for both escalated fidelity modes (`--fidelity topk|predicted`).
    pub escalation_rate: Option<f64>,
    /// Accurate simulations the predicted tier answered from the model
    /// instead (finite-scored, never accurately verified candidates).
    /// `null` unless the run used `--fidelity predicted`.
    pub avoided_simulations: Option<u64>,
    /// Normalized mean absolute rank displacement between the online
    /// model's predicted ordering and the accurate ordering of the
    /// escalated candidates (0 = identical ranking, 1 = full reversal).
    /// `null` unless the run used `--fidelity predicted`.
    pub mean_abs_rank_error: Option<f64>,
    /// Host nanoseconds this process spent inside simulator replay for
    /// this strategy (`TuneResult::replay_nanos`): only trials a pool
    /// worker executed count, memo hits add nothing — pure replay time,
    /// excluding propose/build/score and pool scheduling.
    pub replay_nanos: u64,
    /// `trials / (replay_nanos / 1e9)` — replay-only throughput, the
    /// number the engine ladder moves; `0` when nothing replayed. The
    /// numerator counts every trial, memo-served ones included.
    pub replay_trials_per_sec: f64,
}

/// Sweep-wide totals — what the regression gate compares.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfTotals {
    /// Trials evaluated across all strategies (sum of
    /// [`StrategyPerf::trials`]; same definition as the per-strategy
    /// rows, so rows and totals are directly comparable).
    pub trials: u64,
    /// Wall-clock of the measured region, in seconds.
    pub wall_seconds: f64,
    /// `trials / wall_seconds` — the gated throughput number.
    pub trials_per_sec: f64,
    /// Memo-cache hits across the sweep (one cache is shared by every
    /// strategy, so cross-strategy revisits are answered from memory).
    pub memo_hits: u64,
    /// Memo-cache misses across the sweep.
    pub memo_misses: u64,
    /// `hits / (hits + misses)`, 0 when the cache was never consulted.
    pub memo_hit_rate: f64,
    /// Sweep-wide replay-only throughput: total trials divided by the
    /// summed [`StrategyPerf::replay_nanos`] in seconds; `0` when the
    /// sweep never replayed (e.g. a fully memoized warm rerun).
    pub replay_trials_per_sec: f64,
}

/// The `BENCH_5.json` document: one fixed-seed sweep, summarized.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfSummary {
    /// Always [`PERF_SCHEMA`].
    pub schema: String,
    /// The exact command that produced this document — run it again to
    /// regenerate a baseline after an intentional perf change.
    pub provenance: String,
    /// Target architecture of the sweep ("riscv", ...).
    pub arch: String,
    /// Base seed; the sweep is bit-deterministic under it.
    pub seed: u64,
    /// Replay-engine label the sweep ran on
    /// (`interp|decoded`). Engines are bit-identical in
    /// results but not in speed, so the gate refuses to compare sweeps
    /// across engines.
    pub engine: String,
    /// Fidelity-mode label the sweep ran under: a
    /// `simtune_core::FidelitySpec` digest (`accurate`,
    /// `pipelined:btb=512,ras=8`, ...) or an escalation-policy name
    /// (`topk`, `predicted`). Tiers trade timing detail for speed, so
    /// the gate refuses to compare sweeps across fidelities.
    pub fidelity: String,
    /// Trials per strategy.
    pub n_trials: u64,
    /// Parallel simulator instances (pool workers).
    pub n_parallel: u64,
    /// Per-strategy measurements.
    pub strategies: Vec<StrategyPerf>,
    /// Sweep-wide totals.
    pub totals: PerfTotals,
}

impl PerfSummary {
    /// Serializes to the compact JSON the CI artifact stores.
    ///
    /// # Errors
    ///
    /// Propagates serializer errors (infallible for this data model).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Parses a `BENCH_5.json` / baseline document.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed JSON or a foreign `schema`.
    pub fn from_json(input: &str) -> Result<Self, String> {
        let summary: PerfSummary =
            serde_json::from_str(input).map_err(|e| format!("malformed perf summary: {e:?}"))?;
        if summary.schema != PERF_SCHEMA {
            return Err(format!(
                "schema mismatch: expected {PERF_SCHEMA:?}, found {:?}",
                summary.schema
            ));
        }
        Ok(summary)
    }
}

/// Verdict of one gate comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// Baseline throughput (trials/sec).
    pub baseline_tps: f64,
    /// Current throughput (trials/sec).
    pub current_tps: f64,
    /// `1 - current/baseline`; negative means the current run is
    /// *faster* than the baseline.
    pub regression: f64,
    /// The failure threshold the comparison used.
    pub max_regression: f64,
}

impl GateReport {
    /// True when the current run is within the allowed envelope.
    pub fn passes(&self) -> bool {
        self.regression <= self.max_regression
    }

    /// One-line human verdict for the CI log.
    pub fn verdict(&self) -> String {
        format!(
            "throughput {:.1} -> {:.1} trials/sec ({}{:.1} %, limit -{:.0} %): {}",
            self.baseline_tps,
            self.current_tps,
            if self.regression <= 0.0 { "+" } else { "-" },
            self.regression.abs() * 100.0,
            self.max_regression * 100.0,
            if self.passes() { "PASS" } else { "FAIL" }
        )
    }
}

/// Compares a current sweep against the committed baseline.
///
/// Only throughput is gated — scores are bit-deterministic under the
/// fixed seed and guarded by the determinism test suite instead, and
/// the memo hit rate is reported for observability, not gated (it is a
/// property of the workload, not the host).
///
/// # Errors
///
/// Returns an error when the two documents are not comparable (different
/// workload shape) or the baseline throughput is not positive.
pub fn gate(
    current: &PerfSummary,
    baseline: &PerfSummary,
    max_regression: f64,
) -> Result<GateReport, String> {
    if current.arch != baseline.arch
        || current.seed != baseline.seed
        || current.n_trials != baseline.n_trials
        || current.engine != baseline.engine
        || current.fidelity != baseline.fidelity
    {
        return Err(format!(
            "incomparable sweeps: current ({}, seed {}, {} trials, {} engine, {} fidelity) vs baseline ({}, seed {}, {} trials, {} engine, {} fidelity)",
            current.arch, current.seed, current.n_trials, current.engine, current.fidelity,
            baseline.arch, baseline.seed, baseline.n_trials, baseline.engine, baseline.fidelity,
        ));
    }
    if !baseline.totals.trials_per_sec.is_finite() || baseline.totals.trials_per_sec <= 0.0 {
        return Err("baseline throughput must be positive".into());
    }
    let regression = 1.0 - current.totals.trials_per_sec / baseline.totals.trials_per_sec;
    Ok(GateReport {
        baseline_tps: baseline.totals.trials_per_sec,
        current_tps: current.totals.trials_per_sec,
        regression,
        max_regression,
    })
}

/// Verdict of one warm-start comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmReport {
    /// Memo hit rate of the warm sweep.
    pub hit_rate: f64,
    /// Minimum hit rate the comparison demanded.
    pub min_hit_rate: f64,
    /// `warm_tps / cold_tps`.
    pub speedup: f64,
    /// Minimum speedup the comparison demanded.
    pub min_speedup: f64,
}

impl WarmReport {
    /// True when the warm sweep both hit the cache and got faster.
    pub fn passes(&self) -> bool {
        self.hit_rate >= self.min_hit_rate && self.speedup >= self.min_speedup
    }

    /// One-line human verdict for the CI log.
    pub fn verdict(&self) -> String {
        format!(
            "warm start: hit rate {:.3} (need >= {:.3}), speedup {:.2}x (need >= {:.2}x): {}",
            self.hit_rate,
            self.min_hit_rate,
            self.speedup,
            self.min_speedup,
            if self.passes() { "PASS" } else { "FAIL" }
        )
    }
}

/// Compares a warm-start sweep (run over a cache snapshot the cold
/// sweep saved) against its cold counterpart: the warm run must answer
/// essentially every simulation from the restored memo and convert
/// that into a throughput win.
///
/// # Errors
///
/// Returns an error when the two documents describe different sweeps
/// (the warm rerun must replay the cold one exactly) or the cold
/// throughput is not positive.
pub fn warm_gate(
    warm: &PerfSummary,
    cold: &PerfSummary,
    min_hit_rate: f64,
    min_speedup: f64,
) -> Result<WarmReport, String> {
    if warm.arch != cold.arch
        || warm.seed != cold.seed
        || warm.n_trials != cold.n_trials
        || warm.totals.trials != cold.totals.trials
        || warm.engine != cold.engine
        || warm.fidelity != cold.fidelity
    {
        return Err(format!(
            "incomparable sweeps: warm ({}, seed {}, {} trials) vs cold ({}, seed {}, {} trials)",
            warm.arch, warm.seed, warm.totals.trials, cold.arch, cold.seed, cold.totals.trials,
        ));
    }
    if !cold.totals.trials_per_sec.is_finite() || cold.totals.trials_per_sec <= 0.0 {
        return Err("cold throughput must be positive".into());
    }
    Ok(WarmReport {
        hit_rate: warm.totals.memo_hit_rate,
        min_hit_rate,
        speedup: warm.totals.trials_per_sec / cold.totals.trials_per_sec,
        min_speedup,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(tps: f64) -> PerfSummary {
        PerfSummary {
            schema: PERF_SCHEMA.into(),
            provenance: "strategy_sweep --json (test fixture)".into(),
            arch: "riscv".into(),
            seed: 42,
            engine: "decoded".into(),
            fidelity: "accurate".into(),
            n_trials: 24,
            n_parallel: 4,
            strategies: vec![StrategyPerf {
                name: "random".into(),
                best_score: 0.5,
                trials: 24,
                simulations: 24,
                wall_seconds: 1.0,
                trials_per_sec: tps,
                stage_nanos: [1, 2, 3, 4],
                escalation_rate: None,
                avoided_simulations: None,
                mean_abs_rank_error: None,
                replay_nanos: 500_000_000,
                replay_trials_per_sec: 48.0,
            }],
            totals: PerfTotals {
                trials: 24,
                wall_seconds: 24.0 / tps,
                trials_per_sec: tps,
                memo_hits: 6,
                memo_misses: 18,
                memo_hit_rate: 0.25,
                replay_trials_per_sec: 48.0,
            },
        }
    }

    #[test]
    fn json_round_trips() {
        let s = summary(120.0);
        let parsed = PerfSummary::from_json(&s.to_json().unwrap()).unwrap();
        assert_eq!(parsed.arch, "riscv");
        assert_eq!(parsed.engine, "decoded");
        assert_eq!(parsed.fidelity, "accurate");
        assert_eq!(parsed.totals.memo_hits, 6);
        assert_eq!(parsed.strategies[0].stage_nanos, [1, 2, 3, 4]);
        assert_eq!(parsed.strategies[0].replay_nanos, 500_000_000);
        assert!((parsed.totals.replay_trials_per_sec - 48.0).abs() < 1e-9);
        assert!((parsed.totals.trials_per_sec - 120.0).abs() < 1e-9);
        // Accurate-only rows carry null predictor fields.
        assert!(parsed.strategies[0].escalation_rate.is_none());
        assert!(parsed.strategies[0].avoided_simulations.is_none());
        assert!(parsed.strategies[0].mean_abs_rank_error.is_none());
    }

    #[test]
    fn predictor_fields_round_trip_when_set() {
        let mut s = summary(120.0);
        s.strategies[0].escalation_rate = Some(0.25);
        s.strategies[0].avoided_simulations = Some(18);
        s.strategies[0].mean_abs_rank_error = Some(0.125);
        let parsed = PerfSummary::from_json(&s.to_json().unwrap()).unwrap();
        assert_eq!(parsed.strategies[0].escalation_rate, Some(0.25));
        assert_eq!(parsed.strategies[0].avoided_simulations, Some(18));
        assert_eq!(parsed.strategies[0].mean_abs_rank_error, Some(0.125));
    }

    #[test]
    fn foreign_schema_is_rejected() {
        let mut s = summary(120.0);
        s.schema = "something-else".into();
        let err = PerfSummary::from_json(&s.to_json().unwrap()).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
        assert!(PerfSummary::from_json("{not json").is_err());
    }

    #[test]
    fn gate_passes_within_envelope_and_fails_beyond() {
        let baseline = summary(100.0);
        // 10 % slower: within the 25 % envelope.
        let ok = gate(&summary(90.0), &baseline, 0.25).unwrap();
        assert!(ok.passes(), "{}", ok.verdict());
        assert!((ok.regression - 0.10).abs() < 1e-9);
        // 30 % slower: regression.
        let bad = gate(&summary(70.0), &baseline, 0.25).unwrap();
        assert!(!bad.passes(), "{}", bad.verdict());
        assert!(bad.verdict().contains("FAIL"));
        // Faster than baseline always passes.
        let fast = gate(&summary(140.0), &baseline, 0.25).unwrap();
        assert!(fast.passes());
        assert!(fast.regression < 0.0);
        assert!(fast.verdict().contains("PASS"));
    }

    #[test]
    fn warm_gate_demands_hits_and_speedup() {
        let cold = summary(100.0);
        let mut warm = summary(160.0);
        warm.totals.memo_hit_rate = 1.0;
        let ok = warm_gate(&warm, &cold, 0.99, 1.05).unwrap();
        assert!(ok.passes(), "{}", ok.verdict());
        assert!((ok.speedup - 1.6).abs() < 1e-9);
        // A cold-rate cache fails even when throughput improved.
        let mut missy = summary(160.0);
        missy.totals.memo_hit_rate = 0.25;
        let bad = warm_gate(&missy, &cold, 0.99, 1.05).unwrap();
        assert!(!bad.passes(), "{}", bad.verdict());
        // A perfectly warm cache that got *slower* fails too.
        let mut slow = summary(90.0);
        slow.totals.memo_hit_rate = 1.0;
        let bad = warm_gate(&slow, &cold, 0.99, 1.05).unwrap();
        assert!(!bad.passes(), "{}", bad.verdict());
        assert!(bad.verdict().contains("FAIL"));
        // Different sweeps are not comparable.
        let mut other = summary(160.0);
        other.seed = 9;
        assert!(warm_gate(&other, &cold, 0.99, 1.05).is_err());
    }

    #[test]
    fn gate_rejects_incomparable_sweeps() {
        let baseline = summary(100.0);
        let mut other = summary(100.0);
        other.seed = 7;
        assert!(gate(&other, &baseline, 0.25).is_err());
        let mut zero = summary(100.0);
        zero.totals.trials_per_sec = 0.0;
        assert!(gate(&summary(90.0), &zero, 0.25).is_err());
    }

    #[test]
    fn gates_refuse_cross_engine_comparisons() {
        // Engines are bit-identical in results but not in speed: a
        // interp sweep gated against a decoded baseline would hide
        // (or fake) regressions, so both gates demand matching engines.
        let baseline = summary(100.0);
        let mut interp = summary(100.0);
        interp.engine = "interp".into();
        let err = gate(&interp, &baseline, 0.25).unwrap_err();
        assert!(err.contains("engine"), "{err}");
        assert!(warm_gate(&interp, &baseline, 0.99, 1.05).is_err());
    }

    #[test]
    fn gates_refuse_cross_fidelity_comparisons() {
        // A pipelined sweep pays cycle accounting the accurate baseline
        // never did; comparing their throughput would gate apples
        // against oranges.
        let baseline = summary(100.0);
        let mut pipelined = summary(100.0);
        pipelined.fidelity = "pipelined:btb=512,ras=8".into();
        let err = gate(&pipelined, &baseline, 0.25).unwrap_err();
        assert!(err.contains("fidelity"), "{err}");
        assert!(warm_gate(&pipelined, &baseline, 0.99, 1.05).is_err());
    }
}
