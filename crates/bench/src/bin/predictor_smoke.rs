//! CI smoke gate for the learned fidelity tier (`PredictedBackend` +
//! `EscalationPolicy::Uncertainty`).
//!
//! One fixed-seed experiment on the paper's smoke-scale Conv2D group,
//! three tuning modes over the same strategy, seed and trial budget:
//!
//! 1. **accurate-only** — every trial simulates accurately (the
//!    paper's baseline; `n_trials` accurate simulations);
//! 2. **static top-k** — cheap exploration, the fixed top-k finalists
//!    re-simulate accurately (`EscalationPolicy::TopK`);
//! 3. **uncertainty** — the learned tier with a tight escalation
//!    budget (`EscalationPolicy::Uncertainty`).
//!
//! The gate passes only when:
//!
//! * the offline score predictor ranks a held-out slice of the training
//!   group with Spearman ≥ 0.8 (predictor-accuracy probe);
//! * the uncertainty tune spends **strictly fewer** accurate
//!   simulations than both baselines;
//! * its winner's noise-free target runtime
//!   (`simtune_hw::measure_base_seconds` — deterministic ground truth,
//!   independent of any score-normalization stream) is within 5 % of
//!   the accurate-only winner's.
//!
//! Stdout is one JSON document (the `BENCH_PREDICTOR.json` CI
//! artifact); failures additionally print to stderr and exit nonzero.

use serde::{Deserialize, Serialize};
use simtune_bench::Scale;
use simtune_core::{
    collect_group_data, tune_with_fidelity_escalation, tune_with_predictor, CollectOptions,
    EscalationOptions, EscalationPolicy, GroupData, KernelBuilder, ScorePredictor, StrategySpec,
    TuneOptions, TuneRecord, UncertaintyPolicy,
};
use simtune_hw::{measure_base_seconds, TargetSpec};
use simtune_linalg::stats::spearman;
use simtune_predict::PredictorKind;
use simtune_tensor::conv2d_bias_relu;

/// Schema tag of the JSON document this binary emits.
pub const SMOKE_SCHEMA: &str = "simtune-predictor-smoke-v1";

/// One tuning mode's outcome (accurate simulations spent + winner
/// runtime under the common noise-free timing model).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ModeReport {
    /// Mode label (`accurate` / `topk` / `predicted`).
    mode: String,
    /// Accurate simulations the mode spent.
    accurate_sims: u64,
    /// The winner's noise-free target runtime in seconds (directly
    /// comparable across modes; lower = better).
    winner_seconds: f64,
}

/// The whole gate outcome, serialized as `BENCH_PREDICTOR.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SmokeReport {
    /// Schema tag ([`SMOKE_SCHEMA`]).
    schema: String,
    /// Target architecture.
    arch: String,
    /// Seed shared by every mode.
    seed: u64,
    /// Trial budget shared by every mode.
    n_trials: u64,
    /// Held-out Spearman of the offline score predictor.
    spearman: f64,
    /// Per-mode accurate-simulation spend and winner runtime.
    modes: Vec<ModeReport>,
    /// Learned-tier counters from the uncertainty run.
    escalation_rate: f64,
    /// Candidates the model settled without accurate simulation.
    avoided_simulations: u64,
    /// Normalized rank displacement of the online model.
    mean_abs_rank_error: f64,
    /// True when every gate condition held.
    pass: bool,
}

/// Splits one collected group into train/held-out halves by index.
fn split(data: &GroupData, train: usize) -> (GroupData, GroupData) {
    let cut = train.min(data.len());
    let part = |lo: usize, hi: usize| GroupData {
        group_id: data.group_id,
        stats: data.stats[lo..hi].to_vec(),
        t_ref: data.t_ref[lo..hi].to_vec(),
        base_seconds: data.base_seconds[lo..hi].to_vec(),
        sim_seconds: data.sim_seconds[lo..hi].to_vec(),
        descriptions: data.descriptions[lo..hi].to_vec(),
    };
    (part(0, cut), part(cut, data.len()))
}

fn main() {
    // The experiment is fixed; any argument is a mistake, not a knob.
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("predictor_smoke takes no arguments, got {arg:?}");
        eprintln!("usage: predictor_smoke");
        std::process::exit(2);
    }
    let arch = "riscv";
    let seed = 42u64;
    let n_trials = 48usize;
    let spec = TargetSpec::by_name(arch).expect("known arch");
    let shape = Scale::Smoke.conv_groups()[1];
    let def = conv2d_bias_relu(&shape);

    // Offline predictor + held-out Spearman probe.
    eprintln!("[smoke] collecting training group...");
    let data = collect_group_data(
        &def,
        &spec,
        1,
        &CollectOptions {
            n_impls: 32,
            n_parallel: 2,
            seed,
            max_attempts_factor: 40,
            ..CollectOptions::default()
        },
    )
    .expect("collection");
    let (train, held) = split(&data, 24);
    let mut predictor = ScorePredictor::new(PredictorKind::Xgboost, arch, "conv2d_bias_relu", 1);
    predictor
        .train(std::slice::from_ref(&train))
        .expect("training");
    let predicted = predictor.score_group(&held.stats).expect("held-out scores");
    let rho = spearman(&predicted, &held.t_ref);
    eprintln!(
        "[smoke] held-out Spearman over {} impls: {rho:.3}",
        held.len()
    );

    // Three modes, identical strategy/seed/budget.
    let opts = TuneOptions {
        n_trials,
        batch_size: 12,
        n_parallel: 2,
        seed,
        strategy: StrategySpec::Evolutionary,
        ..TuneOptions::default()
    };
    eprintln!("[smoke] mode 1/3: accurate-only ({n_trials} trials)...");
    let accurate = tune_with_predictor(&def, &spec, &predictor, &opts).expect("accurate tune");
    eprintln!("[smoke] mode 2/3: static top-k...");
    let topk = tune_with_fidelity_escalation(
        &def,
        &spec,
        &predictor,
        &opts,
        &EscalationOptions::default(),
    )
    .expect("top-k tune");
    eprintln!("[smoke] mode 3/3: uncertainty escalation...");
    let unc = tune_with_fidelity_escalation(
        &def,
        &spec,
        &predictor,
        &opts,
        &EscalationOptions {
            policy: EscalationPolicy::Uncertainty(UncertaintyPolicy {
                min_train: 4,
                refit_every: 4,
                budget: Some(6),
                ..UncertaintyPolicy::default()
            }),
            ..EscalationOptions::default()
        },
    )
    .expect("uncertainty tune");
    let ps = unc.result.predictor.expect("uncertainty runs report stats");

    // Winner quality, apples to apples: rebuild all three winners and
    // compare their deterministic, noise-free target runtimes. Each
    // mode's own best *scores* come from different normalizer streams
    // and are not directly comparable.
    let builder = KernelBuilder::new(def.clone(), spec.isa.clone());
    let winners: Vec<&TuneRecord> = vec![accurate.best(), topk.result.best(), unc.result.best()];
    let seconds: Vec<f64> = winners
        .iter()
        .enumerate()
        .map(|(i, rec)| {
            let exe = builder
                .build(&rec.schedule, &format!("winner{i}"))
                .expect("winner builds");
            measure_base_seconds(&exe, &spec).expect("winner measures")
        })
        .collect();
    let (acc_best, topk_best, unc_best) = (seconds[0], seconds[1], seconds[2]);

    let acc_sims = accurate.simulations as u64;
    let topk_sims = topk.accurate_runs as u64;
    let unc_sims = unc.accurate_runs as u64;
    // Within 5 % of the accurate-only winner's runtime.
    let quality_ok = unc_best <= acc_best * 1.05;
    let savings_ok = unc_sims < topk_sims && unc_sims < acc_sims;
    let spearman_ok = rho >= 0.8;
    let pass = quality_ok && savings_ok && spearman_ok;

    let report = SmokeReport {
        schema: SMOKE_SCHEMA.into(),
        arch: arch.into(),
        seed,
        n_trials: n_trials as u64,
        spearman: rho,
        modes: vec![
            ModeReport {
                mode: "accurate".into(),
                accurate_sims: acc_sims,
                winner_seconds: acc_best,
            },
            ModeReport {
                mode: "topk".into(),
                accurate_sims: topk_sims,
                winner_seconds: topk_best,
            },
            ModeReport {
                mode: "predicted".into(),
                accurate_sims: unc_sims,
                winner_seconds: unc_best,
            },
        ],
        escalation_rate: unc_sims as f64 / unc.result.history.len().max(1) as f64,
        avoided_simulations: ps.avoided_simulations,
        mean_abs_rank_error: ps.mean_abs_rank_error,
        pass,
    };
    println!("{}", serde_json::to_string(&report).expect("serializes"));

    eprintln!(
        "[smoke] accurate sims: accurate-only {acc_sims}, topk {topk_sims}, uncertainty {unc_sims}"
    );
    eprintln!(
        "[smoke] winner runtimes (s): accurate-only {acc_best:.3e}, topk {topk_best:.3e}, uncertainty {unc_best:.3e}"
    );
    if !spearman_ok {
        eprintln!("[smoke] FAIL: held-out Spearman {rho:.3} < 0.8");
    }
    if !savings_ok {
        eprintln!(
            "[smoke] FAIL: uncertainty must spend strictly fewer accurate sims than both baselines"
        );
    }
    if !quality_ok {
        eprintln!(
            "[smoke] FAIL: uncertainty winner {unc_best:.3e}s outside the 5 % band of {acc_best:.3e}s"
        );
    }
    if !pass {
        std::process::exit(1);
    }
    eprintln!("[smoke] PASS");
}
