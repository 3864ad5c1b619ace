//! The determinism contract of the fidelity-escalation flows: same
//! seed + same policy ⇒ bit-identical [`TuneResult`] at every
//! `n_parallel`, for the static top-k policy and the learned
//! uncertainty policy alike.
//!
//! The uncertainty flow is the delicate one — its online model is
//! trained *during* the sweep, so any parallelism-dependent reordering
//! of observations would change what the model learns and thereby which
//! candidates escalate. Everything model-facing runs on the producer
//! thread in submission order, which is what these tests pin.

use simtune_core::{
    collect_group_data, tune_with_fidelity_escalation, CollectOptions, EscalatedTuneResult,
    EscalationOptions, EscalationPolicy, ScorePredictor, SimCache, StrategySpec, TuneOptions,
    UncertaintyPolicy,
};
use simtune_hw::TargetSpec;
use simtune_predict::PredictorKind;
use simtune_tensor::{matmul, ComputeDef};
use std::sync::Arc;

fn workload() -> (ComputeDef, TargetSpec) {
    (matmul(8, 8, 8), TargetSpec::riscv_u74())
}

fn trained_predictor(def: &ComputeDef, spec: &TargetSpec) -> ScorePredictor {
    let data = collect_group_data(
        def,
        spec,
        0,
        &CollectOptions {
            n_impls: 16,
            n_parallel: 4,
            seed: 5,
            max_attempts_factor: 40,
            ..CollectOptions::default()
        },
    )
    .expect("training data collects");
    let mut predictor = ScorePredictor::new(PredictorKind::LinReg, "riscv", "matmul", 1);
    predictor
        .train(std::slice::from_ref(&data))
        .expect("predictor trains");
    predictor
}

fn run(
    def: &ComputeDef,
    spec: &TargetSpec,
    predictor: &ScorePredictor,
    esc: &EscalationOptions,
    n_parallel: usize,
) -> EscalatedTuneResult {
    // A guided strategy makes the test sharp: evolutionary proposals
    // depend on observed scores, so any score divergence across
    // parallelism degrees would cascade into different candidates.
    let opts = TuneOptions {
        n_trials: 24,
        batch_size: 8,
        n_parallel,
        seed: 9,
        strategy: StrategySpec::Evolutionary,
        ..TuneOptions::default()
    };
    tune_with_fidelity_escalation(def, spec, predictor, &opts, esc).expect("escalated tune runs")
}

/// Everything except wall-clock timings must match bit-for-bit.
fn assert_identical(a: &EscalatedTuneResult, b: &EscalatedTuneResult, label: &str) {
    assert_eq!(
        a.result.history.len(),
        b.result.history.len(),
        "{label}: history length"
    );
    for (i, (ra, rb)) in a.result.history.iter().zip(&b.result.history).enumerate() {
        assert_eq!(ra.description, rb.description, "{label}: candidate {i}");
        assert_eq!(
            ra.score.to_bits(),
            rb.score.to_bits(),
            "{label}: score of candidate {i} ({} vs {})",
            ra.score,
            rb.score
        );
    }
    assert_eq!(
        a.result.best_index, b.result.best_index,
        "{label}: best index"
    );
    assert_eq!(a.explore_runs, b.explore_runs, "{label}: explore runs");
    assert_eq!(a.accurate_runs, b.accurate_runs, "{label}: accurate runs");
    assert_eq!(
        a.result.predictor, b.result.predictor,
        "{label}: predictor stats"
    );
}

fn uncertainty(kind: PredictorKind) -> EscalationOptions {
    EscalationOptions {
        policy: EscalationPolicy::Uncertainty(UncertaintyPolicy {
            predictor: kind,
            confidence: 1.0,
            min_train: 4,
            refit_every: 4,
            budget: None,
        }),
        ..EscalationOptions::default()
    }
}

#[test]
fn uncertainty_escalation_is_identical_at_every_parallelism() {
    let (def, spec) = workload();
    let predictor = trained_predictor(&def, &spec);
    for kind in [PredictorKind::LinReg, PredictorKind::Xgboost] {
        let esc = uncertainty(kind);
        let base = run(&def, &spec, &predictor, &esc, 1);
        assert!(base.result.best().score.is_finite());
        assert!(base.result.predictor.is_some());
        for n_parallel in [2, 4] {
            let other = run(&def, &spec, &predictor, &esc, n_parallel);
            assert_identical(
                &base,
                &other,
                &format!("{} n_parallel={n_parallel}", kind.label()),
            );
        }
    }
}

#[test]
fn topk_escalation_is_identical_at_every_parallelism() {
    let (def, spec) = workload();
    let predictor = trained_predictor(&def, &spec);
    let esc = EscalationOptions::default();
    let base = run(&def, &spec, &predictor, &esc, 1);
    for n_parallel in [2, 4] {
        let other = run(&def, &spec, &predictor, &esc, n_parallel);
        assert_identical(&base, &other, &format!("top-k n_parallel={n_parallel}"));
    }
}

#[test]
fn uncertainty_escalation_reruns_are_bit_identical() {
    let (def, spec) = workload();
    let predictor = trained_predictor(&def, &spec);
    let esc = uncertainty(PredictorKind::LinReg);
    let a = run(&def, &spec, &predictor, &esc, 4);
    let b = run(&def, &spec, &predictor, &esc, 4);
    assert_identical(&a, &b, "rerun at n_parallel=4");
}

#[test]
fn warm_topk_rerun_replays_nothing() {
    // Both top-k tiers are memoizable: on a warm cache the exploration
    // pass and the finalists' accurate pass are all memo hits, which
    // reproduce the cold result and add no replay time.
    let (def, spec) = workload();
    let predictor = trained_predictor(&def, &spec);
    let opts = TuneOptions {
        n_trials: 24,
        batch_size: 8,
        n_parallel: 2,
        seed: 9,
        strategy: StrategySpec::Evolutionary,
        memo_cache: Some(Arc::new(SimCache::new())),
        ..TuneOptions::default()
    };
    let esc = EscalationOptions::default();
    let tune = || tune_with_fidelity_escalation(&def, &spec, &predictor, &opts, &esc);
    let cold = tune().expect("tunes cold");
    let warm = tune().expect("tunes warm");
    assert_identical(&cold, &warm, "warm top-k rerun");
    assert!(
        cold.result.replay_nanos > 0,
        "the cold run executes its trials"
    );
    assert_eq!(warm.result.replay_nanos, 0, "memo hits are not replay time");
}
