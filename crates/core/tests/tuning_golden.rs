//! Golden histories of every tuning flow.
//!
//! The determinism suites compare runs with each other (one `n_parallel`
//! against another), so a change that reorders every run the same way
//! would pass them. This suite pins the absolute behaviour instead: for
//! one fixed workload (riscv `matmul(8,8,8)`, a LinReg predictor, fixed
//! seeds) each flow's full visit order, an FNV-1a hash over its score
//! bits, the submission count, the winner and the escalation counters
//! are compared against literals. Every flow runs at two `n_parallel`
//! degrees against the same literals.
//!
//! When a change *intends* to alter a flow's search, regenerate the
//! literals from the failure message (it prints the observed pin) and
//! say why in the change log.

use simtune_core::{
    collect_group_data, tune_on_hardware, tune_template_space, tune_with_fidelity_escalation,
    tune_with_predictor, CollectOptions, ConvergenceStats, EscalatedTuneResult, EscalationOptions,
    EscalationPolicy, Evaluation, HillClimb, PredictorStats, RandomSearch, ScorePredictor,
    SearchStrategy, StrategySpec, TuneOptions, TuneResult, UncertaintyPolicy,
};
use simtune_hw::TargetSpec;
use simtune_predict::PredictorKind;
use simtune_tensor::{matmul, ComputeDef, ConfigSpace, SketchParams};
use std::sync::Arc;

fn workload() -> (ComputeDef, TargetSpec, ScorePredictor) {
    let def = matmul(8, 8, 8);
    let spec = TargetSpec::riscv_u74();
    let data = collect_group_data(
        &def,
        &spec,
        0,
        &CollectOptions {
            n_impls: 16,
            n_parallel: 2,
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
    (def, spec, predictor)
}

fn opts(strategy: StrategySpec, n_trials: usize, seed: u64, n_parallel: usize) -> TuneOptions {
    TuneOptions {
        n_trials,
        batch_size: 4,
        n_parallel,
        seed,
        strategy,
        ..TuneOptions::default()
    }
}

/// Wraps a bundled strategy and requests vectorization of every third
/// proposal. The riscv target has no vector unit, so those candidates
/// fail to build: the pins then also cover where failed builds land in
/// the history and how they shift the measurement-noise stream.
struct FlakyBuilds {
    inner: Box<dyn SearchStrategy<SketchParams>>,
    proposed: usize,
}

impl SearchStrategy<SketchParams> for FlakyBuilds {
    fn propose(&mut self, history: &[Evaluation<SketchParams>], n: usize) -> Vec<SketchParams> {
        let mut batch = self.inner.propose(history, n);
        for p in &mut batch {
            p.vectorize |= self.proposed % 3 == 1;
            self.proposed += 1;
        }
        batch
    }

    fn observe(&mut self, results: &[Evaluation<SketchParams>]) {
        self.inner.observe(results);
    }

    fn name(&self) -> &'static str {
        "flaky_builds"
    }

    fn convergence(&self) -> ConvergenceStats {
        self.inner.convergence()
    }

    fn pipeline_safe(&self) -> bool {
        self.inner.pipeline_safe()
    }
}

/// [`FlakyBuilds`] over random search (pipeline-safe) or hill climbing
/// (guided).
fn flaky(guided: bool) -> StrategySpec {
    StrategySpec::Custom(Arc::new(move |space, seed| {
        let inner: Box<dyn SearchStrategy<SketchParams>> = if guided {
            Box::new(HillClimb::new(space, seed))
        } else {
            Box::new(RandomSearch::new(space, seed))
        };
        Box::new(FlakyBuilds { inner, proposed: 0 })
    }))
}

/// FNV-1a (64-bit) over a stream of `u64` words, little-endian.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// What one flow run is pinned by.
#[derive(Debug, PartialEq)]
struct Pin {
    descriptions: Vec<String>,
    score_hash: u64,
    simulations: usize,
    best_index: usize,
    /// `(explore_runs, accurate_runs)` for the escalation flows.
    runs: Option<(usize, usize)>,
    /// `(train_events, observations, queries, escalations, avoided)` and
    /// the bits of both error means, for the uncertainty flow.
    predictor: Option<([u64; 5], u64, u64)>,
}

fn pin(r: &TuneResult) -> Pin {
    Pin {
        descriptions: r.history.iter().map(|h| h.description.clone()).collect(),
        score_hash: fnv1a(r.history.iter().map(|h| h.score.to_bits())),
        simulations: r.simulations,
        best_index: r.best_index,
        runs: None,
        predictor: r.predictor.as_ref().map(|p: &PredictorStats| {
            (
                [
                    p.train_events,
                    p.observations,
                    p.queries,
                    p.escalations,
                    p.avoided_simulations,
                ],
                p.mean_abs_error.to_bits(),
                p.mean_abs_rank_error.to_bits(),
            )
        }),
    }
}

fn pin_escalated(r: &EscalatedTuneResult) -> Pin {
    Pin {
        runs: Some((r.explore_runs, r.accurate_runs)),
        ..pin(&r.result)
    }
}

fn expected(
    descriptions: &[&str],
    score_hash: u64,
    simulations: usize,
    best_index: usize,
    runs: Option<(usize, usize)>,
    predictor: Option<([u64; 5], u64, u64)>,
) -> Pin {
    Pin {
        descriptions: descriptions.iter().map(|s| s.to_string()).collect(),
        score_hash,
        simulations,
        best_index,
        runs,
        predictor,
    }
}

/// Compares `got` with `want`, collecting a printable report on drift so
/// one run shows every flow that moved.
fn check(drift: &mut Vec<String>, label: &str, got: Pin, want: &Pin) {
    if &got != want {
        drift.push(format!("{label}:\n got: {got:#?}\nwant: {want:#?}"));
    }
}

fn uncertainty() -> EscalationOptions {
    EscalationOptions {
        policy: EscalationPolicy::Uncertainty(UncertaintyPolicy {
            predictor: PredictorKind::LinReg,
            min_train: 4,
            refit_every: 4,
            confidence: 1.0,
            budget: None,
        }),
        ..EscalationOptions::default()
    }
}

#[test]
fn golden_histories_of_every_flow() {
    let (def, spec, predictor) = workload();
    let space = ConfigSpace::matmul(&def, &spec.isa);
    let mut drift = Vec::new();
    for n_parallel in [1, 3] {
        let np = format!("n_parallel={n_parallel}");
        let sketch = |strategy| {
            tune_with_predictor(&def, &spec, &predictor, &opts(strategy, 8, 9, n_parallel))
                .expect("sketch flow tunes")
        };
        check(
            &mut drift,
            &format!("sketch random, {np}"),
            pin(&sketch(StrategySpec::Random)),
            &expected(
                &[
                    "SketchParams { spatial_tiles: [8, 1], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: true, unroll_spatial: true }",
                    "SketchParams { spatial_tiles: [8, 2], reduce_tiles: [2], pattern: ReduceInner, vectorize: false, unroll_reduce: false, unroll_spatial: false }",
                    "SketchParams { spatial_tiles: [8, 2], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: false, unroll_spatial: false }",
                    "SketchParams { spatial_tiles: [4, 8], reduce_tiles: [8], pattern: ReduceBlocked, vectorize: false, unroll_reduce: false, unroll_spatial: true }",
                    "SketchParams { spatial_tiles: [1, 2], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: true, unroll_spatial: false }",
                    "SketchParams { spatial_tiles: [8, 1], reduce_tiles: [2], pattern: ReduceInner, vectorize: false, unroll_reduce: false, unroll_spatial: false }",
                    "SketchParams { spatial_tiles: [8, 8], reduce_tiles: [2], pattern: ReduceBlocked, vectorize: false, unroll_reduce: true, unroll_spatial: true }",
                    "SketchParams { spatial_tiles: [2, 2], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: false, unroll_spatial: true }",
                ],
                0xa5f877415624f2c8,
                8,
                4,
                None,
                None,
            ),
        );
        check(
            &mut drift,
            &format!("sketch evolutionary, {np}"),
            pin(&sketch(StrategySpec::Evolutionary)),
            &expected(
                &[
                    "SketchParams { spatial_tiles: [8, 1], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: true, unroll_spatial: true }",
                    "SketchParams { spatial_tiles: [8, 2], reduce_tiles: [2], pattern: ReduceInner, vectorize: false, unroll_reduce: false, unroll_spatial: false }",
                    "SketchParams { spatial_tiles: [8, 2], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: false, unroll_spatial: false }",
                    "SketchParams { spatial_tiles: [4, 8], reduce_tiles: [8], pattern: ReduceBlocked, vectorize: false, unroll_reduce: false, unroll_spatial: true }",
                    "SketchParams { spatial_tiles: [4, 2], reduce_tiles: [8], pattern: ReduceBlocked, vectorize: false, unroll_reduce: true, unroll_spatial: true }",
                    "SketchParams { spatial_tiles: [8, 4], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: false, unroll_spatial: true }",
                    "SketchParams { spatial_tiles: [4, 1], reduce_tiles: [8], pattern: ReduceBlocked, vectorize: false, unroll_reduce: false, unroll_spatial: true }",
                    "SketchParams { spatial_tiles: [8, 2], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: true, unroll_spatial: false }",
                ],
                0x50b203b2a004fff4,
                8,
                4,
                None,
                None,
            ),
        );
        check(
            &mut drift,
            &format!("sketch flaky random, {np}"),
            pin(&sketch(flaky(false))),
            &expected(&[
"SketchParams { spatial_tiles: [8, 1], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: true, unroll_spatial: true }",
"SketchParams { spatial_tiles: [8, 2], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: false, unroll_spatial: false }",
"SketchParams { spatial_tiles: [4, 8], reduce_tiles: [8], pattern: ReduceBlocked, vectorize: false, unroll_reduce: false, unroll_spatial: true }",
"SketchParams { spatial_tiles: [8, 2], reduce_tiles: [2], pattern: ReduceInner, vectorize: true, unroll_reduce: false, unroll_spatial: false }",
"SketchParams { spatial_tiles: [8, 1], reduce_tiles: [2], pattern: ReduceInner, vectorize: false, unroll_reduce: false, unroll_spatial: false }",
"SketchParams { spatial_tiles: [8, 8], reduce_tiles: [2], pattern: ReduceBlocked, vectorize: false, unroll_reduce: true, unroll_spatial: true }",
"SketchParams { spatial_tiles: [1, 2], reduce_tiles: [8], pattern: ReduceInner, vectorize: true, unroll_reduce: true, unroll_spatial: false }",
"SketchParams { spatial_tiles: [2, 2], reduce_tiles: [8], pattern: ReduceInner, vectorize: true, unroll_reduce: false, unroll_spatial: true }",
], 0x813708cd963696a4, 5, 5, None, None,),
        );
        check(
            &mut drift,
            &format!("sketch flaky hill_climb, {np}"),
            pin(&sketch(flaky(true))),
            &expected(&[
"SketchParams { spatial_tiles: [8, 1], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: true, unroll_spatial: true }",
"SketchParams { spatial_tiles: [8, 2], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: false, unroll_spatial: false }",
"SketchParams { spatial_tiles: [4, 8], reduce_tiles: [8], pattern: ReduceBlocked, vectorize: false, unroll_reduce: false, unroll_spatial: true }",
"SketchParams { spatial_tiles: [8, 2], reduce_tiles: [2], pattern: ReduceInner, vectorize: true, unroll_reduce: false, unroll_spatial: false }",
"SketchParams { spatial_tiles: [2, 1], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: true, unroll_spatial: true }",
"SketchParams { spatial_tiles: [8, 2], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: true, unroll_spatial: true }",
"SketchParams { spatial_tiles: [8, 1], reduce_tiles: [1], pattern: ReduceInner, vectorize: true, unroll_reduce: true, unroll_spatial: true }",
"SketchParams { spatial_tiles: [8, 1], reduce_tiles: [8], pattern: ReduceInner, vectorize: true, unroll_reduce: false, unroll_spatial: true }",
], 0x965fd79f268ea1a, 5, 4, None, None,),
        );
        let template = |strategy, n_trials, seed| {
            tune_template_space(
                &def,
                &spec,
                &space,
                &predictor,
                &opts(strategy, n_trials, seed, n_parallel),
            )
            .expect("template flow tunes")
        };
        check(
            &mut drift,
            &format!("template grid, {np}"),
            pin(&template(StrategySpec::Grid, 6, 0)),
            &expected(
                &[
                    "config [0, 0, 0, 0, 0]",
                    "config [1, 0, 0, 0, 0]",
                    "config [2, 0, 0, 0, 0]",
                    "config [3, 0, 0, 0, 0]",
                    "config [0, 1, 0, 0, 0]",
                    "config [1, 1, 0, 0, 0]",
                ],
                0xc48c89aea8778d06,
                6,
                3,
                None,
                None,
            ),
        );
        check(
            &mut drift,
            &format!("template annealing, {np}"),
            pin(&template(StrategySpec::Annealing, 8, 7)),
            &expected(
                &[
                    "config [1, 0, 2, 0, 0]",
                    "config [1, 0, 0, 0, 1]",
                    "config [1, 2, 1, 1, 1]",
                    "config [3, 1, 2, 0, 0]",
                    "config [0, 1, 2, 0, 0]",
                    "config [3, 1, 3, 0, 0]",
                    "config [3, 1, 2, 0, 1]",
                    "config [3, 0, 2, 0, 0]",
                ],
                0x833dd5b0bb004022,
                8,
                6,
                None,
                None,
            ),
        );
        let hardware = |strategy| {
            tune_on_hardware(&def, &spec, &opts(strategy, 8, 3, n_parallel))
                .expect("hardware flow tunes")
        };
        check(
            &mut drift,
            &format!("hardware random, {np}"),
            pin(&hardware(StrategySpec::Random)),
            &expected(
                &[
                    "SketchParams { spatial_tiles: [2, 1], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: false, unroll_spatial: true }",
                    "SketchParams { spatial_tiles: [2, 8], reduce_tiles: [8], pattern: ReduceBlocked, vectorize: false, unroll_reduce: false, unroll_spatial: true }",
                    "SketchParams { spatial_tiles: [2, 8], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: true, unroll_spatial: false }",
                    "SketchParams { spatial_tiles: [4, 4], reduce_tiles: [2], pattern: ReduceInner, vectorize: false, unroll_reduce: true, unroll_spatial: true }",
                    "SketchParams { spatial_tiles: [1, 1], reduce_tiles: [4], pattern: ReduceInner, vectorize: false, unroll_reduce: true, unroll_spatial: false }",
                    "SketchParams { spatial_tiles: [8, 8], reduce_tiles: [2], pattern: ReduceInner, vectorize: false, unroll_reduce: false, unroll_spatial: true }",
                    "SketchParams { spatial_tiles: [1, 2], reduce_tiles: [2], pattern: ReduceBlocked, vectorize: false, unroll_reduce: false, unroll_spatial: false }",
                    "SketchParams { spatial_tiles: [1, 8], reduce_tiles: [2], pattern: ReduceInner, vectorize: false, unroll_reduce: false, unroll_spatial: false }",
                ],
                0x53a641959996dcc3,
                8,
                2,
                None,
                None,
            ),
        );
        check(
            &mut drift,
            &format!("hardware hill_climb, {np}"),
            pin(&hardware(StrategySpec::HillClimb)),
            &expected(
                &[
                    "SketchParams { spatial_tiles: [2, 1], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: false, unroll_spatial: true }",
                    "SketchParams { spatial_tiles: [2, 8], reduce_tiles: [8], pattern: ReduceBlocked, vectorize: false, unroll_reduce: false, unroll_spatial: true }",
                    "SketchParams { spatial_tiles: [2, 8], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: true, unroll_spatial: false }",
                    "SketchParams { spatial_tiles: [4, 4], reduce_tiles: [2], pattern: ReduceInner, vectorize: false, unroll_reduce: true, unroll_spatial: true }",
                    "SketchParams { spatial_tiles: [2, 8], reduce_tiles: [1], pattern: ReduceInner, vectorize: false, unroll_reduce: true, unroll_spatial: false }",
                    "SketchParams { spatial_tiles: [2, 8], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: false, unroll_spatial: false }",
                    "SketchParams { spatial_tiles: [2, 8], reduce_tiles: [2], pattern: ReduceInner, vectorize: false, unroll_reduce: true, unroll_spatial: false }",
                    "SketchParams { spatial_tiles: [2, 8], reduce_tiles: [8], pattern: SpatialInner, vectorize: false, unroll_reduce: true, unroll_spatial: false }",
                ],
                0xcc64a0c5e648423d,
                8,
                2,
                None,
                None,
            ),
        );
        check(
            &mut drift,
            &format!("hardware flaky hill_climb, {np}"),
            pin(&hardware(flaky(true))),
            &expected(&[
"SketchParams { spatial_tiles: [2, 1], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: false, unroll_spatial: true }",
"SketchParams { spatial_tiles: [2, 8], reduce_tiles: [8], pattern: ReduceBlocked, vectorize: true, unroll_reduce: false, unroll_spatial: true }",
"SketchParams { spatial_tiles: [2, 8], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: true, unroll_spatial: false }",
"SketchParams { spatial_tiles: [4, 4], reduce_tiles: [2], pattern: ReduceInner, vectorize: false, unroll_reduce: true, unroll_spatial: true }",
"SketchParams { spatial_tiles: [2, 8], reduce_tiles: [1], pattern: ReduceInner, vectorize: true, unroll_reduce: true, unroll_spatial: false }",
"SketchParams { spatial_tiles: [2, 8], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: false, unroll_spatial: false }",
"SketchParams { spatial_tiles: [2, 8], reduce_tiles: [2], pattern: ReduceInner, vectorize: false, unroll_reduce: true, unroll_spatial: false }",
"SketchParams { spatial_tiles: [2, 8], reduce_tiles: [8], pattern: SpatialInner, vectorize: true, unroll_reduce: true, unroll_spatial: false }",
], 0xadf8b4182ce560e6, 5, 2, None, None,),
        );
        let escalate = |strategy, esc: &EscalationOptions, n_trials| {
            tune_with_fidelity_escalation(
                &def,
                &spec,
                &predictor,
                &opts(strategy, n_trials, 9, n_parallel),
                esc,
            )
            .expect("escalation flow tunes")
        };
        check(
            &mut drift,
            &format!("top-k escalation, {np}"),
            pin_escalated(&escalate(
                StrategySpec::Evolutionary,
                &EscalationOptions {
                    top_k: 3,
                    ..EscalationOptions::default()
                },
                8,
            )),
            &expected(
                &[
                    "SketchParams { spatial_tiles: [8, 1], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: true, unroll_spatial: true }",
                    "SketchParams { spatial_tiles: [8, 2], reduce_tiles: [2], pattern: ReduceInner, vectorize: false, unroll_reduce: false, unroll_spatial: false }",
                    "SketchParams { spatial_tiles: [8, 2], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: false, unroll_spatial: false }",
                    "SketchParams { spatial_tiles: [4, 8], reduce_tiles: [8], pattern: ReduceBlocked, vectorize: false, unroll_reduce: false, unroll_spatial: true }",
                    "SketchParams { spatial_tiles: [8, 8], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: false, unroll_spatial: true }",
                    "SketchParams { spatial_tiles: [4, 4], reduce_tiles: [8], pattern: ReduceBlocked, vectorize: false, unroll_reduce: true, unroll_spatial: true }",
                    "SketchParams { spatial_tiles: [8, 1], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: false, unroll_spatial: true }",
                    "SketchParams { spatial_tiles: [4, 8], reduce_tiles: [8], pattern: ReduceBlocked, vectorize: false, unroll_reduce: true, unroll_spatial: true }",
                ],
                0xe6fc87ae4625260c,
                11,
                5,
                Some((8, 3)),
                None,
            ),
        );
        check(
            &mut drift,
            &format!("uncertainty escalation, {np}"),
            pin_escalated(&escalate(StrategySpec::Evolutionary, &uncertainty(), 12)),
            &expected(
                &[
                    "SketchParams { spatial_tiles: [8, 1], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: true, unroll_spatial: true }",
                    "SketchParams { spatial_tiles: [8, 2], reduce_tiles: [2], pattern: ReduceInner, vectorize: false, unroll_reduce: false, unroll_spatial: false }",
                    "SketchParams { spatial_tiles: [8, 2], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: false, unroll_spatial: false }",
                    "SketchParams { spatial_tiles: [4, 8], reduce_tiles: [8], pattern: ReduceBlocked, vectorize: false, unroll_reduce: false, unroll_spatial: true }",
                    "SketchParams { spatial_tiles: [4, 2], reduce_tiles: [8], pattern: ReduceBlocked, vectorize: false, unroll_reduce: true, unroll_spatial: true }",
                    "SketchParams { spatial_tiles: [8, 4], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: false, unroll_spatial: true }",
                    "SketchParams { spatial_tiles: [4, 1], reduce_tiles: [8], pattern: ReduceBlocked, vectorize: false, unroll_reduce: false, unroll_spatial: true }",
                    "SketchParams { spatial_tiles: [8, 2], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: true, unroll_spatial: false }",
                    "SketchParams { spatial_tiles: [8, 4], reduce_tiles: [8], pattern: ReduceBlocked, vectorize: false, unroll_reduce: false, unroll_spatial: false }",
                    "SketchParams { spatial_tiles: [8, 1], reduce_tiles: [2], pattern: ReduceBlocked, vectorize: false, unroll_reduce: true, unroll_spatial: true }",
                    "SketchParams { spatial_tiles: [8, 2], reduce_tiles: [2], pattern: ReduceInner, vectorize: false, unroll_reduce: true, unroll_spatial: true }",
                    "SketchParams { spatial_tiles: [4, 1], reduce_tiles: [8], pattern: SpatialInner, vectorize: false, unroll_reduce: true, unroll_spatial: true }",
                ],
                0xaa27b46f0afad252,
                18,
                4,
                Some((12, 6)),
                Some(([1, 6, 8, 6, 6], 0x3fd74eeb5e3c49a0, 0x3ff0000000000000)),
            ),
        );
        check(
            &mut drift,
            &format!("top-k escalation flaky, {np}"),
            pin_escalated(&escalate(
                flaky(false),
                &EscalationOptions {
                    top_k: 3,
                    ..EscalationOptions::default()
                },
                8,
            )),
            &expected(&[
"SketchParams { spatial_tiles: [8, 1], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: true, unroll_spatial: true }",
"SketchParams { spatial_tiles: [8, 2], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: false, unroll_spatial: false }",
"SketchParams { spatial_tiles: [4, 8], reduce_tiles: [8], pattern: ReduceBlocked, vectorize: false, unroll_reduce: false, unroll_spatial: true }",
"SketchParams { spatial_tiles: [8, 2], reduce_tiles: [2], pattern: ReduceInner, vectorize: true, unroll_reduce: false, unroll_spatial: false }",
"SketchParams { spatial_tiles: [8, 1], reduce_tiles: [2], pattern: ReduceInner, vectorize: false, unroll_reduce: false, unroll_spatial: false }",
"SketchParams { spatial_tiles: [8, 8], reduce_tiles: [2], pattern: ReduceBlocked, vectorize: false, unroll_reduce: true, unroll_spatial: true }",
"SketchParams { spatial_tiles: [1, 2], reduce_tiles: [8], pattern: ReduceInner, vectorize: true, unroll_reduce: true, unroll_spatial: false }",
"SketchParams { spatial_tiles: [2, 2], reduce_tiles: [8], pattern: ReduceInner, vectorize: true, unroll_reduce: false, unroll_spatial: true }",
], 0xbcce0a2322c2571e, 8, 5, Some((5, 3)), None,),
        );
        check(
            &mut drift,
            &format!("uncertainty escalation flaky, {np}"),
            pin_escalated(&escalate(flaky(true), &uncertainty(), 12)),
            &expected(&[
"SketchParams { spatial_tiles: [8, 1], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: true, unroll_spatial: true }",
"SketchParams { spatial_tiles: [8, 2], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: false, unroll_spatial: false }",
"SketchParams { spatial_tiles: [4, 8], reduce_tiles: [8], pattern: ReduceBlocked, vectorize: false, unroll_reduce: false, unroll_spatial: true }",
"SketchParams { spatial_tiles: [8, 2], reduce_tiles: [2], pattern: ReduceInner, vectorize: true, unroll_reduce: false, unroll_spatial: false }",
"SketchParams { spatial_tiles: [2, 1], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: true, unroll_spatial: true }",
"SketchParams { spatial_tiles: [8, 2], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: true, unroll_spatial: true }",
"SketchParams { spatial_tiles: [8, 1], reduce_tiles: [1], pattern: ReduceInner, vectorize: true, unroll_reduce: true, unroll_spatial: true }",
"SketchParams { spatial_tiles: [8, 1], reduce_tiles: [8], pattern: ReduceInner, vectorize: true, unroll_reduce: false, unroll_spatial: true }",
"SketchParams { spatial_tiles: [2, 1], reduce_tiles: [1], pattern: ReduceInner, vectorize: false, unroll_reduce: true, unroll_spatial: true }",
"SketchParams { spatial_tiles: [2, 1], reduce_tiles: [8], pattern: ReduceInner, vectorize: false, unroll_reduce: false, unroll_spatial: true }",
"SketchParams { spatial_tiles: [2, 1], reduce_tiles: [8], pattern: ReduceBlocked, vectorize: false, unroll_reduce: true, unroll_spatial: true }",
"SketchParams { spatial_tiles: [2, 8], reduce_tiles: [8], pattern: ReduceInner, vectorize: true, unroll_reduce: true, unroll_spatial: true }",
], 0xd37ef41f8ad691cb, 12, 4, Some((8, 4)), Some(([1, 4, 3, 4, 4], 0x0, 0x0)),),
        );
    }
    assert!(drift.is_empty(), "{}", drift.join("\n\n"));
}
