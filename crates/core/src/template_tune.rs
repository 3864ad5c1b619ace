//! AutoTVM-flavored tuning over template [`ConfigSpace`]s.
//!
//! The paper's Contribution I covers both TVM flows (its Listings 3
//! and 4): the Auto-Scheduler (sketches, [`crate::autotune`]) and
//! AutoTVM, where "tuners [are] responsible for selecting subsequent
//! programs based on selectable tuning algorithms" (Section II-A). The
//! selectable algorithms are the [`crate::SearchStrategy`]
//! implementations of [`crate::search`], instantiated here over a
//! [`TemplateSpace`](crate::TemplateSpace) — exhaustive grid, uniform
//! random, hill climbing, evolutionary search and simulated annealing
//! all drive the same simulator-backed loop, selected through
//! [`TuneOptions::strategy`].

use crate::autotune::{drive, session, Simulate};
use crate::backend::SimSession;
use crate::runner::KernelBuilder;
use crate::score::ScorePredictor;
use crate::{CoreError, TuneOptions, TuneResult};
use simtune_hw::TargetSpec;
use simtune_tensor::{ComputeDef, ConfigSpace};

/// AutoTVM-style tuning loop: template configurations are materialized,
/// built, run on `n_parallel` simulators and scored by a trained
/// predictor; invalid configurations receive an infinite score, exactly
/// like failed builds in TVM. The strategy selected by
/// [`TuneOptions::strategy`] walks the space on the same pipelined
/// driver as the sketch flow.
///
/// # Errors
///
/// Propagates pipeline failures; returns [`CoreError::Pipeline`] when
/// the predictor is untrained, the space yields nothing, or the
/// strategy spec cannot drive a template space
/// ([`crate::StrategySpec::Custom`]).
pub fn tune_template_space(
    def: &ComputeDef,
    spec: &TargetSpec,
    space: &ConfigSpace,
    predictor: &ScorePredictor,
    opts: &TuneOptions,
) -> Result<TuneResult, CoreError> {
    if !predictor.is_trained() {
        return Err(CoreError::Pipeline("predictor is not trained".into()));
    }
    let builder = KernelBuilder::new(def.clone(), spec.isa.clone());
    let sim = session(SimSession::builder().accurate(&spec.hierarchy), opts)?;
    let mut eval = Simulate::new(&sim, predictor, opts);
    drive(
        opts.strategy.build_template(space.clone(), opts.seed)?,
        |cfg| Ok(space.schedule(def, cfg)?),
        "config ",
        &builder,
        'c',
        opts,
        &mut eval,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::{collect_group_data, CollectOptions};
    use crate::StrategySpec;
    use simtune_predict::PredictorKind;
    use simtune_tensor::matmul;

    fn setup() -> (ComputeDef, TargetSpec, ConfigSpace, ScorePredictor) {
        let def = matmul(8, 8, 8);
        let spec = TargetSpec::riscv_u74();
        let space = ConfigSpace::matmul(&def, &spec.isa);
        let data = collect_group_data(
            &def,
            &spec,
            0,
            &CollectOptions {
                n_impls: 14,
                n_parallel: 2,
                seed: 3,
                max_attempts_factor: 40,
                ..CollectOptions::default()
            },
        )
        .expect("collects");
        let mut predictor = ScorePredictor::new(PredictorKind::LinReg, "riscv", "matmul", 1);
        predictor
            .train(std::slice::from_ref(&data))
            .expect("trains");
        (def, spec, space, predictor)
    }

    #[test]
    fn template_tuning_end_to_end() {
        let (def, spec, space, predictor) = setup();
        let result = tune_template_space(
            &def,
            &spec,
            &space,
            &predictor,
            &TuneOptions {
                n_trials: 12,
                batch_size: 4,
                n_parallel: 2,
                seed: 9,
                ..TuneOptions::default()
            },
        )
        .expect("tunes");
        assert_eq!(result.history.len(), 12);
        assert!(result.best().score.is_finite());
        assert!(result.best().description.starts_with("config"));
        assert_eq!(result.strategy, "random");
        assert_eq!(result.convergence.observed, 12);
    }

    #[test]
    fn grid_strategy_walks_the_template_space_in_order() {
        let (def, spec, space, predictor) = setup();
        let result = tune_template_space(
            &def,
            &spec,
            &space,
            &predictor,
            &TuneOptions {
                n_trials: 6,
                batch_size: 3,
                n_parallel: 2,
                strategy: StrategySpec::Grid,
                ..TuneOptions::default()
            },
        )
        .expect("tunes");
        assert_eq!(result.strategy, "grid");
        // Grid visits configs 0..6 in index order.
        for (i, record) in result.history.iter().enumerate() {
            let cfg = space.config_from_index(i);
            assert_eq!(record.description, format!("config {cfg:?}"));
        }
    }

    #[test]
    fn annealing_strategy_tunes_the_template_space() {
        let (def, spec, space, predictor) = setup();
        let result = tune_template_space(
            &def,
            &spec,
            &space,
            &predictor,
            &TuneOptions {
                n_trials: 12,
                batch_size: 4,
                n_parallel: 2,
                seed: 7,
                strategy: StrategySpec::Annealing,
                ..TuneOptions::default()
            },
        )
        .expect("tunes");
        assert_eq!(result.strategy, "annealing");
        assert_eq!(result.history.len(), 12);
        assert!(result.best().score.is_finite());
    }
}
