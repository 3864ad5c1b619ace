//! Tuners and the execution-phase tuning loop.
//!
//! Mirrors the search side of the paper's Fig. 2: a pluggable
//! [`SearchStrategy`] generates candidate implementations batch-wise;
//! candidates are built, executed on `n_parallel` simulators, scored (by
//! a trained score predictor or by hardware measurement), and the
//! strategy evolves the next batch from the scores. Which strategy runs
//! is selected through [`TuneOptions::strategy`]; the default
//! [`RandomSearch`](crate::RandomSearch) reproduces the historical
//! random-sampling tuner bit-for-bit.

use crate::backend::{SimBackend, SimSession};
use crate::features::WindowKind;
use crate::fidelity::FidelitySpec;
use crate::memo::SimCache;
use crate::metrics::{ConvergenceStats, PredictorStats, StageTimings};
use crate::pool::BatchTicket;
use crate::predicted::{shared_predictor, OnlinePredictor, PredictedBackend, Prediction};
use crate::runner::{HardwareRunner, KernelBuilder};
use crate::score::ScorePredictor;
use crate::search::{Evaluation, SearchStrategy, StrategySpec};
use crate::CoreError;
use simtune_hw::TargetSpec;
use simtune_isa::EngineKind;
use simtune_predict::PredictorKind;
use simtune_tensor::{ComputeDef, Schedule, SketchGenerator, SketchParams};
use std::sync::Arc;
use std::time::Instant;

/// Options of one tuning session.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// Total candidates to evaluate.
    pub n_trials: usize,
    /// Candidates per batch (the Auto-Scheduler generates batch-wise).
    pub batch_size: usize,
    /// Parallel simulator instances.
    pub n_parallel: usize,
    /// Window policy for score normalization during inference.
    pub window: WindowKind,
    /// Base seed (drives the search strategy and, for the hardware flow,
    /// the measurement noise).
    pub seed: u64,
    /// Which [`SearchStrategy`] proposes candidates. The default
    /// [`StrategySpec::Random`] reproduces the pre-subsystem sampling
    /// loop bit-identically; [`StrategySpec::Custom`] plugs in any boxed
    /// user strategy.
    pub strategy: StrategySpec,
    /// Simulation memo cache attached to every session this tuning run
    /// creates. Share one `Arc<SimCache>` across runs (or with
    /// [`crate::CollectOptions::memo_cache`]) so candidates revisited
    /// anywhere in the workflow skip the backend entirely. `None`
    /// disables memoization.
    pub memo_cache: Option<Arc<SimCache>>,
    /// Replay engine used by every simulator session this run creates —
    /// a pure host-speed knob, pinned bit-identical across engines by
    /// the equivalence suite. [`EngineKind::Batch`] additionally lets
    /// backends that support it replay same-program trials of one
    /// submission as a single SoA batch.
    pub engine: EngineKind,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            n_trials: 64,
            batch_size: 16,
            n_parallel: 8,
            window: WindowKind::Dynamic,
            seed: 0,
            strategy: StrategySpec::default(),
            memo_cache: None,
            engine: EngineKind::default(),
        }
    }
}

/// One evaluated candidate in a tuning history.
#[derive(Debug, Clone)]
pub struct TuneRecord {
    /// Genotype description.
    pub description: String,
    /// The applied schedule.
    pub schedule: Schedule,
    /// Score assigned during tuning (lower = better; predictor score or
    /// measured seconds depending on the flow).
    pub score: f64,
}

/// Result of a tuning session.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// Every evaluated candidate, in evaluation order.
    pub history: Vec<TuneRecord>,
    /// Index of the best candidate in `history`.
    pub best_index: usize,
    /// Label of the strategy that drove the search.
    pub strategy: String,
    /// The strategy's convergence counters at the end of the run.
    pub convergence: ConvergenceStats,
    /// Executions submitted to the backing evaluator: simulator runs for
    /// the simulator flows, hardware measurements for
    /// [`tune_on_hardware`]. With a memo cache attached this counts
    /// submissions, not backend executions — see
    /// [`crate::SimCache::stats`] for hit/miss counters.
    pub simulations: usize,
    /// Producer-side wall time per pipeline stage. `sim_nanos` only
    /// counts time the loop *blocked* on simulation — with a
    /// pipeline-safe strategy, simulation overlapped by the build of the
    /// next batch is invisible here. Wall-clock values: identical
    /// reruns produce identical history but different timings.
    pub timings: StageTimings,
    /// Online-model counters when the run used the learned
    /// [`EscalationPolicy::Uncertainty`] tier; `None` for every other
    /// flow.
    pub predictor: Option<PredictorStats>,
    /// Host nanoseconds the backends reported spending inside simulator
    /// replay for this run's scored candidates (Σ
    /// [`simtune_isa::SimStats::host_nanos`] over successful reports;
    /// memo hits contribute the stored value). The denominator for the
    /// per-engine replay-throughput counters in the perf harness; `0`
    /// for [`tune_on_hardware`], which never replays.
    pub replay_nanos: u64,
}

impl TuneResult {
    /// The best candidate's record.
    pub fn best(&self) -> &TuneRecord {
        &self.history[self.best_index]
    }
}

/// Execution-phase tuning (Fig. 4-II): candidates run **only on the
/// simulator**; a trained [`ScorePredictor`] turns statistics into
/// scores. The target hardware is not needed — the scenario that enables
/// pre-silicon tuning and cross-ISA tuning on x86 hosts.
///
/// The strategy configured in [`TuneOptions::strategy`] proposes the
/// candidates; every strategy composes with the memo cache and any
/// backend because the loop is strategy-agnostic.
///
/// # Errors
///
/// Propagates pipeline failures; individual failed candidates are
/// penalized, not fatal.
pub fn tune_with_predictor(
    def: &ComputeDef,
    spec: &TargetSpec,
    predictor: &ScorePredictor,
    opts: &TuneOptions,
) -> Result<TuneResult, CoreError> {
    let session = SimSession::builder()
        .accurate(&spec.hierarchy)
        .n_parallel(opts.n_parallel)
        .memo_cache_opt(opts.memo_cache.clone())
        .engine(opts.engine)
        .build()?;
    tune_with_predictor_on(def, spec, predictor, opts, &session)
}

/// [`tune_with_predictor`] on a caller-provided session instead of a
/// freshly built one — the entry point [`crate::SimService`] tenants
/// use, so N concurrent tuning loops share one worker pool and one memo
/// cache. `opts.n_parallel` and `opts.memo_cache` are ignored in favor
/// of the session's own pool and cache.
///
/// # Errors
///
/// Propagates pipeline failures; individual failed candidates are
/// penalized, not fatal.
pub fn tune_with_predictor_on(
    def: &ComputeDef,
    spec: &TargetSpec,
    predictor: &ScorePredictor,
    opts: &TuneOptions,
    session: &SimSession,
) -> Result<TuneResult, CoreError> {
    if !predictor.is_trained() {
        return Err(CoreError::Pipeline("predictor is not trained".into()));
    }
    let generator = SketchGenerator::new(def, spec.isa.clone());
    let mut strategy = opts.strategy.build_sketch(generator.clone(), opts.seed);
    let (history, sim_runs, timings, replay_nanos) =
        explore(&generator, def, predictor, strategy.as_mut(), opts, session)?;
    finish(history, strategy.as_ref(), sim_runs, timings, replay_nanos)
}

/// A proposed-and-built batch whose simulation is in flight on the
/// session's worker pool.
struct StagedBatch<P> {
    kept: Vec<P>,
    failed: Vec<P>,
    ticket: BatchTicket,
}

impl<P> StagedBatch<P> {
    fn trials(&self) -> usize {
        self.kept.len() + self.failed.len()
    }
}

/// The shared exploration loop: the strategy proposes batch-wise, the
/// loop builds, runs on `session`'s backend, scores with `predictor`,
/// and feeds the evaluations back. Returns the full evaluation history,
/// the number of simulations submitted (successful builds handed to the
/// session, whether memoized, failed or completed), the per-stage
/// producer timings and the summed replay host-nanoseconds.
///
/// The loop is *pipelined*: batches are submitted asynchronously
/// ([`SimSession::submit`]), and when the strategy's proposals cannot
/// depend on scores ([`SearchStrategy::pipeline_safe`]) the next batch
/// is proposed and built **while the previous one simulates** on the
/// persistent pool — the Pac-Sim overlap trick, applied to lowering.
/// Guided strategies keep strict propose → simulate → observe
/// sequencing, so the visit order is bit-identical to the sequential
/// loop for every strategy, at every `n_parallel`.
fn explore(
    generator: &SketchGenerator,
    def: &ComputeDef,
    predictor: &ScorePredictor,
    strategy: &mut dyn SearchStrategy<SketchParams>,
    opts: &TuneOptions,
    session: &SimSession,
) -> Result<(Vec<TuneRecord>, usize, StageTimings, u64), CoreError> {
    let builder = KernelBuilder::new(def.clone(), generator.target().clone());

    let mut history: Vec<TuneRecord> = Vec::new();
    let mut evaluations: Vec<Evaluation<SketchParams>> = Vec::new();
    let mut sim_runs = 0usize;
    let mut timings = StageTimings::default();
    let mut replay_nanos = 0u64;
    let pipelined = strategy.pipeline_safe();
    // One normalizer for the whole session: the window means evolve over
    // the full candidate stream, not per batch.
    let mut normalizer = crate::features::WindowNormalizer::new(opts.window);
    let mut inflight: Option<StagedBatch<SketchParams>> = None;
    let mut exhausted = false;
    loop {
        // Stage the next batch. With a pipeline-safe strategy this
        // happens while `inflight` is still simulating; otherwise only
        // when nothing is in flight (scores must reach `observe` first).
        let committed = history.len() + inflight.as_ref().map_or(0, StagedBatch::trials);
        let staged = if !exhausted && committed < opts.n_trials && (pipelined || inflight.is_none())
        {
            let want = opts.batch_size.min(opts.n_trials - committed);
            let t0 = Instant::now();
            let batch = strategy.propose(&evaluations, want);
            timings.propose_nanos += t0.elapsed().as_nanos() as u64;
            if batch.is_empty() {
                exhausted = true; // search space exhausted
                None
            } else {
                // Build; drop failures with a penalty score.
                let t0 = Instant::now();
                let mut exes = Vec::new();
                let mut kept: Vec<SketchParams> = Vec::new();
                let mut failed: Vec<SketchParams> = Vec::new();
                for p in batch {
                    let schedule = generator.schedule(&p);
                    match builder.build(&schedule, &format!("{}t{committed}", def.name)) {
                        Ok(e) => {
                            exes.push(e);
                            kept.push(p);
                        }
                        Err(_) => failed.push(p),
                    }
                }
                timings.build_nanos += t0.elapsed().as_nanos() as u64;
                sim_runs += exes.len();
                let ticket = session.submit(exes);
                Some(StagedBatch {
                    kept,
                    failed,
                    ticket,
                })
            }
        } else {
            None
        };

        let finished = inflight.take();
        inflight = staged;
        let Some(done) = finished else {
            if inflight.is_none() {
                break;
            }
            continue;
        };

        // Drain, score and observe the finished batch in submission
        // order — parallelism and pipelining never reorder the stream
        // the window normalizer and the strategy see.
        let t0 = Instant::now();
        let stats = done.ticket.wait();
        timings.sim_nanos += t0.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        let mut batch_evals: Vec<Evaluation<SketchParams>> = Vec::new();
        for (p, s) in done.kept.into_iter().zip(stats) {
            let score = match s {
                Ok(report) => {
                    replay_nanos += report.stats.host_nanos;
                    predictor.score_streaming(&report.stats, &mut normalizer)?
                }
                Err(_) => f64::INFINITY,
            };
            batch_evals.push(Evaluation { point: p, score });
        }
        for p in done.failed {
            batch_evals.push(Evaluation {
                point: p,
                score: f64::INFINITY,
            });
        }
        strategy.observe(&batch_evals);
        for e in &batch_evals {
            history.push(TuneRecord {
                schedule: generator.schedule(&e.point),
                description: format!("{:?}", e.point),
                score: e.score,
            });
        }
        evaluations.extend(batch_evals);
        timings.score_nanos += t0.elapsed().as_nanos() as u64;
    }
    Ok((history, sim_runs, timings, replay_nanos))
}

/// Options of the fidelity-escalation mode: how many finalists graduate
/// from the cheap exploration tier to the accurate tier.
#[derive(Debug, Clone)]
pub struct EscalationOptions {
    /// Finalists re-simulated on the accurate backend (the paper-style
    /// trade: exploration breadth at low fidelity, final ranking at full
    /// fidelity).
    pub top_k: usize,
    /// Exploration tier, named uniformly as a [`FidelitySpec`] — e.g.
    /// `FidelitySpec::Pipelined { .. }` for cycle-aware exploration.
    /// When unset, exploration runs on [`FidelitySpec::FastCount`].
    pub explore: Option<FidelitySpec>,
    /// How candidates graduate to the accurate tier. The default
    /// [`EscalationPolicy::TopK`] keeps the original static-finalist
    /// behavior (and is the only mode that reads `top_k`);
    /// [`EscalationPolicy::Uncertainty`] activates the learned
    /// [`crate::PredictedBackend`] tier with active-learning
    /// escalation.
    pub policy: EscalationPolicy,
}

impl Default for EscalationOptions {
    fn default() -> Self {
        EscalationOptions {
            top_k: 8,
            explore: None,
            policy: EscalationPolicy::TopK,
        }
    }
}

/// The exploration tier an [`EscalationOptions`] names, defaulting to
/// fast-count.
fn explore_spec(esc: &EscalationOptions) -> FidelitySpec {
    esc.explore.clone().unwrap_or(FidelitySpec::FastCount)
}

/// Which candidates graduate from the cheap exploration tier to the
/// accurate tier in [`tune_with_fidelity_escalation`].
#[derive(Debug, Clone, Default)]
pub enum EscalationPolicy {
    /// Static finalists: after exploration, the `top_k` best cheap-tier
    /// scores are re-simulated accurately — simple, but pays for
    /// `top_k` accurate runs no matter how confident the ranking is.
    #[default]
    TopK,
    /// Uncertainty-driven active learning: an online model
    /// ([`crate::OnlinePredictor`]) is trained on escalated candidates
    /// *during* the sweep, and a candidate graduates only while the
    /// model is cold or its lower confidence bound still overlaps the
    /// incumbent best accurate score. The final winner is always
    /// re-verified on the accurate tier.
    Uncertainty(UncertaintyPolicy),
}

/// Tuning knobs of [`EscalationPolicy::Uncertainty`].
#[derive(Debug, Clone)]
pub struct UncertaintyPolicy {
    /// Model family the online predictor trains. The default
    /// [`PredictorKind::Bayes`] provides a true GP posterior variance;
    /// the other families report ensemble or residual spreads.
    pub predictor: PredictorKind,
    /// Confidence multiplier `β`: a candidate escalates while
    /// `mean − β·std ≤ incumbent`. Larger values escalate more
    /// (cautious); `0.0` escalates only candidates predicted to beat
    /// the incumbent outright.
    pub confidence: f64,
    /// Observations required before the first fit. Until the model has
    /// seen this many accurate scores, candidates escalate outright
    /// (the cold start that produces the first training set) — so keep
    /// this comfortably below the sweep's trial count.
    pub min_train: usize,
    /// The model refits (on the full observation history) once this
    /// many new observations accumulated since the last fit.
    pub refit_every: usize,
    /// Hard cap on in-sweep accurate simulations (cold start
    /// included). `None` leaves escalation bounded only by the
    /// confidence test. The final winner verification always runs and
    /// is *not* counted against this budget; set the budget at least
    /// `min_train` high or the model never trains.
    pub budget: Option<usize>,
}

impl Default for UncertaintyPolicy {
    fn default() -> Self {
        UncertaintyPolicy {
            predictor: PredictorKind::Bayes,
            confidence: 1.0,
            min_train: 6,
            refit_every: 4,
            budget: None,
        }
    }
}

/// Result of a fidelity-escalated tuning session.
#[derive(Debug, Clone)]
pub struct EscalatedTuneResult {
    /// Full history: exploration records keep their cheap-tier scores;
    /// finalist records carry accurate-tier scores. `result.best_index`
    /// always points at a finalist.
    pub result: TuneResult,
    /// Name of the backend used for exploration rounds.
    pub explore_backend: String,
    /// Name of the backend used for the finalists.
    pub final_backend: String,
    /// Cheap-tier simulations executed.
    pub explore_runs: usize,
    /// Accurate simulations executed (≤ `top_k`, against `n_trials` for
    /// an accurate-only session).
    pub accurate_runs: usize,
}

/// Fidelity-escalation tuning (the trade the paper's Fig. 1 spans): a
/// cheap exploration tier (any [`FidelitySpec`] via
/// [`EscalationOptions::explore`]; fast-count by default) scores every
/// exploration candidate, then only the `top_k` finalists are
/// re-simulated on the instruction-accurate backend and the best
/// finalist wins. The host pays for `top_k` accurate simulations
/// instead of `n_trials`.
///
/// # Example
///
/// ```no_run
/// use simtune_core::{
///     tune_with_fidelity_escalation, EscalationOptions, ScorePredictor, StrategySpec,
///     TuneOptions,
/// };
/// use simtune_hw::TargetSpec;
/// use simtune_predict::PredictorKind;
/// use simtune_tensor::matmul;
///
/// # fn main() -> Result<(), simtune_core::CoreError> {
/// let def = matmul(16, 16, 16);
/// let spec = TargetSpec::riscv_u74();
/// # let trained_predictor = ScorePredictor::new(PredictorKind::LinReg, "riscv", "matmul", 1);
/// let opts = TuneOptions {
///     n_trials: 64,
///     strategy: StrategySpec::Evolutionary,
///     ..TuneOptions::default()
/// };
/// let esc = EscalationOptions { top_k: 6, ..EscalationOptions::default() };
/// let out = tune_with_fidelity_escalation(&def, &spec, &trained_predictor, &opts, &esc)?;
/// assert!(out.accurate_runs <= 6);
/// println!("best candidate: {}", out.result.best().description);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates pipeline failures; returns [`CoreError::Pipeline`] when
/// the predictor is untrained, `top_k` is zero, or no finalist survives.
pub fn tune_with_fidelity_escalation(
    def: &ComputeDef,
    spec: &TargetSpec,
    predictor: &ScorePredictor,
    opts: &TuneOptions,
    esc: &EscalationOptions,
) -> Result<EscalatedTuneResult, CoreError> {
    if !predictor.is_trained() {
        return Err(CoreError::Pipeline("predictor is not trained".into()));
    }
    if let EscalationPolicy::Uncertainty(pol) = &esc.policy {
        if !pol.confidence.is_finite() || pol.confidence < 0.0 {
            return Err(CoreError::Pipeline(
                "uncertainty escalation needs a finite confidence >= 0".into(),
            ));
        }
        return tune_with_uncertainty_escalation(def, spec, predictor, opts, esc, pol);
    }
    if esc.top_k == 0 {
        return Err(CoreError::Pipeline(
            "fidelity escalation needs top_k >= 1".into(),
        ));
    }
    let explore_backend: Arc<dyn SimBackend> = explore_spec(esc).build(&spec.hierarchy)?;
    let explore_name = explore_backend.name().to_string();
    let session = SimSession::builder()
        .backend(explore_backend)
        .n_parallel(opts.n_parallel)
        .memo_cache_opt(opts.memo_cache.clone())
        .engine(opts.engine)
        .build()?;
    let generator = SketchGenerator::new(def, spec.isa.clone());
    let mut strategy = opts.strategy.build_sketch(generator.clone(), opts.seed);
    let (mut history, explore_runs, mut timings, mut replay_nanos) = explore(
        &generator,
        def,
        predictor,
        strategy.as_mut(),
        opts,
        &session,
    )?;

    // Graduate the top-k cheap-tier candidates to the accurate tier.
    let mut order: Vec<usize> = (0..history.len())
        .filter(|&i| history[i].score.is_finite())
        .collect();
    order.sort_by(|&a, &b| {
        history[a]
            .score
            .partial_cmp(&history[b].score)
            .expect("finite scores")
    });
    order.truncate(esc.top_k);

    let builder = KernelBuilder::new(def.clone(), spec.isa.clone());
    let t0 = Instant::now();
    let mut finalist_idx = Vec::with_capacity(order.len());
    let mut finalist_exes = Vec::with_capacity(order.len());
    for &i in &order {
        // Rebuilding is deterministic (fixed data seed), so the finalist
        // executes byte-for-byte what the exploration round saw.
        if let Ok(exe) = builder.build(&history[i].schedule, &format!("{}f{i}", def.name)) {
            finalist_idx.push(i);
            finalist_exes.push(exe);
        }
    }
    timings.build_nanos += t0.elapsed().as_nanos() as u64;
    let accurate = SimSession::builder()
        .accurate(&spec.hierarchy)
        .n_parallel(opts.n_parallel)
        .memo_cache_opt(opts.memo_cache.clone())
        .engine(opts.engine)
        .build()?;
    let final_name = accurate.backend_name().to_string();
    let accurate_runs = finalist_exes.len();
    let t0 = Instant::now();
    let reports = accurate.run_stats(&finalist_exes);
    timings.sim_nanos += t0.elapsed().as_nanos() as u64;

    let mut survivors = Vec::new();
    let mut survivor_stats = Vec::new();
    for (i, r) in finalist_idx.iter().zip(reports) {
        if let Ok(stats) = r {
            replay_nanos += stats.host_nanos;
            survivors.push(*i);
            survivor_stats.push(stats);
        }
    }
    if survivors.is_empty() {
        return Err(CoreError::Pipeline(
            "no finalist survived accurate re-simulation".into(),
        ));
    }
    // Batch scoring keeps the finalists' normalization consistent with
    // one another — the ranking that decides the winner.
    let scores = predictor.score_group(&survivor_stats)?;
    let mut best = (survivors[0], f64::INFINITY);
    for (&i, &s) in survivors.iter().zip(&scores) {
        history[i].score = s;
        if s < best.1 {
            best = (i, s);
        }
    }
    Ok(EscalatedTuneResult {
        result: TuneResult {
            history,
            best_index: best.0,
            strategy: strategy.name().to_string(),
            convergence: strategy.convergence(),
            simulations: explore_runs + accurate_runs,
            timings,
            predictor: None,
            replay_nanos,
        },
        explore_backend: explore_name,
        final_backend: final_name,
        explore_runs,
        accurate_runs,
    })
}

/// The [`EscalationPolicy::Uncertainty`] flow: active-learning
/// escalation over the [`PredictedBackend`] tier. One batch at a time:
///
/// 1. propose, build and run every candidate on the cheap tier (the
///    [`PredictedBackend`] over counting/sampled statistics);
/// 2. in submission order, extract each candidate's feature vector,
///    compute the [`ScorePredictor`]'s cheap-tier *provisional* score
///    and query the online model, which learns the **residual** between
///    provisional and accurate scores (multi-fidelity delta learning) —
///    its corrected prediction is `provisional + residual mean`;
/// 3. escalate the most promising candidates first (lowest provisional
///    score during the cold start, lowest corrected mean once the model
///    answers) whose lower confidence bound `mean − β·std` still
///    overlaps the incumbent best accurate score, within the budget;
/// 4. run the escalated candidates' *original* executables accurately
///    (byte-for-byte what the cheap tier saw), feed the observed
///    residuals back as training pairs, and refit on the batch boundary.
///
/// Non-escalated candidates keep the corrected mean (or, during the
/// cold start, the provisional score) — so the history mixes accurate
/// and predicted scores, and the winner is re-verified after the sweep:
/// while the best-scoring candidate holds a predicted score it is
/// re-simulated accurately and rescored. The returned winner therefore
/// always carries an accurate-tier score.
///
/// All model training and querying happens here, on the producer
/// thread, in submission order — `n_parallel` only changes how fast
/// batches simulate, never what the model sees, which is what the
/// escalation-determinism suite pins.
fn tune_with_uncertainty_escalation(
    def: &ComputeDef,
    spec: &TargetSpec,
    predictor: &ScorePredictor,
    opts: &TuneOptions,
    esc: &EscalationOptions,
    pol: &UncertaintyPolicy,
) -> Result<EscalatedTuneResult, CoreError> {
    let inner: Arc<dyn SimBackend> = explore_spec(esc).build(&spec.hierarchy)?;
    let online = shared_predictor(OnlinePredictor::new(
        pol.predictor,
        opts.seed ^ 0x9E37,
        pol.min_train,
        pol.refit_every,
    ));
    let tier = PredictedBackend::new(inner, Arc::clone(&online));
    let explore_name = tier.name().to_string();
    let cheap = SimSession::builder()
        .backend(Arc::new(tier))
        .n_parallel(opts.n_parallel)
        .memo_cache_opt(opts.memo_cache.clone())
        .engine(opts.engine)
        .build()?;
    let accurate = SimSession::builder()
        .accurate(&spec.hierarchy)
        .n_parallel(opts.n_parallel)
        .memo_cache_opt(opts.memo_cache.clone())
        .engine(opts.engine)
        .build()?;
    let final_name = accurate.backend_name().to_string();

    let generator = SketchGenerator::new(def, spec.isa.clone());
    let builder = KernelBuilder::new(def.clone(), spec.isa.clone());
    let mut strategy = opts.strategy.build_sketch(generator.clone(), opts.seed);
    let fc = predictor.feature_config();
    // Two normalizer streams: the feature stream sees every cheap-tier
    // sample (model inputs), the accurate stream only escalated
    // candidates (training labels / final scores). Both are fed in
    // submission order only.
    let mut feat_norm = crate::features::WindowNormalizer::new(opts.window);
    let mut acc_norm = crate::features::WindowNormalizer::new(opts.window);

    let mut history: Vec<TuneRecord> = Vec::new();
    let mut verified: Vec<bool> = Vec::new();
    let mut evaluations: Vec<Evaluation<SketchParams>> = Vec::new();
    let mut pred_pairs: Vec<(f64, f64)> = Vec::new();
    let mut stats = PredictorStats::default();
    let mut timings = StageTimings::default();
    let mut explore_runs = 0usize;
    let mut accurate_runs = 0usize;
    let mut replay_nanos = 0u64;
    let mut incumbent = f64::INFINITY;

    while history.len() < opts.n_trials {
        let committed = history.len();
        let want = opts.batch_size.min(opts.n_trials - committed);
        let t0 = Instant::now();
        let batch = strategy.propose(&evaluations, want);
        timings.propose_nanos += t0.elapsed().as_nanos() as u64;
        if batch.is_empty() {
            break;
        }
        let t0 = Instant::now();
        let mut kept: Vec<SketchParams> = Vec::new();
        let mut kept_exes = Vec::new();
        let mut failed: Vec<SketchParams> = Vec::new();
        for p in batch {
            let schedule = generator.schedule(&p);
            match builder.build(&schedule, &format!("{}t{committed}", def.name)) {
                Ok(e) => {
                    kept_exes.push(e);
                    kept.push(p);
                }
                Err(_) => failed.push(p),
            }
        }
        timings.build_nanos += t0.elapsed().as_nanos() as u64;
        explore_runs += kept_exes.len();
        let t0 = Instant::now();
        let reports = cheap.run(&kept_exes);
        timings.sim_nanos += t0.elapsed().as_nanos() as u64;

        // Decision pass, two phases. Phase 1 — strictly in submission
        // order (the normalizer streams and the model must see
        // candidates exactly as submitted): features, the cheap-tier
        // provisional score, and the model query. The online model
        // learns the *residual* between the provisional and the
        // accurate score (multi-fidelity delta learning): with zero
        // observations the tier already ranks like the offline
        // predictor, and every escalation refines the correction.
        let t0 = Instant::now();
        let mut model = online.lock().expect("predictor lock");
        let n_kept = kept.len();
        let mut features_of: Vec<Option<Vec<f64>>> = Vec::with_capacity(n_kept);
        let mut provisional: Vec<f64> = vec![f64::INFINITY; n_kept];
        let mut predictions: Vec<Option<Prediction>> = Vec::with_capacity(n_kept);
        for (i, rep) in reports.iter().enumerate() {
            let Ok(report) = rep else {
                features_of.push(None);
                predictions.push(None);
                continue;
            };
            replay_nanos += report.stats.host_nanos;
            let raw = crate::features::raw_sample(&report.stats, fc);
            feat_norm.feed(&raw);
            let feats = feat_norm.features(&raw, fc);
            provisional[i] = predictor.score_features(&feats)?;
            let q = model.predict(&feats).map(|p| Prediction {
                mean: provisional[i] + p.mean,
                std: p.std,
            });
            if q.is_some() {
                stats.queries += 1;
            }
            features_of.push(Some(feats));
            predictions.push(q);
        }

        // Phase 2: pick the escalation set most-promising-first — by
        // provisional score during the cold start, by corrected mean
        // once the model answers — so a tight budget is spent on the
        // candidates most likely to beat the incumbent. The stable
        // sort keeps ties in submission order, so the selection stays
        // bit-deterministic at every `n_parallel`.
        let mut escalate = vec![false; n_kept];
        let mut eligible: Vec<usize> = (0..n_kept).filter(|&i| features_of[i].is_some()).collect();
        let promise =
            |i: usize| -> f64 { predictions[i].as_ref().map_or(provisional[i], |p| p.mean) };
        eligible.sort_by(|&a, &b| promise(a).total_cmp(&promise(b)));
        let mut planned = 0usize;
        for &i in &eligible {
            if pol.budget.is_some_and(|b| accurate_runs + planned >= b) {
                break;
            }
            let esc_now = match &predictions[i] {
                // Cold start: simulate until the first training set
                // exists. `planned` keeps one batch from overshooting
                // `min_train` before the model ever fits.
                None => model.observations() + planned < pol.min_train,
                Some(p) => !incumbent.is_finite() || p.lower(pol.confidence) <= incumbent,
            };
            if esc_now {
                escalate[i] = true;
                planned += 1;
            }
        }
        let mut scores: Vec<f64> = vec![f64::INFINITY; n_kept];
        for i in 0..n_kept {
            if features_of[i].is_some() && !escalate[i] {
                scores[i] = promise(i);
            }
        }
        timings.score_nanos += t0.elapsed().as_nanos() as u64;

        // Accurate pass over the escalated originals, still in order.
        let esc_idx: Vec<usize> = (0..n_kept).filter(|&i| escalate[i]).collect();
        let esc_exes: Vec<_> = esc_idx.iter().map(|&i| kept_exes[i].clone()).collect();
        accurate_runs += esc_exes.len();
        stats.escalations += esc_exes.len() as u64;
        let t0 = Instant::now();
        let acc_reports = accurate.run_stats(&esc_exes);
        timings.sim_nanos += t0.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        for (&i, r) in esc_idx.iter().zip(acc_reports) {
            let Ok(s) = r else {
                continue; // scores[i] stays the INFINITY penalty
            };
            replay_nanos += s.host_nanos;
            let score = predictor.score_streaming(&s, &mut acc_norm)?;
            if let Some(p) = &predictions[i] {
                pred_pairs.push((p.mean, score));
            }
            if let Some(f) = &features_of[i] {
                // Train on the residual; the decision pass adds the
                // provisional back when querying.
                model.observe(f, score - provisional[i]);
            }
            scores[i] = score;
            incumbent = incumbent.min(score);
        }
        if model.refit() {
            stats.train_events += 1;
        }
        drop(model);

        let mut batch_evals: Vec<Evaluation<SketchParams>> = Vec::new();
        for (i, p) in kept.into_iter().enumerate() {
            batch_evals.push(Evaluation {
                point: p,
                score: scores[i],
            });
            verified.push(escalate[i] || !scores[i].is_finite());
        }
        for p in failed {
            batch_evals.push(Evaluation {
                point: p,
                score: f64::INFINITY,
            });
            verified.push(true);
        }
        strategy.observe(&batch_evals);
        for e in &batch_evals {
            history.push(TuneRecord {
                schedule: generator.schedule(&e.point),
                description: format!("{:?}", e.point),
                score: e.score,
            });
        }
        evaluations.extend(batch_evals);
        timings.score_nanos += t0.elapsed().as_nanos() as u64;
    }
    if history.is_empty() {
        return Err(CoreError::Pipeline("tuning produced no candidates".into()));
    }

    // Winner verification: the returned best always carries an
    // accurate-tier score. Each round either confirms the current
    // arg-min or demotes it, so this terminates within `history.len()`
    // accurate runs (far fewer in practice — the winner usually *was*
    // escalated).
    loop {
        let best = argmin_score(&history);
        if history[best].score.is_infinite() {
            return Err(CoreError::Pipeline(
                "no candidate survived accurate verification".into(),
            ));
        }
        if verified[best] {
            break;
        }
        let t0 = Instant::now();
        let built = builder.build(&history[best].schedule, &format!("{}v{best}", def.name));
        timings.build_nanos += t0.elapsed().as_nanos() as u64;
        let Ok(exe) = built else {
            history[best].score = f64::INFINITY;
            verified[best] = true;
            continue;
        };
        accurate_runs += 1;
        stats.escalations += 1;
        let t0 = Instant::now();
        let report = accurate
            .run_stats(std::slice::from_ref(&exe))
            .pop()
            .expect("one report per executable");
        timings.sim_nanos += t0.elapsed().as_nanos() as u64;
        history[best].score = match report {
            Ok(s) => {
                replay_nanos += s.host_nanos;
                predictor.score_streaming(&s, &mut acc_norm)?
            }
            Err(_) => f64::INFINITY,
        };
        verified[best] = true;
    }

    stats.observations = online.lock().expect("predictor lock").observations() as u64;
    stats.avoided_simulations = history
        .iter()
        .zip(&verified)
        .filter(|(r, v)| r.score.is_finite() && !**v)
        .count() as u64;
    if !pred_pairs.is_empty() {
        stats.mean_abs_error =
            pred_pairs.iter().map(|(p, a)| (p - a).abs()).sum::<f64>() / pred_pairs.len() as f64;
        stats.mean_abs_rank_error = rank_displacement(&pred_pairs);
    }

    let best_index = argmin_score(&history);
    Ok(EscalatedTuneResult {
        result: TuneResult {
            history,
            best_index,
            strategy: strategy.name().to_string(),
            convergence: strategy.convergence(),
            simulations: explore_runs + accurate_runs,
            timings,
            predictor: Some(stats),
            replay_nanos,
        },
        explore_backend: explore_name,
        final_backend: final_name,
        explore_runs,
        accurate_runs,
    })
}

fn argmin_score(history: &[TuneRecord]) -> usize {
    history
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.score.partial_cmp(&b.1.score).expect("finite or inf"))
        .map(|(i, _)| i)
        .expect("non-empty history")
}

/// Mean |rank(predicted) − rank(accurate)| over `(predicted, accurate)`
/// score pairs, normalized by the maximum displacement `n − 1`; `0`
/// with fewer than two pairs.
fn rank_displacement(pairs: &[(f64, f64)]) -> f64 {
    let n = pairs.len();
    if n < 2 {
        return 0.0;
    }
    let rank = |xs: &[f64]| {
        let order = simtune_linalg::stats::argsort(xs);
        let mut r = vec![0usize; xs.len()];
        for (pos, &i) in order.iter().enumerate() {
            r[i] = pos;
        }
        r
    };
    let pred: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let acc: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let rp = rank(&pred);
    let ra = rank(&acc);
    let total: f64 = rp
        .iter()
        .zip(&ra)
        .map(|(&a, &b)| (a as f64 - b as f64).abs())
        .sum();
    total / n as f64 / (n - 1) as f64
}

/// Baseline flow: candidates are benchmarked on the (emulated) target
/// hardware; the score is the measured `t_ref` in seconds.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn tune_on_hardware(
    def: &ComputeDef,
    spec: &TargetSpec,
    opts: &TuneOptions,
) -> Result<TuneResult, CoreError> {
    let generator = SketchGenerator::new(def, spec.isa.clone());
    let builder = KernelBuilder::new(def.clone(), spec.isa.clone());
    let hw = HardwareRunner {
        noise_seed: opts.seed ^ 0x7A11,
        ..HardwareRunner::new(spec.clone())
    };
    let mut strategy = opts.strategy.build_sketch(generator.clone(), opts.seed);
    let mut history: Vec<TuneRecord> = Vec::new();
    let mut evaluations: Vec<Evaluation<SketchParams>> = Vec::new();
    let mut hw_runs = 0usize;
    let mut timings = StageTimings::default();
    // Hardware measurement is inherently sequential (Section IV: the
    // board benchmarks one binary at a time), so this loop does not
    // pipeline; the timings still expose where the wall time goes.
    while history.len() < opts.n_trials {
        let want = opts.batch_size.min(opts.n_trials - history.len());
        let t0 = Instant::now();
        let batch = strategy.propose(&evaluations, want);
        timings.propose_nanos += t0.elapsed().as_nanos() as u64;
        if batch.is_empty() {
            break;
        }
        let mut batch_evals: Vec<Evaluation<SketchParams>> = Vec::new();
        for p in batch {
            let schedule = generator.schedule(&p);
            let t0 = Instant::now();
            let built = builder.build(&schedule, &format!("{}h{}", def.name, history.len()));
            timings.build_nanos += t0.elapsed().as_nanos() as u64;
            let score = built
                .and_then(|exe| {
                    hw_runs += 1;
                    let t0 = Instant::now();
                    let measured = hw.run_one(&exe, history.len() + batch_evals.len());
                    timings.sim_nanos += t0.elapsed().as_nanos() as u64;
                    measured
                })
                .map(|m| m.t_ref)
                .unwrap_or(f64::INFINITY);
            batch_evals.push(Evaluation { point: p, score });
        }
        let t0 = Instant::now();
        strategy.observe(&batch_evals);
        for e in &batch_evals {
            history.push(TuneRecord {
                description: format!("{:?}", e.point),
                schedule: generator.schedule(&e.point),
                score: e.score,
            });
        }
        evaluations.extend(batch_evals);
        timings.score_nanos += t0.elapsed().as_nanos() as u64;
    }
    // Hardware measurement replays nothing on a simulator.
    finish(history, strategy.as_ref(), hw_runs, timings, 0)
}

fn finish(
    history: Vec<TuneRecord>,
    strategy: &dyn SearchStrategy<SketchParams>,
    simulations: usize,
    timings: StageTimings,
    replay_nanos: u64,
) -> Result<TuneResult, CoreError> {
    if history.is_empty() {
        return Err(CoreError::Pipeline("tuning produced no candidates".into()));
    }
    let best_index = history
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.score.partial_cmp(&b.1.score).expect("finite or inf"))
        .map(|(i, _)| i)
        .expect("non-empty history");
    Ok(TuneResult {
        history,
        best_index,
        strategy: strategy.name().to_string(),
        convergence: strategy.convergence(),
        simulations,
        timings,
        predictor: None,
        replay_nanos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::{collect_group_data, CollectOptions};
    use simtune_predict::PredictorKind;
    use simtune_tensor::matmul;

    fn setup() -> (ComputeDef, TargetSpec) {
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
        .unwrap();
        let mut predictor = ScorePredictor::new(PredictorKind::LinReg, "riscv", "matmul", 1);
        predictor.train(std::slice::from_ref(&data)).unwrap();
        predictor
    }

    #[test]
    fn hardware_tuning_finds_a_good_schedule() {
        let (def, spec) = setup();
        let result = tune_on_hardware(
            &def,
            &spec,
            &TuneOptions {
                n_trials: 12,
                batch_size: 4,
                seed: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(result.history.len(), 12);
        assert!(result.best().score.is_finite());
        assert_eq!(result.strategy, "random");
        assert_eq!(result.simulations, 12, "every build measured once");
        // The best is at most the median candidate.
        let mut scores: Vec<f64> = result.history.iter().map(|r| r.score).collect();
        scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(result.best().score <= scores[scores.len() / 2]);
    }

    #[test]
    fn predictor_tuning_runs_without_hardware() {
        let (def, spec) = setup();
        let predictor = trained_predictor(&def, &spec);
        let result = tune_with_predictor(
            &def,
            &spec,
            &predictor,
            &TuneOptions {
                n_trials: 10,
                batch_size: 5,
                seed: 9,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(result.history.len(), 10);
        assert!(result.best().score.is_finite());
        assert_eq!(result.convergence.observed, 10);
        assert!(result.convergence.best_score <= result.best().score);
    }

    #[test]
    fn every_builtin_strategy_drives_the_predictor_loop() {
        let (def, spec) = setup();
        let predictor = trained_predictor(&def, &spec);
        for spec_kind in StrategySpec::all() {
            let label = spec_kind.label();
            let result = tune_with_predictor(
                &def,
                &spec,
                &predictor,
                &TuneOptions {
                    n_trials: 8,
                    batch_size: 4,
                    n_parallel: 2,
                    seed: 9,
                    strategy: spec_kind,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(result.strategy, label);
            assert_eq!(result.history.len(), 8, "{label} produced a short history");
            assert!(result.best().score.is_finite(), "{label} found no best");
            assert_eq!(result.convergence.observed, 8);
        }
    }

    #[test]
    fn custom_boxed_strategy_plugs_into_the_loop() {
        let (def, spec) = setup();
        let predictor = trained_predictor(&def, &spec);
        let result = tune_with_predictor(
            &def,
            &spec,
            &predictor,
            &TuneOptions {
                n_trials: 6,
                batch_size: 3,
                seed: 2,
                strategy: StrategySpec::Custom(Arc::new(|space, seed| {
                    Box::new(crate::search::HillClimb::new(space, seed))
                })),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(result.strategy, "hill_climb");
        assert_eq!(result.history.len(), 6);
    }

    fn uncertainty_esc(kind: PredictorKind, budget: Option<usize>) -> EscalationOptions {
        EscalationOptions {
            policy: EscalationPolicy::Uncertainty(UncertaintyPolicy {
                predictor: kind,
                min_train: 4,
                refit_every: 4,
                confidence: 1.0,
                budget,
            }),
            ..EscalationOptions::default()
        }
    }

    #[test]
    fn uncertainty_escalation_needs_fewer_accurate_sims() {
        let (def, spec) = setup();
        let predictor = trained_predictor(&def, &spec);
        let opts = TuneOptions {
            n_trials: 24,
            batch_size: 8,
            n_parallel: 4,
            seed: 9,
            ..Default::default()
        };
        let esc = uncertainty_esc(PredictorKind::LinReg, None);
        let out = tune_with_fidelity_escalation(&def, &spec, &predictor, &opts, &esc).unwrap();
        assert_eq!(out.explore_backend, "predicted(fast-count)");
        assert_eq!(out.final_backend, "accurate");
        assert_eq!(out.result.history.len(), 24);
        assert_eq!(
            out.explore_runs, 24,
            "every candidate ran on the cheap tier"
        );
        assert!(
            out.accurate_runs < opts.n_trials,
            "accurate runs {} must undercut accurate-only {}",
            out.accurate_runs,
            opts.n_trials
        );
        assert!(out.result.best().score.is_finite());
        let ps = out
            .result
            .predictor
            .expect("uncertainty flow records stats");
        assert_eq!(ps.escalations as usize, out.accurate_runs);
        assert!(ps.train_events >= 1, "the model must have fitted");
        assert!(ps.observations >= 4);
        assert!(ps.queries > 0, "the trained model must have been queried");
        assert!(ps.mean_abs_rank_error >= 0.0 && ps.mean_abs_rank_error <= 1.0);
    }

    #[test]
    fn uncertainty_budget_caps_in_sweep_escalations() {
        let (def, spec) = setup();
        let predictor = trained_predictor(&def, &spec);
        let opts = TuneOptions {
            n_trials: 16,
            batch_size: 8,
            n_parallel: 2,
            seed: 4,
            ..Default::default()
        };
        // An enormous confidence band would escalate everything; the
        // budget has to hold the line (winner verification excepted).
        let esc = EscalationOptions {
            policy: EscalationPolicy::Uncertainty(UncertaintyPolicy {
                predictor: PredictorKind::LinReg,
                min_train: 4,
                refit_every: 4,
                confidence: 1e6,
                budget: Some(5),
            }),
            ..EscalationOptions::default()
        };
        let out = tune_with_fidelity_escalation(&def, &spec, &predictor, &opts, &esc).unwrap();
        let ps = out.result.predictor.expect("stats recorded");
        assert!(
            ps.avoided_simulations > 0,
            "the budget must have left candidates on the predicted tier"
        );
        // 5 budgeted runs plus the (bounded) winner-verification loop.
        assert!(
            out.accurate_runs < opts.n_trials,
            "accurate runs {} out of {} trials",
            out.accurate_runs,
            opts.n_trials
        );
    }

    #[test]
    fn uncertainty_escalation_rejects_bad_confidence() {
        let (def, spec) = setup();
        let predictor = trained_predictor(&def, &spec);
        let esc = EscalationOptions {
            policy: EscalationPolicy::Uncertainty(UncertaintyPolicy {
                confidence: f64::NAN,
                ..UncertaintyPolicy::default()
            }),
            ..EscalationOptions::default()
        };
        let err =
            tune_with_fidelity_escalation(&def, &spec, &predictor, &TuneOptions::default(), &esc);
        assert!(matches!(err, Err(CoreError::Pipeline(_))));
    }

    #[test]
    fn rank_displacement_is_normalized() {
        assert_eq!(rank_displacement(&[]), 0.0);
        assert_eq!(rank_displacement(&[(1.0, 5.0)]), 0.0);
        // Perfect agreement.
        assert_eq!(
            rank_displacement(&[(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)]),
            0.0
        );
        // Full reversal of n=2 is the maximum displacement 1.
        assert_eq!(rank_displacement(&[(1.0, 20.0), (2.0, 10.0)]), 1.0);
    }

    #[test]
    fn untrained_predictor_is_rejected() {
        let (def, spec) = setup();
        let predictor = ScorePredictor::new(PredictorKind::LinReg, "riscv", "matmul", 1);
        let err = tune_with_predictor(&def, &spec, &predictor, &TuneOptions::default());
        assert!(matches!(err, Err(CoreError::Pipeline(_))));
    }
}
