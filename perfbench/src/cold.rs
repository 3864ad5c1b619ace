//! The cold workloads: whole autotuning sessions from an empty memo.
//!
//! One session is what a user of the library waits for when tuning one
//! kernel from scratch:
//!
//! 1. **set-up** — `collect_group_data` (sketch sampling, builds,
//!    accurate simulation and the emulated board) and XGBoost
//!    `ScorePredictor::train`;
//! 2. **tuning** — `tune_with_predictor_on` once per built-in strategy,
//!    all five on one `SimSession` sharing one fresh `SimCache`;
//! 3. **teardown** — the session's worker pool and the training data
//!    are released.
//!
//! The workload is a closed loop with one client whose operation is a
//! whole session, so `op_p50_ms`, `op_p99_ms` and `ops_per_s` describe
//! sessions. (Single strategy runs would make a poor operation: their
//! latencies cluster by strategy and memo hit rate, and a median that
//! falls between clusters jumps with small changes in the mix.)
//!
//! A run tunes a fresh input set per session (session `k` of a run
//! seeded `s` uses input seed `s * 10000 + k`) until `--seconds` have
//! passed, and at least `audited_sessions` and `board_sessions` times.
//! Times are medians over all sessions, so they average over many
//! inputs. The deterministic columns come from the audited sessions
//! and `winner_board_us` from the first `board_sessions` sessions, so
//! both repeat exactly for a given seed.
//!
//! After each session's clock has stopped, the benchmark rebuilds every
//! evaluated candidate, fingerprints it and looks it up in the
//! session's memo: each entry found is a trial this session executed
//! (the memo started empty), which gives executed instructions and
//! accesses without crediting memo hits with stored host time. A
//! sample of those trials is re-simulated on the reference interpreter
//! (`EngineKind::Interp`) and must match bit for bit.

use crate::layers::{
    accesses, decompose, matches_oracle, mean, median_total, memo_cost, peak_rss_mb,
    replay_collection, spread_sample, timed, TrialCost,
};
use crate::report::{PerLayer, Report};
use crate::stats::{median, op_tail, summary};
use crate::trace::{traced_strategy, Attribution, Batches, ExecutedTrial, Recorder, TimedBackend};
use simtune_bench::Scale;
use simtune_cache::HierarchyStats;
use simtune_core::{
    collect_group_data, tune_with_predictor_on, AccurateBackend, CollectOptions, CoreError,
    EngineKind, KernelBuilder, ScorePredictor, SimBackend, SimCache, SimSession, StrategySpec,
    TuneOptions, TuneResult,
};
use simtune_hw::{measure_base_seconds, TargetSpec};
use simtune_isa::RunLimits;
use simtune_predict::PredictorKind;
use simtune_tensor::{conv2d_bias_relu, ComputeDef, SketchGenerator, SketchParams};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Simulator instances per session (`n_parallel`).
pub const N_PARALLEL: usize = 2;
/// Table II group every cold workload tunes.
pub const GROUP: usize = 1;
/// Sketch draws allowed per accepted schedule during collection.
const ATTEMPTS_FACTOR: usize = 40;

/// One cold workload's definition.
#[derive(Debug, Clone, Copy)]
pub struct ColdWorkload {
    /// Workload name as passed to `--workload`.
    pub name: &'static str,
    /// Target architecture label.
    pub arch: &'static str,
    /// Conv2D scale.
    pub scale: Scale,
    /// Implementations collected for training.
    pub collect_impls: usize,
    /// Trials per strategy.
    pub n_trials: usize,
    /// Candidates per batch.
    pub batch_size: usize,
    /// Sessions every run makes, whatever `--seconds` says; they carry
    /// the correctness checks and the deterministic columns.
    pub audited_sessions: usize,
    /// Executed trials re-simulated on the oracle per audited session.
    pub checks_per_session: usize,
    /// Sessions every run makes whose strategy winners are measured on
    /// the board for `winner_board_us`. Winner quality varies a lot
    /// from one input to the next, so the metric needs many inputs to
    /// be steady across seeds.
    pub board_sessions: usize,
}

/// `cold-x86-smoke`. Chosen because hierarchy set-up dominates: in a
/// release build, `CacheHierarchy::new` for the 32 MiB x86 L3 costs
/// ~11.7 ms of a ~25.4 ms trial (~46 %), while the smoke working set
/// (~5.5 KB) fits L1d. Peak RSS is ~37 MB against ~14 MB on riscv.
pub const COLD_X86_SMOKE: ColdWorkload = ColdWorkload {
    name: "cold-x86-smoke",
    arch: "x86",
    scale: Scale::Smoke,
    collect_impls: 16,
    n_trials: 16,
    batch_size: 8,
    audited_sessions: 5,
    checks_per_session: 4,
    board_sessions: 30,
};

/// `cold-riscv-quarter`. Chosen as the contrast: a ~5.4 M-instruction,
/// ~174 ms trial whose ~34 KB working set spills L1d into L2. Cache
/// set-up is ~0.24 ms of it (~0.1 %); functional execution is ~40 %
/// and the cache model ~60 %. A set-up optimisation should not move
/// it; engine and hit-path work should.
pub const COLD_RISCV_QUARTER: ColdWorkload = ColdWorkload {
    name: "cold-riscv-quarter",
    arch: "riscv",
    scale: Scale::Quarter,
    collect_impls: 8,
    n_trials: 8,
    batch_size: 4,
    audited_sessions: 2,
    checks_per_session: 1,
    board_sessions: 2,
};

/// The columns of a session that must repeat exactly for a given seed,
/// traced or not.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Deterministic {
    /// `strategy: genotype` of the best candidate over all strategies.
    winner: String,
    /// Bits of the winner's score.
    winner_score_bits: u64,
    /// Memo hits of the tuning phase.
    memo_hits: u64,
    /// Memo misses of the tuning phase.
    memo_misses: u64,
    /// Trials the pool executed in the tuning phase.
    executions: u64,
    /// Instructions retired by the executed trials.
    insts: u64,
    /// Cache accesses of the executed trials.
    accesses: u64,
}

/// What one session measured and produced.
struct Session {
    /// Set-up wall time (s).
    setup_s: f64,
    /// Tuning-phase wall time (s).
    tune_s: f64,
    /// Set-up + tuning + teardown (s).
    session_s: f64,
    /// Deterministic columns.
    det: Deterministic,
    /// Noise-free board time of each strategy run's winner (µs);
    /// empty for sessions that do not measure the board.
    winner_board_us: Vec<f64>,
    /// Simulations submitted by the tuning loops.
    submitted: u64,
    /// Candidates that built but whose simulation failed.
    sim_errors: u64,
    /// Oracle re-simulations run.
    checked: u64,
    /// Oracle re-simulations that disagreed.
    mismatches: u64,
    /// Summed cache counters of the executed trials.
    cache_totals: HierarchyStats,
    /// Artifacts kept for the decomposition pass (traced sessions only).
    kept: Option<Kept>,
}

/// Session state the traced run decomposes after the clock stops.
struct Kept {
    predictor: ScorePredictor,
    memo: Arc<SimCache>,
    limits: RunLimits,
}

/// Tracing hooks of a traced session.
struct Tracing {
    recorder: Arc<Recorder>,
    backend: Arc<TimedBackend>,
    batches: Batches,
}

/// Input seed `k` of a run seeded `seed` (a cold session, or a primed
/// warm tenant).
pub(crate) fn input_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(10_000).wrapping_add(k as u64)
}

fn target(w: &ColdWorkload) -> Result<(TargetSpec, ComputeDef), CoreError> {
    let spec = TargetSpec::by_name(w.arch)
        .ok_or_else(|| CoreError::Pipeline(format!("unknown arch {}", w.arch)))?;
    Ok((spec, conv2d_bias_relu(&w.scale.conv_groups()[GROUP])))
}

fn tune_options(w: &ColdWorkload, seed: u64, strategy: StrategySpec) -> TuneOptions {
    TuneOptions {
        n_trials: w.n_trials,
        batch_size: w.batch_size,
        n_parallel: N_PARALLEL,
        seed,
        strategy,
        engine: EngineKind::Decoded,
        ..TuneOptions::default()
    }
}

/// Runs one session on input seed `seed`; an audited session also
/// runs the oracle checks, and a `board` session measures its winners
/// on the board.
fn session(
    w: &ColdWorkload,
    seed: u64,
    audited: bool,
    board: bool,
    tracing: Option<&Tracing>,
) -> Result<Session, CoreError> {
    let span = |layer: &'static str, start: Instant| {
        if let Some(t) = tracing {
            t.recorder.record(layer, start, Instant::now());
        }
    };
    let start = Instant::now();
    let (spec, def) = target(w)?;
    let collect_start = Instant::now();
    let data = collect_group_data(
        &def,
        &spec,
        GROUP,
        &CollectOptions {
            n_impls: w.collect_impls,
            n_parallel: N_PARALLEL,
            seed,
            max_attempts_factor: ATTEMPTS_FACTOR,
            memo_cache: None,
        },
    )?;
    span("workflow.collect", collect_start);
    let train_start = Instant::now();
    let mut predictor = ScorePredictor::new(PredictorKind::Xgboost, w.arch, "conv2d_bias_relu", 1);
    predictor.train(std::slice::from_ref(&data))?;
    span("predict.train", train_start);
    let tune_start = Instant::now();
    let setup_s = (tune_start - start).as_secs_f64();

    let memo = Arc::new(SimCache::new());
    let accurate: Arc<dyn SimBackend> = Arc::new(AccurateBackend::new(spec.hierarchy.clone()));
    let backend: Arc<dyn SimBackend> = match tracing {
        Some(t) => t.backend.clone(),
        None => accurate.clone(),
    };
    let sim = SimSession::builder()
        .backend(backend)
        .n_parallel(N_PARALLEL)
        .memo_cache(memo.clone())
        .engine(EngineKind::Decoded)
        .build()?;
    let mut results = Vec::new();
    for strategy in StrategySpec::all() {
        let strategy = match tracing {
            Some(t) => traced_strategy(strategy, t.recorder.clone(), t.batches.clone()),
            None => strategy,
        };
        let opts = tune_options(w, seed, strategy);
        results.push(tune_with_predictor_on(
            &def, &spec, &predictor, &opts, &sim,
        )?);
    }
    let teardown_start = Instant::now();
    let tune_s = (teardown_start - tune_start).as_secs_f64();
    span("phase.tune", tune_start);
    let memo_stats = memo.stats();
    let executions = sim.pool_stats().trials;
    let limits = sim.limits();
    drop(sim);
    drop(data);
    let session_s = start.elapsed().as_secs_f64();

    // Post-pass, off the clock.
    let digest = accurate
        .fidelity_digest()
        .expect("the accurate backend memoizes");
    let builder = KernelBuilder::new(def.clone(), spec.isa.clone());
    let mut seen = HashSet::new();
    let mut executed = Vec::new();
    let mut sim_errors = 0;
    let mut best: Option<(&TuneResult, usize)> = None;
    for result in &results {
        for (i, rec) in result.history.iter().enumerate() {
            if best.is_none_or(|(r, j)| rec.score < r.history[j].score) {
                best = Some((result, i));
            }
            let Ok(exe) = builder.build(&rec.schedule, &def.name) else {
                continue; // an invalid schedule is a property of the workload
            };
            let key = simtune_core::memo_fingerprint(&exe, &digest, &limits, EngineKind::Decoded);
            if seen.insert(key.clone()) {
                match memo.lookup(&key) {
                    Some(report) => executed.push(ExecutedTrial {
                        exe,
                        stats: report.stats,
                    }),
                    None => sim_errors += 1,
                }
            }
        }
    }
    let (best_result, best_index) = best.ok_or_else(|| CoreError::Pipeline("no trials".into()))?;
    let winner = &best_result.history[best_index];
    let mut winner_board_us = Vec::new();
    for result in results.iter().filter(|_| board) {
        let exe = builder.build(&result.best().schedule, &def.name)?;
        winner_board_us.push(measure_base_seconds(&exe, &spec)? * 1e6);
    }
    let checks = if audited { w.checks_per_session } else { 0 };
    let mut cache_totals = HierarchyStats::default();
    for t in &executed {
        add_hierarchy(&mut cache_totals, &t.stats.cache);
    }
    let mut mismatches = 0;
    let sample = spread_sample(&executed, checks);
    for t in &sample {
        if !matches_oracle(&t.exe, &t.stats, &spec.hierarchy, limits)? {
            mismatches += 1;
        }
    }
    let det = Deterministic {
        winner: format!("{}: {}", best_result.strategy, winner.description),
        winner_score_bits: winner.score.to_bits(),
        memo_hits: memo_stats.hits,
        memo_misses: memo_stats.misses,
        executions,
        insts: executed.iter().map(|t| t.stats.inst_mix.total()).sum(),
        accesses: executed.iter().map(|t| accesses(&t.stats)).sum(),
    };
    Ok(Session {
        setup_s,
        tune_s,
        session_s,
        det,
        winner_board_us,
        submitted: results.iter().map(|r| r.simulations as u64).sum(),
        sim_errors,
        checked: sample.len() as u64,
        mismatches,
        cache_totals,
        kept: tracing.map(|_| Kept {
            predictor,
            memo,
            limits,
        }),
    })
}

fn add_hierarchy(total: &mut HierarchyStats, s: &HierarchyStats) {
    let add = |t: &mut simtune_cache::CacheStats, s: &simtune_cache::CacheStats| {
        t.read_hits += s.read_hits;
        t.read_misses += s.read_misses;
        t.read_replacements += s.read_replacements;
        t.write_hits += s.write_hits;
        t.write_misses += s.write_misses;
        t.write_replacements += s.write_replacements;
    };
    add(&mut total.l1d, &s.l1d);
    add(&mut total.l1i, &s.l1i);
    add(&mut total.l2, &s.l2);
}

fn miss_ratio(c: &simtune_cache::CacheStats) -> f64 {
    let n = c.accesses();
    if n == 0 {
        0.0
    } else {
        (c.read_misses + c.write_misses) as f64 / n as f64
    }
}

/// Runs the untraced benchmark: a warm-up session, then sessions on
/// fresh inputs until `seconds` have passed (and at least the audited
/// ones). Prints every end-to-end metric.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn run(w: &ColdWorkload, seed: u64, seconds: u64) -> Result<Report, CoreError> {
    // Warm-up: session 0's inputs once off the record, so lazy set-up
    // (allocator growth, first-touch page faults) is done.
    session(w, input_seed(seed, 0), false, false, None)?;
    let start = Instant::now();
    let min_sessions = w.audited_sessions.max(w.board_sessions);
    let mut sessions = Vec::new();
    while sessions.len() < min_sessions || start.elapsed() < Duration::from_secs(seconds) {
        let k = sessions.len();
        sessions.push(session(
            w,
            input_seed(seed, k),
            k < w.audited_sessions,
            k < w.board_sessions,
            None,
        )?);
    }
    let audited = &sessions[..w.audited_sessions];
    let col = |f: fn(&Session) -> f64| sessions.iter().map(f).collect::<Vec<_>>();
    // The cold workload's operation is a whole session.
    let ops = col(|s| s.session_s * 1e3);
    let (tail_pct, op_tail) = op_tail(&ops);
    eprintln!(
        "[{}] {} sessions; setup_s {}; tune_s {}; op tail is p{tail_pct}",
        w.name,
        sessions.len(),
        summary(&col(|s| s.setup_s)),
        summary(&col(|s| s.tune_s)),
    );
    for s in audited {
        eprintln!("  audited: {:?}", s.det);
    }
    let mut report = tally(&sessions.iter().collect::<Vec<_>>());
    report.push("setup_s", median(&col(|s| s.setup_s)), "s");
    report.push("tune_s", median(&col(|s| s.tune_s)), "s");
    report.push("session_s", median(&col(|s| s.session_s)), "s");
    report.push(
        "sim_mips",
        median(&col(|s| s.det.insts as f64 / s.tune_s / 1e6)),
        "MIPS",
    );
    report.push("op_p50_ms", median(&ops), "ms");
    report.push("op_p99_ms", op_tail, "ms");
    report.push(
        "ops_per_s",
        ops.len() as f64 / (ops.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    report.push("peak_rss_mb", peak_rss_mb(), "MB");
    let boards: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.winner_board_us.clone())
        .collect();
    report.push("winner_board_us", median(&boards), "us");
    Ok(report)
}

/// Correctness verdict and operation counts over `sessions`.
fn tally(sessions: &[&Session]) -> Report {
    let attempted: u64 = sessions.iter().map(|s| s.submitted + s.checked).sum();
    let failed: u64 = sessions.iter().map(|s| s.sim_errors + s.mismatches).sum();
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics: Vec::new(),
    }
}

/// Trials decomposed per traced session (an evenly spaced sample).
const DECOMPOSE_SAMPLE: usize = 12;
/// Recorded batches replayed to time `BatchTicket::wait`.
const WAIT_REPLAYS: usize = 2;

/// Runs the traced benchmark: an untraced session, the same session
/// traced, then the decomposition pass. Prints every per-layer metric.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn run_traced(w: &ColdWorkload, seed: u64) -> Result<Report, CoreError> {
    let seed = input_seed(seed, 0);
    // Warm-up off the record, as in the untraced run.
    session(w, seed, false, false, None)?;
    let plain = session(w, seed, true, true, None)?;
    let (spec, def) = target(w)?;
    let recorder = Arc::new(Recorder::default());
    let tracing = Tracing {
        recorder: recorder.clone(),
        backend: Arc::new(TimedBackend::new(
            Arc::new(AccurateBackend::new(spec.hierarchy.clone())),
            recorder.clone(),
        )),
        batches: Batches::default(),
    };
    let traced = session(w, seed, true, true, Some(&tracing))?;
    let mut report = tally(&[&plain, &traced]);
    let kept = traced
        .kept
        .as_ref()
        .expect("traced sessions keep artifacts");
    let executed = tracing.backend.executed();

    // Equivalence: tracing must not change what the session computed.
    let wrapper_insts: u64 = executed.iter().map(|t| t.stats.inst_mix.total()).sum();
    let wrapper_accesses: u64 = executed.iter().map(|t| accesses(&t.stats)).sum();
    if plain.det != traced.det
        || executed.len() as u64 != traced.det.executions
        || wrapper_insts != traced.det.insts
        || wrapper_accesses != traced.det.accesses
    {
        eprintln!(
            "[{}] traced run diverged: untraced {:?}, traced {:?}, wrapper saw {} trials / {wrapper_insts} insts / {wrapper_accesses} accesses",
            w.name,
            plain.det,
            traced.det,
            executed.len()
        );
        report.failed += 1;
        report.correct = false;
    }

    let mut layers = PerLayer {
        isa_insts: traced.det.insts as f64,
        cache_accesses: traced.det.accesses as f64,
        cache_l1d_miss_ratio: miss_ratio(&traced.cache_totals.l1d),
        cache_l2_miss_ratio: miss_ratio(&traced.cache_totals.l2),
        memo_executions: traced.det.executions as f64,
        memo_hit_ratio: traced.det.memo_hits as f64
            / (traced.det.memo_hits + traced.det.memo_misses).max(1) as f64,
        trace_overhead: traced.session_s / plain.session_s,
        ..PerLayer::default()
    };

    // Trial layers, on a sample of the trials the backend executed.
    let sample = spread_sample(&executed, DECOMPOSE_SAMPLE);
    let costs = sample
        .iter()
        .map(|t| decompose(&t.exe, &spec.hierarchy, kept.limits))
        .collect::<Result<Vec<TrialCost>, _>>()?;
    let sum = |f: fn(&TrialCost) -> f64| costs.iter().map(f).sum::<f64>();
    let col = |f: fn(&TrialCost) -> f64| costs.iter().map(f).collect::<Vec<_>>();
    let sample_insts: u64 = costs.iter().map(|c| c.insts).sum();
    let sample_accesses: u64 = costs.iter().map(|c| c.accesses).sum();
    layers.isa_decode_us = median(&col(|c| c.decode_ns)) / 1e3;
    layers.isa_exec_ns_per_inst = sum(|c| c.count_ns) / sample_insts.max(1) as f64;
    layers.cache_setup_us = median(&col(|c| c.setup_ns)) / 1e3;
    layers.cache_model_ns_per_access = sum(TrialCost::model_ns) / sample_accesses.max(1) as f64;
    let trial_ns = mean(&col(|c| c.full_ns));
    let decode_ns = mean(&col(|c| c.decode_ns));

    // Memo and score layers.
    let digest = tracing
        .backend
        .fidelity_digest()
        .expect("the accurate backend memoizes");
    let memo: Vec<_> = sample
        .iter()
        .map(|t| memo_cost(&t.exe, &digest, &kept.limits, &kept.memo))
        .collect();
    layers.memo_fingerprint_us =
        median(&memo.iter().map(|m| m.fingerprint_ns).collect::<Vec<_>>()) / 1e3;
    layers.memo_lookup_us = median(&memo.iter().map(|m| m.lookup_ns).collect::<Vec<_>>()) / 1e3;
    let all_stats: Vec<_> = executed.iter().map(|t| t.stats.clone()).collect();
    let (scored, score_ns) = timed(|| kept.predictor.score_group(&all_stats));
    scored?;
    layers.score_us_per_trial = score_ns / all_stats.len().max(1) as f64 / 1e3;

    // Build layer, over every proposed candidate.
    let batches = tracing
        .batches
        .lock()
        .expect("no benchmark thread panicked")
        .clone();
    let generator = SketchGenerator::new(&def, spec.isa.clone());
    let builder = KernelBuilder::new(def.clone(), spec.isa.clone());
    let mut build_ns = Vec::new();
    let mut build_failures = 0usize;
    for params in batches.iter().flatten() {
        let schedule = generator.schedule(params);
        let (built, ns) = timed(|| builder.build(&schedule, &def.name));
        build_ns.push(ns);
        build_failures += usize::from(built.is_err());
    }
    layers.tensor_build_us = median(&build_ns) / 1e3;
    layers.tensor_build_fail_ratio = build_failures as f64 / build_ns.len().max(1) as f64;

    // Search and pool layers from the recorded spans.
    let propose = recorder.durations("search.propose");
    layers.search_propose_us = median(&propose) / 1e3;
    let trials = recorder.durations("backend.trial");
    let busy: f64 = trials.iter().sum();
    let tune_ns = recorder.total("phase.tune");
    layers.backend_trial_us = median(&trials) / 1e3;
    layers.pool_utilization = busy / (N_PARALLEL as f64 * tune_ns);
    layers.pool_wait_us = replay_waits(&batches, &generator, &builder, &spec)? / 1e3;

    // Set-up layers: the collection's front end replayed with its seed.
    let collection = replay_collection(&def, &spec, GROUP, w.collect_impls, ATTEMPTS_FACTOR, seed)?;
    layers.tensor_sample_us = median(&collection.sample_ns) / 1e3;
    layers.hw_measure_ms = median(&collection.measure_ns) / 1e6;
    let train_ns = recorder.total("predict.train");
    layers.predict_train_ms = train_ns / 1e6;
    let collection_trials = spread_sample(&collection.exes, DECOMPOSE_SAMPLE / 2)
        .into_iter()
        .map(|exe| decompose(exe, &spec.hierarchy, kept.limits))
        .collect::<Result<Vec<TrialCost>, _>>()?;
    let collection_trial_ns = mean(
        &collection_trials
            .iter()
            .map(|c| c.decode_ns + c.full_ns)
            .collect::<Vec<_>>(),
    );

    // Coverage: layer time attributed to the traced session's wall.
    // Decomposed layers count median per call times calls; worker-side
    // time counts once per `n_parallel`.
    let par = N_PARALLEL as f64;
    let submitted = traced.submitted as f64;
    let mut att = Attribution::default();
    att.add(
        "setup",
        "tensor.sample",
        median_total(&collection.sample_ns),
    );
    att.add("setup", "tensor.build", median_total(&collection.build_ns));
    att.add(
        "setup",
        "collection.trial",
        collection_trial_ns * collection.exes.len() as f64 / par,
    );
    att.add("setup", "hw.measure", median_total(&collection.measure_ns));
    att.add("setup", "predict.train", train_ns);
    att.add(
        "tune",
        "search",
        propose.iter().sum::<f64>() + recorder.total("search.observe"),
    );
    att.add("tune", "tensor.build", median_total(&build_ns));
    att.add(
        "tune",
        "memo",
        submitted * (layers.memo_fingerprint_us + layers.memo_lookup_us) * 1e3,
    );
    att.add("tune", "score", layers.score_us_per_trial * 1e3 * submitted);
    att.add(
        "tune",
        "isa.decode",
        decode_ns * executed.len() as f64 / par,
    );
    att.add("tune", "backend.trial", busy / par);
    let session_ns = traced.session_s * 1e9;
    layers.trace_coverage = att.total(None) / session_ns;
    let setup_share = sum(|c| c.setup_ns) / sum(|c| c.full_ns).max(1.0);
    eprintln!(
        "[{}] traced session {:.3} s (untraced {:.3} s); a trial takes {:.0} us, of which cache set-up {:.0} us ({:.1} %); coverage {:.3}; unattributed tuning time is pool idle (utilization {:.2})",
        w.name,
        traced.session_s,
        plain.session_s,
        trial_ns / 1e3,
        layers.cache_setup_us,
        setup_share * 100.0,
        layers.trace_coverage,
        layers.pool_utilization
    );
    let setup_ns = recorder.total("workflow.collect") + train_ns;
    att.print(&[("setup", setup_ns), ("tune", tune_ns)]);
    layers.push_into(&mut report);
    Ok(report)
}

/// Median `BatchTicket::wait` time (ns) of the first recorded batches,
/// replayed on a fresh session with no memo so every trial executes.
fn replay_waits(
    batches: &[Vec<SketchParams>],
    generator: &SketchGenerator,
    builder: &KernelBuilder,
    spec: &TargetSpec,
) -> Result<f64, CoreError> {
    let sim = SimSession::builder()
        .accurate(&spec.hierarchy)
        .n_parallel(N_PARALLEL)
        .engine(EngineKind::Decoded)
        .build()?;
    let mut waits = Vec::new();
    for batch in batches.iter().take(WAIT_REPLAYS) {
        let exes: Vec<_> = batch
            .iter()
            .filter_map(|p| builder.build(&generator.schedule(p), "replay").ok())
            .collect();
        let ticket = sim.submit(exes);
        let (results, ns) = timed(|| ticket.wait());
        for r in results {
            r?;
        }
        waits.push(ns);
    }
    Ok(median(&waits))
}
