//! The warm workload: an in-process `simtune_serve` session whose every
//! simulation is answered from a memo snapshot.
//!
//! A run first primes, once per input seed: it opens the tenant through
//! the library calls `Server::open` makes (`SimService::open_fidelity`,
//! `collect_group_data` into the shared cache, `ScorePredictor::train`),
//! runs one cycle of the workload's `tune` ops cold, and saves the
//! shared cache as that input's snapshot. Those cold passes are the
//! run's only simulation work: `sim_mips` is measured on them, and
//! `winner_board_us` is the median board time of their ops' winners.
//!
//! Then, until `--seconds` have passed, it repeats warm sessions,
//! rotating over the inputs, driven through
//! `simtune_bench::serve::roundtrip` as a closed loop with one client:
//!
//! 1. **set-up** — `Server::new`, `load_cache`, `open`;
//! 2. **tuning** — `tune` ops rotating strategies and seeds, with a
//!    `stats` op every few ops;
//! 3. **teardown** — `close` and dropping the server.
//!
//! Every `tune` response must equal the primed result (best score bit
//! for bit, trials, simulations), and the pool must execute nothing.
//! Priming through the library rather than the server makes this a
//! cross-path check: a server that tuned differently from the library
//! would miss the snapshot and fail it.

use crate::cold::{input_seed, N_PARALLEL};
use crate::layers::{median_total, memo_cost, peak_rss_mb, replay_collection, timed, MemoCost};
use crate::report::{PerLayer, Report};
use crate::stats::{median, op_tail, summary};
use crate::trace::{traced_strategy, Attribution, Batches, Recorder, TimedBackend};
use simtune_bench::serve::{roundtrip, Request, Response, Server};
use simtune_bench::Scale;
use simtune_core::{
    collect_group_data, tune_with_predictor_on, CollectOptions, CoreError, EngineKind,
    FidelitySpec, KernelBuilder, ScorePredictor, SimBackend, SimCache, SimService, SimSession,
    StrategySpec, TuneOptions, TuneResult,
};
use simtune_hw::{measure_base_seconds, TargetSpec};
use simtune_isa::SimStats;
use simtune_predict::PredictorKind;
use simtune_tensor::{conv2d_bias_relu, ComputeDef};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tenant name every session opens.
const TENANT: &str = "bench";
/// Strategies in rotation order, as the serve protocol names them.
const STRATEGIES: [&str; 5] = ["random", "grid", "hill", "evolutionary", "annealing"];
/// Sketch draws allowed per accepted schedule (what `Server::open` uses).
const ATTEMPTS_FACTOR: usize = 40;

/// The warm workload's definition.
#[derive(Debug, Clone, Copy)]
pub struct WarmWorkload {
    /// Workload name as passed to `--workload`.
    pub name: &'static str,
    /// Training-set size of `open`.
    pub impls: u64,
    /// Trials per `tune` op.
    pub n_trials: u64,
    /// Batch size per `tune` op.
    pub batch_size: u64,
    /// Tune seeds per cycle; a cycle is every strategy at every seed.
    pub seeds_per_cycle: u64,
    /// `tune` ops per warm session.
    pub ops_per_session: usize,
    /// A `stats` op follows every this many `tune` ops.
    pub stats_every: usize,
    /// Distinct `open` seeds per run, each primed once; warm sessions
    /// rotate over them.
    pub inputs_per_run: usize,
}

/// `warm-serve-riscv`. Chosen because every simulation is a memo hit
/// (a probe saw 976 hits, 0 misses and 0.6–0.8 ms p50 per op): the
/// memo, build, search, score and framing layers do all the work and
/// the simulator layers none. It covers memo reads beside the memo
/// writes of the cold workloads.
pub const WARM_SERVE_RISCV: WarmWorkload = WarmWorkload {
    name: "warm-serve-riscv",
    impls: 16,
    n_trials: 8,
    batch_size: 4,
    seeds_per_cycle: 2,
    ops_per_session: 200,
    stats_every: 10,
    inputs_per_run: 16,
};

/// One `tune` op of the cycle.
#[derive(Debug, Clone, Copy)]
struct Op {
    strategy: &'static str,
    seed: u64,
}

/// The deterministic part of a `tune` result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Expected {
    best_bits: u64,
    trials: u64,
    simulations: u64,
}

impl Expected {
    fn of_result(r: &TuneResult) -> Expected {
        Expected {
            best_bits: r.best().score.to_bits(),
            trials: r.history.len() as u64,
            simulations: r.simulations as u64,
        }
    }

    fn matches(&self, resp: &Response) -> bool {
        resp.ok
            && resp.best_score.map(f64::to_bits) == Some(self.best_bits)
            && resp.trials == Some(self.trials)
            && resp.simulations == Some(self.simulations)
    }
}

fn cycle(w: &WarmWorkload, seed: u64) -> Vec<Op> {
    (0..w.seeds_per_cycle)
        .flat_map(|k| {
            STRATEGIES.map(|strategy| Op {
                strategy,
                seed: seed.wrapping_mul(w.seeds_per_cycle).wrapping_add(k),
            })
        })
        .collect()
}

fn workload() -> (TargetSpec, ComputeDef) {
    // What `Server::open` builds for `arch: riscv, workload: conv2d`.
    (
        TargetSpec::riscv_u74(),
        conv2d_bias_relu(&Scale::Smoke.conv_groups()[1]),
    )
}

fn tune_options(w: &WarmWorkload, op: Op, strategy: StrategySpec) -> TuneOptions {
    // What `Server::tune` builds from a plain `tune` request.
    TuneOptions {
        n_trials: w.n_trials as usize,
        batch_size: w.batch_size as usize,
        seed: op.seed,
        strategy,
        ..TuneOptions::default()
    }
}

fn request(id: u64, op: &str) -> Request {
    Request {
        id,
        op: op.into(),
        ..Request::default()
    }
}

fn open_request(w: &WarmWorkload, seed: u64) -> Request {
    Request {
        tenant: Some(TENANT.into()),
        arch: Some("riscv".into()),
        workload: Some("conv2d".into()),
        impls: Some(w.impls),
        seed: Some(seed),
        ..request(1, "open")
    }
}

fn tune_request(w: &WarmWorkload, id: u64, op: Op) -> Request {
    Request {
        tenant: Some(TENANT.into()),
        n_trials: Some(w.n_trials),
        batch_size: Some(w.batch_size),
        seed: Some(op.seed),
        strategy: Some(op.strategy.into()),
        ..request(id, "tune")
    }
}

fn collect_options(w: &WarmWorkload, seed: u64, memo: &Arc<SimCache>) -> CollectOptions {
    CollectOptions {
        n_impls: w.impls as usize,
        n_parallel: N_PARALLEL,
        seed,
        max_attempts_factor: ATTEMPTS_FACTOR,
        memo_cache: Some(memo.clone()),
    }
}

/// Result of one cold priming pass.
struct Primed {
    expected: Vec<Expected>,
    /// Instructions the cold tune ops executed.
    insts: u64,
    /// Wall time of the cold tune ops (s).
    tune_s: f64,
    winner_board_us: Vec<f64>,
    sim_errors: u64,
}

/// Primes `snapshot` with the open and one cycle of tune ops, cold.
fn prime(w: &WarmWorkload, seed: u64, snapshot: &Path) -> Result<Primed, CoreError> {
    let (spec, def) = workload();
    let service = SimService::builder().n_parallel(N_PARALLEL).build();
    let tenant = service.open_fidelity(TENANT, &FidelitySpec::Accurate, &spec.hierarchy)?;
    let data = collect_group_data(&def, &spec, 0, &collect_options(w, seed, service.cache()))?;
    let mut predictor = ScorePredictor::new(PredictorKind::Xgboost, "riscv", "conv2d", 0);
    predictor.train(std::slice::from_ref(&data))?;
    // Entries present before tuning are the collection's, not tuning's.
    let before = SimCache::new();
    let pre_path = snapshot.with_extension("pre");
    service.save_snapshot(&pre_path).map_err(io)?;
    before.load_from(&pre_path).map_err(io)?;
    let _ = std::fs::remove_file(&pre_path);

    let start = Instant::now();
    let mut tuned = Vec::new();
    for op in cycle(w, seed) {
        let opts = tune_options(w, op, op.strategy.parse()?);
        tuned.push(tenant.tune(&def, &spec, &predictor, &opts)?);
    }
    let tune_s = start.elapsed().as_secs_f64();
    service.save_snapshot(snapshot).map_err(io)?;

    // Off the clock: instructions of the trials tuning executed.
    let digest = tenant
        .session()
        .backend()
        .fidelity_digest()
        .expect("the accurate backend memoizes");
    let limits = tenant.session().limits();
    let builder = KernelBuilder::new(def.clone(), spec.isa.clone());
    let mut seen = HashSet::new();
    let mut insts = 0u64;
    let mut sim_errors = 0u64;
    for rec in tuned.iter().flat_map(|r| &r.history) {
        let Ok(exe) = builder.build(&rec.schedule, &def.name) else {
            continue;
        };
        let key = simtune_core::memo_fingerprint(&exe, &digest, &limits, EngineKind::Decoded);
        if !seen.insert(key.clone()) || before.lookup(&key).is_some() {
            continue;
        }
        match service.cache().lookup(&key) {
            Some(report) => insts += report.stats.inst_mix.total(),
            None => sim_errors += 1,
        }
    }
    let mut boards = Vec::new();
    for result in &tuned {
        let exe = builder.build(&result.best().schedule, &def.name)?;
        boards.push(measure_base_seconds(&exe, &spec)? * 1e6);
    }
    Ok(Primed {
        expected: tuned.iter().map(Expected::of_result).collect(),
        insts,
        tune_s,
        winner_board_us: boards,
        sim_errors,
    })
}

/// What one warm session measured.
struct WarmSession {
    setup_s: f64,
    tune_s: f64,
    session_s: f64,
    op_ms: Vec<f64>,
    requests: u64,
    failed: u64,
    memo_hits: u64,
    memo_misses: u64,
    executions: u64,
}

/// Sends `req`, counting a failure when the response is not `ok`.
fn send(server: &mut Server, req: &Request, failed: &mut u64) -> Result<Response, CoreError> {
    let resp = roundtrip(server, req).map_err(io)?;
    if !resp.ok {
        eprintln!("{} op failed: {:?}", req.op, resp.error);
        *failed += 1;
    }
    Ok(resp)
}

/// Runs one warm session. With a recorder, every request's roundtrip is
/// recorded as a `serve.roundtrip` span.
fn warm_session(
    w: &WarmWorkload,
    seed: u64,
    snapshot: &Path,
    expected: &[Expected],
    recorder: Option<&Recorder>,
) -> Result<WarmSession, CoreError> {
    let ops = cycle(w, seed);
    let mut failed = 0;
    let mut requests = 0;
    let mut exchange = |server: &mut Server, req: &Request| {
        requests += 1;
        match recorder {
            Some(r) => r.time("serve.roundtrip", || send(server, req, &mut failed)),
            None => send(server, req, &mut failed),
        }
    };
    let start = Instant::now();
    let mut server = Server::new(SimService::builder().n_parallel(N_PARALLEL).build());
    let load = Request {
        path: Some(snapshot.display().to_string()),
        ..request(0, "load_cache")
    };
    let loaded = exchange(&mut server, &load)?;
    exchange(&mut server, &open_request(w, seed))?;
    let tune_start = Instant::now();
    let before = exchange(&mut server, &request(2, "stats"))?;
    let mut op_ms = Vec::with_capacity(w.ops_per_session);
    let mut mismatches = 0;
    for i in 0..w.ops_per_session {
        let req = tune_request(w, 10 + i as u64, ops[i % ops.len()]);
        let (resp, ns) = timed(|| exchange(&mut server, &req));
        op_ms.push(ns / 1e6);
        if !expected[i % ops.len()].matches(&resp?) {
            mismatches += 1;
        }
        if (i + 1) % w.stats_every == 0 {
            exchange(&mut server, &request(3, "stats"))?;
        }
    }
    let after = exchange(&mut server, &request(4, "stats"))?;
    let tune_s = tune_start.elapsed().as_secs_f64();
    let close = Request {
        tenant: Some(TENANT.into()),
        ..request(5, "close")
    };
    exchange(&mut server, &close)?;
    drop(server);
    let session_s = start.elapsed().as_secs_f64();
    // Counters are cumulative; the tuning phase's share is the change.
    let delta = |f: fn(&Response) -> Option<u64>| {
        f(&after)
            .unwrap_or(0)
            .saturating_sub(f(&before).unwrap_or(0))
    };
    let executions = delta(|r| r.trials);
    if loaded.entries.unwrap_or(0) == 0 || executions > 0 || mismatches > 0 {
        eprintln!(
            "[{}] warm session broke its premise: {} entries loaded, {executions} executions, {mismatches} mismatched tune responses",
            w.name,
            loaded.entries.unwrap_or(0)
        );
        failed += mismatches + u64::from(executions > 0 || loaded.entries.unwrap_or(0) == 0);
    }
    Ok(WarmSession {
        setup_s: (tune_start - start).as_secs_f64(),
        tune_s,
        session_s,
        op_ms,
        requests,
        failed,
        memo_hits: delta(|r| r.memo_hits),
        memo_misses: delta(|r| r.memo_misses),
        executions,
    })
}

fn io(e: std::io::Error) -> CoreError {
    CoreError::Pipeline(format!("I/O failed: {e}"))
}

/// Scratch snapshot locations inside the working directory, one per
/// input; removed again when the run ends.
struct Snapshots(Vec<PathBuf>);

impl Snapshots {
    fn new(w: &WarmWorkload, inputs: usize) -> Result<Snapshots, CoreError> {
        let dir = Path::new(".bench_build").join("perfbench");
        std::fs::create_dir_all(&dir).map_err(io)?;
        Ok(Snapshots(
            (0..inputs)
                .map(|m| dir.join(format!("{}-{}-{m}.snapshot", w.name, std::process::id())))
                .collect(),
        ))
    }
}

impl Drop for Snapshots {
    fn drop(&mut self) {
        for path in &self.0 {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Runs the untraced benchmark. Prints every end-to-end metric.
///
/// # Errors
///
/// Propagates pipeline and snapshot I/O failures.
pub fn run(w: &WarmWorkload, seed: u64, seconds: u64) -> Result<Report, CoreError> {
    let snapshots = Snapshots::new(w, w.inputs_per_run)?;
    let inputs: Vec<u64> = (0..w.inputs_per_run).map(|m| input_seed(seed, m)).collect();
    // Warm-up: one priming pass and one session off the record, so
    // lazy set-up (allocator growth, first-touch page faults) is done.
    let warmup = prime(w, inputs[0], &snapshots.0[0])?;
    warm_session(w, inputs[0], &snapshots.0[0], &warmup.expected, None)?;
    let primed = inputs
        .iter()
        .zip(&snapshots.0)
        .map(|(&s, path)| prime(w, s, path))
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let mut sessions = Vec::new();
    while sessions.len() < inputs.len() || start.elapsed() < Duration::from_secs(seconds) {
        let m = sessions.len() % inputs.len();
        sessions.push(warm_session(
            w,
            inputs[m],
            &snapshots.0[m],
            &primed[m].expected,
            None,
        )?);
    }
    let ops: Vec<f64> = sessions.iter().flat_map(|s| s.op_ms.clone()).collect();
    let total_tune: f64 = sessions.iter().map(|s| s.tune_s).sum();
    let (tail_pct, op_tail) = op_tail(&ops);
    let col = |f: fn(&WarmSession) -> f64| sessions.iter().map(f).collect::<Vec<_>>();
    eprintln!(
        "[{}] {} sessions over {} inputs; setup_s {}; tune_s {}; {} tune ops, op tail is p{tail_pct}; {} hits / {} misses / {} executions",
        w.name,
        sessions.len(),
        inputs.len(),
        summary(&col(|s| s.setup_s)),
        summary(&col(|s| s.tune_s)),
        ops.len(),
        sessions.iter().map(|s| s.memo_hits).sum::<u64>(),
        sessions.iter().map(|s| s.memo_misses).sum::<u64>(),
        sessions.iter().map(|s| s.executions).sum::<u64>(),
    );
    let failed = sessions.iter().map(|s| s.failed).sum::<u64>()
        + primed.iter().map(|p| p.sim_errors).sum::<u64>();
    let mut report = Report {
        correct: failed == 0,
        attempted: sessions.iter().map(|s| s.requests).sum(),
        failed,
        metrics: Vec::new(),
    };
    // Per input, the median over its sessions (robust to host noise);
    // then the mean over inputs (so every input weighs the same).
    let per_input = |f: fn(&WarmSession) -> f64| {
        let medians: Vec<f64> = (0..inputs.len())
            .map(|m| {
                let xs: Vec<f64> = sessions
                    .iter()
                    .skip(m)
                    .step_by(inputs.len())
                    .map(f)
                    .collect();
                median(&xs)
            })
            .collect();
        medians.iter().sum::<f64>() / medians.len() as f64
    };
    report.push("setup_s", per_input(|s| s.setup_s), "s");
    report.push("tune_s", per_input(|s| s.tune_s), "s");
    report.push("session_s", per_input(|s| s.session_s), "s");
    let insts: u64 = primed.iter().map(|p| p.insts).sum();
    let primed_tune_s: f64 = primed.iter().map(|p| p.tune_s).sum();
    report.push("sim_mips", insts as f64 / primed_tune_s / 1e6, "MIPS");
    report.push("op_p50_ms", median(&ops), "ms");
    report.push("op_p99_ms", op_tail, "ms");
    report.push("ops_per_s", ops.len() as f64 / total_tune, "1/s");
    report.push("peak_rss_mb", peak_rss_mb(), "MB");
    let boards: Vec<f64> = primed
        .iter()
        .flat_map(|p| p.winner_board_us.clone())
        .collect();
    report.push("winner_board_us", median(&boards), "us");
    Ok(report)
}

/// Runs the traced benchmark. Prints every per-layer metric.
///
/// # Errors
///
/// Propagates pipeline and snapshot I/O failures.
pub fn run_traced(w: &WarmWorkload, seed: u64) -> Result<Report, CoreError> {
    let snapshots = Snapshots::new(w, 1)?;
    let snapshot = snapshots.0[0].as_path();
    let seed = input_seed(seed, 0);
    let primed = prime(w, seed, snapshot)?;
    let expected = &primed.expected;
    // Warm-up off the record, as in the untraced run.
    warm_session(w, seed, snapshot, expected, None)?;
    let plain = warm_session(w, seed, snapshot, expected, None)?;
    let recorder = Recorder::default();
    let traced = warm_session(w, seed, snapshot, expected, Some(&recorder))?;
    let mut report = Report {
        correct: true,
        attempted: plain.requests + traced.requests,
        failed: plain.failed + traced.failed + primed.sim_errors,
        metrics: Vec::new(),
    };
    let det = |s: &WarmSession| (s.memo_hits, s.memo_misses, s.executions);
    if det(&plain) != det(&traced) {
        eprintln!(
            "[{}] traced run diverged: untraced (hits, misses, executions) {:?}, traced {:?}",
            w.name,
            det(&plain),
            det(&traced)
        );
        report.failed += 1;
    }
    let mut layers = PerLayer {
        memo_executions: traced.executions as f64,
        memo_hit_ratio: traced.memo_hits as f64
            / (traced.memo_hits + traced.memo_misses).max(1) as f64,
        trace_overhead: traced.session_s / plain.session_s,
        ..PerLayer::default()
    };

    // Framing: roundtrip minus `Server::handle`, paired per op.
    let ops = cycle(w, seed);
    let mut server = Server::new(SimService::builder().n_parallel(N_PARALLEL).build());
    let mut failed = 0;
    let load = Request {
        path: Some(snapshot.display().to_string()),
        ..request(0, "load_cache")
    };
    send(&mut server, &load, &mut failed)?;
    send(&mut server, &open_request(w, seed), &mut failed)?;
    let mut frame_ns = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let req = tune_request(w, 100 + i as u64, *op);
        let (resp, trip_ns) = timed(|| roundtrip(&mut server, &req));
        let (handled, handle_ns) = timed(|| server.handle(&req));
        let resp = resp.map_err(io)?;
        failed += u64::from(!expected[i].matches(&resp) || !expected[i].matches(&handled.0));
        frame_ns.push(trip_ns - handle_ns);
    }
    drop(server);
    report.failed += failed;
    layers.serve_frame_us = median(&frame_ns) / 1e3;

    // Library layers, replayed against the snapshot.
    let (spec, def) = workload();
    let memo = Arc::new(SimCache::new());
    let (loaded, load_ns) = timed(|| memo.load_from(snapshot));
    let entries = match loaded.map_err(io)? {
        simtune_core::SnapshotLoad::Loaded(n) => n,
        other => {
            return Err(CoreError::Pipeline(format!(
                "snapshot not loaded: {other:?}"
            )))
        }
    };
    layers.snapshot_load_ms = load_ns / 1e6;
    layers.snapshot_entries = entries as f64;
    let data = collect_group_data(&def, &spec, 0, &collect_options(w, seed, &memo))?;
    let mut predictor = ScorePredictor::new(PredictorKind::Xgboost, "riscv", "conv2d", 0);
    let (trained, train_ns) = timed(|| predictor.train(std::slice::from_ref(&data)));
    trained?;
    layers.predict_train_ms = train_ns / 1e6;
    let collection = replay_collection(&def, &spec, 0, w.impls as usize, ATTEMPTS_FACTOR, seed)?;
    layers.tensor_sample_us = median(&collection.sample_ns) / 1e3;
    layers.hw_measure_ms = median(&collection.measure_ns) / 1e6;

    let lib = Recorder::default();
    let lib = Arc::new(lib);
    let backend = Arc::new(TimedBackend::new(
        FidelitySpec::Accurate.build(&spec.hierarchy)?,
        lib.clone(),
    ));
    let digest = backend
        .fidelity_digest()
        .expect("the accurate backend memoizes");
    let sim = SimSession::builder()
        .backend(backend.clone())
        .n_parallel(N_PARALLEL)
        .memo_cache(memo.clone())
        .build()?;
    let limits = sim.limits();
    let builder = KernelBuilder::new(def.clone(), spec.isa.clone());
    let generator = simtune_tensor::SketchGenerator::new(&def, spec.isa.clone());
    let mut build_ns = Vec::new();
    let mut build_failures = 0usize;
    let mut memo_costs: Vec<MemoCost> = Vec::new();
    let mut score_ns = 0.0;
    let mut scored = 0usize;
    let mut wait_ns = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let batches = Batches::default();
        let strategy = traced_strategy(op.strategy.parse()?, lib.clone(), batches.clone());
        let result = tune_with_predictor_on(
            &def,
            &spec,
            &predictor,
            &tune_options(w, *op, strategy),
            &sim,
        )?;
        report.failed += u64::from(Expected::of_result(&result) != expected[i]);
        let batches = batches
            .lock()
            .expect("no benchmark thread panicked")
            .clone();
        let mut stats: Vec<SimStats> = Vec::new();
        for batch in &batches {
            let mut exes = Vec::new();
            for params in batch {
                let schedule = generator.schedule(params);
                let (built, ns) = timed(|| builder.build(&schedule, &def.name));
                build_ns.push(ns);
                match built {
                    Ok(exe) => exes.push(exe),
                    Err(_) => build_failures += 1,
                }
            }
            for exe in &exes {
                memo_costs.push(memo_cost(exe, &digest, &limits, &memo));
            }
            let ticket = sim.submit(exes);
            let (results, ns) = timed(|| ticket.wait());
            wait_ns.push(ns);
            for r in results {
                stats.push(r?.stats);
            }
        }
        let (s, ns) = timed(|| predictor.score_group(&stats));
        s?;
        score_ns += ns;
        scored += stats.len();
    }
    let lib_executions = backend.executed().len();
    if lib_executions > 0 {
        eprintln!(
            "[{}] library replay executed {lib_executions} trials",
            w.name
        );
        report.failed += 1;
    }
    let fp: Vec<f64> = memo_costs.iter().map(|m| m.fingerprint_ns).collect();
    let lookup: Vec<f64> = memo_costs.iter().map(|m| m.lookup_ns).collect();
    layers.memo_fingerprint_us = median(&fp) / 1e3;
    layers.memo_lookup_us = median(&lookup) / 1e3;
    layers.tensor_build_us = median(&build_ns) / 1e3;
    layers.tensor_build_fail_ratio = build_failures as f64 / build_ns.len().max(1) as f64;
    layers.score_us_per_trial = score_ns / scored.max(1) as f64 / 1e3;
    layers.pool_wait_us = median(&wait_ns) / 1e3;
    let propose = lib.durations("search.propose");
    layers.search_propose_us = median(&propose) / 1e3;

    // Coverage: layer time attributed to the traced session's wall.
    // Replayed layers count median per call times calls, scaled from
    // one cycle of ops to the session's ops.
    let per_op = |xs: &[f64]| median_total(xs) / ops.len() as f64 * w.ops_per_session as f64;
    let mut att = Attribution::default();
    att.add("setup", "snapshot.load", load_ns);
    att.add(
        "setup",
        "tensor.sample",
        median_total(&collection.sample_ns),
    );
    att.add("setup", "tensor.build", median_total(&collection.build_ns));
    att.add("setup", "hw.measure", median_total(&collection.measure_ns));
    att.add("setup", "predict.train", train_ns);
    att.add("tune", "search.propose", per_op(&propose));
    att.add(
        "tune",
        "search.observe",
        per_op(&lib.durations("search.observe")),
    );
    att.add("tune", "tensor.build", per_op(&build_ns));
    att.add("tune", "memo.fingerprint", per_op(&fp));
    att.add("tune", "memo.lookup", per_op(&lookup));
    att.add("tune", "pool.wait", per_op(&wait_ns));
    att.add(
        "tune",
        "score",
        score_ns / ops.len() as f64 * w.ops_per_session as f64,
    );
    att.add(
        "tune",
        "serve.frame",
        median_total(&frame_ns) / ops.len() as f64 * w.ops_per_session as f64,
    );
    let session_ns = traced.session_s * 1e9;
    layers.trace_coverage = att.total(None) / session_ns;
    eprintln!(
        "[{}] traced session {:.3} s (untraced {:.3} s), {} ops; coverage {:.3}",
        w.name, traced.session_s, plain.session_s, w.ops_per_session, layers.trace_coverage
    );
    att.print(&[
        ("setup", traced.setup_s * 1e9),
        ("tune", traced.tune_s * 1e9),
    ]);
    report.correct = report.failed == 0;
    layers.push_into(&mut report);
    Ok(report)
}
