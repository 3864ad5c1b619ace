//! Compares the pluggable search strategies at a fixed simulation
//! budget on the paper's Conv2D workload.
//!
//! Pac-Sim and CAPSim (PAPERS.md) argue that once per-candidate
//! simulation is cheap, *candidate selection* dominates tuning cost.
//! This binary quantifies that on one group: every strategy gets the
//! same trial budget, the same predictor and the same simulators, and
//! the table reports what each one found and how fast it converged.
//!
//! ```text
//! cargo run --release --bin strategy_sweep -- --arch riscv --scale smoke
//! cargo run --release --bin strategy_sweep -- --strategy evolutionary
//! cargo run --release --bin strategy_sweep -- --arch riscv --scale smoke --json > BENCH_5.json
//! ```
//!
//! `--strategy <name>` restricts the sweep to one strategy
//! (`random|grid|hill|evolutionary|annealing`); the default sweeps all
//! five. `--json` replaces the human table with one machine-readable
//! [`simtune_bench::PerfSummary`] on stdout (progress still goes to
//! stderr) — the format the `perf-smoke` CI job archives as
//! `BENCH_5.json` and gates against `ci/bench-baseline.json`.
//!
//! `--fidelity <spec>` selects how candidates are simulated:
//! `accurate` (default) runs every trial on the accurate backend; any
//! other [`simtune_core::FidelitySpec`] tier (`fast-count`,
//! `sampled:fraction=F`, `pipelined[:btb=N,ras=N]`) explores there and
//! re-simulates the static top-k finalists accurately; `topk` is the
//! same policy on its default cheap tier; and `predicted` drives the
//! learned tier with uncertainty-driven escalation. The escalated
//! modes fill the `escalation_rate` (and, for `predicted`,
//! `avoided_simulations` / `mean_abs_rank_error`) fields of each
//! [`simtune_bench::StrategyPerf`].
//!
//! `--engine interp|decoded` selects the replay engine
//! every simulator session runs on (default `decoded`). Engines are
//! bit-identical in results — the sweep's scores and history do not
//! move — but not in speed; the per-strategy `replay_nanos` /
//! `replay_trials_per_sec` counters (and the sweep-wide total) isolate
//! pure replay throughput so engines can be compared without
//! propose/build/score noise.
//!
//! `--save-cache PATH` snapshots the sweep's memo cache afterwards and
//! `--load-cache PATH` warms it beforehand; CI reloads one sweep's
//! snapshot into an identical resweep and requires a ~1.0 hit rate plus
//! a throughput win (`perf_gate --warm`).

use simtune_bench::{
    Args, ExperimentConfig, FidelityMode, PerfSummary, PerfTotals, StrategyPerf, PERF_SCHEMA,
};
use simtune_core::{
    collect_group_data, tune_with_fidelity_escalation, tune_with_predictor, CollectOptions,
    CoreError, EscalationOptions, EscalationPolicy, ScorePredictor, SimCache, SnapshotLoad,
    StrategySpec, TuneOptions, TuneResult, UncertaintyPolicy,
};
use simtune_hw::TargetSpec;
use simtune_predict::PredictorKind;
use simtune_tensor::conv2d_bias_relu;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args = Args::from_env();
    // One PerfSummary document per run: concatenated JSON objects would
    // be unparseable by perf_gate, so JSON mode demands a single arch.
    assert!(
        !args.json || args.archs.len() == 1,
        "--json emits one JSON document and needs exactly one --arch (got {:?})",
        args.archs
    );
    let strategies: Vec<StrategySpec> = match &args.strategy {
        Some(s) => vec![s.clone()],
        None => StrategySpec::all().to_vec(),
    };
    let n_trials = 48.min(args.impls.max(16));

    for cfg in ExperimentConfig::from_args(&args) {
        let Some(spec) = TargetSpec::by_name(&cfg.arch) else {
            eprintln!("[{}] unknown arch, skipping", cfg.arch);
            continue;
        };
        // Group 1 of Table II at the requested scale: the sweep workload.
        let shape = cfg.scale.conv_groups()[1];
        let def = conv2d_bias_relu(&shape);
        eprintln!(
            "[{}] training predictor on conv2d group 1 ({:.1}M MACs)...",
            cfg.arch,
            shape.macs() as f64 / 1e6
        );
        // One memo cache for the whole sweep: strategies revisit each
        // other's candidates, and the hit rate below measures how much
        // of the sweep was answered from memory.
        let memo = Arc::new(SimCache::new());
        if let Some(path) = &args.load_cache {
            match memo.load_from(std::path::Path::new(path)) {
                Ok(SnapshotLoad::Loaded(n)) => {
                    eprintln!(
                        "[{}] warmed memo cache with {n} entries from {path}",
                        cfg.arch
                    );
                }
                Ok(SnapshotLoad::Missing) => {
                    eprintln!("[{}] no snapshot at {path}; cold start", cfg.arch);
                }
                // load_from already logged the rejection reason.
                Ok(SnapshotLoad::Rejected(_)) => {}
                Err(e) => eprintln!("[{}] snapshot read failed ({e}); cold start", cfg.arch),
            }
        }
        let data = match collect_group_data(
            &def,
            &spec,
            1,
            &CollectOptions {
                n_impls: cfg.impls.min(60),
                n_parallel: cfg.n_parallel,
                seed: cfg.seed,
                max_attempts_factor: 40,
                ..CollectOptions::default()
            },
        ) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("[{}] collection failed: {e}", cfg.arch);
                continue;
            }
        };
        let mut predictor =
            ScorePredictor::new(PredictorKind::Xgboost, &cfg.arch, "conv2d_bias_relu", 1);
        if let Err(e) = predictor.train(std::slice::from_ref(&data)) {
            eprintln!("[{}] training failed: {e}", cfg.arch);
            continue;
        }

        if !args.json {
            println!(
                "\n[{}] {n_trials} trials, batch {}, seed {}",
                cfg.arch,
                n_trials.min(12),
                cfg.seed
            );
            println!(
                "{:>13} | {:>11} | {:>11} | {:>8} | {:>13} | {:>8} | {:>11} | {:>11}",
                "strategy",
                "best score",
                "simulations",
                "improves",
                "trials-to-best",
                "restarts",
                "trials/sec",
                "replay/sec"
            );
            println!("{}", "-".repeat(110));
        }
        let mut perfs: Vec<StrategyPerf> = Vec::new();
        let sweep_start = Instant::now();
        for strategy in &strategies {
            let opts = TuneOptions {
                n_trials,
                batch_size: n_trials.min(12),
                n_parallel: cfg.n_parallel,
                seed: cfg.seed,
                strategy: strategy.clone(),
                memo_cache: Some(memo.clone()),
                engine: args.engine,
                ..TuneOptions::default()
            };
            let t0 = Instant::now();
            match run_tune(&args, &def, &spec, &predictor, &opts) {
                Ok((result, accurate_runs)) => {
                    let wall = t0.elapsed().as_secs_f64();
                    let trials_per_sec = result.history.len() as f64 / wall.max(1e-9);
                    let replay_tps = replay_throughput(result.history.len(), result.replay_nanos);
                    let c = result.convergence;
                    if !args.json {
                        println!(
                            "{:>13} | {:>11.4} | {:>11} | {:>8} | {:>13} | {:>8} | {:>11.1} | {:>11.1}",
                            result.strategy,
                            result.best().score,
                            result.simulations,
                            c.improvements,
                            c.trials_to_best,
                            c.restarts,
                            trials_per_sec,
                            replay_tps
                        );
                        if let Some(acc) = accurate_runs {
                            let ps = result.predictor.as_ref();
                            println!(
                                "{:>13} | escalated {acc}/{} ({:.0} %){}",
                                "",
                                result.history.len(),
                                acc as f64 / result.history.len().max(1) as f64 * 100.0,
                                ps.map_or(String::new(), |p| format!(
                                    ", avoided {} sims, rank err {:.3}",
                                    p.avoided_simulations, p.mean_abs_rank_error
                                ))
                            );
                        }
                    }
                    perfs.push(StrategyPerf {
                        name: result.strategy.clone(),
                        best_score: result.best().score,
                        trials: result.history.len() as u64,
                        simulations: result.simulations as u64,
                        wall_seconds: wall,
                        trials_per_sec,
                        stage_nanos: [
                            result.timings.propose_nanos,
                            result.timings.build_nanos,
                            result.timings.sim_nanos,
                            result.timings.score_nanos,
                        ],
                        escalation_rate: accurate_runs
                            .map(|a| a as f64 / result.history.len().max(1) as f64),
                        avoided_simulations: result.predictor.map(|p| p.avoided_simulations),
                        mean_abs_rank_error: result.predictor.map(|p| p.mean_abs_rank_error),
                        replay_nanos: result.replay_nanos,
                        replay_trials_per_sec: replay_tps,
                    });
                }
                Err(e) => eprintln!("{:>13} | failed: {e}", strategy.label()),
            }
        }
        let sweep_wall = sweep_start.elapsed().as_secs_f64();
        let memo_stats = memo.stats();
        let total_trials: u64 = perfs.iter().map(|p| p.trials).sum();
        let total_replay: u64 = perfs.iter().map(|p| p.replay_nanos).sum();
        let summary = PerfSummary {
            schema: PERF_SCHEMA.into(),
            provenance: format!(
                "cargo run --release --bin strategy_sweep -- --arch {} --scale {} --impls {} --test {} --seed {} --parallel {}{}{} --json",
                cfg.arch, args.scale.label(), args.impls, args.test_count, cfg.seed, cfg.n_parallel,
                if args.fidelity == FidelityMode::default() {
                    String::new()
                } else {
                    format!(" --fidelity {}", args.fidelity.label())
                },
                if args.engine == simtune_core::EngineKind::default() {
                    String::new()
                } else {
                    format!(" --engine {}", args.engine.label())
                }
            ),
            arch: cfg.arch.clone(),
            seed: cfg.seed,
            engine: args.engine.label().to_string(),
            fidelity: args.fidelity.label(),
            n_trials: n_trials as u64,
            n_parallel: cfg.n_parallel as u64,
            strategies: perfs,
            totals: PerfTotals {
                trials: total_trials,
                wall_seconds: sweep_wall,
                trials_per_sec: total_trials as f64 / sweep_wall.max(1e-9),
                memo_hits: memo_stats.hits,
                memo_misses: memo_stats.misses,
                memo_hit_rate: memo_stats.hit_ratio(),
                replay_trials_per_sec: replay_throughput(total_trials as usize, total_replay),
            },
        };
        if let Some(path) = &args.save_cache {
            match memo.save_to(std::path::Path::new(path)) {
                Ok(n) => eprintln!("[{}] saved {n} memo entries to {path}", cfg.arch),
                Err(e) => eprintln!("[{}] snapshot write failed: {e}", cfg.arch),
            }
        }
        if args.json {
            println!("{}", summary.to_json().expect("serializes"));
        } else {
            println!(
                "sweep[{}]: {:.1} trials/sec ({:.1} replay/sec) over {} trials, memo hit rate {:.1} % ({} hits / {} lookups)",
                summary.engine,
                summary.totals.trials_per_sec,
                summary.totals.replay_trials_per_sec,
                summary.totals.trials,
                summary.totals.memo_hit_rate * 100.0,
                memo_stats.hits,
                memo_stats.lookups(),
            );
        }
    }
}

/// Replay-only throughput: trials per second of pure simulator replay
/// time; `0` when nothing replayed (fully memoized rerun).
fn replay_throughput(trials: usize, replay_nanos: u64) -> f64 {
    if replay_nanos == 0 {
        0.0
    } else {
        trials as f64 / (replay_nanos as f64 / 1e9)
    }
}

/// Runs one strategy's tune in the requested fidelity mode.
///
/// Returns the tune result plus the number of accurate simulations the
/// escalated modes spent (`None` for the accurate-only baseline, where
/// every simulation is accurate by construction).
fn run_tune(
    args: &Args,
    def: &simtune_tensor::ComputeDef,
    spec: &TargetSpec,
    predictor: &ScorePredictor,
    opts: &TuneOptions,
) -> Result<(TuneResult, Option<usize>), CoreError> {
    match &args.fidelity {
        FidelityMode::Tier(simtune_core::FidelitySpec::Accurate) => {
            Ok((tune_with_predictor(def, spec, predictor, opts)?, None))
        }
        FidelityMode::Tier(explore) => {
            // Pinned non-accurate tier: explore there, re-simulate the
            // static top-k finalists accurately so the sweep's scores
            // stay comparable across tiers.
            let esc = EscalationOptions {
                explore: Some(explore.clone()),
                ..EscalationOptions::default()
            };
            let out = tune_with_fidelity_escalation(def, spec, predictor, opts, &esc)?;
            Ok((out.result, Some(out.accurate_runs)))
        }
        FidelityMode::TopK => {
            let out = tune_with_fidelity_escalation(
                def,
                spec,
                predictor,
                opts,
                &EscalationOptions::default(),
            )?;
            Ok((out.result, Some(out.accurate_runs)))
        }
        FidelityMode::Predicted => {
            let esc = EscalationOptions {
                policy: EscalationPolicy::Uncertainty(UncertaintyPolicy {
                    min_train: 4,
                    refit_every: 4,
                    ..UncertaintyPolicy::default()
                }),
                ..EscalationOptions::default()
            };
            let out = tune_with_fidelity_escalation(def, spec, predictor, opts, &esc)?;
            Ok((out.result, Some(out.accurate_runs)))
        }
    }
}
