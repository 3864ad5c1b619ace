//! The multi-tenant contract, end to end:
//!
//! * **Isolation** — two tenants tuning concurrently on one shared
//!   `SimService` each reproduce, bit for bit, the result they would
//!   have gotten tuning alone, at every pool width. Fair round-robin
//!   scheduling changes *when* a batch runs, never *what* it computes.
//! * **Warm start** — a tune over a cache restored from a snapshot
//!   reproduces the cold run's result exactly while executing zero
//!   simulations: every submission is answered by the memo.

use simtune_core::{
    collect_group_data, tune_with_predictor, CollectOptions, FidelitySpec, ScorePredictor,
    SimCache, SimService, SnapshotLoad, TuneOptions, TuneResult,
};
use simtune_hw::TargetSpec;
use simtune_predict::PredictorKind;
use simtune_tensor::{matmul, ComputeDef};
use std::sync::Arc;

struct Workload {
    def: ComputeDef,
    spec: TargetSpec,
    predictor: ScorePredictor,
    opts: TuneOptions,
}

fn workload(dim: usize, seed: u64) -> Workload {
    let def = matmul(dim, dim, dim);
    let spec = TargetSpec::riscv_u74();
    let data = collect_group_data(
        &def,
        &spec,
        0,
        &CollectOptions {
            n_impls: 14,
            n_parallel: 4,
            seed,
            max_attempts_factor: 40,
            ..CollectOptions::default()
        },
    )
    .expect("collects");
    let mut predictor = ScorePredictor::new(PredictorKind::LinReg, "riscv", "matmul", seed);
    predictor
        .train(std::slice::from_ref(&data))
        .expect("trains");
    let opts = TuneOptions {
        n_trials: 10,
        batch_size: 3,
        seed,
        ..TuneOptions::default()
    };
    Workload {
        def,
        spec,
        predictor,
        opts,
    }
}

/// Everything in a `TuneResult` that must be reproducible. Timings are
/// wall clock and deliberately excluded.
fn digest(r: &TuneResult) -> (Vec<(String, f64)>, usize, String, usize) {
    (
        r.history
            .iter()
            .map(|t| (t.description.clone(), t.score))
            .collect(),
        r.best_index,
        r.best().description.clone(),
        r.simulations,
    )
}

#[test]
fn concurrent_tenants_reproduce_their_solo_results_at_every_pool_width() {
    // The ground truth: each workload tuned alone, sequentially.
    // `ScorePredictor` is not `Sync` (it boxes a regressor), so each
    // concurrent tenant rebuilds its workload in its own thread;
    // collection and training are seed-deterministic, so the rebuilt
    // predictor scores identically to these baseline ones.
    let solo_a = {
        let a = workload(8, 11);
        digest(&tune_with_predictor(&a.def, &a.spec, &a.predictor, &a.opts).expect("a"))
    };
    let solo_b = {
        let b = workload(6, 23);
        digest(&tune_with_predictor(&b.def, &b.spec, &b.predictor, &b.opts).expect("b"))
    };
    let hierarchy = TargetSpec::riscv_u74().hierarchy;

    for n_parallel in [1usize, 2, 4] {
        let service = SimService::builder().n_parallel(n_parallel).build();
        let ta = service
            .open_fidelity("alice", &FidelitySpec::Accurate, &hierarchy)
            .expect("alice");
        let tb = service
            .open_fidelity("bob", &FidelitySpec::Accurate, &hierarchy)
            .expect("bob");

        let (ra, rb) = std::thread::scope(|s| {
            let ja = s.spawn(|| {
                let a = workload(8, 11);
                ta.tune(&a.def, &a.spec, &a.predictor, &a.opts)
                    .expect("alice")
            });
            let jb = s.spawn(|| {
                let b = workload(6, 23);
                tb.tune(&b.def, &b.spec, &b.predictor, &b.opts)
                    .expect("bob")
            });
            (
                ja.join().expect("alice thread"),
                jb.join().expect("bob thread"),
            )
        });

        assert_eq!(
            digest(&ra),
            solo_a,
            "alice diverged from her solo run at n_parallel={n_parallel}"
        );
        assert_eq!(
            digest(&rb),
            solo_b,
            "bob diverged from his solo run at n_parallel={n_parallel}"
        );

        // Per-tenant accounting is deterministic too: every submission
        // was a memo miss the first time its config appeared, and both
        // tenants did real work on the shared pool.
        let sa = ta.stats();
        let sb = tb.stats();
        assert!(sa.pool.trials > 0, "alice executed on the shared pool");
        assert!(sb.pool.trials > 0, "bob executed on the shared pool");
        assert_eq!(
            sa.memo.hits + sa.memo.misses,
            ra.simulations as u64,
            "alice's memo counters cover exactly her submissions"
        );
        assert_eq!(
            sb.memo.hits + sb.memo.misses,
            rb.simulations as u64,
            "bob's memo counters cover exactly his submissions"
        );
    }
}

#[test]
fn warm_loaded_snapshot_reproduces_the_cold_tune_with_zero_executions() {
    let w = workload(8, 42);
    let snap = std::env::temp_dir().join(format!("simtune_warm_tune_{}.json", std::process::id()));

    // Cold: tune on a fresh service, snapshot the cache it filled.
    let cold_service = SimService::builder().n_parallel(2).build();
    let cold = cold_service
        .open_fidelity("cold", &FidelitySpec::Accurate, &w.spec.hierarchy)
        .expect("cold tenant");
    let cold_result = cold
        .tune(&w.def, &w.spec, &w.predictor, &w.opts)
        .expect("cold tune");
    assert!(cold.stats().pool.trials > 0, "cold run must execute");
    let written = cold_service.save_snapshot(&snap).expect("snapshot");
    assert!(written > 0);

    // Warm: a brand-new service whose only knowledge is the snapshot.
    let cache = Arc::new(SimCache::new());
    assert_eq!(
        cache.load_from(&snap).expect("load"),
        SnapshotLoad::Loaded(written)
    );
    let warm_service = SimService::builder().n_parallel(2).cache(cache).build();
    let warm = warm_service
        .open_fidelity("warm", &FidelitySpec::Accurate, &w.spec.hierarchy)
        .expect("warm tenant");
    let warm_result = warm
        .tune(&w.def, &w.spec, &w.predictor, &w.opts)
        .expect("warm tune");

    assert_eq!(
        digest(&warm_result),
        digest(&cold_result),
        "warm tune must be bit-identical to the cold one"
    );
    let stats = warm.stats();
    assert_eq!(stats.pool.trials, 0, "warm tune must execute nothing");
    assert_eq!(stats.memo.misses, 0, "every submission must hit the memo");
    assert_eq!(stats.memo.hits, warm_result.simulations as u64);
    std::fs::remove_file(&snap).ok();
}
