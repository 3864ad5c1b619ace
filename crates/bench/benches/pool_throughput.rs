//! Criterion bench: persistent worker pool vs. the historical
//! per-batch scoped-thread executor.
//!
//! The tuning loops hand the session thousands of small batches per
//! sweep. The old executor spawned and joined `n_parallel` scoped
//! threads *per batch*, so the spawn/join cost was paid on every one of
//! them; the persistent pool pays it once per session and feeds workers
//! through a chunked deque. The `scoped_baseline` functions below
//! reproduce the old executor verbatim (atomic index, one results
//! mutex, fresh `thread::scope` per batch) so the comparison isolates
//! exactly the harness cost the pool removes — both sides run the same
//! fast-count backend on the same candidates.
//!
//! Expected shape: at batch sizes >= 8 the pool wins and the gap widens
//! as per-trial simulation gets cheaper (tiny kernels) because the
//! fixed spawn/join overhead stops being amortized.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use simtune_core::{FastCountBackend, KernelBuilder, SimBackend, SimSession};
use simtune_hw::TargetSpec;
use simtune_isa::{Executable, RunLimits};
use simtune_tensor::{matmul, Schedule};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

const N_PARALLEL: usize = 4;

/// The pre-pool executor, reproduced for comparison: spawn a scope of
/// workers per batch, share one results mutex, join everything before
/// returning.
fn scoped_baseline(backend: &FastCountBackend, exes: &[Executable], limits: &RunLimits) {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<u64>>> = Mutex::new(vec![None; exes.len()]);
    let workers = N_PARALLEL.min(exes.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= exes.len() {
                    break;
                }
                let decoded = exes[i].decode().expect("decodes");
                let report = backend
                    .run_one_decoded(&exes[i], &decoded, limits)
                    .expect("runs");
                results.lock().expect("results")[i] = Some(report.stats.inst_mix.total());
            });
        }
    });
    black_box(results.into_inner().expect("results"));
}

fn pool_throughput(c: &mut Criterion) {
    // Small kernel on purpose: a sweep's harness overhead matters most
    // when per-trial simulation is cheap (memo hits, fast-count tiers),
    // which is exactly the regime the paper's throughput argument needs.
    let def = matmul(4, 4, 4);
    let spec = TargetSpec::riscv_u74();
    let builder = KernelBuilder::new(def.clone(), spec.isa.clone());
    let schedule = Schedule::default_for(&def);
    let limits = RunLimits::default();
    let backend = FastCountBackend::matching(&spec.hierarchy);

    for batch_size in [8usize, 32] {
        let exes: Vec<Executable> = (0..batch_size)
            .map(|i| builder.build(&schedule, &format!("mm{i}")).expect("builds"))
            .collect();

        let mut group = c.benchmark_group(format!("pool_throughput/batch{batch_size}"));
        // One session for the whole measurement: workers are spawned
        // once, every iteration reuses them — the steady state of a
        // tuning sweep.
        let session = SimSession::builder()
            .fast_count(&spec.hierarchy)
            .n_parallel(N_PARALLEL)
            .build()
            .expect("builds session");
        group.bench_function("persistent_pool", |b| {
            b.iter(|| black_box(session.run(&exes)));
        });
        group.bench_function("scoped_per_batch", |b| {
            b.iter(|| scoped_baseline(&backend, &exes, &limits));
        });
        // The async path the pipelined loops use: next batch submitted
        // before the previous is drained, so producer-side work hides
        // in the pool's shadow.
        group.bench_function("pool_submit_overlapped", |b| {
            b.iter(|| {
                let first = session.submit(exes.clone());
                let second = session.submit(exes.clone());
                black_box(first.wait());
                black_box(second.wait());
            });
        });
        group.finish();
    }
}

criterion_group!(benches, pool_throughput);
criterion_main!(benches);
