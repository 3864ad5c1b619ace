//! Criterion bench: what the decode phase buys.
//!
//! * `interp` vs `decoded` — per-run cost of the re-decoding
//!   interpreter and the pre-decoded µop array, on the paper's matmul
//!   workload.
//! * `decode_once` — the one-time lowering cost being amortized.
//! * `memo_cold` vs `memo_warm` — a full backend execution on a memo
//!   miss against answering the same candidate from the [`SimCache`].

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use simtune_core::{KernelBuilder, SimCache, SimSession};
use simtune_hw::TargetSpec;
use simtune_isa::{AtomicCpu, DecodedProgram, EngineKind, Memory, NoopHook, RunLimits};
use simtune_tensor::{matmul, Schedule};
use std::sync::Arc;

fn decode_overhead(c: &mut Criterion) {
    let def = matmul(16, 16, 16);
    let spec = TargetSpec::riscv_u74();
    let builder = KernelBuilder::new(def.clone(), spec.isa.clone());
    let exe = builder
        .build(&Schedule::default_for(&def), "mm16")
        .expect("default schedule builds");
    let limits = RunLimits::default();
    let decoded = exe.decode().expect("decodes");

    let mut group = c.benchmark_group("decode_overhead");
    for engine in EngineKind::ALL {
        group.bench_function(engine.label(), |b| {
            b.iter(|| {
                let mut cpu = AtomicCpu::new(&exe.target);
                let mut mem = Memory::new();
                let mut hier = simtune_cache::CacheHierarchy::new(spec.hierarchy.clone());
                black_box(
                    engine
                        .run(
                            &exe.program,
                            &decoded,
                            &mut cpu,
                            &mut mem,
                            &mut hier,
                            limits,
                            None,
                            &mut NoopHook,
                        )
                        .expect("runs"),
                )
            });
        });
    }
    group.bench_function("decode_once", |b| {
        b.iter(|| black_box(DecodedProgram::decode(&exe.program, &exe.target).expect("decodes")));
    });
    // Memo layer: a miss pays one full accurate execution; a warm hit
    // pays a fingerprint + hash-map probe.
    group.bench_function("memo_cold", |b| {
        b.iter(|| {
            let session = SimSession::builder()
                .accurate(&spec.hierarchy)
                .n_parallel(1)
                .memo_cache(Arc::new(SimCache::new()))
                .build()
                .expect("builds");
            black_box(session.run(std::slice::from_ref(&exe)))
        });
    });
    group.bench_function("memo_warm", |b| {
        let cache = Arc::new(SimCache::new());
        let session = SimSession::builder()
            .accurate(&spec.hierarchy)
            .n_parallel(1)
            .memo_cache(cache)
            .build()
            .expect("builds");
        session.run(std::slice::from_ref(&exe)); // prime
        b.iter(|| black_box(session.run(std::slice::from_ref(&exe))));
    });
    group.finish();
}

criterion_group!(benches, decode_overhead);
criterion_main!(benches);
