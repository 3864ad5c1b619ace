//! Decomposition pass: replays recorded inputs through each layer's
//! public functions, one call at a time on the calling thread, so a
//! trial's host time splits into decode, cache set-up, functional
//! execution and cache model, and a collection into sampling, build and
//! board measurement.

use simtune_cache::{CacheHierarchy, HierarchyConfig};
use simtune_core::{
    memo_fingerprint, HardwareRunner, KernelBuilder, RandomSearch, SearchStrategy, SimCache,
    SketchSpace,
};
use simtune_hw::TargetSpec;
use simtune_isa::{
    simulate_counting_decoded, simulate_decoded, simulate_decoded_on, EngineKind, Executable,
    RunLimits, SimError, SimStats,
};
use simtune_tensor::{ComputeDef, SketchGenerator};
use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as f64)
}

/// Accesses a trial made to the cache hierarchy (data plus fetches).
pub fn accesses(stats: &SimStats) -> u64 {
    stats.cache.l1d.accesses() + stats.cache.l1i.accesses()
}

/// Host cost of one trial, layer by layer (nanoseconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct TrialCost {
    /// `Executable::decode`.
    pub decode_ns: f64,
    /// `CacheHierarchy::new` plus releasing the hierarchy again.
    pub setup_ns: f64,
    /// `simulate_counting_decoded`: functional execution alone.
    pub count_ns: f64,
    /// `simulate_decoded`: the accurate trial.
    pub full_ns: f64,
    /// Retired instructions.
    pub insts: u64,
    /// Cache-hierarchy accesses.
    pub accesses: u64,
}

impl TrialCost {
    /// Cache-model time: the accurate trial minus functional execution
    /// and hierarchy set-up (never negative).
    pub fn model_ns(&self) -> f64 {
        (self.full_ns - self.count_ns - self.setup_ns).max(0.0)
    }
}

/// Replays one executable through the trial's layers.
///
/// # Errors
///
/// Propagates simulator faults.
pub fn decompose(
    exe: &Executable,
    hierarchy: &HierarchyConfig,
    limits: RunLimits,
) -> Result<TrialCost, SimError> {
    let (decoded, decode_ns) = timed(|| exe.decode());
    let decoded = decoded?;
    let ((), setup_ns) = timed(|| drop(black_box(CacheHierarchy::new(hierarchy.clone()))));
    let (count, count_ns) =
        timed(|| simulate_counting_decoded(exe, &decoded, hierarchy.line_bytes(), limits));
    black_box(count?);
    let (full, full_ns) = timed(|| simulate_decoded(exe, &decoded, hierarchy, limits));
    let full = full?;
    Ok(TrialCost {
        decode_ns,
        setup_ns,
        count_ns,
        full_ns,
        insts: full.stats.inst_mix.total(),
        accesses: accesses(&full.stats),
    })
}

/// Statistics with the host-time column cleared: the part of a report
/// that must repeat bit for bit.
fn deterministic_stats(stats: &SimStats) -> SimStats {
    SimStats {
        host_nanos: 0,
        ..stats.clone()
    }
}

/// Re-simulates `exe` on the reference interpreter and compares its
/// statistics with `stored`, `host_nanos` excluded. `Ok(true)` on a
/// bit-for-bit match.
///
/// # Errors
///
/// Propagates simulator faults of the oracle run.
pub fn matches_oracle(
    exe: &Executable,
    stored: &SimStats,
    hierarchy: &HierarchyConfig,
    limits: RunLimits,
) -> Result<bool, SimError> {
    let decoded = exe.decode()?;
    let oracle = simulate_decoded_on(exe, &decoded, hierarchy, limits, EngineKind::Interp)?;
    Ok(deterministic_stats(&oracle.stats) == deterministic_stats(stored))
}

/// Memo-layer costs of one executable (nanoseconds).
#[derive(Debug, Clone, Copy)]
pub struct MemoCost {
    /// `memo_fingerprint`.
    pub fingerprint_ns: f64,
    /// `SimCache::lookup`.
    pub lookup_ns: f64,
}

/// Times fingerprinting `exe` and looking it up in `memo`.
pub fn memo_cost(exe: &Executable, digest: &str, limits: &RunLimits, memo: &SimCache) -> MemoCost {
    let (key, fingerprint_ns) =
        timed(|| memo_fingerprint(exe, digest, limits, EngineKind::Decoded));
    let (found, lookup_ns) = timed(|| memo.lookup(&key));
    black_box(found);
    MemoCost {
        fingerprint_ns,
        lookup_ns,
    }
}

/// Costs of one collection's front end, replayed with the collection's
/// own seed derivation: schedule sampling, builds and board
/// measurements.
#[derive(Debug, Default)]
pub struct CollectionCosts {
    /// `SketchGenerator::schedule` + `Schedule::apply`, per draw (ns).
    pub sample_ns: Vec<f64>,
    /// `KernelBuilder::build`, per valid schedule (ns).
    pub build_ns: Vec<f64>,
    /// `HardwareRunner::run_one`, per built executable (ns).
    pub measure_ns: Vec<f64>,
    /// The built executables.
    pub exes: Vec<Executable>,
}

/// Replays a collection of `n_impls` implementations of group
/// `group_id`, as `collect_group_data` draws them.
///
/// # Errors
///
/// Propagates board-measurement faults.
pub fn replay_collection(
    def: &ComputeDef,
    spec: &TargetSpec,
    group_id: usize,
    n_impls: usize,
    attempts_factor: usize,
    seed: u64,
) -> Result<CollectionCosts, simtune_core::CoreError> {
    let generator = SketchGenerator::new(def, spec.isa.clone());
    let mut sampler = RandomSearch::new(
        SketchSpace::new(generator.clone()),
        seed.wrapping_add(group_id as u64 * 7919),
    )
    .with_attempts_factor(attempts_factor);
    let builder = KernelBuilder::new(def.clone(), spec.isa.clone());
    let board = HardwareRunner {
        noise_seed: seed ^ 0xAB5E,
        ..HardwareRunner::new(spec.clone())
    };
    let mut costs = CollectionCosts::default();
    let mut schedules = Vec::new();
    while schedules.len() < n_impls && sampler.attempts() < n_impls * attempts_factor {
        let batch = sampler.propose(&[], n_impls - schedules.len());
        if batch.is_empty() {
            break;
        }
        for params in batch {
            let (schedule, ns) = timed(|| {
                let schedule = generator.schedule(&params);
                let valid = schedule.apply(def, &spec.isa).is_ok();
                valid.then_some(schedule)
            });
            costs.sample_ns.push(ns);
            schedules.extend(schedule);
        }
    }
    for (i, schedule) in schedules.iter().enumerate() {
        let (built, ns) = timed(|| builder.build(schedule, &format!("{}c{i}", def.name)));
        costs.build_ns.push(ns);
        if let Ok(exe) = built {
            let (measured, ns) = timed(|| board.run_one(&exe, i));
            measured?;
            costs.measure_ns.push(ns);
            costs.exes.push(exe);
        }
    }
    Ok(costs)
}

/// Up to `n` items of `items`, evenly spaced and in order (a
/// deterministic sample).
pub fn spread_sample<T>(items: &[T], n: usize) -> Vec<&T> {
    if items.len() <= n {
        return items.iter().collect();
    }
    (0..n).map(|i| &items[i * items.len() / n]).collect()
}

/// Mean of `xs`; `0.0` when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median of `xs` times their number: a total that one slow call
/// cannot inflate.
pub fn median_total(xs: &[f64]) -> f64 {
    crate::stats::median(xs) * xs.len() as f64
}

/// Peak resident set size of this process in MB (`VmHWM`), or `0.0`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
