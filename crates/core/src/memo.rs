//! Cross-loop simulation memoization: a canonical-fingerprint →
//! [`SimReport`] cache shared by [`crate::SimSession`]s.
//!
//! Autotuning traffic revisits work constantly: fidelity escalation
//! re-simulates finalists, workflows re-collect groups they already
//! measured, repeated tuning sessions over one kernel re-propose
//! schedules the last session scored. Every such revisit used to pay a
//! full backend execution even though the simulator is deterministic —
//! identical program, input data, target, cache configuration, backend
//! and limits always produce identical statistics. [`SimCache`] turns
//! that determinism into speed: the first execution stores its
//! [`SimReport`] under a canonical fingerprint; every later lookup with
//! the same fingerprint returns the stored report without touching the
//! backend.
//!
//! # Fingerprint
//!
//! The key covers everything result-relevant and nothing else:
//!
//! * the program bytes (disassembly listing — complete and canonical,
//!   including resolved branch targets) and the target ISA,
//! * the prepared data segments (bit-exact `f32` contents),
//! * the fidelity digest ([`crate::SimBackend::fidelity_digest`]) — one
//!   canonical string naming the tier and every configuration knob, in
//!   [`crate::FidelitySpec`] grammar for the bundled backends,
//! * the replay [`EngineKind`] — engines are bit-identical by contract,
//!   but the fingerprint still separates them so an equivalence bug can
//!   never let one engine's report masquerade as another's,
//! * the [`RunLimits`].
//!
//! The executable's *name* is deliberately excluded: tuning loops stamp
//! a fresh name on every trial ("conv2d g3 t17"), and two differently
//! named builds of the same schedule are the same simulation.
//!
//! Backends whose results are not a pure function of the above opt out
//! by returning `None` from [`crate::SimBackend::fidelity_digest`] (the default
//! — only the bundled deterministic tiers opt in), and cache hits are
//! byte-identical replays: even `host_nanos` is the stored value, so
//! downstream scoring sees exactly what a re-run of the original
//! simulation reported.
//!
//! # Sharding
//!
//! The map is split into lock-striped shards (16 by default, selected
//! by a hash of the fingerprint bytes), so the concurrent workers of a
//! [`crate::SimSession`]'s persistent pool no longer serialize their
//! inserts behind one mutex — the "remove synchronization on shared
//! simulator state" lesson of the GPU-simulator parallelization work in
//! PAPERS.md. [`SimCache::with_shards`]`(1)` degenerates to the
//! historical single-lock cache; a property test
//! (`crates/core/tests/memo_sharding.rs`) asserts the two agree on
//! every fingerprint and every operation sequence.
//!
//! Hit/miss counters are surfaced as
//! [`MemoCacheStats`](crate::metrics::MemoCacheStats) through
//! [`SimCache::stats`].

use crate::metrics::{MemoCacheStats, SnapshotStats};
use crate::SimReport;
use simtune_isa::{EngineKind, Executable, RunLimits};
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{LockResult, Mutex, MutexGuard};

/// Locks a shard even when a previous holder panicked: the guarded map
/// is plain data whose invariants hold between statements, and a
/// long-lived service must keep answering other tenants after one
/// tenant's thread dies mid-operation.
fn relock<T>(result: LockResult<MutexGuard<'_, T>>) -> MutexGuard<'_, T> {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Default lock-stripe count: enough that 16 workers rarely collide,
/// small enough that flushing or sizing the cache stays cheap.
const DEFAULT_SHARDS: usize = 16;

/// A shareable, thread-safe memo cache of simulation results.
///
/// Attach one to a session with
/// [`crate::SimSessionBuilder::memo_cache`]; share one `Arc<SimCache>`
/// across sessions (and across tuning loops) to deduplicate work
/// globally. Lookups and insertions are guarded per lock-striped shard
/// — the critical section is a hash-map probe, negligible next to a
/// backend execution, and concurrent workers only contend when their
/// fingerprints land on the same stripe.
///
/// Deduplication of *in-flight* work is handled one level up:
/// [`crate::SimSession`] resolves lookups at submission time and turns
/// duplicates of an executing fingerprint into followers of that
/// execution, so within one session a fingerprint simulates at most
/// once and the hit/miss counters are deterministic at every
/// `n_parallel` (see `crates/core/src/pool.rs`).
///
/// Nothing is ever evicted, which is right for tuning sessions whose
/// candidate streams are bounded by `n_trials`.
///
/// # Example
///
/// A session with an attached cache answers a revisited candidate
/// without executing the backend again:
///
/// ```
/// use simtune_cache::HierarchyConfig;
/// use simtune_core::{SimCache, SimSession};
/// use simtune_isa::{Executable, Gpr, Inst, ProgramBuilder, TargetIsa};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), simtune_core::CoreError> {
/// let cache = Arc::new(SimCache::new());
/// let session = SimSession::builder()
///     .accurate(&HierarchyConfig::tiny_for_tests())
///     .memo_cache(cache.clone())
///     .build()?;
///
/// let mut b = ProgramBuilder::new();
/// b.push(Inst::Li { rd: Gpr(1), imm: 3 });
/// b.push(Inst::Halt);
/// let exe = Executable::new("demo", b.build().unwrap(), TargetIsa::riscv_u74());
///
/// let first = session.run(&[exe.clone()]).remove(0).expect("simulates");
/// let second = session.run(&[exe]).remove(0).expect("served from cache");
/// assert_eq!(first.stats, second.stats);
/// assert_eq!(cache.stats().misses, 1, "one backend execution");
/// assert_eq!(cache.stats().hits, 1, "one memoized replay");
/// # Ok(())
/// # }
/// ```
/// One lock stripe: fingerprint → memoized report.
type Shard = Mutex<HashMap<Vec<u8>, SimReport>>;

pub struct SimCache {
    shards: Box<[Shard]>,
    /// `shards.len() - 1`; the shard count is a power of two.
    mask: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Snapshot persistence counters (see `crate::snapshot`).
    pub(crate) snap_loaded: AtomicU64,
    pub(crate) snap_rejected: AtomicU64,
    pub(crate) snap_saved: AtomicU64,
}

impl Default for SimCache {
    fn default() -> Self {
        SimCache::with_shards(DEFAULT_SHARDS)
    }
}

impl fmt::Debug for SimCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        f.debug_struct("SimCache")
            .field("entries", &self.len())
            .field("shards", &self.shards.len())
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

impl SimCache {
    /// Creates an empty cache with the default shard count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache striped over `shards` locks
    /// (rounded up to a power of two, at least 1). `with_shards(1)` is
    /// the historical single-lock cache; higher counts only change
    /// contention, never observable behavior.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0, "a cache needs at least one shard");
        let count = shards.next_power_of_two();
        SimCache {
            shards: (0..count).map(|_| Mutex::new(HashMap::new())).collect(),
            mask: count - 1,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            snap_loaded: AtomicU64::new(0),
            snap_rejected: AtomicU64::new(0),
            snap_saved: AtomicU64::new(0),
        }
    }

    /// Number of lock stripes (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Hit/miss counters accumulated over the cache's lifetime.
    pub fn stats(&self) -> MemoCacheStats {
        MemoCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Counters for the snapshot persistence path: entries loaded from
    /// disk, snapshots rejected (corrupt or version-mismatched, each a
    /// degraded cold start), and snapshots written.
    pub fn snapshot_stats(&self) -> SnapshotStats {
        SnapshotStats {
            loaded_entries: self.snap_loaded.load(Ordering::Relaxed),
            rejected_snapshots: self.snap_rejected.load(Ordering::Relaxed),
            saved_snapshots: self.snap_saved.load(Ordering::Relaxed),
        }
    }

    /// Number of memoized reports.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| relock(s.lock()).len()).sum()
    }

    /// True when nothing is memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard(&self, key: &[u8]) -> &Shard {
        // FNV-1a over the fingerprint bytes; the fingerprint already
        // contains every distinguishing byte, so any mixing hash
        // spreads stripes evenly.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in key {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(h as usize) & self.mask]
    }

    /// Clones every resident entry, shard by shard — the snapshot
    /// writer's view. Entries inserted concurrently may or may not be
    /// included; each shard is internally consistent.
    pub(crate) fn export_entries(&self) -> Vec<(Vec<u8>, SimReport)> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let map = relock(shard.lock());
            out.extend(map.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        out
    }

    /// Looks a fingerprint up, counting the hit or miss.
    pub fn lookup(&self, key: &[u8]) -> Option<SimReport> {
        let found = self.peek(key);
        match &found {
            Some(_) => self.note_hit(),
            None => self.note_miss(),
        }
        found
    }

    /// Looks a fingerprint up without touching the hit/miss counters —
    /// for callers (like the session's batch planner) that account for
    /// the outcome themselves.
    pub(crate) fn peek(&self, key: &[u8]) -> Option<SimReport> {
        relock(self.shard(key).lock()).get(key).cloned()
    }

    pub(crate) fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Stores a report under a fingerprint, replacing any earlier one.
    pub fn insert(&self, key: Vec<u8>, report: SimReport) {
        relock(self.shard(&key).lock()).insert(key, report);
    }
}

/// Builds the canonical fingerprint of one simulation request.
///
/// The full key (not a digest) is stored, so distinct simulations can
/// never collide. Public (re-exported as `memo_fingerprint`) so the
/// differential and property suites can assert the collision contract —
/// equal (program, data, target, fidelity digest, limits, engine)
/// collide, any differing component misses — directly against the real
/// key. `fidelity_digest` is the backend's
/// [`crate::SimBackend::fidelity_digest`]: one canonical string naming
/// the tier and every configuration knob.
pub fn fingerprint(
    exe: &Executable,
    fidelity_digest: &str,
    limits: &RunLimits,
    engine: EngineKind,
) -> Vec<u8> {
    let mut text = String::new();
    // Target ISA: everything that changes execution or fetch layout.
    let t = &exe.target;
    let _ = writeln!(
        text,
        "target={} lanes={} inst_bytes={}",
        t.name, t.vector_lanes, t.inst_bytes
    );
    let _ = writeln!(text, "fidelity=[{fidelity_digest}]");
    let _ = writeln!(text, "engine={}", engine.label());
    let _ = writeln!(text, "max_insts={}", limits.max_insts);
    // Program bytes: the disassembly listing is complete (every operand
    // and resolved branch target is printed) and canonical.
    text.push_str(&exe.program.disassemble());
    let mut key = text.into_bytes();
    // Data segments: bit-exact, so value-identical but bit-different
    // floats (e.g. -0.0 vs 0.0) fingerprint apart, matching simulator
    // behavior exactly.
    for (base, values) in &exe.data_segments {
        key.extend_from_slice(&base.to_le_bytes());
        key.extend_from_slice(&(values.len() as u64).to_le_bytes());
        for v in values {
            key.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Fidelity;
    use crate::SimBackend;
    use simtune_isa::{Gpr, Inst, ProgramBuilder, SimStats, TargetIsa};

    fn exe(name: &str, imm: i64, data: Vec<f32>) -> Executable {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Li { rd: Gpr(1), imm });
        b.push(Inst::Halt);
        Executable::new(name, b.build().unwrap(), TargetIsa::riscv_u74())
            .with_segment(0x100_0000, data)
    }

    fn key_of(e: &Executable) -> Vec<u8> {
        fingerprint(
            e,
            "accurate @ cfg",
            &RunLimits::default(),
            EngineKind::Decoded,
        )
    }

    #[test]
    fn fingerprint_ignores_name_but_covers_everything_else() {
        let a = exe("first", 7, vec![1.0, 2.0]);
        let renamed = exe("second", 7, vec![1.0, 2.0]);
        assert_eq!(key_of(&a), key_of(&renamed), "name must not matter");

        let other_prog = exe("first", 8, vec![1.0, 2.0]);
        assert_ne!(key_of(&a), key_of(&other_prog), "program must matter");

        let other_data = exe("first", 7, vec![1.0, 2.5]);
        assert_ne!(key_of(&a), key_of(&other_data), "data must matter");

        let mut other_target = exe("first", 7, vec![1.0, 2.0]);
        other_target.target = TargetIsa::x86_ryzen_5800x();
        assert_ne!(key_of(&a), key_of(&other_target), "target must matter");

        // Any change to the fidelity digest — tier, parameters or the
        // embedded hierarchy — must re-key the simulation.
        for digest in [
            "fast-count @ line_bytes=64",
            "accurate @ other-cfg",
            "pipelined:btb=512,ras=8 @ cfg",
            "pipelined:btb=256,ras=8 @ cfg",
        ] {
            let other = fingerprint(&a, digest, &RunLimits::default(), EngineKind::Decoded);
            assert_ne!(key_of(&a), other, "fidelity digest must matter ({digest})");
        }

        let other_limits = fingerprint(
            &a,
            "accurate @ cfg",
            &RunLimits { max_insts: 5 },
            EngineKind::Decoded,
        );
        assert_ne!(key_of(&a), other_limits, "limits must matter");

        let other_engine = fingerprint(
            &a,
            "accurate @ cfg",
            &RunLimits::default(),
            EngineKind::Interp,
        );
        assert_ne!(key_of(&a), other_engine, "engine must matter");
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let cache = SimCache::new();
        let e = exe("e", 1, vec![]);
        let key = key_of(&e);
        assert!(cache.lookup(&key).is_none());
        let report = SimReport {
            stats: SimStats::default(),
            backend: "accurate".into(),
            fidelity: Fidelity::Accurate,
            extrapolated: false,
            cycles: None,
        };
        cache.insert(key.clone(), report.clone());
        assert_eq!(cache.lookup(&key).as_ref(), Some(&report));
        assert_eq!(cache.len(), 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.lookups(), 2);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shard_counts_round_up_to_powers_of_two() {
        assert_eq!(SimCache::with_shards(1).shard_count(), 1);
        assert_eq!(SimCache::with_shards(3).shard_count(), 4);
        assert_eq!(SimCache::new().shard_count(), DEFAULT_SHARDS);
    }

    #[test]
    fn sharded_and_single_lock_agree_on_a_spread_of_keys() {
        // The property test in tests/memo_sharding.rs covers arbitrary
        // interleavings; this is the deterministic smoke version.
        let single = SimCache::with_shards(1);
        let sharded = SimCache::with_shards(16);
        let report = |n: u64| SimReport {
            stats: SimStats {
                host_nanos: n,
                ..SimStats::default()
            },
            backend: "accurate".into(),
            fidelity: Fidelity::Accurate,
            extrapolated: false,
            cycles: None,
        };
        for i in 0..64u64 {
            let key = key_of(&exe("e", i as i64, vec![i as f32]));
            single.insert(key.clone(), report(i));
            sharded.insert(key.clone(), report(i));
            assert_eq!(single.lookup(&key), sharded.lookup(&key));
        }
        assert_eq!(single.len(), sharded.len());
        assert_eq!(single.stats(), sharded.stats());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_are_rejected() {
        let _ = SimCache::with_shards(0);
    }

    #[test]
    fn custom_backends_opt_out_by_default() {
        struct Opaque;
        impl SimBackend for Opaque {
            fn name(&self) -> &str {
                "opaque"
            }
            fn fidelity(&self) -> Fidelity {
                Fidelity::Custom
            }
            fn run_one(
                &self,
                _exe: &Executable,
                _limits: &RunLimits,
            ) -> Result<SimReport, crate::BackendError> {
                unreachable!("not exercised")
            }
        }
        assert_eq!(Opaque.memo_key(), None);
    }
}
