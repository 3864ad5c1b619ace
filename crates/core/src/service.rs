//! Tuning-as-a-service: N named tenants multiplexed onto one shared
//! worker pool and one shared memo cache.
//!
//! The paper's pitch is that instruction-accurate simulation makes
//! autotuning cheap enough to run *continuously*. A long-lived daemon
//! serving that traffic cannot afford one worker pool per tuning
//! session — 10 tenants × 16 workers oversubscribes any host — nor cold
//! caches per session. [`SimService`] owns exactly one
//! [`WorkerPool`](crate::metrics::WorkerPoolStats) and one
//! [`SimCache`], and each [`TenantSession`] plugs into them:
//!
//! ```text
//!  tenant "ci-conv2d" ──► TenantSession ──► SimSession (lane 1) ─┐
//!  tenant "ad-hoc"    ──► TenantSession ──► SimSession (lane 2) ─┼─► shared WorkerPool
//!  tenant "nightly"   ──► TenantSession ──► SimSession (lane 3) ─┘        │
//!                                               │                          ▼
//!                                               └──────────────────► shared SimCache
//! ```
//!
//! # Fairness
//!
//! Every tenant gets its own scheduling *lane*; the pool picks the next
//! batch round-robin across lanes (see `crates/core/src/pool.rs`), so a
//! tenant that enqueues a thousand-batch backlog cannot starve another
//! tenant's single `submit`/`wait`. Within one tenant, batches stay
//! FIFO, which preserves the per-session determinism contract: each
//! tenant's results are bit-identical at every `n_parallel`, regardless
//! of what the other tenants are doing.
//!
//! # Isolation
//!
//! Tenants share *results* (the memo cache) but not *failure*: a trial
//! that panics is converted to an error inside its own batch, and every
//! lock the pool and cache take recovers from poisoning — one tenant's
//! crash cannot wedge another tenant's `wait`.
//!
//! Per-tenant traffic is accounted through
//! [`TenantStats`](crate::metrics::TenantStats): memo hits/misses on
//! the shared cache, and this tenant's share of the pool's trials and
//! busy time.

use crate::autotune::{
    tune_with_fidelity_escalation, tune_with_predictor_on, EscalatedTuneResult, EscalationOptions,
    TuneOptions, TuneResult,
};
use crate::backend::SimSession;
use crate::memo::SimCache;
use crate::metrics::{MemoCacheStats, TenantStats, WorkerPoolStats};
use crate::pool::{TenantCounters, WorkerPool};
use crate::score::ScorePredictor;
use crate::snapshot::SnapshotLoad;
use crate::CoreError;
use simtune_cache::HierarchyConfig;
use simtune_hw::TargetSpec;
use simtune_isa::RunLimits;
use simtune_tensor::ComputeDef;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};

/// Shared state behind every [`TenantSession`] of one service.
struct ServiceShared {
    pool: Arc<WorkerPool>,
    cache: Arc<SimCache>,
    limits: RunLimits,
    tenants: Mutex<TenantRegistry>,
}

#[derive(Default)]
struct TenantRegistry {
    /// Open tenants by name; the counters outlive a close only through
    /// a [`TenantStats`] snapshot taken before it.
    open: BTreeMap<String, Arc<TenantCounters>>,
    /// Monotone lane allocator. Lane 0 is reserved for standalone
    /// sessions, so tenants start at 1.
    next_lane: usize,
}

/// An in-process multi-tenant tuning service: one shared worker pool,
/// one shared memo cache, N named [`TenantSession`]s.
///
/// # Example
///
/// Two tenants share one pool and one cache; each sees its own
/// counters:
///
/// ```
/// use simtune_cache::HierarchyConfig;
/// use simtune_core::{FidelitySpec, SimService};
/// use simtune_isa::{Executable, Gpr, Inst, ProgramBuilder, TargetIsa};
///
/// # fn main() -> Result<(), simtune_core::CoreError> {
/// let exe = |imm: i64| {
///     let mut b = ProgramBuilder::new();
///     b.push(Inst::Li { rd: Gpr(1), imm });
///     b.push(Inst::Halt);
///     Executable::new("e", b.build().unwrap(), TargetIsa::riscv_u74())
/// };
/// let hier = HierarchyConfig::tiny_for_tests();
/// let service = SimService::builder().n_parallel(2).build();
/// let alice = service.open_fidelity("alice", &FidelitySpec::Accurate, &hier)?;
/// let bob = service.open_fidelity("bob", &FidelitySpec::Accurate, &hier)?;
/// alice.session().run(&[exe(1), exe(2)]);
/// bob.session().run(&[exe(1)]); // alice already simulated this one
/// assert_eq!(alice.stats().memo.misses, 2);
/// assert_eq!(bob.stats().memo.hits, 1, "warm from alice's work");
/// # Ok(())
/// # }
/// ```
pub struct SimService {
    shared: Arc<ServiceShared>,
}

impl fmt::Debug for SimService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimService")
            .field("n_parallel", &self.shared.pool.workers())
            .field("tenants", &self.tenant_count())
            .field("cache_entries", &self.shared.cache.len())
            .finish()
    }
}

/// Builder for [`SimService`].
#[derive(Default)]
pub struct SimServiceBuilder {
    n_parallel: Option<usize>,
    cache: Option<Arc<SimCache>>,
    limits: Option<RunLimits>,
}

impl fmt::Debug for SimServiceBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimServiceBuilder")
            .field("n_parallel", &self.n_parallel)
            .finish()
    }
}

impl SimServiceBuilder {
    /// Worker threads of the shared pool (clamped to at least 1; the
    /// host-sized default of [`crate::SimSessionBuilder::n_parallel`]
    /// applies when unset).
    pub fn n_parallel(mut self, n: usize) -> Self {
        self.n_parallel = Some(n.max(1));
        self
    }

    /// Uses an existing cache (e.g. one warmed by another service)
    /// instead of a fresh [`SimCache::new`].
    pub fn cache(mut self, cache: Arc<SimCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Per-run instruction budget every tenant session inherits.
    pub fn limits(mut self, limits: RunLimits) -> Self {
        self.limits = Some(limits);
        self
    }

    /// Spawns the shared pool and finishes the service.
    pub fn build(self) -> SimService {
        let workers = self.n_parallel.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .clamp(1, 16)
        });
        SimService {
            shared: Arc::new(ServiceShared {
                pool: WorkerPool::new(workers),
                cache: self.cache.unwrap_or_else(|| Arc::new(SimCache::new())),
                limits: self.limits.unwrap_or_default(),
                tenants: Mutex::new(TenantRegistry {
                    open: BTreeMap::new(),
                    next_lane: 1,
                }),
            }),
        }
    }
}

impl SimService {
    /// Starts building a service.
    pub fn builder() -> SimServiceBuilder {
        SimServiceBuilder::default()
    }

    /// Opens a named tenant on the tier a
    /// [`FidelitySpec`](crate::FidelitySpec) names — the entry point the
    /// serve protocol's `fidelity` field routes through. The tenant's
    /// session shares the service's pool (on a fresh scheduling lane)
    /// and memo cache; the name is released when the returned
    /// [`TenantSession`] is dropped.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Pipeline`] when the name is already open or
    /// the spec's parameters are rejected by the tier.
    pub fn open_fidelity(
        &self,
        name: &str,
        spec: &crate::FidelitySpec,
        hierarchy: &HierarchyConfig,
    ) -> Result<TenantSession, CoreError> {
        let backend = spec.build(hierarchy)?;
        let counters = Arc::new(TenantCounters::default());
        let lane = {
            let mut reg = self
                .shared
                .tenants
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if reg.open.contains_key(name) {
                return Err(CoreError::Pipeline(format!(
                    "tenant {name:?} is already open"
                )));
            }
            let lane = reg.next_lane;
            reg.next_lane += 1;
            reg.open.insert(name.to_string(), counters.clone());
            lane
        };
        let session = SimSession::builder()
            .backend(backend)
            .limits(self.shared.limits)
            .memo_cache(self.shared.cache.clone())
            .shared_pool(self.shared.pool.clone(), lane, Some(counters.clone()))
            .build()?;
        Ok(TenantSession {
            name: name.to_string(),
            shared: self.shared.clone(),
            session,
            counters,
        })
    }

    /// Number of currently open tenants.
    pub fn tenant_count(&self) -> usize {
        self.shared
            .tenants
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .open
            .len()
    }

    /// Per-tenant counters of every open tenant, sorted by name.
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        let reg = self
            .shared
            .tenants
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let wall = self.shared.pool.stats().wall_nanos;
        reg.open
            .iter()
            .map(|(name, c)| tenant_stats(name, c, self.shared.pool.workers(), wall))
            .collect()
    }

    /// The shared memo cache.
    pub fn cache(&self) -> &Arc<SimCache> {
        &self.shared.cache
    }

    /// Aggregate counters of the shared pool (all tenants combined).
    pub fn pool_stats(&self) -> WorkerPoolStats {
        self.shared.pool.stats()
    }

    /// Worker threads of the shared pool.
    pub fn n_parallel(&self) -> usize {
        self.shared.pool.workers()
    }

    /// Persists the shared cache to `path` (atomic write); returns the
    /// number of entries written. See [`SimCache::save_to`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_snapshot(&self, path: &Path) -> io::Result<usize> {
        self.shared.cache.save_to(path)
    }

    /// Warms the shared cache from a snapshot, degrading to a cold
    /// start on a missing, corrupt or version-mismatched file. See
    /// [`SimCache::load_from`].
    ///
    /// # Errors
    ///
    /// Propagates genuine I/O errors only.
    pub fn load_snapshot(&self, path: &Path) -> io::Result<SnapshotLoad> {
        self.shared.cache.load_from(path)
    }
}

fn tenant_stats(name: &str, c: &TenantCounters, workers: usize, wall_nanos: u64) -> TenantStats {
    TenantStats {
        tenant: name.to_string(),
        memo: MemoCacheStats {
            hits: c.memo_hits.load(Ordering::Relaxed),
            misses: c.memo_misses.load(Ordering::Relaxed),
        },
        pool: WorkerPoolStats {
            workers,
            batches: c.batches.load(Ordering::Relaxed),
            trials: c.trials.load(Ordering::Relaxed),
            busy_nanos: c.busy_nanos.load(Ordering::Relaxed),
            wall_nanos,
        },
        predictor: *c.predictor.lock().unwrap_or_else(PoisonError::into_inner),
    }
}

/// One named tenant of a [`SimService`]: a [`SimSession`] wired to the
/// shared pool and cache, plus per-tenant accounting. Dropping the
/// session releases the tenant name.
pub struct TenantSession {
    name: String,
    shared: Arc<ServiceShared>,
    session: SimSession,
    counters: Arc<TenantCounters>,
}

impl fmt::Debug for TenantSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TenantSession")
            .field("name", &self.name)
            .field("backend", &self.session.backend_name())
            .finish()
    }
}

impl TenantSession {
    /// The tenant's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying session — submit batches with
    /// [`SimSession::submit`] / [`SimSession::run`] as usual; they
    /// execute on the service's shared pool under this tenant's lane.
    pub fn session(&self) -> &SimSession {
        &self.session
    }

    /// Runs a full predictor-guided tuning loop on this tenant's
    /// session ([`crate::tune_with_predictor_on`]): the loop's
    /// simulations share the service pool fairly with every other
    /// tenant and hit the shared memo cache.
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures from the tuning loop.
    pub fn tune(
        &self,
        def: &ComputeDef,
        spec: &TargetSpec,
        predictor: &ScorePredictor,
        opts: &TuneOptions,
    ) -> Result<TuneResult, CoreError> {
        tune_with_predictor_on(def, spec, predictor, opts, &self.session)
    }

    /// Runs a fidelity-escalation tuning loop for this tenant
    /// ([`crate::tune_with_fidelity_escalation`]). Escalation needs two
    /// backends — a cheap exploration tier and the accurate tier — so
    /// the loop runs on dedicated sessions rather than this tenant's
    /// single-backend session, but it shares the service's memo cache
    /// and inherits the service's worker count; `opts.n_parallel` and
    /// `opts.memo_cache` are overridden accordingly. When the
    /// uncertainty policy is active, the run's
    /// [`PredictorStats`](crate::metrics::PredictorStats) are folded
    /// into this tenant's counters and surface through
    /// [`TenantSession::stats`] and [`SimService::tenant_stats`].
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures from the tuning loop.
    pub fn tune_escalated(
        &self,
        def: &ComputeDef,
        spec: &TargetSpec,
        predictor: &ScorePredictor,
        opts: &TuneOptions,
        esc: &EscalationOptions,
    ) -> Result<EscalatedTuneResult, CoreError> {
        let opts = TuneOptions {
            n_parallel: self.shared.pool.workers(),
            memo_cache: Some(Arc::clone(&self.shared.cache)),
            ..opts.clone()
        };
        let out = tune_with_fidelity_escalation(def, spec, predictor, &opts, esc)?;
        if let Some(ps) = &out.result.predictor {
            self.counters
                .predictor
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .merge(ps);
        }
        Ok(out)
    }

    /// This tenant's counters: memo hits/misses and its share of the
    /// shared pool's execution time.
    pub fn stats(&self) -> TenantStats {
        tenant_stats(
            &self.name,
            &self.counters,
            self.shared.pool.workers(),
            self.shared.pool.stats().wall_nanos,
        )
    }
}

impl Drop for TenantSession {
    fn drop(&mut self) {
        self.shared
            .tenants
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .open
            .remove(&self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FidelitySpec;
    use simtune_isa::{Executable, Gpr, Inst, ProgramBuilder, TargetIsa};

    fn exe(imm: i64) -> Executable {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Li { rd: Gpr(1), imm });
        b.push(Inst::Halt);
        Executable::new("e", b.build().unwrap(), TargetIsa::riscv_u74())
    }

    #[test]
    fn duplicate_tenant_names_are_rejected_until_dropped() {
        let service = SimService::builder().n_parallel(1).build();
        let hier = HierarchyConfig::tiny_for_tests();
        let open = || service.open_fidelity("ci", &FidelitySpec::Accurate, &hier);
        let first = open();
        assert!(first.is_ok());
        let dup = open();
        assert!(matches!(dup, Err(CoreError::Pipeline(_))));
        drop(first);
        assert_eq!(service.tenant_count(), 0);
        assert!(open().is_ok());
    }

    #[test]
    fn tenants_share_the_cache_but_count_their_own_traffic() {
        let service = SimService::builder().n_parallel(2).build();
        let hier = HierarchyConfig::tiny_for_tests();
        let a = service
            .open_fidelity("a", &FidelitySpec::Accurate, &hier)
            .unwrap();
        let b = service
            .open_fidelity("b", &FidelitySpec::Accurate, &hier)
            .unwrap();
        for r in a.session().run(&[exe(1), exe(2), exe(3)]) {
            r.unwrap();
        }
        for r in b.session().run(&[exe(1), exe(2)]) {
            r.unwrap();
        }
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!(sa.memo.misses, 3);
        assert_eq!(sa.memo.hits, 0);
        assert_eq!(sb.memo.hits, 2, "warm from tenant a");
        assert_eq!(sb.memo.misses, 0);
        assert_eq!(sa.pool.trials, 3);
        assert_eq!(sb.pool.trials, 0, "fully memoized");
        // The shared cache aggregates both tenants.
        let agg = service.cache().stats();
        assert_eq!((agg.hits, agg.misses), (2, 3));
        // Service-level listing matches the per-tenant views.
        let all = service.tenant_stats();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].tenant, "a");
        assert_eq!(all[1].tenant, "b");
        assert_eq!(all[0].memo, sa.memo);
        assert_eq!(all[1].memo, sb.memo);
    }

    #[test]
    fn snapshot_roundtrip_through_the_service() {
        let path =
            std::env::temp_dir().join(format!("simtune_service_snap_{}.json", std::process::id()));
        let hier = HierarchyConfig::tiny_for_tests();
        let cold = SimService::builder().n_parallel(1).build();
        let t = cold
            .open_fidelity("writer", &FidelitySpec::Accurate, &hier)
            .unwrap();
        for r in t.session().run(&[exe(10), exe(11)]) {
            r.unwrap();
        }
        assert_eq!(cold.save_snapshot(&path).unwrap(), 2);

        let warm = SimService::builder().n_parallel(1).build();
        assert_eq!(warm.load_snapshot(&path).unwrap(), SnapshotLoad::Loaded(2));
        let t = warm
            .open_fidelity("reader", &FidelitySpec::Accurate, &hier)
            .unwrap();
        for r in t.session().run(&[exe(10), exe(11)]) {
            r.unwrap();
        }
        let s = t.stats();
        assert_eq!((s.memo.hits, s.memo.misses), (2, 0));
        assert_eq!(s.pool.trials, 0, "zero executions on the warm pass");
        std::fs::remove_file(&path).ok();
    }
}
