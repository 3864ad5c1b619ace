//! Persistent worker pool for simulation batches.
//!
//! Before this subsystem, [`crate::SimSession::run`] spawned a fresh
//! `std::thread::scope` per batch: a tuning sweep of thousands of
//! batches paid thread spawn/teardown thousands of times, and every
//! worker serialized on one results mutex. Pac-Sim hides simulation
//! latency by overlapping work with execution, and "Parallelizing a
//! modern GPU simulator" attributes most of its speedup to removing
//! synchronization on shared simulator state (PAPERS.md) — this module
//! applies both observations to the batch path:
//!
//! * **workers live for the session** — [`WorkerPool`] spawns
//!   `n_parallel` threads once; batches are enqueued on a chunked deque
//!   and workers claim index chunks with one atomic `fetch_add`, so the
//!   steady-state hot path takes no lock at all;
//! * **submission is asynchronous** — [`crate::SimSession::submit`]
//!   returns a [`BatchTicket`] immediately, so a tuning loop can lower
//!   and decode batch *k+1* while batch *k* simulates;
//! * **results are order-preserving** — every trial writes its own
//!   pre-allocated slot, and [`BatchTicket::wait`] returns reports in
//!   submission order regardless of which worker ran what.
//!
//! # Memoization and determinism
//!
//! Memo lookups happen on the *submitting* thread, in submission order
//! (see `Batch::plan`): a cached candidate is resolved before any
//! worker sees it, and a candidate whose fingerprint is already
//! executing in-flight becomes a *follower* of that leader instead of
//! a duplicate execution. Because the hit/miss decision is made by the
//! deterministic, single-threaded submitter, a [`SimCache`]'s hit/miss
//! counters are bit-identical at every `n_parallel` — the property
//! `crates/core/tests/pool_determinism.rs` locks in. (A *failed* leader
//! is deliberately not memoized, so in that corner case the counters —
//! never the results — can vary with timing.)

use crate::backend::{SimBackend, SimReport};
use crate::memo::{fingerprint, SimCache};
use crate::metrics::{PredictorStats, WorkerPoolStats};
use crate::CoreError;
use simtune_isa::{EngineKind, Executable, RunLimits};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Trials a worker claims per atomic queue operation. Small enough to
/// balance uneven trial costs across workers, large enough that the
/// claim itself (one `fetch_add`) is amortized.
const CHUNK: usize = 4;

/// Acquires a lock even when a previous holder panicked. Every mutex in
/// this module guards plain data (result slots, queues, counters) whose
/// invariants hold between statements, so a poisoned lock is safe to
/// re-enter — a panicking trial is already converted to a
/// [`CoreError::Pipeline`] by `run_task`, and one tenant's crash must
/// not cascade into aborting every other waiter of a shared pool.
fn relock<T>(result: LockResult<MutexGuard<'_, T>>) -> MutexGuard<'_, T> {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Per-tenant execution counters, shared between a service tenant's
/// session (which bumps memo hits/misses at plan time) and the pool's
/// workers (which bump trials/busy as they execute that tenant's
/// batches). The atomics are monotone and lock-free; the predictor
/// accumulator is a mutex because escalated tuning runs merge whole
/// [`PredictorStats`] records at once, always from the tenant's own
/// producer thread.
#[derive(Default)]
pub(crate) struct TenantCounters {
    pub(crate) memo_hits: AtomicU64,
    pub(crate) memo_misses: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) trials: AtomicU64,
    pub(crate) busy_nanos: AtomicU64,
    pub(crate) predictor: Mutex<PredictorStats>,
}

/// A write-once result slot a duplicate trial (follower) waits on until
/// its leader finishes executing.
pub(crate) struct ResultCell {
    slot: Mutex<Option<Result<SimReport, CoreError>>>,
    ready: Condvar,
}

impl ResultCell {
    fn new() -> Self {
        ResultCell {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn publish(&self, r: Result<SimReport, CoreError>) {
        let mut slot = relock(self.slot.lock());
        *slot = Some(r);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<SimReport, CoreError> {
        let mut slot = relock(self.slot.lock());
        loop {
            if let Some(r) = slot.as_ref() {
                return r.clone();
            }
            slot = relock(self.ready.wait(slot));
        }
    }
}

/// Fingerprints currently executing somewhere in the session, so a
/// duplicate submitted while its leader is in flight rides along
/// instead of re-executing. Shared by every clone of one session.
#[derive(Default)]
pub(crate) struct InflightMap {
    cells: Mutex<HashMap<Vec<u8>, Arc<ResultCell>>>,
}

/// Everything a worker needs to execute one batch's trials.
pub(crate) struct BatchCtx {
    pub(crate) backend: Arc<dyn SimBackend>,
    pub(crate) limits: RunLimits,
    /// Replay engine every trial of this batch runs on.
    pub(crate) engine: EngineKind,
    pub(crate) memo: Option<Arc<SimCache>>,
    pub(crate) inflight: Arc<InflightMap>,
    /// Scheduling lane: the pool round-robins across lanes, so each
    /// service tenant gets its own lane and none starves another.
    /// Standalone sessions all share lane 0 (plain FIFO).
    pub(crate) lane: usize,
    /// Per-tenant counters, when this batch belongs to a service tenant.
    pub(crate) tenant: Option<Arc<TenantCounters>>,
}

/// Per-trial execution plan, decided at submission time.
enum TrialPlan {
    /// Run on a worker. `cell` is set when other trials may be waiting
    /// on this fingerprint (memoized leaders).
    Execute {
        key: Option<Vec<u8>>,
        cell: Option<Arc<ResultCell>>,
    },
    /// Answered from the memo cache at submit; the slot is pre-filled.
    Resolved,
    /// Duplicate of an in-flight leader; filled from `cell` at wait.
    Follower { cell: Arc<ResultCell> },
}

/// One submitted batch: trials, plans, result slots and completion
/// bookkeeping. Lives on the pool's deque until drained.
pub(crate) struct Batch {
    ctx: BatchCtx,
    exes: Vec<Executable>,
    plans: Vec<TrialPlan>,
    /// Indices of the trials that need a worker (leaders + unmemoized
    /// trials), in submission order.
    tasks: Vec<usize>,
    /// Chunk cursor into `tasks`; workers claim [`CHUNK`] at a time
    /// with `fetch_add`.
    next: AtomicUsize,
    results: Mutex<Vec<Option<Result<SimReport, CoreError>>>>,
    /// Tasks not yet finished; guarded so `done` can signal exactly once.
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Batch {
    /// Plans a batch on the submitting thread: memo lookups and
    /// in-flight deduplication happen here, in submission order, so the
    /// cache's hit/miss decision is independent of worker timing.
    pub(crate) fn plan(ctx: BatchCtx, exes: Vec<Executable>) -> Arc<Batch> {
        let n = exes.len();
        let mut plans = Vec::with_capacity(n);
        let mut tasks = Vec::new();
        let mut results: Vec<Option<Result<SimReport, CoreError>>> = (0..n).map(|_| None).collect();
        let memo_cfg = ctx.ctx_memo();
        for (i, exe) in exes.iter().enumerate() {
            let plan = match &memo_cfg {
                Some((cache, digest)) => {
                    let key = fingerprint(exe, digest, &ctx.limits, ctx.engine);
                    // Hold the in-flight lock across the cache probe so a
                    // leader finishing concurrently is seen in exactly one
                    // of the two places (it inserts into the cache before
                    // deregistering from the in-flight map).
                    let mut inflight = relock(ctx.inflight.cells.lock());
                    if let Some(cell) = inflight.get(&key) {
                        cache.note_hit();
                        ctx.tenant_memo_hit();
                        TrialPlan::Follower { cell: cell.clone() }
                    } else if let Some(hit) = cache.peek(&key) {
                        cache.note_hit();
                        ctx.tenant_memo_hit();
                        results[i] = Some(Ok(hit));
                        TrialPlan::Resolved
                    } else {
                        cache.note_miss();
                        if let Some(t) = &ctx.tenant {
                            t.memo_misses.fetch_add(1, Ordering::Relaxed);
                        }
                        let cell = Arc::new(ResultCell::new());
                        inflight.insert(key.clone(), cell.clone());
                        TrialPlan::Execute {
                            key: Some(key),
                            cell: Some(cell),
                        }
                    }
                }
                None => TrialPlan::Execute {
                    key: None,
                    cell: None,
                },
            };
            if matches!(plan, TrialPlan::Execute { .. }) {
                tasks.push(i);
            }
            plans.push(plan);
        }
        let remaining = tasks.len();
        Arc::new(Batch {
            ctx,
            exes,
            plans,
            tasks,
            next: AtomicUsize::new(0),
            results: Mutex::new(results),
            remaining: Mutex::new(remaining),
            done: Condvar::new(),
        })
    }

    pub(crate) fn n_tasks(&self) -> usize {
        self.tasks.len()
    }

    fn drained(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.tasks.len()
    }

    /// Executes one trial and publishes its result.
    fn run_task(&self, idx: usize) {
        let exe = &self.exes[idx];
        // A panicking backend must not strand the batch: convert the
        // panic into a pipeline error so `wait` always returns.
        let r =
            catch_unwind(AssertUnwindSafe(|| exec_trial(&self.ctx, exe))).unwrap_or_else(|_| {
                Err(CoreError::Pipeline(format!(
                    "backend panicked while simulating {:?}",
                    exe.name
                )))
            });
        self.publish(idx, r);
    }

    /// Publishes one trial's result: memo insertion (leaders only),
    /// follower wake-up, in-flight deregistration, then the result slot.
    fn publish(&self, idx: usize, r: Result<SimReport, CoreError>) {
        if let TrialPlan::Execute {
            key: Some(key),
            cell,
        } = &self.plans[idx]
        {
            if let Some(memo) = &self.ctx.memo {
                // Errors are deliberately not memoized: a failed
                // candidate stays cheap to retry and cannot mask a
                // transient fault. Insert *before* deregistering so a
                // concurrent submitter finds the result in exactly one
                // of cache / in-flight map.
                if let Ok(report) = &r {
                    memo.insert(key.clone(), report.clone());
                }
                if let Some(cell) = cell {
                    cell.publish(r.clone());
                }
                relock(self.ctx.inflight.cells.lock()).remove(key);
            }
        }
        relock(self.results.lock())[idx] = Some(r);
    }

    fn complete_tasks(&self, n: usize) {
        let mut remaining = relock(self.remaining.lock());
        *remaining -= n;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }
}

impl BatchCtx {
    fn ctx_memo(&self) -> Option<(Arc<SimCache>, String)> {
        match (&self.memo, self.backend.fidelity_digest()) {
            (Some(cache), Some(digest)) => Some((cache.clone(), digest)),
            _ => None,
        }
    }

    fn tenant_memo_hit(&self) {
        if let Some(t) = &self.tenant {
            t.memo_hits.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Runs one executable the way the per-batch scoped executor used to:
/// decode once, feed the decoded handle to the backend on the session's
/// replay engine, fall back to the raw entry point for backends that
/// drive their own simulator.
fn exec_trial(ctx: &BatchCtx, exe: &Executable) -> Result<SimReport, CoreError> {
    match exe.decode() {
        Ok(decoded) => ctx
            .backend
            .run_one_decoded_on(exe, &decoded, &ctx.limits, ctx.engine),
        Err(_) => ctx.backend.run_one(exe, &ctx.limits),
    }
    .map_err(CoreError::from)
}

/// Handle on one submitted batch; [`BatchTicket::wait`] blocks until
/// every trial finished and returns reports in submission order.
///
/// The ticket keeps the session's worker pool alive, so results are
/// delivered even when the [`crate::SimSession`] that produced the
/// ticket is dropped first.
pub struct BatchTicket {
    batch: Arc<Batch>,
    _pool: Arc<WorkerPool>,
}

impl BatchTicket {
    pub(crate) fn new(batch: Arc<Batch>, pool: Arc<WorkerPool>) -> Self {
        BatchTicket { batch, _pool: pool }
    }

    /// Number of trials in the batch.
    pub fn len(&self) -> usize {
        self.batch.exes.len()
    }

    /// True for an empty submission.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks until the batch completed; returns one result per
    /// submitted executable, in submission order.
    pub fn wait(self) -> Vec<Result<SimReport, CoreError>> {
        self.wait_counted().0
    }

    /// [`BatchTicket::wait`], plus the simulator host time this batch
    /// executed in this process: Σ `host_nanos` over the successful
    /// trials a worker ran. Memo hits and in-flight followers return a
    /// stored report, so they add nothing.
    pub(crate) fn wait_counted(self) -> (Vec<Result<SimReport, CoreError>>, u64) {
        {
            let mut remaining = relock(self.batch.remaining.lock());
            while *remaining > 0 {
                remaining = relock(self.batch.done.wait(remaining));
            }
        }
        let mut results = std::mem::take(&mut *relock(self.batch.results.lock()));
        let executed_nanos = self
            .batch
            .tasks
            .iter()
            .filter_map(|&i| match &results[i] {
                Some(Ok(report)) => Some(report.stats.host_nanos),
                _ => None,
            })
            .sum();
        // Followers resolve on the consumer thread: their leader may
        // live in an earlier batch, but leaders are always enqueued no
        // later than their followers, so the cell is (or will be)
        // published by a worker — never by us — and this cannot
        // deadlock.
        for (i, plan) in self.batch.plans.iter().enumerate() {
            if let TrialPlan::Follower { cell } = plan {
                results[i] = Some(cell.wait());
            }
        }
        let results = results
            .into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect();
        (results, executed_nanos)
    }
}

/// Pending batches, bucketed by lane. Workers pick the next batch
/// round-robin across lanes (batch granularity), so N tenants sharing
/// one pool each get every Nth scheduling decision: a tenant that
/// enqueues a long backlog cannot starve another tenant's single batch.
/// Within a lane, batches run in FIFO submission order — which is what
/// keeps a standalone session (everything on lane 0) behaving exactly
/// like the pre-lane pool.
#[derive(Default)]
struct LaneQueues {
    lanes: BTreeMap<usize, VecDeque<Arc<Batch>>>,
    /// Lowest lane id the next scheduling decision may pick.
    cursor: usize,
}

impl LaneQueues {
    fn push(&mut self, lane: usize, batch: Arc<Batch>) {
        self.lanes.entry(lane).or_default().push_back(batch);
    }

    /// Returns the front batch of the next non-empty lane at or after
    /// the cursor (wrapping), pruning drained batches and empty lanes.
    fn next_batch(&mut self) -> Option<Arc<Batch>> {
        self.lanes.retain(|_, q| {
            while q.front().is_some_and(|b| b.drained()) {
                q.pop_front();
            }
            !q.is_empty()
        });
        let lane = self
            .lanes
            .range(self.cursor..)
            .next()
            .map(|(&l, _)| l)
            .or_else(|| self.lanes.keys().next().copied())?;
        self.cursor = lane + 1;
        Some(
            self.lanes[&lane]
                .front()
                .expect("lane retained non-empty")
                .clone(),
        )
    }
}

struct PoolShared {
    queue: Mutex<LaneQueues>,
    work: Condvar,
    shutdown: AtomicBool,
    busy_nanos: AtomicU64,
    trials: AtomicU64,
    batches: AtomicU64,
}

/// A session-lifetime pool of simulation workers: spawn once, feed
/// batches forever. See the module docs for the design rationale.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    workers: usize,
    started: Instant,
}

impl WorkerPool {
    /// Spawns `workers` (at least 1) simulation threads.
    pub(crate) fn new(workers: usize) -> Arc<WorkerPool> {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(LaneQueues::default()),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            busy_nanos: AtomicU64::new(0),
            trials: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("simtune-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn simulation worker")
            })
            .collect();
        Arc::new(WorkerPool {
            shared,
            handles: Mutex::new(handles),
            workers,
            started: Instant::now(),
        })
    }

    /// Enqueues a planned batch; trials with nothing to execute (all
    /// memo hits) never reach the queue.
    pub(crate) fn enqueue(&self, batch: Arc<Batch>) {
        debug_assert!(batch.n_tasks() > 0, "empty batches are resolved at submit");
        self.shared.batches.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &batch.ctx.tenant {
            t.batches.fetch_add(1, Ordering::Relaxed);
        }
        let lane = batch.ctx.lane;
        // Wake exactly as many workers as can claim a chunk of this
        // batch: a surplus wakeup locks the queue, finds the batch
        // drained, and goes back to sleep — pure scheduler churn that on
        // a box with few cores time-slices *against* the workers doing
        // real work. Busy workers re-scan the queue when their batch
        // drains, so undershooting cannot strand a later batch.
        let chunks = batch.tasks.len().div_ceil(CHUNK);
        let mut queue = relock(self.shared.queue.lock());
        queue.push(lane, batch);
        drop(queue);
        if chunks >= self.workers {
            self.shared.work.notify_all();
        } else {
            for _ in 0..chunks {
                self.shared.work.notify_one();
            }
        }
    }

    /// Number of worker threads serving this pool.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Lifetime execution counters of this pool.
    pub(crate) fn stats(&self) -> WorkerPoolStats {
        WorkerPoolStats {
            workers: self.workers,
            batches: self.shared.batches.load(Ordering::Relaxed),
            trials: self.shared.trials.load(Ordering::Relaxed),
            busy_nanos: self.shared.busy_nanos.load(Ordering::Relaxed),
            wall_nanos: self.started.elapsed().as_nanos() as u64,
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // The store must happen under the queue mutex: a worker checks
        // the flag and blocks on `work` while holding that lock, so a
        // lock-free store could land between its check and its wait and
        // the notify below would be lost — leaving the worker asleep
        // forever and this join deadlocked.
        {
            let _queue = relock(self.shared.queue.lock());
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.work.notify_all();
        for handle in relock(self.handles.lock()).drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        // Pick the next batch round-robin across lanes.
        let batch = {
            let mut queue = relock(shared.queue.lock());
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                match queue.next_batch() {
                    Some(batch) => break batch,
                    None => queue = relock(shared.work.wait(queue)),
                }
            }
        };
        // Claim chunks lock-free until the picked batch is drained,
        // then return to the scheduler. Fairness is batch-granular:
        // once a batch starts it runs to completion, but the *next*
        // batch comes from the next lane in round-robin order.
        loop {
            let start = batch.next.fetch_add(CHUNK, Ordering::Relaxed);
            if start >= batch.tasks.len() {
                break;
            }
            let end = (start + CHUNK).min(batch.tasks.len());
            let t0 = Instant::now();
            for &idx in &batch.tasks[start..end] {
                batch.run_task(idx);
            }
            let executed = (end - start) as u64;
            let elapsed = t0.elapsed().as_nanos() as u64;
            shared.busy_nanos.fetch_add(elapsed, Ordering::Relaxed);
            shared.trials.fetch_add(executed, Ordering::Relaxed);
            if let Some(t) = &batch.ctx.tenant {
                t.busy_nanos.fetch_add(elapsed, Ordering::Relaxed);
                t.trials.fetch_add(executed, Ordering::Relaxed);
            }
            batch.complete_tasks(end - start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendError, Fidelity};
    use simtune_isa::SimStats;

    /// A backend that reports a per-executable marker (the name's
    /// length) so order preservation is observable, with a configurable
    /// artificial panic.
    struct MarkerBackend {
        panic_on: Option<String>,
    }

    impl SimBackend for MarkerBackend {
        fn name(&self) -> &str {
            "marker"
        }
        fn fidelity(&self) -> Fidelity {
            Fidelity::Custom
        }
        fn run_one(
            &self,
            exe: &Executable,
            _limits: &RunLimits,
        ) -> Result<SimReport, BackendError> {
            if self.panic_on.as_deref() == Some(exe.name.as_str()) {
                panic!("backend bug");
            }
            Ok(SimReport {
                stats: SimStats {
                    host_nanos: exe.name.len() as u64,
                    ..SimStats::default()
                },
                backend: "marker".into(),
                fidelity: Fidelity::Custom,
                extrapolated: false,
                cycles: None,
            })
        }
    }

    fn exe(name: &str) -> Executable {
        use simtune_isa::{Gpr, Inst, ProgramBuilder, TargetIsa};
        let mut b = ProgramBuilder::new();
        b.push(Inst::Li { rd: Gpr(1), imm: 1 });
        b.push(Inst::Halt);
        Executable::new(name, b.build().unwrap(), TargetIsa::riscv_u74())
    }

    fn ctx(panic_on: Option<&str>) -> BatchCtx {
        BatchCtx {
            backend: Arc::new(MarkerBackend {
                panic_on: panic_on.map(str::to_string),
            }),
            limits: RunLimits::default(),
            engine: EngineKind::default(),
            memo: None,
            inflight: Arc::new(InflightMap::default()),
            lane: 0,
            tenant: None,
        }
    }

    #[test]
    fn pool_preserves_order_across_many_batches() {
        let pool = WorkerPool::new(4);
        for round in 0..16 {
            let names: Vec<String> = (0..9).map(|i| "x".repeat(round * 9 + i + 1)).collect();
            let exes: Vec<Executable> = names.iter().map(|n| exe(n)).collect();
            let batch = Batch::plan(ctx(None), exes);
            pool.enqueue(batch.clone());
            let out = BatchTicket::new(batch, pool.clone()).wait();
            for (name, r) in names.iter().zip(out) {
                assert_eq!(r.unwrap().stats.host_nanos, name.len() as u64);
            }
        }
        let s = pool.stats();
        assert_eq!(s.batches, 16);
        assert_eq!(s.trials, 16 * 9);
        assert_eq!(s.workers, 4);
        assert!(s.busy_nanos <= s.wall_nanos.saturating_mul(4));
    }

    #[test]
    fn panicking_backend_yields_an_error_not_a_hang() {
        let pool = WorkerPool::new(2);
        let exes = vec![exe("ok1"), exe("boom"), exe("ok2")];
        let batch = Batch::plan(ctx(Some("boom")), exes);
        pool.enqueue(batch.clone());
        let out = BatchTicket::new(batch, pool.clone()).wait();
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(CoreError::Pipeline(_))));
        assert!(out[2].is_ok());
        // The pool survives the panic and keeps serving batches.
        let batch = Batch::plan(ctx(None), vec![exe("after")]);
        pool.enqueue(batch.clone());
        assert!(BatchTicket::new(batch, pool.clone()).wait()[0].is_ok());
    }

    #[test]
    fn dropping_the_pool_joins_workers() {
        let pool = WorkerPool::new(3);
        let batch = Batch::plan(ctx(None), vec![exe("a"), exe("b")]);
        pool.enqueue(batch.clone());
        BatchTicket::new(batch, pool).wait();
        // Drop happened here; reaching this line without hanging is the
        // assertion.
    }

    #[test]
    fn poisoned_result_cell_is_recovered_not_repanicked() {
        let cell = Arc::new(ResultCell::new());
        // Poison the cell's mutex: panic while holding the guard.
        let poisoner = cell.clone();
        std::thread::spawn(move || {
            let _guard = poisoner.slot.lock().unwrap();
            panic!("poison the lock");
        })
        .join()
        .unwrap_err();
        assert!(cell.slot.is_poisoned());
        // publish/wait still work: the guarded Option is plain data.
        cell.publish(Err(CoreError::Pipeline("leader died".into())));
        assert!(matches!(cell.wait(), Err(CoreError::Pipeline(_))));
    }

    /// A backend that blocks every trial on a shared gate, then records
    /// execution order — makes the scheduler's lane interleaving
    /// observable and deterministic.
    struct GateBackend {
        gate: Arc<(Mutex<bool>, Condvar)>,
        order: Arc<Mutex<Vec<String>>>,
    }

    impl SimBackend for GateBackend {
        fn name(&self) -> &str {
            "gate"
        }
        fn fidelity(&self) -> Fidelity {
            Fidelity::Custom
        }
        fn run_one(
            &self,
            exe: &Executable,
            _limits: &RunLimits,
        ) -> Result<SimReport, BackendError> {
            let (open, cv) = &*self.gate;
            let mut open = open.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            drop(open);
            self.order.lock().unwrap().push(exe.name.clone());
            Ok(SimReport {
                stats: SimStats::default(),
                backend: "gate".into(),
                fidelity: Fidelity::Custom,
                extrapolated: false,
                cycles: None,
            })
        }
    }

    #[test]
    fn lanes_are_scheduled_round_robin() {
        // One worker; lane 0 queues two batches before lane 1 queues
        // one. Round-robin must serve lane 1 between lane 0's batches
        // instead of draining lane 0's backlog first.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let order = Arc::new(Mutex::new(Vec::new()));
        let pool = WorkerPool::new(1);
        let gated_ctx = |lane: usize, tenant: Option<Arc<TenantCounters>>| BatchCtx {
            backend: Arc::new(GateBackend {
                gate: gate.clone(),
                order: order.clone(),
            }),
            limits: RunLimits::default(),
            engine: EngineKind::default(),
            memo: None,
            inflight: Arc::new(InflightMap::default()),
            lane,
            tenant,
        };
        let t0 = Arc::new(TenantCounters::default());
        let t1 = Arc::new(TenantCounters::default());
        let a1 = Batch::plan(
            gated_ctx(0, Some(t0.clone())),
            (0..4).map(|i| exe(&format!("a{i}"))).collect(),
        );
        let a2 = Batch::plan(
            gated_ctx(0, Some(t0.clone())),
            (4..8).map(|i| exe(&format!("a{i}"))).collect(),
        );
        let b = Batch::plan(
            gated_ctx(1, Some(t1.clone())),
            (0..4).map(|i| exe(&format!("b{i}"))).collect(),
        );
        pool.enqueue(a1.clone());
        pool.enqueue(a2.clone());
        pool.enqueue(b.clone());
        {
            let (open, cv) = &*gate;
            *open.lock().unwrap() = true;
            cv.notify_all();
        }
        BatchTicket::new(a1, pool.clone()).wait();
        BatchTicket::new(a2, pool.clone()).wait();
        BatchTicket::new(b, pool.clone()).wait();
        let order = order.lock().unwrap();
        let pos = |name: &str| order.iter().position(|n| n == name).unwrap();
        // Every lane-1 trial ran before lane 0's second batch.
        for bi in 0..4 {
            assert!(
                pos(&format!("b{bi}")) < pos("a4"),
                "lane 1 was starved: order {order:?}"
            );
        }
        // Per-tenant counters saw exactly their own lane's work.
        assert_eq!(t0.trials.load(Ordering::Relaxed), 8);
        assert_eq!(t0.batches.load(Ordering::Relaxed), 2);
        assert_eq!(t1.trials.load(Ordering::Relaxed), 4);
        assert_eq!(t1.batches.load(Ordering::Relaxed), 1);
    }
}
