//! Pluggable simulator backends: the typed form of the paper's
//! simulator interface (Listings 3–4).
//!
//! The paper's claim is that the autotuner's runner is
//! *simulator-agnostic*: anything that can execute a candidate and
//! report statistics may sit behind `auto_scheduler.local_runner.run`,
//! trading fidelity for speed. The paper plugs simulators in by
//! overriding that function in TVM's string-keyed registry; here the
//! same seam is a trait plus a session:
//!
//! * [`SimBackend`] — the trait every simulator flavor implements:
//!   `run_one(&Executable, &RunLimits) -> Result<SimReport, _>`;
//! * [`SimSession`] — a builder-style entry point that pairs one
//!   backend with a parallelism degree, run limits and an optional
//!   [`SimCache`], re-exported from the `simtune` façade. Sessions
//!   pre-decode every candidate once ([`Executable::decode`]) and feed
//!   backends through [`SimBackend::run_one_decoded`]; with a cache
//!   attached, revisited candidates skip the backend entirely.
//!
//! # Fidelity tiers
//!
//! Three backends ship with the crate; pick by what a tuning round
//! needs:
//!
//! | backend | fidelity | cost | use when |
//! |---|---|---|---|
//! | [`AccurateBackend`] | cache-accurate ([`Fidelity::Accurate`]) | 1× | final ranking, training-data collection — the gem5-style reference |
//! | [`FastCountBackend`] | counts only ([`Fidelity::CountOnly`]) | ≪1× | early exploration rounds where instruction/access totals are enough to discard bad candidates (QEMU-plugin instrumentation style) |
//! | [`SampledBackend`] | extrapolated ([`Fidelity::Sampled`]) | count + fraction·accurate | middle ground: cache behavior matters but a prefix of the run is representative (Pac-Sim-style sampling) |
//! | [`crate::PipelinedBackend`] | cycle-level timing ([`Fidelity::Pipelined`]) | >1× | candidates whose ranking depends on hazards, branch behavior or prefetch, not just counts — reports a per-trial [`simtune_hw::CycleBreakdown`] |
//!
//! Tiers are *named* uniformly by [`crate::FidelitySpec`]: parse a spec
//! string (`"pipelined:btb=512,ras=8"`), hand it to
//! [`SimSessionBuilder::fidelity`], and the same digest keys the memo
//! cache and the service protocol.
//!
//! `SampledBackend` sizes each candidate with a counting pass before
//! simulating the prefix, so its cost is the fast-count cost *plus* the
//! chosen fraction of the accurate cost — cheaper than accurate only
//! when the cache model (not raw interpretation) dominates.
//!
//! [`crate::tune_with_fidelity_escalation`] composes the tiers: a cheap
//! backend explores the schedule space and [`AccurateBackend`] re-ranks
//! only the top-k finalists.
//!
//! # Example
//!
//! ```
//! use simtune_cache::HierarchyConfig;
//! use simtune_core::{KernelBuilder, SimSession};
//! use simtune_tensor::{matmul, Schedule, TargetIsa};
//!
//! # fn main() -> Result<(), simtune_core::CoreError> {
//! let def = matmul(8, 8, 8);
//! let builder = KernelBuilder::new(def.clone(), TargetIsa::riscv_u74());
//! let exe = builder.build(&Schedule::default_for(&def), "mm")?;
//! let session = SimSession::builder()
//!     .fast_count(&HierarchyConfig::riscv_u74())
//!     .n_parallel(2)
//!     .build()?;
//! let reports = session.run(std::slice::from_ref(&exe));
//! let report = reports[0].as_ref().unwrap();
//! assert_eq!(report.backend, "fast-count");
//! assert!(report.stats.inst_mix.total() > 0);
//! # Ok(())
//! # }
//! ```

use crate::memo::SimCache;
use crate::metrics::WorkerPoolStats;
use crate::pool::{Batch, BatchCtx, BatchTicket, InflightMap, WorkerPool};
use crate::CoreError;
use simtune_cache::{CacheConfig, CacheStats, HierarchyConfig, HierarchyStats};
use simtune_hw::CycleBreakdown;
use simtune_isa::{
    simulate_batch_decoded, simulate_counting_batch_decoded, simulate_counting_decoded,
    simulate_counting_decoded_on, simulate_decoded, simulate_decoded_on,
    simulate_prefix_decoded_on, DecodedProgram, EngineKind, Executable, InstMix, RunLimits,
    SimError, SimStats, ACCURATE, FAST_COUNT,
};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Canonical name of the sampled (prefix + extrapolation) flavor.
pub const SAMPLED: &str = "sampled";

/// How faithful a backend's statistics are to the reference simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Fidelity {
    /// Full instruction-accurate simulation with the cache model.
    Accurate,
    /// Instruction and memory-access counting only; no cache model.
    CountOnly,
    /// A fraction of the run is simulated accurately and the statistics
    /// are linearly extrapolated to the full run.
    Sampled {
        /// Target fraction of retired instructions simulated accurately.
        fraction: f64,
    },
    /// Full instruction-accurate simulation driving a 5-stage in-order
    /// pipeline timing model: architectural statistics are bit-identical
    /// to [`Fidelity::Accurate`] and the report additionally carries a
    /// deterministic cycle breakdown ([`SimReport::cycles`]).
    Pipelined,
    /// An external override whose fidelity is unknown to this crate.
    Custom,
    /// Statistics come from a cheap counting tier but the *score* is
    /// answered by a learned model trained online on observed reports —
    /// the tier below all simulating ones ([`crate::PredictedBackend`]).
    Predicted,
}

impl fmt::Display for Fidelity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fidelity::Accurate => write!(f, "accurate"),
            Fidelity::CountOnly => write!(f, "count-only"),
            Fidelity::Sampled { fraction } => write!(f, "sampled({fraction})"),
            Fidelity::Pipelined => write!(f, "pipelined"),
            Fidelity::Custom => write!(f, "custom"),
            Fidelity::Predicted => write!(f, "predicted"),
        }
    }
}

/// Errors a backend can produce for one executable.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BackendError {
    /// The underlying simulation aborted.
    Sim(SimError),
    /// The backend was configured inconsistently.
    Config {
        /// Which backend rejected its configuration.
        backend: String,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Sim(e) => write!(f, "backend simulation failed: {e}"),
            BackendError::Config { backend, message } => {
                write!(f, "backend {backend:?} misconfigured: {message}")
            }
        }
    }
}

impl Error for BackendError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BackendError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for BackendError {
    fn from(e: SimError) -> Self {
        BackendError::Sim(e)
    }
}

/// What one backend invocation reports for one executable.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Simulator statistics (possibly extrapolated, see `extrapolated`).
    pub stats: SimStats,
    /// Name of the backend that produced the statistics.
    pub backend: String,
    /// Fidelity tier of the producing backend.
    pub fidelity: Fidelity,
    /// True when `stats` was scaled up from a partial run rather than
    /// measured over the whole program.
    pub extrapolated: bool,
    /// Cycle accounting of the timing layer, present only for tiers
    /// that model one ([`Fidelity::Pipelined`]). Deterministic: the
    /// same candidate yields byte-identical breakdowns at every
    /// parallelism degree and replay engine.
    pub cycles: Option<CycleBreakdown>,
}

impl SimReport {
    fn full(stats: SimStats, backend: &str, fidelity: Fidelity) -> Self {
        SimReport {
            stats,
            backend: backend.to_string(),
            fidelity,
            extrapolated: false,
            cycles: None,
        }
    }
}

/// A pluggable simulator: the typed form of the paper's overridable
/// `simulator_run` hook. Implement it and hand the backend to
/// [`SimSessionBuilder::backend`] to put any external simulator behind
/// the autotuner.
///
/// Implementations must be shareable across the session's `n_parallel`
/// worker threads, hence `Send + Sync`; per-run state (CPU, memory,
/// cache hierarchy) is created inside [`SimBackend::run_one`] so every
/// candidate starts cold.
pub trait SimBackend: Send + Sync {
    /// Stable name stamped on every [`SimReport`] /
    /// [`simtune_isa::SimOutcome`].
    fn name(&self) -> &str;

    /// The fidelity tier this backend provides.
    fn fidelity(&self) -> Fidelity;

    /// Runs one executable.
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] when the simulation aborts or the
    /// backend is misconfigured for this executable.
    fn run_one(&self, exe: &Executable, limits: &RunLimits) -> Result<SimReport, BackendError>;

    /// Runs one executable whose program was already lowered with
    /// [`Executable::decode`]. [`SimSession`] decodes each candidate
    /// exactly once per batch and calls this, so backends that execute
    /// the program more than once per report (e.g. the sampling tier's
    /// sizing pass plus prefix pass) replay the same µop array instead
    /// of re-decoding. The default ignores the handle and delegates to
    /// [`SimBackend::run_one`] — correct for external backends that
    /// drive their own simulator.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SimBackend::run_one`].
    fn run_one_decoded(
        &self,
        exe: &Executable,
        decoded: &DecodedProgram,
        limits: &RunLimits,
    ) -> Result<SimReport, BackendError> {
        let _ = decoded;
        self.run_one(exe, limits)
    }

    /// [`SimBackend::run_one_decoded`] with an explicit replay
    /// [`EngineKind`]. Sessions route every trial through this so the
    /// configured engine (`SimSessionBuilder::engine`) reaches the
    /// simulator. The default ignores the engine and delegates to
    /// [`SimBackend::run_one_decoded`] — correct for external backends
    /// that drive their own simulator and have no notion of the bundled
    /// replay ladder. All bundled engines are bit-identical, so honoring
    /// the engine changes host speed only, never statistics.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SimBackend::run_one`].
    fn run_one_decoded_on(
        &self,
        exe: &Executable,
        decoded: &DecodedProgram,
        limits: &RunLimits,
        engine: EngineKind,
    ) -> Result<SimReport, BackendError> {
        let _ = engine;
        self.run_one_decoded(exe, decoded, limits)
    }

    /// True when [`SimBackend::run_soa_batch`] is cheaper than N calls
    /// to [`SimBackend::run_one_decoded`] — i.e. the backend has a real
    /// lane-parallel (structure-of-arrays) replay path. Sessions
    /// configured with [`EngineKind::Batch`] group same-program trials
    /// into one SoA batch only when this returns true; the default is
    /// `false`, so external backends keep per-trial execution.
    fn supports_soa_batch(&self) -> bool {
        false
    }

    /// Replays `exes` — trials of the *same* decoded program differing
    /// only in their data segments — as lanes of one batched run,
    /// returning one report per trial in input order. Only called when
    /// [`SimBackend::supports_soa_batch`] is true; the default falls
    /// back to sequential per-trial execution so overriding the
    /// capability probe alone cannot produce wrong results.
    fn run_soa_batch(
        &self,
        exes: &[&Executable],
        decoded: &DecodedProgram,
        limits: &RunLimits,
    ) -> Vec<Result<SimReport, BackendError>> {
        exes.iter()
            .map(|exe| self.run_one_decoded(exe, decoded, limits))
            .collect()
    }

    /// Configuration digest for the memoization layer, or `None` to opt
    /// out of memoization (the default). A backend that returns
    /// `Some(digest)` asserts its reports are a pure function of
    /// (program, data, target, limits, digest) — the [`SimCache`] may
    /// then replay stored reports instead of re-executing. The digest
    /// must cover every configuration knob that changes results (cache
    /// geometry, sampling fraction, ...).
    fn memo_key(&self) -> Option<String> {
        None
    }

    /// Canonical fidelity digest for the memoization layer: one string
    /// naming the tier *and* every configuration knob that changes
    /// results — the cache-fingerprint form of [`crate::FidelitySpec`].
    /// `None` (when [`SimBackend::memo_key`] is `None`) opts out of
    /// memoization. The default composes name, fidelity and memo key;
    /// bundled backends override it with their spec-grammar digest
    /// (e.g. `"pipelined:btb=512,ras=8 @ l1d=..."`).
    fn fidelity_digest(&self) -> Option<String> {
        self.memo_key()
            .map(|k| format!("{} {} [{k}]", self.name(), self.fidelity()))
    }
}

/// Canonical digest of a cache geometry for [`SimBackend::memo_key`]:
/// two hierarchies with equal digests model identical cache behavior.
fn cache_digest(c: &CacheConfig) -> String {
    format!(
        "{}s{}w{}l{:?}",
        c.num_sets, c.associativity, c.line_bytes, c.policy
    )
}

pub(crate) fn hierarchy_digest(h: &HierarchyConfig) -> String {
    let l3 = h.l3.as_ref().map_or("none".into(), cache_digest);
    format!(
        "l1d={} l1i={} l2={} l3={}",
        cache_digest(&h.l1d),
        cache_digest(&h.l1i),
        cache_digest(&h.l2),
        l3
    )
}

/// The reference backend: today's instruction-accurate interpreter with
/// the full set-associative cache hierarchy (the gem5 stand-in).
#[derive(Debug, Clone)]
pub struct AccurateBackend {
    hierarchy: HierarchyConfig,
}

impl AccurateBackend {
    /// Accurate backend replicating `hierarchy` per instance.
    pub fn new(hierarchy: HierarchyConfig) -> Self {
        AccurateBackend { hierarchy }
    }

    /// The cache geometry each simulator instance models.
    pub fn hierarchy(&self) -> &HierarchyConfig {
        &self.hierarchy
    }
}

impl SimBackend for AccurateBackend {
    fn name(&self) -> &str {
        ACCURATE
    }

    fn fidelity(&self) -> Fidelity {
        Fidelity::Accurate
    }

    fn run_one(&self, exe: &Executable, limits: &RunLimits) -> Result<SimReport, BackendError> {
        let decoded = exe.decode()?;
        self.run_one_decoded(exe, &decoded, limits)
    }

    fn run_one_decoded(
        &self,
        exe: &Executable,
        decoded: &DecodedProgram,
        limits: &RunLimits,
    ) -> Result<SimReport, BackendError> {
        let out = simulate_decoded(exe, decoded, &self.hierarchy, *limits)?;
        Ok(SimReport::full(out.stats, ACCURATE, Fidelity::Accurate))
    }

    fn run_one_decoded_on(
        &self,
        exe: &Executable,
        decoded: &DecodedProgram,
        limits: &RunLimits,
        engine: EngineKind,
    ) -> Result<SimReport, BackendError> {
        let out = simulate_decoded_on(exe, decoded, &self.hierarchy, *limits, engine)?;
        Ok(SimReport::full(out.stats, ACCURATE, Fidelity::Accurate))
    }

    fn supports_soa_batch(&self) -> bool {
        true
    }

    fn run_soa_batch(
        &self,
        exes: &[&Executable],
        decoded: &DecodedProgram,
        limits: &RunLimits,
    ) -> Vec<Result<SimReport, BackendError>> {
        simulate_batch_decoded(exes, decoded, &self.hierarchy, *limits)
            .into_iter()
            .map(|r| {
                let out = r?;
                Ok(SimReport::full(out.stats, ACCURATE, Fidelity::Accurate))
            })
            .collect()
    }

    fn memo_key(&self) -> Option<String> {
        Some(hierarchy_digest(&self.hierarchy))
    }

    fn fidelity_digest(&self) -> Option<String> {
        Some(format!("accurate @ {}", hierarchy_digest(&self.hierarchy)))
    }
}

/// QEMU-plugin-style counting backend: candidates execute functionally
/// and retired instructions plus line-granular memory accesses are
/// tallied, but no cache is modeled. Retired-instruction counts are
/// bit-identical to [`AccurateBackend`]'s; cache hit/miss counters are
/// absent (every access reports as an L1 miss). Use it for cheap early
/// autotuning rounds where candidate ranking by work volume suffices.
#[derive(Debug, Clone)]
pub struct FastCountBackend {
    line_bytes: u64,
}

impl FastCountBackend {
    /// Counting backend with the given line size (drives how many lines
    /// a vector access touches; must match the reference hierarchy for
    /// access counts to be comparable).
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    pub fn new(line_bytes: u64) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line_bytes must be a power of two"
        );
        FastCountBackend { line_bytes }
    }

    /// Counting backend whose line size matches `hierarchy`.
    pub fn matching(hierarchy: &HierarchyConfig) -> Self {
        FastCountBackend::new(hierarchy.line_bytes())
    }
}

impl SimBackend for FastCountBackend {
    fn name(&self) -> &str {
        FAST_COUNT
    }

    fn fidelity(&self) -> Fidelity {
        Fidelity::CountOnly
    }

    fn run_one(&self, exe: &Executable, limits: &RunLimits) -> Result<SimReport, BackendError> {
        let decoded = exe.decode()?;
        self.run_one_decoded(exe, &decoded, limits)
    }

    fn run_one_decoded(
        &self,
        exe: &Executable,
        decoded: &DecodedProgram,
        limits: &RunLimits,
    ) -> Result<SimReport, BackendError> {
        let out = simulate_counting_decoded(exe, decoded, self.line_bytes, *limits)?;
        Ok(SimReport::full(out.stats, FAST_COUNT, Fidelity::CountOnly))
    }

    fn run_one_decoded_on(
        &self,
        exe: &Executable,
        decoded: &DecodedProgram,
        limits: &RunLimits,
        engine: EngineKind,
    ) -> Result<SimReport, BackendError> {
        let out = simulate_counting_decoded_on(exe, decoded, self.line_bytes, *limits, engine)?;
        Ok(SimReport::full(out.stats, FAST_COUNT, Fidelity::CountOnly))
    }

    fn supports_soa_batch(&self) -> bool {
        true
    }

    fn run_soa_batch(
        &self,
        exes: &[&Executable],
        decoded: &DecodedProgram,
        limits: &RunLimits,
    ) -> Vec<Result<SimReport, BackendError>> {
        simulate_counting_batch_decoded(exes, decoded, self.line_bytes, *limits)
            .into_iter()
            .map(|r| {
                let out = r?;
                Ok(SimReport::full(out.stats, FAST_COUNT, Fidelity::CountOnly))
            })
            .collect()
    }

    fn memo_key(&self) -> Option<String> {
        Some(format!("line_bytes={}", self.line_bytes))
    }

    fn fidelity_digest(&self) -> Option<String> {
        Some(format!("fast-count @ line_bytes={}", self.line_bytes))
    }
}

/// Pac-Sim-inspired sampling backend: a cheap counting pass sizes the
/// candidate, then only `fraction` of its retired instructions are
/// simulated with the full cache model and the statistics are linearly
/// extrapolated to the whole run. At `fraction == 1.0` the prefix covers
/// the entire program and the result equals [`AccurateBackend`]'s
/// exactly (modulo host wall-clock time).
///
/// Host cost is the counting pass plus `fraction` of the accurate cost
/// (not `fraction` alone): the sizing pass interprets every instruction
/// once, without the cache model. The tier pays off when cache modeling
/// dominates the accurate backend's runtime.
#[derive(Debug, Clone)]
pub struct SampledBackend {
    hierarchy: HierarchyConfig,
    fraction: f64,
    min_insts: u64,
}

impl SampledBackend {
    /// Sampling backend simulating `fraction ∈ (0, 1]` of each candidate
    /// accurately.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Config`] for a non-finite or out-of-range
    /// fraction.
    pub fn new(hierarchy: HierarchyConfig, fraction: f64) -> Result<Self, BackendError> {
        if !fraction.is_finite() || fraction <= 0.0 || fraction > 1.0 {
            return Err(BackendError::Config {
                backend: SAMPLED.into(),
                message: format!("sample fraction must be in (0, 1], got {fraction}"),
            });
        }
        Ok(SampledBackend {
            hierarchy,
            fraction,
            min_insts: 1_000,
        })
    }

    /// Floor on the accurately simulated prefix, so tiny fractions of
    /// tiny kernels still see a meaningful window (default 1000).
    pub fn with_min_insts(mut self, min_insts: u64) -> Self {
        self.min_insts = min_insts;
        self
    }

    /// The configured sample fraction.
    pub fn fraction(&self) -> f64 {
        self.fraction
    }
}

impl SimBackend for SampledBackend {
    fn name(&self) -> &str {
        SAMPLED
    }

    fn fidelity(&self) -> Fidelity {
        Fidelity::Sampled {
            fraction: self.fraction,
        }
    }

    fn run_one(&self, exe: &Executable, limits: &RunLimits) -> Result<SimReport, BackendError> {
        let decoded = exe.decode()?;
        self.run_one_decoded(exe, &decoded, limits)
    }

    // Two passes over the same program; the shared pre-decoded handle is
    // exactly what makes the sizing pass nearly free of dispatch setup.
    fn run_one_decoded(
        &self,
        exe: &Executable,
        decoded: &DecodedProgram,
        limits: &RunLimits,
    ) -> Result<SimReport, BackendError> {
        self.run_one_decoded_on(exe, decoded, limits, EngineKind::Decoded)
    }

    // Engine selection applies to both passes: the sizing count and the
    // accurately simulated prefix replay on the same engine.
    fn run_one_decoded_on(
        &self,
        exe: &Executable,
        decoded: &DecodedProgram,
        limits: &RunLimits,
        engine: EngineKind,
    ) -> Result<SimReport, BackendError> {
        // Counting pass: total work, at a fraction of the accurate cost.
        let count = simulate_counting_decoded_on(
            exe,
            decoded,
            self.hierarchy.line_bytes(),
            *limits,
            engine,
        )?;
        let total = count.stats.inst_mix.total();
        let budget = ((total as f64 * self.fraction).ceil() as u64)
            .max(self.min_insts)
            .max(1);
        let (out, completed) =
            simulate_prefix_decoded_on(exe, decoded, &self.hierarchy, *limits, budget, engine)?;
        let fidelity = Fidelity::Sampled {
            fraction: self.fraction,
        };
        if completed {
            return Ok(SimReport::full(out.stats, SAMPLED, fidelity));
        }
        let retired = out.stats.inst_mix.total().max(1);
        Ok(SimReport {
            stats: extrapolate(&out.stats, total, retired),
            backend: SAMPLED.into(),
            fidelity,
            extrapolated: true,
            cycles: None,
        })
    }

    fn memo_key(&self) -> Option<String> {
        Some(format!(
            "{} fraction={} min_insts={}",
            hierarchy_digest(&self.hierarchy),
            self.fraction,
            self.min_insts
        ))
    }

    fn fidelity_digest(&self) -> Option<String> {
        Some(format!(
            "sampled:fraction={} @ {} min_insts={}",
            self.fraction,
            hierarchy_digest(&self.hierarchy),
            self.min_insts
        ))
    }
}

/// Linearly scales every counter of a prefix run by `total / retired`.
/// Host wall time is kept as measured: the whole point of sampling is
/// that the *host* paid only for the prefix. `pub(crate)` so the
/// differential harness can recompute the sampled tier's expected
/// output from an accurate prefix and compare bit-exactly.
pub(crate) fn extrapolate(prefix: &SimStats, total: u64, retired: u64) -> SimStats {
    let scale = |v: u64| ((v as u128 * total as u128) / retired as u128) as u64;
    let scale_cache = |c: &CacheStats| CacheStats {
        read_hits: scale(c.read_hits),
        read_misses: scale(c.read_misses),
        read_replacements: scale(c.read_replacements),
        write_hits: scale(c.write_hits),
        write_misses: scale(c.write_misses),
        write_replacements: scale(c.write_replacements),
    };
    let m = &prefix.inst_mix;
    SimStats {
        inst_mix: InstMix {
            int_alu: scale(m.int_alu),
            fp_alu: scale(m.fp_alu),
            vec_alu: scale(m.vec_alu),
            loads: scale(m.loads),
            stores: scale(m.stores),
            branches: scale(m.branches),
            branches_taken: scale(m.branches_taken),
            other: scale(m.other),
        },
        cache: HierarchyStats {
            l1d: scale_cache(&prefix.cache.l1d),
            l1i: scale_cache(&prefix.cache.l1i),
            l2: scale_cache(&prefix.cache.l2),
            l3: prefix.cache.l3.as_ref().map(scale_cache),
            dram_reads: scale(prefix.cache.dram_reads),
            dram_writes: scale(prefix.cache.dram_writes),
        },
        host_nanos: prefix.host_nanos,
    }
}

/// One configured simulation context: a backend plus parallelism, run
/// limits and an optional memo cache — what the autotuning loops drive.
///
/// Created through [`SimSession::builder`]. Building a session spawns a
/// *persistent* pool of `n_parallel` worker threads
/// (`crates/core/src/pool.rs`) that lives until the last session clone
/// (and last outstanding [`BatchTicket`]) is dropped; batches are
/// enqueued on the pool's chunked deque, so a tuning sweep pays thread
/// spawn/teardown once per session instead of once per batch. Results
/// are always returned in submission order.
///
/// [`SimSession::run`] is the synchronous entry point;
/// [`SimSession::submit`] hands back a [`BatchTicket`] immediately so
/// callers can lower the next batch while this one simulates — the
/// producer/consumer overlap the pipelined tuning loops are built on.
///
/// Each executable is decoded exactly once ([`Executable::decode`]) on
/// a worker and handed to [`SimBackend::run_one_decoded`]. When a
/// [`SimCache`] is attached and the backend opts into memoization
/// ([`SimBackend::memo_key`]), lookups happen at *submission* time on
/// the submitting thread: previously seen candidates are answered
/// without any backend execution (or decode), and a candidate whose
/// fingerprint is already in flight becomes a follower of that
/// execution instead of a duplicate run.
///
/// # Example
///
/// ```
/// use simtune_cache::HierarchyConfig;
/// use simtune_core::SimSession;
/// use simtune_isa::{Executable, Gpr, Inst, ProgramBuilder, TargetIsa};
///
/// # fn main() -> Result<(), simtune_core::CoreError> {
/// let mut b = ProgramBuilder::new();
/// b.push(Inst::Li { rd: Gpr(1), imm: 7 });
/// b.push(Inst::Halt);
/// let exe = Executable::new("demo", b.build().unwrap(), TargetIsa::riscv_u74());
///
/// let session = SimSession::builder()
///     .fast_count(&HierarchyConfig::tiny_for_tests())
///     .n_parallel(2)
///     .build()?;
/// let report = session.run(&[exe]).remove(0).expect("simulates");
/// assert_eq!(report.backend, "fast-count");
/// assert!(report.stats.inst_mix.total() >= 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct SimSession {
    backend: Arc<dyn SimBackend>,
    n_parallel: usize,
    limits: RunLimits,
    engine: EngineKind,
    memo: Option<Arc<SimCache>>,
    pool: Arc<WorkerPool>,
    inflight: Arc<InflightMap>,
    /// Scheduling lane on the pool (0 for standalone sessions; one
    /// lane per tenant when the pool is shared by a service).
    lane: usize,
    /// Per-tenant counters, when owned by a [`crate::SimService`] tenant.
    tenant: Option<Arc<crate::pool::TenantCounters>>,
}

impl fmt::Debug for SimSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimSession")
            .field("backend", &self.backend.name())
            .field("fidelity", &self.backend.fidelity())
            .field("n_parallel", &self.n_parallel)
            .field("memo", &self.memo)
            .finish()
    }
}

impl SimSession {
    /// Starts building a session.
    pub fn builder() -> SimSessionBuilder {
        SimSessionBuilder::default()
    }

    /// The backend this session drives.
    pub fn backend(&self) -> &Arc<dyn SimBackend> {
        &self.backend
    }

    /// Name of the backend this session drives.
    pub fn backend_name(&self) -> &str {
        self.backend.name()
    }

    /// Worker threads used per batch.
    pub fn n_parallel(&self) -> usize {
        self.n_parallel
    }

    /// Per-run instruction budget.
    pub fn limits(&self) -> RunLimits {
        self.limits
    }

    /// Replay engine every trial runs on (see
    /// [`SimSessionBuilder::engine`]).
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// The attached memo cache, if any.
    pub fn memo_cache(&self) -> Option<&Arc<SimCache>> {
        self.memo.as_ref()
    }

    /// Lifetime counters of this session's persistent worker pool:
    /// batches enqueued, trials executed, busy vs. wall time.
    pub fn pool_stats(&self) -> WorkerPoolStats {
        self.pool.stats()
    }

    /// Submits a batch to the persistent pool and returns immediately.
    ///
    /// Memo lookups (and in-flight deduplication) happen here, on the
    /// calling thread, so cached candidates resolve without touching
    /// the pool at all; everything else is executed by the session's
    /// workers while the caller is free to prepare the next batch.
    /// [`BatchTicket::wait`] returns results in submission order.
    pub fn submit(&self, exes: Vec<Executable>) -> BatchTicket {
        let ctx = BatchCtx {
            backend: self.backend.clone(),
            limits: self.limits,
            engine: self.engine,
            memo: self.memo.clone(),
            inflight: self.inflight.clone(),
            lane: self.lane,
            tenant: self.tenant.clone(),
        };
        let batch = Batch::plan(ctx, exes);
        if batch.n_tasks() > 0 {
            self.pool.enqueue(batch.clone());
        }
        BatchTicket::new(batch, self.pool.clone())
    }

    /// Runs every executable on the session's persistent worker pool,
    /// preserving order — [`SimSession::submit`] + [`BatchTicket::wait`]
    /// in one call.
    pub fn run(&self, exes: &[Executable]) -> Vec<Result<SimReport, CoreError>> {
        self.submit(exes.to_vec()).wait()
    }

    /// Like [`SimSession::run`] but strips reports down to bare
    /// [`SimStats`] — the shape the feature extractor and predictors eat.
    pub fn run_stats(&self, exes: &[Executable]) -> Vec<Result<SimStats, CoreError>> {
        self.run(exes)
            .into_iter()
            .map(|r| r.map(|rep| rep.stats))
            .collect()
    }
}

/// Builder for [`SimSession`].
#[derive(Default)]
pub struct SimSessionBuilder {
    backend: Option<Arc<dyn SimBackend>>,
    n_parallel: Option<usize>,
    limits: Option<RunLimits>,
    engine: Option<EngineKind>,
    memo: Option<Arc<SimCache>>,
    shared: Option<SharedPool>,
    error: Option<CoreError>,
}

/// A pre-existing pool a service session plugs into instead of spawning
/// its own workers.
struct SharedPool {
    pool: Arc<WorkerPool>,
    lane: usize,
    tenant: Option<Arc<crate::pool::TenantCounters>>,
}

impl fmt::Debug for SimSessionBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimSessionBuilder")
            .field("backend", &self.backend.as_ref().map(|b| b.name()))
            .field("n_parallel", &self.n_parallel)
            .finish()
    }
}

impl SimSessionBuilder {
    /// Uses an explicit backend instance. Clears any deferred error from
    /// an earlier failed selection step, so fallback chains like
    /// `sampled(..).backend(..)` recover.
    pub fn backend(mut self, backend: Arc<dyn SimBackend>) -> Self {
        self.backend = Some(backend);
        self.error = None;
        self
    }

    /// Uses the backend named by a [`crate::FidelitySpec`] — the
    /// canonical way to pick a tier. Every bundled tier is reachable:
    /// `"accurate"`, `"fast-count"`, `"sampled:fraction=0.5"`,
    /// `"pipelined:btb=512,ras=8"`. A spec the tier rejects (e.g. an
    /// out-of-range fraction) surfaces from
    /// [`SimSessionBuilder::build`].
    pub fn fidelity(mut self, spec: &crate::FidelitySpec, hierarchy: &HierarchyConfig) -> Self {
        match spec.build(hierarchy) {
            Ok(b) => self.backend(b),
            Err(e) => {
                self.error = Some(e);
                self
            }
        }
    }

    /// Uses the instruction-accurate reference backend for `hierarchy`.
    ///
    /// Prefer [`SimSessionBuilder::fidelity`] with
    /// [`crate::FidelitySpec::Accurate`]; this shim remains for
    /// source compatibility.
    pub fn accurate(self, hierarchy: &HierarchyConfig) -> Self {
        self.backend(Arc::new(AccurateBackend::new(hierarchy.clone())))
    }

    /// Uses the counting-only backend matched to `hierarchy`'s line size.
    ///
    /// Prefer [`SimSessionBuilder::fidelity`] with
    /// [`crate::FidelitySpec::FastCount`]; this shim remains for
    /// source compatibility.
    pub fn fast_count(self, hierarchy: &HierarchyConfig) -> Self {
        self.backend(Arc::new(FastCountBackend::matching(hierarchy)))
    }

    /// Uses the sampling backend at `fraction`; an invalid fraction
    /// surfaces from [`SimSessionBuilder::build`].
    ///
    /// Prefer [`SimSessionBuilder::fidelity`] with
    /// [`crate::FidelitySpec::Sampled`]; this shim remains for source
    /// compatibility.
    pub fn sampled(mut self, hierarchy: &HierarchyConfig, fraction: f64) -> Self {
        match SampledBackend::new(hierarchy.clone(), fraction) {
            Ok(b) => self.backend(Arc::new(b)),
            Err(e) => {
                self.error = Some(e.into());
                self
            }
        }
    }

    /// Sets the number of parallel simulator instances — the worker
    /// threads the session's persistent pool spawns (clamped to at
    /// least 1).
    ///
    /// When unset, the default is the host's
    /// [`std::thread::available_parallelism`] clamped to at most 16
    /// (the paper's Listing 3 default). The historical behavior —
    /// always 16, even on a 4-core host — oversubscribed small
    /// machines; pass an explicit value to override the clamp in either
    /// direction (e.g. `n_parallel(32)` on a large host, or
    /// `n_parallel(1)` for serial debugging).
    pub fn n_parallel(mut self, n: usize) -> Self {
        self.n_parallel = Some(n.max(1));
        self
    }

    /// Sets the per-run instruction budget.
    pub fn limits(mut self, limits: RunLimits) -> Self {
        self.limits = Some(limits);
        self
    }

    /// Selects the replay engine for every trial (default
    /// [`EngineKind::Decoded`]). Bundled engines are bit-identical, so
    /// this is purely a host-speed knob: [`EngineKind::Threaded`] lowers
    /// each decoded program once more into threaded code,
    /// [`EngineKind::Batch`] additionally lets the session group
    /// same-program trials of one submission into a lane-parallel SoA
    /// replay when the backend supports it
    /// ([`SimBackend::supports_soa_batch`]). Backends that do not
    /// understand the bundled ladder ignore the selection.
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Attaches a [`SimCache`] so revisited candidates are answered from
    /// memory instead of re-simulated. Share one `Arc<SimCache>` across
    /// sessions to deduplicate simulations across tuning loops; only
    /// backends that opt in via [`SimBackend::memo_key`] are memoized.
    pub fn memo_cache(mut self, cache: Arc<SimCache>) -> Self {
        self.memo = Some(cache);
        self
    }

    /// Conditionally attaches a [`SimCache`] ([`None`] leaves
    /// memoization off) — convenience for plumbing optional caches from
    /// tuning options.
    pub fn memo_cache_opt(mut self, cache: Option<Arc<SimCache>>) -> Self {
        self.memo = cache;
        self
    }

    /// Plugs the session into an existing worker pool on the given
    /// scheduling lane instead of spawning its own workers — how
    /// [`crate::SimService`] multiplexes N tenants onto one pool. The
    /// session's `n_parallel` becomes the pool's worker count.
    pub(crate) fn shared_pool(
        mut self,
        pool: Arc<WorkerPool>,
        lane: usize,
        tenant: Option<Arc<crate::pool::TenantCounters>>,
    ) -> Self {
        self.shared = Some(SharedPool { pool, lane, tenant });
        self
    }

    /// Finishes the session.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Pipeline`] when no backend was chosen, or the
    /// deferred error of an invalid [`SimSessionBuilder::fidelity`] /
    /// [`SimSessionBuilder::sampled`] step.
    pub fn build(self) -> Result<SimSession, CoreError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let backend = self
            .backend
            .ok_or_else(|| CoreError::Pipeline("SimSession needs a backend".into()))?;
        let (pool, lane, tenant) = match self.shared {
            Some(shared) => (shared.pool, shared.lane, shared.tenant),
            None => {
                let n = self.n_parallel.unwrap_or_else(default_n_parallel);
                (WorkerPool::new(n), 0, None)
            }
        };
        Ok(SimSession {
            backend,
            n_parallel: pool.workers(),
            limits: self.limits.unwrap_or_default(),
            engine: self.engine.unwrap_or_default(),
            memo: self.memo,
            pool,
            inflight: Arc::new(InflightMap::default()),
            lane,
            tenant,
        })
    }
}

/// Default worker count: every available core, capped at the paper's
/// `n_parallel = 16` — 16 simulators on a 4-core laptop only thrash.
fn default_n_parallel() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelBuilder;
    use simtune_tensor::{matmul, Schedule, TargetIsa};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn exes(n: usize) -> Vec<Executable> {
        let def = matmul(6, 6, 6);
        let b = KernelBuilder::new(def.clone(), TargetIsa::riscv_u74());
        let s = Schedule::default_for(&def);
        (0..n)
            .map(|i| b.build(&s, &format!("m{i}")).unwrap())
            .collect()
    }

    fn hier() -> HierarchyConfig {
        HierarchyConfig::riscv_u74()
    }

    #[test]
    fn accurate_and_fast_count_agree_on_retired_instructions() {
        let exes = exes(1);
        let acc = AccurateBackend::new(hier());
        let fast = FastCountBackend::matching(&hier());
        let a = acc.run_one(&exes[0], &RunLimits::default()).unwrap();
        let f = fast.run_one(&exes[0], &RunLimits::default()).unwrap();
        assert_eq!(a.stats.inst_mix, f.stats.inst_mix);
        assert_eq!(a.backend, "accurate");
        assert_eq!(f.backend, "fast-count");
        assert!(!a.extrapolated && !f.extrapolated);
        // The fast path reports no cache-model activity.
        assert_eq!(f.stats.cache.l1d.read_hits, 0);
        assert_eq!(f.stats.cache.l2, CacheStats::default());
    }

    #[test]
    fn sampled_at_full_fraction_equals_accurate() {
        let exes = exes(1);
        let acc = AccurateBackend::new(hier());
        let samp = SampledBackend::new(hier(), 1.0).unwrap();
        let a = acc.run_one(&exes[0], &RunLimits::default()).unwrap();
        let s = samp.run_one(&exes[0], &RunLimits::default()).unwrap();
        assert!(!s.extrapolated);
        assert_eq!(a.stats.inst_mix, s.stats.inst_mix);
        assert_eq!(a.stats.cache, s.stats.cache);
    }

    #[test]
    fn sampled_extrapolates_partial_runs() {
        let exes = exes(1);
        let acc = AccurateBackend::new(hier());
        let full = acc.run_one(&exes[0], &RunLimits::default()).unwrap();
        let total = full.stats.inst_mix.total();
        let samp = SampledBackend::new(hier(), 0.25).unwrap().with_min_insts(1);
        let s = samp.run_one(&exes[0], &RunLimits::default()).unwrap();
        assert!(s.extrapolated);
        assert_eq!(s.fidelity, Fidelity::Sampled { fraction: 0.25 });
        // Extrapolated totals land close to the true total (linear
        // scaling of an exact quarter prefix: within rounding of the
        // component-wise division).
        let est = s.stats.inst_mix.total();
        let err = est.abs_diff(total) as f64 / total as f64;
        assert!(err < 0.05, "estimate {est} vs true {total}");
    }

    #[test]
    fn sampled_rejects_bad_fractions() {
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let err = SampledBackend::new(hier(), bad).unwrap_err();
            assert!(matches!(err, BackendError::Config { .. }), "{bad}");
        }
    }

    #[test]
    fn session_runs_parallel_and_preserves_order() {
        let exes = exes(6);
        let seq = SimSession::builder()
            .accurate(&hier())
            .n_parallel(1)
            .build()
            .unwrap();
        let par = SimSession::builder()
            .accurate(&hier())
            .n_parallel(4)
            .build()
            .unwrap();
        let a = seq.run(&exes);
        let b = par.run(&exes);
        for (x, y) in a.iter().zip(&b) {
            let (x, y) = (x.as_ref().unwrap(), y.as_ref().unwrap());
            assert_eq!(x.stats.inst_mix, y.stats.inst_mix);
            assert_eq!(x.stats.cache, y.stats.cache);
            assert_eq!(x.backend, y.backend);
        }
    }

    #[test]
    fn session_builder_surfaces_deferred_errors() {
        let err = SimSession::builder().build().unwrap_err();
        assert!(matches!(err, CoreError::Pipeline(_)));
        let err = SimSession::builder()
            .sampled(&hier(), 2.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::Backend { .. }));
        // A later explicit selection recovers from the failed step.
        let session = SimSession::builder()
            .sampled(&hier(), 2.0)
            .accurate(&hier())
            .build()
            .unwrap();
        assert_eq!(session.backend_name(), "accurate");
    }

    /// Wraps a backend and counts actual executions — the probe for
    /// asserting that memo hits skip the backend entirely.
    struct CountingBackend<B> {
        inner: B,
        executions: AtomicUsize,
    }

    impl<B: SimBackend> CountingBackend<B> {
        fn new(inner: B) -> Self {
            CountingBackend {
                inner,
                executions: AtomicUsize::new(0),
            }
        }
    }

    impl<B: SimBackend> SimBackend for CountingBackend<B> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn fidelity(&self) -> Fidelity {
            self.inner.fidelity()
        }
        fn run_one(&self, exe: &Executable, limits: &RunLimits) -> Result<SimReport, BackendError> {
            self.executions.fetch_add(1, Ordering::Relaxed);
            self.inner.run_one(exe, limits)
        }
        fn run_one_decoded(
            &self,
            exe: &Executable,
            decoded: &DecodedProgram,
            limits: &RunLimits,
        ) -> Result<SimReport, BackendError> {
            self.executions.fetch_add(1, Ordering::Relaxed);
            self.inner.run_one_decoded(exe, decoded, limits)
        }
        fn memo_key(&self) -> Option<String> {
            self.inner.memo_key()
        }
    }

    /// An external simulator stand-in: never decodes, counts its calls
    /// and reports fixed statistics under the default (no-memo) trait
    /// methods.
    struct StubBackend {
        host_nanos: u64,
        calls: AtomicUsize,
    }

    impl StubBackend {
        fn new(host_nanos: u64) -> Self {
            StubBackend {
                host_nanos,
                calls: AtomicUsize::new(0),
            }
        }
    }

    impl SimBackend for StubBackend {
        fn name(&self) -> &str {
            "external"
        }
        fn fidelity(&self) -> Fidelity {
            Fidelity::Custom
        }
        fn run_one(&self, _: &Executable, _: &RunLimits) -> Result<SimReport, BackendError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            let stats = SimStats {
                host_nanos: self.host_nanos,
                ..SimStats::default()
            };
            Ok(SimReport::full(stats, self.name(), Fidelity::Custom))
        }
    }

    #[test]
    fn memo_cache_skips_repeat_executions_and_replays_reports() {
        let exes = exes(3);
        let backend = Arc::new(CountingBackend::new(AccurateBackend::new(hier())));
        let cache = Arc::new(SimCache::new());
        let session = SimSession::builder()
            .backend(backend.clone())
            .n_parallel(1)
            .memo_cache(cache.clone())
            .build()
            .unwrap();

        // All three candidates are one schedule under three trial names;
        // the name is excluded from the fingerprint, so the backend runs
        // once and the other two are memo hits.
        let first: Vec<SimReport> = session.run(&exes).into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(backend.executions.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.len(), 1);
        let second: Vec<SimReport> = session.run(&exes).into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(
            backend.executions.load(Ordering::Relaxed),
            1,
            "repeat batch must be answered entirely from the cache"
        );
        assert_eq!(first, second, "memo hits replay byte-identical reports");
        assert!(cache.stats().hit_ratio() > 0.5);
    }

    #[test]
    fn memo_cache_distinguishes_backend_configurations() {
        let exes = exes(1);
        let cache = Arc::new(SimCache::new());
        let tiny = SimSession::builder()
            .accurate(&HierarchyConfig::tiny_for_tests())
            .n_parallel(1)
            .memo_cache(cache.clone())
            .build()
            .unwrap();
        let big = SimSession::builder()
            .accurate(&hier())
            .n_parallel(1)
            .memo_cache(cache.clone())
            .build()
            .unwrap();
        let a = tiny.run(&exes).pop().unwrap().unwrap();
        let b = big.run(&exes).pop().unwrap().unwrap();
        // A 6x6x6 matmul happens to fit both geometries, so the reports
        // agree — but the fingerprints must not: reusing one geometry's
        // result for the other would be wrong on any larger kernel.
        assert_eq!(cache.stats().hits, 0, "different geometries must miss");
        assert_eq!(cache.len(), 2);
        assert_eq!(a.backend, b.backend);
    }

    #[test]
    fn custom_backends_run_programs_the_static_validator_rejects() {
        use simtune_isa::{Gpr, Inst, ProgramBuilder, TargetIsa};

        // Dead instruction after the terminator: the interpreter never
        // reaches it, but decode-time validation rejects the program.
        let mut b = ProgramBuilder::new();
        b.push(Inst::Halt);
        b.push(Inst::Li { rd: Gpr(1), imm: 1 });
        let exe = Executable::new("tail", b.build().unwrap(), TargetIsa::riscv_u74());
        assert!(exe.decode().is_err(), "sanity: validator rejects it");

        // A custom backend driving its own simulator must still run it.
        let session = SimSession::builder()
            .backend(Arc::new(StubBackend::new(5)))
            .n_parallel(1)
            .build()
            .unwrap();
        let report = session
            .run(std::slice::from_ref(&exe))
            .pop()
            .unwrap()
            .expect("custom backend is not subject to decode validation");
        assert_eq!(report.stats.host_nanos, 5);

        // The bundled backends report the decode error instead.
        let accurate = SimSession::builder()
            .accurate(&hier())
            .n_parallel(1)
            .build()
            .unwrap();
        let err = accurate
            .run(std::slice::from_ref(&exe))
            .pop()
            .unwrap()
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::Sim(simtune_isa::SimError::InvalidPc { .. })
        ));
    }

    #[test]
    fn memo_hits_do_not_decode() {
        use simtune_isa::{Gpr, Inst, ProgramBuilder, TargetIsa};

        // An undecodable program with a memoized report: served from the
        // cache without tripping the validator, proving the lookup
        // happens before (and without) the decode.
        let mut b = ProgramBuilder::new();
        b.push(Inst::Halt);
        b.push(Inst::Li { rd: Gpr(1), imm: 1 });
        let exe = Executable::new("tail", b.build().unwrap(), TargetIsa::riscv_u74());

        let cache = Arc::new(SimCache::new());
        let session = SimSession::builder()
            .accurate(&hier())
            .n_parallel(1)
            .memo_cache(cache.clone())
            .build()
            .unwrap();
        let backend = session.backend().clone();
        let key = crate::memo::fingerprint(
            &exe,
            &backend.fidelity_digest().unwrap(),
            &session.limits(),
            session.engine(),
        );
        let planted = SimReport::full(SimStats::default(), ACCURATE, Fidelity::Accurate);
        cache.insert(key, planted.clone());
        let report = session
            .run(std::slice::from_ref(&exe))
            .pop()
            .unwrap()
            .expect("hit served without decoding");
        assert_eq!(report, planted);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn custom_backends_are_not_memoized() {
        let exes = exes(1);
        let stub = Arc::new(StubBackend::new(0));
        let cache = Arc::new(SimCache::new());
        let session = SimSession::builder()
            .backend(stub.clone())
            .n_parallel(1)
            .memo_cache(cache.clone())
            .build()
            .unwrap();
        session.run(&exes);
        session.run(&exes);
        assert_eq!(stub.calls.load(Ordering::Relaxed), 2, "no memo for Custom");
        assert!(cache.is_empty());
        assert_eq!(cache.stats().lookups(), 0);
    }
}
