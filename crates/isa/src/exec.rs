use crate::{
    AtomicCpu, DecodedProgram, EngineKind, ExecHook, Memory, NoopHook, Program, RunLimits,
    SimError, SimStats, TargetIsa,
};
use simtune_cache::{CacheHierarchy, HierarchyConfig};
use std::time::Instant;

/// A standalone executable, the unit the paper's builder hands to the
/// simulator interface (Section III-A).
///
/// In the paper, a generated `main` function prepares the input tensors,
/// allocates the output and calls the compiled kernel. Here the
/// preparation is a list of `(address, values)` segments the loader
/// materializes into simulator memory before jumping to the program —
/// byte-for-byte the same effect without interpreting an init loop.
#[derive(Debug, Clone)]
pub struct Executable {
    /// Descriptive name ("conv2d g3 impl 17") for logs and errors.
    pub name: String,
    /// The compiled kernel plus driver code.
    pub program: Program,
    /// Prepared tensor data: `(base address, f32 values)` per buffer.
    pub data_segments: Vec<(u64, Vec<f32>)>,
    /// Target whose register/vector resources the code was generated for.
    pub target: TargetIsa,
}

/// Result of a simulator invocation: statistics plus the final memory
/// image (for output validation).
#[derive(Debug)]
pub struct SimOutcome {
    /// Instruction-accurate statistics, including host wall time.
    pub stats: SimStats,
    /// Memory after the run; read the output buffer from here.
    pub memory: Memory,
    /// Name of the simulator flavor that produced this outcome
    /// ("accurate", "fast-count", …) — indispensable when debugging
    /// mixed-fidelity autotuning runs.
    pub backend: String,
}

/// Loads and runs `exe` on a fresh instruction-accurate simulator instance
/// with the given cache hierarchy — one "simulator instance" of the
/// paper's `n_parallel` pool.
///
/// The returned statistics include the host wall-clock time of the
/// simulation (`t_simulator` in the paper's Equation 4).
///
/// The program is lowered with [`Executable::decode`] first, so
/// decode-time control-flow validation applies: a branch pointing
/// outside the program or a last instruction that could fall through
/// past the end is rejected up front with [`SimError::InvalidPc`]
/// instead of (possibly never) failing mid-run.
///
/// # Errors
///
/// Propagates any [`SimError`] from the decode or the run (invalid
/// control flow, memory faults, instruction budget exhaustion, unknown
/// syscalls).
///
/// # Example
///
/// ```
/// use simtune_cache::HierarchyConfig;
/// use simtune_isa::{simulate, Executable, Inst, Gpr, ProgramBuilder, RunLimits, TargetIsa};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = ProgramBuilder::new();
/// b.push(Inst::Li { rd: Gpr(1), imm: 0x100_0000 });
/// b.push(Inst::Flw { fd: simtune_isa::Fpr(1), rs: Gpr(1), imm: 0 });
/// b.push(Inst::Halt);
/// let exe = Executable {
///     name: "demo".into(),
///     program: b.build()?,
///     data_segments: vec![(0x100_0000, vec![1.0, 2.0])],
///     target: TargetIsa::riscv_u74(),
/// };
/// let out = simulate(&exe, &HierarchyConfig::tiny_for_tests(), RunLimits::default())?;
/// assert_eq!(out.memory.read_f32(0x100_0000)?, 1.0);
/// assert!(out.stats.host_nanos > 0);
/// # Ok(())
/// # }
/// ```
pub fn simulate(
    exe: &Executable,
    hierarchy: &HierarchyConfig,
    limits: RunLimits,
) -> Result<SimOutcome, SimError> {
    let decoded = exe.decode()?;
    simulate_decoded(exe, &decoded, hierarchy, limits)
}

/// [`simulate`] over a pre-decoded program: the batch-driver entry point
/// that amortizes [`DecodedProgram::decode`] across repeated runs of the
/// same executable (sampling passes, memo-cache misses, sweep replays).
///
/// `decoded` must be the lowering of `exe.program` for `exe.target`
/// (obtain it from [`Executable::decode`]).
///
/// # Errors
///
/// Propagates any [`SimError`] from the run.
pub fn simulate_decoded(
    exe: &Executable,
    decoded: &DecodedProgram,
    hierarchy: &HierarchyConfig,
    limits: RunLimits,
) -> Result<SimOutcome, SimError> {
    simulate_decoded_on(exe, decoded, hierarchy, limits, EngineKind::Decoded)
}

/// [`simulate_decoded`] on an explicit replay engine. All engines are
/// observationally identical (see the differential suite); the choice
/// only moves host time.
///
/// # Errors
///
/// Propagates any [`SimError`] from the run.
pub fn simulate_decoded_on(
    exe: &Executable,
    decoded: &DecodedProgram,
    hierarchy: &HierarchyConfig,
    limits: RunLimits,
    engine: EngineKind,
) -> Result<SimOutcome, SimError> {
    simulate_decoded_hooked_on(exe, decoded, hierarchy, limits, engine, &mut NoopHook)
}

/// Loads `exe` on a fresh instance — its data segments in new memory, a
/// cold hierarchy from `hier`, a reset CPU — and times one run of it on
/// `engine` (see [`EngineKind::run`] for `budget` and the returned
/// completion flag).
#[allow(clippy::too_many_arguments)] // EngineKind::run's operands plus the instance set-up
fn run_fresh<H: ExecHook>(
    exe: &Executable,
    decoded: &DecodedProgram,
    engine: EngineKind,
    hier: impl FnOnce() -> CacheHierarchy,
    backend: &str,
    limits: RunLimits,
    budget: Option<u64>,
    hook: &mut H,
) -> Result<(SimOutcome, bool), SimError> {
    let mut mem = Memory::new();
    for (base, values) in &exe.data_segments {
        mem.write_f32_slice(*base, values)?;
    }
    // Built after the segments load: the allocation order decides how
    // well the allocator reuses the (large) hierarchy across trials.
    let mut hier = hier();
    let mut cpu = AtomicCpu::new(&exe.target);
    let start = Instant::now();
    let (mut stats, completed) = engine.run(
        &exe.program,
        decoded,
        &mut cpu,
        &mut mem,
        &mut hier,
        limits,
        budget,
        hook,
    )?;
    stats.host_nanos = start.elapsed().as_nanos().max(1) as u64;
    let out = SimOutcome {
        stats,
        memory: mem,
        backend: backend.into(),
    };
    Ok((out, completed))
}

/// [`simulate_decoded_on`] with an explicit [`ExecHook`] observing the
/// run — the entry point timing tiers use to price every fetch, data
/// access, branch resolution and retirement while the functional
/// semantics stay byte-for-byte those of the accurate backend.
///
/// The hook's event order per retirement is fixed and identical across
/// engines: `on_fetch`, then any `on_data_access`/`on_branch` raised by
/// the instruction, then `on_retire`.
///
/// # Errors
///
/// Propagates any [`SimError`] from the run.
pub fn simulate_decoded_hooked_on<H: ExecHook>(
    exe: &Executable,
    decoded: &DecodedProgram,
    hierarchy: &HierarchyConfig,
    limits: RunLimits,
    engine: EngineKind,
    hook: &mut H,
) -> Result<SimOutcome, SimError> {
    let hier = || CacheHierarchy::new(hierarchy.clone());
    run_fresh(exe, decoded, engine, hier, ACCURATE, limits, None, hook).map(|(out, _)| out)
}

/// Canonical name of the full instruction-accurate simulator flavor.
pub const ACCURATE: &str = "accurate";
/// Canonical name of the counting-only simulator flavor.
pub const FAST_COUNT: &str = "fast-count";

/// Runs `exe` on a *counting-only* simulator instance: the program
/// executes functionally and retired instructions plus memory accesses
/// are tallied, but no cache hierarchy is modeled (the QEMU-plugin
/// instrumentation style the paper names as the cheap alternative to
/// gem5). `line_bytes` must match the reference hierarchy's line size so
/// vector accesses touch the same line count. See [`simulate_decoded`]
/// for the contract on `decoded`.
///
/// Retired-instruction counts are bit-identical to [`simulate`]'s: both
/// run the same functional CPU on the same inputs.
///
/// # Errors
///
/// Propagates any [`SimError`] from the run.
pub fn simulate_counting_decoded(
    exe: &Executable,
    decoded: &DecodedProgram,
    line_bytes: u64,
    limits: RunLimits,
) -> Result<SimOutcome, SimError> {
    simulate_counting_decoded_on(exe, decoded, line_bytes, limits, EngineKind::Decoded)
}

/// [`simulate_counting_decoded`] on an explicit replay engine; see
/// [`simulate_decoded_on`] for the engine contract.
///
/// # Errors
///
/// Propagates any [`SimError`] from the run.
pub fn simulate_counting_decoded_on(
    exe: &Executable,
    decoded: &DecodedProgram,
    line_bytes: u64,
    limits: RunLimits,
    engine: EngineKind,
) -> Result<SimOutcome, SimError> {
    let hier = || CacheHierarchy::counting_only(line_bytes);
    run_fresh(
        exe,
        decoded,
        engine,
        hier,
        FAST_COUNT,
        limits,
        None,
        &mut NoopHook,
    )
    .map(|(out, _)| out)
}

/// Runs at most `budget` instructions of `exe` on a fresh
/// instruction-accurate instance with the selected replay engine,
/// stopping cleanly when the budget is reached. Returns the prefix
/// outcome and whether the program ran to completion — the primitive a
/// sampled backend extrapolates from. See [`simulate_decoded`] for the
/// contract on `decoded` and [`simulate_decoded_on`] for the engine
/// contract.
///
/// # Errors
///
/// Propagates any [`SimError`] from the run.
pub fn simulate_prefix_decoded_on(
    exe: &Executable,
    decoded: &DecodedProgram,
    hierarchy: &HierarchyConfig,
    limits: RunLimits,
    budget: u64,
    engine: EngineKind,
) -> Result<(SimOutcome, bool), SimError> {
    let hier = || CacheHierarchy::new(hierarchy.clone());
    run_fresh(
        exe,
        decoded,
        engine,
        hier,
        ACCURATE,
        limits,
        Some(budget),
        &mut NoopHook,
    )
}

impl Executable {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, program: Program, target: TargetIsa) -> Self {
        Executable {
            name: name.into(),
            program,
            data_segments: Vec::new(),
            target,
        }
    }

    /// Adds a prepared tensor segment, builder-style.
    pub fn with_segment(mut self, base: u64, values: Vec<f32>) -> Self {
        self.data_segments.push((base, values));
        self
    }

    /// Lowers this executable's program once for its target — the handle
    /// the `*_decoded` simulation entry points replay.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidPc`] when decode-time control-flow
    /// validation rejects the program.
    pub fn decode(&self) -> Result<DecodedProgram, SimError> {
        DecodedProgram::decode(&self.program, &self.target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fpr, Gpr, Inst, ProgramBuilder};

    fn adder_exe() -> Executable {
        // out[0] = in[0] + in[1]
        let mut b = ProgramBuilder::new();
        b.push(Inst::Li {
            rd: Gpr(1),
            imm: 0x100_0000,
        });
        b.push(Inst::Flw {
            fd: Fpr(1),
            rs: Gpr(1),
            imm: 0,
        });
        b.push(Inst::Flw {
            fd: Fpr(2),
            rs: Gpr(1),
            imm: 4,
        });
        b.push(Inst::Fadd {
            fd: Fpr(3),
            fs1: Fpr(1),
            fs2: Fpr(2),
        });
        b.push(Inst::Fsw {
            fval: Fpr(3),
            rs: Gpr(1),
            imm: 8,
        });
        b.push(Inst::Ecall { code: 0 });
        Executable::new("adder", b.build().unwrap(), TargetIsa::riscv_u74())
            .with_segment(0x100_0000, vec![1.25, 2.5])
    }

    #[test]
    fn simulate_runs_and_exposes_outputs() {
        let out = simulate(
            &adder_exe(),
            &HierarchyConfig::tiny_for_tests(),
            RunLimits::default(),
        )
        .unwrap();
        assert_eq!(out.memory.read_f32(0x100_0000 + 8).unwrap(), 3.75);
        assert_eq!(out.stats.inst_mix.loads, 2);
        assert_eq!(out.stats.inst_mix.stores, 1);
        assert!(out.stats.host_nanos > 0, "wall time must be recorded");
    }

    #[test]
    fn each_simulation_starts_cold() {
        // Two runs of the same executable report identical cache stats:
        // fresh memory, fresh hierarchy, no leakage between instances.
        let exe = adder_exe();
        let cfg = HierarchyConfig::tiny_for_tests();
        let a = simulate(&exe, &cfg, RunLimits::default()).unwrap();
        let b = simulate(&exe, &cfg, RunLimits::default()).unwrap();
        assert_eq!(a.stats.inst_mix, b.stats.inst_mix);
        assert_eq!(a.stats.cache, b.stats.cache);
    }

    #[test]
    fn segments_materialize_before_entry() {
        let exe = adder_exe().with_segment(0x200_0000, vec![9.0]);
        let out = simulate(
            &exe,
            &HierarchyConfig::tiny_for_tests(),
            RunLimits::default(),
        )
        .unwrap();
        assert_eq!(out.memory.read_f32(0x200_0000).unwrap(), 9.0);
    }
}
