//! Pre-decoded execution: one-time lowering of a [`Program`] into a
//! dense µop array, plus the [`ExecEngine`] abstraction over the two
//! ways of driving the [`AtomicCpu`].
//!
//! # Why a decode phase
//!
//! The interpreter loop pays per-retirement costs that are invariant
//! across the whole run: bounds-checking the program counter, computing
//! the fetch address (`CODE_BASE + pc * inst_bytes`), and classifying
//! the instruction for statistics. Autotuning workloads re-enter the
//! simulator thousands of times per schedule-space sweep, so this module
//! hoists all of that into a one-time [`DecodedProgram::decode`] pass —
//! the same decode/execute split fast simulators and JITs use (mijit,
//! QEMU TCG, trace-driven GPU simulators): lower once, replay many
//! times.
//!
//! The lowered form is a dense array of [`MicroOp`]s carrying the
//! original instruction, its precomputed fetch address and its
//! [`MixClass`].
//! Control-flow validity is established **once** at decode time: every
//! branch target must land inside the program and the last instruction
//! must not fall through past the end ([`SimError::InvalidPc`]
//! otherwise), so the execution loop needs no per-step PC range checks
//! and can never fail with [`SimError::PcOutOfRange`].
//!
//! # Engines
//!
//! [`ExecEngine`] abstracts "something that can drive an [`AtomicCpu`]
//! over a program":
//!
//! * [`InterpEngine`] — the original loop: re-inspects the raw
//!   [`Program`] on every retirement. Kept as the reference
//!   implementation and for one-shot runs where decoding would not
//!   amortize.
//! * [`DecodedEngine`] — replays a [`DecodedProgram`]; per-retirement
//!   work is a single indexed load of the µop. The production engine.
//!
//! Both engines share the single-instruction semantic core
//! (`AtomicCpu::exec_inst`), so their architectural results and
//! [`SimStats`] are bit-identical by construction — a property pinned
//! down by the differential property suite in `tests/`. [`crate::EngineKind`]
//! names them for configuration plumbing.
//!
//! # Example
//!
//! ```
//! use simtune_cache::{CacheHierarchy, HierarchyConfig};
//! use simtune_isa::{
//!     AtomicCpu, DecodedEngine, DecodedProgram, ExecEngine, Gpr, Inst, Memory, NoopHook,
//!     ProgramBuilder, RunLimits, TargetIsa,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new();
//! b.push(Inst::Li { rd: Gpr(1), imm: 41 });
//! b.push(Inst::Addi { rd: Gpr(1), rs: Gpr(1), imm: 1 });
//! b.push(Inst::Halt);
//! let prog = b.build()?;
//!
//! let target = TargetIsa::riscv_u74();
//! let decoded = DecodedProgram::decode(&prog, &target)?; // once
//! let engine = DecodedEngine::new(&decoded);
//! for _ in 0..3 {
//!     // replay many times
//!     let mut cpu = AtomicCpu::new(&target);
//!     let mut mem = Memory::new();
//!     let mut hier = CacheHierarchy::new(HierarchyConfig::tiny_for_tests());
//!     let stats =
//!         engine.run_with_hook(&mut cpu, &mut mem, &mut hier, RunLimits::default(), &mut NoopHook)?;
//!     assert_eq!(stats.inst_mix.total(), 3);
//!     assert_eq!(cpu.gpr(Gpr(1)), 42);
//! }
//! # Ok(())
//! # }
//! ```

use crate::cpu::Step;
use crate::{
    AtomicCpu, ExecHook, Inst, InstMix, Memory, Program, RunLimits, SimError, SimStats, TargetIsa,
    CODE_BASE,
};
use simtune_cache::CacheHierarchy;

/// Statistics class of an instruction — the precomputed form of the
/// per-arm `mix.* += 1` accounting in the interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MixClass {
    /// Integer ALU operations (address arithmetic, loop counters).
    IntAlu,
    /// Scalar floating-point operations.
    FpAlu,
    /// Vector ALU operations.
    VecAlu,
    /// Loads of any width.
    Load,
    /// Stores of any width.
    Store,
    /// Control-flow instructions.
    Branch,
    /// Everything else (moves, converts, ecalls, halt).
    Other,
}

impl MixClass {
    /// Classifies an instruction exactly as the execution loop counts it
    /// into [`InstMix`].
    pub fn of(inst: &Inst) -> MixClass {
        match inst {
            Inst::Li { .. }
            | Inst::Addi { .. }
            | Inst::Add { .. }
            | Inst::Sub { .. }
            | Inst::Mul { .. }
            | Inst::Muli { .. }
            | Inst::Slli { .. } => MixClass::IntAlu,
            Inst::Fli { .. }
            | Inst::Fadd { .. }
            | Inst::Fsub { .. }
            | Inst::Fmul { .. }
            | Inst::Fdiv { .. }
            | Inst::Fmadd { .. }
            | Inst::Fmax { .. } => MixClass::FpAlu,
            Inst::Vbcast { .. }
            | Inst::Vsplat { .. }
            | Inst::Vfadd { .. }
            | Inst::Vfmul { .. }
            | Inst::Vfma { .. }
            | Inst::Vfmax { .. }
            | Inst::Vredsum { .. }
            | Inst::Vinsert { .. }
            | Inst::Vextract { .. } => MixClass::VecAlu,
            Inst::Ld { .. } | Inst::Flw { .. } | Inst::Vload { .. } => MixClass::Load,
            Inst::Sd { .. } | Inst::Fsw { .. } | Inst::Vstore { .. } => MixClass::Store,
            Inst::Blt { .. } | Inst::Bge { .. } | Inst::Bne { .. } | Inst::Jmp { .. } => {
                MixClass::Branch
            }
            Inst::Mv { .. } | Inst::Fcvt { .. } | Inst::Ecall { .. } | Inst::Halt => {
                MixClass::Other
            }
        }
    }
}

/// One pre-decoded instruction: the dense replay form the
/// [`DecodedEngine`] executes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroOp {
    /// The architectural instruction (branch targets already resolved).
    pub inst: Inst,
    /// Precomputed I-fetch address (`CODE_BASE + pc * inst_bytes`).
    pub fetch_addr: u64,
    /// Statistics class of the instruction.
    pub class: MixClass,
}

/// A [`Program`] lowered once into a dense µop array with validated
/// control flow.
///
/// Produced by [`DecodedProgram::decode`]; consumed by
/// [`DecodedEngine`]. Decoding is target-specific only through the
/// instruction encoding width (fetch addresses); the same decoded
/// program may be replayed any number of times, by any number of
/// threads (`DecodedProgram` is immutable and `Send + Sync`).
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedProgram {
    ops: Vec<MicroOp>,
    inst_bytes: u64,
}

impl DecodedProgram {
    /// Lowers `prog` for `target`, validating all control flow.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidPc`] when a branch target points
    /// outside the program or when the last instruction could fall
    /// through past the end (i.e. is neither a terminator, an
    /// unconditional jump, nor an `Ecall`).
    pub fn decode(prog: &Program, target: &TargetIsa) -> Result<DecodedProgram, SimError> {
        let insts = prog.insts();
        let len = insts.len();
        if len == 0 {
            return Err(SimError::InvalidPc {
                at: 0,
                target: 0,
                len: 0,
            });
        }

        // Control-flow validation: every place execution can move the PC
        // must stay inside the program. After this pass the execution
        // loop needs no bounds checks.
        for (at, inst) in insts.iter().enumerate() {
            if let Some(t) = branch_target(inst) {
                if t >= len {
                    return Err(SimError::InvalidPc { at, target: t, len });
                }
            }
        }
        let last = &insts[len - 1];
        let last_falls_through =
            !matches!(last, Inst::Halt | Inst::Ecall { .. } | Inst::Jmp { .. });
        if last_falls_through {
            return Err(SimError::InvalidPc {
                at: len - 1,
                target: len,
                len,
            });
        }

        let ops = insts
            .iter()
            .enumerate()
            .map(|(pc, inst)| MicroOp {
                inst: *inst,
                fetch_addr: CODE_BASE + pc as u64 * target.inst_bytes,
                class: MixClass::of(inst),
            })
            .collect();
        Ok(DecodedProgram {
            ops,
            inst_bytes: target.inst_bytes,
        })
    }

    /// The µop sequence, indexed by program counter.
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// Number of instructions (static code size).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Always false: decoding rejects empty programs.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Instruction encoding width the fetch addresses were computed for.
    pub fn inst_bytes(&self) -> u64 {
        self.inst_bytes
    }
}

fn branch_target(inst: &Inst) -> Option<usize> {
    match *inst {
        Inst::Blt { target, .. }
        | Inst::Bge { target, .. }
        | Inst::Bne { target, .. }
        | Inst::Jmp { target } => Some(target),
        _ => None,
    }
}

/// Something that can drive an [`AtomicCpu`] over a program: the seam
/// between "what to execute" (raw or pre-decoded) and "how to execute
/// it" (the CPU's single-instruction semantics).
pub trait ExecEngine {
    /// Runs to completion, reporting every event to `hook`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AtomicCpu::run_with_hook`] (the
    /// [`DecodedEngine`] can additionally never raise
    /// [`SimError::PcOutOfRange`]).
    fn run_with_hook<H: ExecHook>(
        &self,
        cpu: &mut AtomicCpu,
        mem: &mut Memory,
        hier: &mut CacheHierarchy,
        limits: RunLimits,
        hook: &mut H,
    ) -> Result<SimStats, SimError>;

    /// Runs at most `budget` instructions, stopping cleanly when the
    /// budget is reached; returns the prefix statistics and whether the
    /// program ran to completion.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExecEngine::run_with_hook`].
    fn run_prefix_with_hook<H: ExecHook>(
        &self,
        cpu: &mut AtomicCpu,
        mem: &mut Memory,
        hier: &mut CacheHierarchy,
        limits: RunLimits,
        budget: u64,
        hook: &mut H,
    ) -> Result<(SimStats, bool), SimError>;
}

/// The original re-decoding execution loop: inspects the raw [`Program`]
/// on every retirement. Reference implementation and the right choice
/// for one-shot runs where a decode pass would not amortize.
#[derive(Debug, Clone, Copy)]
pub struct InterpEngine<'p> {
    prog: &'p Program,
}

impl<'p> InterpEngine<'p> {
    /// Engine over a raw program.
    pub fn new(prog: &'p Program) -> Self {
        InterpEngine { prog }
    }
}

impl ExecEngine for InterpEngine<'_> {
    fn run_with_hook<H: ExecHook>(
        &self,
        cpu: &mut AtomicCpu,
        mem: &mut Memory,
        hier: &mut CacheHierarchy,
        limits: RunLimits,
        hook: &mut H,
    ) -> Result<SimStats, SimError> {
        cpu.run_inner(self.prog, mem, hier, limits, None, hook)
            .map(|(stats, _)| stats)
    }

    fn run_prefix_with_hook<H: ExecHook>(
        &self,
        cpu: &mut AtomicCpu,
        mem: &mut Memory,
        hier: &mut CacheHierarchy,
        limits: RunLimits,
        budget: u64,
        hook: &mut H,
    ) -> Result<(SimStats, bool), SimError> {
        cpu.run_inner(self.prog, mem, hier, limits, Some(budget), hook)
    }
}

/// The fast path: replays a [`DecodedProgram`]. Per-retirement work is
/// one indexed µop load — no PC bounds check (validated at decode), no
/// fetch-address arithmetic (precomputed).
#[derive(Debug, Clone, Copy)]
pub struct DecodedEngine<'p> {
    prog: &'p DecodedProgram,
}

impl<'p> DecodedEngine<'p> {
    /// Engine over a pre-decoded program.
    pub fn new(prog: &'p DecodedProgram) -> Self {
        DecodedEngine { prog }
    }

    fn run_decoded<H: ExecHook>(
        &self,
        cpu: &mut AtomicCpu,
        mem: &mut Memory,
        hier: &mut CacheHierarchy,
        limits: RunLimits,
        stop_at: Option<u64>,
        hook: &mut H,
    ) -> Result<(SimStats, bool), SimError> {
        let ops = self.prog.ops.as_slice();
        let mut mix = InstMix::default();
        let mut pc = 0usize;
        let line_bytes = hier.line_bytes();
        let mut completed = true;
        loop {
            let retired = mix.total();
            if retired >= limits.max_insts {
                return Err(SimError::InstLimitExceeded {
                    limit: limits.max_insts,
                });
            }
            if stop_at.is_some_and(|budget| retired >= budget) {
                completed = false;
                break;
            }
            // In range by decode-time validation: every reachable pc is a
            // fall-through (checked against the last instruction) or a
            // validated branch target. Copy the architectural fields to
            // locals so they live in registers across the step.
            let op = &ops[pc];
            let inst = op.inst;
            hook.on_fetch(pc, hier.fetch(op.fetch_addr));
            let step = cpu.exec_inst(&inst, pc, mem, hier, hook, line_bytes, &mut mix)?;
            hook.on_retire(&inst);
            match step {
                Step::Next => pc += 1,
                Step::Jump(target) => pc = target,
                Step::Stop => break,
            }
        }
        Ok((
            SimStats {
                inst_mix: mix,
                cache: hier.stats(),
                host_nanos: 0,
            },
            completed,
        ))
    }
}

impl ExecEngine for DecodedEngine<'_> {
    fn run_with_hook<H: ExecHook>(
        &self,
        cpu: &mut AtomicCpu,
        mem: &mut Memory,
        hier: &mut CacheHierarchy,
        limits: RunLimits,
        hook: &mut H,
    ) -> Result<SimStats, SimError> {
        self.run_decoded(cpu, mem, hier, limits, None, hook)
            .map(|(stats, _)| stats)
    }

    fn run_prefix_with_hook<H: ExecHook>(
        &self,
        cpu: &mut AtomicCpu,
        mem: &mut Memory,
        hier: &mut CacheHierarchy,
        limits: RunLimits,
        budget: u64,
        hook: &mut H,
    ) -> Result<(SimStats, bool), SimError> {
        self.run_decoded(cpu, mem, hier, limits, Some(budget), hook)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fpr, Gpr, NoopHook, ProgramBuilder};
    use simtune_cache::HierarchyConfig;

    fn loop_program() -> Program {
        // sum = 0; for i in 0..10 { sum += i }
        let mut b = ProgramBuilder::new();
        b.push(Inst::Li { rd: Gpr(1), imm: 0 });
        b.push(Inst::Li { rd: Gpr(2), imm: 0 });
        b.push(Inst::Li {
            rd: Gpr(3),
            imm: 10,
        });
        let top = b.bind_new_label();
        b.push(Inst::Add {
            rd: Gpr(2),
            rs1: Gpr(2),
            rs2: Gpr(1),
        });
        b.push(Inst::Addi {
            rd: Gpr(1),
            rs: Gpr(1),
            imm: 1,
        });
        b.branch_lt(Gpr(1), Gpr(3), top);
        b.push(Inst::Halt);
        b.build().unwrap()
    }

    fn setup() -> (Memory, CacheHierarchy) {
        (
            Memory::new(),
            CacheHierarchy::new(HierarchyConfig::tiny_for_tests()),
        )
    }

    #[test]
    fn decoded_engine_matches_interpreter_exactly() {
        let prog = loop_program();
        let target = TargetIsa::riscv_u74();
        let decoded = DecodedProgram::decode(&prog, &target).unwrap();

        let mut cpu_a = AtomicCpu::new(&target);
        let (mut mem_a, mut hier_a) = setup();
        let a = InterpEngine::new(&prog)
            .run_with_hook(
                &mut cpu_a,
                &mut mem_a,
                &mut hier_a,
                RunLimits::default(),
                &mut NoopHook,
            )
            .unwrap();

        let mut cpu_b = AtomicCpu::new(&target);
        let (mut mem_b, mut hier_b) = setup();
        let b = DecodedEngine::new(&decoded)
            .run_with_hook(
                &mut cpu_b,
                &mut mem_b,
                &mut hier_b,
                RunLimits::default(),
                &mut NoopHook,
            )
            .unwrap();

        assert_eq!(a, b);
        assert_eq!(cpu_a.gpr(Gpr(2)), 45);
        assert_eq!(cpu_b.gpr(Gpr(2)), 45);
    }

    #[test]
    fn decoded_engine_surfaces_inst_limit() {
        let prog = loop_program();
        let target = TargetIsa::riscv_u74();
        let decoded = DecodedProgram::decode(&prog, &target).unwrap();
        let mut cpu = AtomicCpu::new(&target);
        let (mut mem, mut hier) = setup();
        let err = DecodedEngine::new(&decoded)
            .run_with_hook(
                &mut cpu,
                &mut mem,
                &mut hier,
                RunLimits { max_insts: 5 },
                &mut NoopHook,
            )
            .unwrap_err();
        assert_eq!(err, SimError::InstLimitExceeded { limit: 5 });
    }

    #[test]
    fn decoded_prefix_stops_cleanly_and_matches() {
        let prog = loop_program();
        let target = TargetIsa::riscv_u74();
        let decoded = DecodedProgram::decode(&prog, &target).unwrap();

        let mut cpu = AtomicCpu::new(&target);
        let (mut mem, mut hier) = setup();
        let (stats, completed) = DecodedEngine::new(&decoded)
            .run_prefix_with_hook(
                &mut cpu,
                &mut mem,
                &mut hier,
                RunLimits::default(),
                10,
                &mut NoopHook,
            )
            .unwrap();
        assert!(!completed);
        assert_eq!(stats.inst_mix.total(), 10);

        let mut cpu = AtomicCpu::new(&target);
        let (mut mem, mut hier) = setup();
        let (interp, completed_i) = InterpEngine::new(&prog)
            .run_prefix_with_hook(
                &mut cpu,
                &mut mem,
                &mut hier,
                RunLimits::default(),
                10,
                &mut NoopHook,
            )
            .unwrap();
        assert!(!completed_i);
        assert_eq!(stats, interp);
    }

    #[test]
    fn fetch_addresses_follow_encoding_width() {
        let prog = loop_program();
        let target = TargetIsa::riscv_u74();
        let decoded = DecodedProgram::decode(&prog, &target).unwrap();
        for (pc, op) in decoded.ops().iter().enumerate() {
            assert_eq!(op.fetch_addr, CODE_BASE + pc as u64 * target.inst_bytes);
        }
        assert_eq!(decoded.inst_bytes(), target.inst_bytes);
    }

    #[test]
    fn out_of_range_branch_is_rejected_at_decode_time() {
        // Hand-construct an invalid target by patching a built program's
        // clone is impossible (fields are private); instead assemble the
        // raw instruction sequence through the builder's escape hatch:
        // push a Jmp with a resolved-but-bogus target.
        let mut b = ProgramBuilder::new();
        b.push(Inst::Jmp { target: 99 });
        b.push(Inst::Halt);
        let prog = b.build().unwrap();
        let err = DecodedProgram::decode(&prog, &TargetIsa::riscv_u74()).unwrap_err();
        assert_eq!(
            err,
            SimError::InvalidPc {
                at: 0,
                target: 99,
                len: 2
            }
        );
        assert!(err.to_string().contains("outside"));
    }

    #[test]
    fn fall_through_past_end_is_rejected_at_decode_time() {
        // Terminator exists mid-program, but the last instruction is an
        // ALU op whose fall-through leaves the code segment.
        let mut b = ProgramBuilder::new();
        b.push(Inst::Halt);
        b.push(Inst::Li { rd: Gpr(1), imm: 1 });
        let prog = b.build().unwrap();
        let err = DecodedProgram::decode(&prog, &TargetIsa::riscv_u74()).unwrap_err();
        assert_eq!(
            err,
            SimError::InvalidPc {
                at: 1,
                target: 2,
                len: 2
            }
        );
    }

    #[test]
    fn mix_class_covers_every_instruction_kind() {
        assert_eq!(
            MixClass::of(&Inst::Li { rd: Gpr(0), imm: 0 }),
            MixClass::IntAlu
        );
        assert_eq!(
            MixClass::of(&Inst::Fli {
                fd: Fpr(0),
                imm: 0.0
            }),
            MixClass::FpAlu
        );
        assert_eq!(
            MixClass::of(&Inst::Flw {
                fd: Fpr(0),
                rs: Gpr(0),
                imm: 0
            }),
            MixClass::Load
        );
        assert_eq!(
            MixClass::of(&Inst::Fsw {
                fval: Fpr(0),
                rs: Gpr(0),
                imm: 0
            }),
            MixClass::Store
        );
        assert_eq!(MixClass::of(&Inst::Jmp { target: 0 }), MixClass::Branch);
        assert_eq!(MixClass::of(&Inst::Halt), MixClass::Other);
        assert_eq!(
            MixClass::of(&Inst::Mv {
                rd: Gpr(0),
                rs: Gpr(1)
            }),
            MixClass::Other
        );
    }
}
