//! Pre-decoded execution: one-time lowering of a [`Program`] into a
//! dense µop array that the decoded run loop replays.
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
//! [`EngineKind::run`] picks the loop that drives the [`AtomicCpu`]:
//!
//! * [`EngineKind::Interp`] — the original loop: re-inspects the raw
//!   [`Program`] on every retirement. Kept as the reference
//!   implementation and for one-shot runs where decoding would not
//!   amortize ([`AtomicCpu::run`]).
//! * [`EngineKind::Decoded`] — replays a [`DecodedProgram`];
//!   per-retirement work is a single indexed load of the µop. The
//!   production engine.
//!
//! Both loops share the single-instruction semantic core, so their
//! architectural results, [`SimStats`] and hook event streams are
//! bit-identical by construction — a property pinned down by the
//! differential property suite in `tests/`.
//!
//! # Example
//!
//! ```
//! use simtune_cache::{CacheHierarchy, HierarchyConfig};
//! use simtune_isa::{
//!     AtomicCpu, DecodedProgram, EngineKind, Gpr, Inst, Memory, NoopHook, ProgramBuilder,
//!     RunLimits, TargetIsa,
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
//! for _ in 0..3 {
//!     // replay many times
//!     let mut cpu = AtomicCpu::new(&target);
//!     let mut mem = Memory::new();
//!     let mut hier = CacheHierarchy::new(HierarchyConfig::tiny_for_tests());
//!     let (stats, completed) = EngineKind::Decoded.run(
//!         &prog,
//!         &decoded,
//!         &mut cpu,
//!         &mut mem,
//!         &mut hier,
//!         RunLimits::default(),
//!         None,
//!         &mut NoopHook,
//!     )?;
//!     assert!(completed);
//!     assert_eq!(stats.inst_mix.total(), 3);
//!     assert_eq!(cpu.gpr(Gpr(1)), 42);
//! }
//! # Ok(())
//! # }
//! ```

#[cfg(doc)]
use crate::{AtomicCpu, EngineKind, InstMix, SimStats};
use crate::{Inst, Program, SimError, TargetIsa, CODE_BASE};

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
/// [`EngineKind::Decoded`] loop executes.
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
/// [`EngineKind::run`]. Decoding is target-specific only through the
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        AtomicCpu, EngineKind, Fpr, Gpr, Memory, NoopHook, ProgramBuilder, RunLimits, SimStats,
    };
    use simtune_cache::{CacheHierarchy, HierarchyConfig};

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

    /// Runs `prog` on `engine` from cold state; returns the run's result
    /// and the final CPU.
    fn run(
        engine: EngineKind,
        prog: &Program,
        limits: RunLimits,
        budget: Option<u64>,
    ) -> (Result<(SimStats, bool), SimError>, AtomicCpu) {
        let target = TargetIsa::riscv_u74();
        let decoded = DecodedProgram::decode(prog, &target).unwrap();
        let mut cpu = AtomicCpu::new(&target);
        let mut mem = Memory::new();
        let mut hier = CacheHierarchy::new(HierarchyConfig::tiny_for_tests());
        let out = engine.run(
            prog,
            &decoded,
            &mut cpu,
            &mut mem,
            &mut hier,
            limits,
            budget,
            &mut NoopHook,
        );
        (out, cpu)
    }

    #[test]
    fn decoded_engine_matches_interpreter_exactly() {
        let prog = loop_program();
        let (a, cpu_a) = run(EngineKind::Interp, &prog, RunLimits::default(), None);
        let (b, cpu_b) = run(EngineKind::Decoded, &prog, RunLimits::default(), None);
        assert_eq!(a.unwrap(), b.unwrap());
        assert_eq!(cpu_a.gpr(Gpr(2)), 45);
        assert_eq!(cpu_b.gpr(Gpr(2)), 45);
    }

    #[test]
    fn decoded_engine_surfaces_inst_limit() {
        let prog = loop_program();
        let (err, _) = run(EngineKind::Decoded, &prog, RunLimits { max_insts: 5 }, None);
        assert_eq!(err.unwrap_err(), SimError::InstLimitExceeded { limit: 5 });
    }

    #[test]
    fn decoded_prefix_stops_cleanly_and_matches() {
        let prog = loop_program();
        let (decoded, _) = run(EngineKind::Decoded, &prog, RunLimits::default(), Some(10));
        let (stats, completed) = decoded.unwrap();
        assert!(!completed);
        assert_eq!(stats.inst_mix.total(), 10);

        let (interp, _) = run(EngineKind::Interp, &prog, RunLimits::default(), Some(10));
        let (interp, completed_i) = interp.unwrap();
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
