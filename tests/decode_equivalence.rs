//! Differential property suite: every replay engine must be
//! observationally identical to the re-decoding interpreter.
//!
//! Full-run equivalence is asserted through the shared differential
//! harness ([`simtune::core::diffharness::DiffHarness`]) so the
//! observable-state comparison (stats, register files, memory image,
//! error identity) lives in exactly one place — the same matrix the
//! `torture_fuzz` gate runs. Random flat-loop programs from the local
//! generator and seeded mini-torture programs ([`torture_program_with`])
//! both go through the whole engine × fidelity × `n_parallel` matrix.
//!
//! Prefix-budget equivalence (engines stopping at the same retirement
//! with identical partial state) and the [`ExecHook`] event stream
//! (every callback, its arguments and their order — the contract the
//! timing tiers rely on) are not harness dimensions, so those
//! properties keep their local run/capture machinery. Floats are
//! compared through their bit patterns so NaN-producing programs
//! (e.g. `fdiv 0/0`) still compare exactly.
//!
//! `PROPTEST_CASES` scales every property's case count (the vendored
//! proptest has no env support of its own) — CI's engine-equivalence
//! step raises it well above the local default.

use proptest::prelude::*;
use simtune::cache::{CacheHierarchy, HierarchyConfig, ServicedBy};
use simtune::core::diffharness::DiffHarness;
use simtune::isa::{
    AtomicCpu, DecodedProgram, EngineKind, ExecHook, Executable, Fpr, Gpr, Inst, Memory, NoopHook,
    Program, ProgramBuilder, RunLimits, SimError, SimStats, TargetIsa, TortureConfig, Vr,
    DATA_BASE,
};
use std::sync::OnceLock;

/// Bytes of the data window the generated programs read and write.
const DATA_WINDOW: u64 = 2048;

/// Pure core of [`cases`]: resolves a property's case count from an
/// (optional) environment override, falling back to `default` when the
/// override is absent or not a number.
fn cases_from(env: Option<&str>, default: u32) -> u32 {
    env.and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Case count for one property: the `PROPTEST_CASES` environment
/// variable when set (CI's equivalence step raises it), `default`
/// otherwise.
fn cases(default: u32) -> u32 {
    cases_from(std::env::var("PROPTEST_CASES").ok().as_deref(), default)
}

#[test]
fn cases_env_override_parses_numbers_and_ignores_garbage() {
    assert_eq!(cases_from(None, 48), 48);
    assert_eq!(cases_from(Some("1024"), 48), 1024);
    assert_eq!(cases_from(Some("0x40"), 48), 48, "hex is not accepted");
    assert_eq!(cases_from(Some(""), 48), 48);
    assert_eq!(cases_from(Some("lots"), 48), 48);
    assert_eq!(cases_from(Some("-3"), 48), 48, "case counts are unsigned");
    assert_eq!(cases_from(Some(" 12"), 48), 48, "no whitespace trimming");
}

#[test]
fn cases_reads_the_process_environment() {
    // Reads the real environment without writing it: the properties
    // below run concurrently and read the same variable, so setting it
    // here would silently cut an elevated `PROPTEST_CASES` run down to
    // the sentinel.
    let env = std::env::var("PROPTEST_CASES").ok();
    assert_eq!(cases(48), cases_from(env.as_deref(), 48));
}

/// One harness for the whole suite; its pooled worker sessions are the
/// expensive part and every property reuses them.
fn harness() -> &'static DiffHarness {
    static H: OnceLock<DiffHarness> = OnceLock::new();
    H.get_or_init(DiffHarness::tiny)
}

/// Runs `exe` through the shared differential matrix and fails with the
/// full mismatch report on any divergence.
fn assert_matrix_agrees(exe: &Executable) {
    let (combos, _faulted, divs) = harness().diff_executable(exe);
    assert!(
        divs.is_empty(),
        "{} diverged:\n{}",
        exe.name,
        divs.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(combos, 20, "{}: differential matrix shrank", exe.name);
}

/// The deterministic data image backing seed `seed`: distinct,
/// reproducible f32 words filling the window (`seed == 0` = cold zeroes,
/// matching the legacy properties).
fn window_words(seed: u64) -> Vec<f32> {
    (0..DATA_WINDOW / 4)
        .map(|i| {
            if seed == 0 {
                return 0.0;
            }
            let x = (seed ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((x >> 40) as i64 - (1 << 23)) as f32 / 256.0
        })
        .collect()
}

/// Builds a terminating random program from raw entropy words: a fixed
/// preamble (r1 = DATA_BASE, loop bounds), one generated instruction per
/// word inside a counted loop, and a `Halt`.
fn build_program(words: &[u64], iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    b.push(Inst::Li {
        rd: Gpr(1),
        imm: DATA_BASE as i64,
    });
    b.push(Inst::Li {
        rd: Gpr(30),
        imm: 0,
    });
    b.push(Inst::Li {
        rd: Gpr(31),
        imm: iters,
    });
    let top = b.bind_new_label();
    for &w in words {
        push_random_inst(&mut b, w);
    }
    b.push(Inst::Addi {
        rd: Gpr(30),
        rs: Gpr(30),
        imm: 1,
    });
    b.branch_lt(Gpr(30), Gpr(31), top);
    b.push(Inst::Halt);
    b.build().expect("generated program is structurally valid")
}

/// Derives one instruction from an entropy word. Scratch registers are
/// r2..r9 / f0..f7 / v1..v5; r1 (data base) and r30/r31 (loop) are never
/// written, so memory accesses always stay inside the data window.
fn push_random_inst(b: &mut ProgramBuilder, w: u64) {
    let g = |n: u64| Gpr(2 + (n % 8) as u8);
    let f = |n: u64| Fpr((n % 8) as u8);
    let v = |n: u64| Vr(1 + (n % 5) as u8);
    // Word-aligned offset leaving room for the widest (8-lane) access.
    let off = |n: u64| (4 * (n % ((DATA_WINDOW - 32) / 4))) as i64;
    let a = w >> 8;
    let b2 = w >> 20;
    let c = w >> 32;
    match w % 24 {
        0 => {
            b.push(Inst::Li {
                rd: g(a),
                imm: (b2 % 1000) as i64 - 500,
            });
        }
        1 => {
            b.push(Inst::Addi {
                rd: g(a),
                rs: g(b2),
                imm: (c % 64) as i64 - 32,
            });
        }
        2 => {
            b.push(Inst::Add {
                rd: g(a),
                rs1: g(b2),
                rs2: g(c),
            });
        }
        3 => {
            b.push(Inst::Sub {
                rd: g(a),
                rs1: g(b2),
                rs2: g(c),
            });
        }
        4 => {
            b.push(Inst::Mul {
                rd: g(a),
                rs1: g(b2),
                rs2: g(c),
            });
        }
        5 => {
            b.push(Inst::Slli {
                rd: g(a),
                rs: g(b2),
                shamt: (c % 8) as u8,
            });
        }
        6 => {
            b.push(Inst::Mv {
                rd: g(a),
                rs: g(b2),
            });
        }
        7 => {
            b.push(Inst::Ld {
                rd: g(a),
                rs: Gpr(1),
                imm: off(b2) & !7,
            });
        }
        8 => {
            b.push(Inst::Sd {
                rval: g(a),
                rs: Gpr(1),
                imm: off(b2) & !7,
            });
        }
        9 => {
            b.push(Inst::Fli {
                fd: f(a),
                imm: (b2 % 4096) as f32 / 16.0 - 128.0,
            });
        }
        10 => {
            b.push(Inst::Flw {
                fd: f(a),
                rs: Gpr(1),
                imm: off(b2),
            });
        }
        11 => {
            b.push(Inst::Fsw {
                fval: f(a),
                rs: Gpr(1),
                imm: off(b2),
            });
        }
        12 => {
            b.push(Inst::Fadd {
                fd: f(a),
                fs1: f(b2),
                fs2: f(c),
            });
        }
        13 => {
            b.push(Inst::Fmul {
                fd: f(a),
                fs1: f(b2),
                fs2: f(c),
            });
        }
        14 => {
            b.push(Inst::Fmadd {
                fd: f(a),
                fs1: f(b2),
                fs2: f(c),
                fs3: f(w >> 44),
            });
        }
        15 => {
            b.push(Inst::Fdiv {
                fd: f(a),
                fs1: f(b2),
                fs2: f(c),
            });
        }
        16 => {
            b.push(Inst::Fcvt {
                fd: f(a),
                rs: g(b2),
            });
        }
        17 => {
            b.push(Inst::Vsplat {
                vd: v(a),
                imm: (b2 % 256) as f32 / 4.0,
            });
        }
        18 => {
            b.push(Inst::Vload {
                vd: v(a),
                rs: Gpr(1),
                imm: off(b2),
            });
        }
        19 => {
            b.push(Inst::Vstore {
                vval: v(a),
                rs: Gpr(1),
                imm: off(b2),
            });
        }
        20 => {
            b.push(Inst::Vfma {
                vd: v(a),
                vs1: v(b2),
                vs2: v(c),
            });
        }
        21 => {
            b.push(Inst::Vredsum {
                fd: f(a),
                vs: v(b2),
            });
        }
        22 => {
            // Branch whose target is the next instruction: taken and
            // not-taken paths converge, exercising both outcomes of the
            // conditional-branch machinery without diverging control.
            let next = b.new_label();
            b.branch_ne(g(a), g(b2), next);
            b.bind(next);
        }
        _ => {
            let next = b.new_label();
            b.jump(next);
            b.bind(next);
        }
    }
}

struct RunOutput {
    stats: SimStats,
    completed: bool,
    gprs: Vec<i64>,
    fpr_bits: Vec<u32>,
    vr_bits: Vec<Vec<u32>>,
    mem_bits: Vec<u32>,
}

fn capture(stats: SimStats, completed: bool, cpu: &AtomicCpu, mem: &Memory) -> RunOutput {
    RunOutput {
        stats,
        completed,
        gprs: (0..32).map(|r| cpu.gpr(Gpr(r))).collect(),
        fpr_bits: (0..32).map(|r| cpu.fpr(Fpr(r)).to_bits()).collect(),
        vr_bits: (0..32)
            .map(|r| cpu.vr(Vr(r)).iter().map(|x| x.to_bits()).collect())
            .collect(),
        mem_bits: mem
            .read_f32_slice(DATA_BASE, (DATA_WINDOW / 4) as usize)
            .expect("window readable")
            .into_iter()
            .map(f32::to_bits)
            .collect(),
    }
}

/// Runs `exe` on one engine from cold state (its data segments loaded)
/// with an optional prefix budget, reporting every event to `hook`.
fn run_engine<H: ExecHook>(
    engine: EngineKind,
    exe: &Executable,
    decoded: &DecodedProgram,
    budget: Option<u64>,
    hook: &mut H,
) -> Result<RunOutput, SimError> {
    let mut cpu = AtomicCpu::new(&exe.target);
    let mut mem = Memory::new();
    for (base, values) in &exe.data_segments {
        mem.write_f32_slice(*base, values)?;
    }
    let mut hier = CacheHierarchy::new(HierarchyConfig::tiny_for_tests());
    let (stats, completed) = engine.run(
        &exe.program,
        decoded,
        &mut cpu,
        &mut mem,
        &mut hier,
        RunLimits::default(),
        budget,
        hook,
    )?;
    Ok(capture(stats, completed, &cpu, &mem))
}

/// One [`ExecHook`] callback with its arguments.
#[derive(Debug, Clone, PartialEq)]
enum Event {
    Fetch(usize, ServicedBy),
    Data(u64, bool, ServicedBy),
    Branch(usize, usize, bool),
    Retire(Inst),
}

/// Logs every callback, in order.
#[derive(Default)]
struct Recorder(Vec<Event>);

impl ExecHook for Recorder {
    fn on_fetch(&mut self, pc: usize, serviced: ServicedBy) {
        self.0.push(Event::Fetch(pc, serviced));
    }

    fn on_retire(&mut self, inst: &Inst) {
        self.0.push(Event::Retire(*inst));
    }

    fn on_data_access(
        &mut self,
        line_addr: u64,
        is_store: bool,
        serviced: ServicedBy,
        _hier: &mut CacheHierarchy,
    ) {
        self.0.push(Event::Data(line_addr, is_store, serviced));
    }

    fn on_branch(&mut self, pc: usize, target: usize, taken: bool) {
        self.0.push(Event::Branch(pc, target, taken));
    }
}

/// Records `exe`'s event stream on one engine, plus the run's outcome
/// (statistics and completion, or the fault).
fn record(
    engine: EngineKind,
    exe: &Executable,
    decoded: &DecodedProgram,
    budget: Option<u64>,
) -> (Vec<Event>, Result<(SimStats, bool), SimError>) {
    let mut hook = Recorder::default();
    let out = run_engine(engine, exe, decoded, budget, &mut hook).map(|o| (o.stats, o.completed));
    (hook.0, out)
}

/// Both engines raise the same event stream — full run, and a prefix of
/// `budget_percent` of the full run's retirements — with the same
/// outcome. Faulting programs compare up to and including the fault.
fn assert_event_streams_agree(exe: &Executable, budget_percent: u64) {
    let decoded = exe.decode().expect("decodes");
    let (full, _) = record(EngineKind::Interp, exe, &decoded, None);
    let retired = full
        .iter()
        .filter(|e| matches!(e, Event::Retire(_)))
        .count() as u64;
    let budget = (retired * budget_percent / 100).max(1);
    for budget in [None, Some(budget)] {
        let (interp_events, interp_out) = record(EngineKind::Interp, exe, &decoded, budget);
        let (decoded_events, decoded_out) = record(EngineKind::Decoded, exe, &decoded, budget);
        assert!(
            !interp_events.is_empty(),
            "{}: no events recorded",
            exe.name
        );
        if let Some(at) = interp_events
            .iter()
            .zip(&decoded_events)
            .position(|(a, b)| a != b)
        {
            panic!(
                "{} (budget {budget:?}): event {at} diverged: interp {:?}, decoded {:?}",
                exe.name, interp_events[at], decoded_events[at]
            );
        }
        assert_eq!(
            interp_events.len(),
            decoded_events.len(),
            "{} (budget {budget:?}): event streams differ in length",
            exe.name
        );
        assert_eq!(interp_out, decoded_out, "{} (budget {budget:?})", exe.name);
    }
}

fn assert_outputs_identical(a: &RunOutput, b: &RunOutput) {
    assert_eq!(a.stats, b.stats, "SimStats must be byte-identical");
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.gprs, b.gprs, "integer register files diverged");
    assert_eq!(a.fpr_bits, b.fpr_bits, "float register files diverged");
    assert_eq!(a.vr_bits, b.vr_bits, "vector register files diverged");
    assert_eq!(a.mem_bits, b.mem_bits, "memory images diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(48)))]

    /// Random flat-loop programs through the shared differential matrix:
    /// every engine's full observable state vs the interpreter, every
    /// fidelity tier's contract vs accurate, and pooled multi-worker
    /// sessions (whose 3-trial batches run divergent per-lane data
    /// images) vs direct single-threaded runs.
    #[test]
    fn random_programs_agree_across_the_full_matrix(
        words in prop::collection::vec(0u64..u64::MAX, 4..40),
        iters in 1i64..8,
        target_sel in 0usize..3,
        data_seed in any::<u64>(),
    ) {
        let target = TargetIsa::paper_targets()[target_sel].clone();
        let prog = build_program(&words, iters);
        let decoded = DecodedProgram::decode(&prog, &target).expect("decodes");
        prop_assert_eq!(decoded.len(), prog.len());
        let exe = Executable::new("prop-random", prog, target)
            .with_segment(DATA_BASE, window_words(data_seed));
        assert_matrix_agrees(&exe);
    }

    /// Mini-torture programs (nested loops, irregular forward branches,
    /// guarded fault sites) through the same matrix — the proptest twin
    /// of the `torture_fuzz` gate.
    #[test]
    fn torture_programs_agree_across_the_full_matrix(seed in any::<u64>()) {
        let exe = DiffHarness::make_executable(
            "prop",
            &TortureConfig::baseline(),
            seed,
            seed ^ 0x5EED_DA7A,
        );
        assert_matrix_agrees(&exe);
    }

    /// Prefix runs: decoded replay stops at the same retirement as the
    /// interpreter with the same partial state, for budgets below and
    /// above the full length.
    #[test]
    fn decoded_prefix_runs_match_interpreter(
        words in prop::collection::vec(0u64..u64::MAX, 4..24),
        iters in 2i64..6,
        budget_percent in 5u64..150,
    ) {
        let exe = Executable::new(
            "prop-prefix",
            build_program(&words, iters),
            TargetIsa::arm_cortex_a72(),
        );
        let decoded = exe.decode().expect("decodes");
        let run = |engine, budget| {
            run_engine(engine, &exe, &decoded, budget, &mut NoopHook).expect("run succeeds")
        };

        let full = run(EngineKind::Interp, None);
        let total = full.stats.inst_mix.total();
        let budget = (total * budget_percent / 100).max(1);

        let interp = run(EngineKind::Interp, Some(budget));
        let fast = run(EngineKind::Decoded, Some(budget));
        assert_outputs_identical(&interp, &fast);
        prop_assert_eq!(interp.completed, budget_percent >= 100);
    }

    /// The hook event stream — every `on_fetch`, `on_data_access`,
    /// `on_branch` and `on_retire` with its arguments, in order — is
    /// identical on both engines for random flat-loop programs, full
    /// runs and prefix runs alike.
    #[test]
    fn hook_event_streams_match_across_engines(
        words in prop::collection::vec(0u64..u64::MAX, 4..40),
        iters in 1i64..8,
        target_sel in 0usize..3,
        data_seed in any::<u64>(),
        budget_percent in 5u64..150,
    ) {
        let target = TargetIsa::paper_targets()[target_sel].clone();
        let exe = Executable::new("prop-events", build_program(&words, iters), target)
            .with_segment(DATA_BASE, window_words(data_seed));
        assert_event_streams_agree(&exe, budget_percent);
    }

    /// The same event-stream contract on mini-torture programs, whose
    /// nested loops, irregular branches and guarded faults reach the
    /// control-flow shapes flat loops do not.
    #[test]
    fn torture_hook_event_streams_match_across_engines(
        seed in any::<u64>(),
        budget_percent in 5u64..150,
    ) {
        let exe = DiffHarness::make_executable(
            "prop-events",
            &TortureConfig::baseline(),
            seed,
            seed ^ 0x5EED_DA7A,
        );
        assert_event_streams_agree(&exe, budget_percent);
    }
}
