//! End-to-end differential-harness suite: the whole scenario corpus
//! through the full engine × fidelity × parallelism matrix, plus the
//! shrinker acceptance criterion — an injected synthetic divergence
//! must delta-debug down to a repro of at most 16 instructions.

use simtune_cache::HierarchyConfig;
use simtune_core::diffharness::DiffHarness;
use simtune_core::{AccurateBackend, BackendError, Fidelity, SimBackend, SimReport};
use simtune_isa::{
    shrink_program, torture_program_with, Executable, Inst, RunLimits, TortureConfig,
};
use std::sync::OnceLock;

/// One harness for the whole suite: its six worker-pool sessions are
/// the expensive part, and every test reuses them.
fn harness() -> &'static DiffHarness {
    static H: OnceLock<DiffHarness> = OnceLock::new();
    H.get_or_init(DiffHarness::tiny)
}

#[test]
fn corpus_sweep_finds_no_divergence_across_the_matrix() {
    let mut faulted = 0u32;
    for (scenario, cfg) in TortureConfig::corpus() {
        for seed in 0..4 {
            let outcome = harness().run_case(scenario, &cfg, seed);
            assert!(
                outcome.passed(),
                "{scenario} seed {seed} diverged:\n{}",
                outcome
                    .divergences
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("\n")
            );
            // 20 = 1 engine diff + 5 tiers × 2 engines (incl. the
            // pipelined timing tier) + 3 sessions × 3 trials.
            assert_eq!(outcome.combos, 20, "{scenario} seed {seed}: matrix shrank");
            faulted += outcome.faulted as u32;
        }
    }
    // The fault-prone scenario must actually exercise the error-identity
    // half of the diff, not just the statistics half. Its fault sites
    // are guarded by data-dependent branches, so scan further seeds
    // until one trips.
    let (_, fault_cfg) = TortureConfig::corpus()
        .into_iter()
        .find(|(n, _)| *n == "fault-prone")
        .expect("corpus has a fault-prone scenario");
    for seed in 4..256 {
        if faulted > 0 {
            break;
        }
        let outcome = harness().run_case("fault-prone", &fault_cfg, seed);
        assert!(outcome.passed(), "fault-prone seed {seed} diverged");
        faulted += outcome.faulted as u32;
    }
    assert!(faulted > 0, "no case faulted — fault injection is dead");
}

#[test]
fn shrink_case_returns_none_when_nothing_diverges() {
    assert!(harness()
        .shrink_case("baseline", &TortureConfig::baseline(), 3)
        .is_none());
}

/// An accurate backend with a planted bug: whenever the program
/// contains a `Mul`, one retired-instruction counter is inflated. The
/// divergence is thus reachable from program *content*, which is what
/// the shrinker minimizes over.
struct MulCorruptingBackend {
    inner: AccurateBackend,
}

impl MulCorruptingBackend {
    fn new() -> Self {
        MulCorruptingBackend {
            inner: AccurateBackend::new(HierarchyConfig::tiny_for_tests()),
        }
    }

    fn corrupt(&self, exe: &Executable, mut report: SimReport) -> SimReport {
        if exe
            .program
            .insts()
            .iter()
            .any(|i| matches!(i, Inst::Mul { .. }))
        {
            report.stats.inst_mix.int_alu += 1;
        }
        report
    }
}

impl SimBackend for MulCorruptingBackend {
    fn name(&self) -> &str {
        "accurate-with-planted-bug"
    }

    fn fidelity(&self) -> Fidelity {
        Fidelity::Accurate
    }

    fn run_one(&self, exe: &Executable, limits: &RunLimits) -> Result<SimReport, BackendError> {
        self.inner
            .run_one(exe, limits)
            .map(|r| self.corrupt(exe, r))
    }

    fn run_one_decoded_on(
        &self,
        exe: &Executable,
        decoded: &simtune_isa::DecodedProgram,
        limits: &RunLimits,
        engine: simtune_isa::EngineKind,
    ) -> Result<SimReport, BackendError> {
        self.inner
            .run_one_decoded_on(exe, decoded, limits, engine)
            .map(|r| self.corrupt(exe, r))
    }
}

#[test]
fn shrinker_reduces_injected_divergence_to_a_tiny_repro() {
    let harness = harness();
    let reference = AccurateBackend::new(HierarchyConfig::tiny_for_tests());
    let buggy = MulCorruptingBackend::new();
    let engine = simtune_isa::EngineKind::Decoded;

    // Find a torture case that trips the planted bug (contains a Mul
    // and completes). The baseline corpus is Mul-rich, so the first
    // seeds suffice.
    let (exe, original_len) = (0..32)
        .find_map(|seed| {
            let prog = torture_program_with(&TortureConfig::baseline(), seed);
            let len = prog.len();
            let exe = DiffHarness::make_executable("baseline", &TortureConfig::baseline(), seed, 7);
            (!harness
                .diff_backend_pair(&reference, &buggy, &exe, engine)
                .is_empty())
            .then_some((exe, len))
        })
        .expect("some baseline seed must trip the planted Mul bug");
    assert!(
        original_len > 16,
        "witness program already tiny ({original_len} insts) — not a shrink test"
    );

    let shrunk = shrink_program(&exe.program, |candidate| {
        let cand = Executable {
            program: candidate.clone(),
            ..exe.clone()
        };
        !harness
            .diff_backend_pair(&reference, &buggy, &cand, engine)
            .is_empty()
    });

    // The acceptance bar: a minimal repro of at most 16 instructions
    // that still diverges.
    assert!(
        shrunk.len() <= 16,
        "shrinker left {} of {} instructions",
        shrunk.len(),
        original_len
    );
    let still = Executable {
        program: shrunk.clone(),
        ..exe.clone()
    };
    assert!(
        !harness
            .diff_backend_pair(&reference, &buggy, &still, engine)
            .is_empty(),
        "shrunk program no longer diverges:\n{}",
        shrunk.disassemble()
    );
    assert!(
        shrunk.insts().iter().any(|i| matches!(i, Inst::Mul { .. })),
        "minimal repro lost the triggering opcode"
    );
}
