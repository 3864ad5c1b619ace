//! Replay-engine selection: which run loop drives the [`AtomicCpu`].
//!
//! Two engines:
//!
//! 1. [`EngineKind::Interp`] — re-inspects the raw program each step;
//!    the reference oracle the differential suites compare against;
//! 2. [`EngineKind::Decoded`] — replays the pre-decoded µop array; the
//!    production engine.
//!
//! Both are observationally identical (same statistics, registers,
//! memory and hook event stream, bit for bit); the choice only moves
//! host time. [`EngineKind::run`] is the one place a run loop is
//! selected, so a new engine is one more variant and one more arm.

use crate::{AtomicCpu, DecodedProgram, ExecHook, Memory, Program, RunLimits, SimError, SimStats};
use simtune_cache::CacheHierarchy;
use std::fmt;

/// Names one replay engine. Carried by tuning sessions so every
/// simulation — and every memoization fingerprint — knows which engine
/// produced it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Re-decoding interpreter: the reference loop, right for one-shot
    /// runs where decoding would not amortize.
    Interp,
    /// Pre-decoded µop replay: the default.
    #[default]
    Decoded,
}

impl EngineKind {
    /// Every engine, reference oracle first.
    pub const ALL: [EngineKind; 2] = [EngineKind::Interp, EngineKind::Decoded];

    /// Stable lowercase name, used in CLI flags, perf summaries and
    /// memo fingerprints.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Interp => "interp",
            EngineKind::Decoded => "decoded",
        }
    }

    /// Parses a [`EngineKind::label`] back into the engine.
    pub fn parse(s: &str) -> Option<EngineKind> {
        EngineKind::ALL.into_iter().find(|e| e.label() == s)
    }

    /// Runs one program on this engine, reporting every event to `hook`.
    /// `decoded` must be the lowering of `prog` for the CPU's target
    /// ([`DecodedProgram::decode`]); the interpreter reads `prog`, the
    /// decoded loop reads `decoded`.
    ///
    /// With a `budget`, the run stops cleanly once that many
    /// instructions retired. Returns the statistics of what ran and
    /// whether the program ran to completion (always `true` without a
    /// budget) — the prefix is the primitive sampled simulation
    /// extrapolates from. [`RunLimits::max_insts`] still aborts the run
    /// with an error when it is lower than `budget`.
    ///
    /// # Errors
    ///
    /// * [`SimError::PcOutOfRange`] — the interpreter fell off the end
    ///   of the program (decoding rejects such programs up front).
    /// * [`SimError::InstLimitExceeded`] — `limits.max_insts` exhausted.
    /// * [`SimError::MemoryFault`] — access outside the address space.
    /// * [`SimError::UnknownSyscall`] — unimplemented `Ecall` code.
    #[allow(clippy::too_many_arguments)] // the run loops' operands plus the choice of loop
    pub fn run<H: ExecHook>(
        self,
        prog: &Program,
        decoded: &DecodedProgram,
        cpu: &mut AtomicCpu,
        mem: &mut Memory,
        hier: &mut CacheHierarchy,
        limits: RunLimits,
        budget: Option<u64>,
        hook: &mut H,
    ) -> Result<(SimStats, bool), SimError> {
        debug_assert_eq!(prog.len(), decoded.len(), "decoded is not prog's lowering");
        match self {
            EngineKind::Interp => cpu.run_inner(prog, mem, hier, limits, budget, hook),
            EngineKind::Decoded => cpu.run_decoded(decoded, mem, hier, limits, budget, hook),
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for e in EngineKind::ALL {
            assert_eq!(EngineKind::parse(e.label()), Some(e));
            assert_eq!(format!("{e}"), e.label());
        }
        assert_eq!(EngineKind::parse("jit"), None);
    }

    #[test]
    fn default_is_decoded() {
        assert_eq!(EngineKind::default(), EngineKind::Decoded);
    }
}
