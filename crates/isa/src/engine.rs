//! Replay-engine selection: which [`crate::ExecEngine`] drives a run.
//!
//! Two engines:
//!
//! 1. [`crate::InterpEngine`] — re-inspects the raw program each step;
//!    the reference oracle the differential suites compare against;
//! 2. [`crate::DecodedEngine`] — replays the pre-decoded µop array; the
//!    production engine.
//!
//! Both are observationally identical (same statistics, registers and
//! memory, bit for bit); the choice only moves host time.

use std::fmt;

/// Names one replay engine. Carried by tuning sessions so every
/// simulation — and every memoization fingerprint — knows which engine
/// produced it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Re-decoding interpreter ([`crate::InterpEngine`]): the reference
    /// loop, right for one-shot runs where decoding would not amortize.
    Interp,
    /// Pre-decoded µop replay ([`crate::DecodedEngine`]): the default.
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
