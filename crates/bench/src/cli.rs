//! Minimal flag parsing shared by the experiment binaries (no external
//! CLI dependency).

use crate::Scale;
use simtune_core::{EngineKind, FidelitySpec, StrategySpec};

/// Fidelity mode of the tuning loop the sweep binaries drive.
///
/// The sweep either pins every trial to one [`FidelitySpec`] tier
/// (`Tier`) or runs one of the two escalation policies (`TopK`,
/// `Predicted`) that mix a cheap exploration tier with accurate
/// re-simulation. `--fidelity` therefore accepts the policy names
/// *plus* the whole spec grammar: `--fidelity pipelined:btb=64,ras=4`
/// sweeps with top-k escalation exploring on the pipelined tier.
#[derive(Debug, Clone, PartialEq)]
pub enum FidelityMode {
    /// Candidates explore on the named [`FidelitySpec`] tier; any tier
    /// other than `accurate` re-simulates the static top-k finalists
    /// accurately. `Tier(FidelitySpec::Accurate)` is the default.
    Tier(FidelitySpec),
    /// Cheap exploration, then the static top-k finalists re-simulate
    /// accurately (`EscalationPolicy::TopK`).
    TopK,
    /// The learned tier: uncertainty-driven active-learning escalation
    /// over a `PredictedBackend` (`EscalationPolicy::Uncertainty`).
    Predicted,
}

impl FidelityMode {
    /// Parses the `--fidelity` values: the escalation-policy names
    /// `topk|top-k|predicted`, or any [`FidelitySpec`] string
    /// (`accurate`, `fast-count`, `sampled:fraction=0.3`,
    /// `pipelined:btb=512,ras=8`, ...).
    pub fn parse(s: &str) -> Option<FidelityMode> {
        match s {
            "topk" | "top-k" => Some(FidelityMode::TopK),
            "predicted" => Some(FidelityMode::Predicted),
            spec => spec.parse::<FidelitySpec>().ok().map(FidelityMode::Tier),
        }
    }

    /// Stable label for logs and provenance lines (the spec digest for
    /// `Tier` modes).
    pub fn label(&self) -> String {
        match self {
            FidelityMode::Tier(spec) => spec.digest(),
            FidelityMode::TopK => "topk".into(),
            FidelityMode::Predicted => "predicted".into(),
        }
    }
}

impl Default for FidelityMode {
    fn default() -> Self {
        FidelityMode::Tier(FidelitySpec::Accurate)
    }
}

/// Parsed command-line arguments with the defaults used throughout the
/// experiment suite.
#[derive(Debug, Clone)]
pub struct Args {
    /// Target architectures to run ("x86", "arm", "riscv").
    pub archs: Vec<String>,
    /// Workload scale.
    pub scale: Scale,
    /// Implementations per group.
    pub impls: usize,
    /// Test-set size per group.
    pub test_count: usize,
    /// Random train/test split repetitions.
    pub rounds: usize,
    /// Parallel simulator instances.
    pub n_parallel: usize,
    /// Base seed.
    pub seed: u64,
    /// Search strategy for the tuning binaries
    /// (`random|grid|hill|evolutionary|annealing`), or `None` to sweep
    /// every built-in strategy.
    pub strategy: Option<StrategySpec>,
    /// Ignore cached datasets and recollect.
    pub refresh: bool,
    /// Optional output directory for CSV artifacts.
    pub out_dir: Option<String>,
    /// Emit a machine-readable JSON summary on stdout instead of the
    /// human tables (supported by the sweep binaries; the perf-smoke CI
    /// job and local perf runs share this one format).
    pub json: bool,
    /// Warm the simulation memo cache from this snapshot before the run
    /// (missing or corrupt snapshots degrade to a cold start).
    pub load_cache: Option<String>,
    /// Save the simulation memo cache to this snapshot after the run
    /// (written atomically; see `simtune_core::atomic_write`).
    pub save_cache: Option<String>,
    /// Fidelity mode for the tuning sweeps (`--fidelity <spec>` with
    /// any [`FidelitySpec`] string, or `topk|predicted` for the
    /// escalation policies).
    pub fidelity: FidelityMode,
    /// Replay engine for the tuning sweeps
    /// (`--engine interp|decoded`) — a pure host-speed
    /// knob, bit-identical results by the equivalence contract.
    pub engine: EngineKind,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            archs: vec!["x86".into(), "arm".into(), "riscv".into()],
            scale: Scale::Quarter,
            impls: 120,
            test_count: 30,
            rounds: 10,
            n_parallel: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(8),
            seed: 42,
            strategy: None,
            refresh: false,
            out_dir: None,
            json: false,
            load_cache: None,
            save_cache: None,
            fidelity: FidelityMode::default(),
            engine: EngineKind::default(),
        }
    }
}

/// One-line flag summary, printed after the program name under every
/// command-line error.
const USAGE: &str = "[--arch x86|arm|riscv|all[,...]] [--scale paper|half|quarter|smoke] \
[--impls N] [--test N] [--rounds N] [--parallel N] [--seed N] [--strategy NAME|all] \
[--fidelity topk|predicted|SPEC] [--engine interp|decoded] [--refresh] [--json] \
[--out DIR] [--load-cache PATH] [--save-cache PATH]";

impl Args {
    /// Parses `std::env::args()`-style flags:
    /// `--arch x86 --scale quarter --impls 120 --test 30 --rounds 10
    ///  --parallel 8 --seed 42 --strategy evolutionary --refresh
    ///  --json --out results/ --load-cache snap.json --save-cache snap.json`.
    ///
    /// # Errors
    ///
    /// Returns a one-line message on unknown flags, missing or bad
    /// values, `--help`, or `--test` not below `--impls`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        fn need(it: &mut dyn Iterator<Item = String>, flag: &str) -> Result<String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        }
        fn number<T: std::str::FromStr>(
            it: &mut dyn Iterator<Item = String>,
            flag: &str,
        ) -> Result<T, String> {
            let v = need(it, flag)?;
            v.parse()
                .map_err(|_| format!("{flag} needs a number, got {v:?}"))
        }
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--arch" => {
                    let v = need(&mut it, "--arch")?;
                    out.archs = if v == "all" {
                        Args::default().archs
                    } else {
                        v.split(',').map(|s| s.trim().to_string()).collect()
                    };
                }
                "--scale" => {
                    let v = need(&mut it, "--scale")?;
                    out.scale = Scale::parse(&v)
                        .ok_or_else(|| format!("unknown scale {v} (paper|half|quarter|smoke)"))?;
                }
                "--impls" => out.impls = number(&mut it, "--impls")?,
                "--test" => out.test_count = number(&mut it, "--test")?,
                "--rounds" => out.rounds = number(&mut it, "--rounds")?,
                "--parallel" => out.n_parallel = number(&mut it, "--parallel")?,
                "--seed" => out.seed = number(&mut it, "--seed")?,
                "--strategy" => {
                    let v = need(&mut it, "--strategy")?;
                    out.strategy = if v == "all" {
                        None
                    } else {
                        Some(v.parse().map_err(|e| format!("{e}"))?)
                    };
                }
                "--refresh" => out.refresh = true,
                "--json" => out.json = true,
                "--out" => out.out_dir = Some(need(&mut it, "--out")?),
                "--load-cache" => out.load_cache = Some(need(&mut it, "--load-cache")?),
                "--save-cache" => out.save_cache = Some(need(&mut it, "--save-cache")?),
                "--fidelity" => {
                    let v = need(&mut it, "--fidelity")?;
                    out.fidelity = FidelityMode::parse(&v).ok_or_else(|| {
                        format!(
                            "unknown fidelity {v} (topk | predicted | accurate | fast-count | \
                             sampled[:fraction=F] | pipelined[:btb=N,ras=N])"
                        )
                    })?;
                }
                "--engine" => {
                    let v = need(&mut it, "--engine")?;
                    out.engine = EngineKind::parse(&v)
                        .ok_or_else(|| format!("unknown engine {v} (interp|decoded)"))?;
                }
                "--help" | "-h" => return Err("help requested".into()),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if out.test_count >= out.impls {
            return Err("--test must be below --impls".into());
        }
        Ok(out)
    }

    /// Parses the process's real arguments (skipping `argv[0]`). On a
    /// parse error, prints it and a usage line to stderr and exits
    /// with status 2.
    pub fn from_env() -> Args {
        let mut argv = std::env::args();
        let program = argv.next().unwrap_or_default();
        Args::parse(argv).unwrap_or_else(|e| {
            let name = std::path::Path::new(&program)
                .file_name()
                .unwrap_or_default();
            eprintln!("{e}\nusage: {} {USAGE}", name.to_string_lossy());
            std::process::exit(2)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(|x| x.to_string()))
    }

    fn parse(s: &str) -> Args {
        try_parse(s).unwrap()
    }

    fn parse_err(s: &str) -> String {
        try_parse(s).unwrap_err()
    }

    #[test]
    fn defaults_are_sane() {
        let a = Args::default();
        assert_eq!(a.archs.len(), 3);
        assert!(a.test_count < a.impls);
    }

    #[test]
    fn parses_flags() {
        let a = parse(
            "--arch riscv --scale smoke --impls 40 --test 10 --rounds 3 --seed 7 --refresh --json",
        );
        assert_eq!(a.archs, vec!["riscv"]);
        assert_eq!(a.scale, Scale::Smoke);
        assert_eq!(a.impls, 40);
        assert_eq!(a.test_count, 10);
        assert_eq!(a.rounds, 3);
        assert_eq!(a.seed, 7);
        assert!(a.refresh);
        assert!(a.json);
        assert!(!parse("--seed 1").json, "json is opt-in");
    }

    #[test]
    fn fidelity_flag_parses_all_modes() {
        assert_eq!(
            parse("--seed 1").fidelity,
            FidelityMode::Tier(FidelitySpec::Accurate)
        );
        assert_eq!(parse("--fidelity topk").fidelity, FidelityMode::TopK);
        assert_eq!(parse("--fidelity top-k").fidelity, FidelityMode::TopK);
        assert_eq!(
            parse("--fidelity predicted").fidelity,
            FidelityMode::Predicted
        );
        assert_eq!(FidelityMode::Predicted.label(), "predicted");
    }

    #[test]
    fn fidelity_flag_accepts_the_full_spec_grammar() {
        assert_eq!(
            parse("--fidelity accurate").fidelity,
            FidelityMode::Tier(FidelitySpec::Accurate)
        );
        assert_eq!(
            parse("--fidelity fast-count").fidelity,
            FidelityMode::Tier(FidelitySpec::FastCount)
        );
        let a = parse("--fidelity pipelined:btb=64,ras=4");
        assert_eq!(
            a.fidelity,
            FidelityMode::Tier(FidelitySpec::Pipelined { btb: 64, ras: 4 })
        );
        assert_eq!(a.fidelity.label(), "pipelined:btb=64,ras=4");
        assert_eq!(
            parse("--fidelity sampled:fraction=0.25").fidelity.label(),
            "sampled:fraction=0.25"
        );
    }

    #[test]
    fn bad_fidelity_is_rejected() {
        assert!(parse_err("--fidelity exact").contains("unknown fidelity"));
    }

    #[test]
    fn engine_flag_parses_the_whole_ladder() {
        assert_eq!(parse("--seed 1").engine, EngineKind::Decoded);
        assert_eq!(parse("--engine interp").engine, EngineKind::Interp);
        assert_eq!(parse("--engine decoded").engine, EngineKind::Decoded);
        // Unknown engine labels are refused with the valid choices.
        for gone in ["threaded", "batch"] {
            let err = parse_err(&format!("--engine {gone}"));
            assert!(err.contains("(interp|decoded)"), "{err}");
        }
    }

    #[test]
    fn bad_engine_is_rejected() {
        assert!(parse_err("--engine jit").contains("unknown engine"));
    }

    #[test]
    fn cache_snapshot_flags_parse() {
        let a = parse("--load-cache warm.json --save-cache out.json");
        assert_eq!(a.load_cache.as_deref(), Some("warm.json"));
        assert_eq!(a.save_cache.as_deref(), Some("out.json"));
        let d = parse("--seed 1");
        assert!(d.load_cache.is_none() && d.save_cache.is_none());
    }

    #[test]
    fn arch_list_and_all() {
        assert_eq!(parse("--arch x86,arm").archs, vec!["x86", "arm"]);
        assert_eq!(parse("--arch all").archs.len(), 3);
    }

    #[test]
    fn strategy_flag_parses_names_and_all() {
        assert!(parse("--seed 1").strategy.is_none());
        assert!(parse("--strategy all").strategy.is_none());
        let s = parse("--strategy evolutionary").strategy.expect("parsed");
        assert_eq!(s.label(), "evolutionary");
        assert_eq!(
            parse("--strategy hill").strategy.expect("parsed").label(),
            "hill_climb"
        );
    }

    #[test]
    fn bad_strategy_is_rejected() {
        assert!(parse_err("--strategy bogus").contains("unknown strategy"));
    }

    #[test]
    fn unknown_flag_is_rejected() {
        assert!(parse_err("--bogus").contains("unknown flag"));
        assert!(parse_err("--help").contains("help"));
        assert!(parse_err("--impls ten").contains("--impls needs a number"));
        assert!(parse_err("--seed").contains("--seed needs a value"));
    }

    #[test]
    fn test_count_validated() {
        assert!(parse_err("--impls 10 --test 10").contains("--test must be below"));
    }
}
