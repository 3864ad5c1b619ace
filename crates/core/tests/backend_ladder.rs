//! Backend fidelity-ladder contracts on the torture corpus.
//!
//! The tiers' stated relationships to [`AccurateBackend`], pinned over
//! structured torture programs (loop nests, irregular branches,
//! pathological strides — not just well-behaved kernels):
//!
//! * [`FastCountBackend`]: the retired-instruction mix and the
//!   line-granular fetch/access *totals* are bit-identical to accurate;
//!   only the hit/miss split is absent.
//! * [`SampledBackend`] at fraction 1.0: statistics equal accurate's
//!   exactly (wall time aside) and nothing is flagged extrapolated.
//! * [`SampledBackend`] at a partial fraction: the prefix is simulated
//!   exactly like an accurate prefix run of the same budget, the
//!   linear extrapolation is reproducible bit-for-bit from that
//!   prefix, and `extrapolated` is flagged precisely when the prefix
//!   did not cover the run.
//! * [`PipelinedBackend`]: architectural statistics identical to the
//!   interp reference on every corpus scenario, and the extra
//!   [`simtune_core::CycleBreakdown`] byte-identical across replay
//!   engines and `n_parallel` 1/2/4.

use simtune_cache::HierarchyConfig;
use simtune_core::diffharness::DiffHarness;
use simtune_core::{
    AccurateBackend, FastCountBackend, FidelitySpec, PipelinedBackend, SampledBackend, SimBackend,
    SimSession, DEFAULT_BTB_ENTRIES, DEFAULT_RAS_DEPTH,
};
use simtune_isa::{EngineKind, RunLimits, TortureConfig};

fn hier() -> HierarchyConfig {
    HierarchyConfig::tiny_for_tests()
}

/// (executable, decoded) torture pairs across the corpus; skips seeds
/// whose programs fault (fault agreement is the diffharness suite's
/// job — here we compare statistics of completed runs).
fn corpus_cases() -> Vec<(String, simtune_isa::Executable, simtune_isa::DecodedProgram)> {
    let accurate = AccurateBackend::new(hier());
    let mut cases = Vec::new();
    for (name, cfg) in TortureConfig::corpus() {
        for seed in 0..6 {
            let exe = DiffHarness::make_executable(name, &cfg, seed, seed + 17);
            let decoded = exe.decode().expect("torture programs decode");
            if accurate
                .run_one_decoded(&exe, &decoded, &RunLimits::default())
                .is_ok()
            {
                cases.push((format!("{name}/{seed}"), exe, decoded));
            }
        }
    }
    assert!(cases.len() > 40, "corpus sweep too small: {}", cases.len());
    cases
}

#[test]
fn fast_count_matches_accurate_instruction_and_access_totals() {
    let accurate = AccurateBackend::new(hier());
    let fast = FastCountBackend::matching(&hier());
    let limits = RunLimits::default();
    for (ctx, exe, decoded) in corpus_cases() {
        let a = accurate.run_one_decoded(&exe, &decoded, &limits).unwrap();
        let f = fast.run_one_decoded(&exe, &decoded, &limits).unwrap();
        assert_eq!(a.stats.inst_mix, f.stats.inst_mix, "{ctx}: inst mix");
        let ac = &a.stats.cache;
        let fc = &f.stats.cache;
        assert_eq!(
            ac.l1i.read_hits + ac.l1i.read_misses,
            fc.l1i.read_hits + fc.l1i.read_misses,
            "{ctx}: fetch totals"
        );
        assert_eq!(
            ac.l1d.read_hits + ac.l1d.read_misses,
            fc.l1d.read_hits + fc.l1d.read_misses,
            "{ctx}: data-read totals"
        );
        assert_eq!(
            ac.l1d.write_hits + ac.l1d.write_misses,
            fc.l1d.write_hits + fc.l1d.write_misses,
            "{ctx}: data-write totals"
        );
        // The counting tier models no cache: every access is a miss.
        assert_eq!(fc.l1i.read_hits, 0, "{ctx}");
        assert_eq!(fc.l1d.read_hits + fc.l1d.write_hits, 0, "{ctx}");
        assert!(!f.extrapolated, "{ctx}");
    }
}

#[test]
fn sampled_full_fraction_equals_accurate_on_torture_programs() {
    let accurate = AccurateBackend::new(hier());
    let sampled = SampledBackend::new(hier(), 1.0).unwrap();
    let limits = RunLimits::default();
    for (ctx, exe, decoded) in corpus_cases() {
        let a = accurate.run_one_decoded(&exe, &decoded, &limits).unwrap();
        let s = sampled.run_one_decoded(&exe, &decoded, &limits).unwrap();
        assert!(!s.extrapolated, "{ctx}: full fraction never extrapolates");
        assert_eq!(a.stats.inst_mix, s.stats.inst_mix, "{ctx}");
        assert_eq!(a.stats.cache, s.stats.cache, "{ctx}");
    }
}

#[test]
fn sampled_partial_prefix_matches_accurate_prefix_and_flags_extrapolation() {
    let fraction = 0.5;
    let sampled = SampledBackend::new(hier(), fraction)
        .unwrap()
        .with_min_insts(1);
    let limits = RunLimits::default();
    let mut extrapolated_cases = 0;
    for (ctx, exe, decoded) in corpus_cases() {
        let s = sampled.run_one_decoded(&exe, &decoded, &limits).unwrap();

        // Recompute the tier's own recipe from primitives: a counting
        // pass sizes the run, an accurate prefix of the same budget is
        // simulated, and (when the prefix is partial) every counter is
        // scaled by total/retired. The backend must match bit-for-bit.
        let line = hier().line_bytes();
        let count = simtune_isa::simulate_counting_decoded(&exe, &decoded, line, limits).unwrap();
        let total = count.stats.inst_mix.total();
        let budget = ((total as f64 * fraction).ceil() as u64).max(1);
        let (prefix, completed) = simtune_isa::simulate_prefix_decoded_on(
            &exe,
            &decoded,
            &hier(),
            limits,
            budget,
            EngineKind::Decoded,
        )
        .unwrap();

        assert_eq!(s.extrapolated, !completed, "{ctx}: extrapolation flag");
        if completed {
            assert_eq!(s.stats.inst_mix, prefix.stats.inst_mix, "{ctx}");
            assert_eq!(s.stats.cache, prefix.stats.cache, "{ctx}");
        } else {
            extrapolated_cases += 1;
            let retired = prefix.stats.inst_mix.total();
            assert!(retired >= budget, "{ctx}: prefix stopped early");
            // Scaled counters are exactly reproducible: floor division
            // component-wise, same as the backend's extrapolation.
            let scale = |v: u64| ((v as u128 * total as u128) / retired.max(1) as u128) as u64;
            assert_eq!(
                s.stats.inst_mix.total(),
                {
                    let m = &prefix.stats.inst_mix;
                    scale(m.int_alu)
                        + scale(m.fp_alu)
                        + scale(m.vec_alu)
                        + scale(m.loads)
                        + scale(m.stores)
                        + scale(m.branches)
                        + scale(m.other)
                },
                "{ctx}: extrapolated mix total"
            );
            assert_eq!(
                s.stats.cache.l1d.read_misses,
                scale(prefix.stats.cache.l1d.read_misses),
                "{ctx}: extrapolated l1d read misses"
            );
            assert_eq!(
                s.stats.cache.dram_reads,
                scale(prefix.stats.cache.dram_reads),
                "{ctx}: extrapolated dram reads"
            );
        }
    }
    assert!(
        extrapolated_cases > 10,
        "partial sampling must actually extrapolate on torture programs \
         (got {extrapolated_cases})"
    );
}

#[test]
fn pipelined_matches_interp_architectural_statistics_on_the_corpus() {
    // The timing tier replays the same functional semantics as the
    // interp reference; only the cache statistics may move (the
    // prefetcher shares the trial's hierarchy) and cycles appear.
    let accurate = AccurateBackend::new(hier());
    let pipelined = PipelinedBackend::new(hier(), DEFAULT_BTB_ENTRIES, DEFAULT_RAS_DEPTH);
    let limits = RunLimits::default();
    for (ctx, exe, decoded) in corpus_cases() {
        let a = accurate
            .run_one_decoded_on(&exe, &decoded, &limits, EngineKind::Interp)
            .unwrap();
        let p = pipelined.run_one_decoded(&exe, &decoded, &limits).unwrap();
        assert_eq!(a.stats.inst_mix, p.stats.inst_mix, "{ctx}: inst mix");
        assert!(!p.extrapolated, "{ctx}");
        let cycles = p.cycles.expect("pipelined tier reports a breakdown");
        assert!(
            cycles.total() >= p.stats.inst_mix.total() as f64,
            "{ctx}: an in-order pipeline retires at most one inst/cycle"
        );
    }
}

#[test]
fn pipelined_cycles_are_byte_identical_across_parallelism_and_engines() {
    // Every (engine, n_parallel) session over the same corpus slice
    // must report bit-equal cycle breakdowns — the determinism contract
    // that makes the timing tier usable under memoization.
    let cases = corpus_cases();
    let exes: Vec<simtune_isa::Executable> = cases
        .iter()
        .step_by(5)
        .map(|(_, exe, _)| exe.clone())
        .collect();
    let spec = FidelitySpec::Pipelined {
        btb: DEFAULT_BTB_ENTRIES,
        ras: DEFAULT_RAS_DEPTH,
    };
    let mut reference: Option<Vec<[u64; 3]>> = None;
    for engine in EngineKind::ALL {
        for n_parallel in [1, 2, 4] {
            let session = SimSession::builder()
                .fidelity(&spec, &hier())
                .n_parallel(n_parallel)
                .engine(engine)
                .build()
                .unwrap();
            let bits: Vec<[u64; 3]> = session
                .run(&exes)
                .into_iter()
                .map(|r| {
                    let c = r.unwrap().cycles.expect("pipelined session reports cycles");
                    [
                        c.pipeline.to_bits(),
                        c.memory.to_bits(),
                        c.control.to_bits(),
                    ]
                })
                .collect();
            match &reference {
                None => reference = Some(bits),
                Some(first) => assert_eq!(
                    first, &bits,
                    "{engine} at n_parallel = {n_parallel} moved the cycle counts"
                ),
            }
        }
    }
}

#[test]
fn every_tier_honors_engine_selection_identically() {
    // The same report must come back whatever replay engine a tier is
    // pinned to — the property that lets sessions treat the engine as a
    // pure host-speed knob.
    let tiers: Vec<Box<dyn SimBackend>> = vec![
        Box::new(AccurateBackend::new(hier())),
        Box::new(FastCountBackend::matching(&hier())),
        Box::new(SampledBackend::new(hier(), 0.5).unwrap().with_min_insts(1)),
        Box::new(PipelinedBackend::new(
            hier(),
            DEFAULT_BTB_ENTRIES,
            DEFAULT_RAS_DEPTH,
        )),
    ];
    let limits = RunLimits::default();
    for (ctx, exe, decoded) in corpus_cases().into_iter().step_by(7) {
        for tier in &tiers {
            let mut reports = EngineKind::ALL.iter().map(|&engine| {
                let mut r = tier
                    .run_one_decoded_on(&exe, &decoded, &limits, engine)
                    .unwrap();
                r.stats.host_nanos = 0;
                r
            });
            let first = reports.next().unwrap();
            for r in reports {
                assert_eq!(first, r, "{ctx}: {} disagrees across engines", tier.name());
            }
        }
    }
}
