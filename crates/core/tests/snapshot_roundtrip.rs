//! Property test: a `SimCache` snapshot is a lossless, layout-free
//! round trip. Whatever mix of fidelities and shard counts produced
//! the cache, `save_to` → `load_from` must rebuild
//! bit-identical `SimReport`s — and two equal caches must serialize to
//! byte-identical files, so snapshots can be compared and deduplicated
//! by content.

use proptest::prelude::*;
use simtune_core::{CycleBreakdown, Fidelity, SimCache, SimReport, SnapshotLoad};
use simtune_isa::SimStats;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Fingerprints embed raw little-endian f32 bytes in production, so the
/// keys here deliberately include non-UTF-8 bytes.
fn key(idx: u8) -> Vec<u8> {
    let mut k = vec![0xFF, idx, 0x00];
    k.extend(format!("snap-{idx}").into_bytes());
    k.extend(std::iter::repeat_n(idx, usize::from(idx) % 5));
    k
}

fn fidelity(selector: u8, marker: u64) -> Fidelity {
    match selector % 5 {
        0 => Fidelity::Accurate,
        1 => Fidelity::CountOnly,
        2 => Fidelity::Sampled {
            fraction: (marker % 1000) as f64 / 1000.0,
        },
        3 => Fidelity::Pipelined,
        _ => Fidelity::Custom,
    }
}

fn report(marker: u64, selector: u8) -> SimReport {
    let fid = fidelity(selector, marker);
    SimReport {
        stats: SimStats {
            host_nanos: marker,
            ..SimStats::default()
        },
        backend: format!("backend-{}", selector % 3),
        fidelity: fid,
        extrapolated: matches!(fid, Fidelity::Sampled { .. }),
        // Fractional components so the round trip covers the bit-exact
        // f64 encoding, not just integral values.
        cycles: matches!(fid, Fidelity::Pipelined).then(|| CycleBreakdown {
            pipeline: marker as f64 + 0.25,
            memory: (marker % 97) as f64 / 3.0,
            control: (marker % 13) as f64,
        }),
    }
}

/// A process-unique, test-unique temp path; proptest shrinking reruns
/// cases, so every invocation gets a fresh file.
fn temp_snapshot() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "simtune_snapshot_prop_{}_{n}.json",
        std::process::id()
    ))
}

fn fill(cache: &SimCache, idxs: &[u8], markers: &[u64], selectors: &[u8]) {
    for (i, &idx) in idxs.iter().enumerate() {
        cache.insert(
            key(idx),
            report(markers[i % markers.len()], selectors[i % selectors.len()]),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Across shard layouts: every surviving entry loads
    /// back bit-identical, and re-saving the loaded cache reproduces
    /// the original file byte for byte.
    #[test]
    fn snapshot_roundtrips_sharded_caches(
        idxs in prop::collection::vec(0u8..32, 1..80),
        markers in prop::collection::vec(0u64..100_000, 1..80),
        selectors in prop::collection::vec(any::<u8>(), 1..80),
        save_shards in 1usize..9,
        load_shards in 1usize..9,
    ) {
        let path = temp_snapshot();
        let original = SimCache::with_shards(save_shards);
        fill(&original, &idxs, &markers, &selectors);
        let written = original.save_to(&path).expect("saves");
        prop_assert_eq!(written, original.len());

        let restored = SimCache::with_shards(load_shards);
        let loaded = restored.load_from(&path).expect("reads");
        prop_assert_eq!(loaded, SnapshotLoad::Loaded(written));
        prop_assert_eq!(restored.len(), original.len());
        for &idx in &idxs {
            let k = key(idx);
            prop_assert_eq!(original.lookup(&k), restored.lookup(&k));
        }

        // Equal contents ⇒ equal bytes, regardless of shard layout.
        let again = temp_snapshot();
        restored.save_to(&again).expect("re-saves");
        prop_assert_eq!(
            std::fs::read(&path).expect("original bytes"),
            std::fs::read(&again).expect("re-saved bytes")
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&again).ok();
    }
}
