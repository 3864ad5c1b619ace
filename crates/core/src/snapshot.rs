//! Disk persistence for [`SimCache`]: versioned, fingerprint-keyed
//! snapshots so a warm cache survives restarts.
//!
//! The paper's economics rest on amortizing simulation across runs;
//! CAPSim amortizes through a learned predictor and Pac-Sim through
//! reused sampled regions (PAPERS.md). [`SimCache::save_to`] /
//! [`SimCache::load_from`] give the memo cache the same property: a
//! tuning service can write its cache on shutdown and start warm, and a
//! snapshot can ship between machines — the fingerprint covers target,
//! backend, configuration and limits, so a stale or foreign entry can
//! only ever miss, never corrupt a result.
//!
//! # Format and versioning
//!
//! A snapshot is one JSON object (`{"schema": "simtune-simcache-v3",
//! "entries": [...]}`). Each entry stores the canonical fingerprint
//! (hex-encoded — fingerprints embed raw little-endian `f32` data bytes
//! and are not UTF-8) plus the memoized [`SimReport`] flattened into the
//! same counter-array shape `simtune-bench` uses for persisted datasets.
//! Entries are sorted by fingerprint, so equal caches serialize to
//! byte-identical files.
//!
//! The `schema` string is the only compatibility contract: readers
//! accept exactly their own version and reject everything else. There
//! are no migrations — a cache is a cache, and the cost of a rejected
//! snapshot is one cold start.
//!
//! # Crash-safety contract
//!
//! * **Writes are atomic**: [`SimCache::save_to`] (and
//!   [`atomic_write`]) serialize to a temporary file in the destination
//!   directory and `rename` it into place, so a reader observes either
//!   the old snapshot or the new one — never a truncated hybrid, even
//!   if the writer is killed mid-write or the disk fills.
//! * **Loads never fail the service**: a missing file is a cold start;
//!   a corrupt, truncated or version-mismatched file is *also* a cold
//!   start — logged, counted in
//!   [`SnapshotStats`](crate::metrics::SnapshotStats), and reported as
//!   [`SnapshotLoad::Rejected`] — because refusing to boot over a bad
//!   cache file would invert the cache's value. Only genuine I/O errors
//!   (permissions, hardware) surface as `Err`.
//! * **Replays are bit-identical**: a loaded entry is byte-for-byte the
//!   stored report (`host_nanos` included), so a warm run scores
//!   exactly what the cold run that wrote the snapshot scored —
//!   enforced by the round-trip differential test in
//!   `crates/core/tests/snapshot_roundtrip.rs`.

use crate::backend::{Fidelity, SimReport};
use crate::memo::SimCache;
use serde::{Deserialize, Serialize};
use simtune_cache::{CacheStats, HierarchyStats};
use simtune_hw::CycleBreakdown;
use simtune_isa::{InstMix, SimStats};
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;

/// Version tag accepted by this reader; anything else is rejected (and
/// degrades to a cold start). v2: fingerprints gained the replay-engine
/// identity, so v1 snapshots (keyed without an `engine=` line) are
/// refused rather than replayed under ambiguous keys. v3: fingerprints
/// are re-keyed on [fidelity digests](crate::SimBackend::fidelity_digest)
/// instead of the old `(backend, fidelity, memo key)` triple, and
/// reports gained an optional [`CycleBreakdown`] — v2 snapshots are
/// refused (logged cold start) rather than replayed under stale keys.
pub const SNAPSHOT_SCHEMA: &str = "simtune-simcache-v3";

/// Outcome of [`SimCache::load_from`]. Every variant leaves the cache
/// usable; only I/O errors surface as `Err`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotLoad {
    /// No snapshot exists at the path — plain cold start.
    Missing,
    /// Snapshot restored; carries the number of entries inserted.
    Loaded(usize),
    /// Snapshot refused (corrupt, truncated or version-mismatched);
    /// carries the reason. The cache starts cold.
    Rejected(String),
}

/// Writes `bytes` to `path` atomically: serialize to a sibling
/// temporary file, then `rename` into place. A crash mid-write leaves
/// either the previous file or no file — never a truncated one. Parent
/// directories are created as needed.
///
/// # Errors
///
/// Propagates filesystem errors from the write or the rename.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => {
            fs::create_dir_all(dir)?;
            dir.to_path_buf()
        }
        _ => std::path::PathBuf::from("."),
    };
    // Unique per process: concurrent writers race on the rename (last
    // one wins, which is fine — both files are complete), never on the
    // temporary file itself.
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = dir.join(format!(
        ".{}.tmp.{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

#[derive(Debug, Serialize, Deserialize)]
struct PersistedCacheStats {
    counters: [u64; 6],
}

impl From<CacheStats> for PersistedCacheStats {
    fn from(s: CacheStats) -> Self {
        PersistedCacheStats {
            counters: [
                s.read_hits,
                s.read_misses,
                s.read_replacements,
                s.write_hits,
                s.write_misses,
                s.write_replacements,
            ],
        }
    }
}

impl From<PersistedCacheStats> for CacheStats {
    fn from(p: PersistedCacheStats) -> Self {
        let [rh, rm, rr, wh, wm, wr] = p.counters;
        CacheStats {
            read_hits: rh,
            read_misses: rm,
            read_replacements: rr,
            write_hits: wh,
            write_misses: wm,
            write_replacements: wr,
        }
    }
}

#[derive(Debug, Serialize, Deserialize)]
struct PersistedStats {
    mix: [u64; 8],
    l1d: PersistedCacheStats,
    l1i: PersistedCacheStats,
    l2: PersistedCacheStats,
    l3: Option<PersistedCacheStats>,
    dram: [u64; 2],
    host_nanos: u64,
}

impl From<&SimStats> for PersistedStats {
    fn from(s: &SimStats) -> Self {
        let m = s.inst_mix;
        PersistedStats {
            mix: [
                m.int_alu,
                m.fp_alu,
                m.vec_alu,
                m.loads,
                m.stores,
                m.branches,
                m.branches_taken,
                m.other,
            ],
            l1d: s.cache.l1d.into(),
            l1i: s.cache.l1i.into(),
            l2: s.cache.l2.into(),
            l3: s.cache.l3.map(Into::into),
            dram: [s.cache.dram_reads, s.cache.dram_writes],
            host_nanos: s.host_nanos,
        }
    }
}

impl From<PersistedStats> for SimStats {
    fn from(p: PersistedStats) -> Self {
        let [int_alu, fp_alu, vec_alu, loads, stores, branches, branches_taken, other] = p.mix;
        SimStats {
            inst_mix: InstMix {
                int_alu,
                fp_alu,
                vec_alu,
                loads,
                stores,
                branches,
                branches_taken,
                other,
            },
            cache: HierarchyStats {
                l1d: p.l1d.into(),
                l1i: p.l1i.into(),
                l2: p.l2.into(),
                l3: p.l3.map(Into::into),
                dram_reads: p.dram[0],
                dram_writes: p.dram[1],
            },
            host_nanos: p.host_nanos,
        }
    }
}

#[derive(Debug, Serialize, Deserialize)]
struct PersistedEntry {
    /// Hex-encoded canonical fingerprint (raw bytes, not UTF-8).
    key: String,
    backend: String,
    /// `"accurate" | "count-only" | "sampled" | "pipelined" | "custom"`.
    fidelity: String,
    /// Sampling fraction; present exactly when `fidelity == "sampled"`.
    fraction: Option<f64>,
    extrapolated: bool,
    stats: PersistedStats,
    /// Bit patterns (`f64::to_bits`) of the cycle breakdown's
    /// `[pipeline, memory, control]` components, so the replay is
    /// bit-identical; `null` for tiers without a timing model.
    cycles: Option<[u64; 3]>,
}

#[derive(Debug, Serialize, Deserialize)]
struct PersistedSnapshot {
    schema: String,
    entries: Vec<PersistedEntry>,
}

fn encode_fidelity(f: &Fidelity) -> (String, Option<f64>) {
    match f {
        Fidelity::Accurate => ("accurate".into(), None),
        Fidelity::CountOnly => ("count-only".into(), None),
        Fidelity::Sampled { fraction } => ("sampled".into(), Some(*fraction)),
        Fidelity::Pipelined => ("pipelined".into(), None),
        // `Fidelity` is non-exhaustive; future variants fall back to
        // `Custom`, which never collides with memoized tiers because
        // custom backends opt out of memoization by default.
        _ => ("custom".into(), None),
    }
}

fn decode_fidelity(kind: &str, fraction: Option<f64>) -> Result<Fidelity, String> {
    match (kind, fraction) {
        ("accurate", None) => Ok(Fidelity::Accurate),
        ("count-only", None) => Ok(Fidelity::CountOnly),
        ("sampled", Some(fraction)) => Ok(Fidelity::Sampled { fraction }),
        ("pipelined", None) => Ok(Fidelity::Pipelined),
        ("custom", None) => Ok(Fidelity::Custom),
        _ => Err(format!("unknown fidelity {kind:?} (fraction {fraction:?})")),
    }
}

fn encode_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn decode_hex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex key".into());
    }
    (0..s.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&s[i..i + 2], 16).map_err(|_| format!("bad hex key byte at {i}"))
        })
        .collect()
}

/// Parses and validates a snapshot document; any defect is a rejection
/// reason, never a panic.
fn decode_snapshot(json: &str) -> Result<Vec<(Vec<u8>, SimReport)>, String> {
    let snap: PersistedSnapshot =
        serde_json::from_str(json).map_err(|e| format!("malformed snapshot: {e}"))?;
    if snap.schema != SNAPSHOT_SCHEMA {
        return Err(format!(
            "schema {:?} does not match {SNAPSHOT_SCHEMA:?}",
            snap.schema
        ));
    }
    snap.entries
        .into_iter()
        .map(|e| {
            let key = decode_hex(&e.key)?;
            let fidelity = decode_fidelity(&e.fidelity, e.fraction)?;
            let report = SimReport {
                stats: e.stats.into(),
                backend: e.backend,
                fidelity,
                extrapolated: e.extrapolated,
                cycles: e.cycles.map(|[p, m, c]| CycleBreakdown {
                    pipeline: f64::from_bits(p),
                    memory: f64::from_bits(m),
                    control: f64::from_bits(c),
                }),
            };
            Ok((key, report))
        })
        .collect()
}

impl SimCache {
    /// Writes every resident entry to `path` as a versioned snapshot,
    /// atomically (temp file + rename in the destination directory).
    /// Returns the number of entries written. Entries are sorted by
    /// fingerprint, so equal caches produce byte-identical files.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; serialization itself cannot fail.
    pub fn save_to(&self, path: &Path) -> io::Result<usize> {
        let mut entries = self.export_entries();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let persisted = PersistedSnapshot {
            schema: SNAPSHOT_SCHEMA.to_string(),
            entries: entries
                .iter()
                .map(|(key, report)| {
                    let (fidelity, fraction) = encode_fidelity(&report.fidelity);
                    PersistedEntry {
                        key: encode_hex(key),
                        backend: report.backend.clone(),
                        fidelity,
                        fraction,
                        extrapolated: report.extrapolated,
                        stats: (&report.stats).into(),
                        cycles: report.cycles.as_ref().map(|c| {
                            [
                                c.pipeline.to_bits(),
                                c.memory.to_bits(),
                                c.control.to_bits(),
                            ]
                        }),
                    }
                })
                .collect(),
        };
        let n = persisted.entries.len();
        let json = serde_json::to_string(&persisted)?;
        atomic_write(path, json.as_bytes())?;
        self.snap_saved.fetch_add(1, Ordering::Relaxed);
        Ok(n)
    }

    /// Restores entries from a snapshot written by [`SimCache::save_to`],
    /// inserting them into this cache.
    ///
    /// Degrades instead of failing: a missing file returns
    /// [`SnapshotLoad::Missing`]; a corrupt, truncated or
    /// version-mismatched snapshot logs a warning, bumps the rejection
    /// counter in [`SimCache::snapshot_stats`] and returns
    /// [`SnapshotLoad::Rejected`] — the service starts cold either way.
    ///
    /// # Errors
    ///
    /// Only genuine I/O errors (permissions, hardware) surface as `Err`;
    /// [`std::io::ErrorKind::NotFound`] is matched on the read itself
    /// (no TOCTOU `exists()` probe) and mapped to `Missing`.
    pub fn load_from(&self, path: &Path) -> io::Result<SnapshotLoad> {
        let json = match fs::read_to_string(path) {
            Ok(json) => json,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(SnapshotLoad::Missing),
            Err(e) => return Err(e),
        };
        match decode_snapshot(&json) {
            Ok(entries) => {
                let n = entries.len();
                for (key, report) in entries {
                    self.insert(key, report);
                }
                self.snap_loaded.fetch_add(n as u64, Ordering::Relaxed);
                Ok(SnapshotLoad::Loaded(n))
            }
            Err(reason) => {
                self.snap_rejected.fetch_add(1, Ordering::Relaxed);
                crate::log::warn(format!(
                    "ignoring cache snapshot {}: {reason} (cold start)",
                    path.display()
                ));
                Ok(SnapshotLoad::Rejected(reason))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(n: u64, fidelity: Fidelity) -> SimReport {
        SimReport {
            stats: SimStats {
                inst_mix: InstMix {
                    int_alu: n,
                    loads: n + 1,
                    ..Default::default()
                },
                cache: HierarchyStats {
                    l1d: CacheStats {
                        read_hits: n,
                        ..Default::default()
                    },
                    l3: n.is_multiple_of(2).then(CacheStats::default),
                    dram_reads: n,
                    ..Default::default()
                },
                host_nanos: n * 7,
            },
            backend: "accurate".into(),
            fidelity,
            extrapolated: matches!(fidelity, Fidelity::Sampled { .. }),
            // Pipelined entries carry a breakdown with a fractional
            // component, so the round-trip exercises the bit-exact
            // f64 encoding.
            cycles: matches!(fidelity, Fidelity::Pipelined).then(|| CycleBreakdown {
                pipeline: n as f64 + 0.5,
                memory: n as f64 * 3.0,
                control: n as f64,
            }),
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "simtune_snapshot_unit_{}_{name}",
            std::process::id()
        ))
    }

    #[test]
    fn save_load_roundtrips_every_fidelity() {
        let cache = SimCache::new();
        let fids = [
            Fidelity::Accurate,
            Fidelity::CountOnly,
            Fidelity::Sampled { fraction: 0.25 },
            Fidelity::Pipelined,
            Fidelity::Custom,
        ];
        for (i, f) in fids.iter().enumerate() {
            // Non-UTF-8 keys: raw bytes including 0xFF.
            cache.insert(vec![0xFF, i as u8, 0x00, 0x80], report(i as u64, *f));
        }
        let path = tmp("roundtrip.json");
        assert_eq!(cache.save_to(&path).unwrap(), fids.len());
        let fresh = SimCache::new();
        assert_eq!(
            fresh.load_from(&path).unwrap(),
            SnapshotLoad::Loaded(fids.len())
        );
        for (i, f) in fids.iter().enumerate() {
            let got = fresh.peek(&[0xFF, i as u8, 0x00, 0x80]).unwrap();
            assert_eq!(got, report(i as u64, *f));
        }
        assert_eq!(fresh.snapshot_stats().loaded_entries, fids.len() as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_snapshot_is_a_clean_cold_start() {
        let cache = SimCache::new();
        let outcome = cache.load_from(&tmp("never_written.json")).unwrap();
        assert_eq!(outcome, SnapshotLoad::Missing);
        assert_eq!(cache.snapshot_stats().rejected_snapshots, 0);
    }

    #[test]
    fn truncated_snapshot_degrades_to_cold_start() {
        let cache = SimCache::new();
        cache.insert(vec![1, 2, 3], report(1, Fidelity::Accurate));
        let path = tmp("truncated.json");
        cache.save_to(&path).unwrap();
        // Simulate a crash mid-write with a non-atomic writer: chop the
        // file in half.
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let fresh = SimCache::new();
        let outcome = fresh.load_from(&path).unwrap();
        assert!(matches!(outcome, SnapshotLoad::Rejected(_)), "{outcome:?}");
        assert!(fresh.is_empty());
        assert_eq!(fresh.snapshot_stats().rejected_snapshots, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_degrades_to_cold_start() {
        let path = tmp("version.json");
        atomic_write(&path, br#"{"schema":"simtune-simcache-v999","entries":[]}"#).unwrap();
        let cache = SimCache::new();
        match cache.load_from(&path).unwrap() {
            SnapshotLoad::Rejected(reason) => assert!(reason.contains("v999"), "{reason}"),
            other => panic!("expected rejection, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_snapshot_is_refused_with_a_captured_warning() {
        // Pre-v3 snapshots were keyed before the fidelity-digest re-key
        // and carry no `cycles` member; replaying them would resurrect
        // entries under stale fingerprints, so the reader refuses them.
        let path = tmp("v2.json");
        atomic_write(&path, br#"{"schema":"simtune-simcache-v2","entries":[]}"#).unwrap();
        let cache = SimCache::new();
        let (outcome, logs) = crate::log::capture(|| cache.load_from(&path).unwrap());
        match outcome {
            SnapshotLoad::Rejected(reason) => assert!(reason.contains("v2"), "{reason}"),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(logs.len(), 1, "{logs:?}");
        assert!(logs[0].contains("cold start"), "{logs:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_fidelity_rejects_the_snapshot() {
        let path = tmp("fidelity.json");
        let json = format!(
            r#"{{"schema":"{SNAPSHOT_SCHEMA}","entries":[{{"key":"00","backend":"b","fidelity":"quantum","fraction":null,"extrapolated":false,"stats":{{"mix":[0,0,0,0,0,0,0,0],"l1d":{{"counters":[0,0,0,0,0,0]}},"l1i":{{"counters":[0,0,0,0,0,0]}},"l2":{{"counters":[0,0,0,0,0,0]}},"l3":null,"dram":[0,0],"host_nanos":0}},"cycles":null}}]}}"#
        );
        atomic_write(&path, json.as_bytes()).unwrap();
        let cache = SimCache::new();
        assert!(matches!(
            cache.load_from(&path).unwrap(),
            SnapshotLoad::Rejected(_)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn equal_caches_serialize_to_identical_bytes() {
        let a = SimCache::new();
        let b = SimCache::with_shards(4);
        for i in 0..8u8 {
            // Insert in different orders; sorting canonicalizes.
            a.insert(vec![i, 0xAB], report(i as u64, Fidelity::Accurate));
            b.insert(
                vec![7 - i, 0xAB],
                report((7 - i) as u64, Fidelity::Accurate),
            );
        }
        let (pa, pb) = (tmp("detA.json"), tmp("detB.json"));
        a.save_to(&pa).unwrap();
        b.save_to(&pb).unwrap();
        assert_eq!(std::fs::read(&pa).unwrap(), std::fs::read(&pb).unwrap());
        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
    }

    #[test]
    fn hex_rejects_garbage() {
        assert!(decode_hex("0").is_err());
        assert!(decode_hex("zz").is_err());
        assert_eq!(decode_hex("00ff").unwrap(), vec![0x00, 0xFF]);
    }
}
