use crate::{AccessKind, Cache, HierarchyConfig, HierarchyStats};

/// The hierarchy level that ultimately serviced an access.
///
/// The instruction-accurate simulator ignores this (it only keeps
/// statistics), but the timing models in `simtune-hw` convert it into a
/// latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServicedBy {
    /// Hit in the L1 data cache.
    L1d,
    /// Hit in the L1 instruction cache.
    L1i,
    /// Hit in the unified L2.
    L2,
    /// Hit in the last-level cache.
    L3,
    /// Line fill from DRAM.
    Memory,
}

/// A multi-level cache hierarchy: split L1 (I/D), unified L2, optional L3,
/// write-back/write-allocate at every level, non-inclusive fills.
///
/// Matches the structure of Figure 3 in the paper ("typical cache
/// hierarchies of modern CPUs") with single-core occupancy, since the
/// paper's workloads are single-threaded.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    config: HierarchyConfig,
    l1d: Cache,
    l1i: Cache,
    l2: Cache,
    l3: Option<Cache>,
    dram_reads: u64,
    dram_writes: u64,
    counting: Option<AccessCounters>,
}

/// Raw access counters kept when the hierarchy runs in counting-only
/// mode: no tag arrays are consulted, every access "misses to memory".
#[derive(Debug, Clone, Copy, Default)]
struct AccessCounters {
    data_reads: u64,
    data_writes: u64,
    fetches: u64,
}

impl CacheHierarchy {
    /// Builds an empty hierarchy from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`HierarchyConfig::validate`]; construct
    /// configurations through [`crate::CacheConfig::new`] to avoid this.
    pub fn new(config: HierarchyConfig) -> Self {
        config
            .validate()
            .expect("hierarchy configuration must validate");
        CacheHierarchy {
            l1d: Cache::new(config.l1d.clone()),
            l1i: Cache::new(config.l1i.clone()),
            l2: Cache::new(config.l2.clone()),
            l3: config.l3.clone().map(Cache::new),
            config,
            dram_reads: 0,
            dram_writes: 0,
            counting: None,
        }
    }

    /// Builds a counting-only hierarchy: accesses are tallied but no
    /// cache model exists (no tag arrays, no replacement state). Every
    /// access reports [`ServicedBy::Memory`]. This is the QEMU-plugin
    /// flavor of instrumentation the fast-count simulator backend uses;
    /// only `line_bytes` matters, because it determines how many lines a
    /// vector access touches (and must match the reference hierarchy for
    /// access counts to be comparable).
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    pub fn counting_only(line_bytes: u64) -> Self {
        let policy = crate::ReplacementPolicy::Lru;
        let line = crate::CacheConfig::new("count", line_bytes, 1, 1, line_bytes, policy)
            .expect("line_bytes must be a power of two");
        let config = HierarchyConfig {
            name: "counting-only".into(),
            l1d: line.clone(),
            l1i: line.clone(),
            l2: line,
            l3: None,
        };
        CacheHierarchy {
            counting: Some(AccessCounters::default()),
            ..CacheHierarchy::new(config)
        }
    }

    /// True when the hierarchy only counts accesses (no cache model).
    pub fn is_counting_only(&self) -> bool {
        self.counting.is_some()
    }

    /// The hierarchy's configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Shared line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.config.line_bytes()
    }

    /// Data-side read (scalar or one line of a vector access).
    pub fn data_read(&mut self, addr: u64) -> ServicedBy {
        if let Some(c) = &mut self.counting {
            c.data_reads += 1;
            self.dram_reads += 1;
            return ServicedBy::Memory;
        }
        let out = self.l1d.access(addr, AccessKind::Read);
        if let Some(wb) = out.writeback {
            self.backing_write(wb);
        }
        if out.hit {
            ServicedBy::L1d
        } else {
            self.backing_read(addr)
        }
    }

    /// Data-side write. Write-allocate: a store miss fills the line (the
    /// fill is a read against the levels below), then dirties it in L1D.
    pub fn data_write(&mut self, addr: u64) -> ServicedBy {
        if let Some(c) = &mut self.counting {
            c.data_writes += 1;
            self.dram_writes += 1;
            return ServicedBy::Memory;
        }
        let out = self.l1d.access(addr, AccessKind::Write);
        if let Some(wb) = out.writeback {
            self.backing_write(wb);
        }
        if out.hit {
            ServicedBy::L1d
        } else {
            self.backing_read(addr)
        }
    }

    /// Instruction fetch: read against L1I, then the unified levels.
    pub fn fetch(&mut self, addr: u64) -> ServicedBy {
        if let Some(c) = &mut self.counting {
            c.fetches += 1;
            self.dram_reads += 1;
            return ServicedBy::Memory;
        }
        let out = self.l1i.access(addr, AccessKind::Read);
        if let Some(wb) = out.writeback {
            self.backing_write(wb);
        }
        if out.hit {
            ServicedBy::L1i
        } else {
            self.backing_read(addr)
        }
    }

    /// Fill walk below L1: L2, then L3, then DRAM.
    fn backing_read(&mut self, addr: u64) -> ServicedBy {
        let out2 = self.l2.access(addr, AccessKind::Read);
        if let Some(wb) = out2.writeback {
            self.l3_or_dram_write(wb);
        }
        if out2.hit {
            return ServicedBy::L2;
        }
        match &mut self.l3 {
            Some(l3) => {
                let out3 = l3.access(addr, AccessKind::Read);
                if out3.writeback.is_some() {
                    self.dram_writes += 1;
                }
                if out3.hit {
                    ServicedBy::L3
                } else {
                    self.dram_reads += 1;
                    ServicedBy::Memory
                }
            }
            None => {
                self.dram_reads += 1;
                ServicedBy::Memory
            }
        }
    }

    /// A dirty line evicted from L1 is written to L2 (possibly cascading).
    fn backing_write(&mut self, addr: u64) {
        let out = self.l2.access(addr, AccessKind::Write);
        if let Some(wb) = out.writeback {
            self.l3_or_dram_write(wb);
        }
        // A write miss in L2 allocated the line there; no further action —
        // payload-free model, the fill needs no data movement.
    }

    fn l3_or_dram_write(&mut self, addr: u64) {
        match &mut self.l3 {
            Some(l3) => {
                let out = l3.access(addr, AccessKind::Write);
                if out.writeback.is_some() {
                    self.dram_writes += 1;
                }
            }
            None => self.dram_writes += 1,
        }
    }

    /// Snapshot of all counters.
    ///
    /// In counting-only mode every access is reported as a miss of the
    /// corresponding L1 (reads/writes in L1D, fetches in L1I): the raw
    /// access totals stay meaningful while hit/replacement counters — the
    /// quantities a cache *model* would produce — remain zero.
    pub fn stats(&self) -> HierarchyStats {
        if let Some(c) = &self.counting {
            return HierarchyStats {
                l1d: crate::CacheStats {
                    read_misses: c.data_reads,
                    write_misses: c.data_writes,
                    ..Default::default()
                },
                l1i: crate::CacheStats {
                    read_misses: c.fetches,
                    ..Default::default()
                },
                l2: crate::CacheStats::default(),
                l3: None,
                dram_reads: self.dram_reads,
                dram_writes: self.dram_writes,
            };
        }
        HierarchyStats {
            l1d: *self.l1d.stats(),
            l1i: *self.l1i.stats(),
            l2: *self.l2.stats(),
            l3: self.l3.as_ref().map(|c| *c.stats()),
            dram_reads: self.dram_reads,
            dram_writes: self.dram_writes,
        }
    }

    /// Clears statistics, keeping cache contents.
    pub fn reset_stats(&mut self) {
        if let Some(c) = &mut self.counting {
            *c = AccessCounters::default();
        }
        self.l1d.reset_stats();
        self.l1i.reset_stats();
        self.l2.reset_stats();
        if let Some(l3) = &mut self.l3 {
            l3.reset_stats();
        }
        self.dram_reads = 0;
        self.dram_writes = 0;
    }

    /// Invalidates all levels (paper: caches are flushed before each
    /// repetition).
    pub fn flush(&mut self) {
        self.l1d.flush();
        self.l1i.flush();
        self.l2.flush();
        if let Some(l3) = &mut self.l3 {
            l3.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HierarchyConfig;

    #[test]
    fn read_walks_down_and_refills() {
        let mut h = CacheHierarchy::new(HierarchyConfig::tiny_for_tests());
        assert_eq!(h.data_read(0), ServicedBy::Memory);
        assert_eq!(h.data_read(0), ServicedBy::L1d);
        let s = h.stats();
        assert_eq!(s.l1d.read_misses, 1);
        assert_eq!(s.l1d.read_hits, 1);
        assert_eq!(s.l2.read_misses, 1);
        assert_eq!(s.dram_reads, 1);
    }

    #[test]
    fn l2_serves_after_l1_conflict_eviction() {
        let mut h = CacheHierarchy::new(HierarchyConfig::tiny_for_tests());
        // Tiny L1D: 4 sets x 4 ways. Touch 5 lines mapping to set 0
        // (stride = 4 sets * 64 B = 256 B) to evict address 0 from L1.
        for i in 0..5u64 {
            h.data_read(i * 256);
        }
        // Address 0 is gone from L1D but still in the bigger L2.
        assert_eq!(h.data_read(0), ServicedBy::L2);
    }

    #[test]
    fn fetch_uses_l1i_then_unified_l2() {
        let mut h = CacheHierarchy::new(HierarchyConfig::tiny_for_tests());
        assert_eq!(h.fetch(0x100), ServicedBy::Memory);
        assert_eq!(h.fetch(0x100), ServicedBy::L1i);
        // The same line is now also in L2: a *data* read of it hits L2
        // (unified lower level shared by both L1s).
        assert_eq!(h.data_read(0x100), ServicedBy::L2);
        assert_eq!(h.stats().l1i.read_accesses(), 2);
    }

    #[test]
    fn x86_hierarchy_exposes_l3() {
        let mut h = CacheHierarchy::new(HierarchyConfig::x86_ryzen_5800x());
        h.data_read(0);
        let s = h.stats();
        assert!(s.l3.is_some());
        assert_eq!(s.l3.expect("l3").read_misses, 1);
        assert_eq!(s.dram_reads, 1);
    }

    #[test]
    fn dirty_writeback_reaches_dram_on_l3_free_targets() {
        let mut h = CacheHierarchy::new(HierarchyConfig::tiny_for_tests());
        // Dirty many conflicting lines in L1D set 0; evictions write back
        // to L2. Then overflow L2's set with more dirty lines until L2
        // evicts to DRAM. Tiny L2: 32 sets x 4 ways, stride 32*64 = 2048.
        for i in 0..16u64 {
            h.data_write(i * 2048); // all map to L1D set 0 and L2 set 0
        }
        let s = h.stats();
        assert!(s.l1d.write_replacements > 0, "L1D must have evicted");
        assert!(s.l2.write_accesses() > 0, "L2 must have seen write-backs");
        assert!(s.dram_writes > 0, "L2 dirty evictions must hit DRAM");
    }

    #[test]
    fn flush_and_reset_are_independent() {
        let mut h = CacheHierarchy::new(HierarchyConfig::tiny_for_tests());
        h.data_read(0);
        h.flush();
        h.reset_stats();
        assert_eq!(h.stats().l1d.accesses(), 0);
        assert_eq!(h.data_read(0), ServicedBy::Memory);
    }

    #[test]
    fn counting_only_tallies_without_cache_model() {
        let mut h = CacheHierarchy::counting_only(64);
        assert!(h.is_counting_only());
        // Repeated touches of the same line never turn into hits.
        assert_eq!(h.data_read(0), ServicedBy::Memory);
        assert_eq!(h.data_read(0), ServicedBy::Memory);
        assert_eq!(h.data_write(0), ServicedBy::Memory);
        assert_eq!(h.fetch(0x100), ServicedBy::Memory);
        let s = h.stats();
        assert_eq!(s.l1d.read_misses, 2);
        assert_eq!(s.l1d.write_misses, 1);
        assert_eq!(s.l1i.read_misses, 1);
        assert_eq!(s.l1d.read_hits + s.l1d.write_hits + s.l1i.read_hits, 0);
        // Every access — fetches included — goes to memory.
        assert_eq!(s.dram_reads, 3);
        assert_eq!(s.dram_writes, 1);
        // Line size is honored (it drives lines_touched in the CPU).
        assert_eq!(h.line_bytes(), 64);
        h.reset_stats();
        assert_eq!(h.stats().l1d.read_misses, 0);
    }

    #[test]
    fn write_allocate_fills_line() {
        let mut h = CacheHierarchy::new(HierarchyConfig::tiny_for_tests());
        assert_eq!(h.data_write(0x40), ServicedBy::Memory);
        // After the allocating store, a load of the same line hits L1D.
        assert_eq!(h.data_read(0x40), ServicedBy::L1d);
    }
}
