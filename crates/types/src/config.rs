//! GPU hardware configuration.
//!
//! Defaults model the NVIDIA Tesla K80 (one GK210 die, Kepler) used in the
//! paper's evaluation. Every latency is expressed in *core clock cycles* so
//! the simulator and the analytical models share one time base; the
//! conversion to nanoseconds happens only at the reporting boundary.
//! The row-buffer service latencies default to the values the paper
//! measured with its Algorithm 1 microbenchmark: 352 ns (row-buffer hit),
//! 742 ns (miss), 1008 ns (conflict).

/// Geometry of one set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    pub size_bytes: u64,
    pub line_bytes: u64,
    pub ways: u32,
}

impl CacheGeometry {
    pub const fn new(size_bytes: u64, line_bytes: u64, ways: u32) -> Self {
        CacheGeometry {
            size_bytes,
            line_bytes,
            ways,
        }
    }

    /// Number of sets implied by the geometry.
    #[inline]
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes * u64::from(self.ways))
    }
}

/// Timing and organization of the off-chip GDDR5 memory system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramTimingConfig {
    /// Memory controllers / partitions (`M = 6` for Kepler in the paper).
    pub channels: u32,
    /// Banks per channel (one rank per channel on GPU; 16 banks/chip is
    /// the GDDR5 configuration that yields the paper's 96 total banks).
    pub banks_per_channel: u32,
    /// Row (page) size per bank in bytes.
    pub row_bytes: u64,
    /// Service time of a row-buffer hit, in core cycles.
    pub hit_cycles: u64,
    /// Service time of a row-buffer miss to a closed row, in core cycles.
    pub miss_cycles: u64,
    /// Service time of a row conflict (precharge + activate), core cycles.
    pub conflict_cycles: u64,
    /// Data-bus occupancy per 32-byte transaction on a channel, in core
    /// cycles; serializes transfers sharing a channel.
    pub burst_cycles: u64,
    /// Auto-refresh period in core cycles; every boundary closes all row
    /// buffers (tREFI-driven). 0 disables refresh modeling.
    pub refresh_interval_cycles: u64,
}

impl DramTimingConfig {
    /// Total banks across all channels (`NB` in the paper's Eq. 7).
    #[inline]
    pub fn total_banks(&self) -> u32 {
        self.channels * self.banks_per_channel
    }
}

/// Full machine description consumed by the simulator and the models.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Streaming multiprocessors.
    pub num_sms: u32,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Threads per warp.
    pub warp_size: u32,
    /// Warp instructions issued per SM per cycle.
    pub issue_width: u32,
    /// Effective SIMD lane width per issued warp instruction (32 on
    /// Kepler: a full warp issues in one cycle).
    pub simd_width: u32,
    /// Core clock in GHz (K80 base: 562 MHz).
    pub core_clock_ghz: f64,
    /// Average arithmetic instruction latency in cycles (the paper follows
    /// \[7\] in using the FP-op latency as the average instruction latency).
    pub avg_inst_lat: u64,
    /// Warp-local instruction-level parallelism: the average number of
    /// independent instructions a warp can issue before stalling on a
    /// result (the `ILP` of the paper's Eq. 14). The simulator uses it to
    /// pace per-warp issue; the models use the same value, keeping the
    /// two sides consistent the way the paper calibrates \[7\]'s model to
    /// its hardware.
    pub warp_ilp: f64,

    /// Shared memory capacity per SM in bytes.
    pub shared_mem_bytes_per_sm: u64,
    /// Shared memory banks (32 four-byte banks on Kepler).
    pub shared_banks: u32,
    /// Shared memory access latency in cycles.
    pub shared_lat: u64,

    /// Constant memory capacity (64 KiB on every CUDA GPU).
    pub constant_mem_bytes: u64,
    /// Per-SM constant cache.
    pub const_cache: CacheGeometry,
    /// Constant cache hit latency in cycles.
    pub const_hit_lat: u64,

    /// Per-SM texture cache.
    pub tex_cache: CacheGeometry,
    /// Texture cache hit latency in cycles (the texture pipeline is long
    /// even on a hit).
    pub tex_hit_lat: u64,
    /// Tile edge (in elements) used by the 2-D texture block-linear layout.
    pub tex2d_tile: u64,

    /// Per-SM L1 data cache, used by *local*-memory traffic (register
    /// spills and stack data; Kepler reserves L1 for local/register
    /// spill accesses — replay causes (7) and (9) in the paper).
    pub l1_cache: CacheGeometry,
    /// L1 hit latency in cycles.
    pub l1_hit_lat: u64,
    /// Local-memory slots available per thread (4-byte words).
    pub local_slots_per_thread: u32,

    /// Device-wide L2 cache.
    pub l2_cache: CacheGeometry,
    /// L2 hit latency in cycles (the paper approximates every cache-hit
    /// latency with the L2 latency in Eq. 5).
    pub l2_hit_lat: u64,

    /// Off-chip memory system.
    pub dram: DramTimingConfig,
    /// Width of a coalesced memory transaction in bytes (128-byte
    /// transactions on Kepler for cached accesses; 32-byte sectors at L2).
    pub transaction_bytes: u64,
    /// Maximum outstanding memory requests per warp before issue stalls
    /// (models MSHR/LSU capacity; replay cause (10) — "LSU full").
    pub max_pending_per_warp: u32,
}

impl GpuConfig {
    /// The paper's evaluation platform: NVIDIA Tesla K80 (Kepler GK210).
    pub fn tesla_k80() -> Self {
        let core_clock_ghz = 0.562;
        // Convert the paper's measured DRAM service latencies (ns) into
        // core cycles: cycles = ns * GHz.
        let ns = |t: f64| (t * core_clock_ghz).round() as u64;
        GpuConfig {
            num_sms: 13,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 16,
            warp_size: 32,
            issue_width: 2,
            simd_width: 32,
            core_clock_ghz,
            avg_inst_lat: 9,
            warp_ilp: 3.0,

            shared_mem_bytes_per_sm: 48 * 1024,
            shared_banks: 32,
            shared_lat: 48,

            constant_mem_bytes: 64 * 1024,
            const_cache: CacheGeometry::new(8 * 1024, 64, 4),
            const_hit_lat: 30,

            tex_cache: CacheGeometry::new(12 * 1024, 32, 4),
            tex_hit_lat: 104,
            tex2d_tile: 8,

            l1_cache: CacheGeometry::new(16 * 1024, 128, 4),
            l1_hit_lat: 30,
            local_slots_per_thread: 256,

            l2_cache: CacheGeometry::new(1536 * 1024, 128, 16),
            l2_hit_lat: 222,

            dram: DramTimingConfig {
                channels: 6,
                banks_per_channel: 16,
                row_bytes: 2048,
                hit_cycles: ns(352.0),
                miss_cycles: ns(742.0),
                conflict_cycles: ns(1008.0),
                // One 128-byte transaction at the K80's ~240 GB/s pin
                // bandwidth occupies ~0.53 ns ~ 0.3 core cycles per
                // channel; 1 cycle is the closest integer granule.
                burst_cycles: 1,
                // tREFI ~ 3.9 us on GDDR5 ~ 2192 core cycles at 562 MHz.
                refresh_interval_cycles: 2192,
            },
            transaction_bytes: 128,
            max_pending_per_warp: 6,
        }
    }

    /// The Fermi-generation Tesla C2050 — the platform the paper's
    /// Figure 4 inter-arrival study uses (via GPGPUSim's default
    /// configuration). 14 SMs, 16-wide SIMD halves (modeled as one-cycle
    /// warp issue like Kepler), 768 KiB L2, 6 channels.
    pub fn tesla_c2050() -> Self {
        let mut cfg = Self::tesla_k80();
        cfg.num_sms = 14;
        cfg.max_warps_per_sm = 48;
        cfg.max_blocks_per_sm = 8;
        cfg.issue_width = 1;
        cfg.core_clock_ghz = 1.15;
        let ns = |t: f64| (t * cfg.core_clock_ghz).round() as u64;
        // GDDR5 at the same absolute timings, re-expressed in the faster
        // Fermi core clock.
        cfg.dram.hit_cycles = ns(352.0);
        cfg.dram.miss_cycles = ns(742.0);
        cfg.dram.conflict_cycles = ns(1008.0);
        cfg.l2_cache = CacheGeometry::new(768 * 1024, 128, 16);
        cfg.shared_mem_bytes_per_sm = 48 * 1024;
        cfg
    }

    /// A deliberately small machine for fast unit tests: 2 SMs, tiny
    /// caches, 2 channels x 4 banks. Timing constants match the K80 so
    /// latency-sensitive assertions carry over.
    pub fn test_small() -> Self {
        let mut cfg = Self::tesla_k80();
        cfg.num_sms = 2;
        cfg.max_warps_per_sm = 16;
        cfg.max_blocks_per_sm = 4;
        cfg.const_cache = CacheGeometry::new(1024, 64, 2);
        cfg.tex_cache = CacheGeometry::new(2048, 32, 2);
        cfg.l1_cache = CacheGeometry::new(2 * 1024, 128, 2);
        cfg.l2_cache = CacheGeometry::new(32 * 1024, 128, 4);
        cfg.dram.channels = 2;
        cfg.dram.banks_per_channel = 4;
        cfg
    }

    /// Nanoseconds per core cycle.
    #[inline]
    pub fn ns_per_cycle(&self) -> f64 {
        1.0 / self.core_clock_ghz
    }

    /// Convert a cycle count to nanoseconds.
    #[inline]
    pub fn cycles_to_ns(&self, cycles: f64) -> f64 {
        cycles * self.ns_per_cycle()
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::tesla_k80()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k80_bank_count_matches_paper() {
        // Section III-C3: "all memory banks (96 banks)".
        assert_eq!(GpuConfig::tesla_k80().dram.total_banks(), 96);
    }

    #[test]
    fn measured_latencies_convert_to_cycles() {
        let cfg = GpuConfig::tesla_k80();
        // 352 ns * 0.562 GHz = 197.8 -> 198 cycles, etc.
        assert_eq!(cfg.dram.hit_cycles, 198);
        assert_eq!(cfg.dram.miss_cycles, 417);
        assert_eq!(cfg.dram.conflict_cycles, 566);
        // Ordering invariant: hit < miss < conflict.
        assert!(cfg.dram.hit_cycles < cfg.dram.miss_cycles);
        assert!(cfg.dram.miss_cycles < cfg.dram.conflict_cycles);
    }

    #[test]
    fn cache_sets() {
        let g = CacheGeometry::new(1536 * 1024, 128, 16);
        assert_eq!(g.sets(), 768);
    }

    #[test]
    fn ns_round_trip() {
        let cfg = GpuConfig::tesla_k80();
        let ns = cfg.cycles_to_ns(562.0);
        assert!((ns - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn c2050_differs_where_fermi_differs() {
        let fermi = GpuConfig::tesla_c2050();
        let kepler = GpuConfig::tesla_k80();
        assert_eq!(fermi.num_sms, 14);
        assert_eq!(fermi.dram.total_banks(), 96);
        assert!(fermi.l2_cache.size_bytes < kepler.l2_cache.size_bytes);
        // Same absolute DRAM timings, different clock -> more cycles.
        assert!(fermi.dram.hit_cycles > kepler.dram.hit_cycles);
        assert!((fermi.cycles_to_ns(fermi.dram.hit_cycles as f64) - 352.0).abs() < 1.0);
    }

    #[test]
    fn test_config_is_small_but_consistent() {
        let cfg = GpuConfig::test_small();
        assert_eq!(cfg.dram.total_banks(), 8);
        assert!(cfg.l2_cache.sets() > 0);
        assert_eq!(cfg.dram.hit_cycles, GpuConfig::tesla_k80().dram.hit_cycles);
    }
}
