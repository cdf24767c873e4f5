//! Evaluation-quantity derivation (paper §VI).

use vksim_gpu::GpuStats;
use vksim_stats::{Roofline, RooflinePoint};

/// Instruction-mix fractions (paper §VI: "ALU operations account for 60%
/// ... memory operations with 25% ... around 1% trace ray instructions").
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct InstructionMix {
    /// ALU fraction.
    pub alu: f64,
    /// SFU fraction.
    pub sfu: f64,
    /// Memory fraction.
    pub mem: f64,
    /// Control-flow fraction.
    pub ctrl: f64,
    /// RT-instruction fraction (bookkeeping + trace).
    pub rt: f64,
    /// `traverseAS` (trace ray) fraction specifically.
    pub trace_ray: f64,
}

/// Derives the instruction mix from run statistics.
pub fn instruction_mix(stats: &GpuStats) -> InstructionMix {
    let alu = stats.counters.get("inst.Alu") as f64;
    let sfu = stats.counters.get("inst.Sfu") as f64;
    let mem = stats.counters.get("inst.Mem") as f64;
    let ctrl = stats.counters.get("inst.Ctrl") as f64;
    let rt = stats.counters.get("inst.Rt") as f64;
    let exit = stats.counters.get("inst.Exit") as f64;
    let trace = stats.counters.get("rt.trace_warps") as f64;
    let total = alu + sfu + mem + ctrl + rt + exit;
    if total == 0.0 {
        return InstructionMix::default();
    }
    InstructionMix {
        alu: alu / total,
        sfu: sfu / total,
        mem: mem / total,
        ctrl: ctrl / total,
        rt: rt / total,
        trace_ray: trace / total,
    }
}

/// The Fig. 1 substitute: fraction of execution attributable to ray
/// tracing, measured as cycles where RT units were busy.
pub fn rt_time_fraction(stats: &GpuStats, num_sms: usize) -> f64 {
    if stats.cycles == 0 || num_sms == 0 {
        return 0.0;
    }
    let per_sm = stats.rt_busy_cycles as f64 / num_sms as f64;
    (per_sm / stats.cycles as f64).min(1.0)
}

/// Builds the RT-unit roofline (Fig. 12): performance = RT operations per
/// cycle; operational intensity = operations per 32 B cache block fetched;
/// roofs from [`rt_roofline`].
pub fn roofline_point(stats: &GpuStats) -> RooflinePoint {
    let ops = stats.rt_ops as f64;
    let blocks = stats.rt_chunks_fetched.max(1) as f64;
    let cycles = stats.cycles.max(1) as f64;
    RooflinePoint {
        operational_intensity: ops / blocks,
        performance: ops / cycles,
    }
}

/// The paper's roofline bounds for a 32-wide RT unit: 32 instances of each
/// operation unit with their pipeline depths, `issue_per_cycle` blocks.
pub fn rt_roofline(rt: &vksim_rtunit::RtUnitConfig) -> Roofline {
    let stages = (rt.box_latency + rt.triangle_latency + rt.transform_latency) as f64;
    Roofline::new(32.0 * stages, rt.issue_per_cycle as f64)
}

/// DRAM row-buffer hit rate from run statistics.
///
/// Uses the merged (summed-over-partitions) `row_hit` / `req` counters, so
/// the result is weighted by each partition's request count — never the
/// mean of per-partition rates, which overweights idle partitions under
/// asymmetric load.
pub fn dram_row_hit_rate(stats: &GpuStats) -> f64 {
    let hits = stats.dram_stats.get("row_hit") as f64;
    let reqs = stats.dram_stats.get("req") as f64;
    if reqs == 0.0 {
        0.0
    } else {
        hits / reqs
    }
}

/// One row of the Fig. 14 cache breakdown.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CacheBreakdown {
    /// Hits from shader accesses.
    pub shader_hits: u64,
    /// Hits from RT-unit accesses.
    pub rt_hits: u64,
    /// Compulsory (cold) misses, shader.
    pub shader_compulsory: u64,
    /// Capacity + conflict misses, shader.
    pub shader_thrash: u64,
    /// Compulsory misses, RT unit.
    pub rt_compulsory: u64,
    /// Capacity + conflict misses, RT unit (cache-thrashing evidence).
    pub rt_thrash: u64,
}

impl CacheBreakdown {
    /// Extracts a breakdown from a cache's counter bag.
    pub fn from_counters(c: &vksim_stats::Counters) -> Self {
        CacheBreakdown {
            shader_hits: c.get("shader_load.hit") + c.get("shader_store.hit"),
            rt_hits: c.get("rt_unit.hit"),
            shader_compulsory: c.get("shader_load.miss_compulsory"),
            shader_thrash: c.get("shader_load.miss_capacity") + c.get("shader_load.miss_conflict"),
            rt_compulsory: c.get("rt_unit.miss_compulsory"),
            rt_thrash: c.get("rt_unit.miss_capacity") + c.get("rt_unit.miss_conflict"),
        }
    }

    /// Total accesses in the breakdown.
    pub fn total(&self) -> u64 {
        self.shader_hits
            + self.rt_hits
            + self.shader_compulsory
            + self.shader_thrash
            + self.rt_compulsory
            + self.rt_thrash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vksim_rtunit::RtUnitConfig;
    use vksim_stats::Counters;

    fn stats_with(counters: Counters) -> GpuStats {
        GpuStats {
            cycles: 1000,
            issued_insts: 0,
            simt_efficiency: 0.0,
            rt_simt_efficiency: 0.0,
            counters,
            l1_stats: Counters::new(),
            rtc_stats: Counters::new(),
            l2_stats: Counters::new(),
            dram_stats: Counters::new(),
            dram_efficiency: 0.0,
            dram_utilization: 0.0,
            rt_warp_latency: vksim_stats::Histogram::new(1000.0),
            rt_busy_cycles: 0,
            rt_resident_warp_cycles: 0,
            rt_occupancy: Vec::new(),
            rt_ops: 0,
            rt_chunks_fetched: 0,
        }
    }

    #[test]
    fn mix_fractions_sum_to_one() {
        let mut c = Counters::new();
        c.add("inst.Alu", 60);
        c.add("inst.Mem", 25);
        c.add("inst.Ctrl", 10);
        c.add("inst.Rt", 4);
        c.add("inst.Exit", 1);
        let m = instruction_mix(&stats_with(c));
        let sum = m.alu + m.sfu + m.mem + m.ctrl + m.rt;
        assert!((sum - 0.99).abs() < 0.02);
        assert!((m.alu - 0.6).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_give_zero_mix() {
        let m = instruction_mix(&stats_with(Counters::new()));
        assert_eq!(m, InstructionMix::default());
    }

    #[test]
    fn rt_fraction_bounded() {
        let mut s = stats_with(Counters::new());
        s.rt_busy_cycles = 920 * 2; // 2 SMs busy 92% of 1000 cycles
        assert!((rt_time_fraction(&s, 2) - 0.92).abs() < 1e-9);
        s.rt_busy_cycles = 10_000_000;
        assert_eq!(rt_time_fraction(&s, 2), 1.0);
    }

    #[test]
    fn roofline_point_computation() {
        let mut s = stats_with(Counters::new());
        s.rt_ops = 4000;
        s.rt_chunks_fetched = 1000;
        s.cycles = 2000;
        let p = roofline_point(&s);
        assert_eq!(p.operational_intensity, 4.0);
        assert_eq!(p.performance, 2.0);
        let r = rt_roofline(&RtUnitConfig::default());
        assert!(r.is_memory_bound(&p));
        assert!(r.utilization(&p) <= 1.0);
    }

    #[test]
    fn rt_roofline_memory_roof_reads_issue_width() {
        let rt = RtUnitConfig::default();
        assert_eq!(rt_roofline(&rt).blocks_per_cycle, 1.0);
        assert_eq!(rt_roofline(&rt).compute_roof, 32.0 * 16.0);
        let wide = RtUnitConfig {
            issue_per_cycle: 2,
            ..rt
        };
        assert_eq!(rt_roofline(&wide).blocks_per_cycle, 2.0);
        assert_eq!(rt_roofline(&wide).compute_roof, 32.0 * 16.0);
    }

    #[test]
    fn row_hit_rate_is_request_weighted_across_partitions() {
        // Partition 0: 900 reqs, 900 hits (rate 1.0). Partition 1: 100
        // reqs, 0 hits (rate 0.0). The merged counters are the sums the
        // backend emits alongside the per-partition `p{i}.*` keys.
        let mut s = stats_with(Counters::new());
        s.dram_stats.add("req", 900);
        s.dram_stats.add("row_hit", 900);
        s.dram_stats.add("p0.req", 900);
        s.dram_stats.add("p0.row_hit", 900);
        s.dram_stats.add("req", 100);
        s.dram_stats.add("p1.req", 100);
        let rate = dram_row_hit_rate(&s);
        // Request-weighted: 900/1000, not the per-partition mean 0.5.
        assert!((rate - 0.9).abs() < 1e-12);
        assert!((rate - 0.5).abs() > 0.1);
        // No requests -> defined zero, not NaN.
        assert_eq!(dram_row_hit_rate(&stats_with(Counters::new())), 0.0);
    }

    #[test]
    fn cache_breakdown_extraction() {
        let mut c = Counters::new();
        c.add("shader_load.hit", 10);
        c.add("shader_store.hit", 2);
        c.add("rt_unit.hit", 5);
        c.add("shader_load.miss_compulsory", 3);
        c.add("shader_load.miss_capacity", 1);
        c.add("shader_load.miss_conflict", 1);
        c.add("rt_unit.miss_capacity", 4);
        let b = CacheBreakdown::from_counters(&c);
        assert_eq!(b.shader_hits, 12);
        assert_eq!(b.rt_hits, 5);
        assert_eq!(b.shader_thrash, 2);
        assert_eq!(b.rt_thrash, 4);
        assert_eq!(b.total(), 26);
    }
}
