//! Simulation configurations: Table III plus the Fig. 15 memory variants.

use vksim_gpu::{DivergenceMode, GpuConfig};
use vksim_mem::{CacheConfig, DramConfig};

/// Memory-system variant (paper Fig. 15).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MemoryMode {
    /// RT unit shares the SM's L1D.
    #[default]
    Baseline,
    /// Dedicated RT cache next to the L1D.
    RtCache,
    /// Zero-latency BVH node accesses (limit study).
    PerfectBvh,
    /// Zero-latency DRAM (limit study).
    PerfectMem,
}

/// Top-level simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The GPU configuration (Table III baseline or mobile).
    pub gpu: GpuConfig,
    /// Memory-system variant.
    pub memory_mode: MemoryMode,
}

impl SimConfig {
    /// Paper baseline (Table III).
    pub fn baseline() -> Self {
        SimConfig {
            gpu: GpuConfig::baseline(),
            memory_mode: MemoryMode::Baseline,
        }
    }

    /// Paper-scale configuration (48 SMs, 8 memory partitions, FR-FCFS
    /// DRAM scheduling) used where Table IV / Fig. 12 fidelity needs the
    /// full machine rather than the 2-SM test mule.
    pub fn paper() -> Self {
        SimConfig {
            gpu: GpuConfig::paper(),
            memory_mode: MemoryMode::Baseline,
        }
    }

    /// Paper mobile configuration.
    pub fn mobile() -> Self {
        SimConfig {
            gpu: GpuConfig::mobile(),
            memory_mode: MemoryMode::Baseline,
        }
    }

    /// A small configuration for unit tests (2 SMs).
    pub fn test_small() -> Self {
        SimConfig {
            gpu: GpuConfig {
                num_sms: 2,
                ..GpuConfig::baseline()
            },
            memory_mode: MemoryMode::Baseline,
        }
    }

    /// Selects the memory variant.
    pub fn with_memory_mode(mut self, mode: MemoryMode) -> Self {
        self.memory_mode = mode;
        self
    }

    /// Sets the RT-unit concurrent-warp limit (the Fig. 16 sweep).
    pub fn with_rt_max_warps(mut self, warps: usize) -> Self {
        self.gpu.rt_unit.max_warps = warps.max(1);
        self
    }

    /// Does nothing: the cycle loop runs on the calling thread alone.
    /// Kept only so that callers written for the retired threaded engine
    /// still compile; it will be removed.
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Enables periodic checkpointing: every `every` cycles the simulator
    /// snapshots the complete machine state into
    /// `<dir>/ckpt-<cycle>.vksnap`, from which [`crate::Simulator::resume`]
    /// continues bit-identically. `every = 0` disables checkpointing (the
    /// default). Tests pass explicit values here instead of relying on the
    /// `VKSIM_CHECKPOINT_EVERY` / `VKSIM_CHECKPOINT_DIR` overrides.
    pub fn with_checkpoint(mut self, every: u64, dir: impl Into<String>) -> Self {
        self.gpu.checkpoint_every = every;
        self.gpu.checkpoint_dir = Some(dir.into());
        self
    }

    /// Enables cycle-accounting (the `VKSIM_PROF` profiler): every SM
    /// cycle is attributed to exactly one stall category, with the
    /// breakdown available as [`crate::RunReport::prof`]. Independent of
    /// event tracing; tests pass an explicit flag here instead of relying
    /// on the `VKSIM_PROF` environment override.
    pub fn with_accounting(mut self, on: bool) -> Self {
        self.gpu.trace.accounting = on;
        self
    }

    /// Enables ray-traversal analytics (the `VKSIM_RT_ANALYTICS`
    /// characterization layer): per-BVH-node heatmaps, per-ray
    /// histograms, warp traversal coherence and RT-unit job attribution,
    /// available as [`crate::RunReport::rt`]. Independent of event
    /// tracing and cycle accounting; tests pass an explicit flag here
    /// instead of relying on the environment override.
    pub fn with_rt_analytics(mut self, on: bool) -> Self {
        self.gpu.trace.rt_analytics = on;
        self
    }

    /// Enables independent thread scheduling (§IV-B).
    pub fn with_its(mut self, its: bool) -> Self {
        self.gpu.divergence = if its {
            DivergenceMode::Multipath
        } else {
            DivergenceMode::Stack
        };
        self
    }

    /// Resolves to the concrete GPU configuration.
    pub fn resolve(&self) -> GpuConfig {
        let mut gpu = self.gpu.clone();
        match self.memory_mode {
            MemoryMode::Baseline => {}
            MemoryMode::RtCache => {
                gpu.rt_cache = Some(CacheConfig {
                    name: "RTC".into(),
                    size_bytes: 32 * 1024,
                    line_bytes: 32,
                    assoc: 8,
                    hit_latency: 10,
                    mshr_entries: 64,
                    mshr_merge: 8,
                });
            }
            MemoryMode::PerfectBvh => gpu.perfect_bvh = true,
            MemoryMode::PerfectMem => {
                gpu.mem.dram = DramConfig {
                    perfect: true,
                    ..gpu.mem.dram
                };
            }
        }
        gpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_modes_resolve_distinctly() {
        let base = SimConfig::baseline().resolve();
        assert!(base.rt_cache.is_none() && !base.perfect_bvh && !base.mem.dram.perfect);
        let rtc = SimConfig::baseline()
            .with_memory_mode(MemoryMode::RtCache)
            .resolve();
        assert!(rtc.rt_cache.is_some());
        let pbvh = SimConfig::baseline()
            .with_memory_mode(MemoryMode::PerfectBvh)
            .resolve();
        assert!(pbvh.perfect_bvh);
        let pmem = SimConfig::baseline()
            .with_memory_mode(MemoryMode::PerfectMem)
            .resolve();
        assert!(pmem.mem.dram.perfect);
    }

    #[test]
    fn builders_compose() {
        let c = SimConfig::mobile().with_rt_max_warps(12).with_its(true);
        let g = c.resolve();
        assert_eq!(g.rt_unit.max_warps, 12);
        assert_eq!(g.divergence, DivergenceMode::Multipath);
        assert_eq!(g.num_sms, 8);
        // The observer switches set no output path.
        let t = SimConfig::test_small()
            .with_accounting(true)
            .with_rt_analytics(true)
            .gpu
            .trace;
        assert!(t.accounting && t.rt_analytics);
        assert!(t.prof.is_none() && t.rt.is_none() && t.rt_heatmap.is_none());
    }

    #[test]
    fn paper_and_partition_builders() {
        let p = SimConfig::paper().resolve();
        assert_eq!(p.num_sms, 48);
        assert_eq!(p.mem.num_partitions, 8);
        let mut c = SimConfig::test_small();
        c.gpu.mem.num_partitions = 4;
        c.gpu.mem.dram.sched = vksim_mem::DramSched::fr_fcfs_paper();
        let c = c.resolve();
        assert_eq!(c.mem.num_partitions, 4);
        assert!(matches!(
            c.mem.dram.sched,
            vksim_mem::DramSched::FrFcfs { .. }
        ));
    }

    #[test]
    fn rt_warps_clamped_to_one() {
        assert_eq!(
            SimConfig::baseline()
                .with_rt_max_warps(0)
                .resolve()
                .rt_unit
                .max_warps,
            1
        );
    }
}
