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

    /// Sets the cycle-level tracing configuration (timeline events,
    /// interval metrics, exporters). The default is off; tests pass an
    /// explicit config here instead of relying on the `VKSIM_TRACE_*`
    /// environment overrides.
    pub fn with_trace(mut self, trace: vksim_trace::TraceConfig) -> Self {
        self.gpu.trace = trace;
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

    /// Enables cycle-accounting and writes its flat-JSON breakdown to
    /// `path` at the end of the run (`-` prints to stderr).
    pub fn with_prof(mut self, path: impl Into<String>) -> Self {
        self.gpu.trace.accounting = true;
        self.gpu.trace.prof = Some(path.into());
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

    /// Enables RT analytics and writes its flat-JSON breakdown to `path`
    /// at the end of the run (`-` prints to stderr).
    pub fn with_rt(mut self, path: impl Into<String>) -> Self {
        self.gpu.trace.rt_analytics = true;
        self.gpu.trace.rt = Some(path.into());
        self
    }

    /// Enables RT analytics and writes the per-BVH-node heatmap CSV to
    /// `path` at the end of the run.
    pub fn with_rt_heatmap(mut self, path: impl Into<String>) -> Self {
        self.gpu.trace.rt_analytics = true;
        self.gpu.trace.rt_heatmap = Some(path.into());
        self
    }

    /// Sets how many periodic checkpoints to retain: after each
    /// successful checkpoint write, all but the newest `keep`
    /// `ckpt-*.vksnap` files are pruned from the checkpoint directory.
    /// `0` (the default) keeps every checkpoint.
    pub fn with_checkpoint_keep(mut self, keep: u64) -> Self {
        self.gpu.checkpoint_keep = keep;
        self
    }

    /// Sets the number of independent memory partitions (L2 slice + DRAM
    /// channel group each); `1` is the monolithic backend.
    pub fn with_partitions(mut self, n: u32) -> Self {
        self.gpu.mem.num_partitions = n.max(1);
        self
    }

    /// Selects the DRAM access scheduler (in-order FCFS or FR-FCFS).
    pub fn with_dram_sched(mut self, sched: vksim_mem::DramSched) -> Self {
        self.gpu.mem.dram.sched = sched;
        self
    }

    /// Bounds each memory partition's interconnect ingress queue to
    /// `depth` in-flight requests (`0` = unbounded, the historical model).
    /// A full queue backpressures the issuing SM.
    pub fn with_icnt_queue_depth(mut self, depth: u32) -> Self {
        self.gpu.mem.icnt_queue_depth = depth;
        self
    }

    /// Limits each partition's return path to `credits` concurrent
    /// completions in flight toward the SMs (`0` = unbounded).
    pub fn with_icnt_return_credits(mut self, credits: u32) -> Self {
        self.gpu.mem.icnt_return_credits = credits;
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
    }

    #[test]
    fn paper_and_partition_builders() {
        let p = SimConfig::paper().resolve();
        assert_eq!(p.num_sms, 48);
        assert_eq!(p.mem.num_partitions, 8);
        let c = SimConfig::test_small()
            .with_partitions(4)
            .with_dram_sched(vksim_mem::DramSched::fr_fcfs_paper())
            .resolve();
        assert_eq!(c.mem.num_partitions, 4);
        assert!(matches!(
            c.mem.dram.sched,
            vksim_mem::DramSched::FrFcfs { .. }
        ));
        assert_eq!(
            SimConfig::test_small()
                .with_partitions(0)
                .gpu
                .mem
                .num_partitions,
            1
        );
    }

    #[test]
    fn accounting_and_retention_builders() {
        let c = SimConfig::test_small()
            .with_prof("/tmp/p.json")
            .with_checkpoint_keep(3);
        assert!(c.gpu.trace.accounting);
        assert_eq!(c.gpu.trace.prof.as_deref(), Some("/tmp/p.json"));
        assert_eq!(c.gpu.checkpoint_keep, 3);
        let c = SimConfig::test_small().with_accounting(true);
        assert!(c.gpu.trace.accounting);
        assert!(c.gpu.trace.prof.is_none());
    }

    #[test]
    fn rt_analytics_builders() {
        let c = SimConfig::test_small()
            .with_rt("/tmp/rt.json")
            .with_rt_heatmap("/tmp/heat.csv");
        assert!(c.gpu.trace.rt_analytics);
        assert_eq!(c.gpu.trace.rt.as_deref(), Some("/tmp/rt.json"));
        assert_eq!(c.gpu.trace.rt_heatmap.as_deref(), Some("/tmp/heat.csv"));
        let c = SimConfig::test_small().with_rt_analytics(true);
        assert!(c.gpu.trace.rt_analytics);
        assert!(c.gpu.trace.rt.is_none() && c.gpu.trace.rt_heatmap.is_none());
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
