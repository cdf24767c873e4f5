//! GPU configuration (paper Table III).

use vksim_fault::FaultPlan;
use vksim_mem::{CacheConfig, SystemConfig};
use vksim_rtunit::RtUnitConfig;
use vksim_trace::TraceConfig;

/// How branch divergence is handled (paper §IV-B).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DivergenceMode {
    /// Immediate-post-dominator SIMT stack (baseline).
    #[default]
    Stack,
    /// Independent thread scheduling via multi-path tables (ITS).
    Multipath,
}

/// Full GPU configuration.
#[derive(Clone, Debug)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: usize,
    /// 32-bit registers per SM (bounds occupancy).
    pub registers_per_sm: u32,
    /// Per-SM L1 data cache.
    pub l1: CacheConfig,
    /// Optional dedicated RT cache (Fig. 15 "RT cache" configuration).
    pub rt_cache: Option<CacheConfig>,
    /// Shared L2 + DRAM backend.
    pub mem: SystemConfig,
    /// RT unit configuration (one per SM).
    pub rt_unit: RtUnitConfig,
    /// Divergence handling.
    pub divergence: DivergenceMode,
    /// Zero-latency BVH accesses (Fig. 15 "Perfect BVH" limit study).
    pub perfect_bvh: bool,
    /// SFU operation latency (sqrt/sin/cos/div).
    pub sfu_latency: u32,
    /// Core clock in MHz (reporting only; the model counts core cycles).
    pub core_clock_mhz: u32,
    /// Safety bound on simulated cycles.
    pub max_cycles: u64,
    /// Forward-progress watchdog window in cycles: if no instruction
    /// issues, no warp retires and no memory completion arrives for this
    /// many consecutive cycles, the run fails with a classified hang
    /// instead of spinning to `max_cycles`. `0` disables the watchdog.
    /// Run override: `VKSIM_WATCHDOG` ([`ENV_OVERRIDES`]).
    pub watchdog_cycles: u64,
    /// Deterministic fault-injection switches (tests and fault drills);
    /// the default plan injects nothing.
    pub fault_plan: FaultPlan,
    /// Periodic checkpoint interval in cycles: every multiple of this, the
    /// simulator core snapshots the complete machine state so a killed run
    /// can resume bit-identically. `0` (the default) disables
    /// checkpointing — the run is a single uninterrupted slice.
    /// Run override: `VKSIM_CHECKPOINT_EVERY` ([`ENV_OVERRIDES`]).
    pub checkpoint_every: u64,
    /// Directory receiving `ckpt-<cycle>.vksnap` checkpoint files; `None`
    /// uses the current directory. Run override: `VKSIM_CHECKPOINT_DIR`
    /// ([`ENV_OVERRIDES`]).
    pub checkpoint_dir: Option<String>,
    /// Checkpoint retention: after each successful checkpoint write, prune
    /// all but the newest `n` `ckpt-*.vksnap` files in the checkpoint
    /// directory. `0` (the default) keeps every checkpoint. Run override:
    /// `VKSIM_CHECKPOINT_KEEP` ([`ENV_OVERRIDES`]).
    pub checkpoint_keep: u64,
    /// The observers: cycle-level tracing (timeline events + interval
    /// metrics), cycle accounting and RT analytics, with their output
    /// paths. All off by default. Run overrides: the `VKSIM_TRACE*`,
    /// `VKSIM_PROF` and `VKSIM_RT_*` rows of [`ENV_OVERRIDES`].
    pub trace: TraceConfig,
}

/// Applies one run override's value to a configuration; `true` when it
/// did.
pub type EnvSetter = fn(&mut GpuConfig, &str) -> bool;

/// Every run-time override, declared once: the variable and the setter
/// that applies its value. [`GpuConfig::with_env_overrides`] reads each
/// variable, and the `experiments` binary spells each one as a flag
/// (`VKSIM_TRACE_CSV` is `--trace-csv=`).
///
/// A number is applied when it parses after trimming. A path is applied,
/// as given, when it is not blank. An applied path or interval turns on
/// its observer: the trace variables turn on `trace.enabled`,
/// `VKSIM_PROF` turns on `trace.accounting`, and the two RT paths turn on
/// `trace.rt_analytics`. Any other value leaves the configuration alone.
#[rustfmt::skip]
pub const ENV_OVERRIDES: [(&str, EnvSetter); 11] = [
    ("VKSIM_WATCHDOG",         |c, v| number(&mut c.watchdog_cycles, v)),
    ("VKSIM_CHECKPOINT_EVERY", |c, v| number(&mut c.checkpoint_every, v)),
    ("VKSIM_CHECKPOINT_KEEP",  |c, v| number(&mut c.checkpoint_keep, v)),
    ("VKSIM_CHECKPOINT_DIR",   |c, v| path(&mut c.checkpoint_dir, v)),
    ("VKSIM_TRACE",            |c, v| on(&mut c.trace.enabled, path(&mut c.trace.out, v))),
    ("VKSIM_TRACE_INTERVAL",   |c, v| on(&mut c.trace.enabled, number(&mut c.trace.interval, v))),
    ("VKSIM_TRACE_CSV",        |c, v| on(&mut c.trace.enabled, path(&mut c.trace.csv, v))),
    ("VKSIM_TRACE_SUMMARY",    |c, v| on(&mut c.trace.enabled, path(&mut c.trace.summary, v))),
    ("VKSIM_PROF",             |c, v| on(&mut c.trace.accounting, path(&mut c.trace.prof, v))),
    ("VKSIM_RT_ANALYTICS",     |c, v| on(&mut c.trace.rt_analytics, path(&mut c.trace.rt, v))),
    ("VKSIM_RT_HEATMAP",       |c, v| on(&mut c.trace.rt_analytics, path(&mut c.trace.rt_heatmap, v))),
];

fn number<T: std::str::FromStr>(field: &mut T, value: &str) -> bool {
    value.trim().parse().map(|n| *field = n).is_ok()
}

fn path(field: &mut Option<String>, value: &str) -> bool {
    let applied = !value.trim().is_empty();
    if applied {
        *field = Some(value.to_string());
    }
    applied
}

/// Turns `switch` on when a value was applied; passes `applied` through.
fn on(switch: &mut bool, applied: bool) -> bool {
    *switch |= applied;
    applied
}

impl GpuConfig {
    /// The paper's baseline configuration (Table III): 30 SMs, 32 warps/SM,
    /// 64 K registers, 64 KB fully associative L1, 3 MB 16-way L2,
    /// 1365 MHz, 1 RT unit per SM with 4 concurrent warps.
    pub fn baseline() -> Self {
        GpuConfig {
            num_sms: 30,
            max_warps_per_sm: 32,
            registers_per_sm: 65536,
            l1: CacheConfig::l1d_baseline(),
            rt_cache: None,
            mem: SystemConfig::default(),
            rt_unit: RtUnitConfig::default(),
            divergence: DivergenceMode::Stack,
            perfect_bvh: false,
            sfu_latency: 4,
            core_clock_mhz: 1365,
            max_cycles: 2_000_000_000,
            watchdog_cycles: 0,
            fault_plan: FaultPlan::default(),
            checkpoint_every: 0,
            checkpoint_dir: None,
            checkpoint_keep: 0,
            trace: TraceConfig::default(),
        }
    }

    /// The paper-scale configuration used for Table IV / Fig. 12 fidelity:
    /// 48 SMs, a 4 MB 16-way L2 sliced across 8 memory partitions, 8 DRAM
    /// channels (one per partition) under FR-FCFS scheduling.
    pub fn paper() -> Self {
        GpuConfig {
            num_sms: 48,
            mem: SystemConfig {
                l2: CacheConfig {
                    size_bytes: 4 * 1024 * 1024,
                    mshr_entries: 512,
                    ..CacheConfig::l2_baseline()
                },
                dram: vksim_mem::DramConfig {
                    channels: 8,
                    sched: vksim_mem::DramSched::fr_fcfs_paper(),
                    ..vksim_mem::DramConfig::default()
                },
                num_partitions: 8,
                ..SystemConfig::default()
            },
            ..Self::baseline()
        }
    }

    /// The paper's mobile configuration: 8 SMs, 32 K registers, less DRAM
    /// bandwidth.
    pub fn mobile() -> Self {
        GpuConfig {
            num_sms: 8,
            registers_per_sm: 32768,
            mem: SystemConfig {
                dram: vksim_mem::DramConfig::mobile(),
                ..SystemConfig::default()
            },
            ..Self::baseline()
        }
    }

    /// Returns this configuration with every [`ENV_OVERRIDES`] variable
    /// that is set applied by its setter.
    ///
    /// The environment is read here and nowhere else: a run applies this
    /// once, before it fingerprints the configuration and builds the
    /// machine, and everything after reads plain fields.
    pub fn with_env_overrides(mut self) -> Self {
        for (name, set) in ENV_OVERRIDES {
            if let Ok(value) = std::env::var(name) {
                set(&mut self, &value);
            }
        }
        self
    }

    /// The machine this configuration simulates: every run-harness field
    /// (cycle bound, watchdog, fault plan, checkpoint cadence, directory
    /// and retention, trace output paths) at its neutral value. Two
    /// configurations with equal `simulated()` build the same machine
    /// state, so its `Debug` string is what a checkpoint fingerprints.
    pub fn simulated(&self) -> GpuConfig {
        GpuConfig {
            max_cycles: 0,
            watchdog_cycles: 0,
            fault_plan: FaultPlan::default(),
            checkpoint_every: 0,
            checkpoint_dir: None,
            checkpoint_keep: 0,
            trace: self.trace.without_outputs(),
            ..self.clone()
        }
    }

    /// Resident warps per SM given a program's register demand.
    pub fn occupancy_limit(&self, regs_per_thread: u32) -> usize {
        if regs_per_thread == 0 {
            return self.max_warps_per_sm;
        }
        let by_regs = self.registers_per_sm / (crate::WARP_SIZE as u32 * regs_per_thread);
        (by_regs as usize).clamp(1, self.max_warps_per_sm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_iii() {
        let c = GpuConfig::baseline();
        assert_eq!(c.num_sms, 30);
        assert_eq!(c.max_warps_per_sm, 32);
        assert_eq!(c.registers_per_sm, 65536);
        assert_eq!(c.l1.size_bytes, 64 * 1024);
        assert_eq!(c.mem.l2.size_bytes, 3 * 1024 * 1024);
        assert_eq!(c.rt_unit.max_warps, 4);
        assert_eq!(c.core_clock_mhz, 1365);
    }

    #[test]
    fn paper_scale_is_partitioned() {
        let p = GpuConfig::paper();
        assert_eq!(p.num_sms, 48);
        assert_eq!(p.mem.num_partitions, 8);
        assert_eq!(p.mem.dram.channels, 8);
        assert_eq!(p.mem.l2.size_bytes, 4 * 1024 * 1024);
        assert!(matches!(
            p.mem.dram.sched,
            vksim_mem::DramSched::FrFcfs { .. }
        ));
    }

    /// The known coverage defect, pinned: every partition hands its L2
    /// slice and its DRAM group the global address, so the partition bits
    /// stay in the slice's set index and in the channel. On `paper()` one
    /// slice's lines reach 128 of its 1 024 sets (the 4 MiB L2 acts as
    /// 512 KiB), and with 4 partitions over 8 channels one group's lines
    /// reach 1 of its 2 channels. ROADMAP item 2 step 2 strips the
    /// partition bits; both numbers then become full coverage.
    #[test]
    fn partition_bits_leak_into_slice_sets_and_group_channels() {
        use std::collections::BTreeSet;
        use vksim_mem::{AddrMap, Cache};
        let mem = GpuConfig::paper().mem;
        let addrs = (0..1u64 << 20).step_by(32);
        let map = AddrMap::new(&mem);
        let slice = Cache::new(mem.l2.sliced(mem.num_partitions));
        let geometry = slice.config();
        let slice_sets = geometry.size_bytes / u64::from(geometry.line_bytes * geometry.assoc);
        let sets: BTreeSet<usize> = addrs
            .clone()
            .filter(|&a| map.partition(a) == 0)
            .map(|a| slice.set_index(slice.line_of(map.slice_addr(a))))
            .collect();
        assert_eq!((sets.len(), slice_sets), (128, 1024));

        let map = AddrMap::new(&SystemConfig {
            num_partitions: 4,
            ..mem
        });
        let channels: BTreeSet<u32> = addrs
            .filter(|&a| map.partition(a) == 0)
            .map(|a| map.dram(a).channel)
            .collect();
        assert_eq!((channels.len(), map.group_channels()), (1, 2));
    }

    #[test]
    fn mobile_is_smaller() {
        let m = GpuConfig::mobile();
        assert_eq!(m.num_sms, 8);
        assert_eq!(m.registers_per_sm, 32768);
        assert!(m.mem.dram.channels < GpuConfig::baseline().mem.dram.channels);
    }

    #[test]
    fn watchdog_disabled_and_plan_empty_by_default() {
        let c = GpuConfig::baseline();
        assert_eq!(c.watchdog_cycles, 0);
        assert!(c.fault_plan.is_empty());
    }

    /// The only test of this crate that touches the process environment,
    /// and this crate's tests run no `Simulator`, so nothing races it.
    /// Every [`ENV_OVERRIDES`] entry is set, blank and an unparsable
    /// number in turn, and the result must be exactly its effect or none.
    #[test]
    fn env_overrides_apply_and_clean_env_is_inert() {
        // What each variable does to a config when it is applied with
        // value `v`; a number is given " 7 ".
        type Effect = fn(&mut GpuConfig, &str);
        let effects: [(&str, bool, Effect); 11] = [
            ("VKSIM_WATCHDOG", false, |c, _| c.watchdog_cycles = 7),
            ("VKSIM_CHECKPOINT_EVERY", false, |c, _| {
                c.checkpoint_every = 7
            }),
            ("VKSIM_CHECKPOINT_KEEP", false, |c, _| c.checkpoint_keep = 7),
            ("VKSIM_CHECKPOINT_DIR", true, |c, v| {
                c.checkpoint_dir = Some(v.into())
            }),
            ("VKSIM_TRACE", true, |c, v| {
                c.trace.enabled = true;
                c.trace.out = Some(v.into());
            }),
            ("VKSIM_TRACE_INTERVAL", false, |c, _| {
                c.trace.enabled = true;
                c.trace.interval = 7;
            }),
            ("VKSIM_TRACE_CSV", true, |c, v| {
                c.trace.enabled = true;
                c.trace.csv = Some(v.into());
            }),
            ("VKSIM_TRACE_SUMMARY", true, |c, v| {
                c.trace.enabled = true;
                c.trace.summary = Some(v.into());
            }),
            ("VKSIM_PROF", true, |c, v| {
                c.trace.accounting = true;
                c.trace.prof = Some(v.into());
            }),
            ("VKSIM_RT_ANALYTICS", true, |c, v| {
                c.trace.rt_analytics = true;
                c.trace.rt = Some(v.into());
            }),
            ("VKSIM_RT_HEATMAP", true, |c, v| {
                c.trace.rt_analytics = true;
                c.trace.rt_heatmap = Some(v.into());
            }),
        ];
        assert_eq!(
            ENV_OVERRIDES.map(|(name, _)| name),
            effects.map(|(name, ..)| name)
        );
        let base = GpuConfig::baseline();
        let applied = || format!("{:?}", base.clone().with_env_overrides());
        for (name, _) in ENV_OVERRIDES {
            std::env::remove_var(name);
        }
        assert_eq!(
            applied(),
            format!("{base:?}"),
            "a clean environment is inert"
        );
        for (name, is_path, effect) in effects {
            for (value, applies) in [(" 7 ", true), ("  ", false), ("7x", is_path)] {
                std::env::set_var(name, value);
                let mut want = base.clone();
                if applies {
                    effect(&mut want, value);
                }
                assert_eq!(applied(), format!("{want:?}"), "{name}={value:?}");
                std::env::remove_var(name);
            }
        }
    }

    /// README "Environment overrides" has one table row per entry, in
    /// table order, and each row names the entry's `experiments` flag.
    #[test]
    fn readme_lists_every_env_override() {
        let readme = include_str!("../../../README.md");
        let section = readme
            .split("### Environment overrides")
            .nth(1)
            .and_then(|rest| rest.split("\n### ").next())
            .expect("README has an \"Environment overrides\" section");
        let rows: Vec<&str> = section
            .lines()
            .filter(|line| line.starts_with("| `VKSIM_"))
            .collect();
        let names: Vec<&str> = rows
            .iter()
            .filter_map(|row| row.split('`').nth(1))
            .collect();
        assert_eq!(names, ENV_OVERRIDES.map(|(name, _)| name));
        for (row, name) in rows.iter().zip(names) {
            let flag = name["VKSIM_".len()..].to_lowercase().replace('_', "-");
            assert!(
                row.contains(&format!("`--{flag}=")),
                "no `--{flag}=` in {row}"
            );
        }
    }

    #[test]
    fn occupancy_limited_by_registers() {
        let c = GpuConfig::baseline();
        // 64 regs/thread: 65536 / (32*64) = 32 warps -> full occupancy.
        assert_eq!(c.occupancy_limit(64), 32);
        // 256 regs/thread: 8 warps.
        assert_eq!(c.occupancy_limit(256), 8);
        // Tiny program: capped at max.
        assert_eq!(c.occupancy_limit(4), 32);
        // Enormous program: at least one warp.
        assert_eq!(c.occupancy_limit(100_000), 1);
    }
}
