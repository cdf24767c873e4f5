//! Checkpoint/restore orchestration: configuration fingerprinting and
//! whole-machine snapshot payloads.
//!
//! A checkpoint captures *everything* the cycle loop needs to continue
//! bit-identically: every runtime shard's functional state (frame stacks,
//! replay scripts, FCC buffers, allocation cursor, statistics) followed by
//! the complete GPU machine state ([`GpuSim::save`]). The container
//! ([`vksim_snapshot::Snapshot`]) adds versioning and a checksum; this
//! module adds the *fingerprint* — a hash of everything architecturally
//! relevant — so a snapshot can only be resumed under the configuration,
//! program and scene that produced it. Knobs that do not affect simulated
//! state (watchdog, cycle bound, fault plan, checkpoint cadence, trace
//! output paths) are deliberately excluded, so a run checkpointed under a
//! watchdog can be resumed without one, and chaos-injected runs can
//! resume cleanly.

use crate::runtime::RtRuntime;
use vksim_fault::FaultPlan;
use vksim_gpu::{GpuConfig, GpuSim};
use vksim_snapshot::{fnv1a, fnv1a_init, save_each, Dec, Enc, SnapError};
use vksim_trace::TraceConfig;
use vksim_vulkan::{Device, TraceRaysCommand};

/// Fingerprints a (configuration, scene, command) triple.
///
/// Two runs share a fingerprint exactly when they would simulate the same
/// machine on the same work: the hash covers every architectural knob
/// (SM/cache/DRAM/RT-unit geometry, divergence mode, partitioning,
/// interconnect bounds), the trace *sampling* parameters (enabled,
/// interval, flight depth, event cap — these shape collector state inside
/// the snapshot), the full program text and launch header, and scene
/// shape (BLAS and TLAS instance counts). It excludes anything that only
/// controls how the run is driven or observed: `max_cycles`, the
/// watchdog, the fault plan, checkpoint cadence/directory, and trace
/// output file paths.
pub fn config_fingerprint(config: &GpuConfig, device: &Device, cmd: &TraceRaysCommand) -> u64 {
    let trace = &config.trace;
    let canonical = GpuConfig {
        max_cycles: 0,
        watchdog_cycles: 0,
        fault_plan: FaultPlan::default(),
        checkpoint_every: 0,
        checkpoint_dir: None,
        checkpoint_keep: 0,
        trace: TraceConfig {
            enabled: trace.enabled,
            out: None,
            csv: None,
            summary: None,
            interval: trace.interval,
            flight_depth: trace.flight_depth,
            max_events: trace.max_events,
            // Accounting and RT analytics shape per-SM snapshot state
            // (like `enabled` shapes collector state); the output paths
            // do not.
            accounting: trace.accounting,
            prof: None,
            rt_analytics: trace.rt_analytics,
            rt: None,
            rt_heatmap: None,
        },
        ..config.clone()
    };
    let instances = device.tlas.as_ref().map_or(0, |t| t.instances.len());
    let mut h = fnv1a_init();
    h = fnv1a(h, format!("{canonical:?}").as_bytes());
    h = fnv1a(h, crate::trace_io::dump_command(cmd).as_bytes());
    h = fnv1a(
        h,
        format!("blas={} instances={instances}", device.blases.len()).as_bytes(),
    );
    h
}

/// Builds the snapshot payload for the machine at a clean cycle boundary:
/// the runtime shard count (one per SM), every shard's functional state,
/// then the complete GPU state.
pub(crate) fn machine_payload(gpu: &GpuSim, shards: &[RtRuntime]) -> Vec<u8> {
    let mut e = Enc::new();
    save_each(shards, &mut e, RtRuntime::save);
    gpu.save(&mut e);
    e.into_bytes()
}

/// Restores a payload written by [`machine_payload`] into a freshly
/// launched machine.
///
/// # Errors
///
/// Returns [`SnapError::Malformed`] when the shard count disagrees with
/// the SM count (a foreign payload, or one written by an older build whose
/// one-thread runs kept a single runtime) or when any embedded state
/// disagrees with the resuming configuration; [`SnapError::Truncated`] on
/// a short payload.
pub(crate) fn restore_machine(
    gpu: &mut GpuSim,
    shards: &mut [RtRuntime],
    payload: &[u8],
) -> Result<(), SnapError> {
    let mut d = Dec::new(payload);
    let n = d.seq()?;
    if n != shards.len() {
        return Err(SnapError::Malformed(format!(
            "snapshot holds {n} runtime shard(s) but this machine has {} SMs \
             (one shard each)",
            shards.len()
        )));
    }
    for shard in shards.iter_mut() {
        shard.restore(&mut d)?;
    }
    gpu.restore(&mut d)?;
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use vksim_shader::builder::ShaderBuilder;
    use vksim_shader::ir::ShaderKind;
    use vksim_shader::PipelineShaders;

    fn tiny_cmd(width: u32) -> (Device, TraceRaysCommand) {
        let mut device = Device::new();
        let fb = device.alloc_buffer(u64::from(width) * 4);
        device.bind_descriptor(0, fb);
        let mut rg = ShaderBuilder::new(ShaderKind::RayGen);
        let x = rg.launch_id(0);
        let a = rg.var_u32(rg.buffer_base(0) + x.clone() * rg.c_u32(4));
        rg.store(rg.v(a), 0, x);
        let pipe = device
            .create_ray_tracing_pipeline(PipelineShaders::raygen_only(rg.finish()), false)
            .unwrap();
        let cmd = device.cmd_trace_rays(&pipe, width, 1);
        (device, cmd)
    }

    #[test]
    fn fingerprint_ignores_run_harness_knobs() {
        let (device, cmd) = tiny_cmd(32);
        let base = SimConfig::test_small().resolve();
        let mut harness = SimConfig::test_small().resolve();
        harness.watchdog_cycles = 50_000;
        harness.max_cycles = 123;
        harness.checkpoint_every = 1000;
        harness.checkpoint_dir = Some("/tmp/ckpts".into());
        harness.checkpoint_keep = 2;
        harness.fault_plan.stall_warp = Some(3);
        harness.trace.prof = Some("/tmp/prof.json".into());
        harness.trace.rt = Some("/tmp/rt.json".into());
        harness.trace.rt_heatmap = Some("/tmp/heatmap.csv".into());
        assert_eq!(
            config_fingerprint(&base, &device, &cmd),
            config_fingerprint(&harness, &device, &cmd),
            "harness knobs must not invalidate snapshots"
        );
    }

    #[test]
    fn fingerprint_tracks_architecture_and_command() {
        let (device, cmd) = tiny_cmd(32);
        let base = SimConfig::test_small().resolve();
        let mut bigger = SimConfig::test_small().resolve();
        bigger.num_sms = 4;
        assert_ne!(
            config_fingerprint(&base, &device, &cmd),
            config_fingerprint(&bigger, &device, &cmd),
            "SM count is architectural"
        );
        let (device2, cmd2) = tiny_cmd(64);
        assert_ne!(
            config_fingerprint(&base, &device, &cmd),
            config_fingerprint(&base, &device2, &cmd2),
            "launch dims are part of the work"
        );
        let mut acct = SimConfig::test_small().resolve();
        acct.trace.accounting = true;
        assert_ne!(
            config_fingerprint(&base, &device, &cmd),
            config_fingerprint(&acct, &device, &cmd),
            "accounting shapes per-SM snapshot state"
        );
        let mut rt = SimConfig::test_small().resolve();
        rt.trace.rt_analytics = true;
        assert_ne!(
            config_fingerprint(&base, &device, &cmd),
            config_fingerprint(&rt, &device, &cmd),
            "rt analytics shapes runtime and per-SM snapshot state"
        );
    }
}
