//! Memory-system micro-benchmarks: the partitioned backend against the
//! monolithic one on a shared request stream, and FR-FCFS against FCFS on
//! a row-locality-heavy DRAM stream. Throughput only — the timing results
//! themselves are covered by unit tests and goldens.

use vksim_gpu::GpuConfig;
use vksim_mem::{
    AccessKind, Dram, DramConfig, DramIssue, DramSched, MemRequest, MemSink, RequestQueue,
    SharedMemSystem, SystemConfig,
};
use vksim_testkit::{black_box, Bench, Pcg32};

/// Drives `n` read chunks, one every `gap` cycles, through a backend and
/// advances until idle; returns the number of completions (consumed by
/// `black_box`).
///
/// A gap of 8 paces submissions below the saturation point: a saturated
/// backend spends its time in the (seed-identical) MSHR retry loop, which
/// would swamp the partitioning/scheduling costs those entries compare. A
/// gap of 0 is that regime on purpose.
fn drive_system(config: SystemConfig, n: u64, gap: u64) -> u64 {
    let mut sys = SharedMemSystem::new(config);
    let mut rng = Pcg32::new(0x5EED_0000_0000_0001);
    let mut completions = 0u64;
    let mut cycle = 0u64;
    for i in 0..n {
        // Mixed stream: mostly streaming lines with some reuse.
        let addr = if rng.bool_with(0.25) {
            rng.u64_below(64) * 32
        } else {
            (i % 4096) * 32
        };
        sys.submit(
            MemRequest {
                id: i,
                addr,
                kind: AccessKind::ShaderLoad,
                is_store: false,
            },
            cycle,
        );
        cycle += gap;
        completions += sys.advance_to(cycle).len() as u64;
    }
    while !sys.is_idle() {
        cycle += 64;
        completions += sys.advance_to(cycle).len() as u64;
    }
    completions
}

/// The same paced stream as [`drive_system`], but offered through an
/// SM-side [`RequestQueue`] into a *bounded* interconnect, so the
/// refusal / head-of-line / re-offer path is on the measured profile.
fn drive_system_backpressured(config: SystemConfig, n: u64) -> u64 {
    let mut sys = SharedMemSystem::new(config);
    let mut queue = RequestQueue::new();
    let mut rng = Pcg32::new(0x5EED_0000_0000_0001);
    let mut completions = 0u64;
    let mut cycle = 0u64;
    for i in 0..n {
        let addr = if rng.bool_with(0.25) {
            rng.u64_below(64) * 32
        } else {
            (i % 4096) * 32
        };
        queue.submit(
            MemRequest {
                id: i,
                addr,
                kind: AccessKind::ShaderLoad,
                is_store: false,
            },
            cycle,
        );
        cycle += 8;
        completions += sys.advance_to(cycle).len() as u64;
        queue.drain_into(&mut sys);
    }
    while !sys.is_idle() || !queue.is_empty() {
        cycle += 64;
        completions += sys.advance_to(cycle).len() as u64;
        queue.drain_into(&mut sys);
    }
    completions
}

/// Drives a row-locality-heavy stream (runs of same-row chunks) straight
/// into a DRAM array; returns a checksum of completion cycles.
fn drive_dram(sched: DramSched, n: u64) -> u64 {
    let mut d = Dram::new(DramConfig {
        channels: 2,
        banks_per_channel: 4,
        sched,
        ..DramConfig::default()
    });
    let mut rng = Pcg32::new(0x5EED_0000_0000_0002);
    let mut sum = 0u64;
    let mut now = 0u64;
    for _ in 0..n / 8 {
        let row_base = rng.u64_below(256) * 2048;
        for c in 0..8 {
            now += 1;
            match d.submit(row_base + c * 32, now) {
                DramIssue::Done(done) => sum += done,
                DramIssue::Queued(_) => {}
            }
        }
        for (_, done) in d.run_schedule(now) {
            sum += done;
        }
    }
    for (_, done) in d.run_schedule(u64::MAX) {
        sum += done;
    }
    sum
}

fn main() {
    let mut b = Bench::new("mem");

    b.bench("system/monolithic_1p", || {
        black_box(drive_system(SystemConfig::default(), 2048, 8))
    });
    b.bench("system/partitioned_4p", || {
        black_box(drive_system(
            SystemConfig {
                num_partitions: 4,
                ..SystemConfig::default()
            },
            2048,
            8,
        ))
    });
    // The paper machine's backend with the whole stream offered at once:
    // the L2 slices run out of MSHR entries and merge slots, so host time
    // is the reservation-fail retry path.
    b.bench("system/l2_starved_8p", || {
        black_box(drive_system(GpuConfig::paper().mem, 1024, 0))
    });

    b.bench("system/backpressured_4p", || {
        black_box(drive_system_backpressured(
            SystemConfig {
                num_partitions: 4,
                icnt_queue_depth: 8,
                icnt_return_credits: 4,
                ..SystemConfig::default()
            },
            2048,
        ))
    });

    b.bench("dram/fcfs", || black_box(drive_dram(DramSched::Fcfs, 2048)));
    b.bench("dram/fr_fcfs", || {
        black_box(drive_dram(DramSched::fr_fcfs_paper(), 2048))
    });

    b.finish();
}
