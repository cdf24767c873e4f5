//! Fault-injection drills: every injected fault must end in a classified
//! [`SimError`] with a parseable post-mortem dump — never a hang past the
//! watchdog window and never a raw panic.
//!
//! One scenario per fault class (see DESIGN.md "Fault model & watchdog"):
//!
//! * dropped memory completion — a lost MSHR wakeup wedges its warp;
//! * stalled warp — a scheduler that never picks a Ready warp livelocks;
//! * worker panic — a panicking SM tick becomes a classified fault;
//! * truncated program — the pc walks off the end of the instruction list;
//! * corrupted BVH child pointer — traversal hits an out-of-range node.

use std::collections::BTreeMap;
use vksim_core::{HangClass, SimConfig, SimError, SimFailure, Simulator, WorkerPanicSpec};
use vksim_scenes::{build, Scale, WorkloadKind};
use vksim_testkit::json::parse_flat_u64_object;
use vksim_testkit::prop::{check_with, u64_in, Config};

/// Reads and parses the failure's post-mortem dump, asserting it exists
/// and is a flat `{"name": u64}` JSON object.
fn read_dump(failure: &SimFailure) -> BTreeMap<String, u64> {
    let path = failure
        .dump
        .as_ref()
        .expect("every classified fault writes a post-mortem dump");
    let text = std::fs::read_to_string(path).expect("dump file is readable");
    parse_flat_u64_object(&text).expect("dump is flat JSON")
}

#[test]
fn dropped_completion_is_a_classified_hang() {
    let w = build(WorkloadKind::Tri, Scale::Test);
    let mut cfg = SimConfig::test_small();
    cfg.gpu.watchdog_cycles = 4_000;
    cfg.gpu.fault_plan.drop_nth_completion = Some(3);
    let failure = Simulator::new(cfg)
        .run(&w.device, &w.cmd)
        .expect_err("a lost wakeup must wedge the waiting warp");
    let SimError::Hang { class, window, .. } = failure.error else {
        panic!("expected a hang, got {failure}");
    };
    assert_eq!(
        class,
        HangClass::ScoreboardWedge,
        "no warp is issuable and the memory system is idle"
    );
    assert_eq!(window, 4_000);
    let dump = read_dump(&failure);
    assert!(dump.contains_key("fault.kind"));
    assert!(
        dump.keys().any(|k| k.starts_with("sm0.")),
        "dump snapshots per-SM state"
    );
    let report = failure.report.expect("timing fault keeps partial stats");
    assert!(report.gpu.counters.get("gpu.faults") >= 1);
}

#[test]
fn stalled_warp_is_a_simt_livelock() {
    let w = build(WorkloadKind::Tri, Scale::Test);
    let mut cfg = SimConfig::test_small();
    cfg.gpu.watchdog_cycles = 2_000;
    cfg.gpu.fault_plan.stall_warp = Some(0);
    let failure = Simulator::new(cfg)
        .run(&w.device, &w.cmd)
        .expect_err("an unschedulable Ready warp must livelock");
    assert!(
        matches!(
            failure.error,
            SimError::Hang {
                class: HangClass::SimtLivelock,
                ..
            }
        ),
        "{failure}"
    );
    read_dump(&failure);
}

#[test]
fn worker_panic_is_contained_on_the_serial_engine() {
    let w = build(WorkloadKind::Tri, Scale::Test);
    let mut cfg = SimConfig::test_small();
    cfg.gpu.fault_plan.worker_panic = Some(WorkerPanicSpec { sm: 1, cycle: 10 });
    let failure = Simulator::new(cfg)
        .run(&w.device, &w.cmd)
        .expect_err("injected panic must surface as an error");
    let SimError::WorkerPanicked { sm, ref detail } = failure.error else {
        panic!("expected WorkerPanicked, got {failure}");
    };
    assert_eq!(sm, 1);
    assert!(detail.contains("injected worker panic"), "{detail}");
    read_dump(&failure);
}

#[test]
fn truncated_program_faults_in_the_timing_model() {
    let mut w = build(WorkloadKind::Tri, Scale::Test);
    w.cmd.program = w.cmd.program.truncated(w.cmd.program.len() / 2);
    let failure = Simulator::new(SimConfig::test_small())
        .run(&w.device, &w.cmd)
        .expect_err("half a program cannot reach Exit");
    let SimError::Exec { pc, ref detail, .. } = failure.error else {
        panic!("expected an execution fault, got {failure}");
    };
    assert!(u64::from(pc) >= 1, "faulting pc is recorded");
    assert!(!detail.is_empty());
    read_dump(&failure);
}

#[test]
fn corrupted_bvh_child_pointer_is_an_exec_fault() {
    let mut w = build(WorkloadKind::Ext, Scale::Test);
    // The device's one BLAS copy is shared by every run; corrupt it
    // before any run takes a reference.
    let blases = std::sync::Arc::make_mut(&mut w.device.blases);
    let corrupted = blases.iter_mut().any(|blas| {
        for node in &mut blas.bvh.nodes {
            if let vksim_bvh::node::Node::Internal(internal) = node {
                internal.children[0] = 9_999;
                return true;
            }
        }
        false
    });
    assert!(corrupted, "EXT has at least one internal BLAS node");
    let mut sim = Simulator::new(SimConfig::test_small());
    let functional = sim
        .run_functional(&w.device, &w.cmd)
        .expect_err("traversal must reject the wild pointer");
    // The functional tier's dump names the failing thread and pc.
    let SimError::Exec { warp, lane, pc, .. } = functional.error else {
        panic!("expected an execution fault, got {functional}");
    };
    let dump = read_dump(&functional);
    let thread = u64::from(warp) * 32 + lane as u64;
    assert_eq!(
        dump.into_iter().collect::<Vec<_>>(),
        [
            ("fault.kind".to_string(), functional.error.kind_code()),
            ("fault.pc".to_string(), u64::from(pc)),
            ("fault.thread".to_string(), thread),
        ]
    );
    let timing = sim
        .run(&w.device, &w.cmd)
        .expect_err("the timing tier traverses the same corrupt BLAS");
    for failure in [functional, timing] {
        let SimError::Exec { ref detail, .. } = failure.error else {
            panic!("expected an execution fault, got {failure}");
        };
        assert!(
            detail.contains("acceleration structure traversal failed"),
            "{detail}"
        );
        read_dump(&failure);
    }
}

/// Property: dropping the Nth completion, for any N, either finishes the
/// run normally (the drop was past the last delivery) or ends in a
/// classified hang with a parseable dump — never an unclassified failure.
#[test]
fn any_dropped_completion_terminates_classified() {
    let w = build(WorkloadKind::Tri, Scale::Test);
    let cfg = Config {
        cases: 16,
        max_shrink_iters: 32,
        seed: 11,
    };
    check_with(cfg, &u64_in(1, 60), |&n| {
        let mut sim_cfg = SimConfig::test_small();
        sim_cfg.gpu.watchdog_cycles = 4_000;
        sim_cfg.gpu.fault_plan.drop_nth_completion = Some(n);
        match Simulator::new(sim_cfg).run(&w.device, &w.cmd) {
            Ok(_) => Ok(()),
            Err(failure) => {
                if !matches!(failure.error, SimError::Hang { .. }) {
                    return Err(format!("drop {n}: unclassified failure: {failure}"));
                }
                let path = failure
                    .dump
                    .as_ref()
                    .ok_or_else(|| format!("drop {n}: no post-mortem dump"))?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("drop {n}: unreadable dump: {e}"))?;
                parse_flat_u64_object(&text)
                    .map_err(|e| format!("drop {n}: unparseable dump: {e}"))?;
                Ok(())
            }
        }
    });
}
