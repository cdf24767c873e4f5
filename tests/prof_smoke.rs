//! Schema + conservation validation for the `VKSIM_PROF` flat-JSON export.
//!
//! Two modes:
//!
//! * Self-contained (default): runs the TRI workload with accounting on,
//!   exports the breakdown to a temp file through the same
//!   `VKSIM_PROF`-driven path the CLI uses, and validates it.
//! * CI smoke: when `VKSIM_PROF_SMOKE_FILE` names a file (written by a
//!   separate `vksim-experiments --prof=...` invocation in
//!   `scripts/ci.sh`), validates that file instead — proving the whole
//!   binary-to-disk pipeline, not just the library path.
//!
//! Validation is the profiler's external contract: the file parses with
//! the testkit's strict flat-JSON reader, carries the documented key
//! schema, and conserves — merged categories sum to `num_sms × cycles`
//! and per-SM keys roll up exactly into the `total.*` keys.

use std::collections::BTreeMap;
use vksim_bench::run_workload;
use vksim_core::SimConfig;
use vksim_scenes::{Scale, WorkloadKind};
use vksim_testkit::json::parse_flat_u64_object;

const CATEGORIES: [&str; 7] = [
    "issued",
    "mem_stall",
    "rt_stall",
    "icnt_stall",
    "simt_sync",
    "no_eligible_warp",
    "drained",
];

/// Asserts the documented schema and the conservation invariant on a
/// parsed flat prof export.
fn validate(m: &BTreeMap<String, u64>) {
    let cycles = *m.get("cycles").expect("`cycles` key");
    let num_sms = *m.get("num_sms").expect("`num_sms` key");
    assert!(cycles > 0 && num_sms > 0);
    assert!(m.contains_key("issued_insts"));
    assert!(m.contains_key("issued_lanes"));

    // Conservation: Σ total.<cat> == num_sms × cycles, exactly.
    let merged: u64 = CATEGORIES
        .iter()
        .map(|c| *m.get(&format!("total.{c}")).expect("total category key"))
        .sum();
    assert_eq!(
        merged,
        num_sms * cycles,
        "cycle accounting leaked: Σ total.* != num_sms × cycles"
    );
    assert!(m.contains_key("total.resident_warp_cycles"));
    assert!(m.contains_key("total.eligible_warp_cycles"));

    // Per-SM keys exist for every SM and roll up exactly into total.*.
    for cat in CATEGORIES {
        let per_sm: u64 = (0..num_sms)
            .map(|i| *m.get(&format!("sm{i}.{cat}")).expect("per-SM category key"))
            .sum();
        assert_eq!(per_sm, m[&format!("total.{cat}")], "sm*.{cat} roll-up");
    }

    // No undocumented keys: everything is one of the fixed scalars, a
    // total.* key, or an sm<i>.* key for a valid SM index.
    let field_ok = |f: &str| {
        CATEGORIES.contains(&f) || f == "resident_warp_cycles" || f == "eligible_warp_cycles"
    };
    for k in m.keys() {
        let ok = matches!(
            k.as_str(),
            "cycles" | "num_sms" | "issued_insts" | "issued_lanes"
        ) || k.strip_prefix("total.").is_some_and(field_ok)
            || k.strip_prefix("sm").is_some_and(|rest| {
                rest.split_once('.').is_some_and(|(idx, field)| {
                    idx.parse::<u64>().is_ok_and(|i| i < num_sms) && field_ok(field)
                })
            });
        assert!(ok, "undocumented key in prof export: {k}");
    }
}

#[test]
fn prof_export_parses_and_conserves() {
    let text = match std::env::var("VKSIM_PROF_SMOKE_FILE") {
        // CI mode: validate the file a separate experiments run produced.
        Ok(path) => std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("VKSIM_PROF_SMOKE_FILE {path} unreadable: {e}")),
        // Self-contained mode: export through the library path ourselves.
        Err(_) => {
            let dir = std::env::temp_dir().join(format!("vksim-prof-smoke-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("prof.json");
            let mut config = SimConfig::test_small().with_accounting(true);
            config.gpu.trace.prof = Some(path.to_str().unwrap().into());
            let (_, report) = run_workload(WorkloadKind::Tri, Scale::Test, config);
            assert!(report
                .prof
                .expect("accounting enabled")
                .conservation_holds());
            let text = std::fs::read_to_string(&path).expect("prof export written");
            std::fs::remove_dir_all(&dir).ok();
            text
        }
    };
    let m = parse_flat_u64_object(&text).expect("prof export parses as flat u64 JSON");
    validate(&m);
}
