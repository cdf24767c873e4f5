//! The benchmark's contract: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the repo
//! root is generated from these tables (`bench spec`) and a unit test
//! fails when the two drift apart.

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// `(name, why)` of each workload.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "small5_sm2",
        "Issue-bound: TRI/REF/EXT/RTV5/RTV6 at Small scale on 2 SMs, 1 thread; >=90% of SM-cycles issue, so host time is per-instruction work (interpreter, Sm::issue, string-keyed counters, L1).",
    ),
    (
        "ext_paper_sm48",
        "RT-stall-bound: EXT at Paper scale (283k prims) on the 48-SM paper machine, 96x64 launch, 1 thread; ~87% rt_stall, so host time is per-SM-cycle work (idle Sm::tick, rtunit tick, mem advance_to).",
    ),
    (
        "ext_paper_sm48_t2",
        "Same scene and machine through the parallel two-phase engine (min(2,nproc) threads): measures the threads>=1.3x-or-delete rule; counters must equal the serial run.",
    ),
    (
        "func_paper5",
        "Bypasses the timing model: all five scenes at Paper scale, native 224x160 launch, run_functional; only interpreter + RtRuntime + BVH traversal, so timing-model work must not move it.",
    ),
];

/// An end-to-end metric: measured with tracing off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Exists only on the workloads that run the timing model. The driver
    /// wants every workload to report every metric of `BENCHMARK.json`, so
    /// these are left out of that file; the all-workloads summary and
    /// `bench compare` carry them for the three timing workloads.
    pub timing_only: bool,
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    timing_only: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        timing_only,
    }
}

/// The host-time bounds are the contract's maximum: a bound below the
/// run-to-run spread gets the benchmark refused, and plain passes of one
/// commit spread by 4-13 % over ten runs here (README.md, "Noise").
///
/// `image_match_frac` is 1 - the issue's `image_diff_frac` (the driver's
/// bounds are relative and its metrics may not read 0): the fraction of
/// TRI/REF/EXT pixels equal to the CPU reference, worst scene.
pub const END_TO_END: [EndToEnd; 7] = [
    metric("wall_s", "s", "lower", 0.25, false),
    metric("rays_per_s", "1/s", "higher", 0.25, false),
    metric("setup_s", "s", "lower", 0.25, false),
    metric("peak_rss_mb", "MiB", "lower", 0.10, false),
    metric("image_match_frac", "frac", "higher", 0.001, false),
    metric("sim_cycles_per_s", "1/s", "higher", 0.25, true),
    metric("warp_insts_per_s", "1/s", "higher", 0.25, true),
];

/// What a traced run reports for a per-layer metric that does not exist on
/// its workload (the driver wants a number for every name). No metric can
/// measure -1: all but two are non-negative, an overhead fraction of -1
/// would be a run that took no time, and `core.hwproxy_corr` is never an
/// exact anticorrelation. The all-workloads summary writes `null` instead.
pub const NOT_APPLICABLE: f64 = -1.0;

/// `(name, unit, better)` of each per-layer metric, reported by the traced
/// run; [`NOT_APPLICABLE`] where the workload does not exercise the layer.
pub const PER_LAYER: [(&str, &str, &str); 64] = [
    ("gpu.host_ns_per_sm_cycle", "ns", "lower"),
    ("gpu.host_ns_per_warp_inst", "ns", "lower"),
    ("gpu.sim_cycles_per_s", "1/s", "higher"),
    ("gpu.warp_insts_per_s", "1/s", "higher"),
    ("gpu.sim_cycles", "cycles", "lower"),
    ("gpu.issued_insts", "count", "lower"),
    ("gpu.ipc", "insts/cycle", "higher"),
    ("gpu.simt_efficiency", "frac", "higher"),
    ("gpu.counters_fnv", "hash", "lower"),
    ("gpu.stall.issued_frac", "frac", "higher"),
    ("gpu.stall.rt_stall_frac", "frac", "lower"),
    ("gpu.stall.mem_stall_frac", "frac", "lower"),
    ("gpu.stall.icnt_stall_frac", "frac", "lower"),
    ("gpu.stall.simt_sync_frac", "frac", "lower"),
    ("gpu.stall.no_eligible_frac", "frac", "lower"),
    ("gpu.stall.drained_frac", "frac", "lower"),
    ("rtunit.tick_ns", "ns", "lower"),
    ("rtunit.idle_tick_ns", "ns", "lower"),
    ("rtunit.steps_per_s", "1/s", "higher"),
    ("rtunit.replay_cycles", "cycles", "lower"),
    ("rtunit.busy_frac", "frac", "higher"),
    ("rtunit.simt_efficiency", "frac", "higher"),
    ("rtunit.warp_latency_mean", "cycles", "lower"),
    ("mem.replay_reqs_per_s", "1/s", "higher"),
    ("mem.busy_advance_ns", "ns", "lower"),
    ("mem.idle_advance_ns", "ns", "lower"),
    ("mem.bounded_replay_reqs_per_s", "1/s", "higher"),
    ("mem.l1_hit_rate", "frac", "higher"),
    ("mem.l2_hit_rate", "frac", "higher"),
    ("mem.dram_row_hit_rate", "frac", "higher"),
    ("mem.dram_efficiency", "frac", "higher"),
    ("mem.dram_reqs", "count", "lower"),
    ("isa.interp_minsts_per_s", "M/s", "higher"),
    ("isa.thread_insts", "count", "lower"),
    ("bvh.traverse_rays_per_s", "1/s", "higher"),
    ("bvh.traverse_ns_per_node", "ns", "lower"),
    ("bvh.blas_build_s", "s", "lower"),
    ("bvh.blas_build_prims_per_s", "1/s", "higher"),
    ("bvh.tlas_build_s", "s", "lower"),
    ("bvh.nodes_per_ray", "count", "lower"),
    ("bvh.box_tests_per_ray", "count", "lower"),
    ("bvh.tri_tests_per_ray", "count", "lower"),
    ("core.runtime_traverse_rays_per_s", "1/s", "higher"),
    ("core.timing_to_func_ratio", "ratio", "lower"),
    ("core.script_steps_per_ray", "count", "lower"),
    ("core.hwproxy_corr", "corr", "higher"),
    ("shader.translate_s", "s", "lower"),
    ("shader.program_insts", "count", "lower"),
    ("scenes.build_s", "s", "lower"),
    ("stats.counter_add_ns", "ns", "lower"),
    ("stats.histogram_record_ns", "ns", "lower"),
    ("trace.prof_overhead_frac", "frac", "lower"),
    ("trace.rt_analytics_overhead_frac", "frac", "lower"),
    ("trace.events_overhead_frac", "frac", "lower"),
    ("trace.events_recorded", "count", "lower"),
    ("trace.conservation_violations", "count", "lower"),
    ("trace.bench_overhead_frac", "frac", "lower"),
    ("snapshot.checkpoint_overhead_frac", "frac", "lower"),
    ("snapshot.write_ms", "ms", "lower"),
    ("snapshot.bytes", "bytes", "lower"),
    ("snapshot.resume_s", "s", "lower"),
    ("snapshot.resume_mismatch", "count", "lower"),
    ("parallel.t2_speedup", "ratio", "higher"),
    ("parallel.t2_counter_mismatch", "count", "lower"),
];

/// Whether `name` is an end-to-end metric only timing workloads have.
pub fn timing_only(name: &str) -> bool {
    END_TO_END.iter().any(|m| m.name == name && m.timing_only)
}

/// Unit of a metric, end-to-end or per-layer.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not in the spec tables"))
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    use vksim_testkit::json::escape;
    let mut s = String::from("{\n");
    s += "  \"command\": [\"bash\", \"benchmark/run.sh\"],\n";
    s += "  \"paths\": [\"benchmark\"],\n";
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    let rows = |rows: Vec<String>| rows.join(",\n");
    s += "  \"workloads\": [\n";
    s += &rows(
        WORKLOADS
            .iter()
            .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{}\"}}", escape(why)))
            .collect(),
    );
    s += "\n  ],\n  \"end_to_end\": [\n";
    s += &rows(
        END_TO_END
            .iter()
            .filter(|m| !m.timing_only)
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
    );
    s += "\n  ],\n  \"per_layer\": [\n";
    s += &rows(
        PER_LAYER
            .iter()
            .map(|(n, u, b)| {
                format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"}}")
            })
            .collect(),
    );
    s += "\n  ]\n}\n";
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use vksim_testkit::json::{parse_json, JsonValue};

    fn names(doc: &JsonValue, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("{key} is an array"))
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    /// The committed `BENCHMARK.json` is exactly what the tables generate,
    /// and parses to the same names the driver's tables hold.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(text, benchmark_json(), "regenerate with `bench spec`");
        let doc = parse_json(&text).expect("valid JSON");
        let JsonValue::Object(members) = &doc else {
            panic!("top level is an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            names(&doc, "workloads"),
            WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>()
        );
        assert_eq!(
            names(&doc, "end_to_end"),
            END_TO_END
                .iter()
                .filter(|m| !m.timing_only)
                .map(|m| m.name)
                .collect::<Vec<_>>()
        );
        assert_eq!(
            names(&doc, "per_layer"),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
    }

    /// The limits the driver refuses a file over.
    #[test]
    fn tables_respect_the_schema_limits() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (n, why) in WORKLOADS {
            assert!(name_ok(n) && seen.insert(n), "{n}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{n}: why is {} chars",
                why.len()
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        for m in &END_TO_END {
            assert!(
                name_ok(m.name) && seen.insert(m.name) && unit_ok(m.unit),
                "{}",
                m.name
            );
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(["lower", "higher"].contains(&m.better));
        }
        for (n, u, b) in PER_LAYER {
            assert!(name_ok(n) && seen.insert(n) && unit_ok(u), "{n}");
            assert!(["lower", "higher"].contains(&b));
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}
