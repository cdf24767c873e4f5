//! Regenerates the paper's tables and figures.
//!
//! ```text
//! vksim-experiments [EXPERIMENT] [--scale test|small|paper]
//!                   [--trace=FILE.json] [--trace-interval=CYCLES]
//!                   [--prof=FILE.json] [--prof-summary]
//!                   [--rt-analytics=FILE.json] [--rt-heatmap=FILE.csv]
//!                   [--rt-summary]
//! ```
//!
//! Without arguments, runs every experiment at test scale. Experiments:
//! `tab02 tab03 tab04 fig01 fig02 fig11 fig12 fig13 fig14 fig15 fig16
//! fig17 fig18 fig19 instmix energy`.
//!
//! `--trace=FILE.json` enables cycle-level tracing and writes a Chrome
//! trace-event file loadable in Perfetto (it maps to the `VKSIM_TRACE`
//! environment override, so every distinct run of the invocation
//! traces into the same file — trace a single experiment at a time).
//! `--trace-interval=CYCLES` sets the interval-metrics sampler period
//! (`VKSIM_TRACE_INTERVAL`).
//!
//! `--prof=FILE.json` enables per-SM cycle accounting and writes the
//! flat-JSON stall breakdown (it maps to `VKSIM_PROF`, so — like
//! `--trace` — profile a single experiment at a time; `-` prints to
//! stderr). `--prof-summary` runs every workload with accounting on and
//! prints the human-readable stall table: top stall category, SIMT
//! efficiency, achieved vs peak IPC and warp occupancy.
//!
//! `--rt-analytics=FILE.json` enables ray-traversal analytics and writes
//! the flat-JSON characterization (maps to `VKSIM_RT_ANALYTICS`; `-`
//! prints to stderr); `--rt-heatmap=FILE.csv` writes the per-BVH-node
//! visit/hit heatmap (`VKSIM_RT_HEATMAP`). `--rt-summary` runs every
//! workload with analytics on and prints the human-readable traversal
//! table: rays traced, per-ray node/box/triangle work, heatmap
//! concentration, warp traversal coherence and RT-unit attribution.

use vksim_bench as x;
use vksim_core::SimConfig;
use vksim_scenes::{Scale, WorkloadKind};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--scale=small") {
        Scale::Small
    } else if args.iter().any(|a| a == "--scale=paper") {
        Scale::Paper
    } else {
        Scale::Test
    };
    // Trace flags become the environment overrides the engine already
    // honours, so the whole config plumbing stays in one place.
    for a in &args {
        if let Some(path) = a.strip_prefix("--trace=") {
            std::env::set_var("VKSIM_TRACE", path);
        } else if let Some(iv) = a.strip_prefix("--trace-interval=") {
            std::env::set_var("VKSIM_TRACE_INTERVAL", iv);
        } else if let Some(path) = a.strip_prefix("--prof=") {
            std::env::set_var("VKSIM_PROF", path);
        } else if let Some(path) = a.strip_prefix("--rt-analytics=") {
            std::env::set_var("VKSIM_RT_ANALYTICS", path);
        } else if let Some(path) = a.strip_prefix("--rt-heatmap=") {
            std::env::set_var("VKSIM_RT_HEATMAP", path);
        }
    }
    // One run table per invocation: a point several experiments share
    // is simulated once.
    let mut runs = x::Runs::new(scale);
    let print_summary = |rows: Vec<(String, String)>| {
        for (name, summary) in rows {
            println!("\n-- {name} --");
            for line in summary.lines() {
                println!("  {line}");
            }
        }
    };
    let prof_summary = args.iter().any(|a| a == "--prof-summary");
    if prof_summary {
        println!("== Cycle accounting: per-workload stall breakdown ==");
        print_summary(x::prof_summary_rows(&mut runs));
    }
    let rt_summary = args.iter().any(|a| a == "--rt-summary");
    if rt_summary {
        println!("== Ray-traversal analytics: per-workload characterization ==");
        print_summary(x::rt_summary_rows(&mut runs));
    }
    let which: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    // `--prof-summary` / `--rt-summary` alone are complete invocations;
    // named experiments can still be combined with them.
    let all = which.is_empty() && !prof_summary && !rt_summary;
    let want = |name: &str| all || which.contains(&name);

    if want("tab02") {
        println!("== Table II: custom PTX instructions ==");
        for (i, d) in [
            ("traverseAS", "Traverse the acceleration structure"),
            (
                "endTraceRay",
                "Pop traversal results stack and clear intersection table",
            ),
            ("rt_alloc_mem", "Allocate memory shared among shader stages"),
            ("load_ray_launch_id", "Load a unique ray ID for each thread"),
            (
                "intersectionExit",
                "Check for remaining pending intersections",
            ),
            (
                "getIntersectionShaderID",
                "Read a pending intersection's shader ID",
            ),
            (
                "getNextCoalescedCall",
                "FCC: read the next coalescing-buffer row",
            ),
            ("reportIntersectionEXT", "Commit a procedural hit"),
        ] {
            println!("  {i:<24} {d}");
        }
    }

    if want("tab03") {
        println!("\n== Table III: GPU configurations ==");
        for (name, c) in [
            ("baseline", SimConfig::baseline()),
            ("mobile", SimConfig::mobile()),
        ] {
            let g = &c.gpu;
            println!(
                "  {name:<9} SMs={:<3} maxWarps/SM={:<3} regs/SM={:<6} L1={}KB L2={}MB clk={}MHz rtWarps={}",
                g.num_sms,
                g.max_warps_per_sm,
                g.registers_per_sm,
                g.l1.size_bytes / 1024,
                g.mem.l2.size_bytes / 1024 / 1024,
                g.core_clock_mhz,
                g.rt_unit.max_warps
            );
        }
    }

    if want("tab04") {
        println!("\n== Table IV: workload summary ==");
        println!(
            "  {:<6} {:>9} {:>14} {:>12}",
            "scene", "BVH depth", "avg nodes/ray", "primitives"
        );
        for r in x::tab04_workloads(&mut runs) {
            println!(
                "  {:<6} {:>9} {:>14.1} {:>12}",
                r.name, r.bvh_depth, r.avg_nodes_per_ray, r.primitive_count
            );
        }
    }

    if want("fig01") {
        println!("\n== Fig. 1 (substituted): ray-tracing share of execution ==");
        for (name, frac) in x::fig01_frame_breakdown(&mut runs) {
            println!("  {name:<6} RT share = {:.1}%", frac * 100.0);
        }
    }

    if want("fig02") {
        println!("\n== Fig. 2: simulator vs reference pixel diff ==");
        for (name, diff) in x::fig02_pixel_diff(&mut runs) {
            println!("  {name:<6} {:.3}% of pixels differ", diff * 100.0);
        }
    }

    if want("instmix") {
        println!("\n== Instruction mix (§VI) ==");
        for (name, m) in x::instruction_mix_rows(&mut runs) {
            println!(
                "  {name:<6} ALU={:>5.1}% SFU={:>4.1}% MEM={:>5.1}% CTRL={:>5.1}% RT={:>4.1}% (trace {:.2}%)",
                m.alu * 100.0,
                m.sfu * 100.0,
                m.mem * 100.0,
                m.ctrl * 100.0,
                m.rt * 100.0,
                m.trace_ray * 100.0
            );
        }
    }

    if want("fig11") {
        println!("\n== Fig. 11: correlation vs hardware proxy (baseline config) ==");
        let c = x::correlation_study(&mut runs, &x::config_for_scale(scale));
        for (name, sim, hw) in &c.points {
            println!("  {name:<6} sim={sim:>12.0}  hw-proxy={hw:>12.0}");
        }
        println!(
            "  correlation = {:.1}%  slope = {:.2}",
            c.correlation * 100.0,
            c.slope
        );
    }

    if want("fig12") {
        println!("\n== Fig. 12: RT-unit roofline ==");
        for (name, (oi, perf, memb)) in x::fig12_roofline(&mut runs, &x::config_for_scale(scale)) {
            println!(
                "  {name:<6} intensity={oi:>7.2} ops/block  perf={perf:>7.3} ops/cycle  [{}]",
                if memb {
                    "memory-bound"
                } else {
                    "compute-bound"
                }
            );
        }
    }

    if want("fig13") {
        println!("\n== Fig. 13: EXT warp latency distribution in RT units ==");
        for (edge, count) in x::fig13_warp_latency(&mut runs) {
            println!("  [{:>8.0} cycles) {count}", edge);
        }
    }

    if want("fig14") {
        println!("\n== Fig. 14: cache access breakdown (L1D | L2) ==");
        for (name, [l1, l2]) in x::fig14_cache_breakdown(&mut runs) {
            println!(
                "  {name:<6} L1: hit(s/r)={}/{} cold={}/{} thrash={}/{} | L2: hit(s/r)={}/{} cold={}/{} thrash={}/{}",
                l1.shader_hits, l1.rt_hits, l1.shader_compulsory, l1.rt_compulsory,
                l1.shader_thrash, l1.rt_thrash,
                l2.shader_hits, l2.rt_hits, l2.shader_compulsory, l2.rt_compulsory,
                l2.shader_thrash, l2.rt_thrash
            );
        }
    }

    if want("fig15") {
        println!("\n== Fig. 15: execution time by memory configuration (normalized) ==");
        for (name, series) in x::fig15_memory_modes(&mut runs) {
            print!("  {name:<6}");
            for (mode, rel) in series {
                print!("  {mode}={rel:.2}");
            }
            println!();
        }
    }

    if want("fig16") {
        println!("\n== Fig. 16: DRAM efficiency/utilization vs RT-unit max warps (EXT) ==");
        let limits = [1usize, 2, 4, 8, 12, 16, 20];
        for (n, eff, util) in x::fig16_dram_sweep(&mut runs, WorkloadKind::Ext, &limits) {
            println!(
                "  warps={n:<3} efficiency={:.1}%  utilization={:.1}%",
                eff * 100.0,
                util * 100.0
            );
        }
    }

    if want("fig17") {
        println!("\n== Fig. 17: FCC and ITS case studies ==");
        let (speedup, base_eff, fcc_eff) = x::fig17_fcc(&mut runs);
        println!(
            "  FCC on RTV6 (mobile): speedup={speedup:.3}x  SIMT eff {:.1}% -> {:.1}%",
            base_eff * 100.0,
            fcc_eff * 100.0
        );
        for (name, s) in x::fig17_its(&mut runs) {
            println!("  ITS {name:<6} speedup = {s:.3}x");
        }
    }

    if want("fig18") {
        println!("\n== Fig. 18: RT-unit occupancy (EXT), stack vs ITS ==");
        let [stack, its] = x::fig18_occupancy(&mut runs);
        for (label, v) in [("stack:", stack), ("its:  ", its)] {
            let warps = v.iter().map(|&(_, w)| w as f64).sum::<f64>();
            let mean = if v.is_empty() {
                0.0
            } else {
                warps / v.len() as f64
            };
            println!(
                "  {label} {} samples, mean resident warps {mean:.2}",
                v.len()
            );
        }
    }

    if want("fig19") {
        println!("\n== Fig. 19: correlation study across tuned configurations ==");
        for (name, config) in x::fig19_configs(scale) {
            let c = x::correlation_study(&mut runs, &config);
            println!(
                "  config {name:<22} correlation={:.1}% slope={:.2}",
                c.correlation * 100.0,
                c.slope
            );
        }
    }

    if want("energy") {
        println!("\n== §VI-D: energy breakdown ==");
        for (name, comps) in x::energy_rows(&mut runs) {
            print!("  {name:<6}");
            for (c, frac) in comps {
                print!(" {c}={:.1}%", frac * 100.0);
            }
            println!();
        }
    }
}
