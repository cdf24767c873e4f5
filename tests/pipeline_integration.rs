//! Cross-crate integration: every workload runs under the cycle-level
//! timing model with consistent statistics.

use vksim_core::report::{instruction_mix, roofline_point, rt_roofline};
use vksim_core::{MemoryMode, SimConfig, Simulator};
use vksim_scenes::{build, Scale, WorkloadKind};

fn small_sim() -> Simulator {
    Simulator::new(SimConfig::test_small())
}

#[test]
fn all_workloads_complete_under_timing_model() {
    for kind in WorkloadKind::ALL {
        let w = build(kind, Scale::Test);
        let report = small_sim().run(&w.device, &w.cmd).expect("healthy run");
        assert!(report.gpu.cycles > 0, "{}", w.name);
        assert!(report.runtime.rays > 0, "{}", w.name);
        assert!(
            report.gpu.rt_busy_cycles > 0,
            "{} must use the RT units",
            w.name
        );
        assert!(report.gpu.simt_efficiency > 0.0 && report.gpu.simt_efficiency <= 1.0);
    }
}

#[test]
fn instruction_mix_is_alu_dominated_with_rare_traces() {
    // Paper §VI: ~60% ALU, ~25% memory, ~1% trace instructions.
    let w = build(WorkloadKind::Ext, Scale::Test);
    let report = small_sim().run(&w.device, &w.cmd).expect("healthy run");
    let mix = instruction_mix(&report.gpu);
    assert!(mix.alu > 0.35, "ALU share {:.2}", mix.alu);
    assert!(mix.alu > mix.mem, "ALU > memory share");
    assert!(
        mix.trace_ray < 0.10,
        "trace-ray share {:.3} should be small",
        mix.trace_ray
    );
}

#[test]
fn roofline_points_are_memory_bound() {
    // Paper Fig. 12: all workloads fall under the memory bound.
    let w = build(WorkloadKind::Ext, Scale::Test);
    let report = small_sim().run(&w.device, &w.cmd).expect("healthy run");
    let point = roofline_point(&report.gpu);
    let roof = rt_roofline(&SimConfig::test_small().gpu.rt_unit);
    assert!(
        roof.is_memory_bound(&point),
        "EXT should be memory bound: {point:?}"
    );
    assert!(roof.utilization(&point) <= 1.0);
}

#[test]
fn memory_limit_studies_order_correctly() {
    // Fig. 15: perfect memory <= perfect BVH <= baseline (within noise,
    // asserted loosely as "not slower by more than 5%").
    let w = build(WorkloadKind::Ref, Scale::Test);
    let base = small_sim()
        .run(&w.device, &w.cmd)
        .expect("healthy run")
        .gpu
        .cycles as f64;
    let pbvh = Simulator::new(SimConfig::test_small().with_memory_mode(MemoryMode::PerfectBvh))
        .run(&w.device, &w.cmd)
        .expect("healthy run")
        .gpu
        .cycles as f64;
    let pmem = Simulator::new(SimConfig::test_small().with_memory_mode(MemoryMode::PerfectMem))
        .run(&w.device, &w.cmd)
        .expect("healthy run")
        .gpu
        .cycles as f64;
    assert!(pbvh <= base * 1.05, "perfect BVH {pbvh} vs baseline {base}");
    assert!(pmem <= base * 1.05, "perfect mem {pmem} vs baseline {base}");
}

#[test]
fn rt_unit_warp_sweep_changes_behaviour() {
    // Fig. 16 mechanism: more concurrent RT warps -> more memory-level
    // parallelism; occupancy integral must grow (or at least not shrink)
    // with the limit.
    let w = build(WorkloadKind::Ref, Scale::Test);
    let one = Simulator::new(SimConfig::test_small().with_rt_max_warps(1))
        .run(&w.device, &w.cmd)
        .expect("healthy run");
    let eight = Simulator::new(SimConfig::test_small().with_rt_max_warps(8))
        .run(&w.device, &w.cmd)
        .expect("healthy run");
    let occ1 = one.gpu.rt_resident_warp_cycles as f64 / one.gpu.rt_busy_cycles.max(1) as f64;
    let occ8 = eight.gpu.rt_resident_warp_cycles as f64 / eight.gpu.rt_busy_cycles.max(1) as f64;
    assert!(
        occ8 >= occ1,
        "occupancy with 8 warps ({occ8:.2}) >= with 1 ({occ1:.2})"
    );
    assert!(
        occ1 <= 1.01,
        "with a 1-warp limit occupancy can't exceed 1: {occ1}"
    );
}

#[test]
fn power_breakdown_matches_paper_shape() {
    // §VI-D: RT units < 1% of power; constant+static dominate.
    let w = build(WorkloadKind::Ext, Scale::Test);
    let report = small_sim().run(&w.device, &w.cmd).expect("healthy run");
    assert!(report.power.fraction("rt_unit") < 0.05);
    let cs = report.power.fraction("constant") + report.power.fraction("static");
    assert!(cs > 0.3, "constant+static fraction {cs:.2}");
}

#[test]
fn dram_stats_are_populated() {
    let w = build(WorkloadKind::Ext, Scale::Test);
    let report = small_sim().run(&w.device, &w.cmd).expect("healthy run");
    assert!(report.gpu.dram_stats.get("req") > 0);
    assert!(report.gpu.dram_efficiency > 0.0 && report.gpu.dram_efficiency <= 1.0);
    assert!(report.gpu.dram_utilization > 0.0 && report.gpu.dram_utilization <= 1.0);
    assert!(report.gpu.dram_efficiency >= report.gpu.dram_utilization);
}

#[test]
fn timing_and_functional_images_agree() {
    for kind in [WorkloadKind::Tri, WorkloadKind::Ref] {
        let w = build(kind, Scale::Test);
        let mut sim = small_sim();
        let (fmem, _) = sim.run_functional(&w.device, &w.cmd).expect("healthy run");
        let report = sim.run(&w.device, &w.cmd).expect("healthy run");
        let n = (w.width * w.height) as usize;
        for i in 0..n {
            let a = fmem.read_u32(w.fb_addr + i as u64 * 4);
            let b = report.memory.read_u32(w.fb_addr + i as u64 * 4);
            assert_eq!(a, b, "{}: pixel {i} timing vs functional", w.name);
        }
    }
}

/// A scene of degenerate parts built through the public `Device` API: an
/// instance of an empty BLAS, a BLAS of zero-area triangles and of
/// triangles sharing one centroid, an instance of a one-triangle BLAS (a
/// single leaf under the root) in front of a corner of the image, and a
/// raygen whose column 0 traces a NaN direction. The functional tier and
/// the timing model on two machines must each end `Ok`, with equal images.
#[test]
fn degenerate_scene_runs_alike_in_both_tiers() {
    use vksim_bvh::geometry::{BlasGeometry, Triangle};
    use vksim_bvh::Instance;
    use vksim_math::{Mat4x3, Vec3};
    use vksim_shader::builder::ShaderBuilder;
    use vksim_shader::ir::{Builtin, ShaderKind};
    use vksim_shader::PipelineShaders;
    use vksim_vulkan::Device;

    const W: u32 = 48;
    const H: u32 = 8;
    const MISS: f32 = -1.0;
    let mut device = Device::new();
    let fb = device.alloc_buffer(u64::from(W * H) * 4);
    device.bind_descriptor(0, fb);
    let empty = device.create_blas(BlasGeometry::triangles(Vec::new()));
    let mut tris = Vec::new();
    for i in 0..16 {
        let p = Vec3::new(i as f32 * 0.1 - 0.8, 0.3, 0.0);
        // A point and a segment: zero area.
        tris.push(Triangle::new(p, p, p));
        tris.push(Triangle::new(p, p + Vec3::X * 0.05, p + Vec3::X * 0.1));
    }
    for i in 0..32 {
        // Distinct triangles, every one with its centroid at the origin.
        let (s, c) = (i as f32 * 0.196).sin_cos();
        let a = Vec3::new(c, s, 0.0);
        let b = Vec3::new(-0.5 * c - 0.866 * s, 0.866 * c - 0.5 * s, 0.0);
        tris.push(Triangle::new(a, b, -(a + b)));
    }
    let degenerate = device.create_blas(BlasGeometry::triangles(tris));
    let single = device.create_blas(BlasGeometry::triangles(vec![Triangle::new(
        Vec3::ZERO,
        Vec3::new(0.4, 0.0, 0.0),
        Vec3::new(0.4, 0.6, 0.0),
    )]));
    // World (0.7..1.1, -1.2..-0.6) at z = -1, clear of the fan's unit disk.
    let corner = Mat4x3::translation(Vec3::new(0.7, -1.2, -1.0));
    device.create_tlas(vec![
        Instance::new(empty, Mat4x3::IDENTITY),
        Instance::new(degenerate, Mat4x3::IDENTITY),
        Instance::new(single, corner),
    ]);

    let mut rg = ShaderBuilder::new(ShaderKind::RayGen);
    let x = rg.var_f32(rg.launch_id(0).to_f32());
    let y = rg.var_f32(rg.launch_id(1).to_f32());
    let ox = rg.var_f32(rg.v(x) / rg.c_f32(W as f32) * rg.c_f32(2.4) - rg.c_f32(1.2));
    let oy = rg.var_f32(rg.v(y) / rg.c_f32(H as f32) * rg.c_f32(2.4) - rg.c_f32(1.2));
    let nan_column = rg.launch_id(0).eq_(rg.c_u32(0));
    let dx = rg.var_f32(nan_column.select(rg.c_f32(f32::NAN), rg.c_f32(0.0)));
    rg.trace_ray(
        [rg.v(ox), rg.v(oy), rg.c_f32(-3.0)],
        [rg.v(dx), rg.c_f32(0.0), rg.c_f32(1.0)],
        rg.c_f32(1e-3),
        rg.c_f32(1e30),
        rg.c_u32(0),
        0,
    );
    let px = rg.var_u32(rg.launch_id(1) * rg.launch_size(0) + rg.launch_id(0));
    let addr = rg.var_u32(rg.buffer_base(0) + rg.v(px) * rg.c_u32(4));
    rg.store(rg.v(addr), 0, rg.payload(0));
    let mut ch = ShaderBuilder::new(ShaderKind::ClosestHit);
    ch.set_payload_in(
        0,
        ch.builtin(Builtin::HitT) + ch.builtin(Builtin::HitPrimitiveIndex).to_f32(),
    );
    let mut ms = ShaderBuilder::new(ShaderKind::Miss);
    ms.set_payload_in(0, ms.c_f32(MISS));
    let shaders = PipelineShaders {
        raygen: rg.finish(),
        miss: vec![ms.finish()],
        closest_hit: vec![ch.finish()],
        intersection: vec![],
        any_hit: vec![],
        max_recursion_depth: 1,
    };
    let pipeline = device
        .create_ray_tracing_pipeline(shaders, false)
        .expect("pipeline");
    let cmd = device.cmd_trace_rays(&pipeline, W, H);

    let image = |mem: &vksim_isa::SimMemory| -> Vec<u32> {
        (0..u64::from(W * H))
            .map(|i| mem.read_u32(fb + i * 4))
            .collect()
    };
    let functional = Simulator::new(SimConfig::test_small())
        .run_functional(&device, &cmd)
        .map(|(mem, _)| image(&mem));
    let timing = |config| {
        Simulator::new(config)
            .run(&device, &cmd)
            .map(|report| image(&report.memory))
    };
    let runs = [
        ("functional", functional),
        ("test_small", timing(SimConfig::test_small())),
        ("paper", timing(SimConfig::paper())),
    ];
    let images: Vec<(&str, Vec<u32>)> = runs
        .into_iter()
        .map(|(name, run)| (name, run.unwrap_or_else(|f| panic!("{name}: {}", f.error))))
        .collect();
    let (first, reference) = &images[0];
    for (name, img) in &images[1..] {
        assert!(img == reference, "{name} image differs from {first}");
    }
    let miss = MISS.to_bits();
    for row in 0..H as usize {
        assert_eq!(reference[row * W as usize], miss, "NaN column, row {row}");
    }
    assert!(
        reference.iter().any(|&p| p != miss),
        "the centroid fan is hit"
    );
    // Row 1 (y = -0.9), x = 0.95..1.05: primitive 0 of the one-leaf BLAS
    // at t = 2.
    for x in 43..=45 {
        let hit = f32::from_bits(reference[W as usize + x]);
        assert!((hit - 2.0).abs() < 1e-4, "one-leaf BLAS at x {x}: {hit}");
    }
}
