//! The traced run: interleaved plain and observed passes of the workload,
//! then each layer driven alone through its public API on inputs taken from
//! the workload's own EXT scene. Layers are the crate names; every call into
//! one is wrapped in a span, and host-time metrics are medians of repeated
//! fixed-size replays, so the simulated (`*sim*`) values are exact for a
//! fixed seed while the host times carry the sandbox's noise.

use crate::span::Recorder;
use crate::spec::{NOT_APPLICABLE, PER_LAYER};
use crate::workloads::{
    check_images, counters_fnv, median, pass_wall, run_pass, run_scene, Def, Fnv, Mode, SceneRun,
    Tally,
};
use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use vksim_bvh::traversal::{traverse, TraversalConfig};
use vksim_bvh::{Blas, Tlas};
use vksim_core::hwproxy::{HwProxy, WorkloadProfile};
use vksim_core::{RtRuntime, RunReport, SimConfig, Simulator};
use vksim_gpu::ScriptSource;
use vksim_isa::interp::{run_to_exit, RayDesc};
use vksim_isa::op::{RtIdxQuery, RtQuery};
use vksim_isa::{RtError, RtHooks, ThreadState};
use vksim_mem::{
    chunk_addresses, AccessKind, MemRequest, MemSink, RequestQueue, SharedMemSystem, SystemConfig,
};
use vksim_rtunit::{RtMem, RtMemResult, RtUnit, RtUnitConfig, Step, WarpJob};
use vksim_scenes::Workload;
use vksim_stats::{pearson, Counters, Histogram};
use vksim_testkit::Pcg32;
use vksim_trace::CycleCategory;

/// Fewest interleaved rounds of the traced run's passes.
const MIN_ROUNDS: usize = 2;
/// Interleaved rounds of the observer study.
const OBSERVER_ROUNDS: usize = 5;
/// Seconds each of the 13 layer replays repeats its fixed work for.
const REPLAY_SLICE_S: f64 = 0.25;

/// Memory latency the stub behind the RT unit answers with.
const STUB_MEM_LATENCY: u64 = 200;

/// Per-layer metric values, every name of the spec table present.
struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    fn new() -> Self {
        Metrics(
            PER_LAYER
                .iter()
                .map(|&(n, _, _)| (n, NOT_APPLICABLE))
                .collect(),
        )
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the spec table"));
        slot.1 = if value.is_finite() {
            value
        } else {
            NOT_APPLICABLE
        };
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Repeats a fixed-size replay until its time slice is spent (once under
/// `--quick`); returns the median of the seconds each repetition reports.
fn repeat(quick: bool, mut rep: impl FnMut() -> f64) -> f64 {
    let begun = Instant::now();
    let mut times = Vec::new();
    loop {
        times.push(rep());
        if quick || begun.elapsed().as_secs_f64() >= REPLAY_SLICE_S || times.len() >= 100 {
            return median(&times);
        }
    }
}

/// Hit rate of a cache's counter bag (merged keys only, not the
/// per-partition `p<i>.` copies).
fn hit_rate(bag: &Counters) -> f64 {
    let (mut hits, mut misses) = (0u64, 0u64);
    for (name, value) in bag.iter() {
        let per_partition = name
            .strip_prefix('p')
            .is_some_and(|rest| rest.starts_with(|c: char| c.is_ascii_digit()));
        if per_partition {
            continue;
        }
        if name.ends_with(".hit") {
            hits += value;
        } else if name.contains(".miss_") {
            misses += value;
        }
    }
    ratio(hits as f64, (hits + misses) as f64)
}

fn reports(runs: &[SceneRun]) -> impl Iterator<Item = &RunReport> {
    runs.iter().filter_map(|r| r.report.as_ref())
}

/// `gpu`, `rtunit` and `mem` values that are arithmetic on the run reports
/// of a plain and an observed pass; `wall_s` is the median plain pass.
fn report_metrics(
    m: &mut Metrics,
    plain: &[SceneRun],
    observed: &[SceneRun],
    wall_s: f64,
    num_sms: usize,
) {
    let wall_ns = wall_s * 1e9;
    let cycles: u64 = reports(plain).map(|r| r.gpu.cycles).sum();
    let insts: u64 = reports(plain).map(|r| r.gpu.issued_insts).sum();
    let sm_cycles = cycles as f64 * num_sms as f64;
    m.set("gpu.host_ns_per_sm_cycle", ratio(wall_ns, sm_cycles));
    m.set("gpu.host_ns_per_warp_inst", ratio(wall_ns, insts as f64));
    m.set("gpu.sim_cycles_per_s", ratio(cycles as f64 * 1e9, wall_ns));
    m.set("gpu.warp_insts_per_s", ratio(insts as f64 * 1e9, wall_ns));
    m.set("gpu.sim_cycles", cycles as f64);
    m.set("gpu.issued_insts", insts as f64);
    m.set("gpu.ipc", ratio(insts as f64, cycles as f64));
    let lanes: f64 = reports(plain)
        .map(|r| r.gpu.simt_efficiency * r.gpu.issued_insts as f64)
        .sum();
    m.set("gpu.simt_efficiency", ratio(lanes, insts as f64));
    let mut h = Fnv::new();
    reports(plain).for_each(|r| h.u64(counters_fnv(&r.gpu)));
    m.set("gpu.counters_fnv", h.finish52() as f64);

    let mut categories = [0u64; vksim_trace::NUM_CATEGORIES];
    let mut violations = 0u64;
    for r in reports(observed) {
        if let Some(prof) = &r.prof {
            violations += u64::from(!prof.conservation_holds());
            for (sum, c) in categories.iter_mut().zip(prof.merged().categories()) {
                *sum += c;
            }
        }
        if let Some(rt) = &r.rt {
            violations += u64::from(!rt.conservation_holds());
        }
    }
    let total: u64 = categories.iter().sum();
    for cat in CycleCategory::ALL {
        let name = match cat {
            CycleCategory::NoEligibleWarp => "gpu.stall.no_eligible_frac".to_string(),
            other => format!("gpu.stall.{}_frac", other.name()),
        };
        m.set(&name, ratio(categories[cat as usize] as f64, total as f64));
    }
    m.set("trace.conservation_violations", violations as f64);

    let busy: u64 = reports(plain).map(|r| r.gpu.rt_busy_cycles).sum();
    m.set("rtunit.busy_frac", ratio(busy as f64, sm_cycles));
    let resident: u64 = reports(plain).map(|r| r.gpu.rt_resident_warp_cycles).sum();
    let active: f64 = reports(plain)
        .map(|r| r.gpu.rt_simt_efficiency * r.gpu.rt_resident_warp_cycles as f64)
        .sum();
    m.set("rtunit.simt_efficiency", ratio(active, resident as f64));
    let mut latency = Histogram::new(1000.0);
    reports(plain).for_each(|r| latency.merge(&r.gpu.rt_warp_latency));
    m.set("rtunit.warp_latency_mean", latency.mean());

    let (mut l1, mut l2) = (Counters::new(), Counters::new());
    for r in reports(plain) {
        l1.merge(&r.gpu.l1_stats);
        l2.merge(&r.gpu.l2_stats);
    }
    m.set("mem.l1_hit_rate", hit_rate(&l1));
    m.set("mem.l2_hit_rate", hit_rate(&l2));
    let reqs: u64 = reports(plain).map(|r| r.gpu.dram_stats.get("req")).sum();
    let row_hits: u64 = reports(plain)
        .map(|r| r.gpu.dram_stats.get("row_hit"))
        .sum();
    let eff: f64 = reports(plain)
        .map(|r| r.gpu.dram_efficiency * r.gpu.dram_stats.get("req") as f64)
        .sum();
    m.set("mem.dram_row_hit_rate", ratio(row_hits as f64, reqs as f64));
    m.set("mem.dram_efficiency", ratio(eff, reqs as f64));
    m.set("mem.dram_reqs", reqs as f64);
}

/// Up to `count` primary rays spread evenly over the launch, starting at a
/// seeded pixel.
fn sample_rays(w: &Workload, count: usize, rng: &mut Pcg32) -> Vec<RayDesc> {
    let total = (w.width * w.height) as usize;
    let n = count.min(total);
    let stride = total / n;
    let first = rng.usize_range(0, total - 1);
    (0..n)
        .map(|i| {
            let pixel = ((first + i * stride) % total) as u32;
            let ray = w
                .camera
                .primary_ray(pixel % w.width, pixel / w.width, w.width, w.height);
            RayDesc {
                origin: ray.origin.into(),
                dir: ray.dir.into(),
                t_min: ray.t_min,
                t_max: 1e30,
                flags: 0,
            }
        })
        .collect()
}

/// RT-unit memory port that never hits: every chunk completes
/// [`STUB_MEM_LATENCY`] cycles later through `on_mem_complete`.
struct DelayMem {
    next_token: u64,
    pending: VecDeque<(u64, u64)>,
}

impl RtMem for DelayMem {
    fn load_chunk(&mut self, _addr: u64, now: u64) -> RtMemResult {
        self.next_token += 1;
        self.pending
            .push_back((now + STUB_MEM_LATENCY, self.next_token));
        RtMemResult::Pending {
            token: self.next_token,
        }
    }

    fn store_chunk(&mut self, _addr: u64, _now: u64) {}
}

/// Replays the warp jobs through one RT unit, keeping it as full as
/// `max_warps` allows; returns `(seconds, cycles ticked)`.
fn replay_rtunit(config: &RtUnitConfig, jobs: &[WarpJob]) -> (f64, u64) {
    let mut queue: VecDeque<WarpJob> = jobs.to_vec().into();
    let mut unit = RtUnit::new(config.clone());
    let mut mem = DelayMem {
        next_token: 0,
        pending: VecDeque::new(),
    };
    let (mut now, mut done) = (0u64, 0usize);
    let start = Instant::now();
    while done < jobs.len() && now < 100_000_000 {
        while unit.has_capacity() {
            match queue.pop_front() {
                Some(job) => unit.try_enqueue(job, now),
                None => break,
            };
        }
        while mem.pending.front().is_some_and(|&(due, _)| due <= now) {
            let (_, token) = mem.pending.pop_front().expect("checked non-empty");
            unit.on_mem_complete(token, now);
        }
        done += unit.tick(now, &mut mem).len();
        now += 1;
    }
    (start.elapsed().as_secs_f64(), now)
}

/// Drives a request stream through the shared L2 + DRAM backend, one
/// request every 4 cycles, `advance_to` every cycle; `bounded` offers the
/// stream through an SM-side `RequestQueue` into a credit-limited
/// interconnect. Returns `(seconds, advance_to calls, completions)`.
fn replay_mem(config: &SystemConfig, addrs: &[u64], bounded: bool) -> (f64, u64, usize) {
    let mut sys = SharedMemSystem::new(config.clone());
    let mut queue = RequestQueue::new();
    let (mut cycle, mut completions) = (0u64, 0usize);
    let start = Instant::now();
    let step = |sys: &mut SharedMemSystem, queue: &mut RequestQueue, cycle: &mut u64| {
        *cycle += 1;
        let done = sys.advance_to(*cycle).len();
        if bounded {
            queue.drain_into(sys);
        }
        done
    };
    for (i, &addr) in addrs.iter().enumerate() {
        let req = MemRequest {
            id: i as u64,
            addr,
            kind: AccessKind::RtUnit,
            is_store: false,
        };
        if bounded {
            queue.submit(req, cycle);
        } else {
            sys.submit(req, cycle);
        }
        for _ in 0..4 {
            completions += step(&mut sys, &mut queue, &mut cycle);
        }
    }
    while (!sys.is_idle() || !queue.is_empty()) && cycle < 100_000_000 {
        completions += step(&mut sys, &mut queue, &mut cycle);
    }
    (start.elapsed().as_secs_f64(), cycle, completions)
}

/// `RtHooks` that reports a miss without traversing, so `run_to_exit`
/// measures the interpreter alone.
struct MissHooks {
    launch: [u32; 2],
    alloc_cursor: u64,
}

impl RtHooks for MissHooks {
    fn traverse(&mut self, _tid: usize, _ray: RayDesc) -> Result<(), RtError> {
        Ok(())
    }
    fn end_trace(&mut self, _tid: usize) {}
    fn alloc_mem(&mut self, _tid: usize, size: u32) -> u64 {
        let addr = self.alloc_cursor;
        self.alloc_cursor += u64::from(size).div_ceil(64) * 64;
        addr
    }
    fn query(&mut self, tid: usize, q: RtQuery) -> u32 {
        let [w, h] = self.launch;
        match q {
            RtQuery::LaunchId(0) => tid as u32 % w,
            RtQuery::LaunchId(1) => (tid as u32 / w) % h,
            RtQuery::LaunchSize(0) => w,
            RtQuery::LaunchSize(1) => h,
            RtQuery::LaunchSize(_) => 1,
            _ => 0,
        }
    }
    fn query_idx(&mut self, _tid: usize, _q: RtIdxQuery, _idx: u32) -> u32 {
        0
    }
    fn intersection_valid(&mut self, _tid: usize, _idx: u32) -> bool {
        false
    }
    fn next_coalesced_call(&mut self, _tid: usize, _idx: u32) -> u32 {
        u32::MAX
    }
    fn report_intersection(&mut self, _tid: usize, _idx: u32, _t: f32) -> Result<(), RtError> {
        Ok(())
    }
}

/// What the stages of one traced run share.
struct Traced<'a> {
    m: Metrics,
    rec: Recorder,
    tally: &'a mut Tally,
    quick: bool,
}

impl Traced<'_> {
    /// Drives `bvh`, `core`, `rtunit`, `mem`, `isa` and `stats` alone.
    fn layer_replays(&mut self, probe: &Workload, config: &SimConfig, seed: u64) {
        let (m, rec, tally, quick) = (&mut self.m, &mut self.rec, &mut *self.tally, self.quick);
        let shrink = if quick { 16 } else { 1 };
        let mut rng = Pcg32::new(seed ^ 0x9e37_79b9_7f4a_7c15);
        let rays = sample_rays(probe, 2048 / shrink, &mut rng);
        let tlas = probe.device.tlas.as_ref().expect("scene has a TLAS");
        let blases: Vec<&Blas> = probe.device.blases.iter().collect();

        // bvh: raw traversal, then rebuilding the device's own structures.
        let math_rays: Vec<vksim_math::Ray> = rays
            .iter()
            .map(|r| {
                vksim_math::Ray::with_interval(r.origin.into(), r.dir.into(), r.t_min, r.t_max)
            })
            .collect();
        let mut nodes = 0u64;
        let secs = repeat(quick, || {
            let (visited, secs) = rec.timed("bvh.traverse", || {
                math_rays
                    .iter()
                    .map(|ray| {
                        traverse(tlas, &blases, ray, &TraversalConfig::default())
                            .map_or(0, |r| u64::from(r.nodes_visited))
                    })
                    .sum::<u64>()
            });
            nodes = visited;
            secs
        });
        m.set("bvh.traverse_rays_per_s", ratio(rays.len() as f64, secs));
        m.set("bvh.traverse_ns_per_node", ratio(secs * 1e9, nodes as f64));
        let prims: usize = blases.iter().map(|b| b.geometry.primitive_count()).sum();
        let secs = repeat(quick, || {
            let geometry: Vec<_> = blases.iter().map(|b| b.geometry.clone()).collect();
            rec.timed("bvh.blas_build", || {
                geometry.into_iter().for_each(|g| {
                    black_box(Blas::build(g));
                })
            })
            .1
        });
        m.set("bvh.blas_build_s", secs);
        m.set("bvh.blas_build_prims_per_s", ratio(prims as f64, secs));
        let secs = repeat(quick, || {
            let instances = tlas.instances.clone();
            rec.timed("bvh.tlas_build", || {
                black_box(Tlas::build(instances, &blases));
            })
            .1
        });
        m.set("bvh.tlas_build_s", secs);

        // core: traversal plus script recording through the RT runtime.
        let mut scripts: Vec<Vec<Step>> = Vec::new();
        let mut stats = None;
        let secs = repeat(quick, || {
            let mut runtime = RtRuntime::new(
                tlas.clone(),
                probe.device.blases.clone(),
                [probe.width, probe.height, 1],
                false,
            );
            let (recorded, secs) = rec.timed("core.runtime_traverse", || {
                rays.iter()
                    .enumerate()
                    .map(|(tid, &ray)| {
                        let ok = runtime.traverse(tid, ray).is_ok();
                        let script = runtime.take_script(tid);
                        runtime.end_trace(tid);
                        ok.then_some(script)
                    })
                    .collect::<Option<Vec<_>>>()
            });
            tally.attempted += 1;
            match recorded {
                Some(s) => scripts = s,
                None => tally.fail("core.runtime_traverse: traversal failed".into()),
            }
            stats = Some(runtime.stats.clone());
            secs
        });
        let stats = stats.expect("at least one repetition ran");
        let traced = stats.rays as f64;
        let steps: usize = scripts.iter().map(Vec::len).sum();
        m.set("core.runtime_traverse_rays_per_s", ratio(traced, secs));
        m.set("core.script_steps_per_ray", ratio(steps as f64, traced));
        m.set(
            "bvh.nodes_per_ray",
            ratio(stats.nodes_visited as f64, traced),
        );
        m.set(
            "bvh.box_tests_per_ray",
            ratio(stats.box_tests as f64, traced),
        );
        m.set(
            "bvh.tri_tests_per_ray",
            ratio(stats.triangle_tests as f64, traced),
        );

        // rtunit: the recorded scripts, 32 lanes a warp, behind a stub memory.
        let jobs: Vec<WarpJob> = scripts
            .chunks(32)
            .enumerate()
            .map(|(i, lanes)| WarpJob {
                warp_id: i as u32,
                scripts: lanes.to_vec(),
            })
            .collect();
        let rt_config = config.gpu.rt_unit.clone();
        let mut cycles = 0u64;
        let secs = repeat(quick, || {
            let ((secs, ticked), _) =
                rec.timed("rtunit.replay", || replay_rtunit(&rt_config, &jobs));
            cycles = ticked;
            secs
        });
        m.set("rtunit.tick_ns", ratio(secs * 1e9, cycles as f64));
        m.set("rtunit.steps_per_s", ratio(steps as f64, secs));
        m.set("rtunit.replay_cycles", cycles as f64);
        let idle_ticks = 400_000 / shrink as u64;
        let secs = repeat(quick, || {
            let mut unit = RtUnit::new(rt_config.clone());
            let mut mem = DelayMem {
                next_token: 0,
                pending: VecDeque::new(),
            };
            rec.timed("rtunit.idle_ticks", || {
                for now in 0..idle_ticks {
                    black_box(unit.tick(now, &mut mem));
                }
            })
            .1
        });
        m.set("rtunit.idle_tick_ns", ratio(secs * 1e9, idle_ticks as f64));

        // mem: the scripts' fetch chunks through the L2 + DRAM backend.
        let addrs: Vec<u64> = scripts
            .iter()
            .flatten()
            .filter_map(|step| match *step {
                Step::Fetch { addr, size, .. } => Some(chunk_addresses(addr, size)),
                Step::Store { .. } => None,
            })
            .flatten()
            .take(32_768 / shrink)
            .collect();
        let sys_config = config.gpu.mem.clone();
        let bounded_config = SystemConfig {
            icnt_queue_depth: 8,
            icnt_return_credits: 4,
            ..sys_config.clone()
        };
        for (bounded, cfg, span) in [
            (false, &sys_config, "mem.replay"),
            (true, &bounded_config, "mem.replay_bounded"),
        ] {
            let mut calls = 0u64;
            let secs = repeat(quick, || {
                let ((secs, advances, completions), _) =
                    rec.timed(span, || replay_mem(cfg, &addrs, bounded));
                tally.attempted += 1;
                if completions != addrs.len() {
                    tally.fail(format!(
                        "{span}: {completions} completions for {} requests",
                        addrs.len()
                    ));
                }
                calls = advances;
                secs
            });
            if bounded {
                m.set(
                    "mem.bounded_replay_reqs_per_s",
                    ratio(addrs.len() as f64, secs),
                );
            } else {
                m.set("mem.replay_reqs_per_s", ratio(addrs.len() as f64, secs));
                m.set("mem.busy_advance_ns", ratio(secs * 1e9, calls as f64));
            }
        }
        let idle_advances = 400_000 / shrink as u64;
        let secs = repeat(quick, || {
            let mut sys = SharedMemSystem::new(sys_config.clone());
            rec.timed("mem.idle_advance", || {
                for cycle in 1..=idle_advances {
                    black_box(sys.advance_to(cycle));
                }
            })
            .1
        });
        m.set(
            "mem.idle_advance_ns",
            ratio(secs * 1e9, idle_advances as f64),
        );

        // isa: the scene's program against hooks that always miss.
        let program = &probe.cmd.program;
        let threads = (4096 / shrink).min((probe.width * probe.height) as usize);
        let mut thread_insts = 0u64;
        let secs = repeat(quick, || {
            let mut mem = probe.device.memory.clone();
            let mut hooks = MissHooks {
                launch: [probe.width, probe.height],
                alloc_cursor: 0x6000_0000,
            };
            let (steps, secs) = rec.timed("isa.run_to_exit", || {
                (0..threads)
                    .map(|tid| {
                        let mut t = ThreadState::with_tid(
                            program.num_regs(),
                            program.num_preds().max(1),
                            tid,
                        );
                        run_to_exit(program, &mut t, &mut mem, &mut hooks).ok()
                    })
                    .sum::<Option<u64>>()
            });
            tally.attempted += 1;
            match steps {
                Some(n) => thread_insts = n,
                None => tally.fail("isa.run_to_exit: interpreter error".into()),
            }
            secs
        });
        m.set(
            "isa.interp_minsts_per_s",
            ratio(thread_insts as f64 / 1e6, secs),
        );
        m.set("isa.thread_insts", thread_insts as f64);

        // stats: increments over 64 pre-inserted keys shaped like today's.
        let keys: Vec<String> = [
            "inst", "l1.hit", "l1.miss", "rt", "sm", "icnt", "mshr", "dram",
        ]
        .iter()
        .flat_map(|p| {
            [
                "Alu",
                "Mem",
                "shader",
                "rt_unit",
                "issued",
                "stall_cycles",
                "merged",
                "req",
            ]
            .iter()
            .map(move |s| format!("{p}.{s}"))
        })
        .collect();
        let adds = 1_000_000 / shrink;
        let secs = repeat(quick, || {
            let mut bag = Counters::new();
            keys.iter().for_each(|k| bag.add(k, 0));
            rec.timed("stats.counter_add", || {
                for i in 0..adds {
                    bag.add(&keys[i & 63], 1);
                }
                black_box(bag.len());
            })
            .1
        });
        m.set("stats.counter_add_ns", ratio(secs * 1e9, adds as f64));
        let secs = repeat(quick, || {
            let mut hist = Histogram::new(1000.0);
            rec.timed("stats.histogram_record", || {
                for i in 0..adds {
                    hist.record((i % 50_000) as f64);
                }
                black_box(hist.count());
            })
            .1
        });
        m.set("stats.histogram_record_ns", ratio(secs * 1e9, adds as f64));
    }

    /// Observer, checkpoint and functional-tier costs on the 2-SM machine,
    /// where a run is cheap enough to repeat: the EXT scene with observers
    /// off, each observer on, and checkpointing on, interleaved in this
    /// process for [`OBSERVER_ROUNDS`] rounds; ratio of medians - 1.
    fn observer_study(
        &mut self,
        def: &Def,
        scenes: &[Workload],
        plain: &[SceneRun],
        config: &SimConfig,
        ckpt_dir: &Path,
    ) {
        let (m, rec, tally, quick) = (&mut self.m, &mut self.rec, &mut *self.tally, self.quick);
        let Some(i) = scenes.iter().position(|w| w.name == "EXT") else {
            return;
        };
        let (probe, reference) = (&scenes[i], &plain[i]);
        let Some(reference_report) = reference.report.as_ref() else {
            return;
        };
        let cycles = reference_report.gpu.cycles;
        if let Err(e) = std::fs::create_dir_all(ckpt_dir) {
            tally.attempted += 1;
            tally.fail(format!("cannot create {}: {e}", ckpt_dir.display()));
            return;
        }
        let mut events = config.clone();
        events.gpu.trace.enabled = true;
        // Checkpoint every eighth of the run.
        let checkpointed = config
            .clone()
            .with_checkpoint((cycles / 8).max(1), ckpt_dir.to_string_lossy().to_string());
        let variants = [
            config.clone(),
            config.clone().with_accounting(true),
            config.clone().with_rt_analytics(true),
            events,
            checkpointed,
        ];
        let mut walls: [Vec<f64>; 5] = Default::default();
        let mut recorded = 0u64;
        for _ in 0..if quick { 1 } else { OBSERVER_ROUNDS } {
            for (variant, walls) in variants.iter().zip(walls.iter_mut()) {
                tally.attempted += 1;
                match run_scene(Mode::Timing, probe, variant, Some(&mut *rec)) {
                    Ok(run) => {
                        if run.stats_fnv != reference.stats_fnv {
                            tally.fail(format!("{}: an observer changed the counters", def.name));
                        }
                        if let Some(t) = run.report.as_ref().and_then(|r| r.trace.as_ref()) {
                            recorded = t.events.len() as u64 + t.flushed;
                        }
                        walls.push(run.wall_s);
                    }
                    Err(e) => tally.fail(e),
                }
            }
        }
        let base = median(&walls[0]);
        for (name, walls) in [
            "trace.prof_overhead_frac",
            "trace.rt_analytics_overhead_frac",
            "trace.events_overhead_frac",
            "snapshot.checkpoint_overhead_frac",
        ]
        .iter()
        .zip(&walls[1..])
        {
            m.set(name, ratio(median(walls), base) - 1.0);
        }
        m.set("trace.events_recorded", recorded as f64);

        // snapshot: the files of the last checkpointed run; resume from the
        // middle one.
        let mut files: Vec<(u64, std::path::PathBuf)> = std::fs::read_dir(ckpt_dir)
            .into_iter()
            .flatten()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter_map(|p| {
                let cycle = p.file_name()?.to_str()?.strip_prefix("ckpt-")?;
                Some((cycle.strip_suffix(".vksnap")?.parse().ok()?, p))
            })
            .collect();
        files.sort();
        let extra_s = (median(&walls[4]) - base).max(0.0);
        m.set(
            "snapshot.write_ms",
            ratio(extra_s * 1e3, files.len() as f64),
        );
        tally.attempted += 1;
        match files.get(files.len() / 2) {
            Some((_, middle)) => {
                let bytes = std::fs::metadata(middle).map_or(0, |meta| meta.len());
                m.set("snapshot.bytes", bytes as f64);
                let (resumed, secs) = rec.timed("snapshot.resume", || {
                    Simulator::new(config.clone()).resume(&probe.device, &probe.cmd, middle)
                });
                m.set("snapshot.resume_s", secs);
                let same = resumed.as_ref().is_ok_and(|r| {
                    r.gpu.cycles == cycles
                        && counters_fnv(&r.gpu) == counters_fnv(&reference_report.gpu)
                });
                m.set("snapshot.resume_mismatch", f64::from(u8::from(!same)));
                if !same {
                    tally.fail(format!(
                        "{}: resumed run differs from uninterrupted",
                        def.name
                    ));
                }
            }
            None => tally.fail(format!("{}: no checkpoint file was written", def.name)),
        }
        std::fs::remove_dir_all(ckpt_dir).ok();

        // core: the timing tier against the functional tier on the same scenes,
        // and the Fig. 11 correlation against the analytic hardware proxy (a
        // proxy, not hardware: the repo holds no hardware measurements).
        let mut func_wall = 0.0;
        for w in scenes {
            tally.attempted += 1;
            match run_scene(Mode::Functional, w, config, Some(&mut *rec)) {
                Ok(run) => func_wall += run.wall_s,
                Err(e) => tally.fail(e),
            }
        }
        m.set(
            "core.timing_to_func_ratio",
            ratio(pass_wall(plain), func_wall),
        );
        let hw = HwProxy::default();
        let (sim, proxy): (Vec<f64>, Vec<f64>) = scenes
            .iter()
            .zip(reports(plain))
            .map(|(w, r)| {
                let footprint = w.device.blases.iter().map(Blas::size_bytes).sum::<u64>()
                    + w.device.tlas.as_ref().map_or(0, Tlas::size_bytes);
                let profile = WorkloadProfile::from_stats(
                    r.gpu.issued_insts,
                    &r.runtime,
                    footprint,
                    config.gpu.num_sms as u32,
                );
                (r.gpu.cycles as f64, hw.estimate_cycles(&profile))
            })
            .unzip();
        m.set("core.hwproxy_corr", pearson(&sim, &proxy).unwrap_or(0.0));
    }
}

/// The traced run of one workload; returns every per-layer metric and
/// writes the spans to `trace_path`.
pub fn run_traced(
    def: &Def,
    seed: u64,
    seconds: f64,
    quick: bool,
    tally: &mut Tally,
    trace_path: &Path,
) -> Vec<(&'static str, f64)> {
    let mut t = Traced {
        m: Metrics::new(),
        rec: Recorder::new(def.name),
        tally,
        quick,
    };
    let mut scenes = def.build_scenes(seed, quick, Some(&mut t.rec));
    let build_ns: u64 = t.rec.spans().iter().map(|s| s.duration_ns()).sum();
    t.m.set("scenes.build_s", build_ns as f64 * 1e-9);
    let (mut translate_s, mut program_insts) = (0.0, 0usize);
    for w in &mut scenes {
        let shaders = w.shaders.clone();
        let (pipeline, secs) = t.rec.timed("shader.translate", || {
            w.device.create_ray_tracing_pipeline(shaders, false)
        });
        translate_s += secs;
        program_insts += pipeline.map_or(0, |p| p.program.len());
    }
    t.m.set("shader.translate_s", translate_s);
    t.m.set("shader.program_insts", program_insts as f64);

    // Rounds of a plain pass (tracing off), the same pass observed (spans
    // around every run plus cycle accounting and RT analytics on the timing
    // tier) and, for the threaded workload, the serial engine on the same
    // inputs: interleaved so that the sandbox's drift hits all alike, for
    // `seconds` and at least [`MIN_ROUNDS`]; ratios are of medians.
    let config = def.config(false);
    let observed_config = config.clone().with_accounting(true).with_rt_analytics(true);
    let serial_config = def.config(true);
    let mut first: Option<(Vec<SceneRun>, Vec<SceneRun>)> = None;
    let (mut plain_s, mut observed_s, mut serial_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut mismatches = 0;
    let rounds_begun = Instant::now();
    loop {
        let reference = first.as_ref().map(|(plain, _)| plain.as_slice());
        let Some(plain) = run_pass(def, &scenes, &config, reference, t.tally, None) else {
            break;
        };
        let rec = Some(&mut t.rec);
        let Some(observed) = run_pass(def, &scenes, &observed_config, Some(&plain), t.tally, rec)
        else {
            break;
        };
        plain_s.push(pass_wall(&plain));
        observed_s.push(pass_wall(&observed));
        if def.parallel {
            let failed_before = t.tally.failed;
            if let Some(serial) =
                run_pass(def, &scenes, &serial_config, Some(&plain), t.tally, None)
            {
                serial_s.push(pass_wall(&serial));
            }
            mismatches += t.tally.failed - failed_before;
        }
        first.get_or_insert((plain, observed));
        let enough = plain_s.len() >= MIN_ROUNDS && rounds_begun.elapsed().as_secs_f64() >= seconds;
        if quick || enough {
            break;
        }
    }
    if let Some((plain, observed)) = &first {
        check_images(def, &scenes, plain, t.tally);
        let wall_s = median(&plain_s);
        println!(
            "{} interleaved rounds: plain pass median {wall_s:.4} s, observed {:.4} s",
            plain_s.len(),
            median(&observed_s)
        );
        t.m.set(
            "trace.bench_overhead_frac",
            ratio(median(&observed_s), wall_s) - 1.0,
        );
        if def.mode == Mode::Timing {
            report_metrics(&mut t.m, plain, observed, wall_s, config.gpu.num_sms);
        }
        if def.parallel {
            t.m.set("parallel.t2_speedup", ratio(median(&serial_s), wall_s));
            t.m.set("parallel.t2_counter_mismatch", mismatches as f64);
        }
        if def.mode == Mode::Timing && !def.paper_machine {
            let ckpt_dir = trace_path.with_extension(format!("ckpt-{}", std::process::id()));
            t.observer_study(def, &scenes, plain, &config, &ckpt_dir);
        }
    }
    if let Some(probe) = scenes.iter().find(|w| w.name == "EXT") {
        t.layer_replays(probe, &config, seed);
    }

    println!(
        "self time by span (outside-in; simulated statistics start with cold modelled caches):"
    );
    for (name, calls, self_ns) in t.rec.self_time_by_name() {
        println!(
            "  {name:<28} calls={calls:<4} self={:.4} s",
            self_ns as f64 * 1e-9
        );
    }
    match std::fs::create_dir_all(trace_path.parent().unwrap_or(Path::new(".")))
        .and_then(|()| std::fs::write(trace_path, t.rec.chrome_trace_json()))
    {
        Ok(()) => println!("spans written to {}", trace_path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", trace_path.display()),
    }
    t.m.0
}
