//! The four workloads, their seeded inputs, one closed-loop pass, and the
//! correctness checks every scene run goes through.

use crate::span::Recorder;
use std::time::Instant;
use vksim_core::validate::{pixel_diff_fraction, read_framebuffer};
use vksim_core::{RunReport, RuntimeStats, SimConfig, Simulator};
use vksim_gpu::GpuStats;
use vksim_math::Vec3;
use vksim_scenes::{build, reference, Scale, Workload, WorkloadKind, BINDING_CAMERA};
use vksim_testkit::Pcg32;

/// A scene run whose image differs from the CPU reference on more than
/// this fraction of pixels is a failed operation.
pub const IMAGE_DIFF_LIMIT: f64 = 0.02;

/// Which simulator entry point a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `Simulator::run`: the cycle-level timing model.
    Timing,
    /// `Simulator::run_functional`: interpreter + traversal only.
    Functional,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub scenes: &'static [WorkloadKind],
    pub scale: Scale,
    /// 48-SM paper machine; otherwise the 2-SM test mule.
    pub paper_machine: bool,
    /// Run through the parallel engine with `min(2, nproc)` threads.
    pub parallel: bool,
    /// Launch size overriding the scene's native one.
    pub launch: Option<(u32, u32)>,
    pub mode: Mode,
}

const EXT_ONLY: &[WorkloadKind] = &[WorkloadKind::Ext];
/// The full 224x160 EXT launch on 48 SMs takes 59-74 s a pass (RTV5 ~205 s,
/// RTV6 ~84 s): too long to repeat. 96x64 (4 warps an SM) keeps the scene,
/// the machine, the stall mix and most of the host cost per SM-cycle
/// (README.md, "Why the EXT launch is cut") at 11-13 s a pass.
const EXT_PAPER_LAUNCH: (u32, u32) = (96, 64);

pub const DEFS: [Def; 4] = [
    Def {
        name: "small5_sm2",
        scenes: &WorkloadKind::ALL,
        scale: Scale::Small,
        paper_machine: false,
        parallel: false,
        launch: None,
        mode: Mode::Timing,
    },
    Def {
        name: "ext_paper_sm48",
        scenes: EXT_ONLY,
        scale: Scale::Paper,
        paper_machine: true,
        parallel: false,
        launch: Some(EXT_PAPER_LAUNCH),
        mode: Mode::Timing,
    },
    Def {
        name: "ext_paper_sm48_t2",
        scenes: EXT_ONLY,
        scale: Scale::Paper,
        paper_machine: true,
        parallel: true,
        launch: Some(EXT_PAPER_LAUNCH),
        mode: Mode::Timing,
    },
    Def {
        name: "func_paper5",
        scenes: &WorkloadKind::ALL,
        scale: Scale::Paper,
        paper_machine: true,
        parallel: false,
        launch: None,
        mode: Mode::Functional,
    },
];

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Def {
    pub fn find(name: &str) -> Option<&'static Def> {
        DEFS.iter().find(|d| d.name == name)
    }

    /// The untraced configuration. `serial` forces one thread (the
    /// reference the parallel workload's counters are checked against).
    pub fn config(&self, serial: bool) -> SimConfig {
        let base = if self.paper_machine {
            SimConfig::paper()
        } else {
            SimConfig::test_small()
        };
        let threads = if self.parallel && !serial {
            nproc().min(2)
        } else {
            1
        };
        base.with_threads(threads)
    }

    /// Builds the workload's scenes (one `scenes.build` span each with a
    /// recorder). `--quick` drops to `Scale::Test` with native launches; a
    /// non-zero seed translates every camera.
    pub fn build_scenes(
        &self,
        seed: u64,
        quick: bool,
        mut rec: Option<&mut Recorder>,
    ) -> Vec<Workload> {
        let mut rng = Pcg32::new(seed);
        self.scenes
            .iter()
            .map(|&kind| {
                let span = rec.as_deref_mut().map(|r| r.begin("scenes.build"));
                let mut w = build(kind, if quick { Scale::Test } else { self.scale });
                if let (Some(r), Some(id)) = (rec.as_deref_mut(), span) {
                    r.end(id);
                }
                if let (Some((width, height)), false) = (self.launch, quick) {
                    w.cmd.dims.width = width;
                    w.cmd.dims.height = height;
                    w.width = width;
                    w.height = height;
                }
                if seed != 0 {
                    jitter_camera(&mut w, &mut rng);
                }
                w
            })
            .collect()
    }
}

/// Translates the camera by a seeded offset of at most 0.01 % of the scene
/// extent per axis, re-uploads the uniform and keeps `Workload::camera` in
/// step so the CPU reference renders the same view. The cycle count of the
/// RT-stall-bound workload is chaotic in the camera position (the slowest
/// warp decides it): 0.1 % moved it by +-8 % from seed to seed, 0.01 % and
/// anything smaller by +-2 %.
fn jitter_camera(w: &mut Workload, rng: &mut Pcg32) {
    const JITTER: f32 = 0.0001;
    let extent = w
        .device
        .tlas
        .as_ref()
        .map_or(Vec3::ZERO, |t| t.bvh.aabb.extent());
    let offset = Vec3::new(
        extent.x * rng.f32_range(-JITTER, JITTER),
        extent.y * rng.f32_range(-JITTER, JITTER),
        extent.z * rng.f32_range(-JITTER, JITTER),
    );
    w.camera.eye += offset;
    w.camera.lower_left += offset;
    let buf = w.device.alloc_buffer(64);
    w.device.upload_f32(buf, &w.camera.to_uniform());
    w.device.bind_descriptor(BINDING_CAMERA, buf);
}

/// FNV-1a-64.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The low 52 bits: exact as a JSON number.
    pub fn finish52(&self) -> u64 {
        self.0 & ((1 << 52) - 1)
    }
}

/// Hash of every name/value in `counters`, `l1_stats`, `l2_stats` and
/// `dram_stats`: identical exactly when the simulated statistics are.
pub fn counters_fnv(gpu: &GpuStats) -> u64 {
    let mut h = Fnv::new();
    for bag in [&gpu.counters, &gpu.l1_stats, &gpu.l2_stats, &gpu.dram_stats] {
        for (name, value) in bag.iter() {
            h.bytes(name.as_bytes());
            h.u64(value);
        }
    }
    h.finish52()
}

/// What one scene run produced.
pub struct SceneRun {
    /// Host seconds of the one `Simulator::run` / `run_functional` call.
    pub wall_s: f64,
    /// Hash of the simulated statistics (timing) or of the functional
    /// traversal statistics; with `pixels` it identifies the outcome.
    pub stats_fnv: u64,
    pub pixels: Vec<u32>,
    /// The full report of a `Simulator::run`; `None` for functional runs.
    pub report: Option<RunReport>,
}

impl SceneRun {
    fn same_outcome(&self, other: &SceneRun) -> bool {
        self.stats_fnv == other.stats_fnv && self.pixels == other.pixels
    }
}

fn timing_fnv(gpu: &GpuStats) -> u64 {
    let mut h = Fnv::new();
    h.u64(counters_fnv(gpu));
    h.u64(gpu.cycles);
    h.u64(gpu.issued_insts);
    h.finish52()
}

fn functional_fnv(stats: &RuntimeStats) -> u64 {
    let mut h = Fnv::new();
    h.bytes(format!("{stats:?}").as_bytes());
    h.finish52()
}

/// Runs one scene once: one `Simulator::run` / `run_functional` call,
/// timed on its own (and wrapped in a `core.run` / `core.run_functional`
/// span with a recorder).
pub fn run_scene(
    mode: Mode,
    w: &Workload,
    config: &SimConfig,
    rec: Option<&mut Recorder>,
) -> Result<SceneRun, String> {
    let mut sim = Simulator::new(config.clone());
    let span = rec.map(|r| {
        let name = match mode {
            Mode::Timing => "core.run",
            Mode::Functional => "core.run_functional",
        };
        let id = r.begin(name);
        (r, id)
    });
    let start = Instant::now();
    let outcome = match mode {
        Mode::Timing => sim.run(&w.device, &w.cmd).map(|mut report| {
            let wall_s = start.elapsed().as_secs_f64();
            let mem = std::mem::take(&mut report.memory);
            (wall_s, timing_fnv(&report.gpu), mem, Some(report))
        }),
        Mode::Functional => sim.run_functional(&w.device, &w.cmd).map(|(mem, stats)| {
            let wall_s = start.elapsed().as_secs_f64();
            (wall_s, functional_fnv(&stats), mem, None)
        }),
    };
    if let Some((r, id)) = span {
        r.end(id);
    }
    let (wall_s, stats_fnv, mem, report) = outcome.map_err(|e| format!("{}: {e}", w.name))?;
    Ok(SceneRun {
        wall_s,
        stats_fnv,
        pixels: read_framebuffer(&mem, w.fb_addr, (w.width * w.height) as usize),
        report,
    })
}

/// Operations attempted and failed; the reason of each failure goes to
/// stderr.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        eprintln!("FAILED operation: {why}");
    }
}

/// One pass: every scene of the workload once. One operation = one scene
/// run; it fails if the simulator errs or if its outcome differs from
/// `reference` (the same workload's and seed's first pass).
pub fn run_pass(
    def: &Def,
    scenes: &[Workload],
    config: &SimConfig,
    reference: Option<&[SceneRun]>,
    tally: &mut Tally,
    mut rec: Option<&mut Recorder>,
) -> Option<Vec<SceneRun>> {
    let mut runs = Vec::with_capacity(scenes.len());
    for (i, w) in scenes.iter().enumerate() {
        tally.attempted += 1;
        match run_scene(def.mode, w, config, rec.as_deref_mut()) {
            Ok(run) => {
                if reference.is_some_and(|r| !r[i].same_outcome(&run)) {
                    tally.fail(format!(
                        "{} {}: outcome differs from the first pass (non-determinism, an impure observer or thread variance)",
                        def.name, w.name
                    ));
                }
                runs.push(run);
            }
            Err(e) => tally.fail(format!("{} {e}", def.name)),
        }
    }
    (runs.len() == scenes.len()).then_some(runs)
}

pub fn pass_wall(runs: &[SceneRun]) -> f64 {
    runs.iter().map(|r| r.wall_s).sum()
}

/// Compares TRI/REF/EXT images with the CPU reference renderer (the
/// repo's only reference: there are no hardware measurements). Returns
/// the largest differing-pixel fraction; above [`IMAGE_DIFF_LIMIT`] the
/// scene run counts as failed.
pub fn check_images(def: &Def, scenes: &[Workload], runs: &[SceneRun], tally: &mut Tally) -> f64 {
    let mut worst = 0.0f64;
    for (w, run) in scenes.iter().zip(runs) {
        if !matches!(w.name, "TRI" | "REF" | "EXT") {
            continue;
        }
        match pixel_diff_fraction(&run.pixels, &reference::render(w), 1) {
            Ok(diff) => {
                worst = worst.max(diff);
                if diff > IMAGE_DIFF_LIMIT {
                    tally.fail(format!(
                        "{} {}: image differs from the CPU reference on {diff:.4} of pixels",
                        def.name, w.name
                    ));
                }
            }
            Err(e) => tally.fail(format!("{} {}: {e}", def.name, w.name)),
        }
    }
    worst
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Builds the workload's scenes at least three times and until a second
/// has been spent (small scenes build in milliseconds); returns the median
/// build time and the last build.
pub fn measure_setup(def: &Def, seed: u64, quick: bool) -> (f64, Vec<Workload>) {
    let mut times = Vec::new();
    let begun = Instant::now();
    loop {
        let start = Instant::now();
        let scenes = def.build_scenes(seed, quick, None);
        times.push(start.elapsed().as_secs_f64());
        let enough = times.len() >= 3 && begun.elapsed().as_secs_f64() >= 1.0;
        if quick || enough {
            return (median(&times), scenes);
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced run: set-up, then plain passes until `seconds` have
/// elapsed (every pass is timed; the first is also the outcome the later
/// ones must reproduce), then image validation. Returns the end-to-end
/// metrics that apply to the workload. Thread invariance of the threaded
/// workload is checked by its traced run, which has the serial passes.
pub fn run_end_to_end(
    def: &Def,
    seed: u64,
    seconds: f64,
    quick: bool,
    tally: &mut Tally,
) -> Vec<(&'static str, f64)> {
    let (setup_s, scenes) = measure_setup(def, seed, quick);
    let config = def.config(false);
    let mut reference: Option<Vec<SceneRun>> = None;
    let mut walls = Vec::new();
    let begun = Instant::now();
    loop {
        if let Some(runs) = run_pass(def, &scenes, &config, reference.as_deref(), tally, None) {
            walls.push(pass_wall(&runs));
            reference.get_or_insert(runs);
        }
        if quick || begun.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let image_diff = reference
        .as_deref()
        .map_or(1.0, |runs| check_images(def, &scenes, runs, tally));
    let wall_s = median(&walls);
    println!(
        "pass wall s: {} (n={}, min {:.4}, median {:.4}, max {:.4})",
        walls
            .iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" "),
        walls.len(),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        wall_s,
        walls.iter().copied().fold(0.0, f64::max),
    );
    let per_s = |count: f64| if wall_s > 0.0 { count / wall_s } else { 0.0 };
    let rays: f64 = scenes.iter().map(|w| f64::from(w.width * w.height)).sum();
    let mut metrics = vec![
        ("wall_s", wall_s),
        ("rays_per_s", per_s(rays)),
        ("setup_s", setup_s),
        ("peak_rss_mb", peak_rss_mb()),
        ("image_match_frac", 1.0 - image_diff),
    ];
    if def.mode == Mode::Timing {
        let sum = |f: fn(&GpuStats) -> u64| -> f64 {
            reference
                .iter()
                .flatten()
                .filter_map(|r| r.report.as_ref())
                .map(|r| f(&r.gpu) as f64)
                .sum()
        };
        metrics.push(("sim_cycles_per_s", per_s(sum(|g| g.cycles))));
        metrics.push(("warp_insts_per_s", per_s(sum(|g| g.issued_insts))));
    }
    metrics
}
