//! The per-thread ray-tracing runtime (RtHooks implementation).
//!
//! Backs the custom PTX instructions of Table II during execution:
//!
//! * `traverseAS` runs the functional traversal (Algorithm 2) against the
//!   scene's TLAS/BLAS, commits the closest triangle hit, collects
//!   procedural-leaf encounters into the *intersection table* for delayed
//!   shader execution, and (outside functional-only runs) keeps the RT-unit
//!   replay script the traversal recorded (the paper's transactions buffer);
//! * traversal results live on a per-thread stack so `traceRayEXT` can
//!   recurse (paper §III-B2);
//! * `endTraceRay` pops the stack and clears the intersection table;
//! * with FCC enabled (§IV-A), the intersection table is replaced by a
//!   per-warp *coalescing buffer*: rows of (shader ID, lane mask) built by
//!   matching shader IDs across the warp, read back through
//!   `getNextCoalescedCall`, at the cost of extra coalescing-table memory
//!   traffic in the RT unit.

use std::sync::Arc;
use vksim_bvh::traversal::{self, ScriptConfig, TraversalConfig};
use vksim_bvh::{Blas, ProceduralHit, Step, Tlas};
use vksim_gpu::ScriptSource;
use vksim_isa::interp::{RayDesc, RtHooks};
use vksim_isa::op::{RtIdxQuery, RtQuery};
use vksim_isa::RtError;
use vksim_math::{Ray, Vec3};
use vksim_mem::FixedMap;
use vksim_snapshot::{Dec, Enc, Snap, SnapError};
use vksim_trace::TraversalAnalytics;
use vksim_vulkan::{intersection_buffer, spill_base, RT_ALLOC_BASE};

/// Vulkan ray flag bit 0: terminate on first hit (shadow rays).
pub const RAY_FLAG_TERMINATE_ON_FIRST_HIT: u32 = 1;

const WARP_SIZE: usize = 32;

/// Committed hit of one trace frame.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Committed {
    /// 0 = miss, 1 = triangle, 2 = committed procedural.
    kind: u32,
    t: f32,
    u: f32,
    v: f32,
    primitive_index: u32,
    instance_index: u32,
    instance_custom_index: u32,
    sbt_offset: u32,
    normal: [f32; 3],
}

/// One entry of the per-thread traversal-results stack.
#[derive(Clone, Debug)]
struct Frame {
    ray: RayDesc,
    committed: Committed,
    pending: Vec<ProceduralHit>,
}

#[derive(Clone, Debug)]
struct FccRow {
    shader_id: u32,
    /// Per-lane index into that lane's pending table.
    lane_hit: [Option<u32>; WARP_SIZE],
}

/// Aggregate functional-traversal statistics (Table IV inputs).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RuntimeStats {
    /// Rays traced (`traverseAS` executions).
    pub rays: u64,
    /// Total BVH nodes visited.
    pub nodes_visited: u64,
    /// Ray-box tests.
    pub box_tests: u64,
    /// Ray-triangle tests.
    pub triangle_tests: u64,
    /// Ray transformations.
    pub transforms: u64,
    /// Procedural-leaf encounters queued.
    pub procedural_hits: u64,
    /// Committed triangle hits.
    pub triangle_hits: u64,
    /// Rays that missed everything.
    pub misses: u64,
    /// Deepest traversal stack seen.
    pub max_stack_depth: u32,
    /// Short-stack spill stores (counted by the traversal).
    pub spill_stores: u64,
    /// Short-stack spill reloads (counted by the traversal).
    pub spill_loads: u64,
}

impl RuntimeStats {
    /// Average BVH nodes visited per ray (Table IV).
    pub fn avg_nodes_per_ray(&self) -> f64 {
        if self.rays == 0 {
            0.0
        } else {
            self.nodes_visited as f64 / self.rays as f64
        }
    }
}

/// The scene-bound RT runtime: one per run, serving every SM.
///
/// Scene data (TLAS/BLAS) is shared behind `Arc`, so binding a runtime
/// copies no geometry. All mutable state is keyed by global thread id or
/// warp id and warps never migrate, so the SMs, ticking in id order on
/// one thread, never touch each other's entries.
pub struct RtRuntime {
    tlas: Arc<Tlas>,
    blases: Arc<Vec<Blas>>,
    launch: [u32; 3],
    fcc: bool,
    /// Build replay scripts (off only for functional-only runs).
    record_scripts: bool,
    frames: FixedMap<usize, Vec<Frame>>,
    scripts: FixedMap<usize, Vec<Step>>,
    fcc_tables: FixedMap<(usize, usize), Vec<FccRow>>,
    alloc_cursor: u64,
    /// Accumulated functional statistics.
    pub stats: RuntimeStats,
    /// Ray-traversal analytics (heatmaps, per-ray histograms, per-level
    /// line reuse); `None` unless enabled, so the default run pays one
    /// null check per traversal.
    analytics: Option<Box<TraversalAnalytics>>,
}

impl RtRuntime {
    /// Binds a runtime to a scene (an `Arc` is shared) and launch.
    pub fn new(
        tlas: impl Into<Arc<Tlas>>,
        blases: impl Into<Arc<Vec<Blas>>>,
        launch: [u32; 3],
        fcc: bool,
    ) -> Self {
        RtRuntime {
            tlas: tlas.into(),
            blases: blases.into(),
            launch,
            fcc,
            record_scripts: true,
            frames: FixedMap::default(),
            scripts: FixedMap::default(),
            fcc_tables: FixedMap::default(),
            alloc_cursor: RT_ALLOC_BASE,
            stats: RuntimeStats::default(),
            analytics: None,
        }
    }

    /// This runtime, building no replay scripts (same statistics).
    pub(crate) fn without_scripts(mut self) -> Self {
        self.record_scripts = false;
        self
    }

    /// Turns on ray-traversal analytics collection: per-node heatmaps,
    /// per-ray histograms and per-level line-reuse tallies.
    pub fn enable_analytics(&mut self) {
        self.analytics = Some(Box::new(TraversalAnalytics::default()));
    }

    /// The collected traversal analytics, if enabled.
    pub fn analytics(&self) -> Option<&TraversalAnalytics> {
        self.analytics.as_deref()
    }

    fn frame(&self, tid: usize) -> Option<&Frame> {
        self.frames.get(&tid).and_then(|v| v.last())
    }

    fn depth(&self, tid: usize) -> usize {
        self.frames.get(&tid).map_or(0, |v| v.len())
    }

    /// Resolves a pending-table index to a [`ProceduralHit`], honouring the
    /// FCC coalescing buffer when enabled.
    fn pending_at(&mut self, tid: usize, idx: u32) -> Option<ProceduralHit> {
        if self.fcc {
            let table = self.fcc_table(tid);
            let lane = tid % WARP_SIZE;
            let hit_idx = table.get(idx as usize)?.lane_hit[lane]?;
            self.frame(tid)
                .and_then(|f| f.pending.get(hit_idx as usize))
                .copied()
        } else {
            self.frame(tid)
                .and_then(|f| f.pending.get(idx as usize))
                .copied()
        }
    }

    /// Lazily builds the per-warp coalescing buffer for the warp containing
    /// `tid` at its current trace depth (all lanes of a warp execute
    /// `traverseAS` in the same warp instruction, so their frames exist by
    /// the time any lane reads the buffer).
    fn fcc_table(&mut self, tid: usize) -> &Vec<FccRow> {
        let warp = tid / WARP_SIZE;
        let depth = self.depth(tid);
        let key = (warp, depth);
        if !self.fcc_tables.contains_key(&key) {
            let mut rows: Vec<FccRow> = Vec::new();
            for lane in 0..WARP_SIZE {
                let lane_tid = warp * WARP_SIZE + lane;
                // Only lanes at the same depth participate in this round.
                if self.depth(lane_tid) != depth {
                    continue;
                }
                let pending: Vec<ProceduralHit> = self
                    .frame(lane_tid)
                    .map(|f| f.pending.clone())
                    .unwrap_or_default();
                for (hit_idx, hit) in pending.iter().enumerate() {
                    // Match with an existing row of the same shader ID that
                    // this lane does not occupy yet (paper §IV-A).
                    let slot = rows
                        .iter_mut()
                        .find(|r| r.shader_id == hit.shader_id && r.lane_hit[lane].is_none());
                    match slot {
                        Some(row) => row.lane_hit[lane] = Some(hit_idx as u32),
                        None => {
                            let mut row = FccRow {
                                shader_id: hit.shader_id,
                                lane_hit: [None; WARP_SIZE],
                            };
                            row.lane_hit[lane] = Some(hit_idx as u32);
                            rows.push(row);
                        }
                    }
                }
            }
            self.fcc_tables.insert(key, rows);
        }
        &self.fcc_tables[&key]
    }
}

vksim_snapshot::snap_struct!(Committed {
    kind,
    t,
    u,
    v,
    primitive_index,
    instance_index,
    instance_custom_index,
    sbt_offset,
    normal
});
vksim_snapshot::snap_struct!(FccRow {
    shader_id,
    lane_hit
});
vksim_snapshot::snap_struct!(RuntimeStats {
    rays,
    nodes_visited,
    box_tests,
    triangle_tests,
    transforms,
    procedural_hits,
    triangle_hits,
    misses,
    max_stack_depth,
    spill_stores,
    spill_loads
});

/// [`ProceduralHit`] lives in `vksim-bvh`, which knows nothing of
/// snapshots, so a frame writes its pending hits as field tuples.
impl Snap for Frame {
    fn save(&self, e: &mut Enc) {
        self.ray.save(e);
        self.committed.save(e);
        let pending: Vec<_> = self
            .pending
            .iter()
            .map(|h| {
                (
                    h.primitive_index,
                    h.shader_id,
                    h.instance_index,
                    h.instance_custom_index,
                    h.sbt_offset,
                    h.t_enter,
                )
            })
            .collect();
        pending.save(e);
    }

    fn load(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(Frame {
            ray: Snap::load(d)?,
            committed: Snap::load(d)?,
            pending: Vec::<(u32, u32, u32, u32, u32, f32)>::load(d)?
                .into_iter()
                .map(|hit| ProceduralHit {
                    primitive_index: hit.0,
                    shader_id: hit.1,
                    instance_index: hit.2,
                    instance_custom_index: hit.3,
                    sbt_offset: hit.4,
                    t_enter: hit.5,
                })
                .collect(),
        })
    }
}

// The mutable state: per-thread frame stacks, pending replay scripts, FCC
// coalescing buffers, the `rt_alloc_mem` cursor, the functional statistics
// and the analytics. Scene data (TLAS/BLAS), launch dims and the
// switches belong to the runtime the resuming run bound to the same scene.
vksim_snapshot::snap_state!(RtRuntime {
    frames,
    scripts,
    fcc_tables,
    alloc_cursor,
    stats,
    analytics,
} skip { tlas, blases, launch, fcc, record_scripts });

impl RtHooks for RtRuntime {
    fn traverse(&mut self, tid: usize, ray: RayDesc) -> Result<(), RtError> {
        let r = Ray::with_interval(
            Vec3::from(ray.origin),
            Vec3::from(ray.dir),
            ray.t_min,
            ray.t_max,
        );
        let cfg = TraversalConfig {
            terminate_on_first_hit: ray.flags & RAY_FLAG_TERMINATE_ON_FIRST_HIT != 0,
            record_script: self.record_scripts.then(|| ScriptConfig {
                intersection_buffer_base: intersection_buffer(tid),
                spill_base: spill_base(tid),
                fcc: self.fcc,
            }),
            record_visits: self.analytics.is_some(),
        };
        let result = traversal::traverse(&self.tlas, &self.blases[..], &r, &cfg)
            .map_err(|e| RtError(format!("acceleration structure traversal failed: {e}")))?;

        self.stats.rays += 1;
        self.stats.nodes_visited += result.nodes_visited as u64;
        self.stats.box_tests += result.box_tests as u64;
        self.stats.triangle_tests += result.triangle_tests as u64;
        self.stats.transforms += result.transforms as u64;
        self.stats.procedural_hits += result.procedural_hits.len() as u64;
        self.stats.max_stack_depth = self.stats.max_stack_depth.max(result.max_stack_depth);
        self.stats.spill_stores += result.spill_stores as u64;
        self.stats.spill_loads += result.spill_loads as u64;

        let committed = match result.closest {
            Some(h) => {
                self.stats.triangle_hits += 1;
                Committed {
                    kind: 1,
                    t: h.t,
                    u: h.u,
                    v: h.v,
                    primitive_index: h.primitive_index,
                    instance_index: h.instance_index,
                    instance_custom_index: h.instance_custom_index,
                    sbt_offset: h.sbt_offset,
                    normal: h.world_normal.into(),
                }
            }
            None => {
                if result.procedural_hits.is_empty() {
                    self.stats.misses += 1;
                }
                Committed::default()
            }
        };

        if let Some(a) = self.analytics.as_deref_mut() {
            for v in &result.visits {
                a.record_visit(v.blas, v.depth, v.node, v.addr, v.hit);
            }
            a.record_ray(
                result.nodes_visited as u64,
                result.box_tests as u64,
                result.triangle_tests as u64,
                // Each short-stack spill reload is a traversal restart.
                result.spill_loads as u64,
            );
        }
        if self.record_scripts {
            self.scripts.insert(tid, result.script);
        }
        self.frames.entry(tid).or_default().push(Frame {
            ray,
            committed,
            pending: result.procedural_hits,
        });
        Ok(())
    }

    fn end_trace(&mut self, tid: usize) {
        let depth = self.depth(tid);
        if let Some(frames) = self.frames.get_mut(&tid) {
            frames.pop();
            // A thread that has ended its outermost trace keeps no entry.
            if frames.is_empty() {
                self.frames.remove(&tid);
            }
        }
        // The coalescing buffer for this round is dead once any lane ends
        // its trace; rows are keyed by (warp, depth).
        self.fcc_tables.remove(&(tid / WARP_SIZE, depth));
    }

    fn alloc_mem(&mut self, _tid: usize, size: u32) -> u64 {
        let addr = self.alloc_cursor;
        self.alloc_cursor += (size as u64).div_ceil(64) * 64;
        addr
    }

    fn query(&mut self, tid: usize, q: RtQuery) -> u32 {
        let f = |v: f32| v.to_bits();
        match q {
            RtQuery::LaunchId(d) => {
                let tid = tid as u32;
                let (w, h) = (self.launch[0].max(1), self.launch[1].max(1));
                match d {
                    0 => tid % w,
                    1 => (tid / w) % h,
                    _ => tid / (w * h),
                }
            }
            RtQuery::LaunchSize(d) => self.launch.get(d as usize).copied().unwrap_or(1),
            RtQuery::RecursionDepth => self.depth(tid) as u32,
            _ => {
                let Some(frame) = self.frame(tid) else {
                    return 0;
                };
                match q {
                    RtQuery::HitKind => frame.committed.kind,
                    RtQuery::HitT => f(frame.committed.t),
                    RtQuery::HitU => f(frame.committed.u),
                    RtQuery::HitV => f(frame.committed.v),
                    RtQuery::HitPrimitiveIndex => frame.committed.primitive_index,
                    RtQuery::HitInstanceIndex => frame.committed.instance_index,
                    RtQuery::HitInstanceCustomIndex => frame.committed.instance_custom_index,
                    RtQuery::HitWorldNormal(d) => f(frame.committed.normal[d as usize % 3]),
                    RtQuery::ClosestHitShaderId => frame.committed.sbt_offset,
                    RtQuery::IntersectionCount => frame.pending.len() as u32,
                    RtQuery::RayOrigin(d) => f(frame.ray.origin[d as usize % 3]),
                    RtQuery::RayDirection(d) => f(frame.ray.dir[d as usize % 3]),
                    RtQuery::RayTMin => f(frame.ray.t_min),
                    _ => 0,
                }
            }
        }
    }

    fn query_idx(&mut self, tid: usize, q: RtIdxQuery, idx: u32) -> u32 {
        let Some(hit) = self.pending_at(tid, idx) else {
            return 0;
        };
        match q {
            RtIdxQuery::IntersectionShaderId => hit.shader_id,
            RtIdxQuery::IntersectionPrimitiveIndex => hit.primitive_index,
            RtIdxQuery::IntersectionInstanceCustomIndex => hit.instance_custom_index,
            RtIdxQuery::IntersectionInstanceIndex => hit.instance_index,
            RtIdxQuery::IntersectionTEnter => hit.t_enter.to_bits(),
        }
    }

    fn intersection_valid(&mut self, tid: usize, idx: u32) -> bool {
        if self.fcc {
            (idx as usize) < self.fcc_table(tid).len()
        } else {
            self.frame(tid)
                .is_some_and(|f| (idx as usize) < f.pending.len())
        }
    }

    fn next_coalesced_call(&mut self, tid: usize, idx: u32) -> u32 {
        let lane = tid % WARP_SIZE;
        let table = self.fcc_table(tid);
        match table.get(idx as usize) {
            Some(row) if row.lane_hit[lane].is_some() => row.shader_id,
            _ => u32::MAX,
        }
    }

    fn report_intersection(&mut self, tid: usize, idx: u32, t: f32) -> Result<(), RtError> {
        let Some(hit) = self.pending_at(tid, idx) else {
            return Ok(());
        };
        let Some(frame) = self.frames.get_mut(&tid).and_then(|v| v.last_mut()) else {
            return Ok(());
        };
        if t < frame.ray.t_min {
            return Ok(());
        }
        let current_t = if frame.committed.kind == 0 {
            frame.ray.t_max
        } else {
            frame.committed.t
        };
        if t < current_t {
            frame.committed = Committed {
                kind: 2,
                t,
                u: 0.0,
                v: 0.0,
                primitive_index: hit.primitive_index,
                instance_index: hit.instance_index,
                instance_custom_index: hit.instance_custom_index,
                sbt_offset: hit.sbt_offset,
                normal: [0.0; 3],
            };
        }
        Ok(())
    }
}

impl ScriptSource for RtRuntime {
    fn take_script(&mut self, tid: usize) -> Vec<Step> {
        self.scripts.remove(&tid).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vksim_bvh::geometry::{BlasGeometry, ProceduralPrimitive, Triangle};
    use vksim_bvh::{Instance, OpKind};
    use vksim_math::{Aabb, Mat4x3};

    fn quad_scene() -> (Tlas, Vec<Blas>) {
        let blas = Blas::from_triangles(&[
            Triangle::new(
                Vec3::new(-1.0, -1.0, 0.0),
                Vec3::new(1.0, -1.0, 0.0),
                Vec3::new(1.0, 1.0, 0.0),
            ),
            Triangle::new(
                Vec3::new(-1.0, -1.0, 0.0),
                Vec3::new(1.0, 1.0, 0.0),
                Vec3::new(-1.0, 1.0, 0.0),
            ),
        ]);
        let tlas = Tlas::build(vec![Instance::new(0, Mat4x3::IDENTITY)], &[&blas]);
        (tlas, vec![blas])
    }

    fn proc_scene(shader_ids: &[u32]) -> (Tlas, Vec<Blas>) {
        let prims: Vec<ProceduralPrimitive> = shader_ids
            .iter()
            .map(|&s| ProceduralPrimitive::new(Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0)), s))
            .collect();
        let blas = Blas::build(BlasGeometry::procedurals(prims));
        let tlas = Tlas::build(vec![Instance::new(0, Mat4x3::IDENTITY)], &[&blas]);
        (tlas, vec![blas])
    }

    fn z_ray() -> RayDesc {
        RayDesc {
            origin: [0.0, 0.0, -5.0],
            dir: [0.0, 0.0, 1.0],
            t_min: 1e-3,
            t_max: 1e30,
            flags: 0,
        }
    }

    #[test]
    fn traverse_commits_triangle_hit_and_records_script() {
        let (tlas, blases) = quad_scene();
        let mut rt = RtRuntime::new(tlas, blases, [4, 4, 1], false);
        rt.traverse(0, z_ray()).unwrap();
        assert_eq!(rt.query(0, RtQuery::HitKind), 1);
        assert!((f32::from_bits(rt.query(0, RtQuery::HitT)) - 5.0).abs() < 1e-3);
        let script = rt.take_script(0);
        assert!(!script.is_empty());
        assert!(script.iter().any(|s| matches!(
            s,
            Step::Fetch {
                op: OpKind::Triangle,
                ..
            }
        )));
        assert!(script.iter().any(|s| matches!(
            s,
            Step::Fetch {
                op: OpKind::Transform,
                ..
            }
        )));
        rt.end_trace(0);
        assert_eq!(rt.query(0, RtQuery::HitKind), 0, "frame popped");
        assert_eq!(rt.stats.rays, 1);
        assert_eq!(rt.stats.triangle_hits, 1);
    }

    #[test]
    fn miss_reports_kind_zero() {
        let (tlas, blases) = quad_scene();
        let mut rt = RtRuntime::new(tlas, blases, [4, 4, 1], false);
        let mut ray = z_ray();
        ray.origin = [50.0, 50.0, -5.0];
        rt.traverse(0, ray).unwrap();
        assert_eq!(rt.query(0, RtQuery::HitKind), 0);
        assert_eq!(rt.stats.misses, 1);
    }

    #[test]
    fn launch_id_mapping() {
        let (tlas, blases) = quad_scene();
        let mut rt = RtRuntime::new(tlas, blases, [8, 4, 1], false);
        let tid = 8 * 3 + 5; // x=5, y=3
        assert_eq!(rt.query(tid, RtQuery::LaunchId(0)), 5);
        assert_eq!(rt.query(tid, RtQuery::LaunchId(1)), 3);
        assert_eq!(rt.query(tid, RtQuery::LaunchSize(0)), 8);
    }

    #[test]
    fn nested_traces_stack_frames() {
        let (tlas, blases) = quad_scene();
        let mut rt = RtRuntime::new(tlas, blases, [4, 4, 1], false);
        rt.traverse(0, z_ray()).unwrap();
        assert_eq!(rt.query(0, RtQuery::RecursionDepth), 1);
        let mut shadow = z_ray();
        shadow.origin = [0.0, 0.0, -1.0];
        shadow.flags = RAY_FLAG_TERMINATE_ON_FIRST_HIT;
        rt.traverse(0, shadow).unwrap();
        assert_eq!(rt.query(0, RtQuery::RecursionDepth), 2);
        rt.end_trace(0);
        assert_eq!(rt.query(0, RtQuery::RecursionDepth), 1);
        // Outer frame intact.
        assert_eq!(rt.query(0, RtQuery::HitKind), 1);
    }

    #[test]
    fn pending_intersections_and_report() {
        let (tlas, blases) = proc_scene(&[3]);
        let mut rt = RtRuntime::new(tlas, blases, [4, 4, 1], false);
        rt.traverse(0, z_ray()).unwrap();
        assert_eq!(
            rt.query(0, RtQuery::HitKind),
            0,
            "procedural not committed yet"
        );
        assert!(rt.intersection_valid(0, 0));
        assert!(!rt.intersection_valid(0, 1));
        assert_eq!(rt.query_idx(0, RtIdxQuery::IntersectionShaderId, 0), 3);
        rt.report_intersection(0, 0, 4.0).unwrap();
        assert_eq!(rt.query(0, RtQuery::HitKind), 2);
        assert_eq!(f32::from_bits(rt.query(0, RtQuery::HitT)), 4.0);
        // A farther report does not replace it.
        rt.report_intersection(0, 0, 9.0).unwrap();
        assert_eq!(f32::from_bits(rt.query(0, RtQuery::HitT)), 4.0);
    }

    #[test]
    fn report_respects_t_min() {
        let (tlas, blases) = proc_scene(&[0]);
        let mut rt = RtRuntime::new(tlas, blases, [4, 4, 1], false);
        rt.traverse(0, z_ray()).unwrap();
        rt.report_intersection(0, 0, 1e-6).unwrap(); // below t_min
        assert_eq!(rt.query(0, RtQuery::HitKind), 0);
    }

    #[test]
    fn fcc_coalesces_same_shader_across_lanes() {
        // Two lanes, both hitting shader-0 geometry twice and shader-1 once:
        // rows should be [s0, s0, s1] (not 6 rows).
        let (tlas, blases) = proc_scene(&[0, 0, 1]);
        let mut rt = RtRuntime::new(tlas, blases, [32, 1, 1], true);
        rt.traverse(0, z_ray()).unwrap();
        rt.traverse(1, z_ray()).unwrap();
        let rows: Vec<u32> = (0..4)
            .map_while(|i| {
                if rt.intersection_valid(0, i) {
                    Some(rt.next_coalesced_call(0, i))
                } else {
                    None
                }
            })
            .collect();
        assert_eq!(rows.len(), 3, "3 coalesced rows for 2x3 hits");
        assert_eq!(rows.iter().filter(|&&s| s == 0).count(), 2);
        assert_eq!(rows.iter().filter(|&&s| s == 1).count(), 1);
        // Lane 1 participates in the same rows.
        assert_eq!(rt.next_coalesced_call(1, 0), rt.next_coalesced_call(0, 0));
    }

    #[test]
    fn fcc_nonparticipating_lane_gets_sentinel() {
        let (tlas, blases) = proc_scene(&[0]);
        let mut rt = RtRuntime::new(tlas, blases, [32, 1, 1], true);
        rt.traverse(0, z_ray()).unwrap();
        // Lane 1 misses everything.
        let mut miss = z_ray();
        miss.origin = [99.0, 99.0, -5.0];
        rt.traverse(1, miss).unwrap();
        assert_eq!(rt.next_coalesced_call(0, 0), 0);
        assert_eq!(rt.next_coalesced_call(1, 0), u32::MAX);
    }

    #[test]
    fn fcc_script_has_extra_table_loads() {
        let (tlas, blases) = proc_scene(&[0, 0]);
        let mut base_rt = RtRuntime::new(tlas.clone(), blases.clone(), [4, 1, 1], false);
        base_rt.traverse(0, z_ray()).unwrap();
        let base_loads = base_rt
            .take_script(0)
            .iter()
            .filter(|s| matches!(s, Step::Fetch { .. }))
            .count();
        let mut fcc_rt = RtRuntime::new(tlas, blases, [4, 1, 1], true);
        fcc_rt.traverse(0, z_ray()).unwrap();
        let fcc_loads = fcc_rt
            .take_script(0)
            .iter()
            .filter(|s| matches!(s, Step::Fetch { .. }))
            .count();
        assert!(fcc_loads > base_loads, "FCC adds coalescing-table loads");
    }

    #[test]
    fn alloc_mem_is_monotonic_and_aligned() {
        let (tlas, blases) = quad_scene();
        let mut rt = RtRuntime::new(tlas, blases, [1, 1, 1], false);
        let a = rt.alloc_mem(0, 100);
        let b = rt.alloc_mem(0, 4);
        assert!(b >= a + 100);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
    }

    #[test]
    fn scripts_are_consumed_once() {
        let (tlas, blases) = quad_scene();
        let mut rt = RtRuntime::new(tlas, blases, [4, 4, 1], false);
        rt.traverse(7, z_ray()).unwrap();
        assert!(!rt.take_script(7).is_empty());
        assert!(rt.take_script(7).is_empty(), "second take is empty");
    }

    #[test]
    fn ended_traces_leave_no_frame_stacks() {
        let (tlas, blases) = quad_scene();
        let mut rt = RtRuntime::new(tlas, blases, [64, 2, 1], false);
        for tid in 0..128 {
            rt.traverse(tid, z_ray()).unwrap();
            if tid % 3 == 0 {
                rt.traverse(tid, z_ray()).unwrap();
            }
        }
        assert_eq!(rt.frames.len(), 128);
        for tid in (0..128).rev() {
            rt.end_trace(tid);
            if tid % 3 == 0 {
                assert_eq!(rt.query(tid, RtQuery::RecursionDepth), 1, "outer frame");
                rt.end_trace(tid);
            }
        }
        assert!(
            rt.frames.is_empty(),
            "{} emptied stacks kept",
            rt.frames.len()
        );
    }

    #[test]
    fn analytics_mirror_functional_stats_exactly() {
        let (tlas, blases) = quad_scene();
        let mut rt = RtRuntime::new(tlas, blases, [4, 4, 1], false);
        rt.enable_analytics();
        rt.traverse(0, z_ray()).unwrap();
        let mut miss = z_ray();
        miss.origin = [50.0, 50.0, -5.0];
        rt.traverse(1, miss).unwrap();
        let a = rt.analytics().expect("enabled");
        assert_eq!(a.rays(), rt.stats.rays);
        assert_eq!(a.visit_total(), rt.stats.nodes_visited);
        for (name, hist) in a.histograms() {
            assert_eq!(hist.count(), rt.stats.rays, "hist {name}");
        }
        let [(_, nodes), (_, boxes), (_, tris), _] = a.histograms();
        assert_eq!(nodes.sum(), rt.stats.nodes_visited);
        assert_eq!(boxes.sum(), rt.stats.box_tests);
        assert_eq!(tris.sum(), rt.stats.triangle_tests);
        assert!(a.hit_total() > 0, "the quad hit leaves hot nodes");
        // Analytics state rides checkpoints byte-identically.
        let mut e = Enc::new();
        rt.save(&mut e);
        let bytes = e.into_bytes();
        let (tlas, blases) = quad_scene();
        let mut back = RtRuntime::new(tlas, blases, [4, 4, 1], false);
        back.enable_analytics();
        let mut d = Dec::new(&bytes);
        back.restore(&mut d).unwrap();
        d.finish().unwrap();
        let mut e2 = Enc::new();
        back.save(&mut e2);
        assert_eq!(e2.into_bytes(), bytes, "round trip is byte-idempotent");
    }

    /// Thousands of overlapping triangles scattered in a cube: poor spatial
    /// separation makes many children overlap a ray, forcing a deep
    /// traversal stack.
    fn deep_scene() -> (Tlas, Vec<Blas>) {
        let mut tris = Vec::new();
        let mut state = 0x12345678u32;
        let mut rng = || {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (state >> 8) as f32 / 16_777_216.0 * 20.0 - 10.0
        };
        for _ in 0..2048 {
            // Large triangles spanning much of the cube: every node's
            // children overlap almost any ray.
            tris.push(Triangle::new(
                Vec3::new(rng(), rng(), rng()),
                Vec3::new(rng(), rng(), rng()),
                Vec3::new(rng(), rng(), rng()),
            ));
        }
        let blas = Blas::from_triangles(&tris);
        let tlas = Tlas::build(vec![Instance::new(0, Mat4x3::IDENTITY)], &[&blas]);
        (tlas, vec![blas])
    }

    #[test]
    fn deep_scene_generates_spill_traffic() {
        let (tlas, blases) = deep_scene();
        let mut rt = RtRuntime::new(tlas, blases, [1, 1, 1], false);
        // Ray through the middle of the cloud, forced to visit everything
        // near its path (no early hit thanks to a tiny t interval... use a
        // ray that misses all triangles but crosses many boxes).
        rt.traverse(
            0,
            RayDesc {
                origin: [-15.0, 0.05, 0.05],
                dir: [1.0, 0.001, 0.001],
                t_min: 1e-3,
                t_max: 1e30,
                flags: 0,
            },
        )
        .unwrap();
        assert!(rt.stats.spill_stores > 0);
        assert!(rt.stats.spill_loads > 0);
    }

    /// Known defect, pinned until the spill region moves: thread `tid`'s
    /// spill window reaches the BLAS arena at tid 8192, so on the 9 216
    /// threads of a Small-scale launch two EXT and two RTV5 threads spill
    /// onto BVH node lines (Paper-scale launches alias hundreds; Test-scale
    /// launches stay clear). Moving the region moves simulated counters,
    /// so the fix flips this test.
    #[test]
    fn spill_windows_alias_the_blas_arena_from_thread_8192() {
        use vksim_scenes::{build, Scale, WorkloadKind};
        use vksim_vulkan::BLAS_ARENA_BASE;
        const WINDOW: u64 = 64 * 32;
        assert!(spill_base(8191) + WINDOW <= BLAS_ARENA_BASE);
        assert!(spill_base(8192) > BLAS_ARENA_BASE);
        let aliased = |kind| {
            let w = build(kind, Scale::Small);
            let arena = BLAS_ARENA_BASE
                ..w.device
                    .blases
                    .iter()
                    .map(|b| b.base_addr + b.size_bytes())
                    .max()
                    .expect("scene has a BLAS");
            let threads = w.cmd.dims.width * w.cmd.dims.height * w.cmd.dims.depth;
            let spills_into_arena =
                |tid| spill_base(tid) < arena.end && spill_base(tid) + WINDOW > arena.start;
            (
                threads,
                (0..threads as usize)
                    .filter(|&t| spills_into_arena(t))
                    .count(),
            )
        };
        assert_eq!(aliased(WorkloadKind::Ext), (9216, 2));
        assert_eq!(aliased(WorkloadKind::Rtv5), (9216, 2));
    }

    /// Traces `ray` through a runtime with scripts and one without; both
    /// must agree on the outcome, the committed hit kind and the stats.
    /// Returns the outcome and the hit kind.
    fn trace_both_modes(scene: (Tlas, Vec<Blas>), ray: RayDesc) -> (Result<(), RtError>, u32) {
        let (tlas, blases) = (Arc::new(scene.0), Arc::new(scene.1));
        let runtime = || RtRuntime::new(Arc::clone(&tlas), Arc::clone(&blases), [4, 4, 1], false);
        let mut rec = runtime();
        let mut func = runtime().without_scripts();
        let outcome = rec.traverse(0, ray);
        assert_eq!(func.traverse(0, ray), outcome);
        let kind = rec.query(0, RtQuery::HitKind);
        assert_eq!(func.query(0, RtQuery::HitKind), kind);
        assert_eq!(func.stats, rec.stats);
        assert!(func.take_script(0).is_empty());
        (outcome, kind)
    }

    /// Hooks that hand every call to a runtime and fold each thread's
    /// replay script, taken right after the `traverse` that recorded it,
    /// into an FNV-1a-64 of its `Snap` bytes.
    struct ScriptHasher {
        rt: RtRuntime,
        fnv: u64,
        steps: u64,
    }

    impl ScriptHasher {
        fn new(rt: RtRuntime) -> Self {
            ScriptHasher {
                rt,
                fnv: vksim_snapshot::fnv1a_init(),
                steps: 0,
            }
        }
    }

    impl RtHooks for ScriptHasher {
        fn traverse(&mut self, tid: usize, ray: RayDesc) -> Result<(), RtError> {
            self.rt.traverse(tid, ray)?;
            let script = self.rt.take_script(tid);
            self.steps += script.len() as u64;
            let mut e = Enc::new();
            script.save(&mut e);
            self.fnv = vksim_snapshot::fnv1a(self.fnv, &e.into_bytes());
            Ok(())
        }
        fn end_trace(&mut self, tid: usize) {
            self.rt.end_trace(tid);
        }
        fn alloc_mem(&mut self, tid: usize, size: u32) -> u64 {
            self.rt.alloc_mem(tid, size)
        }
        fn query(&mut self, tid: usize, q: RtQuery) -> u32 {
            self.rt.query(tid, q)
        }
        fn query_idx(&mut self, tid: usize, q: RtIdxQuery, idx: u32) -> u32 {
            self.rt.query_idx(tid, q, idx)
        }
        fn intersection_valid(&mut self, tid: usize, idx: u32) -> bool {
            self.rt.intersection_valid(tid, idx)
        }
        fn next_coalesced_call(&mut self, tid: usize, idx: u32) -> u32 {
            self.rt.next_coalesced_call(tid, idx)
        }
        fn report_intersection(&mut self, tid: usize, idx: u32, t: f32) -> Result<(), RtError> {
            self.rt.report_intersection(tid, idx, t)
        }
    }

    /// The replay scripts of every thread of each Test-scale scene, run
    /// thread after thread as `run_functional` runs them, and of rays
    /// through `deep_scene` that spill the short stack, hash as recorded:
    /// `(fnv, steps, spill stores)` per case.
    #[test]
    fn replay_scripts_are_pinned() {
        use vksim_isa::interp::{run_to_exit, ThreadState};
        use vksim_scenes::{build, Scale, WorkloadKind};
        let mut got = Vec::new();
        for (kind, fcc) in [
            (WorkloadKind::Tri, false),
            (WorkloadKind::Ref, false),
            (WorkloadKind::Ext, false),
            (WorkloadKind::Rtv5, false),
            (WorkloadKind::Rtv6, false),
            (WorkloadKind::Rtv6, true),
        ] {
            let mut w = build(kind, Scale::Test);
            let cmd = if fcc { w.with_fcc(true) } else { w.cmd.clone() };
            let tlas = w.device.tlas.clone().expect("scene has a TLAS");
            let dims = [cmd.dims.width, cmd.dims.height, cmd.dims.depth];
            let mut hooks = ScriptHasher::new(RtRuntime::new(
                tlas,
                Arc::clone(&w.device.blases),
                dims,
                cmd.fcc,
            ));
            let mut mem = w.device.memory.clone();
            let mut t =
                ThreadState::with_tid(cmd.program.num_regs(), cmd.program.num_preds().max(1), 0);
            for tid in 0..dims.iter().product::<u32>() as usize {
                t.reset(tid);
                run_to_exit(&cmd.program, &mut t, &mut mem, &mut hooks).expect("healthy run");
            }
            got.push((hooks.fnv, hooks.steps, hooks.rt.stats.spill_stores));
        }
        let (tlas, blases) = deep_scene();
        let mut hooks = ScriptHasher::new(RtRuntime::new(tlas, blases, [64, 1, 1], false));
        for tid in 0..64 {
            let (y, z) = ((tid % 8) as f32 - 3.5, (tid / 8) as f32 - 3.5);
            let ray = RayDesc {
                origin: [-15.0, y, z],
                dir: [1.0, 0.001 * y, 0.001 * z],
                t_min: 1e-3,
                t_max: 1e30,
                flags: tid as u32 % 2 * RAY_FLAG_TERMINATE_ON_FIRST_HIT,
            };
            hooks.traverse(tid, ray).unwrap();
            hooks.end_trace(tid);
        }
        got.push((hooks.fnv, hooks.steps, hooks.rt.stats.spill_stores));
        assert_eq!(
            got,
            [
                (5886118574852938021, 2476, 0),
                (15842726105786255545, 4702, 0),
                (8996069366731382607, 17743, 0),
                (4852678411040008238, 14101, 30),
                (11463787136777092913, 5544, 0),
                (16718649412765931068, 6378, 0),
                (10191665387761689878, 21000, 6074),
            ]
        );
    }

    #[test]
    fn degenerate_rays_miss_in_both_modes() {
        let nan = f32::NAN;
        for (what, ray) in [
            (
                "NaN origin",
                RayDesc {
                    origin: [nan, 0.0, -5.0],
                    ..z_ray()
                },
            ),
            (
                "NaN direction",
                RayDesc {
                    dir: [0.0, nan, 1.0],
                    ..z_ray()
                },
            ),
            (
                "t_min > t_max",
                RayDesc {
                    t_min: 10.0,
                    t_max: 1.0,
                    ..z_ray()
                },
            ),
        ] {
            assert_eq!(trace_both_modes(quad_scene(), ray), (Ok(()), 0), "{what}");
        }
        // An unbounded interval is a well-formed ray: it still hits.
        let unbounded = RayDesc {
            t_max: f32::INFINITY,
            ..z_ray()
        };
        assert_eq!(trace_both_modes(quad_scene(), unbounded), (Ok(()), 1));
    }

    #[test]
    fn instances_of_an_empty_blas_are_skipped_in_both_modes() {
        let (_, quad) = quad_scene();
        let empty = Blas::from_triangles(&[]);
        let instances = vec![
            Instance::new(0, Mat4x3::IDENTITY),
            Instance::new(1, Mat4x3::IDENTITY),
        ];
        let tlas = Tlas::build(instances.clone(), &[&empty, &quad[0]]);
        let scene = (tlas, vec![empty.clone(), quad[0].clone()]);
        assert_eq!(trace_both_modes(scene, z_ray()), (Ok(()), 1));
        let only_empty = Tlas::build(instances[..1].to_vec(), &[&empty]);
        assert_eq!(
            trace_both_modes((only_empty, vec![empty]), z_ray()),
            (Ok(()), 0)
        );
    }
}
