//! Functional acceleration-structure traversal (paper Algorithm 2).
//!
//! A ray starts at the TLAS root, walks internal nodes, transforms into each
//! intersected instance's object space (world-to-object matrix from the
//! 128 B top-level leaf), walks BLAS internal nodes, performs ray-triangle
//! tests at triangle leaves, and *collects* procedural leaves into an
//! intersection buffer for delayed intersection-shader execution (paper
//! §III-A, "delayed intersection and any-hit execution").
//!
//! Every node fetch, short-stack spill and intersection-buffer access can
//! be recorded as a [`Step`] of the RT unit's replay script, which the
//! timing model replays against the simulated memory hierarchy — the
//! paper's *transactions buffer* (§III-B4: "Every time a ray accesses a
//! node or intersection buffer, we record memory addresses that are
//! accessed with its size and data type to a transactions buffer, which is
//! then sent to the timing model").

use crate::node::Node;
use crate::script::{OpKind, Step};
use crate::tlas::{Blas, Tlas};
use std::borrow::Borrow;
use vksim_math::{intersect, Ray, Vec3};

/// Short-stack entries per ray; deeper pushes spill to memory (§III-C2).
pub const SHORT_STACK_ENTRIES: u32 = 8;

/// One BVH-node visit recorded for the analytics layer: which node was
/// fetched, how deep in its tree it sits, and whether the visit *hit*
/// (an internal node with at least one intersected child, a pushed
/// instance, a passing triangle test, or a collected procedural leaf).
/// Only recorded when [`TraversalConfig::record_visits`] is on, so the
/// default path allocates nothing for it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeVisit {
    /// Node index within its arena.
    pub node: u32,
    /// Tree depth of the node within its own BVH (root = 0).
    pub depth: u32,
    /// `true` for a bottom-level (BLAS) node, `false` for top-level.
    pub blas: bool,
    /// Absolute simulated address of the fetch (for line-reuse analysis).
    pub addr: u64,
    /// The visit contributed to the traversal (see type docs).
    pub hit: bool,
}

/// A committed triangle hit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TriangleIntersection {
    /// Ray parameter of the hit.
    pub t: f32,
    /// Barycentric u.
    pub u: f32,
    /// Barycentric v.
    pub v: f32,
    /// Primitive index within its geometry.
    pub primitive_index: u32,
    /// Geometry index within the BLAS.
    pub geometry_index: u32,
    /// Instance index within the TLAS.
    pub instance_index: u32,
    /// The instance's user custom index.
    pub instance_custom_index: u32,
    /// The instance's SBT record offset (selects the closest-hit shader).
    pub sbt_offset: u32,
    /// Geometric normal in world space (unit length).
    pub world_normal: Vec3,
    /// `true` when the back face was hit.
    pub back_face: bool,
}

/// A procedural-leaf encounter queued for delayed intersection-shader
/// execution (paper Algorithm 2 line 17: "add intersection to
/// intersectionBuffer").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProceduralHit {
    /// Primitive index within its geometry.
    pub primitive_index: u32,
    /// Intersection-shader index registered for the geometry.
    pub shader_id: u32,
    /// Instance index within the TLAS.
    pub instance_index: u32,
    /// The instance's user custom index.
    pub instance_custom_index: u32,
    /// The instance's SBT record offset.
    pub sbt_offset: u32,
    /// Ray parameter at which the ray enters the primitive's AABB.
    pub t_enter: f32,
}

vksim_snapshot::snap_struct!(ProceduralHit {
    primitive_index,
    shader_id,
    instance_index,
    instance_custom_index,
    sbt_offset,
    t_enter
});

/// Traversal options.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraversalConfig {
    /// Terminate on the first confirmed triangle hit
    /// (`gl_RayFlagsTerminateOnFirstHitEXT`, used by shadow rays).
    pub terminate_on_first_hit: bool,
    /// Record the replay script into [`TraversalResult::script`], placing
    /// the ray's own traffic as given (`None` for functional-only runs; no
    /// count in [`TraversalResult`] depends on it).
    pub record_script: Option<ScriptConfig>,
    /// Record a [`NodeVisit`] per fetched node (analytics layer only).
    pub record_visits: bool,
}

impl Default for TraversalConfig {
    fn default() -> Self {
        TraversalConfig {
            terminate_on_first_hit: false,
            record_script: Some(ScriptConfig::default()),
            record_visits: false,
        }
    }
}

/// Where a recorded script puts the ray's per-thread memory traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ScriptConfig {
    /// Base address of the ray's intersection buffer.
    pub intersection_buffer_base: u64,
    /// Base address of the ray's 64-slot short-stack spill window.
    pub spill_base: u64,
    /// FCC (§IV-A): probe the coalescing table for a matching shader ID (a
    /// load) before each intersection-buffer store (§VI-E: "FCC results in
    /// 11% more memory loads in the RT unit").
    pub fcc: bool,
}

/// Per-entry size of the intersection buffer: shader id + primitive index +
/// instance index + SBT offset + custom index + t (6 x 4 B, padded to 32 B).
pub const INTERSECTION_ENTRY_SIZE: u32 = 32;

/// Result of one ray's traversal.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraversalResult {
    /// Closest committed triangle hit, if any.
    pub closest: Option<TriangleIntersection>,
    /// Procedural hits pending intersection-shader execution.
    pub procedural_hits: Vec<ProceduralHit>,
    /// The RT unit's replay script (empty when `record_script` is off).
    pub script: Vec<Step>,
    /// Per-node visit records (empty when `record_visits` is off).
    pub visits: Vec<NodeVisit>,
    /// Number of BVH nodes fetched.
    pub nodes_visited: u32,
    /// Number of ray-box tests performed.
    pub box_tests: u32,
    /// Number of ray-triangle tests performed.
    pub triangle_tests: u32,
    /// Number of ray transformations performed.
    pub transforms: u32,
    /// Deepest traversal-stack occupancy reached.
    pub max_stack_depth: u32,
    /// Spill stores: pushes leaving more than [`SHORT_STACK_ENTRIES`].
    pub spill_stores: u32,
    /// Spill reloads: pops from more than [`SHORT_STACK_ENTRIES`].
    pub spill_loads: u32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Space {
    Tlas,
    Blas { instance: u32 },
}

#[derive(Clone, Copy, Debug)]
struct StackEntry {
    node: u32,
    space: Space,
    t_enter: f32,
    /// Tree depth within the entry's own BVH (each BLAS restarts at 0).
    depth: u32,
}

/// A structural fault detected during traversal (corrupt or mismatched
/// acceleration structure). Traversal validates every pointer it chases and
/// bounds total node visits, so a corrupt child pointer — out of range or
/// forming a cycle — is a classified error, never a panic or an infinite
/// loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraversalError {
    /// An instance references a BLAS index outside the provided table.
    MissingBlas {
        /// TLAS instance index.
        instance: u32,
        /// The out-of-range BLAS index it references.
        blas_index: u32,
    },
    /// A child pointer escaped its node arena.
    NodeOutOfRange {
        /// The corrupt node index.
        node: u32,
        /// Arena length of the structure being walked.
        len: usize,
    },
    /// A bottom-level leaf kind appeared while walking the TLAS.
    LeafInTlas {
        /// The offending node index.
        node: u32,
    },
    /// Total node visits exceeded the structural budget: the pointer graph
    /// contains a cycle (corrupt child pointer back into an ancestor).
    VisitBudgetExceeded {
        /// The exhausted budget.
        budget: u64,
    },
}

impl std::fmt::Display for TraversalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraversalError::MissingBlas {
                instance,
                blas_index,
            } => write!(
                f,
                "instance {instance} references missing BLAS {blas_index}"
            ),
            TraversalError::NodeOutOfRange { node, len } => {
                write!(
                    f,
                    "corrupt BVH child pointer {node} (arena has {len} nodes)"
                )
            }
            TraversalError::LeafInTlas { node } => {
                write!(f, "bottom-level leaf node {node} reached in TLAS space")
            }
            TraversalError::VisitBudgetExceeded { budget } => {
                write!(
                    f,
                    "BVH traversal exceeded {budget} node visits (pointer cycle)"
                )
            }
        }
    }
}

impl std::error::Error for TraversalError {}

/// Traverses the two-level acceleration structure for one ray.
///
/// `blases[instance.blas_index]` must hold every BLAS referenced by the
/// TLAS; the table may hold the BLASes or references to them. The
/// world-space ray's `t_max` shrinks as triangle hits commit; procedural
/// hits do not shrink it (their surfaces are resolved later by
/// intersection shaders, per the delayed-execution scheme).
///
/// # Errors
///
/// Returns a [`TraversalError`] when the structure is corrupt: a missing
/// BLAS, an out-of-range child pointer, a bottom-level leaf in the TLAS, or
/// a pointer cycle (caught by a node-visit budget).
pub fn traverse<B: Borrow<Blas>>(
    tlas: &Tlas,
    blases: &[B],
    ray: &Ray,
    config: &TraversalConfig,
) -> Result<TraversalResult, TraversalError> {
    let mut out = TraversalResult::default();
    if tlas.bvh.is_empty() {
        return Ok(out);
    }

    // A healthy two-level walk visits each TLAS node at most once and each
    // BLAS node at most once per instance entry; corrupt pointers that form
    // a cycle blow well past this bound and are caught instead of spinning.
    let blas_nodes: usize = blases.iter().map(|b| b.borrow().bvh.node_count()).sum();
    let total_nodes = tlas.bvh.node_count() + blas_nodes * tlas.instances.len().max(1);
    let visit_budget = (total_nodes as u64).saturating_mul(4).max(4096);

    let mut world_ray = *ray;
    let mut stack: Vec<StackEntry> = Vec::with_capacity(64);
    stack.push(StackEntry {
        node: 0,
        space: Space::Tlas,
        t_enter: world_ray.t_min,
        depth: 0,
    });
    out.max_stack_depth = 1;

    // Cached object-space ray for the instance currently being traversed.
    let mut cached_instance: Option<u32> = None;
    let mut object_ray = world_ray;

    while let Some(entry) = stack.pop() {
        spill(&mut out, config, stack.len() + 1, Spill::Reload);
        // A committed hit may have shrunk t_max below this subtree's entry.
        if entry.t_enter > world_ray.t_max {
            continue;
        }

        let (bvh, base, space_ray) = match entry.space {
            Space::Tlas => (&tlas.bvh, tlas.base_addr, {
                object_ray.t_max = world_ray.t_max;
                world_ray
            }),
            Space::Blas { instance } => {
                let inst = &tlas.instances[instance as usize];
                let blas = blases
                    .get(inst.blas_index as usize)
                    .ok_or(TraversalError::MissingBlas {
                        instance,
                        blas_index: inst.blas_index,
                    })?
                    .borrow();
                if cached_instance != Some(instance) {
                    // Re-entering a different instance: re-apply the
                    // world-to-object transform (Algorithm 2 line 6).
                    object_ray = inst.world_to_object.transform_ray(&world_ray);
                    cached_instance = Some(instance);
                    out.transforms += 1;
                }
                object_ray.t_max = world_ray.t_max;
                (&blas.bvh, blas.base_addr, object_ray)
            }
        };

        let node = bvh
            .nodes
            .get(entry.node as usize)
            .ok_or(TraversalError::NodeOutOfRange {
                node: entry.node,
                len: bvh.nodes.len(),
            })?;
        if out.nodes_visited as u64 >= visit_budget {
            return Err(TraversalError::VisitBudgetExceeded {
                budget: visit_budget,
            });
        }
        if config.record_script.is_some() {
            // The operation unit that consumes the node's data.
            let op = match node {
                Node::Internal(int) => OpKind::Box {
                    tests: int.child_count,
                },
                Node::Triangle(_) => OpKind::Triangle,
                Node::Instance(_) => OpKind::Transform,
                Node::Procedural(_) => OpKind::None,
            };
            out.script.push(Step::Fetch {
                addr: base + bvh.offset_of(entry.node),
                size: node.kind().size_bytes() as u32,
                op,
            });
        }
        out.nodes_visited += 1;
        if config.record_visits {
            // Recorded as a miss; the arms below upgrade the entry when the
            // visit contributes (child/triangle/instance/procedural hit).
            out.visits.push(NodeVisit {
                node: entry.node,
                depth: entry.depth,
                blas: entry.space != Space::Tlas,
                addr: base + bvh.offset_of(entry.node),
                hit: false,
            });
        }

        match node {
            Node::Internal(int) => {
                // Test all child AABBs, push hits nearest-first.
                let mut hits: [(u32, f32); crate::BVH_WIDTH] = [(0, 0.0); crate::BVH_WIDTH];
                let mut nhits = 0usize;
                out.box_tests += int.child_count as u32;
                for (child, bounds) in int.iter_children() {
                    if let Some(t) =
                        intersect::ray_aabb(&space_ray, bounds, space_ray.t_min, world_ray.t_max)
                    {
                        hits[nhits] = (child, t);
                        nhits += 1;
                    }
                }
                // Sort hit children by descending entry t so the nearest is
                // popped first.
                hits[..nhits]
                    .sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                for &(child, t) in &hits[..nhits] {
                    stack.push(StackEntry {
                        node: child,
                        space: entry.space,
                        t_enter: t,
                        depth: entry.depth + 1,
                    });
                    spill(&mut out, config, stack.len(), Spill::Store);
                }
                out.max_stack_depth = out.max_stack_depth.max(stack.len() as u32);
                if nhits > 0 {
                    mark_visit_hit(&mut out, config);
                }
            }
            Node::Instance(leaf) => {
                let inst = &tlas.instances[leaf.instance_index as usize];
                let blas = blases
                    .get(inst.blas_index as usize)
                    .ok_or(TraversalError::MissingBlas {
                        instance: leaf.instance_index,
                        blas_index: inst.blas_index,
                    })?
                    .borrow();
                if !blas.bvh.is_empty() {
                    stack.push(StackEntry {
                        node: 0,
                        space: Space::Blas {
                            instance: leaf.instance_index,
                        },
                        t_enter: entry.t_enter,
                        depth: 0,
                    });
                    spill(&mut out, config, stack.len(), Spill::Store);
                    out.max_stack_depth = out.max_stack_depth.max(stack.len() as u32);
                    mark_visit_hit(&mut out, config);
                }
            }
            Node::Triangle(leaf) => {
                let Space::Blas { instance } = entry.space else {
                    return Err(TraversalError::LeafInTlas { node: entry.node });
                };
                let mut test_ray = space_ray;
                test_ray.t_max = world_ray.t_max;
                out.triangle_tests += 1;
                let tri = &leaf.triangle;
                if let Some(hit) = intersect::ray_triangle(&test_ray, tri.v0, tri.v1, tri.v2) {
                    mark_visit_hit(&mut out, config);
                    let inst = &tlas.instances[instance as usize];
                    // Commit: shrink t_max (Algorithm 2 line 14, "update
                    // closest-hit geometry").
                    world_ray.t_max = hit.t;
                    let obj_normal = tri.normal();
                    let mut world_normal = inst
                        .object_to_world
                        .transform_vector(obj_normal)
                        .normalized();
                    if hit.back_face {
                        world_normal = -world_normal;
                    }
                    out.closest = Some(TriangleIntersection {
                        t: hit.t,
                        u: hit.u,
                        v: hit.v,
                        primitive_index: leaf.primitive_index,
                        geometry_index: leaf.geometry_index,
                        instance_index: instance,
                        instance_custom_index: inst.custom_index,
                        sbt_offset: inst.sbt_offset,
                        world_normal,
                        back_face: hit.back_face,
                    });
                    if config.terminate_on_first_hit {
                        return Ok(out);
                    }
                }
            }
            Node::Procedural(leaf) => {
                let Space::Blas { instance } = entry.space else {
                    return Err(TraversalError::LeafInTlas { node: entry.node });
                };
                let inst = &tlas.instances[instance as usize];
                let idx = out.procedural_hits.len() as u64;
                out.procedural_hits.push(ProceduralHit {
                    primitive_index: leaf.primitive_index,
                    shader_id: leaf.shader_id,
                    instance_index: instance,
                    instance_custom_index: inst.custom_index,
                    sbt_offset: inst.sbt_offset,
                    t_enter: entry.t_enter,
                });
                if let Some(sc) = &config.record_script {
                    let addr = sc.intersection_buffer_base + idx * INTERSECTION_ENTRY_SIZE as u64;
                    let size = INTERSECTION_ENTRY_SIZE;
                    if sc.fcc {
                        let op = OpKind::None;
                        out.script.push(Step::Fetch { addr, size, op });
                    }
                    out.script.push(Step::Store { addr, size });
                }
                mark_visit_hit(&mut out, config);
            }
        }
    }
    Ok(out)
}

/// The two directions of short-stack spill traffic.
#[derive(Clone, Copy)]
enum Spill {
    Store,
    Reload,
}

/// The short-stack spill rule (§III-C2): a push that leaves more than
/// [`SHORT_STACK_ENTRIES`] entries stores an entry to the ray's spill
/// window, and a pop from more reloads one. `depth` is the stack depth the
/// push left or the pop started from; it picks the 32 B slot.
#[inline]
fn spill(out: &mut TraversalResult, config: &TraversalConfig, depth: usize, dir: Spill) {
    if depth <= SHORT_STACK_ENTRIES as usize {
        return;
    }
    let slot = config
        .record_script
        .map(|sc| sc.spill_base + (depth as u64 % 64) * 32);
    let step = match dir {
        Spill::Store => {
            out.spill_stores += 1;
            slot.map(|addr| Step::Store { addr, size: 32 })
        }
        Spill::Reload => {
            out.spill_loads += 1;
            slot.map(|addr| Step::Fetch {
                addr,
                size: 32,
                op: OpKind::None,
            })
        }
    };
    out.script.extend(step);
}

/// Upgrades the most recent [`NodeVisit`] to a hit. Every call site runs
/// while the visit pushed for the current node is still last in the vec.
#[inline]
fn mark_visit_hit(out: &mut TraversalResult, config: &TraversalConfig) {
    if config.record_visits {
        if let Some(v) = out.visits.last_mut() {
            v.hit = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{BlasGeometry, ProceduralPrimitive, Triangle};
    use crate::tlas::Instance;
    use vksim_math::{Aabb, Mat4x3};

    fn quad_at_z(z: f32) -> Vec<Triangle> {
        vec![
            Triangle::new(
                Vec3::new(-1.0, -1.0, z),
                Vec3::new(1.0, -1.0, z),
                Vec3::new(1.0, 1.0, z),
            ),
            Triangle::new(
                Vec3::new(-1.0, -1.0, z),
                Vec3::new(1.0, 1.0, z),
                Vec3::new(-1.0, 1.0, z),
            ),
        ]
    }

    fn single_quad_scene() -> (Tlas, Blas) {
        let blas = Blas::from_triangles(&quad_at_z(0.0));
        let tlas = Tlas::build(vec![Instance::new(0, Mat4x3::IDENTITY)], &[&blas]);
        (tlas, blas)
    }

    #[test]
    fn hit_through_quad() {
        let (tlas, blas) = single_quad_scene();
        let ray = Ray::new(Vec3::new(0.2, 0.3, -5.0), Vec3::Z);
        let r = traverse(&tlas, &[&blas], &ray, &TraversalConfig::default()).unwrap();
        let hit = r.closest.expect("hit");
        assert!((hit.t - 5.0).abs() < 1e-4);
        assert!(hit.world_normal.z < 0.0, "normal should face the ray");
        assert!(r.nodes_visited >= 3); // TLAS root + instance leaf + BLAS nodes
        assert!(r.triangle_tests >= 1);
    }

    /// `record_visits` records exactly one entry per fetched node, carrying
    /// the tree depth the node sits at; the default config records none.
    #[test]
    fn record_visits_mirrors_nodes_visited() {
        let (tlas, blas) = single_quad_scene();
        let ray = Ray::new(Vec3::new(0.2, 0.3, -5.0), Vec3::Z);
        let off = traverse(&tlas, &[&blas], &ray, &TraversalConfig::default()).unwrap();
        assert!(off.visits.is_empty(), "visits are off by default");

        let cfg = TraversalConfig {
            record_visits: true,
            ..TraversalConfig::default()
        };
        let r = traverse(&tlas, &[&blas], &ray, &cfg).unwrap();
        assert_eq!(r.visits.len() as u32, r.nodes_visited);
        // The walk starts at the TLAS root (depth 0, not a BLAS node) and,
        // on a hitting ray, every BVH level contributes at least one hit.
        assert!(matches!(
            r.visits.first(),
            Some(NodeVisit {
                depth: 0,
                blas: false,
                hit: true,
                ..
            })
        ));
        assert!(r.visits.iter().any(|v| v.blas && v.hit));
        // Functional output is identical with recording on.
        assert_eq!(r.closest, off.closest);
        assert_eq!(r.nodes_visited, off.nodes_visited);
    }

    #[test]
    fn miss_outside_quad() {
        let (tlas, blas) = single_quad_scene();
        let ray = Ray::new(Vec3::new(5.0, 5.0, -5.0), Vec3::Z);
        let r = traverse(&tlas, &[&blas], &ray, &TraversalConfig::default()).unwrap();
        assert!(r.closest.is_none());
        assert!(r.procedural_hits.is_empty());
    }

    #[test]
    fn closest_of_two_quads_wins() {
        let blas_near = Blas::from_triangles(&quad_at_z(0.0));
        let blas_far = Blas::from_triangles(&quad_at_z(0.0));
        let instances = vec![
            Instance::new(0, Mat4x3::translation(Vec3::new(0.0, 0.0, 2.0))).with_custom_index(1),
            Instance::new(1, Mat4x3::translation(Vec3::new(0.0, 0.0, 8.0))).with_custom_index(2),
        ];
        let tlas = Tlas::build(instances, &[&blas_near, &blas_far]);
        let ray = Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::Z);
        let r = traverse(
            &tlas,
            &[&blas_near, &blas_far],
            &ray,
            &TraversalConfig::default(),
        )
        .unwrap();
        let hit = r.closest.expect("hit");
        assert_eq!(hit.instance_custom_index, 1);
        assert!((hit.t - 7.0).abs() < 1e-4);
    }

    #[test]
    fn instance_transform_applies_to_ray() {
        let blas = Blas::from_triangles(&quad_at_z(0.0));
        // Instance moved +10 in x: only rays near x=10 hit it.
        let tlas = Tlas::build(
            vec![Instance::new(
                0,
                Mat4x3::translation(Vec3::new(10.0, 0.0, 0.0)),
            )],
            &[&blas],
        );
        let miss = Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::Z);
        let hit = Ray::new(Vec3::new(10.0, 0.0, -5.0), Vec3::Z);
        assert!(
            traverse(&tlas, &[&blas], &miss, &TraversalConfig::default())
                .unwrap()
                .closest
                .is_none()
        );
        let r = traverse(&tlas, &[&blas], &hit, &TraversalConfig::default()).unwrap();
        assert!(r.closest.is_some());
        assert!(r.transforms >= 1, "must transform into BLAS space");
    }

    #[test]
    fn procedural_hits_collected_not_committed() {
        let geo = BlasGeometry::procedurals(vec![ProceduralPrimitive::new(
            Aabb::new(Vec3::new(-1.0, -1.0, -1.0), Vec3::new(1.0, 1.0, 1.0)),
            3,
        )]);
        let blas = Blas::build(geo);
        let tlas = Tlas::build(vec![Instance::new(0, Mat4x3::IDENTITY)], &[&blas]);
        let ray = Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::Z);
        let r = traverse(&tlas, &[&blas], &ray, &TraversalConfig::default()).unwrap();
        assert!(
            r.closest.is_none(),
            "procedural AABB entry is not a committed hit"
        );
        assert_eq!(r.procedural_hits.len(), 1);
        assert_eq!(r.procedural_hits[0].shader_id, 3);
        assert!(r.script.iter().any(|s| matches!(s, Step::Store { .. })));
    }

    #[test]
    fn terminate_on_first_hit_stops_early() {
        let blas = Blas::from_triangles(&quad_at_z(0.0));
        let instances = vec![
            Instance::new(0, Mat4x3::translation(Vec3::new(0.0, 0.0, 2.0))),
            Instance::new(0, Mat4x3::translation(Vec3::new(0.0, 0.0, 8.0))),
        ];
        let tlas = Tlas::build(instances, &[&blas]);
        let ray = Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::Z);
        let full = traverse(&tlas, &[&blas], &ray, &TraversalConfig::default()).unwrap();
        let early = traverse(
            &tlas,
            &[&blas],
            &ray,
            &TraversalConfig {
                terminate_on_first_hit: true,
                ..TraversalConfig::default()
            },
        )
        .unwrap();
        assert!(early.closest.is_some());
        assert!(early.nodes_visited <= full.nodes_visited);
    }

    #[test]
    fn script_has_fetch_per_visited_node() {
        let (tlas, blas) = single_quad_scene();
        let ray = Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::Z);
        let r = traverse(&tlas, &[&blas], &ray, &TraversalConfig::default()).unwrap();
        let fetches = r
            .script
            .iter()
            .filter(|s| matches!(s, Step::Fetch { .. }))
            .count() as u32;
        assert_eq!(fetches, r.nodes_visited);
        // The instance leaf fetch is 128 B and feeds the transform unit.
        assert!(r.script.iter().any(|s| matches!(
            s,
            Step::Fetch {
                size: 128,
                op: OpKind::Transform,
                ..
            }
        )));
    }

    #[test]
    fn record_script_off_produces_empty_script() {
        let (tlas, blas) = single_quad_scene();
        let ray = Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::Z);
        let r = traverse(
            &tlas,
            &[&blas],
            &ray,
            &TraversalConfig {
                record_script: None,
                ..TraversalConfig::default()
            },
        )
        .unwrap();
        assert!(r.script.is_empty());
        assert!(r.closest.is_some());
    }

    #[test]
    fn node_addresses_respect_base() {
        let blas0 = Blas::from_triangles(&quad_at_z(0.0));
        let mut blas = blas0;
        blas.set_base_addr(0x9000_0000);
        let mut tlas = Tlas::build(vec![Instance::new(0, Mat4x3::IDENTITY)], &[&blas]);
        tlas.set_base_addr(0x8000_0000);
        let ray = Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::Z);
        let r = traverse(&tlas, &[&blas], &ray, &TraversalConfig::default()).unwrap();
        let mut saw_tlas = false;
        let mut saw_blas = false;
        for s in &r.script {
            if let Step::Fetch { addr, .. } = s {
                if *addr >= 0x9000_0000 {
                    saw_blas = true;
                } else if *addr >= 0x8000_0000 {
                    saw_tlas = true;
                }
            }
        }
        assert!(saw_tlas && saw_blas);
    }

    #[test]
    fn empty_tlas_returns_default() {
        let tlas = Tlas::build(vec![], &[]);
        let ray = Ray::new(Vec3::ZERO, Vec3::Z);
        let r = traverse::<Blas>(&tlas, &[], &ray, &TraversalConfig::default()).unwrap();
        assert_eq!(r, TraversalResult::default());
    }

    #[test]
    fn corrupt_child_pointer_is_a_classified_error() {
        let (tlas, mut blas) = single_quad_scene();
        // Point an internal node's first child outside the arena.
        let arena_len = blas.bvh.nodes.len();
        for node in &mut blas.bvh.nodes {
            if let Node::Internal(int) = node {
                int.children[0] = 0xDEAD_BEEF;
                break;
            }
        }
        let ray = Ray::new(Vec3::new(0.2, 0.3, -5.0), Vec3::Z);
        let err = traverse(&tlas, &[&blas], &ray, &TraversalConfig::default()).unwrap_err();
        assert_eq!(
            err,
            TraversalError::NodeOutOfRange {
                node: 0xDEAD_BEEF,
                len: arena_len,
            }
        );
    }

    #[test]
    fn child_pointer_cycle_hits_visit_budget() {
        let (tlas, mut blas) = single_quad_scene();
        // Point an internal node's first child back at the root: an
        // in-range cycle that only the visit budget can catch.
        for node in &mut blas.bvh.nodes {
            if let Node::Internal(int) = node {
                int.children[0] = 0;
                break;
            }
        }
        let ray = Ray::new(Vec3::new(0.2, 0.3, -5.0), Vec3::Z);
        let err = traverse(&tlas, &[&blas], &ray, &TraversalConfig::default()).unwrap_err();
        assert!(
            matches!(err, TraversalError::VisitBudgetExceeded { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn missing_blas_is_a_classified_error() {
        let (tlas, _) = single_quad_scene();
        let ray = Ray::new(Vec3::new(0.2, 0.3, -5.0), Vec3::Z);
        let err = traverse::<Blas>(&tlas, &[], &ray, &TraversalConfig::default()).unwrap_err();
        assert!(
            matches!(err, TraversalError::MissingBlas { blas_index: 0, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn big_scene_traversal_is_logarithmic() {
        // 1024 quads in a row; a single ray should visit far fewer nodes
        // than the total.
        let mut tris = Vec::new();
        for i in 0..1024 {
            let x = i as f32 * 3.0;
            tris.push(Triangle::new(
                Vec3::new(x - 1.0, -1.0, 0.0),
                Vec3::new(x + 1.0, -1.0, 0.0),
                Vec3::new(x, 1.0, 0.0),
            ));
        }
        let blas = Blas::from_triangles(&tris);
        let tlas = Tlas::build(vec![Instance::new(0, Mat4x3::IDENTITY)], &[&blas]);
        let ray = Ray::new(Vec3::new(300.0, 0.0, -5.0), Vec3::Z);
        let r = traverse(&tlas, &[&blas], &ray, &TraversalConfig::default()).unwrap();
        assert!(r.closest.is_some());
        assert!(
            r.nodes_visited < 100,
            "visited {} of {} nodes",
            r.nodes_visited,
            blas.bvh.node_count()
        );
    }
}
