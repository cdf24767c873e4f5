//! Two-level 6-wide bounding volume hierarchy (acceleration structure).
//!
//! This crate reproduces the acceleration structure Vulkan-Sim adopts from
//! Mesa (paper §III-B1): a 6-wide BVH split into one *bottom-level* AS
//! ([`Blas`]) per unique object and a single *top-level* AS ([`Tlas`]) that
//! positions BLAS instances in the scene with transformation matrices.
//!
//! Node memory layout follows Fig. 7 of the paper:
//!
//! * internal nodes are 64 bytes, hold the AABBs of up to six children and a
//!   pointer to the first child (children are stored consecutively);
//! * top-level leaf nodes are 128 bytes, holding the BLAS root pointer, the
//!   object-to-world and world-to-object matrices and user instance indices;
//! * triangle leaves are 64 bytes (leaf descriptor, primitive index,
//!   vertices); procedural leaves hold a descriptor and primitive index.
//!
//! [`traversal::traverse`] implements Algorithm 2 of the paper and records a
//! byte-accurate [`Step`] script per ray — every node fetch with its
//! address, size and operation, every short-stack spill and every
//! intersection-buffer access — which the RT-unit timing model replays
//! against the simulated memory hierarchy, exactly like the paper's
//! *transactions buffer*.
//!
//! # Example
//!
//! ```
//! use vksim_bvh::{Blas, Tlas, Instance, geometry::Triangle, traversal};
//! use vksim_math::{Mat4x3, Ray, Vec3};
//!
//! let tri = Triangle::new(
//!     Vec3::new(-1.0, -1.0, 0.0),
//!     Vec3::new(1.0, -1.0, 0.0),
//!     Vec3::new(0.0, 1.0, 0.0),
//! );
//! let blas = Blas::from_triangles(&[tri]);
//! let tlas = Tlas::build(vec![Instance::new(0, Mat4x3::IDENTITY)], &[&blas]);
//! let ray = Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::Z);
//! let result = traversal::traverse(&tlas, &[&blas], &ray, &traversal::TraversalConfig::default())
//!     .expect("structure is well-formed");
//! assert!(result.closest.is_some());
//! ```

pub mod build;
pub mod geometry;
pub mod node;
pub mod script;
pub mod tlas;
pub mod traversal;

pub use build::BuildOptions;
pub use node::{NodeKind, WideBvh, INSTANCE_LEAF_SIZE, INTERNAL_NODE_SIZE, PRIMITIVE_LEAF_SIZE};
pub use script::{OpKind, Step};
pub use tlas::{Blas, Instance, Tlas};
pub use traversal::{
    NodeVisit, ProceduralHit, ScriptConfig, TraversalConfig, TraversalError, TraversalResult,
    TriangleIntersection,
};

/// Maximum branching factor of the wide BVH (Mesa's layout, paper §III-B1).
pub const BVH_WIDTH: usize = 6;
