//! Evaluation workloads (paper Table IV) and the reference renderer.
//!
//! The paper evaluates five Vulkan ray-tracing workloads:
//!
//! | name | content | rays |
//! |------|---------|------|
//! | TRI  | a single ray-traced triangle | primary only |
//! | REF  | mirror reflections and shadows (50 prims) | primary + secondary |
//! | EXT  | Sponza-like architectural scene (≈283 k prims at paper scale) | primary, shadow, ambient occlusion |
//! | RTV5 | statue-like mesh, path traced (≈449 k prims at paper scale) | incoherent bounces |
//! | RTV6 | procedural spheres **and** cubes with two intersection shaders (4080 prims) | incoherent bounces |
//!
//! We cannot ship the original assets (Sponza, the RayTracingInVulkan
//! statue), so each scene is generated procedurally at a configurable
//! [`Scale`], matching the paper's primitive counts at [`Scale::Paper`] and
//! staying laptop-test-friendly at [`Scale::Test`] (see DESIGN.md's
//! substitution table).
//!
//! Shaders are written in the `vksim-shader` DSL (standing in for GLSL) and
//! compiled by the device into executable pipelines. The [`reference`](mod@reference)
//! module renders TRI/REF/EXT with a plain CPU ray tracer that mirrors the
//! shader math — the stand-in for the paper's NVIDIA-GPU images in the
//! Fig. 2 pixel-diff validation.
//!
//! # Example
//!
//! ```
//! use vksim_scenes::{build, Scale, WorkloadKind};
//! let w = build(WorkloadKind::Tri, Scale::Test);
//! assert_eq!(w.name, "TRI");
//! assert!(w.primitive_count >= 1);
//! ```

pub mod camera;
pub mod geometry;
pub mod reference;
pub mod scenes;
pub mod shaders;

pub use camera::Camera;
pub use scenes::{build, Scale, Workload, WorkloadKind};

/// Descriptor binding of the framebuffer.
pub const BINDING_FRAMEBUFFER: u32 = 0;
/// Descriptor binding of the camera uniform.
pub const BINDING_CAMERA: u32 = 1;
/// Descriptor binding of the procedural-primitive data buffer (RTV6).
pub const BINDING_PRIMDATA: u32 = 2;
