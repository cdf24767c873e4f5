//! Shader IR and the NIR-to-PTX translator.
//!
//! Real Vulkan-Sim consumes GLSL shaders precompiled to SPIR-V, lowers them
//! through Mesa to the NIR intermediate representation, and translates NIR
//! to PTX with a custom backend (paper §III-B2). This crate reproduces that
//! layer with a structured, NIR-like IR:
//!
//! * [`ir`] — expressions, statements and shader modules, including the 15
//!   ray-tracing intrinsics NIR carries (`traceRayEXT`,
//!   `loadRayWorldOrigin`, `loadRayLaunchId`, hit-attribute queries,
//!   `reportIntersectionEXT`, ...);
//! * [`builder`] — an ergonomic Rust DSL for writing shaders (standing in
//!   for GLSL source);
//! * [`translate`](mod@translate) — the NIR→ISA translator. `traceRayEXT` lowers to the
//!   paper's Algorithm 1: `traverseAS`, a delayed intersection-shader loop
//!   with if-else-if shader-ID dispatch, conditional closest-hit/miss
//!   dispatch, and `endTraceRay`. With
//!   [`translate::TranslateOptions::fcc`] enabled it lowers to Algorithm 3
//!   (function-call coalescing) instead, reading shader IDs through
//!   `getNextCoalescedCall`.
//!
//! Shader *calls* are inlined (the paper's "one thread per raygen shader"
//! mapping treats shader calls as function calls); recursive `traceRayEXT`
//! is inlined up to the pipeline's declared maximum recursion depth.
//!
//! # Example
//!
//! ```
//! use vksim_shader::builder::ShaderBuilder;
//! use vksim_shader::ir::ShaderKind;
//! use vksim_shader::translate::{translate, PipelineShaders, TranslateOptions};
//!
//! // A raygen that writes launch-id x to a buffer — "hello world" of RT.
//! let mut rg = ShaderBuilder::new(ShaderKind::RayGen);
//! let x = rg.launch_id(0);
//! let base = rg.buffer_base(0);
//! let addr = rg.var_u32(base + x.clone() * rg.c_u32(4));
//! rg.store(rg.v(addr), 0, x);
//! let raygen = rg.finish();
//!
//! let pipeline = PipelineShaders::raygen_only(raygen);
//! let prog = translate(&pipeline, &TranslateOptions::default()).unwrap();
//! assert!(prog.len() > 0);
//! ```

pub mod builder;
pub mod ir;
pub mod translate;

pub use builder::ShaderBuilder;
pub use ir::{Builtin, Expr, ShaderKind, ShaderModule, Stmt, Ty, Var};
pub use translate::{translate, PipelineShaders, TranslateError, TranslateOptions};

/// Number of 32-bit payload slots carried between shader stages.
pub const PAYLOAD_SLOTS: usize = 8;

/// Address of the descriptor table in simulated memory: slot `i` holds the
/// 32-bit base address of descriptor binding `i`.
pub const DESCRIPTOR_TABLE_ADDR: u64 = 0x100;

/// Maximum number of descriptor bindings.
pub const MAX_DESCRIPTOR_BINDINGS: u32 = 32;
