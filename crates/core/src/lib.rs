//! Vulkan-Sim core: the full ray-tracing GPU simulator.
//!
//! This crate is the paper's primary contribution assembled from the
//! substrate crates: it binds the functional model (acceleration-structure
//! traversal + translated shaders, paper §III-B) to the timing model (SIMT
//! GPU + RT units, §III-C) and exposes the evaluation instruments used in
//! §VI.
//!
//! * [`runtime::RtRuntime`] — the per-thread ray-tracing runtime backing
//!   the custom PTX instructions: it executes `traverseAS` functionally
//!   (recording the transactions script the RT unit replays), maintains the
//!   per-thread traversal-results stack, the delayed intersection table,
//!   and the FCC coalescing buffer (case study §IV-A).
//! * [`simulator::Simulator`] — runs a recorded `vkCmdTraceRaysKHR` either
//!   cycle-accurately on the GPU model or functionally (for image
//!   validation à la Fig. 2).
//! * [`config::SimConfig`] / [`config::MemoryMode`] — Table III
//!   configurations plus the Fig. 15 memory variants (RT cache, perfect
//!   BVH, perfect memory).
//! * [`hwproxy`] — an independent analytic cost model standing in for the
//!   RTX 2080 SUPER in the correlation studies (Figs. 11 and 19); see
//!   DESIGN.md for the substitution rationale.
//! * [`report`] — derives the paper's evaluation quantities (instruction
//!   mix, roofline points, cache breakdowns, DRAM efficiency).
//! * [`validate`] — image comparison (percentage of differing pixels).
//!
//! # Example
//!
//! ```
//! use vksim_core::{Simulator, SimConfig};
//! use vksim_vulkan::Device;
//! use vksim_bvh::{geometry::{BlasGeometry, Triangle}, Instance};
//! use vksim_math::{Mat4x3, Vec3};
//! use vksim_shader::{builder::ShaderBuilder, ir::ShaderKind, PipelineShaders};
//!
//! // Trivial kernel: every thread writes its x to the framebuffer.
//! let mut device = Device::new();
//! let fb = device.alloc_buffer(4 * 32);
//! device.bind_descriptor(0, fb);
//! let mut rg = ShaderBuilder::new(ShaderKind::RayGen);
//! let x = rg.launch_id(0);
//! let a = rg.var_u32(rg.buffer_base(0) + x.clone() * rg.c_u32(4));
//! rg.store(rg.v(a), 0, x);
//! let pipe = device
//!     .create_ray_tracing_pipeline(PipelineShaders::raygen_only(rg.finish()), false)
//!     .unwrap();
//! let cmd = device.cmd_trace_rays(&pipe, 32, 1);
//!
//! let mut sim = Simulator::new(SimConfig::test_small());
//! let report = sim.run(&device, &cmd).expect("healthy run");
//! assert_eq!(report.memory.read_u32(fb + 4 * 7), 7);
//! assert!(report.gpu.cycles > 0);
//! ```

pub mod checkpoint;
pub mod config;
pub mod hwproxy;
pub mod report;
pub mod runtime;
pub mod simulator;
pub mod trace_io;
pub mod validate;

pub use checkpoint::config_fingerprint;
pub use config::{MemoryMode, SimConfig};
pub use runtime::{RtRuntime, RuntimeStats};
pub use simulator::{RunReport, SimFailure, Simulator};
pub use validate::{validate_config, ConfigError, ImageSizeMismatch};
pub use vksim_gpu::{FaultPlan, GpuFault, HangClass, SimError, WorkerPanicSpec, ENV_OVERRIDES};
pub use vksim_snapshot::{SnapError, Snapshot};
