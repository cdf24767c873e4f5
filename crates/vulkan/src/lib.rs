//! Vulkan-like ray-tracing frontend.
//!
//! Stands in for the Mesa Vulkan frontend the real Vulkan-Sim intercepts
//! (paper §III-D): applications create a [`Device`], allocate and fill
//! buffers, build bottom/top-level acceleration structures
//! (`VK_KHR_acceleration_structure`), register shaders into a ray-tracing
//! pipeline (`vkCreateRayTracingPipelinesKHR` — this is where the
//! NIR-to-PTX translation happens), bind descriptors, and finally record a
//! [`TraceRaysCommand`] (`vkCmdTraceRaysKHR`) that the simulator core
//! executes.
//!
//! # Example
//!
//! ```
//! use vksim_vulkan::Device;
//! use vksim_bvh::{geometry::Triangle, Instance};
//! use vksim_math::{Mat4x3, Vec3};
//! use vksim_shader::{builder::ShaderBuilder, ir::ShaderKind, PipelineShaders};
//!
//! let mut device = Device::new();
//! let blas = device.create_blas(vksim_bvh::geometry::BlasGeometry::triangles(vec![
//!     Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y),
//! ]));
//! device.create_tlas(vec![Instance::new(blas, Mat4x3::IDENTITY)]);
//!
//! let mut rg = ShaderBuilder::new(ShaderKind::RayGen);
//! let x = rg.launch_id(0);
//! let out = rg.var_u32(rg.buffer_base(0) + x.clone() * rg.c_u32(4));
//! rg.store(rg.v(out), 0, x);
//! let pipeline = device
//!     .create_ray_tracing_pipeline(PipelineShaders::raygen_only(rg.finish()), false)
//!     .unwrap();
//!
//! let fb = device.alloc_buffer(4 * 64);
//! device.bind_descriptor(0, fb);
//! let cmd = device.cmd_trace_rays(&pipeline, 64, 1);
//! assert_eq!(cmd.dims.width, 64);
//! ```

use std::sync::Arc;
use vksim_bvh::geometry::BlasGeometry;
use vksim_bvh::{Blas, Instance, Tlas};
use vksim_isa::interp::{LOCAL_MEMORY_BASE, LOCAL_MEMORY_BYTES};
use vksim_isa::{Program, SimMemory};
use vksim_shader::{translate, PipelineShaders, TranslateError, TranslateOptions};
use vksim_shader::{DESCRIPTOR_TABLE_ADDR, MAX_DESCRIPTOR_BINDINGS};

/// Base address of the general buffer arena.
pub const BUFFER_ARENA_BASE: u64 = 0x0010_0000;
/// Base address of the TLAS in device memory.
pub const TLAS_BASE: u64 = 0x7800_0000;
/// Base address of the BLAS arena.
pub const BLAS_ARENA_BASE: u64 = 0x9000_0000;
/// Base address of the per-ray intersection buffers.
pub const INTERSECTION_BUFFER_BASE: u64 = 0x4000_0000;
/// Size of one thread's intersection buffer.
pub const INTERSECTION_BUFFER_BYTES: u64 = 0x800;
/// Base address of the `rt_alloc_mem` arena (below per-thread local
/// memory); one cursor hands out disjoint addresses from here.
pub const RT_ALLOC_BASE: u64 = 0x6000_0000;

/// Base address of thread `tid`'s intersection buffer.
pub fn intersection_buffer(tid: usize) -> u64 {
    INTERSECTION_BUFFER_BASE + tid as u64 * INTERSECTION_BUFFER_BYTES
}

/// Base address of thread `tid`'s 64-slot short-stack spill window: the
/// upper half of its local memory.
pub fn spill_base(tid: usize) -> u64 {
    LOCAL_MEMORY_BASE + tid as u64 * LOCAL_MEMORY_BYTES + LOCAL_MEMORY_BYTES / 2
}

/// A compiled ray-tracing pipeline: the translated program plus the shader
/// binding table layout.
#[derive(Clone, Debug)]
pub struct RayTracingPipeline {
    /// The translated, executable program (rooted at the raygen shader).
    pub program: Program,
    /// Shader binding table: registered shader handles.
    pub sbt: ShaderBindingTable,
    /// Whether function-call coalescing lowering was used (Algorithm 3).
    pub fcc: bool,
}

/// The shader binding table (paper §III-B3): one raygen, plus handles (IDs)
/// for every miss / closest-hit / intersection / any-hit shader. A shader's
/// handle is its index within its group, assigned at registration.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShaderBindingTable {
    /// Number of miss shaders.
    pub miss_count: u32,
    /// Number of closest-hit shaders.
    pub closest_hit_count: u32,
    /// Number of intersection shaders.
    pub intersection_count: u32,
    /// Number of any-hit shaders.
    pub any_hit_count: u32,
}

impl ShaderBindingTable {
    /// Handle (ID) of miss shader `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn miss_handle(&self, i: u32) -> u32 {
        assert!(i < self.miss_count, "miss shader {i} not registered");
        i
    }

    /// Handle (ID) of closest-hit shader `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn closest_hit_handle(&self, i: u32) -> u32 {
        assert!(
            i < self.closest_hit_count,
            "closest-hit shader {i} not registered"
        );
        i
    }

    /// Total number of registered shaders (including raygen).
    pub fn total(&self) -> u32 {
        1 + self.miss_count + self.closest_hit_count + self.intersection_count + self.any_hit_count
    }
}

/// A recorded `vkCmdTraceRaysKHR`: everything the simulator core needs to
/// execute one ray-tracing kernel.
#[derive(Clone, Debug)]
pub struct TraceRaysCommand {
    /// Translated program.
    pub program: Program,
    /// Launch dimensions.
    pub dims: LaunchSize,
    /// FCC lowering flag (affects the RT runtime's intersection table).
    pub fcc: bool,
}

/// Launch grid (width × height × depth).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchSize {
    /// Width in rays (image width).
    pub width: u32,
    /// Height in rays (image height).
    pub height: u32,
    /// Depth.
    pub depth: u32,
}

/// The simulated logical device: memory, acceleration structures and
/// pipelines.
#[derive(Debug, Default)]
pub struct Device {
    /// The functional memory image (descriptor table, buffers).
    pub memory: SimMemory,
    /// All bottom-level acceleration structures, by handle. Every run of
    /// the device shares this one copy.
    pub blases: Arc<Vec<Blas>>,
    /// The top-level acceleration structure, once built.
    pub tlas: Option<Tlas>,
    buffer_cursor: u64,
    blas_cursor: u64,
}

impl Device {
    /// Creates a fresh device.
    pub fn new() -> Self {
        Device {
            memory: SimMemory::new(),
            blases: Arc::default(),
            tlas: None,
            buffer_cursor: BUFFER_ARENA_BASE,
            blas_cursor: BLAS_ARENA_BASE,
        }
    }

    /// Allocates a device buffer; returns its address (64 B aligned).
    pub fn alloc_buffer(&mut self, size: u64) -> u64 {
        let addr = self.buffer_cursor;
        self.buffer_cursor += size.div_ceil(64) * 64;
        addr
    }

    /// Binds descriptor `binding` to a buffer address (descriptor-set
    /// write; shaders fetch it via `BufferBase`).
    ///
    /// # Panics
    ///
    /// Panics if the binding index is out of range or the address does not
    /// fit the 32-bit shader address space.
    pub fn bind_descriptor(&mut self, binding: u32, addr: u64) {
        assert!(
            binding < MAX_DESCRIPTOR_BINDINGS,
            "binding {binding} out of range"
        );
        assert!(
            addr <= u32::MAX as u64,
            "address beyond shader-visible space"
        );
        self.memory
            .write_u32(DESCRIPTOR_TABLE_ADDR + binding as u64 * 4, addr as u32);
    }

    /// Uploads f32 data to a buffer.
    pub fn upload_f32(&mut self, addr: u64, data: &[f32]) {
        for (i, v) in data.iter().enumerate() {
            self.memory.write_f32(addr + i as u64 * 4, *v);
        }
    }

    /// Uploads u32 data to a buffer.
    pub fn upload_u32(&mut self, addr: u64, data: &[u32]) {
        for (i, v) in data.iter().enumerate() {
            self.memory.write_u32(addr + i as u64 * 4, *v);
        }
    }

    /// Builds a BLAS (`VK_KHR_acceleration_structure`), assigning its
    /// device address; returns its handle.
    pub fn create_blas(&mut self, geometry: BlasGeometry) -> u32 {
        let mut blas = Blas::build(geometry);
        blas.set_base_addr(self.blas_cursor);
        self.blas_cursor += blas.size_bytes().div_ceil(4096) * 4096;
        Arc::make_mut(&mut self.blases).push(blas);
        (self.blases.len() - 1) as u32
    }

    /// Builds the TLAS over instances of previously created BLASes.
    ///
    /// # Panics
    ///
    /// Panics if an instance references an unknown BLAS handle.
    pub fn create_tlas(&mut self, instances: Vec<Instance>) {
        let refs: Vec<&Blas> = self.blases.iter().collect();
        let mut tlas = Tlas::build(instances, &refs);
        tlas.set_base_addr(TLAS_BASE);
        self.tlas = Some(tlas);
    }

    /// Creates the ray-tracing pipeline: registers the shaders (assigning
    /// SBT handles) and translates them to the executable program — the
    /// `vkCreateRayTracingPipelinesKHR` + NIR-to-PTX step.
    ///
    /// # Errors
    ///
    /// Returns the translator's error for malformed pipelines.
    pub fn create_ray_tracing_pipeline(
        &mut self,
        shaders: PipelineShaders,
        fcc: bool,
    ) -> Result<RayTracingPipeline, TranslateError> {
        let sbt = ShaderBindingTable {
            miss_count: shaders.miss.len() as u32,
            closest_hit_count: shaders.closest_hit.len() as u32,
            intersection_count: shaders.intersection.len() as u32,
            any_hit_count: shaders.any_hit.len() as u32,
        };
        let program = translate(&shaders, &TranslateOptions { fcc })?;
        Ok(RayTracingPipeline { program, sbt, fcc })
    }

    /// Records a `vkCmdTraceRaysKHR` launch.
    pub fn cmd_trace_rays(
        &self,
        pipeline: &RayTracingPipeline,
        width: u32,
        height: u32,
    ) -> TraceRaysCommand {
        TraceRaysCommand {
            program: pipeline.program.clone(),
            dims: LaunchSize {
                width,
                height,
                depth: 1,
            },
            fcc: pipeline.fcc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vksim_bvh::geometry::Triangle;
    use vksim_math::{Mat4x3, Vec3};
    use vksim_shader::builder::ShaderBuilder;
    use vksim_shader::ir::ShaderKind;

    fn tri_geometry() -> BlasGeometry {
        BlasGeometry::triangles(vec![Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y)])
    }

    #[test]
    fn buffers_are_aligned_and_disjoint() {
        let mut d = Device::new();
        let a = d.alloc_buffer(100);
        let b = d.alloc_buffer(1);
        let c = d.alloc_buffer(64);
        assert_eq!(a % 64, 0);
        assert!(b >= a + 100);
        assert!(c > b);
    }

    #[test]
    fn descriptor_table_wiring() {
        let mut d = Device::new();
        let buf = d.alloc_buffer(256);
        d.bind_descriptor(3, buf);
        assert_eq!(d.memory.read_u32(DESCRIPTOR_TABLE_ADDR + 12), buf as u32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn descriptor_binding_bounds_checked() {
        let mut d = Device::new();
        d.bind_descriptor(MAX_DESCRIPTOR_BINDINGS, 0x1000);
    }

    #[test]
    fn blas_handles_and_addresses() {
        let mut d = Device::new();
        let h0 = d.create_blas(tri_geometry());
        let h1 = d.create_blas(tri_geometry());
        assert_eq!((h0, h1), (0, 1));
        assert_eq!(d.blases[0].base_addr, BLAS_ARENA_BASE);
        assert!(d.blases[1].base_addr > d.blases[0].base_addr);
        assert_eq!(d.blases[1].base_addr % 4096, 0);
    }

    #[test]
    fn tlas_build_and_base() {
        let mut d = Device::new();
        let h = d.create_blas(tri_geometry());
        d.create_tlas(vec![Instance::new(h, Mat4x3::IDENTITY)]);
        let tlas = d.tlas.as_ref().unwrap();
        assert_eq!(tlas.base_addr, TLAS_BASE);
        assert_eq!(tlas.instances.len(), 1);
    }

    #[test]
    fn pipeline_creation_builds_sbt() {
        let mut d = Device::new();
        let mut rg = ShaderBuilder::new(ShaderKind::RayGen);
        let x = rg.launch_id(0);
        let out = rg.var_u32(rg.c_u32(0x1000));
        rg.store(rg.v(out), 0, x);
        let p = d
            .create_ray_tracing_pipeline(PipelineShaders::raygen_only(rg.finish()), false)
            .unwrap();
        assert_eq!(p.sbt.total(), 1);
        assert!(!p.program.is_empty());
        assert!(!p.fcc);
    }

    #[test]
    fn sbt_handles_are_indices() {
        let sbt = ShaderBindingTable {
            miss_count: 2,
            closest_hit_count: 3,
            intersection_count: 0,
            any_hit_count: 0,
        };
        assert_eq!(sbt.miss_handle(1), 1);
        assert_eq!(sbt.closest_hit_handle(2), 2);
        assert_eq!(sbt.total(), 6);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn sbt_handle_bounds_checked() {
        let sbt = ShaderBindingTable::default();
        let _ = sbt.miss_handle(0);
    }

    #[test]
    fn trace_command_captures_dims() {
        let mut d = Device::new();
        let mut rg = ShaderBuilder::new(ShaderKind::RayGen);
        let v = rg.var_u32(rg.c_u32(0));
        let _ = v;
        let p = d
            .create_ray_tracing_pipeline(PipelineShaders::raygen_only(rg.finish()), true)
            .unwrap();
        let cmd = d.cmd_trace_rays(&p, 320, 240);
        assert_eq!(
            (cmd.dims.width, cmd.dims.height, cmd.dims.depth),
            (320, 240, 1)
        );
        assert!(cmd.fcc);
    }
}
