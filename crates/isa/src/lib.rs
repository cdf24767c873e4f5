//! PTX-like virtual ISA and functional interpreter.
//!
//! GPGPU-Sim executes NVIDIA's virtual ISA, PTX; Vulkan-Sim extends that ISA
//! with custom ray-tracing instructions (paper Table II). This crate
//! reproduces the equivalent layer for the Rust rewrite:
//!
//! * [`op::Instr`] — a register-based virtual instruction set with ALU,
//!   control-flow and memory instructions plus the paper's custom RT
//!   instructions (`traverseAS`, `endTraceRay`, `rt_alloc_mem`,
//!   `load_ray_launch_id` and the trace-result accessors they imply);
//! * [`program::Program`] / [`program::ProgramBuilder`] — the container the
//!   NIR-to-PTX translator emits into, with label resolution;
//! * [`interp`] — the functional interpreter, [`interp::exec_warp`]: it
//!   decodes an instruction once and runs it for every active lane of a
//!   warp. RT instructions are delegated to an [`interp::RtHooks`]
//!   implementation supplied by the simulator core, which owns the
//!   acceleration structures and per-thread trace-result stacks;
//! * [`memory::SimMemory`] — the flat, sparse functional memory image that
//!   loads and stores operate on, word-granular where a word fits a page.
//!
//! Divergence handling (SIMT stack / independent thread scheduling) is *not*
//! here: the GPU timing model picks a warp context (pc and active mask),
//! runs one instruction for it through [`interp::exec_warp`], and reacts to
//! the returned per-warp [`interp::Effect`] and the per-lane
//! [`interp::LaneOut`]. The functional tier, [`interp::run_to_exit`], runs
//! one thread as a one-lane warp through the same function.
//!
//! # Example
//!
//! ```
//! use vksim_isa::program::ProgramBuilder;
//! use vksim_isa::interp::{run_to_exit, NoRt, ThreadState};
//! use vksim_isa::memory::SimMemory;
//!
//! let mut b = ProgramBuilder::new();
//! let r = b.reg();
//! b.mov_imm_f32(r, 21.0);
//! b.fadd(r, r, r);
//! let out = b.reg();
//! b.mov_imm_u32(out, 0x100);
//! b.st_global(out, 0, r);
//! b.exit();
//! let prog = b.build();
//!
//! let mut mem = SimMemory::new();
//! let mut t = ThreadState::new(prog.num_regs());
//! run_to_exit(&prog, &mut t, &mut mem, &mut NoRt).unwrap();
//! assert_eq!(mem.read_f32(0x100), 42.0);
//! ```

pub mod interp;
pub mod memory;
pub mod op;
pub mod program;
pub mod text;

pub use interp::{Effect, ExecError, LaneOut, RtError, RtHooks, ThreadState};
pub use memory::SimMemory;
pub use op::{CmpOp, InstClass, Instr, Pred, Reg, RtQuery};
pub use program::{Program, ProgramBuilder};

/// Nominal encoded size of one instruction in bytes (used for instruction
/// cache modelling).
pub const INSTR_SIZE_BYTES: u64 = 8;
