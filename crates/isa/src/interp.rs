//! Per-thread functional interpreter.
//!
//! The GPU timing model (`vksim-gpu`) drives warps through [`exec_at`]: it
//! fetches the warp's next pc, executes every active lane at that pc and
//! uses the returned [`Effect`] to route the instruction to the right
//! execution unit (ALU/SFU/LDST/RT unit). A convenience [`run_to_exit`]
//! executes a single thread functionally, used by tests and by functional
//! (timing-free) rendering runs.
//!
//! Ray-tracing instructions are delegated to [`RtHooks`], implemented by
//! the simulator core, which owns acceleration structures and the
//! per-thread traversal-result stacks (paper §III-B2: "results of traversal
//! are stored in a stack").

use crate::memory::MemIo;
use crate::op::{CmpOp, Instr, MemSpace, RtIdxQuery, RtQuery};
use crate::program::Program;

/// A ray handed to `traverseAS`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RayDesc {
    /// World-space origin.
    pub origin: [f32; 3],
    /// World-space direction.
    pub dir: [f32; 3],
    /// Minimum t.
    pub t_min: f32,
    /// Maximum t.
    pub t_max: f32,
    /// Vulkan ray flags (bit 0 = terminate on first hit).
    pub flags: u32,
}

vksim_snapshot::snap_struct!(RayDesc {
    origin,
    dir,
    t_min,
    t_max,
    flags
});

/// Error raised by an [`RtHooks`] implementation (no runtime bound, corrupt
/// acceleration structure...). Surfaced as [`ExecError::Rt`] by [`exec_at`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RtError(pub String);

impl std::fmt::Display for RtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for RtError {}

/// Runtime services backing the custom RT instructions.
///
/// All value-returning queries use raw `u32` bits; floating-point results
/// are returned via `f32::to_bits`. The two hooks that can encounter a
/// missing runtime or a corrupt acceleration structure are fallible; their
/// errors surface as [`ExecError::Rt`] instead of panicking mid-simulation.
pub trait RtHooks {
    /// `traverseAS`: traverse the AS for `ray`, pushing a trace frame for
    /// thread `tid`.
    ///
    /// # Errors
    ///
    /// Fails when no RT runtime is bound or traversal detects a corrupt
    /// acceleration structure.
    fn traverse(&mut self, tid: usize, ray: RayDesc) -> Result<(), RtError>;
    /// `endTraceRay`: pop the trace frame and clear the intersection table.
    fn end_trace(&mut self, tid: usize);
    /// `rt_alloc_mem`: allocate shader-shared memory, returning its address.
    fn alloc_mem(&mut self, tid: usize, size: u32) -> u64;
    /// Scalar query against the current trace frame.
    fn query(&mut self, tid: usize, q: RtQuery) -> u32;
    /// Indexed query against the pending-intersection table.
    fn query_idx(&mut self, tid: usize, q: RtIdxQuery, idx: u32) -> u32;
    /// `true` while `idx` is a valid pending-intersection index.
    fn intersection_valid(&mut self, tid: usize, idx: u32) -> bool;
    /// FCC `getNextCoalescedCall`: shader ID of coalescing-buffer row `idx`
    /// for this thread, or `u32::MAX` when not participating.
    fn next_coalesced_call(&mut self, tid: usize, idx: u32) -> u32;
    /// `reportIntersectionEXT`: commit pending entry `idx` at parameter `t`
    /// if it beats the current closest hit.
    ///
    /// # Errors
    ///
    /// Fails when no RT runtime is bound.
    fn report_intersection(&mut self, tid: usize, idx: u32, t: f32) -> Result<(), RtError>;
}

/// An [`RtHooks`] that fails on traversal — for programs without RT
/// instructions (unit tests, ALU microbenchmarks). Executing `traverseAS`
/// or `reportIntersectionEXT` against it is a recoverable [`ExecError`],
/// not a panic.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoRt;

impl RtHooks for NoRt {
    fn traverse(&mut self, _tid: usize, _ray: RayDesc) -> Result<(), RtError> {
        Err(RtError("traverseAS executed without an RT runtime".into()))
    }
    fn end_trace(&mut self, _tid: usize) {}
    fn alloc_mem(&mut self, _tid: usize, _size: u32) -> u64 {
        0
    }
    fn query(&mut self, _tid: usize, _q: RtQuery) -> u32 {
        0
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
        Err(RtError(
            "reportIntersection executed without an RT runtime".into(),
        ))
    }
}

/// Architectural state of one thread.
#[derive(Clone, Debug, PartialEq)]
pub struct ThreadState {
    /// Program counter.
    pub pc: u32,
    /// Global thread id (keys the RT runtime state).
    pub tid: usize,
    /// General-purpose registers (raw 32-bit).
    pub regs: Vec<u32>,
    /// Predicate registers.
    pub preds: Vec<bool>,
    /// Set when the thread executed `Exit`.
    pub exited: bool,
    /// Base address of this thread's local-memory window.
    pub local_base: u64,
}

impl ThreadState {
    /// Creates a fresh thread with `num_regs` registers, tid 0.
    pub fn new(num_regs: u16) -> Self {
        Self::with_tid(num_regs, 64, 0)
    }

    /// Creates a fresh thread with explicit register/predicate counts and id.
    pub fn with_tid(num_regs: u16, num_preds: u16, tid: usize) -> Self {
        ThreadState {
            pc: 0,
            tid,
            regs: vec![0; num_regs as usize],
            preds: vec![false; num_preds as usize],
            exited: false,
            local_base: 0x7000_0000 + (tid as u64) * 0x1_0000,
        }
    }

    /// Register read as f32.
    #[inline]
    pub fn f(&self, r: crate::op::Reg) -> f32 {
        f32::from_bits(self.regs[r.0 as usize])
    }

    /// Register read as u32.
    #[inline]
    pub fn u(&self, r: crate::op::Reg) -> u32 {
        self.regs[r.0 as usize]
    }

    /// Register write (raw bits).
    #[inline]
    pub fn set_u(&mut self, r: crate::op::Reg, v: u32) {
        self.regs[r.0 as usize] = v;
    }

    /// Register write as f32.
    #[inline]
    pub fn set_f(&mut self, r: crate::op::Reg, v: f32) {
        self.regs[r.0 as usize] = v.to_bits();
    }
}

vksim_snapshot::snap_struct!(ThreadState {
    pc,
    tid,
    regs,
    preds,
    exited,
    local_base
});

/// What an executed instruction did, for the timing model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Effect {
    /// Plain ALU work.
    Alu,
    /// Special-function-unit work.
    Sfu,
    /// A memory access of `size` bytes at `addr` (`is_store` for writes).
    Mem {
        /// Memory space accessed.
        space: MemSpace,
        /// Absolute byte address.
        addr: u64,
        /// `true` for stores.
        is_store: bool,
        /// Access size in bytes.
        size: u32,
    },
    /// A branch; `taken` tells the SIMT stack which way this lane went.
    Branch {
        /// Whether this lane takes the branch.
        taken: bool,
        /// Branch target pc.
        target: u32,
    },
    /// Reconvergence-point push (`SSY`).
    Ssy {
        /// The reconvergence pc.
        reconv: u32,
    },
    /// Reconverge (`SYNC`).
    Sync,
    /// A `traverseAS` instruction: route this warp to the RT unit.
    TraceRay,
    /// Lightweight RT bookkeeping instruction.
    RtOther,
    /// Thread exited.
    Exited,
}

/// Error from executing an instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// pc past the end of the program without `Exit`.
    PcOutOfRange {
        /// The offending pc.
        pc: u32,
    },
    /// Watchdog limit hit in [`run_to_exit`].
    StepLimit,
    /// An RT instruction failed in its [`RtHooks`] backend.
    Rt {
        /// pc of the faulting RT instruction.
        pc: u32,
        /// The backend's explanation.
        detail: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::PcOutOfRange { pc } => write!(f, "pc {pc} out of range"),
            ExecError::StepLimit => write!(f, "step limit exceeded (runaway program)"),
            ExecError::Rt { pc, detail } => write!(f, "rt fault at pc {pc}: {detail}"),
        }
    }
}

impl std::error::Error for ExecError {}

fn cmp_f(cmp: CmpOp, a: f32, b: f32) -> bool {
    match cmp {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

fn cmp_u(cmp: CmpOp, a: u32, b: u32) -> bool {
    match cmp {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

fn cmp_s(cmp: CmpOp, a: i32, b: i32) -> bool {
    match cmp {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

/// Executes the instruction at `pc` for one thread, updating registers and
/// `t.pc` (set to the lane's next pc) and returning the [`Effect`].
///
/// The caller (warp scheduler) decides what the *warp's* next pc is; for
/// divergent branches different lanes report different [`Effect::Branch`]
/// outcomes.
///
/// # Errors
///
/// Returns [`ExecError::PcOutOfRange`] if `pc` is outside the program and
/// [`ExecError::Rt`] if an RT instruction fails in its [`RtHooks`] backend
/// (no runtime bound, corrupt acceleration structure).
pub fn exec_at(
    program: &Program,
    pc: u32,
    t: &mut ThreadState,
    mem: &mut dyn MemIo,
    rt: &mut dyn RtHooks,
) -> Result<Effect, ExecError> {
    if pc as usize >= program.len() {
        return Err(ExecError::PcOutOfRange { pc });
    }
    let instr = *program.fetch(pc);
    let mut next = pc + 1;
    let effect = match instr {
        Instr::MovImm { dst, imm } => {
            t.set_u(dst, imm);
            Effect::Alu
        }
        Instr::Mov { dst, src } => {
            t.set_u(dst, t.u(src));
            Effect::Alu
        }
        Instr::IAdd { dst, a, b } => {
            t.set_u(dst, t.u(a).wrapping_add(t.u(b)));
            Effect::Alu
        }
        Instr::ISub { dst, a, b } => {
            t.set_u(dst, t.u(a).wrapping_sub(t.u(b)));
            Effect::Alu
        }
        Instr::IMul { dst, a, b } => {
            t.set_u(dst, t.u(a).wrapping_mul(t.u(b)));
            Effect::Alu
        }
        Instr::IMin { dst, a, b } => {
            t.set_u(dst, t.u(a).min(t.u(b)));
            Effect::Alu
        }
        Instr::IMax { dst, a, b } => {
            t.set_u(dst, t.u(a).max(t.u(b)));
            Effect::Alu
        }
        Instr::IAnd { dst, a, b } => {
            t.set_u(dst, t.u(a) & t.u(b));
            Effect::Alu
        }
        Instr::IOr { dst, a, b } => {
            t.set_u(dst, t.u(a) | t.u(b));
            Effect::Alu
        }
        Instr::IXor { dst, a, b } => {
            t.set_u(dst, t.u(a) ^ t.u(b));
            Effect::Alu
        }
        Instr::IShl { dst, a, b } => {
            t.set_u(dst, t.u(a) << (t.u(b) & 31));
            Effect::Alu
        }
        Instr::IShr { dst, a, b } => {
            t.set_u(dst, t.u(a) >> (t.u(b) & 31));
            Effect::Alu
        }
        Instr::FAdd { dst, a, b } => {
            t.set_f(dst, t.f(a) + t.f(b));
            Effect::Alu
        }
        Instr::FSub { dst, a, b } => {
            t.set_f(dst, t.f(a) - t.f(b));
            Effect::Alu
        }
        Instr::FMul { dst, a, b } => {
            t.set_f(dst, t.f(a) * t.f(b));
            Effect::Alu
        }
        Instr::FDiv { dst, a, b } => {
            t.set_f(dst, t.f(a) / t.f(b));
            Effect::Sfu
        }
        Instr::FFma { dst, a, b, c } => {
            t.set_f(dst, t.f(a).mul_add(t.f(b), t.f(c)));
            Effect::Alu
        }
        Instr::FMin { dst, a, b } => {
            t.set_f(dst, t.f(a).min(t.f(b)));
            Effect::Alu
        }
        Instr::FMax { dst, a, b } => {
            t.set_f(dst, t.f(a).max(t.f(b)));
            Effect::Alu
        }
        Instr::FNeg { dst, a } => {
            t.set_f(dst, -t.f(a));
            Effect::Alu
        }
        Instr::FAbs { dst, a } => {
            t.set_f(dst, t.f(a).abs());
            Effect::Alu
        }
        Instr::FSqrt { dst, a } => {
            t.set_f(dst, t.f(a).sqrt());
            Effect::Sfu
        }
        Instr::FRsqrt { dst, a } => {
            t.set_f(dst, 1.0 / t.f(a).sqrt());
            Effect::Sfu
        }
        Instr::FSin { dst, a } => {
            t.set_f(dst, t.f(a).sin());
            Effect::Sfu
        }
        Instr::FCos { dst, a } => {
            t.set_f(dst, t.f(a).cos());
            Effect::Sfu
        }
        Instr::FFloor { dst, a } => {
            t.set_f(dst, t.f(a).floor());
            Effect::Alu
        }
        Instr::CvtF2I { dst, a } => {
            t.set_u(dst, t.f(a) as i32 as u32);
            Effect::Alu
        }
        Instr::CvtI2F { dst, a } => {
            t.set_f(dst, t.u(a) as i32 as f32);
            Effect::Alu
        }
        Instr::CvtU2F { dst, a } => {
            t.set_f(dst, t.u(a) as f32);
            Effect::Alu
        }
        Instr::SetpF { dst, cmp, a, b } => {
            t.preds[dst.0 as usize] = cmp_f(cmp, t.f(a), t.f(b));
            Effect::Alu
        }
        Instr::SetpI { dst, cmp, a, b } => {
            t.preds[dst.0 as usize] = cmp_u(cmp, t.u(a), t.u(b));
            Effect::Alu
        }
        Instr::SetpS { dst, cmp, a, b } => {
            t.preds[dst.0 as usize] = cmp_s(cmp, t.u(a) as i32, t.u(b) as i32);
            Effect::Alu
        }
        Instr::PredAnd { dst, a, b } => {
            t.preds[dst.0 as usize] = t.preds[a.0 as usize] && t.preds[b.0 as usize];
            Effect::Alu
        }
        Instr::PredNot { dst, a } => {
            t.preds[dst.0 as usize] = !t.preds[a.0 as usize];
            Effect::Alu
        }
        Instr::Sel { dst, cond, a, b } => {
            let v = if t.preds[cond.0 as usize] {
                t.u(a)
            } else {
                t.u(b)
            };
            t.set_u(dst, v);
            Effect::Alu
        }
        Instr::Bra { target, pred } => {
            let taken = match pred {
                None => true,
                Some((p, expect)) => t.preds[p.0 as usize] == expect,
            };
            if taken {
                next = target;
            }
            Effect::Branch { taken, target }
        }
        Instr::Ssy { reconv } => Effect::Ssy { reconv },
        Instr::Sync => Effect::Sync,
        Instr::Ld {
            dst,
            space,
            addr,
            offset,
        } => {
            let a = resolve_addr(t, space, t.u(addr), offset);
            t.set_u(dst, mem.read_u32(a));
            Effect::Mem {
                space,
                addr: a,
                is_store: false,
                size: 4,
            }
        }
        Instr::St {
            src,
            space,
            addr,
            offset,
        } => {
            let a = resolve_addr(t, space, t.u(addr), offset);
            mem.write_u32(a, t.u(src));
            Effect::Mem {
                space,
                addr: a,
                is_store: true,
                size: 4,
            }
        }
        Instr::TraverseAs {
            origin,
            dir,
            tmin,
            tmax,
            flags,
        } => {
            let ray = RayDesc {
                origin: [t.f(origin[0]), t.f(origin[1]), t.f(origin[2])],
                dir: [t.f(dir[0]), t.f(dir[1]), t.f(dir[2])],
                t_min: t.f(tmin),
                t_max: t.f(tmax),
                flags: t.u(flags),
            };
            rt.traverse(t.tid, ray)
                .map_err(|e| ExecError::Rt { pc, detail: e.0 })?;
            Effect::TraceRay
        }
        Instr::EndTraceRay => {
            rt.end_trace(t.tid);
            Effect::RtOther
        }
        Instr::RtAllocMem { dst, size } => {
            let addr = rt.alloc_mem(t.tid, size);
            t.set_u(dst, addr as u32);
            Effect::RtOther
        }
        Instr::RtRead { dst, query } => {
            let v = rt.query(t.tid, query);
            t.set_u(dst, v);
            Effect::RtOther
        }
        Instr::RtReadIdx { dst, query, idx } => {
            let v = rt.query_idx(t.tid, query, t.u(idx));
            t.set_u(dst, v);
            Effect::RtOther
        }
        Instr::IntersectionValid { dst, idx } => {
            t.preds[dst.0 as usize] = rt.intersection_valid(t.tid, t.u(idx));
            Effect::RtOther
        }
        Instr::NextCoalescedCall { dst, idx } => {
            let v = rt.next_coalesced_call(t.tid, t.u(idx));
            t.set_u(dst, v);
            Effect::RtOther
        }
        Instr::ReportIntersection { t: treg, idx } => {
            rt.report_intersection(t.tid, t.u(idx), t.f(treg))
                .map_err(|e| ExecError::Rt { pc, detail: e.0 })?;
            Effect::RtOther
        }
        Instr::Exit => {
            t.exited = true;
            Effect::Exited
        }
    };
    t.pc = next;
    Ok(effect)
}

#[inline]
fn resolve_addr(t: &ThreadState, space: MemSpace, base: u32, offset: i32) -> u64 {
    let a = (base as u64).wrapping_add(offset as i64 as u64);
    match space {
        MemSpace::Global | MemSpace::Const => a,
        MemSpace::Local => t.local_base.wrapping_add(a),
    }
}

/// Runs a single thread functionally until `Exit`.
///
/// # Errors
///
/// Returns [`ExecError::StepLimit`] after 100 million steps (runaway
/// program) or [`ExecError::PcOutOfRange`] if control flow escapes the
/// program.
pub fn run_to_exit(
    program: &Program,
    t: &mut ThreadState,
    mem: &mut dyn MemIo,
    rt: &mut dyn RtHooks,
) -> Result<u64, ExecError> {
    const LIMIT: u64 = 100_000_000;
    let mut steps = 0u64;
    while !t.exited {
        if steps >= LIMIT {
            return Err(ExecError::StepLimit);
        }
        exec_at(program, t.pc, t, mem, rt)?;
        steps += 1;
    }
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::SimMemory;
    use crate::op::{Reg, RtQuery};
    use crate::program::ProgramBuilder;

    fn run(b: ProgramBuilder) -> (ThreadState, SimMemory) {
        let p = b.build();
        let mut t = ThreadState::new(p.num_regs().max(16));
        t.preds = vec![false; p.num_preds().max(8) as usize];
        let mut m = SimMemory::new();
        run_to_exit(&p, &mut t, &mut m, &mut NoRt).expect("clean exit");
        (t, m)
    }

    #[test]
    fn float_arithmetic_chain() {
        let mut b = ProgramBuilder::new();
        let [x, y, z] = b.regs::<3>();
        b.mov_imm_f32(x, 3.0);
        b.mov_imm_f32(y, 4.0);
        b.fmul(z, x, x);
        b.ffma(z, y, y, z); // z = 9 + 16 = 25
        b.emit(Instr::FSqrt { dst: z, a: z });
        b.exit();
        let (t, _) = run(b);
        assert_eq!(t.f(Reg(2)), 5.0);
    }

    #[test]
    fn integer_ops_wrap() {
        let mut b = ProgramBuilder::new();
        let [a, c] = b.regs::<2>();
        b.mov_imm_u32(a, u32::MAX);
        b.mov_imm_u32(c, 2);
        b.iadd(a, a, c); // wraps to 1
        b.exit();
        let (t, _) = run(b);
        assert_eq!(t.u(Reg(0)), 1);
    }

    #[test]
    fn loop_sums_one_to_ten() {
        let mut b = ProgramBuilder::new();
        let [i, sum, one, ten] = b.regs::<4>();
        let p = b.pred();
        b.mov_imm_u32(i, 1);
        b.mov_imm_u32(sum, 0);
        b.mov_imm_u32(one, 1);
        b.mov_imm_u32(ten, 10);
        let top = b.new_label();
        let done = b.new_label();
        b.bind_label(top);
        b.setp_i(p, CmpOp::Gt, i, ten);
        b.bra_if(done, p, true);
        b.iadd(sum, sum, i);
        b.iadd(i, i, one);
        b.bra(top);
        b.bind_label(done);
        b.exit();
        let (t, _) = run(b);
        assert_eq!(t.u(Reg(1)), 55);
    }

    #[test]
    fn memory_load_store_roundtrip() {
        let mut b = ProgramBuilder::new();
        let [addr, v, out] = b.regs::<3>();
        b.mov_imm_u32(addr, 0x1000);
        b.mov_imm_u32(v, 0xCAFE);
        b.st_global(addr, 4, v);
        b.ld_global(out, addr, 4);
        b.exit();
        let (t, m) = run(b);
        assert_eq!(t.u(Reg(2)), 0xCAFE);
        assert_eq!(m.read_u32(0x1004), 0xCAFE);
    }

    #[test]
    fn local_space_is_per_thread() {
        let p = {
            let mut b = ProgramBuilder::new();
            let [addr, v] = b.regs::<2>();
            b.mov_imm_u32(addr, 0x10);
            b.mov_imm_u32(v, 77);
            b.emit(Instr::St {
                src: v,
                space: MemSpace::Local,
                addr,
                offset: 0,
            });
            b.exit();
            b.build()
        };
        let mut mem = SimMemory::new();
        let mut t0 = ThreadState::with_tid(p.num_regs(), p.num_preds(), 0);
        let mut t1 = ThreadState::with_tid(p.num_regs(), p.num_preds(), 1);
        run_to_exit(&p, &mut t0, &mut mem, &mut NoRt).unwrap();
        run_to_exit(&p, &mut t1, &mut mem, &mut NoRt).unwrap();
        assert_eq!(mem.read_u32(t0.local_base + 0x10), 77);
        assert_eq!(mem.read_u32(t1.local_base + 0x10), 77);
        assert_ne!(t0.local_base, t1.local_base);
    }

    #[test]
    fn select_and_predicates() {
        let mut b = ProgramBuilder::new();
        let [a, c, out] = b.regs::<3>();
        let p = b.pred();
        b.mov_imm_f32(a, 1.0);
        b.mov_imm_f32(c, 2.0);
        b.setp_f(p, CmpOp::Lt, a, c);
        b.emit(Instr::Sel {
            dst: out,
            cond: p,
            a,
            b: c,
        });
        b.exit();
        let (t, _) = run(b);
        assert_eq!(t.f(Reg(2)), 1.0);
    }

    #[test]
    fn signed_compare_differs_from_unsigned() {
        let mut b = ProgramBuilder::new();
        let [a, c] = b.regs::<2>();
        let pu = b.pred();
        let ps = b.pred();
        b.mov_imm_u32(a, -1i32 as u32);
        b.mov_imm_u32(c, 1);
        b.setp_i(pu, CmpOp::Lt, a, c); // unsigned: MAX < 1 is false
        b.emit(Instr::SetpS {
            dst: ps,
            cmp: CmpOp::Lt,
            a,
            b: c,
        }); // signed: -1 < 1 true
        b.exit();
        let (t, _) = run(b);
        assert!(!t.preds[0]);
        assert!(t.preds[1]);
    }

    #[test]
    fn pc_out_of_range_detected() {
        let mut b = ProgramBuilder::new();
        let r = b.reg();
        b.mov_imm_u32(r, 0); // no exit
        let p = b.build();
        let mut t = ThreadState::new(p.num_regs());
        let mut m = SimMemory::new();
        let err = run_to_exit(&p, &mut t, &mut m, &mut NoRt).unwrap_err();
        assert_eq!(err, ExecError::PcOutOfRange { pc: 1 });
    }

    #[test]
    fn traverse_without_runtime_is_exec_error() {
        let mut b = ProgramBuilder::new();
        let rs = b.regs::<9>();
        b.emit(Instr::TraverseAs {
            origin: [rs[0], rs[1], rs[2]],
            dir: [rs[3], rs[4], rs[5]],
            tmin: rs[6],
            tmax: rs[7],
            flags: rs[8],
        });
        b.exit();
        let p = b.build();
        let mut t = ThreadState::new(p.num_regs());
        let mut m = SimMemory::new();
        let err = run_to_exit(&p, &mut t, &mut m, &mut NoRt).unwrap_err();
        match err {
            ExecError::Rt { pc, ref detail } => {
                assert_eq!(pc, 0);
                assert!(detail.contains("without an RT runtime"), "{detail}");
            }
            other => panic!("expected Rt error, got {other:?}"),
        }
    }

    #[test]
    fn report_intersection_without_runtime_is_exec_error() {
        let mut b = ProgramBuilder::new();
        let [treg, idx] = b.regs::<2>();
        b.emit(Instr::ReportIntersection { t: treg, idx });
        b.exit();
        let p = b.build();
        let mut t = ThreadState::new(p.num_regs());
        let mut m = SimMemory::new();
        let err = run_to_exit(&p, &mut t, &mut m, &mut NoRt).unwrap_err();
        assert!(matches!(err, ExecError::Rt { pc: 0, .. }), "{err:?}");
    }

    /// Minimal mock RT runtime for exercising the RT instruction plumbing.
    #[derive(Default)]
    struct MockRt {
        traversals: Vec<RayDesc>,
        reported: Vec<(u32, f32)>,
        pending: u32,
    }

    impl RtHooks for MockRt {
        fn traverse(&mut self, _tid: usize, ray: RayDesc) -> Result<(), RtError> {
            self.traversals.push(ray);
            self.pending = 2;
            Ok(())
        }
        fn end_trace(&mut self, _tid: usize) {
            self.pending = 0;
        }
        fn alloc_mem(&mut self, _tid: usize, size: u32) -> u64 {
            0x5000_0000 + size as u64
        }
        fn query(&mut self, _tid: usize, q: RtQuery) -> u32 {
            match q {
                RtQuery::HitKind => 1,
                RtQuery::HitT => 7.5f32.to_bits(),
                RtQuery::LaunchId(d) => 10 + d as u32,
                _ => 0,
            }
        }
        fn query_idx(&mut self, _tid: usize, _q: RtIdxQuery, idx: u32) -> u32 {
            100 + idx
        }
        fn intersection_valid(&mut self, _tid: usize, idx: u32) -> bool {
            idx < self.pending
        }
        fn next_coalesced_call(&mut self, _tid: usize, _idx: u32) -> u32 {
            u32::MAX
        }
        fn report_intersection(&mut self, _tid: usize, idx: u32, t: f32) -> Result<(), RtError> {
            self.reported.push((idx, t));
            Ok(())
        }
    }

    #[test]
    fn rt_instruction_plumbing() {
        let mut b = ProgramBuilder::new();
        let rs = b.regs::<12>();
        for (i, r) in rs[0..3].iter().enumerate() {
            b.mov_imm_f32(*r, i as f32);
        }
        b.mov_imm_f32(rs[3], 0.0);
        b.mov_imm_f32(rs[4], 0.0);
        b.mov_imm_f32(rs[5], 1.0);
        b.mov_imm_f32(rs[6], 0.001);
        b.mov_imm_f32(rs[7], 1e30);
        b.mov_imm_u32(rs[8], 0);
        b.emit(Instr::TraverseAs {
            origin: [rs[0], rs[1], rs[2]],
            dir: [rs[3], rs[4], rs[5]],
            tmin: rs[6],
            tmax: rs[7],
            flags: rs[8],
        });
        b.emit(Instr::RtRead {
            dst: rs[9],
            query: RtQuery::HitT,
        });
        b.mov_imm_u32(rs[10], 0);
        b.emit(Instr::ReportIntersection {
            t: rs[9],
            idx: rs[10],
        });
        b.emit(Instr::EndTraceRay);
        b.exit();
        let p = b.build();
        let mut t = ThreadState::new(p.num_regs());
        let mut m = SimMemory::new();
        let mut rt = MockRt::default();
        run_to_exit(&p, &mut t, &mut m, &mut rt).unwrap();
        assert_eq!(rt.traversals.len(), 1);
        assert_eq!(rt.traversals[0].dir, [0.0, 0.0, 1.0]);
        assert_eq!(rt.reported, vec![(0, 7.5)]);
        assert_eq!(rt.pending, 0, "end_trace cleared the table");
        assert_eq!(t.f(rs[9]), 7.5);
    }

    #[test]
    fn launch_id_query() {
        let mut b = ProgramBuilder::new();
        let r = b.reg();
        b.emit(Instr::RtRead {
            dst: r,
            query: RtQuery::LaunchId(1),
        });
        b.exit();
        let p = b.build();
        let mut t = ThreadState::new(p.num_regs());
        let mut m = SimMemory::new();
        let mut rt = MockRt::default();
        run_to_exit(&p, &mut t, &mut m, &mut rt).unwrap();
        assert_eq!(t.u(Reg(0)), 11);
    }
}
