//! The functional interpreter: one instruction for a whole warp.
//!
//! [`exec_warp`] is the only interpreter. It decodes the instruction at a
//! pc once, then runs it for every lane of an active mask in lane order,
//! inside the matched arm. It returns one [`Effect`] for the warp, which
//! the GPU timing model (`vksim-gpu`) uses to route the instruction to an
//! execution unit (ALU/SFU/LDST/RT unit). The per-lane outcomes the timing
//! model also needs, namely which lanes took a branch and each lane's
//! address, go into a caller-owned [`LaneOut`], so nothing is allocated per
//! instruction.
//!
//! The functional tier ([`run_to_exit`], used by tests and timing-free
//! rendering runs) runs one thread as a one-lane warp (mask 1) through the
//! same [`exec_warp`], which is always inlined so that the lane loop folds
//! away there.
//!
//! Ray-tracing instructions are delegated to [`RtHooks`], implemented by
//! the simulator core, which owns acceleration structures and the
//! per-thread traversal-result stacks (paper §III-B2: "results of traversal
//! are stored in a stack").

use crate::memory::SimMemory;
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
/// acceleration structure...). Surfaced as [`ExecError::Rt`] by [`exec_warp`].
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

/// Base address of per-thread local memory: thread `tid`'s window starts
/// at `LOCAL_MEMORY_BASE + tid * LOCAL_MEMORY_BYTES`.
pub const LOCAL_MEMORY_BASE: u64 = 0x7000_0000;
/// Size of one thread's local-memory window.
pub const LOCAL_MEMORY_BYTES: u64 = 0x1_0000;

/// Architectural state of one thread.
#[derive(Clone, Debug, Default, PartialEq)]
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
        let mut t = ThreadState {
            regs: vec![0; num_regs as usize],
            preds: vec![false; num_preds as usize],
            ..ThreadState::default()
        };
        t.reset(tid);
        t
    }

    /// Makes this a fresh thread `tid`, keeping the register allocations.
    pub fn reset(&mut self, tid: usize) {
        self.regs.fill(0);
        self.preds.fill(false);
        (self.pc, self.tid, self.exited) = (0, tid, false);
        self.local_base = LOCAL_MEMORY_BASE + tid as u64 * LOCAL_MEMORY_BYTES;
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

/// What one instruction did for the whole warp, for the timing model. The
/// per-lane parts (which lanes took a branch, each lane's address) are in
/// [`LaneOut`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Effect {
    /// Plain ALU work.
    Alu,
    /// Special-function-unit work.
    Sfu,
    /// A memory access of `size` bytes per lane, at [`LaneOut::addrs`].
    Mem {
        /// Memory space accessed.
        space: MemSpace,
        /// `true` for stores.
        is_store: bool,
        /// Access size in bytes.
        size: u32,
    },
    /// A branch to `target`, taken by the lanes in [`LaneOut::taken`].
    Branch {
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
    /// The lanes exited.
    Exited,
}

/// The per-lane results of [`exec_warp`]. Only what the [`Effect`] names is
/// written, and only for the lanes in the mask: `taken` by a branch,
/// `addrs[lane]` by a load or store.
#[derive(Clone, Debug, Default)]
pub struct LaneOut {
    /// The lanes that took a branch.
    pub taken: u32,
    /// Each lane's absolute byte address.
    pub addrs: [u64; 32],
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

fn cmp<T: PartialOrd>(cmp: CmpOp, a: T, b: T) -> bool {
    match cmp {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

/// The set bits of `mask`, lowest first: the active lanes in lane order.
#[inline(always)]
pub fn lanes(mask: u32) -> impl Iterator<Item = usize> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        let lane = rest.trailing_zeros() as usize;
        rest &= rest.wrapping_sub(1);
        (lane < 32).then_some(lane)
    })
}

/// Executes the instruction at `pc` for the lanes in `mask`, in lane order:
/// `threads[lane]` is lane `lane`'s state. The instruction is decoded once
/// and each arm loops over the lanes. Every lane that executes leaves its
/// `pc` at its own next pc (a branch's target where it was taken).
///
/// # Errors
///
/// Fails with the first active lane when `pc` is outside the program
/// ([`ExecError::PcOutOfRange`]), and with the first lane whose RT
/// instruction fails in its [`RtHooks`] backend ([`ExecError::Rt`]: no
/// runtime bound, corrupt acceleration structure). The lanes before a
/// failing lane have executed; the failing lane and those after it have
/// not, and their `pc` is unchanged. The error is boxed so that the
/// `Result` stays register-sized.
///
/// # Panics
///
/// Panics if a lane in `mask` has no entry in `threads`.
#[inline(always)]
pub fn exec_warp(
    program: &Program,
    pc: u32,
    mask: u32,
    threads: &mut [ThreadState],
    mem: &mut SimMemory,
    rt: &mut dyn RtHooks,
    out: &mut LaneOut,
) -> Result<Effect, Box<(usize, ExecError)>> {
    if pc as usize >= program.len() {
        let lane = mask.trailing_zeros() as usize;
        return Err(Box::new((lane, ExecError::PcOutOfRange { pc })));
    }
    // Runs `$body` for each active lane with `$t` bound to its thread, then
    // moves the lane on; evaluates to `$effect`. A `?` in the body leaves
    // the failing lane as it was.
    macro_rules! each {
        ($effect:expr, |$lane:pat_param, $t:ident| $body:expr) => {{
            for lane in lanes(mask) {
                let $lane = lane;
                let $t = &mut threads[lane];
                $body;
                $t.pc = pc + 1;
            }
            $effect
        }};
    }
    macro_rules! alu {
        (|$t:ident| $body:expr) => {
            each!(Effect::Alu, |_, $t| $body)
        };
    }
    macro_rules! sfu {
        (|$t:ident| $body:expr) => {
            each!(Effect::Sfu, |_, $t| $body)
        };
    }
    macro_rules! rt {
        (|$t:ident| $body:expr) => {
            each!(Effect::RtOther, |_, $t| $body)
        };
    }
    let fault = |lane, e: RtError| Box::new((lane, ExecError::Rt { pc, detail: e.0 }));
    Ok(match *program.fetch(pc) {
        Instr::MovImm { dst, imm } => alu!(|t| t.set_u(dst, imm)),
        Instr::Mov { dst, src } => alu!(|t| t.set_u(dst, t.u(src))),
        Instr::IAdd { dst, a, b } => alu!(|t| t.set_u(dst, t.u(a).wrapping_add(t.u(b)))),
        Instr::ISub { dst, a, b } => alu!(|t| t.set_u(dst, t.u(a).wrapping_sub(t.u(b)))),
        Instr::IMul { dst, a, b } => alu!(|t| t.set_u(dst, t.u(a).wrapping_mul(t.u(b)))),
        Instr::IMin { dst, a, b } => alu!(|t| t.set_u(dst, t.u(a).min(t.u(b)))),
        Instr::IMax { dst, a, b } => alu!(|t| t.set_u(dst, t.u(a).max(t.u(b)))),
        Instr::IAnd { dst, a, b } => alu!(|t| t.set_u(dst, t.u(a) & t.u(b))),
        Instr::IOr { dst, a, b } => alu!(|t| t.set_u(dst, t.u(a) | t.u(b))),
        Instr::IXor { dst, a, b } => alu!(|t| t.set_u(dst, t.u(a) ^ t.u(b))),
        Instr::IShl { dst, a, b } => alu!(|t| t.set_u(dst, t.u(a) << (t.u(b) & 31))),
        Instr::IShr { dst, a, b } => alu!(|t| t.set_u(dst, t.u(a) >> (t.u(b) & 31))),
        Instr::FAdd { dst, a, b } => alu!(|t| t.set_f(dst, t.f(a) + t.f(b))),
        Instr::FSub { dst, a, b } => alu!(|t| t.set_f(dst, t.f(a) - t.f(b))),
        Instr::FMul { dst, a, b } => alu!(|t| t.set_f(dst, t.f(a) * t.f(b))),
        Instr::FDiv { dst, a, b } => sfu!(|t| t.set_f(dst, t.f(a) / t.f(b))),
        Instr::FFma { dst, a, b, c } => alu!(|t| t.set_f(dst, t.f(a).mul_add(t.f(b), t.f(c)))),
        Instr::FMin { dst, a, b } => alu!(|t| t.set_f(dst, t.f(a).min(t.f(b)))),
        Instr::FMax { dst, a, b } => alu!(|t| t.set_f(dst, t.f(a).max(t.f(b)))),
        Instr::FNeg { dst, a } => alu!(|t| t.set_f(dst, -t.f(a))),
        Instr::FAbs { dst, a } => alu!(|t| t.set_f(dst, t.f(a).abs())),
        Instr::FSqrt { dst, a } => sfu!(|t| t.set_f(dst, t.f(a).sqrt())),
        Instr::FRsqrt { dst, a } => sfu!(|t| t.set_f(dst, 1.0 / t.f(a).sqrt())),
        Instr::FSin { dst, a } => sfu!(|t| t.set_f(dst, t.f(a).sin())),
        Instr::FCos { dst, a } => sfu!(|t| t.set_f(dst, t.f(a).cos())),
        Instr::FFloor { dst, a } => alu!(|t| t.set_f(dst, t.f(a).floor())),
        Instr::CvtF2I { dst, a } => alu!(|t| t.set_u(dst, t.f(a) as i32 as u32)),
        Instr::CvtI2F { dst, a } => alu!(|t| t.set_f(dst, t.u(a) as i32 as f32)),
        Instr::CvtU2F { dst, a } => alu!(|t| t.set_f(dst, t.u(a) as f32)),
        Instr::SetpF { dst, cmp: c, a, b } => {
            alu!(|t| t.preds[dst.0 as usize] = cmp(c, t.f(a), t.f(b)))
        }
        Instr::SetpI { dst, cmp: c, a, b } => {
            alu!(|t| t.preds[dst.0 as usize] = cmp(c, t.u(a), t.u(b)))
        }
        Instr::SetpS { dst, cmp: c, a, b } => {
            alu!(|t| t.preds[dst.0 as usize] = cmp(c, t.u(a) as i32, t.u(b) as i32))
        }
        Instr::PredAnd { dst, a, b } => {
            alu!(|t| t.preds[dst.0 as usize] = t.preds[a.0 as usize] && t.preds[b.0 as usize])
        }
        Instr::PredNot { dst, a } => alu!(|t| t.preds[dst.0 as usize] = !t.preds[a.0 as usize]),
        Instr::Sel { dst, cond, a, b } => {
            alu!(|t| t.set_u(
                dst,
                if t.preds[cond.0 as usize] {
                    t.u(a)
                } else {
                    t.u(b)
                }
            ))
        }
        Instr::Bra { target, pred } => {
            out.taken = 0;
            for lane in lanes(mask) {
                let t = &mut threads[lane];
                let taken = pred.is_none_or(|(p, expect)| t.preds[p.0 as usize] == expect);
                out.taken |= u32::from(taken) << lane;
                t.pc = if taken { target } else { pc + 1 };
            }
            Effect::Branch { target }
        }
        Instr::Ssy { reconv } => each!(Effect::Ssy { reconv }, |_, _t| {}),
        Instr::Sync => each!(Effect::Sync, |_, _t| {}),
        Instr::Ld {
            dst,
            space,
            addr,
            offset,
        } => {
            let effect = Effect::Mem {
                space,
                is_store: false,
                size: 4,
            };
            each!(effect, |lane, t| {
                let a = resolve_addr(t, space, t.u(addr), offset);
                t.set_u(dst, mem.read_u32(a));
                out.addrs[lane] = a;
            })
        }
        Instr::St {
            src,
            space,
            addr,
            offset,
        } => {
            let effect = Effect::Mem {
                space,
                is_store: true,
                size: 4,
            };
            each!(effect, |lane, t| {
                let a = resolve_addr(t, space, t.u(addr), offset);
                mem.write_u32(a, t.u(src));
                out.addrs[lane] = a;
            })
        }
        Instr::TraverseAs {
            origin,
            dir,
            tmin,
            tmax,
            flags,
        } => each!(Effect::TraceRay, |lane, t| {
            let ray = RayDesc {
                origin: [t.f(origin[0]), t.f(origin[1]), t.f(origin[2])],
                dir: [t.f(dir[0]), t.f(dir[1]), t.f(dir[2])],
                t_min: t.f(tmin),
                t_max: t.f(tmax),
                flags: t.u(flags),
            };
            rt.traverse(t.tid, ray).map_err(|e| fault(lane, e))?
        }),
        Instr::EndTraceRay => rt!(|t| rt.end_trace(t.tid)),
        Instr::RtAllocMem { dst, size } => rt!(|t| t.set_u(dst, rt.alloc_mem(t.tid, size) as u32)),
        Instr::RtRead { dst, query } => rt!(|t| t.set_u(dst, rt.query(t.tid, query))),
        Instr::RtReadIdx { dst, query, idx } => {
            rt!(|t| t.set_u(dst, rt.query_idx(t.tid, query, t.u(idx))))
        }
        Instr::IntersectionValid { dst, idx } => {
            rt!(|t| t.preds[dst.0 as usize] = rt.intersection_valid(t.tid, t.u(idx)))
        }
        Instr::NextCoalescedCall { dst, idx } => {
            rt!(|t| t.set_u(dst, rt.next_coalesced_call(t.tid, t.u(idx))))
        }
        Instr::ReportIntersection { t: treg, idx } => each!(Effect::RtOther, |lane, t| {
            rt.report_intersection(t.tid, t.u(idx), t.f(treg))
                .map_err(|e| fault(lane, e))?
        }),
        Instr::Exit => each!(Effect::Exited, |_, t| t.exited = true),
    })
}

#[inline]
fn resolve_addr(t: &ThreadState, space: MemSpace, base: u32, offset: i32) -> u64 {
    let a = (base as u64).wrapping_add(offset as i64 as u64);
    match space {
        MemSpace::Global | MemSpace::Const => a,
        MemSpace::Local => t.local_base.wrapping_add(a),
    }
}

/// Runs a single thread functionally until `Exit`: [`exec_warp`] on a
/// one-lane warp.
///
/// # Errors
///
/// Returns [`ExecError::StepLimit`] after 100 million steps (runaway
/// program), [`ExecError::PcOutOfRange`] if control flow escapes the
/// program, and [`ExecError::Rt`] if an RT instruction fails.
pub fn run_to_exit(
    program: &Program,
    t: &mut ThreadState,
    mem: &mut SimMemory,
    rt: &mut dyn RtHooks,
) -> Result<u64, ExecError> {
    const LIMIT: u64 = 100_000_000;
    let mut out = LaneOut::default();
    let thread = std::slice::from_mut(t);
    let mut steps = 0u64;
    while !thread[0].exited {
        if steps >= LIMIT {
            return Err(ExecError::StepLimit);
        }
        exec_warp(program, thread[0].pc, 1, thread, mem, rt, &mut out).map_err(|e| e.1)?;
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

    mod warp_properties {
        use super::*;
        use crate::op::Pred;
        use vksim_snapshot::Snap;
        use vksim_testkit::prop::{check, u32_in, u64_in, vec_of};
        use vksim_testkit::{prop_assert, prop_assert_eq};

        /// Registers 0 to 6 are scratch; register 7 holds each lane's base
        /// address and is never written, so loads and stores stay in a few
        /// overlapping words around a page boundary.
        const ADDR: Reg = Reg(7);

        fn decode(op: u32, x: u32, y: u32, z: u32) -> Instr {
            let r = |v: u32| Reg((v % 7) as u16);
            let p = |v: u32| Pred((v % 4) as u16);
            let cmp = [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ];
            let (dst, a, b) = (r(x), r(y), r(z));
            let space = [MemSpace::Global, MemSpace::Local][z as usize % 2];
            match op {
                0 => Instr::IAdd { dst, a, b },
                1 => Instr::IMul { dst, a, b },
                2 => Instr::IShr { dst, a, b },
                3 => Instr::FAdd { dst, a, b },
                4 => Instr::FFma {
                    dst,
                    a,
                    b,
                    c: r(x ^ z),
                },
                5 => Instr::FDiv { dst, a, b },
                6 => Instr::FSqrt { dst, a },
                7 => Instr::CvtI2F { dst, a },
                8 => Instr::MovImm {
                    dst,
                    imm: y << 16 | z,
                },
                9 => Instr::SetpF {
                    dst: p(x),
                    cmp: cmp[z as usize % 6],
                    a,
                    b,
                },
                10 => Instr::SetpS {
                    dst: p(x),
                    cmp: cmp[y as usize % 6],
                    a,
                    b,
                },
                11 => Instr::Sel {
                    dst,
                    cond: p(y),
                    a,
                    b,
                },
                12 => Instr::Ld {
                    dst,
                    space,
                    addr: ADDR,
                    offset: (y % 8) as i32,
                },
                13 => Instr::St {
                    src: a,
                    space,
                    addr: ADDR,
                    offset: (x % 8) as i32,
                },
                _ => Instr::Bra {
                    target: z % 64,
                    pred: Some((p(x), y.is_multiple_of(2))),
                },
            }
        }

        fn warp(seed: u32) -> Vec<ThreadState> {
            (0..32)
                .map(|lane| {
                    let mut t = ThreadState::with_tid(8, 4, lane);
                    let mix = (seed ^ lane as u32).wrapping_mul(0x9e37_79b9);
                    for (i, reg) in t.regs.iter_mut().enumerate() {
                        *reg = mix.rotate_left(5 * i as u32) % 1000;
                    }
                    t.regs[ADDR.0 as usize] = 0x2ff8 + (lane as u32 % 5) * 2;
                    t.preds = (0..4).map(|i| (mix >> i) & 1 == 1).collect();
                    t
                })
                .collect()
        }

        /// The reference lane order, independent of [`lanes`].
        fn active(mask: u32) -> impl Iterator<Item = usize> {
            (0..32).filter(move |lane| mask >> lane & 1 == 1)
        }

        fn image(mem: &SimMemory) -> Vec<u8> {
            let mut e = vksim_snapshot::Enc::new();
            mem.save(&mut e);
            e.into_bytes()
        }

        /// Running an instruction once for a warp equals running it for each
        /// active lane alone, in lane order: registers, predicates, pcs,
        /// exits, memory, branch outcomes and addresses.
        #[test]
        fn a_warp_step_equals_its_lanes_one_at_a_time() {
            let ops = vec_of(
                (
                    u32_in(0, 15),
                    u32_in(0, 1 << 16),
                    u32_in(0, 64),
                    u32_in(0, 64),
                ),
                1,
                24,
            );
            check(
                &(ops, u64_in(1, 1 << 32), u32_in(0, u32::MAX)),
                |(ops, mask, seed)| {
                    let mask = *mask as u32;
                    let mut instrs: Vec<Instr> =
                        ops.iter().map(|&(o, x, y, z)| decode(o, x, y, z)).collect();
                    instrs.push(Instr::Exit);
                    let mut b = ProgramBuilder::new();
                    instrs.iter().for_each(|&i| b.emit(i));
                    let program = b.build();
                    let (mut together, mut alone) = (warp(*seed), warp(*seed));
                    let (mut mem_together, mut mem_alone) = (SimMemory::new(), SimMemory::new());
                    for pc in 0..program.len() as u32 {
                        let mut out = LaneOut::default();
                        let effect = exec_warp(
                            &program,
                            pc,
                            mask,
                            &mut together,
                            &mut mem_together,
                            &mut NoRt,
                            &mut out,
                        )
                        .map_err(|e| format!("{e:?}"))?;
                        let mut single = LaneOut::default();
                        let mut taken = 0;
                        for lane in active(mask) {
                            let one = exec_warp(
                                &program,
                                pc,
                                1 << lane,
                                &mut alone,
                                &mut mem_alone,
                                &mut NoRt,
                                &mut single,
                            )
                            .map_err(|e| format!("{e:?}"))?;
                            prop_assert_eq!(one, effect, "lane {lane} at pc {pc}");
                            prop_assert_eq!(
                                single.taken & !(1 << lane),
                                0,
                                "lane {lane} at pc {pc}"
                            );
                            taken |= single.taken;
                        }
                        prop_assert_eq!(&together, &alone, "threads after pc {pc}");
                        prop_assert!(
                            image(&mem_together) == image(&mem_alone),
                            "memory after pc {pc}"
                        );
                        if let Effect::Branch { .. } = effect {
                            prop_assert_eq!(out.taken, taken, "taken lanes at pc {pc}");
                        }
                        if let Effect::Mem { .. } = effect {
                            for lane in active(mask) {
                                prop_assert_eq!(
                                    out.addrs[lane],
                                    single.addrs[lane],
                                    "lane {lane} at pc {pc}"
                                );
                            }
                        }
                    }
                    prop_assert!(together
                        .iter()
                        .enumerate()
                        .all(|(lane, t)| t.exited == (mask >> lane & 1 == 1)));
                    Ok(())
                },
            );
        }

        /// Fails `traverse` and `report_intersection` for one thread id.
        struct FailAt {
            tid: usize,
            calls: Vec<usize>,
        }

        impl RtHooks for FailAt {
            fn traverse(&mut self, tid: usize, _ray: RayDesc) -> Result<(), RtError> {
                self.report_intersection(tid, 0, 0.0)
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
            fn report_intersection(
                &mut self,
                tid: usize,
                _idx: u32,
                _t: f32,
            ) -> Result<(), RtError> {
                if tid == self.tid {
                    return Err(RtError(format!("thread {tid} fails")));
                }
                self.calls.push(tid);
                Ok(())
            }
        }

        /// A backend failing at lane k leaves the active lanes below k
        /// executed and k onwards untouched, and reports k.
        #[test]
        fn an_rt_fault_stops_the_warp_at_the_failing_lane() {
            let r = |i| Reg(i);
            let traverse = Instr::TraverseAs {
                origin: [r(0), r(1), r(2)],
                dir: [r(3), r(4), r(5)],
                tmin: r(6),
                tmax: r(0),
                flags: r(1),
            };
            let report = Instr::ReportIntersection { t: r(0), idx: r(1) };
            check(
                &(u64_in(1, 1 << 32), u32_in(0, 32), u32_in(0, 2)),
                |&(mask, k, which)| {
                    let (mask, k) = (mask as u32 | 1 << k, k as usize);
                    let mut b = ProgramBuilder::new();
                    b.mov_imm_u32(r(0), 0);
                    b.emit([traverse, report][which as usize]);
                    let program = b.build();
                    let before = warp(k as u32);
                    let mut threads = before.clone();
                    let mut rt = FailAt {
                        tid: k,
                        calls: Vec::new(),
                    };
                    let err = exec_warp(
                        &program,
                        1,
                        mask,
                        &mut threads,
                        &mut SimMemory::new(),
                        &mut rt,
                        &mut LaneOut::default(),
                    )
                    .expect_err("lane k fails");
                    prop_assert_eq!(err.0, k);
                    prop_assert!(matches!(err.1, ExecError::Rt { pc: 1, .. }), "{:?}", err.1);
                    let below: Vec<usize> = active(mask).take_while(|&lane| lane < k).collect();
                    prop_assert_eq!(&rt.calls, &below);
                    for (lane, (now, was)) in threads.iter().zip(&before).enumerate() {
                        let pc = if below.contains(&lane) { 2 } else { was.pc };
                        prop_assert_eq!(now.pc, pc, "lane {lane}");
                        prop_assert_eq!(&now.regs, &was.regs, "lane {lane}");
                    }
                    Ok(())
                },
            );
        }
    }
}
