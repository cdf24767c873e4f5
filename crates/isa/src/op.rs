//! Instruction set definition.
//!
//! Registers are untyped 32-bit cells (like PTX `.b32`); floating-point
//! instructions reinterpret the bits. Predicate registers are separate,
//! matching PTX's `.pred` register class.

/// A virtual general-purpose register index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u16);

/// A predicate (boolean) register index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pred(pub u16);

/// Comparison operator for `setp`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
}

/// Memory space of a load or store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Device global memory (descriptor buffers, AS, framebuffers).
    Global,
    /// Per-thread local memory (spills, traversal-stack spill area).
    Local,
    /// Constant memory (launch parameters).
    Const,
}

/// Read-only queries against the per-thread RT state, answered by
/// [`crate::interp::RtHooks`]. These model the NIR ray-tracing intrinsics
/// (`loadRayWorldOrigin`, `loadRayLaunchId`, hit-attribute loads, ...) that
/// the NIR-to-PTX translator lowers to custom PTX instructions (paper
/// §III-B2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RtQuery {
    /// Launch-grid coordinate of this thread (`load_ray_launch_id`).
    LaunchId(u8),
    /// Launch-grid extent (`loadRayLaunchSize`).
    LaunchSize(u8),
    /// Committed hit: 0 = miss, 1 = triangle hit, 2 = committed procedural.
    HitKind,
    /// Committed hit ray parameter `t` (f32).
    HitT,
    /// Committed hit barycentric `u` (f32).
    HitU,
    /// Committed hit barycentric `v` (f32).
    HitV,
    /// Committed hit primitive index.
    HitPrimitiveIndex,
    /// Committed hit instance index.
    HitInstanceIndex,
    /// Committed hit instance custom index.
    HitInstanceCustomIndex,
    /// Committed hit world-space geometric normal component (f32).
    HitWorldNormal(u8),
    /// Committed hit SBT record offset (selects the closest-hit shader —
    /// `getClosestHitShaderID` in Algorithm 1).
    ClosestHitShaderId,
    /// Number of pending procedural intersections in the buffer.
    IntersectionCount,
    /// World-space ray origin component of the current trace (f32).
    RayOrigin(u8),
    /// World-space ray direction component of the current trace (f32).
    RayDirection(u8),
    /// Current trace `t_min` (f32).
    RayTMin,
    /// Current trace recursion depth.
    RecursionDepth,
}

/// Per-pending-intersection queries (operand-indexed).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RtIdxQuery {
    /// Intersection-shader ID of entry `idx` (`getIntersectionShaderID`).
    IntersectionShaderId,
    /// Primitive index of entry `idx`.
    IntersectionPrimitiveIndex,
    /// Instance custom index of entry `idx`.
    IntersectionInstanceCustomIndex,
    /// Instance index of entry `idx`.
    IntersectionInstanceIndex,
    /// AABB entry `t` of entry `idx` (f32).
    IntersectionTEnter,
}

/// Broad instruction class, used for the paper's instruction-mix statistics
/// (§VI: "ALU operations account for 60% ... memory operations 25% ...
/// around 1% trace ray instructions").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Integer/float arithmetic, comparisons, conversions, selects.
    Alu,
    /// Special-function unit ops (sqrt, rsqrt, sin, cos, div).
    Sfu,
    /// Loads and stores.
    Mem,
    /// Branches and reconvergence markers.
    Ctrl,
    /// Ray-tracing instructions (`traverseAS` and friends).
    Rt,
    /// Thread exit.
    Exit,
}

impl InstClass {
    /// The instruction-mix counter, `inst.<class>`, from a table, so that
    /// counting an issued instruction formats nothing.
    pub const fn counter(self) -> &'static str {
        match self {
            InstClass::Alu => "inst.Alu",
            InstClass::Sfu => "inst.Sfu",
            InstClass::Mem => "inst.Mem",
            InstClass::Ctrl => "inst.Ctrl",
            InstClass::Rt => "inst.Rt",
            InstClass::Exit => "inst.Exit",
        }
    }
}

/// One virtual instruction.
///
/// The custom RT instructions from the paper's Table II are:
/// [`Instr::TraverseAs`] (`traverseAS`), [`Instr::EndTraceRay`]
/// (`endTraceRay`), [`Instr::RtAllocMem`] (`rt_alloc_mem`) and
/// [`Instr::RtRead`] with [`RtQuery::LaunchId`] (`load_ray_launch_id`),
/// plus the accessors and intersection-control instructions Algorithm 1
/// relies on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Instr {
    // ---- ALU ----
    /// `dst = imm` (raw 32-bit move).
    MovImm { dst: Reg, imm: u32 },
    /// `dst = src`.
    Mov { dst: Reg, src: Reg },
    /// Integer add: `dst = a + b` (wrapping).
    IAdd { dst: Reg, a: Reg, b: Reg },
    /// Integer subtract (wrapping).
    ISub { dst: Reg, a: Reg, b: Reg },
    /// Integer multiply (wrapping, low 32 bits).
    IMul { dst: Reg, a: Reg, b: Reg },
    /// Unsigned integer minimum.
    IMin { dst: Reg, a: Reg, b: Reg },
    /// Unsigned integer maximum.
    IMax { dst: Reg, a: Reg, b: Reg },
    /// Bitwise and.
    IAnd { dst: Reg, a: Reg, b: Reg },
    /// Bitwise or.
    IOr { dst: Reg, a: Reg, b: Reg },
    /// Bitwise xor.
    IXor { dst: Reg, a: Reg, b: Reg },
    /// Logical shift left by `b & 31`.
    IShl { dst: Reg, a: Reg, b: Reg },
    /// Logical shift right by `b & 31`.
    IShr { dst: Reg, a: Reg, b: Reg },
    /// Float add.
    FAdd { dst: Reg, a: Reg, b: Reg },
    /// Float subtract.
    FSub { dst: Reg, a: Reg, b: Reg },
    /// Float multiply.
    FMul { dst: Reg, a: Reg, b: Reg },
    /// Float divide (SFU class).
    FDiv { dst: Reg, a: Reg, b: Reg },
    /// Fused multiply-add: `dst = a * b + c`.
    FFma { dst: Reg, a: Reg, b: Reg, c: Reg },
    /// Float minimum (NaN-propagating like PTX `min.f32`).
    FMin { dst: Reg, a: Reg, b: Reg },
    /// Float maximum.
    FMax { dst: Reg, a: Reg, b: Reg },
    /// Float negate.
    FNeg { dst: Reg, a: Reg },
    /// Float absolute value.
    FAbs { dst: Reg, a: Reg },
    /// Square root (SFU class).
    FSqrt { dst: Reg, a: Reg },
    /// Reciprocal square root (SFU class).
    FRsqrt { dst: Reg, a: Reg },
    /// Sine (SFU class).
    FSin { dst: Reg, a: Reg },
    /// Cosine (SFU class).
    FCos { dst: Reg, a: Reg },
    /// Floor.
    FFloor { dst: Reg, a: Reg },
    /// Convert f32 -> i32 (truncating).
    CvtF2I { dst: Reg, a: Reg },
    /// Convert i32 -> f32.
    CvtI2F { dst: Reg, a: Reg },
    /// Convert u32 -> f32.
    CvtU2F { dst: Reg, a: Reg },
    /// Compare and set predicate.
    SetpF {
        dst: Pred,
        cmp: CmpOp,
        a: Reg,
        b: Reg,
    },
    /// Integer compare (unsigned) and set predicate.
    SetpI {
        dst: Pred,
        cmp: CmpOp,
        a: Reg,
        b: Reg,
    },
    /// Signed integer compare and set predicate.
    SetpS {
        dst: Pred,
        cmp: CmpOp,
        a: Reg,
        b: Reg,
    },
    /// Predicate logic: `dst = a AND b`.
    PredAnd { dst: Pred, a: Pred, b: Pred },
    /// Predicate logic: `dst = NOT a`.
    PredNot { dst: Pred, a: Pred },
    /// Select: `dst = if cond { a } else { b }`.
    Sel {
        dst: Reg,
        cond: Pred,
        a: Reg,
        b: Reg,
    },

    // ---- Control flow ----
    /// Unconditional or predicated branch to resolved pc `target`.
    /// `expect` gives the predicate value that takes the branch.
    Bra {
        target: u32,
        pred: Option<(Pred, bool)>,
    },
    /// Push a reconvergence point (immediate post-dominator) for the SIMT
    /// stack; like SASS `SSY`.
    Ssy { reconv: u32 },
    /// Reconverge at a previously pushed point; like SASS `SYNC`.
    Sync,

    // ---- Memory ----
    /// 32-bit load: `dst = [addr + offset]`.
    Ld {
        dst: Reg,
        space: MemSpace,
        addr: Reg,
        offset: i32,
    },
    /// 32-bit store: `[addr + offset] = src`.
    St {
        src: Reg,
        space: MemSpace,
        addr: Reg,
        offset: i32,
    },

    // ---- Ray tracing (Table II + Algorithm 1 support) ----
    /// `traverseAS`: launch acceleration-structure traversal for this
    /// thread's ray. Ray registers hold f32 components.
    TraverseAs {
        /// World-space origin (x, y, z).
        origin: [Reg; 3],
        /// World-space direction (x, y, z).
        dir: [Reg; 3],
        /// Minimum t (f32).
        tmin: Reg,
        /// Maximum t (f32).
        tmax: Reg,
        /// Vulkan ray flags (bit 0 = terminate on first hit).
        flags: Reg,
    },
    /// `endTraceRay`: pop the traversal-results stack and clear the
    /// intersection table.
    EndTraceRay,
    /// `rt_alloc_mem`: allocate `size` bytes of memory shared among shader
    /// stages; the address is written to `dst`.
    RtAllocMem { dst: Reg, size: u32 },
    /// Read a scalar from the per-thread RT state.
    RtRead { dst: Reg, query: RtQuery },
    /// Read an indexed value from the pending-intersection table.
    RtReadIdx {
        dst: Reg,
        query: RtIdxQuery,
        idx: Reg,
    },
    /// `intersectionExit`-style check: predicate set when `idx` is still a
    /// valid pending-intersection index (loop continues while true).
    IntersectionValid { dst: Pred, idx: Reg },
    /// `getNextCoalescedCall` (Algorithm 3 / FCC): reads the coalescing
    /// buffer row `idx`; `dst` receives the row's shader ID, or `u32::MAX`
    /// when this thread does not participate in the row.
    NextCoalescedCall { dst: Reg, idx: Reg },
    /// `reportIntersectionEXT` from an intersection shader: commit hit at
    /// `t` for pending entry `idx` if it is the closest so far.
    ReportIntersection { t: Reg, idx: Reg },
    /// Thread finished.
    Exit,
}

impl Instr {
    /// The instruction's class for scheduling and statistics.
    pub fn class(&self) -> InstClass {
        use Instr::*;
        match self {
            FDiv { .. } | FSqrt { .. } | FRsqrt { .. } | FSin { .. } | FCos { .. } => {
                InstClass::Sfu
            }
            MovImm { .. }
            | Mov { .. }
            | IAdd { .. }
            | ISub { .. }
            | IMul { .. }
            | IMin { .. }
            | IMax { .. }
            | IAnd { .. }
            | IOr { .. }
            | IXor { .. }
            | IShl { .. }
            | IShr { .. }
            | FAdd { .. }
            | FSub { .. }
            | FMul { .. }
            | FFma { .. }
            | FMin { .. }
            | FMax { .. }
            | FNeg { .. }
            | FAbs { .. }
            | FFloor { .. }
            | CvtF2I { .. }
            | CvtI2F { .. }
            | CvtU2F { .. }
            | SetpF { .. }
            | SetpI { .. }
            | SetpS { .. }
            | PredAnd { .. }
            | PredNot { .. }
            | Sel { .. } => InstClass::Alu,
            Bra { .. } | Ssy { .. } | Sync => InstClass::Ctrl,
            Ld { .. } | St { .. } => InstClass::Mem,
            TraverseAs { .. }
            | EndTraceRay
            | RtAllocMem { .. }
            | RtRead { .. }
            | RtReadIdx { .. }
            | IntersectionValid { .. }
            | NextCoalescedCall { .. }
            | ReportIntersection { .. } => InstClass::Rt,
            Exit => InstClass::Exit,
        }
    }

    /// Every register and predicate the instruction names, read or
    /// written. The assembler checks them against the program's declared
    /// counts, which size each thread's register files.
    pub fn operands(&self) -> (Vec<Reg>, Vec<Pred>) {
        use Instr::*;
        match *self {
            MovImm { dst, .. } | RtAllocMem { dst, .. } | RtRead { dst, .. } => (vec![dst], vec![]),
            Mov { dst, src: a }
            | FNeg { dst, a }
            | FAbs { dst, a }
            | FSqrt { dst, a }
            | FRsqrt { dst, a }
            | FSin { dst, a }
            | FCos { dst, a }
            | FFloor { dst, a }
            | CvtF2I { dst, a }
            | CvtI2F { dst, a }
            | CvtU2F { dst, a }
            | Ld { dst, addr: a, .. }
            | St {
                src: dst, addr: a, ..
            }
            | RtReadIdx { dst, idx: a, .. }
            | NextCoalescedCall { dst, idx: a }
            | ReportIntersection { t: dst, idx: a } => (vec![dst, a], vec![]),
            IAdd { dst, a, b }
            | ISub { dst, a, b }
            | IMul { dst, a, b }
            | IMin { dst, a, b }
            | IMax { dst, a, b }
            | IAnd { dst, a, b }
            | IOr { dst, a, b }
            | IXor { dst, a, b }
            | IShl { dst, a, b }
            | IShr { dst, a, b }
            | FAdd { dst, a, b }
            | FSub { dst, a, b }
            | FMul { dst, a, b }
            | FDiv { dst, a, b }
            | FMin { dst, a, b }
            | FMax { dst, a, b } => (vec![dst, a, b], vec![]),
            FFma { dst, a, b, c } => (vec![dst, a, b, c], vec![]),
            SetpF { dst, a, b, .. } | SetpI { dst, a, b, .. } | SetpS { dst, a, b, .. } => {
                (vec![a, b], vec![dst])
            }
            Sel { dst, cond, a, b } => (vec![dst, a, b], vec![cond]),
            PredAnd { dst, a, b } => (vec![], vec![dst, a, b]),
            PredNot { dst, a } => (vec![], vec![dst, a]),
            IntersectionValid { dst, idx } => (vec![idx], vec![dst]),
            Bra { pred, .. } => (vec![], pred.map(|(p, _)| p).into_iter().collect()),
            TraverseAs {
                origin,
                dir,
                tmin,
                tmax,
                flags,
            } => {
                let regs = origin.into_iter().chain(dir).chain([tmin, tmax, flags]);
                (regs.collect(), vec![])
            }
            Ssy { .. } | Sync | EndTraceRay | Exit => (vec![], vec![]),
        }
    }

    /// `true` for the heavyweight `traverseAS` instruction that is routed to
    /// the RT unit (the paper's "trace ray instruction").
    pub fn is_trace_ray(&self) -> bool {
        matches!(self, Instr::TraverseAs { .. })
    }
}

pub use MemSpace::{Const as ConstSpace, Global as GlobalSpace, Local as LocalSpace};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_paper_breakdown() {
        assert_eq!(
            Instr::FAdd {
                dst: Reg(0),
                a: Reg(0),
                b: Reg(0)
            }
            .class(),
            InstClass::Alu
        );
        assert_eq!(
            Instr::FSqrt {
                dst: Reg(0),
                a: Reg(0)
            }
            .class(),
            InstClass::Sfu
        );
        assert_eq!(
            Instr::Ld {
                dst: Reg(0),
                space: MemSpace::Global,
                addr: Reg(0),
                offset: 0
            }
            .class(),
            InstClass::Mem
        );
        assert_eq!(
            Instr::Bra {
                target: 0,
                pred: None
            }
            .class(),
            InstClass::Ctrl
        );
        assert_eq!(Instr::EndTraceRay.class(), InstClass::Rt);
        assert_eq!(Instr::Exit.class(), InstClass::Exit);
    }

    #[test]
    fn counter_names_are_inst_dot_the_class_name() {
        use InstClass::*;
        for class in [Alu, Sfu, Mem, Ctrl, Rt, Exit] {
            assert_eq!(class.counter(), format!("inst.{class:?}"));
        }
    }

    #[test]
    fn trace_ray_detection() {
        let t = Instr::TraverseAs {
            origin: [Reg(0), Reg(1), Reg(2)],
            dir: [Reg(3), Reg(4), Reg(5)],
            tmin: Reg(6),
            tmax: Reg(7),
            flags: Reg(8),
        };
        assert!(t.is_trace_ray());
        assert!(!Instr::EndTraceRay.is_trace_ray());
        assert_eq!(t.class(), InstClass::Rt);
    }
}
