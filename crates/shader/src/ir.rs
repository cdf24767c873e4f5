//! NIR-like structured shader IR.
//!
//! The IR is deliberately close to NIR's shape: scalar SSA-ish expressions,
//! structured control flow (NIR jumps are structurized before backends see
//! them), and ray-tracing intrinsics as first-class operations. The
//! translator in [`crate::translate`](mod@crate::translate) lowers it to the PTX-like ISA.

pub use vksim_isa::op::{CmpOp, RtIdxQuery};

/// Scalar value types.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Ty {
    /// 32-bit float.
    F32,
    /// 32-bit unsigned integer.
    U32,
    /// Boolean (lives in predicate registers).
    Bool,
}

/// A shader-local variable handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Var(pub u32);

/// Ray-tracing pipeline stage of a shader (paper Fig. 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShaderKind {
    /// Ray generation: entry point, one invocation per thread.
    RayGen,
    /// Closest-hit: runs when traversal commits a hit.
    ClosestHit,
    /// Miss: runs when the ray hits nothing.
    Miss,
    /// Any-hit: validates candidate hits.
    AnyHit,
    /// Intersection: evaluates procedural geometry.
    Intersection,
}

/// Binary operators. Integer or float semantics follow the operand type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (float only).
    Div,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Bitwise and (u32 only).
    And,
    /// Bitwise or (u32 only).
    Or,
    /// Bitwise xor (u32 only).
    Xor,
    /// Shift left (u32 only).
    Shl,
    /// Shift right (u32 only).
    Shr,
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Negate (f32).
    Neg,
    /// Absolute value (f32).
    Abs,
    /// Square root (f32).
    Sqrt,
    /// Reciprocal square root (f32).
    Rsqrt,
    /// Sine (f32).
    Sin,
    /// Cosine (f32).
    Cos,
    /// Floor (f32).
    Floor,
    /// Convert f32 -> u32 via i32 truncation.
    F2U,
    /// Convert u32 -> f32.
    U2F,
}

/// Built-in inputs — the NIR ray-tracing load intrinsics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `gl_LaunchIDEXT` component (`load_ray_launch_id`).
    LaunchId(u8),
    /// `gl_LaunchSizeEXT` component.
    LaunchSize(u8),
    /// Committed-hit kind: 0 miss, 1 triangle, 2 procedural.
    HitKind,
    /// Committed-hit `gl_HitTEXT`.
    HitT,
    /// Committed-hit barycentric u.
    HitU,
    /// Committed-hit barycentric v.
    HitV,
    /// `gl_PrimitiveID` of the committed hit.
    HitPrimitiveIndex,
    /// `gl_InstanceID` of the committed hit.
    HitInstanceIndex,
    /// `gl_InstanceCustomIndexEXT` of the committed hit.
    HitInstanceCustomIndex,
    /// World-space geometric normal component of the committed hit.
    HitWorldNormal(u8),
    /// `gl_WorldRayOriginEXT` component (`loadRayWorldOrigin`).
    RayOrigin(u8),
    /// `gl_WorldRayDirectionEXT` component.
    RayDirection(u8),
    /// `gl_RayTminEXT`.
    RayTMin,
    /// Current trace recursion depth.
    RecursionDepth,
}

impl Builtin {
    /// Result type of the builtin.
    pub fn ty(self) -> Ty {
        match self {
            Builtin::LaunchId(_)
            | Builtin::LaunchSize(_)
            | Builtin::HitKind
            | Builtin::HitPrimitiveIndex
            | Builtin::HitInstanceIndex
            | Builtin::HitInstanceCustomIndex
            | Builtin::RecursionDepth => Ty::U32,
            _ => Ty::F32,
        }
    }
}

/// An expression tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Float literal.
    ConstF(f32),
    /// Unsigned literal.
    ConstU(u32),
    /// Variable read.
    Var(Var),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Comparison producing a boolean.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Boolean conjunction.
    BoolAnd(Box<Expr>, Box<Expr>),
    /// Boolean negation.
    BoolNot(Box<Expr>),
    /// `if cond { a } else { b }` as a value.
    Select(Box<Expr>, Box<Expr>, Box<Expr>),
    /// 32-bit load from global memory at `addr + offset`.
    Load {
        /// Address expression (u32).
        addr: Box<Expr>,
        /// Immediate byte offset.
        offset: i32,
        /// Type the loaded bits should be treated as.
        ty: Ty,
    },
    /// Base address of descriptor binding `n` (read from the descriptor
    /// table, like a Vulkan descriptor-set fetch).
    BufferBase(u32),
    /// Built-in input.
    Builtin(Builtin),
    /// Per-candidate intersection attribute; only valid inside intersection
    /// or any-hit shaders, where the translator substitutes the current
    /// candidate index.
    IntersectionAttr(RtIdxQuery),
    /// Outgoing payload slot (the payload of traces *this* shader issues).
    Payload(u8),
    /// Incoming payload slot (invalid in raygen shaders).
    PayloadIn(u8),
}

impl Expr {
    /// Result type of this expression given the owning module's variable
    /// types.
    pub fn ty(&self, module: &ShaderModule) -> Ty {
        match self {
            Expr::ConstF(_) => Ty::F32,
            Expr::ConstU(_) => Ty::U32,
            Expr::Var(v) => module.var_ty(*v),
            Expr::Bin(_, a, _) => a.ty(module),
            Expr::Un(op, a) => match op {
                UnOp::F2U => Ty::U32,
                UnOp::U2F => Ty::F32,
                _ => a.ty(module),
            },
            Expr::Cmp(..) | Expr::BoolAnd(..) | Expr::BoolNot(..) => Ty::Bool,
            Expr::Select(_, a, _) => a.ty(module),
            Expr::Load { ty, .. } => *ty,
            Expr::BufferBase(_) => Ty::U32,
            Expr::Builtin(b) => b.ty(),
            Expr::IntersectionAttr(q) => match q {
                RtIdxQuery::IntersectionTEnter => Ty::F32,
                _ => Ty::U32,
            },
            // Payload slots are reinterpreted freely; default to F32 (color
            // data). Integer payloads go through bit-preserving moves.
            Expr::Payload(_) | Expr::PayloadIn(_) => Ty::F32,
        }
    }
}

/// A statement.
// `TraceRay` dwarfs the other variants, but statement vectors are tiny
// (shader bodies, not per-ray data) and boxing its fields would churn
// every builder call site for no measurable win.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// `var = expr`.
    Set(Var, Expr),
    /// 32-bit store to global memory.
    Store {
        /// Address expression (u32).
        addr: Expr,
        /// Immediate byte offset.
        offset: i32,
        /// Value to store.
        value: Expr,
    },
    /// Write an outgoing-payload slot.
    SetPayload(u8, Expr),
    /// Write an incoming-payload slot (how hit/miss shaders return data).
    SetPayloadIn(u8, Expr),
    /// Structured conditional.
    If {
        /// Condition (Bool).
        cond: Expr,
        /// Taken block.
        then_blk: Vec<Stmt>,
        /// Not-taken block (may be empty).
        else_blk: Vec<Stmt>,
    },
    /// Structured loop; `cond` re-evaluated each iteration.
    While {
        /// Continue condition (Bool).
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `traceRayEXT`: the translator expands this to Algorithm 1.
    TraceRay {
        /// Ray origin (x, y, z), f32.
        origin: [Expr; 3],
        /// Ray direction (x, y, z), f32.
        dir: [Expr; 3],
        /// Minimum t.
        t_min: Expr,
        /// Maximum t.
        t_max: Expr,
        /// Vulkan ray flags (bit 0 = terminate on first hit).
        flags: Expr,
        /// Which miss shader runs if nothing is hit.
        miss_index: u32,
    },
    /// `reportIntersectionEXT(t)`; only valid in intersection shaders.
    ReportIntersection {
        /// Hit parameter.
        t: Expr,
    },
}

/// A complete shader: a stage, variable table and body.
#[derive(Clone, Debug, PartialEq)]
pub struct ShaderModule {
    /// Pipeline stage.
    pub kind: ShaderKind,
    /// Human-readable name (diagnostics).
    pub name: String,
    /// Variable types; `Var(i)` has type `vars[i]`.
    pub vars: Vec<Ty>,
    /// Statement list.
    pub body: Vec<Stmt>,
}

impl ShaderModule {
    /// Type of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not declared in this module.
    pub fn var_ty(&self, v: Var) -> Ty {
        self.vars[v.0 as usize]
    }

    /// Counts statements recursively (diagnostics / tests).
    pub fn stmt_count(&self) -> usize {
        fn count(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::If {
                        then_blk, else_blk, ..
                    } => 1 + count(then_blk) + count(else_blk),
                    Stmt::While { body, .. } => 1 + count(body),
                    _ => 1,
                })
                .sum()
        }
        count(&self.body)
    }

    /// `true` if the shader (recursively) contains a `TraceRay` statement.
    pub fn contains_trace(&self) -> bool {
        fn scan(stmts: &[Stmt]) -> bool {
            stmts.iter().any(|s| match s {
                Stmt::TraceRay { .. } => true,
                Stmt::If {
                    then_blk, else_blk, ..
                } => scan(then_blk) || scan(else_blk),
                Stmt::While { body, .. } => scan(body),
                _ => false,
            })
        }
        scan(&self.body)
    }
}

impl Expr {
    /// Coerces a u32 expression into a boolean (`expr != 0`); convenience
    /// for tests and generated code.
    pub fn into_bool(self) -> Expr {
        Expr::Cmp(CmpOp::Ne, Box::new(self), Box::new(Expr::ConstU(0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module_with_vars(vars: Vec<Ty>) -> ShaderModule {
        ShaderModule {
            kind: ShaderKind::RayGen,
            name: "t".into(),
            vars,
            body: vec![],
        }
    }

    #[test]
    fn expression_types() {
        let m = module_with_vars(vec![Ty::F32, Ty::U32]);
        assert_eq!(Expr::ConstF(1.0).ty(&m), Ty::F32);
        assert_eq!(Expr::Var(Var(1)).ty(&m), Ty::U32);
        let add = Expr::Bin(
            BinOp::Add,
            Box::new(Expr::Var(Var(0))),
            Box::new(Expr::ConstF(1.0)),
        );
        assert_eq!(add.ty(&m), Ty::F32);
        let cmp = Expr::Cmp(
            CmpOp::Lt,
            Box::new(Expr::ConstF(0.0)),
            Box::new(Expr::ConstF(1.0)),
        );
        assert_eq!(cmp.ty(&m), Ty::Bool);
        assert_eq!(
            Expr::Un(UnOp::F2U, Box::new(Expr::ConstF(2.0))).ty(&m),
            Ty::U32
        );
        assert_eq!(Expr::Builtin(Builtin::LaunchId(0)).ty(&m), Ty::U32);
        assert_eq!(Expr::Builtin(Builtin::HitT).ty(&m), Ty::F32);
    }

    #[test]
    fn stmt_count_recurses() {
        let m = ShaderModule {
            kind: ShaderKind::Miss,
            name: "m".into(),
            vars: vec![],
            body: vec![Stmt::If {
                cond: Expr::ConstU(1).into_bool(),
                then_blk: vec![Stmt::SetPayloadIn(0, Expr::ConstF(1.0))],
                else_blk: vec![],
            }],
        };
        assert_eq!(m.stmt_count(), 2);
    }

    #[test]
    fn contains_trace_scans_nested() {
        let trace = Stmt::TraceRay {
            origin: [Expr::ConstF(0.0), Expr::ConstF(0.0), Expr::ConstF(0.0)],
            dir: [Expr::ConstF(0.0), Expr::ConstF(0.0), Expr::ConstF(1.0)],
            t_min: Expr::ConstF(0.0),
            t_max: Expr::ConstF(1.0),
            flags: Expr::ConstU(0),
            miss_index: 0,
        };
        let m = ShaderModule {
            kind: ShaderKind::RayGen,
            name: "r".into(),
            vars: vec![],
            body: vec![Stmt::While {
                cond: Expr::ConstU(0).into_bool(),
                body: vec![trace],
            }],
        };
        assert!(m.contains_trace());
    }
}
