//! Textual assembly: disassembler and assembler for the PTX-like ISA.
//!
//! The Vulkan-Sim artifact dumps translated PTX shaders to files
//! (`gpgpusimShaders/`) and replays them with a trace runner, decoupling
//! simulation from the Vulkan frontend. This module provides the
//! equivalent: [`disassemble`] renders a [`Program`] as stable text, and
//! [`assemble`] parses it back — a lossless round trip.
//!
//! # Example
//!
//! ```
//! use vksim_isa::program::ProgramBuilder;
//! use vksim_isa::text::{assemble, disassemble};
//!
//! let mut b = ProgramBuilder::new();
//! let r = b.reg();
//! b.mov_imm_f32(r, 1.5);
//! b.exit();
//! let p = b.build();
//! let text = disassemble(&p);
//! let q = assemble(&text).unwrap();
//! assert_eq!(p, q);
//! ```

use crate::op::{CmpOp, Instr, MemSpace, Pred, Reg, RtIdxQuery, RtQuery};
use crate::program::Program;
use std::fmt::Write as _;

/// Renders a program as text, one instruction per line, prefixed by a
/// header carrying the register counts.
pub fn disassemble(p: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        ".program regs={} preds={}",
        p.num_regs(),
        p.num_preds()
    );
    for (pc, i) in p.instrs().iter().enumerate() {
        let _ = writeln!(out, "{pc:>6}: {}", format_instr(i));
    }
    out
}

fn space(s: MemSpace) -> &'static str {
    match s {
        MemSpace::Global => "global",
        MemSpace::Local => "local",
        MemSpace::Const => "const",
    }
}

fn cmp(c: CmpOp) -> &'static str {
    match c {
        CmpOp::Eq => "eq",
        CmpOp::Ne => "ne",
        CmpOp::Lt => "lt",
        CmpOp::Le => "le",
        CmpOp::Gt => "gt",
        CmpOp::Ge => "ge",
    }
}

fn rt_query(q: RtQuery) -> String {
    match q {
        RtQuery::LaunchId(d) => format!("launch_id.{d}"),
        RtQuery::LaunchSize(d) => format!("launch_size.{d}"),
        RtQuery::HitKind => "hit_kind".into(),
        RtQuery::HitT => "hit_t".into(),
        RtQuery::HitU => "hit_u".into(),
        RtQuery::HitV => "hit_v".into(),
        RtQuery::HitPrimitiveIndex => "hit_prim".into(),
        RtQuery::HitInstanceIndex => "hit_inst".into(),
        RtQuery::HitInstanceCustomIndex => "hit_custom".into(),
        RtQuery::HitWorldNormal(d) => format!("hit_normal.{d}"),
        RtQuery::ClosestHitShaderId => "chit_shader".into(),
        RtQuery::IntersectionCount => "isect_count".into(),
        RtQuery::RayOrigin(d) => format!("ray_origin.{d}"),
        RtQuery::RayDirection(d) => format!("ray_dir.{d}"),
        RtQuery::RayTMin => "ray_tmin".into(),
        RtQuery::RecursionDepth => "depth".into(),
    }
}

fn parse_rt_query(s: &str) -> Option<RtQuery> {
    let (base, dim) = match s.split_once('.') {
        Some((b, d)) => (b, d.parse::<u8>().ok()?),
        None => (s, 0),
    };
    Some(match base {
        "launch_id" => RtQuery::LaunchId(dim),
        "launch_size" => RtQuery::LaunchSize(dim),
        "hit_kind" => RtQuery::HitKind,
        "hit_t" => RtQuery::HitT,
        "hit_u" => RtQuery::HitU,
        "hit_v" => RtQuery::HitV,
        "hit_prim" => RtQuery::HitPrimitiveIndex,
        "hit_inst" => RtQuery::HitInstanceIndex,
        "hit_custom" => RtQuery::HitInstanceCustomIndex,
        "hit_normal" => RtQuery::HitWorldNormal(dim),
        "chit_shader" => RtQuery::ClosestHitShaderId,
        "isect_count" => RtQuery::IntersectionCount,
        "ray_origin" => RtQuery::RayOrigin(dim),
        "ray_dir" => RtQuery::RayDirection(dim),
        "ray_tmin" => RtQuery::RayTMin,
        "depth" => RtQuery::RecursionDepth,
        _ => return None,
    })
}

fn idx_query(q: RtIdxQuery) -> &'static str {
    match q {
        RtIdxQuery::IntersectionShaderId => "isect_shader",
        RtIdxQuery::IntersectionPrimitiveIndex => "isect_prim",
        RtIdxQuery::IntersectionInstanceCustomIndex => "isect_custom",
        RtIdxQuery::IntersectionInstanceIndex => "isect_inst",
        RtIdxQuery::IntersectionTEnter => "isect_t",
    }
}

fn parse_idx_query(s: &str) -> Option<RtIdxQuery> {
    Some(match s {
        "isect_shader" => RtIdxQuery::IntersectionShaderId,
        "isect_prim" => RtIdxQuery::IntersectionPrimitiveIndex,
        "isect_custom" => RtIdxQuery::IntersectionInstanceCustomIndex,
        "isect_inst" => RtIdxQuery::IntersectionInstanceIndex,
        "isect_t" => RtIdxQuery::IntersectionTEnter,
        _ => return None,
    })
}

/// Renders one instruction (PTX-flavoured mnemonics).
pub fn format_instr(i: &Instr) -> String {
    use Instr::*;
    let r = |r: Reg| format!("r{}", r.0);
    let p = |p: Pred| format!("p{}", p.0);
    match *i {
        MovImm { dst, imm } => format!("mov.b32 {}, 0x{imm:08x}", r(dst)),
        Mov { dst, src } => format!("mov {}, {}", r(dst), r(src)),
        IAdd { dst, a, b } => format!("add.u32 {}, {}, {}", r(dst), r(a), r(b)),
        ISub { dst, a, b } => format!("sub.u32 {}, {}, {}", r(dst), r(a), r(b)),
        IMul { dst, a, b } => format!("mul.u32 {}, {}, {}", r(dst), r(a), r(b)),
        IMin { dst, a, b } => format!("min.u32 {}, {}, {}", r(dst), r(a), r(b)),
        IMax { dst, a, b } => format!("max.u32 {}, {}, {}", r(dst), r(a), r(b)),
        IAnd { dst, a, b } => format!("and.b32 {}, {}, {}", r(dst), r(a), r(b)),
        IOr { dst, a, b } => format!("or.b32 {}, {}, {}", r(dst), r(a), r(b)),
        IXor { dst, a, b } => format!("xor.b32 {}, {}, {}", r(dst), r(a), r(b)),
        IShl { dst, a, b } => format!("shl.b32 {}, {}, {}", r(dst), r(a), r(b)),
        IShr { dst, a, b } => format!("shr.b32 {}, {}, {}", r(dst), r(a), r(b)),
        FAdd { dst, a, b } => format!("add.f32 {}, {}, {}", r(dst), r(a), r(b)),
        FSub { dst, a, b } => format!("sub.f32 {}, {}, {}", r(dst), r(a), r(b)),
        FMul { dst, a, b } => format!("mul.f32 {}, {}, {}", r(dst), r(a), r(b)),
        FDiv { dst, a, b } => format!("div.f32 {}, {}, {}", r(dst), r(a), r(b)),
        FFma { dst, a, b, c } => format!("fma.f32 {}, {}, {}, {}", r(dst), r(a), r(b), r(c)),
        FMin { dst, a, b } => format!("min.f32 {}, {}, {}", r(dst), r(a), r(b)),
        FMax { dst, a, b } => format!("max.f32 {}, {}, {}", r(dst), r(a), r(b)),
        FNeg { dst, a } => format!("neg.f32 {}, {}", r(dst), r(a)),
        FAbs { dst, a } => format!("abs.f32 {}, {}", r(dst), r(a)),
        FSqrt { dst, a } => format!("sqrt.f32 {}, {}", r(dst), r(a)),
        FRsqrt { dst, a } => format!("rsqrt.f32 {}, {}", r(dst), r(a)),
        FSin { dst, a } => format!("sin.f32 {}, {}", r(dst), r(a)),
        FCos { dst, a } => format!("cos.f32 {}, {}", r(dst), r(a)),
        FFloor { dst, a } => format!("floor.f32 {}, {}", r(dst), r(a)),
        CvtF2I { dst, a } => format!("cvt.s32.f32 {}, {}", r(dst), r(a)),
        CvtI2F { dst, a } => format!("cvt.f32.s32 {}, {}", r(dst), r(a)),
        CvtU2F { dst, a } => format!("cvt.f32.u32 {}, {}", r(dst), r(a)),
        SetpF { dst, cmp: c, a, b } => {
            format!("setp.{}.f32 {}, {}, {}", cmp(c), p(dst), r(a), r(b))
        }
        SetpI { dst, cmp: c, a, b } => {
            format!("setp.{}.u32 {}, {}, {}", cmp(c), p(dst), r(a), r(b))
        }
        SetpS { dst, cmp: c, a, b } => {
            format!("setp.{}.s32 {}, {}, {}", cmp(c), p(dst), r(a), r(b))
        }
        PredAnd { dst, a, b } => format!("and.pred {}, {}, {}", p(dst), p(a), p(b)),
        PredNot { dst, a } => format!("not.pred {}, {}", p(dst), p(a)),
        Sel { dst, cond, a, b } => format!("selp {}, {}, {}, {}", r(dst), r(a), r(b), p(cond)),
        Bra { target, pred: None } => format!("bra {target}"),
        Bra {
            target,
            pred: Some((pr, exp)),
        } => {
            format!("@{}{} bra {target}", if exp { "" } else { "!" }, p(pr))
        }
        Ssy { reconv } => format!("ssy {reconv}"),
        Sync => "sync".into(),
        Ld {
            dst,
            space: s,
            addr,
            offset,
        } => {
            format!("ld.{} {}, [{}+{offset}]", space(s), r(dst), r(addr))
        }
        St {
            src,
            space: s,
            addr,
            offset,
        } => {
            format!("st.{} [{}+{offset}], {}", space(s), r(addr), r(src))
        }
        TraverseAs {
            origin,
            dir,
            tmin,
            tmax,
            flags,
        } => format!(
            "traverseAS {}, {}, {}, {}, {}, {}, {}, {}, {}",
            r(origin[0]),
            r(origin[1]),
            r(origin[2]),
            r(dir[0]),
            r(dir[1]),
            r(dir[2]),
            r(tmin),
            r(tmax),
            r(flags)
        ),
        EndTraceRay => "endTraceRay".into(),
        RtAllocMem { dst, size } => format!("rt_alloc_mem {}, {size}", r(dst)),
        RtRead { dst, query } => format!("rt_read {}, {}", r(dst), rt_query(query)),
        RtReadIdx { dst, query, idx } => {
            format!("rt_read_idx {}, {}, {}", r(dst), idx_query(query), r(idx))
        }
        IntersectionValid { dst, idx } => format!("intersectionExit {}, {}", p(dst), r(idx)),
        NextCoalescedCall { dst, idx } => format!("getNextCoalescedCall {}, {}", r(dst), r(idx)),
        ReportIntersection { t, idx } => format!("reportIntersection {}, {}", r(t), r(idx)),
        Exit => "exit".into(),
    }
}

/// Errors from [`assemble`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses text produced by [`disassemble`] back into a [`Program`].
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line on malformed input,
/// including an operand register or predicate beyond the `.program`
/// header's `regs=` / `preds=` counts (each thread's register files are
/// sized from them).
pub fn assemble(text: &str) -> Result<Program, ParseError> {
    let mut instrs: Vec<(usize, Instr)> = Vec::new();
    let mut num_regs = 0u16;
    let mut num_preds = 0u16;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with("//") {
            continue;
        }
        let err = |m: &str| ParseError {
            line: lineno + 1,
            message: m.to_string(),
        };
        if let Some(rest) = line.strip_prefix(".program") {
            for tok in rest.split_whitespace() {
                if let Some(v) = tok.strip_prefix("regs=") {
                    num_regs = v.parse().map_err(|_| err("bad regs count"))?;
                } else if let Some(v) = tok.strip_prefix("preds=") {
                    num_preds = v.parse().map_err(|_| err("bad preds count"))?;
                }
            }
            continue;
        }
        // Strip the "  pc:" prefix if present.
        let body = match line.split_once(": ") {
            Some((pc, rest)) if pc.trim().chars().all(|c| c.is_ascii_digit()) => rest,
            _ => line,
        };
        let instr = parse_instr(body).ok_or_else(|| err(&format!("bad instruction: {body}")))?;
        instrs.push((lineno + 1, instr));
    }
    for &(line, instr) in &instrs {
        let (regs, preds) = instr.operands();
        let message = if let Some(r) = regs.iter().find(|r| r.0 >= num_regs) {
            format!("register r{} beyond the declared regs={num_regs}", r.0)
        } else if let Some(p) = preds.iter().find(|p| p.0 >= num_preds) {
            format!("predicate p{} beyond the declared preds={num_preds}", p.0)
        } else {
            continue;
        };
        return Err(ParseError { line, message });
    }
    // Rebuild through the builder to preserve Program's invariants.
    let mut b = crate::program::ProgramBuilder::new();
    for _ in 0..num_regs {
        b.reg();
    }
    for _ in 0..num_preds {
        b.pred();
    }
    for &(_, i) in &instrs {
        b.emit(i);
    }
    Ok(b.build())
}

fn reg(s: &str) -> Option<Reg> {
    s.trim().strip_prefix('r')?.parse().ok().map(Reg)
}

fn pred(s: &str) -> Option<Pred> {
    s.trim().strip_prefix('p')?.parse().ok().map(Pred)
}

fn parse_cmp(s: &str) -> Option<CmpOp> {
    Some(match s {
        "eq" => CmpOp::Eq,
        "ne" => CmpOp::Ne,
        "lt" => CmpOp::Lt,
        "le" => CmpOp::Le,
        "gt" => CmpOp::Gt,
        "ge" => CmpOp::Ge,
        _ => return None,
    })
}

fn parse_space(s: &str) -> Option<MemSpace> {
    Some(match s {
        "global" => MemSpace::Global,
        "local" => MemSpace::Local,
        "const" => MemSpace::Const,
        _ => return None,
    })
}

fn parse_instr(body: &str) -> Option<Instr> {
    use Instr::*;
    // Predicated branch: "@p0 bra N" / "@!p0 bra N".
    if let Some(rest) = body.strip_prefix('@') {
        let (guard, tail) = rest.split_once(' ')?;
        let (expect, pname) = match guard.strip_prefix('!') {
            Some(g) => (false, g),
            None => (true, guard),
        };
        let target = tail.strip_prefix("bra ")?.trim().parse().ok()?;
        return Some(Bra {
            target,
            pred: Some((pred(pname)?, expect)),
        });
    }
    let (mnemonic, args) = match body.split_once(' ') {
        Some((m, a)) => (m, a.trim()),
        None => (body, ""),
    };
    let ops: Vec<&str> = args.split(',').map(|s| s.trim()).collect();
    let r3 = |k: fn(Reg, Reg, Reg) -> Instr| -> Option<Instr> {
        Some(k(reg(ops.first()?)?, reg(ops.get(1)?)?, reg(ops.get(2)?)?))
    };
    let r2 = |k: fn(Reg, Reg) -> Instr| -> Option<Instr> {
        Some(k(reg(ops.first()?)?, reg(ops.get(1)?)?))
    };
    Some(match mnemonic {
        "mov.b32" => MovImm {
            dst: reg(ops.first()?)?,
            imm: u32::from_str_radix(ops.get(1)?.strip_prefix("0x")?, 16).ok()?,
        },
        "mov" => r2(|dst, src| Mov { dst, src })?,
        "add.u32" => r3(|dst, a, b| IAdd { dst, a, b })?,
        "sub.u32" => r3(|dst, a, b| ISub { dst, a, b })?,
        "mul.u32" => r3(|dst, a, b| IMul { dst, a, b })?,
        "min.u32" => r3(|dst, a, b| IMin { dst, a, b })?,
        "max.u32" => r3(|dst, a, b| IMax { dst, a, b })?,
        "and.b32" => r3(|dst, a, b| IAnd { dst, a, b })?,
        "or.b32" => r3(|dst, a, b| IOr { dst, a, b })?,
        "xor.b32" => r3(|dst, a, b| IXor { dst, a, b })?,
        "shl.b32" => r3(|dst, a, b| IShl { dst, a, b })?,
        "shr.b32" => r3(|dst, a, b| IShr { dst, a, b })?,
        "add.f32" => r3(|dst, a, b| FAdd { dst, a, b })?,
        "sub.f32" => r3(|dst, a, b| FSub { dst, a, b })?,
        "mul.f32" => r3(|dst, a, b| FMul { dst, a, b })?,
        "div.f32" => r3(|dst, a, b| FDiv { dst, a, b })?,
        "min.f32" => r3(|dst, a, b| FMin { dst, a, b })?,
        "max.f32" => r3(|dst, a, b| FMax { dst, a, b })?,
        "fma.f32" => FFma {
            dst: reg(ops.first()?)?,
            a: reg(ops.get(1)?)?,
            b: reg(ops.get(2)?)?,
            c: reg(ops.get(3)?)?,
        },
        "neg.f32" => r2(|dst, a| FNeg { dst, a })?,
        "abs.f32" => r2(|dst, a| FAbs { dst, a })?,
        "sqrt.f32" => r2(|dst, a| FSqrt { dst, a })?,
        "rsqrt.f32" => r2(|dst, a| FRsqrt { dst, a })?,
        "sin.f32" => r2(|dst, a| FSin { dst, a })?,
        "cos.f32" => r2(|dst, a| FCos { dst, a })?,
        "floor.f32" => r2(|dst, a| FFloor { dst, a })?,
        "cvt.s32.f32" => r2(|dst, a| CvtF2I { dst, a })?,
        "cvt.f32.s32" => r2(|dst, a| CvtI2F { dst, a })?,
        "cvt.f32.u32" => r2(|dst, a| CvtU2F { dst, a })?,
        "and.pred" => PredAnd {
            dst: pred(ops.first()?)?,
            a: pred(ops.get(1)?)?,
            b: pred(ops.get(2)?)?,
        },
        "not.pred" => PredNot {
            dst: pred(ops.first()?)?,
            a: pred(ops.get(1)?)?,
        },
        "selp" => Sel {
            dst: reg(ops.first()?)?,
            a: reg(ops.get(1)?)?,
            b: reg(ops.get(2)?)?,
            cond: pred(ops.get(3)?)?,
        },
        "bra" => Bra {
            target: args.trim().parse().ok()?,
            pred: None,
        },
        "ssy" => Ssy {
            reconv: args.trim().parse().ok()?,
        },
        "sync" => Sync,
        "exit" => Exit,
        "endTraceRay" => EndTraceRay,
        "rt_alloc_mem" => RtAllocMem {
            dst: reg(ops.first()?)?,
            size: ops.get(1)?.parse().ok()?,
        },
        "rt_read" => RtRead {
            dst: reg(ops.first()?)?,
            query: parse_rt_query(ops.get(1)?)?,
        },
        "rt_read_idx" => RtReadIdx {
            dst: reg(ops.first()?)?,
            query: parse_idx_query(ops.get(1)?)?,
            idx: reg(ops.get(2)?)?,
        },
        "intersectionExit" => IntersectionValid {
            dst: pred(ops.first()?)?,
            idx: reg(ops.get(1)?)?,
        },
        "getNextCoalescedCall" => NextCoalescedCall {
            dst: reg(ops.first()?)?,
            idx: reg(ops.get(1)?)?,
        },
        "reportIntersection" => ReportIntersection {
            t: reg(ops.first()?)?,
            idx: reg(ops.get(1)?)?,
        },
        "traverseAS" => TraverseAs {
            origin: [reg(ops.first()?)?, reg(ops.get(1)?)?, reg(ops.get(2)?)?],
            dir: [reg(ops.get(3)?)?, reg(ops.get(4)?)?, reg(ops.get(5)?)?],
            tmin: reg(ops.get(6)?)?,
            tmax: reg(ops.get(7)?)?,
            flags: reg(ops.get(8)?)?,
        },
        m if m.starts_with("setp.") => {
            let mut parts = m.split('.');
            parts.next(); // setp
            let c = parse_cmp(parts.next()?)?;
            let ty = parts.next()?;
            let dst = pred(ops.first()?)?;
            let a = reg(ops.get(1)?)?;
            let b = reg(ops.get(2)?)?;
            match ty {
                "f32" => SetpF { dst, cmp: c, a, b },
                "u32" => SetpI { dst, cmp: c, a, b },
                "s32" => SetpS { dst, cmp: c, a, b },
                _ => return None,
            }
        }
        m if m.starts_with("ld.") => {
            let s = parse_space(m.strip_prefix("ld.")?)?;
            let dst = reg(ops.first()?)?;
            let mem = ops.get(1)?.trim_start_matches('[').trim_end_matches(']');
            let (a, off) = mem.split_once('+')?;
            Ld {
                dst,
                space: s,
                addr: reg(a)?,
                offset: off.parse().ok()?,
            }
        }
        m if m.starts_with("st.") => {
            let s = parse_space(m.strip_prefix("st.")?)?;
            let mem = ops.first()?.trim_start_matches('[').trim_end_matches(']');
            let (a, off) = mem.split_once('+')?;
            St {
                src: reg(ops.get(1)?)?,
                space: s,
                addr: reg(a)?,
                offset: off.parse().ok()?,
            }
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    fn sample_program() -> Program {
        let mut b = ProgramBuilder::new();
        let [a, c, d] = b.regs::<3>();
        let p0 = b.pred();
        b.mov_imm_f32(a, 2.5);
        b.mov_imm_u32(c, 7);
        b.fadd(d, a, a);
        b.emit(Instr::FFma {
            dst: d,
            a,
            b: c,
            c: d,
        });
        b.setp_f(p0, CmpOp::Lt, a, d);
        let l = b.new_label();
        b.bra_if(l, p0, false);
        b.emit(Instr::Ld {
            dst: d,
            space: MemSpace::Global,
            addr: c,
            offset: -8,
        });
        b.emit(Instr::St {
            src: d,
            space: MemSpace::Local,
            addr: c,
            offset: 16,
        });
        b.bind_label(l);
        b.sync();
        b.emit(Instr::RtRead {
            dst: a,
            query: RtQuery::HitWorldNormal(2),
        });
        b.emit(Instr::RtReadIdx {
            dst: a,
            query: RtIdxQuery::IntersectionShaderId,
            idx: c,
        });
        b.emit(Instr::TraverseAs {
            origin: [a, c, d],
            dir: [a, c, d],
            tmin: a,
            tmax: c,
            flags: d,
        });
        b.emit(Instr::EndTraceRay);
        b.exit();
        b.build()
    }

    #[test]
    fn disassemble_produces_one_line_per_instruction() {
        let p = sample_program();
        let text = disassemble(&p);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), p.len() + 1); // header + instructions
        assert!(lines[0].starts_with(".program"));
        assert!(text.contains("traverseAS"));
        assert!(text.contains("fma.f32"));
        assert!(text.contains("@!p0 bra"));
    }

    #[test]
    fn round_trip_preserves_program() {
        let p = sample_program();
        let q = assemble(&disassemble(&p)).expect("assemble");
        assert_eq!(p.instrs(), q.instrs());
        assert_eq!(p.num_regs(), q.num_regs());
        assert_eq!(p.num_preds(), q.num_preds());
    }

    #[test]
    fn round_trip_every_simple_opcode() {
        let r0 = Reg(0);
        let r1 = Reg(1);
        let p0 = Pred(0);
        let all = vec![
            Instr::MovImm {
                dst: r0,
                imm: 0xDEADBEEF,
            },
            Instr::Mov { dst: r0, src: r1 },
            Instr::IAdd {
                dst: r0,
                a: r0,
                b: r1,
            },
            Instr::ISub {
                dst: r0,
                a: r0,
                b: r1,
            },
            Instr::IMul {
                dst: r0,
                a: r0,
                b: r1,
            },
            Instr::IMin {
                dst: r0,
                a: r0,
                b: r1,
            },
            Instr::IMax {
                dst: r0,
                a: r0,
                b: r1,
            },
            Instr::IAnd {
                dst: r0,
                a: r0,
                b: r1,
            },
            Instr::IOr {
                dst: r0,
                a: r0,
                b: r1,
            },
            Instr::IXor {
                dst: r0,
                a: r0,
                b: r1,
            },
            Instr::IShl {
                dst: r0,
                a: r0,
                b: r1,
            },
            Instr::IShr {
                dst: r0,
                a: r0,
                b: r1,
            },
            Instr::FAdd {
                dst: r0,
                a: r0,
                b: r1,
            },
            Instr::FSub {
                dst: r0,
                a: r0,
                b: r1,
            },
            Instr::FMul {
                dst: r0,
                a: r0,
                b: r1,
            },
            Instr::FDiv {
                dst: r0,
                a: r0,
                b: r1,
            },
            Instr::FMin {
                dst: r0,
                a: r0,
                b: r1,
            },
            Instr::FMax {
                dst: r0,
                a: r0,
                b: r1,
            },
            Instr::FNeg { dst: r0, a: r1 },
            Instr::FAbs { dst: r0, a: r1 },
            Instr::FSqrt { dst: r0, a: r1 },
            Instr::FRsqrt { dst: r0, a: r1 },
            Instr::FSin { dst: r0, a: r1 },
            Instr::FCos { dst: r0, a: r1 },
            Instr::FFloor { dst: r0, a: r1 },
            Instr::CvtF2I { dst: r0, a: r1 },
            Instr::CvtI2F { dst: r0, a: r1 },
            Instr::CvtU2F { dst: r0, a: r1 },
            Instr::SetpF {
                dst: p0,
                cmp: CmpOp::Ge,
                a: r0,
                b: r1,
            },
            Instr::SetpI {
                dst: p0,
                cmp: CmpOp::Ne,
                a: r0,
                b: r1,
            },
            Instr::SetpS {
                dst: p0,
                cmp: CmpOp::Le,
                a: r0,
                b: r1,
            },
            Instr::PredAnd {
                dst: p0,
                a: p0,
                b: p0,
            },
            Instr::PredNot { dst: p0, a: p0 },
            Instr::Sel {
                dst: r0,
                cond: p0,
                a: r0,
                b: r1,
            },
            Instr::Bra {
                target: 3,
                pred: None,
            },
            Instr::Bra {
                target: 4,
                pred: Some((p0, true)),
            },
            Instr::Ssy { reconv: 9 },
            Instr::Sync,
            Instr::Ld {
                dst: r0,
                space: MemSpace::Const,
                addr: r1,
                offset: 4,
            },
            Instr::St {
                src: r0,
                space: MemSpace::Global,
                addr: r1,
                offset: 0,
            },
            Instr::RtAllocMem { dst: r0, size: 128 },
            Instr::IntersectionValid { dst: p0, idx: r1 },
            Instr::NextCoalescedCall { dst: r0, idx: r1 },
            Instr::ReportIntersection { t: r0, idx: r1 },
            Instr::EndTraceRay,
            Instr::Exit,
        ];
        for i in all {
            let text = format_instr(&i);
            let parsed =
                parse_instr(&text).unwrap_or_else(|| panic!("failed to parse back: {text}"));
            assert_eq!(parsed, i, "round trip of `{text}`");
        }
    }

    #[test]
    fn round_trip_all_rt_queries() {
        for q in [
            RtQuery::LaunchId(2),
            RtQuery::LaunchSize(1),
            RtQuery::HitKind,
            RtQuery::HitT,
            RtQuery::HitU,
            RtQuery::HitV,
            RtQuery::HitPrimitiveIndex,
            RtQuery::HitInstanceIndex,
            RtQuery::HitInstanceCustomIndex,
            RtQuery::HitWorldNormal(1),
            RtQuery::ClosestHitShaderId,
            RtQuery::IntersectionCount,
            RtQuery::RayOrigin(0),
            RtQuery::RayDirection(2),
            RtQuery::RayTMin,
            RtQuery::RecursionDepth,
        ] {
            let i = Instr::RtRead {
                dst: Reg(5),
                query: q,
            };
            assert_eq!(parse_instr(&format_instr(&i)), Some(i));
        }
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = assemble(".program regs=2 preds=1\n0: bogus r0, r1\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("bogus"));
    }

    #[test]
    fn undeclared_operands_are_parse_errors() {
        let err = assemble(".program regs=2 preds=1\n0: mov r0, r1\n1: add.u32 r0, r1, r28\n")
            .unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("r28"), "{}", err.message);
        let err = assemble(".program regs=2 preds=1\n0: @p1 bra 0\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("p1"), "{}", err.message);
        // No header declares nothing.
        assert!(assemble("0: mov r0, r0\n").is_err());
        // A header after the body still declares for every line.
        assert!(assemble("0: mov r0, r1\n.program regs=2 preds=0\n").is_ok());
        // One fewer register or predicate than the sample uses is refused.
        let text = disassemble(&sample_program());
        assert!(text.starts_with(".program regs=3 preds=1\n"));
        assert!(assemble(&text.replacen("regs=3", "regs=2", 1)).is_err());
        assert!(assemble(&text.replacen("preds=1", "preds=0", 1)).is_err());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = ".program regs=1 preds=1\n// a comment\n\n0: exit\n";
        let p = assemble(text).unwrap();
        assert_eq!(p.len(), 1);
    }
}
