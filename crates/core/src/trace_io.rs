//! Kernel trace dump/replay (the artifact's trace-runner workflow).
//!
//! The Vulkan-Sim artifact dumps the translated PTX shaders and launch
//! arguments of a `vkCmdTraceRaysKHR` call to files, which the standalone
//! *trace runner* replays on any machine without the Vulkan frontend
//! (paper Appendix E). This module reproduces that: [`dump_command`]
//! serializes a recorded [`TraceRaysCommand`] — the translated program in
//! textual assembly plus the launch arguments — and [`load_command`]
//! reconstructs it for replay against a scene device.
//!
//! # Example
//!
//! ```
//! use vksim_core::trace_io::{dump_command, load_command};
//! use vksim_scenes::{build, Scale, WorkloadKind};
//!
//! let w = build(WorkloadKind::Tri, Scale::Test);
//! let text = dump_command(&w.cmd);
//! let replayed = load_command(&text).unwrap();
//! assert_eq!(replayed.program, w.cmd.program);
//! assert_eq!(replayed.dims, w.cmd.dims);
//! ```

use vksim_isa::text::{assemble, disassemble, ParseError};
use vksim_vulkan::{LaunchSize, TraceRaysCommand};

/// Serializes a trace command: a `.launch` header followed by the
/// program's textual assembly.
pub fn dump_command(cmd: &TraceRaysCommand) -> String {
    format!(
        ".launch width={} height={} depth={} fcc={}\n{}",
        cmd.dims.width,
        cmd.dims.height,
        cmd.dims.depth,
        cmd.fcc as u8,
        disassemble(&cmd.program)
    )
}

/// Errors from [`load_command`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceLoadError {
    /// The `.launch` header is missing or malformed.
    BadHeader(String),
    /// The program body failed to assemble.
    Program(ParseError),
}

impl std::fmt::Display for TraceLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceLoadError::BadHeader(m) => write!(f, "bad trace header: {m}"),
            TraceLoadError::Program(e) => write!(f, "bad trace program: {e}"),
        }
    }
}

impl std::error::Error for TraceLoadError {}

/// Parses a dumped trace back into a replayable command.
///
/// # Errors
///
/// Returns [`TraceLoadError`] on malformed headers or programs.
pub fn load_command(text: &str) -> Result<TraceRaysCommand, TraceLoadError> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| TraceLoadError::BadHeader("empty trace".into()))?;
    let rest = header
        .strip_prefix(".launch")
        .ok_or_else(|| TraceLoadError::BadHeader(format!("expected .launch, got `{header}`")))?;
    let mut width = None;
    let mut height = None;
    let mut depth = None;
    let mut fcc = None;
    for tok in rest.split_whitespace() {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| TraceLoadError::BadHeader(format!("bad token `{tok}`")))?;
        let n: u32 = v
            .parse()
            .map_err(|_| TraceLoadError::BadHeader(format!("bad value `{tok}`")))?;
        match k {
            "width" => width = Some(n),
            "height" => height = Some(n),
            "depth" => depth = Some(n),
            "fcc" => fcc = Some(n != 0),
            other => return Err(TraceLoadError::BadHeader(format!("unknown key `{other}`"))),
        }
    }
    let body: String = lines.collect::<Vec<_>>().join("\n");
    let program = assemble(&body).map_err(TraceLoadError::Program)?;
    Ok(TraceRaysCommand {
        program,
        dims: LaunchSize {
            width: width.ok_or_else(|| TraceLoadError::BadHeader("missing width".into()))?,
            height: height.ok_or_else(|| TraceLoadError::BadHeader("missing height".into()))?,
            depth: depth.unwrap_or(1),
        },
        fcc: fcc.unwrap_or(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, Simulator};
    use vksim_scenes::{build, Scale, WorkloadKind};

    #[test]
    fn dump_load_roundtrip_all_workloads() {
        for kind in WorkloadKind::ALL {
            let w = build(kind, Scale::Test);
            let text = dump_command(&w.cmd);
            let loaded = load_command(&text).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(loaded.program, w.cmd.program, "{}", w.name);
            assert_eq!(loaded.dims, w.cmd.dims, "{}", w.name);
            assert_eq!(loaded.fcc, w.cmd.fcc, "{}", w.name);
        }
    }

    #[test]
    fn replayed_trace_renders_identical_image() {
        let w = build(WorkloadKind::Tri, Scale::Test);
        let replayed = load_command(&dump_command(&w.cmd)).unwrap();
        let mut sim = Simulator::new(SimConfig::test_small());
        let (orig_mem, _) = sim.run_functional(&w.device, &w.cmd).expect("healthy run");
        let (replay_mem, _) = sim
            .run_functional(&w.device, &replayed)
            .expect("healthy run");
        for i in 0..(w.width * w.height) as u64 {
            assert_eq!(
                orig_mem.read_u32(w.fb_addr + i * 4),
                replay_mem.read_u32(w.fb_addr + i * 4),
                "pixel {i}"
            );
        }
    }

    #[test]
    fn fcc_flag_survives_roundtrip() {
        let mut w = build(WorkloadKind::Rtv6, Scale::Test);
        let fcc_cmd = w.with_fcc(true);
        let loaded = load_command(&dump_command(&fcc_cmd)).unwrap();
        assert!(loaded.fcc);
    }

    #[test]
    fn undeclared_registers_fail_at_load() {
        let w = build(WorkloadKind::Tri, Scale::Test);
        let text = dump_command(&w.cmd);
        let header = text.lines().nth(1).expect("program header");
        assert!(header.starts_with(".program regs="), "{header}");
        match load_command(&text.replacen(header, ".program regs=2 preds=1", 1)) {
            Err(TraceLoadError::Program(e)) => {
                assert!(e.message.contains("regs=2"), "{e}");
                assert!(e.line > 1, "{e}");
            }
            other => panic!("expected a program error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_traces_are_rejected() {
        assert!(matches!(
            load_command(""),
            Err(TraceLoadError::BadHeader(_))
        ));
        assert!(matches!(
            load_command("not a trace\nexit"),
            Err(TraceLoadError::BadHeader(_))
        ));
        assert!(matches!(
            load_command(".launch width=4 height=4 depth=1 fcc=0\n0: bogus"),
            Err(TraceLoadError::Program(_))
        ));
        assert!(matches!(
            load_command(".launch height=4 depth=1 fcc=0\n0: exit"),
            Err(TraceLoadError::BadHeader(_))
        ));
    }
}
