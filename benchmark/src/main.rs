//! The repo benchmark: host speed, memory and accuracy of the simulator on
//! four regime-separating workloads, with an outside-in per-layer trace.
//! See `README.md` beside this package and `BENCHMARK.json` at the repo
//! root.
//!
//! ```text
//! bench --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--all-metrics]   one run; result JSON on the last line
//! bench [--seed N] [--out FILE] [--runs R] [--seconds S] [--quick]                   every workload, then its traced pass
//! bench compare A.json B.json                                        verdict per (workload, metric)
//! bench spec                                                         prints BENCHMARK.json
//! ```

mod compare;
mod layers;
mod span;
mod spec;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use vksim_testkit::json::{escape, parse_json, JsonValue};
use workloads::{Def, Tally};

/// Parsed command line of the run modes.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    /// Carry the timing-only end-to-end metrics in the result line too (the
    /// all-workloads mode asks its children for them; the driver's contract
    /// is exactly the metrics of `BENCHMARK.json`).
    all_metrics: bool,
    out: Option<String>,
    runs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        all_metrics: false,
        out: None,
        runs: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => {
                parsed.quick = true;
                continue;
            }
            "--all-metrics" => {
                parsed.all_metrics = true;
                continue;
            }
            _ => {}
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => parsed.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--out" => parsed.out = Some(value.clone()),
            "--runs" => parsed.runs = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if parsed.runs == 0 || !parsed.seconds.is_finite() || parsed.seconds < 0.0 {
        return Err("--runs must be at least 1 and --seconds non-negative".into());
    }
    Ok(parsed)
}

/// `VKSIM_THREADS`, `VKSIM_TRACE`, `VKSIM_PROF`, `VKSIM_CHECKPOINT_EVERY`
/// and friends silently change a run; none may leak in from the caller.
fn clear_simulator_env() {
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("VKSIM_") {
            std::env::remove_var(name);
        }
    }
}

/// The benchmark's own directory (`run.sh` exports it).
fn bench_dir() -> PathBuf {
    std::env::var_os("BENCH_DIR").map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

/// A JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Where the traced run of a workload writes its spans.
fn trace_path(def: &Def) -> PathBuf {
    bench_dir()
        .join("out")
        .join(format!("trace-{}.json", def.name))
}

/// One run of one workload: prints every metric by name with its unit,
/// then the result object as the last line. Exits non-zero if an
/// operation failed.
fn run_one(def: &Def, args: &Args) -> ExitCode {
    println!(
        "workload {} seed {} seconds {} trace {} (closed loop, one client; simulated statistics start with cold modelled caches)",
        def.name, args.seed, args.seconds, u8::from(args.trace)
    );
    let mut tally = Tally::default();
    let metrics = if args.trace {
        layers::run_traced(
            def,
            args.seed,
            args.seconds,
            args.quick,
            &mut tally,
            &trace_path(def),
        )
    } else {
        workloads::run_end_to_end(def, args.seed, args.seconds, args.quick, &mut tally)
    };
    let mut body = Vec::new();
    for &(name, value) in &metrics {
        let unit = spec::unit_of(name);
        println!("{name} {} {unit}", num(value));
        if args.all_metrics || !spec::timing_only(name) {
            body.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(value)
            ));
        }
    }
    println!(
        "operations attempted {} failed {}",
        tally.attempted, tally.failed
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs this binary on one workload in a child process (so `peak_rss_mb`
/// is per workload) and parses the result line.
fn run_child(def: &Def, args: &Args, seed: u64, trace: bool) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", def.name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    cmd.arg("--all-metrics");
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or("");
    let result = parse_json(last).map_err(|e| format!("{}: no result line: {e}", def.name))?;
    if !output.status.success() {
        eprintln!("{}: child exited with {}", def.name, output.status);
    }
    Ok(result)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn metric_values(results: &[JsonValue], name: &str) -> Vec<f64> {
    results
        .iter()
        .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
        .collect()
}

/// Every workload with tracing off (`--runs` times, seeds `seed..`), then
/// one traced pass each; writes the summary JSON.
fn run_all(args: &Args) -> ExitCode {
    let mut failed = 0u64;
    let mut sections = Vec::new();
    let mut wall_medians = Vec::new();
    for def in &workloads::DEFS {
        let mut plain = Vec::new();
        for i in 0..args.runs as u64 {
            match run_child(def, args, args.seed + i, false) {
                Ok(r) => plain.push(r),
                Err(e) => {
                    eprintln!("{e}");
                    failed += 1;
                }
            }
        }
        // Every workload's spans must be on disk afterwards, and fresh.
        std::fs::remove_file(trace_path(def)).ok();
        let traced = run_child(def, args, args.seed, true).unwrap_or_else(|e| {
            eprintln!("{e}");
            failed += 1;
            JsonValue::Null
        });
        let count = |key: &str| -> u64 {
            plain
                .iter()
                .chain([&traced])
                .filter_map(|r| r.get(key)?.as_u64())
                .sum()
        };
        failed += count("failed");
        let spans = std::fs::read_to_string(trace_path(def)).unwrap_or_default();
        if !spans.contains(&format!("\"workload\":\"{}\"", def.name)) {
            eprintln!("{}: no spans in {}", def.name, trace_path(def).display());
            failed += 1;
        }
        wall_medians.push(workloads::median(&metric_values(&plain, "wall_s")));
        let e2e: Vec<String> = spec::END_TO_END
            .iter()
            .filter(|m| !m.timing_only || def.mode == workloads::Mode::Timing)
            .map(|m| {
                let values = metric_values(&plain, m.name);
                format!(
                    "        \"{}\": {{\"unit\": \"{}\", \"median\": {}, \"values\": [{}]}}",
                    m.name,
                    m.unit,
                    num(workloads::median(&values)),
                    values
                        .iter()
                        .map(|&v| num(v))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })
            .collect();
        let layer: Vec<String> = spec::PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let value = metric_values(std::slice::from_ref(&traced), name)
                    .first()
                    .copied()
                    .filter(|&v| v != spec::NOT_APPLICABLE)
                    .map_or("null".into(), num);
                format!("        \"{name}\": {{\"unit\": \"{unit}\", \"value\": {value}}}")
            })
            .collect();
        sections.push(format!(
            "    \"{}\": {{\n      \"attempted\": {},\n      \"failed\": {},\n      \"end_to_end\": {{\n{}\n      }},\n      \"per_layer\": {{\n{}\n      }}\n    }}",
            def.name,
            count("attempted"),
            count("failed"),
            e2e.join(",\n"),
            layer.join(",\n")
        ));
    }
    // ROADMAP's keep-or-delete number for the parallel engine, from the two
    // workloads' `wall_s` medians (the traced run of `ext_paper_sm48_t2`
    // measures the same ratio within one process).
    let wall_of = |name: &str| {
        let i = workloads::DEFS.iter().position(|d| d.name == name);
        i.map_or(0.0, |i| wall_medians[i])
    };
    let (serial, threaded) = (wall_of("ext_paper_sm48"), wall_of("ext_paper_sm48_t2"));
    let t2_speedup = if threaded > 0.0 {
        serial / threaded
    } else {
        0.0
    };
    println!(
        "parallel.t2_speedup (wall_s medians) {} ratio = {} s / {} s",
        num(t2_speedup),
        num(serial),
        num(threaded)
    );
    let commit = command_line("git", &["rev-parse", "HEAD"]);
    let summary = format!(
        "{{\n  \"schema\": 1,\n  \"host\": {{\"nproc\": {}, \"rustc\": \"{}\", \"commit\": \"{}\"}},\n  \"seed\": {},\n  \"runs\": {},\n  \"seconds\": {},\n  \"quick\": {},\n  \"note\": \"closed loop, one client; simulated statistics start with cold modelled caches; the model is unvalidated against hardware (reference = the repo's CPU renderer)\",\n  \"workloads\": {{\n{}\n  }},\n  \"t2_speedup_from_wall_s\": {{\"value\": {}, \"serial_wall_s\": {}, \"threaded_wall_s\": {}}},\n  \"claim\": null\n}}\n",
        workloads::nproc(),
        escape(&command_line("rustc", &["-V"])),
        escape(&commit),
        args.seed,
        args.runs,
        num(args.seconds),
        args.quick,
        sections.join(",\n"),
        num(t2_speedup),
        num(serial),
        num(threaded)
    );
    let out = args.out.clone().map_or_else(
        || bench_dir().join("out").join("summary.json"),
        PathBuf::from,
    );
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).ok();
    }
    match std::fs::write(&out, &summary) {
        Ok(()) => println!(
            "summary written to {} (failed operations: {failed})",
            out.display()
        ),
        Err(e) => {
            eprintln!("cannot write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    clear_simulator_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            ExitCode::SUCCESS
        }
        Some("compare") => match args.as_slice() {
            [_, a, b] => compare::run(a, b),
            _ => {
                eprintln!("usage: bench compare A.json B.json");
                ExitCode::from(2)
            }
        },
        _ => {
            let parsed = match parse_args(&args) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            match &parsed.workload {
                None => run_all(&parsed),
                Some(name) => match Def::find(name) {
                    Some(def) => run_one(def, &parsed),
                    None => {
                        eprintln!("unknown workload {name}");
                        ExitCode::from(2)
                    }
                },
            }
        }
    }
}
