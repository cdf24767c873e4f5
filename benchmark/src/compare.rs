//! `bench compare A.json B.json`: one row per (workload, end-to-end
//! metric) of two summaries written by the all-workloads mode, judged
//! against the bounds of `BENCHMARK.json`. A is the base of every ratio.

use crate::spec::{EndToEnd, END_TO_END, WORKLOADS};
use crate::workloads::{median, quartiles, Def, Mode};
use std::process::ExitCode;
use vksim_testkit::json::{parse_json, JsonValue};

/// Interquartile distance as a share of the median.
fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1).abs() / mid.abs())
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> (f64, f64, Option<f64>, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let spread = match (spread(a), spread(b)) {
        (Some(x), Some(y)) => Some(x.max(y)),
        _ => None,
    };
    let change = if ma != 0.0 { (mb - ma) / ma.abs() } else { 0.0 };
    let worse_by = if metric.better == "lower" {
        change
    } else {
        -change
    };
    let verdict = match spread {
        Some(s) if s > metric.bound => Verdict::Unresolved,
        _ if worse_by > metric.bound => Verdict::Regressed,
        // A gain counts only beyond the spread, so only when it is known.
        Some(s) if -worse_by > s => Verdict::Improved,
        _ => Verdict::Unchanged,
    };
    (ma, mb, spread, verdict)
}

fn values(doc: &JsonValue, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("workloads")
        .and_then(|w| {
            w.get(workload)?
                .get("end_to_end")?
                .get(metric)?
                .get("values")
        })
        .and_then(JsonValue::as_array)
        .map(|vs| vs.iter().filter_map(JsonValue::as_f64).collect())
        .unwrap_or_default()
}

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_json(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn run(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict (A = {a_path} is the base)",
        "workload", "metric", "A median", "B median", "B/A", "spread", "bound"
    );
    let mut bad = 0;
    for (workload, _) in WORKLOADS {
        let timing = Def::find(workload).is_some_and(|d| d.mode == Mode::Timing);
        for metric in END_TO_END.iter().filter(|m| timing || !m.timing_only) {
            let (va, vb) = (
                values(&a, workload, metric.name),
                values(&b, workload, metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<18} {:<16} missing in one summary", metric.name);
                bad += 1;
                continue;
            }
            let (ma, mb, spread, verdict) = judge(metric, &va, &vb);
            bad += u32::from(matches!(verdict, Verdict::Regressed | Verdict::Unresolved));
            println!(
                "{workload:<18} {:<16} {ma:>14.6} {mb:>14.6} {:>9.4} {:>8} {:>6}  {}",
                metric.name,
                if ma != 0.0 { mb / ma } else { 0.0 },
                spread.map_or("n/a".into(), |s| format!("{s:.4}")),
                metric.bound,
                format!("{verdict:?}").to_lowercase()
            );
        }
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WALL: EndToEnd = EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.10,
        timing_only: false,
    };
    const RATE: EndToEnd = EndToEnd {
        name: "rays_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.10,
        timing_only: false,
    };

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [1.00, 1.01, 0.99, 1.00];
        let slower = [1.20, 1.21, 1.19, 1.20];
        let faster = [0.80, 0.81, 0.79, 0.80];
        let noisy = [0.7, 1.3, 0.8, 1.2];
        assert_eq!(judge(&WALL, &steady, &slower).3, Verdict::Regressed);
        assert_eq!(judge(&WALL, &steady, &faster).3, Verdict::Improved);
        assert_eq!(judge(&WALL, &steady, &steady).3, Verdict::Unchanged);
        assert_eq!(judge(&WALL, &steady, &noisy).3, Verdict::Unresolved);
        // Higher-is-better flips the direction.
        assert_eq!(judge(&RATE, &steady, &slower).3, Verdict::Improved);
        assert_eq!(judge(&RATE, &steady, &faster).3, Verdict::Regressed);
        // One value a side: the spread is unknown, so no gain is claimed.
        assert_eq!(judge(&WALL, &[1.0], &[0.5]).3, Verdict::Unchanged);
        assert_eq!(judge(&WALL, &[1.0], &[1.5]).3, Verdict::Regressed);
    }
}
