//! What the ledger prints and writes: the driver's one-line result,
//! the human-readable table, the environment block, the multi-run
//! report file and the comparison of two such files.

use crate::catalog::{Better, END_TO_END};
use crate::json::Json;
use crate::numeric::{median, relative_spread};
use crate::run::RunOutput;
use crate::spec::Spec;
use std::process::Command;

/// Schema tag of report files.
pub const REPORT_SCHEMA: &str = "jsweep-e2e/1";

/// `{name: {value, unit}}` for a run's metrics.
pub fn metrics_json(out: &RunOutput) -> Json {
    Json::Obj(
        out.metrics
            .iter()
            .map(|m| {
                (
                    m.def.name.to_string(),
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.def.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The single JSON object the benchmark driver reads from the last
/// line of standard output.
pub fn result_line(out: &RunOutput) -> Json {
    Json::obj([
        ("correct", Json::Bool(out.correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics_json(out)),
    ])
}

/// Print a run for a human: every metric by name with value, unit and
/// direction, then sample counts and (traced) self time per layer.
pub fn print_run(out: &RunOutput) {
    println!(
        "== {} ({}) ops_failed {} of ops_total {}",
        out.workload,
        if out.trace {
            "traced: per-layer"
        } else {
            "untraced: end-to-end"
        },
        out.failed,
        out.attempted
    );
    for m in &out.metrics {
        println!(
            "  {:<42} {:>16.6} {:<6} {} is better",
            m.def.name,
            m.value,
            m.def.unit,
            m.def.better.word()
        );
    }
    for (k, v) in &out.notes {
        println!("  [{k} = {v}]");
    }
    if out.trace {
        let layers: Vec<String> = out
            .layer_self_ms
            .iter()
            .map(|(l, ms)| format!("{l} {ms:.1}"))
            .collect();
        println!("  [span self time by layer, ms: {}]", layers.join(", "));
        if let Some(p) = &out.trace_file {
            println!("  [trace: {}]", p.display());
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn load_average_1min() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The environment block: what a reader needs to judge whether two
/// sets of numbers are comparable. The load average counts the
/// previous run's keep-awake thread for a minute after it ended, so it
/// is recorded, not judged.
pub fn environment(seed: u64, seconds: f64) -> Json {
    let nproc = nproc();
    let load = load_average_1min();
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("load_average_1min", load.map_or(Json::Null, Json::Num)),
        (
            "rustc",
            command_line("rustc", &["--version"]).map_or(Json::Null, Json::Str),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug (numbers are not comparable with release runs)"
            } else {
                "release, lto=fat, codegen-units=1"
            }),
        ),
        (
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"]).map_or(Json::str("unknown"), Json::Str),
        ),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
    ])
}

/// A workload's fixed configuration, for reports.
pub fn workload_json(spec: &Spec) -> Vec<(String, Json)> {
    let threads = spec.runtime_threads();
    vec![
        ("name".into(), Json::str(spec.name)),
        ("why".into(), Json::str(spec.why)),
        ("ranks".into(), Json::Num(spec.ranks as f64)),
        ("workers_per_rank".into(), Json::Num(spec.workers as f64)),
        ("runtime_threads".into(), Json::Num(threads as f64)),
    ]
}

/// The values of `metric` over a report workload's untraced runs.
fn untraced_values(workload: &Json, metric: &str) -> Vec<f64> {
    workload
        .get("untraced")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// The verdict on one workload × end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` beats `a` by more than the bound.
    Better,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// The medians differ by no more than the bound.
    Within,
    /// Run-to-run spread of either side is wider than the bound: the
    /// data cannot say.
    Unresolved,
}

/// Judge `b` against `a` for a metric with direction `better` and
/// regression bound `bound` (a share of `a`'s median).
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let spread = |xs: &[f64]| relative_spread(xs).unwrap_or(0.0);
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    // Positive = b is worse, as a share of a.
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Compare two report files: per workload × end-to-end metric, both
/// medians, the delta with its base, the bound `BENCHMARK.json` fixes
/// and the verdict. Returns the printed table and whether any row is
/// `Worse`.
pub fn compare(a: &Json, b: &Json, benchmark: &Json) -> Result<(String, bool), String> {
    use std::fmt::Write as _;
    let bounds: Vec<(&str, f64)> = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?, m.get("bound")?.as_f64()?)))
        .collect();
    let workloads = |r: &Json| -> Result<Vec<Json>, String> {
        if r.get("schema").and_then(Json::as_str) != Some(REPORT_SCHEMA) {
            return Err(format!("not a {REPORT_SCHEMA} report"));
        }
        Ok(r.get("workloads")
            .and_then(Json::as_arr)
            .ok_or("report has no workloads")?
            .to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut text = String::new();
    let mut any_worse = false;
    writeln!(
        text,
        "{:<24} {:<24} {:>14} {:>14} {:>22} {:>6}  verdict",
        "workload", "metric", "median a", "median b", "delta (b-a)/a", "bound"
    )
    .expect("write to String");
    for w in &wa {
        let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(other) = wb
            .iter()
            .find(|x| x.get("name").and_then(Json::as_str) == Some(name))
        else {
            writeln!(text, "{name:<24} missing from the second report").expect("write to String");
            continue;
        };
        for def in END_TO_END {
            let (va, vb) = (
                untraced_values(w, def.name),
                untraced_values(other, def.name),
            );
            if va.is_empty() || vb.is_empty() {
                writeln!(text, "{name:<24} {:<24} no data", def.name).expect("write to String");
                continue;
            }
            let bound = bounds
                .iter()
                .find(|(n, _)| *n == def.name)
                .map(|(_, b)| *b)
                .ok_or_else(|| format!("BENCHMARK.json fixes no bound for {}", def.name))?;
            let v = verdict(&va, &vb, def.better, bound);
            any_worse |= v == Verdict::Worse;
            let (ma, mb) = (median(&va), median(&vb));
            writeln!(
                text,
                "{name:<24} {:<24} {ma:>14.6} {mb:>14.6} {:>+12.2}% of {ma:<8.4} {:>5.0}%  {} ({} is better; n = {}, {})",
                def.name,
                (mb - ma) / ma * 100.0,
                bound * 100.0,
                match v {
                    Verdict::Better => "better",
                    Verdict::Worse => "worse",
                    Verdict::Within => "within",
                    Verdict::Unresolved => "unresolved",
                },
                def.better.word(),
                va.len(),
                vb.len(),
            )
            .expect("write to String");
        }
    }
    Ok((text, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            verdict(&a, &[10.2, 10.3, 10.1, 10.2], Better::Lower, 0.1),
            Verdict::Within
        );
        assert_eq!(
            verdict(&a, &[12.0, 12.1, 11.9, 12.0], Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &[8.0, 8.1, 7.9, 8.0], Better::Lower, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(&a, &[8.0, 8.1, 7.9, 8.0], Better::Higher, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &[8.0, 12.0, 6.0, 14.0], Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // A single run per side has no spread to speak of.
        assert_eq!(
            verdict(&[10.0], &[10.5], Better::Lower, 0.1),
            Verdict::Within
        );
    }
}
