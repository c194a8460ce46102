//! Command line of the `e2e` binary.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     One run of one workload in this process; the last line of
//!     standard output is the result object the benchmark driver reads.
//! e2e --all [--seed <n>] [--repeat <k>] [--seconds <s>] [--out <file>]
//!     Every workload, each run in a child process of its own (so peak
//!     memory and allocator state are per workload): `k` untraced runs
//!     with seeds n, n+1, … and one traced run. Prints every metric
//!     and writes a report file for `--compare`.
//! e2e --smoke
//!     Every workload shrunk to finish in seconds, in this process;
//!     proves the harness end to end. Never written as a baseline.
//! e2e --compare <a.json> <b.json> [--benchmark <BENCHMARK.json>]
//!     Per workload × end-to-end metric: both medians, the delta, the
//!     bound and better / worse / within / unresolved.
//! ```

use crate::cpu::SteadyCpu;
use crate::json::Json;
use crate::report::{self, REPORT_SCHEMA};
use crate::run::{memory_pass, run, RunArgs, RunOutput};
use crate::spec::{find, specs, Spec};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Default length of a run's measured phase; `BENCHMARK.json`'s
/// `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 20.0;
/// Measured-phase length of `--smoke` runs.
const SMOKE_SECONDS: f64 = 0.1;
/// Where reports, traces and socket rendezvous files go, relative to
/// the working directory (git-ignored).
pub const OUT_DIR: &str = "bench_results";

/// Keep everything the harness writes inside the working directory:
/// the socket fabric rendezvouses under `std::env::temp_dir()`, so
/// point that at the output directory. The path stays relative —
/// UNIX socket paths are limited to about 100 bytes.
pub fn confine_scratch() -> std::io::Result<()> {
    let tmp = Path::new(OUT_DIR).join("tmp");
    std::fs::create_dir_all(&tmp)?;
    std::env::set_var("TMPDIR", &tmp);
    Ok(())
}

/// Every workload at smoke size, untraced then traced, in this
/// process.
pub fn smoke() -> Vec<RunOutput> {
    specs(true)
        .iter()
        .flat_map(|spec| {
            [false, true].map(|trace| {
                run(
                    spec,
                    &RunArgs {
                        seed: 1,
                        seconds: SMOKE_SECONDS,
                        trace,
                        out_dir: Path::new(OUT_DIR).join("smoke"),
                        memory_exe: None,
                    },
                )
            })
        })
        .collect()
}

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("bad value for {name}: {v}")))
            .transpose()
    }
}

fn one_run(args: &Args, workload: &str) -> Result<i32, String> {
    let spec = find(workload, false).ok_or_else(|| {
        let names: Vec<_> = specs(false).iter().map(|s| s.name).collect();
        format!("unknown workload `{workload}`; known: {}", names.join(", "))
    })?;
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    if args.flag("--memory-pass") {
        // Internal: the child process of an untraced run's memory pass.
        let (ok, mb) = memory_pass(&spec, seed);
        println!("{mb}");
        return Ok(if ok { 0 } else { 1 });
    }
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    let trace = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let mut env = vec![(
        "workload".to_string(),
        Json::Obj(report::workload_json(&spec)),
    )];
    if let Json::Obj(pairs) = report::environment(seed, seconds) {
        env.extend(pairs);
    }
    // Held until the run is over; see `cpu`.
    let steady = SteadyCpu::claim();
    if steady.cpu.is_none() || !steady.kept_awake {
        eprintln!("warning: could not confine the run to one CPU kept awake ({steady:?}); timings will be noisy");
    }
    env.push((
        "confined_to_cpu".to_string(),
        steady.cpu.map_or(Json::Null, |c| Json::Num(c as f64)),
    ));
    env.push(("cpu_kept_awake".to_string(), Json::Bool(steady.kept_awake)));
    println!("env: {}", Json::Obj(env));
    let out = run(
        &spec,
        &RunArgs {
            seed,
            seconds,
            trace,
            out_dir: PathBuf::from(OUT_DIR),
            memory_exe: Some(std::env::current_exe().map_err(|e| e.to_string())?),
        },
    );
    drop(steady);
    report::print_run(&out);
    println!("{}", report::result_line(&out));
    Ok(if out.correct { 0 } else { 1 })
}

/// Run `spec` in a child process of this executable; its result line,
/// parsed.
fn child_run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("could not start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Everything but the result line is the child's table.
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in lines.iter().filter(|l| !l.starts_with("env: ")) {
        println!("{l}");
    }
    let mut result = Json::parse(last)
        .map_err(|e| format!("{}: child printed no result line ({e})", spec.name))?;
    if let Json::Obj(pairs) = &mut result {
        pairs.insert(0, ("seed".to_string(), Json::Num(seed as f64)));
    }
    if !out.status.success() {
        eprintln!("{}: child run exited with {}", spec.name, out.status);
    }
    Ok(result)
}

fn all(args: &Args) -> Result<i32, String> {
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let repeat: u64 = args.parsed("--repeat")?.unwrap_or(1).max(1);
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let out_path = args
        .value("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(OUT_DIR).join(format!("e2e_{seed}.json")));
    let env = report::environment(seed, seconds);
    println!("env: {env}");
    let mut ok = true;
    let mut workloads = Vec::new();
    for spec in specs(false) {
        let mut pairs = report::workload_json(&spec);
        let mut untraced = Vec::new();
        for k in 0..repeat {
            untraced.push(child_run(&spec, seed + k, seconds, false)?);
        }
        let traced = child_run(&spec, seed, seconds, true)?;
        ok &= untraced
            .iter()
            .chain([&traced])
            .all(|r| r.get("correct") == Some(&Json::Bool(true)));
        pairs.push(("untraced".into(), Json::Arr(untraced)));
        pairs.push(("traced".into(), traced));
        workloads.push(Json::Obj(pairs));
    }
    let report = Json::obj([
        ("schema", Json::str(REPORT_SCHEMA)),
        ("env", env),
        ("workloads", Json::Arr(workloads)),
    ]);
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&out_path, report.pretty())
        .map_err(|e| format!("could not write {}: {e}", out_path.display()))?;
    println!("report: {}", out_path.display());
    Ok(if ok { 0 } else { 1 })
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare(args: &Args) -> Result<i32, String> {
    let i = args
        .0
        .iter()
        .position(|a| a == "--compare")
        .expect("flag present");
    let (Some(a), Some(b)) = (args.0.get(i + 1), args.0.get(i + 2)) else {
        return Err("--compare takes two report files".into());
    };
    let benchmark = read_json(args.value("--benchmark").unwrap_or("BENCHMARK.json"))?;
    let (table, any_worse) = report::compare(&read_json(a)?, &read_json(b)?, &benchmark)?;
    print!("{table}");
    Ok(if any_worse { 1 } else { 0 })
}

/// Entry point: the process exit code for these arguments.
pub fn main_with(argv: Vec<String>) -> i32 {
    let args = Args(argv);
    let result = if args.flag("--compare") {
        compare(&args)
    } else if let Err(e) = confine_scratch() {
        Err(format!("could not prepare {OUT_DIR}/tmp: {e}"))
    } else if args.flag("--smoke") {
        let outs = smoke();
        outs.iter().for_each(report::print_run);
        println!("smoke: sizes are shrunk; these numbers are not a baseline");
        Ok(if outs.iter().all(|o| o.correct) { 0 } else { 1 })
    } else if args.flag("--all") {
        all(&args)
    } else if let Some(workload) = args.value("--workload") {
        one_run(&args, workload)
    } else {
        Err("usage: e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> | --all | --smoke | --compare <a.json> <b.json>".into())
    };
    result.unwrap_or_else(|e| {
        eprintln!("e2e: {e}");
        2
    })
}
