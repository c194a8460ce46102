//! `BENCHMARK.json` and the harness must agree.
//!
//! Runs the smoke configuration in this process and checks that every
//! workload and metric `BENCHMARK.json` names comes out with the unit
//! and direction it states, that names and counts stay inside the
//! benchmark contract's limits, and that the result line and the trace
//! files have the shape their readers expect.

use jsweep_e2e::catalog::{MetricDef, END_TO_END, PER_LAYER};
use jsweep_e2e::cli::{confine_scratch, smoke, DEFAULT_SECONDS};
use jsweep_e2e::json::Json;
use jsweep_e2e::report::result_line;
use jsweep_e2e::spec::specs;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json above 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit, better)` of every metric `BENCHMARK.json` lists under
/// `key`.
fn listed_metrics(benchmark: &Json, key: &str) -> Vec<(String, String, String)> {
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
    benchmark
        .get(key)
        .and_then(Json::as_arr)
        .expect(key)
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect()
}

/// The same triple for a catalogue list.
fn catalogue_metrics(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| {
            (
                d.name.to_string(),
                d.unit.to_string(),
                d.better.word().to_string(),
            )
        })
        .collect()
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&s.len())
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(ok)
}

fn is_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn benchmark_json_matches_the_harness() {
    let bench = benchmark_json();
    let keys: Vec<&str> = bench
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_eq!(
        bench.get("run_seconds").and_then(Json::as_f64),
        Some(DEFAULT_SECONDS)
    );
    let command = bench
        .get("command")
        .and_then(Json::as_arr)
        .expect("command");
    assert!(command.len() <= 32);
    assert!(command.iter().all(|c| c
        .as_str()
        .is_some_and(|s| s.len() <= 200 && !s.starts_with('/'))));

    // Workloads: the same names and rationales the harness runs.
    let listed: Vec<(String, String)> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            assert_eq!(w.as_obj().expect("object").len(), 2, "workload keys");
            (
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                w.get("why")
                    .and_then(Json::as_str)
                    .expect("why")
                    .to_string(),
            )
        })
        .collect();
    assert!((2..=8).contains(&listed.len()));
    let ours: Vec<(String, String)> = specs(false)
        .iter()
        .map(|s| (s.name.to_string(), s.why.to_string()))
        .collect();
    assert_eq!(listed, ours, "BENCHMARK.json workloads vs spec::specs");
    for (name, why) in &listed {
        assert!(is_name(name), "workload name {name}");
        assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
    }
    assert_eq!(
        specs(true).iter().map(|s| s.name).collect::<Vec<_>>(),
        specs(false).iter().map(|s| s.name).collect::<Vec<_>>(),
        "smoke runs the same workloads"
    );

    // Metrics: names, units and directions as the catalogue has them.
    let e2e = listed_metrics(&bench, "end_to_end");
    let layer = listed_metrics(&bench, "per_layer");
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layer.len()));
    assert_eq!(e2e, catalogue_metrics(END_TO_END));
    assert_eq!(layer, catalogue_metrics(PER_LAYER));
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit, _) in e2e.iter().chain(&layer) {
        assert!(is_name(name), "metric name {name}");
        assert!(is_unit(unit), "unit {unit} of {name}");
        assert!(seen.insert(name.clone()), "{name} listed twice");
    }
    for (name, _) in &listed {
        assert!(seen.insert(name.clone()), "{name} used twice");
    }
    for m in bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("list")
    {
        assert_eq!(m.as_obj().expect("object").len(), 4, "end_to_end keys");
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
    for m in bench.get("per_layer").and_then(Json::as_arr).expect("list") {
        assert_eq!(m.as_obj().expect("object").len(), 3, "per_layer keys");
    }
    assert!(e2e.contains(&("setup_s".into(), "s".into(), "lower".into())));

    // The smoke runs report exactly those metrics, and pass.
    confine_scratch().expect("scratch directory");
    let outs = smoke();
    assert_eq!(outs.len(), 2 * listed.len());
    for (name, _) in &listed {
        for (trace, expect) in [(false, &e2e), (true, &layer)] {
            let out = outs
                .iter()
                .find(|o| o.workload == name && o.trace == trace)
                .unwrap_or_else(|| panic!("{name} trace={trace} missing from smoke"));
            assert!(
                out.correct,
                "{name} trace={trace}: {} ops failed",
                out.failed
            );
            assert!(out.attempted >= 1);
            let got: Vec<(String, String, String)> = out
                .metrics
                .iter()
                .map(|m| {
                    assert!(m.value.is_finite(), "{name}: {} not finite", m.def.name);
                    (
                        m.def.name.to_string(),
                        m.def.unit.to_string(),
                        m.def.better.word().to_string(),
                    )
                })
                .collect();
            assert_eq!(&got, expect, "{name} trace={trace}");
            if !trace {
                assert!(
                    out.metrics.iter().all(|m| m.value > 0.0),
                    "{name}: an end-to-end metric is 0"
                );
            }

            let line = Json::parse(&result_line(out).to_string()).expect("result line parses");
            let keys: Vec<&str> = line
                .as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);

            if trace {
                let path = out.trace_file.as_ref().expect("traced runs write a trace");
                let doc = Json::parse(&std::fs::read_to_string(path).expect("trace file"))
                    .expect("trace parses");
                let events = doc
                    .get("traceEvents")
                    .and_then(Json::as_arr)
                    .expect("events");
                assert!(events.len() > 20, "{name}: only {} spans", events.len());
                for layer in ["mesh", "graph", "comm", "core", "transport", "session"] {
                    assert!(
                        events
                            .iter()
                            .any(|e| e.get("cat").and_then(Json::as_str) == Some(layer)),
                        "{name}: no span for layer {layer}"
                    );
                }
            }
        }
    }
}
