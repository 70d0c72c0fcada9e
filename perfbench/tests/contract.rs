//! The benchmark's own contract: names, coverage of `BENCHMARK.json`, the
//! output checks on a shrunken machine, and exact repetition of the
//! simulated-domain figures.

use std::process::Command;

use walksteal_perfbench::{end_to_end, traced, Machine, Report, Workload};
use walksteal_sim_core::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `name` of every entry of the array under `key`.
fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} array"))
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn metric_names(r: &Report) -> Vec<String> {
    r.metrics.iter().map(|m| m.name.to_string()).collect()
}

fn listed_workloads(doc: &Json) -> Vec<Workload> {
    names(doc, "workloads")
        .iter()
        .map(|n| Workload::from_name(n).unwrap_or_else(|| panic!("unknown workload {n}")))
        .collect()
}

#[test]
fn every_name_is_well_formed() {
    let doc = benchmark_json();
    let mut all = Vec::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        all.extend(names(&doc, key));
    }
    for name in &all {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "bad name {name:?}"
        );
        assert_eq!(
            all.iter().filter(|n| *n == name).count(),
            1,
            "{name} used twice"
        );
    }
}

#[test]
fn every_listed_workload_and_metric_is_reported() {
    let doc = benchmark_json();
    let end_to_end_names = names(&doc, "end_to_end");
    let per_layer_names = names(&doc, "per_layer");
    let workloads = listed_workloads(&doc);
    assert_eq!(workloads, Workload::ALL);
    for w in workloads {
        let plain = end_to_end(w, Machine::Shrunk, 42, 0.0);
        assert_eq!(metric_names(&plain), end_to_end_names, "{}", w.name());
        let (layers, spans) = traced(w, Machine::Shrunk, 42);
        assert_eq!(metric_names(&layers), per_layer_names, "{}", w.name());
        assert!(!spans.spans().is_empty());

        let line = Json::parse(&plain.result_line()).expect("result line is JSON");
        let Json::Obj(fields) = &line else {
            panic!("result line is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        for name in &end_to_end_names {
            let metric = line.get("metrics").and_then(|m| m.get(name)).expect(name);
            assert!(
                metric.get("value").and_then(Json::as_f64).is_some(),
                "{name}"
            );
        }
    }
}

#[test]
fn shrunk_runs_pass_their_checks_traced_or_not() {
    for w in Workload::ALL {
        let plain = end_to_end(w, Machine::Shrunk, 7, 0.0);
        assert!(
            plain.correct && plain.failed == 0,
            "{}: {:?}",
            w.name(),
            plain.notes
        );
        assert_eq!(plain.attempted, w.sims().len() as u64);
        // `traced` fails a simulation whose traced result differs from its
        // untraced one, or whose replay does not regenerate its instructions.
        let (layers, _) = traced(w, Machine::Shrunk, 7);
        assert!(
            layers.correct && layers.failed == 0,
            "{}: {:?}",
            w.name(),
            layers.notes
        );
        let get = |name: &str| {
            layers
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .value
        };
        assert_eq!(get("fidelity.instructions"), 1.0);
        assert!(get("sim-core.dispatch_residual_s") >= 0.0);
        assert!(get("sim-core.events") > 0.0 && get("workloads.stream_ops") > 0.0);
    }
}

#[test]
fn simulated_figures_repeat_exactly_at_one_seed() {
    let simulated = |r: &Report| -> Vec<(String, u64)> {
        r.metrics
            .iter()
            .filter(|m| {
                m.unit != "s" && !m.name.ends_with("_per_s") && !m.name.starts_with("peak_")
            })
            .filter(|m| !m.name.contains("overhead") && m.name != "fidelity.layer_share")
            .map(|m| (m.name.to_string(), m.value.to_bits()))
            .collect()
    };
    let digest = |r: &Report| {
        r.notes
            .iter()
            .find(|n| n.starts_with("result_digest"))
            .cloned()
    };
    for w in [Workload::HlDwspp, Workload::Arena4] {
        let (a, b) = (
            end_to_end(w, Machine::Shrunk, 3, 0.0),
            end_to_end(w, Machine::Shrunk, 3, 0.0),
        );
        assert_eq!(simulated(&a), simulated(&b), "{}", w.name());
        assert!(digest(&a).is_some());
        assert_eq!(digest(&a), digest(&b));
        let ((a, _), (b, _)) = (traced(w, Machine::Shrunk, 3), traced(w, Machine::Shrunk, 3));
        assert_eq!(simulated(&a), simulated(&b), "{}", w.name());
        assert_eq!(digest(&a), digest(&b));
    }
}

#[test]
fn cli_rejects_bad_arguments_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"][..],
        &["--workload", "hl_dwspp", "--trace", "2"][..],
        &["--workload"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
