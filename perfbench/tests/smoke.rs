//! The benchmark's own tests at smoke scale: every named metric is
//! present, finite and carries its unit, every check passes, and the
//! metric tables match `BENCHMARK.json`.

use std::path::{Path, PathBuf};

use synctime_perfbench::{
    run_workload, Config, Report, Scale, E2E_METRICS, LAYER_METRICS, WORKLOADS,
};

fn smoke(workload: &str, trace: bool) -> Report {
    let cfg = Config {
        seed: 7,
        seconds: 0.4,
        trace,
        scale: Scale::SMOKE,
        work_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(".bench_work")
            .join(format!("test-{workload}-{}", u8::from(trace))),
    };
    let report = run_workload(workload, &cfg).expect("workload runs");
    assert!(report.attempted > 0, "{workload}: nothing attempted");
    assert_eq!(report.failed, 0, "{workload}: error ratio must be 0");
    let table = if trace {
        report.layer_table()
    } else {
        report.e2e_table()
    };
    let expected = if trace { LAYER_METRICS } else { E2E_METRICS };
    assert_eq!(table.len(), expected.len());
    for ((name, value, unit), (want_name, want_unit)) in table.iter().zip(expected) {
        assert_eq!((name, unit), (want_name, want_unit));
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        if !trace {
            assert!(*value > 0.0, "{workload}: end-to-end {name} must not be 0");
        }
    }
    let line = report.result_json(trace);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    for (name, unit) in expected {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing from {line}"
        );
        assert!(
            line.contains(&format!("\"unit\": \"{unit}\"")),
            "{unit} missing from {line}"
        );
    }
    report
}

#[test]
fn offline_stamp_smoke() {
    smoke("offline_stamp", false);
    let traced = smoke("offline_stamp", true);
    let layer = |n: &str| {
        traced
            .layer_table()
            .into_iter()
            .find(|(m, _, _)| *m == n)
            .expect("listed")
            .1
    };
    assert!(layer("trace.parse_ms") > 0.0 && layer("core.offline_stamp_ms") > 0.0);
    assert!(layer("trace_overhead") > 0.0);
}

#[test]
fn live_persist_smoke() {
    smoke("live_persist", false);
    let traced = smoke("live_persist", true);
    let layer = |n: &str| {
        traced
            .layer_table()
            .into_iter()
            .find(|(m, _, _)| *m == n)
            .expect("listed")
            .1
    };
    assert!(layer("store.recover_ms") > 0.0 && layer("runtime.send_ms_total") > 0.0);
    assert_eq!(layer("store.dropped_records"), 0.0);
}

#[test]
fn query_serve_smoke() {
    smoke("query_serve", false);
    let traced = smoke("query_serve", true);
    let layer = |n: &str| {
        traced
            .layer_table()
            .into_iter()
            .find(|(m, _, _)| *m == n)
            .expect("listed")
            .1
    };
    assert!(layer("net.answer_ns_per_query") > 0.0 && layer("net.bytes_per_query") > 0.0);
}

#[test]
fn serve_ingest_smoke() {
    smoke("serve_ingest", false);
    let traced = smoke("serve_ingest", true);
    let layer = |n: &str| {
        traced
            .layer_table()
            .into_iter()
            .find(|(m, _, _)| *m == n)
            .expect("listed")
            .1
    };
    assert!(layer("store.tail_poll_ms") > 0.0 && layer("net.publish_us") > 0.0);
}

/// The `(name, unit)` pairs of one metric list in `BENCHMARK.json`, read
/// with plain string scanning (the benchmark carries no JSON parser).
fn listed(doc: &str, key: &str) -> Vec<(String, String)> {
    let start = doc.find(&format!("\"{key}\"")).expect("key present");
    let body = &doc[start
        ..doc[start..]
            .find(']')
            .map(|e| start + e)
            .expect("list closes")];
    let field = |entry: &str, name: &str| -> String {
        let at = entry
            .find(&format!("\"{name}\": \""))
            .expect("field present")
            + name.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed(&doc, "end_to_end"), own(E2E_METRICS));
    assert_eq!(listed(&doc, "per_layer"), own(LAYER_METRICS));
    for w in WORKLOADS {
        assert!(
            doc.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
            "workload {w} not listed"
        );
    }
}
