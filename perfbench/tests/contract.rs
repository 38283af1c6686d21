//! The metrics the benchmark prints are the ones `BENCHMARK.json` declares.

use flux_bench::json::{parse, Value};
use perfbench::workloads::{END_TO_END, PER_LAYER, WORKLOADS};

fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Value::as_array)
        .expect("a list of entries")
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn printed_metrics_match_the_declared_ones() {
    assert_eq!(owned(&END_TO_END), declared("end_to_end"));
    assert_eq!(owned(&PER_LAYER), declared("per_layer"));
}

#[test]
fn declared_workloads_exist() {
    for (name, _) in declared("workloads") {
        assert!(
            WORKLOADS.contains(&name.as_str()),
            "{name} is not a workload"
        );
    }
}
