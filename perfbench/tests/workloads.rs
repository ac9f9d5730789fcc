//! The benchmark's own tests, each on a short mode of the workloads
//! (small data sets, a one-second timed phase).

use perfbench::report::{MetricDef, END_TO_END, PER_LAYER};
use perfbench::{Opts, Report, Workload};

fn short(workload: Workload, trace: bool) -> Opts {
    Opts { seconds: 1.0, trace, short: true, ..Opts::new(workload) }
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`, read
/// without a JSON library: the list runs from `"<key>": [` to the next
/// `]`, and each entry names its metric before its unit.
fn benchmark_json(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let start = text.find(&format!("\"{key}\": [")).expect("metric list");
    let list = &text[start..start + text[start..].find(']').expect("list end")];
    let field = |entry: &str, name: &str| {
        let at = entry.find(&format!("\"{name}\": \"")).expect("field") + name.len() + 5;
        entry[at..at + entry[at..].find('"').expect("closing quote")].to_owned()
    };
    list.split('{').skip(1).map(|e| (field(e, "name"), field(e, "unit"))).collect()
}

fn assert_catalogue(report: &Report, catalogue: &[MetricDef]) {
    let line = report.result_json();
    for d in catalogue {
        let entry = format!("\"{}\": {{\"value\": ", d.name);
        let at = line.find(&entry).unwrap_or_else(|| panic!("{} missing from {line}", d.name));
        let unit = format!("\"unit\": \"{}\"}}", d.unit);
        assert!(line[at..].contains(&unit), "{} reported without unit {}", d.name, d.unit);
    }
    assert!(report.correct(), "{}", report.table());
    assert!(report.attempted > 0);
}

fn emits_every_metric(workload: Workload) {
    assert_catalogue(&perfbench::run(&short(workload, false)), END_TO_END);
    assert_catalogue(&perfbench::run(&short(workload, true)), PER_LAYER);
}

#[test]
fn the_catalogue_is_the_one_in_benchmark_json() {
    let pairs = |c: &[MetricDef]| -> Vec<(String, String)> {
        c.iter().map(|d| (d.name.to_owned(), d.unit.to_owned())).collect()
    };
    assert_eq!(benchmark_json("end_to_end"), pairs(END_TO_END));
    assert_eq!(benchmark_json("per_layer"), pairs(PER_LAYER));
}

#[test]
fn point_read_emits_every_metric() {
    emits_every_metric(Workload::PointRead);
}

#[test]
fn ingest_tcp_emits_every_metric() {
    emits_every_metric(Workload::IngestTcp);
}

#[test]
fn languages_emits_every_metric() {
    emits_every_metric(Workload::Languages);
}

#[test]
fn elastic_emits_every_metric() {
    emits_every_metric(Workload::Elastic);
}

#[test]
fn wrong_expected_values_are_caught_and_counted() {
    for workload in Workload::ALL {
        let report = perfbench::run(&Opts { poison_every: 7, ..short(workload, false) });
        assert!(report.failed > 0, "{}: no poisoned answer was caught", workload.name());
        assert!(report.failed < report.attempted, "{}: unpoisoned answers pass", workload.name());
        assert!(!report.correct());
        assert!(report.result_json().starts_with("{\"correct\": false"));
        assert!(report.error_rate() > 0.0);
    }
}
