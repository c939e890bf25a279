//! The benchmark's own contract, checked at tiny sizes:
//! - every metric `BENCHMARK.json` names is emitted with its unit;
//! - `paper_mix` access counters repeat exactly for a seed and change with
//!   it;
//! - on `paper_mix`, the traced per-stage sum reconciles with the untraced
//!   facade latency within the measured tracing overhead;
//! - the latency limit `BENCHMARK.json` states is the one the code applies.

use ftsl_perfbench::layers::{reconcile_gap, RECONCILE_LIMIT};
use ftsl_perfbench::{run, Args, Report, Scale, Workload, P99_LIMIT_US};
use std::collections::BTreeMap;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present");
        let rest = &obj[at + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("closing quote");
        rest[open..open + close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn tiny(workload: Workload, seed: u64, trace: bool) -> Report {
    run(
        &Args {
            workload,
            seed,
            seconds: 0.6,
            trace,
        },
        &Scale::tiny(),
    )
}

fn assert_emits(report: &Report, section: &str, what: &str) {
    assert!(report.correct(), "{what}: {:?}", report.failures());
    let metrics = report.metrics();
    for (name, unit) in declared(section) {
        let (value, got_unit) = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{what}: {name} missing"));
        assert_eq!(got_unit, &unit, "{what}: unit of {name}");
        assert!(value.is_finite(), "{what}: {name} = {value}");
    }
    assert_eq!(
        metrics.len(),
        declared(section).len(),
        "{what}: extra metrics"
    );
    let line = report.json();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
}

#[test]
fn tiny_runs_emit_every_metric_with_its_unit() {
    for w in Workload::ALL {
        assert_emits(&tiny(w, 3, false), "end_to_end", w.name());
        assert_emits(&tiny(w, 3, true), "per_layer", w.name());
    }
}

fn counters(report: &Report) -> BTreeMap<String, f64> {
    report
        .metrics()
        .iter()
        .filter(|(name, (_, unit))| name.starts_with("exec.") && unit == "count")
        .map(|(name, (value, _))| (name.clone(), *value))
        .collect()
}

#[test]
fn paper_mix_counters_repeat_for_a_seed_and_change_with_it() {
    let a = counters(&tiny(Workload::PaperMix, 7, true));
    let b = counters(&tiny(Workload::PaperMix, 7, true));
    let c = counters(&tiny(Workload::PaperMix, 8, true));
    assert_eq!(a.len(), 7 * 7);
    assert_eq!(a, b, "same seed, same counters");
    assert_ne!(a, c, "another seed, another corpus");
}

#[test]
fn traced_stage_sum_reconciles_with_untraced_latency() {
    let r = tiny(Workload::PaperMix, 5, true);
    let overhead = r.value("trace.overhead_frac").expect("overhead measured");
    let gap = r.value("trace.reconcile_gap").expect("reconciliation");
    // A span costs two clock reads; a staged request that is much slower
    // than the facade does work the facade does not, outside the spans.
    assert!(overhead.abs() < 0.15, "tracing overhead {overhead}");
    // The measured calls must add up to the facade: a gap means the staged
    // path does work the facade does not, or skips work it does.
    assert!(
        gap <= RECONCILE_LIMIT,
        "measured stages differ from the facade by {gap}"
    );
    assert!(r.correct(), "{:?}", r.failures());
}

#[test]
fn reconciliation_flags_a_stage_the_facade_does_not_run() {
    assert!(reconcile_gap(10.0, 10.4) <= RECONCILE_LIMIT);
    assert!(reconcile_gap(10.0, 12.0) > RECONCILE_LIMIT);
    assert!(reconcile_gap(10.0, 8.0) > RECONCILE_LIMIT);
}

#[test]
fn stated_latency_limit_is_the_applied_one() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let stated = format!("p99 limit {} ms", P99_LIMIT_US / 1000.0);
    assert!(
        json.contains(&stated),
        "BENCHMARK.json should state {stated:?}"
    );
}
