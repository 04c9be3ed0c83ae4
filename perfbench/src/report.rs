//! The metric catalogue and the result line.
//!
//! Every untraced run prints every end-to-end metric and every traced
//! run every per-layer metric, whatever the workload: a per-layer metric
//! of a layer the workload does not exercise reads 0 (the README lists
//! which layer each workload exercises). The names here must match
//! `BENCHMARK.json` exactly; a test holds them together.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: what a user of the system sees. Printed by
/// untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics. Printed by traced runs.
pub const PER_LAYER: &[(&str, &str)] = &[
    // campaign: the event loop.
    ("campaign.wall_s", "s"),
    ("campaign.iterations", "count"),
    ("campaign.non_sched_s", "s"),
    // mummi-core and dynim: the WM, FPS selection and feedback.
    ("wm.selected", "count"),
    ("wm.resubmits", "count"),
    ("feedback.frames", "count"),
    // sched and resources: queue policy and matcher.
    ("sched.submitted", "count"),
    ("sched.placed", "count"),
    ("sched.match_misses", "count"),
    ("sched.backfills", "count"),
    ("sched.match_hit_ratio", "ratio"),
    ("resources.nodes_visited", "count"),
    ("resources.visits_per_match", "nodes/match"),
    ("sched.replay_s", "s"),
    ("sched.replay_jobs_per_s", "jobs/s"),
    ("sched.replay_share", "ratio"),
    // workload: the record -> replay loop.
    ("workload.trace_lines", "count"),
    ("workload.trace_out_of_order", "count"),
    // datastore: the campaign's feedback store.
    ("datastore.kv.writes", "count"),
    ("datastore.kv.reads", "count"),
    ("datastore.kv.moves", "count"),
    // trace: the tracer.
    ("trace.events", "count"),
    ("trace.overhead_s", "s"),
    // storeserver and kvstore: wire codec, engine and WAL.
    ("store.put_many.calls", "count"),
    ("store.put_many.busy_s", "s"),
    ("store.get_many.calls", "count"),
    ("store.get_many.busy_s", "s"),
    ("store.scan.calls", "count"),
    ("store.scan.busy_s", "s"),
    ("store.rename.calls", "count"),
    ("store.rename.busy_s", "s"),
    ("store.del_many.calls", "count"),
    ("store.del_many.busy_s", "s"),
    ("store.write_ops_per_s", "ops/s"),
    ("store.read_values_per_s", "values/s"),
    ("store.scan_keys_per_s", "keys/s"),
    ("store.write_rtt_p50_ms", "ms"),
    ("store.write_rtt_p99_ms", "ms"),
    ("store.read_rtt_p50_ms", "ms"),
    ("store.read_rtt_p99_ms", "ms"),
    ("store.wal_records", "count"),
    ("store.wal_syncs", "count"),
    ("store.records_per_sync", "records/sync"),
    ("store.recovery_records", "count"),
    ("store.recovery_s", "s"),
    ("storeserver.codec_s", "s"),
    ("storeserver.engine_s", "s"),
    ("storeserver.wal_s", "s"),
    ("kvstore.memory_bytes", "bytes"),
    // farm: the campaign service.
    ("farm.submit_rtt_ms", "ms"),
    ("farm.admission_wait_ms", "ms"),
    ("farm.leg_startup_ms", "ms"),
    ("farm.leg_s", "s"),
    ("farm.legs_completed", "count"),
    ("farm.recoveries", "count"),
    ("farm.kills_mid_leg", "count"),
    ("farm.batch_campaign_s", "s"),
];

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &[
    "summit-1x",
    "policy-zoo-eighth",
    "store-feedback",
    "farm-tenants",
];

/// What one run found: its operations, its checks and its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Checks that did not hold; the run is correct when this is empty.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts and percentile labels, printed beside the metrics.
    pub notes: BTreeMap<&'static str, String>,
}

impl Outcome {
    /// Records a check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, name: &'static str, note: String) {
        self.notes.insert(name, note);
    }

    /// One operation that completed.
    pub fn ok_op(&mut self) {
        self.attempted += 1;
    }

    /// One operation that failed, with why.
    pub fn failed_op(&mut self, why: String) {
        eprintln!("perfbench: operation failed: {why}");
        self.attempted += 1;
        self.failed += 1;
    }
}

/// The catalogue a run prints.
pub fn catalogue(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Formats a number as JSON with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Renders the human-readable lines and, last, the result object with
/// the run's catalogue. Metrics the workload did not produce read 0
/// (layers it does not exercise); a name in neither catalogue is a bug
/// and is refused.
pub fn render(outcome: &Outcome, traced: bool) -> String {
    let cat = catalogue(traced);
    let mut text = String::new();
    for name in outcome.metrics.keys() {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| n == name),
            "metric {name} is in no catalogue"
        );
    }
    let mut fields = Vec::new();
    for (name, unit) in cat {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        let note = outcome
            .notes
            .get(name)
            .map(|n| format!("  ({n})"))
            .unwrap_or_default();
        let _ = writeln!(text, "{name:<32} {:>16} {unit}{note}", num(value));
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(value)
        ));
    }
    for p in &outcome.problems {
        let _ = writeln!(text, "CHECK FAILED: {p}");
    }
    let _ = writeln!(
        text,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.problems.is_empty(),
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    /// `(name, unit)` of every entry of a `BENCHMARK.json` list.
    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("list present")
            .iter()
            .map(|e| {
                let field = |k: &str| e.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// `(name, unit)` of every metric in the result line a run prints.
    fn printed(traced: bool) -> Vec<(String, String)> {
        let text = render(&Outcome::default(), traced);
        let last = text.lines().last().expect("a result line");
        let result = Json::parse(last).expect("the result line is JSON");
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            panic!("no metrics object in {last}");
        };
        let mut out: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                (name.clone(), unit.to_string())
            })
            .collect();
        out.sort();
        out
    }

    fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
        v.sort();
        v
    }

    #[test]
    fn printed_metrics_are_exactly_those_in_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(printed(false), sorted(listed(&doc, "end_to_end")));
        assert_eq!(printed(true), sorted(listed(&doc, "per_layer")));
    }

    #[test]
    fn workloads_are_exactly_those_in_benchmark_json() {
        let doc = benchmark_json();
        let names: Vec<String> = listed(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, WORKLOADS.to_vec());
    }

    #[test]
    fn result_line_counts_operations_and_checks() {
        let mut o = Outcome::default();
        o.ok_op();
        o.failed_op("boom".to_string());
        o.check(true, || unreachable!());
        let text = render(&o, false);
        let result = Json::parse(text.lines().last().unwrap()).unwrap();
        assert_eq!(result.get("attempted").and_then(Json::as_f64), Some(2.0));
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(1.0));
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        o.check(false, || "a wrong value".to_string());
        let text = render(&o, false);
        assert!(text.contains("CHECK FAILED: a wrong value"));
        let result = Json::parse(text.lines().last().unwrap()).unwrap();
        assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    }
}
