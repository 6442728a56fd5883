//! Every metric the benchmark reports: name, unit, direction, and what it
//! is for. `BENCHMARK.json` lists the same names and units; a self-test
//! keeps the two in step.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `better` value `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Stable name later changes cite.
    pub name: &'static str,
    /// Unit of the reported value.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// For end-to-end metrics the definition; for per-layer metrics the
    /// end-to-end metric and workload the layer metric should move.
    pub note: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: Better, note: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        note,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured on the untraced run of every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower, "workload start to first timed request: streams, network build, server/router/shard start, session opens, warm-up ingest; median of the run's set-ups"),
    m("samples_per_s", "samples/s", Higher, "samples acknowledged / timed wall time while every session is active"),
    m("ingest_p50_ms", "ms", Lower, "client-side latency of one ingest (learn-n400: one in-process step); open loop times it from its due time"),
    m("ingest_p99_ms", "ms", Lower, "as ingest_p50_ms at p99, or at the highest percentile with 10 samples beyond it when the run holds fewer than 1000 ingests"),
    m("train_mj_per_sample", "mJ", Lower, "modelled training energy per sample on the GTX 1080 Ti model"),
    m("infer_mj_per_sample", "mJ", Lower, "modelled inference energy per sample: prediction plus assignment refit"),
    m("preq_accuracy", "ratio", Higher, "prequential (test-then-train) accuracy over every sample of the run, mean over sessions"),
    m("peak_rss_mb", "MB", Lower, "peak resident memory of the benchmark process"),
];

/// Per-layer metrics, measured on the traced run. A layer a workload
/// bypasses reports 0.
pub const PER_LAYER: &[Metric] = &[
    m(
        "snn-core.run_sample_us",
        "us",
        Lower,
        "samples_per_s @ learn-n400",
    ),
    m(
        "snn-core.syn_events_per_sample",
        "count",
        Lower,
        "*_mj_per_sample @ all",
    ),
    m(
        "snn-core.weight_updates_per_sample",
        "count",
        Lower,
        "*_mj_per_sample @ all",
    ),
    m(
        "snn-core.exc_spikes_per_sample",
        "count",
        Lower,
        "*_mj_per_sample @ all",
    ),
    m(
        "snn-core.computed_bytes_per_sample",
        "B",
        Lower,
        "samples_per_s @ learn-n400 (computed from op counts, not measured)",
    ),
    m(
        "snn-runtime.infer_batch_us",
        "us",
        Lower,
        "samples_per_s @ learn-n400",
    ),
    m(
        "snn-runtime.batch_speedup",
        "ratio",
        Higher,
        "samples_per_s @ learn-n400 (ideal: the core count)",
    ),
    m(
        "snn-runtime.pool_hit_rate",
        "ratio",
        Higher,
        "samples_per_s @ learn-n400",
    ),
    m(
        "snn-runtime.infer_busy_share",
        "ratio",
        Higher,
        "samples_per_s @ serve-closed",
    ),
    m(
        "spikedyn.train_image_us",
        "us",
        Lower,
        "samples_per_s @ learn-n400",
    ),
    m(
        "spikedyn.fit_assignment_us",
        "us",
        Lower,
        "samples_per_s @ learn-n400; ingest_p99_ms @ cluster-open",
    ),
    m(
        "snn-online.step_us",
        "us",
        Lower,
        "samples_per_s @ learn-n400",
    ),
    m(
        "snn-online.self_us_per_sample",
        "us",
        Lower,
        "samples_per_s @ learn-n400",
    ),
    m(
        "snn-online.checkpoint_encode_us",
        "us",
        Lower,
        "ingest_p99_ms @ cluster-open",
    ),
    m(
        "snn-online.checkpoint_bytes",
        "B",
        Lower,
        "ingest_p99_ms @ cluster-open",
    ),
    m(
        "snn-online.drift_events",
        "count",
        Higher,
        "preq_accuracy @ all",
    ),
    m(
        "snn-serve.queue_wait_p50_us",
        "us",
        Lower,
        "samples_per_s and ingest_p99_ms @ serve-closed; ingest_p99_ms @ cluster-open",
    ),
    m(
        "snn-serve.queue_wait_p99_us",
        "us",
        Lower,
        "samples_per_s and ingest_p99_ms @ serve-closed; ingest_p99_ms @ cluster-open",
    ),
    m(
        "snn-serve.queue_share",
        "ratio",
        Lower,
        "samples_per_s and ingest_p99_ms @ serve-closed; ingest_p99_ms @ cluster-open",
    ),
    m(
        "snn-serve.exec_p50_us",
        "us",
        Lower,
        "samples_per_s @ serve-closed",
    ),
    m(
        "snn-serve.exec_p99_us",
        "us",
        Lower,
        "samples_per_s @ serve-closed",
    ),
    m(
        "snn-serve.exec_inflation",
        "ratio",
        Lower,
        "samples_per_s @ serve-closed",
    ),
    m(
        "snn-serve.jobs_per_tick",
        "count",
        Higher,
        "samples_per_s @ serve-closed",
    ),
    m(
        "snn-serve.tick_p50_us",
        "us",
        Lower,
        "samples_per_s @ serve-closed",
    ),
    m(
        "snn-serve.write_p50_us",
        "us",
        Lower,
        "ingest_p50_ms on the same workload",
    ),
    m(
        "snn-serve.wire_us",
        "us",
        Lower,
        "ingest_p50_ms on the same workload",
    ),
    m(
        "snn-serve.wire_bytes_per_sample",
        "B",
        Lower,
        "ingest_p50_ms on the same workload",
    ),
    m(
        "snn-serve.rejects",
        "count",
        Lower,
        "failed ops on the same workload",
    ),
    m(
        "snn-cluster.relay_p50_us",
        "us",
        Lower,
        "ingest_p50_ms @ cluster-open",
    ),
    m(
        "snn-cluster.relay_p99_us",
        "us",
        Lower,
        "ingest_p99_ms @ cluster-open",
    ),
    m(
        "snn-cluster.router_overhead_us",
        "us",
        Lower,
        "ingest_p50_ms @ cluster-open",
    ),
    m(
        "snn-cluster.relay_payload_bytes_per_sample",
        "B",
        Lower,
        "ingest_p50_ms @ cluster-open",
    ),
    m(
        "snn-cluster.shadows_per_s",
        "1/s",
        Higher,
        "ingest_p99_ms @ cluster-open",
    ),
    m(
        "snn-cluster.shadow_bytes_per_s",
        "B/s",
        Lower,
        "ingest_p99_ms @ cluster-open",
    ),
    m(
        "snn-cluster.shadow_lag",
        "samples",
        Lower,
        "guards against an ingest_p99_ms gain @ cluster-open that comes from shadowing less",
    ),
    m(
        "host.cpu_busy_share",
        "ratio",
        Higher,
        "samples_per_s @ serve-closed and learn-n400 (idle cores at barriers)",
    ),
    m(
        "loadgen.offered_sps",
        "samples/s",
        Higher,
        "validity of ingest_p*_ms @ cluster-open",
    ),
    m(
        "loadgen.late_p99_ms",
        "ms",
        Lower,
        "validity of ingest_p*_ms @ cluster-open",
    ),
    m(
        "loadgen.trace_overhead",
        "ratio",
        Lower,
        "nothing: the cost of tracing (traced / untraced samples_per_s - 1)",
    ),
];

/// Values of one run, by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Whether `name` is a well-formed metric name: 1 to 64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a well-formed unit: 1 to 16 characters of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Renders `values` for `set` as the `metrics` object of the result line.
/// Every metric of the set must be well formed and have a finite value.
pub fn render(set: &[Metric], values: &Values) -> Result<String, String> {
    let mut parts = Vec::with_capacity(set.len());
    for metric in set {
        if !valid_name(metric.name) || !valid_unit(metric.unit) {
            return Err(format!(
                "malformed metric {} [{}]",
                metric.name, metric.unit
            ));
        }
        let value = *values
            .get(metric.name)
            .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", metric.name));
        }
        parts.push(format!(
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(metric.name), "bad name {}", metric.name);
            assert!(valid_unit(metric.unit), "bad unit {}", metric.unit);
            assert!(
                matches!(metric.better.as_str(), "lower" | "higher"),
                "{} has no direction",
                metric.name
            );
            assert!(!metric.note.is_empty(), "{} is undocumented", metric.name);
            assert!(seen.insert(metric.name), "duplicate {}", metric.name);
        }
        assert!(!valid_name("-leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_unit("µs"));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let compact: String = json.split_whitespace().collect();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
                metric.name,
                metric.unit,
                metric.better.as_str()
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("\"better\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn render_refuses_missing_and_non_finite_values() {
        let set = &END_TO_END[..1];
        let mut values = Values::new();
        assert!(render(set, &values).is_err());
        values.insert("setup_s", f64::NAN);
        assert!(render(set, &values).is_err());
        values.insert("setup_s", 0.25);
        assert_eq!(
            render(set, &values).unwrap(),
            "{\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}"
        );
    }
}
