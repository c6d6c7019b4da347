//! Named metrics, the catalogue the benchmark reports, and the result
//! line.

use serde::Value;

/// End-to-end metrics: `(name, unit)`, reported on every workload with
/// tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("checkpoints_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
    ("availability", "ratio"),
    ("ttf_mae_s", "s"),
];

/// The three learners the ML layer can fit, as metric-name suffixes.
pub const LEARNERS: [&str; 3] = ["m5p", "linreg", "gbrt"];

/// The two classes the adaptive workloads route, as metric-name suffixes.
pub const CLASSES: [&str; 2] = ["leak", "steady"];

/// Per-layer metrics: `(name, unit)`, reported on every workload by the
/// traced run. A layer the workload leaves idle reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("testbed.step_us", "us"),
        ("testbed.fork_ms", "ms"),
        ("testbed.forks", "count"),
        ("monitor.extract_us", "us"),
        ("ml.predict_calls", "count"),
        ("ml.predict_rows", "count"),
        ("ml.predict_busy_s", "s"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for (stem, unit) in [
        ("ml.fit_calls", "count"),
        ("ml.fit_rows", "count"),
        ("ml.fit_busy_s", "s"),
        ("ml.fit_us_per_row", "us"),
    ] {
        out.extend(LEARNERS.iter().map(|l| (format!("{stem}.{l}"), unit)));
    }
    out.extend(
        [
            ("adapt.published", "count"),
            ("adapt.ingested", "count"),
            ("adapt.shed_rows", "count"),
            ("adapt.ingest_busy_s", "s"),
            ("adapt.refit_s", "s"),
            ("adapt.swap_latency_s", "s"),
            ("adapt.retrains", "count"),
            ("adapt.bus_publish_us", "us"),
        ]
        .map(|(n, u)| (n.to_string(), u)),
    );
    out.extend(CLASSES.iter().map(|c| (format!("adapt.class_mae_s.{c}"), "s")));
    out.extend(
        [
            ("journal.append_us", "us"),
            ("journal.sync_ms", "ms"),
            ("journal.records", "count"),
            ("journal.fsyncs", "count"),
            ("journal.read_s", "s"),
            ("fleet.advance_s", "s"),
            ("fleet.predict_phase_s", "s"),
            ("fleet.publish_phase_s", "s"),
            ("fleet.leader_step_s", "s"),
            ("fleet.fork_s", "s"),
            ("fleet.worker_busy_ratio", "ratio"),
            ("fleet.shard_imbalance", "ratio"),
            ("fleet.attributed_share", "ratio"),
        ]
        .map(|(n, u)| (n.to_string(), u)),
    );
    out.extend(LEARNERS.iter().map(|l| (format!("tune.eval_s.{l}"), "s")));
    out.extend(
        [
            ("tune.replayed_rows", "count"),
            ("tune.candidates_per_s", "1/s"),
            ("core.train_s", "s"),
            ("obs.trace_overhead", "ratio"),
        ]
        .map(|(n, u)| (n.to_string(), u)),
    );
    out
}

/// Metric values by name, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Sets `name` to `value`, replacing an earlier value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The `catalogue` metrics with their units; a metric this run never
    /// set reads 0.
    pub fn select(&self, catalogue: &[(String, &'static str)]) -> Vec<(String, f64, &'static str)> {
        catalogue.iter().map(|(n, u)| (n.clone(), self.get(n).unwrap_or(0.0), *u)).collect()
    }
}

/// The machine-readable result line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &'static str)],
) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, value, unit)| {
            let entry = vec![
                ("value".to_string(), Value::F64(*value)),
                ("unit".to_string(), Value::Str((*unit).into())),
            ];
            (name.clone(), Value::Obj(entry))
        })
        .collect();
    let line = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    serde::format_value(&line, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric name: 1 to 64 characters from
    /// `[A-Za-z0-9_.-]`, starting with a letter or digit.
    pub fn valid_name(name: &str) -> bool {
        (1..=64).contains(&name.len())
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn catalogue() -> Vec<(String, &'static str)> {
        END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).chain(per_layer()).collect()
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let names: Vec<String> = catalogue().into_iter().map(|(n, _)| n).collect();
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        assert!(!valid_name(""));
        assert!(!valid_name(".lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let root = serde::parse_value(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            let Some(Value::Arr(items)) =
                root.as_obj().expect("object").iter().find(|(k, _)| k == key).map(|(_, v)| v)
            else {
                panic!("{key} is an array");
            };
            items
                .iter()
                .map(|item| {
                    let obj = item.as_obj().expect("metric object");
                    let get = |f: &str| match obj.iter().find(|(k, _)| k == f) {
                        Some((_, Value::Str(s))) => s.clone(),
                        other => panic!("{key}.{f}: {other:?}"),
                    };
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> =
            per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
        assert_eq!(names("per_layer"), layers);
    }

    #[test]
    fn result_line_has_the_four_keys_and_every_metric() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5);
        m.set("setup_s", 0.25);
        let cat: Vec<(String, &str)> =
            END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect();
        let line = result_line(true, 3, 0, &m.select(&cat));
        let parsed = serde::parse_value(&line).expect("valid JSON");
        let keys: Vec<&str> =
            parsed.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains(r#""setup_s":{"value":0.25,"unit":"s"}"#), "{line}");
        assert!(line.contains(r#""availability":{"value":0.0,"unit":"ratio"}"#), "{line}");
    }
}
