//! Exporters: Prometheus text-format rendering and the serde-JSON
//! [`TelemetrySnapshot`] embedded in fleet reports.
//!
//! Both exporters walk the registry once under its mutex; neither is ever
//! on a hot path. Output is deterministic — families and series are held
//! in `BTreeMap`s and duration scaling is done with exact decimal-shift
//! string formatting — which is what makes golden-file testing of
//! [`Registry::render`] possible.

use serde::{Deserialize, Serialize};

use crate::instruments::Histogram;
use crate::registry::{Instrument, MetricFamily, MetricKind, Registry, Unit};

// ---------------------------------------------------------------------------
// Snapshot types
// ---------------------------------------------------------------------------

/// A single label attached to a sample (this registry supports at most one
/// label per family, keyed by class or shard id).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabelSample {
    /// Label key, e.g. `class` or `shard`.
    pub key: String,
    /// Label value, e.g. a class name or shard index.
    pub value: String,
}

/// Point-in-time value of one counter series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Metric family name.
    pub name: String,
    /// Series label, absent for unlabelled metrics.
    pub label: Option<LabelSample>,
    /// Cumulative count.
    pub value: u64,
}

/// Point-in-time value of one gauge series. Unset gauges are omitted from
/// snapshots entirely, so `value` is always finite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Metric family name.
    pub name: String,
    /// Series label, absent for unlabelled metrics.
    pub label: Option<LabelSample>,
    /// Last value written.
    pub value: f64,
}

/// One cumulative histogram bucket; `le` is always finite (observations in
/// the unbounded final bucket show up in [`HistogramSample::count`] only).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketSample {
    /// Inclusive upper bound, in the histogram's export unit.
    pub le: f64,
    /// Observations at or below `le` (cumulative).
    pub count: u64,
}

/// Point-in-time state of one histogram series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Metric family name.
    pub name: String,
    /// Series label, absent for unlabelled metrics.
    pub label: Option<LabelSample>,
    /// Export unit name: `"seconds"` or `"count"`.
    pub unit: String,
    /// Total observations.
    pub count: u64,
    /// Sum of observations, scaled to the export unit.
    pub sum: f64,
    /// Cumulative buckets, trimmed at the highest non-empty bucket.
    pub buckets: Vec<BucketSample>,
}

impl HistogramSample {
    /// Mean observation in the export unit, or `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Upper bound of the highest non-empty bucket — a deterministic
    /// proxy for the maximum observation (within one power of two).
    #[must_use]
    pub fn max_bound(&self) -> Option<f64> {
        let mut prev = 0;
        let mut best = None;
        for b in &self.buckets {
            if b.count > prev {
                best = Some(b.le);
            }
            prev = b.count;
        }
        best
    }

    /// Upper-bound estimate of quantile `q` (in `0.0..=1.0`) from the
    /// cumulative log2 buckets: the bound of the first bucket whose
    /// cumulative count reaches `ceil(q · count)`. Exact to within one
    /// power of two, like every bucketed quantile. `None` when the series
    /// is empty, `q` is not a proper fraction, or the quantile falls in
    /// the unbounded final bucket (no finite bound exists).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        self.buckets.iter().find(|b| b.count >= target).map(|b| b.le)
    }

    /// Median upper bound — [`HistogramSample::quantile`] at 0.5.
    #[must_use]
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// 99th-percentile upper bound — [`HistogramSample::quantile`] at
    /// 0.99.
    #[must_use]
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Merges histogram series of one family into a single distribution
    /// (per-bucket counts summed by bound, sums and counts added) — the
    /// fleet-wide view of a per-shard family. Returns `None` when `series`
    /// is empty or mixes families/units.
    #[must_use]
    pub fn merged(series: &[&HistogramSample]) -> Option<HistogramSample> {
        let first = series.first()?;
        if series.iter().any(|h| h.name != first.name || h.unit != first.unit) {
            return None;
        }
        // Per-bucket (non-cumulative) counts keyed by the bit pattern of
        // the bound: every series of a family shares the same log2 bounds,
        // so bitwise equality is exact.
        let mut by_bound: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        let mut count = 0u64;
        let mut sum = 0.0f64;
        for h in series {
            count += h.count;
            sum += h.sum;
            let mut prev = 0u64;
            for b in &h.buckets {
                *by_bound.entry(b.le.to_bits()).or_insert(0) += b.count - prev;
                prev = b.count;
            }
        }
        let mut cumulative = 0u64;
        let buckets = by_bound
            .into_iter()
            .map(|(bits, c)| {
                cumulative += c;
                BucketSample { le: f64::from_bits(bits), count: cumulative }
            })
            .collect();
        Some(HistogramSample {
            name: first.name.clone(),
            label: None,
            unit: first.unit.clone(),
            count,
            sum,
            buckets,
        })
    }

    /// The series' label value, if labelled.
    #[must_use]
    pub fn label_value(&self) -> Option<&str> {
        self.label.as_ref().map(|l| l.value.as_str())
    }
}

fn label_matches(label: &Option<LabelSample>, want: Option<&str>) -> bool {
    label.as_ref().map(|l| l.value.as_str()) == want
}

/// Serialisable snapshot of every instrument in a [`Registry`], embedded
/// as `FleetReport.telemetry` and written by the examples' `--metrics`
/// flag.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// All counter series, including zero-valued ones.
    pub counters: Vec<CounterSample>,
    /// All gauge series that were set at least once.
    pub gauges: Vec<GaugeSample>,
    /// All histogram series, including empty ones.
    pub histograms: Vec<HistogramSample>,
}

impl TelemetrySnapshot {
    /// Whether the snapshot holds no series at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Value of one counter series (`label` `None` selects the unlabelled
    /// series).
    #[must_use]
    pub fn counter(&self, name: &str, label: Option<&str>) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name && label_matches(&c.label, label))
            .map(|c| c.value)
    }

    /// Sum of a counter family across all its series.
    #[must_use]
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters.iter().filter(|c| c.name == name).map(|c| c.value).sum()
    }

    /// All series of one counter family.
    #[must_use]
    pub fn counter_series(&self, name: &str) -> Vec<&CounterSample> {
        self.counters.iter().filter(|c| c.name == name).collect()
    }

    /// Value of one gauge series, if it was ever set.
    #[must_use]
    pub fn gauge(&self, name: &str, label: Option<&str>) -> Option<f64> {
        self.gauges
            .iter()
            .find(|g| g.name == name && label_matches(&g.label, label))
            .map(|g| g.value)
    }

    /// One histogram series.
    #[must_use]
    pub fn histogram(&self, name: &str, label: Option<&str>) -> Option<&HistogramSample> {
        self.histograms.iter().find(|h| h.name == name && label_matches(&h.label, label))
    }

    /// All series of one histogram family.
    #[must_use]
    pub fn histogram_series(&self, name: &str) -> Vec<&HistogramSample> {
        self.histograms.iter().filter(|h| h.name == name).collect()
    }

    /// All series of one histogram family merged into a single
    /// distribution — e.g. the fleet-wide epoch-advance histogram across
    /// per-shard series, ready for [`HistogramSample::p99`].
    #[must_use]
    pub fn histogram_merged(&self, name: &str) -> Option<HistogramSample> {
        HistogramSample::merged(&self.histogram_series(name))
    }
}

// ---------------------------------------------------------------------------
// Deterministic value formatting
// ---------------------------------------------------------------------------

/// Formats a raw instrument value in the family's export unit using exact
/// decimal-shift arithmetic (nanoseconds → seconds is a 10^-9 shift), so
/// rendering never depends on float rounding.
fn scaled(raw: u64, unit: Unit) -> String {
    match unit {
        Unit::Count => raw.to_string(),
        Unit::Seconds => {
            let secs = raw / 1_000_000_000;
            let frac = raw % 1_000_000_000;
            if frac == 0 {
                secs.to_string()
            } else {
                let mut frac_s = format!("{frac:09}");
                while frac_s.ends_with('0') {
                    frac_s.pop();
                }
                format!("{secs}.{frac_s}")
            }
        }
    }
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn label_block(key: Option<&str>, value: Option<&str>, le: Option<&str>) -> String {
    let mut parts = Vec::new();
    if let (Some(k), Some(v)) = (key, value) {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

// ---------------------------------------------------------------------------
// Registry exporters
// ---------------------------------------------------------------------------

fn histogram_lines(
    name: &str,
    key: Option<&str>,
    value: Option<&str>,
    hist: &Histogram,
    unit: Unit,
    lines: &mut Vec<String>,
) {
    let counts = hist.bucket_counts();
    let last = counts.iter().rposition(|&c| c > 0);
    let mut cumulative = 0u64;
    if let Some(last) = last {
        for (i, &c) in counts.iter().enumerate().take(last + 1) {
            let Some(bound) = Histogram::bucket_bound(i) else {
                break; // final bucket has no finite bound; covered by +Inf
            };
            cumulative += c;
            lines.push(format!(
                "{name}_bucket{} {cumulative}",
                label_block(key, value, Some(&scaled(bound, unit)))
            ));
        }
    }
    lines.push(format!("{name}_bucket{} {}", label_block(key, value, Some("+Inf")), hist.count()));
    lines.push(format!("{name}_sum{} {}", label_block(key, value, None), scaled(hist.sum(), unit)));
    lines.push(format!("{name}_count{} {}", label_block(key, value, None), hist.count()));
}

fn family_lines(name: &str, fam: &MetricFamily) -> Vec<String> {
    let key = fam.label_key.as_deref();
    let mut lines = Vec::new();
    for (label_value, instrument) in &fam.series {
        let value = label_value.as_deref();
        match instrument {
            Instrument::Counter(c) => {
                lines.push(format!("{name}{} {}", label_block(key, value, None), c.value()))
            }
            Instrument::Gauge(g) => {
                if let Some(v) = g.get() {
                    lines.push(format!("{name}{} {}", label_block(key, value, None), fmt_f64(v)));
                }
            }
            Instrument::Histogram(h) => {
                let MetricKind::Histogram(unit) = fam.kind else {
                    continue;
                };
                histogram_lines(name, key, value, h, unit, &mut lines);
            }
        }
    }
    lines
}

impl Registry {
    /// Renders every family in Prometheus text exposition format.
    ///
    /// Families and series appear in lexicographic order; gauge families
    /// with no set series are omitted, so the output is a deterministic
    /// function of what was recorded.
    #[must_use]
    pub fn render(&self) -> String {
        self.with_families(|families| {
            let mut out = String::new();
            for (name, fam) in families {
                let lines = family_lines(name, fam);
                if lines.is_empty() {
                    continue;
                }
                let kind = match fam.kind {
                    MetricKind::Counter => "counter",
                    MetricKind::Gauge => "gauge",
                    MetricKind::Histogram(_) => "histogram",
                };
                out.push_str("# HELP ");
                out.push_str(name);
                out.push(' ');
                out.push_str(&fam.help);
                out.push_str("\n# TYPE ");
                out.push_str(name);
                out.push(' ');
                out.push_str(kind);
                out.push('\n');
                for line in lines {
                    out.push_str(&line);
                    out.push('\n');
                }
            }
            out
        })
    }

    /// Captures every series into a serialisable [`TelemetrySnapshot`].
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.with_families(|families| {
            let mut snap = TelemetrySnapshot::default();
            for (name, fam) in families {
                let key = fam.label_key.as_deref();
                for (label_value, instrument) in &fam.series {
                    let label = match (key, label_value) {
                        (Some(k), Some(v)) => {
                            Some(LabelSample { key: k.to_string(), value: v.clone() })
                        }
                        _ => None,
                    };
                    match instrument {
                        Instrument::Counter(c) => snap.counters.push(CounterSample {
                            name: name.clone(),
                            label,
                            value: c.value(),
                        }),
                        Instrument::Gauge(g) => {
                            if let Some(v) = g.get() {
                                snap.gauges.push(GaugeSample {
                                    name: name.clone(),
                                    label,
                                    value: v,
                                });
                            }
                        }
                        Instrument::Histogram(h) => {
                            let MetricKind::Histogram(unit) = fam.kind else {
                                continue;
                            };
                            let counts = h.bucket_counts();
                            let last = counts.iter().rposition(|&c| c > 0);
                            let mut buckets = Vec::new();
                            let mut cumulative = 0u64;
                            if let Some(last) = last {
                                for (i, &c) in counts.iter().enumerate().take(last + 1) {
                                    let Some(bound) = Histogram::bucket_bound(i) else {
                                        break;
                                    };
                                    cumulative += c;
                                    buckets.push(BucketSample {
                                        le: bound as f64 * unit.scale(),
                                        count: cumulative,
                                    });
                                }
                            }
                            snap.histograms.push(HistogramSample {
                                name: name.clone(),
                                label,
                                unit: unit.name().to_string(),
                                count: h.count(),
                                sum: h.sum() as f64 * unit.scale(),
                                buckets,
                            });
                        }
                    }
                }
            }
            snap
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn populated() -> Registry {
        let r = Registry::new();
        r.counter("fleet_epochs_total", "Epochs completed").add(3);
        r.counter_with("adapt_bus_shed_checkpoints_total", "Shed by class", "class", "web").add(5);
        r.gauge("adapt_bus_depth_batches", "Queued batches").set(2.0);
        let _unset = r.gauge("discovery_silhouette", "Never set here");
        let h = r.histogram_with(
            "fleet_barrier_wait_seconds",
            "Barrier wait",
            Unit::Seconds,
            "shard",
            "0",
        );
        h.record(100);
        h.record(1000);
        r
    }

    #[test]
    fn scaled_is_exact_decimal_shift() {
        assert_eq!(scaled(0, Unit::Seconds), "0");
        assert_eq!(scaled(1, Unit::Seconds), "0.000000001");
        assert_eq!(scaled(1023, Unit::Seconds), "0.000001023");
        assert_eq!(scaled(1_500_000_000, Unit::Seconds), "1.5");
        assert_eq!(scaled(2_000_000_000, Unit::Seconds), "2");
        assert_eq!(scaled(42, Unit::Count), "42");
    }

    #[test]
    fn snapshot_captures_all_series() {
        let snap = populated().snapshot();
        assert_eq!(snap.counter("fleet_epochs_total", None), Some(3));
        assert_eq!(snap.counter("adapt_bus_shed_checkpoints_total", Some("web")), Some(5));
        assert_eq!(snap.counter_total("adapt_bus_shed_checkpoints_total"), 5);
        assert_eq!(snap.gauge("adapt_bus_depth_batches", None), Some(2.0));
        assert_eq!(snap.gauge("discovery_silhouette", None), None, "unset gauges omitted");
        let hist =
            snap.histogram("fleet_barrier_wait_seconds", Some("0")).expect("histogram present");
        assert_eq!(hist.count, 2);
        assert_eq!(hist.unit, "seconds");
        assert!((hist.sum - 1.1e-6).abs() < 1e-12);
        let mean = hist.mean().expect("non-empty");
        assert!((mean - 5.5e-7).abs() < 1e-12);
        let max = hist.max_bound().expect("non-empty");
        assert!((max - 1.023e-6).abs() < 1e-12, "1000 ns lands in le=1023 ns");
        // Buckets cumulative and capped by total count.
        let mut prev = 0;
        for b in &hist.buckets {
            assert!(b.count >= prev);
            assert!(b.le.is_finite());
            prev = b.count;
        }
        assert_eq!(prev, 2, "all observations inside finite buckets");
    }

    #[test]
    fn empty_histogram_snapshots_cleanly() {
        let r = Registry::new();
        let _h = r.histogram("idle_seconds", "Never recorded", Unit::Seconds);
        let snap = r.snapshot();
        let hist = snap.histogram("idle_seconds", None).expect("series exists");
        assert_eq!(hist.count, 0);
        assert_eq!(hist.sum, 0.0);
        assert!(hist.buckets.is_empty());
        assert_eq!(hist.mean(), None);
        assert_eq!(hist.max_bound(), None);
    }

    #[test]
    fn render_is_deterministic() {
        let a = populated().render();
        let b = populated().render();
        assert_eq!(a, b);
        assert!(a.contains("# TYPE fleet_barrier_wait_seconds histogram"));
        assert!(a.contains("fleet_barrier_wait_seconds_bucket{shard=\"0\",le=\"+Inf\"} 2"));
        assert!(!a.contains("discovery_silhouette"), "unset gauge family omitted");
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter_with("odd_total", "odd labels", "class", "a\"b\\c").inc();
        let rendered = r.render();
        assert!(rendered.contains("odd_total{class=\"a\\\"b\\\\c\"} 1"), "{rendered}");
    }

    #[test]
    fn quantiles_come_from_log2_buckets() {
        let r = Registry::new();
        let h = r.histogram("lat_seconds", "latency", Unit::Seconds);
        // 99 fast observations (≤ 1023 ns bucket) and one slow outlier.
        for _ in 0..99 {
            h.record(1000);
        }
        h.record(1_000_000);
        let snap = r.snapshot();
        let hist = snap.histogram("lat_seconds", None).expect("series exists");
        let p50 = hist.p50().expect("non-empty");
        assert!((p50 - 1.023e-6).abs() < 1e-12, "median sits in the 1023 ns bucket: {p50}");
        let p99 = hist.p99().expect("non-empty");
        assert!((p99 - 1.023e-6).abs() < 1e-12, "p99 still inside the fast bucket: {p99}");
        let p100 = hist.quantile(1.0).expect("non-empty");
        assert!(p100 >= 1e-3, "the outlier dominates the max: {p100}");
        assert_eq!(hist.quantile(1.5), None, "improper fraction");
        assert_eq!(hist.quantile(-0.1), None);
    }

    #[test]
    fn quantile_of_empty_or_unbounded_is_none() {
        let empty = HistogramSample {
            name: "x_seconds".into(),
            label: None,
            unit: "seconds".into(),
            count: 0,
            sum: 0.0,
            buckets: Vec::new(),
        };
        assert_eq!(empty.p50(), None);
        // All mass in the unbounded final bucket: trimmed buckets are
        // empty, so no finite bound covers any quantile.
        let unbounded = HistogramSample { count: 5, ..empty };
        assert_eq!(unbounded.p99(), None);
    }

    #[test]
    fn merged_series_form_the_fleet_wide_distribution() {
        let r = Registry::new();
        for (shard, v) in [("0", 100u64), ("1", 1000), ("2", 100_000)] {
            r.histogram_with("fleet_barrier_wait_seconds", "wait", Unit::Seconds, "shard", shard)
                .record(v);
        }
        let snap = r.snapshot();
        let merged = snap.histogram_merged("fleet_barrier_wait_seconds").expect("three series");
        assert_eq!(merged.count, 3);
        assert!((merged.sum - 101_100.0e-9).abs() < 1e-12);
        let mut prev = 0;
        for b in &merged.buckets {
            assert!(b.count >= prev, "merged buckets stay cumulative");
            prev = b.count;
        }
        assert_eq!(prev, 3);
        let p99 = merged.p99().expect("non-empty");
        assert!(
            (p99 - 131.071e-6).abs() < 1e-9,
            "p99 of three singletons is the slowest shard's bucket: {p99}"
        );
        assert_eq!(snap.histogram_merged("absent_seconds"), None);
    }
}
