//! The live retrainer against its offline reference, bit for bit.
//!
//! The one live retrainer is a per-class [`AdaptiveRouter`] (pooled
//! asynchronous refit); the reference is [`replay`] of the router's own
//! journal (synchronous in-thread refit) — the path crash recovery and
//! policy search trust. Both drive the same
//! [`aging_adapt::AdaptationPipeline`]. This suite pins the claim that,
//! under the [`aging_adapt::FixedThresholds`] policy and paced input
//! (every refit lands before the next batch arrives), the two are
//! indistinguishable: after every batch, a replay of the journal so far
//! counts the same drift events and retrains, sits on the same generation
//! with the same buffered rows, and reports the same state digest — the
//! generation, the sliding window row for row and the thresholds.
//!
//! A router publishes its digest when its ingest thread exits, so each
//! batch count `n` is its own live run over the first `n` batches.

use aging_adapt::replay::replay;
use aging_adapt::{
    AdaptConfig, AdaptationStats, AdaptiveRouter, CheckpointBatch, ClassSpec, DriftConfig,
    LabelledCheckpoint, RouterConfig, ServiceClass, DEFAULT_BUS_CAPACITY,
};
use aging_dataset::Dataset;
use aging_journal::Journal;
use aging_ml::linreg::LinRegLearner;
use aging_ml::{DynLearner, Learner, Regressor};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const BATCHES: usize = 12;
const BATCH_ROWS: usize = 24;

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "aging-equivalence-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn initial_model(slope: f64) -> Arc<dyn Regressor> {
    let mut ds = Dataset::new(vec!["x".into()], "y");
    for i in 0..40 {
        ds.push_row(vec![i as f64], slope * i as f64).unwrap();
    }
    Arc::from(LinRegLearner::default().fit_boxed(&ds).unwrap())
}

fn learner() -> Arc<dyn DynLearner> {
    Arc::new(LinRegLearner::default())
}

fn config(drift_enabled: bool, retrain_every: Option<usize>) -> AdaptConfig {
    let mut builder = AdaptConfig::builder()
        .drift(if drift_enabled {
            DriftConfig {
                enabled: true,
                ewma_alpha: 0.3,
                error_threshold_secs: 120.0,
                min_observations: 10,
                trend_window: 48,
                trend_tolerance_secs: 100.0,
                trend_slope_threshold: 5.0,
                cooldown_observations: 60,
            }
        } else {
            DriftConfig::disabled()
        })
        .buffer_capacity(256)
        .min_buffer_to_retrain(30);
    if let Some(every) = retrain_every {
        builder = builder.retrain_every(every);
    }
    builder.build()
}

fn spec(drift_enabled: bool, retrain_every: Option<usize>) -> ClassSpec {
    ClassSpec::builder(learner(), initial_model(2.0))
        .config(config(drift_enabled, retrain_every))
        .build()
}

fn batch(class: &ServiceClass, seq: usize, truth: fn(f64) -> f64) -> CheckpointBatch {
    // The stale initial model is y = 2x; predictions are labelled with it,
    // so the live run and the replay see identical error streams.
    CheckpointBatch {
        source: "equiv".into(),
        class: class.clone(),
        checkpoints: (0..BATCH_ROWS)
            .map(|i| {
                let x = (seq * BATCH_ROWS + i) as f64 * 0.4;
                LabelledCheckpoint::new(vec![x], truth(x), Some(2.0 * x))
            })
            .collect(),
    }
}

/// Live side: a one-class journalled router fed the first `n` batches,
/// quiescing after each so the pooled refit is never mid-flight at a
/// trigger (the one legitimate timing difference from the synchronous
/// reference). Returns the class's final counters and state digest.
fn live_run(
    dir: &Path,
    class: &ServiceClass,
    n: usize,
    drift_enabled: bool,
    retrain_every: Option<usize>,
    truth: fn(f64) -> f64,
) -> (AdaptationStats, u64) {
    let journal = Arc::new(Journal::open(dir).unwrap());
    let router = AdaptiveRouter::builder(vec!["x".into()])
        .class(class.clone(), spec(drift_enabled, retrain_every))
        .config(RouterConfig::builder().retrainer_threads(1).build())
        .journal(Arc::clone(&journal))
        .spawn();
    let bus = router.bus();
    for seq in 0..n {
        assert!(bus.publish(batch(class, seq, truth)));
        assert!(router.quiesce(Duration::from_secs(30)), "batch {seq}: router must settle");
    }
    journal.sync().unwrap();
    let (stats, digests) = router.shutdown_with_digests();
    assert_eq!(stats.journal_errors, 0, "the live run must journal cleanly");
    let stats = *stats.class(class).expect("registered");
    let digests = digests.expect("the ingest thread publishes digests at exit");
    let digest = digests.iter().find(|(c, _)| c == class).map(|(_, d)| *d).expect("digested");
    (stats, digest)
}

/// After every batch count, the live router and the replay of its journal
/// agree on drift events, retrains, generation, buffered rows and digest.
fn assert_equivalent(drift_enabled: bool, retrain_every: Option<usize>, truth: fn(f64) -> f64) {
    let class = ServiceClass::new("only");
    let mut last = None;
    for n in 1..=BATCHES {
        let dir = tmp_dir("prefix");
        let (live, digest) = live_run(&dir, &class, n, drift_enabled, retrain_every, truth);
        let outcome = replay(
            &dir,
            vec!["x".into()],
            vec![(class.clone(), spec(drift_enabled, retrain_every))],
        )
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(outcome.rows, (n * BATCH_ROWS) as u64, "after {n} batches: journalled rows");
        let replayed = &outcome.classes[0];
        assert_eq!(live.drift_events, replayed.drift_events, "after {n} batches: drift events");
        assert_eq!(live.retrains, replayed.retrains, "after {n} batches: retrains");
        assert_eq!(live.generation, replayed.generation, "after {n} batches: generation");
        assert_eq!(live.buffered, replayed.buffered, "after {n} batches: sliding window");
        assert_eq!(digest, replayed.digest, "after {n} batches: state digest");
        last = Some(live);
    }
    let last = last.expect("at least one batch");
    assert!(
        (!drift_enabled && retrain_every.is_none()) || last.generations_published >= 1,
        "the scenario must actually exercise retraining: {last:?}"
    );
}

/// Drift-triggered retraining: a shifted regime (stale y = 2x serving
/// y = 600 − 3x) drives drift events and drift-gated retrains through
/// both actions identically.
#[test]
fn drift_triggered_router_matches_replay() {
    assert_equivalent(true, None, |x| 600.0 - 3.0 * x);
}

/// Periodic retraining with drift disabled: the schedule alone drives both
/// actions through the same retrain points.
#[test]
fn scheduled_router_matches_replay() {
    assert_equivalent(false, Some(48), |x| 5.0 * x + 50.0);
}

/// Drift and schedule together, on a stream whose errors stay quiet: only
/// the schedule fires, identically.
#[test]
fn combined_quiet_router_matches_replay() {
    assert_equivalent(true, Some(72), |x| 2.0 * x);
}

/// Fully frozen (drift disabled, no schedule): both stay on generation 0
/// with identical counters.
#[test]
fn frozen_router_matches_replay() {
    assert_equivalent(false, None, |x| 600.0 - 3.0 * x);
}

/// A router built without a [`RouterConfig`] sizes its shared ring with
/// the exported default capacity.
#[test]
fn default_bus_capacity_is_preserved() {
    let router = AdaptiveRouter::builder(vec!["x".into()])
        .class(ServiceClass::default(), spec(false, None))
        .spawn();
    assert_eq!(router.bus().capacity(), DEFAULT_BUS_CAPACITY);
    router.shutdown();
}
