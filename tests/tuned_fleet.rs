//! End-to-end guarantees of self-optimising policy search (ISSUE 9
//! acceptance):
//!
//! 1. on a journalled two-class run recorded under a deliberately
//!    *detuned* policy (drift off, no retrain schedule, a stale model),
//!    [`Tuner::search`] finds — and the gate promotes — a configuration
//!    whose replayed mean TTF error beats the detuned incumbent by
//!    ≥ 20 %;
//! 2. the search is bit-reproducible: same seed, same journal, same
//!    incumbent ⇒ the same [`SearchOutcome`], candidate for candidate;
//! 3. a live fleet run with a [`FleetTuner`] attached whose gate can
//!    never fire is report-identical to the same run without a tuner —
//!    attaching the machinery is free until a promotion actually lands;
//! 4. a tuner attached to a run with class discovery runs beside it like
//!    on any routed run.

use software_aging::adapt::{
    AdaptConfig, AdaptiveRouter, CheckpointBatch, ClassSpec, DriftConfig, LabelledCheckpoint,
    RouterConfig, ServiceClass,
};
use software_aging::core::{AgingPredictor, RejuvenationConfig, RejuvenationPolicy};
use software_aging::dataset::Dataset;
use software_aging::fleet::{DiscoverySetup, Fleet, FleetConfig, InstanceSpec};
use software_aging::journal::{Journal, JournalCheckpoint, JournalRecord};
use software_aging::ml::linreg::LinRegLearner;
use software_aging::ml::{Learner, LearnerKind, Regressor};
use software_aging::monitor::FeatureSet;
use software_aging::testbed::{MemLeakSpec, Scenario};
use software_aging::tune::{FleetTuner, PolicyPoint, TuneConfig, TunedClass, Tuner};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "aging-tune-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn line_model(slope: f64) -> Arc<dyn Regressor> {
    let mut ds = Dataset::new(vec!["x".into()], "y");
    for i in 0..30 {
        ds.push_row(vec![i as f64], slope * i as f64).unwrap();
    }
    Arc::from(LinRegLearner::default().fit_boxed(&ds).unwrap())
}

/// The recording spec: the policy equivalent of [`detuned_point`] — drift
/// off, no schedule, so the stale model is never replaced.
fn detuned_spec(slope: f64) -> ClassSpec {
    ClassSpec::builder(Arc::new(LinRegLearner::default()), line_model(slope))
        .config(
            AdaptConfig::builder()
                .drift(DriftConfig::disabled())
                .buffer_capacity(512)
                .min_buffer_to_retrain(40)
                .build(),
        )
        .build()
}

/// The detuned incumbent as a search point: adaptation entirely off.
fn detuned_point() -> PolicyPoint {
    PolicyPoint {
        learner: LearnerKind::LinReg,
        drift_enabled: false,
        retrain_every: None,
        ..Default::default()
    }
}

fn batch(
    class: &ServiceClass,
    xs: impl IntoIterator<Item = (f64, f64, Option<f64>)>,
) -> CheckpointBatch {
    CheckpointBatch {
        source: format!("src-{class}"),
        class: class.clone(),
        checkpoints: xs
            .into_iter()
            .map(|(x, y, pred)| LabelledCheckpoint::new(vec![x], y, pred))
            .collect(),
    }
}

// Enough rows that candidates with workspace-default retrain gates
// (min_buffer_to_retrain = 200) actually get to retrain mid-replay.
const CHUNKS: u64 = 12;
const CHUNK_ROWS: u64 = 64;

/// Journals a two-class detuned run: the "leak" class's truth is
/// `y = 500 − 2x` while its stale model insists `y = 2x` (every batch a
/// misprediction, nothing ever retrains); the "stable" class tracks its
/// model exactly. Exactly the stream a search must rescue.
fn record_detuned_run(dir: &Path) -> (ServiceClass, ServiceClass) {
    let (a, b) = (ServiceClass::new("leak"), ServiceClass::new("stable"));
    let journal = Arc::new(Journal::open(dir).unwrap());
    let router = AdaptiveRouter::builder(vec!["x".into()])
        .config(RouterConfig::builder().retrainer_threads(2).bus_capacity(128).build())
        .journal(Arc::clone(&journal))
        .class(a.clone(), detuned_spec(2.0))
        .class(b.clone(), detuned_spec(1.0))
        .spawn();
    let bus = router.bus();
    for chunk in 0..CHUNKS {
        let xs: Vec<f64> = (0..CHUNK_ROWS).map(|i| (chunk * CHUNK_ROWS + i) as f64).collect();
        assert!(bus.publish(batch(&a, xs.iter().map(|&x| (x, 500.0 - 2.0 * x, Some(2.0 * x))))));
        assert!(bus.publish(batch(&b, xs.iter().map(|&x| (x, x, Some(x))))));
        assert!(router.quiesce(Duration::from_secs(30)), "chunk {chunk} must settle");
    }
    journal.sync().unwrap();
    let stats = router.shutdown();
    assert_eq!(stats.journal_errors, 0, "recording must journal cleanly");
    assert!(
        stats.classes.iter().all(|c| c.stats.generation == 0),
        "the detuned policy must never retrain — that is the point: {stats:?}"
    );
    (a, b)
}

fn leak_evaluator(dir: &Path, class: &ServiceClass) -> software_aging::tune::Evaluator {
    software_aging::tune::Evaluator::new(
        dir.to_path_buf(),
        vec!["x".into()],
        class.clone(),
        line_model(2.0),
    )
}

#[test]
fn search_promotes_a_policy_beating_the_detuned_incumbent_by_20_percent() {
    let dir = tmp_dir("beats");
    let (leak, _) = record_detuned_run(&dir);
    let evaluator = leak_evaluator(&dir, &leak);
    let detuned = detuned_point();

    // The incumbent really is bad: every one of the 192 rows scored,
    // none ever corrected by a retrain.
    let incumbent = evaluator.evaluate(&detuned).unwrap();
    assert_eq!(incumbent.scored_rows, CHUNKS * CHUNK_ROWS);
    assert_eq!(incumbent.retrains, 0, "the detuned point must not retrain");
    assert!(incumbent.objective_secs > 100.0, "the stale model must hurt: {incumbent:?}");

    let outcome = Tuner::new(TuneConfig::default()).search(&evaluator, &detuned).unwrap();
    assert!(outcome.promoted, "the winner must clear the promotion gate: {outcome:?}");
    let improvement = outcome.improvement.expect("both objectives finite");
    assert!(
        improvement >= 0.20,
        "the promoted policy must beat the detuned incumbent by ≥ 20 %, got {:.1} % \
         ({:?} → {:?})",
        improvement * 100.0,
        outcome.incumbent_objective_secs,
        outcome.best_objective_secs,
    );
    // What the search actually discovered: turning adaptation back on.
    let winner = evaluator.evaluate(&outcome.best).unwrap();
    assert!(winner.retrains >= 1, "the winner must retrain its way off the stale model");
}

#[test]
fn search_is_bit_reproducible_for_a_fixed_seed() {
    let dir = tmp_dir("repro");
    let (leak, _) = record_detuned_run(&dir);
    let evaluator = leak_evaluator(&dir, &leak);
    let detuned = detuned_point();

    let config = TuneConfig { seed: 7, verify_digest_stability: true, ..Default::default() };
    let first = Tuner::new(config.clone()).search(&evaluator, &detuned).unwrap();
    let second = Tuner::new(config).search(&evaluator, &detuned).unwrap();
    // The entire outcome — trajectory, acceptances, operator weights —
    // must match candidate for candidate, not just the final point.
    assert_eq!(first, second, "same seed + same journal + same incumbent ⇒ same search");
    assert!(
        first.candidates.iter().all(|c| c.objective_secs.is_some()),
        "every candidate must double-replay to a stable digest: {:?}",
        first.candidates
    );
}

/// A journal whose labels are *exactly* the incumbent model's own
/// predictions: the incumbent replays to a mean error of exactly zero,
/// and since objectives are non-negative and the gate comparison is
/// strict, no candidate can ever be promoted off it.
fn unbeatable_journal(dir: &Path, class: &ServiceClass, model: &Arc<dyn Regressor>) {
    let journal = Journal::open(dir).unwrap();
    for chunk in 0..4u64 {
        let rows = (0..16u64)
            .map(|i| {
                let x = (chunk * 16 + i) as f64;
                let label = model.predict(&[x]);
                JournalCheckpoint {
                    features: vec![x],
                    ttf_secs: label,
                    predicted_ttf_secs: Some(label),
                    predicted_generation: Some(0),
                    monitor_only: false,
                }
            })
            .collect();
        journal
            .append(&JournalRecord::Checkpoints { class: class.as_str().to_string(), rows })
            .unwrap();
    }
    journal.sync().unwrap();
}

#[test]
fn a_tuner_whose_gate_never_fires_leaves_the_fleet_report_identical() {
    let features = FeatureSet::exp42();
    let horizon = 2.0 * 3600.0;
    let config = FleetConfig {
        shards: 2,
        rejuvenation: RejuvenationConfig { horizon_secs: horizon, ..Default::default() },
        counterfactual_horizon_secs: 3600.0,
    };
    let scenario = Scenario::builder("steady-leak")
        .emulated_browsers(100)
        .memory_leak(MemLeakSpec::new(30))
        .run_to_crash()
        .build();
    let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
    let specs: Vec<InstanceSpec> = (0..6)
        .map(|i| {
            InstanceSpec::new(format!("svc-{i:03}"), scenario.clone(), policy, 9_000 + i)
                .with_class("steady")
        })
        .collect();
    let initial: Arc<dyn Regressor> = {
        let training = Scenario::builder("steady-train")
            .emulated_browsers(100)
            .memory_leak(MemLeakSpec::new(45))
            .run_to_crash()
            .build();
        let predictor = AgingPredictor::train(&[training], features.clone(), 42).unwrap();
        Arc::new(predictor.model().clone())
    };
    let steady = ServiceClass::new("steady");
    let spawn_router = || {
        AdaptiveRouter::builder(features.variables().to_vec())
            .class(
                steady.clone(),
                ClassSpec::builder(LearnerKind::M5p.learner(), Arc::clone(&initial))
                    .config(AdaptConfig::builder().drift(DriftConfig::disabled()).build())
                    .build(),
            )
            .config(RouterConfig::builder().retrainer_threads(2).build())
            .spawn()
    };

    // Baseline: no tuner.
    let router = spawn_router();
    let untuned =
        Fleet::new(specs.clone(), config).unwrap().run_routed(&router, &features).unwrap();
    router.shutdown();

    // Same run with a live tuner grinding rounds against a journal its
    // gate mathematically cannot win on (incumbent objective is 0).
    let tuner_dir = tmp_dir("unbeatable");
    let tuner_model = line_model(2.0);
    unbeatable_journal(&tuner_dir, &steady, &tuner_model);
    let tuner = FleetTuner::new(
        &tuner_dir,
        vec!["x".into()],
        TuneConfig::default(),
        vec![TunedClass {
            class: steady.clone(),
            incumbent: detuned_point(),
            initial: tuner_model,
        }],
    );
    let router = spawn_router();
    let tuned = Fleet::new(specs, config)
        .unwrap()
        .with_tuner(tuner)
        .run_routed(&router, &features)
        .unwrap();
    let stats = router.stats();
    router.shutdown();

    let tuning = tuned.tuning.as_ref().expect("the tuner ran and left its stats");
    assert_eq!(tuning.promotions, 0, "a zero-error incumbent is unbeatable: {tuning:?}");
    assert_eq!(stats.applied_specs, 0, "no promotion, no live spec swap");
    assert_eq!(
        untuned, tuned,
        "with the gate never firing, the tuned run must be report-identical"
    );
}

/// Discovery is a setup option of the one live path, so a tuner attached
/// to a discovering run is started, stepped and joined like on any routed
/// run: the report carries its stats.
#[test]
fn a_tuner_runs_beside_class_discovery() {
    let features = FeatureSet::exp42();
    let horizon = 2.0 * 3600.0;
    let config = FleetConfig {
        shards: 2,
        rejuvenation: RejuvenationConfig { horizon_secs: horizon, ..Default::default() },
        counterfactual_horizon_secs: 3600.0,
    };
    let scenario = Scenario::builder("steady-leak")
        .emulated_browsers(100)
        .memory_leak(MemLeakSpec::new(30))
        .run_to_crash()
        .build();
    let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
    let specs: Vec<InstanceSpec> = (0..4)
        .map(|i| InstanceSpec::new(format!("svc-{i:03}"), scenario.clone(), policy, 700 + i))
        .collect();
    let initial: Arc<dyn Regressor> = Arc::new(
        AgingPredictor::train(std::slice::from_ref(&scenario), features.clone(), 42)
            .unwrap()
            .model()
            .clone(),
    );
    let dir = tmp_dir("discovery");
    let journal = Arc::new(Journal::open(&dir).unwrap());
    let seed = ServiceClass::new("discovered-0");
    let router = AdaptiveRouter::builder(features.variables().to_vec())
        .class(
            seed.clone(),
            ClassSpec::builder(LearnerKind::LinReg.learner(), Arc::clone(&initial))
                .config(AdaptConfig::builder().drift(DriftConfig::disabled()).build())
                .build(),
        )
        .journal(Arc::clone(&journal))
        .spawn();
    let tuner = FleetTuner::new(
        &dir,
        features.variables().to_vec(),
        TuneConfig { candidates: 2, ..TuneConfig::default() },
        vec![TunedClass { class: seed, incumbent: detuned_point(), initial }],
    );
    let report = Fleet::new(specs, config)
        .unwrap()
        .with_journal(journal)
        .with_tuner(tuner)
        .with_discovery(DiscoverySetup { reassess_every_epochs: 60, ..Default::default() })
        .unwrap()
        .run_routed(&router, &features)
        .unwrap();
    router.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(report.discovery.is_some(), "discovery ran");
    assert!(report.tuning.is_some(), "the tuner must run beside a discovering fleet");
}
