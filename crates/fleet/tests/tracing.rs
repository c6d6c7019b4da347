//! Flight-recorder guarantees at fleet scope: the fleet-level (unscoped)
//! event sequence is deterministic across shard counts and the sequential
//! 1-worker run's full trace across reruns (modulo timestamps), and an
//! adaptive run resolves a complete causal chain for every generation it
//! publishes.

use aging_adapt::{AdaptConfig, AdaptiveRouter, ClassSpec, DriftConfig, ServiceClass};
use aging_core::{AgingPredictor, RejuvenationConfig, RejuvenationPolicy};
use aging_fleet::{Fleet, FleetConfig, InstanceSpec, SchedulerConfig, WorkloadShift};
use aging_ml::m5p::M5pLearner;
use aging_ml::{DynLearner, Regressor};
use aging_monitor::FeatureSet;
use aging_obs::{Event, EventKind, FlightRecorder, Trace};
use aging_testbed::{MemLeakSpec, Scenario};
use std::sync::Arc;
use std::time::Duration;

fn leaky(name: &str, ebs: u64, n: u32) -> Scenario {
    Scenario::builder(name)
        .emulated_browsers(ebs)
        .memory_leak(MemLeakSpec::new(n))
        .run_to_crash()
        .build()
}

fn config(shards: usize, horizon_hours: f64) -> FleetConfig {
    FleetConfig {
        shards,
        rejuvenation: RejuvenationConfig {
            horizon_secs: horizon_hours * 3600.0,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Everything about an event except its timestamp — the comparison axis
/// for cross-run determinism.
fn shape(e: &Event) -> (String, Option<String>, Option<u32>, Option<u64>, Option<u64>) {
    (format!("{:?}", e.kind), e.class.clone(), e.shard, e.generation, e.parent)
}

/// The fleet-level events of a trace: those scoped to no class and no
/// shard.
fn unscoped(t: &Trace) -> Vec<&Event> {
    t.events.iter().filter(|e| e.class.is_none() && e.shard.is_none()).collect()
}

#[test]
fn frozen_runs_trace_identically_across_shard_counts() {
    let scenario = leaky("leaky", 100, 15);
    let predictor =
        AgingPredictor::train(std::slice::from_ref(&scenario), FeatureSet::exp42(), 77).unwrap();
    let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
    let run = |shards: usize| {
        let recorder = FlightRecorder::shared();
        let report = Fleet::uniform(&scenario, policy, 8, 100, config(shards, 3.0))
            .unwrap()
            .with_trace(Arc::clone(&recorder))
            .run(predictor.model(), predictor.features());
        (recorder.trace(), report)
    };
    let (one, report_one) = run(1);
    let (two, _) = run(2);
    let (four, _) = run(4);
    assert_eq!(one.dropped, 0);

    // Per-shard `EpochScheduled` dispatch events depend on the shard count
    // by design; the comparison axis is the unscoped, fleet-level stream.
    // A frozen fleet adapts nothing, so that stream is exactly the fleet's
    // epoch marks, one per completed epoch, in order.
    let marks = unscoped(&one);
    assert_eq!(marks.len() as u64, report_one.epochs, "one EpochCompleted per epoch");
    for (i, event) in marks.iter().enumerate() {
        assert!(
            matches!(event.kind, EventKind::EpochCompleted { epoch } if epoch == i as u64),
            "event {i} must be EpochCompleted {{ epoch: {i} }}: {event:?}"
        );
        assert!(event.parent.is_none() && event.class.is_none() && event.shard.is_none());
    }

    // Same spec + same seeds ⇒ the same event sequence no matter how the
    // fleet is sharded (timestamps excluded — wall clock legitimately
    // varies).
    let shapes = |t: &Trace| unscoped(t).into_iter().map(shape).collect::<Vec<_>>();
    assert_eq!(shapes(&one), shapes(&two), "1 vs 2 shards");
    assert_eq!(shapes(&one), shapes(&four), "1 vs 4 shards");
}

#[test]
fn same_run_traces_identically_twice() {
    let scenario = leaky("leaky", 100, 15);
    let predictor =
        AgingPredictor::train(std::slice::from_ref(&scenario), FeatureSet::exp42(), 77).unwrap();
    let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
    let run = || {
        let recorder = FlightRecorder::shared();
        // One worker runs the shard tasks in a fixed order, so the full
        // trace — per-shard dispatch chains included — is reproducible.
        Fleet::uniform(&scenario, policy, 6, 33, config(3, 2.0))
            .unwrap()
            .with_scheduler(SchedulerConfig { workers: 1 })
            .with_trace(Arc::clone(&recorder))
            .run(predictor.model(), predictor.features());
        recorder.trace().events.iter().map(shape).collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

/// The ISSUE acceptance shape at test scope: an adaptive run under a
/// workload shift retrains, and every generation it published resolves a
/// complete drift→trigger→refit→publish chain through
/// [`aging_obs::Trace::causal_chain`].
#[test]
fn adaptive_run_resolves_complete_causal_chains() {
    let features = FeatureSet::exp42();
    let before = leaky("slow-leak", 100, 75);
    let after = leaky("fast-leak", 150, 15);
    let predictor = AgingPredictor::train(
        &[leaky("train-75", 75, 75), leaky("train-100", 100, 75)],
        features.clone(),
        42,
    )
    .unwrap();
    let horizon_secs = 5.0 * 3600.0;
    let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
    let specs: Vec<InstanceSpec> = (0..12)
        .map(|i| InstanceSpec {
            name: format!("svc-{i:02}"),
            scenario: before.clone(),
            policy,
            seed: 5_000 + i as u64,
            shift: Some(WorkloadShift { after_secs: horizon_secs * 0.25, scenario: after.clone() }),
            class: Default::default(),
        })
        .collect();

    let recorder = FlightRecorder::shared();
    let learner: Arc<dyn DynLearner> = Arc::new(M5pLearner::paper_default());
    let initial: Arc<dyn Regressor> = Arc::new(predictor.model().clone());
    let class = ServiceClass::default();
    let spec = ClassSpec::builder(learner, initial)
        .config(
            AdaptConfig::builder()
                .drift(DriftConfig {
                    error_threshold_secs: 600.0,
                    min_observations: 30,
                    cooldown_observations: 90,
                    ..Default::default()
                })
                .buffer_capacity(2048)
                .min_buffer_to_retrain(90)
                .build(),
        )
        .build();
    let router = AdaptiveRouter::builder(features.variables().to_vec())
        .class(class.clone(), spec)
        .trace(Arc::clone(&recorder))
        .spawn();

    let fleet_config = FleetConfig {
        shards: 2,
        rejuvenation: RejuvenationConfig { horizon_secs, ..Default::default() },
        ..Default::default()
    };
    Fleet::new(specs, fleet_config)
        .unwrap()
        .with_trace(Arc::clone(&recorder))
        .run_routed(&router, &features)
        .unwrap();
    assert!(router.quiesce(Duration::from_secs(30)), "the retrainer must drain");
    let stats = *router.shutdown().class(&class).expect("the one class is registered");
    assert!(stats.generations_published > 0, "the shift must force a retrain: {stats:?}");

    let trace = recorder.trace();
    assert_eq!(trace.dropped, 0, "a short run must not overflow the default ring");
    let publishes = trace.publishes(class.as_str());
    assert_eq!(publishes.len() as u64, stats.generations_published);
    for publish in &publishes {
        let generation = publish.generation.expect("publishes carry a generation");
        let chain = trace.causal_chain(class.as_str(), generation);
        let has = |pred: fn(&EventKind) -> bool| chain.iter().any(|e| pred(&e.kind));
        assert!(
            has(|k| matches!(k, EventKind::DriftObserved { .. } | EventKind::TriggerArmed { .. })),
            "gen {generation}: chain must root in drift or an armed trigger: {chain:#?}"
        );
        assert!(
            has(|k| matches!(k, EventKind::TriggerFired { .. })),
            "gen {generation}: chain must record the trigger firing: {chain:#?}"
        );
        assert!(
            has(|k| matches!(k, EventKind::RefitStarted { .. }))
                && has(|k| matches!(k, EventKind::RefitFinished { ok: true })),
            "gen {generation}: chain must span the refit: {chain:#?}"
        );
        // When a shard pinned this generation, its swap must parent on
        // the publish and land in the chain.
        let swapped = trace
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::SwapApplied) && e.generation == Some(generation));
        assert!(
            !swapped || has(|k| matches!(k, EventKind::SwapApplied)),
            "gen {generation}: applied swaps must ride the chain: {chain:#?}"
        );
    }
    // At least one published generation was actually pinned by a worker
    // mid-run — the audit trail reaches the shard that consumed the model.
    assert!(
        trace.events.iter().any(|e| matches!(e.kind, EventKind::SwapApplied)),
        "some published generation must have been swapped into a shard"
    );
}
