//! End-to-end guarantees of the adaptation subsystem on a homogeneous
//! fleet, adapted live by a one-class `AdaptiveRouter`:
//!
//! 1. under an injected workload shift, the adaptive fleet achieves a
//!    lower mean TTF prediction error than the frozen-model fleet on the
//!    same seeds, while the retrainer runs concurrently with (never
//!    pausing) the worker pool;
//! 2. with drift triggering disabled, a one-instance `run_routed` still
//!    reproduces the single-instance `evaluate_policy` field for field.
//!    (The fleet-wide drift-disabled identity with the frozen engine is
//!    `hetero_fleet::single_class_routed_run_is_bit_identical_to_the_frozen_engine`.)

use software_aging::adapt::{
    AdaptConfig, AdaptationStats, AdaptiveRouter, ClassSpec, DriftConfig, RouterStats, ServiceClass,
};
use software_aging::core::rejuvenation::evaluate_policy;
use software_aging::core::{AgingPredictor, RejuvenationConfig, RejuvenationPolicy};
use software_aging::fleet::{Fleet, FleetConfig, InstanceSpec, WorkloadShift};
use software_aging::ml::m5p::M5pLearner;
use software_aging::ml::{DynLearner, Regressor};
use software_aging::monitor::FeatureSet;
use software_aging::testbed::{MemLeakSpec, Scenario};
use std::sync::Arc;

fn leaky(name: &str, ebs: u64, n: u32) -> Scenario {
    Scenario::builder(name)
        .emulated_browsers(ebs)
        .memory_leak(MemLeakSpec::new(n))
        .run_to_crash()
        .build()
}

/// The shifting fleet: trained on slow leaks, shifted onto a fast leak a
/// quarter into the horizon.
fn shifting_specs(n: usize, horizon_secs: f64) -> Vec<InstanceSpec> {
    let before = leaky("slow-leak", 100, 75);
    let after = leaky("fast-leak", 150, 15);
    let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
    (0..n)
        .map(|i| InstanceSpec {
            name: format!("svc-{i:03}"),
            scenario: before.clone(),
            policy,
            seed: 5_000 + i as u64,
            shift: Some(WorkloadShift { after_secs: horizon_secs * 0.25, scenario: after.clone() }),
            class: Default::default(),
        })
        .collect()
}

fn fleet_config(horizon_secs: f64) -> FleetConfig {
    FleetConfig {
        shards: 4,
        rejuvenation: RejuvenationConfig { horizon_secs, ..Default::default() },
        counterfactual_horizon_secs: 3600.0,
    }
}

/// A router with the one class every spec here carries (the default),
/// serving `predictor`'s model as generation 0 and refitting M5P.
fn one_class_router(
    predictor: &AgingPredictor,
    features: &FeatureSet,
    config: AdaptConfig,
) -> AdaptiveRouter {
    let learner: Arc<dyn DynLearner> = Arc::new(M5pLearner::paper_default());
    let initial: Arc<dyn Regressor> = Arc::new(predictor.model().clone());
    AdaptiveRouter::builder(features.variables().to_vec())
        .class(ServiceClass::default(), ClassSpec::builder(learner, initial).config(config).build())
        .spawn()
}

fn only_class(stats: &RouterStats) -> AdaptationStats {
    *stats.class(&ServiceClass::default()).expect("the one class is registered")
}

fn slow_regime_predictor(features: &FeatureSet) -> AgingPredictor {
    let training = vec![
        leaky("train-75eb", 75, 75),
        leaky("train-100eb", 100, 75),
        leaky("train-125eb", 125, 75),
    ];
    AgingPredictor::train(&training, features.clone(), 42).unwrap()
}

#[test]
fn adaptive_fleet_beats_frozen_model_under_workload_shift() {
    let features = FeatureSet::exp42();
    let predictor = slow_regime_predictor(&features);
    let horizon = 6.0 * 3600.0;
    let n_instances = 24;
    let config = fleet_config(horizon);

    // Frozen run: the stale model rides out the shift.
    let frozen = Fleet::new(shifting_specs(n_instances, horizon), config)
        .unwrap()
        .run(predictor.model(), predictor.features());
    assert!(
        frozen.ttf_error_count > 0,
        "the shifted fleet must produce labelled prediction errors: {frozen}"
    );

    // Adaptive run: same specs and seeds, model served by the router.
    let router = one_class_router(
        &predictor,
        &features,
        AdaptConfig::builder()
            .drift(DriftConfig {
                error_threshold_secs: 600.0,
                min_observations: 40,
                cooldown_observations: 120,
                ..Default::default()
            })
            .buffer_capacity(2048)
            .min_buffer_to_retrain(120)
            .build(),
    );
    let adaptive = Fleet::new(shifting_specs(n_instances, horizon), config)
        .unwrap()
        .run_routed(&router, &features)
        .unwrap();
    let stats = only_class(&router.shutdown());

    // Retraining happened, concurrently with the run (the report is built
    // while the router is still live, and the fleet completed its whole
    // horizon without the workers ever blocking on training).
    assert!(stats.drift_events >= 1, "the shift must register as drift: {stats:?}");
    assert!(stats.retrains >= 1, "drift must trigger retraining: {stats:?}");
    assert!(stats.generations_published >= 1, "retrains must publish generations: {stats:?}");
    let run_stats = only_class(adaptive.routing.as_ref().expect("routed runs carry router stats"));
    assert!(run_stats.ingested_checkpoints > 0, "shards must stream labelled checkpoints");
    assert_eq!(adaptive.instances.len(), n_instances);

    // The paper's claim, fleet-scale: adapting to the shifted regime gives
    // strictly lower mean TTF prediction error than the frozen model.
    assert!(
        adaptive.mean_ttf_error_secs < frozen.mean_ttf_error_secs,
        "adaptive error {:.0}s must beat frozen error {:.0}s (stats {:?})",
        adaptive.mean_ttf_error_secs,
        frozen.mean_ttf_error_secs,
        stats
    );
}

/// Single-instance parity: the adaptive path with drift disabled still
/// reproduces `evaluate_policy` field for field (extending the
/// frozen-engine guarantee to the router-backed engine).
#[test]
fn single_instance_adaptive_parity_with_evaluate_policy() {
    let features = FeatureSet::exp42();
    let scenario = leaky("leaky", 100, 15);
    let predictor =
        AgingPredictor::train(std::slice::from_ref(&scenario), features.clone(), 77).unwrap();
    let rejuvenation = RejuvenationConfig { horizon_secs: 4.0 * 3600.0, ..Default::default() };
    let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };

    for seed in [1u64, 42] {
        let single =
            evaluate_policy(&scenario, policy, Some(&predictor), &rejuvenation, seed).unwrap();

        let router = one_class_router(
            &predictor,
            &features,
            AdaptConfig::builder().drift(DriftConfig::disabled()).build(),
        );
        let config = FleetConfig { shards: 1, rejuvenation, counterfactual_horizon_secs: 3600.0 };
        let report =
            Fleet::new(vec![InstanceSpec::new("solo", scenario.clone(), policy, seed)], config)
                .unwrap()
                .run_routed(&router, &features)
                .unwrap();
        assert_eq!(only_class(&router.shutdown()).generations_published, 0);

        let inst = &report.instances[0];
        assert_eq!(inst.crashes, single.crashes, "seed {seed}");
        assert_eq!(inst.rejuvenations, single.rejuvenations, "seed {seed}");
        assert_eq!(inst.downtime_secs.to_bits(), single.downtime_secs.to_bits(), "seed {seed}");
        assert_eq!(inst.availability.to_bits(), single.availability.to_bits(), "seed {seed}");
        assert_eq!(inst.lost_requests.to_bits(), single.lost_requests.to_bits(), "seed {seed}");
    }
}
