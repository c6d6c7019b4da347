//! End-to-end guarantees of automatic class discovery (ISSUE 5):
//!
//! 1. with adaptation frozen (drift disabled in the seed spec), the
//!    discovered partition — class count, assignment, reassignment
//!    totals — and every instance outcome are **deterministic across
//!    shard and worker counts**;
//! 2. a two-regime fleet is separated into pure classes (no instance of
//!    one regime lands in the other's class);
//! 3. a stationary fleet is never carved up: no splits, no merges, no
//!    reassignments — the split gate holds against noise;
//! 4. `Fleet::run_routed` against a router missing one of the fleet's
//!    classes fails fast with an error naming the class, instead of
//!    silently booking every checkpoint as unrouted;
//! 5. a discovering run needs a router serving exactly one seed class;
//! 6. a routed run equals a discovering run that never splits.

use software_aging::adapt::discovery::{DiscoveryConfig, SignatureConfig};
use software_aging::adapt::{
    AdaptConfig, AdaptiveRouter, ClassSpec, DriftConfig, RouterConfig, ServiceClass,
};
use software_aging::core::{AgingPredictor, RejuvenationConfig, RejuvenationPolicy};
use software_aging::fleet::{
    DiscoverySetup, Fleet, FleetConfig, FleetError, FleetReport, InstanceSpec, SchedulerConfig,
    WorkloadShift,
};
use software_aging::ml::{LearnerKind, Regressor};
use software_aging::monitor::FeatureSet;
use software_aging::testbed::{MemLeakSpec, Scenario};
use std::sync::Arc;
use std::time::Duration;

fn leaky(name: &str, ebs: u64, n: u32) -> Scenario {
    Scenario::builder(name)
        .emulated_browsers(ebs)
        .memory_leak(MemLeakSpec::new(n))
        .run_to_crash()
        .build()
}

const POLICY: RejuvenationPolicy =
    RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };

fn fleet_config(horizon_secs: f64, shards: usize) -> FleetConfig {
    FleetConfig {
        shards,
        rejuvenation: RejuvenationConfig { horizon_secs, ..Default::default() },
        counterfactual_horizon_secs: 3600.0,
    }
}

/// A two-regime fleet with **no operator-assigned classes**: everything
/// starts in the same moderate-leak regime, but the `shift-*` instances
/// move to an aggressive leak a quarter into the horizon while the
/// `steady-*` instances never change. (The pre-shift scenario is kept
/// short-epoch so every instance completes service epochs well inside the
/// reassessment cadence — an epoch in flight keeps its scenario, so a
/// near-horizon first epoch would never even pick the shift up.)
fn unlabelled_specs(n_shift: usize, n_steady: usize, horizon_secs: f64) -> Vec<InstanceSpec> {
    let before = leaky("steady-leak", 100, 30);
    let after = leaky("fast-leak", 150, 15);
    let steady = leaky("steady-leak", 100, 30);
    let shifting = (0..n_shift).map(move |i| InstanceSpec {
        name: format!("shift-{i:03}"),
        scenario: before.clone(),
        policy: POLICY,
        seed: 5_000 + i as u64,
        shift: Some(WorkloadShift { after_secs: horizon_secs * 0.25, scenario: after.clone() }),
        class: ServiceClass::default(),
    });
    let steady = (0..n_steady).map(move |i| {
        InstanceSpec::new(format!("steady-{i:03}"), steady.clone(), POLICY, 9_000 + i as u64)
    });
    shifting.chain(steady).collect()
}

fn shared_initial_model(features: &FeatureSet) -> Arc<dyn Regressor> {
    // One blended model for the whole fleet — nobody told us about the
    // classes, so nobody trained per-class models either.
    let training =
        vec![leaky("train-45", 100, 45), leaky("train-30", 100, 30), leaky("train-125", 125, 30)];
    Arc::new(AgingPredictor::train(&training, features.clone(), 42).unwrap().model().clone())
}

/// A frozen seed spec (drift disabled): models never move, so outcomes
/// and the partition are bit-deterministic — the regime for the
/// determinism and stability suites.
fn frozen_seed(features: &FeatureSet) -> ClassSpec {
    ClassSpec::builder(LearnerKind::M5p.learner(), shared_initial_model(features))
        .config(AdaptConfig::builder().drift(DriftConfig::disabled()).build())
        .build()
}

/// A router serving one class, `class`, under the frozen seed spec.
fn frozen_router(features: &FeatureSet, class: &ServiceClass) -> AdaptiveRouter {
    AdaptiveRouter::builder(features.variables().to_vec())
        .class(class.clone(), frozen_seed(features))
        .config(RouterConfig::builder().retrainer_threads(2).build())
        .spawn()
}

fn discovery(reassess_every_epochs: u64) -> DiscoverySetup {
    DiscoverySetup {
        discovery: DiscoveryConfig { seed: 7, ..Default::default() },
        signature: SignatureConfig::default(),
        reassess_every_epochs,
    }
}

/// Runs `fleet` with discovery attached, against a frozen router whose
/// one class `discovered-0` is the seed; the router is quiesced so the
/// reported counters are settled.
fn discovering_run(fleet: Fleet, features: &FeatureSet, reassess_every_epochs: u64) -> FleetReport {
    let router = frozen_router(features, &ServiceClass::new("discovered-0"));
    let mut report = fleet
        .with_discovery(discovery(reassess_every_epochs))
        .unwrap()
        .run_routed(&router, features)
        .unwrap();
    router.quiesce(Duration::from_secs(60));
    report.routing = Some(router.shutdown());
    report
}

#[derive(Debug, PartialEq)]
struct PartitionFacts {
    assignment: Vec<String>,
    classes: Vec<(String, usize, bool)>,
    reassignments: u64,
    splits: u64,
    merges: u64,
    evaluations: u64,
}

fn partition_facts(report: &FleetReport) -> PartitionFacts {
    let discovery = report.discovery.as_ref().expect("discovered runs carry a partition");
    PartitionFacts {
        assignment: discovery.assignment.clone(),
        classes: discovery
            .classes
            .iter()
            .map(|c| (c.class.clone(), c.members, c.retired))
            .collect(),
        reassignments: discovery.reassignments,
        splits: discovery.splits,
        merges: discovery.merges,
        evaluations: discovery.evaluations,
    }
}

#[test]
fn discovered_partition_is_deterministic_across_shard_counts() {
    let features = FeatureSet::exp42();
    let horizon = 4.0 * 3600.0;
    let run = |shards: usize, workers: usize| {
        let specs = unlabelled_specs(9, 6, horizon);
        let fleet = Fleet::new(specs, fleet_config(horizon, shards))
            .unwrap()
            .with_scheduler(SchedulerConfig { workers });
        discovering_run(fleet, &features, 120)
    };
    let one = run(1, 0);
    let five = run(5, 0);
    assert_eq!(one.instances, five.instances, "sharding must not change discovered outcomes");
    assert_eq!(one.epochs, five.epochs);
    assert_eq!(
        partition_facts(&one),
        partition_facts(&five),
        "the discovered partition must be shard-independent"
    );
    // The sequential reference: one worker over the same five shards.
    let sequential = run(5, 1);
    assert_eq!(sequential.instances, five.instances, "worker count must not change outcomes");
    assert_eq!(sequential.epochs, five.epochs);
    assert_eq!(
        partition_facts(&sequential),
        partition_facts(&five),
        "the discovered partition must be worker-count-independent"
    );
}

#[test]
fn two_regimes_are_separated_into_pure_classes() {
    let features = FeatureSet::exp42();
    let horizon = 4.0 * 3600.0;
    let specs = unlabelled_specs(9, 6, horizon);
    let report =
        discovering_run(Fleet::new(specs, fleet_config(horizon, 4)).unwrap(), &features, 120);
    let discovery = report.discovery.as_ref().unwrap();
    let active = discovery.classes.iter().filter(|c| !c.retired).count();
    assert!(active >= 2, "the two regimes must be told apart: {discovery:?}");
    // Purity: every discovered class holds instances of one regime only.
    for class in discovery.classes.iter().filter(|c| c.members > 0) {
        let members: Vec<&str> = report
            .instances
            .iter()
            .filter(|i| i.class == class.class)
            .map(|i| i.name.as_str())
            .collect();
        let shifted = members.iter().filter(|n| n.starts_with("shift-")).count();
        assert!(
            shifted == 0 || shifted == members.len(),
            "class {} mixes regimes: {members:?}",
            class.class
        );
    }
    // The routed side really followed: discovered classes exist on the
    // router and ingested the re-routed traffic.
    let routing = report.routing.as_ref().unwrap();
    assert!(routing.classes.len() >= 2);
    assert_eq!(routing.unrouted_checkpoints, 0);
    assert_eq!(routing.dynamic_registrations as usize, routing.classes.len() - 1);
}

#[test]
fn stationary_fleet_is_never_carved_up() {
    let features = FeatureSet::exp42();
    let horizon = 3.0 * 3600.0;
    let scenario = leaky("steady-leak", 100, 30);
    let specs: Vec<InstanceSpec> = (0..10)
        .map(|i| InstanceSpec::new(format!("svc-{i:02}"), scenario.clone(), POLICY, 40 + i as u64))
        .collect();
    let report =
        discovering_run(Fleet::new(specs, fleet_config(horizon, 3)).unwrap(), &features, 120);
    let discovery = report.discovery.as_ref().unwrap();
    assert!(discovery.evaluations >= 3, "the engine must actually have looked: {discovery:?}");
    assert_eq!(discovery.splits, 0, "a stationary fleet must not be split: {discovery:?}");
    assert_eq!(discovery.merges, 0);
    assert_eq!(discovery.reassignments, 0, "no oscillation: {discovery:?}");
    assert_eq!(discovery.classes.len(), 1);
    assert_eq!(discovery.classes[0].members, 10);
}

/// ISSUE 5 satellite: a fleet whose spec names a class the router does not
/// serve must fail fast — at `run_routed` entry, naming the class — not
/// silently book every checkpoint as unrouted.
#[test]
fn run_routed_fails_fast_on_an_unregistered_class() {
    let features = FeatureSet::exp42();
    let scenario = leaky("leaky", 100, 30);
    let predictor =
        AgingPredictor::train(std::slice::from_ref(&scenario), features.clone(), 7).unwrap();
    let registered = ServiceClass::new("known");
    let router = AdaptiveRouter::builder(features.variables().to_vec())
        .class(
            registered.clone(),
            ClassSpec::builder(LearnerKind::LinReg.learner(), Arc::new(predictor.model().clone()))
                .config(AdaptConfig::builder().drift(DriftConfig::disabled()).build())
                .build(),
        )
        .spawn();
    let specs = vec![
        InstanceSpec::new("ok", scenario.clone(), POLICY, 1).with_class(registered),
        InstanceSpec::new("orphan", scenario, POLICY, 2).with_class("ghost-class"),
    ];
    let err = Fleet::new(specs, fleet_config(3600.0, 2))
        .unwrap()
        .run_routed(&router, &features)
        .expect_err("an unregistered class must be rejected before any epoch runs");
    match err {
        FleetError::InvalidParameter(message) => {
            assert!(
                message.contains("ghost-class"),
                "the error must name the offending class: {message}"
            );
        }
        other => panic!("unexpected error variant: {other:?}"),
    }
    let stats = router.shutdown();
    assert_eq!(stats.unrouted_checkpoints, 0, "nothing may have been published, let alone lost");
    assert_eq!(stats.ingested_checkpoints, 0);
}

/// The routed path and the discovered path are one engine: a discovered
/// run whose partition never splits (drift disabled, stationary fleet) is
/// bit-identical to a routed run on a one-class router serving the seed
/// class `discovered-0` under the same spec — same report, same
/// per-instance downtime and TTF-error sums, same checkpoints ingested by
/// the learning side.
#[test]
fn routed_run_equals_a_discovered_run_that_never_splits() {
    let features = FeatureSet::exp42();
    let horizon = 3.0 * 3600.0;
    let scenario = leaky("steady-leak", 100, 30);
    let specs: Vec<InstanceSpec> = (0..10)
        .map(|i| InstanceSpec::new(format!("svc-{i:02}"), scenario.clone(), POLICY, 40 + i as u64))
        .collect();
    let seed = ServiceClass::new("discovered-0");
    for (shards, workers) in [(1, 0), (3, 0), (3, 1), (4, 2)] {
        let fleet = Fleet::new(specs.clone(), fleet_config(horizon, shards))
            .unwrap()
            .with_scheduler(SchedulerConfig { workers });
        let discovered = discovering_run(fleet, &features, 120);
        let partition = discovered.discovery.as_ref().unwrap();
        assert_eq!(partition.splits, 0, "the oracle needs a partition that never splits");

        let router = frozen_router(&features, &seed);
        let labelled: Vec<InstanceSpec> =
            specs.iter().map(|s| s.clone().with_class(seed.clone())).collect();
        let routed = Fleet::new(labelled, fleet_config(horizon, shards))
            .unwrap()
            .with_scheduler(SchedulerConfig { workers })
            .run_routed(&router, &features)
            .unwrap();
        router.quiesce(Duration::from_secs(60));
        let routed_stats = router.shutdown();

        let label = format!("{shards} shards, {workers} workers");
        assert_eq!(routed, discovered, "{label}: reports must be equal");
        for (r, d) in routed.instances.iter().zip(&discovered.instances) {
            assert_eq!(r.downtime_secs.to_bits(), d.downtime_secs.to_bits(), "{label}");
            assert_eq!(r.ttf_error_sum_secs.to_bits(), d.ttf_error_sum_secs.to_bits(), "{label}");
        }
        let discovered_stats = discovered.routing.as_ref().unwrap();
        assert_eq!(
            routed_stats.ingested_checkpoints, discovered_stats.ingested_checkpoints,
            "{label}: the learning side must see the same stream"
        );
        eprintln!(
            "{label}: {} checkpoints, {} ingested, {} generations",
            routed.checkpoints,
            routed_stats.ingested_checkpoints,
            routed_stats.classes[0].stats.generation
        );
    }
}

/// Discovery grows the partition from the router's one class: a router
/// serving two classes (or none) is rejected before any epoch runs.
#[test]
fn discovery_needs_a_router_with_exactly_one_seed_class() {
    let features = FeatureSet::exp42();
    let scenario = leaky("leaky", 100, 30);
    let predictor =
        AgingPredictor::train(std::slice::from_ref(&scenario), features.clone(), 7).unwrap();
    let spec =
        ClassSpec::builder(LearnerKind::LinReg.learner(), Arc::new(predictor.model().clone()))
            .config(AdaptConfig::builder().drift(DriftConfig::disabled()).build())
            .build();
    let router = AdaptiveRouter::builder(features.variables().to_vec())
        .class(ServiceClass::new("a"), spec.clone())
        .class(ServiceClass::new("b"), spec)
        .spawn();
    let specs = vec![InstanceSpec::new("svc", scenario, POLICY, 1)];
    let err = Fleet::new(specs, fleet_config(3600.0, 1))
        .unwrap()
        .with_discovery(discovery(120))
        .unwrap()
        .run_routed(&router, &features)
        .expect_err("two classes leave the seed ambiguous");
    assert!(
        matches!(err, FleetError::InvalidParameter(ref m) if m.contains("exactly one")),
        "{err}"
    );
    let stats = router.shutdown();
    assert_eq!(stats.ingested_checkpoints, 0, "nothing may have run");
}
