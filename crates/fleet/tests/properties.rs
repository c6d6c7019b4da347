//! Fleet engine guarantees: determinism across runs and shard counts, and
//! exact equivalence between every fleet instance and the single-instance
//! rejuvenation study it generalises.

use aging_core::rejuvenation::evaluate_policy;
use aging_core::{AgingPredictor, RejuvenationConfig, RejuvenationPolicy, RejuvenationReport};
use aging_fleet::{Fleet, FleetConfig, FleetReport, InstanceReport, InstanceSpec};
use aging_monitor::FeatureSet;
use aging_testbed::{MemLeakSpec, Scenario};

fn crashing_scenario() -> Scenario {
    Scenario::builder("leaky")
        .emulated_browsers(100)
        .memory_leak(MemLeakSpec::new(15))
        .run_to_crash()
        .build()
}

fn trained_predictor() -> AgingPredictor {
    AgingPredictor::train(&[crashing_scenario()], FeatureSet::exp42(), 77).unwrap()
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

#[test]
fn same_seeds_and_shards_produce_identical_reports() {
    let predictor = trained_predictor();
    let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
    let run = || {
        Fleet::uniform(&crashing_scenario(), policy, 8, 100, config(4, 3.0))
            .unwrap()
            .run(predictor.model(), predictor.features())
    };
    let a = run();
    let b = run();
    // FleetReport equality covers every simulated outcome (and excludes
    // wall-clock timing, which legitimately varies).
    assert_eq!(a, b);
    // Timing is excluded from equality but must still be sane.
    for report in [&a, &b] {
        assert!(
            report.timing.checkpoints_per_sec.is_finite()
                && report.timing.checkpoints_per_sec > 0.0,
            "throughput must be finite and positive: {:?}",
            report.timing
        );
    }
    // Spot-check the strongest fields really are bit-identical.
    for (x, y) in a.instances.iter().zip(&b.instances) {
        assert_eq!(x.downtime_secs.to_bits(), y.downtime_secs.to_bits(), "{}", x.name);
        assert_eq!(x.availability.to_bits(), y.availability.to_bits(), "{}", x.name);
        assert_eq!(x.lost_requests.to_bits(), y.lost_requests.to_bits(), "{}", x.name);
    }
}

#[test]
fn reports_without_the_telemetry_field_still_deserialise() {
    let predictor = trained_predictor();
    let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
    let report = Fleet::uniform(&crashing_scenario(), policy, 2, 7, config(2, 2.0))
        .unwrap()
        .run(predictor.model(), predictor.features());
    let json = serde_json::to_string(&report).unwrap();
    assert!(json.contains("\"telemetry\":null"), "untelemetered runs serialise a null snapshot");
    // A pre-telemetry BENCH_*.json artifact is this report without the
    // field at all; `#[serde(default)]` must keep it parseable.
    let legacy = json.replace(",\"telemetry\":null", "");
    assert!(!legacy.contains("telemetry"), "the field must really be gone");
    let parsed: FleetReport = serde_json::from_str(&legacy).unwrap();
    assert_eq!(parsed, report, "legacy artifacts must parse to the same outcome");
    assert!(parsed.telemetry.is_none());
    // And the modern round trip is lossless.
    let roundtrip: FleetReport = serde_json::from_str(&json).unwrap();
    assert_eq!(roundtrip, report);
}

#[test]
fn shard_count_does_not_change_the_outcome() {
    // Instances are independent; sharding is pure parallelism. The same
    // fleet over 1, 3 and 8 shards must produce the same simulated outcome
    // (only `shards` itself and the wall-clock timing differ).
    let predictor = trained_predictor();
    let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
    let run = |shards| {
        Fleet::uniform(&crashing_scenario(), policy, 8, 2000, config(shards, 3.0))
            .unwrap()
            .run(predictor.model(), predictor.features())
    };
    let one = run(1);
    let three = run(3);
    let eight = run(8);
    assert_eq!(one.instances, three.instances);
    assert_eq!(one.instances, eight.instances);
    assert_eq!(one.crashes, eight.crashes);
    assert_eq!(one.epochs, eight.epochs, "the epoch count is shard-independent");
}

/// Asserts one fleet instance reproduces its single-instance study:
/// same crash/restart counts and bit-identical horizon, downtime,
/// availability and lost-work accounting.
fn assert_matches_study(inst: &InstanceReport, single: &RejuvenationReport, ctx: &str) {
    assert_eq!(inst.policy, single.policy, "{ctx}");
    assert_eq!(inst.crashes, single.crashes, "{ctx}");
    assert_eq!(inst.rejuvenations, single.rejuvenations, "{ctx}");
    assert_eq!(
        inst.horizon_secs.to_bits(),
        single.horizon_secs.to_bits(),
        "{ctx}: horizon {} vs {}",
        inst.horizon_secs,
        single.horizon_secs
    );
    assert_eq!(
        inst.downtime_secs.to_bits(),
        single.downtime_secs.to_bits(),
        "{ctx}: downtime {} vs {}",
        inst.downtime_secs,
        single.downtime_secs
    );
    assert_eq!(
        inst.availability.to_bits(),
        single.availability.to_bits(),
        "{ctx}: availability {} vs {}",
        inst.availability,
        single.availability
    );
    assert_eq!(
        inst.lost_requests.to_bits(),
        single.lost_requests.to_bits(),
        "{ctx}: lost work {} vs {}",
        inst.lost_requests,
        single.lost_requests
    );
}

/// A fleet must reproduce `evaluate_policy` exactly, instance by
/// instance, for every policy family: a 1-instance fleet per
/// `(policy, seed)`, and one 9-instance mixed-policy fleet holding all of
/// them at 1, 2 and 4 shards.
#[test]
fn single_instance_fleet_matches_evaluate_policy_exactly() {
    let predictor = trained_predictor();
    let scenario = crashing_scenario();
    let rejuvenation = RejuvenationConfig { horizon_secs: 4.0 * 3600.0, ..Default::default() };
    let fleet_config = |shards| FleetConfig {
        shards,
        rejuvenation,
        // The counterfactual fork adds an extra diagnostic; it must not
        // perturb the shared accounting either way, so keep it on for the
        // comparison.
        counterfactual_horizon_secs: 3600.0,
    };
    let policies = [
        (RejuvenationPolicy::Reactive, false),
        (RejuvenationPolicy::TimeBased { interval_secs: 900.0 }, false),
        (RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 }, true),
    ];
    let mut specs = Vec::new();
    let mut singles = Vec::new();
    for (policy, needs_predictor) in policies {
        for seed in [1u64, 3, 42] {
            let single = evaluate_policy(
                &scenario,
                policy,
                needs_predictor.then_some(&predictor),
                &rejuvenation,
                seed,
            )
            .unwrap();
            let name = format!("policy{}-seed{seed}", specs.len() / 3);
            let spec = InstanceSpec::new(name, scenario.clone(), policy, seed);
            let report = Fleet::new(vec![spec.clone()], fleet_config(1))
                .unwrap()
                .run(predictor.model(), predictor.features());
            assert_matches_study(&report.instances[0], &single, &format!("solo {}", spec.name));
            specs.push(spec);
            singles.push(single);
        }
    }
    for shards in [1usize, 2, 4] {
        let report = Fleet::new(specs.clone(), fleet_config(shards))
            .unwrap()
            .run(predictor.model(), predictor.features());
        assert_eq!(report.instances.len(), singles.len());
        for (inst, single) in report.instances.iter().zip(&singles) {
            assert_matches_study(inst, single, &format!("shards={shards} {}", inst.name));
        }
    }
}

#[test]
fn mixed_policy_fleet_reports_each_instance_under_its_own_policy() {
    let predictor = trained_predictor();
    let scenario = crashing_scenario();
    let specs = vec![
        InstanceSpec::new("reactive", scenario.clone(), RejuvenationPolicy::Reactive, 7),
        InstanceSpec::new(
            "time-based",
            scenario.clone(),
            RejuvenationPolicy::TimeBased { interval_secs: 900.0 },
            7,
        ),
        InstanceSpec::new(
            "predictive",
            scenario,
            RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 },
            7,
        ),
    ];
    let report =
        Fleet::new(specs, config(3, 2.0)).unwrap().run(predictor.model(), predictor.features());
    let [reactive, time_based, predictive] = &report.instances[..] else {
        panic!("expected three instance reports");
    };
    assert!(reactive.crashes >= 1);
    assert_eq!(reactive.rejuvenations, 0);
    assert_eq!(time_based.crashes, 0, "15-minute restarts pre-empt a ~40-minute TTF");
    assert!(time_based.rejuvenations >= 6);
    assert!(predictive.crashes <= reactive.crashes);
    assert!(
        predictive.rejuvenations < time_based.rejuvenations,
        "the predictive policy restarts far less often than blind time-based: {} vs {}",
        predictive.rejuvenations,
        time_based.rejuvenations
    );
}
