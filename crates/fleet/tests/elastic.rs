//! Elastic-engine guarantees: worker and shard counts are pure
//! parallelism (every configuration reproduces the sequential 1-worker
//! run bit-exactly), churn runs are bit-reproducible for a fixed seed, and
//! the elastic report fields stay backward-compatible with pre-elastic
//! artifacts.

use aging_core::{AgingPredictor, RejuvenationConfig, RejuvenationPolicy};
use aging_fleet::{
    AutoscaleRule, ChurnPlan, Fleet, FleetConfig, FleetReport, InstanceSpec, SchedulerConfig,
};
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

/// The sequential reference: on a churn-free fleet, every worker count
/// must reproduce the 1-worker run at the same shard count bit-exactly —
/// same epochs, same per-instance accounting, same everything equality
/// covers — and every shard count must reproduce the 1-shard run.
#[test]
fn churn_free_runs_match_the_one_worker_run_bit_exactly() {
    let predictor = trained_predictor();
    let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
    let run = |shards: usize, scheduler: SchedulerConfig| {
        Fleet::uniform(&crashing_scenario(), policy, 8, 100, config(shards, 3.0))
            .unwrap()
            .with_scheduler(scheduler)
            .run(predictor.model(), predictor.features())
    };
    let sequential = SchedulerConfig { workers: 1 };
    let one_shard = run(1, sequential);
    for shards in [1usize, 2, 4] {
        let reference = run(shards, sequential);
        assert_eq!(reference.scheduler.expect("every run carries scheduler stats").workers, 1);
        for scheduler in [SchedulerConfig::default(), SchedulerConfig { workers: 2 }] {
            let scheduled = run(shards, scheduler);
            assert_eq!(
                scheduled, reference,
                "shards={shards} scheduler={scheduler:?}: must match the 1-worker run"
            );
            assert_eq!(scheduled.instances, one_shard.instances, "shards={shards} vs 1 shard");
            // Bit-level spot checks on the strongest fields, belt and
            // braces over derived `PartialEq`.
            for baseline in [&reference, &one_shard] {
                for (s, l) in scheduled.instances.iter().zip(&baseline.instances) {
                    assert_eq!(s.downtime_secs.to_bits(), l.downtime_secs.to_bits(), "{}", s.name);
                    assert_eq!(s.availability.to_bits(), l.availability.to_bits(), "{}", s.name);
                    assert_eq!(s.joined_epoch, l.joined_epoch, "{}", s.name);
                    assert_eq!(s.retired_epoch, l.retired_epoch, "{}", s.name);
                }
                assert_eq!(scheduled.epochs, baseline.epochs, "shards={shards}");
            }
            // Execution stats are excluded from equality — they describe
            // the engine, not the fleet.
            let stats = scheduled.scheduler.expect("every run carries scheduler stats");
            assert!(stats.shard_tasks > 0);
        }
    }
}

fn churn_fleet(scenario: &Scenario, shards: usize) -> Fleet {
    let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
    let spec = |name: &str, seed| InstanceSpec::new(name, scenario.clone(), policy, seed);
    let specs: Vec<InstanceSpec> = (0..6).map(|i| spec(&format!("web-{i}"), 100 + i)).collect();
    let plan = ChurnPlan::new()
        .join(40, spec("late-0", 900))
        .join(40, spec("late-1", 901))
        .join(120, spec("late-2", 902))
        .retire(80, "web-1")
        .retire(80, "late-0")
        .retire(200, "web-4")
        .autoscale(AutoscaleRule {
            evaluate_every_epochs: 60,
            min_live: 6,
            max_spawns: 4,
            template: spec("spare", 1000),
        });
    Fleet::new(specs, config(shards, 3.0)).unwrap().with_churn(plan).unwrap()
}

/// A churn run — scripted joins and retires plus autoscaling — must be
/// bit-reproducible for a fixed seed, including the churn accounting
/// (which *is* part of report equality).
#[test]
fn churn_run_is_bit_reproducible_for_a_fixed_seed() {
    let predictor = trained_predictor();
    let scenario = crashing_scenario();
    let a = churn_fleet(&scenario, 3).run(predictor.model(), predictor.features());
    let b = churn_fleet(&scenario, 3).run(predictor.model(), predictor.features());
    assert_eq!(a, b, "fixed seeds must make churn runs bit-reproducible");
    let churn = a.churn.expect("churn plans report churn stats");
    assert_eq!(churn, b.churn.unwrap());
    assert_eq!(churn.scripted_joins, 3, "{churn:?}");
    assert_eq!(churn.scripted_retires, 3, "{churn:?}");
    assert!(churn.peak_live >= 6, "{churn:?}");
    // Membership lands in the per-instance accounting too.
    let by_name = |name: &str| {
        a.instances.iter().find(|i| i.name == name).unwrap_or_else(|| panic!("{name} reported"))
    };
    assert_eq!(a.instances.len() as u64, 6 + 3 + churn.autoscale_spawns);
    assert_eq!(by_name("web-0").joined_epoch, 0);
    assert_eq!(by_name("late-0").joined_epoch, 40);
    assert_eq!(by_name("late-0").retired_epoch, Some(80), "scripted retire at 80");
    assert_eq!(by_name("web-1").retired_epoch, Some(80), "scripted retire at 80");
    // The forced retires pull the live population under the autoscale
    // floor, so spares must have spawned at a later boundary.
    assert!(churn.autoscale_spawns > 0, "{churn:?}");
    let spawn = a.instances.iter().find(|i| i.name.starts_with("spare-as")).unwrap();
    assert!(spawn.joined_epoch > 0 && spawn.joined_epoch % 60 == 0, "{spawn:?}");
}

/// Shard count is still pure parallelism under churn: membership changes
/// land at fixed epochs on deterministic shards, so the simulated outcome
/// is shard-count-invariant.
#[test]
fn churn_outcome_is_shard_count_invariant() {
    let predictor = trained_predictor();
    let scenario = crashing_scenario();
    let one = churn_fleet(&scenario, 1).run(predictor.model(), predictor.features());
    let three = churn_fleet(&scenario, 3).run(predictor.model(), predictor.features());
    assert_eq!(one.instances, three.instances);
    assert_eq!(one.churn, three.churn);
    assert_eq!(one.epochs, three.epochs);
}

/// Serde back-compat (the fixture half of the oracle): a pre-elastic
/// `BENCH_*.json` report — no `churn`/`scheduler` report fields, no
/// `joined_epoch`/`retired_epoch` instance fields — must still
/// deserialise via `#[serde(default)]`. Old reports also carry the
/// retired single-service `adaptation` section, which must be skipped.
#[test]
fn pre_elastic_reports_still_deserialise() {
    let predictor = trained_predictor();
    let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
    let report = Fleet::uniform(&crashing_scenario(), policy, 2, 7, config(2, 2.0))
        .unwrap()
        .run(predictor.model(), predictor.features());
    let json = serde_json::to_string(&report).unwrap();
    assert!(json.contains("\"churn\":null"), "plain runs serialise null churn");
    assert!(json.contains("\"scheduler\":{"), "every run serialises its scheduler stats");
    assert!(json.contains("\"joined_epoch\":0"));
    // A pre-elastic artifact is this JSON with the elastic fields absent
    // altogether. Strip them the way the old serialiser never wrote them.
    let mut legacy = json.replace(",\"churn\":null", "");
    let at = legacy.find(",\"scheduler\":{").expect("scheduler object present");
    let end = at + legacy[at..].find('}').expect("scheduler object terminated");
    legacy.replace_range(at..=end, "");
    legacy = legacy.replace(",\"joined_epoch\":0", "");
    while let Some(at) = legacy.find(",\"retired_epoch\":") {
        let rest = &legacy[at + 1..];
        let end = rest.find([',', '}']).expect("value terminated");
        legacy.replace_range(at..at + 1 + end, "");
    }
    for field in ["churn", "scheduler", "joined_epoch", "retired_epoch"] {
        assert!(!legacy.contains(field), "field {field} must really be gone");
    }
    // The old serialiser wrote the single-service adaptation counters just
    // before `routing`; the field no longer exists and must be ignored.
    assert!(!json.contains("\"adaptation\""), "the field is gone from new reports");
    legacy = legacy.replacen(
        ",\"routing\":",
        ",\"adaptation\":{\"ingested_checkpoints\":377,\"drift_events\":3,\"retrains\":2,\
         \"failed_retrains\":0,\"generations_published\":2,\"generation\":2,\"buffered\":377,\
         \"dropped_checkpoints\":0,\"error_ewma_secs\":548.5,\
         \"effective_error_threshold_secs\":600.0,\
         \"effective_rejuvenation_threshold_secs\":null},\"routing\":",
        1,
    );
    assert!(legacy.contains("\"adaptation\":{"), "the legacy fixture carries the section");
    let parsed: FleetReport = serde_json::from_str(&legacy).unwrap();
    assert!(parsed.churn.is_none() && parsed.scheduler.is_none());
    // Everything the old report carried parses to the same values; the
    // defaulted membership fields read as epoch-0 joins, never retired.
    assert_eq!(parsed.epochs, report.epochs);
    assert_eq!(parsed.crashes, report.crashes);
    assert_eq!(parsed.instances.len(), report.instances.len());
    for (p, r) in parsed.instances.iter().zip(&report.instances) {
        assert_eq!(p.name, r.name);
        assert_eq!(p.availability.to_bits(), r.availability.to_bits());
        assert_eq!(p.joined_epoch, 0);
        assert_eq!(p.retired_epoch, None);
    }
    // And the modern round trip is lossless.
    let roundtrip: FleetReport = serde_json::from_str(&json).unwrap();
    assert_eq!(roundtrip, report);
}

/// The elastic engine's observability: live-population gauge, scheduler
/// queue-depth histogram and the leader-window histogram land in the
/// report's telemetry snapshot.
#[test]
fn elastic_telemetry_lands_in_the_report() {
    let predictor = trained_predictor();
    let registry = aging_obs::Registry::shared();
    let report = churn_fleet(&crashing_scenario(), 2)
        .with_telemetry(std::sync::Arc::clone(&registry))
        .run(predictor.model(), predictor.features());
    let telemetry = report.telemetry.as_ref().expect("registry attached");
    assert_eq!(telemetry.counter("fleet_epochs_total", None), Some(report.epochs));
    let depth = telemetry.histogram("fleet_scheduler_queue_depth", None).expect("queue depth");
    assert!(depth.count > 0, "every dequeue records the queue depth");
    let gauge = telemetry.gauge("fleet_instances_live", None).expect("live gauge");
    assert_eq!(gauge as u64, report.churn.unwrap().final_live, "gauge holds the final population");
    let leader = telemetry.histogram("fleet_leader_step_seconds", None).expect("leader window");
    assert_eq!(leader.count, report.scheduler.unwrap().leader_steps, "one sample per leader step");
}
