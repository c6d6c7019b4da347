//! Fleet-scale operation: simulated deployments with mixed workloads and
//! leak severities, sharded across worker threads, monitored and
//! proactively rejuvenated by one shared M5P model.
//!
//! ```text
//! cargo run --release --example fleet [-- --instances 120 --shards 6 \
//!     --hours 12 --json [PATH] --metrics [PATH] --trace [PATH]]
//! ```
//!
//! `--json` writes the machine-readable [`FleetReport`] (default path
//! `BENCH_fleet.json`) so bench trajectories can be tracked across
//! commits; `--metrics` attaches a telemetry registry and writes its
//! snapshot (default path `METRICS_fleet.json`); `--trace` attaches a
//! flight recorder and writes its Chrome trace-event JSON (default path
//! `TRACE_fleet.json` — frozen runs trace only the leader's epoch marks,
//! adaptation adds the causal drift→refit→swap chains).

use software_aging::core::{AgingPredictor, RejuvenationConfig, RejuvenationPolicy};
use software_aging::fleet::{Fleet, FleetConfig, FleetReport, InstanceSpec};
use software_aging::monitor::FeatureSet;
use software_aging::obs::{FlightRecorder, Registry};
use software_aging::testbed::Scenario;
use std::sync::Arc;

mod common;
use common::{leaky, parse_args, write_metrics, write_trace, FleetArgs};

fn write_json(report: &FleetReport, path: &str) -> Result<(), Box<dyn std::error::Error>> {
    std::fs::write(path, report.to_json()?)?;
    println!("wrote {path}");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let defaults = FleetArgs {
        instances: 120,
        shards: 6,
        hours: 12.0,
        json: None,
        metrics: None,
        trace: None,
        journal: None,
        replay: false,
    };
    let args = parse_args(
        defaults,
        "BENCH_fleet.json",
        "METRICS_fleet.json",
        "TRACE_fleet.json",
        "JOURNAL_fleet",
    )
    .inspect_err(|_| {
        eprintln!(
            "usage: fleet [--instances N] [--shards N] [--hours H] [--json [PATH]] \
             [--metrics [PATH]] [--trace [PATH]]"
        );
    })?;
    if args.journal.is_some() {
        return Err("--journal: frozen-model runs have no adaptation state to journal; \
             see hetero_fleet for the durable-journal demonstration"
            .into());
    }

    // One model serves the whole fleet: train it across the workload range
    // it will see in production (Experiment 4.1 style).
    println!("training the shared M5P model on four run-to-crash executions …");
    let training: Vec<Scenario> = [50, 100, 150, 200]
        .into_iter()
        .map(|ebs| leaky(format!("train-{ebs}eb"), ebs, 15))
        .collect();
    let predictor = AgingPredictor::train(&training, FeatureSet::exp42(), 42)?;
    println!(
        "  {} leaves over {} training instances\n",
        predictor.model().n_leaves(),
        predictor.n_training_instances()
    );

    // Deployments in four (workload, leak-severity) service classes,
    // every replica on its own sample path.
    let policy = RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };
    let classes = [(50u64, 15u32), (100, 15), (150, 30), (200, 30)];
    let mut specs = Vec::new();
    while specs.len() < args.instances {
        let (group, (ebs, n)) = {
            let g = specs.len() % classes.len();
            (g, classes[g])
        };
        let i = specs.len();
        specs.push(InstanceSpec::new(
            format!("svc-{ebs}eb-n{n}-{i:03}"),
            leaky(format!("svc-{ebs}eb-n{n}"), ebs, n),
            policy,
            10_000 + (group as u64) * 1000 + i as u64,
        ));
    }

    let config = FleetConfig {
        shards: args.shards,
        rejuvenation: RejuvenationConfig {
            horizon_secs: args.hours * 3600.0,
            ..Default::default()
        },
        counterfactual_horizon_secs: 3600.0,
    };
    let registry = args.metrics.as_ref().map(|_| Registry::shared());
    let recorder = args.trace.as_ref().map(|_| FlightRecorder::shared());
    let mut fleet = Fleet::new(specs, config)?;
    if let Some(registry) = &registry {
        fleet = fleet.with_telemetry(Arc::clone(registry));
    }
    if let Some(recorder) = &recorder {
        fleet = fleet.with_trace(Arc::clone(recorder));
    }
    println!(
        "operating {} deployments across {} shards for {:.0} simulated hours …\n",
        fleet.len(),
        config.shards,
        config.rejuvenation.horizon_secs / 3600.0
    );
    let report = fleet.run(predictor.model(), predictor.features());
    println!("{report}\n");

    // Worst and best instances by availability, for a quick fleet health view.
    let mut by_availability = report.instances.clone();
    by_availability.sort_by(|a, b| a.availability.total_cmp(&b.availability));
    println!("lowest-availability deployments:");
    for inst in by_availability.iter().take(3) {
        println!(
            "  {:<20} availability {:.4}  crashes {}  rejuvenations {} (avoided {})",
            inst.name, inst.availability, inst.crashes, inst.rejuvenations, inst.crashes_avoided
        );
    }
    println!("highest-availability deployments:");
    for inst in by_availability.iter().rev().take(3) {
        println!(
            "  {:<20} availability {:.4}  crashes {}  rejuvenations {} (avoided {})",
            inst.name, inst.availability, inst.crashes, inst.rejuvenations, inst.crashes_avoided
        );
    }

    if let Some(path) = &args.json {
        write_json(&report, path)?;
    }
    if let Some(path) = &args.metrics {
        write_metrics(path, report.telemetry.as_ref().expect("registry attached"))?;
    }
    if let (Some(path), Some(recorder)) = (&args.trace, &recorder) {
        write_trace(path, recorder)?;
    }
    Ok(())
}
