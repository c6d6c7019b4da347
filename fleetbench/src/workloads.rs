//! The three workloads. Each builds its inputs from the seed, sets up a
//! few times (`setup_s` is the median), then repeats its unit of work
//! until the run's time is spent and reports medians over the
//! repetitions. Every fleet runs on the event-driven scheduler with
//! [`WORKERS`] workers, and every router refits on one retrainer thread,
//! so no workload asks for more threads than a 2-core machine has.

use crate::metrics::{Metrics, CLASSES, LEARNERS};
use crate::probe::{self, median, repeat_for, timed, MlClocks, Summary};
use software_aging::adapt::replay::replay_scored;
use software_aging::adapt::{
    AdaptConfig, AdaptiveRouter, ClassSpec, DriftConfig, RouterConfig, RouterStats, ServiceClass,
};
use software_aging::core::{AgingPredictor, RejuvenationConfig, RejuvenationPolicy};
use software_aging::fleet::{
    Fleet, FleetConfig, FleetReport, InstanceSpec, SchedulerConfig, WorkloadShift,
};
use software_aging::journal::{Digest64, Journal};
use software_aging::ml::{LearnerKind, Regressor};
use software_aging::monitor::FeatureSet;
use software_aging::obs::{Registry, TelemetrySnapshot};
use software_aging::testbed::{MemLeakSpec, Scenario};
use software_aging::tune::{Evaluator, PolicyPoint};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Scheduler workers of every fleet run.
pub const WORKERS: usize = 2;
/// Each workload sets up at least this many times per run, and until
/// `SETUP_BUDGET_S` seconds are spent; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
const SETUP_BUDGET_S: f64 = 1.0;
/// Repetitions every measured phase makes at least, however long they
/// take — two, so the repeat checks always have something to compare.
const MIN_REPS: usize = 2;
/// Seed of the models' training runs. The models are the system's
/// configuration, not the workload's input: the run seed moves only the
/// fleets' sample paths, so quality metrics compare across seeds.
const TRAINING_SEED: u64 = 42;
/// Counterfactual-fork horizon of every fleet, seconds.
const COUNTERFACTUAL_SECS: f64 = 3600.0;

/// `frozen_mixed`: deployments and simulated hours per fleet run.
const FROZEN_INSTANCES: usize = 120;
const FROZEN_HOURS: f64 = 2.0;
/// `frozen_mixed`'s (emulated browsers, leak N) classes, interleaved.
const FROZEN_CLASSES: [(u64, u32); 4] = [(50, 15), (100, 15), (150, 30), (200, 30)];

/// `adaptive_shift`: deployments and simulated hours per fleet run.
const ADAPTIVE_INSTANCES: usize = 90;
const ADAPTIVE_HOURS: f64 = 6.0;
/// Periodic refit cadence of the adaptive classes, ingested rows.
const ADAPTIVE_RETRAIN_EVERY: usize = 480;

/// `policy_search`: the journal recording's deployments and hours.
const RECORD_INSTANCES: usize = 48;
const RECORD_HOURS: f64 = 3.0;
/// Panel candidates' sliding buffer and periodic refit cadence, rows.
const PANEL_BUFFER: usize = 128;
const PANEL_RETRAIN_EVERY: usize = 1024;

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed correctness checks, described; empty when all passed.
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced) and, on a traced run, per-layer ones.
    pub metrics: Metrics,
    /// Traced runs: the attribution table's row for this workload.
    pub attribution: Option<Attribution>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// One workload's traced time split: named layers and their seconds per
/// repetition, plus quality and ROI lines.
#[derive(Debug)]
pub struct Attribution {
    pub workload: &'static str,
    pub quality: String,
    pub wall_s: f64,
    /// `(layer, seconds per repetition)`; shares are of `busy_s`.
    pub layers: Vec<(String, f64)>,
    /// The time the layers are shares of: worker busy time on fleet
    /// workloads, panel wall time on `policy_search`.
    pub busy_s: f64,
    pub roi: Vec<String>,
}

impl Attribution {
    /// The layer with the most time.
    pub fn largest(&self) -> Option<&(String, f64)> {
        self.layers.iter().filter(|(n, _)| n != "unattributed").max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// Run parameters shared by all workloads.
#[derive(Debug)]
pub struct Params {
    pub seed: u64,
    /// Measured time, seconds; a traced run splits it between an untraced
    /// and a traced half.
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for journals, inside the working directory.
    pub work: PathBuf,
}

/// SplitMix64 finaliser: decorrelated sub-seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn leaky(name: impl Into<String>, ebs: u64, n: u32) -> Scenario {
    Scenario::builder(name)
        .emulated_browsers(ebs)
        .memory_leak(MemLeakSpec::new(n))
        .run_to_crash()
        .build()
}

fn scheduler() -> SchedulerConfig {
    SchedulerConfig { workers: WORKERS, ..SchedulerConfig::default() }
}

fn fleet_config(hours: f64) -> FleetConfig {
    FleetConfig {
        shards: WORKERS,
        rejuvenation: RejuvenationConfig { horizon_secs: hours * 3600.0, ..Default::default() },
        counterfactual_horizon_secs: COUNTERFACTUAL_SECS,
    }
}

const PREDICTIVE: RejuvenationPolicy =
    RejuvenationPolicy::Predictive { threshold_secs: 420.0, consecutive: 2 };

fn budget(params: &Params) -> Duration {
    Duration::from_secs_f64(if params.trace { params.seconds / 2.0 } else { params.seconds })
}

/// The untraced repetitions of one workload, and the heap peak they and
/// the set-up reached.
fn measure<T>(out: &mut Outcome, params: &Params, f: impl FnMut() -> T) -> Vec<T> {
    let reps = repeat_for(budget(params), MIN_REPS, f);
    out.metrics.set("peak_heap_mb", probe::peak_heap_mb());
    reps
}

/// Sets up at least `SETUP_REPEATS` times and until `SETUP_BUDGET` is
/// spent, so a cheap set-up's median rides out short stalls; returns the
/// last set-up and the wall seconds of each.
fn set_up<T>(mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    loop {
        let (value, secs) = timed(&mut f);
        times.push(secs);
        if times.len() >= SETUP_REPEATS && times.iter().sum::<f64>() >= SETUP_BUDGET_S {
            return (value, times);
        }
    }
}

/// A digest of a fleet's simulated outcome — everything report equality
/// compares, per instance — so two commits can be compared exactly.
pub fn outcome_digest(report: &FleetReport) -> u64 {
    let mut d = Digest64::new();
    for i in &report.instances {
        d.write_str(&i.name);
        for v in [
            i.crashes,
            i.rejuvenations,
            i.crashes_avoided,
            i.checkpoints,
            i.service_epochs,
            i.ttf_error_count,
        ] {
            d.write_u64(v);
        }
        for v in [i.downtime_secs, i.availability, i.lost_requests, i.ttf_error_sum_secs] {
            d.write_f64(v);
        }
    }
    d.write_u64(report.epochs);
    d.finish()
}

// ---------------------------------------------------------------------------
// Fleet layer readings
// ---------------------------------------------------------------------------

/// Per-shard sums of the fleet's epoch-phase histograms.
#[derive(Debug, Default)]
struct Phases {
    advance: Vec<f64>,
    predict: Vec<f64>,
    publish: Vec<f64>,
    leader: f64,
}

impl Phases {
    fn read(snapshot: &TelemetrySnapshot) -> Phases {
        let per_shard = |name: &str| -> Vec<f64> {
            let mut series: Vec<(String, f64)> = snapshot
                .histogram_series(name)
                .iter()
                .map(|h| (h.label_value().unwrap_or("").to_string(), h.sum))
                .collect();
            series.sort_by(|a, b| a.0.cmp(&b.0));
            series.into_iter().map(|(_, s)| s).collect()
        };
        Phases {
            advance: per_shard("fleet_epoch_advance_seconds"),
            predict: per_shard("fleet_epoch_predict_seconds"),
            publish: per_shard("fleet_epoch_publish_seconds"),
            leader: snapshot
                .histogram_series("fleet_leader_step_seconds")
                .iter()
                .map(|h| h.sum)
                .sum(),
        }
    }

    fn shard_busy(&self) -> Vec<f64> {
        (0..self.advance.len())
            .map(|s| {
                self.advance[s]
                    + self.predict.get(s).copied().unwrap_or(0.0)
                    + self.publish.get(s).copied().unwrap_or(0.0)
            })
            .collect()
    }
}

/// Fleet-layer metrics of one traced fleet run of `wall` seconds.
fn fleet_layers(m: &mut Metrics, phases: &Phases, wall: f64, ml_predict_s: f64) {
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let busy = phases.shard_busy();
    let (lo, hi) =
        busy.iter().fold((f64::INFINITY, 0.0_f64), |(lo, hi), &b| (lo.min(b), hi.max(b)));
    m.set("fleet.advance_s", sum(&phases.advance));
    m.set("fleet.predict_phase_s", sum(&phases.predict));
    m.set("fleet.publish_phase_s", sum(&phases.publish));
    m.set("fleet.leader_step_s", phases.leader);
    m.set("fleet.fork_s", (sum(&phases.predict) - ml_predict_s).max(0.0));
    m.set("fleet.worker_busy_ratio", sum(&busy) / (WORKERS as f64 * wall));
    m.set("fleet.shard_imbalance", if lo > 0.0 { hi / lo } else { 0.0 });
}

/// The ML layer's clock readings as metrics.
fn ml_layers(m: &mut Metrics, clocks: &MlClocks) {
    let predict = clocks.predict.reading();
    m.set("ml.predict_calls", predict.calls as f64);
    m.set("ml.predict_rows", predict.rows as f64);
    m.set("ml.predict_busy_s", predict.busy_s);
    for (kind, name) in LearnerKind::ALL.into_iter().zip(LEARNERS) {
        let fit = clocks.fit(kind).reading();
        m.set(format!("ml.fit_calls.{name}"), fit.calls as f64);
        m.set(format!("ml.fit_rows.{name}"), fit.rows as f64);
        m.set(format!("ml.fit_busy_s.{name}"), fit.busy_s);
        if fit.rows > 0 {
            m.set(format!("ml.fit_us_per_row.{name}"), fit.busy_s * 1e6 / fit.rows as f64);
        }
    }
}

/// Per-name medians over the traced repetitions' metrics.
fn median_metrics(reps: &[Metrics], names: &[String]) -> Metrics {
    let mut out = Metrics::default();
    for name in names {
        let values: Vec<f64> = reps.iter().filter_map(|m| m.get(name)).collect();
        if !values.is_empty() {
            out.set(name.clone(), median(&values));
        }
    }
    out
}

/// Isolated testbed and monitor probes over a class mix of
/// `(scenario, share)`: per-class step, fork and extraction costs,
/// weighted by the share of checkpoints each class contributes.
fn testbed_probes(m: &mut Metrics, scenarios: &[(Scenario, f64)], seed: u64, window: usize) {
    let (mut step, mut fork, mut extract) = (0.0, 0.0, 0.0);
    for (k, (scenario, share)) in scenarios.iter().enumerate() {
        let class_seed = mix(seed, 7_000 + k as u64);
        let steps = Summary::of(&probe::step_us(scenario, class_seed)).expect("probe samples");
        let forks: Vec<f64> = (0..3)
            .filter_map(|r| probe::fork_ms(scenario, class_seed + r, 420.0, COUNTERFACTUAL_SECS, 3))
            .flatten()
            .collect();
        let extracts = probe::extract_us(scenario, class_seed, window, 5);
        println!("  probe {:<18} step_us {steps}", scenario.name);
        if let Some(f) = Summary::of(&forks) {
            println!("  probe {:<18} fork_ms {f}", scenario.name);
            fork += share * f.median;
        }
        step += share * steps.mean;
        extract += share * median(&extracts);
    }
    m.set("testbed.step_us", step);
    m.set("testbed.fork_ms", fork);
    m.set("monitor.extract_us", extract);
}

/// Prints the per-repetition throughputs and returns their median.
fn per_run(rates: &[f64]) -> f64 {
    let list: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    println!("  checkpoints_per_s by repetition: [{}]", list.join(", "));
    median(rates)
}

// ---------------------------------------------------------------------------
// frozen_mixed
// ---------------------------------------------------------------------------

/// `frozen_mixed`'s inputs: the trained model and the fleet roster.
struct FrozenInputs {
    model: Arc<dyn Regressor>,
    features: FeatureSet,
    specs: Vec<InstanceSpec>,
    train_s: f64,
}

fn frozen_specs(seed: u64) -> Vec<InstanceSpec> {
    (0..FROZEN_INSTANCES)
        .map(|i| {
            let (ebs, n) = FROZEN_CLASSES[i % FROZEN_CLASSES.len()];
            let class = format!("svc-{ebs}eb-n{n}");
            InstanceSpec::new(
                format!("{class}-{i:03}"),
                leaky(class, ebs, n),
                PREDICTIVE,
                mix(seed, 100 + i as u64),
            )
        })
        .collect()
}

fn frozen_inputs(seed: u64) -> FrozenInputs {
    let training: Vec<Scenario> =
        FROZEN_CLASSES.iter().map(|&(ebs, _)| leaky(format!("train-{ebs}eb"), ebs, 15)).collect();
    let features = FeatureSet::exp42();
    let (predictor, train_s) =
        timed(|| AgingPredictor::train(&training, features.clone(), TRAINING_SEED));
    let predictor = predictor.expect("the training scenarios crash, so the model trains");
    FrozenInputs {
        model: Arc::new(predictor.model().clone()),
        features,
        specs: frozen_specs(seed),
        train_s,
    }
}

fn run_frozen(
    inputs: &FrozenInputs,
    model: &dyn Regressor,
    registry: Option<&Arc<Registry>>,
) -> (FleetReport, f64) {
    let mut fleet = Fleet::new(inputs.specs.clone(), fleet_config(FROZEN_HOURS))
        .expect("the frozen roster is valid")
        .with_scheduler(scheduler());
    if let Some(registry) = registry {
        fleet = fleet.with_telemetry(Arc::clone(registry));
    }
    timed(|| fleet.run(model, &inputs.features))
}

pub fn frozen_mixed(params: &Params) -> Outcome {
    let mut out = Outcome::default();
    let (inputs, setup) = set_up(|| frozen_inputs(params.seed));
    out.metrics.set("setup_s", median(&setup));

    let untraced = measure(&mut out, params, || run_frozen(&inputs, &*inputs.model, None));
    let reference = &untraced[0].0;
    let digest = outcome_digest(reference);
    println!(
        "frozen_mixed: {} instances x {FROZEN_HOURS} h, {} checkpoints per run, {} runs, outcome digest {digest:#018x}",
        reference.instances.len(),
        reference.checkpoints,
        untraced.len()
    );
    for (report, _) in &untraced {
        out.check(report == reference, || "frozen_mixed: repeated runs of one seed differ".into());
        out.attempted += report.checkpoints;
    }
    out.metrics.set(
        "checkpoints_per_s",
        per_run(&untraced.iter().map(|(r, w)| r.checkpoints as f64 / w).collect::<Vec<_>>()),
    );
    out.metrics.set("availability", reference.availability);
    out.metrics.set("ttf_mae_s", reference.mean_ttf_error_secs);
    let untraced_wall = median(&untraced.iter().map(|(_, w)| *w).collect::<Vec<_>>());

    if params.trace {
        let names: Vec<String> = crate::metrics::per_layer().into_iter().map(|(n, _)| n).collect();
        let mut reps = Vec::new();
        let traced = repeat_for(budget(params), MIN_REPS, || {
            let clocks = MlClocks::default();
            let registry = Registry::shared();
            let model = clocks.model(Arc::clone(&inputs.model));
            let (report, wall) = run_frozen(&inputs, &*model, Some(&registry));
            let mut m = Metrics::default();
            ml_layers(&mut m, &clocks);
            let phases = Phases::read(&registry.snapshot());
            fleet_layers(&mut m, &phases, wall, clocks.predict.reading().busy_s);
            m.set("testbed.forks", report.rejuvenations as f64);
            reps.push(m);
            (report, wall)
        });
        for (report, _) in &traced {
            out.check(report == reference, || {
                "frozen_mixed: traced and untraced runs differ".into()
            });
        }
        let mut layers = median_metrics(&reps, &names);
        let traced_wall = median(&traced.iter().map(|(_, w)| *w).collect::<Vec<_>>());
        layers.set("obs.trace_overhead", traced_wall / untraced_wall);
        layers.set("core.train_s", inputs.train_s);
        let mix: Vec<(Scenario, f64)> = FROZEN_CLASSES
            .iter()
            .map(|&(ebs, n)| {
                let class = format!("svc-{ebs}eb-n{n}");
                let share = checkpoint_share(reference, &format!("{class}-"));
                (leaky(class, ebs, n), share)
            })
            .collect();
        testbed_probes(&mut layers, &mix, params.seed, inputs.features.window());
        out.attribution =
            Some(fleet_attribution(&mut layers, "frozen_mixed", reference, traced_wall, &[]));
        if let Some(a) = &mut out.attribution {
            let fork = layers.get("fleet.fork_s").unwrap_or(0.0);
            a.roi.push(format!(
                "counterfactual horizon {:.0} h: forks cost {fork:.3} s of {:.3} s worker-busy per run ({:.1}%, ~{:.1}% of wall) \
                 and buy {} crashes_avoided over {} restarts ({:.1} crashes_avoided per fork-second)",
                COUNTERFACTUAL_SECS / 3600.0,
                a.busy_s,
                100.0 * fork / a.busy_s,
                100.0 * fork / (WORKERS as f64 * traced_wall),
                reference.crashes_avoided,
                reference.rejuvenations,
                reference.crashes_avoided as f64 / fork.max(f64::MIN_POSITIVE),
            ));
        }
        for (name, value) in names.iter().filter_map(|n| layers.get(n).map(|v| (n, v))) {
            out.metrics.set(name.clone(), value);
        }
    }
    out
}

/// Splits a traced fleet run's worker busy time into named layers:
/// simulator advance and feature extraction estimated from their isolated
/// probes, forks and inference and bus publish measured. `extra` adds
/// layers that run beside the workers.
fn fleet_attribution(
    m: &mut Metrics,
    workload: &'static str,
    report: &FleetReport,
    wall: f64,
    extra: &[(&str, f64)],
) -> Attribution {
    let get = |n: &str| m.get(n).unwrap_or(0.0);
    let checkpoints = report.checkpoints as f64;
    let busy = get("fleet.advance_s") + get("fleet.predict_phase_s") + get("fleet.publish_phase_s");
    let mut layers = vec![
        ("testbed.step".to_string(), checkpoints * get("testbed.step_us") * 1e-6),
        ("monitor.extract".to_string(), checkpoints * get("monitor.extract_us") * 1e-6),
        ("fleet.fork".to_string(), get("fleet.fork_s")),
        ("ml.predict".to_string(), get("ml.predict_busy_s")),
        ("adapt.publish".to_string(), get("fleet.publish_phase_s")),
    ];
    let named: f64 = layers.iter().map(|(_, s)| s).sum();
    m.set("fleet.attributed_share", named / busy);
    layers.push(("unattributed".to_string(), busy - named));
    layers.extend(extra.iter().map(|&(n, s)| (n.to_string(), s)));
    Attribution {
        workload,
        quality: format!(
            "availability {:.4}, ttf_mae {:.1} s, {} crashes_avoided",
            report.availability, report.mean_ttf_error_secs, report.crashes_avoided
        ),
        wall_s: wall,
        layers,
        busy_s: busy,
        roi: Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// adaptive_shift
// ---------------------------------------------------------------------------

/// The adaptive classes' generation-0 models and their training time.
struct ClassModels {
    leak: Arc<dyn Regressor>,
    steady: Arc<dyn Regressor>,
    features: FeatureSet,
    train_s: f64,
}

fn class_models() -> ClassModels {
    let features = FeatureSet::exp42();
    let leak_training: Vec<Scenario> =
        [75u64, 100, 125].into_iter().map(|ebs| leaky(format!("train-{ebs}eb"), ebs, 75)).collect();
    let ((leak, steady), train_s) = timed(|| {
        let train = |scenarios: &[Scenario]| -> Arc<dyn Regressor> {
            let predictor = AgingPredictor::train(scenarios, features.clone(), TRAINING_SEED)
                .expect("the training scenarios crash, so the model trains");
            Arc::new(predictor.model().clone())
        };
        (train(&leak_training), train(&[leaky("steady-train", 100, 45)]))
    });
    ClassModels { leak, steady, features, train_s }
}

/// Two thirds "leak" deployments that shift to an aggressive leak a
/// quarter of the way in, one third "steady" ones.
fn shift_specs(
    seed: u64,
    instances: usize,
    hours: f64,
    policy: RejuvenationPolicy,
) -> Vec<InstanceSpec> {
    let n_leak = instances * 2 / 3;
    let horizon = hours * 3600.0;
    let (before, after, steady) =
        (leaky("slow-leak", 100, 75), leaky("fast-leak", 150, 15), leaky("steady-leak", 100, 30));
    let leak = (0..n_leak).map(|i| InstanceSpec {
        name: format!("leak-{i:03}"),
        scenario: before.clone(),
        policy,
        seed: mix(seed, 200 + i as u64),
        shift: Some(WorkloadShift { after_secs: horizon * 0.25, scenario: after.clone() }),
        class: ServiceClass::new(CLASSES[0]),
    });
    let steady = (n_leak..instances).map(|i| {
        InstanceSpec::new(
            format!("steady-{i:03}"),
            steady.clone(),
            policy,
            mix(seed, 200 + i as u64),
        )
        .with_class(CLASSES[1])
    });
    leak.chain(steady).collect()
}

/// Share of `report`'s checkpoints made by instances named `prefix…`.
fn checkpoint_share(report: &FleetReport, prefix: &str) -> f64 {
    let ours: u64 =
        report.instances.iter().filter(|i| i.name.starts_with(prefix)).map(|i| i.checkpoints).sum();
    ours as f64 / report.checkpoints.max(1) as f64
}

/// The shifted fleet's scenario mix, weighted by the checkpoints each
/// scenario made in `report` (the leak class's split at its shift).
fn shift_mix(report: &FleetReport) -> Vec<(Scenario, f64)> {
    let leak = checkpoint_share(report, "leak-");
    vec![
        (leaky("slow-leak", 100, 75), leak * 0.25),
        (leaky("fast-leak", 150, 15), leak * 0.75),
        (leaky("steady-leak", 100, 30), checkpoint_share(report, "steady-")),
    ]
}

fn adaptive_classes(
    models: &ClassModels,
    clocks: Option<&MlClocks>,
) -> Vec<(ServiceClass, ClassSpec)> {
    let spec = |initial: &Arc<dyn Regressor>, threshold: f64| {
        let (learner, initial) = match clocks {
            Some(c) => (c.learner(LearnerKind::M5p), c.model(Arc::clone(initial))),
            None => (LearnerKind::M5p.learner(), Arc::clone(initial)),
        };
        let drift = DriftConfig {
            error_threshold_secs: threshold,
            min_observations: 40,
            cooldown_observations: 120,
            ..Default::default()
        };
        let config = AdaptConfig::builder()
            .drift(drift)
            .buffer_capacity(2048)
            .min_buffer_to_retrain(120)
            .retrain_every(ADAPTIVE_RETRAIN_EVERY)
            .build();
        ClassSpec::builder(learner, initial).config(config).build()
    };
    vec![
        (ServiceClass::new(CLASSES[0]), spec(&models.leak, 600.0)),
        (ServiceClass::new(CLASSES[1]), spec(&models.steady, 3600.0)),
    ]
}

/// One journalled adaptive run, and what its bus and journal accounted.
struct AdaptiveRun {
    report: FleetReport,
    wall: f64,
    published: u64,
    stats: RouterStats,
    quiesced: bool,
    snapshot: Option<TelemetrySnapshot>,
    journal_dir: PathBuf,
}

fn run_adaptive(
    models: &ClassModels,
    specs: &[InstanceSpec],
    dir: &Path,
    clocks: Option<&MlClocks>,
) -> std::io::Result<AdaptiveRun> {
    let _ = std::fs::remove_dir_all(dir);
    let journal = Arc::new(Journal::open(dir)?);
    let registry = clocks.map(|_| Registry::shared());
    let mut builder = AdaptiveRouter::builder(models.features.variables().to_vec())
        .classes(adaptive_classes(models, clocks))
        .config(RouterConfig::builder().retrainer_threads(1).build())
        .journal(Arc::clone(&journal));
    let mut fleet = Fleet::new(specs.to_vec(), fleet_config(ADAPTIVE_HOURS))
        .expect("the shifted roster is valid")
        .with_scheduler(scheduler())
        .with_journal(Arc::clone(&journal));
    if let Some(registry) = &registry {
        builder = builder.telemetry(Arc::clone(registry));
        fleet = fleet.with_telemetry(Arc::clone(registry));
    }
    let router = builder.spawn();
    let (report, wall) = timed(|| fleet.run_routed(&router, &models.features));
    let report = report.expect("every class has a model service");
    let quiesced = router.quiesce(Duration::from_secs(120));
    let published = router.bus().enqueued_checkpoints();
    let stats = router.shutdown();
    journal.sync()?;
    Ok(AdaptiveRun {
        report,
        wall,
        published,
        stats,
        quiesced,
        snapshot: registry.map(|r| r.snapshot()),
        journal_dir: dir.to_path_buf(),
    })
}

/// Bus conservation and a clean journal; counts attempts and failures.
fn check_adaptive(out: &mut Outcome, run: &AdaptiveRun) {
    let s = &run.stats;
    out.check(run.quiesced, || "adaptive_shift: the router did not drain within 120 s".into());
    let accounted = s.ingested_checkpoints + s.dropped_checkpoints + s.unrouted_checkpoints;
    out.check(run.published == accounted, || {
        format!(
            "adaptive_shift: bus conservation broken: published {} != ingested {} + shed {} + unrouted {}",
            run.published, s.ingested_checkpoints, s.dropped_checkpoints, s.unrouted_checkpoints
        )
    });
    out.check(s.journal_errors == 0, || {
        format!("adaptive_shift: {} journal errors", s.journal_errors)
    });
    out.attempted += run.published;
    out.failed += s.dropped_checkpoints + s.unrouted_checkpoints + s.journal_errors;
}

pub fn adaptive_shift(params: &Params) -> Outcome {
    let mut out = Outcome::default();
    let ((models, specs), setup) = set_up(|| {
        (class_models(), shift_specs(params.seed, ADAPTIVE_INSTANCES, ADAPTIVE_HOURS, PREDICTIVE))
    });
    out.metrics.set("setup_s", median(&setup));
    let dir = params.work.join("adaptive");

    let untraced = measure(&mut out, params, || {
        run_adaptive(&models, &specs, &dir, None).expect("the journal directory is writable")
    });
    for run in &untraced {
        check_adaptive(&mut out, run);
    }
    for run in &untraced {
        println!(
            "  run: availability {:.4}  ttf_mae {:>7.1} s  generations {}  published {}",
            run.report.availability,
            run.report.mean_ttf_error_secs,
            run.stats.generations_published,
            run.published
        );
    }
    let col = |f: &dyn Fn(&AdaptiveRun) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
    out.metrics.set(
        "checkpoints_per_s",
        per_run(&untraced.iter().map(|r| r.report.checkpoints as f64 / r.wall).collect::<Vec<_>>()),
    );
    out.metrics.set("availability", col(&|r| r.report.availability));
    out.metrics.set("ttf_mae_s", col(&|r| r.report.mean_ttf_error_secs));
    println!(
        "adaptive_shift: {ADAPTIVE_INSTANCES} instances x {ADAPTIVE_HOURS} h, {} checkpoints per run, {} runs, \
         {} generations published in the first",
        untraced[0].report.checkpoints,
        untraced.len(),
        untraced[0].stats.generations_published
    );

    if params.trace {
        let names: Vec<String> = crate::metrics::per_layer().into_iter().map(|(n, _)| n).collect();
        let mut reps = Vec::new();
        let mut last = None;
        let traced = repeat_for(budget(params), MIN_REPS, || {
            let clocks = MlClocks::default();
            let run = run_adaptive(&models, &specs, &dir, Some(&clocks))
                .expect("the journal directory is writable");
            let mut m = Metrics::default();
            ml_layers(&mut m, &clocks);
            let snapshot = run.snapshot.as_ref().expect("traced runs carry telemetry");
            fleet_layers(
                &mut m,
                &Phases::read(snapshot),
                run.wall,
                clocks.predict.reading().busy_s,
            );
            adapt_layers(&mut m, &run, snapshot);
            reps.push(m);
            check_adaptive(&mut out, &run);
            let wall = run.wall;
            last = Some(run);
            wall
        });
        let run = last.expect("at least one traced run");
        let mut layers = median_metrics(&reps, &names);
        layers.set("obs.trace_overhead", median(&traced) / col(&|r| r.wall));
        layers.set("core.train_s", models.train_s);
        testbed_probes(&mut layers, &shift_mix(&run.report), params.seed, models.features.window());
        journal_probes(&mut layers, &run.journal_dir, &params.work.join("journal-probe"));
        let bus = Summary::of(&probe::bus_publish_us(4096, 30, models.features.len()))
            .expect("probe samples");
        println!("  probe bus.publish       publish_us {bus}");
        layers.set("adapt.bus_publish_us", bus.median);
        let get = |n: &str| layers.get(n).unwrap_or(0.0);
        let extra = [
            ("adapt.ingest", get("adapt.ingest_busy_s")),
            ("adapt.refit", get("adapt.refit_s")),
            ("journal.append", get("journal.records") * get("journal.append_us") * 1e-6),
        ];
        let quality = format!(
            "availability {:.4}, ttf_mae {:.1} s (leak {:.1} s, steady {:.1} s), {} generations",
            run.report.availability,
            run.report.mean_ttf_error_secs,
            get("adapt.class_mae_s.leak"),
            get("adapt.class_mae_s.steady"),
            run.stats.generations_published
        );
        let mut attribution =
            fleet_attribution(&mut layers, "adaptive_shift", &run.report, median(&traced), &extra);
        attribution.quality = quality;
        out.attribution = Some(attribution);
        for (name, value) in names.iter().filter_map(|n| layers.get(n).map(|v| (n, v))) {
            out.metrics.set(name.clone(), value);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn adapt_layers(m: &mut Metrics, run: &AdaptiveRun, snapshot: &TelemetrySnapshot) {
    let hist_sum = |name: &str| snapshot.histogram_series(name).iter().map(|h| h.sum).sum::<f64>();
    let s = &run.stats;
    m.set("adapt.published", run.published as f64);
    m.set("adapt.ingested", s.ingested_checkpoints as f64);
    m.set("adapt.shed_rows", s.dropped_checkpoints as f64);
    m.set("adapt.ingest_busy_s", hist_sum("adapt_ingest_batch_seconds"));
    m.set("adapt.refit_s", hist_sum("adapt_refit_duration_seconds"));
    if let Some(mean) =
        snapshot.histogram_merged("adapt_swap_latency_seconds").and_then(|h| h.mean())
    {
        m.set("adapt.swap_latency_s", mean);
    }
    m.set("adapt.retrains", s.classes.iter().map(|c| c.stats.retrains).sum::<u64>() as f64);
    for class in CLASSES {
        m.set(format!("adapt.class_mae_s.{class}"), run.report.class_mean_ttf_error_secs(class));
    }
    m.set("testbed.forks", run.report.rejuvenations as f64);
    if let Some(j) = &run.report.journal {
        m.set("journal.records", j.appended_records as f64);
        m.set("journal.fsyncs", j.fsyncs as f64);
    }
}

/// Isolated journal probes: re-append a run's records into a fresh
/// journal (default options, so batched fsyncs land where they would in a
/// run), sync every 64 appends, and read the run's journal back.
fn journal_probes(m: &mut Metrics, recorded: &Path, scratch: &Path) {
    let _ = std::fs::remove_dir_all(scratch);
    let records: Vec<_> = Journal::read(recorded)
        .expect("the run's journal reads back")
        .records
        .into_iter()
        .map(|(_, r)| r)
        .take(2048)
        .collect();
    let (append, sync) =
        probe::journal_write(scratch, &records, 64).expect("the scratch journal is writable");
    let _ = std::fs::remove_dir_all(scratch);
    let read = probe::journal_read_s(recorded, 5).expect("the run's journal reads back");
    for (what, samples) in [("append_us", &append), ("sync_ms", &sync), ("read_s", &read)] {
        if let Some(s) = Summary::of(samples) {
            println!("  probe journal           {what} {s}");
        }
    }
    m.set("journal.append_us", median(&append));
    m.set("journal.sync_ms", median(&sync));
    m.set("journal.read_s", median(&read));
}

// ---------------------------------------------------------------------------
// policy_search
// ---------------------------------------------------------------------------

/// Dense labels: every checkpoint is predicted, but the trigger sits far
/// below what the models forecast, so epochs end in crashes that label
/// their whole history.
const DENSE: RejuvenationPolicy =
    RejuvenationPolicy::Predictive { threshold_secs: 30.0, consecutive: 4 };

/// Records a journal under a policy that never retrains and never moves
/// its thresholds; returns the recorded fleet's report. One shard
/// publishes, so the journal's batch order — and every replay score — is
/// a function of the seed alone.
fn record(
    models: &ClassModels,
    seed: u64,
    dir: &Path,
) -> std::io::Result<(FleetReport, RouterStats)> {
    let _ = std::fs::remove_dir_all(dir);
    let journal = Arc::new(Journal::open(dir)?);
    let frozen = |model: &Arc<dyn Regressor>| {
        let config = AdaptConfig::builder().drift(DriftConfig::disabled()).build();
        ClassSpec::builder(LearnerKind::M5p.learner(), Arc::clone(model)).config(config).build()
    };
    let router = AdaptiveRouter::builder(models.features.variables().to_vec())
        .class(ServiceClass::new(CLASSES[0]), frozen(&models.leak))
        .class(ServiceClass::new(CLASSES[1]), frozen(&models.steady))
        .config(RouterConfig::builder().retrainer_threads(1).build())
        .journal(Arc::clone(&journal))
        .spawn();
    let config = FleetConfig { shards: 1, ..fleet_config(RECORD_HOURS) };
    let report = Fleet::new(shift_specs(seed, RECORD_INSTANCES, RECORD_HOURS, DENSE), config)
        .expect("the recording roster is valid")
        .with_scheduler(scheduler())
        .with_journal(Arc::clone(&journal))
        .run_routed(&router, &models.features)
        .expect("every class has a model service");
    let stats = router.shutdown();
    journal.sync()?;
    Ok((report, stats))
}

/// The fixed panel: every learner with periodic refits, for both classes.
fn panel() -> Vec<(usize, PolicyPoint)> {
    (0..CLASSES.len())
        .flat_map(|c| {
            LearnerKind::ALL.into_iter().map(move |learner| {
                let point = PolicyPoint {
                    learner,
                    drift_enabled: false,
                    buffer_capacity: PANEL_BUFFER,
                    min_buffer_to_retrain: PANEL_BUFFER / 2,
                    retrain_every: Some(PANEL_RETRAIN_EVERY),
                    ..PolicyPoint::default()
                };
                (c, point)
            })
        })
        .collect()
}

/// What scoring one candidate yielded; `None` fields when it errored.
#[derive(Debug, Clone, PartialEq)]
struct Scored {
    objective: f64,
    digest: u64,
    scored_rows: u64,
    mae_bits: Option<u64>,
}

pub fn policy_search(params: &Params) -> Outcome {
    let mut out = Outcome::default();
    let dir = params.work.join("recorded");
    let mut recorded = Vec::new();
    let ((models, recording), setup) = set_up(|| {
        let models = class_models();
        let (report, stats) =
            record(&models, params.seed, &dir).expect("the journal directory is writable");
        recorded.push(stats);
        (models, report)
    });
    for s in &recorded {
        out.check(
            s.journal_errors == 0 && s.dropped_checkpoints == 0 && s.generations_published == 0,
            || {
                format!(
                    "policy_search: the recording must journal cleanly, shed nothing and never \
                     retrain: {} journal errors, {} shed, {} generations",
                    s.journal_errors, s.dropped_checkpoints, s.generations_published
                )
            },
        );
    }
    out.metrics.set("setup_s", median(&setup));
    out.metrics.set("availability", recording.availability);
    let names = models.features.variables().to_vec();
    let initial = [Arc::clone(&models.leak), Arc::clone(&models.steady)];
    let evaluators: Vec<Evaluator> = CLASSES
        .iter()
        .zip(&initial)
        .map(|(class, model)| {
            Evaluator::new(&dir, names.clone(), ServiceClass::new(*class), Arc::clone(model))
        })
        .collect();
    let panel = panel();

    let passes = measure(&mut out, params, || {
        let (scores, wall) = timed(|| {
            panel
                .iter()
                .map(|(c, point)| {
                    evaluators[*c].evaluate(point).ok().map(|e| Scored {
                        objective: e.objective_secs,
                        digest: e.digest,
                        scored_rows: e.scored_rows,
                        mae_bits: e.mean_abs_error_secs.map(f64::to_bits),
                    })
                })
                .collect::<Vec<_>>()
        });
        (scores, wall)
    });
    let reference = passes[0].0.clone();
    for (scores, _) in &passes {
        out.check(*scores == reference, || {
            "policy_search: a repeated panel pass scored differently".into()
        });
        out.attempted += scores.len() as u64;
        out.failed +=
            scores.iter().filter(|s| !s.as_ref().is_some_and(|s| s.objective.is_finite())).count()
                as u64;
    }
    let rows: u64 = reference.iter().flatten().map(|s| s.scored_rows).sum();
    out.metrics.set(
        "checkpoints_per_s",
        per_run(&passes.iter().map(|(_, w)| rows as f64 / w).collect::<Vec<_>>()),
    );
    let best = |c: usize| -> f64 {
        panel
            .iter()
            .zip(&reference)
            .filter(|((class, _), _)| *class == c)
            .filter_map(|(_, s)| s.as_ref().map(|s| s.objective))
            .fold(f64::INFINITY, f64::min)
    };
    out.metrics.set("ttf_mae_s", (0..CLASSES.len()).map(best).sum::<f64>() / CLASSES.len() as f64);
    let pass_wall = median(&passes.iter().map(|(_, w)| *w).collect::<Vec<_>>());
    println!(
        "policy_search: {} candidates per pass over {rows} scored rows, {} passes, recorded fleet {} checkpoints",
        panel.len(),
        passes.len(),
        recording.checkpoints
    );
    for ((c, point), score) in panel.iter().zip(&reference) {
        if let Some(s) = score {
            println!(
                "  candidate {:<7} {:<17} objective {:>9.2} s  digest {:#018x}  scored_rows {}",
                CLASSES[*c],
                point.learner.name(),
                s.objective,
                s.digest,
                s.scored_rows
            );
        }
    }

    if params.trace {
        let layer_names: Vec<String> =
            crate::metrics::per_layer().into_iter().map(|(n, _)| n).collect();
        let mut reps = Vec::new();
        let traced = repeat_for(budget(params), MIN_REPS, || {
            let clocks = MlClocks::default();
            let mut eval_s = [0.0; 3];
            let (scores, wall) = timed(|| {
                panel
                    .iter()
                    .map(|(c, point)| {
                        let mut spec = point.to_spec(clocks.model(Arc::clone(&initial[*c])));
                        spec.learner = clocks.learner(point.learner);
                        let (replayed, secs) = timed(|| {
                            replay_scored(
                                &dir,
                                names.clone(),
                                vec![(ServiceClass::new(CLASSES[*c]), spec)],
                            )
                        });
                        let k = LearnerKind::ALL
                            .iter()
                            .position(|&l| l == point.learner)
                            .expect("listed");
                        eval_s[k] += secs;
                        replayed.ok().map(|o| {
                            let r =
                                o.classes.into_iter().next().expect("one class in, one class out");
                            Scored {
                                objective: r.mean_abs_error_secs.unwrap_or(f64::INFINITY),
                                digest: r.digest,
                                scored_rows: r.scored_rows,
                                mae_bits: r.mean_abs_error_secs.map(f64::to_bits),
                            }
                        })
                    })
                    .collect::<Vec<_>>()
            });
            let mut m = Metrics::default();
            ml_layers(&mut m, &clocks);
            for (name, secs) in LEARNERS.iter().zip(eval_s) {
                m.set(format!("tune.eval_s.{name}"), secs);
            }
            m.set(
                "tune.replayed_rows",
                scores.iter().flatten().map(|s| s.scored_rows).sum::<u64>() as f64,
            );
            m.set("tune.candidates_per_s", panel.len() as f64 / wall);
            reps.push(m);
            (scores, wall)
        });
        for (scores, _) in &traced {
            out.check(*scores == reference, || {
                "policy_search: timed learners scored differently from the bare ones".into()
            });
        }
        let traced_wall = median(&traced.iter().map(|(_, w)| *w).collect::<Vec<_>>());
        let mut layers = median_metrics(&reps, &layer_names);
        layers.set("obs.trace_overhead", traced_wall / pass_wall);
        layers.set("core.train_s", models.train_s);
        layers.set("testbed.forks", recording.rejuvenations as f64);
        testbed_probes(&mut layers, &shift_mix(&recording), params.seed, models.features.window());
        let read = probe::journal_read_s(&dir, 5).expect("the recorded journal reads back");
        if let Some(s) = Summary::of(&read) {
            println!("  probe journal           read_s {s}");
        }
        layers.set("journal.read_s", median(&read));
        out.attribution = Some(search_attribution(&layers, &panel, &reference, traced_wall));
        for (name, value) in layer_names.iter().filter_map(|n| layers.get(n).map(|v| (n, v))) {
            out.metrics.set(name.clone(), value);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Splits a traced panel pass into fits per learner, inference, journal
/// reads (one per candidate) and the rest of replay.
fn search_attribution(
    m: &Metrics,
    panel: &[(usize, PolicyPoint)],
    scores: &[Option<Scored>],
    wall: f64,
) -> Attribution {
    let get = |n: &str| m.get(n).unwrap_or(0.0);
    let mut layers: Vec<(String, f64)> = LEARNERS
        .iter()
        .map(|l| (format!("ml.fit.{l}"), get(&format!("ml.fit_busy_s.{l}"))))
        .collect();
    layers.push(("ml.predict".into(), get("ml.predict_busy_s")));
    layers.push(("journal.read".into(), get("journal.read_s") * panel.len() as f64));
    let named: f64 = layers.iter().map(|(_, s)| s).sum();
    layers.push(("tune.replay_other".into(), (wall - named).max(0.0)));
    let objective = |learner: Option<LearnerKind>, class: usize| -> f64 {
        panel
            .iter()
            .zip(scores)
            .filter(|((c, p), _)| {
                *c == class && learner.map_or(p.learner != LearnerKind::Gbrt, |l| p.learner == l)
            })
            .filter_map(|(_, s)| s.as_ref().map(|s| s.objective))
            .fold(f64::INFINITY, f64::min)
    };
    let gbrt_s = get("tune.eval_s.gbrt");
    let roi = vec![format!(
        "GBRT: {gbrt_s:.3} s of {wall:.3} s per panel pass ({:.1}%) for objective leak {:.1} s / steady {:.1} s, \
         against the best other learner's leak {:.1} s / steady {:.1} s",
        100.0 * gbrt_s / wall,
        objective(Some(LearnerKind::Gbrt), 0),
        objective(Some(LearnerKind::Gbrt), 1),
        objective(None, 0),
        objective(None, 1),
    )];
    Attribution {
        workload: "policy_search",
        quality: format!(
            "best objective leak {:.1} s, steady {:.1} s",
            objective(None, 0).min(objective(Some(LearnerKind::Gbrt), 0)),
            objective(None, 1).min(objective(Some(LearnerKind::Gbrt), 1))
        ),
        wall_s: wall,
        layers,
        busy_s: wall,
        roi,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_instance_seeds_and_different_seed_different_ones() {
        let seeds = |seed| frozen_specs(seed).iter().map(|s| s.seed).collect::<Vec<_>>();
        assert_eq!(seeds(7), seeds(7));
        let (a, b) = (seeds(7), seeds(8));
        assert!(a.iter().zip(&b).all(|(x, y)| x != y), "every instance moves to a new sample path");
        let mut distinct = a.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), a.len(), "instances of one run get distinct seeds");
        let shifted = |seed| {
            shift_specs(seed, 12, 1.0, PREDICTIVE).iter().map(|s| s.seed).collect::<Vec<_>>()
        };
        assert_eq!(shifted(7), shifted(7));
        assert_ne!(shifted(7), shifted(8));
    }

    #[test]
    fn same_seed_gives_an_identical_frozen_outcome() {
        let inputs = |seed| {
            let mut inputs = frozen_inputs(seed);
            inputs.specs.truncate(8);
            inputs
        };
        let run = |inputs: &FrozenInputs| {
            let mut fleet = Fleet::new(inputs.specs.clone(), fleet_config(0.5))
                .expect("valid")
                .with_scheduler(scheduler());
            fleet = fleet.with_telemetry(Registry::shared());
            fleet.run(&*inputs.model, &inputs.features)
        };
        let a = inputs(11);
        let (first, second) = (run(&a), run(&inputs(11)));
        assert_eq!(first, second);
        assert_eq!(outcome_digest(&first), outcome_digest(&second));
        assert_ne!(outcome_digest(&first), outcome_digest(&run(&inputs(12))));
    }

    #[test]
    fn panel_covers_every_learner_for_both_classes() {
        let panel = panel();
        assert_eq!(panel.len(), LearnerKind::ALL.len() * CLASSES.len());
        for c in 0..CLASSES.len() {
            for kind in LearnerKind::ALL {
                assert!(panel
                    .iter()
                    .any(|(pc, p)| *pc == c && p.learner == kind && p.retrain_every.is_some()));
            }
        }
        assert!(panel.iter().all(|(_, p)| p.clamped() == *p), "panel points are valid as written");
    }
}
