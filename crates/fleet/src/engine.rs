//! The fleet engine: model bindings, sharding and report assembly. Every
//! run's epochs execute on the event-driven scheduler (`crate::scheduler`).

use crate::churn::{potential_roster, ChurnPlan};
use crate::config::{
    validate_config, validate_discovery, validate_spec, DiscoverySetup, FleetConfig, FleetError,
    InstanceSpec,
};
use crate::instance::Instance;
use crate::report::{
    DiscoveredClass, DiscoveryEvaluation, DiscoveryReport, FleetReport, FleetTiming,
    InstanceReport, JournalStats,
};
use crate::scheduler::{run_elastic, ElasticArgs, SchedulerConfig};
use crate::shard::{place_by_load, Shard, ShardInstruments};
use aging_adapt::discovery::{ClassDiscovery, SignatureAccumulator};
use aging_adapt::{AdaptiveRouter, CheckpointBus, ModelService, ServiceClass};
use aging_core::RejuvenationPolicy;
use aging_journal::{Journal, JournalRecord};
use aging_ml::Regressor;
use aging_monitor::FeatureSet;
use aging_obs::{
    recorder_of, trace_of, CounterHandle, EventKind, EventScope, FlightRecorder, GaugeHandle,
    HistogramHandle, Recorder, Registry, TraceHandle, Unit,
};
use aging_testbed::workload::Workload;
use aging_testbed::Scenario;
use aging_tune::FleetTuner;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Where the worker threads get their models from.
///
/// A frozen binding serves one `&dyn Regressor` for the whole run (the
/// original engine behaviour, bit-exact with `evaluate_policy`). A live
/// binding serves from a router's class table, one [`ModelService`] per
/// class: each worker *pins* its model snapshots per epoch — polling a
/// generation counter costs one atomic load per class — and re-pins at
/// the next epoch boundary after a publish, so one epoch's batch is always
/// served by exactly one generation per class.
pub(crate) enum ModelBinding<'a> {
    Frozen(&'a dyn Regressor),
    Live(&'a LiveTable<'a>),
}

impl<'a> ModelBinding<'a> {
    /// The discovery state of a live run with discovery attached.
    pub(crate) fn discovery(&self) -> Option<&'a Discovery<'a>> {
        match *self {
            ModelBinding::Live(table) => table.discovery.as_ref(),
            ModelBinding::Frozen(_) => None,
        }
    }
}

/// The class table of a live run ([`Fleet::run_routed`]): the serving side
/// of every class, the class of every roster slot, and — with discovery
/// attached — the state that re-partitions the fleet.
///
/// A routed run builds the table from its spec classes and never changes
/// it. A discovering run starts from the router's one seed class; the
/// scheduler's leader task re-evaluates the partition once every shard is
/// parked at a reassessment boundary (the only single-threaded window of
/// the epoch protocol) and publishes the new assignment through `version`.
/// Every shard applies it at the top of its next epoch — so an instance's
/// class, like its model snapshot, is pinned within an epoch.
pub(crate) struct LiveTable<'a> {
    /// `(class name, serving side)` per class id. Append-only — retired
    /// classes keep their slot so worker pins stay aligned.
    pub(crate) classes: RwLock<Vec<(ServiceClass, Arc<ModelService>)>>,
    /// Current class id per roster slot. Elastic runs size this for the
    /// *potential* roster, so membership changes never reallocate it.
    pub(crate) assignment: Vec<AtomicUsize>,
    /// Bumped after every discovery step; workers re-sync when it moves.
    pub(crate) version: AtomicU64,
    /// Discovery-only state; `None` for a routed run.
    pub(crate) discovery: Option<Discovery<'a>>,
}

/// The state a discovering run adds to its [`LiveTable`].
pub(crate) struct Discovery<'a> {
    router: &'a AdaptiveRouter,
    /// The router's one class when the run started: every instance begins
    /// in it, and every split registers its current spec.
    seed: ServiceClass,
    pub(crate) setup: DiscoverySetup,
    /// Durable journal: each discovery step appends the partition it
    /// just published, so a replay can restore the assignment alongside
    /// the learned state. `None` without [`Fleet::with_journal`].
    journal: Option<Arc<Journal>>,
    /// Instance names in roster order — the identifiers the journalled
    /// partition pairs with class names.
    instance_names: Vec<String>,
    /// Latest signature per roster slot, refreshed at reassessment
    /// boundaries; slots of instances that never join stay `None`.
    pub(crate) signatures: Vec<Mutex<Option<Vec<f64>>>>,
    /// Provisioned population: instances that joined minus instances
    /// churn-retired. The min-ready-fraction gate of every discovery
    /// evaluation is computed against this *live* count, not the slot
    /// count — a half-empty roster of potential autoscale spawns must not
    /// starve the gate. Natural horizon ageing does **not** decrement it
    /// (dead instances keep their signatures and kept counting before
    /// elasticity, bit-compatibly).
    pub(crate) population: AtomicUsize,
    engine: Mutex<ClassDiscovery>,
    reassignments: AtomicU64,
    /// Per-evaluation timeline, folded into the final report.
    log: Mutex<Vec<DiscoveryEvaluation>>,
    /// Leader-side discovery telemetry; disabled handles without a
    /// registry.
    instruments: DiscoveryInstruments,
    /// Trace sink for evaluation/split/merge/reassignment events;
    /// disabled when tracing is off.
    trace: TraceHandle,
}

/// Discovery-side telemetry, resolved once per run (the metric names and
/// meanings are in [`DiscoveryInstruments::resolve`]). All handles are
/// disabled (one untaken branch per use) when no registry is attached.
#[derive(Debug)]
struct DiscoveryInstruments {
    evaluation: HistogramHandle,
    silhouette: GaugeHandle,
    splits: CounterHandle,
    merges: CounterHandle,
    reassignments: CounterHandle,
}

impl DiscoveryInstruments {
    fn resolve(recorder: &dyn Recorder) -> Self {
        DiscoveryInstruments {
            evaluation: recorder.histogram(
                "discovery_evaluation_seconds",
                "Wall time of one class-discovery partition re-evaluation",
                Unit::Seconds,
            ),
            silhouette: recorder.gauge(
                "discovery_silhouette",
                "Silhouette score of the latest class-discovery evaluation",
            ),
            splits: recorder
                .counter("discovery_splits_total", "Classes spawned by discovery splits"),
            merges: recorder
                .counter("discovery_merges_total", "Classes retired by discovery merges"),
            reassignments: recorder.counter(
                "discovery_reassignments_total",
                "Instances re-routed to another discovered class",
            ),
        }
    }
}

/// Test seam: makes the leader's discovery step panic once the fleet has
/// completed this many epochs, exercising the catch-unwind +
/// flight-recorder dump path in the single-threaded window. `u64::MAX`
/// disables it.
#[cfg(test)]
pub(crate) static DISCOVERY_PANIC_AT: AtomicU64 = AtomicU64::new(u64::MAX);

impl LiveTable<'_> {
    /// One partition re-evaluation, run in the single-threaded leader
    /// window: the scheduled leader task, with every shard parked at the
    /// boundary. `epochs_done` is the number of completed fleet epochs.
    pub(crate) fn step(&self, epochs_done: u64) {
        #[cfg(test)]
        if epochs_done == DISCOVERY_PANIC_AT.load(Ordering::Relaxed) {
            panic!("synthetic discovery panic at epoch {epochs_done}");
        }
        let d = self.discovery.as_ref().expect("only discovering runs reassess");
        let evaluation_span = d.instruments.evaluation.span();
        let signatures: Vec<Option<Vec<f64>>> = d
            .signatures
            .iter()
            .map(|m| m.lock().expect("signature slot poisoned").clone())
            .collect();
        let ready = signatures.iter().filter(|s| s.is_some()).count();
        let outcome = d
            .engine
            .lock()
            .expect("discovery engine poisoned")
            .evaluate_with_population(&signatures, d.population.load(Ordering::Relaxed));
        d.instruments.silhouette.set(outcome.silhouette);
        d.instruments.splits.add(outcome.new_classes.len() as u64);
        d.instruments.merges.add(outcome.retired.len() as u64);
        let evaluated = d.trace.emit(
            EventScope::root(),
            EventKind::DiscoveryEvaluated {
                silhouette: outcome.silhouette,
                active_classes: outcome.active_classes as u64,
                ready_instances: ready as u64,
            },
        );

        // New classes first, so every id the assignment references exists
        // before any worker can observe the new version.
        if !outcome.new_classes.is_empty() {
            let mut classes = self.classes.write().expect("class table poisoned");
            for nc in &outcome.new_classes {
                // The seed's current spec, with the nearest centroid's
                // currently *published* model as generation 0 — the best
                // prior the fleet has for a regime that just split off.
                let mut spec = d.router.class_spec(&d.seed).expect("the seed class is registered");
                let seeded_from = match nc.seeded_from {
                    Some(src) => {
                        spec.initial = classes[src].1.snapshot().model;
                        classes[src].0.to_string()
                    }
                    None => d.seed.to_string(),
                };
                let name = ServiceClass::new(format!("discovered-{}", nc.id));
                let service = d
                    .router
                    .register_class(name.clone(), spec)
                    .expect("discovery ids are unique for the router's lifetime");
                assert_eq!(classes.len(), nc.id, "class table must align with discovery ids");
                let _ = d.trace.emit(
                    EventScope::root().class(name.as_str()).parent(evaluated),
                    EventKind::ClassSplit { seeded_from },
                );
                classes.push((name, service));
            }
        }

        // Re-point instances. Not-ready instances keep their class unless
        // it was just retired, in which case they follow the merge.
        let retired_into: HashMap<usize, usize> =
            outcome.retired.iter().map(|r| (r.id, r.into)).collect();
        for (i, slot) in outcome.assignment.iter().enumerate() {
            let current = self.assignment[i].load(Ordering::Relaxed);
            let next = match slot {
                Some(id) => *id,
                None => retired_into.get(&current).copied().unwrap_or(current),
            };
            if next != current {
                self.assignment[i].store(next, Ordering::Relaxed);
                d.reassignments.fetch_add(1, Ordering::Relaxed);
                d.instruments.reassignments.inc();
                if d.trace.enabled() {
                    let classes = self.classes.read().expect("class table poisoned");
                    let _ = d.trace.emit(
                        EventScope::root().class(classes[next].0.as_str()).parent(evaluated),
                        EventKind::ClassReassigned {
                            instance: i as u64,
                            from: classes[current].0.to_string(),
                        },
                    );
                }
            }
        }

        // Retire on the router last: assignments already point away, so
        // the drained buffer lands in the target before its next batch.
        if !outcome.retired.is_empty() {
            let classes = self.classes.read().expect("class table poisoned");
            for r in &outcome.retired {
                let (from, _) = &classes[r.id];
                let (into, _) = &classes[r.into];
                d.router.retire_class(from, into).expect("both classes are registered");
                let _ = d.trace.emit(
                    EventScope::root().class(from.as_str()).parent(evaluated),
                    EventKind::ClassMerged { into: into.to_string() },
                );
            }
        }
        self.version.fetch_add(1, Ordering::Release);

        // Journal the partition the fleet runs under from the next epoch:
        // `(instance, class)` pairs in roster order. An append failure is
        // reported but not fatal — the partition regenerates on replay by
        // re-running discovery, the record just short-circuits that.
        if let Some(journal) = &d.journal {
            let classes = self.classes.read().expect("class table poisoned");
            let assignment = d
                .instance_names
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    let id = self.assignment[i].load(Ordering::Relaxed);
                    (name.clone(), classes[id].0.to_string())
                })
                .collect();
            drop(classes);
            let record = JournalRecord::PartitionAssigned {
                version: self.version.load(Ordering::Relaxed),
                assignment,
            };
            if let Err(err) = journal.append(&record) {
                eprintln!("aging-fleet: journalling discovery partition failed: {err}");
            }
        }

        // Timeline entry: what this evaluation decided, plus a live
        // snapshot of each class's adaptation counters.
        let stats = d.router.stats();
        let classes = self.classes.read().expect("class table poisoned");
        let entry = DiscoveryEvaluation {
            epoch: epochs_done,
            ready_instances: ready,
            active_classes: outcome.active_classes,
            silhouette: outcome.silhouette,
            new_classes: outcome
                .new_classes
                .iter()
                .map(|nc| classes[nc.id].0.to_string())
                .collect(),
            retired_classes: outcome.retired.iter().map(|r| classes[r.id].0.to_string()).collect(),
            reassignments: d.reassignments.load(Ordering::Relaxed),
            class_drift_events: stats
                .classes
                .iter()
                .map(|c| (c.class.to_string(), c.stats.drift_events))
                .collect(),
            class_generations: stats
                .classes
                .iter()
                .map(|c| (c.class.to_string(), c.stats.generation))
                .collect(),
        };
        drop(classes);
        d.log.lock().expect("log poisoned").push(entry);
        evaluation_span.finish();
    }

    /// The final discovery report (after the run has joined), or `None`
    /// for a routed run.
    fn discovery_report(&self, n_instances: usize) -> Option<DiscoveryReport> {
        let d = self.discovery.as_ref()?;
        let classes = self.classes.read().expect("class table poisoned");
        let engine = d.engine.lock().expect("discovery engine poisoned");
        let assignment: Vec<usize> =
            (0..n_instances).map(|i| self.assignment[i].load(Ordering::Relaxed)).collect();
        let mut members = vec![0usize; classes.len()];
        for &id in &assignment {
            members[id] += 1;
        }
        Some(DiscoveryReport {
            classes: classes
                .iter()
                .enumerate()
                .map(|(id, (name, _))| DiscoveredClass {
                    class: name.to_string(),
                    members: members[id],
                    retired: engine.is_retired(id),
                })
                .collect(),
            evaluations_log: d.log.lock().expect("log poisoned").clone(),
            assignment: assignment.iter().map(|&id| classes[id].0.to_string()).collect(),
            reassignments: d.reassignments.load(Ordering::Relaxed),
            evaluations: engine.evaluations(),
            splits: engine.splits(),
            merges: engine.merges(),
        })
    }
}

/// Emits one `SwapApplied` event per generation this shard's pin just
/// skipped over — `(from, to]` — each parented on its generation's
/// publish event, so the causal chain closes the loop from drift back to
/// the worker actually serving the new model. Called only when a refresh
/// moved the pin, which is rare; the enabled check keeps even that path
/// free when tracing is off.
pub(crate) fn emit_swaps(
    trace: &TraceHandle,
    class: &str,
    shard: u32,
    from: u64,
    to: u64,
    service: &ModelService,
) {
    if !trace.enabled() {
        return;
    }
    for generation in (from + 1)..=to {
        let _ = trace.emit(
            EventScope::root()
                .class(class)
                .shard(shard)
                .generation(generation)
                .parent(service.publish_event_for(generation)),
            EventKind::SwapApplied,
        );
    }
}

/// Builds one [`Instance`] for the given binding — used for the initial
/// roster and for every elastic join, so a joiner is wired exactly like a
/// founding member. `global_idx` is the instance's slot in the (potential)
/// roster; live runs read its current class assignment from the table,
/// frozen runs place it by spec class in `classes`.
pub(crate) fn make_instance(
    spec: InstanceSpec,
    features: &FeatureSet,
    binding: &ModelBinding<'_>,
    classes: &[ServiceClass],
    joined_epoch: u64,
    global_idx: usize,
) -> Instance {
    let ModelBinding::Live(table) = binding else {
        let class_idx = classes
            .iter()
            .position(|c| c == &spec.class)
            .expect("class table covers every spec, churn joiners included");
        return Instance::new(spec, features, class_idx, joined_epoch);
    };
    let id = table.assignment[global_idx].load(Ordering::Relaxed);
    let mut instance = Instance::new(spec, features, id, joined_epoch);
    instance.set_class(id, table.classes.read().expect("class table poisoned")[id].0.clone());
    if let Some(discovery) = &table.discovery {
        instance.enable_discovery(SignatureAccumulator::new(
            discovery.setup.signature,
            features.variables(),
        ));
    }
    instance
}

/// A set of simulated deployments operated concurrently under shared
/// trained models.
///
/// Construction validates every spec; [`Fleet::run`] shards the instances
/// and drives them in epochs of 15-second checkpoints on the event-driven
/// scheduler's worker pool, batching each shard's TTF inferences
/// through [`Regressor::predict_matrix`] over flat reusable
/// [`aging_ml::FeatureMatrix`]es (one per service class).
/// [`Fleet::run_routed`] runs the same loop against a live
/// [`AdaptiveRouter`], giving every [`ServiceClass`] its own adapting
/// model — a router with one class adapts a homogeneous fleet — and with
/// [`Fleet::with_discovery`] attached lets the classes emerge from the
/// fleet's own aging signatures.
#[derive(Debug)]
pub struct Fleet {
    specs: Vec<InstanceSpec>,
    config: FleetConfig,
    telemetry: Option<Arc<Registry>>,
    trace: Option<Arc<FlightRecorder>>,
    journal: Option<Arc<Journal>>,
    tuner: Option<FleetTuner>,
    churn: Option<ChurnPlan>,
    discovery: Option<DiscoverySetup>,
    scheduler: SchedulerConfig,
}

impl Fleet {
    /// Assembles a fleet from explicit per-instance specs.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::NoInstances`] for an empty spec list and
    /// [`FleetError::InvalidParameter`] for degenerate policy or
    /// configuration values (same rules as the single-instance
    /// `evaluate_policy`).
    pub fn new(specs: Vec<InstanceSpec>, config: FleetConfig) -> Result<Self, FleetError> {
        if specs.is_empty() {
            return Err(FleetError::NoInstances);
        }
        validate_config(&config)?;
        for spec in &specs {
            validate_spec(spec)?;
        }
        Ok(Fleet {
            specs,
            config,
            telemetry: None,
            trace: None,
            journal: None,
            tuner: None,
            churn: None,
            discovery: None,
            scheduler: SchedulerConfig::default(),
        })
    }

    /// Attaches a telemetry registry: epoch-phase timings land in it per
    /// shard, scheduler queue depth and leader-window timings per run,
    /// discovery instrumentation per evaluation, and the final
    /// [`FleetReport::telemetry`] carries its snapshot. Pass the *same*
    /// registry to the router
    /// ([`aging_adapt::AdaptiveRouterBuilder::telemetry`]) to get one
    /// unified snapshot. Without this call the fleet pays one untaken
    /// branch per phase — never a clock read per checkpoint.
    #[must_use]
    pub fn with_telemetry(mut self, registry: Arc<Registry>) -> Self {
        self.telemetry = Some(registry);
        self
    }

    /// Attaches a causal trace sink: per-shard epoch-dispatch and
    /// model-swap events, discovery decisions and the fleet's epoch marks
    /// land in `recorder`, and a worker panic dumps the recorder's ring to
    /// stderr as JSONL before the payload is rethrown. Pass the *same*
    /// recorder to the router ([`aging_adapt::AdaptiveRouterBuilder::trace`])
    /// to get one unified causal stream — drift → trigger → refit →
    /// publish → swap all in one [`aging_obs::Trace`]. Without this call no
    /// event is built and no clock is read on any trace site.
    #[must_use]
    pub fn with_trace(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.trace = Some(recorder);
        self
    }

    /// Attaches a durable checkpoint journal. Attach the same handle to the
    /// router ([`aging_adapt::AdaptiveRouterBuilder::journal`]), which
    /// journals every routed batch *before* buffering it; the fleet adds
    /// membership records, a [`JournalRecord::PartitionAssigned`] entry at
    /// each discovery boundary, and the counters in
    /// [`FleetReport::journal`].
    #[must_use]
    pub fn with_journal(mut self, journal: Arc<Journal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Attaches a background policy tuner to the next
    /// [`Fleet::run_routed`] call: while the fleet runs, a dedicated
    /// thread repeatedly searches the rejuvenation-policy space off the
    /// live checkpoint journal ([`FleetTuner::step`]) and publishes every
    /// gate-approved promotion into the router via
    /// [`AdaptiveRouter::apply_spec`]. The final report carries the
    /// tuner's counters in [`FleetReport::tuning`].
    ///
    /// The tuner inherits the fleet's telemetry registry and trace
    /// recorder. Search rounds read the journal the run is writing; rounds
    /// that race the journal's creation are skipped and retried. A run
    /// whose promotion gate never fires is report-identical to the same
    /// run without a tuner (the `tuning` field aside, which equality
    /// ignores).
    #[must_use]
    pub fn with_tuner(mut self, tuner: FleetTuner) -> Self {
        self.tuner = Some(tuner);
        self
    }

    /// Attaches a [`ChurnPlan`]: scripted joins/retires and optional
    /// load-driven autoscaling make the population elastic: the scheduler
    /// applies joins and retires at the top of their epoch on the owning
    /// shard, and its leader task evaluates the autoscale rule.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidParameter`] when the plan is
    /// inconsistent with the fleet's roster: a join at epoch 0, a
    /// duplicated or invalid joining spec, a retire of an unknown
    /// instance or one scheduled at/before its own join, or a degenerate
    /// autoscale rule.
    pub fn with_churn(mut self, plan: ChurnPlan) -> Result<Self, FleetError> {
        plan.validate(&self.specs)?;
        self.churn = Some(plan);
        Ok(self)
    }

    /// Attaches automatic class discovery to the next
    /// [`Fleet::run_routed`] call. The router must serve exactly one
    /// class, the *seed*, which every instance starts in (spec classes are
    /// ignored). At every `setup.reassess_every_epochs` boundary the fleet
    /// re-clusters its instances' aging signatures: a gated split
    /// registers a class `discovered-<id>` on the router with the seed's
    /// current spec and the nearest centroid's published model, converged
    /// classes merge back, and instances are re-routed at the epoch
    /// boundary. The report carries the partition in
    /// [`FleetReport::discovery`]; with drift disabled in the seed spec it
    /// is deterministic, shard and worker counts included.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidParameter`] for a zero reassessment
    /// interval.
    pub fn with_discovery(mut self, setup: DiscoverySetup) -> Result<Self, FleetError> {
        validate_discovery(&setup)?;
        self.discovery = Some(setup);
        Ok(self)
    }

    /// Sizes the event-driven scheduler's worker pool (default: one
    /// worker per shard). Worker count is pure parallelism: outcomes are
    /// identical at every count, and a 1-worker pool runs the fleet
    /// sequentially — the reference the multi-worker runs are checked
    /// against.
    #[must_use]
    pub fn with_scheduler(mut self, scheduler: SchedulerConfig) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Convenience constructor: `n` deployments of the same scenario and
    /// policy, with seeds `base_seed, base_seed + 1, …` so every instance
    /// ages along its own sample path.
    ///
    /// # Errors
    ///
    /// See [`Fleet::new`].
    pub fn uniform(
        scenario: &Scenario,
        policy: RejuvenationPolicy,
        n: usize,
        base_seed: u64,
        config: FleetConfig,
    ) -> Result<Self, FleetError> {
        let specs = (0..n)
            .map(|i| {
                InstanceSpec::new(
                    format!("{}-{i:04}", scenario.name),
                    scenario.clone(),
                    policy,
                    base_seed.wrapping_add(i as u64),
                )
            })
            .collect();
        Fleet::new(specs, config)
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the fleet is empty (never true for a constructed fleet).
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The distinct service classes of this fleet, in first-appearance
    /// order over the specs — the class table every routed run indexes.
    /// Elastic fleets include the classes of every *potential* member
    /// (scripted joiners and the autoscale template), so a joiner's model
    /// service exists before it ever joins.
    pub fn classes(&self) -> Vec<ServiceClass> {
        let mut classes: Vec<ServiceClass> = Vec::new();
        for (_, spec, _) in potential_roster(&self.specs, self.churn.as_ref()) {
            if !classes.contains(&spec.class) {
                classes.push(spec.class);
            }
        }
        classes
    }

    /// Operates the fleet to its horizon with one frozen model.
    ///
    /// `model` is shared by reference across the worker pool (it is `Sync`
    /// by the `Regressor` contract); `features` must be the set the model
    /// was trained on. The outcome is deterministic in the specs, seeds and
    /// config — wall-clock [`FleetTiming`] is the only non-reproducible
    /// part, and it is excluded from report equality.
    pub fn run(self, model: &dyn Regressor, features: &FeatureSet) -> FleetReport {
        self.run_bound(ModelBinding::Frozen(model), features, None)
    }

    /// Operates the fleet against a live [`AdaptiveRouter`]: every
    /// instance's TTF queries resolve through **its class's** model
    /// service (pinned per worker epoch, re-pinned on generation change),
    /// and labelled crash epochs stream onto the router's bounded bus
    /// tagged with their class — so a workload shift in one class retrains
    /// that class's model while every other class keeps its own, and the
    /// retraining never pauses the worker threads. A homogeneous fleet
    /// runs against a router with the one class its specs name; with
    /// [`Fleet::with_discovery`] attached the router's one class is the
    /// seed the partition grows from.
    ///
    /// With drift triggering disabled ([`aging_adapt::DriftConfig`]
    /// `enabled: false` and no periodic schedule) no class leaves
    /// generation 0, and a one-class run is outcome-identical to
    /// [`Fleet::run`] on the initial model. With adaptation live, outcomes
    /// are *not* bit-deterministic across runs: which epoch first sees a
    /// new generation depends on thread scheduling. The labelled stream
    /// also carries one monitor-only counterfactual observation per
    /// proactive restart, which feeds drift detection — deliberately, so
    /// an adapted fleet whose crashes have become rare keeps its
    /// detection and self-tuning alive.
    ///
    /// The report carries the router's per-class
    /// [`aging_adapt::RouterStats`] in [`FleetReport::routing`]. The
    /// stats are snapshotted the moment the run returns, while the
    /// router may still be draining the last epochs' batches and fitting
    /// their refits; callers that need settled numbers should
    /// [`AdaptiveRouter::quiesce`] and re-read `router.stats()` (and may
    /// overwrite `report.routing` with the result).
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::InvalidParameter`] when some instance's class
    /// has no registered model service on the router, or — with discovery
    /// attached — when the router does not serve exactly one class, or
    /// its class collides with the `discovered-<id>` names splits
    /// register.
    pub fn run_routed(
        mut self,
        router: &AdaptiveRouter,
        features: &FeatureSet,
    ) -> Result<FleetReport, FleetError> {
        let table = self.live_table(router)?;
        let tuner = self.tuner.take();
        let telemetry = self.telemetry.clone();
        let trace = self.trace.clone();
        // Policy search runs beside the epoch loop: one background thread
        // steps the tuner off the live journal and publishes every
        // gate-approved promotion into the router as a spec swap. The
        // thread is scoped, so it can borrow the router and is always
        // joined before the report leaves.
        let stop_tuning = AtomicBool::new(false);
        let (mut report, tuning) = std::thread::scope(|scope| {
            let tuner_handle = tuner.map(|mut tuner| {
                if let Some(registry) = &telemetry {
                    tuner.attach_telemetry(registry);
                }
                tuner.attach_trace(trace_of(&trace));
                let stop_tuning = &stop_tuning;
                let trace = trace.clone();
                scope.spawn(move || {
                    while !stop_tuning.load(Ordering::Acquire) {
                        let stepped = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            // Journal read errors are expected while the
                            // run has not created the directory yet — skip
                            // the round and retry.
                            if let Ok(promotions) = tuner.step() {
                                for promotion in promotions {
                                    if let Some(initial) = tuner.initial_for(&promotion.class) {
                                        let _ = router.apply_spec(
                                            &promotion.class,
                                            promotion.point.to_spec(initial),
                                        );
                                    }
                                }
                            }
                        }));
                        if stepped.is_err() {
                            // A panicking search (a learner blowing up on
                            // replayed data, say) must not strand the run:
                            // dump the flight recorder once and stop
                            // tuning; the fleet finishes under whatever
                            // incumbents are already live.
                            if let Some(recorder) = &trace {
                                recorder.dump_once("fleet tuner thread panicked");
                            }
                            break;
                        }
                        // Breathe between rounds in stop-checking slices so
                        // shutdown never waits on a sleeping tuner.
                        for _ in 0..5 {
                            if stop_tuning.load(Ordering::Acquire) {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                    tuner.stats()
                })
            });
            let report = self.run_bound(ModelBinding::Live(&table), features, Some(router.bus()));
            stop_tuning.store(true, Ordering::Release);
            let tuning = tuner_handle.and_then(|handle| handle.join().ok());
            (report, tuning)
        });
        // Joined instances are a roster prefix, so the per-instance report
        // count is exactly the slice the partition covers.
        report.discovery = table.discovery_report(report.instances.len());
        report.routing = Some(router.stats());
        report.tuning = tuning;
        Ok(report)
    }

    /// Builds the class table a live run serves from: the spec classes'
    /// services for a routed run, or the router's one seed class with the
    /// discovery state when [`Fleet::with_discovery`] is attached.
    fn live_table<'r>(&mut self, router: &'r AdaptiveRouter) -> Result<LiveTable<'r>, FleetError> {
        // Slots cover the *potential* roster — initial specs, scripted
        // joiners, the autoscale pool — and joined instances always occupy
        // a contiguous prefix of it.
        let roster = potential_roster(&self.specs, self.churn.as_ref());
        let setup = self.discovery.take();
        let classes = match (&setup, router.classes().as_slice()) {
            (None, _) => self.classes(),
            // Splits register `discovered-<id>` for ids from 1 on.
            (Some(_), [seed])
                if seed.as_str().strip_prefix("discovered-").is_none_or(|id| id == "0") =>
            {
                vec![seed.clone()]
            }
            (Some(_), served) => {
                return Err(FleetError::InvalidParameter(format!(
                    "class discovery needs a router serving exactly one seed class, not named \
                     like the `discovered-<id>` classes splits register; it serves {served:?}"
                )))
            }
        };
        let services = classes
            .iter()
            .map(|class| {
                let service = router.model_service(class).ok_or_else(|| {
                    FleetError::InvalidParameter(format!(
                        "no model service registered for service class `{class}`"
                    ))
                })?;
                Ok((class.clone(), service))
            })
            .collect::<Result<_, FleetError>>()?;
        // Discovery ignores spec classes: every instance starts in the seed.
        let assignment = roster
            .iter()
            .map(|(_, spec, _)| {
                let id = classes.iter().position(|c| setup.is_some() || c == &spec.class);
                AtomicUsize::new(id.expect("the class table covers the potential roster"))
            })
            .collect();
        let discovery = setup.map(|setup| {
            let mut engine = ClassDiscovery::new(setup.discovery);
            if let Some(registry) = &self.telemetry {
                engine.set_recorder(Arc::clone(registry) as Arc<dyn Recorder>);
            }
            Discovery {
                router,
                seed: classes[0].clone(),
                setup,
                journal: self.journal.clone(),
                instance_names: roster.iter().map(|(_, spec, _)| spec.name.clone()).collect(),
                signatures: roster.iter().map(|_| Mutex::new(None)).collect(),
                population: AtomicUsize::new(self.specs.len()),
                engine: Mutex::new(engine),
                reassignments: AtomicU64::new(0),
                log: Mutex::new(Vec::new()),
                instruments: DiscoveryInstruments::resolve(recorder_of(&self.telemetry)),
                trace: trace_of(&self.trace),
            }
        });
        Ok(LiveTable {
            classes: RwLock::new(services),
            assignment,
            version: AtomicU64::new(0),
            discovery,
        })
    }

    fn run_bound(
        self,
        binding: ModelBinding<'_>,
        features: &FeatureSet,
        bus: Option<CheckpointBus>,
    ) -> FleetReport {
        let classes = match &binding {
            ModelBinding::Live(table) => {
                let table = table.classes.read().expect("class table poisoned");
                table.iter().map(|(name, _)| name.clone()).collect()
            }
            ModelBinding::Frozen(_) => self.classes(),
        };
        let n_classes = classes.len();
        let Fleet { specs, config, telemetry, trace, journal, churn, scheduler, .. } = self;
        let n_instances = specs.len();
        let n_shards = config.shards.min(n_instances).max(1);

        // One slot table for the whole potential roster (founders, scripted
        // joiners, the autoscale pool), weighted by each member's expected
        // request rate: the simulator's cost per checkpoint is linear in
        // it. The original index rides along so reports return in spec
        // order regardless of sharding.
        let placement = place_by_load(
            &potential_roster(&specs, churn.as_ref())
                .iter()
                .map(|(_, spec, _)| Workload::new(spec.scenario.config.workload).expected_rps())
                .collect::<Vec<_>>(),
            n_shards,
        );
        let mut shards: Vec<Shard> = {
            let mut buckets: Vec<Vec<(usize, Instance)>> =
                (0..n_shards).map(|_| Vec::new()).collect();
            for (i, spec) in specs.into_iter().enumerate() {
                let instance = make_instance(spec, features, &binding, &classes, 0, i);
                buckets[placement[i]].push((i, instance));
            }
            buckets
                .into_iter()
                .map(|bucket| Shard::new(bucket, features.len(), n_classes, bus.clone()))
                .collect()
        };
        for (idx, shard) in shards.iter_mut().enumerate() {
            shard.set_instruments(ShardInstruments::resolve(recorder_of(&telemetry), idx));
        }
        let started = Instant::now();
        let outcome = run_elastic(ElasticArgs {
            shards: &mut shards,
            placement: &placement,
            binding: &binding,
            classes: &classes,
            config: &config,
            features,
            churn: churn.as_ref(),
            scheduler,
            telemetry: recorder_of(&telemetry),
            trace_recorder: trace.as_deref(),
            trace: trace_of(&trace),
            journal: journal.as_deref(),
        });

        let wall_secs = started.elapsed().as_secs_f64();
        let mut reports: Vec<(usize, InstanceReport)> = shards
            .iter()
            .flat_map(|s| s.instances.iter().map(|(i, inst)| (*i, inst.report())))
            .collect();
        reports.sort_by_key(|(i, _)| *i);
        let instances: Vec<InstanceReport> = reports.into_iter().map(|(_, r)| r).collect();
        let checkpoints: u64 = instances.iter().map(|i| i.checkpoints).sum();
        let timing = FleetTiming {
            wall_secs,
            checkpoints_per_sec: if wall_secs > 0.0 { checkpoints as f64 / wall_secs } else { 0.0 },
        };
        let mut report = FleetReport::aggregate(
            instances,
            n_shards,
            outcome.epochs,
            config.rejuvenation.horizon_secs,
            timing,
        );
        // Churn accounting only reports when a plan was attached:
        // `FleetReport::churn` participates in equality, and a churn-free
        // run must compare equal across worker and shard counts.
        report.churn = churn.as_ref().map(|_| outcome.churn);
        report.scheduler = Some(outcome.scheduler);
        report.telemetry = telemetry.as_ref().map(|registry| registry.snapshot());
        report.journal = journal.as_ref().map(|journal| JournalStats {
            appended_records: journal.appended(),
            fsyncs: journal.fsyncs(),
            segment_rotations: journal.rotations(),
        });
        report
    }
}
