//! [`EpochStep`]: the reusable unit of per-epoch work.
//!
//! One `EpochStep` owns a shard worker's epoch-boundary state — model
//! snapshot pins, its view of the live class table, effective threshold
//! overrides — and drives one shard through one fleet epoch:
//! refresh pins/classes → build the epoch's model table → advance every
//! instance, batch-predict per class, publish labelled checkpoints.
//!
//! The event-driven scheduler (`crate::scheduler`) runs one `EpochStep`
//! per shard, at most one epoch at a time and in epoch order. A shard's
//! work therefore depends only on its own state and the leader
//! boundaries, never on which worker thread runs it or when — which is
//! why every worker count, the sequential 1-worker pool included,
//! produces the same report.

use crate::config::FleetConfig;
use crate::engine::{emit_swaps, Discovery, ModelBinding};
use crate::shard::{EpochModels, Shard};
use aging_adapt::{ModelService, ModelSnapshot, ServiceClass};
use aging_obs::TraceHandle;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One shard worker's per-epoch state and the epoch driver itself.
pub(crate) struct EpochStep {
    shard_idx: usize,
    /// Live runs pin one model snapshot per class per epoch: pins refresh
    /// at epoch boundaries only, and only when the generation counter
    /// moved, so a publish mid-epoch never splits a batch across two
    /// models. Empty for frozen runs.
    pins: Vec<ModelSnapshot>,
    /// The class table this worker serves from, aligned with `pins`:
    /// synced from the live table at the first epoch and grown whenever
    /// the table's version moves.
    services: Vec<Arc<ModelService>>,
    /// Class names aligned with `services`/`pins` — the labels this
    /// shard's swap-apply events carry.
    class_names: Vec<ServiceClass>,
    /// The table version this worker last synced; `None` before the
    /// first epoch.
    seen_version: Option<u64>,
    /// Effective rejuvenation thresholds, same epoch-boundary discipline
    /// as the pins: read once per class per epoch from the class's model
    /// service, so a self-tuning policy's update lands at an epoch edge,
    /// never mid-batch. All `None` (the fixed-policy state) leaves the
    /// spec thresholds in force — bit-identical to the pre-policy engine.
    thresholds: Vec<Option<f64>>,
    trace: TraceHandle,
}

impl EpochStep {
    pub(crate) fn new(shard_idx: usize, trace: TraceHandle) -> Self {
        EpochStep {
            shard_idx,
            pins: Vec::new(),
            services: Vec::new(),
            class_names: Vec::new(),
            seen_version: None,
            thresholds: Vec::new(),
            trace,
        }
    }

    /// Epoch-boundary refresh of a live run: when the table's version
    /// moved (always at the first epoch), apply its assignment to this
    /// shard's instances and pin any new classes; then re-pin moved model
    /// generations (emitting the skipped-generation swap events) and
    /// re-read threshold overrides.
    fn refresh(&mut self, shard: &mut Shard, binding: &ModelBinding<'_>) {
        let ModelBinding::Live(table) = binding else {
            return;
        };
        let version = table.version.load(Ordering::Acquire);
        if self.seen_version != Some(version) {
            self.seen_version = Some(version);
            let classes = table.classes.read().expect("class table poisoned");
            for (orig, instance) in shard.instances.iter_mut() {
                let id = table.assignment[*orig].load(Ordering::Relaxed);
                instance.set_class(id, classes[id].0.clone());
            }
            for (name, service) in &classes[self.services.len()..] {
                self.pins.push(service.snapshot());
                self.class_names.push(name.clone());
                self.services.push(Arc::clone(service));
            }
            drop(classes);
            shard.ensure_classes(self.services.len());
            self.thresholds.resize(self.services.len(), None);
        }
        let shard_idx = self.shard_idx as u32;
        for (class_idx, ((service, pin), threshold)) in
            self.services.iter().zip(&mut self.pins).zip(&mut self.thresholds).enumerate()
        {
            let before = pin.generation;
            if service.refresh(pin) {
                emit_swaps(
                    &self.trace,
                    self.class_names[class_idx].as_str(),
                    shard_idx,
                    before,
                    pin.generation,
                    service,
                );
            }
            *threshold = service.rejuvenation_threshold_secs();
        }
    }

    /// Drives one shard through one fleet epoch: boundary refresh, then
    /// advance/predict/publish. Returns the shard's live-instance count
    /// after the epoch. The caller wraps this in `catch_unwind` — a
    /// panicking model or simulator must not strand the engine.
    pub(crate) fn run(
        &mut self,
        shard: &mut Shard,
        binding: &ModelBinding<'_>,
        config: &FleetConfig,
        epoch: u64,
    ) -> usize {
        self.refresh(shard, binding);
        // The model table this epoch serves from — borrows of `pins`, no
        // per-epoch allocation.
        let models = match binding {
            ModelBinding::Frozen(model) => EpochModels::Frozen(*model),
            ModelBinding::Live(_) => EpochModels::PerClass(&self.pins),
        };
        shard.epoch(models, &self.thresholds, config, epoch)
    }

    /// Publishes this shard's instance signatures into the discovery
    /// slots, so the leader's next evaluation sees every instance's
    /// latest stream.
    pub(crate) fn publish_signatures(shard: &Shard, discovery: &Discovery<'_>) {
        for (orig, instance) in shard.instances.iter() {
            *discovery.signatures[*orig].lock().expect("signature slot poisoned") =
                instance.signature();
        }
    }
}
