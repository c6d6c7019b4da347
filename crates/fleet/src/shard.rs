//! A shard: the slice of the fleet one worker thread owns.

use crate::config::FleetConfig;
use crate::instance::{Instance, Tick};
use aging_adapt::{CheckpointBus, ModelSnapshot};
use aging_ml::{FeatureMatrix, Regressor};
use aging_obs::{HistogramHandle, Recorder, Unit};

/// The model table one epoch serves from, resolved per class without any
/// per-epoch allocation: homogeneous bindings answer every class with the
/// one model, routed bindings index the worker's per-class snapshot pins.
/// Each entry also knows its model *generation* — labelled training data
/// carries it so the adaptation side can attribute every prediction error
/// to the generation that made it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EpochModels<'a> {
    /// Frozen runs: one model, generation 0, for every class.
    Frozen(&'a dyn Regressor),
    /// Live runs: the worker's pins, indexed by fleet class.
    PerClass(&'a [ModelSnapshot]),
}

impl EpochModels<'_> {
    fn class(&self, class_idx: usize) -> &dyn Regressor {
        match self {
            EpochModels::Frozen(model) => *model,
            EpochModels::PerClass(pins) => pins[class_idx].model.as_ref(),
        }
    }

    fn generation(&self, class_idx: usize) -> u64 {
        match self {
            EpochModels::Frozen(_) => 0,
            EpochModels::PerClass(pins) => pins[class_idx].generation,
        }
    }
}

/// Per-shard epoch-phase timing instruments. One clock read per *phase*
/// per epoch when live, one untaken branch per phase when disabled — never
/// a clock read per checkpoint row.
#[derive(Debug, Default)]
pub(crate) struct ShardInstruments {
    /// `fleet_epoch_advance_seconds{shard}` — driving every instance one
    /// checkpoint forward.
    advance: HistogramHandle,
    /// `fleet_epoch_predict_seconds{shard}` — the batched
    /// `predict_matrix` resolution across all classes.
    predict: HistogramHandle,
    /// `fleet_epoch_publish_seconds{shard}` — draining labelled batches
    /// onto the adaptation bus.
    publish: HistogramHandle,
    /// `fleet_counterfactual_fork_seconds{shard}` — one frozen-rate fork
    /// per proactive restart. Nested inside the phase that triggers the
    /// restart (advance for time-based, predict for predictive policies).
    fork: HistogramHandle,
}

impl ShardInstruments {
    /// Resolves the three phase histograms and the fork histogram for one
    /// shard id.
    pub(crate) fn resolve(recorder: &dyn Recorder, shard: usize) -> Self {
        let shard = shard.to_string();
        ShardInstruments {
            advance: recorder.histogram_with(
                "fleet_epoch_advance_seconds",
                "Per-epoch wall time advancing every instance of one shard by one checkpoint",
                Unit::Seconds,
                "shard",
                &shard,
            ),
            predict: recorder.histogram_with(
                "fleet_epoch_predict_seconds",
                "Per-epoch wall time of the batched TTF matrix predictions of one shard",
                Unit::Seconds,
                "shard",
                &shard,
            ),
            publish: recorder.histogram_with(
                "fleet_epoch_publish_seconds",
                "Per-epoch wall time publishing labelled checkpoint batches onto the bus",
                Unit::Seconds,
                "shard",
                &shard,
            ),
            fork: recorder.histogram_with(
                "fleet_counterfactual_fork_seconds",
                "Wall time of one counterfactual frozen-rate fork at a proactive restart",
                Unit::Seconds,
                "shard",
                &shard,
            ),
        }
    }
}

/// A worker's instances plus reusable per-epoch buffers.
///
/// Heterogeneous fleets serve different model generations to different
/// service classes, so the shard keeps one batch matrix per fleet class:
/// each epoch's pending rows land in their class's matrix and resolve
/// through that class's pinned model. A single-class fleet degenerates to
/// exactly the old one-matrix behaviour (same row order, same single
/// `predict_matrix` call per epoch).
#[derive(Debug)]
pub(crate) struct Shard {
    /// `(original fleet index, instance)` — the index restores spec order
    /// when per-instance reports are folded back together.
    pub(crate) instances: Vec<(usize, Instance)>,
    /// Flat row-major batches of this epoch's pending feature rows, one
    /// per fleet class; cleared and refilled every epoch, so steady-state
    /// epochs perform no per-row allocations at all.
    matrices: Vec<FeatureMatrix>,
    /// Per class, which instance slots appended a row this epoch (row `i`
    /// of `matrices[c]` belongs to `pending[c][i]`).
    pending: Vec<Vec<usize>>,
    /// Feature arity, kept so [`Shard::ensure_classes`] can size the
    /// matrices of dynamically discovered classes.
    n_features: usize,
    /// Producer handle on the adaptation bus; `None` for frozen runs.
    bus: Option<CheckpointBus>,
    /// Epoch-phase timing; disabled handles when no telemetry is attached.
    instruments: ShardInstruments,
}

impl Shard {
    pub(crate) fn new(
        instances: Vec<(usize, Instance)>,
        n_features: usize,
        n_classes: usize,
        bus: Option<CheckpointBus>,
    ) -> Self {
        let capacity = instances.len();
        Shard {
            instances,
            matrices: (0..n_classes)
                .map(|_| FeatureMatrix::with_capacity(n_features, capacity))
                .collect(),
            pending: (0..n_classes).map(|_| Vec::with_capacity(capacity)).collect(),
            n_features,
            bus,
            instruments: ShardInstruments::default(),
        }
    }

    /// Attaches epoch-phase timing instruments (resolved once per shard,
    /// before the worker pool starts) and hands the fork timer to every
    /// instance.
    pub(crate) fn set_instruments(&mut self, instruments: ShardInstruments) {
        for (_, instance) in &mut self.instances {
            instance.set_fork_timer(instruments.fork.clone());
        }
        self.instruments = instruments;
    }

    /// Grows the per-class batch buffers to `n_classes` (class discovery
    /// registers classes mid-run; the table is append-only, so existing
    /// matrices keep their slots). Called at epoch boundaries only.
    pub(crate) fn ensure_classes(&mut self, n_classes: usize) {
        let capacity = self.instances.len();
        while self.matrices.len() < n_classes {
            self.matrices.push(FeatureMatrix::with_capacity(self.n_features, capacity));
            self.pending.push(Vec::with_capacity(capacity));
        }
    }

    /// Admits a joining instance (elastic runs): slot assignment is
    /// append-only, so existing pending-row bookkeeping stays valid.
    /// Called at the top of a fleet epoch only, before any row of that
    /// epoch is batched.
    pub(crate) fn admit(&mut self, fleet_index: usize, mut instance: Instance) {
        instance.set_fork_timer(self.instruments.fork.clone());
        self.instances.push((fleet_index, instance));
    }

    /// Force-retires the instance with the given fleet index (scripted
    /// churn). Returns whether a live instance was actually retired.
    pub(crate) fn force_retire(&mut self, fleet_index: usize, fleet_epoch: u64) -> bool {
        self.instances
            .iter_mut()
            .find(|(idx, _)| *idx == fleet_index)
            .is_some_and(|(_, instance)| instance.force_retire(fleet_epoch))
    }

    /// Drives every instance one checkpoint forward, then resolves all
    /// pending TTF predictions with one batched inference per service
    /// class over that class's model. Returns how many instances are
    /// still live.
    ///
    /// `threshold_overrides` carries each fleet class's effective
    /// rejuvenation threshold for this epoch (read from the class's model
    /// service at the epoch boundary, like the model pins); `None` entries
    /// leave the spec-configured thresholds in force. `fleet_epoch` is the
    /// fleet epoch being driven — instances that cross their horizon this
    /// tick record it as their retirement epoch.
    pub(crate) fn epoch(
        &mut self,
        models: EpochModels<'_>,
        threshold_overrides: &[Option<f64>],
        config: &FleetConfig,
        fleet_epoch: u64,
    ) -> usize {
        for matrix in &mut self.matrices {
            matrix.clear();
        }
        for pending in &mut self.pending {
            pending.clear();
        }
        let collect = self.bus.is_some();
        let mut live = 0usize;
        let advance_span = self.instruments.advance.span();
        for (slot, (_, instance)) in self.instances.iter_mut().enumerate() {
            let class = instance.class_idx();
            match instance.advance(config, &mut self.matrices[class], collect, fleet_epoch) {
                Tick::Retired => {}
                Tick::Advanced => live += 1,
                Tick::NeedsPrediction => {
                    live += 1;
                    self.pending[class].push(slot);
                }
            }
        }
        advance_span.finish();
        let predict_span = self.instruments.predict.span();
        for (class, matrix) in self.matrices.iter().enumerate() {
            if matrix.is_empty() {
                continue;
            }
            let predictions = models.class(class).predict_matrix(matrix);
            debug_assert_eq!(predictions.len(), self.pending[class].len());
            let threshold_override = threshold_overrides.get(class).copied().flatten();
            let generation = models.generation(class);
            for (row_idx, (&slot, &prediction)) in
                self.pending[class].iter().zip(&predictions).enumerate()
            {
                self.instances[slot].1.apply_prediction(
                    prediction,
                    matrix.row(row_idx),
                    config,
                    collect,
                    threshold_override,
                    generation,
                );
            }
        }
        predict_span.finish();
        if let Some(bus) = &self.bus {
            let publish_span = self.instruments.publish.span();
            for (_, instance) in &mut self.instances {
                if let Some(batch) = instance.take_labelled() {
                    // A `false` return means the adaptation service is
                    // gone; the fleet keeps operating on its pinned model.
                    let _ = bus.publish(batch);
                }
            }
            publish_span.finish();
        }
        live
    }
}

/// Places every member of a fleet's potential roster on a shard: in
/// roster order, each member goes to the shard whose members' summed
/// `weights` is smallest so far, ties to the lowest shard index. Returns
/// the shard of each roster index. Equal weights reproduce round robin
/// (`i % n_shards`) exactly; unequal ones keep every shard's load within
/// one member's weight of the others'.
pub(crate) fn place_by_load(weights: &[f64], n_shards: usize) -> Vec<usize> {
    let mut loads = vec![0.0_f64; n_shards];
    weights
        .iter()
        .map(|&w| {
            // `min_by` keeps the first of equal minima: the lowest index.
            let target = (0..n_shards)
                .min_by(|&a, &b| loads[a].total_cmp(&loads[b]))
                .expect("a fleet has at least one shard");
            loads[target] += w;
            target
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aging_testbed::config::WorkloadConfig;
    use aging_testbed::workload::Workload;

    #[test]
    fn equal_weights_place_round_robin() {
        for n_shards in 1..=5 {
            let placement = place_by_load(&[14.3; 23], n_shards);
            let round_robin: Vec<usize> = (0..23).map(|i| i % n_shards).collect();
            assert_eq!(placement, round_robin, "{n_shards} shards");
        }
    }

    #[test]
    fn mixed_request_rates_balance_within_one_member() {
        let rps = |ebs| {
            Workload::new(WorkloadConfig { emulated_browsers: ebs, ..Default::default() })
                .expected_rps()
        };
        let weights: Vec<f64> = (0..120).map(|i| rps([50, 100, 150, 200][i % 4])).collect();
        for n_shards in [2, 3, 4, 8] {
            let placement = place_by_load(&weights, n_shards);
            let mut loads = vec![0.0; n_shards];
            for (&shard, &w) in placement.iter().zip(&weights) {
                loads[shard] += w;
            }
            let (lo, hi) =
                loads.iter().fold((f64::INFINITY, 0.0_f64), |(lo, hi), &l| (lo.min(l), hi.max(l)));
            assert!(hi - lo <= rps(200) + 1e-9, "{n_shards} shards: loads {loads:?}");
        }
    }
}
