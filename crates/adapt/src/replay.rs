//! Offline journal replay: crash recovery and what-if re-execution.
//!
//! A checkpoint journal records the learning side's *inputs* (every
//! ingested batch) plus an audit trail of its *outputs* (generation
//! publishes, threshold re-derivations, discovery partitions). Replay
//! restores state by re-executing the inputs through the exact pipeline
//! the live stream fed — deterministic learners make the outputs land
//! bit-identically, which the recovery tests assert via state digests.
//!
//! The same entry point doubles as **what-if mode**: replay the recorded
//! stream under a *different* [`ClassSpec`] — another
//! [`ThresholdPolicy`](crate::ThresholdPolicy), another learner — and
//! compare the counterfactual outcome against what actually happened.
//! Because replay is synchronous and single-threaded, a what-if run is
//! exactly reproducible.

use crate::bus::{LabelledCheckpoint, ServiceClass};
use crate::pipeline::{AdaptationPipeline, RetrainAction};
use crate::policy::Thresholds;
use crate::router::ClassSpec;
use crate::service::{InThreadRetrain, ModelService};
use aging_journal::{Journal, JournalRecord};
use aging_obs::{HistogramHandle, TraceHandle};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Final adaptation state of one replayed class.
#[derive(Debug, Clone)]
pub struct ClassReplay {
    /// The replayed service class.
    pub class: ServiceClass,
    /// Model generation after the last replayed batch.
    pub generation: u64,
    /// Operating thresholds in force after the last replayed batch.
    pub thresholds: Thresholds,
    /// Rows held in the sliding buffer at the end of the replay.
    pub buffered: u64,
    /// Successful refits during the replay.
    pub retrains: u64,
    /// Drift triggers observed during the replay.
    pub drift_events: u64,
    /// Pipeline state digest — generation, buffered rows and thresholds
    /// folded into one `u64`, comparable against a live run's
    /// [`state digest`](crate::AdaptiveRouter::state_digests).
    pub digest: u64,
    /// Mean `|predicted − observed|` TTF error over the replay, in
    /// seconds, where predictions come from the replayed pipeline's *own*
    /// model generations (not the recorded live predictions). Only
    /// populated by [`replay_scored`]; `None` from [`replay`] and when no
    /// row carried a finite label.
    pub mean_abs_error_secs: Option<f64>,
    /// Rows that contributed to `mean_abs_error_secs`. Always 0 from
    /// [`replay`].
    pub scored_rows: u64,
}

/// The last fleet partition the journal recorded, if any.
#[derive(Debug, Clone)]
pub struct ReplayPartition {
    /// Monotone discovery round counter.
    pub version: u64,
    /// `(instance, class)` assignment pairs, in spec order.
    pub assignment: Vec<(String, String)>,
}

/// What a journal replay reconstructed.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Per-class end states, in the caller's class order.
    pub classes: Vec<ClassReplay>,
    /// Journal records read (including audit records that replay does not
    /// re-execute).
    pub records: u64,
    /// Checkpoint rows re-ingested.
    pub rows: u64,
    /// Checkpoint records skipped because their class was not in the
    /// caller's class set.
    pub skipped_records: u64,
    /// Bytes of torn tail truncated when the journal was opened.
    pub truncated_bytes: u64,
    /// The newest recorded fleet partition, when discovery ran.
    pub partition: Option<ReplayPartition>,
}

/// Replays the journal at `dir` through fresh per-class pipelines.
///
/// Each `(class, spec)` pair gets its own [`AdaptationPipeline`] — the
/// state machine the live [`AdaptiveRouter`] runs per class — with a
/// synchronous in-thread retrain in place of the router's worker pool;
/// recorded checkpoint batches are re-ingested in journal order.
/// Passing the specs of the original run makes this **crash recovery**;
/// passing altered specs makes it a **what-if run** over the same
/// recorded stream.
///
/// Checkpoint records for classes outside the given set are skipped and
/// counted in [`ReplayOutcome::skipped_records`]. Audit records
/// (publishes, threshold re-derivations, registrations) are not
/// re-executed — re-running the inputs regenerates them — but the newest
/// `PartitionAssigned` record is surfaced in
/// [`ReplayOutcome::partition`].
///
/// [`AdaptiveRouter`]: crate::AdaptiveRouter
///
/// # Errors
///
/// Propagates journal read failures: I/O errors and mid-log corruption
/// (a torn tail on the final segment is tolerated and reported via
/// [`ReplayOutcome::truncated_bytes`]).
pub fn replay(
    dir: impl AsRef<Path>,
    feature_names: Vec<String>,
    classes: Vec<(ServiceClass, ClassSpec)>,
) -> io::Result<ReplayOutcome> {
    replay_impl(dir, feature_names, classes, false)
}

/// Like [`replay`], but **scores** each class while it replays: every
/// checkpoint row is re-predicted from the replayed pipeline's *current*
/// model generation before ingestion, the recorded live prediction is
/// replaced with that counterfactual one (so the drift monitor and
/// threshold policies react to the candidate spec's own errors, not the
/// incumbent's), and the mean absolute TTF error lands in
/// [`ClassReplay::mean_abs_error_secs`]. Monitor-only observations carry
/// no feature vector, so they cannot be re-predicted: they keep their
/// recorded live prediction and do not contribute to the score.
///
/// This is the evaluation backend for policy search: replaying the same
/// journal under two specs yields directly comparable error/retrain
/// numbers. Single-threaded and deterministic — identical inputs give
/// bit-identical digests.
///
/// # Errors
///
/// Same failure modes as [`replay`].
pub fn replay_scored(
    dir: impl AsRef<Path>,
    feature_names: Vec<String>,
    classes: Vec<(ServiceClass, ClassSpec)>,
) -> io::Result<ReplayOutcome> {
    replay_impl(dir, feature_names, classes, true)
}

/// One replayed class's in-flight state: the pipeline, the model service
/// it publishes into (kept for counterfactual prediction), and the
/// scoring accumulators.
struct ClassState {
    class: ServiceClass,
    pipeline: AdaptationPipeline<InThreadRetrain>,
    models: Arc<ModelService>,
    abs_error_sum_secs: f64,
    scored_rows: u64,
}

fn replay_impl(
    dir: impl AsRef<Path>,
    feature_names: Vec<String>,
    classes: Vec<(ServiceClass, ClassSpec)>,
    scored: bool,
) -> io::Result<ReplayOutcome> {
    let mut pipelines: Vec<ClassState> = classes
        .into_iter()
        .map(|(class, spec)| {
            spec.config.validate();
            spec.policy.validate();
            let models = Arc::new(ModelService::new(spec.initial));
            let action = InThreadRetrain::new(
                spec.learner,
                feature_names.clone(),
                spec.config.buffer_capacity,
                Arc::clone(&models),
                HistogramHandle::disabled(),
                TraceHandle::disabled(),
                class.as_str().to_string(),
            );
            let pipeline = AdaptationPipeline::new(&spec.config, spec.policy, action);
            ClassState { class, pipeline, models, abs_error_sum_secs: 0.0, scored_rows: 0 }
        })
        .collect();

    let mut rows = 0u64;
    let mut skipped_records = 0u64;
    let mut partition = None;
    let read = Journal::for_each_record(dir, |_seq, record| {
        match record {
            JournalRecord::Checkpoints { class, rows: batch } => {
                let Some(state) = pipelines.iter_mut().find(|s| s.class.as_str() == class) else {
                    skipped_records += 1;
                    return;
                };
                rows += batch.len() as u64;
                let mut ingested: Vec<LabelledCheckpoint> =
                    batch.into_iter().map(LabelledCheckpoint::from).collect();
                if scored {
                    // One snapshot per batch: generations only move at
                    // ingest boundaries, so every row in this batch was
                    // (counterfactually) predicted by the same model.
                    let snapshot = state.models.snapshot();
                    for row in &mut ingested {
                        // Monitor-only observations record no feature
                        // vector — nothing to re-predict from. They keep
                        // their live prediction (still feeding the drift
                        // monitor) and stay out of the score.
                        if row.features.is_empty() {
                            continue;
                        }
                        let predicted = snapshot.model.predict(&row.features);
                        if row.ttf_secs.is_finite() && predicted.is_finite() {
                            state.abs_error_sum_secs += (predicted - row.ttf_secs).abs();
                            state.scored_rows += 1;
                        }
                        row.predicted_ttf_secs = Some(predicted);
                        row.predicted_generation = Some(snapshot.generation);
                    }
                }
                // Batch granularity is load-bearing: the retrain gate
                // fires once per ingested batch, exactly as it did live.
                state.pipeline.ingest(ingested);
            }
            JournalRecord::PartitionAssigned { version, assignment } => {
                partition = Some(ReplayPartition { version, assignment });
            }
            // Audit records: regenerated by re-execution, not re-applied.
            // Membership records fold into a roster via
            // `aging_journal::MembershipFold` — they carry no checkpoint
            // rows, so the adaptation replay passes over them.
            JournalRecord::GenerationPublished { .. }
            | JournalRecord::ThresholdsRederived { .. }
            | JournalRecord::ClassRegistered { .. }
            | JournalRecord::ClassRetired { .. }
            | JournalRecord::InstanceJoined { .. }
            | JournalRecord::InstanceRetired { .. } => {}
        }
    })?;

    let classes = pipelines
        .into_iter()
        .map(|state| {
            let counters = state.pipeline.counters();
            ClassReplay {
                class: state.class,
                generation: state.pipeline.action().generation(),
                thresholds: state.pipeline.thresholds(),
                buffered: counters.buffered(),
                retrains: counters.retrains(),
                drift_events: counters.drift_events(),
                digest: state.pipeline.state_digest(),
                mean_abs_error_secs: (state.scored_rows > 0)
                    .then(|| state.abs_error_sum_secs / state.scored_rows as f64),
                scored_rows: state.scored_rows,
            }
        })
        .collect();

    Ok(ReplayOutcome {
        classes,
        records: read.records,
        rows,
        skipped_records,
        truncated_bytes: read.truncated_bytes,
        partition,
    })
}
