//! The checkpoint bus: asynchronous, *bounded* ingestion of labelled
//! monitoring data.
//!
//! A production deployment does not hand checkpoints to the analysis
//! subsystem in lock-step function calls — monitors push them over a
//! transport and the analysis side drains at its own pace. The
//! [`CheckpointBus`] is that transport: a multi-producer ring carrying
//! [`CheckpointBatch`]es from any number of sources (fleet shards, external
//! monitor streams, replayed traces) to one consumer (normally the ingest
//! thread of an [`crate::AdaptiveRouter`]). Sending never blocks the
//! producer, so the fleet's worker pool is fully decoupled from
//! retraining.
//!
//! # Back-pressure
//!
//! The ring holds at most `capacity` batches. When a publish finds the
//! ring full — a stalled or slow retrainer at fleet scale — the bus sheds
//! load instead of growing: it drops the **oldest batch of the source with
//! the most batches queued** (ties broken towards the front of the ring).
//! Two consequences, both deliberate:
//!
//! - **bounded memory**: however long the consumer stalls, the bus never
//!   holds more than `capacity` batches (see the property tests);
//! - **per-source fairness**: a skewed producer sheds its *own* history
//!   first — a quiet shard's rare labelled epochs survive a neighbour's
//!   flood, so light service classes keep their training signal.
//!
//! Dropped data is counted, never silent: [`CheckpointBus::dropped_batches`]
//! / [`CheckpointBus::dropped_checkpoints`] feed `AdaptationStats` and the
//! fleet report.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use aging_obs::{EventKind, EventScope, GaugeHandle, Recorder, Registry, TraceHandle};

/// Default ring capacity (batches) for [`CheckpointBus::channel`].
pub const DEFAULT_BUS_CAPACITY: usize = 1024;

/// Most distinct [`ServiceClass`] tags the per-class shed attribution
/// tracks — the memory bound for the attribution map under a producer
/// that invents class names (sheds of classes beyond the cap still count
/// in the fleet-wide totals).
pub const DROP_ATTRIBUTION_CLASS_CAP: usize = 1024;

/// Identifies which adaptation domain a checkpoint batch (and, fleet-side,
/// an instance) belongs to.
///
/// Heterogeneous fleets run mixed scenarios with different aging
/// signatures — a memory-leak class and a swap-thrash class must not
/// pollute each other's training buffers. Producers tag every
/// [`CheckpointBatch`] with a class; the [`crate::AdaptiveRouter`] keeps
/// one model service, drift monitor and sliding buffer per class. A class
/// is orthogonal to the scenario: operators group deployments however
/// their aging behaviour clusters.
#[derive(
    Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct ServiceClass(String);

impl ServiceClass {
    /// Creates a class from any string-ish id.
    pub fn new(id: impl Into<String>) -> Self {
        ServiceClass(id.into())
    }

    /// The class id.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Default for ServiceClass {
    /// The implicit class of a homogeneous fleet (`"default"`), used by
    /// every spec and batch that never names one.
    fn default() -> Self {
        ServiceClass("default".into())
    }
}

impl fmt::Display for ServiceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ServiceClass {
    fn from(id: &str) -> Self {
        ServiceClass::new(id)
    }
}

impl From<String> for ServiceClass {
    fn from(id: String) -> Self {
        ServiceClass(id)
    }
}

/// One monitoring checkpoint with its ground-truth label, ready for the
/// sliding training buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelledCheckpoint {
    /// Feature row, in the adaptation service's feature-set order.
    pub features: Vec<f64>,
    /// True (retrospective) time to failure in seconds, capped by the
    /// producer at its labelling horizon.
    pub ttf_secs: f64,
    /// The TTF the serving model predicted at this checkpoint, if one was
    /// made — the drift monitor turns `|predicted − ttf|` into its error
    /// signal.
    pub predicted_ttf_secs: Option<f64>,
    /// The model generation that produced `predicted_ttf_secs`, when the
    /// producer knows it (the fleet tags every prediction with its pinned
    /// snapshot's generation). Retrospective labelling means a batch can
    /// mix generations — an epoch that straddles a model swap carries
    /// both — and self-tuning threshold policies use this tag to derive
    /// thresholds only from errors attributable to the *current*
    /// generation. `None` (external producers) is treated as current.
    pub predicted_generation: Option<u64>,
    /// Monitor-only observations feed the drift monitor and threshold
    /// policies but never the training buffer. The fleet labels
    /// proactive-restart epochs against their counterfactual fork this
    /// way: the error signal is real, but the fork's horizon-capped TTF
    /// would bias the regression if it were trained on — and without
    /// these observations a well-adapted class (whose crashes have become
    /// rare) would starve its own drift detection and self-tuning.
    pub monitor_only: bool,
}

impl LabelledCheckpoint {
    /// A trainable checkpoint with no generation attribution (external
    /// producers; fleet-side batches tag generations explicitly).
    pub fn new(features: Vec<f64>, ttf_secs: f64, predicted_ttf_secs: Option<f64>) -> Self {
        LabelledCheckpoint {
            features,
            ttf_secs,
            predicted_ttf_secs,
            predicted_generation: None,
            monitor_only: false,
        }
    }

    /// A monitor-only error observation (no feature row, never trained
    /// on): `predicted` against `actual`, attributed to the generation
    /// that predicted.
    pub fn monitor_observation(
        actual_ttf_secs: f64,
        predicted_ttf_secs: f64,
        predicted_generation: Option<u64>,
    ) -> Self {
        LabelledCheckpoint {
            features: Vec::new(),
            ttf_secs: actual_ttf_secs,
            predicted_ttf_secs: Some(predicted_ttf_secs),
            predicted_generation,
            monitor_only: true,
        }
    }

    /// Absolute prediction error in seconds, if a prediction was made.
    pub fn abs_error_secs(&self) -> Option<f64> {
        self.predicted_ttf_secs.map(|p| (p - self.ttf_secs).abs())
    }
}

/// A journalled checkpoint row is a labelled checkpoint, field for field
/// — replay re-ingests recorded batches through the same pipelines the
/// live stream fed.
impl From<aging_journal::JournalCheckpoint> for LabelledCheckpoint {
    fn from(row: aging_journal::JournalCheckpoint) -> Self {
        LabelledCheckpoint {
            features: row.features,
            ttf_secs: row.ttf_secs,
            predicted_ttf_secs: row.predicted_ttf_secs,
            predicted_generation: row.predicted_generation,
            monitor_only: row.monitor_only,
        }
    }
}

/// A batch of labelled checkpoints from one source — typically one
/// completed (crashed or proactively restarted) service epoch of one
/// instance, labelled retrospectively.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointBatch {
    /// Producer identifier (instance name, stream name, …) — the fairness
    /// domain of the bounded ring's drop policy.
    pub source: String,
    /// Which per-class adaptation domain the batch belongs to; consumers
    /// without class routing ignore it.
    pub class: ServiceClass,
    /// The labelled checkpoints, in time order.
    pub checkpoints: Vec<LabelledCheckpoint>,
}

/// Ring state behind the mutex.
#[derive(Debug)]
struct BusState {
    queue: VecDeque<CheckpointBatch>,
    /// Checkpoints currently queued (sum over `queue`).
    queued_checkpoints: u64,
    /// Batches queued per source — the fairness accounting.
    per_source: HashMap<String, usize>,
    /// Checkpoints shed so far, attributed to the [`ServiceClass`] of the
    /// batch they rode in on (the shed happens *before* routing, so this
    /// is the only place the class tag of a dropped batch survives).
    dropped_per_class: HashMap<ServiceClass, u64>,
    consumer_alive: bool,
}

/// Telemetry hooks of one bus. The depth gauge is resolved once at
/// construction (updates are branch-plus-atomic); the registry is kept
/// only for per-class shed attribution, a rare path where re-entering the
/// registry is fine. The trace handle marks each shed in the causal event
/// stream — disabled, it is one untaken branch.
#[derive(Debug, Default)]
struct BusTelemetry {
    depth: GaugeHandle,
    registry: Option<Arc<Registry>>,
    trace: TraceHandle,
}

impl BusTelemetry {
    fn record_shed(&self, class: &ServiceClass, checkpoints: u64) {
        if let Some(registry) = &self.registry {
            registry
                .counter_with(
                    "adapt_bus_shed_checkpoints_total",
                    "Checkpoints shed by the bounded checkpoint bus, by class",
                    "class",
                    class.as_str(),
                )
                .add(checkpoints);
        }
        let _ = self
            .trace
            .emit(EventScope::root().class(class.as_str()), EventKind::BusShed { checkpoints });
    }
}

#[derive(Debug)]
struct BusShared {
    state: Mutex<BusState>,
    available: Condvar,
    capacity: usize,
    /// Producer handles alive (bus clones).
    producers: AtomicUsize,
    /// Checkpoints accepted by `publish` across all producers, *including*
    /// any later shed by the drop policy.
    enqueued: AtomicU64,
    dropped_batches: AtomicU64,
    dropped_checkpoints: AtomicU64,
    telemetry: BusTelemetry,
}

/// Sending half of the bus. Cheap to clone — every shard/producer holds its
/// own handle.
#[derive(Debug)]
pub struct CheckpointBus {
    shared: Arc<BusShared>,
}

impl Clone for CheckpointBus {
    fn clone(&self) -> Self {
        self.shared.producers.fetch_add(1, Ordering::Relaxed);
        CheckpointBus { shared: Arc::clone(&self.shared) }
    }
}

impl Drop for CheckpointBus {
    fn drop(&mut self) {
        if self.shared.producers.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last producer gone: wake the consumer so a blocked
            // `recv_timeout` can report the disconnect immediately.
            let _guard = self.shared.state.lock().expect("bus state poisoned");
            self.shared.available.notify_all();
        }
    }
}

impl CheckpointBus {
    /// Creates a connected bus/receiver pair with the default ring
    /// capacity ([`DEFAULT_BUS_CAPACITY`] batches).
    pub fn channel() -> (CheckpointBus, BusReceiver) {
        CheckpointBus::bounded(DEFAULT_BUS_CAPACITY)
    }

    /// Creates a connected bus/receiver pair whose ring holds at most
    /// `capacity` batches (see the module docs for the drop policy).
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero — a ring that can hold nothing would
    /// silently discard every publish.
    pub fn bounded(capacity: usize) -> (CheckpointBus, BusReceiver) {
        Self::build(capacity, BusTelemetry::default())
    }

    /// Like [`CheckpointBus::bounded`], but instrumented: queue depth is
    /// tracked in the `adapt_bus_depth_batches` gauge and every shed
    /// checkpoint increments `adapt_bus_shed_checkpoints_total` for its
    /// class in `registry`.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero, like [`CheckpointBus::bounded`].
    pub fn bounded_with_telemetry(
        capacity: usize,
        registry: Arc<Registry>,
    ) -> (CheckpointBus, BusReceiver) {
        Self::bounded_instrumented(capacity, Some(registry), TraceHandle::disabled())
    }

    /// The fully instrumented constructor the service/router builders use:
    /// optional metrics registry plus an (independently optional) trace
    /// sink for `BusShed` events.
    pub(crate) fn bounded_instrumented(
        capacity: usize,
        registry: Option<Arc<Registry>>,
        trace: TraceHandle,
    ) -> (CheckpointBus, BusReceiver) {
        let depth = match &registry {
            Some(registry) => {
                let depth = registry.gauge(
                    "adapt_bus_depth_batches",
                    "Batches currently queued on the checkpoint bus",
                );
                depth.set(0.0);
                depth
            }
            None => GaugeHandle::disabled(),
        };
        Self::build(capacity, BusTelemetry { depth, registry, trace })
    }

    fn build(capacity: usize, telemetry: BusTelemetry) -> (CheckpointBus, BusReceiver) {
        assert!(capacity > 0, "bus capacity must be positive");
        let shared = Arc::new(BusShared {
            state: Mutex::new(BusState {
                queue: VecDeque::new(),
                queued_checkpoints: 0,
                per_source: HashMap::new(),
                dropped_per_class: HashMap::new(),
                consumer_alive: true,
            }),
            available: Condvar::new(),
            capacity,
            producers: AtomicUsize::new(1),
            enqueued: AtomicU64::new(0),
            dropped_batches: AtomicU64::new(0),
            dropped_checkpoints: AtomicU64::new(0),
            telemetry,
        });
        (CheckpointBus { shared: Arc::clone(&shared) }, BusReceiver { shared })
    }

    /// Publishes a batch; never blocks. Returns `false` when the consumer
    /// is gone (the service shut down) — producers treat that as
    /// "adaptation disabled" and keep operating on their pinned model.
    ///
    /// When the ring is full the publish still succeeds: the oldest batch
    /// of the most-queued source is shed to make room (counted in
    /// [`CheckpointBus::dropped_batches`]).
    pub fn publish(&self, batch: CheckpointBatch) -> bool {
        let n = batch.checkpoints.len() as u64;
        let mut state = self.shared.state.lock().expect("bus state poisoned");
        if !state.consumer_alive {
            return false;
        }
        *state.per_source.entry(batch.source.clone()).or_insert(0) += 1;
        state.queued_checkpoints += n;
        state.queue.push_back(batch);
        self.shared.enqueued.fetch_add(n, Ordering::Relaxed);
        if state.queue.len() > self.shared.capacity {
            self.shed_one(&mut state);
        }
        self.shared.telemetry.depth.set(state.queue.len() as f64);
        self.shared.available.notify_one();
        true
    }

    /// Drops the oldest batch of the heaviest source (most batches
    /// queued); ties resolve to whichever tied source has the older batch,
    /// i.e. the scan from the front wins.
    fn shed_one(&self, state: &mut BusState) {
        let heaviest = *state.per_source.values().max().expect("queue is non-empty");
        let victim = state
            .queue
            .iter()
            .position(|b| state.per_source[&b.source] == heaviest)
            .expect("some queued batch belongs to the heaviest source");
        let batch = state.queue.remove(victim).expect("index from position");
        let count = state.per_source.get_mut(&batch.source).expect("source was counted");
        *count -= 1;
        if *count == 0 {
            state.per_source.remove(&batch.source);
        }
        // `saturating_sub`, not `-=`: the depth gauge must never wrap. The
        // invariant (queued == Σ pushed − Σ popped − Σ shed) is asserted in
        // debug builds and property-tested under interleaved shed/pop.
        debug_assert!(
            state.queued_checkpoints >= batch.checkpoints.len() as u64,
            "shed of {} checkpoints would underflow the depth gauge ({} queued)",
            batch.checkpoints.len(),
            state.queued_checkpoints
        );
        state.queued_checkpoints =
            state.queued_checkpoints.saturating_sub(batch.checkpoints.len() as u64);
        // The attribution map is keyed by producer-supplied class tags, so
        // it must stay bounded like everything else on this bus: beyond
        // the cap, sheds of *new* classes are counted only in the
        // fleet-wide total (classes already tracked keep attributing).
        // Real fleets register a handful of classes; only a misbehaving
        // producer inventing class names per batch ever hits this.
        let shed_checkpoints = batch.checkpoints.len() as u64;
        self.shared.telemetry.record_shed(&batch.class, shed_checkpoints);
        if state.dropped_per_class.contains_key(&batch.class)
            || state.dropped_per_class.len() < DROP_ATTRIBUTION_CLASS_CAP
        {
            *state.dropped_per_class.entry(batch.class).or_insert(0) += shed_checkpoints;
        }
        self.shared.dropped_batches.fetch_add(1, Ordering::Relaxed);
        self.shared.dropped_checkpoints.fetch_add(shed_checkpoints, Ordering::Relaxed);
    }

    /// Total checkpoints accepted by `publish` across all clones of this
    /// bus, including any later shed by the drop policy. Together with the
    /// consumer's ingested count and [`CheckpointBus::dropped_checkpoints`]
    /// this lets tests and examples wait for the bus to drain.
    pub fn enqueued_checkpoints(&self) -> u64 {
        self.shared.enqueued.load(Ordering::Relaxed)
    }

    /// Checkpoints shed by the bounded ring's drop policy so far.
    pub fn dropped_checkpoints(&self) -> u64 {
        self.shared.dropped_checkpoints.load(Ordering::Relaxed)
    }

    /// Checkpoints shed so far that were tagged with `class` — the
    /// per-class attribution behind `RouterStats`' per-class
    /// `dropped_checkpoints`. Sums (over every class that ever published)
    /// to [`CheckpointBus::dropped_checkpoints`].
    pub fn dropped_checkpoints_for(&self, class: &ServiceClass) -> u64 {
        self.shared
            .state
            .lock()
            .expect("bus state poisoned")
            .dropped_per_class
            .get(class)
            .copied()
            .unwrap_or(0)
    }

    /// Snapshot of the per-class shed attribution (classes in unspecified
    /// order; only classes with at least one dropped checkpoint appear).
    pub fn dropped_checkpoints_by_class(&self) -> Vec<(ServiceClass, u64)> {
        self.shared
            .state
            .lock()
            .expect("bus state poisoned")
            .dropped_per_class
            .iter()
            .map(|(class, &n)| (class.clone(), n))
            .collect()
    }

    /// Batches shed by the bounded ring's drop policy so far.
    pub fn dropped_batches(&self) -> u64 {
        self.shared.dropped_batches.load(Ordering::Relaxed)
    }

    /// Batches currently queued (≤ [`CheckpointBus::capacity`], always).
    pub fn queued_batches(&self) -> usize {
        self.shared.state.lock().expect("bus state poisoned").queue.len()
    }

    /// Checkpoints currently queued.
    pub fn queued_checkpoints(&self) -> u64 {
        self.shared.state.lock().expect("bus state poisoned").queued_checkpoints
    }

    /// The ring capacity, in batches.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }
}

/// Error returned by [`BusReceiver::recv_timeout`] once every producer
/// handle has been dropped and the ring is drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusDisconnected;

impl fmt::Display for BusDisconnected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "all checkpoint-bus producers disconnected")
    }
}

impl std::error::Error for BusDisconnected {}

/// Receiving half of the bus, owned by the retraining consumer.
#[derive(Debug)]
pub struct BusReceiver {
    shared: Arc<BusShared>,
}

impl Drop for BusReceiver {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().expect("bus state poisoned");
        state.consumer_alive = false;
    }
}

impl BusReceiver {
    fn pop(state: &mut BusState) -> Option<CheckpointBatch> {
        let batch = state.queue.pop_front()?;
        // Mirror of `shed_one`: a double-pop or shed/pop interleaving must
        // clamp the gauge, never wrap it (`debug_assert!` catches the
        // accounting bug in development; release clamps to zero).
        debug_assert!(
            state.queued_checkpoints >= batch.checkpoints.len() as u64,
            "pop of {} checkpoints would underflow the depth gauge ({} queued)",
            batch.checkpoints.len(),
            state.queued_checkpoints
        );
        state.queued_checkpoints =
            state.queued_checkpoints.saturating_sub(batch.checkpoints.len() as u64);
        let count = state.per_source.get_mut(&batch.source).expect("source was counted");
        *count -= 1;
        if *count == 0 {
            state.per_source.remove(&batch.source);
        }
        Some(batch)
    }

    /// Blocks for the next batch until `timeout`; `Ok(None)` on timeout.
    ///
    /// # Errors
    ///
    /// Returns [`BusDisconnected`] when every producer hung up and the
    /// ring is drained.
    pub fn recv_timeout(
        &self,
        timeout: Duration,
    ) -> Result<Option<CheckpointBatch>, BusDisconnected> {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.state.lock().expect("bus state poisoned");
        loop {
            if let Some(batch) = Self::pop(&mut state) {
                self.shared.telemetry.depth.set(state.queue.len() as f64);
                return Ok(Some(batch));
            }
            if self.shared.producers.load(Ordering::Acquire) == 0 {
                return Err(BusDisconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            let (next, result) = self
                .shared
                .available
                .wait_timeout(state, deadline - now)
                .expect("bus state poisoned");
            state = next;
            if result.timed_out() && state.queue.is_empty() {
                // Re-check the disconnect before reporting an empty wait.
                if self.shared.producers.load(Ordering::Acquire) == 0 {
                    return Err(BusDisconnected);
                }
                return Ok(None);
            }
        }
    }

    /// Drains whatever is queued right now without blocking.
    pub fn drain(&self) -> Vec<CheckpointBatch> {
        let mut state = self.shared.state.lock().expect("bus state poisoned");
        let mut out = Vec::with_capacity(state.queue.len());
        while let Some(batch) = Self::pop(&mut state) {
            out.push(batch);
        }
        self.shared.telemetry.depth.set(0.0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cp(ttf: f64, pred: Option<f64>) -> LabelledCheckpoint {
        LabelledCheckpoint::new(vec![1.0, 2.0], ttf, pred)
    }

    fn batch(source: &str, checkpoints: Vec<LabelledCheckpoint>) -> CheckpointBatch {
        CheckpointBatch { source: source.into(), class: ServiceClass::default(), checkpoints }
    }

    #[test]
    fn batches_arrive_in_order_per_producer() {
        let (bus, rx) = CheckpointBus::channel();
        for i in 0..5 {
            assert!(bus.publish(batch(&format!("s{i}"), vec![cp(i as f64, None)])));
        }
        let got = rx.drain();
        assert_eq!(got.len(), 5);
        assert_eq!(got[0].source, "s0");
        assert_eq!(got[4].source, "s4");
    }

    #[test]
    fn clones_share_the_channel() {
        let (bus, rx) = CheckpointBus::channel();
        let bus2 = bus.clone();
        std::thread::scope(|scope| {
            scope.spawn(|| bus.publish(batch("a", vec![])));
            scope.spawn(|| bus2.publish(batch("b", vec![])));
        });
        let mut sources: Vec<String> = rx.drain().into_iter().map(|b| b.source).collect();
        sources.sort();
        assert_eq!(sources, vec!["a", "b"]);
    }

    #[test]
    fn publish_reports_consumer_gone() {
        let (bus, rx) = CheckpointBus::channel();
        drop(rx);
        assert!(!bus.publish(batch("x", vec![])));
    }

    #[test]
    fn recv_timeout_distinguishes_empty_from_closed() {
        let (bus, rx) = CheckpointBus::channel();
        assert_eq!(rx.recv_timeout(Duration::from_millis(1)), Ok(None));
        drop(bus);
        assert_eq!(rx.recv_timeout(Duration::from_millis(1)), Err(BusDisconnected));
    }

    #[test]
    fn abs_error_requires_a_prediction() {
        assert_eq!(cp(100.0, None).abs_error_secs(), None);
        assert_eq!(cp(100.0, Some(40.0)).abs_error_secs(), Some(60.0));
    }

    #[test]
    fn full_ring_sheds_oldest_of_single_source() {
        let (bus, rx) = CheckpointBus::bounded(3);
        for i in 0..7 {
            assert!(bus.publish(batch("s", vec![cp(i as f64, None)])));
            assert!(bus.queued_batches() <= 3);
        }
        assert_eq!(bus.dropped_batches(), 4);
        assert_eq!(bus.dropped_checkpoints(), 4);
        let kept: Vec<f64> = rx.drain().iter().map(|b| b.checkpoints[0].ttf_secs).collect();
        assert_eq!(kept, vec![4.0, 5.0, 6.0], "the most recent batches survive, in order");
    }

    #[test]
    fn skewed_producer_sheds_its_own_batches_first() {
        let (bus, rx) = CheckpointBus::bounded(6);
        // Two quiet batches, then a flood from one noisy source.
        bus.publish(batch("quiet", vec![cp(1.0, None)]));
        bus.publish(batch("quiet", vec![cp(2.0, None)]));
        for i in 0..20 {
            bus.publish(batch("noisy", vec![cp(100.0 + i as f64, None)]));
        }
        let got = rx.drain();
        let quiet: Vec<f64> =
            got.iter().filter(|b| b.source == "quiet").map(|b| b.checkpoints[0].ttf_secs).collect();
        assert_eq!(quiet, vec![1.0, 2.0], "the quiet source's history must survive the flood");
        assert_eq!(got.len(), 6);
        assert_eq!(bus.dropped_batches(), 16, "every shed batch came from the noisy source");
    }

    #[test]
    fn disconnect_after_drop_still_drains_queued_batches() {
        let (bus, rx) = CheckpointBus::bounded(8);
        for i in 0..4 {
            bus.publish(batch("s", vec![cp(i as f64, None)]));
        }
        drop(bus);
        for i in 0..4 {
            let got = rx.recv_timeout(Duration::from_millis(5)).unwrap().unwrap();
            assert_eq!(got.checkpoints[0].ttf_secs, i as f64);
        }
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Err(BusDisconnected));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = CheckpointBus::bounded(0);
    }

    #[test]
    fn sheds_are_attributed_to_the_dropped_batch_class() {
        let (bus, _stalled_rx) = CheckpointBus::bounded(2);
        let classed = |class: &str, source: &str, n: usize| CheckpointBatch {
            source: source.into(),
            class: ServiceClass::new(class),
            checkpoints: vec![cp(1.0, None); n],
        };
        // One "web" batch, then a "db" flood from one heavy source: every
        // shed comes out of the heavy source, i.e. the "db" class.
        bus.publish(classed("web", "quiet", 3));
        for _ in 0..6 {
            bus.publish(classed("db", "noisy", 2));
        }
        assert_eq!(bus.dropped_checkpoints_for(&ServiceClass::new("db")), 10);
        assert_eq!(bus.dropped_checkpoints_for(&ServiceClass::new("web")), 0);
        assert_eq!(bus.dropped_checkpoints_for(&ServiceClass::new("never-seen")), 0);
        let by_class = bus.dropped_checkpoints_by_class();
        assert_eq!(by_class, vec![(ServiceClass::new("db"), 10)]);
        assert_eq!(
            by_class.iter().map(|(_, n)| n).sum::<u64>(),
            bus.dropped_checkpoints(),
            "per-class attribution must sum to the fleet-wide total"
        );
    }

    #[test]
    fn telemetry_tracks_depth_and_attributes_sheds() {
        let registry = Registry::shared();
        let (bus, rx) = CheckpointBus::bounded_with_telemetry(2, Arc::clone(&registry));
        let classed = |class: &str, n: usize| CheckpointBatch {
            source: "s".into(),
            class: ServiceClass::new(class),
            checkpoints: vec![cp(1.0, None); n],
        };
        for _ in 0..5 {
            bus.publish(classed("db", 3));
        }
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("adapt_bus_depth_batches", None), Some(2.0));
        assert_eq!(
            snap.counter("adapt_bus_shed_checkpoints_total", Some("db")),
            Some(bus.dropped_checkpoints()),
            "per-class shed telemetry matches the bus's own accounting"
        );
        assert_eq!(bus.dropped_checkpoints(), 9, "3 of 5 batches shed");
        let _ = rx.drain();
        assert_eq!(
            registry.snapshot().gauge("adapt_bus_depth_batches", None),
            Some(0.0),
            "drain resets the depth gauge"
        );
    }

    #[test]
    fn service_class_defaults_and_displays() {
        assert_eq!(ServiceClass::default().as_str(), "default");
        assert_eq!(ServiceClass::from("db").to_string(), "db");
        assert_eq!(ServiceClass::new(String::from("web")), ServiceClass::from("web"));
    }
}
