//! Layer timing from outside the program: wrappers that forward to the
//! model and learner they wrap while counting calls, rows and busy time,
//! and isolated probes that time one public call of a layer at a time.

use software_aging::adapt::{CheckpointBatch, CheckpointBus, LabelledCheckpoint, ServiceClass};
use software_aging::dataset::Dataset;
use software_aging::journal::{Journal, JournalRecord};
use software_aging::ml::{DynLearner, FeatureMatrix, Learner, LearnerKind, MlError, Regressor};
use software_aging::monitor::FeatureExtractor;
use software_aging::testbed::{Scenario, Simulator, StepOutcome};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Calls, rows and busy time accumulated by one wrapped layer. The
/// counters are statistics only and publish no other data, so they are
/// `Relaxed`.
#[derive(Debug, Default)]
pub struct Clock {
    calls: AtomicU64,
    rows: AtomicU64,
    busy_ns: AtomicU64,
}

/// A [`Clock`]'s totals at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Reading {
    pub calls: u64,
    pub rows: u64,
    pub busy_s: f64,
}

impl Clock {
    fn record(&self, rows: usize, since: Instant) {
        let ns = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.rows.fetch_add(rows as u64, Ordering::Relaxed);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub fn reading(&self) -> Reading {
        Reading {
            calls: self.calls.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
            busy_s: self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

/// A model that forwards every prediction to `inner` and books it on
/// `clock`.
#[derive(Debug, Clone)]
pub struct TimedRegressor {
    inner: Arc<dyn Regressor>,
    clock: Arc<Clock>,
}

impl TimedRegressor {
    pub fn new(inner: Arc<dyn Regressor>, clock: Arc<Clock>) -> Self {
        TimedRegressor { inner, clock }
    }
}

impl Regressor for TimedRegressor {
    fn predict(&self, x: &[f64]) -> f64 {
        let start = Instant::now();
        let y = self.inner.predict(x);
        self.clock.record(1, start);
        y
    }

    fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        let start = Instant::now();
        let y = self.inner.predict_batch(rows);
        self.clock.record(rows.len(), start);
        y
    }

    fn predict_matrix(&self, matrix: &FeatureMatrix) -> Vec<f64> {
        let start = Instant::now();
        let y = self.inner.predict_matrix(matrix);
        self.clock.record(matrix.n_rows(), start);
        y
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// The ML layer's clocks: one for inference, one for fits per learner.
#[derive(Debug, Default)]
pub struct MlClocks {
    pub predict: Arc<Clock>,
    fit: [Arc<Clock>; 3],
}

impl MlClocks {
    pub fn fit(&self, kind: LearnerKind) -> &Arc<Clock> {
        &self.fit[learner_index(kind)]
    }

    /// `inner` with its predictions booked on the inference clock.
    pub fn model(&self, inner: Arc<dyn Regressor>) -> Arc<dyn Regressor> {
        Arc::new(TimedRegressor::new(inner, Arc::clone(&self.predict)))
    }

    /// `kind`'s learner with its fits booked on that learner's clock and
    /// the models it returns booked on the inference clock.
    pub fn learner(&self, kind: LearnerKind) -> Arc<dyn DynLearner> {
        Arc::new(TimedLearner {
            inner: kind.learner(),
            fit: Arc::clone(self.fit(kind)),
            predict: Arc::clone(&self.predict),
        })
    }
}

fn learner_index(kind: LearnerKind) -> usize {
    LearnerKind::ALL.iter().position(|&k| k == kind).expect("ALL lists every learner")
}

/// A learner that forwards every fit to `inner`, books it on `fit`, and
/// wraps the fitted model so its predictions land on `predict`.
#[derive(Debug)]
pub struct TimedLearner {
    inner: Arc<dyn DynLearner>,
    fit: Arc<Clock>,
    predict: Arc<Clock>,
}

impl Learner for TimedLearner {
    type Model = TimedRegressor;

    fn fit(&self, data: &Dataset) -> Result<TimedRegressor, MlError> {
        let start = Instant::now();
        let model = self.inner.fit_dyn(data)?;
        self.fit.record(data.len(), start);
        Ok(TimedRegressor::new(Arc::from(model), Arc::clone(&self.predict)))
    }
}

/// Sample statistics of one timing series, in the series' unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub median: f64,
    /// The highest percentile of [`TAIL_LADDER`] with at least ten samples
    /// beyond it, and its value; `None` below eleven samples.
    pub tail: Option<(f64, f64)>,
}

/// Percentiles a tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten of
/// `n` samples strictly beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().rev().copied().find(|&p| beyond(n, p) >= 10)
}

/// Samples strictly above the nearest-rank `p`-th percentile of `n`.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Nearest-rank position (1-based) of the `p`-th percentile of `n`
/// samples, in integer arithmetic so that e.g. p99.9 of 10 000 samples is
/// exactly rank 9 990.
fn rank(n: usize, p: f64) -> usize {
    let basis_points = (p * 100.0).round() as usize;
    (basis_points * n).div_ceil(10_000).clamp(1, n)
}

impl Summary {
    /// Summarises `samples`; `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let at = |p: f64| sorted[rank(n, p) - 1];
        Some(Summary {
            n,
            mean: sorted.iter().sum::<f64>() / n as f64,
            median: median(&sorted),
            tail: tail_percentile(n).map(|p| (p, at(p))),
        })
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "median {:.4}  mean {:.4}", self.median, self.mean)?;
        if let Some((p, v)) = self.tail {
            write!(f, "  p{p} {v:.4}")?;
        }
        write!(f, "  (n={})", self.n)
    }
}

/// Median of `values` (mean of the middle pair for even counts); NaN for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0
}

/// Wall seconds of one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Checkpoints each probe drives a simulator through per class.
const PROBE_CHECKPOINTS: usize = 480;

/// `Simulator::step` wall time per checkpoint, microseconds, for one
/// scenario: steps fresh simulators (restarting after a crash) until
/// [`PROBE_CHECKPOINTS`] checkpoints have been timed.
pub fn step_us(scenario: &Scenario, seed: u64) -> Vec<f64> {
    let mut samples = Vec::with_capacity(PROBE_CHECKPOINTS);
    let mut restart = 0;
    let mut sim = Simulator::new(scenario, seed);
    while samples.len() < PROBE_CHECKPOINTS {
        let start = Instant::now();
        let outcome = black_box(sim.step());
        let us = start.elapsed().as_secs_f64() * 1e6;
        match outcome {
            StepOutcome::Checkpoint(_) => samples.push(us),
            StepOutcome::Crashed(_) | StepOutcome::Finished => {
                restart += 1;
                sim = Simulator::new(scenario, seed.wrapping_add(restart));
            }
        }
    }
    samples
}

/// `Simulator::frozen_time_to_crash` wall time, milliseconds, at the
/// point a predictive policy restarts: `lead_secs` before the crash of
/// `scenario` under `seed`. Timed `repeats` times on the same state.
/// `None` when the scenario does not crash.
pub fn fork_ms(
    scenario: &Scenario,
    seed: u64,
    lead_secs: f64,
    horizon_secs: f64,
    repeats: usize,
) -> Option<Vec<f64>> {
    let crash_secs = Simulator::new(scenario, seed).run_to_completion().crash?.time_secs;
    let mut sim = Simulator::new(scenario, seed);
    while (sim.time_ms() as f64 / 1000.0) < crash_secs - lead_secs {
        if !matches!(sim.step(), StepOutcome::Checkpoint(_)) {
            return None;
        }
    }
    Some(
        (0..repeats)
            .map(|_| {
                let (ttf, secs) = timed(|| sim.frozen_time_to_crash(horizon_secs));
                black_box(ttf);
                secs * 1e3
            })
            .collect(),
    )
}

/// `FeatureExtractor::push` wall time per sample, microseconds: every
/// checkpoint of one run-to-crash trace pushed through a fresh extractor,
/// timed per pass of `window`-sized extractor over the whole trace.
pub fn extract_us(scenario: &Scenario, seed: u64, window: usize, passes: usize) -> Vec<f64> {
    let trace = Simulator::new(scenario, seed).run_to_completion();
    (0..passes)
        .map(|_| {
            let mut extractor = FeatureExtractor::new(window);
            let (_, secs) = timed(|| {
                for sample in &trace.samples {
                    black_box(extractor.push(sample));
                }
            });
            secs * 1e6 / trace.samples.len().max(1) as f64
        })
        .collect()
}

/// `CheckpointBus::publish` wall time per batch, microseconds, for
/// `batches` batches of `rows` rows of `width` features into a ring
/// sized to hold them all.
pub fn bus_publish_us(batches: usize, rows: usize, width: usize) -> Vec<f64> {
    let (bus, receiver) = CheckpointBus::bounded(batches);
    let class = ServiceClass::new("probe");
    let pending: Vec<CheckpointBatch> = (0..batches)
        .map(|b| CheckpointBatch {
            source: format!("probe-{}", b % 16),
            class: class.clone(),
            checkpoints: (0..rows)
                .map(|r| LabelledCheckpoint::new(vec![r as f64; width], 600.0, Some(590.0)))
                .collect(),
        })
        .collect();
    let samples = pending
        .into_iter()
        .map(|batch| {
            let (accepted, secs) = timed(|| bus.publish(batch));
            assert!(accepted, "the probe keeps its receiver alive");
            secs * 1e6
        })
        .collect();
    drop(receiver.drain());
    samples
}

/// `Journal::append` wall times (microseconds) and `Journal::sync` wall
/// times (milliseconds) for `records` written into a fresh journal at
/// `dir`, syncing after every `sync_every` appends.
pub fn journal_write(
    dir: &Path,
    records: &[JournalRecord],
    sync_every: usize,
) -> std::io::Result<(Vec<f64>, Vec<f64>)> {
    let journal = Journal::open(dir)?;
    let mut append = Vec::with_capacity(records.len());
    let mut sync = Vec::new();
    for (i, record) in records.iter().enumerate() {
        let (seq, secs) = timed(|| journal.append(record));
        seq?;
        append.push(secs * 1e6);
        if (i + 1) % sync_every == 0 {
            let (done, secs) = timed(|| journal.sync());
            done?;
            sync.push(secs * 1e3);
        }
    }
    Ok((append, sync))
}

/// `Journal::read` wall seconds over `dir`, `repeats` times.
pub fn journal_read_s(dir: &Path, repeats: usize) -> std::io::Result<Vec<f64>> {
    (0..repeats)
        .map(|_| {
            let (read, secs) = timed(|| Journal::read(dir));
            black_box(read?);
            Ok(secs)
        })
        .collect()
}

/// The system allocator, counting the bytes live on the heap and their
/// peak. Unlike the resident set, which depends on how the allocator's
/// per-thread arenas happen to be reused, the live-byte peak repeats
/// exactly for a deterministic run.
pub struct CountingAlloc;

static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's own layout
// and pointer, so `System`'s guarantees carry over unchanged; the
// counters are statistics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            grow(new_size);
        }
        new
    }
}

fn grow(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

/// Peak bytes live on the heap so far, MB.
pub fn peak_heap_mb() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Spins `f` until `budget` has elapsed, at least `min_reps` times.
pub fn repeat_for<T>(budget: Duration, min_reps: usize, mut f: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || start.elapsed() < budget {
        out.push(f());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use software_aging::dataset::Dataset;

    fn toy_rows() -> Vec<Vec<f64>> {
        (0..120).map(|i| vec![f64::from(i), f64::from((i * 37) % 11)]).collect()
    }

    fn toy_dataset() -> Dataset {
        let mut data = Dataset::new(vec!["a".into(), "b".into()], "y");
        for row in toy_rows() {
            let y = 3.0 * row[0] - 2.0 * row[1] + 0.01 * row[0] * row[0];
            data.push_row(row, y).expect("arity matches");
        }
        data
    }

    #[test]
    fn timing_wrappers_are_bit_identical_to_the_bare_model_and_learner() {
        let data = toy_dataset();
        let clocks = MlClocks::default();
        for kind in LearnerKind::ALL {
            let bare: Arc<dyn Regressor> = Arc::from(kind.learner().fit_dyn(&data).expect("fits"));
            let timed = clocks.learner(kind).fit_dyn(&data).expect("fits");
            let wrapped = clocks.model(Arc::clone(&bare));
            let mut matrix = FeatureMatrix::new(2);
            let rows = toy_rows();
            for row in &rows {
                matrix.push_row(row);
            }
            let expect: Vec<u64> =
                bare.predict_matrix(&matrix).iter().map(|y| y.to_bits()).collect();
            for model in [&*timed, &*wrapped as &dyn Regressor] {
                let got: Vec<u64> =
                    model.predict_matrix(&matrix).iter().map(|y| y.to_bits()).collect();
                assert_eq!(got, expect, "{}", kind.name());
                let batch: Vec<u64> =
                    model.predict_batch(&rows).iter().map(|y| y.to_bits()).collect();
                assert_eq!(batch, expect, "{}", kind.name());
                assert_eq!(model.predict(&rows[7]).to_bits(), expect[7], "{}", kind.name());
            }
            let fit = clocks.fit(kind).reading();
            assert_eq!((fit.calls, fit.rows), (1, data.len() as u64), "{}", kind.name());
        }
        let predict = clocks.predict.reading();
        assert_eq!(predict.calls, 3 * 2 * 3);
        assert_eq!(predict.rows, 3 * 2 * (2 * data.len() as u64 + 1));
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000_000), Some(99.99));
        for n in [20, 100, 1000, 4321, 10_000] {
            let p = tail_percentile(n).expect("enough samples");
            assert!(beyond(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn summary_reports_median_and_tail() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&samples).expect("non-empty");
        assert_eq!(s.n, 100);
        assert_eq!(s.median, 50.5);
        assert_eq!(s.tail, Some((90.0, 90.0)));
        assert!(Summary::of(&[]).is_none());
        assert_eq!(Summary::of(&[2.0, 1.0, 3.0]).expect("non-empty").tail, None);
    }
}
