//! In-memory span recording and the delegating wrappers that observe
//! real calls at the program's public extension points.
//!
//! Spans are kept in memory until the run ends. The wrappers delegate
//! every identity method (`name`, `fidelity`, `memo_key`,
//! `fidelity_digest`, strategy `name`/`pipeline_safe`) so memo
//! fingerprints and visit orders are exactly those of an untraced run.

use simtune_core::{
    BackendError, ConvergenceStats, Evaluation, Fidelity, SearchStrategy, SimBackend, SimReport,
    StrategySpec,
};
use simtune_isa::{DecodedProgram, EngineKind, Executable, RunLimits, SimStats};
use simtune_tensor::SketchParams;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One timed interval of one layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer label (e.g. `"backend.trial"`).
    pub layer: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread-safe in-memory span store.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Records `[start, end]` under `layer`.
    pub fn record(&self, layer: &'static str, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            layer,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        lock(&self.spans).push(span);
    }

    /// Runs `f`, recording its duration under `layer`.
    pub fn time<T>(&self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(layer, start, Instant::now());
        out
    }

    /// Durations (ns) of every span of `layer`, in recording order.
    pub fn durations(&self, layer: &str) -> Vec<f64> {
        lock(&self.spans)
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.nanos() as f64)
            .collect()
    }

    /// Summed duration (ns) of every span of `layer`.
    pub fn total(&self, layer: &str) -> f64 {
        self.durations(layer).iter().sum()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a benchmark thread panicked while recording")
}

/// One trial a [`TimedBackend`] executed: the executable and the
/// statistics it reported.
#[derive(Debug, Clone)]
pub struct ExecutedTrial {
    /// The simulated candidate.
    pub exe: Executable,
    /// Its statistics (`host_nanos` included).
    pub stats: SimStats,
}

/// Delegating [`SimBackend`] that records a `backend.trial` span per
/// executed trial, on the worker thread that runs it, and keeps the
/// executable with its statistics for the decomposition pass.
pub struct TimedBackend {
    inner: Arc<dyn SimBackend>,
    recorder: Arc<Recorder>,
    executed: Mutex<Vec<ExecutedTrial>>,
}

impl TimedBackend {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn SimBackend>, recorder: Arc<Recorder>) -> Self {
        TimedBackend {
            inner,
            recorder,
            executed: Mutex::new(Vec::new()),
        }
    }

    /// Every trial executed so far, in completion order.
    pub fn executed(&self) -> Vec<ExecutedTrial> {
        lock(&self.executed).clone()
    }

    fn timed(
        &self,
        exe: &Executable,
        run: impl FnOnce() -> Result<SimReport, BackendError>,
    ) -> Result<SimReport, BackendError> {
        let start = Instant::now();
        let out = run();
        self.recorder.record("backend.trial", start, Instant::now());
        if let Ok(report) = &out {
            lock(&self.executed).push(ExecutedTrial {
                exe: exe.clone(),
                stats: report.stats.clone(),
            });
        }
        out
    }
}

impl SimBackend for TimedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn fidelity(&self) -> Fidelity {
        self.inner.fidelity()
    }

    fn run_one(&self, exe: &Executable, limits: &RunLimits) -> Result<SimReport, BackendError> {
        self.timed(exe, || self.inner.run_one(exe, limits))
    }

    fn run_one_decoded(
        &self,
        exe: &Executable,
        decoded: &DecodedProgram,
        limits: &RunLimits,
    ) -> Result<SimReport, BackendError> {
        self.timed(exe, || self.inner.run_one_decoded(exe, decoded, limits))
    }

    fn run_one_decoded_on(
        &self,
        exe: &Executable,
        decoded: &DecodedProgram,
        limits: &RunLimits,
        engine: EngineKind,
    ) -> Result<SimReport, BackendError> {
        self.timed(exe, || {
            self.inner.run_one_decoded_on(exe, decoded, limits, engine)
        })
    }

    fn memo_key(&self) -> Option<String> {
        self.inner.memo_key()
    }

    fn fidelity_digest(&self) -> Option<String> {
        self.inner.fidelity_digest()
    }
}

/// Proposed batches, shared between a [`TimedStrategy`] and its caller.
pub type Batches = Arc<Mutex<Vec<Vec<SketchParams>>>>;

/// `spec` wrapped through [`StrategySpec::Custom`] in a
/// [`TimedStrategy`] that records into `recorder` and `batches`.
pub fn traced_strategy(
    spec: StrategySpec,
    recorder: Arc<Recorder>,
    batches: Batches,
) -> StrategySpec {
    StrategySpec::Custom(Arc::new(move |space, seed| {
        let inner = spec.build_sketch(space.generator().clone(), seed);
        Box::new(TimedStrategy::new(inner, recorder.clone(), batches.clone()))
    }))
}

/// Delegating [`SearchStrategy`] that records `search.propose` and
/// `search.observe` spans and keeps every proposed batch.
pub struct TimedStrategy {
    inner: Box<dyn SearchStrategy<SketchParams>>,
    recorder: Arc<Recorder>,
    batches: Batches,
}

impl TimedStrategy {
    /// Wraps `inner`; proposed batches are appended to `batches`.
    pub fn new(
        inner: Box<dyn SearchStrategy<SketchParams>>,
        recorder: Arc<Recorder>,
        batches: Batches,
    ) -> Self {
        TimedStrategy {
            inner,
            recorder,
            batches,
        }
    }
}

impl SearchStrategy<SketchParams> for TimedStrategy {
    fn propose(&mut self, history: &[Evaluation<SketchParams>], n: usize) -> Vec<SketchParams> {
        let inner = &mut self.inner;
        let batch = self
            .recorder
            .time("search.propose", || inner.propose(history, n));
        if !batch.is_empty() {
            lock(&self.batches).push(batch.clone());
        }
        batch
    }

    fn observe(&mut self, results: &[Evaluation<SketchParams>]) {
        let inner = &mut self.inner;
        self.recorder
            .time("search.observe", || inner.observe(results));
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn convergence(&self) -> ConvergenceStats {
        self.inner.convergence()
    }

    fn pipeline_safe(&self) -> bool {
        self.inner.pipeline_safe()
    }
}

/// Layer time attributed to one traced session, by phase: the
/// numerator of `trace.coverage`.
#[derive(Debug, Default)]
pub struct Attribution {
    rows: Vec<(&'static str, &'static str, f64)>,
}

impl Attribution {
    /// Attributes `ns` nanoseconds of `phase` to `layer`.
    pub fn add(&mut self, phase: &'static str, layer: &'static str, ns: f64) {
        self.rows.push((phase, layer, ns));
    }

    /// Attributed nanoseconds of `phase`, or of every phase for `None`.
    pub fn total(&self, phase: Option<&str>) -> f64 {
        self.rows
            .iter()
            .filter(|(p, _, _)| phase.is_none_or(|want| *p == want))
            .map(|(_, _, ns)| ns)
            .sum()
    }

    /// Prints, per phase, its wall time against the attributed layer
    /// time, then every row, to standard error.
    pub fn print(&self, walls: &[(&'static str, f64)]) {
        for &(phase, wall) in walls {
            let got = self.total(Some(phase));
            eprintln!(
                "  {phase:<8} wall {:>9.2} ms, attributed {:>9.2} ms ({:.1} %)",
                wall / 1e6,
                got / 1e6,
                got / wall * 100.0
            );
            for (_, layer, ns) in self.rows.iter().filter(|(p, _, _)| *p == phase) {
                eprintln!("    {layer:<20} {:>9.2} ms", ns / 1e6);
            }
        }
    }
}
