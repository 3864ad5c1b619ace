//! Pluggable search strategies for the tuning loops.
//!
//! The paper's Contribution I makes *running* a candidate cheap: any
//! simulator plugs in behind [`crate::SimBackend`], decoded programs
//! replay without re-parsing, and the [`crate::SimCache`] answers
//! revisits from memory. What it leaves open is *which* candidate to
//! simulate next. Pac-Sim and CAPSim (see PAPERS.md) both observe that
//! candidate selection matters as much as per-run speed once runs are
//! cheap — this module closes that gap.
//!
//! The design splits the problem in two:
//!
//! * a [`SearchSpace`] describes *where* search happens — sampling,
//!   mutation, crossover and (when finite) enumeration over one
//!   candidate representation. Two spaces ship in-tree:
//!   [`SketchSpace`] over Auto-Scheduler-style sketch genotypes
//!   ([`SketchParams`]) and [`TemplateSpace`] over AutoTVM-style
//!   template configurations ([`ConfigSpace`] index vectors);
//! * a [`SearchStrategy`] decides *how* to walk a space —
//!   [`propose`](SearchStrategy::propose) hands the tuning loop the next
//!   batch, [`observe`](SearchStrategy::observe) feeds scores back.
//!   Five strategies ship in-tree, every one generic over the space it
//!   walks and deterministic under a seed (the vendored `rand` stub's
//!   [`StdRng`] is a fixed algorithm, so identical seeds replay
//!   identical searches on every host):
//!
//! | strategy | walk | pick when |
//! |---|---|---|
//! | [`RandomSearch`] | uniform samples, no repeats | baseline; training-data collection |
//! | [`GridSearch`] | exhaustive enumeration in index order | small template spaces, ablations |
//! | [`HillClimb`] | mutate the incumbent, random restarts | cheap local refinement |
//! | [`Evolutionary`] | tournament selection + crossover/mutation | broad spaces with structure |
//! | [`Annealing`] | single-point Metropolis walk | escaping local minima on a budget |
//!
//! The tuning flows ([`crate::tune_with_predictor`],
//! [`crate::tune_with_fidelity_escalation`], [`crate::tune_on_hardware`],
//! [`crate::tune_template_space`]) all run on one driver loop, which is
//! the only caller of [`SearchStrategy::propose`]. They take their
//! strategy from [`crate::TuneOptions::strategy`] as a [`StrategySpec`],
//! so every strategy composes with the memo cache, the batch executor
//! and every bundled backend without further wiring. Convergence counters
//! are surfaced per run as [`ConvergenceStats`] on
//! [`crate::TuneResult`].
//!
//! # Example
//!
//! Strategies can be driven directly, outside any tuning loop:
//!
//! ```
//! use simtune_core::{Evaluation, RandomSearch, SearchStrategy, TemplateSpace};
//! use simtune_tensor::{matmul, ConfigSpace, TargetIsa};
//!
//! let def = matmul(16, 16, 16);
//! let space = ConfigSpace::matmul(&def, &TargetIsa::riscv_u74());
//! let mut strategy = RandomSearch::new(TemplateSpace::new(space.clone()), 7);
//!
//! let batch = strategy.propose(&[], 4);
//! assert_eq!(batch.len(), 4);
//! let results: Vec<Evaluation<Vec<usize>>> = batch
//!     .into_iter()
//!     .map(|cfg| {
//!         let score = space.index_of(&cfg) as f64; // any objective
//!         Evaluation { point: cfg, score }
//!     })
//!     .collect();
//! strategy.observe(&results);
//! assert_eq!(strategy.convergence().observed, 4);
//! ```

use crate::metrics::ConvergenceStats;
use crate::CoreError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simtune_tensor::{ConfigSpace, SketchGenerator, SketchParams, SketchPattern};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// One scored candidate of a search history: the point the strategy
/// proposed and the score the tuning loop assigned it (lower = better;
/// failed builds and failed simulations carry `f64::INFINITY`).
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation<P> {
    /// The candidate.
    pub point: P,
    /// Its score (lower = better, `INFINITY` = failed).
    pub score: f64,
}

/// A candidate space a [`SearchStrategy`] can walk.
///
/// The space owns the candidate representation: how to draw a uniform
/// sample, how to perturb a point into a neighbor, how to recombine two
/// points, and — when the space is finite — how to enumerate it.
/// Randomness always flows through the caller-provided [`StdRng`], so a
/// strategy seeded identically replays the identical walk.
pub trait SearchSpace {
    /// The candidate representation.
    type Point: Clone + Send;

    /// Draws a uniformly random candidate.
    fn sample(&self, rng: &mut StdRng) -> Self::Point;

    /// Perturbs one aspect of a candidate (the local-search neighborhood).
    fn mutate(&self, p: &Self::Point, rng: &mut StdRng) -> Self::Point;

    /// Recombines two candidates gene-wise.
    fn crossover(&self, a: &Self::Point, b: &Self::Point, rng: &mut StdRng) -> Self::Point;

    /// A canonical deduplication key (two equal points share a key).
    fn key(&self, p: &Self::Point) -> String;

    /// Number of distinct candidates, when enumerable.
    fn size(&self) -> Option<usize>;

    /// The `index`-th candidate of an enumerable space, `None` past the
    /// end. Enumeration may visit equivalent points more than once
    /// (canonicalization can fold lattice corners together); strategies
    /// deduplicate via [`SearchSpace::key`].
    fn nth(&self, index: usize) -> Option<Self::Point>;

    /// True when `p` is a member of this space.
    fn contains(&self, p: &Self::Point) -> bool;
}

/// The Auto-Scheduler-style sketch-genotype space: candidates are
/// [`SketchParams`] drawn, mutated and crossed over by a
/// [`SketchGenerator`]. Enumeration walks the genotype lattice (tile
/// divisors × interleaving patterns × annotation flags) and projects
/// each corner through [`SketchGenerator::canonicalize`].
#[derive(Debug, Clone)]
pub struct SketchSpace {
    generator: SketchGenerator,
    spatial_divisors: Vec<Vec<usize>>,
    reduce_divisors: Vec<Vec<usize>>,
}

impl SketchSpace {
    /// Wraps a sketch generator as a searchable space.
    pub fn new(generator: SketchGenerator) -> Self {
        let divisors = |extents: &[usize], cap: usize| -> Vec<Vec<usize>> {
            extents
                .iter()
                .map(|&e| {
                    (1..=e.min(cap))
                        .filter(|d| e.is_multiple_of(*d))
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        let spatial_divisors = divisors(
            generator.spatial_extents(),
            generator.rules().max_spatial_tile,
        );
        let reduce_divisors = divisors(
            generator.reduce_extents(),
            generator.rules().max_reduce_tile,
        );
        SketchSpace {
            generator,
            spatial_divisors,
            reduce_divisors,
        }
    }

    /// The wrapped generator.
    pub fn generator(&self) -> &SketchGenerator {
        &self.generator
    }
}

impl SearchSpace for SketchSpace {
    type Point = SketchParams;

    fn sample(&self, rng: &mut StdRng) -> SketchParams {
        self.generator.random(rng)
    }

    fn mutate(&self, p: &SketchParams, rng: &mut StdRng) -> SketchParams {
        self.generator.mutate(p, rng)
    }

    fn crossover(&self, a: &SketchParams, b: &SketchParams, rng: &mut StdRng) -> SketchParams {
        self.generator.crossover(a, b, rng)
    }

    fn key(&self, p: &SketchParams) -> String {
        format!("{p:?}")
    }

    fn size(&self) -> Option<usize> {
        let tiles: usize = self
            .spatial_divisors
            .iter()
            .chain(&self.reduce_divisors)
            .map(Vec::len)
            .product();
        // 3 interleaving patterns × vectorize × unroll_reduce ×
        // unroll_spatial.
        Some(tiles * SketchPattern::all().len() * 8)
    }

    fn nth(&self, index: usize) -> Option<SketchParams> {
        if index >= self.size().expect("sketch spaces are finite") {
            return None;
        }
        // Mixed-radix decode, first radix fastest-varying (matching
        // `ConfigSpace::config_from_index`).
        let mut rem = index;
        let mut digit = |radix: usize| {
            let d = rem % radix;
            rem /= radix;
            d
        };
        let spatial_tiles: Vec<usize> = self
            .spatial_divisors
            .iter()
            .map(|divs| divs[digit(divs.len())])
            .collect();
        let reduce_tiles: Vec<usize> = self
            .reduce_divisors
            .iter()
            .map(|divs| divs[digit(divs.len())])
            .collect();
        let pattern = SketchPattern::all()[digit(SketchPattern::all().len())];
        let mut p = SketchParams {
            spatial_tiles,
            reduce_tiles,
            pattern,
            vectorize: digit(2) == 1,
            unroll_reduce: digit(2) == 1,
            unroll_spatial: digit(2) == 1,
        };
        self.generator.canonicalize(&mut p);
        Some(p)
    }

    fn contains(&self, p: &SketchParams) -> bool {
        self.generator.contains(p)
    }
}

/// The AutoTVM-style template space: candidates are one choice index per
/// knob of a finite [`ConfigSpace`].
#[derive(Debug, Clone)]
pub struct TemplateSpace {
    space: ConfigSpace,
}

impl TemplateSpace {
    /// Wraps a template configuration space as a searchable space.
    pub fn new(space: ConfigSpace) -> Self {
        TemplateSpace { space }
    }

    /// The wrapped configuration space.
    pub fn config_space(&self) -> &ConfigSpace {
        &self.space
    }
}

impl SearchSpace for TemplateSpace {
    type Point = Vec<usize>;

    fn sample(&self, rng: &mut StdRng) -> Vec<usize> {
        self.space.sample(rng)
    }

    fn mutate(&self, p: &Vec<usize>, rng: &mut StdRng) -> Vec<usize> {
        self.space.mutate(p, rng)
    }

    fn crossover(&self, a: &Vec<usize>, b: &Vec<usize>, rng: &mut StdRng) -> Vec<usize> {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| if rng.gen_bool(0.5) { x } else { y })
            .collect()
    }

    fn key(&self, p: &Vec<usize>) -> String {
        format!("{p:?}")
    }

    fn size(&self) -> Option<usize> {
        Some(self.space.len())
    }

    fn nth(&self, index: usize) -> Option<Vec<usize>> {
        (index < self.space.len()).then(|| self.space.config_from_index(index))
    }

    fn contains(&self, p: &Vec<usize>) -> bool {
        p.len() == self.space.knobs().len()
            && p.iter()
                .zip(self.space.knobs())
                .all(|(&c, k)| c < k.choices.len())
    }
}

/// A candidate-selection policy over one [`SearchSpace`].
///
/// The tuning loop drives the strategy batch-wise:
/// [`propose`](SearchStrategy::propose) returns up to `n` fresh
/// candidates given everything evaluated so far, the loop builds and
/// simulates them, and [`observe`](SearchStrategy::observe) feeds the
/// scores back before the next round. A strategy may return fewer than
/// `n` candidates (and eventually none) when its space is exhausted.
///
/// All bundled strategies are deterministic: the same seed and the same
/// observation sequence reproduce the same proposal sequence.
pub trait SearchStrategy<P>: Send {
    /// Proposes up to `n` candidates for the next batch. `history` holds
    /// every evaluation of the running session in evaluation order;
    /// stateful strategies may ignore it and rely on
    /// [`observe`](SearchStrategy::observe) instead.
    fn propose(&mut self, history: &[Evaluation<P>], n: usize) -> Vec<P>;

    /// Feeds back the scored batch (failed candidates carry
    /// `f64::INFINITY`).
    fn observe(&mut self, results: &[Evaluation<P>]);

    /// Strategy label for reports and metrics.
    fn name(&self) -> &'static str;

    /// Convergence counters accumulated so far.
    fn convergence(&self) -> ConvergenceStats;

    /// True when [`propose`](SearchStrategy::propose) never depends on
    /// scores — neither on its `history` argument's scores nor on
    /// anything [`observe`](SearchStrategy::observe) feeds back. The
    /// pipelined tuning loops then propose and build batch *k+1* while
    /// batch *k* still simulates, hiding build latency entirely,
    /// *without changing the visit order*: overlap is only taken where
    /// it provably cannot alter the search.
    ///
    /// Guided strategies (hill climbing, evolutionary, annealing) must
    /// keep the default `false`: their next batch depends on the last
    /// batch's scores, so the loop falls back to strict
    /// propose → simulate → observe sequencing for them.
    fn pipeline_safe(&self) -> bool {
        false
    }
}

/// Shared bookkeeping for the bundled strategies.
#[derive(Debug, Clone, Default)]
struct Tracker {
    stats: ConvergenceStats,
}

impl Tracker {
    fn proposed(&mut self, n: usize) {
        self.stats.proposed += n as u64;
    }

    fn observe<P>(&mut self, results: &[Evaluation<P>]) {
        for r in results {
            self.stats.observed += 1;
            if r.score < self.stats.best_score {
                self.stats.best_score = r.score;
                self.stats.improvements += 1;
                self.stats.trials_to_best = self.stats.observed;
            }
        }
    }
}

/// Uniform random search without replacement — the strategy every tuning
/// loop used before this subsystem existed, extracted verbatim so the
/// default behavior is bit-identical under the old defaults.
#[derive(Debug)]
pub struct RandomSearch<S: SearchSpace> {
    space: S,
    rng: StdRng,
    seen: HashSet<String>,
    attempts_factor: usize,
    total_attempts: usize,
    tracker: Tracker,
}

impl<S: SearchSpace> RandomSearch<S> {
    /// Creates a random search over `space`.
    pub fn new(space: S, seed: u64) -> Self {
        RandomSearch {
            space,
            rng: StdRng::seed_from_u64(seed),
            seen: HashSet::new(),
            attempts_factor: 50,
            total_attempts: 0,
            tracker: Tracker::default(),
        }
    }

    /// Overrides how many samples per requested candidate are drawn
    /// before a batch is cut short (deduplication can reject draws; the
    /// default of 50 matches the historical sketch-tuning loop).
    pub fn with_attempts_factor(mut self, factor: usize) -> Self {
        self.attempts_factor = factor;
        self
    }

    /// Raw samples drawn over the strategy's lifetime, including draws
    /// rejected by deduplication. Callers with a global sampling budget
    /// (e.g. [`crate::collect_group_data`]'s
    /// `n_impls * max_attempts_factor` give-up bound) check this between
    /// batches.
    pub fn attempts(&self) -> usize {
        self.total_attempts
    }
}

impl<S: SearchSpace> SearchStrategy<S::Point> for RandomSearch<S>
where
    S: Send,
{
    fn propose(&mut self, _history: &[Evaluation<S::Point>], n: usize) -> Vec<S::Point> {
        let mut out = Vec::with_capacity(n);
        let mut attempts = 0;
        let total = self.space.size();
        while out.len() < n
            && attempts < n * self.attempts_factor
            && total.is_none_or(|t| self.seen.len() < t)
        {
            attempts += 1;
            let p = self.space.sample(&mut self.rng);
            if self.seen.insert(self.space.key(&p)) {
                out.push(p);
            }
        }
        self.total_attempts += attempts;
        self.tracker.proposed(out.len());
        out
    }

    fn observe(&mut self, results: &[Evaluation<S::Point>]) {
        self.tracker.observe(results);
    }

    fn name(&self) -> &'static str {
        "random"
    }

    fn convergence(&self) -> ConvergenceStats {
        self.tracker.stats
    }

    // Sampling depends only on the seed and the seen-set, never on
    // scores — the proposal stream is fixed at construction.
    fn pipeline_safe(&self) -> bool {
        true
    }
}

/// Exhaustive enumeration in index order — feasible for template spaces
/// and small sketch spaces, and the only strategy with a coverage
/// guarantee: given enough trials it visits every distinct candidate
/// exactly once.
#[derive(Debug)]
pub struct GridSearch<S: SearchSpace> {
    space: S,
    cursor: usize,
    seen: HashSet<String>,
    tracker: Tracker,
}

impl<S: SearchSpace> GridSearch<S> {
    /// Creates a grid search over `space`.
    ///
    /// # Panics
    ///
    /// Panics when the space is not enumerable ([`SearchSpace::size`]
    /// returns `None`).
    pub fn new(space: S) -> Self {
        assert!(
            space.size().is_some(),
            "grid search needs an enumerable space"
        );
        GridSearch {
            space,
            cursor: 0,
            seen: HashSet::new(),
            tracker: Tracker::default(),
        }
    }
}

impl<S: SearchSpace> SearchStrategy<S::Point> for GridSearch<S>
where
    S: Send,
{
    fn propose(&mut self, _history: &[Evaluation<S::Point>], n: usize) -> Vec<S::Point> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let Some(p) = self.space.nth(self.cursor) else {
                break; // space exhausted
            };
            self.cursor += 1;
            if self.seen.insert(self.space.key(&p)) {
                out.push(p);
            }
        }
        self.tracker.proposed(out.len());
        out
    }

    fn observe(&mut self, results: &[Evaluation<S::Point>]) {
        self.tracker.observe(results);
    }

    fn name(&self) -> &'static str {
        "grid"
    }

    fn convergence(&self) -> ConvergenceStats {
        self.tracker.stats
    }

    // Enumeration order is fixed up front; scores never steer it.
    fn pipeline_safe(&self) -> bool {
        true
    }
}

/// Mutate-the-best local search with random restarts: proposals are
/// mutations of the incumbent; when a configurable number of batches
/// passes without improvement the incumbent is abandoned and search
/// restarts from fresh uniform samples (counted in
/// [`ConvergenceStats::restarts`]).
#[derive(Debug)]
pub struct HillClimb<S: SearchSpace> {
    space: S,
    rng: StdRng,
    seen: HashSet<String>,
    incumbent: Option<(S::Point, f64)>,
    stalled_batches: usize,
    /// Batches without improvement before a random restart (default 3).
    pub restart_after: usize,
    attempts_factor: usize,
    tracker: Tracker,
}

impl<S: SearchSpace> HillClimb<S> {
    /// Creates a hill climber over `space`.
    pub fn new(space: S, seed: u64) -> Self {
        HillClimb {
            space,
            rng: StdRng::seed_from_u64(seed),
            seen: HashSet::new(),
            incumbent: None,
            stalled_batches: 0,
            restart_after: 3,
            attempts_factor: 60,
            tracker: Tracker::default(),
        }
    }
}

impl<S: SearchSpace> SearchStrategy<S::Point> for HillClimb<S>
where
    S: Send,
{
    fn propose(&mut self, _history: &[Evaluation<S::Point>], n: usize) -> Vec<S::Point> {
        let mut out = Vec::with_capacity(n);
        let cap = n * self.attempts_factor;
        let mut attempts = 0;
        // Neighborhood walk around the incumbent (or uniform samples
        // while no incumbent exists yet).
        while out.len() < n && attempts < cap {
            attempts += 1;
            let candidate = match &self.incumbent {
                Some((best, _)) => self.space.mutate(best, &mut self.rng),
                None => self.space.sample(&mut self.rng),
            };
            if self.seen.insert(self.space.key(&candidate)) {
                out.push(candidate);
            }
        }
        // Neighborhood exhausted: top up with fresh uniform samples so a
        // depleted local region cannot stall the whole session.
        while out.len() < n && attempts < 2 * cap {
            attempts += 1;
            let candidate = self.space.sample(&mut self.rng);
            if self.seen.insert(self.space.key(&candidate)) {
                out.push(candidate);
            }
        }
        self.tracker.proposed(out.len());
        out
    }

    fn observe(&mut self, results: &[Evaluation<S::Point>]) {
        self.tracker.observe(results);
        let mut improved = false;
        for r in results {
            if !r.score.is_finite() {
                continue;
            }
            match &self.incumbent {
                Some((_, best)) if r.score >= *best => {}
                _ => {
                    self.incumbent = Some((r.point.clone(), r.score));
                    improved = true;
                }
            }
        }
        if improved {
            self.stalled_batches = 0;
        } else {
            self.stalled_batches += 1;
            if self.stalled_batches >= self.restart_after {
                self.incumbent = None;
                self.stalled_batches = 0;
                self.tracker.stats.restarts += 1;
            }
        }
    }

    fn name(&self) -> &'static str {
        "hill_climb"
    }

    fn convergence(&self) -> ConvergenceStats {
        self.tracker.stats
    }
}

/// Evolutionary search (the Auto-Scheduler's strategy): a retained
/// population of the best candidates produces new batches by binary
/// tournament selection, gene-wise crossover and mutation, with a
/// random-immigrant fraction for exploration.
#[derive(Debug)]
pub struct Evolutionary<S: SearchSpace> {
    space: S,
    rng: StdRng,
    population: Vec<(S::Point, f64)>,
    /// Maximum retained population (default 32).
    pub population_size: usize,
    /// Fraction of each batch drawn uniformly at random (default 0.25).
    pub immigrant_fraction: f64,
    seen: HashSet<String>,
    attempts_factor: usize,
    tracker: Tracker,
}

impl<S: SearchSpace> Evolutionary<S> {
    /// Creates an evolutionary search with a population of 32 and a 25 %
    /// immigrant fraction.
    pub fn new(space: S, seed: u64) -> Self {
        Evolutionary {
            space,
            rng: StdRng::seed_from_u64(seed),
            population: Vec::new(),
            population_size: 32,
            immigrant_fraction: 0.25,
            seen: HashSet::new(),
            attempts_factor: 60,
            tracker: Tracker::default(),
        }
    }

    /// Binary tournament over the current population.
    fn tournament(&mut self) -> S::Point {
        let n = self.population.len();
        let a = self.rng.gen_range(0..n);
        let b = self.rng.gen_range(0..n);
        let winner = if self.population[a].1 <= self.population[b].1 {
            a
        } else {
            b
        };
        self.population[winner].0.clone()
    }
}

impl<S: SearchSpace> SearchStrategy<S::Point> for Evolutionary<S>
where
    S: Send,
{
    fn propose(&mut self, _history: &[Evaluation<S::Point>], n: usize) -> Vec<S::Point> {
        let mut out = Vec::with_capacity(n);
        let mut attempts = 0;
        while out.len() < n && attempts < n * self.attempts_factor {
            attempts += 1;
            let candidate =
                if self.population.len() < 2 || self.rng.gen_bool(self.immigrant_fraction) {
                    self.space.sample(&mut self.rng)
                } else {
                    let a = self.tournament();
                    let b = self.tournament();
                    let child = self.space.crossover(&a, &b, &mut self.rng);
                    self.space.mutate(&child, &mut self.rng)
                };
            if self.seen.insert(self.space.key(&candidate)) {
                out.push(candidate);
            }
        }
        self.tracker.proposed(out.len());
        out
    }

    fn observe(&mut self, results: &[Evaluation<S::Point>]) {
        self.tracker.observe(results);
        for r in results {
            if r.score.is_finite() {
                self.population.push((r.point.clone(), r.score));
            }
        }
        self.population
            .sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite scores"));
        self.population.truncate(self.population_size);
    }

    fn name(&self) -> &'static str {
        "evolutionary"
    }

    fn convergence(&self) -> ConvergenceStats {
        self.tracker.stats
    }
}

/// Simulated annealing (AutoTVM's `sa` tuner family): proposals are
/// mutations of the incumbent, which is replaced by better candidates
/// always and by worse ones with the Metropolis probability under a
/// geometric temperature schedule.
#[derive(Debug)]
pub struct Annealing<S: SearchSpace> {
    space: S,
    rng: StdRng,
    incumbent: Option<(S::Point, f64)>,
    temperature: f64,
    /// Multiplied into the temperature after every observed batch
    /// (default 0.9).
    pub cooling: f64,
    seen: HashSet<String>,
    attempts_factor: usize,
    tracker: Tracker,
}

impl<S: SearchSpace> Annealing<S> {
    /// Creates an annealing search with initial temperature 1.0 and a
    /// 0.9 cooling factor per batch.
    pub fn new(space: S, seed: u64) -> Self {
        Annealing {
            space,
            rng: StdRng::seed_from_u64(seed),
            incumbent: None,
            temperature: 1.0,
            cooling: 0.9,
            seen: HashSet::new(),
            attempts_factor: 100,
            tracker: Tracker::default(),
        }
    }

    /// The current incumbent, when one has been accepted.
    pub fn incumbent(&self) -> Option<(&S::Point, f64)> {
        self.incumbent.as_ref().map(|(p, s)| (p, *s))
    }

    /// The current temperature.
    pub fn temperature(&self) -> f64 {
        self.temperature
    }
}

impl<S: SearchSpace> SearchStrategy<S::Point> for Annealing<S>
where
    S: Send,
{
    fn propose(&mut self, _history: &[Evaluation<S::Point>], n: usize) -> Vec<S::Point> {
        let mut out = Vec::with_capacity(n);
        let mut attempts = 0;
        while out.len() < n && attempts < n * self.attempts_factor {
            attempts += 1;
            let candidate = match &self.incumbent {
                None => self.space.sample(&mut self.rng),
                Some((cfg, _)) => self.space.mutate(cfg, &mut self.rng),
            };
            if self.seen.insert(self.space.key(&candidate)) {
                out.push(candidate);
            }
        }
        self.tracker.proposed(out.len());
        out
    }

    fn observe(&mut self, results: &[Evaluation<S::Point>]) {
        self.tracker.observe(results);
        for r in results {
            if !r.score.is_finite() {
                continue;
            }
            let accept = match &self.incumbent {
                None => true,
                Some((_, best)) => {
                    r.score < *best || {
                        let delta = (r.score - best).max(0.0);
                        let p = (-delta / self.temperature.max(1e-9)).exp();
                        self.rng.gen_bool(p.clamp(0.0, 1.0))
                    }
                }
            };
            if accept {
                self.incumbent = Some((r.point.clone(), r.score));
            }
        }
        self.temperature *= self.cooling;
    }

    fn name(&self) -> &'static str {
        "annealing"
    }

    fn convergence(&self) -> ConvergenceStats {
        self.tracker.stats
    }
}

/// Factory signature for [`StrategySpec::Custom`]: builds a boxed
/// strategy over the sketch space of the kernel being tuned, seeded
/// with [`crate::TuneOptions::seed`].
pub type CustomStrategyFactory =
    dyn Fn(SketchSpace, u64) -> Box<dyn SearchStrategy<SketchParams>> + Send + Sync;

/// Cloneable strategy selection carried by [`crate::TuneOptions`].
///
/// The tuning loops instantiate the concrete strategy from this spec at
/// the start of every run (a strategy is stateful, an options struct is
/// not), so one `TuneOptions` value can drive many independent sessions.
#[derive(Clone, Default)]
pub enum StrategySpec {
    /// [`RandomSearch`] — the pre-subsystem default, bit-identical to the
    /// historical inlined sampling.
    #[default]
    Random,
    /// [`GridSearch`] over the enumerable space.
    Grid,
    /// [`HillClimb`] local search with random restarts.
    HillClimb,
    /// [`Evolutionary`] tournament + crossover/mutation search.
    Evolutionary,
    /// [`Annealing`] Metropolis walk.
    Annealing,
    /// A user-provided factory producing a boxed [`SearchStrategy`] for
    /// sketch tuning (template tuning rejects custom specs — implement
    /// `SearchStrategy<Vec<usize>>` and drive the loop directly instead).
    Custom(Arc<CustomStrategyFactory>),
}

impl fmt::Debug for StrategySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StrategySpec::Random => "Random",
            StrategySpec::Grid => "Grid",
            StrategySpec::HillClimb => "HillClimb",
            StrategySpec::Evolutionary => "Evolutionary",
            StrategySpec::Annealing => "Annealing",
            StrategySpec::Custom(_) => "Custom(..)",
        })
    }
}

impl std::str::FromStr for StrategySpec {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<Self, CoreError> {
        match s.to_ascii_lowercase().as_str() {
            "random" => Ok(StrategySpec::Random),
            "grid" => Ok(StrategySpec::Grid),
            "hill" | "hill-climb" | "hill_climb" => Ok(StrategySpec::HillClimb),
            "evo" | "evolutionary" => Ok(StrategySpec::Evolutionary),
            "sa" | "annealing" => Ok(StrategySpec::Annealing),
            other => Err(CoreError::Pipeline(format!(
                "unknown strategy {other:?} (random|grid|hill|evolutionary|annealing)"
            ))),
        }
    }
}

impl StrategySpec {
    /// Every built-in spec, in documentation order (for sweeps and CLIs).
    pub fn all() -> [StrategySpec; 5] {
        [
            StrategySpec::Random,
            StrategySpec::Grid,
            StrategySpec::HillClimb,
            StrategySpec::Evolutionary,
            StrategySpec::Annealing,
        ]
    }

    /// The label the instantiated strategy will report.
    pub fn label(&self) -> &'static str {
        match self {
            StrategySpec::Random => "random",
            StrategySpec::Grid => "grid",
            StrategySpec::HillClimb => "hill_climb",
            StrategySpec::Evolutionary => "evolutionary",
            StrategySpec::Annealing => "annealing",
            StrategySpec::Custom(_) => "custom",
        }
    }

    /// Instantiates the strategy over a sketch space.
    pub fn build_sketch(
        &self,
        generator: SketchGenerator,
        seed: u64,
    ) -> Box<dyn SearchStrategy<SketchParams>> {
        let space = SketchSpace::new(generator);
        match self {
            StrategySpec::Random => Box::new(RandomSearch::new(space, seed)),
            StrategySpec::Grid => Box::new(GridSearch::new(space)),
            StrategySpec::HillClimb => Box::new(HillClimb::new(space, seed)),
            StrategySpec::Evolutionary => Box::new(Evolutionary::new(space, seed)),
            StrategySpec::Annealing => Box::new(Annealing::new(space, seed)),
            StrategySpec::Custom(factory) => factory(space, seed),
        }
    }

    /// Instantiates the strategy over a template space.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Pipeline`] for [`StrategySpec::Custom`],
    /// whose factory produces sketch strategies.
    pub fn build_template(
        &self,
        space: ConfigSpace,
        seed: u64,
    ) -> Result<Box<dyn SearchStrategy<Vec<usize>>>, CoreError> {
        let space = TemplateSpace::new(space);
        Ok(match self {
            // Factor 100 matches the historical template sampling loop
            // bit-for-bit.
            StrategySpec::Random => {
                Box::new(RandomSearch::new(space, seed).with_attempts_factor(100))
            }
            StrategySpec::Grid => Box::new(GridSearch::new(space)),
            StrategySpec::HillClimb => Box::new(HillClimb::new(space, seed)),
            StrategySpec::Evolutionary => Box::new(Evolutionary::new(space, seed)),
            StrategySpec::Annealing => Box::new(Annealing::new(space, seed)),
            StrategySpec::Custom(_) => {
                return Err(CoreError::Pipeline(
                    "custom strategy factories build sketch strategies; implement \
                     SearchStrategy<Vec<usize>> and drive tune_template_space's loop directly"
                        .into(),
                ))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtune_tensor::{matmul, TargetIsa};

    fn sketch_space() -> SketchSpace {
        let def = matmul(8, 8, 8);
        SketchSpace::new(SketchGenerator::new(&def, TargetIsa::riscv_u74()))
    }

    fn template_space() -> TemplateSpace {
        let def = matmul(8, 8, 8);
        TemplateSpace::new(ConfigSpace::matmul(&def, &TargetIsa::riscv_u74()))
    }

    fn eval<P>(points: Vec<P>, f: impl Fn(&P) -> f64) -> Vec<Evaluation<P>> {
        points
            .into_iter()
            .map(|p| {
                let score = f(&p);
                Evaluation { point: p, score }
            })
            .collect()
    }

    #[test]
    fn random_search_matches_the_legacy_sampling_loop() {
        // The pre-subsystem tuner loop, reproduced verbatim: this is the
        // bit-identical-extraction contract of RandomSearch.
        let space = sketch_space();
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = HashSet::new();
        let mut legacy = Vec::new();
        let n = 10;
        let mut attempts = 0;
        while legacy.len() < 2 * n && attempts < 2 * n * 50 {
            attempts += 1;
            let p = space.generator().random(&mut rng);
            if seen.insert(format!("{p:?}")) {
                legacy.push(p);
            }
        }

        let mut strategy = RandomSearch::new(sketch_space(), 1);
        let mut modern = strategy.propose(&[], n);
        modern.extend(strategy.propose(&[], n));
        assert_eq!(modern, legacy[..modern.len()].to_vec());
        assert_eq!(modern.len(), 2 * n);
    }

    #[test]
    fn random_search_never_repeats_candidates() {
        let mut strategy = RandomSearch::new(template_space(), 3);
        let mut seen = HashSet::new();
        for _ in 0..5 {
            for cfg in strategy.propose(&[], 10) {
                assert!(seen.insert(format!("{cfg:?}")), "duplicate candidate");
            }
        }
    }

    #[test]
    fn random_search_stops_at_space_exhaustion() {
        let space = template_space();
        let total = space.size().unwrap();
        let mut strategy = RandomSearch::new(space, 5);
        let mut count = 0;
        loop {
            let batch = strategy.propose(&[], 64);
            if batch.is_empty() {
                break;
            }
            count += batch.len();
            assert!(count <= total, "proposed more candidates than exist");
        }
        // Random sampling with an attempt cap may stop short, but must
        // cover most of the space before giving up.
        assert!(count > total / 2, "covered only {count}/{total}");
    }

    #[test]
    fn grid_search_enumerates_template_space_in_order_exactly_once() {
        let space = template_space();
        let total = space.size().unwrap();
        let inner = space.config_space().clone();
        let mut strategy = GridSearch::new(space);
        let first = strategy.propose(&[], 5);
        assert_eq!(inner.index_of(&first[0]), 0);
        assert_eq!(inner.index_of(&first[4]), 4);
        let mut count = first.len();
        loop {
            let batch = strategy.propose(&[], 1000);
            if batch.is_empty() {
                break;
            }
            count += batch.len();
        }
        assert_eq!(count, total, "grid must cover the space exactly once");
    }

    #[test]
    fn grid_search_covers_sketch_space_without_duplicates() {
        let space = sketch_space();
        let mut strategy = GridSearch::new(space);
        let mut seen = HashSet::new();
        let mut count = 0;
        loop {
            let batch = strategy.propose(&[], 512);
            if batch.is_empty() {
                break;
            }
            for p in batch {
                assert!(seen.insert(format!("{p:?}")), "duplicate genotype");
                count += 1;
            }
        }
        assert!(count > 100, "sketch grid too small: {count}");
    }

    #[test]
    fn hill_climb_improves_and_restarts() {
        // Objective: distance from config [0, 0, ...] — strictly
        // improvable by single-knob moves, so hill climbing descends.
        let space = template_space();
        let mut strategy = HillClimb::new(space, 7);
        let mut best = f64::INFINITY;
        let mut first_round_best = f64::INFINITY;
        for round in 0..12 {
            let batch = strategy.propose(&[], 8);
            if batch.is_empty() {
                break;
            }
            let results = eval(batch, |cfg| cfg.iter().sum::<usize>() as f64);
            if round == 0 {
                first_round_best = results
                    .iter()
                    .map(|r| r.score)
                    .fold(f64::INFINITY, f64::min);
            }
            best = results.iter().map(|r| r.score).fold(best, f64::min);
            strategy.observe(&results);
        }
        assert!(best <= first_round_best);
        let stats = strategy.convergence();
        assert!(stats.improvements >= 1);
        assert_eq!(stats.best_score, best);
    }

    #[test]
    fn hill_climb_restart_counter_fires_on_stall() {
        let space = template_space();
        let mut strategy = HillClimb::new(space, 2);
        // Constant objective: nothing ever improves after the first
        // batch, so a restart must fire after `restart_after` batches.
        let batch = strategy.propose(&[], 4);
        strategy.observe(&eval(batch, |_| 1.0));
        for _ in 0..strategy.restart_after {
            let batch = strategy.propose(&[], 4);
            strategy.observe(&eval(batch, |_| 1.0));
        }
        assert!(strategy.convergence().restarts >= 1);
    }

    #[test]
    fn evolutionary_population_converges_toward_low_scores() {
        let space = sketch_space();
        let score_fn = |p: &SketchParams| {
            let mut s = 10.0;
            if p.unroll_reduce {
                s -= 3.0;
            }
            s + p.spatial_tiles.iter().sum::<usize>() as f64 * 0.1
        };
        let mut strategy = Evolutionary::new(space, 2);
        let mut best_first = f64::INFINITY;
        let mut best_last = f64::INFINITY;
        for round in 0..8 {
            let batch = strategy.propose(&[], 12);
            if batch.is_empty() {
                break;
            }
            let results = eval(batch, score_fn);
            let round_best = results
                .iter()
                .map(|r| r.score)
                .fold(f64::INFINITY, f64::min);
            if round == 0 {
                best_first = round_best;
            }
            best_last = best_last.min(round_best);
            strategy.observe(&results);
        }
        assert!(best_last <= best_first, "{best_last} vs {best_first}");
    }

    #[test]
    fn annealing_tracks_an_incumbent_and_cools() {
        let space = template_space();
        let inner = space.config_space().clone();
        let mut strategy = Annealing::new(space, 7);
        for _ in 0..10 {
            let batch = strategy.propose(&[], 6);
            if batch.is_empty() {
                break;
            }
            let results = eval(batch, |cfg| inner.index_of(cfg) as f64);
            strategy.observe(&results);
        }
        let (_, best) = strategy.incumbent().expect("has incumbent");
        assert!(best.is_finite());
        assert!(strategy.temperature() < 1.0, "temperature must cool");
    }

    #[test]
    fn strategies_only_propose_points_inside_the_space() {
        let specs = StrategySpec::all();
        for spec in &specs {
            let space = template_space();
            let mut strategy = spec
                .build_template(space.config_space().clone(), 11)
                .unwrap();
            for _ in 0..4 {
                let batch = strategy.propose(&[], 8);
                let results = eval(batch, |cfg| cfg.iter().sum::<usize>() as f64);
                for r in &results {
                    assert!(
                        space.contains(&r.point),
                        "{} proposed {:?} outside the space",
                        strategy.name(),
                        r.point
                    );
                }
                strategy.observe(&results);
            }
        }
    }

    #[test]
    fn sketch_space_nth_stays_in_space() {
        let space = sketch_space();
        let total = space.size().unwrap();
        for i in (0..total).step_by(17) {
            let p = space.nth(i).unwrap();
            assert!(space.contains(&p), "nth({i}) = {p:?} outside space");
        }
        assert!(space.nth(total).is_none());
    }

    #[test]
    fn convergence_counters_are_consistent() {
        let mut strategy = RandomSearch::new(template_space(), 1);
        let batch = strategy.propose(&[], 6);
        let proposed = batch.len() as u64;
        let results = eval(batch, |cfg| cfg.iter().sum::<usize>() as f64);
        strategy.observe(&results);
        let stats = strategy.convergence();
        assert_eq!(stats.proposed, proposed);
        assert_eq!(stats.observed, proposed);
        assert!(stats.improvements >= 1);
        assert!(stats.trials_to_best >= 1 && stats.trials_to_best <= stats.observed);
        let min = results
            .iter()
            .map(|r| r.score)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(stats.best_score, min);
    }

    #[test]
    fn strategy_spec_parses_and_labels() {
        use std::str::FromStr;
        for (text, label) in [
            ("random", "random"),
            ("grid", "grid"),
            ("hill", "hill_climb"),
            ("hill-climb", "hill_climb"),
            ("EVOLUTIONARY", "evolutionary"),
            ("sa", "annealing"),
        ] {
            let spec = StrategySpec::from_str(text).unwrap();
            assert_eq!(spec.label(), label);
            let def = matmul(8, 8, 8);
            let strategy = spec.build_sketch(SketchGenerator::new(&def, TargetIsa::riscv_u74()), 0);
            assert_eq!(strategy.name(), label);
        }
        assert!(StrategySpec::from_str("bogus").is_err());
    }

    #[test]
    fn custom_spec_builds_sketch_but_not_template() {
        let spec = StrategySpec::Custom(Arc::new(|space, seed| {
            Box::new(RandomSearch::new(space, seed))
        }));
        assert_eq!(spec.label(), "custom");
        let def = matmul(8, 8, 8);
        let mut strategy = spec.build_sketch(SketchGenerator::new(&def, TargetIsa::riscv_u74()), 1);
        assert_eq!(strategy.propose(&[], 3).len(), 3);
        let err = spec.build_template(ConfigSpace::matmul(&def, &TargetIsa::riscv_u74()), 1);
        assert!(err.is_err());
    }

    #[test]
    fn same_seed_replays_the_same_walk() {
        for spec in StrategySpec::all() {
            let def = matmul(8, 8, 8);
            let make = || {
                spec.build_template(ConfigSpace::matmul(&def, &TargetIsa::riscv_u74()), 13)
                    .unwrap()
            };
            let (mut a, mut b) = (make(), make());
            for _ in 0..3 {
                let ba = a.propose(&[], 7);
                let bb = b.propose(&[], 7);
                assert_eq!(ba, bb, "{} diverged", a.name());
                let ra = eval(ba, |cfg| cfg.iter().sum::<usize>() as f64);
                a.observe(&ra);
                b.observe(&ra);
            }
        }
    }
}
