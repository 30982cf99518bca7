//! `learn`: the predict → execute → learn loop over a drifting plant.
//!
//! One round is one `run_closed_loop` of [`STEPS`] steps over an engine
//! built from the measurement fixture, with an `OnlineOptimizer` at
//! N = [`N`] carrying the cluster's energy model and the default
//! breaker. The plant is deterministic: executing a configuration
//! returns the fixture's ground truth for it, with the compute time of
//! the [`DRIFT_KIND`] PEs scaled by a seeded, mean-reverting random
//! walk, so the true optimum moves. Every step ingests a fresh
//! measurement, then refits, compiles, publishes and searches again. An
//! op is one step; its latency runs from one plant return to the next
//! plant call. The quality figures come from one untimed loop of
//! [`QUALITY_STEPS`] steps over the same plant, of which every timed
//! round runs the first [`STEPS`]: short rounds give each step many
//! timings, and a long loop averages its answers over many excursions
//! of the drift.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use etm_cluster::{Configuration, EnergyModel};
use etm_core::backend::{ModelBackend, PolyLsqBackend};
use etm_core::engine::Engine;
use etm_core::{
    config_key, BreakerPolicy, CircuitBreaker, ConfigKey, ExecutedStep, ExecutionError, Sample,
};
use etm_repro::stream::{banks_bit_equal, evaluation_space};
use etm_search::{run_closed_loop, LoopReport, OnlineOptimizer};
use etm_support::rng::Rng64;

use crate::fixture::{paper_spec, Fixture, TruthRun, FIXTURE_PATH};
use crate::measure::{median, median_by, quantile, status_kb, timed_setups, SETUPS};
use crate::trace::{durations, self_times, Tracer, ROOT};
use crate::{Ctx, Outcome};

/// Loop steps per timed round.
const STEPS: u64 = 1000;
/// Loop steps of the untimed loop the quality figures come from.
const QUALITY_STEPS: u64 = 4000;
/// Problem size the loop optimizes and executes at.
const N: usize = 4800;
/// Hysteresis τ of the optimizer.
const TAU: f64 = 0.02;
/// The PE kind whose compute time drifts (the Pentium-II pool).
const DRIFT_KIND: usize = 1;
/// Drift walk: `x ← ρ·x + σ·u`, `u` uniform with unit variance, and
/// the compute-time factor is `exp(x)` (stationary sd of `x` ≈ 0.25).
const DRIFT_RHO: f64 = 0.5;
const DRIFT_SIGMA: f64 = 0.2165;
/// Loop steps of the warm-up in each set-up.
const WARMUP_STEPS: u64 = 64;
/// Most rounds a run can record.
const MAX_ROUNDS: usize = 1 << 10;

/// The deterministic plant.
struct Plant {
    truth: BTreeMap<ConfigKey, TruthRun>,
    /// Drift factor per step.
    drift: Vec<f64>,
    /// Plant-optimal wall per step.
    optimum: Vec<f64>,
}

impl Plant {
    fn new(fixture: &Fixture, seed: u64) -> Result<Plant, String> {
        let truth: BTreeMap<ConfigKey, TruthRun> = fixture
            .truth_at(N)
            .into_iter()
            .map(|t| (config_key(&t.config), t.clone()))
            .collect();
        if truth.len() != evaluation_space().len() {
            return Err(format!(
                "fixture has {} ground-truth runs at N={N}",
                truth.len()
            ));
        }
        let mut rng = Rng64::seed_from_u64(seed ^ 0x1ea2_0000);
        let mut x = 0.0f64;
        let drift: Vec<f64> = (0..QUALITY_STEPS)
            .map(|_| {
                let d = x.exp();
                x = DRIFT_RHO * x + DRIFT_SIGMA * rng.range_f64(-3f64.sqrt(), 3f64.sqrt());
                d
            })
            .collect();
        let optimum = drift
            .iter()
            .map(|&d| {
                truth
                    .values()
                    .map(|t| Self::wall(t, d))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        Ok(Plant {
            truth,
            drift,
            optimum,
        })
    }

    /// Wall of `t` with the drift kind's compute time scaled by `d`: the
    /// slowest kind sets the wall, so the run's wall moves by the change
    /// in the slowest kind's `Ta + Tc`.
    fn wall(t: &TruthRun, d: f64) -> f64 {
        let slowest = |scale: f64| {
            t.samples
                .iter()
                .map(|s| {
                    let f = if s.key.kind == DRIFT_KIND { scale } else { 1.0 };
                    s.sample.ta * f + s.sample.tc
                })
                .fold(f64::NEG_INFINITY, f64::max)
        };
        t.wall + slowest(d) - slowest(1.0)
    }

    fn execute(
        &self,
        config: &Configuration,
        step: u64,
    ) -> Result<(ExecutedStep, f64), ExecutionError> {
        let Some(t) = self.truth.get(&config_key(config)) else {
            return Err(ExecutionError::MeasurementLost { step, attempts: 1 });
        };
        let d = self.drift[step as usize];
        let wall = Self::wall(t, d);
        let trials = t
            .samples
            .iter()
            .map(|s| {
                let f = if s.key.kind == DRIFT_KIND { d } else { 1.0 };
                let sample = Sample {
                    ta: s.sample.ta * f,
                    wall,
                    ..s.sample
                };
                (s.key, sample)
            })
            .collect();
        let step = ExecutedStep {
            trials,
            wall_seconds: wall,
            attempts: 1,
            backoff_seconds: 0.0,
            straggled_kind: None,
            degraded: false,
            poisoned: false,
        };
        Ok((step, wall))
    }
}

fn build_engine(fixture: &Fixture) -> Result<Engine, String> {
    Engine::new(
        Box::new(PolyLsqBackend::paper()),
        fixture.db.clone(),
        Some(fixture.policy.clone()),
    )
    .map_err(|e| format!("engine build: {e}"))
}

fn optimizer() -> Result<OnlineOptimizer, String> {
    Ok(OnlineOptimizer::new(evaluation_space(), N, TAU)
        .map_err(|e| format!("optimizer: {e}"))?
        .with_energy(EnergyModel::from_spec(&paper_spec())))
}

/// Named run-level checks and whether each held.
type Checks = Vec<(&'static str, bool)>;

/// What one round measured.
struct Round {
    secs: f64,
    log: Vec<StepLog>,
    penalty: f64,
    err: f64,
    regret: f64,
    retained_kb_per_step: f64,
    peak_mb: f64,
    failed: u64,
    switches: usize,
    held_out: usize,
    fallbacks: usize,
    /// Replayed ingests and the `(kind, m)` groups they refit.
    ingests: usize,
    refit_groups: usize,
}

/// Per-step record the plant closure fills in.
#[derive(Clone, Copy)]
struct StepLog {
    /// Plant wall of the executed configuration and the model's
    /// estimate of it when it was chosen.
    wall: f64,
    estimate: f64,
    executed: bool,
    /// When the plant was called, in µs since the round began (NaN for
    /// a held-out step), and the op latency ending there: the time since
    /// the previous plant call returned (NaN for the first call).
    entry_us: f64,
    lat_us: f64,
    /// Time from the previous plant call to this one (NaN for the first
    /// call and for held-out steps).
    gap_us: f64,
}

impl Default for StepLog {
    fn default() -> Self {
        StepLog {
            wall: f64::NAN,
            estimate: f64::NAN,
            executed: false,
            entry_us: f64::NAN,
            lat_us: f64::NAN,
            gap_us: f64::NAN,
        }
    }
}

fn round(
    tracer: &Tracer,
    fixture: &Fixture,
    plant: &Plant,
    r: usize,
    steps: u64,
    check: bool,
) -> Result<(Round, Checks), String> {
    let engine = build_engine(fixture)?;
    let mut opt = optimizer()?;
    let mut breaker = CircuitBreaker::new(BreakerPolicy::default());
    let mut log = vec![StepLog::default(); steps as usize];
    let mut calls = vec![None; steps as usize];
    let base = r as u64 * steps;
    crate::measure::reset_peak_rss();
    let round_span = tracer.open("loop.round", ROOT, r as u64);
    let rss_before = status_kb("VmRSS").unwrap_or(0.0);
    let mut last_return: Option<Instant> = None;
    let mut last_return_traced = None;
    let t0 = Instant::now();
    let report = run_closed_loop(&engine, &mut opt, &mut breaker, steps, |cfg, step| {
        let entered = Instant::now();
        let slot = &mut log[step as usize];
        slot.entry_us = entered.duration_since(t0).as_secs_f64() * 1e6;
        if let Some(prev) = last_return {
            slot.lat_us = entered.duration_since(prev).as_secs_f64() * 1e6;
        }
        calls[step as usize] =
            Some(tracer.record("loop.step", round_span, base + step, last_return_traced));
        slot.estimate = engine.snapshot().estimate(cfg, N).unwrap_or(f64::NAN);
        let result = plant.execute(cfg, step).map(|(executed, wall)| {
            slot.wall = wall;
            slot.executed = true;
            executed
        });
        last_return_traced = tracer.now();
        last_return = Some(Instant::now());
        result
    });
    let secs = t0.elapsed().as_secs_f64();
    let mut prev_entry = f64::NAN;
    for l in log.iter_mut().filter(|l| l.entry_us.is_finite()) {
        l.gap_us = l.entry_us - prev_entry;
        prev_entry = l.entry_us;
    }
    let rss_after = status_kb("VmRSS").unwrap_or(0.0);
    let peak_mb = crate::measure::peak_rss_mb();
    tracer.close(round_span);
    let mut failed = (report.failures + report.fit_errors) as u64;
    let (mut run_sum, mut opt_sum) = (0.0, 0.0);
    let mut penalties = Vec::with_capacity(steps as usize);
    let mut errs = Vec::with_capacity(steps as usize);
    for (s, l) in log.iter().enumerate().filter(|(_, l)| l.executed) {
        run_sum += l.wall;
        opt_sum += plant.optimum[s];
        penalties.push((l.wall - plant.optimum[s]) / plant.optimum[s]);
        errs.push(((l.estimate - l.wall) / l.wall).abs());
    }
    let mut checks = vec![(
        "no_untrusted_recommendations",
        report.untrusted_recommendations == 0,
    )];
    let (mut ingests, mut refit_groups) = (0, 0);
    if check {
        let replayed = replay(tracer, fixture, &engine, &report, &StepSpans::new(&calls))?;
        checks.push(("replay_reproduces_bank", replayed.bank_equal));
        ingests = replayed.ingests;
        refit_groups = replayed.refit_groups;
    }
    if checks.iter().any(|&(_, ok)| !ok) {
        failed = steps;
    }
    let out = Round {
        secs,
        log,
        penalty: crate::measure::mean(&penalties) * 100.0,
        err: crate::measure::mean(&errs) * 100.0,
        regret: (run_sum / opt_sum - 1.0) * 100.0,
        retained_kb_per_step: (rss_after - rss_before) / steps as f64,
        peak_mb,
        failed,
        switches: report.switches(),
        held_out: report.held_out,
        fallbacks: report.fallbacks,
        ingests,
        refit_groups,
    };
    Ok((out, checks))
}

/// Where replayed work belongs in the span tree. The loop calls the
/// plant once per executed step, and a step's span runs from the
/// previous plant return to its own plant call. So that span holds the
/// ingest of the previous executed step's batch, then the observe (and
/// search) of every step up to and including its own.
struct StepSpans {
    /// For each step `k`, and one past the last, the span of the first
    /// plant call at a step ≥ `k` ([`ROOT`] when there is none, or when
    /// that call is the first and so has no span).
    covering: Vec<u32>,
}

impl StepSpans {
    /// `calls[k]` is the span of step `k`'s plant call, `None` when step
    /// `k` was held out and made no call.
    fn new(calls: &[Option<u32>]) -> StepSpans {
        let mut covering = vec![ROOT; calls.len() + 1];
        for k in (0..calls.len()).rev() {
            covering[k] = calls[k].unwrap_or(covering[k + 1]);
        }
        StepSpans { covering }
    }

    /// Parent of the ingest of the batch step `seq` executed: the loop
    /// ingests it after that step's plant call returns.
    fn ingest(&self, seq: u64) -> u32 {
        self.at(seq as usize + 1)
    }

    /// Parent of the observe at the start of step `step`.
    fn observe(&self, step: usize) -> u32 {
        self.at(step)
    }

    fn at(&self, k: usize) -> u32 {
        self.covering.get(k).copied().unwrap_or(ROOT)
    }
}

/// What a replay found.
struct Replayed {
    bank_equal: bool,
    ingests: usize,
    refit_groups: usize,
}

/// Replays the loop's batches into a fresh engine and its snapshots into
/// a fresh optimizer — the contract `LoopReport` keeps them for — timing
/// each `ingest_batch` and `observe` as a child of the step it belongs
/// to, and counting the groups each ingest refit.
fn replay(
    tracer: &Tracer,
    fixture: &Fixture,
    engine: &Engine,
    report: &LoopReport,
    spans: &StepSpans,
) -> Result<Replayed, String> {
    let fresh = build_engine(fixture)?;
    let mut refit_groups = 0;
    for batch in &report.batches {
        let t = tracer.now();
        let snapshot = fresh
            .ingest_batch(batch)
            .map_err(|e| format!("replayed ingest: {e}"))?;
        tracer.record("core.ingest", spans.ingest(batch.seq), batch.seq, t);
        refit_groups += snapshot.refit_groups().len();
    }
    // Each snapshot was first observed at the first step that decided
    // from its generation.
    let first_step: BTreeMap<u64, usize> = report
        .steps
        .iter()
        .rev()
        .map(|s| (s.generation, s.step as usize))
        .collect();
    let mut opt = optimizer()?;
    for snapshot in &report.snapshots {
        let step = first_step
            .get(&snapshot.generation())
            .copied()
            .unwrap_or(usize::MAX);
        let t = tracer.now();
        opt.observe(snapshot);
        tracer.record("search.observe", spans.observe(step), step as u64, t);
    }
    Ok(Replayed {
        bank_equal: banks_bit_equal(fresh.snapshot().bank(), engine.snapshot().bank()),
        ingests: report.batches.len(),
        refit_groups,
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let tracer = &ctx.tracer;
    let path = ctx.root.join(FIXTURE_PATH);
    let mut builds = Vec::with_capacity(SETUPS);
    let mut fits = Vec::with_capacity(SETUPS);
    let ((fixture, plant), setup_s) = timed_setups(|| {
        let fixture = Fixture::load(&path)?;
        if tracer.on() {
            let f = Instant::now();
            PolyLsqBackend::paper()
                .fit(&fixture.db)
                .map_err(|e| format!("fit: {e}"))?;
            fits.push(f.elapsed().as_secs_f64() * 1e3);
        }
        let b = Instant::now();
        let engine = build_engine(&fixture)?;
        builds.push(b.elapsed().as_secs_f64() * 1e3);
        let plant = Plant::new(&fixture, ctx.seed)?;
        let mut opt = optimizer()?;
        let mut breaker = CircuitBreaker::new(BreakerPolicy::default());
        let warm = run_closed_loop(
            &engine,
            &mut opt,
            &mut breaker,
            WARMUP_STEPS,
            |cfg, step| plant.execute(cfg, step).map(|(executed, _)| executed),
        );
        drop(warm);
        Ok((fixture, plant))
    })?;
    let mut out = Outcome::default();
    let mut rounds: Vec<Round> = Vec::with_capacity(MAX_ROUNDS);
    // Every round runs the same steps, and contention from outside the
    // process only ever slows a step, so each step's fastest latency and
    // gap over the rounds filter the host's noise step by step. Folding
    // each round in as it ends keeps memory flat over the run.
    let mut fastest_lat = vec![f64::INFINITY; STEPS as usize];
    let mut fastest_gap = vec![f64::INFINITY; STEPS as usize];
    // Steps from the first plant call to the last (held-out steps
    // included).
    let mut covered = 0;
    let began = Instant::now();
    let mut last = Duration::ZERO;
    while rounds.len() < MAX_ROUNDS && ctx.another_round(began, last, rounds.len(), 1) {
        let r = rounds.len();
        let start = Instant::now();
        // The untraced run checks the replay once; the traced run
        // replays every round for the per-layer timings.
        let (mut result, checks) =
            round(tracer, &fixture, &plant, r, STEPS, r == 0 || tracer.on())?;
        last = start.elapsed();
        let log = std::mem::take(&mut result.log);
        if r == 0 {
            let called: Vec<usize> = (0..log.len())
                .filter(|&s| log[s].entry_us.is_finite())
                .collect();
            covered = called.last().zip(called.first()).map_or(0, |(l, f)| l - f);
        }
        for (s, l) in log.iter().enumerate() {
            fastest_lat[s] = fastest_lat[s].min(l.lat_us);
            fastest_gap[s] = fastest_gap[s].min(l.gap_us);
        }
        out.attempted += STEPS;
        out.failed += result.failed;
        for c in checks {
            if let Some(slot) = out.checks.iter_mut().find(|(name, _)| *name == c.0) {
                slot.1 &= c.1;
            } else {
                out.checks.push(c);
            }
        }
        rounds.push(result);
    }
    let per_round = |f: &dyn Fn(&Round) -> f64| median_by(&rounds, f);
    let finite = |xs: Vec<f64>| -> Vec<f64> { xs.into_iter().filter(|v| v.is_finite()).collect() };
    let lat = finite(fastest_lat);
    let gaps = finite(fastest_gap);
    out.set("setup_s", setup_s);
    out.set("ops_per_s", covered as f64 * 1e6 / gaps.iter().sum::<f64>());
    out.set("op_p50_us", quantile(&lat, 0.5));
    out.set("op_p90_us", quantile(&lat, 0.9));
    out.set("peak_rss_mb", per_round(&|r| r.peak_mb));
    // Outside the timed rounds, untraced: the loop the quality figures
    // come from.
    // `round` counts every step failed when one of its checks fails.
    let (quality, _) = round(
        &Tracer::new(false, 0),
        &fixture,
        &plant,
        0,
        QUALITY_STEPS,
        false,
    )?;
    out.checks.push(("quality_loop_clean", quality.failed == 0));
    out.set("selection_penalty_pct", quality.penalty);
    out.set("estimate_err_pct", quality.err);
    out.set("regret_pct", quality.regret);
    out.checks.push((
        "quality_repeats_across_rounds",
        rounds.windows(2).all(|w| {
            w[0].regret.to_bits() == w[1].regret.to_bits()
                && w[0].penalty.to_bits() == w[1].penalty.to_bits()
                && w[0].err.to_bits() == w[1].err.to_bits()
        }),
    ));
    out.meta.push((
        "round_ops_per_s",
        format!(
            "[{}]",
            rounds
                .iter()
                .map(|r| format!("{:.1}", STEPS as f64 / r.secs))
                .collect::<Vec<_>>()
                .join(",")
        ),
    ));
    out.meta.push(("rounds", rounds.len().to_string()));
    out.meta.push(("steps_per_round", STEPS.to_string()));
    out.set("core.engine_build_ms", median(&builds));
    // Only the first round starts from a heap that holds no freed
    // memory of an earlier round, so only its RSS growth is retention.
    out.set("loop.retained_kb_per_step", rounds[0].retained_kb_per_step);
    out.set("loop.switches", quality.switches as f64);
    out.set("loop.held_out", quality.held_out as f64);
    out.set("loop.fallbacks", quality.fallbacks as f64);
    if tracer.on() {
        let spans = tracer.spans();
        let us = |xs: Vec<f64>, q: f64| quantile(&xs, q) / 1e3;
        out.set("lsq.fit_ms", median(&fits));
        out.set(
            "loop.step_self_p50_us",
            us(self_times(&spans, "loop.step"), 0.5),
        );
        out.set(
            "loop.step_self_p90_us",
            us(self_times(&spans, "loop.step"), 0.9),
        );
        out.set(
            "core.ingest_p50_us",
            us(self_times(&spans, "core.ingest"), 0.5),
        );
        out.set(
            "core.ingest_p90_us",
            us(self_times(&spans, "core.ingest"), 0.9),
        );
        let ingests: usize = rounds.iter().map(|r| r.ingests).sum();
        let groups: usize = rounds.iter().map(|r| r.refit_groups).sum();
        out.set("core.refit_groups", groups as f64 / ingests.max(1) as f64);
        out.set(
            "search.observe_p50_us",
            us(durations(&spans, "search.observe"), 0.5),
        );
        out.set(
            "search.observe_p90_us",
            us(durations(&spans, "search.observe"), 0.9),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Span;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    /// Spans laid out the way the loop orders its work: step 0 runs,
    /// step 1 is held out, steps 2 and 3 run. Every replayed span must
    /// land inside its parent, and self times must be non-negative and
    /// add up to the steps' durations.
    #[test]
    fn replayed_spans_nest_in_the_step_that_covers_them() {
        // Span ids: 0 = step 2's call (20..75), 1 = step 3's call (80..110).
        let steps = StepSpans::new(&[Some(ROOT), None, Some(0), Some(1)]);
        let mut spans = vec![
            span("loop.step", 20, 75, ROOT),
            span("loop.step", 80, 110, ROOT),
        ];
        spans.push(span("search.observe", 0, 10, steps.observe(0)));
        // Step 0's plant call is 12..20.
        spans.push(span("core.ingest", 20, 50, steps.ingest(0)));
        spans.push(span("search.observe", 52, 60, steps.observe(1)));
        spans.push(span("search.observe", 61, 70, steps.observe(2)));
        // Step 2's plant call is 75..80.
        spans.push(span("core.ingest", 80, 100, steps.ingest(2)));
        for s in &spans[2..] {
            if let Some(p) = spans.get(s.parent as usize) {
                assert!(
                    p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                    "{s:?} outside {p:?}"
                );
            }
        }
        assert_eq!(steps.observe(0), ROOT);
        let own = self_times(&spans, "loop.step");
        assert_eq!(own, vec![8.0, 10.0]);
        let children: f64 = spans[3..].iter().map(|s| s.dur_ns() as f64).sum();
        let steps_ns: f64 = durations(&spans, "loop.step").iter().sum();
        assert_eq!(own.iter().sum::<f64>() + children, steps_ns);
    }
}
