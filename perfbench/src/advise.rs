//! `advise`: a closed loop with one client asking a warm snapshot for
//! advice. No simulation runs: the snapshot is built from the checked-in
//! measurement fixture.
//!
//! Every request does the same composite work at a seeded size N: the
//! §4.1-adjusted `EngineSnapshot::estimate` of all 62 configurations,
//! `anytime_search` on time, and `anytime_search` priced by
//! `EnergyModel::from_spec` for the time × energy front. Half the sizes
//! repeat a paper size; half are other multiples of NB in [1600, 9600].
//! An op is one request. Every round sends the same [`ROUND`] seeded
//! requests. Contention from outside the process only ever slows a
//! request, and on a shared host it halves this cache-bound code's speed
//! for seconds at a time, so each request's latency is its fastest over
//! the rounds; the percentiles and the throughput are taken over those.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use etm_cluster::{Configuration, EnergyModel};
use etm_core::backend::{ModelBackend, PolyLsqBackend};
use etm_core::engine::{Engine, EngineSnapshot};
use etm_core::plan::{evaluation_configs, MeasurementPlan};
use etm_repro::experiments::NB;
use etm_repro::stream::evaluation_space;
use etm_search::{anytime_search, best_config, AnytimeOptions, ConfigSpace};
use etm_support::rng::Rng64;

use crate::fixture::{paper_spec, Fixture, FIXTURE_PATH};
use crate::measure::{median, quantile, timed_setups, SETUPS};
use crate::quality::{correlation, table_row, Scored};
use crate::trace::{durations, Tracer, ROOT};
use crate::{Ctx, Outcome};

/// Requests per round.
const ROUND: usize = 2048;
/// Warm-up requests per set-up.
const WARMUP: usize = 256;
/// Every `CHECK_EVERY`-th request's answer is kept and checked against
/// `best_config` after the timed rounds.
const CHECK_EVERY: u64 = 251;
/// The sizes of the paper's evaluation grids.
const PAPER_SIZES: [usize; 6] = [1600, 3200, 4800, 6400, 8000, 9600];
/// Most rounds a run can record (a bound on the preallocated storage).
const MAX_ROUNDS: usize = 1 << 14;

/// The seeded request stream.
pub struct Requests(Rng64);

impl Requests {
    pub fn new(seed: u64) -> Self {
        Requests(Rng64::seed_from_u64(seed ^ 0xad71_5e00))
    }

    pub fn next_n(&mut self) -> usize {
        if self.0.chance(0.5) {
            return PAPER_SIZES[self.0.range_usize(PAPER_SIZES.len())];
        }
        loop {
            let n = NB * self.0.range_inclusive(1600 / NB, 9600 / NB);
            if !PAPER_SIZES.contains(&n) {
                return n;
            }
        }
    }
}

/// The serving state a set-up builds.
struct Served {
    fixture: Fixture,
    snapshot: std::sync::Arc<EngineSnapshot>,
    space: ConfigSpace,
    configs: Vec<Configuration>,
    priced: AnytimeOptions,
    build_secs: f64,
    fit_secs: Option<f64>,
}

/// What one request produced, reduced to what the checks need.
struct Answer {
    ok: bool,
    best: Option<(Configuration, u64)>,
    evaluated_ratio: f64,
    front_points: usize,
}

fn serve(s: &Served, n: usize, op: u64, tracer: &Tracer) -> Answer {
    let op_span = tracer.open("advise.op", ROOT, op);
    let t = tracer.now();
    let mut ok = true;
    let mut acc = 0.0;
    for c in &s.configs {
        match s.snapshot.estimate(c, n) {
            Ok(v) => acc += v,
            Err(_) => ok = false,
        }
    }
    black_box(acc);
    tracer.record("core.estimate_sweep", op_span, op, t);
    let t = tracer.now();
    let timed = anytime_search(&s.snapshot, &s.space, n, &AnytimeOptions::default());
    tracer.record("search.anytime_time", op_span, op, t);
    let t = tracer.now();
    let priced = anytime_search(&s.snapshot, &s.space, n, &s.priced);
    tracer.record("search.anytime_energy", op_span, op, t);
    tracer.close(op_span);
    // The front's fastest point is the time argmin.
    let best = timed.best.as_ref();
    ok &= timed.exhausted
        && match (best, priced.front.first()) {
            (Some(b), Some(f)) => f.config == b.config && f.time.to_bits() == b.time.to_bits(),
            _ => false,
        };
    Answer {
        ok,
        best: best.map(|b| (b.config.clone(), b.time.to_bits())),
        evaluated_ratio: timed.evaluated as f64 / timed.candidates.max(1) as f64,
        front_points: priced.front.len(),
    }
}

fn set_up(ctx: &Ctx, path: &Path) -> Result<Served, String> {
    let fixture = Fixture::load(path)?;
    let fit_secs = if ctx.tracer.on() {
        let t = Instant::now();
        PolyLsqBackend::paper()
            .fit(&fixture.db)
            .map_err(|e| format!("fit: {e}"))?;
        Some(t.elapsed().as_secs_f64())
    } else {
        None
    };
    let t = Instant::now();
    let engine = Engine::new(
        Box::new(PolyLsqBackend::paper()),
        fixture.db.clone(),
        Some(fixture.policy.clone()),
    )
    .map_err(|e| format!("engine build: {e}"))?;
    let build_secs = t.elapsed().as_secs_f64();
    let served = Served {
        snapshot: engine.snapshot(),
        fixture,
        space: evaluation_space(),
        configs: evaluation_configs(),
        priced: AnytimeOptions {
            energy: Some(EnergyModel::from_spec(&paper_spec())),
            ..AnytimeOptions::default()
        },
        build_secs,
        fit_secs,
    };
    let untraced = Tracer::new(false, 0);
    for i in 0..WARMUP {
        black_box(serve(&served, PAPER_SIZES[i % PAPER_SIZES.len()], 0, &untraced).ok);
    }
    Ok(served)
}

/// The advice's quality where ground truth exists: the fixture's runs
/// at the Basic evaluation sizes, scored like Table 4. Returns the
/// scores and whether the committed Table 4 reproduces.
fn quality(s: &Served, root: &Path) -> Result<(Scored, bool), String> {
    let spec = paper_spec();
    let path = root.join("results").join("table4_basic_best.csv");
    let committed =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut scored = Scored::default();
    let mut reproduced = true;
    for &n in &MeasurementPlan::basic().evaluation_ns {
        let truth = s.fixture.truth_at(n);
        let points = correlation(&s.snapshot, truth.iter().map(|t| (&t.config, t.wall)), n)
            .filter(|p| p.len() == s.configs.len())
            .ok_or_else(|| format!("fixture ground truth at N={n} is incomplete or inestimable"))?;
        let line = table_row(&spec, scored.add(&points, n));
        reproduced &= committed.lines().any(|l| l == line);
    }
    Ok((scored, reproduced))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let tracer = &ctx.tracer;
    let path = ctx.root.join(FIXTURE_PATH);
    let mut builds = Vec::with_capacity(SETUPS);
    let mut fits = Vec::with_capacity(SETUPS);
    let (served, setup_s) = timed_setups(|| {
        let s = set_up(ctx, &path)?;
        builds.push(s.build_secs * 1e3);
        fits.extend(s.fit_secs.map(|f| f * 1e3));
        Ok(s)
    })?;
    let mut requests = Requests::new(ctx.seed);
    let ns: Vec<usize> = (0..ROUND).map(|_| requests.next_n()).collect();
    let mut fastest_ns = vec![f64::INFINITY; ROUND];
    let mut round_peak = Vec::with_capacity(MAX_ROUNDS);
    let mut kept: Vec<(usize, Option<(Configuration, u64)>)> = Vec::with_capacity(1 << 16);
    let mut out = Outcome::default();
    let (mut eval_sum, mut front_sum) = (0.0, 0usize);
    let began = Instant::now();
    let mut last = Duration::ZERO;
    let mut op = 0u64;
    while round_peak.len() < MAX_ROUNDS && ctx.another_round(began, last, round_peak.len(), 1) {
        crate::measure::reset_peak_rss();
        let round_start = Instant::now();
        for (i, &n) in ns.iter().enumerate() {
            let t = Instant::now();
            let answer = serve(&served, n, op, tracer);
            fastest_ns[i] = fastest_ns[i].min(t.elapsed().as_nanos() as f64);
            if !answer.ok {
                out.failed += 1;
            }
            eval_sum += answer.evaluated_ratio;
            front_sum += answer.front_points;
            if op.is_multiple_of(CHECK_EVERY) && kept.len() < kept.capacity() {
                kept.push((n, answer.best));
            }
            op += 1;
        }
        last = round_start.elapsed();
        round_peak.push(crate::measure::peak_rss_mb());
    }
    out.attempted = op;
    // Outside the timed rounds: the kept answers must equal the batched
    // exhaustive selection bit for bit.
    for (n, answer) in &kept {
        let exhaustive =
            best_config(&served.snapshot, &served.space, *n).map(|b| (b.config, b.time.to_bits()));
        if exhaustive != *answer {
            out.failed += 1;
        }
    }
    let (scored, table_ok) = quality(&served, &ctx.root)?;
    let (penalty, err, regret) = scored.figures();
    out.checks.push(("table_4_reproduced", table_ok));
    out.set("setup_s", setup_s);
    out.set(
        "ops_per_s",
        ROUND as f64 * 1e9 / fastest_ns.iter().sum::<f64>(),
    );
    out.set("op_p50_us", quantile(&fastest_ns, 0.5) / 1e3);
    out.set("op_p90_us", quantile(&fastest_ns, 0.9) / 1e3);
    out.set("peak_rss_mb", median(&round_peak));
    out.set("selection_penalty_pct", penalty);
    out.set("estimate_err_pct", err);
    out.set("regret_pct", regret);
    out.meta.push(("rounds", round_peak.len().to_string()));
    out.meta.push(("ops_per_round", ROUND.to_string()));
    out.meta.push(("checked_answers", kept.len().to_string()));
    out.set("core.engine_build_ms", median(&builds));
    out.set("search.evaluated_ratio", eval_sum / op.max(1) as f64);
    out.set("search.front_points", front_sum as f64 / op.max(1) as f64);
    if tracer.on() {
        let spans = tracer.spans();
        let us = |name: &str, q: f64| quantile(&durations(&spans, name), q) / 1e3;
        out.set("lsq.fit_ms", median(&fits));
        out.set(
            "core.estimate_ns",
            median(&durations(&spans, "core.estimate_sweep")) / served.configs.len() as f64,
        );
        out.set("search.anytime_time_p50_us", us("search.anytime_time", 0.5));
        out.set("search.anytime_time_p90_us", us("search.anytime_time", 0.9));
        out.set(
            "search.anytime_energy_p50_us",
            us("search.anytime_energy", 0.5),
        );
        out.set(
            "search.anytime_energy_p90_us",
            us("search.anytime_energy", 0.9),
        );
    }
    Ok(out)
}
