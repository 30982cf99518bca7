//! `paper`: the paper's NL and NS campaigns as a batch job.
//!
//! One pass runs both construction campaigns (120 + 120 trials), builds
//! an engine per campaign with `Engine::from_campaign`, then measures
//! the 62-configuration evaluation grid at [`SIZES`] under each model
//! (248 trials) and scores each model's selection there (Tables 7/9).
//! Every trial is one `simulate_hpl` call, fanned out with
//! `pool::par_map` at the benchmark width. The seed shuffles the order
//! trials are issued in; the work of a pass is the same for every seed.
//!
//! The NL and NS sweeps request identical `(configuration, N)` points,
//! as `repro` does, and so do the two campaigns at their shared size, so
//! a ground-truth cache would show here. An op is one trial.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use etm_cluster::{ClusterSpec, Configuration, KindId, KindUse};
use etm_core::backend::{ModelBackend, PolyLsqBackend};
use etm_core::engine::Engine;
use etm_core::pipeline::sample_from_run;
use etm_core::plan::{evaluation_configs, MeasurementPlan};
use etm_core::{config_key, ConfigKey, MeasurementDb, Sample};
use etm_hpl::{simulate_hpl, HplParams};
use etm_repro::experiments::NB;
use etm_support::pool;
use etm_support::rng::Rng64;

use crate::fixture::paper_spec;
use crate::measure::{median, median_by, quantile, timed_setups};
use crate::quality::{correlation, table_row, Scored};
use crate::trace::ROOT;
use crate::{Ctx, Outcome};

/// The swept evaluation sizes: one small (≤ 3200) and one large
/// (≥ 4800) size of the campaigns' evaluation grid.
pub const SIZES: [usize; 2] = [1600, 4800];
/// Construction size of the set-up's warm-up trials.
const WARMUP_N: usize = 400;
/// Passes a run always makes, so every trial has a median duration.
const MIN_PASSES: usize = 3;

/// One trial to issue: which campaign it belongs to and where its
/// result goes.
#[derive(Clone)]
struct Trial {
    plan: usize,
    /// Construction point index, or `(size index, grid index)`.
    slot: Slot,
    config: Configuration,
    n: usize,
}

#[derive(Clone, Copy)]
enum Slot {
    Construction(usize),
    Eval(usize, usize),
}

/// What a finished trial reports.
struct Measured {
    sample: Option<Sample>,
    wall: f64,
    dur: Duration,
}

struct Setup {
    spec: ClusterSpec,
    plans: [MeasurementPlan; 2],
    /// Committed Table 7 / Table 9 rows by size, per plan.
    tables: [BTreeMap<usize, String>; 2],
    construction: Vec<Trial>,
    evaluation: Vec<Trial>,
}

fn homogeneous(kind: usize, pes: usize, m: usize) -> Configuration {
    Configuration {
        uses: vec![KindUse {
            kind: KindId(kind),
            pes,
            procs_per_pe: m,
        }],
    }
}

fn read_table(root: &Path, name: &str) -> Result<BTreeMap<usize, String>, String> {
    let path = root.join("results").join(name);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok(text
        .lines()
        .skip(1)
        .filter_map(|l| Some((l.split(',').next()?.parse().ok()?, l.to_string())))
        .collect())
}

fn set_up(ctx: &Ctx) -> Result<Setup, String> {
    let spec = paper_spec();
    let plans = [MeasurementPlan::nl(), MeasurementPlan::ns()];
    let tables = [
        read_table(&ctx.root, "table7_nl_best.csv")?,
        read_table(&ctx.root, "table9_ns_best.csv")?,
    ];
    let mut construction = Vec::new();
    for (p, plan) in plans.iter().enumerate() {
        for (i, point) in plan.construction.iter().enumerate() {
            construction.push(Trial {
                plan: p,
                slot: Slot::Construction(i),
                config: homogeneous(point.key.kind, point.key.pes, point.key.m),
                n: point.n,
            });
        }
    }
    let grid = evaluation_configs();
    let mut evaluation = Vec::new();
    for p in 0..plans.len() {
        for (s, &n) in SIZES.iter().enumerate() {
            for (c, config) in grid.iter().enumerate() {
                evaluation.push(Trial {
                    plan: p,
                    slot: Slot::Eval(s, c),
                    config: config.clone(),
                    n,
                });
            }
        }
    }
    let mut rng = Rng64::seed_from_u64(ctx.seed);
    rng.shuffle(&mut construction);
    rng.shuffle(&mut evaluation);
    // Warm-up: the pool and the simulator on the NS campaign's
    // smallest size, every configuration of it.
    let warm: Vec<&Trial> = construction.iter().filter(|t| t.n == WARMUP_N).collect();
    pool::par_map(&warm, crate::WIDTH, |_, t| {
        simulate_hpl(&spec, &t.config, &HplParams::order(t.n).with_nb(NB)).wall_seconds
    });
    Ok(Setup {
        spec,
        plans,
        tables,
        construction,
        evaluation,
    })
}

fn run_trials(
    ctx: &Ctx,
    spec: &ClusterSpec,
    trials: &[Trial],
    parent: u32,
    pass: usize,
) -> Vec<Measured> {
    let tracer = &ctx.tracer;
    pool::par_map(trials, crate::WIDTH, |i, t| {
        let span_start = tracer.now();
        let t0 = Instant::now();
        let run = simulate_hpl(spec, &t.config, &HplParams::order(t.n).with_nb(NB));
        let sample = match t.slot {
            Slot::Construction(_) => Some(sample_from_run(&run, t.config.uses[0].kind, t.n)),
            Slot::Eval(..) => None,
        };
        let dur = t0.elapsed();
        tracer.record(
            "hpl.trial",
            parent,
            (pass * trials.len() + i) as u64,
            span_start,
        );
        Measured {
            sample,
            wall: run.wall_seconds,
            dur,
        }
    })
}

/// Per-pass figures.
struct Pass {
    secs: f64,
    /// Pass time outside the trials: engine builds, sample assembly,
    /// scoring and the pool's dispatch.
    other_secs: f64,
    peak_mb: f64,
    trials: usize,
    lat_us: Vec<f64>,
    penalty: f64,
    err: f64,
    regret: f64,
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let tracer = &ctx.tracer;
    let (
        Setup {
            spec,
            plans,
            tables,
            construction,
            evaluation,
        },
        setup_s,
    ) = timed_setups(|| set_up(ctx))?;
    let grid = evaluation_configs();
    let mut out = Outcome::default();
    // Walls of every (configuration, N) seen, to check that repeated
    // trials are bit-identical within and across passes.
    let mut seen: BTreeMap<(ConfigKey, usize), u64> = BTreeMap::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut unique_ratio = 0.0;
    let mut table_ok = true;
    let ranks: f64 = construction
        .iter()
        .chain(&evaluation)
        .map(|t| t.config.total_processes() as f64)
        .sum::<f64>()
        / (construction.len() + evaluation.len()) as f64;
    let ticks0 = crate::measure::cpu_ticks();
    let began = Instant::now();
    let mut last = Duration::ZERO;
    while ctx.another_round(began, last, passes.len(), MIN_PASSES) {
        let p_idx = passes.len();
        crate::measure::reset_peak_rss();
        let pass_start = Instant::now();
        let pass_span = tracer.open("paper.pass", ROOT, p_idx as u64);
        let campaign_span = tracer.open("hpl.campaign", pass_span, p_idx as u64);
        let built = run_trials(ctx, &spec, &construction, campaign_span, p_idx);
        tracer.close(campaign_span);
        let mut dbs = [MeasurementDb::new(), MeasurementDb::new()];
        let mut samples: [Vec<Option<Sample>>; 2] = [
            vec![None; plans[0].construction.len()],
            vec![None; plans[1].construction.len()],
        ];
        for (t, m) in construction.iter().zip(&built) {
            if let Slot::Construction(i) = t.slot {
                samples[t.plan][i] = m.sample;
            }
        }
        for (p, plan) in plans.iter().enumerate() {
            // Recorded in plan order, as `run_construction` does.
            for (point, sample) in plan.construction.iter().zip(&samples[p]) {
                dbs[p].record(point.key, sample.ok_or("construction trial lost")?);
            }
        }
        let mut engines = Vec::with_capacity(plans.len());
        for (p, (plan, db)) in plans.iter().zip(dbs).enumerate() {
            if tracer.on() {
                let f = tracer.now();
                PolyLsqBackend::paper()
                    .fit(&db)
                    .map_err(|e| format!("fit: {e}"))?;
                tracer.record("lsq.fit", pass_span, p as u64, f);
            }
            let b = tracer.now();
            let engine =
                Engine::from_campaign(&spec, plan, NB, db, Box::new(PolyLsqBackend::paper()))
                    .map_err(|e| format!("engine build: {e}"))?;
            tracer.record("core.engine_build", pass_span, p as u64, b);
            engines.push(engine);
        }
        let sweep_span = tracer.open("hpl.sweep", pass_span, p_idx as u64);
        let measured = run_trials(ctx, &spec, &evaluation, sweep_span, p_idx);
        tracer.close(sweep_span);
        let mut walls = vec![[vec![0.0; grid.len()], vec![0.0; grid.len()]]; plans.len()];
        for (t, m) in evaluation.iter().zip(&measured) {
            if let Slot::Eval(s, c) = t.slot {
                walls[t.plan][s][c] = m.wall;
            }
        }
        let mut scored = Scored::default();
        for (p, engine) in engines.iter().enumerate() {
            let snapshot = engine.snapshot();
            for (s, &n) in SIZES.iter().enumerate() {
                let points =
                    correlation(&snapshot, grid.iter().zip(walls[p][s].iter().copied()), n);
                let reproduced = points.is_some_and(|points| {
                    tables[p].get(&n) == Some(&table_row(&spec, scored.add(&points, n)))
                });
                if !reproduced {
                    table_ok = false;
                    out.failed += grid.len() as u64;
                }
            }
        }
        tracer.close(pass_span);
        last = pass_start.elapsed();
        let peak_mb = crate::measure::peak_rss_mb();
        // Checks outside the pass time: every wall is a positive time,
        // and a repeated (configuration, N) gives the same bits.
        let mut distinct = std::collections::BTreeSet::new();
        for (t, m) in construction
            .iter()
            .zip(&built)
            .chain(evaluation.iter().zip(&measured))
        {
            let key = (config_key(&t.config), t.n);
            let bits = m.wall.to_bits();
            let repeat_ok = *seen.entry(key.clone()).or_insert(bits) == bits;
            if !(m.wall.is_finite() && m.wall > 0.0 && repeat_ok) {
                out.failed += 1;
            }
            distinct.insert(key);
        }
        let trials = built.len() + measured.len();
        unique_ratio = distinct.len() as f64 / trials as f64;
        out.attempted += trials as u64;
        let (penalty, err, regret) = scored.figures();
        let lat_us: Vec<f64> = built
            .iter()
            .chain(&measured)
            .map(|m| m.dur.as_secs_f64() * 1e6)
            .collect();
        let secs = last.as_secs_f64();
        passes.push(Pass {
            secs,
            other_secs: secs - lat_us.iter().sum::<f64>() / (crate::WIDTH as f64 * 1e6),
            peak_mb,
            trials,
            lat_us,
            penalty,
            err,
            regret,
        });
    }
    let ticks1 = crate::measure::cpu_ticks();
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median_by(&passes, f);
    out.set("setup_s", setup_s);
    // Every pass repeats the same trials, so each trial's median
    // duration over the passes filters the host's noise. Throughput is
    // a pass's trials over the time a pass takes: those medians spread
    // over the pool's width, plus the median time outside the trials.
    let trial_us: Vec<f64> = (0..passes[0].lat_us.len())
        .map(|i| per_pass(&|p| p.lat_us[i]))
        .collect();
    let pass_secs =
        trial_us.iter().sum::<f64>() / (crate::WIDTH as f64 * 1e6) + per_pass(&|p| p.other_secs);
    out.set("ops_per_s", passes[0].trials as f64 / pass_secs);
    out.set("op_p50_us", quantile(&trial_us, 0.5));
    out.set("op_p90_us", quantile(&trial_us, 0.9));
    out.set("peak_rss_mb", per_pass(&|p| p.peak_mb));
    out.set("selection_penalty_pct", per_pass(&|p| p.penalty));
    out.set("estimate_err_pct", per_pass(&|p| p.err));
    out.set("regret_pct", per_pass(&|p| p.regret));
    let quality_repeats = passes.windows(2).all(|w| {
        w[0].penalty.to_bits() == w[1].penalty.to_bits()
            && w[0].err.to_bits() == w[1].err.to_bits()
            && w[0].regret.to_bits() == w[1].regret.to_bits()
    });
    out.checks.push(("tables_7_9_reproduced", table_ok));
    out.checks
        .push(("quality_repeats_across_passes", quality_repeats));
    out.meta.push((
        "pass_ops_per_s",
        format!(
            "[{}]",
            passes
                .iter()
                .map(|p| format!("{:.3}", p.trials as f64 / p.secs))
                .collect::<Vec<_>>()
                .join(",")
        ),
    ));
    out.meta.push(("passes", passes.len().to_string()));
    out.meta
        .push(("trials_per_pass", passes[0].trials.to_string()));
    out.meta
        .push(("sizes", format!("[{},{}]", SIZES[0], SIZES[1])));
    out.set("hpl.trials", passes[0].trials as f64);
    out.set("hpl.unique_ratio", unique_ratio);
    out.set("hpl.ranks_per_trial", ranks);
    out.set(
        "sim.sys_cpu_share",
        crate::measure::sys_share(ticks0, ticks1),
    );
    if tracer.on() {
        let spans = tracer.spans();
        let trial_ns = crate::trace::durations(&spans, "hpl.trial");
        let pass_ns: f64 = crate::trace::durations(&spans, "paper.pass").iter().sum();
        out.set("hpl.trial_p50_ms", quantile(&trial_ns, 0.5) / 1e6);
        out.set("hpl.trial_p90_ms", quantile(&trial_ns, 0.9) / 1e6);
        out.set(
            "pool.busy_share",
            trial_ns.iter().sum::<f64>() / (crate::WIDTH as f64 * pass_ns),
        );
        out.set(
            "core.engine_build_ms",
            median(&crate::trace::durations(&spans, "core.engine_build")) / 1e6,
        );
        out.set(
            "lsq.fit_ms",
            median(&crate::trace::durations(&spans, "lsq.fit")) / 1e6,
        );
    }
    Ok(out)
}
