//! `etm-perfbench` — the repository benchmark.
//!
//! ```text
//! etm-perfbench --workload paper|advise|learn --seed N --seconds S --trace 0|1
//! etm-perfbench gen-fixture
//! ```
//!
//! A run sets up its workload several times (the median is `setup_s`),
//! then repeats rounds of fixed, seed-determined work until `--seconds`
//! would be exceeded, checks every output, and prints one JSON line:
//! `{"correct","attempted","failed","metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run records
//! spans around each layer call, writes them to
//! `.bench_out/<workload>.spans.jsonl` and reports the per-layer
//! metrics computed from them. A `{"meta":…}` line before the result
//! records the seed, core count, pool width, op count, commit and host
//! calibration. See `perfbench/README.md` for the workloads and metrics.

mod advise;
mod fixture;
mod learn;
mod measure;
mod paper;
mod quality;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::Tracer;

/// Worker threads of the `paper` pool and of the §4.1 reference runs.
/// Fixed here, never read from the environment, so both commits run
/// the same width. The whole run is pinned to one CPU: on a 2-vCPU VM
/// the simulator's thread handoffs across CPUs made `paper` throughput
/// spread 12% run to run at width 2, against 1% pinned at width 1.
pub const WIDTH: usize = 1;
/// Span buffer capacity of a traced run; spans beyond it are dropped
/// and counted.
const SPAN_CAP: usize = 1 << 18;

/// End-to-end metrics: name and unit, as listed in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("selection_penalty_pct", "%"),
    ("estimate_err_pct", "%"),
    ("regret_pct", "%"),
];

/// Per-layer metrics of the traced run. A workload reports 0 for a
/// layer it does not run.
const PER_LAYER: [(&str, &str); 29] = [
    ("hpl.trials", "count"),
    ("hpl.unique_ratio", "ratio"),
    ("hpl.trial_p50_ms", "ms"),
    ("hpl.trial_p90_ms", "ms"),
    ("hpl.ranks_per_trial", "count"),
    ("sim.sys_cpu_share", "ratio"),
    ("pool.busy_share", "ratio"),
    ("core.engine_build_ms", "ms"),
    ("lsq.fit_ms", "ms"),
    ("core.estimate_ns", "ns"),
    ("search.anytime_time_p50_us", "us"),
    ("search.anytime_time_p90_us", "us"),
    ("search.anytime_energy_p50_us", "us"),
    ("search.anytime_energy_p90_us", "us"),
    ("search.evaluated_ratio", "ratio"),
    ("search.front_points", "count"),
    ("loop.step_self_p50_us", "us"),
    ("loop.step_self_p90_us", "us"),
    ("core.ingest_p50_us", "us"),
    ("core.ingest_p90_us", "us"),
    ("core.refit_groups", "count"),
    ("search.observe_p50_us", "us"),
    ("search.observe_p90_us", "us"),
    ("loop.retained_kb_per_step", "kB"),
    ("loop.switches", "count"),
    ("loop.held_out", "count"),
    ("loop.fallbacks", "count"),
    ("host.calib_us", "us"),
    ("trace.ops_per_s", "1/s"),
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Paper,
    Advise,
    Learn,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "paper" => Some(Workload::Paper),
            "advise" => Some(Workload::Advise),
            "learn" => Some(Workload::Learn),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Advise => "advise",
            Workload::Learn => "learn",
        }
    }
}

/// Everything a workload needs from the command line and the harness.
pub struct Ctx {
    /// Repository root the run was started from (absolute).
    pub root: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
}

impl Ctx {
    /// Whether another round of length `last` still fits in the
    /// measured window that began at `began`. The first `min_rounds`
    /// rounds always run.
    pub fn another_round(
        &self,
        began: Instant,
        last: Duration,
        done: usize,
        min_rounds: usize,
    ) -> bool {
        done < min_rounds || (began.elapsed() + last).as_secs_f64() <= self.seconds
    }
}

/// What a workload hands back to the harness.
#[derive(Default)]
pub struct Outcome {
    /// Ops attempted and ops that failed or missed their check.
    pub attempted: u64,
    pub failed: u64,
    /// Checks that are not per op (table reproduction, replay
    /// identity, …): any false here makes the run incorrect.
    pub checks: Vec<(&'static str, bool)>,
    /// Metric values by name (end-to-end and per-layer alike).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra run metadata (sample counts, rounds, …).
    pub meta: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

const USAGE: &str = "usage: etm-perfbench --workload paper|advise|learn --seed N --seconds S \
                     --trace 0|1\n       etm-perfbench gen-fixture";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("gen-fixture") {
        gen_fixture(&args[1..])
    } else {
        parse_args(&args).and_then(run)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("etm-perfbench: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Pins the §4.1 reference runs inside `Engine::from_campaign` (which
/// size their pool from `ETM_CAMPAIGN_THREADS`) to the benchmark width.
/// Called before any thread exists.
fn pin_campaign_width() {
    std::env::set_var("ETM_CAMPAIGN_THREADS", WIDTH.to_string());
}

fn gen_fixture(args: &[String]) -> Result<(), String> {
    if !args.is_empty() {
        return Err("gen-fixture takes no arguments".to_string());
    }
    pin_campaign_width();
    let path = std::env::current_dir()
        .map_err(|e| format!("cwd: {e}"))?
        .join(fixture::FIXTURE_PATH);
    let t = Instant::now();
    let fx = fixture::generate();
    fixture::write(&fx, &path)?;
    eprintln!(
        "wrote {} ({} samples, {} truth runs, fingerprint {}) in {:.1}s",
        path.display(),
        fx.db.len(),
        fx.truth.len(),
        fx.fingerprint,
        t.elapsed().as_secs_f64()
    );
    Ok(())
}

/// A fresh, empty working directory for one run, removed on drop, so
/// no run inherits files (such as a cwd-relative cache) from another.
struct WorkDir {
    root: PathBuf,
    dir: PathBuf,
}

impl WorkDir {
    fn enter(root: &Path, workload: Workload) -> Result<WorkDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = root.join(".bench_work").join(format!(
            "{}-{}-{nanos}",
            workload.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        std::env::set_current_dir(&dir).map_err(|e| format!("enter {}: {e}", dir.display()))?;
        Ok(WorkDir {
            root: root.to_path_buf(),
            dir,
        })
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::env::set_current_dir(&self.root);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn run(args: Args) -> Result<(), String> {
    pin_campaign_width();
    let root = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    if !root.join("perfbench").join("Cargo.toml").is_file() {
        return Err(format!(
            "{} is not the repository root (no perfbench/Cargo.toml)",
            root.display()
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned_cpu = measure::pin_to_last_cpu();
    let calib_start = measure::calibrate_us();
    let ctx = Ctx {
        root: root.clone(),
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace, SPAN_CAP),
    };
    let workdir = WorkDir::enter(&root, args.workload)?;
    let outcome = match args.workload {
        Workload::Paper => paper::run(&ctx),
        Workload::Advise => advise::run(&ctx),
        Workload::Learn => learn::run(&ctx),
    }?;
    drop(workdir);
    let calib_end = measure::calibrate_us();
    let host = Host {
        nproc,
        pinned_cpu,
        calib_us: [calib_start, calib_end],
    };
    report(&args, &ctx, outcome, &host)
}

/// What the run learned about its host.
struct Host {
    /// CPUs available before the run pinned itself.
    nproc: usize,
    pinned_cpu: Option<usize>,
    /// The calibration loop at the start and the end of the run.
    calib_us: [f64; 2],
}

fn report(args: &Args, ctx: &Ctx, mut out: Outcome, host: &Host) -> Result<(), String> {
    let calib_us = measure::mean(&host.calib_us);
    out.set(
        "ok_ratio",
        (out.attempted - out.failed.min(out.attempted)) as f64 / out.attempted.max(1) as f64,
    );
    out.set("host.calib_us", calib_us);
    let spans = ctx.tracer.spans();
    if args.trace {
        out.set(
            "trace.ops_per_s",
            out.metrics.get("ops_per_s").copied().unwrap_or(f64::NAN),
        );
        let dir = ctx.root.join(".bench_out");
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.spans.jsonl", args.workload.name()));
        std::fs::write(&path, trace::to_json_lines(&spans))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let checks_ok = out.checks.iter().all(|&(_, ok)| ok);
    for (name, ok) in &out.checks {
        if !ok {
            eprintln!("check failed: {name}");
        }
    }
    let mut meta = format!(
        "{{\"meta\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
         \"width\":{},\"pinned_cpu\":{},\"ops\":{},\"commit\":\"{}\",\"host.calib_us\":[{},{}],\"dropped_spans\":{}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.nproc,
        WIDTH,
        host.pinned_cpu.map_or("null".to_string(), |c| c.to_string()),
        out.attempted,
        measure::git_commit(&ctx.root),
        host.calib_us[0],
        host.calib_us[1],
        ctx.tracer.dropped()
    );
    for (k, v) in &out.meta {
        let _ = write!(meta, ",\"{k}\":{v}");
    }
    for (name, ok) in &out.checks {
        let _ = write!(meta, ",\"check.{name}\":{ok}");
    }
    meta.push_str("}}");
    println!("{meta}");
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => return Err(format!("workload did not report {name}")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks_ok && out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    Ok(())
}
