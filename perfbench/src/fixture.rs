//! The measurement fixture `advise` and `learn` start from, so neither
//! simulates anything before its first timed op.
//!
//! It holds the Basic campaign's [`MeasurementDb`], the §4.1
//! [`AdjustmentPolicy`] reference walls, and ground truth for every
//! configuration of the 62-configuration grid at each Basic evaluation
//! size, all in the workspace's own JSON. It records the campaign
//! fingerprint it was generated under; loading fails when the current
//! code fingerprints the campaign differently. Regenerate it with
//! `cargo run --release --offline --manifest-path perfbench/Cargo.toml -- gen-fixture`.

use std::path::Path;

use etm_cluster::spec::paper_cluster;
use etm_cluster::{ClusterSpec, CommLibProfile, Configuration};
use etm_core::backend::{ModelBackend, PolyLsqBackend};
use etm_core::pipeline::{
    campaign_fingerprint_hex, paper_adjustment_policy, run_construction_threads, sample_from_run,
};
use etm_core::plan::{evaluation_configs, MeasurementPlan};
use etm_core::{AdjustmentPolicy, MeasurementDb, Sample, SampleKey};
use etm_hpl::{simulate_hpl, HplParams};
use etm_repro::experiments::NB;
use etm_support::json::{from_str, to_string};
use etm_support::json_struct;
use etm_support::pool;

/// Fixture path relative to the repository root.
pub const FIXTURE_PATH: &str = "perfbench/fixtures/basic_campaign.json";

/// One measured `(kind, Pᵢ, Mᵢ)` group of a ground-truth run.
#[derive(Clone, Debug)]
pub struct KeyedSample {
    pub key: SampleKey,
    pub sample: Sample,
}

/// Ground truth of one configuration at one size: the run's wall and
/// the per-kind samples an execution of it would report.
#[derive(Clone, Debug)]
pub struct TruthRun {
    pub n: usize,
    pub config: Configuration,
    pub wall: f64,
    pub samples: Vec<KeyedSample>,
}

#[derive(Clone, Debug)]
pub struct Fixture {
    pub fingerprint: String,
    pub db: MeasurementDb,
    pub policy: AdjustmentPolicy,
    pub truth: Vec<TruthRun>,
}

json_struct!(KeyedSample { key, sample });
json_struct!(TruthRun {
    n,
    config,
    wall,
    samples
});
json_struct!(Fixture {
    fingerprint,
    db,
    policy,
    truth
});

pub fn paper_spec() -> ClusterSpec {
    paper_cluster(CommLibProfile::mpich122())
}

/// The fingerprint the current code gives the Basic campaign.
pub fn current_fingerprint() -> String {
    campaign_fingerprint_hex(&paper_spec(), &MeasurementPlan::basic(), NB)
}

impl Fixture {
    /// Reads and validates the fixture.
    ///
    /// # Errors
    /// Unreadable or malformed file, or a fingerprint that differs from
    /// the current code's.
    pub fn load(path: &Path) -> Result<Fixture, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read fixture {}: {e}", path.display()))?;
        let fixture: Fixture =
            from_str(&text).map_err(|e| format!("fixture {}: {e}", path.display()))?;
        let current = current_fingerprint();
        if fixture.fingerprint != current {
            return Err(format!(
                "fixture {} was generated for campaign {}, the current code \
                 fingerprints it {current}; regenerate it with gen-fixture",
                path.display(),
                fixture.fingerprint
            ));
        }
        Ok(fixture)
    }

    /// Ground truth at size `n`, in grid order.
    pub fn truth_at(&self, n: usize) -> Vec<&TruthRun> {
        self.truth.iter().filter(|t| t.n == n).collect()
    }
}

/// Runs the Basic campaign, its §4.1 reference measurements and the
/// ground-truth grid on the simulated cluster.
pub fn generate() -> Fixture {
    let spec = paper_spec();
    let plan = MeasurementPlan::basic();
    let db = run_construction_threads(&spec, &plan, NB, crate::WIDTH);
    let bank = PolyLsqBackend::paper()
        .fit(&db)
        .expect("the Basic campaign fits");
    let policy = paper_adjustment_policy(&spec, &bank, &plan, NB);
    let points: Vec<(usize, Configuration)> = plan
        .evaluation_ns
        .iter()
        .flat_map(|&n| evaluation_configs().into_iter().map(move |c| (n, c)))
        .collect();
    let truth = pool::par_map(&points, crate::WIDTH, |_, (n, config)| {
        let run = simulate_hpl(&spec, config, &HplParams::order(*n).with_nb(NB));
        let samples = config
            .uses
            .iter()
            .filter(|u| u.pes > 0 && u.procs_per_pe > 0)
            .map(|u| KeyedSample {
                key: SampleKey::new(u.kind, u.pes, u.procs_per_pe),
                sample: sample_from_run(&run, u.kind, *n),
            })
            .collect();
        TruthRun {
            n: *n,
            config: config.clone(),
            wall: run.wall_seconds,
            samples,
        }
    });
    Fixture {
        fingerprint: current_fingerprint(),
        db,
        policy,
        truth,
    }
}

/// Writes `fixture` to `path` as JSON.
///
/// # Errors
/// I/O failure.
pub fn write(fixture: &Fixture, path: &Path) -> Result<(), String> {
    let mut text = to_string(fixture);
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
