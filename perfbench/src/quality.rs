//! The paper's quality definitions, applied the way `repro` applies
//! them: correlation points, the Table 4/7/9 best-configuration row,
//! and the three quality figures every workload reports.

use etm_cluster::{ClusterSpec, Configuration, KindId};
use etm_core::engine::EngineSnapshot;
use etm_repro::correlate::{best_config_row, mean_abs_rel_error, BestConfigRow, CorrelationPoint};

use crate::measure::mean;

/// Scores the snapshot's estimates against measured walls at size `n`;
/// `None` when any configuration is inestimable.
pub fn correlation<'a>(
    snapshot: &EngineSnapshot,
    measured: impl Iterator<Item = (&'a Configuration, f64)>,
    n: usize,
) -> Option<Vec<CorrelationPoint>> {
    measured
        .map(|(config, measured)| {
            Some(CorrelationPoint {
                config: config.clone(),
                m1: config.procs_per_pe(KindId(snapshot.fast_kind())),
                estimate_raw: snapshot.estimate_raw(config, n).ok()?,
                estimate_adjusted: snapshot.estimate(config, n).ok()?,
                measured,
            })
        })
        .collect()
}

/// The Table 4/7/9 CSV row, formatted exactly as `repro` writes it.
pub fn table_row(spec: &ClusterSpec, r: &BestConfigRow) -> String {
    format!(
        "{},{},{:.3},{:.3},{},{:.3},{:.4},{:.4}",
        r.n,
        r.estimated_best.label(spec),
        r.tau,
        r.tau_hat,
        r.actual_best.label(spec),
        r.t_hat,
        r.estimate_error(),
        r.selection_penalty()
    )
}

/// The rows and mean adjusted-estimate errors of several sweeps.
#[derive(Default)]
pub struct Scored {
    pub rows: Vec<BestConfigRow>,
    pub errs: Vec<f64>,
}

impl Scored {
    /// Adds one sweep at size `n` and returns its row.
    pub fn add(&mut self, points: &[CorrelationPoint], n: usize) -> &BestConfigRow {
        self.errs.push(mean_abs_rel_error(points, true));
        self.rows.push(best_config_row(points, n));
        &self.rows[self.rows.len() - 1]
    }

    /// `(selection_penalty_pct, estimate_err_pct, regret_pct)`: the mean
    /// of (τ̂ − T̂)/T̂, the mean of the mean absolute relative errors,
    /// and Σ τ̂ ÷ Σ T̂ − 1, all in percent.
    pub fn figures(&self) -> (f64, f64, f64) {
        let penalties: Vec<f64> = self
            .rows
            .iter()
            .map(BestConfigRow::selection_penalty)
            .collect();
        let tau_hat: f64 = self.rows.iter().map(|r| r.tau_hat).sum();
        let t_hat: f64 = self.rows.iter().map(|r| r.t_hat).sum();
        (
            mean(&penalties) * 100.0,
            mean(&self.errs) * 100.0,
            (tau_hat / t_hat - 1.0) * 100.0,
        )
    }
}
