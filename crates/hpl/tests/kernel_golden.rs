//! Golden regression constants for the discrete-event kernel under HPL.
//!
//! Each case pins the exact wall time (as IEEE-754 bits) and the number of
//! kernel events dispatched for a fixed `simulate_hpl` run. Any change to
//! the kernel's scheduling order — which process resumes first at equal
//! virtual time, how completions of one resource firing are ordered,
//! which events count as dispatched — moves at least one of them, so a
//! scheduler rewrite that claims to be order-preserving must keep every
//! constant here.

use etm_cluster::spec::paper_cluster;
use etm_cluster::{CommLibProfile, Configuration, KindId};
use etm_hpl::{simulate_hpl, simulate_hpl_with_stats, ExecutionPerturbation, HplParams};

fn check(
    cfg: Configuration,
    n: usize,
    perturb: ExecutionPerturbation,
    wall_bits: u64,
    events: u64,
) {
    let spec = paper_cluster(CommLibProfile::mpich122());
    let (run, stats) = simulate_hpl_with_stats(&spec, &cfg, &HplParams::order(n), &perturb);
    assert_eq!(
        (run.wall_seconds.to_bits(), stats.events),
        (wall_bits, events),
        "wall {} s after {} events",
        run.wall_seconds,
        stats.events
    );
}

#[test]
fn homogeneous_run_is_pinned() {
    check(
        Configuration::p1m1_p2m2(0, 0, 4, 1),
        1200,
        ExecutionPerturbation::default(),
        0x400b_8caa_7ff4_beff,
        536,
    );
}

#[test]
fn multiprocessing_run_is_pinned() {
    check(
        Configuration::p1m1_p2m2(1, 2, 2, 1),
        1200,
        ExecutionPerturbation::default(),
        0x400c_3658_6bbb_bcbb,
        575,
    );
}

#[test]
fn heterogeneous_run_is_pinned() {
    check(
        Configuration::p1m1_p2m2(1, 1, 8, 1),
        1600,
        ExecutionPerturbation::default(),
        0x4014_573b_f69b_dcc4,
        1437,
    );
}

#[test]
fn perturbed_run_is_pinned() {
    check(
        Configuration::p1m1_p2m2(1, 1, 4, 2),
        1200,
        ExecutionPerturbation {
            cpu_slowdown: vec![(KindId(1), 1.75)],
            net_slowdown: 3.0,
        },
        0x4022_7f10_5130_a7bf,
        1336,
    );
}

#[test]
fn stats_variant_matches_plain_entry_point() {
    let spec = paper_cluster(CommLibProfile::mpich122());
    let cfg = Configuration::p1m1_p2m2(1, 1, 2, 1);
    let params = HplParams::order(800);
    let plain = simulate_hpl(&spec, &cfg, &params);
    let (run, stats) =
        simulate_hpl_with_stats(&spec, &cfg, &params, &ExecutionPerturbation::default());
    assert_eq!(plain.wall_seconds.to_bits(), run.wall_seconds.to_bits());
    assert_eq!(stats.end_seconds.to_bits(), run.wall_seconds.to_bits());
}
