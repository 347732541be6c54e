//! The paper's qualitative claims, checked against the simulator at reduced
//! scale. These are the "shape" assertions EXPERIMENTS.md records at full
//! scale: who wins, roughly by how much, and the diagnostic signatures
//! (rise time, hop distributions, message-count asymmetry).

use oracle::builder::paper_strategies;
use oracle::experiments::{plots, table2, table3, Fidelity};
use oracle::prelude::*;

/// The headline (§4, Table 2): "In 118 out of 120 cases, the CWN is seen to
/// be better." At Quick fidelity we demand a clear majority and at least one
/// significant (>10%) win.
#[test]
fn cwn_beats_gm_in_most_cells() {
    let cells = table2::run(Fidelity::Quick, 1);
    let s = table2::summarize(&cells);
    assert!(
        s.cwn_wins * 10 >= s.cells * 7,
        "CWN won only {}/{} cells",
        s.cwn_wins,
        s.cells
    );
    assert!(s.significant >= s.cells / 3, "too few significant wins");
    assert!(s.max_ratio > 1.2);
}

/// "On grids at times the CWN leads to thrice as much speed as GM" — the
/// advantage grows with the machine; check the larger grid beats the
/// smaller grid's ratio for the biggest workload.
#[test]
fn grid_advantage_grows_with_machine_size() {
    let ratio = |side: usize| {
        let topology = TopologySpec::grid(side);
        let (cwn, gm) = paper_strategies(&topology);
        let run = |s| {
            SimulationBuilder::new()
                .topology(topology)
                .strategy(s)
                .workload(WorkloadSpec::fib(15))
                .seed(1)
                .run()
                .unwrap()
                .speedup
        };
        run(cwn) / run(gm)
    };
    let small = ratio(5);
    let large = ratio(10);
    assert!(
        large > small,
        "advantage should grow with size: {small:.2} -> {large:.2}"
    );
    assert!(large > 1.5, "large-grid advantage too small: {large:.2}");
}

/// Table 3's signatures: CWN ships everything (nothing at 0 hops, spike at
/// the radius, mean ≈ 3); GM keeps most goals local (large mass at 0 hops,
/// mean < 1 at paper scale — < 1.5 at quick scale).
#[test]
fn hop_distributions_match_table3_shape() {
    let d = table3::run(Fidelity::Quick, 1);
    assert_eq!(d.cwn.hop_histogram[0], 0, "CWN kept a goal at its source");
    assert!(
        d.gm.hop_histogram[0] * 2 > d.gm.goals_created,
        "GM should keep most goals at home: {:?}",
        &d.gm.hop_histogram[..2]
    );
    assert!(d.cwn.avg_goal_distance > 2.0 * d.gm.avg_goal_distance);
}

/// At full paper configuration (fib(18), 10×10 grid), the radius spike and
/// the CWN/GM traffic asymmetry ("typically, it requires thrice as much
/// communication as the GM") must both appear.
#[test]
fn fib18_radius_spike_and_traffic_asymmetry() {
    let d = table3::run(Fidelity::Paper, 1);
    let h = &d.cwn.hop_histogram;
    assert_eq!(h.len(), 10, "CWN histogram must stop at radius 9: {h:?}");
    assert!(h[9] > h[8], "no spike at the radius: {h:?}");
    assert!(
        d.cwn.traffic.goal_hops > 2 * d.gm.traffic.goal_hops,
        "CWN should need much more goal communication ({} vs {})",
        d.cwn.traffic.goal_hops,
        d.gm.traffic.goal_hops
    );
    assert!(
        d.gm.avg_goal_distance < 1.0,
        "GM mean distance should be < 1"
    );
}

/// The headline must be mechanism, not placement luck: across several
/// seeds the two speedup distributions must be cleanly separated.
#[test]
fn headline_is_seed_robust() {
    use oracle::runner::seed_sweep;
    let topology = TopologySpec::grid(5);
    let workload = WorkloadSpec::fib(13);
    let (cwn, gm) = paper_strategies(&topology);
    let sweep = |strategy| {
        seed_sweep(
            SimulationBuilder::new()
                .topology(topology)
                .strategy(strategy)
                .workload(workload)
                .config(),
            1,
            6,
        )
    };
    let c = sweep(cwn);
    let g = sweep(gm);
    let c_min = c.speedups.iter().copied().fold(f64::INFINITY, f64::min);
    let g_max = g.speedups.iter().copied().fold(0.0f64, f64::max);
    assert!(
        c_min > g_max,
        "distributions overlap: CWN min {c_min:.2} vs GM max {g_max:.2}"
    );
    assert!(
        c.relative_spread() < 0.25,
        "CWN spread {}",
        c.relative_spread()
    );
}

/// Plots 11–16: "the CWN has much faster 'rise-time' than GM: it spreads
/// work quickly to all the PEs at beginning."
#[test]
fn cwn_rise_time_is_faster() {
    let p = plots::util_vs_time(TopologySpec::grid(10), WorkloadSpec::fib(15), 50, 1);
    let cwn = plots::rise_time(&p.cwn, 30.0);
    let gm = plots::rise_time(&p.gm, 30.0);
    match (cwn, gm) {
        (Some(c), Some(g)) => assert!(c < g, "CWN rise {c} not faster than GM {g}"),
        (Some(_), None) => {} // GM never got there — also the paper's story.
        other => panic!("unexpected rise times {other:?}"),
    }
}

/// Plots 11–12 on the DLM: "Although it takes the system close to 100%
/// utilization quickly, it cannot maintain the performance at that level.
/// The Gradient model manages to maintain 100% when it reaches that level."
/// GM's peak must exceed CWN's on the paper's fib(18)/100-PE DLM.
#[test]
fn gm_holds_a_higher_peak_on_the_dlm() {
    let p = plots::util_vs_time(TopologySpec::dlm(10), WorkloadSpec::fib(18), 100, 1);
    let peak = |s: &[(u64, f64)]| s.iter().map(|&(_, u)| u).fold(0.0f64, f64::max);
    let cwn_peak = peak(&p.cwn);
    let gm_peak = peak(&p.gm);
    assert!(
        gm_peak > 95.0,
        "GM should reach ~100% on the DLM, peaked at {gm_peak:.0}%"
    );
    assert!(
        cwn_peak < gm_peak,
        "CWN should not hold the DLM at peak (CWN {cwn_peak:.0}% vs GM {gm_peak:.0}%)"
    );
    // And GM *holds* it: at least 5 consecutive intervals above 90%.
    let held = p.gm.windows(5).any(|w| w.iter().all(|&(_, u)| u > 90.0));
    assert!(held, "GM failed to hold its peak");
}

/// Plots 1–5 shape: utilization grows with problem size on a fixed machine
/// (more goals, better coverage) for both schemes.
#[test]
fn utilization_grows_with_problem_size() {
    let workloads = [
        WorkloadSpec::dc(55),
        WorkloadSpec::dc(144),
        WorkloadSpec::dc(377),
    ];
    let p = plots::util_vs_goals(TopologySpec::dlm(5), &workloads, 1);
    for line in [&p.cwn, &p.gm] {
        assert!(
            line.points[2].1 > line.points[0].1,
            "{}: utilization did not grow: {:?}",
            line.strategy,
            line.points
        );
    }
}

/// The dc and fib variants behave similarly (the paper omitted the fib
/// plots for this reason): both must favour CWN on a grid.
#[test]
fn dc_and_fib_agree_on_the_winner() {
    let topology = TopologySpec::grid(8);
    let (cwn, gm) = paper_strategies(&topology);
    for workload in [WorkloadSpec::fib(15), WorkloadSpec::dc(987)] {
        let run = |s| {
            SimulationBuilder::new()
                .topology(topology)
                .strategy(s)
                .workload(workload)
                .seed(2)
                .run()
                .unwrap()
                .speedup
        };
        let ratio = run(cwn) / run(gm);
        assert!(ratio > 1.0, "{workload}: CWN should win (ratio {ratio:.2})");
    }
}

/// DLM vs grid: "The DLM topologies have smaller diameters (4-5) compared
/// to the grids (ranges from 8 to 38)" and the CWN advantage is milder on
/// the DLM.
#[test]
fn dlm_advantage_is_milder_than_grid() {
    let ratio_on = |topology: TopologySpec| {
        let (cwn, gm) = paper_strategies(&topology);
        let run = |s| {
            SimulationBuilder::new()
                .topology(topology)
                .strategy(s)
                .workload(WorkloadSpec::fib(15))
                .seed(1)
                .run()
                .unwrap()
                .speedup
        };
        run(cwn) / run(gm)
    };
    let grid = ratio_on(TopologySpec::grid(10));
    let dlm = ratio_on(TopologySpec::dlm(10));
    assert!(
        grid > dlm,
        "grid advantage {grid:.2} <= dlm advantage {dlm:.2}"
    );
    // Diameters per the paper.
    assert_eq!(TopologySpec::grid(10).build().diameter(), 18);
    assert!(TopologySpec::dlm(10).build().diameter() <= 5);
}
