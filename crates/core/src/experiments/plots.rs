//! Plots 1–16: utilization vs problem size, and utilization vs time.
//!
//! Plots 1–10 put "average PE utilization in percents" on the Y axis
//! against "the problem-size in total number of goals generated" on the X
//! axis, one plot per topology, two lines (CWN, GM) each. The paper shows
//! dc; the fib analogues were "very similar, so we omit them from the
//! plots" — both are available here.
//!
//! Plots 11–16 show "the utilizations during short sampling intervals
//! throughout the course of computation": utilization vs time for fib 18,
//! 15 and 9 on the 100-PE DLM (11–13) and the 100-PE grid (14–16). The key
//! shapes: CWN's much faster rise time; CWN's inability to hold 100%; GM
//! holding 100% once reached; GM's flattening on grids.

use oracle_model::MachineConfig;
use oracle_strategies::StrategySpec;
use oracle_topo::TopologySpec;
use oracle_workloads::WorkloadSpec;

use super::Fidelity;
use crate::builder::{paper_strategies, SimulationBuilder};
use crate::runner::{run_batch, RunSpec};
use crate::table::{f1, Table};

/// One strategy's line on a utilization-vs-goals plot.
#[derive(Debug, Clone)]
pub struct Line {
    /// The strategy.
    pub strategy: StrategySpec,
    /// `(goals_generated, avg_utilization_percent)` per workload size.
    pub points: Vec<(u64, f64)>,
}

/// One utilization-vs-goals plot (one topology, both schemes).
#[derive(Debug, Clone)]
pub struct UtilVsGoals {
    /// The topology of this plot.
    pub topology: TopologySpec,
    /// CWN's line.
    pub cwn: Line,
    /// GM's line.
    pub gm: Line,
}

/// Run one utilization-vs-goals plot: the given workloads (increasing
/// size), both paper strategies.
pub fn util_vs_goals(topology: TopologySpec, workloads: &[WorkloadSpec], seed: u64) -> UtilVsGoals {
    let (cwn, gm) = paper_strategies(&topology);
    let mut specs = Vec::new();
    for &w in workloads {
        for s in [cwn, gm] {
            specs.push(RunSpec::new(
                format!("{w}/{s}"),
                SimulationBuilder::new()
                    .topology(topology)
                    .strategy(s)
                    .workload(w)
                    .machine(MachineConfig::default().with_seed(seed))
                    .config(),
            ));
        }
    }
    let results = run_batch(&specs);
    let line = |offset: usize, strategy| Line {
        strategy,
        points: workloads
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let r = results[2 * i + offset]
                    .1
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{}: {e}", results[2 * i + offset].0));
                // Report utilizations are fractions; plot axes are percent.
                (w.num_goals(), r.avg_utilization * 100.0)
            })
            .collect(),
    };
    UtilVsGoals {
        topology,
        cwn: line(0, cwn),
        gm: line(1, gm),
    }
}

/// The dc workload set for plots 1–10 (or fib for the omitted analogues).
pub fn plot_workloads(fidelity: Fidelity, fib: bool) -> Vec<WorkloadSpec> {
    if fib {
        fidelity
            .fib_sizes()
            .iter()
            .map(|&n| WorkloadSpec::fib(n))
            .collect()
    } else {
        fidelity
            .dc_sizes()
            .iter()
            .map(|&x| WorkloadSpec::dc(x))
            .collect()
    }
}

/// Render a utilization-vs-goals plot as a table (one row per size).
pub fn render_util_vs_goals(p: &UtilVsGoals) -> Table {
    let mut table = Table::new(
        format!(
            "Avg PE utilization (%) vs no. of goals — {} ({} PEs)",
            p.topology,
            p.topology.num_pes()
        ),
        &["goals", "CWN", "GM"],
    );
    for (i, &(goals, cwn_util)) in p.cwn.points.iter().enumerate() {
        table.row(vec![goals.to_string(), f1(cwn_util), f1(p.gm.points[i].1)]);
    }
    table
}

/// One utilization-vs-time plot: both schemes' sampled series.
#[derive(Debug, Clone)]
pub struct UtilVsTime {
    /// The topology.
    pub topology: TopologySpec,
    /// The workload.
    pub workload: WorkloadSpec,
    /// `(interval_start, utilization_percent)` for CWN.
    pub cwn: Vec<(u64, f64)>,
    /// `(interval_start, utilization_percent)` for GM.
    pub gm: Vec<(u64, f64)>,
}

/// Run one utilization-vs-time plot.
pub fn util_vs_time(
    topology: TopologySpec,
    workload: WorkloadSpec,
    sampling_interval: u64,
    seed: u64,
) -> UtilVsTime {
    let (cwn, gm) = paper_strategies(&topology);
    let series = |strategy| {
        let r = SimulationBuilder::new()
            .topology(topology)
            .strategy(strategy)
            .workload(workload)
            .sampling_interval(sampling_interval)
            .machine(MachineConfig {
                sampling_interval,
                seed,
                ..MachineConfig::default()
            })
            .run()
            .expect("util_vs_time run failed");
        r.util_series
            .iter()
            .map(|&(t, f)| (t, f * 100.0))
            .collect::<Vec<_>>()
    };
    UtilVsTime {
        topology,
        workload,
        cwn: series(cwn),
        gm: series(gm),
    }
}

/// Render a utilization-vs-time plot as a table (one row per interval).
pub fn render_util_vs_time(p: &UtilVsTime) -> Table {
    let mut table = Table::new(
        format!(
            "PE utilization (%) over time — {} on {}",
            p.workload, p.topology
        ),
        &["t", "CWN", "GM"],
    );
    let rows = p.cwn.len().max(p.gm.len());
    for i in 0..rows {
        let t = p
            .cwn
            .get(i)
            .or_else(|| p.gm.get(i))
            .map(|&(t, _)| t)
            .unwrap_or_default();
        let cell = |s: &Vec<(u64, f64)>| s.get(i).map_or_else(|| "-".into(), |&(_, u)| f1(u));
        table.row(vec![t.to_string(), cell(&p.cwn), cell(&p.gm)]);
    }
    table
}

/// Time of the first sample at which a series reaches `pct` percent —
/// the "rise time" the paper compares (CWN's is much shorter).
pub fn rise_time(series: &[(u64, f64)], pct: f64) -> Option<u64> {
    series.iter().find(|&&(_, u)| u >= pct).map(|&(t, _)| t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn util_vs_goals_has_both_lines() {
        let workloads = plot_workloads(Fidelity::Quick, false);
        let p = util_vs_goals(TopologySpec::grid(5), &workloads, 1);
        assert_eq!(p.cwn.points.len(), 2);
        assert_eq!(p.gm.points.len(), 2);
        // Utilization grows with problem size for CWN on a small machine.
        assert!(p.cwn.points[1].1 > p.cwn.points[0].1);
        // X coordinates are goal counts.
        assert_eq!(p.cwn.points[0].0, 41);
        let t = render_util_vs_goals(&p);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn cwn_rises_faster_than_gm() {
        let p = util_vs_time(TopologySpec::grid(5), WorkloadSpec::fib(13), 50, 1);
        let cwn_rise = rise_time(&p.cwn, 40.0);
        let gm_rise = rise_time(&p.gm, 40.0);
        match (cwn_rise, gm_rise) {
            (Some(c), Some(g)) => assert!(c <= g, "CWN rise {c} vs GM rise {g}"),
            (Some(_), None) => {} // GM never reached 40% — also the paper's point.
            other => panic!("unexpected rise times: {other:?}"),
        }
    }

    #[test]
    fn render_time_plot() {
        let p = util_vs_time(TopologySpec::grid(4), WorkloadSpec::fib(10), 50, 1);
        let t = render_util_vs_time(&p);
        assert!(!t.is_empty());
    }

    #[test]
    fn rise_time_helper() {
        let s = vec![(0, 10.0), (50, 45.0), (100, 90.0)];
        assert_eq!(rise_time(&s, 40.0), Some(50));
        assert_eq!(rise_time(&s, 95.0), None);
    }
}
