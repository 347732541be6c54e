//! Table 3 — "distribution of message distance": how far goal messages
//! travel under each scheme (fib(18) on a 10×10 grid in the paper).
//!
//! The paper's observations to reproduce: CWN's average distance ≈ 3 with a
//! spike at the radius ("a message that has gone that far must stop"); GM's
//! average < 1 with a large mass at zero ("a significant number of goals
//! just stay at the PE they were created on").

use oracle_model::{MachineConfig, Report};
use oracle_topo::TopologySpec;
use oracle_workloads::WorkloadSpec;

use super::Fidelity;
use crate::builder::{paper_strategies, SimulationBuilder};
use crate::table::{f2, Table};

/// The two hop-distance distributions.
#[derive(Debug, Clone)]
pub struct HopDistributions {
    /// Full report of the CWN run.
    pub cwn: Report,
    /// Full report of the GM run.
    pub gm: Report,
}

/// Run the Table-3 experiment.
pub fn run(fidelity: Fidelity, seed: u64) -> HopDistributions {
    let (topology, workload) = match fidelity {
        Fidelity::Paper => (TopologySpec::grid(10), WorkloadSpec::fib(18)),
        Fidelity::Quick => (TopologySpec::grid(5), WorkloadSpec::fib(11)),
    };
    let (cwn, gm) = paper_strategies(&topology);
    let mk = |strategy| {
        SimulationBuilder::new()
            .topology(topology)
            .strategy(strategy)
            .workload(workload)
            .machine(MachineConfig::default().with_seed(seed))
            .run()
            .expect("table 3 run failed")
    };
    HopDistributions {
        cwn: mk(cwn),
        gm: mk(gm),
    }
}

/// Render in the paper's layout: one row per scheme, one column per hop
/// count, plus the average. Goals that travelled beyond the histogram's
/// bucket range get their own explicit column (instead of silently
/// vanishing from the table): the columns of a row always sum to that
/// run's executed goals.
pub fn render(d: &HopDistributions) -> Table {
    let width = d.cwn.hop_histogram.len().max(d.gm.hop_histogram.len());
    let overflow = d.cwn.hop_overflow > 0 || d.gm.hop_overflow > 0;
    let mut header: Vec<String> = vec!["Hops".into()];
    header.extend((0..width).map(|h| h.to_string()));
    if overflow {
        header.push(format!(">{}", width - 1));
    }
    header.push("Average".into());
    let mut table = Table::new("Distribution of message distances (paper Table 3)", &header);
    for (name, r) in [("CWN", &d.cwn), ("GM", &d.gm)] {
        let mut row = vec![name.to_string()];
        for h in 0..width {
            row.push(
                r.hop_histogram
                    .get(h)
                    .map_or_else(|| "0".into(), |c| c.to_string()),
            );
        }
        if overflow {
            row.push(r.hop_overflow.to_string());
        }
        row.push(f2(r.avg_goal_distance));
        table.row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_the_papers_shape() {
        let d = run(Fidelity::Quick, 1);
        // CWN ships everything out; GM keeps most goals at home.
        assert_eq!(d.cwn.hop_histogram[0], 0);
        assert!(d.gm.hop_histogram[0] > d.gm.goals_created / 3);
        assert!(
            d.cwn.avg_goal_distance > d.gm.avg_goal_distance,
            "CWN {} vs GM {}",
            d.cwn.avg_goal_distance,
            d.gm.avg_goal_distance
        );
        assert!(d.gm.avg_goal_distance < 1.5);
    }

    #[test]
    fn render_has_two_rows() {
        let d = run(Fidelity::Quick, 1);
        let t = render(&d);
        assert_eq!(t.len(), 2);
        assert!(t.to_string().contains("CWN"));
    }
}
