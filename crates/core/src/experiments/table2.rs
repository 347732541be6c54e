//! Table 2 — "Speedup of CWN over GM": the paper's main result.
//!
//! 240 runs (2 problem types × 6 sizes × 2 topology families × 5 sizes × 2
//! strategies), reduced to 120 ratio cells. The paper found CWN better in
//! 118 of 120 cells, significantly (>10%) better in 110, and up to ~3× on
//! the large grids.

use oracle_model::MachineConfig;
use oracle_topo::TopologySpec;
use oracle_workloads::WorkloadSpec;

use super::{paper_topologies, Fidelity};
use crate::builder::{paper_strategies, SimulationBuilder};
use crate::runner::{run_batch, RunSpec};
use crate::table::{f2, Table};

/// One cell of Table 2.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Workload of this row.
    pub workload: WorkloadSpec,
    /// Topology of this column.
    pub topology: TopologySpec,
    /// Number of PEs.
    pub pes: usize,
    /// Speedup achieved by CWN.
    pub cwn_speedup: f64,
    /// Speedup achieved by the Gradient Model.
    pub gm_speedup: f64,
}

impl Cell {
    /// The cell value: speedup of CWN over GM.
    pub fn ratio(&self) -> f64 {
        self.cwn_speedup / self.gm_speedup
    }
}

/// Run the full comparison grid and return one cell per
/// (workload, topology).
pub fn run(fidelity: Fidelity, seed: u64) -> Vec<Cell> {
    let mut workloads: Vec<WorkloadSpec> = fidelity
        .dc_sizes()
        .iter()
        .map(|&x| WorkloadSpec::dc(x))
        .collect();
    workloads.extend(fidelity.fib_sizes().iter().map(|&n| WorkloadSpec::fib(n)));

    let mut cells = Vec::new();
    let mut specs = Vec::new();
    for &side in fidelity.grid_sides() {
        for topology in paper_topologies(side) {
            let (cwn, gm) = paper_strategies(&topology);
            for &workload in &workloads {
                for strategy in [cwn, gm] {
                    specs.push(RunSpec::new(
                        format!("{workload}/{topology}/{strategy}"),
                        SimulationBuilder::new()
                            .topology(topology)
                            .strategy(strategy)
                            .workload(workload)
                            .machine(MachineConfig::default().with_seed(seed))
                            .config(),
                    ));
                }
                cells.push((workload, topology, side));
            }
        }
    }

    let results = run_batch(&specs);
    cells
        .into_iter()
        .enumerate()
        .map(|(i, (workload, topology, side))| {
            let cwn = results[2 * i]
                .1
                .as_ref()
                .unwrap_or_else(|e| panic!("{}: {e}", results[2 * i].0));
            let gm = results[2 * i + 1]
                .1
                .as_ref()
                .unwrap_or_else(|e| panic!("{}: {e}", results[2 * i + 1].0));
            Cell {
                workload,
                topology,
                pes: side * side,
                cwn_speedup: cwn.speedup,
                gm_speedup: gm.speedup,
            }
        })
        .collect()
}

/// Render the cells in the paper's layout: one row per workload, one column
/// per (family, PE count).
pub fn render(cells: &[Cell]) -> Table {
    let mut pes: Vec<usize> = cells.iter().map(|c| c.pes).collect();
    pes.sort_unstable();
    pes.dedup();

    let mut header: Vec<String> = vec!["workload".into()];
    for family in ["grid", "dlm"] {
        for &p in &pes {
            header.push(format!("{family}-{p}"));
        }
    }
    let mut table = Table::new("Speedup of CWN over GM (paper Table 2)", &header);

    let mut workloads: Vec<WorkloadSpec> = Vec::new();
    for c in cells {
        if !workloads.contains(&c.workload) {
            workloads.push(c.workload);
        }
    }

    for w in workloads {
        let mut row = vec![w.to_string()];
        for grid in [true, false] {
            for &p in &pes {
                let cell = cells.iter().find(|c| {
                    c.workload == w
                        && c.pes == p
                        && matches!(c.topology, TopologySpec::Mesh2D { .. }) == grid
                });
                row.push(cell.map_or_else(|| "-".into(), |c| f2(c.ratio())));
            }
        }
        table.row(row);
    }
    table
}

/// Summary statistics in the paper's terms: how many cells favour CWN, how
/// many significantly (>10%), and the extreme ratios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Total ratio cells.
    pub cells: usize,
    /// Cells with ratio > 1 (CWN better).
    pub cwn_wins: usize,
    /// Cells with ratio > 1.1 (significantly better).
    pub significant: usize,
    /// Smallest ratio.
    pub min_ratio: f64,
    /// Largest ratio.
    pub max_ratio: f64,
}

/// Summarize a cell set.
pub fn summarize(cells: &[Cell]) -> Summary {
    let ratios: Vec<f64> = cells.iter().map(Cell::ratio).collect();
    Summary {
        cells: cells.len(),
        cwn_wins: ratios.iter().filter(|&&r| r > 1.0).count(),
        significant: ratios.iter().filter(|&&r| r > 1.1).count(),
        min_ratio: ratios.iter().copied().fold(f64::INFINITY, f64::min),
        max_ratio: ratios.iter().copied().fold(0.0, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_reproduces_the_headline() {
        let cells = run(Fidelity::Quick, 1);
        // 2 sides x 2 families x 4 workloads.
        assert_eq!(cells.len(), 16);
        let s = summarize(&cells);
        assert_eq!(s.cells, 16);
        // The paper: CWN wins nearly everywhere. At miniature scale demand
        // a clear majority rather than 118/120.
        assert!(
            s.cwn_wins * 10 >= s.cells * 7,
            "CWN won only {}/{} cells",
            s.cwn_wins,
            s.cells
        );
        assert!(s.max_ratio > 1.1, "no significant win at all");
    }

    #[test]
    fn render_shapes_like_the_paper() {
        let cells = run(Fidelity::Quick, 1);
        let table = render(&cells);
        assert_eq!(table.len(), 4, "one row per workload");
        let csv = table.to_csv();
        assert!(csv.starts_with("workload,grid-16,grid-25,dlm-16,dlm-25"));
    }
}
