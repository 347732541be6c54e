//! The experiment registry: one entry per table, figure or extension
//! study, and the only place that decides what each one prints.
//!
//! `oracle-cli experiment NAME` prints an entry's [`Output::text`] (or its
//! [`Output::json`] / [`Output::csv`]); `regen_all` writes every entry's
//! text to `results/STEM.txt`. Both therefore print the same bytes.

use oracle_topo::TopologySpec;
use oracle_workloads::WorkloadSpec;

use super::{
    ablations, appendix, capacity, degradation, plots, resilience, table1, table2, table3, Fidelity,
};
use crate::builder::{paper_strategies, SimulationBuilder};
use crate::chart::cwn_gm_chart;
use crate::runner::seed_sweep;
use crate::table::{f2, Table};

/// One block of an experiment's output.
#[derive(Debug, Clone)]
enum Section {
    /// An aligned table; the only sections `--csv` prints.
    Table(Table),
    /// Whole lines of prose or an ASCII chart, each ending in `\n`.
    Text(String),
    /// The machine-readable appendix; the only section `--json` prints.
    Json(String),
}

impl Section {
    fn text(&self) -> String {
        match self {
            Section::Table(t) => t.to_string(),
            Section::Text(s) => s.clone(),
            Section::Json(j) => format!("{j}\n"),
        }
    }
}

/// What one experiment run prints.
#[derive(Debug, Clone)]
pub struct Output {
    /// The blocks, in print order.
    sections: Vec<Section>,
    /// Figure lists (plots, appendix, ablations) put a blank line after
    /// their last section too, not only between sections.
    trailing_blank: bool,
}

impl Output {
    fn report(sections: Vec<Section>) -> Output {
        Output {
            sections,
            trailing_blank: false,
        }
    }

    fn figures(sections: Vec<Section>) -> Output {
        Output {
            sections,
            trailing_blank: true,
        }
    }

    /// The plain-text rendering: sections separated by blank lines.
    pub fn text(&self) -> String {
        let mut out = self
            .sections
            .iter()
            .map(Section::text)
            .collect::<Vec<_>>()
            .join("\n");
        if self.trailing_blank {
            out.push('\n');
        }
        out
    }

    /// Only the tables, as CSV blocks separated by blank lines; `None` if
    /// the experiment has no table.
    pub fn csv(&self) -> Option<String> {
        let blocks: Vec<String> = self
            .sections
            .iter()
            .filter_map(|s| match s {
                Section::Table(t) => Some(t.to_csv()),
                _ => None,
            })
            .collect();
        (!blocks.is_empty()).then(|| blocks.join("\n"))
    }

    /// Only the JSON appendix, with a final newline; `None` if the
    /// experiment has none.
    pub fn json(&self) -> Option<String> {
        self.sections.iter().find_map(|s| match s {
            Section::Json(_) => Some(s.text()),
            _ => None,
        })
    }
}

/// An experiment's body: run at a fidelity and base seed. An `Err` means
/// the results broke one of the experiment's own checks (the degradation
/// physics).
pub type Run = fn(Fidelity, u64) -> Result<Output, String>;

/// One registered experiment.
#[derive(Debug)]
pub struct Experiment {
    /// Name on the `oracle-cli experiment` command line.
    pub name: &'static str,
    /// File stem of its output under `results/`.
    pub stem: &'static str,
    /// What it runs and prints.
    pub run: Run,
}

const fn entry(name: &'static str, stem: &'static str, run: Run) -> Experiment {
    Experiment { name, stem, run }
}

/// Every experiment, in `results/` index order.
pub static REGISTRY: [Experiment; 14] = [
    entry("table1", "table1_opt", table1_opt),
    entry("table2", "table2_speedup", table2_speedup),
    entry("table3", "table3_hops", table3_hops),
    entry("plots-dc-grid", "plots_dc_grid", |f, seed| {
        Ok(util_vs_goals(f, seed, false, &[TopologySpec::grid]))
    }),
    entry("plots-dc-dlm", "plots_dc_dlm", |f, seed| {
        Ok(util_vs_goals(f, seed, false, &[TopologySpec::dlm]))
    }),
    entry("plots-fib", "plots_fib", |f, seed| {
        Ok(util_vs_goals(
            f,
            seed,
            true,
            &[TopologySpec::dlm, TopologySpec::grid],
        ))
    }),
    entry("plots-time-grid", "plots_time_grid", |f, seed| {
        Ok(util_vs_time(f, seed, TopologySpec::grid))
    }),
    entry("plots-time-dlm", "plots_time_dlm", |f, seed| {
        Ok(util_vs_time(f, seed, TopologySpec::dlm))
    }),
    entry("appendix", "appendix_hypercube", appendix_hypercube),
    entry("ablations", "ablations", ablation_studies),
    entry("resilience", "resilience", resilience_sweep),
    entry("capacity", "open_capacity", open_capacity),
    entry("degradation", "degradation", degradation_sweep),
    entry("seed-robustness", "seed_robustness", seed_robustness),
];

/// The experiment with CLI name `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

fn table1_opt(f: Fidelity, seed: u64) -> Result<Output, String> {
    let grid = table1::optimize(f, true, seed);
    let dlm = table1::optimize(f, false, seed);
    Ok(Output::report(vec![
        Section::Table(table1::render(&grid, &dlm)),
        Section::Table(table1::render_sweep("CWN sweep (grid)", &grid.cwn_sweep)),
        Section::Table(table1::render_sweep("GM sweep (grid)", &grid.gm_sweep)),
        Section::Table(table1::render_sweep("CWN sweep (dlm)", &dlm.cwn_sweep)),
        Section::Table(table1::render_sweep("GM sweep (dlm)", &dlm.gm_sweep)),
    ]))
}

fn table2_speedup(f: Fidelity, seed: u64) -> Result<Output, String> {
    let cells = table2::run(f, seed);
    let s = table2::summarize(&cells);
    Ok(Output::report(vec![
        Section::Table(table2::render(&cells)),
        Section::Text(format!(
            "CWN better in {}/{} cells; significantly (>10%) better in {}; \
             ratio range {:.2} .. {:.2}\n",
            s.cwn_wins, s.cells, s.significant, s.min_ratio, s.max_ratio
        )),
    ]))
}

fn table3_hops(f: Fidelity, seed: u64) -> Result<Output, String> {
    let d = table3::run(f, seed);
    Ok(Output::report(vec![
        Section::Table(table3::render(&d)),
        Section::Text(format!(
            "goal-message hops: CWN {} vs GM {}\n",
            d.cwn.traffic.goal_hops, d.gm.traffic.goal_hops
        )),
    ]))
}

/// Plots 1–10 and their fib analogues: per square side, largest first, a
/// table and a chart for each of the topology `families`.
fn util_vs_goals(
    f: Fidelity,
    seed: u64,
    fib: bool,
    families: &[fn(usize) -> TopologySpec],
) -> Output {
    let workloads = plots::plot_workloads(f, fib);
    let mut sections = Vec::new();
    for &side in f.grid_sides().iter().rev() {
        for family in families {
            let p = plots::util_vs_goals(family(side), &workloads, seed);
            sections.push(Section::Table(plots::render_util_vs_goals(&p)));
            sections.push(Section::Text(cwn_gm_chart(
                format!("{} ({} PEs)", p.topology, p.topology.num_pes()),
                "no. of goals",
                &p.cwn.points,
                &p.gm.points,
            )));
        }
    }
    Output::figures(sections)
}

/// Plots 11–16: utilization over time for three fib sizes on one
/// 100-PE topology (a 25-PE one, two sizes, at `Quick`).
fn util_vs_time(f: Fidelity, seed: u64, family: fn(usize) -> TopologySpec) -> Output {
    let (topology, sizes, interval): (TopologySpec, &[i64], u64) = match f {
        Fidelity::Paper => (family(10), &[18, 15, 9], 100),
        Fidelity::Quick => (family(5), &[13, 9], 50),
    };
    let mut sections = Vec::new();
    for &n in sizes {
        let p = plots::util_vs_time(topology, WorkloadSpec::fib(n), interval, seed);
        sections.push(Section::Table(plots::render_util_vs_time(&p)));
        sections.push(Section::Text(cwn_gm_chart(
            format!("{} on {}", p.workload, p.topology),
            "time (units)",
            &p.cwn,
            &p.gm,
        )));
    }
    Output::figures(sections)
}

fn appendix_hypercube(f: Fidelity, seed: u64) -> Result<Output, String> {
    let goals = appendix::goals_plots(f, seed)
        .into_iter()
        .map(|p| plots::render_util_vs_goals(&p));
    let time = appendix::time_plots(f, seed)
        .into_iter()
        .map(|p| plots::render_util_vs_time(&p));
    Ok(Output::figures(
        goals.chain(time).map(Section::Table).collect(),
    ))
}

fn ablation_studies(f: Fidelity, seed: u64) -> Result<Output, String> {
    type Study = fn(Fidelity, u64) -> Vec<ablations::Point>;
    let studies: [(&str, Study); 14] = [
        ("CWN radius sweep", ablations::radius_sweep),
        ("CWN horizon sweep", ablations::horizon_sweep),
        ("GM interval sweep", ablations::gm_interval_sweep),
        ("Load metric: future commitments", ablations::load_metric),
        ("Load information freshness", ablations::load_info),
        ("Communication co-processor", ablations::coprocessor),
        ("Communication/computation ratio", ablations::comm_ratio),
        ("Grid wraparound", ablations::wraparound),
        ("Strategy shootout", ablations::shootout),
        (
            "Global-random vs CWN scalability (\u{a7}2.1)",
            ablations::global_scalability,
        ),
        (
            "Workload breadth (extension workloads)",
            ablations::workload_breadth,
        ),
        (
            "Queue discipline (FIFO/LIFO/deepest)",
            ablations::queue_discipline,
        ),
        ("Heterogeneous PE speeds", ablations::heterogeneity),
        (
            "Dimensionality at 64 PEs (k-ary n-cubes)",
            ablations::dimensionality,
        ),
    ];
    Ok(Output::figures(
        studies
            .into_iter()
            .map(|(title, study)| Section::Table(ablations::render(title, &study(f, seed))))
            .collect(),
    ))
}

fn resilience_sweep(f: Fidelity, seed: u64) -> Result<Output, String> {
    let cells = resilience::run(f, seed);
    let completed = cells.iter().filter(|c| c.completed).count();
    Ok(Output::report(vec![
        Section::Table(resilience::render(&cells)),
        Section::Text(format!(
            "{completed}/{} runs completed with the correct result\n",
            cells.len()
        )),
        Section::Json(resilience::to_json(&cells)),
    ]))
}

fn open_capacity(f: Fidelity, seed: u64) -> Result<Output, String> {
    let cells = capacity::run(f, seed);
    Ok(Output::report(vec![
        Section::Table(capacity::render(&cells, f)),
        Section::Json(capacity::to_json(&cells)),
    ]))
}

/// The degradation sweep, checked: goodput must fall monotonically with
/// fault intensity, every run must conserve arrivals, and some cell must
/// keep more than twice the unprotected goodput.
fn degradation_sweep(f: Fidelity, seed: u64) -> Result<Output, String> {
    let cells = degradation::run(f, seed);
    degradation::verify(&cells).map_err(|e| format!("degradation physics check failed:\n{e}"))?;
    if !cells
        .iter()
        .any(|c| c.protected.goodput > 2.0 * c.baseline.goodput && c.protected.goodput > 0.0)
    {
        return Err("no cell preserves >2x the unprotected goodput".to_string());
    }
    let best = cells
        .iter()
        .map(degradation::Cell::protection_ratio)
        .filter(|r| r.is_finite())
        .fold(0.0f64, f64::max);
    Ok(Output::report(vec![
        Section::Table(degradation::render(&cells, f)),
        Section::Text(format!(
            "best finite protection ratio {best:.1}x (inf where the unprotected baseline \
             preserved nothing); goodput degrades monotonically with fault intensity; every \
             run conserves arrivals\n"
        )),
        Section::Json(degradation::to_json(&cells)),
    ]))
}

/// Is the headline (CWN ≫ GM) mechanism or one lucky placement history?
/// Mean ± standard deviation of both speedups over consecutive seeds.
fn seed_robustness(f: Fidelity, seed: u64) -> Result<Output, String> {
    let (configs, n_seeds): (Vec<(TopologySpec, WorkloadSpec)>, u64) = match f {
        Fidelity::Paper => (
            vec![
                (TopologySpec::grid(10), WorkloadSpec::fib(15)),
                (TopologySpec::grid(20), WorkloadSpec::fib(18)),
                (TopologySpec::dlm(10), WorkloadSpec::dc(987)),
            ],
            10,
        ),
        Fidelity::Quick => (vec![(TopologySpec::grid(5), WorkloadSpec::fib(11))], 4),
    };
    let mut table = Table::new(
        format!("Speedup across {n_seeds} seeds (mean ± std)"),
        &["configuration", "CWN", "GM", "mean ratio"],
    );
    for (topology, workload) in configs {
        let (cwn, gm) = paper_strategies(&topology);
        let sweep = |strategy| {
            seed_sweep(
                SimulationBuilder::new()
                    .topology(topology)
                    .strategy(strategy)
                    .workload(workload)
                    .config(),
                seed,
                n_seeds,
            )
        };
        let (c, g) = (sweep(cwn), sweep(gm));
        table.row(vec![
            format!("{workload} on {topology}"),
            format!("{} ± {}", f2(c.mean()), f2(c.std_dev())),
            format!("{} ± {}", f2(g.mean()), f2(g.std_dev())),
            f2(c.mean() / g.mean()),
        ]);
    }
    Ok(Output::report(vec![Section::Table(table)]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stems_match_the_committed_results() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let mut committed: Vec<String> = std::fs::read_dir(dir)
            .expect("results/ exists")
            .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
            .filter_map(|n| n.strip_suffix(".txt").map(str::to_string))
            .collect();
        committed.sort();
        let mut stems: Vec<String> = REGISTRY.iter().map(|e| e.stem.to_string()).collect();
        stems.sort();
        assert_eq!(stems, committed);
    }

    #[test]
    fn names_and_stems_are_unique_and_findable() {
        for (i, e) in REGISTRY.iter().enumerate() {
            assert!(std::ptr::eq(find(e.name).unwrap(), e));
            assert!(REGISTRY[..i].iter().all(|o| o.stem != e.stem));
        }
        assert!(find("not-a-table").is_none());
    }

    #[test]
    fn text_separates_sections_with_blank_lines() {
        let mut t = Table::new("t", &["x"]);
        t.row(vec!["1".into()]);
        let mut out = Output::report(vec![
            Section::Table(t.clone()),
            Section::Text("headline\n".into()),
            Section::Json("{}".into()),
        ]);
        assert_eq!(out.text(), "t\nx\n-\n1\n\nheadline\n\n{}\n");
        assert_eq!(out.json().as_deref(), Some("{}\n"));
        assert_eq!(out.csv().as_deref(), Some("x\n1\n"));
        out.trailing_blank = true;
        assert!(out.text().ends_with("{}\n\n"));
        let prose = Output::report(vec![Section::Text("only prose\n".into())]);
        assert_eq!((prose.csv(), prose.json()), (None, None));
    }
}
