//! Resilience — CWN vs GM under injected faults.
//!
//! The paper assumes a fault-free machine; this experiment asks how the two
//! strategies degrade when the machine misbehaves. For each (topology,
//! strategy) pair we first run a fault-free baseline, then re-run under a
//! grid of scenarios (crash count × message-loss rate) with the recovery
//! layer enabled. Crash times are placed at even fractions of the baseline
//! makespan so every scenario actually interrupts live work, and the
//! recovery ack-timeout is scaled from the baseline so retries neither spin
//! nor sleep through the run.
//!
//! Reported per cell: completion, makespan degradation (faulty / baseline),
//! and the fault counters (goals lost, re-spawned, messages dropped,
//! retries exhausted).

use oracle_model::{FaultMetrics, FaultPlan, MachineConfig, RecoveryParams};
use oracle_strategies::StrategySpec;
use oracle_topo::TopologySpec;
use oracle_workloads::WorkloadSpec;

use super::{paper_topologies, Fidelity};
use crate::builder::{paper_strategies, SimulationBuilder};
use crate::json::{self, Obj};
use crate::runner::{run_batch, RunSpec};
use crate::table::{f2, Table};

/// One fault scenario of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// Number of PEs crashed during the run.
    pub crashes: u32,
    /// Per-transfer message-loss probability, in percent.
    pub loss_pct: u32,
}

impl Scenario {
    /// `c2l1`-style label used in tables and JSON.
    pub fn label(&self) -> String {
        format!("c{}l{}", self.crashes, self.loss_pct)
    }
}

/// One cell: a (topology, strategy, scenario) run compared to its
/// fault-free baseline.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Topology of the run.
    pub topology: TopologySpec,
    /// Strategy of the run.
    pub strategy: StrategySpec,
    /// The injected scenario.
    pub scenario: Scenario,
    /// Whether the run completed with the correct result.
    pub completed: bool,
    /// Fault-free makespan of the same configuration.
    pub baseline_makespan: u64,
    /// Makespan under the scenario (0 when the run failed).
    pub makespan: u64,
    /// Fault counters of the faulty run.
    pub faults: FaultMetrics,
    /// Error text when the run failed, for diagnostics.
    pub error: Option<String>,
}

impl Cell {
    /// Makespan degradation: faulty / baseline (1.0 = unharmed).
    pub fn degradation(&self) -> f64 {
        if self.completed && self.baseline_makespan > 0 {
            self.makespan as f64 / self.baseline_makespan as f64
        } else {
            f64::NAN
        }
    }
}

/// The scenario grid for a fidelity level.
pub fn scenarios(fidelity: Fidelity) -> Vec<Scenario> {
    let (crash_counts, loss_rates): (&[u32], &[u32]) = match fidelity {
        Fidelity::Paper => (&[0, 1, 2, 4], &[0, 1, 2]),
        Fidelity::Quick => (&[0, 1, 2], &[0, 1]),
    };
    let mut out = Vec::new();
    for &crashes in crash_counts {
        for &loss_pct in loss_rates {
            out.push(Scenario { crashes, loss_pct });
        }
    }
    out
}

fn workload(fidelity: Fidelity) -> WorkloadSpec {
    match fidelity {
        Fidelity::Paper => WorkloadSpec::fib(15),
        Fidelity::Quick => WorkloadSpec::fib(12),
    }
}

fn side(fidelity: Fidelity) -> usize {
    match fidelity {
        Fidelity::Paper => 10,
        Fidelity::Quick => 6,
    }
}

/// Build the fault plan for a scenario against a measured baseline.
///
/// Crashed PEs are spread over the interior of the machine (never the root,
/// which defaults to PE 0) and crash times sit at even fractions of the
/// baseline makespan, so a "2-crash" scenario loses work twice while the
/// computation is demonstrably still alive.
pub fn plan_for(scenario: Scenario, num_pes: usize, baseline_makespan: u64) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for i in 0..scenario.crashes {
        // Stride through the PEs starting away from the root corner.
        let pe = (1 + (i as usize * (num_pes / 3 + 1))) % num_pes;
        let pe = if pe == 0 { 1 } else { pe };
        let at = baseline_makespan * (i as u64 + 1) / (scenario.crashes as u64 + 1);
        plan = plan.crash(pe as u32, at.max(1));
    }
    if scenario.loss_pct > 0 {
        plan = plan.with_loss(scenario.loss_pct as f64 / 100.0);
    }
    if !plan.is_empty() {
        // Ack timeout ~ a quarter of the healthy run: long enough that slow
        // but live subtrees are not respawned in storms, short enough that
        // several retries fit before the event-limit watchdog.
        plan = plan.with_recovery(RecoveryParams {
            ack_timeout: (baseline_makespan / 4).max(200),
            max_retries: 8,
        });
    }
    plan
}

/// Run the resilience grid and return one cell per
/// (topology, strategy, scenario).
pub fn run(fidelity: Fidelity, seed: u64) -> Vec<Cell> {
    let workload = workload(fidelity);
    let mut pairs = Vec::new();
    for topology in paper_topologies(side(fidelity)) {
        let (cwn, gm) = paper_strategies(&topology);
        pairs.push((topology, cwn));
        pairs.push((topology, gm));
    }

    // Phase 1: fault-free baselines, one per (topology, strategy).
    let baseline_specs: Vec<RunSpec> = pairs
        .iter()
        .map(|&(topology, strategy)| {
            RunSpec::new(
                format!("baseline/{topology}/{strategy}"),
                SimulationBuilder::new()
                    .topology(topology)
                    .strategy(strategy)
                    .workload(workload)
                    .machine(MachineConfig::default().with_seed(seed))
                    .config(),
            )
        })
        .collect();
    let baselines: Vec<u64> = run_batch(&baseline_specs)
        .into_iter()
        .map(|(label, r)| r.unwrap_or_else(|e| panic!("{label}: {e}")).completion_time)
        .collect();

    // Phase 2: the scenario grid, crash times derived from each baseline.
    let scenarios = scenarios(fidelity);
    let mut cells = Vec::new();
    let mut specs = Vec::new();
    for (&(topology, strategy), &baseline) in pairs.iter().zip(&baselines) {
        for &scenario in &scenarios {
            let plan = plan_for(scenario, topology.num_pes(), baseline);
            specs.push(RunSpec::new(
                format!("{}/{topology}/{strategy}", scenario.label()),
                SimulationBuilder::new()
                    .topology(topology)
                    .strategy(strategy)
                    .workload(workload)
                    .machine(MachineConfig::default().with_seed(seed))
                    .fault_plan(plan)
                    .config(),
            ));
            cells.push((topology, strategy, scenario, baseline));
        }
    }

    run_batch(&specs)
        .into_iter()
        .zip(cells)
        .map(
            |((_, result), (topology, strategy, scenario, baseline_makespan))| match result {
                Ok(r) => Cell {
                    topology,
                    strategy,
                    scenario,
                    completed: true,
                    baseline_makespan,
                    makespan: r.completion_time,
                    faults: r.faults,
                    error: None,
                },
                Err(e) => Cell {
                    topology,
                    strategy,
                    scenario,
                    completed: false,
                    baseline_makespan,
                    makespan: 0,
                    faults: FaultMetrics::default(),
                    error: Some(e.to_string()),
                },
            },
        )
        .collect()
}

/// Render the grid: one row per (topology, strategy), one degradation
/// column per scenario.
pub fn render(cells: &[Cell]) -> Table {
    let mut scenario_order: Vec<Scenario> = Vec::new();
    for c in cells {
        if !scenario_order.contains(&c.scenario) {
            scenario_order.push(c.scenario);
        }
    }
    let mut header: Vec<String> = vec!["configuration".into()];
    header.extend(scenario_order.iter().map(Scenario::label));
    let mut table = Table::new(
        "Makespan degradation under faults (crashes x loss%; recovery on)",
        &header,
    );

    let mut rows: Vec<(TopologySpec, StrategySpec)> = Vec::new();
    for c in cells {
        if !rows.contains(&(c.topology, c.strategy)) {
            rows.push((c.topology, c.strategy));
        }
    }
    for (topology, strategy) in rows {
        let mut row = vec![format!("{topology}/{strategy}")];
        for &s in &scenario_order {
            let cell = cells
                .iter()
                .find(|c| c.topology == topology && c.strategy == strategy && c.scenario == s);
            row.push(cell.map_or_else(
                || "-".into(),
                |c| {
                    if c.completed {
                        f2(c.degradation())
                    } else {
                        "FAIL".into()
                    }
                },
            ));
        }
        table.row(row);
    }
    table
}

/// Machine-readable dump of every cell, one JSON object per (row,
/// scenario) cell of the table; a run that did not complete has a `null`
/// degradation.
pub fn to_json(cells: &[Cell]) -> String {
    json::array(cells.iter().map(|c| {
        Obj::new()
            .str("topology", &c.topology.to_string())
            .str("strategy", &c.strategy.to_string())
            .uint("crashes", c.scenario.crashes)
            .uint("loss_pct", c.scenario.loss_pct)
            .bool("completed", c.completed)
            .uint("baseline_makespan", c.baseline_makespan)
            .uint("makespan", c.makespan)
            .float("makespan_degradation", c.degradation(), 4)
            .uint("goals_lost", c.faults.goals_lost)
            .uint("goals_respawned", c.faults.goals_respawned)
            .uint("messages_dropped", c.faults.messages_dropped)
            .uint("duplicate_responses", c.faults.duplicate_responses)
            .uint("retries_exhausted", c.faults.retries_exhausted)
            .uint("pes_crashed", c.faults.pes_crashed)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_completes_under_faults() {
        let cells = run(Fidelity::Quick, 1);
        // 2 topologies x 2 strategies x 6 scenarios.
        assert_eq!(cells.len(), 24);
        for c in &cells {
            assert!(
                c.completed,
                "{}/{}/{}: {}",
                c.topology,
                c.strategy,
                c.scenario.label(),
                c.error.as_deref().unwrap_or("?")
            );
        }
        // The fault-free scenario is the baseline re-run: unharmed.
        for c in cells.iter().filter(|c| {
            c.scenario
                == Scenario {
                    crashes: 0,
                    loss_pct: 0,
                }
        }) {
            assert_eq!(
                c.makespan, c.baseline_makespan,
                "{}/{}",
                c.topology, c.strategy
            );
        }
        // Crashing PEs really happened and really lost work somewhere.
        let crashed: Vec<&Cell> = cells.iter().filter(|c| c.scenario.crashes > 0).collect();
        assert!(crashed
            .iter()
            .all(|c| c.faults.pes_crashed == c.scenario.crashes));
        assert!(
            crashed
                .iter()
                .any(|c| c.faults.goals_lost > 0 && c.faults.goals_respawned > 0),
            "no crash scenario lost + recovered work"
        );
        // Message loss really dropped transfers somewhere.
        assert!(
            cells
                .iter()
                .filter(|c| c.scenario.loss_pct > 0)
                .any(|c| c.faults.messages_dropped > 0),
            "1% loss never dropped a message"
        );
    }

    #[test]
    fn degradation_is_measured_against_the_baseline() {
        let cells = run(Fidelity::Quick, 3);
        let hurt = cells
            .iter()
            .filter(|c| c.completed && c.scenario.crashes > 0)
            .map(Cell::degradation);
        for d in hurt {
            assert!(d.is_finite() && d > 0.0);
        }
    }

    #[test]
    fn render_and_json_cover_every_cell() {
        let cells = run(Fidelity::Quick, 1);
        let table = render(&cells);
        assert_eq!(table.len(), 4, "one row per (topology, strategy)");
        let json = crate::json::parse_json(&to_json(&cells)).expect("appendix parses");
        let objects = json.as_array().expect("a top-level array");
        // One object per table cell: every row times every scenario column.
        assert_eq!(objects.len(), cells.len());
        assert_eq!(cells.len() % table.len(), 0);
        for (object, c) in objects.iter().zip(&cells) {
            assert_eq!(object.num("goals_lost"), Ok(c.faults.goals_lost as f64));
            assert!(object.get("makespan_degradation").is_some());
        }
    }

    #[test]
    fn plans_scale_with_the_scenario() {
        let p = plan_for(
            Scenario {
                crashes: 2,
                loss_pct: 1,
            },
            36,
            1000,
        );
        assert_eq!(p.pe_crashes.len(), 2);
        assert!(
            p.pe_crashes.iter().all(|c| c.pe != 0),
            "never crash the root"
        );
        assert!((p.message_loss - 0.01).abs() < 1e-12);
        assert!(p.recovery.is_some());
        let empty = plan_for(
            Scenario {
                crashes: 0,
                loss_pct: 0,
            },
            36,
            1000,
        );
        assert!(empty.is_empty());
    }
}
