//! The benchmark's workloads and the unit it measures: one *result*.
//!
//! A result is one seed of a workload. It runs every simulation (cell) of
//! the workload at that seed, each in three phases:
//!
//! * set-up: `TopologySpec::build`, then the machine build that
//!   `RunConfig::machine` performs, on the topology just built;
//! * run: `Machine::begin`, `advance_until(None)`, `finish` (with an
//!   in-memory `checkpoint_bytes` at a fixed simulated-time cadence on the
//!   workloads that checkpoint);
//! * output check.
//!
//! Every cell runs with the program's defaults for the engine, event
//! queue, state representation and profiler; only the profiler is turned
//! on, and only in the traced pass.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use oracle::builder::{paper_strategies, RunConfig};
use oracle::checkpoint::checkpoint_bytes;
use oracle::model::{Machine, OpenOutcome};
use oracle::prelude::*;

use crate::spans::Tracer;

/// One workload: a name and the cells one result runs.
pub struct Workload {
    pub name: &'static str,
    /// Simulated-time cadence of in-memory checkpoints, if any.
    pub checkpoint_every: Option<u64>,
    cells: fn() -> Vec<SimulationBuilder>,
}

/// CWN with the paper's grid parameters (radius 9, horizon 1).
const CWN_9X1: StrategySpec = StrategySpec::Cwn {
    radius: 9,
    horizon: 1,
};

/// A closed `fib(n)` run on `topology` under CWN 9x1 with periodic load
/// broadcasts off (CWN reads piggy-backed loads only).
fn closed_cwn(topology: TopologySpec, n: i64) -> Vec<SimulationBuilder> {
    vec![SimulationBuilder::new()
        .topology(topology)
        .strategy(CWN_9X1)
        .workload(WorkloadSpec::fib(n))
        .load_broadcast_period(0)]
}

/// The paper's experiment at one seed: `fib(20)` under CWN and the
/// Gradient Model, each with its Table-1 parameters, on the 10x10 grid and
/// on the 10x10 double lattice mesh.
fn paper_100pe() -> Vec<SimulationBuilder> {
    let mut cells = Vec::new();
    for topology in [TopologySpec::grid(10), TopologySpec::dlm(10)] {
        let (cwn, gm) = paper_strategies(&topology);
        for strategy in [cwn, gm] {
            cells.push(
                SimulationBuilder::new()
                    .topology(topology)
                    .strategy(strategy)
                    .workload(WorkloadSpec::fib(20)),
            );
        }
    }
    cells
}

fn torus_1e5() -> Vec<SimulationBuilder> {
    let torus = TopologySpec::Mesh2D {
        width: 316,
        height: 316,
        wraparound: true,
    };
    closed_cwn(torus, 22)
}

fn rand_1e4() -> Vec<SimulationBuilder> {
    closed_cwn(
        TopologySpec::Random {
            nodes: 10_000,
            degree: 4,
        },
        20,
    )
}

/// Open Poisson traffic of `fib(11)` requests, 12 per 1000 time units at
/// every PE in turn, with a deadline, retries and edge admission control.
fn open_grid() -> Vec<SimulationBuilder> {
    let arrivals = "poisson:12".parse().expect("fixed arrival spec");
    let mut open = OpenTraffic::new(arrivals, oracle::runner::DEFAULT_OPEN_DURATION);
    open.deadline = Some(2000);
    open.retry = Some("2x200".parse().expect("fixed retry spec"));
    open.admission = Some("queue:64".parse().expect("fixed admission spec"));
    vec![SimulationBuilder::new()
        .topology(TopologySpec::grid(10))
        .strategy(CWN_9X1)
        .workload(WorkloadSpec::fib(11))
        .open(Some(open))]
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper-100pe",
        checkpoint_every: None,
        cells: paper_100pe,
    },
    Workload {
        name: "torus-1e5",
        checkpoint_every: None,
        cells: torus_1e5,
    },
    Workload {
        name: "rand-1e4",
        checkpoint_every: None,
        cells: rand_1e4,
    },
    Workload {
        name: "open-grid",
        checkpoint_every: Some(5000),
        cells: open_grid,
    },
];

pub fn names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|w| w.name)
}

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The cell configurations of one result at `seed`.
    pub fn configs(&self, seed: u64, profile: bool) -> Vec<RunConfig> {
        (self.cells)()
            .into_iter()
            .map(|b| b.seed(seed).profile(profile).config())
            .collect()
    }
}

/// One cell's outcome.
pub struct CellRun {
    pub report: Report,
    pub setup_s: f64,
    pub run_s: f64,
    /// The in-memory checkpoints taken during the run, in time order.
    pub checkpoints: Vec<Vec<u8>>,
}

/// One result's outcome: its cells, in workload order.
pub struct ResultRun {
    pub cells: Vec<CellRun>,
}

impl ResultRun {
    pub fn setup_s(&self) -> f64 {
        self.cells.iter().map(|c| c.setup_s).sum()
    }

    pub fn run_s(&self) -> f64 {
        self.cells.iter().map(|c| c.run_s).sum()
    }

    pub fn events(&self) -> u64 {
        self.cells.iter().map(|c| c.report.events).sum()
    }
}

/// Set up, run and check every cell of one result. An error is a failed
/// result: the simulation returned `SimError` or an output check failed.
pub fn run_result(
    w: &Workload,
    seed: u64,
    profile: bool,
    tr: &mut Tracer,
) -> Result<ResultRun, String> {
    let mut cells = Vec::new();
    for cfg in w.configs(seed, profile) {
        let cell = run_cell(&cfg, w.checkpoint_every, tr)
            .map_err(|e| format!("{} seed {seed}: {e}", w.name))?;
        tr.span("bench.check", || check(&cfg, &cell.report))
            .map_err(|e| format!("{} seed {seed}: {e}", w.name))?;
        cells.push(cell);
    }
    Ok(ResultRun { cells })
}

fn run_cell(
    cfg: &RunConfig,
    checkpoint_every: Option<u64>,
    tr: &mut Tracer,
) -> Result<CellRun, SimError> {
    let t0 = Instant::now();
    let topo = tr.span("topo.build", || cfg.topology.build());
    // The body of `RunConfig::machine`, on the topology built above.
    let mut machine = tr.span("model.build", || {
        let mut machine_cfg = cfg.machine.clone();
        cfg.strategy.apply_config(&mut machine_cfg);
        Machine::new(
            topo,
            cfg.workload.build(),
            cfg.strategy.build(),
            cfg.costs,
            machine_cfg,
        )
    })?;
    let t1 = Instant::now();
    let mut checkpoints = Vec::new();
    tr.begin("model.advance");
    machine.begin();
    let advanced = match checkpoint_every {
        None => machine.advance_until(None).map(|_| ()),
        Some(every) => {
            let mut pause_at = every;
            loop {
                match machine.advance_until(Some(pause_at)) {
                    Ok(false) => {}
                    other => break other.map(|_| ()),
                }
                tr.end();
                checkpoints
                    .push(tr.span("checkpoint.encode", || checkpoint_bytes(cfg, &mut machine)));
                tr.begin("model.advance");
                pause_at += every;
            }
        }
    };
    tr.end();
    advanced?;
    let (report, _) = tr.span("model.finish", || machine.finish())?;
    let t2 = Instant::now();
    Ok(CellRun {
        report,
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        checkpoints,
    })
}

/// The output check. Closed runs must compute the analytic result with the
/// analytic goal count (the checks `RunConfig::run_validated` makes); open
/// runs must complete and conserve arrivals. Every run must also pass
/// `Report::check_invariants`.
pub fn check(cfg: &RunConfig, report: &Report) -> Result<(), String> {
    match &report.open {
        None => {
            let program = cfg.workload.build();
            if let Some(expected) = program.expected_result() {
                if report.result != expected {
                    return Err(format!("result {} != expected {expected}", report.result));
                }
            }
            if let Some(goals) = program.expected_goals() {
                if report.goals_created != goals {
                    return Err(format!(
                        "created {} goals, expected {goals}",
                        report.goals_created
                    ));
                }
            }
        }
        Some(o) => {
            if o.outcome != OpenOutcome::Completed {
                return Err(format!("open run ended {:?}", o.outcome));
            }
            let accounted = o.completions
                + o.shed
                + o.abandoned_deadline
                + o.abandoned_retries
                + o.inflight_at_end;
            if o.arrivals != accounted {
                return Err(format!(
                    "arrival conservation: {} arrivals, {accounted} accounted for",
                    o.arrivals
                ));
            }
        }
    }
    catch_unwind(AssertUnwindSafe(|| report.check_invariants()))
        .map_err(|_| "report invariant violated".to_string())
}

/// A report with its wall-clock profile removed, as comparable text: two
/// runs of one configuration must produce identical fingerprints.
pub fn fingerprint(report: &Report) -> String {
    let mut r = report.clone();
    r.profile = None;
    format!("{r:?}")
}

/// The seed of result `i` of a pass seeded with `seed` (SplitMix64).
pub fn result_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
