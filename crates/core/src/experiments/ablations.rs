//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Each ablation varies one knob on a fixed (topology, workload) pair and
//! reports speedup, utilization, completion time and goal traffic, so the
//! effect of the knob is directly visible. The paper motivates each:
//!
//! * radius/horizon — CWN's own parameters and the "horizon effect" (§2.1);
//! * GM interval — how often the gradient process runs (§3.1 notes 20 units
//!   is "fairly low", favouring GM);
//! * load metric — queue length vs queue + future commitments (§4's
//!   extended-tail diagnosis);
//! * load information — instant oracle vs piggy-backed/periodic words;
//! * co-processor — §3.1: "without such a co-processor, the gradient model
//!   will suffer more";
//! * communication/computation ratio — §5: "when the ratio is higher, CWN
//!   may lose some of its edge";
//! * grid wraparound — the text/diameter discrepancy (DESIGN.md);
//! * strategy shootout — all schemes, including the baselines and the
//!   extensions, on one configuration.

use oracle_model::config::LoadInfoMode;
use oracle_model::{CostModel, MachineConfig};
use oracle_strategies::StrategySpec;
use oracle_topo::TopologySpec;
use oracle_workloads::WorkloadSpec;

use super::Fidelity;
use crate::builder::{paper_strategies, RunConfig, SimulationBuilder};
use crate::runner::{run_batch, RunSpec};
use crate::table::{f1, f2, Table};

/// One ablation data point.
#[derive(Debug, Clone)]
pub struct Point {
    /// What was varied.
    pub label: String,
    /// Speedup (the paper's headline metric).
    pub speedup: f64,
    /// Average PE utilization (%), including any software-routing time.
    pub utilization: f64,
    /// Useful-work efficiency (%): user computation over `P * T`.
    pub efficiency: f64,
    /// Completion time (units).
    pub completion_time: u64,
    /// Goal-message hops (communication cost of placement).
    pub goal_hops: u64,
    /// High-water mark of any PE's work queue (memory proxy).
    pub peak_queue: usize,
}

/// Run a list of labelled configurations into ablation points.
fn run_points(configs: Vec<(String, RunConfig)>) -> Vec<Point> {
    let specs: Vec<RunSpec> = configs
        .iter()
        .map(|(label, config)| RunSpec::new(label.clone(), config.clone()))
        .collect();
    run_batch(&specs)
        .into_iter()
        .map(|(label, result)| {
            let r = result.unwrap_or_else(|e| panic!("{label}: {e}"));
            Point {
                label,
                speedup: r.speedup,
                // Report utilizations are fractions; Points carry percent.
                utilization: r.avg_utilization * 100.0,
                efficiency: r.efficiency * 100.0,
                completion_time: r.completion_time,
                goal_hops: r.traffic.goal_hops,
                peak_queue: r.peak_queue_len,
            }
        })
        .collect()
}

/// Render ablation points as a table.
pub fn render(title: &str, points: &[Point]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "variant",
            "speedup",
            "util %",
            "eff %",
            "time",
            "goal hops",
            "peak q",
        ],
    );
    for p in points {
        t.row(vec![
            p.label.clone(),
            f2(p.speedup),
            f1(p.utilization),
            f1(p.efficiency),
            p.completion_time.to_string(),
            p.goal_hops.to_string(),
            p.peak_queue.to_string(),
        ]);
    }
    t
}

/// The fixed scenario each ablation runs on.
fn scenario(fidelity: Fidelity) -> (TopologySpec, WorkloadSpec) {
    match fidelity {
        Fidelity::Paper => (TopologySpec::grid(10), WorkloadSpec::fib(15)),
        Fidelity::Quick => (TopologySpec::grid(5), WorkloadSpec::fib(11)),
    }
}

fn base(topology: TopologySpec, workload: WorkloadSpec, seed: u64) -> SimulationBuilder {
    SimulationBuilder::new()
        .topology(topology)
        .strategy(paper_strategies(&topology).0)
        .workload(workload)
        .machine(MachineConfig::default().with_seed(seed))
}

/// CWN radius sweep (fixed horizon).
pub fn radius_sweep(fidelity: Fidelity, seed: u64) -> Vec<Point> {
    let (topology, workload) = scenario(fidelity);
    let radii: &[u32] = match fidelity {
        Fidelity::Paper => &[1, 2, 3, 5, 7, 9, 12, 15],
        Fidelity::Quick => &[1, 3, 5],
    };
    run_points(
        radii
            .iter()
            .map(|&radius| {
                let horizon = 2.min(radius.saturating_sub(1));
                (
                    format!("radius={radius}"),
                    base(topology, workload, seed)
                        .strategy(StrategySpec::Cwn { radius, horizon })
                        .config(),
                )
            })
            .collect(),
    )
}

/// CWN horizon sweep (fixed radius): the "look over the horizon" cost.
pub fn horizon_sweep(fidelity: Fidelity, seed: u64) -> Vec<Point> {
    let (topology, workload) = scenario(fidelity);
    let (radius, horizons): (u32, &[u32]) = match fidelity {
        Fidelity::Paper => (9, &[0, 1, 2, 3, 4]),
        Fidelity::Quick => (5, &[0, 1, 2]),
    };
    run_points(
        horizons
            .iter()
            .map(|&horizon| {
                (
                    format!("horizon={horizon}"),
                    base(topology, workload, seed)
                        .strategy(StrategySpec::Cwn { radius, horizon })
                        .config(),
                )
            })
            .collect(),
    )
}

/// Gradient-process interval sweep.
pub fn gm_interval_sweep(fidelity: Fidelity, seed: u64) -> Vec<Point> {
    let (topology, workload) = scenario(fidelity);
    let intervals: &[u64] = match fidelity {
        Fidelity::Paper => &[5, 10, 20, 40, 80, 160],
        Fidelity::Quick => &[10, 20, 40],
    };
    run_points(
        intervals
            .iter()
            .map(|&interval| {
                (
                    format!("interval={interval}"),
                    base(topology, workload, seed)
                        .strategy(StrategySpec::Gradient {
                            low_water_mark: 1,
                            high_water_mark: 2,
                            interval,
                        })
                        .config(),
                )
            })
            .collect(),
    )
}

/// Load metric: plain queue length vs queue + future commitments (for CWN).
pub fn load_metric(fidelity: Fidelity, seed: u64) -> Vec<Point> {
    let (topology, workload) = scenario(fidelity);
    run_points(
        [0u32, 1, 2]
            .iter()
            .map(|&w| {
                let mut cfg = base(topology, workload, seed).config();
                cfg.machine.future_commitment_weight = w;
                (format!("future-weight={w}"), cfg)
            })
            .collect(),
    )
}

/// Load information: instant oracle vs piggy-back-only vs periodic words.
pub fn load_info(fidelity: Fidelity, seed: u64) -> Vec<Point> {
    let (topology, workload) = scenario(fidelity);
    let modes = [
        ("instant", LoadInfoMode::Instant),
        ("piggyback-only", LoadInfoMode::Piggyback { period: 0 }),
        ("piggyback+20", LoadInfoMode::Piggyback { period: 20 }),
        ("piggyback+80", LoadInfoMode::Piggyback { period: 80 }),
    ];
    run_points(
        modes
            .iter()
            .map(|&(name, mode)| {
                let mut cfg = base(topology, workload, seed).config();
                cfg.machine.load_info = mode;
                (name.to_string(), cfg)
            })
            .collect(),
    )
}

/// Communication co-processor on/off, for both schemes. The paper predicts
/// GM suffers more without one.
pub fn coprocessor(fidelity: Fidelity, seed: u64) -> Vec<Point> {
    let (topology, workload) = scenario(fidelity);
    let (cwn, gm) = paper_strategies(&topology);
    let mut configs = Vec::new();
    for (name, strategy) in [("cwn", cwn), ("gm", gm)] {
        for (suffix, on) in [("coproc", true), ("software", false)] {
            configs.push((
                format!("{name}/{suffix}"),
                base(topology, workload, seed)
                    .strategy(strategy)
                    .coprocessor(on)
                    .config(),
            ));
        }
    }
    run_points(configs)
}

/// Communication/computation ratio sweep, for both schemes.
pub fn comm_ratio(fidelity: Fidelity, seed: u64) -> Vec<Point> {
    let (topology, workload) = scenario(fidelity);
    let (cwn, gm) = paper_strategies(&topology);
    let scales: &[u64] = match fidelity {
        Fidelity::Paper => &[1, 2, 5, 10, 15],
        Fidelity::Quick => &[1, 5],
    };
    // Include Adaptive CWN: the paper's §5 remedies ("techniques mentioned
    // in the last paragraph will then be necessary") are aimed exactly at
    // the high-communication regime.
    let (radius, horizon) = match cwn {
        StrategySpec::Cwn { radius, horizon } => (radius, horizon),
        _ => unreachable!("paper strategy pair starts with CWN"),
    };
    let acwn = StrategySpec::AdaptiveCwn {
        radius,
        horizon,
        saturation: 3,
        redistribute: true,
    };
    let mut configs = Vec::new();
    for &scale in scales {
        for (name, strategy) in [("cwn", cwn), ("gm", gm), ("acwn", acwn)] {
            configs.push((
                format!("{name}/comm-x{scale}"),
                base(topology, workload, seed)
                    .strategy(strategy)
                    .costs(CostModel::paper_default().with_comm_scaled(scale, 1))
                    .config(),
            ));
        }
    }
    run_points(configs)
}

/// Grid with and without wraparound, both schemes.
pub fn wraparound(fidelity: Fidelity, seed: u64) -> Vec<Point> {
    let side = match fidelity {
        Fidelity::Paper => 10,
        Fidelity::Quick => 5,
    };
    let workload = scenario(fidelity).1;
    let mut configs = Vec::new();
    for (name, wrap) in [("grid", false), ("torus", true)] {
        let topology = TopologySpec::Mesh2D {
            width: side,
            height: side,
            wraparound: wrap,
        };
        let (cwn, gm) = paper_strategies(&topology);
        for (sname, strategy) in [("cwn", cwn), ("gm", gm)] {
            configs.push((
                format!("{sname}/{name}"),
                base(topology, workload, seed).strategy(strategy).config(),
            ));
        }
    }
    run_points(configs)
}

/// All strategies on one configuration: the floor (local), the oblivious
/// baselines, the paper's two, and the extensions.
pub fn shootout(fidelity: Fidelity, seed: u64) -> Vec<Point> {
    let (topology, workload) = scenario(fidelity);
    let (cwn, gm) = paper_strategies(&topology);
    let (radius, horizon) = match cwn {
        StrategySpec::Cwn { radius, horizon } => (radius, horizon),
        _ => unreachable!(),
    };
    let strategies = [
        ("local", StrategySpec::Local),
        ("round-robin", StrategySpec::RoundRobin),
        ("random-walk-2", StrategySpec::RandomWalk { hops: 2 }),
        ("cwn", cwn),
        ("gm", gm),
        (
            "acwn",
            StrategySpec::AdaptiveCwn {
                radius,
                horizon,
                saturation: 3,
                redistribute: true,
            },
        ),
        (
            "work-stealing",
            StrategySpec::WorkStealing { retry_delay: 40 },
        ),
        (
            "diffusion",
            StrategySpec::Diffusion {
                interval: 20,
                threshold: 2,
                max_per_cycle: 2,
            },
        ),
        ("global-random", StrategySpec::GlobalRandom),
        (
            "threshold-probe",
            StrategySpec::ThresholdProbe {
                threshold: 2,
                probe_limit: 3,
            },
        ),
    ];
    run_points(
        strategies
            .iter()
            .map(|&(name, strategy)| {
                (
                    name.to_string(),
                    base(topology, workload, seed).strategy(strategy).config(),
                )
            })
            .collect(),
    )
}

/// Global-random placement vs CWN as the machine grows: §2.1's scalability
/// argument made measurable. On small machines uniform placement balances
/// perfectly; as the grid grows, its mean route length (and the contention
/// it causes) grows with it, while CWN's neighbourhood traffic does not.
pub fn global_scalability(fidelity: Fidelity, seed: u64) -> Vec<Point> {
    let sides: &[usize] = match fidelity {
        Fidelity::Paper => &[4, 6, 8, 10, 13, 16],
        Fidelity::Quick => &[4, 6],
    };
    let workload = WorkloadSpec::fib(15);
    let mut configs = Vec::new();
    for &side in sides {
        let topology = TopologySpec::grid(side);
        let (cwn, _) = paper_strategies(&topology);
        for (name, strategy) in [("cwn", cwn), ("global", StrategySpec::GlobalRandom)] {
            configs.push((
                format!("{name}/grid-{}", side * side),
                SimulationBuilder::new()
                    .topology(topology)
                    .strategy(strategy)
                    .workload(workload)
                    .machine(MachineConfig::default().with_seed(seed))
                    .config(),
            ));
        }
    }
    run_points(configs)
}

/// External validity: does the headline (CWN over GM) survive beyond the
/// paper's two well-behaved workloads? Runs both schemes over the extension
/// workloads — strongly skewed trees, seeded random trees with
/// heterogeneous grains, cyclic-parallelism phases, and the Takeuchi
/// benchmark.
pub fn workload_breadth(fidelity: Fidelity, seed: u64) -> Vec<Point> {
    let (topology, workloads): (TopologySpec, Vec<WorkloadSpec>) = match fidelity {
        Fidelity::Paper => (
            TopologySpec::grid(10),
            vec![
                WorkloadSpec::fib(15),
                WorkloadSpec::Lopsided {
                    budget: 2000,
                    skew_pct: 85,
                },
                WorkloadSpec::RandomTree {
                    budget: 2000,
                    max_children: 4,
                    grain_spread: 3,
                    seed: 11,
                },
                WorkloadSpec::Cyclic {
                    phases: 4,
                    width: 16,
                    leaves: 64,
                },
                WorkloadSpec::Tak { x: 14, y: 7, z: 0 },
            ],
        ),
        Fidelity::Quick => (
            TopologySpec::grid(5),
            vec![
                WorkloadSpec::Lopsided {
                    budget: 300,
                    skew_pct: 85,
                },
                WorkloadSpec::Tak { x: 8, y: 4, z: 0 },
            ],
        ),
    };
    let (cwn, gm) = paper_strategies(&topology);
    let mut configs = Vec::new();
    for &workload in &workloads {
        for (name, strategy) in [("cwn", cwn), ("gm", gm)] {
            configs.push((
                format!("{name}/{workload}"),
                base(topology, workload, seed).strategy(strategy).config(),
            ));
        }
    }
    run_points(configs)
}

/// Queue discipline: the order a PE picks queued work. LIFO executes
/// depth-first and bounds each queue by roughly the tree depth, where FIFO
/// holds a whole breadth level — the memory/throughput trade-off that
/// every tree-parallel runtime since has had to pick a side on. Watch the
/// `peak q` column; note also that depth-first disciplines *hurt* GM — its
/// export primitive takes the newest queued goal, which under LIFO is
/// exactly the goal the PE would have executed next.
pub fn queue_discipline(fidelity: Fidelity, seed: u64) -> Vec<Point> {
    use oracle_model::config::QueueDiscipline as Q;
    let (topology, workload) = scenario(fidelity);
    let (cwn, gm) = paper_strategies(&topology);
    let mut configs = Vec::new();
    for (dname, d) in [
        ("fifo", Q::Fifo),
        ("lifo", Q::Lifo),
        ("deepest", Q::DeepestFirst),
    ] {
        for (name, strategy) in [("cwn", cwn), ("gm", gm)] {
            let mut cfg = base(topology, workload, seed).strategy(strategy).config();
            cfg.machine.queue_discipline = d;
            configs.push((format!("{name}/{dname}"), cfg));
        }
    }
    run_points(configs)
}

/// Heterogeneous hardware: as per-PE speed spread grows, how do the
/// schemes cope? Load-informed placement (CWN's gradient, GM's watermarks)
/// reads queue lengths, which on a mixed-speed machine no longer proxy
/// remaining work — an adversarial setting for both. Compare by
/// `time`: utilization (and hence "speedup") counts a slow PE's stretched
/// busy hours as if they were useful, so it flatters heterogeneous runs.
pub fn heterogeneity(fidelity: Fidelity, seed: u64) -> Vec<Point> {
    let (topology, workload) = scenario(fidelity);
    let (cwn, gm) = paper_strategies(&topology);
    let spreads: &[u64] = match fidelity {
        Fidelity::Paper => &[1, 2, 4, 8],
        Fidelity::Quick => &[1, 4],
    };
    let mut configs = Vec::new();
    for &spread in spreads {
        for (name, strategy) in [("cwn", cwn), ("gm", gm)] {
            let mut cfg = base(topology, workload, seed).strategy(strategy).config();
            cfg.machine.pe_speed_spread = spread;
            configs.push((format!("{name}/speed-spread-{spread}"), cfg));
        }
    }
    run_points(configs)
}

/// Dimensionality at a fixed PE count: 64 PEs as a ring (64-ary 1-cube),
/// an 8×8 torus, a 4-ary 3-cube, and a binary 6-cube. Diameter falls from
/// 32 to 6 while degree rises from 2 to 6 — where does CWN's neighbourhood
/// contracting benefit most?
pub fn dimensionality(fidelity: Fidelity, seed: u64) -> Vec<Point> {
    let cubes: &[(usize, u32)] = match fidelity {
        Fidelity::Paper => &[(64, 1), (8, 2), (4, 3), (2, 6)],
        Fidelity::Quick => &[(16, 1), (4, 2)],
    };
    let workload = match fidelity {
        Fidelity::Paper => WorkloadSpec::fib(15),
        Fidelity::Quick => WorkloadSpec::fib(11),
    };
    let mut configs = Vec::new();
    for &(k, n) in cubes {
        let topology = TopologySpec::KAryNCube { k, n };
        let (cwn, gm) = paper_strategies(&topology);
        for (name, strategy) in [("cwn", cwn), ("gm", gm)] {
            configs.push((
                format!("{name}/{k}-ary {n}-cube"),
                base(topology, workload, seed).strategy(strategy).config(),
            ));
        }
    }
    run_points(configs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radius_sweep_runs_and_orders() {
        let pts = radius_sweep(Fidelity::Quick, 1);
        assert_eq!(pts.len(), 3);
        // Larger radius means more hops travelled in total.
        assert!(pts[0].goal_hops <= pts[2].goal_hops);
    }

    #[test]
    fn shootout_includes_floor_and_all_schemes() {
        let pts = shootout(Fidelity::Quick, 1);
        assert_eq!(pts.len(), 10);
        let local = &pts[0];
        let cwn = pts.iter().find(|p| p.label == "cwn").unwrap();
        assert!(
            cwn.speedup > local.speedup * 2.0,
            "cwn {} should dominate local {}",
            cwn.speedup,
            local.speedup
        );
    }

    #[test]
    fn comm_ratio_erodes_cwn_edge() {
        let pts = comm_ratio(Fidelity::Quick, 1);
        let get = |label: &str| pts.iter().find(|p| p.label == label).unwrap().speedup;
        let edge_low = get("cwn/comm-x1") / get("gm/comm-x1");
        let edge_high = get("cwn/comm-x5") / get("gm/comm-x5");
        // §5: "When the ratio is higher, CWN may lose some of its edge."
        assert!(
            edge_high <= edge_low * 1.3,
            "edge did not erode: {edge_low} -> {edge_high}"
        );
    }

    #[test]
    fn workload_breadth_favours_cwn() {
        let pts = workload_breadth(Fidelity::Quick, 1);
        assert_eq!(pts.len(), 4);
        for pair in pts.chunks(2) {
            assert!(
                pair[0].speedup > pair[1].speedup * 0.9,
                "{}: CWN {} vs GM {}",
                pair[0].label,
                pair[0].speedup,
                pair[1].speedup
            );
        }
    }

    #[test]
    fn lifo_caps_the_queue_on_tree_workloads() {
        use oracle_model::config::QueueDiscipline as Q;
        let run = |d| {
            let mut cfg = SimulationBuilder::new()
                .topology(TopologySpec::Ring { n: 4 })
                .strategy(StrategySpec::Local)
                .workload(WorkloadSpec::dc(144))
                .config();
            cfg.machine.queue_discipline = d;
            cfg.run().unwrap()
        };
        let fifo = run(Q::Fifo);
        let lifo = run(Q::Lifo);
        assert_eq!(fifo.completion_time, lifo.completion_time, "same work");
        assert!(
            lifo.peak_queue_len * 5 < fifo.peak_queue_len,
            "LIFO should slash the peak queue ({} vs {})",
            lifo.peak_queue_len,
            fifo.peak_queue_len
        );
    }

    #[test]
    fn heterogeneity_slows_everyone_down() {
        let pts = heterogeneity(Fidelity::Quick, 1);
        assert_eq!(pts.len(), 4);
        let uniform_cwn = &pts[0];
        let spread_cwn = &pts[2];
        assert!(spread_cwn.completion_time > uniform_cwn.completion_time);
    }

    #[test]
    fn dimensionality_runs_both_extremes() {
        let pts = dimensionality(Fidelity::Quick, 1);
        assert_eq!(pts.len(), 4);
        assert!(pts.iter().all(|p| p.speedup > 0.0));
    }

    #[test]
    fn render_ablation_table() {
        let pts = load_metric(Fidelity::Quick, 1);
        let t = render("load metric", &pts);
        assert_eq!(t.len(), 3);
    }
}
