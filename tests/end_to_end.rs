//! End-to-end integration: every strategy × every topology family × several
//! workloads must complete, compute the right answer, and satisfy the
//! report invariants.

use oracle::prelude::*;

fn all_strategies() -> Vec<StrategySpec> {
    vec![
        StrategySpec::Local,
        StrategySpec::RoundRobin,
        StrategySpec::RandomWalk { hops: 2 },
        StrategySpec::Cwn {
            radius: 5,
            horizon: 1,
        },
        StrategySpec::Gradient {
            low_water_mark: 1,
            high_water_mark: 2,
            interval: 20,
        },
        StrategySpec::AdaptiveCwn {
            radius: 5,
            horizon: 1,
            saturation: 3,
            redistribute: true,
        },
        StrategySpec::WorkStealing { retry_delay: 30 },
        StrategySpec::Diffusion {
            interval: 20,
            threshold: 2,
            max_per_cycle: 2,
        },
        StrategySpec::GlobalRandom,
        StrategySpec::ThresholdProbe {
            threshold: 2,
            probe_limit: 3,
        },
    ]
}

fn topologies() -> Vec<TopologySpec> {
    vec![
        TopologySpec::grid(4),
        TopologySpec::Mesh2D {
            width: 4,
            height: 4,
            wraparound: true,
        },
        TopologySpec::dlm(5),
        TopologySpec::Hypercube { dim: 4 },
        TopologySpec::Ring { n: 8 },
        TopologySpec::Complete { n: 6 },
        TopologySpec::Star { n: 9 },
        TopologySpec::SingleBus { n: 6 },
    ]
}

#[test]
fn every_strategy_on_every_topology_computes_fib() {
    let mut specs = Vec::new();
    for topology in topologies() {
        for strategy in all_strategies() {
            specs.push(RunSpec::new(
                format!("{topology}/{strategy}"),
                SimulationBuilder::new()
                    .topology(topology)
                    .strategy(strategy)
                    .workload(WorkloadSpec::fib(12))
                    .seed(5)
                    .config(),
            ));
        }
    }
    for (label, result) in run_batch(&specs) {
        let r = result.unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(r.result, 144, "{label} computed the wrong fib(12)");
        r.check_invariants();
        assert!(r.speedup > 0.0, "{label} zero speedup");
    }
}

#[test]
fn every_workload_family_runs_under_both_competitors() {
    let workloads = vec![
        WorkloadSpec::fib(12),
        WorkloadSpec::dc(144),
        WorkloadSpec::DivideConquer { m: 5, n: 68 },
        WorkloadSpec::Lopsided {
            budget: 300,
            skew_pct: 85,
        },
        WorkloadSpec::RandomTree {
            budget: 300,
            max_children: 4,
            grain_spread: 3,
            seed: 9,
        },
        WorkloadSpec::Cyclic {
            phases: 3,
            width: 6,
            leaves: 10,
        },
        WorkloadSpec::Tak { x: 8, y: 4, z: 0 },
    ];
    let strategies = [
        StrategySpec::Cwn {
            radius: 5,
            horizon: 1,
        },
        StrategySpec::Gradient {
            low_water_mark: 1,
            high_water_mark: 2,
            interval: 20,
        },
    ];
    let mut specs = Vec::new();
    for &workload in &workloads {
        for strategy in strategies {
            specs.push(RunSpec::new(
                format!("{workload}/{strategy}"),
                SimulationBuilder::new()
                    .topology(TopologySpec::grid(5))
                    .strategy(strategy)
                    .workload(workload)
                    .seed(1)
                    .config(),
            ));
        }
    }
    // Every run checks its result and goal count against the analytic
    // expectations (Machine::finish).
    for (label, result) in run_batch(&specs) {
        let r = result.unwrap_or_else(|e| panic!("{label}: {e}"));
        r.check_invariants();
    }
}

#[test]
fn cyclic_workload_drains_and_refills_the_machine() {
    let r = SimulationBuilder::new()
        .topology(TopologySpec::grid(4))
        .strategy(StrategySpec::Cwn {
            radius: 4,
            horizon: 1,
        })
        .workload(WorkloadSpec::Cyclic {
            phases: 4,
            width: 8,
            leaves: 16,
        })
        .sampling_interval(50)
        .seed(2)
        .run()
        .unwrap();
    // Utilization must rise and fall repeatedly: count the falling edges
    // below 30% after having been above 60%.
    let mut cycles = 0;
    let mut high = false;
    for &(_, u) in &r.util_series {
        if u > 0.6 {
            high = true;
        } else if high && u < 0.3 {
            cycles += 1;
            high = false;
        }
    }
    assert!(
        cycles >= 2,
        "expected repeated rise-and-fall, saw {cycles} cycles in {:?}",
        r.util_series
    );
}

#[test]
fn heterogeneous_grains_change_total_work() {
    let uniform = SimulationBuilder::new()
        .topology(TopologySpec::grid(4))
        .workload(WorkloadSpec::RandomTree {
            budget: 200,
            max_children: 3,
            grain_spread: 1,
            seed: 4,
        })
        .strategy(StrategySpec::Cwn {
            radius: 4,
            horizon: 1,
        })
        .run()
        .unwrap();
    let spread = SimulationBuilder::new()
        .topology(TopologySpec::grid(4))
        .workload(WorkloadSpec::RandomTree {
            budget: 200,
            max_children: 3,
            grain_spread: 4,
            seed: 4,
        })
        .strategy(StrategySpec::Cwn {
            radius: 4,
            horizon: 1,
        })
        .run()
        .unwrap();
    assert!(
        spread.seq_work > uniform.seq_work,
        "grain spread should add work: {} vs {}",
        spread.seq_work,
        uniform.seq_work
    );
}

#[test]
fn bigger_machines_do_not_slow_down_a_fixed_workload() {
    // Speedup should not collapse when PEs are added (weak sanity check on
    // scalability of the machine model itself).
    let time_on = |side: usize| {
        SimulationBuilder::new()
            .topology(TopologySpec::grid(side))
            .strategy(StrategySpec::Cwn {
                radius: 6,
                horizon: 1,
            })
            .workload(WorkloadSpec::fib(15))
            .seed(3)
            .run()
            .unwrap()
            .completion_time
    };
    let small = time_on(4);
    let large = time_on(8);
    assert!(
        large < small,
        "4x the PEs should cut completion time: {small} -> {large}"
    );
}

#[test]
fn no_coprocessor_slows_gm_more_than_cwn() {
    // §3.1: "Without such a co-processor, the gradient model will suffer
    // more, because it needs to execute a more complex code and more
    // frequently."
    let run = |strategy: StrategySpec, coproc: bool| {
        SimulationBuilder::new()
            .topology(TopologySpec::grid(5))
            .strategy(strategy)
            .workload(WorkloadSpec::fib(13))
            .coprocessor(coproc)
            .seed(6)
            .run()
            .unwrap()
            .completion_time as f64
    };
    let cwn = StrategySpec::Cwn {
        radius: 5,
        horizon: 1,
    };
    let gm = StrategySpec::Gradient {
        low_water_mark: 1,
        high_water_mark: 2,
        interval: 20,
    };
    let cwn_penalty = run(cwn, false) / run(cwn, true);
    let gm_penalty = run(gm, false) / run(gm, true);
    assert!(
        gm_penalty > 1.0,
        "software routing should cost GM something (penalty {gm_penalty})"
    );
    assert!(
        cwn_penalty > 0.9,
        "software routing should not speed CWN up (penalty {cwn_penalty})"
    );
}

/// Goals that travel beyond the hop histogram's bucket range (64 buckets on
/// small topologies) must not vanish from the report: they land in
/// `hop_overflow`, the histogram + overflow still account for every
/// executed goal, and the mean distance keeps their true magnitudes. A
/// 70-hop random walk on a 4-PE ring overflows every spawned goal.
#[test]
fn hop_histogram_overflow_is_counted_not_lost() {
    let report = SimulationBuilder::new()
        .topology(TopologySpec::Ring { n: 4 })
        .strategy(StrategySpec::RandomWalk { hops: 70 })
        .workload(WorkloadSpec::fib(10))
        .seed(5)
        .run()
        .unwrap();
    report.check_invariants();
    assert!(
        report.hop_overflow > 0,
        "70-hop walks must overflow the 64-bucket histogram"
    );
    assert_eq!(
        report.hop_histogram.iter().sum::<u64>() + report.hop_overflow,
        report.goals_executed,
        "histogram + overflow must cover every executed goal"
    );
    // Only the directly-injected root stays in-range, so the mean distance
    // must sit near the walk length — not near the bucket cap.
    assert!(
        report.avg_goal_distance > 65.0,
        "mean distance {} lost the overflowed magnitudes",
        report.avg_goal_distance
    );
}
