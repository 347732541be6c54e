//! Reproducibility: every run is a pure function of (configuration, seed).

use oracle::prelude::*;
use oracle::runner::run_batch_with_threads;

fn strategies() -> Vec<StrategySpec> {
    vec![
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
        StrategySpec::RandomWalk { hops: 2 },
    ]
}

fn run(strategy: StrategySpec, seed: u64) -> Report {
    SimulationBuilder::new()
        .topology(TopologySpec::grid(5))
        .strategy(strategy)
        .workload(WorkloadSpec::fib(13))
        // Per-PE vectors are opt-in now; keep them in the comparison so
        // the per-PE equality below stays a real check, not empty==empty.
        .per_pe_metrics(true)
        .seed(seed)
        .run()
        .unwrap()
}

#[test]
fn same_seed_reproduces_every_strategy_exactly() {
    for strategy in strategies() {
        let a = run(strategy, 42);
        let b = run(strategy, 42);
        assert_eq!(a.completion_time, b.completion_time, "{strategy}");
        assert_eq!(a.events, b.events, "{strategy}");
        assert_eq!(a.hop_histogram, b.hop_histogram, "{strategy}");
        assert_eq!(a.traffic, b.traffic, "{strategy}");
        assert_eq!(a.per_pe_utilization, b.per_pe_utilization, "{strategy}");
        assert_eq!(a.util_series, b.util_series, "{strategy}");
    }
}

#[test]
fn different_seeds_differ_for_randomized_strategies() {
    // Placement randomness (tie-breaking, victim selection) must actually
    // depend on the seed.
    for strategy in [
        StrategySpec::Cwn {
            radius: 5,
            horizon: 1,
        },
        StrategySpec::RandomWalk { hops: 2 },
        StrategySpec::WorkStealing { retry_delay: 30 },
    ] {
        let a = run(strategy, 1);
        let b = run(strategy, 2);
        assert!(
            a.completion_time != b.completion_time || a.traffic != b.traffic,
            "{strategy}: seeds 1 and 2 produced identical runs"
        );
        // But the computed answer never changes.
        assert_eq!(a.result, b.result);
        assert_eq!(a.goals_created, b.goals_created);
    }
}

#[test]
fn parallel_batch_equals_sequential_batch() {
    let specs: Vec<RunSpec> = strategies()
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            RunSpec::new(
                format!("{s}"),
                SimulationBuilder::new()
                    .topology(TopologySpec::grid(4))
                    .strategy(s)
                    .workload(WorkloadSpec::fib(12))
                    .seed(i as u64)
                    .config(),
            )
        })
        .collect();
    let par = run_batch_with_threads(&specs, 8);
    let seq = run_batch_with_threads(&specs, 1);
    for ((la, a), (lb, b)) in par.iter().zip(&seq) {
        assert_eq!(la, lb);
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(a.completion_time, b.completion_time, "{la}");
        assert_eq!(a.events, b.events, "{la}");
        assert_eq!(a.traffic, b.traffic, "{la}");
    }
}

#[test]
fn fault_plans_are_deterministic_across_thread_counts() {
    // Same seed + same plan must reproduce byte-for-byte, whether the
    // batch runs on one thread or many: the full report (fault metrics,
    // respawn counts, recovery latencies included) is part of the contract.
    use oracle::model::FaultPlan;
    let plans: Vec<FaultPlan> = vec![
        "crash:5@300+loss:1%+recover:800x4".parse().unwrap(),
        "link:3@100..400+recover:1000x3".parse().unwrap(),
        "slow:2@50..500x4+loss:2%+recover:600x5".parse().unwrap(),
        "crash:0@250+crash:7@600+recover:900x6".parse().unwrap(),
    ];
    let specs: Vec<RunSpec> = plans
        .into_iter()
        .enumerate()
        .flat_map(|(i, plan)| {
            strategies().into_iter().map(move |s| {
                RunSpec::new(
                    format!("{s} under faults #{i}"),
                    SimulationBuilder::new()
                        .topology(TopologySpec::grid(4))
                        .strategy(s)
                        .workload(WorkloadSpec::fib(11))
                        .seed(7 + i as u64)
                        .fault_plan(plan.clone())
                        .config(),
                )
            })
        })
        .collect();
    let par = run_batch_with_threads(&specs, 8);
    let seq = run_batch_with_threads(&specs, 1);
    for ((la, a), (lb, b)) in par.iter().zip(&seq) {
        assert_eq!(la, lb);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "{la}");
            }
            (Err(a), Err(b)) => {
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "{la}");
            }
            _ => panic!("{la}: one thread count completed, the other failed"),
        }
    }
}

#[test]
fn empty_fault_plan_is_bit_identical_to_no_plan() {
    // The fault subsystem must be invisible until a plan asks for it: no
    // extra events, no extra RNG draws, identical reports.
    for strategy in strategies() {
        let plain = run(strategy, 42);
        let with_empty = SimulationBuilder::new()
            .topology(TopologySpec::grid(5))
            .strategy(strategy)
            .workload(WorkloadSpec::fib(13))
            .per_pe_metrics(true) // match `run` for the Debug comparison
            .seed(42)
            .fault_plan(oracle::model::FaultPlan::none())
            .run()
            .unwrap();
        assert_eq!(
            format!("{plain:?}"),
            format!("{with_empty:?}"),
            "{strategy}: an empty plan changed the run"
        );
    }
}
