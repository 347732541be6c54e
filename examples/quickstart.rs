//! Quickstart: run one simulation and read the report.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Simulates the paper's headline configuration — naive Fibonacci on a
//! 10×10 grid — under both competitors and prints the numbers the paper
//! compares: average PE utilization, speedup, time to completion, and how
//! far goals travelled.

use oracle::builder::paper_strategies;
use oracle::prelude::*;

fn main() {
    let topology = TopologySpec::grid(10);
    let workload = WorkloadSpec::fib(15);
    let (cwn, gm) = paper_strategies(&topology);

    println!(
        "workload {workload} on {topology} ({} PEs)\n",
        topology.num_pes()
    );

    for strategy in [cwn, gm] {
        let report = SimulationBuilder::new()
            .topology(topology)
            .strategy(strategy)
            .workload(workload)
            .seed(2024)
            .run()
            .expect("simulation failed");

        println!("strategy {} ({strategy})", report.strategy);
        println!(
            "  result            {}  (the machine really computed it)",
            report.result
        );
        println!("  goals executed    {}", report.goals_executed);
        println!("  completion time   {} units", report.completion_time);
        println!(
            "  avg utilization   {:.1} %",
            report.avg_utilization * 100.0
        );
        println!(
            "  speedup           {:.1} on {} PEs",
            report.speedup, report.num_pes
        );
        println!("  avg goal distance {:.2} hops", report.avg_goal_distance);
        println!(
            "  traffic           {} goal hops, {} response hops, {} control msgs",
            report.traffic.goal_hops, report.traffic.response_hops, report.traffic.control_msgs
        );
        println!();
    }
}
