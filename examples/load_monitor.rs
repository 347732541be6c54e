//! The paper's load monitor, in ASCII.
//!
//! ```sh
//! cargo run --release --example load_monitor [grid-side] [workload] [cwn|gm]
//! cargo run --release --example load_monitor 10 fib:15 gm
//! ```
//!
//! ORACLE "provides a specially formatted output that can be used to drive a
//! graphics program to monitor load distribution. Here the utilization of
//! each PE is output at every sampling interval. This data is displayed on
//! the graphics device with a continuum of colors representing relative
//! activity on each PE. (red: busy, blue: idle). We found this facility
//! particularly useful for debugging the load balancing strategies."
//!
//! This example renders the same data as frames of ASCII shading: one
//! character per PE (` .:-=+*#%@` from idle to busy), one frame per sampling
//! interval. Watch CWN flood the machine almost instantly and the Gradient
//! Model creep outward from the root corner.

use oracle::builder::paper_strategies;
use oracle::prelude::*;

const SHADES: &[u8] = b" .:-=+*#%@";

fn shade(util: f64) -> char {
    let idx = (util * (SHADES.len() - 1) as f64).round() as usize;
    SHADES[idx.min(SHADES.len() - 1)] as char
}

fn main() {
    let mut args = std::env::args().skip(1);
    let side: usize = args.next().map_or(10, |s| s.parse().expect("bad side"));
    let workload: WorkloadSpec = args
        .next()
        .unwrap_or_else(|| "fib:15".into())
        .parse()
        .expect("bad workload spec");
    let which = args.next().unwrap_or_else(|| "cwn".into());

    let topology = TopologySpec::grid(side);
    let (cwn, gm) = paper_strategies(&topology);
    let strategy = match which.as_str() {
        "cwn" => cwn,
        "gm" | "gradient" => gm,
        other => other.parse().expect("bad strategy spec"),
    };

    let report = SimulationBuilder::new()
        .topology(topology)
        .strategy(strategy)
        .workload(workload)
        .per_pe_series(true)
        .sampling_interval(100)
        .seed(3)
        .run()
        .expect("simulation failed");

    let series = report
        .per_pe_series
        .as_ref()
        .expect("per-PE series was requested");
    let frames = series.iter().map(Vec::len).max().unwrap_or(0);

    println!(
        "{} under {} — {} frames of {}x{} PEs (idle ' ' … busy '@')",
        workload, report.strategy, frames, side, side
    );
    // Render frames side by side, a few per row of output.
    let per_row = (100 / (side + 3)).max(1);
    for chunk_start in (0..frames).step_by(per_row) {
        let chunk: Vec<usize> = (chunk_start..(chunk_start + per_row).min(frames)).collect();
        println!();
        for &f in &chunk {
            print!(
                "t={:<6} {}",
                f as u64 * 100,
                " ".repeat(side.saturating_sub(8))
            );
            print!("   ");
        }
        println!();
        for y in 0..side {
            for &f in &chunk {
                for x in 0..side {
                    let pe = y * side + x;
                    let u = series[pe].get(f).copied().unwrap_or(0.0);
                    print!("{}", shade(u));
                }
                print!("   ");
            }
            println!();
        }
    }
    println!(
        "\ncompleted at t={} with {:.1}% average utilization (speedup {:.1})",
        report.completion_time,
        report.avg_utilization * 100.0,
        report.speedup
    );
}
