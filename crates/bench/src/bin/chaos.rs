//! Chaos-fuzzing sweep: seeded random fault plans thrown at random
//! workload × topology × strategy combinations, auditor on, every case
//! under a panic catcher and a wall-clock watchdog. Failing cases are
//! shrunk to minimal reproducers and written as ready-to-run suite files.
//!
//! ```sh
//! cargo run --release -p oracle-bench --bin chaos -- \
//!     [--cases N] [--seed N] [--threads N] [--stall-secs S] [--out DIR]
//! ```
//!
//! Exits 0 when every case completes or is contained by its fault plan,
//! 2 when any case panics, violates an invariant, loses goals without a
//! plan to blame, or hangs. Outcomes are a pure function of
//! `(--cases, --seed)` — `--threads` changes wall clock only.

use std::time::Duration;

use oracle::chaos::{run_chaos, ChaosConfig};

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: chaos [--cases N] [--seed N] [--threads N] [--stall-secs S] [--out DIR]");
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

fn main() {
    let mut config = ChaosConfig::default();
    let mut out_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |flag: &str| -> u64 {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
                .parse()
                .unwrap_or_else(|_| usage(&format!("bad {flag} value")))
        };
        match arg.as_str() {
            "--cases" => config.cases = num("--cases") as usize,
            "--seed" => config.seed = num("--seed"),
            "--threads" => match num("--threads") {
                0 => usage("--threads must be at least 1"),
                n => config.threads = n as usize,
            },
            "--stall-secs" => config.stall_timeout = Duration::from_secs(num("--stall-secs")),
            "--audit-every" => config.audit_every = num("--audit-every"),
            "--out" => {
                out_dir = Some(args.next().unwrap_or_else(|| usage("--out needs a value")));
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other}")),
        }
    }

    println!(
        "chaos sweep: {} cases, master seed {}, {} threads, auditor every {} events",
        config.cases, config.seed, config.threads, config.audit_every
    );
    let report = run_chaos(&config);
    for (case, outcome) in &report.outcomes {
        println!("  {} -> {outcome}", case.label());
    }
    println!(
        "chaos summary: {} completed, {} contained, {} failures",
        report.count("completed"),
        report.count("contained"),
        report.failures.len()
    );

    if let Some(dir) = &out_dir {
        if !report.failures.is_empty() {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| {
                eprintln!("error: creating {dir}: {e}");
                std::process::exit(2);
            });
        }
        for failure in &report.failures {
            let path = format!("{dir}/chaos-repro-{:03}.suite", failure.case.index);
            if let Err(e) = std::fs::write(&path, failure.reproducer()) {
                eprintln!("error: writing {path}: {e}");
                std::process::exit(2);
            }
            println!("wrote reproducer {path}");
        }
    }

    if let Some(worst) = report.failures.first() {
        eprintln!(
            "error[chaos]: {} of {} cases failed; first: {} -> {}",
            report.failures.len(),
            config.cases,
            worst.shrunk.suite_line(),
            worst.shrunk_outcome
        );
        std::process::exit(2);
    }
}
