//! Simulator throughput baseline: events/sec and peak RSS across a fixed
//! grid of (workload × topology × strategy) cells.
//!
//! ```sh
//! cargo run --release -p oracle-bench --bin throughput [--quick] [--seed N] \
//!     [--reps N] [--backend heap|calendar] [--out PATH] [--check PATH] \
//!     [--tolerance F]
//! ```
//!
//! Writes `BENCH_throughput.json` (or `--out PATH`). The committed copy at
//! the repo root is the tracked trajectory every PR is measured against:
//! `--check PATH` re-runs the grid and fails (exit 1) if the *aggregate*
//! events/sec (total events over total wall time — robust to single-cell
//! timing spikes) regressed by more than `--tolerance` (default 0.25)
//! relative to the stored numbers. CI runs that gate with `--reps 8`, since
//! comparing a single-shot measurement against a best-of-N baseline
//! confounds scheduling luck with real regressions.
//!
//! The cell grid is identical in `--quick` and full mode so the two JSON
//! files stay comparable; `--quick` only drops the repetition count from
//! best-of-3 to a single run (the fastest smoke signal, but noisy).
//!
//! All measurement logic lives in [`oracle_bench::throughput`]; this binary
//! only parses flags.

use oracle::model::QueueBackend;
use oracle_bench::throughput::{check, run_grid, to_json};
use oracle_bench::Flags;

fn main() {
    let mut flags = Flags::from_env(
        "throughput [--quick] [--reps N] [--seed N] [--backend heap|calendar] \
         [--out PATH] [--check PATH] [--tolerance F]",
    );
    let mut out_path = String::from("BENCH_throughput.json");
    let mut check_path: Option<String> = None;
    let mut tolerance = 0.25f64;
    let mut reps = 3usize;
    let mut seed = 1u64;
    let mut backend = QueueBackend::default();
    while let Some(arg) = flags.next_flag() {
        match arg.as_str() {
            "--quick" => reps = 1,
            "--reps" => reps = flags.value("--reps"),
            "--seed" => seed = flags.value("--seed"),
            "--out" => out_path = flags.value("--out"),
            "--check" => check_path = Some(flags.value("--check")),
            "--tolerance" => tolerance = flags.value("--tolerance"),
            "--backend" => {
                backend = match flags.value::<String>("--backend").as_str() {
                    "heap" => QueueBackend::Heap,
                    "calendar" => QueueBackend::Calendar,
                    other => {
                        flags.usage(&format!("--backend must be heap or calendar, got {other}"))
                    }
                }
            }
            "--help" | "-h" => flags.usage(""),
            other => flags.usage(&format!("unknown flag {other}")),
        }
    }
    if reps == 0 {
        flags.usage("--reps must be at least 1");
    }

    let cells = run_grid(reps, seed, backend);
    let json = to_json(&cells, reps, seed);

    let ok = match &check_path {
        Some(path) => {
            let reference = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fatal(&format!("read {path}: {e}")));
            check(&cells, &reference, tolerance)
        }
        None => true,
    };

    std::fs::write(&out_path, &json).unwrap_or_else(|e| fatal(&format!("write {out_path}: {e}")));
    eprintln!("wrote {out_path}");
    if !ok {
        std::process::exit(1);
    }
}

fn fatal(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
