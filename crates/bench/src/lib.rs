//! The simulator's performance benchmarks: the throughput grid behind
//! `BENCH_throughput.json` and the PE-count scale grid behind
//! `BENCH_scale.json`. (The paper's tables and figures are rendered by
//! `oracle::experiments::registry`; the `regen_all` binary writes them to
//! `results/`.)

pub mod scale;
pub mod throughput;
