//! The simulator's performance benchmarks: the throughput grid behind
//! `BENCH_throughput.json` and the PE-count scale grid behind
//! `BENCH_scale.json`. (The paper's tables and figures are rendered by
//! `oracle::experiments::registry`; the `regen_all` binary writes them to
//! `results/`.)

pub mod scale;
pub mod throughput;

use std::str::FromStr;

/// Flag reading shared by the bench binaries: an unknown flag, a missing
/// value or a bad value is a usage error (exit 2), never a panic.
pub struct Flags {
    args: std::iter::Skip<std::env::Args>,
    usage: &'static str,
}

impl Flags {
    /// This process's arguments, for a binary with the given usage line.
    pub fn from_env(usage: &'static str) -> Self {
        let args = std::env::args().skip(1);
        Flags { args, usage }
    }

    /// The next flag, if any.
    pub fn next_flag(&mut self) -> Option<String> {
        self.args.next()
    }

    /// The value following `flag`, parsed.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> T {
        let v = self
            .args
            .next()
            .unwrap_or_else(|| self.usage(&format!("{flag} needs a value")));
        v.parse()
            .unwrap_or_else(|_| self.usage(&format!("bad {flag} value {v}")))
    }

    /// Print `msg` and the usage line and exit 2; with an empty `msg`
    /// (`--help`), print only the usage line and exit 0.
    pub fn usage(&self, msg: &str) -> ! {
        if !msg.is_empty() {
            eprintln!("error: {msg}");
        }
        eprintln!("usage: {}", self.usage);
        std::process::exit(if msg.is_empty() { 0 } else { 2 });
    }
}
