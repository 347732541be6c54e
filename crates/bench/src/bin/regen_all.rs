//! Regenerate every paper table and figure into a results directory.
//!
//! ```sh
//! cargo run --release -p oracle-bench --bin regen_all -- [--quick] [--seed N] [--only PREFIX] [DIR]
//! ```
//!
//! Writes one text file per entry of the experiment registry
//! (`oracle::experiments::registry`; the same bytes `oracle-cli experiment
//! NAME` prints) plus an index, so `results/` can be rebuilt from scratch
//! with a single command. `--only PREFIX` regenerates just the files whose
//! stem starts with PREFIX (e.g. `--only degradation`) and leaves the index
//! untouched; a prefix that matches nothing is an error.
//!
//! Exit codes: 0 success; 2 an experiment failed its own checks (the
//! degradation physics); 3 a bad flag or an I/O error.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use oracle::experiments::registry::REGISTRY;
use oracle::experiments::Fidelity;

const USAGE: &str = "usage: regen_all [--quick] [--seed N] [--only PREFIX] [DIR]";

fn main() -> ExitCode {
    match regen(std::env::args().skip(1)) {
        Ok(()) => ExitCode::SUCCESS,
        Err((code, message)) => {
            eprintln!("error: {message}");
            ExitCode::from(code)
        }
    }
}

fn regen(mut args: impl Iterator<Item = String>) -> Result<(), (u8, String)> {
    let config = |m: String| (3, m);
    let mut dir = PathBuf::from("results");
    let mut fidelity = Fidelity::Paper;
    let mut seed = 1u64;
    let mut only: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => fidelity = Fidelity::Quick,
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| config(format!("--seed needs a number\n{USAGE}")))?;
            }
            "--only" => {
                only = Some(
                    args.next()
                        .ok_or_else(|| config(format!("--only needs a stem prefix\n{USAGE}")))?,
                );
            }
            other if !other.starts_with('-') => dir = PathBuf::from(other),
            other => return Err(config(format!("unknown flag {other}\n{USAGE}"))),
        }
    }
    let selected: Vec<_> = REGISTRY
        .iter()
        .filter(|e| only.as_deref().is_none_or(|o| e.stem.starts_with(o)))
        .collect();
    if selected.is_empty() {
        let stems: Vec<&str> = REGISTRY.iter().map(|e| e.stem).collect();
        return Err(config(format!(
            "--only {:?} matches no experiment; valid stems: {}",
            only.unwrap_or_default(),
            stems.join(", ")
        )));
    }
    let io = |what: &PathBuf, e: std::io::Error| (3, format!("{}: {e}", what.display()));
    std::fs::create_dir_all(&dir).map_err(|e| io(&dir, e))?;

    let mut index = String::from("# results/ — regenerated harness outputs\n\n");
    for experiment in selected {
        let output = (experiment.run)(fidelity, seed)
            .map_err(|e| (2, format!("{}: {e}", experiment.name)))?;
        let path = dir.join(format!("{}.txt", experiment.stem));
        std::fs::write(&path, output.text()).map_err(|e| io(&path, e))?;
        let _ = writeln!(index, "- `{}.txt`", experiment.stem);
        eprintln!("wrote {}", path.display());
    }
    if only.is_none() {
        let path = dir.join("README.md");
        std::fs::write(&path, index).map_err(|e| io(&path, e))?;
    }
    eprintln!("done: {}", dir.display());
    Ok(())
}
