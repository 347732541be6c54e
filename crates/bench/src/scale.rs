//! Scale benchmark: events/sec and peak RSS versus PE count.
//!
//! Where `throughput.rs` measures the hot loop on paper-sized machines,
//! this grid measures the *memory model*: a torus and a random-graph cell
//! at 10³, 10⁴, 10⁵, and 10⁶ PEs, each run `cwn` over a fixed task tree.
//! The committed `BENCH_scale.json` at the repo root records the
//! trajectory; the acceptance line is the 10⁶-PE torus completing under
//! 2 GB of peak RSS (the O(active) sparse-state regime — `StateMode::Auto`
//! flips to sparse past 64 Ki PEs, so the grid covers both
//! representations).
//!
//! `VmHWM` is a per-process monotonic high-water mark, so cells must not
//! share a process: the `scale` binary re-executes itself once per cell
//! (`--cell NAME`) and each child reports its own peak. One line of
//! `CELL {...}` JSON per child is the whole protocol.

use std::time::Instant;

use oracle::json::{parse_json, Json, Obj};
use oracle::model::{LoadInfoMode, MachineConfig};
use oracle::prelude::*;

pub use crate::throughput::peak_rss_bytes;

/// Peak-RSS budget for every cell (the acceptance bound for the 10⁶-PE
/// torus; the smaller cells sit far under it).
pub const RSS_BUDGET_BYTES: u64 = 2 * 1024 * 1024 * 1024;

/// One measured cell.
pub struct ScaleCell {
    /// Topology spec string, e.g. `torus:1000`.
    pub name: String,
    /// PE count of the topology.
    pub pes: usize,
    /// Simulated events in the run.
    pub events: u64,
    /// Wall-clock seconds for the run (machine construction included —
    /// at this scale, construction *is* part of the cost being measured).
    pub wall_secs: f64,
    /// `events / wall_secs`.
    pub events_per_sec: f64,
    /// The cell process's peak RSS in bytes (`VmHWM`).
    pub peak_rss_bytes: u64,
}

/// The benchmark grid: torus and random-graph cells at each decade.
/// `quick` keeps only the two smallest decades of each family (CI smoke).
pub fn cell_names(quick: bool) -> Vec<&'static str> {
    let all = [
        "torus:32",    // 1 024 PEs — dense representation
        "torus:100",   // 10 000 PEs — dense
        "torus:316",   // 99 856 PEs — sparse (Auto flips past 64 Ki)
        "torus:1000",  // 1 000 000 PEs — sparse, the acceptance cell
        "rand:1000x4", // random 4-regular-ish graphs, same decades
        "rand:10000x4",
        "rand:100000x4",
        "rand:1000000x4",
    ];
    all.into_iter()
        .filter(|name| !quick || cell_pes(name) <= 10_000)
        .collect()
}

/// PE count of a grid cell (parses the spec; cheap, no build).
pub fn cell_pes(name: &str) -> usize {
    name.parse::<TopologySpec>()
        .unwrap_or_else(|e| panic!("scale cell {name}: {e}"))
        .num_pes()
}

/// Run one cell in the current process and read this process's peak RSS.
///
/// The configuration is fixed: `cwn` (the paper's radius-9 parameters)
/// over `fib:20`, piggyback-only load information. Periodic load-word
/// broadcasts are off (`period: 0`) because they cost O(num PEs) events
/// per period — a time cost, not a memory one, and this grid isolates
/// memory scaling.
pub fn run_cell(name: &str, seed: u64) -> ScaleCell {
    let topology: TopologySpec = name
        .parse()
        .unwrap_or_else(|e| panic!("scale cell {name}: {e}"));
    let machine = MachineConfig {
        seed,
        load_info: LoadInfoMode::Piggyback { period: 0 },
        ..MachineConfig::default()
    };
    let config = SimulationBuilder::new()
        .topology(topology)
        .strategy(StrategySpec::Cwn {
            radius: 9,
            horizon: 1,
        })
        .workload(WorkloadSpec::fib(20))
        .machine(machine)
        .config();
    let t0 = Instant::now();
    let report = config
        .run()
        .unwrap_or_else(|e| panic!("scale cell {name}: {e}"));
    let wall_secs = t0.elapsed().as_secs_f64();
    ScaleCell {
        name: name.to_string(),
        pes: topology.num_pes(),
        events: report.events,
        wall_secs,
        events_per_sec: report.events as f64 / wall_secs.max(1e-9),
        peak_rss_bytes: peak_rss_bytes(),
    }
}

fn cell_obj(c: &ScaleCell) -> Obj {
    Obj::new()
        .str("name", &c.name)
        .uint("pes", c.pes as u64)
        .uint("events", c.events)
        .float("wall_secs", c.wall_secs, 6)
        .float("events_per_sec", c.events_per_sec, 0)
        .uint("peak_rss_bytes", c.peak_rss_bytes)
}

fn cell_from_json(v: &Json) -> Result<ScaleCell, String> {
    Ok(ScaleCell {
        name: v.text("name")?.to_string(),
        pes: v.num("pes")? as usize,
        events: v.num("events")? as u64,
        wall_secs: v.num("wall_secs")?,
        events_per_sec: v.num("events_per_sec")?,
        peak_rss_bytes: v.num("peak_rss_bytes")? as u64,
    })
}

/// The one-line child → parent protocol: `CELL ` and the cell's JSON
/// object on stdout.
pub fn cell_line(c: &ScaleCell) -> String {
    format!("CELL {}", cell_obj(c))
}

/// Parse a [`cell_line`] back; `None` for any other line.
pub fn parse_cell_line(line: &str) -> Option<ScaleCell> {
    cell_from_json(&parse_json(line.strip_prefix("CELL ")?).ok()?).ok()
}

/// Render the grid as the `oracle-bench-scale/v1` JSON.
pub fn to_json(cells: &[ScaleCell], seed: u64) -> String {
    let doc = Obj::new()
        .str("schema", "oracle-bench-scale/v1")
        .uint("seed", seed)
        .uint("rss_budget_bytes", RSS_BUDGET_BYTES)
        .arr("cells", cells.iter().map(cell_obj).collect());
    format!("{doc}\n")
}

/// Validate a `BENCH_scale.json` blob: schema tag, well-formed cells, the
/// four torus decades present, and every recorded peak RSS within budget.
/// Returns a list of problems (empty means valid). CI runs this against
/// the committed file.
pub fn validate_json(json: &str) -> Result<(), String> {
    let doc = parse_json(json).map_err(|e| format!("not JSON: {e}"))?;
    let mut problems = Vec::new();
    if doc.text("schema") != Ok("oracle-bench-scale/v1") {
        problems.push("missing or wrong schema tag (want oracle-bench-scale/v1)".to_string());
    }
    let mut cells = Vec::new();
    let entries = doc
        .get("cells")
        .and_then(Json::as_array)
        .unwrap_or_default();
    for (i, entry) in entries.iter().enumerate() {
        match cell_from_json(entry) {
            Ok(c) => cells.push(c),
            Err(e) => problems.push(format!("malformed cell {i}: {e}")),
        }
    }
    for want in ["torus:32", "torus:100", "torus:316", "torus:1000"] {
        if !cells.iter().any(|c| c.name == want) {
            problems.push(format!("missing torus cell {want}"));
        }
    }
    for c in &cells {
        if c.peak_rss_bytes == 0 {
            problems.push(format!("cell {}: peak RSS was not recorded", c.name));
        } else if c.peak_rss_bytes > RSS_BUDGET_BYTES {
            problems.push(format!(
                "cell {}: peak RSS {} bytes exceeds the {} byte budget",
                c.name, c.peak_rss_bytes, RSS_BUDGET_BYTES
            ));
        }
        if c.events == 0 {
            problems.push(format!("cell {}: zero events", c.name));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<ScaleCell> {
        ["torus:32", "torus:100", "torus:316", "torus:1000"]
            .iter()
            .enumerate()
            .map(|(i, name)| ScaleCell {
                name: name.to_string(),
                pes: 10usize.pow(3 + i as u32),
                events: 1000,
                wall_secs: 0.5,
                events_per_sec: 2000.0,
                peak_rss_bytes: 100 << 20,
            })
            .collect()
    }

    #[test]
    fn cell_line_roundtrips() {
        for c in sample() {
            let parsed = parse_cell_line(&cell_line(&c)).expect("parse back");
            assert_eq!(parsed.name, c.name);
            assert_eq!(parsed.pes, c.pes);
            assert_eq!(parsed.events, c.events);
            assert_eq!(parsed.peak_rss_bytes, c.peak_rss_bytes);
        }
        assert!(parse_cell_line("not a cell").is_none());
    }

    #[test]
    fn json_validates_and_catches_problems() {
        let good = to_json(&sample(), 1);
        validate_json(&good).expect("well-formed grid validates");

        let mut missing = sample();
        missing.retain(|c| c.name != "torus:1000");
        let err = validate_json(&to_json(&missing, 1)).unwrap_err();
        assert!(err.contains("torus:1000"), "{err}");

        let mut fat = sample();
        fat[0].peak_rss_bytes = RSS_BUDGET_BYTES + 1;
        let err = validate_json(&to_json(&fat, 1)).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");

        assert!(validate_json("{}").is_err(), "empty JSON must not validate");
        assert!(validate_json("not json").is_err());
        let err =
            validate_json(&good.replace("\"events\": 1000", "\"events\": \"x\"")).unwrap_err();
        assert!(err.contains("malformed cell 0"), "{err}");
    }

    #[test]
    fn committed_baseline_validates() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
        let json = std::fs::read_to_string(path).expect("BENCH_scale.json is committed");
        validate_json(&json).expect("committed baseline validates");
    }

    #[test]
    fn grid_covers_both_representations() {
        let names = cell_names(false);
        assert_eq!(names.len(), 8);
        // At least one cell each side of the Auto sparse threshold.
        assert!(names.iter().any(|n| cell_pes(n) <= 65_536));
        assert!(names.iter().any(|n| cell_pes(n) > 65_536));
        // Quick mode keeps it CI-sized.
        for name in cell_names(true) {
            assert!(cell_pes(name) <= 10_000, "{name} too big for quick");
        }
    }

    #[test]
    fn smallest_cell_runs_in_process() {
        let c = run_cell("torus:32", 1);
        assert_eq!(c.pes, 1024);
        assert!(c.events > 0);
        assert!(c.peak_rss_bytes > 0, "RSS must be readable on Linux");
    }
}
