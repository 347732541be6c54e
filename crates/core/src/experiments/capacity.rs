//! Capacity — maximum sustainable open-traffic arrival rate, CWN vs GM.
//!
//! The paper measures how fast one task tree finishes; a production load
//! balancer is sized by a different question: *how much sustained traffic
//! can the machine hold before latency explodes?* This experiment answers
//! it per (topology, strategy): binary-search the Poisson arrival rate for
//! the largest value whose steady-state p99 sojourn time stays under a
//! target, with runs that outrun the machine ending in a truthful
//! `Saturated` outcome instead of spinning.
//!
//! The search is deterministic: a doubling phase brackets the knee (every
//! probe at a power-of-two multiple of the starting rate), then a fixed
//! number of bisections narrow it. Probes for all four (topology, strategy)
//! pairs run as one parallel batch per round, so wall-clock scales with
//! rounds, not cells, and results are independent of thread count.

use oracle_model::{ArrivalSpec, MachineConfig, OpenMetrics, OpenTraffic};
use oracle_strategies::StrategySpec;
use oracle_topo::TopologySpec;
use oracle_workloads::WorkloadSpec;

use super::{paper_topologies, Fidelity};
use crate::builder::{paper_strategies, SimulationBuilder};
use crate::json::{self, Obj};
use crate::runner::{run_batch, RunSpec};
use crate::table::{f2, Table};

/// Tuning of one capacity search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Grid side of the two paper topologies probed.
    pub side: usize,
    /// Task tree spawned by every arriving request.
    pub workload: WorkloadSpec,
    /// Simulated duration of each probe run.
    pub duration: u64,
    /// Warmup excluded from each probe's statistics.
    pub warmup: u64,
    /// The latency SLO: sustainable means p99 sojourn <= this.
    pub p99_target: u64,
    /// First probe rate (arrivals per 1000 time units).
    pub start_rate: f64,
    /// Doubling probes bracketing the knee.
    pub doublings: u32,
    /// Bisection probes narrowing it.
    pub bisections: u32,
}

/// Search parameters for a fidelity level.
pub fn params(fidelity: Fidelity) -> Params {
    match fidelity {
        Fidelity::Paper => Params {
            side: 10,
            workload: WorkloadSpec::fib(11),
            duration: 20_000,
            warmup: 2_000,
            p99_target: 2_500,
            start_rate: 4.0,
            doublings: 4,
            bisections: 5,
        },
        Fidelity::Quick => Params {
            side: 4,
            workload: WorkloadSpec::fib(8),
            duration: 3_000,
            warmup: 300,
            p99_target: 1_000,
            start_rate: 2.0,
            doublings: 3,
            bisections: 3,
        },
    }
}

/// One probe of the search: a rate and what the run said about it.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Offered Poisson rate (arrivals per 1000 time units).
    pub rate: f64,
    /// Whether this rate met the SLO (completed, unsaturated, p99 under
    /// target, and at least one measured completion).
    pub sustainable: bool,
    /// The run's open metrics (`None` if the run itself errored).
    pub metrics: Option<OpenMetrics>,
}

/// Search outcome for one (topology, strategy) pair.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Topology of the search.
    pub topology: TopologySpec,
    /// Strategy of the search.
    pub strategy: StrategySpec,
    /// Largest sustainable rate found (0 when even the first probe failed).
    pub max_rate: f64,
    /// Open metrics of the run at `max_rate` (`None` when `max_rate` is 0).
    pub at_max: Option<OpenMetrics>,
    /// Every probe, in the order the search made them.
    pub probes: Vec<Probe>,
}

/// Mutable state of one pair's binary search.
struct Search {
    topology: TopologySpec,
    strategy: StrategySpec,
    /// Largest known-sustainable rate.
    lo: f64,
    /// Current upper probe (doubling) or smallest known-unsustainable rate
    /// (bisection).
    hi: f64,
    /// Still in the doubling phase?
    doubling: bool,
    best: Option<OpenMetrics>,
    probes: Vec<Probe>,
}

fn probe_config(p: &Params, s: &Search, rate: f64, seed: u64) -> RunSpec {
    let arrivals: ArrivalSpec = format!("poisson:{rate}")
        .parse()
        .expect("probe rates are positive finite numbers");
    let mut open = OpenTraffic::new(arrivals, p.duration);
    open.warmup = p.warmup;
    RunSpec::new(
        format!("capacity/{}/{}/r{rate}", s.topology, s.strategy),
        SimulationBuilder::new()
            .topology(s.topology)
            .strategy(s.strategy)
            .workload(p.workload)
            .machine(MachineConfig::default().with_seed(seed))
            .open(Some(open))
            .config(),
    )
}

fn sustainable(p: &Params, m: &OpenMetrics) -> bool {
    !m.outcome.is_saturated() && m.completions_measured > 0 && m.sojourn_p99 <= p.p99_target
}

/// Run the capacity search and return one cell per (topology, strategy).
pub fn run(fidelity: Fidelity, seed: u64) -> Vec<Cell> {
    let p = params(fidelity);
    let mut searches: Vec<Search> = Vec::new();
    for topology in paper_topologies(p.side) {
        let (cwn, gm) = paper_strategies(&topology);
        for strategy in [cwn, gm] {
            searches.push(Search {
                topology,
                strategy,
                lo: 0.0,
                hi: p.start_rate,
                doubling: true,
                best: None,
                probes: Vec::new(),
            });
        }
    }

    // Doubling rounds bracket the knee; bisection rounds narrow it. Every
    // round probes each still-active search once, as one parallel batch.
    let rounds = p.doublings + p.bisections;
    for round in 0..rounds {
        let bisecting = round >= p.doublings;
        let mut idx = Vec::new();
        let mut specs = Vec::new();
        for (i, s) in searches.iter_mut().enumerate() {
            if bisecting && s.doubling {
                // Out of doubling budget: treat the last hi as the
                // unsustainable upper bound and switch to bisection.
                s.doubling = false;
            }
            let rate = if s.doubling {
                s.hi
            } else {
                (s.lo + s.hi) / 2.0
            };
            if rate <= s.lo {
                continue; // interval collapsed (e.g. first probe failed)
            }
            specs.push(probe_config(&p, s, rate, seed));
            idx.push((i, rate));
        }
        if specs.is_empty() {
            break;
        }
        for ((i, rate), (label, result)) in idx.into_iter().zip(run_batch(&specs)) {
            let s = &mut searches[i];
            let metrics = match result {
                Ok(r) => Some(r.open.unwrap_or_else(|| panic!("{label}: no open metrics"))),
                Err(_) => None,
            };
            let ok = metrics.as_ref().is_some_and(|m| sustainable(&p, m));
            if ok {
                s.lo = rate;
                s.best = metrics.clone();
                if s.doubling {
                    s.hi = rate * 2.0;
                }
            } else {
                s.hi = rate;
                s.doubling = false;
            }
            s.probes.push(Probe {
                rate,
                sustainable: ok,
                metrics,
            });
        }
    }

    searches
        .into_iter()
        .map(|s| Cell {
            topology: s.topology,
            strategy: s.strategy,
            max_rate: s.lo,
            at_max: s.best,
            probes: s.probes,
        })
        .collect()
}

/// Render the search results: one row per (topology, strategy).
pub fn render(cells: &[Cell], fidelity: Fidelity) -> Table {
    let p = params(fidelity);
    let mut table = Table::new(
        format!(
            "Max sustainable arrival rate (req per 1000 units) at p99 sojourn <= {} \
             ({} per request, duration {}, warmup {})",
            p.p99_target, p.workload, p.duration, p.warmup
        ),
        &[
            "configuration",
            "max req/1k",
            "p99 sojourn",
            "mean sojourn",
            "throughput/1k",
            "probes",
        ],
    );
    for c in cells {
        let (p99, mean, thr) = c.at_max.as_ref().map_or_else(
            || ("-".into(), "-".into(), "-".into()),
            |m| {
                (
                    m.sojourn_p99.to_string(),
                    f2(m.sojourn_mean),
                    f2(m.throughput),
                )
            },
        );
        table.row(vec![
            format!("{}/{}", c.topology, c.strategy),
            f2(c.max_rate),
            p99,
            mean,
            thr,
            c.probes.len().to_string(),
        ]);
    }
    table
}

/// Machine-readable dump of every cell, one JSON object per table row.
pub fn to_json(cells: &[Cell]) -> String {
    json::array(cells.iter().map(|c| {
        let (p99, thr) = c
            .at_max
            .as_ref()
            .map_or((0, 0.0), |m| (m.sojourn_p99, m.throughput));
        Obj::new()
            .str("topology", &c.topology.to_string())
            .str("strategy", &c.strategy.to_string())
            .float("max_rate", c.max_rate, 4)
            .uint("p99_at_max", p99)
            .float("throughput_at_max", thr, 4)
            .uint("probes", c.probes.len() as u64)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_search_finds_a_positive_capacity() {
        let cells = run(Fidelity::Quick, 1);
        // 2 topologies x 2 strategies.
        assert_eq!(cells.len(), 4);
        for c in &cells {
            assert!(
                c.max_rate > 0.0,
                "{}/{}: no sustainable rate found ({} probes)",
                c.topology,
                c.strategy,
                c.probes.len()
            );
            let m = c.at_max.as_ref().unwrap();
            assert!(!m.outcome.is_saturated());
            assert!(m.sojourn_p99 <= params(Fidelity::Quick).p99_target);
            // The search bracketed: at least one probe was unsustainable,
            // or the doubling budget was exhausted while sustainable.
            assert!(!c.probes.is_empty());
        }
    }

    #[test]
    fn search_is_deterministic_across_thread_counts() {
        crate::runner::set_default_threads(1);
        let seq = run(Fidelity::Quick, 7);
        crate::runner::set_default_threads(4);
        let par = run(Fidelity::Quick, 7);
        crate::runner::clear_default_threads();
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.max_rate, b.max_rate);
            assert_eq!(
                a.at_max.as_ref().map(|m| m.sojourn_p99),
                b.at_max.as_ref().map(|m| m.sojourn_p99)
            );
        }
    }

    #[test]
    fn render_and_json_cover_every_cell() {
        let cells = run(Fidelity::Quick, 1);
        let table = render(&cells, Fidelity::Quick);
        assert_eq!(table.len(), 4);
        let json = crate::json::parse_json(&to_json(&cells)).expect("appendix parses");
        let rows = json.as_array().expect("a top-level array");
        assert_eq!(rows.len(), table.len(), "one object per table row");
        for (row, c) in rows.iter().zip(&cells) {
            assert_eq!(row.text("topology"), Ok(c.topology.to_string().as_str()));
            assert!(row.num("max_rate").is_ok());
        }
    }
}
