//! The repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! One process runs one workload as a closed loop: the next result starts
//! only after the previous one has been checked. The result seeds derive
//! from `--seed`. `--trace 0` is the timed pass and prints the end-to-end
//! metrics; `--trace 1` is the traced pass and prints the per-layer
//! ledger. Both print host facts first and one JSON object as the last
//! line of standard output. `perfbench/run.py` builds this program, runs
//! it and checks its output against `BENCHMARK.json`.

mod layers;
mod probe;
mod spans;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use oracle::checkpoint::Checkpoint;
use oracle::des::ProfileReport;
use oracle::model::MachineConfig;
use oracle::prelude::*;

use probe::{Probe, PROBE_REF_NS};
use spans::Tracer;
use workloads::{fingerprint, result_seed, run_result, ResultRun, Workload};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";

/// Least share of traced result wall time the layer spans must cover.
const MIN_SPAN_COVERAGE: f64 = 0.95;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = workloads::names().collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one pass prints as its last line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in output order.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = host_facts(args.workload);
    println!("host: {host}");
    let outcome = if args.trace {
        traced_pass(&args, &host)
    } else {
        Ok(timed_pass(&args))
    };
    match outcome {
        Ok(o) if o.metrics.iter().all(|m| m.1.is_finite()) => {
            println!("{}", o.json());
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!("perfbench: a metric is not a finite number");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Facts that tell numbers from different hosts and builds apart, as one
/// JSON object.
fn host_facts(w: &Workload) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, v)| v.trim().replace(['"', '\\'], ""))
        })
        .unwrap_or_else(|| "unknown".into());
    let defaults = MachineConfig::default();
    let mut state: Vec<&str> = w
        .configs(0, false)
        .iter()
        .map(|c| match c.machine.sparse_state(c.topology.num_pes()) {
            true => "sparse",
            false => "dense",
        })
        .collect();
    state.dedup();
    format!(
        "{{\"workload\": \"{}\", \"nproc\": {nproc}, \"rustc\": \"{}\", \"cpu\": \"{cpu}\", \
         \"build_profile\": \"{}\", \"shards\": {}, \"queue_backend\": \"{:?}\", \
         \"state_mode\": \"{:?}\", \"state_in_effect\": \"{}\"}}",
        w.name,
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        oracle::runner::default_shards().max(1),
        defaults.queue_backend,
        defaults.state_mode,
        state.join("+"),
    )
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten results beyond it: the
/// eleventh-slowest value, at percentile `100 * (n - 10) / n`. Below 20
/// results that percentile would not even reach the median, so the
/// slowest result is reported instead.
fn tail(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => (0.0, 0.0),
        1..=19 => (s[n - 1], 100.0),
        _ => (s[n - 11], 100.0 * (n - 10) as f64 / n as f64),
    }
}

/// The timing metrics of a pass: events over summed run seconds, the
/// median and tail run seconds per result, the median set-up seconds.
fn time_metrics(events: u64, run: &[f64], setup: &[f64]) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        (
            "events_per_s",
            events as f64 / run.iter().sum::<f64>().max(f64::MIN_POSITIVE),
            "events/s",
        ),
        ("result_s_p50", median(run), "s"),
        ("result_s_tail", tail(run).0, "s"),
        ("setup_s", median(setup), "s"),
    ]
}

/// The timed pass: closed-loop results for `--seconds`, tracing and
/// profiling off. The probe runs between results, and each result's host
/// seconds are corrected by the mean of the probes just before and just
/// after it; the uncorrected figures are printed too.
fn timed_pass(args: &Args) -> Outcome {
    let w = args.workload;
    let mut off = Tracer::new(false);
    let mut probe = Probe::new();
    // One uncounted result first, so the allocator and caches are warm.
    let warm = run_result(w, result_seed(args.seed, 0), false, &mut off).is_ok();
    let mut before = probe.ns_per_op();
    let (mut setup, mut run, mut raw_setup, mut raw_run) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut probes = Vec::new();
    let (mut events, mut attempted, mut failed) = (0u64, 0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while attempted == 0 || Instant::now() < deadline {
        let seed = result_seed(args.seed, attempted);
        attempted += 1;
        match run_result(w, seed, false, &mut off) {
            Ok(r) => {
                let after = probe.ns_per_op();
                let scale = 2.0 * PROBE_REF_NS / (before + after);
                probes.push(after);
                before = after;
                raw_setup.push(r.setup_s());
                raw_run.push(r.run_s());
                setup.push(r.setup_s() * scale);
                run.push(r.run_s() * scale);
                events += r.events();
            }
            Err(e) => {
                eprintln!("failed: {e}");
                failed += 1;
            }
        }
    }
    let raw: Vec<String> = time_metrics(events, &raw_run, &raw_setup)
        .iter()
        .map(|(name, value, _)| format!("\"{name}\": {value}"))
        .collect();
    println!(
        "uncorrected: {{{}, \"probe_ns\": {}}}",
        raw.join(", "),
        median(&probes)
    );
    println!(
        "result_s_tail: p{:.1} of {} results",
        tail(&run).1,
        run.len()
    );
    let mut metrics = time_metrics(events, &run, &setup);
    let peak_rss = oracle_bench::throughput::peak_rss_bytes();
    metrics.push(("peak_rss_mb", peak_rss as f64 / (1u64 << 20) as f64, "MiB"));
    Outcome {
        correct: warm && failed == 0,
        attempted,
        failed,
        metrics,
    }
}

/// Events and handler nanoseconds of one event kind.
fn kind_stats(p: &ProfileReport, kind: &str) -> (u64, u64) {
    p.kinds
        .iter()
        .find(|k| k.name == kind)
        .map_or((0, 0), |k| (k.count, k.wall_nanos))
}

fn ns_per_event((events, ns): (u64, u64)) -> f64 {
    match events {
        0 => 0.0,
        _ => ns as f64 / events as f64,
    }
}

/// The event kinds the ledger breaks out one by one.
const KINDS: [(&str, &str, &str); 4] = [
    ("pe_done", "model.pe_done_ns", "model.pe_done_events"),
    (
        "channel_done",
        "model.channel_done_ns",
        "model.channel_done_events",
    ),
    ("timer", "model.timer_ns", "model.timer_events"),
    (
        "load_bcast",
        "model.load_bcast_ns",
        "model.load_bcast_events",
    ),
];

/// Resume the middle checkpoint of `first`'s first cell, if it took any,
/// and run it to the end. Returns the decode-and-resume seconds and
/// whether the resumed report equals the uninterrupted one.
fn resume_check(first: &ResultRun) -> Result<Option<(f64, usize, bool)>, String> {
    let cell = &first.cells[0];
    let Some(bytes) = cell.checkpoints.get(cell.checkpoints.len() / 2) else {
        return Ok(None);
    };
    let t0 = Instant::now();
    let mut machine = Checkpoint::from_bytes(bytes)
        .and_then(|c| c.resume())
        .map_err(|e| format!("resume: {e}"))?;
    let resume_s = t0.elapsed().as_secs_f64();
    machine.advance_until(None).map_err(|e| e.to_string())?;
    let (report, _) = machine.finish().map_err(|e| e.to_string())?;
    let same = fingerprint(&report) == fingerprint(&cell.report);
    Ok(Some((resume_s, bytes.len(), same)))
}

/// The traced pass: for each result seed, an untraced run and a traced
/// run (layer spans plus the engine profiler), whose reports must agree;
/// then the single-layer probes. Prints the per-layer ledger.
fn traced_pass(args: &Args, host: &str) -> Result<Outcome, String> {
    let w = args.workload;
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(true);
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut identical = true;
    let mut first: Option<ResultRun> = None;
    let mut kinds = ProfileReport::default();
    // Per strategy family: (events, handler ns) over the traced runs.
    let (mut cwn, mut gm) = ((0u64, 0u64), (0u64, 0u64));
    let configs = w.configs(0, true);
    let mut probe = Probe::new();
    let mut probes = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut i = 0u64;
    while i == 0 || Instant::now() < deadline {
        let seed = result_seed(args.seed, i);
        attempted += 2;
        let plain = run_result(w, seed, false, &mut off);
        tr.begin_result(i);
        let traced = run_result(w, seed, true, &mut tr);
        tr.end();
        probes.push(probe.ns_per_op());
        match (plain, traced) {
            (Ok(a), Ok(b)) => {
                untraced_s.push(a.run_s());
                traced_s.push(b.run_s());
                for ((x, y), cfg) in a.cells.iter().zip(&b.cells).zip(&configs) {
                    if fingerprint(&x.report) != fingerprint(&y.report) {
                        eprintln!("seed {seed}: traced report differs from untraced");
                        identical = false;
                    }
                    let profile = y.report.profile.as_ref().expect("traced runs profile");
                    kinds.merge(profile);
                    let family = match cfg.strategy {
                        StrategySpec::Cwn { .. } => &mut cwn,
                        StrategySpec::Gradient { .. } => &mut gm,
                        _ => continue,
                    };
                    family.0 += profile.total_events();
                    family.1 += profile.total_wall_nanos();
                }
                first.get_or_insert(b);
            }
            (a, b) => {
                for e in [a.err(), b.err()].into_iter().flatten() {
                    eprintln!("failed: {e}");
                    failed += 1;
                }
            }
        }
        i += 1;
    }
    let Some(first) = first else {
        return Ok(Outcome {
            correct: false,
            attempted,
            failed,
            metrics: Vec::new(),
        });
    };

    let (resume_s, ckpt_bytes) = match resume_check(&first)? {
        Some((s, bytes, same)) => {
            if !same {
                eprintln!("resumed checkpoint diverged from the uninterrupted run");
                identical = false;
            }
            (s, bytes as f64)
        }
        None => (0.0, 0.0),
    };

    // Single-layer probes, outside every result.
    let hwm = first
        .cells
        .iter()
        .filter_map(|c| c.report.profile.as_ref())
        .map(|p| p.queue_depth_hwm)
        .max()
        .unwrap_or(0);
    let backend = MachineConfig::default().queue_backend;
    let hold_default = layers::hold_ns(layers::queue_for(backend), hwm, args.seed);
    let hold_heap = layers::hold_ns(
        layers::queue_for(oracle::model::QueueBackend::Heap),
        hwm,
        args.seed,
    );
    let mut topologies: Vec<TopologySpec> = configs.iter().map(|c| c.topology).collect();
    topologies.dedup();
    let (mut hops, mut route_ns) = (0u64, 0u128);
    for spec in &topologies {
        let (h, d) = layers::route_walks(&spec.build(), args.seed);
        hops += h;
        route_ns += d.as_nanos();
    }

    // The span ledger.
    let coverage = tr.coverage();
    if coverage < MIN_SPAN_COVERAGE {
        eprintln!(
            "layer spans cover {:.1}% of traced result time",
            coverage * 100.0
        );
    }
    let secs = |name: &str| -> Vec<f64> {
        tr.per_result_ns(name)
            .iter()
            .map(|&ns| ns as f64 * 1e-9)
            .collect()
    };
    let advance_ns: f64 = tr.per_result_ns("model.advance").iter().sum::<u64>() as f64;
    let encode_s: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "checkpoint.encode")
        .map(|s| s.dur_ns() as f64 * 1e-9)
        .collect();
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let spans_path = out_dir.join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&spans_path, tr.to_jsonl(host)))
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    println!(
        "spans: {} ({} spans)",
        spans_path.display(),
        tr.spans().len()
    );

    // Simulated counts of the first result: identical on every pass.
    let reports: Vec<&Report> = first.cells.iter().map(|c| &c.report).collect();
    let sum = |f: fn(&Report) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    let executed = sum(|r| r.goals_executed);
    let hop_total: f64 = reports
        .iter()
        .map(|r| r.avg_goal_distance * r.goals_executed as f64)
        .sum();
    let open = |f: fn(&OpenMetrics) -> u64| {
        reports
            .iter()
            .filter_map(|r| r.open.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    let mut first_kinds = ProfileReport::default();
    for p in reports.iter().filter_map(|r| r.profile.as_ref()) {
        first_kinds.merge(p);
    }

    let mut metrics = vec![
        ("des.hold_ns", hold_default, "ns"),
        ("des.hold_heap_ns", hold_heap, "ns"),
        ("des.queue_hwm", hwm as f64, "count"),
        (
            "model.loop_other_frac",
            1.0 - kinds.total_wall_nanos() as f64 / advance_ns.max(1.0),
            "ratio",
        ),
        ("topo.build_s", median(&secs("topo.build")), "s"),
        (
            "topo.route_ns_per_hop",
            route_ns as f64 / hops.max(1) as f64,
            "ns",
        ),
        ("model.build_s", median(&secs("model.build")), "s"),
        ("model.advance_s", median(&secs("model.advance")), "s"),
        ("model.finish_s", median(&secs("model.finish")), "s"),
    ];
    for (kind, ns_name, events_name) in KINDS {
        metrics.push((ns_name, ns_per_event(kind_stats(&kinds, kind)), "ns"));
        metrics.push((
            events_name,
            kind_stats(&first_kinds, kind).0 as f64,
            "count",
        ));
    }
    metrics.extend([
        (
            "model.arrival_events",
            kind_stats(&first_kinds, "arrival").0 as f64,
            "count",
        ),
        ("strategies.cwn_ns_per_event", ns_per_event(cwn), "ns"),
        ("strategies.gm_ns_per_event", ns_per_event(gm), "ns"),
        (
            "open.arrival_ns",
            ns_per_event(kind_stats(&kinds, "arrival")),
            "ns",
        ),
        ("sim.arrivals", open(|o| o.arrivals), "count"),
        ("sim.completions", open(|o| o.completions), "count"),
        ("sim.shed", open(|o| o.shed), "count"),
        (
            "sim.abandoned",
            open(|o| o.abandoned_deadline + o.abandoned_retries),
            "count",
        ),
        ("sim.sojourn_p99_units", open(|o| o.sojourn_p99), "units"),
        ("checkpoint.encode_s", median(&encode_s), "s"),
        ("checkpoint.bytes", ckpt_bytes, "bytes"),
        ("checkpoint.resume_s", resume_s, "s"),
        ("sim.events", sum(|r| r.events), "count"),
        ("sim.goals", sum(|r| r.goals_created), "count"),
        ("sim.completion_units", sum(|r| r.completion_time), "units"),
        ("sim.avg_hops", hop_total / executed.max(1.0), "hops"),
        (
            "trace.overhead_frac",
            median(&traced_s) / median(&untraced_s) - 1.0,
            "ratio",
        ),
        ("trace.span_coverage", coverage, "ratio"),
        ("host.probe_ns", median(&probes), "ns"),
        ("failed_frac", failed as f64 / attempted as f64, "ratio"),
    ]);
    Ok(Outcome {
        correct: failed == 0 && identical && coverage >= MIN_SPAN_COVERAGE,
        attempted,
        failed,
        metrics,
    })
}
