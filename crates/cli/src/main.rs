//! `oracle-cli` — run the ORACLE load-distribution simulator from the
//! command line.
//!
//! ```text
//! oracle-cli run --topology grid:10 --strategy cwn:9x1 --workload fib:15 [--seed N] [--csv] [--series]
//! oracle-cli compare --topology grid:10 --workload fib:15 [--seed N]
//! oracle-cli topo-info grid:20 dlm:20 hypercube:7
//! oracle-cli list
//! ```

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use oracle::builder::paper_strategies;
use oracle::checkpoint::CheckpointError;
use oracle::prelude::*;
use oracle::table::{f1, f2};

/// `println!` into a `String`: every subcommand builds its whole output
/// and prints it with one [`print_all`]. Writing to a `String` cannot fail.
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {{
        let _ = writeln!($out, $($arg)*);
    }};
}

/// A classified command failure: `kind` is the machine-readable class in
/// the one-line stderr summary (`error[kind]: message`), `code` the
/// process exit code.
///
/// Exit codes: 0 success; 2 the simulation itself failed (invariant
/// violation, unplanned goal loss, stall, stagnation, event-limit); 3 the
/// run never started or could not be recorded (bad flags/specs/plans,
/// unreadable files, bad checkpoints).
#[derive(Debug)]
struct Failure {
    kind: &'static str,
    code: u8,
    message: String,
}

impl Failure {
    fn config(message: impl Into<String>) -> Failure {
        Failure {
            kind: "config",
            code: 3,
            message: message.into(),
        }
    }

    fn io(message: impl Into<String>) -> Failure {
        Failure {
            kind: "io",
            code: 3,
            message: message.into(),
        }
    }

    /// Prefix the message with the run label that failed.
    fn context(mut self, label: &str) -> Failure {
        self.message = format!("{label}: {}", self.message);
        self
    }
}

/// Flag/spec parse errors arriving as bare strings are configuration
/// errors.
impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure::config(message)
    }
}

/// Classify a simulation error by outcome class.
fn sim_failure(e: SimError) -> Failure {
    let kind = match &e {
        SimError::InvariantViolation { .. } => "invariant",
        SimError::GoalsLost { .. } => "goals-lost",
        SimError::Stalled { .. } => "stalled",
        SimError::Stagnation { .. } => "stagnation",
        SimError::EventLimit { .. } => "event-limit",
        SimError::InvalidConfig(_) => return Failure::config(e.to_string()),
    };
    Failure {
        kind,
        code: 2,
        message: e.to_string(),
    }
}

fn checkpoint_failure(e: CheckpointError) -> Failure {
    match e {
        CheckpointError::Sim(e) => sim_failure(e),
        CheckpointError::Io(e) => Failure::io(e.to_string()),
        CheckpointError::Format(m) => Failure {
            kind: "checkpoint",
            code: 3,
            message: m,
        },
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(3);
    };
    let result = match cmd.as_str() {
        "run" => cmd_run(&args[1..]),
        "compare" => cmd_compare(&args[1..]),
        "experiment" => cmd_experiment(&args[1..]),
        "batch" => cmd_batch(&args[1..]),
        "chaos" => cmd_chaos(&args[1..]),
        "trace-check" => cmd_trace_check(&args[1..]),
        "topo-info" => cmd_topo_info(&args[1..]),
        "list" => print_all(&list_text()),
        "--help" | "-h" | "help" => print_all(&format!("{USAGE}\n")),
        other => Err(Failure::config(format!(
            "unknown command {other:?}\n{USAGE}"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(f) => {
            eprintln!("error[{}]: {}", f.kind, f.message);
            ExitCode::from(f.code)
        }
    }
}

const USAGE: &str = "\
oracle-cli — ORACLE load-distribution simulator (Kale, ICPP 1988 reproduction)

commands:
  run       --topology T --strategy S --workload W [--seed N] [--csv]
            [--no-coprocessor] [--series]
            [--per-pe] [--state-mode auto|dense|sparse] [--load-period T]
            [--trace N] [--trace-out FILE]
            [--trace-format jsonl|chrome] [--trace-last N]
            [--series-out FILE] [--profile] [--heatmap FILE.ppm]
            [--faults PLAN|@FILE] [--audit-every N]
            [--checkpoint-every T [--checkpoint-dir DIR]] [--resume FILE]
            [--arrivals SPEC] [--duration T] [--warmup T]
            [--deadline T] [--retry MAXxBASE] [--admission POLICY]
            [--breaker COOLDOWN]
            run one simulation and print its report;
            --arrivals SPEC switches to open-system traffic: requests
            arrive per SPEC, each spawning one task tree of --workload,
            for --duration sim units (default 20000) with the first
            --warmup units (default duration/10) excluded from latency
            statistics;
            --deadline T abandons requests whose sojourn exceeds T (a
            completion past it is a dead loss, not a success);
            --retry MAXxBASE re-injects requests lost to crashes or link
            faults, up to MAX times with exponential backoff from BASE
            (jittered, from a dedicated RNG stream — deterministic);
            --admission POLICY sheds arrivals at the door: queue:N (total
            queued goals), util:F (mean utilization threshold), or
            bucket:RATExBURST (token bucket, RATE per 1000 units);
            --breaker COOLDOWN stops routing into a crashed neighborhood
            until COOLDOWN units after the region recovers;
            --trace-out exports the event trace (default format jsonl;
            chrome produces a Perfetto-loadable trace_event file);
            --trace-last N ring-buffers the *last* N events instead of
            keeping the first --trace N;
            --series-out writes the per-PE utilization series as CSV;
            --profile prints engine counters (per-event-kind counts and
            wall times, queue-depth high-water mark, control tags);
            --faults @FILE loads a plan file (blank/# lines ignored, one
            or more `+`-separated terms per line);
            --no-coprocessor models software message routing (PEs pay
            the routing cost themselves);
            --per-pe emits the O(num-PEs) per-PE report vectors (off by
            default: headline aggregates are O(1) in PE count);
            --state-mode forces the dense or sparse per-PE/channel state
            representation (auto, the default, goes sparse past 64 Ki
            PEs; both produce bit-identical reports);
            --load-period T sets the periodic load-broadcast period
            (default 40; 0 disables it, leaving piggy-backed load info
            only — each broadcast round costs O(num-PEs) events, which
            dominates the event stream on very large machines);
            --audit-every N checks runtime invariants every N events;
            --checkpoint-every T writes an atomic checkpoint every T sim
            time units (to --checkpoint-dir, default ./checkpoints);
            --resume FILE continues a checkpointed run to a bit-identical
            final report (config is embedded; only --csv may accompany it)
  trace-check FILE [--format jsonl|chrome]
            validate an exported trace file (well-formed JSON, required
            header fields, timestamps monotone per track); the format is
            sniffed from the file unless --format is given
  chaos     [--cases N] [--seed N] [--threads N] [--stall-secs S]
            [--audit-every N] [--out DIR]
            run a seeded chaos-fuzzing sweep (random fault plans thrown at
            random runs, auditor on, each case under a panic catcher and
            watchdog); shrunk reproducers are written to DIR; exits 2 if
            any case fails
  compare   --topology T --workload W [--seed N]
            run CWN vs the Gradient Model with the paper's parameters
  batch FILE [--csv] [--threads N] [--profile]
            run a suite file (lines of:
            TOPOLOGY STRATEGY WORKLOAD [seed=N] [faults=PLAN]
            [arrivals=SPEC] [duration=T] [warmup=T] [deadline=T]
            [retry=MAXxBASE] [admission=POLICY] [breaker=COOLDOWN]);
            --threads caps the worker pool (default: all cores; results
            are identical at any thread count);
            --profile profiles every run and prints the merged roll-up
  experiment NAME [--quick] [--seed N] [--threads N] [--json] [--csv]
            regenerate a paper table/figure or an extension study, printing
            exactly what regen_all writes to results/: table1 | table2 |
            table3 | plots-dc-grid | plots-dc-dlm | plots-fib |
            plots-time-grid | plots-time-dlm | appendix | ablations |
            seed-robustness | resilience (fault-injection extension) |
            capacity (open-traffic extension: binary-search the max
            sustainable Poisson arrival rate per strategy x topology
            holding a p99 sojourn target) | degradation (overload
            extension: goodput under overload x fault intensity,
            unprotected vs the full deadline+retry+admission+breaker
            stack; always checks that goodput degrades monotonically,
            every run conserves arrivals and some cell keeps >2x the
            unprotected goodput, exiting 2 on violation);
            --json prints only the JSON appendix (resilience, capacity,
            degradation); --csv prints only the tables, as CSV blocks
            separated by blank lines; either flag on an experiment
            without such a section is a configuration error
  topo-info T [T ...] [--dot]
            print PEs, channels, diameter, mean distance — or Graphviz DOT
  list      list the available spec grammars

spec grammars:
  topology: grid:10 | grid:4x6 | torus:8x8 | dlm:10 | dlm:5x20x20 |
            hypercube:7 | kary:4x3 | tree:2x5 | ring:16 | complete:8 |
            star:9 | bus:6
  strategy: cwn:RADIUSxHORIZON | gm:LWMxHWMxINTERVAL | acwn:RxHxSATxREDIST |
            local | random:HOPS | rr | steal[:RETRY] |
            diffusion[:INTERVALxTHRESHOLDxMAX] | global
  workload: fib:18 | dc:4181 | dc:1x4181 | lopsided:BUDGETxSKEW% |
            random:BUDGETxMAXCHILDxGRAINxSEED | cyclic:PHASESxWIDTHxLEAVES |
            tak:18x12x6
  arrivals: PROCESS[@EDGES] where PROCESS is poisson:RATE |
            burst:HIxLOxONxOFF | diurnal:PEAKxPERIOD | trace:PATH
            (rates are arrivals per 1000 time units) and EDGES is
            all | root | a comma-separated PE list
  faults:   `+`-separated terms of crash:PE@T | link:CH@DOWN..UP | loss:P% |
            slow:PE@FROM..UNTILxFACTOR | recover:TIMEOUTxRETRIES | none

parallelism: one run executes sequentially; --threads N spreads the
  independent runs of batch, experiment and chaos over N workers (default:
  all cores; 0 is rejected: \"--threads N (N >= 1; omit the flag for
  auto)\"); results are identical at any thread count.

exit codes: 0 success (saturation is a measured outcome, not a failure) |
            2 simulation failed (invariant violation or wrong answer,
            goals lost, stall, …) | 3 configuration or I/O error |
            4 overloaded (admission control shed the majority of
            arrivals) | 5 deadline exhausted (no request ever completed
            within its deadline)
            failures print one line to stderr: error[CLASS]: message";

/// The flags one subcommand accepts: each of `values` takes one argument,
/// each of `switches` takes none. `operands` says whether bare arguments
/// (not a flag, not a flag's value) are allowed.
struct FlagSpec {
    command: &'static str,
    values: &'static [&'static str],
    switches: &'static [&'static str],
    operands: bool,
}

const RUN_FLAGS: FlagSpec = FlagSpec {
    command: "run",
    values: &[
        "--topology",
        "--strategy",
        "--workload",
        "--seed",
        "--state-mode",
        "--load-period",
        "--trace",
        "--trace-out",
        "--trace-format",
        "--trace-last",
        "--series-out",
        "--heatmap",
        "--faults",
        "--audit-every",
        "--checkpoint-every",
        "--checkpoint-dir",
        "--resume",
        "--arrivals",
        "--duration",
        "--warmup",
        "--deadline",
        "--retry",
        "--admission",
        "--breaker",
    ],
    switches: &[
        "--csv",
        "--no-coprocessor",
        "--series",
        "--per-pe",
        "--profile",
    ],
    operands: false,
};

/// The `run` flags a `--resume` honours; every other `run` flag is part of
/// the configuration the checkpoint stores.
const RESUME_FLAGS: [&str; 2] = ["--resume", "--csv"];

const TRACE_CHECK_FLAGS: FlagSpec = FlagSpec {
    command: "trace-check",
    values: &["--format"],
    switches: &[],
    operands: false,
};

const CHAOS_FLAGS: FlagSpec = FlagSpec {
    command: "chaos",
    values: &[
        "--cases",
        "--seed",
        "--threads",
        "--stall-secs",
        "--audit-every",
        "--out",
    ],
    switches: &[],
    operands: false,
};

const COMPARE_FLAGS: FlagSpec = FlagSpec {
    command: "compare",
    values: &["--topology", "--workload", "--seed"],
    switches: &[],
    operands: false,
};

const BATCH_FLAGS: FlagSpec = FlagSpec {
    command: "batch",
    values: &["--threads"],
    switches: &["--csv", "--profile"],
    operands: false,
};

const EXPERIMENT_FLAGS: FlagSpec = FlagSpec {
    command: "experiment",
    values: &["--seed", "--threads"],
    switches: &["--quick", "--json", "--csv"],
    operands: false,
};

const TOPO_INFO_FLAGS: FlagSpec = FlagSpec {
    command: "topo-info",
    values: &[],
    switches: &["--dot"],
    operands: true,
};

/// `--flag value` pairs and switches of one subcommand's argument list,
/// checked against that subcommand's [`FlagSpec`].
struct Flags<'a> {
    args: &'a [String],
    /// Bare arguments, in order (only where the spec allows them).
    operands: Vec<&'a str>,
}

impl<'a> Flags<'a> {
    /// Check `args` against `spec`. An unknown flag, a value flag without
    /// its value or given twice, or a stray bare argument is a
    /// configuration error that names the offending argument — a misspelt,
    /// retired or repeated flag must never run something other than what
    /// was asked for.
    fn new(args: &'a [String], spec: &FlagSpec) -> Result<Flags<'a>, Failure> {
        let mut operands = Vec::new();
        let mut seen: Vec<&str> = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let arg = args[i].as_str();
            if spec.values.contains(&arg) {
                if seen.contains(&arg) {
                    return Err(Failure::config(format!("{arg} given more than once")));
                }
                seen.push(arg);
                match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => i += 2,
                    _ => return Err(Failure::config(format!("{arg} needs a value"))),
                }
                continue;
            }
            if spec.switches.contains(&arg) {
                // A switch: nothing to consume.
            } else if arg.starts_with('-') {
                return Err(Failure::config(format!(
                    "unknown flag {arg} for `{}`; see oracle-cli --help",
                    spec.command
                )));
            } else if spec.operands {
                operands.push(arg);
            } else {
                return Err(Failure::config(format!(
                    "unexpected argument {arg:?} for `{}`; see oracle-cli --help",
                    spec.command
                )));
            }
            i += 1;
        }
        Ok(Flags { args, operands })
    }

    fn value_of(&self, flag: &str) -> Option<&'a str> {
        self.args
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    fn parse<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.value_of(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("{flag} {v:?}: {e}")),
        }
    }
}

/// Apply the shared `--threads N` flag: cap the worker pool every batch in
/// this process uses. Thread count changes wall clock only, never results.
fn apply_threads(flags: &Flags) -> Result<(), String> {
    match flags.value_of("--threads") {
        None => oracle::runner::clear_default_threads(),
        Some(v) => {
            let threads: usize = v.parse().map_err(|e| format!("--threads {v:?}: {e}"))?;
            if threads == 0 {
                return Err(format!(
                    "--threads must be at least 1 ({})",
                    oracle::runner::THREADS_GRAMMAR
                ));
            }
            oracle::runner::set_default_threads(threads);
        }
    }
    Ok(())
}

/// Resolve `--faults`: a plan string, or `@FILE` naming a plan file whose
/// non-comment lines are joined with `+` (so a file may list one term per
/// line — the format chaos reproducers are written in).
fn parse_faults_flag(flags: &Flags) -> Result<oracle::model::FaultPlan, Failure> {
    let Some(value) = flags.value_of("--faults") else {
        return Ok(oracle::model::FaultPlan::none());
    };
    let text = match value.strip_prefix('@') {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| Failure::io(format!("--faults {path}: {e}")))?,
        None => value.to_string(),
    };
    let terms: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    if terms.is_empty() {
        return Ok(oracle::model::FaultPlan::none());
    }
    terms
        .join("+")
        .parse()
        .map_err(|e: oracle::model::faults::ParseFaultPlanError| {
            Failure::config(format!("--faults: {e}"))
        })
}

/// Default trace capacity when an export was requested but no explicit
/// `--trace`/`--trace-last` bound was given: ample for the paper-scale
/// runs, still bounded.
const DEFAULT_EXPORT_TRACE_CAP: usize = 1_000_000;

/// Resolve the open-traffic flags (`--arrivals`, `--duration`, ...) into
/// the machine's traffic config, through the parser suite lines share.
fn parse_open_flags(flags: &Flags) -> Result<Option<OpenTraffic>, Failure> {
    oracle::runner::parse_open_traffic(
        |field| flags.value_of(&format!("--{field}")),
        |field| format!("--{field}"),
    )
    .map_err(Failure::config)
}

/// Classify a degraded open-traffic outcome after its report was printed:
/// `Overloaded` and `DeadlineExhausted` earn their own exit codes so CI can
/// branch on them, while `Saturated` stays a success (the trip wire is the
/// capacity search's measurement instrument, not a failure).
fn open_outcome_failure(report: &Report) -> Result<(), Failure> {
    match report.open.as_ref().map(|o| &o.outcome) {
        Some(OpenOutcome::Overloaded { shed, arrivals }) => Err(Failure {
            kind: "overloaded",
            code: 4,
            message: format!(
                "admission control shed the majority of arrivals ({shed} of {arrivals})"
            ),
        }),
        Some(OpenOutcome::DeadlineExhausted { abandoned }) => Err(Failure {
            kind: "deadline-exhausted",
            code: 5,
            message: format!(
                "no request ever completed within its deadline ({abandoned} abandoned)"
            ),
        }),
        _ => Ok(()),
    }
}

fn cmd_run(args: &[String]) -> Result<(), Failure> {
    let flags = Flags::new(args, &RUN_FLAGS)?;
    let mut trace_cap: usize = flags.parse("--trace", 0)?;
    let trace_last: usize = flags.parse("--trace-last", 0)?;
    let trace_out = flags.value_of("--trace-out");
    let trace_format: TraceFormat = flags.parse("--trace-format", TraceFormat::Jsonl)?;
    let series_out = flags.value_of("--series-out");
    let trace_mode = if trace_last > 0 {
        trace_cap = trace_cap.max(trace_last);
        TraceMode::KeepLast
    } else {
        TraceMode::KeepFirst
    };
    if trace_out.is_some() && trace_cap == 0 {
        trace_cap = DEFAULT_EXPORT_TRACE_CAP;
    }
    let heatmap_path = flags.value_of("--heatmap");
    let checkpoint_every: u64 = flags.parse("--checkpoint-every", 0)?;
    if flags.has("--trace-format") && trace_out.is_none() {
        return Err(Failure::config(
            "--trace-format applies only with --trace-out",
        ));
    }
    if flags.has("--checkpoint-dir") && checkpoint_every == 0 {
        return Err(Failure::config(
            "--checkpoint-dir applies only with --checkpoint-every",
        ));
    }

    if let Some(path) = flags.value_of("--resume") {
        // The checkpoint stores the whole run configuration; a flag that
        // would change it must not be silently dropped.
        let mut all = RUN_FLAGS.values.iter().chain(RUN_FLAGS.switches);
        if let Some(flag) = all.find(|&&f| !RESUME_FLAGS.contains(&f) && flags.has(f)) {
            return Err(Failure::config(format!(
                "{flag} does not apply with --resume, which replays the checkpointed configuration"
            )));
        }
        let (config, report) = oracle::checkpoint::resume_run(Path::new(path))
            .map_err(|e| checkpoint_failure(e).context(path))?;
        let mut out = String::new();
        outln!(
            out,
            "resumed {} on {} under {} from {path}",
            config.workload,
            config.topology,
            config.strategy
        );
        out.push_str(&report_text(&report, &flags));
        print_all(&out)?;
        return open_outcome_failure(&report);
    }

    let topology: TopologySpec = flags.parse("--topology", TopologySpec::grid(10))?;
    let strategy: StrategySpec = flags.parse("--strategy", StrategySpec::cwn_paper(true))?;
    let workload: WorkloadSpec = flags.parse("--workload", WorkloadSpec::fib(15))?;
    let open = parse_open_flags(&flags)?;
    let seed: u64 = flags.parse("--seed", 1)?;
    let audit_every: u64 = flags.parse("--audit-every", 0)?;
    let faults = parse_faults_flag(&flags)?;

    let mut machine_cfg = MachineConfig {
        audit_every,
        trace_capacity: trace_cap,
        trace_mode,
        profile: flags.has("--profile"),
        fault_plan: faults,
        open,
        ..MachineConfig::default()
    };
    machine_cfg.seed = seed;
    machine_cfg.coprocessor = !flags.has("--no-coprocessor");
    machine_cfg.per_pe_series =
        flags.has("--series") || heatmap_path.is_some() || series_out.is_some();
    machine_cfg.per_pe_metrics = flags.has("--per-pe");
    machine_cfg.state_mode = match flags.value_of("--state-mode").unwrap_or("auto") {
        "auto" => StateMode::Auto,
        "dense" => StateMode::Dense,
        "sparse" => StateMode::Sparse,
        other => {
            return Err(Failure::config(format!(
                "--state-mode {other}: expected auto, dense, or sparse"
            )))
        }
    };
    if let Some(v) = flags.value_of("--load-period") {
        let period: u64 = v
            .parse()
            .map_err(|e| Failure::config(format!("--load-period {v:?}: {e}")))?;
        machine_cfg.load_info = oracle::model::LoadInfoMode::Piggyback { period };
    }
    let config = SimulationBuilder::new()
        .topology(topology)
        .strategy(strategy)
        .workload(workload)
        .machine(machine_cfg)
        .config();

    if checkpoint_every > 0 {
        if trace_cap > 0 || heatmap_path.is_some() {
            return Err(Failure::config(
                "--checkpoint-every does not combine with --trace/--heatmap",
            ));
        }
        let dir = flags.value_of("--checkpoint-dir").unwrap_or("checkpoints");
        let run =
            oracle::checkpoint::run_with_checkpoints(&config, checkpoint_every, Path::new(dir))
                .map_err(checkpoint_failure)?;
        let mut out = String::new();
        for path in &run.checkpoints {
            outln!(out, "checkpoint: {}", path.display());
        }
        out.push_str(&report_text(&run.report, &flags));
        print_all(&out)?;
        return open_outcome_failure(&run.report);
    }

    let (report, trace) = config.run_traced().map_err(sim_failure)?;
    let mut out = String::new();
    if let Some(path) = trace_out {
        let text = export_trace(&trace, &report, trace_format);
        std::fs::write(path, &text).map_err(|e| Failure::io(format!("writing {path}: {e}")))?;
        outln!(
            out,
            "wrote {trace_format} trace to {path} ({} events, {} dropped)",
            trace.len(),
            trace.dropped()
        );
    }
    if let Some(path) = series_out {
        let csv = export_series_csv(&report);
        std::fs::write(path, &csv).map_err(|e| Failure::io(format!("writing {path}: {e}")))?;
        outln!(
            out,
            "wrote utilization series to {path} ({} intervals x {} PEs)",
            report.util_series.len(),
            report.num_pes
        );
    }
    if let Some(path) = heatmap_path {
        let series = report
            .per_pe_series
            .as_ref()
            .expect("per-PE series was requested");
        let img = oracle::heatmap::render(series, 4);
        img.write_to(path)
            .map_err(|e| Failure::io(format!("writing {path}: {e}")))?;
        outln!(
            out,
            "wrote load-monitor heatmap to {path} ({}x{} px)",
            img.width(),
            img.height()
        );
    }

    out.push_str(&report_text(&report, &flags));
    let (which, what) = match trace.mode() {
        TraceMode::KeepFirst => ("first", "dropped past capacity"),
        TraceMode::KeepLast => ("last", "overwritten (ring mode)"),
    };
    if trace.dropped() > 0 {
        outln!(
            out,
            "warning: trace truncated — {} of {} events {what}",
            trace.dropped(),
            trace.dropped() + trace.len() as u64
        );
    }
    // Print the trace inline only when it was explicitly requested for the
    // terminal (exported traces can be huge).
    if trace_cap > 0 && trace_out.is_none() {
        outln!(out, "\nevent trace ({which} {} events):", trace.len());
        out.push_str(&trace.render());
    }
    print_all(&out)?;
    open_outcome_failure(&report)
}

/// `trace-check FILE [--format jsonl|chrome]` — structural validation of an
/// exported trace (CI runs this against freshly exported files).
fn cmd_trace_check(args: &[String]) -> Result<(), Failure> {
    let Some(path) = args.first().filter(|a| !a.starts_with('-')) else {
        return Err(Failure::config("trace-check needs a trace file"));
    };
    let flags = Flags::new(&args[1..], &TRACE_CHECK_FLAGS)?;
    let text = std::fs::read_to_string(path).map_err(|e| Failure::io(format!("{path}: {e}")))?;
    let format = match flags.value_of("--format") {
        Some(f) => f.parse::<TraceFormat>().map_err(Failure::config)?,
        None => oracle::traceio::sniff_format(&text),
    };
    let summary = validate_trace(&text, format).map_err(|e| Failure {
        kind: "trace",
        code: 3,
        message: format!("{path}: {e}"),
    })?;
    print_all(&format!(
        "{path}: valid {format} trace — {} events, {} tracks, {} dropped\n",
        summary.events, summary.tracks, summary.dropped
    ))
}

/// The `run` report as one `metric`/`value` table: the closed-run rows, the
/// fault rows when any fault fired, and the open-traffic rows for an open
/// run. Utilizations are the fractions in [0, 1] the model reports.
fn report_table(report: &Report) -> Table {
    let mut table = Table::new(
        format!(
            "{} on {} under {}",
            report.program, report.topology, report.strategy
        ),
        &["metric", "value"],
    );
    let mut row = |metric: &str, value: String| {
        table.row(vec![metric.to_string(), value]);
    };
    row("strategy", report.strategy.clone());
    row("topology", report.topology.clone());
    row("program", report.program.clone());
    row("num_pes", report.num_pes.to_string());
    row("completion_time", report.completion_time.to_string());
    row("result", report.result.to_string());
    row("goals", report.goals_executed.to_string());
    row("avg_utilization", format!("{:.5}", report.avg_utilization));
    row("speedup", format!("{:.3}", report.speedup));
    row(
        "avg_goal_distance",
        format!("{:.3}", report.avg_goal_distance),
    );
    row("hop_overflow", report.hop_overflow.to_string());
    row("goal_hops", report.traffic.goal_hops.to_string());
    row("response_hops", report.traffic.response_hops.to_string());
    row("control_msgs", report.traffic.control_msgs.to_string());
    row("load_updates", report.traffic.load_updates.to_string());
    row("events", report.events.to_string());
    let f = &report.faults;
    if f.any() {
        row("pes_crashed", f.pes_crashed.to_string());
        row("goals_lost", f.goals_lost.to_string());
        row("goals_respawned", f.goals_respawned.to_string());
        row("messages_dropped", f.messages_dropped.to_string());
        row("duplicate_responses", f.duplicate_responses.to_string());
        row("retries_exhausted", f.retries_exhausted.to_string());
    }
    if let Some(o) = &report.open {
        match o.outcome {
            OpenOutcome::Completed => row("open_outcome", "completed".into()),
            OpenOutcome::Saturated { at, inflight } => {
                row("open_outcome", "saturated".into());
                row("saturated_at", at.to_string());
                row("saturated_inflight", inflight.to_string());
            }
            OpenOutcome::Overloaded { shed, arrivals } => {
                row("open_outcome", "overloaded".into());
                row("overloaded_shed", shed.to_string());
                row("overloaded_arrivals", arrivals.to_string());
            }
            OpenOutcome::DeadlineExhausted { abandoned } => {
                row("open_outcome", "deadline-exhausted".into());
                row("deadline_abandoned", abandoned.to_string());
            }
        }
        row("open_duration", o.duration.to_string());
        row("open_warmup", o.warmup.to_string());
        row("arrivals_total", o.arrivals.to_string());
        row("completions_total", o.completions.to_string());
        row("completions_measured", o.completions_measured.to_string());
        row("inflight_at_end", o.inflight_at_end.to_string());
        row("offered_rate", format!("{:.4}", o.offered_rate));
        row("throughput", format!("{:.4}", o.throughput));
        row("goodput", format!("{:.4}", o.goodput));
        if let Some(d) = o.deadline {
            row("deadline", d.to_string());
        }
        row("shed", o.shed.to_string());
        row("shed_rate", format!("{:.4}", o.shed_rate));
        row("abandoned_deadline", o.abandoned_deadline.to_string());
        row("abandoned_retries", o.abandoned_retries.to_string());
        row("abandonment_rate", format!("{:.4}", o.abandonment_rate));
        row("retries", o.retries.to_string());
        row("breaker_opens", o.breaker_opens.to_string());
        row("sojourn_mean", format!("{:.2}", o.sojourn_mean));
        row("sojourn_p50", o.sojourn_p50.to_string());
        row("sojourn_p95", o.sojourn_p95.to_string());
        row("sojourn_p99", o.sojourn_p99.to_string());
        row("sojourn_max", o.sojourn_max.to_string());
        row("qlen_time_avg", format!("{:.2}", o.qlen_time_avg));
        row("qlen_p95", o.qlen_p95.to_string());
    }
    table
}

/// What `run` prints for `report`: its [`report_table`] as CSV (`--csv`)
/// or aligned text, then the `--series` and `--profile` appendices.
fn report_text(report: &Report, flags: &Flags) -> String {
    let table = report_table(report);
    let mut out = if flags.has("--csv") {
        table.to_csv()
    } else {
        table.to_string()
    };
    if flags.has("--series") {
        outln!(out, "\nutilization over time (interval start, %):");
        for (t, u) in &report.util_series {
            outln!(out, "  {t},{:.1}", u * 100.0);
        }
    }
    if let Some(profile) = &report.profile {
        outln!(out, "\nengine profile:");
        out.push_str(&profile.render());
    }
    out
}

/// Chaos-fuzzing sweep frontend over [`oracle::chaos`].
fn cmd_chaos(args: &[String]) -> Result<(), Failure> {
    let flags = Flags::new(args, &CHAOS_FLAGS)?;
    // The sweep's worker count defaults to `default_threads`, which
    // `--threads` sets.
    apply_threads(&flags)?;
    let mut config = oracle::chaos::ChaosConfig::default();
    config.cases = flags.parse("--cases", config.cases)?;
    config.seed = flags.parse("--seed", config.seed)?;
    config.audit_every = flags.parse("--audit-every", config.audit_every)?;
    let stall_secs: u64 = flags.parse("--stall-secs", config.stall_timeout.as_secs())?;
    config.stall_timeout = std::time::Duration::from_secs(stall_secs);
    let out_dir = flags.value_of("--out");

    let mut out = String::new();
    outln!(
        out,
        "chaos sweep: {} cases, master seed {}, {} threads, auditor every {} events",
        config.cases,
        config.seed,
        config.threads,
        config.audit_every
    );
    let report = oracle::chaos::run_chaos(&config);
    for (case, outcome) in &report.outcomes {
        outln!(out, "  {} -> {outcome}", case.label());
    }
    outln!(
        out,
        "chaos summary: {} completed, {} contained, {} failures",
        report.count("completed"),
        report.count("contained"),
        report.failures.len()
    );
    // The sweep's lines are printed even when saving a reproducer fails.
    let saved = match out_dir {
        Some(dir) => save_reproducers(dir, &report.failures, &mut out),
        None => Ok(()),
    };
    print_all(&out)?;
    saved?;
    if let Some(worst) = report.failures.first() {
        return Err(Failure {
            kind: "chaos",
            code: 2,
            message: format!(
                "{} of {} cases failed; first: {} -> {}",
                report.failures.len(),
                config.cases,
                worst.shrunk.suite_line(),
                worst.shrunk_outcome
            ),
        });
    }
    Ok(())
}

/// Write each failure's shrunk reproducer into `dir` (created even when
/// nothing failed), noting each file written in `out`.
fn save_reproducers(
    dir: &str,
    failures: &[oracle::chaos::ChaosFailure],
    out: &mut String,
) -> Result<(), Failure> {
    std::fs::create_dir_all(dir).map_err(|e| Failure::io(format!("{dir}: {e}")))?;
    for failure in failures {
        let path = format!("{dir}/chaos-repro-{:03}.suite", failure.case.index);
        std::fs::write(&path, failure.reproducer())
            .map_err(|e| Failure::io(format!("{path}: {e}")))?;
        outln!(out, "wrote reproducer {path}");
    }
    Ok(())
}

fn cmd_experiment(args: &[String]) -> Result<(), Failure> {
    print_all(&experiment_text(args)?)
}

/// `experiment NAME` — render one entry of the experiment registry: the
/// same bytes `regen_all` writes to `results/`, or only its JSON appendix
/// (`--json`) or its tables as CSV (`--csv`).
fn experiment_text(args: &[String]) -> Result<String, Failure> {
    use oracle::experiments::{registry, Fidelity};

    let Some(name) = args.first() else {
        return Err(Failure::config(
            "experiment needs a name (e.g. table2); see --help",
        ));
    };
    let flags = Flags::new(&args[1..], &EXPERIMENT_FLAGS)?;
    let experiment = registry::find(name)
        .ok_or_else(|| Failure::config(format!("unknown experiment {name:?}; see --help")))?;
    let (json, csv) = (flags.has("--json"), flags.has("--csv"));
    if json && csv {
        return Err(Failure::config("--json and --csv are mutually exclusive"));
    }
    let fidelity = if flags.has("--quick") {
        Fidelity::Quick
    } else {
        Fidelity::Paper
    };
    let seed: u64 = flags.parse("--seed", 1)?;
    apply_threads(&flags)?;

    let output = (experiment.run)(fidelity, seed).map_err(|message| Failure {
        kind: "experiment",
        code: 2,
        message: format!("{name}: {message}"),
    })?;
    if json {
        output
            .json()
            .ok_or_else(|| Failure::config(format!("experiment {name} has no JSON section")))
    } else if csv {
        output
            .csv()
            .ok_or_else(|| Failure::config(format!("experiment {name} has no table")))
    } else {
        Ok(output.text())
    }
}

/// Write `text` to stdout in one go. A reader that went away early (`|
/// head`) is not an error: the exit stays 0 and nothing reaches stderr.
#[cfg(not(test))]
fn print_all(text: &str) -> Result<(), Failure> {
    use std::io::Write as _;
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(Failure::io(format!("stdout: {e}")))
        }
        _ => Ok(()),
    }
}

/// Unit tests call the subcommands in-process; `print!` keeps their output
/// in the test harness's capture instead of on the real stdout.
#[cfg(test)]
fn print_all(text: &str) -> Result<(), Failure> {
    print!("{text}");
    Ok(())
}

/// One run's row in the `batch` and `compare` tables: the label, then
/// speedup, utilization %, completion time and mean goal distance.
fn summary_row(label: String, r: &Report) -> Vec<String> {
    vec![
        label,
        f2(r.speedup),
        f1(r.avg_utilization * 100.0),
        r.completion_time.to_string(),
        f2(r.avg_goal_distance),
    ]
}

fn cmd_batch(args: &[String]) -> Result<(), Failure> {
    let Some(path) = args.first().filter(|a| !a.starts_with('-')) else {
        return Err(Failure::config("batch needs a suite file"));
    };
    let flags = Flags::new(&args[1..], &BATCH_FLAGS)?;
    apply_threads(&flags)?;
    let text = std::fs::read_to_string(path).map_err(|e| Failure::io(format!("{path}: {e}")))?;
    let mut specs = oracle::runner::parse_suite(&text)?;
    let profile = flags.has("--profile");
    if profile {
        for spec in &mut specs {
            spec.config.machine.profile = true;
        }
    }
    let mut table = Table::new(
        format!("suite {path} ({} runs)", specs.len()),
        &["run", "speedup", "util %", "time", "avg dist"],
    );
    let mut rollup = oracle::des::ProfileReport::default();
    for (label, result) in run_batch(&specs) {
        let r = result.map_err(|e| sim_failure(e).context(&label))?;
        table.row(summary_row(label, &r));
        if let Some(p) = &r.profile {
            rollup.merge(p);
        }
    }
    let mut out = if flags.has("--csv") {
        table.to_csv()
    } else {
        format!("{table}\n")
    };
    if profile {
        outln!(out, "\nbatch engine profile (all runs merged):");
        out.push_str(&rollup.render());
    }
    print_all(&out)
}

fn cmd_compare(args: &[String]) -> Result<(), Failure> {
    let flags = Flags::new(args, &COMPARE_FLAGS)?;
    let topology: TopologySpec = flags.parse("--topology", TopologySpec::grid(10))?;
    let workload: WorkloadSpec = flags.parse("--workload", WorkloadSpec::fib(15))?;
    let seed: u64 = flags.parse("--seed", 1)?;
    let (cwn, gm) = paper_strategies(&topology);

    let specs = vec![
        RunSpec::new(
            "CWN",
            SimulationBuilder::new()
                .topology(topology)
                .strategy(cwn)
                .workload(workload)
                .seed(seed)
                .config(),
        ),
        RunSpec::new(
            "GM",
            SimulationBuilder::new()
                .topology(topology)
                .strategy(gm)
                .workload(workload)
                .seed(seed)
                .config(),
        ),
    ];
    let results = run_batch(&specs);
    let mut table = Table::new(
        format!("{workload} on {topology} ({} PEs)", topology.num_pes()),
        &["scheme", "speedup", "util %", "time", "avg dist"],
    );
    let mut speedups = Vec::new();
    for (label, result) in results {
        let r = result.map_err(|e| sim_failure(e).context(&label))?;
        speedups.push(r.speedup);
        table.row(summary_row(label, &r));
    }
    print_all(&format!(
        "{table}\nspeedup of CWN over GM: {:.2}\n",
        speedups[0] / speedups[1]
    ))
}

fn cmd_topo_info(args: &[String]) -> Result<(), Failure> {
    let flags = Flags::new(args, &TOPO_INFO_FLAGS)?;
    if flags.operands.is_empty() {
        return Err(Failure::config(
            "topo-info needs at least one topology spec",
        ));
    }
    let specs = flags
        .operands
        .iter()
        .map(|arg| arg.parse::<TopologySpec>().map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    // `--dot` prints Graphviz for each spec instead of the table.
    if flags.has("--dot") {
        let dots: Vec<String> = specs.iter().map(|spec| spec.build().to_dot()).collect();
        return print_all(&dots.concat());
    }
    let mut table = Table::new(
        "Topology characteristics",
        &[
            "topology",
            "PEs",
            "channels",
            "diameter",
            "mean dist",
            "min deg",
            "max deg",
        ],
    );
    for spec in specs {
        let t = spec.build();
        let (min_deg, max_deg) = t
            .pes()
            .map(|pe| t.degree(pe))
            .fold((usize::MAX, 0), |(lo, hi), d| (lo.min(d), hi.max(d)));
        table.row(vec![
            spec.to_string(),
            t.num_pes().to_string(),
            t.num_channels().to_string(),
            t.diameter().to_string(),
            f2(t.mean_distance()),
            min_deg.to_string(),
            max_deg.to_string(),
        ]);
    }
    print_all(&format!("{table}\n"))
}

fn list_text() -> String {
    let mut out = String::new();
    outln!(out, "{USAGE}");
    outln!(out, "\npaper presets (Table 1):");
    outln!(out, "  grids:          cwn:9x1   gm:1x2x20");
    outln!(out, "  lattice-meshes: cwn:5x1   gm:1x1x20");
    outln!(
        out,
        "\npaper configurations: grid/dlm sides 5, 8, 10, 16, 20; fib 7-18; dc 21-4181"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// Every subcommand's flag spec, for the USAGE cross-checks.
    const ALL_SPECS: [&FlagSpec; 7] = [
        &RUN_FLAGS,
        &TRACE_CHECK_FLAGS,
        &CHAOS_FLAGS,
        &COMPARE_FLAGS,
        &BATCH_FLAGS,
        &EXPERIMENT_FLAGS,
        &TOPO_INFO_FLAGS,
    ];

    /// The `--flags` mentioned in the USAGE block of `command`: from its
    /// `  command` line up to the next command line or blank line.
    fn usage_flags(command: &str) -> Vec<String> {
        let mut lines = USAGE.lines().skip_while(|l| {
            !(l.starts_with("  ") && l[2..].split_whitespace().next() == Some(command))
        });
        let first = lines.next().expect("command has a USAGE block");
        let mut flags = Vec::new();
        let block = std::iter::once(first)
            .chain(lines.take_while(|l| l.starts_with("            ")))
            .collect::<Vec<_>>()
            .join("\n");
        for (at, _) in block.match_indices("--") {
            let name: String = block[at..]
                .chars()
                .take_while(|c| *c == '-' || c.is_ascii_lowercase())
                .collect();
            if !flags.contains(&name) {
                flags.push(name);
            }
        }
        flags
    }

    #[test]
    fn value_of_finds_pairs() {
        let a = flags(&["--seed", "42", "--csv"]);
        let f = Flags::new(&a, &RUN_FLAGS).unwrap();
        assert_eq!(f.value_of("--seed"), Some("42"));
        assert_eq!(f.value_of("--topology"), None);
        assert!(f.has("--csv"));
        assert!(!f.has("--series"));
    }

    #[test]
    fn parse_uses_defaults_and_values() {
        let a = flags(&["--seed", "7"]);
        let f = Flags::new(&a, &RUN_FLAGS).unwrap();
        assert_eq!(f.parse("--seed", 1u64).unwrap(), 7);
        assert_eq!(f.parse("--trace", 0usize).unwrap(), 0);
    }

    #[test]
    fn unknown_flags_and_missing_values_are_config_errors() {
        let cases: [(&[&str], &FlagSpec, &str); 6] = [
            (&["--shards", "2"], &RUN_FLAGS, "--shards"),
            (&["--bogus-flag", "3"], &RUN_FLAGS, "--bogus-flag"),
            (&["--seed"], &RUN_FLAGS, "--seed"),
            (&["--seed", "--csv"], &RUN_FLAGS, "--seed"),
            (&["--frobnicate"], &BATCH_FLAGS, "--frobnicate"),
            (&["stray"], &COMPARE_FLAGS, "stray"),
        ];
        for (args, spec, named) in cases {
            let a = flags(args);
            let err = Flags::new(&a, spec).err().expect("must be rejected");
            assert_eq!((err.kind, err.code), ("config", 3), "{args:?}");
            assert!(err.message.contains(named), "{args:?}: {}", err.message);
        }
        // Through the subcommands themselves.
        let err = cmd_run(&flags(&["--shards", "2"])).unwrap_err();
        assert_eq!((err.kind, err.code), ("config", 3));
        assert!(err.message.contains("--shards"), "{}", err.message);
        let err = cmd_run(&flags(&["--topology", "grid:4", "--seed"])).unwrap_err();
        assert_eq!((err.kind, err.code), ("config", 3));
        assert!(err.message.contains("--seed"), "{}", err.message);
        let err = cmd_batch(&flags(&["suites/none.txt", "--frobnicate"])).unwrap_err();
        assert_eq!((err.kind, err.code), ("config", 3));
        assert!(err.message.contains("--frobnicate"), "{}", err.message);
        for args in [&["--shards", "2"][..], &["--quick", "--shards", "2"]] {
            let mut a = flags(&["table3"]);
            a.extend(flags(args));
            let err = cmd_experiment(&a).unwrap_err();
            assert!(err.message.contains("--shards"), "{}", err.message);
        }
        let err = cmd_chaos(&flags(&["--shards", "auto"])).unwrap_err();
        assert!(err.message.contains("--shards"), "{}", err.message);
    }

    #[test]
    fn repeated_value_flags_are_config_errors() {
        let a = flags(&["--topology", "grid:6", "--topology", "grid:4", "--csv"]);
        let err = Flags::new(&a, &RUN_FLAGS).err().expect("must be rejected");
        assert_eq!((err.kind, err.code), ("config", 3));
        assert!(err.message.contains("--topology"), "{}", err.message);
        let err = cmd_run(&a).unwrap_err();
        assert_eq!((err.kind, err.code), ("config", 3));
        // A repeated switch is harmless and stays accepted.
        Flags::new(&flags(&["--csv", "--csv"]), &RUN_FLAGS).expect("switches may repeat");
    }

    #[test]
    fn suite_fields_and_run_flags_build_the_same_traffic() {
        let line = "grid:4 cwn:4x1 fib:8 arrivals=poisson:3@root duration=4000 warmup=300 \
                    deadline=900 retry=3x100 admission=bucket:12x5 breaker=400\n";
        let from_suite = oracle::runner::parse_suite(line).unwrap()[0]
            .config
            .machine
            .open
            .clone();
        let a = flags(&[
            "--arrivals",
            "poisson:3@root",
            "--duration",
            "4000",
            "--warmup",
            "300",
            "--deadline",
            "900",
            "--retry",
            "3x100",
            "--admission",
            "bucket:12x5",
            "--breaker",
            "400",
        ]);
        let from_flags = parse_open_flags(&Flags::new(&a, &RUN_FLAGS).unwrap()).unwrap();
        assert!(from_flags.is_some());
        assert_eq!(from_suite, from_flags);
    }

    #[test]
    fn usage_and_flag_specs_agree() {
        for spec in ALL_SPECS {
            let listed = usage_flags(spec.command);
            // Every flag the help text lists for a subcommand parses...
            for flag in &listed {
                assert!(
                    spec.values.contains(&flag.as_str()) || spec.switches.contains(&flag.as_str()),
                    "USAGE lists {flag} for `{}` but the parser rejects it",
                    spec.command
                );
            }
            // ...and every flag the parser takes is documented there.
            for flag in spec.values.iter().chain(spec.switches) {
                assert!(
                    listed.iter().any(|l| l == flag),
                    "`{}` accepts {flag} but USAGE does not list it",
                    spec.command
                );
            }
        }
        assert!(usage_flags("run").contains(&"--no-coprocessor".to_string()));
        assert!(!USAGE.contains("--shards"));
    }

    #[test]
    fn parse_reports_bad_values() {
        let a = flags(&["--seed", "xyz"]);
        let f = Flags::new(&a, &RUN_FLAGS).unwrap();
        let err = f.parse("--seed", 1u64).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        assert!(err.contains("xyz"), "{err}");
    }

    #[test]
    fn run_command_smoke() {
        let a = flags(&[
            "--topology",
            "ring:4",
            "--strategy",
            "local",
            "--workload",
            "fib:6",
            "--csv",
        ]);
        cmd_run(&a).expect("run should succeed");
    }

    #[test]
    fn compare_command_smoke() {
        let a = flags(&["--topology", "grid:4", "--workload", "fib:8"]);
        cmd_compare(&a).expect("compare should succeed");
    }

    #[test]
    fn topo_info_rejects_empty_and_bad_specs() {
        assert!(cmd_topo_info(&[]).is_err());
        assert!(cmd_topo_info(&flags(&["nonsense:9"])).is_err());
        cmd_topo_info(&flags(&["grid:4"])).expect("valid spec");
    }

    #[test]
    fn batch_command_runs_a_suite() {
        let path = std::env::temp_dir().join("oracle_cli_suite_test.txt");
        std::fs::write(&path, "grid:4 cwn:4x1 fib:9\nring:4 local fib:8 seed=2\n").unwrap();
        cmd_batch(&flags(&[path.to_str().unwrap(), "--csv"])).expect("suite runs");
        let err = cmd_batch(&[]).unwrap_err();
        assert!(err.message.contains("suite file"));
        assert_eq!((err.kind, err.code), ("config", 3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_command_open_arrivals_smoke() {
        let a = flags(&[
            "--topology",
            "grid:4",
            "--strategy",
            "cwn:4x1",
            "--workload",
            "fib:8",
            "--arrivals",
            "poisson:4",
            "--duration",
            "2000",
            "--warmup",
            "200",
            "--csv",
        ]);
        cmd_run(&a).expect("open run should succeed");
    }

    #[test]
    fn open_flags_are_validated_as_config_errors() {
        // Bad arrival spec: config error (exit 3), message names the token
        // and quotes the grammar.
        let err = cmd_run(&flags(&["--arrivals", "poisson:-3"])).unwrap_err();
        assert_eq!((err.kind, err.code), ("config", 3));
        assert!(err.message.contains("\"-3\""), "{}", err.message);
        assert!(err.message.contains("PROCESS[@EDGES]"), "{}", err.message);
        // Open traffic has one spelling, `--arrivals`: `open:` is not a
        // workload.
        let err = cmd_run(&flags(&["--workload", "open:poisson:4/fib:8"])).unwrap_err();
        assert_eq!((err.kind, err.code), ("config", 3));
        // Windows without any arrival process are meaningless.
        let err = cmd_run(&flags(&["--duration", "500"])).unwrap_err();
        assert!(err.message.contains("--arrivals"), "{}", err.message);
    }

    #[test]
    fn experiment_capacity_quick_smoke() {
        cmd_experiment(&flags(&["capacity", "--quick"])).expect("capacity quick");
        cmd_experiment(&flags(&["capacity", "--quick", "--json"])).expect("capacity json");
    }

    #[test]
    fn experiment_degradation_quick_smoke() {
        cmd_experiment(&flags(&["degradation", "--quick"])).expect("degradation quick");
        cmd_experiment(&flags(&["degradation", "--quick", "--json"])).expect("degradation json");
    }

    #[test]
    fn run_command_overload_flags_smoke() {
        let a = flags(&[
            "--topology",
            "grid:4",
            "--strategy",
            "cwn:4x1",
            "--workload",
            "fib:8",
            "--arrivals",
            "poisson:4",
            "--duration",
            "2000",
            "--warmup",
            "200",
            "--deadline",
            "1500",
            "--retry",
            "2x100",
            "--admission",
            "queue:32",
            "--breaker",
            "300",
            "--faults",
            "crash:5@600",
            "--csv",
        ]);
        cmd_run(&a).expect("a lightly loaded protected run completes");
    }

    #[test]
    fn overload_flags_require_arrivals_and_valid_grammars() {
        for flag in ["--deadline", "--retry", "--admission", "--breaker"] {
            let err = cmd_run(&flags(&[flag, "1x1"])).unwrap_err();
            assert_eq!((err.kind, err.code), ("config", 3));
            assert!(err.message.contains("--arrivals"), "{}", err.message);
        }
        for (flag, bad) in [
            ("--deadline", "soon"),
            ("--retry", "zz"),
            ("--admission", "magic:9"),
            ("--breaker", "-4"),
        ] {
            let err = cmd_run(&flags(&["--arrivals", "poisson:4", flag, bad])).unwrap_err();
            assert_eq!((err.kind, err.code), ("config", 3));
            assert!(err.message.contains(flag), "{}", err.message);
        }
    }

    #[test]
    fn degraded_open_outcomes_map_to_their_exit_codes() {
        // A tight token bucket in front of a hopeless offered load sheds
        // the majority of arrivals: exit 4, class "overloaded".
        let err = cmd_run(&flags(&[
            "--topology",
            "ring:4",
            "--strategy",
            "local",
            "--workload",
            "fib:8",
            "--arrivals",
            "poisson:400",
            "--duration",
            "3000",
            "--warmup",
            "100",
            "--admission",
            "bucket:1x2",
            "--csv",
        ]))
        .unwrap_err();
        assert_eq!((err.kind, err.code), ("overloaded", 4), "{}", err.message);

        // A deadline below the fastest possible sojourn is unservable:
        // exit 5, class "deadline-exhausted".
        let err = cmd_run(&flags(&[
            "--topology",
            "grid:4",
            "--strategy",
            "cwn:4x1",
            "--workload",
            "fib:8",
            "--arrivals",
            "poisson:2",
            "--duration",
            "3000",
            "--deadline",
            "1",
        ]))
        .unwrap_err();
        assert_eq!(
            (err.kind, err.code),
            ("deadline-exhausted", 5),
            "{}",
            err.message
        );
    }

    #[test]
    fn experiment_rejects_unknown_names() {
        let err = cmd_experiment(&flags(&["not-a-table"])).unwrap_err();
        assert!(err.message.contains("unknown experiment"));
        assert!(cmd_experiment(&[]).is_err());
    }

    #[test]
    fn usage_lists_every_registered_experiment() {
        let block = USAGE
            .split("\n  experiment NAME")
            .nth(1)
            .and_then(|rest| rest.split("\n  topo-info").next())
            .expect("experiment block in USAGE");
        let listed: Vec<&str> = block
            .split(|c: char| c.is_whitespace() || c == '|' || c == ':')
            .collect();
        for e in &oracle::experiments::registry::REGISTRY {
            assert!(
                listed.contains(&e.name),
                "USAGE omits experiment {}",
                e.name
            );
        }
        // Accepted: the name resolves, and flag checking happens before any
        // run (a bad seed is rejected without running anything).
        for e in &oracle::experiments::registry::REGISTRY {
            let err = experiment_text(&flags(&[e.name, "--seed", "x"])).unwrap_err();
            assert!(
                err.message.contains("--seed"),
                "{}: {}",
                e.name,
                err.message
            );
        }
    }

    #[test]
    fn experiment_config_errors_exit_3() {
        for args in [
            &["not-a-table", "--quick"][..],
            &["table3", "--quick", "--json"],
            &["table3", "--quick", "--json", "--csv"],
        ] {
            let err = experiment_text(&flags(args)).unwrap_err();
            assert_eq!((err.kind, err.code), ("config", 3), "{args:?}");
        }
        experiment_text(&flags(&["table3", "--quick", "--csv"])).expect("table3 csv");
        experiment_text(&flags(&["resilience", "--quick", "--json"])).expect("resilience json");
    }

    #[test]
    fn experiment_table3_quick_smoke() {
        cmd_experiment(&flags(&["table3", "--quick"])).expect("table3 quick");
    }

    #[test]
    fn run_command_with_faults_smoke() {
        let a = flags(&[
            "--topology",
            "ring:4",
            "--strategy",
            "local",
            "--workload",
            "fib:8",
            "--faults",
            "crash:3@100",
            "--csv",
        ]);
        cmd_run(&a).expect("an idle-PE crash must not break the run");
        let bad = flags(&["--faults", "crash:zz"]);
        assert!(cmd_run(&bad).is_err());
    }

    #[test]
    fn threads_flag_is_validated_and_accepted() {
        let path = std::env::temp_dir().join("oracle_cli_threads_suite_test.txt");
        std::fs::write(&path, "grid:4 cwn:4x1 fib:9\nring:4 local fib:8\n").unwrap();
        cmd_batch(&flags(&[path.to_str().unwrap(), "--threads", "2"])).expect("capped batch runs");
        let err = cmd_batch(&flags(&[path.to_str().unwrap(), "--threads", "0"])).unwrap_err();
        assert!(err.message.contains("--threads"), "{}", err.message);
        std::fs::remove_file(&path).ok();
        oracle::runner::clear_default_threads();
    }

    #[test]
    fn batch_command_accepts_fault_plans() {
        let path = std::env::temp_dir().join("oracle_cli_fault_suite_test.txt");
        std::fs::write(&path, "ring:4 local fib:8 faults=crash:3@100\n").unwrap();
        cmd_batch(&flags(&[path.to_str().unwrap(), "--csv"])).expect("fault suite runs");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn faults_flag_loads_plan_files() {
        let path =
            std::env::temp_dir().join(format!("oracle_cli_faults_file_{}.txt", std::process::id()));
        std::fs::write(
            &path,
            "# one term per line, joined with `+`\ncrash:3@100\n\nloss:1%\n",
        )
        .unwrap();
        let arg = format!("@{}", path.display());
        let a = flags(&["--faults", &arg]);
        let plan =
            parse_faults_flag(&Flags::new(&a, &RUN_FLAGS).unwrap()).expect("plan file parses");
        assert_eq!(plan.pe_crashes.len(), 1);
        assert!((plan.message_loss - 0.01).abs() < 1e-9);

        let missing = flags(&["--faults", "@/no/such/file"]);
        let err = parse_faults_flag(&Flags::new(&missing, &RUN_FLAGS).unwrap()).unwrap_err();
        assert_eq!((err.kind, err.code), ("io", 3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failures_are_classified_by_outcome() {
        // Bad spec: configuration error, exit 3.
        let err = cmd_run(&flags(&["--topology", "nonsense:9"])).unwrap_err();
        assert_eq!((err.kind, err.code), ("config", 3));
        // Invalid fault plan (PE out of range on ring:4): still exit 3.
        let err = cmd_run(&flags(&[
            "--topology",
            "ring:4",
            "--strategy",
            "local",
            "--workload",
            "fib:8",
            "--faults",
            "crash:99@100",
        ]))
        .unwrap_err();
        assert_eq!((err.kind, err.code), ("config", 3));
        // Crashing the only busy PE with no recovery layer loses goals:
        // simulation-outcome failure, exit 2.
        let err = cmd_run(&flags(&[
            "--topology",
            "ring:4",
            "--strategy",
            "local",
            "--workload",
            "fib:8",
            "--faults",
            "crash:0@1",
        ]))
        .unwrap_err();
        assert_eq!(err.code, 2, "error[{}]: {}", err.kind, err.message);
    }

    #[test]
    fn run_checkpoints_and_resumes() {
        let dir = std::env::temp_dir().join(format!("oracle_cli_ckpt_{}", std::process::id()));
        let a = flags(&[
            "--topology",
            "grid:4",
            "--strategy",
            "cwn:4x1",
            "--workload",
            "fib:10",
            "--seed",
            "5",
            "--audit-every",
            "64",
            "--checkpoint-every",
            "300",
            "--checkpoint-dir",
            dir.to_str().unwrap(),
        ]);
        cmd_run(&a).expect("checkpointed run succeeds");
        let mut snaps: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        snaps.sort();
        assert!(!snaps.is_empty(), "no checkpoints written");
        let resume = flags(&["--resume", snaps[0].to_str().unwrap()]);
        cmd_run(&resume).expect("resume succeeds");

        let err = cmd_run(&flags(&["--resume", "/no/such/checkpoint"])).unwrap_err();
        assert_eq!(err.code, 3);

        // The checkpoint carries the whole configuration: every flag but
        // --csv would be silently ignored, so each one is refused.
        let snap = snaps[0].to_str().unwrap();
        cmd_run(&flags(&["--resume", snap, "--csv"])).expect("--csv applies to a resume");
        for extra in [
            &["--topology", "grid:4"][..],
            &["--workload", "fib:9"],
            &["--seed", "9"],
            &["--faults", "loss:1%"],
            &["--profile"],
            &["--series-out", "series.csv"],
        ] {
            let mut a = flags(&["--resume", snap]);
            a.extend(flags(extra));
            let err = cmd_run(&a).unwrap_err();
            assert_eq!((err.kind, err.code), ("config", 3), "{extra:?}");
            assert!(err.message.starts_with(extra[0]), "{}", err.message);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_refuses_flags_missing_their_partner() {
        for (a, named) in [
            (&["--checkpoint-dir", "ck"][..], "--checkpoint-dir"),
            (
                &["--checkpoint-every", "0", "--checkpoint-dir", "ck"],
                "--checkpoint-dir",
            ),
            (&["--trace-format", "chrome"], "--trace-format"),
            (
                &["--trace", "5", "--trace-format", "jsonl"],
                "--trace-format",
            ),
        ] {
            let err = cmd_run(&flags(a)).unwrap_err();
            assert_eq!((err.kind, err.code), ("config", 3), "{a:?}");
            assert!(err.message.starts_with(named), "{}", err.message);
        }
    }

    #[test]
    fn a_wrong_answer_is_an_invariant_failure() {
        let f = sim_failure(SimError::InvariantViolation {
            check: "analytic-result",
            time: 7,
            digest: "result=144 expected=233 program=fib(13)".into(),
        });
        assert_eq!((f.kind, f.code), ("invariant", 2));
        assert!(f.message.contains("analytic-result"), "{}", f.message);
    }

    #[test]
    fn run_exports_and_trace_check_validates() {
        let dir = std::env::temp_dir();
        let jsonl = dir.join(format!("oracle_cli_trace_{}.jsonl", std::process::id()));
        let chrome = dir.join(format!("oracle_cli_trace_{}.json", std::process::id()));
        let series = dir.join(format!("oracle_cli_series_{}.csv", std::process::id()));
        let base = [
            "--topology",
            "grid:4",
            "--strategy",
            "cwn:4x1",
            "--workload",
            "fib:10",
            "--seed",
            "3",
        ];

        let mut a: Vec<String> = flags(&base);
        a.extend(flags(&["--trace-out", jsonl.to_str().unwrap()]));
        a.extend(flags(&["--series-out", series.to_str().unwrap()]));
        cmd_run(&a).expect("jsonl export run");
        cmd_trace_check(&flags(&[jsonl.to_str().unwrap()])).expect("jsonl validates");

        let mut a: Vec<String> = flags(&base);
        a.extend(flags(&[
            "--trace-out",
            chrome.to_str().unwrap(),
            "--trace-format",
            "chrome",
            "--profile",
        ]));
        cmd_run(&a).expect("chrome export run");
        cmd_trace_check(&flags(&[chrome.to_str().unwrap()])).expect("chrome validates");

        let csv = std::fs::read_to_string(&series).unwrap();
        assert!(csv
            .lines()
            .nth(2)
            .unwrap()
            .starts_with("interval_start,avg,pe0"));

        // Tampered files must be rejected, as must unknown formats.
        std::fs::write(&jsonl, "not json\n").unwrap();
        let err = cmd_trace_check(&flags(&[jsonl.to_str().unwrap()])).unwrap_err();
        assert_eq!((err.kind, err.code), ("trace", 3));
        assert!(cmd_trace_check(&flags(&["/no/such/trace"])).is_err());

        std::fs::remove_file(&jsonl).ok();
        std::fs::remove_file(&chrome).ok();
        std::fs::remove_file(&series).ok();
    }

    #[test]
    fn truncated_export_headers_carry_the_dropped_count() {
        let path = std::env::temp_dir().join(format!(
            "oracle_cli_trace_trunc_{}.jsonl",
            std::process::id()
        ));
        let mut a = flags(&[
            "--topology",
            "grid:4",
            "--strategy",
            "cwn:4x1",
            "--workload",
            "fib:10",
            "--trace",
            "10",
        ]);
        a.extend(flags(&["--trace-out", path.to_str().unwrap()]));
        cmd_run(&a).expect("truncated export run");
        let header = |path: &std::path::Path| {
            let text = std::fs::read_to_string(path).unwrap();
            oracle::json::parse_json(text.lines().next().unwrap()).expect("header parses")
        };
        let dropped = header(&path).num("events_dropped");
        assert!(
            dropped.as_ref().is_ok_and(|&d| d > 0.0),
            "header must confess the truncation: {dropped:?}"
        );
        // keep-last mode records the same count as overwritten events.
        let mut a = flags(&[
            "--topology",
            "grid:4",
            "--strategy",
            "cwn:4x1",
            "--workload",
            "fib:10",
            "--trace-last",
            "10",
        ]);
        a.extend(flags(&["--trace-out", path.to_str().unwrap()]));
        cmd_run(&a).expect("ring-mode export run");
        let ring = header(&path);
        assert_eq!(ring.text("trace_mode"), Ok("keep-last"));
        assert!(ring.num("events_dropped").is_ok_and(|d| d > 0.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chaos_command_smoke() {
        let dir = std::env::temp_dir().join(format!("oracle_cli_chaos_{}", std::process::id()));
        cmd_chaos(&flags(&[
            "--cases",
            "4",
            "--seed",
            "9",
            "--threads",
            "2",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .expect("a small chaos sweep passes");
        let err = cmd_chaos(&flags(&["--threads", "0"])).unwrap_err();
        assert_eq!((err.kind, err.code), ("config", 3));
        // One `--threads` grammar: batch rejects 0 with the same words.
        let batch = cmd_batch(&flags(&["suite.txt", "--threads", "0"])).unwrap_err();
        assert_eq!(err.message, batch.message);
        oracle::runner::clear_default_threads();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
