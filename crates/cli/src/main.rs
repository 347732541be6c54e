//! `oracle-cli` — run the ORACLE load-distribution simulator from the
//! command line.
//!
//! ```text
//! oracle-cli run --topology grid:10 --strategy cwn:9x1 --workload fib:15 [--seed N] [--csv] [--series]
//! oracle-cli compare --topology grid:10 --workload fib:15 [--seed N]
//! oracle-cli topo-info grid:20 dlm:20 hypercube:7
//! oracle-cli list
//! ```

use std::path::Path;
use std::process::ExitCode;

use oracle::builder::paper_strategies;
use oracle::checkpoint::CheckpointError;
use oracle::prelude::*;
use oracle::table::{f1, f2};

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
        "list" => {
            print_list();
            Ok(())
        }
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
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
            statistics; `--workload open:ARRIVAL/WORKLOAD` is equivalent;
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
            final report (config is embedded; spec flags are not needed)
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
  experiment NAME [--quick] [--seed N] [--threads N]
            regenerate a paper table/figure: table1 | table2 | table3 |
            plots-dc-grid | plots-dc-dlm | plots-fib | plots-time-grid |
            plots-time-dlm | appendix | ablations |
            resilience [--json] (fault-injection extension) |
            capacity [--json] (open-traffic extension: binary-search the
            max sustainable Poisson arrival rate per strategy x topology
            holding a p99 sojourn target) |
            degradation [--json] [--check] (overload extension: goodput
            under overload x fault intensity, unprotected vs the full
            deadline+retry+admission+breaker stack; --check additionally
            asserts goodput degrades monotonically and every run
            conserves arrivals, exiting 2 on violation)
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
            tak:18x12x6 | open:ARRIVAL/WORKLOAD
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
            2 simulation failed (invariant violation, goals lost, stall,
            …) | 3 configuration or I/O error | 4 overloaded (admission
            control shed the majority of arrivals) | 5 deadline exhausted
            (no request ever completed within its deadline)
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
    switches: &["--quick", "--json", "--check"],
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
    /// its value, or a stray bare argument is a configuration error that
    /// names the offending argument — a misspelt or retired flag must
    /// never run something other than what was asked for.
    fn new(args: &'a [String], spec: &FlagSpec) -> Result<Flags<'a>, Failure> {
        let mut operands = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let arg = args[i].as_str();
            if spec.values.contains(&arg) {
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

/// Resolve the open-traffic flags (`--arrivals`, `--duration`, `--warmup`)
/// and the `open:` workload spelling into the machine's traffic config.
fn parse_open_flags(flags: &Flags, workload: &AnyWorkload) -> Result<Option<OpenTraffic>, Failure> {
    let arrivals = match (workload, flags.value_of("--arrivals")) {
        (AnyWorkload::Open(_), Some(_)) => {
            return Err(Failure::config(
                "--arrivals conflicts with an open: workload — pick one spelling",
            ))
        }
        (AnyWorkload::Open(o), None) => Some(o.arrivals.clone()),
        (AnyWorkload::Closed(_), Some(spec)) => Some(
            spec.parse::<ArrivalSpec>()
                .map_err(|e| Failure::config(format!("--arrivals: {e}")))?,
        ),
        (AnyWorkload::Closed(_), None) => None,
    };
    let Some(arrivals) = arrivals else {
        for flag in [
            "--duration",
            "--warmup",
            "--deadline",
            "--retry",
            "--admission",
            "--breaker",
        ] {
            if flags.value_of(flag).is_some() {
                return Err(Failure::config(format!(
                    "{flag} requires --arrivals SPEC or an open: workload"
                )));
            }
        }
        return Ok(None);
    };
    let duration: u64 = flags.parse("--duration", oracle::runner::DEFAULT_OPEN_DURATION)?;
    let mut open = OpenTraffic::new(arrivals, duration);
    open.warmup = flags.parse("--warmup", open.warmup)?;
    if let Some(v) = flags.value_of("--deadline") {
        open.deadline = Some(
            v.parse()
                .map_err(|e| Failure::config(format!("--deadline {v:?}: {e}")))?,
        );
    }
    if let Some(v) = flags.value_of("--retry") {
        open.retry = Some(
            v.parse::<RetryPolicy>()
                .map_err(|e| Failure::config(format!("--retry {v:?}: {e}")))?,
        );
    }
    if let Some(v) = flags.value_of("--admission") {
        open.admission = Some(
            v.parse::<AdmissionPolicy>()
                .map_err(|e| Failure::config(format!("--admission {v:?}: {e}")))?,
        );
    }
    if let Some(v) = flags.value_of("--breaker") {
        open.breaker = Some(
            v.parse()
                .map_err(|e| Failure::config(format!("--breaker {v:?}: {e}")))?,
        );
    }
    Ok(Some(open))
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

    if let Some(path) = flags.value_of("--resume") {
        if trace_cap > 0 || heatmap_path.is_some() {
            return Err(Failure::config(
                "--resume replays the checkpointed config; --trace/--heatmap do not apply",
            ));
        }
        let (config, report) = oracle::checkpoint::resume_run(Path::new(path))
            .map_err(|e| checkpoint_failure(e).context(path))?;
        println!(
            "resumed {} on {} under {} from {path}",
            config.workload, config.topology, config.strategy
        );
        print_report(&report, &flags);
        return open_outcome_failure(&report);
    }

    let topology: TopologySpec = flags.parse("--topology", TopologySpec::grid(10))?;
    let strategy: StrategySpec = flags.parse("--strategy", StrategySpec::cwn_paper(true))?;
    let any: AnyWorkload = flags.parse("--workload", AnyWorkload::Closed(WorkloadSpec::fib(15)))?;
    let workload = any.workload();
    let open = parse_open_flags(&flags, &any)?;
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

    let checkpoint_every: u64 = flags.parse("--checkpoint-every", 0)?;
    if checkpoint_every > 0 {
        if trace_cap > 0 || heatmap_path.is_some() {
            return Err(Failure::config(
                "--checkpoint-every does not combine with --trace/--heatmap",
            ));
        }
        let dir = flags.value_of("--checkpoint-dir").unwrap_or("checkpoints");
        let out =
            oracle::checkpoint::run_with_checkpoints(&config, checkpoint_every, Path::new(dir))
                .map_err(checkpoint_failure)?;
        for path in &out.checkpoints {
            println!("checkpoint: {}", path.display());
        }
        print_report(&out.report, &flags);
        return open_outcome_failure(&out.report);
    }

    let (report, trace) = config.run_traced().map_err(sim_failure)?;
    if let Some(path) = trace_out {
        let text = export_trace(&trace, &report, trace_format);
        std::fs::write(path, &text).map_err(|e| Failure::io(format!("writing {path}: {e}")))?;
        println!(
            "wrote {} trace to {path} ({} events, {} dropped)",
            match trace_format {
                TraceFormat::Jsonl => "jsonl",
                TraceFormat::Chrome => "chrome",
            },
            trace.len(),
            trace.dropped()
        );
    }
    if let Some(path) = series_out {
        let csv = export_series_csv(&report);
        std::fs::write(path, &csv).map_err(|e| Failure::io(format!("writing {path}: {e}")))?;
        println!(
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
        println!(
            "wrote load-monitor heatmap to {path} ({}x{} px)",
            img.width(),
            img.height()
        );
    }

    print_report(&report, &flags);
    if trace.dropped() > 0 {
        let what = match trace.mode() {
            TraceMode::KeepFirst => "dropped past capacity",
            TraceMode::KeepLast => "overwritten (ring mode)",
        };
        println!(
            "warning: trace truncated — {} of {} events {what}",
            trace.dropped(),
            trace.dropped() + trace.len() as u64
        );
    }
    // Print the trace inline only when it was explicitly requested for the
    // terminal (exported traces can be huge).
    if trace_cap > 0 && trace_out.is_none() {
        let which = match trace.mode() {
            TraceMode::KeepFirst => "first",
            TraceMode::KeepLast => "last",
        };
        println!("\nevent trace ({which} {} events):", trace.len());
        print!("{}", trace.render());
    }
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
    println!(
        "{path}: valid {} trace — {} events, {} tracks, {} dropped",
        match format {
            TraceFormat::Jsonl => "jsonl",
            TraceFormat::Chrome => "chrome",
        },
        summary.events,
        summary.tracks,
        summary.dropped
    );
    Ok(())
}

fn print_report(report: &Report, flags: &Flags) {
    if flags.has("--csv") {
        println!("metric,value");
        println!("strategy,{}", report.strategy);
        println!("topology,{}", report.topology);
        println!("program,{}", report.program);
        println!("num_pes,{}", report.num_pes);
        println!("completion_time,{}", report.completion_time);
        println!("result,{}", report.result);
        println!("goals,{}", report.goals_executed);
        // Fraction in [0, 1], like every utilization the tool emits.
        println!("avg_utilization,{:.5}", report.avg_utilization);
        println!("speedup,{:.3}", report.speedup);
        println!("avg_goal_distance,{:.3}", report.avg_goal_distance);
        println!("hop_overflow,{}", report.hop_overflow);
        println!("goal_hops,{}", report.traffic.goal_hops);
        println!("response_hops,{}", report.traffic.response_hops);
        println!("control_msgs,{}", report.traffic.control_msgs);
        println!("load_updates,{}", report.traffic.load_updates);
        println!("events,{}", report.events);
        if report.faults.any() {
            println!("pes_crashed,{}", report.faults.pes_crashed);
            println!("goals_lost,{}", report.faults.goals_lost);
            println!("goals_respawned,{}", report.faults.goals_respawned);
            println!("messages_dropped,{}", report.faults.messages_dropped);
            println!("duplicate_responses,{}", report.faults.duplicate_responses);
            println!("retries_exhausted,{}", report.faults.retries_exhausted);
        }
        if let Some(o) = &report.open {
            match o.outcome {
                OpenOutcome::Completed => println!("open_outcome,completed"),
                OpenOutcome::Saturated { at, inflight } => {
                    println!("open_outcome,saturated");
                    println!("saturated_at,{at}");
                    println!("saturated_inflight,{inflight}");
                }
                OpenOutcome::Overloaded { shed, arrivals } => {
                    println!("open_outcome,overloaded");
                    println!("overloaded_shed,{shed}");
                    println!("overloaded_arrivals,{arrivals}");
                }
                OpenOutcome::DeadlineExhausted { abandoned } => {
                    println!("open_outcome,deadline-exhausted");
                    println!("deadline_abandoned,{abandoned}");
                }
            }
            println!("open_duration,{}", o.duration);
            println!("open_warmup,{}", o.warmup);
            println!("arrivals_total,{}", o.arrivals);
            println!("completions_total,{}", o.completions);
            println!("completions_measured,{}", o.completions_measured);
            println!("inflight_at_end,{}", o.inflight_at_end);
            println!("offered_rate,{:.4}", o.offered_rate);
            println!("throughput,{:.4}", o.throughput);
            println!("goodput,{:.4}", o.goodput);
            if let Some(d) = o.deadline {
                println!("deadline,{d}");
            }
            println!("shed,{}", o.shed);
            println!("shed_rate,{:.4}", o.shed_rate);
            println!("abandoned_deadline,{}", o.abandoned_deadline);
            println!("abandoned_retries,{}", o.abandoned_retries);
            println!("abandonment_rate,{:.4}", o.abandonment_rate);
            println!("retries,{}", o.retries);
            println!("breaker_opens,{}", o.breaker_opens);
            println!("sojourn_mean,{:.2}", o.sojourn_mean);
            println!("sojourn_p50,{}", o.sojourn_p50);
            println!("sojourn_p95,{}", o.sojourn_p95);
            println!("sojourn_p99,{}", o.sojourn_p99);
            println!("sojourn_max,{}", o.sojourn_max);
            println!("qlen_time_avg,{:.2}", o.qlen_time_avg);
            println!("qlen_p95,{}", o.qlen_p95);
        }
    } else {
        println!(
            "{} on {} under {}",
            report.program, report.topology, report.strategy
        );
        println!("  result            {}", report.result);
        println!("  goals             {}", report.goals_executed);
        println!("  completion time   {} units", report.completion_time);
        println!(
            "  avg utilization   {:.1} %",
            report.avg_utilization * 100.0
        );
        println!(
            "  speedup           {:.2} on {} PEs",
            report.speedup, report.num_pes
        );
        println!("  avg goal distance {:.2} hops", report.avg_goal_distance);
        println!(
            "  traffic           goal {} / response {} / control {} / load {}",
            report.traffic.goal_hops,
            report.traffic.response_hops,
            report.traffic.control_msgs,
            report.traffic.load_updates
        );
        println!("  events processed  {}", report.events);
        if report.faults.any() {
            println!(
                "  faults            {} PE crash(es), {} goals lost, {} re-spawned, \
                 {} messages dropped",
                report.faults.pes_crashed,
                report.faults.goals_lost,
                report.faults.goals_respawned,
                report.faults.messages_dropped
            );
        }
        if let Some(o) = &report.open {
            let outcome = match o.outcome {
                OpenOutcome::Completed => "completed".to_string(),
                OpenOutcome::Saturated { at, inflight } => {
                    format!("SATURATED at t={at} ({inflight} requests in flight)")
                }
                OpenOutcome::Overloaded { shed, arrivals } => {
                    format!("OVERLOADED ({shed} of {arrivals} arrivals shed at the door)")
                }
                OpenOutcome::DeadlineExhausted { abandoned } => {
                    format!("DEADLINE EXHAUSTED ({abandoned} requests blew their budget)")
                }
            };
            println!(
                "  open traffic      {outcome} (duration {}, warmup {})",
                o.duration, o.warmup
            );
            println!(
                "  requests          {} arrived / {} completed ({} measured, {} in flight at end)",
                o.arrivals, o.completions, o.completions_measured, o.inflight_at_end
            );
            println!(
                "  rates             offered {:.2} / carried {:.2} / useful {:.2} req per \
                 1000 units",
                o.offered_rate, o.throughput, o.goodput
            );
            if o.deadline.is_some() || o.shed > 0 || o.retries > 0 {
                println!(
                    "  overload          {} shed ({:.1} %) / {} past deadline / {} out of \
                     retries ({:.1} % abandoned) / {} retries / {} breaker opens",
                    o.shed,
                    o.shed_rate * 100.0,
                    o.abandoned_deadline,
                    o.abandoned_retries,
                    o.abandonment_rate * 100.0,
                    o.retries,
                    o.breaker_opens
                );
            }
            println!(
                "  sojourn           mean {:.1} / p50 {} / p95 {} / p99 {} / max {} units",
                o.sojourn_mean, o.sojourn_p50, o.sojourn_p95, o.sojourn_p99, o.sojourn_max
            );
            println!(
                "  queue length      time-avg {:.2} / p95 {}",
                o.qlen_time_avg, o.qlen_p95
            );
        }
    }
    if flags.has("--series") {
        println!("\nutilization over time (interval start, %):");
        for (t, u) in &report.util_series {
            println!("  {t},{:.1}", u * 100.0);
        }
    }
    if let Some(profile) = &report.profile {
        println!("\nengine profile:");
        print!("{}", profile.render());
    }
}

/// Chaos-fuzzing sweep frontend over [`oracle::chaos`].
fn cmd_chaos(args: &[String]) -> Result<(), Failure> {
    let flags = Flags::new(args, &CHAOS_FLAGS)?;
    let mut config = oracle::chaos::ChaosConfig::default();
    config.cases = flags.parse("--cases", config.cases)?;
    config.seed = flags.parse("--seed", config.seed)?;
    config.audit_every = flags.parse("--audit-every", config.audit_every)?;
    let threads: usize = flags.parse("--threads", 0)?;
    if flags.value_of("--threads").is_some() {
        if threads == 0 {
            return Err(Failure::config("--threads must be at least 1"));
        }
        config.threads = threads;
    }
    let stall_secs: u64 = flags.parse("--stall-secs", config.stall_timeout.as_secs())?;
    config.stall_timeout = std::time::Duration::from_secs(stall_secs);
    let out_dir = flags.value_of("--out");

    println!(
        "chaos sweep: {} cases, master seed {}, {} threads, auditor every {} events",
        config.cases, config.seed, config.threads, config.audit_every
    );
    let report = oracle::chaos::run_chaos(&config);
    for (case, outcome) in &report.outcomes {
        println!("  {} -> {outcome}", case.label());
    }
    println!(
        "chaos summary: {} completed, {} contained, {} failures",
        report.count("completed"),
        report.count("contained"),
        report.failures.len()
    );
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).map_err(|e| Failure::io(format!("{dir}: {e}")))?;
        for failure in &report.failures {
            let path = format!("{dir}/chaos-repro-{:03}.suite", failure.case.index);
            std::fs::write(&path, failure.reproducer())
                .map_err(|e| Failure::io(format!("{path}: {e}")))?;
            println!("wrote reproducer {path}");
        }
    }
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

fn cmd_experiment(args: &[String]) -> Result<(), Failure> {
    use oracle::experiments::{
        ablations, appendix, capacity, degradation, plots, resilience, table1, table2, table3,
        Fidelity,
    };
    use oracle::topo::TopologySpec as T;

    let Some(name) = args.first() else {
        return Err(Failure::config(
            "experiment needs a name (e.g. table2); see --help",
        ));
    };
    let flags = Flags::new(&args[1..], &EXPERIMENT_FLAGS)?;
    let fidelity = if flags.has("--quick") {
        Fidelity::Quick
    } else {
        Fidelity::Paper
    };
    let seed: u64 = flags.parse("--seed", 1)?;
    apply_threads(&flags)?;

    match name.as_str() {
        "table1" => {
            let grid = table1::optimize(fidelity, true, seed);
            let dlm = table1::optimize(fidelity, false, seed);
            println!("{}", table1::render(&grid, &dlm));
        }
        "table2" => {
            let cells = table2::run(fidelity, seed);
            println!("{}", table2::render(&cells));
            let s = table2::summarize(&cells);
            println!(
                "CWN better in {}/{} cells, significantly in {}",
                s.cwn_wins, s.cells, s.significant
            );
        }
        "table3" => {
            let d = table3::run(fidelity, seed);
            println!("{}", table3::render(&d));
        }
        "resilience" => {
            let cells = resilience::run(fidelity, seed);
            if flags.has("--json") {
                println!("{}", resilience::to_json(&cells));
            } else {
                println!("{}", resilience::render(&cells));
                let completed = cells.iter().filter(|c| c.completed).count();
                println!(
                    "{completed}/{} runs completed with the correct result \
                     (--json for per-cell fault counters)",
                    cells.len()
                );
            }
        }
        "capacity" => {
            let cells = capacity::run(fidelity, seed);
            if flags.has("--json") {
                println!("{}", capacity::to_json(&cells));
            } else {
                println!("{}", capacity::render(&cells, fidelity));
                if let Some(best) = cells
                    .iter()
                    .max_by(|a, b| a.max_rate.partial_cmp(&b.max_rate).unwrap())
                {
                    println!(
                        "highest capacity: {}/{} at {:.2} req per 1000 units \
                         (--json for per-probe data)",
                        best.topology, best.strategy, best.max_rate
                    );
                }
            }
        }
        "degradation" => {
            let cells = degradation::run(fidelity, seed);
            let checked = if flags.has("--check") {
                degradation::verify(&cells).map_err(|e| Failure {
                    kind: "degradation",
                    code: 2,
                    message: format!("degradation physics check failed:\n{e}"),
                })?;
                true
            } else {
                false
            };
            if flags.has("--json") {
                println!("{}", degradation::to_json(&cells));
            } else {
                println!("{}", degradation::render(&cells, fidelity));
                // Prefer the best *finite* ratio for the headline: where the
                // unprotected baseline preserved nothing the ratio is inf,
                // which is the common case, not the interesting one.
                let finite = cells
                    .iter()
                    .filter(|c| c.protection_ratio().is_finite() && c.protection_ratio() > 0.0)
                    .max_by(|a, b| a.protection_ratio().total_cmp(&b.protection_ratio()));
                if let Some(best) = finite {
                    println!(
                        "best protection: {}/{} under {} faults preserves {:.1}x the \
                         unprotected goodput (--json for per-cell data)",
                        best.topology,
                        best.strategy,
                        best.fault_name(),
                        best.protection_ratio()
                    );
                } else if cells.iter().any(|c| c.protection_ratio().is_infinite()) {
                    println!(
                        "best protection: the protected stack preserved goodput in every \
                         cell where the unprotected baseline preserved none \
                         (--json for per-cell data)"
                    );
                }
            }
            if checked {
                println!(
                    "checks passed: goodput monotone non-increasing in fault intensity; \
                     every run conserves arrivals"
                );
            }
        }
        "plots-dc-grid" | "plots-dc-dlm" | "plots-fib" => {
            let fib = name == "plots-fib";
            let workloads = plots::plot_workloads(fidelity, fib);
            for &side in fidelity.grid_sides().iter().rev() {
                let topos: Vec<T> = if fib {
                    vec![T::dlm(side), T::grid(side)]
                } else if name == "plots-dc-grid" {
                    vec![T::grid(side)]
                } else {
                    vec![T::dlm(side)]
                };
                for topology in topos {
                    let p = plots::util_vs_goals(topology, &workloads, seed);
                    println!("{}", plots::render_util_vs_goals(&p));
                }
            }
        }
        "plots-time-grid" | "plots-time-dlm" => {
            let (topology, sizes): (T, &[i64]) = match (name.as_str(), fidelity) {
                ("plots-time-grid", Fidelity::Paper) => (T::grid(10), &[18, 15, 9]),
                ("plots-time-grid", Fidelity::Quick) => (T::grid(5), &[13, 9]),
                (_, Fidelity::Paper) => (T::dlm(10), &[18, 15, 9]),
                (_, Fidelity::Quick) => (T::dlm(5), &[13, 9]),
            };
            for &n in sizes {
                let p = plots::util_vs_time(
                    topology,
                    oracle::workloads::WorkloadSpec::fib(n),
                    100,
                    seed,
                );
                println!("{}", plots::render_util_vs_time(&p));
                println!(
                    "{}",
                    oracle::chart::cwn_gm_chart(
                        format!("{} on {}", p.workload, p.topology),
                        "time (units)",
                        &p.cwn,
                        &p.gm
                    )
                );
            }
        }
        "appendix" => {
            for p in appendix::goals_plots(fidelity, seed) {
                println!("{}", plots::render_util_vs_goals(&p));
            }
            for p in appendix::time_plots(fidelity, seed) {
                println!("{}", plots::render_util_vs_time(&p));
            }
        }
        "ablations" => {
            let sections = [
                ("CWN radius sweep", ablations::radius_sweep(fidelity, seed)),
                (
                    "CWN horizon sweep",
                    ablations::horizon_sweep(fidelity, seed),
                ),
                (
                    "GM interval sweep",
                    ablations::gm_interval_sweep(fidelity, seed),
                ),
                ("Load metric", ablations::load_metric(fidelity, seed)),
                ("Load information", ablations::load_info(fidelity, seed)),
                ("Co-processor", ablations::coprocessor(fidelity, seed)),
                (
                    "Comm/computation ratio",
                    ablations::comm_ratio(fidelity, seed),
                ),
                ("Wraparound", ablations::wraparound(fidelity, seed)),
                ("Shootout", ablations::shootout(fidelity, seed)),
                (
                    "Global scalability",
                    ablations::global_scalability(fidelity, seed),
                ),
            ];
            for (title, points) in sections {
                println!("{}", ablations::render(title, &points));
            }
        }
        other => {
            return Err(Failure::config(format!(
                "unknown experiment {other:?}; see --help"
            )))
        }
    }
    Ok(())
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
        table.row(vec![
            label,
            f2(r.speedup),
            f1(r.avg_utilization * 100.0),
            r.completion_time.to_string(),
            f2(r.avg_goal_distance),
        ]);
        if let Some(p) = &r.profile {
            rollup.merge(p);
        }
    }
    if flags.has("--csv") {
        print!("{}", table.to_csv());
    } else {
        println!("{table}");
    }
    if profile {
        println!("\nbatch engine profile (all runs merged):");
        print!("{}", rollup.render());
    }
    Ok(())
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
        table.row(vec![
            label,
            f2(r.speedup),
            f1(r.avg_utilization * 100.0),
            r.completion_time.to_string(),
            f2(r.avg_goal_distance),
        ]);
    }
    println!("{table}");
    println!("speedup of CWN over GM: {:.2}", speedups[0] / speedups[1]);
    Ok(())
}

fn cmd_topo_info(args: &[String]) -> Result<(), Failure> {
    let flags = Flags::new(args, &TOPO_INFO_FLAGS)?;
    if flags.operands.is_empty() {
        return Err(Failure::config(
            "topo-info needs at least one topology spec",
        ));
    }
    // `--dot` prints Graphviz for each spec instead of the table.
    if flags.has("--dot") {
        for arg in &flags.operands {
            let spec: TopologySpec = arg
                .parse()
                .map_err(|e: oracle::topo::spec::ParseSpecError| e.to_string())?;
            print!("{}", spec.build().to_dot());
        }
        return Ok(());
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
    for arg in &flags.operands {
        let spec: TopologySpec = arg
            .parse()
            .map_err(|e: oracle::topo::spec::ParseSpecError| e.to_string())?;
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
    println!("{table}");
    Ok(())
}

fn print_list() {
    println!("{USAGE}");
    println!("\npaper presets (Table 1):");
    println!("  grids:          cwn:9x1   gm:1x2x20");
    println!("  lattice-meshes: cwn:5x1   gm:1x1x20");
    println!("\npaper configurations: grid/dlm sides 5, 8, 10, 16, 20; fib 7-18; dc 21-4181");
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
        // The combined `open:` workload spelling is equivalent.
        let a = flags(&[
            "--topology",
            "grid:4",
            "--strategy",
            "cwn:4x1",
            "--workload",
            "open:poisson:4/fib:8",
            "--duration",
            "2000",
        ]);
        cmd_run(&a).expect("open: workload run should succeed");
    }

    #[test]
    fn open_flags_are_validated_as_config_errors() {
        // Bad arrival spec: config error (exit 3), message names the token
        // and quotes the grammar.
        let err = cmd_run(&flags(&["--arrivals", "poisson:-3"])).unwrap_err();
        assert_eq!((err.kind, err.code), ("config", 3));
        assert!(err.message.contains("\"-3\""), "{}", err.message);
        assert!(err.message.contains("PROCESS[@EDGES]"), "{}", err.message);
        // Bad open: workload spelling too.
        let err = cmd_run(&flags(&["--workload", "open:nope:1/fib:8"])).unwrap_err();
        assert_eq!((err.kind, err.code), ("config", 3));
        assert!(
            err.message.contains("open:ARRIVAL/WORKLOAD"),
            "{}",
            err.message
        );
        // Both spellings at once conflict.
        let err = cmd_run(&flags(&[
            "--workload",
            "open:poisson:4/fib:8",
            "--arrivals",
            "poisson:4",
        ]))
        .unwrap_err();
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
        cmd_experiment(&flags(&["degradation", "--quick", "--check"])).expect("degradation quick");
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
        let _ = std::fs::remove_dir_all(&dir);
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
        let text = std::fs::read_to_string(&path).unwrap();
        let header = text.lines().next().unwrap();
        assert!(
            header.contains("\"events_dropped\":") && !header.contains("\"events_dropped\":0"),
            "header must confess the truncation: {header}"
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
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text
            .lines()
            .next()
            .unwrap()
            .contains("\"trace_mode\":\"keep-last\""));
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
        let _ = std::fs::remove_dir_all(&dir);
    }
}
