//! Structured trace and series export — the observability layer's I/O.
//!
//! ORACLE's "form and content of the output information" was a first-class
//! input to the simulator; this module is the equivalent: it turns the
//! bounded in-memory [`Trace`] of a run into files other tools can read.
//! Two formats are produced, both through the shared [`crate::json`]
//! writer:
//!
//! * **JSONL** (`oracle-trace-v1`): a header object on the first line —
//!   run identity plus the `events_dropped` count, so a truncated trace can
//!   never pass for a complete one — then one JSON object per event.
//! * **Chrome `trace_event` JSON** (loadable in Perfetto or
//!   `chrome://tracing`): one track per PE plus a `network` track, goal
//!   execution slices as `B`/`E` duration events, message hops as `s`/`f`
//!   flow events chained hop to hop, everything else as instants. Simulated
//!   time units map 1:1 onto trace microseconds.
//!
//! The module also carries validators for both formats, reading them with
//! [`crate::json::parse_json`] (used by the proptests and by
//! `oracle-cli trace-check`, which CI runs against freshly exported files),
//! and the machine-readable per-PE utilization-series CSV that reproduces
//! the paper's load-monitor figure as data.

use std::fmt::Write as _;

use crate::json::{parse_json, Json, Obj};
use crate::table::Table;
use oracle_model::trace::TraceMode;
use oracle_model::{Report, Trace, TraceEvent};

/// On-disk trace format selector (`--trace-format`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceFormat {
    /// One JSON object per line, `oracle-trace-v1` schema.
    #[default]
    Jsonl,
    /// Chrome `trace_event` JSON for Perfetto / `chrome://tracing`.
    Chrome,
}

impl std::str::FromStr for TraceFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "jsonl" => Ok(TraceFormat::Jsonl),
            "chrome" => Ok(TraceFormat::Chrome),
            other => Err(format!("unknown trace format '{other}' (jsonl|chrome)")),
        }
    }
}

impl std::fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TraceFormat::Jsonl => "jsonl",
            TraceFormat::Chrome => "chrome",
        })
    }
}

/// The JSONL `kind` string of an event.
fn kind_name(e: &TraceEvent) -> &'static str {
    match e {
        TraceEvent::GoalCreated { .. } => "goal_created",
        TraceEvent::GoalForwarded { .. } => "goal_forwarded",
        TraceEvent::GoalAccepted { .. } => "goal_accepted",
        TraceEvent::GoalStarted { .. } => "goal_started",
        TraceEvent::GoalFinished { .. } => "goal_finished",
        TraceEvent::Responded { .. } => "responded",
        TraceEvent::ControlSent { .. } => "control_sent",
        TraceEvent::TimerFired { .. } => "timer_fired",
        TraceEvent::RootCompleted { .. } => "root_completed",
        TraceEvent::PeCrashed { .. } => "pe_crashed",
        TraceEvent::GoalLost { .. } => "goal_lost",
        TraceEvent::MessageDropped { .. } => "message_dropped",
        TraceEvent::LinkDown { .. } => "link_down",
        TraceEvent::LinkUp { .. } => "link_up",
        TraceEvent::GoalRespawned { .. } => "goal_respawned",
        TraceEvent::DuplicateResponse { .. } => "duplicate_response",
        TraceEvent::PeSlowed { .. } => "pe_slowed",
        TraceEvent::PeRestored { .. } => "pe_restored",
        TraceEvent::RequestArrived { .. } => "request_arrived",
        TraceEvent::RequestCompleted { .. } => "request_completed",
    }
}

fn trace_mode_name(mode: TraceMode) -> &'static str {
    match mode {
        TraceMode::KeepFirst => "keep-first",
        TraceMode::KeepLast => "keep-last",
    }
}

/// One event as a JSONL line object.
fn jsonl_event(e: &TraceEvent) -> Obj {
    let o = Obj::new().str("kind", kind_name(e)).uint("t", e.time());
    match *e {
        TraceEvent::GoalCreated {
            goal, pe, parent, ..
        } => o
            .uint("goal", goal.0)
            .uint("pe", pe.0)
            .opt_uint("parent", parent.map(|p| p.0)),
        TraceEvent::GoalForwarded {
            goal,
            from,
            to,
            hops,
            ..
        } => o
            .uint("goal", goal.0)
            .uint("from", from.0)
            .uint("to", to.0)
            .uint("hops", hops),
        TraceEvent::GoalAccepted { goal, pe, hops, .. } => {
            o.uint("goal", goal.0).uint("pe", pe.0).uint("hops", hops)
        }
        TraceEvent::GoalStarted { goal, pe, .. } | TraceEvent::GoalFinished { goal, pe, .. } => {
            o.uint("goal", goal.0).uint("pe", pe.0)
        }
        TraceEvent::Responded {
            from_pe,
            parent_pe,
            value,
            ..
        } => o
            .uint("from_pe", from_pe.0)
            .opt_uint("parent_pe", parent_pe.map(|p| p.0 as u64))
            .int("value", value),
        TraceEvent::ControlSent { from, to, tag, .. } => {
            o.uint("from", from.0).uint("to", to.0).uint("tag", tag)
        }
        TraceEvent::TimerFired { pe, tag, .. } => o.uint("pe", pe.0).uint("tag", tag),
        TraceEvent::RootCompleted { result, .. } => o.int("result", result),
        TraceEvent::PeCrashed { pe, goals_lost, .. } => {
            o.uint("pe", pe.0).uint("goals_lost", goals_lost)
        }
        TraceEvent::GoalLost { goal, pe, .. } => o.uint("goal", goal.0).uint("pe", pe.0),
        TraceEvent::MessageDropped { channel, .. }
        | TraceEvent::LinkDown { channel, .. }
        | TraceEvent::LinkUp { channel, .. } => o.uint("channel", channel),
        TraceEvent::GoalRespawned {
            old,
            new,
            pe,
            attempt,
            ..
        } => o
            .uint("old", old.0)
            .uint("new", new.0)
            .uint("pe", pe.0)
            .uint("attempt", attempt),
        TraceEvent::DuplicateResponse { goal, pe, .. } => o.uint("goal", goal.0).uint("pe", pe.0),
        TraceEvent::PeSlowed { pe, factor, .. } => o.uint("pe", pe.0).uint("factor", factor),
        TraceEvent::PeRestored { pe, .. } => o.uint("pe", pe.0),
        TraceEvent::RequestArrived {
            request, goal, pe, ..
        } => o
            .uint("request", request)
            .uint("goal", goal.0)
            .uint("pe", pe.0),
        TraceEvent::RequestCompleted {
            request,
            goal,
            pe,
            sojourn,
            ..
        } => o
            .uint("request", request)
            .uint("goal", goal.0)
            .uint("pe", pe.0)
            .uint("sojourn", sojourn),
    }
}

/// The run-identity header: the JSONL export's first line and the Chrome
/// export's `otherData`.
fn run_header(trace: &Trace, report: &Report) -> Obj {
    Obj::new()
        .str("schema", "oracle-trace-v1")
        .str("strategy", &report.strategy)
        .str("topology", &report.topology)
        .str("program", &report.program)
        .uint("num_pes", report.num_pes as u64)
        .uint("seed", report.seed)
        .uint("completion_time", report.completion_time)
        .uint("events_recorded", trace.len() as u64)
        .uint("events_dropped", trace.dropped())
        .str("trace_mode", trace_mode_name(trace.mode()))
}

/// Export `trace` as JSONL: one header object line, then one object per
/// event in chronological order.
pub fn export_jsonl(trace: &Trace, report: &Report) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", run_header(trace, report));
    for e in trace.iter() {
        let _ = writeln!(out, "{}", jsonl_event(e));
    }
    out
}

/// Start one Chrome event object; the caller adds format-specific fields.
fn chrome_event(ph: &str, name: &str, tid: u64, ts: u64) -> Obj {
    Obj::new()
        .str("ph", ph)
        .str("name", name)
        .str("cat", "oracle")
        .uint("pid", 0u64)
        .uint("tid", tid)
        .uint("ts", ts)
}

/// A Chrome `M` metadata event naming the process or one track.
fn chrome_meta(name: &str, tid: u64, label: &str) -> Obj {
    Obj::new()
        .str("ph", "M")
        .str("name", name)
        .uint("pid", 0u64)
        .uint("tid", tid)
        .obj("args", Obj::new().str("name", label))
}

/// Export `trace` as Chrome `trace_event` JSON (the "JSON Object Format":
/// a `traceEvents` array plus run metadata under `otherData`).
///
/// Layout: one track (`tid`) per PE plus a final `network` track; goal
/// execution slices are `B`/`E` pairs on the executing PE's track; each
/// message hop is an `s`→`f` flow step chained from the previous hop, so
/// Perfetto draws the goal's journey as arrows between PE tracks; other
/// events are thread-scoped instants. `ts` is the simulated time.
pub fn export_chrome(trace: &Trace, report: &Report) -> String {
    // Metadata: name the process and one track per PE (plus the network
    // track). `M` events are unordered; the validator skips them.
    let process = format!(
        "oracle {} on {} ({})",
        report.strategy, report.topology, report.program
    );
    let mut events = vec![chrome_meta("process_name", 0, &process)];
    for pe in 0..report.num_pes {
        events.push(chrome_meta("thread_name", pe as u64, &format!("PE {pe}")));
    }
    // The synthetic "network" track holds channel and run-level events,
    // which belong to no PE.
    let net = report.num_pes as u64;
    events.push(chrome_meta("thread_name", net, "network"));

    // Flow chaining: the hop index of the last `s` emitted per goal, so the
    // next hop (or the acceptance) closes it with an `f`. With a truncated
    // or ring trace some chains start mid-journey; unmatched flow ends are
    // simply omitted.
    let mut open_flow: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    let flow_id = |goal: u64, hop: u32| format!("g{goal}h{hop}");

    for e in trace.iter() {
        let t = e.time();
        match *e {
            TraceEvent::GoalStarted { goal, pe, .. } => events.push(
                chrome_event("B", &format!("goal {}", goal.0), pe.0 as u64, t)
                    .obj("args", Obj::new().uint("goal", goal.0)),
            ),
            TraceEvent::GoalFinished { goal, pe, .. } => {
                events.push(chrome_event(
                    "E",
                    &format!("goal {}", goal.0),
                    pe.0 as u64,
                    t,
                ));
            }
            TraceEvent::GoalForwarded {
                goal, from, hops, ..
            } => {
                if let Some(prev) = open_flow.insert(goal.0, hops) {
                    events.push(
                        chrome_event("f", "hop", from.0 as u64, t)
                            .str("id", &flow_id(goal.0, prev))
                            .str("bp", "e"),
                    );
                }
                events.push(
                    chrome_event("s", "hop", from.0 as u64, t).str("id", &flow_id(goal.0, hops)),
                );
            }
            TraceEvent::GoalAccepted { goal, pe, .. } => {
                if let Some(prev) = open_flow.remove(&goal.0) {
                    events.push(
                        chrome_event("f", "hop", pe.0 as u64, t)
                            .str("id", &flow_id(goal.0, prev))
                            .str("bp", "e"),
                    );
                }
                events.push(
                    chrome_event("i", &format!("accept goal {}", goal.0), pe.0 as u64, t)
                        .str("s", "t"),
                );
            }
            _ => {
                // Everything else is a thread-scoped instant on the most
                // specific track the event names.
                let tid = match *e {
                    TraceEvent::GoalCreated { pe, .. }
                    | TraceEvent::TimerFired { pe, .. }
                    | TraceEvent::PeCrashed { pe, .. }
                    | TraceEvent::GoalLost { pe, .. }
                    | TraceEvent::GoalRespawned { pe, .. }
                    | TraceEvent::DuplicateResponse { pe, .. }
                    | TraceEvent::PeSlowed { pe, .. }
                    | TraceEvent::PeRestored { pe, .. }
                    | TraceEvent::RequestArrived { pe, .. }
                    | TraceEvent::RequestCompleted { pe, .. } => pe.0 as u64,
                    TraceEvent::Responded { from_pe, .. } => from_pe.0 as u64,
                    TraceEvent::ControlSent { from, .. } => from.0 as u64,
                    _ => net,
                };
                events.push(chrome_event("i", kind_name(e), tid, t).str("s", "t"));
            }
        }
    }

    let doc = Obj::new()
        .arr("traceEvents", events)
        .str("displayTimeUnit", "ms")
        .obj("otherData", run_header(trace, report));
    format!("{doc}\n")
}

/// Export a trace in the chosen format.
pub fn export_trace(trace: &Trace, report: &Report, format: TraceFormat) -> String {
    match format {
        TraceFormat::Jsonl => export_jsonl(trace, report),
        TraceFormat::Chrome => export_chrome(trace, report),
    }
}

/// Machine-readable utilization-series CSV (`--series-out`): the paper's
/// load-monitor stream as data. One row per sampling interval:
/// `interval_start,avg,pe0,pe1,...` — all utilizations fractions in
/// `[0, 1]`. The per-PE columns appear only when the run kept per-PE
/// series; a PE whose (independently coarsened) series is shorter than the
/// run pads with 0 (idle), matching the heatmap renderer.
pub fn export_series_csv(report: &Report) -> String {
    let pes = report.per_pe_series.as_ref().map_or(0, Vec::len);
    let mut header = vec!["interval_start".to_string(), "avg".to_string()];
    header.extend((0..pes).map(|pe| format!("pe{pe}")));
    let mut table = Table::new("", &header);
    for (i, &(t0, avg)) in report.util_series.iter().enumerate() {
        let mut row = vec![t0.to_string(), format!("{avg:.6}")];
        for series in report.per_pe_series.iter().flatten() {
            row.push(format!("{:.6}", series.get(i).copied().unwrap_or(0.0)));
        }
        table.row(row);
    }
    format!(
        "# oracle-series-v1\n# strategy={} topology={} program={} seed={}\n{}",
        report.strategy,
        report.topology,
        report.program,
        report.seed,
        table.to_csv()
    )
}

/// What a validated trace file contained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Payload events (excluding headers / metadata events).
    pub events: usize,
    /// Distinct tracks (`tid`s) seen (0 for JSONL, which has no tracks).
    pub tracks: usize,
    /// The header's `events_dropped` count.
    pub dropped: u64,
}

/// Validate a JSONL trace export: every line is a well-formed JSON object,
/// the first is an `oracle-trace-v1` header carrying `events_dropped`, and
/// event timestamps are non-decreasing.
pub fn validate_jsonl(text: &str) -> Result<TraceSummary, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header_line) = lines.next().ok_or("empty trace file")?;
    let header = parse_json(header_line).map_err(|e| format!("header: {e}"))?;
    let field = |key| header.num(key).map_err(|e| format!("header: {e}"));
    match header.text("schema") {
        Ok("oracle-trace-v1") => {}
        other => return Err(format!("bad schema {other:?}")),
    }
    let dropped = field("events_dropped")? as u64;
    let recorded = field("events_recorded")? as u64;
    let mut events = 0usize;
    let mut last_t = f64::NEG_INFINITY;
    for (i, line) in lines {
        let at_line = |e: String| format!("line {}: {e}", i + 1);
        let v = parse_json(line).map_err(at_line)?;
        v.text("kind").map_err(at_line)?;
        let t = v.num("t").map_err(at_line)?;
        if t < last_t {
            return Err(at_line("time went backwards".into()));
        }
        last_t = t;
        events += 1;
    }
    if events as u64 != recorded {
        return Err(format!(
            "header claims {recorded} events, file has {events}"
        ));
    }
    Ok(TraceSummary {
        events,
        tracks: 0,
        dropped,
    })
}

/// Validate a Chrome `trace_event` export structurally: the document is
/// well-formed JSON with a `traceEvents` array; every event has `ph`,
/// `pid`, `tid` and (except `M` metadata) a numeric `ts`; and timestamps
/// are non-decreasing per track. `otherData` must carry the
/// `events_dropped` count.
pub fn validate_chrome(text: &str) -> Result<TraceSummary, String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("missing traceEvents array")?;
    let dropped = doc
        .get("otherData")
        .ok_or("missing otherData")?
        .num("events_dropped")
        .map_err(|e| format!("otherData: {e}"))? as u64;
    let mut last_ts: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    let mut payload = 0usize;
    for (i, e) in events.iter().enumerate() {
        let at_event = |err: String| format!("event {i}: {err}");
        let ph = e.text("ph").map_err(at_event)?;
        e.num("pid").map_err(at_event)?;
        let tid = e.num("tid").map_err(at_event)? as u64;
        if ph == "M" {
            continue; // metadata events are unordered
        }
        let ts = e.num("ts").map_err(at_event)?;
        let last = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
        if ts < *last {
            return Err(format!(
                "event {i}: ts went backwards on track {tid} ({ts} < {last})"
            ));
        }
        *last = ts;
        payload += 1;
    }
    Ok(TraceSummary {
        events: payload,
        tracks: last_ts.len(),
        dropped,
    })
}

/// Validate `text` as `format`.
pub fn validate_trace(text: &str, format: TraceFormat) -> Result<TraceSummary, String> {
    match format {
        TraceFormat::Jsonl => validate_jsonl(text),
        TraceFormat::Chrome => validate_chrome(text),
    }
}

/// Sniff the format of an exported trace file: a Chrome export is one JSON
/// object holding `traceEvents`; anything else is read as JSONL.
pub fn sniff_format(text: &str) -> TraceFormat {
    match parse_json(text) {
        Ok(doc) if doc.get("traceEvents").is_some() => TraceFormat::Chrome,
        _ => TraceFormat::Jsonl,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SimulationBuilder;
    use oracle_strategies::StrategySpec;
    use oracle_topo::TopologySpec;
    use oracle_workloads::WorkloadSpec;

    fn traced_run(capacity: usize, mode: TraceMode) -> (Report, Trace) {
        SimulationBuilder::new()
            .topology(TopologySpec::grid(4))
            .strategy(StrategySpec::Cwn {
                radius: 4,
                horizon: 1,
            })
            .workload(WorkloadSpec::fib(10))
            .seed(11)
            .trace_capacity(capacity)
            .trace_mode(mode)
            .run_traced()
            .unwrap()
    }

    #[test]
    fn jsonl_round_trips_through_the_validator() {
        let (report, trace) = traced_run(100_000, TraceMode::KeepFirst);
        let text = export_jsonl(&trace, &report);
        let summary = validate_jsonl(&text).unwrap();
        assert_eq!(summary.events, trace.len());
        assert_eq!(summary.dropped, 0);
    }

    #[test]
    fn truncated_jsonl_header_reports_drops() {
        let (report, trace) = traced_run(20, TraceMode::KeepFirst);
        assert!(trace.dropped() > 0);
        let text = export_jsonl(&trace, &report);
        let summary = validate_jsonl(&text).unwrap();
        assert_eq!(summary.events, 20);
        assert_eq!(summary.dropped, trace.dropped());
        let header = parse_json(text.lines().next().unwrap()).unwrap();
        assert_eq!(header.num("events_dropped"), Ok(trace.dropped() as f64));
    }

    #[test]
    fn chrome_round_trips_through_the_validator() {
        let (report, trace) = traced_run(100_000, TraceMode::KeepFirst);
        let text = export_chrome(&trace, &report);
        let summary = validate_chrome(&text).unwrap();
        assert!(summary.events > 0);
        // Every PE executed something on a 4x4 grid, plus the network
        // track.
        assert!(summary.tracks > 1, "tracks: {}", summary.tracks);
        assert_eq!(summary.dropped, 0);
        assert_eq!(sniff_format(&text), TraceFormat::Chrome);
    }

    #[test]
    fn ring_mode_chrome_export_stays_monotone() {
        let (report, trace) = traced_run(64, TraceMode::KeepLast);
        assert!(trace.dropped() > 0);
        let text = export_chrome(&trace, &report);
        let summary = validate_chrome(&text).unwrap();
        assert_eq!(summary.dropped, trace.dropped());
    }

    #[test]
    fn open_run_trace_exports_carry_request_events() {
        let (report, trace) = SimulationBuilder::new()
            .topology(TopologySpec::grid(4))
            .strategy(StrategySpec::Cwn {
                radius: 4,
                horizon: 1,
            })
            .workload(WorkloadSpec::fib(8))
            .seed(5)
            .arrivals("poisson:4".parse().unwrap(), 3000)
            .trace_capacity(200_000)
            .run_traced()
            .unwrap();
        assert!(report.open.is_some());

        let jsonl = export_jsonl(&trace, &report);
        let summary = validate_jsonl(&jsonl).unwrap();
        assert_eq!(summary.events, trace.len());
        assert!(
            jsonl.lines().any(|l| l.contains("\"request_arrived\"")),
            "no request_arrived events in the JSONL export"
        );
        assert!(
            jsonl
                .lines()
                .any(|l| l.contains("\"request_completed\"") && l.contains("\"sojourn\"")),
            "no request_completed events with sojourn in the JSONL export"
        );

        let chrome = export_chrome(&trace, &report);
        let summary = validate_chrome(&chrome).unwrap();
        assert!(summary.events > 0);
        assert!(chrome.contains("request_arrived"));
        assert!(chrome.contains("request_completed"));
    }

    #[test]
    fn series_csv_lists_all_pes() {
        let report = SimulationBuilder::new()
            .topology(TopologySpec::grid(3))
            .strategy(StrategySpec::Cwn {
                radius: 4,
                horizon: 1,
            })
            .workload(WorkloadSpec::fib(10))
            .seed(3)
            .per_pe_series(true)
            .run()
            .unwrap();
        let csv = export_series_csv(&report);
        let header = csv.lines().nth(2).unwrap();
        assert!(header.starts_with("interval_start,avg,pe0,"));
        assert!(header.ends_with("pe8"));
        let rows: Vec<&str> = csv.lines().skip(3).collect();
        assert_eq!(rows.len(), report.util_series.len());
        // Every cell is a fraction in [0, 1].
        for row in rows {
            for cell in row.split(',').skip(1) {
                let u: f64 = cell.parse().unwrap();
                assert!((0.0..=1.0).contains(&u), "cell {u}");
            }
        }
    }

    #[test]
    fn validators_reject_tampered_exports() {
        let (report, trace) = traced_run(1000, TraceMode::KeepFirst);
        let jsonl = export_jsonl(&trace, &report);
        // Drop a line: the header count no longer matches.
        let mut lines: Vec<&str> = jsonl.lines().collect();
        lines.remove(lines.len() / 2);
        assert!(validate_jsonl(&lines.join("\n")).is_err());

        let chrome = export_chrome(&trace, &report);
        let broken = chrome.replace("\"otherData\"", "\"otherJunk\"");
        assert!(validate_chrome(&broken).is_err());
    }
}
