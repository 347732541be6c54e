//! `oracle-cli run`'s report through the built binary: the `--csv` key
//! list is pinned, every CSV row has exactly two fields, the text form
//! prints the same table, and specs the builders would reject exit 3.

use std::process::Command;

fn oracle_cli(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_oracle-cli"))
        .args(args)
        .output()
        .expect("oracle-cli runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The fields of one RFC 4180 CSV line (no embedded line breaks).
fn csv_fields(line: &str) -> Vec<String> {
    let mut fields = vec![String::new()];
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted && chars.peek() == Some(&'"') => {
                chars.next();
                fields.last_mut().unwrap().push('"');
            }
            '"' => quoted = !quoted,
            ',' if !quoted => fields.push(String::new()),
            c => fields.last_mut().unwrap().push(c),
        }
    }
    fields
}

/// `run --csv` with `args`, as (metric, value) rows after the header.
fn csv_rows(args: &[&str]) -> Vec<(String, String)> {
    let mut all = vec!["run"];
    all.extend(args);
    all.push("--csv");
    let (code, stdout, stderr) = oracle_cli(&all);
    assert_eq!(code, Some(0), "{args:?}: {stderr}");
    let mut lines = stdout.lines();
    assert_eq!(lines.next(), Some("metric,value"), "{args:?}");
    lines
        .map(|line| match csv_fields(line).as_slice() {
            [metric, value] => (metric.clone(), value.clone()),
            other => panic!("{args:?}: row {line:?} has {} fields", other.len()),
        })
        .collect()
}

const CLOSED_KEYS: [&str; 16] = [
    "strategy",
    "topology",
    "program",
    "num_pes",
    "completion_time",
    "result",
    "goals",
    "avg_utilization",
    "speedup",
    "avg_goal_distance",
    "hop_overflow",
    "goal_hops",
    "response_hops",
    "control_msgs",
    "load_updates",
    "events",
];

const FAULT_KEYS: [&str; 6] = [
    "pes_crashed",
    "goals_lost",
    "goals_respawned",
    "messages_dropped",
    "duplicate_responses",
    "retries_exhausted",
];

const OPEN_KEYS: [&str; 25] = [
    "open_outcome",
    "open_duration",
    "open_warmup",
    "arrivals_total",
    "completions_total",
    "completions_measured",
    "inflight_at_end",
    "offered_rate",
    "throughput",
    "goodput",
    "deadline",
    "shed",
    "shed_rate",
    "abandoned_deadline",
    "abandoned_retries",
    "abandonment_rate",
    "retries",
    "breaker_opens",
    "sojourn_mean",
    "sojourn_p50",
    "sojourn_p95",
    "sojourn_p99",
    "sojourn_max",
    "qlen_time_avg",
    "qlen_p95",
];

fn keys(rows: &[(String, String)]) -> Vec<&str> {
    rows.iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn csv_key_lists_are_pinned() {
    let closed = csv_rows(&[
        "--topology",
        "grid:4",
        "--strategy",
        "cwn:4x1",
        "--workload",
        "fib:10",
        "--seed",
        "5",
    ]);
    assert_eq!(keys(&closed), CLOSED_KEYS);

    let faulty = csv_rows(&[
        "--topology",
        "grid:6",
        "--strategy",
        "cwn:5x1",
        "--workload",
        "fib:12",
        "--faults",
        "crash:7@400+loss:1%+recover:800x8",
    ]);
    let want: Vec<&str> = CLOSED_KEYS.iter().chain(&FAULT_KEYS).copied().collect();
    assert_eq!(keys(&faulty), want);

    let open = csv_rows(&[
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
    ]);
    let want: Vec<&str> = CLOSED_KEYS.iter().chain(&OPEN_KEYS).copied().collect();
    assert_eq!(keys(&open), want);
}

#[test]
fn comma_bearing_program_names_stay_one_field() {
    for (workload, program) in [
        ("dc:4181", "dc(1,4181)"),
        ("lopsided:20x3", "lopsided(20,3%)"),
        ("random:50x3x2x7", "random(50,3,2,seed=7)"),
        ("tak:6x4x2", "tak(6,4,2)"),
    ] {
        let rows = csv_rows(&["--topology", "grid:4", "--workload", workload]);
        let name = &rows.iter().find(|(k, _)| k == "program").unwrap().1;
        assert_eq!(name, program, "{workload}");
    }
}

#[test]
fn text_report_is_the_same_table() {
    let args = [
        "--topology",
        "grid:6",
        "--strategy",
        "cwn:5x1",
        "--workload",
        "fib:12",
        "--faults",
        "crash:7@400+loss:1%+recover:800x8",
    ];
    let rows = csv_rows(&args);
    let mut all = vec!["run"];
    all.extend(args);
    let (code, text, stderr) = oracle_cli(&all);
    assert_eq!(code, Some(0), "{stderr}");
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("fib(12) on grid 6x6 under cwn"));
    let body: Vec<&str> = lines.skip(2).collect();
    assert_eq!(body.len(), rows.len());
    for (line, (metric, value)) in body.iter().zip(&rows) {
        let cells: Vec<&str> = line.split("  ").filter(|c| !c.is_empty()).collect();
        assert_eq!(cells.first().copied(), Some(metric.as_str()), "{line}");
        assert_eq!(
            cells.last().map(|c| c.trim()),
            Some(value.as_str()),
            "{line}"
        );
    }
}

#[test]
fn unbuildable_specs_exit_3_naming_the_token() {
    for (args, token) in [
        (&["run", "--topology", "grid:1"][..], "grid:1"),
        (&["run", "--topology", "rand:10x0"], "rand:10x0"),
        (&["run", "--workload", "fib:91"], "fib:91"),
        (&["run", "--workload", "dc:0"], "dc:0"),
        (&["run", "--strategy", "gm:0x0x0"], "gm:0x0x0"),
        (&["topo-info", "grid:4", "torus:1"], "torus:1"),
        (&["topo-info", "kary:1x2"], "kary:1x2"),
        (&["topo-info", "--dot", "tree:0x2"], "tree:0x2"),
    ] {
        let (code, _, stderr) = oracle_cli(args);
        assert_eq!(code, Some(3), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error[config]: ") && stderr.contains(token),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
