//! `oracle-cli` through the built binary: `experiment` prints exactly the
//! experiment registry's rendering, and for every subcommand a reader that
//! closes the pipe early (`| head`) is a quiet success, not a panic.

use std::process::{Command, Stdio};

use oracle::experiments::{registry, Fidelity};

fn oracle_cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_oracle-cli"))
}

#[test]
fn experiment_prints_the_registry_rendering() {
    let out = oracle_cli()
        .args(["experiment", "table3", "--quick"])
        .output()
        .expect("oracle-cli runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table3 = registry::find("table3").expect("table3 is registered");
    let expected = (table3.run)(Fidelity::Quick, 1)
        .expect("table3 has no checks to fail")
        .text();
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
}

#[test]
fn closed_stdout_exits_0_quietly() {
    let dir = std::env::temp_dir().join(format!("oracle-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let suite = dir.join("suite.txt");
    std::fs::write(&suite, "grid:4 cwn:4x1 fib:8\n").expect("suite file");
    let trace = dir.join("trace.jsonl");
    let status = oracle_cli()
        .args([
            "run",
            "--topology",
            "grid:4",
            "--workload",
            "fib:8",
            "--trace-out",
        ])
        .arg(&trace)
        .stdout(Stdio::null())
        .status()
        .expect("oracle-cli runs");
    assert!(status.success());
    let (suite, trace) = (suite.to_str().unwrap(), trace.to_str().unwrap());
    // `topo-info grid:64 --dot` prints ~140 KB, more than a pipe buffer
    // holds, so it meets the closed pipe even if it starts writing first.
    let commands: [&[&str]; 8] = [
        &["experiment", "table3", "--quick"],
        &["topo-info", "grid:64", "--dot"],
        &["list"],
        &["run", "--topology", "grid:4", "--workload", "fib:8"],
        &["compare", "--topology", "grid:4", "--workload", "fib:8"],
        &["batch", suite],
        &["chaos", "--cases", "2", "--threads", "1"],
        &["trace-check", trace],
    ];
    for args in commands {
        let mut child = oracle_cli()
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("oracle-cli starts");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("oracle-cli finishes");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert_eq!(stderr, "", "{args:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_experiments_and_missing_sections_exit_3() {
    for args in [
        &["experiment", "not-a-table"][..],
        &["experiment", "table3", "--quick", "--json"],
    ] {
        let out = oracle_cli().args(args).output().expect("oracle-cli runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error[config]: "), "{args:?}: {stderr}");
    }
}
