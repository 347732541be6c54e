//! `oracle-cli experiment` through the built binary: it prints exactly the
//! experiment registry's rendering, and a reader that closes the pipe
//! early (`| head`) is a quiet success, not a panic.

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
    let mut child = oracle_cli()
        .args(["experiment", "table3", "--quick"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("oracle-cli starts");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("oracle-cli finishes");
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stderr), "");
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
