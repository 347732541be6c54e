//! End-to-end flag checking through the built `oracle-cli` binary: an
//! unknown flag, or a value flag without its value, exits 3 with one
//! `error[config]` line on stderr that names the flag.

use std::process::Command;

fn oracle_cli(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_oracle-cli"))
        .args(args)
        .output()
        .expect("oracle-cli runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_and_valueless_flags_exit_3_naming_the_flag() {
    let cases: [(&[&str], &str); 4] = [
        (&["run", "--shards", "2"], "--shards"),
        (
            &[
                "run",
                "--topology",
                "grid:4",
                "--workload",
                "fib:8",
                "--bogus-flag",
                "3",
            ],
            "--bogus-flag",
        ),
        (&["run", "--topology", "grid:4", "--seed"], "--seed"),
        (
            &["batch", "suites/resilience.txt", "--frobnicate"],
            "--frobnicate",
        ),
    ];
    for (args, flag) in cases {
        let (code, stderr) = oracle_cli(args);
        assert_eq!(code, Some(3), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error[config]: ") && stderr.contains(flag),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn known_flags_still_run() {
    let (code, stderr) = oracle_cli(&[
        "run",
        "--topology",
        "grid:4",
        "--workload",
        "fib:8",
        "--seed",
        "3",
        "--csv",
    ]);
    assert_eq!(code, Some(0), "{stderr}");
}
