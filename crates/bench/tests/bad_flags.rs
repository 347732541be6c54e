//! The bench binaries reject bad flags with a usage error (exit 2), never a
//! panic.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_flags_are_usage_errors() {
    let cases: [(&str, &[&str], &str); 7] = [
        (env!("CARGO_BIN_EXE_throughput"), &["--reps", "0"], "--reps"),
        (env!("CARGO_BIN_EXE_throughput"), &["--reps", "x"], "--reps"),
        (env!("CARGO_BIN_EXE_throughput"), &["--bogus"], "--bogus"),
        (env!("CARGO_BIN_EXE_scale"), &["--bogus"], "--bogus"),
        (env!("CARGO_BIN_EXE_scale"), &["--seed", "x"], "--seed"),
        (env!("CARGO_BIN_EXE_scale"), &["--out"], "--out"),
        (env!("CARGO_BIN_EXE_scale"), &["--cell", "grid:0"], "grid:0"),
    ];
    for (bin, args, named) in cases {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(named),
            "{bin} {args:?}: {stderr}"
        );
        assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    }
}
