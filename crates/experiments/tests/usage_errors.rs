//! Command-line misuse is a usage error, not a crash: the binaries
//! print one line to stderr and exit 2, and `--help` exits 0.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn assert_usage_error(out: &Output, names: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(names),
        "the message names {names}: {stderr}"
    );
    assert_eq!(
        stderr.lines().count(),
        1,
        "one line, no backtrace: {stderr}"
    );
}

#[test]
fn unknown_flag_exits_2_and_names_the_flag() {
    let out = run(env!("CARGO_BIN_EXE_fig2"), &["--bogus"]);
    assert_usage_error(&out, "--bogus");
}

#[test]
fn help_exits_0_before_required_flags_are_checked() {
    let out = run(env!("CARGO_BIN_EXE_visit_one"), &["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("--site"),
        "help lists the binary's own flags: {stdout}"
    );
    assert!(
        stdout.contains("--pages"),
        "help lists the common flags: {stdout}"
    );
}

#[test]
fn binary_specific_flags_are_usage_errors_too() {
    let out = run(env!("CARGO_BIN_EXE_visit_one"), &[]);
    assert_usage_error(&out, "--site");
    let out = run(
        env!("CARGO_BIN_EXE_visit_one"),
        &["--site", "1", "--mode", "h4"],
    );
    assert_usage_error(&out, "--mode");
    let out = run(env!("CARGO_BIN_EXE_population"), &["--window", "0"]);
    assert_usage_error(&out, "--window");
    // An empty corpus is refused before either binary generates one.
    for bin in [env!("CARGO_BIN_EXE_fig2"), env!("CARGO_BIN_EXE_population")] {
        let out = run(bin, &["--pages", "0"]);
        assert_usage_error(&out, "--pages");
    }
}
