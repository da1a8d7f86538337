//! End-to-end quarantine and resume behavior of the experiment
//! binaries, driven through the real executables.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("h3cdn-exp-quarantine-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run(bin: &str, args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(bin);
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("binary runs")
}

#[test]
fn chaos_page_is_quarantined_and_the_table_still_prints() {
    let out = run(
        env!("CARGO_BIN_EXE_fig2"),
        &["--pages", "4", "--seed", "11", "--jobs", "2"],
        &[("H3CDN_PANIC_SITE", "1")],
    );
    assert!(out.status.success(), "fig2 must survive a poisoned page");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stdout.trim().is_empty(), "the figure still prints");
    assert!(
        stderr.contains("quarantined job(s)"),
        "quarantine summary on stderr: {stderr}"
    );
    assert!(
        stderr.contains("--bin visit_one") && stderr.contains("--site 1"),
        "repro command recorded: {stderr}"
    );
    assert!(
        stderr.contains("H3CDN_PANIC_SITE=1"),
        "repro re-arms the chaos hook: {stderr}"
    );
}

#[test]
fn first_vs_repeat_quarantines_a_chaos_page_and_completes() {
    let out = run(
        env!("CARGO_BIN_EXE_first_vs_repeat"),
        &["--pages", "3", "--seed", "11", "--jobs", "2"],
        &[("H3CDN_PANIC_SITE", "1")],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "first_vs_repeat must survive: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("First") && stdout.contains("Repeat"));
    assert!(
        stderr.contains("campaign finished with 4 quarantined job(s)"),
        "both modes, both sides: {stderr}"
    );
    for label in [
        "First visit site 1 h2 @ utah",
        "First visit site 1 h3 @ utah",
        "Repeat visit site 1 h2 @ utah",
        "Repeat visit site 1 h3 @ utah",
    ] {
        assert!(stderr.contains(label), "{label} named: {stderr}");
    }
    assert!(
        stderr
            .contains("H3CDN_PANIC_SITE=1 cargo run -q -p h3cdn-experiments --bin first_vs_repeat"),
        "repro re-arms the chaos hook: {stderr}"
    );
}

#[test]
fn sweep_quarantines_a_chaos_site_in_every_cell() {
    let out = run(
        env!("CARGO_BIN_EXE_edge_overload"),
        &["--pages", "3", "--seed", "11", "--jobs", "2"],
        &[("H3CDN_PANIC_SITE", "1")],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "edge_overload must survive: {stderr}");
    // Site 1 of every (scenario, arm) cell: 6 scenarios x 3 arms.
    assert!(
        stderr.contains("campaign finished with 18 quarantined job(s)"),
        "{stderr}"
    );
    let repro =
        "repro: H3CDN_PANIC_SITE=1 cargo run -q -p h3cdn-experiments --bin edge_overload -- \
                 --pages 3 --seed 11 --vantage utah";
    assert!(
        stderr.lines().any(|l| l.trim() == repro),
        "repro re-arms the chaos hook and names the vantage: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let control: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("control/solo"))
        .collect();
    assert_eq!(control.len(), 3, "{stdout}");
    for row in control {
        let pages = row.split_whitespace().nth(2);
        assert_eq!(pages, Some("2"), "the poisoned page is dropped: {row}");
    }
}

#[test]
fn quarantine_repro_command_replays_the_panic() {
    // The repro the quarantine points at: visit_one with the chaos
    // hook armed panics in the foreground ...
    let bad = run(
        env!("CARGO_BIN_EXE_visit_one"),
        &[
            "--pages",
            "4",
            "--seed",
            "11",
            "--site",
            "1",
            "--vantage",
            "utah",
            "--mode",
            "h3",
        ],
        &[("H3CDN_PANIC_SITE", "1")],
    );
    assert!(!bad.status.success(), "the repro must reproduce the panic");
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(
        stderr.contains("deliberately injected panic at site 1"),
        "panic payload visible: {stderr}"
    );

    // ... and without the hook the very same visit completes, proving
    // the failure was the injected fault and not the page.
    let good = run(
        env!("CARGO_BIN_EXE_visit_one"),
        &[
            "--pages",
            "4",
            "--seed",
            "11",
            "--site",
            "1",
            "--vantage",
            "utah",
            "--mode",
            "h3",
        ],
        &[],
    );
    assert!(good.status.success(), "clean replay completes");
    let stdout = String::from_utf8_lossy(&good.stdout);
    assert!(
        stdout.contains("site 1 h3 @ Utah"),
        "summary line: {stdout}"
    );
}

#[test]
fn interrupted_checkpoint_resumes_to_identical_stdout() {
    let dir = scratch("resume");
    let results = dir.to_string_lossy().into_owned();
    let args = |extra: &[&str]| -> Vec<String> {
        let mut a: Vec<String> = [
            "--pages",
            "3",
            "--seed",
            "11",
            "--json",
            "--results-dir",
            &results,
            "--run-id",
            "itest",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        a.extend(extra.iter().map(|s| (*s).to_owned()));
        a
    };

    // Ground truth: a plain uncheckpointed run.
    let clean = run(
        env!("CARGO_BIN_EXE_fig6"),
        &["--pages", "3", "--seed", "11", "--json"],
        &[],
    );
    assert!(clean.status.success());

    // Checkpointed run, then delete part of the journal to simulate a
    // kill mid-run, then resume at a different worker count.
    let first = run(
        env!("CARGO_BIN_EXE_fig6"),
        &args(&["--jobs", "1"])
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
        &[],
    );
    assert!(first.status.success());
    assert_eq!(first.stdout, clean.stdout, "checkpointing is transparent");

    let mut jobs: Vec<PathBuf> = Vec::new();
    let mut stack = vec![dir.join(".runs/itest/jobs")];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("journal dir").flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                jobs.push(p);
            }
        }
    }
    jobs.sort();
    assert!(jobs.len() >= 2, "journal populated: {jobs:?}");
    for dropped in &jobs[..jobs.len() / 2] {
        std::fs::remove_file(dropped).expect("simulate interruption");
    }

    let resumed = run(
        env!("CARGO_BIN_EXE_fig6"),
        &args(&["--resume", "--jobs", "4"])
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
        &[],
    );
    assert!(resumed.status.success());
    assert_eq!(
        resumed.stdout, clean.stdout,
        "resumed stdout is byte-identical to the uninterrupted run"
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("loaded from checkpoint journal"),
        "resume reported: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
