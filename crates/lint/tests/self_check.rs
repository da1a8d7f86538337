//! Self-check: the live workspace passes its own correctness policy,
//! and the checked-in panic-surface baseline matches a fresh count.

use std::path::PathBuf;

use h3cdn_lint::{baseline, lint_workspace};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn live_workspace_has_zero_unsuppressed_findings() {
    let report = lint_workspace(&workspace_root()).expect("workspace lints");
    assert!(
        report.findings.is_empty(),
        "the live workspace must pass h3cdn-lint cleanly; findings:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.files_scanned > 50,
        "sanity: the scanner saw the real tree"
    );
}

#[test]
fn every_hot_path_root_resolves() {
    // A renamed or deleted root would silently shrink the hot-path gate.
    let stats = lint_workspace(&workspace_root())
        .expect("workspace lints")
        .graph_stats;
    assert!(
        stats.hot_path_unresolved_roots.is_empty(),
        "HOT_PATH_ROOTS entries that name no function: {:?}",
        stats.hot_path_unresolved_roots
    );
    assert!(stats.hot_path_roots > 0, "sanity: the roots were found");
}

#[test]
fn checked_in_baseline_matches_fresh_count() {
    let root = workspace_root();
    let fresh = lint_workspace(&root).expect("workspace lints").counts;
    let stored =
        baseline::load(&root.join("crates/lint/baseline.json")).expect("baseline.json present");
    assert_eq!(
        stored, fresh,
        "crates/lint/baseline.json is out of date; run `cargo run -q -p h3cdn-lint -- \
         --workspace-root . --update-baseline` and commit the result"
    );
}

#[test]
fn baseline_round_trips_through_render_and_parse() {
    let root = workspace_root();
    let fresh = lint_workspace(&root).expect("workspace lints").counts;
    let rendered = baseline::render(&fresh);
    let tmp = std::env::temp_dir().join(format!("h3cdn-lint-rt-{}.json", std::process::id()));
    std::fs::write(&tmp, &rendered).expect("write temp baseline");
    let reparsed = baseline::load(&tmp).expect("reparse");
    std::fs::remove_file(&tmp).ok();
    assert_eq!(reparsed, fresh);
}
