//! Fixture tests: every rule is exercised with a positive hit, a
//! clean negative, and (where applicable) a pragma-suppressed variant.
//!
//! The fixture trees under `tests/fixtures/` are miniature workspaces
//! (`<root>/crates/<name>/src/...`). They are scanned, never compiled.

use std::path::PathBuf;

use h3cdn_lint::{lint_workspace_with, Finding, LintOptions};

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Lints a fixture tree with only the syntactic rules enabled.
fn rule_findings(fixture: &str) -> Vec<Finding> {
    let opts = LintOptions {
        check_rules: true,
        check_ratchet: false,
        check_graph: false,
    };
    lint_workspace_with(&fixture_root(fixture), opts)
        .expect("fixture lints")
        .findings
}

/// `(rule, path, line)` triples for easy assertions.
fn keys(findings: &[Finding]) -> Vec<(String, String, usize)> {
    findings
        .iter()
        .map(|f| (f.rule.to_owned(), f.path.clone(), f.line))
        .collect()
}

/// The 1-based line of `marker` in a fixture file.
fn line_of(fixture: &str, rel: &str, marker: &str) -> usize {
    let text = std::fs::read_to_string(fixture_root(fixture).join(rel)).expect("fixture file");
    text.lines()
        .position(|l| l.contains(marker))
        .unwrap_or_else(|| panic!("marker {marker:?} not found in {rel}"))
        + 1
}

fn assert_hit(findings: &[Finding], rule: &str, rel: &str, marker: &str) {
    let line = line_of("det", rel, marker);
    assert!(
        keys(findings).contains(&(rule.to_owned(), rel.to_owned(), line)),
        "expected {rule} at {rel}:{line} ({marker:?}); got {findings:#?}"
    );
}

fn assert_clean(findings: &[Finding], rel: &str, marker: &str) {
    let line = line_of("det", rel, marker);
    assert!(
        !keys(findings)
            .iter()
            .any(|(_, p, l)| p == rel && *l == line),
        "expected no finding at {rel}:{line} ({marker:?}); got {findings:#?}"
    );
}

const NETSIM: &str = "crates/netsim/src/lib.rs";
const TRANSPORT: &str = "crates/transport/src/lib.rs";
const ANALYSIS: &str = "crates/analysis/src/lib.rs";
const RUNNER: &str = "crates/core/src/runner.rs";
const EXPERIMENTS: &str = "crates/experiments/src/lib.rs";
const ENGINE: &str = "crates/netsim/src/engine.rs";

#[test]
fn unordered_iter_hit_clean_and_pragma() {
    let f = rule_findings("det");
    assert_hit(
        &f,
        "unordered-iter",
        NETSIM,
        "self.paths.values().copied().collect()",
    );
    assert_hit(&f, "unordered-iter", NETSIM, "for id in seen {");
    // Sorted in the following statement, order-insensitive reductions,
    // and BTree collection are all clean.
    assert_clean(&f, NETSIM, "let mut v: Vec<u32> = self.paths.values()");
    assert_clean(&f, NETSIM, "self.paths.values().count()");
    assert_clean(&f, NETSIM, "collect::<BTreeMap<_, _>>()");
    // Pragma-suppressed variant.
    assert_clean(
        &f,
        NETSIM,
        "self.paths.values().map(|&v| f64::from(v)).sum()",
    );
}

#[test]
fn deleting_the_sort_reintroduces_the_finding() {
    // The acceptance-criterion scenario: take the clean
    // collect-then-sort site and delete the sort — the finding must
    // come back with a file:line + rule-id diagnostic.
    let source = std::fs::read_to_string(fixture_root("det").join(NETSIM)).expect("fixture");
    let without_sort = source.replace("v.sort_unstable();", "");
    assert_ne!(source, without_sort, "fixture contains the sort line");

    let dir = std::env::temp_dir().join(format!("h3cdn-lint-sortdel-{}", std::process::id()));
    let src_dir = dir.join("crates/netsim/src");
    std::fs::create_dir_all(&src_dir).expect("temp tree");
    std::fs::write(src_dir.join("lib.rs"), without_sort).expect("write");

    let opts = LintOptions {
        check_rules: true,
        check_ratchet: false,
        check_graph: false,
    };
    let report = lint_workspace_with(&dir, opts).expect("lints");
    std::fs::remove_dir_all(&dir).ok();

    let hit = report
        .findings
        .iter()
        .find(|f| f.rule == "unordered-iter" && f.path == NETSIM && f.message.contains("`paths`"));
    let hit = hit.expect("deleting the sort must produce an unordered-iter finding");
    assert!(hit.line > 0, "diagnostic carries a line number");
}

#[test]
fn wall_clock_hit_and_pragma() {
    let f = rule_findings("det");
    let hits: Vec<_> = keys(&f)
        .into_iter()
        .filter(|(r, p, _)| r == "wall-clock" && p == NETSIM)
        .collect();
    // Two hits (Instant::now + SystemTime); the pragma'd Instant::now
    // is suppressed.
    assert_eq!(hits.len(), 2, "got {f:#?}");
    assert_hit(
        &f,
        "wall-clock",
        NETSIM,
        "std::time::SystemTime::UNIX_EPOCH",
    );
}

#[test]
fn ambient_rng_and_env_read_hits() {
    let f = rule_findings("det");
    assert_hit(&f, "ambient-rng", NETSIM, "rand::thread_rng()");
    assert_hit(&f, "env-read", NETSIM, "std::env::var(\"NETSIM_KNOB\")");
}

#[test]
fn strings_never_trigger_rules() {
    let f = rule_findings("det");
    assert_clean(&f, NETSIM, "\"HashMap Instant::now thread_rng");
}

#[test]
fn sans_io_hits_and_error_exception() {
    let f = rule_findings("det");
    assert_hit(&f, "sans-io", TRANSPORT, "std::net::TcpStream");
    assert_hit(&f, "sans-io", TRANSPORT, "std::fs::read");
    assert_hit(&f, "sans-io", TRANSPORT, "std::thread::yield_now");
    assert_hit(&f, "sans-io", TRANSPORT, "std::io::stdin");
    assert_clean(&f, TRANSPORT, "fn good_error_plumbing");
}

#[test]
fn allowlist_suppresses_runner_thread_pool() {
    let f = rule_findings("det");
    assert_clean(&f, RUNNER, "std::thread::scope");
}

#[test]
fn raw_result_write_hit_clean_pragma_and_tests() {
    let f = rule_findings("det");
    assert_hit(
        &f,
        "raw-result-write",
        EXPERIMENTS,
        "std::fs::write(path, body)",
    );
    assert_hit(
        &f,
        "raw-result-write",
        EXPERIMENTS,
        "std::fs::File::create(path)",
    );
    // The sanctioned atomic path is clean.
    assert_clean(&f, EXPERIMENTS, "h3cdn::persist::atomic_write");
    // Pragma escape hatch for scratch files.
    assert_clean(&f, EXPERIMENTS, "std::fs::write(path, \"scratch\")");
    // Test modules may write scratch trees freely.
    assert_clean(&f, EXPERIMENTS, "std::fs::write(\"/tmp/scratch\"");
}

#[test]
fn float_rules_hit_clean_and_pragma() {
    let f = rule_findings("det");
    assert_hit(&f, "float-cmp", ANALYSIS, "x == 0.3");
    assert_hit(&f, "float-cmp", ANALYSIS, "x != 1.0");
    assert_clean(&f, ANALYSIS, "x == 0.0"); // pragma
    assert_clean(&f, ANALYSIS, "n == 10"); // integers are fine
    assert_clean(&f, ANALYSIS, "(x - 0.3).abs()"); // epsilon compare
    assert_hit(&f, "nan-sort", ANALYSIS, "a.partial_cmp(b).unwrap()");
    assert_clean(&f, ANALYSIS, "v.sort_by(f64::total_cmp)");
}

#[test]
fn ratchet_flags_only_the_count_beyond_baseline() {
    let opts = LintOptions {
        check_rules: false,
        check_ratchet: true,
        check_graph: false,
    };
    let report = lint_workspace_with(&fixture_root("ratchet"), opts).expect("fixture lints");
    // Baseline allows 1 unwrap; the fixture has 2 (and matches the
    // baseline exactly in every other category, with test code
    // excluded from the counts).
    assert_eq!(report.findings.len(), 1, "got {:#?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, "panic-ratchet");
    assert_eq!(f.path, "crates/netsim/src/lib.rs");
    assert!(f.message.contains("2 `unwrap` sites"), "{}", f.message);
    assert!(f.message.contains("baseline allows 1"), "{}", f.message);
}

#[test]
fn ratchet_counts_exclude_test_modules() {
    let opts = LintOptions {
        check_rules: false,
        check_ratchet: false,
        check_graph: false,
    };
    let report = lint_workspace_with(&fixture_root("ratchet"), opts).expect("fixture lints");
    let counts = report.counts.get("netsim").expect("netsim counted");
    assert_eq!(
        (counts.unwrap, counts.expect, counts.panic, counts.index),
        (2, 1, 1, 3),
        "library code only: the #[cfg(test)] module adds nothing"
    );
}

#[test]
fn one_line_test_items_end_at_their_semicolon() {
    let opts = LintOptions {
        check_rules: false,
        check_ratchet: false,
        check_graph: false,
    };
    let report = lint_workspace_with(&fixture_root("test_items"), opts).expect("fixture lints");
    let counts = report.counts.get("cdn").expect("cdn counted");
    assert_eq!(
        (
            counts.unwrap,
            counts.expect,
            counts.panic,
            counts.index,
            counts.assert
        ),
        (0, 0, 0, 2, 0),
        "the two library indexings count, the test module adds nothing"
    );
}

#[test]
fn asserts_count_but_debug_asserts_do_not() {
    let opts = LintOptions {
        check_rules: false,
        check_ratchet: false,
        check_graph: false,
    };
    let report = lint_workspace_with(&fixture_root("ratchet"), opts).expect("fixture lints");
    let counts = report.counts.get("netsim").expect("netsim counted");
    assert_eq!(counts.assert, 3, "assert!, assert_eq! and assert_ne!");
}

#[test]
fn stale_baseline_demands_regeneration() {
    let opts = LintOptions {
        check_rules: false,
        check_ratchet: true,
        check_graph: false,
    };
    let report = lint_workspace_with(&fixture_root("stale"), opts).expect("fixture lints");
    assert_eq!(report.findings.len(), 1, "got {:#?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule, "baseline-stale");
    assert!(f.hint.contains("--update-baseline"), "{}", f.hint);
}

#[test]
fn hot_path_alloc_hit_clean_and_pragma() {
    let f = rule_findings("det");
    // Every allocation idiom on the hot path is flagged.
    assert_hit(
        &f,
        "hot-path-alloc",
        ENGINE,
        "let buf: Vec<u8> = Vec::new();",
    );
    assert_hit(&f, "hot-path-alloc", ENGINE, "let tmp = vec![0u8; 16];");
    assert_hit(&f, "hot-path-alloc", ENGINE, "frames.to_vec()");
    assert_hit(&f, "hot-path-alloc", ENGINE, "Box::new(copied.len())");
    assert_hit(&f, "hot-path-alloc", ENGINE, "tmp.clone()");
    // Pragma exempts one-time construction.
    assert_clean(&f, ENGINE, "scratch: Vec::new(),");
    assert_clean(&f, ENGINE, "pool: vec![Vec::with_capacity(64)],");
    // Swap-and-drain reuse is clean.
    assert_clean(&f, ENGINE, "std::mem::take(&mut self.scratch)");
    // Test modules may allocate freely.
    assert_clean(&f, ENGINE, "let freely = vec![1, 2, 3];");
    // Files off the hot-path allowlist are never flagged.
    assert_clean(&f, NETSIM, "Vec::new()");
}

// ---------------------------------------------------------------------------
// Graph rules (the `graph` fixture): layering, hot-path reachability,
// seed plumbing, dead API surface.
// ---------------------------------------------------------------------------

/// Lints a fixture with only the symbol-graph rules enabled.
fn graph_report_of(fixture: &str) -> h3cdn_lint::Report {
    let opts = LintOptions {
        check_rules: false,
        check_ratchet: false,
        check_graph: true,
    };
    lint_workspace_with(&fixture_root(fixture), opts).expect("graph fixture lints")
}

/// Lints the `graph` fixture with only the symbol-graph rules enabled.
fn graph_report() -> h3cdn_lint::Report {
    graph_report_of("graph")
}

fn graph_line(rel: &str, marker: &str) -> usize {
    line_of("graph", rel, marker)
}

const G_ENGINE: &str = "crates/netsim/src/engine.rs";
const G_SCENARIO: &str = "crates/core/src/scenario.rs";
const G_PROVIDER: &str = "crates/cdn/src/provider.rs";

#[test]
fn layer_violation_hit_pragma_and_downward_edge() {
    let report = graph_report();
    let k = keys(&report.findings);
    let hit = graph_line(G_ENGINE, "use h3cdn::campaign::Campaign;");
    assert!(
        k.contains(&("layer-violation".to_owned(), G_ENGINE.to_owned(), hit)),
        "upward netsim -> core edge must be flagged; got {:#?}",
        report.findings
    );
    // The pragma-covered upward edge and the same-layer edge are clean.
    let pragma = graph_line(G_ENGINE, "use h3cdn::scenario::ScenarioSpec;");
    let lateral = graph_line(G_ENGINE, "use h3cdn_sim_core::SimTime;");
    assert!(!k.iter().any(|(r, p, l)| r == "layer-violation"
        && p == G_ENGINE
        && (*l == pragma || *l == lateral)));
    // The downward core -> netsim edge is clean.
    assert!(!k
        .iter()
        .any(|(r, p, _)| r == "layer-violation" && p == G_SCENARIO));
}

#[test]
fn hot_path_panic_reports_trace_and_respects_pragma() {
    let report = graph_report();
    let hit = graph_line(G_ENGINE, "self.slots.first().unwrap()");
    let finding = report
        .findings
        .iter()
        .find(|f| f.rule == "hot-path-panic" && f.path == G_ENGINE && f.line == hit)
        .unwrap_or_else(|| {
            panic!(
                "expected reachable unwrap at {G_ENGINE}:{hit}: {:#?}",
                report.findings
            )
        });
    let trace = finding
        .trace
        .as_deref()
        .expect("every hot-path finding carries a trace");
    assert!(
        trace.contains("Engine::run_until_checked") && trace.contains("dispatch_one"),
        "trace must show the dispatch chain; got {trace:?}"
    );
    // The pragma-covered site is out of both the findings and the budget.
    let exempt = graph_line(G_ENGINE, "self.slots.last().unwrap()");
    assert!(!report
        .findings
        .iter()
        .any(|f| f.rule == "hot-path-panic" && f.line == exempt));
    // The cold helper's unwrap is unreachable from the dispatch roots.
    let cold = graph_line(G_ENGINE, "next_back().unwrap()");
    assert!(!report
        .findings
        .iter()
        .any(|f| f.rule == "hot-path-panic" && f.line == cold));
    // Exactly the one live reachable site is counted.
    assert_eq!(report.graph_stats.hot_path_reachable_sites, 1);
    assert!(report.graph_stats.hot_path_reachable_fns >= 2);
}

#[test]
fn tcp_driving_methods_are_hot_path_roots() {
    // The `tcp_root` fixture's only route to its `expect` starts at a
    // TCP endpoint's `Driveable::on_packet`: every H2 visit runs it.
    const TCP: &str = "crates/transport/src/tcp.rs";
    let report = graph_report_of("tcp_root");
    let hit = line_of("tcp_root", TCP, ".expect(\"covered segment\")");
    let finding = report
        .findings
        .iter()
        .find(|f| f.rule == "hot-path-panic" && f.path == TCP && f.line == hit)
        .unwrap_or_else(|| {
            panic!(
                "expected reachable expect at {TCP}:{hit}: {:#?}",
                report.findings
            )
        });
    let trace = finding
        .trace
        .as_deref()
        .expect("hot-path findings carry a trace");
    assert!(
        trace.starts_with("TcpConnection::on_packet") && trace.contains("process_ack"),
        "trace must start at the TCP driving method; got {trace:?}"
    );
    assert_eq!(report.graph_stats.hot_path_reachable_sites, 1);
}

#[test]
fn unseeded_rng_hit_pragma_and_seed_flow() {
    let report = graph_report();
    let k = keys(&report.findings);
    let hit = graph_line(G_SCENARIO, "SimRng::seed_from(0xDEAD_BEEF)");
    assert!(
        k.contains(&("unseeded-rng".to_owned(), G_SCENARIO.to_owned(), hit)),
        "literal seed must be flagged; got {:#?}",
        report.findings
    );
    for marker in [
        "SimRng::seed_from(run_seed)",
        "SimRng::seed_from(scenario.seed ^ 0x9E37_79B9)",
        "SimRng::seed_from(0x5EED)",
    ] {
        let line = graph_line(G_SCENARIO, marker);
        assert!(
            !k.iter()
                .any(|(r, p, l)| r == "unseeded-rng" && p == G_SCENARIO && *l == line),
            "{marker} must not be flagged"
        );
    }
}

#[test]
fn dead_pub_hit_pragma_allowlist_and_cross_crate_reference() {
    let report = graph_report();
    let k = keys(&report.findings);
    let hit = graph_line(G_PROVIDER, "pub fn orphan_probe()");
    assert!(
        k.contains(&("dead-pub".to_owned(), G_PROVIDER.to_owned(), hit)),
        "unreferenced pub fn must be flagged; got {:#?}",
        report.findings
    );
    // Cross-crate reference (core calls fetch_origin) keeps an item alive.
    let alive = graph_line(G_PROVIDER, "pub fn fetch_origin");
    assert!(!k.iter().any(|(r, _, l)| r == "dead-pub" && *l == alive));
    // Pragma-covered export is suppressed.
    let pragma = graph_line(G_PROVIDER, "pub fn deliberate_api()");
    assert!(!k.iter().any(|(r, _, l)| r == "dead-pub" && *l == pragma));
    // The workspace allowlist suppresses the resilience constant.
    assert!(!k
        .iter()
        .any(|(r, p, _)| r == "dead-pub" && p == "crates/browser/src/resilience.rs"));
    // Suppressions were counted, not dropped on the floor.
    assert!(report.suppressed >= 4, "suppressed = {}", report.suppressed);
}

#[test]
fn two_findings_of_one_rule_on_one_line_both_survive_dedup() {
    // Regression: the dedup key once excluded the message, so two
    // distinct findings of one rule on one line collapsed into one.
    let f = rule_findings("det");
    let line = line_of(
        "det",
        TRANSPORT,
        "std::thread::spawn(|| std::net::TcpStream",
    );
    let on_line: Vec<_> = f
        .iter()
        .filter(|x| x.path == TRANSPORT && x.line == line && x.rule == "sans-io")
        .collect();
    assert_eq!(
        on_line.len(),
        2,
        "both the std::thread and std::net findings must survive: {on_line:#?}"
    );
    assert_ne!(on_line[0].message, on_line[1].message);
}
