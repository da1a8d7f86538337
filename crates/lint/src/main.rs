//! CLI for `h3cdn-lint`.
//!
//! ```text
//! h3cdn-lint [--workspace-root PATH] [--update-baseline] [--quiet]
//!            [--json] [--json-out PATH]
//! ```
//!
//! `--json` prints the machine-readable report to stdout instead of
//! the human-readable findings; `--json-out PATH` writes the same
//! report to a file *in addition to* the human output (the CI
//! artifact mode). Exit codes: `0` clean, `1` findings, `2` usage or
//! I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut update_baseline = false;
    let mut quiet = false;
    let mut json = false;
    let mut json_out: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace-root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage("--workspace-root needs a path"),
            },
            "--update-baseline" => update_baseline = true,
            "--quiet" | "-q" => quiet = true,
            "--json" => json = true,
            "--json-out" => match args.next() {
                Some(p) => json_out = Some(PathBuf::from(p)),
                None => return usage("--json-out needs a path"),
            },
            "--help" | "-h" => {
                println!(
                    "h3cdn-lint: workspace determinism, sans-IO & symbol-graph static \
                     analysis\n\n\
                     usage: h3cdn-lint [--workspace-root PATH] [--update-baseline] \
                     [--quiet] [--json] [--json-out PATH]"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    if update_baseline {
        return run_update_baseline(&root, quiet);
    }

    let report = match h3cdn_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("h3cdn-lint: error: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &json_out {
        if let Err(e) = std::fs::write(path, h3cdn_lint::render_json(&report)) {
            eprintln!("h3cdn-lint: error: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if json {
        print!("{}", h3cdn_lint::render_json(&report));
    } else {
        for finding in &report.findings {
            println!("{finding}");
        }
    }
    if report.findings.is_empty() {
        if !quiet && !json {
            let g = &report.graph_stats;
            println!(
                "h3cdn-lint: OK ({} files scanned, {} finding(s) suppressed by \
                 pragma/allowlist; graph: {} fns, {} cross-crate edges, {} pub items, \
                 {} fns / {} panic sites reachable from {} hot-path roots, {} unresolved)",
                report.files_scanned,
                report.suppressed,
                g.fns,
                g.use_edges,
                g.pub_items,
                g.hot_path_reachable_fns,
                g.hot_path_reachable_sites,
                g.hot_path_roots,
                g.hot_path_unresolved_roots.len(),
            );
        }
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "h3cdn-lint: {} unsuppressed finding(s)",
            report.findings.len()
        );
        ExitCode::FAILURE
    }
}

/// Recounts the panic surface (including the hot-path reachability
/// budget) and rewrites `crates/lint/baseline.json`.
fn run_update_baseline(root: &std::path::Path, quiet: bool) -> ExitCode {
    let opts = h3cdn_lint::LintOptions {
        check_rules: false,
        check_ratchet: false,
        check_graph: true,
    };
    let report = match h3cdn_lint::lint_workspace_with(root, opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("h3cdn-lint: error: {e}");
            return ExitCode::from(2);
        }
    };
    let path = root.join("crates/lint/baseline.json");
    let old_total: usize = match h3cdn_lint::baseline::load(&path) {
        Ok(old) => old.values().map(h3cdn_lint::Counts::total).sum(),
        Err(_) => 0,
    };
    let new_total: usize = report.counts.values().map(h3cdn_lint::Counts::total).sum();
    if let Err(e) = h3cdn_lint::baseline::store(&path, &report.counts) {
        eprintln!("h3cdn-lint: error: {e}");
        return ExitCode::from(2);
    }
    if !quiet {
        println!("h3cdn-lint: baseline updated ({old_total} -> {new_total} total panic sites)");
        if new_total > old_total && old_total > 0 {
            println!(
                "h3cdn-lint: warning: the panic surface GREW by {} — the ratchet is meant \
                 to go down; justify this in review",
                new_total - old_total
            );
        }
    }
    ExitCode::SUCCESS
}

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "h3cdn-lint: {msg}\nusage: h3cdn-lint [--workspace-root PATH] [--update-baseline] \
         [--quiet] [--json] [--json-out PATH]"
    );
    ExitCode::from(2)
}
