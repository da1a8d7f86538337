//! `h3cdn-lint` — a dependency-free, pure-`std` source-level analyzer
//! that enforces the workspace's simulation-correctness policy.
//!
//! The paper reproduction is only trustworthy because every layer is
//! bit-deterministic. This crate turns that discipline into
//! machine-checked rules over the source tree (a line/token scanner —
//! deliberately *not* `syn`, so the workspace stays hermetic):
//!
//! * **determinism** — `RULE_UNORDERED_ITER`, `RULE_WALL_CLOCK`,
//!   `RULE_AMBIENT_RNG`, `RULE_ENV_READ`: no unordered
//!   `HashMap`/`HashSet` iteration, no wall-clock reads, no ambient
//!   RNG, no environment reads in sim-affecting crates.
//! * **sans-IO purity** — `RULE_SANS_IO`: the transport / netsim /
//!   http / sim-core state machines must not touch `std::net`,
//!   `std::fs`, `std::io` (except `std::io::Error*`) or `std::thread`.
//! * **panic-surface ratchet** — `RULE_PANIC_RATCHET`: per-crate
//!   counts of `.unwrap()`, `.expect(`, `panic!`-family macros and
//!   `[idx]`-style indexing in library code are checked against
//!   `crates/lint/baseline.json`, which may only decrease.
//! * **float hazards** — `RULE_FLOAT_CMP`, `RULE_NAN_SORT`:
//!   `==`/`!=` against float literals and NaN-unaware
//!   `partial_cmp`-based sorts in `crates/analysis`.
//! * **crash-safe artifacts** — `RULE_RAW_RESULT_WRITE`: result
//!   artifacts in the campaign/experiment crates must go through
//!   `h3cdn::persist::atomic_write` (write-temp-fsync-rename), never
//!   raw `std::fs::write` / `File::create` — a killed process must not
//!   leave torn results or journals behind.
//! * **hot-path allocation** — `RULE_HOT_PATH_ALLOC`: the files on
//!   the per-event dispatch path (`HOT_PATH_FILES`) must not
//!   allocate in steady state (`Vec::new`, `vec![]`, `.clone()`,
//!   `format!`, ...); buffers are pooled or swapped through scratch
//!   space instead. Cold construction paths opt out with a pragma.
//!
//! Individual lines can opt out with a pragma comment, either on the
//! offending line or on the line directly above it:
//!
//! ```text
//! // h3cdn-lint: allow(unordered-iter)
//! ```
//!
//! The scanner first blanks comments, string literals and char
//! literals (preserving line structure), so pattern words inside
//! strings or docs never trigger findings; pragmas are read from the
//! *raw* line because they live in comments.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod baseline;
pub mod graph;
pub mod scan;
pub mod symbols;

pub use baseline::{Baseline, Counts};

/// Rule id: unordered `HashMap`/`HashSet` iteration in a sim crate.
pub(crate) const RULE_UNORDERED_ITER: &str = "unordered-iter";
/// Rule id: wall-clock read (`Instant::now` / `SystemTime`).
pub(crate) const RULE_WALL_CLOCK: &str = "wall-clock";
/// Rule id: ambient randomness (`thread_rng`, `rand::random`, ...).
pub(crate) const RULE_AMBIENT_RNG: &str = "ambient-rng";
/// Rule id: environment read (`std::env::var` / `env::args`).
pub(crate) const RULE_ENV_READ: &str = "env-read";
/// Rule id: real I/O or threading in a sans-IO crate.
pub(crate) const RULE_SANS_IO: &str = "sans-io";
/// Rule id: panic-surface count exceeds the checked-in baseline.
pub(crate) const RULE_PANIC_RATCHET: &str = "panic-ratchet";
/// Rule id: checked-in baseline is higher than the fresh count.
pub(crate) const RULE_BASELINE_STALE: &str = "baseline-stale";
/// Rule id: `==`/`!=` against a float literal.
pub(crate) const RULE_FLOAT_CMP: &str = "float-cmp";
/// Rule id: NaN-unaware sort (`sort_by` + `partial_cmp`).
pub(crate) const RULE_NAN_SORT: &str = "nan-sort";
/// Rule id: raw (non-atomic) write of a result artifact.
pub(crate) const RULE_RAW_RESULT_WRITE: &str = "raw-result-write";
/// Rule id: heap allocation on the simulator per-event hot path.
pub(crate) const RULE_HOT_PATH_ALLOC: &str = "hot-path-alloc";
/// Rule id: a `use`/path edge pointing upward in the layer map.
pub(crate) const RULE_LAYER_VIOLATION: &str = "layer-violation";
/// Rule id: panic site reachable from the simulator dispatch roots
/// beyond the recorded hot-path budget.
pub(crate) const RULE_HOT_PATH_PANIC: &str = "hot-path-panic";
/// Rule id: RNG construction whose seed is not threaded explicitly.
pub(crate) const RULE_UNSEEDED_RNG: &str = "unseeded-rng";
/// Rule id: `pub` item with zero inbound cross-crate references.
pub(crate) const RULE_DEAD_PUB: &str = "dead-pub";

/// The baseline key under which the hot-path reachability budget is
/// recorded (alongside the per-crate ratchet entries; no crate
/// directory can collide with it).
pub(crate) const HOT_PATH_BUDGET_KEY: &str = "hot-path";

/// Crates (by `crates/<dir>` name) whose code affects simulation
/// results and therefore must be free of nondeterminism sources.
pub(crate) const DETERMINISM_CRATES: &[&str] = &[
    "sim-core",
    "netsim",
    "transport",
    "http",
    "browser",
    "cdn",
    "web",
    "har",
    "core",
];

/// Crates that must stay sans-IO: pure state machines with no real
/// sockets, files, threads or blocking I/O.
pub(crate) const SANS_IO_CRATES: &[&str] = &["sim-core", "netsim", "transport", "http", "core"];

/// Library crates whose panic surface is ratcheted against
/// `crates/lint/baseline.json`.
pub(crate) const RATCHET_CRATES: &[&str] = &[
    "sim-core",
    "netsim",
    "transport",
    "http",
    "browser",
    "cdn",
    "web",
    "har",
    "analysis",
    "core",
];

/// Crates subject to the float-hazard rules.
pub(crate) const FLOAT_CRATES: &[&str] = &["analysis"];

/// Crates that produce result artifacts and therefore must write them
/// through `h3cdn::persist::atomic_write` (the crash-safe path) rather
/// than raw `std::fs::write` / `File::create`.
pub(crate) const RESULT_WRITE_CRATES: &[&str] = &["core", "experiments"];

/// Files on the simulator's per-event hot path: every dispatched event
/// runs through these, so one stray allocation multiplies into
/// millions of allocator calls per campaign. Steady-state code here
/// must reuse pooled/scratch buffers; only cold construction paths may
/// allocate (with a pragma).
pub(crate) const HOT_PATH_FILES: &[&str] = &[
    "crates/netsim/src/engine.rs",
    "crates/sim-core/src/event.rs",
];

/// Explicit allowlist: `(path suffix, rule id, reason)`. Findings of
/// `rule` in files whose workspace-relative path ends with the suffix
/// are suppressed. Keep this list short and justified — prefer a
/// line-level pragma when only one site is affected.
pub(crate) const ALLOWLIST: &[(&str, &str, &str)] = &[
    (
        "crates/core/src/runner.rs",
        RULE_SANS_IO,
        "the runner config resolves the worker count via available_parallelism",
    ),
    (
        "crates/core/src/runner/durable.rs",
        RULE_SANS_IO,
        "the crash-safe runner's tests build scratch journals",
    ),
    (
        "crates/core/src/runner/streaming.rs",
        RULE_SANS_IO,
        "the one worker pool: scoped threads, condvars and the panic re-raise",
    ),
    (
        "crates/core/src/persist.rs",
        RULE_SANS_IO,
        "persist IS the sanctioned I/O module: write-temp-fsync-rename lives here",
    ),
    (
        "crates/core/src/persist/shard.rs",
        RULE_SANS_IO,
        "the sharded journal is persist-layer I/O: append-only shards with fsync rotation",
    ),
    (
        "crates/core/src/persist/shard.rs",
        RULE_RAW_RESULT_WRITE,
        "shards are append-only journals recovered by prefix scan; atomic_write's \
         write-temp-rename would defeat incremental appends",
    ),
    (
        "crates/core/src/persist.rs",
        RULE_RAW_RESULT_WRITE,
        "the atomic_write implementation necessarily performs the raw write itself",
    ),
    (
        "crates/browser/src/resilience.rs",
        RULE_DEAD_PUB,
        "BROKEN_QUIC_TTL mirrors Chrome's documented 5-minute broken-QUIC marking TTL \
         and stays exported as model surface even between consumers",
    ),
];

/// One diagnostic produced by the analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (one of the `RULE_*` constants).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
    /// Suggested fix.
    pub hint: String,
    /// For graph rules: the call chain or edge path that produced the
    /// finding (e.g. `Engine::run -> ... -> site`).
    pub trace: Option<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    help: {}",
            self.path, self.line, self.rule, self.message, self.hint
        )?;
        if let Some(trace) = &self.trace {
            write!(f, "\n    trace: {trace}")?;
        }
        Ok(())
    }
}

/// Which rule families to run (fixture tests toggle these).
#[derive(Debug, Clone, Copy)]
pub struct LintOptions {
    /// Run the determinism + sans-IO + float rules.
    pub check_rules: bool,
    /// Check panic-surface counts against the baseline file.
    pub check_ratchet: bool,
    /// Build the workspace symbol graph and run the cross-crate rules
    /// (layer-violation, hot-path-panic, unseeded-rng, dead-pub).
    pub check_graph: bool,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            check_rules: true,
            check_ratchet: true,
            check_graph: true,
        }
    }
}

/// Result of linting a workspace tree.
#[derive(Debug)]
pub struct Report {
    /// Unsuppressed findings, sorted by `(path, line, rule, message)`.
    pub findings: Vec<Finding>,
    /// Number of findings suppressed by pragmas or the allowlist.
    pub suppressed: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Fresh panic-surface counts per ratchet crate, plus the
    /// hot-path reachability budget under `HOT_PATH_BUDGET_KEY`
    /// when the graph rules ran.
    pub counts: Baseline,
    /// Symbol-graph summary (zeros when the graph rules were off).
    pub graph_stats: GraphStats,
}

/// Size summary of the extracted symbol graph.
#[derive(Debug, Default, Clone)]
pub struct GraphStats {
    /// Function items extracted from library source.
    pub fns: usize,
    /// Cross-crate `use`/path edges.
    pub use_edges: usize,
    /// `pub` items (fns + type-level items) on the API surface.
    pub pub_items: usize,
    /// Functions reachable from the hot-path dispatch roots.
    pub hot_path_reachable_fns: usize,
    /// Panic sites reachable from the hot-path dispatch roots.
    pub hot_path_reachable_sites: usize,
    /// Functions the hot-path dispatch roots resolve to.
    pub hot_path_roots: usize,
    /// Hot-path dispatch roots that resolve to no function, as
    /// `Type::fn`.
    pub hot_path_unresolved_roots: Vec<String>,
}

/// Pragma lines per file, for suppressing graph-rule findings whose
/// checks run after the per-file pass (path -> 1-based line -> the
/// comma-separated rule list inside `allow(...)`).
#[derive(Debug, Default)]
struct PragmaIndex {
    by_file: BTreeMap<String, BTreeMap<usize, String>>,
}

impl PragmaIndex {
    fn record(&mut self, ctx: &scan::FileContext) {
        let lines = ctx.pragma_rule_lines();
        if !lines.is_empty() {
            self.by_file
                .insert(ctx.rel().to_owned(), lines.into_iter().collect());
        }
    }

    /// Same semantics as [`scan::FileContext::is_suppressed`]: a pragma
    /// on the finding's line or the line directly above.
    fn allows(&self, path: &str, line: usize, rule: &str) -> bool {
        let Some(file) = self.by_file.get(path) else {
            return false;
        };
        [line, line.saturating_sub(1)]
            .iter()
            .filter(|&&l| l > 0)
            .any(|l| {
                file.get(l)
                    .is_some_and(|rules| rules.split(',').any(|r| r.trim() == rule))
            })
    }
}

/// Lints the workspace rooted at `root` with default options.
///
/// # Errors
/// Returns an error string when the tree cannot be read or the
/// baseline file is malformed.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    lint_workspace_with(root, LintOptions::default())
}

/// Lints the workspace rooted at `root`.
///
/// # Errors
/// Returns an error string when the tree cannot be read or the
/// baseline file is malformed.
pub fn lint_workspace_with(root: &Path, opts: LintOptions) -> Result<Report, String> {
    let files = walk_rs_files(root)?;
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    let mut sites = baseline::SiteMap::default();
    let mut table = symbols::SymbolTable::default();
    let mut pragmas = PragmaIndex::default();

    for file in &files {
        let rel = rel_path(root, file);
        let source = std::fs::read_to_string(file)
            .map_err(|e| format!("{}: cannot read: {e}", file.display()))?;
        if opts.check_graph {
            // Raw-text references from *every* file (root tests,
            // examples, crate tests) feed the dead-pub evidence base.
            table.index_refs(&region_of(&rel), &source);
        }
        let Some(krate) = crate_of(&rel) else {
            continue;
        };
        let ctx = scan::FileContext::new(&rel, &krate, &source);

        if opts.check_graph && ctx.in_library_src() {
            table.extract_file(&ctx);
            pragmas.record(&ctx);
        }

        if opts.check_rules {
            let mut raw = Vec::new();
            rules_for_file(&ctx, &mut raw);
            for f in raw {
                if ctx.is_suppressed(f.line, f.rule) || allowlisted(&rel, f.rule) {
                    suppressed += 1;
                } else {
                    findings.push(f);
                }
            }
        }

        if RATCHET_CRATES.contains(&krate.as_str()) && ctx.in_library_src() {
            baseline::count_file(&ctx, &mut sites);
        }
    }

    let mut counts = sites.to_counts();
    let baseline_path = root.join("crates/lint/baseline.json");
    if opts.check_ratchet {
        match baseline::load(&baseline_path) {
            Ok(mut base) => {
                // The hot-path budget shares the baseline file but is
                // checked by the graph pass (with traces), not here.
                base.remove(HOT_PATH_BUDGET_KEY);
                baseline::check(&base, &counts, &sites, &mut findings);
            }
            Err(baseline::LoadError::Missing) => findings.push(Finding {
                path: "crates/lint/baseline.json".to_owned(),
                line: 1,
                rule: RULE_PANIC_RATCHET,
                message: "panic-surface baseline file is missing".to_owned(),
                hint: "run `h3cdn-lint --update-baseline` and commit the result".to_owned(),
                trace: None,
            }),
            Err(baseline::LoadError::Malformed(e)) => {
                return Err(format!("crates/lint/baseline.json: {e}"));
            }
        }
    }

    let mut graph_stats = GraphStats::default();
    if opts.check_graph {
        let mut raw = Vec::new();
        graph::check_layering(&table, &mut raw);
        graph::check_rng_seeding(&table, &mut raw);
        graph::check_dead_pub(&table, &mut raw);

        // Hot-path reachability: pragma-suppressed sites leave the
        // budget entirely (the recorded budget covers live sites only).
        let site_suppressed = |path: &str, line: usize| {
            pragmas.allows(path, line, RULE_HOT_PATH_PANIC)
                || allowlisted(path, RULE_HOT_PATH_PANIC)
        };
        let reach = graph::hot_path_reachability(&table, &site_suppressed);
        let budget = match baseline::load(&baseline_path) {
            Ok(base) => base.get(HOT_PATH_BUDGET_KEY).copied().unwrap_or_default(),
            Err(_) => Counts::default(),
        };
        graph::check_hot_path(&budget, &reach, &mut raw);

        counts.insert(HOT_PATH_BUDGET_KEY.to_owned(), reach.counts());
        graph_stats = GraphStats {
            fns: table.fns.len(),
            use_edges: table.use_edges.len(),
            pub_items: table.pub_items.len() + table.fns.iter().filter(|f| f.is_pub).count(),
            hot_path_reachable_fns: reach.reachable_fns,
            hot_path_reachable_sites: reach.sites.len(),
            hot_path_roots: reach.roots,
            hot_path_unresolved_roots: reach.unresolved_roots,
        };

        for f in raw {
            if pragmas.allows(&f.path, f.line, f.rule) || allowlisted(&f.path, f.rule) {
                suppressed += 1;
            } else {
                findings.push(f);
            }
        }
    }

    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    // Overlapping needles (e.g. `std::env::` and `env::var(`) may
    // produce duplicate diagnostics for one site — keep one. The
    // message is part of the key: two *distinct* findings of one rule
    // on one line (two calls in one expression) must both survive.
    findings.dedup_by(|a, b| {
        a.path == b.path && a.line == b.line && a.rule == b.rule && a.message == b.message
    });
    Ok(Report {
        findings,
        suppressed,
        files_scanned: files.len(),
        counts,
        graph_stats,
    })
}

/// The reference region a workspace-relative path belongs to:
/// `<crate>` for library src, `<crate>:ext` for the crate's own
/// tests/benches/examples, `"root"` for workspace-root code.
fn region_of(rel: &str) -> String {
    match crate_of(rel) {
        Some(krate) => {
            // Bin-target sources consume the crate's library API the
            // same way an external crate would, so they land in the
            // `:ext` region rather than the library region — a `pub`
            // item used only by the crate's own binary is not dead.
            let src = format!("crates/{krate}/src/");
            let is_bin = rel == format!("{src}main.rs") || rel.starts_with(&format!("{src}bin/"));
            if rel.starts_with(&src) && !is_bin {
                krate
            } else {
                format!("{krate}:ext")
            }
        }
        None => "root".to_owned(),
    }
}

/// Renders a report's findings as a JSON array (machine-readable CI
/// artifact; pure std, no serde).
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\", \
             \"hint\": \"{}\", \"trace\": {}}}",
            json_escape(f.rule),
            json_escape(&f.path),
            f.line,
            json_escape(&f.message),
            json_escape(&f.hint),
            match &f.trace {
                Some(t) => format!("\"{}\"", json_escape(t)),
                None => "null".to_owned(),
            }
        ));
        out.push_str(if i + 1 < report.findings.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str(&format!(
        "  ],\n  \"files_scanned\": {},\n  \"suppressed\": {},\n  \"graph\": \
         {{\"fns\": {}, \"use_edges\": {}, \"pub_items\": {}, \
         \"hot_path_reachable_fns\": {}, \"hot_path_reachable_sites\": {}, \
         \"hot_path_roots\": {}, \"hot_path_unresolved_roots\": [{}]}}\n}}\n",
        report.files_scanned,
        report.suppressed,
        report.graph_stats.fns,
        report.graph_stats.use_edges,
        report.graph_stats.pub_items,
        report.graph_stats.hot_path_reachable_fns,
        report.graph_stats.hot_path_reachable_sites,
        report.graph_stats.hot_path_roots,
        report
            .graph_stats
            .hot_path_unresolved_roots
            .iter()
            .map(|r| format!("\"{}\"", json_escape(r)))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    out
}

/// Escapes a string for embedding in a JSON literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Applies every per-file rule to `ctx`, appending raw (not yet
/// pragma-filtered) findings to `out`.
fn rules_for_file(ctx: &scan::FileContext, out: &mut Vec<Finding>) {
    let krate = ctx.krate();
    if DETERMINISM_CRATES.contains(&krate) {
        scan::rule_unordered_iter(ctx, out);
        scan::rule_wall_clock(ctx, out);
        scan::rule_ambient_rng(ctx, out);
        scan::rule_env_read(ctx, out);
    }
    if SANS_IO_CRATES.contains(&krate) {
        scan::rule_sans_io(ctx, out);
    }
    if FLOAT_CRATES.contains(&krate) {
        scan::rule_float_cmp(ctx, out);
        scan::rule_nan_sort(ctx, out);
    }
    if RESULT_WRITE_CRATES.contains(&krate) {
        scan::rule_raw_result_write(ctx, out);
    }
    if HOT_PATH_FILES.contains(&ctx.rel()) {
        scan::rule_hot_path_alloc(ctx, out);
    }
}

/// Whether `(rel, rule)` matches an [`ALLOWLIST`] entry.
fn allowlisted(rel: &str, rule: &str) -> bool {
    ALLOWLIST
        .iter()
        .any(|(suffix, r, _)| *r == rule && rel.ends_with(suffix))
}

/// Recursively collects `.rs` files under `root` in sorted order,
/// skipping build output, vendored shims, VCS metadata and the lint
/// crate's own fixture tree (which intentionally contains violations).
fn walk_rs_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries =
            std::fs::read_dir(&dir).map_err(|e| format!("{}: cannot read: {e}", dir.display()))?;
        let mut children: Vec<PathBuf> = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| format!("{}: cannot read: {e}", dir.display()))?;
            children.push(entry.path());
        }
        children.sort();
        for child in children {
            let name = child.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if child.is_dir() {
                if matches!(name, "target" | "vendor" | ".git" | "fixtures") {
                    continue;
                }
                stack.push(child);
            } else if name.ends_with(".rs") {
                out.push(child);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Workspace-relative path with forward slashes.
fn rel_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// The `crates/<dir>` name a workspace-relative path belongs to, or
/// `None` for files outside `crates/` (root tests, examples, ...).
fn crate_of(rel: &str) -> Option<String> {
    let rest = rel.strip_prefix("crates/")?;
    let (name, _) = rest.split_once('/')?;
    Some(name.to_owned())
}
