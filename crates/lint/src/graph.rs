//! Phase 2 of the workspace analyzer: the cross-crate symbol graph
//! and the rules that run over it.
//!
//! Built from the [`crate::symbols::SymbolTable`] that phase 1
//! extracts, this module answers questions no per-file scanner can:
//!
//! * **`layer-violation`** — the workspace has an explicit layer map
//!   ([`LAYERS`]): simulation substrate (sim-core / netsim / transport
//!   / http / web / cdn / har) below the orchestration band (browser /
//!   core) below the consumer band (experiments / analysis).
//!   Any `use`/path edge pointing *upward* is a finding: a netsim
//!   module that quietly imports from the runner would entangle the
//!   pure simulation with scheduling policy.
//! * **`hot-path-panic`** — transitive reachability from the
//!   simulator's dispatch roots ([`HOT_PATH_ROOTS`]:
//!   `Engine::run_until_checked`, `EventQueue::pop*`, and the
//!   `Driveable` methods of the TCP, TLS and QUIC endpoints)
//!   to any panic-capable site
//!   (`unwrap` / `expect` / `panic!`-family / `[idx]` indexing /
//!   `assert!`-family) inside
//!   the hot-path crates ([`HOT_PATH_CRATES`]). The reachable surface
//!   is held to a per-category budget recorded under the `"hot-path"`
//!   key of `crates/lint/baseline.json` (ratchet-down only, like the
//!   per-crate counts); every over-budget finding carries the full
//!   call chain from a root to the site.
//! * **`unseeded-rng`** — `SimRng::seed_from(...)` constructions whose
//!   seed argument does not flow from a function parameter or a
//!   scenario-struct field. A hard-coded seed deep in library code
//!   silently decouples a subsystem from the campaign seed.
//! * **`dead-pub`** — `pub` items with zero inbound references from
//!   outside their defining crate's `src/` tree. As crates multiply,
//!   yesterday's API becomes today's unreviewed attack surface;
//!   demote to `pub(crate)` or delete.
//!
//! The call graph is lexical (name-resolved, not type-resolved), so it
//! over-approximates: a `.method(...)` call resolves to every hot-path
//! method of that name. Over-approximation can only widen the
//! reachable set — it can inflate the budget, never hide a site.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::baseline::CATEGORIES;
use crate::symbols::{CalleeRef, FnSym, SymbolTable};
use crate::{
    Counts, Finding, RULE_BASELINE_STALE, RULE_DEAD_PUB, RULE_HOT_PATH_PANIC, RULE_LAYER_VIOLATION,
    RULE_UNSEEDED_RNG,
};

/// The workspace layer map: `(crate dir, layer)`. Edges must point at
/// the same or a *lower* layer.
pub(crate) const LAYERS: &[(&str, u8)] = &[
    ("sim-core", 0),
    ("netsim", 0),
    ("transport", 0),
    ("http", 0),
    ("web", 0),
    ("cdn", 0),
    ("har", 0),
    ("browser", 1),
    ("core", 1),
    ("analysis", 2),
    ("experiments", 2),
    ("lint", 2),
];

/// Crates whose code runs on the simulator's per-event dispatch path.
/// `hot-path-panic` reachability is computed within this set.
pub(crate) const HOT_PATH_CRATES: &[&str] = &["sim-core", "netsim", "transport"];

/// Dispatch roots for the reachability analysis: `(impl type, fn)`.
/// The engine loop and its queue, plus the `Driveable` methods of the
/// three transport endpoints: every packet and timer expiry the event
/// loop hands a connection enters the transport crate through one of
/// these. Calls the HTTP layer makes into a transport outside
/// `Driveable` (`write_stream`, `poll_event`, ...) are covered only
/// where a root reaches them too.
pub(crate) const HOT_PATH_ROOTS: &[(&str, &str)] = &[
    ("Engine", "run_until_checked"),
    ("EventQueue", "pop"),
    ("EventQueue", "pop_at_or_before"),
    ("TcpConnection", "on_packet"),
    ("TcpConnection", "poll_transmit"),
    ("TcpConnection", "next_timeout"),
    ("TcpConnection", "on_timeout"),
    ("TcpConnection", "close_deadline"),
    ("SecureTcp", "on_packet"),
    ("SecureTcp", "poll_transmit"),
    ("SecureTcp", "next_timeout"),
    ("SecureTcp", "on_timeout"),
    ("SecureTcp", "close_deadline"),
    ("QuicConnection", "on_packet"),
    ("QuicConnection", "poll_transmit"),
    ("QuicConnection", "next_timeout"),
    ("QuicConnection", "on_timeout"),
    ("QuicConnection", "close_deadline"),
];

/// The layer of `krate`, if mapped.
fn layer_of(krate: &str) -> Option<u8> {
    LAYERS.iter().find(|(k, _)| *k == krate).map(|&(_, l)| l)
}

// ---------------------------------------------------------------------------
// Rule: layer-violation
// ---------------------------------------------------------------------------

/// Flags `use`/path edges that point from a lower layer to a higher
/// one.
pub(crate) fn check_layering(table: &SymbolTable, out: &mut Vec<Finding>) {
    for edge in &table.use_edges {
        let (Some(from), Some(to)) = (layer_of(&edge.from), layer_of(&edge.to)) else {
            continue;
        };
        if from < to {
            out.push(Finding {
                path: edge.path.clone(),
                line: edge.line,
                rule: RULE_LAYER_VIOLATION,
                message: format!(
                    "layer violation: crate `{}` (layer {from}) references crate `{}` \
                     (layer {to})",
                    edge.from, edge.to
                ),
                hint: "dependencies must point downward in the layer map (simulation \
                       substrate < browser/core < experiments/analysis); move the shared \
                       code down a layer or invert the dependency"
                    .to_owned(),
                trace: None,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: hot-path-panic
// ---------------------------------------------------------------------------

/// One reachable panic-capable site, with the call chain that reaches
/// its enclosing function.
#[derive(Debug, Clone)]
pub(crate) struct ReachableSite {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Ratchet category (`"unwrap"` / `"expect"` / `"panic"` / `"index"`).
    pub category: &'static str,
    /// The matched needle (`".unwrap()"`, `"panic!"`, ...).
    pub what: &'static str,
    /// `root -> ... -> enclosing fn` call chain, rendered.
    pub trace: String,
}

/// The hot-path reachability result: the call graph summary plus every
/// reachable panic site.
#[derive(Debug, Default)]
pub(crate) struct HotPathReachability {
    /// Reachable panic sites, sorted by `(path, line)`.
    pub sites: Vec<ReachableSite>,
    /// Number of root functions found in the table.
    pub roots: usize,
    /// [`HOT_PATH_ROOTS`] entries that name no function in the table,
    /// as `Type::fn`. A renamed root silently shrinks the gate, so the
    /// live workspace must keep this empty.
    pub unresolved_roots: Vec<String>,
    /// Number of functions reachable from the roots.
    pub reachable_fns: usize,
}

impl HotPathReachability {
    /// Per-category counts of the reachable panic surface.
    pub fn counts(&self) -> Counts {
        let mut c = Counts::default();
        for s in &self.sites {
            match s.category {
                "unwrap" => c.unwrap += 1,
                "expect" => c.expect += 1,
                "panic" => c.panic += 1,
                "assert" => c.assert += 1,
                _ => c.index += 1,
            }
        }
        c
    }
}

/// Name-resolution index over the hot-path crates.
struct CallIndex {
    by_qual: BTreeMap<(String, String), Vec<usize>>,
    methods: BTreeMap<String, Vec<usize>>,
    free: BTreeMap<String, Vec<usize>>,
}

impl CallIndex {
    fn build(table: &SymbolTable, in_scope: &dyn Fn(&FnSym) -> bool) -> Self {
        let mut by_qual: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut methods: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut free: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in table.fns.iter().enumerate() {
            if !in_scope(f) {
                continue;
            }
            match &f.impl_type {
                Some(t) => {
                    by_qual
                        .entry((t.clone(), f.name.clone()))
                        .or_default()
                        .push(i);
                    methods.entry(f.name.clone()).or_default().push(i);
                }
                None => free.entry(f.name.clone()).or_default().push(i),
            }
        }
        CallIndex {
            by_qual,
            methods,
            free,
        }
    }

    /// Resolves a callee reference to candidate function indices.
    fn resolve(&self, callee: &CalleeRef) -> Vec<usize> {
        match callee {
            CalleeRef::Bare(n) => self.free.get(n).cloned().unwrap_or_default(),
            CalleeRef::Method(n) => self.methods.get(n).cloned().unwrap_or_default(),
            CalleeRef::Qualified(t, n) => {
                if let Some(v) = self.by_qual.get(&(t.clone(), n.clone())) {
                    return v.clone();
                }
                // `module::free_fn(...)` — lowercase first segment is a
                // module path, not a type.
                if t.chars().next().is_some_and(char::is_lowercase) {
                    return self.free.get(n).cloned().unwrap_or_default();
                }
                Vec::new()
            }
        }
    }
}

/// Computes the panic surface transitively reachable from
/// [`HOT_PATH_ROOTS`] within [`HOT_PATH_CRATES`]. `site_suppressed`
/// filters individual panic sites (pragma suppression).
pub(crate) fn hot_path_reachability(
    table: &SymbolTable,
    site_suppressed: &dyn Fn(&str, usize) -> bool,
) -> HotPathReachability {
    let in_scope = |f: &FnSym| HOT_PATH_CRATES.contains(&f.krate.as_str()) && f.body.is_some();
    let index = CallIndex::build(table, &in_scope);

    // BFS from the roots, recording the discovering edge for traces.
    let mut parent: BTreeMap<usize, (usize, usize)> = BTreeMap::new(); // fn -> (caller, call line)
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    let is_root =
        |f: &FnSym, &(t, n): &(&str, &str)| f.name == n && f.impl_type.as_deref() == Some(t);
    let mut roots = 0usize;
    for (i, f) in table.fns.iter().enumerate() {
        if in_scope(f) && HOT_PATH_ROOTS.iter().any(|r| is_root(f, r)) {
            roots += 1;
            seen.insert(i);
            queue.push_back(i);
        }
    }
    let unresolved_roots = HOT_PATH_ROOTS
        .iter()
        .filter(|r| !table.fns.iter().any(|f| in_scope(f) && is_root(f, r)))
        .map(|(t, n)| format!("{t}::{n}"))
        .collect();
    while let Some(i) = queue.pop_front() {
        for call in &table.fns[i].calls {
            for j in index.resolve(&call.callee) {
                if seen.insert(j) {
                    parent.insert(j, (i, call.line));
                    queue.push_back(j);
                }
            }
        }
    }

    // Collect reachable panic sites. A line can be covered by nested
    // function bodies; keep it once, attributed to the innermost
    // reachable function (max over covering fns, not sum).
    let mut per_site: BTreeMap<(String, usize, &'static str), (usize, usize, &'static str)> =
        BTreeMap::new();
    for &i in &seen {
        let f = &table.fns[i];
        let mut line_counts: BTreeMap<(usize, &'static str, &'static str), usize> = BTreeMap::new();
        for p in &f.panics {
            *line_counts.entry((p.line, p.what, p.category)).or_default() += 1;
        }
        for ((line, what, category), n) in line_counts {
            if site_suppressed(&f.path, line) {
                continue;
            }
            let entry = per_site
                .entry((f.path.clone(), line, what))
                .or_insert((0, i, category));
            if n > entry.0 {
                entry.0 = n;
            }
            // Prefer the innermost (latest-starting) covering fn for the trace.
            let cur_start = table.fns[entry.1].body.map_or(0, |(s, _)| s);
            let new_start = f.body.map_or(0, |(s, _)| s);
            if new_start > cur_start {
                entry.1 = i;
            }
        }
    }

    let mut sites = Vec::new();
    for ((path, line, what), (n, fi, category)) in &per_site {
        let category = *category;
        let trace = render_trace(table, &parent, *fi, what, path, *line);
        for _ in 0..*n {
            sites.push(ReachableSite {
                path: path.clone(),
                line: *line,
                category,
                what,
                trace: trace.clone(),
            });
        }
    }
    sites.sort_by(|a, b| (&a.path, a.line, a.what).cmp(&(&b.path, b.line, b.what)));
    HotPathReachability {
        sites,
        roots,
        unresolved_roots,
        reachable_fns: seen.len(),
    }
}

/// Renders `root -> ... -> fn -> site` as a one-line call chain.
fn render_trace(
    table: &SymbolTable,
    parent: &BTreeMap<usize, (usize, usize)>,
    fi: usize,
    what: &str,
    path: &str,
    line: usize,
) -> String {
    let mut chain = vec![fi];
    let mut cur = fi;
    while let Some(&(p, _)) = parent.get(&cur) {
        chain.push(p);
        cur = p;
        if chain.len() > 64 {
            break; // cycle guard; BFS parents are acyclic but stay safe
        }
    }
    chain.reverse();
    let mut out = String::new();
    for (k, &i) in chain.iter().enumerate() {
        if k > 0 {
            out.push_str(" -> ");
        }
        let f = &table.fns[i];
        out.push_str(&format!("{} ({}:{})", f.qual(), f.path, f.line));
    }
    out.push_str(&format!(" -> `{what}` at {path}:{line}"));
    out
}

/// Compares the reachable panic surface against the `"hot-path"`
/// budget from the baseline file, appending findings: one traced
/// finding per over-budget site, or a stale-baseline finding when the
/// surface shrank below the recorded budget.
pub(crate) fn check_hot_path(budget: &Counts, reach: &HotPathReachability, out: &mut Vec<Finding>) {
    let fresh = reach.counts();
    for (cat, get) in CATEGORIES {
        let (allowed, counted) = (get(budget), get(&fresh));
        if counted > allowed {
            for site in reach
                .sites
                .iter()
                .filter(|s| s.category == *cat)
                .skip(allowed)
            {
                out.push(Finding {
                    path: site.path.clone(),
                    line: site.line,
                    rule: RULE_HOT_PATH_PANIC,
                    message: format!(
                        "{counted} `{cat}` sites reachable from the {} simulator dispatch \
                         roots, hot-path budget allows {allowed}",
                        reach.roots
                    ),
                    hint: "convert the site to a typed error or let-else (the hot-path \
                           budget only ratchets down); the trace shows how the dispatch \
                           loop reaches it"
                        .to_owned(),
                    trace: Some(site.trace.clone()),
                });
            }
        } else if counted < allowed {
            out.push(Finding {
                path: "crates/lint/baseline.json".to_owned(),
                line: 1,
                rule: RULE_BASELINE_STALE,
                message: format!(
                    "hot-path budget allows {allowed} reachable `{cat}` sites but only \
                     {counted} remain"
                ),
                hint: "lock in the improvement: run `h3cdn-lint --update-baseline` and \
                       commit the regenerated baseline"
                    .to_owned(),
                trace: None,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: unseeded-rng
// ---------------------------------------------------------------------------

/// Flags RNG constructions whose seed does not flow from a function
/// parameter or a struct field (scenario config / `self`).
pub(crate) fn check_rng_seeding(table: &SymbolTable, out: &mut Vec<Finding>) {
    for site in &table.rng_sites {
        let flow = seed_flow(table, site);
        if let Some(_evidence) = flow {
            continue;
        }
        out.push(Finding {
            path: site.path.clone(),
            line: site.line,
            rule: RULE_UNSEEDED_RNG,
            message: format!(
                "RNG seed `{}` does not flow from a function parameter or scenario field",
                site.arg.trim()
            ),
            hint: "thread the campaign seed explicitly (parameter or scenario struct) so \
                   every stream derives from the run's seed; for deliberate constants add \
                   `// h3cdn-lint: allow(unseeded-rng)` with a justification"
                .to_owned(),
            trace: None,
        });
    }
}

/// Evidence that the seed argument flows from a parameter or field,
/// or `None` when it is a free-standing constant.
fn seed_flow(table: &SymbolTable, site: &crate::symbols::RngSite) -> Option<String> {
    // Field access (`self.seed`, `spec.seed`) is scenario plumbing.
    if arg_has_field_access(&site.arg) {
        return Some("field access".to_owned());
    }
    let f = site.enclosing_fn.map(|i| &table.fns[i])?;
    let idents = arg_idents(&site.arg);
    if idents.is_empty() {
        return None; // pure literal
    }
    for id in &idents {
        if f.params.contains(id) {
            return Some(format!("parameter `{id}`"));
        }
    }
    // One level of let-chasing is done at extraction time by keeping the
    // raw argument text; here we accept any identifier that is not a
    // SCREAMING_CASE constant — locals in seeded code are derived from
    // parameters, and the per-file rules already ban ambient entropy
    // sources, so a non-constant identifier cannot introduce one.
    idents
        .iter()
        .find(|id| id.chars().any(char::is_lowercase))
        .map(|id| format!("local `{id}`"))
}

/// Identifiers in a seed-argument string.
fn arg_idents(arg: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in arg.chars() {
        if c.is_alphanumeric() || c == '_' {
            cur.push(c);
        } else {
            flush_ident(&mut cur, &mut out);
        }
    }
    flush_ident(&mut cur, &mut out);
    out
}

fn flush_ident(cur: &mut String, out: &mut Vec<String>) {
    if !cur.is_empty() {
        if !cur.chars().next().is_some_and(char::is_numeric) && cur != "u64" && cur != "u32" {
            out.push(std::mem::take(cur));
        } else {
            cur.clear();
        }
    }
}

/// Whether the argument contains an `ident.ident` field access.
fn arg_has_field_access(arg: &str) -> bool {
    let chars: Vec<char> = arg.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c != '.' {
            continue;
        }
        let before = i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
        let after = chars
            .get(i + 1)
            .is_some_and(|&c| c.is_alphabetic() || c == '_');
        // Exclude float literals (`0.5`) and method calls are fine too —
        // `.fork(...)` on a seeded parent still flows from the parent.
        if before && after && !chars[i - 1].is_ascii_digit() {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Rule: dead-pub
// ---------------------------------------------------------------------------

/// Flags `pub` items with zero inbound references from outside the
/// defining crate's `src/` tree (other crates, the defining crate's
/// own tests/benches/examples, or workspace-root code).
pub(crate) fn check_dead_pub(table: &SymbolTable, out: &mut Vec<Finding>) {
    let mut push = |krate: &str, path: &str, line: usize, kind: &str, name: &str| {
        out.push(Finding {
            path: path.to_owned(),
            line,
            rule: RULE_DEAD_PUB,
            message: format!("pub {kind} `{name}` has no references outside crate `{krate}`"),
            hint: "demote to pub(crate) (or delete) to keep the API surface honest; for \
                   deliberately exported API add `// h3cdn-lint: allow(dead-pub)`"
                .to_owned(),
            trace: None,
        });
    };
    let alive = structurally_alive(table);
    for f in &table.fns {
        // Methods are skipped: a method's real exposure is governed by
        // its type's visibility, and flagging every internally-used
        // `pub fn` on an exported type would drown the signal. The rule
        // polices top-level items — the names a reader finds in docs.
        if !f.is_pub || f.impl_type.is_some() || f.name == "main" || is_bin_path(&f.path) {
            continue;
        }
        if !alive.contains(f.name.as_str()) {
            push(&f.krate, &f.path, f.line, "fn", &f.name);
        }
    }
    for item in &table.pub_items {
        if is_bin_path(&item.path) {
            continue;
        }
        if !alive.contains(item.name.as_str()) {
            push(&item.krate, &item.path, item.line, item.kind, &item.name);
        }
    }
}

/// The set of pub symbol names considered alive for dead-`pub`.
///
/// Name-counting alone is not enough: a consumer can hold an API value
/// without ever spelling its type's name (`let out = try_visit_page(..)?`,
/// `report.rows[0]`, `Box<dyn CongestionController>` behind a factory),
/// and binary targets are separate crates that only see `pub` items.
/// So liveness is seeded from externally-referenced pub symbols (any
/// raw-text reference region outside the defining crate's `src/` tree)
/// and propagated structurally to a fixpoint: an alive `fn` keeps the
/// types in its signature (params + return) alive; an alive item keeps
/// the names embedded in its declaration body (fields, variants, alias
/// target) alive; an alive type keeps its pub methods' signatures
/// alive. Matching is by bare name workspace-wide — a deliberate
/// over-approximation that errs toward keeping API.
fn structurally_alive(table: &SymbolTable) -> BTreeSet<&str> {
    let declared: BTreeSet<&str> = table
        .fns
        .iter()
        .filter(|f| f.is_pub)
        .map(|f| f.name.as_str())
        .chain(table.pub_items.iter().map(|i| i.name.as_str()))
        .collect();
    let externally_alive = |krate: &str, name: &str| {
        table
            .refs
            .get(name)
            .is_some_and(|regions| regions.iter().any(|r| r != krate))
    };
    let mut alive: BTreeSet<&str> = BTreeSet::new();
    for f in table.fns.iter().filter(|f| f.is_pub) {
        if externally_alive(&f.krate, &f.name) {
            alive.insert(f.name.as_str());
        }
    }
    for item in &table.pub_items {
        if externally_alive(&item.krate, &item.name) {
            alive.insert(item.name.as_str());
        }
    }
    loop {
        let mut grew = false;
        for f in table.fns.iter().filter(|f| f.is_pub) {
            let carried = alive.contains(f.name.as_str())
                || f.impl_type.as_deref().is_some_and(|t| alive.contains(t));
            if !carried {
                continue;
            }
            for id in &f.sig_idents {
                if declared.contains(id.as_str()) && alive.insert(id.as_str()) {
                    grew = true;
                }
            }
        }
        for item in &table.pub_items {
            if !alive.contains(item.name.as_str()) {
                continue;
            }
            for id in &item.embedded {
                if declared.contains(id.as_str()) && alive.insert(id.as_str()) {
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }
    alive
}

/// Whether a path is binary-target source (its `pub` is never API).
fn is_bin_path(path: &str) -> bool {
    path.contains("/src/bin/") || path.ends_with("/src/main.rs")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::FileContext;

    fn table(files: &[(&str, &str, &str)]) -> SymbolTable {
        let mut t = SymbolTable::default();
        for (rel, krate, src) in files {
            let ctx = FileContext::new(rel, krate, src);
            t.extract_file(&ctx);
            t.index_refs(krate, src);
        }
        t
    }

    #[test]
    fn upward_edge_is_flagged_downward_is_not() {
        let t = table(&[
            (
                "crates/netsim/src/lib.rs",
                "netsim",
                "use h3cdn::runner::Pool;\nfn f() {}\n",
            ),
            (
                "crates/core/src/lib.rs",
                "core",
                "use h3cdn_netsim::Network;\nfn g() {}\n",
            ),
        ]);
        let mut out = Vec::new();
        check_layering(&t, &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, RULE_LAYER_VIOLATION);
        assert_eq!(out[0].path, "crates/netsim/src/lib.rs");
    }

    #[test]
    fn reachability_finds_transitive_panic_with_trace() {
        let t = table(&[(
            "crates/netsim/src/engine.rs",
            "netsim",
            "impl Engine {\n\
                 pub fn run_until_checked(&mut self) {\n\
                     self.dispatch();\n\
                 }\n\
                 fn dispatch(&mut self) {\n\
                     deep_helper(3);\n\
                 }\n\
             }\n\
             fn deep_helper(x: u32) -> u32 {\n\
                 let v = vec![1, 2, 3];\n\
                 v[x as usize]\n\
             }\n\
             fn unreached() { panic!(\"never\") }\n",
        )]);
        let reach = hot_path_reachability(&t, &|_, _| false);
        assert_eq!(reach.roots, 1);
        assert_eq!(reach.sites.len(), 1, "{:#?}", reach.sites);
        let site = &reach.sites[0];
        assert_eq!(site.category, "index");
        assert!(
            site.trace.contains("Engine::run_until_checked"),
            "{}",
            site.trace
        );
        assert!(site.trace.contains("deep_helper"), "{}", site.trace);

        let mut out = Vec::new();
        check_hot_path(&Counts::default(), &reach, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, RULE_HOT_PATH_PANIC);
        assert!(out[0].trace.as_deref().is_some_and(|t| t.contains("->")));

        // A budget covering the site is clean.
        let mut out = Vec::new();
        let budget = Counts {
            index: 1,
            ..Counts::default()
        };
        check_hot_path(&budget, &reach, &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn seeded_rng_ok_literal_flagged() {
        let t = table(&[(
            "crates/netsim/src/lib.rs",
            "netsim",
            "use h3cdn_sim_core::SimRng;\n\
             pub fn seeded(seed: u64) -> SimRng {\n\
                 SimRng::seed_from(seed ^ 0x1234)\n\
             }\n\
             pub fn from_spec(spec: &Spec) -> SimRng {\n\
                 SimRng::seed_from(spec.seed)\n\
             }\n\
             pub fn fixed() -> SimRng {\n\
                 SimRng::seed_from(0xDEAD_BEEF)\n\
             }\n",
        )]);
        let mut out = Vec::new();
        check_rng_seeding(&t, &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, RULE_UNSEEDED_RNG);
        assert!(out[0].message.contains("0xDEAD_BEEF"), "{}", out[0].message);
    }

    #[test]
    fn dead_pub_flags_unreferenced_only() {
        let t = {
            let mut t = SymbolTable::default();
            let netsim = "pub struct Network;\npub struct Orphan;\npub fn used_fn() {}\n\
                          pub fn orphan_fn() {}\n";
            let ctx = FileContext::new("crates/netsim/src/lib.rs", "netsim", netsim);
            t.extract_file(&ctx);
            t.index_refs("netsim", netsim);
            let core = "use h3cdn_netsim::Network;\nfn f() { h3cdn_netsim::used_fn(); }\n";
            let ctx = FileContext::new("crates/core/src/lib.rs", "core", core);
            t.extract_file(&ctx);
            t.index_refs("core", core);
            t
        };
        let mut out = Vec::new();
        check_dead_pub(&t, &mut out);
        let names: Vec<&str> = out
            .iter()
            .map(|f| f.message.split('`').nth(1).expect("name in message"))
            .collect();
        assert_eq!(names, vec!["orphan_fn", "Orphan"], "{out:#?}");
    }

    #[test]
    fn dead_pub_propagates_structural_liveness() {
        // A consumer crate calls `visit()` without ever naming the
        // types it exposes: `Outcome` (return type), `Stats` (embedded
        // field) and `Collector` (behind `Registry::build`'s boxed
        // return). All must stay alive; `Orphan` must not.
        let t = {
            let mut t = SymbolTable::default();
            let browser = "pub struct Outcome { pub stats: Stats }\n\
                           pub struct Stats { pub n: u64 }\n\
                           pub struct Orphan;\n\
                           pub trait Collector {}\n\
                           pub struct Registry;\n\
                           impl Registry {\n\
                               pub fn build(&self) -> Box<dyn Collector> { todo!() }\n\
                           }\n\
                           pub fn visit() -> Outcome { todo!() }\n";
            let ctx = FileContext::new("crates/browser/src/lib.rs", "browser", browser);
            t.extract_file(&ctx);
            t.index_refs("browser", browser);
            let core = "fn f() {\n\
                            let out = h3cdn_browser::visit();\n\
                            let _ = out.stats.n;\n\
                            let _r = h3cdn_browser::Registry;\n\
                        }\n";
            let ctx = FileContext::new("crates/core/src/lib.rs", "core", core);
            t.extract_file(&ctx);
            t.index_refs("core", core);
            t
        };
        let mut out = Vec::new();
        check_dead_pub(&t, &mut out);
        let names: Vec<&str> = out
            .iter()
            .map(|f| f.message.split('`').nth(1).expect("name in message"))
            .collect();
        assert_eq!(names, vec!["Orphan"], "{out:#?}");
    }
}
