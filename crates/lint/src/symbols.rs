//! Phase 1 of the workspace analyzer: symbol extraction.
//!
//! Walks every crate's stripped source (same comment/string-blanked
//! lexing as [`crate::scan`], pure std, no `syn`) and extracts the
//! facts the cross-crate rules in [`crate::graph`] need:
//!
//! * function items with their enclosing `impl` type, parameter
//!   names, visibility and body line range,
//! * per-function call sites (bare calls, `Type::assoc(...)` paths,
//!   `.method(...)` receivers),
//! * per-function panic sites (`unwrap` / `expect` / `panic!`-family
//!   / `[idx]` indexing), the same four categories as the ratchet,
//! * `pub` item declarations (the API surface),
//! * cross-crate `use`/path edges (`h3cdn_netsim::...` in a `browser`
//!   file is an edge `browser -> netsim`),
//! * RNG construction sites (`SimRng::seed_from(...)`) with the raw
//!   seed-argument text for the dataflow check,
//! * a raw-text identifier occurrence index (`name -> regions`), the
//!   evidence base for the dead-`pub` rule.
//!
//! Extraction is lexical and line-oriented: brace depths are tracked
//! across the stripped text, so `fn` bodies and `impl` blocks become
//! line ranges. That is deliberately cruder than a real parser — the
//! graph rules are written to tolerate over-approximation (an extra
//! call edge can only widen reachability, never hide a panic site).

use std::collections::{BTreeMap, BTreeSet};

use crate::scan::FileContext;

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CalleeRef {
    /// `free_fn(...)` — a bare path-less call.
    Bare(String),
    /// `Type::assoc(...)` — the last two path segments.
    Qualified(String, String),
    /// `.method(...)` — a receiver call; the receiver type is unknown.
    Method(String),
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub(crate) struct CallSite {
    /// 1-based line of the call.
    pub line: usize,
    /// The callee reference as written.
    pub callee: CalleeRef,
}

/// One panic-capable site inside a function body.
#[derive(Debug, Clone)]
pub(crate) struct PanicSite {
    /// 1-based line.
    pub line: usize,
    /// Ratchet category: `"unwrap"`, `"expect"`, `"panic"` or `"index"`.
    pub category: &'static str,
    /// The needle that matched, for diagnostics (`".unwrap()"`, ...).
    pub what: &'static str,
}

/// One extracted function item.
#[derive(Debug, Clone)]
pub(crate) struct FnSym {
    /// `crates/<dir>` name.
    pub krate: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl` type (`Engine`, `EventQueue`, ...), if any.
    pub impl_type: Option<String>,
    /// Parameter identifiers (pattern idents, `self` excluded).
    pub params: Vec<String>,
    /// Whether the item carries plain `pub` visibility.
    pub is_pub: bool,
    /// Identifiers appearing in the signature (param types and return
    /// type). A pub fn's callers consume these types structurally —
    /// `let x = try_visit_page(..)?` never names `VisitOutcome` — so the
    /// dead-`pub` rule propagates liveness through them.
    pub sig_idents: Vec<String>,
    /// 0-based body line range (inclusive); `None` for bodyless decls.
    pub body: Option<(usize, usize)>,
    /// Call sites inside the body.
    pub calls: Vec<CallSite>,
    /// Panic sites inside the body (non-test lines only).
    pub panics: Vec<PanicSite>,
}

impl FnSym {
    /// `Type::name` or bare `name`, for diagnostics and root matching.
    pub fn qual(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A non-`fn` `pub` item declaration (`struct`/`enum`/`trait`/...).
#[derive(Debug, Clone)]
pub(crate) struct PubItem {
    /// `crates/<dir>` name.
    pub krate: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Item keyword (`"struct"`, `"fn"`, ...).
    pub kind: &'static str,
    /// Item name.
    pub name: String,
    /// Identifiers appearing in the item's declaration body (struct
    /// fields, enum variants, alias target). Consumers reach embedded
    /// types field-wise (`fig.rows[0]`) without naming them, so the
    /// dead-`pub` rule propagates liveness through them.
    pub embedded: Vec<String>,
}

/// A cross-crate reference edge discovered in library source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct UseEdge {
    /// Referencing `crates/<dir>` name.
    pub from: String,
    /// Referenced `crates/<dir>` name.
    pub to: String,
    /// Workspace-relative path of the referencing file.
    pub path: String,
    /// 1-based line of the reference.
    pub line: usize,
}

/// An RNG construction site.
#[derive(Debug, Clone)]
pub(crate) struct RngSite {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// The seed-argument text (stripped source, parens balanced).
    pub arg: String,
    /// Index into [`SymbolTable::fns`] of the enclosing function.
    pub enclosing_fn: Option<usize>,
}

/// Everything phase 1 extracts from the workspace.
#[derive(Debug, Default)]
pub(crate) struct SymbolTable {
    /// All function items in library source, in file order.
    pub fns: Vec<FnSym>,
    /// All `pub` item declarations in library source.
    pub pub_items: Vec<PubItem>,
    /// All cross-crate reference edges in library source.
    pub use_edges: Vec<UseEdge>,
    /// All RNG construction sites in library source.
    pub rng_sites: Vec<RngSite>,
    /// Raw-text identifier occurrences: `name -> set of regions`.
    /// Regions are `<crate>` (library src), `<crate>:ext` (the crate's
    /// own tests/benches/examples) and `"root"` (workspace-root src,
    /// tests and examples). Raw text (not stripped) is indexed, so a
    /// doctest or doc mention counts as a reference — the dead-`pub`
    /// rule errs toward keeping documented API.
    pub refs: BTreeMap<String, BTreeSet<String>>,
}

/// Map from `use`-path lib names to `crates/<dir>` names.
pub(crate) const LIB_TO_DIR: &[(&str, &str)] = &[
    ("h3cdn", "core"),
    ("h3cdn_sim_core", "sim-core"),
    ("h3cdn_netsim", "netsim"),
    ("h3cdn_transport", "transport"),
    ("h3cdn_http", "http"),
    ("h3cdn_browser", "browser"),
    ("h3cdn_cdn", "cdn"),
    ("h3cdn_web", "web"),
    ("h3cdn_har", "har"),
    ("h3cdn_analysis", "analysis"),
    ("h3cdn_experiments", "experiments"),
    ("h3cdn_lint", "lint"),
];

impl SymbolTable {
    /// Indexes raw identifier occurrences of one file under `region`.
    pub fn index_refs(&mut self, region: &str, raw_source: &str) {
        for ident in identifiers(raw_source) {
            self.refs
                .entry(ident)
                .or_default()
                .insert(region.to_owned());
        }
    }

    /// Extracts symbols, edges and sites from one library-source file.
    pub fn extract_file(&mut self, ctx: &FileContext) {
        let items = parse_items(ctx);
        let first_new_fn = self.fns.len();
        for item in items {
            self.fns.push(item);
        }
        self.extract_calls_and_panics(ctx, first_new_fn);
        self.extract_pub_items(ctx);
        self.extract_use_edges(ctx);
        self.extract_rng_sites(ctx, first_new_fn);
    }

    /// Scans each new function's body for call and panic sites.
    fn extract_calls_and_panics(&mut self, ctx: &FileContext, first: usize) {
        for f in &mut self.fns[first..] {
            let Some((start, end)) = f.body else { continue };
            for idx in start..=end.min(ctx.lines().len().saturating_sub(1)) {
                let line = &ctx.lines()[idx];
                collect_calls(line, idx + 1, &f.impl_type, &mut f.calls);
                if !ctx.is_test_line(idx) {
                    crate::baseline::classify_line(line, |category, what| {
                        f.panics.push(PanicSite {
                            line: idx + 1,
                            category,
                            what,
                        });
                    });
                }
            }
        }
    }

    /// Records non-`fn` `pub` item declarations (structs, enums,
    /// traits, consts, statics, type aliases) outside test modules.
    fn extract_pub_items(&mut self, ctx: &FileContext) {
        const KINDS: &[&str] = &["struct", "enum", "trait", "const", "static", "type"];
        for (idx, line) in ctx.lines().iter().enumerate() {
            if ctx.is_test_line(idx) {
                continue;
            }
            let trimmed = line.trim_start();
            let Some(rest) = trimmed.strip_prefix("pub ") else {
                continue;
            };
            for kind in KINDS {
                let Some(tail) = rest.trim_start().strip_prefix(kind) else {
                    continue;
                };
                let Some(name) = leading_ident_of(tail) else {
                    continue;
                };
                let embedded = embedded_idents(ctx.lines(), idx);
                self.pub_items.push(PubItem {
                    krate: ctx.krate().to_owned(),
                    path: ctx.rel().to_owned(),
                    line: idx + 1,
                    kind,
                    name,
                    embedded,
                });
                break;
            }
        }
    }

    /// Records `h3cdn_*::` path references as cross-crate edges.
    fn extract_use_edges(&mut self, ctx: &FileContext) {
        for (idx, line) in ctx.lines().iter().enumerate() {
            let mut start = 0;
            while let Some(rel) = line[start..].find("h3cdn") {
                let pos = start + rel;
                // Word boundary on the left.
                let bounded = pos == 0
                    || !line[..pos]
                        .chars()
                        .next_back()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_');
                // Take the full identifier (`h3cdn`, `h3cdn_netsim`, ...).
                let end = line[pos..]
                    .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .map_or(line.len(), |e| pos + e);
                start = end.max(pos + 1);
                if !bounded || !line[end..].starts_with("::") {
                    continue;
                }
                let lib = &line[pos..end];
                let Some((_, dir)) = LIB_TO_DIR.iter().find(|(l, _)| *l == lib) else {
                    continue;
                };
                if *dir == ctx.krate() {
                    continue;
                }
                let edge = UseEdge {
                    from: ctx.krate().to_owned(),
                    to: (*dir).to_owned(),
                    path: ctx.rel().to_owned(),
                    line: idx + 1,
                };
                if !self.use_edges.contains(&edge) {
                    self.use_edges.push(edge);
                }
            }
        }
    }

    /// Records `SimRng::seed_from(...)` construction sites with their
    /// argument text (joined across up to 3 lines) for the seed-flow
    /// check. Test lines are skipped — literal seeds in tests are the
    /// point of tests.
    fn extract_rng_sites(&mut self, ctx: &FileContext, first: usize) {
        const NEEDLE: &str = "SimRng::seed_from(";
        for (idx, line) in ctx.lines().iter().enumerate() {
            if ctx.is_test_line(idx) {
                continue;
            }
            let Some(pos) = line.find(NEEDLE) else {
                continue;
            };
            let arg = balanced_arg(ctx.lines(), idx, pos + NEEDLE.len() - 1, 3);
            let enclosing_fn = self.fns[first..]
                .iter()
                .enumerate()
                .filter(|(_, f)| {
                    f.body
                        .is_some_and(|(s, e)| s <= idx && idx <= e && f.path == ctx.rel())
                })
                // Innermost = latest-starting body that covers the line.
                .max_by_key(|(_, f)| f.body.map_or(0, |(s, _)| s))
                .map(|(k, _)| first + k);
            self.rng_sites.push(RngSite {
                path: ctx.rel().to_owned(),
                line: idx + 1,
                arg,
                enclosing_fn,
            });
        }
    }
}

/// The text between a `(` at (`line0`, `open`) and its matching `)`,
/// joined across at most `max_lines` lines.
fn balanced_arg(lines: &[String], line0: usize, open: usize, max_lines: usize) -> String {
    let mut depth = 0i32;
    let mut out = String::new();
    for (k, line) in lines.iter().enumerate().skip(line0).take(max_lines) {
        let text: &str = if k == line0 { &line[open..] } else { line };
        for c in text.chars() {
            match c {
                '(' => {
                    depth += 1;
                    if depth > 1 {
                        out.push(c);
                    }
                }
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        return out;
                    }
                    out.push(c);
                }
                _ => {
                    if depth >= 1 {
                        out.push(c);
                    }
                }
            }
        }
        out.push(' ');
    }
    out
}

/// All identifiers in `text` (raw, including comments/strings).
fn identifiers(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut cur = String::new();
    for c in text.chars() {
        if c.is_alphanumeric() || c == '_' {
            cur.push(c);
        } else if !cur.is_empty() {
            if !cur.chars().next().is_some_and(char::is_numeric) {
                out.insert(std::mem::take(&mut cur));
            } else {
                cur.clear();
            }
        }
    }
    if !cur.is_empty() && !cur.chars().next().is_some_and(char::is_numeric) {
        out.insert(cur);
    }
    out
}

/// Identifiers embedded in an item declaration starting at `start`:
/// everything from the declaration line to the end of its brace block,
/// or to the terminating `;` when no block opens first. Used to
/// propagate liveness through struct fields, enum variants and type
/// alias targets. The scan is capped so a pathological unterminated
/// item cannot swallow the rest of the file.
fn embedded_idents(lines: &[String], start: usize) -> Vec<String> {
    const MAX_ITEM_LINES: usize = 400;
    let mut out = BTreeSet::new();
    let mut depth = 0i32;
    let mut seen_brace = false;
    for line in lines.iter().skip(start).take(MAX_ITEM_LINES) {
        out.extend(identifiers(line));
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    seen_brace = true;
                }
                '}' => {
                    depth -= 1;
                    if seen_brace && depth == 0 {
                        return out.into_iter().collect();
                    }
                }
                ';' if !seen_brace => return out.into_iter().collect(),
                _ => {}
            }
        }
    }
    out.into_iter().collect()
}

/// The leading identifier of `s` after trimming.
fn leading_ident_of(s: &str) -> Option<String> {
    let s = s.trim_start();
    let end = s
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    if end == 0 || s.chars().next().is_some_and(char::is_numeric) {
        None
    } else {
        Some(s[..end].to_owned())
    }
}

// ---------------------------------------------------------------------------
// Item parsing: fn / impl headers and body ranges
// ---------------------------------------------------------------------------

/// Rust keywords that look like calls when followed by `(`.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "let", "else", "move", "in", "as", "fn",
    "pub", "use", "mod", "where", "unsafe", "const", "static", "struct", "enum", "trait", "type",
    "ref", "mut", "break", "continue", "crate", "super", "dyn", "box", "async", "await", "yield",
    "impl", "Some", "Ok", "Err", "None",
];

/// Parses `fn` items (with impl context, params, body ranges) out of a
/// stripped file.
fn parse_items(ctx: &FileContext) -> Vec<FnSym> {
    let lines = ctx.lines();
    let mut fns: Vec<FnSym> = Vec::new();
    // Stacks of (depth before the opening `{`, payload).
    let mut open_impls: Vec<(i32, String)> = Vec::new();
    let mut open_fns: Vec<(i32, usize)> = Vec::new(); // (entry depth, fns index)
    let mut depth = 0i32;
    let mut pending_impl: Option<String> = None;
    // A pending fn whose signature is still being accumulated.
    struct PendingFn {
        line: usize, // 0-based
        name: String,
        is_pub: bool,
        sig: String,
        ret: String,
        paren_depth: i32,
        seen_params: bool,
    }
    let mut pending_fn: Option<PendingFn> = None;

    for (idx, line) in lines.iter().enumerate() {
        // Header detection first (a header never shares its line with a
        // *previous* item's tokens that matter here).
        if pending_fn.is_none() {
            if let Some((name, is_pub)) = fn_header(line) {
                pending_fn = Some(PendingFn {
                    line: idx,
                    name,
                    is_pub,
                    sig: String::new(),
                    ret: String::new(),
                    paren_depth: 0,
                    seen_params: false,
                });
            } else if pending_impl.is_none() {
                if let Some(ty) = impl_header(line) {
                    pending_impl = Some(ty);
                }
            }
        }

        // Accumulate the pending fn's signature (params only).
        // `closed_col` is the column just after the params' closing `)`
        // when that close happens on *this* line; `Some(0)` when the
        // params already closed on an earlier line.
        let mut closed_col: Option<usize> = None;
        if let Some(p) = &mut pending_fn {
            if p.seen_params && p.paren_depth == 0 {
                closed_col = Some(0);
            } else {
                let from = if p.line == idx {
                    line.find('(').unwrap_or(line.len())
                } else {
                    0
                };
                for (i, c) in line[from..].char_indices() {
                    match c {
                        '(' => {
                            p.paren_depth += 1;
                            p.seen_params = true;
                            if p.paren_depth > 1 {
                                p.sig.push(c);
                            }
                        }
                        ')' => {
                            p.paren_depth -= 1;
                            if p.paren_depth >= 1 {
                                p.sig.push(c);
                            } else {
                                // Params complete; the rest of the line
                                // is return type / terminator, not sig.
                                closed_col = Some(from + i + 1);
                                break;
                            }
                        }
                        _ if p.paren_depth >= 1 => p.sig.push(c),
                        _ => {}
                    }
                }
                p.sig.push(' ');
            }
        }

        // Resolve a complete signature into an open fn or a bodyless
        // declaration. The `{` or `;` that terminates the signature is
        // found on this line (after the params) or a later one.
        let mut opened_fn_on_this_line = false;
        if let Some(p) = &mut pending_fn {
            if p.seen_params && p.paren_depth == 0 && closed_col.is_some() {
                // Look for the terminator in the text after the params.
                let tail_start = closed_col.unwrap_or(0);
                let tail = &line[tail_start.min(line.len())..];
                let brace = tail.find('{');
                let semi = tail.find(';');
                let terminated = match (brace, semi) {
                    (Some(b), Some(s)) => Some(b < s),
                    (Some(_), None) => Some(true),
                    (None, Some(_)) => Some(false),
                    (None, None) => None,
                };
                // Accumulate the return-type text (the tail up to the
                // terminator, possibly spanning lines).
                let ret_end = [brace, semi].into_iter().flatten().min();
                p.ret.push_str(&tail[..ret_end.unwrap_or(tail.len())]);
                p.ret.push(' ');
                if let Some(has_body) = terminated {
                    let p = pending_fn.take().expect("pending fn present");
                    let impl_type = open_impls.last().map(|(_, t)| t.clone());
                    let mut sig_idents: Vec<String> = identifiers(&p.sig).into_iter().collect();
                    for id in identifiers(&p.ret) {
                        if !sig_idents.contains(&id) {
                            sig_idents.push(id);
                        }
                    }
                    let sym = FnSym {
                        krate: ctx.krate().to_owned(),
                        path: ctx.rel().to_owned(),
                        line: p.line + 1,
                        name: p.name,
                        impl_type,
                        params: param_idents(&p.sig),
                        is_pub: p.is_pub,
                        sig_idents,
                        body: None,
                        calls: Vec::new(),
                        panics: Vec::new(),
                    };
                    if has_body {
                        // Entry depth = depth before this line's braces are
                        // folded in, adjusted below by the brace walk.
                        open_fns.push((depth, fns.len()));
                        opened_fn_on_this_line = true;
                        let mut sym = sym;
                        sym.body = Some((idx, idx)); // end fixed at close
                        fns.push(sym);
                    } else {
                        fns.push(sym);
                    }
                }
            }
        }

        // Brace walk: update depth, close impls/fns whose entry depth is
        // reached again.
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if let Some(ty) = pending_impl.take() {
                        open_impls.push((depth - 1, ty));
                    }
                }
                '}' => {
                    depth -= 1;
                    while open_fns.last().is_some_and(|&(d, _)| depth <= d) {
                        let (_, fi) = open_fns.pop().expect("open fn present");
                        if let Some((s, _)) = fns[fi].body {
                            fns[fi].body = Some((s, idx));
                        }
                    }
                    while open_impls.last().is_some_and(|&(d, _)| depth <= d) {
                        open_impls.pop();
                    }
                }
                _ => {}
            }
        }
        let _ = opened_fn_on_this_line;
    }
    // Close any fn left open by unbalanced input.
    for (_, fi) in open_fns {
        if let Some((s, _)) = fns[fi].body {
            fns[fi].body = Some((s, lines.len().saturating_sub(1)));
        }
    }
    fns
}

/// `Some((name, is_pub))` when `line` opens a `fn` item.
fn fn_header(line: &str) -> Option<(String, bool)> {
    let mut search = 0;
    loop {
        let rel = line[search..].find("fn ")?;
        let pos = search + rel;
        search = pos + 3;
        // Word boundary on the left.
        if pos > 0
            && line[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            continue;
        }
        let name = leading_ident_of(&line[pos + 3..])?;
        let head = line[..pos].trim_start();
        // Plain `pub` only; `pub(crate)` / `pub(super)` is not API surface.
        let is_pub = head.starts_with("pub ") || head == "pub";
        return Some((name, is_pub));
    }
}

/// `Some(type name)` when `line` opens an `impl` block
/// (`impl Foo`, `impl<T> Foo<T>`, `impl Trait for Foo`).
fn impl_header(line: &str) -> Option<String> {
    let trimmed = line.trim_start();
    let rest = trimmed.strip_prefix("impl")?;
    let rest = if rest.starts_with('<') {
        // Skip the generic parameter list.
        let mut depth = 0i32;
        let mut cut = rest.len();
        for (i, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        &rest[cut..]
    } else if rest.starts_with(' ') || rest.starts_with('\t') {
        rest
    } else {
        return None; // `implements`, ...
    };
    // `impl Trait for Type` — the implementing type follows `for`.
    let target = match rest.find(" for ") {
        Some(pos) => &rest[pos + 5..],
        None => rest,
    };
    // Last path segment of the type, generics stripped.
    let target = target.trim_start().trim_start_matches('&');
    let head = target
        .find(['<', ' ', '{'])
        .map_or(target, |p| &target[..p]);
    let seg = head.rsplit("::").next().unwrap_or(head);
    let seg: String = seg
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if seg.is_empty() {
        None
    } else {
        Some(seg)
    }
}

/// Parameter identifiers from a signature's param text (between the
/// outer parens). Pattern params (`(a, b): (u32, u32)`) contribute all
/// their idents; `self` forms are skipped.
fn param_idents(sig: &str) -> Vec<String> {
    let mut out = Vec::new();
    for chunk in split_top_level(sig) {
        let before_colon = chunk.split(':').next().unwrap_or("");
        for ident in identifiers(before_colon) {
            if matches!(ident.as_str(), "self" | "mut" | "ref") {
                continue;
            }
            if !out.contains(&ident) {
                out.push(ident);
            }
        }
    }
    out
}

/// Splits on commas at zero `()`/`[]`/`<>` nesting.
fn split_top_level(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut cur = String::new();
    let mut prev = ' ';
    for c in s.chars() {
        match c {
            '(' | '[' => depth += 1,
            ')' | ']' => depth -= 1,
            '<' => depth += 1,
            '>' if prev != '-' => depth -= 1,
            ',' if depth == 0 => {
                out.push(std::mem::take(&mut cur));
                prev = c;
                continue;
            }
            _ => {}
        }
        cur.push(c);
        prev = c;
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

// ---------------------------------------------------------------------------
// Call and panic site collection
// ---------------------------------------------------------------------------

/// Collects call sites on one stripped line.
fn collect_calls(line: &str, lineno: usize, impl_type: &Option<String>, out: &mut Vec<CallSite>) {
    for (i, c) in line.char_indices() {
        if c != '(' || i == 0 {
            continue;
        }
        // Strip a turbofish segment so `name::<T>(...)` still yields
        // `name` — the engine's monomorphized dispatch helpers are
        // called exactly this way.
        let before = strip_turbofish(&line[..i]);
        let last = before.chars().next_back().unwrap_or(' ');
        if last == '!' {
            continue; // macro invocation; panics are counted separately
        }
        if !(last.is_alphanumeric() || last == '_') {
            continue;
        }
        let Some(name) = ident_before(before, before.len()) else {
            continue;
        };
        if CALL_KEYWORDS.contains(&name.as_str()) {
            continue;
        }
        let prefix_end = before.len() - name.len();
        let prefix = &before[..prefix_end];
        // `fn name(` is the definition, not a call.
        if prefix.trim_end().ends_with("fn") {
            continue;
        }
        let callee = if prefix.ends_with('.') {
            CalleeRef::Method(name)
        } else if prefix.ends_with("::") {
            let Some(seg) = ident_before(prefix, prefix.len() - 2) else {
                continue;
            };
            let seg = if seg == "Self" {
                match impl_type {
                    Some(t) => t.clone(),
                    None => seg,
                }
            } else {
                seg
            };
            CalleeRef::Qualified(seg, name)
        } else {
            CalleeRef::Bare(name)
        };
        out.push(CallSite {
            line: lineno,
            callee,
        });
    }
}

/// Drops a trailing `::<...>` turbofish from a call prefix, so the
/// identifier before it is seen as the callee name.
fn strip_turbofish(before: &str) -> &str {
    if !before.ends_with('>') {
        return before;
    }
    let mut depth = 0i32;
    for (i, c) in before.char_indices().rev() {
        match c {
            '>' => depth += 1,
            '<' => {
                depth -= 1;
                if depth == 0 {
                    if let Some(head) = before[..i].strip_suffix("::") {
                        return head;
                    }
                    return before;
                }
            }
            _ => {}
        }
    }
    before
}

/// The identifier ending at byte offset `end` in `s`, if any.
fn ident_before(s: &str, end: usize) -> Option<String> {
    let head = &s[..end];
    let start = head
        .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
        .map_or(0, |p| {
            p + head[p..].chars().next().map_or(1, char::len_utf8)
        });
    let ident = &head[start..];
    if ident.is_empty() || ident.chars().next().is_some_and(char::is_numeric) {
        None
    } else {
        Some(ident.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::FileContext;

    fn table_for(src: &str) -> SymbolTable {
        let ctx = FileContext::new("crates/netsim/src/lib.rs", "netsim", src);
        let mut t = SymbolTable::default();
        t.extract_file(&ctx);
        t
    }

    #[test]
    fn extracts_fns_with_impl_context_and_params() {
        let t = table_for(
            "pub struct Engine;\n\
             impl Engine {\n\
                 pub fn run(&mut self, deadline: u64) -> u64 {\n\
                     self.step(deadline);\n\
                     helper(deadline)\n\
                 }\n\
                 fn step(&mut self, d: u64) {}\n\
             }\n\
             fn helper(x: u64) -> u64 { x }\n",
        );
        let quals: Vec<String> = t.fns.iter().map(FnSym::qual).collect();
        assert_eq!(quals, vec!["Engine::run", "Engine::step", "helper"]);
        assert_eq!(t.fns[0].params, vec!["deadline"]);
        assert!(t.fns[0].is_pub);
        assert!(!t.fns[1].is_pub);
        let callees: Vec<&CalleeRef> = t.fns[0].calls.iter().map(|c| &c.callee).collect();
        assert!(callees.contains(&&CalleeRef::Method("step".to_owned())));
        assert!(callees.contains(&&CalleeRef::Bare("helper".to_owned())));
    }

    #[test]
    fn multi_line_signatures_and_self_qualification() {
        let t = table_for(
            "impl Wheel {\n\
                 pub fn schedule(\n\
                     &mut self,\n\
                     at: u64,\n\
                     ev: u32,\n\
                 ) {\n\
                     Self::push_slot(at, ev);\n\
                 }\n\
                 fn push_slot(at: u64, ev: u32) {}\n\
             }\n",
        );
        assert_eq!(t.fns[0].params, vec!["at", "ev"]);
        assert_eq!(
            t.fns[0].calls[0].callee,
            CalleeRef::Qualified("Wheel".to_owned(), "push_slot".to_owned())
        );
    }

    #[test]
    fn turbofish_calls_are_collected() {
        let t = table_for(
            "impl Engine {\n\
                 fn run_inner(&mut self) {\n\
                     self.run_inner_impl::<true>(7);\n\
                     dispatch::<Vec<u8>, false>(1);\n\
                     Wheel::rotate::<4>(2);\n\
                 }\n\
             }\n",
        );
        let callees: Vec<&CalleeRef> = t.fns[0].calls.iter().map(|c| &c.callee).collect();
        assert!(callees.contains(&&CalleeRef::Method("run_inner_impl".to_owned())));
        assert!(callees.contains(&&CalleeRef::Bare("dispatch".to_owned())));
        assert!(callees.contains(&&CalleeRef::Qualified(
            "Wheel".to_owned(),
            "rotate".to_owned()
        )));
    }

    #[test]
    fn panic_sites_attributed_to_enclosing_fn() {
        let t = table_for(
            "fn risky(v: &[u8]) -> u8 {\n\
                 let x = v.first().unwrap();\n\
                 if *x > 3 { panic!(\"boom\") }\n\
                 v[0]\n\
             }\n\
             fn clean() {}\n",
        );
        let cats: Vec<&str> = t.fns[0].panics.iter().map(|p| p.category).collect();
        assert_eq!(cats, vec!["unwrap", "panic", "index"]);
        assert!(t.fns[1].panics.is_empty());
    }

    #[test]
    fn use_edges_and_rng_sites() {
        let t = table_for(
            "use h3cdn_sim_core::SimRng;\n\
             fn build(seed: u64) -> SimRng {\n\
                 SimRng::seed_from(seed ^ 0xABCD)\n\
             }\n\
             fn fixed() -> SimRng {\n\
                 SimRng::seed_from(42)\n\
             }\n",
        );
        assert_eq!(t.use_edges.len(), 1);
        assert_eq!(t.use_edges[0].to, "sim-core");
        assert_eq!(t.rng_sites.len(), 2);
        assert!(t.rng_sites[0].arg.contains("seed"));
        assert_eq!(t.rng_sites[0].enclosing_fn, Some(0));
        assert_eq!(t.rng_sites[1].arg.trim(), "42");
        assert_eq!(t.rng_sites[1].enclosing_fn, Some(1));
    }

    #[test]
    fn pub_items_and_bodyless_decls() {
        let t = table_for(
            "pub struct Packet;\n\
             pub(crate) struct Hidden;\n\
             pub trait Node {\n\
                 fn handle(&mut self);\n\
             }\n\
             pub const LIMIT: u32 = 4;\n",
        );
        let names: Vec<&str> = t.pub_items.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["Packet", "Node", "LIMIT"]);
        // The bodyless trait method was recorded without a body.
        let handle = t.fns.iter().find(|f| f.name == "handle").expect("decl");
        assert!(handle.body.is_none());
    }

    #[test]
    fn trait_impl_type_comes_after_for() {
        let t = table_for(
            "impl Node for Switch {\n\
                 fn handle(&mut self) { self.relay(); }\n\
                 fn relay(&mut self) {}\n\
             }\n",
        );
        assert_eq!(t.fns[0].qual(), "Switch::handle");
    }
}
