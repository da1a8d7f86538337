//! Line/token scanning: comment & string stripping, pragma parsing,
//! and the individual rule implementations.

use crate::{
    Finding, RULE_AMBIENT_RNG, RULE_ENV_READ, RULE_FLOAT_CMP, RULE_HOT_PATH_ALLOC, RULE_NAN_SORT,
    RULE_RAW_RESULT_WRITE, RULE_SANS_IO, RULE_UNORDERED_ITER, RULE_WALL_CLOCK,
};

/// Marker introducing a suppression pragma inside a comment.
pub(crate) const PRAGMA: &str = "h3cdn-lint: allow(";

/// Per-file scanning context shared by all rules.
#[derive(Debug)]
pub(crate) struct FileContext {
    rel: String,
    krate: String,
    /// Raw source lines (pragmas live in comments, so they are parsed
    /// from these).
    raw: Vec<String>,
    /// Source lines with comments, string literals and char literals
    /// blanked out; same line structure as `raw`.
    stripped: Vec<String>,
    /// Per-line `true` when the line is inside a `#[cfg(test)]` item.
    in_test_mod: Vec<bool>,
}

impl FileContext {
    /// Builds the context for one file.
    pub fn new(rel: &str, krate: &str, source: &str) -> Self {
        let raw: Vec<String> = source.lines().map(str::to_owned).collect();
        let stripped = strip_source(source);
        debug_assert_eq!(raw.len(), stripped.len());
        let in_test_mod = mark_test_items(&stripped);
        FileContext {
            rel: rel.to_owned(),
            krate: krate.to_owned(),
            raw,
            stripped,
            in_test_mod,
        }
    }

    /// The `crates/<dir>` name this file belongs to.
    pub fn krate(&self) -> &str {
        &self.krate
    }

    /// Workspace-relative path.
    pub fn rel(&self) -> &str {
        &self.rel
    }

    /// Stripped lines (comments/strings blanked).
    pub fn lines(&self) -> &[String] {
        &self.stripped
    }

    /// Whether 0-based `idx` is inside a `#[cfg(test)]` item.
    pub fn is_test_line(&self, idx: usize) -> bool {
        self.in_test_mod.get(idx).copied().unwrap_or(false)
    }

    /// Whether this file is library source (`crates/<c>/src/...`), as
    /// opposed to integration tests or benches.
    pub fn in_library_src(&self) -> bool {
        let Some(rest) = self.rel.strip_prefix("crates/") else {
            return false;
        };
        rest.split_once('/')
            .is_some_and(|(_, tail)| tail.starts_with("src/"))
    }

    /// Whether a finding of `rule` on 1-based `line` is suppressed by
    /// a pragma on that line or on the line directly above.
    pub fn is_suppressed(&self, line: usize, rule: &str) -> bool {
        let idx = line.saturating_sub(1);
        pragma_allows(self.raw.get(idx), rule)
            || (idx > 0 && pragma_allows(self.raw.get(idx - 1), rule))
    }

    /// The `(1-based line, comma-separated rule list)` of every pragma
    /// comment in the file, for suppression checks that outlive this
    /// context (the post-pass graph rules).
    pub fn pragma_rule_lines(&self) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        for (idx, line) in self.raw.iter().enumerate() {
            let Some(pos) = line.find(PRAGMA) else {
                continue;
            };
            let rest = &line[pos + PRAGMA.len()..];
            if let Some(end) = rest.find(')') {
                out.push((idx + 1, rest[..end].to_owned()));
            }
        }
        out
    }

    /// The text starting at 0-based `idx` spanning `stmts` statements
    /// (lines up to and including the `stmts`-th one containing a
    /// `;`), capped at `max` lines. Used for "immediately
    /// sorted"-style lookahead: `stmts = 2` covers the common
    /// `let v: Vec<_> = map.values().collect();\n v.sort();` idiom.
    fn statement_from(&self, idx: usize, stmts: usize, max: usize) -> String {
        let mut joined = String::new();
        let mut seen = 0usize;
        for (k, line) in self.stripped.iter().enumerate().skip(idx).take(max) {
            // Never look past the end of the enclosing block or into the
            // next item (tail expressions have no terminating `;`).
            let trimmed = line.trim_start();
            if k > idx && (trimmed.starts_with('}') || trimmed.starts_with("fn ")) {
                break;
            }
            joined.push_str(line);
            joined.push(' ');
            if line.contains(';') {
                seen += 1;
                if seen >= stmts {
                    break;
                }
            }
        }
        joined
    }
}

/// Whether `raw_line` carries a pragma allowing `rule`.
fn pragma_allows(raw_line: Option<&String>, rule: &str) -> bool {
    let Some(line) = raw_line else { return false };
    let Some(pos) = line.find(PRAGMA) else {
        return false;
    };
    let rest = &line[pos + PRAGMA.len()..];
    let Some(end) = rest.find(')') else {
        return false;
    };
    rest[..end].split(',').any(|r| r.trim() == rule)
}

// ---------------------------------------------------------------------------
// Source stripping
// ---------------------------------------------------------------------------

/// Blanks comments, string literals (incl. raw strings) and char
/// literals, preserving the line structure so `file:line` diagnostics
/// stay accurate.
#[allow(clippy::too_many_lines)]
pub(crate) fn strip_source(source: &str) -> Vec<String> {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
    }

    let chars: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut state = State::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match state {
            State::Code => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    out.push_str("  ");
                    i += 2;
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    out.push_str("  ");
                    i += 2;
                }
                '"' => {
                    state = State::Str;
                    out.push(' ');
                    i += 1;
                }
                'r' | 'b' if is_raw_string_start(&chars, i) => {
                    let (hashes, consumed) = raw_string_open(&chars, i);
                    state = State::RawStr(hashes);
                    for _ in 0..consumed {
                        out.push(' ');
                    }
                    i += consumed;
                }
                '\'' => {
                    // Char literal vs lifetime: a literal closes with a
                    // quote after one (possibly escaped) character.
                    if next == Some('\\') {
                        // Escaped char literal: skip to the closing quote.
                        let mut j = i + 2;
                        while j < chars.len() && chars[j] != '\'' {
                            j += 1;
                        }
                        for _ in i..=j.min(chars.len() - 1) {
                            out.push(' ');
                        }
                        i = j + 1;
                    } else if chars.get(i + 2) == Some(&'\'') {
                        out.push_str("   ");
                        i += 3;
                    } else {
                        // Lifetime: keep the tick, it cannot hide code.
                        out.push('\'');
                        i += 1;
                    }
                }
                '\n' => {
                    out.push('\n');
                    i += 1;
                }
                _ => {
                    out.push(c);
                    i += 1;
                }
            },
            State::LineComment => {
                if c == '\n' {
                    state = State::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    out.push_str("  ");
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    // Preserve line structure across `\`-continuations.
                    out.push(' ');
                    out.push(if next == Some('\n') { '\n' } else { ' ' });
                    i += 2;
                } else if c == '"' {
                    state = State::Code;
                    out.push(' ');
                    i += 1;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && raw_string_closes(&chars, i, hashes) {
                    state = State::Code;
                    for _ in 0..=hashes {
                        out.push(' ');
                    }
                    i += 1 + hashes as usize;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
        }
    }
    out.lines().map(str::to_owned).collect()
}

/// Whether `r"`, `r#"`, `br"`, ... starts at `i` (and `i` is not part
/// of an identifier such as `for` or `var`).
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    if i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_') {
        return false;
    }
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// `(hash count, consumed chars)` for a raw-string opener at `i`.
fn raw_string_open(chars: &[char], i: usize) -> (u32, usize) {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    j += 1; // 'r'
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    j += 1; // '"'
    (hashes, j - i)
}

/// Whether the `"` at `i` is followed by `hashes` `#` characters.
fn raw_string_closes(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Marks lines inside `#[cfg(test)]` items (test modules or test-only
/// functions) by brace matching from the item's first `{`. An item
/// whose `;` comes first (a `const`, `type` or `use`) ends at that `;`.
fn mark_test_items(stripped: &[String]) -> Vec<bool> {
    let mut marked = vec![false; stripped.len()];
    let mut i = 0;
    while i < stripped.len() {
        if !stripped[i].contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        // Brackets and parentheses before the body (attributes, array
        // types) may hold a `;` that does not end the item.
        let mut nesting = 0i32;
        let mut depth = 0i32;
        let mut opened = false;
        let mut j = i;
        'item: while j < stripped.len() {
            marked[j] = true;
            for c in stripped[j].chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    '(' | '[' if !opened => nesting += 1,
                    ')' | ']' if !opened => nesting -= 1,
                    ';' if !opened && nesting == 0 => break 'item,
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    marked
}

// ---------------------------------------------------------------------------
// Small token helpers
// ---------------------------------------------------------------------------

/// Whether `c` can be part of an identifier.
fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Byte offsets of whole-word occurrences of `word` in `line`.
fn word_positions(line: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(rel) = line[start..].find(word) {
        let pos = start + rel;
        let before_ok = pos == 0 || !is_ident_char(line[..pos].chars().next_back().unwrap_or(' '));
        let after = line[pos + word.len()..].chars().next().unwrap_or(' ');
        if before_ok && !is_ident_char(after) {
            out.push(pos);
        }
        start = pos + word.len();
    }
    out
}

/// Whether `line` contains `word` as a whole word.
fn has_word(line: &str, word: &str) -> bool {
    !word_positions(line, word).is_empty()
}

/// The identifier ending at byte offset `end` (exclusive) in `line`.
fn ident_ending_at(line: &str, end: usize) -> Option<&str> {
    let head = &line[..end];
    let start = head
        .rfind(|c: char| !is_ident_char(c))
        .map_or(0, |p| p + c_len(head, p));
    let ident = &head[start..];
    if ident.is_empty() || ident.chars().next().is_some_and(char::is_numeric) {
        None
    } else {
        Some(ident)
    }
}

/// Byte length of the char starting at `p`.
fn c_len(s: &str, p: usize) -> usize {
    s[p..].chars().next().map_or(1, char::len_utf8)
}

/// The identifier starting at the beginning of `s` (after trimming).
fn leading_ident(s: &str) -> Option<&str> {
    let s = s.trim_start();
    let end = s.find(|c: char| !is_ident_char(c)).unwrap_or(s.len());
    if end == 0 {
        None
    } else {
        Some(&s[..end])
    }
}

// ---------------------------------------------------------------------------
// Rule: unordered-iter
// ---------------------------------------------------------------------------

/// Iterator-producing methods whose order on hash containers is
/// nondeterministic.
const HASH_ITER_METHODS: &[&str] = &[
    "iter()",
    "iter_mut()",
    "keys()",
    "values()",
    "values_mut()",
    "into_iter()",
    "into_keys()",
    "into_values()",
    "drain(",
];

/// Markers that make an iteration order-safe when they appear in the
/// same statement: an explicit sort, a collect into an ordered
/// container, or an order-insensitive reduction.
const ORDER_SAFE_MARKERS: &[&str] = &[
    ".sort",
    "BTreeMap",
    "BTreeSet",
    ".count()",
    ".len()",
    ".is_empty(",
];

/// Flags iteration over identifiers declared as `HashMap`/`HashSet`
/// unless the statement immediately restores a deterministic order.
pub(crate) fn rule_unordered_iter(ctx: &FileContext, out: &mut Vec<Finding>) {
    let idents = collect_hash_idents(ctx.lines());
    if idents.is_empty() {
        return;
    }
    for (idx, line) in ctx.lines().iter().enumerate() {
        for ident in &idents {
            let hit = method_iteration(line, ident) || for_loop_iteration(line, ident);
            if !hit {
                continue;
            }
            // A `for`-loop body can only be made safe with a pragma;
            // method chains may sort/reduce within the statement.
            let safe = method_iteration(line, ident) && {
                let stmt = ctx.statement_from(idx, 2, 8);
                ORDER_SAFE_MARKERS.iter().any(|m| stmt.contains(m))
            };
            if !safe {
                out.push(Finding {
                    path: ctx.rel().to_owned(),
                    line: idx + 1,
                    rule: RULE_UNORDERED_ITER,
                    message: format!(
                        "iteration over hash container `{ident}` has nondeterministic order"
                    ),
                    hint: "sort the collected items, switch to BTreeMap/BTreeSet, or add \
                           `// h3cdn-lint: allow(unordered-iter)` with a justification"
                        .to_owned(),
                    trace: None,
                });
            }
        }
    }
}

/// Identifiers declared as `HashMap`/`HashSet` anywhere in the file
/// (fields, locals, parameters).
fn collect_hash_idents(lines: &[String]) -> Vec<String> {
    let mut idents = Vec::new();
    for line in lines {
        for ty in ["HashMap", "HashSet"] {
            for pos in word_positions(line, ty) {
                if let Some(ident) = hash_decl_ident(line, pos) {
                    if !idents.contains(&ident) {
                        idents.push(ident);
                    }
                }
            }
        }
    }
    idents
}

/// The declared identifier for a `HashMap`/`HashSet` occurrence at
/// `pos`, handling `ident: [&][std::collections::]HashMap<...>` and
/// `let [mut] ident = HashMap::new()` forms.
fn hash_decl_ident(line: &str, pos: usize) -> Option<String> {
    let before = line[..pos]
        .trim_end_matches("std::collections::")
        .trim_end();
    // `ident: HashMap<...>` (field, local with annotation, parameter).
    let before = before
        .trim_end_matches('&')
        .trim_end()
        .trim_end_matches("mut")
        .trim_end()
        .trim_end_matches('&')
        .trim_end();
    if let Some(head) = before.strip_suffix(':') {
        return ident_ending_at(line, head.len()).map(str::to_owned);
    }
    // `let [mut] ident = HashMap::new()` / `with_capacity` / `from`.
    let after_ty = line[pos..].trim_start_matches(is_ident_char);
    let constructed = ["::new(", "::with_capacity(", "::from(", "::default("]
        .iter()
        .any(|c| after_ty.starts_with(c));
    if constructed {
        if let Some(eq) = line[..pos].rfind('=') {
            let lhs = line[..eq].trim_end();
            if let Some(let_pos) = lhs.find("let ") {
                let name = lhs[let_pos + 4..]
                    .trim_start()
                    .trim_start_matches("mut ")
                    .trim();
                if !name.is_empty() && name.chars().all(is_ident_char) {
                    return Some(name.to_owned());
                }
            }
        }
    }
    None
}

/// Whether `line` calls a nondeterministic iteration method on `ident`
/// (possibly behind `self.` / a path).
fn method_iteration(line: &str, ident: &str) -> bool {
    word_positions(line, ident).iter().any(|&pos| {
        let after = &line[pos + ident.len()..];
        after
            .strip_prefix('.')
            .is_some_and(|rest| HASH_ITER_METHODS.iter().any(|m| rest.starts_with(m)))
    })
}

/// Whether `line` is a `for ... in [&[mut]] [self.]ident [{]` loop
/// header over the bare container.
fn for_loop_iteration(line: &str, ident: &str) -> bool {
    if !has_word(line, "for") {
        return false;
    }
    let Some(in_pos) = line.find(" in ") else {
        return false;
    };
    let expr = line[in_pos + 4..]
        .trim_start()
        .trim_start_matches('&')
        .trim_start_matches("mut ")
        .trim_start();
    let expr = expr.strip_prefix("self.").unwrap_or(expr);
    let Some(root) = leading_ident(expr) else {
        return false;
    };
    if root != ident {
        return false;
    }
    // `for x in map` / `for x in &map {` — but not `map.get(...)`.
    let tail = expr[root.len()..].trim_start();
    tail.is_empty() || tail.starts_with('{')
}

// ---------------------------------------------------------------------------
// Simple needle rules
// ---------------------------------------------------------------------------

/// Pushes a finding for every whole-word occurrence of `needle`.
fn needle_rule(
    ctx: &FileContext,
    out: &mut Vec<Finding>,
    rule: &'static str,
    needle: &str,
    message: &str,
    hint: &str,
) {
    for (idx, line) in ctx.lines().iter().enumerate() {
        if line.contains(needle) {
            out.push(Finding {
                path: ctx.rel().to_owned(),
                line: idx + 1,
                rule,
                message: message.to_owned(),
                hint: hint.to_owned(),
                trace: None,
            });
        }
    }
}

/// Flags wall-clock reads: simulation time must come from `SimTime`.
pub(crate) fn rule_wall_clock(ctx: &FileContext, out: &mut Vec<Finding>) {
    const HINT: &str = "use the simulated clock (SimTime); wall-clock reads make runs \
                        irreproducible. For log-only timing add \
                        `// h3cdn-lint: allow(wall-clock)`";
    needle_rule(
        ctx,
        out,
        RULE_WALL_CLOCK,
        "Instant::now",
        "wall-clock read via `Instant::now`",
        HINT,
    );
    for (idx, line) in ctx.lines().iter().enumerate() {
        if has_word(line, "SystemTime") {
            out.push(Finding {
                path: ctx.rel().to_owned(),
                line: idx + 1,
                rule: RULE_WALL_CLOCK,
                message: "wall-clock dependency via `SystemTime`".to_owned(),
                hint: HINT.to_owned(),
                trace: None,
            });
        }
    }
}

/// Flags ambient (non-seeded) randomness sources.
pub(crate) fn rule_ambient_rng(ctx: &FileContext, out: &mut Vec<Finding>) {
    const HINT: &str = "derive randomness from the seeded sim-core RNG so runs replay \
                        bit-identically";
    for needle in [
        "thread_rng",
        "rand::random",
        "OsRng",
        "getrandom",
        "from_entropy",
    ] {
        needle_rule(
            ctx,
            out,
            RULE_AMBIENT_RNG,
            needle,
            &format!("ambient randomness via `{needle}`"),
            HINT,
        );
    }
}

/// Flags environment reads in sim-affecting crates.
pub(crate) fn rule_env_read(ctx: &FileContext, out: &mut Vec<Finding>) {
    const HINT: &str = "thread configuration through explicit config structs; for \
                        runner-level knobs add `// h3cdn-lint: allow(env-read)`";
    for needle in ["std::env::", "env::var(", "env::args("] {
        needle_rule(
            ctx,
            out,
            RULE_ENV_READ,
            needle,
            &format!("environment read via `{needle}`"),
            HINT,
        );
    }
}

/// Flags real I/O and threading in sans-IO crates. `std::io::Error` /
/// `std::io::ErrorKind` are tolerated (error plumbing, not I/O).
pub(crate) fn rule_sans_io(ctx: &FileContext, out: &mut Vec<Finding>) {
    const HINT: &str = "sans-IO crates are pure state machines: move I/O to the \
                        experiments/driver layer";
    for (idx, line) in ctx.lines().iter().enumerate() {
        for needle in ["std::net", "std::fs", "std::thread", "std::io"] {
            let mut start = 0;
            while let Some(rel) = line[start..].find(needle) {
                let pos = start + rel;
                start = pos + needle.len();
                let after = &line[pos + needle.len()..];
                if needle == "std::io"
                    && (after.starts_with("::Error") || after.starts_with("::ErrorKind"))
                {
                    continue;
                }
                // Avoid double-matching `std::io` inside `std::iovec`-style
                // idents (none in std, but be safe).
                if after.chars().next().is_some_and(is_ident_char) {
                    continue;
                }
                out.push(Finding {
                    path: ctx.rel().to_owned(),
                    line: idx + 1,
                    rule: RULE_SANS_IO,
                    message: format!("`{needle}` used in sans-IO crate `{}`", ctx.krate()),
                    hint: HINT.to_owned(),
                    trace: None,
                });
            }
        }
    }
}

/// Flags raw (non-atomic) result-artifact writes in the campaign and
/// experiment crates: `fs::write` / `File::create` can leave a torn
/// file behind when the process dies mid-write, which breaks the
/// crash-safe resume contract. Library source only (integration tests
/// legitimately build scratch trees), test modules excluded.
pub(crate) fn rule_raw_result_write(ctx: &FileContext, out: &mut Vec<Finding>) {
    const HINT: &str = "route the write through h3cdn::persist::atomic_write \
                        (write-temp-fsync-rename); for non-artifact scratch files add \
                        `// h3cdn-lint: allow(raw-result-write)` with a justification";
    if !ctx.in_library_src() {
        return;
    }
    for (idx, line) in ctx.lines().iter().enumerate() {
        if ctx.is_test_line(idx) {
            continue;
        }
        for needle in ["fs::write(", "File::create("] {
            if line.contains(needle) {
                out.push(Finding {
                    path: ctx.rel().to_owned(),
                    line: idx + 1,
                    rule: RULE_RAW_RESULT_WRITE,
                    message: format!(
                        "raw result write via `{}` in crate `{}`",
                        needle.trim_end_matches('('),
                        ctx.krate()
                    ),
                    hint: HINT.to_owned(),
                    trace: None,
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: hot-path-alloc
// ---------------------------------------------------------------------------

/// Allocation constructs banned on the per-event hot path. Needles are
/// matched against stripped source, so occurrences in comments or
/// string literals never fire.
const ALLOC_NEEDLES: &[&str] = &[
    "Vec::new(",
    "vec![",
    "Box::new(",
    ".to_vec(",
    ".clone()",
    "String::new(",
    ".to_owned(",
    ".to_string(",
    "format!(",
];

/// Flags heap allocation in the files on the simulator's per-event hot
/// path (see [`crate::HOT_PATH_FILES`]). Steady-state dispatch code
/// must recycle buffers through scratch space or pools; construction
/// paths, which legitimately allocate once, opt out with a pragma.
pub(crate) fn rule_hot_path_alloc(ctx: &FileContext, out: &mut Vec<Finding>) {
    for (idx, line) in ctx.lines().iter().enumerate() {
        if ctx.is_test_line(idx) {
            continue;
        }
        for needle in ALLOC_NEEDLES {
            if line.contains(needle) {
                out.push(Finding {
                    path: ctx.rel().to_owned(),
                    line: idx + 1,
                    rule: RULE_HOT_PATH_ALLOC,
                    message: format!(
                        "allocation via `{}` on the simulator hot path",
                        needle.trim_end_matches('(')
                    ),
                    hint: "reuse a pooled/scratch buffer (swap-and-drain) instead of \
                           allocating per event; for one-time construction paths add \
                           `// h3cdn-lint: allow(hot-path-alloc)`"
                        .to_owned(),
                    trace: None,
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Float rules
// ---------------------------------------------------------------------------

/// Flags `==` / `!=` where either operand is a float literal.
pub(crate) fn rule_float_cmp(ctx: &FileContext, out: &mut Vec<Finding>) {
    for (idx, line) in ctx.lines().iter().enumerate() {
        for op in ["==", "!="] {
            let mut start = 0;
            while let Some(rel) = line[start..].find(op) {
                let pos = start + rel;
                start = pos + op.len();
                // Skip `<=`, `>=`, `!=` handled, and pattern `=>`.
                if op == "==" && pos > 0 && matches!(&line[pos - 1..pos], "<" | ">" | "!" | "=") {
                    continue;
                }
                let lhs = last_token(&line[..pos]);
                let rhs = first_token(&line[pos + op.len()..]);
                if is_float_literal(lhs) || is_float_literal(rhs) {
                    out.push(Finding {
                        path: ctx.rel().to_owned(),
                        line: idx + 1,
                        rule: RULE_FLOAT_CMP,
                        message: format!("exact float comparison `{lhs} {op} {rhs}`"),
                        hint: "compare with an epsilon (abs diff) or justify with \
                               `// h3cdn-lint: allow(float-cmp)`"
                            .to_owned(),
                        trace: None,
                    });
                }
            }
        }
    }
}

/// Flags NaN-unaware comparator sorts (`sort_by` family combined with
/// `partial_cmp` in the same statement).
pub(crate) fn rule_nan_sort(ctx: &FileContext, out: &mut Vec<Finding>) {
    const SORTS: &[&str] = &[
        "sort_by(",
        "sort_unstable_by(",
        "sort_by_key(",
        "max_by(",
        "min_by(",
        "binary_search_by(",
    ];
    for (idx, line) in ctx.lines().iter().enumerate() {
        if !SORTS.iter().any(|s| line.contains(s)) {
            continue;
        }
        let stmt = ctx.statement_from(idx, 1, 4);
        if stmt.contains("partial_cmp") {
            out.push(Finding {
                path: ctx.rel().to_owned(),
                line: idx + 1,
                rule: RULE_NAN_SORT,
                message: "NaN-unaware comparator: `partial_cmp` inside a sort".to_owned(),
                hint: "use `f64::total_cmp` (total order, NaN-safe) instead of \
                       `partial_cmp(..).unwrap()/expect(..)`"
                    .to_owned(),
                trace: None,
            });
        }
    }
}

/// Last operand-ish token before a comparison operator.
fn last_token(head: &str) -> &str {
    let trimmed = head.trim_end();
    let start = trimmed
        .rfind(|c: char| !(is_ident_char(c) || c == '.'))
        .map_or(0, |p| p + c_len(trimmed, p));
    &trimmed[start..]
}

/// First operand-ish token after a comparison operator.
fn first_token(tail: &str) -> &str {
    let trimmed = tail.trim_start();
    let end = trimmed
        .find(|c: char| !(is_ident_char(c) || c == '.'))
        .unwrap_or(trimmed.len());
    &trimmed[..end]
}

/// Whether `tok` looks like a float literal (`1.0`, `0.`, `2.5f64`)
/// or a float-typed constant path.
fn is_float_literal(tok: &str) -> bool {
    let tok = tok.trim_end_matches("f64").trim_end_matches("f32");
    let mut digits = false;
    let mut dot = false;
    for c in tok.chars() {
        match c {
            '0'..='9' | '_' => digits = true,
            '.' => dot = true,
            _ => return false,
        }
    }
    digits && dot
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strip1(src: &str) -> String {
        strip_source(src).join("\n")
    }

    #[test]
    fn strips_comments_and_strings_preserving_lines() {
        let src =
            "let a = 1; // HashMap\nlet b = \"Instant::now\";\n/* std::fs\nstd::net */ let c = 2;";
        let out = strip_source(src);
        assert_eq!(out.len(), 4);
        assert!(!out.join("\n").contains("HashMap"));
        assert!(!out.join("\n").contains("Instant"));
        assert!(!out.join("\n").contains("std::fs"));
        assert!(out[3].contains("let c = 2;"));
    }

    #[test]
    fn strips_raw_strings_and_char_literals() {
        assert!(!strip1("let s = r#\"thread_rng\"#;").contains("thread_rng"));
        assert!(!strip1("let c = '\\n'; let d = 'x';").contains('x'));
        // Lifetimes survive (they cannot hide code).
        assert!(strip1("fn f<'a>(x: &'a str) {}").contains("'a"));
    }

    #[test]
    fn nested_block_comments() {
        let out = strip1("/* a /* b */ std::fs */ keep");
        assert!(!out.contains("std::fs"));
        assert!(out.contains("keep"));
    }

    #[test]
    fn backslash_continuation_keeps_line_count() {
        let src = "let s = \"a\\\nb\";\nlet t = 1;";
        assert_eq!(strip_source(src).len(), 3);
    }

    #[test]
    fn pragma_parsing_handles_lists() {
        let line = "// h3cdn-lint: allow(unordered-iter, wall-clock)".to_owned();
        assert!(pragma_allows(Some(&line), "wall-clock"));
        assert!(pragma_allows(Some(&line), "unordered-iter"));
        assert!(!pragma_allows(Some(&line), "env-read"));
    }

    #[test]
    fn hash_decl_forms_are_recognised() {
        let cases = [
            ("    paths: HashMap<(u64, u64), Path>,", "paths"),
            ("    let mut h = std::collections::HashMap::new();", "h"),
            ("fn f(m: &HashMap<u32, u32>) {", "m"),
            ("    set: &mut HashSet<u64>,", "set"),
        ];
        for (line, want) in cases {
            let idents = collect_hash_idents(&[line.to_owned()]);
            assert_eq!(idents, vec![want.to_owned()], "line: {line}");
        }
    }

    #[test]
    fn float_literal_detection() {
        assert!(is_float_literal("0.0"));
        assert!(is_float_literal("2.5f64"));
        assert!(is_float_literal("1_000.25"));
        assert!(!is_float_literal("10"));
        assert!(!is_float_literal("x"));
        assert!(!is_float_literal(""));
    }
}
