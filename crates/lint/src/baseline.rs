//! Panic-surface counting and the ratchet baseline.
//!
//! For every library crate we count, in non-test library code
//! (`crates/<c>/src/**` minus `#[cfg(test)]` items):
//!
//! * `unwrap` — `.unwrap()` calls,
//! * `expect` — `.expect(` calls,
//! * `panic` — `panic!` / `unreachable!` / `todo!` / `unimplemented!`,
//! * `index` — `expr[...]`-style indexing (which can panic on
//!   out-of-bounds / missing keys),
//! * `assert` — `assert!` / `assert_eq!` / `assert_ne!` (release builds
//!   keep them; `debug_assert*` is not counted).
//!
//! The checked-in `crates/lint/baseline.json` records the allowed
//! counts. The ratchet direction is one-way: a fresh count above the
//! baseline fails the lint (`crate::RULE_PANIC_RATCHET`); a fresh
//! count *below* it also fails, with a hint to regenerate
//! (`h3cdn-lint --update-baseline`), so the recorded floor keeps
//! ratcheting down as code is cleaned up.

use std::collections::BTreeMap;
use std::path::Path;

use crate::scan::FileContext;
use crate::{Finding, RULE_BASELINE_STALE, RULE_PANIC_RATCHET};

/// Panic-surface counts for one crate.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// `.unwrap()` calls.
    pub unwrap: usize,
    /// `.expect(` calls.
    pub expect: usize,
    /// `panic!`-family macro invocations.
    pub panic: usize,
    /// `expr[...]` indexing expressions.
    pub index: usize,
    /// `assert!`-family macro invocations (not `debug_assert*`).
    pub assert: usize,
}

impl Counts {
    /// Sum over all categories.
    pub fn total(&self) -> usize {
        self.unwrap + self.expect + self.panic + self.index + self.assert
    }
}

/// Per-crate panic-surface counts, keyed by `crates/<dir>` name.
pub type Baseline = BTreeMap<String, Counts>;

/// Accessor returning one category's count.
pub(crate) type CountGetter = fn(&Counts) -> usize;

/// Per-category sorted `(path, line)` sites.
type CategorySites = BTreeMap<&'static str, Vec<(String, usize)>>;

/// The categories, in stable order, with accessors.
pub(crate) const CATEGORIES: &[(&str, CountGetter)] = &[
    ("unwrap", |c| c.unwrap),
    ("expect", |c| c.expect),
    ("panic", |c| c.panic),
    ("index", |c| c.index),
    ("assert", |c| c.assert),
];

/// All counted sites, so over-baseline findings can name a real
/// `file:line`.
#[derive(Debug, Default)]
pub(crate) struct SiteMap {
    /// `crate -> category -> sorted (path, line) sites`.
    sites: BTreeMap<String, CategorySites>,
}

impl SiteMap {
    /// Collapses the site lists into per-crate counts.
    pub fn to_counts(&self) -> Baseline {
        let mut out = Baseline::new();
        for (krate, by_cat) in &self.sites {
            let get = |cat: &str| by_cat.get(cat).map_or(0, Vec::len);
            out.insert(
                krate.clone(),
                Counts {
                    unwrap: get("unwrap"),
                    expect: get("expect"),
                    panic: get("panic"),
                    index: get("index"),
                    assert: get("assert"),
                },
            );
        }
        out
    }

    fn push(&mut self, krate: &str, cat: &'static str, path: &str, line: usize) {
        self.sites
            .entry(krate.to_owned())
            .or_default()
            .entry(cat)
            .or_default()
            .push((path.to_owned(), line));
    }
}

/// Counts the panic surface of one library-source file into `sites`.
pub(crate) fn count_file(ctx: &FileContext, sites: &mut SiteMap) {
    for (idx, line) in ctx.lines().iter().enumerate() {
        if !ctx.is_test_line(idx) {
            classify_line(line, |category, _| {
                sites.push(ctx.krate(), category, ctx.rel(), idx + 1);
            });
        }
    }
}

/// The call and macro needles of the `unwrap`, `expect` and `panic`
/// categories, as `(category, needle)`.
const NEEDLES: &[(&str, &str)] = &[
    ("unwrap", ".unwrap()"),
    ("expect", ".expect("),
    ("panic", "panic!"),
    ("panic", "unreachable!"),
    ("panic", "todo!"),
    ("panic", "unimplemented!"),
];

/// The `assert` category's macros, matched as whole words so that
/// `debug_assert!` and its kin are not counted.
const ASSERTS: &[&str] = &["assert!", "assert_eq!", "assert_ne!"];

/// Reports every panic-capable site on one stripped line to `site` as
/// `(category, needle)`, needle by needle in [`NEEDLES`] order, then
/// indexing, then asserts. The one classifier behind both the per-crate
/// ratchet and the hot-path reachability budget.
pub(crate) fn classify_line(line: &str, mut site: impl FnMut(&'static str, &'static str)) {
    for &(category, needle) in NEEDLES {
        for _ in line.matches(needle) {
            site(category, needle);
        }
    }
    for _ in 0..count_indexing(line) {
        site("index", "[..] indexing");
    }
    for &needle in ASSERTS {
        for (pos, _) in line.match_indices(needle) {
            if !line[..pos].ends_with(|c: char| c.is_alphanumeric() || c == '_') {
                site("assert", needle);
            }
        }
    }
}

/// Counts `expr[...]`-style indexing: a `[` directly preceded by an
/// identifier character, `)` or `]`. Attribute `#[...]`, macro
/// `vec![...]`, slice types `[u8; 4]` and slice patterns are not
/// preceded by such a character and are excluded.
fn count_indexing(line: &str) -> usize {
    let bytes = line.as_bytes();
    let mut n = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'[' && i > 0 {
            let p = bytes[i - 1];
            if p.is_ascii_alphanumeric() || p == b'_' || p == b')' || p == b']' {
                n += 1;
            }
        }
    }
    n
}

/// Compares a fresh count against the baseline, appending findings.
pub(crate) fn check(base: &Baseline, fresh: &Baseline, sites: &SiteMap, out: &mut Vec<Finding>) {
    let empty = Counts::default();
    let mut crates: Vec<&String> = base.keys().chain(fresh.keys()).collect();
    crates.sort();
    crates.dedup();
    for krate in crates {
        let b = base.get(krate.as_str()).unwrap_or(&empty);
        let f = fresh.get(krate.as_str()).unwrap_or(&empty);
        for (cat, get) in CATEGORIES {
            let (allowed, counted) = (get(b), get(f));
            if counted > allowed {
                // Name the sites beyond the allowance so the diagnostic
                // points at real code.
                let list = sites
                    .sites
                    .get(krate.as_str())
                    .and_then(|m| m.get(cat))
                    .map_or(&[][..], Vec::as_slice);
                for (path, line) in list.iter().skip(allowed) {
                    out.push(Finding {
                        path: path.clone(),
                        line: *line,
                        rule: RULE_PANIC_RATCHET,
                        message: format!(
                            "crate `{krate}`: {counted} `{cat}` sites in library code, \
                             baseline allows {allowed}"
                        ),
                        hint: "remove the new panic site (return a Result or use an \
                               invariant-documenting expect); the baseline only ratchets down"
                            .to_owned(),
                        trace: None,
                    });
                }
            } else if counted < allowed {
                out.push(Finding {
                    path: "crates/lint/baseline.json".to_owned(),
                    line: 1,
                    rule: RULE_BASELINE_STALE,
                    message: format!(
                        "crate `{krate}`: baseline allows {allowed} `{cat}` sites but only \
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
}

/// Why a baseline could not be loaded.
#[derive(Debug)]
pub enum LoadError {
    /// The file does not exist.
    Missing,
    /// The file exists but could not be parsed.
    Malformed(String),
}

/// Loads a baseline file.
///
/// # Errors
/// [`LoadError::Missing`] when the file does not exist,
/// [`LoadError::Malformed`] on parse failure.
pub fn load(path: &Path) -> Result<Baseline, LoadError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(LoadError::Missing),
        Err(e) => return Err(LoadError::Malformed(e.to_string())),
    };
    parse(&text).map_err(LoadError::Malformed)
}

/// Serializes `base` deterministically (sorted keys, 2-space indent).
pub fn render(base: &Baseline) -> String {
    let mut out = String::from("{\n");
    for (i, (krate, c)) in base.iter().enumerate() {
        out.push_str(&format!(
            "  \"{krate}\": {{ \"unwrap\": {}, \"expect\": {}, \"panic\": {}, \"index\": {}, \
             \"assert\": {} }}",
            c.unwrap, c.expect, c.panic, c.index, c.assert
        ));
        out.push_str(if i + 1 < base.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

/// Writes `base` to `path`.
///
/// # Errors
/// Propagates filesystem errors as strings.
pub fn store(path: &Path, base: &Baseline) -> Result<(), String> {
    std::fs::write(path, render(base)).map_err(|e| format!("{}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// Minimal JSON-subset parser (objects of objects of integers)
// ---------------------------------------------------------------------------

/// Parses the restricted baseline shape:
/// `{ "crate": { "unwrap": 1, ... }, ... }`.
fn parse(text: &str) -> Result<Baseline, String> {
    let mut p = Parser {
        chars: text.chars().collect(),
        pos: 0,
    };
    let mut out = Baseline::new();
    p.expect_char('{')?;
    if p.peek_skip_ws() == Some('}') {
        p.expect_char('}')?;
        return Ok(out);
    }
    loop {
        let krate = p.string()?;
        p.expect_char(':')?;
        let mut counts = Counts::default();
        p.expect_char('{')?;
        loop {
            let key = p.string()?;
            p.expect_char(':')?;
            let value = p.number()?;
            match key.as_str() {
                "unwrap" => counts.unwrap = value,
                "expect" => counts.expect = value,
                "panic" => counts.panic = value,
                "index" => counts.index = value,
                "assert" => counts.assert = value,
                other => return Err(format!("unknown category {other:?}")),
            }
            if !p.comma_or_close('}')? {
                break;
            }
        }
        out.insert(krate, counts);
        if !p.comma_or_close('}')? {
            break;
        }
    }
    Ok(out)
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn skip_ws(&mut self) {
        while self.chars.get(self.pos).is_some_and(|c| c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek_skip_ws(&mut self) -> Option<char> {
        self.skip_ws();
        self.chars.get(self.pos).copied()
    }

    fn expect_char(&mut self, want: char) -> Result<(), String> {
        self.skip_ws();
        match self.chars.get(self.pos) {
            Some(&c) if c == want => {
                self.pos += 1;
                Ok(())
            }
            other => Err(format!("expected {want:?}, found {other:?}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_char('"')?;
        let mut out = String::new();
        while let Some(&c) = self.chars.get(self.pos) {
            self.pos += 1;
            if c == '"' {
                return Ok(out);
            }
            out.push(c);
        }
        Err("unterminated string".to_owned())
    }

    fn number(&mut self) -> Result<usize, String> {
        self.skip_ws();
        let start = self.pos;
        while self.chars.get(self.pos).is_some_and(char::is_ascii_digit) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err("expected a number".to_owned());
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse()
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }

    /// Consumes `,` (returning `true`) or `close` (returning `false`).
    fn comma_or_close(&mut self, close: char) -> Result<bool, String> {
        self.skip_ws();
        match self.chars.get(self.pos) {
            Some(',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(&c) if c == close => {
                self.pos += 1;
                Ok(false)
            }
            other => Err(format!("expected ',' or {close:?}, found {other:?}")),
        }
    }
}
