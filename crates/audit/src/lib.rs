//! Workspace lint pass for the AON reproduction.
//!
//! `cargo run -p aon-audit` walks the workspace sources and enforces five
//! rules that `rustc`/`clippy` either cannot express precisely or that we
//! want enforced with our own scoping:
//!
//! 1. **casts** — no raw `as` numeric casts in counter/metric arithmetic
//!    (the files listed in [`CAST_ENFORCED_FILES`]). Counter math must use
//!    `From`/`try_from` or a checked helper so a 32-bit truncation can
//!    never silently corrupt a paper table. Elsewhere `as` is merely
//!    counted and reported as information.
//! 2. **unwrap** — no `.unwrap()` / `panic!` outside `#[cfg(test)]` mods,
//!    `tests/` directories and benches. Library and binary code must
//!    propagate or `expect` with context.
//! 3. **lint-gate** — every workspace crate opts into the shared lint
//!    table (`[lints] workspace = true`, with the workspace defining
//!    `unsafe_code = "forbid"` and `missing_docs = "warn"`), or carries
//!    the equivalent `#![forbid(unsafe_code)]` + `#![warn(missing_docs)]`
//!    attributes in its crate root.
//! 4. **docs** — every `pub` item in the metric-definition files
//!    ([`DOC_ENFORCED_FILES`]) has a doc comment, including struct fields:
//!    these names become column headers in reproduced paper tables.
//!
//! An entry of either list that names no scanned file is itself a finding
//! (**stale-list**): renaming a listed file must not drop its rule quietly.
//! 5. **site-id** — every simulated branch site (`site!(0x…)`,
//!    `br!(p, 0x…, c)`) names its id as a literal, no two sites share one,
//!    and the traced crates never read `file!()`/`line!()`/`column!()`:
//!    see [`sites`].
//!
//! On top of these, the [`concurrency`] module adds three passes over the
//! same scrubbed source (backed by the [`lex`] tokenizer): a **sync-role
//! registry** (every `Atomic*`/`Mutex`/`Condvar`/... declaration carries
//! an `audit:role(...)` marker), **atomics-discipline** (per-role allowed
//! `Ordering`s, with `SeqCst` flagged on hot-path files), and
//! **lock-discipline** (no guard held across blocking I/O in the serving
//! crates). See the module docs for the role taxonomy and marker syntax.
//!
//! The total number of waiver lines in the workspace is pinned by a
//! budget file ([`WAIVER_BUDGET_FILE`]): the CLI fails when the actual
//! count differs from the budget in either direction, so adding *or*
//! retiring a waiver forces a visible budget bump in the same diff.
//!
//! A violation can be waived with a marker comment on the same line or on
//! the line directly above:
//!
//! ```text
//! let x = ticks as f64; // audit:allow(cast): bounded by BATCH above
//! ```
//!
//! The marker names the rule (`cast`, `unwrap`, `panic`) and should carry
//! a justification after the colon. Waivers are counted and listed in the
//! summary so they stay visible; markers inside string literals waive
//! nothing.

pub mod concurrency;
pub mod lex;
pub mod sites;

use std::fmt;
use std::path::{Path, PathBuf};

/// Files where rule 1 (no raw `as` casts) is enforced rather than
/// informational: all counter/metric arithmetic lives here.
pub const CAST_ENFORCED_FILES: &[&str] = &[
    "crates/bench/src/perf.rs",
    "crates/core/src/metrics.rs",
    "crates/core/src/report.rs",
    "crates/hw/src/counters.rs",
    "crates/obs/src/metric.rs",
    "crates/obs/src/profiler.rs",
    "crates/obs/src/record.rs",
    "crates/obs/src/registry.rs",
    "crates/obs/src/reqtrace.rs",
    "crates/obs/src/scrape.rs",
    "crates/obs/src/stage.rs",
    "crates/serve/src/loadgen.rs",
    "crates/serve/src/obs.rs",
    "crates/serve/src/server.rs",
    "crates/sim/src/counters.rs",
    "crates/sim/src/stats.rs",
    "crates/xml/src/events.rs",
    "crates/xml/src/scan.rs",
    "crates/xml/src/schema/automaton.rs",
    "crates/xml/src/xpath/compile.rs",
];

/// Files where rule 4 (doc comment on every `pub` item) is enforced.
pub const DOC_ENFORCED_FILES: &[&str] = &[
    "crates/core/src/metrics.rs",
    "crates/hw/src/counters.rs",
    "crates/obs/src/metric.rs",
    "crates/obs/src/reqtrace.rs",
    "crates/sim/src/counters.rs",
    "crates/xml/src/events.rs",
    "crates/xml/src/scan.rs",
    "crates/xml/src/schema/automaton.rs",
    "crates/xml/src/xpath/compile.rs",
];

/// The file that declares [`CAST_ENFORCED_FILES`] and
/// [`DOC_ENFORCED_FILES`]; a `stale-list` finding points into it.
const LISTS_FILE: &str = "crates/audit/src/lib.rs";

/// Directory names under which rule 2 (unwrap/panic) is not enforced, in
/// any position of the path (integration tests and bench targets).
const UNWRAP_EXEMPT_DIRS: &[&str] = &["tests", "benches"];

/// True if rule 2 skips this workspace-relative path entirely.
fn unwrap_exempt(rel_path: &str) -> bool {
    rel_path.split('/').any(|seg| UNWRAP_EXEMPT_DIRS.contains(&seg))
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Short rule name (`casts`, `unwrap`, `lint-gate`, `docs`, `site-id`, …).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    /// `file:line: rule: message` — the shape editors and CI understand.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file.display(), self.line, self.rule, self.message)
    }
}

/// Source text with comments/strings blanked out and test-module spans
/// marked, so the rules can pattern-match without false positives.
#[derive(Debug)]
pub struct Scrubbed {
    /// Code-only text per line (same line count as the input; string and
    /// comment interiors replaced by spaces).
    pub lines: Vec<String>,
    /// Comment-only text per line (for waiver-marker lookup; string
    /// interiors are blanked here too, so a marker quoted in a string
    /// never registers).
    pub comments: Vec<String>,
    /// `true` for lines inside a `#[cfg(test)]` module.
    pub in_test: Vec<bool>,
}

/// Blank out comments and string/char literals, then mark `#[cfg(test)]`
/// module spans by brace tracking.
pub fn scrub(source: &str) -> Scrubbed {
    let (code, cmt) = blank_non_code(source);
    let lines: Vec<String> = code.lines().map(str::to_string).collect();
    let comments: Vec<String> = cmt.lines().map(str::to_string).collect();
    let in_test = mark_test_spans(&lines);
    Scrubbed { lines, comments, in_test }
}

/// Character classification for [`blank_non_code`]'s output channels.
#[derive(Clone, Copy, PartialEq)]
enum Chan {
    /// Live code: kept in the code view, blanked in the comment view.
    Code,
    /// Comment interior: kept in the comment view, blanked in the code view.
    Comment,
    /// String/char literal interior: blanked in both views.
    Literal,
}

/// Split the source into a code view and a comment view with identical
/// line structure: each character lands verbatim in its own channel and as
/// a space in the other; literal interiors are spaces in both. Handles
/// `//`, nested `/* */`, `"…"` with escapes, raw strings `r"…"`/`r#"…"#`,
/// and char literals (while leaving lifetimes like `'a` alone).
fn blank_non_code(source: &str) -> (String, String) {
    let b: Vec<char> = source.chars().collect();
    let mut code = String::with_capacity(source.len());
    let mut cmt = String::with_capacity(source.len());
    let mut push = |c: char, chan: Chan| {
        if c == '\n' {
            code.push('\n');
            cmt.push('\n');
        } else {
            code.push(if chan == Chan::Code { c } else { ' ' });
            cmt.push(if chan == Chan::Comment { c } else { ' ' });
        }
    };
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        match c {
            '/' if b.get(i + 1) == Some(&'/') => {
                while i < b.len() && b[i] != '\n' {
                    push(b[i], Chan::Comment);
                    i += 1;
                }
            }
            '/' if b.get(i + 1) == Some(&'*') => {
                let mut depth = 1;
                push('/', Chan::Comment);
                push('*', Chan::Comment);
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        depth += 1;
                        push('/', Chan::Comment);
                        push('*', Chan::Comment);
                        i += 2;
                    } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        push('*', Chan::Comment);
                        push('/', Chan::Comment);
                        i += 2;
                    } else {
                        push(b[i], Chan::Comment);
                        i += 1;
                    }
                }
            }
            '"' => {
                push('"', Chan::Code);
                i += 1;
                while i < b.len() {
                    if b[i] == '\\' {
                        push(' ', Chan::Literal);
                        if let Some(&next) = b.get(i + 1) {
                            push(next, Chan::Literal);
                        }
                        i += 2;
                    } else if b[i] == '"' {
                        push('"', Chan::Code);
                        i += 1;
                        break;
                    } else {
                        push(b[i], Chan::Literal);
                        i += 1;
                    }
                }
            }
            'r' if matches!(b.get(i + 1), Some(&'"') | Some(&'#')) => {
                // Raw string: r"…" or r#"…"# (any number of #).
                let mut hashes = 0;
                let mut j = i + 1;
                while b.get(j) == Some(&'#') {
                    hashes += 1;
                    j += 1;
                }
                if b.get(j) == Some(&'"') {
                    for _ in i..=j {
                        push(' ', Chan::Literal);
                    }
                    i = j + 1;
                    // Scan for `"` followed by `hashes` #s.
                    'raw: while i < b.len() {
                        if b[i] == '"' {
                            let mut k = i + 1;
                            let mut seen = 0;
                            while seen < hashes && b.get(k) == Some(&'#') {
                                seen += 1;
                                k += 1;
                            }
                            if seen == hashes {
                                for _ in i..k {
                                    push(' ', Chan::Literal);
                                }
                                i = k;
                                break 'raw;
                            }
                        }
                        push(b[i], Chan::Literal);
                        i += 1;
                    }
                } else {
                    push('r', Chan::Code);
                    i += 1;
                }
            }
            '\'' => {
                // Char literal vs lifetime: a literal closes within a few
                // chars (`'x'`, `'\n'`, `'\u{1F600}'`); a lifetime never
                // has a closing quote before a non-ident char.
                let close = (i + 1..b.len().min(i + 12)).find(|&j| b[j] == '\'');
                let is_literal = match close {
                    Some(j) if j == i + 1 => false, // `''` can't be a char
                    Some(j) => b[i + 1] == '\\' || j == i + 2,
                    None => false,
                };
                if let (true, Some(j)) = (is_literal, close) {
                    for _ in i..=j {
                        push(' ', Chan::Literal);
                    }
                    i = j + 1;
                } else {
                    push('\'', Chan::Code);
                    i += 1;
                }
            }
            _ => {
                push(c, Chan::Code);
                i += 1;
            }
        }
    }
    (code, cmt)
}

/// Mark the line span of every `#[cfg(test)] mod … { … }` block.
fn mark_test_spans(code_lines: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code_lines.len()];
    let mut i = 0;
    while i < code_lines.len() {
        if code_lines[i].trim_start().starts_with("#[cfg(test)]") {
            // Find the opening brace of the item that follows, then the
            // matching close, counting braces across lines.
            let mut depth: i64 = 0;
            let mut opened = false;
            let mut j = i;
            while j < code_lines.len() {
                in_test[j] = true;
                for ch in code_lines[j].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    in_test
}

/// True if the line's comment text carries an `audit:allow(<rule>)`
/// waiver marker. Only comment text is consulted, so a marker quoted in a
/// string literal (e.g. this tool's own diagnostic messages) waives
/// nothing.
pub fn has_waiver(comment_line: &str, rule: &str) -> bool {
    if !is_waiver_comment(comment_line) {
        return false;
    }
    comment_line.find("audit:allow(").is_some_and(|at| {
        comment_line[at + "audit:allow(".len()..].starts_with(&format!("{rule})"))
    })
}

/// A waiver must sit in a plain `//` comment: doc comments (`///`, `//!`)
/// and block comments merely *describe* the syntax and waive nothing.
fn is_waiver_comment(comment_line: &str) -> bool {
    let t = comment_line.trim_start();
    t.starts_with("//") && !t.starts_with("///") && !t.starts_with("//!")
}

/// The rule name inside an `audit:allow(<rule>)` marker, if the line
/// carries one that [`is_waiver_comment`] accepts.
pub fn waiver_rule(comment_line: &str) -> Option<String> {
    if !is_waiver_comment(comment_line) {
        return None;
    }
    let at = comment_line.find("audit:allow(")?;
    let rest = &comment_line[at + "audit:allow(".len()..];
    let close = rest.find(')')?;
    Some(rest[..close].trim().to_string())
}

/// A violation on line `idx` is waived by a marker on the same line or on
/// the line immediately above it.
fn line_waived(s: &Scrubbed, idx: usize, rule: &str) -> bool {
    has_waiver(&s.comments[idx], rule) || (idx > 0 && has_waiver(&s.comments[idx - 1], rule))
}

const NUMERIC_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Count raw `as <numeric>` casts on one scrubbed line, by token pair so
/// identifiers merely containing `as` never match.
fn casts_on_line(code: &str) -> usize {
    let toks = lex::line_tokens(code);
    toks.windows(2).filter(|w| w[0].is("as") && NUMERIC_TYPES.contains(&w[1].text.as_str())).count()
}

/// Rule 1: raw numeric `as` casts in an enforced file (non-test lines,
/// minus waived ones).
pub fn check_casts(rel_path: &Path, s: &Scrubbed) -> Vec<Finding> {
    let mut out = Vec::new();
    for (idx, code) in s.lines.iter().enumerate() {
        if s.in_test[idx] || casts_on_line(code) == 0 {
            continue;
        }
        if line_waived(s, idx, "cast") {
            continue;
        }
        out.push(Finding {
            file: rel_path.to_path_buf(),
            line: idx + 1,
            rule: "casts",
            message: "raw `as` numeric cast in counter/metric arithmetic; use \
                      From/try_from or a checked helper (or waive with \
                      `// audit:allow(cast): reason`)"
                .to_string(),
        });
    }
    out
}

/// Count raw casts on non-test lines (informational, for files where rule
/// 1 is not enforced).
pub fn count_casts(s: &Scrubbed) -> usize {
    s.lines.iter().enumerate().filter(|(i, _)| !s.in_test[*i]).map(|(_, l)| casts_on_line(l)).sum()
}

/// Rule 2: `.unwrap()` / `panic!` outside tests and exempt paths.
pub fn check_unwrap_panic(rel_path: &Path, s: &Scrubbed) -> Vec<Finding> {
    let p = rel_path.to_string_lossy().replace('\\', "/");
    if unwrap_exempt(&p) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, code) in s.lines.iter().enumerate() {
        if s.in_test[idx] {
            continue;
        }
        for (needle, rule_name) in [(".unwrap()", "unwrap"), ("panic!", "panic")] {
            if code.contains(needle) && !line_waived(s, idx, rule_name) {
                out.push(Finding {
                    file: rel_path.to_path_buf(),
                    line: idx + 1,
                    rule: "unwrap",
                    message: format!(
                        "`{needle}` outside tests; propagate the error or use \
                         `expect` with context (or waive with \
                         `// audit:allow({rule_name}): reason`)"
                    ),
                });
            }
        }
    }
    out
}

/// Crates exempt from the `unsafe_code = "forbid"` half of the lint
/// gate: the audited unsafe islands (raw syscall bindings live in
/// `aon-hw` and nowhere else). Exemption is not a free pass — the
/// island's manifest must still replicate the rest of the workspace
/// lint table (checked: `missing_docs = "warn"`), and its sources stay
/// on the cast/doc enforcement lists above.
pub const UNSAFE_ISLAND_MANIFESTS: &[&str] = &["crates/hw/Cargo.toml"];

/// Rule 3: the crate opts into the workspace lint gate. Accepts a
/// manifest `[lints] workspace = true` (with the workspace table defining
/// `unsafe_code = "forbid"` and `missing_docs = "warn"`), the equivalent
/// crate-root attributes, or — for [`UNSAFE_ISLAND_MANIFESTS`] only — a
/// crate-local lint table that keeps `missing_docs = "warn"` while
/// permitting the audited `unsafe`.
pub fn check_lint_gate(
    rel_manifest: &Path,
    manifest: &str,
    root_source: &str,
    workspace_defines_gate: bool,
) -> Vec<Finding> {
    let inherits = manifest_inherits_workspace_lints(manifest);
    let has_attrs = root_source.contains("#![forbid(unsafe_code)]")
        && root_source.contains("#![warn(missing_docs)]");
    let island = UNSAFE_ISLAND_MANIFESTS.iter().any(|m| Path::new(m) == rel_manifest)
        && manifest.replace(' ', "").contains("missing_docs=\"warn\"");
    if (inherits && workspace_defines_gate) || has_attrs || island {
        return Vec::new();
    }
    vec![Finding {
        file: rel_manifest.to_path_buf(),
        line: 1,
        rule: "lint-gate",
        message: "crate neither inherits `[lints] workspace = true` (with the \
                  workspace table forbidding unsafe_code and warning on \
                  missing_docs) nor carries `#![forbid(unsafe_code)]` + \
                  `#![warn(missing_docs)]` in its crate root"
            .to_string(),
    }]
}

/// True if the manifest contains `[lints]` followed by `workspace = true`.
fn manifest_inherits_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_lints = t == "[lints]";
        } else if in_lints && t.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

/// True if the workspace manifest defines the required lint levels.
pub fn workspace_defines_gate(root_manifest: &str) -> bool {
    let mut section = String::new();
    let mut forbid_unsafe = false;
    let mut warn_docs = false;
    for line in root_manifest.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            section = t.to_string();
        } else if section == "[workspace.lints.rust]" {
            let t = t.replace(' ', "");
            if t == "unsafe_code=\"forbid\"" {
                forbid_unsafe = true;
            }
            if t == "missing_docs=\"warn\"" || t == "missing_docs=\"deny\"" {
                warn_docs = true;
            }
        }
    }
    forbid_unsafe && warn_docs
}

/// Rule 4: every `pub` item carries a doc comment. Checked against the
/// raw source (doc comments are comments, so the scrubbed text is blind
/// to them); `pub(crate)`/`pub(super)` items and `pub use` re-exports are
/// not public API and are skipped.
pub fn check_doc_comments(rel_path: &Path, source: &str) -> Vec<Finding> {
    let scrubbed = scrub(source);
    let raw: Vec<&str> = source.lines().collect();
    let mut out = Vec::new();
    for (idx, line) in raw.iter().enumerate() {
        if scrubbed.in_test[idx] {
            continue;
        }
        let t = line.trim_start();
        let is_pub_item = t.starts_with("pub ")
            && !t.starts_with("pub use ")
            && scrubbed.lines[idx].trim_start().starts_with("pub ");
        if !is_pub_item {
            continue;
        }
        // Walk back over attributes and plain `//` comments (e.g. an
        // `audit:role` marker) to the line that should document it.
        let mut j = idx;
        let mut documented = false;
        while j > 0 {
            j -= 1;
            let prev = raw[j].trim_start();
            if prev.starts_with("#[")
                || prev.starts_with("#![")
                || (prev.starts_with("//") && !prev.starts_with("///") && !prev.starts_with("//!"))
            {
                continue;
            }
            documented = prev.starts_with("///") || prev.starts_with("#[doc");
            break;
        }
        if !documented {
            let name = t
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .filter(|w| !w.is_empty())
                .find(|w| {
                    ![
                        "pub", "fn", "struct", "enum", "const", "static", "type", "trait", "mod",
                        "unsafe", "async",
                    ]
                    .contains(w)
                })
                .unwrap_or("<item>");
            out.push(Finding {
                file: rel_path.to_path_buf(),
                line: idx + 1,
                rule: "docs",
                message: format!("public item `{name}` has no doc comment"),
            });
        }
    }
    out
}

/// `stale-list`: every entry of `list` (named `list_name`) that is not
/// among the scanned `files`. A finding sits at the entry's line in
/// `lists_source`, the text of [`LISTS_FILE`] (line 1 if not found there).
pub fn check_stale_entries(
    files: &[PathBuf],
    list_name: &str,
    list: &[&str],
    lists_source: &str,
) -> Vec<Finding> {
    list.iter()
        .filter(|entry| !files.iter().any(|f| f.to_string_lossy().replace('\\', "/") == **entry))
        .map(|entry| Finding {
            file: PathBuf::from(LISTS_FILE),
            line: lists_source
                .lines()
                .position(|l| l.contains(&format!("\"{entry}\"")))
                .map_or(1, |i| i + 1),
            rule: "stale-list",
            message: format!(
                "{list_name} names `{entry}`, which does not exist: its rule is enforced \
                 nowhere; point the entry at the file's new path or remove it"
            ),
        })
        .collect()
}

/// One `audit:allow(...)` marker line found in the workspace.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Waiver {
    /// Workspace-relative path.
    pub file: PathBuf,
    /// 1-based line number of the marker.
    pub line: usize,
    /// The rule name inside the marker's parentheses.
    pub rule: String,
}

/// Full report from one audit run.
#[derive(Debug, Default)]
pub struct Report {
    /// All violations found, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Raw `as` casts seen in files where rule 1 is informational only.
    pub informational_casts: usize,
    /// Every `audit:allow(...)` marker line, sorted by (file, line).
    pub waivers: Vec<Waiver>,
    /// Every sync-primitive declaration the role registry inventoried,
    /// sorted by (file, line).
    pub sync_sites: Vec<concurrency::SyncSite>,
    /// Simulated branch sites found (each with a literal id of its own
    /// when there are no `site-id` findings).
    pub site_ids: usize,
    /// Rust files scanned.
    pub files_scanned: usize,
}

/// The workspace-relative path of the waiver-count budget file. The file
/// holds the exact number of waiver lines the workspace is allowed to
/// carry; any waiver added or removed must bump it in the same diff, so
/// waiver churn is always visible in review.
pub const WAIVER_BUDGET_FILE: &str = "crates/audit/waiver-budget.txt";

/// Read the waiver budget: the first non-comment, non-blank line of
/// [`WAIVER_BUDGET_FILE`], parsed as a count.
pub fn waiver_budget(root: &Path) -> Result<usize, String> {
    let path = root.join(WAIVER_BUDGET_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {WAIVER_BUDGET_FILE}: {e}"))?;
    text.lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .ok_or_else(|| format!("{WAIVER_BUDGET_FILE} contains no budget line"))?
        .parse()
        .map_err(|e| format!("{WAIVER_BUDGET_FILE}: bad budget count: {e}"))
}

/// Walk the workspace at `root` and apply every rule.
pub fn audit_workspace(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut site_uses = Vec::new();
    let root_manifest = std::fs::read_to_string(root.join("Cargo.toml"))?;
    let gate_defined = workspace_defines_gate(&root_manifest);

    let mut rust_files = Vec::new();
    collect_rust_files(root, root, &mut rust_files)?;
    rust_files.sort();

    for rel in &rust_files {
        let source = std::fs::read_to_string(root.join(rel))?;
        let s = scrub(&source);
        report.files_scanned += 1;
        for (idx, cmt) in s.comments.iter().enumerate() {
            if let Some(rule) = waiver_rule(cmt) {
                report.waivers.push(Waiver { file: rel.clone(), line: idx + 1, rule });
            }
        }
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if CAST_ENFORCED_FILES.contains(&rel_str.as_str()) {
            report.findings.extend(check_casts(rel, &s));
        } else {
            report.informational_casts += count_casts(&s);
        }
        report.findings.extend(check_unwrap_panic(rel, &s));
        if DOC_ENFORCED_FILES.contains(&rel_str.as_str()) {
            report.findings.extend(check_doc_comments(rel, &source));
        }
        if concurrency::concurrency_enforced(&rel_str) {
            let (uses, site_findings) = sites::check_site_ids(rel, &s);
            site_uses.extend(uses);
            report.findings.extend(site_findings);
            let spans = lex::FileSpans::new(&s.lines);
            let (sites, role_findings) = concurrency::check_sync_roles(rel, &s, &spans);
            report.findings.extend(role_findings);
            report.findings.extend(concurrency::check_atomics_discipline(rel, &s, &spans, &sites));
            if concurrency::LOCK_ENFORCED_PREFIXES.iter().any(|p| rel_str.starts_with(p)) {
                report.findings.extend(concurrency::check_lock_discipline(rel, &s));
            }
            report.sync_sites.extend(sites);
        }
    }

    report.findings.extend(sites::check_unique(&site_uses));
    let lists_source = std::fs::read_to_string(root.join(LISTS_FILE)).unwrap_or_default();
    for (name, list) in
        [("CAST_ENFORCED_FILES", CAST_ENFORCED_FILES), ("DOC_ENFORCED_FILES", DOC_ENFORCED_FILES)]
    {
        report.findings.extend(check_stale_entries(&rust_files, name, list, &lists_source));
    }
    report.site_ids = site_uses.len();

    // Rule 3 over every crate manifest (workspace members only).
    let mut manifests = vec![PathBuf::from("Cargo.toml")];
    for dir in ["crates", "third_party"] {
        let Ok(entries) = std::fs::read_dir(root.join(dir)) else { continue };
        for e in entries.flatten() {
            let m = e.path().join("Cargo.toml");
            if m.is_file() {
                manifests.push(m.strip_prefix(root).unwrap_or(&m).to_path_buf());
            }
        }
    }
    manifests.sort();
    for rel in manifests {
        let manifest = std::fs::read_to_string(root.join(&rel))?;
        let crate_dir = rel.parent().unwrap_or(Path::new(""));
        let mut root_source = String::new();
        for candidate in ["src/lib.rs", "src/main.rs"] {
            let p = root.join(crate_dir).join(candidate);
            if let Ok(text) = std::fs::read_to_string(p) {
                root_source.push_str(&text);
            }
        }
        report.findings.extend(check_lint_gate(&rel, &manifest, &root_source, gate_defined));
    }

    // Deterministic output regardless of directory-walk order.
    report.findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report.waivers.sort();
    report.sync_sites.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));

    Ok(report)
}

/// True if `dir` is the root of another cargo workspace (its manifest has
/// a `[workspace]` table): a package of its own, like `benchmark/`, that
/// this workspace's lints, manifests and CI never see.
fn is_nested_workspace(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|m| m.lines().any(|l| l.trim() == "[workspace]"))
}

/// Recursively gather workspace-relative `.rs` paths, skipping `target`,
/// VCS metadata and nested workspaces.
fn collect_rust_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') || is_nested_workspace(&path) {
                continue;
            }
            collect_rust_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(rule: &str, src: &str, path: &str) -> Vec<Finding> {
        let s = scrub(src);
        let rel = Path::new(path);
        match rule {
            "casts" => check_casts(rel, &s),
            "unwrap" => check_unwrap_panic(rel, &s),
            "docs" => check_doc_comments(rel, src),
            "site-id" => sites::check_site_ids(rel, &s).1,
            _ => unreachable!(),
        }
    }

    #[test]
    fn cast_rule_flags_raw_numeric_casts_with_line_numbers() {
        let src = "fn f(x: u64) -> f64 {\n    let y = x as f64;\n    y\n}\n";
        let got = findings("casts", src, "crates/sim/src/counters.rs");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].line, 2);
        assert_eq!(got[0].rule, "casts");
    }

    #[test]
    fn cast_rule_honours_waiver_and_skips_tests_and_strings() {
        let src = "fn f(x: u64) -> f64 {\n    x as f64 // audit:allow(cast): exact below 2^53\n}\nfn g() -> &'static str {\n    \"x as f64\"\n}\n#[cfg(test)]\nmod tests {\n    fn h(x: u64) -> f64 { x as f64 }\n}\n";
        assert!(findings("casts", src, "crates/sim/src/counters.rs").is_empty());
    }

    #[test]
    fn cast_rule_ignores_non_numeric_as() {
        let src = "use std::fmt as formatting;\nfn f(x: &dyn std::any::Any) { let _ = x as &dyn std::any::Any; }\n";
        assert!(findings("casts", src, "crates/sim/src/counters.rs").is_empty());
    }

    #[test]
    fn unwrap_rule_flags_unwrap_and_panic_outside_tests() {
        let src =
            "fn f() {\n    let v: Option<u8> = None;\n    v.unwrap();\n    panic!(\"boom\");\n}\n";
        let got = findings("unwrap", src, "crates/sim/src/machine.rs");
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].line, got[1].line), (3, 4));
    }

    #[test]
    fn unwrap_rule_exempts_tests_benches_and_waivers() {
        let src = "fn f(v: Option<u8>) {\n    v.unwrap(); // audit:allow(unwrap): checked above\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        assert!(findings("unwrap", src, "crates/sim/src/machine.rs").is_empty());
        let bin = "fn main() { std::fs::read(\"x\").unwrap(); }\n";
        assert!(findings("unwrap", bin, "crates/bench/benches/sim_micro.rs").is_empty());
        assert!(findings("unwrap", bin, "crates/sim/tests/interleave.rs").is_empty());
        assert_eq!(findings("unwrap", bin, "crates/bench/src/main.rs").len(), 1);
    }

    #[test]
    fn unwrap_rule_ignores_comments_and_strings() {
        let src = "fn f() {\n    // never panic! here, and .unwrap() is banned\n    let s = \"panic!\";\n    let _ = s;\n}\n";
        assert!(findings("unwrap", src, "crates/sim/src/machine.rs").is_empty());
    }

    #[test]
    fn docs_rule_requires_doc_comments_on_pub_items_and_fields() {
        let src = "/// Documented.\npub struct Counters {\n    /// Ticks.\n    pub ticks: u64,\n    pub misses: u64,\n}\n\npub fn undoc() {}\n";
        let got = findings("docs", src, "crates/sim/src/counters.rs");
        let lines: Vec<usize> = got.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![5, 8]);
        assert!(got[0].message.contains("misses"));
        assert!(got[1].message.contains("undoc"));
    }

    #[test]
    fn docs_rule_accepts_attributes_between_doc_and_item() {
        let src = "/// Documented.\n#[derive(Debug, Clone)]\npub struct S;\n\npub use std::fmt;\npub(crate) fn internal() {}\n";
        assert!(findings("docs", src, "crates/core/src/metrics.rs").is_empty());
    }

    #[test]
    fn a_list_entry_naming_no_file_is_a_stale_list_finding() {
        let files = [PathBuf::from("crates/obs/src/metric.rs")];
        let list = ["crates/obs/src/metric.rs", "crates/serve/src/metrics.rs"];
        let source = "const L: &[&str] = &[\n    \"crates/obs/src/metric.rs\",\n    \
                      \"crates/serve/src/metrics.rs\",\n];\n";
        let got = check_stale_entries(&files, "CAST_ENFORCED_FILES", &list, source);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].to_string().split(": ").next(), Some("crates/audit/src/lib.rs:3"));
        assert_eq!(got[0].rule, "stale-list");
        assert!(got[0].message.contains("CAST_ENFORCED_FILES names `crates/serve/src/metrics.rs`"));
        assert!(check_stale_entries(&files, "L", &list[..1], source).is_empty());
    }

    #[test]
    fn site_rule_requires_a_literal_id() {
        let src = "fn f<P: Probe>(p: &mut P, b: u8) {\n    p.jump(site!());\n    p.jump(site!(next_id()));\n    if br!(p, b == 0) {}\n    if br!(p, 0x0000_0001, g(b, 1)) {}\n    p.jump(site!(0x0000_0002));\n}\n";
        let got = findings("site-id", src, "crates/xml/src/lexer.rs");
        let lines: Vec<usize> = got.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3, 4], "{got:?}");
        assert!(got.iter().all(|f| f.rule == "site-id"));
        // The macros' own definitions forward a metavariable, not an id.
        let def = "macro_rules! br {\n    ($p:expr, $id:literal, $c:expr) => {\n        $crate::site!($id)\n    };\n}\n";
        assert!(findings("site-id", def, "crates/trace/src/code.rs").is_empty());
    }

    #[test]
    fn site_rule_flags_a_duplicate_id_with_both_places() {
        let a = "fn f<P: Probe>(p: &mut P) {\n    p.jump(site!(0xdead_beef));\n}\n";
        let b = "fn g<P: Probe>(p: &mut P, c: bool) {\n\n    if br!(p, 0xdead_beef, c) {}\n    p.jump(site!(0x0000_0007));\n}\n";
        let (mut uses, first) = sites::check_site_ids(Path::new("crates/xml/src/a.rs"), &scrub(a));
        let (more, second) = sites::check_site_ids(Path::new("crates/net/src/b.rs"), &scrub(b));
        assert!(first.is_empty() && second.is_empty());
        uses.extend(more);
        assert_eq!(uses.len(), 3);
        let got = sites::check_unique(&uses);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].to_string().split(": ").next(), Some("crates/xml/src/a.rs:2"));
        assert!(got[0].message.contains("0xdeadbeef"));
        assert!(got[0].message.contains("crates/net/src/b.rs:3"));
    }

    #[test]
    fn site_rule_bans_position_macros_in_traced_crates_outside_tests() {
        let src = "fn f() -> u32 {\n    line!()\n}\n#[cfg(test)]\nmod tests {\n    fn t() -> (u32, &'static str) { (line!(), file!()) }\n}\n";
        let got = findings("site-id", src, "crates/net/src/tcpcost.rs");
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].line, 2);
        assert!(got[0].message.contains("line!()"));
        // Only the crates that record the simulated program are held to it.
        assert!(findings("site-id", src, "crates/obs/src/registry.rs").is_empty());
    }

    #[test]
    fn lint_gate_accepts_workspace_inheritance_or_root_attributes() {
        let inherit = "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n";
        let bare = "[package]\nname = \"x\"\n";
        let attrs = "#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n";
        let rel = Path::new("crates/x/Cargo.toml");
        assert!(check_lint_gate(rel, inherit, "", true).is_empty());
        assert!(check_lint_gate(rel, bare, attrs, true).is_empty());
        assert_eq!(check_lint_gate(rel, inherit, "", false).len(), 1);
        assert_eq!(check_lint_gate(rel, bare, "", true).len(), 1);
    }

    #[test]
    fn lint_gate_exempts_only_the_listed_unsafe_island_with_its_own_docs_lint() {
        let island_manifest =
            "[package]\nname = \"aon-hw\"\n\n[lints.rust]\nmissing_docs = \"warn\"\n";
        let island = Path::new("crates/hw/Cargo.toml");
        assert!(check_lint_gate(island, island_manifest, "", true).is_empty());
        // The same manifest in any other crate is still a violation...
        assert_eq!(
            check_lint_gate(Path::new("crates/x/Cargo.toml"), island_manifest, "", true).len(),
            1
        );
        // ...and the island without its docs lint is too.
        assert_eq!(check_lint_gate(island, "[package]\nname = \"aon-hw\"\n", "", true).len(), 1);
    }

    #[test]
    fn workspace_gate_detection_reads_lint_tables() {
        let good = "[workspace.lints.rust]\nunsafe_code = \"forbid\"\nmissing_docs = \"warn\"\n";
        let bad = "[workspace.lints.rust]\nunsafe_code = \"warn\"\n";
        assert!(workspace_defines_gate(good));
        assert!(!workspace_defines_gate(bad));
    }

    #[test]
    fn scrubber_handles_raw_strings_and_char_literals() {
        let src = "fn f() {\n    let r = r#\"x.unwrap() as f64\"#;\n    let c = 'a';\n    let l: &'static str = \"ok\";\n    let _ = (r, c, l);\n}\n";
        let s = scrub(src);
        assert!(!s.lines.iter().any(|l| l.contains("unwrap")));
        assert!(s.lines[3].contains("'static"), "lifetimes survive scrubbing");
    }

    #[test]
    fn test_span_tracking_covers_nested_braces() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {\n        if true { Some(1).unwrap(); }\n    }\n}\nfn also_live() { Some(1).unwrap(); }\n";
        let s = scrub(src);
        assert!(!s.in_test[0]);
        assert!(s.in_test[4]);
        assert!(!s.in_test[7]);
        let got = check_unwrap_panic(Path::new("crates/x/src/lib.rs"), &s);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].line, 8);
    }

    #[test]
    fn waiver_marker_inside_string_literal_waives_nothing() {
        let src = "fn f(x: u64) -> f64 {\n    let m = \"audit:allow(cast): not a waiver\";\n    let _ = m;\n    x as f64\n}\n";
        let got = findings("casts", src, "crates/sim/src/counters.rs");
        assert_eq!(got.len(), 1, "string-embedded marker must not waive");
        let s = scrub(src);
        assert!(!has_waiver(&s.comments[1], "cast"));
    }

    #[test]
    fn findings_render_as_file_line_rule_message() {
        let f = Finding {
            file: PathBuf::from("crates/sim/src/counters.rs"),
            line: 42,
            rule: "casts",
            message: "raw cast".to_string(),
        };
        assert_eq!(f.to_string(), "crates/sim/src/counters.rs:42: casts: raw cast");
    }

    #[test]
    fn walk_skips_nested_workspaces_but_not_member_crates() {
        let root = std::env::temp_dir().join(format!("aon-audit-walk-{}", std::process::id()));
        for (dir, manifest) in [
            ("member", "[package]\nname = \"m\"\n[lints]\nworkspace = true\n"),
            ("nested", "[package]\nname = \"n\"\n\n[workspace]\n"),
        ] {
            std::fs::create_dir_all(root.join(dir).join("src")).unwrap();
            std::fs::write(root.join(dir).join("Cargo.toml"), manifest).unwrap();
            std::fs::write(root.join(dir).join("src/lib.rs"), "").unwrap();
        }
        let mut files = Vec::new();
        let walked = collect_rust_files(&root, &root, &mut files);
        std::fs::remove_dir_all(&root).unwrap();
        walked.unwrap();
        assert_eq!(files, [PathBuf::from("member/src/lib.rs")]);
    }
}
