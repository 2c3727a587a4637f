//! Workspace lint pass for the AON reproduction.
//!
//! `cargo run -p aon-audit` walks the workspace sources and enforces the
//! rules that no `rustc`/`clippy` lint states. What a compiler lint can say
//! lives in the lint tables instead (`[workspace.lints]`, `clippy.toml`,
//! `ci.sh`'s `clippy -D warnings`): `unwrap_used` and `panic` outside tests,
//! `missing_docs`, `allow_attributes_without_reason`, and
//! `#![deny(clippy::as_conversions)]` at the top of every counter/metric
//! file. The rules here:
//!
//! 1. **lint-gate** — every workspace crate inherits the shared lint table
//!    (`[lints] workspace = true`), and that table carries the levels the
//!    rules above depend on ([`RUST_GATE`], [`CLIPPY_GATE`]); the one
//!    unsafe island ([`UNSAFE_ISLAND_MANIFESTS`]) carries its own copy
//!    with `unsafe_code = "deny"` ([`ISLAND_RUST_GATE`]). Deleting a line
//!    of a lint table cannot silently retire a rule.
//! 2. **site-id** — every simulated branch site (`site!(0x…)`,
//!    `br!(p, 0x…, c)`) names its id as a literal, no two sites share one,
//!    and the traced crates never read `file!()`/`line!()`/`column!()`:
//!    see [`sites`].
//! 3. **dead-pub** — no `pub` item in first-party non-test code whose
//!    name the tree (tests, examples, benches and `benchmark/src`
//!    included) mentions only at its declarations: see [`dead_pub`].
//!
//! On top of these, the [`concurrency`] module adds three passes over the
//! same scrubbed source (backed by the [`lex`] tokenizer): a **sync-role
//! registry** (every `Atomic*`/`Mutex`/`Condvar`/... declaration carries
//! an `audit:role(...)` marker), **atomics-discipline** (per-role allowed
//! `Ordering`s, with `SeqCst` flagged on hot-path files), and
//! **lock-discipline** (no guard held across blocking I/O in the serving
//! crates). See the module docs for the role taxonomy and marker syntax.
//!
//! A lint is suppressed with `#[expect(lint, reason = "…")]`, which the
//! compiler fails once it suppresses nothing. One of this tool's own rules
//! (`dead-pub`, `ordering`, `lock`) is waived with a marker comment on the
//! same line or on the line directly above:
//!
//! ```text
//! pub fn entry() {} // audit:allow(dead-pub): called by an outside tool
//! ```
//!
//! Markers inside string literals waive nothing. Every suppression — each
//! `#[allow(`/`#[expect(` lint attribute and each marker — is listed in
//! the summary, and their total is pinned by a budget file
//! ([`WAIVER_BUDGET_FILE`]): the CLI fails when the count differs from the
//! budget in either direction, so adding *or* retiring one forces a
//! visible budget bump in the same diff.

pub mod concurrency;
pub mod dead_pub;
pub mod lex;
pub mod sites;

use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Short rule name (`lint-gate`, `site-id`, `dead-pub`, `atomics`, …).
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
pub(crate) fn line_waived(s: &Scrubbed, idx: usize, rule: &str) -> bool {
    has_waiver(&s.comments[idx], rule) || (idx > 0 && has_waiver(&s.comments[idx - 1], rule))
}

/// The lint attributes that suppress a lint; each one counts against the
/// waiver budget.
const SUPPRESSING_ATTRS: &[&str] = &["#[allow(", "#![allow(", "#[expect(", "#![expect("];

/// Every suppressing lint attribute in one scrubbed file, as `(line,
/// text)` with `text` like `expect(clippy::panic)`: the attribute and its
/// lints, its `reason` left out. The attribute may span lines; string
/// literals are already blank, so a fixture quoting one counts nothing.
pub fn lint_attributes(s: &Scrubbed) -> Vec<(usize, String)> {
    let code = s.lines.join("\n");
    let mut out = Vec::new();
    for attr in SUPPRESSING_ATTRS {
        for (at, _) in code.match_indices(attr) {
            let open = at + attr.len();
            let Some(len) = code[open..].find(')') else { continue };
            let lints: Vec<&str> = code[open..open + len]
                .split(',')
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with("reason"))
                .collect();
            let kind = attr.trim_start_matches(['#', '!', '[']).trim_end_matches('(');
            let line = code[..at].matches('\n').count() + 1;
            out.push((line, format!("{kind}({})", lints.join(", "))));
        }
    }
    out
}

/// Crates exempt from the workspace's `unsafe_code = "forbid"`: the
/// audited unsafe islands (raw syscall bindings live in `aon-hw` and
/// nowhere else). Exemption is not a free pass: the island's own lint
/// tables must carry [`ISLAND_RUST_GATE`] and [`CLIPPY_GATE`].
pub const UNSAFE_ISLAND_MANIFESTS: &[&str] = &["crates/hw/Cargo.toml"];

/// One required lint: its key and the levels that satisfy it.
type Required = (&'static str, &'static [&'static str]);

/// `[workspace.lints.rust]` levels the gate requires.
pub const RUST_GATE: &[Required] =
    &[("unsafe_code", &["forbid"]), ("missing_docs", &["warn", "deny"])];

/// An island's `[lints.rust]`: unsafe stays an error that only a reasoned
/// `#[expect(unsafe_code)]` lifts, one item at a time.
pub const ISLAND_RUST_GATE: &[Required] =
    &[("unsafe_code", &["deny"]), ("missing_docs", &["warn", "deny"])];

/// Clippy levels required of the workspace table and of every island's:
/// the lints that replaced this tool's unwrap/panic rule and that make
/// every suppression carry a reason.
pub const CLIPPY_GATE: &[Required] = &[
    ("unwrap_used", &["warn", "deny"]),
    ("panic", &["warn", "deny"]),
    ("allow_attributes_without_reason", &["warn", "deny"]),
];

/// True if `manifest`'s `[section]` table sets every `required` lint to
/// one of its accepted levels.
fn table_sets(manifest: &str, section: &str, required: &[Required]) -> bool {
    let mut current = "";
    let mut entries = Vec::new();
    for line in manifest.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            current = t;
        } else if current == section {
            entries.push(t.replace([' ', '"'], ""));
        }
    }
    required
        .iter()
        .all(|(key, levels)| levels.iter().any(|l| entries.contains(&format!("{key}={l}"))))
}

/// True if the workspace manifest defines the required lint levels.
pub fn workspace_defines_gate(root_manifest: &str) -> bool {
    table_sets(root_manifest, "[workspace.lints.rust]", RUST_GATE)
        && table_sets(root_manifest, "[workspace.lints.clippy]", CLIPPY_GATE)
}

/// Rule `lint-gate`: the crate inherits `[lints] workspace = true` (with
/// the workspace table defining the gate), or it is one of the
/// [`UNSAFE_ISLAND_MANIFESTS`] and its own tables carry the island gate.
pub fn check_lint_gate(
    rel_manifest: &Path,
    manifest: &str,
    workspace_defines_gate: bool,
) -> Vec<Finding> {
    let clippy = "clippy's unwrap_used, panic and allow_attributes_without_reason";
    let message = if UNSAFE_ISLAND_MANIFESTS.iter().any(|m| Path::new(m) == rel_manifest) {
        if table_sets(manifest, "[lints.rust]", ISLAND_RUST_GATE)
            && table_sets(manifest, "[lints.clippy]", CLIPPY_GATE)
        {
            return Vec::new();
        }
        format!(
            "unsafe island's own tables must deny unsafe_code, warn on missing_docs and \
             set {clippy}"
        )
    } else {
        if table_sets(manifest, "[lints]", &[("workspace", &["true"])]) && workspace_defines_gate {
            return Vec::new();
        }
        format!(
            "crate does not inherit `[lints] workspace = true` from a workspace table that \
             forbids unsafe_code, warns on missing_docs and sets {clippy}"
        )
    };
    vec![Finding { file: rel_manifest.to_path_buf(), line: 1, rule: "lint-gate", message }]
}

/// One suppression found in the workspace: a lint attribute or an
/// `audit:allow(...)` marker.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Waiver {
    /// Workspace-relative path.
    pub file: PathBuf,
    /// 1-based line number of the attribute or marker.
    pub line: usize,
    /// What it suppresses: `expect(clippy::panic)`, `allow(dead_code)`, or
    /// `audit:allow(dead-pub)` for a marker.
    pub what: String,
}

/// Full report from one audit run.
#[derive(Debug, Default)]
pub struct Report {
    /// All violations found, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Every suppression, sorted by (file, line).
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
/// holds the exact number of suppressions (lint attributes plus
/// `audit:allow` markers) the workspace is allowed to carry; any one added
/// or removed must bump it in the same diff, so waiver churn is always
/// visible in review.
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
    // The dead-pub pass: word counts over the tree, files it checks.
    let mut word_counts = std::collections::HashMap::new();
    let mut declaring = Vec::new();

    for rel in &rust_files {
        let source = std::fs::read_to_string(root.join(rel))?;
        let s = scrub(&source);
        report.files_scanned += 1;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        dead_pub::count_words(&rel_str, &source, &s, &mut word_counts);
        for (idx, cmt) in s.comments.iter().enumerate() {
            if let Some(rule) = waiver_rule(cmt) {
                let what = format!("audit:allow({rule})");
                report.waivers.push(Waiver { file: rel.clone(), line: idx + 1, what });
            }
        }
        for (line, what) in lint_attributes(&s) {
            report.waivers.push(Waiver { file: rel.clone(), line, what });
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
        if dead_pub::declares(&rel_str) {
            declaring.push((rel, s));
        }
    }

    let mut text_only = Vec::new();
    collect_rust_files(root, &root.join(dead_pub::TEXT_ONLY_DIR), &mut text_only)?;
    for rel in text_only {
        let source = std::fs::read_to_string(root.join(&rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        dead_pub::count_words(&rel_str, &source, &scrub(&source), &mut word_counts);
    }
    let mut decl_counts = std::collections::HashMap::new();
    for (_, s) in &declaring {
        dead_pub::count_declarations(s, &mut decl_counts);
    }
    for (rel, s) in &declaring {
        report.findings.extend(dead_pub::check_dead_pub(rel, s, &word_counts, &decl_counts));
    }

    report.findings.extend(sites::check_unique(&site_uses));
    report.site_ids = site_uses.len();

    // The lint gate over every crate manifest (workspace members only).
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
        report.findings.extend(check_lint_gate(&rel, &manifest, gate_defined));
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

    fn site_findings(src: &str, path: &str) -> Vec<Finding> {
        sites::check_site_ids(Path::new(path), &scrub(src)).1
    }

    #[test]
    fn site_rule_requires_a_literal_id() {
        let src = "fn f<P: Probe>(p: &mut P, b: u8) {\n    p.jump(site!());\n    p.jump(site!(next_id()));\n    if br!(p, b == 0) {}\n    if br!(p, 0x0000_0001, g(b, 1)) {}\n    p.jump(site!(0x0000_0002));\n}\n";
        let got = site_findings(src, "crates/xml/src/lexer.rs");
        let lines: Vec<usize> = got.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3, 4], "{got:?}");
        assert!(got.iter().all(|f| f.rule == "site-id"));
        // The macros' own definitions forward a metavariable, not an id.
        let def = "macro_rules! br {\n    ($p:expr, $id:literal, $c:expr) => {\n        $crate::site!($id)\n    };\n}\n";
        assert!(site_findings(def, "crates/trace/src/code.rs").is_empty());
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
        let got = site_findings(src, "crates/net/src/tcpcost.rs");
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].line, 2);
        assert!(got[0].message.contains("line!()"));
        // Only the crates that record the simulated program are held to it.
        assert!(site_findings(src, "crates/obs/src/registry.rs").is_empty());
    }

    #[test]
    fn lint_gate_accepts_workspace_inheritance_only() {
        let inherit = "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n";
        let bare = "[package]\nname = \"x\"\n";
        let rel = Path::new("crates/x/Cargo.toml");
        assert!(check_lint_gate(rel, inherit, true).is_empty());
        assert_eq!(check_lint_gate(rel, inherit, false).len(), 1);
        assert_eq!(check_lint_gate(rel, bare, true).len(), 1);
    }

    /// A manifest carrying every line the gate requires, the rust ones
    /// under `rust`, the clippy ones under `clippy`, and the `skip`th line
    /// left out.
    fn lint_tables(rust: &str, clippy: &str, unsafe_level: &str, skip: Option<usize>) -> String {
        let required = [
            (rust, format!("unsafe_code = \"{unsafe_level}\"")),
            (rust, "missing_docs = \"warn\"".into()),
        ]
        .into_iter()
        .chain(CLIPPY_GATE.iter().map(|(k, _)| (clippy, format!("{k} = \"warn\""))));
        let mut out = String::from("[package]\nname = \"x\"\n");
        let mut section = "";
        for (i, (header, line)) in required.enumerate() {
            if header != section {
                out.push_str(&format!("\n{header}\n"));
                section = header;
            }
            if Some(i) != skip {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }

    /// How many lines [`lint_tables`] writes when it skips none.
    const REQUIRED_LINES: usize = 2 + CLIPPY_GATE.len();

    #[test]
    fn lint_gate_exempts_only_the_listed_unsafe_island_with_its_own_table() {
        let island = Path::new("crates/hw/Cargo.toml");
        let full = lint_tables("[lints.rust]", "[lints.clippy]", "deny", None);
        assert!(check_lint_gate(island, &full, true).is_empty(), "{full}");
        // The same manifest in any other crate is still a violation...
        assert_eq!(check_lint_gate(Path::new("crates/x/Cargo.toml"), &full, true).len(), 1);
        // ...and the island missing any one required line is too.
        for skip in 0..REQUIRED_LINES {
            let short = lint_tables("[lints.rust]", "[lints.clippy]", "deny", Some(skip));
            assert_eq!(check_lint_gate(island, &short, true).len(), 1, "{short}");
        }
        // `allow` would leave every `unsafe` unchecked.
        let allow = full.replace("unsafe_code = \"deny\"", "unsafe_code = \"allow\"");
        assert_eq!(check_lint_gate(island, &allow, true).len(), 1);
    }

    #[test]
    fn workspace_gate_detection_reads_lint_tables() {
        let (rust, clippy) = ("[workspace.lints.rust]", "[workspace.lints.clippy]");
        let good = lint_tables(rust, clippy, "forbid", None);
        assert!(workspace_defines_gate(&good), "{good}");
        // Deleting any one required line retires the gate.
        for skip in 0..REQUIRED_LINES {
            let short = lint_tables(rust, clippy, "forbid", Some(skip));
            assert!(!workspace_defines_gate(&short), "{short}");
        }
        let weak = good.replace("unsafe_code = \"forbid\"", "unsafe_code = \"warn\"");
        assert!(!workspace_defines_gate(&weak));
        // The right line under the wrong table counts for nothing.
        let swapped = good.replace(clippy, rust);
        assert!(!workspace_defines_gate(&swapped));
    }

    #[test]
    fn lint_attributes_are_counted_with_their_lints_and_without_reasons() {
        let src =
            "#![expect(\n    clippy::cast_possible_truncation,\n    reason = \"arena ids\"\n)]\n\
                   #![deny(clippy::as_conversions)]\n\
                   #[allow(dead_code, unused)]\nfn f() {}\n\
                   fn g() -> &'static str {\n    \"#[allow(clippy::panic)]\"\n}\n\
                   // #[expect(unsafe_code)] in a comment suppresses nothing\n\
                   #[expect(unsafe_code, reason = \"a syscall\")]\nfn h() {}\n";
        let got = lint_attributes(&scrub(src));
        let want = [
            (1, "expect(clippy::cast_possible_truncation)"),
            (6, "allow(dead_code, unused)"),
            (12, "expect(unsafe_code)"),
        ];
        let mut got: Vec<(usize, &str)> = got.iter().map(|(l, w)| (*l, w.as_str())).collect();
        got.sort_unstable();
        assert_eq!(got, want);
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
        let spans: Vec<usize> = (0..s.in_test.len()).filter(|&i| s.in_test[i]).collect();
        assert_eq!(spans, [1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn waiver_marker_inside_string_literal_waives_nothing() {
        let src = "fn f() {\n    let m = \"audit:allow(dead-pub): not a waiver\";\n    // audit:allow(dead-pub): a real one\n}\n";
        let s = scrub(src);
        assert!(!has_waiver(&s.comments[1], "dead-pub"), "string-embedded marker must not waive");
        assert!(has_waiver(&s.comments[2], "dead-pub"));
        assert_eq!(waiver_rule(&s.comments[2]).as_deref(), Some("dead-pub"));
        assert!(waiver_rule("/// audit:allow(dead-pub): a doc comment describes").is_none());
    }

    #[test]
    fn findings_render_as_file_line_rule_message() {
        let f = Finding {
            file: PathBuf::from("crates/sim/src/counters.rs"),
            line: 42,
            rule: "site-id",
            message: "duplicate id".to_string(),
        };
        assert_eq!(f.to_string(), "crates/sim/src/counters.rs:42: site-id: duplicate id");
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
