//! The `site-id` pass: a simulated branch has an address, and only one.
//!
//! `site!(0x…)` and `br!(p, 0x…, cond)` name their synthetic program
//! counter as a literal (see `aon_trace::code`). The simulated program is
//! therefore a function of the source alone — provided every site really
//! is a literal, no two sites share one, and nothing in the traced crates
//! reads the source position instead. Those three properties are checked
//! here, on non-test code: test modules may build whatever ids they like.

use crate::lex::{line_tokens, Tok, TokKind};
use crate::{Finding, Scrubbed};
use std::path::{Path, PathBuf};

/// The crates whose code records the simulated program; `file!()`,
/// `line!()` and `column!()` are findings in their non-test code.
pub const TRACED_CRATE_PREFIXES: &[&str] =
    &["crates/trace/src/", "crates/xml/src/", "crates/server/src/", "crates/net/src/"];

/// One site literal found in non-test code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteUse {
    /// Workspace-relative path.
    pub file: PathBuf,
    /// 1-based line number of the macro invocation.
    pub line: usize,
    /// The id.
    pub id: u32,
}

/// A plain 32-bit integer literal (`0x1234_abcd` or decimal, no suffix).
fn literal_id(tok: &Tok) -> Option<u32> {
    if tok.kind != TokKind::Number {
        return None;
    }
    let digits = tok.text.replace('_', "");
    match digits.strip_prefix("0x") {
        Some(hex) => u32::from_str_radix(hex, 16).ok(),
        None => digits.parse().ok(),
    }
}

/// Index of the token after the first top-level `,` at or after `from`.
fn after_first_comma(toks: &[(usize, Tok)], from: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, (_, t)) in toks.iter().enumerate().skip(from) {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth = depth.checked_sub(1)?,
            "," if depth == 0 => return Some(i + 1),
            _ => {}
        }
    }
    None
}

/// Per file: collect the site literals, and flag every `site!`/`br!`
/// whose id is not a literal and — in [`TRACED_CRATE_PREFIXES`] — every
/// source-position macro.
pub fn check_site_ids(rel_path: &Path, s: &Scrubbed) -> (Vec<SiteUse>, Vec<Finding>) {
    let traced = {
        let p = rel_path.to_string_lossy().replace('\\', "/");
        TRACED_CRATE_PREFIXES.iter().any(|prefix| p.starts_with(prefix))
    };
    // One token stream for the file, so an invocation may wrap lines.
    let toks: Vec<(usize, Tok)> = s
        .lines
        .iter()
        .enumerate()
        .filter(|(idx, _)| !s.in_test[*idx])
        .flat_map(|(idx, code)| line_tokens(code).into_iter().map(move |t| (idx + 1, t)))
        .collect();
    let mut uses = Vec::new();
    let mut findings = Vec::new();
    let mut finding = |line: usize, message: String| {
        findings.push(Finding { file: rel_path.to_path_buf(), line, rule: "site-id", message });
    };
    for (i, (line, name)) in toks.iter().enumerate() {
        let invoked = toks.get(i + 1).is_some_and(|(_, t)| t.is("!"))
            && toks.get(i + 2).is_some_and(|(_, t)| t.is("("));
        if !invoked {
            continue;
        }
        let id_at = match name.text.as_str() {
            "site" => Some(i + 3),
            "br" => after_first_comma(&toks, i + 3),
            "file" | "line" | "column" if traced => {
                finding(
                    *line,
                    format!(
                        "`{}!()` in a traced crate: the simulated program must not depend on \
                         source position; give the site a literal id",
                        name.text
                    ),
                );
                continue;
            }
            _ => continue,
        };
        let arg = id_at.and_then(|at| toks.get(at)).map(|(_, t)| t);
        // `$id`: the macro's own definition, not a site.
        if arg.is_some_and(|t| t.is("$")) {
            continue;
        }
        match arg.and_then(literal_id) {
            Some(id) => uses.push(SiteUse { file: rel_path.to_path_buf(), line: *line, id }),
            None => finding(
                *line,
                format!(
                    "`{}!` without a literal id: write the site's 32-bit id as a plain \
                     literal (any unused value serves)",
                    name.text
                ),
            ),
        }
    }
    (uses, findings)
}

/// Across files: every id that is already taken by an earlier site (in
/// `(file, line)` order) is a finding naming both places.
pub fn check_unique(uses: &[SiteUse]) -> Vec<Finding> {
    let mut sorted: Vec<&SiteUse> = uses.iter().collect();
    sorted.sort_by(|a, b| (a.id, &a.file, a.line).cmp(&(b.id, &b.file, b.line)));
    let mut findings = Vec::new();
    for pair in sorted.windows(2) {
        let (first, dup) = (pair[0], pair[1]);
        if first.id == dup.id {
            findings.push(Finding {
                file: dup.file.clone(),
                line: dup.line,
                rule: "site-id",
                message: format!(
                    "site id {:#010x} is already taken at {}:{}; any unused 32-bit value serves",
                    dup.id,
                    first.file.display(),
                    first.line
                ),
            });
        }
    }
    findings
}
