//! The `dead-pub` pass: a `pub` item declared in first-party non-test
//! code (`crates/*/src`, `src/`) whose name occurs, as a whole word, in
//! the text of every scanned file and [`TEXT_ONLY_DIR`] only at its own
//! non-test `pub` declarations is code nothing reaches. Non-test lines
//! count as raw text; test lines count as code only, so a string in a test
//! fixture is no use. Two items of one name that nothing calls are both
//! flagged: each occurrence is a declaration. A use in the declaring
//! file's tests counts. Waive with `// audit:allow(dead-pub): <reason>`.

use crate::lex::{line_tokens, Tok};
use crate::{line_waived, Finding, Scrubbed};
use std::collections::HashMap;
use std::path::Path;

/// Read for the count only: `benchmark/` is a workspace of its own that
/// names workspace APIs.
pub const TEXT_ONLY_DIR: &str = "benchmark/src";

/// True for a file whose declarations the pass checks.
pub fn declares(rel_path: &str) -> bool {
    rel_path.starts_with("src/")
        || (rel_path.starts_with("crates/") && rel_path.split('/').nth(2) == Some("src"))
}

/// Add every whole word of the file at `rel_path` to `counts`: the raw
/// `source` of its non-test lines, and only the code (`s.lines`, string and
/// comment interiors blanked) of its test lines, which are its
/// `#[cfg(test)]` spans and every line of a file under a `tests/` directory.
pub fn count_words(
    rel_path: &str,
    source: &str,
    s: &Scrubbed,
    counts: &mut HashMap<String, usize>,
) {
    let test_file = rel_path.split('/').any(|dir| dir == "tests");
    for (idx, raw) in source.lines().enumerate() {
        let text = if test_file || s.in_test[idx] { &s.lines[idx] } else { raw };
        for word in text.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
            *counts.entry(word.to_string()).or_default() += 1;
        }
    }
}

/// The name a `pub` declares, from the tokens after it, when the item is
/// a `fn`, `const`, `static`, `struct`, `enum`, `trait` or `type`.
fn declared_name(after_pub: &[Tok]) -> Option<&str> {
    let words: Vec<&str> = after_pub.iter().take(3).map(|t| t.text.as_str()).collect();
    let name = match words[..] {
        ["const" | "unsafe" | "async", "fn", name, ..] => name,
        ["fn" | "const" | "static" | "struct" | "enum" | "trait" | "type", name, ..] => name,
        _ => return None,
    };
    name.starts_with(|c: char| c.is_alphabetic() || c == '_').then_some(name)
}

/// Every `pub` item declaration in this file's non-test code, as
/// (line index, name).
fn pub_declarations(s: &Scrubbed) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (idx, code) in s.lines.iter().enumerate().filter(|(idx, _)| !s.in_test[*idx]) {
        let toks = line_tokens(code);
        for at in (0..toks.len()).filter(|&at| toks[at].is("pub")) {
            if let Some(name) = declared_name(&toks[at + 1..]) {
                out.push((idx, name.to_string()));
            }
        }
    }
    out
}

/// Add each of this file's non-test `pub` declarations to `decls`, the
/// declaration counts per name over the tree's declaring files.
pub fn count_declarations(s: &Scrubbed, decls: &mut HashMap<String, usize>) {
    for (_, name) in pub_declarations(s) {
        *decls.entry(name).or_default() += 1;
    }
}

/// Every `pub` item in this file's non-test code whose every whole-word
/// occurrence in `counts` (the word counts over the tree) is one of its
/// `decls` (the tree's non-test `pub` declarations of that name).
pub fn check_dead_pub(
    rel_path: &Path,
    s: &Scrubbed,
    counts: &HashMap<String, usize>,
    decls: &HashMap<String, usize>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (idx, name) in pub_declarations(s) {
        if counts.get(&name) <= decls.get(&name) && !line_waived(s, idx, "dead-pub") {
            out.push(Finding {
                file: rel_path.to_path_buf(),
                line: idx + 1,
                rule: "dead-pub",
                message: format!(
                    "public item `{name}` is named nowhere but at its declarations; delete it"
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scrub;

    /// Dead-pub findings for `file` (at `path`) with words counted over
    /// `file` and every one of `others` (each at its own path), and
    /// declarations over `file`.
    fn dead(path: &str, file: &str, others: &[(&str, &str)]) -> Vec<String> {
        let mut counts = HashMap::new();
        for (at, src) in std::iter::once((path, file)).chain(others.iter().copied()) {
            count_words(at, src, &scrub(src), &mut counts);
        }
        let mut decls = HashMap::new();
        count_declarations(&scrub(file), &mut decls);
        check_dead_pub(Path::new(path), &scrub(file), &counts, &decls)
            .iter()
            .map(|f| format!("{}:{}", f.line, f.message.split('`').nth(1).unwrap_or("")))
            .collect()
    }

    #[test]
    fn an_item_named_only_at_its_declaration_is_flagged() {
        let src = "pub fn lonely() {}\npub struct Used;\nfn f() -> Used { Used }\n";
        assert_eq!(dead("crates/x/src/lib.rs", src, &[]), ["1:lonely"]);
    }

    #[test]
    fn two_same_named_items_that_nothing_uses_are_both_flagged() {
        let src = "pub struct A;\nimpl A {\n    pub fn unread(&self) -> u8 { 0 }\n}\n\
                   pub struct B;\nimpl B {\n    pub fn unread(&self) -> u8 { 1 }\n}\n\
                   fn f() -> (A, B) { (A, B) }\n";
        assert_eq!(dead("crates/x/src/lib.rs", src, &[]), ["3:unread", "7:unread"]);
        let call = "fn g(b: &x::B) -> u8 { b.unread() }\n";
        assert!(dead("crates/x/src/lib.rs", src, &[("crates/y/src/lib.rs", call)]).is_empty());
    }

    #[test]
    fn an_item_used_only_in_its_own_files_tests_is_not_flagged() {
        let src = "pub fn helper() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    \
                   fn t() { super::helper(); }\n}\n";
        assert!(dead("crates/x/src/lib.rs", src, &[]).is_empty());
    }

    #[test]
    fn a_test_string_that_names_an_item_is_no_use() {
        let src = "pub fn horizon() {}\n#[cfg(test)]\nmod tests {\n    \
                   const FIXTURE: &str = \"pub fn horizon() {}\";\n}\n";
        assert_eq!(dead("crates/x/src/lib.rs", src, &[]), ["1:horizon"]);
        let fixture = "const FIXTURE: &str = \"horizon\";\n";
        assert_eq!(
            dead("crates/x/src/lib.rs", src, &[("crates/x/tests/t.rs", fixture)]),
            ["1:horizon"]
        );
        // The same text outside test code is raw text, and counts.
        assert!(dead("crates/x/src/lib.rs", src, &[("crates/y/src/lib.rs", fixture)]).is_empty());
    }

    #[test]
    fn an_item_used_in_another_file_is_not_flagged() {
        let decl = "pub const LIMIT: u32 = 1;\n";
        let other = |code| [("crates/y/src/lib.rs", code)];
        assert!(
            dead("crates/x/src/lib.rs", decl, &other("fn g() -> u32 { x::LIMIT }\n")).is_empty()
        );
        assert_eq!(dead("crates/x/src/lib.rs", decl, &other("fn g() {}\n")), ["1:LIMIT"]);
        let test_use = "#[test]\nfn t() { assert_eq!(x::LIMIT, 1); }\n";
        assert!(dead("crates/x/src/lib.rs", decl, &[("crates/x/tests/t.rs", test_use)]).is_empty());
    }

    #[test]
    fn a_waived_item_is_not_flagged() {
        let src = "// audit:allow(dead-pub): called from outside the tree\npub fn entry() {}\n\
                   pub fn other() {} // audit:allow(dead-pub): same, on its own line\n";
        assert!(dead("crates/x/src/lib.rs", src, &[]).is_empty());
    }

    #[test]
    fn only_item_declarations_in_first_party_sources_count() {
        let src = "pub(crate) fn a() {}\npub use std::fmt;\npub mod m {}\nstruct S {\n    \
                   pub field: u8,\n}\npub const fn c() {}\npub unsafe fn d() {}\n\
                   pub static E: u8 = 0;\npub trait T {}\npub type U = u8;\npub enum V {}\n";
        assert_eq!(dead("src/lib.rs", src, &[]), ["7:c", "8:d", "9:E", "10:T", "11:U", "12:V"]);
        assert!(declares("crates/sim/src/hier.rs") && declares("src/bin/aon_report.rs"));
        for not_declaring in ["crates/sim/tests/a.rs", "examples/b.rs", "third_party/p/src/c.rs"] {
            assert!(!declares(not_declaring), "{not_declaring}");
        }
    }
}
