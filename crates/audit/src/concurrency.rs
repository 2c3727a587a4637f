//! Concurrency-soundness passes: the sync-role registry, the
//! atomics-discipline check, and the lock-discipline check.
//!
//! The live measurement plane (crates/obs, crates/serve, the memo
//! caches) is all relaxed-atomic counters and short
//! critical sections; one wrong `Ordering::Relaxed` on a flag edge would
//! silently skew every table the server publishes. These passes make the
//! discipline machine-checked:
//!
//! 1. **sync-role registry** — every `Atomic*` / `Mutex` / `RwLock` /
//!    `Condvar` / `OnceLock` *declaration* (struct field, static, or
//!    local binding) must carry a role marker:
//!
//!    ```text
//!    // audit:role(counter): monotonic; scraped Relaxed, exact at join
//!    pub accepted: AtomicU64,
//!    ```
//!
//!    The marker names one of [`ROLES`] and states the invariant after
//!    the colon. The analyzer inventories every site and fails on an
//!    undeclared primitive, an unknown role, or an empty invariant.
//!
//! 2. **atomics-discipline** — each `Ordering::` use site is resolved to
//!    the declared role of its receiver (same-file field/static/local
//!    names, or the enclosing `impl` type for tuple-field access like
//!    `self.0`) and checked against the role's allowed orderings:
//!    data-plane roles (`counter`, `gauge`, `hwm`, `seqgen`) may only be
//!    `Relaxed` — anything stronger is over-synchronization; `flag` edges
//!    must publish with `Release` and observe with `Acquire` (or
//!    stronger); `SeqCst` in a hot-path file is flagged even where the
//!    role would allow it. Lock-based roles (`queue`, `lock`, `once`)
//!    admit no atomic orderings at all. Violations are waivable with
//!    `audit:allow(ordering): <happens-before argument>`.
//!
//! 3. **lock-discipline** — in `crates/serve` and `crates/net`, no mutex
//!    guard may be live across a blocking I/O call ([`BLOCKING_CALLS`]).
//!    `Condvar::wait`/`wait_timeout` are exempt (releasing the lock is
//!    their contract). Waivable with `audit:allow(lock): <reason>`.

use crate::lex::{find_tok, line_tokens, FileSpans, Tok, TokKind};
use crate::{line_waived, Finding, Scrubbed};
use std::path::Path;

/// Sync primitive type names the registry pass inventories.
pub const SYNC_PRIMITIVES: &[&str] = &[
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
    "Mutex",
    "RwLock",
    "Condvar",
    "OnceLock",
    "Once",
];

/// The machine-readable roles a sync primitive may declare, and what each
/// promises:
///
/// * `counter` — monotonic event count; `Relaxed` everywhere, totals are
///   exact once writers quiesce.
/// * `gauge` — last-write-wins level; `Relaxed`, approximate by design.
/// * `hwm` — high-water mark maintained with `fetch_max`; `Relaxed`.
/// * `seqgen` — unique-ticket dispenser via `fetch_add`; `Relaxed` (only
///   uniqueness is needed, never ordering against other memory).
/// * `flag` — a cross-thread edge (shutdown, enable); stores must be
///   `Release`+, loads `Acquire`+, so writes before the store are visible
///   after the load.
/// * `queue` — a `Mutex`/`Condvar` hand-off structure; the lock provides
///   all ordering, so no atomic orderings may appear on it.
/// * `lock` — a plain mutual-exclusion `Mutex`/`RwLock`; same rule.
/// * `once` — init-once cell (`OnceLock`/`Once`); its own API synchronizes.
pub const ROLES: &[&str] = &["counter", "gauge", "hwm", "flag", "seqgen", "queue", "lock", "once"];

/// Files where `SeqCst` is treated as over-synchronization even on roles
/// that would otherwise allow it: the per-request data path, where a full
/// fence per counter bump is measurable and never needed.
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/net/src/acceptq.rs",
    "crates/obs/src/metric.rs",
    "crates/obs/src/stage.rs",
    "crates/serve/src/server.rs",
];

/// Atomic read-modify-write / load / store method names whose `Ordering`
/// arguments the discipline pass checks.
const ATOMIC_OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_max",
    "fetch_min",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Calls that block (I/O, sleeps, joins) and therefore may not run while
/// a lock guard is live. `Condvar::wait`/`wait_timeout` are deliberately
/// absent: they release the lock while blocked.
pub const BLOCKING_CALLS: &[&str] = &[
    "accept",
    "connect",
    "flush",
    "join",
    "read_exact",
    "read_frame",
    "read_to_end",
    "recv",
    "sleep",
    "write_all",
];

/// Path prefixes where the lock-discipline pass is enforced (the live
/// serving path, where a worker blocked — in `accept`, a read, a write —
/// while holding the trace-ring or registry lock would stall every peer).
pub const LOCK_ENFORCED_PREFIXES: &[&str] = &["crates/serve/src/", "crates/net/src/"];

/// One inventoried sync-primitive declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncSite {
    /// Workspace-relative path.
    pub file: std::path::PathBuf,
    /// 1-based declaration line.
    pub line: usize,
    /// Primitive type name(s) on the declaration (`"OnceLock+Mutex"` for
    /// nested declarations on one line).
    pub primitive: String,
    /// Declared name (field, static, local, or tuple-struct type).
    pub name: String,
    /// Declared role, when the marker parsed (`None` only alongside a
    /// finding).
    pub role: Option<String>,
}

/// Parse `audit:role(<role>): <invariant>` out of one comment-channel
/// line. Only plain `//` comments count (doc comments describe the
/// syntax; they must not declare roles). Returns `(role, invariant)`.
pub fn role_marker(comment_line: &str) -> Option<(String, String)> {
    let t = comment_line.trim_start();
    if !t.starts_with("//") || t.starts_with("///") || t.starts_with("//!") {
        return None;
    }
    let at = comment_line.find("audit:role(")?;
    let rest = &comment_line[at + "audit:role(".len()..];
    let close = rest.find(')')?;
    let role = rest[..close].trim().to_string();
    let after = rest[close + 1..].trim_start();
    let invariant = after.strip_prefix(':').map(str::trim).unwrap_or("").to_string();
    Some((role, invariant))
}

/// The role marker governing line `idx`: on the same line, or on the
/// nearest line above after skipping attribute lines (`#[...]`), doc
/// comments, and plain comment lines (markers often span several `//`
/// lines) — the walk stops at the first code or fully blank line, so a
/// marker never binds across an intervening declaration or paragraph
/// break.
fn find_role(s: &Scrubbed, idx: usize) -> Option<(String, String)> {
    if let Some(m) = role_marker(&s.comments[idx]) {
        return Some(m);
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        if let Some(m) = role_marker(&s.comments[j]) {
            return Some(m);
        }
        let code = s.lines[j].trim();
        let comment = s.comments[j].trim();
        let is_attr = code.starts_with("#[") || code.starts_with("#![");
        let is_comment_only = code.is_empty() && !comment.is_empty();
        if is_attr || is_comment_only {
            continue;
        }
        return None;
    }
    None
}

/// How a primitive-bearing line declares its primitive, if it does.
enum DeclKind {
    Static,
    Local,
    TupleStruct,
    Field,
}

/// Classify one line: is it a *declaration* of a sync primitive (static,
/// local binding, tuple struct, or struct field), or a mere mention
/// (constructor call in an initializer, function signature, import)?
fn classify_decl(toks: &[Tok], idx: usize, spans: &FileSpans) -> Option<(DeclKind, String)> {
    let prim_at = toks.iter().position(|t| SYNC_PRIMITIVES.contains(&t.text.as_str()))?;
    if toks.first().map(|t| t.is("use")) == Some(true) {
        return None;
    }
    // A `fn` before the primitive means it appears in a signature
    // (return type or parameter), which declares nothing.
    if find_tok(toks, "fn").is_some_and(|f| f < prim_at) {
        return None;
    }
    if let Some(at) = find_tok(toks, "static").filter(|&at| at < prim_at) {
        let name = ident_after(toks, at)?;
        return Some((DeclKind::Static, name));
    }
    if let Some(at) = find_tok(toks, "let").filter(|&at| at < prim_at) {
        let name = binding_name(&toks[at + 1..])?;
        return Some((DeclKind::Local, name));
    }
    if let Some(at) = find_tok(toks, "struct").filter(|&at| at < prim_at) {
        let name = ident_after(toks, at)?;
        return Some((DeclKind::TupleStruct, name));
    }
    if spans.struct_of[idx].is_some() {
        let name = toks
            .iter()
            .find(|t| t.kind == TokKind::Ident && !matches!(t.text.as_str(), "pub" | "crate"))?
            .text
            .clone();
        return Some((DeclKind::Field, name));
    }
    None
}

/// First identifier token after position `at`.
fn ident_after(toks: &[Tok], at: usize) -> Option<String> {
    toks[at + 1..].iter().find(|t| t.kind == TokKind::Ident).map(|t| t.text.clone())
}

/// The bound name in a `let` pattern, skipping `mut` and destructuring
/// wrappers (`Ok(`, `Some(`).
fn binding_name(toks: &[Tok]) -> Option<String> {
    toks.iter()
        .find(|t| {
            t.kind == TokKind::Ident && !matches!(t.text.as_str(), "mut" | "Ok" | "Some" | "ref")
        })
        .map(|t| t.text.clone())
}

/// Pass 1: inventory sync-primitive declarations and enforce role
/// markers. Returns the inventory plus findings for undeclared or
/// mis-declared primitives.
pub fn check_sync_roles(
    rel_path: &Path,
    s: &Scrubbed,
    spans: &FileSpans,
) -> (Vec<SyncSite>, Vec<Finding>) {
    let mut sites = Vec::new();
    let mut findings = Vec::new();
    for (idx, code) in s.lines.iter().enumerate() {
        if s.in_test[idx] || !SYNC_PRIMITIVES.iter().any(|p| code.contains(p)) {
            continue;
        }
        let toks = line_tokens(code);
        let Some((_kind, name)) = classify_decl(&toks, idx, spans) else { continue };
        let mut prims: Vec<&str> = toks
            .iter()
            .filter(|t| SYNC_PRIMITIVES.contains(&t.text.as_str()))
            .map(|t| t.text.as_str())
            .collect();
        // Keep first occurrences only: a static's constructor repeats the
        // type name (`static X: AtomicU64 = AtomicU64::new(0)`).
        let mut seen: Vec<&str> = Vec::new();
        prims.retain(|p| {
            let fresh = !seen.contains(p);
            if fresh {
                seen.push(p);
            }
            fresh
        });
        let primitive = prims.join("+");
        let mut site = SyncSite {
            file: rel_path.to_path_buf(),
            line: idx + 1,
            primitive: primitive.clone(),
            name: name.clone(),
            role: None,
        };
        match find_role(s, idx) {
            None => findings.push(Finding {
                file: rel_path.to_path_buf(),
                line: idx + 1,
                rule: "sync-role",
                message: format!(
                    "sync primitive `{name}: {primitive}` has no role marker; declare it \
                     with `// audit:role(<{roles}>): <invariant>`",
                    roles = ROLES.join("|"),
                ),
            }),
            Some((role, invariant)) if !ROLES.contains(&role.as_str()) => {
                findings.push(Finding {
                    file: rel_path.to_path_buf(),
                    line: idx + 1,
                    rule: "sync-role",
                    message: format!(
                        "unknown sync role `{role}` on `{name}` (known: {}); invariant: \
                         {invariant:?}",
                        ROLES.join(", ")
                    ),
                });
            }
            Some((role, invariant)) if invariant.is_empty() => {
                findings.push(Finding {
                    file: rel_path.to_path_buf(),
                    line: idx + 1,
                    rule: "sync-role",
                    message: format!(
                        "role marker on `{name}` states no invariant; write \
                         `// audit:role({role}): <why this ordering is sound>`"
                    ),
                });
            }
            Some((role, _)) => site.role = Some(role),
        }
        sites.push(site);
    }
    (sites, findings)
}

/// The operation class an atomic method belongs to, for per-role rules.
enum OpClass {
    Load,
    Store,
    Rmw,
}

fn op_class(op: &str) -> OpClass {
    match op {
        "load" => OpClass::Load,
        "store" => OpClass::Store,
        _ => OpClass::Rmw,
    }
}

/// Orderings a role permits for one operation class.
fn allowed_orderings(role: &str, class: &OpClass) -> &'static [&'static str] {
    match role {
        "counter" | "gauge" | "hwm" | "seqgen" => &["Relaxed"],
        "flag" => match class {
            OpClass::Load => &["Acquire", "SeqCst"],
            OpClass::Store => &["Release", "SeqCst"],
            OpClass::Rmw => &["AcqRel", "SeqCst"],
        },
        // Lock-based roles synchronize through the lock; no atomic
        // orderings belong on them at all.
        _ => &[],
    }
}

/// Walk back from the `.` that precedes an atomic op to the receiver
/// identifier: `stats.accepted.fetch_add` → `accepted`;
/// `self.buckets[i].load` → `buckets`; `self.0.load` → the tuple-field
/// sentinel (resolved via the enclosing impl); `ENABLED.store` →
/// `ENABLED`.
fn receiver_name(toks: &[Tok], dot: usize) -> Option<String> {
    let mut i = dot;
    // Skip one balanced `[...]` index expression.
    if i > 0 && toks[i - 1].text == "]" {
        let mut depth = 0i32;
        while i > 0 {
            i -= 1;
            match toks[i].text.as_str() {
                "]" => depth += 1,
                "[" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    let prev = toks.get(i.checked_sub(1)?)?;
    match prev.kind {
        TokKind::Ident => Some(prev.text.clone()),
        TokKind::Number => Some(prev.text.clone()), // tuple-field index
        TokKind::Punct => None,
    }
}

/// Pass 2: atomics-discipline. Every `Ordering::` use site is resolved
/// to its receiver's declared role and checked against that role's
/// allowed orderings; `SeqCst` on a hot-path file is flagged regardless.
pub fn check_atomics_discipline(
    rel_path: &Path,
    s: &Scrubbed,
    spans: &FileSpans,
    sites: &[SyncSite],
) -> Vec<Finding> {
    let rel_str = rel_path.to_string_lossy().replace('\\', "/");
    let hot_path = HOT_PATH_FILES.contains(&rel_str.as_str());
    let role_of = |name: &str| -> Option<&str> {
        sites.iter().find(|site| site.name == name).and_then(|site| site.role.as_deref())
    };
    let mut out = Vec::new();
    for (idx, code) in s.lines.iter().enumerate() {
        if s.in_test[idx] || !code.contains("Ordering") {
            continue;
        }
        let toks = line_tokens(code);
        let orderings: Vec<&str> = toks
            .windows(3)
            .filter(|w| w[0].is("Ordering") && w[1].text == "::")
            .map(|w| w[2].text.as_str())
            .collect();
        if orderings.is_empty() {
            continue;
        }
        let op_at = toks.iter().enumerate().position(|(i, t)| {
            ATOMIC_OPS.contains(&t.text.as_str()) && i > 0 && toks[i - 1].text == "."
        });
        let Some(op_at) = op_at else { continue };
        let op = toks[op_at].text.clone();
        let class = op_class(&op);
        let waived = line_waived(s, idx, "ordering");

        let recv = receiver_name(&toks, op_at - 1);
        let role = match &recv {
            Some(r) if r.chars().all(|c| c.is_ascii_digit()) => {
                // Tuple-field access: the enclosing impl's type carries
                // the role (e.g. `self.0` inside `impl Counter`).
                spans.impl_of[idx].as_deref().and_then(role_of)
            }
            Some(r) => role_of(r).or_else(|| spans.impl_of[idx].as_deref().and_then(role_of)),
            None => None,
        };
        let Some(role) = role else {
            if !waived {
                out.push(Finding {
                    file: rel_path.to_path_buf(),
                    line: idx + 1,
                    rule: "atomics",
                    message: format!(
                        "atomic `{op}` on `{}` which has no declared sync role; add an \
                         `audit:role` marker at its declaration (or waive with \
                         `// audit:allow(ordering): reason`)",
                        recv.as_deref().unwrap_or("<unresolved receiver>")
                    ),
                });
            }
            continue;
        };
        let allowed = allowed_orderings(role, &class);
        for ord in &orderings {
            if !allowed.contains(ord) && !waived {
                out.push(Finding {
                    file: rel_path.to_path_buf(),
                    line: idx + 1,
                    rule: "atomics",
                    message: if allowed.is_empty() {
                        format!(
                            "role `{role}` is lock-based; atomic `{op}({ord})` does not \
                             belong on it"
                        )
                    } else {
                        format!(
                            "role `{role}` allows {{{}}} for `{op}`, found `{ord}` \
                             (waive with `// audit:allow(ordering): <happens-before \
                             argument>`)",
                            allowed.join(", ")
                        )
                    },
                });
            } else if *ord == "SeqCst" && hot_path && !waived {
                out.push(Finding {
                    file: rel_path.to_path_buf(),
                    line: idx + 1,
                    rule: "atomics",
                    message: format!(
                        "`SeqCst` on the hot path (`{op}` on role `{role}`): a full fence \
                         per operation is over-synchronization here; use \
                         Acquire/Release or waive with a reason"
                    ),
                });
            }
        }
    }
    out
}

/// Pass 3: lock-discipline. Track `let guard = ....lock()` bindings by
/// brace depth and flag any [`BLOCKING_CALLS`] call while a guard is
/// live; `drop(guard)` or scope exit retires the guard.
pub fn check_lock_discipline(rel_path: &Path, s: &Scrubbed) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut depth: i64 = 0;
    // Live guards: (name, depth the binding's block sits at).
    let mut guards: Vec<(String, i64)> = Vec::new();
    for (idx, code) in s.lines.iter().enumerate() {
        let toks = line_tokens(code);
        if !s.in_test[idx] && !guards.is_empty() {
            for (i, t) in toks.iter().enumerate() {
                let is_call = BLOCKING_CALLS.contains(&t.text.as_str())
                    && toks.get(i + 1).map(|n| n.text == "(") == Some(true)
                    // `.lock()` chained before the call on the same line
                    // is the binding itself, handled below.
                    && !t.is("lock");
                if is_call && !line_waived(s, idx, "lock") {
                    out.push(Finding {
                        file: rel_path.to_path_buf(),
                        line: idx + 1,
                        rule: "lock",
                        message: format!(
                            "blocking call `{}` while lock guard `{}` is live; drop the \
                             guard first (or waive with `// audit:allow(lock): reason`)",
                            t.text,
                            guards.last().map(|(n, _)| n.as_str()).unwrap_or("?"),
                        ),
                    });
                }
            }
        }
        // `drop(guard)` retires a guard mid-scope.
        for w in toks.windows(3) {
            if w[0].is("drop") && w[1].text == "(" {
                guards.retain(|(n, _)| *n != w[2].text);
            }
        }
        // New guard binding: `let [mut] name = ... .lock() ...`.
        if !s.in_test[idx] {
            let has_lock_call =
                toks.windows(3).any(|w| w[0].text == "." && w[1].is("lock") && w[2].text == "(");
            if has_lock_call {
                if let Some(at) = find_tok(&toks, "let") {
                    if let Some(name) = binding_name(&toks[at + 1..]) {
                        guards.push((name, depth));
                    }
                }
                // An unbound `.lock()` expression (e.g. `x.lock().y = v;`)
                // is a temporary guard dropped at the semicolon; nothing
                // to track.
            }
        }
        for t in &toks {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => depth -= 1,
                _ => {}
            }
        }
        guards.retain(|(_, d)| depth >= *d);
    }
    out
}

/// True if the concurrency passes run on this workspace-relative path:
/// production sources only — `tests/`, `benches/`, and vendored
/// `third_party/` stand-ins are exempt.
pub fn concurrency_enforced(rel_path: &str) -> bool {
    !rel_path.starts_with("third_party/")
        && !rel_path.split('/').any(|seg| seg == "tests" || seg == "benches")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scrub;

    fn run_roles(src: &str) -> (Vec<SyncSite>, Vec<Finding>) {
        let s = scrub(src);
        let spans = FileSpans::new(&s.lines);
        check_sync_roles(Path::new("crates/x/src/lib.rs"), &s, &spans)
    }

    fn run_atomics(src: &str, path: &str) -> Vec<Finding> {
        let s = scrub(src);
        let spans = FileSpans::new(&s.lines);
        let (sites, role_findings) = check_sync_roles(Path::new(path), &s, &spans);
        assert!(role_findings.is_empty(), "fixture must declare roles: {role_findings:?}");
        check_atomics_discipline(Path::new(path), &s, &spans, &sites)
    }

    #[test]
    fn undeclared_primitive_fails_and_declared_is_inventoried() {
        let src = "pub struct S {\n    pub hits: AtomicU64,\n    // audit:role(counter): monotonic; exact at join\n    pub misses: AtomicU64,\n}\n";
        let (sites, findings) = run_roles(src);
        assert_eq!(sites.len(), 2);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 2);
        assert_eq!(findings[0].rule, "sync-role");
        assert_eq!(sites[1].role.as_deref(), Some("counter"));
        assert_eq!(sites[1].name, "misses");
    }

    #[test]
    fn role_marker_may_sit_above_docs_and_attributes() {
        let src = "// audit:role(counter): delta cell; Relaxed adds only\n/// Documented.\n#[derive(Debug)]\npub struct Counter(AtomicU64);\n";
        let (sites, findings) = run_roles(src);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(sites[0].name, "Counter");
        assert_eq!(sites[0].role.as_deref(), Some("counter"));
    }

    #[test]
    fn unknown_role_and_empty_invariant_are_findings() {
        let bad_role = "// audit:role(blob): whatever\nstatic X: AtomicU64 = AtomicU64::new(0);\n";
        let (_, findings) = run_roles(bad_role);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("unknown sync role"));
        let no_inv = "// audit:role(counter)\nstatic Y: AtomicU64 = AtomicU64::new(0);\n";
        let (_, findings) = run_roles(no_inv);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("no invariant"));
    }

    #[test]
    fn constructor_mentions_and_signatures_are_not_declarations() {
        let src = "impl S {\n    fn new() -> S {\n        S { hits: AtomicU64::new(0) }\n    }\n}\nfn cache() -> &'static Mutex<u64> {\n    unimplemented!()\n}\n";
        let (sites, findings) = run_roles(src);
        assert!(sites.is_empty(), "{sites:?}");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn doc_comment_mentioning_the_marker_declares_nothing() {
        let src = "/// Use `// audit:role(counter): ...` markers.\npub struct S {\n    pub hits: AtomicU64,\n}\n";
        let (_, findings) = run_roles(src);
        assert_eq!(findings.len(), 1, "doc text must not satisfy the role requirement");
    }

    #[test]
    fn counter_role_permits_relaxed_and_flags_stronger() {
        let ok = "pub struct S {\n    // audit:role(counter): monotonic\n    pub hits: AtomicU64,\n}\nimpl S {\n    fn bump(&self) {\n        self.hits.fetch_add(1, Ordering::Relaxed);\n    }\n}\n";
        assert!(run_atomics(ok, "crates/x/src/lib.rs").is_empty());
        let over = ok.replace("Ordering::Relaxed", "Ordering::AcqRel");
        let got = run_atomics(&over, "crates/x/src/lib.rs");
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("allows {Relaxed}"), "{}", got[0].message);
    }

    #[test]
    fn flag_role_requires_release_store_and_acquire_load() {
        let src = "pub struct S {\n    // audit:role(flag): shutdown edge; Release publishes, Acquire observes\n    pub stop: AtomicBool,\n}\nimpl S {\n    fn run(&self) {\n        self.stop.store(true, Ordering::Relaxed);\n        let _ = self.stop.load(Ordering::Relaxed);\n        self.stop.store(true, Ordering::Release);\n        let _ = self.stop.load(Ordering::Acquire);\n    }\n}\n";
        let got = run_atomics(src, "crates/x/src/lib.rs");
        assert_eq!(got.len(), 2, "{got:?}");
        assert_eq!((got[0].line, got[1].line), (7, 8));
    }

    #[test]
    fn tuple_field_access_resolves_via_enclosing_impl() {
        let src = "// audit:role(gauge): level; Relaxed\npub struct Gauge(AtomicU64);\nimpl Gauge {\n    fn set(&self, v: u64) {\n        self.0.store(v, Ordering::Relaxed);\n    }\n}\n";
        assert!(run_atomics(src, "crates/x/src/lib.rs").is_empty());
        let over = src.replace("Ordering::Relaxed", "Ordering::SeqCst");
        assert_eq!(run_atomics(&over, "crates/x/src/lib.rs").len(), 1);
    }

    #[test]
    fn seqcst_on_hot_path_is_flagged_and_waivable() {
        let src = "pub struct S {\n    // audit:role(flag): stop edge\n    pub stop: AtomicBool,\n}\nimpl S {\n    fn stop(&self) {\n        self.stop.store(true, Ordering::SeqCst);\n    }\n}\n";
        let hot = run_atomics(src, "crates/serve/src/server.rs");
        assert_eq!(hot.len(), 1);
        assert!(hot[0].message.contains("hot path"), "{}", hot[0].message);
        let cold = run_atomics(src, "crates/core/src/other.rs");
        assert!(cold.is_empty(), "SeqCst on a flag off the hot path is allowed");
        let waived = src.replace(
            "self.stop.store(true, Ordering::SeqCst);",
            "// audit:allow(ordering): drop path, not hot\n        self.stop.store(true, Ordering::SeqCst);",
        );
        assert!(run_atomics(&waived, "crates/serve/src/server.rs").is_empty());
    }

    #[test]
    fn lock_based_roles_reject_atomic_orderings() {
        let src = "pub struct Q {\n    // audit:role(queue): mutex orders everything\n    pub state: Mutex<u64>,\n}\nimpl Q {\n    fn bad(&self) {\n        self.state.load(Ordering::Relaxed);\n    }\n}\n";
        let got = run_atomics(src, "crates/x/src/lib.rs");
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("lock-based"), "{}", got[0].message);
    }

    #[test]
    fn ordering_on_undeclared_receiver_is_a_finding() {
        let src =
            "fn f(x: &std::sync::atomic::AtomicU64) {\n    x.store(1, Ordering::Relaxed);\n}\n";
        let s = scrub(src);
        let spans = FileSpans::new(&s.lines);
        let got = check_atomics_discipline(Path::new("crates/x/src/lib.rs"), &s, &spans, &[]);
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("no declared sync role"));
    }

    fn run_lock(src: &str) -> Vec<Finding> {
        let s = scrub(src);
        check_lock_discipline(Path::new("crates/serve/src/x.rs"), &s)
    }

    #[test]
    fn blocking_call_under_guard_is_flagged() {
        let src = "fn f(m: &Mutex<u64>, s: &mut TcpStream) {\n    let g = m.lock().expect(\"p\");\n    write_all(s, b\"x\");\n}\n";
        let got = run_lock(src);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].line, 3);
        assert!(got[0].message.contains("`write_all` while lock guard `g`"), "{}", got[0].message);
    }

    #[test]
    fn dropping_the_guard_or_leaving_scope_ends_enforcement() {
        let dropped = "fn f(m: &Mutex<u64>, s: &mut TcpStream) {\n    let g = m.lock().expect(\"p\");\n    drop(g);\n    write_all(s, b\"x\");\n}\n";
        assert!(run_lock(dropped).is_empty());
        let scoped = "fn f(m: &Mutex<u64>, s: &mut TcpStream) {\n    {\n        let g = m.lock().expect(\"p\");\n        let _ = *g;\n    }\n    write_all(s, b\"x\");\n}\n";
        assert!(run_lock(scoped).is_empty());
    }

    #[test]
    fn condvar_wait_is_allowed_and_waiver_works() {
        let wait = "fn f(m: &Mutex<u64>, cv: &Condvar) {\n    let g = m.lock().expect(\"p\");\n    let _g = cv.wait_timeout(g, d).expect(\"p\");\n}\n";
        assert!(run_lock(wait).is_empty(), "condvar wait releases the lock");
        let waived = "fn f(m: &Mutex<u64>) {\n    let g = m.lock().expect(\"p\");\n    // audit:allow(lock): startup only, single-threaded\n    std::thread::sleep(d);\n}\n";
        assert!(run_lock(waived).is_empty());
    }

    #[test]
    fn enforcement_scope_exempts_tests_and_third_party() {
        assert!(concurrency_enforced("crates/serve/src/server.rs"));
        assert!(!concurrency_enforced("crates/net/tests/stress.rs"));
        assert!(!concurrency_enforced("third_party/proptest/src/lib.rs"));
    }
}
