//! `aon-audit` CLI: run the workspace lint pass and exit nonzero on any
//! violation. See the crate docs for the rules and the waiver syntax.

use std::path::PathBuf;
use std::process::ExitCode;

/// Locate the workspace root: the nearest ancestor of the current
/// directory whose `Cargo.toml` contains a `[workspace]` table.
fn workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let root = match workspace_root() {
        Some(r) => r,
        None => {
            eprintln!("aon-audit: no workspace Cargo.toml found above the current directory");
            return ExitCode::FAILURE;
        }
    };
    let report = match aon_audit::audit_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("aon-audit: I/O error walking {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };

    for finding in &report.findings {
        println!("{finding}");
    }
    println!(
        "aon-audit: {} file(s) scanned, {} violation(s), {} waiver(s), {} site id(s)",
        report.files_scanned,
        report.findings.len(),
        report.waivers.len(),
        report.site_ids,
    );

    // Sync-primitive inventory: per-role counts, then every site.
    let mut role_counts: std::collections::BTreeMap<&str, usize> = Default::default();
    for site in &report.sync_sites {
        *role_counts.entry(site.role.as_deref().unwrap_or("<undeclared>")).or_default() += 1;
    }
    let summary =
        role_counts.iter().map(|(role, n)| format!("{role}={n}")).collect::<Vec<_>>().join(", ");
    println!("aon-audit: {} sync primitive(s) inventoried: {summary}", report.sync_sites.len());
    for site in &report.sync_sites {
        println!(
            "aon-audit: sync {}:{}: {} `{}` role={}",
            site.file.display(),
            site.line,
            site.primitive,
            site.name,
            site.role.as_deref().unwrap_or("<undeclared>"),
        );
    }

    // Waiver report (already sorted by file:line) and budget enforcement.
    for w in &report.waivers {
        println!("aon-audit: waiver at {}:{}: {}", w.file.display(), w.line, w.what);
    }
    let mut budget_ok = true;
    match aon_audit::waiver_budget(&root) {
        Err(e) => {
            eprintln!("aon-audit: {e}");
            budget_ok = false;
        }
        Ok(budget) if report.waivers.len() > budget => {
            eprintln!(
                "aon-audit: {} waiver(s) exceed the budget of {budget}; remove waivers or \
                 bump {} in the same diff with a justification",
                report.waivers.len(),
                aon_audit::WAIVER_BUDGET_FILE,
            );
            budget_ok = false;
        }
        Ok(budget) if report.waivers.len() < budget => {
            eprintln!(
                "aon-audit: only {} waiver(s) remain but the budget is {budget}; lower {} \
                 so the headroom cannot be spent silently",
                report.waivers.len(),
                aon_audit::WAIVER_BUDGET_FILE,
            );
            budget_ok = false;
        }
        Ok(budget) => {
            println!("aon-audit: waiver budget {budget} exactly met");
        }
    }

    if report.findings.is_empty() && budget_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
