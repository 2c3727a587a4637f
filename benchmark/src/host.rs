//! The host fingerprint written into every result file, so two files
//! are only ever compared knowingly across hosts.

use crate::json::quote;
use std::process::Command;

fn first_line(path: &str, prefix: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(prefix))?;
    Some(line.split_once(':').map_or(line, |(_, v)| v).trim().to_string())
}

/// CPU model, usable CPUs, kernel, compiler and the network the load
/// crossed, as a JSON object.
pub fn fingerprint() -> String {
    let unknown = || "unknown".to_string();
    let cpu = first_line("/proc/cpuinfo", "model name").unwrap_or_else(unknown);
    let kernel = first_line("/proc/sys/kernel/osrelease", "").unwrap_or_else(unknown);
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(unknown, |o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    format!(
        "{{\"cpu_model\": {}, \"nproc\": {}, \"kernel\": {}, \"rustc\": {}, \"network\": \"loopback (127.0.0.1), one process\"}}",
        quote(&cpu),
        crate::live::clients(),
        quote(&kernel),
        quote(&rustc)
    )
}
