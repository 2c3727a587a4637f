//! The five workloads of the study.

use crate::memo::{self, CorpusSpec};
use aon_net::netperf::{build_netperf_e2e, build_netperf_loopback};
use aon_server::app::build_server;
use aon_server::usecase::UseCase;
use aon_sim::machine::Machine;

/// A workload the paper measures (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Netperf TCP_STREAM, both processes on the SUT (CPU-intensive
    /// baseline).
    NetperfLoopback,
    /// Netperf TCP_STREAM across the Gigabit link (network-I/O baseline).
    NetperfE2E,
    /// XML server, HTTP Forward Request.
    Fr,
    /// XML server, Content Based Routing.
    Cbr,
    /// XML server, Schema Validation.
    Sv,
    /// XML server, deep packet inspection (extension; paper §6 future
    /// work).
    Dpi,
    /// XML server, HMAC-SHA1 message authentication (extension; paper §6
    /// future work).
    Crypto,
}

impl WorkloadKind {
    /// All five, baselines first.
    pub const ALL: [WorkloadKind; 5] = [
        WorkloadKind::NetperfLoopback,
        WorkloadKind::NetperfE2E,
        WorkloadKind::Fr,
        WorkloadKind::Cbr,
        WorkloadKind::Sv,
    ];

    /// The two netperf baselines.
    pub const NETPERF: [WorkloadKind; 2] =
        [WorkloadKind::NetperfLoopback, WorkloadKind::NetperfE2E];

    /// The three server use cases.
    pub const SERVER: [WorkloadKind; 3] = [WorkloadKind::Fr, WorkloadKind::Cbr, WorkloadKind::Sv];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadKind::NetperfLoopback => "netperf-loopback",
            WorkloadKind::NetperfE2E => "netperf",
            WorkloadKind::Fr => "FR",
            WorkloadKind::Cbr => "CBR",
            WorkloadKind::Sv => "SV",
            WorkloadKind::Dpi => "DPI",
            WorkloadKind::Crypto => "CRYPTO",
        }
    }

    /// The server use case, if this is one.
    pub fn use_case(&self) -> Option<UseCase> {
        match self {
            WorkloadKind::Fr => Some(UseCase::Fr),
            WorkloadKind::Cbr => Some(UseCase::Cbr),
            WorkloadKind::Sv => Some(UseCase::Sv),
            WorkloadKind::Dpi => Some(UseCase::Dpi),
            WorkloadKind::Crypto => Some(UseCase::Crypto),
            _ => None,
        }
    }

    /// Wire this workload onto a machine, replaying memoized recordings
    /// (see [`crate::memo`]): the corpus and the recording are made at most
    /// once per process and shared immutably across every platform and
    /// sweep point that asks for the same [`CorpusSpec`]. Server use cases
    /// run at saturation load; the netperf baselines ignore `spec`.
    pub fn build(&self, machine: &mut Machine, spec: CorpusSpec) {
        match self {
            WorkloadKind::NetperfLoopback => {
                build_netperf_loopback(machine, &memo::netperf_recording())
            }
            WorkloadKind::NetperfE2E => build_netperf_e2e(machine, &memo::netperf_recording()),
            WorkloadKind::Fr
            | WorkloadKind::Cbr
            | WorkloadKind::Sv
            | WorkloadKind::Dpi
            | WorkloadKind::Crypto => {
                let rec = memo::server_recording(self.use_case().expect("server workload"), spec);
                build_server(machine, &rec, 100);
            }
        }
    }
}

impl core::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_use_cases() {
        assert_eq!(WorkloadKind::Fr.label(), "FR");
        assert_eq!(WorkloadKind::Fr.use_case(), Some(UseCase::Fr));
        assert_eq!(WorkloadKind::NetperfE2E.use_case(), None);
        assert_eq!(WorkloadKind::ALL.len(), 5);
        assert_eq!(WorkloadKind::SERVER.len(), 3);
    }
}
