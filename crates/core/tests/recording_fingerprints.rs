//! What the simulator replays, pinned by content.
//!
//! The paper's tables are a function of the recorded op streams — every
//! traced load, ALU batch and branch *with its site id* — so a change to
//! any traced operation or to any site id moves one of these fingerprints
//! and fails here, by workload name, in well under a second. The slower
//! `EXPERIMENTS.md` byte comparison in `ci.sh` then says what it did to the
//! tables. Updating a literal is a regeneration of `EXPERIMENTS.md` and is
//! reviewed as one.

use aon_core::experiment::ExperimentConfig;
use aon_core::memo::{self, CorpusSpec};
use aon_server::usecase::UseCase;

#[test]
fn recording_fingerprints_are_pinned() {
    let spec = CorpusSpec::of(&ExperimentConfig::default());
    for (uc, want) in [
        (UseCase::Fr, 0x8a38_5961_73f4_f8c4_u64),
        (UseCase::Cbr, 0xa153_d14c_6162_a406),
        (UseCase::Sv, 0xbc9e_52dd_5127_1ed0),
    ] {
        let got = memo::server_recording(uc, spec).fingerprint();
        assert_eq!(got, want, "{uc:?} recording moved: {got:#018x}, pinned {want:#018x}");
    }
    let got = memo::netperf_recording().fingerprint();
    let want = 0x2f9c_039e_8ed3_7b3c_u64;
    assert_eq!(got, want, "netperf recording moved: {got:#018x}, pinned {want:#018x}");
}
