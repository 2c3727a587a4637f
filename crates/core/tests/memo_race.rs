//! Concurrent fills of the memo caches, as the pooled record phase makes
//! them. The only test in its binary, so the process-wide hit and miss
//! counters move for its calls alone.

use aon_core::memo::{self, CorpusSpec};
use aon_server::app::ServerRecording;
use aon_server::usecase::UseCase;
use std::sync::{Arc, Barrier};

#[test]
fn racing_server_recordings_record_exactly_once() {
    // A spec nothing else in this process records.
    let spec = CorpusSpec { seed: 31_337, variants: 1, body_size: None };
    const CALLERS: usize = 4;
    let before = memo::stats();
    let start = Barrier::new(CALLERS);
    let recs: Vec<ServerRecording> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    memo::server_recording(UseCase::Cbr, spec)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &recs {
        assert!(Arc::ptr_eq(&r.traces, &recs[0].traces), "every caller gets the one recording");
    }
    let after = memo::stats();
    let callers = u64::try_from(CALLERS).unwrap();
    assert_eq!(after.server_misses - before.server_misses, 1, "one caller records");
    assert_eq!(after.server_hits - before.server_hits, callers - 1, "the others wait, then hit");
    assert_eq!(after.corpus_misses - before.corpus_misses, 1, "the corpus is generated once");
}
