//! Concurrent fills of the memo caches, as the pooled record phase makes
//! them. The only test in its binary, so the process-wide hit and miss
//! counters move for its calls alone.

use aon_core::memo::{self, CorpusSpec};
use aon_server::usecase::UseCase;
use std::sync::{Arc, Barrier};

#[test]
fn racing_server_recordings_share_the_first_insert() {
    // A spec nothing else in this process records.
    let spec = CorpusSpec { seed: 31_337, variants: 1, body_size: None };
    const CALLERS: usize = 4;
    let before = memo::stats();
    let start = Barrier::new(CALLERS);
    let recs: Vec<memo::ServerRecording> = std::thread::scope(|scope| {
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
        assert!(Arc::ptr_eq(&r.traces, &recs[0].traces), "every caller gets the first insert");
    }
    let after = memo::stats();
    let calls =
        (after.server_hits - before.server_hits) + (after.server_misses - before.server_misses);
    assert_eq!(calls, u64::try_from(CALLERS).unwrap(), "each call counts once, as a hit or a miss");
    assert_eq!(after.corpus_misses - before.corpus_misses, 1, "the corpus is generated once");
}
