//! A counting global allocator that sees only the server's threads.
//!
//! `serve.allocs_per_req` is the number ROADMAP item 3 will be held to.
//! The harness and the server share a process, so the allocator decides
//! per thread, once, from the thread's name: the pool's `aon-worker-*`
//! and `aon-accept` threads count, every harness thread and the
//! time-driven background threads (governor, profiler) do not, which is
//! what lets the count repeat from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

const UNRESOLVED: u8 = 0;
const RESOLVING: u8 = 1;
const COUNTED: u8 = 2;
const SKIPPED: u8 = 3;

thread_local! {
    // Const-initialised and without a destructor, so the allocator may
    // touch it at any point of a thread's life without allocating.
    static CLASS: Cell<u8> = const { Cell::new(UNRESOLVED) };
}

fn counted_thread(name: &str) -> bool {
    name.starts_with("aon-worker") || name == "aon-accept"
}

fn note(size: usize) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let counted = CLASS.try_with(|class| match class.get() {
        COUNTED => true,
        UNRESOLVED => {
            // Reading the name may itself allocate; RESOLVING lets that
            // nested call fall through uncounted instead of recursing.
            class.set(RESOLVING);
            let counted = std::thread::current().name().is_some_and(counted_thread);
            class.set(if counted { COUNTED } else { SKIPPED });
            counted
        }
        _ => false,
    });
    if counted == Ok(true) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; `note` only reads and updates counters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth is an allocator call like any other.
        note(new_size);
        // SAFETY: `ptr` and `layout` are the caller's, from this allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Zero the counters and start counting.
pub fn start() {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stop counting; returns (allocator calls, bytes requested) since `start`.
pub fn stop() -> (u64, u64) {
    ENABLED.store(false, Ordering::SeqCst);
    (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_server_named_threads_count() {
        assert!(counted_thread("aon-worker-0"));
        assert!(counted_thread("aon-accept"));
        assert!(!counted_thread("aon-governor"));
        assert!(!counted_thread("aon-profiler"));
        assert!(!counted_thread("bench-client-0"));
        assert!(!counted_thread("main"));
    }

    #[test]
    fn counts_a_server_named_thread_and_skips_the_rest() {
        let grab = |name: &str| {
            std::thread::Builder::new()
                .name(name.to_string())
                .spawn(|| drop(std::hint::black_box(Vec::<u8>::with_capacity(4096))))
                .unwrap()
                .join()
                .unwrap();
        };
        start();
        grab("bench-client-7");
        let (skipped, _) = stop();
        start();
        grab("aon-worker-7");
        let (calls, bytes) = stop();
        assert_eq!(skipped, 0, "a harness thread was counted");
        assert!(calls >= 1 && bytes >= 4096, "{calls} calls, {bytes} bytes");
    }
}
