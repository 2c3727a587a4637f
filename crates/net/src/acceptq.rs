//! Bounded hand-off queue — a library type with no caller in the live
//! server, whose workers block in `accept(2)` themselves (the kernel's
//! listen backlog is the bounded queue in front of the pool). It is kept,
//! with its unit and schedule-stress tests, for `benchmark/src/layers.rs`,
//! which measures it as `net.acceptq.*`; the `benchmark/` PR that retires
//! those metrics deletes this file.
//!
//! The queue is a plain `Mutex<VecDeque>` + `Condvar` MPMC channel with a
//! close/drain protocol for graceful shutdown: after [`AcceptQueue::close`]
//! producers are refused, but consumers keep draining whatever was already
//! accepted, and only then observe [`Pop::Closed`].

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// An item stamped with its enqueue time, so the consumer can attribute
/// queue wait — the gap between a connection being accepted and a worker
/// picking it up — to the request it serves. The paper's service-time
/// decomposition starts at TCP termination; without this stamp the
/// server's own view starts only when a worker reads the first byte, and
/// queueing delay silently disappears from every trace.
#[derive(Debug, PartialEq, Eq)]
pub struct Timed<T> {
    /// The queued item.
    pub item: T,
    /// When the producer enqueued it.
    pub enqueued_at: Instant,
}

impl<T> Timed<T> {
    /// Stamp `item` with the current instant.
    pub fn now(item: T) -> Timed<T> {
        Timed { item, enqueued_at: Instant::now() }
    }

    /// Nanoseconds since the item was enqueued (the queue wait, when
    /// called at dequeue time).
    pub fn wait_ns(&self) -> u64 {
        u64::try_from(self.enqueued_at.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Result of a [`AcceptQueue::pop`].
#[derive(Debug, PartialEq, Eq)]
pub enum Pop<T> {
    /// An item was dequeued.
    Item(T),
    /// The wait elapsed with the queue open but empty.
    Empty,
    /// The queue is closed and fully drained — the consumer should exit.
    Closed,
}

/// Why a [`AcceptQueue::push`] was refused; the item is handed back so
/// the caller can drop (or retry) the connection. The two cases are
/// distinct observables: `Full` is overload shed at the edge, `Closed`
/// is a connection arriving during shutdown drain.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue already holds `capacity` items (admission control).
    Full(T),
    /// The queue was closed ([`AcceptQueue::close`]) before the push.
    Closed(T),
}

impl<T> PushError<T> {
    /// Recover the refused item.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(item) | PushError::Closed(item) => item,
        }
    }
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded, closeable MPMC hand-off queue.
pub struct AcceptQueue<T> {
    // audit:role(queue): items + closed bit; every push/pop/close edge
    // happens under this mutex, so no atomics appear on the queue at all
    state: Mutex<State<T>>,
    // audit:role(queue): wakes poppers; always signalled with the state
    // mutex held-then-released, never used to pass data itself
    available: Condvar,
    capacity: usize,
}

impl<T> AcceptQueue<T> {
    /// A queue admitting at most `capacity` queued items.
    pub fn new(capacity: usize) -> AcceptQueue<T> {
        assert!(capacity > 0, "a zero-capacity backlog would refuse everything");
        AcceptQueue {
            state: Mutex::new(State { items: VecDeque::with_capacity(capacity), closed: false }),
            available: Condvar::new(),
            capacity,
        }
    }

    /// Enqueue `item`; on a full or closed queue the item is handed back
    /// (the caller drops the connection — admission control). On success
    /// returns the queue depth **after** the push, so producers can track
    /// the depth high-water mark without a second lock.
    pub fn push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut s = self.state.lock().expect("accept queue poisoned");
        if s.closed {
            return Err(PushError::Closed(item));
        }
        if s.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        s.items.push_back(item);
        let depth = s.items.len();
        drop(s);
        self.available.notify_one();
        Ok(depth)
    }

    /// Dequeue, waiting up to `wait` for an item. Draining outlives
    /// closing: a closed queue keeps yielding items until empty.
    pub fn pop(&self, wait: Duration) -> Pop<T> {
        let mut s = self.state.lock().expect("accept queue poisoned");
        loop {
            if let Some(item) = s.items.pop_front() {
                return Pop::Item(item);
            }
            if s.closed {
                return Pop::Closed;
            }
            let (next, timeout) =
                self.available.wait_timeout(s, wait).expect("accept queue poisoned");
            s = next;
            if timeout.timed_out() {
                return match s.items.pop_front() {
                    Some(item) => Pop::Item(item),
                    None if s.closed => Pop::Closed,
                    None => Pop::Empty,
                };
            }
        }
    }

    /// Refuse new items and wake every waiting consumer.
    pub fn close(&self) {
        self.state.lock().expect("accept queue poisoned").closed = true;
        self.available.notify_all();
    }

    /// The bound: the depth at which pushes start failing with
    /// [`PushError::Full`]. A `Full` refusal therefore *means* the queue
    /// stood at exactly this depth — the shed-path depth accounting in
    /// the server's listener relies on that.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Queued items right now.
    pub fn len(&self) -> usize {
        self.state.lock().expect("accept queue poisoned").items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bounded_push_sheds_overload_and_reports_depth() {
        let q = AcceptQueue::new(2);
        assert_eq!(q.capacity(), 2);
        assert_eq!(q.push(1), Ok(1));
        assert_eq!(q.push(2), Ok(2));
        assert_eq!(q.push(3), Err(PushError::Full(3)));
        assert_eq!(q.len(), 2, "a Full refusal happens with the queue at capacity");
        assert_eq!(q.push(4).expect_err("full").into_inner(), 4);
    }

    #[test]
    fn pop_drains_then_reports_closed() {
        let q = AcceptQueue::new(4);
        q.push(10).unwrap();
        q.push(11).unwrap();
        q.close();
        assert_eq!(q.push(12), Err(PushError::Closed(12)), "closed queue refuses producers");
        assert_eq!(q.pop(Duration::from_millis(1)), Pop::Item(10));
        assert_eq!(q.pop(Duration::from_millis(1)), Pop::Item(11));
        assert_eq!(q.pop(Duration::from_millis(1)), Pop::<i32>::Closed);
    }

    #[test]
    fn empty_open_queue_times_out() {
        let q: AcceptQueue<i32> = AcceptQueue::new(1);
        assert_eq!(q.pop(Duration::from_millis(1)), Pop::Empty);
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q: Arc<AcceptQueue<i32>> = Arc::new(AcceptQueue::new(1));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || q2.pop(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().expect("consumer thread"), Pop::Closed);
    }

    #[test]
    fn close_while_full_drains_everything_then_reports_closed() {
        let q = AcceptQueue::new(2);
        q.push(1).expect("fits");
        q.push(2).expect("fits");
        assert_eq!(q.push(3), Err(PushError::Full(3)), "full before close sheds as Full");
        q.close();
        // Closed wins over Full once the close lands, even with room freed.
        assert_eq!(q.pop(Duration::from_millis(1)), Pop::Item(1));
        assert_eq!(q.push(4), Err(PushError::Closed(4)));
        assert_eq!(q.pop(Duration::from_millis(1)), Pop::Item(2));
        assert_eq!(q.pop(Duration::from_millis(1)), Pop::<i32>::Closed);
        assert!(q.is_empty());
    }

    #[test]
    fn timed_wrapper_measures_time_since_enqueue() {
        let q: AcceptQueue<Timed<u32>> = AcceptQueue::new(4);
        q.push(Timed::now(7)).expect("fits");
        std::thread::sleep(Duration::from_millis(5));
        let Pop::Item(t) = q.pop(Duration::from_millis(1)) else {
            panic!("item queued above");
        };
        assert_eq!(t.item, 7);
        assert!(t.wait_ns() >= 2_000_000, "waited ~5ms, got {}ns", t.wait_ns());
        // The wait keeps growing monotonically after dequeue.
        let first = t.wait_ns();
        assert!(t.wait_ns() >= first);
    }

    #[test]
    fn items_flow_across_threads() {
        let q: Arc<AcceptQueue<usize>> = Arc::new(AcceptQueue::new(64));
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..100 {
                    while q.push(i).is_err() {
                        std::thread::yield_now();
                    }
                }
                q.close();
            })
        };
        let mut got = Vec::new();
        loop {
            match q.pop(Duration::from_millis(50)) {
                Pop::Item(i) => got.push(i),
                Pop::Empty => continue,
                Pop::Closed => break,
            }
        }
        producer.join().expect("producer thread");
        assert_eq!(got.len(), 100);
    }
}
