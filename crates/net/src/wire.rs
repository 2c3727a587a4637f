//! Blocking HTTP/1.1 wire framing for the live serving path.
//!
//! The simulated stack ([`crate::tcpcost`]) models TCP's *cost*; this
//! module moves real bytes over real sockets. It frames one HTTP/1.1
//! message at a time out of a connection byte stream — head up to
//! `\r\n\r\n`, then exactly `Content-Length` body bytes — under hard
//! limits (maximum head size, maximum body size) and a per-message
//! deadline, so a slow or malicious peer can neither balloon memory nor
//! pin a worker thread.
//!
//! Framing is deliberately dumb: it finds the head terminator and the
//! `Content-Length` value and nothing else. The authoritative parse (the
//! instrumented [`aon-server`](../../aon_server/http/index.html) parser
//! with its request-smuggling defenses) runs on the framed bytes at the
//! application layer; the framer mirrors its duplicate-`Content-Length`
//! semantics so the two layers can never disagree about where a body
//! ends.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Hard per-message size limits.
#[derive(Debug, Clone, Copy)]
pub struct WireLimits {
    /// Maximum bytes in the head (request/status line + headers + CRLFCRLF).
    pub max_head: usize,
    /// Maximum bytes in the body (`Content-Length` ceiling).
    pub max_body: usize,
}

impl Default for WireLimits {
    fn default() -> Self {
        WireLimits { max_head: 16 * 1024, max_body: 1024 * 1024 }
    }
}

/// Why a message could not be framed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Clean EOF before any byte of this message (peer closed between
    /// messages — normal keep-alive termination, not an error).
    Closed,
    /// EOF in the middle of a message.
    UnexpectedEof,
    /// The deadline passed before the message completed.
    TimedOut,
    /// The head exceeded [`WireLimits::max_head`] without terminating.
    HeadTooLarge,
    /// The declared body exceeds [`WireLimits::max_body`].
    BodyTooLarge,
    /// The head is structurally unusable (bad or conflicting
    /// `Content-Length`).
    BadFrame,
    /// Any other socket error.
    Io(io::ErrorKind),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Closed => f.write_str("connection closed"),
            WireError::UnexpectedEof => f.write_str("EOF mid-message"),
            WireError::TimedOut => f.write_str("deadline exceeded"),
            WireError::HeadTooLarge => f.write_str("head exceeds limit"),
            WireError::BodyTooLarge => f.write_str("body exceeds limit"),
            WireError::BadFrame => f.write_str("unusable message head"),
            WireError::Io(k) => write!(f, "io error: {k:?}"),
        }
    }
}

/// The socket behaviour framing needs beyond [`Read`]/[`Write`]: arming
/// the read timeout that backs the deadline. Implemented for
/// [`TcpStream`]; tests use in-memory fakes that ignore deadlines.
pub trait WireStream: Read + Write {
    /// Arm the next blocking read to give up after `remaining`.
    fn arm_read_timeout(&mut self, remaining: Duration) -> io::Result<()>;
}

impl WireStream for TcpStream {
    fn arm_read_timeout(&mut self, remaining: Duration) -> io::Result<()> {
        // Zero means "no timeout" to the socket API; clamp up instead.
        self.set_read_timeout(Some(remaining.max(Duration::from_millis(1))))
    }
}

/// One framed message: `head_len + body_len` leading bytes of the
/// connection buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Bytes up to and including the `\r\n\r\n` terminator.
    pub head_len: usize,
    /// Declared body length (0 when no `Content-Length` is present).
    pub body_len: usize,
}

impl Frame {
    /// Total message length in bytes.
    pub fn total(&self) -> usize {
        self.head_len + self.body_len
    }
}

/// Most bytes one `read` asks for while the head's end is unknown.
const HEAD_CHUNK: usize = 8 * 1024;

/// How far the socket's armed read timeout may exceed the time left to the
/// deadline before [`FrameBuf`] re-arms it — and so, with the socket
/// timer's own granularity, the most a stalled peer can overshoot a
/// deadline.
const REARM_SLACK: Duration = Duration::from_millis(10);

/// A connection-scoped read buffer that frames messages out of a byte
/// stream, retaining any bytes read past the current message (pipelined
/// or keep-alive follow-ups) for the next call.
///
/// The stream reads straight into the buffer's own storage, which is kept
/// for the life of the connection: it grows to the largest message seen —
/// never beyond `max_head + max(max_body, 8 KiB)` — and a later message of
/// that size or less allocates and zeroes nothing. Use one `FrameBuf` per
/// stream: it remembers the read timeout it armed on it.
#[derive(Debug, Default)]
pub struct FrameBuf {
    /// `buf[..filled]` is received data; the rest is spare room with
    /// unspecified contents (stale bytes of earlier messages).
    buf: Vec<u8>,
    filled: usize,
    /// Where the `\r\n\r\n` scan resumes (avoid rescanning the head on
    /// every chunk).
    scan_from: usize,
    /// The read timeout last armed on the stream.
    armed: Option<Duration>,
}

impl FrameBuf {
    /// An empty buffer.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// The buffered bytes (the current message occupies the front).
    pub fn bytes(&self) -> &[u8] {
        &self.buf[..self.filled]
    }

    /// True if no bytes of the next message have arrived yet.
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// Discard the first `n` bytes (a consumed message).
    pub fn consume(&mut self, n: usize) {
        let n = n.min(self.filled);
        self.buf.copy_within(n..self.filled, 0);
        self.filled -= n;
        self.scan_from = 0;
    }

    /// Read from `stream` until one complete message (head + declared
    /// body) is buffered, enforcing `limits` and `deadline`.
    pub fn read_frame<S: WireStream>(
        &mut self,
        stream: &mut S,
        limits: &WireLimits,
        deadline: Instant,
    ) -> Result<Frame, WireError> {
        // Head.
        let head_len = loop {
            if let Some(n) = find_head_end(self.bytes(), self.scan_from) {
                break n;
            }
            // Resume the next scan a little before the current end so a
            // terminator split across chunks is still found.
            self.scan_from = self.filled.saturating_sub(3);
            if self.filled > limits.max_head {
                return Err(WireError::HeadTooLarge);
            }
            self.fill(stream, deadline, HEAD_CHUNK)?;
        };
        if head_len > limits.max_head {
            return Err(WireError::HeadTooLarge);
        }

        // Body: ask for exactly what the declared length still lacks, so
        // a large body arrives in as few reads as the socket allows and
        // nothing of a following message is pulled in behind it.
        let body_len = match content_length(&self.buf[..head_len]) {
            Ok(n) => n.unwrap_or(0),
            Err(()) => return Err(WireError::BadFrame),
        };
        if body_len > limits.max_body {
            return Err(WireError::BodyTooLarge);
        }
        let total = head_len + body_len;
        while self.filled < total {
            self.fill(stream, deadline, total - self.filled)?;
        }
        Ok(Frame { head_len, body_len })
    }

    /// One successful `read` of at most `want` bytes into the buffer,
    /// honoring the deadline, which is tested before every read.
    ///
    /// The socket's own read timeout only has to wake a blocked read soon
    /// after the deadline, so it is re-armed when the value armed earlier
    /// would let a read outlast the deadline by more than [`REARM_SLACK`]
    /// and otherwise left alone — on a keep-alive connection whose
    /// messages each get the same time allowance, that is once. A socket
    /// timeout that fires *before* the deadline is not the deadline: the
    /// timer is re-armed with what is left and the read retried.
    ///
    /// `EINTR` (`ErrorKind::Interrupted`) is not a connection failure —
    /// the kernel delivered a signal before any bytes arrived — so the
    /// read is retried within whatever deadline budget remains instead of
    /// surfacing as a hard [`WireError::Io`] that would tear down a
    /// healthy connection. The deadline still bounds an interrupt storm.
    fn fill<S: WireStream>(
        &mut self,
        stream: &mut S,
        deadline: Instant,
        want: usize,
    ) -> Result<(), WireError> {
        let end = self.filled + want;
        if self.buf.len() < end {
            self.buf.resize(end, 0);
        }
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(WireError::TimedOut);
            }
            if self.armed.is_none_or(|armed| armed > remaining + REARM_SLACK) {
                stream.arm_read_timeout(remaining).map_err(|e| WireError::Io(e.kind()))?;
                self.armed = Some(remaining);
            }
            match stream.read(&mut self.buf[self.filled..end]) {
                // A clean close is only clean between messages.
                Ok(0) if self.filled == 0 => return Err(WireError::Closed),
                Ok(0) => return Err(WireError::UnexpectedEof),
                Ok(n) => {
                    self.filled += n;
                    return Ok(());
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    // Whether this is the deadline is for the test at the
                    // top of the loop to say; if not, the timer was armed
                    // for less than is left now.
                    self.armed = None;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(WireError::Io(e.kind())),
            }
        }
    }
}

/// Offset just past the `\r\n\r\n` terminator, scanning from `from`.
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    let start = from.min(buf.len());
    buf[start..].windows(4).position(|w| w == b"\r\n\r\n").map(|i| start + i + 4)
}

/// Scan a message head for `Content-Length`, mirroring the instrumented
/// parser's duplicate semantics: identical repeats are fine, conflicting
/// or unparseable values are an error.
fn content_length(head: &[u8]) -> Result<Option<usize>, ()> {
    let mut found: Option<usize> = None;
    for line in head.split(|&b| b == b'\n') {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let Some(colon) = line.iter().position(|&b| b == b':') else { continue };
        if !line[..colon].eq_ignore_ascii_case(b"content-length") {
            continue;
        }
        let value = std::str::from_utf8(&line[colon + 1..]).map_err(|_| ())?;
        let n: usize = value.trim().parse().map_err(|_| ())?;
        match found {
            Some(prev) if prev != n => return Err(()),
            _ => found = Some(n),
        }
    }
    Ok(found)
}

/// Parse the status code out of an HTTP/1.x status line (`HTTP/1.1 200 OK`).
pub fn status_code(head: &[u8]) -> Option<u16> {
    let line = head.split(|&b| b == b'\r').next()?;
    let mut parts = line.split(|&b| b == b' ').filter(|p| !p.is_empty());
    let version = parts.next()?;
    if !version.starts_with(b"HTTP/1.") {
        return None;
    }
    let code = parts.next()?;
    std::str::from_utf8(code).ok()?.parse().ok()
}

/// Write a complete message, mapping timeouts onto [`WireError`].
pub fn write_all<S: WireStream>(stream: &mut S, bytes: &[u8]) -> Result<(), WireError> {
    match stream.write_all(bytes).and_then(|()| stream.flush()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            Err(WireError::TimedOut)
        }
        Err(e) => Err(WireError::Io(e.kind())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake stream feeding scripted read results — data chunks or
    /// errors (e.g. an `Interrupted` read mid-message); deadlines are
    /// ignored.
    struct Script {
        steps: Vec<Result<Vec<u8>, io::ErrorKind>>,
        next: usize,
    }

    impl Script {
        fn of(chunks: &[&[u8]]) -> Script {
            Script { steps: chunks.iter().map(|c| Ok(c.to_vec())).collect(), next: 0 }
        }

        fn steps(steps: &[Result<&[u8], io::ErrorKind>]) -> Script {
            Script { steps: steps.iter().map(|s| (*s).map(<[u8]>::to_vec)).collect(), next: 0 }
        }
    }

    impl Read for Script {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.next >= self.steps.len() {
                return Ok(0); // EOF
            }
            let step = self.steps[self.next].clone();
            self.next += 1;
            match step {
                Ok(chunk) => {
                    out[..chunk.len()].copy_from_slice(&chunk);
                    Ok(chunk.len())
                }
                Err(kind) => Err(io::Error::from(kind)),
            }
        }
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl WireStream for Script {
        fn arm_read_timeout(&mut self, _remaining: Duration) -> io::Result<()> {
            Ok(())
        }
    }

    fn deadline() -> Instant {
        Instant::now() + Duration::from_secs(5)
    }

    #[test]
    fn frames_a_message_split_across_chunks() {
        let mut s =
            Script::of(&[b"POST / HTTP/1.1\r\nContent-Le", b"ngth: 5\r\n\r", b"\nhel", b"lo"]);
        let mut fb = FrameBuf::new();
        let f = fb.read_frame(&mut s, &WireLimits::default(), deadline()).unwrap();
        assert_eq!(f.body_len, 5);
        assert_eq!(&fb.bytes()[f.head_len..f.total()], b"hello");
    }

    #[test]
    fn retains_pipelined_bytes_across_consume() {
        let two = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let mut s = Script::of(&[two]);
        let mut fb = FrameBuf::new();
        let f1 = fb.read_frame(&mut s, &WireLimits::default(), deadline()).unwrap();
        assert!(fb.bytes()[..f1.total()].ends_with(b"/a HTTP/1.1\r\n\r\n"));
        fb.consume(f1.total());
        let f2 = fb.read_frame(&mut s, &WireLimits::default(), deadline()).unwrap();
        assert!(fb.bytes()[..f2.total()].starts_with(b"GET /b"));
    }

    #[test]
    fn clean_close_between_messages_is_closed_mid_message_is_eof() {
        let mut s = Script::of(&[]);
        let mut fb = FrameBuf::new();
        assert_eq!(
            fb.read_frame(&mut s, &WireLimits::default(), deadline()).unwrap_err(),
            WireError::Closed
        );
        let mut s = Script::of(&[b"POST / HT"]);
        let mut fb = FrameBuf::new();
        assert_eq!(
            fb.read_frame(&mut s, &WireLimits::default(), deadline()).unwrap_err(),
            WireError::UnexpectedEof
        );
    }

    #[test]
    fn head_and_body_limits_are_enforced() {
        let limits = WireLimits { max_head: 64, max_body: 16 };
        let long_head = vec![b'x'; 100];
        let mut s = Script::of(&[&long_head]);
        assert_eq!(
            FrameBuf::new().read_frame(&mut s, &limits, deadline()).unwrap_err(),
            WireError::HeadTooLarge
        );
        let mut s = Script::of(&[b"POST / HTTP/1.1\r\nContent-Length: 999\r\n\r\n"]);
        assert_eq!(
            FrameBuf::new().read_frame(&mut s, &limits, deadline()).unwrap_err(),
            WireError::BodyTooLarge
        );
    }

    #[test]
    fn conflicting_content_length_is_bad_frame() {
        let mut s =
            Script::of(&[b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n"]);
        assert_eq!(
            FrameBuf::new().read_frame(&mut s, &WireLimits::default(), deadline()).unwrap_err(),
            WireError::BadFrame
        );
        // Identical duplicates frame fine (the parser above re-checks).
        let mut s =
            Script::of(&[b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok"]);
        let f = FrameBuf::new().read_frame(&mut s, &WireLimits::default(), deadline()).unwrap();
        assert_eq!(f.body_len, 2);
    }

    #[test]
    fn interrupted_reads_retry_instead_of_dropping_the_connection() {
        // EINTR before the head, inside the head, and inside the body:
        // each is retried and the message still frames completely.
        let mut s = Script::steps(&[
            Err(io::ErrorKind::Interrupted),
            Ok(b"POST / HTTP/1.1\r\nContent-"),
            Err(io::ErrorKind::Interrupted),
            Err(io::ErrorKind::Interrupted),
            Ok(b"Length: 5\r\n\r\n"),
            Err(io::ErrorKind::Interrupted),
            Ok(b"hello"),
        ]);
        let mut fb = FrameBuf::new();
        let f = fb.read_frame(&mut s, &WireLimits::default(), deadline()).unwrap();
        assert_eq!(f.body_len, 5);
        assert_eq!(&fb.bytes()[f.head_len..f.total()], b"hello");
    }

    #[test]
    fn interrupt_storm_is_bounded_by_the_deadline() {
        // A stream that only ever returns EINTR cannot spin forever: the
        // deadline check in the retry loop converts it to a timeout.
        struct AlwaysInterrupted;
        impl Read for AlwaysInterrupted {
            fn read(&mut self, _out: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::from(io::ErrorKind::Interrupted))
            }
        }
        impl Write for AlwaysInterrupted {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        impl WireStream for AlwaysInterrupted {
            fn arm_read_timeout(&mut self, _remaining: Duration) -> io::Result<()> {
                Ok(())
            }
        }
        let mut fb = FrameBuf::new();
        let short = Instant::now() + Duration::from_millis(20);
        assert_eq!(
            fb.read_frame(&mut AlwaysInterrupted, &WireLimits::default(), short).unwrap_err(),
            WireError::TimedOut
        );
    }

    #[test]
    fn non_eintr_errors_still_surface_as_io() {
        let mut s =
            Script::steps(&[Ok(b"POST / HTTP/1.1\r\n"), Err(io::ErrorKind::ConnectionReset)]);
        let mut fb = FrameBuf::new();
        assert_eq!(
            fb.read_frame(&mut s, &WireLimits::default(), deadline()).unwrap_err(),
            WireError::Io(io::ErrorKind::ConnectionReset)
        );
    }

    #[test]
    fn expired_deadline_times_out() {
        let mut s = Script::of(&[b"POST / HTTP/1.1\r\n"]);
        let mut fb = FrameBuf::new();
        let past = Instant::now() - Duration::from_millis(1);
        // First fill happens after the deadline check sees zero remaining.
        assert_eq!(
            fb.read_frame(&mut s, &WireLimits::default(), past).unwrap_err(),
            WireError::TimedOut
        );
    }

    /// A fake socket that behaves like one where [`Script`] does not: it
    /// hands over no more than the caller's slice takes and keeps the
    /// rest, blocks for the armed timeout when told to stall, and records
    /// every `read` (requested length, timeout armed at that moment) and
    /// every `arm_read_timeout`.
    #[derive(Default)]
    struct Counting {
        data: Vec<u8>,
        pos: usize,
        /// Errors returned, in order, before any more data.
        errors: std::collections::VecDeque<io::ErrorKind>,
        /// When out of data, sleep for the armed timeout and time out
        /// (a blocked `recv` with `SO_RCVTIMEO`) instead of reporting EOF.
        stall: bool,
        armed: Option<Duration>,
        arms: usize,
        reads: Vec<(usize, Option<Duration>)>,
    }

    impl Counting {
        fn sending(messages: &[&[u8]]) -> Counting {
            Counting { data: messages.concat(), ..Counting::default() }
        }
    }

    impl Read for Counting {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.reads.push((out.len(), self.armed));
            if let Some(kind) = self.errors.pop_front() {
                return Err(io::Error::from(kind));
            }
            let n = out.len().min(self.data.len() - self.pos);
            if n == 0 && self.stall {
                std::thread::sleep(self.armed.expect("a blocking read needs a timeout"));
                return Err(io::Error::from(io::ErrorKind::WouldBlock));
            }
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl WireStream for Counting {
        fn arm_read_timeout(&mut self, remaining: Duration) -> io::Result<()> {
            self.armed = Some(remaining);
            self.arms += 1;
            Ok(())
        }
    }

    fn post(body_len: usize) -> Vec<u8> {
        let mut m =
            format!("POST /aon/cbr HTTP/1.1\r\nContent-Length: {body_len}\r\n\r\n").into_bytes();
        m.resize(m.len() + body_len, b'x');
        m
    }

    #[test]
    fn later_messages_of_a_connection_do_not_re_arm_the_timeout() {
        let m = post(100);
        let mut s = Counting::default();
        let mut fb = FrameBuf::new();
        for i in 0..4 {
            // The peer sends a message once the last is answered, and — as
            // the server does — every message gets the same allowance.
            s.data.extend_from_slice(&m);
            let f = fb.read_frame(&mut s, &WireLimits::default(), deadline()).unwrap();
            assert_eq!(f.total(), m.len());
            fb.consume(f.total());
            assert_eq!(s.reads.len(), i + 1);
            assert_eq!(s.arms, 1, "message {i}: only the first read of a connection arms");
        }
        assert_eq!(
            fb.read_frame(&mut s, &WireLimits::default(), deadline()),
            Err(WireError::Closed)
        );
        assert_eq!(s.arms, 1);
    }

    #[test]
    fn a_large_body_is_one_exact_read_into_a_buffer_that_stops_growing() {
        let m = post(64 * 1024);
        let mut s = Counting::sending(&[&m, &m, &m]);
        let mut fb = FrameBuf::new();
        let mut capacity = Vec::new();
        for _ in 0..3 {
            let f = fb.read_frame(&mut s, &WireLimits::default(), deadline()).unwrap();
            assert_eq!(&fb.bytes()[..f.total()], &m[..]);
            fb.consume(f.total());
            assert!(fb.is_empty(), "an exact body read leaves nothing of the next message");
            capacity.push(fb.buf.capacity());
        }
        // Per message: up to 8 KiB while the head's end is unknown, then
        // exactly what the body still lacks.
        let lengths: Vec<usize> = s.reads.iter().map(|r| r.0).collect();
        assert_eq!(lengths, [HEAD_CHUNK, m.len() - HEAD_CHUNK].repeat(3));
        assert_eq!(capacity[1], capacity[0], "the second message must not regrow the buffer");
        assert_eq!(capacity[2], capacity[0]);
        assert!(capacity[0] <= 2 * m.len(), "{capacity:?}");
    }

    #[test]
    fn a_socket_timeout_before_the_deadline_is_retried_not_reported() {
        let m = post(10);
        let mut s = Counting::sending(&[&m]);
        s.errors.extend([io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut]);
        let mut fb = FrameBuf::new();
        let f = fb.read_frame(&mut s, &WireLimits::default(), deadline()).unwrap();
        assert_eq!(f.body_len, 10);
        // Each early wake-up re-arms the timer with what is left.
        assert_eq!(s.arms, 3);
    }

    #[test]
    fn an_armed_timeout_never_outlasts_the_deadline_by_more_than_the_slack() {
        let m = post(10);
        let mut s = Counting::default();
        let mut fb = FrameBuf::new();
        let mut frame = |s: &mut Counting, allowance: Duration| {
            // One message per read, as a request/response peer sends them.
            s.data.extend_from_slice(&m);
            let f = fb.read_frame(s, &WireLimits::default(), Instant::now() + allowance).unwrap();
            fb.consume(f.total());
        };
        frame(&mut s, Duration::from_secs(10));
        // A much shorter allowance: the 10 s timer is no bound for it.
        frame(&mut s, Duration::from_secs(1));
        assert_eq!(s.arms, 2);
        assert!(s.reads[1].1.unwrap() <= Duration::from_secs(1), "{:?}", s.reads);
        // A longer one: a timer that fires early is harmless, so it stays.
        frame(&mut s, Duration::from_secs(10));
        assert_eq!(s.arms, 2);
    }

    #[test]
    fn a_stalled_peer_times_out_within_the_overshoot_bound() {
        // Half a head, then silence, on a connection whose timer was armed
        // for an earlier message with a slightly longer allowance — inside
        // the slack, so it is not re-armed and the read outlasts the
        // deadline by the difference.
        let m = post(10);
        let mut s = Counting::sending(&[&m, b"POST /aon/fr HTTP/1.1\r\nContent-"]);
        s.stall = true;
        let mut fb = FrameBuf::new();
        let f = fb
            .read_frame(&mut s, &WireLimits::default(), Instant::now() + Duration::from_millis(48))
            .unwrap();
        fb.consume(f.total());
        let deadline = Instant::now() + Duration::from_millis(40);
        assert_eq!(
            fb.read_frame(&mut s, &WireLimits::default(), deadline),
            Err(WireError::TimedOut)
        );
        let late = Instant::now().saturating_duration_since(deadline);
        assert_eq!(s.arms, 1, "the earlier timer was within the slack");
        assert!(!fb.is_empty(), "the partial head stays buffered (the server answers 408)");
        // The bound, plus room for this host's scheduler.
        assert!(late <= REARM_SLACK + Duration::from_millis(40), "timed out {late:?} late");
    }

    #[test]
    fn status_line_parses() {
        assert_eq!(status_code(b"HTTP/1.1 200 OK\r\n..."), Some(200));
        assert_eq!(status_code(b"HTTP/1.1 422 Unprocessable Entity\r\n"), Some(422));
        assert_eq!(status_code(b"ICY 200 OK\r\n"), None);
        assert_eq!(status_code(b""), None);
    }
}
