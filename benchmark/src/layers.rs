//! One thin function per layer: the only file of the per-layer run that
//! names a workspace API below `aon_serve::Server`. A change that
//! collapses `Engine::process_*` or moves a parser edits this file and no
//! other line of the benchmark.
//!
//! Each function is the public call the live worker makes at that layer
//! (`crates/serve/src/server.rs`, `handle_connection` / `handle_request`),
//! fed from memory instead of a socket.

use aon_net::acceptq::{AcceptQueue, Pop, Timed};
use aon_net::wire::{self, Frame, WireError, WireLimits, WireStream};
use aon_server::{http, Engine, ParseMode, UseCase};
use aon_trace::NullProbe;
use aon_xml::input::TBuf;
use std::io::{self, Read, Write};
use std::ops::Range;
use std::time::{Duration, Instant};

pub use aon_net::wire::FrameBuf;
pub use aon_obs::stage::{Stage, StageRecorder};

/// A request's bytes served the way a socket serves them: as much as the
/// caller's buffer takes per `read`.
struct MemStream<'a> {
    data: &'a [u8],
}

impl Read for MemStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

impl Write for MemStream<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl WireStream for MemStream<'_> {
    fn arm_read_timeout(&mut self, _remaining: Duration) -> io::Result<()> {
        Ok(())
    }
}

/// `net.wire.read_frame`: frame one request out of `bytes` into `fb`.
pub fn read_frame(fb: &mut FrameBuf, bytes: &[u8]) -> Result<Frame, WireError> {
    let far = Instant::now() + Duration::from_secs(3600);
    fb.read_frame(&mut MemStream { data: bytes }, &WireLimits::default(), far)
}

/// What the worker takes from the parsed head.
pub struct Parsed {
    pub use_case: UseCase,
    pub body: Range<usize>,
}

/// `server.http.parse_request`: the authoritative head parse and the
/// worker's routing of the path onto a use case.
pub fn parse_request(msg: &[u8]) -> Option<Parsed> {
    let req = http::parse_request(TBuf::msg(msg), &mut NullProbe).ok()?;
    let body = req.body_span(msg.len()).ok()?;
    let use_case = match &msg[req.path.start..req.path.end] {
        b"/aon/fr" => UseCase::Fr,
        b"/aon/cbr" => UseCase::Cbr,
        b"/aon/sv" => UseCase::Sv,
        _ => return None,
    };
    Some(Parsed { use_case, body: body.start..body.end })
}

pub fn engine() -> Engine {
    Engine::new()
}

/// `server.engine.process`: the call `handle_request` makes, with the
/// caller's recorder around each stage. `None` is an engine error.
pub fn process<R: StageRecorder>(
    engine: &Engine,
    use_case: UseCase,
    body: &[u8],
    rec: &mut R,
) -> Option<bool> {
    engine.process_mode_staged(ParseMode::Fast, use_case, body, rec).ok()
}

/// `server.http.build_response`: head plus the fixed verdict body.
pub fn build_response(routed: bool) -> Vec<u8> {
    let (status, body) =
        if routed { (200, "<aon routed=\"true\"/>") } else { (422, "<aon routed=\"false\"/>") };
    let mut out = http::build_response(status, body.len(), &mut NullProbe);
    out.extend_from_slice(body.as_bytes());
    out
}

/// `net.wire.write_all`: the response through the wire writer to a sink.
pub fn write_all(bytes: &[u8]) -> Result<(), WireError> {
    wire::write_all(&mut MemStream { data: &[] }, bytes)
}

/// `xml.scan`: the SWAR scanner over a whole body (the needle never
/// occurs in XML text, so nothing ends the scan early).
pub fn scan(body: &[u8]) -> Option<usize> {
    aon_xml::scan::find_byte(0, body)
}

/// `xml.parse`: the lazy parser alone; true when the body is well formed.
pub fn lazy_parse(body: &[u8]) -> bool {
    aon_xml::lazy::parse_document_lazy(body).is_ok()
}

/// The accept queue between listener and pool, sized as the server's.
pub fn accept_queue() -> AcceptQueue<Timed<u64>> {
    AcceptQueue::new(aon_serve::ServeConfig::default().accept_backlog)
}

/// `net.acceptq` producer side.
pub fn acceptq_push(q: &AcceptQueue<Timed<u64>>, item: u64) -> bool {
    q.push(Timed::now(item)).is_ok()
}

/// `net.acceptq` consumer side: the queue wait in ns, as the worker
/// reads it off the stamp; `None` on time-out or close.
pub fn acceptq_pop(q: &AcceptQueue<Timed<u64>>, wait: Duration) -> Option<u64> {
    match q.pop(wait) {
        Pop::Item(timed) => Some(timed.wait_ns()),
        Pop::Empty | Pop::Closed => None,
    }
}
