//! Instrumented HTTP/1.1 subset.
//!
//! Enough of HTTP for an AON device's POST-proxying front end: request-line
//! and header parsing (byte-at-a-time, traced), `Content-Length` handling,
//! and response serialization. The parser is deliberately in the style of
//! a 2006 C server: linear scans, case-insensitive header compares, no
//! allocation beyond the header index.

use aon_trace::{br, site, Addr, Probe, RegionSlot};
use aon_xml::input::TBuf;

/// HTTP methods the server accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST` (the AON message path).
    Post,
    /// `HEAD`
    Head,
}

/// A byte range within the request buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Start offset.
    pub start: usize,
    /// End offset (exclusive).
    pub end: usize,
}

/// One parsed header.
#[derive(Debug, Clone, Copy)]
pub struct Header {
    /// Header name span.
    pub name: Span,
    /// Header value span (trimmed of leading spaces).
    pub value: Span,
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Request target (path).
    pub path: Span,
    /// Headers in order.
    pub headers: Vec<Header>,
    /// Offset where the body starts.
    pub body_start: usize,
    /// `Content-Length` value, if present.
    pub content_length: Option<usize>,
}

impl Request {
    /// The body span promised by `Content-Length`, checked against the
    /// bytes actually present (`buf_len` is the full request buffer
    /// length). Returns [`HttpError::Truncated`] when the declared length
    /// exceeds the bytes on hand, instead of letting the app layer read
    /// short. Requests without `Content-Length` have an empty body.
    pub fn body_span(&self, buf_len: usize) -> Result<Span, HttpError> {
        let declared = self.content_length.unwrap_or(0);
        let available = buf_len.checked_sub(self.body_start).ok_or(HttpError::Truncated)?;
        if declared > available {
            return Err(HttpError::Truncated);
        }
        Ok(Span { start: self.body_start, end: self.body_start + declared })
    }

    /// Native (untraced) case-insensitive header lookup; returns the raw
    /// value bytes of the first header named `name`. For the live serving
    /// path, where connection management reads `Connection:` without a
    /// probe.
    pub fn find_header<'a>(&self, buf: &'a [u8], name: &[u8]) -> Option<&'a [u8]> {
        self.headers.iter().find_map(|h| {
            let n = buf.get(h.name.start..h.name.end)?;
            if n.len() == name.len() && n.iter().zip(name).all(|(&a, &b)| lower(a) == lower(b)) {
                buf.get(h.value.start..h.value.end)
            } else {
                None
            }
        })
    }
}

/// Parse failure reasons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpError {
    /// Ran out of bytes mid-construct.
    Truncated,
    /// Unknown or malformed method.
    BadMethod,
    /// Malformed request line.
    BadRequestLine,
    /// Malformed header.
    BadHeader,
    /// Content-Length does not parse.
    BadContentLength,
}

/// ASCII lowercase for header compares (one ALU per byte).
#[inline]
fn lower(b: u8) -> u8 {
    if b.is_ascii_uppercase() {
        b | 0x20
    } else {
        b
    }
}

/// Case-insensitive compare of a scanned header name against an expected
/// literal, traced.
fn header_name_is<P: Probe>(buf: TBuf<'_>, span: Span, expect: &[u8], p: &mut P) -> bool {
    p.alu(1);
    if span.end - span.start != expect.len() {
        p.branch(site!(0x7f1a_b058), false);
        return false;
    }
    for (i, &e) in expect.iter().enumerate() {
        let b = buf.get(span.start + i, p);
        p.alu(2);
        if !br!(p, 0x7c3a_239f, lower(b) == lower(e)) {
            return false;
        }
    }
    true
}

/// Parse a request from the start of `buf`.
pub fn parse_request<P: Probe>(buf: TBuf<'_>, p: &mut P) -> Result<Request, HttpError> {
    let mut pos = 0usize;

    // Method.
    let m0 = buf.try_get(pos, p).ok_or(HttpError::Truncated)?;
    p.alu(1);
    let method = if br!(p, 0x7665_7671, m0 == b'P') {
        expect_bytes(buf, &mut pos, b"POST ", p)?;
        Method::Post
    } else if br!(p, 0x77c1_0a12, m0 == b'G') {
        expect_bytes(buf, &mut pos, b"GET ", p)?;
        Method::Get
    } else if br!(p, 0x779a_1bc5, m0 == b'H') {
        expect_bytes(buf, &mut pos, b"HEAD ", p)?;
        Method::Head
    } else {
        return Err(HttpError::BadMethod);
    };

    // Path up to space.
    let path_start = pos;
    loop {
        let b = buf.try_get(pos, p).ok_or(HttpError::Truncated)?;
        p.alu(1);
        if br!(p, 0x729a_3aa8, b == b' ') {
            break;
        }
        if br!(p, 0x73e1_1a65, b == b'\r' || b == b'\n') {
            return Err(HttpError::BadRequestLine);
        }
        pos += 1;
    }
    // An empty request target (`POST  HTTP/1.1`) is not a request line.
    p.alu(1);
    if !br!(p, 0x613f_eae9, pos > path_start) {
        return Err(HttpError::BadRequestLine);
    }
    let path = Span { start: path_start, end: pos };
    pos += 1;

    // Version to CRLF.
    expect_bytes(buf, &mut pos, b"HTTP/1.", p)?;
    let v = buf.try_get(pos, p).ok_or(HttpError::Truncated)?;
    p.alu(1);
    if !br!(p, 0x6cfa_0a17, v == b'0' || v == b'1') {
        return Err(HttpError::BadRequestLine);
    }
    pos += 1;
    expect_bytes(buf, &mut pos, b"\r\n", p)?;

    // Headers.
    let mut headers = Vec::with_capacity(12);
    let mut content_length = None;
    loop {
        let b = buf.try_get(pos, p).ok_or(HttpError::Truncated)?;
        p.alu(1);
        if br!(p, 0x690b_a788, b == b'\r') {
            expect_bytes(buf, &mut pos, b"\r\n", p)?;
            break;
        }
        // Header name up to ':'.
        let name_start = pos;
        loop {
            let c = buf.try_get(pos, p).ok_or(HttpError::Truncated)?;
            p.alu(1);
            if br!(p, 0x67c8_b4fb, c == b':') {
                break;
            }
            if br!(p, 0x6707_2330, c == b'\r' || c == b'\n') {
                return Err(HttpError::BadHeader);
            }
            pos += 1;
        }
        // `: value` is not a header — the field name must be non-empty.
        p.alu(1);
        if !br!(p, 0x65ca_0de6, pos > name_start) {
            return Err(HttpError::BadHeader);
        }
        let name = Span { start: name_start, end: pos };
        pos += 1;
        // Skip spaces.
        while let Some(c) = buf.try_get(pos, p) {
            p.alu(1);
            if !br!(p, 0x63a5_a72a, c == b' ' || c == b'\t') {
                break;
            }
            pos += 1;
        }
        // Value to CRLF. A bare LF (no preceding CR) or any other control
        // byte except HTAB inside the value is malformed — silently
        // swallowing it would let `X: a\nEvil: b` read as one header.
        let val_start = pos;
        loop {
            let c = buf.try_get(pos, p).ok_or(HttpError::Truncated)?;
            p.alu(1);
            if br!(p, 0x9dfd_3c4d, c == b'\r') {
                break;
            }
            p.alu(2);
            if br!(p, 0x9cc3_5789, (c < 0x20 && c != b'\t') || c == 0x7f) {
                return Err(HttpError::BadHeader);
            }
            pos += 1;
        }
        let value = Span { start: val_start, end: pos };
        expect_bytes(buf, &mut pos, b"\r\n", p)?;
        headers.push(Header { name, value });

        if header_name_is(buf, name, b"content-length", p) {
            let text = buf.span(value.start, value.end);
            p.alu(u32::try_from(text.len()).expect("header values are short"));
            let parsed: Option<usize> =
                std::str::from_utf8(text).ok().and_then(|s| s.trim().parse().ok());
            let parsed = parsed.ok_or(HttpError::BadContentLength)?;
            // Duplicate Content-Length is the request-smuggling bug class:
            // two frontends picking different values desynchronize on the
            // body boundary. Identical repeats are tolerated (RFC 7230
            // §3.3.2); conflicting ones are fatal.
            if let Some(prev) = content_length {
                p.alu(1);
                if !br!(p, 0x66d5_3657, prev == parsed) {
                    return Err(HttpError::BadContentLength);
                }
            }
            content_length = Some(parsed);
        }
    }

    Ok(Request { method, path, headers, body_start: pos, content_length })
}

fn expect_bytes<P: Probe>(
    buf: TBuf<'_>,
    pos: &mut usize,
    lit: &[u8],
    p: &mut P,
) -> Result<(), HttpError> {
    for &want in lit {
        let b = buf.try_get(*pos, p).ok_or(HttpError::Truncated)?;
        p.alu(1);
        if !br!(p, 0x907b_93e3, b == want) {
            return Err(HttpError::BadRequestLine);
        }
        *pos += 1;
    }
    Ok(())
}

/// Serialize a minimal response head into the `OUT` region (stores traced);
/// returns the bytes for native use.
pub fn build_response<P: Probe>(status: u16, body_len: usize, p: &mut P) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        422 => "Unprocessable Entity",
        502 => "Bad Gateway",
        _ => "Unknown",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: text/xml\r\nContent-Length: {body_len}\r\nConnection: close\r\n\r\n"
    );
    // Formatting cost + header stores.
    let head_len = u32::try_from(head.len()).expect("response heads are short");
    p.alu(head_len * 2);
    let words = head_len.div_ceil(8);
    for w in 0..words {
        p.store(Addr::new(RegionSlot::OUT, w * 8), 8);
    }
    head.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aon_trace::{NullProbe, Tracer};

    const REQ: &[u8] = b"POST /aon/route HTTP/1.1\r\nHost: sut:8080\r\nContent-Type: text/xml\r\nContent-Length: 11\r\n\r\n<order:ok/>";

    #[test]
    fn parses_post() {
        let r = parse_request(TBuf::msg(REQ), &mut NullProbe).unwrap();
        assert_eq!(r.method, Method::Post);
        assert_eq!(&REQ[r.path.start..r.path.end], b"/aon/route");
        assert_eq!(r.headers.len(), 3);
        assert_eq!(r.content_length, Some(11));
        assert_eq!(&REQ[r.body_start..], b"<order:ok/>");
    }

    #[test]
    fn parses_get_without_body() {
        let req = b"GET /health HTTP/1.0\r\n\r\n";
        let r = parse_request(TBuf::msg(req), &mut NullProbe).unwrap();
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.content_length, None);
        assert_eq!(r.body_start, req.len());
    }

    #[test]
    fn header_lookup_is_case_insensitive() {
        let req = b"POST / HTTP/1.1\r\nCONTENT-LENGTH: 5\r\n\r\nhello";
        let r = parse_request(TBuf::msg(req), &mut NullProbe).unwrap();
        assert_eq!(r.content_length, Some(5));
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            &b"PUT / HTTP/1.1\r\n\r\n"[..],
            b"POST / FTP/1.1\r\n\r\n",
            b"POST / HTTP/1.1\r\nBad Header\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
            b"POST / HTT",
            b"",
            // Bare LF inside a header value (no CR) must not be swallowed.
            b"POST / HTTP/1.1\r\nX: a\nEvil: b\r\n\r\n",
            // Other control bytes in values are equally malformed.
            b"POST / HTTP/1.1\r\nX: a\x00b\r\n\r\n",
            // Empty request target.
            b"POST  HTTP/1.1\r\n\r\n",
            // Empty header name.
            b"POST / HTTP/1.1\r\n: v\r\n\r\n",
            // Conflicting duplicate Content-Length (request smuggling).
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello",
        ] {
            assert!(
                parse_request(TBuf::msg(bad), &mut NullProbe).is_err(),
                "must reject {:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn bare_lf_in_value_is_bad_header() {
        let bad = b"POST / HTTP/1.1\r\nX: a\nb\r\n\r\n";
        assert_eq!(
            parse_request(TBuf::msg(bad), &mut NullProbe).unwrap_err(),
            HttpError::BadHeader
        );
    }

    #[test]
    fn htab_in_value_is_allowed() {
        let req = b"POST / HTTP/1.1\r\nX: a\tb\r\nContent-Length: 0\r\n\r\n";
        let r = parse_request(TBuf::msg(req), &mut NullProbe).unwrap();
        assert_eq!(r.headers.len(), 2);
    }

    #[test]
    fn empty_path_and_empty_name_error_kinds() {
        assert_eq!(
            parse_request(TBuf::msg(b"POST  HTTP/1.1\r\n\r\n"), &mut NullProbe).unwrap_err(),
            HttpError::BadRequestLine
        );
        assert_eq!(
            parse_request(TBuf::msg(b"POST / HTTP/1.1\r\n: v\r\n\r\n"), &mut NullProbe)
                .unwrap_err(),
            HttpError::BadHeader
        );
    }

    #[test]
    fn duplicate_content_length_identical_ok_conflicting_rejected() {
        let same = b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello";
        let r = parse_request(TBuf::msg(same), &mut NullProbe).unwrap();
        assert_eq!(r.content_length, Some(5));
        let conflict = b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!";
        assert_eq!(
            parse_request(TBuf::msg(conflict), &mut NullProbe).unwrap_err(),
            HttpError::BadContentLength
        );
    }

    #[test]
    fn body_span_checks_bounds() {
        let r = parse_request(TBuf::msg(REQ), &mut NullProbe).unwrap();
        let span = r.body_span(REQ.len()).unwrap();
        assert_eq!(&REQ[span.start..span.end], b"<order:ok/>");
        // A request whose declared length exceeds the bytes on hand must
        // surface Truncated, not read short.
        let short = b"POST / HTTP/1.1\r\nContent-Length: 999\r\n\r\nhello";
        let r = parse_request(TBuf::msg(short), &mut NullProbe).unwrap();
        assert_eq!(r.body_span(short.len()), Err(HttpError::Truncated));
        // No Content-Length: empty body at body_start.
        let get = b"GET /health HTTP/1.0\r\n\r\n";
        let r = parse_request(TBuf::msg(get), &mut NullProbe).unwrap();
        let span = r.body_span(get.len()).unwrap();
        assert_eq!(span.start, span.end);
    }

    #[test]
    fn find_header_is_case_insensitive_and_untraced() {
        let r = parse_request(TBuf::msg(REQ), &mut NullProbe).unwrap();
        assert_eq!(r.find_header(REQ, b"HOST"), Some(&b"sut:8080"[..]));
        assert_eq!(r.find_header(REQ, b"connection"), None);
    }

    #[test]
    fn parsing_is_traced_per_byte() {
        let mut t = Tracer::new();
        parse_request(TBuf::msg(REQ), &mut t).unwrap();
        let s = t.finish().stats();
        // The head (everything before the body) is scanned byte-by-byte.
        assert!(usize::try_from(s.loads).expect("load count fits usize") >= REQ.len() - 11);
        assert!(usize::try_from(s.branches).expect("branch count fits usize") > REQ.len() / 2);
    }

    #[test]
    fn response_head_is_valid_http() {
        let head = build_response(200, 5120, &mut NullProbe);
        let text = String::from_utf8(head).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 5120\r\n"));
        assert!(text.ends_with("\r\n\r\n"));
    }

    #[test]
    fn response_stores_are_traced() {
        let mut t = Tracer::new();
        let head = build_response(502, 0, &mut t);
        let s = t.finish().stats();
        assert!(usize::try_from(s.stores).expect("store count fits usize") >= head.len() / 8);
    }
}
