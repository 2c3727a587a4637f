//! SOAP envelope helpers.
//!
//! AON traffic arrives as SOAP messages over HTTP POST (paper §3.2.1). These
//! helpers locate the envelope parts in a parsed document and build
//! envelopes around payloads — both traced, since envelope handling is part
//! of the per-message work.

use crate::dom::{Document, NodeId, NodeKind};
use crate::error::{XmlError, XmlErrorKind, XmlResult};
use aon_trace::Probe;

/// A (possibly prefixed) name without its prefix.
fn local_part(name: &[u8]) -> &[u8] {
    match name.iter().rposition(|&b| b == b':') {
        Some(i) => &name[i + 1..],
        None => name,
    }
}

/// Does this element's (possibly prefixed) name have the given local part?
fn local_name_is<P: Probe>(doc: &Document, node: NodeId, local: &[u8], p: &mut P) -> bool {
    match doc.kind_t(node, p) {
        NodeKind::Element(nm) => {
            let bytes = doc.name_bytes(nm);
            p.alu((bytes.len() as u32).div_ceil(4) + 1);
            local_part(bytes) == local
        }
        _ => false,
    }
}

/// Find the SOAP `Body` element of a parsed envelope.
pub fn find_body<P: Probe>(doc: &Document, p: &mut P) -> XmlResult<NodeId> {
    let root = doc.root()?;
    if !local_name_is(doc, root, b"Envelope", p) {
        return Err(XmlError::at(XmlErrorKind::UnexpectedByte, 0));
    }
    let mut cur = doc.first_child_t(root, p);
    while let Some(c) = cur {
        if local_name_is(doc, c, b"Body", p) {
            return Ok(c);
        }
        cur = doc.next_sibling_t(c, p);
    }
    Err(XmlError::at(XmlErrorKind::NoRoot, 0))
}

/// Find the first child element of the SOAP body — the payload root.
pub fn payload_root<P: Probe>(doc: &Document, p: &mut P) -> XmlResult<NodeId> {
    let body = find_body(doc, p)?;
    let mut cur = doc.first_child_t(body, p);
    while let Some(c) = cur {
        if matches!(doc.kind_t(c, p), NodeKind::Element(_)) {
            return Ok(c);
        }
        cur = doc.next_sibling_t(c, p);
    }
    Err(XmlError::at(XmlErrorKind::NoRoot, 0))
}

/// [`payload_root`] for the event pass ([`crate::events`]): fed every
/// start and end tag in document order, it names the start tag that opens
/// the payload root — the first element child of the first `Body` child
/// of an `Envelope` root — and reports at most one.
#[derive(Debug, Default)]
pub struct PayloadFinder {
    /// Elements open right now.
    depth: usize,
    body: BodyState,
}

#[derive(Debug, Default, PartialEq, Eq)]
enum BodyState {
    #[default]
    NotSeen,
    /// Inside the first `Body`, payload not seen yet.
    Open,
    /// No payload can follow: the root is no `Envelope`, or the first
    /// `Body` has produced its payload or closed without one.
    Spent,
}

impl PayloadFinder {
    /// A start tag; true when it opens the payload root.
    pub fn start(&mut self, name: &[u8]) -> bool {
        self.depth += 1;
        match self.depth {
            1 if local_part(name) != b"Envelope" => self.body = BodyState::Spent,
            2 if self.body == BodyState::NotSeen && local_part(name) == b"Body" => {
                self.body = BodyState::Open;
            }
            3 if self.body == BodyState::Open => {
                self.body = BodyState::Spent;
                return true;
            }
            _ => {}
        }
        false
    }

    /// An end tag.
    pub fn end(&mut self) {
        self.depth -= 1;
        // Only the open `Body` itself can close at this depth.
        if self.depth == 1 && self.body == BodyState::Open {
            self.body = BodyState::Spent;
        }
    }
}

/// Wrap `payload` XML in a SOAP 1.1 envelope (native byte building; the
/// traced cost is the output stores, charged by the caller when the bytes
/// are written into a message buffer).
pub fn wrap_envelope(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 200);
    out.extend_from_slice(
        b"<?xml version=\"1.0\"?>\n<soap:Envelope xmlns:soap=\"http://schemas.xmlsoap.org/soap/envelope/\">\n<soap:Body>\n",
    );
    out.extend_from_slice(payload);
    out.extend_from_slice(b"\n</soap:Body>\n</soap:Envelope>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::TBuf;
    use crate::parser::parse_document;
    use aon_trace::NullProbe;

    #[test]
    fn finds_body_and_payload() {
        let doc =
            parse_document(TBuf::msg(crate::samples::SOAP_CBR_MATCH), &mut NullProbe).unwrap();
        let body = find_body(&doc, &mut NullProbe).unwrap();
        assert!(local_name_is(&doc, body, b"Body", &mut NullProbe));
        let payload = payload_root(&doc, &mut NullProbe).unwrap();
        assert!(doc.name_is_t(payload, b"purchaseOrder", &mut NullProbe));
    }

    #[test]
    fn wrap_roundtrips() {
        let env = wrap_envelope(b"<x>1</x>");
        let doc = parse_document(TBuf::msg(&env), &mut NullProbe).unwrap();
        let payload = payload_root(&doc, &mut NullProbe).unwrap();
        assert!(doc.name_is_t(payload, b"x", &mut NullProbe));
    }

    #[test]
    fn non_envelope_rejected() {
        let doc = parse_document(TBuf::msg(b"<notsoap/>"), &mut NullProbe).unwrap();
        assert!(find_body(&doc, &mut NullProbe).is_err());
    }

    #[test]
    fn envelope_without_body_rejected() {
        let doc = parse_document(
            TBuf::msg(b"<soap:Envelope><soap:Header/></soap:Envelope>"),
            &mut NullProbe,
        )
        .unwrap();
        assert!(find_body(&doc, &mut NullProbe).is_err());
    }
}
