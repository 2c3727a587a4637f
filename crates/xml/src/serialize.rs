//! DOM serialization.
//!
//! Re-emits a parsed document as XML bytes — the canonicalization step an
//! AON device performs when it forwards a validated/transformed message
//! rather than the raw input. Traced: node and string reads come from the
//! `WORK` arena (warm — the DOM was just built), output stores stream into
//! the `OUT` region, and every text byte passes through the escaping
//! check.

use crate::dom::{Document, NodeId, NodeKind};
use aon_trace::{br, site, Addr, Probe, RegionSlot};

/// Serialize the subtree rooted at `node` into `out`, tracing the work on
/// `p`. Returns the number of bytes written.
pub fn serialize_node<P: Probe>(
    doc: &Document,
    node: NodeId,
    out: &mut Vec<u8>,
    p: &mut P,
) -> usize {
    let start = out.len();
    let mut ser = Serializer { doc, out, probe: p, out_cursor: 0 };
    ser.node(node);
    out.len() - start
}

/// Serialize a whole document (from the root element).
pub fn serialize_document<P: Probe>(doc: &Document, p: &mut P) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    if let Ok(root) = doc.root() {
        serialize_node(doc, root, &mut out, p);
    }
    out
}

struct Serializer<'d, 'o, P: Probe> {
    doc: &'d Document,
    out: &'o mut Vec<u8>,
    probe: &'d mut P,
    out_cursor: u32,
}

impl<P: Probe> Serializer<'_, '_, P> {
    /// Append raw bytes, tracing one store per word.
    fn emit(&mut self, bytes: &[u8]) {
        let words = (bytes.len() as u32).div_ceil(8);
        for w in 0..words {
            self.probe.store(Addr::new(RegionSlot::OUT, self.out_cursor + w * 8), 8);
            self.probe.alu(1);
        }
        self.out_cursor += bytes.len() as u32;
        self.out.extend_from_slice(bytes);
    }

    /// Append text with XML escaping (per-byte classify + store).
    fn emit_escaped(&mut self, bytes: &[u8], in_attr: bool) {
        for &b in bytes {
            self.probe.alu(2);
            let escaped: &[u8] = match b {
                b'<' => b"&lt;",
                b'>' => b"&gt;",
                b'&' => b"&amp;",
                b'"' if in_attr => b"&quot;",
                _ => {
                    self.probe.branch(site!(0xef22_6b2e), false);
                    self.probe.store(Addr::new(RegionSlot::OUT, self.out_cursor), 1);
                    self.out_cursor += 1;
                    self.out.push(b);
                    continue;
                }
            };
            self.probe.branch(site!(0xe90f_eb07), true);
            let cur = self.out_cursor;
            self.probe.store(Addr::new(RegionSlot::OUT, cur), escaped.len() as u8);
            self.out_cursor += escaped.len() as u32;
            self.out.extend_from_slice(escaped);
        }
    }

    fn node(&mut self, id: NodeId) {
        match self.doc.kind_t(id, self.probe) {
            NodeKind::Element(name) => {
                let name_bytes = self.doc.name_bytes(name).to_vec();
                // Reading the interned name.
                self.probe.alu((name_bytes.len() as u32).div_ceil(8) + 1);
                self.emit(b"<");
                self.emit(&name_bytes);
                // Attributes.
                let attrs = self.doc.attrs_t(id, self.probe).to_vec();
                for a in &attrs {
                    let aname = self.doc.name_bytes(a.name).to_vec();
                    let aval = self.doc.str_bytes(a.value).to_vec();
                    self.emit(b" ");
                    self.emit(&aname);
                    self.emit(b"=\"");
                    self.emit_escaped(&aval, true);
                    self.emit(b"\"");
                }
                let first = self.doc.first_child_t(id, self.probe);
                if br!(self.probe, 0xe619_d1da, first.is_none()) {
                    self.emit(b"/>");
                    return;
                }
                self.emit(b">");
                let mut cur = first;
                while let Some(c) = cur {
                    self.node(c);
                    cur = self.doc.next_sibling_t(c, self.probe);
                }
                self.emit(b"</");
                self.emit(&name_bytes);
                self.emit(b">");
            }
            NodeKind::Text(_) => {
                let text = self.doc.text_bytes_t(id, self.probe);
                self.emit_escaped(&text, false);
            }
            NodeKind::Pi(target) => {
                let t = self.doc.str_bytes(target).to_vec();
                self.emit(b"<?");
                self.emit(&t);
                self.emit(b"?>");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::TBuf;
    use crate::parser::parse_document;
    use aon_trace::{NullProbe, Tracer};

    fn roundtrip(input: &[u8]) -> Vec<u8> {
        let doc = parse_document(TBuf::msg(input), &mut NullProbe).unwrap();
        serialize_document(&doc, &mut NullProbe)
    }

    #[test]
    fn simple_roundtrip() {
        assert_eq!(roundtrip(b"<a><b>hi</b><c/></a>"), b"<a><b>hi</b><c/></a>");
    }

    #[test]
    fn attributes_roundtrip() {
        assert_eq!(
            roundtrip(br#"<a x="1" y="two"><z k="v"/></a>"#),
            br#"<a x="1" y="two"><z k="v"/></a>"#
        );
    }

    #[test]
    fn escaping_applied() {
        let out = roundtrip(b"<a>1 &lt; 2 &amp; 3</a>");
        assert_eq!(out, b"<a>1 &lt; 2 &amp; 3</a>");
        let out = roundtrip(br#"<a q="say &quot;hi&quot;"/>"#);
        assert_eq!(out, br#"<a q="say &quot;hi&quot;"/>"#);
    }

    #[test]
    fn reparse_of_output_matches() {
        let input = br#"<order id="7"><item><sku>AB12</sku><quantity>1</quantity></item><note>a&amp;b</note></order>"#;
        let once = roundtrip(input);
        let twice = roundtrip(&once);
        assert_eq!(once, twice, "serialization is a fixed point after one pass");
    }

    #[test]
    fn serialization_is_traced() {
        let doc = parse_document(
            TBuf::msg(b"<r><a>hello world</a><b x=\"1\">text</b></r>"),
            &mut NullProbe,
        )
        .unwrap();
        let mut t = Tracer::new();
        let out = serialize_document(&doc, &mut t);
        let s = t.finish().stats();
        assert!(s.stores as usize >= out.len() / 8, "output stores traced");
        assert!(s.loads > 10, "DOM reads traced");
    }
}
