//! Pull parser: token stream → arena [`Document`].
//!
//! The parser maintains an explicit element stack (no recursion, bounded by
//! [`MAX_DEPTH`]), interns element/attribute names into the
//! document, entity-decodes attribute values and text runs, and links nodes
//! as they complete — all with traced arena stores, so building the DOM is
//! a store-heavy phase just as it is in a real engine.

use crate::dom::{AttrRec, Document, Node, NodeId, NodeKind, StrRef};
use crate::error::{XmlError, XmlErrorKind, XmlResult};
use crate::input::TBuf;
use crate::lexer::{decode_text, Lexer, Span, Token};
use aon_trace::{br, site, Probe, ProbeExt};

/// Maximum element nesting depth.
pub const MAX_DEPTH: usize = 256;

/// Parse a complete document. Comments and whitespace-only text between
/// elements are dropped, as most server-side engines configure it.
pub fn parse_document<P: Probe>(buf: TBuf<'_>, p: &mut P) -> XmlResult<Document> {
    let mut doc = Document::new();
    let mut lexer = Lexer::new(buf);
    let mut stack: Vec<(NodeId, Span)> = Vec::new();
    let mut saw_root = false;
    let mut scratch: Vec<u8> = Vec::new();

    loop {
        let tok = lexer.next_token(p)?;
        match tok {
            Token::Eof => {
                p.branch(site!(0x0a80_0900), stack.is_empty());
                if let Some(&(_, open)) = stack.last() {
                    return Err(XmlError::at(XmlErrorKind::UnexpectedEof, open.start));
                }
                if !saw_root {
                    return Err(XmlError::at(XmlErrorKind::NoRoot, lexer.pos()));
                }
                return Ok(doc);
            }
            Token::XmlDecl | Token::Doctype => {
                // Prolog only; ignore. (Strictly these are only legal before
                // the root, which we don't police — AON traffic never has
                // them elsewhere.)
            }
            Token::Comment => {
                // Dropped: the keep-or-drop test is a branch that is never
                // taken.
                br!(p, 0x00b3_8855, false);
            }
            Token::Pi { target } => {
                if br!(p, 0x7e4b_a1b6, !stack.is_empty()) {
                    let tname = intern_span(&mut doc, buf, target, p);
                    let id = new_node(&mut doc, NodeKind::Pi(tname), p);
                    let parent = stack.last().map(|&(n, _)| n).expect("checked non-empty");
                    doc.append_child(parent, id, p);
                }
            }
            Token::StartTag { name, attrs, self_closing } => {
                if br!(p, 0x0310_236e, stack.is_empty() && saw_root) {
                    return Err(XmlError::at(XmlErrorKind::ExtraContent, name.start));
                }
                if br!(p, 0x0147_24a9, stack.len() >= MAX_DEPTH) {
                    return Err(XmlError::at(XmlErrorKind::TooDeep, name.start));
                }
                let name_bytes = buf.span(name.start, name.end);
                let name_id = doc.intern_name(name_bytes, p);
                let id = new_node(&mut doc, NodeKind::Element(name_id), p);

                // Attributes.
                let attr_start = doc.attr_count() as u32;
                for a in &attrs {
                    let aname = doc.intern_name(buf.span(a.name.start, a.name.end), p);
                    let value = if br!(p, 0x065c_c67c, a.has_entities) {
                        scratch.clear();
                        decode_text(buf, a.value, &mut scratch, p)?;
                        doc.intern_bytes(&scratch, p)
                    } else {
                        // Raw span copied into the string arena. The source
                        // bytes were scanned a moment ago (loads already in
                        // the trace and the lines are cache-hot); the copy's
                        // cost is its stores, which intern_bytes emits.
                        doc.intern_bytes(buf.span(a.value.start, a.value.end), p)
                    };
                    doc.push_attr(AttrRec { name: aname, value }, p);
                }
                doc.set_attr_range(id, attr_start, doc.attr_count() as u32);

                match stack.last() {
                    Some(&(parent, _)) => doc.append_child(parent, id, p),
                    None => {
                        doc.set_root(id);
                        saw_root = true;
                    }
                }
                if !br!(p, 0x05c9_2f21, self_closing) {
                    stack.push((id, name));
                }
            }
            Token::EndTag { name } => {
                let Some((id, open)) = stack.pop() else {
                    return Err(XmlError::at(XmlErrorKind::MismatchedTag, name.start));
                };
                let open_bytes = buf.span(open.start, open.end);
                let close_bytes = buf.span(name.start, name.end);
                // Tag-match compare: the close tag's bytes were just scanned;
                // re-reading the open tag name comes from the interned copy.
                p.compare(
                    doc.str_addr(0),
                    buf.addr(name.start),
                    name.len() as u32,
                    open_bytes == close_bytes,
                );
                if br!(p, 0x0e4c_1324, open_bytes != close_bytes) {
                    return Err(XmlError::at(XmlErrorKind::MismatchedTag, name.start));
                }
                let _ = id;
            }
            Token::Text { span, has_entities } => {
                if stack.is_empty() {
                    // Whitespace between prolog/epilog constructs is fine;
                    // anything else is content outside the root.
                    let raw = buf.span(span.start, span.end);
                    p.alu(span.len() as u32);
                    if br!(p, 0x0a62_27a3, raw.iter().any(|b| !b.is_ascii_whitespace())) {
                        return Err(XmlError::at(XmlErrorKind::ExtraContent, span.start));
                    }
                    continue;
                }
                let raw = buf.span(span.start, span.end);
                let ws_only = raw.iter().all(|b| b.is_ascii_whitespace());
                p.alu(span.len() as u32 / 4); // SIMD-ish whitespace check
                if br!(p, 0x0bc8_d627, ws_only) {
                    continue;
                }
                let sref = if br!(p, 0x1445_43a7, has_entities) {
                    scratch.clear();
                    decode_text(buf, span, &mut scratch, p)?;
                    doc.intern_bytes(&scratch, p)
                } else {
                    doc.intern_bytes(raw, p)
                };
                let id = new_node(&mut doc, NodeKind::Text(sref), p);
                let parent = stack.last().map(|&(n, _)| n).expect("checked non-empty");
                doc.append_child(parent, id, p);
            }
            Token::Cdata { span } => {
                if stack.is_empty() {
                    return Err(XmlError::at(XmlErrorKind::ExtraContent, span.start));
                }
                let raw = buf.span(span.start, span.end);
                let sref = doc.intern_bytes(raw, p);
                let id = new_node(&mut doc, NodeKind::Text(sref), p);
                let parent = stack.last().map(|&(n, _)| n).expect("checked non-empty");
                doc.append_child(parent, id, p);
            }
        }
    }
}

fn new_node<P: Probe>(doc: &mut Document, kind: NodeKind, p: &mut P) -> NodeId {
    doc.push_node(
        Node {
            kind,
            parent: None,
            first_child: None,
            last_child: None,
            next_sibling: None,
            attr_start: 0,
            attr_end: 0,
        },
        p,
    )
}

fn intern_span<P: Probe>(doc: &mut Document, buf: TBuf<'_>, span: Span, p: &mut P) -> StrRef {
    doc.intern_bytes(buf.span(span.start, span.end), p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::NodeKind;
    use aon_trace::{NullProbe, Tracer};

    fn parse(input: &[u8]) -> XmlResult<Document> {
        parse_document(TBuf::msg(input), &mut NullProbe)
    }

    #[test]
    fn parses_nested_structure() {
        let doc = parse(b"<a><b><c/></b><d>txt</d></a>").unwrap();
        let root = doc.root().unwrap();
        assert!(doc.name_is_t(root, b"a", &mut NullProbe));
        let b = doc.first_child_t(root, &mut NullProbe).unwrap();
        assert!(doc.name_is_t(b, b"b", &mut NullProbe));
        let d = doc.next_sibling_t(b, &mut NullProbe).unwrap();
        assert_eq!(doc.text_of_t(d, &mut NullProbe), b"txt");
    }

    #[test]
    fn attributes_decoded() {
        let doc = parse(br#"<a x="1 &amp; 2" y='z'/>"#).unwrap();
        let root = doc.root().unwrap();
        let x = doc.attr_value_t(root, b"x", &mut NullProbe).unwrap();
        assert_eq!(doc.str_bytes(x), b"1 & 2");
        let y = doc.attr_value_t(root, b"y", &mut NullProbe).unwrap();
        assert_eq!(doc.str_bytes(y), b"z");
        assert_eq!(doc.attr_value_t(root, b"missing", &mut NullProbe), None);
    }

    #[test]
    fn text_entities_decoded() {
        let doc = parse(b"<a>1 &lt; 2 &#38; 3</a>").unwrap();
        let root = doc.root().unwrap();
        assert_eq!(doc.text_of_t(root, &mut NullProbe), b"1 < 2 & 3");
    }

    #[test]
    fn cdata_preserved_verbatim() {
        let doc = parse(b"<a><![CDATA[<b>&amp;</b>]]></a>").unwrap();
        let root = doc.root().unwrap();
        assert_eq!(doc.text_of_t(root, &mut NullProbe), b"<b>&amp;</b>");
    }

    #[test]
    fn whitespace_text_dropped_by_default() {
        let doc = parse(b"<a>\n  <b/>\n</a>").unwrap();
        let root = doc.root().unwrap();
        let child = doc.first_child_t(root, &mut NullProbe).unwrap();
        assert!(matches!(doc.kind_t(child, &mut NullProbe), NodeKind::Element(_)));
        assert_eq!(doc.next_sibling_t(child, &mut NullProbe), None);
    }

    #[test]
    fn mismatched_tags_error() {
        assert!(matches!(parse(b"<a><b></a></b>").unwrap_err().kind, XmlErrorKind::MismatchedTag));
    }

    #[test]
    fn unclosed_root_errors() {
        assert!(matches!(parse(b"<a><b></b>").unwrap_err().kind, XmlErrorKind::UnexpectedEof));
    }

    #[test]
    fn two_roots_error() {
        assert!(matches!(parse(b"<a/><b/>").unwrap_err().kind, XmlErrorKind::ExtraContent));
    }

    #[test]
    fn empty_input_errors() {
        assert!(matches!(parse(b"").unwrap_err().kind, XmlErrorKind::NoRoot));
        assert!(matches!(parse(b"   ").unwrap_err().kind, XmlErrorKind::NoRoot));
    }

    #[test]
    fn text_outside_root_errors() {
        assert!(matches!(parse(b"<a/>junk").unwrap_err().kind, XmlErrorKind::ExtraContent));
        // Trailing whitespace is legal.
        assert!(parse(b"<a/>\n ").is_ok());
    }

    #[test]
    fn depth_limit_enforced() {
        let mut s = Vec::new();
        for _ in 0..300 {
            s.extend_from_slice(b"<d>");
        }
        for _ in 0..300 {
            s.extend_from_slice(b"</d>");
        }
        assert!(matches!(parse(&s).unwrap_err().kind, XmlErrorKind::TooDeep));
    }

    #[test]
    fn prolog_handled() {
        let doc = parse(b"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!-- hdr -->\n<a/>").unwrap();
        assert!(doc.root().is_ok());
    }

    #[test]
    fn parse_is_store_heavy_in_trace() {
        let mut t = Tracer::new();
        parse_document(TBuf::msg(b"<order><item qty=\"3\">widget</item></order>"), &mut t).unwrap();
        let s = t.finish().stats();
        assert!(s.stores > 10, "DOM building must emit stores, got {}", s.stores);
        assert!(s.loads > 40, "scanning must emit loads, got {}", s.loads);
        assert!(s.branches > 30);
    }

    #[test]
    fn traced_and_untraced_parses_agree() {
        let input = br#"<r a="1"><x>t1</x><y b="2 &gt; 1">t2</y></r>"#;
        let d1 = parse_document(TBuf::msg(input), &mut NullProbe).unwrap();
        let mut t = Tracer::new();
        let d2 = parse_document(TBuf::msg(input), &mut t).unwrap();
        assert_eq!(d1.node_count(), d2.node_count());
        assert_eq!(d1.attr_count(), d2.attr_count());
    }
}
