//! Edge-case regression tests for the XML stack: inputs that historically
//! break hand-written parsers.

use aon_trace::NullProbe;
use aon_xml::error::XmlErrorKind;
use aon_xml::input::TBuf;
use aon_xml::parser::parse_document;
use aon_xml::serialize::serialize_document;

fn parse(input: &[u8]) -> Result<aon_xml::Document, aon_xml::XmlError> {
    parse_document(TBuf::msg(input), &mut NullProbe)
}

#[test]
fn deeply_nested_but_within_limit() {
    let mut s = Vec::new();
    for _ in 0..200 {
        s.extend_from_slice(b"<e>");
    }
    for _ in 0..200 {
        s.extend_from_slice(b"</e>");
    }
    let doc = parse(&s).expect("200 levels is inside the default limit");
    assert_eq!(doc.node_count(), 200);
}

#[test]
fn single_byte_inputs() {
    for b in 0u8..=255 {
        // Must never panic; almost everything errors.
        let _ = parse(&[b]);
    }
}

#[test]
fn tag_name_edge_characters() {
    assert!(parse(b"<a-b.c_d/>").is_ok());
    assert!(parse(b"<_x/>").is_ok());
    assert!(parse(b"<ns:elem/>").is_ok());
    assert!(parse(b"<1bad/>").is_err());
    assert!(parse(b"<-bad/>").is_err());
}

#[test]
fn utf8_names_and_text() {
    let doc = parse("<célé>héllo ☃</célé>".as_bytes()).unwrap();
    let root = doc.root().unwrap();
    assert_eq!(doc.text_of_t(root, &mut NullProbe), "héllo ☃".as_bytes());
}

#[test]
fn cdata_with_tricky_terminators() {
    let doc = parse(b"<a><![CDATA[ ]] ]]> ]]></a>");
    // The CDATA ends at the FIRST `]]>`; the trailing ` ]]>` is then text
    // containing `]]>`, which we accept leniently (many parsers do).
    assert!(doc.is_ok());
    let doc = doc.unwrap();
    let root = doc.root().unwrap();
    let text = doc.text_of_t(root, &mut NullProbe);
    assert!(text.starts_with(b" ]] "));
}

#[test]
fn comments_with_dashes() {
    assert!(parse(b"<a><!-- - -- --></a>").is_err(), "-- inside a comment is invalid");
    assert!(parse(b"<a><!-- - - --></a>").is_ok());
    assert!(parse(b"<a><!----></a>").is_ok(), "empty comment");
}

#[test]
fn attribute_quote_variants() {
    let doc = parse(br#"<a x="it's" y='say "hi"'/>"#).unwrap();
    let root = doc.root().unwrap();
    let x = doc.attr_value_t(root, b"x", &mut NullProbe).unwrap();
    assert_eq!(doc.str_bytes(x), b"it's");
    let y = doc.attr_value_t(root, b"y", &mut NullProbe).unwrap();
    assert_eq!(doc.str_bytes(y), br#"say "hi""#);
}

#[test]
fn error_offsets_are_meaningful() {
    let err = parse(b"<root><bad").unwrap_err();
    assert!(err.offset >= 6, "error near the malformed tag: {err}");
    let err = parse(b"<a>&bogus;</a>").unwrap_err();
    assert_eq!(err.kind, XmlErrorKind::BadEntity);
    assert_eq!(err.offset, 3);
}

#[test]
fn serializer_handles_empty_and_text_only() {
    let doc = parse(b"<a/>").unwrap();
    assert_eq!(serialize_document(&doc, &mut NullProbe), b"<a/>");
    let doc = parse(b"<a>just text</a>").unwrap();
    assert_eq!(serialize_document(&doc, &mut NullProbe), b"<a>just text</a>");
}

#[test]
fn large_flat_document() {
    let mut s = Vec::from(&b"<list>"[..]);
    for i in 0..5_000 {
        s.extend_from_slice(format!("<i v=\"{i}\">{i}</i>").as_bytes());
    }
    s.extend_from_slice(b"</list>");
    let doc = parse(&s).unwrap();
    assert_eq!(doc.node_count(), 1 + 2 * 5_000); // list + 5000 elems + 5000 texts
    assert_eq!(doc.attr_count(), 5_000);
    // XPath over it still works.
    let xp = aon_xml::xpath::XPath::compile("count(//i)").unwrap();
    let v = xp.eval(&doc, &mut NullProbe).unwrap();
    assert_eq!(v.number_value(&doc, &mut NullProbe), 5_000.0);
}

#[test]
fn whitespace_variants_in_tags() {
    assert!(parse(b"<a  x = \"1\"  />").is_ok());
    assert!(parse(b"<a\n\tx=\"1\"\n/>").is_ok());
    assert!(parse(b"</ a>").is_err());
}

#[test]
fn numeric_character_reference_bounds() {
    assert!(parse(b"<a>&#0;</a>").is_ok()); // NUL decodes (lenient)
    assert!(parse(b"<a>&#x10FFFF;</a>").is_ok());
    assert!(parse(b"<a>&#x110000;</a>").is_err());
    assert!(parse(b"<a>&#xD800;</a>").is_err(), "surrogates are not chars");
}
