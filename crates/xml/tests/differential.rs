//! Differential equivalence suite: the fast serving-path engines against
//! the traced byte-at-a-time references.
//!
//! The live server runs one event pass ([`aon_xml::events::run`]) with a
//! compiled program as its handler; the simulator's counter tables come
//! from the traced lexer, parser, XPath evaluator and validator. The
//! invariant that lets the fast path exist without touching a single
//! simulated number is equality with those references on every input:
//! identical events (names, attributes, decoded values, order), identical
//! errors (kind *and* offset), identical XPath and schema verdicts. This
//! suite pins it over the sample corpus, handwritten adversarial inputs,
//! every prefix of a message, and deterministic byte-level fuzzing.

use aon_trace::NullProbe;
use aon_xml::dom::{Document, NodeId, NodeKind};
use aon_xml::error::XmlResult;
use aon_xml::events::{self, Attr, Events};
use aon_xml::input::TBuf;
use aon_xml::lexer::{decode_text_fast, Span};
use aon_xml::parser::parse_document;
use aon_xml::schema::{Schema, SchemaAutomaton};
use aon_xml::xpath::{CompiledPath, XPath};
use aon_xml::{samples, soap};
use std::sync::OnceLock;

/// What the event pass reports, values decoded, as one comparable log.
#[derive(Debug, PartialEq, Eq)]
enum Event {
    Start(Vec<u8>, Vec<(Vec<u8>, Vec<u8>)>),
    Text(Vec<u8>),
    Pi,
    End,
}

#[derive(Default)]
struct Log(Vec<Event>);

impl<'a> Events<'a> for Log {
    fn start(&mut self, name: &'a [u8], attrs: &[Attr<'a>]) {
        let attrs = attrs
            .iter()
            .map(|a| (a.name.to_vec(), events::decoded(a.value, a.has_entities).into_owned()))
            .collect();
        self.0.push(Event::Start(name.to_vec(), attrs));
    }
    fn text(&mut self, raw: &'a [u8], has_entities: bool) {
        self.0.push(Event::Text(events::decoded(raw, has_entities).into_owned()));
    }
    fn pi(&mut self) {
        self.0.push(Event::Pi);
    }
    fn end(&mut self) {
        self.0.push(Event::End);
    }
}

/// The event log the eager DOM stands for: a pre-order walk with an
/// `End` after each element's children.
fn dom_events(doc: &Document, node: NodeId, out: &mut Vec<Event>) {
    match doc.kind_t(node, &mut NullProbe) {
        NodeKind::Element(name) => {
            let attrs = doc
                .attrs_t(node, &mut NullProbe)
                .iter()
                .map(|a| (doc.name_bytes(a.name).to_vec(), doc.str_bytes(a.value).to_vec()))
                .collect();
            out.push(Event::Start(doc.name_bytes(name).to_vec(), attrs));
            let mut child = doc.first_child_t(node, &mut NullProbe);
            while let Some(c) = child {
                dom_events(doc, c, out);
                child = doc.next_sibling_t(c, &mut NullProbe);
            }
            out.push(Event::End);
        }
        NodeKind::Text(s) => out.push(Event::Text(doc.str_bytes(s).to_vec())),
        NodeKind::Pi(_) => out.push(Event::Pi),
    }
}

fn parse(input: &[u8]) -> XmlResult<Document> {
    parse_document(TBuf::msg(input), &mut NullProbe)
}

/// Assert the event pass and the eager parser agree on `input`: the same
/// error (kind and offset) on rejection, the same events on acceptance.
fn assert_pass_agrees(input: &[u8]) {
    let mut log = Log::default();
    let pass = events::run(input, &mut log);
    match parse(input) {
        Ok(doc) => {
            assert_eq!(pass, Ok(()), "pass rejects {:?}", String::from_utf8_lossy(input));
            let mut want = Vec::new();
            dom_events(&doc, doc.root().expect("a parsed document has a root"), &mut want);
            assert_eq!(log.0, want, "events differ on {:?}", String::from_utf8_lossy(input));
        }
        Err(e) => assert_eq!(pass, Err(e), "error differs on {:?}", String::from_utf8_lossy(input)),
    }
    assert_eq!(events::well_formed(input), pass);
}

/// Paths of the streamable subset, `text()` and string-value forms, with
/// values to compare against.
const PATHS: &[&str] = &[
    "//quantity/text()",
    "//quantity",
    "//item",
    "//item//name/text()",
    "/r/c/text()",
    "/r",
    "c/text()",
    "//c",
    "/",
];
const EXPECTS: &[&[u8]] = &[b"1", b"25", b"x", b"", b"line card1", b"ab", b"a&b"];

/// The compiled programs the suite runs on every input, built once.
struct Programs {
    paths: Vec<(&'static str, XPath, CompiledPath)>,
    schema: Schema,
    auto: SchemaAutomaton,
}

fn programs() -> &'static Programs {
    static PROGRAMS: OnceLock<Programs> = OnceLock::new();
    PROGRAMS.get_or_init(|| {
        let paths = PATHS
            .iter()
            .map(|source| {
                let xp = XPath::compile(source).expect("path compiles");
                let cp = CompiledPath::compile(&xp).ok_or(source).expect("path is streamable");
                (*source, xp, cp)
            })
            .collect();
        let schema = Schema::compile(samples::PURCHASE_ORDER_XSD).expect("sample XSD compiles");
        let auto = SchemaAutomaton::compile(&schema);
        Programs { paths, schema, auto }
    })
}

/// Assert the streaming XPath executor answers as the DOM evaluator does,
/// parse errors included.
fn assert_paths_agree(input: &[u8]) {
    let eager = parse(input);
    for (source, xp, cp) in &programs().paths {
        for expect in EXPECTS {
            let want = match &eager {
                Ok(doc) => {
                    Ok(xp.string_equals(doc, expect, &mut NullProbe).expect("path evaluates"))
                }
                Err(e) => Err(*e),
            };
            assert_eq!(
                cp.string_equals(input, expect),
                want,
                "{source} = {:?} on {:?}",
                String::from_utf8_lossy(expect),
                String::from_utf8_lossy(input)
            );
        }
    }
}

/// Assert the streaming validator answers as the tree validator does, on
/// the document root and on the SOAP payload, parse errors included.
fn assert_validators_agree(
    schema: &Schema,
    auto: &SchemaAutomaton,
    input: &[u8],
) -> XmlResult<Option<bool>> {
    let eager = parse(input);
    let want_doc = match &eager {
        Ok(doc) => {
            Ok(schema.validate(doc, &mut NullProbe).expect("document has a root").is_valid())
        }
        Err(e) => Err(*e),
    };
    assert_eq!(
        auto.validate_document(input),
        want_doc,
        "document verdict on {:?}",
        String::from_utf8_lossy(input)
    );
    let want_soap = match &eager {
        Ok(doc) => Ok(soap::payload_root(doc, &mut NullProbe)
            .ok()
            .map(|payload| schema.validate_node(doc, payload, &mut NullProbe).is_valid())),
        Err(e) => Err(*e),
    };
    assert_eq!(
        auto.validate_soap_payload(input),
        want_soap,
        "payload verdict on {:?}",
        String::from_utf8_lossy(input)
    );
    want_soap
}

fn assert_all_agree(input: &[u8]) {
    let programs = programs();
    assert_pass_agrees(input);
    assert_paths_agree(input);
    let _ = assert_validators_agree(&programs.schema, &programs.auto, input);
}

/// The well-formed side of the corpus: samples and envelope variants.
fn well_formed_corpus() -> Vec<Vec<u8>> {
    let mut v: Vec<Vec<u8>> = vec![
        samples::PURCHASE_ORDER_OK.to_vec(),
        samples::PURCHASE_ORDER_BAD.to_vec(),
        samples::SOAP_CBR_MATCH.to_vec(),
        soap::wrap_envelope(samples::PURCHASE_ORDER_OK),
        b"<r/>".to_vec(),
        b"<r a=\"1\" b=\"two\"><c/><c>x</c>tail</r>".to_vec(),
        b"<?xml version=\"1.0\"?><!-- c --><r><?pi data?><![CDATA[<raw>&amp;]]></r>".to_vec(),
        b"<r>&lt;&gt;&amp;&quot;&apos;&#65;&#x42;</r>".to_vec(),
        b"<r a=\"&amp;&#x20;\">mixed &amp; text</r>".to_vec(),
        b"<ns:r xmlns:ns=\"u\"><ns:c ns:a=\"v\"/></ns:r>".to_vec(),
        "<r>\u{1F600} caf\u{e9} \u{65E5}\u{672C}</r>".as_bytes().to_vec(),
        "<caf\u{e9} attr\u{e9}=\"v\"><\u{65E5}\u{672C}/></caf\u{e9}>".as_bytes().to_vec(),
        b"<r><![CDATA[a]]><![CDATA[b]]>c</r>".to_vec(),
        b"<r  \t\r\n a = \"s p\" >  <c\t/>\r\n</r>".to_vec(),
    ];
    // A deep and a wide document (recursion/arena stress).
    let mut deep = Vec::new();
    for _ in 0..64 {
        deep.extend_from_slice(b"<d>");
    }
    deep.extend_from_slice(b"x");
    for _ in 0..64 {
        deep.extend_from_slice(b"</d>");
    }
    v.push(deep);
    let mut wide = b"<w>".to_vec();
    for i in 0..200 {
        wide.extend_from_slice(format!("<c n=\"{i}\">{i}</c>").as_bytes());
    }
    wide.extend_from_slice(b"</w>");
    v.push(wide);
    v
}

/// Handwritten adversarial inputs: every rejection class the lexer has,
/// plus near-misses that must be accepted.
fn adversarial_corpus() -> Vec<Vec<u8>> {
    [
        &b""[..],
        b" \t\n",
        b"<",
        b"<>",
        b"< r/>",
        b"<r",
        b"<r/",
        b"<r/>trailing<",
        b"<r></q>",
        b"<r></r",
        b"<r><c></r></c>",
        b"<r a>",
        b"<r a=>",
        b"<r a='v`>",
        b"<r a=\"v>",
        b"<r a=\"v\" a=\"w\"/>",
        b"<r>&unknown;</r>",
        b"<r>&amp</r>",
        b"<r>&#xZZ;</r>",
        b"<r>&#; </r>",
        b"<r>&;</r>",
        b"<!-- unterminated",
        b"<!--a--->",
        b"<r><!-- -- --></r>",
        b"<![CDATA[loose]]>",
        b"<r><![CDATA[unterminated</r>",
        b"<?pi unterminated",
        b"<?xml?><?xml?>",
        b"<!DOCTYPE r><r/>",
        b"<!DOCTYPE",
        b"text only",
        b"</r>",
        b"<r/><q/>",
        b"<r>]]></r>",
        b"\xEF\xBB\xBF<r/>", // BOM
        b"<r>\x00</r>",
        b"<r a=\"\x01\"/>",
    ]
    .iter()
    .map(|s| s.to_vec())
    .collect()
}

#[test]
fn lexers_and_parsers_agree_on_well_formed_corpus() {
    for input in well_formed_corpus() {
        // These must actually parse — a vacuous both-reject pass would
        // hide a broken corpus.
        assert!(
            parse_document(TBuf::msg(&input), &mut NullProbe).is_ok(),
            "corpus input no longer parses: {:?}",
            String::from_utf8_lossy(&input)
        );
        assert_all_agree(&input);
    }
}

#[test]
fn lexers_and_parsers_agree_on_adversarial_corpus() {
    for input in adversarial_corpus() {
        assert_all_agree(&input);
    }
}

/// Satellite regression: UTF-8 handling inside names. The scalar lexer
/// historically accepted any `>= 0x80` byte as a name byte, letting
/// ill-formed UTF-8 (stray continuations, truncated or overlong
/// sequences, surrogates) through as element/attribute names even though
/// the document-level UTF-8 gate would catch it only on some paths. Both
/// lexers and the event pass validate name bytes as UTF-8 and must agree
/// exactly.
#[test]
fn utf8_name_boundary_cases_agree_and_reject() {
    let accepted: &[&[u8]] = &[
        "<caf\u{e9}/>".as_bytes(),         // 2-byte sequence
        "<\u{65E5}\u{672C}/>".as_bytes(),  // 3-byte sequences
        "<r \u{1F600}=\"v\"/>".as_bytes(), // 4-byte sequence in attr name
        "<\u{e9}:\u{e9}/>".as_bytes(),     // multibyte around ':'
    ];
    for input in accepted {
        assert!(
            parse_document(TBuf::msg(input), &mut NullProbe).is_ok(),
            "well-formed UTF-8 name rejected: {:?}",
            String::from_utf8_lossy(input)
        );
        assert_all_agree(input);
    }
    let rejected: &[&[u8]] = &[
        b"<a\x80/>",            // lone continuation inside a name
        b"<\xC3/>",             // truncated 2-byte sequence
        b"<\xC3>x</\xC3>",      // truncated sequence, non-empty element
        b"<\xC0\xAF/>",         // overlong encoding
        b"<\xED\xA0\x80/>",     // UTF-16 surrogate
        b"<\xF5\x80\x80\x80/>", // beyond U+10FFFF
        b"<\xFF\xFE/>",         // not UTF-8 at all
        b"<r \xC3=\"v\"/>",     // truncated sequence in attr name
        b"<r><\xE2\x82/></r>",  // truncated 3-byte sequence, nested
    ];
    for input in rejected {
        assert!(
            parse_document(TBuf::msg(input), &mut NullProbe).is_err(),
            "ill-formed UTF-8 name accepted by the traced path: {input:?}"
        );
        assert!(events::well_formed(input).is_err(), "ill-formed UTF-8 name accepted: {input:?}");
        assert_all_agree(input);
    }
}

/// Deterministic xorshift64* generator — the suite must not depend on a
/// rand crate or wall-clock seeding.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A value in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        usize::try_from(self.next() % u64::try_from(n.max(1)).expect("usize fits u64"))
            .expect("remainder fits usize")
    }
}

#[test]
fn fuzzed_mutations_of_samples_agree() {
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let bases: Vec<Vec<u8>> = vec![
        samples::SOAP_CBR_MATCH.to_vec(),
        samples::PURCHASE_ORDER_OK.to_vec(),
        b"<r a=\"&amp;1\"><c>text &lt;here&gt;</c><!--x--><![CDATA[d]]></r>".to_vec(),
    ];
    for base in &bases {
        for _ in 0..400 {
            let mut m = base.clone();
            // 1-3 point mutations: overwrite, insert, or delete a byte.
            for _ in 0..(rng.next() % 3 + 1) {
                let i = rng.below(m.len());
                match rng.next() % 3 {
                    0 => m[i] = (rng.next() & 0xFF) as u8,
                    1 => m.insert(i, (rng.next() & 0xFF) as u8),
                    _ => {
                        m.remove(i);
                    }
                }
            }
            assert_all_agree(&m);
        }
    }
}

#[test]
fn fuzzed_markup_soup_agrees() {
    // Biased soup: mostly structural bytes so inputs reach deep into the
    // lexer instead of failing on the first byte.
    const ALPHA: &[u8] = b"<>/=\"'&;ab1 \t\n!?-[]CDATA#x\xC3\xA9\x80\xFF";
    let mut rng = XorShift(0xDEAD_BEEF_CAFE_F00D);
    for _ in 0..2000 {
        let len = rng.below(64);
        let input: Vec<u8> = (0..len).map(|_| ALPHA[rng.below(ALPHA.len())]).collect();
        assert_all_agree(&input);
    }
}

/// Entity decoding: handlers materialize values with [`events::decoded`]
/// ([`decode_text_fast`] underneath); the traced DOM decodes during
/// parsing. The event logs compared above already cover documents; this
/// pins the decoder on standalone runs.
#[test]
fn text_decoders_agree_on_entity_runs() {
    let runs: &[&[u8]] = &[
        b"plain",
        b"&amp;&lt;&gt;&quot;&apos;",
        b"a&#65;b&#x42;c&#x1F600;d",
        b"&amp;amp;",
        b"mixed &amp; text with &#xe9; refs",
    ];
    for run in runs {
        let doc = format!("<r>{}</r>", String::from_utf8_lossy(run));
        assert_all_agree(doc.as_bytes());
    }
}

#[test]
fn values_stay_raw_slices_until_decoded() {
    // Entity-free values borrow the input; entity-bearing ones decode on
    // request. Both must equal the eager DOM's stored bytes.
    let input = b"<r><plain>no entities here</plain><ent>a &amp; b</ent></r>";
    assert_pass_agrees(input);
    struct Borrowed<'a>(&'a [u8], Vec<bool>);
    impl<'a> Events<'a> for Borrowed<'a> {
        fn text(&mut self, raw: &'a [u8], has_entities: bool) {
            assert!(self.0.as_ptr_range().contains(&raw.as_ptr()), "text must borrow the input");
            let value = events::decoded(raw, has_entities);
            self.1.push(matches!(value, std::borrow::Cow::Borrowed(_)));
        }
    }
    let mut h = Borrowed(input, Vec::new());
    events::run(input, &mut h).unwrap();
    assert_eq!(h.1, vec![true, false]);
}

/// Every truncation of a message must classify exactly as the scalar
/// path classifies it — the error a cut-off body produces depends on
/// where the cut falls (mid-name, mid-attribute, mid-entity, mid-comment,
/// between tags), and each executor must report it, never a verdict.
#[test]
fn every_prefix_of_a_message_agrees() {
    let mut message =
        b"<?xml version=\"1.0\"?><!DOCTYPE r [<!ENTITY x \"y\">]><!-- c -->\n".to_vec();
    message.extend_from_slice(&soap::wrap_envelope(samples::PURCHASE_ORDER_OK));
    message.extend_from_slice(b"<?tail pi?><!-- done -->\n");
    for cut in 0..=message.len() {
        assert_all_agree(&message[..cut]);
    }
    let inner = b"<r a='1 &amp; 2'><c>x &lt; y</c><![CDATA[ab]]><?p q?><!-- z --><c/></r>";
    for cut in 0..=inner.len() {
        assert_all_agree(&inner[..cut]);
    }
}

/// A match (or a violation) found early must not excuse a fault further
/// on: the executors never exit the pass early.
#[test]
fn malformed_after_the_verdict_is_still_an_error() {
    let xp = XPath::compile("//quantity/text()").unwrap();
    let cp = CompiledPath::compile(&xp).unwrap();
    let programs = programs();
    for tail in [&b"<unclosed"[..], b"</wrong>", b"&bad;", b"<a b=c/>", b"<!-- -- -->"] {
        let mut input = b"<o><quantity>1</quantity><bogus/>".to_vec();
        input.extend_from_slice(tail);
        input.extend_from_slice(b"</o>");
        let want = parse(&input).unwrap_err();
        assert_eq!(
            cp.string_equals(&input, b"1"),
            Err(want),
            "{:?}",
            String::from_utf8_lossy(tail)
        );
        assert_eq!(programs.auto.validate_document(&input), Err(want));
        assert_eq!(programs.auto.validate_soap_payload(&input), Err(want));
    }
    assert_eq!(cp.string_equals(b"<o><quantity>1</quantity></o>", b"1"), Ok(true));
}

/// Text split by comments and CDATA sections, and entity-bearing text,
/// under both comparison modes: `text()` sees each text node on its own,
/// the string-value sees their concatenation.
#[test]
fn split_and_entity_bearing_text_agrees_under_both_modes() {
    for input in [
        &b"<r><c>a<!-- split -->b</c><quantity>2<!---->5</quantity></r>"[..],
        b"<r><c>a<![CDATA[b]]></c><c><![CDATA[]]></c><c><![CDATA[a&b]]></c></r>",
        b"<r><c>a&amp;b</c><c>&#97;&#x62;</c><c>a&amp;<![CDATA[b]]></c></r>",
        b"<r><c> 1 </c><c>\n</c><c>&#x20;</c><quantity>1<item/></quantity></r>",
        b"<r><item>line <b>card</b>1</item><item><name>x</name><item><name>1</name></item></item></r>",
        b"<r>a<c>b</c></r>",
    ] {
        assert!(parse(input).is_ok(), "{:?} must parse", String::from_utf8_lossy(input));
        assert_paths_agree(input);
    }
}

fn assert_schema_agrees(xsd: &[u8], inputs: &[&[u8]]) -> SchemaAutomaton {
    let schema = Schema::compile(xsd).expect("test XSD compiles");
    let auto = SchemaAutomaton::compile(&schema);
    let mut seen = [0usize; 2];
    for input in inputs {
        assert_eq!(assert_validators_agree(&schema, &auto, input), Ok(None));
        let verdict = assert_validators_agree(&schema, &auto, &soap::wrap_envelope(input));
        let valid = verdict.expect("input parses").expect("wrapped input has a payload");
        seen[usize::from(valid)] += 1;
    }
    assert!(seen[0] > 2 && seen[1] > 2, "inputs must exercise both verdicts: {seen:?}");
    auto
}

/// SOAP shapes: which element is validated, and when there is none.
#[test]
fn soap_shapes_agree() {
    let (schema, auto) = (&programs().schema, &programs().auto);
    let order = b"<order id=\"1\"><customer>c</customer><date>2007-03-14</date>\
        <item line=\"1\"><sku>AB123</sku><name>n</name><quantity>1</quantity>\
        <price>1</price></item></order>";
    let wrap =
        |inner: &str| inner.replace("ORDER", std::str::from_utf8(order).unwrap()).into_bytes();
    let mut verdicts = Vec::new();
    for input in [
        wrap("<notsoap/>"),
        wrap("<Envelope/>"),
        wrap("<s:Envelope><s:Header/></s:Envelope>"),
        wrap("<s:Envelope><s:Body/></s:Envelope>"),
        wrap("<s:Envelope><s:Body>text <?pi?> only</s:Body></s:Envelope>"),
        wrap("<s:Envelope><s:Body><wrongroot/></s:Body></s:Envelope>"),
        wrap("<s:Envelope><s:Body>ORDER</s:Body></s:Envelope>"),
        wrap("<Envelope><Body>ORDER</Body></Envelope>"),
        wrap("<s:Envelope><s:Header>ORDER</s:Header><s:Body>ORDER</s:Body></s:Envelope>"),
        // Only the first Body counts, and only its first element child.
        wrap("<s:Envelope><s:Body/><s:Body>ORDER</s:Body></s:Envelope>"),
        wrap("<s:Envelope><s:Body><bogus/>ORDER</s:Body></s:Envelope>"),
        wrap("<s:Envelope><s:Body>ORDER<bogus/></s:Body></s:Envelope>"),
        wrap("<s:Envelope><x><s:Body>ORDER</s:Body></x></s:Envelope>"),
        wrap("<wrapper><s:Envelope><s:Body>ORDER</s:Body></s:Envelope></wrapper>"),
        wrap("ORDER"),
    ] {
        assert!(parse(&input).is_ok(), "{:?} must parse", String::from_utf8_lossy(&input));
        verdicts.push(assert_validators_agree(schema, auto, &input).unwrap());
    }
    for v in [None, Some(true), Some(false)] {
        assert!(verdicts.contains(&v), "shapes must exercise {v:?}");
    }
}

/// Content kinds the corpus schema does not have: an `Empty` content
/// model (where any child node — a processing instruction too — is a
/// violation), `simpleContent`, and text between child elements.
#[test]
fn empty_and_simple_content_models_agree() {
    assert_schema_agrees(
        br#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
          <xs:element name="r">
            <xs:complexType>
              <xs:sequence>
                <xs:element name="e" minOccurs="0" maxOccurs="unbounded">
                  <xs:complexType><xs:attribute name="k" type="xs:integer"/></xs:complexType>
                </xs:element>
                <xs:element name="n" type="xs:integer" minOccurs="0"/>
                <xs:element name="s" minOccurs="0">
                  <xs:complexType><xs:simpleContent><xs:extension base="xs:integer">
                    <xs:attribute name="u" type="xs:string"/>
                  </xs:extension></xs:simpleContent></xs:complexType>
                </xs:element>
              </xs:sequence>
            </xs:complexType>
          </xs:element>
        </xs:schema>"#,
        &[
            b"<r><e/><e k=\"1\"></e></r>",
            b"<r><e><?pi child?></e></r>",
            b"<r><e><!-- a comment is not a node --></e></r>",
            b"<r><e> \n </e></r>",
            b"<r><e>&#x20;</e></r>",
            b"<r><e><![CDATA[]]></e></r>",
            b"<r><e><e/></e></r>",
            b"<r><e k=\"x\"/></r>",
            b"<r><e k=\"&#49;\"/></r>",
            b"<r><?pi between?><e/> <!-- c --> <n>4</n></r>",
            b"<r><e/>&#x20;<n>4</n></r>",
            b"<r><e/><![CDATA[ ]]><n>4</n></r>",
            b"<r><e/>&amp;<n>4</n></r>",
            b"<r><n>4<!-- split -->2</n></r>",
            b"<r><n><![CDATA[4]]>&#50;</n></r>",
            b"<r><n>4<?pi?></n></r>",
            b"<r><n>4<e/></n></r>",
            b"<r><n> 42 </n></r>",
            b"<r><n/></r>",
            b"<r><n>x</n></r>",
            b"<r><n k=\"1\">4</n></r>",
            b"<r><n xmlns:a=\"u\">4</n></r>",
            b"<r><s u=\"v\">7</s></r>",
            b"<r><s>seven</s></r>",
            b"<r><s><e/>7</s></r>",
            b"<r><n>4</n><e/></r>",
            b"<r><zz/></r>",
            b"<r k=\"1\"/>",
            b"<e/>",
        ],
    );
}

/// `xs:all` and a model that is not 1-unambiguous go to the greedy
/// interpreter: their frames buffer the child names until the end tag.
#[test]
fn greedy_fallback_models_agree() {
    let auto = assert_schema_agrees(
        br#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
          <xs:element name="r">
            <xs:complexType><xs:all>
              <xs:element name="a" type="xs:string"/>
              <xs:element name="b" type="xs:integer" minOccurs="0"/>
              <xs:element name="inner">
                <xs:complexType><xs:sequence>
                  <xs:element name="a" type="xs:integer" minOccurs="0"/>
                  <xs:element name="a" type="xs:integer"/>
                </xs:sequence></xs:complexType>
              </xs:element>
            </xs:all></xs:complexType>
          </xs:element>
        </xs:schema>"#,
        &[
            b"<r><a>x</a><b>2</b><inner><a>1</a><a>2</a></inner></r>",
            b"<r><inner><a>1</a><a>2</a></inner><b>2</b><a>x</a></r>",
            b"<r><a>x</a><inner><a>1</a><a>2</a></inner></r>",
            b"<r><inner><a>1</a></inner><a>x</a></r>",
            b"<r><inner/><a>x</a></r>",
            b"<r><a>x</a><inner><a>1</a><a>2</a><a>3</a></inner></r>",
            b"<r><a>x</a><inner><a>1</a><a>two</a></inner></r>",
            b"<r><a>x</a><a>y</a><inner><a>1</a><a>2</a></inner></r>",
            b"<r><a>x</a><b>two</b><inner><a>1</a><a>2</a></inner></r>",
            b"<r><a>x</a></r>",
            b"<r><a>x</a>stray<inner><a>1</a><a>2</a></inner></r>",
            b"<r><a>x</a><zz/><inner><a>1</a><a>2</a></inner></r>",
            b"<r/>",
        ],
    );
    assert_eq!(auto.dfa_count(), 0, "both models must use the greedy interpreter");
}

/// The compiled tables against the tree walk: name dispatch (near-miss
/// names, the row order that puts a repeated child first), the attribute
/// checker (required names, undeclared names, decoded and padded values,
/// namespace declarations) and leaf checks (text in pieces, a pattern as a
/// DFA and one the DFA builder refuses).
#[test]
fn name_dispatch_and_precompiled_checks_agree() {
    let xsd = br#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:simpleType name="code">
        <xs:restriction base="xs:string"><xs:pattern value="[A-Z]{2}[0-9]{3,6}"/></xs:restriction>
      </xs:simpleType>
      <xs:simpleType name="wide">
        <xs:restriction base="xs:string"><xs:pattern value="(a|b)*a(a|b){12}"/></xs:restriction>
      </xs:simpleType>
      <xs:element name="po">
        <xs:complexType>
          <xs:sequence>
            <xs:element name="item" maxOccurs="unbounded">
              <xs:complexType>
                <xs:sequence>
                  <xs:element name="sku" type="code"/>
                  <xs:element name="tag" type="wide" minOccurs="0"/>
                </xs:sequence>
                <xs:attribute name="line" type="xs:positiveInteger" use="required"/>
                <xs:attribute name="cur">
                  <xs:simpleType><xs:restriction base="xs:string">
                    <xs:enumeration value="USD"/><xs:enumeration value="EUR"/>
                  </xs:restriction></xs:simpleType>
                </xs:attribute>
              </xs:complexType>
            </xs:element>
            <xs:element name="fill" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
          </xs:sequence>
        </xs:complexType>
      </xs:element>
    </xs:schema>"#;
    let item = "<item line=\"1\"><sku>AB123</sku></item>";
    let po = |inner: &str| format!("<po>{}</po>", inner.replace("ITEM", item)).into_bytes();
    let inputs = [
        po("ITEM<fill>x</fill><fill>y</fill>"),
        po("ITEMITEM<item line=\"3\" cur=\"EUR\"><sku>CD4567</sku></item>"),
        // Names a declared one shares a length or a prefix with.
        po("ITEM<filk>x</filk>"),
        po("ITEM<fil>x</fil>"),
        po("ITEM<fills>x</fills>"),
        po("<Item line=\"1\"><sku>AB123</sku></Item>"),
        po("ITEM<fill>x</fill><item>y</item>"),
        // Out of order after a repeated child: its row tries `fill` first.
        po("ITEM<fill>x</fill><fill>y</fill>ITEM"),
        po("ITEMITEM<fill>x</fill>ITEM"),
        po("<fill>x</fill>ITEM"),
        po("ITEM<sku>AB123</sku>"),
        // Attributes: missing, undeclared, decoded, padded, wrong.
        po("<item><sku>AB123</sku></item>"),
        po("<item cur=\"USD\"><sku>AB123</sku></item>"),
        po("<item line=\"1\" bogus=\"2\"><sku>AB123</sku></item>"),
        po("<item line=\"&#49;&#x32;\" cur=\"US&#68;\"><sku>AB123</sku></item>"),
        po("<item line=\" 7 \" cur=\"\tEUR \"><sku>AB123</sku></item>"),
        po("<item line=\"&#x20;7\" cur=\"EUR&#32;\"><sku>AB123</sku></item>"),
        po("<item line=\"0\"><sku>AB123</sku></item>"),
        po("<item line=\"1\" cur=\"usd\"><sku>AB123</sku></item>"),
        po("<item line=\"1\" line=\"x\"><sku>AB123</sku></item>"),
        po("<item line=\"1\" xmlns=\"u\" xmlns:a=\"v\"><sku xmlns:b=\"w\">AB123</sku></item>"),
        // Text in two pieces.
        po("<item line=\"1\"><sku>AB<![CDATA[123]]></sku></item>"),
        po("<item line=\"1\"><sku><![CDATA[]]>AB123<![CDATA[]]></sku></item>"),
        po("<item line=\"1\"><sku>AB<!-- split -->&#49;23</sku></item>"),
        po("<item line=\"1\"><sku>AB<![CDATA[ 123]]></sku></item>"),
        po("<item line=\"1\"><sku> AB123\n</sku></item>"),
        po("<item line=\"1\"><sku>AB12</sku></item>"),
        po("<item line=\"1\"><sku>AB1234567</sku></item>"),
        po("<item line=\"1\"><sku>AB\u{e9}23</sku></item>"),
        // The pattern that stays an NFA.
        po("<item line=\"1\"><sku>AB123</sku><tag>abbbbbbbbbbbb</tag></item>"),
        po("<item line=\"1\"><sku>AB123</sku><tag>bbabbbbbbbbbbbb</tag></item>"),
        po("<item line=\"1\"><sku>AB123</sku><tag>bbbbbbbbbbbbb</tag></item>"),
        po("<item line=\"1\"><sku>AB123</sku><tag>a</tag></item>"),
    ];
    let inputs: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    let auto = assert_schema_agrees(xsd, &inputs);
    assert_eq!(auto.dfa_count(), 2);
    let mut patterns = auto.pattern_dfas();
    patterns.sort();
    assert!(
        matches!(patterns[..], [None, Some((3, states))] if states <= 16),
        "one pattern falls back, one is a small DFA: {patterns:?}"
    );
}

/// Only `xmlns` and `xmlns:prefix` declare a namespace: `xmlnsfoo` is an
/// attribute like any other, and undeclared here — both validators used to
/// skip it.
#[test]
fn an_attribute_that_merely_starts_with_xmlns_is_validated() {
    let (schema, auto) = (&programs().schema, &programs().auto);
    let order = |attrs: &str| {
        soap::wrap_envelope(
            format!(
                "<order id=\"1\"{attrs}><customer>c</customer><date>2007-03-14</date>\
                 <item line=\"1\"><sku>AB123</sku><name>n</name><quantity>1</quantity>\
                 <price>1</price></item></order>"
            )
            .as_bytes(),
        )
    };
    for (attrs, valid) in [
        ("", true),
        (" xmlns=\"u\" xmlns:foo=\"v\"", true),
        (" xmlnsfoo=\"1\"", false),
        (" xmlns.foo=\"1\"", false),
        (" xmln=\"1\"", false),
    ] {
        assert_eq!(
            assert_validators_agree(schema, auto, &order(attrs)),
            Ok(Some(valid)),
            "{attrs:?}"
        );
    }
}

#[test]
fn decode_text_fast_rejects_what_parsing_rejected() {
    // decode_text_fast is only called on spans validated at parse time,
    // but its error behavior still mirrors the traced decoder.
    let input = b"x&nope;y";
    let span = Span { start: 0, end: input.len() };
    let mut out = Vec::new();
    assert!(decode_text_fast(input, span, &mut out).is_err());
}
