//! XML tokenizer.
//!
//! A byte-at-a-time scanner in the style of expat/libxml2's low-level
//! tokenizers: every byte examined is one traced load, one or two ALU ops
//! and a conditional branch, which is precisely the workload character the
//! paper attributes to XML content processing (§3.2 — "copying,
//! concatenation, parsing, tokenization, and matching").
//!
//! [`Lexer::next_token`] yields one [`Token`] per markup construct or text
//! run. Entity decoding is left to [`decode_text`], which the parser calls
//! when materializing text/attribute values.
//!
//! The serving path does not come through here: [`crate::events`] is its
//! tokeniser, untraced, and shares with this file only the byte classes
//! ([`is_ws`], [`is_name_start`], [`NAME_BYTE`]), the name UTF-8 check and
//! the untraced entity decoder at the end.

use crate::error::{XmlError, XmlErrorKind, XmlResult};
use crate::input::TBuf;
use crate::scan;
use aon_trace::{br, site, Probe};

/// A half-open byte range in the input buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Start offset (inclusive).
    pub start: usize,
    /// End offset (exclusive).
    pub end: usize,
}

impl Span {
    /// Length of the span.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the span is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// One attribute inside a start tag (raw, not yet entity-decoded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawAttr {
    /// Attribute name.
    pub name: Span,
    /// Attribute value (inside the quotes, undecoded).
    pub value: Span,
    /// Whether the value contains `&` and needs entity decoding.
    pub has_entities: bool,
}

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// `<?xml ...?>` declaration (content ignored).
    XmlDecl,
    /// `<?target data?>` processing instruction.
    Pi {
        /// PI target name.
        target: Span,
    },
    /// `<!-- ... -->` (content ignored).
    Comment,
    /// `<!DOCTYPE ...>` (content ignored; internal subsets unsupported).
    Doctype,
    /// `<name attr="v" ...>` or `<name ... />`.
    StartTag {
        /// Element name.
        name: Span,
        /// Attributes in document order.
        attrs: Vec<RawAttr>,
        /// True for `<name/>`.
        self_closing: bool,
    },
    /// `</name>`.
    EndTag {
        /// Element name.
        name: Span,
    },
    /// Character data between markup (undecoded).
    Text {
        /// The raw span.
        span: Span,
        /// Whether the run contains `&` references.
        has_entities: bool,
    },
    /// `<![CDATA[ ... ]]>` content.
    Cdata {
        /// The literal content span.
        span: Span,
    },
    /// End of input.
    Eof,
}

/// Is `b` an XML whitespace byte?
#[inline]
pub(crate) fn is_ws(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | b'\n')
}

/// May `b` start a name? (ASCII subset + raw UTF-8 continuation bytes; full
/// Unicode name classes are out of scope and unnecessary for AON traffic.)
#[inline]
pub(crate) fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
}

/// May `b` continue a name?
#[inline]
fn is_name_byte(b: u8) -> bool {
    is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
}

/// [`is_name_byte`] as a 256-entry table, so the event pass classifies a
/// name byte with one indexed load instead of a comparison chain.
pub(crate) const NAME_BYTE: [bool; 256] = {
    let mut t = [false; 256];
    let mut i = 0usize;
    while i < 256 {
        let b = i as u8;
        t[i] = b.is_ascii_alphanumeric() || b >= 0x80 || matches!(b, b'_' | b':' | b'-' | b'.');
        i += 1;
    }
    t
};

/// The tokenizer.
pub struct Lexer<'a> {
    buf: TBuf<'a>,
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// Tokenize `buf` from the beginning.
    pub fn new(buf: TBuf<'a>) -> Self {
        Lexer { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    fn err(&self, kind: XmlErrorKind) -> XmlError {
        XmlError::at(kind, self.pos)
    }

    #[inline]
    fn at_end<P: Probe>(&self, p: &mut P) -> bool {
        let end = self.pos >= self.buf.len();
        p.alu(1);
        p.branch(site!(0x045b_dad0), end);
        end
    }

    #[inline]
    fn peek<P: Probe>(&self, p: &mut P) -> XmlResult<u8> {
        self.buf.try_get(self.pos, p).ok_or_else(|| self.err(XmlErrorKind::UnexpectedEof))
    }

    #[inline]
    fn bump<P: Probe>(&mut self, p: &mut P) -> XmlResult<u8> {
        let b = self.peek(p)?;
        self.pos += 1;
        p.alu(1);
        Ok(b)
    }

    fn expect<P: Probe>(&mut self, want: u8, p: &mut P) -> XmlResult<()> {
        let b = self.peek(p)?;
        if br!(p, 0x0199_e10b, b == want) {
            self.pos += 1;
            p.alu(1);
            Ok(())
        } else {
            Err(self.err(XmlErrorKind::MalformedTag))
        }
    }

    /// Skip whitespace; returns how many bytes were skipped.
    fn skip_ws<P: Probe>(&mut self, p: &mut P) -> usize {
        let start = self.pos;
        while let Some(b) = self.buf.try_get(self.pos, p) {
            p.alu(1);
            if !br!(p, 0x0d74_c786, is_ws(b)) {
                break;
            }
            self.pos += 1;
        }
        self.pos - start
    }

    /// Scan an XML name starting at the current position.
    fn scan_name<P: Probe>(&mut self, p: &mut P) -> XmlResult<Span> {
        let start = self.pos;
        let first = self.peek(p)?;
        p.alu(2);
        if !br!(p, 0x0818_d8ab, is_name_start(first)) {
            return Err(self.err(XmlErrorKind::MalformedTag));
        }
        self.pos += 1;
        while let Some(b) = self.buf.try_get(self.pos, p) {
            p.alu(2);
            if !br!(p, 0x0944_a5cd, is_name_byte(b)) {
                break;
            }
            self.pos += 1;
        }
        let span = Span { start, end: self.pos };
        check_name_utf8(self.buf.raw(), span)?;
        Ok(span)
    }

    /// Scan until the two-byte terminator `t0 t1` (e.g. `?>`); returns the
    /// content span (exclusive of the terminator).
    fn scan_until2<P: Probe>(
        &mut self,
        t0: u8,
        t1: u8,
        kind: XmlErrorKind,
        p: &mut P,
    ) -> XmlResult<Span> {
        let start = self.pos;
        loop {
            if self.at_end(p) {
                return Err(XmlError::at(kind, self.pos));
            }
            let b = self.bump(p)?;
            p.alu(1);
            if br!(p, 0xd01a_e187, b == t0) {
                let n = self.peek(p)?;
                if br!(p, 0xd06e_34e5, n == t1) {
                    self.pos += 1;
                    return Ok(Span { start, end: self.pos - 2 });
                }
            }
        }
    }

    /// Scan one attribute (`name = "value"`); current position must be at
    /// the name start.
    fn scan_attr<P: Probe>(&mut self, p: &mut P) -> XmlResult<RawAttr> {
        let name = self.scan_name(p)?;
        self.skip_ws(p);
        self.expect(b'=', p).map_err(|e| XmlError::at(XmlErrorKind::BadAttribute, e.offset))?;
        self.skip_ws(p);
        let quote = self.bump(p)?;
        p.alu(1);
        if !br!(p, 0xd442_4243, quote == b'"' || quote == b'\'') {
            return Err(self.err(XmlErrorKind::BadAttribute));
        }
        let vstart = self.pos;
        let mut has_entities = false;
        loop {
            let b = self
                .buf
                .try_get(self.pos, p)
                .ok_or_else(|| self.err(XmlErrorKind::UnexpectedEof))?;
            p.alu(1);
            if br!(p, 0xcf7a_36b5, b == quote) {
                break;
            }
            if br!(p, 0xcfcf_fc2e, b == b'<') {
                return Err(self.err(XmlErrorKind::BadAttribute));
            }
            if br!(p, 0xced9_490b, b == b'&') {
                has_entities = true;
            }
            self.pos += 1;
        }
        let value = Span { start: vstart, end: self.pos };
        self.pos += 1; // closing quote
        p.alu(1);
        Ok(RawAttr { name, value, has_entities })
    }

    /// Scan the body of a start tag after `<name`, collecting attributes.
    fn scan_start_tag<P: Probe>(&mut self, name: Span, p: &mut P) -> XmlResult<Token> {
        let mut attrs = Vec::new();
        loop {
            let skipped = self.skip_ws(p);
            let b = self.peek(p)?;
            p.alu(1);
            if br!(p, 0xd218_002d, b == b'>') {
                self.pos += 1;
                return Ok(Token::StartTag { name, attrs, self_closing: false });
            }
            if br!(p, 0xc668_b8f1, b == b'/') {
                self.pos += 1;
                self.expect(b'>', p)?;
                return Ok(Token::StartTag { name, attrs, self_closing: true });
            }
            // An attribute must be whitespace-separated from what precedes.
            if br!(p, 0xc70b_db47, skipped == 0) {
                return Err(self.err(XmlErrorKind::MalformedTag));
            }
            attrs.push(self.scan_attr(p)?);
        }
    }

    /// Scan markup starting at `<` (already consumed position is *at* `<`).
    fn scan_markup<P: Probe>(&mut self, p: &mut P) -> XmlResult<Token> {
        self.pos += 1; // consume '<'
        p.alu(1);
        let b = self.peek(p)?;
        if br!(p, 0xcb7a_a36f, b == b'/') {
            self.pos += 1;
            let name = self.scan_name(p)?;
            self.skip_ws(p);
            self.expect(b'>', p).map_err(|e| XmlError::at(XmlErrorKind::MalformedTag, e.offset))?;
            return Ok(Token::EndTag { name });
        }
        if br!(p, 0xcae2_ebf4, b == b'?') {
            self.pos += 1;
            let target =
                self.scan_name(p).map_err(|e| XmlError::at(XmlErrorKind::BadPi, e.offset))?;
            let target_bytes = self.buf.span(target.start, target.end);
            self.scan_until2(b'?', b'>', XmlErrorKind::BadPi, p)?;
            p.alu(2);
            if br!(p, 0xffa9_1d91, target_bytes == b"xml") {
                return Ok(Token::XmlDecl);
            }
            return Ok(Token::Pi { target });
        }
        if br!(p, 0xfc69_3dc8, b == b'!') {
            self.pos += 1;
            let b2 = self.peek(p)?;
            if br!(p, 0xfd05_3ab9, b2 == b'-') {
                // Comment: <!-- ... -->
                self.pos += 1;
                self.expect(b'-', p)
                    .map_err(|e| XmlError::at(XmlErrorKind::BadComment, e.offset))?;
                self.scan_comment(p)?;
                return Ok(Token::Comment);
            }
            if br!(p, 0xc39f_11c1, b2 == b'[') {
                // CDATA: <![CDATA[ ... ]]>
                return self.scan_cdata(p);
            }
            if br!(p, 0xc0b5_64a5, b2 == b'D') {
                // DOCTYPE (no internal subset support).
                let mut depth = 0usize;
                loop {
                    let c = self.bump(p)?;
                    p.alu(1);
                    if br!(p, 0xc1dd_5863, c == b'<') {
                        depth += 1;
                    } else if br!(p, 0xc10f_ff90, c == b'>') {
                        if br!(p, 0xc6c2_ba00, depth == 0) {
                            return Ok(Token::Doctype);
                        }
                        depth -= 1;
                    }
                }
            }
            return Err(self.err(XmlErrorKind::UnexpectedByte));
        }
        let name = self.scan_name(p)?;
        self.scan_start_tag(name, p)
    }

    fn scan_comment<P: Probe>(&mut self, p: &mut P) -> XmlResult<()> {
        // Content up to `-->`; `--` not followed by `>` is an error per spec.
        loop {
            let b = self.bump(p).map_err(|_| self.err(XmlErrorKind::BadComment))?;
            p.alu(1);
            if br!(p, 0xf87c_29b6, b == b'-') {
                let b2 = self.peek(p).map_err(|_| self.err(XmlErrorKind::BadComment))?;
                if br!(p, 0xf8eb_3534, b2 == b'-') {
                    self.pos += 1;
                    let b3 = self.peek(p).map_err(|_| self.err(XmlErrorKind::BadComment))?;
                    if br!(p, 0xf903_77ed, b3 == b'>') {
                        self.pos += 1;
                        return Ok(());
                    }
                    return Err(self.err(XmlErrorKind::BadComment));
                }
            }
        }
    }

    fn scan_cdata<P: Probe>(&mut self, p: &mut P) -> XmlResult<Token> {
        // Current position is at '[' of "<![CDATA[".
        const OPEN: &[u8] = b"[CDATA[";
        for (i, &want) in OPEN.iter().enumerate() {
            let b = self
                .buf
                .try_get(self.pos + i, p)
                .ok_or_else(|| self.err(XmlErrorKind::BadCdata))?;
            p.alu(1);
            if !br!(p, 0xf00e_13fd, b == want) {
                return Err(self.err(XmlErrorKind::BadCdata));
            }
        }
        self.pos += OPEN.len();
        let start = self.pos;
        loop {
            if self.at_end(p) {
                return Err(self.err(XmlErrorKind::BadCdata));
            }
            let b = self.bump(p)?;
            p.alu(1);
            if br!(p, 0xf5bc_0b5a, b == b']') {
                let b2 = self.buf.try_get(self.pos, p);
                let b3 = self.buf.try_get(self.pos + 1, p);
                if br!(p, 0xf509_5be3, b2 == Some(b']') && b3 == Some(b'>')) {
                    let span = Span { start, end: self.pos - 1 };
                    self.pos += 2;
                    return Ok(Token::Cdata { span });
                }
            }
        }
    }

    /// Produce the next token.
    pub fn next_token<P: Probe>(&mut self, p: &mut P) -> XmlResult<Token> {
        if self.at_end(p) {
            return Ok(Token::Eof);
        }
        let b = self.peek(p)?;
        p.alu(1);
        if br!(p, 0xebd3_705b, b == b'<') {
            return self.scan_markup(p);
        }
        // Text run until '<' or EOF.
        let start = self.pos;
        let mut has_entities = false;
        while let Some(c) = self.buf.try_get(self.pos, p) {
            p.alu(1);
            if br!(p, 0xedf5_10af, c == b'<') {
                break;
            }
            if br!(p, 0xec9a_a628, c == b'&') {
                has_entities = true;
            }
            self.pos += 1;
        }
        Ok(Token::Text { span: Span { start, end: self.pos }, has_entities })
    }
}

/// Reject name spans that are not well-formed UTF-8.
///
/// [`is_name_start`] admits raw `>= 0x80` bytes, so without this check a
/// truncated multi-byte sequence inside a name tokenizes successfully
/// and is only caught (or not) by a later whole-message
/// [`crate::utf8::validate_utf8`] pass. The check is deliberately
/// *untraced* — plain slice reads, no probe ops — so the traced path's
/// counters are byte-identical for ASCII names (all AON traffic); only
/// names containing high bytes pay the decode. Both tokenisers share it,
/// keeping their error behaviour aligned.
pub(crate) fn check_name_utf8(input: &[u8], span: Span) -> XmlResult<()> {
    let bytes = &input[span.start..span.end];
    if bytes.is_ascii() {
        return Ok(());
    }
    match std::str::from_utf8(bytes) {
        Ok(_) => Ok(()),
        Err(e) => Err(XmlError::at(XmlErrorKind::MalformedTag, span.start + e.valid_up_to())),
    }
}

/// Decode entity references in `span` of `buf`, appending the decoded bytes
/// to `out`. Supports the five predefined entities and decimal/hex character
/// references (ASCII and general UTF-8 code points).
///
/// Tracing: one load per byte re-read plus per-byte ALU; the caller accounts
/// for the stores when materializing `out` into an arena.
pub fn decode_text<P: Probe>(
    buf: TBuf<'_>,
    span: Span,
    out: &mut Vec<u8>,
    p: &mut P,
) -> XmlResult<()> {
    let mut i = span.start;
    while i < span.end {
        let b = buf.get(i, p);
        p.alu(1);
        if !br!(p, 0xb8fc_5e97, b == b'&') {
            out.push(b);
            i += 1;
            continue;
        }
        // Find the terminating ';' (entities are short; cap the scan).
        let mut j = i + 1;
        let limit = (i + 12).min(span.end);
        let mut end = None;
        while j < limit {
            let c = buf.get(j, p);
            p.alu(1);
            if br!(p, 0xbba0_c7c8, c == b';') {
                end = Some(j);
                break;
            }
            j += 1;
        }
        let Some(end) = end else {
            return Err(XmlError::at(XmlErrorKind::BadEntity, i));
        };
        let name = buf.span(i + 1, end);
        p.alu(name.len() as u32);
        let c = entity_char(name).ok_or(XmlError::at(XmlErrorKind::BadEntity, i))?;
        out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
        i = end + 1;
    }
    Ok(())
}

/// The character the reference `&name;` stands for: one of the five
/// predefined entities, or a decimal/hex character reference.
fn entity_char(name: &[u8]) -> Option<char> {
    match name {
        b"lt" => Some('<'),
        b"gt" => Some('>'),
        b"amp" => Some('&'),
        b"apos" => Some('\''),
        b"quot" => Some('"'),
        [b'#', digits @ ..] => {
            let digits = std::str::from_utf8(digits).ok()?;
            let cp = match digits.strip_prefix(['x', 'X']) {
                Some(hex) => u32::from_str_radix(hex, 16),
                None => digits.parse(),
            };
            char::from_u32(cp.ok()?)
        }
        _ => None,
    }
}

/// Parse the entity reference starting at `i` (the `&`), bounded by `end`:
/// its character and the position just past the terminating `;`. The
/// `;` scan cap and the error offset are those of [`decode_text`].
fn parse_entity(input: &[u8], i: usize, end: usize) -> XmlResult<(char, usize)> {
    let bad = || XmlError::at(XmlErrorKind::BadEntity, i);
    let limit = (i + 12).min(end);
    let t = (i + 1..limit).find(|&j| input[j] == b';').ok_or_else(bad)?;
    Ok((entity_char(&input[i + 1..t]).ok_or_else(bad)?, t + 1))
}

/// Untraced twin of [`decode_text`]: identical output bytes and identical
/// errors (kind and offset), but literal stretches between entities are
/// copied slice-at-a-time instead of byte-at-a-time.
pub fn decode_text_fast(input: &[u8], span: Span, out: &mut Vec<u8>) -> XmlResult<()> {
    let mut i = span.start;
    while let Some(r) = scan::find_byte(b'&', &input[i..span.end]) {
        let amp = i + r;
        out.extend_from_slice(&input[i..amp]);
        let (c, next) = parse_entity(input, amp, span.end)?;
        out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
        i = next;
    }
    out.extend_from_slice(&input[i..span.end]);
    Ok(())
}

/// Check the entity references in `span` without materializing the decoded
/// bytes — the validation half of [`decode_text_fast`], used by the event
/// pass ([`crate::events`]) so its errors match the eager parser's while
/// the decode itself is left to the handler that wants the value.
pub fn validate_entities_fast(input: &[u8], span: Span) -> XmlResult<()> {
    let mut i = span.start;
    while let Some(r) = scan::find_byte(b'&', &input[i..span.end]) {
        let (_, next) = parse_entity(input, i + r, span.end)?;
        i = next;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aon_trace::{NullProbe, Tracer};

    fn lex_all(input: &[u8]) -> XmlResult<Vec<Token>> {
        let mut p = NullProbe;
        let mut lx = Lexer::new(TBuf::msg(input));
        let mut out = Vec::new();
        loop {
            let t = lx.next_token(&mut p)?;
            let done = t == Token::Eof;
            out.push(t);
            if done {
                return Ok(out);
            }
        }
    }

    fn span_text(input: &[u8], s: Span) -> &[u8] {
        &input[s.start..s.end]
    }

    #[test]
    fn simple_element() {
        let input = b"<a>hi</a>";
        let toks = lex_all(input).unwrap();
        assert_eq!(toks.len(), 4); // start, text, end, eof
        match &toks[0] {
            Token::StartTag { name, attrs, self_closing } => {
                assert_eq!(span_text(input, *name), b"a");
                assert!(attrs.is_empty());
                assert!(!self_closing);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &toks[1] {
            Token::Text { span, has_entities } => {
                assert_eq!(span_text(input, *span), b"hi");
                assert!(!has_entities);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn attributes_and_self_closing() {
        let input = br#"<po id="42" note='a&amp;b'/>"#;
        let toks = lex_all(input).unwrap();
        match &toks[0] {
            Token::StartTag { attrs, self_closing, .. } => {
                assert!(self_closing);
                assert_eq!(attrs.len(), 2);
                assert_eq!(span_text(input, attrs[0].name), b"id");
                assert_eq!(span_text(input, attrs[0].value), b"42");
                assert!(!attrs[0].has_entities);
                assert!(attrs[1].has_entities);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn xml_decl_and_pi_and_comment() {
        let input = b"<?xml version=\"1.0\"?><?proc data?><!-- c --><r/>";
        let toks = lex_all(input).unwrap();
        assert_eq!(toks[0], Token::XmlDecl);
        assert!(matches!(toks[1], Token::Pi { .. }));
        assert_eq!(toks[2], Token::Comment);
        assert!(matches!(toks[3], Token::StartTag { .. }));
    }

    #[test]
    fn cdata() {
        let input = b"<r><![CDATA[<not&markup>]]></r>";
        let toks = lex_all(input).unwrap();
        match &toks[1] {
            Token::Cdata { span } => assert_eq!(span_text(input, *span), b"<not&markup>"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn doctype_skipped() {
        let input = b"<!DOCTYPE note SYSTEM \"note.dtd\"><n/>";
        let toks = lex_all(input).unwrap();
        assert_eq!(toks[0], Token::Doctype);
    }

    #[test]
    fn errors_unterminated_tag() {
        assert!(lex_all(b"<a").is_err());
        assert!(lex_all(b"<a foo=>").is_err());
        assert!(lex_all(b"<a foo=\"x>").is_err());
        assert!(lex_all(b"<!-- never closed").is_err());
        assert!(lex_all(b"<![CDATA[oops").is_err());
    }

    #[test]
    fn attr_requires_separating_ws() {
        assert!(lex_all(b"<a x=\"1\"y=\"2\"/>").is_err());
    }

    #[test]
    fn decode_predefined_entities() {
        let input = b"a&lt;b&gt;c&amp;d&apos;e&quot;f";
        let mut out = Vec::new();
        decode_text(
            TBuf::msg(input),
            Span { start: 0, end: input.len() },
            &mut out,
            &mut NullProbe,
        )
        .unwrap();
        assert_eq!(out, b"a<b>c&d'e\"f");
    }

    #[test]
    fn decode_char_refs() {
        let input = "x&#65;&#x42;&#x2603;".as_bytes();
        let mut out = Vec::new();
        decode_text(
            TBuf::msg(input),
            Span { start: 0, end: input.len() },
            &mut out,
            &mut NullProbe,
        )
        .unwrap();
        assert_eq!(out, "xAB\u{2603}".as_bytes());
    }

    #[test]
    fn decode_bad_entity_is_error() {
        for bad in [&b"&unknown;"[..], b"&lt", b"&#xZZ;", b"&#1114112;"] {
            let mut out = Vec::new();
            assert!(
                decode_text(
                    TBuf::msg(bad),
                    Span { start: 0, end: bad.len() },
                    &mut out,
                    &mut NullProbe
                )
                .is_err(),
                "expected error for {:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn lexing_emits_per_byte_work() {
        let input = b"<abc def=\"ghi\">text</abc>";
        let mut t = Tracer::new();
        let mut lx = Lexer::new(TBuf::msg(input));
        loop {
            if lx.next_token(&mut t).unwrap() == Token::Eof {
                break;
            }
        }
        let s = t.finish().stats();
        // Every input byte is examined at least once.
        assert!(s.loads >= input.len() as u64);
        // Scanning is branch-heavy: at least one branch per two bytes.
        assert!(s.branches as usize >= input.len() / 2);
    }
}
