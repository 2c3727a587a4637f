//! One event pass over a message body — the serving path's only tokeniser.
//!
//! [`run`] makes a single loop over the input that does the tokenising of
//! [`crate::lexer::Lexer::next_token`] and the well-formedness checks of
//! [`crate::parser::parse_document`] at once, and
//! hands what it finds to an [`Events`] handler: start tag with its
//! attributes, text or CDATA run, processing instruction, end tag. Nothing
//! is built — no token values, no nodes, no name table — and values stay
//! undecoded slices of the input, so a handler that ignores them pays for
//! no copy. The two compiled programs of the fast path are such handlers:
//! [`crate::xpath::CompiledPath`] answers the router's comparison and
//! [`crate::schema::SchemaAutomaton`] validates, each in this one pass.
//!
//! The grammar, the skipping rules (whitespace-only text, comments,
//! prolog, processing instructions outside the root) and every error —
//! kind *and* offset — are those of the traced scalar parser over the same
//! bytes; the differential suite in `tests/` pins this on corpora,
//! adversarial inputs, every prefix of a message and byte-mutation fuzzing.
//! A handler never sees an event of a document the pass rejects *before*
//! that event, but it can see events of one rejected *after* them: a
//! verdict is final only once [`run`] has returned `Ok`.
//!
//! The loop itself handles text runs and the shape of start and end tags;
//! names, in-tag whitespace, attributes and the rare constructs
//! (declaration, processing instruction, comment, CDATA, DOCTYPE) are the
//! out-of-line helpers at the end of this file, each a plain
//! `fn(input, &mut pos)`. Delimiter hunting goes through [`crate::scan`];
//! nothing traced is ever called, so simulator counter tables cannot move.

#![deny(clippy::as_conversions)]

use crate::error::{XmlError, XmlErrorKind, XmlResult};
use crate::lexer::{
    check_name_utf8, decode_text_fast, is_name_start, is_ws, validate_entities_fast, RawAttr, Span,
    NAME_BYTE,
};
use crate::parser::MAX_DEPTH;
use crate::scan;
use std::borrow::Cow;

/// One attribute of a start tag, as undecoded slices of the input.
#[derive(Debug, Clone, Copy)]
pub struct Attr<'a> {
    /// Attribute name.
    pub name: &'a [u8],
    /// Attribute value (inside the quotes, undecoded).
    pub value: &'a [u8],
    /// Whether the value contains `&` and needs [`decoded`].
    pub has_entities: bool,
}

/// What [`run`] reports, in document order; a handler overrides what it
/// wants to hear of. Entity references in every value handed over have
/// already been validated, so [`decoded`] cannot fail on them.
pub trait Events<'a> {
    /// `<name attr="v" …>` or `<name …/>` (the latter is followed directly
    /// by [`Events::end`]).
    fn start(&mut self, _name: &'a [u8], _attrs: &[Attr<'a>]) {}
    /// A text node inside the root: a character-data run that is not
    /// whitespace only (`has_entities` says whether it needs decoding), or
    /// the literal content of a CDATA section (possibly empty).
    fn text(&mut self, _raw: &'a [u8], _has_entities: bool) {}
    /// A processing instruction inside the root (a child node that is
    /// neither element nor text).
    fn pi(&mut self) {}
    /// The end of the innermost open element.
    fn end(&mut self) {}
}

/// The handler that wants nothing: the pass is then a pure
/// well-formedness check.
impl Events<'_> for () {}

/// Is `input` a well-formed document? The error is the scalar parser's.
pub fn well_formed(input: &[u8]) -> XmlResult<()> {
    run(input, &mut ())
}

/// The value of a text run or attribute: the raw bytes when they hold no
/// entity reference, the decoded bytes otherwise.
pub fn decoded(raw: &[u8], has_entities: bool) -> Cow<'_, [u8]> {
    if !has_entities {
        return Cow::Borrowed(raw);
    }
    let mut out = Vec::with_capacity(raw.len());
    // The pass validated the references before handing `raw` over.
    let ok = decode_text_fast(raw, Span { start: 0, end: raw.len() }, &mut out);
    debug_assert!(ok.is_ok(), "entity references are validated by the event pass");
    Cow::Owned(out)
}

/// Tokenise and check `input` in one pass, reporting to `h`.
///
/// Checks run in the scalar parser's order, so the first error is the
/// same one: a start tag is lexed to its end before the extra-root and
/// depth checks, and those before its attributes' entity references.
pub fn run<'a, H: Events<'a>>(input: &'a [u8], h: &mut H) -> XmlResult<()> {
    let mut pos = 0;
    // Names of the open elements, innermost last.
    let mut open: Vec<Span> = Vec::with_capacity(32);
    // The current start tag's attributes (reused from tag to tag).
    let mut attrs: Vec<Attr<'a>> = Vec::new();
    let mut saw_root = false;

    while let Some(&b) = input.get(pos) {
        if b != b'<' {
            // Character data up to '<' or the end of input. Whitespace-only
            // runs are dropped inside the root and legal outside it.
            let start = pos;
            let mut i = start;
            while input.get(i).is_some_and(u8::is_ascii_whitespace) {
                i += 1;
            }
            if input.get(i).is_none_or(|&b| b == b'<') {
                pos = i;
                continue;
            }
            let (stop, has_entities) = scan::scan_until_amp(b'<', &input[i..]);
            let end = stop.map_or(input.len(), |k| i + k);
            pos = end;
            if open.is_empty() {
                return Err(XmlError::at(XmlErrorKind::ExtraContent, start));
            }
            if has_entities {
                validate_entities_fast(input, Span { start, end })?;
            }
            h.text(&input[start..end], has_entities);
            continue;
        }
        match input.get(pos + 1) {
            Some(b'/') => {
                pos += 2;
                // The common close tag is exactly the open name and '>'.
                if let Some(o) = open.last() {
                    let end = pos + o.len();
                    if input.get(end) == Some(&b'>') && input[pos..end] == input[o.start..o.end] {
                        pos = end + 1;
                        open.pop();
                        h.end();
                        continue;
                    }
                }
                let name = name(input, &mut pos)?;
                skip_ws(input, &mut pos);
                if input.get(pos) != Some(&b'>') {
                    return Err(XmlError::at(XmlErrorKind::MalformedTag, pos));
                }
                pos += 1;
                match open.pop() {
                    Some(o) if input[o.start..o.end] == input[name.start..name.end] => h.end(),
                    _ => return Err(XmlError::at(XmlErrorKind::MismatchedTag, name.start)),
                }
            }
            // Declaration, processing instruction, comment, CDATA, DOCTYPE
            // — or the end of input, which the lexer reports.
            Some(b'?' | b'!') | None => match rare_markup(input, &mut pos)? {
                Rare::Pi if !open.is_empty() => h.pi(),
                Rare::Cdata(span) if open.is_empty() => {
                    return Err(XmlError::at(XmlErrorKind::ExtraContent, span.start));
                }
                Rare::Cdata(span) => h.text(&input[span.start..span.end], false),
                Rare::Pi | Rare::Skipped => {}
            },
            Some(_) => {
                pos += 1;
                let name = name(input, &mut pos)?;
                attrs.clear();
                let mut bad_entity = None;
                let self_closing = loop {
                    let skipped = skip_ws(input, &mut pos);
                    match input.get(pos) {
                        None => return Err(XmlError::at(XmlErrorKind::UnexpectedEof, pos)),
                        Some(b'>') => break false,
                        Some(b'/') => {
                            pos += 1;
                            match input.get(pos) {
                                None => return Err(XmlError::at(XmlErrorKind::UnexpectedEof, pos)),
                                Some(b'>') => break true,
                                Some(_) => {
                                    return Err(XmlError::at(XmlErrorKind::MalformedTag, pos))
                                }
                            }
                        }
                        // An attribute must be whitespace-separated from
                        // what precedes it.
                        Some(_) if skipped == 0 => {
                            return Err(XmlError::at(XmlErrorKind::MalformedTag, pos));
                        }
                        Some(_) => {}
                    }
                    let a = attr(input, &mut pos)?;
                    if a.has_entities && bad_entity.is_none() {
                        bad_entity = validate_entities_fast(input, a.value).err();
                    }
                    attrs.push(Attr {
                        name: &input[a.name.start..a.name.end],
                        value: &input[a.value.start..a.value.end],
                        has_entities: a.has_entities,
                    });
                };
                pos += 1; // '>'
                if open.is_empty() && saw_root {
                    return Err(XmlError::at(XmlErrorKind::ExtraContent, name.start));
                }
                if open.len() >= MAX_DEPTH {
                    return Err(XmlError::at(XmlErrorKind::TooDeep, name.start));
                }
                if let Some(e) = bad_entity {
                    return Err(e);
                }
                saw_root = true;
                h.start(&input[name.start..name.end], &attrs);
                if self_closing {
                    h.end();
                } else {
                    open.push(name);
                }
            }
        }
    }
    if let Some(o) = open.last() {
        return Err(XmlError::at(XmlErrorKind::UnexpectedEof, o.start));
    }
    if !saw_root {
        return Err(XmlError::at(XmlErrorKind::NoRoot, pos));
    }
    Ok(())
}

/// An XML name at `*pos`.
fn name(input: &[u8], pos: &mut usize) -> XmlResult<Span> {
    let start = *pos;
    let first =
        *input.get(start).ok_or_else(|| XmlError::at(XmlErrorKind::UnexpectedEof, start))?;
    if !is_name_start(first) {
        return Err(XmlError::at(XmlErrorKind::MalformedTag, start));
    }
    let mut i = start + 1;
    while i < input.len() && NAME_BYTE[usize::from(input[i])] {
        i += 1;
    }
    *pos = i;
    let span = Span { start, end: i };
    check_name_utf8(input, span)?;
    Ok(span)
}

/// Skip whitespace; returns how many bytes were skipped.
fn skip_ws(input: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while *pos < input.len() && is_ws(input[*pos]) {
        *pos += 1;
    }
    *pos - start
}

/// One attribute (`name = "value"`); `*pos` is at the name start.
fn attr(input: &[u8], pos: &mut usize) -> XmlResult<RawAttr> {
    let name = name(input, pos)?;
    skip_ws(input, pos);
    // A missing '=' — including the end of input — is BadAttribute here.
    if input.get(*pos) != Some(&b'=') {
        return Err(XmlError::at(XmlErrorKind::BadAttribute, *pos));
    }
    *pos += 1;
    skip_ws(input, pos);
    let quote = *input.get(*pos).ok_or_else(|| XmlError::at(XmlErrorKind::UnexpectedEof, *pos))?;
    *pos += 1;
    if quote != b'"' && quote != b'\'' {
        return Err(XmlError::at(XmlErrorKind::BadAttribute, *pos));
    }
    let vstart = *pos;
    let (stop, has_entities) = scan::scan2_until_amp(quote, b'<', &input[vstart..]);
    let Some(i) = stop else {
        return Err(XmlError::at(XmlErrorKind::UnexpectedEof, input.len()));
    };
    let at = vstart + i;
    if input[at] == b'<' {
        return Err(XmlError::at(XmlErrorKind::BadAttribute, at));
    }
    *pos = at + 1; // closing quote
    Ok(RawAttr { name, value: Span { start: vstart, end: at }, has_entities })
}

/// What [`rare_markup`] found.
enum Rare {
    /// A processing instruction (not the XML declaration).
    Pi,
    /// A CDATA section's literal content.
    Cdata(Span),
    /// XML declaration, comment or DOCTYPE: nothing to report.
    Skipped,
}

/// `<?…?>`, `<!--…-->`, `<![CDATA[…]]>` or `<!DOCTYPE…>`; `*pos` is at a
/// `<` that is followed by `?`, by `!` or by the end of the input.
fn rare_markup(input: &[u8], pos: &mut usize) -> XmlResult<Rare> {
    *pos += 1; // consume '<'
    let b = *input.get(*pos).ok_or_else(|| XmlError::at(XmlErrorKind::UnexpectedEof, *pos))?;
    *pos += 1; // consume '?' or '!'
    if b == b'?' {
        let target = name(input, pos).map_err(|e| XmlError::at(XmlErrorKind::BadPi, e.offset))?;
        until2(input, pos, b'?', b'>', XmlErrorKind::BadPi)?;
        if &input[target.start..target.end] == b"xml" {
            return Ok(Rare::Skipped);
        }
        return Ok(Rare::Pi);
    }
    let b2 = *input.get(*pos).ok_or_else(|| XmlError::at(XmlErrorKind::UnexpectedEof, *pos))?;
    if b2 == b'-' {
        *pos += 1;
        // A missing second '-' is BadComment at the current position.
        if input.get(*pos) != Some(&b'-') {
            return Err(XmlError::at(XmlErrorKind::BadComment, *pos));
        }
        *pos += 1;
        comment(input, pos)?;
        return Ok(Rare::Skipped);
    }
    if b2 == b'[' {
        return cdata(input, pos).map(Rare::Cdata);
    }
    if b2 == b'D' {
        // DOCTYPE: skip to the matching '>', counting '<' depth.
        let mut depth = 0usize;
        let mut from = *pos;
        loop {
            let Some(i) = scan::find_byte2(b'<', b'>', &input[from..]) else {
                return Err(XmlError::at(XmlErrorKind::UnexpectedEof, input.len()));
            };
            let at = from + i;
            if input[at] == b'<' {
                depth += 1;
            } else if depth == 0 {
                *pos = at + 1;
                return Ok(Rare::Skipped);
            } else {
                depth -= 1;
            }
            from = at + 1;
        }
    }
    Err(XmlError::at(XmlErrorKind::UnexpectedByte, *pos))
}

/// Skip past the two-byte terminator `t0 t1` (e.g. `?>`).
fn until2(input: &[u8], pos: &mut usize, t0: u8, t1: u8, kind: XmlErrorKind) -> XmlResult<()> {
    let mut from = *pos;
    loop {
        let Some(i) = scan::find_byte(t0, &input[from..]) else {
            return Err(XmlError::at(kind, input.len()));
        };
        let at = from + i;
        match input.get(at + 1) {
            // `t0` as the last byte is UnexpectedEof, not `kind`.
            None => return Err(XmlError::at(XmlErrorKind::UnexpectedEof, at + 1)),
            Some(&n) if n == t1 => {
                *pos = at + 2;
                return Ok(());
            }
            Some(_) => from = at + 1,
        }
    }
}

/// The rest of a comment; `*pos` is after `<!--`.
fn comment(input: &[u8], pos: &mut usize) -> XmlResult<()> {
    // The first "--" decides: followed by '>' it closes the comment,
    // otherwise the comment is malformed per spec — no need to keep
    // searching past it.
    let Some(i) = scan::find_seq2(b'-', b'-', &input[*pos..]) else {
        return Err(XmlError::at(XmlErrorKind::BadComment, input.len()));
    };
    let after = *pos + i + 2; // just past the "--"
    if input.get(after) != Some(&b'>') {
        return Err(XmlError::at(XmlErrorKind::BadComment, after));
    }
    *pos = after + 1;
    Ok(())
}

/// A CDATA section's content span; `*pos` is at the `[` of `<![CDATA[`.
fn cdata(input: &[u8], pos: &mut usize) -> XmlResult<Span> {
    const OPEN: &[u8] = b"[CDATA[";
    if input.len() < *pos + OPEN.len() || &input[*pos..*pos + OPEN.len()] != OPEN {
        return Err(XmlError::at(XmlErrorKind::BadCdata, *pos));
    }
    *pos += OPEN.len();
    let start = *pos;
    let mut from = *pos;
    loop {
        let Some(i) = scan::find_byte(b']', &input[from..]) else {
            return Err(XmlError::at(XmlErrorKind::BadCdata, input.len()));
        };
        let at = from + i;
        if input.get(at + 1) == Some(&b']') && input.get(at + 2) == Some(&b'>') {
            *pos = at + 3;
            return Ok(Span { start, end: at });
        }
        from = at + 1;
    }
}
