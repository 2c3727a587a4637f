//! One event pass over a message body — the serving path's only tokeniser.
//!
//! [`run`] makes a single loop over the input that does the tokenising of
//! [`crate::lexer::Lexer::next_token`] and the well-formedness checks of
//! [`crate::parser::parse_with_options`] (default options) at once, and
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
//! The loop itself handles text runs and the shape of start and end tags,
//! and borrows the fast lexer's helpers
//! ([`crate::lexer::Lexer::next_token_fast`]'s family) for names, in-tag
//! whitespace, attributes and the rare constructs. Delimiter hunting goes
//! through [`crate::scan`]; nothing traced is ever called, so simulator
//! counter tables cannot move.

use crate::error::{XmlError, XmlErrorKind, XmlResult};
use crate::input::TBuf;
use crate::lexer::{decode_text_fast, validate_entities_fast, Lexer, Span, Token};
use crate::parser::ParseOptions;
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

/// Run one of the fast lexer's helpers at `*pos`, which it advances.
fn at<T>(input: &[u8], pos: &mut usize, f: impl FnOnce(&mut Lexer<'_>) -> T) -> T {
    let mut lx = Lexer::new(TBuf::msg(input));
    lx.pos = *pos;
    let out = f(&mut lx);
    *pos = lx.pos;
    out
}

/// Tokenise and check `input` in one pass, reporting to `h`.
///
/// Checks run in the scalar parser's order, so the first error is the
/// same one: a start tag is lexed to its end before the extra-root and
/// depth checks, and those before its attributes' entity references.
pub fn run<'a, H: Events<'a>>(input: &'a [u8], h: &mut H) -> XmlResult<()> {
    let max_depth = ParseOptions::default().max_depth;
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
                let name = at(input, &mut pos, |lx| lx.fast_name(input))?;
                at(input, &mut pos, |lx| lx.fast_skip_ws(input));
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
            Some(b'?' | b'!') | None => match at(input, &mut pos, |lx| lx.fast_markup(input))? {
                Token::Pi { .. } if !open.is_empty() => h.pi(),
                Token::Cdata { span } if open.is_empty() => {
                    return Err(XmlError::at(XmlErrorKind::ExtraContent, span.start));
                }
                Token::Cdata { span } => h.text(&input[span.start..span.end], false),
                _ => {}
            },
            Some(_) => {
                pos += 1;
                let name = at(input, &mut pos, |lx| lx.fast_name(input))?;
                attrs.clear();
                let mut bad_entity = None;
                let self_closing = loop {
                    let skipped = at(input, &mut pos, |lx| lx.fast_skip_ws(input));
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
                    let a = at(input, &mut pos, |lx| lx.fast_attr(input))?;
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
                if open.len() >= max_depth {
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
