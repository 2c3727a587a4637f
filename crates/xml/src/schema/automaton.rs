//! Compiled content-model automata for the fast (untraced) serving path.
//!
//! [`super::validate`] interprets the particle tree per message: every
//! child-list match re-walks `Sequence`/`Choice` nodes and compares element
//! names byte-by-byte. [`SchemaAutomaton`] compiles each `Children` content
//! model once — at rule-table construction — into a Glushkov position
//! automaton over an interned element-name alphabet, so the per-message
//! work is one table transition per child.
//!
//! The automaton runs as a handler of the one event pass
//! ([`crate::events`]): a pushdown of per-element frames, one per open
//! element of the validated subtree. A frame is the element's content
//! model in progress — a DFA state, or the child names seen so far for a
//! model the greedy interpreter must judge. Attributes are checked at the
//! start tag, a simple-typed element's text at its end tag. No tree exists
//! at any point. A violation settles the verdict, but never ends the pass:
//! a body that is malformed further on is still an error.
//!
//! Soundness over speed: the interpreted matcher is *greedy* (no
//! backtracking across repetition counts), which coincides with the
//! automaton's language exactly when the content model is deterministic —
//! XSD's Unique Particle Attribution rule, which real schemas satisfy. The
//! builder therefore checks determinism of the position automaton
//! (duplicate symbols in a first/follow set) and falls back to the *same
//! greedy interpreter* ([`validate::match_particle`] under `NullProbe`)
//! whenever the check fails, counts expand too far (`max − min > 8`), or
//! the model uses `xs:all`. Fallback changes cost, never verdicts; the
//! differential suite pins [`SchemaAutomaton`] against
//! [`Schema::validate_node`] over the same bytes.
//!
//! Value and facet checks reuse [`super::value`] with `NullProbe` — the
//! exact lexical-space code the traced validator runs, minus the probes.

use super::types::{AttrDecl, ContentModel, Particle, TypeDef, TypeRef, MAX_UNBOUNDED};
use super::{validate, value, Schema};
use crate::error::XmlResult;
use crate::events::{self, Attr, Events};
use crate::soap::PayloadFinder;
use aon_trace::NullProbe;
use std::borrow::Cow;

/// Missing transition.
const DEAD: u32 = u32::MAX;
/// Cap on expanded positions per content model (counts inflate the
/// position set; bigger models use the greedy interpreter).
const MAX_POSITIONS: usize = 64;
/// Cap on per-particle count expansion (`minOccurs`, `maxOccurs − minOccurs`).
const MAX_COUNT_EXPANSION: u32 = 8;

/// Lossless `u32` index → `usize` (this file is on the audit cast-enforced
/// list; every supported host has `usize` ≥ 32 bits).
fn ix(v: u32) -> usize {
    usize::try_from(v).expect("u32 index fits usize")
}

/// Bounded `usize` count → `u32` symbol/position id (counts here are capped
/// by [`MAX_POSITIONS`] / the count-expansion limits, far below `u32::MAX`).
fn small_u32(v: usize) -> u32 {
    u32::try_from(v).expect("bounded automaton count fits u32")
}

/// A schema compiled for verdict-only validation over the event pass.
#[derive(Debug, Clone)]
pub struct SchemaAutomaton {
    schema: Schema,
    /// Content matcher per type definition (index-aligned with the
    /// schema's type table); `None` for simple/empty/text content.
    matchers: Vec<Option<ContentMatcher>>,
}

/// How one `Children` content model is matched.
#[derive(Debug, Clone)]
enum ContentMatcher {
    /// Deterministic position automaton: one transition per child.
    Dfa(Dfa),
    /// Greedy interpreter over the original particle (the traced
    /// validator's own algorithm, probe-free).
    Greedy,
}

impl SchemaAutomaton {
    /// Compile every content model of `schema`. Never fails: models the
    /// automaton construction cannot prove deterministic keep the greedy
    /// interpreter.
    pub fn compile(schema: &Schema) -> SchemaAutomaton {
        let matchers = schema
            .types
            .iter()
            .map(|t| match t {
                TypeDef::Complex(ct) => match &ct.content {
                    ContentModel::Children(p) => Some(match Dfa::try_build(p) {
                        Some(d) => ContentMatcher::Dfa(d),
                        None => ContentMatcher::Greedy,
                    }),
                    ContentModel::Empty | ContentModel::Text(_) => None,
                },
                TypeDef::Simple(_) => None,
            })
            .collect();
        SchemaAutomaton { schema: schema.clone(), matchers }
    }

    /// Number of content models compiled to DFAs (diagnostics/tests).
    pub fn dfa_count(&self) -> usize {
        self.matchers.iter().filter(|m| matches!(m, Some(ContentMatcher::Dfa(_)))).count()
    }

    /// Validate a whole document (root element against a global
    /// declaration). `Err` when `input` is not well-formed; otherwise
    /// verdict-equivalent to `Schema::validate(&eager_doc, p).is_valid()`
    /// on the same bytes.
    pub fn validate_document(&self, input: &[u8]) -> XmlResult<bool> {
        let mut run = Run::new(self, None);
        events::run(input, &mut run)?;
        Ok(run.verdict == Some(true))
    }

    /// Validate the payload of a SOAP envelope — the first element child
    /// of the first `Body` — against its global declaration. `Err` when
    /// `input` is not well-formed, `Ok(None)` when it is but holds no such
    /// payload ([`crate::soap::payload_root`] fails); otherwise the
    /// verdict of `Schema::validate_node` on that payload.
    pub fn validate_soap_payload(&self, input: &[u8]) -> XmlResult<Option<bool>> {
        let mut run = Run::new(self, Some(PayloadFinder::default()));
        events::run(input, &mut run)?;
        Ok(run.verdict)
    }
}

/// The content of one open element of the validated subtree.
enum Frame<'s, 'a> {
    /// Text-only content, checked against this type at the end tag.
    Simple(TypeRef),
    /// `Empty` content model: any child node is a violation.
    Empty,
    /// Element-only content, one transition per child.
    Dfa { dfa: &'s Dfa, state: u32 },
    /// Element-only content the DFA builder refused: the child names are
    /// kept for the greedy interpreter at the end tag.
    Greedy { particle: &'s Particle, names: Vec<&'a [u8]> },
}

/// [`SchemaAutomaton`] executing over one message.
struct Run<'s, 'a> {
    auto: &'s SchemaAutomaton,
    /// Locates the SOAP payload; `None` validates the document root.
    finder: Option<PayloadFinder>,
    /// `None` until the element to validate opens, then whether no
    /// violation has been seen. Once it is `Some(false)`, or `Some(true)`
    /// with no frame left (the element closed), the verdict is settled
    /// and the pass goes on for well-formedness only.
    verdict: Option<bool>,
    /// One frame per open element of the validated subtree.
    frames: Vec<Frame<'s, 'a>>,
    /// Direct text of the innermost element, when its content is
    /// [`Frame::Simple`] (such elements cannot nest: a child element under
    /// one is a violation).
    text: Cow<'a, [u8]>,
}

impl<'s, 'a> Run<'s, 'a> {
    fn new(auto: &'s SchemaAutomaton, finder: Option<PayloadFinder>) -> Self {
        Run { auto, finder, verdict: None, frames: Vec::with_capacity(8), text: Cow::Borrowed(b"") }
    }

    fn violation(&mut self) {
        self.verdict = Some(false);
    }

    /// Open an element of type `ty`: check its attributes, push its frame.
    fn open(&mut self, ty: TypeRef, attrs: &[Attr<'a>]) {
        let auto = self.auto;
        let (decls, frame): (&[AttrDecl], _) = match ty {
            TypeRef::Def(id) => match &auto.schema.types[ix(id.0)] {
                TypeDef::Complex(ct) => {
                    let frame = match &ct.content {
                        ContentModel::Empty => Frame::Empty,
                        ContentModel::Text(text_ty) => Frame::Simple(*text_ty),
                        ContentModel::Children(particle) => match &auto.matchers[ix(id.0)] {
                            Some(ContentMatcher::Dfa(dfa)) => Frame::Dfa { dfa, state: 0 },
                            _ => Frame::Greedy { particle, names: Vec::new() },
                        },
                    };
                    (&ct.attrs, frame)
                }
                TypeDef::Simple(_) => (&[], Frame::Simple(ty)),
            },
            TypeRef::Builtin(_) => (&[], Frame::Simple(ty)),
        };
        if !auto.attrs_ok(attrs, decls) {
            return self.violation();
        }
        if matches!(frame, Frame::Simple(_)) {
            self.text = Cow::Borrowed(b"");
        }
        self.frames.push(frame);
    }
}

impl<'a> Events<'a> for Run<'_, 'a> {
    fn start(&mut self, name: &'a [u8], attrs: &[Attr<'a>]) {
        let ty = match (self.verdict, self.frames.last_mut()) {
            (None, _) => {
                if !self.finder.as_mut().is_none_or(|f| f.start(name)) {
                    return;
                }
                self.verdict = Some(true);
                self.auto.schema.elements.iter().find(|d| d.name == name).map(|d| d.ty)
            }
            (Some(true), Some(Frame::Dfa { dfa, state })) => dfa.step(state, name),
            (Some(true), Some(Frame::Greedy { particle, names })) => {
                names.push(name);
                validate::find_child_decl(particle, name)
            }
            // A child element under text-only or empty content.
            (Some(true), Some(Frame::Simple(_) | Frame::Empty)) => None,
            _ => return,
        };
        // No declaration for the name: for a child that means the content
        // model cannot match (it accepts declared names only).
        match ty {
            Some(ty) => self.open(ty, attrs),
            None => self.violation(),
        }
    }

    fn text(&mut self, raw: &'a [u8], has_entities: bool) {
        match (self.verdict, self.frames.last()) {
            (Some(true), Some(Frame::Simple(_))) => {
                if self.text.is_empty() && !has_entities {
                    self.text = Cow::Borrowed(raw);
                } else {
                    // Rare: several text children (CDATA splits), or
                    // entity references to decode.
                    self.text.to_mut().extend_from_slice(&events::decoded(raw, has_entities));
                }
            }
            // Between child elements only whitespace may stand, and under
            // `Empty` content nothing.
            (Some(true), Some(Frame::Dfa { .. } | Frame::Greedy { .. }))
                if value::trim(&events::decoded(raw, has_entities)).is_empty() => {}
            (Some(true), Some(_)) => self.violation(),
            _ => {}
        }
    }

    fn pi(&mut self) {
        if self.verdict == Some(true) && matches!(self.frames.last(), Some(Frame::Empty)) {
            self.violation();
        }
    }

    fn end(&mut self) {
        match self.verdict {
            None => {
                if let Some(f) = &mut self.finder {
                    f.end();
                }
            }
            Some(true) => {
                let ok = match self.frames.pop() {
                    Some(Frame::Simple(ty)) => self.auto.value_ok(ty, &self.text, true),
                    Some(Frame::Dfa { dfa, state }) => dfa.accept[ix(state)],
                    Some(Frame::Greedy { particle, names }) => {
                        let mut cursor = 0;
                        validate::match_particle(particle, &names, 0, &mut NullProbe, &mut cursor)
                            == Some(names.len())
                    }
                    // `Empty` content, or the validated element has closed.
                    Some(Frame::Empty) | None => true,
                };
                if !ok {
                    self.violation();
                }
            }
            Some(false) => {}
        }
    }
}

impl SchemaAutomaton {
    /// Is `text` in the lexical space of simple type `ty`? `complex` is
    /// the answer for a complex type: false for an attribute's, true for
    /// `simpleContent` over one (the traced validator performs no check
    /// there; mirror it).
    fn value_ok(&self, ty: TypeRef, text: &[u8], complex: bool) -> bool {
        match ty {
            TypeRef::Builtin(bt) => value::check_builtin(bt, text, &mut NullProbe),
            TypeRef::Def(id) => match &self.schema.types[ix(id.0)] {
                TypeDef::Simple(st) => {
                    value::check_builtin(st.base, text, &mut NullProbe)
                        && value::check_facets(&st.facets, text, &mut NullProbe)
                }
                TypeDef::Complex(_) => complex,
            },
        }
    }

    fn attrs_ok(&self, attrs: &[Attr<'_>], decls: &[AttrDecl]) -> bool {
        // Present attributes must be declared and valid (namespace
        // declarations are not schema-validated); required ones present.
        attrs.iter().filter(|a| !a.name.starts_with(b"xmlns")).all(|a| {
            decls.iter().find(|d| d.name == a.name).is_some_and(|d| {
                self.value_ok(d.ty, &events::decoded(a.value, a.has_entities), false)
            })
        }) && decls.iter().filter(|d| d.required).all(|d| attrs.iter().any(|a| a.name == d.name))
    }
}

/// Deterministic Glushkov position automaton over an interned name
/// alphabet. State 0 is the start; state `p + 1` is position `p`.
#[derive(Debug, Clone)]
struct Dfa {
    /// Element names, sorted, each with its symbol id.
    lookup: Vec<(Vec<u8>, u32)>,
    /// Declared type of the element each symbol names (what
    /// [`validate::find_child_decl`] finds for it in the particle).
    child_ty: Vec<TypeRef>,
    nsyms: u32,
    /// `trans[state * nsyms + sym]`, [`DEAD`] where undefined.
    trans: Vec<u32>,
    accept: Vec<bool>,
}

impl Dfa {
    /// One transition on a child named `name`: the child's declared type,
    /// or `None` for a name outside the alphabet or a dead transition.
    fn step(&self, state: &mut u32, name: &[u8]) -> Option<TypeRef> {
        let at = self.lookup.binary_search_by(|(n, _)| n.as_slice().cmp(name)).ok()?;
        let sym = self.lookup[at].1;
        *state = self.trans[ix(*state * self.nsyms + sym)];
        (*state != DEAD).then(|| self.child_ty[ix(sym)])
    }

    /// Does the automaton accept this child-name sequence?
    #[cfg(test)]
    fn accepts<'n>(&self, names: impl Iterator<Item = &'n [u8]>) -> bool {
        let mut state = 0u32;
        for name in names {
            if self.step(&mut state, name).is_none() {
                return false;
            }
        }
        self.accept[ix(state)]
    }

    /// Build the automaton, or `None` when the model expands too far or is
    /// not deterministic (greedy interpretation could then disagree).
    fn try_build(particle: &Particle) -> Option<Dfa> {
        let mut alpha: Vec<Vec<u8>> = Vec::new();
        let rx = lower(particle, &mut alpha)?;
        let mut pos_sym: Vec<u32> = Vec::new();
        let mut follow: Vec<Vec<u32>> = Vec::new();
        let g = glushkov(&rx, &mut pos_sym, &mut follow);
        let npos = pos_sym.len();
        if npos > MAX_POSITIONS {
            return None;
        }
        let nsyms = alpha.len();
        let nstates = npos + 1;
        let mut trans = vec![DEAD; nstates * nsyms];
        let fill = |state: usize, set: &[u32], trans: &mut Vec<u32>| -> Option<()> {
            for &p in set {
                let sym = pos_sym[ix(p)];
                let slot = state * nsyms + ix(sym);
                let target = p + 1;
                if trans[slot] != DEAD && trans[slot] != target {
                    // Two distinct positions reachable on one symbol: the
                    // model is not 1-unambiguous.
                    return None;
                }
                trans[slot] = target;
            }
            Some(())
        };
        fill(0, &g.first, &mut trans)?;
        for (p, f) in follow.iter().enumerate() {
            fill(p + 1, f, &mut trans)?;
        }
        let mut accept = vec![false; nstates];
        accept[0] = g.nullable;
        for &p in &g.last {
            accept[ix(p) + 1] = true;
        }
        let child_ty = alpha
            .iter()
            .map(|name| validate::find_child_decl(particle, name))
            .collect::<Option<Vec<_>>>()?;
        let mut lookup: Vec<(Vec<u8>, u32)> =
            alpha.into_iter().enumerate().map(|(i, name)| (name, small_u32(i))).collect();
        lookup.sort();
        Some(Dfa { lookup, child_ty, nsyms: small_u32(nsyms), trans, accept })
    }
}

/// Count-expanded regular expression over symbol ids.
#[derive(Debug, Clone)]
enum Rx {
    Sym(u32),
    Seq(Vec<Rx>),
    Alt(Vec<Rx>),
    Opt(Box<Rx>),
    Star(Box<Rx>),
}

/// Lower a particle to a regex, expanding occurrence counts. `None` when
/// the expansion would be too large or the particle is `xs:all`
/// (order-free content is exponential as a regex).
fn lower(p: &Particle, alpha: &mut Vec<Vec<u8>>) -> Option<Rx> {
    match p {
        Particle::Element { name, min, max, .. } => {
            let sym = intern(alpha, name);
            repeat(Rx::Sym(sym), *min, *max)
        }
        Particle::Sequence { items, min, max } => {
            let body = Rx::Seq(items.iter().map(|i| lower(i, alpha)).collect::<Option<Vec<_>>>()?);
            repeat(body, *min, *max)
        }
        Particle::Choice { items, min, max } => {
            let bodies = items.iter().map(|i| lower(i, alpha)).collect::<Option<Vec<_>>>()?;
            // The greedy interpreter tries alternatives in order and a
            // nullable one always matches (zero-width), so alternatives
            // after it are unreachable — regex alternation would disagree.
            if bodies.len() > 1 && bodies[..bodies.len() - 1].iter().any(rx_nullable) {
                return None;
            }
            repeat(Rx::Alt(bodies), *min, *max)
        }
        Particle::All { .. } => None,
    }
}

fn intern(alpha: &mut Vec<Vec<u8>>, name: &[u8]) -> u32 {
    match alpha.iter().position(|n| n == name) {
        Some(i) => small_u32(i),
        None => {
            alpha.push(name.to_vec());
            small_u32(alpha.len() - 1)
        }
    }
}

/// `r{min,max}` as copies: `min` mandatory, then optionals (or a star for
/// `unbounded`).
fn repeat(r: Rx, min: u32, max: u32) -> Option<Rx> {
    if min == 1 && max == 1 {
        return Some(r);
    }
    if max == MAX_UNBOUNDED {
        if min > MAX_COUNT_EXPANSION {
            return None;
        }
        // The greedy interpreter's zero-width repetition guard stops an
        // unbounded group after one empty body match, so with `min > 0` it
        // rejects words the regex accepts (e.g. `(a?){2,}` on "").
        if min > 0 && rx_nullable(&r) {
            return None;
        }
        let mut items: Vec<Rx> = (0..min).map(|_| r.clone()).collect();
        items.push(Rx::Star(Box::new(r)));
        return Some(Rx::Seq(items));
    }
    if max < min || min > MAX_COUNT_EXPANSION || max - min > MAX_COUNT_EXPANSION {
        return None;
    }
    let mut items: Vec<Rx> = (0..min).map(|_| r.clone()).collect();
    for _ in min..max {
        items.push(Rx::Opt(Box::new(r.clone())));
    }
    Some(Rx::Seq(items))
}

/// Can the expression match the empty word?
fn rx_nullable(rx: &Rx) -> bool {
    match rx {
        Rx::Sym(_) => false,
        Rx::Seq(items) => items.iter().all(rx_nullable),
        Rx::Alt(items) => items.iter().any(rx_nullable),
        Rx::Opt(_) | Rx::Star(_) => true,
    }
}

/// Nullability plus first/last position sets of a subexpression.
struct G {
    nullable: bool,
    first: Vec<u32>,
    last: Vec<u32>,
}

/// Classic Glushkov construction: assign positions to symbol leaves in
/// reading order, accumulate follow sets.
fn glushkov(rx: &Rx, pos_sym: &mut Vec<u32>, follow: &mut Vec<Vec<u32>>) -> G {
    match rx {
        Rx::Sym(s) => {
            let p = small_u32(pos_sym.len());
            pos_sym.push(*s);
            follow.push(Vec::new());
            G { nullable: false, first: vec![p], last: vec![p] }
        }
        Rx::Seq(items) => {
            let mut nullable = true;
            let mut first: Vec<u32> = Vec::new();
            let mut lasts: Vec<u32> = Vec::new();
            for it in items {
                let g = glushkov(it, pos_sym, follow);
                for &l in &lasts {
                    follow[ix(l)].extend_from_slice(&g.first);
                }
                if nullable {
                    first.extend_from_slice(&g.first);
                }
                if g.nullable {
                    lasts.extend_from_slice(&g.last);
                } else {
                    lasts = g.last;
                }
                nullable &= g.nullable;
            }
            G { nullable, first, last: lasts }
        }
        Rx::Alt(items) => {
            let mut nullable = false;
            let mut first: Vec<u32> = Vec::new();
            let mut last: Vec<u32> = Vec::new();
            for it in items {
                let g = glushkov(it, pos_sym, follow);
                nullable |= g.nullable;
                first.extend_from_slice(&g.first);
                last.extend_from_slice(&g.last);
            }
            G { nullable, first, last }
        }
        Rx::Opt(r) => {
            let g = glushkov(r, pos_sym, follow);
            G { nullable: true, ..g }
        }
        Rx::Star(r) => {
            let g = glushkov(r, pos_sym, follow);
            for &l in &g.last {
                let firsts = g.first.clone();
                follow[ix(l)].extend_from_slice(&firsts);
            }
            G { nullable: true, first: g.first, last: g.last }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::TBuf;
    use crate::parser::parse_document;
    use crate::samples;
    use crate::schema::types::BuiltinType;

    /// Both validators must agree on the whole-document verdict.
    fn assert_verdicts(schema: &Schema, inputs: &[&[u8]]) {
        let auto = SchemaAutomaton::compile(schema);
        for input in inputs {
            let eager = parse_document(TBuf::msg(input), &mut NullProbe).unwrap();
            let want = schema.validate(&eager, &mut NullProbe).unwrap().is_valid();
            let got = auto.validate_document(input).unwrap();
            assert_eq!(got, want, "verdicts differ on {:?}", String::from_utf8_lossy(input));
        }
    }

    #[test]
    fn corpus_schema_agrees() {
        let s = Schema::compile(samples::PURCHASE_ORDER_XSD).unwrap();
        let auto = SchemaAutomaton::compile(&s);
        assert!(auto.dfa_count() > 0, "corpus content models should compile to DFAs");
        assert_verdicts(
            &s,
            &[samples::PURCHASE_ORDER_OK, samples::PURCHASE_ORDER_BAD, b"<mystery/>", b"<order/>"],
        );
    }

    #[test]
    fn structure_and_value_violations_agree() {
        let s = Schema::compile(
            br#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
              <xs:element name="r">
                <xs:complexType>
                  <xs:sequence>
                    <xs:element name="a" type="xs:string"/>
                    <xs:element name="opt" type="xs:integer" minOccurs="0"/>
                    <xs:element name="b" type="xs:string" maxOccurs="3"/>
                  </xs:sequence>
                  <xs:attribute name="id" type="xs:integer" use="required"/>
                </xs:complexType>
              </xs:element>
            </xs:schema>"#,
        )
        .unwrap();
        assert_verdicts(
            &s,
            &[
                br#"<r id="1"><a>x</a><b>y</b></r>"#,
                br#"<r id="1"><a>x</a><opt>5</opt><b>y</b></r>"#,
                br#"<r id="1"><a>x</a><opt>no</opt><b>y</b></r>"#, // bad value
                br#"<r id="1"><b>y</b><a>x</a></r>"#,              // order
                br#"<r id="1"><a>x</a><b>y</b><b>y</b><b>y</b><b>y</b></r>"#, // too many
                br#"<r><a>x</a><b>y</b></r>"#,                     // missing attr
                br#"<r id="x"><a>x</a><b>y</b></r>"#,              // bad attr value
                br#"<r id="1" zz="1"><a>x</a><b>y</b></r>"#,       // unknown attr
                br#"<r id="1"><a>x</a>loose<b>y</b></r>"#,         // stray text
                br#"<r id="1"><a>x</a><zz/><b>y</b></r>"#,         // unknown child
            ],
        );
    }

    #[test]
    fn all_group_uses_greedy_fallback_and_agrees() {
        let s = Schema::compile(
            br#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
              <xs:element name="r">
                <xs:complexType><xs:all>
                  <xs:element name="a" type="xs:string"/>
                  <xs:element name="b" type="xs:string"/>
                </xs:all></xs:complexType>
              </xs:element>
            </xs:schema>"#,
        )
        .unwrap();
        let auto = SchemaAutomaton::compile(&s);
        assert_eq!(auto.dfa_count(), 0, "xs:all must use the greedy interpreter");
        assert_verdicts(
            &s,
            &[
                b"<r><a>1</a><b>2</b></r>",
                b"<r><b>2</b><a>1</a></r>",
                b"<r><a>1</a></r>",
                b"<r><a>1</a><a>2</a><b>3</b></r>",
            ],
        );
    }

    #[test]
    fn ambiguous_model_falls_back_to_greedy() {
        // seq[a?, a]: not 1-unambiguous — a DFA would accept "a" but the
        // greedy interpreter rejects it. The builder must refuse the DFA.
        let p = Particle::Sequence {
            items: vec![
                Particle::Element {
                    name: b"a".to_vec(),
                    ty: TypeRef::Builtin(BuiltinType::String),
                    min: 0,
                    max: 1,
                },
                Particle::Element {
                    name: b"a".to_vec(),
                    ty: TypeRef::Builtin(BuiltinType::String),
                    min: 1,
                    max: 1,
                },
            ],
            min: 1,
            max: 1,
        };
        assert!(Dfa::try_build(&p).is_none());
    }

    #[test]
    fn huge_counts_fall_back() {
        let p = Particle::Element {
            name: b"a".to_vec(),
            ty: TypeRef::Builtin(BuiltinType::String),
            min: 0,
            max: 100,
        };
        assert!(Dfa::try_build(&p).is_none());
        let p = Particle::Element {
            name: b"a".to_vec(),
            ty: TypeRef::Builtin(BuiltinType::String),
            min: 2,
            max: MAX_UNBOUNDED,
        };
        assert!(Dfa::try_build(&p).is_some(), "bounded min with unbounded max expands fine");
    }

    /// Property pin: wherever a DFA builds, it must agree with the greedy
    /// interpreter on full-match verdicts — over randomized particles and
    /// child sequences.
    #[test]
    fn dfa_agrees_with_greedy_interpreter() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        const NAMES: [&[u8]; 4] = [b"a", b"b", b"c", b"d"];
        fn gen_particle(next: &mut impl FnMut() -> u32, depth: u32) -> Particle {
            let (min, max) = match next() % 5 {
                0 => (0, 1),
                1 => (1, 1),
                2 => (1, 2),
                3 => (0, MAX_UNBOUNDED),
                _ => (1, MAX_UNBOUNDED),
            };
            let kind = if depth == 0 { 0 } else { next() % 3 };
            match kind {
                0 => Particle::Element {
                    name: NAMES[(next() % 4) as usize].to_vec(),
                    ty: TypeRef::Builtin(BuiltinType::String),
                    min,
                    max,
                },
                k => {
                    let n = 1 + next() % 3;
                    let items = (0..n).map(|_| gen_particle(next, depth - 1)).collect::<Vec<_>>();
                    if k == 1 {
                        Particle::Sequence { items, min, max }
                    } else {
                        Particle::Choice { items, min, max }
                    }
                }
            }
        }
        let mut dfas = 0;
        for _ in 0..400 {
            let p = gen_particle(&mut next, 2);
            let Some(dfa) = Dfa::try_build(&p) else {
                continue;
            };
            dfas += 1;
            for _ in 0..40 {
                let len = (next() % 7) as usize;
                let seq: Vec<&[u8]> = (0..len).map(|_| NAMES[(next() % 4) as usize]).collect();
                let mut cursor = 0;
                let greedy = validate::match_particle(&p, &seq, 0, &mut NullProbe, &mut cursor)
                    == Some(seq.len());
                let fast = dfa.accepts(seq.iter().copied());
                assert_eq!(fast, greedy, "disagree on {seq:?} for {p:?}");
            }
        }
        assert!(dfas > 50, "expected a healthy share of DFA-compilable models, got {dfas}");
    }

    #[test]
    fn validates_subtree_inside_envelope() {
        let s = Schema::compile(samples::PURCHASE_ORDER_XSD).unwrap();
        let auto = SchemaAutomaton::compile(&s);
        let payload = br#"<order id="7" currency="USD"><customer>A</customer>
            <date>2007-03-14</date>
            <item line="1"><sku>AB1234</sku><name>x</name><quantity>1</quantity>
            <price>1.00</price></item></order>"#;
        let env = crate::soap::wrap_envelope(payload);
        assert_eq!(auto.validate_soap_payload(&env), Ok(Some(true)));
        assert_eq!(auto.validate_soap_payload(payload), Ok(None), "a bare payload is not SOAP");
    }
}
