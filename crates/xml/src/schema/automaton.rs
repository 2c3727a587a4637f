//! The schema compiled for the fast (untraced) serving path.
//!
//! [`super::validate`] interprets the schema per message: every child-list
//! match re-walks `Sequence`/`Choice` nodes, every value chases
//! `TypeRef → types[] → base → facets`, every pattern simulates an NFA.
//! [`SchemaAutomaton::compile`] resolves all of that once — at rule-table
//! construction — so the per-message work is table steps and byte compares:
//!
//! * each `Children` content model becomes a Glushkov position automaton
//!   whose states are rows of `(child name, next state, child type)`, so a
//!   child element is one short compare and one index;
//! * each type becomes a flat [`Compiled`] record: its attribute checker
//!   (names, value checks, which are required), its content kind, and the
//!   [`Check`]s a value of it must pass — integer bounds folded into one
//!   parse, length bounds into one compare, `xs:pattern` facets
//!   determinised ([`PatternDfa`]).
//!
//! The automaton runs as a handler of the one event pass
//! ([`crate::events`]): a pushdown of per-element frames, one per open
//! element of the validated subtree. A frame is the element's content in
//! progress — a DFA state, or a marker that the child names seen so far
//! are kept for a model the greedy interpreter must judge. Attributes are checked at
//! the start tag, a simple-typed element's text at its end tag. No tree
//! exists at any point. A violation settles the verdict, but never ends
//! the pass: a body that is malformed further on is still an error.
//!
//! Soundness over speed: the interpreted matcher is *greedy* (no
//! backtracking across repetition counts), which coincides with the
//! automaton's language exactly when the content model is deterministic —
//! XSD's Unique Particle Attribution rule, which real schemas satisfy. The
//! builder therefore checks determinism of the position automaton
//! (duplicate symbols in a first/follow set) and falls back to the *same
//! greedy interpreter* ([`validate::match_particle`] under `NullProbe`)
//! whenever the check fails, counts expand too far (`max − min > 8`), or
//! the model uses `xs:all`; a pattern whose subset construction passes its
//! state cap keeps the NFA ([`Pattern::matches`] under `NullProbe`).
//! Fallback changes cost, never verdicts; the differential suite pins
//! [`SchemaAutomaton`] against [`Schema::validate_node`] over the same
//! bytes.
//!
//! Lexical spaces reuse [`super::value`] with `NullProbe` — the exact code
//! the traced validator runs, minus the probes.

#![deny(clippy::as_conversions)]

use super::pattern::{Pattern, PatternDfa};
use super::types::{
    AttrDecl, BuiltinType, ContentModel, Facets, Particle, TypeDef, TypeRef, MAX_UNBOUNDED,
};
use super::{validate, value, Schema};
use crate::error::XmlResult;
use crate::events::{self, Attr, Events};
use crate::soap::PayloadFinder;
use aon_trace::NullProbe;
use std::borrow::Cow;

/// Cap on expanded positions per content model (counts inflate the
/// position set; bigger models use the greedy interpreter).
const MAX_POSITIONS: usize = 64;
/// Cap on per-particle count expansion (`minOccurs`, `maxOccurs − minOccurs`).
const MAX_COUNT_EXPANSION: u32 = 8;
/// The state whose row is the global element declarations: what the
/// document (or the SOAP `Body`) may hold.
const ROOT: u32 = 0;

/// Lossless `u32` index → `usize` (this file is on the audit cast-enforced
/// list; every supported host has `usize` ≥ 32 bits).
fn ix(v: u32) -> usize {
    usize::try_from(v).expect("u32 index fits usize")
}

/// Table size → `u32` id (a schema is configuration a few KiB long; its
/// tables are nowhere near `u32::MAX` entries).
fn small_u32(v: usize) -> u32 {
    u32::try_from(v).expect("schema table size fits u32")
}

/// A schema compiled for verdict-only validation over the event pass.
#[derive(Debug, Clone)]
pub struct SchemaAutomaton {
    /// One record per type an element or attribute can have: the schema's
    /// type definitions in order (index = `TypeId`), then each built-in
    /// the schema names directly.
    types: Vec<Compiled>,
    rows: Rows,
}

/// Everything opening an element of one type, or checking a value of it,
/// consults.
#[derive(Debug, Clone)]
struct Compiled {
    /// Declared attributes, one per name.
    attrs: Box<[AttrCheck]>,
    /// Some attribute must be present: an element with none is checked.
    any_required: bool,
    content: Content,
    /// What a value of this type must pass, as an attribute's value or a
    /// simple-typed element's text.
    value: Box<[Check]>,
}

#[derive(Debug, Clone)]
struct AttrCheck {
    name: Box<[u8]>,
    /// The type (index into `types`) whose `value` checks apply.
    ty: u32,
    required: bool,
}

/// The content of an element, by its type.
#[derive(Debug, Clone)]
enum Content {
    /// Text only, checked at the end tag against the `value` checks of
    /// this type (itself, or the base of a `simpleContent`).
    Simple(u32),
    /// `Empty` content model: any child node is a violation.
    Empty,
    /// Element-only content, one transition per child from this state.
    Dfa(u32),
    /// Element-only content the DFA builder refused, judged at the end tag
    /// by the greedy interpreter over the original particle (the traced
    /// validator's own algorithm, probe-free); the row of state `children`
    /// maps its child names to their types.
    Greedy { particle: Particle, children: u32 },
}

/// One precompiled test of a (not yet trimmed) value.
#[derive(Debug, Clone)]
enum Check {
    /// The lexical space of a built-in that is not an integer type.
    Builtin(BuiltinType),
    /// An integer within bounds: an integer base type and the
    /// `minInclusive`/`maxInclusive` facets, in one parse.
    Int { min: i64, max: i64 },
    /// `length`/`minLength`/`maxLength` of the trimmed value, folded.
    Len { min: usize, max: usize },
    /// `enumeration`: the trimmed value is one of these.
    Enum(Box<[Vec<u8>]>),
    /// `pattern` on the trimmed value, determinised.
    PatternDfa(Box<PatternDfa>),
    /// `pattern` the DFA builder refused, on the NFA.
    PatternNfa(Pattern),
    /// A complex type used where a value is wanted (an attribute's type):
    /// the traced validator rejects every value.
    Never,
}

impl Check {
    fn ok(&self, text: &[u8]) -> bool {
        match self {
            Check::Builtin(bt) => value::check_builtin(*bt, text, &mut NullProbe),
            Check::Int { min, max } => {
                value::parse_int(text, &mut NullProbe).is_some_and(|n| *min <= n && n <= *max)
            }
            Check::Len { min, max } => {
                let n = value::trim(text).len();
                *min <= n && n <= *max
            }
            Check::Enum(literals) => literals.iter().any(|l| l.as_slice() == value::trim(text)),
            Check::PatternDfa(dfa) => dfa.matches(value::trim(text)),
            Check::PatternNfa(nfa) => nfa.matches(value::trim(text), &mut NullProbe),
            Check::Never => false,
        }
    }
}

/// The checks for base type `base` restricted by `facets`:
/// `value::check_builtin(base, v) && value::check_facets(facets, v)`,
/// resolved. (The facets compare lengths as `u32`; no message is 4 GiB.)
fn checks(base: BuiltinType, facets: &Facets) -> Box<[Check]> {
    let mut out = Vec::new();
    let range = (facets.min_inclusive.is_some() || facets.max_inclusive.is_some()).then_some((
        facets.min_inclusive.unwrap_or(i64::MIN),
        facets.max_inclusive.unwrap_or(i64::MAX),
    ));
    // The least value of an integer base type.
    let floor = match base {
        BuiltinType::Integer => Some(i64::MIN),
        BuiltinType::NonNegativeInteger => Some(0),
        BuiltinType::PositiveInteger => Some(1),
        // Any byte sequence.
        BuiltinType::String | BuiltinType::Token => None,
        BuiltinType::Decimal | BuiltinType::Boolean | BuiltinType::Date | BuiltinType::AnyUri => {
            out.push(Check::Builtin(base));
            None
        }
    };
    if floor.is_some() || range.is_some() {
        let (min, max) = range.unwrap_or((i64::MIN, i64::MAX));
        out.push(Check::Int { min: min.max(floor.unwrap_or(i64::MIN)), max });
    }
    let min_len = facets.length.max(facets.min_length);
    let max_len = [facets.length, facets.max_length].into_iter().flatten().min();
    if min_len.is_some() || max_len.is_some() {
        out.push(Check::Len { min: min_len.map_or(0, ix), max: max_len.map_or(usize::MAX, ix) });
    }
    if !facets.enumeration.is_empty() {
        out.push(Check::Enum(facets.enumeration.clone().into()));
    }
    if let Some(pattern) = &facets.pattern {
        out.push(match pattern.to_dfa() {
            Some(dfa) => Check::PatternDfa(Box::new(dfa)),
            None => Check::PatternNfa(pattern.clone()),
        });
    }
    out.into()
}

impl SchemaAutomaton {
    /// Compile every type of `schema`. Never fails: content models the
    /// automaton construction cannot prove deterministic keep the greedy
    /// interpreter, patterns too large to determinise keep the NFA.
    pub fn compile(schema: &Schema) -> SchemaAutomaton {
        let defs = schema.types.len();
        // Built-ins named by a declaration get records after the
        // definitions', in order of first use.
        let mut builtins: Vec<BuiltinType> = Vec::new();
        let mut index = |ty: TypeRef| match ty {
            TypeRef::Def(id) => id.0,
            TypeRef::Builtin(bt) => {
                let at = builtins.iter().position(|b| *b == bt).unwrap_or_else(|| {
                    builtins.push(bt);
                    builtins.len() - 1
                });
                small_u32(defs + at)
            }
        };
        let mut rows = Rows::default();
        let globals = schema.elements.iter().map(|d| (d.name.as_slice(), d.ty)).collect();
        rows.push_names(&first_of_each_name(globals), &mut index);
        let mut types: Vec<Compiled> = Vec::with_capacity(defs);
        for (id, def) in schema.types.iter().enumerate() {
            types.push(match def {
                TypeDef::Simple(st) => Compiled::simple(small_u32(id), checks(st.base, &st.facets)),
                TypeDef::Complex(ct) => {
                    let attrs = attr_checks(&ct.attrs, &mut index);
                    let any_required = attrs.iter().any(|a| a.required);
                    let content = match &ct.content {
                        ContentModel::Empty => Content::Empty,
                        // `simpleContent` over a complex type: the traced
                        // validator checks nothing there, as for a string.
                        ContentModel::Text(TypeRef::Def(base))
                            if matches!(schema.types[ix(base.0)], TypeDef::Complex(_)) =>
                        {
                            Content::Simple(index(TypeRef::Builtin(BuiltinType::String)))
                        }
                        ContentModel::Text(ty) => Content::Simple(index(*ty)),
                        ContentModel::Children(particle) => rows.content(particle, &mut index),
                    };
                    Compiled { attrs, any_required, content, value: [Check::Never].into() }
                }
            });
        }
        for (at, bt) in builtins.iter().enumerate() {
            types.push(Compiled::simple(small_u32(defs + at), checks(*bt, &Facets::default())));
        }
        SchemaAutomaton { types, rows }
    }

    /// Number of content models compiled to DFAs (diagnostics/tests).
    pub fn dfa_count(&self) -> usize {
        self.types.iter().filter(|t| matches!(t.content, Content::Dfa(_))).count()
    }

    /// One entry per `xs:pattern` facet in use: `Some((byte classes,
    /// states))` of the DFA built for it, `None` where the builder fell
    /// back to the NFA (diagnostics/tests; table sizes are what schema
    /// compilation time follows).
    pub fn pattern_dfas(&self) -> Vec<Option<(usize, usize)>> {
        (self.types.iter().flat_map(|t| t.value.iter()))
            .filter_map(|check| match check {
                Check::PatternDfa(dfa) => Some(Some((dfa.class_count(), dfa.state_count()))),
                Check::PatternNfa(_) => Some(None),
                _ => None,
            })
            .collect()
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

    /// Is `text` a valid value of type `ty`?
    #[inline]
    fn value_ok(&self, ty: u32, text: &[u8]) -> bool {
        self.types[ix(ty)].value.iter().all(|check| check.ok(text))
    }

    /// Present attributes must be declared and valid (namespace
    /// declarations are not schema-validated); required ones present.
    #[inline(never)]
    fn attrs_ok(&self, ty: &Compiled, attrs: &[Attr<'_>]) -> bool {
        for a in attrs.iter().filter(|a| !validate::is_namespace_decl(a.name)) {
            let Some(decl) = ty.attrs.iter().find(|d| *d.name == *a.name) else {
                return false;
            };
            if !self.value_ok(decl.ty, &events::decoded(a.value, a.has_entities)) {
                return false;
            }
        }
        ty.attrs.iter().all(|d| !d.required || attrs.iter().any(|a| *a.name == *d.name))
    }
}

/// The attribute checker of a complex type: one entry per declared name.
fn attr_checks(decls: &[AttrDecl], index: &mut impl FnMut(TypeRef) -> u32) -> Box<[AttrCheck]> {
    let named = decls.iter().map(|d| (d.name.as_slice(), d.ty)).collect();
    first_of_each_name(named)
        .into_iter()
        .map(|(name, ty)| AttrCheck {
            name: name.into(),
            ty: index(ty),
            // Any declaration of the name can demand it.
            required: decls.iter().any(|d| d.name == name && d.required),
        })
        .collect()
}

impl Compiled {
    /// A simple type (record `id`): no attributes, text checked by `value`.
    fn simple(id: u32, value: Box<[Check]>) -> Compiled {
        Compiled { attrs: [].into(), any_required: false, content: Content::Simple(id), value }
    }
}

/// `decls` without the later declarations of a name already seen: a lookup
/// by name finds the first.
fn first_of_each_name<T>(mut decls: Vec<(&[u8], T)>) -> Vec<(&[u8], T)> {
    let mut seen: Vec<&[u8]> = Vec::new();
    decls.retain(|(name, _)| {
        let first = !seen.contains(name);
        seen.push(name);
        first
    });
    decls
}

/// The alphabet of a content model: each child name once, in document
/// order, with the type of its first declaration — what
/// [`validate::find_child_decl`] finds for the name.
fn alphabet(particle: &Particle) -> Vec<(&[u8], TypeRef)> {
    fn collect<'p>(particle: &'p Particle, out: &mut Vec<(&'p [u8], TypeRef)>) {
        match particle {
            Particle::Element { name, ty, .. } => out.push((name, *ty)),
            Particle::Sequence { items, .. }
            | Particle::Choice { items, .. }
            | Particle::All { items } => items.iter().for_each(|item| collect(item, out)),
        }
    }
    let mut decls = Vec::new();
    collect(particle, &mut decls);
    first_of_each_name(decls)
}

/// Where the run stands: what the innermost open element may hold, or
/// that nothing is being validated.
#[derive(Clone, Copy)]
enum Frame {
    /// The element to validate has not opened yet.
    Seeking,
    /// The verdict is final — a violation was seen, or the validated
    /// element has closed — and the pass goes on for well-formedness only.
    Settled,
    /// Text-only content, checked against this type at the end tag.
    Simple(u32),
    /// `Empty` content model: any child node is a violation.
    Empty,
    /// Element-only content: the state its children so far have led to.
    Dfa(u32),
    /// Element-only content the DFA builder refused: the innermost
    /// [`Greedy`] of the run is this element's.
    Greedy,
}

/// An open element whose content model the greedy interpreter judges at
/// the end tag, from the child names kept here.
struct Greedy<'s, 'a> {
    particle: &'s Particle,
    /// The state whose row maps the child names to their types.
    children: u32,
    names: Vec<&'a [u8]>,
}

/// [`SchemaAutomaton`] executing over one message.
struct Run<'s, 'a> {
    auto: &'s SchemaAutomaton,
    /// Locates the SOAP payload; `None` validates the document root.
    finder: Option<PayloadFinder>,
    /// `None` until the element to validate opens, then whether no
    /// violation has been seen.
    verdict: Option<bool>,
    /// The innermost open element of the validated subtree.
    top: Frame,
    /// Its ancestors in the subtree, under [`Frame::Settled`]: what the
    /// run returns to when the validated element closes.
    below: Vec<Frame>,
    /// Direct text of the innermost element, when its content is
    /// [`Frame::Simple`] (such elements cannot nest: a child element under
    /// one is a violation).
    text: Cow<'a, [u8]>,
    /// One per open [`Frame::Greedy`], innermost last.
    greedy: Vec<Greedy<'s, 'a>>,
}

impl<'s, 'a> Run<'s, 'a> {
    fn new(auto: &'s SchemaAutomaton, finder: Option<PayloadFinder>) -> Self {
        Run {
            auto,
            finder,
            verdict: None,
            top: Frame::Seeking,
            below: Vec::with_capacity(8),
            text: Cow::Borrowed(b""),
            greedy: Vec::new(),
        }
    }

    fn violation(&mut self) {
        self.verdict = Some(false);
        self.top = Frame::Settled;
    }

    /// Open an element of type `ty`: check its attributes, make its frame
    /// the innermost.
    #[inline]
    fn open(&mut self, ty: u32, attrs: &[Attr<'a>]) {
        let auto = self.auto;
        let ty = &auto.types[ix(ty)];
        let attrs_ok = if attrs.is_empty() { !ty.any_required } else { auto.attrs_ok(ty, attrs) };
        if !attrs_ok {
            return self.violation();
        }
        self.below.push(self.top);
        self.top = match &ty.content {
            Content::Simple(value) => {
                self.text = Cow::Borrowed(b"");
                Frame::Simple(*value)
            }
            Content::Empty => Frame::Empty,
            Content::Dfa(start) => Frame::Dfa(*start),
            Content::Greedy { particle, children } => {
                self.greedy.push(Greedy { particle, children: *children, names: Vec::new() });
                Frame::Greedy
            }
        };
    }

    /// A start tag while the run is neither settled nor in a DFA state —
    /// the rare places.
    #[cold]
    fn start_elsewhere(&mut self, name: &'a [u8], attrs: &[Attr<'a>]) {
        let rows = &self.auto.rows;
        let ty = match self.top {
            Frame::Seeking => {
                if !self.finder.as_mut().is_none_or(|f| f.start(name)) {
                    return;
                }
                // This is the element to validate; when it closes, or
                // cannot open, the verdict is settled.
                self.verdict = Some(true);
                self.top = Frame::Settled;
                rows.step(ROOT, name)
            }
            Frame::Greedy => {
                let greedy = self.greedy.last_mut().expect("one per Greedy frame");
                greedy.names.push(name);
                rows.step(greedy.children, name)
            }
            // A child element under text-only or empty content.
            _ => None,
        };
        self.open_or_violate(ty, attrs);
    }

    /// Open the child an edge leads to. No edge — no declaration for the
    /// name, or none reachable here — means the content model cannot
    /// match (it accepts declared names only).
    #[inline]
    fn open_or_violate(&mut self, edge: Option<&Edge>, attrs: &[Attr<'a>]) {
        match edge {
            Some(edge) => self.open(edge.child, attrs),
            None => self.violation(),
        }
    }

    /// Text that is not the only, entity-free piece of a simple-typed
    /// element's content.
    #[cold]
    fn text_elsewhere(&mut self, raw: &'a [u8], has_entities: bool) {
        match self.top {
            // Several text children (CDATA splits), or entity references
            // to decode.
            Frame::Simple(_) => {
                self.text.to_mut().extend_from_slice(&events::decoded(raw, has_entities));
            }
            // Between child elements only whitespace may stand, and under
            // `Empty` content nothing.
            Frame::Dfa(_) | Frame::Greedy
                if value::trim(&events::decoded(raw, has_entities)).is_empty() => {}
            Frame::Dfa(_) | Frame::Greedy | Frame::Empty => self.violation(),
            Frame::Seeking | Frame::Settled => {}
        }
    }

    /// The end tag of an element in a greedy model: the interpreter's
    /// verdict on its child names.
    #[cold]
    fn greedy_end(&mut self) -> bool {
        let Greedy { particle, names, .. } = self.greedy.pop().expect("one per Greedy frame");
        let mut cursor = 0;
        validate::match_particle(particle, &names, 0, &mut NullProbe, &mut cursor)
            == Some(names.len())
    }
}

/// The handlers decide the common events — anything once the verdict is
/// settled, a child in a DFA state, the one text of a simple-typed
/// element, its end tag — in a few instructions that inline into the pass;
/// the rest is out of line.
impl<'a> Events<'a> for Run<'_, 'a> {
    #[inline]
    fn start(&mut self, name: &'a [u8], attrs: &[Attr<'a>]) {
        match &mut self.top {
            Frame::Settled => {}
            Frame::Dfa(state) => {
                let edge = self.auto.rows.step(*state, name);
                if let Some(edge) = edge {
                    *state = edge.target;
                }
                self.open_or_violate(edge, attrs);
            }
            _ => self.start_elsewhere(name, attrs),
        }
    }

    #[inline]
    fn text(&mut self, raw: &'a [u8], has_entities: bool) {
        match self.top {
            Frame::Settled => {}
            Frame::Simple(_) if self.text.is_empty() && !has_entities => {
                self.text = Cow::Borrowed(raw);
            }
            _ => self.text_elsewhere(raw, has_entities),
        }
    }

    fn pi(&mut self) {
        if matches!(self.top, Frame::Empty) {
            self.violation();
        }
    }

    #[inline]
    fn end(&mut self) {
        let ok = match self.top {
            Frame::Settled => return,
            Frame::Seeking => {
                if let Some(f) = &mut self.finder {
                    f.end();
                }
                return;
            }
            Frame::Simple(ty) => self.auto.value_ok(ty, &self.text),
            Frame::Dfa(state) => self.auto.rows.states[ix(state)].accept,
            Frame::Greedy => self.greedy_end(),
            Frame::Empty => true,
        };
        if ok {
            self.top = self.below.pop().expect("Settled lies under the validated element");
        } else {
            self.violation();
        }
    }
}

/// Name-dispatch rows: the states of every content-model DFA of a schema
/// in one table (state `p + 1` of a model is its Glushkov position `p`),
/// plus rows that only map names to types — the global declarations
/// ([`ROOT`]) and the children of each greedy model.
#[derive(Debug, Clone, Default)]
struct Rows {
    states: Vec<State>,
    edges: Vec<Edge>,
    /// The edges' names, back to back.
    names: Vec<u8>,
}

#[derive(Debug, Clone)]
struct State {
    accept: bool,
    /// `edges[first..first + len]` leave this state, the likeliest first.
    first: u32,
    len: u32,
}

/// One `(child name, next state, child type)` of a row.
#[derive(Debug, Clone, Copy)]
struct Edge {
    /// `names[name..name + name_len]`.
    name: u32,
    name_len: u32,
    target: u32,
    /// Index of the child's type in [`SchemaAutomaton::types`].
    child: u32,
}

/// `a == b` for element names of one length: a few bytes, which this loop
/// has compared before a `bcmp` call would have started.
#[inline]
fn name_eq(a: &[u8], b: &[u8]) -> bool {
    a.iter().zip(b).all(|(x, y)| x == y)
}

impl Rows {
    /// The edge leaving `state` on a child named `name`; `None` for a name
    /// the row does not hold (outside the alphabet, or a dead transition).
    #[inline]
    fn step(&self, state: u32, name: &[u8]) -> Option<&Edge> {
        let state = &self.states[ix(state)];
        self.edges[ix(state.first)..ix(state.first + state.len)].iter().find(|e| {
            ix(e.name_len) == name.len()
                && name_eq(&self.names[ix(e.name)..ix(e.name + e.name_len)], name)
        })
    }

    /// Append a state with the given edges.
    fn push_state(&mut self, accept: bool, edges: impl IntoIterator<Item = Edge>) {
        let first = small_u32(self.edges.len());
        self.edges.extend(edges);
        self.states.push(State { accept, first, len: small_u32(self.edges.len()) - first });
    }

    /// Add `name` to the pool; returns where it starts.
    fn push_name(&mut self, name: &[u8]) -> u32 {
        let at = small_u32(self.names.len());
        self.names.extend_from_slice(name);
        at
    }

    /// Append a state that only maps each name to its type (its edges lead
    /// back to it); returns it.
    fn push_names(
        &mut self,
        decls: &[(&[u8], TypeRef)],
        index: &mut impl FnMut(TypeRef) -> u32,
    ) -> u32 {
        let state = small_u32(self.states.len());
        let edges: Vec<Edge> = decls
            .iter()
            .map(|(name, ty)| Edge {
                name: self.push_name(name),
                name_len: small_u32(name.len()),
                target: state,
                child: index(*ty),
            })
            .collect();
        self.push_state(false, edges);
        state
    }

    /// Does the automaton starting at `start` accept this child-name
    /// sequence?
    #[cfg(test)]
    fn accepts<'n>(&self, start: u32, names: impl Iterator<Item = &'n [u8]>) -> bool {
        let mut state = start;
        for name in names {
            match self.step(state, name) {
                Some(edge) => state = edge.target,
                None => return false,
            }
        }
        self.states[ix(state)].accept
    }

    /// The content of a type whose model is `particle`: its automaton, or
    /// the particle itself with a row for its child names.
    fn content(&mut self, particle: &Particle, index: &mut impl FnMut(TypeRef) -> u32) -> Content {
        let alpha = alphabet(particle);
        match self.try_build(particle, &alpha, index) {
            Some(start) => Content::Dfa(start),
            None => Content::Greedy {
                particle: particle.clone(),
                children: self.push_names(&alpha, index),
            },
        }
    }

    /// Append the automaton of `particle`, whose [`alphabet`] is `alpha`,
    /// and return its start state, or `None` (nothing appended) when the
    /// model expands too far or is not deterministic (greedy
    /// interpretation could then disagree).
    fn try_build(
        &mut self,
        particle: &Particle,
        alpha: &[(&[u8], TypeRef)],
        index: &mut impl FnMut(TypeRef) -> u32,
    ) -> Option<u32> {
        let rx = lower(particle, alpha)?;
        let mut pos_sym: Vec<u32> = Vec::new();
        let mut follow: Vec<Vec<u32>> = Vec::new();
        let g = glushkov(&rx, &mut pos_sym, &mut follow);
        if pos_sym.len() > MAX_POSITIONS {
            return None;
        }
        let start = small_u32(self.states.len());
        // The row of a state: one `(symbol, target)` per symbol of its
        // first/follow set.
        let row = |set: &[u32], own: Option<u32>| -> Option<Vec<(u32, u32)>> {
            let mut row: Vec<(u32, u32)> = Vec::new();
            for &p in set {
                let edge = (pos_sym[ix(p)], start + p + 1);
                match row.iter().find(|e| e.0 == edge.0) {
                    // Two distinct positions reachable on one symbol: the
                    // model is not 1-unambiguous.
                    Some(e) if e.1 != edge.1 => return None,
                    Some(_) => {}
                    None => row.push(edge),
                }
            }
            // A position's own symbol leads its row: the child just taken
            // is the likeliest next (`fill*`, `item+`).
            if let Some(at) = own.and_then(|own| row.iter().position(|e| e.0 == own)) {
                row[..=at].rotate_right(1);
            }
            Some(row)
        };
        let mut table = vec![(g.nullable, row(&g.first, None)?)];
        for (p, f) in follow.iter().enumerate() {
            let accept = g.last.contains(&small_u32(p));
            table.push((accept, row(f, Some(pos_sym[p]))?));
        }
        let symbols: Vec<Edge> = alpha
            .iter()
            .map(|(name, ty)| Edge {
                name: self.push_name(name),
                name_len: small_u32(name.len()),
                target: start,
                child: index(*ty),
            })
            .collect();
        for (accept, row) in table {
            let edges = row.into_iter().map(|(sym, target)| Edge { target, ..symbols[ix(sym)] });
            self.push_state(accept, edges);
        }
        Some(start)
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

/// Lower a particle to a regex over the alphabet `alpha` (every child name
/// of it, once), expanding occurrence counts. `None` when the expansion
/// would be too large or the particle is `xs:all` (order-free content is
/// exponential as a regex).
fn lower(p: &Particle, alpha: &[(&[u8], TypeRef)]) -> Option<Rx> {
    match p {
        Particle::Element { name, min, max, .. } => {
            let sym = alpha.iter().position(|(n, _)| n == name);
            repeat(
                Rx::Sym(small_u32(sym.expect("the alphabet holds every child name"))),
                *min,
                *max,
            )
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

    /// The automaton of `p` alone (every child typed as record 0), or
    /// `None` where the builder refuses it.
    fn build(p: &Particle) -> Option<(Rows, u32)> {
        let mut rows = Rows::default();
        let start = rows.try_build(p, &alphabet(p), &mut |_| 0)?;
        Some((rows, start))
    }

    /// Both validators must agree on the whole-document verdict; returns
    /// how many inputs are valid.
    fn assert_verdicts(schema: &Schema, inputs: &[&[u8]]) -> usize {
        let auto = SchemaAutomaton::compile(schema);
        let mut valid = 0;
        for input in inputs {
            let eager = parse_document(TBuf::msg(input), &mut NullProbe).unwrap();
            let want = schema.validate(&eager, &mut NullProbe).unwrap().is_valid();
            let got = auto.validate_document(input).unwrap();
            assert_eq!(got, want, "verdicts differ on {:?}", String::from_utf8_lossy(input));
            valid += usize::from(got);
        }
        valid
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

    /// What `compile` folds or merges must still answer as the facet walk
    /// and the declaration lists do.
    #[test]
    fn folded_checks_and_merged_declarations_agree() {
        let many: String =
            (0..70).map(|i| format!(r#"<xs:attribute name="a{i}" type="xs:integer"/>"#)).collect();
        let xsd = format!(
            r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
              <xs:complexType name="cplx"><xs:attribute name="k" type="xs:string"/></xs:complexType>
              <xs:simpleType name="ranged">
                <xs:restriction base="xs:string">
                  <xs:minInclusive value="-5"/><xs:maxLength value="3"/><xs:minLength value="2"/>
                </xs:restriction>
              </xs:simpleType>
              <xs:simpleType name="exact">
                <xs:restriction base="xs:nonNegativeInteger">
                  <xs:length value="2"/><xs:maxLength value="4"/><xs:maxInclusive value="50"/>
                </xs:restriction>
              </xs:simpleType>
              <xs:simpleType name="padded">
                <xs:restriction base="xs:anyURI"><xs:maxInclusive value="9"/></xs:restriction>
              </xs:simpleType>
              <xs:element name="r">
                <xs:complexType>
                  <xs:sequence>
                    <xs:element name="s" minOccurs="0">
                      <xs:complexType><xs:simpleContent>
                        <xs:extension base="cplx"/>
                      </xs:simpleContent></xs:complexType>
                    </xs:element>
                    <xs:element name="v" type="ranged" minOccurs="0"/>
                    <xs:element name="e" type="exact" minOccurs="0"/>
                    <xs:element name="p" type="padded" minOccurs="0"/>
                  </xs:sequence>
                  <xs:attribute name="c" type="cplx"/>
                  <xs:attribute name="d" type="xs:integer"/>
                  <xs:attribute name="d" type="xs:string" use="required"/>
                  {many}
                  <xs:attribute name="last" type="xs:integer" use="required"/>
                </xs:complexType>
              </xs:element>
              <xs:element name="r" type="xs:integer"/>
            </xs:schema>"#
        );
        let s = Schema::compile(xsd.as_bytes()).unwrap();
        let valid = assert_verdicts(
            &s,
            &[
                br#"<r d="1" last="2"/>"#,
                br#"<r d="1" last="2" a0="3" a69="4"><s>anything <![CDATA[goes]]></s></r>"#,
                br#"<r d="1"/>"#,          // the last declaration is required
                br#"<r last="2"/>"#,       // so is `d`, by its second declaration
                br#"<r d="x" last="2"/>"#, // typed by its first
                br#"<r d="1" last="2" a69="x"/>"#, // every declaration checks its value
                br#"<r d="1" last="2" c="v"/>"#, // a complex type holds no value
                br#"<r d="1" last="2"><v>-5</v></r>"#,
                br#"<r d="1" last="2"><v>-6</v></r>"#,
                br#"<r d="1" last="2"><v>7</v></r>"#, // too short
                br#"<r d="1" last="2"><v>1234</v></r>"#, // too long
                br#"<r d="1" last="2"><v>ab</v></r>"#, // the range wants an integer
                br#"<r d="1" last="2"><e>42</e></r>"#,
                br#"<r d="1" last="2"><e> 42 </e></r>"#,
                br#"<r d="1" last="2"><e>51</e></r>"#,
                br#"<r d="1" last="2"><e>7</e></r>"#,
                br#"<r d="1" last="2"><e>-1</e></r>"#,
                br#"<r d="1" last="2"><e>007</e></r>"#,
                br#"<r d="1" last="2"><p>9</p></r>"#,
                br#"<r d="1" last="2"><p> 9</p></r>"#, // a URI holds no space, padding included
                br#"<r d="1" last="2"><p>10</p></r>"#,
                b"<r>12</r>", // the first global `r` wins
            ],
        );
        assert_eq!(valid, 6, "the inputs not marked with a reason");
    }

    #[test]
    fn a_required_attribute_after_many_optional_ones_is_demanded() {
        let many: String =
            (0..70).map(|i| format!(r#"<xs:attribute name="a{i}" type="xs:integer"/>"#)).collect();
        let xsd = format!(
            r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
              <xs:element name="r">
                <xs:complexType>
                  {many}
                  <xs:attribute name="last" type="xs:integer" use="required"/>
                </xs:complexType>
              </xs:element>
            </xs:schema>"#
        );
        let s = Schema::compile(xsd.as_bytes()).unwrap();
        let inputs: [&[u8]; 4] =
            [b"<r/>", br#"<r a3="1"/>"#, br#"<r last="1"/>"#, br#"<r xmlns:x="u"/>"#];
        assert_eq!(assert_verdicts(&s, &inputs), 1, "only the one that carries `last`");
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
        assert!(build(&p).is_none());
    }

    #[test]
    fn huge_counts_fall_back() {
        let p = Particle::Element {
            name: b"a".to_vec(),
            ty: TypeRef::Builtin(BuiltinType::String),
            min: 0,
            max: 100,
        };
        assert!(build(&p).is_none());
        let p = Particle::Element {
            name: b"a".to_vec(),
            ty: TypeRef::Builtin(BuiltinType::String),
            min: 2,
            max: MAX_UNBOUNDED,
        };
        assert!(build(&p).is_some(), "bounded min with unbounded max expands fine");
    }

    /// Property pin: wherever a DFA builds, it must agree with the greedy
    /// interpreter on full-match verdicts — over randomized particles and
    /// child sequences.
    #[test]
    fn dfa_agrees_with_greedy_interpreter() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            usize::try_from(state >> 33).expect("31 bits fit a usize")
        };
        const NAMES: [&[u8]; 4] = [b"a", b"b", b"c", b"d"];
        fn gen_particle(next: &mut impl FnMut() -> usize, depth: u32) -> Particle {
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
                    name: NAMES[next() % 4].to_vec(),
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
            let Some((rows, start)) = build(&p) else {
                continue;
            };
            dfas += 1;
            for _ in 0..40 {
                let len = next() % 7;
                let seq: Vec<&[u8]> = (0..len).map(|_| NAMES[next() % 4]).collect();
                let mut cursor = 0;
                let greedy = validate::match_particle(&p, &seq, 0, &mut NullProbe, &mut cursor)
                    == Some(seq.len());
                let fast = rows.accepts(start, seq.iter().copied());
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
