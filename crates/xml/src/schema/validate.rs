//! Schema validation engine.
//!
//! Walks the message DOM against the compiled schema. Content models are
//! matched with a backtracking particle matcher (XSD's Unique Particle
//! Attribution rule means real schemas are deterministic and the matcher
//! rarely backtracks; the code still handles the general case correctly).
//!
//! Tracing: every compiled-record consulted emits a STATIC load (warm), DOM
//! traversal and text reads go through the traced `Document` accessors
//! (cold, per-message), and value checks delegate to [`super::value`].

use super::types::{
    AttrDecl, ComplexType, ContentModel, ElemDecl, Particle, SimpleType, TypeDef, TypeRef,
    MAX_UNBOUNDED,
};
use super::value;
use super::Schema;
use crate::dom::{Document, NodeId, NodeKind};
use crate::error::XmlResult;
use aon_trace::{br, site, Addr, Probe, RegionSlot};

/// Region offset where compiled schema records notionally live.
const SCHEMA_STATIC_BASE: u32 = 0x20_0000;
/// Size of one compiled schema record.
const RECORD_SIZE: u32 = 24;

#[inline]
fn touch_record<P: Probe>(idx: u32, p: &mut P) {
    p.load(Addr::new(RegionSlot::STATIC, SCHEMA_STATIC_BASE + (idx % 4096) * RECORD_SIZE), 8);
    p.alu(1);
}

/// Why a document failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Element has no matching declaration.
    UnknownElement,
    /// Children do not match the content model.
    ContentModel,
    /// Element with `Empty`/`Children` content has text.
    UnexpectedText,
    /// A simple value failed its type or facet checks.
    BadValue,
    /// A required attribute is missing.
    MissingAttribute,
    /// An undeclared attribute is present.
    UnknownAttribute,
    /// An attribute value failed its type check.
    BadAttributeValue,
}

/// One validation failure.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What failed.
    pub kind: ViolationKind,
    /// The offending node.
    pub node: NodeId,
    /// Element or attribute name involved, for diagnostics.
    pub name: Vec<u8>,
}

/// The validation outcome.
#[derive(Debug, Clone)]
pub enum Validity {
    /// Document conforms to the schema.
    Valid,
    /// Document does not conform; all collected violations.
    Invalid(Vec<Violation>),
}

impl Validity {
    /// True if valid.
    pub fn is_valid(&self) -> bool {
        matches!(self, Validity::Valid)
    }

    /// The violations (empty when valid).
    pub fn violations(&self) -> &[Violation] {
        match self {
            Validity::Valid => &[],
            Validity::Invalid(v) => v,
        }
    }
}

struct Validator<'s, 'd, P: Probe> {
    schema: &'s Schema,
    doc: &'d Document,
    violations: Vec<Violation>,
    probe: &'s mut P,
    record_cursor: u32,
}

/// Validate `doc` against `schema`, starting at the document root.
pub fn validate_document<P: Probe>(
    schema: &Schema,
    doc: &Document,
    p: &mut P,
) -> XmlResult<Validity> {
    let root = doc.root()?;
    Ok(validate_subtree(schema, doc, root, p))
}

/// Validate the subtree rooted at `node` (it must match a global element
/// declaration). Used when the validated payload sits inside an envelope —
/// e.g. a SOAP body member.
pub fn validate_subtree<P: Probe>(
    schema: &Schema,
    doc: &Document,
    node: crate::dom::NodeId,
    p: &mut P,
) -> Validity {
    let mut v = Validator { schema, doc, violations: Vec::new(), probe: p, record_cursor: 0 };
    v.validate_root(node);
    if v.violations.is_empty() {
        Validity::Valid
    } else {
        Validity::Invalid(v.violations)
    }
}

impl<P: Probe> Validator<'_, '_, P> {
    fn touch(&mut self) {
        touch_record(self.record_cursor, self.probe);
        self.record_cursor += 1;
    }

    fn violate(&mut self, kind: ViolationKind, node: NodeId, name: &[u8]) {
        self.violations.push(Violation { kind, node, name: name.to_vec() });
    }

    fn element_name(&mut self, node: NodeId) -> Option<Vec<u8>> {
        match self.doc.kind_t(node, self.probe) {
            NodeKind::Element(nm) => Some(self.doc.name_bytes(nm).to_vec()),
            _ => None,
        }
    }

    fn validate_root(&mut self, root: NodeId) {
        let Some(name) = self.element_name(root) else {
            self.violate(ViolationKind::UnknownElement, root, b"");
            return;
        };
        // Linear scan over global declarations (schemas are small; real
        // engines hash — either way it's warm STATIC data).
        let decl: Option<ElemDecl> = {
            let mut found = None;
            for (i, d) in self.schema.elements.iter().enumerate() {
                touch_record(i as u32, self.probe);
                self.probe.alu(2);
                if br!(self.probe, 0xf86e_bd07, d.name == name) {
                    found = Some(d.clone());
                    break;
                }
            }
            found
        };
        match decl {
            Some(d) => self.validate_element(root, &name, d.ty),
            None => self.violate(ViolationKind::UnknownElement, root, &name),
        }
    }

    fn validate_element(&mut self, node: NodeId, name: &[u8], ty: TypeRef) {
        self.touch();
        match ty {
            TypeRef::Builtin(bt) => {
                // Element with a built-in simple type: text-only content.
                self.check_no_element_children(node, name);
                let text = self.doc.text_of_t(node, self.probe);
                if !value::check_builtin(bt, &text, self.probe) {
                    self.violate(ViolationKind::BadValue, node, name);
                }
                self.check_attrs(node, name, &[]);
            }
            TypeRef::Def(id) => match &self.schema.types[id.0 as usize] {
                TypeDef::Simple(st) => {
                    let st = st.clone();
                    self.check_no_element_children(node, name);
                    let text = self.doc.text_of_t(node, self.probe);
                    self.check_simple_value(&st, &text, node, name);
                    self.check_attrs(node, name, &[]);
                }
                TypeDef::Complex(ct) => {
                    let ct = ct.clone();
                    self.validate_complex(node, name, &ct);
                }
            },
        }
    }

    fn check_simple_value(&mut self, st: &SimpleType, text: &[u8], node: NodeId, name: &[u8]) {
        let ok = value::check_builtin(st.base, text, self.probe)
            && value::check_facets(&st.facets, text, self.probe);
        if !br!(self.probe, 0xeefb_d640, ok) {
            self.violate(ViolationKind::BadValue, node, name);
        }
    }

    fn check_no_element_children(&mut self, node: NodeId, name: &[u8]) {
        let mut cur = self.doc.first_child_t(node, self.probe);
        while let Some(c) = cur {
            if let NodeKind::Element(_) = self.doc.kind_t(c, self.probe) {
                self.violate(ViolationKind::ContentModel, c, name);
                return;
            }
            cur = self.doc.next_sibling_t(c, self.probe);
        }
    }

    fn validate_complex(&mut self, node: NodeId, name: &[u8], ct: &ComplexType) {
        self.check_attrs(node, name, &ct.attrs);
        match &ct.content {
            ContentModel::Empty => {
                if br!(self.probe, 0xf73e_6747, self.doc.first_child_t(node, self.probe).is_some())
                {
                    // Whitespace-only text was dropped at parse time, so any
                    // child is a real violation.
                    self.violate(ViolationKind::UnexpectedText, node, name);
                }
            }
            ContentModel::Text(ty) => {
                self.check_no_element_children(node, name);
                let text = self.doc.text_of_t(node, self.probe);
                match ty {
                    TypeRef::Builtin(bt) => {
                        if !value::check_builtin(*bt, &text, self.probe) {
                            self.violate(ViolationKind::BadValue, node, name);
                        }
                    }
                    TypeRef::Def(id) => {
                        if let TypeDef::Simple(st) = &self.schema.types[id.0 as usize] {
                            let st = st.clone();
                            self.check_simple_value(&st, &text, node, name);
                        }
                    }
                }
            }
            ContentModel::Children(particle) => {
                // Gather element children; text between them is a violation.
                let mut children: Vec<(NodeId, Vec<u8>)> = Vec::new();
                let mut cur = self.doc.first_child_t(node, self.probe);
                while let Some(c) = cur {
                    match self.doc.kind_t(c, self.probe) {
                        NodeKind::Element(nm) => {
                            children.push((c, self.doc.name_bytes(nm).to_vec()))
                        }
                        NodeKind::Text(_) => {
                            let text = self.doc.text_bytes_t(c, self.probe);
                            if !value::trim(&text).is_empty() {
                                self.violate(ViolationKind::UnexpectedText, c, name);
                            }
                        }
                        _ => {}
                    }
                    cur = self.doc.next_sibling_t(c, self.probe);
                }
                let names: Vec<&[u8]> = children.iter().map(|(_, n)| n.as_slice()).collect();
                match match_particle(particle, &names, 0, self.probe, &mut self.record_cursor) {
                    Some(consumed) if consumed == names.len() => {
                        // Content model ok; now recurse into each child with
                        // its matched element declaration.
                        for (child, child_name) in &children {
                            match find_child_decl(particle, child_name) {
                                Some(ty) => self.validate_element(*child, child_name, ty),
                                None => {
                                    self.violate(ViolationKind::UnknownElement, *child, child_name)
                                }
                            }
                        }
                    }
                    _ => self.violate(ViolationKind::ContentModel, node, name),
                }
            }
        }
    }

    fn check_attrs(&mut self, node: NodeId, _name: &[u8], decls: &[AttrDecl]) {
        // Present attributes must be declared and valid.
        let recs: Vec<_> = self.doc.attrs_t(node, self.probe).to_vec();
        for rec in &recs {
            let aname = self.doc.name_bytes(rec.name).to_vec();
            // Namespace declarations are not schema-validated.
            if is_namespace_decl(&aname) {
                continue;
            }
            self.touch();
            let decl = decls.iter().find(|d| d.name == aname).cloned();
            match decl {
                None => self.violate(ViolationKind::UnknownAttribute, node, &aname),
                Some(d) => {
                    let val = self.doc.str_bytes(rec.value).to_vec();
                    // Trace the value read.
                    let words = (val.len() as u32).div_ceil(8);
                    for w in 0..words {
                        self.probe.load(self.doc.str_addr(rec.value.off + w * 8), 8);
                    }
                    let ok = match d.ty {
                        TypeRef::Builtin(bt) => value::check_builtin(bt, &val, self.probe),
                        TypeRef::Def(id) => match &self.schema.types[id.0 as usize] {
                            TypeDef::Simple(st) => {
                                let st = st.clone();
                                value::check_builtin(st.base, &val, self.probe)
                                    && value::check_facets(&st.facets, &val, self.probe)
                            }
                            TypeDef::Complex(_) => false,
                        },
                    };
                    if !br!(self.probe, 0xb3d2_7d51, ok) {
                        self.violate(ViolationKind::BadAttributeValue, node, &aname);
                    }
                }
            }
        }
        // Required attributes must be present.
        for d in decls {
            self.touch();
            if d.required {
                let present = recs.iter().any(|r| self.doc.name_bytes(r.name) == d.name.as_slice());
                self.probe.alu(recs.len().max(1) as u32);
                if !br!(self.probe, 0x5b3b_83d1, present) {
                    self.violate(ViolationKind::MissingAttribute, node, &d.name);
                }
            }
        }
    }
}

/// Try to match `particle` against `names[pos..]`; returns the new position
/// on success. Backtracking matcher over the (short) child list.
///
/// `pub(super)` so [`super::automaton`] can fall back to the exact same
/// greedy algorithm (with `NullProbe`) for content models it cannot prove
/// DFA-equivalent — fallback then cannot change a verdict by construction.
pub(super) fn match_particle<P: Probe>(
    particle: &Particle,
    names: &[&[u8]],
    pos: usize,
    p: &mut P,
    cursor: &mut u32,
) -> Option<usize> {
    touch_record(*cursor, p);
    *cursor += 1;
    match particle {
        Particle::Element { name, min, max, .. } => {
            let mut count = 0u32;
            let mut i = pos;
            while i < names.len() && count < *max {
                p.alu(2);
                let matches = names[i] == name.as_slice();
                p.branch(site!(0x5fb1_e8bd), matches);
                if !matches {
                    break;
                }
                count += 1;
                i += 1;
            }
            if count >= *min {
                Some(i)
            } else {
                None
            }
        }
        Particle::Sequence { items, min, max } => {
            match_group(names, pos, *min, *max, p, cursor, |names, pos, p, cursor| {
                let mut i = pos;
                for item in items {
                    i = match_particle(item, names, i, p, cursor)?;
                }
                Some(i)
            })
        }
        Particle::Choice { items, min, max } => {
            match_group(names, pos, *min, *max, p, cursor, |names, pos, p, cursor| {
                for item in items {
                    if let Some(next) = match_particle(item, names, pos, p, cursor) {
                        return Some(next);
                    }
                }
                None
            })
        }
        Particle::All { items } => {
            // Each member once (order-free); optional members may be absent.
            let mut used = vec![false; items.len()];
            let mut i = pos;
            'next_child: while i < names.len() {
                for (k, item) in items.iter().enumerate() {
                    if used[k] {
                        continue;
                    }
                    if let Particle::Element { name, .. } = item {
                        p.alu(2);
                        if names[i] == name.as_slice() {
                            used[k] = true;
                            i += 1;
                            continue 'next_child;
                        }
                    }
                }
                break;
            }
            // Required members must all be used.
            for (k, item) in items.iter().enumerate() {
                if let Particle::Element { min, .. } = item {
                    p.alu(1);
                    if *min > 0 && !used[k] {
                        return None;
                    }
                }
            }
            Some(i)
        }
    }
}

/// Apply a group body `min..=max` times (greedy).
fn match_group<P: Probe>(
    names: &[&[u8]],
    pos: usize,
    min: u32,
    max: u32,
    p: &mut P,
    cursor: &mut u32,
    body: impl Fn(&[&[u8]], usize, &mut P, &mut u32) -> Option<usize>,
) -> Option<usize> {
    let mut count = 0u32;
    let mut i = pos;
    while count < max {
        match body(names, i, p, cursor) {
            Some(next) => {
                // Zero-width repetition guard.
                if next == i && max == MAX_UNBOUNDED {
                    break;
                }
                i = next;
                count += 1;
            }
            None => break,
        }
    }
    if count >= min {
        Some(i)
    } else {
        None
    }
}

/// Is this attribute a namespace declaration: `xmlns` or `xmlns:prefix`?
/// (`xmlnsfoo` is an ordinary attribute.)
pub(super) fn is_namespace_decl(attr_name: &[u8]) -> bool {
    attr_name.strip_prefix(b"xmlns").is_some_and(|rest| matches!(rest.first(), None | Some(b':')))
}

/// Find the declared type of a child element anywhere in the particle tree.
/// ([`super::automaton`] resolves the same lookup at compile time: the
/// first declaration of the name in document order.)
fn find_child_decl(particle: &Particle, name: &[u8]) -> Option<TypeRef> {
    match particle {
        Particle::Element { name: n, ty, .. } => {
            if n.as_slice() == name {
                Some(*ty)
            } else {
                None
            }
        }
        Particle::Sequence { items, .. }
        | Particle::Choice { items, .. }
        | Particle::All { items } => items.iter().find_map(|i| find_child_decl(i, name)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::types::BuiltinType;
    use aon_trace::NullProbe;

    fn elem(name: &str, min: u32, max: u32) -> Particle {
        Particle::Element {
            name: name.as_bytes().to_vec(),
            ty: TypeRef::Builtin(BuiltinType::String),
            min,
            max,
        }
    }

    fn names(list: &[&str]) -> Vec<Vec<u8>> {
        list.iter().map(|s| s.as_bytes().to_vec()).collect()
    }

    fn run(p: &Particle, children: &[&str]) -> bool {
        let owned = names(children);
        let refs: Vec<&[u8]> = owned.iter().map(|v| v.as_slice()).collect();
        let mut cursor = 0;
        match_particle(p, &refs, 0, &mut NullProbe, &mut cursor) == Some(refs.len())
    }

    #[test]
    fn element_occurs() {
        let p = elem("a", 1, 3);
        assert!(!run(&p, &[]));
        assert!(run(&p, &["a"]));
        assert!(run(&p, &["a", "a", "a"]));
        assert!(!run(&p, &["a", "a", "a", "a"]));
        assert!(!run(&p, &["b"]));
    }

    #[test]
    fn sequence_order() {
        let p =
            Particle::Sequence { items: vec![elem("a", 1, 1), elem("b", 1, 1)], min: 1, max: 1 };
        assert!(run(&p, &["a", "b"]));
        assert!(!run(&p, &["b", "a"]));
        assert!(!run(&p, &["a"]));
    }

    #[test]
    fn optional_in_sequence() {
        let p = Particle::Sequence {
            items: vec![elem("a", 1, 1), elem("opt", 0, 1), elem("b", 1, 1)],
            min: 1,
            max: 1,
        };
        assert!(run(&p, &["a", "b"]));
        assert!(run(&p, &["a", "opt", "b"]));
        assert!(!run(&p, &["a", "opt", "opt", "b"]));
    }

    #[test]
    fn repeated_group() {
        let p = Particle::Sequence {
            items: vec![elem("k", 1, 1), elem("v", 1, 1)],
            min: 0,
            max: MAX_UNBOUNDED,
        };
        assert!(run(&p, &[]));
        assert!(run(&p, &["k", "v"]));
        assert!(run(&p, &["k", "v", "k", "v"]));
        assert!(!run(&p, &["k", "k"]));
    }

    #[test]
    fn choice_picks_matching_branch() {
        let p = Particle::Choice { items: vec![elem("a", 1, 1), elem("b", 1, 1)], min: 1, max: 1 };
        assert!(run(&p, &["a"]));
        assert!(run(&p, &["b"]));
        assert!(!run(&p, &["c"]));
        assert!(!run(&p, &["a", "b"]));
    }

    #[test]
    fn unbounded_choice_mixes() {
        let p = Particle::Choice {
            items: vec![elem("a", 1, 1), elem("b", 1, 1)],
            min: 0,
            max: MAX_UNBOUNDED,
        };
        assert!(run(&p, &["a", "b", "a", "a", "b"]));
    }

    #[test]
    fn find_decl_descends() {
        let p = Particle::Sequence {
            items: vec![
                elem("a", 1, 1),
                Particle::Choice { items: vec![elem("x", 1, 1)], min: 1, max: 1 },
            ],
            min: 1,
            max: 1,
        };
        assert!(find_child_decl(&p, b"x").is_some());
        assert!(find_child_decl(&p, b"zzz").is_none());
    }
}
