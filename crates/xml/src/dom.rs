//! Arena-allocated DOM.
//!
//! Nodes live in a flat `Vec` and link to each other by index — the classic
//! arena DOM a 2006-era C XML engine would use. Each node also has a
//! deterministic region offset inside [`RegionSlot::WORK`], so traced
//! traversals (`first_child_t`, `next_sibling_t`, …) emit loads at the
//! addresses the node fields would occupy in memory, and the simulator sees
//! the true locality of a depth-first walk over sequentially allocated
//! nodes.
//!
//! Region layout inside `WORK`:
//!
//! * `0       ..  8 MiB` — node records, 32 bytes each
//! * `8 MiB   .. 12 MiB` — attribute records, 16 bytes each
//! * `12 MiB  ..       ` — string arena (names, decoded text)

use crate::error::{XmlError, XmlErrorKind, XmlResult};
use aon_trace::{Addr, Probe, RegionSlot};
use std::collections::HashMap;

/// Size of one node record in the simulated arena.
pub const NODE_SIZE: u32 = 32;
/// Base region offset of attribute records.
pub const ATTR_BASE: u32 = 8 << 20;
/// Size of one attribute record.
pub const ATTR_SIZE: u32 = 16;
/// Base region offset of the string arena.
pub const STR_BASE: u32 = 12 << 20;

/// Index of a node in the document arena.
///
/// Two special encodings exist for XPath: the virtual *document node*
/// ([`NodeId::DOCUMENT`]), which is the context of absolute paths and whose
/// only child is the root element, and *attribute pseudo-nodes*
/// ([`NodeId::attr`]), which reference attribute records so attribute-axis
/// results carry value semantics. Ordinary DOM traversal never produces
/// either.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// High bit marks attribute pseudo-nodes.
    const ATTR_BIT: u32 = 0x8000_0000;
    /// The virtual document node.
    pub const DOCUMENT: NodeId = NodeId(0x7fff_ffff);

    /// Pseudo-node for attribute record `i`.
    pub fn attr(i: u32) -> NodeId {
        debug_assert!(i < Self::ATTR_BIT);
        NodeId(Self::ATTR_BIT | i)
    }

    /// Is this an attribute pseudo-node?
    pub fn is_attr(self) -> bool {
        self.0 & Self::ATTR_BIT != 0
    }

    /// The attribute record index (only valid if [`NodeId::is_attr`]).
    pub fn attr_index(self) -> u32 {
        self.0 & !Self::ATTR_BIT
    }

    /// Is this the virtual document node?
    pub fn is_document(self) -> bool {
        self == Self::DOCUMENT
    }
}

/// Interned name id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NameId(pub u32);

/// A span in the document's string arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrRef {
    /// Offset into the document's string arena.
    pub off: u32,
    /// Length in bytes.
    pub len: u32,
}

/// Node payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An element with an interned name.
    Element(NameId),
    /// A text node.
    Text(StrRef),
    /// A processing instruction (target kept, data dropped).
    Pi(StrRef),
}

/// One DOM node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Payload.
    pub kind: NodeKind,
    /// Parent node, if any.
    pub parent: Option<NodeId>,
    /// First child, if any.
    pub first_child: Option<NodeId>,
    /// Last child, if any (O(1) append).
    pub last_child: Option<NodeId>,
    /// Next sibling, if any.
    pub next_sibling: Option<NodeId>,
    /// Attribute records `attrs[attr_start..attr_end]` (elements only).
    pub attr_start: u32,
    /// End of this element's attribute range.
    pub attr_end: u32,
}

/// One attribute.
#[derive(Debug, Clone, Copy)]
pub struct AttrRec {
    /// Interned attribute name.
    pub name: NameId,
    /// Decoded value.
    pub value: StrRef,
}

/// A parsed XML document.
#[derive(Debug, Default)]
pub struct Document {
    nodes: Vec<Node>,
    attrs: Vec<AttrRec>,
    bytes: Vec<u8>,
    names: Vec<StrRef>,
    name_lookup: HashMap<Vec<u8>, NameId>,
    root: Option<NodeId>,
}

impl Document {
    /// An empty document.
    pub fn new() -> Self {
        Document::default()
    }

    /// The root element. Errors if the document has none.
    pub fn root(&self) -> XmlResult<NodeId> {
        self.root.ok_or(XmlError::at(XmlErrorKind::NoRoot, 0))
    }

    /// Set the root element (used by the parser).
    pub(crate) fn set_root(&mut self, id: NodeId) {
        self.root = Some(id);
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of attributes across all elements.
    pub fn attr_count(&self) -> usize {
        self.attrs.len()
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// The region address of field `field_off` of node `id`.
    #[inline]
    pub fn node_addr(&self, id: NodeId, field_off: u32) -> Addr {
        Addr::new(RegionSlot::WORK, id.0 * NODE_SIZE + field_off)
    }

    /// The region address of attribute record `i`.
    #[inline]
    pub fn attr_addr(&self, i: u32, field_off: u32) -> Addr {
        Addr::new(RegionSlot::WORK, ATTR_BASE + i * ATTR_SIZE + field_off)
    }

    /// The region address of string-arena offset `off`.
    #[inline]
    pub fn str_addr(&self, off: u32) -> Addr {
        Addr::new(RegionSlot::WORK, STR_BASE + off)
    }

    /// Append a node; returns its id. Emits the arena-write stores.
    pub(crate) fn push_node<P: Probe>(&mut self, node: Node, p: &mut P) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        // Initializing the 32-byte record: four 8-byte stores.
        for w in 0..4 {
            p.store(self.node_addr(id, w * 8), 8);
        }
        p.alu(4);
        id
    }

    /// Append an attribute record. Emits the arena-write stores.
    pub(crate) fn push_attr<P: Probe>(&mut self, attr: AttrRec, p: &mut P) -> u32 {
        let i = self.attrs.len() as u32;
        self.attrs.push(attr);
        p.store(self.attr_addr(i, 0), 8);
        p.store(self.attr_addr(i, 8), 8);
        p.alu(2);
        i
    }

    /// Link `child` as the last child of `parent`. Emits the pointer-update
    /// loads/stores.
    pub(crate) fn append_child<P: Probe>(&mut self, parent: NodeId, child: NodeId, p: &mut P) {
        p.load(self.node_addr(parent, 12), 4); // read last_child
        let last = self.nodes[parent.0 as usize].last_child;
        match last {
            Some(prev) => {
                p.store(self.node_addr(prev, 16), 4); // prev.next_sibling = child
                self.nodes[prev.0 as usize].next_sibling = Some(child);
            }
            None => {
                p.store(self.node_addr(parent, 8), 4); // parent.first_child = child
                self.nodes[parent.0 as usize].first_child = Some(child);
            }
        }
        p.store(self.node_addr(parent, 12), 4); // parent.last_child = child
        p.store(self.node_addr(child, 4), 4); // child.parent = parent
        p.alu(3);
        self.nodes[parent.0 as usize].last_child = Some(child);
        self.nodes[child.0 as usize].parent = Some(parent);
    }

    /// Copy `bytes` into the string arena (stores traced, one per word) and
    /// return a reference.
    pub(crate) fn intern_bytes<P: Probe>(&mut self, bytes: &[u8], p: &mut P) -> StrRef {
        let off = self.bytes.len() as u32;
        self.bytes.extend_from_slice(bytes);
        let words = (bytes.len() as u32).div_ceil(8);
        for w in 0..words {
            p.store(self.str_addr(off + w * 8), 8);
            p.alu(1);
        }
        StrRef { off, len: bytes.len() as u32 }
    }

    /// Set the attribute range of an element (used by the parser after
    /// pushing the element's attribute records).
    pub(crate) fn set_attr_range(&mut self, id: NodeId, start: u32, end: u32) {
        let n = &mut self.nodes[id.0 as usize];
        n.attr_start = start;
        n.attr_end = end;
    }

    /// Intern a name: FNV hash over the bytes (one ALU per byte), a hash
    /// table probe (one load), and on a miss a copy into the string arena.
    pub(crate) fn intern_name<P: Probe>(&mut self, name: &[u8], p: &mut P) -> NameId {
        p.alu(name.len() as u32); // hashing
        p.load(Addr::new(RegionSlot::WORK, STR_BASE), 8); // bucket probe
        if let Some(&id) = self.name_lookup.get(name) {
            // Hit: verify with a compare over the interned bytes.
            p.alu((name.len() as u32).div_ceil(8) + 1);
            return id;
        }
        let sref = self.intern_bytes(name, p);
        let id = NameId(self.names.len() as u32);
        self.names.push(sref);
        self.name_lookup.insert(name.to_vec(), id);
        id
    }

    /// The bytes of a string reference.
    pub fn str_bytes(&self, s: StrRef) -> &[u8] {
        &self.bytes[s.off as usize..(s.off + s.len) as usize]
    }

    /// The bytes of an interned name.
    pub fn name_bytes(&self, id: NameId) -> &[u8] {
        self.str_bytes(self.names[id.0 as usize])
    }

    // ------------------------------------------------------------------
    // Traced traversal accessors (used by XPath / schema validation).
    // ------------------------------------------------------------------

    /// Read `kind` discriminant + payload (traced).
    pub fn kind_t<P: Probe>(&self, id: NodeId, p: &mut P) -> NodeKind {
        p.load(self.node_addr(id, 0), 4);
        self.nodes[id.0 as usize].kind
    }

    /// Read `first_child` (traced).
    pub fn first_child_t<P: Probe>(&self, id: NodeId, p: &mut P) -> Option<NodeId> {
        p.load(self.node_addr(id, 8), 4);
        self.nodes[id.0 as usize].first_child
    }

    /// Read `next_sibling` (traced).
    pub fn next_sibling_t<P: Probe>(&self, id: NodeId, p: &mut P) -> Option<NodeId> {
        p.load(self.node_addr(id, 16), 4);
        self.nodes[id.0 as usize].next_sibling
    }

    /// Read `parent` (traced).
    pub fn parent_t<P: Probe>(&self, id: NodeId, p: &mut P) -> Option<NodeId> {
        p.load(self.node_addr(id, 4), 4);
        self.nodes[id.0 as usize].parent
    }

    /// Attribute records of an element (traced range read).
    pub fn attrs_t<P: Probe>(&self, id: NodeId, p: &mut P) -> &[AttrRec] {
        p.load(self.node_addr(id, 20), 8);
        let n = &self.nodes[id.0 as usize];
        &self.attrs[n.attr_start as usize..n.attr_end as usize]
    }

    /// Compare an element's name with `expect`, tracing the name load and
    /// byte compare. Non-elements compare unequal.
    pub fn name_is_t<P: Probe>(&self, id: NodeId, expect: &[u8], p: &mut P) -> bool {
        match self.kind_t(id, p) {
            NodeKind::Element(name) => {
                let bytes = self.name_bytes(name);
                // Length check then word compare.
                p.alu(1);
                if bytes.len() != expect.len() {
                    return false;
                }
                let words = (bytes.len() as u32).div_ceil(8);
                p.load(self.str_addr(self.names[name.0 as usize].off), 8);
                p.alu(words * 2);
                bytes == expect
            }
            _ => false,
        }
    }

    /// The text bytes of a *text* node (traced word loads). Returns an empty
    /// vector for non-text nodes.
    pub fn text_bytes_t<P: Probe>(&self, id: NodeId, p: &mut P) -> Vec<u8> {
        match self.kind_t(id, p) {
            NodeKind::Text(s) => {
                let words = s.len.div_ceil(8);
                for w in 0..words {
                    p.load(self.str_addr(s.off + w * 8), 8);
                }
                p.alu(words + 1);
                self.str_bytes(s).to_vec()
            }
            _ => Vec::new(),
        }
    }

    /// Concatenated text of all direct text children (traced traversal).
    pub fn text_of_t<P: Probe>(&self, id: NodeId, p: &mut P) -> Vec<u8> {
        let mut out = Vec::new();
        let mut cur = self.first_child_t(id, p);
        while let Some(c) = cur {
            if let NodeKind::Text(s) = self.kind_t(c, p) {
                // Read the text bytes, word at a time.
                let words = s.len.div_ceil(8);
                for w in 0..words {
                    p.load(self.str_addr(s.off + w * 8), 8);
                }
                p.alu(words + 1);
                out.extend_from_slice(self.str_bytes(s));
            }
            cur = self.next_sibling_t(c, p);
        }
        out
    }

    /// The attribute record backing an attribute pseudo-node.
    pub fn attr_rec(&self, id: NodeId) -> AttrRec {
        debug_assert!(id.is_attr());
        self.attrs[id.attr_index() as usize]
    }

    /// Attribute pseudo-node ids of an element, optionally filtered by name
    /// (traced scan over the attribute records).
    pub fn attr_nodes_t<P: Probe>(
        &self,
        id: NodeId,
        name: Option<&[u8]>,
        p: &mut P,
    ) -> Vec<NodeId> {
        if id.is_attr() || id.is_document() {
            return Vec::new();
        }
        let n = &self.nodes[id.0 as usize];
        p.load(self.node_addr(id, 20), 8);
        let mut out = Vec::new();
        for i in n.attr_start..n.attr_end {
            p.load(self.attr_addr(i, 0), 8);
            p.alu(2);
            let rec = self.attrs[i as usize];
            match name {
                Some(want) => {
                    if self.name_bytes(rec.name) == want {
                        out.push(NodeId::attr(i));
                    }
                }
                None => out.push(NodeId::attr(i)),
            }
        }
        out
    }

    /// Find the first attribute with the given name (traced scan).
    pub fn attr_value_t<P: Probe>(&self, id: NodeId, name: &[u8], p: &mut P) -> Option<StrRef> {
        let n = &self.nodes[id.0 as usize];
        let (start, end) = (n.attr_start, n.attr_end);
        p.load(self.node_addr(id, 20), 8);
        for i in start..end {
            p.load(self.attr_addr(i, 0), 8);
            p.alu(2);
            let rec = self.attrs[i as usize];
            if self.name_bytes(rec.name) == name {
                return Some(rec.value);
            }
        }
        None
    }

    /// Depth-first pre-order iterator over all node ids (untraced; tests and
    /// native tooling).
    pub fn descendants(&self, from: NodeId) -> Descendants<'_> {
        Descendants { doc: self, stack: vec![from] }
    }
}

/// Iterator for [`Document::descendants`].
pub struct Descendants<'d> {
    doc: &'d Document,
    stack: Vec<NodeId>,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        // Push children in reverse so iteration is document order.
        let mut children = Vec::new();
        let mut c = self.doc.node(id).first_child;
        while let Some(cid) = c {
            children.push(cid);
            c = self.doc.node(cid).next_sibling;
        }
        while let Some(cid) = children.pop() {
            self.stack.push(cid);
        }
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aon_trace::NullProbe;

    fn elem(doc: &mut Document, name: &[u8]) -> NodeId {
        let nm = doc.intern_name(name, &mut NullProbe);
        doc.push_node(
            Node {
                kind: NodeKind::Element(nm),
                parent: None,
                first_child: None,
                last_child: None,
                next_sibling: None,
                attr_start: 0,
                attr_end: 0,
            },
            &mut NullProbe,
        )
    }

    #[test]
    fn build_and_traverse() {
        let mut doc = Document::new();
        let root = elem(&mut doc, b"root");
        let a = elem(&mut doc, b"a");
        let b = elem(&mut doc, b"b");
        doc.append_child(root, a, &mut NullProbe);
        doc.append_child(root, b, &mut NullProbe);
        doc.set_root(root);

        let mut p = NullProbe;
        assert_eq!(doc.first_child_t(root, &mut p), Some(a));
        assert_eq!(doc.next_sibling_t(a, &mut p), Some(b));
        assert_eq!(doc.next_sibling_t(b, &mut p), None);
        assert_eq!(doc.parent_t(b, &mut p), Some(root));
        assert!(doc.name_is_t(a, b"a", &mut p));
        assert!(!doc.name_is_t(a, b"b", &mut p));
    }

    #[test]
    fn interning_dedupes() {
        let mut doc = Document::new();
        let x = doc.intern_name(b"quantity", &mut NullProbe);
        let y = doc.intern_name(b"quantity", &mut NullProbe);
        let z = doc.intern_name(b"price", &mut NullProbe);
        assert_eq!(x, y);
        assert_ne!(x, z);
        assert_eq!(doc.name_bytes(x), b"quantity");
    }

    #[test]
    fn text_concatenation() {
        let mut doc = Document::new();
        let root = elem(&mut doc, b"r");
        let s1 = doc.intern_bytes(b"hello ", &mut NullProbe);
        let t1 = doc.push_node(
            Node {
                kind: NodeKind::Text(s1),
                parent: None,
                first_child: None,
                last_child: None,
                next_sibling: None,
                attr_start: 0,
                attr_end: 0,
            },
            &mut NullProbe,
        );
        let s2 = doc.intern_bytes(b"world", &mut NullProbe);
        let t2 = doc.push_node(
            Node {
                kind: NodeKind::Text(s2),
                parent: None,
                first_child: None,
                last_child: None,
                next_sibling: None,
                attr_start: 0,
                attr_end: 0,
            },
            &mut NullProbe,
        );
        doc.append_child(root, t1, &mut NullProbe);
        doc.append_child(root, t2, &mut NullProbe);
        assert_eq!(doc.text_of_t(root, &mut NullProbe), b"hello world");
    }

    #[test]
    fn descendants_pre_order() {
        let mut doc = Document::new();
        let root = elem(&mut doc, b"r");
        let a = elem(&mut doc, b"a");
        let b = elem(&mut doc, b"b");
        let c = elem(&mut doc, b"c");
        doc.append_child(root, a, &mut NullProbe);
        doc.append_child(a, b, &mut NullProbe);
        doc.append_child(root, c, &mut NullProbe);
        let order: Vec<NodeId> = doc.descendants(root).collect();
        assert_eq!(order, vec![root, a, b, c]);
    }

    #[test]
    fn missing_root_errors() {
        let doc = Document::new();
        assert!(doc.root().is_err());
    }

    #[test]
    fn node_addresses_are_disjoint_per_node() {
        let mut doc = Document::new();
        let a = elem(&mut doc, b"a");
        let b = elem(&mut doc, b"b");
        let aa = doc.node_addr(a, 0).offset;
        let ba = doc.node_addr(b, 0).offset;
        assert_eq!(ba - aa, NODE_SIZE);
    }
}
