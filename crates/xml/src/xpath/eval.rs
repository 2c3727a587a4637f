//! XPath evaluator over the arena DOM.
//!
//! Evaluation is traced: every compiled-program record read emits a load in
//! the `STATIC` region (the compiled path is device configuration, resident
//! across requests), DOM traversal goes through the traced accessors of
//! [`Document`], and string comparisons emit word-compare loops. This gives
//! the CBR use case its characteristic mix: warm static data + cold message
//! data + heavy branching.

use super::ast::{Axis, CmpOp, Expr, Func, NodeTest, Step};
use crate::dom::{Document, NodeId, NodeKind};
use aon_trace::{br, Addr, Probe, RegionSlot};

/// Region offset where compiled XPath records notionally live.
const XPATH_STATIC_BASE: u32 = 0x4000;
/// Size of one compiled record.
const RECORD_SIZE: u32 = 16;

/// Trace the read of compiled-record `idx`.
#[inline]
fn touch_record<P: Probe>(idx: u32, p: &mut P) {
    p.load(Addr::new(RegionSlot::STATIC, XPATH_STATIC_BASE + idx * RECORD_SIZE), 8);
    p.alu(1);
}

/// An XPath 1.0 value.
#[derive(Debug, Clone, PartialEq)]
pub enum XPathValue {
    /// A set of nodes in document order.
    NodeSet(Vec<NodeId>),
    /// A string.
    Str(Vec<u8>),
    /// A number (XPath numbers are IEEE doubles).
    Num(f64),
    /// A boolean.
    Bool(bool),
}

impl XPathValue {
    /// XPath `string()` coercion. For node-sets: string-value of the first
    /// node (empty string for an empty set).
    pub fn string_value<P: Probe>(&self, doc: &Document, p: &mut P) -> Vec<u8> {
        match self {
            XPathValue::NodeSet(ns) => match ns.first() {
                Some(&n) => node_string_value(doc, n, p),
                None => Vec::new(),
            },
            XPathValue::Str(s) => s.clone(),
            XPathValue::Num(n) => format_number(*n).into_bytes(),
            XPathValue::Bool(b) => {
                if *b {
                    b"true".to_vec()
                } else {
                    b"false".to_vec()
                }
            }
        }
    }

    /// XPath `number()` coercion.
    pub fn number_value<P: Probe>(&self, doc: &Document, p: &mut P) -> f64 {
        match self {
            XPathValue::Num(n) => *n,
            XPathValue::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            _ => parse_number(&self.string_value(doc, p)),
        }
    }

    /// XPath `boolean()` coercion.
    pub fn boolean_value<P: Probe>(&self, _doc: &Document, p: &mut P) -> bool {
        // Coercion itself is a couple of ALU ops.
        p.alu(2);
        match self {
            XPathValue::NodeSet(ns) => !ns.is_empty(),
            XPathValue::Str(s) => !s.is_empty(),
            XPathValue::Num(n) => *n != 0.0 && !n.is_nan(),
            XPathValue::Bool(b) => *b,
        }
    }
}

/// String-value of a node: concatenated descendant text for elements, own
/// text for text nodes, the attribute value for attribute pseudo-nodes.
pub fn node_string_value<P: Probe>(doc: &Document, n: NodeId, p: &mut P) -> Vec<u8> {
    if n.is_attr() {
        let rec = doc.attr_rec(n);
        let words = rec.value.len.div_ceil(8);
        for w in 0..words {
            p.load(doc.str_addr(rec.value.off + w * 8), 8);
        }
        p.alu(words + 1);
        return doc.str_bytes(rec.value).to_vec();
    }
    if n.is_document() {
        return match doc.root() {
            Ok(root) => node_string_value(doc, root, p),
            Err(_) => Vec::new(),
        };
    }
    match doc.kind_t(n, p) {
        NodeKind::Text(_) => doc.text_bytes_t(n, p),
        NodeKind::Element(_) => {
            // Recursive descendant-text concatenation.
            let mut out = Vec::new();
            collect_text(doc, n, &mut out, p);
            out
        }
        _ => Vec::new(),
    }
}

fn collect_text<P: Probe>(doc: &Document, n: NodeId, out: &mut Vec<u8>, p: &mut P) {
    let mut cur = doc.first_child_t(n, p);
    while let Some(c) = cur {
        match doc.kind_t(c, p) {
            NodeKind::Text(_) => out.extend_from_slice(&doc.text_bytes_t(c, p)),
            NodeKind::Element(_) => collect_text(doc, c, out, p),
            _ => {}
        }
        cur = doc.next_sibling_t(c, p);
    }
}

/// XPath string → number ("NaN" on failure, per spec).
fn parse_number(s: &[u8]) -> f64 {
    std::str::from_utf8(s).ok().and_then(|t| t.trim().parse::<f64>().ok()).unwrap_or(f64::NAN)
}

/// An XPath number for a position, node-set size or string length. All of
/// these are bounded by the u32 DOM arena, so the conversion is exact.
fn usize_num(n: usize) -> f64 {
    f64::from(u32::try_from(n).expect("XPath cardinalities fit u32"))
}

/// XPath number → string (integer formatting when integral).
fn format_number(n: f64) -> String {
    if n.is_nan() {
        "NaN".to_string()
    } else if n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

struct Ctx {
    /// Monotonic compiled-record index for tracing reads of the program.
    next_record: u32,
}

/// Evaluate `expr` with `ctx_node` as the context node.
pub fn eval_expr<P: Probe>(expr: &Expr, doc: &Document, ctx_node: NodeId, p: &mut P) -> XPathValue {
    let mut ctx = Ctx { next_record: 0 };
    eval(expr, doc, ctx_node, 1, 1, &mut ctx, p)
}

fn eval<P: Probe>(
    expr: &Expr,
    doc: &Document,
    ctx_node: NodeId,
    position: usize,
    size: usize,
    ctx: &mut Ctx,
    p: &mut P,
) -> XPathValue {
    let rec = ctx.next_record;
    ctx.next_record += 1;
    touch_record(rec, p);
    match expr {
        Expr::Literal(s) => XPathValue::Str(s.clone()),
        Expr::Number(n) => XPathValue::Num(*n),
        Expr::Path { absolute, steps } => {
            if *absolute && steps.is_empty() {
                // Bare "/": the root element.
                return XPathValue::NodeSet(doc.root().ok().into_iter().collect());
            }
            let start = if *absolute { vec![NodeId::DOCUMENT] } else { vec![ctx_node] };
            XPathValue::NodeSet(eval_path(steps, doc, start, ctx, p))
        }
        Expr::And(a, b) => {
            let lhs = eval(a, doc, ctx_node, position, size, ctx, p).boolean_value(doc, p);
            if !br!(p, 0xf195_8f59, lhs) {
                return XPathValue::Bool(false);
            }
            let rhs = eval(b, doc, ctx_node, position, size, ctx, p).boolean_value(doc, p);
            XPathValue::Bool(rhs)
        }
        Expr::Or(a, b) => {
            let lhs = eval(a, doc, ctx_node, position, size, ctx, p).boolean_value(doc, p);
            if br!(p, 0xc5fe_beb6, lhs) {
                return XPathValue::Bool(true);
            }
            let rhs = eval(b, doc, ctx_node, position, size, ctx, p).boolean_value(doc, p);
            XPathValue::Bool(rhs)
        }
        Expr::Union(a, b) => {
            let mut left = match eval(a, doc, ctx_node, position, size, ctx, p) {
                XPathValue::NodeSet(ns) => ns,
                _ => Vec::new(),
            };
            let right = match eval(b, doc, ctx_node, position, size, ctx, p) {
                XPathValue::NodeSet(ns) => ns,
                _ => Vec::new(),
            };
            for n in right {
                p.alu(2);
                if !left.contains(&n) {
                    left.push(n);
                }
            }
            left.sort();
            p.alu(left.len() as u32);
            XPathValue::NodeSet(left)
        }
        Expr::Cmp(op, a, b) => {
            let lhs = eval(a, doc, ctx_node, position, size, ctx, p);
            let rhs = eval(b, doc, ctx_node, position, size, ctx, p);
            XPathValue::Bool(compare(*op, &lhs, &rhs, doc, p))
        }
        Expr::Call(func, args) => eval_call(*func, args, doc, ctx_node, position, size, ctx, p),
    }
}

fn eval_path<P: Probe>(
    steps: &[Step],
    doc: &Document,
    start: Vec<NodeId>,
    ctx: &mut Ctx,
    p: &mut P,
) -> Vec<NodeId> {
    let mut current = start;
    for step in steps {
        let rec = ctx.next_record;
        ctx.next_record += 1;
        touch_record(rec, p);
        let mut next: Vec<NodeId> = Vec::new();
        for &node in &current {
            if step.axis == Axis::Attribute {
                let filter = match &step.test {
                    NodeTest::Name(name) => Some(name.as_slice()),
                    NodeTest::AnyName | NodeTest::AnyNode => None,
                    NodeTest::Text => continue,
                };
                for a in doc.attr_nodes_t(node, filter, p) {
                    if !next.contains(&a) {
                        next.push(a);
                    }
                }
                continue;
            }
            let mut candidates: Vec<NodeId> = Vec::new();
            collect_axis(step.axis, doc, node, &mut candidates, p);
            for c in candidates {
                if node_test_matches(&step.test, doc, c, p) && !next.contains(&c) {
                    next.push(c);
                }
            }
        }
        // Keep document order (NodeIds are allocated in document order).
        next.sort();
        p.alu(next.len() as u32);
        // Predicates filter with (position, size) context.
        for pred in &step.predicates {
            let size = next.len();
            let mut kept = Vec::new();
            for (i, &n) in next.iter().enumerate() {
                let v = eval(pred, doc, n, i + 1, size, ctx, p);
                let keep = match v {
                    // A numeric predicate selects by position.
                    XPathValue::Num(want) => usize_num(i + 1) == want,
                    other => other.boolean_value(doc, p),
                };
                if br!(p, 0x1e55_8601, keep) {
                    kept.push(n);
                }
            }
            next = kept;
        }
        current = next;
    }
    current
}

fn collect_axis<P: Probe>(
    axis: Axis,
    doc: &Document,
    node: NodeId,
    out: &mut Vec<NodeId>,
    p: &mut P,
) {
    // Attribute pseudo-nodes have no children/descendants and their parent
    // (the owning element) is not tracked; all axes yield nothing except
    // self.
    if node.is_attr() {
        if axis == Axis::SelfAxis || axis == Axis::DescendantOrSelf {
            out.push(node);
        }
        return;
    }
    match axis {
        Axis::Child => {
            let mut cur =
                if node.is_document() { doc.root().ok() } else { doc.first_child_t(node, p) };
            while let Some(c) = cur {
                out.push(c);
                cur = if node.is_document() { None } else { doc.next_sibling_t(c, p) };
            }
        }
        Axis::Descendant => {
            if node.is_document() {
                if let Ok(root) = doc.root() {
                    out.push(root);
                    collect_axis(Axis::Descendant, doc, root, out, p);
                }
                return;
            }
            let mut cur = doc.first_child_t(node, p);
            while let Some(c) = cur {
                out.push(c);
                collect_axis(Axis::Descendant, doc, c, out, p);
                cur = doc.next_sibling_t(c, p);
            }
        }
        Axis::DescendantOrSelf => {
            out.push(node);
            collect_axis(Axis::Descendant, doc, node, out, p);
        }
        Axis::SelfAxis => out.push(node),
        Axis::Parent => {
            if node.is_document() {
                return;
            }
            match doc.parent_t(node, p) {
                Some(par) => out.push(par),
                // The parent of the root element is the document node.
                None => out.push(NodeId::DOCUMENT),
            }
        }
        Axis::Attribute => unreachable!("attribute axis handled in eval_path"),
    }
}

fn node_test_matches<P: Probe>(test: &NodeTest, doc: &Document, node: NodeId, p: &mut P) -> bool {
    if node.is_document() {
        return matches!(test, NodeTest::AnyNode);
    }
    if node.is_attr() {
        return matches!(test, NodeTest::AnyNode);
    }
    match test {
        NodeTest::Name(name) => doc.name_is_t(node, name, p),
        NodeTest::AnyName => matches!(doc.kind_t(node, p), NodeKind::Element(_)),
        NodeTest::Text => matches!(doc.kind_t(node, p), NodeKind::Text(_)),
        NodeTest::AnyNode => true,
    }
}

#[expect(
    clippy::too_many_arguments,
    reason = "one XPath function call needs the whole evaluation context"
)]
fn eval_call<P: Probe>(
    func: Func,
    args: &[Expr],
    doc: &Document,
    ctx_node: NodeId,
    position: usize,
    size: usize,
    ctx: &mut Ctx,
    p: &mut P,
) -> XPathValue {
    let mut vals: Vec<XPathValue> = Vec::with_capacity(args.len());
    for a in args {
        vals.push(eval(a, doc, ctx_node, position, size, ctx, p));
    }
    match func {
        Func::Count => {
            let n = match &vals[0] {
                XPathValue::NodeSet(ns) => ns.len(),
                _ => 0,
            };
            XPathValue::Num(usize_num(n))
        }
        Func::Contains => {
            let hay = vals[0].string_value(doc, p);
            let needle = vals[1].string_value(doc, p);
            // Naive substring search: the classic byte-compare loop.
            p.alu((hay.len().max(1) as u32) * 2);
            XPathValue::Bool(contains_bytes(&hay, &needle))
        }
        Func::StartsWith => {
            let s = vals[0].string_value(doc, p);
            let prefix = vals[1].string_value(doc, p);
            p.alu(prefix.len().max(1) as u32);
            XPathValue::Bool(s.starts_with(&prefix[..]))
        }
        Func::Not => XPathValue::Bool(!vals[0].boolean_value(doc, p)),
        Func::True => XPathValue::Bool(true),
        Func::False => XPathValue::Bool(false),
        Func::Position => XPathValue::Num(usize_num(position)),
        Func::Last => XPathValue::Num(usize_num(size)),
        Func::String => {
            let v = vals.first().cloned().unwrap_or_else(|| XPathValue::NodeSet(vec![ctx_node]));
            XPathValue::Str(v.string_value(doc, p))
        }
        Func::StringLength => {
            let s = match vals.first() {
                Some(v) => v.string_value(doc, p),
                None => node_string_value(doc, ctx_node, p),
            };
            XPathValue::Num(usize_num(s.len()))
        }
        Func::NormalizeSpace => {
            let s = match vals.first() {
                Some(v) => v.string_value(doc, p),
                None => node_string_value(doc, ctx_node, p),
            };
            p.alu(s.len().max(1) as u32);
            XPathValue::Str(normalize_space(&s))
        }
        Func::Concat => {
            let mut out = Vec::new();
            for v in &vals {
                out.extend_from_slice(&v.string_value(doc, p));
            }
            p.alu(out.len().max(1) as u32 / 4 + 1);
            XPathValue::Str(out)
        }
        Func::Substring => {
            let s = vals[0].string_value(doc, p);
            let start = vals[1].number_value(doc, p);
            let len = vals.get(2).map(|v| v.number_value(doc, p));
            p.alu(s.len().max(1) as u32 / 4 + 2);
            XPathValue::Str(xpath_substring(&s, start, len))
        }
        Func::SubstringBefore | Func::SubstringAfter => {
            let s = vals[0].string_value(doc, p);
            let needle = vals[1].string_value(doc, p);
            p.alu((s.len().max(1) as u32) * 2);
            let found = if needle.is_empty() {
                Some(0)
            } else {
                s.windows(needle.len()).position(|w| w == needle.as_slice())
            };
            let out = match (func, found) {
                (Func::SubstringBefore, Some(i)) => s[..i].to_vec(),
                (Func::SubstringAfter, Some(i)) => s[i + needle.len()..].to_vec(),
                _ => Vec::new(),
            };
            XPathValue::Str(out)
        }
        Func::Translate => {
            let s = vals[0].string_value(doc, p);
            let from = vals[1].string_value(doc, p);
            let to = vals[2].string_value(doc, p);
            p.alu((s.len().max(1) as u32) * 2);
            let mut out = Vec::with_capacity(s.len());
            for &b in &s {
                match from.iter().position(|&f| f == b) {
                    Some(i) => {
                        if let Some(&r) = to.get(i) {
                            out.push(r);
                        }
                        // Position beyond `to`: character is deleted.
                    }
                    None => out.push(b),
                }
            }
            XPathValue::Str(out)
        }
        Func::Name => {
            let node = match vals.first() {
                Some(XPathValue::NodeSet(ns)) => ns.first().copied(),
                _ => Some(ctx_node),
            };
            match node {
                Some(n) if n.is_attr() => {
                    XPathValue::Str(doc.name_bytes(doc.attr_rec(n).name).to_vec())
                }
                Some(n) if !n.is_document() => match doc.kind_t(n, p) {
                    NodeKind::Element(nm) => XPathValue::Str(doc.name_bytes(nm).to_vec()),
                    _ => XPathValue::Str(Vec::new()),
                },
                _ => XPathValue::Str(Vec::new()),
            }
        }
    }
}

fn contains_bytes(hay: &[u8], needle: &[u8]) -> bool {
    if needle.is_empty() {
        return true;
    }
    hay.windows(needle.len()).any(|w| w == needle)
}

fn normalize_space(s: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(s.len());
    let mut in_ws = true; // strip leading
    for &b in s {
        if b.is_ascii_whitespace() {
            if !in_ws {
                out.push(b' ');
                in_ws = true;
            }
        } else {
            out.push(b);
            in_ws = false;
        }
    }
    while out.last() == Some(&b' ') {
        out.pop();
    }
    out
}

/// XPath `=` / comparison semantics for the subset we support.
fn compare<P: Probe>(
    op: CmpOp,
    lhs: &XPathValue,
    rhs: &XPathValue,
    doc: &Document,
    p: &mut P,
) -> bool {
    use XPathValue::*;
    match (lhs, rhs) {
        // node-set vs node-set / string / number: existential semantics.
        (NodeSet(ns), other) => ns.iter().any(|&n| {
            let sv = node_string_value(doc, n, p);
            cmp_scalar(op, &Str(sv), other, doc, p)
        }),
        (other, NodeSet(ns)) => ns.iter().any(|&n| {
            let sv = node_string_value(doc, n, p);
            cmp_scalar(op, other, &Str(sv), doc, p)
        }),
        (a, b) => cmp_scalar(op, a, b, doc, p),
    }
}

fn cmp_scalar<P: Probe>(
    op: CmpOp,
    a: &XPathValue,
    b: &XPathValue,
    doc: &Document,
    p: &mut P,
) -> bool {
    use CmpOp::*;
    match op {
        Eq | Ne => {
            let eq = match (a, b) {
                (XPathValue::Num(x), _) | (_, XPathValue::Num(x)) => {
                    let other = if matches!(a, XPathValue::Num(_)) { b } else { a };
                    p.alu(2);
                    *x == other.number_value(doc, p)
                }
                (XPathValue::Bool(x), _) => *x == b.boolean_value(doc, p),
                (_, XPathValue::Bool(x)) => a.boolean_value(doc, p) == *x,
                _ => {
                    let sa = a.string_value(doc, p);
                    let sb = b.string_value(doc, p);
                    p.alu((sa.len().min(sb.len()).max(1) as u32).div_ceil(8) * 2 + 1);
                    sa == sb
                }
            };
            if matches!(op, Eq) {
                eq
            } else {
                !eq
            }
        }
        Lt | Le | Gt | Ge => {
            let x = a.number_value(doc, p);
            let y = b.number_value(doc, p);
            p.alu(2);
            match op {
                Lt => x < y,
                Le => x <= y,
                Gt => x > y,
                Ge => x >= y,
                _ => unreachable!(),
            }
        }
    }
}

/// XPath 1.0 `substring()` semantics: 1-based positions, round() on the
/// arguments, NaN-propagating bounds (operating on bytes — adequate for
/// the ASCII-dominated AON message space).
fn xpath_substring(s: &[u8], start: f64, len: Option<f64>) -> Vec<u8> {
    let begin = start.round();
    let end = match len {
        Some(l) => begin + l.round(),
        None => f64::INFINITY,
    };
    if begin.is_nan() || end.is_nan() {
        return Vec::new();
    }
    s.iter()
        .enumerate()
        .filter(|(i, _)| {
            let pos = usize_num(*i + 1);
            pos >= begin && pos < end
        })
        .map(|(_, &b)| b)
        .collect()
}

/// Existential byte-equality used by [`super::XPath::string_equals`].
pub fn value_equals_bytes<P: Probe>(
    v: &XPathValue,
    doc: &Document,
    expect: &[u8],
    p: &mut P,
) -> bool {
    compare(CmpOp::Eq, v, &XPathValue::Str(expect.to_vec()), doc, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(2.0), "2");
        assert_eq!(format_number(2.5), "2.5");
        assert_eq!(format_number(f64::NAN), "NaN");
        assert_eq!(format_number(-3.0), "-3");
    }

    #[test]
    fn number_parsing() {
        assert_eq!(parse_number(b" 42 "), 42.0);
        assert!(parse_number(b"x").is_nan());
    }

    #[test]
    fn normalize_space_works() {
        assert_eq!(normalize_space(b"  a \t b\n c  "), b"a b c");
        assert_eq!(normalize_space(b""), b"");
        assert_eq!(normalize_space(b"   "), b"");
    }

    #[test]
    fn contains_bytes_works() {
        assert!(contains_bytes(b"hello", b"ell"));
        assert!(contains_bytes(b"hello", b""));
        assert!(!contains_bytes(b"hello", b"xyz"));
        assert!(!contains_bytes(b"ab", b"abc"));
    }
}
