//! XPath 1.0 subset: compiler and evaluator.
//!
//! The paper's CBR use case evaluates `//quantity/text()` against each
//! incoming SOAP message (§3.2.1) and routes on whether the result equals
//! `"1"`. This module implements the XPath 1.0 subset an AON device's
//! content-based router needs:
//!
//! * location paths (absolute, relative, `//`), axes `child`,
//!   `descendant-or-self`, `descendant`, `self`, `parent`, `attribute`
//!   (`@` shorthand);
//! * node tests: names, `*`, `text()`, `node()`;
//! * predicates, including positional (`[2]`) and comparison predicates;
//! * operators `or`, `and`, `=`, `!=`, `<`, `<=`, `>`, `>=`, `|`;
//! * core functions: `count`, `contains`, `starts-with`, `not`, `true`,
//!   `false`, `position`, `last`, `string`, `string-length`,
//!   `normalize-space`, `name`.
//!
//! Expressions are compiled once (at simulated-server start-up) into a flat
//! step/expression program whose records live in the `STATIC` region; the
//! evaluator's reads of the compiled program and its traversal of the DOM
//! are traced, so CBR's instruction stream has the real mix of pointer
//! chasing (DOM), warm static data (compiled path), and byte comparisons.

mod ast;
pub mod compile;
mod eval;
mod lexer;
mod parser;

pub use ast::{Axis, Expr, NodeTest, Step};
pub use compile::CompiledPath;
pub use eval::XPathValue;

use crate::dom::{Document, NodeId};
use crate::error::XmlResult;
use aon_trace::Probe;

/// A compiled XPath expression.
#[derive(Debug, Clone)]
pub struct XPath {
    /// Root of the expression tree.
    expr: Expr,
    /// Number of AST records (for STATIC-region layout / tracing).
    record_count: u32,
}

impl XPath {
    /// Compile an expression.
    pub fn compile(source: &str) -> XmlResult<XPath> {
        let expr = parser::parse(source)?;
        let record_count = expr.count_records();
        Ok(XPath { expr, record_count })
    }

    /// Number of compiled records (steps + expression nodes).
    pub fn record_count(&self) -> u32 {
        self.record_count
    }

    /// The compiled expression tree.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// Evaluate against `doc` with the root node as context.
    pub fn eval<P: Probe>(&self, doc: &Document, p: &mut P) -> XmlResult<XPathValue> {
        let root = doc.root()?;
        Ok(eval::eval_expr(&self.expr, doc, root, p))
    }

    /// Evaluate and coerce to a node-set (empty for non-node-set results).
    pub fn select<P: Probe>(&self, doc: &Document, p: &mut P) -> XmlResult<Vec<NodeId>> {
        Ok(match self.eval(doc, p)? {
            XPathValue::NodeSet(ns) => ns,
            _ => Vec::new(),
        })
    }

    /// The CBR router's question: does the expression's string-value equal
    /// `expect`? (For node-sets, XPath `=` semantics: true if *any* node's
    /// string-value matches.)
    pub fn string_equals<P: Probe>(
        &self,
        doc: &Document,
        expect: &[u8],
        p: &mut P,
    ) -> XmlResult<bool> {
        let v = self.eval(doc, p)?;
        Ok(eval::value_equals_bytes(&v, doc, expect, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::TBuf;
    use crate::parser::parse_document;
    use aon_trace::NullProbe;

    fn doc(input: &[u8]) -> Document {
        parse_document(TBuf::msg(input), &mut NullProbe).unwrap()
    }

    const PO: &[u8] = br#"<order id="7">
        <item><name>bolt</name><quantity>1</quantity></item>
        <item><name>nut</name><quantity>25</quantity></item>
        <note lang="en">rush</note>
    </order>"#;

    #[test]
    fn paper_expression_matches() {
        let d = doc(PO);
        let xp = XPath::compile("//quantity/text()").unwrap();
        assert!(xp.string_equals(&d, b"1", &mut NullProbe).unwrap());
        assert!(!xp.string_equals(&d, b"99", &mut NullProbe).unwrap());
    }

    #[test]
    fn select_counts_nodes() {
        let d = doc(PO);
        let xp = XPath::compile("//item").unwrap();
        assert_eq!(xp.select(&d, &mut NullProbe).unwrap().len(), 2);
        let xp = XPath::compile("//quantity").unwrap();
        assert_eq!(xp.select(&d, &mut NullProbe).unwrap().len(), 2);
    }

    #[test]
    fn child_axis_paths() {
        let d = doc(PO);
        assert_eq!(
            XPath::compile("/order/item").unwrap().select(&d, &mut NullProbe).unwrap().len(),
            2
        );
        assert_eq!(
            XPath::compile("item/name").unwrap().select(&d, &mut NullProbe).unwrap().len(),
            2
        );
        assert_eq!(
            XPath::compile("/wrong/item").unwrap().select(&d, &mut NullProbe).unwrap().len(),
            0
        );
    }

    #[test]
    fn wildcard_and_node_tests() {
        let d = doc(PO);
        assert_eq!(
            XPath::compile("/order/*").unwrap().select(&d, &mut NullProbe).unwrap().len(),
            3
        );
        // text() under note
        let xp = XPath::compile("/order/note/text()").unwrap();
        let v = xp.eval(&d, &mut NullProbe).unwrap();
        assert_eq!(v.string_value(&d, &mut NullProbe), b"rush");
    }

    #[test]
    fn positional_predicate() {
        let d = doc(PO);
        let xp = XPath::compile("//item[2]/name/text()").unwrap();
        let v = xp.eval(&d, &mut NullProbe).unwrap();
        assert_eq!(v.string_value(&d, &mut NullProbe), b"nut");
    }

    #[test]
    fn comparison_predicate() {
        let d = doc(PO);
        let xp = XPath::compile("//item[quantity = '25']/name/text()").unwrap();
        let v = xp.eval(&d, &mut NullProbe).unwrap();
        assert_eq!(v.string_value(&d, &mut NullProbe), b"nut");
    }

    #[test]
    fn numeric_comparison_predicate() {
        let d = doc(PO);
        let xp = XPath::compile("//item[quantity > 10]/name/text()").unwrap();
        let v = xp.eval(&d, &mut NullProbe).unwrap();
        assert_eq!(v.string_value(&d, &mut NullProbe), b"nut");
    }

    #[test]
    fn attribute_axis() {
        let d = doc(PO);
        let xp = XPath::compile("/order/@id").unwrap();
        let v = xp.eval(&d, &mut NullProbe).unwrap();
        assert_eq!(v.string_value(&d, &mut NullProbe), b"7");
        let xp = XPath::compile("//note[@lang='en']").unwrap();
        assert_eq!(xp.select(&d, &mut NullProbe).unwrap().len(), 1);
    }

    #[test]
    fn functions() {
        let d = doc(PO);
        let count = XPath::compile("count(//item)").unwrap().eval(&d, &mut NullProbe).unwrap();
        assert_eq!(count.number_value(&d, &mut NullProbe), 2.0);
        let c = XPath::compile("contains(//note/text(), 'us')").unwrap();
        assert!(c.eval(&d, &mut NullProbe).unwrap().boolean_value(&d, &mut NullProbe));
        let sw = XPath::compile("starts-with(//note/text(), 'ru')").unwrap();
        assert!(sw.eval(&d, &mut NullProbe).unwrap().boolean_value(&d, &mut NullProbe));
        let n = XPath::compile("not(//missing)").unwrap();
        assert!(n.eval(&d, &mut NullProbe).unwrap().boolean_value(&d, &mut NullProbe));
    }

    #[test]
    fn boolean_operators() {
        let d = doc(PO);
        let xp = XPath::compile("//item[quantity='1' or quantity='25']").unwrap();
        assert_eq!(xp.select(&d, &mut NullProbe).unwrap().len(), 2);
        let xp = XPath::compile("//item[quantity='1' and name='bolt']").unwrap();
        assert_eq!(xp.select(&d, &mut NullProbe).unwrap().len(), 1);
    }

    #[test]
    fn union_operator() {
        let d = doc(PO);
        let xp = XPath::compile("//name | //note").unwrap();
        assert_eq!(xp.select(&d, &mut NullProbe).unwrap().len(), 3);
    }

    #[test]
    fn parent_and_self_axes() {
        let d = doc(PO);
        let xp = XPath::compile("//quantity/..").unwrap();
        assert_eq!(xp.select(&d, &mut NullProbe).unwrap().len(), 2);
        let xp = XPath::compile("/order/.").unwrap();
        assert_eq!(xp.select(&d, &mut NullProbe).unwrap().len(), 1);
    }

    #[test]
    fn syntax_errors() {
        for bad in ["//", "foo[", "foo]", "count(", "@", "foo/", "1 +", "'unterminated"] {
            assert!(XPath::compile(bad).is_err(), "expected error for {bad:?}");
        }
    }

    #[test]
    fn descendant_or_self_matches_root_itself() {
        let d = doc(b"<quantity>5</quantity>");
        let xp = XPath::compile("//quantity").unwrap();
        assert_eq!(xp.select(&d, &mut NullProbe).unwrap().len(), 1);
    }

    #[test]
    fn document_order_of_descendant_results() {
        let d = doc(b"<r><a><x>1</x></a><x>2</x></r>");
        let xp = XPath::compile("//x").unwrap();
        let ns = xp.select(&d, &mut NullProbe).unwrap();
        assert_eq!(ns.len(), 2);
        assert!(ns[0] < ns[1], "results must be in document order");
    }
}
