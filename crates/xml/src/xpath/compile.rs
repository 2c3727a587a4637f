//! Compiled path patterns for the fast (untraced) serving path.
//!
//! [`XPath::string_equals`] walks the expression AST and the traced DOM on
//! every message. For the router's actual rule shapes — fixed location
//! paths like the paper's `//quantity/text()` — that is wasted generality:
//! the path is compiled *once* into a flat step program, and the program
//! runs as a handler of the one event pass ([`crate::events`]), so the
//! comparison is answered while the body is tokenised and no tree exists.
//!
//! [`CompiledPath::compile`] accepts the *streamable subset*: location
//! paths built from `child::`/`descendant::` name steps and the `//`
//! desugar, with an optional trailing `text()` step and no predicates.
//! Anything richer returns `None` and the caller falls back to the DOM
//! evaluator — so compilation can never change a verdict, only the cost of
//! reaching it. The differential suite pins
//! [`CompiledPath::string_equals`] against [`XPath::string_equals`] over
//! the same inputs.
//!
//! Compiled patterns are plain data (`Send + Sync`): rule tables share one
//! `Arc<CompiledPath>` per expression across worker threads.

#![deny(clippy::as_conversions)]

use super::ast::{Axis, Expr, NodeTest};
use super::XPath;
use crate::error::XmlResult;
use crate::events::{self, Attr, Events};

/// Most element steps a compiled path may have: one bit of a `u64` per
/// matched step prefix, plus the empty prefix.
const MAX_STEPS: usize = 63;

/// One element-name step of a compiled path.
#[derive(Debug, Clone)]
struct PatStep {
    /// Match at any depth below the previous match (`//a`, `descendant::a`)
    /// rather than only among direct children.
    descendant: bool,
    /// The element name to match.
    name: Vec<u8>,
}

/// A location path compiled to a streaming matcher over the event pass.
#[derive(Debug, Clone)]
pub struct CompiledPath {
    /// Path starts at the document node (`/…`) vs. the context element.
    absolute: bool,
    /// Element steps, outermost first.
    steps: Vec<PatStep>,
    /// Final `text()` step: compare each matched element's direct text
    /// children instead of its whole-subtree string value.
    trailing_text: bool,
}

impl CompiledPath {
    /// Compile `xp` if it falls in the streamable subset, `None` otherwise.
    pub fn compile(xp: &XPath) -> Option<CompiledPath> {
        let Expr::Path { absolute, steps } = xp.expr() else {
            return None;
        };
        let mut out: Vec<PatStep> = Vec::new();
        let mut pending_desc = false;
        let mut trailing_text = false;
        for (i, step) in steps.iter().enumerate() {
            if !step.predicates.is_empty() {
                return None;
            }
            let last = i + 1 == steps.len();
            match (&step.axis, &step.test) {
                // The `//` desugar: fold into a descendant flag on the next
                // named step. A trailing one has no step to fold into.
                (Axis::DescendantOrSelf, NodeTest::AnyNode) => {
                    if last {
                        return None;
                    }
                    pending_desc = true;
                }
                (Axis::Child, NodeTest::Name(n)) => {
                    out.push(PatStep { descendant: pending_desc, name: n.clone() });
                    pending_desc = false;
                }
                // `descendant::a` after `//` is still just "descendant".
                (Axis::Descendant, NodeTest::Name(n)) => {
                    out.push(PatStep { descendant: true, name: n.clone() });
                    pending_desc = false;
                }
                (Axis::Child, NodeTest::Text) if last && !pending_desc => {
                    trailing_text = true;
                }
                // `self::`/`parent::`/`attribute::`, wildcards, explicit
                // `descendant-or-self::name` (self can match): DOM fallback.
                _ => return None,
            }
        }
        if pending_desc || out.len() > MAX_STEPS {
            return None;
        }
        Some(CompiledPath { absolute: *absolute, steps: out, trailing_text })
    }

    /// The router's question, asked of the raw message: does any node the
    /// path selects have string-value `expect`? `Err` when `input` is not
    /// well-formed — wherever the fault sits, also after a match — and
    /// otherwise verdict-equivalent to [`XPath::string_equals`] on the
    /// eager DOM of the same bytes.
    pub fn string_equals(&self, input: &[u8], expect: &[u8]) -> XmlResult<bool> {
        let mut m = Matcher {
            path: self,
            expect,
            open: Vec::with_capacity(32),
            values: Vec::new(),
            found: false,
        };
        events::run(input, &mut m)?;
        Ok(m.found)
    }
}

/// What the matcher knows about one open element. Bit `i` of a mask stands
/// for "the first `i` steps are matched, ending at …".
#[derive(Debug, Clone, Copy)]
struct Level {
    /// … this element.
    here: u64,
    /// … this element or one of its ancestors (the document node counts).
    above: u64,
    /// The whole path selects this element.
    selected: bool,
}

/// [`CompiledPath`] executing over one message.
struct Matcher<'p> {
    path: &'p CompiledPath,
    expect: &'p [u8],
    /// One level per open element, innermost last.
    open: Vec<Level>,
    /// String-value mode: per selected open element (they nest, innermost
    /// last), how much of `expect` its text so far has matched; `None`
    /// once it differs.
    values: Vec<Option<usize>>,
    found: bool,
}

impl<'a> Events<'a> for Matcher<'_> {
    fn start(&mut self, name: &'a [u8], _attrs: &[Attr<'a>]) {
        let path = self.path;
        let root = self.open.is_empty();
        // Above the root sits the document node: the context of an
        // absolute path. A relative path's context is the root itself.
        let (parent_here, parent_above) = match self.open.last() {
            Some(l) => (l.here, l.above),
            None => (u64::from(path.absolute), u64::from(path.absolute)),
        };
        let mut here = u64::from(root && !path.absolute);
        for (i, step) in path.steps.iter().enumerate() {
            let from = if step.descendant { parent_above } else { parent_here };
            if (from >> i) & 1 == 1 && step.name == name {
                here |= 1 << (i + 1);
            }
        }
        let selected = if path.absolute && path.steps.is_empty() {
            // Bare `/` selects the document node, whose string-value is
            // the root element's and which has no text children.
            root && !path.trailing_text
        } else {
            (here >> path.steps.len()) & 1 == 1
        };
        if selected && !path.trailing_text {
            self.values.push(Some(0));
        }
        self.open.push(Level { here, above: parent_above | here, selected });
    }

    fn text(&mut self, raw: &'a [u8], has_entities: bool) {
        if self.path.trailing_text {
            // `text()` selects each text child as a node of its own, and
            // `=` over a node-set is existential.
            if !self.found && self.open.last().is_some_and(|l| l.selected) {
                self.found = *events::decoded(raw, has_entities) == *self.expect;
            }
        } else if !self.values.is_empty() {
            // An element's string-value is all text below it, in order.
            let piece = events::decoded(raw, has_entities);
            for v in &mut self.values {
                *v = v.and_then(|done| {
                    self.expect[done..].starts_with(&piece).then_some(done + piece.len())
                });
            }
        }
    }

    fn end(&mut self) {
        let level = self.open.pop().expect("the event pass balances start and end");
        if level.selected && !self.path.trailing_text {
            let value = self.values.pop().expect("one value per selected element");
            self.found |= value == Some(self.expect.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::TBuf;
    use crate::parser::parse_document;
    use aon_trace::NullProbe;

    const PO: &[u8] = br#"<order id="7">
        <item><name>bolt</name><quantity>1</quantity></item>
        <item><name>nut</name><quantity>25</quantity></item>
        <note lang="en">rush</note>
    </order>"#;

    /// Compiled verdict must equal the DOM evaluator's on the same bytes.
    fn assert_differential(source: &str, input: &[u8], expects: &[&[u8]]) {
        let xp = XPath::compile(source).unwrap();
        let cp =
            CompiledPath::compile(&xp).unwrap_or_else(|| panic!("{source:?} should be streamable"));
        let eager = parse_document(TBuf::msg(input), &mut NullProbe).unwrap();
        for expect in expects {
            let want = xp.string_equals(&eager, expect, &mut NullProbe).unwrap();
            let got = cp.string_equals(input, expect).unwrap();
            assert_eq!(got, want, "{source:?} = {:?}", String::from_utf8_lossy(expect));
        }
    }

    #[test]
    fn paper_expression_matches() {
        assert_differential("//quantity/text()", PO, &[b"1", b"25", b"99", b"", b"rush"]);
    }

    #[test]
    fn absolute_child_paths() {
        assert_differential("/order/item/name/text()", PO, &[b"bolt", b"nut", b"x", b""]);
        assert_differential("/order/note/text()", PO, &[b"rush", b"bolt"]);
        assert_differential("/wrong/item/text()", PO, &[b"bolt", b""]);
    }

    #[test]
    fn relative_paths_start_below_the_root() {
        // Relative paths are evaluated with the root element as context.
        assert_differential("item/name/text()", PO, &[b"bolt", b"order", b""]);
        assert_differential("note/text()", PO, &[b"rush"]);
        // `order` is the root itself, not a child of the context.
        assert_differential("order/note/text()", PO, &[b"rush"]);
    }

    #[test]
    fn element_string_value_concatenates_descendants() {
        // No trailing text(): compare the element's whole-subtree text.
        assert_differential("//item", PO, &[b"bolt1", b"nut25", b"bolt", b"1"]);
        assert_differential("/order/note", PO, &[b"rush", b""]);
    }

    #[test]
    fn descendant_step_mid_path() {
        let input = b"<r><a><b><q>7</q></b></a><q>8</q></r>";
        assert_differential("//a//q/text()", input, &[b"7", b"8", b""]);
        assert_differential("/r//q/text()", input, &[b"7", b"8"]);
    }

    #[test]
    fn split_text_nodes_stay_separate_under_text_test() {
        // CDATA splits the text into two nodes; text() compares each alone,
        // while the element string-value concatenates them.
        let input = b"<r><q>ab<![CDATA[cd]]></q></r>";
        assert_differential("//q/text()", input, &[b"ab", b"cd", b"abcd"]);
        assert_differential("//q", input, &[b"abcd", b"ab"]);
    }

    #[test]
    fn entity_bearing_text_is_decoded_for_comparison() {
        let input = b"<r><q>a&amp;b</q></r>";
        assert_differential("//q/text()", input, &[b"a&b", b"a&amp;b"]);
    }

    #[test]
    fn bare_root_path() {
        assert_differential("/", b"<r>ab<c>cd</c></r>", &[b"abcd", b"ab"]);
    }

    #[test]
    fn nested_selected_elements_keep_separate_values() {
        // Both <item>s are selected at once while the inner one is open;
        // each string-value is compared on its own.
        let input = b"<r><item>a<item>b</item>c</item></r>";
        assert_differential("//item", input, &[b"abc", b"b", b"ab", b"a", b""]);
        assert_differential("//item//item", input, &[b"b", b"abc"]);
        let input = b"<r><a><a><q>1</q></a><q>2</q></a><q>3</q></r>";
        assert_differential("//a//q/text()", input, &[b"1", b"2", b"3"]);
        assert_differential("//a/a/q/text()", input, &[b"1", b"2"]);
        assert_differential("/r/a/q/text()", input, &[b"1", b"2", b"3"]);
    }

    #[test]
    fn a_match_does_not_excuse_a_malformed_tail() {
        let xp = XPath::compile("//quantity/text()").unwrap();
        let cp = CompiledPath::compile(&xp).unwrap();
        assert_eq!(cp.string_equals(b"<o><quantity>1</quantity></o>", b"1"), Ok(true));
        for bad in [
            &b"<o><quantity>1</quantity><unclosed"[..],
            b"<o><quantity>1</quantity></o><o/>",
            b"<o><quantity>1</quantity>&bad;</o>",
        ] {
            let want = parse_document(TBuf::msg(bad), &mut NullProbe).unwrap_err();
            assert_eq!(
                cp.string_equals(bad, b"1"),
                Err(want),
                "{:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn missing_name_never_matches() {
        let xp = XPath::compile("//nosuch/text()").unwrap();
        let cp = CompiledPath::compile(&xp).unwrap();
        assert_eq!(cp.string_equals(PO, b"1"), Ok(false));
    }

    #[test]
    fn non_streamable_shapes_fall_back() {
        for source in [
            "//item[2]/name",       // positional predicate
            "//item[quantity='1']", // comparison predicate
            "/order/@id",           // attribute axis
            "//name | //note",      // union
            "count(//item)",        // function call
            "//quantity/..",        // parent axis
            "/order/*",             // wildcard name test
            "//quantity/node()",    // node() test mid/trailing
            ".",                    // self axis
        ] {
            let xp = XPath::compile(source).unwrap();
            assert!(CompiledPath::compile(&xp).is_none(), "{source:?} should not be streamable");
        }
    }

    #[test]
    fn streamable_shapes_compile() {
        for source in ["//quantity/text()", "/order/item", "item/name", "//a//b//c/text()", "/"] {
            let xp = XPath::compile(source).unwrap();
            assert!(CompiledPath::compile(&xp).is_some(), "{source:?} should compile");
        }
    }
}
