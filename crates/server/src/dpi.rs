//! Deep packet inspection — the paper's future work (§6).
//!
//! A signature rule set compiled to NFAs (the `aon-xml` pattern engine)
//! and scanned unanchored across the raw message bytes, the way a
//! 2006-era IDS/AON content filter worked. Scanning cost is linear in
//! `bytes × active NFA states` and is fully traced: input loads stream
//! through the message buffer, rule-automaton reads hit warm `STATIC`
//! records.

use aon_trace::{Probe, ProbeExt};
use aon_xml::input::TBuf;
use aon_xml::schema::pattern::Pattern;
use aon_xml::XmlResult;

/// One inspection rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Diagnostic name.
    pub name: &'static str,
    /// Compiled signature.
    pub pattern: Pattern,
}

/// A compiled rule set.
#[derive(Debug, Clone)]
pub struct RuleSet {
    rules: Vec<Rule>,
}

impl RuleSet {
    /// Compile a rule set from (name, pattern) pairs.
    pub fn compile(defs: &[(&'static str, &str)]) -> XmlResult<RuleSet> {
        let rules = defs
            .iter()
            .map(|(name, src)| Ok(Rule { name, pattern: Pattern::compile(src)? }))
            .collect::<XmlResult<Vec<_>>>()?;
        Ok(RuleSet { rules })
    }

    /// The default signature set: a 2006-flavoured mix of injection,
    /// traversal, entity-bomb and malformed-envelope signatures.
    pub fn default_rules() -> RuleSet {
        Self::compile(&[
            ("sql-injection", "('|%27)( |%20)*(or|OR)( |%20)"),
            ("path-traversal", "\\.\\./\\.\\./"),
            ("xml-bomb-entity", "<!ENTITY( )+[a-z]+( )+\"&"),
            ("oversize-depth", "(<x>){8,}"),
            ("script-inject", "<(script|SCRIPT)( |>)"),
            ("cmd-exec", "(;|\\|)( )*(rm|cat|wget)( )"),
            ("null-byte", "%00"),
            ("unicode-evasion", "%c0%af"),
            ("soap-action-spoof", "SOAPAction( )*:( )*\"\""),
            ("b64-shellcode", "(TVqQ|f0VM)[A-Za-z0-9+/]{16,}"),
            ("external-dtd", "SYSTEM( )+\"(http|ftp)"),
            ("xpath-inject", "(\\[|%5[bB])( )*(1=1|true\\(\\))"),
        ])
        .expect("default rules compile")
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Scan `buf` against every rule (traced); returns names of matching
    /// rules. Every rule streams the payload once — the multi-pass
    /// behaviour of signature engines without a combined automaton.
    pub fn scan<P: Probe>(&self, buf: TBuf<'_>, p: &mut P) -> Vec<&'static str> {
        let mut hits = Vec::new();
        for rule in &self.rules {
            // The engine's input fetch: one load per 8 scanned bytes.
            p.stream_read(
                buf.addr(0),
                u32::try_from(buf.len()).expect("scanned messages are KiB-sized"),
            );
            if rule.pattern.find(buf.raw(), p).is_some() {
                hits.push(rule.name);
            }
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aon_trace::{NullProbe, RegionSlot, Tracer};

    fn scan(bytes: &[u8]) -> Vec<&'static str> {
        RuleSet::default_rules().scan(TBuf::new(bytes, RegionSlot::MSG), &mut NullProbe)
    }

    #[test]
    fn clean_messages_pass() {
        let corpus = crate::corpus::Corpus::generate(42, 4);
        for v in &corpus.variants {
            assert!(scan(&v.http).is_empty(), "corpus traffic is benign");
        }
    }

    #[test]
    fn signatures_fire() {
        assert_eq!(scan(b"x' or 1=1"), vec!["sql-injection"]);
        assert_eq!(scan(b"GET /../../etc/passwd"), vec!["path-traversal"]);
        assert_eq!(scan(b"<script>alert(1)</script>"), vec!["script-inject"]);
        assert_eq!(scan(b"a=b%00c"), vec!["null-byte"]);
        assert_eq!(scan(b"<!DOCTYPE a SYSTEM \"http://evil/dtd\">"), vec!["external-dtd"]);
        assert_eq!(scan(b"<x><x><x><x><x><x><x><x>deep"), vec!["oversize-depth"]);
    }

    #[test]
    fn multiple_hits_reported() {
        let hits = scan(b"'%20or%20x ; rm -rf %00");
        assert!(hits.contains(&"null-byte"));
        assert!(hits.len() >= 2, "{hits:?}");
    }

    #[test]
    fn scanning_is_traced() {
        let rules = RuleSet::default_rules();
        let mut t = Tracer::new();
        let body = vec![b'a'; 2048];
        rules.scan(TBuf::new(&body, RegionSlot::MSG), &mut t);
        let s = t.finish().stats();
        // One input pass per rule at minimum.
        assert!(
            usize::try_from(s.loads).expect("load count fits usize") >= rules.len() * (2048 / 8)
        );
        assert!(s.ops > 10_000, "NFA simulation is the work: {}", s.ops);
    }
}
