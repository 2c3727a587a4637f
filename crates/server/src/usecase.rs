//! Per-message compute traces for the three use cases.
//!
//! Each function *runs the real engines* — HTTP parser, XML parser, XPath
//! evaluator, schema validator, TCP transmit path, connection overhead —
//! on the actual message bytes of a corpus variant, under a tracer. The
//! result is the exact abstract-op stream a worker replays per message of
//! that variant.
//!
//! Per-message pipeline (matching the paper's server):
//!
//! 1. softirq receive processing of the DMA'd message (headers);
//! 2. TCP receive copy into the worker's buffer;
//! 3. connection/kernel per-request work ([`crate::overhead`]);
//! 4. HTTP request parse;
//! 5. use-case content processing (none / XPath / validation);
//! 6. response-head build + TCP transmit of the forwarded message.

use crate::corpus::{Corpus, Variant};
use crate::http;
use crate::overhead::emit_request_overhead;
use aon_net::tcpcost::{emit_rx, emit_softirq_rx, emit_tx};
use aon_trace::{Probe, Trace, Tracer};
use aon_xml::input::TBuf;
use aon_xml::parser::parse_document;
use aon_xml::soap::payload_root;
use aon_xml::xpath::XPath;

/// The three workloads of the paper's Figure 3 / Tables 4–6, plus the two
/// future-work operations of §6 (deep packet inspection and crypto).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UseCase {
    /// HTTP Forward Request — proxying only.
    Fr,
    /// Content Based Routing — XPath over the message.
    Cbr,
    /// Schema Validation.
    Sv,
    /// Deep packet inspection: signature scan over the raw message
    /// (extension; paper §6 future work).
    Dpi,
    /// Message authentication: HMAC-SHA1 over the SOAP body (extension;
    /// paper §6 future work).
    Crypto,
}

impl UseCase {
    /// The paper's three, in its network-I/O → CPU-intensive order.
    pub const ALL: [UseCase; 3] = [UseCase::Fr, UseCase::Cbr, UseCase::Sv];

    /// All five, including the future-work extensions.
    pub const EXTENDED: [UseCase; 5] =
        [UseCase::Fr, UseCase::Cbr, UseCase::Sv, UseCase::Dpi, UseCase::Crypto];

    /// The paper's label.
    pub fn label(&self) -> &'static str {
        match self {
            UseCase::Fr => "FR",
            UseCase::Cbr => "CBR",
            UseCase::Sv => "SV",
            UseCase::Dpi => "DPI",
            UseCase::Crypto => "CRYPTO",
        }
    }
}

impl core::fmt::Display for UseCase {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// The paper's CBR expression.
pub const CBR_XPATH: &str = "//quantity/text()";
/// The value CBR routes on.
pub const CBR_EXPECT: &[u8] = b"1";

/// Record the complete per-message trace of `use_case` for one variant:
/// its phase segments ([`record_message_segments`]) end to end.
///
/// `seed` individualizes the kernel-overhead scatter (pass the variant
/// index).
pub fn record_message_trace(
    use_case: UseCase,
    corpus: &Corpus,
    variant: &Variant,
    seed: u32,
) -> Trace {
    let mut t = Trace::with_label(format!("{}:v{seed}", use_case.label()));
    for seg in record_message_segments(use_case, corpus, variant, seed) {
        t.extend_from(&seg);
    }
    t
}

/// Record the per-message work as separately labelled phase traces — the
/// unit the server workers replay, and the granularity of the machine's
/// sampling profile (softirq vs. TCP copies vs. connection overhead vs.
/// content processing).
pub fn record_message_segments(
    use_case: UseCase,
    corpus: &Corpus,
    variant: &Variant,
    seed: u32,
) -> Vec<Trace> {
    let msg_len = u32::try_from(variant.http.len()).expect("HTTP messages are KiB-sized");
    let mut segs = Vec::with_capacity(5);

    let mut t = Tracer::with_label("kernel:softirq-rx");
    emit_softirq_rx(msg_len, &mut t);
    segs.push(t.finish());

    let mut t = Tracer::with_label("kernel:tcp-rx");
    emit_rx(msg_len, &mut t);
    segs.push(t.finish());

    let mut t = Tracer::with_label("kernel:conn-overhead");
    emit_request_overhead(msg_len, seed, &mut t);
    segs.push(t.finish());

    let mut t = Tracer::with_label(format!("app:{}", use_case.label()));
    emit_content_phase(use_case, corpus, variant, &mut t);
    segs.push(t.finish());

    let mut t = Tracer::with_label("kernel:tcp-tx");
    emit_tx(msg_len, &mut t);
    segs.push(t.finish());

    segs
}

/// The application-level phase: HTTP parse, content processing, response
/// head. Returns whether the message routes to the destination endpoint.
pub fn emit_content_phase<P: Probe>(
    use_case: UseCase,
    corpus: &Corpus,
    variant: &Variant,
    p: &mut P,
) -> bool {
    // HTTP parse on the worker's message buffer (MSG slot). The body is
    // taken through the bounds-checked accessor: a Content-Length larger
    // than the bytes on hand is Truncated, never a short read.
    let buf = TBuf::msg(&variant.http);
    let req = http::parse_request(buf, p).expect("corpus messages are valid HTTP");
    let body_span = req.body_span(buf.len()).expect("corpus messages carry complete bodies");
    let body = buf.slice(body_span.start, body_span.end);

    // 5. content processing. CBR and SV start with the device's encoding
    // check (UTF-8 well-formedness) before handing bytes to the XML stack.
    let routed_ok = match use_case {
        UseCase::Fr => true,
        UseCase::Cbr => {
            aon_xml::utf8::validate_utf8(body, p).expect("corpus bodies are UTF-8");
            let doc = parse_document(body, p).expect("corpus bodies are well-formed");
            let xp = XPath::compile(CBR_XPATH).expect("static expression compiles");
            xp.string_equals(&doc, CBR_EXPECT, p).expect("document has a root")
        }
        UseCase::Dpi => {
            // Signature scan over the full raw message (headers included —
            // attacks hide in both layers).
            crate::dpi::RuleSet::default_rules().scan(buf, p).is_empty()
        }
        UseCase::Crypto => {
            // WS-Security-style authentication: HMAC-SHA1 over the SOAP
            // body with the device key.
            let digest = crate::crypto::hmac_sha1_traced(
                b"aon-device-shared-key",
                buf.span(body_span.start, body_span.end),
                u32::try_from(req.body_start).expect("bodies start within a KiB-sized head"),
                p,
            );
            // Constant-time-style tag compare against the (synthetic)
            // message tag.
            p.alu(20);
            digest[0] != 0xFF // effectively always authentic
        }
        UseCase::Sv => {
            aon_xml::utf8::validate_utf8(body, p).expect("corpus bodies are UTF-8");
            let doc = parse_document(body, p).expect("corpus bodies are well-formed");
            let payload = payload_root(&doc, p).expect("corpus bodies are SOAP");
            let valid = corpus.schema.validate_node(&doc, payload, p).is_valid();
            // Valid messages are re-emitted canonicalized with an integrity
            // digest (the device forwards its own serialization and stamps
            // it, not the raw input).
            if valid {
                let mut out = Vec::with_capacity(variant.http.len());
                aon_xml::serialize::serialize_node(&doc, payload, &mut out, p);
                digest_bytes(&out, p);
            }
            valid
        }
    };

    // Sanity: trace recording must agree with the corpus flags.
    match use_case {
        UseCase::Cbr => debug_assert_eq!(routed_ok, variant.cbr_match),
        UseCase::Sv => debug_assert_eq!(routed_ok, variant.sv_valid),
        _ => {}
    }

    // Response head.
    let _head = http::build_response(if routed_ok { 200 } else { 422 }, 0, p);
    routed_ok
}

/// Rolling integrity digest over the canonicalized output (an FNV-style
/// word-at-a-time mix — the real device stamps forwarded messages). The
/// returned value keeps the computation honest.
fn digest_bytes<P: Probe>(bytes: &[u8], p: &mut P) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut i = 0;
    while i < bytes.len() {
        let end = (i + 8).min(bytes.len());
        let mut word = [0u8; 8];
        word[..end - i].copy_from_slice(&bytes[i..end]);
        // The canonical bytes were just stored to OUT; the digest re-reads
        // them (warm) and mixes.
        let off = u32::try_from(i).expect("canonical output is KiB-sized");
        p.load(aon_trace::Addr::new(aon_trace::RegionSlot::OUT, off), 8);
        p.alu(4);
        h ^= u64::from_le_bytes(word);
        h = h.wrapping_mul(0x1000_0000_01b3);
        i = end;
    }
    h
}

/// Per-variant seed: corpora hold a handful of variants, so the index
/// narrows exactly.
fn seed_of(i: usize) -> u32 {
    u32::try_from(i).expect("variant count fits u32")
}

/// Record phase segments for every variant of a corpus.
pub fn record_all_variant_segments(use_case: UseCase, corpus: &Corpus) -> Vec<Vec<Trace>> {
    corpus
        .variants
        .iter()
        .enumerate()
        .map(|(i, v)| record_message_segments(use_case, corpus, v, seed_of(i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aon_trace::mix::Mix;

    fn corpus() -> Corpus {
        Corpus::generate(42, 4)
    }

    #[test]
    fn work_grows_from_fr_to_sv() {
        let c = corpus();
        let v = &c.variants[0];
        let fr = record_message_trace(UseCase::Fr, &c, v, 0).stats().ops;
        let cbr = record_message_trace(UseCase::Cbr, &c, v, 0).stats().ops;
        let sv = record_message_trace(UseCase::Sv, &c, v, 0).stats().ops;
        assert!(cbr > fr + 5_000, "CBR adds XML parsing: {fr} -> {cbr}");
        assert!(sv > cbr, "SV adds validation: {cbr} -> {sv}");
    }

    #[test]
    fn traces_are_deterministic() {
        let c = corpus();
        let v = &c.variants[1];
        let a = record_message_trace(UseCase::Cbr, &c, v, 1);
        let b = record_message_trace(UseCase::Cbr, &c, v, 1);
        assert_eq!(a.ops(), b.ops());
    }

    #[test]
    fn variants_have_distinct_traces() {
        let c = corpus();
        let a = record_message_trace(UseCase::Sv, &c, &c.variants[0], 0);
        let b = record_message_trace(UseCase::Sv, &c, &c.variants[1], 1);
        assert_ne!(a.stats().ops, b.stats().ops);
    }

    #[test]
    fn mixes_match_workload_character() {
        let c = corpus();
        let v = &c.variants[0];
        let fr = Mix::of(&record_message_trace(UseCase::Fr, &c, v, 0));
        let sv = Mix::of(&record_message_trace(UseCase::Sv, &c, v, 0));
        // All use cases are branch-rich string/pointer code, no FP.
        assert!(fr.branch > 0.15, "FR mix: {fr}");
        assert!(sv.branch > 0.18, "SV mix: {sv}");
        // SV does proportionally more compute per byte moved.
        assert!(
            sv.total_ops > fr.total_ops,
            "SV must out-compute FR: {} vs {}",
            sv.total_ops,
            fr.total_ops
        );
    }

    #[test]
    fn record_all_variant_segments_covers_corpus() {
        let c = corpus();
        let traces = record_all_variant_segments(UseCase::Cbr, &c);
        assert_eq!(traces.len(), c.len());
        assert!(traces.iter().all(|segs| segs.len() == 5), "five phases per message");
    }

    #[test]
    fn cbr_and_sv_flags_agree_with_engines() {
        // The debug_asserts in emit_content_phase run the real engines and
        // compare against the corpus flags; exercising all variants with a
        // tracer covers that agreement.
        let c = Corpus::generate(1234, 8);
        for u in UseCase::ALL {
            let _ = record_all_variant_segments(u, &c);
        }
    }
}
