//! Native use-case engine: the AON content-processing pipeline as an
//! ordinary library call, reusable **without a tracer**.
//!
//! [`crate::usecase`] records the paper's workloads by running the engines
//! under a [`aon_trace::Tracer`] and `expect`ing success — correct there,
//! because the corpus is valid by construction. The live serving path
//! ([`aon-serve`](https://docs.rs/aon-serve)) faces arbitrary network
//! input, so it needs the same engines behind fallible entry points: a
//! malformed body is a routing outcome (HTTP 422), never a panic.
//!
//! The [`Engine`] pre-compiles everything a deployment compiles once — the
//! validation schema, the CBR XPath, the DPI rule set — and exposes
//! [`Engine::process`], generic over [`Probe`] so the identical code path
//! serves natively (with [`NullProbe`], zero tracing overhead) or traced.

use crate::corpus::CORPUS_XSD;
use crate::dpi::RuleSet;
use crate::usecase::{UseCase, CBR_EXPECT, CBR_XPATH};
use aon_obs::stage::{NoopStages, Stage, StageRecorder};
use aon_trace::{NullProbe, Probe};
use aon_xml::input::TBuf;
use aon_xml::parser::parse_document;
use aon_xml::schema::{Schema, SchemaAutomaton};
use aon_xml::soap::payload_root;
use aon_xml::xpath::{CompiledPath, XPath};
use std::sync::Arc;

/// Which parser implementation the live serving path runs.
///
/// Both modes produce identical routing verdicts (the differential suites
/// in `aon-xml` pin this); they differ only in how many instructions the
/// host spends getting there. The traced simulation path always uses the
/// scalar engines — this knob exists so live throughput can be A/B
/// measured against the same server build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParseMode {
    /// Byte-at-a-time engines: eager DOM, interpreted XPath, interpreted
    /// content models. The counter-reference twin of the traced path.
    Scalar,
    /// One SWAR-scanned event pass with the compiled XPath pattern or the
    /// compiled content-model DFAs as its handler; no tree is built. Falls
    /// back to the `Scalar` engines when the CBR expression is outside the
    /// compilable subset.
    #[default]
    Fast,
}

impl ParseMode {
    /// Parse a CLI/config token (`"scalar"` | `"fast"`).
    pub fn from_str_opt(s: &str) -> Option<ParseMode> {
        match s {
            "scalar" => Some(ParseMode::Scalar),
            "fast" => Some(ParseMode::Fast),
            _ => None,
        }
    }

    /// Stable label for reports and metrics.
    pub fn label(self) -> &'static str {
        match self {
            ParseMode::Scalar => "scalar",
            ParseMode::Fast => "fast",
        }
    }
}

/// Why a message body could not be processed (all map to HTTP 422 at the
/// serving layer: the HTTP envelope was fine, the content was not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// The body is not well-formed UTF-8.
    BadUtf8,
    /// The body is not well-formed XML.
    BadXml,
    /// The body parses but is not a SOAP envelope with a payload.
    NotSoap,
}

impl core::fmt::Display for EngineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            EngineError::BadUtf8 => "body is not valid UTF-8",
            EngineError::BadXml => "body is not well-formed XML",
            EngineError::NotSoap => "body is not a SOAP envelope",
        })
    }
}

/// The pre-compiled per-deployment state: schema, XPath, DPI signatures,
/// authentication key. One per server; shared read-only across workers.
#[derive(Debug)]
pub struct Engine {
    schema: Schema,
    cbr: XPath,
    dpi: RuleSet,
    key: &'static [u8],
    /// CBR expression compiled to a streaming byte pattern; `None` when
    /// the expression is outside the streamable subset (DOM fallback).
    cbr_fast: Option<Arc<CompiledPath>>,
    /// Content models of the schema compiled to DFAs (with per-model
    /// greedy fallback inside), shared read-only across workers.
    schema_fast: Arc<SchemaAutomaton>,
}

impl Engine {
    /// Compile the device configuration (the corpus XSD, the paper's CBR
    /// expression, the default DPI rules). Inputs are static, so
    /// compilation cannot fail. The fast-path automata are compiled here
    /// too — once per rule table, never per message.
    pub fn new() -> Engine {
        let schema = Schema::compile(CORPUS_XSD).expect("corpus schema is static and compiles");
        let cbr = XPath::compile(CBR_XPATH).expect("CBR expression is static and compiles");
        let cbr_fast = CompiledPath::compile(&cbr).map(Arc::new);
        let schema_fast = Arc::new(SchemaAutomaton::compile(&schema));
        Engine {
            schema,
            cbr,
            dpi: RuleSet::default_rules(),
            key: b"aon-device-shared-key",
            cbr_fast,
            schema_fast,
        }
    }

    /// Is the CBR expression running as a compiled pattern (vs. DOM
    /// fallback)? Reported in live bench metadata.
    pub fn cbr_compiled(&self) -> bool {
        self.cbr_fast.is_some()
    }

    /// How many content models compiled to DFAs (the rest use the greedy
    /// interpreter). Reported in live bench metadata.
    pub fn schema_dfa_count(&self) -> usize {
        self.schema_fast.dfa_count()
    }

    /// Process one message body under `use_case`, emitting work onto `p`.
    ///
    /// `Ok(true)` — the message routes to the destination endpoint
    /// (HTTP 200); `Ok(false)` — it routes to the error/default endpoint
    /// (HTTP 422); `Err` — the content could not be processed at all
    /// (also HTTP 422, with the reason counted separately).
    pub fn process<P: Probe>(
        &self,
        use_case: UseCase,
        body: TBuf<'_>,
        p: &mut P,
    ) -> Result<bool, EngineError> {
        self.process_staged(use_case, body, p, &mut NoopStages)
    }

    /// [`Engine::process`] with per-stage span timing: each pipeline
    /// phase (parse, XPath, validate, DPI, crypto) runs inside a
    /// [`StageRecorder::time`] span, so the live server can aggregate
    /// per-(use case × stage) cost the way the paper decomposes service
    /// time by phase. With [`NoopStages`] this *is* the untimed
    /// pipeline — the recorder monomorphizes away, no clock is read.
    pub fn process_staged<P: Probe, R: StageRecorder>(
        &self,
        use_case: UseCase,
        body: TBuf<'_>,
        p: &mut P,
        rec: &mut R,
    ) -> Result<bool, EngineError> {
        match use_case {
            UseCase::Fr => Ok(true),
            UseCase::Cbr => {
                let doc = rec.time(Stage::Parse, || {
                    aon_xml::utf8::validate_utf8(body, p).ok_or(EngineError::BadUtf8)?;
                    parse_document(body, p).map_err(|_| EngineError::BadXml)
                })?;
                rec.time(Stage::XPath, || {
                    self.cbr.string_equals(&doc, CBR_EXPECT, p).map_err(|_| EngineError::BadXml)
                })
            }
            UseCase::Sv => {
                let doc = rec.time(Stage::Parse, || {
                    aon_xml::utf8::validate_utf8(body, p).ok_or(EngineError::BadUtf8)?;
                    parse_document(body, p).map_err(|_| EngineError::BadXml)
                })?;
                rec.time(Stage::Validate, || {
                    let payload = payload_root(&doc, p).map_err(|_| EngineError::NotSoap)?;
                    Ok(self.schema.validate_node(&doc, payload, p).is_valid())
                })
            }
            UseCase::Dpi => rec.time(Stage::Dpi, || Ok(self.dpi.scan(body, p).is_empty())),
            UseCase::Crypto => rec.time(Stage::Crypto, || {
                let digest = crate::crypto::hmac_sha1_traced(self.key, body.raw(), 0, p);
                p.alu(20);
                Ok(digest[0] != 0xFF)
            }),
        }
    }

    /// [`Engine::process`] with no tracing — the live serving fast path.
    pub fn process_native(&self, use_case: UseCase, body: &[u8]) -> Result<bool, EngineError> {
        self.process(use_case, TBuf::msg(body), &mut NullProbe)
    }

    /// [`Engine::process_native`] with wall-clock stage timing — the
    /// live serving path when observability is enabled.
    pub fn process_native_staged<R: StageRecorder>(
        &self,
        use_case: UseCase,
        body: &[u8],
        rec: &mut R,
    ) -> Result<bool, EngineError> {
        self.process_staged(use_case, TBuf::msg(body), &mut NullProbe, rec)
    }

    /// Dispatch on [`ParseMode`]: the live worker's single entry point.
    pub fn process_mode_staged<R: StageRecorder>(
        &self,
        mode: ParseMode,
        use_case: UseCase,
        body: &[u8],
        rec: &mut R,
    ) -> Result<bool, EngineError> {
        match mode {
            ParseMode::Scalar => self.process_native_staged(use_case, body, rec),
            ParseMode::Fast => self.process_fast_staged(use_case, body, rec),
        }
    }

    /// The fast serving path: one event pass over the body
    /// ([`aon_xml::events`]) with the compiled program as its handler —
    /// [`CompiledPath`] for CBR, [`SchemaAutomaton`] for SV — so the
    /// verdict is ready when tokenising ends and nothing is built.
    /// Untraced by construction — the traced counter tables only ever see
    /// the scalar engines.
    ///
    /// The fused pass is timed under [`Stage::Parse`]: it is the
    /// tokenising loop, the handler's work is inlined into it, and a clock
    /// read per event would cost more than the event. [`Stage::XPath`] /
    /// [`Stage::Validate`] time what is left of the executor afterwards,
    /// reading its verdict.
    ///
    /// Verdicts and [`EngineError`] classifications are identical to
    /// [`Engine::process_native_staged`]:
    /// * UTF-8 — `std::str::from_utf8` agrees with the traced validator
    ///   (pinned by `aon_xml::utf8::tests::agrees_with_std`);
    /// * well-formedness — the event pass fails exactly where the traced
    ///   parser fails (differentially pinned, kind and offset), and a
    ///   malformed body is `BadXml` whatever the executor saw before the
    ///   fault;
    /// * XPath / validation — [`CompiledPath`] and [`SchemaAutomaton`]
    ///   only compile rules they can prove equivalent, and fall back to
    ///   the scalar engines otherwise.
    pub fn process_fast_staged<R: StageRecorder>(
        &self,
        use_case: UseCase,
        body: &[u8],
        rec: &mut R,
    ) -> Result<bool, EngineError> {
        fn checked(body: &[u8]) -> Result<&[u8], EngineError> {
            std::str::from_utf8(body).map(|_| body).map_err(|_| EngineError::BadUtf8)
        }
        match use_case {
            UseCase::Cbr => {
                let Some(cbr_fast) = &self.cbr_fast else {
                    // Expression outside the streamable subset: whole-path
                    // DOM fallback.
                    return self.process_native_staged(use_case, body, rec);
                };
                let matched = rec.time(Stage::Parse, || {
                    cbr_fast
                        .string_equals(checked(body)?, CBR_EXPECT)
                        .map_err(|_| EngineError::BadXml)
                })?;
                rec.time(Stage::XPath, || Ok(matched))
            }
            UseCase::Sv => {
                let payload = rec.time(Stage::Parse, || {
                    self.schema_fast
                        .validate_soap_payload(checked(body)?)
                        .map_err(|_| EngineError::BadXml)
                })?;
                rec.time(Stage::Validate, || payload.ok_or(EngineError::NotSoap))
            }
            // FR touches no content; DPI and crypto are not parse-bound
            // and share one implementation with the scalar path.
            UseCase::Fr | UseCase::Dpi | UseCase::Crypto => {
                self.process_native_staged(use_case, body, rec)
            }
        }
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;

    #[test]
    fn engine_agrees_with_corpus_flags() {
        let engine = Engine::new();
        let corpus = Corpus::generate(42, 8);
        for v in &corpus.variants {
            let body = &v.http[v.body_start..];
            assert_eq!(engine.process_native(UseCase::Fr, body), Ok(true));
            assert_eq!(engine.process_native(UseCase::Cbr, body), Ok(v.cbr_match));
            assert_eq!(engine.process_native(UseCase::Sv, body), Ok(v.sv_valid));
        }
    }

    #[test]
    fn engine_rejects_garbage_instead_of_panicking() {
        let engine = Engine::new();
        for bad in [&b"\xff\xfe\x00"[..], b"<unclosed", b"not xml at all", b""] {
            assert!(engine.process_native(UseCase::Cbr, bad).is_err(), "CBR must error");
            assert!(engine.process_native(UseCase::Sv, bad).is_err(), "SV must error");
            // FR never looks at the body.
            assert_eq!(engine.process_native(UseCase::Fr, bad), Ok(true));
        }
    }

    #[test]
    fn non_soap_xml_is_rejected_by_sv() {
        let engine = Engine::new();
        assert_eq!(engine.process_native(UseCase::Sv, b"<notsoap/>"), Err(EngineError::NotSoap));
    }

    #[test]
    fn staged_processing_times_the_right_stages() {
        use aon_obs::stage::WallStages;
        let engine = Engine::new();
        let corpus = Corpus::generate(42, 2);
        let body = &corpus.variants[0].http[corpus.variants[0].body_start..];

        let mut fr = WallStages::new();
        assert_eq!(engine.process_native_staged(UseCase::Fr, body, &mut fr), Ok(true));
        assert_eq!(fr.total(), 0, "FR touches no pipeline stage");

        let mut cbr = WallStages::new();
        engine.process_native_staged(UseCase::Cbr, body, &mut cbr).expect("corpus body");
        assert!(cbr.get(Stage::Parse) > 0, "CBR must record parse time");
        assert!(cbr.get(Stage::XPath) > 0, "CBR must record xpath time");
        assert_eq!(cbr.get(Stage::Validate), 0);

        let mut sv = WallStages::new();
        engine.process_native_staged(UseCase::Sv, body, &mut sv).expect("corpus body");
        assert!(sv.get(Stage::Parse) > 0 && sv.get(Stage::Validate) > 0);
        assert_eq!(sv.get(Stage::XPath), 0);

        let mut dpi = WallStages::new();
        engine.process_native_staged(UseCase::Dpi, body, &mut dpi).expect("corpus body");
        assert!(dpi.get(Stage::Dpi) > 0);

        let mut crypto = WallStages::new();
        engine.process_native_staged(UseCase::Crypto, body, &mut crypto).expect("corpus body");
        assert!(crypto.get(Stage::Crypto) > 0);
    }

    #[test]
    fn staged_and_plain_processing_agree() {
        use aon_obs::stage::WallStages;
        let engine = Engine::new();
        let corpus = Corpus::generate(11, 4);
        for v in &corpus.variants {
            let body = &v.http[v.body_start..];
            for uc in UseCase::EXTENDED {
                let mut w = WallStages::new();
                assert_eq!(
                    engine.process_native_staged(uc, body, &mut w),
                    engine.process_native(uc, body),
                    "{uc:?} staged result must match the untimed path"
                );
            }
        }
    }

    #[test]
    fn fast_path_compiles_for_the_corpus_rules() {
        let engine = Engine::new();
        assert!(engine.cbr_compiled(), "//quantity/text() is streamable");
        assert!(engine.schema_dfa_count() > 0, "corpus content models are 1-unambiguous");
    }

    /// Fast and scalar must give the same verdict or the same error class
    /// for the parse-bound use cases.
    fn assert_fast_matches_scalar(engine: &Engine, body: &[u8]) {
        for uc in [UseCase::Cbr, UseCase::Sv] {
            assert_eq!(
                engine.process_fast_staged(uc, body, &mut NoopStages),
                engine.process_native(uc, body),
                "{uc:?} fast/scalar divergence on {:?}",
                String::from_utf8_lossy(body)
            );
        }
    }

    #[test]
    fn fast_and_scalar_agree_on_corpus() {
        let engine = Engine::new();
        for (size, variants) in [(1024, 8), (5 * 1024, 16), (64 * 1024, 4)] {
            let corpus = Corpus::generate_sized(1234, variants, size);
            for v in &corpus.variants {
                let body = &v.http[v.body_start..];
                assert_fast_matches_scalar(&engine, body);
                // The use cases that share one implementation: the paper's
                // message size is enough.
                for uc in [UseCase::Fr, UseCase::Dpi, UseCase::Crypto] {
                    if size == 5 * 1024 {
                        let fast = engine.process_fast_staged(uc, body, &mut NoopStages);
                        assert_eq!(fast, engine.process_native(uc, body), "{uc:?} divergence");
                    }
                }
                assert_eq!(
                    engine.process_fast_staged(UseCase::Cbr, body, &mut NoopStages),
                    Ok(v.cbr_match)
                );
                assert_eq!(
                    engine.process_fast_staged(UseCase::Sv, body, &mut NoopStages),
                    Ok(v.sv_valid)
                );
            }
        }
    }

    #[test]
    fn fast_and_scalar_agree_on_garbage() {
        let engine = Engine::new();
        let cases: &[&[u8]] = &[
            b"\xff\xfe\x00",
            b"<unclosed",
            b"not xml at all",
            b"",
            b"<notsoap/>",
            b"<soap:Envelope><soap:Header/></soap:Envelope>",
            b"<soap:Envelope><soap:Body></soap:Body></soap:Envelope>",
            b"<soap:Envelope><soap:Body><wrongroot/></soap:Body></soap:Envelope>",
            b"<a>\xc3\x28</a>",
            b"<a><b></a></b>",
            // Bad UTF-8 outranks bad XML, wherever each sits.
            b"<a><b></a>\xff",
            b"\xff<a><b></a>",
        ];
        for bad in cases {
            for uc in UseCase::EXTENDED {
                assert_eq!(
                    engine.process_fast_staged(uc, bad, &mut NoopStages),
                    engine.process_native(uc, bad),
                    "{uc:?} fast/scalar divergence on {bad:?}"
                );
            }
        }
    }

    #[test]
    fn a_verdict_reached_early_does_not_excuse_a_malformed_tail() {
        let engine = Engine::new();
        // CBR matches at the first <quantity>; SV finds its payload, and a
        // violation in it, long before the fault.
        let matched = b"<soap:Envelope><soap:Body><purchaseOrder><quantity>1</quantity>";
        assert_eq!(
            engine.process_fast_staged(
                UseCase::Cbr,
                &[&matched[..], b"</purchaseOrder></soap:Body></soap:Envelope>"].concat(),
                &mut NoopStages
            ),
            Ok(true)
        );
        for tail in [
            &b"<unclosed"[..],
            b"</purchaseOrder></soap:Body></soap:Envelope><extra/>",
            b"</purchaseOrder></soap:Body></soap:Wrong>",
            b"&nope;</purchaseOrder></soap:Body></soap:Envelope>",
        ] {
            let body = [&matched[..], tail].concat();
            assert_fast_matches_scalar(&engine, &body);
            for uc in [UseCase::Cbr, UseCase::Sv] {
                assert_eq!(
                    engine.process_fast_staged(uc, &body, &mut NoopStages),
                    Err(EngineError::BadXml),
                    "{uc:?} on {:?}",
                    String::from_utf8_lossy(tail)
                );
            }
        }
        // A malformed envelope is BadXml, not NotSoap, even when the SOAP
        // shape is already known to be wrong.
        assert_eq!(
            engine.process_fast_staged(UseCase::Sv, b"<notsoap><unclosed", &mut NoopStages),
            Err(EngineError::BadXml)
        );
    }

    #[test]
    fn every_prefix_of_a_corpus_message_classifies_as_scalar_does() {
        let engine = Engine::new();
        let corpus = Corpus::generate_sized(77, 1, 1024);
        let body = &corpus.variants[0].http[corpus.variants[0].body_start..];
        // Only whitespace follows the root's closing '>'.
        let complete = body.iter().rposition(|&b| b == b'>').expect("body has markup") + 1;
        for cut in 0..=body.len() {
            assert_fast_matches_scalar(&engine, &body[..cut]);
            assert_eq!(
                engine.process_fast_staged(UseCase::Cbr, &body[..cut], &mut NoopStages).is_ok(),
                cut >= complete,
                "only a complete body may yield a verdict (cut {cut})"
            );
        }
    }

    #[test]
    fn byte_mutations_of_corpus_messages_classify_as_scalar_does() {
        // Deterministic xorshift64*: overwrite, insert or delete 1-3 bytes.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            usize::try_from(state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33).expect("31 bits")
        };
        let engine = Engine::new();
        let corpus = Corpus::generate_sized(78, 4, 1024);
        let mut outcomes = std::collections::BTreeSet::new();
        for v in &corpus.variants {
            let base = &v.http[v.body_start..];
            for _ in 0..150 {
                let mut m = base.to_vec();
                for _ in 0..=next() % 3 {
                    let i = next() % m.len();
                    let byte = u8::try_from(next() % 256).expect("below 256");
                    match next() % 3 {
                        0 => m[i] = byte,
                        1 => m.insert(i, byte),
                        _ => drop(m.remove(i)),
                    }
                }
                assert_fast_matches_scalar(&engine, &m);
                outcomes.insert(format!("{:?}", engine.process_native(UseCase::Sv, &m)));
            }
        }
        // The mutations must reach verdicts and every error class, or the
        // equality above says little.
        for want in ["Ok(true)", "Ok(false)", "Err(BadUtf8)", "Err(BadXml)"] {
            assert!(outcomes.contains(want), "no mutation produced {want}: {outcomes:?}");
        }
    }

    #[test]
    fn mode_dispatch_routes_to_both_paths() {
        use aon_obs::stage::WallStages;
        let engine = Engine::new();
        let corpus = Corpus::generate(5, 2);
        let body = &corpus.variants[0].http[corpus.variants[0].body_start..];
        for mode in [ParseMode::Scalar, ParseMode::Fast] {
            let mut w = WallStages::new();
            let got = engine.process_mode_staged(mode, UseCase::Sv, body, &mut w);
            assert_eq!(got, Ok(corpus.variants[0].sv_valid), "{mode:?}");
            assert!(w.get(Stage::Parse) > 0 && w.get(Stage::Validate) > 0, "{mode:?} stages");
        }
        assert_eq!(ParseMode::from_str_opt("fast"), Some(ParseMode::Fast));
        assert_eq!(ParseMode::from_str_opt("scalar"), Some(ParseMode::Scalar));
        assert_eq!(ParseMode::from_str_opt("turbo"), None);
        assert_eq!(ParseMode::default(), ParseMode::Fast);
    }

    #[test]
    fn extension_use_cases_run_natively() {
        let engine = Engine::new();
        let corpus = Corpus::generate(7, 2);
        let body = &corpus.variants[0].http[corpus.variants[0].body_start..];
        assert!(engine.process_native(UseCase::Dpi, body).is_ok());
        assert!(engine.process_native(UseCase::Crypto, body).is_ok());
    }
}
