//! Native use-case engine: the AON content-processing pipeline as an
//! ordinary library call, reusable **without a tracer**.
//!
//! [`crate::usecase`] records the paper's workloads by running the engines
//! under a [`aon_trace::Tracer`] and `expect`ing success — correct there,
//! because the corpus is valid by construction. The live serving path
//! ([`aon-serve`](https://docs.rs/aon-serve)) faces arbitrary network
//! input, so it needs the same engines behind a fallible entry point: a
//! malformed body is a routing outcome (HTTP 422), never a panic.
//!
//! The [`Engine`] pre-compiles everything a deployment compiles once — the
//! validation schema, the CBR XPath, the DPI rule set — and exposes one
//! processing entry, [`Engine::process_mode_staged`]. [`ParseMode`] and the
//! `_mode_staged` name remain only because `benchmark/src/layers.rs` pins
//! them; a later `benchmark/` PR renames the entry and retires the enum
//! together with the `aon_xml::lazy` alias.

use crate::corpus::CORPUS_XSD;
use crate::dpi::RuleSet;
use crate::usecase::{UseCase, CBR_EXPECT, CBR_XPATH};
use aon_obs::stage::{Stage, StageRecorder};
use aon_trace::NullProbe;
use aon_xml::dom::Document;
use aon_xml::input::TBuf;
use aon_xml::parser::parse_document;
use aon_xml::schema::{Schema, SchemaAutomaton};
use aon_xml::soap::payload_root;
use aon_xml::xpath::{CompiledPath, XPath};
use std::sync::Arc;

/// Which engines [`Engine::process_mode_staged`] runs. The server only ever
/// passes [`ParseMode::Fast`]; [`ParseMode::Scalar`] is the reference the
/// tests compare it against. Both produce identical verdicts and error
/// classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseMode {
    /// Byte-at-a-time engines: eager DOM, interpreted XPath, interpreted
    /// content models — the code the traced simulation path records.
    Scalar,
    /// One SWAR-scanned event pass with the compiled XPath pattern or the
    /// compiled content-model DFAs as its handler; no tree is built.
    Fast,
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
    /// CBR expression compiled to a streaming byte pattern.
    cbr_fast: Arc<CompiledPath>,
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
        let cbr_fast =
            CompiledPath::compile(&cbr).expect("CBR expression is static and streamable");
        let schema_fast = Arc::new(SchemaAutomaton::compile(&schema));
        Engine {
            schema,
            cbr,
            dpi: RuleSet::default_rules(),
            key: b"aon-device-shared-key",
            cbr_fast: Arc::new(cbr_fast),
            schema_fast,
        }
    }

    /// Process one message body under `use_case`.
    ///
    /// `Ok(true)` — the message routes to the destination endpoint
    /// (HTTP 200); `Ok(false)` — it routes to the error/default endpoint
    /// (HTTP 422); `Err` — the content could not be processed at all
    /// (also HTTP 422, with the reason counted separately).
    ///
    /// Each pipeline phase (parse, XPath, validate, DPI, crypto) runs
    /// inside a [`StageRecorder::time`] span, so the live server can
    /// aggregate per-(use case × stage) cost the way the paper decomposes
    /// service time by phase. With [`aon_obs::stage::NoopStages`] this *is*
    /// the untimed pipeline — the recorder monomorphizes away, no clock is
    /// read.
    ///
    /// FR touches no content; DPI and crypto are not parse-bound and have
    /// one implementation. For CBR and SV, `mode` picks the engines:
    ///
    /// * [`ParseMode::Fast`] — one event pass over the body
    ///   ([`aon_xml::events`]) with the compiled program as its handler —
    ///   [`CompiledPath`] for CBR, [`SchemaAutomaton`] for SV — so the
    ///   verdict is ready when tokenising ends and nothing is built. The
    ///   fused pass is timed under [`Stage::Parse`]: it is the tokenising
    ///   loop, the handler's work is inlined into it, and a clock read per
    ///   event would cost more than the event. [`Stage::XPath`] /
    ///   [`Stage::Validate`] time what is left of the executor afterwards,
    ///   reading its verdict.
    /// * [`ParseMode::Scalar`] — eager DOM, then the interpreted XPath or
    ///   content models over it.
    ///
    /// Verdicts and [`EngineError`] classifications are identical:
    /// * UTF-8 — `std::str::from_utf8` agrees with the traced validator
    ///   (pinned by `aon_xml::utf8::tests::agrees_with_std`);
    /// * well-formedness — the event pass fails exactly where the traced
    ///   parser fails (differentially pinned, kind and offset), and a
    ///   malformed body is `BadXml` whatever the executor saw before the
    ///   fault;
    /// * XPath / validation — [`CompiledPath`] and [`SchemaAutomaton`]
    ///   only compile rules they can prove equivalent.
    pub fn process_mode_staged<R: StageRecorder>(
        &self,
        mode: ParseMode,
        use_case: UseCase,
        body: &[u8],
        rec: &mut R,
    ) -> Result<bool, EngineError> {
        fn checked(body: &[u8]) -> Result<&[u8], EngineError> {
            std::str::from_utf8(body).map(|_| body).map_err(|_| EngineError::BadUtf8)
        }
        fn parse_scalar<R: StageRecorder>(
            body: &[u8],
            rec: &mut R,
        ) -> Result<Document, EngineError> {
            rec.time(Stage::Parse, || {
                let (body, p) = (TBuf::msg(body), &mut NullProbe);
                aon_xml::utf8::validate_utf8(body, p).ok_or(EngineError::BadUtf8)?;
                parse_document(body, p).map_err(|_| EngineError::BadXml)
            })
        }
        let p = &mut NullProbe;
        match (use_case, mode) {
            (UseCase::Fr, _) => Ok(true),
            (UseCase::Cbr, ParseMode::Fast) => {
                let matched = rec.time(Stage::Parse, || {
                    self.cbr_fast
                        .string_equals(checked(body)?, CBR_EXPECT)
                        .map_err(|_| EngineError::BadXml)
                })?;
                rec.time(Stage::XPath, || Ok(matched))
            }
            (UseCase::Sv, ParseMode::Fast) => {
                let payload = rec.time(Stage::Parse, || {
                    self.schema_fast
                        .validate_soap_payload(checked(body)?)
                        .map_err(|_| EngineError::BadXml)
                })?;
                rec.time(Stage::Validate, || payload.ok_or(EngineError::NotSoap))
            }
            (UseCase::Cbr, ParseMode::Scalar) => {
                let doc = parse_scalar(body, rec)?;
                rec.time(Stage::XPath, || {
                    self.cbr.string_equals(&doc, CBR_EXPECT, p).map_err(|_| EngineError::BadXml)
                })
            }
            (UseCase::Sv, ParseMode::Scalar) => {
                let doc = parse_scalar(body, rec)?;
                rec.time(Stage::Validate, || {
                    let payload = payload_root(&doc, p).map_err(|_| EngineError::NotSoap)?;
                    Ok(self.schema.validate_node(&doc, payload, p).is_valid())
                })
            }
            (UseCase::Dpi, _) => {
                rec.time(Stage::Dpi, || Ok(self.dpi.scan(TBuf::msg(body), p).is_empty()))
            }
            (UseCase::Crypto, _) => rec.time(Stage::Crypto, || {
                Ok(crate::crypto::hmac_sha1_traced(self.key, body, 0, p)[0] != 0xFF)
            }),
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
    use aon_obs::record::Recorder;
    use aon_obs::stage::NoopStages;
    use std::time::Instant;

    /// The timed recorder, no other plane attached.
    fn timed_recorder() -> Recorder<'static> {
        Recorder::new(Instant::now(), false)
    }

    type Verdict = Result<bool, EngineError>;

    /// The engines the server runs.
    fn fast(engine: &Engine, uc: UseCase, body: &[u8]) -> Verdict {
        engine.process_mode_staged(ParseMode::Fast, uc, body, &mut NoopStages)
    }

    /// The reference they are compared against.
    fn scalar(engine: &Engine, uc: UseCase, body: &[u8]) -> Verdict {
        engine.process_mode_staged(ParseMode::Scalar, uc, body, &mut NoopStages)
    }

    #[test]
    fn engine_agrees_with_corpus_flags() {
        let engine = Engine::new();
        let corpus = Corpus::generate(42, 8);
        for v in &corpus.variants {
            let body = &v.http[v.body_start..];
            assert_eq!(scalar(&engine, UseCase::Fr, body), Ok(true));
            assert_eq!(scalar(&engine, UseCase::Cbr, body), Ok(v.cbr_match));
            assert_eq!(scalar(&engine, UseCase::Sv, body), Ok(v.sv_valid));
        }
    }

    #[test]
    fn engine_rejects_garbage_instead_of_panicking() {
        let engine = Engine::new();
        for bad in [&b"\xff\xfe\x00"[..], b"<unclosed", b"not xml at all", b""] {
            assert!(scalar(&engine, UseCase::Cbr, bad).is_err(), "CBR must error");
            assert!(scalar(&engine, UseCase::Sv, bad).is_err(), "SV must error");
            // FR never looks at the body.
            assert_eq!(scalar(&engine, UseCase::Fr, bad), Ok(true));
        }
    }

    #[test]
    fn non_soap_xml_is_rejected_by_sv() {
        let engine = Engine::new();
        assert_eq!(scalar(&engine, UseCase::Sv, b"<notsoap/>"), Err(EngineError::NotSoap));
    }

    #[test]
    fn staged_processing_times_the_right_stages() {
        let engine = Engine::new();
        let corpus = Corpus::generate(42, 2);
        let body = &corpus.variants[0].http[corpus.variants[0].body_start..];

        let timed = |uc| {
            let mut rec = timed_recorder();
            engine.process_mode_staged(ParseMode::Scalar, uc, body, &mut rec).expect("corpus body");
            rec.record().wall_ns
        };
        assert_eq!(timed(UseCase::Fr), [0; 6], "FR touches no pipeline stage");

        let cbr = timed(UseCase::Cbr);
        assert!(cbr[Stage::Parse.index()] > 0, "CBR must record parse time");
        assert!(cbr[Stage::XPath.index()] > 0, "CBR must record xpath time");
        assert_eq!(cbr[Stage::Validate.index()], 0);

        let sv = timed(UseCase::Sv);
        assert!(sv[Stage::Parse.index()] > 0 && sv[Stage::Validate.index()] > 0);
        assert_eq!(sv[Stage::XPath.index()], 0);

        assert!(timed(UseCase::Dpi)[Stage::Dpi.index()] > 0);
        assert!(timed(UseCase::Crypto)[Stage::Crypto.index()] > 0);
    }

    #[test]
    fn staged_and_plain_processing_agree() {
        let engine = Engine::new();
        let corpus = Corpus::generate(11, 4);
        for v in &corpus.variants {
            let body = &v.http[v.body_start..];
            for uc in UseCase::EXTENDED {
                for mode in [ParseMode::Scalar, ParseMode::Fast] {
                    assert_eq!(
                        engine.process_mode_staged(mode, uc, body, &mut timed_recorder()),
                        engine.process_mode_staged(mode, uc, body, &mut NoopStages),
                        "{uc:?} {mode:?} staged result must match the untimed path"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_path_compiles_for_the_corpus_rules() {
        // `Engine::new` panics if `//quantity/text()` is not streamable.
        let engine = Engine::new();
        assert!(engine.schema_fast.dfa_count() > 0, "corpus content models are 1-unambiguous");
        // The deterministic guard on `Engine::new`'s cost, where a timer
        // on a shared host would be noise: both pattern facets (`skuType`,
        // `moneyType`) become DFAs over a handful of byte classes.
        let patterns = engine.schema_fast.pattern_dfas();
        assert_eq!(patterns.len(), 2, "{patterns:?}");
        for built in patterns {
            let (classes, states) = built.expect("no corpus pattern falls back to the NFA");
            assert!(classes <= 4 && states <= 16, "{classes} classes, {states} states");
        }
    }

    /// Fast and scalar must give the same verdict or the same error class
    /// for the parse-bound use cases.
    fn assert_fast_matches_scalar(engine: &Engine, body: &[u8]) {
        for uc in [UseCase::Cbr, UseCase::Sv] {
            assert_eq!(
                fast(engine, uc, body),
                scalar(engine, uc, body),
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
                        assert_eq!(
                            fast(&engine, uc, body),
                            scalar(&engine, uc, body),
                            "{uc:?} divergence"
                        );
                    }
                }
                assert_eq!(fast(&engine, UseCase::Cbr, body), Ok(v.cbr_match));
                assert_eq!(fast(&engine, UseCase::Sv, body), Ok(v.sv_valid));
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
                    fast(&engine, uc, bad),
                    scalar(&engine, uc, bad),
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
            fast(
                &engine,
                UseCase::Cbr,
                &[&matched[..], b"</purchaseOrder></soap:Body></soap:Envelope>"].concat()
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
                    fast(&engine, uc, &body),
                    Err(EngineError::BadXml),
                    "{uc:?} on {:?}",
                    String::from_utf8_lossy(tail)
                );
            }
        }
        // A malformed envelope is BadXml, not NotSoap, even when the SOAP
        // shape is already known to be wrong.
        assert_eq!(fast(&engine, UseCase::Sv, b"<notsoap><unclosed"), Err(EngineError::BadXml));
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
                fast(&engine, UseCase::Cbr, &body[..cut]).is_ok(),
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
                outcomes.insert(format!("{:?}", scalar(&engine, UseCase::Sv, &m)));
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
        let engine = Engine::new();
        let corpus = Corpus::generate(5, 2);
        let body = &corpus.variants[0].http[corpus.variants[0].body_start..];
        for mode in [ParseMode::Scalar, ParseMode::Fast] {
            let mut rec = timed_recorder();
            let got = engine.process_mode_staged(mode, UseCase::Sv, body, &mut rec);
            assert_eq!(got, Ok(corpus.variants[0].sv_valid), "{mode:?}");
            let w = rec.record().wall_ns;
            assert!(
                w[Stage::Parse.index()] > 0 && w[Stage::Validate.index()] > 0,
                "{mode:?} stages"
            );
        }
    }

    #[test]
    fn extension_use_cases_run_natively() {
        let engine = Engine::new();
        let corpus = Corpus::generate(7, 2);
        let body = &corpus.variants[0].http[corpus.variants[0].body_start..];
        assert!(scalar(&engine, UseCase::Dpi, body).is_ok());
        assert!(scalar(&engine, UseCase::Crypto, body).is_ok());
    }
}
