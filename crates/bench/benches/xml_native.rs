//! Native (untraced) speed of the XML substrate — the engine running as an
//! ordinary library with the instrumentation compiled away.

use aon_server::corpus::Corpus;
use aon_trace::NullProbe;
use aon_xml::events::well_formed;
use aon_xml::input::TBuf;
use aon_xml::parser::parse_document;
use aon_xml::schema::{Schema, SchemaAutomaton};
use aon_xml::serialize::serialize_document;
use aon_xml::utf8::validate_utf8;
use aon_xml::xpath::{CompiledPath, XPath};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn benches(c: &mut Criterion) {
    let corpus = Corpus::generate(42, 1);
    let v = &corpus.variants[0];
    let body = &v.http[v.body_start..];
    let schema = Schema::compile(aon_server::corpus::CORPUS_XSD).expect("corpus XSD compiles");
    let xp = XPath::compile("//quantity/text()").expect("query compiles");
    let doc = parse_document(TBuf::msg(body), &mut NullProbe).expect("corpus body parses");

    let mut g = c.benchmark_group("xml_native");
    g.throughput(Throughput::Bytes(body.len() as u64));
    g.bench_function("parse_5kb", |b| {
        b.iter(|| {
            parse_document(TBuf::msg(std::hint::black_box(body)), &mut NullProbe).expect("parses")
        })
    });
    g.bench_function("utf8_validate_5kb", |b| {
        b.iter(|| {
            validate_utf8(TBuf::msg(std::hint::black_box(body)), &mut NullProbe)
                .expect("valid utf-8")
        })
    });
    g.bench_function("xpath_eval", |b| {
        b.iter(|| {
            xp.string_equals(std::hint::black_box(&doc), b"1", &mut NullProbe).expect("evaluates")
        })
    });
    g.bench_function("schema_validate", |b| {
        b.iter(|| {
            let payload = aon_xml::soap::payload_root(&doc, &mut NullProbe).expect("has payload");
            schema.validate_node(std::hint::black_box(&doc), payload, &mut NullProbe)
        })
    });
    g.bench_function("serialize", |b| {
        b.iter(|| serialize_document(std::hint::black_box(&doc), &mut NullProbe))
    });

    // The fast serving path: one SWAR-scanned event pass over the raw body,
    // alone (`parse_5kb_fast`) and with each compiled program as its
    // handler. The `*_compiled` rows do the whole job — tokenise, check,
    // answer — so each pairs with `parse_5kb` plus its scalar row above.
    let cpath = CompiledPath::compile(&xp).expect("paper expression is streamable");
    let automaton = SchemaAutomaton::compile(&schema);
    g.bench_function("parse_5kb_fast", |b| {
        b.iter(|| well_formed(std::hint::black_box(body)).expect("parses"))
    });
    g.bench_function("xpath_eval_compiled", |b| {
        b.iter(|| cpath.string_equals(std::hint::black_box(body), b"1").expect("parses"))
    });
    g.bench_function("schema_validate_compiled", |b| {
        b.iter(|| {
            automaton
                .validate_soap_payload(std::hint::black_box(body))
                .expect("parses")
                .expect("has payload")
        })
    });
    g.finish();

    c.bench_function("schema_compile", |b| {
        b.iter(|| {
            Schema::compile(std::hint::black_box(aon_server::corpus::CORPUS_XSD)).expect("compiles")
        })
    });
    c.bench_function("xpath_compile", |b| {
        b.iter(|| {
            XPath::compile(std::hint::black_box("//item[quantity > 10]/name/text()"))
                .expect("compiles")
        })
    });
}

criterion_group!(xml, benches);
criterion_main!(xml);
