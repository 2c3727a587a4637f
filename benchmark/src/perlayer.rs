//! The per-layer half of the traced run: the layers replayed alone on
//! one thread in memory, the kernels beside them, and the OS floors.
//!
//! Everything here times calls from outside; the calls themselves live in
//! `layers`. A span costs two clock reads (~50 ns on the authoring host),
//! which a layer's figure includes.

use crate::client::Prepared;
use crate::layers::{self, FrameBuf, Stage, StageRecorder};
use crate::stats::{median, self_time, Windowed};
use crate::trace::{Span, SpanLog};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Barrier};
use std::time::{Duration, Instant};

/// Replay spans kept for the JSONL file.
const REPLAY_SPANS: usize = 32 * 1024;

/// The engine's stages as child spans of `server.engine.process`.
#[derive(Default)]
struct ChildStages {
    spans: Vec<(Stage, Instant, Instant)>,
}

impl StageRecorder for ChildStages {
    fn time<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.spans.push((stage, start, Instant::now()));
        out
    }
}

pub struct Replay {
    pub metrics: Vec<(&'static str, f64)>,
    /// A replayed verdict that differs from the corpus flag, in words.
    pub errors: Vec<String>,
    pub spans: Vec<Span>,
    /// Sum of the five top-level layer medians, in us.
    pub layers_us: f64,
}

/// Windows the replay and the floors are summarised by.
const WINDOW: Duration = Duration::from_millis(100);

fn ns(start: Instant, end: Instant) -> u64 {
    (end - start).as_nanos() as u64
}

/// Push every request of the workload through the layers in the order the
/// worker calls them, for about 1.5 s (at least 2000 messages even at
/// 64 KiB), checking each verdict against the corpus. A layer's figure is
/// the lowest of its per-window medians, and its minimum.
pub fn replay(
    requests: &[Prepared],
    one_shot: bool,
    quick: bool,
    scale: f64,
    epoch: Instant,
) -> Replay {
    let budget = Duration::from_secs_f64(if quick { 0.2 } else { 1.5 * scale });
    let warm = if quick { 32 } else { 512 };
    let engine = layers::engine();
    let mut log = SpanLog::new(epoch, 1 << 48, REPLAY_SPANS);
    let mut errors = Vec::new();
    let mut kept = FrameBuf::new();
    let [mut read, mut parse, mut process, mut build, mut write] =
        std::array::from_fn(|_| Windowed::new(WINDOW));
    let [mut xml_parse, mut xpath, mut validate, mut own] =
        std::array::from_fn(|_| Windowed::new(WINDOW));

    let mut began = Instant::now();
    for i in 0.. {
        if i == warm {
            began = Instant::now();
        }
        let req = &requests[i % requests.len()];
        // A keep-alive connection keeps its buffer; a one-shot one starts
        // with an empty one, inside the span.
        let t0 = Instant::now();
        if i >= warm && t0 - began >= budget {
            break;
        }
        let mut fresh = one_shot.then(FrameBuf::new);
        let fb = fresh.as_mut().unwrap_or(&mut kept);
        let frame = layers::read_frame(fb, &req.bytes);
        let t1 = Instant::now();
        let Ok(frame) = frame else {
            errors.push(format!("replay: request {i} did not frame"));
            break;
        };
        let msg = &fb.bytes()[..frame.total()];
        let parsed = layers::parse_request(msg);
        let t2 = Instant::now();
        let Some(parsed) = parsed else {
            errors.push(format!("replay: request {i} did not parse"));
            break;
        };
        let mut stages = ChildStages::default();
        let verdict =
            layers::process(&engine, parsed.use_case, &msg[parsed.body.clone()], &mut stages);
        let t3 = Instant::now();
        let Some(routed) = verdict else {
            errors.push(format!("replay: engine error on request {i}"));
            break;
        };
        let response = layers::build_response(routed);
        let t4 = Instant::now();
        let written = layers::write_all(black_box(&response));
        let t5 = Instant::now();
        fb.consume(frame.total());
        if written.is_err() || (if routed { 200 } else { 422 }) != req.expect {
            errors.push(format!("replay: request {i} routed={routed}, corpus says {}", req.expect));
            break;
        }
        if i < warm {
            continue;
        }

        let at = t0 - began;
        read.add(at, ns(t0, t1));
        parse.add(at, ns(t1, t2));
        process.add(at, ns(t2, t3));
        build.add(at, ns(t3, t4));
        write.add(at, ns(t4, t5));
        let children: Vec<(u64, u64)> =
            stages.spans.iter().map(|&(_, s, e)| (ns(t0, s), ns(t0, e))).collect();
        own.add(at, self_time((ns(t0, t2), ns(t0, t3)), &children));

        let reqid = i as u64;
        let root = log.id();
        log.push("replay.request", root, 0, reqid, t0, t5);
        let tops = [
            ("net.wire.read_frame", t0, t1),
            ("server.http.parse_request", t1, t2),
            ("server.engine.process", t2, t3),
            ("server.http.build_response", t3, t4),
            ("net.wire.write_all", t4, t5),
        ];
        let mut process_id = 0;
        for (name, start, end) in tops {
            let id = log.id();
            log.push(name, id, root, reqid, start, end);
            if name == "server.engine.process" {
                process_id = id;
            }
        }
        for &(stage, s, e) in &stages.spans {
            let (series, child) = match stage {
                Stage::Parse => (&mut xml_parse, "xml.parse"),
                Stage::XPath => (&mut xpath, "xml.xpath"),
                Stage::Validate => (&mut validate, "xml.validate"),
                _ => continue,
            };
            series.add(at, ns(s, e));
            let id = log.id();
            log.push(child, id, process_id, reqid, s, e);
        }
    }

    let mut metrics = Vec::new();
    let mut layers_us = 0.0;
    // (median name, minimum name, durations, counts towards the layer sum)
    let named = [
        ("net.wire.read_frame_ns", "net.wire.read_frame_min_ns", read, true),
        ("server.http.parse_request_ns", "server.http.parse_request_min_ns", parse, true),
        ("server.engine.process_ns", "server.engine.process_min_ns", process, true),
        ("xml.parse_ns", "xml.parse_min_ns", xml_parse, false),
        ("xml.xpath_ns", "xml.xpath_min_ns", xpath, false),
        ("xml.validate_ns", "xml.validate_min_ns", validate, false),
        ("server.engine.self_ns", "server.engine.self_min_ns", own, false),
        ("server.http.build_response_ns", "server.http.build_response_min_ns", build, true),
        ("net.wire.write_all_ns", "net.wire.write_all_min_ns", write, true),
    ];
    for (p50_name, min_name, series, top_level) in named {
        let p50 = series.best_median();
        metrics.push((p50_name, p50));
        metrics.push((min_name, series.min()));
        if top_level {
            layers_us += p50 / 1e3;
        }
    }
    Replay { metrics, errors, spans: log.spans, layers_us }
}

/// Median over `batches` of `f`'s wall time in ns.
fn batch_ns(batches: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times)
}

/// The kernels beside the layers: what the scanner and the parser reach
/// on these bodies alone, and what the accept queue costs.
pub fn kernels(requests: &[Prepared], quick: bool) -> Vec<(&'static str, f64)> {
    let batches = if quick { 8 } else { 32 };
    let bodies: Vec<&[u8]> = requests.iter().map(|r| &r.bytes[r.body.clone()]).collect();
    let bytes: usize = bodies.iter().map(|b| b.len()).sum();
    // About a MiB per batch, so the clock reads vanish in it.
    let reps = ((1 << 20) / bytes).max(1);
    let volume = (bytes * reps) as f64;

    let scan_ns = batch_ns(batches, || {
        for _ in 0..reps {
            for b in &bodies {
                black_box(layers::scan(black_box(b)));
            }
        }
    });
    let parse_ns = batch_ns(batches, || {
        for _ in 0..reps {
            for b in &bodies {
                black_box(layers::lazy_parse(black_box(b)));
            }
        }
    });

    let q = layers::accept_queue();
    let pairs = 1024u64;
    let push_pop_ns = batch_ns(batches, || {
        for i in 0..pairs {
            black_box(layers::acceptq_push(&q, i));
            black_box(layers::acceptq_pop(&q, Duration::ZERO));
        }
    }) / pairs as f64;

    // A push on this thread, the pop on another that was already waiting:
    // the stamp-to-pop wait the worker reads as its queue wait.
    let handoffs = if quick { 200 } else { 2000 };
    let (ack, acked) = mpsc::channel();
    let waits: Vec<f64> = std::thread::scope(|scope| {
        let q = &q;
        scope.spawn(move || {
            for _ in 0..handoffs {
                let Some(wait_ns) = layers::acceptq_pop(q, Duration::from_secs(5)) else { break };
                if ack.send(wait_ns).is_err() {
                    break;
                }
            }
        });
        (0..handoffs)
            .map_while(|i| {
                // Long enough for the consumer to be parked in `pop`.
                std::thread::sleep(Duration::from_micros(50));
                layers::acceptq_push(q, i);
                acked.recv().ok().map(|ns| ns as f64)
            })
            .collect()
    });

    vec![
        ("xml.scan.bytes_per_ns", volume / scan_ns),
        ("xml.parse_bytes_per_ns", volume / parse_ns),
        ("net.acceptq.push_pop_ns", push_pop_ns),
        ("net.acceptq.handoff_us", median(&waits) / 1e3),
    ]
}

pub struct Floors {
    /// Request out, response back, between two plain threads.
    pub rtt_us: f64,
    /// `connect` until the peer's close is read.
    pub connect_us: f64,
}

/// What loopback itself costs at this workload's message sizes and
/// concurrency (`pairs` echo pairs at once, as the workload keeps `pairs`
/// connections busy), with no line of this repository on the path.
pub fn floors(requests: &[Prepared], pairs: usize, quick: bool, scale: f64) -> Floors {
    let secs = |full: f64| Duration::from_secs_f64(if quick { 0.2 } else { full * scale });
    let (echo_for, connect_for) = (secs(1.5), secs(1.0));
    let request = &requests[0].bytes;
    let response = layers::build_response(true);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let done = AtomicBool::new(false);
    let phase = Barrier::new(pairs);
    let (response, listener, done, phase) = (&response, &listener, &done, &phase);

    std::thread::scope(|scope| {
        // The first `pairs` connections are echoed, one thread each; every
        // later one is accepted and closed, by one thread as in the server.
        scope.spawn(move || {
            for _ in 0..pairs {
                let Ok((mut peer, _)) = listener.accept() else { return };
                scope.spawn(move || {
                    let mut buf = vec![0u8; request.len()];
                    let _ = peer.set_nodelay(true);
                    while peer.read_exact(&mut buf).is_ok() && peer.write_all(response).is_ok() {}
                });
            }
            while !done.load(Ordering::Acquire) {
                drop(listener.accept());
            }
        });

        let clients: Vec<_> = (0..pairs)
            .map(|_| {
                scope.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect echo");
                    stream.set_nodelay(true).expect("nodelay");
                    let mut buf = vec![0u8; response.len()];
                    let mut rtts = Windowed::new(WINDOW);
                    phase.wait();
                    let began = Instant::now();
                    loop {
                        let t = Instant::now();
                        if t - began >= echo_for {
                            break;
                        }
                        stream.write_all(request).expect("echo write");
                        stream.read_exact(&mut buf).expect("echo read");
                        rtts.add(t - began, ns(t, Instant::now()));
                    }
                    phase.wait();
                    drop(stream);
                    let mut cycles = Windowed::new(WINDOW);
                    let began = Instant::now();
                    loop {
                        let t = Instant::now();
                        if t - began >= connect_for {
                            break;
                        }
                        let mut s = TcpStream::connect(addr).expect("connect floor");
                        // The peer closes at once: EOF, or a reset if it won.
                        let _ = s.read(&mut [0u8; 1]);
                        drop(s);
                        cycles.add(t - began, ns(t, Instant::now()));
                    }
                    (rtts, cycles)
                })
            })
            .collect();
        let (mut rtts, mut cycles) = (Windowed::new(WINDOW), Windowed::new(WINDOW));
        for c in clients {
            let (r, k) = c.join().expect("floor client panicked");
            rtts.merge(r);
            cycles.merge(k);
        }
        done.store(true, Ordering::Release);
        drop(TcpStream::connect(addr));
        Floors { rtt_us: rtts.best_median() / 1e3, connect_us: cycles.best_median() / 1e3 }
    })
}
