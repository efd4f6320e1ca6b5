//! Socket-level tests of the network front-end: protocol conformance,
//! error mapping, keep-alive, the connection cap, and a fuzz pass
//! proving arbitrary/torn/oversized bytes never panic the server and
//! always yield a bounded response (or a clean close).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use inf2vec_embed::EmbeddingStore;
use inf2vec_graph::NodeId;
use inf2vec_obs::http1::Http1Config;
use inf2vec_obs::Telemetry;
use inf2vec_serve::{
    BatchConfig, Batcher, Frontend, FrontendConfig, Request, ScoringService, ServeConfig,
};
use inf2vec_util::json::Json;
use inf2vec_util::Xoshiro256pp;

fn start_frontend(cfg: FrontendConfig) -> (Arc<ScoringService>, Frontend) {
    let svc = Arc::new(ScoringService::new(
        ServeConfig::default(),
        Telemetry::with_registry(),
    ));
    svc.install_store(EmbeddingStore::new(64, 8, 42), "test-model")
        .unwrap();
    let batcher = Arc::new(Batcher::start(Arc::clone(&svc), BatchConfig::default()));
    let frontend = Frontend::start("127.0.0.1:0", batcher, cfg).unwrap();
    (svc, frontend)
}

/// Minimal HTTP client: sends one request, reads exactly one response
/// (honoring Content-Length), returns (status line, body).
fn roundtrip(stream: &mut TcpStream, request: &str) -> (String, String) {
    stream.write_all(request.as_bytes()).unwrap();
    read_response(stream).expect("expected a response")
}

fn read_response(stream: &mut TcpStream) -> Option<(String, String)> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let status = head.lines().next().unwrap().to_string();
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0);
    let body_start = head_end + 4;
    while buf.len() < body_start + content_length {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    let body = String::from_utf8_lossy(&buf[body_start..]).to_string();
    Some((status, body))
}

fn post(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

#[test]
fn rank_over_the_wire_matches_in_process() {
    let (svc, frontend) = start_frontend(FrontendConfig::default());
    let candidates: Vec<NodeId> = (1..64).map(NodeId).collect();
    let want = svc
        .rank_targets(NodeId(0), &candidates, 5, &Request::new())
        .unwrap();

    let mut stream = TcpStream::connect(frontend.local_addr()).unwrap();
    let ids: Vec<String> = (1..64).map(|v| v.to_string()).collect();
    let body = format!(
        "{{\"u\":0,\"candidates\":[{}],\"top_n\":5}}",
        ids.join(",")
    );
    let (status, body) = roundtrip(&mut stream, &post("/v1/rank", &body));
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    let doc = Json::parse(&body).unwrap();
    let items = doc.get("items").and_then(Json::as_array).unwrap();
    assert_eq!(items.len(), want.items.len());
    for (got, (wv, ws)) in items.iter().zip(&want.items) {
        assert_eq!(got.get("v").and_then(Json::as_u64), Some(wv.0 as u64));
        let gs = got.get("score").and_then(Json::as_f64).unwrap();
        assert_eq!(gs.to_bits(), ws.to_bits(), "wire score must round-trip");
    }
    assert_eq!(doc.get("version").and_then(Json::as_u64), Some(want.version));
    assert_eq!(doc.get("degraded").and_then(Json::as_bool), Some(false));
    frontend.stop();
}

#[test]
fn score_routes_and_keep_alive_pipelining() {
    let (svc, frontend) = start_frontend(FrontendConfig::default());
    let mut stream = TcpStream::connect(frontend.local_addr()).unwrap();

    // Two requests on one keep-alive connection.
    let (status, body) = roundtrip(&mut stream, &post("/v1/score", "{\"u\":2,\"v\":5}"));
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    let want = svc
        .score_pair(NodeId(2), NodeId(5), &Request::new())
        .unwrap();
    let doc = Json::parse(&body).unwrap();
    assert_eq!(
        doc.get("value").and_then(Json::as_f64).unwrap().to_bits(),
        want.value.to_bits()
    );

    let (status, body) = roundtrip(
        &mut stream,
        &post(
            "/v1/score_active",
            "{\"v\":7,\"active\":[1,2,3],\"agg\":\"max\"}",
        ),
    );
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert!(Json::parse(&body).unwrap().get("value").is_some());

    // Empty active set is the documented bottom element: score null.
    let (status, body) = roundtrip(&mut stream, &post("/v1/score_active", "{\"v\":7,\"active\":[]}"));
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    assert_eq!(Json::parse(&body).unwrap().get("value"), Some(&Json::Null));
    frontend.stop();
}

#[test]
fn metrics_and_healthz_are_served() {
    let (_svc, frontend) = start_frontend(FrontendConfig::default());
    let mut stream = TcpStream::connect(frontend.local_addr()).unwrap();
    roundtrip(&mut stream, &post("/v1/score", "{\"u\":0,\"v\":1}"));

    let (status, body) = roundtrip(
        &mut stream,
        "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n",
    );
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(
        body.contains("inf2vec_serve_requests_total{outcome=\"ok\"} 1"),
        "{body}"
    );
    assert!(body.contains("inf2vec_frontend_http_requests_total"), "{body}");

    let (status, body) = roundtrip(&mut stream, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(
        Json::parse(&body).unwrap().get("status").and_then(Json::as_str),
        Some("ok")
    );
    frontend.stop();
}

/// Whole response bodies as the wire carries them, byte for byte.
#[test]
fn wire_bodies_are_byte_exact() {
    let (svc, frontend) = start_frontend(FrontendConfig::default());
    let mut stream = TcpStream::connect(frontend.local_addr()).unwrap();

    let want = svc
        .rank_targets(
            NodeId(0),
            &[NodeId(1), NodeId(2), NodeId(3)],
            2,
            &Request::new(),
        )
        .unwrap();
    let (status, body) = roundtrip(
        &mut stream,
        &post("/v1/rank", "{\"u\":0,\"candidates\":[1,2,3],\"top_n\":2}"),
    );
    assert_eq!(status, "HTTP/1.1 200 OK");
    let (a, b) = (want.items[0], want.items[1]);
    assert_eq!(
        body,
        format!(
            "{{\"items\":[{{\"v\":{},\"score\":{}}},{{\"v\":{},\"score\":{}}}],\
             \"version\":1,\"degraded\":false}}",
            a.0 .0, a.1, b.0 .0, b.1
        )
    );

    let want = svc
        .score_pair(NodeId(2), NodeId(5), &Request::new())
        .unwrap();
    let (_, body) = roundtrip(&mut stream, &post("/v1/score", "{\"u\":2,\"v\":5}"));
    assert_eq!(
        body,
        format!(
            "{{\"value\":{},\"version\":1,\"degraded\":false}}",
            want.value
        )
    );

    let (_, body) = roundtrip(
        &mut stream,
        &post("/v1/score_active", "{\"v\":7,\"active\":[]}"),
    );
    assert_eq!(body, r#"{"value":null,"version":1,"degraded":false}"#);

    let (_, body) = roundtrip(&mut stream, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(body, r#"{"status":"ok","model_version":1}"#);

    let (_, body) = roundtrip(
        &mut stream,
        &post("/v1/rank", "{\"u\":0,\"candidates\":[1],\"top_n\":\"two\"}"),
    );
    assert_eq!(
        body,
        r#"{"error":{"outcome":"bad_request","message":"bad request: \"top_n\" must be a positive integer"}}"#
    );

    let (_, body) = roundtrip(&mut stream, &post("/v1/rank", "{not json"));
    assert_eq!(
        body,
        r#"{"error":{"outcome":"bad_request","message":"bad request: request body: invalid JSON at byte 1: expected a string key"}}"#
    );

    let (status, body) = roundtrip(&mut stream, &post("/v1/nope", "{}"));
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    assert_eq!(
        body,
        r#"{"error":{"outcome":"bad_request","message":"no such route; see POST /v1/rank /v1/score /v1/score_active, GET /metrics /healthz"}}"#
    );
    frontend.stop();
}

#[test]
fn serve_errors_map_to_documented_status_codes() {
    let (_svc, frontend) = start_frontend(FrontendConfig::default());
    let mut stream = TcpStream::connect(frontend.local_addr()).unwrap();

    // bad_request → 400: top_n = 0.
    let (status, body) = roundtrip(
        &mut stream,
        &post("/v1/rank", "{\"u\":0,\"candidates\":[1],\"top_n\":0}"),
    );
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    let doc = Json::parse(&body).unwrap();
    assert_eq!(
        doc.get("error").and_then(|e| e.get("outcome")).and_then(Json::as_str),
        Some("bad_request")
    );

    // bad_request → 400: out-of-range node id.
    let (status, _) = roundtrip(&mut stream, &post("/v1/score", "{\"u\":9999,\"v\":0}"));
    assert_eq!(status, "HTTP/1.1 400 Bad Request");

    // malformed JSON body → 400 with a bounded error envelope.
    let (status, body) = roundtrip(&mut stream, &post("/v1/rank", "{not json"));
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.contains("\"outcome\":\"bad_request\""), "{body}");

    // deadline_exceeded → 504: a zero budget is spent on arrival.
    let (status, body) = roundtrip(
        &mut stream,
        &post(
            "/v1/rank",
            "{\"u\":0,\"candidates\":[1,2],\"top_n\":1,\"deadline_ms\":0}",
        ),
    );
    assert_eq!(status, "HTTP/1.1 504 Gateway Timeout", "{body}");
    assert!(body.contains("\"outcome\":\"deadline_exceeded\""), "{body}");

    // Unknown route → 404; bad method → 405.
    let (status, _) = roundtrip(&mut stream, &post("/v1/nope", "{}"));
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    let (status, _) = roundtrip(&mut stream, "PUT /v1/rank HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 405 Method Not Allowed");
    frontend.stop();
}

#[test]
fn connection_cap_refuses_with_503() {
    let (_svc, frontend) = start_frontend(FrontendConfig {
        max_connections: 1,
        ..FrontendConfig::default()
    });
    // First connection occupies the only slot (keep-alive holds it).
    let mut first = TcpStream::connect(frontend.local_addr()).unwrap();
    let (status, _) = roundtrip(&mut first, &post("/v1/score", "{\"u\":0,\"v\":1}"));
    assert_eq!(status, "HTTP/1.1 200 OK");
    // Second connection is refused at the door.
    let mut second = TcpStream::connect(frontend.local_addr()).unwrap();
    let (status, body) = read_response(&mut second).expect("refusal response");
    assert_eq!(status, "HTTP/1.1 503 Service Unavailable", "{body}");
    assert!(body.contains("connection limit"), "{body}");
    frontend.stop();
}

/// The fuzz pass: arbitrary bytes, torn request fragments, and oversized
/// heads/bodies must never panic the server, and every connection must
/// end in either a bounded error response or a clean close — after all
/// of it, the server still answers a well-formed request.
#[test]
fn fuzzed_bytes_never_panic_and_responses_stay_bounded() {
    let (_svc, frontend) = start_frontend(FrontendConfig {
        http: Http1Config {
            max_head_bytes: 2048,
            max_body_bytes: 4096,
            read_timeout: Duration::from_millis(100),
            ..Http1Config::default()
        },
        idle_timeout: Duration::from_millis(200),
        ..FrontendConfig::default()
    });
    let addr = frontend.local_addr();
    let mut rng = Xoshiro256pp::new(0xF0CC);

    for case in 0..60 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let garbage: Vec<u8> = match case % 5 {
            // Pure random bytes.
            0 => (0..rng.below(512)).map(|_| rng.below(256) as u8).collect(),
            // A torn request head, then hang up.
            1 => b"POST /v1/rank HTTP/1.1\r\nContent-Le".to_vec(),
            // Oversized head (no terminator before the cap).
            2 => vec![b'A'; 4096],
            // Valid head declaring an oversized body.
            3 => b"POST /v1/rank HTTP/1.1\r\nContent-Length: 999999\r\n\r\n".to_vec(),
            // Valid framing around a garbage JSON body.
            _ => {
                let junk: Vec<u8> =
                    (0..64).map(|_| rng.below(256) as u8).collect();
                let mut req = format!(
                    "POST /v1/rank HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    junk.len()
                )
                .into_bytes();
                req.extend_from_slice(&junk);
                req
            }
        };
        let _ = stream.write_all(&garbage);
        if case % 5 == 1 {
            // Torn request: shut down the write side mid-head.
            let _ = stream.shutdown(std::net::Shutdown::Write);
        }
        // Read whatever comes back; it must be bounded (well under 64KB)
        // and the read must terminate (server closes errored conns).
        let mut total = 0usize;
        let mut chunk = [0u8; 4096];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    total += n;
                    assert!(total < 65_536, "unbounded response to garbage (case {case})");
                }
                Err(_) => break, // timeout: server held the conn, fine
            }
        }
    }

    // The server survived: a well-formed request still works.
    let mut stream = TcpStream::connect(addr).unwrap();
    let (status, body) = roundtrip(
        &mut stream,
        &post("/v1/rank", "{\"u\":0,\"candidates\":[1,2,3],\"top_n\":2}"),
    );
    assert_eq!(status, "HTTP/1.1 200 OK", "{body}");
    frontend.stop();
}

#[test]
fn shutdown_drain_is_bounded_and_aborts_are_counted() {
    // A connection whose handler is parked in a long socket read can't
    // notice the stop flag before the drain deadline; stop() must give
    // up at `write_timeout + idle_timeout` and count the abort instead
    // of waiting out the read.
    let cfg = FrontendConfig {
        http: Http1Config {
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_millis(100),
            ..Http1Config::default()
        },
        idle_timeout: Duration::from_millis(100),
        ..FrontendConfig::default()
    };
    let (svc, frontend) = start_frontend(cfg);
    let stream = TcpStream::connect(frontend.local_addr()).unwrap();
    // Give the accept loop time to hand the connection to a handler
    // thread (which then blocks in read_request for read_timeout).
    std::thread::sleep(Duration::from_millis(300));

    let started = std::time::Instant::now();
    frontend.stop();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(3),
        "drain must abort at ~200ms, not wait out the 5s read: {elapsed:?}"
    );
    assert_eq!(
        svc.telemetry()
            .snapshot()
            .counter_value("inf2vec_frontend_drain_aborted_total", &[]),
        1,
        "the aborted drain must be counted"
    );
    drop(stream);
}
