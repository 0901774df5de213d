//! Property tests over the wire layers: the JSON reader, the HTTP
//! framing decoder, and the API type roundtrips.
//!
//! The invariant under attack everywhere: **hostile bytes produce typed
//! errors, never panics** — a malformed, truncated or oversized request
//! must cost the daemon one error response (or one closed connection),
//! not a worker. All parsers here are pure functions, so "never hangs"
//! is structural (no I/O to block on; the server bounds slow peers with
//! socket read timeouts) and "never panics" is what these properties
//! pin.

use omniboost_models::ModelId;
use omniboost_rpc::api::{
    DepartReply, DepartRequest, ShutdownReply, ShutdownRequest, StatusReply, SubmitReply,
    SubmitRequest,
};
use omniboost_rpc::http::{
    decode_response, render_response, FrameDecoder, FrameError, FrameLimits,
};
use omniboost_rpc::json;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random bytes skewed toward JSON/HTTP-looking content so the parsers
/// see deep paths, not just instant rejections.
fn hostile_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let alphabet: &[u8] = b"{}[]\",:\\0123456789.eE+-truefalsnu \t\r\n\x00\xff/GET POST HTTP1.";
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.8) {
                alphabet[rng.gen_range(0..alphabet.len())]
            } else {
                rng.gen_range(0u8..=255)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The JSON parser is total: arbitrary bytes return `Ok` or a typed
    /// `JsonError`, and valid output re-parses to the same value.
    #[test]
    fn json_parse_is_total(seed in 0u64..10_000, len in 0usize..512) {
        let bytes = hostile_bytes(seed, len);
        if let Ok(value) = json::parse(&bytes) {
            // Anything that parsed must have come from UTF-8.
            assert!(std::str::from_utf8(&bytes).is_ok());
            let _ = value.get("x");
        }
    }

    /// Truncating a valid body at any byte yields a typed error (or a
    /// shorter valid value — possible when the cut lands after a
    /// complete number literal), never a panic.
    #[test]
    fn json_truncations_never_panic(cut in 1usize..60) {
        let body = br#"{"model": "alexnet", "tenant": 3, "min_tps": 1.5, "id": 42, "at_ms": 7}"#;
        let cut = cut.min(body.len() - 1);
        let _ = json::parse(&body[..cut]);
        let _ = SubmitRequest::from_json(&body[..cut]);
    }

    /// Escaped strings roundtrip through the writer + parser.
    #[test]
    fn json_string_roundtrip(seed in 0u64..10_000, len in 0usize..64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s: String = (0..len)
            .map(|_| char::from_u32(rng.gen_range(0u32..0xD7FF)).unwrap_or('?'))
            .collect();
        let parsed = json::parse(json::quote(&s).as_bytes()).expect("writer output parses");
        prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
    }

    /// The frame decoder is total on arbitrary bytes in arbitrary chunk
    /// sizes: every call returns a request, a need-more signal, or a
    /// typed error — and the error, once hit, is stable.
    #[test]
    fn frame_decoder_is_total(seed in 0u64..10_000, len in 0usize..2048, chunk in 1usize..97) {
        let bytes = hostile_bytes(seed, len);
        let mut decoder = FrameDecoder::new(FrameLimits {
            max_head_bytes: 256,
            max_body_bytes: 512,
        });
        let mut errored = false;
        for piece in bytes.chunks(chunk) {
            decoder.feed(piece);
            loop {
                match decoder.next_request() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(e) => {
                        // Fatal and mapped to a real status.
                        prop_assert!(matches!(e.status(), 400 | 413 | 431 | 505));
                        errored = true;
                        break;
                    }
                }
            }
            if errored {
                break;
            }
        }
    }

    /// A well-formed request split at any byte boundary decodes exactly
    /// once with its body intact, regardless of chunking.
    #[test]
    fn frame_decoder_reassembles_split_requests(
        body_len in 0usize..300,
        chunk in 1usize..41,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let body: Vec<u8> = (0..body_len).map(|_| rng.gen_range(b' '..=b'~')).collect();
        let head = format!(
            "POST /v1/submit HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut wire = head.into_bytes();
        wire.extend_from_slice(&body);

        let mut decoder = FrameDecoder::new(FrameLimits::default());
        let mut requests = Vec::new();
        for piece in wire.chunks(chunk) {
            decoder.feed(piece);
            while let Some(request) = decoder.next_request().expect("valid request") {
                requests.push(request);
            }
        }
        prop_assert_eq!(requests.len(), 1);
        prop_assert_eq!(requests[0].method.as_str(), "POST");
        prop_assert_eq!(requests[0].target.as_str(), "/v1/submit");
        prop_assert_eq!(&requests[0].body, &body);
        prop_assert_eq!(decoder.buffered(), 0);
    }

    /// Rendered responses decode back on the client side.
    #[test]
    fn response_roundtrip(status in proptest::sample::select(vec![200u16, 400, 404, 409, 503]),
                          body_len in 0usize..200) {
        let body = vec![b'x'; body_len];
        let wire = render_response(status, "application/json", &body, true);
        let (response, consumed) = decode_response(&wire, FrameLimits::default())
            .expect("well-formed")
            .expect("complete");
        prop_assert_eq!(consumed, wire.len());
        prop_assert_eq!(response.status, status);
        prop_assert_eq!(response.body, body);
    }

    /// API request/reply types roundtrip through their wire encoding.
    #[test]
    fn api_types_roundtrip(
        model in proptest::sample::select(ModelId::ALL.to_vec()),
        tenant in 0u32..8,
        min_tps in proptest::sample::select(vec![None, Some(0.5), Some(12.25)]),
        id in proptest::sample::select(vec![None, Some(1u64), Some(u64::MAX)]),
        at_ms in proptest::sample::select(vec![None, Some(0u64), Some(123_456)]),
    ) {
        let submit = SubmitRequest { model, tenant, min_tps, id, at_ms };
        prop_assert_eq!(
            SubmitRequest::from_json(submit.to_json().as_bytes()).expect("roundtrip"),
            submit
        );

        let depart = DepartRequest { id: id.unwrap_or(7), at_ms };
        prop_assert_eq!(
            DepartRequest::from_json(depart.to_json().as_bytes()).expect("roundtrip"),
            depart
        );

        let reply = SubmitReply {
            id: 9,
            outcome: "queued".to_string(),
            board: at_ms.map(|_| 3),
            queue_depth: tenant as usize,
        };
        prop_assert_eq!(
            SubmitReply::from_json(reply.to_json().as_bytes()).expect("roundtrip"),
            reply.clone()
        );

        let shutdown = ShutdownReply {
            digest: 0x1234_5678_9abc_def0,
            events: 10,
            placements: 4,
            left_in_queue: 2,
            mean_aggregate_tps: 5.125,
        };
        prop_assert_eq!(
            ShutdownReply::from_json(shutdown.to_json().as_bytes()).expect("roundtrip"),
            shutdown
        );
    }
}

#[test]
fn oversized_head_is_431() {
    let mut decoder = FrameDecoder::new(FrameLimits {
        max_head_bytes: 64,
        max_body_bytes: 64,
    });
    decoder.feed("GET /".as_bytes());
    decoder.feed("a".repeat(200).as_bytes());
    let err = decoder.next_request().expect_err("head over cap");
    assert_eq!(err, FrameError::HeadTooLarge);
    assert_eq!(err.status(), 431);
}

#[test]
fn oversized_body_is_413_without_buffering_it() {
    let mut decoder = FrameDecoder::new(FrameLimits {
        max_head_bytes: 1024,
        max_body_bytes: 128,
    });
    // Declared length alone must trip the cap — the decoder rejects
    // before the body bytes arrive, so memory stays bounded.
    decoder.feed(b"POST /v1/submit HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n");
    let err = decoder.next_request().expect_err("body over cap");
    assert_eq!(err, FrameError::BodyTooLarge(1_000_000));
    assert_eq!(err.status(), 413);
}

#[test]
fn adversarial_nesting_is_bounded() {
    // 100k opening brackets: depth bound must answer with TooDeep long
    // before the recursion could touch the worker's stack.
    let bomb = "[".repeat(100_000);
    assert_eq!(json::parse(bomb.as_bytes()), Err(json::JsonError::TooDeep));
}

#[test]
fn conflicting_content_lengths_are_rejected() {
    let mut decoder = FrameDecoder::new(FrameLimits::default());
    decoder.feed(b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabc");
    assert_eq!(
        decoder.next_request(),
        Err(FrameError::BadContentLength),
        "smuggling-shaped duplicates must not pick one silently"
    );
}

#[test]
fn unknown_model_is_a_typed_error() {
    let err = SubmitRequest::from_json(br#"{"model": "not-a-net"}"#).expect_err("unknown model");
    assert_eq!(err.code, omniboost_rpc::ErrorCode::UnknownModel);
    assert_eq!(err.code.status(), 422);
}

#[test]
fn status_and_shutdown_request_parse_edge_cases() {
    // Empty body = default shutdown.
    assert_eq!(
        ShutdownRequest::from_json(b"").expect("empty ok"),
        ShutdownRequest { horizon_ms: None }
    );
    assert_eq!(
        ShutdownRequest::from_json(b"{\"horizon_ms\": 5000}").expect("explicit"),
        ShutdownRequest {
            horizon_ms: Some(5_000)
        }
    );
    // A status reply roundtrips.
    let status = StatusReply {
        clock_ms: 12,
        boards: 2,
        resident_jobs: 3,
        queue_depth: 1,
        draining: true,
        arrivals: 9,
        placements: 6,
    };
    assert_eq!(
        StatusReply::from_json(status.to_json().as_bytes()).expect("roundtrip"),
        status
    );
    let depart = DepartReply { id: 3, known: true };
    assert_eq!(
        DepartReply::from_json(depart.to_json().as_bytes()).expect("roundtrip"),
        depart
    );
}
