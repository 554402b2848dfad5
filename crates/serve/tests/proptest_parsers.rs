//! Corrupt-never-panic property tests for the serving layer's parsers of
//! untrusted bytes: the server's request-head parser
//! (`Request::read_from`), the client's response parser
//! (`read_response`) and the `/call` query validator
//! (`CallQuery::from_pairs`). Valid inputs are truncated, bit-flipped,
//! spliced with an oversized line or given a hostile size, and every
//! parser must return a value or an error, never panic. Where a mutation
//! has a known verdict — a head cut before its blank line, a head over
//! the 8 KiB cap, a body cut short, a size the bytes cannot back — the
//! verdict is asserted too.

use proptest::prelude::*;
use std::io::{Cursor, ErrorKind};
use ultravc_serve::http::{HttpError, Request, MAX_HEAD_BYTES};
use ultravc_serve::{read_response, CallQuery};

const REQUESTS: &[&str] = &[
    "GET /call?sample=s&region=chr%3A1-100&min-af=0.05&format=json&timeout-ms=250 HTTP/1.1\r\n\
     Host: x\r\n\r\n",
    "GET /health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
    "POST /call?region=c&cache=off HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    "GET /x?a=1+2&b=&&c HTTP/1.1\n\n",
];

/// Valid responses: a `Content-Length` body, a chunked body, no body.
const RESPONSES: &[&str] = &[
    "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n\
     Connection: keep-alive\r\n\r\nhello",
    "HTTP/1.1 206 Partial Content\r\nTransfer-Encoding: chunked\r\n\
     X-Ultravc-Cache: miss\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n",
    "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 0\r\n\r\n",
];

/// Sizes no honest peer sends: past the bytes, past `u64`, negative,
/// prefixed, blank.
const HOSTILE_SIZES: &[&str] = &[
    "ffffffffffffffff",
    "1ffffffffffffffff",
    "18446744073709551615",
    "99999999999999999999999",
    "-1",
    "+",
    "0x10",
    "",
    " ",
];

/// The parameters `/call` knows, then near misses.
const KEYS: &[&str] = &[
    "sample",
    "region",
    "min-af",
    "format",
    "timeout-ms",
    "cache",
    "min_af",
    "REGION",
    "",
];
const KNOWN_KEYS: usize = 6;

const VALUES: &[&str] = &[
    "c:1-10",
    "c",
    "c:0-5",
    "c:5-4",
    "c:1-4294967295",
    "c:4294967296-5",
    ":1-2",
    "c:-1-5",
    "c:1-",
    "0",
    "1",
    "0.5",
    "1.5",
    "NaN",
    "inf",
    "-0",
    "1e309",
    "json",
    "vcf",
    "on",
    "off",
    "18446744073709551615",
    "18446744073709551616",
    "",
    " ",
    "%",
    "ü",
];

/// One mutation of `bytes`: truncation, a bit flip, or an oversized
/// line spliced in; `frac` places it. Returns the splice / cut position.
fn mutate(bytes: &mut Vec<u8>, kind: u8, frac: f64, bit: u8) -> usize {
    let at = ((bytes.len() - 1) as f64 * frac) as usize;
    match kind % 3 {
        0 => bytes.truncate(at),
        1 => bytes[at] ^= 1 << (bit % 8),
        _ => {
            let line = vec![b'a'; MAX_HEAD_BYTES];
            bytes.splice(at..at, line);
        }
    }
    at
}

fn query_value() -> impl Strategy<Value = String> {
    (
        0..VALUES.len() + 1,
        prop::collection::vec(any::<u8>(), 0..24),
    )
        .prop_map(|(i, raw)| match VALUES.get(i) {
            Some(v) => v.to_string(),
            None => String::from_utf8_lossy(&raw).into_owned(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn request_heads_never_panic(
        seed in 0..REQUESTS.len(),
        kind in 0u8..3,
        frac in 0.0f64..1.0,
        bit in any::<u8>(),
    ) {
        let mut bytes = REQUESTS[seed].as_bytes().to_vec();
        prop_assert!(Request::read_from(&mut Cursor::new(bytes.clone())).is_ok());
        mutate(&mut bytes, kind, frac, bit);
        let parsed = Request::read_from(&mut Cursor::new(bytes));
        match kind {
            // Every strict prefix of a head lacks its blank line, and a
            // splice of 8 KiB before the head's last byte breaks the cap.
            0 | 2 => prop_assert!(
                matches!(parsed, Err(HttpError::BadRequest(_))),
                "kind {} parsed as {:?}",
                kind,
                parsed
            ),
            // A flipped bit may still parse; what parses feeds the query
            // validator, which must not panic either.
            _ => {
                if let Ok(request) = parsed {
                    let _ = CallQuery::from_pairs(&request.query);
                }
            }
        }
    }

    #[test]
    fn responses_never_panic(
        seed in 0..RESPONSES.len(),
        kind in 0u8..3,
        frac in 0.0f64..1.0,
        bit in any::<u8>(),
    ) {
        let valid = RESPONSES[seed].as_bytes();
        prop_assert!(read_response(&mut Cursor::new(valid.to_vec())).is_ok());
        let head_end = RESPONSES[seed].find("\r\n\r\n").unwrap() + 4;
        // `0\r\n\r\n` may lose its tail and still read as the terminator.
        let body_end = if RESPONSES[seed].contains("chunked") {
            valid.len() - 5
        } else {
            valid.len()
        };
        let mut bytes = valid.to_vec();
        let at = mutate(&mut bytes, kind, frac, bit);
        let parsed = read_response(&mut Cursor::new(bytes));
        if kind == 0 && (head_end..body_end).contains(&at) {
            prop_assert!(parsed.is_err(), "body cut at {} parsed as {:?}", at, parsed);
        }
    }

    #[test]
    fn hostile_response_sizes_are_errors(
        size in prop::sample::select(HOSTILE_SIZES.to_vec()),
        chunked in any::<bool>(),
        lead_chunk in any::<bool>(),
        body in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut raw = Vec::new();
        if chunked {
            raw.extend_from_slice(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n");
            if lead_chunk {
                raw.extend_from_slice(format!("{:x}\r\n", body.len() + 1).as_bytes());
                raw.extend_from_slice(&body);
                raw.extend_from_slice(b"!\r\n");
            }
            raw.extend_from_slice(format!("{size}\r\n").as_bytes());
            raw.extend_from_slice(&body);
            raw.extend_from_slice(b"\r\n0\r\n\r\n");
        } else {
            raw.extend_from_slice(format!("HTTP/1.1 200 OK\r\nContent-Length: {size}\r\n\r\n").as_bytes());
            raw.extend_from_slice(&body);
        }
        match read_response(&mut Cursor::new(raw)) {
            Ok(response) => prop_assert!(false, "size {:?} was accepted: {:?}", size, response),
            Err(e) => prop_assert!(
                matches!(e.kind(), ErrorKind::InvalidData | ErrorKind::UnexpectedEof),
                "size {:?}: {}",
                size,
                e
            ),
        }
    }

    #[test]
    fn call_queries_never_panic(
        pairs in prop::collection::vec((0..KEYS.len(), query_value()), 0..6),
    ) {
        let pairs: Vec<(String, String)> = pairs
            .into_iter()
            .map(|(k, v)| (KEYS[k].to_string(), v))
            .collect();
        let unknown_key = pairs.iter().any(|(k, _)| KEYS[..KNOWN_KEYS].iter().all(|known| k != known));
        match CallQuery::from_pairs(&pairs) {
            Ok(q) => {
                prop_assert!(!unknown_key, "unknown key accepted: {:?}", pairs);
                prop_assert!(!q.region.chrom.is_empty());
                if let Some(span) = &q.region.span {
                    prop_assert!(span.start < span.end, "{:?}", span);
                }
                prop_assert!(q.min_af.is_none_or(|f| (0.0..=1.0).contains(&f)));
                prop_assert!(q.timeout.is_none_or(|t| !t.is_zero()));
            }
            Err(msg) => prop_assert!(!msg.is_empty()),
        }
    }
}
