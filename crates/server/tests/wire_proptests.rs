//! Property and malformed-corpus tests for the sharded-serving wire
//! protocol (`cure_serve::wire`).
//!
//! Two guarantees are exercised from outside the crate:
//!
//! 1. **Round-trip identity** — any representable request/response
//!    survives encode → frame → decode byte-exactly.
//! 2. **Hostile-input safety** — arbitrary bytes, truncations, bit
//!    flips, oversized length prefixes and lying in-payload counts all
//!    land in a typed [`ProtocolError`]; the decoder never panics and
//!    never sizes an allocation from an unvalidated length.

use proptest::prelude::*;

use cure_query::CubeRow;
use cure_serve::wire::{
    decode_request, decode_response, encode_frame, encode_request, encode_response, read_frame,
    tag, ReadFrameError,
};
use cure_serve::{ProtocolError, RemoteError, Request, Response, ServeErrorKind, MAX_FRAME_LEN};

/// Decode exactly one frame from `bytes` through the socket reader: a
/// short buffer is `Truncated`, bytes after the frame `TrailingBytes`.
fn decode_frame_bytes(bytes: &[u8]) -> Result<(u8, Vec<u8>), ProtocolError> {
    let mut r = bytes;
    match read_frame(&mut r) {
        Ok(pair) if r.is_empty() => Ok(pair),
        Ok(_) => Err(ProtocolError::TrailingBytes),
        Err(ReadFrameError::Protocol(p)) => Err(p),
        Err(ReadFrameError::Io(_)) => Err(ProtocolError::Truncated),
    }
}

// ---------------------------------------------------------------------
// Strategies (variant selection via a discriminant range + prop_map —
// the vendored proptest has no prop_oneof/prop_flat_map)
// ---------------------------------------------------------------------

fn arb_request() -> impl Strategy<Value = Request> {
    (0u8..2, any::<u64>(), any::<u32>()).prop_map(|(which, node, deadline_ms)| match which {
        0 => Request::Hello,
        _ => Request::Node { node, deadline_ms },
    })
}

fn kind_of(b: u8) -> ServeErrorKind {
    match b {
        0 => ServeErrorKind::Io,
        1 => ServeErrorKind::Corrupt,
        2 => ServeErrorKind::Timeout,
        3 => ServeErrorKind::Shed,
        4 => ServeErrorKind::Degraded,
        5 => ServeErrorKind::Protocol,
        _ => ServeErrorKind::Other,
    }
}

/// Printable-ASCII strings of 0–23 chars (byte-exact through UTF-8).
fn arb_name() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..95, 0..24)
        .prop_map(|v| v.into_iter().map(|b| (b + 32) as char).collect())
}

fn arb_remote_error() -> impl Strategy<Value = RemoteError> {
    (0u8..5, any::<u64>(), arb_name(), any::<u64>(), 0u8..7).prop_map(
        |(which, node, name, page, kind)| match which {
            0 => RemoteError::Timeout { node },
            1 => RemoteError::Overloaded,
            2 => RemoteError::Degraded { relation: name },
            3 => RemoteError::Corrupt { relation: name, page },
            _ => RemoteError::Upstream { kind: kind_of(kind), detail: name },
        },
    )
}

/// Row sets share one `(n_dims, n_aggs)` shape per frame (the encoder
/// derives it from the first row), and a non-empty set with the
/// `(0, 0)` shape is unrepresentable — so steer that corner to `(1, 1)`.
/// Rows are sliced out of fixed-size value pools (no prop_flat_map).
fn arb_rows() -> impl Strategy<Value = Vec<CubeRow>> {
    (
        0usize..4,
        0usize..4,
        0usize..8,
        proptest::collection::vec(any::<u32>(), 24..25),
        proptest::collection::vec(any::<i64>(), 24..25),
    )
        .prop_map(|(d, a, n, dim_pool, agg_pool)| {
            let (d, a) = if d == 0 && a == 0 { (1, 1) } else { (d, a) };
            (0..n)
                .map(|i| {
                    (dim_pool[i * d..(i + 1) * d].to_vec(), agg_pool[i * a..(i + 1) * a].to_vec())
                })
                .collect()
        })
}

fn arb_response() -> impl Strategy<Value = Response> {
    (0u8..3, any::<u32>(), any::<u64>(), any::<bool>(), arb_rows(), arb_remote_error()).prop_map(
        |(which, shard, num_nodes, mmap, rows, err)| match which {
            0 => Response::HelloAck { shard, num_nodes, mmap },
            1 => Response::Rows(rows),
            _ => Response::Error(err),
        },
    )
}

// ---------------------------------------------------------------------
// Round-trip identity
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn requests_round_trip(req in arb_request()) {
        let bytes = encode_request(&req);
        let (t, payload) = decode_frame_bytes(&bytes)
            .map_err(|e| TestCaseError::fail(format!("frame rejected: {e}")))?;
        prop_assert_eq!(decode_request(t, &payload), Ok(req));
    }

    #[test]
    fn responses_round_trip(resp in arb_response()) {
        let bytes = encode_response(&resp);
        let (t, payload) = decode_frame_bytes(&bytes)
            .map_err(|e| TestCaseError::fail(format!("frame rejected: {e}")))?;
        prop_assert_eq!(decode_response(t, &payload), Ok(resp));
    }
}

// ---------------------------------------------------------------------
// Hostile input: typed errors, never a panic
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup: the decoder either yields a frame or a
    /// typed error. If it yields a frame, the body decoders must also
    /// stay panic-free in both directions.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        if let Ok((t, payload)) = decode_frame_bytes(&bytes) {
            let _ = decode_request(t, &payload);
            let _ = decode_response(t, &payload);
        }
    }

    /// Cutting a valid frame anywhere — including mid-header — is a
    /// typed rejection.
    #[test]
    fn truncated_frames_are_rejected(req in arb_request(), sel in any::<u64>()) {
        let bytes = encode_request(&req);
        let cut = (sel as usize) % bytes.len();
        prop_assert!(decode_frame_bytes(&bytes[..cut]).is_err(), "cut at {}", cut);
    }

    /// A single flipped bit anywhere but the tag byte is caught: the
    /// length/version checks or the payload CRC reject the frame. (The
    /// tag byte sits outside the CRC; a flipped tag surfaces one layer
    /// up as `BadTag`/`Truncated`/`TrailingBytes` from the body
    /// decoders, covered by `arbitrary_bytes_never_panic`.)
    #[test]
    fn flipped_bits_are_detected(resp in arb_response(), sel in any::<u64>(), bit in 0u8..8) {
        let mut bytes = encode_response(&resp);
        let mut byte = (sel as usize) % bytes.len();
        if byte == 5 {
            byte = 6; // remap the tag byte onto the CRC field
        }
        bytes[byte] ^= 1 << bit;
        prop_assert!(decode_frame_bytes(&bytes).is_err(), "flip at byte {} bit {}", byte, bit);
    }

    /// A length prefix past [`MAX_FRAME_LEN`] is rejected *before* any
    /// buffer is sized from it: a 10-byte input claiming gigabytes must
    /// fail as `BadLength`, not attempt the allocation.
    #[test]
    fn oversized_length_prefix_rejected_without_allocating(
        len in (MAX_FRAME_LEN + 1)..=u32::MAX,
    ) {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(&[1, tag::HELLO, 0, 0, 0, 0]);
        prop_assert_eq!(decode_frame_bytes(&bytes), Err(ProtocolError::BadLength { len }));
    }

    /// A rows header lying about its row count (more rows than the
    /// frame can possibly hold) is a typed payload error — the count is
    /// validated against the bytes actually present before any
    /// reservation.
    #[test]
    fn lying_row_counts_are_rejected(
        n_rows in 1u32..=u32::MAX,
        n_dims in 1u32..4,
        n_aggs in 0u32..4,
    ) {
        let mut p = Vec::new();
        p.extend_from_slice(&n_rows.to_le_bytes());
        p.extend_from_slice(&n_dims.to_le_bytes());
        p.extend_from_slice(&n_aggs.to_le_bytes());
        // No row bytes at all follow the header.
        let frame = encode_frame(tag::ROWS, &p);
        let (t, payload) = decode_frame_bytes(&frame)
            .map_err(|e| TestCaseError::fail(format!("frame rejected: {e}")))?;
        prop_assert!(matches!(
            decode_response(t, &payload),
            Err(ProtocolError::BadPayload { .. })
        ));
    }

    /// Same for string counts inside error frames: a `Degraded` frame
    /// claiming a huge relation-name length fails typed.
    #[test]
    fn lying_string_counts_are_rejected(count in 64u32..=u32::MAX) {
        let mut p = vec![2u8]; // Degraded discriminant
        p.extend_from_slice(&count.to_le_bytes());
        p.extend_from_slice(b"short"); // far fewer bytes than claimed
        let frame = encode_frame(tag::ERROR, &p);
        let (t, payload) = decode_frame_bytes(&frame)
            .map_err(|e| TestCaseError::fail(format!("frame rejected: {e}")))?;
        prop_assert!(matches!(
            decode_response(t, &payload),
            Err(ProtocolError::BadPayload { .. })
        ));
    }
}

// ---------------------------------------------------------------------
// Malformed corpus: deterministic nasty frames
// ---------------------------------------------------------------------

/// Build a frame with hand-rolled payload bytes under a given tag.
fn frame(t: u8, payload: &[u8]) -> (u8, Vec<u8>) {
    let bytes = encode_frame(t, payload);
    match decode_frame_bytes(&bytes) {
        Ok(pair) => pair,
        Err(e) => panic!("corpus frame must pass the frame layer: {e}"),
    }
}

#[test]
fn corpus_truncations_and_bad_lengths() {
    // Empty input and every prefix of the minimal frame.
    assert!(decode_frame_bytes(&[]).is_err());
    let hello = encode_request(&Request::Hello);
    for cut in 0..hello.len() {
        assert!(decode_frame_bytes(&hello[..cut]).is_err(), "cut at {cut}");
    }
    // len shorter than the fixed header (version + tag + crc).
    for len in 0u32..6 {
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[1, tag::HELLO, 0, 0, 0, 0]);
        assert_eq!(decode_frame_bytes(&bytes), Err(ProtocolError::BadLength { len }));
    }
    // A complete valid frame with garbage appended.
    let mut extra = hello.clone();
    extra.push(0xEE);
    assert_eq!(decode_frame_bytes(&extra), Err(ProtocolError::TrailingBytes));
}

#[test]
fn corpus_bad_version_bytes() {
    let mut bytes = encode_request(&Request::Node { node: 1, deadline_ms: 0 });
    // Version 1 is the previous protocol, which carried an iceberg request.
    for v in [0u8, 1, 0x7F, 0xFF] {
        bytes[4] = v;
        assert_eq!(decode_frame_bytes(&bytes), Err(ProtocolError::BadVersion { got: v }));
    }
}

#[test]
fn corpus_unknown_tags() {
    for t in [0x00u8, 0x04, 0x42, 0x80, 0x84, 0xFF] {
        let (got, payload) = frame(t, &[]);
        assert_eq!(decode_request(got, &payload), Err(ProtocolError::BadTag { tag: t }));
        assert_eq!(decode_response(got, &payload), Err(ProtocolError::BadTag { tag: t }));
    }
}

#[test]
fn corpus_bad_enum_bytes() {
    // HelloAck with a read-path byte that is neither 0 nor 1.
    let mut p = Vec::new();
    p.extend_from_slice(&0u32.to_le_bytes());
    p.extend_from_slice(&81u64.to_le_bytes());
    p.push(7);
    let (t, payload) = frame(tag::HELLO_ACK, &p);
    assert!(matches!(decode_response(t, &payload), Err(ProtocolError::BadPayload { .. })));

    // Error frame with an unknown variant discriminant.
    let (t, payload) = frame(tag::ERROR, &[9]);
    assert!(matches!(decode_response(t, &payload), Err(ProtocolError::BadPayload { .. })));

    // Upstream error with an unknown kind byte.
    let mut p = vec![4u8, 200];
    p.extend_from_slice(&0u32.to_le_bytes());
    let (t, payload) = frame(tag::ERROR, &p);
    assert!(matches!(decode_response(t, &payload), Err(ProtocolError::BadPayload { .. })));
}

#[test]
fn corpus_invalid_utf8_strings() {
    let mut p = vec![2u8]; // Degraded discriminant
    p.extend_from_slice(&4u32.to_le_bytes());
    p.extend_from_slice(&[0xFF, 0xFE, 0x80, 0x80]);
    let (t, payload) = frame(tag::ERROR, &p);
    assert!(matches!(decode_response(t, &payload), Err(ProtocolError::BadPayload { .. })));
}

#[test]
fn corpus_trailing_payload_bytes() {
    // A Node request with one extra byte after its fields.
    let mut p = Vec::new();
    p.extend_from_slice(&3u64.to_le_bytes());
    p.extend_from_slice(&0u32.to_le_bytes());
    p.push(0xAB);
    let (t, payload) = frame(tag::NODE, &p);
    assert_eq!(decode_request(t, &payload), Err(ProtocolError::TrailingBytes));

    // An Overloaded error with trailing junk.
    let (t, payload) = frame(tag::ERROR, &[1, 0, 0]);
    assert_eq!(decode_response(t, &payload), Err(ProtocolError::TrailingBytes));
}
