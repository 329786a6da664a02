//! The socket wire protocol for sharded serving: small length-prefixed
//! binary frames for node queries.
//!
//! Every frame is
//!
//! ```text
//! ┌──────────┬─────────┬───────┬───────────────┬───────────────┐
//! │ len: u32 │ ver: u8 │ tag:u8│ crc32: u32    │ payload …     │
//! │ (LE)     │  = 2    │       │ of payload,LE │ len − 6 bytes │
//! └──────────┴─────────┴───────┴───────────────┴───────────────┘
//! ```
//!
//! `len` counts everything after the length prefix (version, tag, crc,
//! payload). Integers are little-endian throughout. The CRC uses the
//! same CRC-32 the storage pages use, so a flipped payload byte is
//! caught before any field is trusted.
//!
//! Decoding is **allocation-bounded**: a length prefix is validated
//! against [`MAX_FRAME_LEN`] *before* any buffer is sized from it, and
//! every in-payload count is validated against the bytes actually
//! remaining, so a malicious or corrupt frame can neither over-allocate
//! nor panic — it fails with a typed [`ProtocolError`].
//!
//! Typed server failures travel as [`RemoteError`] frames mirroring
//! [`ServeError`]: the four structured variants round-trip exactly, and
//! everything else carries its [`ServeErrorKind`] so the client counts
//! the failure under the same metrics class the server did.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::io::{Read, Write};

use cure_core::NodeId;
use cure_query::CubeRow;
use cure_storage::checksum::crc32;

use crate::metrics::ServeErrorKind;
use crate::service::ServeError;

/// Protocol version this build speaks.
pub const WIRE_VERSION: u8 = 2;

/// Hard cap on `len` (bytes after the length prefix). Large enough for
/// any realistic node answer, small enough that a hostile length prefix
/// cannot over-allocate.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Bytes of the fixed header that `len` includes (version + tag + crc).
const FIXED: u32 = 6;

/// Frame tags. Requests use the low range, responses the high range.
pub mod tag {
    /// Client handshake.
    pub const HELLO: u8 = 0x01;
    /// Node query request.
    pub const NODE: u8 = 0x02;
    /// Handshake acknowledgement.
    pub const HELLO_ACK: u8 = 0x81;
    /// Row-set answer.
    pub const ROWS: u8 = 0x82;
    /// Typed failure answer.
    pub const ERROR: u8 = 0x83;
}

/// A request frame, client → shard server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Open a session: the server answers with [`Response::HelloAck`].
    Hello,
    /// Answer node `node` from this shard's sub-cube.
    Node {
        /// Lattice node id.
        node: NodeId,
        /// Remaining deadline budget in milliseconds; `0` = none.
        deadline_ms: u32,
    },
}

/// A typed server failure on the wire — mirrors [`ServeError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteError {
    /// The request's deadline passed on the server.
    Timeout {
        /// The node that was being queried.
        node: NodeId,
    },
    /// The server's connection pool or admission control shed the
    /// request.
    Overloaded,
    /// The server-side circuit breaker for `relation` is open.
    Degraded {
        /// The relation whose breaker is open.
        relation: String,
    },
    /// A corrupt (quarantined) page on the server.
    Corrupt {
        /// The relation holding the bad page.
        relation: String,
        /// Zero-based page number.
        page: u64,
    },
    /// Any other server failure, carried with its metrics class.
    Upstream {
        /// The server's classification of the failure.
        kind: ServeErrorKind,
        /// The failure rendered as text.
        detail: String,
    },
}

impl RemoteError {
    /// Build the wire form of a server-side failure.
    pub fn from_serve_error(e: &ServeError) -> Self {
        match e {
            ServeError::Timeout { node } => RemoteError::Timeout { node: *node },
            ServeError::Overloaded => RemoteError::Overloaded,
            ServeError::Degraded { relation } => {
                RemoteError::Degraded { relation: relation.clone() }
            }
            ServeError::Corrupt { relation, page } => {
                RemoteError::Corrupt { relation: relation.clone(), page: *page }
            }
            other => RemoteError::Upstream { kind: other.kind(), detail: other.to_string() },
        }
    }

    /// Reconstruct the client-side [`ServeError`].
    pub fn into_serve_error(self) -> ServeError {
        match self {
            RemoteError::Timeout { node } => ServeError::Timeout { node },
            RemoteError::Overloaded => ServeError::Overloaded,
            RemoteError::Degraded { relation } => ServeError::Degraded { relation },
            RemoteError::Corrupt { relation, page } => ServeError::Corrupt { relation, page },
            RemoteError::Upstream { kind, detail } => ServeError::Upstream { kind, detail },
        }
    }
}

/// A response frame, shard server → client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Handshake answer: what the server is serving.
    HelloAck {
        /// Which shard this server holds.
        shard: u32,
        /// Lattice size of the served sub-cube.
        num_nodes: NodeId,
        /// Whether the server reads through mmap (`true`) or the shared
        /// page cache (`false`).
        mmap: bool,
    },
    /// The answer rows of a node query.
    Rows(Vec<CubeRow>),
    /// A typed failure.
    Error(RemoteError),
}

/// Why a frame was rejected. Every malformed input lands here — decode
/// paths never panic and never allocate more than the declared,
/// validated frame length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The frame ended before its declared length (or a field's).
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_LEN`] (or is shorter than
    /// the fixed header).
    BadLength {
        /// The declared length.
        len: u32,
    },
    /// The version byte is not [`WIRE_VERSION`].
    BadVersion {
        /// The version the peer sent.
        got: u8,
    },
    /// The payload failed its CRC-32 check.
    BadCrc,
    /// An unknown frame tag (or a tag invalid in this direction).
    BadTag {
        /// The tag byte received.
        tag: u8,
    },
    /// A structurally invalid payload (bad enum discriminant, count
    /// exceeding the remaining bytes, invalid UTF-8, …).
    BadPayload {
        /// What was wrong.
        detail: String,
    },
    /// The payload decoded cleanly but had bytes left over.
    TrailingBytes,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "frame truncated"),
            ProtocolError::BadLength { len } => write!(f, "bad frame length {len}"),
            ProtocolError::BadVersion { got } => {
                write!(f, "unsupported wire version {got} (want {WIRE_VERSION})")
            }
            ProtocolError::BadCrc => write!(f, "payload failed CRC check"),
            ProtocolError::BadTag { tag } => write!(f, "unknown frame tag {tag:#04x}"),
            ProtocolError::BadPayload { detail } => write!(f, "bad payload: {detail}"),
            ProtocolError::TrailingBytes => write!(f, "payload has trailing bytes"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<ProtocolError> for ServeError {
    fn from(e: ProtocolError) -> Self {
        ServeError::Protocol { detail: e.to_string() }
    }
}

/// Failure reading one frame off a stream: transport versus protocol.
#[derive(Debug)]
pub enum ReadFrameError {
    /// The transport failed (timeout, reset, EOF mid-frame, …).
    Io(std::io::Error),
    /// The bytes arrived but violate the protocol.
    Protocol(ProtocolError),
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Wrap `payload` into a complete frame under `tag`.
pub fn encode_frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let len = FIXED + payload.len() as u32;
    let mut out = Vec::with_capacity(4 + len as usize);
    put_u32(&mut out, len);
    out.push(WIRE_VERSION);
    out.push(tag);
    put_u32(&mut out, crc32(payload));
    out.extend_from_slice(payload);
    out
}

/// Encode a request into its frame bytes.
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Hello => encode_frame(tag::HELLO, &[]),
        Request::Node { node, deadline_ms } => {
            let mut p = Vec::with_capacity(12);
            put_u64(&mut p, *node);
            put_u32(&mut p, *deadline_ms);
            encode_frame(tag::NODE, &p)
        }
    }
}

fn encode_error_payload(e: &RemoteError) -> Vec<u8> {
    let mut p = Vec::with_capacity(32);
    match e {
        RemoteError::Timeout { node } => {
            p.push(0);
            put_u64(&mut p, *node);
        }
        RemoteError::Overloaded => p.push(1),
        RemoteError::Degraded { relation } => {
            p.push(2);
            put_str(&mut p, relation);
        }
        RemoteError::Corrupt { relation, page } => {
            p.push(3);
            put_str(&mut p, relation);
            put_u64(&mut p, *page);
        }
        RemoteError::Upstream { kind, detail } => {
            p.push(4);
            p.push(encode_kind(*kind));
            put_str(&mut p, detail);
        }
    }
    p
}

fn encode_kind(k: ServeErrorKind) -> u8 {
    match k {
        ServeErrorKind::Io => 0,
        ServeErrorKind::Corrupt => 1,
        ServeErrorKind::Timeout => 2,
        ServeErrorKind::Shed => 3,
        ServeErrorKind::Degraded => 4,
        ServeErrorKind::Protocol => 5,
        ServeErrorKind::Other => 6,
    }
}

fn decode_kind(b: u8) -> Result<ServeErrorKind, ProtocolError> {
    Ok(match b {
        0 => ServeErrorKind::Io,
        1 => ServeErrorKind::Corrupt,
        2 => ServeErrorKind::Timeout,
        3 => ServeErrorKind::Shed,
        4 => ServeErrorKind::Degraded,
        5 => ServeErrorKind::Protocol,
        6 => ServeErrorKind::Other,
        t => return Err(ProtocolError::BadPayload { detail: format!("bad error-kind byte {t}") }),
    })
}

/// Encode a response into its frame bytes.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::HelloAck { shard, num_nodes, mmap } => {
            let mut p = Vec::with_capacity(13);
            put_u32(&mut p, *shard);
            put_u64(&mut p, *num_nodes);
            p.push(u8::from(*mmap));
            encode_frame(tag::HELLO_ACK, &p)
        }
        Response::Rows(rows) => {
            let (n_dims, n_aggs) =
                rows.first().map(|(d, a)| (d.len() as u32, a.len() as u32)).unwrap_or((0, 0));
            let mut p =
                Vec::with_capacity(12 + rows.len() * (4 * n_dims as usize + 8 * n_aggs as usize));
            put_u32(&mut p, rows.len() as u32);
            put_u32(&mut p, n_dims);
            put_u32(&mut p, n_aggs);
            for (dims, aggs) in rows {
                for &d in dims {
                    put_u32(&mut p, d);
                }
                for &a in aggs {
                    put_i64(&mut p, a);
                }
            }
            encode_frame(tag::ROWS, &p)
        }
        Response::Error(e) => encode_frame(tag::ERROR, &encode_error_payload(e)),
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ProtocolError::Truncated)?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn i64(&mut self) -> Result<i64, ProtocolError> {
        Ok(self.u64()? as i64)
    }

    /// A count that will size an allocation of `elem_size`-byte items:
    /// bounded by the bytes actually remaining, so a corrupt count can
    /// never force a large reservation.
    fn count(&mut self, elem_size: usize) -> Result<usize, ProtocolError> {
        let n = self.u32()? as usize;
        if n.checked_mul(elem_size.max(1)).is_none_or(|total| total > self.remaining()) {
            return Err(ProtocolError::BadPayload {
                detail: format!("count {n} exceeds remaining {} bytes", self.remaining()),
            });
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, ProtocolError> {
        let n = self.count(1)?;
        let s = self.take(n)?;
        String::from_utf8(s.to_vec())
            .map_err(|_| ProtocolError::BadPayload { detail: "invalid utf-8".into() })
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtocolError::TrailingBytes)
        }
    }
}

/// Decode a request from a `(tag, payload)` pair read off the wire.
pub fn decode_request(frame_tag: u8, payload: &[u8]) -> Result<Request, ProtocolError> {
    let mut c = Cursor::new(payload);
    let req = match frame_tag {
        tag::HELLO => Request::Hello,
        tag::NODE => Request::Node { node: c.u64()?, deadline_ms: c.u32()? },
        t => return Err(ProtocolError::BadTag { tag: t }),
    };
    c.finish()?;
    Ok(req)
}

/// Decode a response from a `(tag, payload)` pair read off the wire.
pub fn decode_response(frame_tag: u8, payload: &[u8]) -> Result<Response, ProtocolError> {
    let mut c = Cursor::new(payload);
    let resp = match frame_tag {
        tag::HELLO_ACK => {
            let shard = c.u32()?;
            let num_nodes = c.u64()?;
            let mmap = match c.u8()? {
                0 => false,
                1 => true,
                b => {
                    return Err(ProtocolError::BadPayload {
                        detail: format!("bad read-path byte {b}"),
                    })
                }
            };
            Response::HelloAck { shard, num_nodes, mmap }
        }
        tag::ROWS => {
            let n_rows = c.u32()? as usize;
            let n_dims = c.u32()? as usize;
            let n_aggs = c.u32()? as usize;
            let row_bytes = n_dims
                .checked_mul(4)
                .and_then(|d| n_aggs.checked_mul(8).map(|a| d + a))
                .ok_or(ProtocolError::BadLength { len: u32::MAX })?;
            if n_rows.checked_mul(row_bytes.max(1)).is_none_or(|total| total > c.remaining()) {
                return Err(ProtocolError::BadPayload {
                    detail: format!("{n_rows} rows × {row_bytes} bytes exceed the frame"),
                });
            }
            let mut rows = Vec::with_capacity(n_rows);
            for _ in 0..n_rows {
                let mut dims = Vec::with_capacity(n_dims);
                for _ in 0..n_dims {
                    dims.push(c.u32()?);
                }
                let mut aggs = Vec::with_capacity(n_aggs);
                for _ in 0..n_aggs {
                    aggs.push(c.i64()?);
                }
                rows.push((dims, aggs));
            }
            Response::Rows(rows)
        }
        tag::ERROR => Response::Error(match c.u8()? {
            0 => RemoteError::Timeout { node: c.u64()? },
            1 => RemoteError::Overloaded,
            2 => RemoteError::Degraded { relation: c.string()? },
            3 => RemoteError::Corrupt { relation: c.string()?, page: c.u64()? },
            4 => {
                let kind = decode_kind(c.u8()?)?;
                RemoteError::Upstream { kind, detail: c.string()? }
            }
            t => {
                return Err(ProtocolError::BadPayload { detail: format!("bad error variant {t}") })
            }
        }),
        t => return Err(ProtocolError::BadTag { tag: t }),
    };
    c.finish()?;
    Ok(resp)
}

/// Read one complete frame: returns the `(tag, payload)` pair after the
/// header is validated and the payload passes its CRC. Allocation is
/// bounded by [`MAX_FRAME_LEN`], checked before any buffer is sized.
pub fn read_frame<R: Read>(r: &mut R) -> Result<(u8, Vec<u8>), ReadFrameError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf).map_err(ReadFrameError::Io)?;
    let len = u32::from_le_bytes(len_buf);
    if !(FIXED..=MAX_FRAME_LEN).contains(&len) {
        return Err(ReadFrameError::Protocol(ProtocolError::BadLength { len }));
    }
    let mut head = [0u8; 6];
    r.read_exact(&mut head).map_err(ReadFrameError::Io)?;
    let version = head[0];
    let frame_tag = head[1];
    let crc = u32::from_le_bytes([head[2], head[3], head[4], head[5]]);
    if version != WIRE_VERSION {
        return Err(ReadFrameError::Protocol(ProtocolError::BadVersion { got: version }));
    }
    let mut payload = vec![0u8; (len - FIXED) as usize];
    r.read_exact(&mut payload).map_err(ReadFrameError::Io)?;
    if crc32(&payload) != crc {
        return Err(ReadFrameError::Protocol(ProtocolError::BadCrc));
    }
    Ok((frame_tag, payload))
}

/// Write a pre-encoded frame to the stream.
pub fn write_frame<W: Write>(w: &mut W, frame: &[u8]) -> std::io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decode one frame from an in-memory buffer (the socket paths use
    /// [`read_frame`]).
    fn decode_frame_bytes(bytes: &[u8]) -> Result<(u8, Vec<u8>), ProtocolError> {
        let mut r = bytes;
        match read_frame(&mut r) {
            Ok(pair) if r.is_empty() => Ok(pair),
            Ok(_) => Err(ProtocolError::TrailingBytes),
            Err(ReadFrameError::Protocol(p)) => Err(p),
            Err(ReadFrameError::Io(_)) => Err(ProtocolError::Truncated),
        }
    }

    fn round_trip_request(req: Request) {
        let bytes = encode_request(&req);
        let (t, payload) = decode_frame_bytes(&bytes).unwrap();
        assert_eq!(decode_request(t, &payload).unwrap(), req);
    }

    fn round_trip_response(resp: Response) {
        let bytes = encode_response(&resp);
        let (t, payload) = decode_frame_bytes(&bytes).unwrap();
        assert_eq!(decode_response(t, &payload).unwrap(), resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Hello);
        round_trip_request(Request::Node { node: 0, deadline_ms: 0 });
        round_trip_request(Request::Node { node: u64::MAX, deadline_ms: 25 });
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::HelloAck { shard: 3, num_nodes: 81, mmap: true });
        round_trip_response(Response::Rows(vec![]));
        round_trip_response(Response::Rows(vec![
            (vec![1, 2], vec![10, -20]),
            (vec![3, 4], vec![i64::MIN, i64::MAX]),
        ]));
        round_trip_response(Response::Error(RemoteError::Timeout { node: 9 }));
        round_trip_response(Response::Error(RemoteError::Overloaded));
        round_trip_response(Response::Error(RemoteError::Degraded { relation: "facts".into() }));
        round_trip_response(Response::Error(RemoteError::Corrupt {
            relation: "shard0_facts".into(),
            page: 12,
        }));
        round_trip_response(Response::Error(RemoteError::Upstream {
            kind: ServeErrorKind::Io,
            detail: "disk on fire".into(),
        }));
    }

    #[test]
    fn serve_errors_round_trip_through_remote_error() {
        let cases = [
            ServeError::Timeout { node: 4 },
            ServeError::Overloaded,
            ServeError::Degraded { relation: "facts".into() },
            ServeError::Corrupt { relation: "facts".into(), page: 3 },
            ServeError::Unavailable { endpoint: "shard0@1.2.3.4:5".into() },
            ServeError::Protocol { detail: "bad crc".into() },
        ];
        for e in cases {
            let kind = e.kind();
            let back = RemoteError::from_serve_error(&e).into_serve_error();
            assert_eq!(back.kind(), kind, "kind must survive the wire for {e}");
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        bytes.extend_from_slice(&[WIRE_VERSION, tag::HELLO, 0, 0, 0, 0]);
        assert_eq!(
            decode_frame_bytes(&bytes),
            Err(ProtocolError::BadLength { len: MAX_FRAME_LEN + 1 })
        );
        // Undersized too: len must at least cover the fixed header.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[WIRE_VERSION, tag::HELLO]);
        assert_eq!(decode_frame_bytes(&bytes), Err(ProtocolError::BadLength { len: 2 }));
    }

    #[test]
    fn bad_version_and_flipped_bytes_are_typed_errors() {
        let good = encode_request(&Request::Node { node: 5, deadline_ms: 10 });
        let mut bad = good.clone();
        bad[4] = WIRE_VERSION + 1;
        assert_eq!(
            decode_frame_bytes(&bad),
            Err(ProtocolError::BadVersion { got: WIRE_VERSION + 1 })
        );
        // Flip one payload byte: CRC catches it.
        let mut bad = good.clone();
        let n = bad.len();
        bad[n - 1] ^= 0x40;
        assert_eq!(decode_frame_bytes(&bad), Err(ProtocolError::BadCrc));
        // Truncate anywhere: typed, never a panic.
        for cut in 0..good.len() {
            assert!(decode_frame_bytes(&good[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn unknown_tags_are_rejected_in_both_directions() {
        // 0x03 was the version-1 iceberg request.
        for tag in [0x7F, 0x03] {
            let frame = encode_frame(tag, &[]);
            let (t, p) = decode_frame_bytes(&frame).unwrap();
            assert_eq!(decode_request(t, &p), Err(ProtocolError::BadTag { tag }));
            assert_eq!(decode_response(t, &p), Err(ProtocolError::BadTag { tag }));
        }
        // A response tag is not a valid request and vice versa.
        let (t, p) = decode_frame_bytes(&encode_response(&Response::Rows(vec![]))).unwrap();
        assert!(matches!(decode_request(t, &p), Err(ProtocolError::BadTag { .. })));
        let (t, p) = decode_frame_bytes(&encode_request(&Request::Hello)).unwrap();
        assert!(matches!(decode_response(t, &p), Err(ProtocolError::BadTag { .. })));
    }

    #[test]
    fn row_counts_are_validated_against_the_frame() {
        // A rows payload claiming 2^31 rows must fail without reserving.
        let mut p = Vec::new();
        put_u32(&mut p, u32::MAX);
        put_u32(&mut p, 2);
        put_u32(&mut p, 1);
        let frame = encode_frame(tag::ROWS, &p);
        let (t, payload) = decode_frame_bytes(&frame).unwrap();
        assert!(matches!(decode_response(t, &payload), Err(ProtocolError::BadPayload { .. })));
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let mut p = Vec::new();
        put_u64(&mut p, 3);
        put_u32(&mut p, 0);
        p.push(0xAA); // one byte too many
        let frame = encode_frame(tag::NODE, &p);
        let (t, payload) = decode_frame_bytes(&frame).unwrap();
        assert_eq!(decode_request(t, &payload), Err(ProtocolError::TrailingBytes));
    }
}
