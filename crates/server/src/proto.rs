//! The serve wire protocol: length-prefixed text frames.
//!
//! Every message — request or reply — is one *frame*: a 4-byte
//! little-endian payload length followed by that many bytes of UTF-8
//! text. Requests carry a [`QuerySpec`](gstore_core::spec::QuerySpec)
//! in its canonical text form
//! (`bfs:0`, `neighbors:17`, …); replies carry one of
//!
//! ```text
//! OK <encoded QueryValue>     the query's result (QueryValue::encode)
//! ERR <code> <message>        a typed error; the connection stays open
//! BUSY                        admission queue full — retry later
//! ```
//!
//! `<code>` is a stable snake_case rendering of the [`GraphError`]
//! variant (`io`, `format`, `vertex_out_of_range`, `invalid_parameter`),
//! so clients can react to the error class without parsing prose. A
//! malformed *frame* (oversized length or invalid UTF-8) is the only
//! thing that tears a connection down; malformed *queries* get `ERR`.

use gstore_core::QueryValue;
use gstore_graph::GraphError;
use std::io::{self, Read, Write};

/// Ceiling on one frame's payload, protecting both sides from a garbage
/// length prefix. Generous: the largest legitimate reply is a k-hop list,
/// which at 20 bytes per vertex still fits millions of ids.
pub const MAX_FRAME: usize = 64 << 20;

/// Ceiling on a *request* frame as the daemon reads it. Requests are
/// `QuerySpec` text (tens of bytes); a header claiming more tears the
/// connection down before anything is allocated for it.
pub const MAX_REQUEST: usize = 64 << 10;

/// Bytes of the `u32` LE length prefix.
const HEADER: usize = 4;

/// Buffer capacity a connection keeps between frames; one that grew past
/// this for a huge reply is released instead of pinned for the
/// connection's life.
const KEEP_CAPACITY: usize = 1 << 20;

/// Assembles one whole frame in `buf`: reserves the header, lets `fill`
/// append the payload, then back-patches the length. The caller sends
/// `buf` with a single `write_all`, so header and payload leave in one
/// segment — two writes on a TCP socket make the second wait (Nagle) for
/// an ACK the peer delays by ~40 ms.
pub(crate) fn build_frame(buf: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
    buf.clear();
    buf.extend_from_slice(&[0; HEADER]);
    fill(buf);
    let len = buf.len() - HEADER;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    buf[..HEADER].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// Drops a buffer that one oversized frame grew past [`KEEP_CAPACITY`].
pub(crate) fn trim_buffer(buf: &mut Vec<u8>) {
    if buf.capacity() > KEEP_CAPACITY {
        *buf = Vec::new();
    }
}

/// Writes one frame: `u32` LE length + payload, as a single `write`.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let mut frame = Vec::with_capacity(HEADER + payload.len());
    build_frame(&mut frame, |buf| buf.extend_from_slice(payload.as_bytes()))?;
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame's payload into `buf`, refusing a length above `max`
/// before allocating for it. `Ok(false)` is a clean end of stream (the
/// peer closed between frames); an EOF in the middle of a frame is an
/// error. `buf` grows with the bytes that actually arrive, never with the
/// length the header merely claims.
pub(crate) fn read_frame_into(
    r: &mut impl Read,
    max: usize,
    buf: &mut Vec<u8>,
) -> io::Result<bool> {
    let mut len_buf = [0u8; HEADER];
    // A clean close may surface as 0 bytes before any header byte.
    match r.read(&mut len_buf) {
        Ok(0) => return Ok(false),
        Ok(n) => r.read_exact(&mut len_buf[n..])?,
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(false),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {max}-byte limit"),
        ));
    }
    buf.clear();
    // Room for a typical frame in one step; past that `read_to_end` grows
    // the buffer only as bytes arrive.
    buf.reserve(len.min(MAX_REQUEST));
    if r.by_ref().take(len as u64).read_to_end(buf)? < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame truncated at {} of {len} bytes", buf.len()),
        ));
    }
    Ok(true)
}

/// Reads one frame. `Ok(None)` is a clean end of stream (the peer closed
/// between frames); an EOF in the middle of a frame is an error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut payload = Vec::new();
    if !read_frame_into(r, MAX_FRAME, &mut payload)? {
        return Ok(None);
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// A frame payload as text; anything else is a malformed frame.
pub(crate) fn frame_text(payload: &[u8]) -> io::Result<&str> {
    std::str::from_utf8(payload)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// Stable error class carried in an `ERR` reply.
pub fn error_code(e: &GraphError) -> &'static str {
    match e {
        GraphError::Io(_) => "io",
        GraphError::Format(_) => "format",
        GraphError::VertexOutOfRange { .. } => "vertex_out_of_range",
        GraphError::InvalidParameter(_) => "invalid_parameter",
    }
}

/// One reply frame, decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The query's result.
    Value(QueryValue),
    /// A typed error; the connection survives.
    Error { code: String, message: String },
    /// Admission queue full; resubmit later.
    Busy,
}

impl Reply {
    /// Wraps a [`GraphError`] as a typed `ERR` reply.
    pub fn error(e: &GraphError) -> Reply {
        Reply::Error {
            code: error_code(e).to_string(),
            message: e.to_string(),
        }
    }

    /// The reply's frame payload.
    pub fn encode(&self) -> String {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        String::from_utf8(out).expect("replies are built from UTF-8 text")
    }

    /// Appends [`Self::encode`]'s text to `out` — for the daemon, the
    /// connection's frame buffer, so a reply is written once, in place.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Reply::Value(v) => {
                out.extend_from_slice(b"OK ");
                v.encode_into(out);
            }
            Reply::Error { code, message } => {
                out.extend_from_slice(b"ERR ");
                out.extend_from_slice(code.as_bytes());
                out.push(b' ');
                // Keep the payload one line: the frame is text, and a
                // multi-line message would complicate logging clients.
                // `\n` is a single byte in UTF-8, so the swap is bytewise.
                out.extend(message.bytes().map(|b| if b == b'\n' { b' ' } else { b }));
            }
            Reply::Busy => out.extend_from_slice(b"BUSY"),
        }
    }

    /// Parses a reply frame payload.
    pub fn parse(line: &str) -> io::Result<Reply> {
        let bad = |why: &str| io::Error::new(io::ErrorKind::InvalidData, why.to_string());
        if line == "BUSY" {
            return Ok(Reply::Busy);
        }
        if let Some(rest) = line.strip_prefix("OK ") {
            let value =
                QueryValue::decode(rest).map_err(|e| bad(&format!("bad OK payload: {e}")))?;
            return Ok(Reply::Value(value));
        }
        if let Some(rest) = line.strip_prefix("ERR ") {
            let (code, message) = rest.split_once(' ').unwrap_or((rest, ""));
            if code.is_empty() {
                return Err(bad("ERR reply without a code"));
            }
            return Ok(Reply::Error {
                code: code.to_string(),
                message: message.to_string(),
            });
        }
        Err(bad("unknown reply tag"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "bfs:0").unwrap();
        write_frame(&mut buf, "").unwrap();
        write_frame(&mut buf, "wcc").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "bfs:0");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "wcc");
        assert_eq!(read_frame(&mut r).unwrap(), None); // clean EOF
    }

    /// Counts `write` calls; accepts whatever it is given.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// One `write` per frame is what keeps header and payload in one TCP
    /// segment; a second one would wait out the peer's delayed ACK.
    #[test]
    fn a_frame_is_one_write() {
        for len in [0, 5, 64 << 10] {
            let payload = "x".repeat(len);
            let mut w = CountingWriter::default();
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.writes, 1, "{len}-byte payload");
            assert_eq!(w.bytes.len(), 4 + len);
            assert_eq!(
                read_frame(&mut w.bytes.as_slice()).unwrap().unwrap(),
                payload
            );
        }
    }

    #[test]
    fn wire_image_is_pinned() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "degree:7").unwrap();
        assert_eq!(wire, b"\x08\0\0\0degree:7");

        // A reply built in place (the daemon's path) and one sent through
        // `write_frame(encode())` are the same bytes.
        let reply = Reply::Value(QueryValue::Neighbors(vec![1, 20, 300]));
        let mut in_place = Vec::new();
        build_frame(&mut in_place, |buf| reply.encode_into(buf)).unwrap();
        assert_eq!(in_place, b"\x1b\0\0\0OK neighbors n=3 v=1,20,300");
        wire.clear();
        write_frame(&mut wire, &reply.encode()).unwrap();
        assert_eq!(wire, in_place);

        let multi_line = Reply::Error {
            code: "io".into(),
            message: "disk\ngone".into(),
        };
        assert_eq!(multi_line.encode(), "ERR io disk gone");
        assert_eq!(Reply::Busy.encode(), "BUSY");
    }

    /// A header may claim up to `max` bytes, but memory follows the bytes
    /// that arrive: a 4-byte header alone must not buy a 64 MiB buffer.
    #[test]
    fn buffer_grows_with_bytes_received_not_with_the_claim() {
        let mut wire = (MAX_FRAME as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(b"only these");
        let mut buf = Vec::new();
        let err = read_frame_into(&mut wire.as_slice(), MAX_FRAME, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(buf.capacity() <= MAX_REQUEST, "{} bytes", buf.capacity());

        // Above the caller's limit nothing is read or reserved at all.
        let mut wire = (MAX_REQUEST as u32 + 1).to_le_bytes().to_vec();
        wire.extend_from_slice(b"xx");
        let mut buf = Vec::new();
        let err = read_frame_into(&mut wire.as_slice(), MAX_REQUEST, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(buf.capacity(), 0);
    }

    #[test]
    fn truncated_frame_is_an_error_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "pagerank:20").unwrap();
        buf.truncate(7); // header + 3 payload bytes
        let mut r = buf.as_slice();
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn oversized_length_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(b"xx");
        let mut r = buf.as_slice();
        assert!(read_frame(&mut r).is_err());
        let mut sink = Vec::new();
        let huge = "x".repeat(MAX_FRAME + 1);
        assert!(write_frame(&mut sink, &huge).is_err());
    }

    #[test]
    fn replies_round_trip() {
        let cases = [
            Reply::Value(QueryValue::Degree(7)),
            Reply::Value(QueryValue::Neighbors(vec![1, 2, 3])),
            Reply::Error {
                code: "vertex_out_of_range".into(),
                message: "vertex 99 out of range (vertex_count=10)".into(),
            },
            Reply::Busy,
        ];
        for reply in cases {
            assert_eq!(Reply::parse(&reply.encode()).unwrap(), reply);
        }
    }

    #[test]
    fn error_reply_from_graph_error_is_typed() {
        let e = GraphError::VertexOutOfRange {
            vertex: 99,
            vertex_count: 10,
        };
        match Reply::error(&e) {
            Reply::Error { code, message } => {
                assert_eq!(code, "vertex_out_of_range");
                assert!(message.contains("99"));
            }
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(error_code(&GraphError::Format("x".into())), "format");
        assert_eq!(
            error_code(&GraphError::Io(std::io::Error::other("x"))),
            "io"
        );
    }

    #[test]
    fn malformed_replies_are_rejected() {
        for bad in ["", "NOPE", "OK", "OK bogus x=1", "ERR "] {
            assert!(Reply::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
