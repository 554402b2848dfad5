//! A minimal hand-rolled HTTP/1.1 layer: request parsing, response
//! writing, chunked transfer encoding. Just enough protocol for the
//! region-call server — the build is offline, so no hyper/tokio.
//!
//! Connection reuse: HTTP/1.1 requests default to keep-alive and
//! HTTP/1.0 to close, with an explicit `Connection:` header honored
//! either way — the server loops requests on one connection up to an
//! idle timeout and a max-requests cap, and each response states the
//! decision. Pipelining is deliberately unsupported (the server's
//! disconnect probe may consume bytes sent before the response
//! completes); a keep-alive client must read each response fully before
//! sending the next request. Request bodies are ignored, and the
//! request head is capped at 8 KiB: a head that breaks the cap, or that
//! the peer cuts off before its blank line, is a 431-class parse error.
//!
//! Every message leaves its socket in one `write` (a chunked body: one
//! per chunk, the head riding with the first and the terminator with
//! the last), and the server and client both set `TCP_NODELAY`. A
//! message split over several small writes would otherwise sit in
//! Nagle's buffer until the peer's delayed ACK, ~40 ms per exchange.

use std::io::{self, BufRead, Read, Write};

/// Cap on the request head (request line + headers). A region query is
/// tens of bytes; anything approaching this cap is hostile or broken.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// A parsed request head.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercased as received (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path without the query string (`/call`).
    pub path: String,
    /// Decoded query parameters in request order.
    pub query: Vec<(String, String)>,
    /// Whether the client asked (or defaulted) to close the connection
    /// after this exchange: explicit `Connection: close`, or HTTP/1.0
    /// without `Connection: keep-alive`.
    pub close: bool,
}

/// Why a request head failed to parse. Maps to a 400 response.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes are not a well-formed HTTP/1.1 request head.
    BadRequest(String),
    /// The connection failed mid-read.
    Io(io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            HttpError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

fn bad(msg: impl Into<String>) -> HttpError {
    HttpError::BadRequest(msg.into())
}

/// Decode `%XX` escapes and `+`-as-space in a query component.
/// Malformed escapes are an error, not passed through — a query that
/// cannot round-trip must not silently address the wrong region.
pub fn percent_decode(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .ok_or_else(|| format!("truncated %-escape in {s:?}"))?;
                let hex = std::str::from_utf8(hex).map_err(|_| "non-ASCII %-escape")?;
                let byte =
                    u8::from_str_radix(hex, 16).map_err(|_| format!("bad %-escape %{hex}"))?;
                out.push(byte);
                i += 2;
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8(out).map_err(|_| format!("query component {s:?} is not UTF-8"))
}

/// Split and decode a raw query string into ordered pairs.
fn parse_query(raw: &str) -> Result<Vec<(String, String)>, HttpError> {
    let mut pairs = Vec::new();
    for piece in raw.split('&') {
        if piece.is_empty() {
            continue;
        }
        let (k, v) = piece.split_once('=').unwrap_or((piece, ""));
        pairs.push((
            percent_decode(k).map_err(bad)?,
            percent_decode(v).map_err(bad)?,
        ));
    }
    Ok(pairs)
}

/// Read one head line into `line`, charging it against the head cap.
/// A line that does not end in `\n` either hit the cap or was cut off
/// by EOF; both are a bad request, never a line to parse.
fn read_head_line(
    stream: &mut impl BufRead,
    line: &mut String,
    head: &mut usize,
) -> Result<(), HttpError> {
    line.clear();
    let n = stream
        .by_ref()
        .take((MAX_HEAD_BYTES - *head) as u64)
        .read_line(line)?;
    *head += n;
    if line.ends_with('\n') {
        Ok(())
    } else if *head >= MAX_HEAD_BYTES {
        Err(bad("request head exceeds 8 KiB"))
    } else if *head == 0 {
        Err(bad("empty request line"))
    } else {
        Err(bad("request head truncated before its blank line"))
    }
}

impl Request {
    /// Read and parse one request head from `stream`. Headers are
    /// consumed through the blank line; only `Connection:` is
    /// interpreted (for keep-alive), the rest are discarded.
    pub fn read_from(stream: &mut impl BufRead) -> Result<Request, HttpError> {
        let mut head = 0usize;
        let mut line = String::new();
        read_head_line(stream, &mut line, &mut head)?;
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            return Err(bad("empty request line"));
        }
        let mut parts = line.split_ascii_whitespace();
        let method = parts.next().ok_or_else(|| bad("missing method"))?;
        let target = parts.next().ok_or_else(|| bad("missing request target"))?;
        let http10 = match parts.next() {
            Some(v) if v.starts_with("HTTP/1.") => v == "HTTP/1.0",
            other => return Err(bad(format!("expected HTTP/1.x version, got {other:?}"))),
        };
        let (path_raw, query_raw) = target.split_once('?').unwrap_or((target, ""));
        let mut request = Request {
            method: method.to_string(),
            path: percent_decode(path_raw).map_err(bad)?,
            query: parse_query(query_raw)?,
            // HTTP/1.0 defaults to close, HTTP/1.1 to keep-alive; an
            // explicit Connection header below overrides either.
            close: http10,
        };
        // Scan headers up to the blank line (bounded by the head cap).
        let mut header = String::new();
        loop {
            read_head_line(stream, &mut header, &mut head)?;
            if header == "\r\n" || header == "\n" {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.trim().eq_ignore_ascii_case("connection") {
                    let value = value.trim();
                    if value.eq_ignore_ascii_case("close") {
                        request.close = true;
                    } else if value.eq_ignore_ascii_case("keep-alive") {
                        request.close = false;
                    }
                }
            }
        }
        Ok(request)
    }
}

/// Canonical reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        206 => "Partial Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn connection_value(close: bool) -> &'static str {
    if close {
        "close"
    } else {
        "keep-alive"
    }
}

/// Append a response head to `buf`: status line, `Content-Type`, the
/// body's `framing` header, `Connection`, the extra headers, blank line.
fn push_head(
    buf: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    framing: std::fmt::Arguments<'_>,
    extra_headers: &[(&str, String)],
    close: bool,
) -> io::Result<()> {
    write!(
        buf,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n{framing}\r\nConnection: {}\r\n",
        reason(status),
        connection_value(close)
    )?;
    for (k, v) in extra_headers {
        write!(buf, "{k}: {v}\r\n")?;
    }
    buf.extend_from_slice(b"\r\n");
    Ok(())
}

/// The response side of one connection. Each message is assembled in
/// buffers the writer keeps across the connection's keep-alive requests
/// and leaves in one `write`, so a response costs no allocation and no
/// segment waits on Nagle.
pub(crate) struct ResponseWriter<W: Write> {
    out: W,
    /// The bytes of the next write.
    frame: Vec<u8>,
    /// A chunked body's bytes not yet framed.
    pending: Vec<u8>,
}

impl<W: Write> ResponseWriter<W> {
    /// Wrap a connection's write side.
    pub(crate) fn new(out: W) -> ResponseWriter<W> {
        ResponseWriter {
            out,
            frame: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// The wrapped stream.
    pub(crate) fn get_ref(&self) -> &W {
        &self.out
    }

    /// Write a complete (non-chunked) response with a known body. `close`
    /// states whether the server will close the connection after this
    /// response (the caller's keep-alive decision).
    pub(crate) fn write_response(
        &mut self,
        status: u16,
        content_type: &str,
        extra_headers: &[(&str, String)],
        body: &[u8],
        close: bool,
    ) -> io::Result<()> {
        self.frame.clear();
        push_head(
            &mut self.frame,
            status,
            content_type,
            format_args!("Content-Length: {}", body.len()),
            extra_headers,
            close,
        )?;
        self.frame.extend_from_slice(body);
        self.out.write_all(&self.frame)?;
        self.out.flush()
    }

    /// Start a chunked response: write the body into the returned
    /// [`ChunkedBody`], then finish it. The head goes out with the first
    /// chunk. `close` as in [`ResponseWriter::write_response`] — a
    /// chunked body self-delimits, so the connection stays reusable when
    /// `false`.
    pub(crate) fn chunked(
        &mut self,
        status: u16,
        content_type: &str,
        extra_headers: &[(&str, String)],
        close: bool,
    ) -> io::Result<ChunkedBody<'_, W>> {
        self.frame.clear();
        self.pending.clear();
        push_head(
            &mut self.frame,
            status,
            content_type,
            format_args!("Transfer-Encoding: chunked"),
            extra_headers,
            close,
        )?;
        Ok(ChunkedBody { writer: self })
    }
}

/// A `Write` adapter that emits its input as HTTP/1.1 chunks, buffering
/// up to a flush threshold so a streaming [`ultravc_vcf::VcfWriter`]
/// writing line-by-line doesn't produce one chunk per record. A chunk
/// leaves once the next write shows it is not the last, so the
/// terminator always rides with the final chunk: a body of at most
/// 16 KiB is the head, one chunk and the terminator in one write.
pub(crate) struct ChunkedBody<'a, W: Write> {
    writer: &'a mut ResponseWriter<W>,
}

/// Flush threshold for [`ChunkedBody`]: one chunk per this many bytes.
const CHUNK_FLUSH: usize = 16 * 1024;

impl<W: Write> ChunkedBody<'_, W> {
    /// Frame the pending bytes as a chunk (plus the terminator when
    /// `last`) behind whatever the frame already holds — the head, before
    /// the first chunk — and write it all at once.
    fn emit(&mut self, last: bool) -> io::Result<()> {
        let ResponseWriter {
            out,
            frame,
            pending,
        } = &mut *self.writer;
        if !pending.is_empty() {
            write!(frame, "{:x}\r\n", pending.len())?;
            frame.extend_from_slice(pending);
            frame.extend_from_slice(b"\r\n");
            pending.clear();
        }
        if last {
            frame.extend_from_slice(b"0\r\n\r\n");
        }
        if !frame.is_empty() {
            out.write_all(frame)?;
            frame.clear();
        }
        Ok(())
    }

    /// Write the remaining bytes and the terminating zero-length chunk.
    pub(crate) fn finish(mut self) -> io::Result<()> {
        self.emit(true)?;
        self.writer.out.flush()
    }
}

impl<W: Write> Write for ChunkedBody<'_, W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        if self.writer.pending.len() >= CHUNK_FLUSH {
            self.emit(false)?;
        }
        self.writer.pending.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.emit(false)?;
        self.writer.out.flush()
    }
}

/// A sink that records every `write` call separately, so tests can pin
/// one write per message.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct Writes(pub(crate) Vec<Vec<u8>>);

#[cfg(test)]
impl Write for Writes {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.0.push(data.to_vec());
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        Request::read_from(&mut Cursor::new(raw.as_bytes().to_vec()))
    }

    #[test]
    fn parses_request_line_and_query() {
        let req = parse("GET /call?sample=a&region=chr%3A1-100&x=1+2 HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/call");
        assert_eq!(
            req.query,
            vec![
                ("sample".into(), "a".into()),
                ("region".into(), "chr:1-100".into()),
                ("x".into(), "1 2".into()),
            ]
        );
    }

    #[test]
    fn connection_negotiation_follows_version_defaults_and_headers() {
        // HTTP/1.1 defaults to keep-alive, 1.0 to close.
        assert!(!parse("GET /x HTTP/1.1\r\n\r\n").unwrap().close);
        assert!(parse("GET /x HTTP/1.0\r\n\r\n").unwrap().close);
        // Explicit header wins either way, case-insensitively.
        assert!(
            parse("GET /x HTTP/1.1\r\nConnection: Close\r\n\r\n")
                .unwrap()
                .close
        );
        assert!(
            !parse("GET /x HTTP/1.0\r\nconnection: Keep-Alive\r\n\r\n")
                .unwrap()
                .close
        );
    }

    #[test]
    fn rejects_malformed_heads() {
        assert!(parse("").is_err());
        assert!(parse("\r\n").is_err());
        assert!(parse("GET\r\n\r\n").is_err());
        assert!(parse("GET /x SPDY/9\r\n\r\n").is_err());
        assert!(parse("GET /x?a=%zz HTTP/1.1\r\n\r\n").is_err());
        assert!(parse("GET /x?a=%2 HTTP/1.1\r\n\r\n").is_err());
        let giant = format!(
            "GET /x HTTP/1.1\r\nA: {}\r\n\r\n",
            "y".repeat(MAX_HEAD_BYTES)
        );
        assert!(parse(&giant).is_err());
    }

    #[test]
    fn percent_decoding_round_trips() {
        assert_eq!(percent_decode("a%3Ab%2Dc").unwrap(), "a:b-c");
        assert_eq!(percent_decode("plain").unwrap(), "plain");
        assert_eq!(percent_decode("a+b").unwrap(), "a b");
        assert!(percent_decode("%GG").is_err());
    }

    #[test]
    fn oversized_request_line_is_rejected_not_split() {
        // No newline inside the cap: the tail must not be parsed as a
        // second keep-alive request.
        let raw = format!(
            "GET /health HTTP/1.1 {}GET /stats HTTP/1.1\r\n\r\n",
            " ".repeat(MAX_HEAD_BYTES)
        );
        let mut stream = Cursor::new(raw.into_bytes());
        match Request::read_from(&mut stream) {
            Err(HttpError::BadRequest(msg)) => assert!(msg.contains("8 KiB"), "{msg}"),
            other => panic!("expected a bad request, got {other:?}"),
        }
    }

    #[test]
    fn head_cut_off_before_its_blank_line_is_rejected() {
        for raw in [
            "GET /x HTTP/1.1",
            "GET /x HTTP/1.1\r\n",
            "GET /x HTTP/1.1\r\nHost: a",
            "GET /x HTTP/1.1\r\nHost: a\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::BadRequest(_))),
                "{raw:?}"
            );
        }
    }

    /// Send `pieces` as one chunked 200 and return the writes it made.
    fn chunked_writes(pieces: &[&[u8]]) -> Vec<Vec<u8>> {
        let mut writer = ResponseWriter::new(Writes::default());
        let mut body = writer.chunked(200, "text/plain", &[], false).unwrap();
        for piece in pieces {
            body.write_all(piece).unwrap();
        }
        body.finish().unwrap();
        writer.out.0
    }

    const CHUNKED_HEAD: &str = "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\
        Transfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n";

    #[test]
    fn chunked_body_frames_and_terminates() {
        let writes = chunked_writes(&[b"hello ", b"world"]);
        assert_eq!(writes.len(), 1, "head, chunk and terminator in one write");
        assert_eq!(
            writes[0],
            format!("{CHUNKED_HEAD}b\r\nhello world\r\n0\r\n\r\n").as_bytes()
        );
        // Empty body: the head and the terminator.
        assert_eq!(
            chunked_writes(&[]),
            vec![format!("{CHUNKED_HEAD}0\r\n\r\n").into_bytes()]
        );
    }

    #[test]
    fn chunked_body_writes_once_per_16_kib_chunk() {
        // A 16 KiB body, line by line as the VCF writer sends it: one write.
        let line = [b'x'; 1024];
        let writes = chunked_writes(&[&line[..]; 16]);
        assert_eq!(writes.len(), 1);
        let expected = [
            CHUNKED_HEAD.as_bytes(),
            b"4000\r\n",
            &[b'x'; 16 * 1024],
            b"\r\n0\r\n\r\n",
        ]
        .concat();
        assert_eq!(writes[0], expected);

        // 40 KiB: a chunk each time 16 KiB accumulates, the rest with the
        // terminator — three writes, the same framing as ever.
        let writes = chunked_writes(&[&line[..]; 40]);
        assert_eq!(writes.len(), 3);
        let chunk = [b"4000\r\n".as_slice(), &[b'x'; 16 * 1024], b"\r\n"].concat();
        assert_eq!(writes[0], [CHUNKED_HEAD.as_bytes(), &chunk].concat());
        assert_eq!(writes[1], chunk);
        assert_eq!(
            writes[2],
            [b"2000\r\n".as_slice(), &[b'x'; 8 * 1024], b"\r\n0\r\n\r\n"].concat()
        );
    }

    #[test]
    fn response_head_shape() {
        let mut writer = ResponseWriter::new(Writes::default());
        writer
            .write_response(
                400,
                "text/plain",
                &[("X-Test", "1".to_string())],
                b"nope\n",
                true,
            )
            .unwrap();
        // Keep-alive responses state it; the buffer is reused, not
        // carried over.
        writer
            .write_response(200, "text/plain", &[], b"ok", false)
            .unwrap();
        let writes = writer.out.0;
        assert_eq!(writes.len(), 2, "one write per response");
        assert_eq!(
            writes[0],
            b"HTTP/1.1 400 Bad Request\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n\
              Connection: close\r\nX-Test: 1\r\n\r\nnope\n"
        );
        assert_eq!(
            writes[1],
            b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 2\r\n\
              Connection: keep-alive\r\n\r\nok"
        );
    }
}
