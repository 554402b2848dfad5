//! A minimal blocking HTTP/1.1 client — just enough to exercise the
//! server from tests and the benchmark's load generator without any
//! external tooling. Supports `Content-Length` and chunked bodies.
//!
//! Like the server, it sets `TCP_NODELAY` and sends each request in one
//! write. Response sizes are untrusted: a body buffer grows only with
//! the bytes actually received, and a bad size or a short body is an
//! error, never a panic or an allocation sized by the peer.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Header name/value pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Decoded body (de-chunked when chunked).
    pub body: Vec<u8>,
}

impl Response {
    /// First header value for `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Open a connection with `timeout` on connect, reads and writes, and
/// Nagle off.
fn connect(addr: SocketAddr, timeout: Option<Duration>) -> io::Result<TcpStream> {
    let stream = match timeout {
        Some(t) => TcpStream::connect_timeout(&addr, t)?,
        None => TcpStream::connect(addr)?,
    };
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Send a `GET` request head in one write.
fn write_request(
    out: &mut impl Write,
    addr: SocketAddr,
    path_and_query: &str,
    close: bool,
) -> io::Result<()> {
    let connection = if close { "Connection: close\r\n" } else { "" };
    let head = format!("GET {path_and_query} HTTP/1.1\r\nHost: {addr}\r\n{connection}\r\n");
    out.write_all(head.as_bytes())?;
    out.flush()
}

/// Append exactly `n` bytes from `stream` to `body`; the buffer grows
/// with what arrives, so a forged size cannot allocate ahead of it.
fn read_exactly(stream: &mut impl BufRead, body: &mut Vec<u8>, n: u64) -> io::Result<()> {
    let got = stream.take(n).read_to_end(body)?;
    if (got as u64) < n {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("body ended after {got} of {n} bytes"),
        ));
    }
    Ok(())
}

/// A keep-alive client connection: issues sequential `GET`s over one
/// TCP connection, reconnecting transparently when the server closes
/// it (idle timeout, per-connection request cap, shutdown) or the
/// previous exchange failed. Never pipelines — each response is read
/// fully before the next request is written, which is the reuse
/// contract the server's disconnect probe requires.
pub struct ClientConn {
    addr: SocketAddr,
    timeout: Option<Duration>,
    stream: Option<BufReader<TcpStream>>,
}

impl ClientConn {
    /// A lazily-connected client for `addr`; `timeout` bounds each
    /// socket operation.
    pub fn new(addr: SocketAddr, timeout: Option<Duration>) -> ClientConn {
        ClientConn {
            addr,
            timeout,
            stream: None,
        }
    }

    fn ensure_stream(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.stream.is_none() {
            self.stream = Some(BufReader::new(connect(self.addr, self.timeout)?));
        }
        Ok(self.stream.as_mut().expect("just ensured"))
    }

    fn exchange(&mut self, path_and_query: &str) -> io::Result<Response> {
        let addr = self.addr;
        let reader = self.ensure_stream()?;
        write_request(reader.get_mut(), addr, path_and_query, false)?;
        read_response(reader)
    }

    /// Issue one `GET`, reusing the live connection when possible. A
    /// failed exchange on a *reused* connection (the server may have
    /// idled it out between requests) is retried once on a fresh one.
    pub fn get(&mut self, path_and_query: &str) -> io::Result<Response> {
        let reused = self.stream.is_some();
        let result = self.exchange(path_and_query);
        let response = match result {
            Ok(r) => r,
            Err(e) => {
                self.stream = None;
                if !reused {
                    return Err(e);
                }
                self.exchange(path_and_query)?
            }
        };
        if response
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
        {
            self.stream = None;
        }
        Ok(response)
    }
}

/// Issue one `GET` and read the full response. `timeout` bounds each
/// socket operation (connect, read, write), not the whole exchange.
pub fn http_get(
    addr: SocketAddr,
    path_and_query: &str,
    timeout: Option<Duration>,
) -> io::Result<Response> {
    let mut stream = connect(addr, timeout)?;
    write_request(&mut stream, addr, path_and_query, true)?;
    read_response(&mut BufReader::new(stream))
}

/// Parse one response (status line, headers, body) from a buffered
/// stream.
pub fn read_response(stream: &mut impl BufRead) -> io::Result<Response> {
    let mut line = String::new();
    stream.read_line(&mut line)?;
    let mut parts = line.trim_end().splitn(3, ' ');
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        other => return Err(bad(format!("bad status line start: {other:?}"))),
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad status line: {line:?}")))?;
    let mut headers = Vec::new();
    loop {
        let mut header = String::new();
        let n = stream.read_line(&mut header)?;
        let header = header.trim_end();
        if n == 0 || header.is_empty() {
            break;
        }
        if let Some((k, v)) = header.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
    }
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let mut body = Vec::new();
    if chunked {
        read_chunked(stream, &mut body)?;
    } else {
        match headers.iter().find(|(k, _)| k == "content-length") {
            Some((_, v)) => {
                let n = v
                    .parse::<u64>()
                    .map_err(|_| bad(format!("bad Content-Length {v:?}")))?;
                read_exactly(stream, &mut body, n)?;
            }
            // No length, connection-close delimited.
            None => {
                stream.read_to_end(&mut body)?;
            }
        }
    }
    Ok(Response {
        status,
        headers,
        body,
    })
}

fn read_chunked(stream: &mut impl BufRead, body: &mut Vec<u8>) -> io::Result<()> {
    loop {
        let mut size_line = String::new();
        stream.read_line(&mut size_line)?;
        let size = u64::from_str_radix(size_line.trim(), 16)
            .map_err(|_| bad(format!("bad chunk size {size_line:?}")))?;
        if size == 0 {
            // Trailing CRLF after the zero chunk (and any trailers).
            let mut rest = String::new();
            while stream.read_line(&mut rest)? > 0 && rest.trim() != "" {
                rest.clear();
            }
            return Ok(());
        }
        read_exactly(stream, body, size)?;
        let mut crlf = [0u8; 2];
        stream.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(bad("chunk missing CRLF terminator"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Writes;
    use std::io::Cursor;

    #[test]
    fn parses_content_length_response() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 3\r\n\r\nabc";
        let resp = read_response(&mut Cursor::new(raw.to_vec())).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("content-type"), Some("text/plain"));
        assert_eq!(resp.body, b"abc");
    }

    #[test]
    fn parses_chunked_response() {
        let raw = b"HTTP/1.1 206 Partial Content\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n";
        let resp = read_response(&mut Cursor::new(raw.to_vec())).unwrap();
        assert_eq!(resp.status, 206);
        assert_eq!(resp.text(), "abcde");
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_response(&mut Cursor::new(b"not http\r\n\r\n".to_vec())).is_err());
        let bad_chunk = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n";
        assert!(read_response(&mut Cursor::new(bad_chunk.to_vec())).is_err());
    }

    fn error_kind(raw: &[u8]) -> io::ErrorKind {
        read_response(&mut Cursor::new(raw.to_vec()))
            .expect_err("a hostile response must be an error")
            .kind()
    }

    #[test]
    fn hostile_sizes_are_errors_not_panics_or_allocations() {
        // A second chunk sized at u64::MAX used to overflow `start + size`.
        let huge_chunk = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
            3\r\nabc\r\nffffffffffffffff\r\nde\r\n0\r\n\r\n";
        assert_eq!(error_kind(huge_chunk), io::ErrorKind::UnexpectedEof);
        // A Content-Length far past the bytes sent is a short body, read
        // into a buffer that never outgrows what arrived.
        let huge_length = b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\nabc";
        assert_eq!(error_kind(huge_length), io::ErrorKind::UnexpectedEof);
        let short = b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nabc";
        assert_eq!(error_kind(short), io::ErrorKind::UnexpectedEof);
        for raw in [
            b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\nabc".as_slice(),
            b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999999999999\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1ffffffffffffffff\r\n",
        ] {
            assert_eq!(error_kind(raw), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn a_request_is_one_write() {
        let addr: SocketAddr = "127.0.0.1:7777".parse().unwrap();
        let mut out = Writes::default();
        write_request(&mut out, addr, "/call?region=c:1-5", false).unwrap();
        write_request(&mut out, addr, "/health", true).unwrap();
        assert_eq!(
            out.0,
            [
                b"GET /call?region=c:1-5 HTTP/1.1\r\nHost: 127.0.0.1:7777\r\n\r\n".to_vec(),
                b"GET /health HTTP/1.1\r\nHost: 127.0.0.1:7777\r\nConnection: close\r\n\r\n"
                    .to_vec(),
            ]
        );
    }
}
