//! Minimal HTTP/1.1 request/response handling over `std::net`, in the
//! spirit of the offline compat shims: just enough of the protocol for a
//! localhost JSON API — no chunked encoding, no keep-alive, no TLS.
//!
//! Every connection carries exactly one request; responses always close the
//! connection (`Connection: close`), which keeps the server loop trivial
//! and is fine for a CI/dashboard workload.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Largest accepted header block, and largest accepted body. Requests are
/// tiny JSON scenario descriptions; anything bigger is hostile or broken.
const MAX_HEADER_BYTES: usize = 16 * 1024;
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request: method, path (query string split off), body bytes.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method, e.g. `GET`, `POST`.
    pub method: String,
    /// Decoded path component, e.g. `/runs/3`.
    pub path: String,
    /// Raw query string after `?`, empty when absent.
    pub query: String,
    /// Request body (exactly `Content-Length` bytes).
    pub body: Vec<u8>,
}

/// A response ready to serialize: status, content type, body.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response { status, content_type: "application/json", body: body.into() }
    }

    /// An HTML response (status 200).
    pub fn html(body: impl Into<Vec<u8>>) -> Response {
        Response { status: 200, content_type: "text/html; charset=utf-8", body: body.into() }
    }

    /// A JSON error envelope `{"error": msg}`.
    pub fn error(status: u16, msg: &str) -> Response {
        let body = serde_json::to_string(&serde::Value::Object(
            [("error".to_string(), serde::Value::Str(msg.to_string()))]
                .into_iter()
                .collect(),
        ))
        .expect("error envelope serializes");
        Response::json(status, body)
    }
}

/// Reason phrase for the status codes this service emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Read one header-block line (request line or header) into a fresh
/// string, reading at most the `left` bytes of header budget that remain
/// and charging what it read against them. `None` on a read error or when
/// the budget runs out before the line ends, so an endless line costs at
/// most the budget, never a wait for the read timeout.
fn read_header_line(reader: &mut impl BufRead, left: &mut usize) -> Option<String> {
    let mut line = String::new();
    let n = reader.take(*left as u64).read_line(&mut line).ok()?;
    *left -= n;
    if *left == 0 && !line.ends_with('\n') {
        return None;
    }
    Some(line)
}

/// Read and parse one request off `stream`. Returns `None` on malformed or
/// oversized input (the caller answers 400 and closes).
pub fn read_request(stream: &mut TcpStream) -> Option<Request> {
    // A stalled client must not wedge a handler thread forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let mut reader = BufReader::new(stream);
    let mut header_left = MAX_HEADER_BYTES;

    let line = read_header_line(&mut reader, &mut header_left)?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_string();
    let target = parts.next()?.to_string();
    let version = parts.next()?;
    if !version.starts_with("HTTP/1.") {
        return None;
    }

    let mut content_length = 0usize;
    loop {
        let h = read_header_line(&mut reader, &mut header_left)?;
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return None;
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };
    Some(Request { method, path, query, body })
}

/// Serialize `resp` onto `stream` (best effort — a vanished client is not an
/// error worth surfacing).
pub fn write_response(stream: &mut TcpStream, resp: &Response) {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    let _ = stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(&resp.body))
        .and_then(|()| stream.flush());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn roundtrip(raw: &[u8]) -> Option<Request> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let tx = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        let req = read_request(&mut conn);
        tx.join().unwrap();
        req
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let req = roundtrip(
            b"POST /runs?verbose=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/runs");
        assert_eq!(req.query, "verbose=1");
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn rejects_non_http_and_short_body() {
        assert!(roundtrip(b"GARBAGE\r\n\r\n").is_none());
        assert!(roundtrip(b"GET / FTP/9\r\n\r\n").is_none());
        // Declared body longer than what arrives: read_exact fails.
        assert!(roundtrip(b"POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort").is_none());
    }

    #[test]
    fn endless_header_line_is_rejected_at_the_budget() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (hang_up, held) = std::sync::mpsc::channel::<()>();
        let tx = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET / HTTP/1.1\r\nX-Pad: ").unwrap();
            // The server stops reading at its budget and may hang up
            // before this write completes.
            let _ = s.write_all(&[b'a'; 64 * 1024]);
            // Keep the connection open, newline never sent, until the
            // server has answered.
            let _ = held.recv();
        });
        let (mut conn, _) = listener.accept().unwrap();
        let start = std::time::Instant::now();
        let req = read_request(&mut conn);
        let waited = start.elapsed();
        drop(conn);
        hang_up.send(()).unwrap();
        tx.join().unwrap();
        assert!(req.is_none());
        assert!(waited < Duration::from_secs(5), "rejected only after {waited:?}");
    }

    #[test]
    fn header_block_may_fill_the_budget_exactly() {
        let head = b"GET / HTTP/1.1\r\nX-Pad: ";
        let pad = MAX_HEADER_BYTES - head.len() - b"\r\n\r\n".len();
        let mut raw = head.to_vec();
        raw.resize(raw.len() + pad, b'a');
        raw.extend_from_slice(b"\r\n\r\n");
        assert_eq!(raw.len(), MAX_HEADER_BYTES);
        assert!(roundtrip(&raw).is_some());
        raw.insert(head.len(), b'a');
        assert!(roundtrip(&raw).is_none());
    }
}
