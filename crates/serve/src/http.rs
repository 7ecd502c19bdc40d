//! Minimal HTTP/1.1 request/response handling over `std::net`, in the
//! spirit of the offline compat shims: just enough of the protocol for a
//! localhost JSON API — no chunked encoding, no keep-alive, no TLS.
//!
//! Every connection carries exactly one request; responses always close the
//! connection (`Connection: close`), so the server's pool threads answer
//! one connection at a time and go back to `accept`. A request is whole
//! only when its request line and every header end in `\n`, its header
//! block ends with the blank line and its body has all `Content-Length`
//! bytes; anything cut short is malformed (a 400). A response goes out in
//! one write: status line, headers and body together.

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
/// the line does not end in `\n`: the input ended first (a truncated
/// request) or the budget ran out first, so an endless line costs at most
/// the budget, never a wait for the read timeout.
fn read_header_line(reader: &mut impl BufRead, left: &mut usize) -> Option<String> {
    let mut line = String::new();
    let n = reader.take(*left as u64).read_line(&mut line).ok()?;
    *left -= n;
    line.ends_with('\n').then_some(line)
}

/// Read and parse one request off `stream`. Returns `None` on malformed or
/// oversized input (the caller answers 400 and closes).
pub fn read_request(stream: &mut TcpStream) -> Option<Request> {
    // A stalled client must not wedge a handler thread forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    parse_request(&mut BufReader::new(stream))
}

/// Parse one request off `reader`: at most [`MAX_HEADER_BYTES`] of request
/// line and headers, each ending in `\n` and the last one blank, then a
/// body of exactly `Content-Length` bytes, which is checked against
/// [`MAX_BODY_BYTES`] before anything is allocated for it. `None` on
/// malformed, truncated or oversized input.
fn parse_request(reader: &mut impl BufRead) -> Option<Request> {
    let mut header_left = MAX_HEADER_BYTES;

    let line = read_header_line(reader, &mut header_left)?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_string();
    let target = parts.next()?.to_string();
    let version = parts.next()?;
    if !version.starts_with("HTTP/1.") {
        return None;
    }

    let mut content_length = 0usize;
    loop {
        let h = read_header_line(reader, &mut header_left)?;
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

/// Serialize `resp` onto `stream` in one `write_all` of the status line,
/// headers and body (best effort — a vanished client is not an error worth
/// surfacing).
pub fn write_response(stream: &mut impl Write, resp: &Response) {
    let mut out = Vec::with_capacity(128 + resp.body.len());
    let _ = write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    out.extend_from_slice(&resp.body);
    let _ = stream.write_all(&out);
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
        // Input that ends inside the headers is not a complete GET.
        assert!(roundtrip(b"GET /stats HTTP/1.1\r\nHo").is_none());
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

    const VALID: &[u8] = b"POST /runs HTTP/1.1\r\nHost: 127.0.0.1\r\n\
        Content-Type: application/json\r\nContent-Length: 48\r\n\r\n\
        {\"figure\": \"fig02\", \"scale\": \"quick\", \"jobs\": 2}";

    fn parse(bytes: &[u8]) -> Option<Request> {
        let req = parse_request(&mut &bytes[..])?;
        assert!(req.body.len() <= MAX_BODY_BYTES, "body of {} bytes", req.body.len());
        Some(req)
    }

    /// Every strict prefix of a valid request is refused (`None`, a 400),
    /// and 300 seeded byte substitutions parse to a request or `None`:
    /// never a panic, never a body past the cap.
    #[test]
    fn truncated_and_mutated_requests_never_panic() {
        let whole = parse(VALID).expect("the valid request parses");
        assert_eq!((whole.method.as_str(), whole.path.as_str()), ("POST", "/runs"));
        assert_eq!(whole.body, &VALID[VALID.len() - 48..]);
        for n in 0..VALID.len() {
            assert!(parse(&VALID[..n]).is_none(), "truncation to {n} bytes parsed");
        }
        let alphabet = b"0123456789 :\r\n/?-aELPOST\xff\x00";
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..300 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let mut bytes = VALID.to_vec();
            bytes[(rng % VALID.len() as u64) as usize] = alphabet[(rng >> 40) as usize % alphabet.len()];
            let _ = parse(&bytes);
        }
    }

    /// A writer that keeps each `write` call's bytes apart.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write_of_head_and_body() {
        let mut w = Writes::default();
        write_response(&mut w, &Response::json(202, "{}"));
        let want: &[u8] = b"HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\n\
            Content-Length: 2\r\nConnection: close\r\n\r\n{}";
        assert_eq!(w.0, [want]);
    }

    #[test]
    fn oversized_content_lengths_are_refused_before_allocating() {
        let head = |len: &str| format!("POST /runs HTTP/1.1\r\nContent-Length: {len}\r\n\r\n{{}}");
        // 2^63 and 2^64 - 1 would abort the process if allocated; 2^64
        // does not parse as a length.
        for len in ["9223372036854775808", "18446744073709551615", "18446744073709551616", "-1"] {
            assert!(parse(head(len).as_bytes()).is_none(), "Content-Length {len}");
        }
        assert!(parse(head(&(MAX_BODY_BYTES + 1).to_string()).as_bytes()).is_none());
        // At the cap the length is accepted, and a short body is a 400.
        assert!(parse(head(&MAX_BODY_BYTES.to_string()).as_bytes()).is_none());
        assert_eq!(parse(head("2").as_bytes()).unwrap().body, b"{}");
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
