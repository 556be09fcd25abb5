//! Dependency-free HTTP/1.1 request reading and response writing over
//! an abstract [`Conn`], with every limit a hostile client could push
//! against made explicit in [`HttpLimits`].
//!
//! The parser is deliberately strict and bounded: a byte-dribbling
//! slowloris client runs into the request deadline (408), an
//! over-long request line into 414, a header bomb into 431, an
//! oversized or length-less body into 413/411, and plain garbage into
//! 400 — each as a *typed* [`HttpError`] so the gateway can account
//! every rejection. One request per connection (`Connection: close`):
//! the service is a campaign front door, not a byte pump, and the
//! simplest connection lifecycle is the one that cannot leak.

use std::io;
use std::time::Instant;

/// An abstract byte stream with a notion of elapsed time since the
/// connection was accepted. Real sockets implement it with wall-clock
/// time and OS read timeouts ([`TcpConn`]); the chaos harness's
/// scripted connections implement it with a virtual clock so slow
/// readers and deadline enforcement are tested deterministically.
pub trait Conn {
    /// Reads up to `buf.len()` bytes; `Ok(0)` is end-of-stream.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Writes the whole buffer or fails.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Seconds elapsed since the connection was accepted.
    fn elapsed(&self) -> f64;
}

/// Request-level resource limits. Every field is a surface a hostile
/// client can probe; every breach maps to a distinct status code.
#[derive(Debug, Clone)]
pub struct HttpLimits {
    /// Longest accepted request line (method + URI + version) — 414.
    pub max_request_line: usize,
    /// Total header bytes (request line included) — 431.
    pub max_header_bytes: usize,
    /// Largest accepted body — 413.
    pub max_body_bytes: usize,
    /// Seconds a request may take to arrive in full — 408. Defeats
    /// slowloris: the deadline is checked before every read.
    pub deadline: f64,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_request_line: 1024,
            max_header_bytes: 8 * 1024,
            max_body_bytes: 256 * 1024,
            deadline: 10.0,
        }
    }
}

/// Typed request-read failure; [`HttpError::status`] maps each to the
/// response the gateway sends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Syntactically broken request (bad request line, bad header,
    /// truncated body, non-UTF-8 head) — 400.
    Malformed(&'static str),
    /// The request did not arrive within [`HttpLimits::deadline`] — 408.
    Timeout,
    /// Body-bearing method without `Content-Length` — 411.
    LengthRequired,
    /// Declared body exceeds [`HttpLimits::max_body_bytes`] — 413.
    BodyTooLarge,
    /// Request line exceeds [`HttpLimits::max_request_line`] — 414.
    UriTooLong,
    /// Headers exceed [`HttpLimits::max_header_bytes`] — 431.
    HeadersTooLarge,
    /// Not an HTTP/1.x request — 505.
    Version,
    /// The peer vanished mid-request; usually no response can be
    /// delivered, but the write is attempted and its failure swallowed.
    Disconnect,
}

impl HttpError {
    /// The status line this error answers with.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            HttpError::Malformed(_) => (400, "Bad Request"),
            HttpError::Timeout => (408, "Request Timeout"),
            HttpError::LengthRequired => (411, "Length Required"),
            HttpError::BodyTooLarge => (413, "Payload Too Large"),
            HttpError::UriTooLong => (414, "URI Too Long"),
            HttpError::HeadersTooLarge => (431, "Request Header Fields Too Large"),
            HttpError::Version => (505, "HTTP Version Not Supported"),
            HttpError::Disconnect => (400, "Bad Request"),
        }
    }
}

/// A parsed request: method, path, raw body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-case token from the request line.
    pub method: String,
    /// Origin-form path (starts with `/`).
    pub path: String,
    /// Exactly `Content-Length` bytes (empty when none declared).
    pub body: Vec<u8>,
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn read_chunk(conn: &mut dyn Conn, buf: &mut [u8]) -> Result<usize, HttpError> {
    match conn.read(buf) {
        Ok(n) => Ok(n),
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            ) =>
        {
            Err(HttpError::Timeout)
        }
        Err(_) => Err(HttpError::Disconnect),
    }
}

/// Reads and validates one request under `limits`. The deadline is
/// checked *before* every read, so a byte-dribbling client gets at
/// most one read past it and the handler never hangs.
pub fn read_request(conn: &mut dyn Conn, limits: &HttpLimits) -> Result<Request, HttpError> {
    let mut head: Vec<u8> = Vec::new();
    let mut buf = [0u8; 512];
    let header_end = loop {
        if let Some(pos) = find(&head, b"\r\n\r\n") {
            break pos;
        }
        if !head.contains(&b'\n') && head.len() > limits.max_request_line {
            return Err(HttpError::UriTooLong);
        }
        if head.len() > limits.max_header_bytes {
            return Err(HttpError::HeadersTooLarge);
        }
        if conn.elapsed() > limits.deadline {
            return Err(HttpError::Timeout);
        }
        let n = read_chunk(conn, &mut buf)?;
        if n == 0 {
            return Err(if head.is_empty() {
                HttpError::Disconnect
            } else {
                HttpError::Malformed("truncated header")
            });
        }
        head.extend_from_slice(&buf[..n]);
    };

    let text = std::str::from_utf8(&head[..header_end])
        .map_err(|_| HttpError::Malformed("non-UTF-8 header"))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    if request_line.len() > limits.max_request_line {
        return Err(HttpError::UriTooLong);
    }
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("");
    let path = parts.next().ok_or(HttpError::Malformed("missing path"))?;
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("missing version"))?;
    if parts.next().is_some() {
        return Err(HttpError::Malformed("extra request-line tokens"));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::Malformed("bad method"));
    }
    if !path.starts_with('/') {
        return Err(HttpError::Malformed("bad path"));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(if version.starts_with("HTTP/") {
            HttpError::Version
        } else {
            HttpError::Malformed("bad version")
        });
    }

    let mut content_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("bad header line"))?;
        // A field name is a token: `Content-Length : 5` must not read
        // as a length here and as an unknown header at a proxy.
        if name.is_empty() || name.bytes().any(|b| b.is_ascii_whitespace()) {
            return Err(HttpError::Malformed("whitespace in header name"));
        }
        if name.eq_ignore_ascii_case("transfer-encoding") {
            // The body is framed by Content-Length alone; a chunked one
            // would be read as that many bytes of chunk framing.
            return Err(HttpError::Malformed("transfer-encoding not supported"));
        }
        if name.eq_ignore_ascii_case("content-length") {
            // 1*DIGIT: `usize::from_str` would also take `+5`.
            let digits = value.trim();
            if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
                return Err(HttpError::Malformed("bad content-length"));
            }
            let n: usize = digits
                .parse()
                .map_err(|_| HttpError::Malformed("bad content-length"))?;
            if content_length.replace(n).is_some() {
                return Err(HttpError::Malformed("duplicate content-length"));
            }
        }
    }

    let need = match content_length {
        Some(n) => n,
        None if method == "POST" || method == "PUT" => return Err(HttpError::LengthRequired),
        None => 0,
    };
    if need > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge);
    }

    let mut body = head[header_end + 4..].to_vec();
    while body.len() < need {
        if conn.elapsed() > limits.deadline {
            return Err(HttpError::Timeout);
        }
        let n = read_chunk(conn, &mut buf)?;
        if n == 0 {
            return Err(HttpError::Malformed("truncated body"));
        }
        body.extend_from_slice(&buf[..n]);
    }
    body.truncate(need);

    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        body,
    })
}

/// An outgoing response. Always `Connection: close` with an exact
/// `Content-Length`.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'static str,
    /// Extra headers beyond the standard three.
    pub headers: Vec<(String, String)>,
    /// JSON body.
    pub body: String,
}

impl Response {
    /// A JSON response with the standard headers.
    pub fn json(status: u16, reason: &'static str, body: impl Into<String>) -> Self {
        Response {
            status,
            reason,
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Adds one header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }
}

/// Serializes and writes `resp`. A mid-response disconnect surfaces
/// as the `io::Error`; callers that cannot do anything about a dead
/// peer swallow it.
pub fn write_response(conn: &mut dyn Conn, resp: &Response) -> io::Result<()> {
    let mut out = format!("HTTP/1.1 {} {}\r\n", resp.status, resp.reason);
    out.push_str("Content-Type: application/json\r\n");
    out.push_str(&format!("Content-Length: {}\r\n", resp.body.len()));
    out.push_str("Connection: close\r\n");
    for (name, value) in &resp.headers {
        out.push_str(&format!("{name}: {value}\r\n"));
    }
    out.push_str("\r\n");
    out.push_str(&resp.body);
    conn.write_all(out.as_bytes())
}

/// A real socket behind the [`Conn`] trait: wall-clock elapsed time,
/// with the OS read timeout re-armed before every read so a stalled
/// peer cannot hold the handler past the request deadline.
pub struct TcpConn {
    stream: std::net::TcpStream,
    started: Instant,
    deadline: f64,
}

impl TcpConn {
    /// Wraps an accepted stream; `deadline` should match
    /// [`HttpLimits::deadline`].
    pub fn new(stream: std::net::TcpStream, deadline: f64) -> Self {
        TcpConn {
            stream,
            started: Instant::now(),
            deadline,
        }
    }
}

impl Conn for TcpConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        use std::io::Read;
        let remaining = (self.deadline - self.elapsed()).max(0.05);
        let _ = self
            .stream
            .set_read_timeout(Some(std::time::Duration::from_secs_f64(remaining)));
        self.stream.read(buf)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let _ = self
            .stream
            .set_write_timeout(Some(std::time::Duration::from_secs_f64(
                self.deadline.max(1.0),
            )));
        self.stream.write_all(buf)
    }

    fn elapsed(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ScriptedConn;

    fn limits() -> HttpLimits {
        HttpLimits {
            max_request_line: 128,
            max_header_bytes: 512,
            max_body_bytes: 1024,
            deadline: 5.0,
        }
    }

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        let mut conn = ScriptedConn::request(bytes.to_vec());
        read_request(&mut conn, &limits())
    }

    #[test]
    fn well_formed_post_parses_method_path_and_exact_body() {
        let req = parse(b"POST /campaigns HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/campaigns");
        assert_eq!(req.body, b"hello");
        let req = parse(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!((req.method.as_str(), req.body.len()), ("GET", 0));
    }

    #[test]
    fn each_limit_breach_maps_to_its_own_typed_error() {
        // Garbage request line.
        assert!(matches!(
            parse(b"NOT A REQUEST AT ALL\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        // Lower-case method.
        assert!(matches!(
            parse(b"get / HTTP/1.1\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        // Unsupported HTTP version.
        assert_eq!(parse(b"GET / HTTP/9.9\r\n\r\n"), Err(HttpError::Version));
        // Over-long URI.
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(300));
        assert_eq!(parse(long.as_bytes()), Err(HttpError::UriTooLong));
        // Header bomb.
        let bomb = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            "X-Pad: aaaaaaaaaaaaaaaa\r\n".repeat(64)
        );
        assert_eq!(parse(bomb.as_bytes()), Err(HttpError::HeadersTooLarge));
        // POST without a length.
        assert_eq!(
            parse(b"POST /campaigns HTTP/1.1\r\n\r\n"),
            Err(HttpError::LengthRequired)
        );
        // Declared body over the cap.
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 99999\r\n\r\n"),
            Err(HttpError::BodyTooLarge)
        );
        // Non-numeric and duplicate content-length.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\nx"),
            Err(HttpError::Malformed(_))
        ));
        // Truncated body: peer promised 10 bytes, sent 3.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(HttpError::Malformed(_))
        ));
        // Empty connection.
        assert_eq!(parse(b""), Err(HttpError::Disconnect));
    }

    #[test]
    fn content_length_is_digits_and_nothing_else() {
        for length in ["+5", "-0", "+0", "5 5", "0x5", ""] {
            let head = format!("POST / HTTP/1.1\r\nContent-Length: {length}\r\n\r\nhello");
            let got = parse(head.as_bytes());
            assert!(
                matches!(got, Err(HttpError::Malformed("bad content-length"))),
                "{length:?}: {got:?}"
            );
        }
        // Optional whitespace round the digits is the grammar's own.
        let req = parse(b"POST / HTTP/1.1\r\nContent-Length:\t 5 \r\n\r\nhello").unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn whitespace_before_the_colon_is_rejected() {
        for head in [
            "POST / HTTP/1.1\r\nContent-Length : 5\r\n\r\nhello",
            "POST / HTTP/1.1\r\nContent-Length\t: 5\r\n\r\nhello",
            "GET / HTTP/1.1\r\nX-Trace : 1\r\n\r\n",
            "GET / HTTP/1.1\r\nHost: a\r\n folded: 1\r\n\r\n",
            "GET / HTTP/1.1\r\n: 1\r\n\r\n",
        ] {
            let got = parse(head.as_bytes());
            assert!(
                matches!(got, Err(HttpError::Malformed("whitespace in header name"))),
                "{head:?}: {got:?}"
            );
        }
    }

    #[test]
    fn any_transfer_encoding_is_rejected() {
        // Read by Content-Length, the first five bytes of this body
        // would be chunk framing.
        let chunked = b"POST / HTTP/1.1\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n";
        for head in [
            &chunked[..],
            b"POST / HTTP/1.1\r\ntransfer-encoding: gzip, chunked\r\n\r\n",
            b"GET / HTTP/1.1\r\nTransfer-Encoding: identity\r\n\r\n",
        ] {
            let got = parse(head);
            assert!(
                matches!(
                    got,
                    Err(HttpError::Malformed("transfer-encoding not supported"))
                ),
                "{got:?}"
            );
            assert_eq!(got.unwrap_err().status().0, 400);
        }
    }

    #[test]
    fn slow_reader_hits_the_deadline_without_hanging_or_overrunning() {
        let body = b"POST /campaigns HTTP/1.1\r\nContent-Length: 400\r\n\r\n".to_vec();
        // 1 byte per read, 2 virtual seconds per read: the 5 s
        // deadline fires long before the request completes.
        let mut conn = ScriptedConn::request(body)
            .dribble(1, 2.0)
            .with_deadline(5.0);
        let got = read_request(&mut conn, &limits());
        assert_eq!(got, Err(HttpError::Timeout));
        assert_eq!(conn.overruns(), 0, "no read issued past the deadline");
    }

    #[test]
    fn responses_carry_exact_length_close_and_extra_headers() {
        let mut conn = ScriptedConn::request(Vec::new());
        let resp = Response::json(429, "Too Many Requests", "{\"error\":\"shed\"}")
            .with_header("Retry-After", "7");
        write_response(&mut conn, &resp).unwrap();
        let text = String::from_utf8(conn.written().to_vec()).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 16\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 7\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"error\":\"shed\"}"));
    }
}
