//! A deliberately small HTTP/1.1 surface: request parsing, response
//! writing, and percent-coding — just enough for the four endpoints the
//! daemon serves, with hard limits so a malformed or hostile peer can
//! not make the server buffer unboundedly.

use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};

/// Longest accepted request line or header line, in bytes.
pub const MAX_LINE_BYTES: usize = 16 * 1024;

/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;

/// A parsed request head. Bodies are not read — every endpoint is a
/// `GET`, and requests that announce a body are rejected upstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The HTTP method, verbatim (`GET`, `POST`, …).
    pub method: String,
    /// The path component of the request target, percent-decoded.
    pub path: String,
    /// Query parameters in request order. Values are percent-decoded;
    /// a key without `=` maps to an empty value.
    pub query: Vec<(String, String)>,
    /// Header fields, keys lowercased (HTTP headers are
    /// case-insensitive), later duplicates overwriting earlier ones.
    pub headers: BTreeMap<String, String>,
}

impl Request {
    /// First query value for `key`, if present.
    pub fn query_value(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked for (or defaulted to) a persistent
    /// connection.
    pub fn keep_alive(&self) -> bool {
        match self.headers.get("connection").map(String::as_str) {
            Some(v) => !v.eq_ignore_ascii_case("close"),
            None => true, // HTTP/1.1 default
        }
    }
}

/// Outcome of reading one request head off a connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A well-formed request head.
    Request(Request),
    /// The peer closed the connection before sending anything.
    Closed,
    /// The bytes on the wire were not a well-formed request head; the
    /// string is a human-readable reason for the `400` body.
    Malformed(String),
}

/// Reads one request head (request line + headers, through the blank
/// line) from `reader`.
///
/// # Errors
///
/// Propagates transport-level I/O errors only; protocol-level problems
/// come back as [`ReadOutcome::Malformed`].
pub fn read_request(reader: &mut impl BufRead) -> io::Result<ReadOutcome> {
    let line = match read_line(reader)? {
        Some(line) => line,
        None => return Ok(ReadOutcome::Closed),
    };
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Ok(ReadOutcome::Malformed(format!(
                "bad request line {line:?}: expected `METHOD target HTTP/1.x`"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Ok(ReadOutcome::Malformed(format!(
            "unsupported protocol version {version:?}"
        )));
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = match percent_decode(raw_path) {
        Ok(p) => p,
        Err(e) => return Ok(ReadOutcome::Malformed(format!("bad path encoding: {e}"))),
    };
    let mut query = Vec::new();
    if let Some(raw) = raw_query {
        for pair in raw.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            match (percent_decode(k), percent_decode(v)) {
                (Ok(k), Ok(v)) => query.push((k, v)),
                (Err(e), _) | (_, Err(e)) => {
                    return Ok(ReadOutcome::Malformed(format!("bad query encoding: {e}")))
                }
            }
        }
    }

    let mut headers = BTreeMap::new();
    loop {
        let line = match read_line(reader)? {
            Some(line) => line,
            None => {
                return Ok(ReadOutcome::Malformed(
                    "connection closed mid-headers".to_string(),
                ))
            }
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Ok(ReadOutcome::Malformed(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        match line.split_once(':') {
            Some((name, value)) if !name.trim().is_empty() => {
                headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
            }
            _ => return Ok(ReadOutcome::Malformed(format!("bad header line {line:?}"))),
        }
    }

    Ok(ReadOutcome::Request(Request {
        method: method.to_string(),
        path,
        query,
        headers,
    }))
}

/// Reads one CRLF- (or LF-) terminated line, enforcing
/// [`MAX_LINE_BYTES`]. `Ok(None)` means clean EOF before any byte.
fn read_line(reader: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    // `&mut R: Read`, so a reborrow lets `take` consume the limit
    // adapter without consuming the caller's reader.
    let mut limited = io::Read::take(&mut *reader, MAX_LINE_BYTES as u64 + 1);
    let n = limited.read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.len() > MAX_LINE_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("line longer than {MAX_LINE_BYTES} bytes"),
        ));
    }
    while matches!(buf.last(), Some(b'\n' | b'\r')) {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Decodes `%XX` escapes and `+`-as-space.
///
/// # Errors
///
/// Returns a description when an escape is truncated, non-hex, or the
/// decoded bytes are not UTF-8.
fn percent_decode(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .ok_or_else(|| format!("truncated escape at byte {i}"))?;
                let hi = hex_digit(hex[0]).ok_or_else(|| format!("bad escape at byte {i}"))?;
                let lo = hex_digit(hex[1]).ok_or_else(|| format!("bad escape at byte {i}"))?;
                out.push(hi * 16 + lo);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| "decoded bytes are not UTF-8".to_string())
}

fn hex_digit(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Percent-encodes everything outside the URL-safe unreserved set (plus
/// the spec grammar's own `?`/`&`/`=` which must be escaped *inside* a
/// query value). Used by the client side — tests and the load
/// generator — to put spec strings into query strings.
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char);
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// A response under construction. Always carries `Content-Length` so
/// keep-alive framing is unambiguous.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond `Content-Type`/`Content-Length` (e.g.
    /// `Retry-After`, `X-Cache`).
    pub extra_headers: Vec<(String, String)>,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// The body bytes (always text in this server).
    pub body: String,
}

impl Response {
    /// A `200 OK` plain-text response.
    pub fn ok(body: impl Into<String>) -> Self {
        Self {
            status: 200,
            extra_headers: Vec::new(),
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    /// An error response; the body is the reason plus a trailing
    /// newline.
    pub fn error(status: u16, reason: impl Into<String>) -> Self {
        let mut body = reason.into();
        if !body.ends_with('\n') {
            body.push('\n');
        }
        Self {
            status,
            extra_headers: Vec::new(),
            content_type: "text/plain; charset=utf-8",
            body,
        }
    }

    /// Adds a header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.extra_headers.push((name.to_string(), value.into()));
        self
    }

    /// Serializes head + body to `writer` in a single `write_all`, so
    /// on a socket the reply leaves as one send rather than a head
    /// segment the body then waits behind. `keep_alive` selects the
    /// `Connection` header.
    ///
    /// # Errors
    ///
    /// Propagates transport-level I/O errors.
    pub fn write_to(&self, writer: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        let reason = status_reason(self.status);
        let mut out = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason,
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.extra_headers {
            out.push_str(name);
            out.push_str(": ");
            out.push_str(value);
            out.push_str("\r\n");
        }
        out.push_str("\r\n");
        out.push_str(&self.body);
        writer.write_all(out.as_bytes())?;
        writer.flush()
    }
}

/// The reason phrase for the handful of status codes this server emits.
fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> ReadOutcome {
        read_request(&mut BufReader::new(raw.as_bytes())).expect("no transport error")
    }

    #[test]
    fn parses_a_get_with_query_and_headers() {
        let out = parse(
            "GET /run?spec=sync%3Fn%3D100&seed=7 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        );
        let req = match out {
            ReadOutcome::Request(req) => req,
            other => panic!("expected a request, got {other:?}"),
        };
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/run");
        assert_eq!(req.query_value("spec"), Some("sync?n=100"));
        assert_eq!(req.query_value("seed"), Some("7"));
        assert_eq!(req.headers.get("host").map(String::as_str), Some("x"));
        assert!(!req.keep_alive());
    }

    #[test]
    fn keep_alive_defaults_on_for_http11() {
        let out = parse("GET /healthz HTTP/1.1\r\n\r\n");
        match out {
            ReadOutcome::Request(req) => assert!(req.keep_alive()),
            other => panic!("expected a request, got {other:?}"),
        }
    }

    #[test]
    fn garbage_is_malformed_not_a_transport_error() {
        assert!(matches!(
            parse("not http at all\r\n\r\n"),
            ReadOutcome::Malformed(_)
        ));
        assert!(matches!(
            parse("GET /x HTTP/2\r\n\r\n"),
            ReadOutcome::Malformed(_)
        ));
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            ReadOutcome::Malformed(_)
        ));
        assert!(matches!(parse(""), ReadOutcome::Closed));
    }

    #[test]
    fn percent_coding_round_trips_the_spec_grammar() {
        let spec = "leader?n=4096&k=8&topology=er:0.01&scenario=crash:0.2@5";
        let encoded = percent_encode(spec);
        assert!(!encoded.contains('?') && !encoded.contains('&'));
        assert_eq!(percent_decode(&encoded).unwrap(), spec);
        assert_eq!(percent_decode("a+b%20c").unwrap(), "a b c");
        assert!(percent_decode("%zz").is_err());
        assert!(percent_decode("%2").is_err());
    }

    #[test]
    fn responses_carry_content_length_and_connection() {
        let mut buf = Vec::new();
        Response::ok("hello\n")
            .with_header("X-Cache", "hit")
            .write_to(&mut buf, true)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 6\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("X-Cache: hit\r\n"));
        assert!(text.ends_with("\r\n\r\nhello\n"));

        let mut buf = Vec::new();
        Response::error(429, "queue full")
            .with_header("Retry-After", "2")
            .write_to(&mut buf, false)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("queue full\n"));
    }

    /// Records every `write` call so a test can see how a response was
    /// split across sends.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_goes_out_in_exactly_one_write() {
        // Two writes on a socket let Nagle hold the body back until the
        // peer ACKs the head, which a delayed ACK puts off by ~40 ms.
        let response =
            Response::ok("plurality-report/1\nwinner 0\n").with_header("X-Cache", "miss");
        let mut expected = Vec::new();
        response.write_to(&mut expected, true).unwrap();

        let mut counting = CountingWriter::default();
        response.write_to(&mut counting, true).unwrap();
        assert_eq!(
            counting.writes.len(),
            1,
            "head and body must share one write"
        );
        assert_eq!(counting.writes[0], expected);
        assert!(expected.ends_with(b"\r\n\r\nplurality-report/1\nwinner 0\n"));
    }
}
