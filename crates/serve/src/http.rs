//! Minimal blocking HTTP/1.1 plumbing for the daemon and its test
//! client: request parsing with hard limits, response writing.
//!
//! This is deliberately a tiny subset of HTTP — enough for a
//! line-oriented analysis service on a trusted network, in the
//! `crates/compat` no-external-deps idiom. Every connection carries
//! exactly one request and is closed after the response
//! (`Connection: close`); bodies are delimited by `Content-Length`
//! only (no chunked encoding).

use std::io::{BufRead, BufReader, Read, Write};

/// Cap on the request line plus all header lines together. A client
/// that streams an unbounded header section is cut off here instead of
/// growing server memory.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed request.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Request {
    /// Request method, upper-case as sent (`GET`, `POST`).
    pub method: String,
    /// Path component of the target, query string stripped.
    pub path: String,
    /// Raw query string (`""` when the target has none).
    pub query: String,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value with the given (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Does the client want the JSON rendering? Either `?json` (or
    /// `?format=json`) in the query string or an
    /// `Accept: application/json` header opts in — mirroring the CLI's
    /// `--json` flag.
    pub fn wants_json(&self) -> bool {
        self.query
            .split('&')
            .any(|t| t == "json" || t == "format=json")
            || self
                .header("accept")
                .is_some_and(|a| a.contains("application/json"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The bytes are not a well-formed request: answer 400.
    Malformed(String),
    /// The declared body exceeds the server's cap: answer 413.
    TooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// The server's cap.
        limit: usize,
    },
    /// Socket-level failure (including read timeouts): drop the
    /// connection, there is nobody well-formed to answer.
    Io(std::io::Error),
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Read one request from the stream (a socket, or any byte source),
/// enforcing the head-size cap and `max_body`.
///
/// # Errors
/// [`ReadError`] — see its variants for the HTTP status each maps to.
pub fn read_request<R: Read>(stream: &mut R, max_body: usize) -> Result<Request, ReadError> {
    let mut reader = BufReader::new(stream);
    let mut head_bytes = 0usize;
    let mut read_line = |reader: &mut BufReader<&mut R>| -> Result<String, ReadError> {
        let mut buf = Vec::new();
        // Bound each line read by what is left of the head budget.
        let mut limited = reader.take((MAX_HEAD_BYTES - head_bytes + 1) as u64);
        limited.read_until(b'\n', &mut buf)?;
        head_bytes += buf.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err(ReadError::Malformed(format!(
                "header section exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        if !buf.ends_with(b"\n") {
            return Err(ReadError::Malformed("truncated header line".into()));
        }
        while buf.last().is_some_and(|b| *b == b'\n' || *b == b'\r') {
            buf.pop();
        }
        String::from_utf8(buf).map_err(|_| ReadError::Malformed("non-UTF-8 header line".into()))
    };

    let request_line = read_line(&mut reader)?;
    let mut parts = request_line.split_ascii_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(ReadError::Malformed(format!(
            "bad request line `{request_line}`"
        )));
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!(
            "bad request line `{request_line}`"
        )));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut headers = Vec::new();
    loop {
        let line = read_line(&mut reader)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Malformed(format!("bad header line `{line}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut body = Vec::new();
    if let Some(len) = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| v.as_str())
    {
        let declared: usize = len
            .parse()
            .map_err(|_| ReadError::Malformed(format!("bad Content-Length `{len}`")))?;
        if declared > max_body {
            return Err(ReadError::TooLarge {
                declared,
                limit: max_body,
            });
        }
        body.resize(declared, 0);
        reader.read_exact(&mut body)?;
    }

    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
    })
}

/// The standard reason phrase of the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write only the head of a `Connection: close` response with **no**
/// `Content-Length`: the body that follows is streamed incrementally
/// and delimited by the connection close (what the live trace route
/// emits; the [`crate::client::Client`] reads such bodies to EOF).
///
/// # Errors
/// Propagates socket write failures.
pub fn write_stream_head(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nConnection: close\r\n\r\n",
        reason(status),
    );
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

/// Write one complete `Connection: close` response.
///
/// # Errors
/// Propagates socket write failures.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Run `read_request` against raw bytes pushed through a real
    /// socket pair.
    fn read_bytes(bytes: &[u8], max_body: usize) -> Result<Request, ReadError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        tx.write_all(bytes).unwrap();
        tx.shutdown(std::net::Shutdown::Write).unwrap();
        read_request(&mut rx, max_body)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = read_bytes(
            b"POST /query?json HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
            64,
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.query, "json");
        assert!(req.wants_json());
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn accept_header_requests_json() {
        let req = read_bytes(
            b"GET /stats HTTP/1.1\r\nAccept: application/json\r\n\r\n",
            0,
        )
        .unwrap();
        assert!(req.wants_json());
        let req = read_bytes(b"GET /stats HTTP/1.1\r\n\r\n", 0).unwrap();
        assert!(!req.wants_json());
    }

    #[test]
    fn malformed_requests_are_rejected_not_panicked() {
        for bytes in [
            &b"garbage\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET / SMTP/1.1\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n",
            b"\xff\xfe / HTTP/1.1\r\n\r\n",
        ] {
            assert!(
                matches!(read_bytes(bytes, 64), Err(ReadError::Malformed(_))),
                "{bytes:?}"
            );
        }
    }

    #[test]
    fn oversized_bodies_are_refused_by_declared_length() {
        match read_bytes(b"POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\n", 10) {
            Err(ReadError::TooLarge {
                declared: 99,
                limit: 10,
            }) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn unbounded_header_sections_are_cut_off() {
        let mut bytes = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..2000 {
            bytes.extend_from_slice(format!("X-{i}: {}\r\n", "y".repeat(32)).as_bytes());
        }
        bytes.extend_from_slice(b"\r\n");
        assert!(matches!(
            read_bytes(&bytes, 0),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_requests_are_malformed() {
        assert!(matches!(
            read_bytes(b"GET / HTTP/1.1", 0),
            Err(ReadError::Malformed(_))
        ));
    }
}
