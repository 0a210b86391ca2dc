//! Minimal HTTP/1.1 framing over blocking sockets.
//!
//! Hand-rolled on purpose: the workspace builds fully offline with no
//! crates.io dependencies, so the service speaks just enough HTTP/1.1
//! for its own wire format — `Content-Length`-framed request bodies,
//! keep-alive connections, and nothing else (no chunked transfer, no
//! TLS, no compression). Every framing failure is a typed
//! [`FrameError`] so the server can answer with a machine-readable
//! error document instead of silently dropping the connection.

use std::fmt;
use std::io::{self, BufRead, Write};
use std::time::{Duration, Instant};

/// Framing limits, all enforced *before* buffering unbounded input.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Maximum bytes of request line + headers.
    pub max_head_bytes: usize,
    /// Maximum declared `Content-Length`.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// One parsed request: method, target path, lowercased headers, body.
#[derive(Debug, Clone)]
pub struct Request {
    /// The request method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// The request target (`/v1/estimate`, …), as sent.
    pub target: String,
    /// Header name/value pairs; names are lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be framed off the socket.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// The peer closed the connection cleanly between requests. Not an
    /// error — the keep-alive loop just ends.
    Closed,
    /// A read timed out before the first byte of a request. The
    /// connection is idle, not broken; the caller decides whether to
    /// keep waiting (normal operation) or wind down (shutdown).
    IdleTimeout,
    /// The peer stopped sending mid-request (EOF or timeout after the
    /// first byte).
    Truncated,
    /// Request line + headers exceeded [`Limits::max_head_bytes`].
    HeadTooLarge {
        /// The enforced limit.
        limit: usize,
    },
    /// The first line was not `METHOD TARGET HTTP/1.x`.
    BadRequestLine(String),
    /// A header line had no `:` separator.
    BadHeader(String),
    /// `Content-Length` was present but not a number.
    BadLength(String),
    /// A method that carries a body (`POST`/`PUT`) arrived without
    /// `Content-Length` (chunked transfer is not supported).
    MissingLength,
    /// The declared `Content-Length` exceeded [`Limits::max_body_bytes`].
    BodyTooLarge {
        /// The declared body length.
        length: usize,
        /// The enforced limit.
        limit: usize,
    },
    /// The socket itself failed.
    Io(io::ErrorKind),
}

impl FrameError {
    /// The HTTP status a typed error response should carry.
    pub fn status(&self) -> u16 {
        match self {
            FrameError::HeadTooLarge { .. } => 431,
            FrameError::MissingLength => 411,
            FrameError::BodyTooLarge { .. } => 413,
            _ => 400,
        }
    }

    /// The stable machine code for the error document.
    pub fn code(&self) -> &'static str {
        match self {
            FrameError::Closed => "serve.closed",
            FrameError::IdleTimeout => "serve.idle",
            FrameError::Truncated => "serve.truncated_request",
            FrameError::HeadTooLarge { .. } => "serve.head_too_large",
            FrameError::BadRequestLine(_) => "serve.bad_request_line",
            FrameError::BadHeader(_) => "serve.bad_header",
            FrameError::BadLength(_) => "serve.bad_length",
            FrameError::MissingLength => "serve.missing_length",
            FrameError::BodyTooLarge { .. } => "serve.body_too_large",
            FrameError::Io(_) => "serve.io",
        }
    }

    /// Whether the server should still attempt a typed error response.
    /// After a clean close, an idle timeout, or a socket failure there
    /// is nobody (or no way) to answer.
    pub fn responds(&self) -> bool {
        !matches!(
            self,
            FrameError::Closed | FrameError::IdleTimeout | FrameError::Io(_)
        )
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::IdleTimeout => write!(f, "idle connection"),
            FrameError::Truncated => write!(f, "request truncated mid-frame"),
            FrameError::HeadTooLarge { limit } => {
                write!(f, "request head exceeds {limit} bytes")
            }
            FrameError::BadRequestLine(line) => write!(f, "malformed request line `{line}`"),
            FrameError::BadHeader(line) => write!(f, "malformed header line `{line}`"),
            FrameError::BadLength(value) => write!(f, "bad content-length `{value}`"),
            FrameError::MissingLength => {
                write!(f, "request body requires a content-length header")
            }
            FrameError::BodyTooLarge { length, limit } => {
                write!(f, "declared body of {length} bytes exceeds limit {limit}")
            }
            FrameError::Io(kind) => write!(f, "socket error: {kind:?}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// The request's next buffered bytes, read off the socket when the
/// buffer is empty; never empty. `deadline` is `None` until the request
/// produced its first byte, which starts the `budget` clock. It selects
/// between [`FrameError::IdleTimeout`]/[`FrameError::Closed`] (before
/// the first byte) and [`FrameError::Truncated`] (after, or once the
/// deadline passed).
fn fill<'r>(
    r: &'r mut impl BufRead,
    deadline: &mut Option<Instant>,
    budget: Duration,
) -> Result<&'r [u8], FrameError> {
    loop {
        let ready = match r.fill_buf() {
            Ok([]) if deadline.is_some() => return Err(FrameError::Truncated),
            Ok([]) => return Err(FrameError::Closed),
            Ok(_) => true,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if deadline.is_none() {
                    return Err(FrameError::IdleTimeout);
                }
                false
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e.kind())),
        };
        let now = Instant::now();
        match *deadline {
            Some(d) if now >= d => return Err(FrameError::Truncated),
            Some(_) => {}
            None => *deadline = Some(now + budget),
        }
        if ready {
            // Bytes are buffered, so this returns them without a read.
            return r.fill_buf().map_err(|e| FrameError::Io(e.kind()));
        }
    }
}

/// Reads and parses one request off `r`.
///
/// The caller is expected to have set a read timeout on the underlying
/// socket: timeouts on an idle connection come back as
/// [`FrameError::IdleTimeout`] so a serving loop can poll its shutdown
/// flag between requests. `budget` bounds the request in wall-clock
/// time from its first byte: past it the request is
/// [`FrameError::Truncated`], however slowly the client keeps sending,
/// checked whenever a socket read returns.
///
/// # Errors
///
/// Any [`FrameError`]; see its variants for the status/code mapping.
pub fn read_request(
    r: &mut impl BufRead,
    limits: &Limits,
    budget: Duration,
) -> Result<Request, FrameError> {
    let mut head: Vec<u8> = Vec::new();
    let mut deadline = None;
    loop {
        let buf = fill(r, &mut deadline, budget)?;
        let mut taken = 0;
        let mut complete = false;
        for &byte in buf {
            head.push(byte);
            taken += 1;
            if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") {
                complete = true;
                break;
            }
            if head.len() > limits.max_head_bytes {
                return Err(FrameError::HeadTooLarge {
                    limit: limits.max_head_bytes,
                });
            }
        }
        r.consume(taken);
        if complete {
            break;
        }
    }
    let head_text = String::from_utf8_lossy(&head);
    let mut lines = head_text.lines().filter(|l| !l.is_empty());
    let request_line = lines.next().unwrap_or_default().to_owned();
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if v.starts_with("HTTP/1.") => (m, t, v),
        _ => return Err(FrameError::BadRequestLine(request_line.clone())),
    };
    let _ = version;
    let method = method.to_owned();
    let target = target.to_owned();

    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| FrameError::BadHeader(line.to_owned()))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let length = match headers.iter().find(|(n, _)| n == "content-length") {
        Some((_, v)) => Some(
            v.parse::<usize>()
                .map_err(|_| FrameError::BadLength(v.clone()))?,
        ),
        None => None,
    };
    let length = match (length, method.as_str()) {
        (Some(n), _) => n,
        (None, "POST" | "PUT") => return Err(FrameError::MissingLength),
        (None, _) => 0,
    };
    if length > limits.max_body_bytes {
        return Err(FrameError::BodyTooLarge {
            length,
            limit: limits.max_body_bytes,
        });
    }

    let mut body = Vec::with_capacity(length);
    while body.len() < length {
        let buf = fill(r, &mut deadline, budget)?;
        let n = buf.len().min(length - body.len());
        body.extend_from_slice(&buf[..n]);
        r.consume(n);
    }

    Ok(Request {
        method,
        target,
        headers,
        body,
    })
}

/// The reason phrase for the statuses this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Writes one `application/json` response.
///
/// # Errors
///
/// Propagates socket write errors; the caller drops the connection.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    w.write_all(body)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    const BUDGET: Duration = Duration::from_secs(10);

    fn parse(bytes: &[u8]) -> Result<Request, FrameError> {
        read_request(&mut BufReader::new(bytes), &Limits::default(), BUDGET)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(b"POST /v1/estimate HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/v1/estimate");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn parses_a_get_without_length() {
        let req = parse(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn typed_errors_for_malformed_frames() {
        assert!(matches!(
            parse(b"NONSENSE\r\n\r\n"),
            Err(FrameError::BadRequestLine(_))
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(FrameError::BadHeader(_))
        ));
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: soon\r\n\r\n"),
            Err(FrameError::BadLength(_))
        ));
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\n\r\n"),
            Err(FrameError::MissingLength)
        ));
        assert!(matches!(parse(b""), Err(FrameError::Closed)));
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn body_limit_is_enforced_before_reading() {
        let limits = Limits {
            max_body_bytes: 8,
            ..Limits::default()
        };
        let err = read_request(
            &mut BufReader::new(&b"POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789"[..]),
            &limits,
            BUDGET,
        )
        .unwrap_err();
        assert_eq!(
            err,
            FrameError::BodyTooLarge {
                length: 9,
                limit: 8
            }
        );
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn head_limit_is_enforced() {
        let mut bytes = b"GET /x HTTP/1.1\r\n".to_vec();
        bytes.extend([b'a'; 64]);
        let limits = Limits {
            max_head_bytes: 32,
            ..Limits::default()
        };
        let err = read_request(&mut BufReader::new(&bytes[..]), &limits, BUDGET).unwrap_err();
        assert!(matches!(err, FrameError::HeadTooLarge { .. }));
        assert_eq!(err.status(), 431);
    }

    /// A client that sends one byte per read, `gap` apart: it never lets
    /// a read time out, so only the wall-clock deadline can stop it.
    struct Trickle<'a> {
        bytes: &'a [u8],
        gap: Duration,
    }

    impl std::io::Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            std::thread::sleep(self.gap);
            let Some((&first, rest)) = self.bytes.split_first() else {
                return Ok(0);
            };
            out[0] = first;
            self.bytes = rest;
            Ok(1)
        }
    }

    #[test]
    fn a_trickling_client_is_truncated_at_the_deadline() {
        let request = b"POST /v1/estimate HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
        let slow = || {
            BufReader::new(Trickle {
                bytes: request,
                gap: Duration::from_millis(2),
            })
        };

        // Arriving takes ~110 ms, far past a 40 ms budget.
        let short = Duration::from_millis(40);
        let err = read_request(&mut slow(), &Limits::default(), short).unwrap_err();
        assert_eq!(err, FrameError::Truncated);

        // A 10 s budget lets the same client finish.
        let req = read_request(&mut slow(), &Limits::default(), BUDGET).unwrap();
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn responses_round_trip_the_status_line() {
        let mut out = Vec::new();
        write_response(&mut out, 200, b"{}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
