//! Minimal HTTP/1.1 request parsing and response serialisation.
//!
//! The environment is offline — no tokio, no hyper — so fleetd speaks
//! exactly the slice of HTTP/1.1 its read path needs, over `std::net`
//! blocking sockets: `GET`/`HEAD`, keep-alive with pipelining, and a
//! fixed set of error codes. The parser is incremental: feed it the
//! buffered bytes of a connection and it either consumes one complete
//! request, asks for more bytes, or condemns the connection with a
//! status code. All limits are enforced *while* parsing, so a hostile
//! peer cannot make the buffer grow past [`MAX_HEAD_BYTES`] + one read.
//!
//! No request body is ever accepted: the API is read-only, and a
//! `Content-Length`/`Transfer-Encoding` header is a parse error (411/400)
//! rather than a body we would have to drain.

use std::io::Write as _;
use std::sync::Arc;

use hpc_telemetry::json::JsonValue;

/// Longest accepted request line (method + target + version), bytes.
pub const MAX_REQUEST_LINE: usize = 8 * 1024;

/// Longest accepted header section (request line + all headers), bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;

/// One parsed request head.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// `GET` or `HEAD` (anything else is rejected with 405).
    pub method: Method,
    /// Request target path, with any query string split off.
    pub path: String,
    /// Raw query string after `?` (empty when absent). Values are taken
    /// literally — no percent-decoding — which covers every parameter
    /// the read API accepts.
    pub query: String,
    /// Header name/value pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Whether the connection may serve another request after this one.
    pub keep_alive: bool,
}

/// Accepted request methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Full response.
    Get,
    /// Headers only; the body is computed but not written.
    Head,
}

impl Request {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The query string as `(key, value)` pairs in request order. A
    /// parameter without `=` yields an empty value; empty `&&` runs are
    /// skipped.
    pub fn params(&self) -> impl Iterator<Item = (&str, &str)> {
        self.query
            .split('&')
            .filter(|p| !p.is_empty())
            .map(|p| p.split_once('=').unwrap_or((p, "")))
    }
}

/// Outcome of one parse attempt over a connection buffer.
#[derive(Debug, PartialEq)]
pub enum Parse {
    /// One complete request, consuming the first `usize` buffered bytes.
    Complete(Request, usize),
    /// No complete head yet — read more bytes and retry.
    Partial,
    /// The bytes cannot become a servable request; respond with this
    /// status and close. The `&str` names the reason for the error body.
    Error(u16, &'static str),
}

/// Parses at most one request head from the front of `buf`.
pub fn parse_request(buf: &[u8]) -> Parse {
    // Find the end of the head ("\r\n\r\n"), enforcing limits on the way.
    let head_end = match find_head_end(buf) {
        Some(end) => end,
        None => {
            // No terminator yet. Over-limit partials are already fatal.
            if first_line_len(buf) > MAX_REQUEST_LINE {
                return Parse::Error(431, "request line too long");
            }
            if buf.len() > MAX_HEAD_BYTES {
                return Parse::Error(431, "request header section too large");
            }
            return Parse::Partial;
        }
    };
    if head_end > MAX_HEAD_BYTES {
        return Parse::Error(431, "request header section too large");
    }
    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(h) => h,
        Err(_) => return Parse::Error(400, "request head is not valid UTF-8"),
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    if request_line.len() > MAX_REQUEST_LINE {
        return Parse::Error(431, "request line too long");
    }
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Parse::Error(400, "malformed request line"),
    };
    let method = match method {
        "GET" => Method::Get,
        "HEAD" => Method::Head,
        // Anything token-shaped but unsupported: 405 with Allow.
        m if m.chars().all(|c| c.is_ascii_uppercase()) && !m.is_empty() => {
            return Parse::Error(405, "method not allowed")
        }
        _ => return Parse::Error(400, "malformed request line"),
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Parse::Error(505, "unsupported HTTP version"),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if headers.len() >= MAX_HEADERS {
            return Parse::Error(431, "too many headers");
        }
        let Some((name, value)) = line.split_once(':') else {
            return Parse::Error(400, "malformed header line");
        };
        if name.is_empty() || name.contains(' ') || name.contains('\t') {
            return Parse::Error(400, "malformed header name");
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let req = Request {
        keep_alive: keep_alive(http11, &headers),
        method,
        path: path.to_string(),
        query: query.to_string(),
        headers,
    };
    if req.header("content-length").is_some_and(|v| v != "0")
        || req.header("transfer-encoding").is_some()
    {
        return Parse::Error(411, "request bodies are not accepted");
    }
    Parse::Complete(req, head_end)
}

/// Index just past the `\r\n\r\n` head terminator, if buffered.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Length of the first line currently buffered (capped by buffer end).
fn first_line_len(buf: &[u8]) -> usize {
    buf.iter().position(|&b| b == b'\n').unwrap_or(buf.len())
}

fn keep_alive(http11: bool, headers: &[(String, String)]) -> bool {
    let conn = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    match conn.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => http11,
    }
}

/// `Content-Type` of every JSON body.
pub(crate) const JSON: &str = "application/json";

/// `Content-Type` of the plain-text report.
pub(crate) const TEXT: &str = "text/plain; charset=utf-8";

/// One response ready for serialisation.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Extra headers (e.g. `ETag`, `Retry-After`).
    pub extra_headers: Vec<(String, String)>,
    /// Response body; a snapshot route shares its snapshot's cached bytes.
    /// Suppressed on `HEAD` and 304, whose `Content-Length` is still the
    /// body's.
    pub body: Arc<[u8]>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: JSON,
            extra_headers: Vec::new(),
            body: body.into().into(),
        }
    }

    /// The error shape every non-2xx path uses: `{"error": "..."}`.
    pub fn error(status: u16, reason: &str) -> Response {
        let body = JsonValue::Object(vec![("error".into(), JsonValue::String(reason.into()))]);
        let mut r = Response::json(status, body.to_string());
        if status == 405 {
            r.extra_headers
                .push(("Allow".to_string(), "GET, HEAD".to_string()));
        }
        if status == 503 {
            r.extra_headers
                .push(("Retry-After".to_string(), "1".to_string()));
        }
        r
    }

    /// Serialises status line, headers and (unless suppressed) the body.
    pub fn write_to(&self, head_only: bool) -> Vec<u8> {
        let body: &[u8] = if head_only || self.status == 304 {
            &[]
        } else {
            &self.body
        };
        let mut out = Vec::with_capacity(256 + body.len());
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len()
        );
        for (k, v) in &self.extra_headers {
            let _ = write!(out, "{k}: {v}\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(body);
        out
    }
}

/// Reason phrase for the status codes fleetd emits.
fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Response",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Parse {
        parse_request(s.as_bytes())
    }

    #[test]
    fn complete_get_parses_with_keep_alive_default() {
        let raw = "GET /v1/systems HTTP/1.1\r\nHost: x\r\n\r\n";
        match parse(raw) {
            Parse::Complete(req, consumed) => {
                assert_eq!(req.method, Method::Get);
                assert_eq!(req.path, "/v1/systems");
                assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
                assert_eq!(consumed, raw.len());
                assert_eq!(req.header("host"), Some("x"));
            }
            other => panic!("want Complete, got {other:?}"),
        }
    }

    #[test]
    fn torn_headers_stay_partial_until_the_blank_line_arrives() {
        // Every prefix of a valid request must parse as Partial — the
        // tearing can land anywhere, including mid-header-name.
        let raw = "GET /v1/systems/S1/window HTTP/1.1\r\nHost: fleet\r\nAccept: */*\r\n\r\n";
        for cut in 0..raw.len() {
            let got = parse(&raw[..cut]);
            assert_eq!(got, Parse::Partial, "prefix of {cut} bytes");
        }
        assert!(matches!(parse(raw), Parse::Complete(_, _)));
    }

    #[test]
    fn oversized_request_line_is_431_even_unterminated() {
        // The limit applies while the line is still arriving: a peer
        // cannot stall in Partial forever by never sending the newline.
        let raw = format!("GET /{} ", "x".repeat(MAX_REQUEST_LINE));
        assert_eq!(parse(&raw), Parse::Error(431, "request line too long"));
        let terminated = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_REQUEST_LINE));
        assert_eq!(
            parse(&terminated),
            Parse::Error(431, "request line too long")
        );
    }

    #[test]
    fn oversized_header_section_is_431() {
        let raw = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "y".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(parse(&raw), Parse::Error(431, _)));
        // Also while unterminated.
        let partial = format!("GET / HTTP/1.1\r\nX-Pad: {}", "y".repeat(MAX_HEAD_BYTES));
        assert!(matches!(parse(&partial), Parse::Error(431, _)));
    }

    #[test]
    fn too_many_headers_is_431() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            raw.push_str(&format!("X-H{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        assert_eq!(parse(&raw), Parse::Error(431, "too many headers"));
    }

    #[test]
    fn bad_method_is_405_and_garbage_is_400() {
        assert_eq!(
            parse("POST /v1/systems HTTP/1.1\r\n\r\n"),
            Parse::Error(405, "method not allowed")
        );
        assert_eq!(
            parse("DELETE / HTTP/1.1\r\n\r\n"),
            Parse::Error(405, "method not allowed")
        );
        assert!(matches!(
            parse("g3t / HTTP/1.1\r\n\r\n"),
            Parse::Error(400, _)
        ));
        assert!(matches!(parse("\r\n\r\n"), Parse::Error(400, _)));
    }

    #[test]
    fn requests_with_bodies_are_rejected() {
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\n"),
            Parse::Error(411, _)
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Parse::Error(411, _)
        ));
    }

    #[test]
    fn pipelined_requests_consume_one_head_at_a_time() {
        let raw = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n";
        let buf = raw.as_bytes();
        let Parse::Complete(first, used) = parse_request(buf) else {
            panic!("first request must parse");
        };
        assert_eq!(first.path, "/a");
        assert!(first.keep_alive);
        let Parse::Complete(second, used2) = parse_request(&buf[used..]) else {
            panic!("second request must parse");
        };
        assert_eq!(second.path, "/b");
        assert!(!second.keep_alive, "Connection: close wins");
        assert_eq!(used + used2, raw.len());
    }

    #[test]
    fn http10_defaults_to_close_and_query_strings_split_off_the_path() {
        let Parse::Complete(req, _) = parse("GET /v1/systems?x=1 HTTP/1.0\r\n\r\n") else {
            panic!("must parse");
        };
        assert!(!req.keep_alive);
        assert_eq!(req.path, "/v1/systems");
        assert_eq!(req.query, "x=1");
    }

    #[test]
    fn query_params_iterate_in_order_with_literal_values() {
        let raw = "GET /v1/systems/S1/query?verb=count&class=mce&class=disk_error&flag&from=2016-01-03T00:00:00.000 HTTP/1.1\r\n\r\n";
        let Parse::Complete(req, _) = parse(raw) else {
            panic!("must parse");
        };
        assert_eq!(req.path, "/v1/systems/S1/query");
        let params: Vec<(&str, &str)> = req.params().collect();
        assert_eq!(
            params,
            vec![
                ("verb", "count"),
                ("class", "mce"),
                ("class", "disk_error"),
                ("flag", ""),
                ("from", "2016-01-03T00:00:00.000"),
            ]
        );
        // No query string at all iterates to nothing.
        let Parse::Complete(bare, _) = parse("GET /v1/systems HTTP/1.1\r\n\r\n") else {
            panic!("must parse");
        };
        assert_eq!(bare.params().count(), 0);
    }

    #[test]
    fn response_serialises_with_status_text_and_suppresses_head_bodies() {
        let r = Response::json(200, "{\"ok\":true}".to_string());
        let full = r.write_to(false);
        let text = String::from_utf8(full).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));

        let head = String::from_utf8(r.write_to(true)).unwrap();
        assert!(head.contains("Content-Length: 11\r\n"));
        assert!(head.ends_with("\r\n\r\n"), "no body on HEAD");
    }

    #[test]
    fn error_responses_carry_allow_and_retry_after() {
        let m = Response::error(405, "method not allowed");
        let text = String::from_utf8(m.write_to(false)).unwrap();
        assert!(text.contains("Allow: GET, HEAD\r\n"));
        let busy = Response::error(503, "server busy");
        let text = String::from_utf8(busy.write_to(false)).unwrap();
        assert!(text.contains("Retry-After: 1\r\n"));
        // Clients (and the system benchmark) compare these bodies bytewise.
        assert_eq!(&*m.body, b"{\"error\":\"method not allowed\"}");
        assert_eq!(&*busy.body, b"{\"error\":\"server busy\"}");
        let missing = Response::error(404, "no such resource");
        assert_eq!(&*missing.body, b"{\"error\":\"no such resource\"}");
    }
}
