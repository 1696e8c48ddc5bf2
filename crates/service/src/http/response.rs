//! Response construction and serialization: status line, minimal headers
//! (`Content-Type`, `Content-Length`, `Connection`, and `Allow` on a
//! `405`), body. Every error either front-end sends, the node's and the
//! router's alike, is one [`WireError`](crate::http::WireError) body built
//! here.

use crate::service::ServiceError;
use std::io::{self, Write};

/// A fully materialized response, ready to serialize.
#[derive(Debug, Clone)]
pub(crate) struct HttpResponse {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    /// Force `Connection: close` regardless of what the client asked for
    /// (parse errors, shedding — states where reading on is unsafe).
    pub close: bool,
    /// `Allow` header value for `405 Method Not Allowed` responses
    /// (RFC 9110 §10.2.1 requires one), `None` everywhere else.
    pub allow: Option<&'static str>,
}

impl HttpResponse {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        HttpResponse {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            close: false,
            allow: None,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        HttpResponse {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            close: false,
            allow: None,
        }
    }

    /// A structured error: `{"error":{"kind":...,"message":...}}`, the
    /// [`WireError`](crate::http::WireError) shape.
    pub fn error(status: u16, kind: &str, message: impl Into<String>) -> Self {
        #[derive(serde::Serialize)]
        struct ErrorBody {
            error: crate::http::WireError,
        }
        let body = ErrorBody {
            error: crate::http::WireError {
                kind: kind.to_string(),
                message: message.into(),
            },
        };
        Self::json(
            status,
            serde_json::to_string(&body).expect("error serializes"),
        )
    }

    /// A service error: unknown schemas and fingerprints are `404`, bad
    /// requests and algorithm failures `400`.
    pub fn service_error(e: &ServiceError) -> Self {
        let (status, kind) = match e {
            ServiceError::UnknownSchema(_) => (404, "unknown_schema"),
            ServiceError::UnknownFingerprint(_) => (404, "unknown_fingerprint"),
            ServiceError::BadRequest(_) => (400, "bad_request"),
            ServiceError::Algo(_) => (400, "algo"),
        };
        Self::error(status, kind, e.to_string())
    }

    /// Serialize onto `out`. `keep_alive` is what the request negotiated;
    /// `self.close` overrides it.
    pub fn write_to(&self, out: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        let connection = if keep_alive && !self.close {
            "keep-alive"
        } else {
            "close"
        };
        let allow = match self.allow {
            Some(methods) => format!("Allow: {methods}\r\n"),
            None => String::new(),
        };
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{allow}Connection: {connection}\r\n\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
        );
        out.write_all(head.as_bytes())?;
        out.write_all(&self.body)?;
        out.flush()
    }

    /// Whether the connection must close after this response.
    pub fn must_close(&self) -> bool {
        self.close
    }
}

/// Canonical reason phrase for the status codes this server emits.
pub(crate) fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_status_headers_and_body() {
        let mut out = Vec::new();
        HttpResponse::text(200, "ok\n")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: text/plain; charset=utf-8\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\nok\n"));
    }

    #[test]
    fn close_flag_overrides_keep_alive() {
        let mut out = Vec::new();
        let mut r = HttpResponse::error(400, "malformed", "nope");
        r.close = true;
        r.write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("\"kind\":\"malformed\""));
    }

    #[test]
    fn allow_header_is_emitted_only_when_set() {
        let mut out = Vec::new();
        let mut r = HttpResponse::error(405, "method_not_allowed", "GET /v1/summary");
        r.allow = Some("POST");
        r.write_to(&mut out, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"));
        assert!(text.contains("Allow: POST\r\n"));
        let mut out = Vec::new();
        HttpResponse::text(200, "ok\n").write_to(&mut out, true).unwrap();
        assert!(!String::from_utf8(out).unwrap().contains("Allow:"));
    }
}
