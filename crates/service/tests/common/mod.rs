//! Test plumbing shared by the HTTP loopback suites: the two-schema
//! service they serve and a raw HTTP/1.1 client.
//!
//! Each test binary compiles this module on its own and uses a subset of
//! it, hence the `dead_code` allowance.
#![allow(dead_code)]

use schema_summary_datasets::{tpch, xmark};
use schema_summary_service::{SummaryService, WireError};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A service with XMark and TPC-H (both at scale 1.0) registered under
/// `xmark` and `tpch`.
pub fn build_service() -> Arc<SummaryService> {
    let service = SummaryService::default();
    let (xg, xs, _) = xmark::schema(1.0);
    let (tg, ts, _) = tpch::schema(1.0);
    service.register_named("xmark", Arc::new(xg), Arc::new(xs));
    service.register_named("tpch", Arc::new(tg), Arc::new(ts));
    Arc::new(service)
}

/// A parsed HTTP response off the wire.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub headers: HashMap<String, String>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(String::as_str)
    }

    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).expect("body is UTF-8")
    }

    /// Decode a `200` reply body.
    pub fn json<T: serde::Deserialize>(&self) -> T {
        assert_eq!(self.status, 200, "{}", self.text());
        serde_json::from_str(self.text())
            .unwrap_or_else(|e| panic!("reply does not parse ({e}): {}", self.text()))
    }

    /// The structured error an error response carries.
    pub fn error(&self) -> WireError {
        #[derive(serde::Deserialize)]
        struct ErrorBody {
            error: WireError,
        }
        let body: ErrorBody = serde_json::from_str(self.text())
            .unwrap_or_else(|e| panic!("not an error body ({e}): {}", self.text()));
        body.error
    }
}

/// A raw HTTP client over one TCP connection, so keep-alive reuse and
/// pipelining are under test control (no helper library, nothing
/// buffers ahead).
pub struct Client {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            stream,
            pending: Vec::new(),
        }
    }

    pub fn send_raw(&mut self, raw: &[u8]) {
        self.stream.write_all(raw).unwrap();
        self.stream.flush().unwrap();
    }

    /// Send one request with optional body; `extra` lets tests inject
    /// headers like `Connection: close`.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        extra: &str,
        body: Option<&str>,
    ) -> Response {
        self.send_raw(raw_request(method, target, extra, body).as_bytes());
        self.read_response()
    }

    pub fn get(&mut self, target: &str) -> Response {
        self.request("GET", target, "", None)
    }

    pub fn post(&mut self, target: &str, body: &str) -> Response {
        self.request("POST", target, "", Some(body))
    }

    /// Write every `(path, body)` POST in one go, then read the replies
    /// in order: HTTP/1.1 pipelining.
    pub fn pipeline(&mut self, posts: &[(&str, String)]) -> Vec<Response> {
        let raw: String = posts
            .iter()
            .map(|(path, body)| raw_request("POST", path, "", Some(body)))
            .collect();
        self.send_raw(raw.as_bytes());
        posts.iter().map(|_| self.read_response()).collect()
    }

    /// Read exactly one response: head to the blank line, then
    /// `Content-Length` body bytes (the server always sends a length).
    pub fn read_response(&mut self) -> Response {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(head_end) = find(&self.pending, b"\r\n\r\n") {
                let head = std::str::from_utf8(&self.pending[..head_end]).unwrap();
                let mut lines = head.split("\r\n");
                let status_line = lines.next().unwrap();
                assert!(
                    status_line.starts_with("HTTP/1.1 "),
                    "bad status line: {status_line}"
                );
                let status: u16 = status_line
                    .split_whitespace()
                    .nth(1)
                    .unwrap()
                    .parse()
                    .unwrap();
                let headers: HashMap<String, String> = lines
                    .filter_map(|l| l.split_once(':'))
                    .map(|(k, v)| (k.to_ascii_lowercase(), v.trim().to_string()))
                    .collect();
                let len: usize = headers
                    .get("content-length")
                    .expect("every response carries Content-Length")
                    .parse()
                    .unwrap();
                let body_start = head_end + 4;
                while self.pending.len() < body_start + len {
                    let n = self.stream.read(&mut chunk).unwrap();
                    assert!(n > 0, "EOF mid-body");
                    self.pending.extend_from_slice(&chunk[..n]);
                }
                let body = self.pending[body_start..body_start + len].to_vec();
                self.pending.drain(..body_start + len);
                return Response {
                    status,
                    headers,
                    body,
                };
            }
            let n = self.stream.read(&mut chunk).unwrap();
            assert!(n > 0, "EOF before response head");
            self.pending.extend_from_slice(&chunk[..n]);
        }
    }

    /// The server closed its end: reads return EOF (or reset).
    pub fn assert_eof(&mut self) {
        let mut chunk = [0u8; 64];
        match self.stream.read(&mut chunk) {
            Ok(0) => {}
            Ok(n) => panic!("expected EOF, got {n} bytes"),
            Err(_) => {} // reset also counts as closed
        }
    }
}

/// Two request bodies as large as the 1 MiB body cap and nested far past
/// the JSON parser's depth bound: `[[[[…` and `{"a":{"a":…`.
pub fn deeply_nested_bodies() -> [String; 2] {
    const BODY_CAP: usize = 1024 * 1024;
    ["[", r#"{"a":"#].map(|open| {
        let mut body = open.repeat(BODY_CAP / open.len() + 1);
        body.truncate(BODY_CAP);
        body
    })
}

fn raw_request(method: &str, target: &str, extra: &str, body: Option<&str>) -> String {
    match body {
        Some(b) => format!(
            "{method} {target} HTTP/1.1\r\nHost: test\r\n{extra}Content-Length: {}\r\n\r\n{b}",
            b.len()
        ),
        None => format!("{method} {target} HTTP/1.1\r\nHost: test\r\n{extra}\r\n"),
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// A server that accepted nothing new after shutdown: a connection is
/// refused, or closed without a byte of service.
pub fn assert_refuses_connections(addr: SocketAddr) {
    if let Ok(mut stream) = TcpStream::connect(addr) {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
        let mut buf = [0u8; 16];
        assert!(
            matches!(stream.read(&mut buf), Ok(0) | Err(_)),
            "no service after shutdown"
        );
    }
}
