//! A minimal blocking HTTP/1.1 client for node-to-node traffic: the
//! router's proxy hop and the admin fan-out both speak through it.
//!
//! The client understands exactly the subset of HTTP/1.1 the serving
//! tier emits — a status line, `Content-Length`-framed bodies, and an
//! explicit `Connection` header on every response — so it can stay
//! dependency-free and keep one reusable connection per node: a request
//! takes a pooled connection when one exists, and returns it after a
//! `Connection: keep-alive` response. A pooled connection that has gone
//! stale (the node restarted, an idle timeout fired) fails on first use
//! and is replaced by one fresh connect before the error is reported, so
//! keep-alive reuse never turns a healthy node into a spurious failure.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

/// A parsed response from a node.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value (empty when absent).
    pub content_type: String,
    /// The full body.
    pub body: Vec<u8>,
    /// Whether the node asked to keep the connection open.
    keep_alive: bool,
}

/// A pooled HTTP/1.1 client, safe to share across threads.
pub struct NodeClient {
    connect_timeout: Duration,
    io_timeout: Duration,
    pool: Mutex<HashMap<String, Vec<TcpStream>>>,
}

/// Strip an optional `http://` scheme and trailing slash, leaving the
/// `host:port` authority the socket layer wants.
pub(crate) fn authority(node: &str) -> &str {
    node.trim_start_matches("http://").trim_end_matches('/')
}

impl NodeClient {
    /// Create a client with the given connect and per-request I/O
    /// timeouts.
    pub fn new(connect_timeout: Duration, io_timeout: Duration) -> Self {
        NodeClient {
            connect_timeout,
            io_timeout,
            pool: Mutex::new(HashMap::new()),
        }
    }

    fn take_pooled(&self, node: &str) -> Option<TcpStream> {
        self.pool
            .lock()
            .expect("client pool poisoned")
            .get_mut(node)
            .and_then(Vec::pop)
    }

    fn return_pooled(&self, node: &str, stream: TcpStream) {
        let mut pool = self.pool.lock().expect("client pool poisoned");
        let slot = pool.entry(node.to_string()).or_default();
        // A small per-node bound: beyond it, just close. The router's
        // connection-per-client-thread model rarely needs more.
        if slot.len() < 8 {
            slot.push(stream);
        }
    }

    fn connect(&self, node: &str) -> io::Result<TcpStream> {
        use std::net::ToSocketAddrs;
        let authority = authority(node);
        let addr = authority.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("bad node address '{node}'"),
            )
        })?;
        let stream = TcpStream::connect_timeout(&addr, self.connect_timeout)?;
        stream.set_read_timeout(Some(self.io_timeout))?;
        stream.set_write_timeout(Some(self.io_timeout))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// Issue one request against `node`. `headers` are extra header
    /// lines (name, value); the body, when present, is sent with
    /// `Content-Length`. Transport failures on a pooled (possibly stale)
    /// connection retry once on a fresh connect; failures on the fresh
    /// connection propagate.
    pub fn request(
        &self,
        node: &str,
        method: &str,
        target: &str,
        content_type: Option<&str>,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<ClientResponse> {
        if let Some(stream) = self.take_pooled(node) {
            // A pooled connection may have died idle; on failure the
            // fresh connect below decides whether the node is really
            // gone.
            if let Ok(resp) =
                self.round_trip(stream, node, method, target, content_type, headers, body)
            {
                return Ok(resp);
            }
        }
        let stream = self.connect(node)?;
        self.round_trip(stream, node, method, target, content_type, headers, body)
    }

    #[allow(clippy::too_many_arguments)]
    fn round_trip(
        &self,
        mut stream: TcpStream,
        node: &str,
        method: &str,
        target: &str,
        content_type: Option<&str>,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<ClientResponse> {
        let message = encode_request(node, method, target, content_type, headers, body);
        stream.write_all(&message)?;
        stream.flush()?;
        let response = read_response(&mut stream)?;
        if response.keep_alive {
            self.return_pooled(node, stream);
        }
        Ok(response)
    }
}

/// One request message — request line, `Host`, `Content-Type` when
/// given, the extra headers, `Content-Length`, `Connection: keep-alive`,
/// body — in one buffer, so it goes out in one write and the node never
/// wakes on a head without its body.
fn encode_request(
    node: &str,
    method: &str,
    target: &str,
    content_type: Option<&str>,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Vec<u8> {
    let mut head = format!(
        "{method} {target} HTTP/1.1\r\nHost: {}\r\n",
        authority(node)
    );
    if let Some(ct) = content_type {
        head.push_str(&format!("Content-Type: {ct}\r\n"));
    }
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!(
        "Content-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    ));
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    message
}

/// Read exactly one response off `stream`: head through the blank line,
/// then `Content-Length` body bytes. The serving tier always sends a
/// length, so anything else is a protocol error.
fn read_response(stream: &mut TcpStream) -> io::Result<ClientResponse> {
    let mut pending: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find(&pending, b"\r\n\r\n") {
            break pos;
        }
        if pending.len() > 64 * 1024 {
            return Err(protocol_error("response head too large"));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(protocol_error("connection closed before response head"));
        }
        pending.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&pending[..head_end])
        .map_err(|_| protocol_error("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .strip_prefix("HTTP/1.1 ")
        .or_else(|| status_line.strip_prefix("HTTP/1.0 "))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| protocol_error("malformed status line"))?;
    let mut content_length: Option<usize> = None;
    let mut content_type = String::new();
    let mut keep_alive = true;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = Some(
                    value
                        .parse()
                        .map_err(|_| protocol_error("bad Content-Length"))?,
                );
            }
            "content-type" => content_type = value.to_string(),
            "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }
    let len = content_length.ok_or_else(|| protocol_error("response without Content-Length"))?;
    let body_start = head_end + 4;
    let mut body: Vec<u8> = pending[body_start..].to_vec();
    while body.len() < len {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(protocol_error("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(len);
    Ok(ClientResponse {
        status,
        content_type,
        body,
        keep_alive,
    })
}

fn protocol_error(detail: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.to_string())
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_bytes_are_one_framed_message() {
        let message = encode_request(
            "http://127.0.0.1:9000/",
            "POST",
            "/v1/summary",
            Some("application/json"),
            &[("X-Fanout", "1"), ("X-Other", "two")],
            b"{\"k\":2}",
        );
        assert_eq!(
            message,
            b"POST /v1/summary HTTP/1.1\r\n\
              Host: 127.0.0.1:9000\r\n\
              Content-Type: application/json\r\n\
              X-Fanout: 1\r\n\
              X-Other: two\r\n\
              Content-Length: 7\r\n\
              Connection: keep-alive\r\n\
              \r\n\
              {\"k\":2}"
        );
        let bare = encode_request("127.0.0.1:9000", "GET", "/healthz", None, &[], b"");
        assert_eq!(
            bare,
            b"GET /healthz HTTP/1.1\r\n\
              Host: 127.0.0.1:9000\r\n\
              Content-Length: 0\r\n\
              Connection: keep-alive\r\n\
              \r\n"
        );
    }
}
