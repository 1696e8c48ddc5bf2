//! The one HTTP connection layer, shared by the node's [`HttpServer`]
//! and the cluster's [`ClusterRouter`]. A front-end supplies what it
//! answers ([`Frontend::respond`]) and what it releases on shutdown
//! ([`Frontend::stop`]); everything else lives here once:
//!
//! * binding, and an accept loop with a connection cap — an over-cap
//!   connection gets one `503 overloaded` with `Connection: close`,
//!   without a thread;
//! * one thread per admitted connection running the keep-alive loop:
//!   read, [`parse_request`], respond, write. Reads poll with a short
//!   timeout ([`POLL_INTERVAL`]) so the thread notices shutdown; a
//!   request already fully received is always answered first. A parse
//!   failure is terminal: its status (`400`/`413`/`431`/`505`) goes out
//!   with `Connection: close`, because the byte stream can no longer be
//!   trusted to be request-aligned;
//! * the optional stderr audit line per request (peer, method, target,
//!   status, latency);
//! * the accepted/served/shed/active counters ([`Connections`]);
//! * the lifecycle: [`Listener::local_addr`], [`Listener::wait`], and a
//!   graceful [`Listener::shutdown`] (also run on drop) that stops
//!   accepting, answers what every connection has read, joins every
//!   thread, then calls [`Frontend::stop`].
//!
//! [`HttpServer`]: crate::HttpServer
//! [`ClusterRouter`]: crate::ClusterRouter

use crate::http::request::{parse_request, HttpRequest, ParseError, ParseOutcome};
use crate::http::response::HttpResponse;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked reads wake up to check for shutdown.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// What a front-end adds to the connection layer.
pub(crate) trait Frontend: Send + Sync + 'static {
    /// First word of this front-end's audit lines.
    const ROLE: &'static str;

    /// Answer one parsed request.
    fn respond(&self, request: &HttpRequest) -> HttpResponse;

    /// Release what the front-end owns beyond its connections. Runs once,
    /// after every connection thread has been joined.
    fn stop(&self) {}
}

/// Connection counters and the tracked connection threads, shared with
/// the front-end so it can count its own sheds and report the counters.
pub(crate) struct Connections {
    max_connections: usize,
    stopping: AtomicBool,
    accepted: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    active: AtomicUsize,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Connections {
    fn new(max_connections: usize) -> Self {
        Connections {
            max_connections,
            stopping: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            active: AtomicUsize::new(0),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Count a request shed by an admission bound.
    pub fn count_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// TCP connections accepted, including ones shed by the cap.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Requests answered, whatever the status.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Connections shed by the cap plus requests shed by the front-end.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Connections currently open.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    fn stopping(&self) -> bool {
        self.stopping.load(Ordering::Acquire)
    }

    /// Track a connection thread, reaping finished ones first so the list
    /// follows live connections instead of growing forever.
    fn track(&self, handle: JoinHandle<()>) {
        let mut threads = self.threads.lock().expect("connection threads poisoned");
        let mut i = 0;
        while i < threads.len() {
            if threads[i].is_finished() {
                let done = threads.swap_remove(i);
                let _ = done.join();
            } else {
                i += 1;
            }
        }
        threads.push(handle);
    }
}

/// A bound listener serving one front-end until shutdown.
pub(crate) struct Listener<F: Frontend> {
    frontend: Arc<F>,
    connections: Arc<Connections>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl<F: Frontend> Listener<F> {
    /// Bind `addr`, build the front-end over the shared counters, and
    /// start accepting. `log_requests` turns on the audit line.
    pub fn bind(
        addr: impl ToSocketAddrs,
        max_connections: usize,
        log_requests: bool,
        frontend: impl FnOnce(Arc<Connections>) -> F,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let connections = Arc::new(Connections::new(max_connections));
        let frontend = Arc::new(frontend(Arc::clone(&connections)));
        let accept_frontend = Arc::clone(&frontend);
        let accept_connections = Arc::clone(&connections);
        let accept_thread = std::thread::spawn(move || {
            accept_loop(
                &accept_connections,
                &accept_frontend,
                listener,
                log_requests,
            )
        });
        Ok(Listener {
            frontend,
            connections,
            addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The front-end this listener serves.
    pub fn frontend(&self) -> &F {
        &self.frontend
    }

    /// Block on the accept loop (which runs until shutdown or a listener
    /// failure); connections keep being served while this blocks.
    pub fn wait(mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }

    /// Graceful shutdown: stop accepting (poking the accept loop loose
    /// with a throwaway connection), answer every request already read,
    /// join every connection thread, then stop the front-end.
    pub fn shutdown(&mut self) {
        let Some(accept_thread) = self.accept_thread.take() else {
            return;
        };
        self.connections.stopping.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        let _ = accept_thread.join();
        let threads: Vec<JoinHandle<()>> = self
            .connections
            .threads
            .lock()
            .expect("connection threads poisoned")
            .drain(..)
            .collect();
        for thread in threads {
            let _ = thread.join();
        }
        self.frontend.stop();
    }
}

impl<F: Frontend> Drop for Listener<F> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accept until shutdown or listener failure; admitted connections get a
/// thread each, over-cap ones a `503` on this thread.
fn accept_loop<F: Frontend>(
    connections: &Arc<Connections>,
    frontend: &Arc<F>,
    listener: TcpListener,
    log_requests: bool,
) {
    for incoming in listener.incoming() {
        if connections.stopping() {
            return;
        }
        let Ok(mut stream) = incoming else {
            continue;
        };
        connections.accepted.fetch_add(1, Ordering::Relaxed);
        // Only this thread increments `active`, so check-then-increment
        // cannot overshoot the cap.
        if connections.active.load(Ordering::Acquire) >= connections.max_connections {
            connections.count_shed();
            let mut resp = HttpResponse::error(503, "overloaded", "connection limit reached");
            resp.close = true;
            let _ = resp.write_to(&mut stream, false);
            continue;
        }
        connections.active.fetch_add(1, Ordering::AcqRel);
        let thread_connections = Arc::clone(connections);
        let thread_frontend = Arc::clone(frontend);
        let handle = std::thread::spawn(move || {
            serve_connection(&thread_connections, &*thread_frontend, stream, log_requests);
            thread_connections.active.fetch_sub(1, Ordering::AcqRel);
        });
        connections.track(handle);
    }
}

/// Serve one connection until close, error, or shutdown.
fn serve_connection<F: Frontend>(
    connections: &Connections,
    frontend: &F,
    mut stream: TcpStream,
    log_requests: bool,
) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    // Only the audit line names the peer.
    let peer = if log_requests {
        stream
            .peer_addr()
            .map_or_else(|_| "-".to_string(), |addr| addr.to_string())
    } else {
        String::new()
    };
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // Answer every complete request already buffered.
        loop {
            match parse_request(&pending) {
                ParseOutcome::Complete(request, consumed) => {
                    pending.drain(..consumed);
                    let started = Instant::now();
                    let response = frontend.respond(&request);
                    connections.served.fetch_add(1, Ordering::Relaxed);
                    if log_requests {
                        eprintln!(
                            "{} {peer} \"{} {}\" {} {}us",
                            F::ROLE,
                            request.method,
                            request.target,
                            response.status,
                            started.elapsed().as_micros()
                        );
                    }
                    let keep_alive = request.keep_alive() && !response.must_close();
                    if response.write_to(&mut stream, keep_alive).is_err() || !keep_alive {
                        return;
                    }
                }
                ParseOutcome::Failed(e) => {
                    if log_requests {
                        eprintln!("{} {peer} \"<unparseable>\" {e:?}", F::ROLE);
                    }
                    connections.served.fetch_add(1, Ordering::Relaxed);
                    let _ = parse_error_response(e).write_to(&mut stream, false);
                    return;
                }
                ParseOutcome::Incomplete => break,
            }
        }
        if connections.stopping() {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

fn parse_error_response(e: ParseError) -> HttpResponse {
    let mut resp = match e {
        ParseError::Malformed(detail) => HttpResponse::error(400, "malformed", detail),
        ParseError::HeadTooLarge => HttpResponse::error(
            431,
            "headers_too_large",
            "request head exceeds the byte limit",
        ),
        ParseError::BodyTooLarge => {
            HttpResponse::error(413, "body_too_large", "request body exceeds the byte limit")
        }
        ParseError::UnsupportedVersion => {
            HttpResponse::error(505, "unsupported_version", "only HTTP/1.0 and HTTP/1.1")
        }
    };
    resp.close = true;
    resp
}
