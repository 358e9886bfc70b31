//! A zero-dependency HTTP/1.1 server over [`std::net::TcpListener`], just
//! big enough to expose the telemetry service's three read-only endpoints.
//!
//! The offline-workspace rule forbids pulling in an HTTP crate, and the
//! surface is deliberately tiny: `GET` only, three paths, every response
//! `Connection: close`. What *is* here is the part that matters for a
//! sidecar inside a measurement tool:
//!
//! * **Bounded connections** — at most [`MAX_ACTIVE_CONNECTIONS`] handler
//!   threads at once; excess clients get an immediate `503` instead of a
//!   growing backlog inside the analyzed process.
//! * **Bounded reads** — request heads are read with a socket timeout and
//!   an 8 KiB cap, so a stalled or hostile client cannot pin a handler.
//! * **Graceful shutdown** — [`HttpServer::shutdown`] flips a flag and
//!   wakes the blocking accept loop with a self-connection, then joins
//!   the accept thread; no `SO_REUSEADDR` races, no detached listener.
//!
//! Handlers are a plain `Fn(&str) -> Response` over the request path;
//! routing and body rendering live with the service, keeping this module
//! transport-only (and independently testable).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Concurrent in-flight request handlers; clients past this are refused
/// with `503` (the scrape interval is seconds, the budget is generous).
pub const MAX_ACTIVE_CONNECTIONS: usize = 16;

/// Per-socket read/write timeout: a scraper that stalls longer than this
/// loses its connection rather than pinning a handler thread.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(5);

/// Longest request head (request line + headers) accepted.
const MAX_REQUEST_HEAD: usize = 8 * 1024;

/// One response a handler returns. The server adds the status line,
/// `Content-Length`, and `Connection: close`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code (200, 404, ...).
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// The response body.
    pub body: String,
}

impl Response {
    /// A `200 OK` with the given content type.
    pub fn ok(content_type: &'static str, body: String) -> Response {
        Response {
            status: 200,
            content_type,
            body,
        }
    }

    /// A plain-text `404 Not Found`.
    pub fn not_found() -> Response {
        Response {
            status: 404,
            content_type: "text/plain; charset=utf-8",
            body: "not found\n".into(),
        }
    }
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// The handler signature: request path (query string stripped) in,
/// [`Response`] out. Must be cheap-ish and must not panic (a panic kills
/// only that connection's thread, but the scrape is lost).
pub type Handler = Arc<dyn Fn(&str) -> Response + Send + Sync>;

/// A running HTTP listener. Dropping without calling
/// [`shutdown`](HttpServer::shutdown) leaks the accept thread until
/// process exit; the service owns one and always shuts it down.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer").field("addr", &self.addr).finish()
    }
}

impl HttpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9184"` or `"127.0.0.1:0"` for an
    /// ephemeral port) and starts the accept loop on a background thread.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the address cannot be resolved or bound.
    pub fn bind(addr: &str, handler: Handler) -> io::Result<HttpServer> {
        // Resolve explicitly so a bad flag value fails at startup with a
        // clear message instead of inside the accept thread.
        let mut addrs = addr.to_socket_addrs()?;
        let resolved = addrs.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("no address for {addr:?}"))
        })?;
        let listener = TcpListener::bind(resolved)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = stop.clone();
        let accept_thread = std::thread::Builder::new()
            .name("obs-http-accept".into())
            .spawn(move || accept_loop(&listener, &accept_stop, &handler))?;
        Ok(HttpServer {
            addr: local,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (carries the real port after binding `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, wakes the accept loop, and joins it. In-flight
    /// handler threads finish their single response on their own (their
    /// sockets carry a 5 s read and write timeout).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in accept(); poke it awake. A failure
        // here means the listener is already gone, which also unblocks.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, stop: &Arc<AtomicBool>, handler: &Handler) {
    let active = Arc::new(AtomicUsize::new(0));
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
        let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
        if active.load(Ordering::SeqCst) >= MAX_ACTIVE_CONNECTIONS {
            // Over budget: refuse inline (cheap — one small write).
            let mut stream = stream;
            let _ = write_response(
                &mut stream,
                &Response {
                    status: 503,
                    content_type: "text/plain; charset=utf-8",
                    body: "busy\n".into(),
                },
            );
            continue;
        }
        active.fetch_add(1, Ordering::SeqCst);
        let conn_active = active.clone();
        let handler = handler.clone();
        let spawned = std::thread::Builder::new()
            .name("obs-http-conn".into())
            .spawn(move || {
                let mut stream = stream;
                handle_connection(&mut stream, &handler);
                conn_active.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            // Could not spawn (resource exhaustion): undo the count; the
            // client sees a closed connection.
            active.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Reads the request head (up to the blank line or the size cap).
fn read_request_head(stream: &mut TcpStream) -> io::Result<String> {
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&chunk[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= MAX_REQUEST_HEAD {
            break;
        }
    }
    Ok(String::from_utf8_lossy(&head).into_owned())
}

fn handle_connection(stream: &mut TcpStream, handler: &Handler) {
    let head = match read_request_head(stream) {
        Ok(head) => head,
        Err(_) => {
            let _ = write_response(
                stream,
                &Response {
                    status: 408,
                    content_type: "text/plain; charset=utf-8",
                    body: "request timed out\n".into(),
                },
            );
            return;
        }
    };
    let response = route_request(&head, handler);
    let _ = write_response(stream, &response);
}

/// Parses the request line out of `head` and dispatches: non-GET methods
/// get `405`, malformed requests `400`, everything else the handler.
fn route_request(head: &str, handler: &Handler) -> Response {
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Response {
            status: 400,
            content_type: "text/plain; charset=utf-8",
            body: "malformed request line\n".into(),
        };
    };
    if method != "GET" {
        return Response {
            status: 405,
            content_type: "text/plain; charset=utf-8",
            body: format!("method {method} not allowed; this endpoint is GET-only\n"),
        };
    }
    // Strip any query string; the endpoints take no parameters.
    let path = target.split('?').next().unwrap_or(target);
    handler(path)
}

fn write_response(stream: &mut TcpStream, response: &Response) -> io::Result<()> {
    let header = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        status_reason(response.status),
        response.content_type,
        response.body.len(),
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

/// A minimal blocking GET against a server bound on `addr`, returning
/// `(status, body)`. Used by the bench scraper and tests; not a general
/// client (no redirects, no keep-alive, no chunked decoding — the server
/// above never produces them).
///
/// # Errors
///
/// Returns the I/O error when the connection or read fails, or
/// `InvalidData` when the response head is malformed.
pub fn http_get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
    stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw).into_owned();
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "no header/body split"));
    };
    let status = head
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server() -> HttpServer {
        let handler: Handler = Arc::new(|path: &str| match path {
            "/ping" => Response::ok("text/plain; charset=utf-8", "pong\n".into()),
            _ => Response::not_found(),
        });
        HttpServer::bind("127.0.0.1:0", handler).expect("bind ephemeral")
    }

    #[test]
    fn serves_get_and_404s_unknown_paths() {
        let server = echo_server();
        let addr = server.local_addr();
        let (status, body) = http_get(addr, "/ping").unwrap();
        assert_eq!((status, body.as_str()), (200, "pong\n"));
        let (status, _) = http_get(addr, "/nope").unwrap();
        assert_eq!(status, 404);
        // Query strings are stripped before routing.
        let (status, _) = http_get(addr, "/ping?x=1").unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn rejects_non_get_methods_with_405() {
        let server = echo_server();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /ping HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 405 "), "{out}");
        server.shutdown();
    }

    #[test]
    fn malformed_request_line_gets_400() {
        let server = echo_server();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"garbage\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400 "), "{out}");
        server.shutdown();
    }

    #[test]
    fn shutdown_unblocks_accept_and_closes_the_port() {
        let server = echo_server();
        let addr = server.local_addr();
        server.shutdown();
        // After shutdown the listener is gone; a request must fail to
        // connect or fail to produce a response.
        let outcome = http_get(addr, "/ping");
        assert!(outcome.is_err() || outcome.is_ok_and(|(s, _)| s == 0));
    }

    #[test]
    fn concurrent_scrapes_all_answer() {
        let server = echo_server();
        let addr = server.local_addr();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(move || http_get(addr, "/ping").map(|(s, _)| s)))
                .collect();
            for handle in handles {
                assert_eq!(handle.join().unwrap().unwrap(), 200);
            }
        });
        server.shutdown();
    }
}
