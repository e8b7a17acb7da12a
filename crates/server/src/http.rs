//! The operator endpoint: a deliberately tiny HTTP/1.0 text server on a
//! second port, curl-compatible, no external dependencies.
//!
//! Routes:
//! - `GET /healthz` — `ok` (or `draining` once shutdown started), always 200
//! - `GET /metrics` — [`ppds_observe::MetricsRegistry::render_text`]
//! - `GET /sessions` — one line per registry row
//! - `GET /trace/<id>` — the session's flight-recorder trace as
//!   Chrome/Perfetto JSON, 404 when none was recorded
//! - `GET /shutdown` — requests a graceful shutdown (the binary polls
//!   [`crate::Server::shutdown_requested`] and drains)

use crate::server::Shared;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

pub(crate) fn serve_ops(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop_ops.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stop_ops.load(Ordering::SeqCst) {
            return;
        }
        // One request per connection, served inline: operator traffic is
        // rare and tiny, so a thread per scrape would be overkill.
        let _ = handle(stream, shared);
    }
}

fn handle(stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");

    let (status, content_type, body) = route(path, shared);
    let mut out = stream;
    write!(
        out,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    out.write_all(body.as_bytes())?;
    out.flush()
}

fn route(path: &str, shared: &Arc<Shared>) -> (&'static str, &'static str, String) {
    const OK: &str = "200 OK";
    const NOT_FOUND: &str = "404 Not Found";
    const TEXT: &str = "text/plain; charset=utf-8";
    match path {
        "/healthz" => {
            let body = if shared.draining.load(Ordering::SeqCst) {
                "draining\n"
            } else {
                "ok\n"
            };
            (OK, TEXT, body.into())
        }
        "/metrics" => (OK, TEXT, shared.metrics.render_text()),
        "/sessions" => {
            let mut body = String::from("id mode state peer\n");
            for row in shared.registry.snapshot() {
                body.push_str(&format!(
                    "{} {} {} {}\n",
                    row.id,
                    row.mode,
                    row.state.name(),
                    row.peer
                ));
            }
            (OK, TEXT, body)
        }
        "/shutdown" => {
            shared.shutdown_requested.store(true, Ordering::SeqCst);
            (OK, TEXT, "draining initiated\n".into())
        }
        _ => match path.strip_prefix("/trace/").map(str::parse::<u64>) {
            Some(Ok(id)) => match shared.registry.chrome_trace(id) {
                Some(json) => (OK, "application/json", json),
                None => (NOT_FOUND, TEXT, format!("no trace for session {id}\n")),
            },
            _ => (NOT_FOUND, TEXT, format!("no route {path}\n")),
        },
    }
}

/// Minimal blocking HTTP GET against the operator endpoint, returning the
/// response body. Shared by the client example, the e2e tests, and the
/// binary's smoke path so none of them needs curl.
pub fn ops_get(addr: &std::net::SocketAddr, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect_timeout(addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n")?;
    stream.flush()?;
    let mut response = String::new();
    BufReader::new(stream).read_to_string(&mut response)?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or(response);
    Ok(body)
}
