//! The zero-dependency network front end for [`DesignService`].
//!
//! One `TcpListener`, N acceptor threads (scoped — no detached threads),
//! each owning one connection at a time. Two framings share the port and
//! are auto-detected from the first line of each connection:
//!
//! * **JSONL** — one request object per line, one checksummed response
//!   line back. The connection is persistent; this is the native framing
//!   and what the differential/load harnesses speak.
//! * **HTTP/1.1** — `POST /` with the same JSON object as the body (or
//!   `GET /ping`), response body is the same checksummed line. Keep-alive
//!   honoured; status codes mirror the response type (see
//!   [`http_status`]). This exists so `curl` works against a live daemon.
//!
//! Shutdown: a `{"type":"shutdown"}` frame flips the service's shutdown
//! flag; the handling acceptor then wakes its siblings out of `accept()`
//! with short-lived local connections, and `serve` returns once every
//! acceptor has drained its in-flight connection.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

use crate::protocol::respond;
use crate::service::{DesignService, ErrorCode, Response};

/// Run the accept loop until a shutdown frame arrives. Blocks the calling
/// thread; returns after all acceptors exit. `threads` is clamped to ≥ 1.
pub fn serve(service: &DesignService, listener: TcpListener, threads: usize) -> io::Result<()> {
    let addr = listener.local_addr()?;
    let threads = threads.max(1);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| acceptor(service, &listener, addr, threads));
        }
    });
    Ok(())
}

fn acceptor(service: &DesignService, listener: &TcpListener, addr: SocketAddr, threads: usize) {
    while !service.is_shutdown() {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => continue,
        };
        if service.is_shutdown() {
            break; // a sibling's wake-up connection, not a client
        }
        let saw_shutdown = handle_conn(service, stream).unwrap_or(false);
        if saw_shutdown {
            wake_acceptors(addr, threads);
            break;
        }
    }
}

/// Unblock sibling acceptors stuck in `accept()` after shutdown.
fn wake_acceptors(addr: SocketAddr, threads: usize) {
    for _ in 0..threads {
        drop(TcpStream::connect(addr));
    }
}

/// Serve one connection to completion. Returns `Ok(true)` if a shutdown
/// frame was processed on it.
fn handle_conn(service: &DesignService, stream: TcpStream) -> io::Result<bool> {
    let mut sp = sws_trace::span!("serve.conn");
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut requests = 0u64;
    let mut first = String::new();
    if reader.read_line(&mut first)? == 0 {
        return Ok(false);
    }
    let http = is_http_request_line(&first);
    sp.record("mode", if http { "http" } else { "jsonl" });
    let saw_shutdown = if http {
        serve_http(service, &mut reader, &mut writer, first, &mut requests)?
    } else {
        serve_jsonl(service, &mut reader, &mut writer, first, &mut requests)?
    };
    sp.record("requests", requests);
    Ok(saw_shutdown)
}

fn is_http_request_line(line: &str) -> bool {
    ["GET ", "POST ", "HEAD ", "PUT ", "DELETE ", "OPTIONS "]
        .iter()
        .any(|m| line.starts_with(m))
        && line.contains(" HTTP/1.")
}

// ---------------------------------------------------------------------
// JSONL framing
// ---------------------------------------------------------------------

fn serve_jsonl(
    service: &DesignService,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    first: String,
    requests: &mut u64,
) -> io::Result<bool> {
    let mut line = first;
    loop {
        let frame = line.trim();
        if !frame.is_empty() {
            *requests += 1;
            let (response, mut rendered) = respond(service, frame);
            // One write per response: a line split across two segments
            // stalls on Nagle's algorithm until a delayed-ACK client
            // acknowledges the first.
            rendered.push('\n');
            writer.write_all(rendered.as_bytes())?;
            writer.flush()?;
            service.maintain();
            if matches!(response, Response::Bye) {
                return Ok(true);
            }
        }
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(false);
        }
    }
}

// ---------------------------------------------------------------------
// HTTP/1.1 framing
// ---------------------------------------------------------------------

/// The status line a response maps to.
pub fn http_status(response: &Response) -> (u16, &'static str) {
    match response {
        Response::Conflict { .. } => (409, "Conflict"),
        Response::Rejected { .. } => (422, "Unprocessable Entity"),
        Response::Error { code, .. } => match code {
            ErrorCode::UnknownSession => (404, "Not Found"),
            ErrorCode::DeltaHorizon => (409, "Conflict"),
            ErrorCode::MalformedFrame | ErrorCode::BadRequest => (400, "Bad Request"),
        },
        _ => (200, "OK"),
    }
}

fn serve_http(
    service: &DesignService,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    first: String,
    requests: &mut u64,
) -> io::Result<bool> {
    let mut request_line = first;
    loop {
        let mut parts = request_line.split_whitespace();
        let method = parts.next().unwrap_or("").to_string();
        let path = parts.next().unwrap_or("/").to_string();

        // Headers.
        let mut content_length = 0usize;
        let mut close = false;
        loop {
            let mut header = String::new();
            if reader.read_line(&mut header)? == 0 {
                return Ok(false);
            }
            let header = header.trim();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.parse().unwrap_or(0);
                } else if name.eq_ignore_ascii_case("connection")
                    && value.eq_ignore_ascii_case("close")
                {
                    close = true;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;

        *requests += 1;
        let frame = match method.as_str() {
            "POST" => String::from_utf8_lossy(&body).into_owned(),
            "GET" | "HEAD" if path == "/ping" || path == "/" => "{\"type\":\"ping\"}".to_string(),
            _ => String::new(),
        };
        let (response, rendered) = if frame.is_empty() {
            let response = Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("no route for {method} {path}"),
            };
            let rendered = crate::protocol::render_response(&response);
            (response, rendered)
        } else {
            respond(service, frame.trim())
        };

        let (status, reason) = http_status(&response);
        // Head and body in one write (see `serve_jsonl`).
        let mut out = format!(
            "HTTP/1.1 {status} {reason}\r\ncontent-type: application/json\r\n\
             content-length: {}\r\nconnection: {}\r\n\r\n",
            rendered.len(),
            if close { "close" } else { "keep-alive" },
        );
        if method != "HEAD" {
            out.push_str(&rendered);
        }
        writer.write_all(out.as_bytes())?;
        writer.flush()?;
        service.maintain();
        if matches!(response, Response::Bye) {
            return Ok(true);
        }
        if close {
            return Ok(false);
        }
        request_line.clear();
        if reader.read_line(&mut request_line)? == 0 {
            return Ok(false);
        }
    }
}
