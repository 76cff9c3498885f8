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
    let saw_shutdown = match read_frame_line(&mut reader)? {
        Frame::Eof => return Ok(false),
        Frame::Line(first) if is_http_request_line(&first) => {
            sp.record("mode", "http");
            serve_http(service, &mut reader, &mut writer, first, &mut requests)?
        }
        first => {
            sp.record("mode", "jsonl");
            serve_jsonl(service, &mut reader, &mut writer, first, &mut requests)?
        }
    };
    sp.record("requests", requests);
    Ok(saw_shutdown)
}

/// Largest frame the daemon reads: a JSONL line, an HTTP request line or
/// header, or an HTTP body. Anything longer is answered with
/// `malformed_frame` and the connection is closed, since the frame's end
/// is unknown.
const MAX_FRAME: usize = 8 << 20;

/// One line read by [`read_frame_line`].
enum Frame {
    /// The peer closed the stream.
    Eof,
    /// A line, with its terminator.
    Line(String),
    /// A line longer than [`MAX_FRAME`] bytes; only its first
    /// `MAX_FRAME + 1` bytes were read.
    TooLong,
}

/// Read one line, buffering at most `MAX_FRAME + 1` bytes of it.
fn read_frame_line(reader: &mut BufReader<TcpStream>) -> io::Result<Frame> {
    let mut bytes = Vec::new();
    let n = reader
        .take(MAX_FRAME as u64 + 1)
        .read_until(b'\n', &mut bytes)?;
    if n == 0 {
        return Ok(Frame::Eof);
    }
    if n > MAX_FRAME {
        return Ok(Frame::TooLong);
    }
    String::from_utf8(bytes)
        .map(Frame::Line)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn too_long() -> (Response, String) {
    let message = format!("line exceeds the {MAX_FRAME}-byte frame limit");
    error_response(ErrorCode::MalformedFrame, message)
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
    first: Frame,
    requests: &mut u64,
) -> io::Result<bool> {
    let mut next = first;
    loop {
        let close = matches!(next, Frame::TooLong);
        let (response, mut rendered) = match next {
            Frame::Eof => return Ok(false),
            Frame::TooLong => too_long(),
            Frame::Line(line) if line.trim().is_empty() => {
                next = read_frame_line(reader)?;
                continue;
            }
            Frame::Line(line) => respond(service, line.trim()),
        };
        *requests += 1;
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
        if close {
            return Ok(false);
        }
        next = read_frame_line(reader)?;
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

fn error_response(code: ErrorCode, message: String) -> (Response, String) {
    let response = Response::Error { code, message };
    let rendered = crate::protocol::render_response(&response);
    (response, rendered)
}

fn serve_http(
    service: &DesignService,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    first: String,
    requests: &mut u64,
) -> io::Result<bool> {
    let mut next = Frame::Line(first);
    loop {
        let request_line = match next {
            Frame::Eof => return Ok(false),
            Frame::TooLong => None,
            Frame::Line(line) => Some(line),
        };
        let mut parts = request_line.as_deref().unwrap_or("").split_whitespace();
        let method = parts.next().unwrap_or("").to_string();
        let path = parts.next().unwrap_or("/").to_string();

        // Headers. `Content-Length` is client-supplied: check it before
        // sizing a buffer from it. An over-long request line or header
        // ends the request where it stands.
        let mut content_length = match request_line {
            Some(_) => Ok(0usize),
            None => Err(too_long()),
        };
        let mut close = false;
        while request_line.is_some() {
            let header = match read_frame_line(reader)? {
                Frame::Eof => return Ok(false),
                Frame::TooLong => {
                    content_length = Err(too_long());
                    break;
                }
                Frame::Line(header) => header,
            };
            let header = header.trim();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = match value.parse::<usize>() {
                        Ok(n) if n <= MAX_FRAME => Ok(n),
                        Ok(n) => Err(format!(
                            "content-length {n} exceeds the {MAX_FRAME}-byte body limit"
                        )),
                        Err(_) => Err(format!("malformed content-length `{value}`")),
                    }
                    .map_err(|message| error_response(ErrorCode::MalformedFrame, message));
                } else if name.eq_ignore_ascii_case("connection")
                    && value.eq_ignore_ascii_case("close")
                {
                    close = true;
                }
            }
        }

        *requests += 1;
        let (response, rendered) = match content_length {
            // The request's extent is unknown, so the connection cannot be
            // resynchronised: answer and close it.
            Err(rejection) => {
                close = true;
                rejection
            }
            Ok(len) => {
                let mut body = vec![0u8; len];
                reader.read_exact(&mut body)?;
                let frame = match method.as_str() {
                    "POST" => String::from_utf8_lossy(&body).into_owned(),
                    "GET" | "HEAD" if path == "/ping" || path == "/" => {
                        "{\"type\":\"ping\"}".to_string()
                    }
                    _ => String::new(),
                };
                if frame.is_empty() {
                    let message = format!("no route for {method} {path}");
                    error_response(ErrorCode::BadRequest, message)
                } else {
                    respond(service, frame.trim())
                }
            }
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
        next = read_frame_line(reader)?;
    }
}
