//! End-to-end tests for the `swsd serve` lifecycle: argument validation,
//! bind failures, refusal to serve damaged directories, and a clean
//! TCP-driven shutdown that flushes autosave state to disk.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

fn run_swsd(args: &[&str], stdin: &str) -> (String, String, i32) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_swsd"))
        .env("SWS_CRASH_DIR", std::env::temp_dir())
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("swsd spawns");
    let _ = child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin.as_bytes());
    let output = child.wait_with_output().expect("swsd exits");
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        output.status.code().expect("not killed by signal"),
    )
}

fn schema_file(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swsd_serve_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("uni.odl");
    std::fs::write(
        &path,
        "interface Person { attribute string name; }\n\
         interface Employee : Person { attribute long badge; }\n",
    )
    .unwrap();
    path
}

/// Spawn `swsd ... serve --addr=127.0.0.1:0` and parse the bound address
/// from the `swsd: serving on HOST:PORT` line it prints for supervisors.
fn spawn_serve(args: &[&str]) -> (Child, BufReader<ChildStdout>, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_swsd"))
        .env("SWS_CRASH_DIR", std::env::temp_dir())
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("swsd spawns");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read serving line");
    let addr = line
        .trim()
        .strip_prefix("swsd: serving on ")
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
        .parse()
        .expect("printed address parses");
    (child, stdout, addr)
}

/// One JSONL request/response round trip against a live server.
fn rpc(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    stream.write_all(line.as_bytes()).expect("send");
    stream.write_all(b"\n").expect("send");
    stream.flush().expect("flush");
    let mut response = String::new();
    reader.read_line(&mut response).expect("recv");
    response.trim_end().to_string()
}

#[test]
fn serve_without_addr_is_a_usage_error() {
    let schema = schema_file("noaddr");
    let (_, stderr, code) = run_swsd(&["--schema", schema.to_str().unwrap(), "serve"], "");
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("usage"), "{stderr}");

    // `serve` with no --schema/--session at all is also a usage error.
    let (_, stderr, code) = run_swsd(&["serve"], "");
    assert_eq!(code, 2, "stderr: {stderr}");
}

#[test]
fn serve_with_malformed_addr_exits_2() {
    let schema = schema_file("badaddr");
    for bad in ["--addr=nonsense", "--addr=127.0.0.1", "--addr=:0:0"] {
        let (_, stderr, code) = run_swsd(&["--schema", schema.to_str().unwrap(), bad, "serve"], "");
        assert_eq!(code, 2, "`{bad}` must be a usage error; stderr: {stderr}");
        assert!(
            stderr.contains("--addr wants HOST:PORT"),
            "`{bad}`: {stderr}"
        );
    }
}

#[test]
fn serve_on_a_port_already_in_use_exits_5() {
    let schema = schema_file("inuse");
    let holder = TcpListener::bind("127.0.0.1:0").expect("bind holder");
    let addr = holder.local_addr().expect("addr");
    let (_, stderr, code) = run_swsd(
        &[
            "--schema",
            schema.to_str().unwrap(),
            &format!("--addr={addr}"),
            "serve",
        ],
        "",
    );
    assert_eq!(code, 5, "stderr: {stderr}");
    assert!(stderr.contains("cannot bind"), "{stderr}");
}

#[test]
fn serve_refuses_a_degraded_directory_before_binding() {
    let schema = schema_file("degraded");
    let session_dir = std::env::temp_dir().join(format!("swsd_srv_degr_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&session_dir);
    let script = format!(
        "save {}\nadd_type_definition(Project)\ncheckpoint\nquit\n",
        session_dir.display()
    );
    let (_, _, code) = run_swsd(&["--schema", schema.to_str().unwrap()], &script);
    assert_eq!(code, 0);
    // Corrupt the committed snapshot: salvage falls back to full replay —
    // right state, but a degraded load path a daemon must not serve.
    let snap = session_dir.join("snapshot.1");
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&snap, &bytes).unwrap();

    let (stdout, stderr, code) = run_swsd(
        &[
            "--session",
            session_dir.to_str().unwrap(),
            "--addr=127.0.0.1:0",
            "serve",
        ],
        "",
    );
    assert_eq!(code, 7, "stderr: {stderr}");
    assert!(
        stderr.contains("refusing to serve a degraded fallback load"),
        "{stderr}"
    );
    assert!(
        !stdout.contains("serving on"),
        "refused before binding, so no serving line: {stdout}"
    );
    std::fs::remove_dir_all(&session_dir).unwrap();
}

#[test]
fn clean_shutdown_flushes_autosave_and_exits_0() {
    let schema = schema_file("shutdown");
    let session_dir = std::env::temp_dir().join(format!("swsd_srv_flush_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&session_dir);
    let script = format!("save {}\nquit\n", session_dir.display());
    let (_, _, code) = run_swsd(&["--schema", schema.to_str().unwrap()], &script);
    assert_eq!(code, 0);

    let (mut child, _stdout, addr) = spawn_serve(&[
        "--session",
        session_dir.to_str().unwrap(),
        "--addr=127.0.0.1:0",
        "serve",
    ]);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    let opened = rpc(
        &mut stream,
        &mut reader,
        "{\"type\":\"open\",\"session\":\"cli\"}",
    );
    assert!(opened.contains("\"type\":\"opened\""), "{opened}");
    let accepted = rpc(
        &mut stream,
        &mut reader,
        "{\"type\":\"submit\",\"session\":\"cli\",\"base_rev\":0,\
         \"ops\":[{\"stmt\":\"add_type_definition(ServedViaTcp)\"}]}",
    );
    assert!(accepted.contains("\"type\":\"accepted\""), "{accepted}");
    let bye = rpc(&mut stream, &mut reader, "{\"type\":\"shutdown\"}");
    assert!(bye.contains("\"type\":\"bye\""), "{bye}");

    let status = child.wait().expect("server exits");
    assert_eq!(status.code(), Some(0), "clean shutdown exits 0");

    // The accepted op reached the session directory: the live append (or
    // the final save) must have flushed it.
    let ops = std::fs::read_to_string(session_dir.join("session.ops")).unwrap_or_default();
    let has_tail = ops.contains("add_type_definition(ServedViaTcp)");
    // ...and a fresh load of the directory sees the type either way.
    let (stdout, stderr, code) =
        run_swsd(&["--session", session_dir.to_str().unwrap()], "odl\nquit\n");
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(
        stdout.contains("interface ServedViaTcp"),
        "tail flushed: {has_tail}; reloaded odl:\n{stdout}"
    );
    std::fs::remove_dir_all(&session_dir).unwrap();
}

/// A naive client — one write per request, blocking reads, no blank-line
/// acknowledgements — must not pay a Nagle/delayed-ACK stall per
/// response: each response leaves the server in a single write.
#[test]
fn naive_clients_get_each_response_in_one_segment() {
    use std::io::Read;
    use std::time::Instant;

    /// Kills the server if an assertion fails before the clean shutdown.
    struct Reap(Child);
    impl Drop for Reap {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    let schema = schema_file("naive");
    let (child, _stdout, addr) = spawn_serve(&[
        "--schema",
        schema.to_str().unwrap(),
        "--addr=127.0.0.1:0",
        "serve",
    ]);
    let mut server = Reap(child);
    let connect = || {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        (stream, reader)
    };

    // JSONL framing.
    let (mut stream, mut reader) = connect();
    let started = Instant::now();
    for _ in 0..20 {
        stream.write_all(b"{\"type\":\"ping\"}\n").expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("recv");
        assert!(line.contains("\"type\":\"pong\""), "{line}");
    }
    let jsonl = started.elapsed();
    assert!(
        jsonl < Duration::from_millis(500),
        "20 JSONL pings took {jsonl:?}"
    );
    // An acceptor serves one connection until it closes: free it.
    drop((stream, reader));

    // HTTP/1.1 keep-alive framing.
    let (mut stream, mut reader) = connect();
    let started = Instant::now();
    for _ in 0..20 {
        stream
            .write_all(b"GET /ping HTTP/1.1\r\nhost: swsd\r\n\r\n")
            .expect("send");
        let mut length = 0usize;
        loop {
            let mut header = String::new();
            reader.read_line(&mut header).expect("recv head");
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some(value) = header.strip_prefix("content-length: ") {
                length = value.parse().expect("content-length");
            }
        }
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body).expect("recv body");
        assert!(String::from_utf8_lossy(&body).contains("\"type\":\"pong\""));
    }
    let http = started.elapsed();
    assert!(
        http < Duration::from_millis(500),
        "20 HTTP pings took {http:?}"
    );
    drop((stream, reader));

    let (mut stream, mut reader) = connect();
    let bye = rpc(&mut stream, &mut reader, "{\"type\":\"shutdown\"}");
    assert!(bye.contains("\"type\":\"bye\""), "{bye}");
    assert_eq!(server.0.wait().expect("server exits").code(), Some(0));
}

/// An HTTP `Content-Length` the daemon cannot honour — larger than its
/// body limit, or not a number — is answered with a 400 `malformed_frame`
/// and the connection is closed, before any buffer is sized from it. The
/// single acceptor survives and serves the next connection.
#[test]
fn http_bodies_with_unusable_content_length_get_400_and_close() {
    use std::io::{ErrorKind, Read};

    /// Kills the server if an assertion fails before the clean shutdown.
    struct Reap(Child);
    impl Drop for Reap {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    let schema = schema_file("body_limit");
    let (child, _stdout, addr) = spawn_serve(&[
        "--schema",
        schema.to_str().unwrap(),
        "--threads=1",
        "--addr=127.0.0.1:0",
        "serve",
    ]);
    let mut server = Reap(child);
    let connect = || {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        (stream, reader)
    };

    for request in [
        "POST / HTTP/1.1\r\ncontent-length: 18446744073709551615\r\n\r\n",
        "POST / HTTP/1.1\r\ncontent-length: 15 bytes\r\n\r\n{\"type\":\"ping\"}",
    ] {
        let (mut stream, mut reader) = connect();
        stream.write_all(request.as_bytes()).expect("send");
        let mut status = String::new();
        reader.read_line(&mut status).expect("recv status");
        assert!(
            status.starts_with("HTTP/1.1 400 "),
            "{request:?}: {status:?}"
        );
        let (mut length, mut connection) = (0usize, String::new());
        loop {
            let mut header = String::new();
            reader.read_line(&mut header).expect("recv head");
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some(value) = header.strip_prefix("content-length: ") {
                length = value.parse().expect("content-length");
            } else if let Some(value) = header.strip_prefix("connection: ") {
                connection = value.to_string();
            }
        }
        assert_eq!(connection, "close", "{request:?}");
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body).expect("recv body");
        let body = String::from_utf8_lossy(&body);
        assert!(body.contains("\"code\":\"malformed_frame\""), "{body}");
        // Closed by the server: end of stream, or a reset when unread body
        // bytes were still queued — never a further response or a stall.
        let mut rest = Vec::new();
        match reader.read_to_end(&mut rest) {
            Ok(_) => assert!(rest.is_empty(), "{:?}", String::from_utf8_lossy(&rest)),
            Err(e) => assert_eq!(e.kind(), ErrorKind::ConnectionReset, "{e}"),
        }
    }

    let (mut stream, mut reader) = connect();
    let pong = rpc(&mut stream, &mut reader, "{\"type\":\"ping\"}");
    assert!(pong.contains("\"type\":\"pong\""), "{pong}");
    let bye = rpc(&mut stream, &mut reader, "{\"type\":\"shutdown\"}");
    assert!(bye.contains("\"type\":\"bye\""), "{bye}");
    assert_eq!(server.0.wait().expect("server exits").code(), Some(0));
}

/// A line longer than the daemon's frame limit — a JSONL frame or an HTTP
/// header — is answered with `malformed_frame` and the connection is
/// closed after at most the limit plus one byte has been buffered. The
/// single acceptor survives and serves the next connection.
#[test]
fn over_long_lines_get_malformed_frame_and_close() {
    use std::io::{ErrorKind, Read};

    /// Kills the server if an assertion fails before the clean shutdown.
    struct Reap(Child);
    impl Drop for Reap {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    /// Send `payload` from a second thread: the server stops reading
    /// mid-line, so the tail of the write may fail with a reset.
    fn send(stream: &TcpStream, payload: Vec<u8>) -> std::thread::JoinHandle<()> {
        let mut stream = stream.try_clone().expect("clone");
        std::thread::spawn(move || {
            let _ = stream.write_all(&payload);
        })
    }

    /// The server closes the connection: end of stream, or a reset when
    /// unread bytes were still queued — never a further response.
    fn assert_closed(reader: &mut BufReader<TcpStream>) {
        let mut rest = Vec::new();
        match reader.read_to_end(&mut rest) {
            Ok(_) => assert!(rest.is_empty(), "{:?}", String::from_utf8_lossy(&rest)),
            Err(e) => assert_eq!(e.kind(), ErrorKind::ConnectionReset, "{e}"),
        }
    }

    const NINE_MIB: usize = 9 << 20;
    let schema = schema_file("frame_limit");
    let (child, _stdout, addr) = spawn_serve(&[
        "--schema",
        schema.to_str().unwrap(),
        "--threads=1",
        "--addr=127.0.0.1:0",
        "serve",
    ]);
    let mut server = Reap(child);
    let connect = || {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        (stream, reader)
    };

    // JSONL: a ping, then one 9 MiB line.
    let (stream, mut reader) = connect();
    let mut payload = b"{\"type\":\"ping\"}\n".to_vec();
    payload.resize(payload.len() + NINE_MIB, b' ');
    payload.push(b'\n');
    let writer = send(&stream, payload);
    let mut pong = String::new();
    reader.read_line(&mut pong).expect("recv pong");
    assert!(pong.contains("\"type\":\"pong\""), "{pong}");
    let mut error = String::new();
    reader.read_line(&mut error).expect("recv error");
    assert!(error.contains("\"code\":\"malformed_frame\""), "{error}");
    assert_closed(&mut reader);
    writer.join().expect("writer thread");

    // HTTP: a 9 MiB header.
    let (stream, mut reader) = connect();
    let mut payload = b"POST / HTTP/1.1\r\nx-padding: ".to_vec();
    payload.resize(payload.len() + NINE_MIB, b'a');
    payload.extend_from_slice(b"\r\ncontent-length: 15\r\n\r\n{\"type\":\"ping\"}");
    let writer = send(&stream, payload);
    let mut status = String::new();
    reader.read_line(&mut status).expect("recv status");
    assert!(status.starts_with("HTTP/1.1 400 "), "{status:?}");
    let (mut length, mut connection) = (0usize, String::new());
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("recv head");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some(value) = header.strip_prefix("content-length: ") {
            length = value.parse().expect("content-length");
        } else if let Some(value) = header.strip_prefix("connection: ") {
            connection = value.to_string();
        }
    }
    assert_eq!(connection, "close");
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("recv body");
    let body = String::from_utf8_lossy(&body);
    assert!(body.contains("\"code\":\"malformed_frame\""), "{body}");
    assert_closed(&mut reader);
    writer.join().expect("writer thread");

    let (mut stream, mut reader) = connect();
    let pong = rpc(&mut stream, &mut reader, "{\"type\":\"ping\"}");
    assert!(pong.contains("\"type\":\"pong\""), "{pong}");
    let bye = rpc(&mut stream, &mut reader, "{\"type\":\"shutdown\"}");
    assert!(bye.contains("\"type\":\"bye\""), "{bye}");
    assert_eq!(server.0.wait().expect("server exits").code(), Some(0));
}
