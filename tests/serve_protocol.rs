//! Golden wire-protocol fixtures for `swsd serve`: scripted JSONL
//! conversations with every request type — including malformed frames,
//! unknown sessions, stale-`base_rev` conflicts, and the delta horizon —
//! pinned byte-for-byte under `tests/fixtures/serve/`. Key order,
//! message wording, numeric encoding, and the trailing SplitMix64
//! checksum are all load-bearing: clients parse these lines.
//!
//! To re-bless after an intentional protocol change:
//! `SWS_BLESS=1 cargo test --test serve_protocol`.

use std::path::{Path, PathBuf};

use sws_designer::crash::checksum_valid;
use sws_designer::{protocol, DesignService, Session};
use sws_repository::io::MemIo;

const SCHEMA: &str = "\
interface Person { attribute string name; }
interface Employee : Person { attribute long badge; }
";

/// Build the service a named conversation runs against. Everything is
/// deterministic: fixed schema, in-memory storage, no clocks.
fn service_for(name: &str) -> DesignService {
    let mut session = Session::from_odl(SCHEMA).expect("fixture schema");
    match name {
        "checkpoint" => {
            // An attached (in-memory) session directory so `checkpoint`
            // has somewhere to commit generations.
            session.set_io(Box::new(MemIo::new()));
            session.save(Path::new("/mem/golden")).expect("save");
        }
        "horizon" => {
            // Two ops issued before the service starts: revs 0 and 1 are
            // behind the service's delta horizon.
            session
                .issue_str("add_type_definition(PreExisting)")
                .expect("pre-op");
            session
                .issue_str("add_attribute(PreExisting, long, weight)")
                .expect("pre-op");
        }
        _ => {}
    }
    DesignService::new(session)
}

/// `(fixture name, request lines)` — one fixture file per conversation.
fn conversations() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        (
            "lifecycle",
            vec![
                r#"{"type":"ping"}"#,
                r#"{"type":"open","session":"alice"}"#,
                r#"{"type":"open","session":"alice"}"#,
                r#"{"type":"open","session":"bob"}"#,
                r#"{"type":"ping"}"#,
                r#"{"type":"shutdown"}"#,
            ],
        ),
        (
            "submit",
            vec![
                r#"{"type":"open","session":"alice"}"#,
                r#"{"type":"submit","session":"alice","base_rev":0,"ops":[{"stmt":"add_type_definition(Project)"},{"stmt":"add_attribute(Project, string(16), code)"}]}"#,
                r#"{"type":"report","session":"alice"}"#,
                r#"{"type":"export","session":"alice"}"#,
                r#"{"type":"log","session":"alice","since":0}"#,
                r#"{"type":"log","session":"alice","since":1}"#,
                r#"{"type":"lint","session":"alice","ops":[{"stmt":"add_attribute(Project, long, headcount)"}]}"#,
                r#"{"type":"lint","session":"alice","ops":[{"stmt":"delete_type_definition(Ghost)"}]}"#,
                r#"{"ops":[{"context":"generalization","stmt":"modify_attribute(Employee, badge, Person)"}],"session":"alice","base_rev":2,"type":"submit"}"#,
            ],
        ),
        (
            "conflict",
            vec![
                r#"{"type":"open","session":"alice"}"#,
                r#"{"type":"open","session":"bob"}"#,
                r#"{"type":"submit","session":"alice","base_rev":0,"ops":[{"stmt":"add_type_definition(Lab)"}]}"#,
                r#"{"type":"submit","session":"bob","base_rev":0,"ops":[{"stmt":"add_type_definition(Annex)"}]}"#,
                r#"{"type":"submit","session":"bob","base_rev":0,"ops":[{"stmt":"delete_type_definition(Lab)"}]}"#,
                r#"{"type":"submit","session":"bob","base_rev":1,"ops":[{"stmt":"add_type_definition(Annex)"}]}"#,
                r#"{"type":"submit","session":"alice","base_rev":9,"ops":[{"stmt":"add_type_definition(Late)"}]}"#,
                r#"{"type":"submit","session":"alice","base_rev":2,"ops":[{"stmt":"add_attribute(Ghost, long, x)"}]}"#,
                r#"{"type":"submit","session":"alice","base_rev":2,"ops":[{"stmt":"add_type_definition(Ok)"},{"stmt":"add_attribute(Ghost, long, x)"}]}"#,
            ],
        ),
        (
            "errors",
            vec![
                "not json at all",
                r#"{"type":"warp"}"#,
                r#"{"type":"open"}"#,
                r#"{"type":"submit","session":"alice","base_rev":-1,"ops":[]}"#,
                r#"{"type":"submit","session":"alice","base_rev":0,"ops":[{"stmt":"x","context":"sideways"}]}"#,
                r#"{"type":"submit","session":"ghost","base_rev":0,"ops":[{"stmt":"add_type_definition(X)"}]}"#,
                r#"{"type":"report","session":"ghost"}"#,
                r#"{"type":"export","session":"ghost"}"#,
                r#"{"type":"log","session":"ghost"}"#,
                r#"{"type":"lint","session":"ghost","ops":[]}"#,
                r#"{"type":"checkpoint","session":"ghost"}"#,
                r#"{"type":"submit","session":"alice","base_rev":0,"ops":[{"stmt":"frobnicate(X)"}]}"#,
            ],
        ),
        (
            "checkpoint",
            vec![
                r#"{"type":"open","session":"alice"}"#,
                r#"{"type":"submit","session":"alice","base_rev":0,"ops":[{"stmt":"add_type_definition(Widget)"},{"stmt":"add_type_definition(Gadget)"}]}"#,
                r#"{"type":"checkpoint","session":"alice"}"#,
                r#"{"type":"ping"}"#,
            ],
        ),
        (
            "horizon",
            vec![
                r#"{"type":"open","session":"late"}"#,
                r#"{"type":"submit","session":"late","base_rev":0,"ops":[{"stmt":"add_type_definition(X)"}]}"#,
                r#"{"type":"log","session":"late","since":0}"#,
                r#"{"type":"submit","session":"late","base_rev":2,"ops":[{"stmt":"add_type_definition(X)"}]}"#,
            ],
        ),
    ]
}

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/serve")
}

#[test]
fn every_request_type_has_byte_stable_responses() {
    let dir = fixtures_dir();
    let bless = std::env::var_os("SWS_BLESS").is_some();
    if bless {
        std::fs::create_dir_all(&dir).expect("fixtures dir");
    }
    let mut failures = Vec::new();
    for (name, requests) in conversations() {
        let service = service_for(name);
        let mut transcript = String::new();
        for request in requests {
            let (_, rendered) = protocol::respond(&service, request);
            assert!(
                checksum_valid(&rendered),
                "{name}: response not self-checksummed: {rendered}"
            );
            assert!(!rendered.contains('\n'), "{name}: multi-line response");
            transcript.push_str("> ");
            transcript.push_str(request);
            transcript.push('\n');
            transcript.push_str("< ");
            transcript.push_str(&rendered);
            transcript.push('\n');
        }
        let path = dir.join(format!("{name}.txt"));
        if bless {
            std::fs::write(&path, &transcript).expect("bless fixture");
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name}: cannot read {}: {e}", path.display()));
        if golden != transcript {
            let diff: Vec<String> = golden
                .lines()
                .zip(transcript.lines())
                .filter(|(g, a)| g != a)
                .map(|(g, a)| format!("  golden: {g}\n  actual: {a}"))
                .collect();
            failures.push(format!("{name}:\n{}", diff.join("\n")));
        }
    }
    assert!(
        failures.is_empty(),
        "golden mismatches (SWS_BLESS=1 to re-bless):\n{}",
        failures.join("\n")
    );
}

/// The conversation scripts above must collectively exercise every
/// response tag the protocol can produce — a new variant without a
/// fixture fails here, not in a code-review comment.
#[test]
fn fixtures_cover_every_response_tag() {
    let mut seen = std::collections::BTreeSet::new();
    for (name, requests) in conversations() {
        let service = service_for(name);
        for request in requests {
            let (response, _) = protocol::respond(&service, request);
            seen.insert(response.tag());
        }
    }
    for tag in [
        "opened",
        "accepted",
        "conflict",
        "rejected",
        "linted",
        "reported",
        "exported",
        "log",
        "checkpointed",
        "pong",
        "bye",
        "error",
    ] {
        assert!(seen.contains(tag), "no fixture produces `{tag}`");
    }
}

/// The char-at-a-time escaper `render_response` used before it escaped
/// eight bytes at a time, kept as the reference.
fn reference_escape(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// An `exported` line for a 1,000-type schema is byte-identical to the
/// rendering before the single-pass escaper (a `format!` of the escaped
/// ODL, then the line checksum over every preceding byte), and it has
/// room for the newline a JSONL transport appends.
#[test]
fn a_large_export_renders_as_before() {
    use sws_corpus::synthetic::SyntheticSpec;
    use sws_designer::Response;
    use sws_repository::checksum;

    let g = SyntheticSpec::sized(1_000, 31).generate();
    let odl = sws_odl::print_schema(&sws_model::graph_to_schema(&g));
    let mut expected = format!(
        "{{\"type\":\"exported\",\"rev\":7,\"odl\":\"{}\"",
        reference_escape(&odl)
    );
    let sum = checksum::line_checksum(expected.as_bytes());
    expected.push_str(&format!(",\"checksum\":\"{}\"}}", checksum::to_hex(sum)));

    let line = protocol::render_response(&Response::Exported { rev: 7, odl });
    assert_eq!(line, expected);
    assert!(checksum_valid(&line));
    assert!(
        line.capacity() > line.len(),
        "appending the newline reallocates a {}-byte line",
        line.len()
    );
}

/// Flipping one byte in the middle of an `exported` line longer than one
/// streamed slice breaks its checksum.
#[test]
fn a_flipped_byte_in_a_long_export_fails_the_checksum() {
    let odl: String = (0..9_000)
        .map(|i| format!("interface T{i} {{ attribute long a; }}\n"))
        .collect();
    let line = protocol::render_response(&exported(odl));
    assert!(line.len() > protocol::SLICE, "{} bytes", line.len());
    assert!(checksum_valid(&line));
    let mut bytes = line.into_bytes();
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x01;
    let tampered = String::from_utf8(bytes).expect("an ASCII line stays UTF-8");
    assert!(!checksum_valid(&tampered));
}

/// A `Write` sink that keeps every byte and the length of every write.
#[derive(Default)]
struct Recording {
    bytes: Vec<u8>,
    writes: Vec<usize>,
}

impl std::io::Write for Recording {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        self.writes.push(buf.len());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Stream `resp` through `write_response` and check it against
/// `render_response` plus the newline: the same bytes, one write for a
/// line under one slice, every piece but the last at least one slice,
/// and no piece longer than one slice plus `item` bytes.
fn assert_streams_as_rendered(resp: &sws_designer::Response, item: usize) {
    use protocol::SLICE;

    let mut expected = protocol::render_response(resp);
    expected.push('\n');
    let mut sink = Recording::default();
    let mut buf = String::new();
    protocol::write_response(resp, &mut buf, &mut sink).expect("an in-memory sink never fails");
    let tag = resp.tag();
    assert!(
        sink.bytes == expected.as_bytes(),
        "{tag}: the streamed line differs from render_response + '\\n' \
         ({} vs {} bytes)",
        sink.bytes.len(),
        expected.len()
    );
    if expected.len() < SLICE {
        assert_eq!(sink.writes.len(), 1, "{tag}: a short line takes one write");
    }
    let (last, pieces) = sink.writes.split_last().expect("at least one write");
    for &piece in pieces {
        assert!(
            piece >= SLICE,
            "{tag}: a {piece}-byte piece before the last"
        );
    }
    for &piece in pieces.iter().chain([last]) {
        assert!(
            piece <= SLICE + item,
            "{tag}: a {piece}-byte write exceeds one slice plus a {item}-byte item"
        );
    }
    assert!(
        buf.len() <= SLICE + item,
        "{tag}: the line buffer kept {} bytes",
        buf.len()
    );
}

fn exported(odl: String) -> sws_designer::Response {
    sws_designer::Response::Exported { rev: 7, odl }
}

/// The most an ODL slice can add to the line buffer: a slice tops the
/// buffer up to one `SLICE` (plus up to three bytes to end on a char
/// boundary), and escaping adds at most five bytes per input byte.
fn odl_item(odl: &str) -> usize {
    let escapes = odl
        .bytes()
        .filter(|&b| b < 0x20 || b == b'"' || b == b'\\')
        .count();
    3 + 5 * escapes + 64
}

#[test]
fn streamed_exports_equal_the_rendered_line() {
    use protocol::SLICE;

    // Empty, and every length from 8 bytes under one slice to 8 over.
    assert_streams_as_rendered(&exported(String::new()), 64);
    for len in SLICE - 8..=SLICE + 8 {
        let odl = "interface A { attribute long x; }\n"
            .chars()
            .cycle()
            .take(len)
            .collect::<String>();
        assert_streams_as_rendered(&exported(odl.clone()), odl_item(&odl));
    }

    // A four-byte char, a two-byte char and an escaped byte at every
    // offset around the first two slice cuts. The first cut falls where
    // the line's prefix plus the ODL reaches one slice; after that the
    // buffer is empty at every cut, so the next falls one slice later.
    let prefix = "{\"type\":\"exported\",\"rev\":7,\"odl\":\"".len();
    for cut in [SLICE - prefix, 2 * SLICE - prefix] {
        for at in cut - 8..=cut + 8 {
            for special in ["😀", "é", "\"", "\n", "\u{1}"] {
                let mut odl = "x".repeat(at);
                odl.push_str(special);
                odl.push_str(&"y".repeat(SLICE + 100));
                assert_streams_as_rendered(&exported(odl), 3 + 6 + 64);
            }
        }
    }
}

#[test]
fn a_large_streamed_export_equals_the_rendered_line() {
    use sws_corpus::synthetic::SyntheticSpec;

    let g = SyntheticSpec::sized(1_000, 31).generate();
    let odl = sws_odl::print_schema(&sws_model::graph_to_schema(&g));
    assert!(odl.len() > 8 * protocol::SLICE, "{} bytes", odl.len());
    let item = odl_item(&odl);
    assert_streams_as_rendered(&exported(odl), item);
}

#[test]
fn every_response_variant_streams_as_rendered() {
    use sws_core::ConceptKind;
    use sws_designer::service::{ConflictHint, ErrorCode, LintFinding, LogRecord};
    use sws_designer::Response;

    let record = |seq: u64| LogRecord {
        seq,
        session: format!("s{}", seq % 3).into(),
        context: ConceptKind::Generalization,
        statement: format!("add_attribute(T{seq}, string(16), \"quoted\\name\")").into(),
    };
    // A rendered record is its fields, escaped, plus under 100 bytes of
    // keys and punctuation.
    let record_item = 2 * record(1_000_000).statement.len() + 100;
    let variants = |n: u64| {
        vec![
            Response::Opened {
                session: "alice".into(),
                rev: n,
                types: 3,
                concepts: 2,
            },
            Response::Accepted {
                session: "alice".into(),
                base_rev: n,
                rev: n + 1,
                applied: 1,
                warnings: (0..n).map(|i| format!("warning {i}: \"x\"")).collect(),
            },
            Response::Conflict {
                session: "bob".into(),
                base_rev: 0,
                rev: n,
                auto_rebasable: false,
                delta: (0..n).map(record).collect(),
                conflicts: (0..n)
                    .map(|i| ConflictHint {
                        op: i as usize,
                        seq: i,
                        reason: format!("both touch T{i}"),
                    })
                    .collect(),
            },
            Response::Rejected {
                session: "bob".into(),
                rev: n,
                index: 0,
                error: "no type `Ghost`\n".into(),
            },
            Response::Linted {
                rev: n,
                ops: n as usize,
                passes: false,
                findings: (0..n)
                    .map(|i| LintFinding {
                        index: i as usize,
                        code: "A001".into(),
                        severity: "error".into(),
                        message: format!("op {i} is not permitted in this context"),
                    })
                    .collect(),
            },
            Response::Reported {
                rev: n,
                types: 4,
                concepts: 3,
                errors: 1,
                warnings: 0,
            },
            exported(format!("interface T{n} {{ attribute long x; }};\n")),
            Response::LogSlice {
                rev: n,
                since: 0,
                ops: (0..n).map(record).collect(),
            },
            Response::Checkpointed {
                rev: n,
                generation: Some(2),
                ops_covered: n,
            },
            Response::Checkpointed {
                rev: n,
                generation: None,
                ops_covered: 0,
            },
            Response::Pong {
                rev: n,
                sessions: 2,
            },
            Response::Bye,
            Response::Error {
                code: ErrorCode::DeltaHorizon,
                message: "rev 0 is behind the horizon".into(),
            },
        ]
    };
    // Small instances, then lists long enough to stream in pieces.
    for n in [0, 1, 3, 5_000] {
        for resp in variants(n) {
            assert_streams_as_rendered(&resp, record_item);
        }
    }
}

/// The daemon's `export` answer, the published blocks, renders whole (as
/// HTTP sends it) and streams (as JSONL sends it) to the bytes of the
/// `exported` line that holds the assembled text.
fn assert_export_matches_text(odl: sws_core::OdlSnapshot, rev: u64, at: &str) {
    use sws_designer::Response;

    let text = protocol::render_response(&Response::Exported {
        rev,
        odl: odl.text(),
    });
    let blocks = Response::ExportedBlocks { rev, odl };
    assert!(
        protocol::render_response(&blocks) == text,
        "{at}: the blocks render differently from the assembled text"
    );
    // A stored escape is cut only to end a slice on a char boundary.
    assert_streams_as_rendered(&blocks, 3 + 64);
}

#[test]
fn exported_blocks_render_as_the_assembled_text() {
    use sws_core::ConceptKind;
    use sws_corpus::synthetic::SyntheticSpec;

    let mut schemas: Vec<(String, sws_model::SchemaGraph)> = sws_corpus::all_named()
        .into_iter()
        .map(|(name, g)| (name.to_string(), g))
        .collect();
    for types in [100, 1_000] {
        let g = SyntheticSpec::sized(types, 31).generate();
        schemas.push((format!("synthetic/{types}"), g));
    }
    for (name, g) in schemas {
        let odl = sws_odl::print_schema(&sws_model::graph_to_schema(&g));
        let mut session = Session::from_odl(&odl).expect("schema ingests");
        let check = |session: &Session, step: &str| {
            let repo = session.repository();
            let at = format!("{name} after {step}");
            assert_export_matches_text(repo.workspace().custom_odl(), repo.total_ops(), &at);
        };
        check(&session, "ingest");
        for (context, op) in sws_bench::edit_scripts::edit_stream(&g, 8, 7) {
            session.set_context(context);
            let step = sws_core::print_op(&op);
            session.issue(op).expect("edit stream ops apply");
            check(&session, &step);
        }
        session.set_context(ConceptKind::WagonWheel);
        // Names that sort first and last move the first and last blocks.
        for step in [
            "add_type_definition(Aaa)",
            "add_type_definition(Zq)",
            "add_attribute(Zq, string(8), note)",
            "delete_type_definition(Aaa)",
        ] {
            session.issue_str(step).expect(step);
            check(&session, step);
        }
        session.undo().expect("an op to undo");
        session.undo().expect("an op to undo");
        check(&session, "two undos");
        session.redo().expect("an op to redo");
        check(&session, "a redo");
        // An undone add frees its type slot, and the next add takes it.
        session.issue_str("add_type_definition(Zr)").expect("adds");
        session.undo().expect("an op to undo");
        session.issue_str("add_type_definition(Zs)").expect("adds");
        check(&session, "an add into a freed slot");
    }
}

/// Stops the in-process server when the test ends, passes or fails: the
/// scope joins the server thread, so a failed assertion must not leave it
/// accepting.
struct StopServer<'a> {
    service: &'a DesignService,
    addr: std::net::SocketAddr,
    threads: usize,
}

impl Drop for StopServer<'_> {
    fn drop(&mut self) {
        self.service.request_shutdown();
        for _ in 0..self.threads {
            let _ = std::net::TcpStream::connect(self.addr);
        }
    }
}

/// One exchange on a JSONL connection: the response line, newline kept.
fn jsonl_rpc(stream: &mut std::net::TcpStream, frame: &str) -> String {
    use std::io::{BufRead, Write};
    stream
        .write_all(format!("{frame}\n").as_bytes())
        .expect("send");
    let mut line = String::new();
    std::io::BufReader::new(stream)
        .read_line(&mut line)
        .expect("receive");
    line
}

/// One exchange on an HTTP/1.1 keep-alive connection: the response body.
fn http_rpc(stream: &mut std::net::TcpStream, frame: &str) -> String {
    use std::io::{BufRead, Read, Write};
    let request = format!(
        "POST / HTTP/1.1\r\nhost: swsd\r\ncontent-length: {}\r\n\r\n{frame}",
        frame.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut reader = std::io::BufReader::new(stream);
    let mut length = None;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("receive a header");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some(value) = header.strip_prefix("content-length: ") {
            length = Some(value.parse::<usize>().expect("a numeric length"));
        }
    }
    let mut body = vec![0; length.expect("a content-length header")];
    reader.read_exact(&mut body).expect("receive the body");
    String::from_utf8(body).expect("a UTF-8 body")
}

#[test]
fn the_daemon_exports_the_assembled_text_over_jsonl_and_http() {
    use sws_corpus::synthetic::SyntheticSpec;
    use sws_designer::Response;

    let g = SyntheticSpec::sized(100, 31).generate();
    let odl = sws_odl::print_schema(&sws_model::graph_to_schema(&g));
    let service = DesignService::new(Session::from_odl(&odl).expect("schema ingests"));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("bound address");
    // One acceptor per connection: an acceptor serves a whole connection.
    let threads = 2;
    std::thread::scope(|scope| {
        scope.spawn(|| sws_designer::serve::serve(&service, listener, threads));
        let _stop = StopServer {
            service: &service,
            addr,
            threads,
        };
        let mut jsonl = std::net::TcpStream::connect(addr).expect("connect");
        let mut http = std::net::TcpStream::connect(addr).expect("connect");
        jsonl_rpc(&mut jsonl, r#"{"type":"open","session":"bytes"}"#);
        let export = r#"{"type":"export","session":"bytes"}"#;
        let check = |jsonl: &mut std::net::TcpStream, http: &mut std::net::TcpStream, at: &str| {
            let view = service.view();
            let mut expected = protocol::render_response(&Response::Exported {
                rev: view.rev,
                odl: view.odl.text(),
            });
            assert!(
                http_rpc(http, export) == expected,
                "{at}: the HTTP body differs from the assembled text's line"
            );
            expected.push('\n');
            assert!(
                jsonl_rpc(jsonl, export) == expected,
                "{at}: the JSONL line differs from the assembled text's line"
            );
        };
        let submit = |jsonl: &mut std::net::TcpStream, stmts: &[String]| {
            let ops: Vec<String> = stmts
                .iter()
                .map(|stmt| format!("{{\"stmt\":\"{}\"}}", sws_trace::export::escape_json(stmt)))
                .collect();
            let frame = format!(
                "{{\"type\":\"submit\",\"session\":\"bytes\",\"base_rev\":{},\"ops\":[{}]}}",
                service.view().rev,
                ops.join(",")
            );
            let line = jsonl_rpc(jsonl, &frame);
            line.split('"').nth(3).unwrap_or_default().to_string()
        };
        check(&mut jsonl, &mut http, "open");
        // The frames name no context, so the ops run in the wagon wheel.
        let mut batches: Vec<Vec<String>> = sws_bench::edit_scripts::edit_stream(&g, 6, 7)
            .into_iter()
            .filter(|(context, _)| *context == sws_core::ConceptKind::WagonWheel)
            .map(|(_, op)| vec![sws_core::print_op(&op)])
            .collect();
        batches.extend(
            [
                &[
                    "add_type_definition(Zq)",
                    "add_attribute(Zq, string(8), note)",
                ][..],
                &["add_type_definition(Aaa)"],
                &["delete_type_definition(Zq)"],
            ]
            .map(|batch| batch.iter().map(|s| s.to_string()).collect()),
        );
        for batch in &batches {
            assert_eq!(submit(&mut jsonl, batch), "accepted", "{batch:?}");
            check(&mut jsonl, &mut http, &format!("{batch:?}"));
        }
        // A rejected batch is rolled back, freeing the slot of the type it
        // added; the next add takes that slot.
        let rejected = ["add_type_definition(Zr)", "delete_type_definition(Ghost)"];
        let rejected = rejected.map(String::from);
        assert_eq!(submit(&mut jsonl, &rejected), "rejected");
        check(&mut jsonl, &mut http, "a rejected batch");
        assert_eq!(
            submit(&mut jsonl, &["add_type_definition(Zs)".to_string()]),
            "accepted"
        );
        check(&mut jsonl, &mut http, "an add into a freed slot");
    });
}
