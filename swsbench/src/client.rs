//! The program under test as a child process, and JSONL connections to it.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Connections open right now, and the most ever open at once.
static OPEN: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The most connections the generator has held open at once.
pub fn peak_connections() -> usize {
    PEAK.load(Ordering::SeqCst)
}

/// Threads of this process, from `/proc/self/status`.
pub fn thread_count() -> Option<usize> {
    proc_status_field("/proc/self/status", "Threads:")
}

fn proc_status_field(path: &str, key: &str) -> Option<usize> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// A running `swsd … serve` child. Dropping it kills and reaps the
/// process, so no error path leaves a daemon behind.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    /// Kept open so a late write by the daemon never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawn `swsd <args>` and wait for its `swsd: serving on ADDR` line.
    pub fn spawn(swsd: &Path, args: &[String], crash_dir: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(swsd)
            .args(args)
            .env("SWS_CRASH_DIR", crash_dir)
            .env_remove("SWS_CHECKPOINT_INTERVAL")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", swsd.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("swsd: serving on ")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                child,
                addr,
                _stdout: stdout,
            }),
            _ => {
                let _ = child.kill();
                let status = child.wait();
                Err(format!(
                    "swsd did not start serving (first line {line:?}, {status:?})"
                ))
            }
        }
    }

    /// The daemon's peak resident set (`VmHWM`) in KiB.
    pub fn peak_rss_kib(&self) -> Option<usize> {
        proc_status_field(&format!("/proc/{}/status", self.child.id()), "VmHWM:")
    }

    /// Wait for the daemon to exit after a `shutdown` frame; it must exit
    /// cleanly within `limit`.
    pub fn wait_clean_exit(mut self, limit: Duration) -> Result<(), String> {
        let deadline = Instant::now() + limit;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("swsd exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => return Err("swsd did not exit after shutdown".to_string()),
                Err(e) => return Err(format!("cannot wait for swsd: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One JSONL connection.
///
/// The daemon writes a response line and its newline as two writes, and
/// with Nagle's algorithm on its socket the newline waits for the client
/// to acknowledge the first segment — which a delayed ACK holds back for
/// up to 40 ms. So whenever a read ends without the newline, the client
/// sends a blank line at once: the JSONL framing skips blank lines, and
/// the segment carries the acknowledgement. Round trips then measure the
/// daemon, not the ACK timer.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    bytes: Vec<u8>,
    /// The last response line, without its newline.
    pub line: String,
}

/// When a request was written and when its whole response line arrived.
#[derive(Debug, Clone, Copy)]
pub struct Exchange {
    pub sent: Instant,
    pub received: Instant,
}

impl Exchange {
    pub fn ns(&self) -> u64 {
        self.received.duration_since(self.sent).as_nanos() as u64
    }
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::with_capacity(1 << 20, stream.try_clone()?);
        let open = OPEN.fetch_add(1, Ordering::SeqCst) + 1;
        PEAK.fetch_max(open, Ordering::SeqCst);
        Ok(Conn {
            stream,
            reader,
            bytes: Vec::new(),
            line: String::new(),
        })
    }

    /// Write `frame` (newline-terminated) and read the response line into
    /// [`Conn::line`], acknowledging partial reads (see [`Conn`]).
    pub fn call(&mut self, frame: &str) -> io::Result<Exchange> {
        self.exchange(frame, true)
    }

    /// [`Conn::call`] for a frame after which the daemon closes the
    /// connection (`shutdown`): no blank line may follow it.
    pub fn call_last(&mut self, frame: &str) -> io::Result<Exchange> {
        self.exchange(frame, false)
    }

    fn exchange(&mut self, frame: &str, nudge: bool) -> io::Result<Exchange> {
        let sent = Instant::now();
        self.stream.write_all(frame.as_bytes())?;
        self.bytes.clear();
        loop {
            let available = self.reader.fill_buf()?;
            if available.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before the response",
                ));
            }
            if let Some(end) = available.iter().position(|&b| b == b'\n') {
                self.bytes.extend_from_slice(&available[..end]);
                self.reader.consume(end + 1);
                break;
            }
            let n = available.len();
            self.bytes.extend_from_slice(available);
            self.reader.consume(n);
            if nudge {
                self.stream.write_all(b"\n")?;
            }
        }
        let received = Instant::now();
        self.line.clear();
        self.line.push_str(
            std::str::from_utf8(&self.bytes)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
        );
        Ok(Exchange { sent, received })
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        OPEN.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The `type` of a response line (the daemon pins it as the first key).
pub fn response_type(line: &str) -> &str {
    line.strip_prefix("{\"type\":\"")
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("")
}
