//! Host-speed calibration.
//!
//! The benchmark's timings move with the host as well as with the code.
//! On a shared VM, neighbours contending for the CPUs, caches and memory
//! slow every timing of a run together, by 30% or more for minutes at a
//! time. So a run measures a fixed reference workload at every cycle
//! boundary, while no daemon runs, and scales the timings of each cycle by
//! how fast the host ran the reference around it.
//!
//! Two references, because medians and tails drift differently: over the
//! ten-run series behind `BENCHMARK.md`, a cycle's p50s moved about in
//! proportion to compute time, while its p90s moved about twice as much and
//! tracked the tail of a request–response round trip instead.
//!
//! * [`Reference::compute_us`]: the kind of work a submit does (small
//!   allocations, string formatting, clones of string vectors and an
//!   ordered map, a sort) on two threads at once, as the daemon and the
//!   generator share the host's two CPUs during a cycle. It scales p50s,
//!   throughput and set-up time.
//! * [`Reference::echo_p90_us`]: the p90 round trip of closed-loop
//!   requests over loopback TCP to a thread that does a small slice of the
//!   same work per request. It scales p90s.
//!
//! The benchmark owns this code, so no change to the program under test
//! can move the references.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use crate::stats::nearest_rank;

/// [`Reference::compute_us`] the scaled p50s are expressed at: its median
/// on the 2-vCPU development host.
pub const NOMINAL_COMPUTE_US: f64 = 25_000.0;
/// [`Reference::echo_p90_us`] the scaled p90s are expressed at: its median
/// on the 2-vCPU development host.
pub const NOMINAL_ECHO_P90_US: f64 = 370.0;

/// Two-thread compute runs per measurement; the median is kept.
const COMPUTE_RUNS: usize = 7;
/// Echo round trips per measurement.
const ECHO_REQUESTS: usize = 600;

/// How fast the host ran the references.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    pub compute_us: f64,
    pub echo_p90_us: f64,
}

impl Reference {
    /// Measure both references now. Uses two threads and one loopback
    /// connection between them.
    pub fn measure() -> io::Result<Reference> {
        let mut runs: Vec<f64> = (0..COMPUTE_RUNS).map(|_| compute_pair()).collect();
        runs.sort_by(f64::total_cmp);
        Ok(Reference {
            compute_us: runs[COMPUTE_RUNS / 2],
            echo_p90_us: echo_p90()?,
        })
    }

    /// The mean of two measurements, for the cycle between them.
    pub fn around(self, after: Reference) -> Reference {
        Reference {
            compute_us: (self.compute_us + after.compute_us) / 2.0,
            echo_p90_us: (self.echo_p90_us + after.echo_p90_us) / 2.0,
        }
    }

    /// Multiplier that takes a p50, or a set-up time, to the nominal host.
    pub fn median_scale(self) -> f64 {
        NOMINAL_COMPUTE_US / self.compute_us
    }

    /// Multiplier that takes a p90 to the nominal host.
    pub fn tail_scale(self) -> f64 {
        NOMINAL_ECHO_P90_US / self.echo_p90_us
    }
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One slice of the reference work over `words` strings.
fn work(words: u64, seed: u64) -> usize {
    let list: Vec<String> = (0..words)
        .map(|i| format!("w{i}_{:x}", mix(i ^ seed)))
        .collect();
    let copies: Vec<Vec<String>> = (0..4).map(|_| black_box(&list).clone()).collect();
    let map: BTreeMap<String, usize> = list
        .iter()
        .enumerate()
        .map(|(i, w)| (w.clone(), i))
        .collect();
    let mut keys: Vec<u64> = (0..4 * words).map(|k| mix(k ^ seed)).collect();
    keys.sort_unstable();
    black_box((copies, map, keys)).1.len()
}

/// Eight slices of 4096 strings; returns the time in µs.
fn compute_once() -> f64 {
    let start = Instant::now();
    for round in 0..8 {
        work(4096, round);
    }
    start.elapsed().as_secs_f64() * 1e6
}

/// [`compute_once`] on two threads at once; the mean of the two times.
fn compute_pair() -> f64 {
    std::thread::scope(|s| {
        let other = s.spawn(compute_once);
        let mine = compute_once();
        (mine + other.join().expect("the reference work does not panic")) / 2.0
    })
}

/// The p90 of [`ECHO_REQUESTS`] closed-loop round trips to an echo thread
/// that does a slice of 384 strings per request.
fn echo_p90() -> io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    // Connected before the echo thread starts, so that thread's `accept`
    // cannot wait for a client that failed to come.
    let stream = TcpStream::connect(listener.local_addr()?)?;
    std::thread::scope(|s| {
        let server = s.spawn(move || -> io::Result<()> {
            let (stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut reader = BufReader::new(stream.try_clone()?);
            let mut out = stream;
            let mut line = String::new();
            while reader.read_line(&mut line)? > 0 {
                let seed = line.trim().parse().unwrap_or(0);
                out.write_all(format!("{}\n", work(384, seed)).as_bytes())?;
                line.clear();
            }
            Ok(())
        });
        // The client's streams close when this returns, which ends the
        // echo thread's loop.
        let rtts = (|| -> io::Result<Vec<u64>> {
            stream.set_nodelay(true)?;
            let mut reader = BufReader::new(stream.try_clone()?);
            let mut out = stream;
            let mut line = String::new();
            let mut rtts = Vec::with_capacity(ECHO_REQUESTS);
            for i in 0..ECHO_REQUESTS {
                let sent = Instant::now();
                out.write_all(format!("{i}\n").as_bytes())?;
                line.clear();
                if reader.read_line(&mut line)? == 0 {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                rtts.push(sent.elapsed().as_nanos() as u64);
            }
            Ok(rtts)
        })();
        let served = server.join().expect("the echo thread does not panic");
        let mut rtts = rtts?;
        served?;
        let p90 = nearest_rank(&mut rtts, 0.9).expect("at least one round trip");
        Ok(p90 as f64 / 1e3)
    })
}
