//! The recorder through the *global* install path, as `swsd` runs it: a
//! ring by default, read back by the crash dump. These tests live in their
//! own binary and serialize on a lock: the global recorder is
//! process-wide, so a concurrently running span-producing test would
//! pollute it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use sws_trace::{span, Clock, EventKind, Recorder};

static LOCK: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn global_ring_evicts_the_oldest_events_and_counts_them() {
    let _serial = serial();
    let ring = Recorder::ring(4);
    sws_trace::set_global(ring.clone());
    assert!(sws_trace::enabled());
    for _ in 0..3 {
        let mut sp = span("step");
        assert!(sp.is_recording());
        sp.record("k", 1u64);
        sws_trace::event!("ping", n = 2u64);
        sws_trace::counter("steps", 1);
    }
    sws_trace::clear_global();
    assert!(!sws_trace::enabled());
    let snap = ring.snapshot();
    // Nine events emitted, the last four retained, oldest first.
    assert_eq!(snap.dropped, 5);
    let kinds: Vec<&str> = snap
        .events
        .iter()
        .map(|e| match e.kind {
            EventKind::SpanOpen => "open",
            EventKind::SpanClose { .. } => "close",
            EventKind::Point => "point",
        })
        .collect();
    assert_eq!(kinds, ["close", "open", "point", "close"]);
    let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, [5, 6, 7, 8]);
    // The point event hangs off the open span.
    assert_eq!(snap.events[2].parent, snap.events[1].span_id);
    // Counters and span histograms see every event, evicted or not.
    assert_eq!(snap.counter("steps"), 3);
    assert_eq!(snap.histogram("step").map(|h| h.count()), Some(3));
    assert!(snap.open_spans.is_empty());
    // Draining resets the eviction count with the events.
    assert_eq!(ring.take().dropped, 5);
    assert_eq!(ring.snapshot().dropped, 0);
}

#[test]
fn a_thread_recorder_takes_precedence_over_the_global_one() {
    let _serial = serial();
    let ring = Recorder::ring(8);
    sws_trace::set_global(ring.clone());
    let rec = Recorder::new();
    {
        let _guard = rec.install_thread();
        let _sp = span("local");
        sws_trace::counter("local", 1);
    }
    {
        let _sp = span("global");
    }
    sws_trace::clear_global();
    let local = rec.take();
    let global = ring.snapshot();
    assert!(local.events.iter().all(|e| e.name == "local"));
    assert_eq!(local.counter("local"), 1);
    assert!(global.events.iter().all(|e| e.name == "global"));
    assert_eq!(global.events.len(), 2);
    assert_eq!(global.counter("local"), 0);
}

#[test]
fn open_spans_walk_back_to_the_root() {
    let _serial = serial();
    let ring = Recorder::ring(1);
    sws_trace::set_global(ring.clone());
    let outer = span("outer");
    let inner = span("inner");
    let leaf = sws_trace::current_span_id();
    assert_eq!(leaf, inner.id());
    let snap = ring.snapshot();
    // The ring already evicted `outer`'s open event; the open-span map
    // still knows it.
    assert!(snap.events.iter().all(|e| e.name != "outer"));
    assert_eq!(snap.stack_from(leaf), ["outer", "inner"]);
    assert_eq!(snap.stack_from(outer.id()), ["outer"]);
    assert!(snap.stack_from(u64::MAX).is_empty());
    drop(inner);
    assert_eq!(sws_trace::current_span_id(), outer.id());
    assert_eq!(ring.snapshot().stack_from(outer.id()), ["outer"]);
    drop(outer);
    sws_trace::clear_global();
    assert_eq!(sws_trace::current_span_id(), 0);
    assert!(ring.snapshot().open_spans.is_empty());
}

/// A clock that panics on its first read after `fail_read` is set, or
/// when dropped with `fail_drop` set: a way to panic while the recorder
/// (or the global slot) holds its lock.
#[derive(Default)]
struct FaultyClock {
    fail_read: AtomicBool,
    fail_drop: bool,
}

impl Clock for FaultyClock {
    fn now_ns(&self) -> u64 {
        if self.fail_read.swap(false, Ordering::SeqCst) {
            panic!("injected clock failure");
        }
        0
    }
}

impl Drop for FaultyClock {
    fn drop(&mut self) {
        if self.fail_drop && !std::thread::panicking() {
            panic!("injected clock drop failure");
        }
    }
}

#[test]
fn snapshot_survives_a_poisoned_peer_lock() {
    let _serial = serial();
    // A thread that panics inside the recorder's critical section poisons
    // its lock; the crash dump path (snapshot, further spans) must not
    // panic in turn.
    let clock = Arc::new(FaultyClock::default());
    let rec = Recorder::with_clock(clock.clone());
    sws_trace::set_global(rec.clone());
    {
        let _sp = span("before");
    }
    clock.fail_read.store(true, Ordering::SeqCst);
    let handle = std::thread::spawn(|| {
        let _sp = span("doomed");
    });
    assert!(handle.join().is_err());
    {
        let _sp = span("after");
    }
    let snap = rec.snapshot();
    let names: Vec<&str> = snap.events.iter().map(|e| e.name).collect();
    assert_eq!(names, ["before", "before", "after", "after"]);
    assert_eq!(snap.histogram("after").map(|h| h.count()), Some(1));

    // Poison the global slot itself: replacing a recorder whose clock
    // panics on drop unwinds while `set_global` holds the slot's lock.
    let doomed = Recorder::with_clock(Arc::new(FaultyClock {
        fail_read: AtomicBool::new(false),
        fail_drop: true,
    }));
    let handle = std::thread::spawn(move || {
        sws_trace::set_global(doomed);
        sws_trace::set_global(Recorder::ring(4));
    });
    assert!(handle.join().is_err());
    let global = sws_trace::global().expect("the replacement is installed");
    assert_eq!(global.capacity(), Some(4));
    {
        let _sp = span("poisoned_slot");
    }
    assert_eq!(global.snapshot().events.len(), 2);
    assert!(sws_trace::clear_global().is_some());
}
