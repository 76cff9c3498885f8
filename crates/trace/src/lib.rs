//! `sws-trace` — zero-dependency structured tracing and metrics for the
//! shrink-wrap-schema pipeline.
//!
//! The paper's tool is interactive: the designer's confidence rests on the
//! system explaining itself. This crate is the measurement substrate that
//! makes the engine observable — and gives every performance PR a baseline:
//!
//! * **hierarchical spans** with monotonic nanosecond timings
//!   ([`span!`], [`Span`]); the clock is injectable
//!   ([`clock::MockClock`]) so tests see exact durations,
//! * **counters** and **log2-bucketed latency histograms**
//!   ([`histogram::Histogram`]) — every span close also feeds the
//!   histogram named after the span, so p50/p99 per instrumentation site
//!   come for free,
//! * a **structured event stream** (`span_open` / `span_close` / `event`
//!   with key=value fields),
//! * two exporters: a human-readable **tree** ([`export::render_tree`])
//!   and hand-serialized **JSON lines** ([`export::to_jsonl`]), plus a
//!   hand-written JSONL checker ([`export::jsonl`]) used by the tests.
//!
//! # Cost model
//!
//! Instrumented code calls [`span!`] / [`counter`] unconditionally. When no
//! recorder is installed, each call is one relaxed atomic load and a
//! branch; field expressions are not even evaluated. A recorder is
//! installed per process ([`set_global`]) or per thread
//! ([`Recorder::install_thread`], which takes precedence). With one
//! installed, each span open/close or point event takes the recorder's
//! uncontended mutex and appends one event; a span close also feeds one
//! histogram. [`Recorder::new`] keeps every event; [`Recorder::ring`]
//! keeps the last few and counts the evicted ones, which is how `swsd`
//! runs when it is not tracing: its crash dumps read that ring.
//!
//! # Example
//!
//! ```
//! use sws_trace::{export, Recorder};
//!
//! let rec = Recorder::new();
//! let guard = rec.install_thread();
//! {
//!     let mut sp = sws_trace::span!("parse", bytes = 120usize);
//!     sws_trace::counter("tokens", 42);
//!     sp.record("interfaces", 3usize);
//! }
//! drop(guard);
//! let session = rec.take();
//! assert_eq!(session.counter("tokens"), 42);
//! assert!(export::render_tree(&session.events).contains("parse bytes=120 interfaces=3"));
//! assert!(export::jsonl::check(&export::to_jsonl(&session)).unwrap() >= 3);
//! ```
#![cfg_attr(not(feature = "alloc-stats"), forbid(unsafe_code))]

#[cfg(feature = "alloc-stats")]
pub mod alloc_stats;
pub mod clock;
pub mod export;
pub mod histogram;
pub mod profile;
mod recorder;

pub use clock::{Clock, MockClock, MonotonicClock};
pub use export::{fmt_ns, render_tree, to_jsonl, AllocStats, HistStats, TraceSummary};
pub use histogram::Histogram;
pub use profile::{HotPath, Profile};
pub use recorder::{
    clear_global, counter, current, current_span_id, enabled, event_with, global, record_value,
    set_global, span, span_with, Event, EventKind, Field, FieldValue, IntoField, OpenSpan,
    Recorder, Span, ThreadGuard, TraceSession,
};
