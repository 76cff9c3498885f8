//! The recorder: event sink, counters, histograms, and span guards.
//!
//! # Installation
//!
//! Instrumented library code never takes a recorder parameter; it calls the
//! free functions / macros of this crate, which resolve the *current*
//! recorder:
//!
//! 1. a thread-local recorder installed with [`Recorder::install_thread`]
//!    (tests and embedded use — no cross-test interference), else
//! 2. the process-global recorder installed with [`set_global`]
//!    (`swsd` installs one in every run: a [`Recorder::ring`] by default,
//!    an unbounded [`Recorder::new`] under `--trace`/`--profile`).
//!
//! When neither is installed, every instrumentation point is a single
//! relaxed atomic load and a branch.

use crate::clock::{Clock, MonotonicClock};
use crate::histogram::Histogram;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A typed field value on a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A string.
    Str(String),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float.
    F64(f64),
    /// A boolean.
    Bool(bool),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::Str(s) => f.write_str(s),
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// Conversion into a [`FieldValue`]; implemented for the types that appear
/// at instrumentation sites.
pub trait IntoField {
    /// Convert.
    fn into_field(self) -> FieldValue;
}

impl IntoField for FieldValue {
    fn into_field(self) -> FieldValue {
        self
    }
}
impl IntoField for &str {
    fn into_field(self) -> FieldValue {
        FieldValue::Str(self.to_string())
    }
}
impl IntoField for String {
    fn into_field(self) -> FieldValue {
        FieldValue::Str(self)
    }
}
impl IntoField for &String {
    fn into_field(self) -> FieldValue {
        FieldValue::Str(self.clone())
    }
}
impl IntoField for u64 {
    fn into_field(self) -> FieldValue {
        FieldValue::U64(self)
    }
}
impl IntoField for u32 {
    fn into_field(self) -> FieldValue {
        FieldValue::U64(self as u64)
    }
}
impl IntoField for usize {
    fn into_field(self) -> FieldValue {
        FieldValue::U64(self as u64)
    }
}
impl IntoField for i64 {
    fn into_field(self) -> FieldValue {
        FieldValue::I64(self)
    }
}
impl IntoField for i32 {
    fn into_field(self) -> FieldValue {
        FieldValue::I64(self as i64)
    }
}
impl IntoField for f64 {
    fn into_field(self) -> FieldValue {
        FieldValue::F64(self)
    }
}
impl IntoField for bool {
    fn into_field(self) -> FieldValue {
        FieldValue::Bool(self)
    }
}

/// A named field.
pub type Field = (&'static str, FieldValue);

/// What an [`Event`] records.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A span started.
    SpanOpen,
    /// A span ended after `dur_ns` nanoseconds.
    SpanClose {
        /// Span duration in nanoseconds.
        dur_ns: u64,
    },
    /// A point event.
    Point,
}

/// One structured event in the session stream.
#[derive(Debug, Clone)]
pub struct Event {
    /// Global sequence number within the recorder (emission order).
    pub seq: u64,
    /// Timestamp (nanoseconds on the recorder clock's axis).
    pub ts_ns: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Span / event name (a static instrumentation-site label).
    pub name: &'static str,
    /// Id of the span this event belongs to (0 for point events outside
    /// any span).
    pub span_id: u64,
    /// Id of the enclosing span (0 = root).
    pub parent: u64,
    /// Key=value payload.
    pub fields: Vec<Field>,
}

/// A span that has opened but not yet closed.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenSpan {
    /// Span id.
    pub id: u64,
    /// Enclosing span id (0 = root).
    pub parent: u64,
    /// Span name.
    pub name: &'static str,
}

#[derive(Default)]
struct State {
    events: VecDeque<Event>,
    /// Events evicted from a ring since the last [`Recorder::take`].
    dropped: u64,
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    open: BTreeMap<u64, OpenSpan>,
    seq: u64,
}

struct Inner {
    /// Events retained: the last `n` for a ring, all of them for `None`.
    capacity: Option<usize>,
    clock: Arc<dyn Clock>,
    state: Mutex<State>,
}

/// Process-wide span-id allocator, shared by every [`Recorder`] so that a
/// thread-local and the global recorder never hand out the same id.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Every lock in this module survives poisoning: the global recorder is
/// read by the panic hook, so a panic elsewhere must never cascade into a
/// second panic inside the crash dump. Recovering the guard is sound
/// because each update leaves the state valid at every step.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Everything a recorder captured: the event stream plus the metric
/// registries and the spans still open. Produced by [`Recorder::snapshot`]
/// / [`Recorder::take`]; the one type `--trace`, `--profile` and crash
/// dumps read.
#[derive(Debug, Clone, Default)]
pub struct TraceSession {
    /// Events in emission order (for a ring, the retained tail).
    pub events: Vec<Event>,
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<(String, Histogram)>,
    /// Events a ring evicted before this snapshot (0 when unbounded).
    pub dropped: u64,
    /// Spans open at snapshot time, sorted by id (open order).
    pub open_spans: Vec<OpenSpan>,
}

impl TraceSession {
    /// True if nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Events with [`EventKind::SpanClose`] and the given name.
    pub fn closed_spans<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Event> {
        self.events
            .iter()
            .filter(move |e| e.name == name && matches!(e.kind, EventKind::SpanClose { .. }))
    }

    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// The open span stack ending at `leaf` (a span id, usually
    /// [`current_span_id`] of the crashing thread), root first. Unknown
    /// ids end the walk, so a stack whose outer spans opened before the
    /// snapshot's recorder was installed still yields the suffix it knows.
    pub fn stack_from(&self, leaf: u64) -> Vec<&'static str> {
        let mut stack = Vec::new();
        let mut id = leaf;
        while let Ok(at) = self.open_spans.binary_search_by_key(&id, |s| s.id) {
            let span = &self.open_spans[at];
            stack.push(span.name);
            id = span.parent;
        }
        stack.reverse();
        stack
    }
}

/// The event/metric sink. Cheap to clone (shared interior).
///
/// [`Recorder::new`] keeps every event (`--trace`, `--profile`, tests);
/// [`Recorder::ring`] keeps only the last `capacity` and counts the rest
/// as dropped (`swsd`'s always-on recorder, read by crash dumps). Both
/// keep the same counters, span histograms and open-span map.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("capacity", &self.inner.capacity)
            .finish()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An unbounded recorder on the real monotonic clock.
    pub fn new() -> Self {
        Recorder::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// An unbounded recorder on an injected clock (see
    /// [`crate::clock::MockClock`]).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Recorder::build(None, clock)
    }

    /// A recorder that retains only the last `capacity` events.
    pub fn ring(capacity: usize) -> Self {
        Recorder::build(Some(capacity), Arc::new(MonotonicClock::new()))
    }

    fn build(capacity: Option<usize>, clock: Arc<dyn Clock>) -> Self {
        Recorder {
            inner: Arc::new(Inner {
                capacity,
                clock,
                state: Mutex::new(State::default()),
            }),
        }
    }

    /// The ring capacity, or `None` for an unbounded recorder.
    pub fn capacity(&self) -> Option<usize> {
        self.inner.capacity
    }

    /// Append one event, evicting the oldest past a ring's capacity.
    /// Callers read the clock under the lock, so timestamps follow `seq`.
    #[allow(clippy::too_many_arguments)]
    fn push(
        &self,
        state: &mut State,
        ts_ns: u64,
        kind: EventKind,
        name: &'static str,
        span_id: u64,
        parent: u64,
        fields: Vec<Field>,
    ) {
        let seq = state.seq;
        state.seq += 1;
        state.events.push_back(Event {
            seq,
            ts_ns,
            kind,
            name,
            span_id,
            parent,
            fields,
        });
        if self
            .inner
            .capacity
            .is_some_and(|cap| state.events.len() > cap)
        {
            state.events.pop_front();
            state.dropped += 1;
        }
    }

    /// Record a span open; returns its open timestamp.
    fn open(&self, name: &'static str, id: u64, parent: u64, fields: Vec<Field>) -> u64 {
        let mut state = lock(&self.inner.state);
        let ts_ns = self.now_ns();
        state.open.insert(id, OpenSpan { id, parent, name });
        self.push(
            &mut state,
            ts_ns,
            EventKind::SpanOpen,
            name,
            id,
            parent,
            fields,
        );
        ts_ns
    }

    /// Record a span close and feed the histogram named after the span.
    fn close(&self, name: &'static str, id: u64, parent: u64, open_ts: u64, fields: Vec<Field>) {
        let mut state = lock(&self.inner.state);
        let ts_ns = self.now_ns();
        let dur_ns = ts_ns.saturating_sub(open_ts);
        state.open.remove(&id);
        state.histograms.entry(name).or_default().record(dur_ns);
        self.push(
            &mut state,
            ts_ns,
            EventKind::SpanClose { dur_ns },
            name,
            id,
            parent,
            fields,
        );
    }

    /// Record a point event under `parent`.
    fn point(&self, name: &'static str, parent: u64, fields: Vec<Field>) {
        let mut state = lock(&self.inner.state);
        let ts_ns = self.now_ns();
        self.push(&mut state, ts_ns, EventKind::Point, name, 0, parent, fields);
    }

    /// Current time on this recorder's clock.
    pub fn now_ns(&self) -> u64 {
        self.inner.clock.now_ns()
    }

    /// Add `delta` to the named counter.
    pub fn add(&self, name: &'static str, delta: u64) {
        *lock(&self.inner.state).counters.entry(name).or_insert(0) += delta;
    }

    /// Record a sample in the named histogram.
    pub fn record(&self, name: &'static str, value: u64) {
        lock(&self.inner.state)
            .histograms
            .entry(name)
            .or_default()
            .record(value);
    }

    fn session_from(state: &State) -> TraceSession {
        TraceSession {
            events: state.events.iter().cloned().collect(),
            counters: state
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            histograms: state
                .histograms
                .iter()
                .map(|(k, h)| (k.to_string(), h.clone()))
                .collect(),
            dropped: state.dropped,
            open_spans: state.open.values().cloned().collect(),
        }
    }

    /// Copy out everything recorded so far. Never panics, even if a
    /// thread panicked while holding the recorder's lock.
    pub fn snapshot(&self) -> TraceSession {
        Self::session_from(&lock(&self.inner.state))
    }

    /// Drain everything recorded so far, leaving the recorder empty.
    pub fn take(&self) -> TraceSession {
        let mut state = lock(&self.inner.state);
        let session = Self::session_from(&state);
        *state = State::default();
        session
    }

    /// Install this recorder for the current thread; the returned guard
    /// restores the previous thread recorder on drop. Takes precedence
    /// over the global recorder.
    pub fn install_thread(&self) -> ThreadGuard {
        let prev = TL_RECORDER.with(|tl| tl.replace(Some(self.clone())));
        if prev.is_none() {
            ACTIVE_SOURCES.fetch_add(1, Ordering::SeqCst);
        }
        ThreadGuard { prev }
    }
}

// ---------------------------------------------------------------------
// Global / thread-local installation.
// ---------------------------------------------------------------------

static ACTIVE_SOURCES: AtomicUsize = AtomicUsize::new(0);
static GLOBAL: Mutex<Option<Recorder>> = Mutex::new(None);

thread_local! {
    static TL_RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
}

/// Install `recorder` as the process-global recorder. Replaces any
/// previous one.
pub fn set_global(recorder: Recorder) {
    let mut slot = lock(&GLOBAL);
    if slot.is_none() {
        ACTIVE_SOURCES.fetch_add(1, Ordering::SeqCst);
    }
    *slot = Some(recorder);
}

/// Remove the process-global recorder, returning it.
pub fn clear_global() -> Option<Recorder> {
    let prev = lock(&GLOBAL).take();
    if prev.is_some() {
        ACTIVE_SOURCES.fetch_sub(1, Ordering::SeqCst);
    }
    prev
}

/// The process-global recorder, if installed.
pub fn global() -> Option<Recorder> {
    lock(&GLOBAL).clone()
}

/// Restores the previous thread-local recorder on drop.
#[must_use = "dropping the guard immediately uninstalls the recorder"]
pub struct ThreadGuard {
    prev: Option<Recorder>,
}

impl Drop for ThreadGuard {
    fn drop(&mut self) {
        let installed = TL_RECORDER.with(|tl| tl.replace(self.prev.take()));
        // `installed` is what we put in (or a later override); if the slot
        // goes back to empty, retire this thread as an active source.
        if installed.is_some() && TL_RECORDER.with(|tl| tl.borrow().is_none()) {
            ACTIVE_SOURCES.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// True if a recorder is installed for this thread or globally. One
/// relaxed atomic load when nothing is installed.
#[inline]
pub fn enabled() -> bool {
    current().is_some()
}

/// The id of the innermost span currently open on *this thread* (0 when
/// outside any span). This is what a crash dump hands to
/// [`TraceSession::stack_from`] to reconstruct the active stack.
#[inline]
pub fn current_span_id() -> u64 {
    CURRENT_SPAN.with(|c| c.get())
}

/// The recorder instrumentation should write to right now, if any: this
/// thread's, else the global one.
#[inline]
pub fn current() -> Option<Recorder> {
    if ACTIVE_SOURCES.load(Ordering::Relaxed) == 0 {
        return None;
    }
    TL_RECORDER.with(|tl| tl.borrow().clone()).or_else(global)
}

// ---------------------------------------------------------------------
// RAII span + free functions.
// ---------------------------------------------------------------------

struct SpanState {
    id: u64,
    parent: u64,
    name: &'static str,
    /// The recorder the span opened on, and the open timestamp on its
    /// clock.
    rec: Recorder,
    open_ts: u64,
    fields: Vec<Field>,
    /// `(alloc.count, alloc.bytes)` totals at open, reported as deltas on
    /// close.
    #[cfg(feature = "alloc-stats")]
    alloc_at_open: (u64, u64),
}

impl std::fmt::Debug for SpanState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanState")
            .field("id", &self.id)
            .field("name", &self.name)
            .finish()
    }
}

/// An RAII span guard: emits `span_open` on creation and `span_close`
/// (with duration) on drop, to the current [`Recorder`]. Inert — a single
/// `Option` check — when no recorder is installed.
#[must_use = "a span closes when dropped; binding it to _ closes it immediately"]
#[derive(Debug)]
pub struct Span {
    state: Option<SpanState>,
}

impl Span {
    /// An inert span (used on the disabled path).
    pub fn disabled() -> Self {
        Span { state: None }
    }

    /// Is this span actually recording?
    pub fn is_recording(&self) -> bool {
        self.state.is_some()
    }

    /// The span id (0 if not recording).
    pub fn id(&self) -> u64 {
        self.state.as_ref().map_or(0, |s| s.id)
    }

    /// Attach a field, reported on the close event.
    pub fn record(&mut self, key: &'static str, value: impl IntoField) {
        if let Some(state) = &mut self.state {
            state.fields.push((key, value.into_field()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else {
            return;
        };
        #[allow(unused_mut)]
        let mut fields = state.fields;
        #[cfg(feature = "alloc-stats")]
        {
            let (count, bytes) = crate::alloc_stats::totals();
            fields.push((
                "alloc.count",
                FieldValue::U64(count.saturating_sub(state.alloc_at_open.0)),
            ));
            fields.push((
                "alloc.bytes",
                FieldValue::U64(bytes.saturating_sub(state.alloc_at_open.1)),
            ));
        }
        CURRENT_SPAN.with(|c| c.set(state.parent));
        state
            .rec
            .close(state.name, state.id, state.parent, state.open_ts, fields);
    }
}

/// Open a span with no fields.
pub fn span(name: &'static str) -> Span {
    span_with(name, Vec::new)
}

/// Open a span; `fields` is only invoked if a recorder is active.
pub fn span_with(name: &'static str, fields: impl FnOnce() -> Vec<Field>) -> Span {
    let Some(rec) = current() else {
        return Span::disabled();
    };
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT_SPAN.with(|c| c.replace(id));
    let open_ts = rec.open(name, id, parent, fields());
    Span {
        state: Some(SpanState {
            id,
            parent,
            name,
            rec,
            open_ts,
            fields: Vec::new(),
            #[cfg(feature = "alloc-stats")]
            alloc_at_open: crate::alloc_stats::totals(),
        }),
    }
}

/// Emit a point event; `fields` is only invoked if a recorder is active.
pub fn event_with(name: &'static str, fields: impl FnOnce() -> Vec<Field>) {
    if let Some(rec) = current() {
        rec.point(name, current_span_id(), fields());
    }
}

/// Add `delta` to the named counter on the current recorder.
pub fn counter(name: &'static str, delta: u64) {
    if let Some(rec) = current() {
        rec.add(name, delta);
    }
}

/// Record a sample in the named histogram on the current recorder.
pub fn record_value(name: &'static str, value: u64) {
    if let Some(rec) = current() {
        rec.record(name, value);
    }
}

/// Open a span: `span!("name")` or `span!("name", key = value, ...)`.
/// Field expressions are not evaluated unless a recorder is active.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::span_with($name, || ::std::vec![
            $((stringify!($key), $crate::IntoField::into_field($value))),+
        ])
    };
}

/// Emit a point event: `event!("name", key = value, ...)`.
/// Field expressions are not evaluated unless a recorder is active.
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        $crate::event_with($name, ::std::vec::Vec::new)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::event_with($name, || ::std::vec![
            $((stringify!($key), $crate::IntoField::into_field($value))),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::MockClock;

    #[test]
    fn disabled_path_records_nothing() {
        assert!(!enabled());
        let mut sp = span("nothing");
        assert!(!sp.is_recording());
        sp.record("k", 1u64);
        counter("c", 1);
        record_value("h", 1);
        drop(sp);
        assert!(!enabled());
    }

    #[test]
    fn thread_install_and_restore() {
        let rec = Recorder::new();
        {
            let _guard = rec.install_thread();
            assert!(enabled());
            counter("x", 2);
        }
        assert!(!enabled());
        assert_eq!(rec.snapshot().counter("x"), 2);
    }

    #[test]
    fn nested_thread_install_restores_outer() {
        let outer = Recorder::new();
        let inner = Recorder::new();
        let _g1 = outer.install_thread();
        {
            let _g2 = inner.install_thread();
            counter("c", 1);
        }
        counter("c", 10);
        assert_eq!(inner.snapshot().counter("c"), 1);
        assert_eq!(outer.snapshot().counter("c"), 10);
    }

    #[test]
    fn span_durations_use_the_injected_clock() {
        let clock = MockClock::new();
        let rec = Recorder::with_clock(clock.clone());
        let _guard = rec.install_thread();
        {
            let _sp = span!("work", input = 3usize);
            clock.advance(1_500);
        }
        let session = rec.snapshot();
        let close = session.closed_spans("work").next().expect("span closed");
        assert_eq!(close.kind, EventKind::SpanClose { dur_ns: 1_500 });
        let hist = session.histogram("work").expect("auto histogram");
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.max(), 1_500);
    }

    #[test]
    fn take_drains() {
        let rec = Recorder::new();
        let _guard = rec.install_thread();
        counter("c", 1);
        assert_eq!(rec.take().counter("c"), 1);
        assert!(rec.snapshot().is_empty());
    }

    #[test]
    fn ring_and_unbounded_feed_the_same_histograms() {
        for rec in [Recorder::new(), Recorder::ring(1)] {
            let _guard = rec.install_thread();
            for _ in 0..4 {
                let _sp = span("work");
            }
            let session = rec.snapshot();
            assert_eq!(session.histogram("work").map(Histogram::count), Some(4));
            assert!(session.open_spans.is_empty());
        }
    }
}
