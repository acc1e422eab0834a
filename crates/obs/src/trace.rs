//! The trace layer: levels, events, per-thread buffers, spans.
//!
//! Determinism contract: events carry **no wall-clock time and no
//! thread identity** — only what the instrumented code passed in. A
//! worker shard drains the events of one job with [`mark`]/
//! [`take_since`] and ships them to the coordinator, which [`splice`]s
//! them back in node order at its merge barrier; the merged sequence
//! is therefore a pure function of the computation, identical across
//! thread counts. Wall-clock time lives only in the
//! [registry](crate::registry) histograms.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use crate::registry;
use crate::timeline::RunTrace;

/// How much the observability layer records, from the `RTX_TRACE`
/// environment variable (`off` | `counters` | `full`), overridable at
/// runtime with [`set_level`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceLevel {
    /// Record nothing. Every instrumentation hook reduces to one
    /// relaxed atomic load.
    Off = 0,
    /// Registry counters and histograms only — cheap enough to leave
    /// on for experiments; no per-event allocation.
    Counters = 1,
    /// Counters plus the full structured event stream.
    Full = 2,
}

impl TraceLevel {
    /// Parse a level name (the `RTX_TRACE` values).
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" | "0" => Some(TraceLevel::Off),
            "counters" | "1" => Some(TraceLevel::Counters),
            "full" | "2" => Some(TraceLevel::Full),
            _ => None,
        }
    }

    /// The level's `RTX_TRACE` name.
    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Counters => "counters",
            TraceLevel::Full => "full",
        }
    }

    fn from_u8(v: u8) -> TraceLevel {
        match v {
            1 => TraceLevel::Counters,
            2 => TraceLevel::Full,
            _ => TraceLevel::Off,
        }
    }
}

/// Sentinel: level not yet initialized from the environment.
const LEVEL_UNSET: u8 = 0xff;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

/// The current trace level, reading `RTX_TRACE` on first use.
#[inline]
pub fn level() -> TraceLevel {
    let v = LEVEL.load(Ordering::Relaxed);
    if v == LEVEL_UNSET {
        init_from_env()
    } else {
        TraceLevel::from_u8(v)
    }
}

#[cold]
fn init_from_env() -> TraceLevel {
    let l = rtx_core::env::parse_choice("RTX_TRACE", "off|counters|full", TraceLevel::parse)
        .unwrap_or(TraceLevel::Off);
    LEVEL.store(l as u8, Ordering::Relaxed);
    l
}

/// Override the trace level for this process (tests, experiment
/// binaries, the chaos minimizer's forced-full replay).
pub fn set_level(l: TraceLevel) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// RAII guard restoring the previous trace level on drop.
pub struct LevelGuard {
    prev: TraceLevel,
}

/// Set the level and return a guard that restores the previous level
/// when dropped.
pub fn level_guard(l: TraceLevel) -> LevelGuard {
    let prev = level();
    set_level(l);
    LevelGuard { prev }
}

impl Drop for LevelGuard {
    fn drop(&mut self) {
        set_level(self.prev);
    }
}

/// The phase of a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A span opens (matched by a later `End` in the same sequence).
    Begin,
    /// The innermost open span closes.
    End,
    /// A point event.
    Instant,
}

/// One structured trace event. Purely logical: no timestamp, no
/// thread id — its position in the merged sequence is its time.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Event {
    /// Event phase.
    pub kind: EventKind,
    /// Category (coarse subsystem: `"net"`, `"query"`, `"storage"`, …).
    pub cat: &'static str,
    /// Event name within the category.
    pub name: &'static str,
    /// Named integer arguments (node indexes, round numbers, counts).
    pub args: Vec<(&'static str, i64)>,
}

/// Per-thread buffer cap: a runaway full-trace run stops recording
/// (and counts drops) instead of exhausting memory.
const MAX_BUFFERED: usize = 1 << 20;

static DROPPED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static SINK: RefCell<Vec<Event>> = const { RefCell::new(Vec::new()) };
}

#[inline]
fn push(ev: Event) {
    SINK.with(|s| {
        let mut s = s.borrow_mut();
        if s.len() < MAX_BUFFERED {
            s.push(ev);
        } else {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Total events dropped process-wide to the buffer cap.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Record a `Begin` event (level `full` only).
#[inline]
pub fn begin(cat: &'static str, name: &'static str, args: &[(&'static str, i64)]) {
    if level() == TraceLevel::Full {
        push(Event {
            kind: EventKind::Begin,
            cat,
            name,
            args: args.to_vec(),
        });
    }
}

/// Record an `End` event (level `full` only).
#[inline]
pub fn end(cat: &'static str, name: &'static str) {
    if level() == TraceLevel::Full {
        push(Event {
            kind: EventKind::End,
            cat,
            name,
            args: Vec::new(),
        });
    }
}

/// Record an `Instant` event (level `full` only).
#[inline]
pub fn instant(cat: &'static str, name: &'static str, args: &[(&'static str, i64)]) {
    if level() == TraceLevel::Full {
        push(Event {
            kind: EventKind::Instant,
            cat,
            name,
            args: args.to_vec(),
        });
    }
}

/// A span guard: emits `Begin` on creation (via [`span`]) and `End`
/// on drop. Does nothing at levels below `full`.
pub struct Span {
    cat: &'static str,
    name: &'static str,
    armed: bool,
}

/// Open a span (the function behind the [`span!`](crate::span) macro).
#[inline]
pub fn span(cat: &'static str, name: &'static str, args: &[(&'static str, i64)]) -> Span {
    let armed = level() == TraceLevel::Full;
    if armed {
        begin(cat, name, args);
    }
    Span { cat, name, armed }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            end(self.cat, self.name);
        }
    }
}

/// The current length of this thread's event buffer — a position to
/// [`take_since`] later. Workers call this before running a job.
#[inline]
pub fn mark() -> usize {
    if level() != TraceLevel::Full {
        return 0;
    }
    SINK.with(|s| s.borrow().len())
}

/// Drain every event recorded on this thread since `mark`. Workers
/// call this after a job and ship the fragment to the coordinator.
#[inline]
pub fn take_since(mark: usize) -> Vec<Event> {
    if level() != TraceLevel::Full {
        return Vec::new();
    }
    SINK.with(|s| {
        let mut s = s.borrow_mut();
        if mark >= s.len() {
            Vec::new()
        } else {
            s.split_off(mark)
        }
    })
}

/// Append a fragment of events (a job's worth, drained on a worker
/// with [`take_since`]) to this thread's buffer. The coordinator calls
/// this in deterministic node order at its merge barrier.
#[inline]
pub fn splice(events: Vec<Event>) {
    if events.is_empty() {
        return;
    }
    SINK.with(|s| {
        let mut s = s.borrow_mut();
        let room = MAX_BUFFERED.saturating_sub(s.len());
        if events.len() > room {
            DROPPED.fetch_add((events.len() - room) as u64, Ordering::Relaxed);
        }
        let take = events.len().min(room);
        s.extend(events.into_iter().take(take));
    });
}

/// Run `f` in a fresh capture frame and return its result plus the
/// [`RunTrace`] of everything recorded on this thread (including
/// fragments spliced in from workers) and the registry updates the run
/// made: those published on this thread or spliced in from its workers
/// (see [`registry::open_frame`]), never what other threads publish
/// meanwhile. Frames nest: the enclosing frame's events are saved and
/// restored around `f`, and its registry frame also receives the
/// nested run's updates.
pub fn capture_run<T>(f: impl FnOnce() -> T) -> (T, RunTrace) {
    let prev = SINK.with(|s| s.take());
    let frame = registry::open_frame();
    let dropped0 = dropped();
    let out = f();
    let events = SINK.with(|s| s.take());
    SINK.with(|s| *s.borrow_mut() = prev);
    let counters = registry::close_frame(frame);
    registry::splice(&counters);
    let trace = RunTrace {
        events,
        counters,
        dropped: dropped() - dropped0,
    };
    (out, trace)
}
