//! The metrics registry: named counters and log2-bucket histograms
//! behind one snapshot/diff/serialize interface.
//!
//! Publishing is gated on [`crate::counting`] by the callers (one
//! relaxed atomic load at `RTX_TRACE=off`); values themselves are
//! plain `u64`s behind a mutex — every publish site is a cold path
//! (end of a run, a promotion, a stratum close), never a per-tuple
//! loop.
//!
//! Every update goes to the process-global registry. It also goes to
//! the publishing thread's open capture *frame*, if any
//! ([`open_frame`]/[`close_frame`]), which is how
//! [`crate::trace::capture_run`] reports exactly what its own run
//! published while other threads publish into the same global
//! registry. Worker shards run each job in a frame of their own and
//! ship it to the coordinator, which [`splice`]s it into its frame at
//! the merge barrier, exactly as it does with event fragments.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// A fixed-64-log2-bucket histogram. Bucket `i` holds values whose
/// bit length is `i` (bucket 0 is exactly zero; the top bucket
/// saturates), so merge and diff are bucketwise and allocation-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    /// Per-bucket observation counts.
    pub buckets: [u64; 64],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            buckets: [0; 64],
            count: 0,
            sum: 0,
        }
    }
}

impl Hist {
    /// The bucket index for a value: its bit length, clamped to 63.
    pub fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros() as usize).min(63)
    }

    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Bucketwise `self - earlier` (saturating), for snapshot diffs.
    pub fn diff(&self, earlier: &Hist) -> Hist {
        let mut out = Hist {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            ..Hist::default()
        };
        for i in 0..64 {
            out.buckets[i] = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        out
    }

    /// Bucketwise merge.
    pub fn absorb(&mut self, other: &Hist) {
        for i in 0..64 {
            self.buckets[i] += other.buckets[i];
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// No observations?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the observed values (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// A process-global (or test-local) registry of named counters and
/// histograms.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Snapshot>,
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

impl Registry {
    /// A fresh, empty registry (tests; the process normally uses
    /// [`Registry::global`]).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-global registry every instrumented crate publishes
    /// into.
    pub fn global() -> &'static Registry {
        GLOBAL.get_or_init(Registry::default)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Snapshot> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Add `delta` to the named counter.
    pub fn add(&self, name: &str, delta: u64) {
        if delta > 0 {
            self.lock().add(name, delta);
        }
    }

    /// Record one observation into the named histogram.
    pub fn record(&self, name: &str, value: u64) {
        self.lock().record(name, value);
    }

    /// A point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> Snapshot {
        self.lock().clone()
    }

    /// Clear every counter and histogram (tests and experiment
    /// binaries that run several configurations in one process).
    pub fn reset(&self) {
        *self.lock() = Snapshot::default();
    }
}

thread_local! {
    /// This thread's open capture frame, if any.
    static FRAME: RefCell<Option<Snapshot>> = const { RefCell::new(None) };
}

fn in_frame(f: impl FnOnce(&mut Snapshot)) {
    FRAME.with(|fr| {
        if let Some(s) = fr.borrow_mut().as_mut() {
            f(s)
        }
    });
}

/// Convenience: add to a named counter in the global registry (and in
/// this thread's open capture frame) when counting is enabled.
#[inline]
pub fn add(name: &str, delta: u64) {
    if crate::counting() {
        Registry::global().add(name, delta);
        in_frame(|s| s.add(name, delta));
    }
}

/// Convenience: record into a named histogram in the global registry
/// (and in this thread's open capture frame) when counting is enabled.
#[inline]
pub fn record(name: &str, value: u64) {
    if crate::counting() {
        Registry::global().record(name, value);
        in_frame(|s| s.record(name, value));
    }
}

/// The frame that was open on a thread before [`open_frame`]; hand it
/// back to [`close_frame`].
#[must_use = "pass the enclosing frame to close_frame"]
pub struct Frame {
    enclosing: Option<Snapshot>,
}

/// Open a fresh capture frame on this thread: until the matching
/// [`close_frame`], every [`add`]/[`record`] made on this thread also
/// lands in it. Frames nest; the enclosing frame is set aside, not
/// fed, while the new one is open.
pub fn open_frame() -> Frame {
    Frame {
        enclosing: FRAME.with(|fr| fr.replace(Some(Snapshot::default()))),
    }
}

/// Close this thread's open frame, restore the enclosing one, and
/// return what the closed frame recorded.
pub fn close_frame(frame: Frame) -> Snapshot {
    FRAME
        .with(|fr| fr.replace(frame.enclosing))
        .unwrap_or_default()
}

/// Add activity recorded in another frame (a worker's job) to this
/// thread's open frame. The global registry is not touched: it
/// received those updates when they were made.
pub fn splice(recorded: &Snapshot) {
    if !recorded.counters.is_empty() || !recorded.hists.is_empty() {
        in_frame(|s| s.absorb(recorded));
    }
}

/// An immutable copy of a registry's state, with diff/merge algebra
/// and JSON serialization. `diff` then `absorb` of the earlier
/// snapshot round-trips, and diffs against the empty snapshot are the
/// identity — the algebra `tests/obs.rs` pins.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub hists: BTreeMap<String, Hist>,
}

impl Snapshot {
    /// The named counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any observation was recorded.
    pub fn hist(&self, name: &str) -> Option<&Hist> {
        self.hists.get(name)
    }

    /// Add `delta` to the named counter.
    pub fn add(&mut self, name: &str, delta: u64) {
        if delta == 0 {
            return;
        }
        match self.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Record one observation into the named histogram.
    pub fn record(&mut self, name: &str, value: u64) {
        match self.hists.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = Hist::default();
                h.record(value);
                self.hists.insert(name.to_string(), h);
            }
        }
    }

    /// Nothing recorded?
    pub fn is_empty(&self) -> bool {
        self.counters.values().all(|v| *v == 0) && self.hists.values().all(Hist::is_empty)
    }

    /// `self - earlier`, entrywise saturating: the activity between
    /// two snapshots of the same registry. Zero entries are dropped.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = Snapshot::default();
        for (name, v) in &self.counters {
            let d = v.saturating_sub(earlier.counter(name));
            if d > 0 {
                out.counters.insert(name.clone(), d);
            }
        }
        for (name, h) in &self.hists {
            let d = match earlier.hists.get(name) {
                Some(e) => h.diff(e),
                None => h.clone(),
            };
            if !d.is_empty() {
                out.hists.insert(name.clone(), d);
            }
        }
        out
    }

    /// Entrywise merge of another snapshot into this one.
    pub fn absorb(&mut self, other: &Snapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &other.hists {
            self.hists.entry(name.clone()).or_default().absorb(h);
        }
    }

    /// Serialize as one JSON object:
    /// `{"counters":{..},"hists":{name:{"count":..,"sum":..,"buckets":[[bit,count],..]},..}}`.
    /// Histogram buckets are emitted sparsely as `[bucket, count]`
    /// pairs. Keys are emitted in sorted order, so equal snapshots
    /// serialize identically.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        let mut first = true;
        for (name, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{}:{}", crate::json::quote(name), v));
        }
        out.push_str("},\"hists\":{");
        let mut first = true;
        for (name, h) in &self.hists {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{}:{{\"count\":{},\"sum\":{},\"mean\":{},\"buckets\":[",
                crate::json::quote(name),
                h.count,
                h.sum,
                h.mean()
            ));
            let mut bfirst = true;
            for (i, c) in h.buckets.iter().enumerate() {
                if *c > 0 {
                    if !bfirst {
                        out.push(',');
                    }
                    bfirst = false;
                    out.push_str(&format!("[{i},{c}]"));
                }
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}
