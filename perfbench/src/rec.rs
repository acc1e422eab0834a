//! The measurement loop shared by every workload: timed set-ups, a
//! warm-up pass, timed passes until the budget is spent, and the raw
//! report that `run.py` turns into metrics.

use rtx_obs::{Registry, Snapshot};
use rtx_relational::{Instance, Relation, StorageStats, Tuple, Value};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Before every pass the workload is set up from scratch again, at
/// least once and until `SETUP_SLICE_SECONDS` are spent, so the set-up
/// samples spread over the whole run like the passes do. `setup_s` is
/// their median.
const SETUP_SLICE_SECONDS: f64 = 0.01;

/// Fewest timed passes a run makes, whatever its budget.
const MIN_TIMED_PASSES: usize = 3;

/// Registry counters every traced pass reports, read as the registry's
/// change over the pass (up to [`Rec::done`]).
const REGISTRY_COUNTERS: [&str; 2] = ["query.considered", "query.derived"];

/// The maintained-fixpoint counters, as `rtx_query` publishes them.
pub const FIXPOINT_COUNTERS: [&str; 4] = [
    "fixpoint.deltas_applied",
    "fixpoint.strata_incremental",
    "fixpoint.strata_rebuilt",
    "fixpoint.strata_skipped",
];

/// What one pass recorded.
pub struct Rec {
    traced: bool,
    warmup: bool,
    done_at: Option<Instant>,
    ops: Vec<f64>,
    attempted: u64,
    failed: u64,
    self_checks: u64,
    self_check_failed: u64,
    layers: BTreeMap<&'static str, f64>,
    registry_at_start: Option<Snapshot>,
    registry_diff: Snapshot,
}

impl Rec {
    fn new(traced: bool, warmup: bool) -> Rec {
        Rec {
            registry_at_start: traced.then(|| Registry::global().snapshot()),
            registry_diff: Snapshot::default(),
            traced,
            warmup,
            done_at: None,
            ops: Vec::new(),
            attempted: 0,
            failed: 0,
            self_checks: 0,
            self_check_failed: 0,
            layers: BTreeMap::new(),
        }
    }

    /// Is this the traced pass (per-layer timing and counters on)?
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Is this the untimed warm-up pass? The self-check runs here.
    pub fn warmup(&self) -> bool {
        self.warmup
    }

    /// Count one op and whether its result matched the reference.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Count a failure that is not an op of its own (a registry
    /// reconciliation mismatch).
    pub fn fail(&mut self) {
        self.failed += 1;
    }

    /// Feed a deliberately wrong reference to a checker: `passed` is
    /// what the checker said. A checker that accepts a wrong answer is
    /// broken, and the run is refused.
    pub fn self_check(&mut self, passed: bool) {
        self.self_checks += 1;
        if !passed {
            self.self_check_failed += 1;
        }
    }

    /// Record one op latency (closed loop: ops run back to back).
    pub fn op(&mut self, latency: Duration) {
        self.ops.push(latency.as_secs_f64());
    }

    /// Mark the pass's result as verified: the pass wall ends here, and
    /// what follows (per-layer sampling) is not part of it.
    pub fn done(&mut self) {
        self.done_at = Some(Instant::now());
        if let Some(start) = &self.registry_at_start {
            self.registry_diff = Registry::global().snapshot().diff(start);
            for name in REGISTRY_COUNTERS {
                let v = self.registry_diff.counter(name) as f64;
                self.add(name, v);
            }
            let (considered, derived) = (self.get("query.considered"), self.get("query.derived"));
            if considered > 0.0 {
                self.add("query.derive_ratio", derived / considered);
            }
        }
    }

    /// The registry's change from the start of the pass to
    /// [`Rec::done`] (empty on untraced passes).
    pub fn registry_diff(&self) -> &Snapshot {
        &self.registry_diff
    }

    /// Add to a per-layer metric of this pass (traced passes only).
    pub fn add(&mut self, key: &'static str, v: f64) {
        if self.traced {
            *self.layers.entry(key).or_insert(0.0) += v;
        }
    }

    /// A per-layer metric's value so far in this pass.
    pub fn get(&self, key: &'static str) -> f64 {
        self.layers.get(key).copied().unwrap_or(0.0)
    }

    /// Time a call into a layer, adding its seconds to `key` on traced
    /// passes. Untraced passes call `f` with no clock reads.
    pub fn time<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.traced {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.add(key, t0.elapsed().as_secs_f64());
        out
    }
}

/// `r` with one tuple too many: the deliberately wrong reference of a
/// self-check.
pub fn corrupt(r: &Relation) -> Relation {
    let wrong = Tuple::new(vec![Value::int(-1); r.arity()]);
    Relation::from_tuples(r.arity(), r.iter().cloned().chain([wrong])).expect("same arity")
}

/// Add the storage counters of `instances` (from
/// `Instance::storage_stats`), summed, to a pass's per-layer metrics.
pub fn add_storage_stats<'a>(rec: &mut Rec, instances: impl IntoIterator<Item = &'a Instance>) {
    let mut stats = StorageStats::default();
    for inst in instances {
        for (_, rs) in inst.storage_stats() {
            stats.absorb(&rs);
        }
    }
    rec.add("relational.promotions", stats.promotions as f64);
    rec.add("relational.folds", stats.folds as f64);
    rec.add("relational.small_probes", stats.small_probes as f64);
    rec.add("relational.tail_hwm", stats.tail_hwm as f64);
}

/// The raw measurements of one workload process.
pub struct Report {
    setup_s: Vec<f64>,
    pass_s: Vec<f64>,
    op_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    self_checks: u64,
    self_check_failed: u64,
    layers: BTreeMap<&'static str, Vec<f64>>,
}

/// Run one warm-up pass and then timed passes until `budget` has passed
/// since `start` (at least [`MIN_TIMED_PASSES`]). `setup` builds a fresh
/// set-up; it is timed before every pass, its tear-down is not. A pass's wall
/// runs from its first layer call to [`Rec::done`]; op latencies come
/// from [`Rec::op`], or are the pass walls when a workload's op is the
/// whole pass. Per-layer metrics are reported per timed pass.
pub fn drive<S>(
    start: Instant,
    budget: Duration,
    traced: bool,
    mut setup: impl FnMut() -> Result<S, String>,
    mut pass: impl FnMut(&mut Rec) -> Result<(), String>,
) -> Result<Report, String> {
    let mut report = Report {
        setup_s: Vec::new(),
        pass_s: Vec::new(),
        op_s: Vec::new(),
        attempted: 0,
        failed: 0,
        self_checks: 0,
        self_check_failed: 0,
        layers: BTreeMap::new(),
    };
    let mut warmup = true;
    loop {
        let mut slice = 0.0;
        while slice == 0.0 || slice < SETUP_SLICE_SECONDS {
            let t0 = Instant::now();
            let fresh = std::hint::black_box(setup()?);
            let secs = t0.elapsed().as_secs_f64();
            drop(fresh);
            report.setup_s.push(secs);
            slice += secs;
        }
        let mut rec = Rec::new(traced, warmup);
        let t0 = Instant::now();
        pass(&mut rec)?;
        let end = rec
            .done_at
            .ok_or("a pass never marked its result verified")?;
        let wall = end.duration_since(t0).as_secs_f64();
        report.attempted += rec.attempted;
        report.failed += rec.failed;
        report.self_checks += rec.self_checks;
        report.self_check_failed += rec.self_check_failed;
        if warmup {
            if rec.self_checks == 0 {
                return Err("the warm-up pass ran no self-check".into());
            }
        } else {
            report.pass_s.push(wall);
            if rec.ops.is_empty() {
                report.op_s.push(wall);
            } else {
                report.op_s.extend(&rec.ops);
            }
            for (k, v) in rec.layers {
                report.layers.entry(k).or_default().push(v);
            }
            if traced {
                report.layers.entry("wall_s").or_default().push(wall);
            }
        }
        warmup = false;
        if report.pass_s.len() >= MIN_TIMED_PASSES && start.elapsed() >= budget {
            break;
        }
    }
    Ok(report)
}

/// The median of a non-empty sample.
fn median(v: &mut [f64]) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), in KiB.
fn vm_hwm_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

fn num_list(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|x| format!("{x:e}")).collect();
    format!("[{}]", items.join(","))
}

impl Report {
    /// The median set-up time.
    pub fn setup_median(&self) -> f64 {
        median(&mut self.setup_s.clone())
    }

    /// Set a per-layer metric measured once per run (not per pass).
    pub fn set_layer(&mut self, key: &'static str, v: f64) {
        self.layers.insert(key, vec![v]);
    }

    /// One JSON object with every raw measurement.
    pub fn to_json(&self, workload: &str, traced: bool, defaults: &[(&str, String)]) -> String {
        let layers: Vec<String> = self
            .layers
            .iter()
            .map(|(k, v)| format!("{}:{}", rtx_obs::json::quote(k), num_list(v)))
            .collect();
        let defaults: Vec<String> = defaults
            .iter()
            .map(|(k, v)| format!("{}:{}", rtx_obs::json::quote(k), rtx_obs::json::quote(v)))
            .collect();
        format!(
            "{{\"workload\":{},\"traced\":{traced},\"setup_s\":{},\"pass_s\":{},\"op_s\":{},\
             \"attempted\":{},\"failed\":{},\"self_checks\":{},\"self_check_failed\":{},\
             \"vm_hwm_kib\":{},\"layers\":{{{}}},\"defaults\":{{{}}}}}",
            rtx_obs::json::quote(workload),
            num_list(&self.setup_s),
            num_list(&self.pass_s),
            num_list(&self.op_s),
            self.attempted,
            self.failed,
            self.self_checks,
            self.self_check_failed,
            vm_hwm_kib(),
            layers.join(","),
            defaults.join(","),
        )
    }
}
