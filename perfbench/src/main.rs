//! One workload of the rtx benchmark, in one process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> [--traced]
//! ```
//!
//! The workload's inputs are made from the seed. It is set up once to
//! run on, and from scratch again before every pass to time the
//! set-up; it runs one untimed warm-up pass and then timed, verified
//! passes until the seconds are spent. The process
//! prints one JSON line of raw measurements: set-up times, pass walls,
//! op latencies, how many ops were attempted and failed their check,
//! the self-check result, peak RSS, and, with `--traced`, per-layer
//! metrics. `perfbench/run.py` turns these into the benchmark's metrics.
//!
//! Without `--traced`, nothing but the ops is timed and the library's
//! own tracing stays at its default. With `--traced`, the process must
//! run at `RTX_TRACE=counters`: calls into each layer are timed from
//! the benchmark side, transducer queries are wrapped in a counting
//! decorator, and the `rtx_obs` registry is read around every pass.

mod dedalus;
mod magic;
mod net;
mod probe;
mod rec;

use std::time::{Duration, Instant};

/// What every workload gets from the command line.
pub struct RunArgs {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// When the process started; the budget counts from here.
    pub start: Instant,
    /// How long the run measures.
    pub budget: Duration,
    /// Traced pass (per-layer metrics) rather than the plain one.
    pub traced: bool,
}

/// The workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 5] = [
    "flood-dense",
    "flood-sparse",
    "tc-ring",
    "magic-rebind",
    "dedalus-tm",
];

fn parse_args() -> Result<(String, RunArgs), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => workload = args.next(),
            "--seed" => seed = args.next().and_then(|v| v.parse::<u64>().ok()),
            "--seconds" => seconds = args.next().and_then(|v| v.parse::<f64>().ok()),
            "--traced" => traced = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload <name> is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or("--seconds <positive number> is required")?;
    Ok((
        workload,
        RunArgs {
            seed: seed.ok_or("--seed <unsigned integer> is required")?,
            start: Instant::now(),
            budget: Duration::from_secs_f64(seconds),
            traced,
        },
    ))
}

/// The library defaults this process runs under, as the env knobs
/// resolved them.
fn effective_defaults() -> Vec<(&'static str, String)> {
    vec![
        (
            "storage",
            format!("{:?}", rtx_relational::StorageMode::global()),
        ),
        (
            "storage_promote_len",
            rtx_relational::adaptive_promote_len().to_string(),
        ),
        (
            "query_mode",
            format!("{:?}", rtx_query::QueryMode::global()),
        ),
        (
            "net_executor",
            rtx_net::ExecutorKind::auto().name().to_string(),
        ),
        (
            "net_threads_auto",
            rtx_net::ExecMode::sharded_auto().threads().to_string(),
        ),
        (
            "dedalus_fixpoint",
            format!("{:?}", rtx_dedalus::FixpointMode::auto()),
        ),
        ("trace", rtx_obs::trace::level().name().to_string()),
    ]
}

fn main() {
    let (workload, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.traced && !rtx_obs::counting() {
        eprintln!("perfbench: --traced needs RTX_TRACE=counters in the environment");
        std::process::exit(2);
    }
    let report = match workload.as_str() {
        "flood-dense" => net::flood_dense(&args),
        "flood-sparse" => net::flood_sparse(&args),
        "tc-ring" => net::tc_ring(&args),
        "magic-rebind" => magic::magic_rebind(&args),
        _ => dedalus::dedalus_tm(&args),
    };
    match report {
        Ok(r) => println!(
            "{}",
            r.to_json(&workload, args.traced, &effective_defaults())
        ),
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    }
}
