//! `dedalus-tm`: seeded words run through the Dedalus program that
//! Theorem 18 compiles from the palindrome Turing machine, each to
//! convergence. It is the only workload that runs the Dedalus tick loop
//! and its cross-tick incremental fixpoint.

use crate::rec::{add_storage_stats, drive, Report, FIXPOINT_COUNTERS};
use crate::RunArgs;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rtx_dedalus::{compile_tm, DedalusOptions, DedalusRuntime, TemporalFacts, Trace};
use rtx_machine::{encode_word, machines};
use std::hint::black_box;
use std::time::Instant;

/// Words per pass, and the shortest word (lengths cycle through nine
/// values from here).
const WORDS: usize = 128;
const MIN_LEN: usize = 6;
/// Tick budget: far above what the longest word needs to converge.
const MAX_TICKS: u64 = 5000;
/// Step budget of the reference interpreter.
const TM_FUEL: usize = 1_000_000;

/// The words of one pass. Word `i` has length `MIN_LEN + i % 9`; even
/// `i` give palindromes, odd `i` near-palindromes whose mirrored pair
/// at depth `(i / 2) % (len / 2)` differs. The seed picks the letters
/// and the order, so every seed gives the same mix of machine work.
fn words(seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<String> = (0..WORDS)
        .map(|i| {
            let len = MIN_LEN + i % 9;
            let mut w: Vec<u8> = (0..len)
                .map(|_| if rng.gen_bool(0.5) { b'a' } else { b'b' })
                .collect();
            for k in 0..len / 2 {
                w[len - 1 - k] = w[k];
            }
            if i % 2 == 1 {
                let depth = (i / 2) % (len / 2);
                w[len - 1 - depth] = if w[depth] == b'a' { b'b' } else { b'a' };
            }
            String::from_utf8(w).expect("ascii")
        })
        .collect();
    out.shuffle(&mut rng);
    out
}

/// The check of one word: the run converged and its acceptance is the
/// reference interpreter's.
fn word_ok(trace: &Trace, accept: bool) -> bool {
    trace.converged() && trace.holds("Accepted") == accept
}

pub fn dedalus_tm(args: &RunArgs) -> Result<Report, String> {
    let machine = machines::palindrome();
    // The runtime borrows the program, so a timed set-up builds both and
    // keeps only a summary.
    let setup = || {
        let program = compile_tm(&machine).map_err(|e| e.to_string())?;
        let ready = DedalusRuntime::new(&program).is_ok();
        Ok((program.rules().len(), ready))
    };
    let program = compile_tm(&machine).map_err(|e| e.to_string())?;
    let runtime = DedalusRuntime::new(&program).map_err(|e| e.to_string())?;

    let words = words(args.seed);
    let alphabet = machine.input_alphabet().iter().copied().collect::<Vec<_>>();
    let inputs: Vec<TemporalFacts> = words
        .iter()
        .map(|w| {
            encode_word(w, alphabet.iter().copied())
                .map(|i| TemporalFacts::all_at_zero(&i))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let accepts: Vec<bool> = words
        .iter()
        .map(|w| {
            machine
                .run(w, TM_FUEL)
                .map(|o| o.accepted())
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let opts = DedalusOptions {
        max_ticks: MAX_TICKS,
        async_max_delay: 1,
        seed: args.seed,
        async_faults: None,
    };

    let mut report = drive(args.start, args.budget, args.traced, setup, |rec| {
        let mut ticks = 0usize;
        let mut last = None;
        for (edb, &accept) in inputs.iter().zip(&accepts) {
            let t0 = Instant::now();
            let trace = rec
                .time("dedalus.run_s", || runtime.run(edb, &opts))
                .map_err(|e| e.to_string())?;
            rec.op(t0.elapsed());
            rec.check(word_ok(&trace, accept));
            if rec.warmup() && last.is_none() {
                rec.self_check(word_ok(&trace, !accept));
            }
            ticks += trace.ticks.len();
            if rec.traced() {
                rec.add("relational.total_facts", trace.last().fact_count() as f64);
            }
            last = Some(trace);
        }
        rec.done();
        if rec.traced() {
            let reg_ticks = rec.registry_diff().counter("dedalus.ticks");
            if reg_ticks != ticks as u64 {
                eprintln!("perfbench: registry dedalus.ticks differs from the traces");
                rec.fail();
            }
            for name in FIXPOINT_COUNTERS {
                let v = rec.registry_diff().counter(name) as f64;
                rec.add(name, v);
            }
            rec.add("dedalus.ticks", ticks as f64);
            let run_s = rec.get("dedalus.run_s");
            rec.add("dedalus.tick_us", run_s * 1e6 / ticks.max(1) as f64);
            if let Some(trace) = &last {
                let db = trace.last();
                add_storage_stats(rec, [db]);
                let t0 = Instant::now();
                let copy = black_box(db.clone());
                rec.add("relational.clone_us", t0.elapsed().as_secs_f64() * 1e6);
                drop(copy);
            }
        }
        Ok(())
    })?;
    if args.traced {
        let compile_s = report.setup_median();
        report.set_layer("dedalus.compile_s", compile_s);
    }
    Ok(report)
}
