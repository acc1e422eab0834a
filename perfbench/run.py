#!/usr/bin/env python3
"""Run one workload of the rtx benchmark and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The script builds the `perfbench`
package (release profile, honouring CARGO_TARGET_DIR), then starts the
workload in a process of its own with every RTX_* knob unset, so the
library runs at its defaults:

* --trace 0 runs the untraced pass and reports the end-to-end metrics
  listed in BENCHMARK.json.
* --trace 1 runs the untraced pass and then a traced pass (RTX_TRACE=
  counters, layer calls timed from the benchmark side), each in its own
  process and each for half the seconds, and reports the per-layer
  metrics, including the tracing overhead between the two passes. It
  also prints a per-layer self-time table.

Every op's result is checked against a reference computed by the
benchmark. Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The script exits non-zero, without that line, when the build or
a workload process fails.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["flood-dense", "flood-sparse", "tc-ring", "magic-rebind", "dedalus-tm"]
# Leaves the workload process time to finish its last pass within the
# 180 s a run may take.
CHILD_TIMEOUT_S = 170

# Layer time spans and the spans nested in them, for the self-time
# table: a span's self time is its time minus its children's.
SPANS = [
    ("wall_s", None),
    ("net.init_s", "wall_s"),
    ("net.run_s", "wall_s"),
    ("query.eval_s", "net.run_s"),
    ("query.rebind_s", "wall_s"),
    ("query.apply_s", "wall_s"),
    ("query.answer_s", "wall_s"),
    ("dedalus.run_s", "wall_s"),
]
SPAN_LABELS = {
    "wall_s": "pass, outside the layer calls (checks, loop)",
    "net.init_s": "rtx_net initial configuration",
    "net.run_s": "rtx_net run: net + transducer + storage",
    "query.eval_s": "rtx_query eval of transducer queries",
    "query.rebind_s": "rtx_query magic rebind",
    "query.apply_s": "rtx_query fixpoint apply (DRed)",
    "query.answer_s": "rtx_query answer_from",
    "dedalus.run_s": "rtx_dedalus tick loop",
}


class BenchError(Exception):
    pass


def build():
    """Build the benchmark and return the path of its executable."""
    cmd = [
        "cargo", "build", "--release", "--quiet", "--offline",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format=json-render-diagnostics",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError(f"cargo build failed with exit code {proc.returncode}")
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg["target"]["name"] == "perfbench":
            exe = msg.get("executable") or exe
    if not exe or not os.path.isfile(exe):
        raise BenchError("cargo build produced no perfbench executable")
    return exe


def child_env(traced):
    env = {k: v for k, v in os.environ.items() if not k.startswith("RTX_")}
    if traced:
        env["RTX_TRACE"] = "counters"
    return env


def run_workload(exe, workload, seed, seconds, traced):
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds)]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(
            cmd, env=child_env(traced), stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} printed no report")
    report = json.loads(lines[-1])
    if report["self_checks"] < 1 or report["self_check_failed"] != report["self_checks"]:
        raise BenchError(
            f"{workload}: a checker accepted a deliberately wrong reference "
            f"(fail_frac {report['self_check_failed']}/{report['self_checks']}, want 1)"
        )
    return report


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def source_id():
    """The commit, or a digest of the sources when there is no git."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "src", "perfbench"]:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else []
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "__pycache__"))
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def end_to_end(report):
    ops = report["op_s"]
    return {
        "wall_s": statistics.median(report["pass_s"]),
        "setup_s": statistics.median(report["setup_s"]),
        "peak_rss_mb": report["vm_hwm_kib"] / 1024.0,
        "op_p50_ms": statistics.median(ops) * 1e3,
        "op_p90_ms": percentile(ops, 90) * 1e3,
    }


def self_time_table(workload, per_pass):
    """Print each span's median time and median self time over the passes."""
    rows = []
    for span, _ in SPANS:
        if span not in per_pass:
            continue
        children = [per_pass[s] for s, p in SPANS if p == span and s in per_pass]
        own = [t - sum(c[i] for c in children) for i, t in enumerate(per_pass[span])]
        rows.append((SPAN_LABELS[span], span, statistics.median(per_pass[span]),
                     statistics.median(own)))
    wall = statistics.median(per_pass["wall_s"])
    print(f"# self time per layer, {workload}, traced pass (median pass {wall:.4f} s)")
    print(f"#   {'layer':46} {'span':15} {'total s':>10} {'self s':>10} {'self %':>7}")
    for label, span, total, own in rows:
        share = 100.0 * own / wall if wall > 0 else 0.0
        print(f"#   {label:46} {span:15} {total:10.4f} {own:10.4f} {share:6.1f}%")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        raise BenchError("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    exe = build()

    plain_seconds = args.seconds if args.trace == 0 else args.seconds / 2
    plain = run_workload(exe, args.workload, args.seed, plain_seconds, traced=False)
    reports = [plain]
    values = end_to_end(plain)
    if args.trace == 1:
        traced = run_workload(exe, args.workload, args.seed, args.seconds / 2, traced=True)
        reports.append(traced)
        layers = {k: statistics.median(v) for k, v in traced["layers"].items()}
        layers["obs.overhead_frac"] = layers["wall_s"] / values["wall_s"] - 1.0
        wanted = spec["per_layer"]
    else:
        layers = {}
        wanted = spec["end_to_end"]

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print("# env " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "commit": source_id(),
        "defaults": plain["defaults"],
    }, sort_keys=True))
    print(f"# {args.workload}: {len(plain['pass_s'])} timed passes, "
          f"{len(plain['op_s'])} op samples, {len(plain['setup_s'])} set-ups, "
          f"fail_frac {failed}/{attempted} = {failed / attempted:.4f}")
    if args.trace == 1:
        self_time_table(args.workload, traced["layers"])

    metrics = {}
    for m in wanted:
        name = m["name"]
        v = values[name] if args.trace == 0 else layers.get(name, 0.0)
        metrics[name] = {"value": v, "unit": m["unit"]}
        print(f"#   {name:28} {v:16.6f} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
