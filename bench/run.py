"""Benchmark entry point for orbitlang.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seconds S] [--out FILE]

Run from the root of a checkout.  A single workload runs in fresh worker
processes (see worker.py): several set-up probes, whose median is `setup_s`,
then one measured process.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.

`--workload all` runs every workload at its default seed, untraced and then
traced, prints each result with its unit and sample count, and writes a
result file with the environment record and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import per_layer_units
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_PROBES = 2  # extra set-up-only processes; setup_s is the median over these plus the measured one
RUN_TIMEOUT_S = 170  # a run must end within 180 s

# the gated end-to-end metrics; op_p50_ms, op_p90_ms and error_rate are printed
# and written to result files but not gated (see METRICS.md)
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "peak_rss_mb": "MB"}
NOISE_NOTE = (
    "Noise was measured on a shared 2-core machine: identical processes gave "
    "0.81-1.05 s for the t^3+t level-5 pullback."
)


def _worker(deadline: float, workload: str, seed: int, seconds: float, trace: int, *extra: str) -> dict:
    """Run one worker process to completion and return its JSON result;
    subprocess.run kills and reaps it if the deadline passes first."""
    now = time.monotonic()
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace), "--t0", repr(now), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - now))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, spans: str | None = None) -> dict:
    """Set-up probes, then one measured worker; returns the worker's result
    with `setup_s` replaced by the median over every process."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = [_worker(deadline, workload, seed, seconds, 0, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    extra = ("--spans", spans) if spans else ()
    result = _worker(deadline, workload, seed, seconds, trace, *extra)
    setups.append(result["setup_s"])
    result["setup_s"] = statistics.median(setups)
    result["setup_samples"] = len(setups)
    return result


def metrics_of(result: dict, trace: int) -> dict:
    if trace:
        return {k: {"value": result["layers"][k], "unit": u} for k, u in per_layer_units().items()}
    return {k: {"value": result[k], "unit": u} for k, u in END_TO_END_UNITS.items()}


def describe(workload: str, result: dict) -> str:
    """One human-readable line: every end-to-end metric with unit and sample count."""
    n = result["ops"]
    p90 = f"{result['op_p90_ms']:.3f} ms (n={n})" if result["op_p90_ms"] is not None else f"omitted (n={n} < 100)"
    return (
        f"{workload}: setup_s {result['setup_s']:.4f} s (n={result['setup_samples']}), "
        f"ops_per_s {result['ops_per_s']:.4f} ops/s (n={n}, {result['timed_s']:.2f} s timed), "
        f"op_p50_ms {result['op_p50_ms']:.3f} ms (n={n}), op_p90_ms {p90}, "
        f"error_rate {result['error_rate']:.4f} ({result['failed']}/{result['attempted']}), "
        f"peak_rss_mb {result['peak_rss_mb']:.1f} MB (n=1)"
    )


def environment() -> dict:
    import platform
    from importlib.metadata import version

    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "sympy": version("sympy"),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "src_lines": src_lines,
        "noise": NOISE_NOTE,
    }


def _git_commit() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for row in (git / "packed-refs").read_text().splitlines():
            if row.endswith(" " + ref):
                return row.split()[0]
    except OSError:
        pass
    return "unknown"


def run_all(seconds: float, out: str | None) -> int:
    report = {"environment": environment(), "seconds": seconds, "workloads": {}}
    (BENCH / "out").mkdir(exist_ok=True)
    ok = True
    for workload in WORKLOADS:
        plain = measure(workload, DEFAULT_SEED, seconds, 0)
        traced = measure(workload, DEFAULT_SEED, seconds, 1, spans=str(BENCH / "out" / f"spans-{workload}.tsv"))
        print(describe(workload, plain), flush=True)
        overhead = plain["ops_per_s"] / traced["layers"]["trace.ops_per_s"]
        print(f"  traced: {traced['spans']} spans, ops_per_s {traced['layers']['trace.ops_per_s']:.4f} (overhead x{overhead:.2f})")
        for name, value in traced["layers"].items():
            if name.startswith("share."):
                print(f"  {name} {value:.3f}")
        ok = ok and plain["correct"] and traced["correct"]
        report["workloads"][workload] = {
            "seed": DEFAULT_SEED,
            "end_to_end": {
                **metrics_of(plain, 0),
                "op_p50_ms": {"value": plain["op_p50_ms"], "unit": "ms"},
                "op_p90_ms": {"value": plain["op_p90_ms"], "unit": "ms"},
                "error_rate": {"value": plain["error_rate"], "unit": "ratio"},
            },
            "samples": {"ops": plain["ops"], "setup": plain["setup_samples"], "traced_ops": traced["ops"]},
            "tracing_overhead": overhead,
            "per_layer": metrics_of(traced, 1),
            "correct": plain["correct"] and traced["correct"],
            "errors": plain["errors"] + traced["errors"],
        }
    text = json.dumps(report, indent=1, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file for --workload all")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "orbitlang" / "__init__.py").is_file():
        print(f"no orbitlang sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seconds, args.out)
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    if not args.trace:
        print(describe(args.workload, result))
    for error in result["errors"]:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps({"environment": environment()}))
    final = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics_of(result, args.trace),
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
