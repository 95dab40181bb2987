"""One benchmark process: set up, warm up, run closed-loop operations, check them.

run.py starts it as a process (and imports only its metric table).  It
imports orbitlang from the checkout's src/, builds the workload's inputs
from the seed, runs one untimed warm-up operation and prints its set-up
time.  Unless --setup-only is given, it then runs whole passes over the
operations, one at a time, until the timed part is nearest to --seconds,
checks every answer outside the timed region and prints one JSON object
with the raw results.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# per-layer metrics of the traced run, all per timed operation unless noted
SPAN_CALLS = (
    "scan.OrbitScanner.scan",
    "scan.is_hit",
    "dynsys.orbit_status",
    "analytic.orbit_interpolate",
    "analytic.certify_vanishing",
    "polynomials.mul",
    "polynomials.evaluate",
    "padics.primes_upto",
    "reduction.residue_orbit",
    "engine.decide",
    "parsing.parse_expression",
)
SPAN_SELF = (
    "scan.OrbitScanner.scan",
    "scan.OrbitScanner.init",
    "scan.substituted_generator",
    "dynsys.orbit_status",
    "analytic.orbit_interpolate",
    "analytic.certify_vanishing",
    "polynomials.mul",
    "polynomials.evaluate",
    "polynomials.substitute",
    "intersection.diagonal_pullback",
    "intersection.layer",
    "intersection.bivariate_squarefree",
    "intersection.ramification_bound",
    "primesearch.jones_density_estimate",
    "primesearch.find_prime",
    "padics.primes_upto",
    "reduction.residue_orbit",
    "engine.decide",
    "cli.run",
    "parsing.parse_expression",
    "parsing.parse_point",
)
COUNTERS = (
    "scan.exact_point.exact",
    "scan.exact_point.horizon",
    "analytic.mahler_samples",
    "analytic.verdict.identically_zero",
    "analytic.verdict.nonzero_witness",
    "polynomials.mul.term_pairs",
    "primesearch.density_primes",
    "primesearch.find_prime.primes_tried",
    "engine.classes",
    "engine.stamp.certified",
    "engine.stamp.scan_only",
    "engine.stamp.inconclusive",
)
MAXIMA = ("intersection.chain_terms_max", "engine.class_modulus_max")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    from spans import LAYERS

    units = {f"{n}.calls": "calls/op" for n in SPAN_CALLS}
    units.update({f"{n}.self_s": "s/op" for n in SPAN_SELF})
    units.update({n: "count/op" for n in COUNTERS})
    units.update({n: "count" for n in MAXIMA})
    units.update({f"layer.{layer}.self_s": "s/op" for layer in LAYERS})
    units["padics.primes_upto.setup_s"] = "s"
    units.update({f"share.{n}": "ratio" for n in ("scan_in_decide", "interpolate_in_decide", "pullback_in_op", "jones_in_op")})
    units["trace.ops_per_s"] = "ops/s"
    return units


def _load_library():
    sys.path.insert(0, str(SRC))
    import orbitlang
    from orbitlang import cli, primesearch
    from orbitlang.dynsys import RationalMap
    from orbitlang.engine import brute_force_scan
    from orbitlang.parsing import parse_expression
    from orbitlang.varieties import AffineVariety

    if Path(orbitlang.__file__).resolve().parent != SRC / "orbitlang":
        raise SystemExit(f"imported orbitlang from {orbitlang.__file__}, not from {SRC}")
    return SimpleNamespace(
        cli=cli,
        primesearch=primesearch,
        RationalMap=RationalMap,
        brute_force_scan=brute_force_scan,
        parse_expression=parse_expression,
        AffineVariety=AffineVariety,
    )


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _layer_metrics(rec, first: int, n_ops: int, op_seconds: float) -> dict[str, float]:
    """Per-layer metrics over the timed spans (from `first` on); spans before
    `first` are the set-up phase."""
    from spans import LAYERS

    self_s = rec.self_times(first)
    calls: dict[str, int] = {}
    for i in range(first, len(rec.span_name)):
        name = rec.names[rec.span_name[i]]
        calls[name] = calls.get(name, 0) + 1
    out = {f"{n}.calls": calls.get(n, 0) / n_ops for n in SPAN_CALLS}
    out.update({f"{n}.self_s": self_s.get(n, 0.0) / n_ops for n in SPAN_SELF})
    out.update({n: rec.counts[n] / n_ops for n in COUNTERS})
    out.update({n: rec.maxima.get(n, 0) for n in MAXIMA})
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer) / n_ops
    out["padics.primes_upto.setup_s"] = rec.self_times(0, first).get("padics.primes_upto", 0.0)

    def share(inner, outer=None):
        inside, total = rec.covered(inner, outer, first)
        total = op_seconds if outer is None else total
        return inside / total if total else 0.0

    out["share.scan_in_decide"] = share(lambda n: n.startswith("scan."), "engine.decide")
    out["share.interpolate_in_decide"] = share(lambda n: n == "analytic.orbit_interpolate", "engine.decide")
    out["share.pullback_in_op"] = share(lambda n: n == "intersection.diagonal_pullback")
    out["share.jones_in_op"] = share(lambda n: n == "primesearch.jones_density_estimate")
    out["trace.ops_per_s"] = n_ops / op_seconds
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the traced run's spans to this file")
    parser.add_argument("--scan-limit", type=int, help="decide-scan --nmax (smoke tests only)")
    args = parser.parse_args(argv)

    lib = _load_library()
    kwargs = {"scan_limit": args.scan_limit} if args.scan_limit else {}
    ops = workloads.WORKLOADS[args.workload](args.seed, **kwargs)
    expected = None
    if args.seed == workloads.DEFAULT_SEED and not kwargs:
        expected = workloads.load_expected()
    rec = None
    if args.trace:
        import spans

        rec = spans.install()
        rec.enabled = True
    workloads.execute(args.workload, ops[0], lib)  # warm-up: fills caches such as primes_upto's
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    errors: list[str] = []
    if rec:
        rec.enabled = False
    refs = []
    for i, op in enumerate(ops):
        try:
            refs.append(workloads.reference(args.workload, op, lib, expected, i))
        except Exception as exc:  # a wrong reference makes the whole run incorrect
            refs.append(None)
            errors.append(f"reference {op.label}: {type(exc).__name__}: {exc}")
    reference_ok = not errors

    first = rec.new_phase() if rec else 0
    latencies: list[float] = []
    attempted = failed = passes = 0
    timed = 0.0
    # whole passes keep the operation mix fixed; stop at the pass boundary
    # nearest to --seconds
    while not passes or timed + timed / passes / 2 < args.seconds:
        passes += 1
        for i, op in enumerate(ops):
            attempted += 1
            if rec:
                rec.enabled = True
            t0 = time.perf_counter()
            try:
                answer = workloads.execute(args.workload, op, lib)
            except Exception as exc:
                answer = exc
            elapsed = time.perf_counter() - t0
            if rec:
                rec.enabled = False
            timed += elapsed
            latencies.append(elapsed)
            try:
                if isinstance(answer, Exception):
                    raise answer
                workloads.check(args.workload, op, answer, refs[i], expected, i)
            except Exception as exc:
                failed += 1
                if len(errors) < 10:
                    errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    n = len(latencies)
    result = {
        "correct": reference_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "ops": n,
        "timed_s": timed,
        "setup_s": setup_s,
        "ops_per_s": n / timed,
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_p90_ms": _percentile(latencies, 0.9) * 1000 if n >= 100 else None,
        "error_rate": failed / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    if rec:
        result["layers"] = _layer_metrics(rec, first, n, timed)
        result["spans"] = rec.mark() - first
        if args.spans:
            rec.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
