"""Batch command-line front end.

Subcommands: orbit, reduce, classify, find-prime, divisors, ms-curves,
strassmann, decide.  Every run emits a Report (echoed canonical inputs,
parameters, result payload, timing, version); --json switches to one
JSON object per line with sorted keys, deterministic except for the
timing field.

Exit codes: 0 definitive answer, 1 inconclusive or not-found, 2 usage or
hypothesis errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import is_dataclass
from fractions import Fraction

from . import __version__
from .analytic import TruncatedPadicSeries, strassmann_count
from .classify import (
    decompose,
    normal_form,
    periodic_curve_candidates,
    power_or_chebyshev_class,
    verify_invariant_curve,
)
from .dynsys import (
    PPoint,
    RationalMap,
    classify_cycle,
    exceptional_structure,
)
from .engine import (
    DEFAULT_ORDER,
    DEFAULT_PRIME_BOUND,
    DEFAULT_SCAN_LIMIT,
    EngineOptions,
    Inconclusive,
    IntersectionDescription,
    decide,
    decide_curve_pair,
)
from .errors import BadReduction, ExpressionSyntaxError, InvalidOption, OrbitlangError
from .intersection import diagonal_pullback, layer, ramification_bound
from .padics import DEFAULT_PRECISION, is_prime
from .parsing import format_map, parse_expression, parse_point
from .polynomials import format_polynomial
from .primesearch import NotFound, find_good_prime
from .reduction import reduce_map, reduce_point, residue_orbit
from .scan import EXACT_BITS_CAP
from .varieties import PlaneCurve

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_USAGE = 2

ENV_PRECISION = "ORBITLANG_PRECISION"


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return "inf" if math.isinf(obj) else obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, PPoint):
        return "inf" if obj.is_infinity else str(obj.as_fraction())
    if isinstance(obj, RationalMap):
        return format_map(obj)
    if isinstance(obj, PlaneCurve):
        return format_polynomial(obj.poly)
    if is_dataclass(obj) and not isinstance(obj, type):
        data = {"type": type(obj).__name__}
        for f in dataclasses.fields(obj):
            data[f.name] = _jsonable(getattr(obj, f.name))
        return data
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in obj]
    from .polynomials import Polynomial

    if isinstance(obj, Polynomial):
        return format_polynomial(obj)
    return repr(obj)


def _report(command: str, inputs: dict, parameters: dict, result, started: float) -> dict:
    return {
        "schema": 1,
        "version": __version__,
        "command": command,
        "inputs": _jsonable(inputs),
        "parameters": _jsonable(parameters),
        "result": _jsonable(result),
        "timing": {"seconds": round(time.monotonic() - started, 6)},
    }


def _emit(report: dict, as_json: bool, stream=None):
    stream = stream or sys.stdout
    if as_json:
        stream.write(json.dumps(report, sort_keys=True) + "\n")
        stream.flush()
        return
    stream.write(f"== {report['command']} (v{report['version']})\n")
    for section in ("inputs", "parameters"):
        if report[section]:
            stream.write(f"{section}:\n")
            for key, value in report[section].items():
                stream.write(f"  {key} = {value}\n")
    stream.write("result:\n")
    stream.write(_format_block(report["result"], indent="  "))
    stream.write(f"elapsed: {report['timing']['seconds']}s\n")
    stream.flush()


def _format_block(value, indent="") -> str:
    if isinstance(value, dict):
        lines = []
        for key in value:
            sub = value[key]
            if isinstance(sub, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.append(_format_block(sub, indent + "  "))
            else:
                lines.append(f"{indent}{key} = {sub}")
        return "\n".join(lines) + ("\n" if lines else "")
    if isinstance(value, list):
        out = []
        for item in value:
            if isinstance(item, (dict, list)):
                out.append(_format_block(item, indent + "  "))
            else:
                out.append(f"{indent}- {item}")
        return "\n".join(out) + ("\n" if out else "")
    return f"{indent}{value}\n"


def _parse_map(text: str) -> RationalMap:
    parsed = parse_expression(text)
    if parsed.kind != "map":
        raise ExpressionSyntaxError("expected a map in the variable t", 0)
    return parsed.value


def _parse_variety_generator(text: str):
    parsed = parse_expression(text)
    if parsed.kind == "curve":
        return parsed.value.poly
    if parsed.kind == "variety":
        return parsed.value
    if parsed.kind == "scalar" and parsed.value == 0:
        return None
    raise ExpressionSyntaxError("expected a polynomial in the plane/space variables", 0)


def _at_least(flag: str, value: int, least: int):
    if value < least:
        raise InvalidOption(f"{flag} must be at least {least}, got {value}")


def _default_precision() -> int:
    env = os.environ.get(ENV_PRECISION)
    if env:
        try:
            value = int(env)
            if value >= 1:
                return value
        except ValueError:
            pass
    return DEFAULT_PRECISION


# ---------------------------------------------------------------------------
# subcommand handlers (each returns (result, exit_code))


def _cmd_orbit(args):
    phi = _parse_map(args.map)
    points = parse_point(args.point)
    if len(points) != 1:
        raise ExpressionSyntaxError("orbit takes a single coordinate", 0)
    _at_least("--steps", args.steps, 0)
    # values up to the exact cap are printed in full (log10(2) < 1/3)
    digits = EXACT_BITS_CAP // 3 + 1
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < digits:
        sys.set_int_max_str_digits(digits)
    values = []
    result, code = {"orbit": values}, EXIT_OK
    pt = PPoint.of(points[0])
    for n in range(args.steps + 1):
        if pt.height_bits() > EXACT_BITS_CAP:
            result["stopped_at"], code = n, EXIT_INCONCLUSIVE
            break
        values.append({"n": n, "value": pt})
        if n < args.steps:
            pt = phi.apply(pt)
    if args.place is not None:
        record = classify_cycle(phi, points[0], args.place if args.place != 0 else "archimedean")
        result["cycle"] = record
    return result, code


def _cmd_reduce(args):
    phi = _parse_map(args.map)
    p = args.prime
    if not is_prime(p):
        raise ExpressionSyntaxError("--prime must be prime", 0)
    try:
        rm = reduce_map(phi, p)
    except BadReduction:
        rm = None
    result = {"prime": p, "good_reduction": rm is not None}
    if rm is not None:
        result["reduced"] = {"coeffs_f": list(rm.coeffs_f), "coeffs_g": list(rm.coeffs_g), "degree": rm.degree}
        if args.point is not None:
            x = parse_point(args.point)[0]
            r = reduce_point(Fraction(x), p)
            orb = residue_orbit(rm, r)
            result["point"] = {"residue": "inf" if r is None else r, "orbit": orb}
    return result, EXIT_OK if rm is not None else EXIT_INCONCLUSIVE


def _cmd_classify(args):
    phi = _parse_map(args.map)
    result = {"exceptional": exceptional_structure(phi)}
    if phi.is_polynomial and phi.degree >= 2:
        try:
            record = normal_form(phi)
            result["normal_form"] = {
                "polynomial": record.normal,
                "conjugator": {"scale": record.scale, "shift": record.shift},
                "type": list(record.type_pair),
            }
            result["power_or_chebyshev"] = power_or_chebyshev_class(phi)
            result["decomposition"] = decompose(phi)
        except OrbitlangError as exc:
            result["normal_form"] = {"error": str(exc)}
    if args.point is not None:
        x = parse_point(args.point)[0]
        place = args.place if args.place else "archimedean"
        result["cycle"] = classify_cycle(phi, x, place)
    return result, EXIT_OK


def _require_maps(args, points):
    """The maps of --map/--maps: one, used for every point, or one per point."""
    if not args.maps and not args.map:
        raise ExpressionSyntaxError("--map or --maps is required", 0)
    maps = [_parse_map(m) for m in args.maps.split(";")] if args.maps else [_parse_map(args.map)]
    if len(maps) not in (1, len(points)):
        raise ExpressionSyntaxError(f"{len(maps)} maps for {len(points)} points: give one map or one per point", 0)
    return maps


def _cmd_find_prime(args):
    points = parse_point(args.points)
    maps = _require_maps(args, points)
    cert = find_good_prime(maps, points, args.pmax, args.mode)
    code = EXIT_INCONCLUSIVE if isinstance(cert, NotFound) else EXIT_OK
    return cert, code


def _cmd_divisors(args):
    phi = _parse_map(args.map)
    _at_least("--level", args.level, 0)
    pullback = diagonal_pullback(phi, args.level, cap=max(args.level, 6))
    layers = []
    for n in range(args.level + 1):
        Y, squarefree = layer(phi, n, cap=max(args.level, 6))
        layers.append(
            {
                "level": n,
                "degree_x": pullback.chain[n].degree("x"),
                "degree_y": pullback.chain[n].degree("y"),
                "layer": format_polynomial(Y) if Y.total_degree() <= 8 else f"degree {Y.total_degree()}",
                "squarefree": squarefree,
            }
        )
    result = {"levels": layers}
    try:
        result["ramification_bound"] = ramification_bound(phi)
    except OrbitlangError as exc:
        result["ramification_bound"] = {"error": str(exc)}
    return result, EXIT_OK


def _cmd_ms_curves(args):
    phi = _parse_map(args.map)
    _at_least("--rmax", args.rmax, 0)
    _at_least("--kmax", args.kmax, 0)
    candidates = periodic_curve_candidates(phi, args.rmax)
    rows = []
    for cand in candidates:
        verdict = verify_invariant_curve(cand.curve, phi, args.kmax)
        rows.append({"form": cand.form, "parameters": cand.parameters, "curve": cand.curve, "verification": verdict})
    return {"candidates": rows}, EXIT_OK


def _cmd_strassmann(args):
    p = args.prime
    _at_least("--precision", args.precision, 1)
    coeffs = [Fraction(parse_expression(c.strip()).value) for c in args.coeffs.split(",")]
    tail = math.inf if args.tail is None else args.tail
    series = TruncatedPadicSeries.from_rationals(coeffs, p, args.precision, tail)
    count = strassmann_count(series)
    return {"prime": p, "zeros_in_unit_disk": count}, EXIT_OK


def _cmd_decide(args):
    points = parse_point(args.point)
    maps = _require_maps(args, points)
    gens = []
    if args.variety:
        sources = args.variety
    else:
        sources = [line.strip() for line in sys.stdin if line.strip()]
    for src in sources:
        g = _parse_variety_generator(src)
        if g is not None:
            gens.append(g)
    options = EngineOptions(
        prime_bound=args.pmax,
        scan_limit=args.nmax,
        order=args.order,
        precision=args.precision,
    )
    pair_mode = args.mode == "curve-pair" or (
        args.mode == "auto"
        and len(maps) == 1
        and len(points) == 2
        and not (maps[0].is_polynomial and maps[0].degree == 2)
    )
    if pair_mode:
        if len(points) != 2 or len(gens) != 1:
            raise ExpressionSyntaxError("curve-pair mode needs two coordinates and one curve", 0)
        description = decide_curve_pair(maps[0], points, gens[0], options)
    else:
        description = decide(maps, points, gens, options)
    code = EXIT_INCONCLUSIVE if isinstance(description.certification, Inconclusive) else EXIT_OK
    trimmed = IntersectionDescription(
        description.progressions,
        description.exceptional,
        description.certification,
        description.witnesses if args.witnesses else {},
    )
    return trimmed, code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orbitlang", description=__doc__)
    parser.add_argument("--json", action="store_true", help="emit JSON lines")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, precision=False):
        # accept --json after the subcommand too; SUPPRESS keeps the
        # top-level value when the flag is absent here
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
        if precision:
            p.add_argument("--precision", type=int, default=_default_precision())
        return p

    orbit = common(sub.add_parser("orbit", help="exact forward orbit"))
    orbit.add_argument("--map", required=True)
    orbit.add_argument("--point", required=True)
    orbit.add_argument("--steps", type=int, default=8)
    orbit.add_argument("--place", type=int, default=None, help="prime place for cycle classification (0 = archimedean)")

    reduce_p = common(sub.add_parser("reduce", help="reduction mod p and residue orbits"))
    reduce_p.add_argument("--map", required=True)
    reduce_p.add_argument("--prime", type=int, required=True)
    reduce_p.add_argument("--point")

    classify_p = common(sub.add_parser("classify", help="exceptional locus, normal form, decomposition"))
    classify_p.add_argument("--map", required=True)
    classify_p.add_argument("--point")
    classify_p.add_argument("--place", type=int, default=0)

    find_prime = common(sub.add_parser("find-prime", help="search for a certified prime"))
    find_prime.add_argument("--map")
    find_prime.add_argument("--maps", help="semicolon-separated list for the multi-map mode")
    find_prime.add_argument("--points", required=True)
    find_prime.add_argument("--pmax", type=int, default=DEFAULT_PRIME_BOUND)
    find_prime.add_argument("--mode", choices=["auto", "quadratic", "qr", "multi"], default="auto")

    divisors = common(sub.add_parser("divisors", help="diagonal pullback layers"))
    divisors.add_argument("--map", required=True)
    divisors.add_argument("--level", type=int, default=3)

    ms = common(sub.add_parser("ms-curves", help="candidate periodic plane curves"))
    ms.add_argument("--map", required=True)
    ms.add_argument("--rmax", type=int, default=1)
    ms.add_argument("--kmax", type=int, default=6)

    strass = common(sub.add_parser("strassmann", help="unit-disk zero count"), precision=True)
    strass.add_argument("--prime", type=int, required=True)
    strass.add_argument("--coeffs", required=True, help="comma-separated rational coefficients a0,a1,...")
    strass.add_argument("--tail", type=int, default=None, help="lower bound on tail valuations (omit for polynomial)")

    decide_p = common(sub.add_parser("decide", help="orbit/variety intersection description"), precision=True)
    decide_p.add_argument("--map")
    decide_p.add_argument("--maps", help="semicolon-separated quadratic maps, one per coordinate")
    decide_p.add_argument("--point", required=True)
    decide_p.add_argument("--variety", action="append", help="repeatable; stdin supplies one per line when omitted")
    decide_p.add_argument("--pmax", type=int, default=DEFAULT_PRIME_BOUND)
    decide_p.add_argument("--nmax", type=int, default=DEFAULT_SCAN_LIMIT, help="exact scan limit")
    decide_p.add_argument("--order", type=int, default=DEFAULT_ORDER, help="Mahler truncation order")
    decide_p.add_argument("--mode", choices=["auto", "coordinatewise", "curve-pair"], default="auto")
    decide_p.add_argument("--witnesses", action="store_true", help="include witnesses in the report")
    return parser


_HANDLERS = {
    "orbit": _cmd_orbit,
    "reduce": _cmd_reduce,
    "classify": _cmd_classify,
    "find-prime": _cmd_find_prime,
    "divisors": _cmd_divisors,
    "ms-curves": _cmd_ms_curves,
    "strassmann": _cmd_strassmann,
    "decide": _cmd_decide,
}


def run(argv=None, stream=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    started = time.monotonic()
    inputs = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "json") and value is not None
    }
    try:
        result, code = _HANDLERS[args.command](args)
    except OrbitlangError as exc:
        report = _report(args.command, inputs, {}, {"error": type(exc).__name__, "code": exc.code, "message": str(exc)}, started)
        _emit(report, args.json, stream)
        return EXIT_USAGE
    parameters = {}
    if hasattr(args, "precision"):
        parameters["precision"] = args.precision
    if hasattr(args, "order"):
        parameters["order"] = args.order
    report = _report(args.command, inputs, parameters, result, started)
    _emit(report, args.json, stream)
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
