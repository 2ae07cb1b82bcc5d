"""Command-line entry point: parse, validate, compute, report.

Each input document is validated once, against its shipped schema by
the ``from_data`` parser of its type, which reports every problem at its
JSON pointer on stderr.  Every invocation emits exactly one report on
stdout, as JSON by default or as an indented table with --pretty.  Exit
codes: 0 success (and, for check-* subcommands, condition satisfied), 3
condition violated, 1 input error (including an invalid document and a
result too long to print), 2 internal invariant failure.  Rationals
appear as exact strings; --float D adds a parallel block with decimal
renderings, never replacing the exact values; a value beyond float range
shows as inf or -inf.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import re
import sys
import warnings
from fractions import Fraction
from typing import Any, Callable, Sequence

from . import __version__
from .blowup import blow_up_vertex, max_chop_parameter, start_tower, tower_step
from .errors import (
    ChartMismatch,
    CuspcheckError,
    FormalExtensionWarning,
    InputValidationError,
    InvariantViolation,
    SingularGram,
)
from .extremal import AffineFunction, extremal_affine
from .indicial import (
    SIGN_CONVENTION,
    IndicialRoot,
    certify_weight,
    indicial_roots,
    roots_in_window,
    spectra_from_data,
)
from .moments import boundary_moments, polytope_moments
from .obstruction import MomentConfiguration, check_facet_condition, check_hypotheses
from .polytope import DelzantPolytope, is_delzant
from .rational import TOO_MANY_DIGITS, format_rational, parse_rational

# The builtin SHA-256 modules load no OpenSSL: importing hashlib loads
# _hashlib, which costs each run ten times as much as _sha256.
try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

_INT_RE = re.compile(r"[+-]?[0-9]+")


class _Rat:
    """Marker for a rational value in a result tree, rendered late."""

    __slots__ = ("value",)

    def __init__(self, value: Fraction) -> None:
        self.value = value


def _render(obj: Any, digits: int | None) -> Any:
    if isinstance(obj, _Rat):
        if digits is None:
            return format_rational(obj.value)
        try:
            value = float(obj.value)
        except OverflowError:
            value = math.inf if obj.value > 0 else -math.inf
        return f"{value:.{digits}g}"
    if isinstance(obj, dict):
        return {k: _render(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_render(v, digits) for v in obj]
    return obj


class _Parser(argparse.ArgumentParser):
    # Usage problems are input errors; exit 2 is reserved for internal
    # invariant failures, so argparse's default exit code must not leak.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_json(path: str) -> tuple[Any, dict[str, str]]:
    if path == "-":
        raw = sys.stdin.buffer.read()
    else:
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError as exc:
            raise InputValidationError([("", f"cannot read {path}: {exc}")]) from exc
    digest = sha256(raw).hexdigest()
    try:
        doc = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputValidationError([("", f"invalid JSON: {exc}")]) from exc
    except ValueError as exc:  # int() of a number literal past the limit
        raise ValueError(TOO_MANY_DIGITS.format(sys.get_int_max_str_digits())) from exc
    return doc, {"path": path, "digest": f"sha256:{digest}"}


def _load_polytope(path: str) -> tuple[DelzantPolytope, dict[str, str]]:
    doc, info = _load_json(path)
    return DelzantPolytope.from_data(doc), info


def _facet_key(text: str) -> int | str:
    return int(text) if _INT_RE.fullmatch(text) else text


def _rat_vector(values: Sequence[Fraction]) -> list[_Rat]:
    return [_Rat(v) for v in values]


def _ser_affine(affine: AffineFunction) -> dict[str, Any]:
    return {
        "constant": _Rat(affine.constant),
        "gradient": _rat_vector(affine.gradient),
    }


def _ser_polytope(poly: DelzantPolytope) -> dict[str, Any]:
    facets = []
    for f in poly.facets:
        entry: dict[str, Any] = {"normal": list(f.normal), "offset": _Rat(f.offset)}
        if f.label is not None:
            entry["label"] = f.label
        facets.append(entry)
    return {"dim": poly.dim, "facets": facets}


def _ser_root(root: IndicialRoot) -> dict[str, Any]:
    return {
        "delta": {"re": root.delta.real, "im": root.delta.imag},
        "s": {"re": root.s_value.real, "im": root.s_value.imag},
        "lambda": root.source.lam,
        "mu": root.source.mu,
        "mult": root.source.multiplicity,
    }


def _cmd_vertices(args: argparse.Namespace):
    poly, info = _load_polytope(args.input)
    report = is_delzant(poly)
    result = {
        "dim": poly.dim,
        "vertices": [
            {"point": _rat_vector(v.point), "active_facets": list(v.active)}
            for v in poly.vertices
        ],
        "is_delzant": report.ok,
        "violations": list(report.violations),
    }
    return result, None, info


def _cmd_moments(args: argparse.Namespace):
    poly, info = _load_polytope(args.input)
    m = polytope_moments(poly)
    bd = boundary_moments(poly)
    facet_entries: list[Any] = []
    for i, (facet, fm) in enumerate(zip(poly.facets, bd.facets)):
        if fm is None:
            raise InvariantViolation(f"facet {i} has no moments with nothing excluded")
        facet_entries.append(
            {
                "index": i,
                "label": facet.label,
                "measure": _Rat(fm.measure),
                "first_moments": _rat_vector(fm.first_moments),
            }
        )
    result = {
        "volume": _Rat(m.volume),
        "first_moments": _rat_vector(m.first_moments),
        "second_moments": [_rat_vector(row) for row in m.second_moments],
        "boundary": {
            "facets": facet_entries,
            "excluded": list(bd.excluded),
            "total_measure": _Rat(bd.measure),
            "total_first_moments": _rat_vector(bd.first_moments),
        },
    }
    return result, None, info


def _cmd_extremal_affine(args: argparse.Namespace):
    poly, info = _load_polytope(args.input)
    report = extremal_affine(poly, [_facet_key(k) for k in args.exclude])
    result = {
        "constant": _Rat(report.affine.constant),
        "gradient": _rat_vector(report.affine.gradient),
        "residuals": _rat_vector(report.residuals),
        "excluded_facets": list(report.excluded),
    }
    return result, None, info


def _cmd_blowup(args: argparse.Namespace):
    poly, info = _load_polytope(args.input)
    vertex = tuple(parse_rational(x.strip()) for x in args.vertex.split(","))
    eps = parse_rational(args.eps.strip())
    bound = max_chop_parameter(poly, vertex)
    chopped = blow_up_vertex(poly, vertex, eps, label=args.label)
    result = {
        "polytope": _ser_polytope(chopped),
        "provenance": {
            "vertex": _rat_vector(vertex),
            "parameter": _Rat(eps),
            "bound": _Rat(bound),
            "new_facet_index": len(chopped.facets) - 1,
            "label": args.label,
        },
    }
    return result, None, info


def _cmd_tower(args: argparse.Namespace):
    poly, info = _load_polytope(args.input)
    if args.rounds < 1:
        raise ValueError("--rounds must be at least 1")
    schedule = [parse_rational(x.strip()) for x in args.eps.split(",")]
    if len(schedule) not in (1, args.rounds):
        raise ValueError(
            f"--eps must give one parameter or one per round; got "
            f"{len(schedule)} for {args.rounds} rounds"
        )
    if len(set(schedule)) > 1:
        warnings.warn(
            "chop parameters vary between rounds; equal parameters are only "
            "required within a round, but a varying schedule is otherwise "
            "uncharted",
            FormalExtensionWarning,
            stacklevel=2,
        )
    state = start_tower(poly, _facet_key(args.facet))
    per_round = []
    # One parameter serves every round; it is repeated, never copied out.
    for eps in itertools.repeat(schedule[0], args.rounds) if len(schedule) == 1 else schedule:
        state = tower_step(state, eps)
        delzant = is_delzant(state.polytope)
        obstruction = check_facet_condition(state.polytope, state.divisor_facet)
        per_round.append(
            {
                "round": state.round,
                "parameter": _Rat(eps),
                "is_delzant": delzant.ok,
                "obstruction": {
                    "satisfied": obstruction.satisfied,
                    "offset": _Rat(obstruction.offset),
                    "difference_gradient": _rat_vector(
                        obstruction.difference_gradient
                    ),
                },
            }
        )
    result = {
        "polytope": _ser_polytope(state.polytope),
        "divisor_facet": state.divisor_facet,
        "rounds": state.round,
        "history": [
            {
                "round": record.round,
                "vertex": _rat_vector(record.vertex),
                "parameter": _Rat(record.parameter),
                "bound": _Rat(record.bound),
                "label": record.label,
            }
            for record in state.history
        ],
        "per_round": per_round,
    }
    return result, None, info


def _cmd_check_obstruction(args: argparse.Namespace):
    poly, info = _load_polytope(args.input)
    report = check_facet_condition(poly, _facet_key(args.facet))
    result = {
        "satisfied": report.satisfied,
        "offset": _Rat(report.offset),
        "difference_gradient": _rat_vector(report.difference_gradient),
        "a_pair": _ser_affine(report.a_pair),
        "a_restricted": _ser_affine(report.a_restricted),
        "a_facet": _ser_affine(report.a_facet),
    }
    return result, report.satisfied, info


def _cmd_check_hypotheses(args: argparse.Namespace):
    doc, info = _load_json(args.input)
    config = MomentConfiguration.from_data(doc)
    report = check_hypotheses(config)
    result = {
        "satisfied": report.satisfied,
        "balance": {
            "satisfied": report.balance.satisfied,
            "combination": _rat_vector(report.balance.combination),
            "projection": _rat_vector(report.balance.projection),
            "residual": _rat_vector(report.balance.residual),
        },
        "genericity": report.genericity,
        "kernel": report.kernel,
    }
    return result, report.satisfied, info


def _cmd_indicial_roots(args: argparse.Namespace):
    doc, info = _load_json(args.pairs)
    pairs, coefficients = spectra_from_data(doc)
    result: dict[str, Any] = {"convention": SIGN_CONVENTION}
    if args.window is not None:
        parts = args.window.split(",")
        if len(parts) != 2:
            raise ValueError("--window expects lo,hi")
        lo, hi = (float(p) for p in parts)
        roots = roots_in_window(pairs, lo, hi, coefficients)
        result["window"] = [lo, hi]
    else:
        all_roots = [r for pair in pairs for r in indicial_roots(pair, coefficients)]
        all_roots.sort(key=lambda r: (r.delta.real, r.delta.imag))
        roots = tuple(all_roots)
    result["roots"] = [_ser_root(r) for r in roots]
    if args.eta is not None:
        certificate = certify_weight(pairs, args.eta, coefficients)
        result["certificate"] = {
            "eta": certificate.eta,
            "certified": certificate.certified,
            "distance": certificate.distance,
            "nearest": _ser_root(certificate.nearest),
        }
    return result, None, info


_COMMANDS: dict[str, Callable[[argparse.Namespace], Any]] = {
    "vertices": _cmd_vertices,
    "moments": _cmd_moments,
    "extremal-affine": _cmd_extremal_affine,
    "blowup": _cmd_blowup,
    "tower": _cmd_tower,
    "check-obstruction": _cmd_check_obstruction,
    "check-hypotheses": _cmd_check_hypotheses,
    "indicial-roots": _cmd_indicial_roots,
}


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="cuspcheck",
        description="Exact toric blow-up checks on Delzant polytopes.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--pretty", action="store_true", help="human-readable table instead of JSON"
    )
    common.add_argument(
        "--float",
        type=int,
        metavar="DIGITS",
        default=None,
        help="add decimal renderings at this precision alongside exact values",
    )
    polytope = argparse.ArgumentParser(add_help=False)
    polytope.add_argument("input", help="polytope JSON file, or - for stdin")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub.add_parser("vertices", parents=[common, polytope], help="enumerate vertices")

    sub.add_parser("moments", parents=[common, polytope], help="volume and boundary moments")

    p = sub.add_parser(
        "extremal-affine", parents=[common, polytope], help="solve for the affine function"
    )
    p.add_argument(
        "--exclude",
        action="append",
        default=[],
        metavar="FACET",
        help="facet label or index to exclude from the boundary (repeatable)",
    )

    p = sub.add_parser("blowup", parents=[common, polytope], help="chop one corner")
    p.add_argument("--vertex", required=True, help="corner as comma-separated rationals")
    p.add_argument("--eps", required=True, help="chop parameter as a rational")
    p.add_argument("--label", default=None, help="label for the new facet")

    p = sub.add_parser("tower", parents=[common, polytope], help="iterate chops round by round")
    p.add_argument("--facet", required=True, help="distinguished facet label or index")
    p.add_argument("--rounds", required=True, type=int, help="number of rounds")
    p.add_argument(
        "--eps", required=True, help="chop parameter, or comma list of one per round"
    )

    p = sub.add_parser(
        "check-obstruction", parents=[common, polytope], help="facet compatibility check"
    )
    p.add_argument("--facet", required=True, help="distinguished facet label or index")

    p = sub.add_parser(
        "check-hypotheses", parents=[common], help="configuration hypothesis checks"
    )
    p.add_argument("input", help="moment-configuration JSON file, or - for stdin")

    p = sub.add_parser(
        "indicial-roots", parents=[common], help="model-operator indicial roots"
    )
    p.add_argument("--pairs", required=True, help="spectra JSON file, or - for stdin")
    p.add_argument("--window", default=None, metavar="LO,HI", help="open window on Re")
    p.add_argument("--eta", default=None, type=float, help="weight to certify")

    return parser


def _color_enabled() -> bool:
    if os.environ.get("CUSPCHECK_COLOR", "") == "0":
        return False
    return sys.stdout.isatty()


def _pretty_text(report: dict[str, Any]) -> str:
    bold = (
        (lambda s: f"\x1b[1m{s}\x1b[0m") if _color_enabled() else (lambda s: s)
    )
    lines: list[str] = []

    def emit(key: str, value: Any, depth: int) -> None:
        pad = "  " * depth
        if isinstance(value, dict):
            lines.append(f"{pad}{bold(key)}:")
            for k, v in value.items():
                emit(k, v, depth + 1)
        elif isinstance(value, list):
            if value and all(isinstance(v, (dict, list)) for v in value):
                lines.append(f"{pad}{bold(key)}:")
                for i, v in enumerate(value):
                    emit(f"[{i}]", v, depth + 1)
            else:
                rendered = ", ".join(json.dumps(v) for v in value)
                lines.append(f"{pad}{bold(key)}: [{rendered}]")
        else:
            lines.append(f"{pad}{bold(key)}: {json.dumps(value)}")

    for key, value in report.items():
        emit(key, value, 0)
    return "\n".join(lines)


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.float is not None and not 1 <= args.float <= 17:
        parser.error("--float takes between 1 and 17 digits")
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result, satisfied, inputs = _COMMANDS[args.command](args)
        try:
            report: dict[str, Any] = {
                "subcommand": args.command,
                "inputs": inputs,
                "result": _render(result, None),
                "diagnostics": [str(w.message) for w in caught],
                "version": __version__,
            }
            if args.float is not None:
                report["result_float"] = _render(result, args.float)
            text = _pretty_text(report) if args.pretty else json.dumps(report, indent=2)
        except ValueError as exc:  # str() of an int past the limit
            raise ValueError(TOO_MANY_DIGITS.format(sys.get_int_max_str_digits())) from exc
    except InputValidationError as exc:
        for pointer, message in exc.errors:
            print(f"error at {pointer or '/'}: {message}", file=sys.stderr)
        return 1
    except (SingularGram, ChartMismatch, InvariantViolation, AssertionError) as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 2
    except (CuspcheckError, ValueError, TypeError, KeyError, IndexError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1
    print(text)
    return 3 if satisfied is False else 0


def main() -> None:
    """Run the command line and end the process with its exit code.

    ``main`` does not return.  Before it exits, it freezes every object
    the run made (``gc.freeze``), so the collections that interpreter
    finalization runs skip them: they would walk all that start-up made
    only to free memory the exit hands back anyway, about a tenth of a
    whole run.  The exit is otherwise the normal one: atexit handlers,
    std-stream flushing and module teardown still run.  ``run`` and every
    library call keep a normal collector.
    """
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left (as with `| head`): point stdout at devnull so that
        # the flush at exit meets no closed pipe, and exit without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
