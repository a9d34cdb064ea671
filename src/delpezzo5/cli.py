"""Command-line interface.

Every library capability is scriptable: ideal calculators (gb, hp,
quotient, saturate, eliminate, compare, tangent), the fixed-curve
censuses (fixed, residual), and the verification suites (suite).  Ideal
arguments are files in the ring/weights/gens text format; outputs are
either that format or a JSON rendering of the same data.
"""
from __future__ import annotations

import argparse
import json
import sys
import warnings
from fractions import Fraction
from functools import partial

from . import dp5, verify
from .hilbert import hilbert_polynomial
from .homspaces import tangent_dimension
from .ideals import Ideal
from .polyring import (GREVLEX, LEX, MonomialOrder, format_ideal_text,
                       format_polynomial, parse_ideal_text)


def _order(name: str) -> MonomialOrder:
    return LEX if name == "lex" else GREVLEX


def _read_ideal(path: str) -> Ideal:
    with open(path, encoding="utf-8") as fh:
        context, gens = parse_ideal_text(fh.read())
    return Ideal(context, gens)


def _plain(value):
    """Coerce detail values into JSON-safe primitives."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (tuple, list, set, frozenset)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return str(value)


def _ideal_payload(ideal: Ideal, order: MonomialOrder) -> dict:
    ctx = ideal.context
    gens = list(ideal.groebner(order).elements)
    return {
        "ring": list(ctx.variables),
        "weights": list(ctx.weights) if ctx.weights is not None else None,
        "gens": [format_polynomial(g, order) for g in gens],
    }


def _noting_warnings(compute) -> tuple[Ideal, tuple[str, ...]]:
    """Run ``compute()``; the library's warnings become output notes."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = compute()
    return result, tuple(str(w.message) for w in caught)


def _print_ideal(ideal: Ideal, args, notes: tuple[str, ...] = ()) -> None:
    order = _order(args.order)
    if args.format == "json":
        payload = _ideal_payload(ideal, order)
        if notes:
            payload["notes"] = list(notes)
        print(json.dumps(payload, indent=2))
        return
    for note in notes:
        print(f"# {note}")
    gens = list(ideal.groebner(order).elements)
    sys.stdout.write(format_ideal_text(ideal.context, gens, order))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_suite(args) -> int:
    report = verify.run_suite(args.name, check_degree=args.check_degree)
    text = verify.emit_json(report) if args.format == "json" \
        else verify.emit_text(report)
    sys.stdout.write(text)
    return 0 if report.status == "pass" else 1


def _cmd_gb(args) -> int:
    _print_ideal(_read_ideal(args.file), args)
    return 0


def _cmd_hp(args) -> int:
    ideal = _read_ideal(args.file)
    hp = hilbert_polynomial(ideal, _order(args.order))
    curve = None
    if hp.degree == 1:
        curve = hp.curve_invariants()
    if args.format == "json":
        payload = {"polynomial": str(hp),
                   "coefficients": [str(c) for c in hp.coeffs],
                   "curve": None if curve is None
                   else {"degree": curve[0], "genus": curve[1]}}
        print(json.dumps(payload, indent=2))
        return 0
    print(hp)
    if curve is not None:
        print(f"(degree, genus) = {curve}")
    return 0


def _cmd_quotient(args) -> int:
    numerator = _read_ideal(args.file)
    divisor = _read_ideal(args.divisor)
    if numerator.context != divisor.context:
        raise ValueError("the two ideals live in different rings")
    result, notes = _noting_warnings(partial(numerator.quotient, divisor))
    _print_ideal(result, args, notes)
    return 0


def _cmd_saturate(args) -> int:
    ideal = _read_ideal(args.file)
    if args.by is None:
        compute = ideal.saturate_irrelevant
        note = "saturated by the irrelevant maximal ideal"
    else:
        other = _read_ideal(args.by)
        if ideal.context != other.context:
            raise ValueError("the two ideals live in different rings")
        compute = partial(ideal.saturate, other)
        note = "saturated by the second ideal"
    result, warned = _noting_warnings(compute)
    _print_ideal(result, args, notes=(note,) + warned)
    return 0


def _cmd_eliminate(args) -> int:
    ideal = _read_ideal(args.file)
    names = [v.strip() for v in args.vars.split(",") if v.strip()]
    if not names:
        raise ValueError("--vars needs at least one variable name")
    unknown = [n for n in names if n not in ideal.context.variables]
    if unknown:
        raise ValueError(f"unknown variable {unknown[0]!r} in --vars")
    _print_ideal(ideal.eliminate(names), args)
    return 0


def _cmd_compare(args) -> int:
    left = _read_ideal(args.file)
    right = _read_ideal(args.other)
    if left.context != right.context:
        relation = "incomparable"
        note = "the two ideals live in different rings"
    else:
        relation = left.compare(right)
        note = None
    if args.format == "json":
        print(json.dumps({"relation": relation, "note": note}, indent=2))
    else:
        print(relation if note is None else f"{relation}  # {note}")
    return 0 if relation == "equal" else 1


def _cmd_tangent(args) -> int:
    ideal = _read_ideal(args.file)
    ambient = tangent_dimension(ideal)
    relative = None
    if args.within is not None:
        within = _read_ideal(args.within)
        if within.context != ideal.context:
            raise ValueError("the ambient ideal lives in a different ring")
        relative = tangent_dimension(ideal, within=within)
    if args.format == "json":
        print(json.dumps({"ambient": ambient, "relative": relative}, indent=2))
        return 0
    print(f"ambient: {ambient}")
    if relative is not None:
        print(f"relative: {relative}")
    return 0


def _cmd_fixed(args) -> int:
    model = dp5.build_model()
    records = dp5.fixed_curves(model, args.degree)
    order = _order(args.order)
    if args.format == "json":
        ctx = model.orbit
        payload = {
            "degree": args.degree,
            "ring": list(ctx.variables),
            "weights": list(ctx.weights),
            "curves": [{
                "label": r.label,
                "details": _plain(r.details),
                "gens": [format_polynomial(g, order)
                         for g in r.ideal.groebner(order).elements],
            } for r in records],
        }
        print(json.dumps(payload, indent=2))
        return 0
    for k, r in enumerate(records):
        if k:
            print()
        detail = ", ".join(f"{key}={_plain(value)}"
                           for key, value in r.details.items())
        print(f"# {r.label}: {detail}" if detail else f"# {r.label}")
        gens = list(r.ideal.groebner(order).elements)
        sys.stdout.write(format_ideal_text(r.ideal.context, gens, order))
    return 0


def _cmd_residual(args) -> int:
    model = dp5.build_model()
    try:
        i, j = (int(part) for part in args.pick.split(","))
    except ValueError:
        raise ValueError("--pick expects two comma-separated indices, like 0,3")
    record = dp5.residual_quartic(model, args.line, (i, j))
    order = _order(args.order)
    sections = [format_polynomial(s) for s in record.sections]
    if args.format == "json":
        payload = {
            "line": record.line,
            "pick": list(record.pick),
            "sections": sections,
            "section_hilbert": str(record.quintic_hilbert),
            "curve_hilbert": str(record.curve_hilbert),
            "secant_hilbert": None if record.secant_hilbert is None
            else str(record.secant_hilbert),
        }
        payload.update(_ideal_payload(record.curve, order))
        print(json.dumps(payload, indent=2))
        return 0
    notes = [
        f"line {record.line}, sections {', '.join(sections)}",
        f"section hilbert: {record.quintic_hilbert}",
        f"curve hilbert: {record.curve_hilbert}",
        "the line is a component of the residual" if record.secant_hilbert
        is None else f"secant hilbert: {record.secant_hilbert}",
    ]
    _print_ideal(record.curve, args, notes=tuple(notes))
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def _build_parser() -> argparse.ArgumentParser:
    # Global flags are accepted both before and after the subcommand;
    # the after-subcommand copies default to SUPPRESS so they only
    # override when given explicitly.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"),
                        default=argparse.SUPPRESS,
                        help="output rendering (default text)")
    common.add_argument("--order", choices=("lex", "grevlex"),
                        default=argparse.SUPPRESS,
                        help="monomial order for bases and printing "
                             "(default grevlex)")
    common.add_argument("--check-degree", type=int, dest="check_degree",
                        default=argparse.SUPPRESS, metavar="N",
                        help="Hilbert-function window for the suites "
                             "(default 8)")

    parser = argparse.ArgumentParser(
        prog="dp5",
        description="Exact commutative-algebra toolkit for the torus-fixed "
                    "curve censuses on the quintic del Pezzo threefold.")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--order", choices=("lex", "grevlex"),
                        default="grevlex")
    parser.add_argument("--check-degree", type=int, dest="check_degree",
                        default=8, metavar="N")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("suite", parents=[common],
                       help="run a verification suite; exit 0 iff it passes")
    p.add_argument("name", choices=("all",) + verify.SUITE_NAMES)
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser("gb", parents=[common],
                       help="reduced Groebner basis of an ideal file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_gb)

    p = sub.add_parser("hp", parents=[common],
                       help="Hilbert polynomial, plus (degree, genus) "
                            "when linear")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_hp)

    p = sub.add_parser("quotient", parents=[common],
                       help="ideal quotient (FILE : DIVISOR)")
    p.add_argument("file")
    p.add_argument("divisor")
    p.set_defaults(fn=_cmd_quotient)

    p = sub.add_parser("saturate", parents=[common],
                       help="saturation by a second ideal, or by the "
                            "irrelevant maximal ideal when none is given")
    p.add_argument("file")
    p.add_argument("by", nargs="?", default=None)
    p.set_defaults(fn=_cmd_saturate)

    p = sub.add_parser("eliminate", parents=[common],
                       help="contract to the subring without the named "
                            "variables")
    p.add_argument("file")
    p.add_argument("--vars", required=True, metavar="X,Y",
                   help="comma-separated variables to eliminate")
    p.set_defaults(fn=_cmd_eliminate)

    p = sub.add_parser("compare", parents=[common],
                       help="equal/subset/superset/incomparable; "
                            "exit 0 iff equal")
    p.add_argument("file")
    p.add_argument("other")
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("tangent", parents=[common],
                       help="Hilbert-scheme tangent dimension at an ideal")
    p.add_argument("file")
    p.add_argument("--within", default=None, metavar="FILE",
                   help="also report the dimension relative to this ambient "
                        "ideal")
    p.set_defaults(fn=_cmd_tangent)

    p = sub.add_parser("fixed", parents=[common],
                       help="census of torus-fixed curves of one degree")
    p.add_argument("--degree", type=int, required=True, choices=(1, 2, 3, 4))
    p.set_defaults(fn=_cmd_fixed)

    p = sub.add_parser("residual", parents=[common],
                       help="residual quartic for one line and hyperplane "
                            "pick")
    p.add_argument("--line", required=True, choices=("l0", "l1", "l2"))
    p.add_argument("--pick", required=True, metavar="I,J",
                   help="indices of two of the line's five linear forms")
    p.set_defaults(fn=_cmd_residual)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
