"""Command-line front end: exact computations in, JSON reports out.

One job per invocation, subcommand style.  All field elements in reports
are canonical expression strings, never floats; reports are byte-stable
across runs except for the timing field.  Exit codes: 0 success, 2 input
or schema error, 3 computation aborted by the degree guard.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .currents import (
    certify_period_values,
    multicurve_certificate_ball,
    period_via_length,
)
from .exprparse import ParseError, parse_ratfunc
from .fields import OrderSpec, RatFunc, format_ratfunc
from .framing import FramingTable, verify_maximal_framing
from .linalg import FracMatrix, Matrix, SingularMatrixError
from .pants import pants_rep
from .representation import (
    ClosedPoint,
    DegreeGuardExceeded,
    GroupPresentation,
    NotClosedIntegral,
    RepresentationError,
    RepTable,
    UnknownVerdict,
    closed_point_verdict,
)
from .spectra import (
    NORM_SPREAD,
    NORM_SUM,
    building_pseudodistance,
    char_poly_polygon,
    jordan_valuation,
    translation_length,
)
from .symplectic import Lagrangian, is_symplectic, maslov
from .valuation import Valuation, canonical_valuation
from .words import Word, parse_word

SCHEMA = "valrep.report/1"


class InputError(ValueError):
    """Bad input file, flag or schema; exits with code 2."""


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    started = time.monotonic()
    try:
        if args.degree_bound < 0:
            raise InputError(f"--degree-bound must be >= 0, got {args.degree_bound}")
        result = args.handler(args)
    except InputError as err:
        _emit({"schema": SCHEMA, "error": {"code": "input", "message": str(err)}})
        return 2
    except (ParseError, RepresentationError, SingularMatrixError, ValueError) as err:
        _emit({"schema": SCHEMA, "error": {"code": "input", "message": str(err)}})
        return 2
    except DegreeGuardExceeded as err:
        _emit(
            {
                "schema": SCHEMA,
                "error": {
                    "code": "degree_guard",
                    "message": str(err),
                    "word": str(err.word),
                    "degree": err.degree,
                    "bound": err.bound,
                },
            }
        )
        return 3
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "result": result,
        "timing_ms": round((time.monotonic() - started) * 1000, 3),
    }
    _emit(report)
    return 0


def _emit(payload: dict):
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valrep",
        description="Exact boundary-point computations for symplectic representations over Q(X)",
    )
    sub = parser.add_subparsers(dest="command")

    def add(name: str, handler, needs_input=True, **extra_flags):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler, command=name)
        if needs_input:
            p.add_argument("--input", help="path to a JSON input file")
            p.add_argument("--json", dest="inline_json", help="inline JSON input")
        p.add_argument("--order", default=None, help="aplus:A | aminus:A | plusinf | minusinf")
        p.add_argument("--valuation", default=None, help="adic:A | atinf")
        p.add_argument("--radius", type=int, default=6)
        p.add_argument("--kmax", type=int, default=16)
        p.add_argument("--maxlen", type=int, default=extra_flags.pop("maxlen", 4))
        p.add_argument("--degree-bound", type=int, default=512)
        p.add_argument("--norm", choices=(NORM_SUM, NORM_SPREAD), default=NORM_SUM)
        p.add_argument("--word", default=None)
        return p

    add("pants-demo", cmd_pants_demo, needs_input=False, maxlen=2)
    add("symplectic-check", cmd_symplectic_check)
    add("trace", cmd_trace)
    add("translength", cmd_translength)
    add("jordan", cmd_jordan)
    add("closed-point", cmd_closed_point)
    add("maslov", cmd_maslov)
    add("crossratio", cmd_crossratio)
    add("maximality", cmd_maximality)
    add("periods", cmd_periods)
    add("multicurve", cmd_multicurve)
    add("distance", cmd_distance)
    return parser


# -- input plumbing ----------------------------------------------------------


def load_input(args) -> dict:
    if getattr(args, "inline_json", None):
        raw = args.inline_json
    elif getattr(args, "input", None):
        try:
            with open(args.input) as fh:
                raw = fh.read()
        except OSError as err:
            raise InputError(f"cannot read input file: {err}")
    else:
        raise InputError("provide --input FILE or --json INLINE")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as err:
        raise InputError(f"input is not valid JSON: {err}")
    if not isinstance(data, dict):
        raise InputError("top-level JSON value must be an object")
    return data


def parse_order_flag(args, default: str | None = None) -> OrderSpec:
    spec = args.order or default
    if spec is None:
        raise InputError("--order is required for this command")
    try:
        return OrderSpec.from_spec_string(spec)
    except (ValueError, ZeroDivisionError) as err:
        raise InputError(f"bad --order: {err}")


def parse_valuation_flag(args, order: OrderSpec | None = None) -> Valuation:
    if args.valuation:
        try:
            return Valuation.from_spec_string(args.valuation)
        except (ValueError, ZeroDivisionError) as err:
            raise InputError(f"bad --valuation: {err}")
    if order is not None:
        return canonical_valuation(order)
    raise InputError("--valuation is required for this command")


def matrix_from_json(value, what: str, max_degree: int) -> Matrix:
    if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in value):
        raise InputError(f"{what} must be a JSON array of rows")
    width = len(value[0])
    if any(len(r) != width for r in value):
        raise InputError(f"{what} has ragged rows")
    try:
        return Matrix([[parse_ratfunc(str(e), max_degree) for e in row] for row in value])
    except ParseError as err:
        raise InputError(f"bad expression in {what}: {err}")


def matrix_to_json(m: Matrix) -> list[list[str]]:
    return [[format_ratfunc(e) for e in row] for row in m.entries]


def rep_from_json(data: dict, max_degree: int) -> RepTable:
    for key in ("presentation", "images", "order", "valuation"):
        if key not in data:
            raise InputError(f"representation JSON lacks {key!r}")
    pres_data = data["presentation"]
    if not isinstance(pres_data, dict) or "generators" not in pres_data:
        raise InputError("presentation needs a generators list")
    generators = tuple(pres_data["generators"])
    relators = tuple(parse_word(r) for r in pres_data.get("relators", ()))
    try:
        presentation = GroupPresentation(generators, relators)
        order = OrderSpec.from_spec_string(data["order"])
        valuation = Valuation.from_spec_string(data["valuation"])
        images = {
            name: matrix_from_json(rows, f"image of {name}", max_degree)
            for name, rows in data["images"].items()
        }
        return RepTable(
            presentation,
            images,
            order,
            valuation,
            free_generators=tuple(data["free_generators"]) if "free_generators" in data else None,
        )
    except (RepresentationError, ValueError) as err:
        raise InputError(str(err))


def rep_from_args(args) -> RepTable:
    data = load_input(args)
    if data.get("representation") == "pants":
        order = OrderSpec.from_spec_string(data.get("order", args.order or "aplus:0"))
        return pants_rep(order)
    if "representation" in data:
        return rep_from_json(data["representation"], args.degree_bound)
    return rep_from_json(data, args.degree_bound)


def word_from_args(args, data: dict | None = None) -> Word:
    text = args.word or (data or {}).get("word")
    if not text:
        raise InputError("provide --word or a word field in the input")
    try:
        return parse_word(str(text))
    except ValueError as err:
        raise InputError(str(err))


def frac_str(v) -> str:
    return str(Fraction(v))


def verdict_to_json(verdict) -> dict:
    if isinstance(verdict, ClosedPoint):
        return {
            "kind": verdict.kind,
            "witness": str(verdict.witness),
            "length": frac_str(verdict.length),
        }
    if isinstance(verdict, NotClosedIntegral):
        return {
            "kind": verdict.kind,
            "generator_valuations": {
                name: frac_str(v) for name, v in sorted(verdict.generator_valuations.items())
            },
        }
    if isinstance(verdict, UnknownVerdict):
        return {"kind": verdict.kind, "radius_searched": verdict.radius_searched}
    raise TypeError(f"unknown verdict {verdict!r}")


def classification_to_json(outcome) -> dict:
    body = {
        "kind": outcome.kind,
        "periods": [
            {"word": str(w), "period": frac_str(p), "method": "translation_length"}
            for w, p in outcome.periods
        ],
    }
    if outcome.kind == "multicurve_certified":
        body["k"] = outcome.k
        body["residue_check"] = [
            {"word": str(w), "k_times_period_integral": (outcome.k * Fraction(p)).denominator == 1}
            for w, p in outcome.periods
        ]
    else:
        body["k_max"] = outcome.k_max
    return body


# -- commands ---------------------------------------------------------------


def cmd_pants_demo(args) -> dict:
    order = parse_order_flag(args, default="aplus:0")
    valuation = parse_valuation_flag(args, order)
    rep = pants_rep(order, valuation)
    relator = parse_word("c3 c2 c1")
    trace_word = parse_word("c1^-1 c3")
    trace_value = rep.trace(trace_word * trace_word)
    standard_words = ["c1", "c2", "c3", "c1 c2^-1", "c1^-1 c3", "c1^-1 c3 c1^-1 c3"]
    jordan_table = []
    for text in standard_words:
        w = parse_word(text)
        vec = jordan_valuation(rep.image(w), valuation)
        jordan_table.append(
            {
                "word": text,
                "jordan": [frac_str(v) for v in vec],
                "length": frac_str(sum(vec, Fraction(0))),
            }
        )
    verdict = closed_point_verdict(rep, radius=args.radius, degree_bound=args.degree_bound)
    certificate = multicurve_certificate_ball(rep, args.maxlen, k_max=args.kmax)
    return {
        "order": order.spec_string(),
        "valuation": valuation.spec_string(),
        "images": {name: matrix_to_json(m) for name, m in sorted(rep.images.items())},
        "symplectic": {name: True for name in sorted(rep.images)},
        "relator": str(relator),
        "relator_is_identity": rep.evaluate(relator) == rep.identity_matrix(),
        "trace_word": "(c1^-1 c3)^2",
        "trace": format_ratfunc(trace_value),
        "jordan_table": jordan_table,
        "closed_point": verdict_to_json(verdict),
        "multicurve": classification_to_json(certificate),
    }


def cmd_symplectic_check(args) -> dict:
    data = load_input(args)
    if "matrix" in data:
        m = matrix_from_json(data["matrix"], "matrix", args.degree_bound)
        return {"symplectic": is_symplectic(m)}
    rep = rep_from_args(args)
    return {"symplectic": {name: True for name in sorted(rep.images)}}


def cmd_trace(args) -> dict:
    data = load_input(args)
    rep = rep_from_args(args)
    word = word_from_args(args, data)
    return {"word": str(word), "trace": format_ratfunc(rep.trace(word))}


def _matrix_or_rep_word(args) -> tuple[Matrix | FracMatrix, Valuation]:
    data = load_input(args)
    if "matrix" in data:
        m = matrix_from_json(data["matrix"], "matrix", args.degree_bound)
        order = OrderSpec.from_spec_string(args.order) if args.order else None
        valuation = parse_valuation_flag(args, order)
        return m, valuation
    rep = rep_from_args(args)
    word = word_from_args(args, data)
    return rep.image(word), rep.valuation


def cmd_translength(args) -> dict:
    m, valuation = _matrix_or_rep_word(args)
    value = translation_length(m, valuation, args.norm)
    return {"norm": args.norm, "valuation": valuation.spec_string(), "length": frac_str(value)}


def cmd_jordan(args) -> dict:
    m, valuation = _matrix_or_rep_word(args)
    vec = jordan_valuation(m, valuation)
    polygon = char_poly_polygon(m, valuation)
    return {
        "valuation": valuation.spec_string(),
        "jordan": [frac_str(v) for v in vec],
        "length": frac_str(sum(vec, Fraction(0))),
        "polygon": [
            {"slope": frac_str(-v), "mult": mult} for v, mult in polygon.root_valuations
        ],
    }


def cmd_closed_point(args) -> dict:
    rep = rep_from_args(args)
    verdict = closed_point_verdict(rep, radius=args.radius, degree_bound=args.degree_bound)
    return {
        "order": rep.order.spec_string(),
        "valuation": rep.valuation.spec_string(),
        "radius": args.radius,
        "verdict": verdict_to_json(verdict),
    }


def _lagrangians_from_json(data: dict, count: int, max_degree: int) -> list[Lagrangian]:
    if "lagrangians" not in data or not isinstance(data["lagrangians"], list):
        raise InputError("input needs a lagrangians array of 2n x n matrices")
    out = []
    for i, rows in enumerate(data["lagrangians"]):
        m = matrix_from_json(rows, f"lagrangian {i}", max_degree)
        try:
            out.append(Lagrangian.span(m))
        except ValueError as err:
            raise InputError(f"lagrangian {i}: {err}")
    if len(out) != count:
        raise InputError(f"expected {count} lagrangians, got {len(out)}")
    return out


def cmd_maslov(args) -> dict:
    data = load_input(args)
    ls = _lagrangians_from_json(data, 3, args.degree_bound)
    order = OrderSpec.from_spec_string(args.order) if args.order else None
    value = maslov(ls[0], ls[1], ls[2], order)
    return {"maslov": value, "maximal": value == ls[0].n}


def cmd_crossratio(args) -> dict:
    from .symplectic import crossratio as lagrangian_crossratio

    data = load_input(args)
    ls = _lagrangians_from_json(data, 4, args.degree_bound)
    value = lagrangian_crossratio(*ls)
    return {"crossratio": format_ratfunc(RatFunc.coerce(value))}


def cmd_maximality(args) -> dict:
    data = load_input(args)
    rep = rep_from_args(args)
    framing_data = data.get("framing")
    if not isinstance(framing_data, dict):
        raise InputError("input needs a framing object")
    labels = tuple(framing_data.get("labels", ()))
    if not labels:
        raise InputError("framing needs labels in cyclic order")
    images = {}
    for label in labels:
        if label not in framing_data.get("images", {}):
            raise InputError(f"framing image missing for label {label!r}")
        images[label] = Lagrangian.span(
            matrix_from_json(
                framing_data["images"][label], f"image of {label!r}", args.degree_bound
            )
        )
    symmetries = None
    if "symmetries" in framing_data:
        symmetries = {
            parse_word(word_text): dict(action)
            for word_text, action in framing_data["symmetries"].items()
        }
    framing = FramingTable(labels, images, symmetries)
    report = verify_maximal_framing(rep, framing)
    return {
        "ok": report.ok,
        "triples_checked": report.triples_checked,
        "equivariance_checked": report.equivariance_checked,
        "violation": report.violation,
    }


def cmd_periods(args) -> dict:
    data = load_input(args)
    rep = rep_from_args(args)
    words_field = data.get("words")
    if not isinstance(words_field, list) or not words_field:
        raise InputError("input needs a nonempty words array")
    reports = [period_via_length(rep, parse_word(str(t))) for t in words_field]
    return {
        "periods": [
            {"word": str(r.word), "period": frac_str(r.period), "method": r.method}
            for r in reports
        ]
    }


def cmd_multicurve(args) -> dict:
    rep = rep_from_args(args)
    outcome = multicurve_certificate_ball(
        rep, args.maxlen, k_max=args.kmax, degree_bound=args.degree_bound
    )
    return {
        "order": rep.order.spec_string(),
        "valuation": rep.valuation.spec_string(),
        "maxlen": args.maxlen,
        **classification_to_json(outcome),
    }


def cmd_distance(args) -> dict:
    data = load_input(args)
    if "g1" not in data or "g2" not in data:
        raise InputError("input needs matrices g1 and g2")
    g1 = matrix_from_json(data["g1"], "g1", args.degree_bound)
    g2 = matrix_from_json(data["g2"], "g2", args.degree_bound)
    order = OrderSpec.from_spec_string(args.order) if args.order else None
    valuation = parse_valuation_flag(args, order)
    value = building_pseudodistance(g1, g2, valuation, args.norm)
    return {
        "norm": args.norm,
        "valuation": valuation.spec_string(),
        "distance": frac_str(value),
    }


if __name__ == "__main__":
    sys.exit(main())
