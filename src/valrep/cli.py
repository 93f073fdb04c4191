"""Command-line front end: exact computations in, JSON reports out.

One job per invocation, subcommand style.  All field elements in reports
are canonical expression strings, never floats; reports are byte-stable
across runs except for the timing field.  Exit codes: 0 success, 2 input
or schema error, 3 computation aborted by the degree guard, 141 stdout
closed before the report was written.  A flag or field given empty is
read as given, never as absent.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .currents import multicurve_certificate_ball, period_via_length
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
    RepTable,
    closed_point_verdict,
)
from .spectra import (
    NORM_SPREAD,
    NORM_SUM,
    building_pseudodistance,
    char_poly_polygon,
    jordan_from_polygon,
    jordan_valuation,
    translation_length,
)
from .symplectic import Lagrangian, crossratio, is_symplectic, maslov
from .valuation import Valuation
from .words import Word, parse_word

SCHEMA = "valrep.report/1"
CLOSED_STDOUT = 141  # what a shell reports for a writer killed by SIGPIPE: 128 + 13


class InputError(ValueError):
    """Bad input file, flag or schema; exits with code 2."""


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    code, report = _run(args)
    try:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`valrep ... | head`); as Python's signal docs advise,
        # point stdout at devnull so that the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return CLOSED_STDOUT
    return code


def _run(args) -> tuple[int, dict]:
    """The exit code and the report of one subcommand."""
    started = time.monotonic()
    try:
        if args.degree_bound < 0:
            raise InputError(f"--degree-bound must be >= 0, got {args.degree_bound}")
        result = args.handler(args)
    except (ValueError, SingularMatrixError) as err:  # InputError, ParseError and the like
        return 2, {"schema": SCHEMA, "error": {"code": "input", "message": str(err)}}
    except DegreeGuardExceeded as err:
        error = {
            "code": "degree_guard",
            "message": str(err),
            "word": str(err.word),
            "degree": err.degree,
            "bound": err.bound,
        }
        return 3, {"schema": SCHEMA, "error": error}
    return 0, {
        "schema": SCHEMA,
        "command": args.command,
        "result": result,
        "timing_ms": round((time.monotonic() - started) * 1000, 3),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valrep",
        description="Exact boundary-point computations for symplectic representations over Q(X)",
    )
    sub = parser.add_subparsers(dest="command")

    def add(name: str, handler, *flags: str, maxlen: int = 4):
        """A subcommand with --degree-bound (main reads it) and the flags it reads."""
        p = sub.add_parser(name)
        p.set_defaults(handler=handler, command=name)
        if "input" in flags:
            p.add_argument("--input", help="path to a JSON input file")
            p.add_argument("--json", dest="inline_json", help="inline JSON input")
        if "order" in flags:
            p.add_argument("--order", default=None, help="aplus:A | aminus:A | plusinf | minusinf")
        if "valuation" in flags:
            p.add_argument("--valuation", default=None, help="adic:A | atinf")
        if "radius" in flags:
            p.add_argument("--radius", type=int, default=6)
        if "kmax" in flags:
            p.add_argument("--kmax", type=int, default=16)
        if "maxlen" in flags:
            p.add_argument("--maxlen", type=int, default=maxlen)
        p.add_argument("--degree-bound", type=int, default=512)
        if "norm" in flags:
            p.add_argument("--norm", choices=(NORM_SUM, NORM_SPREAD), default=NORM_SUM)
        if "word" in flags:
            p.add_argument("--word", default=None)

    # a representation input names its own order and valuation
    add("pants-demo", cmd_pants_demo, "order", "valuation", "radius", "kmax", "maxlen", maxlen=2)
    add("symplectic-check", cmd_symplectic_check, "input")
    add("trace", cmd_trace, "input", "word")
    add("translength", cmd_translength, "input", "valuation", "norm", "word")
    add("jordan", cmd_jordan, "input", "valuation", "word")
    add("closed-point", cmd_closed_point, "input", "radius")
    add("maslov", cmd_maslov, "input", "order")
    add("crossratio", cmd_crossratio, "input")
    add("maximality", cmd_maximality, "input")
    add("periods", cmd_periods, "input")
    add("multicurve", cmd_multicurve, "input", "kmax", "maxlen")
    add("distance", cmd_distance, "input", "valuation", "norm")
    return parser


# -- input plumbing ----------------------------------------------------------


def load_input(args) -> dict:
    if args.inline_json is not None:
        raw = args.inline_json
    elif args.input is not None:
        try:
            with open(args.input) as fh:
                raw = fh.read()
        except OSError as err:
            raise InputError(f"cannot read input file: {err}")
    else:
        raise InputError("provide --input FILE or --json INLINE")
    try:
        data = json.loads(raw)
    except (RecursionError, ValueError) as err:  # RecursionError: nested too deeply
        raise InputError(f"input is not valid JSON: {err}")
    if not isinstance(data, dict):
        raise InputError("top-level JSON value must be an object")
    return data


_KINDS = {dict: ("an object", "objects"), list: ("an array", "arrays"), str: ("a string", "strings")}


def field(data: dict, key: str, kind: type, where: str = "input", each=None, required=True):
    """data[key], checked to be a JSON object, array or string (`kind`).

    `each` checks every element of an array, or every value of an object,
    the same way.  An absent or null field is an error when `required`,
    and None otherwise.
    """
    value = data.get(key)
    if value is None:
        if required:
            raise InputError(f"{where} lacks {key!r}")
        return None
    items = value.values() if isinstance(value, dict) else value
    if not isinstance(value, kind) or (each and not all(isinstance(v, each) for v in items)):
        noun = _KINDS[kind][0] + (f" of {_KINDS[each][1]}" if each else "")
        raise InputError(f"{where} field {key!r} must be {noun}")
    return value


def read_order(spec: str) -> OrderSpec:
    """The order a --order flag or an "order" field names."""
    try:
        return OrderSpec.from_spec_string(spec)
    except ValueError as err:
        raise InputError(f"bad order: {err}")


def read_valuation(spec: str) -> Valuation:
    """The valuation a --valuation flag or a "valuation" field names."""
    try:
        return Valuation.from_spec_string(spec)
    except ValueError as err:
        raise InputError(f"bad valuation: {err}")


def valuation_flag(args) -> Valuation:
    """The valuation --valuation names, which a bare matrix input needs."""
    if args.valuation is None:
        raise InputError("--valuation is required for this command")
    return read_valuation(args.valuation)


def matrix_from_json(rows: list, what: str, max_degree: int) -> Matrix:
    if not rows or not all(isinstance(r, list) for r in rows):
        raise InputError(f"{what} must be a JSON array of rows")
    if any(len(r) != len(rows[0]) for r in rows):
        raise InputError(f"{what} has ragged rows")
    if not all(isinstance(e, (str, int, float)) for r in rows for e in r):
        raise InputError(f"{what} entries must be strings or numbers")
    try:
        return Matrix([[parse_ratfunc(str(e), max_degree) for e in r] for r in rows])
    except ParseError as err:
        raise InputError(f"bad expression in {what}: {err}")


def lagrangian_from_json(rows: list, what: str, max_degree: int) -> Lagrangian:
    m = matrix_from_json(rows, what, max_degree)
    try:
        return Lagrangian.span(m)
    except ValueError as err:
        raise InputError(f"{what}: {err}")


def matrix_to_json(m: Matrix) -> list[list[str]]:
    return [[format_ratfunc(e) for e in row] for row in m.entries]


def rep_from_json(data: dict, max_degree: int) -> RepTable:
    pres = field(data, "presentation", dict, "representation")
    relators = field(pres, "relators", list, "presentation", each=str, required=False) or ()
    return RepTable(
        GroupPresentation(
            tuple(field(pres, "generators", list, "presentation", each=str)),
            tuple(parse_word(r) for r in relators),
        ),
        {
            name: matrix_from_json(rows, f"image of {name}", max_degree)
            for name, rows in field(data, "images", dict, "representation", each=list).items()
        },
        read_order(field(data, "order", str, "representation")),
        read_valuation(field(data, "valuation", str, "representation")),
        field(data, "free_generators", list, "representation", each=str, required=False),
        degree_bound=max_degree,
    )


def rep_from_input(data: dict, max_degree: int) -> RepTable:
    """The pants shortcut (at its "order", or aplus:0), a "representation", or the input itself."""
    if data.get("representation") == "pants":
        spec = field(data, "order", str, required=False)
        return pants_rep(read_order("aplus:0" if spec is None else spec), degree_bound=max_degree)
    if "representation" in data:
        return rep_from_json(field(data, "representation", dict), max_degree)
    return rep_from_json(data, max_degree)


def word_from_args(args, data: dict) -> Word:
    text = field(data, "word", str, required=False) if args.word is None else args.word
    if not text:
        raise InputError("provide a nonempty --word or word field in the input")
    return parse_word(text)


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
    return {"kind": verdict.kind, "radius_searched": verdict.radius_searched}  # UnknownVerdict


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
    order = read_order("aplus:0" if args.order is None else args.order)
    valuation = Valuation(order.a) if args.valuation is None else read_valuation(args.valuation)
    rep = pants_rep(order, valuation, args.degree_bound)
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
    verdict = closed_point_verdict(rep, radius=args.radius)
    certificate = multicurve_certificate_ball(rep, args.maxlen, k_max=args.kmax)
    return {
        "order": order.spec_string(),
        "valuation": valuation.spec_string(),
        "images": {name: matrix_to_json(m) for name, m in sorted(rep.images.items())},
        "symplectic": {name: True for name in sorted(rep.images)},
        "relator": str(relator),
        "relator_is_identity": rep.image(relator).identity_sign() == 1,
        "trace_word": "(c1^-1 c3)^2",
        "trace": format_ratfunc(trace_value),
        "jordan_table": jordan_table,
        "closed_point": verdict_to_json(verdict),
        "multicurve": classification_to_json(certificate),
    }


def cmd_symplectic_check(args) -> dict:
    data = load_input(args)
    if "matrix" in data:
        m = matrix_from_json(field(data, "matrix", list), "matrix", args.degree_bound)
        return {"symplectic": is_symplectic(m)}
    rep = rep_from_input(data, args.degree_bound)
    return {"symplectic": {name: True for name in sorted(rep.images)}}


def cmd_trace(args) -> dict:
    data = load_input(args)
    rep = rep_from_input(data, args.degree_bound)
    word = word_from_args(args, data)
    return {"word": str(word), "trace": format_ratfunc(rep.trace(word))}


def _matrix_or_rep_word(args) -> tuple[Matrix | FracMatrix, Valuation]:
    data = load_input(args)
    if "matrix" in data:
        if args.word is not None:
            raise InputError("--word does not apply to a matrix input")
        m = matrix_from_json(field(data, "matrix", list), "matrix", args.degree_bound)
        return m, valuation_flag(args)
    if args.valuation is not None:
        raise InputError("--valuation does not apply to a representation, which names its own")
    rep = rep_from_input(data, args.degree_bound)
    return rep.image(word_from_args(args, data)), rep.valuation


def cmd_translength(args) -> dict:
    m, valuation = _matrix_or_rep_word(args)
    value = translation_length(m, valuation, args.norm)
    return {"norm": args.norm, "valuation": valuation.spec_string(), "length": frac_str(value)}


def cmd_jordan(args) -> dict:
    m, valuation = _matrix_or_rep_word(args)
    polygon = char_poly_polygon(m, valuation)
    vec = jordan_from_polygon(polygon, m.rows)
    return {
        "valuation": valuation.spec_string(),
        "jordan": [frac_str(v) for v in vec],
        "length": frac_str(sum(vec, Fraction(0))),
        "polygon": [
            {"slope": frac_str(-v), "mult": mult} for v, mult in polygon.root_valuations
        ],
    }


def cmd_closed_point(args) -> dict:
    rep = rep_from_input(load_input(args), args.degree_bound)
    verdict = closed_point_verdict(rep, radius=args.radius)
    return {
        "order": rep.order.spec_string(),
        "valuation": rep.valuation.spec_string(),
        "radius": args.radius,
        "verdict": verdict_to_json(verdict),
    }


def _lagrangians_from_json(data: dict, count: int, max_degree: int) -> list[Lagrangian]:
    rows = field(data, "lagrangians", list, each=list)
    if len(rows) != count:
        raise InputError(f"expected {count} lagrangians, got {len(rows)}")
    return [lagrangian_from_json(m, f"lagrangian {i}", max_degree) for i, m in enumerate(rows)]


def cmd_maslov(args) -> dict:
    ls = _lagrangians_from_json(load_input(args), 3, args.degree_bound)
    value = maslov(ls[0], ls[1], ls[2], None if args.order is None else read_order(args.order))
    return {"maslov": value, "maximal": value == ls[0].n}


def cmd_crossratio(args) -> dict:
    ls = _lagrangians_from_json(load_input(args), 4, args.degree_bound)
    return {"crossratio": format_ratfunc(RatFunc.coerce(crossratio(*ls)))}


def cmd_maximality(args) -> dict:
    data = load_input(args)
    rep = rep_from_input(data, args.degree_bound)
    framing_data = field(data, "framing", dict)
    labels = tuple(field(framing_data, "labels", list, "framing", each=str))
    if not labels:
        raise InputError("framing needs labels in cyclic order")
    images_data = field(framing_data, "images", dict, "framing", each=list)
    images = {  # FramingTable names the labels left without an image
        label: lagrangian_from_json(images_data[label], f"image of {label!r}", args.degree_bound)
        for label in labels if label in images_data
    }
    symmetries = field(framing_data, "symmetries", dict, "framing", required=False)
    if symmetries is not None:
        symmetries = {
            parse_word(t): field(symmetries, t, dict, "symmetries", each=str) for t in symmetries
        }
    report = verify_maximal_framing(rep, FramingTable(labels, images, symmetries))
    return {
        "ok": report.ok,
        "triples_checked": report.triples_checked,
        "equivariance_checked": report.equivariance_checked,
        "violation": report.violation,
    }


def cmd_periods(args) -> dict:
    data = load_input(args)
    rep = rep_from_input(data, args.degree_bound)
    words = field(data, "words", list, each=str)
    if not words:
        raise InputError("input needs a nonempty words array")
    reports = [period_via_length(rep, parse_word(text)) for text in words]
    return {
        "periods": [
            {"word": str(r.word), "period": frac_str(r.period), "method": r.method}
            for r in reports
        ]
    }


def cmd_multicurve(args) -> dict:
    rep = rep_from_input(load_input(args), args.degree_bound)
    outcome = multicurve_certificate_ball(rep, args.maxlen, k_max=args.kmax)
    return {
        "order": rep.order.spec_string(),
        "valuation": rep.valuation.spec_string(),
        "maxlen": args.maxlen,
        **classification_to_json(outcome),
    }


def cmd_distance(args) -> dict:
    data = load_input(args)
    g1, g2 = (matrix_from_json(field(data, g, list), g, args.degree_bound) for g in ("g1", "g2"))
    valuation = valuation_flag(args)
    value = building_pseudodistance(g1, g2, valuation, args.norm)
    return {
        "norm": args.norm,
        "valuation": valuation.spec_string(),
        "distance": frac_str(value),
    }


if __name__ == "__main__":
    sys.exit(main())
