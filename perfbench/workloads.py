"""Job catalogues of the four benchmark workloads.

A workload is a list of slots.  A slot fixes the shape of its input (which
call, which order, how many labels, which block structure, which word
length) and offers a few variants that differ only in the seeded numbers
or letters inside the input, so every variant costs about the same.  A
run's first job list takes one variant per slot, chosen by the run's seed;
each further pass moves every slot on to its next variant, so a run of
`VARIANTS` passes covers the whole catalogue.  Jobs run in a seeded order.
The reference file holds the exact result of every variant of every slot,
so a run under any seed is checked in full.

Building a job builds its inputs (matrices, framings, representations,
argument lists); that work is set-up.  Calling the job's `run` is the timed
work, and it returns a JSON-able result whose canonical string is compared
with the reference.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from valrep import currents, framing, representation, spectra
from valrep.exprparse import parse_ratfunc
from valrep.fields import ONE, OrderSpec, RatFunc, X, format_ratfunc
from valrep.linalg import Matrix
from valrep.pants import boundary_words, pants_rep
from valrep.symplectic import Lagrangian, symplectic_inverse
from valrep.valuation import Valuation
from valrep.words import Word, format_word, parse_word

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
GENERIC_REP_FILE = "perfbench/inputs/generic_rep.json"

R = RatFunc.coerce
ADIC0 = Valuation.adic(0)
ORDER0 = OrderSpec.at_plus(0)
CLI_TIMEOUT_S = 120
TRACE_MARKER = "PERFBENCH-TRACE "
NONZERO = (-3, -2, -1, 1, 2, 3)
VARIANTS = 4  # per seeded slot
CLOSED_POINT_ORDERS = ("aplus:0", "plusinf", "aplus:1", "aminus:1")


@dataclass(frozen=True)
class Job:
    id: str
    run: Callable[[], object]
    light: bool = True  # cheap enough for the smoke tests
    argv: tuple[str, ...] = ()  # cli jobs: the arguments after `python -m valrep.cli`


@dataclass(frozen=True)
class Slot:
    variants: int
    build: Callable[[int], list[Job]]  # variant -> its jobs


def canonical(result) -> str:
    return json.dumps(result, sort_keys=True, separators=(",", ":"))


def slot_rng(workload: str, slot: str, variant: int | str) -> random.Random:
    """Numbers of one variant; variant "shape" gives the structure all variants share."""
    return random.Random(f"{workload}/{slot}/{variant}")


def job_lists(workload: str, seed: int) -> list[list[Job]]:
    """The seed's job list for each pass, in rotation: pass p uses lists[p % VARIANTS].

    List p takes variant (first + p) mod variants of every slot, where the
    seed draws each slot's first variant, and runs its jobs in a seeded order.
    """
    rng = random.Random(f"{workload}#{seed}")
    slots = SLOTS[workload]()
    firsts = [rng.randrange(slot.variants) for slot in slots]
    lists = []
    for p in range(VARIANTS):
        jobs = [
            job
            for slot, first in zip(slots, firsts)
            for job in slot.build((first + p) % slot.variants)
        ]
        rng.shuffle(jobs)
        lists.append(jobs)
    return lists


def catalogue(workload: str) -> list[Job]:
    """Every variant of every slot: what the reference covers."""
    return [
        job for slot in SLOTS[workload]() for v in range(slot.variants) for job in slot.build(v)
    ]


def load_reference(workload: str) -> dict[str, str]:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return {job_id: canonical(result) for job_id, result in json.load(fh).items()}


def sympy_warmup():
    """One factorization on an input unrelated to any job."""
    import sympy

    t, y = sympy.symbols("t y")
    sympy.factor_list(sympy.Poly(t**4 - y**4, t, y))


# -- shared formatting -------------------------------------------------------


def frac(v) -> str:
    return str(Fraction(v))


def matrix_strings(m: Matrix) -> list[list[str]]:
    return [[format_ratfunc(R(e)) for e in row] for row in m.entries]


def verdict_json(verdict) -> dict:
    out = {"kind": verdict.kind}
    if verdict.kind == "closed":
        out.update(witness=format_word(verdict.witness), length=frac(verdict.length))
    elif verdict.kind == "not_closed_integral":
        out["valuations"] = {k: frac(v) for k, v in sorted(verdict.generator_valuations.items())}
    return out


# -- pants-sweep -------------------------------------------------------------


def pants_slots() -> list[Slot]:
    reps: dict[str, object] = {}

    def rep(spec: str):
        if spec not in reps:
            reps[spec] = pants_rep(OrderSpec.from_spec_string(spec))
        return reps[spec]

    def multicurve(_variant):
        r = rep("aplus:0")

        def run():
            outcome = currents.multicurve_certificate_ball(r, 6)
            return {
                "kind": outcome.kind,
                "k": outcome.k,
                "periods": [[format_word(w), frac(p)] for w, p in outcome.periods],
            }

        return [Job("multicurve-L6-aplus:0", run, light=False)]

    def systole(_variant):
        r = rep("plusinf")
        boundary = boundary_words()

        def run():
            report = currents.systole_sweep(r, 6, boundary)
            return {
                "value": frac(report.value),
                "witness": format_word(report.witness),
                "classes": report.classes_swept,
            }

        return [Job("systole-r6-plusinf", run, light=False)]

    def closed_points(_variant):
        """The verdict matrix of acceptance criterion 2, as one job."""
        reps_by_order = [(spec, rep(spec)) for spec in CLOSED_POINT_ORDERS]

        def run():
            return {
                spec: verdict_json(representation.closed_point_verdict(r, radius=6))
                for spec, r in reps_by_order
            }

        return [Job("closed-point-r6", run)]

    return [Slot(1, multicurve), Slot(1, systole), Slot(1, closed_points)]


# -- framings ----------------------------------------------------------------


def positive_slopes(rng: random.Random, count: int) -> list[RatFunc]:
    """Distinct elements c + d X, increasing in the order a_+ at 0."""
    pool = set()
    while len(pool) < count:
        pool.add(R(rng.randint(0, 6)) + R(rng.randint(0, 4)) * X)
    items = list(pool)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if ORDER0.compare(items[i], items[j]) > 0:
                items[i], items[j] = items[j], items[i]
    return items


def block_kinds(rng: random.Random) -> list[str]:
    return [rng.choice(("upper", "lower", "torus")) for _ in range(rng.randint(1, 3))]


def rational_symplectic(rng: random.Random, n: int, kinds: list[str]) -> Matrix:
    """Product of unipotent or torus blocks over Q, as Q(X), with seeded entries."""
    g = Matrix.identity(2 * n, R(1))
    for kind in kinds:
        if kind == "torus":
            a = Matrix([[R(rng.choice(NONZERO)) for _ in range(n)] for _ in range(n)])
            while a.det() == 0:
                a = Matrix([[R(rng.choice(NONZERO)) for _ in range(n)] for _ in range(n)])
            g = g @ torus_block(a)
        else:
            g = g @ unipotent_block(kind, symmetric(n, lambda: R(rng.choice(NONZERO))))
    return g


def axiom_job(job_id: str, frame: framing.FramingTable) -> Job:
    cr = currents.FramingCrossratio(frame, ADIC0)

    def run():
        report = currents.crossratio_axiom_check(cr, [frame.labels])
        return {
            "ok": report.ok,
            "symmetry": report.symmetry_checked,
            "additivity": report.additivity_checked,
            "violation": report.violation,
        }

    return Job(job_id, run)


def framings_slots() -> list[Slot]:
    labels = tuple(str(i) for i in range(5))

    def eigenline(slot):
        def build(v):
            rng = slot_rng("framings", slot, v)
            slopes = positive_slopes(rng, 5)
            frame = framing.FramingTable(
                labels, {l: Lagrangian.line(s) for l, s in zip(labels, slopes)}
            )
            return [axiom_job(f"{slot}/v{v}", frame)]

        return build

    def graph(slot, conjugated):
        kinds = block_kinds(slot_rng("framings", slot, "shape"))

        def build(v):
            rng = slot_rng("framings", slot, v)
            conj = rational_symplectic(rng, 2, kinds) if conjugated else None
            eye = Matrix.identity(2, R(1))
            images = {}
            for label, t in zip(labels, positive_slopes(rng, 5)):
                lag = Lagrangian.graph(eye.scale(t))
                images[label] = lag.apply(conj) if conj is not None else lag
            return [axiom_job(f"{slot}/v{v}", framing.FramingTable(labels, images))]

        return build

    def hyperbolic(slot, n):
        shape = slot_rng("framings", slot, "shape")
        # infinitesimal diagonal entries: graphs of t*I flow toward the
        # vertical Lagrangian, so (minus, x, gx, plus) is positively oriented
        if n == 1:
            diag = [shape.choice((X, X / 2, X**2))]
        else:
            diag = [shape.choice((X, X**2, X / 2)), shape.choice((X, X / 3))]
        kinds = block_kinds(shape)

        def build(v):
            rng = slot_rng("framings", slot, v)
            zero = R(0)
            d = Matrix(
                [
                    [
                        (diag[i] if i < n else ONE / diag[i - n]) if i == j else zero
                        for j in range(2 * n)
                    ]
                    for i in range(2 * n)
                ]
            )
            h = rational_symplectic(rng, n, kinds)
            g = h @ d @ symplectic_inverse(h)
            rep = representation.RepTable(
                representation.GroupPresentation(("a",), ()), {"a": g}, ORDER0, ADIC0
            )
            word = parse_word("a")
            x = Lagrangian.graph(Matrix.identity(n, R(1)).scale(R(rng.randint(1, 3)))).apply(h)

            def run():
                plus = framing.attracting_lagrangian(g, ADIC0)
                minus = framing.repelling_lagrangian(g, ADIC0)
                frame = framing.FramingTable(
                    ("minus", "x", "gx", "plus"),
                    {"minus": minus, "x": x, "gx": x.apply(g), "plus": plus},
                    {word: {"minus": "minus", "plus": "plus", "x": "gx"}},
                )
                report = framing.verify_maximal_framing(rep, frame)
                return {
                    "plus": matrix_strings(plus.basis),
                    "minus": matrix_strings(minus.basis),
                    "maximal": [report.ok, report.triples_checked, report.equivariance_checked],
                    "period_framing": frac(currents.period(rep, frame, word, "x").period),
                    "period_length": frac(currents.period_via_length(rep, word).period),
                }

            return [Job(f"{slot}/v{v}", run)]

        return build

    # the 7 : 2 : 1 mix of eigenline, graph and hyperbolic configurations
    slots = [Slot(VARIANTS, eigenline(f"eigenline-{i:02d}")) for i in range(35)]
    slots += [Slot(VARIANTS, graph(f"graph-{i:02d}", i % 2 == 1)) for i in range(10)]
    slots += [Slot(VARIANTS, hyperbolic(f"hyperbolic-{i:02d}", 1 + i % 2)) for i in range(5)]
    return slots


# -- generic-qx --------------------------------------------------------------

GENERIC_DENOMINATORS = ("X-1", "X+2", "X^2+1", "X^2+2*X", "X^2-X")


def symmetric(n: int, entry: Callable[[], RatFunc]) -> list[list[RatFunc]]:
    rows = [[R(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = entry()
    return rows


def unipotent_block(kind: str, s: list[list[RatFunc]]) -> Matrix:
    n = len(s)
    eye = [[R(1) if i == j else R(0) for j in range(n)] for i in range(n)]
    zero = [[R(0)] * n for _ in range(n)]
    if kind == "upper":
        return Matrix([eye[i] + s[i] for i in range(n)] + [zero[i] + eye[i] for i in range(n)])
    return Matrix([eye[i] + zero[i] for i in range(n)] + [s[i] + eye[i] for i in range(n)])


def torus_block(a: Matrix) -> Matrix:
    n = a.rows
    inv_t = a.inverse().transpose()
    zero = [R(0)] * n
    return Matrix(
        [list(a.entries[i]) + zero for i in range(n)]
        + [zero + list(inv_t.entries[i]) for i in range(n)]
    )


def generic_shape(rng: random.Random, kind: str | None = None) -> dict:
    """Block kind and the denominator of each symmetric entry (None: an integer).

    With a given block kind, the first diagonal entry also gets a pole at
    X = 1, so that words mixing an upper and a lower element have nonzero
    length at the (X-1)-adic valuation.
    """
    dens = [rng.choice(GENERIC_DENOMINATORS) if rng.random() < 0.75 else None for _ in range(3)]
    return {"kind": kind or rng.choice(("upper", "lower")), "dens": dens, "pole": kind is not None}


def generic_element(rng: random.Random, shape: dict) -> Matrix:
    """One unipotent block with generic symmetric entries, times a rational torus."""
    entries = []
    for den in shape["dens"]:
        if den is None:
            entries.append(R(rng.randint(-2, 2)))
            continue
        # (c0 + c1 X + c2 X^2) / D, all coefficients nonzero
        c0, c1, c2 = (R(rng.choice((-2, -1, 1, 2))) for _ in range(3))
        entries.append((c0 + c1 * X + c2 * X**2) / parse_ratfunc(den))
    if shape["pole"]:
        entries[0] = entries[0] + R(rng.choice((-2, -1, 1, 2))) / (X - 1)
    s = [[entries[0], entries[1]], [entries[1], entries[2]]]
    a = Matrix([[R(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)])
    while a.det() == 0:
        a = Matrix([[R(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)])
    return unipotent_block(shape["kind"], s) @ torus_block(a)


GENERIC_VALUATIONS = ("adic:0", "adic:1", "atinf", "adic:1")
SWEEP_RADIUS = 3


def generic_slots() -> list[Slot]:
    def triple(slot, val_spec):
        val = Valuation.from_spec_string(val_spec)

        shape_rng = slot_rng("generic-qx", slot, "shape")
        shapes = [generic_shape(shape_rng) for _ in range(4)]

        def build(v):
            rng = slot_rng("generic-qx", slot, v)
            a, b, c, k = (generic_element(rng, shape) for shape in shapes)
            pairs = {"ab": (a, b), "ba": (b, a), "ac": (a, c), "bc": (b, c), "kakb": (k @ a, k @ b)}
            return [
                Job(
                    f"{slot}/v{v}/{name}",
                    lambda g1=g1, g2=g2: frac(spectra.building_pseudodistance(g1, g2, val)),
                )
                for name, (g1, g2) in pairs.items()
            ]

        return build

    def sweep(slot):
        shape_rng = slot_rng("generic-qx", slot, "shape")
        # an upper and a lower block, so that products are hyperbolic
        shapes = [generic_shape(shape_rng, "upper"), generic_shape(shape_rng, "lower")]

        def build(v):
            rng = slot_rng("generic-qx", slot, v)
            rep = representation.RepTable(
                representation.GroupPresentation(("a", "b"), ()),
                {"a": generic_element(rng, shapes[0]), "b": generic_element(rng, shapes[1])},
                OrderSpec.at_plus(1),
                Valuation.adic(1),
            )

            def run():
                lengths = representation.sweep_translation_lengths(rep, SWEEP_RADIUS)
                return [[format_word(w), frac(l)] for w, l in lengths]

            return [Job(f"{slot}/v{v}", run, light=False)]

        return build

    slots = [
        Slot(VARIANTS, triple(f"distance-{i}-{spec}", spec))
        for i, spec in enumerate(GENERIC_VALUATIONS)
    ]
    slots += [Slot(VARIANTS, sweep(f"sweep-{i}")) for i in range(2)]
    return slots


def generic_rep_json(rng: random.Random) -> dict:
    """The generic representation file that the cli workload reads."""
    return {
        "presentation": {"generators": ["a", "b"], "relators": []},
        "order": "aplus:1",
        "valuation": "adic:1",
        "images": {
            name: matrix_strings(generic_element(rng, generic_shape(rng, kind)))
            for name, kind in (("a", "upper"), ("b", "lower"))
        },
        "free_generators": ["a", "b"],
    }


# -- cli ---------------------------------------------------------------------

README_EXAMPLES = (
    ["pants-demo", "--order", "aplus:0"],
    ["translength", "--json", '{"matrix": [["X","0"],["0","1/X"]]}', "--valuation", "adic:0"],
    ["jordan", "--json", '{"representation": "pants", "order": "plusinf", "word": "c1 c2^-1"}'],
    ["closed-point", "--json", '{"representation": "pants", "order": "aplus:1"}'],
    ["maslov", "--json", '{"lagrangians": [[["1"],["0"]],[["1"],["1"]],[["0"],["1"]]]}'],
    ["multicurve", "--json", '{"representation": "pants", "order": "plusinf"}', "--maxlen", "4"],
    [
        "distance",
        "--json",
        '{"g1": [["1","0"],["0","1"]], "g2": [["X","0"],["0","1/X"]]}',
        "--valuation",
        "adic:0",
    ],
)
PANTS_ORDERS = ("aplus:0", "aminus:0", "plusinf", "minusinf")


def random_word(rng: random.Random, gens: tuple[str, ...], length: int) -> str:
    """A freely reduced word of the given length."""
    letters: list[tuple[str, int]] = []
    while len(letters) < length:
        letter = (rng.choice(gens), rng.choice((1, -1)))
        if letters and letters[-1] == (letter[0], -letter[1]):
            continue
        letters.append(letter)
    return format_word(Word(tuple(letters)))


def cli_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "valrep.cli", *argv]


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_cli(command: list[str], env: dict[str, str]) -> tuple[dict, str]:
    """Run one CLI process to completion.

    Returns its stdout report without `timing_ms`, with the exit code, and
    its stderr.
    """
    proc = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
    )
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return {"exit": proc.returncode, "stdout": proc.stdout}, proc.stderr
    if isinstance(report, dict):
        report.pop("timing_ms", None)
    return {"exit": proc.returncode, "report": report}, proc.stderr


def cli_job(job_id: str, argv: list[str], light: bool = True) -> Job:
    command = cli_command(argv)
    env = cli_env()
    return Job(job_id, lambda: run_cli(command, env)[0], light, tuple(argv))


def cli_slots() -> list[Slot]:
    gens = ("c1", "c2")

    def fixed(job_id, argv, light=True):
        return lambda _v: [cli_job(job_id, argv, light)]

    def seeded(slot, make_argv):
        def build(v):
            # the shape (order, word lengths) is the same for every variant
            shape, rng = slot_rng("cli", slot, "shape"), slot_rng("cli", slot, v)
            return [cli_job(f"{slot}/v{v}", make_argv(shape, rng))]

        return build

    def pants_json(shape, **fields):
        spec = {"representation": "pants", "order": shape.choice(PANTS_ORDERS), **fields}
        return ["--json", json.dumps(spec)]

    def jordan(shape, rng):
        return ["jordan", *pants_json(shape, word=random_word(rng, gens, shape.randint(2, 6)))]

    def trace(shape, rng):
        return ["trace", *pants_json(shape, word=random_word(rng, gens, shape.randint(3, 8)))]

    def periods(shape, rng):
        words = [random_word(rng, gens, shape.randint(1, 5)) for _ in range(3)]
        return ["periods", *pants_json(shape, words=words)]

    def generic_jordan(shape, rng):
        word = random_word(rng, ("a", "b"), shape.randint(1, 3))
        return ["jordan", "--input", GENERIC_REP_FILE, "--word", word]

    heavy = ("pants-demo", "multicurve")
    slots = [
        Slot(1, fixed(f"readme-{i}-{argv[0]}", list(argv), argv[0] not in heavy))
        for i, argv in enumerate(README_EXAMPLES)
    ]
    slots += [
        Slot(1, fixed(f"pants-demo-{o}", ["pants-demo", "--order", o], False))
        for o in PANTS_ORDERS
    ]
    for name, make_argv, count in (
        ("jordan", jordan, 3),
        ("trace", trace, 3),
        ("periods", periods, 2),
    ):
        slots += [Slot(VARIANTS, seeded(f"{name}-{i}", make_argv)) for i in range(count)]
    generic_closed_point = ["closed-point", "--input", GENERIC_REP_FILE, "--radius", "3"]
    slots.append(Slot(1, fixed("generic-closed-point", generic_closed_point)))
    slots.append(Slot(VARIANTS, seeded("generic-jordan", generic_jordan)))
    return slots


SLOTS: dict[str, Callable[[], list[Slot]]] = {
    "pants-sweep": pants_slots,
    "framings": framings_slots,
    "generic-qx": generic_slots,
    "cli": cli_slots,
}
