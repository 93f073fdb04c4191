"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from valrep.currents import (
    FramingCrossratio,
    MulticurveCertified,
    crossratio_axiom_check,
    lamination_dichotomy_check,
    multicurve_certificate_ball,
    period,
    period_via_length,
)
from valrep.exprparse import parse_ratfunc
from valrep.fields import ONE, OrderSpec, RatFunc, X, format_ratfunc
from valrep.framing import FramingTable, attracting_lagrangian, repelling_lagrangian, verify_maximal_framing
from valrep.linalg import Matrix
from valrep.pants import pants_rep
from valrep.representation import (
    ClosedPoint,
    GroupPresentation,
    NotClosedIntegral,
    RepTable,
    closed_point_verdict,
)
from valrep.spectra import NORM_SUM, building_pseudodistance, jordan_valuation
from valrep.symplectic import Lagrangian, crossratio, is_symplectic, maslov, symplectic_inverse
from valrep.valuation import Valuation
from valrep.words import Word, ball_levels, parse_word

from test_symplectic import random_lagrangian, random_symplectic
from test_spectra import random_symplectic_ratfunc

R = RatFunc.coerce
ADIC0 = Valuation.adic(0)
ORDER0 = OrderSpec.at_plus(0)


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} {detail}")
    return ok


# -- criterion 1: pants reproduction ----------------------------------------


def test_criterion_1_pants_reproduction():
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "valrep.cli", "pants-demo", "--order", "aplus:0"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout)["result"]
    expected_trace = format_ratfunc(parse_ratfunc("-256*X^2+320-16/X^2"))
    checks = {
        "symplectic": result["symplectic"] == {"c1": True, "c2": True, "c3": True},
        "relator": result["relator_is_identity"] is True,
        "trace": result["trace"] == expected_trace,
        "runtime": elapsed < 1.0,
    }
    ok = all(checks.values())
    report(
        1,
        ok,
        f"symplectic+relator+trace byte-exact, runtime {elapsed:.2f}s < 1s; "
        f"clauses: {checks}; got trace {result['trace']!r}, expected {expected_trace!r}",
    )
    assert checks["symplectic"], "generator images must be exactly symplectic"
    assert checks["relator"], "relator must evaluate to the identity"
    assert checks["runtime"], f"demo took {elapsed:.2f}s"
    assert checks["trace"], (
        "trace((c1^-1 c3)^2) must equal -256X^2+320-16/X^2 byte-exact; "
        f"the verbatim demo matrices give {result['trace']!r}. No word of length <= 8 "
        "in this representation attains the expected value, so the demo matrices and "
        "the expected trace are mutually inconsistent as given."
    )


# -- criterion 2: closed-point verdict matrix --------------------------------


def test_criterion_2_closed_point_matrix():
    started = time.monotonic()
    outcomes = {}
    for spec in ("aplus:0", "plusinf"):
        verdict = closed_point_verdict(pants_rep(OrderSpec.from_spec_string(spec)), radius=6)
        outcomes[spec] = verdict
        assert isinstance(verdict, ClosedPoint), f"{spec}: expected Closed, got {verdict}"
        assert verdict.length > 0
        print(f"  {spec}: Closed, witness {verdict.witness} with length {verdict.length}")
    for spec in ("aplus:1", "aminus:1"):
        verdict = closed_point_verdict(pants_rep(OrderSpec.from_spec_string(spec)), radius=6)
        outcomes[spec] = verdict
        assert isinstance(verdict, NotClosedIntegral), f"{spec}: expected integral, got {verdict}"
    elapsed = time.monotonic() - started
    ok = elapsed < 60.0
    report(2, ok, f"verdict matrix as stated, runtime {elapsed:.2f}s < 60s")
    assert ok


# -- criterion 3: multicurve certificates ------------------------------------


def test_criterion_3_multicurve_certificates():
    started = time.monotonic()
    for spec in ("aplus:0", "plusinf"):
        rep = pants_rep(OrderSpec.from_spec_string(spec))
        outcome = multicurve_certificate_ball(rep, 4, k_max=16)
        assert isinstance(outcome, MulticurveCertified), f"{spec}: {outcome}"
        count = len(outcome.periods)
        assert count == 4 + 12 + 36 + 108, count
        for word, value in outcome.periods:
            assert (outcome.k * value).denominator == 1, (word, value, outcome.k)
        print(f"  {spec}: K = {outcome.k}, all {count} periods in (1/K)Z")
    elapsed = time.monotonic() - started
    ok = elapsed < 120.0
    report(3, ok, f"periods of all words of length <= 4 certified, runtime {elapsed:.2f}s < 120s")
    assert ok


# -- criterion 4: Newton-polygon numeric oracle ------------------------------


def test_criterion_4_numeric_oracle():
    """Exact Jordan projections against the observed eigenvalue growth.

    Near X = 0+ an eigenvalue behaves as log|lambda(t)| = v*log(1/t) + log|c|
    + o(1), where v is its Jordan entry.  A one-point ratio
    log|lambda(t)| / log(1/t) carries the bias log|c| / log(1/t), so the
    slope between two points, which cancels log|c|, is what is compared.
    """
    import mpmath

    rep = pants_rep(ORDER0)
    rng = random.Random(2024)
    words = []
    pool = [w for level in ball_levels(("c1", "c2"), 5) for w, _ in level]
    rng.shuffle(pool)
    for w in pool:
        words.append(w)
        if len(words) == 55:
            break
    t1, t2 = Fraction(1, 10**6), Fraction(1, 10**7)
    worst = 0.0
    worst_ratio = 0.0
    violations = []
    with mpmath.workdps(80):
        log_step = mpmath.log(10)

        def to_mpf(value: Fraction):
            return mpmath.mpf(value.numerator) / mpmath.mpf(value.denominator)

        def error(got, want):
            """Absolute error for a zero entry, relative error otherwise."""
            return abs(got) if want == 0 else abs(got - want) / abs(want)

        def log_magnitudes(m, t):
            numeric = mpmath.matrix(
                [[to_mpf(e.evaluate(t)) for e in row] for row in m.entries]
            )
            eigenvalues = mpmath.eig(numeric, left=False, right=False)
            mags = sorted((abs(ev) for ev in eigenvalues), reverse=True)
            return [mpmath.log(mag) for mag in mags[: rep.n]]

        for w in words:
            m = rep.evaluate(w)
            vec = jordan_valuation(m, ADIC0)
            at_t1, at_t2 = log_magnitudes(m, t1), log_magnitudes(m, t2)
            for i, want in enumerate(float(v) for v in vec):
                slope = float((at_t2[i] - at_t1[i]) / log_step)
                ratio = float(at_t1[i] / (6 * log_step))
                worst_ratio = max(worst_ratio, error(ratio, want))
                err = error(slope, want)
                worst = max(worst, err)
                if (err >= 0.05) if want == 0 else (err > 0.05):
                    violations.append((str(w), i, slope, want))
    ok = not violations
    report(
        4,
        ok,
        f"{len(words)} words, two-point slope between X=1e-6 and X=1e-7: worst error "
        f"{worst:.2e} vs tolerance 0.05; {len(violations)} violating entries "
        f"(one-point ratio at X=1e-6, diagnostic only: worst error {worst_ratio:.3f})",
    )
    assert ok, (
        f"{len(violations)} Jordan entries across the {len(words)}-word sample differ from "
        "the two-point slope (log|lambda(1e-7)| - log|lambda(1e-6)|) / log 10 by more than "
        f"the tolerance (worst {worst:.3f}); first violations "
        f"(word, index, slope, exact): {violations[:4]}"
    )


# -- criterion 5: Maslov property suite ---------------------------------------


def test_criterion_5_maslov_suite():
    rng = random.Random(505)
    total = 0
    for n, rounds in ((1, 340), (2, 330), (3, 330)):
        for _ in range(rounds):
            l1, l2, l3, l4 = (random_lagrangian(rng, n) for _ in range(4))
            tau = maslov(l1, l2, l3)
            assert abs(tau) <= n
            assert maslov(l2, l1, l3) == -tau
            assert maslov(l1, l3, l2) == -tau
            g = random_symplectic(rng, n)
            assert maslov(l1.apply(g), l2.apply(g), l3.apply(g)) == tau
            cocycle = (
                maslov(l2, l3, l4) - maslov(l1, l3, l4) + maslov(l1, l2, l4) - maslov(l1, l2, l3)
            )
            assert cocycle == 0
            total += 1
    ok = report(5, total == 1000, f"{total} random triples, zero violations")
    assert ok


# -- criterion 6: crossratio axioms and period agreement ----------------------


def random_positive_slopes(rng, count):
    """Strictly increasing elements of Q(X) just right of 0."""
    pool = set()
    while len(pool) < count:
        c = Fraction(rng.randint(0, 6))
        d = Fraction(rng.randint(0, 4))
        pool.add(R(c) + R(d) * X)
    items = list(pool)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if ORDER0.compare(items[i], items[j]) > 0:
                items[i], items[j] = items[j], items[i]
    return items


def eigenline_framing(rng, count):
    """Lines fixed by conjugated diagonal SL(2, Q(X)) elements, plus orbits."""
    slopes = random_positive_slopes(rng, count)
    labels = tuple(str(i) for i in range(count))
    images = {labels[i]: Lagrangian.line(slopes[i]) for i in range(count)}
    return FramingTable(labels, images)


def graph_framing(rng, count, conjugator=None):
    ts = random_positive_slopes(rng, count)
    eye = Matrix.identity(2, R(1))

    def lag(t):
        l = Lagrangian.graph(eye.scale(t))
        return l.apply(conjugator) if conjugator is not None else l

    labels = tuple(str(i) for i in range(count))
    images = {labels[i]: lag(ts[i]) for i in range(count)}
    return FramingTable(labels, images)


def test_criterion_6_crossratio_axioms_and_periods():
    rng = random.Random(606)
    configs = 0
    # additivity + symmetry on nested five-point configurations
    for _ in range(700):
        framing = eigenline_framing(rng, 5)
        cr = FramingCrossratio(framing, ADIC0)
        outcome = crossratio_axiom_check(cr, [framing.labels])
        assert outcome.ok, outcome.violation
        configs += 1
    for _ in range(200):
        conj = random_symplectic(rng, 2).map(R) if rng.random() < 0.5 else None
        framing = graph_framing(rng, 5, conj)
        cr = FramingCrossratio(framing, ADIC0)
        outcome = crossratio_axiom_check(cr, [framing.labels])
        assert outcome.ok, outcome.violation
        configs += 1
    # framing periods equal translation-length periods wherever both exist
    agreements = 0
    pres = GroupPresentation(("a",), ())
    while configs < 1000:
        n = rng.choice((1, 2))
        # infinitesimal diagonal entries: graphs of t*I flow toward the
        # vertical Lagrangian, so (minus, x, gx, plus) is positively oriented
        if n == 1:
            u = rng.choice((X, X / 2, X**2))
            d = Matrix([[u, R(0)], [R(0), ONE / u]])
        else:
            u1 = rng.choice((X, X**2, X / 2))
            u2 = rng.choice((X, X / 3))
            d = Matrix(
                [
                    [u1, R(0), R(0), R(0)],
                    [R(0), u2, R(0), R(0)],
                    [R(0), R(0), ONE / u1, R(0)],
                    [R(0), R(0), R(0), ONE / u2],
                ]
            )
        h = random_symplectic(rng, n).map(R)
        g = h @ d @ symplectic_inverse(h)
        rep = RepTable(pres, {"a": g}, ORDER0, ADIC0)
        word = parse_word("a")
        plus = attracting_lagrangian(g, ADIC0)
        minus = repelling_lagrangian(g, ADIC0)
        t0 = R(rng.randint(1, 3))
        x = Lagrangian.graph(Matrix.identity(n, R(1)).scale(t0)).apply(h)
        gx = x.apply(g)
        framing = FramingTable(
            ("minus", "x", "gx", "plus"),
            {"minus": minus, "x": x, "gx": gx, "plus": plus},
            {word: {"minus": "minus", "plus": "plus", "x": "gx"}},
        )
        assert verify_maximal_framing(rep, framing).ok
        by_framing = period(rep, framing, word, "x")
        by_length = period_via_length(rep, word)
        assert by_framing.period == by_length.period, (str(d), by_framing, by_length)
        agreements += 1
        configs += 1
    ok = report(
        6,
        configs == 1000,
        f"{configs} configurations: axioms exact, {agreements} period agreements",
    )
    assert ok


# -- criterion 7: ordered-field suite -----------------------------------------


def test_criterion_7_ordered_field_suite():
    from helpers import random_ratfunc

    orders = [
        OrderSpec.at_plus(0),
        OrderSpec.at_minus(0),
        OrderSpec.plus_infinity(),
        OrderSpec.minus_infinity(),
    ]
    for order in orders:
        rng = random.Random(order.spec_string())
        for _ in range(1000):
            f, g = random_ratfunc(rng), random_ratfunc(rng)
            sf, sg = order.sign(f), order.sign(g)
            if sf > 0 and sg > 0:
                assert order.sign(f + g) > 0
                assert order.sign(f * g) > 0
            assert order.sign(f * f) in (0, 1)
            assert (sf == 0) == f.is_zero()
        witness = order.infinitely_large_element()
        for bound in (2**64, 2**64 + 1, 10**30):
            assert order.compare(witness, R(bound)) > 0
    ok = report(7, True, "4 orders x 1000 samples: axioms, squares, 2^64 witness")
    assert ok


# -- criterion 8: pseudodistance suite ----------------------------------------


def test_criterion_8_pseudodistance_suite():
    rng = random.Random(808)
    for _ in range(100):
        a, b, c = (random_symplectic_ratfunc(rng) for _ in range(3))
        assert max(m.max_degree() for m in (a, b, c)) <= 3
        dab = building_pseudodistance(a, b, ADIC0, NORM_SUM)
        dba = building_pseudodistance(b, a, ADIC0, NORM_SUM)
        dac = building_pseudodistance(a, c, ADIC0, NORM_SUM)
        dbc = building_pseudodistance(b, c, ADIC0, NORM_SUM)
        assert dab == dba
        assert dac <= dab + dbc
        k = random_symplectic_ratfunc(rng)
        assert building_pseudodistance(k @ a, k @ b, ADIC0, NORM_SUM) == dab
    ok = report(8, True, "100 random symplectic triples: symmetry, triangle, invariance")
    assert ok


# -- criterion 9: SL(2) lamination dichotomy ----------------------------------


def test_criterion_9_lamination_dichotomy():
    rng = random.Random(909)
    values = []
    while len(values) < 100:
        # slopes of attracting/repelling lines of conjugated hyperbolics
        h = random_symplectic(rng, 1).map(R)
        u = rng.choice((ONE / X, R(2) / X, ONE / X**2))
        d = Matrix([[u, R(0)], [R(0), ONE / u]])
        g = h @ d @ symplectic_inverse(h)
        fixed = [attracting_lagrangian(g, ADIC0), repelling_lagrangian(g, ADIC0)]
        extra_slopes = random_positive_slopes(rng, 4)
        lines = fixed + [Lagrangian.line(s) for s in extra_slopes]
        deduped = []
        for l in lines:
            if l not in deduped:
                deduped.append(l)
        if len(deduped) < 4:
            continue
        slopes = [_slope_of(l) for l in deduped[:6]]
        ordered = _sort_circle(slopes)
        if len(ordered) < 4:
            continue
        quad = ordered[:4]
        x = crossratio(
            _line(quad[1]), _line(quad[0]), _line(quad[2]), _line(quad[3])
        )
        assert ORDER0.compare(x, ONE) >= 0, (quad, str(x))
        values.append(x)
    outcome = lamination_dichotomy_check(values[:100], ORDER0, ADIC0)
    ok = report(9, outcome.ok, f"{outcome.checked} crossratio values, zero violations")
    assert outcome.ok, outcome.violations


def _slope_of(l: Lagrangian):
    (a,), (b,) = l.basis.entries
    if a.is_zero():
        return None
    return b / a


def _line(slope):
    return Lagrangian.line(slope)


def _sort_circle(slopes):
    finite = [s for s in slopes if s is not None]
    out = []
    for s in finite:
        if all(not (s == t) for t in out):
            out.append(s)
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            if ORDER0.compare(out[i], out[j]) > 0:
                out[i], out[j] = out[j], out[i]
    if any(s is None for s in slopes):
        out.append(None)
    return out
