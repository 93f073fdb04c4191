"""CLI commands, report schemas, determinism and exit codes."""

import contextlib
import io
import json
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

PY = [sys.executable, "-m", "valrep.cli"]


def run_cli(*argv, expect=0):
    proc = subprocess.run(
        PY + list(argv), capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == expect, proc.stdout + proc.stderr
    return json.loads(proc.stdout)


def strip_timing(report):
    report = dict(report)
    report.pop("timing_ms", None)
    return report


def test_pants_demo_aplus0():
    report = run_cli("pants-demo", "--order", "aplus:0")
    result = report["result"]
    assert result["symplectic"] == {"c1": True, "c2": True, "c3": True}
    assert result["relator_is_identity"] is True
    assert result["closed_point"]["kind"] == "closed"
    assert result["multicurve"]["kind"] == "multicurve_certified"
    assert result["trace_word"] == "(c1^-1 c3)^2"
    jordan_words = {row["word"]: row for row in result["jordan_table"]}
    assert jordan_words["c1"]["jordan"] == ["0", "0"]
    assert jordan_words["c1 c2^-1"]["length"] == "2"


def test_pants_demo_not_closed_at_one():
    for spec in ("aplus:1", "aminus:1"):
        report = run_cli("pants-demo", "--order", spec)
        assert report["result"]["closed_point"]["kind"] == "not_closed_integral"


def test_pants_demo_rejects_unknown_order():
    proc = subprocess.run(
        PY + ["pants-demo", "--order", "sideways:3"], capture_output=True, text=True
    )
    assert proc.returncode == 2
    payload = json.loads(proc.stdout)
    assert payload["error"]["code"] == "input"


def test_report_determinism():
    a = run_cli("pants-demo", "--order", "plusinf")
    b = run_cli("pants-demo", "--order", "plusinf")
    assert strip_timing(a) == strip_timing(b)


def test_translength_matrix_input():
    payload = json.dumps(
        {"matrix": [["X", "0"], ["0", "1/X"]]}
    )
    report = run_cli("translength", "--json", payload, "--valuation", "adic:0")
    assert report["result"]["length"] == "1"
    # the spread is max - min of the root valuations {1, -1}
    spread = run_cli("translength", "--json", payload, "--valuation", "adic:0", "--norm", "spread")
    assert strip_timing(spread) == {
        "schema": "valrep.report/1",
        "command": "translength",
        "result": {"norm": "spread", "valuation": "adic:0", "length": "2"},
    }


def test_jordan_matrix_input():
    payload = json.dumps(
        {"matrix": [["X^2", "0", "0", "0"], ["0", "X", "0", "0"], ["0", "0", "X^-2", "0"], ["0", "0", "0", "X^-1"]]}
    )
    report = run_cli("jordan", "--json", payload, "--valuation", "atinf")
    assert report["result"]["jordan"] == ["2", "1"]
    assert report["result"]["length"] == "3"


def test_maslov_standard_triple():
    payload = json.dumps(
        {"lagrangians": [[["1"], ["0"]], [["1"], ["1"]], [["0"], ["1"]]]}
    )
    report = run_cli("maslov", "--json", payload)
    assert report["result"] == {"maslov": 1, "maximal": True}


def test_maslov_without_order_needs_constant_char_poly_coefficients():
    # the form is S = [[1, X], [X, X^2 + 1]]; its char poly T^2 - (X^2 + 2) T + 1
    # has a non-constant coefficient, which only an order can sign
    payload = json.dumps(
        {
            "lagrangians": [
                [["1", "0"], ["0", "1"], ["0", "0"], ["0", "0"]],
                [["1", "0"], ["0", "1"], ["1", "X"], ["X", "X^2+1"]],
                [["0", "0"], ["0", "0"], ["1", "0"], ["0", "1"]],
            ]
        }
    )
    report = run_cli("maslov", "--json", payload, expect=2)
    assert report["error"]["code"] == "input"
    assert "OrderSpec" in report["error"]["message"]
    report = run_cli("maslov", "--json", payload, "--order", "aplus:0")
    assert report["result"] == {"maslov": 2, "maximal": True}


def test_crossratio_command():
    payload = json.dumps(
        {
            "lagrangians": [
                [["1"], ["0"]],
                [["0"], ["1"]],
                [["1"], ["1"]],
                [["1"], ["3"]],
            ]
        }
    )
    report = run_cli("crossratio", "--json", payload)
    assert report["result"]["crossratio"] == "3/2"


def test_closed_point_trivial_rep():
    rep_json = {
        "presentation": {"generators": ["a"], "relators": []},
        "order": "aplus:0",
        "valuation": "adic:0",
        "images": {"a": [["1", "0"], ["0", "1"]]},
    }
    report = run_cli("closed-point", "--json", json.dumps(rep_json))
    assert report["result"]["verdict"]["kind"] == "not_closed_integral"


def test_trace_command_pants_shortcut():
    payload = json.dumps({"representation": "pants", "order": "aplus:0"})
    report = run_cli("trace", "--json", payload, "--word", "c1")
    assert report["result"]["trace"] == "4"


def test_distance_command():
    payload = json.dumps(
        {"g1": [["1", "0"], ["0", "1"]], "g2": [["X", "0"], ["0", "1/X"]]}
    )
    report = run_cli("distance", "--json", payload, "--valuation", "adic:0")
    assert report["result"]["distance"] == "1"


def _error_report(message):
    payload = {"schema": "valrep.report/1", "error": {"code": "input", "message": message}}
    return json.dumps(payload, indent=2) + "\n"


IDENTITY_4 = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
DISTANCE_ERRORS = {
    "shape mismatch 2x2 @ 4x4": {"g1": [["1", "0"], ["0", "1"]], "g2": IDENTITY_4},
    "matrix is not invertible": {"g1": [["1", "2", "0", "0"], ["2", "4", "0", "0"],
                                        ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
                                 "g2": IDENTITY_4},
}


@pytest.mark.parametrize("message", sorted(DISTANCE_ERRORS))
def test_distance_error_reports(message):
    payload = json.dumps(DISTANCE_ERRORS[message])
    proc = subprocess.run(
        PY + ["distance", "--valuation", "adic:0", "--json", payload],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == _error_report(message)


JORDAN_INPUTS = [
    '{"representation": "pants", "order": "plusinf", "word": "c1 c2^-1"}',
    '{"matrix": [["X","1","0","0"],["0","X","0","0"],["0","0","1/X","0"],["2","0","0","1/X"]]}',
]


@pytest.mark.parametrize("payload", JORDAN_INPUTS)
def test_jordan_builds_one_polygon_per_report(payload, monkeypatch, capsys):
    from valrep import cli
    from valrep.linalg import FracMatrix

    calls = []

    def counting(self, original=FracMatrix.char_poly):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(FracMatrix, "char_poly", counting)
    flags = [] if "representation" in payload else ["--valuation", "atinf"]
    assert cli.main(["jordan", *flags, "--json", payload]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(calls) == 1
    assert len(report["result"]["jordan"]) == 2 and report["result"]["polygon"]


@st.composite
def jordan_matrices(draw):
    """h diag(c1 X^k1, c2 X^k2, 1/(c1 X^k1), 1/(c2 X^k2)) h^-1, h unipotent; maybe singular.

    Small exponents make repeated root valuations common; a singular
    draw sets one diagonal entry to 0.
    """
    from valrep.fields import ONE, RatFunc, X
    from valrep.linalg import Matrix

    from helpers import unipotent

    small = st.integers(-3, 3).filter(bool)
    zero = RatFunc.coerce(0)
    scalars = [draw(small) * X ** draw(st.integers(-2, 2)) for _ in range(2)]
    diagonal = scalars + [ONE / c for c in scalars]
    if draw(st.booleans()) and draw(st.booleans()):
        diagonal[draw(st.integers(0, 3))] = zero
    d = Matrix([[e if i == j else zero for j in range(4)] for i, e in enumerate(diagonal)])
    entries = [ONE * draw(small), X + draw(small), ONE / (X - draw(small))]
    s = [[entries[0], entries[2]], [entries[2], entries[1]]]
    minus_s = [[-e for e in row] for row in s]
    upper = draw(st.booleans())
    return unipotent(upper, s) @ d @ unipotent(upper, minus_s)


@settings(max_examples=40)
@given(jordan_matrices(), st.sampled_from(["adic:0", "adic:1", "adic:-1/2", "atinf"]))
def test_jordan_polygon_is_the_shifted_newton_polygon(m, spec):
    # the report's polygon, rebuilt from the root-valuation list, lists the
    # Newton polygon of char_poly(N) shifted by -nu(D), for g = N/D
    from valrep import cli
    from valrep.fields import format_ratfunc
    from valrep.linalg import FracMatrix
    from valrep.valuation import Valuation, newton_polygon

    payload = json.dumps({"matrix": [[format_ratfunc(e) for e in row] for row in m.entries]})
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["jordan", "--json", payload, "--valuation", spec])
    image = FracMatrix.from_matrix(m)
    val = Valuation.from_spec_string(spec)
    polygon = newton_polygon(image.char_poly(), val)
    if polygon.zero_roots:
        assert code == 2
        assert out.getvalue() == _error_report("matrix is singular; Jordan data undefined")
        return
    assert code == 0
    shift = val.of(image.den)
    expected = [{"slope": cli.frac_str(shift - v), "mult": k} for v, k in polygon.root_valuations]
    assert json.loads(out.getvalue())["result"]["polygon"] == expected


def test_jordan_polygon_merges_repeated_root_valuations():
    payload = json.dumps({"matrix": [["X", "0", "0", "0"], ["0", "2*X", "0", "0"],
                                     ["0", "0", "1/X", "0"], ["0", "0", "0", "1/(2*X)"]]})
    report = run_cli("jordan", "--json", payload, "--valuation", "adic:0")
    assert report["result"]["polygon"] == [{"slope": "1", "mult": 2}, {"slope": "-1", "mult": 2}]


def test_periods_command():
    payload = json.dumps(
        {"representation": "pants", "order": "aplus:0", "words": ["c1", "c1 c2^-1"]}
    )
    report = run_cli("periods", "--json", payload)
    periods = {row["word"]: row["period"] for row in report["result"]["periods"]}
    assert periods == {"c1": "0", "c1 c2^-1": "2"}


def test_multicurve_command_short():
    payload = json.dumps({"representation": "pants", "order": "plusinf"})
    report = run_cli("multicurve", "--json", payload, "--maxlen", "2", "--kmax", "8")
    assert report["result"]["kind"] == "multicurve_certified"
    assert all(row["k_times_period_integral"] for row in report["result"]["residue_check"])


def test_maximality_command():
    framing = {
        "labels": ["m", "x", "gx", "p"],
        "images": {
            "m": [["1"], ["0"]],
            "x": [["1"], ["1"]],
            "gx": [["1"], ["X^-2"]],
            "p": [["0"], ["1"]],
        },
        "symmetries": {"a": {"m": "m", "p": "p", "x": "gx"}},
    }
    rep_json = {
        "presentation": {"generators": ["a"], "relators": []},
        "order": "aplus:0",
        "valuation": "adic:0",
        "images": {"a": [["X", "0"], ["0", "1/X"]]},
    }
    payload = json.dumps({"representation": rep_json, "framing": framing})
    report = run_cli("maximality", "--json", payload)
    assert report["result"]["ok"] is True
    assert report["result"]["triples_checked"] == 4


def test_degree_guard_exit_code():
    payload = json.dumps({"representation": "pants", "order": "aplus:0"})
    proc = subprocess.run(
        PY + ["multicurve", "--json", payload, "--maxlen", "4", "--degree-bound", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    body = json.loads(proc.stdout)
    assert body["error"]["code"] == "degree_guard"


@pytest.mark.parametrize("maxlen", ["0", "-1"])
def test_multicurve_rejects_nonpositive_maxlen(maxlen):
    pants = '{"representation": "pants", "order": "plusinf"}'
    report = run_cli("multicurve", "--json", pants, "--maxlen", maxlen, expect=2)
    assert report["error"]["code"] == "input"


@pytest.mark.parametrize("kmax", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["multicurve", "--json", '{"representation": "pants"}', "--maxlen", "1"],
        ["pants-demo", "--radius", "1", "--maxlen", "1"],
    ],
)
def test_nonpositive_kmax_is_an_input_error(argv, kmax, capsys):
    from valrep import cli

    assert cli.main([*argv, "--kmax", kmax]) == 2
    assert capsys.readouterr().out == _error_report("k_max must be >= 1")


SINGULAR_INPUTS = {
    "distance": '{"g1": [["0","0"],["0","0"]], "g2": [["1","0"],["0","1"]]}',
    "translength": '{"matrix": [["0","0"],["0","0"]]}',
}


@pytest.mark.parametrize("command", sorted(SINGULAR_INPUTS))
def test_singular_matrix_is_an_input_error(command):
    report = run_cli(
        command, "--valuation", "adic:0", "--json", SINGULAR_INPUTS[command], expect=2
    )
    assert report["error"]["code"] == "input"


def test_huge_exponent_is_rejected_at_once():
    payload = '{"matrix": [["X^99999999","0"],["0","1"]]}'
    started = time.monotonic()
    report = run_cli("translength", "--valuation", "adic:0", "--json", payload, expect=2)
    assert time.monotonic() - started < 2
    assert report["error"]["code"] == "input"
    assert "99999999" in report["error"]["message"] and "512" in report["error"]["message"]


def test_word_ball_beyond_the_limit_exits_2():
    # 2 (3^10 - 1) = 118,096 words through length 10: refused before that level is built
    pants = '{"representation": "pants", "order": "aplus:0"}'
    started = time.monotonic()
    report = run_cli("multicurve", "--json", pants, "--maxlen", "30", expect=2)
    assert time.monotonic() - started < 60
    assert report["error"] == {
        "code": "input",
        "message": "word ball of radius 30 exceeds 65536 words: length 10 brings it to 118096",
    }


def test_degree_bound_admits_its_own_degree():
    payload = '{"matrix": [["X^512","0"],["0","X^-512"]]}'
    report = run_cli("translength", "--valuation", "adic:0", "--json", payload)
    assert report["result"]["length"] == "512"
    tight = run_cli(
        "translength", "--valuation", "adic:0", "--json", payload, "--degree-bound", "511",
        expect=2,
    )
    assert tight["error"]["code"] == "input"


def test_quotient_of_large_powers_exits_0():
    # the Z[X] gcd of (X+1)^512 and (X+2)^512 must not hang the parser or the clearing
    payload = json.dumps({"matrix": [["(X+1)^512/(X+2)^512", "0"], ["0", "(X+2)^512/(X+1)^512"]]})
    report = run_cli("translength", "--valuation", "adic:0", "--json", payload)
    assert report["result"]["length"] == "0"


NEGATIVE_BOUND_CASES = {
    "multicurve": ("--json", '{"representation": "pants", "order": "aplus:0"}'),
    "translength": ("--valuation", "adic:0", "--json", '{"matrix": [["2^3","0"],["0","1/8"]]}'),
}


@pytest.mark.parametrize("command", sorted(NEGATIVE_BOUND_CASES))
def test_negative_degree_bound_is_an_input_error(command):
    args = NEGATIVE_BOUND_CASES[command]
    report = run_cli(command, *args, "--degree-bound", "-1", expect=2)
    assert report["error"]["code"] == "input"
    assert report["error"]["message"] == "--degree-bound must be >= 0, got -1"
    if command == "translength":  # a bound of 0 is still a bound
        assert run_cli(command, *args, "--degree-bound", "0")["result"]["length"] == "0"


def test_schema_error_exit_code():
    proc = subprocess.run(
        PY + ["translength", "--json", '{"matrix": [["X"], ["1", "2"]]}', "--valuation", "adic:0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    body = json.loads(proc.stdout)
    assert body["error"]["code"] == "input"


def test_reports_validate_against_shipped_schema():
    import jsonschema
    from pathlib import Path

    schema = json.loads(Path("schemas/report.schema.json").read_text())
    good = run_cli("pants-demo", "--order", "aplus:1")
    jsonschema.validate(good, schema)
    proc = subprocess.run(
        PY + ["translength", "--json", "{}", "--valuation", "adic:0"],
        capture_output=True,
        text=True,
    )
    jsonschema.validate(json.loads(proc.stdout), schema)


ADVERSARIAL_ENTRIES = {
    "constant power": "6^52172538",
    "constant tower": "((6^512)^512)^512",
    "nested parentheses": "(" * 3000 + "X" + ")" * 3000,
    "unary minus run": "-" * 5000 + "X^600",
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL_ENTRIES))
def test_adversarial_expressions_exit_2_at_once(name):
    payload = json.dumps({"matrix": [[ADVERSARIAL_ENTRIES[name], "0"], ["0", "1"]]})
    started = time.monotonic()
    report = run_cli("translength", "--valuation", "adic:0", "--json", payload, expect=2)
    assert time.monotonic() - started < 5
    assert report["error"]["code"] == "input"


BAD_IMAGES = {
    "image of 'a' is not symplectic": [["2", "0"], ["0", "1"]],
    "image of 'a' is not square": [["1", "0", "0"], ["0", "1", "0"]],
}


@pytest.mark.parametrize("message", sorted(BAD_IMAGES))
def test_bad_generator_image_reports(message):
    rep = {
        "presentation": {"generators": ["a"], "relators": []},
        "order": "aplus:0",
        "valuation": "adic:0",
        "images": {"a": BAD_IMAGES[message]},
    }
    proc = subprocess.run(
        PY + ["closed-point", "--json", json.dumps(rep)], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stdout == _error_report(message)


# flags that a subcommand does not read; only maslov and pants-demo use an order
UNREAD_FLAGS = {
    "pants-demo": [["--word", "c1"]],
    "symplectic-check": [["--radius", "3"], ["--order", "plusinf"]],
    "trace": [["--norm", "sum"], ["--order", "plusinf"]],
    "translength": [["--kmax", "3"], ["--order", "plusinf"]],
    "jordan": [["--norm", "sum"], ["--order", "plusinf"]],
    "closed-point": [["--valuation", "adic:0"], ["--order", "plusinf"]],
    "maslov": [["--kmax", "3"]],
    "crossratio": [["--order", "plusinf"]],
    "maximality": [["--word", "a"], ["--order", "plusinf"]],
    "periods": [["--maxlen", "2"], ["--order", "plusinf"]],
    "multicurve": [["--radius", "3"], ["--order", "plusinf"]],
    "distance": [["--word", "a"], ["--order", "plusinf"]],
}


@pytest.mark.parametrize("command", sorted(UNREAD_FLAGS))
def test_unread_flags_are_rejected(command):
    from valrep import cli

    for flags in UNREAD_FLAGS[command]:
        with pytest.raises(SystemExit) as exit_:
            cli.build_parser().parse_args([command, *flags])
        assert exit_.value.code == 2


PANTS_WORD = {"representation": "pants", "order": "aplus:0", "word": "c1 c2^-1"}
# translength and jordan: a flag given with an input that does not read it
MODE_ERRORS = {
    "representation with --valuation": (
        ["--valuation", "atinf"], PANTS_WORD,
        "--valuation does not apply to a representation, which names its own",
    ),
    "matrix with --word": (
        ["--valuation", "adic:0", "--word", "c1"], {"matrix": [["X", "0"], ["0", "1/X"]]},
        "--word does not apply to a matrix input",
    ),
    "matrix without --valuation": (
        [], {"matrix": [["X", "0"], ["0", "1/X"]]}, "--valuation is required for this command"
    ),
    # an empty flag is given, not absent
    "representation with --valuation=": (
        ["--valuation="], PANTS_WORD,
        "--valuation does not apply to a representation, which names its own",
    ),
    "matrix with --word=": (
        ["--valuation", "adic:0", "--word="], {"matrix": [["X", "0"], ["0", "1/X"]]},
        "--word does not apply to a matrix input",
    ),
}


@pytest.mark.parametrize("command", ["translength", "jordan"])
@pytest.mark.parametrize("case", sorted(MODE_ERRORS))
def test_flags_the_input_does_not_read_are_input_errors(command, case, capsys):
    from valrep import cli

    flags, payload, message = MODE_ERRORS[case]
    assert cli.main([command, *flags, "--json", json.dumps(payload)]) == 2
    assert capsys.readouterr().out == _error_report(message)


@pytest.mark.parametrize("command", ["closed-point", "multicurve", "symplectic-check"])
def test_input_and_json_together_are_an_input_error(command, tmp_path, capsys):
    # neither source wins: the file is refused whether or not it can be read
    from valrep import cli

    payload = json.dumps({"representation": "pants", "order": "aplus:1"})
    readable = tmp_path / "input.json"
    readable.write_text(payload)
    for path in (readable, tmp_path / "missing.json"):
        assert cli.main([command, "--json", payload, "--input", str(path)]) == 2
        assert capsys.readouterr().out == _error_report(
            "give --input FILE or --json INLINE, not both"
        )


def test_pants_shortcut_defaults_to_aplus_0(capsys):
    from valrep import cli

    payload = json.dumps({"representation": "pants"})
    assert cli.main(["closed-point", "--radius", "1", "--json", payload]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["order"] == "aplus:0" and result["valuation"] == "adic:0"


@pytest.mark.parametrize("flag", ["--order=", "--valuation="])
def test_pants_demo_rejects_empty_flags(flag, capsys):
    from valrep import cli

    assert cli.main(["pants-demo", "--radius", "1", "--maxlen", "1", flag]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "input"


@pytest.mark.parametrize(
    "argv", [["pants-demo", "--radius", "1", "--maxlen", "1"], ["closed-point", "--json", "{}"]]
)
def test_closed_stdout_exits_141_without_a_traceback(argv):
    from valrep.cli import CLOSED_STDOUT

    proc = subprocess.Popen(PY + argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the reader leaves before the report is written
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=300) == CLOSED_STDOUT == 141
    assert "Traceback" not in stderr and "Exception ignored" not in stderr, stderr


SYMPLECTIC_CHECKS = {
    "symplectic": (
        [["1", "X", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "-X", "1"]],
        {"symplectic": True},
    ),
    "not symplectic": (
        [["1", "X", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "X", "1"]],
        {"symplectic": False},
    ),
    "scaled": ([["2", "0"], ["0", "1"]], {"symplectic": False}),
}


@pytest.mark.parametrize("name", sorted(SYMPLECTIC_CHECKS))
def test_symplectic_check_on_matrices(name, capsys):
    from valrep import cli

    matrix, expected = SYMPLECTIC_CHECKS[name]
    assert cli.main(["symplectic-check", "--json", json.dumps({"matrix": matrix})]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "symplectic-check" and report["result"] == expected


def test_symplectic_check_rejects_odd_size(capsys):
    from valrep import cli

    identity_3 = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    assert cli.main(["symplectic-check", "--json", json.dumps({"matrix": identity_3})]) == 2
    assert capsys.readouterr().out == _error_report("symplectic matrices have even size")


def test_jordan_rejects_odd_size(capsys):
    from valrep import cli

    payload = json.dumps({"matrix": [["X", "0", "0"], ["0", "1", "0"], ["0", "0", "1/X"]]})
    assert cli.main(["jordan", "--json", payload, "--valuation", "adic:0"]) == 2
    assert capsys.readouterr().out == _error_report("symplectic matrices have even size")


def test_symplectic_check_on_the_pants_rep(capsys):
    from valrep import cli

    payload = json.dumps({"representation": "pants", "order": "plusinf"})
    assert cli.main(["symplectic-check", "--json", payload]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"] == {"symplectic": {"c1": True, "c2": True, "c3": True}}


def test_pants_demo_passes_its_degree_bound_to_the_multicurve_sweep(capsys):
    from valrep import cli

    argv = ["pants-demo", "--order", "aplus:0", "--radius", "1", "--degree-bound", "1"]
    assert cli.main(argv) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    # the representation owns the bound, so it fires first in the relator check c3 c2 c1
    assert error["code"] == "degree_guard" and error["word"] == "c3" and error["degree"] == 2


REP_A = {
    "presentation": {"generators": ["a"], "relators": []},
    "order": "aplus:0",
    "valuation": "adic:0",
    "images": {"a": [["X", "0"], ["0", "1/X"]]},
}
FRAMING_A = {
    "labels": ["m", "x", "gx", "p"],
    "images": {
        "m": [["1"], ["0"]], "x": [["1"], ["1"]], "gx": [["1"], ["X^-2"]], "p": [["0"], ["1"]]
    },
    "symmetries": {"a": {"m": "m", "p": "p", "x": "gx"}},
}
LINES_3 = {"lagrangians": [[["1"], ["0"]], [["1"], ["1"]], [["0"], ["1"]]]}
DIAG_2 = {"matrix": [["X", "0"], ["0", "1/X"]]}
PANTS_0 = {"representation": "pants", "order": "aplus:0"}


DROP = object()


def _with(base, path, value):
    """A deep copy of base with the value at path (a tuple of keys) replaced, or dropped."""
    out = json.loads(json.dumps(base))
    node = out
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return out


# inputs that once escaped as tracebacks: (subcommand and flags, JSON value or raw text)
MALFORMED_INPUTS = {
    "maslov --order 1/0": (["maslov", "--order", "aplus:1/0"], LINES_3),
    "translength --valuation 1/0": (["translength", "--valuation", "adic:1/0"], DIAG_2),
    "jordan --valuation 1/0": (["jordan", "--valuation", "adic:1/0"], DIAG_2),
    "distance --valuation 1/0": (
        ["distance", "--valuation", "adic:1/0"], {"g1": DIAG_2["matrix"], "g2": DIAG_2["matrix"]}
    ),
    "order field 1/0": (["closed-point"], _with(REP_A, ("order",), "aplus:1/0")),
    "valuation field 1/0": (["closed-point"], _with(REP_A, ("valuation",), "adic:1/0")),
    "pants order 5": (["closed-point"], {"representation": "pants", "order": 5}),
    "representation order 7": (["closed-point"], _with(REP_A, ("order",), 7)),
    "trace word c9": (["trace", "--word", "c9"], PANTS_0),
    "periods word c9": (["periods"], dict(PANTS_0, words=["c9"])),
    "symmetry word c9": (
        ["maximality"],
        {"representation": REP_A, "framing": _with(FRAMING_A, ("symmetries",), {"c9": {"m": "m"}})},
    ),
    "images []": (["closed-point"], _with(REP_A, ("images",), [])),
    "relators [5]": (["closed-point"], _with(REP_A, ("presentation", "relators"), [5])),
    "generators 5": (["closed-point"], _with(REP_A, ("presentation", "generators"), 5)),
    "free_generators 5": (["closed-point"], _with(REP_A, ("free_generators",), 5)),
    "free_generators []": (["closed-point"], _with(REP_A, ("free_generators",), [])),
    "free_generators [a, a]": (["closed-point"], _with(REP_A, ("free_generators",), ["a", "a"])),
    "generators [[1]]": (["closed-point"], _with(REP_A, ("presentation", "generators"), [[1]])),
    "labels [[1]]": (
        ["maximality"], {"representation": REP_A, "framing": _with(FRAMING_A, ("labels",), [[1]])}
    ),
    "symmetries c1: 5": (
        ["maximality"],
        {"representation": REP_A, "framing": _with(FRAMING_A, ("symmetries",), {"c1": 5})},
    ),
    "100000 nested [": (["closed-point"], "[" * 100_000),
    "trace word c1^999999999": (["trace", "--word", "c1^999999999"], PANTS_0),
    "relator a^999999999": (
        ["closed-point"], _with(REP_A, ("presentation", "relators"), ["a^999999999"])
    ),
    "symmetry word a^999999999": (
        ["maximality"],
        {
            "representation": REP_A,
            "framing": _with(FRAMING_A, ("symmetries",), {"a^999999999": {"m": "m"}}),
        },
    ),
    # empty flags and fields are given, not absent
    "pants order ''": (["closed-point"], {"representation": "pants", "order": ""}),
    "trace --word= over a word field": (["trace", "--word="], dict(PANTS_0, word="c1")),
    "translength --word= with a matrix": (
        ["translength", "--valuation", "adic:0", "--word="], DIAG_2
    ),
    "translength --valuation= with a representation": (["translength", "--valuation="], PANTS_WORD),
    "jordan --valuation= with a matrix": (["jordan", "--valuation="], DIAG_2),
    "maslov --order=": (["maslov", "--order="], LINES_3),
}


@pytest.mark.parametrize("source", ["--json", "--input"])
@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_2(name, source, tmp_path, capsys):
    from valrep import cli

    argv, payload = MALFORMED_INPUTS[name]
    text = payload if isinstance(payload, str) else json.dumps(payload)
    if source == "--input":
        (tmp_path / "input.json").write_text(text)
        text = str(tmp_path / "input.json")
    assert cli.main([*argv, source, text]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "input"


@pytest.mark.parametrize("command", ["jordan", "periods", "trace", "translength"])
def test_word_images_honour_the_degree_bound(command, capsys):
    from valrep import cli

    word = " ".join(["c1 c2^-1"] * 8)  # (c1 c2^-1)^8, whose trace has degree 16
    argv = [command, "--json", json.dumps(dict(PANTS_0, word=word, words=[word]))]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert cli.main([*argv, "--degree-bound", "4"]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == "degree_guard" and error["bound"] == 4
    assert error["word"].startswith("c1 c2^-1 c1 c2^-1")


# one well-formed input per subcommand, with small --radius, --maxlen and --kmax
WELL_FORMED = {
    "pants-demo": (["--radius", "1", "--maxlen", "1", "--kmax", "2"], None),
    "symplectic-check": ([], {"matrix": [["1", "X"], ["0", "1"]]}),
    "trace": ([], dict(PANTS_0, word="c1 c2^-1")),
    "translength": (["--valuation", "adic:0"], DIAG_2),
    "jordan": ([], {"representation": REP_A, "word": "a"}),
    "closed-point": (["--radius", "1"], REP_A),
    "maslov": ([], LINES_3),
    "crossratio": ([], {"lagrangians": LINES_3["lagrangians"] + [[["1"], ["3"]]]}),
    "maximality": ([], {"representation": REP_A, "framing": FRAMING_A}),
    "periods": ([], dict(PANTS_0, words=["c1", "c1 c2^-1"])),
    "multicurve": (["--maxlen", "1", "--kmax", "2"], PANTS_0),
    "distance": (
        ["--valuation", "adic:0"], {"g1": DIAG_2["matrix"], "g2": [["1", "0"], ["0", "1"]]}
    ),
}
TOKENS = ["", "X", "1/X", "0", "1/0", "a", "c1", "c9", "c1 c2^-1", "pants", "m", "x",
          "aplus:0", "aplus:1/0", "aminus:x", "plusinf", "adic:0", "adic:1/0", "atinf"]
KEYS = ["representation", "order", "valuation", "presentation", "generators", "relators",
        "images", "free_generators", "matrix", "word", "words", "lagrangians", "framing",
        "labels", "symmetries", "g1", "g2", "a", "m", "x", "gx", "p"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats() | st.sampled_from(TOKENS)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)


def paths(value, prefix=()):
    """The path (a tuple of keys) of every value inside a JSON value, the root's () included."""
    yield prefix
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from paths(child, prefix + (key,))


@settings(max_examples=400)
@given(st.sampled_from(sorted(WELL_FORMED)), st.data())
def test_malformed_json_shapes_exit_0_2_or_3(command, data):
    from valrep import cli

    flags, payload = WELL_FORMED[command]
    if payload is None:  # pants-demo reads only flags
        specs = st.sampled_from(TOKENS) | st.text(max_size=6)
        argv = [command, *flags, f"--order={data.draw(specs)}", f"--valuation={data.draw(specs)}"]
    else:
        for _ in range(data.draw(st.integers(1, 2))):  # replace or drop one or two values
            path = data.draw(st.sampled_from(list(paths(payload))))
            value = data.draw(json_values | st.just(DROP) if path else json_values)
            payload = _with(payload, path, value) if path else value
        argv = [command, *flags, f"--json={json.dumps(payload)}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code in (0, 2, 3)
    if code == 2:
        assert json.loads(out.getvalue())["error"]["code"] == "input"
