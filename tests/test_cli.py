"""CLI commands, report schemas, determinism and exit codes."""

import json
import subprocess
import sys
import time

import pytest

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


def test_degree_bound_admits_its_own_degree():
    payload = '{"matrix": [["X^512","0"],["0","X^-512"]]}'
    report = run_cli("translength", "--valuation", "adic:0", "--json", payload)
    assert report["result"]["length"] == "512"
    tight = run_cli(
        "translength", "--valuation", "adic:0", "--json", payload, "--degree-bound", "511",
        expect=2,
    )
    assert tight["error"]["code"] == "input"


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
