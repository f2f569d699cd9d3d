"""Command-line interface: exit codes, report envelopes, serialization."""

import collections
import io
import json
import math

import numpy as np
import pytest

from quadfactor import (
    EXIT_CODES,
    RunReport,
    document_to_matrix,
    extract_matrix_document,
    format_json,
    matrix_to_document,
    parse_matrix_text,
)
from quadfactor import canonical as canonical_module
from quadfactor import cli as cli_module
from quadfactor import factorize as factorize_module
from quadfactor import io as io_module
from quadfactor.cli import main

COUNTEREXAMPLE = np.array([[9.0, 3.0], [0.0, 16.0]]) / 25.0
FEASIBLE = np.array([[0.36, 0.05], [0.0, 0.64]])


def write_matrix(path, matrix):
    path.write_text(format_json(matrix_to_document(matrix)) + "\n")
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# exit codes and verdicts


def test_check_feasible_exits_zero(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", FEASIBLE)
    code, report = run_json(capsys, ["check", "--input", path])
    assert code == 0
    assert report["verdict"] == "ok"
    assert report["payload"]["feasibility"]["feasible"] is True


def test_check_counterexample_exits_two(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", COUNTEREXAMPLE)
    code, report = run_json(capsys, ["check", "--input", path])
    assert code == 2
    assert report["verdict"] == "infeasible"
    feas = report["payload"]["feasibility"]
    assert feas["bound"] == pytest.approx(0.096, abs=1e-12)
    assert feas["p_norm"] == pytest.approx(0.12, abs=1e-12)
    assert feas["margin"] == pytest.approx(-0.024, abs=1e-12)


def test_check_not_quadratic_exits_three(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", np.diag([0.1, 0.5, 0.9]))
    code, report = run_json(capsys, ["check", "--input", path])
    assert code == 3
    assert report["verdict"] == "not_quadratic"
    assert report["payload"]["residual"] > 1e-3


def test_malformed_json_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{this is not json")
    code, report = run_json(capsys, ["check", "--input", str(path)])
    assert code == 1
    assert report["verdict"] == "error"
    assert "message" in report["payload"]


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_missing_subcommand_exits_one(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("check", "factor", "canonical", "bound", "oracle", "verify", "gen"):
        assert name in out


def test_exit_code_table():
    assert EXIT_CODES == {"ok": 0, "error": 1, "infeasible": 2, "not_quadratic": 3}
    assert RunReport("check", "infeasible", {}).exit_code == 2


# ---------------------------------------------------------------------------
# factor and verify round trip


def test_factor_then_verify_round_trip(tmp_path, capsys):
    mat = write_matrix(tmp_path / "m.json", FEASIBLE)
    out = tmp_path / "factored.json"
    code = main(["factor", "--input", mat, "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "ok"
    assert report["payload"]["report"]["passed"] is True

    code, verdict = run_json(capsys, ["verify", "--input", str(out)])
    assert code == 0
    assert verdict["verdict"] == "ok"
    assert verdict["payload"]["report"]["product_residual"] <= 1e-9


def test_factor_reconstructs_input(tmp_path, capsys):
    mat = write_matrix(tmp_path / "m.json", FEASIBLE)
    code, report = run_json(capsys, ["factor", "--input", mat])
    assert code == 0
    a = document_to_matrix(report["payload"]["a"])
    b = document_to_matrix(report["payload"]["b"])
    assert np.abs(a @ b - FEASIBLE).max() <= 1e-10


def test_factor_counterexample_exits_two(tmp_path, capsys):
    mat = write_matrix(tmp_path / "m.json", COUNTEREXAMPLE)
    code, report = run_json(capsys, ["factor", "--input", mat])
    assert code == 2
    assert report["verdict"] == "infeasible"
    assert report["payload"]["feasibility"]["margin"] == pytest.approx(
        -0.024, abs=1e-12
    )
    assert report["payload"]["canonical"]["r"] == 1


@pytest.mark.parametrize(
    "command, matrix",
    [
        ("check", FEASIBLE),
        ("check", COUNTEREXAMPLE),
        ("factor", FEASIBLE),
        ("factor", COUNTEREXAMPLE),
        ("canonical", FEASIBLE),
    ],
)
def test_each_stage_runs_once_per_invocation(tmp_path, capsys, monkeypatch, command, matrix):
    calls = collections.Counter()
    stages = {
        "detect_quadratic": canonical_module.detect_quadratic,
        "canonicalize": canonical_module.canonicalize,
        "assess_feasibility": factorize_module.assess_feasibility,
    }
    for name, fn in stages.items():
        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        # the stages are looked up in the namespaces of the modules that call them
        for module in (factorize_module, cli_module):
            monkeypatch.setattr(module, name, counted, raising=False)
    path = write_matrix(tmp_path / "m.json", matrix)
    code, _ = run_json(capsys, [command, "--input", path])
    assert code in (0, 2)
    assert calls["detect_quadratic"] == 1
    assert calls["canonicalize"] == 1
    assert calls["assess_feasibility"] <= 1


def test_verify_rejects_missing_keys(tmp_path, capsys):
    path = tmp_path / "incomplete.json"
    path.write_text(format_json({"t": matrix_to_document(FEASIBLE)}))
    code, report = run_json(capsys, ["verify", "--input", str(path)])
    assert code == 1
    assert "lacks keys" in report["payload"]["message"]


def test_verify_flags_wrong_factors(tmp_path, capsys):
    doc = {
        "t": matrix_to_document(FEASIBLE),
        "a": matrix_to_document(np.eye(2)),
        "b": matrix_to_document(np.eye(2)),
    }
    path = tmp_path / "wrong.json"
    path.write_text(format_json(doc))
    code, report = run_json(capsys, ["verify", "--input", str(path)])
    assert code == 1
    assert report["verdict"] == "error"
    assert report["payload"]["report"]["passed"] is False


# ---------------------------------------------------------------------------
# gen, canonical, bound, oracle


def test_gen_then_check_round_trip(tmp_path, capsys):
    gen_path = tmp_path / "gen.json"
    code = main(
        ["gen", "1", "1", "1", "0.3", "0.7", "0.1", "--seed", "4", "--output", str(gen_path)]
    )
    assert code == 0
    generated = json.loads(gen_path.read_text())
    assert generated["payload"]["t"]["rows"] == 4

    code, report = run_json(capsys, ["check", "--input", str(gen_path)])
    assert code == 0
    payload = report["payload"]
    assert payload["params"]["a"] == pytest.approx([0.3, 0.0], abs=1e-9)
    assert payload["params"]["b"] == pytest.approx([0.7, 0.0], abs=1e-9)
    assert payload["canonical"]["r"] == 1
    assert payload["canonical"]["p_values"] == pytest.approx([0.1], abs=1e-9)


def test_gen_validates_coupling_count(capsys):
    code, report = run_json(capsys, ["gen", "1", "1", "2", "0.3", "0.7", "0.1"])
    assert code == 1
    assert report["verdict"] == "error"


def test_canonical_subcommand(tmp_path, capsys):
    path = write_matrix(tmp_path / "m.json", np.array([[0.36, 0.096], [0.0, 0.64]]))
    code, report = run_json(capsys, ["canonical", "--input", path])
    assert code == 0
    payload = report["payload"]
    assert payload["canonical"] == {
        "d1": 0,
        "d2": 0,
        "r": 1,
        "p_values": [pytest.approx(0.096, abs=1e-12)],
    }
    unitary = document_to_matrix(payload["unitary"])
    assert np.abs(unitary @ unitary.conj().T - np.eye(2)).max() <= 1e-12


def test_bound_point_value(capsys):
    code, report = run_json(capsys, ["bound", "0.36", "0.64"])
    assert code == 0
    assert report["payload"]["bound"] == pytest.approx(0.096, abs=1e-12)


def test_bound_without_arguments_is_an_error(capsys):
    code, report = run_json(capsys, ["bound"])
    assert code == 1
    assert report["verdict"] == "error"


def test_bound_grid_csv(capsys):
    code, out = run_cli(capsys, ["bound", "--grid", "3"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "a,b,bound"
    assert len(lines) == 1 + 9
    table = {tuple(line.split(",")[:2]): float(line.split(",")[2]) for line in lines[1:]}
    assert table[("0", "0.5")] == pytest.approx(0.5, abs=1e-15)
    assert table[("1", "1")] == 0.0


def test_bound_grid_respects_ranges(capsys):
    code, out = run_cli(
        capsys,
        ["bound", "--grid", "2", "--a-range", "0.2", "0.4", "--b-range", "0.6", "0.8"],
    )
    assert code == 0
    lines = out.strip().split("\n")[1:]
    starts = [tuple(float(f) for f in line.split(",")[:2]) for line in lines]
    assert starts == [(0.2, 0.6), (0.2, 0.8), (0.4, 0.6), (0.4, 0.8)]


def test_oracle_subcommand(capsys):
    code, report = run_json(
        capsys, ["oracle", "0.36", "0.64", "0.05", "--budget", "10000"]
    )
    assert code == 0
    payload = report["payload"]
    assert payload["budget"] == 10000
    assert payload["best_residual"] <= 1e-6
    assert len(payload["parameters"]) == 6
    assert payload["evaluations"] >= 4 ** 6


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["oracle", "0.36", "0.64", "0.05", "--budget", "2000001"], "2000000"),
        (["bound", "--grid", "501"], "500"),
    ],
)
def test_cost_limits_refuse_one_step_past(capsys, monkeypatch, argv, limit):
    def never(*args, **kwargs):
        raise AssertionError("the work ran despite the limit")

    monkeypatch.setattr(cli_module, "oracle_2x2", never)
    monkeypatch.setattr(cli_module, "feasibility_bound", never)
    code, report = run_json(capsys, argv)
    assert code == 1
    assert report["verdict"] == "error"
    assert "exceeds the limit of %s" % limit in report["payload"]["message"]


@pytest.mark.parametrize(
    "command, text", [("oracle", "at most 2000000"), ("bound", "N <= 500")]
)
def test_cost_limits_are_documented_in_help(capsys, command, text):
    code, out = run_cli(capsys, [command, "--help"])
    assert code == 0
    assert text in " ".join(out.split())


# ---------------------------------------------------------------------------
# stdin, output failures


def test_plaintext_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("2\n0.36 0.05\n0 0.64\n"))
    code, report = run_json(capsys, ["check"])
    assert code == 0
    assert report["verdict"] == "ok"


def test_unwritable_output_exits_one(tmp_path, capsys):
    mat = write_matrix(tmp_path / "m.json", FEASIBLE)
    target = tmp_path / "missing-dir" / "out.json"
    code = main(["check", "--input", mat, "--output", str(target)])
    assert code == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# document serialization


def test_matrix_document_bit_exact_round_trip():
    rng = np.random.default_rng(31)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m[0, 0] = 0.1 + (1.0 / 3.0) * 1j
    m[1, 1] = 1e300
    m[2, 2] = -2.5e-8
    text = format_json(matrix_to_document(m))
    recovered = document_to_matrix(json.loads(text))
    assert np.array_equal(recovered, m)
    assert format_json(matrix_to_document(recovered)) == text


@pytest.mark.parametrize(
    "doc",
    [
        "not a dict",
        {"rows": 2, "cols": 2},
        {"rows": 0, "cols": 1, "data": []},
        {"rows": 2, "cols": 2, "data": [[1.0, 0.0]]},
        {"rows": 1, "cols": 1, "data": [[1.0]]},
        {"rows": 1, "cols": 1, "data": [[1.0, 0.0, 0.0]]},
        {"rows": 1, "cols": 1, "data": [["x", 0.0]]},
        {"rows": 1, "cols": 1, "data": [[True, 0.0]]},
        {"rows": "x", "cols": 1, "data": [[1.0, 0.0]]},
    ],
)
def test_document_to_matrix_rejects_malformed(doc):
    with pytest.raises(ValueError):
        document_to_matrix(doc)


def test_extract_matrix_document_descends_envelopes():
    doc = matrix_to_document(np.eye(2))
    assert extract_matrix_document(doc) is doc
    assert extract_matrix_document({"payload": {"t": doc}}) is doc
    assert extract_matrix_document({"t": doc}) is doc
    with pytest.raises(ValueError):
        extract_matrix_document({"nothing": 1})
    with pytest.raises(ValueError):
        extract_matrix_document([1, 2, 3])


def test_parse_matrix_text_plain_form():
    m = parse_matrix_text("2\n1 2\n3 4\n")
    assert np.array_equal(m, np.array([[1.0, 2.0], [3.0, 4.0]]))


@pytest.mark.parametrize(
    "text",
    ["", "  ", "2\n1 2 3", "x\n1", "0", "2\n1 2 3 oops"],
)
def test_parse_matrix_text_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_matrix_text(text)


def test_format_json_float_precision():
    assert format_json({"x": 0.1}) == '{"x": 0.10000000000000001}'
    for value in (0.1, 1.0 / 3.0, 1e300, 5e-324, math.pi, -0.0):
        assert float(format(value, ".17g")) == value


def test_format_json_types():
    rendered = format_json(
        {
            "none": None,
            "flag": True,
            "count": 3,
            "np_int": np.int64(4),
            "np_float": np.float64(0.5),
            "np_flag": np.bool_(False),
            "items": [1, 2.5, "s"],
        }
    )
    assert rendered == (
        '{"none": null, "flag": true, "count": 3, "np_int": 4, '
        '"np_float": 0.5, "np_flag": false, "items": [1, 2.5, "s"]}'
    )
    with pytest.raises(TypeError):
        format_json({"bad": {1, 2}})


def _recursive_json(obj, monkeypatch):
    """format_json with the float-pair fast path switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(io_module, "_is_float_pairs", lambda items: False)
        return format_json(obj)


def test_format_json_float_pairs_match_recursive_renderer(monkeypatch):
    values = [-0.0, 0.0, 5e-324, 1e308, 1.0, -1.5, 1.0 / 3.0, math.pi, 1e16, 1e-300]
    pairs = [[re, im] for re in values for im in values]
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    documents = [
        pairs,
        matrix_to_document(matrix),
        {"outer": {"data": pairs, "count": 3, "flag": True}, "empty": []},
        # not float pairs: ints, bools, numpy floats and a triple stay recursive
        [[1, 2.0], [True, 0.5]],
        [[np.float64(0.25), 1.0]],
        [[0.5, 1.0, 2.0]],
        [(0.5, 1.0)],
    ]
    for doc in documents:
        assert format_json(doc) == _recursive_json(doc, monkeypatch)
    assert format_json([[-0.0, 5e-324]]) == "[[-0, 4.9406564584124654e-324]]"
    assert format_json([[True, 0.5]]) == "[[true, 0.5]]"
