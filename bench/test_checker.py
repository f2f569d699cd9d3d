"""The benchmark's checker must pass correct answers and refuse wrong ones.

    python3 -m pytest bench/test_checker.py

Each test plants one wrong answer in an otherwise correct output of the
program and asserts that the checker reports it.
"""

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import checker  # noqa: E402
import instances  # noqa: E402
import workloads  # noqa: E402
from quadfactor import InfeasibleError, factor_quadratic, oracle_2x2  # noqa: E402


def build(kind, d1=1, d2=2, r=2, seed=5):
    return instances.make_instance(d1, d2, r, kind, np.random.default_rng(seed))


@pytest.fixture(scope="module")
def feasible():
    inst = build("feasible")
    result = factor_quadratic(inst.t)
    return inst, result.A, result.B


@pytest.fixture(scope="module")
def infeasible():
    inst = build("infeasible")
    with pytest.raises(InfeasibleError) as caught:
        factor_quadratic(inst.t)
    return inst, caught.value.report


def test_correct_factors_pass(feasible):
    inst, a, b = feasible
    assert checker.factor_problems(inst.t, a, b) == []


def test_perturbed_product_is_refused(feasible):
    inst, a, b = feasible
    problems = checker.factor_problems(inst.t, a, b + 1e-6 * np.eye(inst.n))
    assert any("||AB - T||_F" in p for p in problems)


def test_factor_with_eigenvalue_above_one_is_refused(feasible):
    inst, a, b = feasible
    w, v = np.linalg.eigh(a)
    top = v[:, -1:]
    raised = a + (1.01 - w[-1]) * (top @ top.conj().T)
    problems = checker.factor_problems(inst.t, raised, b)
    assert any("A has eigenvalues" in p and "1.01" in p for p in problems)


def test_non_hermitian_factor_is_refused(feasible):
    inst, a, b = feasible
    skew = np.zeros_like(a)
    skew[0, 1] = 1e-6
    assert any("not Hermitian" in p for p in checker.factor_problems(inst.t, a + skew, b))


def test_correct_infeasible_verdict_passes(infeasible):
    inst, rep = infeasible
    assert checker.feasibility_problems(inst.a, inst.b, inst.p_norm, rep.bound, rep.p_norm, rep.feasible) == []


@pytest.mark.parametrize("kind", ["feasible", "infeasible"])
def test_flipped_verdict_is_refused(kind):
    inst = build(kind)
    bound = inst.bound
    problems = checker.feasibility_problems(inst.a, inst.b, inst.p_norm, bound, inst.p_norm, not inst.feasible)
    assert any(p.startswith("verdict") for p in problems)


def test_misreported_bound_and_norm_are_refused(infeasible):
    inst, rep = infeasible
    problems = checker.feasibility_problems(
        inst.a, inst.b, inst.p_norm, rep.bound * 1.001, rep.p_norm + 1e-3, rep.feasible)
    assert any("reported bound" in p for p in problems)
    assert any("reported p_norm" in p for p in problems)


def test_flipped_cli_exit_code_is_refused(feasible):
    inst = feasible[0]
    text = json.dumps({"verdict": "infeasible", "payload": {}})
    assert checker.cli_problems("check", inst, 2, text)


@pytest.fixture(scope="module")
def oracle_feasible():
    probe = instances.probes_at(0.2, 0.7)[0]
    return probe, oracle_2x2(probe.a, probe.b, probe.z)


def test_correct_oracle_answer_passes(oracle_feasible):
    pr, res = oracle_feasible
    assert checker.oracle_problems(pr.a, pr.b, pr.z, True, res.best_residual, res.parameters) == []


def test_misreported_oracle_residual_is_refused(oracle_feasible):
    pr, res = oracle_feasible
    problems = checker.oracle_problems(pr.a, pr.b, pr.z, True, res.best_residual + 1e-7, res.parameters)
    assert any("its parameters give" in p for p in problems)


def test_oracle_residual_on_wrong_side_is_refused(oracle_feasible):
    pr, res = oracle_feasible
    # the same small residual claimed for a probe that is infeasible
    problems = checker.oracle_problems(pr.a, pr.b, pr.z, False, res.best_residual, res.parameters)
    assert any("infeasible probe" in p for p in problems)


def test_oracle_factor_outside_unit_interval_is_refused():
    params = (0.3, 1.2, 0.5, 0.1, 0.4, 0.2)
    fa = checker.rotation_factor(*params[:3])
    fb = checker.rotation_factor(*params[3:])
    residual = float(np.linalg.norm(fa @ fb - np.array([[0.2, 0.1], [0.0, 0.7]])))
    problems = checker.oracle_problems(0.2, 0.7, 0.1, False, residual, params)
    assert any("oracle factor A" in p for p in problems)


def test_document_round_trip_is_exact():
    t = build("feasible").t
    assert np.array_equal(checker.document_matrix(json.loads(checker.document_text(t))), t)


def planted_refusal(inst):
    slot = workloads.factor_slot(inst, "timed")
    slot.call = lambda: workloads.Outcome("refused", "NotQuadraticError: planted")
    return workloads.run_rounds([slot], 0.0)


def test_refusal_of_a_seeded_matrix_is_refused(feasible):
    result = planted_refusal(feasible[0])
    assert result.failed == 0
    assert any("refused: NotQuadraticError: planted" in p for p in result.problems)


def test_refusal_of_a_near_coincident_matrix_counts_as_failed():
    result = planted_refusal(instances.near_coincident_set(1)[0])
    assert (result.attempted, result.failed, result.problems) == (1, 1, [])
