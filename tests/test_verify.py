"""Independent verification layer: certificates, necessary conditions, the
brute-force 2x2 oracle, and diagonal-block inheritance."""

import math

import numpy as np
import pytest

from quadfactor import (
    NotUpperTriangularError,
    canonicalize,
    contraction_check,
    detect_quadratic,
    diagonal_block_factors,
    factor_2x2,
    factor_block,
    factor_quadratic,
    feasibility_bound,
    necessary_conditions,
    oracle_2x2,
    psd_check,
    random_quadratic,
    verify_certificate,
)
from quadfactor.linalg import psd_contraction_flags

TOL = 1e-9


def random_psd_contraction(rng, n, norm=None):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = g @ g.conj().T
    top = np.linalg.eigvalsh(h)[-1]
    scale = (norm if norm is not None else rng.uniform(0.1, 1.0)) / top
    return h * scale


def rotated_pair(theta, s, t):
    c, sn = math.cos(theta), math.sin(theta)
    r = np.array([[c, -sn], [sn, c]])
    return r @ np.diag([s, t]) @ r.T


def haar_unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def hermitian_with_spectrum(rng, eigenvalues):
    q = haar_unitary(rng, len(eigenvalues))
    h = (q * np.asarray(eigenvalues, dtype=float)) @ q.conj().T
    return (h + h.conj().T) / 2.0


class DecompositionCounter:
    """Counts the numpy.linalg cholesky, eigvalsh and svd calls made from its
    creation to the end of the test (failed factorizations included)."""

    def __init__(self, monkeypatch):
        self.calls = {"cholesky": 0, "eigvalsh": 0, "svd": 0}
        for name in self.calls:
            monkeypatch.setattr(np.linalg, name, self._wrap(name, getattr(np.linalg, name)))

    def _wrap(self, name, fn):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return counted


def assert_flags_match_reference(a, b):
    """verify_certificate's four flags equal psd_check / contraction_check."""
    n = a.shape[0]
    report = verify_certificate(np.eye(n), a, b, TOL)
    assert (report.a_psd, report.a_contraction) == (psd_check(a, TOL), contraction_check(a, TOL))
    assert (report.b_psd, report.b_contraction) == (psd_check(b, TOL), contraction_check(b, TOL))
    return report


# ---------------------------------------------------------------------------
# verify_certificate


def test_verify_identity_product():
    report = verify_certificate(np.eye(2), np.eye(2), np.eye(2))
    assert report.passed
    assert report.product_residual == 0.0
    assert report.a_psd and report.a_contraction
    assert report.b_psd and report.b_contraction


def test_verify_diagonal_product():
    report = verify_certificate(np.diag([0.3, 0.7]), np.diag([0.3, 0.7]), np.eye(2))
    assert report.passed
    assert report.product_residual <= 1e-15


def test_verify_reports_product_mismatch():
    t = np.array([[0.36, 0.12], [0.0, 0.64]])
    report = verify_certificate(t, np.diag([0.36, 0.64]), np.eye(2))
    assert not report.passed
    assert report.a_psd and report.a_contraction and report.b_psd
    assert report.product_residual == pytest.approx(0.12, abs=1e-15)


def test_verify_flags_non_psd_factor():
    t = np.diag([-0.5, 0.5])
    report = verify_certificate(t, np.diag([-0.5, 0.5]), np.eye(2))
    assert not report.passed
    assert not report.a_psd
    assert report.product_residual <= 1e-15


def test_verify_flags_expansive_factor():
    t = np.diag([1.5, 0.5])
    report = verify_certificate(t, np.diag([1.5, 0.5]), np.eye(2))
    assert not report.passed
    assert not report.a_contraction
    assert report.a_psd


def test_verify_catches_tampered_factor():
    sol = factor_2x2(0.36, 0.64, 0.05)
    target = np.array([[0.36, 0.05], [0.0, 0.64]])
    good = verify_certificate(target, sol.matrix_a, sol.matrix_b)
    assert good.passed
    tampered = sol.matrix_a.copy()
    tampered[0, 1] += 0.1
    bad = verify_certificate(target, tampered, sol.matrix_b)
    assert not bad.passed


def test_verify_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        verify_certificate(np.eye(2), np.eye(3), np.eye(2))
    with pytest.raises(ValueError):
        verify_certificate(np.eye(2), np.eye(2), np.eye(3))


def test_verify_flags_of_random_hermitian_factors_take_two_choleskys(monkeypatch):
    rng = np.random.default_rng(41)
    seen = set()
    for _ in range(40):
        n = int(rng.integers(1, 9))
        # spectra in [-1.5, 1.5]: contractions and expansions, PSD or not
        a = hermitian_with_spectrum(rng, rng.uniform(-1.5, 1.5, size=n))
        b = random_psd_contraction(rng, n)
        report = assert_flags_match_reference(a, b)
        seen.add((report.a_psd, report.a_contraction))
        assert report.b_psd and report.b_contraction
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    a = hermitian_with_spectrum(rng, [0.0, 0.4, 1.0])
    counter = DecompositionCounter(monkeypatch)
    verify_certificate(np.eye(3), a, a)
    assert counter.calls == {"cholesky": 4, "eigvalsh": 0, "svd": 0}


@pytest.mark.parametrize("offset", [-2.0 * TOL, -TOL / 2.0, TOL / 2.0, 2.0 * TOL])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_verify_flags_near_the_contraction_bound(monkeypatch, offset, sign):
    rng = np.random.default_rng(43)
    # the extreme eigenvalue is +-(1 + offset), the rest well inside
    extreme = sign * (1.0 + offset)
    a = hermitian_with_spectrum(rng, [0.2, 0.5, extreme, 0.0])
    b = hermitian_with_spectrum(rng, [1.0 + offset, 0.3, 0.0, 0.7])
    report = assert_flags_match_reference(a, b)
    assert report.a_contraction == (offset <= TOL)
    assert report.b_contraction == (offset <= TOL)
    assert report.a_psd == (sign > 0.0) and report.b_psd
    counter = DecompositionCounter(monkeypatch)
    verify_certificate(np.eye(4), a, b, TOL)
    # Cholesky proves a factor that lies inside the bounds; otherwise the
    # first failing factorization hands over to eigvalsh
    a_proved = sign > 0.0 and offset < TOL
    b_proved = offset < TOL
    assert counter.calls == {
        "cholesky": (2 if sign > 0.0 else 1) + 2,
        "eigvalsh": (not a_proved) + (not b_proved),
        "svd": 0,
    }


@pytest.mark.parametrize("offset", [-TOL / 8.0, 0.0, TOL / 8.0])
def test_verify_flags_with_small_skew_part_fall_back_to_svd(monkeypatch, offset):
    rng = np.random.default_rng(47)
    h = hermitian_with_spectrum(rng, [1.0 + TOL + offset, 0.4, 0.1])
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    skew = g - g.conj().T
    # Hermitian within tol, but the skew part (Frobenius norm tol / 4)
    # blurs the eigenvalue bound on the norm across 1 + tol
    a = h + skew * (TOL / 4.0 / np.linalg.norm(skew))
    assert psd_check(a, TOL)
    counter = DecompositionCounter(monkeypatch)
    report = verify_certificate(np.eye(3), a, np.eye(3), TOL)
    assert counter.calls == {"cholesky": 4, "eigvalsh": 1, "svd": 1}
    assert_flags_match_reference(a, np.eye(3))
    assert report.a_psd


@pytest.mark.parametrize(
    "matrix, contraction",
    [([[0.0, 1.0], [0.0, 0.0]], True), ([[0.0, 1.5], [0.0, 0.0]], False)],
)
def test_verify_flags_of_non_hermitian_factor(monkeypatch, matrix, contraction):
    a = np.array(matrix)
    report = assert_flags_match_reference(a, np.eye(2))
    assert not report.a_psd
    assert report.a_contraction == contraction
    counter = DecompositionCounter(monkeypatch)
    verify_certificate(np.eye(2), a, np.eye(2), TOL)
    assert counter.calls == {"cholesky": 2, "eigvalsh": 0, "svd": 1}


@pytest.mark.parametrize("n", [2, 64, 300])
def test_psd_contraction_flags_at_the_bounds_match_reference(monkeypatch, n):
    rng = np.random.default_rng(59 + n)
    q = haar_unitary(rng, n)
    inner = rng.uniform(0.1, 0.9, size=n - 1)
    eps = np.finfo(float).eps
    counter = DecompositionCounter(monkeypatch)
    for edge, inside in ((-TOL, 1.0), (1.0 + TOL, -1.0)):
        for delta in (0.0, n * eps, -n * eps, 1e-11, -1e-11):
            h = (q * np.append(inner, edge + delta)) @ q.conj().T
            h = (h + h.conj().T) / 2.0
            before = counter.calls["eigvalsh"]
            flags = psd_contraction_flags(h, TOL)
            proved_by_cholesky = counter.calls["eigvalsh"] == before
            assert flags == (psd_check(h, TOL), contraction_check(h, TOL)), (edge, delta)
            if n == 2 and delta == inside * 1e-11:
                # 1e-11 inside the bound is room enough for the Cholesky tier
                assert flags == (True, True)
                assert proved_by_cholesky


def test_psd_contraction_flags_cholesky_tier_declines_below_its_backward_error(monkeypatch):
    # at tol = 1e-14 the Cholesky backward error at n = 64 exceeds tol, so
    # the tier has no room (lo <= 0) and eigvalsh decides
    rng = np.random.default_rng(61)
    h = hermitian_with_spectrum(rng, rng.uniform(0.1, 0.9, size=64))
    counter = DecompositionCounter(monkeypatch)
    flags = psd_contraction_flags(h, 1e-14)
    assert counter.calls == {"cholesky": 0, "eigvalsh": 1, "svd": 0}
    assert flags == (psd_check(h, 1e-14), contraction_check(h, 1e-14)) == (True, True)


def test_pipeline_coupled_block_matches_factor_block():
    rng = np.random.default_rng(53)
    for trial in range(8):
        d1, d2 = (int(v) for v in rng.integers(0, 3, size=2))
        r = int(rng.integers(1, 4))
        a, b = rng.uniform(0.05, 0.95, size=2)
        while abs(a - b) < 0.15:  # keep the eigenvalues well separated
            a, b = rng.uniform(0.05, 0.95, size=2)
        p = np.sort(rng.uniform(0.1, 0.9, size=r))[::-1] * feasibility_bound(a, b)
        t = random_quadratic(d1, d2, r, a, b, p, seed=trial)
        result = factor_quadratic(t)
        form = canonicalize(t, detect_quadratic(t))
        u, k = form.unitary, form.d1 + form.d2
        block = factor_block(form.params.a.real, form.params.b.real, np.diag(form.p_values))
        for factor, lifted in ((result.A, block.A), (result.B, block.B)):
            coupled = (u.conj().T @ factor @ u)[k:, k:]
            assert np.abs(coupled - lifted).max() <= TOL, trial


# ---------------------------------------------------------------------------
# necessary_conditions


def test_necessary_conditions_hold_for_infeasible_counterexample():
    # the spectral conditions are necessary but not sufficient: this matrix
    # satisfies all three yet admits no factorization (coupling 0.12 exceeds
    # the bound 0.096)
    conditions = necessary_conditions([[0.36, 0.12], [0.0, 0.64]])
    assert conditions.all_ok
    assert conditions.real_part_ok and conditions.imag_part_ok and conditions.norm_ok


def test_necessary_conditions_real_part_violation():
    conditions = necessary_conditions([[-0.2]])
    assert not conditions.real_part_ok
    assert conditions.real_part_min == pytest.approx(-0.2, abs=1e-15)
    assert not conditions.all_ok


def test_necessary_conditions_imaginary_part_violation():
    conditions = necessary_conditions([[0.5j]])
    assert not conditions.imag_part_ok
    assert conditions.imag_part_max == pytest.approx(0.5, abs=1e-15)
    assert not conditions.all_ok


def test_necessary_conditions_norm_violation():
    conditions = necessary_conditions([[1.2]])
    assert not conditions.norm_ok
    assert conditions.norm == pytest.approx(1.2, abs=1e-15)
    assert not conditions.all_ok


def test_necessary_conditions_tolerance_slack():
    conditions = necessary_conditions([[1.0 + 5e-10]])
    assert conditions.norm_ok


def test_necessary_conditions_rejects_non_square():
    with pytest.raises(ValueError):
        necessary_conditions(np.ones((2, 3)))


def test_necessary_conditions_hold_for_contraction_products():
    rng = np.random.default_rng(23)
    for trial in range(50):
        n = int(rng.integers(1, 8))
        t = random_psd_contraction(rng, n) @ random_psd_contraction(rng, n)
        conditions = necessary_conditions(t, tol=1e-8)
        assert conditions.all_ok, (trial, conditions)


# ---------------------------------------------------------------------------
# oracle_2x2


def test_oracle_finds_feasible_factorization():
    result = oracle_2x2(0.36, 0.64, 0.05, budget=10_000)
    assert result.best_residual <= 1e-6
    assert result.evaluations >= 4 ** 6  # full grid always scanned


def test_oracle_zero_coupling():
    result = oracle_2x2(0.36, 0.64, 0.0, budget=10_000)
    assert result.best_residual <= 1e-8


def test_oracle_reports_gap_for_infeasible_instance():
    result = oracle_2x2(0.36, 0.64, 0.12, budget=10_000)
    assert result.best_residual >= 1e-3


def test_oracle_parameters_reconstruct_residual():
    result = oracle_2x2(0.3, 0.7, 0.05, budget=10_000)
    theta_a, s_a, t_a, theta_b, s_b, t_b = result.parameters
    for value in (s_a, t_a, s_b, t_b):
        assert 0.0 <= value <= 1.0
    product = rotated_pair(theta_a, s_a, t_a) @ rotated_pair(theta_b, s_b, t_b)
    target = np.array([[0.3, 0.05], [0.0, 0.7]])
    residual = np.linalg.norm(product - target)
    assert residual == pytest.approx(result.best_residual, abs=1e-12)


def test_oracle_deterministic():
    first = oracle_2x2(0.2, 0.8, 0.1, budget=10_000, seed=3)
    second = oracle_2x2(0.2, 0.8, 0.1, budget=10_000, seed=3)
    assert first == second


@pytest.mark.parametrize(
    "kwargs",
    [
        {"a": -0.1, "b": 0.5, "z": 0.0},
        {"a": 0.5, "b": 1.5, "z": 0.0},
        {"a": 0.5, "b": 0.5, "z": -0.1},
        {"a": 0.5, "b": 0.5, "z": 0.0, "budget": 9_999},
    ],
)
def test_oracle_validates_arguments(kwargs):
    with pytest.raises(ValueError):
        oracle_2x2(**kwargs)


# ---------------------------------------------------------------------------
# diagonal_block_factors


def test_diagonal_blocks_from_2x2_factorization():
    block = factor_block(0.36, 0.64, np.diag([0.05]))
    upper, lower = diagonal_block_factors(block.A, block.B, split=1)
    assert upper.report.passed and lower.report.passed
    assert np.abs(upper.A @ upper.B - np.array([[0.36]])).max() <= 1e-10
    assert np.abs(lower.A @ lower.B - np.array([[0.64]])).max() <= 1e-10


@pytest.mark.parametrize("split", [1, 2, 3])
def test_diagonal_blocks_of_lifted_factorization(split):
    block = factor_block(0.36, 0.64, np.diag([0.09, 0.05]))
    t = block.A @ block.B
    upper, lower = diagonal_block_factors(block.A, block.B, split=split)
    assert upper.report.passed and lower.report.passed
    assert np.abs(upper.A @ upper.B - t[:split, :split]).max() <= 1e-8
    assert np.abs(lower.A @ lower.B - t[split:, split:]).max() <= 1e-8


def test_diagonal_blocks_of_commuting_diagonals():
    upper, lower = diagonal_block_factors(
        np.diag([0.3, 0.8]), np.diag([0.9, 0.4]), split=1
    )
    assert np.abs(upper.A @ upper.B - np.array([[0.27]])).max() <= 1e-12
    assert np.abs(lower.A @ lower.B - np.array([[0.32]])).max() <= 1e-12


def test_diagonal_blocks_reject_non_contraction_input():
    with pytest.raises(ValueError):
        diagonal_block_factors(np.diag([-0.1, 0.5]), np.eye(2), split=1)
    with pytest.raises(ValueError):
        diagonal_block_factors(np.eye(2), np.diag([1.5, 0.5]), split=1)


def test_diagonal_blocks_reject_full_lower_block():
    a = np.array([[0.5, 0.2], [0.2, 0.5]])
    with pytest.raises(NotUpperTriangularError):
        diagonal_block_factors(a, np.eye(2), split=1)


@pytest.mark.parametrize("split", [0, 2, -1])
def test_diagonal_blocks_reject_split_out_of_range(split):
    with pytest.raises(ValueError):
        diagonal_block_factors(np.eye(2), np.eye(2), split=split)


def test_diagonal_blocks_random_certified_instances():
    rng = np.random.default_rng(29)
    for trial in range(20):
        r = int(rng.integers(1, 4))
        a, b = np.sort(rng.uniform(0.05, 0.95, size=2))
        if b - a < 0.05:
            continue
        p = np.diag(rng.uniform(0.0, 1.0, size=r) * feasibility_bound(a, b))
        block = factor_block(a, b, p)
        split = int(rng.integers(1, 2 * r))
        t = block.A @ block.B
        upper, lower = diagonal_block_factors(block.A, block.B, split=split)
        assert upper.report.passed and lower.report.passed


# ---------------------------------------------------------------------------
# random_quadratic


def test_random_quadratic_deterministic():
    first = random_quadratic(1, 1, 1, 0.3, 0.7, [0.1], seed=5)
    second = random_quadratic(1, 1, 1, 0.3, 0.7, [0.1], seed=5)
    assert np.array_equal(first, second)
    other = random_quadratic(1, 1, 1, 0.3, 0.7, [0.1], seed=6)
    assert not np.allclose(first, other)


def test_random_quadratic_satisfies_relation():
    t = random_quadratic(2, 1, 2, 0.3, 0.7, [0.12, 0.05], seed=9)
    n = t.shape[0]
    assert n == 7
    relation = (t - 0.3 * np.eye(n)) @ (t - 0.7 * np.eye(n))
    assert np.abs(relation).max() <= 1e-12


def test_random_quadratic_eigenvalue_multiplicities():
    t = random_quadratic(1, 2, 1, 0.3, 0.7, [0.1], seed=11)
    eigs = np.sort(np.linalg.eigvals(t).real)
    assert eigs == pytest.approx([0.3, 0.3, 0.7, 0.7, 0.7], abs=1e-9)


@pytest.mark.parametrize(
    "args",
    [
        (-1, 1, 1, 0.3, 0.7, [0.1]),
        (0, 0, 0, 0.3, 0.7, []),
        (1, 1, 2, 0.3, 0.7, [0.1]),
        (1, 1, 1, 0.3, 0.7, [-0.1]),
        (1, 1, 1, 0.3, 0.7, [0.0]),
    ],
)
def test_random_quadratic_validates_arguments(args):
    with pytest.raises(ValueError):
        random_quadratic(*args, seed=0)
