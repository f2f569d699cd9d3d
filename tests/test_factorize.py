"""Closed-form factorization into two positive contractions."""

import dataclasses
import math

import numpy as np
import pytest

from quadfactor import (
    Factorization,
    InfeasibleError,
    NotPsdError,
    NotQuadraticError,
    QuadraticParams,
    assemble_full_factors,
    assess_feasibility,
    canonical_matrix,
    canonicalize,
    detect_quadratic,
    factor_2x2,
    factor_block,
    factor_quadratic,
    feasibility_bound,
    random_quadratic,
    verify_certificate,
)

# Interior test point with exactly representable closed-form solution:
# at (a, b) = (0.36, 0.64) the coupling below gives w = z^2 / ((1-a)(1-b))
# = 49/1250, a perfect-square discriminant (49/1250)^2, and rational factor
# entries (up to a factor sqrt(2) in the off-diagonals).  Verified
# independently with fractions.Fraction against the trace/determinant
# identities trace(A) = 1 + lambda1, det(A) = lambda1 (same for B).
Z_RATIONAL = math.sqrt(7056.0 / 781250.0)
INTERIOR_EXPECTED = {
    "a11": 13.0 / 17.0,
    "a12": 3.0 * math.sqrt(2.0) / 17.0,
    "a22": 25.0 / 34.0,
    "b11": 9.0 / 17.0,
    "b12": -54.0 * math.sqrt(2.0) / 425.0,
    "b22": 9896.0 / 10625.0,
    "lambda1": 0.5,
    "lambda2": 288.0 / 625.0,
    "gamma": 18.0 / 25.0,
}

# Same parameters pushed to the boundary z = bound = 0.096, where the
# quadratic for the factor eigenvalues has a double root 12/25.  The exact
# entries are rational, but any floating evaluation near a vanishing
# discriminant carries O(sqrt(eps)) absolute error, so these are frozen at
# 1e-7 while the self-consistency checks below stay at machine precision.
BOUNDARY_EXPECTED = {
    "a11": 669.0 / 925.0,
    "a12": 48.0 / 185.0,
    "a22": 28.0 / 37.0,
    "b11": 21.0 / 37.0,
    "b12": -36.0 / 185.0,
    "b22": 844.0 / 925.0,
    "lambda1": 12.0 / 25.0,
    "lambda2": 12.0 / 25.0,
    "gamma": 0.75,
}


def haar_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def target_2x2(a, b, z):
    return np.array([[a, z], [0.0, b]])


def product_residual(sol, a, b, z):
    return float(np.abs(sol.matrix_a @ sol.matrix_b - target_2x2(a, b, z)).max())


# ---------------------------------------------------------------------------
# feasibility_bound


@pytest.mark.parametrize(
    "a, b, expected",
    [
        (0.36, 0.64, 0.096),
        (0.25, 0.25, 0.0),
        (0.0, 1.0, 0.0),
        (1.0, 1.0, 0.0),
        (0.0, 0.5, 0.5),
        (0.0, 0.0, 0.0),
    ],
)
def test_feasibility_bound_frozen_values(a, b, expected):
    assert feasibility_bound(a, b) == pytest.approx(expected, abs=1e-15)


def test_feasibility_bound_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b = rng.uniform(0.0, 1.0, size=2)
        assert feasibility_bound(a, b) == pytest.approx(
            feasibility_bound(b, a), abs=1e-15
        )


def test_feasibility_bound_never_exceeds_half():
    # the global maximum is 1/2, attained at {a, b} = {0, 1/2}
    grid = np.linspace(0.0, 1.0, 101)
    values = [feasibility_bound(a, b) for a in grid for b in grid]
    assert max(values) <= 0.5 + 1e-15
    assert feasibility_bound(0.0, 0.5) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("a, b", [(-0.1, 0.5), (0.5, 1.2), (1.0001, 0.3), (0.3, -1e-6)])
def test_feasibility_bound_rejects_out_of_range(a, b):
    with pytest.raises(ValueError):
        feasibility_bound(a, b)


# ---------------------------------------------------------------------------
# assess_feasibility


def test_assess_feasible_interior():
    report = assess_feasibility(0.36, 0.64, 0.05)
    assert report.feasible
    assert report.bound == pytest.approx(0.096, abs=1e-12)
    assert report.margin == pytest.approx(0.046, abs=1e-12)
    assert report.spectrum_real and report.spectrum_in_range


def test_assess_infeasible_margin():
    report = assess_feasibility(0.36, 0.64, 0.12)
    assert not report.feasible
    assert report.margin == pytest.approx(-0.024, abs=1e-12)


def test_assess_tolerance_sliver_is_feasible():
    bound = feasibility_bound(0.36, 0.64)
    report = assess_feasibility(0.36, 0.64, bound + 5e-10, tol=1e-9)
    assert report.feasible
    report = assess_feasibility(0.36, 0.64, bound + 2e-9, tol=1e-9)
    assert not report.feasible


def test_assess_complex_spectrum():
    report = assess_feasibility(0.3 + 1e-3j, 0.7, 0.0)
    assert not report.spectrum_real
    assert not report.feasible
    assert report.bound == 0.0


def test_assess_spectrum_out_of_range():
    report = assess_feasibility(-0.2, 0.5, 0.0)
    assert not report.spectrum_in_range
    assert not report.feasible
    report = assess_feasibility(0.2, 1.5, 0.0)
    assert not report.spectrum_in_range


# ---------------------------------------------------------------------------
# factor_2x2: frozen closed-form values


def test_factor_2x2_interior_rational_point():
    sol = factor_2x2(0.36, 0.64, Z_RATIONAL)
    assert sol.case == "interior"
    for name, expected in INTERIOR_EXPECTED.items():
        assert getattr(sol, name) == pytest.approx(expected, abs=1e-13), name
    assert product_residual(sol, 0.36, 0.64, Z_RATIONAL) <= 1e-14


def test_factor_2x2_boundary_point():
    sol = factor_2x2(0.36, 0.64, 0.096)
    assert sol.case == "interior"
    for name, expected in BOUNDARY_EXPECTED.items():
        assert getattr(sol, name) == pytest.approx(expected, abs=1e-7), name
    # self-consistency does not degrade at the boundary even though the
    # absolute entry accuracy does
    assert product_residual(sol, 0.36, 0.64, 0.096) <= 1e-12
    for mat in (sol.matrix_a, sol.matrix_b):
        eigs = np.linalg.eigvalsh(mat)
        assert eigs[0] >= -1e-12
        assert eigs[-1] <= 1.0 + 1e-12


def test_factor_2x2_spectral_identities_interior():
    sol = factor_2x2(0.36, 0.64, Z_RATIONAL)
    eigs_a = np.linalg.eigvalsh(sol.matrix_a)
    eigs_b = np.linalg.eigvalsh(sol.matrix_b)
    assert eigs_a == pytest.approx([sol.lambda1, 1.0], abs=1e-13)
    assert eigs_b == pytest.approx([sol.lambda2, 1.0], abs=1e-13)
    assert sol.lambda1 * sol.lambda2 == pytest.approx(0.36 * 0.64, abs=1e-14)
    assert sol.gamma == pytest.approx(sol.lambda2 / 0.64, abs=1e-13)
    assert sol.gamma == pytest.approx(0.36 / sol.lambda1, abs=1e-13)


def test_factor_2x2_rank_one_case():
    sol = factor_2x2(0.0, 0.5, 0.3)
    assert sol.case == "rank_one"
    assert sol.matrix_a == pytest.approx(
        np.array([[0.18, 0.3], [0.3, 0.5]]), abs=1e-14
    )
    assert sol.matrix_b == pytest.approx(np.diag([0.0, 1.0]), abs=1e-15)
    assert sol.lambda1 == pytest.approx(0.32, abs=1e-14)
    assert sol.lambda2 == 0.0
    assert sol.gamma == 0.0
    assert product_residual(sol, 0.0, 0.5, 0.3) <= 1e-15


@pytest.mark.parametrize(
    "a, b",
    [(0.3, 0.3), (0.4, 1.0), (0.0, 0.0), (1.0, 1.0)],
)
def test_factor_2x2_degenerate_diagonal(a, b):
    sol = factor_2x2(a, b, 0.0)
    assert sol.case == "diagonal"
    assert sol.matrix_a == pytest.approx(np.diag([a, 1.0]), abs=1e-15)
    assert sol.matrix_b == pytest.approx(np.diag([1.0, b]), abs=1e-15)
    assert product_residual(sol, a, b, 0.0) == 0.0


@pytest.mark.parametrize("a, b", [(0.5, 0.5), (0.3, 1.0), (0.0, 0.0), (1.0, 1.0)])
def test_factor_2x2_degenerate_rejects_coupling(a, b):
    with pytest.raises(InfeasibleError) as excinfo:
        factor_2x2(a, b, 0.01)
    assert excinfo.value.report.bound == pytest.approx(0.0, abs=1e-15)
    assert excinfo.value.report.margin < 0.0


def test_factor_2x2_interior_zero_coupling_limit():
    # z -> 0 inside 0 < a < b < 1 degenerates continuously to diagonal
    # factors, but through the interior formulas (lambda1 = b, lambda2 = a)
    sol = factor_2x2(0.3, 0.7, 0.0)
    assert sol.case == "interior"
    assert sol.matrix_a == pytest.approx(np.diag([1.0, 0.7]), abs=1e-14)
    assert sol.matrix_b == pytest.approx(np.diag([0.3, 1.0]), abs=1e-14)
    assert sol.lambda1 == pytest.approx(0.7, abs=1e-14)
    assert sol.lambda2 == pytest.approx(0.3, abs=1e-14)


def test_factor_2x2_reflected():
    sol = factor_2x2(0.64, 0.36, Z_RATIONAL)
    assert sol.case == "interior_reflected"
    assert sol.a11 == pytest.approx(INTERIOR_EXPECTED["b22"], abs=1e-13)
    assert sol.a12 == pytest.approx(INTERIOR_EXPECTED["b12"], abs=1e-13)
    assert sol.a22 == pytest.approx(INTERIOR_EXPECTED["b11"], abs=1e-13)
    assert sol.b11 == pytest.approx(INTERIOR_EXPECTED["a22"], abs=1e-13)
    assert sol.b12 == pytest.approx(INTERIOR_EXPECTED["a12"], abs=1e-13)
    assert sol.b22 == pytest.approx(INTERIOR_EXPECTED["a11"], abs=1e-13)
    assert sol.lambda1 == pytest.approx(INTERIOR_EXPECTED["lambda2"], abs=1e-13)
    assert sol.lambda2 == pytest.approx(INTERIOR_EXPECTED["lambda1"], abs=1e-13)
    assert product_residual(sol, 0.64, 0.36, Z_RATIONAL) <= 1e-14


def test_factor_2x2_rejects_negative_coupling():
    with pytest.raises(ValueError):
        factor_2x2(0.3, 0.7, -0.01)
    # round-off-negative values clamp to zero instead
    sol = factor_2x2(0.3, 0.7, -1e-12)
    assert sol.z == 0.0


@pytest.mark.parametrize("a, b", [(-0.2, 0.5), (0.3, 1.1), (2.0, 0.1)])
def test_factor_2x2_rejects_out_of_range_parameters(a, b):
    with pytest.raises(ValueError):
        factor_2x2(a, b, 0.0)


def test_factor_2x2_infeasible_report():
    with pytest.raises(InfeasibleError) as excinfo:
        factor_2x2(0.36, 0.64, 0.12)
    report = excinfo.value.report
    assert report.bound == pytest.approx(0.096, abs=1e-12)
    assert report.margin == pytest.approx(-0.024, abs=1e-12)
    assert "exceeds the feasibility bound" in str(excinfo.value)


def test_factor_2x2_tolerance_sliver_builds_at_bound():
    bound = feasibility_bound(0.36, 0.64)
    sol = factor_2x2(0.36, 0.64, bound + 5e-10, tol=1e-9)
    assert sol.z == pytest.approx(bound, abs=1e-15)
    assert product_residual(sol, 0.36, 0.64, bound + 5e-10) <= 1e-8
    with pytest.raises(InfeasibleError):
        factor_2x2(0.36, 0.64, bound + 2e-9, tol=1e-9)


def test_factor_2x2_sign_convention_and_validity():
    rng = np.random.default_rng(11)
    for trial in range(300):
        a, b = np.sort(rng.uniform(0.0, 1.0, size=2))
        z = rng.uniform(0.0, 1.0) * feasibility_bound(a, b)
        sol = factor_2x2(a, b, z)
        # for a <= b the off-diagonal signs are fixed: a12 >= 0 >= b12
        assert sol.a12 >= -1e-15, (a, b, z)
        assert sol.b12 <= 1e-15, (a, b, z)
        assert product_residual(sol, a, b, z) <= 1e-11
        for mat in (sol.matrix_a, sol.matrix_b):
            eigs = np.linalg.eigvalsh(mat)
            assert eigs[0] >= -1e-11
            assert eigs[-1] <= 1.0 + 1e-11


def test_factor_2x2_spectral_identities_random():
    rng = np.random.default_rng(13)
    for trial in range(100):
        a, b = np.sort(rng.uniform(0.01, 0.99, size=2))
        if b - a < 1e-3:
            b = min(a + 1e-3, 0.99)
        z = rng.uniform(0.0, 1.0) * feasibility_bound(a, b)
        sol = factor_2x2(a, b, z)
        if sol.case != "interior":
            continue
        eigs_a = np.linalg.eigvalsh(sol.matrix_a)
        eigs_b = np.linalg.eigvalsh(sol.matrix_b)
        assert eigs_a == pytest.approx([sol.lambda1, 1.0], abs=1e-10)
        assert eigs_b == pytest.approx([sol.lambda2, 1.0], abs=1e-10)
        assert sol.lambda1 * sol.lambda2 == pytest.approx(a * b, abs=1e-10)
        w = z * z / ((1.0 - a) * (1.0 - b))
        assert sol.lambda1 + sol.lambda2 == pytest.approx(a + b - w, abs=1e-10)


def test_factor_2x2_half_holder_continuity_in_coupling():
    # near the feasibility boundary the solution is Holder-1/2 in z, not
    # Lipschitz; steps of size h may move entries by order sqrt(h)
    a, b = 0.3, 0.7
    bound = feasibility_bound(a, b)
    h = 1e-6
    fields = ["a11", "a12", "a22", "b11", "b12", "b22", "lambda1", "lambda2"]
    for z in np.linspace(0.0, bound, 21):
        z2 = min(z + h, bound)
        lo = factor_2x2(a, b, z)
        hi = factor_2x2(a, b, z2)
        for name in fields:
            delta = abs(getattr(hi, name) - getattr(lo, name))
            assert delta <= 100.0 * math.sqrt(h), (z, name, delta)


# ---------------------------------------------------------------------------
# factor_block


def test_factor_block_diagonal_coupling():
    p = np.diag([0.09, 0.05])
    result = factor_block(0.36, 0.64, p)
    assert isinstance(result, Factorization)
    assert result.report.passed
    assert result.report.product_residual <= 1e-10
    assert result.A.shape == (4, 4) and result.B.shape == (4, 4)
    target = np.block(
        [[0.36 * np.eye(2), p], [np.zeros((2, 2)), 0.64 * np.eye(2)]]
    )
    assert np.abs(result.A @ result.B - target).max() <= 1e-12


def test_factor_block_zero_coupling():
    result = factor_block(0.36, 0.64, np.zeros((2, 2)))
    assert np.abs(result.A - np.diag([1.0, 1.0, 0.64, 0.64])).max() <= 1e-14
    assert np.abs(result.B - np.diag([0.36, 0.36, 1.0, 1.0])).max() <= 1e-14


def test_factor_block_general_psd_coupling():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((3, 3))
    p = g @ g.T
    p *= 0.08 / np.linalg.eigvalsh(p)[-1]  # norm 0.08 < bound 0.096
    result = factor_block(0.36, 0.64, p)
    assert result.report.passed
    target = np.block([[0.36 * np.eye(3), p], [np.zeros((3, 3)), 0.64 * np.eye(3)]])
    assert np.abs(result.A @ result.B - target).max() <= 1e-11


def test_factor_block_rejects_infeasible_norm():
    with pytest.raises(InfeasibleError) as excinfo:
        factor_block(0.36, 0.64, np.diag([0.12, 0.05]))
    assert excinfo.value.report.p_norm == pytest.approx(0.12, abs=1e-12)


def test_factor_block_rejects_non_psd():
    with pytest.raises(NotPsdError):
        factor_block(0.36, 0.64, [[0.05, 0.2], [0.2, 0.05]])
    with pytest.raises(NotPsdError):
        factor_block(0.36, 0.64, [[0.05, 0.1], [0.0, 0.05]])


def test_factor_block_rejects_non_square():
    with pytest.raises(ValueError):
        factor_block(0.36, 0.64, np.ones((2, 3)))


def test_factor_block_matches_scalar_calculus():
    # for diagonal P the lift must reproduce the 2x2 solutions entry for
    # entry on each (e_i, f_i) plane
    p1, p2 = 0.09, 0.04
    result = factor_block(0.36, 0.64, np.diag([p1, p2]))
    expected_a = np.zeros((4, 4))
    expected_b = np.zeros((4, 4))
    for idx, z in enumerate((p1, p2)):
        sol = factor_2x2(0.36, 0.64, z)
        plane = np.ix_([idx, idx + 2], [idx, idx + 2])
        expected_a[plane] = sol.matrix_a
        expected_b[plane] = sol.matrix_b
    assert np.abs(result.A - expected_a).max() <= 1e-12
    assert np.abs(result.B - expected_b).max() <= 1e-12


# ---------------------------------------------------------------------------
# factor_quadratic (full pipeline)


def test_factor_quadratic_counterexample_is_infeasible():
    t = np.array([[9.0, 3.0], [0.0, 16.0]]) / 25.0
    with pytest.raises(InfeasibleError) as excinfo:
        factor_quadratic(t)
    report = excinfo.value.report
    assert report.bound == pytest.approx(0.096, abs=1e-12)
    assert report.p_norm == pytest.approx(0.12, abs=1e-12)
    assert report.margin == pytest.approx(-0.024, abs=1e-12)


def test_factor_quadratic_diagonal():
    result = factor_quadratic(np.diag([0.3, 0.7]))
    assert result.report.passed
    assert np.abs(result.A @ result.B - np.diag([0.3, 0.7])).max() <= 1e-12


def test_factor_quadratic_rotated_instance():
    rng = np.random.default_rng(5)
    u = haar_unitary(rng, 2)
    t = u @ np.array([[0.36, 0.09], [0.0, 0.64]]) @ u.conj().T
    result = factor_quadratic(t)
    assert result.report.passed
    assert result.report.product_residual <= 1e-12
    hermiticity = max(
        np.abs(result.A - result.A.conj().T).max(),
        np.abs(result.B - result.B.conj().T).max(),
    )
    assert hermiticity <= 1e-12


def test_factor_quadratic_scalar_matrix():
    result = factor_quadratic(0.5 * np.eye(3))
    assert result.report.passed
    assert np.abs(result.A - 0.5 * np.eye(3)).max() <= 1e-12
    assert np.abs(result.B - np.eye(3)).max() <= 1e-12


def test_factor_quadratic_structured_instance():
    t = random_quadratic(2, 1, 2, 0.25, 0.75, [0.15, 0.1], seed=42)
    result = factor_quadratic(t)
    assert result.report.passed
    assert np.abs(result.A @ result.B - t).max() <= 1e-9


def test_factor_quadratic_rejects_non_quadratic():
    with pytest.raises(NotQuadraticError):
        factor_quadratic(np.diag([0.1, 0.5, 0.9]))


def test_factor_quadratic_rejects_complex_spectrum():
    with pytest.raises(InfeasibleError) as excinfo:
        factor_quadratic(np.array([[0.5 + 0.3j]]))
    assert not excinfo.value.report.spectrum_real


def test_factor_quadratic_rejects_spectrum_outside_unit_interval():
    with pytest.raises(InfeasibleError) as excinfo:
        factor_quadratic(np.diag([1.2, 0.3]))
    assert not excinfo.value.report.spectrum_in_range


@pytest.mark.parametrize("tol", [math.inf, 1e300, math.nan, -1.0, 0.0, 1.0])
def test_factor_quadratic_rejects_a_tolerance_outside_the_unit_interval(tol):
    with pytest.raises(ValueError, match="tol must be"):
        factor_quadratic(np.array([[0.36, 0.05], [0.0, 0.64]]), tol)


def test_factor_quadratic_commutes_with_unitary_conjugation():
    # conjugating the input conjugates the certified factors
    rng = np.random.default_rng(17)
    t = random_quadratic(1, 1, 1, 0.3, 0.7, [0.1], seed=8)
    result = factor_quadratic(t)
    v = haar_unitary(rng, t.shape[0])
    conjugated = verify_certificate(
        v @ t @ v.conj().T,
        v @ result.A @ v.conj().T,
        v @ result.B @ v.conj().T,
    )
    assert conjugated.passed


def _factor_by_public_stages(t, tol=1e-9):
    """factor_quadratic composed from the public stages: detection, the
    canonical form, the clamped roots of the feasibility report, the 2x2
    closed forms on a grid of diagonal blocks, assembly, certificate."""
    params = detect_quadratic(t, tol)
    form = canonicalize(t, params, tol)
    p_norm = float(form.p_values[0]) if form.r > 0 else 0.0
    report = assess_feasibility(params.a, params.b, p_norm, tol)
    assert report.feasible
    clean = dataclasses.replace(
        form, params=QuadraticParams(report.a, report.b, params.residual)
    )
    scalars = [factor_2x2(report.a, report.b, p, tol) for p in form.p_values]
    blocks = []
    for entries in ([f.a_entries for f in scalars], [f.b_entries for f in scalars]):
        upper, cross, lower = (np.diag(v) for v in np.reshape(entries, (-1, 3)).T)
        blocks.append(np.block([[upper, cross], [cross, lower]]))
    fa, fb = assemble_full_factors(clean, *blocks)
    return fa, fb, verify_certificate(t, fa, fb, tol)


@pytest.mark.parametrize(
    "d1, d2, r, a, b, p, seed",
    [
        (1, 1, 0, 0.3, 0.7, [], 1),
        (2, 3, 0, 0.8, 0.2, [], 2),
        (0, 0, 1, 0.36, 0.64, [0.05], 3),
        (2, 1, 2, 0.25, 0.75, [0.15, 0.1], 4),
        (1, 2, 3, 0.7, 0.2, [0.1, 0.05, 0.01], 5),
        (3, 0, 4, 0.9, 0.05, [0.2, 0.2, 0.1, 0.05], 6),
        # seed None: the canonical matrix itself, here the scalar 0.4 I
        (3, 0, 0, 0.4, 0.4, [], None),
    ],
)
def test_factor_quadratic_is_byte_identical_to_its_public_stages(d1, d2, r, a, b, p, seed):
    if seed is None:
        t = canonical_matrix(a, b, d1, d2, r, p)
    else:
        t = random_quadratic(d1, d2, r, a, b, p, seed)
    result = factor_quadratic(t)
    fa, fb, report = _factor_by_public_stages(t)
    assert result.A.tobytes() == fa.tobytes()
    assert result.B.tobytes() == fb.tobytes()
    assert result.report == report


# ---------------------------------------------------------------------------
# assemble_full_factors


def test_assemble_full_factors_round_trip():
    t = np.array([[0.36, 0.09], [0.0, 0.64]])
    params = detect_quadratic(t)
    form = canonicalize(t, params)
    block = factor_block(form.params.a.real, form.params.b.real, np.diag(form.p_values))
    fa, fb = assemble_full_factors(form, block.A, block.B)
    assert verify_certificate(t, fa, fb).passed


def test_assemble_full_factors_rejects_wrong_shapes():
    t = np.array([[0.36, 0.09], [0.0, 0.64]])
    form = canonicalize(t, detect_quadratic(t))
    with pytest.raises(ValueError):
        assemble_full_factors(form, np.eye(3), np.eye(3))
    with pytest.raises(ValueError):
        assemble_full_factors(form, np.eye(2), np.eye(3))
