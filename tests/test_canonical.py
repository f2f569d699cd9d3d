"""Quadratic-relation detection and the block canonical form."""

import numpy as np
import pytest

from quadfactor import (
    NotQuadraticError,
    QuadraticParams,
    RankAmbiguousError,
    assemble_from_canonical,
    canonical_matrix,
    canonicalize,
    detect_quadratic,
    random_quadratic,
)
from quadfactor.canonical import _norm_plus_scalar, _quadratic_design, _shifted
from quadfactor.linalg import frobenius


def haar_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


# ---------------------------------------------------------------------------
# detect_quadratic


def test_detect_upper_triangular_roots():
    params = detect_quadratic([[0.36, 0.12], [0.0, 0.64]])
    assert params.a == pytest.approx(0.36, abs=1e-12)
    assert params.b == pytest.approx(0.64, abs=1e-12)
    assert params.residual <= 1e-12


def test_detect_scalar_short_circuit():
    params = detect_quadratic(0.5 * np.eye(3))
    assert params.a == pytest.approx(0.5, abs=1e-15)
    assert params.b == pytest.approx(0.5, abs=1e-15)


def test_detect_repeated_root_nilpotent_part():
    params = detect_quadratic([[0.5, 0.2], [0.0, 0.5]])
    assert params.a == pytest.approx(0.5, abs=1e-12)
    assert params.b == pytest.approx(0.5, abs=1e-12)


def test_detect_orders_roots_lexicographically():
    params = detect_quadratic([[0.64, 0.1], [0.0, 0.36]])
    assert (params.a.real, params.b.real) == (
        pytest.approx(0.36, abs=1e-12),
        pytest.approx(0.64, abs=1e-12),
    )
    # purely imaginary pair: -i comes before +i
    params = detect_quadratic(np.diag([1.0j, -1.0j]))
    assert params.a == pytest.approx(-1.0j, abs=1e-12)
    assert params.b == pytest.approx(1.0j, abs=1e-12)


def test_detect_rejects_three_distinct_eigenvalues():
    with pytest.raises(NotQuadraticError) as info:
        detect_quadratic(np.diag([0.0, 0.5, 1.0]))
    assert info.value.residual is not None and info.value.residual > 1e-3


def test_detect_tolerance_scales_acceptance():
    rng = np.random.default_rng(17)
    t = np.diag([0.3, 0.3, 0.7]) + 1e-6 * rng.standard_normal((3, 3))
    with pytest.raises(NotQuadraticError):
        detect_quadratic(t, tol=1e-9)
    params = detect_quadratic(t, tol=1e-3)
    assert params.a == pytest.approx(0.3, abs=1e-4)


def test_detect_requires_square_input():
    with pytest.raises(ValueError):
        detect_quadratic(np.zeros((2, 3)))


def _signed_zero_matrix(order):
    """A 3 x 3 matrix with +0 and -0 in real and imaginary parts."""
    return np.array(
        [
            [0.0, -0.0, 0.5j],
            [complex(-0.0, -0.0), 0.25, complex(0.0, -0.0)],
            [complex(-1.0, 0.0), complex(-0.0, 0.3), complex(-0.0, 0.0)],
        ],
        order=order,
    )


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize(
    "a",
    [0.3, -0.2, 0.0, -0.0, 0.1 + 0.2j, -0.1 - 0.0j, complex(-0.1, -0.0),
     complex(-0.0, -0.0), complex(-0.0, 0.7)],
)
def test_diagonal_shift_has_the_bytes_of_the_identity(a, order):
    # the shifts add to the diagonal alone; the SVD input and the lstsq
    # design must still carry the bytes, signed zeros included, of the
    # arithmetic with the identity matrix
    m = _signed_zero_matrix(order)
    eye = np.eye(3)
    for shift in (a, complex(a)):
        assert _shifted(m, shift).tobytes() == (m - shift * eye).tobytes()
        assert _norm_plus_scalar(m.copy(), shift) == frobenius(m + shift * eye)
    design = _quadratic_design(m)
    assert design[:, 0].tobytes() == m.ravel().tobytes()
    assert design[:, 1].tobytes() == (-eye.ravel().astype(complex)).tobytes()


# ---------------------------------------------------------------------------
# canonical_matrix layout


def test_canonical_matrix_layout():
    got = canonical_matrix(0.3, 0.7, 1, 1, 1, [0.1])
    want = np.array(
        [
            [0.3, 0.0, 0.0, 0.0],
            [0.0, 0.7, 0.0, 0.0],
            [0.0, 0.0, 0.3, 0.1],
            [0.0, 0.0, 0.0, 0.7],
        ]
    )
    np.testing.assert_allclose(got, want, atol=0)


def test_canonical_matrix_satisfies_relation():
    t = canonical_matrix(0.2, 0.9, 2, 1, 2, [0.15, 0.05])
    n = t.shape[0]
    rel = (t - 0.2 * np.eye(n)) @ (t - 0.9 * np.eye(n))
    np.testing.assert_allclose(rel, np.zeros((n, n)), atol=1e-15)


# ---------------------------------------------------------------------------
# canonicalize


def test_canonicalize_pure_coupling_block():
    t = np.array([[0.36, 0.12], [0.0, 0.64]])
    form = canonicalize(t, detect_quadratic(t))
    assert (form.d1, form.d2, form.r) == (0, 0, 1)
    np.testing.assert_allclose(form.p_values, [0.12], atol=1e-12)
    np.testing.assert_allclose(assemble_from_canonical(form), t, atol=1e-12)


def test_canonicalize_diagonal_matrix():
    t = np.diag([0.3, 0.7])
    form = canonicalize(t, detect_quadratic(t))
    assert (form.d1, form.d2, form.r) == (1, 1, 0)


def test_canonicalize_scalar_matrix_uses_first_summand():
    t = 0.5 * np.eye(4)
    form = canonicalize(t, detect_quadratic(t))
    assert (form.d1, form.d2, form.r) == (4, 0, 0)
    assert form.params.a == pytest.approx(0.5, abs=1e-12)


def test_canonicalize_repeated_root_coupling():
    t = np.array([[0.5, 0.2], [0.0, 0.5]])
    form = canonicalize(t, detect_quadratic(t))
    assert (form.d1, form.d2, form.r) == (0, 0, 1)
    np.testing.assert_allclose(form.p_values, [0.2], atol=1e-12)
    np.testing.assert_allclose(assemble_from_canonical(form), t, atol=1e-12)


def test_canonicalize_hidden_block_in_rotated_basis():
    rng = np.random.default_rng(8)
    u = haar_unitary(rng, 3)
    core = canonical_matrix(0.3, 0.7, 1, 0, 1, [0.05])
    t = u @ core @ u.conj().T
    form = canonicalize(t, detect_quadratic(t))
    assert (form.d1, form.d2, form.r) == (1, 0, 1)
    np.testing.assert_allclose(form.p_values, [0.05], atol=1e-10)
    np.testing.assert_allclose(assemble_from_canonical(form), t, atol=1e-10)


def test_canonicalize_flags_ambiguous_coupling_rank():
    t = np.array([[0.3, 5e-12], [0.0, 0.7]])
    with pytest.raises(RankAmbiguousError):
        canonicalize(t, detect_quadratic(t))


def test_canonicalize_rejects_wrong_parameters():
    t = np.array([[0.36, 0.12], [0.0, 0.64]])
    with pytest.raises(NotQuadraticError):
        canonicalize(t, QuadraticParams(a=0.1, b=0.9, residual=0.0))


def test_canonical_form_accessors():
    t = canonical_matrix(0.2, 0.8, 1, 2, 1, [0.1])
    form = canonicalize(t, detect_quadratic(t))
    assert form.n == 5
    np.testing.assert_allclose(form.canonical_matrix(), t, atol=1e-10)


# ---------------------------------------------------------------------------
# random instances: round trip and invariants


def test_round_trip_random_instances():
    rng = np.random.default_rng(2024)
    for trial in range(100):
        r = int(rng.integers(0, 5))
        d1 = int(rng.integers(0 if r else 1, 5))
        d2 = int(rng.integers(0, 5))
        if d1 + d2 + 2 * r == 0:
            d1 = 1
        a, b = np.sort(rng.uniform(0.05, 0.95, size=2))
        if b - a < 1e-3:
            b = min(0.99, a + 1e-3)
        p = np.sort(rng.uniform(0.01, 0.5, size=r))[::-1]
        t = random_quadratic(d1, d2, r, a, b, p, seed=trial)
        form = canonicalize(t, detect_quadratic(t))
        assert (form.d1, form.d2, form.r) == (d1, d2, r)
        np.testing.assert_allclose(form.p_values, p, atol=1e-9)
        assert np.all(np.diff(form.p_values) <= 1e-12)
        back = assemble_from_canonical(form)
        scale = np.linalg.norm(t)
        assert np.linalg.norm(back - t) <= 1e-9 * scale
        gram = form.unitary.conj().T @ form.unitary
        np.testing.assert_allclose(gram, np.eye(form.n), atol=1e-10)
