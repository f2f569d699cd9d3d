"""Dense-matrix helpers: decompositions, PSD checks, witnesses."""

import numpy as np
import pytest

from quadfactor import (
    NoWitnessError,
    NotPsdError,
    as_matrix,
    block_positivity_witness,
    contraction_check,
    frobenius,
    operator_norm,
    pinv,
    psd_check,
    range_projection,
    sqrtm_psd,
)
from quadfactor.linalg import rank_cutoff


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_psd(rng, n):
    g = random_complex(rng, n, n)
    return g @ g.conj().T


# ---------------------------------------------------------------------------
# coercion and basic norms


def test_as_matrix_accepts_nested_lists():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == complex and m.shape == (2, 2)


@pytest.mark.parametrize(
    "bad",
    [
        [1.0, 2.0],                       # 1-d
        np.zeros((2, 2, 2)),              # 3-d
        np.zeros((0, 3)),                 # empty axis
        [[np.inf, 0.0], [0.0, 1.0]],      # non-finite
        [[np.nan]],
    ],
)
def test_as_matrix_rejects_non_matrices(bad):
    with pytest.raises(ValueError):
        as_matrix(bad)


def test_frobenius_hand_value():
    # 3-4-5 triangle
    assert frobenius([[3.0, 4.0]]) == pytest.approx(5.0, abs=1e-15)


def test_operator_norm_column_vector():
    # sqrt(0.3^2 + 0.5^2) = sqrt(0.34), worked out by hand
    got = operator_norm([[0.3], [0.5]])
    assert got == pytest.approx(0.5830951894845301, abs=1e-15)


def test_operator_norm_bounded_by_frobenius():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = random_complex(rng, rng.integers(1, 7), rng.integers(1, 7))
        assert operator_norm(m) <= frobenius(m) + 1e-12


# ---------------------------------------------------------------------------
# rank cutoff


def test_rank_cutoff_scales_with_largest_value():
    assert rank_cutoff([5.0, 3.0, 1e-15], (3, 4), 1e-12) == pytest.approx(2e-11)
    assert rank_cutoff([], (3, 4), 1e-12) == 0.0


# ---------------------------------------------------------------------------
# PSD / contraction predicates


def test_psd_check_examples():
    assert psd_check([[1.0, 0.0], [0.0, 0.0]])
    assert psd_check([[0.0]])
    assert not psd_check([[1.0, 2.0], [2.0, 1.0]])      # eigenvalues 3, -1
    assert not psd_check([[0.0, 1.0], [0.0, 0.0]])      # not Hermitian
    with pytest.raises(ValueError):
        psd_check(np.zeros((2, 3)))


def test_psd_check_tolerates_tiny_negative_round_off():
    assert psd_check([[-1e-12]], tol=1e-9)
    assert not psd_check([[-1e-6]], tol=1e-9)


def test_contraction_check_examples():
    assert contraction_check(np.eye(3))
    assert contraction_check([[0.0, 1.0], [0.0, 0.0]])
    assert not contraction_check([[1.0, 0.1], [0.0, 1.0]])


def test_sqrtm_psd_squares_back():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(1, 8))
        h = random_psd(rng, n)
        r = sqrtm_psd(h)
        np.testing.assert_allclose(r, r.conj().T, atol=1e-12)
        assert psd_check(r, tol=1e-9)
        np.testing.assert_allclose(r @ r, h, atol=1e-9 * max(1.0, frobenius(h)))


def test_sqrtm_psd_hand_value():
    np.testing.assert_allclose(sqrtm_psd([[0.25]]), [[0.5]], atol=1e-15)


def test_sqrtm_psd_clamps_round_off_negatives():
    r = sqrtm_psd([[-1e-12]])
    np.testing.assert_allclose(r, [[0.0]], atol=1e-6)


def test_sqrtm_psd_rejects_non_hermitian():
    with pytest.raises(ValueError):
        sqrtm_psd([[0.0, 1.0], [0.0, 0.0]])


# ---------------------------------------------------------------------------
# pseudo-inverse and range projection


def test_pinv_penrose_identities():
    rng = np.random.default_rng(21)
    for _ in range(20):
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        m = random_complex(rng, rows, cols)
        d = pinv(m)
        np.testing.assert_allclose(m @ d @ m, m, atol=1e-10)
        np.testing.assert_allclose(d @ m @ d, d, atol=1e-10)
        np.testing.assert_allclose(m @ d, (m @ d).conj().T, atol=1e-10)
        np.testing.assert_allclose(d @ m, (d @ m).conj().T, atol=1e-10)


def test_pinv_drops_tiny_singular_values():
    m = np.diag([1.0, 1e-15])
    d = pinv(m)
    np.testing.assert_allclose(d, np.diag([1.0, 0.0]), atol=1e-12)


def test_range_projection_properties():
    rng = np.random.default_rng(22)
    for _ in range(20):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        m = random_complex(rng, rows, cols)
        p = range_projection(m)
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        np.testing.assert_allclose(p, p.conj().T, atol=1e-12)
        np.testing.assert_allclose(p @ m, m, atol=1e-12)


# ---------------------------------------------------------------------------
# block positivity witness


def test_witness_exists_exactly_for_psd_blocks():
    rng = np.random.default_rng(33)
    found, refused = 0, 0
    for _ in range(200):
        s, t = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        m = random_psd(rng, s + t)
        a11, a12, a22 = m[:s, :s], m[:s, s:], m[s:, s:]
        d = block_positivity_witness(a11, a12, a22)
        assert operator_norm(d) <= 1.0 + 1e-9
        lhs = sqrtm_psd(a11) @ d @ sqrtm_psd(a22)
        np.testing.assert_allclose(lhs, a12, atol=1e-8 * max(1.0, frobenius(m)))
        found += 1
    for _ in range(200):
        s, t = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        m = random_psd(rng, s + t)
        # shift the whole block matrix until it has a negative eigenvalue
        # while keeping both diagonal blocks PSD: inflate the off-diagonal
        a12 = m[:s, s:] + 10.0 * random_complex(rng, s, t)
        full = np.block([[m[:s, :s], a12], [a12.conj().T, m[s:, s:]]])
        if psd_check(full, tol=1e-9):
            continue
        with pytest.raises((NoWitnessError, NotPsdError)):
            block_positivity_witness(m[:s, :s], a12, m[s:, s:])
        refused += 1
    assert found == 200 and refused > 100


def test_witness_rejects_non_psd_diagonal():
    with pytest.raises(NotPsdError):
        block_positivity_witness([[-1.0]], [[0.0]], [[1.0]])


def test_witness_scalar_hand_case():
    # [[1, 1], [1, 1]] is PSD with witness exactly 1
    d = block_positivity_witness([[1.0]], [[1.0]], [[1.0]])
    np.testing.assert_allclose(d, [[1.0]], atol=1e-12)
    # [[1, 2], [2, 1]] has eigenvalue -1: no contraction witness
    with pytest.raises(NoWitnessError):
        block_positivity_witness([[1.0]], [[2.0]], [[1.0]])
