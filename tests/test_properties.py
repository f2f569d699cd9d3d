"""Invariances the theory promises, checked on random well-separated input.

Inputs are drawn with |a - b| >= 0.1 and n <= 8, where the canonical form
is well conditioned, and with couplings kept away from the feasibility
bound, so that every verdict is decided by a wide margin.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quadfactor import (
    InfeasibleError,
    canonicalize,
    detect_quadratic,
    factor_quadratic,
    feasibility_bound,
    random_quadratic,
    verify_certificate,
)

TOL = 1e-9
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@st.composite
def quadratic_instances(draw, scales=st.sampled_from([0.2, 0.5, 0.9, 1.2, 1.5])):
    """(d1, d2, r, a, b, p, seed) with d1 + d2 + 2r <= 8 and |a - b| >= 0.1;
    the couplings are fractions of ``scale * bound``, the largest one equal
    to it."""
    r = draw(st.integers(0, 2))
    d1 = draw(st.integers(0, 4 - r))
    d2 = draw(st.integers(0 if d1 + r else 1, 4 - r))
    a = draw(st.floats(0.0, 0.95))
    b = draw(st.floats(0.0, 0.95).filter(lambda v: abs(v - a) >= 0.1))
    largest = draw(scales) * feasibility_bound(a, b)
    rest = draw(st.lists(st.floats(0.2, 1.0), min_size=max(r - 1, 0), max_size=max(r - 1, 0)))
    p = [largest * f for f in [1.0] + rest] if r else []
    seed = draw(st.integers(0, 2 ** 31))
    return d1, d2, r, a, b, p, seed


def haar_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _verdict(t):
    try:
        return "ok" if factor_quadratic(t, TOL).report.passed else "refused"
    except InfeasibleError:
        return "infeasible"


@PROPERTY_SETTINGS
@given(quadratic_instances(), st.integers(0, 2 ** 31))
def test_unitary_covariance(instance, w_seed):
    d1, d2, r, a, b, p, seed = instance
    t = random_quadratic(d1, d2, r, a, b, p, seed)
    w = haar_unitary(np.random.default_rng(w_seed), t.shape[0])
    moved = w @ t @ w.conj().T
    assert _verdict(moved) == _verdict(t)
    forms = []
    for m in (t, moved):
        params = detect_quadratic(m, TOL)
        forms.append(canonicalize(m, params, TOL))
    first, second = forms
    assert abs(first.params.a - second.params.a) <= TOL
    assert abs(first.params.b - second.params.b) <= TOL
    assert (first.d1, first.d2, first.r) == (second.d1, second.d2, second.r)
    np.testing.assert_allclose(first.p_values, second.p_values, rtol=0, atol=TOL)


@PROPERTY_SETTINGS
@given(quadratic_instances(scales=st.sampled_from([0.2, 0.5, 0.9])))
def test_adjoint_swaps_the_factors(instance):
    d1, d2, r, a, b, p, seed = instance
    t = random_quadratic(d1, d2, r, a, b, p, seed)
    result = factor_quadratic(t, TOL)
    assert result.report.passed
    # T = AB with A, B Hermitian gives T* = BA
    assert verify_certificate(t.conj().T, result.B, result.A, TOL).passed


@PROPERTY_SETTINGS
@given(quadratic_instances(), st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3))
def test_feasibility_is_monotone_in_the_coupling_scale(instance, shrink):
    d1, d2, r, a, b, p, seed = instance
    t = random_quadratic(d1, d2, r, a, b, p, seed)
    if _verdict(t) != "ok":
        return
    for c in shrink:
        smaller = random_quadratic(d1, d2, r, a, b, [c * v for v in p], seed)
        assert _verdict(smaller) == "ok"
