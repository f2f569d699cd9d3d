"""Factorization of quadratic matrices into products of two positive
contractions.

A quadratic matrix with canonical data (a, b, P) factors as A @ B with
A, B PSD contractions exactly when a, b lie in [0, 1] and
``norm(P) <= |sqrt(a) - sqrt(b)| * sqrt((1-a)(1-b))``.  The 2x2 closed
forms live in :func:`factor_2x2`; :func:`factor_block` lifts them through
the spectral calculus of P, and :func:`factor_quadratic` runs the full
pipeline with a machine-checkable certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from .canonical import CanonicalForm, QuadraticParams, canonicalize, detect_quadratic
from .errors import CertificateError, InfeasibleError, NotPsdError
from .linalg import DEFAULT_TOL, as_matrix, psd_check
from .verify import Factorization, verify_certificate

__all__ = [
    "feasibility_bound",
    "FeasibilityReport",
    "assess_feasibility",
    "Factor2x2",
    "factor_2x2",
    "factor_block",
    "factor_quadratic",
    "assemble_full_factors",
]

#: Audit threshold for clamping tiny negative round-off in quantities that
#: are nonnegative in exact arithmetic; anything more negative is an error.
_AUDIT_CLAMP = 1e-12


def feasibility_bound(a: float, b: float) -> float:
    """Largest admissible coupling |sqrt(a)-sqrt(b)| * sqrt((1-a)(1-b)).

    Both parameters must lie in [0, 1].  The bound is symmetric in (a, b)
    and vanishes exactly when a = b or max(a, b) = 1.
    """
    for name, v in (("a", a), ("b", b)):
        if not (0.0 <= v <= 1.0):
            raise ValueError("%s=%r lies outside [0, 1]" % (name, v))
    return abs(math.sqrt(a) - math.sqrt(b)) * math.sqrt((1.0 - a) * (1.0 - b))


@dataclass(frozen=True)
class FeasibilityReport:
    """Decision record: can (a, b, p_norm) be factored, and by what margin.

    ``margin = bound - p_norm``; the instance is feasible iff the spectrum
    flags hold and ``margin >= -tol``.  For a non-real or out-of-range
    spectrum the bound is reported as 0 and feasible is False.
    """

    a: float
    b: float
    p_norm: float
    bound: float
    feasible: bool
    margin: float
    spectrum_real: bool = True
    spectrum_in_range: bool = True


def assess_feasibility(a, b, p_norm: float, tol: float = DEFAULT_TOL) -> FeasibilityReport:
    """Build a FeasibilityReport for possibly-complex spectral parameters."""
    ca, cb = complex(a), complex(b)
    spectrum_real = abs(ca.imag) <= tol and abs(cb.imag) <= tol
    in_range = (
        -tol <= ca.real <= 1.0 + tol and -tol <= cb.real <= 1.0 + tol
    )
    ar = min(max(ca.real, 0.0), 1.0)
    br = min(max(cb.real, 0.0), 1.0)
    if spectrum_real and in_range:
        bound = feasibility_bound(ar, br)
        margin = bound - p_norm
        feasible = margin >= -tol
    else:
        bound = 0.0
        margin = -p_norm
        feasible = False
    return FeasibilityReport(
        a=ar if spectrum_real and in_range else ca.real,
        b=br if spectrum_real and in_range else cb.real,
        p_norm=float(p_norm),
        bound=float(bound),
        feasible=feasible,
        margin=float(margin),
        spectrum_real=spectrum_real,
        spectrum_in_range=in_range,
    )


@dataclass(frozen=True)
class Factor2x2:
    """Closed-form 2x2 factorization of [[a, z], [0, b]] = A @ B.

    ``a_entries`` / ``b_entries`` are (m11, m12, m22) of the symmetric
    factors.  In the generic interior case A has eigenvalues {1, lambda1}
    and B has {1, lambda2} with lambda1 * lambda2 = a * b and
    gamma = lambda2 / b = a / lambda1.  For a <= b the off-diagonal signs
    follow a12 >= 0 >= b12; the reflected a > b solution mirrors them.
    """

    a: float
    b: float
    z: float
    case: str
    a11: float
    a12: float
    a22: float
    b11: float
    b12: float
    b22: float
    lambda1: float
    lambda2: float
    gamma: float

    @property
    def a_entries(self) -> Tuple[float, float, float]:
        return (self.a11, self.a12, self.a22)

    @property
    def b_entries(self) -> Tuple[float, float, float]:
        return (self.b11, self.b12, self.b22)

    @property
    def matrix_a(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a12, self.a22]])

    @property
    def matrix_b(self) -> np.ndarray:
        return np.array([[self.b11, self.b12], [self.b12, self.b22]])


def _clamped_unit(name: str, v: float, tol: float) -> float:
    if not (-tol <= v <= 1.0 + tol):
        raise ValueError("%s=%r lies outside [0, 1] (tolerance %g)" % (name, v, tol))
    return min(max(float(v), 0.0), 1.0)


def _factor_sorted(lo: float, hi: float, z: float, tol: float) -> Factor2x2:
    """Solve for lo <= hi with z already clipped into [0, bound(lo, hi)]."""
    if hi <= tol:
        # both parameters are (numerically) zero: target must be ~0
        if z > tol:
            report = assess_feasibility(lo, hi, z, tol)
            raise InfeasibleError(
                report, "coupling %.3g requires nonzero parameters" % z
            )
        return Factor2x2(
            a=lo, b=hi, z=z, case="diagonal",
            a11=lo, a12=0.0, a22=1.0, b11=1.0, b12=0.0, b22=hi,
            lambda1=hi, lambda2=lo, gamma=(lo / hi) if hi > 0 else 0.0,
        )
    if lo == hi or hi == 1.0:
        # repeated parameter or top edge: bound is 0, factors are diagonal
        if z > tol:
            report = assess_feasibility(lo, hi, z, tol)
            raise InfeasibleError(
                report,
                "coupling %.3g exceeds the zero bound at a=%g, b=%g" % (z, lo, hi),
            )
        return Factor2x2(
            a=lo, b=hi, z=z, case="diagonal",
            a11=lo, a12=0.0, a22=1.0, b11=1.0, b12=0.0, b22=hi,
            lambda1=hi, lambda2=lo, gamma=lo / hi,
        )
    if lo == 0.0:
        # 0 = lo < hi < 1: rank-one second factor
        lam1 = hi - z * z / (1.0 - hi)
        return Factor2x2(
            a=lo, b=hi, z=z, case="rank_one",
            a11=z * z / hi, a12=z, a22=hi,
            b11=0.0, b12=0.0, b22=1.0,
            lambda1=lam1, lambda2=0.0, gamma=0.0,
        )

    # interior case 0 < lo < hi < 1.  All quantities below are organized as
    # products and sums of nonnegative terms so the formulas stay accurate
    # for lo ~ hi and for z near 0 or near the bound.
    a, b = lo, hi
    w = (z * z) / ((1.0 - a) * (1.0 - b))
    disc = (a - b) * (a - b) - 2.0 * (a + b) * w + w * w
    if disc < 0.0:
        if disc < -_AUDIT_CLAMP:
            raise ArithmeticError(
                "discriminant %.3e below audit threshold; coupling exceeds "
                "the feasibility bound" % disc
            )
        disc = 0.0
    sq = math.sqrt(disc)
    lam1 = ((a + b - w) + sq) / 2.0
    lam2 = (a * b) / lam1
    gamma = a / lam1
    # lam1 - a and b - lam1 without cancellation ((b-a) > w always)
    delta1 = ((b - a) - w + sq) / 2.0
    delta2 = 2.0 * w * b / ((b - a) + w + sq)
    one_minus_gamma = delta1 / lam1
    den = (1.0 - a) * one_minus_gamma + gamma * (b - a)
    a3 = (b - a) / den
    t1 = one_minus_gamma * (1.0 - b) / den  # equals 1 - a3
    t2 = delta2 * (1.0 - a) / den  # equals a3 - lam1
    t1 = max(t1, 0.0)
    t2 = max(t2, 0.0)
    a2 = math.sqrt(t1 * t2)
    a1 = t1 + lam1  # equals 1 + lam1 - a3
    b11 = gamma * a3
    b12 = -gamma * a2
    b22 = (lam1 * lam2 / a + gamma * a2 * a2) / a3
    return Factor2x2(
        a=a, b=b, z=z, case="interior",
        a11=a1, a12=a2, a22=a3,
        b11=b11, b12=b12, b22=b22,
        lambda1=lam1, lambda2=lam2, gamma=gamma,
    )


def factor_2x2(a: float, b: float, z: float, tol: float = DEFAULT_TOL) -> Factor2x2:
    """Closed-form factorization of [[a, z], [0, b]] into two symmetric
    PSD contractions.

    Parameters must satisfy a, b in [0, 1] and z >= 0 (within tol; values
    are clamped).  Raises InfeasibleError when z exceeds
    ``feasibility_bound(a, b) + tol``.  For z in the tolerance sliver just
    above the bound the factors are built at the bound itself, keeping the
    product within 10 * tol of the target.
    """
    av = _clamped_unit("a", float(a), tol)
    bv = _clamped_unit("b", float(b), tol)
    if float(z) < -tol:
        raise ValueError("z=%r must be nonnegative" % (z,))
    zv = max(float(z), 0.0)
    bound = feasibility_bound(av, bv)
    if zv > bound + tol:
        raise InfeasibleError(
            assess_feasibility(av, bv, zv, tol),
            "coupling %.6g exceeds the feasibility bound %.6g" % (zv, bound),
        )
    z_eff = min(zv, bound)
    if av <= bv:
        return _factor_sorted(av, bv, z_eff, tol)
    # reflected problem: factor [[b, z], [0, a]] and swap through the
    # coordinate flip J, which exchanges the roles of the two factors
    sol = _factor_sorted(bv, av, z_eff, tol)
    return Factor2x2(
        a=av, b=bv, z=z_eff, case=sol.case + "_reflected",
        a11=sol.b22, a12=sol.b12, a22=sol.b11,
        b11=sol.a22, b12=sol.a12, b22=sol.a11,
        lambda1=sol.lambda2, lambda2=sol.lambda1, gamma=sol.gamma,
    )


def _closed_form_entries(a: float, b: float, values, tol: float) -> np.ndarray:
    """Rows (a11, a12, a22, b11, b12, b22) of ``factor_2x2(a, b, v)`` for
    each coupling value v, as a (6, len(values)) array."""
    scalars = [factor_2x2(a, b, v, tol) for v in values]
    return np.array([f.a_entries + f.b_entries for f in scalars], dtype=float).reshape(-1, 6).T


def _diagonal_grid(upper, cross, lower) -> np.ndarray:
    """The Hermitian 2x2 grid [[diag(upper), diag(cross)], [diag(cross), diag(lower)]].

    Built by index rather than with ``np.block``, whose fixed cost is a
    noticeable share of a factor_quadratic call at n = 2.
    """
    r = len(upper)
    out = np.zeros((2 * r, 2 * r))
    idx = np.arange(r)
    out[idx, idx] = upper
    out[idx, idx + r] = cross
    out[idx + r, idx] = cross
    out[idx + r, idx + r] = lower
    return out


def factor_block(a: float, b: float, p, tol: float = DEFAULT_TOL) -> Factorization:
    """Lift the 2x2 closed forms through a PSD coupling block P.

    Factors ``[[a I, P], [0, b I]]`` (2r x 2r) by applying the scalar
    solution entrywise to the eigenvalues of P.  Requires P Hermitian PSD
    with ``norm(P) <= feasibility_bound(a, b) + tol``.  The result carries
    its own certificate (``verify_certificate`` on the 2r x 2r block);
    ``factor_quadratic`` does not call this function, and certifies only
    the full matrix.
    """
    av = _clamped_unit("a", float(a), tol)
    bv = _clamped_unit("b", float(b), tol)
    mp = as_matrix(p)
    r = mp.shape[0]
    if mp.shape != (r, r):
        raise ValueError("coupling block must be square, got %r" % (mp.shape,))
    if not psd_check(mp, tol):
        raise NotPsdError("coupling block is not Hermitian PSD within tolerance")
    eigs, vecs = np.linalg.eigh((mp + mp.conj().T) / 2.0)
    p_norm = max(float(eigs[-1]), 0.0)
    bound = feasibility_bound(av, bv)
    if p_norm > bound + tol:
        raise InfeasibleError(assess_feasibility(av, bv, p_norm, tol))
    entries = _closed_form_entries(av, bv, [max(float(ev), 0.0) for ev in eigs], tol)
    a_upper, a_cross, a_lower, b_upper, b_cross, b_lower = (
        (vecs * values) @ vecs.conj().T for values in entries
    )
    fa = np.block([[a_upper, a_cross], [a_cross.conj().T, a_lower]])
    fb = np.block([[b_upper, b_cross], [b_cross.conj().T, b_lower]])
    eye = np.eye(r)
    target = np.block(
        [[av * eye, mp], [np.zeros((r, r)), bv * eye]]
    )
    report = verify_certificate(target, fa, fb, tol)
    if not report.passed:
        raise CertificateError(
            "lifted factorization failed verification (residual %.3e)"
            % report.product_residual
        )
    return Factorization(A=fa, B=fb, report=report)


def assemble_full_factors(
    form: CanonicalForm, block_a, block_b
) -> Tuple[np.ndarray, np.ndarray]:
    """Conjugate canonical-coordinate factors back to the original basis.

    ``block_a``/``block_b`` factor the coupled 2r-dimensional block; the
    uncoupled summands contribute (aI) @ I and (bI) @ I.

    Returns (A, B) with A = U (aI (+) bI (+) block_a) U* and
    B = U (I (+) I (+) block_b) U*.  Each product U core is formed without
    an n x n product: the d1 + d2 uncoupled columns of U are scaled, and
    only the 2r coupled columns U_c are multiplied, by U_c @ block.  So
    each factor costs one n x n product, (U core) @ U*.
    """
    ba = np.asarray(block_a, dtype=complex)
    bb = np.asarray(block_b, dtype=complex)
    two_r = 2 * form.r
    if ba.shape != (two_r, two_r) or bb.shape != (two_r, two_r):
        raise ValueError(
            "coupled-block factors must be %dx%d, got %r and %r"
            % (two_r, two_r, ba.shape, bb.shape)
        )
    u = np.asarray(form.unitary, dtype=complex)
    k = form.d1 + form.d2
    coupled = u[:, k:]
    u_core_a = np.empty_like(u)
    u_core_a[:, :k] = u[:, :k] * np.repeat([form.params.a, form.params.b], [form.d1, form.d2])
    u_core_a[:, k:] = coupled @ ba
    u_core_b = u.copy()
    u_core_b[:, k:] = coupled @ bb
    adjoint = u.conj().T
    return u_core_a @ adjoint, u_core_b @ adjoint


@dataclass(frozen=True, eq=False)
class _Analysis:
    """Detection, canonical form and feasibility decision for one matrix."""

    matrix: np.ndarray
    params: QuadraticParams
    form: CanonicalForm
    feasibility: FeasibilityReport


def _analyze(t, tol: float) -> _Analysis:
    """Detect, canonicalize and assess ``t``, computing T^2 once for the
    first two stages."""
    m = as_matrix(t)
    t2 = m @ m
    params = detect_quadratic(m, tol, _t2=t2)
    form = canonicalize(m, params, tol, _t2=t2)
    p_norm = float(form.p_values[0]) if form.r > 0 else 0.0
    report = assess_feasibility(params.a, params.b, p_norm, tol)
    return _Analysis(matrix=m, params=params, form=form, feasibility=report)


def _construct(analysis: _Analysis, tol: float) -> Factorization:
    """Build and certify the factors of an analysed matrix.

    In canonical coordinates P is diag(p_values), so the coupled block's
    factors are the 2x2 closed forms of each p laid out as a grid of
    diagonal blocks; no eigendecomposition is needed.  The one certificate
    is ``verify_certificate`` on the full matrix.
    """
    report = analysis.feasibility
    if not report.feasible:
        raise InfeasibleError(report)
    form = analysis.form
    clean = replace(
        form, params=QuadraticParams(report.a, report.b, analysis.params.residual)
    )
    a11, a12, a22, b11, b12, b22 = _closed_form_entries(
        report.a, report.b, form.p_values, tol
    )
    block_a = _diagonal_grid(a11, a12, a22)
    block_b = _diagonal_grid(b11, b12, b22)
    fa, fb = assemble_full_factors(clean, block_a, block_b)
    cert = verify_certificate(analysis.matrix, fa, fb, tol)
    if not cert.passed:
        raise CertificateError(
            "assembled factorization failed verification (residual %.3e)"
            % cert.product_residual
        )
    return Factorization(A=fa, B=fb, report=cert)


def factor_quadratic(t, tol: float = DEFAULT_TOL) -> Factorization:
    """Full pipeline: detect, canonicalize, decide, construct, certify.

    Applies the 2x2 closed forms to the canonical coupling values directly
    and certifies once, with ``verify_certificate`` on the full matrix and
    its assembled factors; the coupled block gets no certificate of its
    own.  Raises NotQuadraticError when no monic quadratic fits and
    InfeasibleError (with the FeasibilityReport attached) when the spectral
    parameters leave [0, 1] or the coupling norm exceeds the bound.
    """
    return _construct(_analyze(t, tol), tol)
