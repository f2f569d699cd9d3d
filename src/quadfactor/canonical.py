"""Quadratic matrices and their block canonical form.

A square matrix T is *quadratic* when (T - aI)(T - bI) = 0 for scalars a, b.
Every such matrix is unitarily equivalent to

    a I_d1  (+)  b I_d2  (+)  [[a I_r, diag(p)], [0, b I_r]]

with strictly positive coupling values p.  This module identifies (a, b),
computes the decomposition, and reassembles matrices from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotQuadraticError, RankAmbiguousError
from .linalg import DEFAULT_TOL, RANK_CUTOFF_SCALE, as_matrix, frobenius

__all__ = [
    "QuadraticParams",
    "CanonicalForm",
    "detect_quadratic",
    "canonicalize",
    "assemble_from_canonical",
    "canonical_matrix",
]


@dataclass(frozen=True)
class QuadraticParams:
    """Roots (a, b) of the minimal quadratic of a matrix, plus fit residual.

    Ordered lexicographically by (real, imaginary); a == b marks a repeated
    root (scalar or nilpotent-coupled matrices).
    """

    a: complex
    b: complex
    residual: float


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """Unitary reduction of a quadratic matrix to its block canonical form.

    ``unitary.conj().T @ T @ unitary`` equals ``canonical_matrix()``:
    d1 copies of a, then d2 copies of b, then the coupled 2r-dimensional
    block with descending positive coupling values ``p_values``.
    """

    params: QuadraticParams
    d1: int
    d2: int
    r: int
    p_values: np.ndarray
    unitary: np.ndarray

    @property
    def n(self) -> int:
        return self.d1 + self.d2 + 2 * self.r

    def canonical_matrix(self) -> np.ndarray:
        return canonical_matrix(
            self.params.a, self.params.b, self.d1, self.d2, self.r, self.p_values
        )


def canonical_matrix(a, b, d1: int, d2: int, r: int, p_values) -> np.ndarray:
    """Assemble a I_d1 (+) b I_d2 (+) [[a I_r, diag(p)], [0, b I_r]]."""
    p = np.asarray(p_values, dtype=float).reshape(-1)
    if p.size != r:
        raise ValueError("p_values has length %d, expected r=%d" % (p.size, r))
    if min(d1, d2, r) < 0 or d1 + d2 + 2 * r < 1:
        raise ValueError("invalid block dimensions (%d, %d, %d)" % (d1, d2, r))
    n = d1 + d2 + 2 * r
    out = np.zeros((n, n), dtype=complex)
    idx = np.arange(n)
    out[idx[:d1], idx[:d1]] = a
    out[idx[d1 : d1 + d2], idx[d1 : d1 + d2]] = b
    k = d1 + d2
    out[idx[k : k + r], idx[k : k + r]] = a
    out[idx[k + r :], idx[k + r :]] = b
    out[idx[k : k + r], idx[k + r :]] = p
    return out


def detect_quadratic(t, tol: float = DEFAULT_TOL, *, _t2=None):
    """Identify the minimal quadratic satisfied by ``t``.

    Solves the least-squares system vec(T^2) = s vec(T) - p vec(I) and
    accepts when the polynomial residual is at most
    ``tol * max(1, norm(T)^2)``.  Scalar matrices short-circuit to a = b.

    Returns QuadraticParams; raises NotQuadraticError when no monic
    quadratic fits.  ``_t2``, when given, is ``t @ t`` already computed
    by the caller.
    """
    m = as_matrix(t)
    n = m.shape[0]
    if n != m.shape[1]:
        raise ValueError("detect_quadratic requires a square matrix")
    square = m @ m if _t2 is None else _t2
    norm_t = frobenius(m)
    eye = np.eye(n)
    alpha = complex(np.trace(m) / n)
    if frobenius(m - alpha * eye) <= tol * max(1.0, norm_t):
        residual = frobenius(square - 2 * alpha * m + (alpha * alpha) * eye)
        return QuadraticParams(alpha, alpha, float(residual))
    design = np.column_stack([m.ravel(), -eye.ravel().astype(complex)])
    coeffs, *_ = np.linalg.lstsq(design, square.ravel(), rcond=None)
    s, p = complex(coeffs[0]), complex(coeffs[1])
    residual = frobenius(square - s * m + p * eye)
    if residual > tol * max(1.0, norm_t * norm_t):
        raise NotQuadraticError(
            "no monic quadratic annihilates the matrix "
            "(best residual %.3e, limit %.3e)"
            % (residual, tol * max(1.0, norm_t * norm_t)),
            residual=float(residual),
        )
    disc = complex(s * s - 4.0 * p)
    # a repeated root makes the discriminant vanish; square-rooting its
    # round-off would smear spurious imaginary parts of order sqrt(eps)
    # into the roots, so snap near-zero discriminants to exactly zero
    if abs(disc) <= 64.0 * np.finfo(float).eps * (abs(s) ** 2 + 4.0 * abs(p)):
        disc = 0.0
    root = np.sqrt(disc)
    a, b = (s - root) / 2.0, (s + root) / 2.0
    if (b.real, b.imag) < (a.real, a.imag):
        a, b = b, a
    return QuadraticParams(complex(a), complex(b), float(residual))


def _guard_rank_gap(singular_values, cutoff: float) -> None:
    """Raise RankAmbiguousError when a singular value sits within a factor
    of 10 of the cutoff (either side), making the rank decision unstable."""
    if cutoff <= 0.0:
        return
    s = np.asarray(singular_values, dtype=float)
    near = (s >= cutoff / 10.0) & (s <= cutoff * 10.0)
    if near.any():
        worst = float(s[near][0])
        raise RankAmbiguousError(
            "singular value %.3e lies within a factor 10 of the rank cutoff "
            "%.3e; rank decision is ambiguous" % (worst, cutoff)
        )


def canonicalize(
    t, params: QuadraticParams, tol: float = DEFAULT_TOL, *, _t2=None
) -> CanonicalForm:
    """Reduce a quadratic matrix to canonical form.

    The eigenspace M = ker(T - aI) is extracted by SVD; on M (+) M_perp the
    matrix compresses to [[aI, X], [0, bI]] (the quadratic relation forces
    the lower-right block to bI), and the SVD of the coupling X yields the
    strictly positive p_values together with the uncoupled summand sizes.

    The result is checked once more: the compression residual
    ``norm(T U - U C)`` (Frobenius, C the canonical matrix), which equals
    ``norm(U* T U - C)`` for unitary U, must be at most
    ``100 * max(tol, 1e-12) * max(1, norm(T))``.  It costs one n x n
    product, since U C is U with its columns scaled plus the r coupling
    columns.

    Raises NotQuadraticError when (T - aI)(T - bI) is not ~0 or the
    compression check fails, and RankAmbiguousError when a rank decision
    is too close to call.
    ``_t2``, when given, is ``t @ t`` already computed by the caller.
    """
    m = as_matrix(t)
    n = m.shape[0]
    if n != m.shape[1]:
        raise ValueError("canonicalize requires a square matrix")
    a, b = params.a, params.b
    norm_t = frobenius(m)
    eye = np.eye(n)
    square = m @ m if _t2 is None else _t2
    relation = frobenius(square - (a + b) * m + (a * b) * eye)
    del square  # T^2 is not needed past the relation check
    if relation > tol * max(1.0, norm_t * norm_t):
        raise NotQuadraticError(
            "matrix does not satisfy (T-aI)(T-bI)=0 for the given parameters "
            "(residual %.3e)" % relation,
            residual=float(relation),
        )

    shifted = m - a * eye
    _, sv, vh = np.linalg.svd(shifted)
    smax = float(sv[0]) if sv.size else 0.0
    # the kernel split is relative to the size of T itself, not of T - aI:
    # for T within round-off of a*I the shifted matrix is pure noise and
    # every direction belongs to the kernel
    cut = n * RANK_CUTOFF_SCALE * max(smax, norm_t)
    _guard_rank_gap(sv, cut)
    kernel_dim = int(np.count_nonzero(sv <= cut))
    if smax <= cut:
        kernel_dim = n
    if kernel_dim == 0:
        raise NotQuadraticError(
            "parameter a=%s is not an eigenvalue of the matrix" % a
        )
    v = vh.conj().T
    q1 = v[:, n - kernel_dim :]  # orthonormal basis of ker(T - aI)
    q2 = v[:, : n - kernel_dim]

    x = q1.conj().T @ m @ q2  # coupling block, kernel_dim x (n - kernel_dim)
    if min(x.shape) == 0:
        r = 0
        p_values = np.zeros(0)
        ux = np.eye(kernel_dim)
        vx = np.eye(n - kernel_dim)
    else:
        ux_, sx, vxh = np.linalg.svd(x)
        # reference scale: sigma_max of T - aI (X is a compression of it)
        _guard_rank_gap(sx, cut)
        r = int(np.count_nonzero(sx > cut))
        p_values = np.asarray(sx[:r], dtype=float)
        ux = ux_
        vx = vxh.conj().T

    u_r, u_0 = ux[:, :r], ux[:, r:]
    v_r, v_0 = vx[:, :r], vx[:, r:]
    unitary = np.hstack([q1 @ u_0, q2 @ v_0, q1 @ u_r, q2 @ v_r])
    form = CanonicalForm(
        params=params,
        d1=kernel_dim - r,
        d2=(n - kernel_dim) - r,
        r=r,
        p_values=p_values,
        unitary=unitary,
    )
    # ||T U - U C|| equals ||U* T U - C|| for unitary U, and U C is U with
    # scaled columns plus the coupling columns, so one gemm is enough
    k = form.d1 + form.d2
    unitary_canonical = unitary * np.repeat([a, b, a, b], [form.d1, form.d2, r, r])
    unitary_canonical[:, k + r :] += unitary[:, k : k + r] * p_values
    compression = frobenius(m @ unitary - unitary_canonical)
    if compression > 100.0 * max(tol, 1e-12) * max(1.0, norm_t):
        raise NotQuadraticError(
            "canonical compression failed (residual %.3e); input is not "
            "quadratic to working accuracy" % compression
        )
    return form


def assemble_from_canonical(form: CanonicalForm) -> np.ndarray:
    """Rebuild the matrix ``U @ canonical @ U*`` from its canonical form."""
    u = as_matrix(form.unitary)
    if u.shape != (form.n, form.n):
        raise ValueError(
            "unitary has shape %r, expected %r" % (u.shape, (form.n, form.n))
        )
    return u @ form.canonical_matrix() @ u.conj().T
