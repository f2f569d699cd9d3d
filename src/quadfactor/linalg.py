"""Dense complex matrix kernels: spectra, singular values, positivity checks.

Everything here is deterministic for a fixed input: eigenvalues are returned
ascending, singular values descending, and no randomized algorithms are used.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .errors import NoWitnessError, NotPsdError

__all__ = [
    "DEFAULT_TOL",
    "RANK_CUTOFF_SCALE",
    "as_matrix",
    "frobenius",
    "rank_cutoff",
    "operator_norm",
    "psd_check",
    "contraction_check",
    "psd_contraction_flags",
    "sqrtm_psd",
    "pinv",
    "range_projection",
    "block_positivity_witness",
]

#: Default absolute/relative tolerance used across the package.
DEFAULT_TOL = 1e-9

#: Relative rank cutoff: singular values <= max(rows, cols) * scale * sigma_max
#: are treated as zero.
RANK_CUTOFF_SCALE = 1e-12

#: Machine epsilon of float64.
_EPS = float(np.finfo(float).eps)


def _check_tol(tol) -> None:
    """Raise ValueError unless ``tol`` lies in (0, 1), which rules out NaN
    and the infinities too: a tolerance of 1 or more passes factors that
    are no contractions, and a negative or NaN one refuses every input."""
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must be a finite number in (0, 1), got %r" % (tol,))


def _diagonal(x: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of a C-contiguous square ``x``."""
    return x.reshape(-1)[:: x.shape[0] + 1]


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2-d complex ndarray with finite entries.

    Raises ValueError for anything that is not a finite matrix with at least
    one row and one column.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError("expected a 2-d matrix, got ndim=%d" % m.ndim)
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError("matrix dimensions must be positive, got %r" % (m.shape,))
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def frobenius(a) -> float:
    """Frobenius norm of a matrix.

    The same real and imaginary dot products as ``np.linalg.norm``, so the
    same bytes, without its dispatch on ``ord`` and ``axis``.
    """
    x = np.asarray(a, dtype=complex).ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def rank_cutoff(singular_values, shape, scale: float = RANK_CUTOFF_SCALE) -> float:
    """Rank cutoff max(rows, cols) * scale * sigma_max for the given shape."""
    s = np.asarray(singular_values, dtype=float)
    smax = float(s[0]) if s.size else 0.0
    return max(shape) * scale * smax


def operator_norm(a) -> float:
    """Largest singular value of ``a``."""
    m = as_matrix(a)
    return float(np.linalg.svd(m, compute_uv=False)[0])


def psd_check(h, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``h`` is Hermitian within tol and its Hermitian part has
    smallest eigenvalue >= -tol."""
    m = as_matrix(h)
    if m.shape[0] != m.shape[1]:
        raise ValueError("psd_check requires a square matrix, got %r" % (m.shape,))
    if frobenius(m - m.conj().T) > tol * max(1.0, frobenius(m)):
        return False
    sym = (m + m.conj().T) / 2.0
    lam_min = float(np.linalg.eigvalsh(sym)[0])
    return lam_min >= -tol


def contraction_check(a, tol: float = DEFAULT_TOL) -> bool:
    """True iff the operator norm of ``a`` is at most 1 + tol."""
    return operator_norm(a) <= 1.0 + tol


#: Rounding slack of the eigenvalue bound on the operator norm, in units of
#: n * eps * max(1, |lambda|); it covers the error of eigvalsh and of the
#: SVD that contraction_check would run.
_NORM_SLACK = 4.0


def _cholesky_proves_flags(sym: np.ndarray, skew: float, tol: float) -> bool:
    """True when two Cholesky factorizations prove both flags True.

    Factors ``sym + lo*I`` and ``hi*I - sym`` one at a time (a stacked
    call would hold four n x n copies at once).  Returns False, proving
    nothing, when either fails or when the shifts leave no room.
    """
    n = sym.shape[0]
    slack = _NORM_SLACK * n * _EPS
    backward = 4.0 * (n + 2) * n * _EPS * (1.0 + 2.0 * tol)
    lo = tol - backward - slack
    hi = 1.0 + tol - skew / 2.0 - backward - 2.0 * slack
    # lo <= hi keeps max(|lambda_min|, lambda_max) below hi + backward
    if not 0.0 < lo <= hi:
        return False
    shifted = sym.copy()
    diagonal = _diagonal(shifted)
    diagonal += lo
    try:
        np.linalg.cholesky(shifted)
        np.negative(sym, out=shifted)
        diagonal += hi
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def psd_contraction_flags(h, tol: float = DEFAULT_TOL) -> Tuple[bool, bool]:
    """``(psd_check(h, tol), contraction_check(h, tol))`` at the least cost.

    Three tiers, each giving the flags the two separate checks give.  Let
    ``skew = norm(h - h*)`` (Frobenius) and ``sym`` be the Hermitian part.

    1. Cholesky, for ``h`` that passes the Hermitian test of ``psd_check``.
       ``np.linalg.cholesky`` runs on ``sym + lo*I`` and on ``hi*I - sym``,
       with ``lo = tol - c - s`` and ``hi = 1 + tol - skew/2 - c - 2s``,
       where ``s = 4*n*eps`` is the rounding slack of tier 2 and
       ``c = 4*(n+2)*n*eps*(1 + 2*tol)``.  A Cholesky factorization that
       succeeds in floating point is exact for a Hermitian matrix within
       ``gamma_(n+2) * norm(R)_F**2`` of its input (Higham, *Accuracy and
       Stability of Numerical Algorithms*, 2nd ed., Thm 10.3, with n+2 for
       complex arithmetic; Demmel, LAPACK Working Note 14, 1989), and
       ``norm(R)_F**2`` is about the trace of the input.  When both
       succeed, every diagonal entry of ``sym`` lies in ``(-lo, hi)``, so
       each trace is at most ``n * (1 + 2*tol)`` and ``c`` bounds the
       backward error about eightfold.  So the spectrum of ``sym`` lies in
       ``[-tol + s, 1 + tol - skew/2 - 2s]``: both flags are True, with
       ``s`` to spare for the rounding of the eigvalsh and SVD of the
       reference checks.  A failed factorization, ``lo <= 0`` (n above
       about 1000 at the default tol) or ``lo > hi`` passes to tier 2.
    2. One eigvalsh.  The operator norm lies within ``skew / 2`` of
       ``max(|lambda_min|, lambda_max)`` of ``sym``.  The contraction flag
       is read from that interval, widened by ``s * max(1, |lambda|)``,
       when it lies wholly on one side of 1 + tol.
    3. SVD.  Otherwise, and for every non-Hermitian ``h``, the contraction
       flag comes from ``contraction_check``'s SVD.
    """
    m = as_matrix(h)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError(
            "psd_contraction_flags requires a square matrix, got %r" % (m.shape,)
        )
    return _psd_contraction_flags(m, tol)


def _psd_contraction_flags(m: np.ndarray, tol: float) -> Tuple[bool, bool]:
    """``psd_contraction_flags`` on a matrix that ``as_matrix`` returned and
    that is square."""
    n = m.shape[0]
    adjoint = m.conj().T
    skew = frobenius(m - adjoint)
    # skew <= tol settles it without norm(m): tol * max(1, norm(m)) >= tol
    # for tol >= 0, and skew > tol for tol < 0
    if skew > tol and skew > tol * max(1.0, frobenius(m)):
        return False, contraction_check(m, tol)
    sym = (m + adjoint) / 2.0
    if _cholesky_proves_flags(sym, skew, tol):
        return True, True
    eigs = np.linalg.eigvalsh(sym)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    spectral = max(-lam_min, lam_max)
    spread = skew / 2.0 + _NORM_SLACK * n * _EPS * max(1.0, spectral)
    if spectral + spread <= 1.0 + tol:
        contraction = True
    elif spectral - spread > 1.0 + tol:
        contraction = False
    else:
        contraction = contraction_check(m, tol)
    return lam_min >= -tol, contraction


def sqrtm_psd(h, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitian square root of a PSD matrix.

    Negative eigenvalues (round-off) are clamped to zero before the square
    root, so inputs that pass ``psd_check`` are always accepted.  Raises
    ValueError when ``norm(h - h*) > max(tol, 1e-8) * norm(h)`` (Frobenius).
    """
    m = as_matrix(h)
    if m.shape[0] != m.shape[1]:
        raise ValueError("sqrtm_psd requires a square matrix, got %r" % (m.shape,))
    herm_tol = max(tol, 1e-8)
    herm_defect = frobenius(m - m.conj().T)
    if herm_defect > herm_tol * frobenius(m):
        raise ValueError(
            "matrix is not Hermitian within tolerance: defect %.3e > %.3e"
            % (herm_defect, herm_tol * frobenius(m))
        )
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def pinv(x, cutoff_scale: float = RANK_CUTOFF_SCALE) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with a relative singular value cutoff.

    Singular values <= max(rows, cols) * cutoff_scale * sigma_max are
    treated as zero.
    """
    m = as_matrix(x)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    cut = rank_cutoff(s, m.shape, cutoff_scale)
    inv = np.where(s > cut, np.divide(1.0, s, out=np.zeros_like(s), where=s > 0), 0.0)
    return vh.conj().T @ (inv[:, None] * u.conj().T)


def range_projection(x, cutoff_scale: float = RANK_CUTOFF_SCALE) -> np.ndarray:
    """Orthogonal projection onto the numerical column space of ``x``."""
    m = as_matrix(x)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    cut = rank_cutoff(s, m.shape, cutoff_scale)
    cols = u[:, s > cut]
    return cols @ cols.conj().T


def _sqrt_witness(a11, a12, a22, tol: float, cutoff_scale: float = RANK_CUTOFF_SCALE):
    """``(sqrt(A11), sqrt(A22), D)`` with ``D = pinv(sqrt(A11)) @ A12 @
    pinv(sqrt(A22))``, both pseudo-inverses cut at ``cutoff_scale``."""
    r1 = sqrtm_psd(a11, tol)
    r2 = sqrtm_psd(a22, tol)
    return r1, r2, pinv(r1, cutoff_scale) @ a12 @ pinv(r2, cutoff_scale)


def block_positivity_witness(a11, a12, a22, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Contraction witness for positivity of ``[[A11, A12], [A12*, A22]]``.

    Returns a matrix D with ``norm(D) <= 1 + tol`` and
    ``A12 = sqrt(A11) @ D @ sqrt(A22)`` within ``tol * scale`` (Frobenius,
    scale = max(1, norm of the assembled block)).  Such a D exists exactly
    when the assembled block matrix is positive semidefinite.

    Raises NotPsdError if a diagonal block is not PSD, NoWitnessError if no
    admissible D exists.
    """
    m11, m12, m22 = as_matrix(a11), as_matrix(a12), as_matrix(a22)
    s, t = m11.shape[0], m22.shape[0]
    if m11.shape != (s, s) or m22.shape != (t, t):
        raise ValueError("diagonal blocks must be square")
    if m12.shape != (s, t):
        raise ValueError(
            "off-diagonal block has shape %r, expected %r" % (m12.shape, (s, t))
        )
    if not psd_check(m11, tol):
        raise NotPsdError("upper-left block is not PSD within tolerance")
    if not psd_check(m22, tol):
        raise NotPsdError("lower-right block is not PSD within tolerance")
    r1, r2, d = _sqrt_witness(m11, m12, m22, tol)
    assembled = np.block([[m11, m12], [m12.conj().T, m22]])
    scale = max(1.0, frobenius(assembled))
    residual = frobenius(m12 - r1 @ d @ r2)
    if residual > tol * scale:
        raise NoWitnessError(
            "off-diagonal block is not compatible with the diagonal ranges "
            "(residual %.3e)" % residual
        )
    norm_d = operator_norm(d)
    if norm_d > 1.0 + tol:
        raise NoWitnessError("witness would have norm %.6g > 1" % norm_d)
    return d

