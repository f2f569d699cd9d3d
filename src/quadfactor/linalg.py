"""Dense complex matrix kernels: spectra, singular values, positivity checks.

Everything here is deterministic for a fixed input: eigenvalues are returned
ascending, singular values descending, and no randomized algorithms are used.
"""

from __future__ import annotations

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
    "direct_sum",
]

#: Default absolute/relative tolerance used across the package.
DEFAULT_TOL = 1e-9

#: Relative rank cutoff: singular values <= max(rows, cols) * scale * sigma_max
#: are treated as zero.
RANK_CUTOFF_SCALE = 1e-12


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
    """Frobenius norm of a matrix."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex)))


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


def psd_contraction_flags(h, tol: float = DEFAULT_TOL) -> Tuple[bool, bool]:
    """``(psd_check(h, tol), contraction_check(h, tol))`` from one eigvalsh.

    For ``h`` that passes the Hermitian test of ``psd_check``, the operator
    norm lies within ``norm(h - h*) / 2`` (Frobenius) of
    ``max(|lambda_min|, lambda_max)`` of the Hermitian part.  The
    contraction flag is read from that interval, widened by a rounding
    slack, when it lies wholly on one side of 1 + tol.  Otherwise, and for
    every non-Hermitian ``h``, the flag comes from ``contraction_check``'s
    SVD, so both flags always equal those of the two separate checks.
    """
    m = as_matrix(h)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError(
            "psd_contraction_flags requires a square matrix, got %r" % (m.shape,)
        )
    skew = frobenius(m - m.conj().T)
    if skew > tol * max(1.0, frobenius(m)):
        return False, contraction_check(m, tol)
    eigs = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    spectral = max(-lam_min, lam_max)
    spread = skew / 2.0 + _NORM_SLACK * n * np.finfo(float).eps * max(1.0, spectral)
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
    r1 = sqrtm_psd(m11, tol)
    r2 = sqrtm_psd(m22, tol)
    d = pinv(r1) @ m12 @ pinv(r2)
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


def direct_sum(*blocks) -> np.ndarray:
    """Block-diagonal direct sum of square complex blocks (may be empty)."""
    mats = [np.asarray(b, dtype=complex) for b in blocks]
    for b in mats:
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("direct_sum expects square blocks")
    n = sum(b.shape[0] for b in mats)
    out = np.zeros((n, n), dtype=complex)
    k = 0
    for b in mats:
        m = b.shape[0]
        out[k : k + m, k : k + m] = b
        k += m
    return out
