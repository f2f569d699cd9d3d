"""Independent checks: certificates, necessary conditions, a brute-force
oracle for the 2x2 problem, diagonal-block factor inheritance, and random
instance generation for tests."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .canonical import canonical_matrix
from .errors import CertificateError, NotUpperTriangularError
from .linalg import (
    DEFAULT_TOL,
    _check_tol,
    _psd_contraction_flags,
    _sqrt_witness,
    as_matrix,
    frobenius,
    operator_norm,
    psd_contraction_flags,
    range_projection,
)

__all__ = [
    "VerificationReport",
    "Factorization",
    "verify_certificate",
    "NecessaryConditions",
    "necessary_conditions",
    "OracleResult",
    "oracle_2x2",
    "diagonal_block_factors",
    "random_quadratic",
]

#: Looser pseudo-inverse cutoff for the diagonal-block construction, where
#: two matrix square roots compound rounding error.
CORNER_CUTOFF_SCALE = 1e-10


@dataclass(frozen=True)
class VerificationReport:
    """Machine-checkable certificate for a claimed factorization T = A B."""

    a_psd: bool
    a_contraction: bool
    b_psd: bool
    b_contraction: bool
    product_residual: float
    tolerance: float
    passed: bool


@dataclass(frozen=True, eq=False)
class Factorization:
    """A factor pair (A, B) together with its verification certificate."""

    A: np.ndarray
    B: np.ndarray
    report: VerificationReport


def verify_certificate(t, a, b, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Re-derive every certificate claim for T = A B from scratch.

    Checks that A and B are PSD contractions (within tol) and that
    ``norm(A @ B - T)`` is at most ``tol * max(1, norm(T))`` (Frobenius).
    Each flag means what ``psd_check`` and ``contraction_check`` decide.
    A Hermitian factor whose spectrum lies inside ``[-tol, 1 + tol]`` by
    more than the rounding error costs two Cholesky factorizations, which
    prove both of its flags True.  Otherwise one ``eigvalsh`` gives both
    flags, and the SVD of ``contraction_check`` runs only for a factor that
    is not Hermitian, or whose norm lies too close to 1 + tol for the
    eigenvalue bound to decide (see ``psd_contraction_flags``).  Raises
    ValueError unless ``tol`` lies in (0, 1).
    """
    _check_tol(tol)
    mt, ma, mb = as_matrix(t), as_matrix(a), as_matrix(b)
    n = mt.shape[0]
    if mt.shape != (n, n) or ma.shape != (n, n) or mb.shape != (n, n):
        raise ValueError(
            "verify_certificate requires three square matrices of equal size"
        )
    return _verify_certificate(mt, ma, mb, frobenius(mt), tol)


def _verify_certificate(
    t: np.ndarray, a: np.ndarray, b: np.ndarray, norm_t: float, tol: float
) -> VerificationReport:
    """``verify_certificate`` on three validated n x n matrices, given
    ``frobenius(t)``."""
    a_psd, a_con = _psd_contraction_flags(a, tol)
    b_psd, b_con = _psd_contraction_flags(b, tol)
    residual = frobenius(a @ b - t)
    passed = a_psd and a_con and b_psd and b_con and residual <= tol * max(1.0, norm_t)
    return VerificationReport(
        a_psd=a_psd,
        a_contraction=a_con,
        b_psd=b_psd,
        b_contraction=b_con,
        product_residual=float(residual),
        tolerance=float(tol),
        passed=passed,
    )


@dataclass(frozen=True)
class NecessaryConditions:
    """Spectral conditions every product of two positive contractions obeys.

    real_part_min is the smallest eigenvalue of (T + T*)/2 and must be
    >= -1/8; the eigenvalues of (T - T*)/(2i) must lie in [-1/4, 1/4]; the
    operator norm must be at most 1.  All checks carry the tolerance used.
    """

    real_part_min: float
    imag_part_min: float
    imag_part_max: float
    norm: float
    tolerance: float
    real_part_ok: bool
    imag_part_ok: bool
    norm_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.real_part_ok and self.imag_part_ok and self.norm_ok


def necessary_conditions(t, tol: float = DEFAULT_TOL) -> NecessaryConditions:
    """Evaluate the three necessary spectral conditions on ``t``."""
    m = as_matrix(t)
    if m.shape[0] != m.shape[1]:
        raise ValueError("necessary_conditions requires a square matrix")
    real_part = (m + m.conj().T) / 2.0
    imag_part = (m - m.conj().T) / 2.0j
    re_eigs = np.linalg.eigvalsh(real_part)
    im_eigs = np.linalg.eigvalsh(imag_part)
    norm = operator_norm(m)
    re_min = float(re_eigs[0])
    im_min, im_max = float(im_eigs[0]), float(im_eigs[-1])
    return NecessaryConditions(
        real_part_min=re_min,
        imag_part_min=im_min,
        imag_part_max=im_max,
        norm=norm,
        tolerance=float(tol),
        real_part_ok=re_min >= -0.125 - tol,
        imag_part_ok=(im_min >= -0.25 - tol) and (im_max <= 0.25 + tol),
        norm_ok=norm <= 1.0 + tol,
    )


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the brute-force 2x2 search.

    ``parameters`` holds (theta_a, s_a, t_a, theta_b, s_b, t_b): each factor
    is R(theta) diag(s, t) R(theta)^T with s, t in [0, 1].
    """

    best_residual: float
    parameters: Tuple[float, float, float, float, float, float]
    evaluations: int


def _pair_entries(theta, s, t):
    """Entries of R(theta) diag(s, t) R(theta)^T (vectorized)."""
    c = np.cos(theta)
    sn = np.sin(theta)
    return c * c * s + sn * sn * t, c * sn * (s - t), sn * sn * s + c * c * t


#: Grid points polished by the refinement, all in one batch.
_REFINE_STARTS = 32
#: Most Levenberg-Marquardt steps one call takes.
_LM_STEPS = 3000
#: Range of the damping factor; a start whose damping reaches the top has
#: stalled and takes no further steps.
_MU_MIN, _MU_MAX = 1e-15, 1e15
#: Stop polishing once the squared residual drops below (1e-11)^2; the
#: reported minimum only needs to separate feasible from infeasible.
_TARGET_SQ = 1e-22
#: Positions of the angles and of the eigenvalues in a parameter vector.
_ANGLE_SLOTS = [0, 3]
_EIGEN_SLOTS = [1, 2, 4, 5]
#: Index map from the entries (m11, m12, m22) of a symmetric 2x2 matrix to
#: the full matrix.
_SYMMETRIC = np.array([[0, 1], [1, 2]])


def _factor_and_derivatives(theta, s, t):
    """R(theta) diag(s, t) R(theta)^T for k parameter triples, shape
    (k, 2, 2), and its derivatives in (theta, s, t), shape (k, 3, 2, 2)."""
    c, sn = np.cos(theta), np.sin(theta)
    cc, cs, ss = c * c, c * sn, sn * sn
    gap = s - t
    d11, d12 = -2.0 * cs * gap, (cc - ss) * gap
    entries = np.array(
        [_pair_entries(theta, s, t), (d11, d12, -d11), (cc, cs, ss), (ss, -cs, cc)]
    )
    full = entries.transpose(2, 0, 1)[..., _SYMMETRIC]
    return full[:, 0], full[:, 1:]


def _residual_jacobian(x, target):
    """Residuals A B - T of k parameter vectors, shape (k, 4), and their
    Jacobians in (theta_a, s_a, t_a, theta_b, s_b, t_b), shape (k, 4, 6)."""
    fa, da = _factor_and_derivatives(x[:, 0], x[:, 1], x[:, 2])
    fb, db = _factor_and_derivatives(x[:, 3], x[:, 4], x[:, 5])
    k = x.shape[0]
    resid = (fa @ fb - target).reshape(k, 4)
    jac = np.concatenate([da @ fb[:, np.newaxis], fa[:, np.newaxis] @ db], axis=1)
    return resid, jac.reshape(k, 6, 4).transpose(0, 2, 1)


def _refine(x, target):
    """Bound-constrained Levenberg-Marquardt on all starts at once.

    Each start solves ``(J^T J + mu (diag(J^T J) + 1e-12)) d = -J^T r`` and
    takes the step only when the squared residual falls; mu starts at 1e-4,
    shrinks by 0.3 on a success and grows by 10 on a failure.  J^T J of the
    4 x 6 Jacobian is always singular, so the damping keeps the system
    solvable.  After a step the angles are taken mod pi and the eigenvalues
    clipped into [0, 1].  An eigenvalue at a bound whose gradient points
    outward is held for that step: its Jacobian column is zeroed and its
    diagonal gets 1.  Returns the final parameters, squared residuals and
    the number of start-steps taken by starts that had not stalled.
    """
    resid, jac = _residual_jacobian(x, target)
    f = np.einsum("ki,ki->k", resid, resid)
    # starting at 1e-3, every start for (a, b) = (0.0614, 0.00026) at 1.05x
    # the bound ends on a face minimum 11 % above the best one
    mu = np.full(x.shape[0], 1e-4)
    eye = np.eye(6)
    used = 0
    for _ in range(_LM_STEPS):
        live = mu < _MU_MAX
        if f.min() <= _TARGET_SQ or not live.any():
            break
        used += int(live.sum())
        grad = np.einsum("kij,ki->kj", jac, resid)
        lam, slope = x[:, _EIGEN_SLOTS], grad[:, _EIGEN_SLOTS]
        held = np.zeros_like(x, dtype=bool)
        held[:, _EIGEN_SLOTS] = ((lam <= 0.0) & (slope > 0.0)) | ((lam >= 1.0) & (slope < 0.0))
        jac_free = np.where(held[:, np.newaxis, :], 0.0, jac)
        grad = np.where(held, 0.0, grad)
        normal = np.einsum("kij,kil->kjl", jac_free, jac_free) + held[:, :, np.newaxis] * eye
        diag = np.einsum("kii->ki", normal)
        lhs = normal + (mu[:, np.newaxis] * (diag + 1e-12))[:, :, np.newaxis] * eye
        step = np.linalg.solve(lhs, -grad[:, :, np.newaxis])[:, :, 0]
        trial = x + step
        trial[:, _ANGLE_SLOTS] %= math.pi
        trial[:, _EIGEN_SLOTS] = np.clip(trial[:, _EIGEN_SLOTS], 0.0, 1.0)
        resid_t, jac_t = _residual_jacobian(trial, target)
        f_t = np.einsum("ki,ki->k", resid_t, resid_t)
        better = live & (f_t < f)
        x = np.where(better[:, np.newaxis], trial, x)
        resid = np.where(better[:, np.newaxis], resid_t, resid)
        jac = np.where(better[:, np.newaxis, np.newaxis], jac_t, jac)
        f = np.where(better, f_t, f)
        mu = np.clip(np.where(better, 0.3 * mu, 10.0 * mu), _MU_MIN, _MU_MAX)
    return x, f, used


def oracle_2x2(a: float, b: float, z: float, budget: int = 1_000_000, seed: int = 0) -> OracleResult:
    """Search for two real symmetric PSD contractions whose product is
    ``[[a, z], [0, b]]``, minimizing the Frobenius residual.

    A full grid of floor(budget^(1/6)) points per parameter is scanned.
    The 32 best grid points then start one batched, bound-constrained
    Levenberg-Marquardt refinement of the four product residuals in the six
    rotation parameters, for at most 3000 steps, so refinement adds at most
    32 * 3000 evaluations to the grid.  It stops when a start reaches a
    residual of 1e-11 or every start has stalled.  The search never calls
    the closed forms, and is deterministic for a fixed budget (the seed is
    echoed for reproducibility bookkeeping; the search draws no random
    numbers).
    """
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ValueError("a and b must lie in [0, 1]")
    if not math.isfinite(z):
        raise ValueError("z must be finite")
    if z < 0.0:
        raise ValueError("z must be nonnegative")
    if budget < 10_000:
        raise ValueError("budget must be at least 10^4")
    del seed  # deterministic search; accepted for interface stability

    g = int(budget ** (1.0 / 6.0) + 1e-9)
    thetas = np.linspace(0.0, math.pi, g, endpoint=False)
    lams = np.linspace(0.0, 1.0, g)
    th, s_, t_ = np.meshgrid(thetas, lams, lams, indexing="ij")
    e11, e12, e22 = _pair_entries(th.ravel(), s_.ravel(), t_.ravel())

    # all factor pairs: rows index the left factor, columns the right
    p11 = np.outer(e11, e11) + np.outer(e12, e12) - a
    p12 = np.outer(e11, e12) + np.outer(e12, e22) - z
    p21 = np.outer(e12, e11) + np.outer(e22, e12)
    p22 = np.outer(e12, e12) + np.outer(e22, e22) - b
    resid = p11 * p11 + p12 * p12 + p21 * p21 + p22 * p22
    evaluations = resid.size

    flat = resid.ravel()
    # argpartition keeps start selection O(grid); ties are broken by index
    # below so the start order stays reproducible
    picked = np.argpartition(flat, _REFINE_STARTS)[:_REFINE_STARTS]
    order = picked[np.lexsort((picked, flat[picked]))]
    ia, ja, ka, ib, jb, kb = np.unravel_index(order, (g,) * 6)
    x0 = np.stack([thetas[ia], lams[ja], lams[ka], thetas[ib], lams[jb], lams[kb]], axis=1)
    x, f, used = _refine(x0, np.array([[a, z], [0.0, b]]))
    best = int(np.argmin(f))
    return OracleResult(
        best_residual=float(math.sqrt(f[best])),
        parameters=tuple(float(v) for v in x[best]),
        evaluations=int(evaluations + used),
    )


def _corner_factors(a_mat: np.ndarray, b_mat: np.ndarray, split: int, tol: float):
    """Positive-contraction factors of the upper-left block of A @ B.

    For PSD contractions A, B whose product is block upper triangular at
    ``split``, the upper-left block T1 factors as
    ``sqrt(A1) (I - D P D*) sqrt(A1) @ B1`` where D is the contraction
    witness of A's off-diagonal block (built as in
    ``block_positivity_witness``, with the looser pseudo-inverse cutoff
    ``CORNER_CUTOFF_SCALE``) and P projects onto ran(sqrt(A2)).
    """
    s = split
    a1 = a_mat[:s, :s]
    a12 = a_mat[:s, s:]
    a2 = a_mat[s:, s:]
    b1 = b_mat[:s, :s]
    r1, r2, d = _sqrt_witness(a1, a12, a2, tol, CORNER_CUTOFF_SCALE)
    proj = range_projection(r2, CORNER_CUTOFF_SCALE)
    kk = d @ proj @ d.conj().T  # K*K for K = proj @ D*
    first = r1 @ (np.eye(s) - kk) @ r1
    first = (first + first.conj().T) / 2.0
    return first, b1.copy()


def diagonal_block_factors(a, b, split: int, tol: float = DEFAULT_TOL):
    """Factor both diagonal blocks of a block-upper-triangular product.

    Given PSD contractions A, B with T = A @ B block upper triangular at
    ``split``, returns two certified Factorizations, one for each diagonal
    block of T.  The certificates re-verify from scratch; their failure
    would falsify the construction, so it raises CertificateError.
    """
    ma, mb = as_matrix(a), as_matrix(b)
    n = ma.shape[0]
    if ma.shape != (n, n) or mb.shape != (n, n):
        raise ValueError("factors must be square matrices of equal size")
    if not (0 < split < n):
        raise ValueError("split must satisfy 0 < split < n")
    if not all(psd_contraction_flags(ma, tol)):
        raise ValueError("first factor is not a PSD contraction within tolerance")
    if not all(psd_contraction_flags(mb, tol)):
        raise ValueError("second factor is not a PSD contraction within tolerance")
    t = ma @ mb
    lower = frobenius(t[split:, :split])
    if lower > tol * max(1.0, frobenius(t)):
        raise NotUpperTriangularError(
            "product is not block upper triangular at split %d "
            "(lower block norm %.3e)" % (split, lower)
        )

    t1 = t[:split, :split]
    t2 = t[split:, split:]
    first1, second1 = _corner_factors(ma, mb, split, tol)

    # the lower-right block factors through the swapped adjoint pair
    perm = np.r_[split:n, 0:split]
    swapped_a = mb[np.ix_(perm, perm)]
    swapped_b = ma[np.ix_(perm, perm)]
    first2_star, second2_star = _corner_factors(swapped_a, swapped_b, n - split, tol)
    # T2* = first2_star @ second2_star, so T2 = second2_star @ first2_star
    rep1 = verify_certificate(t1, first1, second1, tol)
    rep2 = verify_certificate(t2, second2_star, first2_star, tol)
    if not rep1.passed:
        raise CertificateError(
            "upper-left block certificate failed (residual %.3e)"
            % rep1.product_residual
        )
    if not rep2.passed:
        raise CertificateError(
            "lower-right block certificate failed (residual %.3e)"
            % rep2.product_residual
        )
    return (
        Factorization(A=first1, B=second1, report=rep1),
        Factorization(A=second2_star, B=first2_star, report=rep2),
    )


def random_quadratic(d1: int, d2: int, r: int, a, b, p_spec, seed: int) -> np.ndarray:
    """Seed-deterministic random quadratic matrix with known structure.

    Builds the canonical matrix for (a, b, d1, d2, r, p_spec) and conjugates
    it by a Haar-random unitary drawn from ``numpy.random.default_rng(seed)``.
    ``p_spec`` must contain exactly r strictly positive values.
    """
    if min(d1, d2, r) < 0 or d1 + d2 + 2 * r < 1:
        raise ValueError("invalid block dimensions (%d, %d, %d)" % (d1, d2, r))
    p = np.asarray(p_spec, dtype=float).reshape(-1)
    if p.size != r or (p.size and not (p > 0).all()):
        raise ValueError(
            "invalid p_spec: expected %d strictly positive values, got %r"
            % (r, list(p))
        )
    n = d1 + d2 + 2 * r
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, rr = np.linalg.qr(g)
    diag = np.diag(rr)
    q = q * (diag / np.abs(diag))
    core = canonical_matrix(a, b, d1, d2, r, p)
    return q @ core @ q.conj().T
