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


def _residual_sq(x, a, b, z):
    """Squared Frobenius distance of the parameterized product from the
    target [[a, z], [0, b]] (scalar, used by the refinement loop)."""
    ca, sa = math.cos(x[0]), math.sin(x[0])
    cb, sb = math.cos(x[3]), math.sin(x[3])
    a11 = ca * ca * x[1] + sa * sa * x[2]
    a12 = ca * sa * (x[1] - x[2])
    a22 = sa * sa * x[1] + ca * ca * x[2]
    b11 = cb * cb * x[4] + sb * sb * x[5]
    b12 = cb * sb * (x[4] - x[5])
    b22 = sb * sb * x[4] + cb * cb * x[5]
    p11 = a11 * b11 + a12 * b12 - a
    p12 = a11 * b12 + a12 * b22 - z
    p21 = a12 * b11 + a22 * b12
    p22 = a12 * b12 + a22 * b22 - b
    return p11 * p11 + p12 * p12 + p21 * p21 + p22 * p22


_REFINE_STARTS = 8
#: The angle plane search samples the residual on an 8x8 grid: eight points
#: per axis resolve trigonometric harmonics up to order 2 exactly.
_ANGLE_SAMPLES = 8
_ANGLE_FREQS = np.fft.fftfreq(_ANGLE_SAMPLES, d=1.0 / _ANGLE_SAMPLES)
_ANGLE_SCAN = 32
#: Stop polishing once the squared residual drops below (1e-11)^2; the
#: reported minimum only needs to separate feasible from infeasible.
_TARGET_SQ = 1e-22


def _clip_param(i: int, value: float) -> float:
    if i in (0, 3):
        return value % math.pi
    return min(1.0, max(0.0, value))


def _eigen_line_min(x, i, f, a, b, z):
    """Exact line minimization over eigenvalue slot i.

    The product is linear in each factor eigenvalue, so along these
    coordinates the squared residual is a parabola; three probes pin it
    down and the vertex is clipped into [0, 1].  The single-coordinate
    curvatures stay well scaled even when the full Hessian is nearly
    singular, so these steps polish to machine precision where the larger
    block solves bottom out on fit noise."""
    probes = []
    for value in (0.0, 0.5, 1.0):
        trial = list(x)
        trial[i] = value
        probes.append((_residual_sq(trial, a, b, z), value))
    evals = 3
    f0, fh, f1 = probes[0][0], probes[1][0], probes[2][0]
    curvature = 2.0 * (f0 - 2.0 * fh + f1)
    if curvature > 0.0:
        vertex = (3.0 * f0 - 4.0 * fh + f1) / (2.0 * curvature)
        vertex = min(1.0, max(0.0, vertex))
        trial = list(x)
        trial[i] = vertex
        probes.append((_residual_sq(trial, a, b, z), vertex))
        evals += 1
    ft, value = min(probes)
    if ft < f:
        out = list(x)
        out[i] = value
        return out, ft, evals, True
    return x, f, evals, False


#: Eigenvalue-pair probes that pin down a bivariate quadratic exactly.
_QUAD_PROBES = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.0), (0.0, 0.5), (1.0, 1.0))


def _quad_coeffs(q):
    """Coefficients (1, s, t, s^2, s*t, t^2) of a bivariate quadratic from
    its values at the six probe points in _QUAD_PROBES (elementwise over
    trailing axes, so each harmonic bin is fitted in one shot)."""
    c00 = q[0]
    u1 = q[1] - c00
    uh = q[3] - c00
    c20 = 2.0 * u1 - 4.0 * uh
    c10 = u1 - c20
    v1 = q[2] - c00
    vh = q[4] - c00
    c02 = 2.0 * v1 - 4.0 * vh
    c01 = v1 - c02
    c11 = q[5] - c00 - c10 - c01 - c20 - c02
    return c00, c10, c01, c20, c11, c02


def _box_quad_min(c):
    """Exact minimum of a bivariate quadratic over the unit box.

    ``c`` holds (c00, c10, c01, c20, c11, c02).  The minimizer is either
    the interior stationary point or sits on an edge or corner; every
    candidate has a closed form, so enumerate them and keep the smallest."""
    c00, c10, c01, c20, c11, c02 = (float(v) for v in c)

    def value(s, t):
        return c00 + c10 * s + c01 * t + c20 * s * s + c11 * s * t + c02 * t * t

    cands = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    if c02 > 0.0:
        cands.append((0.0, min(1.0, max(0.0, -c01 / (2.0 * c02)))))
        cands.append((1.0, min(1.0, max(0.0, -(c01 + c11) / (2.0 * c02)))))
    if c20 > 0.0:
        cands.append((min(1.0, max(0.0, -c10 / (2.0 * c20))), 0.0))
        cands.append((min(1.0, max(0.0, -(c10 + c11) / (2.0 * c20))), 1.0))
    det = 4.0 * c20 * c02 - c11 * c11
    if det > 0.0 and c20 > 0.0:
        s = (c11 * c01 - 2.0 * c02 * c10) / det
        t = (c11 * c10 - 2.0 * c20 * c01) / det
        if 0.0 <= s <= 1.0 and 0.0 <= t <= 1.0:
            cands.append((s, t))
    best_s, best_t = min(cands, key=lambda st: value(*st))
    return best_s, best_t, value(best_s, best_t)


def _box_quad_min_batch(c):
    """Vectorized _box_quad_min over rows of coefficient arrays.

    Guarded candidates (edge vertices and the interior stationary point)
    fall back to a corner when their existence condition fails, which is
    harmless because every corner is already a candidate."""
    c00, c10, c01, c20, c11, c02 = (c[:, i] for i in range(6))
    zeros = np.zeros_like(c00)
    ones = np.ones_like(c00)
    ok02 = c02 > 0.0
    ok20 = c20 > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t_s0 = np.clip(-c01 / (2.0 * c02), 0.0, 1.0)
        t_s1 = np.clip(-(c01 + c11) / (2.0 * c02), 0.0, 1.0)
        s_t0 = np.clip(-c10 / (2.0 * c20), 0.0, 1.0)
        s_t1 = np.clip(-(c10 + c11) / (2.0 * c20), 0.0, 1.0)
    det = 4.0 * c20 * c02 - c11 * c11
    interior = (det > 0.0) & ok20
    safe = np.where(interior, det, 1.0)
    s_in = np.where(interior, (c11 * c01 - 2.0 * c02 * c10) / safe, 0.0)
    t_in = np.where(interior, (c11 * c10 - 2.0 * c20 * c01) / safe, 0.0)
    interior &= (s_in >= 0.0) & (s_in <= 1.0) & (t_in >= 0.0) & (t_in <= 1.0)
    cand_s = np.stack([
        zeros, ones, zeros, ones,
        zeros, ones,
        np.where(ok20, s_t0, zeros), np.where(ok20, s_t1, zeros),
        np.where(interior, s_in, zeros),
    ])
    cand_t = np.stack([
        zeros, zeros, ones, ones,
        np.where(ok02, t_s0, zeros), np.where(ok02, t_s1, zeros),
        zeros, ones,
        np.where(interior, t_in, zeros),
    ])
    vals = (c00 + c10 * cand_s + c01 * cand_t + c20 * cand_s * cand_s
            + c11 * cand_s * cand_t + c02 * cand_t * cand_t)
    pick = np.argmin(vals, axis=0)
    rows = np.arange(c00.size)
    return cand_s[pick, rows], cand_t[pick, rows], vals[pick, rows]


def _factor_side_min(x, f, base, a, b, z):
    """Exact minimization over one factor's full (angle, eigenpair) triple.

    With the other factor held fixed, the squared residual restricted to
    one factor is a trigonometric polynomial of harmonic order <= 2 in the
    doubled angle whose Fourier coefficients are bivariate quadratics in
    the eigenvalue pair.  Eight angle samples per eigenvalue probe pin the
    model down exactly; the model is scanned over the angle with a
    closed-form box minimization per scan point, polished by alternating
    Newton steps on the angle with exact eigenpair solves, and the result
    is accepted only when the true residual improves."""
    step = math.pi / _ANGLE_SAMPLES
    grid = np.arange(_ANGLE_SAMPLES) * step
    probes = np.array(_QUAD_PROBES)
    v11, v12, v22 = _pair_entries(
        grid[np.newaxis, :], probes[:, :1], probes[:, 1:]
    )
    other = 3 - base
    o11, o12, o22 = _pair_entries(x[other], x[other + 1], x[other + 2])
    if base == 0:
        p11 = v11 * o11 + v12 * o12 - a
        p12 = v11 * o12 + v12 * o22 - z
        p21 = v12 * o11 + v22 * o12
        p22 = v12 * o12 + v22 * o22 - b
    else:
        p11 = o11 * v11 + o12 * v12 - a
        p12 = o11 * v12 + o12 * v22 - z
        p21 = o12 * v11 + o22 * v12
        p22 = o12 * v12 + o22 * v22 - b
    samples = p11 * p11 + p12 * p12 + p21 * p21 + p22 * p22
    evals = samples.size

    bins = np.fft.fft(samples, axis=1) / float(_ANGLE_SAMPLES)
    # bins beyond frequency 2 hold only round-off; silence them
    bins[:, np.abs(_ANGLE_FREQS) > 2.0] = 0.0
    harm = np.vstack(_quad_coeffs(bins))

    phis = 2.0 * math.pi * np.arange(_ANGLE_SCAN) / _ANGLE_SCAN
    waves = np.exp(1j * np.outer(phis, _ANGLE_FREQS))
    coefs = (waves @ harm.T).real
    s_scan, t_scan, v_scan = _box_quad_min_batch(coefs)
    i_scan = int(np.argmin(v_scan))
    phi, s, t = float(phis[i_scan]), float(s_scan[i_scan]), float(t_scan[i_scan])
    scan_point = (phi, s, t)

    for _ in range(6):
        mono = np.array([1.0, s, t, s * s, s * t, t * t])
        gamma = mono @ harm
        for _ in range(4):
            e = np.exp(1j * _ANGLE_FREQS * phi)
            slope = ((1j * _ANGLE_FREQS * e) @ gamma).real
            curve = ((-(_ANGLE_FREQS ** 2) * e) @ gamma).real
            if curve <= 0.0:
                break
            phi -= slope / curve
            if abs(slope / curve) < 1e-15:
                break
        e = np.exp(1j * _ANGLE_FREQS * phi)
        s_new, t_new, _ = _box_quad_min((harm @ e).real)
        done = abs(s_new - s) + abs(t_new - t) < 1e-15
        s, t = s_new, t_new
        if done:
            break

    p_raw, j_raw = np.unravel_index(int(np.argmin(samples)), samples.shape)
    # the sampled minimum is re-evaluated through the scalar path so that
    # acceptance always compares like against like
    raw_point = (2.0 * (j_raw * step),) + _QUAD_PROBES[p_raw]
    cands = []
    for cand_phi, cand_s, cand_t in (raw_point, scan_point, (phi, s, t)):
        trial = list(x)
        trial[base] = (cand_phi / 2.0) % math.pi
        trial[base + 1] = min(1.0, max(0.0, cand_s))
        trial[base + 2] = min(1.0, max(0.0, cand_t))
        ft = _residual_sq(trial, a, b, z)
        evals += 1
        cands.append((ft, trial[base], trial[base + 1], trial[base + 2]))
    ft, theta, s, t = min(cands)
    if ft < f:
        out = list(x)
        out[base] = theta
        out[base + 1] = s
        out[base + 2] = t
        return out, ft, evals, True
    return x, f, evals, False


def _angle_plane_min(x, f, a, b, z):
    """Exact joint minimization over the two angle slots.

    With the eigenvalues held fixed, the squared residual on the plane of
    the two angles is a trigonometric polynomial with harmonics up to 2 in
    each doubled angle, so an 8x8 sample grid determines it exactly.  The
    interpolant is scanned on a finer grid and polished by Newton steps;
    the move is accepted only when the true residual improves."""
    base = math.pi / _ANGLE_SAMPLES
    grid = np.arange(_ANGLE_SAMPLES) * base
    la11, la12, la22 = _pair_entries(grid, x[1], x[2])
    lb11, lb12, lb22 = _pair_entries(grid, x[4], x[5])
    p11 = np.outer(la11, lb11) + np.outer(la12, lb12) - a
    p12 = np.outer(la11, lb12) + np.outer(la12, lb22) - z
    p21 = np.outer(la12, lb11) + np.outer(la22, lb12)
    p22 = np.outer(la12, lb12) + np.outer(la22, lb22) - b
    values = p11 * p11 + p12 * p12 + p21 * p21 + p22 * p22
    evals = values.size
    coeffs = np.fft.fft2(values) / float(_ANGLE_SAMPLES * _ANGLE_SAMPLES)
    # bins beyond frequency 2 hold only round-off; silence them
    mask = np.abs(_ANGLE_FREQS) <= 2.0
    coeffs *= np.outer(mask, mask)

    phis = 2.0 * math.pi * np.arange(_ANGLE_SCAN) / _ANGLE_SCAN
    waves = np.exp(1j * np.outer(phis, _ANGLE_FREQS))
    scan = (waves @ coeffs @ waves.T).real
    j_scan, k_scan = np.unravel_index(int(np.argmin(scan)), scan.shape)
    phi_a, phi_b = float(phis[j_scan]), float(phis[k_scan])

    def derivatives(pa, pb):
        ea = np.exp(1j * _ANGLE_FREQS * pa)
        eb = np.exp(1j * _ANGLE_FREQS * pb)
        da = 1j * _ANGLE_FREQS * ea
        db = 1j * _ANGLE_FREQS * eb
        grad = ((da @ coeffs @ eb).real, (ea @ coeffs @ db).real)
        hess = (
            -(_ANGLE_FREQS ** 2 * ea) @ coeffs @ eb,
            (da @ coeffs @ db),
            ea @ coeffs @ -(_ANGLE_FREQS ** 2 * eb),
        )
        return grad, tuple(h.real for h in hess)

    start = (phi_a, phi_b)
    for _ in range(8):
        (ga, gb), (haa, hab, hbb) = derivatives(phi_a, phi_b)
        det = haa * hbb - hab * hab
        if det <= 0.0 or haa <= 0.0:
            break
        step_a = (hbb * ga - hab * gb) / det
        step_b = (haa * gb - hab * ga) / det
        phi_a -= step_a
        phi_b -= step_b
        if abs(step_a) + abs(step_b) < 1e-15:
            break

    j_best, k_best = np.unravel_index(int(np.argmin(values)), values.shape)
    best_ft = None
    best_angles = None
    # the sampled minimum is re-evaluated through the scalar path so that
    # acceptance always compares like against like
    raw = (2.0 * (j_best * base), 2.0 * (k_best * base))
    for pa, pb in (raw, start, (phi_a, phi_b)):
        trial = list(x)
        trial[0] = (pa / 2.0) % math.pi
        trial[3] = (pb / 2.0) % math.pi
        ft = _residual_sq(trial, a, b, z)
        evals += 1
        if best_ft is None or ft < best_ft:
            best_ft = ft
            best_angles = (trial[0], trial[3])
    if best_ft < f:
        out = list(x)
        out[0], out[3] = best_angles
        return out, best_ft, evals, True
    return x, f, evals, False


def _refine(x0, a, b, z, max_evals):
    """Blockwise-exact descent on the six-parameter search space.

    Each pass minimizes the squared residual exactly on the plane of the
    two angles, over each factor's (angle, eigenpair) triple with the
    other factor fixed, and along every single eigenvalue coordinate; the
    mix of block sizes matters, because the large blocks escape valleys
    that jam single-coordinate descent while the scalar lines polish past
    the fit-noise floor of the block models.  After an improving pass a
    pattern move doubles along the net displacement, which keeps the
    search from crawling down curved valleys one block at a time.  Stops
    at a blockwise stationary point, at the target residual, or at the
    evaluation cap.  Deterministic throughout.
    """
    x = list(x0)
    f = _residual_sq(x, a, b, z)
    evals = 1
    while f > _TARGET_SQ and evals < max_evals:
        improved = False
        before = list(x)
        x, f, used, moved = _angle_plane_min(x, f, a, b, z)
        evals += used
        improved = improved or moved
        for base in (0, 3):
            if f <= _TARGET_SQ:
                break
            x, f, used, moved = _factor_side_min(x, f, base, a, b, z)
            evals += used
            improved = improved or moved
        for i in (1, 2, 4, 5):
            if f <= _TARGET_SQ:
                break
            x, f, used, moved = _eigen_line_min(x, i, f, a, b, z)
            evals += used
            improved = improved or moved
        if not improved:
            break
        delta = [xi - bi for xi, bi in zip(x, before)]
        while evals < max_evals and f > _TARGET_SQ:
            trial = [_clip_param(i, x[i] + delta[i]) for i in range(6)]
            if trial == x:
                break
            ft = _residual_sq(trial, a, b, z)
            evals += 1
            if ft >= f:
                break
            x, f = trial, ft
            delta = [2.0 * d for d in delta]
    return x, f, evals


def oracle_2x2(a: float, b: float, z: float, budget: int = 1_000_000, seed: int = 0) -> OracleResult:
    """Search for two real symmetric PSD contractions whose product is
    ``[[a, z], [0, b]]``, minimizing the Frobenius residual.

    A full grid of floor(budget^(1/6)) points per parameter is scanned, then
    the best grid points are polished by cyclic coordinate refinement with
    exact line minimization along every coordinate.  The search is
    deterministic for a fixed seed and budget (the seed is echoed for
    reproducibility bookkeeping; the search itself draws no random numbers).
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

    m = g * g * g
    per_start = max(20_000, budget // (4 * _REFINE_STARTS))
    best_f = float(flat[order[0]])
    best_x = None
    for idx in order:
        i, j = divmod(int(idx), m)
        ia, rem = divmod(i, g * g)
        ja, ka = divmod(rem, g)
        ib, rem = divmod(j, g * g)
        jb, kb = divmod(rem, g)
        x0 = [thetas[ia], lams[ja], lams[ka], thetas[ib], lams[jb], lams[kb]]
        x, f, used = _refine(x0, a, b, z, per_start)
        evaluations += used
        if best_x is None or f < best_f:
            best_x, best_f = x, f
        if best_f <= _TARGET_SQ:
            break
    if best_f > _TARGET_SQ:
        # Ill-conditioned feasible instances (b near 1, z near the bound)
        # descend slowly; grant the winning start a full-budget polish so
        # the per-start screening cap never cuts off a converging descent.
        best_x, best_f, used = _refine(best_x, a, b, z, budget)
        evaluations += used
    return OracleResult(
        best_residual=float(math.sqrt(max(best_f, 0.0))),
        parameters=tuple(float(v) for v in best_x),
        evaluations=int(evaluations),
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
