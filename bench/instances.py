"""Seeded inputs for the benchmark, built without the program under test.

Every matrix here is U C U* with U a Haar unitary (numpy QR with the phase
of R's diagonal fixed) and C the canonical block
a I_d1 (+) b I_d2 (+) [[a I_r, diag(p)], [0, b I_r]].  The paper's bound
|sqrt(a) - sqrt(b)| sqrt((1 - a)(1 - b)) is computed here too, so the
expected verdict of every instance is known before the program sees it.

The structure of each workload (sizes, kinds, counts) is fixed; the seed
only draws the values, so every seed costs about the same to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Seed of the near-coincident set; it does not depend on ``--seed``.
NEAR_SEED = 20260
#: Gap b - a of the near-coincident set.
NEAR_GAP = 1e-6


def paper_bound(a: float, b: float) -> float:
    """|sqrt(a) - sqrt(b)| * sqrt((1 - a)(1 - b)) for a, b in [0, 1]."""
    return abs(math.sqrt(a) - math.sqrt(b)) * math.sqrt((1.0 - a) * (1.0 - b))


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def canonical_block(a, b, d1, d2, p) -> np.ndarray:
    r = len(p)
    n = d1 + d2 + 2 * r
    c = np.zeros((n, n), dtype=complex)
    diag = np.concatenate([np.full(d1, a), np.full(d2, b), np.full(r, a), np.full(r, b)])
    c[np.arange(n), np.arange(n)] = diag
    k = d1 + d2
    c[np.arange(k, k + r), np.arange(k + r, n)] = p
    return c


@dataclass(frozen=True, eq=False)
class Instance:
    """One quadratic matrix with the data it was built from.

    ``kind`` is "feasible", "infeasible" or "r0" (no coupled block, so
    feasible); ``frac`` is the largest coupling as a fraction of the bound
    (drawn for r0 too, where it only sets z of the direct 2x2 calls);
    ``near`` marks the near-coincident set.
    """

    t: np.ndarray
    a: float
    b: float
    d1: int
    d2: int
    p: np.ndarray
    kind: str
    frac: float
    near: bool = False

    @property
    def n(self) -> int:
        return self.t.shape[0]

    @property
    def bound(self) -> float:
        return paper_bound(self.a, self.b)

    @property
    def p_norm(self) -> float:
        return float(self.p.max()) if self.p.size else 0.0

    @property
    def feasible(self) -> bool:
        return self.p_norm <= self.bound

    @property
    def z(self) -> float:
        """Coupling of the direct 2x2 calls on this instance's (a, b)."""
        return self.frac * self.bound


def draw_ab(rng: np.random.Generator):
    """a, b in [0.05, 0.95], at least 0.15 apart, with bound >= 0.03;
    either order, so the reflected closed forms run too."""
    while True:
        a, b = rng.uniform(0.05, 0.95, 2)
        if abs(a - b) >= 0.15 and paper_bound(a, b) >= 0.03:
            return float(a), float(b)


def coupling_fraction(kind: str, rng: np.random.Generator) -> float:
    """Largest coupling as a fraction of the bound: interior for feasible,
    clearly above 1 for infeasible."""
    return float(rng.uniform(1.1, 1.6) if kind == "infeasible" else rng.uniform(0.3, 0.9))


def make_instance(d1, d2, r, kind, rng) -> Instance:
    a, b = draw_ab(rng)
    frac = coupling_fraction(kind, rng)
    p = np.zeros(0)
    if kind != "r0":
        p = frac * paper_bound(a, b) * np.concatenate([[1.0], rng.uniform(0.1, 1.0, r - 1)])
    u = haar_unitary(d1 + d2 + 2 * len(p), rng)
    t = u @ canonical_block(a, b, d1, d2, p) @ u.conj().T
    return Instance(t, a, b, d1, d2, np.sort(p)[::-1], kind, frac)


def make_set(shapes, seed: int, stream: int):
    """One instance per (d1, d2, r, kind) entry, drawn from ``seed``."""
    rng = np.random.default_rng([seed, stream])
    return [make_instance(d1, d2, r, kind, rng) for d1, d2, r, kind in shapes]


#: pipeline-large: the ROADMAP shape n = 750 (d1 = d2 = 125, r = 250), an
#: infeasible n = 450, and feasible, infeasible and r = 0 instances at
#: n = 300.  The round is kept short so that each run holds about ten.
LARGE_SHAPES = [
    (125, 125, 250, "feasible"),
    (75, 75, 150, "infeasible"),
    (50, 50, 100, "feasible"),
    (50, 50, 100, "infeasible"),
    (150, 150, 0, "r0"),
]


def _small_shapes():
    # (d1, d2, r) with n = d1 + d2 + 2r from 2 to 32; each size once per kind
    sizes = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (2, 1, 2), (1, 2, 3), (2, 2, 4),
             (3, 3, 5), (4, 4, 6), (5, 3, 8), (6, 6, 10)]
    shapes = []
    for d1, d2, r in sizes:
        shapes.append((d1, d2, r, "feasible"))
        shapes.append((d1, d2, r, "infeasible"))
        shapes.append((d1 + r, d2 + r, 0, "r0"))
    return shapes


#: pipeline-small: ten sizes from n = 2 to 32, each feasible, infeasible
#: and with r = 0.
SMALL_SHAPES = _small_shapes()

def near_coincident_set(count: int = 40):
    """Instances with b - a = 1e-6 at n = 4..8 (r = 0, 1, 2), feasible by
    the bound.  Drawn from a fixed seed, so the set is the same in every
    run whatever ``--seed`` is."""
    rng = np.random.default_rng(NEAR_SEED)
    out = []
    for i in range(count):
        n = 4 + i % 5
        r = i % 3
        d1 = (n - 2 * r) // 2
        d2 = n - 2 * r - d1
        a = float(rng.uniform(0.1, 0.8))
        b = a + NEAR_GAP
        p = np.sort(rng.uniform(0.2, 0.8, r) * paper_bound(a, b))[::-1]
        u = haar_unitary(n, rng)
        t = u @ canonical_block(a, b, d1, d2, p) @ u.conj().T
        kind = "r0" if r == 0 else "feasible"
        out.append(Instance(t, a, b, d1, d2, p, kind, 0.5, near=True))
    return out


@dataclass(frozen=True)
class Probe:
    """An oracle target [[a, z], [0, b]] and the kind of z."""

    a: float
    b: float
    z: float
    kind: str

    @property
    def feasible(self) -> bool:
        return self.kind in ("interior", "near_bound")


#: z as (fraction of the bound, offset) for each probe kind.
PROBE_KINDS = {
    "interior": (0.5, 0.0),
    "near_bound": (0.99, 0.0),
    "infeasible": (1.01, 1e-3),
    "infeasible_far": (2.0, 1e-3),
}

#: The traced run's oracle probes sit at these fixed (a, b).  They do not
#: depend on ``--seed``: the search cost of a probe is chaotic in its input
#: (moving a and b by 1e-7 changes the evaluations of one probe by up to
#: 20%), so seeded probes would let the seed, not the program, set the
#: figures.
ORACLE_ANCHORS = [(0.2, 0.7), (0.45, 0.65)]


def probes_at(a: float, b: float):
    bound = paper_bound(a, b)
    return [Probe(a, b, frac * bound + off, kind) for kind, (frac, off) in PROBE_KINDS.items()]


def oracle_probes():
    return [pr for a, b in ORACLE_ANCHORS for pr in probes_at(a, b)]
