"""Checks of the program's outputs against computations made here.

Nothing in this module imports quadfactor: factors are tested with
numpy's own ``eigvalsh`` and a product, verdicts against the paper's bound
from ``instances.paper_bound``, and oracle answers by rebuilding both
factors from the reported parameters.  Each function returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

from instances import canonical_block, paper_bound

#: The tolerance the program certifies to by default.
TOL = 1e-9
#: Agreement demanded between a reported bound or coupling norm and ours;
#: the program works from (a, b) it recovered, which carry round-off.
REPORT_TOL = 1e-7
#: An oracle search must reach this residual on a feasible probe ...
ORACLE_FEASIBLE_MAX = 1e-6
#: ... and must stay above this one on an infeasible probe.
ORACLE_INFEASIBLE_MIN = 1e-4


def _fro(m) -> float:
    return float(np.linalg.norm(m))


def factor_problems(t, a, b, tol: float = TOL):
    """A and B Hermitian with eigenvalues in [-tol, 1 + tol], and
    ||AB - T||_F <= tol * max(1, ||T||_F)."""
    t, a, b = (np.asarray(m, dtype=complex) for m in (t, a, b))
    if a.shape != t.shape or b.shape != t.shape:
        return ["factor shapes %s, %s differ from %s" % (a.shape, b.shape, t.shape)]
    problems = []
    for name, m in (("A", a), ("B", b)):
        skew = _fro(m - m.conj().T)
        if skew > tol * max(1.0, _fro(m)):
            problems.append("%s is not Hermitian (||M - M*||_F = %.3e)" % (name, skew))
        w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
        if w[0] < -tol or w[-1] > 1.0 + tol:
            problems.append(
                "%s has eigenvalues in [%.6g, %.6g], outside [-tol, 1 + tol]"
                % (name, w[0], w[-1])
            )
    residual = _fro(a @ b - t)
    if residual > tol * max(1.0, _fro(t)):
        problems.append("||AB - T||_F = %.3e exceeds tol * max(1, ||T||_F)" % residual)
    return problems


def feasibility_problems(a, b, p_norm, bound, reported_p_norm, reported_feasible):
    """A feasibility verdict: it must be the one the paper's bound gives,
    and its bound and p_norm must match ours."""
    ours = paper_bound(a, b)
    problems = []
    if bool(reported_feasible) != (p_norm <= ours):
        problems.append(
            "verdict %s, but the bound says %s"
            % (_word(reported_feasible), _word(p_norm <= ours))
        )
    if abs(bound - ours) > REPORT_TOL * max(1.0, ours):
        problems.append("reported bound %.12g, the paper's bound is %.12g" % (bound, ours))
    if abs(reported_p_norm - p_norm) > REPORT_TOL * max(1.0, p_norm):
        problems.append("reported p_norm %.12g, max(p) is %.12g" % (reported_p_norm, p_norm))
    return problems


def _word(feasible) -> str:
    return "feasible" if feasible else "infeasible"


def rotation_factor(theta: float, s: float, t: float) -> np.ndarray:
    """R(theta) diag(s, t) R(theta)^T with R the rotation by theta."""
    c, sn = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -sn], [sn, c]])
    return rot @ np.diag([s, t]) @ rot.T


def oracle_problems(a, b, z, feasible: bool, best_residual: float, parameters):
    """Rebuild both factors from the six parameters; they must be PSD
    contractions whose product has the reported residual, and that
    residual must separate feasible from infeasible probes."""
    if len(parameters) != 6:
        return ["oracle returned %d parameters, expected 6" % len(parameters)]
    fa = rotation_factor(*parameters[:3])
    fb = rotation_factor(*parameters[3:])
    problems = []
    for name, m in (("A", fa), ("B", fb)):
        w = np.linalg.eigvalsh(m)
        if w[0] < -1e-12 or w[-1] > 1.0 + 1e-12:
            problems.append("oracle factor %s has eigenvalues [%.6g, %.6g]" % (name, w[0], w[-1]))
    target = np.array([[a, z], [0.0, b]])
    ours = _fro(fa @ fb - target)
    if abs(ours - best_residual) > 1e-12 + 1e-6 * best_residual:
        problems.append(
            "oracle reports residual %.6e, its parameters give %.6e" % (best_residual, ours)
        )
    if feasible and best_residual > ORACLE_FEASIBLE_MAX:
        problems.append("feasible probe: oracle residual %.3e > %.0e" % (best_residual, ORACLE_FEASIBLE_MAX))
    if not feasible and best_residual < ORACLE_INFEASIBLE_MIN:
        problems.append("infeasible probe: oracle residual %.3e < %.0e" % (best_residual, ORACLE_INFEASIBLE_MIN))
    return problems


def document_matrix(doc) -> np.ndarray:
    """Decode {"rows", "cols", "data": [[re, im], ...]} with numpy alone."""
    data = np.asarray(doc["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(int(doc["rows"]), int(doc["cols"]))


def document_text(t) -> str:
    """Encode a matrix as a JSON matrix document (repr floats round-trip)."""
    m = np.asarray(t, dtype=complex)
    data = [[float(v.real), float(v.imag)] for v in m.ravel()]
    return json.dumps({"rows": m.shape[0], "cols": m.shape[1], "data": data})


def canonical_problems(inst, payload):
    """The canonical form reported for ``inst`` must have its block sizes
    and couplings, and its unitary must reduce T to that form."""
    params, canon = payload["params"], payload["canonical"]
    ra, rb = params["a"][0], params["b"][0]
    d1, d2, r = canon["d1"], canon["d2"], canon["r"]
    p = np.asarray(canon["p_values"], dtype=float)
    problems = []
    # the program orders the roots, so (a, d1) and (b, d2) may come swapped
    ours = sorted([(inst.a, inst.d1), (inst.b, inst.d2)])
    theirs = sorted([(ra, d1), (rb, d2)])
    if [d for _, d in ours] != [d for _, d in theirs] or r != inst.p.size:
        problems.append(
            "block sizes (%d, %d, %d), built with (%d, %d, %d)"
            % (d1, d2, r, inst.d1, inst.d2, inst.p.size)
        )
        return problems
    if max(abs(x - y) for (x, _), (y, _) in zip(ours, theirs)) > REPORT_TOL:
        problems.append("roots (%.12g, %.12g), built with (%.12g, %.12g)" % (ra, rb, inst.a, inst.b))
    if p.size and np.max(np.abs(p - inst.p)) > REPORT_TOL * max(1.0, inst.p_norm):
        problems.append("couplings differ from the built ones by %.3e" % np.max(np.abs(p - inst.p)))
    if "unitary" in payload:
        u = document_matrix(payload["unitary"])
        n = inst.n
        if _fro(u.conj().T @ u - np.eye(n)) > 1e-8 * n:
            problems.append("reported unitary is not unitary")
        reduced = u.conj().T @ inst.t @ u
        if _fro(reduced - canonical_block(ra, rb, d1, d2, p)) > 1e-7 * max(1.0, _fro(inst.t)):
            problems.append("U* T U is not the reported canonical block")
    return problems


#: Exit codes of the command line, keyed by verdict.
EXIT = {"ok": 0, "error": 1, "infeasible": 2, "not_quadratic": 3}


def cli_problems(command, inst, code, text):
    """Check one ``quadfactor`` process: its exit code against the verdict
    the bound predicts, and its report against ``inst``."""
    expect = "ok" if command in ("canonical", "bound", "verify") or inst.feasible else "infeasible"
    if code != EXIT[expect]:
        return ["%s exited %s, expected %d (%s)" % (command, code, EXIT[expect], expect)]
    try:
        report = json.loads(text)
        payload = report["payload"]
    except (ValueError, KeyError, TypeError) as exc:
        return ["%s printed no report: %s" % (command, exc)]
    if report.get("verdict") != expect:
        return ["%s verdict %r, expected %r" % (command, report.get("verdict"), expect)]
    if command == "bound":
        if abs(payload["bound"] - inst.bound) > 1e-12:
            return ["bound printed %.17g, the paper's bound is %.17g" % (payload["bound"], inst.bound)]
        return []
    if command == "verify":
        return [] if payload["report"]["passed"] else ["verify did not pass the factor output"]
    if command == "canonical":
        return canonical_problems(inst, payload)
    if command == "factor" and inst.feasible:
        if not np.array_equal(document_matrix(payload["t"]), inst.t):
            return ["factor echoed a matrix other than its input"]
        return factor_problems(inst.t, document_matrix(payload["a"]), document_matrix(payload["b"]))
    feas = payload["feasibility"]
    return feasibility_problems(
        inst.a, inst.b, inst.p_norm, feas["bound"], feas["p_norm"], feas["feasible"]
    )
