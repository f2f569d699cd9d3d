"""End-to-end acceptance battery for the positive-contraction factorization
machinery.

Each check covers one headline guarantee: the scalar counterexample, the
feasibility boundary sweep, the interior spectral identities, operator-block
lifting, the full detect/canonicalize/factor pipeline, agreement between the
closed forms and the independent search oracle, the necessary-condition
screen, and corner-block certification of block-triangular products.  Every
check prints a single bracketed pass/fail line with its wall-clock time so
the battery can be read off the test log at a glance.
"""

import contextlib
import json
import time

import numpy as np
import pytest

from quadfactor import (
    InfeasibleError,
    assemble_from_canonical,
    assess_feasibility,
    canonicalize,
    detect_quadratic,
    diagonal_block_factors,
    factor_2x2,
    factor_block,
    factor_quadratic,
    feasibility_bound,
    necessary_conditions,
    operator_norm,
    oracle_2x2,
    random_quadratic,
    verify_certificate,
)
from quadfactor.cli import main
from quadfactor.io import format_json, matrix_to_document


@contextlib.contextmanager
def scenario(capsys, number, name, limit_seconds):
    """Time one acceptance check and print its verdict line.

    The line goes straight to the terminal (bypassing capture) so it shows
    up in ordinary pytest runs; the runtime limit is part of the check."""
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < limit_seconds, (
            "runtime %.2f s exceeds the %.0f s limit" % (elapsed, limit_seconds)
        )
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(
                "[acceptance] criterion %d (%s): %s (%.2f s)"
                % (number, name, "PASS" if ok else "FAIL", elapsed)
            )


def haar_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def random_psd_contraction(rng, n):
    u = haar_unitary(rng, n)
    return u @ np.diag(rng.uniform(0.0, 1.0, n)) @ u.conj().T


def factor_pair_matrices(rep):
    fa = np.array([[rep.a11, rep.a12], [rep.a12, rep.a22]])
    fb = np.array([[rep.b11, rep.b12], [rep.b12, rep.b22]])
    return fa, fb


def distinct_pair(rng, low, high, gap):
    lo, hi = np.sort(rng.uniform(low, high, 2))
    while hi - lo < gap:
        lo, hi = np.sort(rng.uniform(low, high, 2))
    return float(lo), float(hi)


def test_counterexample_verdict_screen_and_oracle(capsys, tmp_path):
    with scenario(capsys, 1, "scalar counterexample", 5.0):
        t = np.array([[9.0, 3.0], [0.0, 16.0]]) / 25.0
        path = tmp_path / "counterexample.json"
        path.write_text(format_json(matrix_to_document(t)))
        code = main(["check", "--input", str(path)])
        out = capsys.readouterr().out
        assert code == 2
        verdict = json.loads(out)
        assert verdict["verdict"] == "infeasible"
        feas = verdict["payload"]["feasibility"]
        assert feas["feasible"] is False
        assert abs(feas["bound"] - 0.096) <= 1e-12
        assert abs(feas["p_norm"] - 0.12) <= 1e-12
        assert abs(feas["margin"] + 0.024) <= 1e-12
        screen = necessary_conditions(t)
        assert screen.real_part_ok and screen.imag_part_ok and screen.norm_ok
        probe = oracle_2x2(0.36, 0.64, 0.12)
        assert probe.best_residual >= 1e-3


def test_feasibility_boundary_sweep(capsys):
    with scenario(capsys, 2, "feasibility boundary sweep", 5.0):
        for i in range(11):
            for j in range(11):
                a, b = i / 10.0, j / 10.0
                bound = feasibility_bound(a, b)
                for z in (0.0, bound / 2.0, bound, bound + 1e-6 + 1e-6 * bound):
                    expected = z <= bound + 1e-9
                    report = assess_feasibility(a, b, z)
                    assert report.feasible == expected, (a, b, z)
                    if not expected:
                        with pytest.raises(InfeasibleError):
                            factor_2x2(a, b, z)
                        continue
                    fa, fb = factor_pair_matrices(factor_2x2(a, b, z))
                    for mat in (fa, fb):
                        eigs = np.linalg.eigvalsh(mat)
                        assert eigs[0] >= -1e-10, (a, b, z)
                        assert eigs[-1] <= 1.0 + 1e-10, (a, b, z)
                    target = np.array([[a, z], [0.0, b]])
                    assert np.linalg.norm(fa @ fb - target) <= 1e-10, (a, b, z)


def test_interior_spectral_identities(capsys):
    with scenario(capsys, 3, "interior spectral identities", 2.0):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            a, b = distinct_pair(rng, 0.001, 0.999, 1e-4)
            z = float(rng.uniform(0.0, 1.0)) * feasibility_bound(a, b)
            rep = factor_2x2(a, b, z)
            fa, fb = factor_pair_matrices(rep)
            eig_a = np.linalg.eigvalsh(fa)
            eig_b = np.linalg.eigvalsh(fb)
            assert abs(eig_a[0] - rep.lambda1) <= 1e-10, (a, b, z)
            assert abs(eig_a[1] - 1.0) <= 1e-10, (a, b, z)
            assert abs(eig_b[0] - rep.lambda2) <= 1e-10, (a, b, z)
            assert abs(eig_b[1] - 1.0) <= 1e-10, (a, b, z)
            w = z * z / ((1.0 - a) * (1.0 - b))
            assert abs(rep.lambda1 * rep.lambda2 - a * b) <= 1e-10, (a, b, z)
            assert abs(rep.lambda1 + rep.lambda2 - (a + b - w)) <= 1e-10, (a, b, z)


def test_operator_block_lifting(capsys):
    with scenario(capsys, 4, "operator-block lifting", 10.0):
        rng = np.random.default_rng(4)
        for _ in range(100):
            r = int(rng.integers(1, 9))
            a, b = distinct_pair(rng, 0.02, 0.98, 0.02)
            while feasibility_bound(a, b) < 1e-3:
                a, b = distinct_pair(rng, 0.02, 0.98, 0.02)
            bound = feasibility_bound(a, b)
            g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
            h = g @ g.conj().T
            h_norm = operator_norm(h)
            p = h * (float(rng.uniform(0.0, 0.99)) * bound / h_norm)
            lifted = factor_block(a, b, p)
            assert lifted.report.passed, (a, b, r)
            assert lifted.report.product_residual <= 1e-8, (a, b, r)
            hot = h * ((1.01 * bound + 1e-6) / h_norm)
            with pytest.raises(InfeasibleError):
                factor_block(a, b, hot)


def test_full_pipeline_round_trip(capsys):
    with scenario(capsys, 5, "full pipeline round trip", 30.0):
        rng = np.random.default_rng(5)
        for k in range(200):
            d1 = int(rng.integers(0, 9))
            d2 = int(rng.integers(0, 9))
            r = int(rng.integers(0, 5))
            if d1 + d2 + 2 * r == 0:
                d1 = 1
            a, b = distinct_pair(rng, 0.0, 1.0, 0.05)
            bound = feasibility_bound(a, b)
            p_spec = rng.uniform(0.2, 1.5, r) * bound
            t = random_quadratic(d1, d2, r, a, b, p_spec, seed=1000 + k)
            form = canonicalize(t, detect_quadratic(t))
            rebuilt = assemble_from_canonical(form)
            assert np.linalg.norm(rebuilt - t) <= 1e-9 * np.linalg.norm(t), k
            margin = bound - (float(p_spec.max()) if r else 0.0)
            if margin >= 1e-6:
                produced = factor_quadratic(t)
                check = verify_certificate(t, produced.A, produced.B, tol=1e-8)
                assert check.passed, (k, d1, d2, r, margin)
            elif margin <= -1e-6:
                with pytest.raises(InfeasibleError):
                    factor_quadratic(t)


def test_search_oracle_agreement(capsys):
    with scenario(capsys, 6, "search oracle agreement", 120.0):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            a, b = (float(v) for v in rng.uniform(0.05, 0.95, 2))
            bound = feasibility_bound(a, b)
            for z, feasible in (
                (0.5 * bound, True),
                (0.99 * bound, True),
                (bound, True),
                (1.01 * bound + 1e-3, False),
                (2.0 * bound + 1e-3, False),
            ):
                probe = oracle_2x2(a, b, z, budget=10**6)
                if feasible:
                    assert probe.best_residual <= 1e-6, (a, b, z, probe.best_residual)
                else:
                    assert probe.best_residual >= 1e-4, (a, b, z, probe.best_residual)


def test_contraction_products_pass_screen(capsys):
    with scenario(capsys, 7, "necessary-condition screen", 10.0):
        rng = np.random.default_rng(7)
        violations = 0
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            t = random_psd_contraction(rng, n) @ random_psd_contraction(rng, n)
            screen = necessary_conditions(t, tol=1e-8)
            if not (screen.real_part_ok and screen.imag_part_ok and screen.norm_ok):
                violations += 1
        assert violations == 0


def test_corner_blocks_always_certify(capsys):
    with scenario(capsys, 8, "corner-block certification", 20.0):
        rng = np.random.default_rng(8)
        falsified = 0
        for k in range(200):
            kind = k % 4
            if kind == 0:
                a, b = distinct_pair(rng, 0.02, 0.98, 0.02)
                z = float(rng.uniform(0.0, 1.0)) * feasibility_bound(a, b)
                fa, fb = factor_pair_matrices(factor_2x2(a, b, z))
                split = 1
            elif kind in (1, 2):
                r = int(rng.integers(1, 7))
                a, b = distinct_pair(rng, 0.02, 0.98, 0.02)
                while feasibility_bound(a, b) < 1e-3:
                    a, b = distinct_pair(rng, 0.02, 0.98, 0.02)
                bound = feasibility_bound(a, b)
                g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
                h = g @ g.conj().T
                p = h * (float(rng.uniform(0.0, 0.95)) * bound / operator_norm(h))
                lifted = factor_block(a, b, p)
                fa, fb = lifted.A, lifted.B
                split = r
            else:
                d1 = int(rng.integers(0, 5))
                d2 = int(rng.integers(0, 5))
                r = int(rng.integers(0, 4))
                if d1 + d2 + 2 * r == 0:
                    d1 = 2
                if d1 + d2 + 2 * r == 1:
                    d1 += 1
                a, b = distinct_pair(rng, 0.05, 0.95, 0.05)
                bound = feasibility_bound(a, b)
                p_spec = rng.uniform(0.1, 0.9, r) * bound
                t = random_quadratic(d1, d2, r, a, b, p_spec, seed=3000 + k)
                produced = factor_quadratic(t)
                form = canonicalize(t, detect_quadratic(t))
                u = np.asarray(form.unitary)
                # rotate the certified pair into the coordinates where the
                # product is block upper triangular
                fa = u.conj().T @ produced.A @ u
                fb = u.conj().T @ produced.B @ u
                n = d1 + d2 + 2 * r
                split = d1 + d2 + r if r else min(max(1, d1), n - 1)
            for corner in diagonal_block_factors(fa, fb, split):
                if not corner.report.passed or corner.report.product_residual > 1e-8:
                    falsified += 1
        assert falsified == 0
