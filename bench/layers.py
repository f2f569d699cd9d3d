"""The traced run: per-layer figures for one workload's inputs.

Spans are taken from here, around calls into each module's public
functions; nothing inside ``src/`` changes.  Every traced run reports
every layer, on the workload's own matrices and on the fixed oracle
probes, so the shares of the layers can be compared between workloads.
The stage replay calls the public stages in the order ``factor_quadratic``
does and must reach the same verdict on every instance.  Decompositions are counted by wrapping ``numpy.linalg`` while
a plain ``factor_quadratic`` call runs; the same call without the wrappers
gives the overhead of tracing.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import subprocess
import sys
import tracemalloc
from time import perf_counter

import numpy as np

import checker
import instances
from quadfactor import (
    QuadraticParams,
    assemble_full_factors,
    assess_feasibility,
    canonicalize,
    detect_quadratic,
    document_to_matrix,
    factor_2x2,
    factor_block,
    factor_quadratic,
    format_json,
    matrix_to_document,
    oracle_2x2,
    parse_matrix_text,
    verify_certificate,
)
from quadfactor import cli as qcli
from workloads import guarded

DECOMPOSITIONS = ("svd", "eigh", "eigvalsh", "lstsq", "qr")
#: Repeats of each direct 2x2 call, so one figure spans well above the
#: clock's resolution.
REPEATS_2X2 = 200


def decomposition_flops(name, shape, is_complex, compute_uv=True) -> float:
    """Operation count of one LAPACK decomposition from its input shape
    (Golub & Van Loan's leading terms; a complex flop counts as 4)."""
    m, n = shape[-2], shape[-1]
    k, big = min(m, n), max(m, n)
    if name == "svd":
        real = 4 * big * big * k + 8 * big * k * k + 9 * k ** 3 if compute_uv else 4 * big * k * k - 4 * k ** 3 / 3
    elif name == "eigh":
        real = 9 * n ** 3
    elif name == "eigvalsh":
        real = 4 * n ** 3 / 3
    elif name == "qr":
        real = 2 * (4 * big * k * k - 4 * k ** 3 / 3)
    else:  # lstsq
        real = 4 * big * k * k
    return real * (4 if is_complex else 1)


class LinalgCounter:
    """Counts, times and sizes the numpy.linalg decompositions made while
    it is entered."""

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.flops = 0.0

    def __enter__(self):
        self.saved = {name: getattr(np.linalg, name) for name in DECOMPOSITIONS}
        for name, fn in self.saved.items():
            setattr(np.linalg, name, self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        for name, fn in self.saved.items():
            setattr(np.linalg, name, fn)

    def _wrap(self, name, fn):
        def wrapped(a, *args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(a, *args, **kwargs)
            finally:
                self.seconds += perf_counter() - t0
                self.calls += 1
                arr = np.asarray(a)
                self.flops += decomposition_flops(
                    name, arr.shape, np.iscomplexobj(arr), kwargs.get("compute_uv", True))
        return wrapped


class Spans:
    """Durations per span name, kept in memory and written out at the end."""

    def __init__(self):
        self.records = []

    def time(self, name, fn, *args, **meta):
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.records.append({"span": name, "s": perf_counter() - t0, **meta})

    def mean(self, name, scale=1.0):
        values = [r["s"] for r in self.records if r["span"] == name]
        return scale * statistics.fmean(values)


def replay(spans: Spans, t, n: int):
    """factor_quadratic stage by stage; returns the verdict it reaches."""
    params = spans.time("canonical.detect_quadratic", detect_quadratic, t, n=n)
    form = spans.time("canonical.canonicalize", canonicalize, t, params, n=n)
    p_norm = float(form.p_values[0]) if form.r > 0 else 0.0
    report = assess_feasibility(params.a, params.b, p_norm)
    if not report.feasible:
        return "infeasible"
    clean = dataclasses.replace(form, params=QuadraticParams(report.a, report.b, params.residual))
    block_a = block_b = np.zeros((0, 0), dtype=complex)
    if form.r > 0:
        block = spans.time("factorize.factor_block", factor_block, report.a, report.b,
                           np.diag(form.p_values), n=n)
        block_a, block_b = block.A, block.B
    fa, fb = spans.time("factorize.assemble_full_factors", assemble_full_factors,
                        clean, block_a, block_b, n=n)
    cert = spans.time("verify.verify_certificate", verify_certificate, t, fa, fb, n=n)
    return "ok" if cert.passed else "refused"


def _replayed(spans, t, n) -> str:
    out = guarded(lambda: replay(spans, t, n))
    return out.value if out.verdict == "ok" else out.verdict


def trace_pipeline(spans, insts, factor_check):
    """Plain, counted and replayed factor_quadratic on every instance.

    Plain and counted calls alternate twice and the faster of each pair
    enters the overhead ratio, so a swing of the machine's speed between
    two calls weighs less."""
    plain_s = counted_s = 0.0
    counter = LinalgCounter()
    problems, failed = [], 0
    for inst in insts:
        plain, counted = [], []
        for _ in range(2):
            t0 = perf_counter()
            out = guarded(lambda: factor_quadratic(inst.t))
            plain.append(perf_counter() - t0)
            with counter:
                t0 = perf_counter()
                guarded(lambda: factor_quadratic(inst.t))
                counted.append(perf_counter() - t0)
        plain_s += min(plain)
        counted_s += min(counted)
        verdict = _replayed(spans, inst.t, inst.n)
        if verdict != out.verdict:
            problems.append("n=%d: replay reached %s, factor_quadratic %s" % (inst.n, verdict, out.verdict))
        if out.failed and inst.near:
            failed += 1
        elif out.failed:
            problems.append("n=%d: refused: %s" % (inst.n, out.value))
        else:
            problems.extend(factor_check(inst)(out))
    k = 2 * len(insts)  # counted calls
    metrics = {
        "linalg.decompositions_per_factor": (counter.calls / k, "count"),
        "linalg.decomposition_ms_per_factor": (1e3 * counter.seconds / k, "ms"),
        "linalg.computed_gflop_per_factor": (1e-9 * counter.flops / k, "GFLOP"),
        "trace.overhead_ratio": (counted_s / plain_s, "ratio"),
    }
    for name in ("canonical.detect_quadratic", "canonical.canonicalize", "factorize.factor_block",
                 "factorize.assemble_full_factors", "verify.verify_certificate"):
        metrics[name + ".ms"] = (spans.mean(name, 1e3), "ms")
    return metrics, problems, failed


def trace_2x2(spans, insts):
    for inst in insts:
        a, b, z = inst.a, inst.b, inst.z
        for name, fn in (("factorize.factor_2x2", factor_2x2), ("factorize.assess_feasibility", assess_feasibility)):
            def many():
                for _ in range(REPEATS_2X2):
                    guarded(lambda: fn(a, b, z))
            spans.time(name, many, n=2)
    return {name + ".us": (spans.mean(name, 1e6 / REPEATS_2X2), "us")
            for name in ("factorize.factor_2x2", "factorize.assess_feasibility")}


def trace_oracle(spans, probes):
    problems, evaluations = [], []
    for pr in probes:
        kind = "infeasible" if pr.kind.startswith("infeasible") else pr.kind
        res = spans.time("verify.oracle_2x2." + kind, oracle_2x2, pr.a, pr.b, pr.z)
        evaluations.append(res.evaluations)
        problems.extend(checker.oracle_problems(pr.a, pr.b, pr.z, pr.feasible, res.best_residual, res.parameters))
    interior = next(pr for pr in probes if pr.kind == "interior")
    tracemalloc.start()
    try:
        oracle_2x2(interior.a, interior.b, interior.z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    metrics = {"verify.oracle_2x2.%s_s" % kind: (spans.mean("verify.oracle_2x2." + kind), "s")
               for kind in ("interior", "near_bound", "infeasible")}
    metrics["verify.oracle_2x2.evaluations"] = (statistics.fmean(evaluations), "count")
    metrics["verify.oracle_2x2.peak_alloc_mb"] = (peak / 2 ** 20, "MB")
    return metrics, problems


def io_instances(insts):
    """Instances up to n = 200; without any, the smallest feasible and the
    smallest infeasible one."""
    small = [inst for inst in insts if inst.n <= 200]
    if small:
        return small
    by_size = sorted(insts, key=lambda inst: inst.n)
    return [next(i for i in by_size if i.feasible), next(i for i in by_size if not i.feasible)]


def trace_io(spans, insts):
    problems = []
    for inst in insts:
        doc = spans.time("io.matrix_to_document", matrix_to_document, inst.t, n=inst.n)
        text = spans.time("io.format_json", format_json, doc, n=inst.n)
        parsed = spans.time("io.parse_matrix_text", parse_matrix_text, text, n=inst.n)
        decoded = spans.time("io.document_to_matrix", document_to_matrix, json.loads(text), n=inst.n)
        for m in (parsed, decoded):
            if not np.array_equal(m, inst.t):
                problems.append("n=%d: matrix document does not round-trip" % inst.n)
    return {name + ".ms": (spans.mean(name, 1e3), "ms") for name in (
        "io.parse_matrix_text", "io.document_to_matrix", "io.matrix_to_document", "io.format_json")}, problems


IMPORT_PROBE = "import time; t = time.perf_counter(); import quadfactor.cli; print(time.perf_counter() - t)"


def trace_cli(spans, insts, root, workdir):
    """``quadfactor.cli.main`` in process on each document, plus the import
    time of a fresh interpreter."""
    imports = []
    for _ in range(3):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                             env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
                             stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        imports.append(float(out.stdout))
    problems = []

    def run(label, command, inst, argv):
        out = os.path.join(workdir, "trace-%s.out" % label)
        code = spans.time("cli.main." + label, qcli.main, [*argv, "--output", out], n=inst.n)
        with open(out, "r", encoding="utf-8") as handle:
            problems.extend("cli.main n=%d: %s" % (inst.n, p)
                            for p in checker.cli_problems(command, inst, code, handle.read()))

    for k, inst in enumerate(insts):
        doc = os.path.join(workdir, "trace-t%d.json" % k)
        with open(doc, "w", encoding="utf-8") as handle:
            handle.write(checker.document_text(inst.t))
        suffix = "" if inst.feasible else "_infeasible"
        run("check" + suffix, "check", inst, ["check", "--input", doc])
        run("factor" + suffix, "factor", inst, ["factor", "--input", doc])
        if inst.feasible:
            run("canonical", "canonical", inst, ["canonical", "--input", doc])
            run("verify", "verify", inst, ["verify", "--input", os.path.join(workdir, "trace-factor.out")])
    run("bound", "bound", insts[0], ["bound", repr(insts[0].a), repr(insts[0].b)])
    metrics = {"cli.import_ms": (1e3 * statistics.median(imports), "ms")}
    for label in ("check", "canonical", "factor", "verify", "bound", "check_infeasible", "factor_infeasible"):
        metrics["cli.main.%s_ms" % label] = (spans.mean("cli.main." + label, 1e3), "ms")
    return metrics, problems


def traced_run(insts, factor_check, root, workdir, trace_path):
    """All per-layer figures for one workload; returns (metrics, attempted,
    failed, problems)."""
    probes = instances.oracle_probes()
    spans = Spans()
    metrics, problems, failed = trace_pipeline(spans, insts, factor_check)
    seeded = [inst for inst in insts if not inst.near]
    metrics.update(trace_2x2(spans, seeded))
    more, found = trace_oracle(spans, probes)
    metrics.update(more)
    problems.extend(found)
    chosen = io_instances(seeded)
    more, found = trace_io(spans, chosen)
    metrics.update(more)
    problems.extend(found)
    more, found = trace_cli(spans, chosen, root, workdir)
    metrics.update(more)
    problems.extend(found)
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump({"metrics": {k: v for k, (v, _) in metrics.items()}, "spans": spans.records}, handle, indent=1)
    attempted = len(insts) + len(probes)
    return metrics, attempted, failed, problems

