"""The timed workloads and the statistics they report.

A workload is a fixed list of slots, one operation each.  A run repeats
whole rounds of all slots, so every run attempts the same operations in
the same proportions.  Each operation is timed on its own; its output is
checked by ``checker`` outside the timed region, fully on the first round
and again on any later round whose output differs from the first.  A
refusal by the program is a failed operation only where the workload
expects one (the near-coincident set); anywhere else it is a wrong answer.

The figures are per-slot minima over the rounds.  On the 2-vCPU virtual
machine the reference figures come from, the speed of the CPU swings by up
to 2x for seconds to minutes at a time (contention from other tenants, not
steal time: thread CPU time swings with wall time).  A mean over a run of
tens of seconds still moves with the share of slow seconds it caught; the
fastest of many rounds does not.
"""

from __future__ import annotations

import operator
import os
import resource
import statistics
import subprocess
import sys
from array import array
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Optional

import numpy as np

import checker
import instances
from quadfactor import (
    InfeasibleError,
    QuadfactorError,
    assess_feasibility,
    factor_2x2,
    factor_quadratic,
)


@dataclass(frozen=True)
class Outcome:
    """What one operation returned: ``verdict`` is "ok", "infeasible" or
    "refused" (any other error of the program: a failed operation)."""

    verdict: str
    value: object = None

    @property
    def failed(self) -> bool:
        return self.verdict == "refused"


@dataclass
class Slot:
    """One operation of a round.

    ``group`` names the figure the slot's time feeds: "light" or "heavy"
    (the workload's cheapest and dearest kind), "timed" for the other timed
    slots, or None for operations that are run and checked but not timed
    into the figures.  ``may_fail`` marks an operation whose refusal is a
    failed operation rather than a wrong answer.  Times are kept as a flat
    array of doubles, so the benchmark's own memory stays nearly flat over
    thousands of rounds and does not drift into ``peak_rss_mb``.
    """

    name: str
    call: Callable[[], Outcome]
    check: Callable[[Outcome], List[str]]
    same: Callable[[Outcome, Outcome], bool] = operator.eq
    group: Optional[str] = "timed"
    may_fail: bool = False
    times: array = field(default_factory=lambda: array("d"))

    def problems(self, out: Outcome) -> List[str]:
        if out.failed:
            return ["%s: refused: %s" % (self.name, out.value)]
        return self.check(out)


def guarded(fn) -> Outcome:
    try:
        return Outcome("ok", fn())
    except InfeasibleError as exc:
        return Outcome("infeasible", exc.report)
    except QuadfactorError as exc:
        return Outcome("refused", "%s: %s" % (type(exc).__name__, exc))


# ---------------------------------------------------------------- pipelines


def factor_check(inst):
    def check(out: Outcome):
        if out.verdict == "ok":
            if not inst.feasible:
                return ["n=%d: factored, but the bound says infeasible" % inst.n]
            return ["n=%d: %s" % (inst.n, p) for p in checker.factor_problems(inst.t, out.value.A, out.value.B)]
        rep = out.value
        return ["n=%d: %s" % (inst.n, p) for p in checker.feasibility_problems(
            inst.a, inst.b, inst.p_norm, rep.bound, rep.p_norm, rep.feasible)]
    return check


def _same_factor(x: Outcome, y: Outcome) -> bool:
    if x.verdict != y.verdict:
        return False
    if x.verdict == "ok":
        return np.array_equal(x.value.A, y.value.A) and np.array_equal(x.value.B, y.value.B)
    return x.value == y.value


def factor_slot(inst, group) -> Slot:
    t = inst.t
    return Slot("factor_quadratic n=%d %s" % (inst.n, inst.kind),
                lambda: guarded(lambda: factor_quadratic(t)),
                factor_check(inst), _same_factor, group, may_fail=inst.near)


def two_by_two_slots(inst) -> List[Slot]:
    a, b, z = inst.a, inst.b, inst.z
    feasible = z <= inst.bound

    def check_2x2(out: Outcome):
        if out.verdict == "infeasible":
            rep = out.value
            return checker.feasibility_problems(a, b, z, rep.bound, rep.p_norm, rep.feasible)
        if not feasible:
            return ["factor_2x2 factored (%g, %g, %g) above the bound" % (a, b, z)]
        target = np.array([[a, z], [0.0, b]])
        return checker.factor_problems(target, out.value.matrix_a, out.value.matrix_b, 10 * checker.TOL)

    def check_assess(out: Outcome):
        rep = out.value
        return checker.feasibility_problems(a, b, z, rep.bound, rep.p_norm, rep.feasible)

    return [
        Slot("factor_2x2", lambda: guarded(lambda: factor_2x2(a, b, z)), check_2x2, group=None),
        Slot("assess_feasibility", lambda: guarded(lambda: assess_feasibility(a, b, z)), check_assess, group=None),
    ]


def pipeline_large(seed: int):
    insts = instances.make_set(instances.LARGE_SHAPES, seed, 1)
    slots = []
    for inst in insts:
        group = "heavy" if inst.n == 750 else "light" if inst.n == 300 else "timed"
        slots.append(factor_slot(inst, group))
    return slots, insts


def pipeline_small(seed: int):
    insts = instances.make_set(instances.SMALL_SHAPES, seed, 2)
    sizes = [inst.n for inst in insts]
    slots = []
    for inst in insts:
        group = "light" if inst.n == min(sizes) else "heavy" if inst.n == max(sizes) else "timed"
        slots.append(factor_slot(inst, group))
        slots.extend(two_by_two_slots(inst))
    near = instances.near_coincident_set()
    slots.extend(factor_slot(inst, None) for inst in near)
    return slots, insts + near


#: The workloads by name; each builds (slots, instances) from the seed, and
#: the instances feed the traced run.
WORKLOADS = {"pipeline-large": pipeline_large, "pipeline-small": pipeline_small}


# ------------------------------------------------------------------ running


@dataclass
class RunResult:
    rounds: int
    attempted: int
    failed: int
    problems: List[str]
    wall_s: float


def run_rounds(slots: List[Slot], seconds: float,
               between: Callable[[float], None] = lambda elapsed: None) -> RunResult:
    """Repeat whole rounds until the next one would end past ``seconds``;
    ``between`` gets the seconds elapsed before each round."""
    first: List[Optional[Outcome]] = [None] * len(slots)
    problems: List[str] = []
    attempted = failed = rounds = 0
    start = perf_counter()
    while True:
        between(perf_counter() - start)
        for i, slot in enumerate(slots):
            t0 = perf_counter()
            out = slot.call()
            slot.times.append(perf_counter() - t0)
            attempted += 1
            if out.failed and slot.may_fail:
                failed += 1
                continue
            if first[i] is None:
                first[i] = out
                problems.extend(slot.problems(out))
            elif not slot.same(out, first[i]):
                problems.extend(slot.problems(out))
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return RunResult(rounds, attempted, failed, problems, elapsed)


#: A fresh interpreter imports the program, makes one small call (so that
#: work done on first use counts too) and prints the seconds since its
#: process started, from the kernel's start time.
SETUP_PROBE = """
import os, time
import numpy, quadfactor
quadfactor.factor_quadratic(numpy.diag([0.2, 0.7]).astype(complex))
with open("/proc/self/stat", "r", encoding="ascii") as handle:
    started = int(handle.read().rsplit(")", 1)[1].split()[19]) / os.sysconf("SC_CLK_TCK")
print(time.clock_gettime(time.CLOCK_BOOTTIME) - started)
"""


def cold_setup_s(root: str) -> float:
    """One cold set-up of the program in a process of its own."""
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE], check=True,
                         env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
                         stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    return float(out.stdout)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(slots: List[Slot], setup_s: float, rss_mb: float) -> dict:
    """The end-to-end figures from each timed slot's fastest round."""
    best = {g: [min(s.times) for s in slots if s.group == g] for g in ("light", "heavy", "timed")}
    timed = best["light"] + best["heavy"] + best["timed"]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(timed) / sum(timed), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(timed), "ms"),
        "light_p50_ms": (1e3 * statistics.median(best["light"]), "ms"),
        "heavy_p50_ms": (1e3 * statistics.median(best["heavy"]), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
