"""Run one benchmark workload of quadfactor and print its figures.

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 bench/run.py --workload pipeline-large --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` there, never from an installed copy.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; with ``--trace 0`` the metrics are the end-to-end figures,
with ``--trace 1`` the per-layer ones (see README.md).  Diagnostics go to
standard error; the spans of a traced run go to a JSON file in
``bench/out/``.
"""

import argparse
import json
import os
import shutil
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
#: Cold set-ups per run, spread evenly over it; ``setup_s`` is the fastest.
SETUP_PROBES = 6


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pipeline-large", "pipeline-small"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import quadfactor from ROOT/src; exit 2 when the checkout has none."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "quadfactor", "__init__.py")):
        sys.stderr.write("bench: no src/quadfactor under %s; run from a source checkout\n" % ROOT)
        sys.exit(2)
    sys.path[:0] = [HERE, src]
    import quadfactor

    if not os.path.abspath(quadfactor.__file__).startswith(src + os.sep):
        sys.stderr.write("bench: quadfactor came from %s, not %s\n" % (quadfactor.__file__, src))
        sys.exit(2)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    slots, insts = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        import layers

        outdir = os.path.join(HERE, "out")
        workdir = os.path.join(outdir, "work-%d" % os.getpid())
        os.makedirs(workdir, exist_ok=True)
        try:
            metrics, attempted, failed, problems = layers.traced_run(
                insts, workloads.factor_check, ROOT, workdir,
                os.path.join(outdir, "trace-%s-seed%d.json" % (args.workload, args.seed)))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    else:
        # The speed of the reference machine swings by up to 2x for seconds
        # at a time, and a single set-up catches whichever phase it falls
        # in; the fastest of several spread over the run does not.
        setups = []

        def between(elapsed):
            if len(setups) <= elapsed * SETUP_PROBES / args.seconds:
                setups.append(workloads.cold_setup_s(ROOT))

        result = workloads.run_rounds(slots, args.seconds, between)
        attempted, failed, problems = result.attempted, result.failed, result.problems
        metrics = workloads.end_to_end(slots, min(setups), workloads.peak_rss_mb())
        sys.stderr.write("bench: %s seed %d: %d rounds in %.1f s\n"
                         % (args.workload, args.seed, result.rounds, result.wall_s))
    for problem in problems[:20]:
        sys.stderr.write("bench: INCORRECT: %s\n" % problem)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
