"""Command-line front end.

Subcommands wire the library pipeline to structured-text reports:

    check      decide whether a quadratic matrix factors, no factors built
    factor     build the two positive-contraction factors with certificate
    canonical  report the unitary canonical form (a, b, d1, d2, r, p, W)
    bound      evaluate the feasibility bound, or sweep a grid to CSV
    oracle     brute-force 2x2 search, independent of the closed forms
    verify     re-check a serialized factorization certificate
    gen        generate a random quadratic test matrix from its invariants

Every invocation emits one report and exits 0 (ok), 2 (infeasible),
3 (not quadratic) or 1 (any other failure); malformed input never crashes
without a verdict.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .canonical import CanonicalForm, QuadraticParams
from .errors import InfeasibleError, NotQuadraticError
from .factorize import FeasibilityReport, _analyze, _construct, feasibility_bound
from .io import (
    EXIT_CODES,
    RunReport,
    document_to_matrix,
    extract_matrix_document,
    format_json,
    complex_pair,
    matrix_to_document,
    parse_matrix_text,
)
from .linalg import DEFAULT_TOL, _check_tol
from .verify import VerificationReport, oracle_2x2, random_quadratic, verify_certificate

__all__ = ["build_parser", "main"]

#: Largest ``oracle --budget``: the grid scan holds about 41 bytes per
#: evaluation (tracemalloc peak 81 MB at 2 * 10^6).
ORACLE_BUDGET_LIMIT = 2_000_000
#: Largest ``bound --grid``: N^2 CSV lines are built in memory.
GRID_LIMIT = 500
#: Largest matrix dimension: the rows and cols of an input matrix, and
#: ``gen``'s n = d1 + d2 + 2r.  Factoring at n = 2000 takes about 17 s and
#: 0.6-0.8 GB with one BLAS thread (scaled from n = 750).
SIZE_LIMIT = 2000
_SIZE_COST = "about 17 s and 0.6-0.8 GB to factor at n = %d" % SIZE_LIMIT


def _add_tol(parser) -> None:
    parser.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_TOL,
        help="numerical tolerance in (0, 1) (default %g)" % DEFAULT_TOL,
    )


def _add_input(parser) -> None:
    parser.add_argument(
        "--input",
        help="read from this path instead of stdin; a matrix may have at most "
        "%d rows and cols (%s)" % (SIZE_LIMIT, _SIZE_COST),
    )


def _add_output(parser) -> None:
    parser.add_argument("--output", help="write to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadfactor",
        description=(
            "Decide whether a matrix satisfying a quadratic relation is a "
            "product of two positive contractions, and construct the factors."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide feasibility without building factors")
    _add_tol(p), _add_input(p), _add_output(p)

    p = sub.add_parser("factor", help="construct and certify the two factors")
    _add_tol(p), _add_input(p), _add_output(p)

    p = sub.add_parser("canonical", help="report the unitary canonical form")
    _add_tol(p), _add_input(p), _add_output(p)

    p = sub.add_parser("bound", help="evaluate the feasibility bound for (a, b)")
    p.add_argument("a", type=float, nargs="?", help="first spectral parameter in [0, 1]")
    p.add_argument("b", type=float, nargs="?", help="second spectral parameter in [0, 1]")
    p.add_argument(
        "--grid", type=int, metavar="N",
        help="emit an N x N CSV sweep instead (2 <= N <= %d)" % GRID_LIMIT,
    )
    p.add_argument(
        "--a-range", type=float, nargs=2, metavar=("LO", "HI"), default=(0.0, 1.0),
        help="sweep range for a (default 0 1)",
    )
    p.add_argument(
        "--b-range", type=float, nargs=2, metavar=("LO", "HI"), default=(0.0, 1.0),
        help="sweep range for b (default 0 1)",
    )
    _add_tol(p), _add_output(p)

    p = sub.add_parser("oracle", help="brute-force search over 2x2 factor pairs")
    p.add_argument("a", type=float, help="upper-left entry of the target")
    p.add_argument("b", type=float, help="lower-right entry of the target")
    p.add_argument("z", type=float, help="upper-right entry of the target")
    p.add_argument(
        "--budget", type=int, default=1_000_000,
        help="evaluation budget of the grid scan, at most %d (default 1000000); "
        "the refinement adds at most 32 x 3000 evaluations" % ORACLE_BUDGET_LIMIT,
    )
    p.add_argument("--seed", type=int, default=0, help="echoed into the report")
    _add_tol(p), _add_output(p)

    p = sub.add_parser("verify", help="re-check a factorization certificate")
    _add_tol(p), _add_input(p), _add_output(p)

    p = sub.add_parser(
        "gen",
        help="generate a random quadratic matrix",
        description="Generate a random quadratic matrix of size n = d1 + d2 + 2r "
        "<= %d (%s)." % (SIZE_LIMIT, _SIZE_COST),
    )
    p.add_argument("d1", type=int, help="multiplicity of the pure a-eigenspace")
    p.add_argument("d2", type=int, help="multiplicity of the pure b-eigenspace")
    p.add_argument("r", type=int, help="number of coupled 2x2 blocks")
    p.add_argument("a", type=float, help="first eigenvalue")
    p.add_argument("b", type=float, help="second eigenvalue")
    p.add_argument("p", type=float, nargs="*", help="r strictly positive couplings")
    p.add_argument("--seed", type=int, default=0, help="random generator seed")
    _add_tol(p), _add_output(p)

    return parser


def _read_text(args) -> str:
    if getattr(args, "input", None):
        with open(args.input, "r", encoding="utf-8") as handle:
            return handle.read()
    return sys.stdin.read()


def _check_size(name: str, value) -> None:
    """Refuse a declared matrix dimension above SIZE_LIMIT before anything
    is built; a value that is not an integer is left to the parser."""
    try:
        size = int(value)
    except (TypeError, ValueError, OverflowError):
        return
    if size > SIZE_LIMIT:
        raise ValueError("%s = %d exceeds the limit of %d" % (name, size, SIZE_LIMIT))


def _document_matrix(doc) -> np.ndarray:
    """The matrix of a matrix document found in ``doc``, size checked."""
    doc = extract_matrix_document(doc)
    _check_size("matrix rows", doc["rows"])
    _check_size("matrix cols", doc["cols"])
    return document_to_matrix(doc)


def _read_matrix(args) -> np.ndarray:
    """The input matrix, a JSON document or plain text (see
    ``parse_matrix_text``), size checked."""
    text = _read_text(args)
    stripped = text.strip()
    if stripped[:1] in ("{", "["):
        return _document_matrix(json.loads(stripped))
    if stripped:
        _check_size("matrix dimension n", stripped.split(None, 1)[0])
    return parse_matrix_text(text)


def _write(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _params_payload(params: QuadraticParams) -> dict:
    return {
        "a": complex_pair(params.a),
        "b": complex_pair(params.b),
        "residual": float(params.residual),
    }


def _canonical_payload(form: CanonicalForm) -> dict:
    return {
        "d1": int(form.d1),
        "d2": int(form.d2),
        "r": int(form.r),
        "p_values": [float(v) for v in form.p_values],
    }


def _feasibility_payload(report: FeasibilityReport) -> dict:
    return {
        "a": report.a,
        "b": report.b,
        "p_norm": report.p_norm,
        "bound": report.bound,
        "feasible": report.feasible,
        "margin": report.margin,
        "spectrum_real": report.spectrum_real,
        "spectrum_in_range": report.spectrum_in_range,
    }


def _verification_payload(report: VerificationReport) -> dict:
    return {
        "a_psd": report.a_psd,
        "a_contraction": report.a_contraction,
        "b_psd": report.b_psd,
        "b_contraction": report.b_contraction,
        "product_residual": report.product_residual,
        "tolerance": report.tolerance,
        "passed": report.passed,
    }


def _analysis_payload(analysis, feasibility: FeasibilityReport) -> dict:
    return {
        "params": _params_payload(analysis.params),
        "canonical": _canonical_payload(analysis.form),
        "feasibility": _feasibility_payload(feasibility),
    }


def _cmd_check(args) -> RunReport:
    analysis = _analyze(_read_matrix(args), args.tol)
    verdict = "ok" if analysis.feasibility.feasible else "infeasible"
    return RunReport("check", verdict, _analysis_payload(analysis, analysis.feasibility))


def _cmd_factor(args) -> RunReport:
    t = _read_matrix(args)
    analysis = _analyze(t, args.tol)
    try:
        result = _construct(analysis, args.tol)
    except InfeasibleError as exc:
        payload = {"message": str(exc), **_analysis_payload(analysis, exc.report)}
        return RunReport("factor", "infeasible", payload)
    payload = {
        "t": matrix_to_document(t),
        "a": matrix_to_document(result.A),
        "b": matrix_to_document(result.B),
        "report": _verification_payload(result.report),
    }
    return RunReport("factor", "ok", payload)


def _cmd_canonical(args) -> RunReport:
    analysis = _analyze(_read_matrix(args), args.tol)
    payload = {
        "params": _params_payload(analysis.params),
        "canonical": _canonical_payload(analysis.form),
        "unitary": matrix_to_document(analysis.form.unitary),
    }
    return RunReport("canonical", "ok", payload)


def _cmd_bound(args):
    if args.grid is not None:
        if args.grid < 2:
            raise ValueError("--grid needs at least 2 points per axis")
        if args.grid > GRID_LIMIT:
            raise ValueError(
                "--grid %d exceeds the limit of %d points per axis" % (args.grid, GRID_LIMIT)
            )
        lines = ["a,b,bound"]
        for av in np.linspace(args.a_range[0], args.a_range[1], args.grid):
            for bv in np.linspace(args.b_range[0], args.b_range[1], args.grid):
                lines.append(
                    "%s,%s,%s"
                    % (
                        format(float(av), ".17g"),
                        format(float(bv), ".17g"),
                        format(feasibility_bound(float(av), float(bv)), ".17g"),
                    )
                )
        return "\n".join(lines) + "\n", EXIT_CODES["ok"]
    if args.a is None or args.b is None:
        raise ValueError("bound needs a and b, or --grid for a CSV sweep")
    value = feasibility_bound(args.a, args.b)
    payload = {"a": args.a, "b": args.b, "bound": value}
    return RunReport("bound", "ok", payload)


def _cmd_oracle(args) -> RunReport:
    if args.budget > ORACLE_BUDGET_LIMIT:
        raise ValueError(
            "--budget %d exceeds the limit of %d evaluations"
            % (args.budget, ORACLE_BUDGET_LIMIT)
        )
    result = oracle_2x2(args.a, args.b, args.z, budget=args.budget, seed=args.seed)
    payload = {
        "a": args.a,
        "b": args.b,
        "z": args.z,
        "budget": args.budget,
        "seed": args.seed,
        "best_residual": result.best_residual,
        "parameters": [float(v) for v in result.parameters],
        "evaluations": result.evaluations,
    }
    return RunReport("oracle", "ok", payload)


def _cmd_verify(args) -> RunReport:
    doc = json.loads(_read_text(args))
    if isinstance(doc, dict) and isinstance(doc.get("payload"), dict):
        doc = doc["payload"]
    if not isinstance(doc, dict):
        raise ValueError("verify input must be an object with t, a, b matrices")
    missing = [key for key in ("t", "a", "b") if key not in doc]
    if missing:
        raise ValueError("verify input lacks keys: %s" % ", ".join(missing))
    t = _document_matrix(doc["t"])
    factor_a = _document_matrix(doc["a"])
    factor_b = _document_matrix(doc["b"])
    report = verify_certificate(t, factor_a, factor_b, args.tol)
    verdict = "ok" if report.passed else "error"
    return RunReport("verify", verdict, {"report": _verification_payload(report)})


def _cmd_gen(args) -> RunReport:
    _check_size("gen dimension n = d1 + d2 + 2r", args.d1 + args.d2 + 2 * args.r)
    t = random_quadratic(args.d1, args.d2, args.r, args.a, args.b, args.p, args.seed)
    payload = {
        "d1": args.d1,
        "d2": args.d2,
        "r": args.r,
        "a": args.a,
        "b": args.b,
        "p_values": [float(v) for v in args.p],
        "seed": args.seed,
        "t": matrix_to_document(t),
    }
    return RunReport("gen", "ok", payload)


_HANDLERS = {
    "check": _cmd_check,
    "factor": _cmd_factor,
    "canonical": _cmd_canonical,
    "bound": _cmd_bound,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "gen": _cmd_gen,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else EXIT_CODES["error"]
    try:
        _check_tol(args.tol)
        result = _HANDLERS[args.command](args)
    except NotQuadraticError as exc:
        payload = {"message": str(exc)}
        if exc.residual is not None:
            payload["residual"] = float(exc.residual)
        result = RunReport(args.command, "not_quadratic", payload)
    except InfeasibleError as exc:
        result = RunReport(
            args.command,
            "infeasible",
            {"message": str(exc), "feasibility": _feasibility_payload(exc.report)},
        )
    except Exception as exc:  # exit-code contract: report, never crash
        result = RunReport(
            args.command, "error", {"message": "%s: %s" % (type(exc).__name__, exc)}
        )
    if isinstance(result, RunReport):
        text = format_json(result.to_dict()) + "\n"
        code = result.exit_code
    else:
        text, code = result
    try:
        _write(args, text)
    except OSError as exc:
        sys.stderr.write("cannot write output: %s\n" % exc)
        return EXIT_CODES["error"]
    return code


if __name__ == "__main__":
    sys.exit(main())
