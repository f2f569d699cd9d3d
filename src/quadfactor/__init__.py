"""Factor quadratic operators into products of two positive contractions.

A finite complex matrix T satisfying (T - aI)(T - bI) = 0 is unitarily
equivalent to a I (+) b I (+) [[a I, P], [0, b I]] with P positive
definite.  This package decides whether T equals A @ B for positive
semidefinite contractions A and B -- the exact criterion is a, b in
[0, 1] and norm(P) <= |sqrt(a) - sqrt(b)| * sqrt((1 - a) * (1 - b)) --
and, in the feasible case, builds the factors in closed form together
with a machine-checkable certificate.
"""

from .canonical import (
    CanonicalForm,
    QuadraticParams,
    assemble_from_canonical,
    canonical_matrix,
    canonicalize,
    detect_quadratic,
)
from .errors import (
    CertificateError,
    InfeasibleError,
    NoWitnessError,
    NotPsdError,
    NotQuadraticError,
    NotUpperTriangularError,
    QuadfactorError,
    RankAmbiguousError,
)
from .factorize import (
    Factor2x2,
    FeasibilityReport,
    assemble_full_factors,
    assess_feasibility,
    factor_2x2,
    factor_block,
    factor_quadratic,
    feasibility_bound,
)
from .io import (
    EXIT_CODES,
    RunReport,
    complex_pair,
    document_to_matrix,
    extract_matrix_document,
    format_json,
    matrix_to_document,
    parse_matrix_text,
)
from .linalg import (
    DEFAULT_TOL,
    as_matrix,
    block_positivity_witness,
    contraction_check,
    direct_sum,
    frobenius,
    operator_norm,
    pinv,
    psd_check,
    range_projection,
    sqrtm_psd,
)
from .verify import (
    Factorization,
    NecessaryConditions,
    OracleResult,
    VerificationReport,
    diagonal_block_factors,
    necessary_conditions,
    oracle_2x2,
    random_quadratic,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalForm",
    "CertificateError",
    "DEFAULT_TOL",
    "EXIT_CODES",
    "Factor2x2",
    "Factorization",
    "FeasibilityReport",
    "InfeasibleError",
    "NecessaryConditions",
    "NoWitnessError",
    "NotPsdError",
    "NotQuadraticError",
    "NotUpperTriangularError",
    "OracleResult",
    "QuadfactorError",
    "QuadraticParams",
    "RankAmbiguousError",
    "RunReport",
    "VerificationReport",
    "as_matrix",
    "assemble_from_canonical",
    "assemble_full_factors",
    "assess_feasibility",
    "block_positivity_witness",
    "canonical_matrix",
    "canonicalize",
    "complex_pair",
    "contraction_check",
    "detect_quadratic",
    "diagonal_block_factors",
    "direct_sum",
    "document_to_matrix",
    "extract_matrix_document",
    "factor_2x2",
    "factor_block",
    "factor_quadratic",
    "feasibility_bound",
    "format_json",
    "frobenius",
    "matrix_to_document",
    "necessary_conditions",
    "operator_norm",
    "oracle_2x2",
    "parse_matrix_text",
    "pinv",
    "psd_check",
    "random_quadratic",
    "range_projection",
    "sqrtm_psd",
    "verify_certificate",
]
