"""Matrix documents and deterministic report serialization.

Matrices travel as ``{"rows": n, "cols": m, "data": [[re, im], ...]}``
(row-major).  Reports are rendered to JSON with keys in insertion order and
every float printed with 17 significant digits, so a parse-and-reserialize
round trip is bit exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict

import numpy as np

from .linalg import as_matrix

__all__ = [
    "EXIT_CODES",
    "RunReport",
    "matrix_to_document",
    "document_to_matrix",
    "extract_matrix_document",
    "parse_matrix_text",
    "format_json",
    "complex_pair",
]

#: Process exit codes keyed by report verdict.
EXIT_CODES = {"ok": 0, "error": 1, "infeasible": 2, "not_quadratic": 3}


@dataclass(frozen=True)
class RunReport:
    """Envelope for one command invocation: command, verdict, payload."""

    command: str
    verdict: str
    payload: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "command": self.command,
            "verdict": self.verdict,
            "payload": self.payload,
        }

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.verdict]


def complex_pair(value) -> list:
    """Serialize a complex number as [real, imag]."""
    c = complex(value)
    return [float(c.real), float(c.imag)]


def matrix_to_document(m) -> Dict[str, Any]:
    """Encode a matrix as a row-major document of [re, im] pairs."""
    mat = as_matrix(m)
    rows, cols = mat.shape
    data = [complex_pair(v) for v in mat.ravel(order="C")]
    return {"rows": int(rows), "cols": int(cols), "data": data}


def document_to_matrix(doc) -> np.ndarray:
    """Decode a matrix document; raises ValueError on any malformation."""
    if not isinstance(doc, dict):
        raise ValueError("matrix document must be an object, got %s" % type(doc).__name__)
    try:
        rows, cols = int(doc["rows"]), int(doc["cols"])
        data = doc["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("matrix document needs integer rows/cols and data") from exc
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ValueError(
            "matrix document data must list rows*cols = %d entries" % (rows * cols)
        )
    flat = np.empty(rows * cols, dtype=complex)
    for k, entry in enumerate(data):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValueError("entry %d is not an [re, im] pair" % k)
        re, im = entry
        if isinstance(re, bool) or isinstance(im, bool):
            raise ValueError("entry %d is not numeric" % k)
        if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
            raise ValueError("entry %d is not numeric" % k)
        flat[k] = complex(float(re), float(im))
    return as_matrix(flat.reshape(rows, cols))


def extract_matrix_document(doc):
    """Find a matrix document inside ``doc``.

    Accepts a bare matrix document, a report envelope (descends into
    ``payload``), or a payload carrying the matrix under key ``t``.
    """
    if isinstance(doc, dict):
        if "rows" in doc and "cols" in doc and "data" in doc:
            return doc
        if "payload" in doc and isinstance(doc["payload"], dict):
            return extract_matrix_document(doc["payload"])
        if "t" in doc:
            return extract_matrix_document(doc["t"])
    raise ValueError("no matrix document found in input")


def parse_matrix_text(text: str) -> np.ndarray:
    """Parse matrix input: a JSON document, or the plain-text convenience
    form for real square matrices (n followed by n rows of n reals)."""
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty matrix input")
    if stripped[0] in "{[":
        doc = json.loads(stripped)
        return document_to_matrix(extract_matrix_document(doc))
    tokens = stripped.split()
    try:
        n = int(tokens[0])
    except ValueError as exc:
        raise ValueError("plain-text input must start with the dimension") from exc
    if n < 1:
        raise ValueError("matrix dimension must be positive")
    if len(tokens) != 1 + n * n:
        raise ValueError(
            "expected %d numbers after the dimension, got %d" % (n * n, len(tokens) - 1)
        )
    try:
        values = [float(tok) for tok in tokens[1:]]
    except ValueError as exc:
        raise ValueError("plain-text input contains a non-numeric token") from exc
    return as_matrix(np.array(values, dtype=float).reshape(n, n))


def _is_float_pairs(items) -> bool:
    """True when every item is a two-element list of Python floats (not
    numpy scalars or bools), as ``complex_pair`` makes."""
    return all(
        type(pair) is list and len(pair) == 2
        and type(pair[0]) is float and type(pair[1]) is float
        for pair in items
    )


def _render(obj, out) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format(float(obj), ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _render(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        if _is_float_pairs(obj):
            # a matrix document's data: one join instead of a call per float
            out.append("[" + ", ".join(["[%.17g, %.17g]" % (re, im) for re, im in obj]) + "]")
            return
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(", ")
            _render(value, out)
        out.append("]")
    else:
        raise TypeError("cannot serialize %s" % type(obj).__name__)


def format_json(obj) -> str:
    """Serialize to JSON with fixed key order and 17-significant-digit
    floats (round-trip safe for IEEE doubles).

    A list of ``[re, im]`` pairs of Python floats, such as a matrix
    document's ``data``, is rendered in one join; the text is the same as
    element by element."""
    out: list = []
    _render(obj, out)
    return "".join(out)
