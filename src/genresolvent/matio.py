"""JSON matrix files and report serialization.

Matrix files carry {"rows", "cols", "re", "im"} with "im" optional (absent
means a real matrix). Values are plain JSON numbers, which round-trip
exactly for anything representable in binary64. Reports are emitted as
sorted-key JSON so identical inputs produce byte-identical output; spectrum
scans are emitted as CSV.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import MatrixFileError
from .linalg import as_matrix


def _float_grid(name: str, grid, rows: int, cols: int, path) -> np.ndarray:
    """The rows x cols array of field name's JSON numbers, as float64."""
    if not isinstance(grid, list) or len(grid) != rows:
        raise MatrixFileError(f"{path}: field '{name}' must be a list of {rows} rows")
    for i, row in enumerate(grid):
        if not isinstance(row, list) or len(row) != cols:
            raise MatrixFileError(
                f"{path}: field '{name}' row {i} must be a list of {cols} numbers"
            )
        for j, value in enumerate(row):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise MatrixFileError(
                    f"{path}: field '{name}' row {i} column {j} is not a number"
                )
    try:
        return np.array(grid, dtype=np.float64)
    except OverflowError as exc:
        raise MatrixFileError(
            f"{path}: field '{name}' holds an integer too large for a float"
        ) from exc


def load_matrix(path) -> np.ndarray:
    """Read a complex matrix from a JSON matrix file."""
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise MatrixFileError(f"{path}: cannot read: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MatrixFileError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        payload = json.loads(raw)
    # ValueError: a JSONDecodeError, or an integer past Python's digit limit
    except ValueError as exc:
        raise MatrixFileError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MatrixFileError(f"{path}: invalid JSON: nested too deeply") from exc
    if not isinstance(payload, dict):
        raise MatrixFileError(f"{path}: top-level value must be an object")
    for field in ("rows", "cols", "re"):
        if field not in payload:
            raise MatrixFileError(f"{path}: missing required field '{field}'")
    rows, cols = payload["rows"], payload["cols"]
    if any(isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in (rows, cols)):
        raise MatrixFileError(f"{path}: 'rows' and 'cols' must be positive integers")
    re = _float_grid("re", payload["re"], rows, cols, path)
    if "im" in payload and payload["im"] is not None:
        im = _float_grid("im", payload["im"], rows, cols, path)
    else:
        im = np.zeros((rows, cols), dtype=np.float64)
    values = re + 1j * im
    if not np.all(np.isfinite(values)):
        raise MatrixFileError(f"{path}: matrix contains non-finite entries")
    return as_matrix(values)


def matrix_payload(a) -> dict:
    """JSON-ready dict for a matrix; 'im' is omitted when the matrix is real."""
    a = as_matrix(a)
    payload = {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "re": [[float(v.real) for v in row] for row in a],
    }
    if np.any(a.imag):
        payload["im"] = [[float(v.imag) for v in row] for row in a]
    return payload


def save_matrix(a, path) -> None:
    """Write a matrix to a JSON matrix file."""
    Path(path).write_text(
        json.dumps(matrix_payload(a), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def file_digest(path) -> str:
    """sha256 hex digest of a file's bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _json_default(obj):
    """JSON value of what the encoder does not know: numpy arrays and scalars
    become Python lists and numbers, complex numbers {"re", "im"} objects."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def report_text(report: dict) -> str:
    """Deterministic JSON rendering of a report."""
    return json.dumps(report, default=_json_default, indent=2, sort_keys=True,
                      ensure_ascii=False) + "\n"


def scan_csv(scan) -> str:
    """CSV text of a spectrum scan: the header re,im,rank,is_drop, then one row
    per point, coordinates as repr of the float (exact round trip)."""
    rows = ["re,im,rank,is_drop"]
    rows += [f"{p.lam.real!r},{p.lam.imag!r},{p.rank},{int(p.is_drop)}" for p in scan]
    return "\n".join(rows) + "\n"
