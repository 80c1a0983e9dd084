"""Matrix file formats and deterministic report serialization.

Two matrix formats are supported: plain CSV (n rows of n comma-separated
reals, '#' lines ignored) and JSON ({"n": ..., "d": [[...]]}, extra keys
tolerated).  Floats are emitted with 17 significant digits, which
round-trips IEEE doubles exactly; reports are key-sorted JSON so that
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import enum
import json
from pathlib import Path

import numpy as np

from .errors import ParseError
from .model import DistanceMatrix

__all__ = [
    "load_matrix",
    "parse_matrix_text",
    "matrix_to_csv",
    "matrix_to_json",
    "fmt_float",
    "report_json",
]


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def parse_matrix_text(text: str) -> DistanceMatrix:
    """Parse CSV or JSON matrix content (format sniffed from the first byte)."""
    stripped = text.lstrip()
    if not stripped:
        raise ParseError("empty matrix file")
    try:
        if stripped[0] == "{":
            return _parse_json(stripped)
        return _parse_csv(text)
    except ParseError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise ParseError(f"invalid matrix content: {exc}") from exc


def _parse_csv(text: str) -> DistanceMatrix:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([float(cell) for cell in line.split(",")])
    if not rows:
        raise ParseError("no data rows in CSV matrix")
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ParseError("CSV matrix is not square")
    return DistanceMatrix(np.array(rows, dtype=float))


def _parse_json(text: str) -> DistanceMatrix:
    doc = json.loads(text)
    if not isinstance(doc, dict) or "n" not in doc or "d" not in doc:
        raise ParseError('JSON matrix needs keys "n" and "d"')
    n = int(doc["n"])
    d = np.array(doc["d"], dtype=float)
    if d.shape != (n, n):
        raise ParseError(f'"d" has shape {d.shape}, expected ({n}, {n})')
    return DistanceMatrix(d)


def load_matrix(path: str | Path) -> DistanceMatrix:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_matrix_text(text)


def matrix_to_csv(d: DistanceMatrix, comments: tuple[str, ...] = ()) -> str:
    lines = [f"# {comment}" for comment in comments]
    lines.extend(",".join(fmt_float(x) for x in row) for row in d.d)
    return "\n".join(lines) + "\n"


def matrix_to_json(d: DistanceMatrix, meta: dict | None = None) -> str:
    doc: dict = {"n": d.n, "d": [[float(x) for x in row] for row in d.d]}
    if meta:
        doc["meta"] = meta
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def report_json(doc: dict) -> str:
    """Deterministic key-sorted JSON rendering of a report document."""
    return json.dumps(_jsonable(doc), sort_keys=True, indent=2) + "\n"
