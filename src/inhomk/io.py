"""File formats: pattern CSV, covariate raster, curve and matrix CSV.

Patterns are plain CSV with an ``x,y[,...]`` header and one point per line;
the window travels in a JSON sidecar ``<file>.window.json`` (or is supplied
explicitly on read). Covariate rasters are a one-line JSON header followed by
CSV rows, one cell per line in row-major order. All numeric output uses 17
significant digits so round trips are exact and diffs meaningful.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .geometry import PointPattern, Window, check_integer
from .intensity import CovariateField
from .kstat import Curve

__all__ = [
    "write_pattern_csv",
    "read_pattern_csv",
    "write_covariate_field",
    "read_covariate_field",
    "write_curve_csv",
    "write_matrix_csv",
    "read_matrix_csv",
]

_AXIS_NAMES = ("x", "y", "z")


def _write_csv(path, rows, header: str = "") -> None:
    # One row per line, 17 significant digits, the header line (if any) first.
    # Through an open file: given a path ending in ".gz", savetxt would gzip.
    with open(path, "w") as fh:
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",", header=header, comments="")


def _parse_rows(lines, message: str) -> np.ndarray:
    """Comma-separated float rows as a 2-D array; ``ValueError(message)`` if malformed."""
    try:
        return np.array([[float(v) for v in line.split(",")] for line in lines], dtype=float)
    except ValueError as err:
        raise ValueError(message) from err


def _axis_header(dim: int) -> list[str]:
    if dim <= len(_AXIS_NAMES):
        return list(_AXIS_NAMES[:dim])
    return [f"x{k + 1}" for k in range(dim)]


def _sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".window.json")


def write_pattern_csv(path, pattern: PointPattern) -> None:
    path = Path(path)
    _write_csv(path, pattern.points, ",".join(_axis_header(pattern.window.dim)))
    _sidecar(path).write_text(
        json.dumps({"dim": pattern.window.dim, "side": pattern.window.side}) + "\n"
    )


def read_pattern_csv(path, side: float | None = None, dim: int | None = None) -> PointPattern:
    """Read a pattern CSV; window from explicit arguments or the JSON sidecar.

    An argument fills a key the sidecar lacks. A sidecar that is not a JSON object
    with the keys still needed, for a valid window, raises one ``ValueError`` naming it.
    """
    path = Path(path)
    if side is None or dim is None:
        sidecar = _sidecar(path)
        if not sidecar.exists():
            raise ValueError(
                f"window unknown: pass side/dim or provide {sidecar.name}"
            )
        try:
            meta = json.loads(sidecar.read_text())
            window = Window(meta["dim"] if dim is None else dim,
                            meta["side"] if side is None else side)
        except (ValueError, KeyError, TypeError, OverflowError) as err:
            raise ValueError(
                f"{sidecar}: malformed window sidecar, need a JSON object with side and dim"
            ) from err
    else:
        window = Window(dim, side)
    text = path.read_text().strip().splitlines()
    if not text:
        raise ValueError(f"{path}: empty pattern file")
    header = text[0].split(",")
    if len(header) != window.dim:
        raise ValueError(f"{path}: header has {len(header)} columns, expected {window.dim}")
    return PointPattern(window, _parse_rows(text[1:], f"{path}: malformed pattern CSV"))


def write_covariate_field(path, field: CovariateField) -> None:
    header = {
        "side": field.window.side,
        "dim": field.window.dim,
        "resolution": list(field.resolution),
        "p": field.p,
    }
    _write_csv(path, field.flat(), json.dumps(header))


def read_covariate_field(path) -> CovariateField:
    path = Path(path)
    text = path.read_text().strip().splitlines()
    try:
        header = json.loads(text[0])
        window = Window(header["dim"], header["side"])
        resolution, p = tuple(header["resolution"]), header["p"]
        for value in (*resolution, p):
            check_integer(value, "resolution and p")
    except (ValueError, KeyError, IndexError, TypeError, OverflowError) as err:
        raise ValueError(f"{path}: malformed covariate raster") from err
    body = _parse_rows(text[1:], f"{path}: malformed covariate raster")
    expected = int(np.prod(resolution))
    if body.shape != (expected, p):
        raise ValueError(
            f"{path}: raster body is {body.shape}, expected ({expected}, {p})"
        )
    return CovariateField(window, body.reshape(resolution + (p,)))


def write_curve_csv(path, curve: Curve, value_names=("khat",)) -> None:
    vals = curve.values if curve.values.ndim > 1 else curve.values[:, None]
    if len(value_names) != vals.shape[1]:
        raise ValueError("one name per value column required")
    header = ",".join(("r",) + tuple(value_names))
    _write_csv(path, np.column_stack([curve.grid.values, vals]), header)


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    _write_csv(path, np.atleast_2d(matrix))


def read_matrix_csv(path) -> np.ndarray:
    path = Path(path)
    return _parse_rows(path.read_text().strip().splitlines(), f"{path}: malformed matrix CSV")
