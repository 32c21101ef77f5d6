"""Small textual/binary file formats: PGM/PPM dumps, weight matrices and
JSON field checks."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .grounding import DimMismatch, NonFinite, ProjectionWeights


def write_pgm(path, values: np.ndarray) -> None:
    """8-bit binary PGM; values in [0, 1] are scaled by 255 and rounded."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("PGM needs a 2-d grid")
    data = np.rint(np.clip(arr, 0.0, 1.0) * 255).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def write_ppm(path, rgb: np.ndarray) -> None:
    """8-bit binary PPM from an (H, W, 3) float array in [0, 1]."""
    arr = np.asarray(rgb, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError("PPM needs an (H, W, 3) grid")
    data = np.rint(np.clip(arr, 0.0, 1.0) * 255).astype(np.uint8)
    h, w, _ = data.shape
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def json_number(name: str, value, integer: bool = False, least=None, most=None):
    """value if it is a JSON integer (or, unless integer, a JSON float) not
    below least nor above most; a bool, a string or, for an integer, a float
    is not coerced."""
    if type(value) not in ((int,) if integer else (int, float)):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, not {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be <= {most}")
    return value


def known_keys(data: dict, keys, what: str) -> None:
    """ValueError naming a key of the JSON object data that is not in keys."""
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ValueError(f"unknown {what} key {unknown[0]!r}")


def load_projection_weights(path) -> ProjectionWeights:
    """cv and cl from a weights file; unusable weights raise ValueError."""
    tokens = Path(path).read_text().split("\n")
    matrices: dict[str, np.ndarray] = {}
    i = 0
    while i < len(tokens):
        line = tokens[i].strip()
        i += 1
        if not line:
            continue
        name, rows, cols = line.split()
        rows, cols = int(rows), int(cols)
        data = [[float(v) for v in row.split()] for row in tokens[i:i + rows]]
        i += rows
        if len(data) != rows or any(len(row) != cols for row in data):
            raise ValueError(f"matrix {name}: expected {rows} rows of {cols} numbers")
        if name in matrices:
            raise ValueError(f"matrix {name} appears twice")
        matrices[name] = np.array(data, dtype=np.float64)
    if set(matrices) != {"cv", "cl"}:
        raise ValueError("weights file must contain exactly cv and cl")
    try:
        return ProjectionWeights(matrices["cv"], matrices["cl"])
    except (DimMismatch, NonFinite) as exc:
        raise ValueError(str(exc)) from None
