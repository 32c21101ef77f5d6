"""Small textual/binary file formats: PGM/PPM dumps and weight matrices."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .grounding import ProjectionWeights


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


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    header, rest = blob.split(b"\n255\n", 1)
    magic, dims = header.split(b"\n", 1)
    if magic != b"P5":
        raise ValueError("not a binary PGM")
    w, h = (int(t) for t in dims.split())
    data = np.frombuffer(rest[: w * h], dtype=np.uint8).reshape(h, w)
    return data.astype(np.float64) / 255.0


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


def _write_matrix(lines: list[str], name: str, matrix: np.ndarray) -> None:
    rows, cols = matrix.shape
    lines.append(f"{name} {rows} {cols}")
    for row in matrix:
        lines.append(" ".join(repr(float(v)) for v in row))


def save_projection_weights(path, weights: ProjectionWeights) -> None:
    lines: list[str] = []
    _write_matrix(lines, "cv", weights.cv)
    _write_matrix(lines, "cl", weights.cl)
    Path(path).write_text("\n".join(lines) + "\n")


def load_projection_weights(path) -> ProjectionWeights:
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
        data = [[float(v) for v in tokens[i + r].split()] for r in range(rows)]
        i += rows
        mat = np.array(data, dtype=np.float64)
        if mat.shape != (rows, cols):
            raise ValueError(f"matrix {name}: bad row widths")
        matrices[name] = mat
    if set(matrices) != {"cv", "cl"}:
        raise ValueError("weights file must contain exactly cv and cl")
    return ProjectionWeights(matrices["cv"], matrices["cl"])
