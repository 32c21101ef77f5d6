"""Dense spatial score maps and the algebra used to compose them.

A GroundingMap holds per-pixel scores in [0, 1] over the top-down view.
Concept maps are combined by pixelwise min (conjunction) and max (union),
moved between resolutions by corner-aligned bilinear resampling, and
produced either from ground-truth attributes (see backends.OracleBackend)
or from per-pixel features dotted against a concept embedding after two
linear projections (ground_embedding).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


class ExecutionError(Exception):
    """A program could not be executed on a scene (grounding, relation or placement)."""


class DimMismatch(ExecutionError, ValueError):
    pass


class NonFinite(ExecutionError, ValueError):
    pass


def _checked(values, ndim: int, what: str) -> np.ndarray:
    """A read-only float64 copy of values, checked to be ndim-d, non-empty
    and finite."""
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise DimMismatch(f"expected {ndim}-d values, got {arr.ndim}-d")
    if arr.size == 0:
        raise DimMismatch(f"empty {what} shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFinite(f"{what} has non-finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class GroundingMap:
    values: np.ndarray

    def __post_init__(self):
        arr = _checked(self.values, 2, "grounding map")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("grounding map values outside [0, 1]")
        object.__setattr__(self, "values", arr)

    @classmethod
    def _unchecked(cls, values: np.ndarray) -> "GroundingMap":
        """The map of a fresh float64 array known to be 2-d, non-empty and
        within [0, 1], made read-only in place: no copy, no scan."""
        values.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "values", values)
        return out

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape  # type: ignore[return-value]


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """Per-pixel feature vectors, shape (H', W', D1)."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _checked(self.values, 3, "feature map"))


@dataclass(frozen=True, eq=False)
class ConceptEmbedding:
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _checked(self.values, 1, "embedding"))


@dataclass(frozen=True, eq=False)
class ProjectionWeights:
    """Two 1x1-convolution-style linear maps: cv projects features D1 -> D2,
    cl maps D2 -> D2 within the shared space."""

    cv: np.ndarray
    cl: np.ndarray

    def __post_init__(self):
        cv = _checked(self.cv, 2, "cv")
        cl = _checked(self.cl, 2, "cl")
        if cl.shape[0] != cl.shape[1]:
            raise DimMismatch(f"cl must be square, got {cl.shape}")
        if cl.shape[1] != cv.shape[0]:
            raise DimMismatch(f"cl {cl.shape} does not compose with cv {cv.shape}")
        object.__setattr__(self, "cv", cv)
        object.__setattr__(self, "cl", cl)


def normalize(raw) -> GroundingMap:
    """Min-max rescale a raw score grid into [0, 1].

    Degenerate ranges (max - min <= 1e-9) collapse to the all-zero map, so a
    constant grid carries no spatial information rather than a spurious peak.
    """
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 2:
        raise DimMismatch(f"expected 2-d grid, got {arr.ndim}-d")
    lo = arr.min()
    # Non-finite only when a score is, or when finite scores' range overflows.
    with np.errstate(over="ignore", invalid="ignore"):
        span = arr.max() - lo
    if not np.isfinite(span):
        raise NonFinite("cannot normalize non-finite scores or their range")
    if span <= 1e-9:
        return GroundingMap._unchecked(np.zeros_like(arr))
    return GroundingMap._unchecked((arr - lo) / span)


def _same_shape(a: GroundingMap, b: GroundingMap) -> None:
    if a.shape != b.shape:
        raise DimMismatch(f"shape mismatch: {a.shape} vs {b.shape}")


def intersect(a: GroundingMap, b: GroundingMap) -> GroundingMap:
    """Pixelwise min: keep only regions supported by both maps."""
    _same_shape(a, b)
    return GroundingMap._unchecked(np.minimum(a.values, b.values))


def union(a: GroundingMap, b: GroundingMap) -> GroundingMap:
    """Pixelwise max."""
    _same_shape(a, b)
    return GroundingMap._unchecked(np.maximum(a.values, b.values))


@functools.lru_cache(maxsize=32)
def axis_coords(n_out: int, n_in: int) -> np.ndarray:
    """Corner-aligned sample positions, read-only: output index i maps to
    input coordinate i * (n_in - 1) / (n_out - 1), so axis_coords(n, n) is
    np.arange(n) exactly; a single output sample sits at 0."""
    if n_out < 1 or n_in < 1:
        raise DimMismatch("axis sizes must be positive")
    out = np.arange(n_out, dtype=np.float64) * (n_in - 1) / max(1, n_out - 1)
    out.setflags(write=False)
    return out


def support_box(values: np.ndarray) -> tuple[int, int, int, int] | None:
    """The first and last nonzero row, then column, of a 2-d array; None if
    it is all zero."""
    rows = np.flatnonzero(values.any(axis=1))
    if not len(rows):
        return None
    cols = np.flatnonzero(values.any(axis=0))
    return int(rows[0]), int(rows[-1]), int(cols[0]), int(cols[-1])


@functools.lru_cache(maxsize=32)
def _bilinear_axis(n_out: int, n_in: int) -> tuple[np.ndarray, ...]:
    """Each output sample's corners i0, i1 and weights 1 - f, f along one
    axis, read-only. Corners never decrease along the axis."""
    pos = axis_coords(n_out, n_in)
    i0 = np.floor(pos).astype(int)
    f = pos - i0
    table = (i0, np.minimum(i0 + 1, n_in - 1), 1 - f, f)
    for arr in table:
        arr.setflags(write=False)
    return table


def _window(table: tuple[np.ndarray, ...], lo: int, hi: int):
    """The run [a, b) of samples with a corner in rows (or columns) lo..hi,
    and the table cut to it."""
    a, b = np.searchsorted(table[1], lo), np.searchsorted(table[0], hi, side="right")
    return a, b, [t[a:b] for t in table]


def resample(mapping: GroundingMap, new_height: int, new_width: int) -> GroundingMap:
    """Corner-aligned bilinear resampling; corner pixels are preserved. Only
    samples with a corner on the source's nonzero box are computed; every
    other one is 0 * (1 - f) + 0 * f, the +0.0 it is left at."""
    if new_height < 1 or new_width < 1:
        raise DimMismatch("target dimensions must be positive")
    src = mapping.values
    out = np.zeros((new_height, new_width))
    box = support_box(src)
    if box is None:
        return GroundingMap._unchecked(out)
    i, i_end, (y0, y1, wy0, wy1) = _window(_bilinear_axis(new_height, src.shape[0]), *box[:2])
    j, j_end, (x0, x1, wx0, wx1) = _window(_bilinear_axis(new_width, src.shape[1]), *box[2:])
    # One pass per axis: the same float operations as gathering four corners.
    cols = src[:, x0] * wx0 + src[:, x1] * wx1
    out[i:i_end, j:j_end] = np.clip(cols[y0] * wy0[:, None] + cols[y1] * wy1[:, None], 0.0, 1.0)
    return GroundingMap._unchecked(out)


def project(features: np.ndarray, weights: ProjectionWeights) -> np.ndarray:
    """The (..., D2) projection features @ cv.T @ cl.T of (..., D1) features."""
    dim = features.shape[-1]
    if weights.cv.shape[1] != dim:
        raise DimMismatch(f"cv expects dim {weights.cv.shape[1]}, features have {dim}")
    return features @ weights.cv.T @ weights.cl.T


def concept_scores(projected: np.ndarray, embedding: ConceptEmbedding) -> np.ndarray:
    """The raw dot product of each (..., D2) projected feature with the
    embedding."""
    dim = embedding.values.shape[0]
    if dim != projected.shape[-1]:
        raise DimMismatch(f"embedding dim {dim} != projected dim {projected.shape[-1]}")
    return projected @ embedding.values


def ground_embedding(
    features: FeatureMap,
    embedding: ConceptEmbedding,
    weights: ProjectionWeights,
) -> GroundingMap:
    """Score each pixel by the embedding dotted with the projected feature.

    raw(i, j) = sum_d embedding_d * (cl @ (cv @ features[i, j]))_d, then
    min-max normalized. Equivalent to tiling the embedding over the grid and
    summing the Hadamard product along the feature dimension.
    """
    return normalize(concept_scores(project(features.values, weights), embedding))
