"""Grounding backends: map a single concept word to a spatial score map.

This is the only module that grounds; the world only paints. OracleBackend
reads ground-truth attributes straight off the scene (the perfect-perception
regime). EmbeddingBackend runs the same query through the feature/embedding
projection path: attribute-indicator features, one-hot concept embeddings,
and configurable projection weights (identity by default). The synthetic
features are constant per object, so it grounds a scene from world.paint's
id raster and one attribute row per painted object, and a concept's scores
are one column of that projected table. Both ground on shape_for's lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import formats, world
from .dsl import PROPERTY, ConceptToken
from .grounding import (DimMismatch, ExecutionError, GroundingMap, NonFinite,
                        ProjectionWeights, project)


class GroundingError(ExecutionError):
    pass


def _check_concept(concept: ConceptToken) -> None:
    if concept.kind != PROPERTY:
        raise GroundingError(f"cannot ground a {concept.kind} concept: {concept.word}")


@dataclass
class _Backend:
    ground_shape: tuple[int, int] | None = None

    def shape_for(self, scene: world.Scene) -> tuple[int, int]:
        """The (rows, cols) grounding lattice: ground_shape when set, else
        half the scene's resolution on each axis."""
        if self.ground_shape is not None:
            return self.ground_shape
        return max(1, scene.height // 2), max(1, scene.width // 2)


@dataclass
class OracleBackend(_Backend):
    name = "oracle"

    def ground(self, scene: world.Scene, concept: ConceptToken) -> GroundingMap:
        """Ground-truth segmentation grounding: the binary union of footprints
        of the objects carrying the concept word as an attribute, occluded
        parts included. Unknown words give the all-zero map."""
        _check_concept(concept)
        lattice = self.shape_for(scene)
        out = np.zeros(lattice, dtype=bool)
        for obj in scene.objects:
            if concept.word in obj.attributes:
                out |= obj.mask((scene.height, scene.width), lattice)
        return GroundingMap._unchecked(out.astype(np.float64))


@dataclass
class EmbeddingBackend(_Backend):
    """Feature-space grounding over synthetic attribute indicators. Each
    scene is painted once (world.paint) into ids and a table of the painted
    objects' attribute rows, row 0 the background's; weights, when set,
    project only the table. A word's one-hot embedding picks one column (an
    unknown word's is zeros), normalized over the painted rows."""

    weights: ProjectionWeights | None = None
    # (scene, weights, key, ids, word -> column, normalized columns) of the last
    # scene; key is the painted objects' attributes and which rows ids paints.
    _cache: tuple | None = field(default=None, repr=False, compare=False)

    name = "embedding"

    def ground(self, scene: world.Scene, concept: ConceptToken) -> GroundingMap:
        _check_concept(concept)
        hit = self._cache
        if hit is None or hit[0] is not scene or hit[1] is not self.weights:
            self._cache = hit = self._scene_table(scene, hit)
        *_, ids, columns, normalized = hit
        return GroundingMap._unchecked(normalized[columns.get(concept.word, -1)][ids])

    def _scene_table(self, scene: world.Scene, last: tuple | None) -> tuple:
        """The scene's cache entry. normalized[c] is column c rescaled as in
        normalize(column[ids]); the last column, all zeros, is unknown words'.
        A scene with last's weights and key reuses its table. Raises
        DimMismatch when the weights do not fit the scene, and NonFinite
        when any column's range over the painted rows is not."""
        order, ids = world.paint(scene, self.shape_for(scene))
        shown = np.zeros(len(order) + 1, dtype=bool)  # the rows ids paints
        shown[ids] = True
        key = (tuple(obj.attributes for obj in order), shown.tobytes())
        if last is not None and last[1] is self.weights and last[2] == key:
            return scene, self.weights, key, ids, *last[4:]
        columns = {w: c for c, w in enumerate(world.attribute_vocabulary(scene))}
        dim = max(1, len(columns))
        table = np.zeros((len(order) + 1, dim), dtype=np.float64)
        for k, obj in enumerate(order, 1):
            table[k, [columns[a] for a in obj.attributes]] = 1.0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if self.weights is not None:
                table = project(table, self.weights)
            if table.shape[1] != dim:
                raise DimMismatch(f"embedding dim {dim} != projected dim {table.shape[1]}")
            # + 0.0: the one-hot product sums a -0.0 entry to +0.0.
            scores = np.vstack([table.T, np.zeros(len(table))]) + 0.0
            painted = scores[:, shown]
            lo = painted.min(axis=1, keepdims=True)
            span = painted.max(axis=1, keepdims=True) - lo
            if not np.isfinite(span).all():
                raise NonFinite("cannot normalize non-finite scores or their range")
            return (scene, self.weights, key, ids, columns,
                    np.where(span > 1e-9, (scores - lo) / span, 0.0))


def make_backend(name: str, ground_shape: tuple[int, int] | None = None,
                 weights_path=None):
    """The backend called name ("oracle" or "embedding"). weights_path is a
    projection weights file for the embedding backend (identity when None);
    the oracle backend has no weights and refuses one."""
    if ground_shape is not None and min(ground_shape) < 1:
        raise ValueError(f"grounding shape must be positive, not {ground_shape}")
    if name == "oracle":
        if weights_path is not None:
            raise ValueError("weights are for the embedding backend, not oracle")
        return OracleBackend(ground_shape)
    if name == "embedding":
        weights = formats.load_projection_weights(weights_path) if weights_path else None
        return EmbeddingBackend(ground_shape, weights=weights)
    raise ValueError(f"unknown backend {name!r}")
