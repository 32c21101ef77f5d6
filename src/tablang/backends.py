"""Grounding backends: map a single concept word to a spatial score map.

This is the only module that grounds; the world only paints. OracleBackend
reads ground-truth attributes straight off the scene (the perfect-perception
regime). EmbeddingBackend runs the same query through the feature/embedding
projection path: attribute-indicator features, one-hot concept embeddings,
and configurable projection weights (identity by default), exercising the
full dot-product grounding algebra. The synthetic features are constant per
object, so it grounds a scene from world.paint's id raster and one attribute
row per painted object. Both ground on the lattice shape_for gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import formats, world
from .dsl import PROPERTY, ConceptToken
from .grounding import (
    ConceptEmbedding,
    ExecutionError,
    GroundingMap,
    ProjectionWeights,
    concept_scores,
    normalize,
    project,
)


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
    """Feature-space grounding over synthetic attribute indicators.

    Each scene is painted once (world.paint) into ids and a table of the
    painted objects' attribute rows, row 0 the background's zeros; weights,
    when set, project only the table. Concept embeddings are one-hot rows of
    the scene's attribute vocabulary (other words ground to all zeros), and
    a concept map is the normalized table scores gathered by the ids.
    """

    weights: ProjectionWeights | None = None
    # (scene, weights, vocab, projected table, ids) of the last scene grounded.
    _cache: tuple | None = field(default=None, repr=False, compare=False)

    name = "embedding"

    def ground(self, scene: world.Scene, concept: ConceptToken) -> GroundingMap:
        _check_concept(concept)
        hit = self._cache
        if hit is None or hit[0] is not scene or hit[1] is not self.weights:
            order, ids = world.paint(scene, self.shape_for(scene))
            vocab = world.attribute_vocabulary(scene)
            table = np.zeros((len(order) + 1, max(1, len(vocab))), dtype=np.float64)
            for k, obj in enumerate(order, 1):
                table[k, [vocab.index(a) for a in obj.attributes]] = 1.0
            if self.weights is not None:
                table = project(table, self.weights)
            self._cache = (scene, self.weights, vocab, table, ids)
        _, _, vocab, table, ids = self._cache
        emb = np.zeros(max(1, len(vocab)), dtype=np.float64)
        if concept.word in vocab:
            emb[vocab.index(concept.word)] = 1.0
        return normalize(concept_scores(table, ConceptEmbedding(emb))[ids])


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
