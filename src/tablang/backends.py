"""Grounding backends: map a single concept word to a spatial score map.

OracleBackend reads ground-truth attributes straight off the scene (the
perfect-perception regime). EmbeddingBackend runs the same query through the
feature/embedding projection path: synthetic per-pixel attribute-indicator
features, one-hot concept embeddings, and configurable projection weights
(identity by default), exercising the full dot-product grounding algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import formats, world
from .dsl import PROPERTY, ConceptToken
from .grounding import (
    ConceptEmbedding,
    GroundingMap,
    ProjectionWeights,
    project,
    score_projected,
)


class GroundingError(Exception):
    pass


def _check_concept(concept: ConceptToken) -> None:
    if concept.kind != PROPERTY:
        raise GroundingError(f"cannot ground a {concept.kind} concept: {concept.word}")


def ground_oracle(scene: world.Scene, concept: ConceptToken,
                  shape: tuple[int, int] | None = None) -> GroundingMap:
    """Ground-truth segmentation grounding: the binary union of footprints of
    objects carrying the concept word as an attribute. Unknown words give the
    all-zero map."""
    _check_concept(concept)
    return world.ground_truth_mask(scene, {concept.word}, shape)


@dataclass
class OracleBackend:
    ground_shape: tuple[int, int] | None = None

    name = "oracle"

    def shape_for(self, scene: world.Scene) -> tuple[int, int]:
        return self.ground_shape if self.ground_shape is not None else scene.grounding_shape()

    def ground(self, scene: world.Scene, concept: ConceptToken) -> GroundingMap:
        return ground_oracle(scene, concept, self.shape_for(scene))


@dataclass
class EmbeddingBackend:
    """Feature-space grounding over synthetic attribute indicators.

    Features are rasterized per scene; the projection is cached per scene.
    Concept embeddings are one-hot rows of the scene's attribute vocabulary;
    words outside the vocabulary embed to zero and thus ground to the
    all-zero map. Projection weights default to identity sized to the
    vocabulary.
    """

    ground_shape: tuple[int, int] | None = None
    weights: ProjectionWeights | None = None
    # (scene, weights, vocab, projected features) of the last scene grounded.
    _cache: tuple | None = field(default=None, repr=False, compare=False)

    name = "embedding"

    def shape_for(self, scene: world.Scene) -> tuple[int, int]:
        return self.ground_shape if self.ground_shape is not None else scene.grounding_shape()

    def _projected(self, scene: world.Scene) -> tuple[tuple[str, ...], np.ndarray]:
        """The scene's vocabulary and its features projected by the weights;
        reused while both the scene and the weights are the same objects."""
        hit = self._cache
        if hit is not None and hit[0] is scene and hit[1] is self.weights:
            return hit[2], hit[3]
        fmap, vocab = world.features(scene, self.shape_for(scene))
        weights = self.weights if self.weights is not None else ProjectionWeights.identity(fmap.dim)
        projected = project(fmap, weights)
        self._cache = (scene, self.weights, vocab, projected)
        return vocab, projected

    def ground(self, scene: world.Scene, concept: ConceptToken) -> GroundingMap:
        _check_concept(concept)
        vocab, projected = self._projected(scene)
        emb = np.zeros(max(1, len(vocab)), dtype=np.float64)
        if concept.word in vocab:
            emb[vocab.index(concept.word)] = 1.0
        return score_projected(projected, ConceptEmbedding(emb))


def make_backend(name: str, ground_shape: tuple[int, int] | None = None,
                 weights_path=None):
    """The backend called name ("oracle" or "embedding"). weights_path is a
    projection weights file for the embedding backend (identity when None);
    the oracle backend has no weights."""
    if ground_shape is not None and min(ground_shape) < 1:
        raise ValueError(f"grounding shape must be positive, not {ground_shape}")
    if name == "oracle":
        return OracleBackend(ground_shape)
    if name == "embedding":
        weights = formats.load_projection_weights(weights_path) if weights_path else None
        return EmbeddingBackend(ground_shape, weights=weights)
    raise ValueError(f"unknown backend {name!r}")
