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
    FeatureMap,
    GroundingMap,
    ProjectionWeights,
    ground_embedding,
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

    Features are rendered per scene (noise seeded by the scene, so grounding
    stays deterministic). Concept embeddings are one-hot rows of the scene's
    attribute vocabulary; words outside the vocabulary embed to zero and thus
    ground to the all-zero map. Projection weights default to identity sized
    to the vocabulary.
    """

    ground_shape: tuple[int, int] | None = None
    weights: ProjectionWeights | None = None
    noise_sigma: float = 0.0
    _cache: dict = field(default_factory=dict, repr=False)

    name = "embedding"

    def shape_for(self, scene: world.Scene) -> tuple[int, int]:
        return self.ground_shape if self.ground_shape is not None else scene.grounding_shape()

    def _features(self, scene: world.Scene):
        key = id(scene)
        hit = self._cache.get(key)
        if hit is not None and hit[0] is scene:
            return hit[1], hit[2]
        rendered = world.render(scene, self.shape_for(scene))
        feats = rendered.features.values
        if self.noise_sigma > 0:
            rng = np.random.default_rng(scene.rng_seed)
            feats = feats + rng.normal(0.0, self.noise_sigma, feats.shape)
        fmap = FeatureMap(feats)
        self._cache = {key: (scene, fmap, rendered.feature_vocab)}
        return fmap, rendered.feature_vocab

    def ground(self, scene: world.Scene, concept: ConceptToken) -> GroundingMap:
        _check_concept(concept)
        fmap, vocab = self._features(scene)
        dim = fmap.dim
        emb = np.zeros(dim, dtype=np.float64)
        if concept.word in vocab:
            emb[vocab.index(concept.word)] = 1.0
        weights = self.weights if self.weights is not None else ProjectionWeights.identity(dim)
        return ground_embedding(fmap, ConceptEmbedding(emb), weights)


def make_backend(name: str, ground_shape: tuple[int, int] | None = None,
                 weights_path=None):
    """The backend called name ("oracle" or "embedding"). weights_path is a
    projection weights file for the embedding backend (identity when None);
    the oracle backend has no weights."""
    if name == "oracle":
        return OracleBackend(ground_shape)
    if name == "embedding":
        weights = formats.load_projection_weights(weights_path) if weights_path else None
        return EmbeddingBackend(ground_shape, weights=weights)
    raise ValueError(f"unknown backend {name!r}")
