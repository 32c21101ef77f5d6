"""Test-side reference painter: the scene's objects painted one by one with
fresh footprint_mask calls, in render's order, on corner-aligned axis_coords.
It shares no code with world.paint beyond the rasterizer and check_bounds, so
the tests can hold world.paint, render and the embedding backend to it."""

from __future__ import annotations

import numpy as np

from tablang import world
from tablang.grounding import axis_coords

RANK = {world.ZONE: 0, world.CONTAINER: 1, world.ITEM: 2}


def reference_paint(scene, lattice):
    """(objects in render's order, int raster of 1 + the order position of
    the topmost object at each sample, 0 = background); raises as
    check_bounds does."""
    world.check_bounds(scene)
    order = tuple(sorted(scene.objects, key=lambda o: RANK[o.kind]))
    gh, gw = lattice
    ys, xs = axis_coords(gh, scene.height), axis_coords(gw, scene.width)
    ids = np.zeros(lattice, dtype=int)
    for k, obj in enumerate(order, 1):
        ids[world.footprint_mask(obj, ys, xs)] = k
    return order, ids


def reference_features(scene, lattice):
    """The (gh, gw, D) attribute-indicator features of the topmost object at
    each sample of the lattice, and their vocabulary (D is at least 1)."""
    order, ids = reference_paint(scene, lattice)
    vocab = world.attribute_vocabulary(scene)
    feats = np.zeros((*lattice, max(1, len(vocab))))
    for k, obj in enumerate(order, 1):
        for attr in obj.attributes:
            feats[ids == k, vocab.index(attr)] = 1.0
    return feats, vocab
