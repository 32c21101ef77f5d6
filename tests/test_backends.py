import numpy as np
import pytest

from tablang import benchmark as bm
from tablang import world
from tablang.backends import EmbeddingBackend, GroundingError, OracleBackend, make_backend
from tablang.dsl import ACTION, PROPERTY, ConceptToken
from tablang.formats import (
    load_projection_weights,
    read_pgm,
    save_projection_weights,
    write_pgm,
)
from tablang.grounding import ProjectionWeights


def prop(w):
    return ConceptToken(w, PROPERTY)


def scene_one_hexagon():
    hexagon = world.make_object(1, world.ITEM, "hexagon", "blue", 30.0, 30.0,
                                size=5.0, extra=("shape", "daxy"))
    return world.Scene(128, 64, (hexagon,), rng_seed=1)


def test_oracle_grounds_attribute_footprint():
    scene = scene_one_hexagon()
    backend = OracleBackend()
    blue = backend.ground(scene, prop("blue"))
    expected = world.ground_truth_mask(scene, {"hexagon"})
    assert np.array_equal(blue.values, expected.values)
    assert blue.values.sum() > 0


def test_oracle_unknown_word_is_zero():
    backend = OracleBackend()
    out = backend.ground(scene_one_hexagon(), prop("purple"))
    assert np.all(out.values == 0.0)


def test_concept_composition_selects_intersection():
    """hexagons min blues leaves exactly the blue hexagon."""
    objs = (
        world.make_object(1, world.ITEM, "hexagon", "blue", 24.0, 24.0, size=5.0),
        world.make_object(2, world.ITEM, "hexagon", "red", 64.0, 24.0, size=5.0),
        world.make_object(3, world.ITEM, "disc", "blue", 100.0, 40.0, size=5.0),
    )
    scene = world.Scene(128, 64, objs)
    backend = OracleBackend()
    from tablang.grounding import intersect

    hexagons = backend.ground(scene, prop("hexagon"))
    blues = backend.ground(scene, prop("blue"))
    both = intersect(hexagons, blues)
    expected = world.ground_truth_mask(scene, {"hexagon", "blue"})
    assert np.array_equal(both.values, expected.values)
    assert both.values.sum() > 0
    only_blue_hexagon = world.footprint_mask(
        objs[0], scene.grounding_shape(),
        np.arange(32) * 63 / 31, np.arange(64) * 127 / 63)
    assert np.array_equal(both.values > 0, only_blue_hexagon)


def test_oracle_grounds_novel_metadata_word():
    backend = OracleBackend()
    scene = scene_one_hexagon()
    daxy = backend.ground(scene, prop("daxy"))
    assert np.array_equal(daxy.values, backend.ground(scene, prop("hexagon")).values)


def test_oracle_rejects_non_property():
    with pytest.raises(GroundingError):
        OracleBackend().ground(scene_one_hexagon(), ConceptToken("pack", ACTION))


def test_embedding_matches_oracle_on_clean_features():
    scene = scene_one_hexagon()
    oracle = OracleBackend()
    embed = EmbeddingBackend()
    for word in ("blue", "hexagon", "daxy"):
        a = oracle.ground(scene, prop(word)).values
        b = embed.ground(scene, prop(word)).values
        assert np.array_equal(a, b)


def test_embedding_agreement_on_generator_scenes():
    """Argmax pixels of the embedding map coincide with the oracle's nonzero
    pixels on freshly generated (non-overlapping) scenes."""
    oracle = OracleBackend()
    embed = EmbeddingBackend()
    for name in ("packing_color_box", "put_blocks_in_bowls", "pushing_shapes"):
        for seed in range(3):
            ep = bm.generate_episode(bm.TaskSpec(name), seed)
            vocab = world.attribute_vocabulary(ep.scene)
            for word in vocab:
                o = oracle.ground(ep.scene, prop(word)).values
                e = embed.ground(ep.scene, prop(word)).values
                if o.max() == 0:
                    assert e.max() == 0
                    continue
                argmax_pixels = e == e.max()
                assert np.array_equal(argmax_pixels, o > 0)


def test_embedding_unknown_word_zero():
    out = EmbeddingBackend().ground(scene_one_hexagon(), prop("gorp"))
    assert np.all(out.values == 0.0)


def test_embedding_noise_deterministic():
    scene = scene_one_hexagon()
    a = EmbeddingBackend(noise_sigma=0.1).ground(scene, prop("blue"))
    b = EmbeddingBackend(noise_sigma=0.1).ground(scene, prop("blue"))
    assert np.array_equal(a.values, b.values)


def test_projection_weights_file_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    weights = ProjectionWeights(rng.normal(size=(3, 5)), rng.normal(size=(3, 3)))
    path = tmp_path / "weights.txt"
    save_projection_weights(path, weights)
    loaded = load_projection_weights(path)
    assert np.array_equal(loaded.cv, weights.cv)
    assert np.array_equal(loaded.cl, weights.cl)


def test_backend_factory(tmp_path):
    assert make_backend("oracle", (8, 16)) == OracleBackend((8, 16))
    assert make_backend("embedding").weights is None
    weights = ProjectionWeights(np.eye(2), np.eye(2))
    path = tmp_path / "weights.txt"
    save_projection_weights(path, weights)
    loaded = make_backend("embedding", weights_path=path).weights
    assert np.array_equal(loaded.cv, weights.cv)
    with pytest.raises(ValueError):
        make_backend("clip")


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.random((9, 13))
    path = tmp_path / "map.pgm"
    write_pgm(path, values)
    loaded = read_pgm(path)
    assert loaded.shape == values.shape
    assert np.all(np.abs(loaded - values) <= 0.5 / 255.0 + 1e-12)
