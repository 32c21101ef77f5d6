import dataclasses
import math

import numpy as np
import pytest

from reference_paint import reference_features, reference_paint
from tablang import benchmark as bm
from tablang import backends, ccg, world
from tablang.backends import EmbeddingBackend, GroundingError, OracleBackend, make_backend
from tablang.dsl import ACTION, PROPERTY, ConceptToken
from tablang.formats import load_projection_weights, write_pnm
from tablang.grounding import (
    ConceptEmbedding,
    DimMismatch,
    FeatureMap,
    NonFinite,
    ProjectionWeights,
    axis_coords,
    concept_scores,
    ground_embedding,
    intersect,
    normalize,
    project,
    union,
)


def prop(w):
    return ConceptToken(w, PROPERTY)


def eye_weights(dim):
    """Identity cv and cl over dim features."""
    return ProjectionWeights(np.eye(dim), np.eye(dim))


def scene_one_hexagon():
    hexagon = world.SceneObject(1, world.ITEM, "hexagon", "blue", 30.0, 30.0,
                                size=5.0, attributes=("shape", "daxy"))
    return world.Scene(128, 64, (hexagon,), rng_seed=1)


def lattice_footprint(backend, scene, obj):
    """obj's footprint sampled on backend's grounding lattice."""
    gh, gw = backend.shape_for(scene)
    return world.footprint_mask(obj, axis_coords(gh, scene.height), axis_coords(gw, scene.width))


def test_oracle_grounds_attribute_footprint():
    scene = scene_one_hexagon()
    backend = OracleBackend()
    blue = backend.ground(scene, prop("blue"))
    assert np.array_equal(blue.values, lattice_footprint(backend, scene, scene.find(1)))
    assert blue.values.sum() > 0


def test_oracle_grounds_union_of_carriers():
    """A word one object carries grounds to its footprint; a word several
    objects carry, to the union of theirs."""
    box = world.SceneObject(1, world.CONTAINER, "box", "brown", 90.0, 32.0, size=10.0,
                            attributes=("thing",))
    hexagon = world.SceneObject(2, world.ITEM, "hexagon", "blue", 30.0, 30.0, size=5.0,
                                attributes=("thing",))
    scene = world.Scene(128, 64, (box, hexagon))
    backend = OracleBackend()
    ground = lambda word: backend.ground(scene, prop(word))
    foot_box, foot_hex = (lattice_footprint(backend, scene, o) for o in (box, hexagon))
    assert np.array_equal(ground("hexagon").values, foot_hex)
    assert np.array_equal(ground("blue").values, foot_hex)
    assert np.array_equal(ground("thing").values, foot_box | foot_hex)
    assert np.array_equal(ground("thing").values, union(ground("hexagon"), ground("box")).values)


def test_oracle_unknown_word_is_zero():
    backend = OracleBackend()
    out = backend.ground(scene_one_hexagon(), prop("purple"))
    assert np.all(out.values == 0.0)


def test_concept_composition_selects_intersection():
    """hexagons min blues leaves exactly the blue hexagon."""
    objs = (
        world.SceneObject(1, world.ITEM, "hexagon", "blue", 24.0, 24.0, size=5.0),
        world.SceneObject(2, world.ITEM, "hexagon", "red", 64.0, 24.0, size=5.0),
        world.SceneObject(3, world.ITEM, "disc", "blue", 100.0, 40.0, size=5.0),
    )
    scene = world.Scene(128, 64, objs)
    backend = OracleBackend()
    hexagons = backend.ground(scene, prop("hexagon"))
    blues = backend.ground(scene, prop("blue"))
    both = intersect(hexagons, blues)
    assert both.values.sum() > 0
    only_blue_hexagon = world.footprint_mask(
        objs[0], np.arange(32) * 63 / 31, np.arange(64) * 127 / 63)
    assert np.array_equal(both.values, only_blue_hexagon)


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


def test_default_weights_ground_as_explicit_identity_weights():
    """The default backend applies no projection; identity weights sized to
    the scene's feature count ground every word, and an unknown one, to the
    same bits."""
    for name in bm.TASK_NAMES:
        ep = bm.generate_episode(bm.TaskSpec(name, "unseen"), 4)
        vocab = world.attribute_vocabulary(ep.scene)
        default = EmbeddingBackend()
        identity = EmbeddingBackend(weights=eye_weights(max(1, len(vocab))))
        for word in (*vocab, "gorp"):
            a = default.ground(ep.scene, prop(word)).values
            b = identity.ground(ep.scene, prop(word)).values
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, word)


def test_embedding_unknown_word_zero():
    out = EmbeddingBackend().ground(scene_one_hexagon(), prop("gorp"))
    assert np.all(out.values == 0.0)


def test_cached_projection_matches_ground_embedding():
    """Grounding every concept of a scene through the per-scene projected
    table gives the bits of projecting the reference painter's features once
    per concept, under random non-identity weights."""
    rng = np.random.default_rng(4)
    backend = EmbeddingBackend()
    for name in ("packing_nested_prepositions", "put_blocks_in_bowls", "separating_piles"):
        scene = bm.generate_episode(bm.TaskSpec(name), 2).scene
        feats, vocab = reference_features(scene, backend.shape_for(scene))
        fmap = FeatureMap(feats)
        dim = feats.shape[2]
        weights = ProjectionWeights(rng.normal(size=(dim, dim)), rng.normal(size=(dim, dim)))
        backend.weights = weights
        for word in vocab + ("gorp",):
            emb = np.zeros(dim)
            if word in vocab:
                emb[vocab.index(word)] = 1.0
            got = backend.ground(scene, prop(word)).values
            want = ground_embedding(fmap, ConceptEmbedding(emb), weights)
            assert np.array_equal(got, want.values)
            # The association order of the unsplit ground_embedding.
            raw = fmap.values @ weights.cv.T @ weights.cl.T @ emb
            assert np.array_equal(got, normalize(raw).values)


def one_hot_ground(scene, word, weights, lattice, projector=project):
    """A concept map grounded per call: the painted attribute table
    (projected by weights when set) dotted with word's one-hot embedding
    over the scene's vocabulary, gathered by the ids, then normalized."""
    order, ids = reference_paint(scene, lattice)
    vocab = world.attribute_vocabulary(scene)
    table = np.zeros((len(order) + 1, max(1, len(vocab))))
    for k, obj in enumerate(order, 1):
        table[k, [vocab.index(a) for a in obj.attributes]] = 1.0
    if weights is not None:
        table = projector(table, weights)
    emb = np.zeros(max(1, len(vocab)))
    if word in vocab:
        emb[vocab.index(word)] = 1.0
    return normalize(concept_scores(table, ConceptEmbedding(emb))[ids])


def covered_scene():
    """A red disc wholly under a later blue block: painted over, so its
    attributes are on no sample."""
    hidden = world.SceneObject(1, world.ITEM, "disc", "red", 30.0, 30.0, size=2.0,
                               attributes=("hidden",))
    cover = world.SceneObject(2, world.ITEM, "block", "blue", 30.0, 30.0, size=8.0)
    ring = world.SceneObject(3, world.ZONE, "ring", "green", 90.0, 30.0, size=10.0)
    return world.Scene(128, 64, (hidden, cover, ring))


def grounding_scenes():
    scenes = [bm.generate_episode(bm.TaskSpec(name), 2).scene
              for name in ("packing_nested_prepositions", "put_blocks_in_bowls",
                           "separating_piles")]
    return scenes + [covered_scene(), scene_one_hexagon(), world.Scene(16, 8, ())]


def test_scene_table_grounds_the_one_hot_bytes():
    """Each concept map, an unknown word's included, is the bytes of
    grounding it alone through the one-hot product, under default, identity
    and random weights (30% of their entries -0.0), with an object
    painted over, one object, or none."""
    scene = covered_scene()
    order, ids = reference_paint(scene, EmbeddingBackend().shape_for(scene))
    assert order.index(scene.find(1)) + 1 not in ids
    rng = np.random.default_rng(11)
    for scene in grounding_scenes():
        lattice = EmbeddingBackend().shape_for(scene)
        vocab = world.attribute_vocabulary(scene)
        dim = max(1, len(vocab))
        signed = [rng.normal(size=(dim, dim)) for _ in range(2)]
        for m in signed:
            m[rng.random(m.shape) < 0.3] = -0.0
        for weights in (None, eye_weights(dim), ProjectionWeights(*signed)):
            backend = EmbeddingBackend(weights=weights)
            for word in (*vocab, "gorp"):
                got = backend.ground(scene, prop(word)).values
                want = one_hot_ground(scene, word, weights, lattice).values
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), word


NON_FINITE = "cannot normalize non-finite scores or their range"


def write_weights(path, cv, cl):
    lines = []
    for name, m in (("cv", cv), ("cl", cl)):
        lines.append(f"{name} {m.shape[0]} {m.shape[1]}")
        lines += [" ".join(map(repr, map(float, row))) for row in m]
    path.write_text("\n".join(lines) + "\n")


def outcome(ground):
    """ground()'s map bytes, or its NonFinite message."""
    try:
        return ground().values.tobytes()
    except NonFinite as exc:
        return str(exc)


def one_hot_outcome(scene, word, weights):
    """outcome of one_hot_ground; numpy's overflow warnings from its
    projection are not errors here."""
    with np.errstate(over="ignore", invalid="ignore"):
        return outcome(lambda: one_hot_ground(scene, word, weights,
                                              EmbeddingBackend().shape_for(scene)))


def test_overflowing_weights_fail_every_word_of_the_scene(tmp_path):
    """Weights files whose projection overflows: when grounding some word
    alone through the one-hot product raises NonFinite, every word of the
    scene raises it, on every call and with no numpy warning; otherwise each
    word gets that product's bytes. A painted row with an infinite entry
    fails every word; a painted-over one fails none."""
    rng = np.random.default_rng(12)
    failed = []
    for scene in grounding_scenes()[:5]:
        vocab = world.attribute_vocabulary(scene)
        dim = max(1, len(vocab))
        for trial in range(6):
            cv = rng.choice([-1.7e308, 1.7e308, 0.0, 1.0, -0.0], size=(dim, dim),
                            p=[0.05, 0.05, 0.6, 0.2, 0.1])
            path = tmp_path / f"w{trial}.txt"
            write_weights(path, cv, np.eye(dim))
            backend = make_backend("embedding", weights_path=path)
            words = (*vocab, "gorp")
            want = [one_hot_outcome(scene, word, backend.weights) for word in words]
            fails = any(isinstance(w, str) for w in want)
            for word, w in zip(words, want):
                for _ in range(2):
                    got = outcome(lambda: backend.ground(scene, prop(word)))
                    assert got == (NON_FINITE if fails else w), (trial, word)
            failed.append(fails)
    assert any(failed) and not all(failed)
    # Rows that sum two 1.7e308 entries: the painted-over disc's fails no
    # word, the block's on top of it fails every word.
    scene = covered_scene()
    vocab = world.attribute_vocabulary(scene)
    for pair, fails in ((("disc", "hidden"), False), (("block", "blue"), True)):
        cv = np.eye(len(vocab))
        cv[:, [vocab.index(a) for a in pair]] = 1.7e308
        write_weights(tmp_path / "w.txt", cv, np.eye(len(vocab)))
        backend = make_backend("embedding", weights_path=tmp_path / "w.txt")
        for word in (*vocab, "gorp"):
            got = outcome(lambda: backend.ground(scene, prop(word)))
            assert got == one_hot_outcome(scene, word, backend.weights), (pair, word)
            assert isinstance(got, str) == fails, (pair, word)


def test_negative_zero_entries_score_as_the_one_hot_product(monkeypatch):
    """A table entry of -0.0 scores +0.0 in the one-hot product, which sums
    from +0.0; the column path grounds the same bytes when a column mixes
    both zeros with its minimum at zero."""
    def signed_project(features, weights):
        out = project(features, weights)
        out[1::2][out[1::2] == 0.0] = -0.0
        return out

    monkeypatch.setattr(backends, "project", signed_project)
    for scene in grounding_scenes():
        vocab = world.attribute_vocabulary(scene)
        weights = eye_weights(max(1, len(vocab)))
        backend = EmbeddingBackend(weights=weights)
        for word in (*vocab, "gorp"):
            got = backend.ground(scene, prop(word)).values
            want = one_hot_ground(scene, word, weights, backend.shape_for(scene),
                                  signed_project).values
            assert got.tobytes() == want.tobytes(), word


def test_embedding_grounds_without_render(monkeypatch):
    def no_render(*args, **kwargs):
        raise AssertionError("render called")

    scene = scene_one_hexagon()
    want = OracleBackend().ground(scene, prop("blue")).values
    monkeypatch.setattr(world, "render", no_render)
    assert np.array_equal(EmbeddingBackend().ground(scene, prop("blue")).values, want)


def test_new_weights_invalidate_cached_projection():
    hexagon = world.SceneObject(1, world.ITEM, "hexagon", "blue", 30.0, 30.0, size=5.0)
    disc = world.SceneObject(2, world.ITEM, "disc", "red", 90.0, 30.0, size=5.0)
    scene = world.Scene(128, 64, (hexagon, disc))
    backend = EmbeddingBackend()
    before = backend.ground(scene, prop("blue")).values
    dim = len(world.attribute_vocabulary(scene))
    swapped = ProjectionWeights(np.eye(dim)[::-1], np.eye(dim))
    backend.weights = swapped
    after = backend.ground(scene, prop("blue")).values
    assert not np.array_equal(before, after)
    fmap = FeatureMap(reference_features(scene, backend.shape_for(scene))[0])
    want = ground_embedding(fmap, ConceptEmbedding(np.eye(dim)[0]), swapped)
    assert np.array_equal(after, want.values)


@dataclasses.dataclass
class SceneLog(EmbeddingBackend):
    """An embedding backend that keeps each new scene it grounds, in order."""

    scenes: list = dataclasses.field(default_factory=list)

    def ground(self, scene, concept):
        if not self.scenes or self.scenes[-1] is not scene:
            self.scenes.append(scene)
        return super().ground(scene, concept)


def count_calls(monkeypatch, module, name):
    """A list that gets the arguments of each call of module.name from here on."""
    calls, real = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_long_lived_backend_grounds_episode_scenes_as_fresh_ones(monkeypatch):
    """Over every scene that seeded embedding bowl and pile episodes ground,
    one long-lived backend maps each vocabulary word and an unknown one to
    the bytes a fresh backend per scene gives. Scenes whose painted rows
    are the last scene's reuse its table, so it builds fewer tables than
    it sees scenes."""
    log = SceneLog()
    lexicon = ccg.default_lexicon()
    for name in ("put_blocks_in_bowls", "separating_piles", "separating_location_piles"):
        for seed in range(3):
            bm.run_episode(bm.generate_episode(bm.TaskSpec(name), seed), log, lexicon)
    words = [(*world.attribute_vocabulary(scene), "gorp") for scene in log.scenes]
    want = [[EmbeddingBackend().ground(scene, prop(w)).values.tobytes() for w in scene_words]
            for scene, scene_words in zip(log.scenes, words)]
    builds = count_calls(monkeypatch, world, "attribute_vocabulary")
    backend = EmbeddingBackend()
    got = [[backend.ground(scene, prop(w)).values.tobytes() for w in scene_words]
           for scene, scene_words in zip(log.scenes, words)]
    assert got == want
    assert len(builds) < len(log.scenes)  # 27 tables for 55 scenes


def test_table_is_rebuilt_when_painted_rows_or_weights_change(monkeypatch):
    """A moved object that stays painted reuses the table; an object painted
    over, or an equal but new weights object, rebuilds it. Every map is a
    fresh backend's."""
    hexagon = world.SceneObject(1, world.ITEM, "hexagon", "blue", 30.0, 30.0, size=5.0)
    disc = world.SceneObject(2, world.ITEM, "disc", "red", 90.0, 30.0, size=2.0)
    block = world.SceneObject(3, world.ITEM, "block", "green", 60.0, 30.0, size=8.0)
    scene = world.Scene(128, 64, (hexagon, disc, block))
    dim = len(world.attribute_vocabulary(scene))
    first, second = eye_weights(dim), eye_weights(dim)
    covered = (hexagon, disc.moved(x=60.0), block)
    steps = [  # (scene, weights, tables built so far)
        (scene, first, 1),
        (world.Scene(128, 64, (hexagon, disc.moved(x=100.0), block)), first, 1),
        (world.Scene(128, 64, covered), first, 2),
        (world.Scene(128, 64, (hexagon.moved(y=20.0), *covered[1:])), first, 2),
        (world.Scene(128, 64, (hexagon.moved(y=20.0), *covered[1:])), second, 3),
        (scene, second, 4),
    ]
    words = ("red", "blue", "green", "gorp")
    want = [[EmbeddingBackend(weights=w).ground(s, prop(word)).values.tobytes() for word in words]
            for s, w, _ in steps]
    builds = count_calls(monkeypatch, backends, "project")
    backend = EmbeddingBackend()
    for (current, weights, built), maps in zip(steps, want):
        backend.weights = weights
        assert [backend.ground(current, prop(word)).values.tobytes() for word in words] == maps
        assert len(builds) == built


def test_failed_build_raises_on_every_call_between_reused_tables(tmp_path):
    """Weights that overflow on the red disc's row: the scene that shows the
    disc fails every call, before and after scenes that hide it under the
    block, which reuse one table."""
    scene = covered_scene()
    vocab = world.attribute_vocabulary(scene)
    cv = np.eye(len(vocab))
    cv[:, [vocab.index("disc"), vocab.index("hidden")]] = 1.7e308
    write_weights(tmp_path / "w.txt", cv, np.eye(len(vocab)))
    backend = make_backend("embedding", weights_path=tmp_path / "w.txt")
    disc, *others = scene.objects
    shown = world.Scene(128, 64, (disc.moved(x=10.0), *others))
    hidden_again = world.Scene(128, 64, (disc.moved(x=31.0), *others))
    for current, fails in ((scene, False), (shown, True), (shown, True),
                           (hidden_again, False), (shown, True)):
        for word in (*vocab, "gorp"):
            got = outcome(lambda: backend.ground(current, prop(word)))
            assert got == one_hot_outcome(current, word, backend.weights), word
            assert isinstance(got, str) == fails, word


def test_shape_for_halves_the_scene_unless_set():
    for backend_type in (OracleBackend, EmbeddingBackend):
        for width, height in ((128, 64), (7, 5), (1, 1)):
            scene = world.Scene(width, height, ())
            assert backend_type().shape_for(scene) == (max(1, height // 2), max(1, width // 2))
            assert backend_type((3, 9)).shape_for(scene) == (3, 9)


def test_bad_weights_raise_on_every_ground():
    scene = scene_one_hexagon()
    dim = len(world.attribute_vocabulary(scene))
    narrow = EmbeddingBackend(weights=ProjectionWeights(np.eye(2), np.eye(2)))
    short = EmbeddingBackend(weights=ProjectionWeights(np.ones((2, dim)), np.eye(2)))
    for backend, message in ((narrow, f"cv expects dim 2, features have {dim}"),
                             (short, f"embedding dim {dim} != projected dim 2")):
        for _ in range(2):
            with pytest.raises(DimMismatch, match=message):
                backend.ground(scene, prop("blue"))


def test_projection_weights_file_parses_repr_floats_exactly(tmp_path):
    """Each matrix is a "name rows cols" line and then its rows; every entry
    reads back as the float its repr spells, extremes included."""
    path = tmp_path / "weights.txt"
    path.write_text("cv 2 3\n0.1 -2.5e-300 1.7976931348623157e308\n5e-324 -0.0 3\n"
                    "cl 2 2\n1.0 0.30000000000000004\n-1e+16 2.220446049250313e-16\n")
    loaded = load_projection_weights(path)
    assert loaded.cv.tolist() == [[0.1, -2.5e-300, 1.7976931348623157e308], [5e-324, -0.0, 3.0]]
    assert loaded.cl.tolist() == [[1.0, 0.30000000000000004], [-1e16, 2.220446049250313e-16]]
    assert math.copysign(1.0, loaded.cv[1, 1]) == -1.0


def test_backend_factory(tmp_path):
    assert make_backend("oracle", (8, 16)) == OracleBackend((8, 16))
    assert make_backend("embedding").weights is None
    path = tmp_path / "weights.txt"
    path.write_text("cv 2 2\n1 0\n0 1\ncl 2 2\n1 0\n0 1\n")
    loaded = make_backend("embedding", weights_path=path).weights
    assert np.array_equal(loaded.cv, np.eye(2)) and np.array_equal(loaded.cl, np.eye(2))
    with pytest.raises(ValueError, match="embedding backend"):
        make_backend("oracle", weights_path=path)
    with pytest.raises(ValueError):
        make_backend("clip")


def test_write_pgm_bytes(tmp_path):
    """A binary PGM (or, for three channels, PPM) header, then each value in
    [0, 1] times 255, rounded."""
    rng = np.random.default_rng(1)
    for shape, magic in (((9, 13), b"P5"), ((9, 13, 3), b"P6")):
        values = rng.random(shape)
        path = tmp_path / "map.pnm"
        write_pnm(path, values)
        data = np.rint(np.clip(values, 0, 1) * 255).astype(np.uint8)
        assert path.read_bytes() == magic + b"\n13 9\n255\n" + data.tobytes()
    for shape in ((13,), (9, 13, 4), (9, 13, 3, 1)):
        with pytest.raises(ValueError):
            write_pnm(path, np.zeros(shape))
