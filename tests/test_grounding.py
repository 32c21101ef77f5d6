import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tablang.grounding import (
    ConceptEmbedding,
    DimMismatch,
    FeatureMap,
    GroundingMap,
    NonFinite,
    ProjectionWeights,
    ground_embedding,
    intersect,
    normalize,
    resample,
    support_box,
    union,
)


def eye_weights(dim):
    """Identity cv and cl over dim features."""
    return ProjectionWeights(np.eye(dim), np.eye(dim))


def gmap(values):
    return GroundingMap(np.asarray(values, dtype=float))


def brute_force_raw(features, cv, cl, emb):
    """Independent per-pixel oracle: explicit loops, no numpy linear algebra."""
    h, w, d1 = features.shape
    d2 = len(emb)
    out = [[0.0] * w for _ in range(h)]
    for i in range(h):
        for j in range(w):
            inner = [sum(cv[k][d] * features[i][j][d] for d in range(d1)) for k in range(d2)]
            proj = [sum(cl[k][m] * inner[m] for m in range(d2)) for k in range(d2)]
            out[i][j] = sum(emb[k] * proj[k] for k in range(d2))
    return np.array(out)


def test_normalize_affine():
    assert np.allclose(normalize([[2.0, 4.0]]).values, [[0.0, 1.0]])


def test_normalize_constant_is_zero():
    assert np.all(normalize(np.full((3, 4), 7.0)).values == 0.0)


def test_normalize_nonfinite():
    # The last grid's scores are finite, but their range overflows.
    for raw in ([[1.0, np.nan]], [[0.0, np.inf]], [[-np.inf, np.inf]], [[np.inf, np.inf]],
                [[-1.5e308, 1.5e308]]):
        with pytest.raises(NonFinite):
            normalize(np.array(raw))


def test_normalize_preserves_order():
    rng = np.random.default_rng(0)
    for _ in range(100):
        raw = rng.normal(size=(5, 7))
        out = normalize(raw).values
        assert out.min() == 0.0 and out.max() == 1.0
        flat_in = raw.ravel()
        flat_out = out.ravel()
        order_in = np.argsort(flat_in, kind="stable")
        order_out = np.argsort(flat_out, kind="stable")
        assert np.array_equal(order_in, order_out)


def test_intersect_identity_and_oracle():
    rng = np.random.default_rng(1)
    b = gmap(rng.random((4, 6)))
    assert np.array_equal(intersect(gmap(np.ones((4, 6))), b).values, b.values)
    a = gmap(rng.random((4, 6)))
    out = intersect(a, b).values
    for i in range(4):
        for j in range(6):
            assert out[i, j] == min(a.values[i, j], b.values[i, j])


def test_union_identity_and_idempotence():
    rng = np.random.default_rng(2)
    b = gmap(rng.random((4, 6)))
    assert np.array_equal(union(gmap(np.zeros((4, 6))), b).values, b.values)
    assert np.array_equal(union(b, b).values, b.values)


def test_mask_algebra_properties():
    rng = np.random.default_rng(3)
    for _ in range(300):
        shape = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        a, b, c = (gmap(rng.random(shape)) for _ in range(3))
        assert np.array_equal(intersect(a, b).values, intersect(b, a).values)
        assert np.array_equal(union(a, b).values, union(b, a).values)
        assert np.array_equal(intersect(intersect(a, b), c).values,
                              intersect(a, intersect(b, c)).values)
        assert np.array_equal(union(union(a, b), c).values,
                              union(a, union(b, c)).values)
        assert np.array_equal(intersect(a, a).values, a.values)
        assert np.all(intersect(a, b).values <= a.values)
        assert np.all(intersect(a, b).values <= b.values)
        assert np.all(union(a, b).values >= a.values)
        assert np.all(union(a, b).values >= b.values)


def test_dim_mismatch():
    with pytest.raises(DimMismatch):
        intersect(gmap(np.zeros((2, 2))), gmap(np.zeros((2, 3))))


def test_resample_constant():
    m = gmap(np.full((3, 5), 0.4))
    out = resample(m, 7, 2)
    assert np.allclose(out.values, 0.4)


def test_resample_corner_aligned_example():
    out = resample(gmap([[0.0, 1.0]]), 1, 4)
    assert np.allclose(out.values, [[0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]])


def test_resample_identity():
    rng = np.random.default_rng(4)
    m = gmap(rng.random((5, 9)))
    assert np.allclose(resample(m, 5, 9).values, m.values)


def test_resample_preserves_corners():
    rng = np.random.default_rng(5)
    for _ in range(50):
        h, w = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        m = gmap(rng.random((h, w)))
        nh, nw = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        out = resample(m, nh, nw)
        src = m.values
        assert math.isclose(out.values[0, 0], src[0, 0])
        assert math.isclose(out.values[0, -1], src[0, -1])
        assert math.isclose(out.values[-1, 0], src[-1, 0])
        assert math.isclose(out.values[-1, -1], src[-1, -1])


def test_ground_embedding_identity_one_hot():
    features = FeatureMap(np.array([[[1.0, 0.0]], [[0.0, 1.0]]]))
    weights = eye_weights(2)
    out = ground_embedding(features, ConceptEmbedding(np.array([1.0, 0.0])), weights)
    assert np.allclose(out.values, [[1.0], [0.0]])


def test_ground_embedding_zero_embedding():
    features = FeatureMap(np.random.default_rng(0).random((3, 3, 4)))
    weights = eye_weights(4)
    out = ground_embedding(features, ConceptEmbedding(np.zeros(4)), weights)
    assert np.all(out.values == 0.0)


def test_ground_embedding_matches_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(100):
        h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        d1, d2 = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        feats = rng.normal(size=(h, w, d1))
        cv = rng.normal(size=(d2, d1))
        cl = rng.normal(size=(d2, d2))
        emb = rng.normal(size=d2)
        weights = ProjectionWeights(cv, cl)
        raw = brute_force_raw(feats, cv, cl, emb)
        got = ground_embedding(FeatureMap(feats), ConceptEmbedding(emb), weights)
        assert np.allclose(got.values, normalize(raw).values, rtol=1e-12, atol=1e-12)


def test_ground_embedding_dim_mismatch():
    features = FeatureMap(np.zeros((2, 2, 3)))
    with pytest.raises(DimMismatch):
        ground_embedding(features, ConceptEmbedding(np.zeros(2)), eye_weights(4))
    with pytest.raises(DimMismatch):
        ground_embedding(features, ConceptEmbedding(np.zeros(4)),
                         ProjectionWeights(np.zeros((3, 3)), np.zeros((3, 3))))


def test_grounding_map_validation():
    """The algebra builds its results unchecked; data from outside still goes
    through every check."""
    for bad in ([[1.5]], [[1.1, 0.5]], [[-0.1, 0.5]]):
        with pytest.raises(ValueError):
            GroundingMap(np.array(bad))
    for bad in ([[np.inf]], [[0.5, np.nan]]):
        with pytest.raises(NonFinite):
            GroundingMap(np.array(bad))
    for bad in (np.zeros((0, 3)), np.array([0.5, 0.5])):
        with pytest.raises(DimMismatch):
            GroundingMap(bad)


def test_grounding_map_is_readonly():
    m = gmap(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        m.values[0, 0] = 1.0


def four_gather_resample(src, new_height, new_width):
    """Bilinear resampling as four gathered corners per sample, the
    formulation the one-pass-per-axis resample replaced."""
    h, w = src.shape
    ys = np.arange(new_height) * (h - 1) / (new_height - 1) if new_height > 1 else np.zeros(1)
    xs = np.arange(new_width) * (w - 1) / (new_width - 1) if new_width > 1 else np.zeros(1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    top = src[y0][:, x0] * (1 - fx) + src[y0][:, x1] * fx
    bot = src[y1][:, x0] * (1 - fx) + src[y1][:, x1] * fx
    return np.clip(top * (1 - fy) + bot * fy, 0.0, 1.0)


def test_resample_matches_four_gathers():
    rng = np.random.default_rng(7)
    sides = [1, 2, 3, 70] + [int(n) for n in rng.integers(1, 71, size=60)]
    for _ in range(300):
        h, w, nh, nw = rng.choice(sides, size=4)
        src = rng.random((h, w))
        src[rng.random((h, w)) < 0.3] = 0.0
        got = resample(gmap(src), nh, nw).values
        assert np.array_equal(got, four_gather_resample(src, nh, nw)), (h, w, nh, nw)


def assert_resamples_exactly(src, nh, nw):
    """resample equals the four-gather formula on every cell, and every
    zero it returns is +0.0."""
    got = resample(gmap(src), nh, nw).values
    assert np.array_equal(got, four_gather_resample(src, nh, nw)), (src.shape, nh, nw)
    assert not np.signbit(got).any(), (src.shape, nh, nw)


@pytest.mark.parametrize("border", [None, "top", "bottom", "left", "right"])
def test_resample_of_a_sub_box_support_matches_four_gathers(border):
    """Sources nonzero only on a random sub-box (touching the named border,
    or none in particular), 1-row and 1-column ones included, each up- and
    downsampled and resampled to 1-row, 1-column and random targets."""
    rng = np.random.default_rng(["top", "bottom", "left", "right", None].index(border))
    for _ in range(60):
        h, w = (int(n) for n in rng.choice([1, 2, 3, 17, 32, 45], size=2))
        r0, c0 = int(rng.integers(0, h)), int(rng.integers(0, w))
        r1, c1 = int(rng.integers(r0, h)) + 1, int(rng.integers(c0, w)) + 1
        r0, r1 = {"top": (0, r1), "bottom": (r0, h)}.get(border, (r0, r1))
        c0, c1 = {"left": (0, c1), "right": (c0, w)}.get(border, (c0, c1))
        src = np.zeros((h, w))
        src[r0:r1, c0:c1] = rng.random((r1 - r0, c1 - c0))
        src[rng.random((h, w)) < 0.3] = 0.0
        targets = [(2 * h, 2 * w), (max(1, h // 3), max(1, w // 3)), (1, 2 * w),
                   (2 * h, 1), (1, 1), tuple(int(n) for n in rng.integers(1, 90, size=2))]
        for nh, nw in targets:
            assert_resamples_exactly(src, nh, nw)


def test_resample_of_a_single_nonzero_cell_matches_four_gathers():
    for h, w in ((1, 1), (1, 6), (6, 1), (5, 7)):
        for r in range(h):
            for c in range(w):
                src = np.zeros((h, w))
                src[r, c] = 0.75
                for nh, nw in ((1, 1), (1, 9), (9, 1), (3, 4), (13, 17), (64, 128)):
                    assert_resamples_exactly(src, nh, nw)


def test_resample_of_an_all_zero_map_is_positive_zero():
    for h, w in ((1, 1), (1, 5), (5, 1), (32, 64)):
        for nh, nw in ((1, 1), (1, 7), (7, 1), (64, 128), (3, 2)):
            assert_resamples_exactly(np.zeros((h, w)), nh, nw)
            assert np.array_equal(resample(gmap(np.zeros((h, w))), nh, nw).values,
                                  np.zeros((nh, nw)))


@st.composite
def support_maps(draw):
    """A float map, or its != 0 bool map: all zero, one nonzero cell, set
    border rows or columns, or random entries; zeros may be -0.0."""
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    out = np.zeros((h, w))
    kind = draw(st.sampled_from(["zero", "cell", "border", "random"]))
    if kind == "cell":
        out[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = draw(
            st.sampled_from([5e-324, 0.5, 1.0]))
    elif kind == "border":
        edges = {"top": np.s_[0, :], "bottom": np.s_[-1, :], "left": np.s_[:, 0],
                 "right": np.s_[:, -1]}
        for edge in draw(st.sets(st.sampled_from(sorted(edges)), min_size=1)):
            out[edges[edge]] = 0.25
    elif kind == "random":
        out = draw(arrays(np.float64, (h, w), elements=st.sampled_from([0.0, 0.0, 0.75, 1.0])))
    negative = draw(arrays(np.bool_, (h, w)))
    out[negative & (out == 0.0)] = -0.0
    return out != 0.0 if draw(st.booleans()) else out


@settings(max_examples=300, deadline=None)
@given(support_maps())
def test_support_box_is_the_extent_of_np_nonzero(values):
    """The first and last row, then column, of np.nonzero's cells as Python
    ints, and None exactly when no entry is nonzero (-0.0 is zero)."""
    box = support_box(values)
    rows, cols = np.nonzero(values)
    if not len(rows):
        assert box is None
        return
    assert box == (rows.min(), rows.max(), cols.min(), cols.max())
    assert all(type(end) is int for end in box)
