import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tablang import world
from tablang.benchmark import TASK_NAMES, TaskSpec, generate_episode
from tablang.executor import ControlParams, Pose2
from tablang.grounding import axis_coords
from tablang.world import (
    CONTAINER,
    ITEM,
    OutOfBounds,
    Scene,
    apply_pick_place,
    apply_push,
    footprint_mask,
    ground_truth_mask,
    interior_mask,
    load_scene,
    make_object,
    render,
    save_scene,
)


def fixture_scene():
    """One blue hexagon and one brown box, well separated."""
    box = make_object(1, CONTAINER, "box", "brown", 90.0, 32.0, size=10.0)
    hexagon = make_object(2, ITEM, "hexagon", "blue", 30.0, 30.0, size=5.0,
                          extra=("shape",))
    return Scene(128, 64, (box, hexagon), rng_seed=3)


def test_render_empty_scene():
    scene = Scene(32, 16, ())
    out = render(scene)
    assert np.all(out.segmentation == 0)
    assert np.all(out.image[:, :, :3] == world.BACKGROUND)
    assert np.all(out.image[:, :, 3] == 0.0)


def test_disc_segmentation_matches_point_oracle():
    disc = make_object(1, ITEM, "disc", "red", 10.0, 8.0, size=4.0)
    scene = Scene(24, 20, (disc,))
    seg = render(scene).segmentation
    r = 0.9 * 4.0
    for row in range(20):
        for col in range(24):
            inside = (col - 10.0) ** 2 + (row - 8.0) ** 2 <= r * r
            assert (seg[row, col] == 1) == inside


def test_fixture_scene_regions_and_attributes():
    scene = fixture_scene()
    out = render(scene)
    ids = set(np.unique(out.segmentation)) - {0}
    assert ids == {1, 2}
    hex_mask = out.segmentation == 2
    box_mask = out.segmentation == 1
    assert not np.any(hex_mask & box_mask)
    assert np.all(out.image[hex_mask][:, :3] == world.COLORS["blue"])
    assert np.all(out.image[box_mask][:, :3] == world.COLORS["brown"])
    assert "hexagon" in scene.find(2).attributes
    assert "blue" in scene.find(2).attributes


def test_render_deterministic():
    scene = fixture_scene()
    a = render(scene)
    b = render(scene)
    assert np.array_equal(a.image, b.image)
    assert np.array_equal(a.segmentation, b.segmentation)
    assert np.array_equal(a.features.values, b.features.values)


def test_segmentation_image_consistency_random_scenes():
    rng = np.random.default_rng(11)
    shapes = ("hexagon", "star", "disc", "triangle", "square")
    for _ in range(10):
        objs = []
        for oid in range(1, 5):
            shape = shapes[int(rng.integers(len(shapes)))]
            color = list(world.COLORS)[int(rng.integers(len(world.COLORS)))]
            objs.append(make_object(oid, ITEM, shape, color,
                                    float(rng.uniform(12, 116)), float(rng.uniform(12, 52)),
                                    angle=float(rng.uniform(0, 6.28)), size=4.0))
        scene = Scene(128, 64, tuple(objs))
        out = render(scene)
        for oid in range(1, 5):
            mask = out.segmentation == oid
            if mask.any():
                color = world.COLORS[scene.find(oid).color]
                assert np.all(out.image[mask][:, :3] == color)
        assert np.all(out.image[out.segmentation == 0][:, :3] == world.BACKGROUND)


def test_features_match_segmented_attributes():
    scene = fixture_scene()
    out = render(scene)
    gh, gw = scene.grounding_shape()
    assert out.features.values.shape == (gh, gw, len(out.feature_vocab))
    ys = np.arange(gh) * (scene.height - 1) / (gh - 1)
    xs = np.arange(gw) * (scene.width - 1) / (gw - 1)
    seg_g = np.zeros((gh, gw), dtype=int)
    for obj in scene.objects:
        seg_g[footprint_mask(obj, (gh, gw), ys, xs)] = obj.id
    for i in range(gh):
        for j in range(gw):
            expected = np.zeros(len(out.feature_vocab))
            if seg_g[i, j]:
                attrs = scene.find(int(seg_g[i, j])).attributes
                for a in attrs:
                    expected[out.feature_vocab.index(a)] = 1.0
            assert np.array_equal(out.features.values[i, j], expected)


def test_out_of_bounds_raises():
    obj = make_object(1, ITEM, "disc", "red", 1.0, 8.0, size=4.0)
    with pytest.raises(OutOfBounds):
        render(Scene(24, 16, (obj,)))


@pytest.mark.parametrize("x, y", [(-40.0, 8.0), (8.0, 60.0), (23.5, 8.0), (8.0, -0.5)])
def test_centre_outside_workspace_raises(x, y):
    """An object wholly outside the one-pixel ring around the workspace never
    touches the ring, so only the centre test catches it."""
    obj = make_object(1, ITEM, "hexagon", "red", x, y, size=4.0)
    with pytest.raises(OutOfBounds, match="centre outside"):
        render(Scene(24, 16, (obj,)))


def test_ground_truth_mask_predicates():
    scene = fixture_scene()
    hex_mask = ground_truth_mask(scene, {"hexagon"})
    blue_mask = ground_truth_mask(scene, {"blue"})
    assert np.array_equal(hex_mask.values, blue_mask.values)
    assert hex_mask.values.sum() > 0
    assert np.all(ground_truth_mask(scene, {"blue", "box"}).values == 0)
    everything = ground_truth_mask(scene, set())
    each = np.maximum(ground_truth_mask(scene, {"hexagon"}).values,
                      ground_truth_mask(scene, {"box"}).values)
    assert np.array_equal(everything.values, each)


def test_pick_place_moves_item_into_box():
    scene = fixture_scene()
    params = ControlParams(Pose2(30, 30, 0), Pose2(32, 90, 0), "pick_place")
    after, moved = apply_pick_place(scene, params)
    assert moved
    moved_hex = after.find(2)
    inside = interior_mask(after.find(1), (1, 1),
                           np.array([moved_hex.y]), np.array([moved_hex.x]))
    assert inside[0, 0]
    foot = footprint_mask(moved_hex, (after.height, after.width))
    interior = interior_mask(after.find(1), (after.height, after.width))
    assert np.all(~foot | interior)


def test_pick_on_background_is_noop():
    scene = fixture_scene()
    params = ControlParams(Pose2(5, 5, 0), Pose2(32, 90, 0), "pick_place")
    after, moved = apply_pick_place(scene, params)
    assert not moved
    assert after is scene


def test_place_rotation_exact():
    scene = fixture_scene()
    start_angle = scene.find(2).angle
    params = ControlParams(Pose2(30, 30, 0), Pose2(30, 60, 3), "pick_place")
    after, moved = apply_pick_place(scene, params, rotations=12)
    assert moved
    assert after.find(2).angle == pytest.approx(start_angle + 2 * math.pi * 3 / 12)


def test_push_translates_block_on_segment():
    block = make_object(1, ITEM, "block", "red", 40.0, 30.0, size=3.0)
    scene = Scene(128, 64, (block,))
    params = ControlParams(Pose2(30, 40, 0), Pose2(30, 50, 0), "push")
    after, moved = apply_push(scene, params)
    assert moved
    assert after.find(1).x == pytest.approx(50.0)
    assert after.find(1).y == pytest.approx(30.0)


def test_push_outside_corridor_unchanged():
    block = make_object(1, ITEM, "block", "red", 40.0, 50.0, size=3.0)
    scene = Scene(128, 64, (block,))
    params = ControlParams(Pose2(30, 40, 0), Pose2(30, 60, 0), "push")
    after, moved = apply_push(scene, params)
    assert not moved
    assert after.find(1).x == 40.0


def test_push_sweeps_pile_into_zone():
    zone = make_object(9, world.ZONE, "square", "green", 100.0, 32.0, size=14.0)
    blocks = [
        make_object(i, ITEM, "block", "red", 30.0 + 4.5 * i, 30.0 + ((-1) ** i) * 2.0,
                    size=2.0)
        for i in range(1, 6)
    ]
    scene = Scene(128, 64, (zone, *blocks))
    params = ControlParams(Pose2(31, 22, 0), Pose2(32, 100, 0), "push")
    after, moved = apply_push(scene, params)
    assert moved
    zone_after = after.find(9)
    for i in range(1, 6):
        b = after.find(i)
        assert footprint_mask(zone_after, (1, 1), np.array([b.y]), np.array([b.x]))[0, 0]


def test_apply_dispatches_on_primitive_at_call_time(monkeypatch):
    """world.apply reaches the primitives through the module globals, so a
    wrapper installed on them (as the benchmark tracer does) sees the call."""
    calls = []
    real_push, real_pick_place = world.apply_push, world.apply_pick_place

    def push(scene, params):
        calls.append("push")
        return real_push(scene, params)

    def pick_place(scene, params, rotations=12):
        calls.append(("pick_place", rotations))
        return real_pick_place(scene, params, rotations)

    monkeypatch.setattr(world, "apply_push", push)
    monkeypatch.setattr(world, "apply_pick_place", pick_place)
    scene = fixture_scene()
    pushed = ControlParams(Pose2(30, 20, 0), Pose2(30, 60, 0), "push")
    placed = ControlParams(Pose2(30, 30, 0), Pose2(30, 60, 3), "pick_place")
    assert world.apply(scene, pushed) == real_push(scene, pushed)
    assert world.apply(scene, placed, 6) == real_pick_place(scene, placed, 6)
    assert calls == ["push", ("pick_place", 6)]


def test_actions_preserve_object_count_and_walls():
    scene = fixture_scene()
    rng = np.random.default_rng(5)
    current = scene
    for _ in range(20):
        params = ControlParams(
            Pose2(int(rng.integers(64)), int(rng.integers(128)), 0),
            Pose2(int(rng.integers(64)), int(rng.integers(128)), int(rng.integers(12))),
            "pick_place",
        )
        current, _ = apply_pick_place(current, params)
        assert len(current.objects) == len(scene.objects)
        hw = (current.height, current.width)
        box = current.find(1)
        wall = footprint_mask(box, hw) & ~interior_mask(box, hw)
        for obj in current.objects:
            if obj.kind == ITEM:
                assert not np.any(footprint_mask(obj, hw) & wall)


def test_scene_json_round_trip(tmp_path):
    scene = fixture_scene()
    path = tmp_path / "scene.json"
    save_scene(path, scene)
    loaded = load_scene(path)
    assert loaded == scene
    for name in TASK_NAMES:
        for split in ("seen", "unseen"):
            generated = generate_episode(TaskSpec(name, split), 2).scene
            blob = json.dumps(world.scene_to_dict(generated), sort_keys=True)
            assert world.scene_from_dict(json.loads(blob)) == generated


def test_duplicate_ids_rejected():
    a = make_object(1, ITEM, "disc", "red", 20.0, 20.0, size=3.0)
    b = make_object(1, ITEM, "disc", "blue", 40.0, 20.0, size=3.0)
    with pytest.raises(ValueError):
        Scene(64, 48, (a, b))


def reference_point_in_polygon(verts, px, py):
    inside = np.zeros(px.shape, dtype=bool)
    n = len(verts)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n):
            x1, y1 = verts[k]
            x2, y2 = verts[(k + 1) % n]
            crosses = (y1 <= py) != (y2 <= py)
            if y2 != y1:
                xint = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
                inside ^= crosses & (px < xint)
    return inside


def reference_masks(obj, hw, ys=None, xs=None):
    """(footprint, interior) evaluated on the whole lattice, edge by edge:
    the rasterizer as it was before windowing."""
    h, w = hw
    ys = np.arange(h, dtype=np.float64) if ys is None else ys
    xs = np.arange(w, dtype=np.float64) if xs is None else xs
    X = np.asarray(xs, dtype=np.float64)[None, :] - obj.x
    Y = np.asarray(ys, dtype=np.float64)[:, None] - obj.y
    c, s = math.cos(obj.angle), math.sin(obj.angle)
    ux = (X * c + Y * s) / obj.size
    uy = (-X * s + Y * c) / obj.size
    if obj.shape in world._RECTS:
        hx, hy = world._RECTS[obj.shape]
        foot = (np.abs(ux) <= hx) & (np.abs(uy) <= hy)
    elif obj.shape in world._DISCS:
        r = world._DISCS[obj.shape]
        foot = ux * ux + uy * uy <= r * r
    elif obj.shape in world._RINGS:
        ro, ri = world._RINGS[obj.shape]
        rr = ux * ux + uy * uy
        foot = (rr <= ro * ro) & (rr > ri * ri)
    else:
        foot = reference_point_in_polygon(world._POLYGONS[obj.shape], ux, uy)
    if obj.kind != CONTAINER:
        return foot, foot
    inset = world.WALL_PX / obj.size
    if obj.shape == "box":
        hx, hy = world._RECTS["box"]
        return foot, (np.abs(ux) <= hx - inset) & (np.abs(uy) <= hy - inset)
    r = world._DISCS["bowl"] - inset
    return foot, ux * ux + uy * uy <= r * r


LATTICES = ("pixel", "grounding", "padded", "point")


@st.composite
def raster_cases(draw):
    shape = draw(st.sampled_from(world.SHAPE_NAMES))
    kinds = (ITEM, CONTAINER, world.ZONE) if shape in ("box", "bowl") else (ITEM, world.ZONE)
    kind = draw(st.sampled_from(kinds))
    width = draw(st.integers(1, 128))
    height = draw(st.integers(1, 64))
    coord = lambda hi: st.one_of(st.integers(-40, hi + 40).map(float),
                                 st.floats(-40.0, hi + 40.0))
    x, y = draw(coord(width)), draw(coord(height))
    angle = draw(st.one_of(st.just(0.0), st.floats(-2 * math.pi, 2 * math.pi)))
    size = draw(st.floats(0.5, 30.0))
    lattice = draw(st.sampled_from(LATTICES))
    point = (draw(coord(height)), draw(coord(width)))
    return shape, kind, width, height, x, y, angle, size, lattice, point


def lattice_args(lattice, width, height, point):
    if lattice == "pixel":
        return (height, width), None, None
    if lattice == "grounding":
        gh, gw = Scene(width, height, ()).grounding_shape()
        return (gh, gw), axis_coords(gh, height), axis_coords(gw, width)
    if lattice == "padded":
        return ((height + 2, width + 2), np.arange(-1, height + 1, dtype=np.float64),
                np.arange(-1, width + 1, dtype=np.float64))
    return (1, 1), np.array([point[0]]), np.array([point[1]])


@settings(max_examples=300, deadline=None)
@given(raster_cases())
@example(("letter-t", ITEM, 24, 16, 12.0, 8.0, 0.0, 5.0, "pixel", (0.0, 0.0)))
@example(("letter-t", ITEM, 24, 16, 12.0, 8.0, 0.0, 4.0, "padded", (0.0, 0.0)))
@example(("star", ITEM, 24, 16, 12.0, 8.0, 0.0, 4.0, "point", (4.0, 12.0)))
@example(("letter-l", ITEM, 24, 16, 0.0, 0.0, 0.0, 1.0, "point", (0.3999999999999999, -0.5)))
def test_windowed_masks_match_full_lattice(case):
    """The letter-t examples put horizontal edges on lattice rows; the
    letter-l one samples the row where -1.0 + 1.4 rounds to just below the
    vertex at 0.4, so a crossing test on y1 + dy instead of y2 misses the
    edge there."""
    shape, kind, width, height, x, y, angle, size, lattice, point = case
    obj = make_object(1, kind, shape, "red", x, y, angle=angle, size=size)
    hw, ys, xs = lattice_args(lattice, width, height, point)
    foot, interior = reference_masks(obj, hw, ys, xs)
    got_foot = footprint_mask(obj, hw, ys, xs)
    got_interior = interior_mask(obj, hw, ys, xs)
    for got, want in ((got_foot, foot), (got_interior, interior)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def reference_check_bounds(scene):
    """The bounds check as it was before the ring-only test: every object
    rasterized on the whole padded (h + 2, w + 2) lattice."""
    h, w = scene.height, scene.width
    ys = np.arange(-1, h + 1, dtype=np.float64)
    xs = np.arange(-1, w + 1, dtype=np.float64)
    for obj in scene.objects:
        if not (0.0 <= obj.x <= w - 1 and 0.0 <= obj.y <= h - 1):
            raise OutOfBounds(f"object {obj.id} has its centre outside the workspace")
        mask = footprint_mask(obj, (h + 2, w + 2), ys, xs)
        border = np.zeros_like(mask)
        border[0, :] = border[-1, :] = True
        border[:, 0] = border[:, -1] = True
        if np.any(mask & border):
            raise OutOfBounds(f"object {obj.id} exits the workspace")


def outcome(fn, *args):
    """("ok", result) or ("raised", message) of an OutOfBounds call."""
    try:
        return "ok", fn(*args)
    except OutOfBounds as exc:
        return "raised", str(exc)


def near_edge(hi):
    """A coordinate in [0, hi - 1] or within a few pixels of either edge."""
    return st.one_of(st.floats(-2.0, 7.0), st.floats(hi - 8.0, hi + 1.0),
                     st.floats(0.0, float(hi - 1)), st.sampled_from([0.0, float(hi - 1)]))


def anywhere(hi):
    return st.floats(0.0, float(hi - 1))


@st.composite
def scenes(draw, coord=near_edge, max_objects=3, max_width=128, max_height=64, max_size=12.0):
    """Scenes of items, containers or zones of any shape, in any order, with
    centres drawn by coord (by default mostly near an edge or a corner)."""
    width = draw(st.integers(8, max_width))
    height = draw(st.integers(8, max_height))
    objects = []
    for oid in range(1, draw(st.integers(1, max_objects)) + 1):
        shape = draw(st.sampled_from(world.SHAPE_NAMES))
        kinds = (ITEM, CONTAINER, world.ZONE) if shape in ("box", "bowl") else (ITEM, world.ZONE)
        objects.append(make_object(
            oid, draw(st.sampled_from(kinds)), shape, draw(st.sampled_from(sorted(world.COLORS))),
            draw(coord(width)), draw(coord(height)),
            angle=draw(st.floats(-2 * math.pi, 2 * math.pi)), size=draw(st.floats(0.5, max_size))))
    return Scene(width, height, tuple(objects))


@settings(max_examples=400, deadline=None)
@given(scenes())
@example(Scene(24, 16, (make_object(1, CONTAINER, "bowl", "red", 4.0, 4.0, size=4.0),)))
@example(Scene(24, 16, (make_object(1, CONTAINER, "bowl", "red", 3.0, 8.0, size=4.0),)))
@example(Scene(24, 16, (make_object(1, ITEM, "square", "red", 21.2, 13.2, size=4.0),)))
@example(Scene(24, 16, (make_object(1, ITEM, "disc", "red", 12.0, 14.5, size=2.0),)))
def test_ring_check_matches_padded_lattice(scene):
    """check_bounds raises exactly where the padded-lattice check does, with
    the same message. The bowl examples sit with their window edge on the
    ring (x - reach = -1) and their rim on the ring (x = -1); the square
    covers the corner sample (w, h); the disc reaches row y = h by less than
    half a pixel."""
    assert outcome(world.check_bounds, scene) == outcome(reference_check_bounds, scene)


@settings(max_examples=200, deadline=None)
@given(st.one_of(scenes(), scenes(anywhere, 6, 48, 32, 5.0)),
       st.one_of(st.none(), st.tuples(st.integers(1, 40), st.integers(1, 70))))
def test_features_match_render(scene, ground_shape):
    """features gives render's feature map and vocabulary, and raises where
    render raises. The crowded scenes overlap objects of every kind, listed
    in any order, so paint order shows."""
    got = outcome(world.features, scene, ground_shape)
    want = outcome(render, scene, ground_shape)
    assert got[0] == want[0]
    if got[0] == "raised":
        assert got[1] == want[1]
        return
    fmap, vocab = got[1]
    assert vocab == want[1].feature_vocab
    assert fmap.values.dtype == want[1].features.values.dtype
    assert np.array_equal(fmap.values, want[1].features.values)


@settings(max_examples=60, deadline=None)
@given(scenes(max_width=24, max_height=16))
def test_inside_matches_interior_mask(scene):
    """The point test agrees with the interior raster at every integer
    pixel: items and zones by footprint, containers inside their walls."""
    for obj in scene.objects:
        mask = interior_mask(obj, (scene.height, scene.width))
        got = [[world.inside(obj, y, x) for x in range(scene.width)]
               for y in range(scene.height)]
        assert np.array_equal(np.array(got), mask)
