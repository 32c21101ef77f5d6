import contextlib
import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tablang import world
from tablang.benchmark import TASK_NAMES, TaskSpec, generate_episode
from tablang.executor import ControlParams, Pose2
from tablang.grounding import axis_coords
from reference_paint import reference_features, reference_paint
from tablang.world import (
    CONTAINER,
    ITEM,
    OutOfBounds,
    Scene,
    SceneObject,
    apply_pick_place,
    apply_push,
    footprint_mask,
    interior_mask,
    load_scene,
    render,
    save_scene,
)


def pixel_axes(h, w):
    """The (ys, xs) sample axes of the integer pixel lattice of an h x w scene."""
    return axis_coords(h, h), axis_coords(w, w)


def fixture_scene():
    """One blue hexagon and one brown box, well separated."""
    box = SceneObject(1, CONTAINER, "box", "brown", 90.0, 32.0, size=10.0)
    hexagon = SceneObject(2, ITEM, "hexagon", "blue", 30.0, 30.0, size=5.0,
                          attributes=("shape",))
    return Scene(128, 64, (box, hexagon), rng_seed=3)


def test_render_empty_scene():
    scene = Scene(32, 16, ())
    out = render(scene)
    assert np.all(out.segmentation == 0)
    assert np.all(out.image[:, :, :3] == world.BACKGROUND)
    assert np.all(out.image[:, :, 3] == 0.0)


def test_disc_segmentation_matches_point_oracle():
    disc = SceneObject(1, ITEM, "disc", "red", 10.0, 8.0, size=4.0)
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


def test_segmentation_image_consistency_random_scenes():
    rng = np.random.default_rng(11)
    shapes = ("hexagon", "star", "disc", "triangle", "square")
    for _ in range(10):
        objs = []
        for oid in range(1, 5):
            shape = shapes[int(rng.integers(len(shapes)))]
            color = list(world.COLORS)[int(rng.integers(len(world.COLORS)))]
            objs.append(SceneObject(oid, ITEM, shape, color,
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
    gh, gw = scene.height // 2, scene.width // 2
    feats, vocab = reference_features(scene, (gh, gw))
    assert feats.shape == (gh, gw, len(vocab))
    ys = np.arange(gh) * (scene.height - 1) / (gh - 1)
    xs = np.arange(gw) * (scene.width - 1) / (gw - 1)
    seg_g = np.zeros((gh, gw), dtype=int)
    for obj in scene.objects:
        seg_g[footprint_mask(obj, ys, xs)] = obj.id
    for i in range(gh):
        for j in range(gw):
            expected = np.zeros(len(vocab))
            if seg_g[i, j]:
                attrs = scene.find(int(seg_g[i, j])).attributes
                for a in attrs:
                    expected[vocab.index(a)] = 1.0
            assert np.array_equal(feats[i, j], expected)


def half_features(scene):
    return reference_features(scene, (scene.height // 2, scene.width // 2))


def test_out_of_bounds_raises():
    obj = SceneObject(1, ITEM, "disc", "red", 1.0, 8.0, size=4.0)
    for paint in (render, half_features):
        with pytest.raises(OutOfBounds):
            paint(Scene(24, 16, (obj,)))


@pytest.mark.parametrize("x, y", [(-40.0, 8.0), (8.0, 60.0), (23.5, 8.0), (8.0, -0.5)])
def test_centre_outside_workspace_raises(x, y):
    """An object wholly outside the one-pixel ring around the workspace never
    touches the ring, so only the centre test catches it."""
    obj = SceneObject(1, ITEM, "hexagon", "red", x, y, size=4.0)
    for paint in (render, half_features):
        with pytest.raises(OutOfBounds, match="centre outside"):
            paint(Scene(24, 16, (obj,)))


def test_pick_place_moves_item_into_box():
    scene = fixture_scene()
    params = ControlParams(Pose2(30, 30, 0), Pose2(32, 90, 0), "pick_place")
    after, moved = apply_pick_place(scene, params)
    assert moved
    moved_hex = after.find(2)
    inside = interior_mask(after.find(1), np.array([moved_hex.y]), np.array([moved_hex.x]))
    assert inside[0, 0]
    foot = footprint_mask(moved_hex, *pixel_axes(after.height, after.width))
    interior = interior_mask(after.find(1), *pixel_axes(after.height, after.width))
    assert np.all(~foot | interior)


@pytest.mark.parametrize("angle, place, side", [
    (0.0, Pose2(32, 78), 0), (0.0, Pose2(43, 64), 1), (math.pi / 6, Pose2(39, 77), 0),
])
def test_pick_place_by_a_box_wall_pushes_the_item_out(angle, place, side):
    """A block placed with its centre outside a box wall but within its
    circumradius ri of it is pushed out along that wall's normal, in the
    box's own frame: to hx + ri (side 0) or hy + ri (side 1) from the box
    centre, its other frame coordinate kept. It then covers no box pixel."""
    box = SceneObject(1, CONTAINER, "box", "brown", 64.0, 32.0, angle=angle, size=10.0)
    block = SceneObject(2, ITEM, "block", "red", 20.0, 20.0, size=3.4)
    after, moved = apply_pick_place(Scene(128, 64, (box, block)),
                                    ControlParams(Pose2(20, 20), place, "pick_place"))
    assert moved
    placed = after.find(2)

    def frame(x, y):
        c, s = math.cos(angle), math.sin(angle)
        return [(x - 64.0) * c + (y - 32.0) * s, -(x - 64.0) * s + (y - 32.0) * c]

    want = frame(float(place.v), float(place.u))
    assert abs(want[side]) < (13.0, 10.0)[side] + block.circumradius
    want[side] = (13.0, 10.0)[side] + block.circumradius
    assert np.allclose(frame(placed.x, placed.y), want, rtol=0, atol=1e-9)
    axes = pixel_axes(64, 128)
    on_box = footprint_mask(placed, *axes) & footprint_mask(box, *axes)
    assert not on_box.any()
    if angle == 0.0 and side == 0:
        assert round(placed.x, 2) == 80.46 and placed.y == 32.0


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
    block = SceneObject(1, ITEM, "block", "red", 40.0, 30.0, size=3.0)
    scene = Scene(128, 64, (block,))
    params = ControlParams(Pose2(30, 40, 0), Pose2(30, 50, 0), "push")
    after, moved = apply_push(scene, params)
    assert moved
    assert after.find(1).x == pytest.approx(50.0)
    assert after.find(1).y == pytest.approx(30.0)


def test_push_outside_corridor_unchanged():
    block = SceneObject(1, ITEM, "block", "red", 40.0, 50.0, size=3.0)
    scene = Scene(128, 64, (block,))
    params = ControlParams(Pose2(30, 40, 0), Pose2(30, 60, 0), "push")
    after, moved = apply_push(scene, params)
    assert not moved
    assert after.find(1).x == 40.0


def test_push_sweeps_pile_into_zone():
    zone = SceneObject(9, world.ZONE, "square", "green", 100.0, 32.0, size=14.0)
    blocks = [
        SceneObject(i, ITEM, "block", "red", 30.0 + 4.5 * i, 30.0 + ((-1) ** i) * 2.0,
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
        assert footprint_mask(zone_after, np.array([b.y]), np.array([b.x]))[0, 0]


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


def test_apply_pick_place_refuses_a_push():
    """apply_pick_place runs only the primitive world.PICK_PLACE names."""
    pushed = ControlParams(Pose2(30, 30, 0), Pose2(32, 90, 0), world.PUSH)
    with pytest.raises(ValueError, match="apply_pick_place needs a pick_place primitive"):
        apply_pick_place(fixture_scene(), pushed)


def test_apply_push_refuses_a_pick_place():
    """apply_push runs only the primitive world.PUSH names."""
    placed = ControlParams(Pose2(30, 20, 0), Pose2(30, 60, 0), world.PICK_PLACE)
    with pytest.raises(ValueError, match="apply_push needs a push primitive"):
        apply_push(fixture_scene(), placed)


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
        axes = pixel_axes(current.height, current.width)
        box = current.find(1)
        wall = footprint_mask(box, *axes) & ~interior_mask(box, *axes)
        for obj in current.objects:
            if obj.kind == ITEM:
                assert not np.any(footprint_mask(obj, *axes) & wall)


def wall_overlaps(scene):
    """(item id, container id) of every item whose footprint shares a
    pixel with a container's wall."""
    axes = pixel_axes(scene.height, scene.width)
    walls = [(c.id, footprint_mask(c, *axes) & ~interior_mask(c, *axes))
             for c in scene.objects if c.kind == CONTAINER]
    return [(o.id, cid) for o in scene.objects if o.kind == ITEM
            for cid, wall in walls if np.any(footprint_mask(o, *axes) & wall)]


def test_push_into_gap_between_bowls_keeps_pre_action_pose():
    """Block 4 is pushed into a gap narrower than itself between bowls 2
    and 3: each bowl's clamp pushes it onto the other's wall, so it never
    comes to rest and keeps its pose."""
    scene = generate_episode(TaskSpec("put_blocks_in_bowls", "unseen"), 136).scene
    after, _ = world.apply(scene, ControlParams(Pose2(27, 94), Pose2(21, 70), "push"))
    assert after.find(4) == scene.find(4)
    assert wall_overlaps(after) == []


def test_place_beside_bowl_at_workspace_edge_stays_in_bounds():
    """A bowl by the left edge pushes a placed hexagon out past the edge,
    and the workspace clamp pushes it back onto the bowl: clamped together,
    it ends in bounds and clear of the wall."""
    bowl = SceneObject(1, CONTAINER, "bowl", "blue", 7.0, 7.0, size=6.0)
    hexagon = SceneObject(2, ITEM, "hexagon", "red", 60.0, 30.0, size=5.0)
    scene = Scene(128, 64, (bowl, hexagon))
    after, moved = world.apply(scene, ControlParams(Pose2(30, 60), Pose2(13, 5), "pick_place"))
    assert moved
    world.check_bounds(after)
    assert wall_overlaps(after) == []


@pytest.mark.parametrize("task, split, seed, pick, place, primitive", [
    ("packing_shapes", "seen", 1, Pose2(18, 74), Pose2(56, 61, 10), "push"),
    ("packing_location_box", "unseen", 2, Pose2(28, 46), Pose2(36, 6, 5), "pick_place"),
])
def test_action_with_no_item_at_rest_returns_the_same_scene(task, split, seed, pick, place,
                                                             primitive):
    """Every item these actions move fails to come to rest and keeps its
    pre-action pose, so world.apply gives back the same scene and False.
    Both were found by a seeded search of random actions on generated
    scenes (numpy default_rng(0), 6,480 actions, 28 such)."""
    scene = generate_episode(TaskSpec(task, split), seed).scene
    with settle_log() as fell_back:
        after, moved = world.apply(scene, ControlParams(pick, place, primitive))
    assert fell_back and all(fell_back)
    assert after is scene and moved is False


@st.composite
def objects_and_poses(draw):
    """A valid object and a new pose: a dict of some of x, y and angle."""
    shape = draw(st.sampled_from(world.SHAPE_NAMES))
    kinds = (ITEM, CONTAINER, world.ZONE) if shape in ("box", "bowl") else (ITEM, world.ZONE)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    obj = SceneObject(draw(st.integers(1, world.MAX_ID)), draw(st.sampled_from(kinds)), shape,
                      draw(st.sampled_from(sorted(world.COLORS))), draw(finite), draw(finite),
                      angle=draw(finite), size=draw(st.floats(0.5, 12.0)),
                      attributes=tuple(draw(st.lists(st.sampled_from(["daxy", "shape", "red"])))))
    return obj, draw(st.dictionaries(st.sampled_from(["x", "y", "angle"]), finite))


@settings(max_examples=300, deadline=None)
@given(objects_and_poses(), st.booleans(), st.sampled_from([math.nan, math.inf, -math.inf]))
def test_moved_is_replace_without_the_memo(case, fill, bad):
    """SceneObject.moved equals dataclasses.replace by == and by asdict,
    starts an empty mask memo even when the original's is filled, and
    raises ValueError on any non-finite value."""
    obj, pose = case
    if fill:
        obj.mask((16, 16))
    got, want = obj.moved(**pose), dataclasses.replace(obj, **pose)
    assert type(got) is SceneObject
    assert got == want and hash(got) == hash(want)
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    assert got._masks == {}
    assert bool(obj._masks) is fill
    for key in ("x", "y", "angle"):
        with pytest.raises(ValueError, match="must be finite"):
            obj.moved(**{**pose, key: bad})


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TASK_NAMES), st.sampled_from(["seen", "unseen"]), st.integers(0, 200))
def test_actions_build_the_scene_a_checked_scene_would(name, split, seed):
    """Scene.with_objects, which builds every scene apply_pick_place and
    apply_push return, equals the checked Scene(...) of the same fields by
    ==, hash and asdict: for reordered objects, and along a generated
    episode's expert actions."""
    episode = generate_episode(TaskSpec(name, split), seed)
    scene, flipped = episode.scene, episode.scene.objects[::-1]
    assert scene.with_objects(flipped) == Scene(scene.width, scene.height, flipped, scene.rng_seed)
    for params in episode.expert:
        after, moved = world.apply(scene, params)
        checked = Scene(after.width, after.height, after.objects, after.rng_seed)
        assert type(after) is Scene and type(after.objects) is tuple
        assert after == checked and hash(after) == hash(checked)
        assert dataclasses.asdict(after) == dataclasses.asdict(checked)
        assert (after.width, after.height, after.rng_seed) == (scene.width, scene.height,
                                                               scene.rng_seed)
        assert moved is (after is not scene)
        scene = after


def reference_push(scene, params):
    """apply_push with no corridor box: the t/s test runs on every item."""
    pre = np.array([float(params.pick.v), float(params.pick.u)])
    post = np.array([float(params.place.v), float(params.place.u)])
    vec = post - pre
    length = float(np.hypot(*vec))
    if length < 1e-9:
        return scene, False
    direction = vec / length
    perp = np.array([-direction[1], direction[0]])
    objects = list(scene.objects)
    for i, obj in enumerate(objects):
        if obj.kind == ITEM:
            rel = np.array([obj.x, obj.y]) - pre
            t, s = float(rel @ direction), float(rel @ perp)
            if 0.0 <= t <= length and abs(s) <= world.PUSH_HALF_WIDTH:
                dest = post + perp * s
                moved = dataclasses.replace(obj, x=float(dest[0]), y=float(dest[1]))
                objects[i] = world._settle(scene, moved, obj)
    if all(a is b for a, b in zip(objects, scene.objects)):
        return scene, False
    return dataclasses.replace(scene, objects=tuple(objects)), True


@st.composite
def corridor_cases(draw):
    """A random or generated scene, a push between float points (some just
    over 1e-9 apart, some along an axis), and items added at the corridor's
    ends and edges: t = 0 or length with s = 0 or +-PUSH_HALF_WIDTH, and
    mid-corridor at |s| = PUSH_HALF_WIDTH."""
    scene = draw(st.one_of(scenes(coord=central, max_objects=6), st.builds(
        lambda name, split, seed: generate_episode(TaskSpec(name, split), seed).scene,
        st.sampled_from(TASK_NAMES), st.sampled_from(["seen", "unseen"]), st.integers(0, 200))))
    h, w = scene.height, scene.width
    x0, y0 = draw(st.floats(0.0, w - 1.0)), draw(st.floats(0.0, h - 1.0))
    angle = draw(st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2]),
                           st.floats(-math.pi, math.pi)))
    length = draw(st.one_of(st.floats(1e-9, 2e-9, exclude_min=True), st.floats(0.0, 150.0)))
    c, s = math.cos(angle), math.sin(angle)
    if angle in (0.0, math.pi / 2, math.pi, -math.pi / 2):
        c, s = round(c), round(s)
    half = world.PUSH_HALF_WIDTH
    spots = [(t, lateral) for t in (0.0, length / 2, length) for lateral in (0.0, half, -half)]
    added = [SceneObject(1000 + k, ITEM, "block", "red", x0 + t * c - lateral * s,
                         y0 + t * s + lateral * c, size=draw(st.floats(0.5, 3.0)))
             for k, (t, lateral) in enumerate(spots) if draw(st.booleans())]
    params = ControlParams(Pose2(y0, x0), Pose2(y0 + length * s, x0 + length * c), "push")
    return Scene(w, h, scene.objects + tuple(added)), params


@settings(max_examples=300, deadline=None)
@given(corridor_cases())
@example((Scene(128, 64, tuple(
    SceneObject(i, ITEM, "block", "red", x, y, size=2.0) for i, (x, y) in enumerate(
        [(40.0, 30.0), (60.0, 30.0), (40.0, 36.0), (60.0, 24.0), (50.0, 36.0),
         (39.999, 30.0), (60.001, 30.0), (50.0, 36.001)], 1))),
    ControlParams(Pose2(30.0, 40.0), Pose2(30.0, 60.0), "push")))
def test_push_corridor_box_skips_only_items_outside_the_corridor(case):
    """apply_push equals a push that runs the t/s test on every item, with
    items at the corridor's ends and edges, and pushes just over 1e-9 long.
    The example has items exactly at t = 0, t = length and |s| =
    PUSH_HALF_WIDTH, and just beyond each."""
    scene, params = case
    after, moved = apply_push(scene, params)
    want_after, want_moved = reference_push(scene, params)
    assert after == want_after and moved is want_moved
    assert (after is scene) is (want_after is scene)


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
            assert world.scene_from_dict(world.scene_to_dict(generated)) == generated
    # an absent angle or size takes SceneObject's default
    bare = {"width": 24, "height": 16, "objects": [
        {"id": 1, "kind": ITEM, "shape": "disc", "color": "red", "x": 8, "y": 9}]}
    assert world.scene_from_dict(bare).objects == (SceneObject(1, ITEM, "disc", "red", 8.0, 9.0),)


def test_duplicate_ids_rejected():
    a = SceneObject(1, ITEM, "disc", "red", 20.0, 20.0, size=3.0)
    b = SceneObject(1, ITEM, "disc", "blue", 40.0, 20.0, size=3.0)
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


def reference_masks(obj, ys, xs):
    """(footprint, interior) evaluated on the whole lattice, edge by edge:
    the rasterizer as it was before windowing."""
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
    return foot, (ux * ux + uy * uy <= r * r) & (r >= 0.0)


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
        return pixel_axes(height, width)
    if lattice == "grounding":
        gh, gw = max(1, height // 2), max(1, width // 2)
        return axis_coords(gh, height), axis_coords(gw, width)
    if lattice == "padded":
        return (np.arange(-1, height + 1, dtype=np.float64),
                np.arange(-1, width + 1, dtype=np.float64))
    return np.array([point[0]]), np.array([point[1]])


@settings(max_examples=300, deadline=None)
@given(raster_cases())
@example(("letter-t", ITEM, 24, 16, 12.0, 8.0, 0.0, 5.0, "pixel", (0.0, 0.0)))
@example(("letter-t", ITEM, 24, 16, 12.0, 8.0, 0.0, 4.0, "padded", (0.0, 0.0)))
@example(("star", ITEM, 24, 16, 12.0, 8.0, 0.0, 4.0, "point", (4.0, 12.0)))
@example(("letter-l", ITEM, 24, 16, 0.0, 0.0, 0.0, 1.0, "point", (0.3999999999999999, -0.5)))
@example(("bowl", CONTAINER, 1, 3, 0.0, 0.5, 0.0, 0.5, "pixel", (0.0, 0.0)))
def test_windowed_masks_match_full_lattice(case):
    """The letter-t examples put horizontal edges on lattice rows; the
    letter-l one samples the row where -1.0 + 1.4 rounds to just below the
    vertex at 0.4, so a crossing test on y1 + dy instead of y2 misses the
    edge there. The bowl one has walls thicker than its radius, so its
    interior is empty, not a disc of the negative inner radius."""
    shape, kind, width, height, x, y, angle, size, lattice, point = case
    obj = SceneObject(1, kind, shape, "red", x, y, angle=angle, size=size)
    ys, xs = lattice_args(lattice, width, height, point)
    foot, interior = reference_masks(obj, ys, xs)
    got_foot = footprint_mask(obj, ys, xs)
    got_interior = interior_mask(obj, ys, xs)
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
        mask = footprint_mask(obj, ys, xs)
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


def central(hi):
    """A coordinate in the middle 30% of [0, hi - 1], so objects crowd."""
    return st.floats(0.35 * (hi - 1), 0.65 * (hi - 1))


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
        objects.append(SceneObject(
            oid, draw(st.sampled_from(kinds)), shape, draw(st.sampled_from(sorted(world.COLORS))),
            draw(coord(width)), draw(coord(height)),
            angle=draw(st.floats(-2 * math.pi, 2 * math.pi)), size=draw(st.floats(0.5, max_size))))
    return Scene(width, height, tuple(objects))


@settings(max_examples=400, deadline=None)
@given(scenes())
@example(Scene(24, 16, (SceneObject(1, CONTAINER, "bowl", "red", 4.0, 4.0, size=4.0),)))
@example(Scene(24, 16, (SceneObject(1, CONTAINER, "bowl", "red", 3.0, 8.0, size=4.0),)))
@example(Scene(24, 16, (SceneObject(1, ITEM, "square", "red", 21.2, 13.2, size=4.0),)))
@example(Scene(24, 16, (SceneObject(1, ITEM, "disc", "red", 12.0, 14.5, size=2.0),)))
def test_ring_check_matches_padded_lattice(scene):
    """check_bounds raises exactly where the padded-lattice check does, with
    the same message. The bowl examples sit with their window edge on the
    ring (x - reach = -1) and their rim on the ring (x = -1); the square
    covers the corner sample (w, h); the disc reaches row y = h by less than
    half a pixel."""
    assert outcome(world.check_bounds, scene) == outcome(reference_check_bounds, scene)


@settings(max_examples=200, deadline=None)
@given(st.one_of(scenes(), scenes(central, 6, 48, 32, 4.0)))
def test_features_match_render(scene):
    """On the pixel lattice, the reference painter's features hold at each
    pixel the attributes of the object render's segmentation shows there,
    and it raises where render raises. The crowded scenes overlap objects of
    every kind, listed in any order, so paint order shows."""
    got = outcome(reference_features, scene, (scene.height, scene.width))
    want = outcome(render, scene)
    assert got[0] == want[0]
    if got[0] == "raised":
        assert got[1] == want[1]
        return
    feats, vocab = got[1]
    assert vocab == world.attribute_vocabulary(scene)
    expected = np.zeros((scene.height, scene.width, max(1, len(vocab))))
    for obj in scene.objects:
        shown = want[1].segmentation == obj.id
        for attr in obj.attributes:
            expected[shown, vocab.index(attr)] = 1.0
    assert np.array_equal(feats, expected)


@settings(max_examples=200, deadline=None)
@given(st.one_of(scenes(), scenes(central, 6, 48, 32, 4.0)), st.booleans())
def test_paint_matches_reference_painter(scene, half):
    """world.paint gives the reference painter's order and ids, on the pixel
    lattice and on the half lattice, and raises the same OutOfBounds."""
    lattice = (max(1, scene.height // 2), max(1, scene.width // 2)) if half else None
    got = outcome(world.paint, scene, lattice)
    want = outcome(reference_paint, scene, lattice or (scene.height, scene.width))
    assert got[0] == want[0]
    if got[0] == "raised":
        assert got[1] == want[1]
        return
    assert got[1][0] == want[1][0]
    assert np.array_equal(got[1][1], want[1][1])


@settings(max_examples=60, deadline=None)
@given(scenes(max_width=24, max_height=16))
def test_inside_matches_interior_mask(scene):
    """The point test agrees with the interior raster at every integer
    pixel: items and zones by footprint, containers inside their walls."""
    for obj in scene.objects:
        mask = interior_mask(obj, *pixel_axes(scene.height, scene.width))
        got = [[world.inside(obj, y, x) for x in range(scene.width)]
               for y in range(scene.height)]
        assert np.array_equal(np.array(got), mask)


@st.composite
def point_cases(draw):
    """An object of any shape (boxes and bowls also as containers) and a
    float point: anywhere near it, at a radial fraction of its reach, or
    exactly on a window edge obj.x +- reach or obj.y +- reach."""
    shape = draw(st.sampled_from(world.SHAPE_NAMES))
    kinds = (ITEM, CONTAINER, world.ZONE) if shape in ("box", "bowl") else (ITEM, world.ZONE)
    obj = SceneObject(1, draw(st.sampled_from(kinds)), shape, "red",
                      draw(st.floats(-20.0, 150.0)), draw(st.floats(-20.0, 80.0)),
                      angle=draw(st.one_of(st.just(0.0), st.floats(-2 * math.pi, 2 * math.pi))),
                      size=draw(st.floats(0.5, 30.0)))
    reach = obj.circumradius + 1.0
    near = st.tuples(st.floats(obj.y - reach - 2.0, obj.y + reach + 2.0),
                     st.floats(obj.x - reach - 2.0, obj.x + reach + 2.0))
    radial = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi)).map(
        lambda t: (obj.y + t[0] * reach * math.sin(t[1]), obj.x + t[0] * reach * math.cos(t[1])))
    edge_y = st.sampled_from([obj.y - reach, obj.y + reach])
    edge_x = st.sampled_from([obj.x - reach, obj.x + reach])
    on_edge = st.one_of(st.tuples(edge_y, near.map(lambda p: p[1])),
                        st.tuples(near.map(lambda p: p[0]), edge_x),
                        st.tuples(edge_y, edge_x))
    return obj, draw(st.one_of(near, radial, on_edge))


@settings(max_examples=400, deadline=None)
@given(point_cases())
@example((SceneObject(1, CONTAINER, "bowl", "red", 10.0, 8.0, size=4.0), (8.0, 5.0)))
@example((SceneObject(1, ITEM, "star", "red", 10.0, 8.0, size=4.0), (8.0, 5.0)))
@example((SceneObject(1, CONTAINER, "box", "red", 20.0, 10.0, size=4.0),
          (10.0, 20.0 - (4.0 * world.unit_circumradius("box") + 1.0))))
def test_inside_matches_point_sample(case):
    """The scalar point test equals a 1 x 1 interior_mask sample at the same
    float point, window edges included (the low edge is in the window, the
    high edge is not)."""
    obj, (y, x) = case
    want = interior_mask(obj, np.array([y]), np.array([x]))[0, 0]
    assert world.inside(obj, y, x) == want


def item_points(scene):
    return [(int(round(o.y)), int(round(o.x))) for o in scene.objects if o.kind == ITEM]


def turned_boxes(scene, angle):
    """scene with every box container turned to angle; scene itself if that
    puts a box out of bounds or an item on a box wall."""
    turned = dataclasses.replace(scene, objects=tuple(
        dataclasses.replace(o, angle=angle) if o.kind == CONTAINER and o.shape == "box" else o
        for o in scene.objects))
    try:
        world.check_bounds(turned)
    except OutOfBounds:
        return scene
    return turned if wall_overlaps(turned) == [] else scene


@contextlib.contextmanager
def settle_log():
    """A list that gets, for each world._settle call made inside the block,
    whether it gave the item back its pre-action pose."""
    log, real = [], world._settle

    def settle(scene, item, before):
        out = real(scene, item, before)
        log.append(out is before)
        return out

    with mock.patch.object(world, "_settle", settle):
        yield log


@st.composite
def action_runs(draw):
    """A generated scene, its boxes sometimes turned to a random angle, and a
    few random push or pick-place actions; about half the picks start on an
    item's centre."""
    name = draw(st.sampled_from(TASK_NAMES))
    scene = generate_episode(TaskSpec(name, draw(st.sampled_from(["seen", "unseen"]))),
                             draw(st.integers(0, 200))).scene
    if draw(st.booleans()):
        scene = turned_boxes(scene, draw(st.floats(-math.pi, math.pi)))
    h, w = scene.height, scene.width
    pose = st.builds(Pose2, st.integers(0, h - 1), st.integers(0, w - 1), st.integers(0, 11))
    on_item = st.sampled_from(item_points(scene)).map(lambda p: Pose2(p[0], p[1], 0))
    actions = draw(st.lists(
        st.builds(ControlParams, st.one_of(pose, on_item), pose,
                  st.sampled_from(["push", "pick_place"])),
        min_size=1, max_size=6))
    return scene, actions


def covers(obj, row, col):
    return bool(footprint_mask(obj, np.array([float(row)]), np.array([float(col)]))[0, 0])


@settings(max_examples=120, deadline=None)
@given(action_runs())
@example((Scene(128, 64, (
    SceneObject(1, CONTAINER, "box", "brown", 64.0, 32.0, angle=math.pi / 4, size=10.0),
    *(SceneObject(i, ITEM, "block", "red", x, y, size=3.4)
      for i, x, y in ((2, 20.0, 20.0), (3, 20.0, 44.0), (4, 108.0, 20.0))))),
    [ControlParams(Pose2(20, 20), Pose2(26, 70), "pick_place"),
     ControlParams(Pose2(44, 20), Pose2(38, 58), "pick_place"),
     ControlParams(Pose2(20, 108), Pose2(28, 74), "pick_place")]))
def test_actions_keep_scene_invariants(run):
    """Through world.apply: object ids and their order are kept, containers
    and zones never move, a pick that covers no item returns the same scene
    and False (one that covers an item moves it, unless the item does not
    come to rest), the flag is False exactly when the same scene comes back,
    and every object stays in bounds with no item on a container wall. The
    example places blocks by the walls of a box turned by pi/4, which is
    clamped in its own frame."""
    scene, actions = run
    fixed = [o for o in scene.objects if o.kind != ITEM]
    for params in actions:
        missed = params.primitive == "pick_place" and not any(
            covers(o, params.pick.u, params.pick.v) for o in scene.objects if o.kind == ITEM)
        with settle_log() as fell_back:
            after, moved = world.apply(scene, params)
        if params.primitive == "pick_place":
            assert moved is not (missed or fell_back == [True])
        assert moved is (after is not scene)
        if missed:
            assert after is scene
        assert [o.id for o in after.objects] == [o.id for o in scene.objects]
        assert [o for o in after.objects if o.kind != ITEM] == fixed
        world.check_bounds(after)
        assert wall_overlaps(after) == []
        scene = after


@st.composite
def lineages(draw):
    """A random or generated scene and the scenes a few random world.apply
    actions make of it, in order."""
    scene = draw(st.one_of(scenes(coord=central), st.builds(
        lambda name, split, seed: generate_episode(TaskSpec(name, split), seed).scene,
        st.sampled_from(TASK_NAMES), st.sampled_from(["seen", "unseen"]), st.integers(0, 200))))
    h, w = scene.height, scene.width
    pose = st.builds(Pose2, st.integers(0, h - 1), st.integers(0, w - 1), st.integers(0, 11))
    points = item_points(scene)
    if points:
        pose = st.one_of(pose, st.sampled_from(points).map(lambda p: Pose2(p[0], p[1], 0)))
    lineage = [scene]
    for params in draw(st.lists(st.builds(ControlParams, pose, pose,
                                          st.sampled_from(["push", "pick_place"])),
                                max_size=5)):
        lineage.append(world.apply(lineage[-1], params)[0])
    return lineage


@settings(max_examples=60, deadline=None)
@given(lineages())
def test_mask_memo_matches_fresh_rasters(lineage):
    """Along a lineage of scenes, every object's memoized footprint and
    interior on the pixel lattice and on the backends' half lattice equal a
    fresh rasterization and are read-only; filling the memo changes no
    object's ==, hash or asdict, nor the scene's dict."""
    for scene in lineage:
        hw = (scene.height, scene.width)
        half = (max(1, scene.height // 2), max(1, scene.width // 2))
        before = [(dataclasses.asdict(o), hash(o), dataclasses.replace(o)) for o in scene.objects]
        scene_dict = world.scene_to_dict(scene)
        for obj in scene.objects:
            for rows, cols in (hw, half):
                ys, xs = axis_coords(rows, scene.height), axis_coords(cols, scene.width)
                for interior, fresh in ((False, footprint_mask), (True, interior_mask)):
                    got = obj.mask(hw, (rows, cols), interior)
                    assert np.array_equal(got, fresh(obj, ys, xs))
                    assert got is obj.mask(hw, (rows, cols), interior)
                    assert not got.flags.writeable
            assert obj.mask(hw) is obj.mask(hw, hw)
        assert [(dataclasses.asdict(o), hash(o), o) for o in scene.objects] == before
        assert world.scene_to_dict(scene) == scene_dict


def test_mask_memo_is_not_a_field():
    obj = SceneObject(1, ITEM, "star", "red", 20.0, 20.0, size=4.0)
    obj.mask((40, 40))
    assert "_masks" not in SceneObject.__dataclass_fields__
    assert dataclasses.replace(obj, x=21.0)._masks == {}


def test_mask_memo_keys_on_scene_size():
    """One object may sit in scenes of different sizes: the same (rows, cols)
    lattice then samples different scene points."""
    obj = SceneObject(1, ITEM, "star", "red", 20.0, 20.0, size=4.0)
    for hw in ((40, 40), (80, 60), (40, 40)):
        ys, xs = axis_coords(20, hw[0]), axis_coords(20, hw[1])
        assert np.array_equal(obj.mask(hw, (20, 20)), footprint_mask(obj, ys, xs))


def test_pixel_lattice_is_arange():
    """The memo rasterizes the pixel lattice as axis_coords(n, n), which
    must be np.arange(n) exactly."""
    for n in range(1, 1025):
        coords = axis_coords(n, n)
        assert coords.dtype == np.float64
        assert np.array_equal(coords, np.arange(n, dtype=np.float64))
