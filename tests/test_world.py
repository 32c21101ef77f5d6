import math

import numpy as np
import pytest

from tablang import world
from tablang.executor import ControlParams, Pose2
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


def test_duplicate_ids_rejected():
    a = make_object(1, ITEM, "disc", "red", 20.0, 20.0, size=3.0)
    b = make_object(1, ITEM, "disc", "blue", 40.0, 20.0, size=3.0)
    with pytest.raises(ValueError):
        Scene(64, 48, (a, b))
