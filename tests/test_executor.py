import numpy as np
import pytest

from tablang import benchmark as bm
from tablang import ccg, dsl, world
from tablang.backends import OracleBackend
from tablang.executor import (
    EmptyGrounding,
    ExecutionContext,
    NoFeasiblePlace,
    Pose2,
    PoseGrid,
    RelationConfig,
    UnknownRelation,
    eval_relate,
    execute,
    relation_kernel,
    select_pick,
    select_place,
)
from tablang.grounding import GroundingMap, resample


def gmap(values):
    return GroundingMap(np.asarray(values, dtype=float))


def brute_pick(arr):
    best = None
    for u in range(arr.shape[0]):
        for v in range(arr.shape[1]):
            if best is None or arr[u, v] > arr[best]:
                best = (u, v)
    return best


def brute_place(grids):
    best = None
    for r in range(grids.shape[0]):
        for u in range(grids.shape[1]):
            for v in range(grids.shape[2]):
                if best is None or grids[r, u, v] > grids[best]:
                    best = (r, u, v)
    return best


def test_select_pick_single_peak():
    arr = np.zeros((6, 8))
    arr[3, 5] = 0.7
    assert select_pick(gmap(arr)) == Pose2(3, 5, 0)


def test_select_pick_row_major_tie():
    arr = np.zeros((4, 4))
    arr[1, 1] = arr[2, 0] = 1.0
    assert select_pick(gmap(arr)) == Pose2(1, 1, 0)


def test_select_pick_empty():
    with pytest.raises(EmptyGrounding):
        select_pick(gmap(np.zeros((3, 3))))


def test_select_pick_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(200):
        arr = rng.integers(0, 4, size=(int(rng.integers(1, 9)), int(rng.integers(1, 9)))) / 4.0
        if arr.max() <= 0:
            continue
        got = select_pick(gmap(arr))
        assert (got.u, got.v) == brute_pick(arr)


def test_select_place_single_cell():
    grids = np.zeros((3, 4, 4))
    grids[1, 2, 2] = 0.5
    assert select_place(grids) == Pose2(2, 2, 1)


def test_select_place_tie_prefers_low_rotation():
    grids = np.zeros((4, 3, 3))
    grids[0, 1, 1] = grids[2, 0, 0] = 1.0
    assert select_place(grids) == Pose2(1, 1, 0)


def test_select_place_all_zero():
    with pytest.raises(NoFeasiblePlace):
        select_place(np.zeros((2, 3, 3)))


def test_select_place_matches_brute_force_with_ties():
    rng = np.random.default_rng(1)
    for _ in range(200):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        grids = rng.integers(0, 3, size=shape) / 2.0
        if grids.max() <= 0:
            continue
        got = select_place(grids)
        assert (got.r, got.u, got.v) == brute_place(grids)


def test_argmax_scale_invariance():
    rng = np.random.default_rng(2)
    arr = rng.random((6, 6))
    a = select_pick(gmap(arr))
    b = select_pick(gmap(arr * 0.25))
    assert a == b
    grids = rng.random((3, 5, 5))
    assert select_place(grids) == select_place(grids * 7.5)


def test_relation_kernel_interior_erodes():
    ref = np.zeros((8, 8))
    ref[2:6, 2:6] = 1.0
    k = relation_kernel(ref, "in", RelationConfig())
    expected = np.zeros((8, 8))
    expected[3:5, 3:5] = 1.0
    assert np.array_equal(k, expected)


def test_relation_kernel_surface_is_footprint():
    ref = np.zeros((5, 5))
    ref[1:4, 1:4] = 1.0
    k = relation_kernel(ref, "on", RelationConfig())
    assert np.array_equal(k, ref)


def test_relation_kernel_left_half_plane():
    ref = np.zeros((8, 8))
    ref[3:5, 4:6] = 1.0  # centroid column 4.5
    k = relation_kernel(ref, "left", RelationConfig())
    expected = np.zeros((8, 8))
    expected[:, :5] = 1.0
    assert np.array_equal(k, expected)
    k_right = relation_kernel(ref, "right", RelationConfig())
    expected_right = np.zeros((8, 8))
    expected_right[:, 5:] = 1.0
    assert np.array_equal(k_right, expected_right)


def test_relation_kernel_unknown():
    with pytest.raises(UnknownRelation):
        relation_kernel(np.ones((4, 4)), "betwixt", RelationConfig())


def fixture_context(rotations=12):
    scene = bm.generate_episode(bm.TaskSpec("packing_shapes"), 11).scene
    grid = PoseGrid(scene.height, scene.width, rotations)
    return ExecutionContext(scene, OracleBackend(), grid, RelationConfig())


def test_eval_relate_selects_left_box():
    boxes = np.zeros((16, 32))
    boxes[6:10, 4:10] = 1.0   # left box
    boxes[6:10, 22:28] = 1.0  # right box
    star = np.zeros((16, 32))
    star[7:9, 15:17] = 1.0
    ctx = fixture_context()
    out = eval_relate(gmap(boxes), gmap(star), dsl.ConceptToken("left", dsl.RELATION), ctx)
    assert out.values[7, 5] == 1.0
    assert np.all(out.values[:, 16:] == 0.0)


def test_eval_relate_full_kernel_keeps_target():
    target = np.zeros((8, 8))
    target[2:4, 2:4] = 1.0
    ref = np.ones((8, 8))
    ctx = fixture_context()
    out = eval_relate(gmap(target), gmap(ref), dsl.ConceptToken("on", dsl.RELATION), ctx)
    assert np.array_equal(out.values, target)


def make_plan(obj_word, ref_word, rel="in", action="pack"):
    return dsl.parse_program(f"do(goal(filter({obj_word}), filter({ref_word}), {rel}), {action})")


def test_execute_golden_example():
    """Pick lands on the blue hexagon, place lands inside the orange box."""
    box = world.make_object(1, world.CONTAINER, "box", "orange", 90.0, 32.0, size=10.0)
    hexagon = world.make_object(2, world.ITEM, "hexagon", "blue", 30.0, 30.0,
                                size=5.0, extra=("shape",))
    distractor = world.make_object(3, world.ITEM, "star", "red", 30.0, 52.0,
                                   size=5.0, extra=("shape",))
    scene = world.Scene(128, 64, (box, hexagon, distractor), rng_seed=0)
    program = dsl.parse_program(GOLDEN_TEXT)
    grid = PoseGrid(64, 128, 12)
    ctx = ExecutionContext(scene, OracleBackend(), grid, RelationConfig())
    result = execute(program, ctx)
    pick, place = result.all_params[0].pick, result.all_params[0].place
    assert world.footprint_mask(hexagon, (64, 128))[pick.u, pick.v]
    assert world.interior_mask(box, (1, 1), np.array([float(place.u)]),
                               np.array([float(place.v)]))[0, 0]
    after, moved = world.apply_pick_place(scene, result.all_params[0])
    assert moved
    foot = world.footprint_mask(after.find(2), (64, 128))
    interior = world.interior_mask(box, (64, 128))
    assert (foot & interior).sum() / foot.sum() >= 0.9


GOLDEN_TEXT = "do(goal(filter(filter(hexagon), blue), filter(filter(box), orange), in), pack)"


def test_execute_records_intermediates_by_path():
    ctx = fixture_context()
    ep = bm.generate_episode(bm.TaskSpec("packing_shapes"), 11)
    lex = ccg.default_lexicon()
    program = ccg.parse(ccg.tokenize(ep.instruction, lex), lex, 1)[0].program
    result = execute(program, ExecutionContext(ep.scene, OracleBackend(),
                                               ctx.pose_grid, RelationConfig()))
    assert "0" in result.intermediates
    assert "0.0.0" in result.intermediates
    assert "0.0.1" in result.intermediates


def test_execute_push_primitive():
    zone = world.make_object(1, world.ZONE, "square", "green", 100.0, 32.0,
                             size=14.0, extra=("zone",))
    block = world.make_object(2, world.ITEM, "block", "red", 40.0, 32.0,
                              size=3.4, extra=("blocks",))
    scene = world.Scene(128, 64, (zone, block), rng_seed=0)
    program = make_plan("block", "zone", rel="in", action="push")
    grid = PoseGrid(64, 128, 12)
    result = execute(program, ExecutionContext(scene, OracleBackend(), grid, RelationConfig()))
    assert result.all_params[0].primitive == "push"
    pre, post = result.all_params[0].pick, result.all_params[0].place
    # pre-push sits behind the block relative to the zone, post at the zone center
    assert pre.v < 40.0
    assert abs(pre.u - 32) <= 1
    assert abs(post.v - 100.0) <= 2 and abs(post.u - 32.0) <= 2
    after, moved = world.apply_push(scene, result.all_params[0])
    assert moved
    assert world.footprint_mask(zone, (1, 1), np.array([after.find(2).y]),
                                np.array([after.find(2).x]))[0, 0]
    # recorded maps stay argmax-consistent
    assert select_pick(result.pick_map) == pre
    assert select_place(result.place_map) == post
    # Hadamard dominance holds on the push path too
    up_ref = resample(result.intermediates["0.0.1"], 64, 128).values
    assert np.all(result.place_map[:, up_ref == 0.0] == 0.0)


def test_execute_empty_grounding():
    ctx = fixture_context()
    program = make_plan("nonexistent", "box")
    with pytest.raises(EmptyGrounding):
        execute(program, ctx)


def test_execute_requires_plan():
    ctx = fixture_context()
    with pytest.raises(dsl.TypeMismatch):
        execute(dsl.Scene(), ctx)


def test_execute_actionconcat_returns_sequence():
    ep = bm.generate_episode(bm.TaskSpec("packing_shapes"), 3)
    lex = ccg.default_lexicon()
    program = ccg.parse(ccg.tokenize(ep.instruction, lex), lex, 1)[0].program
    double = dsl.ActionConcat(program, program)
    grid = PoseGrid(ep.scene.height, ep.scene.width, 12)
    result = execute(double, ExecutionContext(ep.scene, OracleBackend(), grid,
                                              RelationConfig()))
    assert len(result.all_params) == 2


def test_execute_deterministic():
    ep = bm.generate_episode(bm.TaskSpec("packing_color_box"), 5)
    lex = ccg.default_lexicon()
    program = ccg.parse(ccg.tokenize(ep.instruction, lex), lex, 1)[0].program
    grid = PoseGrid(ep.scene.height, ep.scene.width, 12)
    a = execute(program, ExecutionContext(ep.scene, OracleBackend(), grid, RelationConfig()))
    b = execute(program, ExecutionContext(ep.scene, OracleBackend(), grid, RelationConfig()))
    assert a.all_params == b.all_params
    assert np.array_equal(a.place_map, b.place_map)
    assert np.array_equal(a.pick_map.values, b.pick_map.values)
    # control parameters are re-derivable as argmaxes of the recorded maps
    assert select_pick(a.pick_map) == a.all_params[0].pick
    assert select_place(a.place_map) == a.all_params[0].place


def test_goal_zero_reference_annihilates():
    """A reference word no object carries grounds to the zero map, which
    zeroes every place score."""
    ctx = fixture_context()
    with pytest.raises(NoFeasiblePlace):
        execute(make_plan("shape", "nonexistent"), ctx)


def test_oracle_end_to_end_invariants():
    """With oracle grounding, the pick lies on a target object's footprint
    and the place pose satisfies the goal relation's geometric predicate
    (checked with the simulator's own point tests)."""
    lex = ccg.default_lexicon()
    names = ("packing_shapes", "packing_color_box", "packing_location_box",
             "packing_prepositions", "put_blocks_in_bowls")
    for i in range(30):
        name = names[i % len(names)]
        ep = bm.generate_episode(bm.TaskSpec(name), i)
        program = ccg.parse(ccg.tokenize(ep.instruction, lex), lex, 1)[0].program
        grid = PoseGrid(ep.scene.height, ep.scene.width, 12)
        result = execute(program, ExecutionContext(ep.scene, OracleBackend(),
                                                   grid, RelationConfig()))
        pick, place = result.all_params[0].pick, result.all_params[0].place
        picked = world.pick_target(ep.scene, pick.u, pick.v)
        assert picked is not None and picked.id in ep.goal.target_ids
        regions = [ep.scene.find(rid) for rid in ep.goal.region_ids]
        in_region = any(
            world.interior_mask(r, (1, 1), np.array([float(place.u)]),
                                np.array([float(place.v)]))[0, 0]
            for r in regions
        )
        assert in_region, (name, i, place)


def test_goal_hadamard_dominance():
    ep = bm.generate_episode(bm.TaskSpec("packing_color_box"), 9)
    lex = ccg.default_lexicon()
    program = ccg.parse(ccg.tokenize(ep.instruction, lex), lex, 1)[0].program
    grid = PoseGrid(ep.scene.height, ep.scene.width, 6)
    result = execute(program, ExecutionContext(ep.scene, OracleBackend(), grid,
                                               RelationConfig()))
    ref_map = result.intermediates["0.0.1"]
    up_ref = resample(ref_map, grid.height, grid.width).values
    zero_cells = up_ref == 0.0
    for r in range(grid.rotations):
        assert np.all(result.place_map[r][zero_cells] == 0.0)
