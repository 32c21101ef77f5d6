import gc
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tablang import benchmark as bm
from tablang import ccg, dsl, world
from tablang.backends import OracleBackend
from tablang.executor import (
    DEFAULT_RELATION_KINDS,
    EmptyGrounding,
    ExecutionContext,
    NoFeasiblePlace,
    Pose2,
    PoseGrid,
    RelationConfig,
    UnknownRelation,
    _component,
    _place_scores,
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


def reference_relation_kernel(reference, relation):
    """The float kernel that the boolean one replaced: one erosion round for
    containment, the footprint for surfaces, and one branch per half-plane."""
    kind = DEFAULT_RELATION_KINDS[relation]
    binary = reference > 0.5
    if kind == "interior":
        eroded = binary.copy()
        eroded[1:, :] &= binary[:-1, :]
        eroded[:-1, :] &= binary[1:, :]
        eroded[:, 1:] &= binary[:, :-1]
        eroded[:, :-1] &= binary[:, 1:]
        eroded[0, :] = eroded[-1, :] = False
        eroded[:, 0] = eroded[:, -1] = False
        return (eroded if eroded.any() else binary).astype(np.float64)
    if kind == "surface":
        return binary.astype(np.float64)
    if not binary.any():
        return np.zeros_like(reference)
    rows, cols = np.nonzero(binary)
    out = np.zeros(reference.shape, dtype=np.float64)
    if kind == "left":
        out[:, :] = (np.arange(reference.shape[1])[None, :] < cols.mean()).astype(float)
    elif kind == "right":
        out[:, :] = (np.arange(reference.shape[1])[None, :] > cols.mean()).astype(float)
    elif kind == "front":
        out[:, :] = (np.arange(reference.shape[0])[:, None] > rows.mean()).astype(float)
    else:
        out[:, :] = (np.arange(reference.shape[0])[:, None] < rows.mean()).astype(float)
    return out


def single_cell():
    ref = np.zeros((5, 7))
    ref[2, 3] = 1.0
    return ref


def thin_line():
    ref = np.zeros((6, 9))
    ref[3, 1:8] = 0.8  # one row wide: erodes away
    return ref


@settings(deadline=None)
@given(st.sampled_from(sorted(DEFAULT_RELATION_KINDS)),
       arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 12)),
              elements=st.sampled_from((0.0, 0.3, 0.5, 0.6, 1.0))))
@example("in", np.zeros((4, 6)))
@example("left", np.zeros((4, 6)))
@example("in", single_cell())
@example("back", single_cell())
@example("in", thin_line())
@example("front", thin_line())
def test_relation_kernel_is_boolean_reference(relation, reference):
    """Every relation gives a bool kernel equal to the float kernel it
    replaced, also for an empty reference, a single cell and a reference
    that erodes away."""
    kernel = relation_kernel(reference, relation, RelationConfig())
    assert kernel.dtype == bool
    assert np.array_equal(kernel, reference_relation_kernel(reference, relation).astype(bool))


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


def test_pick_place_looks_up_the_picked_item_once(monkeypatch):
    """The pick argmax lies on the hexagon, so one pick_target call finds the
    item both for the pick and for the obstacle exclusion."""
    box = world.make_object(1, world.CONTAINER, "box", "orange", 90.0, 32.0, size=10.0)
    hexagon = world.make_object(2, world.ITEM, "hexagon", "blue", 30.0, 30.0, size=5.0)
    star = world.make_object(3, world.ITEM, "star", "red", 30.0, 52.0, size=5.0)
    scene = world.Scene(128, 64, (box, hexagon, star), rng_seed=0)
    calls = []
    pick_target = world.pick_target
    monkeypatch.setattr(world, "pick_target",
                        lambda *args: calls.append(args) or pick_target(*args))
    ctx = ExecutionContext(scene, OracleBackend(), PoseGrid(64, 128, 12), RelationConfig())
    result = execute(dsl.parse_program(GOLDEN_TEXT), ctx)
    pick = result.all_params[0].pick
    assert world.footprint_mask(hexagon, (64, 128))[pick.u, pick.v]
    assert len(calls) == 1


def test_execute_leaves_no_cyclic_garbage():
    """execute frees its maps by reference counting alone; a reference cycle
    would keep every intermediate GroundingMap alive until the cyclic
    collector runs."""
    box = world.make_object(1, world.CONTAINER, "box", "orange", 90.0, 32.0, size=10.0)
    hexagon = world.make_object(2, world.ITEM, "hexagon", "blue", 30.0, 30.0, size=5.0)
    star = world.make_object(3, world.ITEM, "star", "red", 30.0, 52.0, size=5.0)
    scene = world.Scene(128, 64, (box, hexagon, star), rng_seed=0)
    ctx = ExecutionContext(scene, OracleBackend(), PoseGrid(64, 128, 12), RelationConfig())
    program = dsl.parse_program(
        "actionconcat(" + GOLDEN_TEXT + ", do(goal(filter(star), filter(box), in), push))")
    gc.disable()
    try:
        gc.collect()
        assert execute(program, ctx).all_params
        assert gc.collect() == 0
    finally:
        gc.enable()


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


def reference_place_scores(kernel, offsets, reference, bbox, grid):
    """The per-rotation loop that stencil scoring replaced: rotate and dedupe
    the offsets, then sum shifted windows of the zero-padded kernel into
    float hit and value accumulators."""
    u0, u1, v0, v1 = bbox
    out = np.zeros((grid.rotations, grid.height, grid.width))
    if u1 <= u0 or v1 <= v0:
        return out
    for r in range(grid.rotations):
        c, s = math.cos(grid.angle(r)), math.sin(grid.angle(r))
        du = offsets[:, 0] * c - offsets[:, 1] * s
        dv = offsets[:, 0] * s + offsets[:, 1] * c
        rotated = np.unique(np.stack([np.rint(du), np.rint(dv)], axis=1).astype(int), axis=0)
        n = len(rotated)
        pad = int(np.abs(rotated).max(initial=0)) + 1
        padded = np.pad(kernel, pad)
        hits = np.zeros((u1 - u0, v1 - v0))
        sums = np.zeros((u1 - u0, v1 - v0))
        for a, b in rotated:
            window = padded[pad + u0 + a: pad + u1 + a, pad + v0 + b: pad + v1 + b]
            hits += window > 0
            sums += window
        base = np.zeros((grid.height, grid.width))
        base[u0:u1, v0:v1] = (hits / n) * (sums / n)
        out[r] = reference * base
    return out


@st.composite
def place_cases(draw):
    h, w = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    kernel = draw(arrays(np.bool_, (h, w)))
    reference = draw(arrays(np.float64, (h, w), elements=st.floats(0.0, 1.0)))
    # The silhouette lives on its own grid, up to 12 cells across, so its
    # offsets often reach past the kernel grid's edge.
    sh, sw = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    mask = draw(arrays(np.bool_, (sh, sw)))
    seed = (draw(st.integers(0, sh - 1)), draw(st.integers(0, sw - 1)))
    rows, cols = np.nonzero(_component(mask, seed))  # one pixel when seed is off the mask
    offsets = np.stack([rows - int(round(rows.mean())), cols - int(round(cols.mean()))], axis=1)
    u0, u1 = sorted(draw(st.lists(st.integers(0, h), min_size=2, max_size=2)))
    v0, v1 = sorted(draw(st.lists(st.integers(0, w), min_size=2, max_size=2)))
    grid = PoseGrid(h, w, draw(st.sampled_from((1, 4, 12))))
    return kernel, offsets, reference, (u0, u1, v0, v1), grid


@settings(deadline=None)
@given(place_cases())
@example((np.ones((3, 3), dtype=bool), np.array([[0, 0]]), np.ones((3, 3)), (0, 3, 0, 3),
          PoseGrid(3, 3, 1)))
@example((np.eye(4, dtype=bool), np.array([[r, c] for r in range(-3, 4) for c in range(-1, 2)]),
          np.full((4, 4), 0.5), (0, 4, 0, 4), PoseGrid(4, 4, 12)))
def test_place_scores_match_offset_loop(case):
    kernel, offsets, reference, bbox, grid = case
    assert np.array_equal(_place_scores(kernel, offsets, reference, bbox, grid),
                          reference_place_scores(kernel, offsets, reference, bbox, grid))
