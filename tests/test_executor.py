import functools
import gc
import math
import tracemalloc
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tablang import benchmark as bm
from tablang import ccg, dsl, executor, world
from tablang.backends import OracleBackend
from tablang.executor import (
    DEFAULT_RELATION_KINDS,
    PUSH,
    ControlParams,
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
from tablang.grounding import GroundingMap, axis_coords, resample


def pixel_axes(h, w):
    """The (ys, xs) sample axes of the integer pixel lattice of an h x w scene."""
    return axis_coords(h, h), axis_coords(w, w)


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


@settings(max_examples=300, deadline=None)
@given(arrays(bool, st.tuples(st.integers(1, 12), st.integers(1, 12))), st.booleans())
@example(np.zeros((4, 6), dtype=bool), False)
@example(np.zeros((1, 9), dtype=bool), False)
@example(np.ones((1, 9), dtype=bool), False)
@example(np.ones((9, 1), dtype=bool), True)
@example(np.random.default_rng(0).random((64, 128)) < 0.05, False)
def test_cells_is_nonzero(mask, transposed):
    """The flat-index helper gives np.nonzero's rows and columns: the same
    values, dtype and row-major order, also for an empty mask, 1 x n and
    n x 1 masks and a transposed (non-contiguous) view."""
    mask = mask.T if transposed else mask
    got, want = executor._cells(mask), np.nonzero(mask)
    assert len(got) == len(want) == 2
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


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


def read_checked(text):
    """The tree dsl.read makes of text, after dsl.type_check accepts it."""
    tree = dsl.read(text)
    dsl.type_check(tree)
    return tree


def make_plan(obj_word, ref_word, rel="in", action="pack"):
    return read_checked(f"do(goal(filter({obj_word}), filter({ref_word}), {rel}), {action})")


def test_execute_golden_example():
    """Pick lands on the blue hexagon, place lands inside the orange box."""
    box = world.SceneObject(1, world.CONTAINER, "box", "orange", 90.0, 32.0, size=10.0)
    hexagon = world.SceneObject(2, world.ITEM, "hexagon", "blue", 30.0, 30.0,
                                size=5.0, attributes=("shape",))
    distractor = world.SceneObject(3, world.ITEM, "star", "red", 30.0, 52.0,
                                   size=5.0, attributes=("shape",))
    scene = world.Scene(128, 64, (box, hexagon, distractor), rng_seed=0)
    program = read_checked(GOLDEN_TEXT)
    grid = PoseGrid(64, 128, 12)
    ctx = ExecutionContext(scene, OracleBackend(), grid, RelationConfig())
    result = execute(program, ctx)
    pick, place = result.params.pick, result.params.place
    assert world.footprint_mask(hexagon, *pixel_axes(64, 128))[pick.u, pick.v]
    assert world.interior_mask(box, np.array([float(place.u)]), np.array([float(place.v)]))[0, 0]
    after, moved = world.apply_pick_place(scene, result.params)
    assert moved
    foot = world.footprint_mask(after.find(2), *pixel_axes(64, 128))
    interior = world.interior_mask(box, *pixel_axes(64, 128))
    assert (foot & interior).sum() / foot.sum() >= 0.9


GOLDEN_TEXT = "do(goal(filter(filter(hexagon), blue), filter(filter(box), orange), in), pack)"


@pytest.mark.parametrize("height, width", [(32, 64), (64, 127), (128, 64)])
def test_context_needs_the_scene_lattice_as_pose_grid(height, width):
    scene = world.Scene(128, 64, ())
    with pytest.raises(ValueError, match="pixel lattice"):
        ExecutionContext(scene, OracleBackend(), PoseGrid(height, width, 12))


def test_pick_place_looks_up_the_picked_item_once(monkeypatch):
    """The pick argmax lies on the hexagon, so one pick_target call finds the
    item both for the pick and for the obstacle exclusion."""
    box = world.SceneObject(1, world.CONTAINER, "box", "orange", 90.0, 32.0, size=10.0)
    hexagon = world.SceneObject(2, world.ITEM, "hexagon", "blue", 30.0, 30.0, size=5.0)
    star = world.SceneObject(3, world.ITEM, "star", "red", 30.0, 52.0, size=5.0)
    scene = world.Scene(128, 64, (box, hexagon, star), rng_seed=0)
    calls = []
    pick_target = world.pick_target
    monkeypatch.setattr(world, "pick_target",
                        lambda *args: calls.append(args) or pick_target(*args))
    ctx = ExecutionContext(scene, OracleBackend(), PoseGrid(64, 128, 12), RelationConfig())
    result = execute(read_checked(GOLDEN_TEXT), ctx)
    pick = result.params.pick
    assert world.footprint_mask(hexagon, *pixel_axes(64, 128))[pick.u, pick.v]
    assert len(calls) == 1


def test_execute_leaves_no_cyclic_garbage():
    """Each execute of a two-goal step frees its maps by reference counting
    alone; a reference cycle would keep every intermediate GroundingMap alive until
    the cyclic collector runs."""
    box = world.SceneObject(1, world.CONTAINER, "box", "orange", 90.0, 32.0, size=10.0)
    hexagon = world.SceneObject(2, world.ITEM, "hexagon", "blue", 30.0, 30.0, size=5.0)
    star = world.SceneObject(3, world.ITEM, "star", "red", 30.0, 52.0, size=5.0)
    scene = world.Scene(128, 64, (box, hexagon, star), rng_seed=0)
    program = read_checked(
        "actionconcat(" + GOLDEN_TEXT + ", do(goal(filter(star), filter(box), in), push))")
    gc.disable()
    try:
        gc.collect()
        assert len(bm.step(program, scene, OracleBackend(), PoseGrid(64, 128, 12))[0]) == 2
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


def test_each_verb_executes_its_primitive():
    """execute picks the push path by the action word's spelling: a generated
    plan with each verb of the default lexicon runs push for push and
    pick-and-place for every other verb."""
    lex = ccg.default_lexicon()
    verbs = {w for w in lex.vocabulary for e in lex.entries_for(w)
             if ccg.category_to_str(e.category) == "(S/PP)/N"}
    expected = {"push": world.PUSH, "pack": world.PICK_PLACE, "put": world.PICK_PLACE,
                "place": world.PICK_PLACE, "move": world.PICK_PLACE}
    assert verbs == set(expected)
    ep = bm.generate_episode(bm.TaskSpec("packing_shapes"), 11)
    toks = ccg.tokenize(ep.instruction, lex)
    assert toks[0] == "pack"
    ctx = fixture_context()
    for verb, primitive in expected.items():
        program = ccg.parse([verb, *toks[1:]], lex, 1)[0].program
        assert program.action.word == verb
        result = execute(program, ExecutionContext(ep.scene, OracleBackend(),
                                                   ctx.pose_grid, RelationConfig()))
        assert result.params.primitive == primitive, verb


def test_push_path_follows_the_verb_not_the_primitive_name(monkeypatch):
    """execute chooses the push path by the dsl verb, executor.PUSH_VERB: with
    the push primitive renamed, a parsed push instruction still pushes, under
    the new name."""
    monkeypatch.setattr(executor, "PUSH", "sweep")
    ep = bm.generate_episode(bm.TaskSpec("pushing_shapes"), 0)
    program = bm.read_instruction(ep.instruction, ccg.default_lexicon()).program
    grid = PoseGrid(ep.scene.height, ep.scene.width, 12)
    result = execute(dsl.goals(program)[0], ExecutionContext(ep.scene, OracleBackend(), grid))
    assert result.params.primitive == "sweep"


def count_place_calls(monkeypatch) -> dict[str, int]:
    """Count calls of executor._place_scores."""
    calls = {"_place_scores": 0}
    fn = executor._place_scores

    def counted(*args):
        calls["_place_scores"] += 1
        return fn(*args)
    monkeypatch.setattr(executor, "_place_scores", counted)
    return calls


def test_execute_push_primitive(monkeypatch):
    """A push goal moves the block toward the zone and, unlike a pick-place
    goal, scores no place."""
    calls = count_place_calls(monkeypatch)
    zone = world.SceneObject(1, world.ZONE, "square", "green", 100.0, 32.0,
                             size=14.0, attributes=("zone",))
    block = world.SceneObject(2, world.ITEM, "block", "red", 40.0, 32.0,
                              size=3.4, attributes=("blocks",))
    scene = world.Scene(128, 64, (zone, block), rng_seed=0)
    program = make_plan("block", "zone", rel="in", action="push")
    grid = PoseGrid(64, 128, 12)
    result = execute(program, ExecutionContext(scene, OracleBackend(), grid, RelationConfig()))
    assert calls == {"_place_scores": 0}
    assert result.params.primitive == "push"
    pre, post = result.params.pick, result.params.place
    # pre-push sits behind the block relative to the zone, post at the zone center
    assert pre.v < 40.0
    assert abs(pre.u - 32) <= 1
    assert abs(post.v - 100.0) <= 2 and abs(post.u - 32.0) <= 2
    after, moved = world.apply_push(scene, result.params)
    assert moved
    assert world.footprint_mask(zone, np.array([after.find(2).y]), np.array([after.find(2).x]))[0, 0]
    # recorded maps stay argmax-consistent
    assert select_pick(result.pick_map) == pre
    assert select_place(result.place_map) == post
    # Hadamard dominance holds on the push path too
    up_ref = resample(result.intermediates["0.0.1"], 64, 128).values
    assert np.all(result.place_map[:, up_ref == 0.0] == 0.0)
    # the golden pick-place plan scores its place once
    box = world.SceneObject(1, world.CONTAINER, "box", "orange", 90.0, 32.0, size=10.0)
    hexagon = world.SceneObject(2, world.ITEM, "hexagon", "blue", 30.0, 30.0, size=5.0)
    execute(read_checked(GOLDEN_TEXT),
            ExecutionContext(world.Scene(128, 64, (box, hexagon)), OracleBackend(), grid))
    assert calls == {"_place_scores": 1}


def test_execute_empty_grounding():
    ctx = fixture_context()
    program = make_plan("nonexistent", "box")
    with pytest.raises(EmptyGrounding):
        execute(program, ctx)


def test_execute_requires_plan():
    ctx = fixture_context()
    with pytest.raises(dsl.TypeMismatch):
        execute(dsl.Scene(), ctx)


def test_step_plans_each_goal_on_the_scene_the_last_left():
    """Two goals joined by "and" run goal by goal: the hexagon is planned on
    the scene with the star already packed, so both end up in the box with
    no footprint pixel shared (planned on the start scene, both landed at one
    pose, 37 pixels overlapping). execute itself plans one goal only."""
    ep = bm.generate_episode(bm.TaskSpec("packing_shapes"), 7)
    program = bm.read_instruction(
        "pack the star in the brown box and pack the hexagon in the brown box",
        ccg.default_lexicon()).program
    assert isinstance(program, dsl.ActionConcat)
    grid = PoseGrid(ep.scene.height, ep.scene.width, 12)
    results, after = bm.step(program, ep.scene, OracleBackend(), grid)
    assert len(results) == 2 and results[0].params.place != results[1].params.place
    middle, _ = world.apply(ep.scene, results[0].params)
    assert execute(program.b, ExecutionContext(middle, OracleBackend(), grid)).params \
        == results[1].params
    star, hexagon = (next(o for o in after.objects if o.shape == s) for s in ("star", "hexagon"))
    assert world.inside(after.find(1), star.y, star.x)
    assert world.inside(after.find(1), hexagon.y, hexagon.x)
    hw = (after.height, after.width)
    assert not (star.mask(hw) & hexagon.mask(hw)).any()
    with pytest.raises(dsl.TypeMismatch):
        execute(program, ExecutionContext(ep.scene, OracleBackend(), grid))


def test_execute_deterministic():
    ep = bm.generate_episode(bm.TaskSpec("packing_color_box"), 5)
    lex = ccg.default_lexicon()
    program = ccg.parse(ccg.tokenize(ep.instruction, lex), lex, 1)[0].program
    grid = PoseGrid(ep.scene.height, ep.scene.width, 12)
    a = execute(program, ExecutionContext(ep.scene, OracleBackend(), grid, RelationConfig()))
    b = execute(program, ExecutionContext(ep.scene, OracleBackend(), grid, RelationConfig()))
    assert a.params == b.params
    assert np.array_equal(a.place_map, b.place_map)
    assert np.array_equal(a.pick_map.values, b.pick_map.values)
    # control parameters are re-derivable as argmaxes of the recorded maps
    assert select_pick(a.pick_map) == a.params.pick
    assert select_place(a.place_map) == a.params.place


def test_goal_zero_reference_annihilates():
    """A reference word no object carries grounds to the zero map: no cell
    can score, and the error reports keep is the one a zero grid gave."""
    ctx = fixture_context()
    with pytest.raises(NoFeasiblePlace, match=r"^all place scores are zero$"):
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
        pick, place = result.params.pick, result.params.place
        picked = world.pick_target(ep.scene, pick.u, pick.v)
        assert picked is not None and picked.id in ep.goal.target_ids
        regions = [ep.scene.find(rid) for rid in ep.goal.region_ids]
        in_region = any(
            world.interior_mask(r, np.array([float(place.u)]), np.array([float(place.v)]))[0, 0]
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


def reference_place_scores(kernel, silhouette, reference, grid):
    """The per-rotation loop that stencil scoring replaced, over the whole
    grid: rotate and dedupe the silhouette's offsets from its rounded
    centroid, then sum shifted windows of the zero-padded kernel into float
    hit and value accumulators."""
    rows, cols = np.nonzero(silhouette)
    offsets = np.stack([rows - int(round(rows.mean())), cols - int(round(cols.mean()))], axis=1)
    h, w = grid.height, grid.width
    out = np.zeros((grid.rotations, h, w))
    for r in range(grid.rotations):
        c, s = math.cos(grid.angle(r)), math.sin(grid.angle(r))
        du = offsets[:, 0] * c - offsets[:, 1] * s
        dv = offsets[:, 0] * s + offsets[:, 1] * c
        rotated = np.unique(np.stack([np.rint(du), np.rint(dv)], axis=1).astype(int), axis=0)
        n = len(rotated)
        pad = int(np.abs(rotated).max(initial=0)) + 1
        padded = np.pad(kernel, pad)
        hits = np.zeros((h, w))
        sums = np.zeros((h, w))
        for a, b in rotated:
            window = padded[pad + a: pad + h + a, pad + b: pad + w + b]
            hits += window > 0
            sums += window
        out[r] = reference * ((hits / n) * (sums / n))
    return out


def reference_component(mask, seed):
    """The breadth-first fill that _component replaced: a deque of (row,
    col) pairs, bounds-checked 4-neighbours, one numpy read per neighbour."""
    out = np.zeros_like(mask)
    h, w = mask.shape
    if not mask[seed]:
        out[seed] = True
        return out
    queue = deque([seed])
    out[seed] = True
    while queue:
        u, v = queue.popleft()
        for du, dv in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nu, nv = u + du, v + dv
            if 0 <= nu < h and 0 <= nv < w and mask[nu, nv] and not out[nu, nv]:
                out[nu, nv] = True
                queue.append((nu, nv))
    return out


@st.composite
def component_cases(draw):
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    mask = draw(arrays(np.bool_, (h, w)))
    u, v = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
    # Most seeds are moved onto one border, where a bounds check would matter.
    edge = draw(st.sampled_from((None, "top", "bottom", "left", "right")))
    return mask, ({"top": 0, "bottom": h - 1}.get(edge, u), {"left": 0, "right": w - 1}.get(edge, v))


@settings(deadline=None)
@given(component_cases())
@example((np.ones((1, 7), dtype=bool), (0, 6)))
@example((np.ones((7, 1), dtype=bool), (0, 0)))
@example((np.zeros((3, 3), dtype=bool), (1, 1)))
@example((np.eye(5, dtype=bool) | np.eye(5, dtype=bool)[::-1], (4, 4)))
def test_component_matches_breadth_first_fill(case):
    """The fill's cells are the breadth-first fill's np.nonzero: the same
    rows and columns in row-major order."""
    mask, seed = case
    got, want = _component(mask, seed), np.nonzero(reference_component(mask, seed))
    assert len(got) == 2
    for g, w in zip(got, want):
        assert g.dtype.kind == "i" and np.array_equal(g, w)


def test_component_from_every_border_seed():
    """Seeds on each border cell, on and off the mask, of 1 x n, n x 1 and
    wider masks."""
    rng = np.random.default_rng(5)
    for h, w in ((1, 1), (1, 9), (9, 1), (2, 2), (6, 8)):
        mask = rng.random((h, w)) < 0.7
        for u in range(h):
            for v in range(w):
                if u in (0, h - 1) or v in (0, w - 1):
                    assert np.array_equal(_component(mask, (u, v)),
                                          np.nonzero(reference_component(mask, (u, v))))


def reference_erode(mask):
    """The one 4-neighbour erosion that _step(mask, np.logical_and)
    replaced; border cells are always dropped."""
    out = mask.copy()
    out[1:, :] &= mask[:-1, :]
    out[:-1, :] &= mask[1:, :]
    out[:, 1:] &= mask[:, :-1]
    out[:, :-1] &= mask[:, 1:]
    out[0, :] = out[-1, :] = False
    out[:, 0] = out[:, -1] = False
    return out


def reference_dilate(mask, px):
    """The px-round 4-neighbour dilation that px _step(mask, np.logical_or)
    rounds replaced."""
    out = mask.copy()
    for _ in range(px):
        grown = out.copy()
        grown[1:, :] |= out[:-1, :]
        grown[:-1, :] |= out[1:, :]
        grown[:, 1:] |= out[:, :-1]
        grown[:, :-1] |= out[:, 1:]
        out = grown
    return out


def reference_depth(mask):
    """Erosion rounds each cell survives, counted in float64."""
    depth = np.zeros(mask.shape, dtype=np.float64)
    cur = mask.copy()
    while cur.any():
        depth += cur
        cur = reference_erode(cur)
    return depth


@st.composite
def bordered_masks(draw):
    """Random masks, most with one whole border row or column set."""
    h, w = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    mask = draw(arrays(np.bool_, (h, w)))
    edge = draw(st.sampled_from((None, "top", "bottom", "left", "right")))
    if edge is not None:
        mask[{"top": np.s_[0], "bottom": np.s_[-1], "left": np.s_[:, 0],
              "right": np.s_[:, -1]}[edge]] = True
    return mask


@settings(max_examples=300, deadline=None)
@given(bordered_masks(), st.integers(0, 3))
@example(np.ones((1, 1), dtype=bool), 2)
@example(np.ones((1, 9), dtype=bool), 1)
@example(np.ones((9, 1), dtype=bool), 3)
@example(np.ones((5, 7), dtype=bool), 0)
def test_step_is_one_erosion_or_dilation_round(mask, px):
    """_step with np.logical_and is the erosion that drops border cells, px
    rounds with np.logical_or are the dilation that stops at the border, and
    the interior depth counts erosion rounds; the input is left as it was."""
    before = mask.copy()
    eroded = executor._step(mask, np.logical_and)
    assert eroded.dtype == bool and np.array_equal(eroded, reference_erode(mask))
    grown = mask
    for _ in range(px):
        grown = executor._step(grown, np.logical_or)
    assert grown.dtype == bool and np.array_equal(grown, reference_dilate(mask, px))
    assert np.array_equal(executor._interior_depth(mask), reference_depth(mask))
    assert np.array_equal(mask, before)


def test_interior_depth_of_a_solid_square_past_255_rounds():
    """A solid 520 x 520 mask survives 260 erosion rounds at its centre; a
    counter of 8 bits would wrap to 4 there."""
    mask = np.ones((520, 520), dtype=bool)
    depth = executor._interior_depth(mask)
    assert depth.max() == 260 and depth[259, 260] == 260
    assert np.array_equal(depth, reference_depth(mask))


def reference_pick(up_obj, kernel, masked):
    """The full-lattice pick that the support window replaced: mask out the
    kernel (containment kinds), scale by a float64 erosion depth whose loop
    drops border cells, take np.argmax and fill the 4-connected silhouette of
    up_obj >= 0.5 from it. Returns the pick map, the pick and the silhouette's
    np.nonzero cells."""
    pick_arr = up_obj * ~kernel if masked else up_obj
    depth = reference_depth(pick_arr >= 0.5)
    if depth.max() > 0:
        pick_arr = pick_arr * (1.0 + depth) / (1.0 + depth.max())
    if pick_arr.max() <= 0.0:
        raise EmptyGrounding("pick map is identically zero")
    u, v = divmod(int(np.argmax(pick_arr)), pick_arr.shape[1])
    return pick_arr, Pose2(u, v, 0), np.nonzero(reference_component(up_obj >= 0.5, (u, v)))


class MapBackend:
    """Grounds each concept word to a fixed map on its own grounding lattice."""

    def __init__(self, maps):
        self.maps = maps
        self.shape = next(iter(maps.values())).shape

    def shape_for(self, scene):
        return self.shape

    def ground(self, scene, concept):
        return GroundingMap(self.maps[concept.word])


@st.composite
def pick_cases(draw):
    """A goal's object and reference maps on a grounding lattice at most the
    pose lattice's size. The object map is nonzero only inside a rectangle
    that often touches one lattice border, or is all zero; with a
    containment kind on equal lattices it sometimes lies wholly inside the
    reference, so the kernel masks the whole pick map to zero."""
    h, w = draw(st.integers(1, 20)), draw(st.integers(1, 24))
    same = draw(st.booleans())
    gh, gw = (h, w) if same else (draw(st.integers(1, h)), draw(st.integers(1, w)))
    r0, c0 = draw(st.integers(0, gh - 1)), draw(st.integers(0, gw - 1))
    r1, c1 = draw(st.integers(r0 + 1, gh)), draw(st.integers(c0 + 1, gw))
    edge = draw(st.sampled_from((None, "top", "bottom", "left", "right")))
    r0, r1 = {"top": (0, r1 - r0), "bottom": (gh - (r1 - r0), gh)}.get(edge, (r0, r1))
    c0, c1 = {"left": (0, c1 - c0), "right": (gw - (c1 - c0), gw)}.get(edge, (c0, c1))
    values = st.sampled_from((0.0, 0.3, 0.5, 0.7, 1.0))
    obj = np.zeros((gh, gw))
    obj[r0:r1, c0:c1] = draw(st.one_of(st.just(1.0), st.just(0.0),
                                       arrays(np.float64, (r1 - r0, c1 - c0), elements=values)))
    relation = draw(st.sampled_from(sorted(DEFAULT_RELATION_KINDS)))
    if same and DEFAULT_RELATION_KINDS[relation] == "surface" and draw(st.booleans()):
        ref = (obj > 0).astype(float)
    else:
        ref = draw(arrays(np.float64, (gh, gw), elements=values))
    return obj, ref, relation, PoseGrid(h, w, 4)


class PickRecorded(Exception):
    pass


def planned_pick(obj, ref, relation, grid):
    """What execute hands to _snap_pick_to_item: the pick, the pick map and
    the silhouette cells (or the EmptyGrounding it raises first)."""
    seen = []

    def record(pick, pick_map, silhouette, ctx):
        seen.append((pick, pick_map.values, silhouette))
        raise PickRecorded

    ctx = ExecutionContext(world.Scene(grid.width, grid.height, ()),
                           MapBackend({"star": obj, "box": ref}), grid)
    with mock.patch.object(executor, "_snap_pick_to_item", record), \
            pytest.raises(PickRecorded):
        execute(make_plan("star", "box", relation), ctx)
    return seen[0]


@settings(max_examples=300, deadline=None)
@given(pick_cases())
@example((np.zeros((5, 6)), np.ones((5, 6)), "left", PoseGrid(5, 6, 4)))
@example((np.pad(np.ones((3, 4)), ((0, 2), (2, 0))), np.pad(np.ones((3, 4)), ((0, 2), (2, 0))),
          "on", PoseGrid(5, 6, 4)))
@example((np.pad(np.ones((3, 4)), ((2, 0), (0, 2))), np.ones((5, 6)), "in", PoseGrid(5, 6, 4)))
@example((np.ones((7, 9)), np.zeros((7, 9)), "front", PoseGrid(7, 9, 4)))
@example((np.ones((4, 4)), np.zeros((4, 4)), "on", PoseGrid(13, 17, 4)))
def test_pick_on_the_window_is_the_full_lattice_pick(case):
    """execute's pick map bytes, pick and silhouette cells are the
    full-lattice computation's, for windows on every border, all-zero maps,
    maps the kernel masks to zero (the same EmptyGrounding message) and the
    directional kinds, which mask nothing."""
    obj, ref, relation, grid = case
    up_obj = resample(GroundingMap(obj), grid.height, grid.width).values
    up_ref = resample(GroundingMap(ref), grid.height, grid.width).values
    kernel = reference_relation_kernel(up_ref, relation).astype(bool)
    masked = DEFAULT_RELATION_KINDS[relation] in ("interior", "surface")
    try:
        want_map, want_pick, want_cells = reference_pick(up_obj, kernel, masked)
    except EmptyGrounding as exc:
        with pytest.raises(EmptyGrounding, match=f"^{exc}$"):
            planned_pick(obj, ref, relation, grid)
        return
    pick, pick_map, cells = planned_pick(obj, ref, relation, grid)
    assert pick == want_pick
    assert pick_map.dtype == want_map.dtype and pick_map.shape == want_map.shape
    assert pick_map.tobytes() == want_map.tobytes()
    assert len(cells) == 2 and all(np.array_equal(g, w) for g, w in zip(cells, want_cells))


@st.composite
def place_cases(draw):
    h, w = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    kernel = draw(arrays(np.bool_, (h, w)))
    # Mostly sparse references, as goal regions are, with exact zeros.
    reference = draw(arrays(np.float64, (h, w), elements=st.one_of(
        st.just(0.0), st.just(0.0), st.floats(0.0, 1.0))))
    # The silhouette lives on its own grid, up to 12 cells across, so its
    # offsets often reach past the kernel grid's edge.
    sh, sw = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    mask = draw(arrays(np.bool_, (sh, sw)))
    seed = (draw(st.integers(0, sh - 1)), draw(st.integers(0, sw - 1)))
    silhouette = reference_component(mask, seed)  # one pixel when seed is off the mask
    grid = PoseGrid(h, w, draw(st.sampled_from((1, 4, 12))))
    return kernel, silhouette, reference, grid


@settings(deadline=None)
@given(place_cases())
@example((np.ones((3, 3), dtype=bool), np.ones((1, 1), dtype=bool), np.ones((3, 3)),
          PoseGrid(3, 3, 1)))
@example((np.eye(4, dtype=bool), np.ones((7, 3), dtype=bool), np.full((4, 4), 0.5),
          PoseGrid(4, 4, 12)))
@example((np.ones((5, 5), dtype=bool), np.ones((2, 2), dtype=bool), np.zeros((5, 5)),
          PoseGrid(5, 5, 4)))
def test_place_scores_match_offset_loop(case):
    assert_sparse_scores_match_offset_loop(*case)


def assert_sparse_scores_match_offset_loop(kernel, silhouette, reference, grid):
    """The sparse scores of the silhouette mask's cells sit on the
    reference's nonzero cells, row-major, and written onto a zero grid they
    are the offset loop's grid exactly."""
    (rows, cols), scores = _place_scores(kernel, np.nonzero(silhouette), reference, grid)
    assert np.array_equal((rows, cols), np.nonzero(reference > 0))
    dense = np.zeros((grid.rotations, grid.height, grid.width))
    dense[:, rows, cols] = scores
    assert np.array_equal(dense, reference_place_scores(kernel, silhouette, reference, grid))


@pytest.mark.parametrize("window_cells", [1, 100, 1 << 12, 1 << 18])
def test_place_scores_gather_windows_in_chunks(monkeypatch, window_cells):
    """Gathering the kernel windows of one cell, of a few (4 cells of 9 x 9
    windows at 12 rotations for 1 << 12), or of all at a time gives the
    offset loop's scores too."""
    monkeypatch.setattr(executor, "WINDOW_CELLS", window_cells)
    rng = np.random.default_rng(3)
    kernel = rng.random((20, 24)) < 0.6
    reference = np.where(rng.random((20, 24)) < 0.5, rng.random((20, 24)), 0.0)
    assert_sparse_scores_match_offset_loop(kernel, np.ones((7, 5), dtype=bool), reference,
                                           PoseGrid(20, 24, 12))


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(("disc", "block", "star", "hexagon", "letter-l")),
       st.floats(2.0, 6.0), st.floats(0.0, 2 * math.pi), st.integers(8, 24),
       st.sampled_from((1, 4, 8, 12)), st.booleans(), st.sampled_from(("box", "bowl")))
@example("disc", 3.0, 0.0, 20, 12, True, "box")
@example("disc", 3.0, 0.0, 20, 4, True, "bowl")
def test_execute_place_is_the_place_map_argmax(shape, size, angle, row, rotations, full,
                                               container):
    """execute's place is select_place over the dense place_map, the first
    maximum in (r, u, v) order, also when rotations and cells tie (a bowl's
    tied cells are no rectangle, so their first in row-major order is not
    their first in column-major order). A disc at an integer centre on the
    full-resolution lattice scores the same at every quarter turn."""
    receptacle = world.SceneObject(1, world.CONTAINER, container, "orange", 44.0, 20.0,
                                   size=11.0)
    item = world.SceneObject(2, world.ITEM, shape, "blue", 12.0, float(row), angle, size)
    scene = world.Scene(64, 40, (receptacle, item))
    backend = OracleBackend((40, 64) if full else None)
    result = execute(make_plan(shape, container),
                     ExecutionContext(scene, backend, PoseGrid(40, 64, rotations)))
    place_map = result.place_map
    assert result.params.place == select_place(place_map)
    r, u, v = np.argwhere(place_map == place_map.max())[0]
    assert result.params.place == Pose2(u, v, r)
    if (shape, angle, full) == ("disc", 0.0, True) and rotations % 4 == 0:
        quarters = place_map[::rotations // 4]
        assert all(np.array_equal(quarters[0], plane) for plane in quarters)


def test_pick_place_goal_builds_no_dense_place_grid():
    """A 512 x 512 scene with 72 rotations: the dense grid would be 151 MB of
    float64, but planning keeps R scores per support cell, so one pick-place
    goal peaks far below it; reading place_map then builds the grid."""
    box = world.SceneObject(1, world.CONTAINER, "box", "orange", 320.0, 256.0, size=24.0)
    star = world.SceneObject(2, world.ITEM, "star", "blue", 120.0, 256.0, size=16.0)
    grid = PoseGrid(512, 512, 72)
    ctx = ExecutionContext(world.Scene(512, 512, (box, star)), OracleBackend(), grid)
    tracemalloc.start()
    try:
        result = execute(make_plan("star", "box"), ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert result.place_scores.shape == (72, len(result.place_cells[0]))
    assert result.place_map.shape == (72, 512, 512)
    assert select_place(result.place_map) == result.params.place


def manhattan_dilate(mask, px):
    """Every cell within px 4-neighbour steps of a set cell of mask: the
    union of mask shifted by every offset of L1 length <= px, cut at the
    lattice border."""
    h, w = mask.shape
    out = np.zeros_like(mask)
    for du in range(-px, px + 1):
        for dv in range(abs(du) - px, px - abs(du) + 1):
            out[max(du, 0):h + min(du, 0), max(dv, 0):w + min(dv, 0)] |= \
                mask[max(-du, 0):h + min(-du, 0), max(-dv, 0):w + min(-dv, 0)]
    return out


def reference_clear_of_items(kernel, scene, exclude):
    """The full-lattice definition: the kernel minus the OBSTACLE_PAD_PX
    dilation of the union of every other item's fresh footprint raster."""
    items = np.zeros((scene.height, scene.width), dtype=bool)
    for obj in scene.objects:
        if obj.kind == world.ITEM and obj is not exclude:
            items |= world.footprint_mask(obj, *pixel_axes(scene.height, scene.width))
    return kernel & ~manhattan_dilate(items, executor.OBSTACLE_PAD_PX)


@st.composite
def clearance_cases(draw):
    """A kernel on a small lattice, set only inside a random rectangle (often
    on the border, sometimes empty), and items of any shape and turn. Some
    items are rings or bowls of integer size at integer centres, so their
    footprint or reach window often begins or ends exactly on, or next to,
    an edge of the kernel's padded box; a few objects are zones, which never
    block."""
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 32))
    r0, c0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
    r1, c1 = draw(st.integers(r0 + 1, h)), draw(st.integers(c0 + 1, w))
    kernel = np.zeros((h, w), dtype=bool)
    kernel[r0:r1, c0:c1] = draw(st.one_of(st.just(True), arrays(np.bool_, (r1 - r0, c1 - c0))))
    rows, cols = np.nonzero(kernel)
    pad = executor.OBSTACLE_PAD_PX
    box = ((max(rows.min() - pad, 0), min(rows.max() + pad + 1, h)) if len(rows) else (r0, r1),
           (max(cols.min() - pad, 0), min(cols.max() + pad + 1, w)) if len(cols) else (c0, c1))
    objects = []
    for oid in range(1, draw(st.integers(0, 5)) + 1):
        angle = draw(st.one_of(st.just(0.0), st.floats(-2 * math.pi, 2 * math.pi)))
        kind = draw(st.sampled_from((world.ITEM, world.ITEM, world.ITEM, world.ZONE)))
        if draw(st.booleans()):
            shape, size = draw(st.sampled_from(("ring", "bowl"))), draw(st.integers(1, 4))
            # Unit radius 1: the footprint's and the window's edges are integers.
            y, x = (float(draw(st.one_of(
                st.integers(max(lo - 3, -4), min(hi + 2, n + 4)),
                st.builds(sum, st.tuples(st.sampled_from((lo - 1, lo, hi - 1, hi)),
                                         st.sampled_from((-size - 1, -size, size, size + 1)))))))
                for n, (lo, hi) in ((h, box[0]), (w, box[1])))
            size = float(size)
        else:
            shape, size = draw(st.sampled_from(world.SHAPE_NAMES)), draw(st.floats(0.5, 8.0))
            y, x = draw(st.floats(-8.0, h + 8.0)), draw(st.floats(-8.0, w + 8.0))
        objects.append(world.SceneObject(oid, kind, shape, "red", x, y, angle=angle, size=size))
    scene = world.Scene(w, h, tuple(objects))
    exclude = draw(st.one_of(st.none(), st.sampled_from(objects))) if objects else None
    return kernel, scene, exclude


@settings(deadline=None, max_examples=300)
@given(clearance_cases())
@example((np.zeros((6, 8), dtype=bool),
          world.Scene(8, 6, (world.SceneObject(1, world.ITEM, "disc", "red", 3.0, 3.0),)), None))
@example((np.ones((6, 8), dtype=bool),
          world.Scene(8, 6, (world.SceneObject(1, world.ITEM, "ring", "red", 0.0, 7.0,
                                               size=3.0),)), None))
@example((np.pad(np.ones((3, 3), dtype=bool), ((2, 3), (2, 9))),
          world.Scene(14, 8, (world.SceneObject(1, world.ITEM, "ring", "red", 8.0, 3.0,
                                                size=2.0),)), None))
def test_clear_of_items_matches_full_lattice_definition(case):
    """Clearing on the kernel's padded box equals clearing the full lattice
    with every other item's footprint, and leaves the kernel unchanged."""
    kernel, scene, exclude = case
    before = kernel.copy()
    out = executor._clear_of_items(kernel, scene, exclude)
    assert out.dtype == bool
    assert np.array_equal(out, reference_clear_of_items(kernel, scene, exclude))
    assert np.array_equal(kernel, before)


@pytest.mark.parametrize("picked", [False, True])
def test_clear_of_items_rasterizes_only_items_near_the_kernel(monkeypatch, picked):
    """The kernel's padded box is rows and columns 8..16. A ring whose reach
    window (reach 4) begins on the box's last row is rasterized; one whose
    window ends just before the box's first row, a far one and the picked
    item are not; with no item near, the kernel itself comes back."""
    rasterized = []
    footprint_mask = world.footprint_mask
    monkeypatch.setattr(world, "footprint_mask",
                        lambda obj, *args: rasterized.append(obj.id) or footprint_mask(obj, *args))
    ring = functools.partial(world.SceneObject, kind=world.ITEM, shape="ring", color="red",
                             size=3.0)
    below, above = ring(1, x=12.0, y=20.0), ring(2, x=12.0, y=4.0)
    far, on_kernel = ring(3, x=100.0, y=12.0), ring(4, x=12.0, y=12.0)
    scene = world.Scene(128, 64, (below, above, far, on_kernel))
    kernel = np.zeros((64, 128), dtype=bool)
    kernel[10:15, 10:15] = True
    exclude = on_kernel if picked else None
    out = executor._clear_of_items(kernel, scene, exclude)
    assert rasterized == ([1] if picked else [1, 4])
    assert executor._clear_of_items(kernel, world.Scene(128, 64, (above, far)), None) is kernel
    assert rasterized == ([1] if picked else [1, 4])
    assert np.array_equal(out, reference_clear_of_items(kernel, scene, exclude))


def test_pick_place_keeps_its_place_clear_of_a_resident_item():
    """A box already holds a star in its top-left corner, where the first
    row-major full overlap of the box's kernel would lie without the pad; the
    placed hexagon's footprint is more than OBSTACLE_PAD_PX 4-neighbour
    steps from the star's."""
    box = world.SceneObject(1, world.CONTAINER, "box", "orange", 90.0, 32.0, size=14.0)
    star = world.SceneObject(2, world.ITEM, "star", "red", 76.0, 22.0, size=4.0)
    hexagon = world.SceneObject(3, world.ITEM, "hexagon", "blue", 30.0, 30.0, size=4.0)
    scene = world.Scene(128, 64, (box, star, hexagon))
    result = execute(make_plan("hexagon", "box"),
                     ExecutionContext(scene, OracleBackend(), PoseGrid(64, 128, 12)))
    after, moved = world.apply_pick_place(scene, result.params)
    placed = after.find(3)
    assert moved and world.inside(box, placed.y, placed.x)
    steps = np.abs(np.argwhere(placed.mask((64, 128)))[:, None]
                   - np.argwhere(star.mask((64, 128)))[None]).sum(axis=2)
    assert steps.min() >= executor.OBSTACLE_PAD_PX + 1


def test_push_onto_its_own_centroid_starts_there():
    """When the support's centroid is the silhouette's, the push has no
    direction: pre- and post-push poses are both the shared centroid cell."""
    grid = PoseGrid(9, 11, 12)
    mask = np.zeros((9, 11), dtype=bool)
    mask[3:6, 4:7] = True
    params, pick_map, cells, scores = executor._push_params(np.nonzero(mask), mask, grid)
    assert params == ControlParams(Pose2(4, 5), Pose2(4, 5), PUSH)
    assert np.flatnonzero(pick_map.values).tolist() == [4 * 11 + 5]
    assert [c.tolist() for c in cells] == [[4], [5]]
    assert np.array_equal(scores, np.eye(12, 1))


def test_push_into_a_crowded_zone_falls_back_to_the_raw_kernel():
    """Grounded on the pixel lattice, the zone's kernel is 3 x 3 cells, and a
    one-cell disc sits on its centre: the disc covers one kernel cell and its
    pad covers them all, so the push goes to the raw kernel's centroid, that
    centre cell."""
    zone = world.SceneObject(1, world.ZONE, "square", "green", 100.0, 32.0, size=4.0)
    resident = world.SceneObject(2, world.ITEM, "disc", "blue", 100.0, 32.0, size=0.5)
    block = world.SceneObject(3, world.ITEM, "block", "red", 40.0, 32.0, size=3.4)
    scene = world.Scene(128, 64, (zone, resident, block))
    result = execute(make_plan("red", "green", action="push"),
                     ExecutionContext(scene, OracleBackend((64, 128)), PoseGrid(64, 128, 12)))
    kernel = relation_kernel(zone.mask((64, 128)).astype(float), "in", RelationConfig())
    assert np.array_equal(np.argwhere(kernel), [(u, v) for u in (31, 32, 33) for v in (99, 100, 101)])
    assert (kernel & resident.mask((64, 128))).sum() == 1
    assert not executor._clear_of_items(kernel, scene, block).any()
    assert result.params.place == Pose2(32, 100, 0)
