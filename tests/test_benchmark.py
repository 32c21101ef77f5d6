import dataclasses
import functools
import gc
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tablang import benchmark as bm
from tablang import ccg, dsl, world
from tablang.backends import EmbeddingBackend, OracleBackend, make_backend
from tablang.benchmark import (
    TASK_NAMES,
    Episode,
    GoalInfo,
    OutOfGrid,
    TaskSpec,
    generate_episode,
    imitation_loss,
    report_table,
    report_to_json,
    run_suite,
    score_success,
)
from tablang.executor import (
    DEFAULT_RELATION_KINDS,
    PUSH,
    PUSH_VERB,
    ControlParams,
    EmptyGrounding,
    ExecutionResult,
    NoFeasiblePlace,
    Pose2,
    PoseGrid,
    select_pick,
)
from tablang.grounding import GroundingMap, ProjectionWeights, axis_coords, resample


@pytest.fixture(scope="module")
def lex():
    return ccg.default_lexicon()


def test_task_spec_validation():
    with pytest.raises(ValueError):
        TaskSpec("towers_of_hanoi")
    with pytest.raises(ValueError):
        TaskSpec("packing_shapes", "validation")


def test_split_pools_disjoint_except_shared():
    seen = set(bm.SEEN_COLORS)
    unseen = set(bm.UNSEEN_COLORS)
    assert seen & unseen == set(bm.SHARED_COLORS)
    assert not set(bm.SEEN_SHAPES) & set(bm.UNSEEN_SHAPES)


def test_generate_episode_deterministic():
    for name in ("packing_shapes", "separating_piles", "put_blocks_in_bowls"):
        a = generate_episode(TaskSpec(name), 7)
        b = generate_episode(TaskSpec(name), 7)
        assert a.instruction == b.instruction
        assert world.scene_to_dict(a.scene) == world.scene_to_dict(b.scene)
        assert a.expert == b.expert
        c = generate_episode(TaskSpec(name), 8)
        assert world.scene_to_dict(c.scene) != world.scene_to_dict(a.scene)


def test_generate_episode_leaves_no_cyclic_garbage(monkeypatch):
    """A retried builder failure is kept as its message, not as the
    exception, whose traceback would hold generate_episode's own frame."""
    build = bm._BUILDERS["separating_piles"]
    failures = []

    def counted(*args):
        try:
            return build(*args)
        except bm.GenerationFailure as exc:
            failures.append(str(exc))
            raise

    monkeypatch.setitem(bm._BUILDERS, "separating_piles", counted)
    gc.disable()
    try:
        gc.collect()
        generate_episode(TaskSpec("separating_piles"), 5)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert failures


def test_packing_shapes_structure():
    ep = generate_episode(TaskSpec("packing_shapes"), 7)
    items = [o for o in ep.scene.objects if o.kind == world.ITEM]
    boxes = [o for o in ep.scene.objects if o.kind == world.CONTAINER]
    assert len(items) == 5
    assert len({o.shape for o in items}) == 5
    assert len(boxes) == 1 and boxes[0].color == "brown"
    named = [o for o in items if o.shape in ep.instruction]
    assert ep.instruction == f"pack the {named[0].shape} in the brown box"


def test_pushing_shapes_instruction_template():
    import re

    pattern = re.compile(
        r"^push the (\w+) ([\w-]+) into the (left|right) (\w+) square$"
    )
    for seed in range(8):
        ep = generate_episode(TaskSpec("pushing_shapes"), seed)
        m = pattern.match(ep.instruction)
        assert m, ep.instruction
        color, shape, loc, zone_color = m.groups()
        target = ep.scene.find(ep.goal.target_ids[0])
        zone = ep.scene.find(ep.goal.region_ids[0])
        assert (color, shape) == (target.color, target.shape)
        assert zone_color == zone.color and loc in zone.attributes


def test_expert_replay_scores_one_sampler():
    rng = np.random.default_rng(0)
    for name in bm.TASK_NAMES:
        for seed in rng.integers(0, 500, size=4):
            task = TaskSpec(name)
            ep = generate_episode(task, int(seed))
            final = bm._replay(ep.scene, ep.expert)
            assert score_success(task, final, ep) == 1.0


def test_unseen_split_vocabulary_discipline(lex):
    """Unseen-split instructions may reuse lexicon words only for structure
    (determiners, verbs, relations, receptacles, locations, the shared three
    colors) or to name non-target reference objects; the specified object's
    own descriptors must be novel."""
    structural = {
        "the", "a", "an", "of", "pile", "in", "into", "on",
        "pack", "put", "push", "move", "place", "and",
        "box", "bowl", "square", "zone", "shape", "block", "blocks",
        "brown",  # the fixed receptacle phrase "brown box" appears in every split
        "left", "right", "top", "bottom",
    } | set(bm.SHARED_COLORS)
    for name in bm.TASK_NAMES:
        for seed in range(5):
            ep = generate_episode(TaskSpec(name, "unseen"), seed)
            tokens = set(ccg.tokenize(ep.instruction, lex))
            references = {o.shape for o in ep.scene.objects
                          if o.id not in ep.goal.target_ids}
            leaked = (tokens & lex.vocabulary) - structural - references
            assert not leaked, (name, ep.instruction, leaked)
            targets = [ep.scene.find(tid) for tid in ep.goal.target_ids]
            for obj in targets:
                assert obj.shape not in lex.vocabulary or obj.shape == "block"


def test_unseen_split_has_novel_words(lex):
    ep = generate_episode(TaskSpec("packing_color_box", "unseen"), 0)
    tokens = set(ccg.tokenize(ep.instruction, lex))
    assert tokens - lex.vocabulary


def test_score_fraction_bowls():
    bowls = [world.SceneObject(i, world.CONTAINER, "bowl", "blue",
                               20.0 + 18 * i, 20.0, size=6.0) for i in range(1, 5)]
    blocks = [world.SceneObject(10 + i, world.ITEM, "block", "green",
                                20.0 + 18 * i, 50.0, size=3.4, attributes=("blocks",))
              for i in range(4)]
    scene = world.Scene(128, 64, tuple(bowls + blocks))
    episode = Episode(scene, "", (), GoalInfo("bowls", tuple(b.id for b in blocks),
                                              tuple(b.id for b in bowls)),
                      4, "put_blocks_in_bowls", "seen", 0)
    task = TaskSpec("put_blocks_in_bowls")
    assert score_success(task, scene, episode) == 0.0
    moved = scene
    for i in range(3):
        params = ControlParams(Pose2(50, 20 + 18 * (i + 1), 0),
                               Pose2(20, 20 + 18 * (i + 1), 0), "pick_place")
        moved, ok = world.apply_pick_place(moved, params)
        assert ok
    assert score_success(task, moved, episode) == pytest.approx(0.75)
    # the last block joins an occupied bowl: capacity one, so no extra credit
    params = ControlParams(Pose2(50, 20, 0), Pose2(20, 38, 0), "pick_place")
    moved, ok = world.apply_pick_place(moved, params)
    assert ok
    assert score_success(task, moved, episode) == pytest.approx(0.75)


def test_score_untouched_packing_is_zero():
    task = TaskSpec("packing_shapes")
    ep = generate_episode(task, 3)
    assert score_success(task, ep.scene, ep) == 0.0


def old_containment(scene, target_id, region):
    """The containment score as first written: footprint fraction first,
    from fresh rasters, then the centre."""
    obj = scene.find(target_id)
    ys, xs = axis_coords(scene.height, scene.height), axis_coords(scene.width, scene.width)
    foot = world.footprint_mask(obj, ys, xs)
    if not foot.any():
        return 0.0
    frac = float((foot & world.interior_mask(region, ys, xs)).sum()) / int(foot.sum())
    return 1.0 if (frac >= 0.9 and world.inside(region, obj.y, obj.x)) else 0.0


@st.composite
def containment_cases(draw):
    """A container or zone of any pose and a target item near it."""
    shape = draw(st.sampled_from(world.SHAPE_NAMES))
    kind = draw(st.sampled_from((world.CONTAINER, world.ZONE) if shape in ("box", "bowl")
                                else (world.ZONE,)))
    angle = lambda: draw(st.one_of(st.just(0.0), st.floats(-2 * math.pi, 2 * math.pi)))
    region = world.SceneObject(1, kind, shape, "green", draw(st.floats(20.0, 108.0)),
                               draw(st.floats(15.0, 49.0)), angle=angle(),
                               size=draw(st.floats(3.0, 14.0)))
    offset = st.floats(-region.reach, region.reach)
    target = world.SceneObject(2, world.ITEM, draw(st.sampled_from(world.SHAPE_NAMES)), "red",
                               region.x + draw(offset), region.y + draw(offset),
                               angle=angle(), size=draw(st.floats(1.0, 8.0)))
    return world.Scene(128, 64, (region, target)), region


RING_ZONE = world.SceneObject(1, world.ZONE, "ring", "green", 60.0, 30.0, size=10.0)


@settings(deadline=None, max_examples=300)
@given(containment_cases())
@example((world.Scene(128, 64, (RING_ZONE, dataclasses.replace(RING_ZONE, id=2, kind=world.ITEM))),
          RING_ZONE))
@example((world.Scene(128, 64, (world.SceneObject(1, world.CONTAINER, "box", "green", 60.0, 30.0,
                                                  size=10.0),
                                world.SceneObject(2, world.ITEM, "disc", "red", 61.5, 29.5,
                                                  size=3.0))),
          world.SceneObject(1, world.CONTAINER, "box", "green", 60.0, 30.0, size=10.0)))
def test_containment_tests_the_centre_first(case):
    """Testing the centre before rasterizing scores as the footprint-first
    formula did, also for a ring in a ring zone of the same pose: its whole
    footprint is inside, its centre (the hole) is not."""
    scene, region = case
    assert bm._containment(scene, 2, region) == old_containment(scene, 2, region)


def test_separating_score_monotone():
    task = TaskSpec("separating_piles")
    ep = generate_episode(task, 5)
    zone = ep.scene.find(ep.goal.region_ids[0])
    scene = ep.scene
    prev = score_success(task, scene, ep)
    for tid in ep.goal.target_ids:
        block = scene.find(tid)
        objects = tuple(
            o if o.id != tid else dataclasses.replace(o, x=zone.x, y=zone.y)
            for o in scene.objects
        )
        scene = world.Scene(scene.width, scene.height, objects, scene.rng_seed)
        cur = score_success(task, scene, ep)
        assert cur >= prev
        prev = cur
    assert prev == 1.0


def brute_loss(pick, place, expert):
    def logsoftmax(flat, idx):
        exps = [math.exp(v) for v in flat]
        return math.log(exps[idx] / sum(exps))

    pick_flat = [float(v) for v in np.asarray(pick).ravel()]
    place_flat = [float(v) for v in np.asarray(place).ravel()]
    w = np.asarray(pick).shape[1]
    r_, h, pw = np.asarray(place).shape
    pick_idx = expert.pick.u * w + expert.pick.v
    place_idx = (expert.place.r * h + expert.place.u) * pw + expert.place.v
    return -logsoftmax(pick_flat, pick_idx) - logsoftmax(place_flat, place_idx)


def test_imitation_loss_uniform():
    pick = np.zeros((4, 4))
    place = np.zeros((1, 4, 4))
    expert = ControlParams(Pose2(1, 2, 0), Pose2(0, 0, 0), "pick_place")
    loss = imitation_loss(pick, place, expert)
    assert loss == pytest.approx(2 * math.log(16), abs=1e-12)


def test_imitation_loss_saturated():
    # pick term alone: softmax mass saturates at the +20 expert cell
    pick = np.zeros((2, 2))
    pick[1, 1] = 20.0
    place = np.zeros((1, 2, 2))
    place[0, 0, 0] = 60.0  # drive the place term to ~0 so the pick term remains
    expert = ControlParams(Pose2(1, 1, 0), Pose2(0, 0, 0), "pick_place")
    assert imitation_loss(pick, place, expert) < 1e-8


def test_imitation_loss_matches_oracle():
    rng = np.random.default_rng(13)
    for _ in range(100):
        h, w, r = int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
        pick = rng.normal(size=(h, w))
        place = rng.normal(size=(r, h, w))
        expert = ControlParams(
            Pose2(int(rng.integers(h)), int(rng.integers(w)), 0),
            Pose2(int(rng.integers(h)), int(rng.integers(w)), int(rng.integers(r))),
            "pick_place",
        )
        got = imitation_loss(pick, place, expert)
        want = brute_loss(pick, place, expert)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert got >= 0.0


def test_imitation_loss_out_of_grid():
    with pytest.raises(OutOfGrid):
        imitation_loss(np.zeros((2, 2)), np.zeros((1, 2, 2)),
                       ControlParams(Pose2(5, 0, 0), Pose2(0, 0, 0), "pick_place"))


def test_run_suite_rejects_negative_seed(lex):
    with pytest.raises(ValueError, match="seed must be >= 0"):
        run_suite([TaskSpec("packing_shapes")], 1, OracleBackend(), lex, seed=-1)


def test_run_suite_empty_tasks(lex):
    report = run_suite([], 3, OracleBackend(), lex)
    assert report.per_task == {}
    assert report.episodes == []


def test_run_suite_deterministic_json(lex):
    tasks = [TaskSpec("packing_shapes"), TaskSpec("pushing_shapes")]
    a = run_suite(tasks, 3, OracleBackend(), lex, seed=5)
    b = run_suite(tasks, 3, OracleBackend(), lex, seed=5)
    assert report_to_json(a) == report_to_json(b)
    payload = json.loads(report_to_json(a))
    assert payload["per_task"]["packing_shapes/seen"] == 100.0


def test_run_suite_shares_no_cells_between_lexicons(lex):
    """Each lexicon keeps its own chart-cell memo, so two lexicons never share
    cells. A heavier "the" makes \\x.x the likeliest reading of a novel color
    word, so packing_color_box on the unseen split fails; each lexicon's
    report is the same alone as before or after a suite under the other."""
    text = (Path(ccg.__file__).parent / "data" / "lexicon.txt").read_text()
    assert "the\tN/N\t\\x.x\n" in text
    heavy = ccg.Lexicon.from_string(text.replace("the\tN/N\t\\x.x\n", "the\tN/N\t\\x.x\t40\n"))
    tasks = [TaskSpec("packing_color_box", "unseen")]

    def report(lexicon):
        return report_to_json(run_suite(tasks, 2, OracleBackend(), lexicon))

    alone = {"default": report(lex), "heavy": report(heavy)}
    assert json.loads(alone["default"])["per_task"] == {"packing_color_box/unseen": 100.0}
    assert json.loads(alone["heavy"])["per_task"] == {"packing_color_box/unseen": 0.0}
    assert report(lex) == alone["default"]
    assert report(heavy) == alone["heavy"]
    assert report(lex) == alone["default"]


def test_a_second_suite_with_one_lexicon_combines_nothing(monkeypatch):
    """The lexicon keeps its chart cells between run_suite calls: a second
    suite over the same instructions applies no semantics and reports the same bytes."""
    lexicon = ccg.default_lexicon()
    tasks = [TaskSpec("packing_shapes", "unseen"), TaskSpec("pushing_shapes")]
    first = report_to_json(run_suite(tasks, 2, OracleBackend(), lexicon))
    applied = []
    apply_sem = ccg.apply_sem
    monkeypatch.setattr(ccg, "apply_sem", lambda fn, arg: applied.append(fn) or apply_sem(fn, arg))
    assert report_to_json(run_suite(tasks, 2, OracleBackend(), lexicon)) == first
    assert applied == []
    assert report_to_json(run_suite(tasks, 2, OracleBackend(), ccg.default_lexicon())) == first
    assert applied


def test_run_suite_records_parse_failures():
    tiny = ccg.Lexicon.from_string("pack\t(S/PP)/N\t\\o.\\p.do(p(o), pack)\n")
    report = run_suite([TaskSpec("packing_shapes")], 2, OracleBackend(), tiny)
    assert report.per_task["packing_shapes/seen"] == 0.0
    assert all(ep["failure"] == "parse" for ep in report.episodes)


def test_run_suite_records_feature_width_mismatch(lex):
    narrow = EmbeddingBackend(weights=ProjectionWeights(np.eye(2), np.eye(2)))
    report = run_suite([TaskSpec("packing_shapes")], 2, narrow, lex)
    assert report.per_task["packing_shapes/seen"] == 0.0
    assert [ep["failure"] for ep in report.episodes] == ["grounding", "grounding"]


def test_suite_never_builds_the_dense_place_grid(lex, monkeypatch):
    """Only reading ExecutionResult.place_map builds the (R, H, W) grid; the
    step loop of run_suite never reads it, on pick-place and push goals."""
    def refuse(result):
        raise AssertionError("place_map was read")
    monkeypatch.setattr(ExecutionResult, "place_map", property(refuse))
    report = run_suite([TaskSpec("packing_shapes"), TaskSpec("pushing_shapes")], 2,
                       OracleBackend(), lex)
    assert [ep["failure"] for ep in report.episodes] == [None] * 4
    assert report.per_task == {"packing_shapes/seen": 100.0, "pushing_shapes/seen": 100.0}


class FirstGroundFails(OracleBackend):
    """Oracle grounding, except that the first ground call raises."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def ground(self, scene, concept):
        self.calls += 1
        if self.calls == 1:
            raise ValueError("first ground call fails")
        return super().ground(scene, concept)


def test_run_suite_records_internal_failures(lex):
    report = run_suite([TaskSpec("packing_shapes")], 3, FirstGroundFails(), lex)
    assert [ep["failure"] for ep in report.episodes] == ["internal", None, None]
    assert report.episodes[0]["error"] == "first ground call fails"
    assert [ep["score"] for ep in report.episodes] == [0.0, 1.0, 1.0]


def test_run_suite_records_generation_failures(lex, monkeypatch):
    """A seed whose episode cannot be generated is recorded as a generation
    failure scoring 0, counted in its task's mean, and the suite goes on."""
    generate = bm.generate_episode

    def fail_seed_1(task, seed):
        if seed == 1:
            raise bm.GenerationFailure("no room for seed 1")
        return generate(task, seed)

    monkeypatch.setattr(bm, "generate_episode", fail_seed_1)
    report = run_suite([TaskSpec("packing_shapes")], 3, OracleBackend(), lex)
    assert report.episodes[1] == {"task": "packing_shapes", "split": "seen", "seed": 1,
                                  "score": 0.0, "failure": "generation",
                                  "error": "no room for seed 1"}
    assert [ep["failure"] for ep in report.episodes] == [None, "generation", None]
    assert [ep["score"] for ep in report.episodes] == [1.0, 0.0, 1.0]
    assert report.per_task == {"packing_shapes/seen": round(100.0 * 2 / 3, 4)}


def test_expert_push_from_the_zone_centre_goes_along_x():
    """An item already on the zone centre has no push direction; the expert
    pushes along +x, from one circumradius behind it to the centre."""
    block = world.SceneObject(1, world.ITEM, "block", "red", 40.0, 30.0, size=3.4)
    params = bm._push_action(block, 40.0, 30.0)
    assert params == ControlParams(Pose2(30, 37), Pose2(30, 40), PUSH)


def test_report_table_format(lex):
    report = run_suite([TaskSpec("packing_shapes")], 2, OracleBackend(), lex)
    table = report_table(report)
    assert "packing_shapes/seen" in table
    assert "100.0" in table


def reference_place(rng, placed, width, height, radius, x_range=None, y_range=None,
                    pad=2.0):
    """The scalar rejection loop: one rng.uniform pair per attempt."""
    x_lo = max(radius + 1.5, x_range[0]) if x_range else radius + 1.5
    x_hi = min(width - 2.5 - radius, x_range[1]) if x_range else width - 2.5 - radius
    y_lo = max(radius + 1.5, y_range[0]) if y_range else radius + 1.5
    y_hi = min(height - 2.5 - radius, y_range[1]) if y_range else height - 2.5 - radius
    if x_hi < x_lo or y_hi < y_lo:
        raise bm.GenerationFailure("placement window is empty")
    for _ in range(bm.PLACE_ATTEMPTS):
        x = float(rng.uniform(x_lo, x_hi))
        y = float(rng.uniform(y_lo, y_hi))
        if all(math.hypot(x - px, y - py) > radius + pr + pad for px, py, pr in placed):
            placed.append((x, y, radius))
            return x, y
    raise bm.GenerationFailure("could not place object without overlap")


def placement_outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except bm.GenerationFailure as exc:
        return "raised", str(exc)


def window(hi):
    """None, an ordered (lo, hi) range or a narrow one; a range may miss
    the part of the workspace that the radius leaves, so the window is
    empty."""
    coord = st.floats(0.0, float(hi))
    ordered = st.tuples(coord, coord).map(lambda t: (min(t), max(t)))
    narrow = st.tuples(coord, st.floats(0.0, 3.0)).map(lambda t: (t[0], t[0] + t[1]))
    return st.one_of(st.none(), ordered, narrow)


def grid(width, height, step, pr, ox, oy):
    """Circles of radius pr on a square grid: crowded, often with no room."""
    return [(ox + x, oy + y, pr) for x in np.arange(0.0, width + step, step).tolist()
            for y in np.arange(0.0, height + step, step).tolist()]


@st.composite
def placements(draw):
    width = draw(st.integers(24, 128))
    height = draw(st.integers(24, 64))
    circle = st.tuples(st.floats(0.0, float(width)), st.floats(0.0, float(height)),
                       st.floats(0.5, 14.0))
    crowded = st.builds(grid, st.just(width), st.just(height), st.floats(6.0, 16.0),
                        st.floats(1.0, 6.0), st.floats(0.0, 4.0), st.floats(0.0, 4.0))
    placed = draw(st.one_of(st.lists(circle, max_size=4), st.lists(circle, max_size=40),
                            crowded))
    return (draw(st.integers(0, 2**32 - 1)), placed, width, height,
            draw(st.floats(0.5, 8.0)), draw(window(width)), draw(window(height)),
            draw(st.sampled_from([2.0, 2.5])))


# (case, the attempt that accepts, None when none does) around the switch
# from the scalar first draws to the chunks (attempts 1-4 scalar, then
# chunks of 16, 64 and 256: attempts 5-20, 21-84, 85-340, ...).
PLACE_BOUNDARIES = [
    ((0, [(64.0, 32.0, 28.0)], 128, 64, 2.0, None, None, 2.0), 1),
    ((24, [(64.0, 32.0, 28.0)], 128, 64, 2.0, None, None, 2.0), 4),
    ((6, [(64.0, 32.0, 28.0)], 128, 64, 2.0, None, None, 2.0), 5),
    ((120, grid(128, 64, 10.0, 3.0, 0.0, 0.0), 128, 64, 2.0, None, None, 2.0), 175),
    ((0, grid(128, 64, 10.0, 3.0, 0.0, 0.0), 128, 64, 2.0, None, None, 2.0), None),
]


@pytest.mark.parametrize("case, attempt", PLACE_BOUNDARIES)
def test_place_boundary_examples_accept_on_their_attempt(case, attempt):
    """Each boundary example's scalar loop draws exactly its attempts' pairs
    (all PLACE_ATTEMPTS of them when it never places)."""
    seed, placed, width, height, radius, x_range, y_range, pad = case
    rng, drawn = np.random.default_rng(seed), np.random.default_rng(seed)
    rng.integers(7)
    drawn.integers(7)
    outcome = placement_outcome(reference_place, rng, list(placed), width, height,
                                radius, x_range, y_range, pad)
    assert outcome[0] == ("raised" if attempt is None else "ok")
    drawn.random(2 * (attempt or bm.PLACE_ATTEMPTS))
    assert rng.bit_generator.state == drawn.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(placements())
@example((0, grid(128, 64, 8.0, 5.0, 0.0, 0.0), 128, 64, 3.4, None, None, 2.5))
@example((1, [], 128, 64, 3.4, (54.0, 54.0), None, 2.0))
@example((2, [], 128, 64, 3.4, (60.0, 50.0), None, 2.0))
@example((3, [(64.0, 32.0, 8.0)], 128, 64, 5.0, None, (30.0, 34.0), 2.0))
@example(PLACE_BOUNDARIES[0][0])  # accepts on attempt 1
@example(PLACE_BOUNDARIES[1][0])  # on the last scalar attempt
@example(PLACE_BOUNDARIES[2][0])  # on the first chunked attempt
@example(PLACE_BOUNDARIES[3][0])  # deep inside the 256-chunk
@example(PLACE_BOUNDARIES[4][0])  # never places
def test_place_matches_scalar_loop(case):
    """The chunked placement returns the scalar loop's point (or raises its
    error), leaves the generator in the same state, and keeps the buffered
    32-bit half that rng.integers(7) leaves pending."""
    seed, placed, width, height, radius, x_range, y_range, pad = case
    rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    rng_ref.integers(7)
    rng.integers(7)
    want_placed = list(placed)
    want = placement_outcome(reference_place, rng_ref, want_placed, width, height,
                             radius, x_range, y_range, pad)
    placer = bm._Placer(rng, width, height)
    placer.placed = list(placed)
    got = placement_outcome(placer.place, radius, x_range, y_range, pad)
    assert got == want
    assert placer.placed == want_placed
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    assert rng.integers(2**31) == rng_ref.integers(2**31)


# --------------------------------------------------------------------------
# Random well-typed programs through the engine


RELATION_WORDS = sorted(DEFAULT_RELATION_KINDS)


@functools.lru_cache(maxsize=None)
def generated_scene(name, split, seed):
    return generate_episode(TaskSpec(name, split), seed).scene


@st.composite
def random_objects(draw, words, depth):
    """An Object program over words, shaped like test_dsl.random_object."""
    def prop():
        return dsl.ConceptToken(draw(st.sampled_from(words)), dsl.PROPERTY)

    if depth <= 0:
        return dsl.Filter(dsl.Scene(), prop())
    k = draw(st.integers(0, 3))
    if k == 0:
        return dsl.Scene()
    if k == 1:
        return dsl.Filter(draw(random_objects(words, depth - 1)), prop())
    a, b = draw(random_objects(words, depth - 1)), draw(random_objects(words, depth - 1))
    if k == 2:
        return dsl.ObjUnion(a, b)
    return dsl.Relate(a, b, dsl.ConceptToken(draw(st.sampled_from(RELATION_WORDS)),
                                             dsl.RELATION))


@st.composite
def random_plans(draw, words, depth):
    """A Plan program over words, shaped like test_dsl.random_plan."""
    if depth > 0 and draw(st.integers(0, 3)) == 0:
        return dsl.ActionConcat(draw(random_plans(words, depth - 1)),
                                draw(random_plans(words, depth - 1)))
    goal = dsl.Goal(draw(random_objects(words, depth - 1)), draw(random_objects(words, depth - 1)),
                    dsl.ConceptToken(draw(st.sampled_from(RELATION_WORDS)), dsl.RELATION))
    return dsl.Do(goal, dsl.ConceptToken(draw(st.sampled_from(("pack", "put", "push"))),
                                         dsl.ACTION))


@pytest.mark.parametrize("backend", ["oracle", "embedding"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_programs_step_cleanly(backend, data):
    """A random program over a generated scene's own words and every relation
    word either steps or raises EmptyGrounding or NoFeasiblePlace. It gives
    one result per goal; each pick-place goal picks its recorded pick map's
    argmax and scores no place off the upsampled reference, and the stepped
    scene stays in bounds. Every goal's recorded maps, built unchecked by
    the algebra, are ones the public constructor accepts: float64, 2-d,
    finite, in [0, 1] and read-only."""
    scene = generated_scene(data.draw(st.sampled_from(TASK_NAMES)),
                            data.draw(st.sampled_from(("seen", "unseen"))),
                            data.draw(st.integers(0, 2)))
    program = data.draw(random_plans(world.attribute_vocabulary(scene), 2))
    grid = PoseGrid(scene.height, scene.width)
    try:
        results, after = bm.step(program, scene, make_backend(backend), grid)
    except (EmptyGrounding, NoFeasiblePlace):
        return
    world.check_bounds(after)
    goals = dsl.goals(program)
    assert len(results) == len(goals)
    for goal, result in zip(goals, results):
        for m in [*result.intermediates.values(), result.pick_map]:
            v = m.values
            assert v.dtype == np.float64 and v.ndim == 2 and not v.flags.writeable
            assert np.all(np.isfinite(v)) and v.min() >= 0.0 and v.max() <= 1.0
            assert np.array_equal(GroundingMap(v).values, v)
        if goal.action.word != PUSH_VERB:
            assert result.params.pick == select_pick(result.pick_map)
            up_ref = resample(result.intermediates["0.0.1"], grid.height, grid.width).values
            assert not result.place_map[:, up_ref == 0.0].any()


@pytest.mark.parametrize("backend", ["oracle", "embedding"])
def test_episode_rasterizes_each_object_once_per_lattice(backend, lex, monkeypatch):
    """Through each task's episode at seed 1 (up to eight steps), no object
    instance is rasterized twice on one lattice: unmoved objects are shared
    between the scenes of an episode and reuse their masks. check_bounds'
    one-pixel ring outside the workspace (samples at -1) is not memoized."""
    seen: dict = {}
    keep = []  # holds every rasterized object, so no id() is reused
    for name in ("footprint_mask", "interior_mask"):
        fn = getattr(world, name)

        def counted(obj, ys, xs, name=name, fn=fn):
            if not (ys[0] < 0 or xs[0] < 0):
                key = (name, id(obj), ys.tobytes(), xs.tobytes())
                seen[key] = seen.get(key, 0) + 1
                keep.append(obj)
            return fn(obj, ys, xs)
        monkeypatch.setattr(world, name, counted)
    steps = 0
    for task in TASK_NAMES:
        record = bm.run_episode(generate_episode(TaskSpec(task), 1), make_backend(backend), lex)
        assert record["failure"] is None
        steps += record["steps"]
    assert steps > len(TASK_NAMES)
    assert seen and max(seen.values()) == 1
