import json
import math

import numpy as np
import pytest

from tablang import benchmark as bm
from tablang import ccg, world
from tablang.backends import EmbeddingBackend, OracleBackend
from tablang.benchmark import (
    AlreadySolved,
    Episode,
    GoalInfo,
    OutOfGrid,
    TaskSpec,
    expert_policy,
    generate_episode,
    imitation_loss,
    report_table,
    report_to_json,
    run_suite,
    score_success,
)
from tablang.executor import ControlParams, Pose2
from tablang.grounding import ProjectionWeights


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


def test_expert_policy_already_solved():
    ep = generate_episode(TaskSpec("packing_shapes"), 1)
    assert expert_policy(ep, 0) == ep.expert[0]
    with pytest.raises(AlreadySolved):
        expert_policy(ep, len(ep.expert))


def test_episode_demonstration_export():
    ep = generate_episode(TaskSpec("separating_piles"), 2)
    payload = bm.episode_to_dict(ep)
    blob = json.dumps(payload, sort_keys=True)
    again = json.loads(blob)
    assert again["instruction"] == ep.instruction
    assert len(again["expert"]) == len(ep.expert)
    assert again["expert"][0]["primitive"] == "push"
    assert world.scene_from_dict(again["scene"]) == ep.scene


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
    bowls = [world.make_object(i, world.CONTAINER, "bowl", "blue",
                               20.0 + 18 * i, 20.0, size=6.0) for i in range(1, 5)]
    blocks = [world.make_object(10 + i, world.ITEM, "block", "green",
                                20.0 + 18 * i, 50.0, size=3.4, extra=("blocks",))
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


def test_separating_score_monotone():
    task = TaskSpec("separating_piles")
    ep = generate_episode(task, 5)
    zone = ep.scene.find(ep.goal.region_ids[0])
    scene = ep.scene
    prev = score_success(task, scene, ep)
    for tid in ep.goal.target_ids:
        block = scene.find(tid)
        objects = tuple(
            o if o.id != tid else world.SceneObject(
                o.id, o.kind, o.shape, o.color, o.attributes, zone.x, zone.y,
                o.angle, o.size)
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


def test_run_suite_records_parse_failures():
    tiny = ccg.Lexicon.from_string("pack\t(S/PP)/N\t\\o.\\p.do(p(o), pack)\n")
    report = run_suite([TaskSpec("packing_shapes")], 2, OracleBackend(), tiny)
    assert report.per_task["packing_shapes/seen"] == 0.0
    assert all(ep["failure"] == "parse" for ep in report.episodes)


def test_run_suite_records_feature_width_mismatch(lex):
    narrow = EmbeddingBackend(weights=ProjectionWeights.identity(2))
    report = run_suite([TaskSpec("packing_shapes")], 2, narrow, lex)
    assert report.per_task["packing_shapes/seen"] == 0.0
    assert [ep["failure"] for ep in report.episodes] == ["grounding", "grounding"]


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


def test_report_table_format(lex):
    report = run_suite([TaskSpec("packing_shapes")], 2, OracleBackend(), lex)
    table = report_table(report)
    assert "packing_shapes/seen" in table
    assert "100.0" in table
