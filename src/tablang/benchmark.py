"""Benchmark tasks: seeded episode generation, expert demonstrations,
success metrics, the imitation-loss metric, and the evaluation suite.

Nine task families cover packing shapes into boxes (by name, color, spatial
position, or relative position), placing blocks into bowls, and pushing
piles or single shapes into zones. Episodes are fully determined by
(task, split, seed); the generator self-checks that replaying the stored
expert actions through the simulator scores 1.0.

Location words (left/right) are grounded through generator-assigned
attributes on the qualifying receptacle, i.e. the ground-truth-segmentation
regime: the grounding backend answers "left" with the ground-truth mask of
the object that is in fact the left one.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import ccg, dsl, world
from .executor import (
    PICK_PLACE,
    PUSH,
    ControlParams,
    EmptyGrounding,
    ExecutionContext,
    NoFeasiblePlace,
    Pose2,
    PoseGrid,
    UnknownRelation,
    execute,
)
from .backends import GroundingError
from .grounding import DimMismatch, GroundingMap

WORKSPACE_W = 128
WORKSPACE_H = 64

TASK_NAMES = (
    "packing_shapes",
    "packing_color_box",
    "packing_location_box",
    "packing_prepositions",
    "packing_nested_prepositions",
    "put_blocks_in_bowls",
    "separating_piles",
    "separating_location_piles",
    "pushing_shapes",
)

SEEN_COLORS = ("red", "green", "blue", "yellow", "brown", "orange", "gray")
UNSEEN_COLORS = ("red", "green", "blue", "purple", "pink", "cyan", "white")
SHARED_COLORS = ("red", "green", "blue")
SEEN_SHAPES = ("hexagon", "star", "ring", "flower", "diamond", "triangle")
UNSEEN_SHAPES = ("disc", "letter-l", "letter-t")
LOCATIONS = ("left", "right")

SHAPE_SIZE = 5.0
# One block per bowl: blocks are sized so that once a bowl is occupied, no
# second non-overlapping placement fits fully inside its eroded interior.
BLOCK_SIZE = 3.4
BOX_SIZE = 10.0
BOWL_SIZE = 6.0
ZONE_SIZE = 14.0


class GenerationFailure(Exception):
    pass


class OutOfGrid(Exception):
    pass


@dataclass(frozen=True)
class TaskSpec:
    name: str
    split: str = "seen"
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self):
        if self.name not in TASK_NAMES:
            raise ValueError(f"unknown task {self.name!r}")
        if self.split not in ("seen", "unseen"):
            raise ValueError(f"unknown split {self.split!r}")

    def param(self, key: str, default):
        for k, v in self.params:
            if k == key:
                return v
        return default


@dataclass(frozen=True)
class GoalInfo:
    kind: str                      # contain | bowls | zone_fraction
    target_ids: tuple[int, ...]
    region_ids: tuple[int, ...]


@dataclass(frozen=True)
class Episode:
    scene: world.Scene
    instruction: str
    expert: tuple[ControlParams, ...]
    goal: GoalInfo
    max_steps: int
    task_name: str
    split: str
    seed: int


# --------------------------------------------------------------------------
# Placement sampling


class _Placer:
    def __init__(self, rng: np.random.Generator, width: int, height: int):
        self.rng = rng
        self.width = width
        self.height = height
        self.placed: list[tuple[float, float, float]] = []

    def place(self, radius: float, x_range=None, y_range=None,
              pad: float = 2.0, attempts: int = 1000) -> tuple[float, float]:
        x_lo = max(radius + 1.5, x_range[0]) if x_range else radius + 1.5
        x_hi = min(self.width - 2.5 - radius, x_range[1]) if x_range else self.width - 2.5 - radius
        y_lo = max(radius + 1.5, y_range[0]) if y_range else radius + 1.5
        y_hi = min(self.height - 2.5 - radius, y_range[1]) if y_range else self.height - 2.5 - radius
        if x_hi < x_lo or y_hi < y_lo:
            raise GenerationFailure("placement window is empty")
        for _ in range(attempts):
            x = float(self.rng.uniform(x_lo, x_hi))
            y = float(self.rng.uniform(y_lo, y_hi))
            if all(math.hypot(x - px, y - py) > radius + pr + pad
                   for px, py, pr in self.placed):
                self.placed.append((x, y, radius))
                return x, y
        raise GenerationFailure("could not place object without overlap")


def _pick_point(obj: world.SceneObject) -> tuple[int, int]:
    """A pixel guaranteed to lie on the object's footprint (rings have a
    hole at their center)."""
    dx = dy = 0.0
    if obj.shape == "ring":
        mid = 0.75 * obj.size
        dx = mid * math.cos(obj.angle)
        dy = mid * math.sin(obj.angle)
    return int(round(obj.y + dy)), int(round(obj.x + dx))


def _pose_at(x: float, y: float, r: int = 0) -> Pose2:
    return Pose2(int(round(y)), int(round(x)), r)


def _containment(scene: world.Scene, target_id: int, region: world.SceneObject) -> float:
    """1.0 when 90% of the target's footprint and its centre are in the region's interior."""
    obj = scene.find(target_id)
    hw = (scene.height, scene.width)
    foot = world.footprint_mask(obj, hw)
    total = int(foot.sum())
    if total == 0:
        return 0.0
    frac = float((foot & world.interior_mask(region, hw)).sum()) / total
    return 1.0 if (frac >= 0.9 and world.inside(region, obj.y, obj.x)) else 0.0


def score_success(task: TaskSpec, final: world.Scene, episode: Episode) -> float:
    """App-level success in [0, 1]; binary for packing/pushing, fractional
    for bowls and piles."""
    goal = episode.goal
    if goal.kind == "contain":
        return _containment(final, goal.target_ids[0], final.find(goal.region_ids[0]))
    if goal.kind == "bowls":
        bowls = [final.find(rid) for rid in goal.region_ids]
        blocks = [final.find(tid) for tid in goal.target_ids]
        filled: set[int] = set()
        hits = 0
        for block in blocks:
            for bowl in bowls:
                if bowl.id in filled:
                    continue
                if world.inside(bowl, block.y, block.x):
                    filled.add(bowl.id)
                    hits += 1
                    break
        return hits / len(blocks)
    if goal.kind == "zone_fraction":
        zone = final.find(goal.region_ids[0])
        blocks = [final.find(tid) for tid in goal.target_ids]
        return sum(1 for b in blocks if world.inside(zone, b.y, b.x)) / len(blocks)
    raise ValueError(f"unknown goal kind {goal.kind!r}")


# --------------------------------------------------------------------------
# Episode generation


def _color_pool(split: str) -> tuple[str, ...]:
    return SEEN_COLORS if split == "seen" else tuple(
        c for c in UNSEEN_COLORS if c not in SHARED_COLORS
    )


def _shape_pool(split: str) -> tuple[str, ...]:
    return SEEN_SHAPES if split == "seen" else UNSEEN_SHAPES


def _choice(rng: np.random.Generator, pool) -> str:
    return str(pool[int(rng.integers(len(pool)))])


def _sample_distinct(rng: np.random.Generator, pool, n: int) -> list[str]:
    idx = rng.permutation(len(pool))[:n]
    return [str(pool[i]) for i in idx]


def _spawn_shape(oid, shape, color, placer, rng, extra=()):
    x, y = placer.place(SHAPE_SIZE * world.unit_circumradius(shape))
    angle = float(rng.uniform(0.0, 2 * math.pi))
    return world.make_object(oid, world.ITEM, shape, color, x, y,
                             angle=angle, size=SHAPE_SIZE, extra=("shape",) + tuple(extra))


def _box(oid, color, x, y, extra=()):
    return world.make_object(oid, world.CONTAINER, "box", color, x, y,
                             angle=0.0, size=BOX_SIZE, extra=tuple(extra))


def _zone(oid, color, x, y, extra=()):
    return world.make_object(oid, world.ZONE, "square", color, x, y,
                             angle=0.0, size=ZONE_SIZE, extra=("zone",) + tuple(extra))


def _box_center_pose(box: world.SceneObject) -> Pose2:
    return _pose_at(box.x, box.y)


def _expert_pick_place(target: world.SceneObject, region: world.SceneObject) -> ControlParams:
    return ControlParams(_pose_at(*reversed(_pick_point(target))),
                         _box_center_pose(region), PICK_PLACE)


def _push_action(obj: world.SceneObject, goal_x: float, goal_y: float) -> ControlParams:
    dx, dy = goal_x - obj.x, goal_y - obj.y
    norm = math.hypot(dx, dy)
    if norm < 1e-9:
        dx, dy, norm = 1.0, 0.0, 1.0
    pre_x = obj.x - obj.circumradius * dx / norm
    pre_y = obj.y - obj.circumradius * dy / norm
    return ControlParams(_pose_at(pre_x, pre_y), _pose_at(goal_x, goal_y), PUSH)


def _closed_loop_push_expert(scene, block_ids, zone, max_steps):
    actions = []
    current = scene
    for _ in range(max_steps):
        remaining = [o for o in map(current.find, block_ids)
                     if not world.inside(zone, o.y, o.x)]
        if not remaining:
            break
        target = min(remaining,
                     key=lambda o: (math.hypot(o.x - zone.x, o.y - zone.y), o.id))
        params = _push_action(target, zone.x, zone.y)
        current, _ = world.apply(current, params)
        actions.append(params)
    return actions, current


def _replay(episode_scene, actions, rotations=12):
    scene = episode_scene
    for params in actions:
        scene, _ = world.apply(scene, params, rotations)
    return scene


def _build_packing(task: TaskSpec, rng: np.random.Generator) -> Episode | None:
    placer = _Placer(rng, WORKSPACE_W, WORKSPACE_H)
    colors = _color_pool(task.split)
    name = task.name
    n_distractors = int(task.param("distractors", 4))
    ids = itertools.count(1)
    objects: list[world.SceneObject] = []

    box_r = BOX_SIZE * world.unit_circumradius("box")
    if name == "packing_shapes":
        bx, by = placer.place(box_r)
        target_box = _box(next(ids), "brown", bx, by)
        boxes = [target_box]
    elif name == "packing_color_box":
        box_colors = _sample_distinct(rng, colors, 2)
        bx, by = placer.place(box_r)
        dxx, dyy = placer.place(box_r)
        target_box = _box(next(ids), box_colors[0], bx, by)
        boxes = [target_box, _box(next(ids), box_colors[1], dxx, dyy)]
    elif name == "packing_location_box":
        loc = _choice(rng, LOCATIONS)
        lx, ly = placer.place(box_r, x_range=(0, WORKSPACE_W / 2 - box_r - 2))
        rx, ry = placer.place(box_r, x_range=(WORKSPACE_W / 2 + box_r + 2, WORKSPACE_W))
        left_box = _box(next(ids), "brown", lx, ly, extra=("left",))
        right_box = _box(next(ids), "brown", rx, ry, extra=("right",))
        boxes = [left_box, right_box]
        target_box = left_box if loc == "left" else right_box
    elif name in ("packing_prepositions", "packing_nested_prepositions"):
        return _build_prepositions(task, rng, placer)
    else:
        raise ValueError(name)
    objects.extend(boxes)

    shapes = _sample_distinct(rng, _shape_pool("seen"), 1 + n_distractors)
    target_shape_name = _choice(rng, _shape_pool(task.split))
    if target_shape_name in shapes:
        shapes.remove(target_shape_name)
    else:
        shapes = shapes[:n_distractors]
    target = _spawn_shape(next(ids), target_shape_name, _choice(rng, colors), placer, rng)
    objects.append(target)
    for s in shapes:
        objects.append(_spawn_shape(next(ids), s, _choice(rng, colors), placer, rng))

    scene = world.Scene(WORKSPACE_W, WORKSPACE_H, tuple(objects), rng_seed=int(rng.integers(2**31)))
    if name == "packing_shapes":
        instruction = f"pack the {target_shape_name} in the brown box"
    elif name == "packing_color_box":
        instruction = f"pack the {target_shape_name} in the {target_box.color} box"
    else:
        loc_word = "left" if "left" in target_box.attributes else "right"
        instruction = f"pack the {target_shape_name} into the {loc_word} brown box"
    expert = (_expert_pick_place(target, target_box),)
    goal = GoalInfo("contain", (target.id,), (target_box.id,))
    return Episode(scene, instruction, expert, goal, 1, name, task.split, -1)


def _build_prepositions(task: TaskSpec, rng: np.random.Generator, placer: _Placer) -> Episode:
    nested = task.name == "packing_nested_prepositions"
    colors = _color_pool(task.split)
    rel = _choice(rng, LOCATIONS)
    box_r = BOX_SIZE * world.unit_circumradius("box")
    margin = 16.0

    # Column bands force exactly one box to satisfy the stated relation(s).
    if nested:
        # e.g. "left of the star right of the diamond": the second reference
        # sits on the far side so both attachment readings pick the same box.
        if rel == "left":
            bands = [(6, 26), (40, 56), (68, 82), (94, 122)]
            ref2_band, target_band, ref1_band, other_band = bands
        else:
            bands = [(6, 34), (46, 60), (72, 88), (102, 122)]
            other_band, ref1_band, target_band, ref2_band = bands
    else:
        if rel == "left":
            target_band, ref1_band, other_band = (6, 40), (58, 70), (88, 122)
        else:
            other_band, ref1_band, target_band = (6, 40), (58, 70), (88, 122)

    tx, ty = placer.place(box_r, x_range=target_band)
    ox, oy = placer.place(box_r, x_range=other_band)
    ids = itertools.count(1)

    target_box = _box(next(ids), "brown", tx, ty)
    other_box = _box(next(ids), "brown", ox, oy)
    objects = [target_box, other_box]

    pool = list(_shape_pool("seen"))
    names = _sample_distinct(rng, pool, 4)
    target_shape_name = _choice(rng, _shape_pool(task.split))
    if target_shape_name in names:
        names.remove(target_shape_name)
    names = names[: (4 - (2 if nested else 1))]
    needed = 2 if nested else 1
    refs = _sample_distinct(rng, [s for s in pool if s not in names and s != target_shape_name], needed)

    shape_r = SHAPE_SIZE * 1.4
    ref_objs = []
    ref_bands = [ref1_band, ref2_band] if nested else [ref1_band]
    for band, ref_name in zip(ref_bands, refs):
        rxx, ryy = placer.place(shape_r, x_range=band)
        obj = world.make_object(next(ids), world.ITEM, ref_name, _choice(rng, colors),
                                rxx, ryy, angle=float(rng.uniform(0, 2 * math.pi)),
                                size=SHAPE_SIZE, extra=("shape",))
        ref_objs.append(obj)
        objects.append(obj)

    target = _spawn_shape(next(ids), target_shape_name, _choice(rng, colors), placer, rng)
    objects.append(target)
    for s in names:
        objects.append(_spawn_shape(next(ids), s, _choice(rng, colors), placer, rng))

    scene = world.Scene(WORKSPACE_W, WORKSPACE_H, tuple(objects), rng_seed=int(rng.integers(2**31)))
    other_rel = "right" if rel == "left" else "left"
    if nested:
        instruction = (f"pack the {target_shape_name} into the brown box {rel} of the "
                       f"{refs[0]} {other_rel} of the {refs[1]}")
    else:
        instruction = f"pack the {target_shape_name} into the brown box {rel} of the {refs[0]}"
    expert = (_expert_pick_place(target, target_box),)
    goal = GoalInfo("contain", (target.id,), (target_box.id,))
    return Episode(scene, instruction, expert, goal, 1, task.name, task.split, -1)


def _build_bowls(task: TaskSpec, rng: np.random.Generator) -> Episode:
    placer = _Placer(rng, WORKSPACE_W, WORKSPACE_H)
    colors = _color_pool(task.split)
    block_color, bowl_color, distract_color = _sample_distinct(rng, colors, 3)
    n_blocks = int(task.param("blocks", int(rng.integers(2, 4))))
    ids = itertools.count(1)
    objects = []

    bowl_r = BOWL_SIZE
    bowls = []
    for _ in range(n_blocks):
        x, y = placer.place(bowl_r)
        bowls.append(world.make_object(next(ids), world.CONTAINER, "bowl", bowl_color,
                                       x, y, size=BOWL_SIZE))
    x, y = placer.place(bowl_r)
    objects.extend(bowls)
    objects.append(world.make_object(next(ids), world.CONTAINER, "bowl", distract_color,
                                     x, y, size=BOWL_SIZE))

    blocks = []
    for _ in range(n_blocks):
        x, y = placer.place(BLOCK_SIZE * 1.05)
        blocks.append(world.make_object(next(ids), world.ITEM, "block", block_color,
                                        x, y, size=BLOCK_SIZE, extra=("blocks",)))
    objects.extend(blocks)
    for _ in range(int(rng.integers(0, 3))):
        x, y = placer.place(BLOCK_SIZE * 1.05)
        objects.append(world.make_object(next(ids), world.ITEM, "block", distract_color,
                                         x, y, size=BLOCK_SIZE, extra=("blocks",)))

    scene = world.Scene(WORKSPACE_W, WORKSPACE_H, tuple(objects), rng_seed=int(rng.integers(2**31)))
    instruction = f"put the {block_color} blocks in a {bowl_color} bowl"
    expert = tuple(
        ControlParams(_pose_at(b.x, b.y), _pose_at(bw.x, bw.y), PICK_PLACE)
        for b, bw in zip(blocks, bowls)
    )
    goal = GoalInfo("bowls", tuple(b.id for b in blocks), tuple(b.id for b in bowls))
    return Episode(scene, instruction, expert, goal, n_blocks, task.name, task.split, -1)


def _build_separating(task: TaskSpec, rng: np.random.Generator) -> Episode:
    placer = _Placer(rng, WORKSPACE_W, WORKSPACE_H)
    colors = _color_pool(task.split)
    located = task.name == "separating_location_piles"
    block_color = _choice(rng, colors)
    loc = _choice(rng, LOCATIONS)
    if located:
        zone_color = _choice(rng, [c for c in SEEN_COLORS if c != block_color])
        left_color = right_color = zone_color
    else:
        target_color = _choice(rng, [c for c in SHARED_COLORS if c != block_color])
        other_color = _choice(rng, [c for c in SEEN_COLORS
                                    if c not in (block_color, target_color)])
        left_color, right_color = ((target_color, other_color) if loc == "left"
                                   else (other_color, target_color))
    n_blocks = int(task.param("blocks", 6))
    zone_r = ZONE_SIZE * world.unit_circumradius("square")

    lx, ly = placer.place(zone_r, x_range=(0, 44))
    rx, ry = placer.place(zone_r, x_range=(84, WORKSPACE_W))
    ids = itertools.count(1)

    left_zone = _zone(next(ids), left_color, lx, ly, extra=("left",))
    right_zone = _zone(next(ids), right_color, rx, ry, extra=("right",))
    target_zone = left_zone if loc == "left" else right_zone
    if located:
        instruction = f"push the pile of {block_color} blocks into the {loc} square"
    else:
        instruction = f"push the pile of {block_color} blocks into the {target_zone.color} square"

    cluster_x = float(rng.uniform(54, 74))
    cluster_y = float(rng.uniform(20, 44))
    blocks = []
    for _ in range(n_blocks):
        x, y = placer.place(BLOCK_SIZE, x_range=(cluster_x - 13, cluster_x + 13),
                            y_range=(cluster_y - 11, cluster_y + 11), pad=2.5)
        blocks.append(world.make_object(next(ids), world.ITEM, "block", block_color,
                                        x, y, size=BLOCK_SIZE, extra=("blocks",)))

    objects = [left_zone, right_zone] + blocks
    scene = world.Scene(WORKSPACE_W, WORKSPACE_H, tuple(objects), rng_seed=int(rng.integers(2**31)))
    block_ids = [b.id for b in blocks]
    actions, _final = _closed_loop_push_expert(scene, block_ids, target_zone, n_blocks + 2)
    goal = GoalInfo("zone_fraction", tuple(block_ids), (target_zone.id,))
    return Episode(scene, instruction, tuple(actions), goal, n_blocks + 2,
                   task.name, task.split, -1)


def _build_pushing_shapes(task: TaskSpec, rng: np.random.Generator) -> Episode:
    placer = _Placer(rng, WORKSPACE_W, WORKSPACE_H)
    colors = _color_pool(task.split)
    zone_r = ZONE_SIZE * world.unit_circumradius("square")
    lx, ly = placer.place(zone_r, x_range=(0, 44))
    rx, ry = placer.place(zone_r, x_range=(84, WORKSPACE_W))
    zone_colors = _sample_distinct(rng, SHARED_COLORS if task.split == "unseen" else colors, 2)
    ids = itertools.count(1)

    left_zone = _zone(next(ids), zone_colors[0], lx, ly, extra=("left",))
    right_zone = _zone(next(ids), zone_colors[1], rx, ry, extra=("right",))
    loc = _choice(rng, LOCATIONS)
    target_zone = left_zone if loc == "left" else right_zone

    shape_color = _choice(rng, colors)
    shape_name = _choice(rng, _shape_pool(task.split))
    combos = {(shape_color, shape_name)}
    objects = [left_zone, right_zone]
    x, y = placer.place(SHAPE_SIZE * 1.4, x_range=(50, 78))
    target = world.make_object(next(ids), world.ITEM, shape_name, shape_color, x, y,
                               angle=float(rng.uniform(0, 2 * math.pi)),
                               size=SHAPE_SIZE, extra=("shape",))
    objects.append(target)
    all_shapes = SEEN_SHAPES + UNSEEN_SHAPES
    for _ in range(4):
        for _ in range(50):
            c = _choice(rng, SEEN_COLORS)
            s = _choice(rng, all_shapes)
            if (c, s) not in combos:
                combos.add((c, s))
                break
        else:
            raise GenerationFailure("no distinct color-shape combo")
        objects.append(_spawn_shape(next(ids), s, c, placer, rng))

    scene = world.Scene(WORKSPACE_W, WORKSPACE_H, tuple(objects), rng_seed=int(rng.integers(2**31)))
    instruction = (f"push the {shape_color} {shape_name} into the {loc} "
                   f"{target_zone.color} square")
    actions, _final = _closed_loop_push_expert(scene, [target.id], target_zone, 3)
    goal = GoalInfo("contain", (target.id,), (target_zone.id,))
    return Episode(scene, instruction, tuple(actions), goal, 3, task.name, task.split, -1)


_BUILDERS = {
    "packing_shapes": _build_packing,
    "packing_color_box": _build_packing,
    "packing_location_box": _build_packing,
    "packing_prepositions": _build_packing,
    "packing_nested_prepositions": _build_packing,
    "put_blocks_in_bowls": _build_bowls,
    "separating_piles": _build_separating,
    "separating_location_piles": _build_separating,
    "pushing_shapes": _build_pushing_shapes,
}


def generate_episode(task: TaskSpec, seed: int) -> Episode:
    """Deterministic episode for (task, split, seed); the stored expert
    actions are verified to score 1.0 before the episode is returned."""
    rng = np.random.default_rng(
        [seed, TASK_NAMES.index(task.name), 0 if task.split == "seen" else 1]
    )
    builder = _BUILDERS[task.name]
    last_error = None
    for _ in range(30):
        try:
            episode = builder(task, rng)
        except GenerationFailure as exc:
            # The message only: the exception's traceback holds this frame.
            last_error = str(exc)
            continue
        episode = Episode(episode.scene, episode.instruction, episode.expert,
                          episode.goal, episode.max_steps, episode.task_name,
                          episode.split, seed)
        final = _replay(episode.scene, episode.expert)
        if score_success(task, final, episode) == 1.0:
            return episode
        last_error = "expert replay did not reach score 1.0"
    raise GenerationFailure(f"{task.name}/{seed}: {last_error}")


# --------------------------------------------------------------------------
# Imitation-loss metric (computed, never optimized)


def _as_array(grids) -> np.ndarray:
    if isinstance(grids, GroundingMap):
        return grids.values
    return np.asarray(grids, dtype=np.float64)


def _log_softmax_at(logits: np.ndarray, index: int) -> float:
    flat = logits.reshape(-1)
    m = float(flat.max())
    return float(flat[index] - m - math.log(float(np.exp(flat - m).sum())))


def imitation_loss(pick_map, place_grids, expert: ControlParams) -> float:
    """Cross-entropy of the expert pick/place cells under softmax over the
    score grids treated as logits."""
    pick = _as_array(pick_map)
    place = _as_array(place_grids)
    if place.ndim != 3:
        raise ValueError("place grids must be (R, H, W)")
    h, w = pick.shape
    r_, ph, pw = place.shape
    if not (0 <= expert.pick.u < h and 0 <= expert.pick.v < w):
        raise OutOfGrid(f"pick pose {expert.pick} outside {pick.shape}")
    if not (0 <= expert.place.u < ph and 0 <= expert.place.v < pw
            and 0 <= expert.place.r < r_):
        raise OutOfGrid(f"place pose {expert.place} outside {place.shape}")
    pick_idx = expert.pick.u * w + expert.pick.v
    place_idx = (expert.place.r * ph + expert.place.u) * pw + expert.place.v
    return -_log_softmax_at(pick, pick_idx) - _log_softmax_at(place, place_idx)


# --------------------------------------------------------------------------
# Evaluation suite


@dataclass
class EvalReport:
    per_task: dict
    episodes: list
    seeds: list
    config_hash: str


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_episode(episode: Episode, backend, lexicon, rotations: int = 12) -> dict:
    """Parse, execute stepwise, apply, and score one episode. An error is
    recorded as the episode's failure ("parse", "grounding", "placement", or
    "internal" for any other exception) instead of being raised."""
    task = TaskSpec(episode.task_name, episode.split)
    record = {
        "task": episode.task_name,
        "split": episode.split,
        "seed": episode.seed,
        "instruction": episode.instruction,
        "score": 0.0,
        "steps": 0,
        "failure": None,
        "program": None,
    }
    scene = episode.scene
    grid = PoseGrid(scene.height, scene.width, rotations)
    try:
        tokens = ccg.tokenize(episode.instruction, lexicon)
        derivation = ccg.parse(tokens, lexicon, k=1)[0]
        record["program"] = dsl.serialize(derivation.program)
        for step in range(episode.max_steps):
            if score_success(task, scene, episode) >= 1.0:
                break
            ctx = ExecutionContext(scene, backend, grid)
            result = execute(derivation.program, ctx)
            for params in result.all_params:
                scene, _ = world.apply(scene, params, rotations)
            record["steps"] = step + 1
    except ccg.NoParse:
        record["failure"] = "parse"
        return record
    except (EmptyGrounding, GroundingError, DimMismatch, UnknownRelation) as exc:
        record["failure"] = "grounding"
        record["error"] = str(exc)
        return record
    except NoFeasiblePlace as exc:
        record["failure"] = "placement"
        record["error"] = str(exc)
        return record
    except Exception as exc:
        record["failure"] = "internal"
        record["error"] = str(exc)
        return record
    record["score"] = round(float(score_success(task, scene, episode)), 6)
    return record


def run_suite(tasks, n_episodes: int, backend, lexicon, *, seed: int = 0,
              rotations: int = 12) -> EvalReport:
    """Evaluate each task over n seeded episodes; per-task means are on the
    0-100 scale. Episode errors score 0 and never abort the suite."""
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    config = {
        "tasks": [{"name": t.name, "split": t.split} for t in tasks],
        "episodes": n_episodes,
        "seed": seed,
        "rotations": rotations,
        "backend": getattr(backend, "name", type(backend).__name__),
    }
    episodes = []
    per_task = {}
    seeds = list(range(seed, seed + n_episodes))
    for task in tasks:
        scores = []
        for i in range(n_episodes):
            ep_seed = seed + i
            try:
                episode = generate_episode(task, ep_seed)
            except GenerationFailure as exc:
                episodes.append({"task": task.name, "split": task.split,
                                 "seed": ep_seed, "score": 0.0,
                                 "failure": "generation", "error": str(exc)})
                scores.append(0.0)
                continue
            record = run_episode(episode, backend, lexicon, rotations)
            if record["failure"] is not None:
                record["score"] = 0.0
            episodes.append(record)
            scores.append(record["score"])
        per_task[f"{task.name}/{task.split}"] = round(100.0 * float(np.mean(scores)), 4)
    return EvalReport(per_task, episodes, seeds, _config_hash(config))


def report_to_json(report: EvalReport) -> str:
    payload = {
        "config_hash": report.config_hash,
        "per_task": report.per_task,
        "seeds": report.seeds,
        "episodes": report.episodes,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def report_table(report: EvalReport) -> str:
    lines = [f"{'task':<38} {'mean':>8}", "-" * 47]
    for key in sorted(report.per_task):
        lines.append(f"{key:<38} {report.per_task[key]:>8.1f}")
    return "\n".join(lines) + "\n"
