"""Benchmark tasks: seeded episode generation, expert demonstrations,
success metrics, the imitation-loss metric, and the evaluation suite.

Nine task families cover packing shapes into boxes (by name, color, spatial
position, or relative position), placing blocks into bowls, and pushing
piles or single shapes into zones. Episodes are fully determined by
(task, split, seed); the generator self-checks that the stored expert
actions, run through the simulator, score 1.0.

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
    ControlParams,
    ExecutionContext,
    ExecutionResult,
    NoFeasiblePlace,
    Pose2,
    PoseGrid,
    execute,
)
from .grounding import ExecutionError, GroundingMap

WORKSPACE_W = 128
WORKSPACE_H = 64

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

    def __post_init__(self):
        if self.name not in TASK_NAMES:
            raise ValueError(f"unknown task {self.name!r}")
        if self.split not in ("seen", "unseen"):
            raise ValueError(f"unknown split {self.split!r}")


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


# Rejection-sampling attempts per placement: the first 4 drawn one pair at a
# time (most placements succeed within them), then chunks of 16, 64 and 256.
PLACE_ATTEMPTS = 1000
_SCALAR_TRIES, _FIRST_CHUNK, _LAST_CHUNK = 4, 16, 256


class _Placer:
    def __init__(self, rng: np.random.Generator, width: int, height: int):
        self.rng = rng
        self.width = width
        self.height = height
        self.placed: list[tuple[float, float, float]] = []

    def place(self, radius: float, x_range=None, y_range=None,
              pad: float = 2.0) -> tuple[float, float]:
        """The first of up to PLACE_ATTEMPTS uniform (x, y) draws in the
        window that lies farther than radius + pr + pad from every placed
        (px, py, pr). The draws, and the generator state left behind, are
        exactly those of one rng.uniform(x_lo, x_hi), rng.uniform(y_lo,
        y_hi) pair per attempt: the first _SCALAR_TRIES pairs are drawn as
        scalars, then a chunk is drawn as doubles, and after an accepted row
        the state saved before the chunk is restored and only the rows up to
        it are drawn again."""
        x_lo = max(radius + 1.5, x_range[0]) if x_range else radius + 1.5
        x_hi = min(self.width - 2.5 - radius, x_range[1]) if x_range else self.width - 2.5 - radius
        y_lo = max(radius + 1.5, y_range[0]) if y_range else radius + 1.5
        y_hi = min(self.height - 2.5 - radius, y_range[1]) if y_range else self.height - 2.5 - radius
        if x_hi < x_lo or y_hi < y_lo:
            raise GenerationFailure("placement window is empty")

        def clear_at(x: float, y: float) -> bool:
            return all(math.hypot(x - px, y - py) > radius + pr + pad for px, py, pr in self.placed)

        for _ in range(_SCALAR_TRIES):
            x = x_lo + (x_hi - x_lo) * self.rng.random()
            y = y_lo + (y_hi - y_lo) * self.rng.random()
            if clear_at(x, y):
                self.placed.append((x, y, radius))
                return x, y
        lo = np.array([x_lo, y_lo])
        span = np.array([x_hi - x_lo, y_hi - y_lo])
        placed = np.array(self.placed).reshape(-1, 3)
        # A prefilter only: np.hypot may differ from math.hypot in the last
        # ulp, so the slack keeps every row the exact test below accepts.
        bound = radius + placed[:, 2] + pad - 1e-6
        bitgen = self.rng.bit_generator
        left, k = PLACE_ATTEMPTS - _SCALAR_TRIES, _FIRST_CHUNK
        while left:
            k = min(k, left)
            saved = bitgen.state
            points = lo + span * self.rng.random((k, 2))
            clear = (np.hypot(points[:, 0, None] - placed[:, 0],
                              points[:, 1, None] - placed[:, 1]) > bound).all(axis=1)
            for i in np.flatnonzero(clear):
                x, y = float(points[i, 0]), float(points[i, 1])
                if clear_at(x, y):
                    if i + 1 < k:
                        bitgen.state = saved
                        self.rng.random((i + 1, 2))
                    self.placed.append((x, y, radius))
                    return x, y
            left -= k
            k = min(4 * k, _LAST_CHUNK)
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


def _pose_at(x: float, y: float) -> Pose2:
    return Pose2(int(round(y)), int(round(x)), 0)


def _containment(scene: world.Scene, target_id: int, region: world.SceneObject) -> float:
    """1.0 when the target's centre, then 90% of its footprint, are in the region's interior."""
    obj = scene.find(target_id)
    if not world.inside(region, obj.y, obj.x):
        return 0.0
    hw = (scene.height, scene.width)
    foot = obj.mask(hw)
    total = int(foot.sum())
    if total == 0:
        return 0.0
    frac = float((foot & region.mask(hw, interior=True)).sum()) / total
    return 1.0 if frac >= 0.9 else 0.0


def score_success(task: TaskSpec, final: world.Scene, episode: Episode) -> float:
    """App-level success in [0, 1]; binary for packing/pushing, fractional
    for bowls and piles."""
    goal = episode.goal
    if goal.kind == "contain":
        return _containment(final, goal.target_ids[0], final.find(goal.region_ids[0]))
    if goal.kind == "bowls":
        free = {rid: final.find(rid) for rid in goal.region_ids}
        bowls = len(free)
        for block in map(final.find, goal.target_ids):
            # Each block fills the first still-free bowl it is inside.
            free.pop(next((rid for rid, bowl in free.items()
                           if world.inside(bowl, block.y, block.x)), None), None)
        return (bowls - len(free)) / len(goal.target_ids)
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


def _shape(oid, shape, color, x, y, rng):
    return world.SceneObject(oid, world.ITEM, shape, color, x, y,
                             angle=float(rng.uniform(0.0, 2 * math.pi)),
                             size=SHAPE_SIZE, attributes=("shape",))


def _spawn_shape(oid, shape, color, placer, rng):
    x, y = placer.place(SHAPE_SIZE * world.unit_circumradius(shape))
    return _shape(oid, shape, color, x, y, rng)


def _box(oid, color, x, y, attributes=()):
    return world.SceneObject(oid, world.CONTAINER, "box", color, x, y,
                             size=BOX_SIZE, attributes=attributes)


def _bowl(oid, color, x, y):
    return world.SceneObject(oid, world.CONTAINER, "bowl", color, x, y, size=BOWL_SIZE)


def _block(oid, color, x, y):
    return world.SceneObject(oid, world.ITEM, "block", color, x, y,
                             size=BLOCK_SIZE, attributes=("blocks",))


def _zone_sites(placer):
    """The centres of the left and right zones."""
    zone_r = ZONE_SIZE * world.unit_circumradius("square")
    return [placer.place(zone_r, x_range=band) for band in ((0, 44), (84, WORKSPACE_W))]


def _zones(ids, sites, colors):
    """The left and right zones, in that order."""
    return [world.SceneObject(next(ids), world.ZONE, "square", color, x, y,
                              size=ZONE_SIZE, attributes=("zone", side))
            for (x, y), color, side in zip(sites, colors, LOCATIONS)]


def _target_and_distractors(rng, split, n_drawn, n_kept):
    """A target shape from the split's pool, and up to n_kept of n_drawn
    distinct seen shapes that differ from it."""
    drawn = _sample_distinct(rng, SEEN_SHAPES, n_drawn)
    target = _choice(rng, _shape_pool(split))
    return target, [s for s in drawn if s != target][:n_kept]


def _push_action(obj: world.SceneObject, goal_x: float, goal_y: float) -> ControlParams:
    dx, dy = goal_x - obj.x, goal_y - obj.y
    norm = math.hypot(dx, dy)
    if norm < 1e-9:
        dx, dy, norm = 1.0, 0.0, 1.0
    pre_x = obj.x - obj.circumradius * dx / norm
    pre_y = obj.y - obj.circumradius * dy / norm
    return ControlParams(_pose_at(pre_x, pre_y), _pose_at(goal_x, goal_y), world.PUSH)


def _closed_loop_push_expert(scene, block_ids, zone, max_steps):
    actions, current = [], scene
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


def _replay(scene, actions):
    for params in actions:
        scene, _ = world.apply(scene, params)
    return scene


def _build_packing(task: TaskSpec, rng: np.random.Generator, placer: _Placer, ids):
    colors = _color_pool(task.split)
    box_r = BOX_SIZE * world.unit_circumradius("box")
    if task.name == "packing_shapes":
        boxes = [_box(next(ids), "brown", *placer.place(box_r))]
        target_box, tail = boxes[0], "in the brown box"
    elif task.name == "packing_color_box":
        box_colors = _sample_distinct(rng, colors, 2)
        boxes = [_box(next(ids), c, *placer.place(box_r)) for c in box_colors]
        target_box, tail = boxes[0], f"in the {box_colors[0]} box"
    else:
        loc = _choice(rng, LOCATIONS)
        bands = (0, WORKSPACE_W / 2 - box_r - 2), (WORKSPACE_W / 2 + box_r + 2, WORKSPACE_W)
        boxes = [_box(next(ids), "brown", *placer.place(box_r, x_range=band), (side,))
                 for band, side in zip(bands, LOCATIONS)]
        target_box, tail = boxes[LOCATIONS.index(loc)], f"into the {loc} brown box"

    shape_name, distractors = _target_and_distractors(rng, task.split, 5, 4)
    target = _spawn_shape(next(ids), shape_name, _choice(rng, colors), placer, rng)
    objects = boxes + [target] + [_spawn_shape(next(ids), s, _choice(rng, colors), placer, rng)
                                  for s in distractors]
    return (objects, f"pack the {shape_name} {tail}",
            GoalInfo("contain", (target.id,), (target_box.id,)))


# Column bands (target box, other box, references) per (nested, relation)
# that let exactly one box satisfy the relation(s). In "left of the star right
# of the diamond" the second reference sits on the far side, so both
# attachment readings pick the same box.
_PREPOSITION_BANDS = {
    (False, "left"): ((6, 40), (88, 122), (58, 70)),
    (False, "right"): ((88, 122), (6, 40), (58, 70)),
    (True, "left"): ((40, 56), (94, 122), (68, 82), (6, 26)),
    (True, "right"): ((72, 88), (6, 34), (46, 60), (102, 122)),
}


def _build_prepositions(task: TaskSpec, rng: np.random.Generator, placer: _Placer, ids):
    nested = task.name == "packing_nested_prepositions"
    colors = _color_pool(task.split)
    rel = _choice(rng, LOCATIONS)
    box_r = BOX_SIZE * world.unit_circumradius("box")

    bands = _PREPOSITION_BANDS[nested, rel]
    objects = [_box(next(ids), "brown", *placer.place(box_r, x_range=band)) for band in bands[:2]]
    target_box, ref_bands = objects[0], bands[2:]

    shape_name, names = _target_and_distractors(rng, task.split, 4, 4 - len(ref_bands))
    refs = _sample_distinct(rng, [s for s in SEEN_SHAPES
                                  if s not in names and s != shape_name], len(ref_bands))
    for band, ref_name in zip(ref_bands, refs):
        x, y = placer.place(SHAPE_SIZE * 1.4, x_range=band)
        objects.append(_shape(next(ids), ref_name, _choice(rng, colors), x, y, rng))

    target = _spawn_shape(next(ids), shape_name, _choice(rng, colors), placer, rng)
    objects += [target] + [_spawn_shape(next(ids), s, _choice(rng, colors), placer, rng)
                           for s in names]

    instruction = f"pack the {shape_name} into the brown box {rel} of the {refs[0]}"
    if nested:
        instruction += f" {'right' if rel == 'left' else 'left'} of the {refs[1]}"
    return objects, instruction, GoalInfo("contain", (target.id,), (target_box.id,))


def _build_bowls(task: TaskSpec, rng: np.random.Generator, placer: _Placer, ids):
    colors = _color_pool(task.split)
    block_color, bowl_color, distract_color = _sample_distinct(rng, colors, 3)
    n_blocks = int(rng.integers(2, 4))
    block_r = BLOCK_SIZE * 1.05

    bowls = [_bowl(next(ids), bowl_color, *placer.place(BOWL_SIZE)) for _ in range(n_blocks)]
    objects = bowls + [_bowl(next(ids), distract_color, *placer.place(BOWL_SIZE))]
    blocks = [_block(next(ids), block_color, *placer.place(block_r)) for _ in range(n_blocks)]
    objects += blocks + [_block(next(ids), distract_color, *placer.place(block_r))
                         for _ in range(int(rng.integers(0, 3)))]

    instruction = f"put the {block_color} blocks in a {bowl_color} bowl"
    goal = GoalInfo("bowls", tuple(b.id for b in blocks), tuple(b.id for b in bowls))
    return objects, instruction, goal


def _build_separating(task: TaskSpec, rng: np.random.Generator, placer: _Placer, ids):
    colors = _color_pool(task.split)
    located = task.name == "separating_location_piles"
    block_color = _choice(rng, colors)
    loc = _choice(rng, LOCATIONS)
    if located:
        zone_colors = (_choice(rng, [c for c in SEEN_COLORS if c != block_color]),) * 2
    else:
        target_color = _choice(rng, [c for c in SHARED_COLORS if c != block_color])
        other_color = _choice(rng, [c for c in SEEN_COLORS
                                    if c not in (block_color, target_color)])
        zone_colors = ((target_color, other_color) if loc == "left"
                       else (other_color, target_color))
    zones = _zones(ids, _zone_sites(placer), zone_colors)
    target_zone = zones[LOCATIONS.index(loc)]
    where = loc if located else target_zone.color
    instruction = f"push the pile of {block_color} blocks into the {where} square"

    cluster_x = float(rng.uniform(54, 74))
    cluster_y = float(rng.uniform(20, 44))
    blocks = [_block(next(ids), block_color,
                     *placer.place(BLOCK_SIZE, x_range=(cluster_x - 13, cluster_x + 13),
                                   y_range=(cluster_y - 11, cluster_y + 11), pad=2.5))
              for _ in range(6)]

    goal = GoalInfo("zone_fraction", tuple(b.id for b in blocks), (target_zone.id,))
    return zones + blocks, instruction, goal


def _build_pushing_shapes(task: TaskSpec, rng: np.random.Generator, placer: _Placer, ids):
    colors = _color_pool(task.split)
    sites = _zone_sites(placer)
    zones = _zones(ids, sites, _sample_distinct(
        rng, SHARED_COLORS if task.split == "unseen" else colors, 2))
    loc = _choice(rng, LOCATIONS)
    target_zone = zones[LOCATIONS.index(loc)]

    shape_color = _choice(rng, colors)
    shape_name = _choice(rng, _shape_pool(task.split))
    combos = {(shape_color, shape_name)}
    target = _shape(next(ids), shape_name, shape_color,
                    *placer.place(SHAPE_SIZE * 1.4, x_range=(50, 78)), rng)
    objects = zones + [target]
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

    instruction = (f"push the {shape_color} {shape_name} into the {loc} "
                   f"{target_zone.color} square")
    return objects, instruction, GoalInfo("contain", (target.id,), (target_zone.id,))


_BUILDERS = {
    "packing_shapes": _build_packing,
    "packing_color_box": _build_packing,
    "packing_location_box": _build_packing,
    "packing_prepositions": _build_prepositions,
    "packing_nested_prepositions": _build_prepositions,
    "put_blocks_in_bowls": _build_bowls,
    "separating_piles": _build_separating,
    "separating_location_piles": _build_separating,
    "pushing_shapes": _build_pushing_shapes,
}
# Dict order is each task's seeding index.
TASK_NAMES = tuple(_BUILDERS)


def generate_episode(task: TaskSpec, seed: int) -> Episode:
    """Deterministic episode for (task, split, seed). A builder, given the
    rng and each attempt's fresh placer and object-id counter, gives the
    objects, instruction and goal; the expert follows from the goal: a
    closed-loop push of the targets into a zone (budget: one step each plus
    two), else one pick-place per target and region. The expert's replay
    must score 1.0."""
    rng = np.random.default_rng(
        [seed, TASK_NAMES.index(task.name), 0 if task.split == "seen" else 1]
    )
    builder = _BUILDERS[task.name]
    last_error = None
    for _ in range(30):
        try:
            objects, instruction, goal = builder(
                task, rng, _Placer(rng, WORKSPACE_W, WORKSPACE_H), itertools.count(1))
        except GenerationFailure as exc:
            # The message only: the exception's traceback holds this frame.
            last_error = str(exc)
            continue
        scene = world.Scene(WORKSPACE_W, WORKSPACE_H, tuple(objects),
                            rng_seed=int(rng.integers(2**31)))
        region = scene.find(goal.region_ids[0])
        if region.kind == world.ZONE:
            budget = len(goal.target_ids) + 2
            expert, final = _closed_loop_push_expert(scene, goal.target_ids, region, budget)
        else:
            expert = [ControlParams(_pose_at(*reversed(_pick_point(scene.find(t)))),
                                    _pose_at(r.x, r.y), world.PICK_PLACE)
                      for t, r in zip(goal.target_ids, map(scene.find, goal.region_ids))]
            budget, final = len(expert), _replay(scene, expert)
        episode = Episode(scene, instruction, tuple(expert), goal, budget,
                          task.name, task.split, seed)
        if score_success(task, final, episode) == 1.0:
            return episode
        last_error = "expert replay did not reach score 1.0"
    raise GenerationFailure(f"{task.name}/{seed}: {last_error}")


# --------------------------------------------------------------------------
# Imitation-loss metric (computed, never optimized)


def _log_softmax_at(logits: np.ndarray, index: int) -> float:
    flat = logits.reshape(-1)
    m = float(flat.max())
    return float(flat[index] - m - math.log(float(np.exp(flat - m).sum())))


def imitation_loss(pick_map, place_grids, expert: ControlParams) -> float:
    """Cross-entropy of the expert pick/place cells under softmax over the
    score grids treated as logits; either may be a GroundingMap or an array."""
    pick, place = (g.values if isinstance(g, GroundingMap) else np.asarray(g, dtype=np.float64)
                   for g in (pick_map, place_grids))
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


def read_instruction(text: str, lexicon) -> ccg.Derivation:
    """The instruction's top-ranked derivation; raises ccg.NoParse."""
    return ccg.parse(ccg.tokenize(text, lexicon), lexicon, k=1)[0]


def step(program: dsl.ProgramNode, scene: world.Scene, backend,
         grid: PoseGrid) -> tuple[list[ExecutionResult], world.Scene]:
    """Plan each goal of the program (dsl.goals) on the scene the previous
    goal's action left, and apply its action; returns the per-goal results
    and the final scene. A goal that fails raises, so a step applies all
    of its goals' actions or none."""
    results = []
    for goal in dsl.goals(program):
        result = execute(goal, ExecutionContext(scene, backend, grid))
        scene, _ = world.apply(scene, result.params, grid.rotations)
        results.append(result)
    return results, scene


def run_episode(episode: Episode, backend, lexicon, rotations: int = 12) -> dict:
    """Parse, execute stepwise, apply, and score one episode. An error is
    recorded as the episode's failure ("parse", "grounding", "placement", or
    "internal" for any other exception) instead of being raised."""
    task = TaskSpec(episode.task_name, episode.split)
    record = {"task": episode.task_name, "split": episode.split, "seed": episode.seed,
              "instruction": episode.instruction, "score": 0.0, "steps": 0,
              "failure": None, "program": None}
    scene = episode.scene
    grid = PoseGrid(scene.height, scene.width, rotations)
    try:
        derivation = read_instruction(episode.instruction, lexicon)
        record["program"] = dsl.serialize(derivation.program)
        for n in range(episode.max_steps + 1):  # the scene after the last step is scored too
            score = score_success(task, scene, episode)
            if score >= 1.0 or n == episode.max_steps:
                break
            _, scene = step(derivation.program, scene, backend, grid)
            record["steps"] = n + 1
    except ccg.NoParse:
        record["failure"] = "parse"
        return record
    except Exception as exc:
        record["failure"] = ("placement" if isinstance(exc, NoFeasiblePlace) else
                             "grounding" if isinstance(exc, ExecutionError) else "internal")
        record["error"] = str(exc)
        return record
    record["score"] = round(float(score), 6)
    return record


def run_suite(tasks, n_episodes: int, backend, lexicon, *, seed: int = 0,
              rotations: int = 12) -> EvalReport:
    """Evaluate each task over n seeded episodes; per-task means are on the
    0-100 scale. Episode errors score 0 and never abort the suite. Parses
    reuse the lexicon's chart memo, so a repeated shape is built once."""
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
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
            episodes.append(record)
            scores.append(record["score"])
        per_task[f"{task.name}/{task.split}"] = round(100.0 * float(np.mean(scores)), 4)
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return EvalReport(per_task, episodes, seeds, hashlib.sha256(blob).hexdigest())


def report_to_json(report: EvalReport) -> str:
    payload = {"config_hash": report.config_hash, "per_task": report.per_task,
               "seeds": report.seeds, "episodes": report.episodes}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def report_table(report: EvalReport) -> str:
    lines = [f"{'task':<38} {'mean':>8}", "-" * 47]
    for key in sorted(report.per_task):
        lines.append(f"{key:<38} {report.per_task[key]:>8.1f}")
    return "\n".join(lines) + "\n"
