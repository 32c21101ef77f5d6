"""Program execution: from grounding maps to discretized SE(2) control.

Object subtrees evaluate to grounding maps (scene = all-ones, filter = min
with the concept's map, objunion = max, relate = min with a geometric
relation kernel of the reference). A goal turns the reference map into a
binary relation kernel and rotates the pick-object silhouette into one
boolean stencil per pose-grid rotation. A place pose (pixel, rotation)
scores (overlap / n)^2, where n is the stencil's cell count and overlap the
exact number of those cells on the kernel, times the upsampled reference
map (Hadamard), so no place score survives off the referenced region. Pick
and place poses are argmaxes over the pose grid with deterministic
tie-breaking. A push goal is not place-scored: its post-push pose comes
from the goal kernel's centroid.

The relation kernels are boolean geometric surrogates for a learned goal
module: containment relations use the reference interior eroded by one
pixel, surface relations the footprint, directional relations open
half-planes at the reference centroid. Candidates already satisfying a
containment goal are masked out of the pick map so multi-step episodes
progress, and a pick-place goal keeps its placements OBSTACLE_PAD_PX clear
of every other item.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import dsl, world
from .grounding import GroundingMap, axis_coords, intersect, normalize, resample, union


class EmptyGrounding(Exception):
    pass


class UnknownRelation(Exception):
    pass


class NoFeasiblePlace(Exception):
    pass


PICK_PLACE = "pick_place"
PUSH = "push"
PUSH_ACTIONS = frozenset({"push"})

INTERIOR = "interior"
SURFACE = "surface"

DEFAULT_RELATION_KINDS: dict[str, str] = {
    "in": INTERIOR,
    "into": INTERIOR,
    "inside": INTERIOR,
    "on": SURFACE,
    "top": SURFACE,
    "left": "left",
    "right": "right",
    "front": "front",
    "back": "back",
}

# Directional kinds: (axis, test of a cell's index against the reference centroid's).
HALF_PLANES = {
    "left": (1, np.less),
    "right": (1, np.greater),
    "front": (0, np.greater),
    "back": (0, np.less),
}

# Safety margin around other items: the mask-derived silhouette is a little
# thinner than the true footprint, so obstacles are grown to keep placements
# from physically stacking.
OBSTACLE_PAD_PX = 2


@dataclass(frozen=True)
class PoseGrid:
    height: int
    width: int
    rotations: int = 12

    def __post_init__(self):
        if self.height < 1 or self.width < 1 or self.rotations < 1:
            raise ValueError("pose grid dimensions must be positive")

    def angle(self, r: int) -> float:
        return 2.0 * math.pi * r / self.rotations


@dataclass(frozen=True)
class Pose2:
    u: int
    v: int
    r: int = 0


@dataclass(frozen=True)
class ControlParams:
    pick: Pose2
    place: Pose2
    primitive: str = PICK_PLACE


@dataclass(frozen=True)
class RelationConfig:
    kinds: tuple[tuple[str, str], ...] = tuple(sorted(DEFAULT_RELATION_KINDS.items()))

    def kind_of(self, word: str) -> str:
        for w, kind in self.kinds:
            if w == word:
                return kind
        raise UnknownRelation(word)


@dataclass
class ExecutionContext:
    scene: world.Scene
    backend: object
    pose_grid: PoseGrid
    relation_config: RelationConfig = field(default_factory=RelationConfig)


@dataclass
class ExecutionResult:
    all_params: tuple[ControlParams, ...]
    intermediates: dict[str, GroundingMap]
    pick_map: GroundingMap
    place_map: np.ndarray  # (R, H, W) per-rotation scores


def _erode(mask: np.ndarray) -> np.ndarray:
    """One 4-neighbour erosion; border cells are always dropped."""
    out = mask.copy()
    out[1:, :] &= mask[:-1, :]
    out[:-1, :] &= mask[1:, :]
    out[:, 1:] &= mask[:, :-1]
    out[:, :-1] &= mask[:, 1:]
    out[0, :] = out[-1, :] = False
    out[:, 0] = out[:, -1] = False
    return out


def _interior_depth(mask: np.ndarray) -> np.ndarray:
    """Erosion rounds each cell survives: 0 outside, 1 at the boundary,
    growing toward the interior."""
    depth = np.zeros(mask.shape, dtype=np.float64)
    cur = mask.copy()
    while cur.any():
        depth += cur
        cur = _erode(cur)
    return depth


def _dilate(mask: np.ndarray, px: int) -> np.ndarray:
    out = mask.copy()
    for _ in range(px):
        grown = out.copy()
        grown[1:, :] |= out[:-1, :]
        grown[:-1, :] |= out[1:, :]
        grown[:, 1:] |= out[:, :-1]
        grown[:, :-1] |= out[:, 1:]
        out = grown
    return out


def relation_kernel(reference: np.ndarray, relation: str, config: RelationConfig) -> np.ndarray:
    """Boolean kernel of cells satisfying the relation to the reference mask."""
    kind = config.kind_of(relation)
    binary = reference > 0.5
    if kind == INTERIOR:
        eroded = _erode(binary)
        # tiny references erode away; fall back to the raw footprint
        return eroded if eroded.any() else binary
    if kind == SURFACE or not binary.any():
        return binary
    axis, side = HALF_PLANES[kind]
    return side(np.indices(reference.shape)[axis], np.nonzero(binary)[axis].mean())


def select_pick(pick_map: GroundingMap) -> Pose2:
    """Argmax pixel, row-major tie-break; rotation is unused for picking."""
    arr = pick_map.values
    if arr.max() <= 0.0:
        raise EmptyGrounding("pick map is identically zero")
    flat = int(np.argmax(arr))
    u, v = divmod(flat, arr.shape[1])
    return Pose2(u, v, 0)


def select_place(place_grids: np.ndarray) -> Pose2:
    """Argmax over (rotation, row, col) with lexicographic tie-break."""
    grids = np.asarray(place_grids, dtype=np.float64)
    if grids.ndim != 3:
        raise ValueError("place grids must be (R, H, W)")
    if grids.max() <= 0.0:
        raise NoFeasiblePlace("all place scores are zero")
    flat = int(np.argmax(grids))
    r, rest = divmod(flat, grids.shape[1] * grids.shape[2])
    u, v = divmod(rest, grids.shape[2])
    return Pose2(u, v, r)


def eval_relate(target_map: GroundingMap, reference_map: GroundingMap,
                relation: dsl.ConceptToken, ctx: ExecutionContext) -> GroundingMap:
    """Keep target regions standing in the relation to the reference."""
    kernel = relation_kernel(reference_map.values, relation.word, ctx.relation_config)
    out = intersect(target_map, GroundingMap(kernel))
    return normalize(out.values)


def _component(mask: np.ndarray, seed: tuple[int, int]) -> np.ndarray:
    """4-connected component of the boolean mask containing the seed pixel.
    A seed outside the mask yields the single seed pixel."""
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


def _grid_to_scene(ctx: ExecutionContext, u: int, v: int) -> tuple[float, float]:
    y = axis_coords(ctx.pose_grid.height, ctx.scene.height)[u]
    x = axis_coords(ctx.pose_grid.width, ctx.scene.width)[v]
    return y, x


def _snap_pick_to_item(pick: Pose2, pick_map: GroundingMap, silhouette: np.ndarray,
                       ctx: ExecutionContext) -> tuple[Pose2, GroundingMap, world.SceneObject | None]:
    """Mask upsampling can read solid where the true footprint has a notch;
    if the argmax pixel is not over an item, move it to the nearest
    silhouette cell that is. The recorded map keeps the snapped cell as its
    strict argmax. Also returns the item under the pick, or None."""
    item = world.pick_target(ctx.scene, *_grid_to_scene(ctx, pick.u, pick.v))
    if item is not None:
        return pick, pick_map, item
    rows, cols = np.nonzero(silhouette)
    order = np.argsort((rows - rows.mean()) ** 2 + (cols - cols.mean()) ** 2,
                       kind="stable")
    for idx in order:
        u, v = int(rows[idx]), int(cols[idx])
        item = world.pick_target(ctx.scene, *_grid_to_scene(ctx, u, v))
        if item is not None:
            arr = pick_map.values * 0.999
            arr[u, v] = 1.0
            return Pose2(u, v, 0), GroundingMap(arr), item
    return pick, pick_map, None


def _obstacle_mask(ctx: ExecutionContext, exclude: world.SceneObject | None) -> np.ndarray:
    grid = ctx.pose_grid
    scene = ctx.scene
    ys = axis_coords(grid.height, scene.height)
    xs = axis_coords(grid.width, scene.width)
    out = np.zeros((grid.height, grid.width), dtype=bool)
    for obj in scene.objects:
        if obj.kind != world.ITEM or obj is exclude:
            continue
        out |= world.footprint_mask(obj, (grid.height, grid.width), ys, xs)
    return out


def _place_scores(kernel: np.ndarray, offsets: np.ndarray, reference: np.ndarray,
                  bbox: tuple[int, int, int, int], grid: PoseGrid) -> np.ndarray:
    """(R, H, W) place scores. Rotation r turns the silhouette offsets into a
    boolean stencil of n cells; at each centre inside bbox the score is
    (overlap / n)^2 times the reference map, where overlap counts the stencil
    cells on the boolean kernel (off-grid cells count as zero): the hit
    fraction times the mean kernel value under the stencil."""
    out = np.zeros((grid.rotations, grid.height, grid.width))
    u0, u1, v0, v1 = bbox
    if u1 <= u0 or v1 <= v0:
        return out
    angles = [grid.angle(r) for r in range(grid.rotations)]
    c = np.array([math.cos(a) for a in angles])[:, None]
    s = np.array([math.sin(a) for a in angles])[:, None]
    du = np.rint(offsets[:, 0] * c - offsets[:, 1] * s).astype(int)
    dv = np.rint(offsets[:, 0] * s + offsets[:, 1] * c).astype(int)
    m = int(max(np.abs(du).max(), np.abs(dv).max()))
    side = 2 * m + 1
    stencils = np.zeros((grid.rotations, side, side), dtype=bool)
    stencils[np.arange(grid.rotations)[:, None], du + m, dv + m] = True
    # Overlaps are sums of 0/1 terms, exact in float32 below 2**24 cells.
    # Taking one stencil row at a time keeps the window views small.
    cover = np.pad(kernel, m)[u0:u1 + 2 * m, v0:v1 + 2 * m].astype(np.float32)
    windows = sliding_window_view(cover, side, axis=1)
    weights = stencils.astype(np.float32)
    counts = np.zeros((u1 - u0, v1 - v0, grid.rotations), dtype=np.float32)
    for i in range(side):
        counts += windows[i:i + u1 - u0] @ weights[:, i, :].T
    n = stencils.sum(axis=(1, 2))
    # In place on the output slice: no (R, H, W) temporaries.
    scores = out[:, u0:u1, v0:v1]
    scores[...] = np.moveaxis(counts, 2, 0)
    scores /= n[:, None, None]
    np.square(scores, out=scores)
    scores *= reference[u0:u1, v0:v1]
    return out


def _goal_pieces(object_map: GroundingMap, reference_map: GroundingMap,
                 relation: dsl.ConceptToken, ctx: ExecutionContext) -> dict:
    grid = ctx.pose_grid
    kind = ctx.relation_config.kind_of(relation.word)

    up_obj = resample(object_map, grid.height, grid.width)
    up_ref = resample(reference_map, grid.height, grid.width)
    kernel = relation_kernel(up_ref.values, relation.word, ctx.relation_config)

    # Objects already sitting in a containment goal region are not pick
    # candidates; without this, multi-step episodes would loop on one object.
    pick_arr = up_obj.values
    if kind in (INTERIOR, SURFACE):
        pick_arr = pick_arr * ~kernel
    # Suction-style graspability: prefer the deepest interior pixel of the
    # mask. Upsampled masks can read solid at thin notches (star arms); edge
    # maxima there would miss the object, the interior never does.
    depth = _interior_depth(pick_arr >= 0.5)
    if depth.max() > 0:
        pick_arr = pick_arr * (1.0 + depth) / (1.0 + depth.max())
    pick_map = GroundingMap(pick_arr)
    pick = select_pick(pick_map)

    silhouette = _component(up_obj.values >= 0.5, (pick.u, pick.v))
    pick, pick_map, picked = _snap_pick_to_item(pick, pick_map, silhouette, ctx)
    rows, cols = np.nonzero(silhouette)
    anchor = (int(round(rows.mean())), int(round(cols.mean())))
    offsets = np.stack([rows - anchor[0], cols - anchor[1]], axis=1)

    effective = kernel & ~_dilate(_obstacle_mask(ctx, picked), OBSTACLE_PAD_PX)

    support = np.nonzero(up_ref.values > 0)
    if len(support[0]) == 0:
        bbox = (0, 0, 0, 0)
    else:
        margin = int(np.abs(offsets).max(initial=0)) + 1
        bbox = (
            max(int(support[0].min()) - margin, 0),
            min(int(support[0].max()) + margin + 1, grid.height),
            max(int(support[1].min()) - margin, 0),
            min(int(support[1].max()) + margin + 1, grid.width),
        )

    return {
        "pick": pick,
        "pick_map": pick_map,
        "kernel": kernel,
        "effective_kernel": effective,
        "silhouette": silhouette,
        "offsets": offsets,
        "reference": up_ref.values,
        "bbox": bbox,
    }


def _push_params(pieces: dict, grid: PoseGrid) -> tuple[ControlParams, GroundingMap, np.ndarray]:
    """Pre-push pose behind the object relative to the goal direction,
    post-push pose at the goal-kernel centroid (nearest supported cell).
    Recorded maps are one-hot so the argmax invariant still holds."""
    sil_rows, sil_cols = np.nonzero(pieces["silhouette"])
    c_u, c_v = sil_rows.mean(), sil_cols.mean()
    support = pieces["effective_kernel"]
    if not support.any():
        support = pieces["kernel"]
    if not support.any():
        raise NoFeasiblePlace("push goal region is empty")
    sup_rows, sup_cols = np.nonzero(support)
    g_u, g_v = sup_rows.mean(), sup_cols.mean()
    nearest = int(np.argmin((sup_rows - g_u) ** 2 + (sup_cols - g_v) ** 2))
    post = Pose2(int(sup_rows[nearest]), int(sup_cols[nearest]), 0)

    d_u, d_v = g_u - c_u, g_v - c_v
    norm = math.hypot(d_u, d_v)
    radius = 0.0
    if len(sil_rows) > 1:
        radius = float(np.max(np.hypot(sil_rows - c_u, sil_cols - c_v)))
    if norm > 1e-9:
        pre_u = c_u - radius * d_u / norm
        pre_v = c_v - radius * d_v / norm
    else:
        pre_u, pre_v = c_u, c_v
    pre = Pose2(
        min(max(int(round(pre_u)), 0), grid.height - 1),
        min(max(int(round(pre_v)), 0), grid.width - 1),
        0,
    )
    pick_map = np.zeros((grid.height, grid.width))
    pick_map[pre.u, pre.v] = 1.0
    place_grids = np.zeros((grid.rotations, grid.height, grid.width))
    place_grids[0, post.u, post.v] = 1.0
    params = ControlParams(pre, post, PUSH)
    return params, GroundingMap(pick_map), place_grids


def _eval_obj(node: dsl.ProgramNode, path: str, ctx: ExecutionContext,
              intermediates: dict[str, GroundingMap]) -> GroundingMap:
    if isinstance(node, dsl.Scene):
        gh, gw = ctx.backend.shape_for(ctx.scene)
        result = GroundingMap(np.ones((gh, gw)))
    elif isinstance(node, dsl.Filter):
        child = _eval_obj(node.child, f"{path}.0", ctx, intermediates)
        result = intersect(child, ctx.backend.ground(ctx.scene, node.prop))
    elif isinstance(node, dsl.ObjUnion):
        result = union(_eval_obj(node.a, f"{path}.0", ctx, intermediates),
                       _eval_obj(node.b, f"{path}.1", ctx, intermediates))
    elif isinstance(node, dsl.Relate):
        target = _eval_obj(node.target, f"{path}.0", ctx, intermediates)
        reference = _eval_obj(node.reference, f"{path}.1", ctx, intermediates)
        result = eval_relate(target, reference, node.rel, ctx)
    else:
        raise TypeError(f"not an object node: {node!r}")
    intermediates[path] = result
    return result


def _eval_plan(node: dsl.ProgramNode, path: str, ctx: ExecutionContext,
               intermediates: dict[str, GroundingMap]):
    if isinstance(node, dsl.Do):
        goal = node.goal
        obj_map = _eval_obj(goal.obj, f"{path}.0.0", ctx, intermediates)
        ref_map = _eval_obj(goal.reference, f"{path}.0.1", ctx, intermediates)
        pieces = _goal_pieces(obj_map, ref_map, goal.rel, ctx)
        if node.action.word in PUSH_ACTIONS:
            params, pick_map, place_grids = _push_params(pieces, ctx.pose_grid)
        else:
            place_grids = _place_scores(pieces["effective_kernel"], pieces["offsets"],
                                        pieces["reference"], pieces["bbox"], ctx.pose_grid)
            place = select_place(place_grids)
            params = ControlParams(pieces["pick"], place, PICK_PLACE)
            pick_map = pieces["pick_map"]
        intermediates[path] = pick_map
        return [params], pick_map, place_grids
    if isinstance(node, dsl.ActionConcat):
        left = _eval_plan(node.a, f"{path}.0", ctx, intermediates)
        right = _eval_plan(node.b, f"{path}.1", ctx, intermediates)
        return left[0] + right[0], left[1], left[2]
    raise TypeError(f"not a plan node: {node!r}")


def execute(program: dsl.ProgramNode, ctx: ExecutionContext) -> ExecutionResult:
    """Evaluate a Plan-typed program against the scene context."""
    found = dsl.type_check(program)
    if found is not dsl.SemanticType.PLAN:
        raise dsl.TypeMismatch("0", dsl.SemanticType.PLAN.value, found.value)
    intermediates: dict[str, GroundingMap] = {}
    all_params, pick_map, place_grids = _eval_plan(program, "0", ctx, intermediates)
    return ExecutionResult(
        all_params=tuple(all_params),
        intermediates=intermediates,
        pick_map=pick_map,
        place_map=place_grids,
    )
