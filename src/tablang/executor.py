"""Program execution: from grounding maps to discretized SE(2) control.

Object subtrees evaluate to grounding maps (scene = all-ones, filter = min
with the concept's map, objunion = max, relate = min with a geometric
relation kernel of the reference). A goal turns the reference map into a
binary relation kernel. The pick, the deepest-interior argmax of the
upsampled object map, is planned on that map's support window and written
into a zeroed full-lattice pick map; the silhouette is the pick's
4-connected component there, as row-major (rows, cols) cells. Rotation r
turns it into a boolean stencil of n cells, and a place pose (pixel, r)
scores (overlap / n)^2, overlap the exact count of those cells on the
kernel, times the upsampled reference map (Hadamard), so no place score
survives off the referenced region. Poses are argmaxes with deterministic
tie-breaking. A goal whose action word is PUSH_VERB pushes and is not
place-scored: its post-push pose comes from the goal kernel's centroid.
Every other verb, a novel word's verb reading too, picks and places. An
ExecutionResult keeps the (R, n) scores of the n cells that can score (a
push: its post-push cell); the dense (R, H, W) place_map is built only when
it is read.

The relation kernels are boolean geometric surrogates for a learned goal
module: containment relations use the reference interior eroded by one
pixel, surface relations the footprint, directional relations open
half-planes at the reference centroid; erosion and dilation are one
4-neighbour _step on the lattice framed by False. Candidates already
satisfying a containment goal are masked out of the pick map so multi-step
episodes progress, and pick-place and push goals read the kernel kept
OBSTACLE_PAD_PX clear of every other item (a push takes the raw kernel if
nothing is left).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import dsl, world
from .grounding import (ExecutionError, GroundingMap, intersect, normalize, resample,
                        support_box, union)
from .world import PICK_PLACE, PUSH


class EmptyGrounding(ExecutionError):
    pass


class UnknownRelation(ExecutionError):
    pass


class NoFeasiblePlace(ExecutionError):
    pass


INTERIOR = "interior"
SURFACE = "surface"
# The dsl action word of push goals, kept apart from world.PUSH, the primitive's name.
PUSH_VERB = "push"

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
# Most rotations a pose grid takes, 6x the default. Planning and cli run hold
# no dense place grid (72 x 1024 x 1024 float64, 0.6 GB, on a world.MAX_SIDE
# square scene); only reading ExecutionResult.place_map builds one.
MAX_ROTATIONS = 72
# Most multiply-adds per place-scoring product: OpenBLAS runs a GEMM of <= 2**18 on one thread.
WINDOW_CELLS = 1 << 18
Cells = tuple[np.ndarray, np.ndarray]  # lattice cells as np.nonzero gives them, row-major


@dataclass(frozen=True)
class PoseGrid:
    height: int
    width: int
    rotations: int = 12

    def __post_init__(self):
        if self.height < 1 or self.width < 1 or self.rotations < 1:
            raise ValueError("pose grid dimensions must be positive")
        if self.rotations > MAX_ROTATIONS:
            raise ValueError(f"rotations must be <= {MAX_ROTATIONS}")

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
    """What one execution reads; the pose grid is the scene's pixel lattice."""

    scene: world.Scene
    backend: object
    pose_grid: PoseGrid
    relation_config: RelationConfig = field(default_factory=RelationConfig)

    def __post_init__(self):
        if (self.pose_grid.height, self.pose_grid.width) != (self.scene.height, self.scene.width):
            raise ValueError(f"{self.pose_grid} is not the scene's pixel lattice")


@dataclass
class ExecutionResult:
    params: ControlParams
    intermediates: dict[str, GroundingMap]
    pick_map: GroundingMap
    place_cells: Cells  # the cells that can score
    place_scores: np.ndarray  # (R, n) per-rotation scores of those cells
    pose_grid: PoseGrid

    def place_plane(self, r: int) -> np.ndarray:
        """Rotation r's (H, W) place scores, zero off place_cells."""
        out = np.zeros((self.pose_grid.height, self.pose_grid.width))
        out[self.place_cells] = self.place_scores[r]
        return out

    @functools.cached_property
    def place_map(self) -> np.ndarray:
        """The (R, H, W) per-rotation place scores, built on first read."""
        return np.stack([self.place_plane(r) for r in range(self.pose_grid.rotations)])


def _cells(mask: np.ndarray) -> Cells:
    """np.nonzero of a 2-d mask (same values and dtype) from one flat scan."""
    return np.divmod(mask.ravel().nonzero()[0], mask.shape[1])


def _step(mask: np.ndarray, op) -> np.ndarray:
    """Each cell combined by op with its four neighbours, on the lattice
    framed by False: np.logical_and is one erosion (border cells always
    drop), np.logical_or one dilation (nothing grows past the border)."""
    framed = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=bool)
    framed[1:-1, 1:-1] = mask
    return op.reduce((mask, framed[:-2, 1:-1], framed[2:, 1:-1],
                      framed[1:-1, :-2], framed[1:-1, 2:]))


def _interior_depth(mask: np.ndarray) -> np.ndarray:
    """Erosion rounds each cell survives: 0 outside, 1 at the boundary,
    growing toward the interior (at most (world.MAX_SIDE + 1) // 2)."""
    depth = np.zeros(mask.shape, dtype=np.int32)
    while mask.any():
        depth += mask
        mask = _step(mask, np.logical_and)
    return depth


def relation_kernel(reference: np.ndarray, relation: str, config: RelationConfig) -> np.ndarray:
    """Boolean kernel of cells satisfying the relation to the reference mask."""
    kind = config.kind_of(relation)
    binary = reference > 0.5
    if kind == INTERIOR:
        eroded = _step(binary, np.logical_and)
        # tiny references erode away; fall back to the raw footprint
        return eroded if eroded.any() else binary
    if kind == SURFACE or not binary.any():
        return binary
    axis, side = HALF_PLANES[kind]
    index = np.expand_dims(np.arange(reference.shape[axis]), 1 - axis)
    return np.broadcast_to(side(index, _cells(binary)[axis].mean()), reference.shape).copy()


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
    if grids.max(initial=0.0) <= 0.0:
        raise NoFeasiblePlace("all place scores are zero")
    flat = int(np.argmax(grids))
    r, rest = divmod(flat, grids.shape[1] * grids.shape[2])
    u, v = divmod(rest, grids.shape[2])
    return Pose2(u, v, r)


def eval_relate(target_map: GroundingMap, reference_map: GroundingMap,
                relation: dsl.ConceptToken, ctx: ExecutionContext) -> GroundingMap:
    """Keep target regions standing in the relation to the reference."""
    kernel = relation_kernel(reference_map.values, relation.word, ctx.relation_config)
    out = intersect(target_map, GroundingMap._unchecked(kernel.astype(np.float64)))
    return normalize(out.values)


def _component(mask: np.ndarray, seed: tuple[int, int]) -> Cells:
    """Row-major (rows, cols) of the 4-connected component of the boolean
    mask containing the seed pixel (just the seed when it is off the mask),
    filled over the flat indices of the mask framed by zeros: a cell's
    neighbours are i +- 1 and i +- (w + 2)."""
    h, w = mask.shape
    framed = np.zeros((h + 2, w + 2), dtype=bool)
    framed[1:-1, 1:-1] = mask
    cells = bytearray(framed.tobytes())  # 1: on the mask, not reached yet
    start = (seed[0] + 1) * (w + 2) + seed[1] + 1
    cells[start] = 2
    reached = [start]
    for i in reached if mask[seed] else ():  # the list grows while it is walked
        for j in (i - w - 2, i - 1, i + 1, i + w + 2):
            if cells[j] == 1:
                cells[j] = 2
                reached.append(j)
    rows, cols = np.divmod(np.sort(reached), w + 2)
    return rows - 1, cols - 1


def _snap_pick_to_item(pick: Pose2, pick_map: GroundingMap, silhouette: Cells,
                       ctx: ExecutionContext) -> tuple[Pose2, GroundingMap, world.SceneObject | None]:
    """Mask upsampling can read solid where the true footprint has a notch;
    if the argmax pixel is not over an item, move it to the nearest
    silhouette cell that is. The recorded map keeps the snapped cell as its
    strict argmax. Also returns the item under the pick, or None."""
    item = world.pick_target(ctx.scene, pick.u, pick.v)
    if item is not None:
        return pick, pick_map, item
    rows, cols = silhouette
    order = np.argsort((rows - rows.mean()) ** 2 + (cols - cols.mean()) ** 2,
                       kind="stable")
    for idx in order:
        u, v = int(rows[idx]), int(cols[idx])
        item = world.pick_target(ctx.scene, u, v)
        if item is not None:
            arr = pick_map.values * 0.999
            arr[u, v] = 1.0
            return Pose2(u, v, 0), GroundingMap._unchecked(arr), item
    return pick, pick_map, None


def _clear_of_items(kernel: np.ndarray, scene: world.Scene,
                    exclude: world.SceneObject | None) -> np.ndarray:
    """The kernel minus every cell within P = OBSTACLE_PAD_PX 4-neighbour
    steps of an item other than exclude; the kernel itself if no item covers
    its box grown by P. P steps move no cell more than P rows or columns, so
    only items whose reach window meets that box are read, and only there."""
    box = support_box(kernel)
    if box is None:
        return kernel
    (h, w), pad = kernel.shape, OBSTACLE_PAD_PX
    r0, r1 = max(box[0] - pad, 0), min(box[1] + pad + 1, h)
    c0, c1 = max(box[2] - pad, 0), min(box[3] + pad + 1, w)
    blocked = np.zeros((r1 - r0, c1 - c0), dtype=bool)
    for obj in scene.objects:
        reach = obj.reach
        if (obj.kind == world.ITEM and obj is not exclude and obj.y - reach <= r1 - 1
                and r0 < obj.y + reach and obj.x - reach <= c1 - 1 and c0 < obj.x + reach):
            blocked |= obj.mask((h, w))[r0:r1, c0:c1]
    if not blocked.any():
        return kernel
    out = kernel.copy()
    for _ in range(pad):
        blocked = _step(blocked, np.logical_or)
    out[r0:r1, c0:c1] &= ~blocked
    return out


def _place_scores(kernel: np.ndarray, silhouette: Cells, reference: np.ndarray,
                  grid: PoseGrid) -> tuple[Cells, np.ndarray]:
    """The cells where the reference is nonzero, row-major, and their (R, n)
    place scores; every other pose scores zero. Rotation r turns the
    silhouette's offsets from its rounded centroid into a boolean stencil of
    n cells, and a cell scores (overlap / n)^2 times the reference, overlap
    counting the stencil cells on the boolean kernel (off-grid cells count
    as zero)."""
    cells = rows, cols = _cells(reference > 0)
    sil_rows, sil_cols = silhouette
    off_u = sil_rows - int(round(sil_rows.mean()))
    off_v = sil_cols - int(round(sil_cols.mean()))
    angles = [grid.angle(r) for r in range(grid.rotations)]
    c = np.array([math.cos(a) for a in angles])[:, None]
    s = np.array([math.sin(a) for a in angles])[:, None]
    du = np.rint(off_u * c - off_v * s).astype(int)
    dv = np.rint(off_u * s + off_v * c).astype(int)
    m = int(max(np.abs(du).max(), np.abs(dv).max()))
    side = 2 * m + 1
    stencils = np.zeros((grid.rotations, side, side), dtype=bool)
    stencils[np.arange(grid.rotations)[:, None], du + m, dv + m] = True
    # Overlaps are sums of 0/1 terms, exact in float32 below 2**24 cells.
    # Chunks of cells x side^2 x rotations <= WINDOW_CELLS keep each product on this thread.
    padded = np.zeros((grid.height + 2 * m, grid.width + 2 * m), dtype=np.float32)
    padded[m:m + grid.height, m:m + grid.width] = kernel
    windows = sliding_window_view(padded, (side, side))
    weights = stencils.reshape(grid.rotations, -1).astype(np.float32)
    scores = np.empty((grid.rotations, len(rows)))
    chunk = max(1, WINDOW_CELLS // (side * side * grid.rotations))
    for i in range(0, len(rows), chunk):
        gathered = windows[rows[i:i + chunk], cols[i:i + chunk]]
        scores[:, i:i + chunk] = (gathered.reshape(len(gathered), -1) @ weights.T).T
    scores /= stencils.sum(axis=(1, 2))[:, None]
    np.square(scores, out=scores)
    scores *= reference[cells]
    return cells, scores


def _push_params(silhouette: Cells, support: np.ndarray, grid: PoseGrid):
    """Pre-push pose behind the object relative to the goal direction,
    post-push pose at the support's centroid (nearest supported cell).
    Recorded maps are one-hot (the place: rotation 0 of the post-push cell)
    so the argmax invariant still holds."""
    # Index means as integer sum / count: exactly ndarray.mean below 2**53.
    sil_rows, sil_cols = silhouette
    c_u, c_v = sil_rows.sum() / len(sil_rows), sil_cols.sum() / len(sil_cols)
    sup_rows, sup_cols = _cells(support)
    if not len(sup_rows):
        raise NoFeasiblePlace("push goal region is empty")
    g_u, g_v = sup_rows.sum() / len(sup_rows), sup_cols.sum() / len(sup_cols)
    nearest = int(np.argmin((sup_rows - g_u) ** 2 + (sup_cols - g_v) ** 2))
    post = Pose2(int(sup_rows[nearest]), int(sup_cols[nearest]), 0)

    d_u, d_v = g_u - c_u, g_v - c_v
    norm = math.hypot(d_u, d_v)
    # The silhouette's reach; a one-cell silhouette is its own centroid.
    radius = float(np.max(np.hypot(sil_rows - c_u, sil_cols - c_v)))
    if norm > 1e-9:
        pre_u = c_u - radius * d_u / norm
        pre_v = c_v - radius * d_v / norm
    else:
        pre_u, pre_v = c_u, c_v
    pre = Pose2(min(max(int(round(pre_u)), 0), grid.height - 1),
                min(max(int(round(pre_v)), 0), grid.width - 1), 0)
    pick_map = np.zeros((grid.height, grid.width))
    pick_map[pre.u, pre.v] = 1.0
    return (ControlParams(pre, post, PUSH), GroundingMap._unchecked(pick_map),
            (np.array([post.u]), np.array([post.v])), np.eye(grid.rotations, 1))


def _eval_obj(node: dsl.ProgramNode, path: str, ctx: ExecutionContext,
              intermediates: dict[str, GroundingMap]) -> GroundingMap:
    if isinstance(node, dsl.Scene):
        result = GroundingMap._unchecked(np.ones(ctx.backend.shape_for(ctx.scene)))
    elif isinstance(node, dsl.Filter):
        child = _eval_obj(node.child, f"{path}.0", ctx, intermediates)
        result = intersect(child, ctx.backend.ground(ctx.scene, node.prop))
    elif isinstance(node, dsl.ObjUnion):
        result = union(_eval_obj(node.a, f"{path}.0", ctx, intermediates),
                       _eval_obj(node.b, f"{path}.1", ctx, intermediates))
    else:  # a relate, the last object node: programs reach execute typed by construction
        target = _eval_obj(node.target, f"{path}.0", ctx, intermediates)
        reference = _eval_obj(node.reference, f"{path}.1", ctx, intermediates)
        result = eval_relate(target, reference, node.rel, ctx)
    intermediates[path] = result
    return result


def execute(program: dsl.ProgramNode, ctx: ExecutionContext) -> ExecutionResult:
    """Plan one goal, a do program, against the scene context: the pick from
    the object map, then a push toward the goal kernel or a scored place on
    it. A plan of several goals runs goal by goal (benchmark.step)."""
    if not isinstance(program, dsl.Do):
        raise dsl.TypeMismatch("0", "do", type(program).__name__)
    intermediates: dict[str, GroundingMap] = {}
    goal, grid = program.goal, ctx.pose_grid
    obj_map = _eval_obj(goal.obj, "0.0.0", ctx, intermediates)
    ref_map = _eval_obj(goal.reference, "0.0.1", ctx, intermediates)
    kind = ctx.relation_config.kind_of(goal.rel.word)
    up_obj = resample(obj_map, grid.height, grid.width).values
    reference = resample(ref_map, grid.height, grid.width).values
    kernel = relation_kernel(reference, goal.rel.word, ctx.relation_config)

    # Plan the pick on up_obj's support window: every cell off it is +0.0.
    r0, r1, c0, c1 = support_box(up_obj) or (0, 0, 0, 0)
    window = np.s_[r0:r1 + 1, c0:c1 + 1]
    obj = up_obj[window]
    # Objects already sitting in a containment goal region are not pick
    # candidates; without this, multi-step episodes would loop on one object.
    pick_arr = obj * ~kernel[window] if kind in (INTERIOR, SURFACE) else obj
    # Suction-style graspability: prefer the deepest interior pixel of the
    # mask. Upsampled masks can read solid at thin notches (star arms); edge
    # maxima there would miss the object, the interior never does. The cast
    # is explicit: numpy 1.x promotes an integer array plus a float by value.
    depth = _interior_depth(pick_arr >= 0.5).astype(np.float64)
    pick_arr = pick_arr * (1.0 + depth) / (1.0 + depth.max())
    at = select_pick(GroundingMap._unchecked(pick_arr))
    rows, cols = _component(obj >= 0.5, (at.u, at.v))
    silhouette = rows + r0, cols + c0
    pick_map = np.zeros((grid.height, grid.width))
    pick_map[window] = pick_arr
    pick, pick_map, picked = _snap_pick_to_item(Pose2(at.u + r0, at.v + c0),
                                                GroundingMap._unchecked(pick_map), silhouette, ctx)
    effective = _clear_of_items(kernel, ctx.scene, picked)

    if program.action.word == PUSH_VERB:
        params, pick_map, cells, scores = _push_params(
            silhouette, effective if effective.any() else kernel, grid)
    else:
        cells, scores = _place_scores(effective, silhouette, reference, grid)
        best = select_place(scores[:, None, :])  # row-major cells: (r, 0, j) is (r, u, v) order
        place = Pose2(int(cells[0][best.v]), int(cells[1][best.v]), best.r)
        params = ControlParams(pick, place, PICK_PLACE)
    intermediates["0"] = pick_map
    return ExecutionResult(params, intermediates, pick_map, cells, scores, grid)
