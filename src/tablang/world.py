"""Kinematic 2D tabletop world.

Objects are parametric footprints (polygons, discs, rings) with a continuous
center, rotation, and scale. paint rasterizes them in painter's order (zones,
then containers, then items) into an int raster of the topmost object at
each sample of a lattice the caller chooses; render reads that raster on the
pixel lattice into an RGB + height image and an id segmentation, and the
embedding backend reads it on its grounding lattice.
Actions are kinematic: pick/place teleports an item, push sweeps a corridor.
No mass, no friction; the only collision rule is that items may not overlap
container walls (they are clamped inward or outward).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import formats
from .grounding import axis_coords

# The action primitives ControlParams.primitive names; apply dispatches on them.
PICK_PLACE = "pick_place"
PUSH = "push"

ITEM = "item"
CONTAINER = "container"
ZONE = "zone"

WALL_PX = 2.0
PUSH_HALF_WIDTH = 6.0
# Rounds of workspace and container clamps an item gets to come to rest.
SETTLE_ROUNDS = 8
# Widest and highest scene a file may give, in pixels: 8x the generated workspace's width.
MAX_SIDE = 1024
# Largest object id a file may give: the segmentation is int32, and 0 is the background.
MAX_ID = 2**31 - 1

COLORS: dict[str, tuple[float, float, float]] = {
    "red": (0.87, 0.18, 0.18),
    "green": (0.20, 0.66, 0.33),
    "blue": (0.20, 0.40, 0.85),
    "yellow": (0.95, 0.83, 0.15),
    "brown": (0.54, 0.36, 0.21),
    "gray": (0.55, 0.55, 0.55),
    "cyan": (0.23, 0.77, 0.80),
    "orange": (0.94, 0.56, 0.18),
    "purple": (0.56, 0.25, 0.70),
    "pink": (0.93, 0.55, 0.70),
    "white": (0.95, 0.95, 0.95),
}

BACKGROUND = (0.15, 0.15, 0.15)


def _regular(n: int, radius: float = 1.0, phase: float = 0.0) -> list[tuple[float, float]]:
    return [
        (radius * math.cos(phase + 2 * math.pi * k / n),
         radius * math.sin(phase + 2 * math.pi * k / n))
        for k in range(n)
    ]


def _star(points: int = 5, outer: float = 1.0, inner: float = 0.55) -> list[tuple[float, float]]:
    verts = []
    for k in range(2 * points):
        r = outer if k % 2 == 0 else inner
        a = -math.pi / 2 + math.pi * k / points
        verts.append((r * math.cos(a), r * math.sin(a)))
    return verts


def _flower(petals: int = 5, samples: int = 40) -> list[tuple[float, float]]:
    verts = []
    for k in range(samples):
        a = 2 * math.pi * k / samples
        r = 0.78 + 0.22 * math.cos(petals * a)
        verts.append((r * math.cos(a), r * math.sin(a)))
    return verts


# Unit-scale geometry. "rect" entries are axis-aligned half-extents,
# "disc"/"ring" carry radii, everything else is a polygon vertex list.
_POLYGONS: dict[str, list[tuple[float, float]]] = {
    "hexagon": _regular(6),
    "star": _star(),
    "flower": _flower(),
    "diamond": [(0.0, -1.0), (0.65, 0.0), (0.0, 1.0), (-0.65, 0.0)],
    "triangle": _regular(3, phase=-math.pi / 2),
    "letter-l": [(-0.6, -1.0), (0.1, -1.0), (0.1, 0.4), (0.7, 0.4), (0.7, 1.0), (-0.6, 1.0)],
    "letter-t": [(-0.9, -1.0), (0.9, -1.0), (0.9, -0.35), (0.3, -0.35),
                 (0.3, 1.0), (-0.3, 1.0), (-0.3, -0.35), (-0.9, -0.35)],
}

_RECTS: dict[str, tuple[float, float]] = {
    "square": (0.72, 0.72),
    "block": (0.72, 0.72),
    "box": (1.3, 1.0),
}

_DISCS: dict[str, float] = {"disc": 0.9, "bowl": 1.0}

_RINGS: dict[str, tuple[float, float]] = {"ring": (1.0, 0.5)}

SHAPE_NAMES = tuple(sorted(_POLYGONS) + sorted(_RECTS) + sorted(_DISCS) + sorted(_RINGS))


class OutOfBounds(Exception):
    pass


@functools.cache
def unit_circumradius(shape: str) -> float:
    if shape in _POLYGONS:
        return max(math.hypot(x, y) for x, y in _POLYGONS[shape])
    if shape in _RECTS:
        hx, hy = _RECTS[shape]
        return math.hypot(hx, hy)
    if shape in _DISCS:
        return _DISCS[shape]
    if shape in _RINGS:
        return _RINGS[shape][0]
    raise KeyError(f"unknown shape {shape!r}")


@dataclass(frozen=True)
class SceneObject:
    id: int
    kind: str
    shape: str
    color: str
    x: float
    y: float
    angle: float = 0.0
    size: float = 6.0
    attributes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (ITEM, CONTAINER, ZONE):
            raise ValueError(f"bad kind {self.kind!r}")
        if self.shape not in SHAPE_NAMES:
            raise ValueError(f"unknown shape {self.shape!r}")
        if self.kind == CONTAINER and self.shape not in ("box", "bowl"):
            raise ValueError(f"a container must be a box or a bowl, not {self.shape!r}")
        if self.color not in COLORS:
            raise ValueError(f"unknown color {self.color!r}")
        attrs = tuple(sorted(set(self.attributes) | {self.shape, self.color}))
        object.__setattr__(self, "attributes", attrs)
        if not all(map(math.isfinite, (self.x, self.y, self.angle, self.size))):
            raise ValueError(f"object {self.id}: x, y, angle and size must be finite")
        if self.size <= 0:
            raise ValueError("size must be positive")

    @property
    def circumradius(self) -> float:
        return self.size * unit_circumradius(self.shape)

    @property
    def reach(self) -> float:
        """No sample outside obj.y - reach <= y < obj.y + reach (the same
        for x) is inside the object; _sample tests only that window."""
        return self.circumradius + 1.0

    # mask's memo; not a field, so ==, hash, asdict, replace and moved skip it.
    _masks = functools.cached_property(lambda self: {})

    def moved(self, **pose: float) -> SceneObject:
        """dataclasses.replace(self, **pose) for a new x, y or angle, with an
        empty mask memo, checking only that the new values are finite."""
        if not all(map(math.isfinite, pose.values())):
            raise ValueError(f"object {self.id}: x, y, angle and size must be finite")
        out = object.__new__(type(self))
        vars(out).update({k: v for k, v in vars(self).items() if k != "_masks"}, **pose)
        return out

    def mask(self, hw: tuple[int, int], lattice: tuple[int, int] | None = None,
             interior: bool = False) -> np.ndarray:
        """The read-only footprint (interior_mask when interior) on the
        corner-aligned (rows, cols) = lattice of the hw scene, the pixel
        lattice when None; rasterized once per object and lattice."""
        (h, w), (rows, cols) = hw, lattice or hw
        key = (h, w, rows, cols, interior)
        if key not in self._masks:
            rasterize = interior_mask if interior else footprint_mask
            out = rasterize(self, axis_coords(rows, h), axis_coords(cols, w))
            out.setflags(write=False)
            self._masks[key] = out
        return self._masks[key]


@dataclass(frozen=True)
class Scene:
    width: int
    height: int
    objects: tuple[SceneObject, ...]
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        ids = [o.id for o in self.objects]
        if len(set(ids)) != len(ids):
            raise ValueError("object ids must be unique")

    def find(self, oid: int) -> SceneObject:
        for o in self.objects:
            if o.id == oid:
                return o
        raise KeyError(oid)


def _edge_arrays(verts: list[tuple[float, float]]) -> tuple[np.ndarray, ...]:
    """(x1, y1, y2, x2 - x1, y2 - y1) of every non-horizontal edge, each of
    shape (E, 1, 1) so they broadcast against an (H, W) lattice."""
    edges = [(x1, y1, y2, x2 - x1, y2 - y1)
             for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]) if y2 != y1]
    return tuple(np.array(col, dtype=np.float64)[:, None, None] for col in zip(*edges))


def _point_in_polygon(edges: tuple[np.ndarray, ...], px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Even-odd crossing test against all edges at once. A horizontal edge
    never crosses a scan line, so only the non-horizontal ones are given."""
    x1, y1, y2, dx, dy = edges
    crosses = (y1 <= py) != (y2 <= py)
    xint = x1 + (py - y1) * dx / dy
    return np.logical_xor.reduce(crosses & (px < xint), axis=0)


_EDGES = {name: _edge_arrays(verts) for name, verts in _POLYGONS.items()}


def _unit_test(shape: str, inset: float = 0.0):
    """The (ux, uy) -> inside predicate of the unit-scale shape; rects and
    discs shrink by inset on every side (container walls). It takes numpy
    arrays that broadcast, or Python floats for one point."""
    if shape in _RECTS:
        hx, hy = _RECTS[shape]
        hx, hy = hx - inset, hy - inset
        return lambda ux, uy: (abs(ux) <= hx) & (abs(uy) <= hy)
    if shape in _DISCS:
        r = _DISCS[shape] - inset
        # Walls thicker than the radius leave no interior: r * r alone would
        # turn a negative r back into a disc, larger than the footprint.
        return lambda ux, uy: (ux * ux + uy * uy <= r * r) & (r >= 0.0)
    if shape in _RINGS:
        ro, ri = _RINGS[shape]

        def ring(ux, uy):
            rr = ux * ux + uy * uy
            return (rr <= ro * ro) & (rr > ri * ri)
        return ring
    edges = _EDGES[shape]
    return lambda ux, uy: _point_in_polygon(edges, ux, uy)


def _interior_test(obj: SceneObject):
    """The unit-frame predicate of interior_mask: the footprint for items
    and zones, the space inside the walls for containers."""
    if obj.kind != CONTAINER:
        return _unit_test(obj.shape)
    return _unit_test(obj.shape, WALL_PX / obj.size)


def _to_unit(obj: SceneObject, x, y):
    """Unit-frame (ux, uy) of scene points (x, y): numpy arrays that
    broadcast, or Python floats."""
    X = x - obj.x
    Y = y - obj.y
    c, s = math.cos(obj.angle), math.sin(obj.angle)
    ux = (X * c + Y * s) / obj.size
    uy = (-X * s + Y * c) / obj.size
    return ux, uy


def _sample(obj: SceneObject, ys: np.ndarray, xs: np.ndarray, test) -> np.ndarray:
    """(len(ys), len(xs)) boolean raster of test(ux, uy), evaluated only on
    the object's reach window; every other sample is False."""
    out = np.zeros((len(ys), len(xs)), dtype=bool)
    reach = obj.reach
    r0, r1 = ys.searchsorted((obj.y - reach, obj.y + reach))
    c0, c1 = xs.searchsorted((obj.x - reach, obj.x + reach))
    if r0 < r1 and c0 < c1:
        out[r0:r1, c0:c1] = test(*_to_unit(obj, xs[None, c0:c1], ys[r0:r1, None]))
    return out


def footprint_mask(obj: SceneObject, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Boolean raster of the object's footprint sampled at (ys, xs) scene
    coordinates. ys and xs must be ascending: the inside test runs only on
    the rows and columns of the object's reach window, found by binary
    search, and every other sample is False."""
    return _sample(obj, ys, xs, _unit_test(obj.shape))


def interior_mask(obj: SceneObject, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Like footprint_mask but excluding container walls. For items and
    zones the interior is the footprint itself."""
    return _sample(obj, ys, xs, _interior_test(obj))


def inside(obj: SceneObject, y: float, x: float) -> bool:
    """Whether the scene point (y, x) is in the object's interior_mask: its
    footprint for items and zones, the space inside the walls for
    containers. The point is tested alone, in Python floats, with
    _sample's window rule and the same arithmetic and predicate."""
    y, x = float(y), float(x)
    reach = obj.reach
    if not (obj.y - reach <= y < obj.y + reach and obj.x - reach <= x < obj.x + reach):
        return False
    return bool(_interior_test(obj)(*_to_unit(obj, x, y)))


def check_bounds(scene: Scene) -> None:
    """Raise OutOfBounds when an object's centre lies outside the workspace
    or its footprint covers a sample of the one-pixel ring around it (rows
    y = -1 and y = h, columns x = -1 and x = w)."""
    h, w = scene.height, scene.width
    ring_ys = np.array([-1.0, float(h)])
    ring_xs = np.array([-1.0, float(w)])
    ys = np.arange(-1, h + 1, dtype=np.float64)
    xs = np.arange(-1, w + 1, dtype=np.float64)
    for obj in scene.objects:
        # The ring test alone misses an object lying wholly outside the ring.
        if not (0.0 <= obj.x <= w - 1 and 0.0 <= obj.y <= h - 1):
            raise OutOfBounds(f"object {obj.id} has its centre outside the workspace")
        reach = obj.reach
        if (-1.0 < obj.x - reach and obj.x + reach < w
                and -1.0 < obj.y - reach and obj.y + reach < h):
            continue  # no ring sample lies within the object's window
        if footprint_mask(obj, ring_ys, xs).any() or footprint_mask(obj, ys, ring_xs).any():
            raise OutOfBounds(f"object {obj.id} exits the workspace")


def attribute_vocabulary(scene: Scene) -> tuple[str, ...]:
    vocab: set[str] = set()
    for obj in scene.objects:
        vocab.update(obj.attributes)
    return tuple(sorted(vocab))


@dataclass(frozen=True, eq=False)
class RenderedScene:
    image: np.ndarray          # (H, W, 4): RGB + height
    segmentation: np.ndarray   # (H, W) int32 object ids, 0 = background


def paint(scene: Scene, lattice: tuple[int, int] | None = None
          ) -> tuple[tuple[SceneObject, ...], np.ndarray]:
    """The objects in painter's order (zones, then containers, then items)
    and the int raster of the topmost object at each sample of the
    corner-aligned lattice (the pixel lattice when None): k is
    order[k - 1] and 0 the background. Raises OutOfBounds as check_bounds
    does."""
    check_bounds(scene)
    hw = (scene.height, scene.width)
    rank = {ZONE: 0, CONTAINER: 1, ITEM: 2}
    order = tuple(sorted(scene.objects, key=lambda o: rank[o.kind]))
    ids = np.zeros(lattice or hw, dtype=np.intp)
    for k, obj in enumerate(order, 1):
        ids[obj.mask(hw, lattice)] = k
    return order, ids


def render(scene: Scene) -> RenderedScene:
    """Rasterize the scene: each channel gathers a per-object table with
    paint's ids. Deterministic; raises OutOfBounds when any footprint exits
    the workspace."""
    order, ids = paint(scene)
    image = np.empty((*ids.shape, 4), dtype=np.float64)
    image[:, :, :3] = np.array([BACKGROUND, *(COLORS[o.color] for o in order)])[ids]
    heights = {ZONE: 0.0, CONTAINER: 0.05}  # an item stands 0.02 of its size
    image[:, :, 3] = np.array([0.0, *(heights.get(o.kind, 0.02 * o.size) for o in order)])[ids]
    for k, obj in enumerate(order, 1):
        if obj.kind == CONTAINER:  # only the walls stand up
            image[(ids == k) & obj.mask(ids.shape, interior=True), 3] = 0.0
    seg = np.array([0, *(o.id for o in order)], dtype=np.int32)[ids]
    return RenderedScene(image, seg)


def _clamp_workspace(scene: Scene, obj: SceneObject) -> SceneObject:
    cr = obj.circumradius
    x = min(max(obj.x, cr), scene.width - 1 - cr)
    y = min(max(obj.y, cr), scene.height - 1 - cr)
    return obj if (x, y) == (obj.x, obj.y) else obj.moved(x=x, y=y)


def _clamp_against_container(item: SceneObject, cont: SceneObject) -> SceneObject:
    """Resolve wall overlap. If the item's center is on the container
    footprint it is clamped fully into the interior; otherwise it is pushed
    outside the walls. A box is clamped in its own (rotated) frame."""
    ri = item.circumradius
    dx = item.x - cont.x
    dy = item.y - cont.y
    if cont.shape == "box":
        c, s = math.cos(cont.angle), math.sin(cont.angle)
        ux, uy = dx * c + dy * s, -dx * s + dy * c
        hx = _RECTS["box"][0] * cont.size
        hy = _RECTS["box"][1] * cont.size
        if abs(ux) > hx + ri or abs(uy) > hy + ri:
            return item
        if abs(ux) <= hx and abs(uy) <= hy:
            ix = max(hx - WALL_PX - ri, 0.0)
            iy = max(hy - WALL_PX - ri, 0.0)
            ux, uy = min(max(ux, -ix), ix), min(max(uy, -iy), iy)
        elif hx + ri - abs(ux) <= hy + ri - abs(uy):
            ux = math.copysign(hx + ri, ux if ux else 1.0)
        else:
            uy = math.copysign(hy + ri, uy if uy else 1.0)
        return item.moved(x=cont.x + ux * c - uy * s, y=cont.y + ux * s + uy * c)
    r_out = _DISCS["bowl"] * cont.size
    d = math.hypot(dx, dy)
    if d > r_out + ri:
        return item
    if d <= r_out:
        r_in = max(r_out - WALL_PX - ri, 0.0)
        if d <= r_in:
            return item
        f = r_in / d
        return item.moved(x=cont.x + dx * f, y=cont.y + dy * f)
    f = (r_out + ri) / d
    return item.moved(x=cont.x + dx * f, y=cont.y + dy * f)


def _settle(scene: Scene, item: SceneObject, before: SceneObject) -> SceneObject:
    """The item after rounds of workspace and container clamps, once no
    single clamp moves it by more than 1e-9; an item not at rest within
    SETTLE_ROUNDS rounds keeps its pre-action pose, before."""
    clamps = [functools.partial(_clamp_workspace, scene)] + [
        functools.partial(_clamp_against_container, cont=c)
        for c in scene.objects if c.kind == CONTAINER]
    for _ in range(SETTLE_ROUNDS):
        for clamp in clamps:
            item = clamp(item)
        if all(math.hypot(m.x - item.x, m.y - item.y) <= 1e-9
               for m in (clamp(item) for clamp in clamps)):
            return item
    return before


def pick_target(scene: Scene, row: int, col: int) -> SceneObject | None:
    """Topmost item whose footprint covers the pixel, or None."""
    for obj in reversed([o for o in scene.objects if o.kind == ITEM]):
        if inside(obj, row, col):
            return obj
    return None


def apply_pick_place(scene: Scene, params, rotations: int = 12) -> tuple[Scene, bool]:
    """Teleport the item under the pick pixel to the place pose. Returns the
    new scene and a flag; a miss, or an item that does not come to rest
    (_settle), is a silent no-op: the same scene and False."""
    if params.primitive != PICK_PLACE:
        raise ValueError("apply_pick_place needs a pick_place primitive")
    target = pick_target(scene, params.pick.u, params.pick.v)
    theta = 2 * math.pi * params.place.r / rotations
    moved = target and _settle(scene, target.moved(x=float(params.place.v), y=float(params.place.u),
                                                   angle=target.angle + theta), target)
    if moved is target:  # a miss (None), or an item that did not come to rest
        return scene, False
    objects = tuple(moved if o.id == target.id else o for o in scene.objects)
    return replace(scene, objects=objects), True


def apply_push(scene: Scene, params) -> tuple[Scene, bool]:
    """Sweep a straight corridor, PUSH_HALF_WIDTH to either side, from the
    pre-push to the post-push location. Items whose centroid lies in the
    corridor keep their lateral offset and stop on the plane through the
    post-push point; with none that comes to rest, the same scene and False."""
    if params.primitive != PUSH:
        raise ValueError("apply_push needs a push primitive")
    pre = np.array([float(params.pick.v), float(params.pick.u)])
    post = np.array([float(params.place.v), float(params.place.u)])
    vec = post - pre
    length = float(np.hypot(*vec))
    if length < 1e-9:
        return scene, False
    direction = vec / length
    perp = np.array([-direction[1], direction[0]])
    reach = length / 2 + PUSH_HALF_WIDTH + 1e-6  # of every corridor point from the midpoint
    mid_x, mid_y = ((pre + post) / 2).tolist()
    objects, moved_any = list(scene.objects), False
    for i, obj in enumerate(objects):
        if obj.kind == ITEM and abs(obj.x - mid_x) <= reach and abs(obj.y - mid_y) <= reach:
            rel = np.array([obj.x, obj.y]) - pre
            t, s = float(rel @ direction), float(rel @ perp)
            if 0.0 <= t <= length and abs(s) <= PUSH_HALF_WIDTH:
                dest = post + perp * s
                objects[i] = _settle(scene, obj.moved(x=float(dest[0]), y=float(dest[1])), obj)
                moved_any |= objects[i] is not obj
    if not moved_any:
        return scene, False
    return replace(scene, objects=tuple(objects)), True


def apply(scene: Scene, params, rotations: int = 12) -> tuple[Scene, bool]:
    """Run the primitive that params.primitive names: apply_push for a push,
    apply_pick_place otherwise. Both are looked up as module globals at call
    time, so a wrapper set on either (benchmarks/layers.py traces them that
    way) sees every action."""
    if params.primitive == PUSH:
        return apply_push(scene, params)
    return apply_pick_place(scene, params, rotations)


def scene_to_dict(scene: Scene) -> dict:
    return {"width": scene.width, "height": scene.height, "seed": scene.rng_seed,
            "objects": [asdict(o) for o in scene.objects]}


def scene_from_dict(data) -> Scene:
    """The scene a scene_to_dict mapping describes (angle, size and seed may
    be absent); ValueError on an unknown key, a number of the wrong JSON type,
    an id outside 1..MAX_ID, or anything but an "objects" list of objects
    with string attributes."""
    if not isinstance(data, dict) or not isinstance(data.get("objects"), list):
        raise ValueError('a scene must be an object with an "objects" list')
    formats.known_keys(data, ("width", "height", "seed", "objects"), "scene")
    for d in data["objects"]:
        attrs = d.get("attributes", []) if isinstance(d, dict) else None
        if not (isinstance(attrs, (list, tuple)) and all(isinstance(a, str) for a in attrs)):
            raise ValueError(f"not an object with a list of string attributes: {d!r}")
        formats.known_keys(d, SceneObject.__dataclass_fields__, "object")
    num = formats.json_number
    objects = tuple(
        SceneObject(
            id=num("id", d["id"], True, 1, MAX_ID), kind=d["kind"], shape=d["shape"],
            color=d["color"], x=float(num("x", d["x"])), y=float(num("y", d["y"])),
            attributes=tuple(d.get("attributes", ())),
            **{k: float(num(k, d[k])) for k in ("angle", "size") if k in d},
        )
        for d in data["objects"]
    )
    return Scene(num("width", data["width"], True, 1, MAX_SIDE),
                 num("height", data["height"], True, 1, MAX_SIDE),
                 objects, num("seed", data.get("seed", 0), True))


def save_scene(path, scene: Scene) -> None:
    Path(path).write_text(json.dumps(scene_to_dict(scene), indent=2, sort_keys=True) + "\n")


def load_scene(path) -> Scene:
    return scene_from_dict(json.loads(Path(path).read_text()))
