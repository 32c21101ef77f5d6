"""Kinematic 2D tabletop world.

Objects are parametric footprints (polygons, discs, rings) with a continuous
center, rotation, and scale; rendering rasterizes them top-down in painter's
order (zones, then containers, then items) into an RGB + height image, an id
segmentation, and a synthetic per-pixel attribute-indicator feature map
(features rasterizes the feature map alone).
Actions are kinematic: pick/place teleports an item, push sweeps a corridor.
No mass, no friction; the only collision rule is that items may not overlap
container walls (they are clamped inward or outward).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .grounding import FeatureMap, GroundingMap, axis_coords

ITEM = "item"
CONTAINER = "container"
ZONE = "zone"

WALL_PX = 2.0
PUSH_HALF_WIDTH = 6.0

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
    attributes: tuple[str, ...]
    x: float
    y: float
    angle: float = 0.0
    size: float = 6.0

    def __post_init__(self):
        if self.kind not in (ITEM, CONTAINER, ZONE):
            raise ValueError(f"bad kind {self.kind!r}")
        if self.shape not in SHAPE_NAMES:
            raise ValueError(f"unknown shape {self.shape!r}")
        if self.color not in COLORS:
            raise ValueError(f"unknown color {self.color!r}")
        attrs = tuple(sorted(set(self.attributes) | {self.shape, self.color}))
        object.__setattr__(self, "attributes", attrs)
        if self.size <= 0:
            raise ValueError("size must be positive")

    @property
    def circumradius(self) -> float:
        return self.size * unit_circumradius(self.shape)


def make_object(oid: int, kind: str, shape: str, color: str, x: float, y: float,
                angle: float = 0.0, size: float = 6.0,
                extra: tuple[str, ...] = ()) -> SceneObject:
    return SceneObject(oid, kind, shape, color, tuple(extra), x, y, angle, size)


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

    def grounding_shape(self) -> tuple[int, int]:
        return max(1, self.height // 2), max(1, self.width // 2)


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


def _unit_inside(shape: str, ux: np.ndarray, uy: np.ndarray) -> np.ndarray:
    if shape in _RECTS:
        hx, hy = _RECTS[shape]
        return (np.abs(ux) <= hx) & (np.abs(uy) <= hy)
    if shape in _DISCS:
        r = _DISCS[shape]
        return ux * ux + uy * uy <= r * r
    if shape in _RINGS:
        ro, ri = _RINGS[shape]
        rr = ux * ux + uy * uy
        return (rr <= ro * ro) & (rr > ri * ri)
    return _point_in_polygon(_EDGES[shape], ux, uy)


def _to_unit(obj: SceneObject, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = xs[None, :] - obj.x
    Y = ys[:, None] - obj.y
    c, s = math.cos(obj.angle), math.sin(obj.angle)
    ux = (X * c + Y * s) / obj.size
    uy = (-X * s + Y * c) / obj.size
    return ux, uy


def _sample(obj: SceneObject, hw: tuple[int, int], ys: np.ndarray | None,
            xs: np.ndarray | None, inside) -> np.ndarray:
    """(len(ys), len(xs)) boolean raster of inside(ux, uy), evaluated only on
    the lattice window within circumradius + 1 of the object's centre; no
    sample outside that window can be inside the object."""
    h, w = hw
    ys = np.arange(h, dtype=np.float64) if ys is None else np.asarray(ys, dtype=np.float64)
    xs = np.arange(w, dtype=np.float64) if xs is None else np.asarray(xs, dtype=np.float64)
    out = np.zeros((len(ys), len(xs)), dtype=bool)
    reach = obj.circumradius + 1.0
    r0, r1 = ys.searchsorted((obj.y - reach, obj.y + reach))
    c0, c1 = xs.searchsorted((obj.x - reach, obj.x + reach))
    if r0 < r1 and c0 < c1:
        ux, uy = _to_unit(obj, xs[c0:c1], ys[r0:r1])
        out[r0:r1, c0:c1] = inside(ux, uy)
    return out


def footprint_mask(obj: SceneObject, hw: tuple[int, int],
                   ys: np.ndarray | None = None, xs: np.ndarray | None = None) -> np.ndarray:
    """Boolean raster of the object's footprint sampled at (ys, xs) scene
    coordinates (defaults to the integer pixel lattice of shape hw; hw is
    ignored where ys and xs are given). ys and xs must be ascending: the
    inside test runs only on the rows and columns within circumradius + 1 of
    the centre, found by binary search, and every other sample is False."""
    return _sample(obj, hw, ys, xs, lambda ux, uy: _unit_inside(obj.shape, ux, uy))


def interior_mask(obj: SceneObject, hw: tuple[int, int],
                  ys: np.ndarray | None = None, xs: np.ndarray | None = None) -> np.ndarray:
    """Like footprint_mask but excluding container walls. For items and
    zones the interior is the footprint itself."""
    if obj.kind != CONTAINER:
        return footprint_mask(obj, hw, ys, xs)
    inset = WALL_PX / obj.size
    if obj.shape == "box":
        hx, hy = _RECTS["box"]
        return _sample(obj, hw, ys, xs,
                       lambda ux, uy: (np.abs(ux) <= hx - inset) & (np.abs(uy) <= hy - inset))
    if obj.shape == "bowl":
        r = _DISCS["bowl"] - inset
        return _sample(obj, hw, ys, xs, lambda ux, uy: ux * ux + uy * uy <= r * r)
    raise ValueError(f"unsupported container shape {obj.shape!r}")


def inside(obj: SceneObject, y: float, x: float) -> bool:
    """Whether the scene point (y, x) is in the object's interior_mask: its
    footprint for items and zones, the space inside the walls for
    containers."""
    return bool(interior_mask(obj, (1, 1), np.array([float(y)]), np.array([float(x)]))[0, 0])


def _paint_order(scene: Scene) -> list[SceneObject]:
    rank = {ZONE: 0, CONTAINER: 1, ITEM: 2}
    return sorted(scene.objects, key=lambda o: rank[o.kind])


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
        reach = obj.circumradius + 1.0
        if (-1.0 < obj.x - reach and obj.x + reach < w
                and -1.0 < obj.y - reach and obj.y + reach < h):
            continue  # no ring sample lies within the object's window
        if (footprint_mask(obj, (2, w + 2), ring_ys, xs).any()
                or footprint_mask(obj, (h + 2, 2), ys, ring_xs).any()):
            raise OutOfBounds(f"object {obj.id} exits the workspace")


def _height_of(obj: SceneObject) -> float:
    if obj.kind == ZONE:
        return 0.0
    if obj.kind == CONTAINER:
        return 0.05
    return 0.02 * obj.size


def attribute_vocabulary(scene: Scene) -> tuple[str, ...]:
    vocab: set[str] = set()
    for obj in scene.objects:
        vocab.update(obj.attributes)
    return tuple(sorted(vocab))


@dataclass(frozen=True, eq=False)
class RenderedScene:
    image: np.ndarray          # (H, W, 4): RGB + height
    segmentation: np.ndarray   # (H, W) int32 object ids, 0 = background
    features: FeatureMap       # grounding resolution attribute indicators
    feature_vocab: tuple[str, ...]


def _feature_raster(scene: Scene, order: list[SceneObject],
                    ground_shape: tuple[int, int] | None) -> tuple[FeatureMap, tuple[str, ...]]:
    gh, gw = ground_shape if ground_shape is not None else scene.grounding_shape()
    gys = axis_coords(gh, scene.height)
    gxs = axis_coords(gw, scene.width)
    vocab = attribute_vocabulary(scene)
    index = {a: i for i, a in enumerate(vocab)}
    feats = np.zeros((gh, gw, max(1, len(vocab))), dtype=np.float64)
    for obj in order:
        gmask = footprint_mask(obj, (gh, gw), gys, gxs)
        vec = np.zeros(max(1, len(vocab)), dtype=np.float64)
        for attr in obj.attributes:
            vec[index[attr]] = 1.0
        feats[gmask] = vec
    return FeatureMap(feats), vocab


def features(scene: Scene, ground_shape: tuple[int, int] | None = None
             ) -> tuple[FeatureMap, tuple[str, ...]]:
    """The grounding-resolution attribute-indicator features of render, and
    their vocabulary, without painting the image. Raises OutOfBounds as
    render does."""
    check_bounds(scene)
    return _feature_raster(scene, _paint_order(scene), ground_shape)


def render(scene: Scene, ground_shape: tuple[int, int] | None = None) -> RenderedScene:
    """Rasterize the scene. Deterministic; raises OutOfBounds when any
    footprint exits the workspace."""
    check_bounds(scene)
    h, w = scene.height, scene.width
    image = np.zeros((h, w, 4), dtype=np.float64)
    image[:, :, :3] = BACKGROUND
    seg = np.zeros((h, w), dtype=np.int32)
    order = _paint_order(scene)
    for obj in order:
        mask = footprint_mask(obj, (h, w))
        image[mask, :3] = COLORS[obj.color]
        seg[mask] = obj.id
        if obj.kind == CONTAINER:
            wall = mask & ~interior_mask(obj, (h, w))
            image[mask, 3] = 0.0
            image[wall, 3] = _height_of(obj)
        else:
            image[mask, 3] = _height_of(obj)
    fmap, vocab = _feature_raster(scene, order, ground_shape)
    return RenderedScene(image, seg, fmap, vocab)


def ground_truth_mask(scene: Scene, predicate, shape: tuple[int, int] | None = None) -> GroundingMap:
    """Binary union of footprints of all objects whose attribute set contains
    every word in the predicate, at grounding resolution. Occlusion is
    ignored: an object's footprint counts even under another object."""
    gh, gw = shape if shape is not None else scene.grounding_shape()
    gys = axis_coords(gh, scene.height)
    gxs = axis_coords(gw, scene.width)
    want = set(predicate)
    out = np.zeros((gh, gw), dtype=bool)
    for obj in scene.objects:
        if want <= set(obj.attributes):
            out |= footprint_mask(obj, (gh, gw), gys, gxs)
    return GroundingMap(out.astype(np.float64))


def _clamp_workspace(scene: Scene, obj: SceneObject) -> SceneObject:
    cr = obj.circumradius
    x = min(max(obj.x, cr), scene.width - 1 - cr)
    y = min(max(obj.y, cr), scene.height - 1 - cr)
    return replace(obj, x=x, y=y)


def _clamp_against_container(item: SceneObject, cont: SceneObject) -> SceneObject:
    """Resolve wall overlap. Containers are assumed axis-aligned. If the
    item's center is on the container footprint it is clamped fully into the
    interior; otherwise it is pushed outside the walls."""
    ri = item.circumradius
    dx = item.x - cont.x
    dy = item.y - cont.y
    if cont.shape == "box":
        hx = _RECTS["box"][0] * cont.size
        hy = _RECTS["box"][1] * cont.size
        if abs(dx) > hx + ri or abs(dy) > hy + ri:
            return item
        if abs(dx) <= hx and abs(dy) <= hy:
            ix = max(hx - WALL_PX - ri, 0.0)
            iy = max(hy - WALL_PX - ri, 0.0)
            return replace(item, x=cont.x + min(max(dx, -ix), ix),
                           y=cont.y + min(max(dy, -iy), iy))
        pen_x = hx + ri - abs(dx)
        pen_y = hy + ri - abs(dy)
        if pen_x <= pen_y:
            return replace(item, x=cont.x + math.copysign(hx + ri, dx if dx else 1.0))
        return replace(item, y=cont.y + math.copysign(hy + ri, dy if dy else 1.0))
    if cont.shape == "bowl":
        r_out = _DISCS["bowl"] * cont.size
        d = math.hypot(dx, dy)
        if d > r_out + ri:
            return item
        if d <= r_out:
            r_in = max(r_out - WALL_PX - ri, 0.0)
            if d <= r_in:
                return item
            if d == 0:
                return item
            f = r_in / d
            return replace(item, x=cont.x + dx * f, y=cont.y + dy * f)
        f = (r_out + ri) / d
        return replace(item, x=cont.x + dx * f, y=cont.y + dy * f)
    raise ValueError(f"unsupported container shape {cont.shape!r}")


def _settle(scene: Scene, item: SceneObject) -> SceneObject:
    item = _clamp_workspace(scene, item)
    for cont in scene.objects:
        if cont.kind == CONTAINER:
            item = _clamp_against_container(item, cont)
    return item


def pick_target(scene: Scene, row: int, col: int) -> SceneObject | None:
    """Topmost item whose footprint covers the pixel, or None."""
    for obj in reversed([o for o in scene.objects if o.kind == ITEM]):
        if inside(obj, row, col):
            return obj
    return None


def apply_pick_place(scene: Scene, params, rotations: int = 12) -> tuple[Scene, bool]:
    """Teleport the item under the pick pixel to the place pose. Returns the
    new scene and a flag; a miss is a silent no-op (False)."""
    if params.primitive != "pick_place":
        raise ValueError("apply_pick_place needs a pick_place primitive")
    target = pick_target(scene, params.pick.u, params.pick.v)
    if target is None:
        return scene, False
    theta = 2 * math.pi * params.place.r / rotations
    moved = replace(target, x=float(params.place.v), y=float(params.place.u),
                    angle=target.angle + theta)
    moved = _settle(scene, moved)
    objects = tuple(moved if o.id == target.id else o for o in scene.objects)
    return replace(scene, objects=objects), True


def apply_push(scene: Scene, params) -> tuple[Scene, bool]:
    """Sweep a straight corridor, PUSH_HALF_WIDTH to either side, from the
    pre-push to the post-push location. Items whose centroid lies in the
    corridor keep their lateral offset and stop on the plane through the
    post-push point."""
    if params.primitive != "push":
        raise ValueError("apply_push needs a push primitive")
    pre = np.array([float(params.pick.v), float(params.pick.u)])
    post = np.array([float(params.place.v), float(params.place.u)])
    vec = post - pre
    length = float(np.hypot(*vec))
    if length < 1e-9:
        return scene, False
    direction = vec / length
    perp = np.array([-direction[1], direction[0]])
    new_objects = []
    moved_any = False
    for obj in scene.objects:
        if obj.kind != ITEM:
            new_objects.append(obj)
            continue
        rel = np.array([obj.x, obj.y]) - pre
        t = float(rel @ direction)
        s = float(rel @ perp)
        if 0.0 <= t <= length and abs(s) <= PUSH_HALF_WIDTH:
            dest = post + perp * s
            moved = replace(obj, x=float(dest[0]), y=float(dest[1]))
            moved = _settle(scene, moved)
            new_objects.append(moved)
            moved_any = True
        else:
            new_objects.append(obj)
    if not moved_any:
        return scene, False
    return replace(scene, objects=tuple(new_objects)), True


def apply(scene: Scene, params, rotations: int = 12) -> tuple[Scene, bool]:
    """Run the primitive that params.primitive names: apply_push for a push,
    apply_pick_place otherwise. Both are looked up as module globals at call
    time, so a wrapper set on either (benchmarks/layers.py traces them that
    way) sees every action."""
    if params.primitive == "push":
        return apply_push(scene, params)
    return apply_pick_place(scene, params, rotations)


def scene_to_dict(scene: Scene) -> dict:
    return {
        "width": scene.width,
        "height": scene.height,
        "seed": scene.rng_seed,
        "objects": [
            {
                "id": o.id,
                "kind": o.kind,
                "shape": o.shape,
                "color": o.color,
                "attributes": list(o.attributes),
                "x": o.x,
                "y": o.y,
                "angle": o.angle,
                "size": o.size,
            }
            for o in scene.objects
        ],
    }


def scene_from_dict(data: dict) -> Scene:
    objects = tuple(
        SceneObject(
            id=int(d["id"]), kind=d["kind"], shape=d["shape"], color=d["color"],
            attributes=tuple(d.get("attributes", ())),
            x=float(d["x"]), y=float(d["y"]),
            angle=float(d.get("angle", 0.0)), size=float(d.get("size", 6.0)),
        )
        for d in data["objects"]
    )
    return Scene(int(data["width"]), int(data["height"]), objects, int(data.get("seed", 0)))


def save_scene(path, scene: Scene) -> None:
    Path(path).write_text(json.dumps(scene_to_dict(scene), indent=2, sort_keys=True) + "\n")


def load_scene(path) -> Scene:
    return scene_from_dict(json.loads(Path(path).read_text()))
