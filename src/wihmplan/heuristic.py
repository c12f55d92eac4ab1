"""Region-distance heuristic computed on lazily unfolded surface maps.

For a contact region, every goal polygon is brought into the contact face's
plane by unfolding the object around that face; the per-goal score is the
sum of point-to-polygon distances for the rectangle's 4 corners, and the
finger heuristic is the minimum over goals.  The state heuristic adds the
left and right finger values.

Finger values are memoized per lattice cell and pad size (``region_cell``,
the one-int cell code ``state_key`` dedups on).  The search hands
``total_heuristic`` the state key it has already computed, and each memo key
takes its pad's code from it instead of rounding again.

Float contract: a memo miss runs on Python floats alone; numpy builds only
the unfolded maps and goal images (``unfold``, ``ConvexPolygon2``).  A pad's
corners are its corner offsets (``transition.corner_offsets``, float rows
that depend only on the pad's orientation and size) plus its centre.  So
the cache keeps each orientation and size's offsets, and a miss builds the
4 corner rows with 8 float adds, bit for bit ``region.corners()``.  It then
makes one call of the fused kernel ``corner_distance_sum`` per goal, which
returns that goal's corner sum as a float.  Each call after the first gets
the best sum so far and stops summing once its running total reaches it;
the total never decreases, so that goal cannot win, and the result is the
``min()`` of the full sums.

The search also takes the abstract-graph lower bound (``AbstractBound``):
the cheapest cost of the turns a plan still needs, planned over grasp modes,
pad orientations and feasible turns, plus the translations left in the last
mode.  While the bound is on it alone orders the search, f = g + bound, and
h serves the goal test; without it f = g + heuristic_scale * h.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable

from .errors import InvalidInputError
from .geometry import (
    FEAS_TOL,
    GEOM_TOL,
    ConvexPolygon2,
    ObjectModel,
    corner_distance_sum,
    halfspaces_feasible,
    polygon_area,
    unfold,
)
from .transition import (
    TURN_SLACK,
    Action,
    ContactRegion,
    GoalRegion,
    GraspState,
    ResolutionConfig,
    cell_turn,
    corner_offsets,
    finger_axes,
    region_cell,
    shrunk_planes,
    state_key,
    turns,
)

# The benchmark's per-layer probe (perfbench/layers.py) counts finger-memo
# misses as calls made through this module's ``points_to_polygon_distance``,
# one per goal, so the miss path calls the fused kernel under that name.
points_to_polygon_distance = corner_distance_sum


class HeuristicCache:
    """Memoizes unfolded goal images, corner offsets and finger values for one goal set.

    Built per search and used by one caller; it is not thread-safe.  The
    unfolded maps depend on the object alone, so they live on the model
    (``ObjectModel.unfolded``) and every search on it shares them.  The
    corner offsets are keyed by (orientation, pad width, pad height); a
    search meets a few orientations per grasp mode.
    """

    def __init__(self, obj: ObjectModel, goals: list[GoalRegion]) -> None:
        if not goals:
            raise InvalidInputError("goal set must be non-empty")
        for i, goal in enumerate(goals):
            if not 0 <= goal.face < len(obj.faces):
                raise InvalidInputError(
                    f"goal {i} is on face {goal.face}, which object {obj.name!r} lacks")
        self.obj = obj
        self.goals = list(goals)
        self._goal_images: dict[tuple[int, int], ConvexPolygon2] = {}
        self._finger_memo: dict[tuple, float] = {}
        self._offsets: dict[tuple[float, float, float], tuple] = {}

    def goal_image(self, base_face: int, goal_index: int) -> ConvexPolygon2:
        """The goal unfolded into the base face's plane, from the model's unfolded map."""
        key = (base_face, goal_index)
        image = self._goal_images.get(key)
        if image is None:
            umap = self.obj.unfolded.get(base_face)
            if umap is None:
                umap = self.obj.unfolded[base_face] = unfold(self.obj, base_face)
            goal = self.goals[goal_index]
            image = self._goal_images[key] = ConvexPolygon2(
                umap.to_plane(goal.face, goal.polygon.vertices))
        return image

    def corner_rows(self, region: ContactRegion) -> list:
        """``region.corners().tolist()``, bit for bit, from the cached offsets."""
        key = (region.orientation, region.pad_width, region.pad_height)
        offsets = self._offsets.get(key)
        if offsets is None:
            offsets = self._offsets[key] = corner_offsets(*key)
        x, y = region.x, region.y
        return [[u + x, v + y] for u, v in offsets]


def finger_heuristic(region: ContactRegion, cache: HeuristicCache,
                     cell: int | None = None) -> float:
    """Minimum corner sum over all goals for one finger.

    Values repeat heavily across the search lattice (slides move one finger
    at a time), so results are memoized per lattice cell and pad size;
    ``cell`` is ``region_cell(region)`` when the caller already has it.
    """
    if cell is None:
        cell = region_cell(region)
    key = (cell, region.pad_width, region.pad_height)
    hit = cache._finger_memo.get(key)
    if hit is None:
        rows = cache.corner_rows(region)
        face = region.face
        hit = points_to_polygon_distance(rows, cache.goal_image(face, 0))
        for m in range(1, len(cache.goals)):
            value = points_to_polygon_distance(rows, cache.goal_image(face, m), hit)
            if value < hit:
                hit = value
        cache._finger_memo[key] = hit
    return hit


def total_heuristic(s: GraspState, cache: HeuristicCache, key: tuple | None = None) -> float:
    """Left plus right finger heuristic, in meters.

    ``key`` is ``state_key(s)``, passed by a caller that has it already: the
    support face, then the left and right pads' ``region_cell`` codes.
    """
    if key is None:
        key = state_key(s)
    return finger_heuristic(s.left, cache, key[1]) + finger_heuristic(s.right, cache, key[2])


# ---------------------------------------------------------------------------
# Abstract-graph lower bound
#
# A node of the abstract graph is (support face, left cell, right cell), each
# cell a pad's face and orientation on the region_cell quantum (``cell_turn``
# of its code): what a grasp mode and the pads' orientations fix, without the
# centres.  Translations keep a state in its node; each turn of a mode's move
# table that some pair of pad centres can take (``transition.turns``) is an edge.

# Abstract nodes one plan builds before it gives the bound up (as 0).
_GRAPH_CAP = 4096


def goals_can_hold(goals: list[GoalRegion], pads: tuple[ContactRegion, ContactRegion],
                   tolerance: float) -> bool:
    """False when some pad is larger than every goal, so no state reaches the goal.

    The goal test holds each pad corner within ``tolerance`` (at least
    GEOM_TOL) of one goal image, an isometric copy of a goal; so the pad lies
    in that goal with each edge pushed out by the tolerance, whose area is the
    goal's plus perimeter times tolerance plus a corner term per vertex.  A
    pad of larger area fits in none.
    """
    tau = max(tolerance, GEOM_TOL) + TURN_SLACK
    areas = []
    for goal in goals:
        planes, edges = goal.polygon._float_tables()
        area = polygon_area(goal.polygon) + tau * math.fsum(math.sqrt(e[4]) for e in edges)
        for (a0, a1, _), (b0, b1, _) in zip(planes, planes[1:] + planes[:1]):
            area += tau * tau * abs(a0 * b1 - a1 * b0) / (1.0 + a0 * b0 + a1 * b1)
        areas.append(area)
    return all(any(area >= pad.area() * (1.0 - 1e-9) for area in areas) for pad in pads)


class AbstractBound:
    """The abstract-graph lower bound of one search: ``bound(s, key)``.

    A node is goal-capable when each pad, at the node's face and orientation,
    fits inside the face and inside some goal image (the ones h measures
    against), within the goal test's tolerance.  A reverse Dijkstra from the
    goal-capable nodes over the turns' action costs gives h_abs.  A state's
    bound is min(h_stay, h_exit): h_exit is the cheapest turn out of its node
    plus h_abs where it lands, and h_stay, finite in goal-capable nodes only,
    bounds the translations that carry both pads into goal images they fit.

    It is admissible and consistent.  The abstract graph relaxes the state
    graph: ``_fit`` only removes edges, and ``turns`` keeps every turn some
    state can take, so h_abs and h_exit never exceed the cost of a turn
    sequence a state can run.  h_stay lower-bounds the in-mode cost: a slide
    moves one pad along its face's horizontal axis at ``slide_unit_cost /
    slide_step`` per metre (1 without it), a contact shift both pads along
    their up axes at ``scale_z`` per metre, so each pad pays at least
    ``scale_z / 2``.  Per pad and goal image, the largest violation of the
    image's fit half-planes (each moved in by the pad's corner offsets, and out
    by the goal tolerance) over its dual norm is at most the weighted L1
    distance left to cover, and h_stay sums the minimum over images per pad.
    It is 1-Lipschitz in the norm translations pay, so consistent on them;
    a turn's cost plus the bound where it lands is at least h_exit.  The
    minimum and maximum of consistent bounds are consistent.

    Per-search memos (not thread-safe): the goal images a pad fits at a cell
    and size (``_goal_fits``), each finger's rows of them at a support face and
    cell (``_goal_images``), and h_stay per support face and pad cell.
    """

    def __init__(self, obj: ObjectModel, cache: HeuristicCache, resolution: ResolutionConfig,
                 tolerance: float, slide_weight: float, shift_weight: float) -> None:
        self.obj = obj
        self.cache = cache
        self.resolution = resolution
        self.tau = max(tolerance, GEOM_TOL)
        self.weights = (slide_weight, shift_weight)
        self.exits: dict[tuple, float] = {}
        self._images: tuple[dict, dict] = ({}, {})
        self._fits: dict[tuple, list] = {}
        self._stay: tuple[dict, dict] = ({}, {})

    @classmethod
    def build(cls, obj: ObjectModel, s0: GraspState, cache: HeuristicCache,
              resolution: ResolutionConfig, tolerance: float, slide_weight: float,
              shift_weight: float, step_cost: Callable[[Action], float]) -> AbstractBound | None:
        """The bound for searches from s0, or None when the graph passes ``_GRAPH_CAP`` nodes."""
        bound = cls(obj, cache, resolution, tolerance, slide_weight, shift_weight)
        edges = bound._graph(s0, step_cost)
        if edges is None:
            return None
        reverse: dict[tuple, list] = {node: [] for node in edges}
        for node, (out, _) in edges.items():
            for cost, child in out:
                reverse[child].append((cost, node))
        dist = {node: 0.0 for node, (_, capable) in edges.items() if capable}
        heap = [(0.0, i, node) for i, node in enumerate(dist)]
        count = len(heap)
        while heap:
            d, _, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            for cost, parent in reverse[node]:
                if d + cost < dist.get(parent, math.inf):
                    dist[parent] = d + cost
                    count += 1
                    heapq.heappush(heap, (d + cost, count, parent))
        bound.exits = {node: min((cost + dist.get(child, math.inf) for cost, child in out),
                                 default=math.inf)
                       for node, (out, _) in edges.items()}
        return bound

    def _graph(self, s0: GraspState, step_cost) -> dict | None:
        """Abstract node -> (turn edges as (cost, node), goal-capable), from s0's node."""
        obj, resolution = self.obj, self.resolution
        start = (s0.support_face, cell_turn(region_cell(s0.left)),
                 cell_turn(region_cell(s0.right)))
        pads = {start: (s0.support_face, s0.left, s0.right)}
        queue = [start]
        edges = {}
        while queue:
            node = queue.pop()
            support, left, right = pads[node]
            out = []
            for action, fits, new_support, new_left, new_right in turns(obj, support, left,
                                                                        right, resolution):
                if not fits:
                    continue
                child = (new_support, cell_turn(region_cell(new_left)),
                         cell_turn(region_cell(new_right)))
                if child not in pads:
                    if len(pads) >= _GRAPH_CAP:
                        return None
                    pads[child] = (new_support, new_left, new_right)
                    queue.append(child)
                out.append((step_cost(action), child))
            axes = finger_axes(obj, support, left.face, right.face)
            capable = all(self._goal_images(i, support, axes[i], pad, node[1 + i])
                          for i, pad in enumerate((left, right)))
            edges[node] = (out, capable)
        return edges

    def _goal_images(self, i: int, support: int, axes: tuple, pad: ContactRegion,
                     cell: int) -> list:
        """Finger i's goal images a pad at its face and orientation fits in, each
        within the goal tolerance and inside the face, as rows (n0, n1, b, 1 / dual
        norm) of their fit half-planes; memoized per support face and cell.

        Which images the pad fits in, and their fit half-planes, depend on the
        cell and the pad's size alone, so they are memoized per cell and size,
        for both fingers; the dual norms depend on the finger's (horizontal, up)
        axes in the mode (``finger_axes``)."""
        key = (support, cell)
        images = self._images[i].get(key)
        if images is None:
            fit_key = (cell, pad.pad_width, pad.pad_height)
            fits = self._fits.get(fit_key)
            if fits is None:
                fits = self._fits[fit_key] = self._goal_fits(pad)
            (h_u, h_v), (z_u, z_v) = (axis.tolist() for axis in axes)
            w_h, w_z = self.weights
            images = self._images[i][key] = [
                [(n0, n1, b, 1.0 / max(abs(n0 * h_u + n1 * h_v) / w_h,
                                       abs(n0 * z_u + n1 * z_v) / w_z)) for n0, n1, b in fit]
                for fit in fits]
        return images

    def _goal_fits(self, pad: ContactRegion) -> list:
        """The fit half-planes (n0, n1, b) of each goal image the pad, at its face,
        orientation and size, fits in within the goal tolerance and inside the face."""
        shape = (pad.orientation, pad.pad_width, pad.pad_height)
        face = shrunk_planes(self.obj.face(pad.face).polygon, *shape, FEAS_TOL)
        fits = []
        for g in range(len(self.cache.goals)):
            fit = shrunk_planes(self.cache.goal_image(pad.face, g), *shape, self.tau)
            if halfspaces_feasible(face + fit, TURN_SLACK):
                fits.append(fit)
        return fits

    def __call__(self, s: GraspState, key: tuple) -> float:
        """The bound at s, whose state key is key; 0 off the graph."""
        support = key[0]
        exit_cost = self.exits.get((support, cell_turn(key[1]), cell_turn(key[2])))
        if exit_cost is None:
            return 0.0
        stay = self._stay_cost(0, s, support, key[1]) + self._stay_cost(1, s, support, key[2])
        return stay if stay < exit_cost else exit_cost

    def _stay_cost(self, i: int, s: GraspState, support: int, code: int) -> float:
        """h_stay of finger i's pad in s, memoized per support face and cell code."""
        memo = self._stay[i]
        value = memo.get((support, code))
        if value is None:
            pad = s[i]
            axes = finger_axes(self.obj, support, s.left.face, s.right.face)[i]
            x, y = pad.x, pad.y
            value = math.inf
            for rows in self._goal_images(i, support, axes, pad, cell_turn(code)):
                worst = 0.0
                for n0, n1, b, scale in rows:
                    gap = (b - n0 * x - n1 * y) * scale
                    if gap > worst:
                        worst = gap
                if worst < value:
                    value = worst
            memo[(support, code)] = value
        return value
