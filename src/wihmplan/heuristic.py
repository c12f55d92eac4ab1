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
pad orientations and feasible turns, plus the translations it needs in the
mode it ends in, measured from the pads' centres, carried through the first
turn when it takes one, with each pad fitted to the goals on its own face.
While the bound is on it alone orders the search, f = g + bound, and the
goal test reads h on the pads' own faces (``AbstractBound.goal_distance``);
without it f = g + heuristic_scale * h.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable

from .errors import InvalidInputError
from .geometry import (
    GEOM_TOL,
    ConvexPolygon2,
    ObjectModel,
    clip_ring,
    corner_distance_sum,
    halfspaces_feasible,
    polygon_area,
    polygon_l1_distance,
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
    face_planes,
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
        self._unfolded_goals: dict[tuple[int, int], ConvexPolygon2] = {}
        self._finger_memo: dict[tuple, float] = {}
        self._corner_offsets: dict[tuple[float, float, float], tuple] = {}

    def goal_image(self, base_face: int, goal_index: int) -> ConvexPolygon2:
        """The goal unfolded into the base face's plane, from the model's unfolded map."""
        key = (base_face, goal_index)
        image = self._unfolded_goals.get(key)
        if image is None:
            umap = self.obj.unfolded.get(base_face)
            if umap is None:
                umap = self.obj.unfolded[base_face] = unfold(self.obj, base_face)
            goal = self.goals[goal_index]
            image = self._unfolded_goals[key] = ConvexPolygon2(
                umap.to_plane(goal.face, goal.polygon.vertices))
        return image

    def corner_rows(self, region: ContactRegion) -> list:
        """``region.corners().tolist()``, bit for bit, from the cached offsets."""
        key = (region.orientation, region.pad_width, region.pad_height)
        offsets = self._corner_offsets.get(key)
        if offsets is None:
            offsets = self._corner_offsets[key] = corner_offsets(*key)
        x, y = region.x, region.y
        return [[u + x, v + y] for u, v in offsets]


def finger_heuristic(region: ContactRegion, cache: HeuristicCache,
                     cell: int | None = None) -> float:
    """Minimum corner sum over all goals for one finger.

    Values repeat heavily across the search lattice (slides move one finger
    at a time), so results are memoized per lattice cell and pad size;
    ``cell`` is ``region_cell(region)`` when the caller already has it.
    Pads that differ by less than the cell quantum share one cell, and the
    memo keeps the value of whichever of them is evaluated first: so h, and
    the order of lambda * h ties while the abstract bound is off, depend on
    the order of evaluation.  A ``budget`` unit (seed 3) looks up 6,413
    cells that hold 8,196 distinct pads.
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
        planes, edges = goal.polygon.planes, goal.polygon.edges
        area = polygon_area(goal.polygon) + tau * math.fsum(math.sqrt(e[4]) for e in edges)
        for (a0, a1, _), (b0, b1, _) in zip(planes, planes[1:] + planes[:1]):
            area += tau * tau * abs(a0 * b1 - a1 * b0) / (1.0 + a0 * b0 + a1 * b1)
        areas.append(area)
    return all(any(area >= pad.area() * (1.0 - 1e-9) for area in areas) for pad in pads)


# Relative slack the exact in-mode distance is shrunk by: far above the
# rounding of a fit polygon's vertices and of the distance sums.
_STAY_SLACK = 1e-9


def fit_polygon(goal: ConvexPolygon2, fit: tuple, tau: float) -> list:
    """The vertices of the polygon the fit half-planes ``fit`` of a goal polygon,
    shrunk by a pad and widened by at most ``tau``, cut out: a box around the
    goal, 1 m plus ``tau`` wider on each side, clipped by them (``clip_ring``,
    so no vertex is merged or dropped).  Empty where rounding leaves nothing."""
    (x0, y0), (x1, y1) = goal.vertices.min(axis=0).tolist(), goal.vertices.max(axis=0).tolist()
    m = tau + 1.0
    return clip_ring([[x0 - m, y0 - m], [x1 + m, y0 - m], [x1 + m, y1 + m], [x0 - m, y1 + m]],
                     fit)


def _fit_witness(goal: ConvexPolygon2, rows: tuple) -> bool:
    """Whether a pad centred on the goal's vertex mean meets every half-plane
    ``(n0, n1, b)`` of rows at a margin of at least 0: then it proves the
    verdict ``halfspaces_feasible`` would give, as ``transition``'s turn
    witness does."""
    edges = goal.edges
    x = sum(edge[0] for edge in edges) / len(edges)
    y = sum(edge[1] for edge in edges) / len(edges)
    return all(n0 * x + n1 * y - b >= 0.0 for n0, n1, b in rows)


def finger_table(axes: tuple, fits: list, w_h: float, w_z: float) -> tuple:
    """One finger's goals in the metric its translations pay:
    ``(h_u, h_v, z_u, z_v, goals)``, its (horizontal, up) unit axes and per
    goal of ``fits`` (fit half-planes, fit polygon vertices) the rows
    (n0, n1, b, 1 / dual norm) and the vertices as rows (h, z)."""
    (h_u, h_v), (z_u, z_v) = axes
    return (h_u, h_v, z_u, z_v, [
        ([(n0, n1, b, 1.0 / max(abs(n0 * h_u + n1 * h_v) / w_h, abs(n0 * z_u + n1 * z_v) / w_z))
          for n0, n1, b in fit],
         [(h_u * x + h_v * y, z_u * x + z_v * y) for x, y in verts])
        for fit, verts in fits])


def pad_stay(finger: tuple, x: float, y: float, w_h: float, w_z: float) -> float:
    """One pad's h_stay at centre (x, y): the least, over the goals it fits, of the
    weighted L1 distance to the goal's fit polygon (see ``AbstractBound``).

    ``finger`` is ``(h_u, h_v, z_u, z_v, goals)``: the finger's (horizontal,
    up) axes in face coordinates, and per goal its fit half-planes as rows
    (n0, n1, b, 1 / dual norm) and its fit polygon's vertices in (h, z).
    """
    h_u, h_v, z_u, z_v, goals = finger
    best = math.inf
    for rows, verts in goals:
        worst = 0.0
        for n0, n1, b, scale in rows:
            gap = (b - n0 * x - n1 * y) * scale
            if gap > worst:
                worst = gap
        if worst <= 0.0:
            return 0.0
        if worst >= best:
            continue
        if verts:
            exact = polygon_l1_distance(verts, h_u * x + h_v * y, z_u * x + z_v * y,
                                        w_h, w_z) * (1.0 - _STAY_SLACK)
            if exact > worst:
                worst = exact
        if worst < best:
            best = worst
    return best


class _Node:
    """An abstract-graph node: support face, pads (left, right), their axes, turn
    edges (cost, child node, centre maps), and two kinds of table built on first
    use: each finger's ``finger_table`` and the exit table (``_exit_table``)."""

    __slots__ = ("support", "pads", "axes", "out", "fingers", "table")

    def __init__(self, obj: ObjectModel, support: int, left: ContactRegion,
                 right: ContactRegion) -> None:
        self.support = support
        self.pads = (left, right)
        self.axes = finger_axes(obj, support, left.face, right.face)
        self.out: list[tuple] = []
        self.fingers: list[tuple | None] = [None, None]
        self.table: list | None = None


class AbstractBound:
    """The abstract-graph lower bound of one search: ``bound(s, key)``.

    A node is goal-capable when each pad, at the node's face and orientation,
    fits inside the face and inside some goal on that face, within the goal
    tolerance.  No other goal can hold it: in ``unfold`` of a prism every
    other face's image meets the face in at most an edge, so a pad fitting
    both would have a smaller side of at most FEAS_TOL + tau + 2 * TURN_SLACK,
    which ``planner`` rejects.  A reverse Dijkstra from the
    goal-capable nodes over the turns' action costs gives h_abs, and X, a
    node's position-free exit, is its cheapest turn e plus h_abs where e
    lands (``exits``).

    A state's bound is min(h_stay, h_exit).  h_stay, finite in goal-capable
    nodes only, is the translation cost still needed to carry both pads into
    goals they fit: per pad, the least over those goals of the weighted L1
    distance from its centre to the goal's fit polygon (the goal's
    half-planes moved in by the pad's corner offsets and out by the goal
    tolerance), with slides at ``slide_weight`` per metre along the face's
    horizontal axis and contact shifts at ``shift_weight`` per metre along its
    up axis.  The distance is shrunk by a relative ``_STAY_SLACK`` (1e-9) for
    rounding, and never taken below the largest fit half-plane violation over
    its dual norm, a weaker bound on the same distance.  h_exit is the min
    over turns e out of the node, landing in node B, of c_e + r_e(s) with
    r_e(s) = min(h_stay_B(T_e(s)) / L_e, X_B): T_e(s) is s's pads carried
    through e's centre maps (``transition.turns``), h_stay_B counts only when
    B is goal-capable (it is infinite otherwise), and L_e = max(1, the largest
    translation cost in B of T_e's linear part applied to a unit-cost move in
    the node: one pad along one axis).  h_exit is never below X, so it is
    computed only where h_stay exceeds X.

    It is admissible and consistent.  The abstract graph relaxes the state
    graph: ``_fit`` only removes edges, and ``turns`` keeps every turn some
    state can take, so h_abs and X never exceed the cost of a turn sequence a
    state can run.  A slide moves one pad along its face's horizontal axis at
    ``slide_unit_cost / slide_step`` per metre (1 without it), a contact
    shift both pads along their up axes at ``scale_z`` per metre, so each pad
    pays at least ``scale_z / 2``; h_stay, a sum of distances in those norms,
    lower-bounds the in-mode cost and is 1-Lipschitz in it.  A plan that
    translates s to some p, then turns at e and lands at q = T_e(p), pays at
    least d(s, p) + c_e + min(h_stay_B(q), X_B), and h_stay_B(q) >=
    h_stay_B(T_e(s)) - L_e * d(s, p), so with L_e >= 1 it pays at least
    c_e + r_e(s).  r_e is 1-Lipschitz in the node's norm, and at a turn it is
    at most the bound where the turn lands; the minimum of consistent bounds
    is consistent.

    Per-search memos (not thread-safe): a ``_Node`` per node (``_nodes``), its
    finger and exit tables built the first time a state needs them; the goals
    a pad fits at a cell and size, for both fingers (``_fits``); and
    h_stay per finger, support face and pad cell (``_stay``).
    """

    def __init__(self, obj: ObjectModel, goals: list[GoalRegion], resolution: ResolutionConfig,
                 tolerance: float, slide_weight: float, shift_weight: float) -> None:
        self.obj = obj
        self.goals = goals
        self.resolution = resolution
        self.tau = max(tolerance, GEOM_TOL)
        self.weights = (slide_weight, shift_weight)
        self.exits: dict[tuple, float] = {}
        self._nodes: dict[tuple, _Node] = {}
        self._fits: dict[tuple, list] = {}
        self._stay: tuple[dict, dict] = ({}, {})

    @classmethod
    def build(cls, obj: ObjectModel, s0: GraspState, goals: list[GoalRegion],
              resolution: ResolutionConfig, tolerance: float, slide_weight: float,
              shift_weight: float, step_cost: Callable[[Action], float]) -> AbstractBound | None:
        """The bound for searches from s0, or None when the graph passes ``_GRAPH_CAP`` nodes."""
        bound = cls(obj, goals, resolution, tolerance, slide_weight, shift_weight)
        if not bound._graph(s0, step_cost):
            return None
        nodes = bound._nodes
        reverse: dict[tuple, list] = {node: [] for node in nodes}
        for node, record in nodes.items():
            for cost, child, _ in record.out:
                reverse[child].append((cost, node))
        dist = {node: 0.0 for node in nodes if bound._capable(node)}
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
        bound.exits = {node: min((cost + dist.get(child, math.inf) for cost, child, _ in
                                  record.out), default=math.inf)
                       for node, record in nodes.items()}
        return bound

    def _graph(self, s0: GraspState, step_cost) -> bool:
        """Fill ``_nodes`` with a record per abstract node reachable from s0's
        node, each with its turn edges; False past ``_GRAPH_CAP`` nodes."""
        obj, resolution, nodes = self.obj, self.resolution, self._nodes
        start = (s0.support_face, cell_turn(region_cell(s0.left)),
                 cell_turn(region_cell(s0.right)))
        nodes[start] = _Node(obj, s0.support_face, s0.left, s0.right)
        queue = [start]
        while queue:
            record = nodes[queue.pop()]
            for action, fits, support, left, right, maps in turns(
                    obj, record.support, *record.pads, resolution):
                if not fits:
                    continue
                child = (support, cell_turn(region_cell(left)), cell_turn(region_cell(right)))
                if child not in nodes:
                    if len(nodes) >= _GRAPH_CAP:
                        return False
                    nodes[child] = _Node(obj, support, left, right)
                    queue.append(child)
                record.out.append((step_cost(action), child, maps))
        return True

    def _capable(self, node: tuple) -> bool:
        """Whether the node is goal-capable: each finger's table has a goal."""
        return all(self._finger(i, node)[4] for i in (0, 1))

    def _finger(self, i: int, node: tuple) -> tuple:
        """Finger i's ``finger_table`` at a node, built on first use from the goals
        its pad fits in (``_goal_fits``, memoized per cell and pad size)."""
        record = self._nodes[node]
        finger = record.fingers[i]
        if finger is None:
            pad = record.pads[i]
            fit_key = (node[1 + i], pad.pad_width, pad.pad_height)
            fits = self._fits.get(fit_key)
            if fits is None:
                fits = self._fits[fit_key] = self._goal_fits(pad)
            finger = record.fingers[i] = finger_table(record.axes[i], fits, *self.weights)
        return finger

    def _goal_fits(self, pad: ContactRegion) -> list:
        """The fit half-planes (n0, n1, b) of each goal on the pad's face (no other
        holds it, see ``AbstractBound``) that the pad, at its orientation and
        size, fits in within the goal tolerance and inside the face, each with
        its fit polygon's vertices (``fit_polygon``)."""
        shape = (pad.orientation, pad.pad_width, pad.pad_height)
        face = face_planes(self.obj, pad.face, *shape)
        fits = []
        for goal in self.goals:
            if goal.face == pad.face:
                fit = shrunk_planes(goal.polygon, *shape, self.tau)
                rows = face + fit
                if _fit_witness(goal.polygon, rows) or halfspaces_feasible(rows, TURN_SLACK):
                    fits.append((fit, fit_polygon(goal.polygon, fit, self.tau)))
        return fits

    def goal_distance(self, s: GraspState) -> float:
        """h at s, read on each pad's own face: per pad, the least
        ``corner_distance_sum`` of its corners to the goals on its face, in
        face coordinates, summed over the two pads.

        Wherever it or ``total_heuristic(s)`` is at most the goal tolerance,
        the two are equal bit for bit.  A pad's corner sum to another face's
        goal image is at most the tolerance only if the pad's smaller side is
        at most 2 * (tolerance + FEAS_TOL), which ``planner`` rejects; and a
        goal's image on its own face is the goal itself.  So no unfolded map,
        goal image or finger memo is built.
        """
        total = 0.0
        for pad in (s.left, s.right):
            x, y = pad.x, pad.y
            rows = [[u + x, v + y] for u, v in
                    corner_offsets(pad.orientation, pad.pad_width, pad.pad_height)]
            best = math.inf
            for goal in self.goals:
                if goal.face == pad.face:
                    value = corner_distance_sum(rows, goal.polygon, best)
                    if value < best:
                        best = value
            total += best
        return total

    def __call__(self, s: GraspState, key: tuple) -> float:
        """The bound at s, whose state key is key; 0 off the graph."""
        node = (key[0], cell_turn(key[1]), cell_turn(key[2]))
        exit_cost = self.exits.get(node)
        if exit_cost is None:
            return 0.0
        stay = self._stay_cost(0, s, node, key[1]) + self._stay_cost(1, s, node, key[2])
        if stay <= exit_cost:
            return stay
        return self._exit(s, node, stay)

    def _stay_cost(self, i: int, s: GraspState, node: tuple, code: int) -> float:
        """h_stay of finger i's pad in s (of node), memoized per support face and cell code."""
        memo = self._stay[i]
        value = memo.get((node[0], code))
        if value is None:
            pad = s[i]
            value = memo[(node[0], code)] = pad_stay(self._finger(i, node), pad.x, pad.y,
                                                     *self.weights)
        return value

    def _exit(self, s: GraspState, node: tuple, best: float) -> float:
        """min(best, h_exit(s)) for a state s of node: the turns are tried in
        order of cost, until one costs at least the best so far."""
        table = self._nodes[node].table
        if table is None:
            table = self._nodes[node].table = self._exit_table(node)
        w_h, w_z = self.weights
        xl, yl, xr, yr = s.left.x, s.left.y, s.right.x, s.right.y
        for cost, rest, lipschitz, maps, fingers in table:
            if cost >= best:
                break
            if fingers is not None:
                stay = 0.0
                for ((a, b, c, d, e), (f, g, h, i, j)), finger in zip(maps, fingers):
                    stay += pad_stay(finger, a * xl + b * yl + c * xr + d * yr + e,
                                      f * xl + g * yl + h * xr + i * yr + j, w_h, w_z)
                stay /= lipschitz
                if stay < rest:
                    rest = stay
            if cost + rest < best:
                best = cost + rest
        return best

    def _exit_table(self, node: tuple) -> list:
        """A node's turns as (c_e, X_B, L_e, centre maps, B's two fingers or None
        when B is not goal-capable), sorted by cost."""
        w_h, w_z = self.weights
        record = self._nodes[node]
        # The four unit-cost moves: one pad along one of its axes, as
        # (x_l, y_l, x_r, y_r) steps.
        moves = []
        for i, finger in enumerate(record.axes):
            for (u, v), weight in zip(finger, (w_h, w_z)):
                move = [0.0] * 4
                move[2 * i:2 * i + 2] = u / weight, v / weight
                moves.append(move)
        table = []
        for cost, child, maps in record.out:
            fingers = (self._finger(0, child), self._finger(1, child)) \
                if self._capable(child) else None
            lipschitz = 1.0
            if fingers is not None:
                for move in moves:
                    moved = 0.0
                    for (x_map, y_map), (h_u, h_v, z_u, z_v, _) in zip(maps, fingers):
                        dx = sum(m * k for m, k in zip(move, x_map))
                        dy = sum(m * k for m, k in zip(move, y_map))
                        moved += w_h * abs(h_u * dx + h_v * dy) + w_z * abs(z_u * dx + z_v * dy)
                    lipschitz = max(lipschitz, moved)
            table.append((cost, self.exits[child], lipschitz, maps, fingers))
        table.sort(key=lambda row: row[0])
        return table
