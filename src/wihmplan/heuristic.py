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
"""

from __future__ import annotations

from .errors import InvalidInputError
from .geometry import ConvexPolygon2, ObjectModel, corner_distance_sum, unfold
from .transition import (
    ContactRegion,
    GoalRegion,
    GraspState,
    corner_offsets,
    region_cell,
    state_key,
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
