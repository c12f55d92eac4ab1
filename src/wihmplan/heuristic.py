"""Region-distance heuristic computed on lazily unfolded surface maps.

For a contact region, every goal polygon is brought into the contact face's
plane by unfolding the object around that face; the per-goal score is the
sum of point-to-polygon distances for the rectangle's 4 corners, and the
finger heuristic is the minimum over goals.  The state heuristic adds the
left and right finger values.
"""

from __future__ import annotations

import math

from .errors import InvalidInputError
from .geometry import ConvexPolygon2, ObjectModel, UnfoldedMap, points_to_polygon_distance, unfold
from .transition import ContactRegion, GoalRegion, GraspState


class HeuristicCache:
    """Memoizes unfolded maps per base face and unfolded goal images.

    Built per search and used by one caller; it is not thread-safe.
    """

    def __init__(self, obj: ObjectModel, goals: list[GoalRegion]) -> None:
        if not goals:
            raise InvalidInputError("goal set must be non-empty")
        self.obj = obj
        self.goals = list(goals)
        self._maps: dict[int, UnfoldedMap] = {}
        self._goal_images: dict[tuple[int, int], ConvexPolygon2] = {}
        self._finger_memo: dict[tuple, float] = {}

    def unfolded_map(self, base_face: int) -> UnfoldedMap:
        cached = self._maps.get(base_face)
        if cached is None:
            cached = self._maps[base_face] = unfold(self.obj, base_face)
        return cached

    def goal_image(self, base_face: int, goal_index: int) -> ConvexPolygon2:
        key = (base_face, goal_index)
        cached = self._goal_images.get(key)
        if cached is not None:
            return cached
        umap = self.unfolded_map(base_face)
        goal = self.goals[goal_index]
        image = self._goal_images[key] = ConvexPolygon2(
            umap.to_plane(goal.face, goal.polygon.vertices))
        return image


def corner_sum(region: ContactRegion, goal_index: int, cache: HeuristicCache) -> float:
    """Sum of the 4 corner distances to one goal, measured in the unfolded plane."""
    image = cache.goal_image(region.face, goal_index)
    return float(points_to_polygon_distance(region.corners(), image).sum())


def finger_heuristic(region: ContactRegion, cache: HeuristicCache) -> float:
    """Minimum corner sum over all goals for one finger.

    Values repeat heavily across the search lattice (slides move one finger
    at a time), so results are memoized per quantized region.
    """
    x, y = region.center.tolist()
    key = (region.face, round(x * 1e9), round(y * 1e9),
           round(region.orientation * 1e9), region.pad_width, region.pad_height)
    hit = cache._finger_memo.get(key)
    if hit is not None:
        return hit
    corners = region.corners()
    best = math.inf
    for m in range(len(cache.goals)):
        image = cache.goal_image(region.face, m)
        best = min(best, float(points_to_polygon_distance(corners, image).sum()))
    cache._finger_memo[key] = best
    return best


def total_heuristic(s: GraspState, cache: HeuristicCache) -> float:
    """Left plus right finger heuristic, in meters."""
    return finger_heuristic(s.left, cache) + finger_heuristic(s.right, cache)
