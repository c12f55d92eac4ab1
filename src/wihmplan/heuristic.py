"""Region-distance heuristic computed on lazily unfolded surface maps.

For a contact region, every goal polygon is brought into the contact face's
plane by unfolding the object around that face; the per-goal score is the
sum of point-to-polygon distances for the rectangle's 4 corners, and the
finger heuristic is the minimum over goals.  The state heuristic adds the
left and right finger values.
"""

from __future__ import annotations

from .errors import InvalidInputError
from .geometry import ConvexPolygon2, ObjectModel, UnfoldedMap, points_to_polygon_distance, unfold
from .transition import ContactRegion, GoalRegion, GraspState, region_cell


class HeuristicCache:
    """Memoizes unfolded goal images and finger values for one goal set.

    Built per search and used by one caller; it is not thread-safe.  The
    unfolded maps depend on the object alone, so they live on the model
    (``ObjectModel.unfolded``) and every search on it shares them.
    """

    def __init__(self, obj: ObjectModel, goals: list[GoalRegion]) -> None:
        if not goals:
            raise InvalidInputError("goal set must be non-empty")
        self.obj = obj
        self.goals = list(goals)
        self._goal_images: dict[tuple[int, int], ConvexPolygon2] = {}
        self._finger_memo: dict[tuple, float] = {}

    def unfolded_map(self, base_face: int) -> UnfoldedMap:
        maps = self.obj.unfolded
        cached = maps.get(base_face)
        if cached is None:
            cached = maps[base_face] = unfold(self.obj, base_face)
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
    at a time), so results are memoized per pad size and ``region_cell``, the
    lattice cell that ``state_key`` dedups on.
    """
    key = region_cell(region) + (region.pad_width, region.pad_height)
    hit = cache._finger_memo.get(key)
    if hit is None:
        hit = cache._finger_memo[key] = min(
            corner_sum(region, m, cache) for m in range(len(cache.goals)))
    return hit


def total_heuristic(s: GraspState, cache: HeuristicCache) -> float:
    """Left plus right finger heuristic, in meters."""
    return finger_heuristic(s.left, cache) + finger_heuristic(s.right, cache)
