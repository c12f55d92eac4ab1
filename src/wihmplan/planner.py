"""Best-first search over grasp states for region-reaching plans.

The search minimizes accumulated action cost, stops when every pad corner
sits inside a goal (h below tolerance), and otherwise falls back to the
expanded state with the best terminal objective once the node budget runs
out or the open list empties; each of the two logs its own warning.  Runs
are deterministic: the open list pops the lowest f, an exact f-tie the
deeper node (larger g), and any tie left first in, first out; successors
are generated in the canonical action order.

The bound is the abstract-graph lower bound (``heuristic.AbstractBound``):
it plans over grasp modes, pad orientations and feasible turns first.  While
it is on, it alone orders the open list: f = g + bound.  It is off, and f is
g + heuristic_scale * h, when it is infinite at the start (no exact goal is
reachable: a pad larger than every goal, ``goals_can_hold``, is decided
before any graph is built) and when its graph passes its cap; each case
logs one INFO line.

While the bound is on, h is computed only for a state whose bound is at most
``_GOAL_SLACK``; every other state stores h as ``None``, meaning "the bound
proves this is no goal".  The argument: if h <= goal_tolerance, each pad
corner lies within goal_tolerance of a goal image, of a goal on the pad's
own face for the pads ``_abstract_bound`` accepts (``AbstractBound``), and
goal_tolerance is at most the bound's fit tolerance, so each fit margin is
at least minus that tolerance and the bound's stay term is 0 up to rounding;
an admissible bound is then 0 there.  So a state with a bound above the
slack has h above the goal tolerance, and the goal test at pop, ``h is not
None and h <= goal_tolerance``, never skips a goal.

A search node is a plain tuple ``(state, g, h, parent node, incoming
action)``, and the open list holds ``(f, -g, counter, state key, node,
parent f)``.  A node's f is computed when it first reaches the top (Lazy A*,
Tolpin et al. 2013): it waits keyed on g, at most its f, with the f its
parent was expanded at as the last slot, and is then expanded if its f still
comes first, else pushed back with None there.  So states are expanded in
the order that computing f at push gives, and a node never popped costs no
bound or h.  Each child's key, three ints, is computed once, from the
parent's: ``state_key`` keeps the cell of the pad a slide leaves in place.
One dict, ``best_g``, records both the cheapest g pushed per key and which
keys were expanded: expanding a key sets its entry to ``_EXPANDED`` (-inf),
so every later path to it is pruned when generated and its stale open-list
entries are skipped when popped.  Step costs are memoized per search in one
dict keyed by ``Action`` value: an action is a named tuple, so equal actions
of different modes' move tables share one ``action_cost`` call.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass

from . import heuristic as heuristic_mod
from .errors import InvalidInputError, InvalidStartError, InvalidStateError
from .geometry import FEAS_TOL, ObjectModel
from .heuristic import AbstractBound, HeuristicCache, goals_can_hold, total_heuristic
from .transition import (
    _MOVES,
    _ROTATIONS,
    _SLIDES,
    Action,
    GoalRegion,
    GraspState,
    ResolutionConfig,
    region_outside_goal,
    state_key,
    successors,
)

log = logging.getLogger(__name__)

_EXPANDED = -math.inf  # best_g of an expanded key: below every path cost
# A state whose bound exceeds this is no goal, so its h is never computed;
# the bound tests allow the same slack for admissibility.
_GOAL_SLACK = 1e-12


@dataclass(frozen=True)
class CostConfig:
    """Action costs, objective trade-off, and search limits.

    A unit slide costs its own step length; the other primitives scale up
    relative to that reference according to the arm motion they require.
    ``heuristic_scale`` (lambda) weighs h only while the abstract-graph bound
    is off (f = g + lambda * h); with the bound on, f = g + bound, whatever
    lambda is.
    """

    slide_unit_cost: float | None = None  # defaults to the slide step itself
    scale_z: float = 2.0
    scale_rotate: float = 3.0
    scale_pivot: float = 5.0
    tradeoff_weight: float = 1.0
    heuristic_scale: float = 0.125
    node_budget: int = 5_000_000
    goal_tolerance: float = 1e-9

    def validate(self) -> None:
        """Raise InvalidInputError unless every bound holds; NaN and infinities fail."""
        if self.slide_unit_cost is not None and not (0.0 < self.slide_unit_cost < math.inf):
            raise InvalidInputError("slide_unit_cost must be positive and finite")
        for name in ("scale_z", "scale_rotate", "scale_pivot"):
            if not (1.0 <= getattr(self, name) < math.inf):
                raise InvalidInputError(
                    f"{name} must be finite and >= 1 (slides are the cheapest primitive)")
        for name in ("tradeoff_weight", "heuristic_scale", "goal_tolerance"):
            if not (0.0 <= getattr(self, name) < math.inf):
                raise InvalidInputError(f"{name} must be non-negative and finite")
        if not (self.node_budget >= 1):
            raise InvalidInputError("node_budget must be positive")


def action_cost(a: Action, cfg: CostConfig, slide_step: float) -> float:
    """Cost of one primitive: slide arc length (or ``slide_unit_cost`` per
    slide_step), scaled for the other kinds."""
    kind = a.kind
    if kind in _SLIDES:
        if cfg.slide_unit_cost is None:
            return a.magnitude
        return cfg.slide_unit_cost * (a.magnitude / slide_step)
    if kind in _MOVES:
        return cfg.scale_z * a.magnitude
    if kind in _ROTATIONS:
        return cfg.scale_rotate * a.magnitude * a.arc_radius
    return cfg.scale_pivot * a.magnitude * a.arc_radius


@dataclass
class Plan:
    """An ordered action sequence with its replayed states and cost breakdown."""

    actions: list[Action]
    states: list[GraspState]
    step_costs: list[float]
    total_action_cost: float
    terminal_outside_area: float
    objective: float
    status: str  # "exact-goal" | "best-effort"
    tradeoff_weight: float
    expansions: int = 0

    def __len__(self) -> int:
        return len(self.actions)


def _abstract_bound(obj: ObjectModel, s0: GraspState, key: tuple, cache: HeuristicCache,
                    resolution: ResolutionConfig, cost: CostConfig,
                    costs: dict[Action, float]) -> tuple[AbstractBound | None, float]:
    """The search's abstract-graph bound and its value at s0: (None, inf) when
    no pad fits any goal, (None, 0.0) past the graph's cap.  Step costs go
    through the search's memo ``costs``.  InvalidInputError when a start pad's
    smaller side is at most 2 * (goal_tolerance + FEAS_TOL): only so thin a pad
    could fit a goal on another face, which the bound does not test."""
    side = min(s0.left.pad_width, s0.left.pad_height, s0.right.pad_width, s0.right.pad_height)
    if side <= 2.0 * (cost.goal_tolerance + FEAS_TOL):
        raise InvalidInputError(f"pad side {side!r} must exceed twice goal_tolerance "
                                f"{cost.goal_tolerance!r} plus FEAS_TOL {FEAS_TOL!r}")
    if not goals_can_hold(cache.goals, (s0.left, s0.right), cost.goal_tolerance):
        return None, math.inf

    def step_cost(a: Action) -> float:
        step = costs.get(a)
        if step is None:
            step = costs[a] = action_cost(a, cost, resolution.slide_step)
        return step

    slide_weight = 1.0 if cost.slide_unit_cost is None else \
        cost.slide_unit_cost / resolution.slide_step
    bound = AbstractBound.build(obj, s0, cache.goals, resolution, cost.goal_tolerance,
                                slide_weight, cost.scale_z / 2.0, step_cost)
    return bound, 0.0 if bound is None else bound(s0, key)


def start_bound(obj: ObjectModel, s0: GraspState, goals: list[GoalRegion],
                resolution: ResolutionConfig, cost: CostConfig) -> float:
    """The abstract-graph bound at s0, as ``plan`` computes it: inf when no
    exact goal is reachable, 0 when the graph passes its cap."""
    return _abstract_bound(obj, s0, state_key(s0), HeuristicCache(obj, goals), resolution,
                           cost, {})[1]


def plan(obj: ObjectModel, s0: GraspState, goals: list[GoalRegion],
         resolution: ResolutionConfig, cost: CostConfig) -> Plan:
    """Search for a primitive sequence driving both contacts into the goals."""
    cost.validate()
    resolution.validate()
    try:
        s0.validate(obj)
    except InvalidStateError as exc:
        raise InvalidStartError(str(exc)) from exc

    cache = HeuristicCache(obj, goals)
    lam = cost.heuristic_scale
    w = cost.tradeoff_weight
    # A search meets few distinct actions (its move tables'), so each one's
    # cost is computed once, keyed by value.
    costs: dict[Action, float] = {}

    root_key = state_key(s0)
    bound, b0 = _abstract_bound(obj, s0, root_key, cache, resolution, cost, costs)
    if b0 == math.inf:
        log.info("no exact goal is reachable from the start: the abstract-graph bound is "
                 "infinite there; searching without it for the best effort")
        bound = None
    elif bound is None:
        log.info("the abstract graph passed its cap of %d nodes; searching without the bound, "
                 "on heuristic_scale * h", heuristic_mod._GRAPH_CAP)
    # A search node is a plain tuple (state, g, h, parent node, incoming action).
    root = (s0, 0.0, None, None, None)
    counter = 0
    # Entries carry the state's key, computed once when the state is generated;
    # -g pops the deeper of two nodes with equal f first.  The root, too, gets
    # its f on its first pop.
    open_heap: list[tuple[float, float, int, tuple, tuple, float | None]] = [
        (0.0, -0.0, counter, root_key, root, -math.inf)]
    best_g: dict[tuple, float] = {root_key: 0.0}
    heappush, heappop = heapq.heappush, heapq.heappop

    best_effort = root
    best_effort_score = region_outside_goal(s0, goals)
    expansions = 0
    goal_node = None

    while open_heap:
        f, neg_g, count, key, node, parent_f = heappop(open_heap)
        if best_g[key] == _EXPANDED:
            continue
        state, g, h = node[0], node[1], node[2]
        if parent_f is not None:
            b = 0.0 if bound is None else bound(state, key)
            h = total_heuristic(state, cache, key) if b <= _GOAL_SLACK else None
            f = g + (lam * h if bound is None else b)
            if f < parent_f - 1e-12:
                log.debug("inconsistent heuristic: f dropped %.3e -> %.3e", parent_f, f)
            node = (state, g, h, node[3], node[4])
            entry = (f, neg_g, count, key, node, None)
            # Every key in the heap is at most its entry's f, so an f below
            # the top's key is the least f: expand now, else wait its turn.
            if open_heap and open_heap[0] < entry:
                heappush(open_heap, entry)
                continue
        if h is not None and h <= cost.goal_tolerance:
            goal_node = node
            break
        best_g[key] = _EXPANDED
        expansions += 1

        # Best-effort tracking: E >= 0, so w*g already exceeding the score
        # means the full objective cannot improve on it.
        if w * g < best_effort_score:
            score = region_outside_goal(state, goals) + w * g
            if score < best_effort_score:
                best_effort_score = score
                best_effort = node
        if expansions >= cost.node_budget:
            log.warning("node budget %d exhausted; returning best effort", cost.node_budget)
            break

        for act, child_state in successors(state, obj, resolution):
            step = costs.get(act)
            if step is None:
                step = costs[act] = action_cost(act, cost, resolution.slide_step)
            child_g = g + step
            child_key = state_key(child_state, state, key)
            seen = best_g.get(child_key)
            if seen is not None and seen <= child_g:
                continue
            best_g[child_key] = child_g
            counter += 1
            heappush(open_heap, (child_g, -child_g, counter, child_key,
                                 (child_state, child_g, None, node, act), f))
    else:
        log.warning("open list exhausted after %d expansions without reaching the goal; "
                    "returning best effort", expansions)

    chosen = goal_node if goal_node is not None else best_effort
    status = "exact-goal" if goal_node is not None else "best-effort"
    actions: list[Action] = []
    states: list[GraspState] = [chosen[0]]
    node = chosen
    while node[3] is not None:
        actions.append(node[4])
        node = node[3]
        states.append(node[0])
    actions.reverse()
    states.reverse()
    step_costs = [costs[a] for a in actions]
    total = math.fsum(step_costs)
    outside = region_outside_goal(chosen[0], goals)
    return Plan(actions=actions, states=states, step_costs=step_costs,
                total_action_cost=total, terminal_outside_area=outside,
                objective=outside + w * total, status=status,
                tradeoff_weight=w, expansions=expansions)
