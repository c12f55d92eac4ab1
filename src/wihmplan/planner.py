"""Best-first search over grasp states for region-reaching plans.

The search minimizes accumulated action cost with priority
f = g + heuristic_scale * h, stops when every pad corner sits inside a goal
(h below tolerance), and otherwise falls back to the expanded state with
the best terminal objective once the node budget runs out.  Runs are
deterministic: ties on f break FIFO, and successors are generated in the
canonical action order.

A search node is a plain tuple ``(state, g, h, parent node, incoming
action)``, and the open list holds ``(f, counter, state key, node)``.  Each
child's key is computed once, from the parent's: ``state_key`` keeps the cell
of the pad a slide leaves in place.  Step costs are memoized per search in
one dict keyed by ``Action`` value: an action is a named tuple, so equal
actions of different modes' move tables share one ``action_cost`` call.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass

from .errors import CorruptedPlanError, InvalidInputError, InvalidStartError, InvalidStateError
from .geometry import ObjectModel
from .heuristic import HeuristicCache, total_heuristic
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
    transition,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CostConfig:
    """Action costs, objective trade-off, and search limits.

    A unit slide costs its own step length; the other primitives scale up
    relative to that reference according to the arm motion they require.
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


def plan(obj: ObjectModel, s0: GraspState, goals: list[GoalRegion],
         resolution: ResolutionConfig, cost: CostConfig) -> Plan:
    """Search for a primitive sequence driving both contacts into the goals."""
    if not goals:
        raise InvalidInputError("goal set must be non-empty")
    cost.validate()
    resolution.validate()
    try:
        s0.validate(obj)
    except InvalidStateError as exc:
        raise InvalidStartError(str(exc)) from exc

    cache = HeuristicCache(obj, goals)
    lam = cost.heuristic_scale
    w = cost.tradeoff_weight

    root_key = state_key(s0)
    h0 = total_heuristic(s0, cache, root_key)
    # A search node is a plain tuple (state, g, h, parent node, incoming action).
    root = (s0, 0.0, h0, None, None)
    counter = 0
    # Entries carry the state's key, computed once when the state is generated.
    open_heap: list[tuple[float, int, tuple, tuple]] = [(lam * h0, counter, root_key, root)]
    best_g: dict[tuple, float] = {root_key: 0.0}
    closed: set[tuple] = set()
    # A search meets few distinct actions (its move tables'), so each one's
    # cost is computed once, keyed by value.
    costs: dict[Action, float] = {}
    heappush, heappop = heapq.heappush, heapq.heappop

    best_effort = root
    best_effort_score = region_outside_goal(s0, goals)
    expansions = 0
    goal_node = None

    while open_heap:
        f, _, key, node = heappop(open_heap)
        if key in closed:
            continue
        state, g, h = node[0], node[1], node[2]
        if h <= cost.goal_tolerance:
            goal_node = node
            break
        closed.add(key)
        expansions += 1
        if expansions >= cost.node_budget:
            log.warning("node budget %d exhausted; returning best effort", cost.node_budget)
            break

        # Best-effort tracking: E >= 0, so w*g already exceeding the score
        # means the full objective cannot improve on it.
        if w * g < best_effort_score:
            score = region_outside_goal(state, goals) + w * g
            if score < best_effort_score:
                best_effort_score = score
                best_effort = node

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
            child_h = total_heuristic(child_state, cache, child_key)
            child_f = child_g + lam * child_h
            if child_f < f - 1e-12:
                log.debug("inconsistent heuristic: f dropped %.3e -> %.3e", f, child_f)
            counter += 1
            heappush(open_heap, (child_f, counter, child_key,
                                 (child_state, child_g, child_h, node, act)))

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


def check_replay(replayed: list[GraspState], recorded: list[GraspState]) -> None:
    """Raise CorruptedPlanError unless a noiseless replay gave the recorded states."""
    if len(replayed) != len(recorded):
        raise CorruptedPlanError(
            f"replay produced {len(replayed)} states, the plan records {len(recorded)}")
    for got, want in zip(replayed, recorded):
        if state_key(got) != state_key(want):
            raise CorruptedPlanError("noiseless replay diverged from the recorded states")


def evaluate(plan_: Plan, goals: list[GoalRegion], obj: ObjectModel) -> float:
    """Recompute the objective from a replay; raises if the plan is stale."""
    state = plan_.states[0]
    replayed = [state]
    for act in plan_.actions:
        state = transition(state, act, obj)
        replayed.append(state)
    check_replay(replayed, plan_.states)
    outside = region_outside_goal(replayed[-1], goals)
    return outside + plan_.tradeoff_weight * math.fsum(plan_.step_costs)
