"""Best-first search over grasp states for region-reaching plans.

The search minimizes accumulated action cost with priority
f = g + heuristic_scale * h, stops when every pad corner sits inside a goal
(h below tolerance), and otherwise falls back to the expanded state with
the best terminal objective once the node budget runs out.  Runs are
deterministic: ties on f break FIFO, and successors are generated in the
canonical action order.
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
    Action,
    ActionKind,
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
        if self.slide_unit_cost is not None and self.slide_unit_cost <= 0.0:
            raise InvalidInputError("slide_unit_cost must be positive")
        for name in ("scale_z", "scale_rotate", "scale_pivot"):
            if getattr(self, name) < 1.0:
                raise InvalidInputError(f"{name} must be >= 1 (slides are the cheapest primitive)")
        if self.tradeoff_weight < 0.0:
            raise InvalidInputError("tradeoff_weight must be non-negative")
        if self.heuristic_scale < 0.0:
            raise InvalidInputError("heuristic_scale must be non-negative")
        if self.node_budget < 1:
            raise InvalidInputError("node_budget must be positive")
        if self.goal_tolerance < 0.0:
            raise InvalidInputError("goal_tolerance must be non-negative")


def action_cost(a: Action, cfg: CostConfig, slide_step: float | None = None) -> float:
    """Cost of one primitive: slide arc length, scaled for the other kinds."""
    kind = a.kind
    if kind in (ActionKind.SLIDE_LEFT_UP, ActionKind.SLIDE_LEFT_DOWN,
                ActionKind.SLIDE_RIGHT_UP, ActionKind.SLIDE_RIGHT_DOWN):
        if cfg.slide_unit_cost is None or slide_step is None:
            return a.magnitude
        return cfg.slide_unit_cost * (a.magnitude / slide_step)
    if kind in (ActionKind.MOVE_CONTACT_UP, ActionKind.MOVE_CONTACT_DOWN):
        return cfg.scale_z * a.magnitude
    if kind in (ActionKind.ROTATE_CW, ActionKind.ROTATE_CCW):
        return cfg.scale_rotate * a.magnitude * a.arc_radius
    return cfg.scale_pivot * a.magnitude * a.arc_radius


@dataclass
class SearchNode:
    """A* bookkeeping for one reached state."""

    state: GraspState
    g: float
    h: float
    parent: SearchNode | None = None
    incoming: Action | None = None


@dataclass
class Plan:
    """An ordered action sequence with its replayed states and cost breakdown."""

    actions: list[Action]
    states: list[GraspState]
    step_costs: list[float]
    total_action_cost: float
    terminal_outside_area: float
    objective: float
    status: str  # "exact-goal" | "best-effort" | "failed"
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
    root = SearchNode(s0, 0.0, h0)
    counter = 0
    # Entries carry the state's key, computed once when the state is generated.
    open_heap: list[tuple[float, int, tuple, SearchNode]] = [(lam * h0, counter, root_key, root)]
    best_g: dict[tuple, float] = {root_key: 0.0}
    closed: set[tuple] = set()

    best_effort: SearchNode = root
    best_effort_score = region_outside_goal(s0, goals) + w * 0.0
    expansions = 0
    goal_node: SearchNode | None = None

    while open_heap:
        f, _, key, node = heapq.heappop(open_heap)
        if key in closed:
            continue
        if node.h <= cost.goal_tolerance:
            goal_node = node
            break
        closed.add(key)
        expansions += 1
        if expansions >= cost.node_budget:
            log.warning("node budget %d exhausted; returning best effort", cost.node_budget)
            break

        # Best-effort tracking: E >= 0, so w*g already exceeding the score
        # means the full objective cannot improve on it.
        if w * node.g < best_effort_score:
            score = region_outside_goal(node.state, goals) + w * node.g
            if score < best_effort_score:
                best_effort_score = score
                best_effort = node

        for act, child_state in successors(node.state, obj, resolution):
            child_g = node.g + action_cost(act, cost, resolution.slide_step)
            child_key = state_key(child_state)
            seen = best_g.get(child_key)
            if seen is not None and seen <= child_g:
                continue
            best_g[child_key] = child_g
            child_h = total_heuristic(child_state, cache, child_key)
            child_f = child_g + lam * child_h
            if child_f < f - 1e-12:
                log.debug("inconsistent heuristic: f dropped %.3e -> %.3e", f, child_f)
            counter += 1
            heapq.heappush(open_heap, (child_f, counter, child_key, SearchNode(
                child_state, child_g, child_h, parent=node, incoming=act)))

    chosen = goal_node if goal_node is not None else best_effort
    status = "exact-goal" if goal_node is not None else "best-effort"
    actions: list[Action] = []
    states: list[GraspState] = [chosen.state]
    node = chosen
    while node.parent is not None:
        actions.append(node.incoming)
        states.append(node.parent.state)
        node = node.parent
    actions.reverse()
    states.reverse()
    step_costs = [action_cost(a, cost, resolution.slide_step) for a in actions]
    total = math.fsum(step_costs)
    outside = region_outside_goal(chosen.state, goals)
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
