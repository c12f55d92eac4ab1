"""Region-based within-hand manipulation planning for convex prisms.

Given a prismatic object model, an initial two-finger grasp, and goal
patches on the object's faces, the toolkit searches for a sequence of
within-hand primitives (finger slides, in-hand rotations, support-assisted
contact shifts, pivots), generates the end-effector trajectories pivots
need, and evaluates plans in a deterministic simulator against goal-overlap
metrics.

The package namespace holds what the quickstart in the README uses, the
geometry helpers, and every error class; everything else is imported from
its own module (``wihmplan.transition``, ``wihmplan.bench``, ...).
"""

from .errors import (
    CorruptedPlanError,
    InfeasibleActionError,
    InvalidGeometryError,
    InvalidInputError,
    InvalidModelError,
    InvalidStartError,
    InvalidStateError,
    UngraspableObjectError,
    WihmplanError,
)
from .geometry import (
    ConvexPolygon2,
    ObjectModel,
    build_prism,
    convex_intersection,
    point_to_polygon_distance,
    polygon_area,
    unfold,
)
from .planner import CostConfig, Plan, plan
from .transition import (
    ContactRegion,
    GoalRegion,
    GraspState,
    ResolutionConfig,
    derive_resolutions,
    overlap_ratio,
)

__version__ = "0.1.0"
