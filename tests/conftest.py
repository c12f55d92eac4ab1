from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import wihmplan as w
from wihmplan import io as io_mod

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "wihmplan" / "fixtures"

OBJECT_FILES = [
    "square_prism.json",
    "rect_prism_curved.json",
    "rect_prism_large.json",
    "hex_prism_tall.json",
    "rect_prism_small.json",
    "hex_prism_short.json",
]


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def all_objects() -> list[w.ObjectModel]:
    return [io_mod.load_object(FIXTURES / name) for name in OBJECT_FILES]


@pytest.fixture(scope="session")
def square_prism() -> w.ObjectModel:
    return io_mod.load_object(FIXTURES / "square_prism.json")


@pytest.fixture(scope="session")
def hex_prism() -> w.ObjectModel:
    return io_mod.load_object(FIXTURES / "hex_prism_tall.json")


@pytest.fixture(scope="session")
def unit_cube() -> w.ObjectModel:
    return w.build_prism(w.ConvexPolygon2([(0, 0), (1, 0), (1, 1), (0, 1)]), 1.0,
                         name="unit_cube")


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def suite_entries() -> list[dict]:
    with open(FIXTURES / "suite.json", "r", encoding="utf-8") as fh:
        return json.load(fh)["tasks"]


def load_task(entry: dict):
    """Materialize one suite entry into (obj, start, goals, resolution, cost)."""
    obj = io_mod.load_object(FIXTURES / entry["object"])
    config = FIXTURES / entry["config"] if "config" in entry else None
    resolution, cost = io_mod.load_configs(config)
    resolution = w.derive_resolutions(obj, resolution)
    start = io_mod.load_state(FIXTURES / entry["start"], obj, resolution)
    goals = io_mod.load_goals(FIXTURES / entry["goals"], obj)
    return obj, start, goals, resolution, cost


def random_convex_polygon(rng: np.random.Generator, n_min=3, n_max=9,
                          scale=1.0) -> w.ConvexPolygon2:
    """Random strictly convex polygon from hull points on a noisy circle."""
    while True:
        n = int(rng.integers(n_min, n_max + 1))
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=max(n, 3)))
        radii = rng.uniform(0.3, 1.0, size=len(angles)) * scale
        pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        pts += rng.uniform(-0.5, 0.5, size=2) * scale
        try:
            return w.ConvexPolygon2(pts)
        except w.InvalidGeometryError:
            continue


def random_feasible_state(obj: w.ObjectModel, rng: np.random.Generator,
                          pad=0.012) -> w.GraspState:
    """Random valid grasp: random pair, perpendicular support, pads inside."""
    for _ in range(500):
        pair_idx = int(rng.integers(0, len(obj.parallel_pairs)))
        pair = obj.parallel_pairs[pair_idx]
        left, right = (pair[0], pair[1]) if rng.random() < 0.5 else (pair[1], pair[0])
        n_l = obj.face(left).outward_normal
        supports = [f.id for f in obj.faces
                    if f.id not in pair and abs(float(f.outward_normal @ n_l)) < 1e-9]
        if not supports:
            continue
        support = int(rng.choice(supports))

        def sample_center(face_id):
            poly = obj.face(face_id).polygon
            lo = poly.vertices.min(axis=0)
            hi = poly.vertices.max(axis=0)
            for _ in range(200):
                c = rng.uniform(lo, hi)
                theta = float(rng.uniform(0.0, 2.0 * np.pi))
                region = w.ContactRegion(face_id, *c, theta, pad, pad)
                if poly.contains_points(region.corners(), tol=-1e-9).all():
                    return c, theta
            return None

        lc = sample_center(left)
        rc = sample_center(right)
        if lc is None or rc is None:
            continue
        try:
            return w.GraspState.create(obj, left, right, support, lc[0], rc[0],
                                       pad, pad, lc[1], rc[1])
        except w.WihmplanError:
            continue
    raise RuntimeError("could not sample a feasible state")
