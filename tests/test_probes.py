"""The benchmark's per-layer probes (``perfbench/layers.py``) still find what they time.

A probe whose targets have all gone reads 0, and a traced run reports it
only as a line on stderr, so a refactor that moves a probed name fails here.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

from wihmplan import heuristic as heuristic_mod
from wihmplan import planner as planner_mod
from wihmplan import transition as transition_mod
from wihmplan.geometry import ObjectModel
from wihmplan.heuristic import HeuristicCache
from wihmplan.transition import GoalRegion

from conftest import load_task

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import layers  # noqa: E402 - needs perfbench on the path

# Second homes the probes list for functions that live elsewhere.  The planner
# no longer replays plans: bench alone carries calls into transition.transition.
ABSENT_BY_DESIGN = {("wihmplan.cli", "full_pivot_trajectory"), ("wihmplan.io", "emit_report"),
                    ("wihmplan.planner", "transition")}


@pytest.mark.parametrize("metric", sorted(layers.PROBES))
def test_probe_targets_resolve(metric):
    targets = layers.PROBES[metric]
    missing = {(module, attr) for module, attr in targets
               if getattr(importlib.import_module(module), attr, None) is None}
    assert len(missing) < len(targets), f"{metric}: none of {targets} exists"
    assert missing <= ABSENT_BY_DESIGN, f"{metric}: {sorted(missing - ABSENT_BY_DESIGN)} gone"


def test_object_model_keeps_scratch():
    # layers.LayerProbe.scratch_entries counts the mode table entries in it.
    assert "scratch" in {f.name for f in dataclasses.fields(ObjectModel)}


def test_finger_misses_count_the_memo_entries_the_search_made(suite_entries, monkeypatch):
    # The probe counts heuristic memo misses as calls through
    # wihmplan.heuristic.points_to_polygon_distance, one per goal; a miss path
    # that bypassed that name would read 0 misses and a hit ratio of 1.
    caches = []

    class RecordingCache(HeuristicCache):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            caches.append(self)

    monkeypatch.setattr(planner_mod, "HeuristicCache", RecordingCache)
    # A graph past its cap turns the bound off, so the search computes h
    # (the bound-on goal test reads the pads' own faces instead).
    monkeypatch.setattr(heuristic_mod, "_GRAPH_CAP", 1)
    entry = next(e for e in suite_entries if e["name"] == "sq_t1_shift")
    obj, start, goals, resolution, cost = load_task(entry)
    with layers.LayerProbe() as probe:
        planner_mod.plan(obj, start, goals, resolution, cost)
    assert not probe.tracer.absent
    [cache] = caches
    assert probe.finger_misses > 0
    assert probe.finger_misses == len(cache._finger_memo)


def test_overlap_clips_count_through_the_probed_name(suite_entries):
    # The probe counts goal-overlap clips as calls through
    # wihmplan.transition.convex_intersection; an overlap path that clipped
    # under another name would read 0 clips.  Each pad here has one goal on
    # its face, which covers it, so each makes one clip.
    entry = next(e for e in suite_entries if e["name"] == "sq_t1_shift")
    _, start, _, _, _ = load_task(entry)
    goals = [GoalRegion(r.face, r.polygon()) for r in (start.left, start.right)]
    with layers.LayerProbe() as probe:
        assert transition_mod.overlap_ratio(start, goals) == (1.0, 1.0)
    assert not probe.tracer.absent
    assert probe.tracer.get("transition.overlap_ratio").calls == 1
    assert probe.tracer.get("geometry.convex_intersection").calls == 2
