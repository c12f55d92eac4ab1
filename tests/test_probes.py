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

from wihmplan.geometry import ObjectModel

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import layers  # noqa: E402 - needs perfbench on the path

# Second homes the probes list for functions that live elsewhere.
ABSENT_BY_DESIGN = {("wihmplan.cli", "full_pivot_trajectory"), ("wihmplan.io", "emit_report")}


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
