"""The public names: every exported name resolves, and removed ones stay gone."""

import dataclasses
import importlib
import inspect

import pytest

from pmlp.core import AffinityMatrix, PmlpConfig
from pmlp.graph import build_affinity
from pmlp.propagate import propagate_closed_form

MODULES = (
    "pmlp",
    "pmlp.cli",
    "pmlp.core",
    "pmlp.density",
    "pmlp.graph",
    "pmlp.propagate",
    "pmlp.synthlab",
)

# Single-query copies of pipeline stages, a test-only solver knob and the
# iterative solver; the batched kernel, knn_edges, the graph's base affinity
# and the fixed-point closed form are the one implementation of each.
REMOVED = (
    "CLOSED_FORM_SCALINGS",
    "NeighborSet",
    "PathDensities",
    "PathSample",
    "SOLVERS",
    "_check_kde_inputs",
    "aggregate_density",
    "distance",
    "kde_density",
    "kde_density_normalized",
    "knn_select",
    "path_density_info",
    "propagate_iterative",
    "sample_path",
    "select_kde_supports",
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_removed_names_stay_gone(name):
    module = importlib.import_module(name)
    assert [n for n in REMOVED if hasattr(module, n)] == []


def test_removed_solver_knob_stays_gone():
    fields = [f.name for f in dataclasses.fields(PmlpConfig)]
    assert len(fields) == 13
    assert [f for f in fields if "solver" in f or "scaling" in f] == []
    assert list(inspect.signature(propagate_closed_form).parameters) == [
        "S",
        "y_high",
        "alpha",
    ]
    assert list(inspect.signature(build_affinity).parameters) == [
        "features",
        "edges",
        "cfg",
    ]


def test_affinity_matrix_has_one_constructor():
    # Built from pairs only: no CSR-array constructor, from_pairs or SYMMETRY_TOL.
    parameters = inspect.signature(AffinityMatrix).parameters
    assert list(parameters) == ["size", "first", "second", "values"]
    assert not hasattr(AffinityMatrix, "from_pairs")
    assert not hasattr(AffinityMatrix, "SYMMETRY_TOL")
