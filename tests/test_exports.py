"""The public names: every exported name resolves, and removed ones stay gone."""

import dataclasses
import importlib
import inspect

import pytest

from pmlp.core import AffinityMatrix, PmlpConfig
from pmlp.density import batch_normalized_density
from pmlp.graph import build_affinity
from pmlp.propagate import PropagationResult, propagate_closed_form

MODULES = (
    "pmlp",
    "pmlp.cli",
    "pmlp.core",
    "pmlp.density",
    "pmlp.graph",
    "pmlp.propagate",
    "pmlp.synthlab",
)

# Single-query copies of pipeline stages, a test-only solver knob, the
# iterative solver and the endpoint-only nearest-row lists; the batched
# kernel, knn_edges, the graph's base affinity, the fixed-point closed form
# and every row's list are the one implementation of each.
REMOVED = (
    "CLOSED_FORM_SCALINGS",
    "NeighborSet",
    "PathDensities",
    "PathSample",
    "SOLVERS",
    "_check_kde_inputs",
    "_end_lists",
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


def test_package_exports_its_pipeline_modules_lists():
    # Each public name is declared once, in its module's __all__; the
    # package republishes the five lists, so `import pmlp` sees them all.
    package = importlib.import_module("pmlp")
    modules = [
        importlib.import_module(name)
        for name in MODULES
        if name not in ("pmlp", "pmlp.cli")
    ]
    declared = {name: module for module in modules for name in module.__all__}
    assert sum(len(module.__all__) for module in modules) == len(declared)
    assert sorted(package.__all__) == sorted(declared)
    moved = [n for n, m in declared.items() if getattr(package, n) is not getattr(m, n)]
    assert moved == []


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
    # lists: the run's shared nearest-row lists, which change no value.
    assert list(inspect.signature(build_affinity).parameters) == [
        "features",
        "edges",
        "cfg",
        "lists",
    ]


def test_propagation_result_has_no_unread_fields():
    # No high_mask: nothing read it, and run_pmlp splits the rows with the
    # mask split_by_confidence returns. No propagated: nothing read it, and
    # the final labels of an eta = 1 run are the diffusion output.
    assert [f.name for f in dataclasses.fields(PropagationResult)] == [
        "final_labels",
        "iterations_used",
        "residual",
    ]


def test_kde_takes_no_list_arguments():
    # Path points reach the kernel with their ends and lists privately.
    assert list(inspect.signature(batch_normalized_density).parameters) == [
        "queries",
        "features",
        "n",
        "h",
    ]


def test_affinity_matrix_has_one_constructor():
    # Built from pairs only: no CSR-array constructor, from_pairs or SYMMETRY_TOL.
    parameters = inspect.signature(AffinityMatrix).parameters
    assert list(parameters) == ["size", "first", "second", "values"]
    assert not hasattr(AffinityMatrix, "from_pairs")
    assert not hasattr(AffinityMatrix, "SYMMETRY_TOL")
