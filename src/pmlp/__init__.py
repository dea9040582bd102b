"""Density-aware transductive label propagation.

Given feature vectors with sparse labels, this package builds a
nearest-neighbor affinity graph whose edges are reweighted by the kernel
density observed along the segment between the two endpoints, diffuses the
high-confidence label mass over the normalized graph, and mixes the result
back with the retained low-confidence predictions. Edges that cross
low-density territory between clusters are damped, so label mass follows
cluster shape instead of raw proximity; sending the kernel bandwidth to
infinity removes the damping and recovers classical label propagation.

The public names are declared once, in the ``__all__`` of ``core``,
``density``, ``graph``, ``propagate`` and ``synthlab``; this package
re-exports the union of those five lists.
"""

__version__ = "0.1.0"  # before the submodules: pmlp.cli imports it

from . import core, density, graph, propagate, synthlab
from .core import *
from .density import *
from .graph import *
from .propagate import *
from .synthlab import *

__all__ = [n for m in (core, density, graph, propagate, synthlab) for n in m.__all__]
