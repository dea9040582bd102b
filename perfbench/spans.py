"""Layer spans for the traced run, recorded from outside the program.

``Tracer.install`` replaces module attributes at the points where one pmlp
module calls the next (the modules bind each other's functions by name, so
the wrapper goes into the caller's namespace). Each call then leaves a span
in memory: name, start, end, parent span, peak RSS before and after, and
counts read from the call's arguments and return value. Nothing under
``src/`` is edited. A target that no longer exists is listed in
``Tracer.absent`` instead of failing the run.

``layer_metrics`` turns the spans of one traced job into the per-layer
metrics of BENCHMARK.json. A span's self time is its duration minus the
durations of its child spans (calls are nested and single-threaded, so
children never overlap).
"""

import functools
import importlib
import resource
import time

import numpy as np


def _edge_count(args, kwargs, result):
    return {"graph.edges": len(result)}


def _affinity_counts(args, kwargs, result):
    edges = kwargs.get("edges", args[3] if len(args) > 3 else None)
    if edges is None:
        m = len(args[1])
        pairs = m * (m - 1) // 2
    else:
        edges = np.asarray(edges)
        pairs = np.unique(np.sort(edges, axis=1), axis=0).shape[0]
    return {"graph.pairs": int(pairs), "graph.affinity_bytes": _nbytes(result)}


def _nbytes(matrix):
    if hasattr(matrix, "indptr"):  # scipy.sparse compressed formats
        return int(matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)
    if isinstance(matrix, np.ndarray):
        return int(matrix.nbytes)
    return _nbytes(matrix.data)  # AffinityMatrix wraps its array


def _query_count(args, kwargs, result):
    pairs, cfg = args[1], args[2]
    return {"density.queries": len(pairs) * int(cfg.path_points_k)}


def _iterations(args, kwargs, result):
    # The iterative solver returns (labels, iterations, residual); the
    # direct one returns the labels alone and does no iterations.
    return {"propagate.solve_iterations": int(result[1]) if isinstance(result, tuple) else 0}


def _unreached_rows(args, kwargs, result):
    # Rows no label reached end with all-zero scores.
    return {"propagate.unreached_rows": int(np.sum(~result.final_labels.data.any(axis=1)))}


# (module, attribute, span name, counts read from the call)
TARGETS = (
    ("pmlp.cli", "main", "cli.main", None),
    ("pmlp.cli", "ingest_features", "cli.ingest", None),
    ("pmlp.cli", "compare_pmlp_vs_lpa", "synthlab.compare", None),
    ("pmlp.cli", "gen_two_moons", "synthlab.generate", None),
    ("pmlp.cli", "gen_gaussian_blobs", "synthlab.generate", None),
    ("pmlp.synthlab", "regenerate", "synthlab.regenerate", None),
    ("pmlp.cli", "run_pmlp", "propagate.run_pmlp", _unreached_rows),
    ("pmlp.synthlab", "run_pmlp", "propagate.run_pmlp", _unreached_rows),
    ("pmlp.propagate", "soft_labels_from_assignments", "core.assignments", None),
    ("pmlp.propagate", "split_by_confidence", "propagate.split", None),
    ("pmlp.propagate", "knn_edges", "graph.knn", _edge_count),
    ("pmlp.propagate", "build_affinity", "graph.affinity", _affinity_counts),
    ("pmlp.graph", "batch_path_density_info", "density.path", _query_count),
    ("pmlp.propagate", "normalize_symmetric", "graph.normalize", None),
    ("pmlp.propagate", "propagate_closed_form", "propagate.solve", _iterations),
    ("pmlp.propagate", "propagate_iterative", "propagate.solve", _iterations),
    ("pmlp.propagate", "mix_final", "propagate.mix", None),
)

# Metric -> (how, span names). "total" sums span durations; "self" sums
# span self times.
TIME_METRICS = {
    "cli.ingest_s": ("total", ("cli.ingest",)),
    "cli.self_s": ("self", ("cli.main",)),
    "synthlab.regenerate_s": ("total", ("synthlab.regenerate",)),
    "synthlab.self_s": ("self", ("synthlab.compare", "synthlab.generate")),
    "propagate.self_s": ("self", ("propagate.run_pmlp", "propagate.split", "propagate.mix")),
    "propagate.solve_s": ("total", ("propagate.solve",)),
    "core.assignments_s": ("total", ("core.assignments",)),
    "graph.knn_s": ("total", ("graph.knn",)),
    "graph.affinity_self_s": ("self", ("graph.affinity",)),
    "graph.normalize_s": ("total", ("graph.normalize",)),
    "density.path_s": ("total", ("density.path",)),
}
COUNT_METRICS = (
    "density.queries",
    "graph.edges",
    "graph.pairs",
    "graph.affinity_bytes",
    "propagate.solve_iterations",
    "propagate.unreached_rows",
)
RSS_SPANS = ("graph.knn", "graph.affinity", "graph.normalize", "propagate.solve")


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Wraps the TARGETS and keeps one dict per call in ``spans``."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []

    def install(self):
        for module_name, attr, name, count in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append("%s.%s" % (module_name, attr))
                continue
            setattr(module, attr, self._wrap(original, name, count))

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else -1}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["rss_before_mb"] = _peak_rss_mb()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss_after_mb"] = _peak_rss_mb()
                self._stack.pop()
            if count is not None:
                try:
                    span["counts"] = count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    self.absent.append("%s counts" % name)
            return result

        return wrapper


def layer_metrics(spans):
    """Per-layer metric values from the spans of one traced job."""
    duration = [s["end"] - s["start"] for s in spans]
    self_time = list(duration)
    for s, d in zip(spans, duration):
        if s["parent"] >= 0:
            self_time[s["parent"]] -= d
    metrics = {}
    for metric, (how, names) in TIME_METRICS.items():
        times = self_time if how == "self" else duration
        metrics[metric] = sum((t for s, t in zip(spans, times) if s["name"] in names), 0.0)
    for metric in COUNT_METRICS:
        metrics[metric] = sum(s.get("counts", {}).get(metric, 0) for s in spans)
    metrics["propagate.calls"] = sum(s["name"] == "propagate.run_pmlp" for s in spans)
    path_s = metrics["density.path_s"]
    metrics["density.queries_per_s"] = metrics["density.queries"] / path_s if path_s > 0 else 0.0
    for name in RSS_SPANS:
        metrics[name + ".rss_growth_mb"] = sum(
            (s["rss_after_mb"] - s["rss_before_mb"] for s in spans if s["name"] == name), 0.0
        )
    return metrics
