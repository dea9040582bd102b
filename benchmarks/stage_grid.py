"""Stage timings of the kNN and affinity stages on the N x d grid.

    python3 benchmarks/stage_grid.py [--repo PATH] [--out-dir DIR]
    python3 benchmarks/stage_grid.py [--repo PATH] --cell SPEC

Measures the checkout at ``--repo`` (default: the one holding this
script) and writes ``BENCH_<sha>.json`` to ``--out-dir`` (default:
``benchmarks/``). ``--cell`` runs one cell instead, in this process on
``--repo``'s ``src``, and prints its record; SPEC is a JSON object of
``run_cell``'s arguments, such as ``'{"n": 20000, "dim": 32, "mode":
"pmlp"}'`` (``grid`` or ``shift`` make it a tied cell, and
``neighbor_count`` or ``support_n`` change the grid's 6 neighbours or 45
KDE supports). Alternating ``--cell`` runs of two checkouts compare one
cell between them.

The sha is the git tree hash of ``src/pmlp`` as it is on disk, so it
names the measured code whether or not it is committed: ``git rev-parse
<commit>:src/pmlp`` gives a commit's. The grid is N in {1k, 4k, 20k,
50k} x d in {2, 32}, in "pmlp" mode (45 KDE supports) and in
"classical_lpa" mode, with 6 neighbours. The data are two ``synthlab``
Gaussian blobs, sigma 1, 3 apart along the first axis, generator seed
1000, so every cell can be rebuilt exactly. Four more cells per mode
hold the same rows made tied: 20k, d = 2, on grids of 0.05 and 0.1
(``np.round(x / g) * g``), and 20k, d in {2, 32}, shifted by 1e6. On
the grids the screens' cuts tie among copies and are proven only by
widened screens; the shifted cells show what an offset costs screens
that centre their rows. These cells run whatever the estimate.

Each cell runs in a fresh interpreter and takes the best of 3 repeats,
timed with ``time.perf_counter``:

- ``knn_s``: ``graph.neighbor_lists`` plus ``graph.knn_edges`` on its lists;
- ``affinity_s``: ``graph.build_affinity`` on those edges and lists.

A pmlp cell also records its list length ``list_length`` (m), its
``path_points``, the queries of its one ``density._nearest_rows`` search
with endpoint lists, ``list_tried``, how many of them the list round
tried (none where the cost rule skips it), and ``proven_share``, the
share of them whose KDE supports ``density._listed_rows`` proved from
those lists; the search ranks the rest against the pool. They are
counted by wrapping the two functions, as the tests'
``listed_rows_counted`` does. Every cell records
``ranked_over_every_row``, the queries ``density._rank`` ranked with every
pool row a candidate, counted by wrapping it as the tests'
``rankings_counted`` does.

``peak_rss_mb`` is the cell process's ``ru_maxrss`` after the repeats and
so includes the interpreter, numpy and the data. A cell is skipped, not
run, when its estimate for one repeat exceeds 60 s or 2 GB. The estimate
scales the previous N of the same d and mode: time with N^2, and RSS
above the interpreter's own with N.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time

SIZES = (1_000, 4_000, 20_000, 50_000)
DIMS = (2, 32)
MODES = ("pmlp", "classical_lpa")
NEIGHBOR_COUNT = 6
SUPPORT_N = 45
# The tied cells: each is a plain cell's rows on a grid or shifted.
TIED = (
    {"n": 20_000, "dim": 2, "grid": 0.05},
    {"n": 20_000, "dim": 2, "grid": 0.1},
    {"n": 20_000, "dim": 2, "shift": 1e6},
    {"n": 20_000, "dim": 32, "shift": 1e6},
)
REPEATS = 3
TIME_BUDGET_S = 60.0
RSS_BUDGET_MB = 2048.0
HERE = os.path.dirname(os.path.abspath(__file__))


def run_cell(
    n, dim, mode, grid=None, shift=None, neighbor_count=NEIGHBOR_COUNT,
    support_n=SUPPORT_N,
):
    """Time one cell in this process; returns its record."""
    import numpy as np

    from pmlp import density
    from pmlp.core import PmlpConfig
    from pmlp.graph import build_affinity, knn_edges, neighbor_lists
    from pmlp.synthlab import gen_gaussian_blobs

    base_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    means = np.zeros((2, dim))
    means[1, 0] = 3.0
    features = gen_gaussian_blobs(means, 1.0, n // 2, 1, seed=1000).features
    # An array, or in older checkouts a wrapper that holds it as ``data``;
    # every checkout's stages take an array, and a read-only one uncopied.
    data = features if isinstance(features, np.ndarray) else features.data
    if grid is not None:
        features = np.round(data / grid) * grid
    if shift is not None:
        features = data + shift
    if isinstance(features, np.ndarray):
        features.setflags(write=False)
    cfg = PmlpConfig(mode=mode, neighbor_count=neighbor_count, kde_support_n=support_n)
    knn, affinity = [], []
    points, tried, proven, everywhere = [], [], [], []
    nearest_rows, listed_rows, rank = (
        density._nearest_rows, density._listed_rows, density._rank
    )

    def searched(queries, pool, count, ends=None, lists=None):
        if lists is not None:
            points.append(queries.shape[0])
        return nearest_rows(queries, pool, count, ends, lists)

    def listed(queries, *rest):
        got = listed_rows(queries, *rest)
        tried.append(queries.shape[0])
        proven.append(got[0].size)
        return got

    def ranked(queries, pool, candidates, count):
        if candidates.shape[1] == pool.shape[0]:
            everywhere.append(queries.shape[0])
        return rank(queries, pool, candidates, count)

    density._nearest_rows, density._listed_rows = searched, listed
    density._rank = ranked
    for _ in range(REPEATS):
        del points[:], tried[:], proven[:], everywhere[:]
        begin = time.perf_counter()
        lists = neighbor_lists(features, cfg)
        edges = knn_edges(features, cfg.neighbor_count, lists)
        middle = time.perf_counter()
        build_affinity(features, edges, cfg, lists)
        end = time.perf_counter()
        knn.append(middle - begin)
        affinity.append(end - middle)
        length = lists[0].shape[1]
        del lists, edges
    proof = {}
    if mode == "pmlp":
        proof = {
            "list_length": length,
            "path_points": sum(points),
            "list_tried": sum(tried),
            "proven_share": sum(proven) / sum(points),
        }
    return {
        **proof,
        "knn_s": min(knn),
        "affinity_s": min(affinity),
        "knn_affinity_s": min(k + a for k, a in zip(knn, affinity)),
        "ranked_over_every_row": sum(everywhere),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "base_rss_mb": base_rss,
    }


def fresh_cell(repo, cell):
    """``run_cell`` of ``cell``'s spec in a fresh interpreter on ``repo``'s
    ``src``."""
    spec = json.dumps(cell)
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--repo", repo, "--cell", spec],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def estimate(previous, n):
    """One repeat's (seconds, MB) at ``n``, scaled from a smaller cell."""
    ratio = n / previous["n"]
    seconds = previous["knn_affinity_s"] * ratio**2
    growth = previous["peak_rss_mb"] - previous["base_rss_mb"]
    return seconds, previous["base_rss_mb"] + growth * ratio


def git(repo, *args, env=None):
    return subprocess.run(
        ["git", "-C", repo, *args], capture_output=True, text=True, check=True,
        env=env,
    ).stdout.strip()


def source_tree(repo):
    """Git tree hash of ``repo``'s ``src/pmlp`` on disk, via a scratch index."""
    with tempfile.TemporaryDirectory() as scratch:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(scratch, "index"))
        git(repo, "add", "src/pmlp", env=env)
        return git(repo, "write-tree", "--prefix=src/pmlp/", env=env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=os.path.dirname(HERE))
    parser.add_argument("--out-dir", default=HERE)
    parser.add_argument("--cell", metavar="SPEC", help="run one cell, a JSON object")
    args = parser.parse_args()
    if args.cell:
        # The named checkout's package, not whichever one is installed.
        sys.path.insert(0, os.path.join(os.path.abspath(args.repo), "src"))
        spec = json.loads(args.cell)
        print(json.dumps(run_cell(**spec)))
        return

    repo = os.path.abspath(args.repo)
    tree = source_tree(repo)
    cells = []
    for dim in DIMS:
        for mode in MODES:
            previous = None
            for n in SIZES:
                cell = {"n": n, "dim": dim, "mode": mode}
                if previous is not None:
                    seconds, rss = estimate(previous, n)
                    if seconds > TIME_BUDGET_S or rss > RSS_BUDGET_MB:
                        cell.update(skipped=True, estimate_s=seconds, estimate_rss_mb=rss)
                        cells.append(cell)
                        print(json.dumps(cell), flush=True)
                        continue
                cell.update(fresh_cell(repo, cell), skipped=False)
                cells.append(cell)
                previous = cell
                print(json.dumps(cell), flush=True)
    for mode in MODES:
        for tied in TIED:
            cell = dict(tied, mode=mode)
            cell.update(fresh_cell(repo, cell), skipped=False)
            cells.append(cell)
            print(json.dumps(cell), flush=True)
    # Imported only now: a child's ru_maxrss starts at its parent's peak, so
    # this process stays small while the cells run.
    import numpy as np

    report = {
        "src_tree": tree,
        "head": git(repo, "rev-parse", "HEAD"),
        "src_changed_since_head": bool(
            git(repo, "status", "--porcelain", "--", "src/pmlp")
        ),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "grid": {
            "sizes": SIZES, "dims": DIMS, "modes": MODES, "tied": TIED,
            "neighbor_count": NEIGHBOR_COUNT, "kde_support_n": SUPPORT_N,
            "repeats": REPEATS, "time_budget_s": TIME_BUDGET_S,
            "rss_budget_mb": RSS_BUDGET_MB,
        },
        "cells": cells,
    }
    path = os.path.join(args.out_dir, "BENCH_%s.json" % tree[:12])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print("wrote %s" % path)


if __name__ == "__main__":
    main()
