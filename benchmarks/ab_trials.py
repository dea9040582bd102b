"""Time ``harness compare`` trials of another commit against the working tree.

    python3 benchmarks/ab_trials.py REF [--pairs P] [--trials T]

Exports ``src`` of the commit REF (``HEAD^``, a branch, a sha) with
``same_bytes.export`` into a temporary directory and imports its package
as ``pmlp_ref``, beside the working tree's ``src/pmlp`` as ``pmlp``, in
one process: the package imports itself only by relative imports, so the
two copies do not mix. Each side then runs T serial
``synthlab._compare_trial`` calls at the settings of perfbench's
compare_n200 workload (two-moons, n = 200, noise 0.1, 2 labelled rows per
class, ``--bandwidth-h 0.05 --kde-support-n 15 --neighbor-count 5``,
config seed 1000), P times each, in pairs that alternate which side runs
first. Both sides share the interpreter, the heap and the machine's load
at the time, which separate runs of ``perfbench/run.py`` do not.

Prints each side's median, quartiles and wins over the pairs, and the
ratio of the medians (tree / REF). The exit status is 1 if any record of
either side differs from REF's first loop, and 0 otherwise.
"""

import argparse
import gc
import importlib.util
import os
import sys
import tempfile
import time

import numpy as np

from same_bytes import ROOT, export

# perfbench/run.py's CompareWorkload, with same_bytes.py's config seed.
DATASET = {"n": 200, "noise": 0.1, "labeled_per_class": 2, "seed": 1000}
CONFIG = {"bandwidth_h": 0.05, "kde_support_n": 15, "neighbor_count": 5, "seed": 1000}


def load(name, directory):
    """The package in ``directory`` imported as ``name``; returns its
    ``synthlab`` and ``core`` modules."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(directory, "__init__.py"),
        submodule_search_locations=[directory],
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return (importlib.import_module(name + ".synthlab"),
            importlib.import_module(name + ".core"))


def trial_loop(synthlab, spec, cfg, trials):
    """Seconds for ``trials`` serial compare trials, and their records."""
    gc.collect()
    start = time.perf_counter()
    records = [synthlab._compare_trial(spec, cfg, t) for t in range(trials)]
    elapsed = time.perf_counter() - start
    # repr writes NaN as nan, so a NaN ratio compares equal.
    return elapsed, [repr(r) for pair in records for r in pair]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="the commit to compare with, e.g. HEAD^")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs (10)")
    parser.add_argument("--trials", type=int, default=100, help="trials per loop (100)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.trials < 1:
        parser.error("--pairs and --trials must be >= 1")
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory(prefix="ab_trials_") as root:
        export(args.ref, root)
        sides = {
            "ref": load("pmlp_ref", os.path.join(root, "src", "pmlp")),
            "tree": load("pmlp", os.path.join(ROOT, "src", "pmlp")),
        }
        runs = {}
        for side, (synthlab, core) in sides.items():
            spec = synthlab.gen_two_moons(**DATASET).generator_spec
            runs[side] = (synthlab, spec, core.PmlpConfig(**CONFIG))
            trial_loop(*runs[side], 1)  # warm up before any timed loop
        times = {side: [] for side in sides}
        expected, differs = None, 0
        for pair in range(args.pairs):
            for side in ("ref", "tree") if pair % 2 == 0 else ("tree", "ref"):
                elapsed, records = trial_loop(*runs[side], args.trials)
                times[side].append(elapsed)
                if expected is None:
                    expected = records
                elif records != expected:
                    differs += 1
                    at = next((i for i, (a, b) in enumerate(zip(expected, records))
                               if a != b), min(len(expected), len(records)))
                    print("DIFFERS  pair %d, %s: record %d" % (pair, side, at))
    ref, tree = (np.array(times[side]) for side in ("ref", "tree"))
    for side, values, rival in (("ref", ref, tree), ("tree", tree, ref)):
        low, median, high = np.percentile(values, [25, 50, 75])
        print("%-4s  median %.4f s  quartiles %.4f-%.4f s  wins %d of %d"
              % (side, median, low, high, int(np.sum(values < rival)), args.pairs))
    print("ab_trials: %s against the working tree, %d x %d trials: tree / REF %.3f, "
          "%d differing loop(s)" % (args.ref, args.pairs, args.trials,
                                    np.median(tree) / np.median(ref), differs))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
