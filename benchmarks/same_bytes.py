"""Check that CLI outputs and nearest-row lists match another commit's bytes.

    python3 benchmarks/same_bytes.py REF [--expect-change JOB/FILE ...]

Exports ``src`` of the commit REF (``HEAD^``, a branch, a sha) with ``git
archive`` into a temporary directory, then runs one fixed job list with
REF's package and with the working tree's ``src/pmlp``, each job in a
fresh interpreter, at 1 and at 2 BLAS threads. Every job but the last two
is a CLI call (``python -m pmlp.cli``):

- ``generate``: the moons-4k and blobs-5k-d32 fixtures of
  ``perfbench/run.py`` (generator seed 1000) with their truth files, a
  JSONL file, and a 20,000-row two-moons file;
- ``label`` on both fixtures, with the benchmark's flags and with the
  defaults, and on the 20,000-row file with the defaults;
- ``label`` on a fixed JSONL file of ground-truth, unlabeled and
  prediction rows, with its truth file, both written by this script
  (``PREDICTIONS_JSONL``), as no generated file holds a prediction;
- the default ``harness theorem1``, ``compare`` and ``density-ratio`` jobs,
  ``harness compare`` with the flags of perfbench's compare_n200
  workload (100 trials at n = 200, config seed 1000), whose trials run
  in several processes where the process may use several CPUs, and
  ``harness compare`` of 4 gaussian-blobs trials, so both dataset kinds
  are covered;
- ``lists_20k``: ``graph.neighbor_lists`` of ``benchmarks/stage_grid.py``'s
  20,000-row cells at d = 2 and 32, in both modes (m = 6, and pmlp's
  length for 45 KDE supports), saved as ``.npy`` files: the exact
  nearest-row search at a size the oracle tests do not reach;
- ``lists_tied``: the same lists of 4,000 such rows made tied, on a grid
  of 0.5 at d = 2 and shifted by 1e6 at d = 32, whose cuts only widened
  screens prove.

The label jobs of both sides read the files REF's generate jobs wrote, so
a changed generated file shows once, in its own job. Manifests are
compared with the timestamp and every path set aside; any other file
byte for byte. One line is printed per output file and thread count:
``identical``, or the first line that differs. The exit status is 1 if a
job fails or a file differs, unless ``--expect-change`` names the file
(as ``JOB/FILE``, for a change meant to alter it), and 0 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREADS = ("1", "2")
CLI = ["-m", "pmlp.cli"]

# The generate arguments of perfbench/run.py's label workloads, and their
# label flags.
MOONS_4K = ["--kind", "two-moons", "--n", "4000", "--noise", "0.1",
            "--labeled-per-class", "5", "--seed", "1000"]
BLOB_MEANS = ";".join(
    ",".join("3.0" if axis == blob else "0.0" for axis in range(32)) for blob in range(4)
)
BLOBS_5K_D32 = ["--kind", "gaussian-blobs", "--means", BLOB_MEANS, "--sigma", "1.0",
                "--per-class", "1250", "--labeled-per-class", "5", "--seed", "1000"]
MOONS_FLAGS = ["--bandwidth-h", "0.05", "--kde-support-n", "15", "--neighbor-count", "5"]
BLOBS_FLAGS = ["--mode", "classical_lpa", "--neighbor-count", "6"]
MOONS_20K = ["--kind", "two-moons", "--n", "20000", "--seed", "3"]
# perfbench/run.py's compare_n200 job, its config file given as flags.
COMPARE_N200 = ["--dataset", "two-moons", "--n", "200", "--noise", "0.1",
                "--labeled-per-class", "2", "--trials", "100", "--seed", "1000",
                "--bandwidth-h", "0.05", "--kde-support-n", "15", "--neighbor-count", "5"]

# stage_grid.py's 20,000-row cells: two blobs 3 apart, 6 neighbours, 45
# KDE supports in pmlp mode; argv[1] is the output directory. Like every
# job argument it is str.format-ed, so it holds no braces.
LISTS_20K = """\
import sys
import numpy as np
from pmlp.core import PmlpConfig
from pmlp.graph import neighbor_lists
from pmlp.synthlab import gen_gaussian_blobs
for dim in (2, 32):
    means = np.zeros((2, dim))
    means[1, 0] = 3.0
    features = gen_gaussian_blobs(means, 1.0, 10000, 1, seed=1000).features
    for mode in ("classical_lpa", "pmlp"):
        cfg = PmlpConfig(mode=mode, neighbor_count=6, kde_support_n=45)
        for name, array in zip(("indices", "dist2"), neighbor_lists(features, cfg)):
            np.save("%s/d%d_%s_%s.npy" % (sys.argv[1], dim, mode, name), array)
"""

# 4,000 of those rows, tied: on a grid of 0.5 at d = 2, shifted by 1e6 at
# d = 32. The generated features are an array, or in older trees a wrapper
# that holds it as ``data``; every tree's neighbor_lists takes an array.
LISTS_TIED = """\
import sys
import numpy as np
from pmlp.core import PmlpConfig
from pmlp.graph import neighbor_lists
from pmlp.synthlab import gen_gaussian_blobs
for dim, kind in ((2, "grid"), (32, "shift")):
    means = np.zeros((2, dim))
    means[1, 0] = 3.0
    data = gen_gaussian_blobs(means, 1.0, 2000, 1, seed=1000).features
    data = data if isinstance(data, np.ndarray) else data.data
    features = np.round(data / 0.5) * 0.5 if dim == 2 else data + 1e6
    for mode in ("classical_lpa", "pmlp"):
        cfg = PmlpConfig(mode=mode, neighbor_count=6, kde_support_n=45)
        for name, array in zip(("indices", "dist2"), neighbor_lists(features, cfg)):
            np.save("%s/%s_%s_%s.npy" % (sys.argv[1], kind, mode, name), array)
"""


# 15 rows in three classes: ground-truth, unlabeled and prediction rows,
# confident ones and not. [0.7000004, 0.2, 0.1] sums to 1 within 1e-6 but
# not within 1e-9, so it is rescaled to 1 on reading.
PREDICTIONS_JSONL = """\
{"features": [0.0, 0.0], "label": 0}
{"features": [0.5, 0.25], "label": [0.96, 0.02, 0.02]}
{"features": [-0.25, 0.5], "label": [0.7000004, 0.2, 0.1]}
{"features": [0.25, -0.5], "label": null}
{"features": [-0.5, -0.25], "label": null}
{"features": [4.0, 0.0], "label": 1}
{"features": [4.5, 0.25], "label": [0.1, 0.6, 0.3]}
{"features": [3.75, 0.5], "label": null}
{"features": [4.25, -0.5], "label": [0.02, 0.97, 0.01]}
{"features": [3.5, -0.25], "label": null}
{"features": [0.0, 4.0], "label": 2}
{"features": [0.5, 4.25], "label": null}
{"features": [-0.25, 4.5], "label": [0.25, 0.25, 0.5]}
{"features": [0.25, 3.5], "label": null}
{"features": [-0.5, 3.75], "label": 2}
"""
PREDICTIONS_TRUTH = "row_index,true_class\n" + "".join(
    "%d,%d\n" % (row, row // 5) for row in range(15)
)


def _generate(args):
    return CLI + ["generate"] + args + [
        "--out", "{out}/data.csv", "--truth-out", "{out}/truth.csv"]


def _label(fixture, flags):
    return CLI + ["label", "--input", "{ref}/%s/data.csv" % fixture,
                  "--truth", "{ref}/%s/truth.csv" % fixture, "--out-dir", "{out}"] + flags


# Job name -> the interpreter's arguments; {out} is the job's own output
# directory, {ref} the directory that holds REF's jobs and {fixed} the one
# that holds PREDICTIONS_JSONL and its truth file. Generate jobs come first.
JOBS = {
    "generate_moons_4k": _generate(MOONS_4K),
    "generate_blobs_5k_d32": _generate(BLOBS_5K_D32),
    "generate_jsonl": CLI + ["generate", "--kind", "gaussian-blobs", "--seed", "1000",
                             "--out", "{out}/data.jsonl"],
    "generate_moons_20k": _generate(MOONS_20K),
    "label_moons_4k_bench": _label("generate_moons_4k", MOONS_FLAGS),
    "label_moons_4k_defaults": _label("generate_moons_4k", []),
    "label_blobs_5k_d32_bench": _label("generate_blobs_5k_d32", BLOBS_FLAGS),
    "label_blobs_5k_d32_defaults": _label("generate_blobs_5k_d32", []),
    "label_moons_20k_defaults": _label("generate_moons_20k", []),
    "label_predictions": CLI + ["label", "--input", "{fixed}/predictions.jsonl",
                                "--truth", "{fixed}/truth.csv", "--out-dir", "{out}"],
    "harness_theorem1": CLI + ["harness", "theorem1", "--out-dir", "{out}"],
    "harness_compare": CLI + ["harness", "compare", "--out-dir", "{out}"],
    "harness_compare_n200": CLI + ["harness", "compare", "--out-dir", "{out}"] + COMPARE_N200,
    "harness_compare_blobs": CLI + ["harness", "compare", "--out-dir", "{out}",
                                    "--dataset", "gaussian-blobs", "--trials", "4"],
    "harness_density_ratio": CLI + ["harness", "density-ratio", "--out-dir", "{out}"],
    "lists_20k": ["-c", LISTS_20K, "{out}"],
    "lists_tied": ["-c", LISTS_TIED, "{out}"],
}


def export(ref, dest):
    """Unpack ``src`` of commit ``ref`` into ``dest``."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", ref, "src"], capture_output=True
    )
    if archive.returncode:
        sys.exit("same_bytes: git archive %s: %s" % (ref, archive.stderr.decode().strip()))
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def run_jobs(src, work, ref_work, fixed, threads):
    """Run every job with the package under ``src``; returns failures."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PMLP_SEED", None)  # it would override the jobs' seeds
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = threads
    where = subprocess.run(
        [sys.executable, "-c", "import pmlp; print(pmlp.__file__)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    if not where.startswith(os.path.join(src, "pmlp")):
        sys.exit("same_bytes: %s imports pmlp from %s" % (src, where.strip()))
    failed = {}
    for job, argv in JOBS.items():
        out = os.path.join(work, job)
        os.makedirs(out)
        argv = [arg.format(out=out, ref=ref_work, fixed=fixed) for arg in argv]
        done = subprocess.run(
            [sys.executable] + argv,
            env=env, cwd=work, capture_output=True, text=True,
        )
        if done.returncode:
            failed[job] = "exit %d: %s" % (done.returncode, done.stderr.strip()[-300:])
    return failed


def _set_paths_aside(value, root):
    if isinstance(value, dict):
        return {k: _set_paths_aside(v, root) for k, v in value.items() if k != "timestamp"}
    if isinstance(value, list):
        return [_set_paths_aside(v, root) for v in value]
    if isinstance(value, str) and value.startswith(root):
        return "<path>"
    return value


def read_lines(path, root):
    """The file's lines; a manifest's without its timestamp and paths."""
    with open(path, "rb") as handle:
        data = handle.read()
    if path.endswith("manifest.json"):
        manifest = _set_paths_aside(json.loads(data), root)
        data = json.dumps(manifest, indent=2, sort_keys=True).encode()
    return data.splitlines(keepends=True)


def difference(ref_path, tree_path, root):
    """None if the files match, else a note on where they first differ."""
    if not os.path.exists(ref_path) or not os.path.exists(tree_path):
        return "missing at %s" % ("REF" if not os.path.exists(ref_path) else "the tree")
    ref_lines = read_lines(ref_path, root)
    tree_lines = read_lines(tree_path, root)
    for number, (a, b) in enumerate(zip(ref_lines, tree_lines), start=1):
        if a != b:
            at = len(os.path.commonprefix([a, b]))
            start = max(0, at - 30)
            return "line %d, byte %d: REF %r, tree %r" % (
                number, at + 1, a[start : at + 30], b[start : at + 30]
            )
    if len(ref_lines) != len(tree_lines):
        return "REF has %d lines, the tree %d" % (len(ref_lines), len(tree_lines))
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="the commit to compare with, e.g. HEAD^")
    parser.add_argument(
        "--expect-change", action="append", default=[], metavar="JOB/FILE",
        help="an output file this change means to alter (repeatable)",
    )
    args = parser.parse_args(argv)
    unexpected = 0
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as root:
        export(args.ref, root)
        fixed = os.path.join(root, "fixed")
        os.makedirs(fixed)
        for name, text in (("predictions.jsonl", PREDICTIONS_JSONL),
                           ("truth.csv", PREDICTIONS_TRUTH)):
            with open(os.path.join(fixed, name), "w", encoding="utf-8") as handle:
                handle.write(text)
        sources = {"ref": os.path.join(root, "src"), "tree": os.path.join(ROOT, "src")}
        for threads in THREADS:
            works = {side: os.path.join(root, "threads" + threads, side) for side in sources}
            failed = {}
            for side, src in sources.items():
                failures = run_jobs(src, works[side], works["ref"], fixed, threads)
                for job, note in failures.items():
                    failed[job] = "%s %s" % (side, note)
            for job in JOBS:
                if job in failed:
                    unexpected += 1
                    print("FAILED     %s threads  %s: %s" % (threads, job, failed[job]))
                    continue
                names = set()
                for side in sources:
                    names.update(os.listdir(os.path.join(works[side], job)))
                for name in sorted(names):
                    key = "%s/%s" % (job, name)
                    note = difference(
                        *(os.path.join(works[side], job, name) for side in sources), root
                    )
                    if note is None:
                        print("identical  %s threads  %s" % (threads, key))
                    elif key in args.expect_change:
                        print("changed    %s threads  %s (expected): %s" % (threads, key, note))
                    else:
                        unexpected += 1
                        print("DIFFERS    %s threads  %s: %s" % (threads, key, note))
    print("same_bytes: %s against the working tree, %d unexpected difference(s)"
          % (args.ref, unexpected))
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
