"""The pmlp benchmark: one workload through the ``pmlp`` CLI, checked.

    python3 perfbench/run.py --workload moons_4k_pmlp --seed 1 --seconds 25 --trace 0

Run it from anywhere; it works on the checkout that holds it and needs only
``src/pmlp``, numpy and scipy. Inputs come from ``--seed`` alone. Each
step runs in a fresh interpreter (child.py) and the workload runs one job
at a time, with as many BLAS threads as the process may use CPUs:

1. set-up: import pmlp and write the inputs (``pmlp generate``, or a
   config file); repeated between samples. ``setup_s`` is the median.
2. samples: one ``pmlp.cli.main`` call each, until ``--seconds`` have
   passed and at least MIN_SAMPLES ran. ``wall_s`` and ``peak_rss_mb`` are
   medians; each sample's peak RSS is its own process's.
3. after each sample, outside its timed region, the output check against
   oracle.py and against the seed engine's recorded fingerprints
   (reference.json). ``accuracy`` is pooled over the workload's datasets.

With ``--trace 1`` samples alternate untraced and traced (spans.py), and
the per-layer metrics of the traced samples are reported instead, with
``trace.overhead_s`` the difference of the two medians.

Standard output ends with one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json. The lines before it give every
metric with its unit, the sample counts and the environment.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy

import oracle
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
THREADS = len(os.sched_getaffinity(0))

MIN_SAMPLES = 3
# Set-ups run once per dataset before the samples and this many times after
# each untraced sample, so their median spans the whole run.
SETUPS_PER_SAMPLE = 2
# The whole run, set-up and checks included, must end within 180 s.
TIME_LIMIT_S = 170.0
# Largest allowed |score - reference| and the relative tolerance on the
# recorded score sums. The oracle agrees with the seed engine to ~1e-16.
SCORE_TOL = 1e-9
# Datasets of run seed s use generator seeds 1000*s + i, so no two run
# seeds share data (compare's trials use 1000*s .. 1000*s + trials - 1).
SEED_STRIDE = 1000

# Four means 3 sigma from the origin along separate axes of d=32: close
# enough that propagation stays clearly short of perfect accuracy.
BLOB_MEANS = ";".join(
    ",".join("3.0" if axis == blob else "0.0" for axis in range(32)) for blob in range(4)
)


def _load_table(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class LabelWorkload:
    """``pmlp label`` on a generated CSV, checked row by row."""

    def __init__(self, generate, label_flags, neighbor_count, density, datasets):
        self.generate = generate
        self.label_flags = label_flags
        self.neighbor_count = neighbor_count
        self.density = density
        self.datasets = datasets

    def setup(self, work, seed, index):
        data_seed = SEED_STRIDE * seed + index
        command = self.generate + [
            "--seed", str(data_seed),
            "--out", os.path.join(work, "data%d.csv" % index),
            "--truth-out", os.path.join(work, "truth%d.csv" % index),
        ]
        return [command], {}, str(data_seed)

    def argv(self, work, index, out):
        return [
            "label",
            "--input", os.path.join(work, "data%d.csv" % index),
            "--truth", os.path.join(work, "truth%d.csv" % index),
            "--out-dir", out,
        ] + self.label_flags

    def reference(self, work, index):
        data = _load_table(os.path.join(work, "data%d.csv" % index))
        truth = _load_table(os.path.join(work, "truth%d.csv" % index))[:, 1].astype(int)
        x, labels = data[:, :-1], data[:, -1].astype(int)
        scores = oracle.propagate(x, labels, labels.max() + 1, self.neighbor_count, self.density)
        return {"scores": scores, "labels": labels, "truth": truth}

    def check(self, ref, out):
        """Problems, accuracy (weight: unlabelled rows), unreached rows and
        fingerprint of one job's output."""
        expected = ref["scores"]
        n, classes = expected.shape
        table = _load_table(os.path.join(out, "pseudo_labels.csv"))
        if table.shape != (n, classes + 3):
            return {"problems": ["pseudo_labels.csv has shape %s, expected %s"
                                 % (table.shape, (n, classes + 3))]}
        problems = []
        argmax = table[:, 1].astype(int)
        scores = table[:, 2 : 2 + classes]
        if not np.array_equal(table[:, 0], np.arange(n)):
            problems.append("row_index is not 0..N-1")
        error = float(np.max(np.abs(scores - expected)))
        if not error <= SCORE_TOL:
            problems.append("scores differ from the reference by %.3g > %g" % (error, SCORE_TOL))
        # An all-zero row is one no label reached. The seed engine emits
        # such rows for kNN components without a labelled row (and calls
        # them class 0), so they pass only where the reference has them too.
        zero = ~scores.any(axis=1)
        lost = int(np.sum(zero & (expected.max(axis=1) > SCORE_TOL)))
        if lost:
            problems.append("%d rows have all-zero scores where the reference has mass" % lost)
        top2 = np.sort(expected, axis=1)[:, -2:]
        decided = top2[:, 1] - top2[:, 0] > 2 * SCORE_TOL
        wrong = int(np.sum((argmax != expected.argmax(axis=1)) & decided))
        if wrong:
            problems.append("%d argmax labels differ from the reference" % wrong)
        unlabeled = ref["labels"] < 0
        hits = (argmax == ref["truth"]) & ~zero  # an unreached row matches nothing
        # The per-class score sums pin the generated data; the argmax and
        # scores are already checked against the oracle.
        fingerprint = {"score_sums": scores.sum(axis=0).tolist()}
        return {"problems": problems, "accuracy": float(np.mean(hits[unlabeled])),
                "weight": int(unlabeled.sum()), "unreached": int(zero.sum()),
                "fingerprint": fingerprint}


class CompareWorkload:
    """``pmlp harness compare``: many small propagations, checked per trial."""

    datasets = 1
    dataset = {"n": 200, "noise": 0.1, "labeled_per_class": 2}
    config = {"bandwidth_h": 0.05, "kde_support_n": 15, "neighbor_count": 5}

    def __init__(self, trials):
        self.trials = trials

    def setup(self, work, seed, index):
        config = dict(self.config, seed=SEED_STRIDE * seed)
        return [], {os.path.join(work, "compare.json"): config}, str(config["seed"])

    def argv(self, work, index, out):
        return [
            "harness", "compare", "--out-dir", out,
            "--config", os.path.join(work, "compare.json"),
            "--dataset", "two-moons",
            "--n", str(self.dataset["n"]),
            "--noise", str(self.dataset["noise"]),
            "--labeled-per-class", str(self.dataset["labeled_per_class"]),
            "--trials", str(self.trials),
        ]

    def reference(self, work, index):
        with open(os.path.join(work, "compare.json"), encoding="utf-8") as handle:
            base = json.load(handle)["seed"]
        rows = {}
        for trial in range(self.trials):
            x, truth, labels = oracle.two_moons(seed=base + trial, **self.dataset)
            kde = (self.config["kde_support_n"], self.config["bandwidth_h"])
            for mode, density in (("pmlp", kde), ("classical_lpa", None)):
                scores = oracle.propagate(x, labels, 2, self.config["neighbor_count"], density)
                rows[trial, mode] = oracle.trial_metric_bounds(scores, truth, labels, SCORE_TOL)
        return rows

    def check(self, ref, out):
        with open(os.path.join(out, "report.json"), encoding="utf-8") as handle:
            rows = json.load(handle)["rows"]
        problems = []
        if len(rows) != len(ref):
            problems.append("report has %d rows, expected %d" % (len(rows), len(ref)))
        for row in rows:
            got = (row["accuracy"], row["high_conf_ratio"], row["correct_high_ratio"])
            bounds = ref.get((row["trial"], row["mode"]))
            if bounds is None or not all(
                _within(value, *bound) for value, bound in zip(got, bounds)
            ):
                problems.append("trial %s %s: got %s, the reference allows %s"
                                % (row["trial"], row["mode"], got, bounds))
                break
        # The harness reports no rows, so its own accuracy is used; it
        # counts an unreached row as class 0 (see propagate.unreached_rows).
        accuracy = statistics.fmean(row["accuracy"] for row in rows) if rows else 0.0
        return {"problems": problems, "accuracy": accuracy, "weight": 1, "unreached": None,
                "fingerprint": {}}


def _within(value, low, high, may_be_none=False):
    """Whether a reported trial metric lies in its reference range."""
    if value is None:
        return may_be_none
    return low - SCORE_TOL <= value <= high + SCORE_TOL


def workloads(scale):
    """The workload table; ``tiny`` shrinks every size for the self-check."""
    tiny = scale == "tiny"
    moons_n = "300" if tiny else "4000"
    blob_rows = "60" if tiny else "1250"
    return {
        "moons_4k_pmlp": LabelWorkload(
            ["generate", "--kind", "two-moons", "--n", moons_n, "--noise", "0.1",
             "--labeled-per-class", "5"],
            ["--bandwidth-h", "0.05", "--kde-support-n", "15", "--neighbor-count", "5"],
            neighbor_count=5,
            density=(15, 0.05),
            datasets=3,
        ),
        "blobs_5k_d32_lpa": LabelWorkload(
            ["generate", "--kind", "gaussian-blobs", "--means", BLOB_MEANS, "--sigma", "1.0",
             "--per-class", blob_rows, "--labeled-per-class", "5"],
            ["--mode", "classical_lpa", "--neighbor-count", "6"],
            neighbor_count=6,
            density=None,
            datasets=1,
        ),
        "compare_n200": CompareWorkload(trials=3 if tiny else 100),
    }


def record_mismatch(recorded, fingerprint):
    """Why ``fingerprint`` disagrees with the seed engine's, or None."""
    for key, want in recorded.items():
        got = fingerprint.get(key)
        if got is None or not np.allclose(got, want, rtol=SCORE_TOL, atol=1e-12):
            return "%s is %r; the seed engine recorded %r" % (key, got, want)
    return None


def child_env():
    env = dict(os.environ)
    env.pop("PMLP_SEED", None)  # it would override the benchmark's seeds
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(THREADS)
    return env


def run_child(spec, env, timeout):
    """Run child.py on ``spec``; returns (result dict or None, error or None)."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        return None, "timed out after %.0f s" % timeout
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        return None, "exit code %d: %s" % (proc.returncode, " | ".join(tail))
    with open(spec["result"], encoding="utf-8") as handle:
        return json.load(handle), None


def environment(seed):
    commit = None
    try:
        lines = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        lines = []
    if len(lines) == 2 and os.path.samefile(lines[0], ROOT):  # not an enclosing repo
        commit = lines[1]
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "pmlp")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": THREADS,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": seed,
    }


class SetupError(RuntimeError):
    pass


def measure(workload, name, args, env, work):
    """Set up, run and check the samples; returns the report dict."""
    deadline = time.perf_counter() + TIME_LIMIT_S
    recorded = {}
    if args.scale == "full":  # fingerprints are of the full-size inputs
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
            recorded = json.load(handle).get(name, {})
    datasets = 1 if args.trace else workload.datasets
    setup_times, keys = [], {}

    def set_up(index):
        commands, files, keys[index] = workload.setup(work, args.seed, index)
        spec = {"step": "setup", "commands": commands, "files": files,
                "result": os.path.join(work, "setup.json")}
        result, error = run_child(spec, env, deadline - time.perf_counter())
        if error or any(result["exit_codes"]):
            raise SetupError(error or "pmlp generate exited with %s" % result["exit_codes"])
        setup_times.append(result["seconds"])

    for index in range(datasets):
        set_up(index)
    refs = [workload.reference(work, index) for index in range(datasets)]

    walls, traced_walls, rss, layers, absent = [], [], [], [], set()
    accuracy, unreached = {}, {}
    attempted = failed = 0
    started = time.perf_counter()
    while attempted < MIN_SAMPLES or time.perf_counter() - started < args.seconds:
        traced = bool(args.trace) and attempted % 2 == 1
        index = attempted % datasets
        out = os.path.join(work, "out")
        shutil.rmtree(out, ignore_errors=True)
        spec = {"step": "run", "argv": workload.argv(work, index, out), "trace": traced,
                "result": os.path.join(work, "run.json")}
        result, error = run_child(spec, env, deadline - time.perf_counter())
        attempted += 1
        problems = [error] if error else []
        if result is not None:
            (traced_walls if traced else walls).append(result["seconds"])
            if not traced:
                rss.append(result["peak_rss_mb"])
            if result["exit_code"] != 0:
                problems.append("pmlp exited with code %d" % result["exit_code"])
            else:
                try:
                    checked = workload.check(refs[index], out)
                except (OSError, KeyError, ValueError) as exc:
                    checked = {"problems": ["unreadable output: %r" % exc]}
                problems += checked["problems"]
                if not checked["problems"]:
                    mismatch = record_mismatch(recorded.get(keys[index], {}), checked["fingerprint"])
                    if mismatch:
                        problems.append(mismatch)
                    accuracy.setdefault(index, (checked["accuracy"], checked["weight"]))
                    unreached.setdefault(index, checked["unreached"])
            if traced:
                layers.append(spans.layer_metrics(result["spans"]))
                absent.update(result["absent"])
        if problems:
            failed += 1
            print("perfbench: sample %d failed: %s" % (attempted, "; ".join(problems)), file=sys.stderr)
        if time.perf_counter() >= deadline:
            break
        if not args.trace:
            for _ in range(SETUPS_PER_SAMPLE):  # rewrites identical inputs
                set_up(len(setup_times) % datasets)

    report = {"attempted": attempted, "failed": failed, "setup_times": setup_times,
              "walls": walls, "traced_walls": traced_walls, "absent": sorted(absent),
              "unreached": [unreached[i] for i in sorted(unreached)], "unsteady": []}
    if args.trace:
        metrics = {}
        for key in layers[0] if layers else ():
            values = [layer[key] for layer in layers]
            if isinstance(values[0], int):
                if len(set(values)) > 1:
                    report["unsteady"].append("%s %s" % (key, values))
                metrics[key] = values[0]
            else:
                metrics[key] = statistics.median(values)
        if walls and traced_walls:
            metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    else:
        total = sum(weight for _, weight in accuracy.values())
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls) if walls else 0.0,
            "peak_rss_mb": statistics.median(rss) if rss else 0.0,
            "accuracy": sum(a * w for a, w in accuracy.values()) / total if total else 0.0,
        }
    report["metrics"] = metrics
    return report


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads("full")))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for selfcheck.py")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None):
    args = parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills the running step, the work
    # directory is removed, and no result is printed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "pmlp", "cli.py")):
        sys.exit("perfbench: %s holds no src/pmlp; run from a full checkout" % ROOT)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=WORK_ROOT)
    try:
        report = measure(workloads(args.scale)[args.workload], args.workload, args, child_env(), work)
    except SetupError as exc:
        sys.exit("perfbench: set-up failed: %s" % exc)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:  # another run still uses it
            pass

    metrics, missing = {}, []
    for entry in wanted:
        value = report["metrics"].get(entry["name"])
        if value is None:
            missing.append(entry["name"])
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    failed = report["failed"]
    print("env %s" % json.dumps(environment(args.seed), sort_keys=True))
    print("%s seed %d trace %d: %d samples (%d untraced, %d traced), %d set-ups, "
          "fail_ratio %d/%d" % (args.workload, args.seed, args.trace, report["attempted"],
                                len(report["walls"]), len(report["traced_walls"]),
                                len(report["setup_times"]), failed, report["attempted"]))
    for name, metric in metrics.items():
        print("  %-32s %14.6g %s" % (name, metric["value"], metric["unit"]))
    if any(report["unreached"]):
        print("  unreached rows per dataset: %s (all-zero scores, as in the seed engine's "
              "reference; counted as wrong in accuracy)" % report["unreached"])
    for name in report["absent"]:
        print("  absent span: %s" % name)
    for name in missing:
        print("  not measured: %s" % name)
    for line in report["unsteady"]:
        print("  count differs between traced samples: %s" % line)
    correct = failed == 0 and not missing and not report["unsteady"]
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
