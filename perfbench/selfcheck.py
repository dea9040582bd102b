"""Quick self-check of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selfcheck.py

For every workload: one untraced and two traced runs of run.py at
``--scale tiny``. Each result must follow the output contract of
BENCHMARK.json (keys, metric names, units, a correct run), and every count
metric must repeat exactly across the two traced runs; on
blobs_5k_d32_lpa, which bypasses the density layer, density.queries must
be 0. Last, run.py must fail without printing a result in a directory that
holds only BENCHMARK.json and perfbench/. Exits 1 on the first problem.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_UNITS = ("count", "bytes")


def run(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result_of(proc, expected):
    if proc.returncode != 0:
        sys.exit("selfcheck: run.py exited %d: %s" % (proc.returncode, proc.stderr[-800:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("selfcheck: result keys are %s" % sorted(result))
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        sys.exit("selfcheck: run not correct: %s\n%s" % (result, proc.stderr[-800:]))
    units = {entry["name"]: entry["unit"] for entry in expected}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != units:
        sys.exit("selfcheck: metrics %s, expected %s" % (got, units))
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(metric["value"], (int, float)):
            sys.exit("selfcheck: metric %s is %r" % (name, metric))
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for workload in (entry["name"] for entry in spec["workloads"]):
        result_of(run(workload, 0), spec["end_to_end"])
        first, second = (result_of(run(workload, 1), spec["per_layer"]) for _ in range(2))
        for entry in spec["per_layer"]:
            if entry["unit"] in COUNT_UNITS:
                a = first["metrics"][entry["name"]]["value"]
                b = second["metrics"][entry["name"]]["value"]
                if a != b:
                    sys.exit("selfcheck: %s %s is %r then %r" % (workload, entry["name"], a, b))
        if workload == "blobs_5k_d32_lpa" and first["metrics"]["density.queries"]["value"] != 0:
            sys.exit("selfcheck: blobs_5k_d32_lpa reached the density layer")
        print("ok %s" % workload)

    work_root = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(work_root, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=work_root)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(spec["workloads"][0]["name"], 0, root=bare)
    finally:
        shutil.rmtree(bare)
        if not os.listdir(work_root):
            os.rmdir(work_root)
    if proc.returncode == 0 or proc.stdout.strip():
        sys.exit("selfcheck: run.py did not fail cleanly without the program")
    print("ok bare directory fails without a result")


if __name__ == "__main__":
    main()
