"""Record the program's output fingerprints as reference.json.

    python3 perfbench/record.py --first 0 --last 19

Runs every workload's datasets for run seeds first..last once, checks each
output against oracle.py and stores its fingerprint (the per-class score
sums of the label workloads) under its generator seed. The
committed file was recorded from the seed engine; run.py holds every later
program to it for these seeds. Re-record only on purpose, and say so.
"""

import argparse
import json
import os
import shutil
import tempfile

import run


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first", type=int, required=True)
    parser.add_argument("--last", type=int, required=True)
    args = parser.parse_args()
    env = run.child_env()
    table = {}
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    for name, workload in run.workloads("full").items():
        if not isinstance(workload, run.LabelWorkload):  # compare has no fingerprint
            continue
        for seed in range(args.first, args.last + 1):
            work = tempfile.mkdtemp(dir=run.WORK_ROOT)
            try:
                for index in range(workload.datasets):
                    commands, files, key = workload.setup(work, seed, index)
                    spec = {"step": "setup", "commands": commands, "files": files,
                            "result": os.path.join(work, "setup.json")}
                    setup, error = run.run_child(spec, env, run.TIME_LIMIT_S)
                    if error or any(setup["exit_codes"]):
                        raise SystemExit("record: %s seed %d set-up: %s" % (name, seed, error or setup))
                    out = os.path.join(work, "out")
                    spec = {"step": "run", "argv": workload.argv(work, index, out),
                            "trace": False, "result": os.path.join(work, "run.json")}
                    result, error = run.run_child(spec, env, run.TIME_LIMIT_S)
                    if error or result["exit_code"] != 0:
                        raise SystemExit("record: %s seed %d failed: %s" % (name, seed, error or result))
                    checked = workload.check(workload.reference(work, index), out)
                    if checked["problems"]:
                        raise SystemExit("record: %s seed %d: %s" % (name, seed, checked["problems"]))
                    table.setdefault(name, {})[key] = checked["fingerprint"]
                    print("recorded %s %s" % (name, key), flush=True)
            finally:
                shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
