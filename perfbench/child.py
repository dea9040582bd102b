"""One benchmark step in a fresh interpreter; writes its result as JSON.

    python3 perfbench/child.py '<spec JSON>'

A ``setup`` step imports pmlp, runs the spec's CLI commands and writes the
spec's files. Its time runs from interpreter start to the last write, so a
heavier import shows in it. A ``run`` step imports pmlp and then times one
``pmlp.cli.main`` call; with ``trace`` set it first wraps the layer
boundaries (see spans.py) and returns the spans too. Peak RSS is this
process's own high-water mark, so it belongs to this one step alone.
"""

import json
import resource
import sys
import time

START = time.perf_counter()


def main():
    spec = json.loads(sys.argv[1])
    import pmlp.cli

    result = {}
    if spec["step"] == "setup":
        result["exit_codes"] = [pmlp.cli.main(argv) for argv in spec["commands"]]
        for path, payload in spec["files"].items():
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
        result["seconds"] = time.perf_counter() - START
    else:
        tracer = None
        if spec["trace"]:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        begin = time.perf_counter()
        result["exit_code"] = pmlp.cli.main(spec["argv"])
        result["seconds"] = time.perf_counter() - begin
        if tracer is not None:
            result["spans"] = tracer.spans
            result["absent"] = tracer.absent
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
