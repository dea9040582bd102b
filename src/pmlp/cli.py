"""Command-line interface: data files, jobs, manifests.

Subcommands
    label                 propagate labels over a feature file
    generate              write a synthetic dataset (and its truth file)
    harness theorem1      low-density crossing sweep over cluster separations
    harness compare       density-aware vs classical propagation trials
    harness density-ratio max/min path-density ratio across bandwidths

File formats
    CSV: header ``f_0,...,f_{d-1},label``; the label cell is an integer
    class index, ``-1`` for unlabeled, or a quoted JSON list of class
    probabilities. JSONL: one object ``{"features": [...], "label": c |
    null | [...]}`` per line. All files are UTF-8; CSV follows RFC 4180.

Every job writes a manifest recording the configuration, input digests,
seed, and tool version; rerunning a job with an equal manifest (timestamp
aside) reproduces its outputs byte for byte. Exit codes: 0 success,
1 usage or configuration error, 2 data error, 3 numerical failure.

Configuration precedence: flags override the JSON config file, which
overrides built-in defaults; the PMLP_SEED environment variable overrides
any seed not set by an explicit ``--seed`` flag.
"""

import argparse
import csv
import dataclasses
import datetime
import hashlib
import json
import math
import os
import sys
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .core import (
    ConfigError,
    DataError,
    FeatureMatrix,
    LabelAssignment,
    NumericalError,
    PmlpConfig,
    default_neighbor_count,
)
from .density import density_ratio
from .propagate import run_pmlp
from .synthlab import (
    assignments_from_dataset,
    compare_pmlp_vs_lpa,
    gen_gaussian_blobs,
    gen_two_moons,
    separation_sweep,
)

__all__ = [
    "COMPARE_DEFAULTS",
    "DENSITY_RATIO_DEFAULTS",
    "HarnessParam",
    "MAX_INGEST_ROWS",
    "THEOREM1_DEFAULTS",
    "emit_features",
    "ingest_features",
    "main",
    "run_harness_job",
    "run_label_job",
]

MAX_INGEST_ROWS = 20000


class HarnessParam(NamedTuple):
    """One harness parameter, which is also one flag of its subcommand."""

    type: Callable  # parses the flag's text
    default: object
    help: str


def _floats(text):
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        values = ()
    if not values:
        raise argparse.ArgumentTypeError("expected comma-separated numbers: %r" % text)
    return values


def _dataset(text):
    name = text.replace("-", "_")
    if name not in ("two_moons", "gaussian_blobs"):
        raise argparse.ArgumentTypeError("expected two-moons or gaussian-blobs")
    return name


# Committed harness defaults; the acceptance suite runs exactly these. Each
# table gives its subcommand's parameters in flag order (``--name-with-
# dashes``) and, under "config", the PmlpConfig values it starts from.
THEOREM1_DEFAULTS = {
    "separations": HarnessParam(
        _floats, (2.0, 4.0, 8.0, 16.0), "cluster separations, comma-separated"
    ),
    "sigma": HarnessParam(float, 1.0, "standard deviation of each cluster"),
    "samples_per_cluster": HarnessParam(int, 200, "rows drawn per cluster"),
    "pairs": HarnessParam(int, 100, "cross-cluster pairs per separation"),
    "tau_quantile": HarnessParam(
        float, 0.1, "within-cluster density quantile that counts as low"
    ),
    "line_points": HarnessParam(int, 50, "points checked along each pair's segment"),
    "config": {"bandwidth_h": 2.0, "kde_support_n": 45, "seed": 7},
}
COMPARE_DEFAULTS = {
    "dataset": HarnessParam(_dataset, "two_moons", "two-moons or gaussian-blobs"),
    "n": HarnessParam(int, 200, "two-moons rows"),
    "noise": HarnessParam(float, 0.1, "two-moons noise"),
    "labeled_per_class": HarnessParam(int, 2, "labelled rows per class in each trial"),
    "trials": HarnessParam(int, 20, "trials, each with fresh labels"),
    "separation": HarnessParam(float, 6.0, "gaussian-blobs distance between means"),
    "sigma": HarnessParam(float, 1.0, "gaussian-blobs standard deviation"),
    "per_class": HarnessParam(int, 100, "gaussian-blobs rows per class"),
    "config": {
        "bandwidth_h": 0.05,
        "kde_support_n": 15,
        "neighbor_count": 5,
        "seed": 7,
    },
}
DENSITY_RATIO_DEFAULTS = {
    "bandwidths": HarnessParam(
        _floats, (5.0, 100.0, 1e12), "kernel bandwidths, comma-separated"
    ),
    "pairs": HarnessParam(int, 200, "random row pairs"),
    "separation": HarnessParam(float, 8.0, "distance between the two blob means"),
    "sigma": HarnessParam(float, 1.0, "standard deviation of each blob"),
    "samples_per_cluster": HarnessParam(int, 150, "rows drawn per blob"),
    "config": {"kde_support_n": 45, "seed": 7},
}
# Harness subcommand -> (its table, its help).
_HARNESSES = {
    "theorem1": (
        THEOREM1_DEFAULTS,
        "fraction of cross-cluster paths crossing a low-density region",
    ),
    "compare": (COMPARE_DEFAULTS, "density-aware vs classical propagation quality"),
    "density-ratio": (
        DENSITY_RATIO_DEFAULTS,
        "max/min path-density ratio across bandwidths",
    ),
}

_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(PmlpConfig))


# ---------------------------------------------------------------------------
# File ingestion and emission


def _infer_format(path, fmt):
    if fmt:
        return fmt
    suffix = os.path.splitext(str(path))[1].lower()
    if suffix == ".csv":
        return "csv"
    if suffix in (".jsonl", ".ndjson"):
        return "jsonl"
    raise DataError("cannot infer format from %r; pass csv or jsonl" % (path,))


def _assignment_from_probs(raw, line_no):
    vec = np.asarray(raw, dtype=float)
    if vec.ndim != 1 or vec.size < 1:
        raise DataError("line %d: probability list must be a flat list" % line_no)
    total = float(vec.sum())
    if abs(total - 1.0) > 1e-6:
        raise DataError(
            "line %d: probabilities sum to %r, not 1 within 1e-6" % (line_no, total)
        )
    if abs(total - 1.0) > 1e-9:
        vec = vec / total
    try:
        return LabelAssignment.prediction(vec)
    except DataError as exc:
        raise DataError("line %d: %s" % (line_no, exc)) from exc


def _parse_csv_label(cell, line_no):
    text = cell.strip()
    try:
        value = int(text)
    except ValueError:
        pass
    else:
        if value == -1:
            return LabelAssignment.unlabeled()
        if value < 0:
            raise DataError("line %d: label %d is not a class or -1" % (line_no, value))
        return LabelAssignment.ground_truth(value)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError("line %d: unparseable label cell %r" % (line_no, cell)) from exc
    if not isinstance(raw, list):
        raise DataError("line %d: label must be an integer or a list" % line_no)
    return _assignment_from_probs(raw, line_no)


def _looks_like_header(record):
    # Real headers carry column names (f_0, ..., label); a row whose feature
    # cells all parse as floats is data, even if its label cell is malformed.
    try:
        for cell in record[:-1]:
            float(cell)
    except ValueError:
        return True
    return False


def _ingest_csv(path):
    features, assignments = [], []
    width = None
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        for line_no, record in enumerate(reader, start=1):
            if not record:
                continue
            if line_no == 1 and _looks_like_header(record):
                width = len(record) - 1
                continue
            if len(record) < 2:
                raise DataError("line %d: need features and a label column" % line_no)
            if width is None:
                width = len(record) - 1
            if len(record) - 1 != width:
                raise DataError(
                    "line %d: %d feature columns, expected %d"
                    % (line_no, len(record) - 1, width)
                )
            try:
                features.append([float(cell) for cell in record[:-1]])
            except ValueError as exc:
                raise DataError("line %d: unparseable feature value" % line_no) from exc
            assignments.append(_parse_csv_label(record[-1], line_no))
    return features, assignments


def _ingest_jsonl(path):
    features, assignments = [], []
    width = None
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError("line %d: invalid JSON" % line_no) from exc
            if not isinstance(obj, dict) or "features" not in obj or "label" not in obj:
                raise DataError(
                    'line %d: expected {"features": [...], "label": ...}' % line_no
                )
            vec = obj["features"]
            if not isinstance(vec, list) or not vec:
                raise DataError("line %d: features must be a nonempty list" % line_no)
            if width is None:
                width = len(vec)
            if len(vec) != width:
                raise DataError(
                    "line %d: %d features, expected %d" % (line_no, len(vec), width)
                )
            try:
                features.append([float(v) for v in vec])
            except (TypeError, ValueError) as exc:
                raise DataError("line %d: unparseable feature value" % line_no) from exc
            label = obj["label"]
            if label is None:
                assignments.append(LabelAssignment.unlabeled())
            elif isinstance(label, bool):
                raise DataError("line %d: label must be int, null, or list" % line_no)
            elif isinstance(label, int):
                if label < 0:
                    raise DataError("line %d: class index must be >= 0" % line_no)
                assignments.append(LabelAssignment.ground_truth(label))
            elif isinstance(label, list):
                assignments.append(_assignment_from_probs(label, line_no))
            else:
                raise DataError("line %d: label must be int, null, or list" % line_no)
    return features, assignments


def ingest_features(path, fmt=None):
    """Load a dataset file into a FeatureMatrix and per-row assignments."""
    fmt = _infer_format(path, fmt)
    if not os.path.exists(path):
        raise DataError("input file does not exist: %s" % (path,))
    if fmt == "csv":
        features, assignments = _ingest_csv(path)
    elif fmt == "jsonl":
        features, assignments = _ingest_jsonl(path)
    else:
        raise DataError("unknown format: %r" % (fmt,))
    if not features:
        raise DataError("input file holds no data rows: %s" % (path,))
    if len(features) > MAX_INGEST_ROWS:
        raise DataError(
            "input has %d rows; the engine caps at %d"
            % (len(features), MAX_INGEST_ROWS)
        )
    return FeatureMatrix(features), assignments


def _label_cell(assignment):
    if assignment.kind == LabelAssignment.GROUND_TRUTH:
        return str(assignment.class_index)
    if assignment.kind == LabelAssignment.PREDICTION:
        return json.dumps([float(v) for v in assignment.probabilities])
    return "-1"


def emit_features(path, features, assignments, fmt=None):
    """Write a dataset file that ``ingest_features`` reads back exactly."""
    fmt = _infer_format(path, fmt)
    assignments = list(assignments)
    if len(assignments) != features.n_rows:
        raise DataError("assignment count does not match the feature rows")
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["f_%d" % i for i in range(features.dim)] + ["label"])
            for row, assignment in zip(features.data, assignments):
                writer.writerow(
                    [repr(float(v)) for v in row] + [_label_cell(assignment)]
                )
    else:
        with open(path, "w", encoding="utf-8") as handle:
            for row, assignment in zip(features.data, assignments):
                if assignment.kind == LabelAssignment.GROUND_TRUTH:
                    label = assignment.class_index
                elif assignment.kind == LabelAssignment.PREDICTION:
                    label = [float(v) for v in assignment.probabilities]
                else:
                    label = None
                handle.write(
                    json.dumps({"features": [float(v) for v in row], "label": label})
                    + "\n"
                )


def _infer_classes(assignments):
    classes = 0
    for a in assignments:
        if a.kind == LabelAssignment.PREDICTION:
            classes = max(classes, int(a.probabilities.size))
        elif a.kind == LabelAssignment.GROUND_TRUTH:
            classes = max(classes, a.class_index + 1)
    return classes


# ---------------------------------------------------------------------------
# Manifests and output helpers


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _sanitize(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_sanitize(payload), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _manifest(command, cfg, inputs=None, options=None):
    return {
        "tool": "pmlp",
        "tool_version": __version__,
        "command": command,
        "seed": cfg.seed,
        "config": dataclasses.asdict(cfg),
        "inputs": inputs or {},
        "options": options or {},
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _float_cell(value):
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return repr(float(value))


# ---------------------------------------------------------------------------
# Jobs


def run_label_job(
    input_path,
    out_dir,
    cfg=None,
    config_values=None,
    fmt=None,
    truth_path=None,
    n_classes=None,
    renormalize=False,
):
    """Propagate labels over a file; write labels CSV, metrics, manifest.

    Pass a complete ``cfg`` to use it as-is; otherwise ``config_values``
    (any subset of PmlpConfig fields) is layered over data-derived
    defaults: neighbor_count = ceil(1.5 * classes) capped at n_rows - 1,
    and kde_support_n = min(45, n_rows).

    The pseudo-label CSV has one row per input row: the argmax class, the
    per-class final scores, and a 0/1 flag telling whether the row's
    renormalized confidence reaches tau. An accuracy metric appears only
    when a truth file supplies classes for the non-ground-truth rows.
    """
    features, assignments = ingest_features(input_path, fmt)
    classes = n_classes if n_classes is not None else _infer_classes(assignments)
    if classes < 2:
        raise DataError("could not infer >= 2 classes; pass n_classes")
    if cfg is None:
        values = {
            "neighbor_count": min(
                default_neighbor_count(classes), features.n_rows - 1
            ),
            "kde_support_n": min(45, features.n_rows),
        }
        values.update(config_values or {})
        cfg = PmlpConfig(**values)

    result = run_pmlp(
        features, assignments, cfg, n_classes=classes, renormalize=renormalize
    )
    final = result.final_labels
    predicted = final.data.argmax(axis=1)
    confident = final.confidences() >= cfg.tau
    gt_rows = np.array(
        [a.kind == LabelAssignment.GROUND_TRUTH for a in assignments], dtype=bool
    )

    os.makedirs(out_dir, exist_ok=True)
    labels_path = os.path.join(out_dir, "pseudo_labels.csv")
    with open(labels_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["row_index", "argmax_class"]
            + ["score_%d" % c for c in range(final.classes)]
            + ["high_confidence"]
        )
        for row in range(final.rows):
            writer.writerow(
                [row, int(predicted[row])]
                + [repr(float(v)) for v in final.data[row]]
                + [int(confident[row])]
            )

    metrics = {
        "n_rows": int(final.rows),
        "n_labeled": int(gt_rows.sum()),
        "high_conf_ratio": float(confident.mean()),
        "solver_iterations": int(result.iterations_used),
        "residual": result.residual,
    }
    if truth_path is not None:
        truth = _read_truth(truth_path, final.rows)
        evaluate = ~gt_rows
        if evaluate.any():
            metrics["accuracy"] = float(np.mean(predicted[evaluate] == truth[evaluate]))
    metrics_path = os.path.join(out_dir, "metrics.json")
    _write_json(metrics_path, metrics)

    inputs = {"data": {"path": str(input_path), "sha256": _sha256(input_path)}}
    if truth_path is not None:
        inputs["truth"] = {"path": str(truth_path), "sha256": _sha256(truth_path)}
    manifest_path = os.path.join(out_dir, "manifest.json")
    _write_json(
        manifest_path,
        _manifest(
            "label",
            cfg,
            inputs=inputs,
            options={
                "format": _infer_format(input_path, fmt),
                "n_classes": int(classes),
                "renormalize": bool(renormalize),
            },
        ),
    )
    return {"labels": labels_path, "metrics": metrics_path, "manifest": manifest_path}


def _read_truth(path, n_rows):
    truth = np.full(n_rows, -1, dtype=int)
    seen = np.zeros(n_rows, dtype=bool)
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        for line_no, record in enumerate(reader, start=1):
            if not record:
                continue
            if line_no == 1 and not record[0].strip().lstrip("-").isdigit():
                continue  # header
            if len(record) != 2:
                raise DataError(
                    "truth line %d: expected row_index,true_class" % line_no
                )
            try:
                row, cls = int(record[0]), int(record[1])
            except ValueError as exc:
                raise DataError("truth line %d: unparseable integers" % line_no) from exc
            if not 0 <= row < n_rows:
                raise DataError("truth line %d: row %d out of range" % (line_no, row))
            truth[row] = cls
            seen[row] = True
    if not seen.all():
        raise DataError("truth file misses %d rows" % int((~seen).sum()))
    return truth


def _build_compare_dataset(params, seed):
    if params["dataset"] == "two_moons":
        return gen_two_moons(
            n=params["n"],
            noise=params["noise"],
            labeled_per_class=params["labeled_per_class"],
            seed=seed,
        )
    return gen_gaussian_blobs(
        means=[[0.0, 0.0], [params["separation"], 0.0]],
        sigma=params["sigma"],
        per_class=params["per_class"],
        labeled_per_class=params["labeled_per_class"],
        seed=seed,
    )


def run_harness_job(kind, out_dir, cfg, params):
    """Run one statistical harness; write report JSON, plot CSV, manifest."""
    os.makedirs(out_dir, exist_ok=True)
    if kind == "theorem1":
        reports = separation_sweep(
            separations=params["separations"],
            sigma=params["sigma"],
            samples_per_cluster=params["samples_per_cluster"],
            pairs=params["pairs"],
            tau_quantile=params["tau_quantile"],
            cfg=cfg,
            line_points=params["line_points"],
        )
        rows = [dataclasses.asdict(r) for r in reports]
        csv_path = os.path.join(out_dir, "separation_sweep.csv")
        header = [
            "separation",
            "tau_density",
            "fraction_paths_low_density",
            "fraction_length_low_density",
        ]
    elif kind == "compare":
        dataset = _build_compare_dataset(params, cfg.seed)
        records = compare_pmlp_vs_lpa(dataset, cfg, params["trials"])
        rows = [dataclasses.asdict(r) for r in records]
        csv_path = os.path.join(out_dir, "mode_comparison.csv")
        header = [
            "trial",
            "seed",
            "mode",
            "accuracy",
            "high_conf_ratio",
            "correct_high_ratio",
        ]
    elif kind == "density_ratio":
        dataset = gen_gaussian_blobs(
            means=[[0.0, 0.0], [params["separation"], 0.0]],
            sigma=params["sigma"],
            per_class=params["samples_per_cluster"],
            labeled_per_class=1,
            seed=cfg.seed,
        )
        rng = np.random.default_rng(cfg.seed + 1)
        n = dataset.features.n_rows
        left = rng.integers(0, n, params["pairs"])
        offset = 1 + rng.integers(0, n - 1, params["pairs"])
        pairs = np.column_stack([left, (left + offset) % n])
        rows = []
        for h in params["bandwidths"]:
            ratio = density_ratio(
                dataset.features, pairs, replace(cfg, bandwidth_h=h)
            )
            rows.append({"bandwidth_h": float(h), "density_ratio": ratio})
        csv_path = os.path.join(out_dir, "density_ratio_sweep.csv")
        header = ["bandwidth_h", "density_ratio"]
    else:
        raise DataError("unknown harness kind: %r" % (kind,))

    with open(csv_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [
                    _float_cell(row[name]) if isinstance(row[name], float) else row[name]
                    for name in header
                ]
            )
    report_path = os.path.join(out_dir, "report.json")
    _write_json(report_path, {"kind": kind, "params": params, "rows": rows})
    manifest_path = os.path.join(out_dir, "manifest.json")
    _write_json(
        manifest_path,
        _manifest("harness %s" % kind, cfg, options={"params": params}),
    )
    return {"report": report_path, "plot_data": csv_path, "manifest": manifest_path}


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1 (argparse defaults to 2).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _parse_means(text):
    try:
        means = [
            [float(v) for v in group.split(",")]
            for group in text.split(";")
            if group.strip()
        ]
    except ValueError as exc:
        raise DataError("unparseable --means %r" % (text,)) from exc
    if not means:
        raise DataError("--means is empty")
    return means


def _add_config_flags(parser):
    group = parser.add_argument_group("propagation configuration")
    group.add_argument("--config", metavar="FILE", help="JSON config file")
    group.add_argument("--alpha", type=float, default=None)
    group.add_argument("--eta", type=float, default=None)
    group.add_argument("--tau", type=float, default=None)
    group.add_argument("--bandwidth-h", type=float, default=None, dest="bandwidth_h")
    group.add_argument("--path-points-k", type=int, default=None, dest="path_points_k")
    group.add_argument("--kde-support-n", type=int, default=None, dest="kde_support_n")
    group.add_argument(
        "--neighbor-count", type=int, default=None, dest="neighbor_count"
    )
    group.add_argument(
        "--aggregator", choices=["min", "max", "avg", "quantile"], default=None
    )
    group.add_argument("--quantile-t", type=float, default=None, dest="quantile_t")
    group.add_argument(
        "--distance-mode",
        choices=["euclidean_inverse", "cosine_similarity", "first_order_similarity"],
        default=None,
        dest="distance_mode",
    )
    group.add_argument("--solver", choices=["closed_form", "iterative"], default=None)
    group.add_argument(
        "--solver-max-iters", type=int, default=None, dest="solver_max_iters"
    )
    group.add_argument("--solver-tol", type=float, default=None, dest="solver_tol")
    group.add_argument("--mode", choices=["pmlp", "classical_lpa"], default=None)
    group.add_argument(
        "--clamp-ground-truth",
        action=argparse.BooleanOptionalAction,
        default=None,
        dest="clamp_ground_truth",
    )
    group.add_argument("--seed", type=int, default=None)


def _env_seed():
    raw = os.environ["PMLP_SEED"]
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError("seed", "PMLP_SEED=%r is not an integer" % raw) from exc


def _collect_config_values(args):
    """Explicitly-set config fields: file < env seed < flags."""
    values = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as handle:
                loaded = json.load(handle)
        except OSError as exc:
            raise DataError("cannot read config file: %s" % exc) from exc
        except json.JSONDecodeError as exc:
            raise DataError("config file is not valid JSON: %s" % exc) from exc
        if not isinstance(loaded, dict):
            raise DataError("config file must hold a JSON object")
        unknown = set(loaded) - set(_CONFIG_FIELDS)
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown configuration field")
        values.update(loaded)
    if "PMLP_SEED" in os.environ:
        values["seed"] = _env_seed()
    for name in _CONFIG_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    return values


def _cmd_label(args):
    paths = run_label_job(
        args.input,
        args.out_dir,
        config_values=_collect_config_values(args),
        fmt=args.format,
        truth_path=args.truth,
        n_classes=args.n_classes,
        renormalize=args.renormalize,
    )
    for name, path in sorted(paths.items()):
        print("%s: %s" % (name, path))
    return 0


def _cmd_harness(args):
    params = {name: getattr(args, name) for name in args.table if name != "config"}
    values = dict(args.table["config"])
    values.update(_collect_config_values(args))
    cfg = PmlpConfig(**values)
    kind = args.harness_kind.replace("-", "_")
    paths = run_harness_job(kind, args.out_dir, cfg, params)
    for name, path in sorted(paths.items()):
        print("%s: %s" % (name, path))
    return 0


def _cmd_generate(args):
    seed = args.seed
    if seed is None:
        seed = _env_seed() if "PMLP_SEED" in os.environ else 0
    if args.kind == "two-moons":
        dataset = gen_two_moons(
            n=args.n,
            noise=args.noise,
            labeled_per_class=args.labeled_per_class,
            seed=seed,
        )
    else:
        dataset = gen_gaussian_blobs(
            means=_parse_means(args.means),
            sigma=args.sigma,
            per_class=args.per_class,
            labeled_per_class=args.labeled_per_class,
            seed=seed,
        )
    emit_features(
        args.out, dataset.features, assignments_from_dataset(dataset), args.format
    )
    written = {"data": args.out}
    if args.truth_out:
        with open(args.truth_out, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["row_index", "true_class"])
            for row, cls in enumerate(dataset.true_class):
                writer.writerow([row, int(cls)])
        written["truth"] = args.truth_out
    manifest_path = str(args.out) + ".manifest.json"
    _write_json(
        manifest_path,
        {
            "tool": "pmlp",
            "tool_version": __version__,
            "command": "generate",
            "seed": int(seed),
            "generator_spec": dataset.generator_spec,
            "outputs": dict(written),
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
    )
    written["manifest"] = manifest_path
    for name, path in sorted(written.items()):
        print("%s: %s" % (name, path))
    return 0


def build_parser():
    parser = _Parser(prog="pmlp", description="Density-aware label propagation jobs")
    parser.add_argument("--version", action="version", version="pmlp " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    label = sub.add_parser("label", help="propagate labels over a feature file")
    label.add_argument("--input", required=True, help="CSV or JSONL dataset")
    label.add_argument("--format", choices=["csv", "jsonl"], default=None)
    label.add_argument("--truth", default=None, help="row_index,true_class CSV")
    label.add_argument("--out-dir", required=True, dest="out_dir")
    label.add_argument("--n-classes", type=int, default=None, dest="n_classes")
    label.add_argument("--renormalize", action="store_true")
    _add_config_flags(label)
    label.set_defaults(func=_cmd_label)

    generate = sub.add_parser("generate", help="write a synthetic dataset")
    generate.add_argument(
        "--kind", choices=["gaussian-blobs", "two-moons"], required=True
    )
    generate.add_argument("--means", default="0,0;10,0", help="semicolon-separated")
    generate.add_argument("--sigma", type=float, default=1.0)
    generate.add_argument("--per-class", type=int, default=100, dest="per_class")
    generate.add_argument("--n", type=int, default=200)
    generate.add_argument("--noise", type=float, default=0.1)
    generate.add_argument(
        "--labeled-per-class", type=int, default=2, dest="labeled_per_class"
    )
    generate.add_argument("--seed", type=int, default=None)
    generate.add_argument("--out", required=True)
    generate.add_argument("--format", choices=["csv", "jsonl"], default=None)
    generate.add_argument("--truth-out", default=None, dest="truth_out")
    generate.set_defaults(func=_cmd_generate)

    harness = sub.add_parser("harness", help="statistical verification jobs")
    hsub = harness.add_subparsers(dest="harness_kind", required=True)

    for command, (table, text) in _HARNESSES.items():
        job = hsub.add_parser(command, help=text)
        job.add_argument("--out-dir", required=True, dest="out_dir")
        for name, param in table.items():
            if name != "config":
                job.add_argument(
                    "--" + name.replace("_", "-"),
                    type=param.type,
                    default=param.default,
                    help=param.help + " (default: %(default)s)",
                )
        _add_config_flags(job)
        job.set_defaults(func=_cmd_harness, table=table)

    return parser


def _write_error_file(args, code, message):
    out_dir = getattr(args, "out_dir", None)
    if not out_dir:
        return
    name = "metrics.json" if getattr(args, "command", "") == "label" else "report.json"
    try:
        os.makedirs(out_dir, exist_ok=True)
        _write_json(
            os.path.join(out_dir, name),
            {"error": {"code": code, "message": message}},
        )
    except OSError:
        pass


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print("pmlp: configuration error: %s" % exc, file=sys.stderr)
        _write_error_file(args, "config", str(exc))
        return 1
    except DataError as exc:
        print("pmlp: data error: %s" % exc, file=sys.stderr)
        _write_error_file(args, "data", str(exc))
        return 2
    except NumericalError as exc:
        print("pmlp: numerical failure: %s" % exc, file=sys.stderr)
        _write_error_file(args, "numerical", str(exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
