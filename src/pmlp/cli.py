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
    Both formats hold a label as the same JSON value (null, a class index
    or a probability list), read by one decoder into the arrays that
    ``run_pmlp`` takes: a ground-truth vector of each row's class, -1 on an
    unlabeled or predicted row, and a matrix of prediction rows, zero on
    the other rows. Only the CSV cell ``-1`` means unlabeled; a JSON -1 is
    an error. A probability list must sum to 1 within 1e-6, and is
    rescaled to 1; every list of a file must have one length.
    Every reader, the truth file's too, skips an empty line and a line
    that holds only whitespace. A CSV line of a space, a comma and a space
    holds two cells, so it is read as a record, and fails as one.
    A file that cannot be opened, decoded or parsed is a data error that
    names the file and, where there is one, the line; so is an output path
    that cannot be written, and the error names the path. Output
    directories are made before any input is read.

Flags
    The propagation flags are the PmlpConfig fields in kebab case, typed
    by the field, with the choices of ``pmlp.core.CONFIG_CHOICES``.
    ``generate`` and each harness subcommand take their own flags from one
    table each (``GENERATE_DEFAULTS``, ``THEOREM1_DEFAULTS``,
    ``COMPARE_DEFAULTS``, ``DENSITY_RATIO_DEFAULTS``). The dataset kinds
    of ``generate --kind`` and ``harness compare --dataset`` are the keys
    of ``synthlab``'s generator table, with dashes for underscores, and
    each generator reads the flags its signature names. The dataset flags
    the two commands share are declared once, in ``GENERATE_DEFAULTS``.

Every job writes a manifest recording the configuration, input digests,
seed, and tool version; rerunning a job with an equal manifest (timestamp
aside) reproduces its outputs byte for byte. Exit codes: 0 success,
1 usage or configuration error, 2 data error, 3 numerical failure.

Configuration precedence: flags override the JSON config file, which
overrides built-in defaults; the PMLP_SEED environment variable overrides
any seed not set by an explicit ``--seed`` flag.
"""

import argparse
import contextlib
import csv
import dataclasses
import datetime
import errno
import hashlib
import inspect
import json
import math
import os
import re
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .core import (
    CONFIG_CHOICES,
    ConfigError,
    DataError,
    NumericalError,
    PmlpConfig,
    default_neighbor_count,
)
from .core import _check_elements, _features
from .propagate import confidences, renormalized, run_pmlp
from .synthlab import (
    _GENERATORS,
    compare_pmlp_vs_lpa,
    density_ratio_sweep,
    separation_sweep,
)

__all__ = [
    "COMPARE_DEFAULTS",
    "DENSITY_RATIO_DEFAULTS",
    "GENERATE_DEFAULTS",
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
    """One job parameter, which is also one flag of its subcommand."""

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


def _means(text):
    means = tuple(_floats(group) for group in text.split(";") if group.strip())
    if len({len(mean) for mean in means}) != 1:
        raise argparse.ArgumentTypeError(
            "expected semicolon-separated means of one dimension: %r" % text
        )
    return means


def _kinds():
    return " or ".join(kind.replace("_", "-") for kind in _GENERATORS)


def _dataset(text):
    kind = text.replace("-", "_")
    if kind not in _GENERATORS:
        raise argparse.ArgumentTypeError("expected " + _kinds())
    return kind


# The parameters of ``generate`` in flag order (``--name-with-dashes``); its
# ``--kind`` picks the generator, which reads those its signature names.
# All but "means" are ``harness compare``'s too.
GENERATE_DEFAULTS = {
    "means": HarnessParam(
        _means, ((0.0, 0.0), (10.0, 0.0)), "gaussian-blobs means, as 'x,y;x,y;...'"
    ),
    "sigma": HarnessParam(float, 1.0, "gaussian-blobs standard deviation"),
    "per_class": HarnessParam(int, 100, "gaussian-blobs rows per class"),
    "n": HarnessParam(int, 200, "two-moons rows"),
    "noise": HarnessParam(float, 0.1, "two-moons noise"),
    "labeled_per_class": HarnessParam(int, 2, "labelled rows per class"),
}
# Committed harness defaults; the acceptance suite runs exactly these. Each
# table gives its subcommand's parameters in flag order and, under "config",
# the PmlpConfig values it starts from.
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
    "dataset": HarnessParam(_dataset, "two_moons", _kinds()),
    **{name: param for name, param in GENERATE_DEFAULTS.items() if name != "means"},
    "trials": HarnessParam(int, 20, "trials, each with fresh labels"),
    "separation": HarnessParam(float, 6.0, "gaussian-blobs distance between means"),
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
# Harness kind (its subcommand in kebab case) -> (table, help, plot CSV).
_HARNESSES = {
    "theorem1": (
        THEOREM1_DEFAULTS,
        "fraction of cross-cluster paths crossing a low-density region",
        "separation_sweep.csv",
    ),
    "compare": (
        COMPARE_DEFAULTS,
        "density-aware vs classical propagation quality",
        "mode_comparison.csv",
    ),
    "density_ratio": (
        DENSITY_RATIO_DEFAULTS,
        "max/min path-density ratio across bandwidths",
        "density_ratio_sweep.csv",
    ),
}

_CONFIG_FIELDS = {field.name: field for field in dataclasses.fields(PmlpConfig)}


# ---------------------------------------------------------------------------
# File ingestion and emission


@contextlib.contextmanager
def _reading(path):
    """Open a UTF-8 file. Failing to open or decode it, and a DataError raised
    while it is open, become a DataError that names the file."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise DataError("cannot read %s: %s" % (path, exc.strerror)) from exc
    except ValueError as exc:  # a DataError, or bytes that are not UTF-8
        raise DataError("%s: %s" % (path, exc)) from exc


def _is_number(value):
    # A JSON number; a bool is not one here, though Python treats it as one.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _decode_label(value):
    """The label a JSON value stands for: null is -1 (unlabelled), an
    integer a ground-truth class, which must be nonnegative, and a list of
    finite numbers a probability vector, which must sum to 1 within 1e-6
    and is rescaled to 1."""
    if value is None:
        return -1
    if isinstance(value, int) and not isinstance(value, bool):
        if value < 0:
            raise DataError("ground-truth class index must be nonnegative")
        # Refused here, as past 2^63 a class does not fit the int64 vector.
        _check_elements("n_classes", value + 1, "%d classes" % (value + 1))
        return value
    if not isinstance(value, list) or not all(map(_is_number, value)):
        raise DataError(
            "label %r is not a class index, unlabeled or a probability list" % (value,)
        )
    probabilities = np.array(value, dtype=float)
    if not np.all(np.isfinite(probabilities)):
        raise DataError("prediction contains non-finite entries")
    total = float(probabilities.sum())
    if abs(total - 1.0) > 1e-6:
        raise DataError("probabilities sum to %r, not 1 within 1e-6" % total)
    if abs(total - 1.0) > 1e-9:
        probabilities = probabilities / total
    return probabilities


def _looks_like_header(record):
    # Real headers carry column names (f_0, ..., label, or row_index,
    # true_class); a row whose cells before the last all parse as floats is
    # data, even if a cell is malformed: a data file's label, or a truth
    # file's row index such as 1.5 or nan, which then fails as data.
    try:
        for cell in record[:-1]:
            float(cell)
    except ValueError:
        return True
    return False


# The label of a CSV header row: the row sets the width, then is skipped.
_HEADER = object()


def _csv_label(cell):
    # An integer cell is a class, -1 meaning none; any other cell must be a
    # JSON list, and is handed on as its text if not, for the decoder to name.
    try:
        value = int(cell)
    except ValueError:
        try:
            value = json.loads(cell)
        except json.JSONDecodeError:
            return cell
        return value if isinstance(value, list) else cell
    return None if value == -1 else value


def _is_blank(record):
    # An empty or whitespace-only line: no cell, or one that strips to "".
    return not record or (len(record) == 1 and not record[0].strip())


def _csv_records(handle):
    for line_no, record in enumerate(csv.reader(handle), start=1):
        if not _is_blank(record):
            header = line_no == 1 and _looks_like_header(record)
            yield line_no, record[:-1], _HEADER if header else _csv_label(record[-1])


def _jsonl_records(handle):
    for line_no, line in enumerate(handle, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError("line %d: invalid JSON" % line_no) from exc
        cells = record.get("features") if isinstance(record, dict) else None
        if (
            not isinstance(cells, list)
            or not all(map(_is_number, cells))
            or "label" not in record
        ):
            raise DataError(
                'line %d: expected {"features": [numbers], "label": ...}' % line_no
            )
        yield line_no, cells, record["label"]


# Format -> its reader, which yields (line number, feature cells, label value).
_READERS = {"csv": _csv_records, "jsonl": _jsonl_records}
_SUFFIXES = {".csv": "csv", ".jsonl": "jsonl", ".ndjson": "jsonl"}


def _infer_format(path, fmt):
    fmt = fmt or _SUFFIXES.get(os.path.splitext(str(path))[1].lower())
    if fmt not in _READERS:
        raise DataError("cannot tell the format of %r; pass csv or jsonl" % (path,))
    return fmt


def ingest_features(path, fmt=None):
    """Load a dataset file: ``(features, ground_truth, predictions)``.

    ``features`` is a read-only (N, d) float64 array, checked as every
    public entry checks features (``core._features``), ``ground_truth`` an
    (N,) integer vector of each labelled row's class and -1 on every other
    row, and ``predictions`` the (N, C) probability rows, all zero on a row
    without one, or None if no row has one; prediction rows of different
    lengths are an error that names the line. Reading stops at the first
    data row past ``MAX_INGEST_ROWS``, which is an error, so a larger file
    is never parsed whole."""
    records = _READERS[_infer_format(path, fmt)]
    features, classes, predicted, width = [], [], [], None
    with _reading(path) as handle:
        for line_no, cells, label in records(handle):
            try:
                if not cells:
                    raise DataError("need features and a label")
                width = len(cells) if width is None else width
                if len(cells) != width:
                    raise DataError("%d features, expected %d" % (len(cells), width))
                if label is not _HEADER:
                    features.append([float(cell) for cell in cells])
                    label = _decode_label(label)
                    if isinstance(label, np.ndarray):
                        predicted.append((len(classes), label))
                        expected = predicted[0][1].size
                        if label.size != expected:
                            raise DataError(
                                "%d probabilities, expected %d" % (label.size, expected)
                            )
                        label = -1
                    classes.append(label)
            # A DataError, or a number float() refuses or cannot hold.
            except (ValueError, OverflowError) as exc:
                raise DataError("line %d: %s" % (line_no, exc)) from exc
            if len(features) > MAX_INGEST_ROWS:
                raise DataError(
                    "input has over %d rows; the engine caps at %d"
                    % (MAX_INGEST_ROWS, MAX_INGEST_ROWS)
                )
    if not features:
        raise DataError("input file holds no data rows: %s" % (path,))
    predictions = None
    if predicted:
        rows, vectors = zip(*predicted)
        shape = (len(features), vectors[0].size)
        _check_elements("n_classes", shape[0] * shape[1], "%d rows x %d classes" % shape)
        predictions = np.zeros(shape)
        predictions[list(rows)] = vectors
    return _features(features), np.array(classes), predictions


def emit_features(path, features, ground_truth, predictions=None, fmt=None):
    """Write a dataset file that ``ingest_features`` reads back exactly.

    A row's label is its class where ``ground_truth`` holds one, else its
    row of ``predictions`` where that is not all zero, else unlabelled; a
    row with both is a DataError, as a label holds one of them. ``features``
    is any 2-d array of finite numbers (``core._features``)."""
    fmt = _infer_format(path, fmt)
    features = _features(features)
    labels = [None if c < 0 else c for c in np.asarray(ground_truth).tolist()]
    if len(labels) != features.shape[0]:
        raise DataError("ground_truth length does not match the feature rows")
    if predictions is not None:
        for row in np.flatnonzero(np.any(predictions, axis=1)):
            if labels[row] is not None:
                raise DataError("row %d: a ground-truth row has a prediction" % row)
            labels[row] = predictions[row].tolist()
    if fmt == "csv":
        _write_csv(
            path,
            ["f_%d" % i for i in range(features.shape[1])] + ["label"],
            [
                features,
                ["-1" if label is None else json.dumps(label) for label in labels],
            ],
        )
    else:
        with open(path, "w", encoding="utf-8") as handle:
            for row, label in zip(features.tolist(), labels):
                handle.write(json.dumps({"features": row, "label": label}) + "\n")
    return path


def _read_truth(path, n_rows):
    """The true class of every row, from a ``row_index,true_class`` CSV;
    each class is nonnegative, and a row listed twice repeats its class.
    Line 1 is a header by the feature files' rule (``_looks_like_header``)."""
    truth = np.full(n_rows, -1, dtype=int)
    with _reading(path) as handle:
        for line_no, record in enumerate(csv.reader(handle), start=1):
            if _is_blank(record):
                continue
            if line_no == 1 and _looks_like_header(record):
                continue  # header
            try:
                if len(record) != 2:
                    raise DataError("expected row_index,true_class")
                row, cls = int(record[0]), int(record[1])
                if not 0 <= row < n_rows:
                    raise DataError("row %d out of range" % row)
                if cls < 0:
                    raise DataError("row %d: true class %d is negative" % (row, cls))
                if truth[row] not in (-1, cls):
                    raise DataError(
                        "row %d: true class %d, but %d earlier" % (row, cls, truth[row])
                    )
            except ValueError as exc:  # a DataError, or a cell int() refuses
                raise DataError("line %d: %s" % (line_no, exc)) from exc
            truth[row] = cls
        if np.any(truth < 0):
            raise DataError("%d rows have no true class" % int(np.sum(truth < 0)))
    return truth


# ---------------------------------------------------------------------------
# Output files


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
    return path


# Rows that _write_csv formats at a time, so its memory is bounded at any N.
_BLOCK_ROWS = 4096
# The characters that make csv.writer's QUOTE_MINIMAL quote a cell.
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _cell(value):
    if isinstance(value, float):
        return repr(float(value))
    text = "" if value is None else str(value)
    if _NEEDS_QUOTES.search(text):
        return '"%s"' % text.replace('"', '""')
    return text


def _lines(fragments, width):
    # The CRLF-ended lines of rows of ``width`` cells, given as
    # fragments[column][row]; a float array's fragment holds a row's cells.
    lines = map(",".join, zip(*fragments))
    if width == 1:  # csv.writer writes a row of one empty cell as ""
        lines = [line or '""' for line in lines]
    return "\r\n".join(lines) + "\r\n"


def _write_csv(path, header, columns):
    """Write a CSV file of a header and columns of equal length.

    A column is a sequence of cells, or a 2-d float array that stands for
    as many adjacent columns as it has. The rows are written in blocks of
    _BLOCK_ROWS. A float cell is written as its repr (exact, and "nan" for
    NaN), None as an empty cell and any other cell as its str. Quoting is
    csv.writer's QUOTE_MINIMAL: a cell holding a comma, a double quote, CR
    or LF is put in double quotes, with each inner double quote doubled,
    and a row of one empty cell is written as ``""``. Every line ends in
    CRLF, as RFC 4180 asks.
    """
    n_rows = len(columns[0])
    if any(len(column) != n_rows for column in columns):
        raise ValueError("CSV columns differ in length")
    arrays = [isinstance(column, np.ndarray) and column.ndim == 2 for column in columns]
    width = sum(c.shape[1] if array else 1 for c, array in zip(columns, arrays))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(_lines([[_cell(name)] for name in header], len(header)))
        for start in range(0, n_rows, _BLOCK_ROWS):
            fragments = []
            for column, array in zip(columns, arrays):
                cells = column[start : start + _BLOCK_ROWS]
                if isinstance(cells, np.ndarray):
                    cells = cells.tolist()  # Python floats, whose repr is exact
                if array:
                    fragments.append([",".join(map(repr, row)) for row in cells])
                else:
                    fragments.append(list(map(_cell, cells)))
            handle.write(_lines(fragments, width))
    return path


def _write_manifest(path, command, seed, **fields):
    """Write a job's manifest: the tool, the command, its seed and ``fields``."""
    return _write_json(
        path,
        dict(
            fields,
            tool="pmlp",
            tool_version=__version__,
            command=command,
            seed=seed,
            timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        ),
    )


# ---------------------------------------------------------------------------
# Jobs


def run_label_job(
    input_path,
    out_dir,
    config_values=None,
    fmt=None,
    truth_path=None,
    n_classes=None,
    renormalize=False,
):
    """Propagate labels over a file; write labels CSV, metrics, manifest.

    ``config_values`` (any subset of PmlpConfig fields) is layered over
    data-derived defaults: neighbor_count = ceil(1.5 * classes) capped at
    n_rows - 1, and kde_support_n = PmlpConfig's default (45) capped at
    n_rows. An input of one row is a DataError, as it leaves no row a
    neighbour, and so is a class count under 2, given (the message names
    ``n_classes``) or inferred. The output directory is made first, and
    the truth file is read and checked before propagation starts.

    The pseudo-label CSV has one row per input row: the argmax class (-1
    where no label reached the row: all its scores are zero), the
    per-class final scores, and a 0/1 flag telling whether the row's
    renormalized confidence reaches tau. An accuracy metric, counting -1
    as wrong, appears when a truth file supplies the other rows' classes.
    """
    os.makedirs(out_dir, exist_ok=True)
    features, ground_truth, predictions = ingest_features(input_path, fmt)
    n_rows = features.shape[0]
    if n_rows < 2:
        raise DataError("%d data row: labelling needs at least 2" % n_rows)
    truth = None if truth_path is None else _read_truth(truth_path, n_rows)
    if n_classes is not None and n_classes < 2:
        raise DataError("n_classes = %d: labelling needs at least 2" % n_classes)
    classes = n_classes
    if classes is None:  # as run_pmlp infers it
        width = 0 if predictions is None else predictions.shape[1]
        classes = max(int(ground_truth.max()) + 1, width)
    if classes < 2:
        raise DataError("could not infer >= 2 classes; pass n_classes")
    values = {
        "neighbor_count": min(default_neighbor_count(classes), n_rows - 1),
        "kde_support_n": min(_CONFIG_FIELDS["kde_support_n"].default, n_rows),
    }
    values.update(config_values or {})
    cfg = PmlpConfig(**values)

    result = run_pmlp(features, ground_truth, cfg, predictions, n_classes=classes)
    final = result.final_labels
    if renormalize:
        final = renormalized(final)
    predicted = final.argmax(axis=1)
    predicted[~final.any(axis=1)] = -1
    confident = confidences(final) >= cfg.tau
    evaluate = ground_truth < 0
    metrics = {
        "n_rows": n_rows,
        "n_labeled": int((~evaluate).sum()),
        "high_conf_ratio": float(confident.mean()),
        "solver_iterations": int(result.iterations_used),
        "residual": result.residual,
    }
    if truth is not None and evaluate.any():
        metrics["accuracy"] = float(np.mean(predicted[evaluate] == truth[evaluate]))

    inputs = {"data": input_path, "truth": truth_path}
    return {
        "labels": _write_csv(
            os.path.join(out_dir, "pseudo_labels.csv"),
            ["row_index", "argmax_class"]
            + ["score_%d" % c for c in range(final.shape[1])]
            + ["high_confidence"],
            [range(n_rows), predicted, final, confident.astype(int)],
        ),
        "metrics": _write_json(os.path.join(out_dir, "metrics.json"), metrics),
        "manifest": _write_manifest(
            os.path.join(out_dir, "manifest.json"),
            "label",
            cfg.seed,
            config=dataclasses.asdict(cfg),
            inputs={
                name: {"path": str(path), "sha256": _sha256(path)}
                for name, path in inputs.items()
                if path is not None
            },
            options={
                "format": _infer_format(input_path, fmt),
                "n_classes": int(classes),
                "renormalize": bool(renormalize),
            },
        ),
    }


def _build_dataset(kind, params, seed):
    """The dataset of ``generate`` and ``harness compare``: synthlab's
    generator of ``kind``, given ``seed`` and the entries of ``params``
    that its signature names; it ignores the others."""
    generator = _GENERATORS[kind]
    names = inspect.signature(generator).parameters
    return generator(seed=seed, **{k: v for k, v in params.items() if k in names})


def run_harness_job(kind, out_dir, cfg, params):
    """Run one statistical harness; write report JSON, plot CSV, manifest."""
    if kind not in _HARNESSES:
        raise DataError("unknown harness kind: %r" % (kind,))
    os.makedirs(out_dir, exist_ok=True)
    if kind == "theorem1":
        reports = separation_sweep(cfg=cfg, **params)
    elif kind == "compare":
        means = [[0.0, 0.0], [params["separation"], 0.0]]
        dataset = _build_dataset(params["dataset"], dict(params, means=means), cfg.seed)
        reports = compare_pmlp_vs_lpa(dataset, cfg, params["trials"])
    else:
        reports = density_ratio_sweep(cfg=cfg, **params)
    rows = [dataclasses.asdict(r) for r in reports]

    # Every harness yields at least one row; its keys, in field order, head
    # the columns.
    return {
        "plot_data": _write_csv(
            os.path.join(out_dir, _HARNESSES[kind][2]),
            list(rows[0]),
            [[row[key] for row in rows] for key in rows[0]],
        ),
        "report": _write_json(
            os.path.join(out_dir, "report.json"),
            {"kind": kind, "params": params, "rows": rows},
        ),
        "manifest": _write_manifest(
            os.path.join(out_dir, "manifest.json"),
            "harness %s" % kind,
            cfg.seed,
            config=dataclasses.asdict(cfg),
            inputs={},
            options={"params": params},
        ),
    }


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1 (argparse defaults to 2).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _add_config_flags(parser, names=None):
    """Add --config and one flag per PmlpConfig field, or the flags of the
    fields in ``names`` alone; each takes its field's type and choices."""
    group = parser.add_argument_group("propagation configuration")
    if names is None:
        group.add_argument("--config", metavar="FILE", help="JSON config file")
    for name in names or _CONFIG_FIELDS:
        flag, kind = "--" + name.replace("_", "-"), _CONFIG_FIELDS[name].type
        if kind is bool:
            group.add_argument(flag, action=argparse.BooleanOptionalAction)
        else:
            group.add_argument(flag, type=kind, choices=CONFIG_CHOICES.get(name))


def _add_table_flags(parser, table):
    for name, param in table.items():
        if name != "config":
            parser.add_argument(
                "--" + name.replace("_", "-"),
                type=param.type,
                default=param.default,
                help=param.help + " (default: %(default)s)",
            )


def _collect_config_values(args):
    """Explicitly-set config fields: file < env seed < flags."""
    values = {}
    if getattr(args, "config", None):
        with _reading(args.config) as handle:
            values = json.load(handle)
        if not isinstance(values, dict):
            raise DataError("config file must hold a JSON object")
        unknown = set(values) - set(_CONFIG_FIELDS)
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown configuration field")
    if "PMLP_SEED" in os.environ:
        raw = os.environ["PMLP_SEED"]
        try:
            values["seed"] = int(raw)
        except ValueError as exc:
            raise ConfigError("seed", "PMLP_SEED=%r is not an integer" % raw) from exc
    for name in _CONFIG_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    return values


def _table_values(args):
    return {name: getattr(args, name) for name in args.table if name != "config"}


def _cmd_label(args):
    return run_label_job(
        args.input,
        args.out_dir,
        config_values=_collect_config_values(args),
        fmt=args.format,
        truth_path=args.truth,
        n_classes=args.n_classes,
        renormalize=args.renormalize,
    )


def _cmd_harness(args):
    values = dict(args.table["config"])
    values.update(_collect_config_values(args))
    kind = args.harness_kind.replace("-", "_")
    return run_harness_job(kind, args.out_dir, PmlpConfig(**values), _table_values(args))


def _cmd_generate(args):
    seed = PmlpConfig(**_collect_config_values(args)).seed
    dataset = _build_dataset(args.kind, _table_values(args), seed)
    # Check each output path and its directory (the manifest's is --out's)
    # before the first write, so that a run failing on one leaves no file.
    for path in filter(None, (args.out, args.truth_out)):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    written = {
        "data": emit_features(
            args.out, dataset.features, dataset.ground_truth, fmt=args.format
        )
    }
    if args.truth_out:
        written["truth"] = _write_csv(
            args.truth_out,
            ["row_index", "true_class"],
            [range(dataset.true_class.size), dataset.true_class],
        )
    manifest = _write_manifest(
        str(args.out) + ".manifest.json",
        "generate",
        seed,
        generator_spec=dataset.generator_spec,
        outputs=dict(written),
    )
    return dict(written, manifest=manifest)


def build_parser():
    parser = _Parser(prog="pmlp", description="Density-aware label propagation jobs")
    parser.add_argument("--version", action="version", version="pmlp " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    label = sub.add_parser("label", help="propagate labels over a feature file")
    label.add_argument("--input", required=True, help="CSV or JSONL dataset")
    label.add_argument("--format", choices=list(_READERS))
    label.add_argument("--truth", help="row_index,true_class CSV")
    label.add_argument("--out-dir", required=True)
    label.add_argument("--n-classes", type=int)
    label.add_argument("--renormalize", action="store_true")
    _add_config_flags(label)
    label.set_defaults(func=_cmd_label)

    generate = sub.add_parser("generate", help="write a synthetic dataset")
    generate.add_argument("--kind", type=_dataset, required=True, help=_kinds())
    _add_table_flags(generate, GENERATE_DEFAULTS)
    _add_config_flags(generate, ["seed"])
    generate.add_argument("--out", required=True)
    generate.add_argument("--format", choices=list(_READERS))
    generate.add_argument("--truth-out")
    generate.set_defaults(func=_cmd_generate, table=GENERATE_DEFAULTS)

    harness = sub.add_parser("harness", help="statistical verification jobs")
    hsub = harness.add_subparsers(dest="harness_kind", required=True)
    for kind, (table, text, _) in _HARNESSES.items():
        job = hsub.add_parser(kind.replace("_", "-"), help=text)
        job.add_argument("--out-dir", required=True)
        _add_table_flags(job, table)
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


def _run(args):
    """The job's output paths. Every input is read through ``_reading``, so
    an OSError here is an output path that cannot be written: a DataError
    that names it."""
    try:
        return args.func(args)
    except OSError as exc:
        path = exc.filename or "an output file"
        raise DataError("cannot write %s: %s" % (path, exc.strerror or exc)) from exc


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    try:
        paths = _run(args)
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
    for name, path in sorted(paths.items()):
        print("%s: %s" % (name, path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
