"""File formats, jobs, manifests, and the command-line contract."""

import csv
import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pmlp
from pmlp import cli, density
from pmlp.cli import (
    COMPARE_DEFAULTS,
    DENSITY_RATIO_DEFAULTS,
    emit_features,
    ingest_features,
    main,
)
from pmlp.core import MAX_ELEMENTS, DataError, PmlpConfig
from pmlp.synthlab import gen_gaussian_blobs


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestIngestCsv:
    def test_ground_truth_row(self, tmp_path):
        path = write(tmp_path / "d.csv", "0.1,0.2,3\n")
        features, ground_truth, predictions = ingest_features(path)
        np.testing.assert_allclose(features, [[0.1, 0.2]])
        assert ground_truth.tolist() == [3]
        assert predictions is None

    def test_unlabeled_sentinel(self, tmp_path):
        path = write(tmp_path / "d.csv", "0.1,0.2,-1\n")
        _, ground_truth, predictions = ingest_features(path)
        assert ground_truth.tolist() == [-1]
        assert predictions is None

    def test_quoted_probability_list(self, tmp_path):
        path = write(tmp_path / "d.csv", '1.0,2.0,"[0.7, 0.3]"\n1.0,2.5,0\n')
        _, ground_truth, predictions = ingest_features(path)
        assert ground_truth.tolist() == [-1, 0]
        assert predictions.tolist() == [[0.7, 0.3], [0.0, 0.0]]

    def test_header_row_is_skipped(self, tmp_path):
        path = write(tmp_path / "d.csv", "f_0,f_1,label\n1.0,2.0,0\n")
        features, _, _ = ingest_features(path)
        assert features.shape[0] == 1

    def test_ragged_row_reports_line(self, tmp_path):
        path = write(tmp_path / "d.csv", "1.0,2.0,0\n1.0,0\n")
        with pytest.raises(DataError, match="line 2"):
            ingest_features(path)

    def test_bad_probability_sum_reports_line(self, tmp_path):
        path = write(tmp_path / "d.csv", '1.0,2.0,"[0.7, 0.2]"\n')
        with pytest.raises(DataError, match="line 1"):
            ingest_features(path)

    def test_slightly_off_probabilities_are_renormalized(self, tmp_path):
        # sum error inside (1e-9, 1e-6] is tolerated and normalized away
        path = write(tmp_path / "d.csv", '1.0,2.0,"[0.7000001, 0.3]"\n')
        _, ground_truth, predictions = ingest_features(path)
        assert ground_truth.tolist() == [-1]
        assert float(np.sum(predictions[0])) == pytest.approx(1.0, abs=1e-12)
        listed = np.array([0.7000001, 0.3])
        assert predictions[0].tolist() == (listed / listed.sum()).tolist()

    def test_row_ceiling_enforced(self, tmp_path):
        lines = ["0.0,0.0,-1"] * 20001
        path = write(tmp_path / "big.csv", "\n".join(lines) + "\n")
        with pytest.raises(DataError, match="caps at 20000"):
            ingest_features(path)

    def test_row_ceiling_stops_reading_at_the_first_row_past_it(self, tmp_path):
        # The malformed line after row 20,001 is never parsed.
        lines = ["0.0,0.0,-1"] * 20001 + ["x,0.0,-1"]
        path = write(tmp_path / "big.csv", "\n".join(lines) + "\n")
        with pytest.raises(DataError, match="caps at 20000"):
            ingest_features(path)

    def test_bad_label_reports_line(self, tmp_path):
        path = write(tmp_path / "d.csv", "1.0,2.0,zebra\n")
        with pytest.raises(DataError, match="line 1"):
            ingest_features(path)

    def test_negative_class_rejected(self, tmp_path):
        path = write(tmp_path / "d.csv", "1.0,2.0,-4\n")
        with pytest.raises(DataError, match="line 1"):
            ingest_features(path)

    def test_prediction_rows_of_different_lengths_report_line(self, tmp_path):
        path = write(
            tmp_path / "d.csv", '1.0,2.0,"[0.5, 0.5]"\n1.0,3.0,1\n1.0,4.0,"[1.0]"\n'
        )
        with pytest.raises(DataError, match="line 3: 1 probabilities, expected 2"):
            ingest_features(path)

    def test_non_finite_probabilities_report_line(self, tmp_path):
        # JSON's NaN and Infinity parse; the list is refused before it is summed.
        for cell in ("[NaN, 1]", "[Infinity, -Infinity]"):
            path = write(tmp_path / "d.csv", '1.0,2.0,0\n1.0,3.0,"%s"\n' % cell)
            with pytest.raises(DataError, match="line 2: prediction contains non-fin"):
                ingest_features(path)

    def test_a_class_past_the_element_limit_reports_line(self, tmp_path):
        # Such a class could not be held in an integer vector.
        path = write(tmp_path / "d.csv", "1.0,2.0,0\n1.0,3.0,%d\n" % 2**70)
        with pytest.raises(DataError, match="line 2: n_classes: %d classes" % (2**70 + 1)):
            ingest_features(path)

    def test_unknown_suffix_needs_format(self, tmp_path):
        path = write(tmp_path / "d.data", "1.0,2.0,0\n")
        with pytest.raises(DataError):
            ingest_features(path)
        features, _, _ = ingest_features(path, fmt="csv")
        assert features.shape[0] == 1


class TestIngestJsonl:
    def test_prediction_object(self, tmp_path):
        path = write(
            tmp_path / "d.jsonl", '{"features": [1, 2], "label": [0.7, 0.3]}\n'
        )
        features, ground_truth, predictions = ingest_features(path)
        np.testing.assert_allclose(features, [[1.0, 2.0]])
        assert ground_truth.tolist() == [-1]
        assert predictions.tolist() == [[0.7, 0.3]]

    def test_null_label_is_unlabeled(self, tmp_path):
        path = write(tmp_path / "d.jsonl", '{"features": [1, 2], "label": null}\n')
        _, ground_truth, predictions = ingest_features(path)
        assert ground_truth.tolist() == [-1]
        assert predictions is None

    @pytest.mark.parametrize(
        "line",
        ['{"features": [1, 1%s], "label": 0}', '{"features": [1, 2], "label": [1%s, 0]}'],
        ids=["feature", "probability"],
    )
    def test_an_integer_past_the_float_range_reports_line(self, tmp_path, line):
        # JSON integers have no bound; 1e400 is no float.
        text = '{"features": [1, 2], "label": 0}\n' + line % ("0" * 400)
        path = write(tmp_path / "d.jsonl", text + "\n")
        with pytest.raises(DataError, match="line 2: int too large to convert to float"):
            ingest_features(path)

    def test_minus_one_is_no_jsonl_label(self, tmp_path):
        # Only the CSV cell -1 means unlabeled; JSONL says null.
        path = write(tmp_path / "d.jsonl", '{"features": [1, 2], "label": -1}\n')
        with pytest.raises(DataError, match="line 1: ground-truth class index must be"):
            ingest_features(path)

    def test_dimension_mismatch_reports_line(self, tmp_path):
        path = write(
            tmp_path / "d.jsonl",
            '{"features": [1, 2], "label": 0}\n{"features": [1], "label": 0}\n',
        )
        with pytest.raises(DataError, match="line 2"):
            ingest_features(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = write(tmp_path / "d.jsonl", '{"features": [1, 2], "label": 0}\n{oops\n')
        with pytest.raises(DataError, match="line 2"):
            ingest_features(path)

    @pytest.mark.parametrize(
        "line",
        [
            '{"features": ["1.5", 2], "label": 0}',
            '{"features": [true, 2], "label": 0}',
            '{"features": [1, 2], "label": [true, false]}',
            '{"features": [1, 2], "label": ["0.5", 0.5]}',
        ],
    )
    def test_string_or_bool_number_reports_line(self, tmp_path, line):
        path = write(tmp_path / "d.jsonl", '{"features": [1, 2], "label": 0}\n' + line)
        with pytest.raises(DataError, match="line 2"):
            ingest_features(path)


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_ingest_emit_round_trip_is_exact(self, tmp_path, fmt):
        rng = np.random.default_rng(12)
        features = rng.normal(size=(7, 3)) * 10
        ground_truth = np.array([2, -1, -1, 0, -1, -1, -1])
        predictions = np.zeros((7, 3))
        predictions[[2, 4, 6]] = [[0.25, 0.5, 0.25], [1.0, 0.0, 0.0], [0.125, 0.375, 0.5]]
        path = tmp_path / ("d." + fmt)
        emit_features(path, features, ground_truth, predictions, fmt)
        back_features, back_ground_truth, back_predictions = ingest_features(path, fmt)
        assert np.array_equal(back_features, features)
        assert np.array_equal(back_ground_truth, ground_truth)
        assert np.array_equal(back_predictions, predictions)
        emit_features(path, features, ground_truth, fmt=fmt)
        assert ingest_features(path, fmt)[2] is None
        predictions[0] = [0.0, 0.0, 1.0]  # on a ground-truth row
        with pytest.raises(DataError, match="row 0: a ground-truth row has a predic"):
            emit_features(path, features, ground_truth, predictions, fmt)

    def test_reemission_is_byte_identical(self, tmp_path):
        dataset = gen_gaussian_blobs([[0.0, 0.0], [8.0, 0.0]], 1.0, 10, 2, seed=4)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        emit_features(first, dataset.features, dataset.ground_truth)
        loaded = ingest_features(first)
        emit_features(second, *loaded)
        assert first.read_bytes() == second.read_bytes()


def csv_writer_bytes(path, header, columns):
    """The bytes the row loop that ``_write_csv`` replaced writes: csv.writer
    with its defaults, a row at a time, each float cell as its repr."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in range(len(columns[0])):
            cells = []
            for column in columns:
                is_block = isinstance(column, np.ndarray) and column.ndim == 2
                cells.extend(column[row] if is_block else [column[row]])
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in cells])
    return path.read_bytes()


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5]
FLOATS = st.floats() | st.sampled_from(SPECIAL_FLOATS)
TEXTS = st.text(st.sampled_from(list(',"\r\n a1-é')), max_size=6) | st.lists(
    st.floats(0.0, 1.0), max_size=3
).map(json.dumps)
# Numpy scalars as well: a harness report can hold them.
CELLS = (
    FLOATS | st.integers() | TEXTS | st.none() | st.booleans()
    | FLOATS.map(np.float64) | st.integers(-2**63, 2**63 - 1).map(np.int64)
)


@st.composite
def csv_tables(draw):
    """A header and columns of every kind ``_write_csv`` takes, all n long."""
    n = draw(st.sampled_from([0, 1, 2, 5, 9]))
    columns = []
    for kind in draw(
        st.lists(st.sampled_from(["float", "int", "text", "any", "array", "block"]),
                 min_size=1, max_size=4)
    ):
        if kind == "block":
            width = draw(st.integers(1, 3))
            cells = draw(st.lists(FLOATS, min_size=n * width, max_size=n * width))
            columns.append(np.array(cells, dtype=float).reshape(n, width))
        elif kind == "array":
            cells = FLOATS | st.integers(-2**63, 2**63 - 1)
            columns.append(np.array(draw(st.lists(cells, min_size=n, max_size=n))))
        else:
            strategy = {"float": FLOATS, "int": st.integers(), "text": TEXTS, "any": CELLS}
            columns.append(draw(st.lists(strategy[kind], min_size=n, max_size=n)))
    width = sum(c.shape[1] if np.ndim(c) == 2 else 1 for c in columns)
    header = draw(st.lists(TEXTS, min_size=width, max_size=width))
    return header, columns


class TestWriteCsv:
    """``_write_csv`` writes the bytes of the csv.writer loop it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(csv_tables(), st.sampled_from([1, 2, 4, cli._BLOCK_ROWS]))
    def test_matches_the_csv_writer_loop(self, table, block_rows):
        header, columns = table
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            cli, "_BLOCK_ROWS", block_rows
        ):
            new = cli._write_csv(pathlib.Path(tmp, "new.csv"), header, columns)
            old = csv_writer_bytes(pathlib.Path(tmp, "old.csv"), header, columns)
            assert new.read_bytes() == old

    def test_rows_of_several_blocks(self, tmp_path):
        n = 2 * cli._BLOCK_ROWS + 3
        rng = np.random.default_rng(3)
        block = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-300, 300, size=(n, 3))
        block[: len(SPECIAL_FLOATS), 0] = SPECIAL_FLOATS
        texts = ['"%d", [0.5, 0.5]' % i for i in range(n)]
        columns = [range(n), rng.integers(-1, 3, size=n), block, texts]
        header = ["row_index", "class", "a", "b", "c", "note"]
        path = cli._write_csv(tmp_path / "new.csv", header, columns)
        assert path.read_bytes() == csv_writer_bytes(tmp_path / "old.csv", header, columns)

    def test_none_is_an_empty_cell(self, tmp_path):
        # As csv.writer writes it: empty, and "" when it is the row's only cell.
        two = cli._write_csv(tmp_path / "two.csv", ["a", "b"], [[None, 1], [2, None]])
        assert two.read_bytes() == b"a,b\r\n,2\r\n1,\r\n"
        one = cli._write_csv(tmp_path / "one.csv", [""], [[None, "", 0.5]])
        assert one.read_bytes() == b'""\r\n""\r\n""\r\n0.5\r\n'

    def test_columns_of_unequal_length_are_refused(self, tmp_path):
        with pytest.raises(ValueError, match="differ in length"):
            cli._write_csv(tmp_path / "d.csv", ["a", "b"], [[1, 2], [3]])


def generate_blobs(tmp_path, seed=5):
    data = tmp_path / "blobs.csv"
    truth = tmp_path / "truth.csv"
    code = main(
        [
            "generate", "--kind", "gaussian-blobs", "--means", "0,0;10,0",
            "--sigma", "0.5", "--per-class", "30", "--labeled-per-class", "2",
            "--seed", str(seed), "--out", str(data), "--truth-out", str(truth),
        ]
    )
    assert code == 0
    return data, truth


class TestLabelJob:
    def test_accuracy_present_with_truth(self, tmp_path, capsys):
        data, truth = generate_blobs(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["label", "--input", str(data), "--truth", str(truth),
             "--out-dir", str(out)]
        )
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["n_rows"] == 60
        assert metrics["n_labeled"] == 4
        assert metrics["accuracy"] == 1.0
        assert 0.0 <= metrics["high_conf_ratio"] <= 1.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["neighbor_count"] == 3  # ceil(1.5 * 2)
        assert manifest["inputs"]["data"]["sha256"]

    def test_blank_lines_between_records_are_skipped(self, tmp_path):
        records = [
            '{"features": [0.0, 0.0], "label": 0}',
            '{"features": [1.0, 0.0], "label": 1}',
            '{"features": [0.1, 0.0], "label": null}',
        ]
        truth = ["row_index,true_class", "0,0", "1,1", "2,0"]
        outputs = []
        for name, gap in (("dense", "\n"), ("spaced", "\n\n\n")):
            data = write(tmp_path / (name + ".jsonl"), gap.join(records) + "\n")
            classes = write(tmp_path / (name + ".csv"), gap.join(truth) + gap)
            out = tmp_path / name
            assert main(
                ["label", "--input", data, "--truth", classes, "--out-dir", str(out)]
            ) == 0
            outputs.append(
                [(out / f).read_bytes() for f in ("pseudo_labels.csv", "metrics.json")]
            )
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[1][1])["accuracy"] == 1.0

    def test_whitespace_only_lines_are_skipped(self, tmp_path):
        # One rule in every reader: a line of whitespace is skipped like an
        # empty one, in a CSV input and in a truth file alike.
        data, truth = generate_blobs(tmp_path)
        files = {"data": data, "truth": truth}  # each a header, then 60 rows

        def label(out, paths):
            return main(
                ["label", "--input", paths["data"], "--truth", paths["truth"],
                 "--out-dir", str(out)]
            )

        outputs = []
        for name, gap in (("dense", "\n"), ("spaced", "\n  \n\t\n")):
            paths = {
                kind: write(
                    tmp_path / (name + "_" + kind + ".csv"),
                    gap.join(path.read_text().splitlines()) + gap,
                )
                for kind, path in files.items()
            }
            assert label(tmp_path / name, paths) == 0
            outputs.append(
                [(tmp_path / name / f).read_bytes() for f in ("pseudo_labels.csv", "metrics.json")]
            )
        assert outputs[0] == outputs[1]
        # A line of a space, a comma and a space holds two cells: no skip.
        for bad, path in files.items():
            paths = {kind: str(path) for kind, path in files.items()}
            paths[bad] = write(tmp_path / ("bad_" + bad + ".csv"), path.read_text() + " , \n")
            out = tmp_path / ("bad_" + bad)
            assert label(out, paths) == 2
            assert "line 62" in json.loads((out / "metrics.json").read_text())["error"]["message"]

    def test_metrics_report_solver_steps(self, tmp_path):
        data, _ = generate_blobs(tmp_path)
        out = tmp_path / "out"
        assert main(["label", "--input", str(data), "--out-dir", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["solver_iterations"] > 1
        assert 0.0 <= metrics["residual"] < 1e-9

    def test_accuracy_absent_without_truth(self, tmp_path):
        data, _ = generate_blobs(tmp_path)
        out = tmp_path / "out"
        assert main(["label", "--input", str(data), "--out-dir", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert "accuracy" not in metrics

    def test_rerun_is_byte_identical(self, tmp_path):
        data, truth = generate_blobs(tmp_path)
        first = tmp_path / "r1"
        second = tmp_path / "r2"
        for out in (first, second):
            assert main(
                ["label", "--input", str(data), "--truth", str(truth),
                 "--out-dir", str(out)]
            ) == 0
        assert (first / "pseudo_labels.csv").read_bytes() == (
            second / "pseudo_labels.csv"
        ).read_bytes()
        assert (first / "metrics.json").read_bytes() == (
            second / "metrics.json"
        ).read_bytes()
        m1 = json.loads((first / "manifest.json").read_text())
        m2 = json.loads((second / "manifest.json").read_text())
        m1.pop("timestamp"), m2.pop("timestamp")
        assert m1 == m2

    def test_rerun_is_byte_identical_across_blas_threads(self, tmp_path):
        data = tmp_path / "moons.csv"
        assert main(
            ["generate", "--kind", "two-moons", "--n", "800", "--labeled-per-class",
             "3", "--seed", "11", "--out", str(data)]
        ) == 0
        src = os.path.dirname(os.path.dirname(pmlp.__file__))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / ("threads" + threads)
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            )
            subprocess.run(
                [sys.executable, "-m", "pmlp.cli", "label", "--input", str(data),
                 "--out-dir", str(out), "--bandwidth-h", "0.05",
                 "--kde-support-n", "15", "--neighbor-count", "5"],
                env=env, check=True, timeout=120,
            )
            outputs.append(
                [(out / name).read_bytes() for name in ("pseudo_labels.csv", "metrics.json")]
            )
        assert outputs[0] == outputs[1]

    def test_label_job_does_not_import_scipy(self, tmp_path):
        data = tmp_path / "moons.csv"
        assert main(
            ["generate", "--kind", "two-moons", "--n", "200", "--labeled-per-class",
             "3", "--seed", "5", "--out", str(data)]
        ) == 0
        src = os.path.dirname(os.path.dirname(pmlp.__file__))
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        )
        script = (
            "import sys\n"
            "from pmlp.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, "label", "--input", str(data),
             "--out-dir", str(tmp_path / "out")],
            env=env, check=True, timeout=120, capture_output=True, text=True,
        )
        assert done.stdout.strip().splitlines()[-1] == "[]"

    def test_labels_csv_layout(self, tmp_path):
        data, _ = generate_blobs(tmp_path)
        out = tmp_path / "out"
        main(["label", "--input", str(data), "--out-dir", str(out)])
        lines = (out / "pseudo_labels.csv").read_text().splitlines()
        assert lines[0] == "row_index,argmax_class,score_0,score_1,high_confidence"
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[-1] in ("0", "1")

    def test_unreached_rows_have_no_class(self, tmp_path):
        # Three blobs 50 apart; the third has no label, so no mass reaches
        # its kNN component and its scores are all zero.
        rng = np.random.default_rng(2)
        rows = []
        for blob in range(3):
            points = rng.normal(size=(50, 2)) + (50.0 * blob, 0.0)
            for index, (x, y) in enumerate(points.tolist()):
                label = blob if blob < 2 and index < 2 else -1
                rows.append("%r,%r,%d" % (x, y, label))
        data = write(tmp_path / "d.csv", "\n".join(rows) + "\n")
        truth = write(
            tmp_path / "t.csv",
            "".join("%d,%d\n" % (row, row // 50) for row in range(150)),
        )
        out = tmp_path / "out"
        assert main(
            ["label", "--input", data, "--truth", truth, "--n-classes", "3",
             "--out-dir", str(out)]
        ) == 0
        table = np.loadtxt(out / "pseudo_labels.csv", delimiter=",", skiprows=1)
        unreached = ~table[:, 2:5].any(axis=1)
        assert np.array_equal(np.flatnonzero(unreached), np.arange(100, 150))
        assert np.all(table[unreached, 1] == -1)
        assert np.array_equal(table[:100, 1], np.arange(100) // 50)
        # 96 unlabeled rows of the first two blobs are right; 50 count as wrong.
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["accuracy"] == 96 / 146

    def test_flag_overrides_config_file(self, tmp_path):
        data, _ = generate_blobs(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"alpha": 0.5, "eta": 0.4}))
        out = tmp_path / "out"
        code = main(
            ["label", "--input", str(data), "--out-dir", str(out),
             "--config", str(config), "--eta", "0.1"]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["alpha"] == 0.5  # from file
        assert manifest["config"]["eta"] == 0.1  # flag wins

    def test_env_seed_overrides_default(self, tmp_path, monkeypatch):
        data, _ = generate_blobs(tmp_path)
        out = tmp_path / "out"
        monkeypatch.setenv("PMLP_SEED", "99")
        main(["label", "--input", str(data), "--out-dir", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_seed_flag_beats_env(self, tmp_path, monkeypatch):
        data, _ = generate_blobs(tmp_path)
        out = tmp_path / "out"
        monkeypatch.setenv("PMLP_SEED", "99")
        main(["label", "--input", str(data), "--out-dir", str(out), "--seed", "3"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert main(["label"]) == 1  # missing required flags

    def test_unknown_subcommand_is_one(self):
        assert main(["propagate"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["harness", "theorem1", "--separations", "2,x"],
            ["harness", "density-ratio", "--bandwidths", ","],
            ["harness", "compare", "--dataset", "spirals"],
            ["label", "--input", "d.csv", "--closed-form-scaling", "unscaled"],
            ["label", "--input", "d.csv", "--solver", "iterative"],
            ["label", "--input", "d.csv", "--solver-max-iters", "500"],
            ["harness", "compare", "--solver-tol", "1e-8"],
        ],
    )
    def test_bad_or_removed_flag_is_a_usage_error(self, tmp_path, argv):
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("means", ["0,x;10,0", ";"])
    def test_malformed_means_is_a_usage_error(self, tmp_path, means):
        data = tmp_path / "d.csv"
        assert main(
            ["generate", "--kind", "gaussian-blobs", "--means", means, "--out", str(data)]
        ) == 1
        assert not data.exists()

    def test_data_error_is_two(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["label", "--input", str(tmp_path / "missing.csv"), "--out-dir", str(out)]
        )
        assert code == 2
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["error"]["code"] == "data"

    def test_one_row_is_a_data_error(self, tmp_path):
        # With one row the derived neighbor_count, min(ceil(1.5 classes),
        # N - 1), is 0: the input is at fault, not a flag.
        data = write(tmp_path / "d.csv", "f_0,f_1,label\n0.5,0.5,0\n")
        out = tmp_path / "out"
        code = main(["label", "--input", data, "--out-dir", str(out),
                     "--n-classes", "2"])
        assert code == 2
        error = json.loads((out / "metrics.json").read_text())["error"]
        assert error == {"code": "data",
                         "message": "1 data row: labelling needs at least 2"}

    @pytest.mark.parametrize("classes", [1, 0, -3])
    def test_too_few_given_classes_name_the_flag(self, tmp_path, classes):
        # The flag was passed, so the message names it and its value
        # rather than asking for it.
        data, _ = generate_blobs(tmp_path)
        out = tmp_path / "out"
        code = main(["label", "--input", str(data), "--out-dir", str(out),
                     "--n-classes", str(classes)])
        assert code == 2
        error = json.loads((out / "metrics.json").read_text())["error"]
        assert error == {
            "code": "data",
            "message": "n_classes = %d: labelling needs at least 2" % classes,
        }

    def test_overflowing_path_points_are_a_data_error_with_warnings_as_errors(
        self, tmp_path
    ):
        # The segment between the two labelled rows overflows (b - a is
        # -2e308), so its path point is not finite.
        data = write(tmp_path / "d.csv", "f_0,f_1,label\n1e308,1e308,0\n"
                     "-1e308,-1e308,1\n0,0,-1\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["label", "--input", data, "--out-dir", str(out),
                         "--neighbor-count", "1"])
        assert code == 2
        error = json.loads((out / "metrics.json").read_text())["error"]
        assert error["code"] == "data"
        assert "path points must be finite" in error["message"]

    @pytest.mark.parametrize(
        "flag, code, field",
        [("--path-points-k", 1, "path_points_k"), ("--n-classes", 2, "n_classes")],
    )
    def test_a_count_past_the_element_limit_is_refused(
        self, tmp_path, flag, code, field
    ):
        # 2^62 path points or classes overflow a 64-bit byte count, so numpy
        # would refuse the array by arithmetic too: nothing huge is allocated.
        data, _ = generate_blobs(tmp_path)
        out = tmp_path / "out"
        assert main(["label", "--input", str(data), "--out-dir", str(out),
                     flag, str(2**62)]) == code
        error = json.loads((out / "metrics.json").read_text())["error"]
        assert error["message"].startswith(field + ": ")
        if field == "path_points_k":  # the pairs are the kNN edges
            assert "neighbor_count" in error["message"]
        assert "exceed %d elements" % MAX_ELEMENTS in error["message"]

    def test_path_points_past_the_element_limit_are_refused_before_the_lists(
        self, tmp_path, monkeypatch
    ):
        # A kNN graph of 60 rows and 2 neighbors has at least 60 pairs, so
        # 2^62 points on each are refused before the nearest-row pass. So
        # are 6 points on each, 1,080 values at d = 2, under a patched limit
        # of 1,000 elements, which the graph's 840 fit.
        data, _ = generate_blobs(tmp_path)
        searches = []
        nearest_rows = density._nearest_rows

        def spy(*args):
            searches.append(args[0].shape)
            return nearest_rows(*args)

        monkeypatch.setattr(density, "_nearest_rows", spy)
        for points, limit in ((2**62, MAX_ELEMENTS), (6, 1000)):
            out = tmp_path / ("out_%d" % points)
            with mock.patch("pmlp.core.MAX_ELEMENTS", limit):
                assert main(["label", "--input", str(data), "--out-dir", str(out),
                             "--neighbor-count", "2", "--path-points-k", str(points)]) == 1
            error = json.loads((out / "metrics.json").read_text())["error"]
            assert error["message"].startswith(
                "path_points_k: %d points on each of at least 60 pairs at d = 2 "
                "exceed %d elements" % (points, limit)
            )
            assert "neighbor_count" in error["message"]
        assert searches == []

    def test_a_graph_past_the_element_limit_names_neighbor_count(
        self, tmp_path, monkeypatch
    ):
        # 60 rows' lists of 6 entries fit a limit of 1,000 elements, but
        # not the graph's 7 copies of their 300 edges, which the element
        # check refuses before any list is built.
        data, _ = generate_blobs(tmp_path)
        out = tmp_path / "out"
        searches = []
        monkeypatch.setattr(density, "_nearest_rows", lambda *args: searches.append(1))
        with mock.patch("pmlp.core.MAX_ELEMENTS", 1000):
            code = main(["label", "--input", str(data), "--out-dir", str(out),
                         "--mode", "classical_lpa", "--neighbor-count", "5"])
        assert code == 2
        error = json.loads((out / "metrics.json").read_text())["error"]
        assert error["code"] == "data"
        assert error["message"].startswith("neighbor_count: 60 rows x 5 neighbors")
        assert "exceed 1000 elements" in error["message"]
        assert searches == []

    @pytest.mark.parametrize(
        "argv, field",
        [
            # m = 40 rows per list, set by the kNN count: the graph's edge
            # check, before the lists, refuses it first
            (["--neighbor-count", "40", "--kde-support-n", "1"], "neighbor_count"),
            # m = ceil(4 * 4 / 3) + 2 = 8, set by the supports, as the cost
            # rule runs the list round for 4 supports among 60 rows
            (["--neighbor-count", "1", "--kde-support-n", "4"], "kde_support_n"),
        ],
    )
    def test_lists_past_the_element_limit_name_the_flag_that_sized_them(
        self, tmp_path, argv, field
    ):
        # 60 rows' lists of m + 1 = 41 or 9 entries pass a limit of 500
        # elements, which the rest of the job fits.
        data, _ = generate_blobs(tmp_path)
        out = tmp_path / "out"
        with mock.patch("pmlp.core.MAX_ELEMENTS", 500):
            code = main(["label", "--input", str(data), "--out-dir", str(out)] + argv)
        assert code == 2
        error = json.loads((out / "metrics.json").read_text())["error"]
        assert error["code"] == "data"
        assert error["message"].startswith(field + ": 60 rows x ")
        assert "exceed 500 elements" in error["message"]

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["generate", "--kind", "two-moons", "--n"], "n"),
            (["generate", "--kind", "gaussian-blobs", "--per-class"], "per_class"),
            (["harness", "compare", "--n"], "n"),
            (["harness", "theorem1", "--pairs"], "pairs"),
            (["harness", "theorem1", "--samples-per-cluster"], "samples_per_cluster"),
            (["harness", "theorem1", "--line-points"], "line_points"),
            (["harness", "density-ratio", "--pairs"], "pairs"),
        ],
    )
    def test_a_size_flag_past_the_element_limit_is_a_data_error(
        self, tmp_path, argv, field
    ):
        # 2^62 overflows a 64-bit byte count, so numpy would refuse the
        # array by arithmetic too: nothing huge is allocated.
        out = tmp_path / "out"
        where = ["--out", str(tmp_path / "d.csv")] if argv[0] == "generate" else [
            "--out-dir", str(out)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv + [str(2**62)] + where) == 2
        if argv[0] == "generate":
            assert not (tmp_path / "d.csv").exists()
            return
        error = json.loads((out / "report.json").read_text())["error"]
        assert error["code"] == "data"
        assert error["message"].startswith(field + ": ")
        assert "exceed %d elements" % MAX_ELEMENTS in error["message"]

    def test_a_negative_pair_count_is_a_data_error(self, tmp_path):
        out = tmp_path / "out"
        argv = ["harness", "density-ratio", "--pairs", "-1", "--out-dir", str(out)]
        assert main(argv) == 2
        error = json.loads((out / "report.json").read_text())["error"]
        assert error == {"code": "data", "message": "pairs must be >= 1"}

    @pytest.mark.parametrize(
        "case",
        ["csv_label_of_strings", "not_utf8", "directory", "missing_truth",
         "truth_negative_class", "truth_conflicting_repeat"],
    )
    def test_unreadable_input_is_a_data_error(self, tmp_path, case):
        data, truth = generate_blobs(tmp_path)
        line = None
        if case.startswith("truth_"):
            lines = truth.read_text().splitlines()  # a header, then rows 0..59
            if case == "truth_negative_class":
                lines[3], line = "2,-1", 4  # was counted as a miss
            else:
                lines.append("2,1")  # row 2 is class 0; the last line won
                line = len(lines)
            truth.write_text("\n".join(lines) + "\n")
        elif case == "csv_label_of_strings":
            data, line = write(tmp_path / "s.csv", '1.0,2.0,"[""a"", 1]"\n'), 1
        elif case == "not_utf8":
            data = tmp_path / "latin.csv"
            data.write_bytes(b"1.0,2.0,0\n1.0,2.0,\xe9\n")
        elif case == "directory":
            data = tmp_path / "dir.csv"
            data.mkdir()
        else:
            truth = tmp_path / "missing_truth.csv"
        named = truth if "truth" in case else data
        out = tmp_path / "out"
        code = main(
            ["label", "--input", str(data), "--truth", str(truth), "--out-dir", str(out)]
        )
        assert code == 2
        message = json.loads((out / "metrics.json").read_text())["error"]["message"]
        assert os.path.basename(str(named)) in message
        if line is not None:
            assert "line %d" % line in message
        assert not (out / "pseudo_labels.csv").exists()

    @pytest.mark.parametrize(
        "first, message",
        [
            ("1.5,0", "line 1: invalid literal"),
            ("nan,0", "line 1: invalid literal"),
            ("+9,0", "line 1: row 9 out of range"),
        ],
    )
    def test_truth_line_one_of_numbers_is_data(self, tmp_path, first, message):
        # Line 1 is a header only by the feature files' rule: a row index
        # that parses as a number is data, and fails as data, not skipped.
        data = write(tmp_path / "d.csv", "0.0,0\n0.1,-1\n5.0,1\n5.1,-1\n")
        truth = write(tmp_path / "t.csv", first + "\n0,0\n1,0\n2,1\n3,1\n")
        out = tmp_path / "out"
        code = main(["label", "--input", data, "--truth", truth, "--out-dir", str(out)])
        assert code == 2
        error = json.loads((out / "metrics.json").read_text())["error"]["message"]
        assert message in error and "t.csv" in error

    @pytest.mark.parametrize(
        "case, code, kind, message",
        [
            ("env_seed_not_an_integer", 1, "config", "PMLP_SEED='abc'"),
            ("config_file_of_a_list", 2, "data", "must hold a JSON object"),
            ("truth_three_columns", 2, "data", "line 3: expected row_index,true_class"),
            ("truth_row_out_of_range", 2, "data", "line 62: row 60 out of range"),
            ("truth_leaves_rows_unclassed", 2, "data", "1 rows have no true class"),
            ("input_of_a_header_only", 2, "data", "holds no data rows"),
            ("labels_of_one_class", 2, "data", "could not infer >= 2 classes"),
            ("input_line_of_one_cell", 2, "data", "line 62: need features and a label"),
            ("config_clamp_of_an_integer", 1, "config", "clamp_ground_truth: must be"),
            # Every row stores k edges, and every edge's density underflows.
            ("bandwidth_h_underflows", 3, "numerical", "stored edges all weigh 0"),
        ],
    )
    def test_each_failure_writes_its_exit_code(
        self, tmp_path, monkeypatch, case, code, kind, message
    ):
        data, truth = generate_blobs(tmp_path)
        lines = truth.read_text().splitlines()  # a header, then rows 0..59
        argv = []
        if case == "env_seed_not_an_integer":
            monkeypatch.setenv("PMLP_SEED", "abc")
        elif case == "config_file_of_a_list":
            argv = ["--config", write(tmp_path / "cfg.json", "[1, 2]")]
        elif case == "truth_three_columns":
            lines[2] += ",0"
        elif case == "truth_row_out_of_range":
            lines.append("60,0")
        elif case == "truth_leaves_rows_unclassed":
            del lines[5]
        elif case == "input_of_a_header_only":
            data = write(tmp_path / "header.csv", "f_0,f_1,label\n")
        elif case == "labels_of_one_class":
            rows = data.read_text().splitlines()  # a header, then rows 0..59
            rows = [row[:-2] + ",-1" if row.endswith(",1") else row for row in rows]
            data = write(tmp_path / "one_class.csv", "\n".join(rows) + "\n")
        elif case == "input_line_of_one_cell":
            data = write(tmp_path / "one_cell.csv", data.read_text() + "1.0\n")
        elif case == "config_clamp_of_an_integer":
            argv = ["--config", write(tmp_path / "cfg.json", '{"clamp_ground_truth": 1}')]
        else:
            argv = ["--bandwidth-h", "1e-300"]
        truth.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        got = main(
            ["label", "--input", str(data), "--truth", str(truth), "--out-dir", str(out)]
            + argv
        )
        assert got == code
        error = json.loads((out / "metrics.json").read_text())["error"]
        assert error["code"] == kind
        assert message in error["message"]
        assert not (out / "pseudo_labels.csv").exists()

    @pytest.mark.parametrize(
        "command",
        [
            "generate --kind two-moons --out {missing}/d.csv",
            "generate --kind two-moons --out {tmp}/d.csv --truth-out {missing}/t.csv",
            "generate --kind two-moons --out {tmp}/d.csv --truth-out {dir}",
            # The out dir is made before the input is read.
            "label --input {missing}/d.csv --out-dir {file}",
            "harness density-ratio --out-dir {file}",
        ],
        ids=["out", "truth_out", "truth_out_dir", "label_out_dir", "harness_out_dir"],
    )
    def test_unwritable_output_is_a_data_error(self, tmp_path, capsys, command):
        taken, missing = tmp_path / "taken", tmp_path / "missing"
        folder = tmp_path / "dir"
        taken.write_text("")
        folder.mkdir()
        argv = command.format(tmp=tmp_path, missing=missing, file=taken, dir=folder)
        assert main(argv.split()) == 2
        named = {"{file}": taken, "{dir}": folder}.get(command.split()[-1], missing)
        assert "cannot write %s" % named in capsys.readouterr().err
        assert taken.read_text() == ""
        assert sorted(os.listdir(tmp_path)) == ["dir", "taken"]  # no output is left

    def test_config_error_is_one(self, tmp_path):
        data, _ = generate_blobs(tmp_path)
        code = main(
            ["label", "--input", str(data), "--out-dir", str(tmp_path / "o"),
             "--alpha", "1.5"]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "field,value",
        [("alpha", "0.5"), ("seed", None), ("neighbor_count", True), ("seed", 7.0)],
    )
    def test_config_value_of_the_wrong_json_type_is_a_config_error(
        self, tmp_path, field, value
    ):
        data, _ = generate_blobs(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({field: value}))
        out = tmp_path / "out"
        code = main(
            ["label", "--input", str(data), "--out-dir", str(out),
             "--config", str(config)]
        )
        assert code == 1
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["error"]["code"] == "config"
        assert payload["error"]["message"].startswith(field + ":")

    def test_removed_config_field_is_unknown(self, tmp_path):
        config = tmp_path / "cfg.json"
        removed = {"closed_form_scaling": "fixed_point", "solver": "iterative"}
        for field, value in removed.items():
            config.write_text(json.dumps({field: value}))
            out = tmp_path / field
            code = main(
                ["label", "--input", str(tmp_path / "d.csv"), "--out-dir", str(out),
                 "--config", str(config)]
            )
            assert code == 1
            message = json.loads((out / "metrics.json").read_text())["error"]["message"]
            assert message == field + ": unknown configuration field"

    def test_alpha_next_to_one_is_a_numerical_error(self, tmp_path):
        data, _ = generate_blobs(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["label", "--input", str(data), "--out-dir", str(out),
             "--alpha", "0.999999999"]
        )
        assert code == 3
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["error"]["code"] == "numerical"
        assert "budget" in payload["error"]["message"]

    def test_numerical_error_is_three(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["harness", "density-ratio", "--out-dir", str(out),
             "--bandwidths", "0.000001", "--separation", "40",
             "--samples-per-cluster", "30", "--pairs", "20"]
        )
        assert code == 3
        payload = json.loads((out / "report.json").read_text())
        assert payload["error"]["code"] == "numerical"


# The exit-code contract as a property: small drawn files, config files
# and flag values, each run by ``main`` in this process with RuntimeWarning
# as an error. Every size drawn is bounded, so no example allocates much,
# and ``harness compare`` runs at most one trial, so no example forks.
FEATURE_CELLS = ["1e308", "-1e308", "nan", "inf", "-inf", "", "x", "5e-324"]
LABEL_CELLS = [-1, 0, 1, 2, -4, 1.5, "zebra", True, None, [0.5, 0.5], [0.9, 0.3], [1]]
CONFIG_VALUES = {
    "alpha": [0.0, 0.5, 0.8, 1.0],
    "eta": [0.0, 0.2, 1.0],
    "tau": [0.0, 0.5, 0.95],
    "bandwidth_h": [-1.0, 0.0, 1e-300, 0.05, 1.0, 1e300, math.nan, math.inf],
    "path_points_k": [0, 1, 3],
    "kde_support_n": [0, 1, 3, 100],
    "neighbor_count": [-1, 0, 1, 2, 50],
    "aggregator": ["min", "max", "avg", "quantile", "median"],
    "quantile_t": [0.0, 0.25, 1.0],
    "distance_mode": [
        "euclidean_inverse", "cosine_similarity", "first_order_similarity", "l1"
    ],
    "mode": ["pmlp", "classical_lpa"],
    "clamp_ground_truth": [True, False, 1],
    "seed": [-1, 0, 7, 1.5],
}
# Flag values that argparse accepts, in range or not, for each job's flags.
JOB_FLAGS = {
    "label": {
        "--neighbor-count": [-1, 0, 1, 2, 50],
        "--kde-support-n": [0, 1, 3, 100],
        "--path-points-k": [0, 1, 3],
        "--bandwidth-h": [-1.0, 1e-300, 0.05, 1.0, 1e300, "nan", "inf"],
        "--alpha": [0.0, 0.5, 0.999999999, 1.0],
        "--aggregator": ["min", "quantile"],
        "--distance-mode": ["cosine_similarity", "first_order_similarity"],
        "--mode": ["classical_lpa"],
        "--n-classes": [-1, 0, 1, 2, 3, 10],
    },
    "theorem1": {
        "--separations": ["1", "2,4", "4,2", "0", "-1", "nan"],
        "--sigma": [0.5, 0.0, -1.0, "nan"],
        "--samples-per-cluster": [0, 1, 5, 20],
        "--pairs": [-1, 0, 1, 3],
        "--tau-quantile": [0.0, 0.1, 1.0, "nan"],
        "--line-points": [0, 1, 3],
        "--kde-support-n": [1, 5, 100],
        "--bandwidth-h": [1e-300, 1.0, "inf"],
    },
    "compare": {
        "--dataset": ["two-moons", "gaussian-blobs"],
        "--n": [1, 2, 10, 30],
        "--per-class": [0, 1, 5, 15],
        "--labeled-per-class": [-1, 0, 1, 2, 20],
        "--noise": [0.0, 0.1, -1.0, "nan"],
        "--sigma": [0.5, 0.0, "nan"],
        "--separation": [0.0, 6.0, "nan", 1e308],
        "--trials": [-1, 0, 1],
        "--kde-support-n": [1, 5, 100],
        "--neighbor-count": [1, 3, 100],
        "--bandwidth-h": [1e-300, 0.05, "inf"],
    },
    "density-ratio": {
        "--bandwidths": ["1", "0.5,5", "0", "-1", "nan", "1e-300"],
        "--pairs": [-1, 0, 1, 3],
        "--separation": [0.0, 8.0, "nan", 1e308],
        "--sigma": [1.0, 0.0, "inf"],
        "--samples-per-cluster": [0, 1, 5, 20],
        "--kde-support-n": [1, 5, 100],
        "--path-points-k": [1, 3],
    },
    "generate": {
        "--kind": ["two-moons", "gaussian-blobs"],
        "--means": ["0,0;10,0", "0;1;2", "1e308,0;-1e308,0", "nan,0;1,1"],
        "--sigma": [0.5, 0.0, "nan"],
        "--per-class": [0, 1, 5],
        "--n": [1, 2, 10],
        "--noise": [0.1, -1.0, "inf"],
        "--labeled-per-class": [-1, 0, 1, 20],
        "--format": ["csv", "jsonl"],
    },
}


@st.composite
def data_files(draw):
    """(name, text, rows, spoiled) of a small CSV or JSONL data file: rows
    of a few features and labels of every kind, a few cells spoiled (then
    ``spoiled`` is True), maybe a header and blank lines."""
    jsonl = draw(st.booleans())
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(0, 12))
    rows = draw(st.lists(
        st.lists(st.floats(-3, 3), min_size=dim, max_size=dim), min_size=n, max_size=n
    ))
    cells = [[repr(x) for x in features] for features in rows]
    labels = [draw(st.sampled_from([-1, -1, 0, 1])) for _ in rows]
    if draw(st.booleans()):
        labels[:2] = [0, 1][: len(rows)]  # two classes, most likely
    # Mostly none, at most two: a feature cell or a label of another kind.
    spoiled = False
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, 40))
        spoiled |= bool(rows)
        if rows and draw(st.booleans()):
            cells[at % len(rows)][at % dim] = draw(st.sampled_from(FEATURE_CELLS))
        elif rows:
            labels[at % len(rows)] = draw(st.sampled_from(LABEL_CELLS))
    lines = []
    for features, label in zip(cells, labels):
        if jsonl:
            label = None if label == -1 else label  # JSONL's unlabelled is null
            lines.append('{"features": [%s], "label": %s}' % (
                ", ".join(features), json.dumps(label)
            ))
        else:
            label = -1 if label is None else label
            if isinstance(label, list):
                label = '"%s"' % json.dumps(label)
            lines.append(",".join(features + [str(label)]))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " "])))
    if not jsonl and draw(st.booleans()):
        lines.insert(0, ",".join(["f_%d" % i for i in range(dim)] + ["label"]))
    name = "d.jsonl" if jsonl else "d.csv"
    return name, "\n".join(lines) + "\n", len(rows), spoiled


@st.composite
def cli_jobs(draw):
    """(argv, files, record, expected): a job's arguments, the files it
    reads as {name: text}, the file its error record goes to (None:
    generate, which has no output directory), and, for a job whose failure
    is known whatever its flags, (exit code, messages), one of which its
    record must hold; else None. An argument "@name" is a path in a fresh
    directory; "@out" is the job's output directory.

    The known failure: ``label`` on an unspoiled data file of fewer than 2
    rows, with no config file or one that is a JSON object of known
    fields, is a data error, as the rows are counted before any flag,
    config value or truth line is checked."""
    job = draw(st.sampled_from(sorted(JOB_FLAGS)))
    flags = JOB_FLAGS[job]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), max_size=4, unique=True))
    argv = []
    for flag in chosen:
        argv += [flag, str(draw(st.sampled_from(flags[flag])))]
    files, expected = {}, None
    if job == "generate":
        kind = [] if "--kind" in chosen else ["--kind", "two-moons"]
        return ["generate", *kind, *argv, "--out", "@d.out"], files, None, None
    if job == "label":
        name, text, rows, spoiled = draw(data_files())
        files[name] = text
        if rows < 2 and not spoiled:
            expected = (2, ("no data rows", "1 data row"))
        argv = ["label", "--input", "@" + name] + argv
        if draw(st.booleans()):
            rows = draw(st.sampled_from([rows, rows, rows, rows + 1, 0]))
            files["truth.csv"] = "".join(
                "%d,%d\n" % (row, draw(st.sampled_from([0, 1, 1, 0, -1])))
                for row in range(rows)
            )
            argv += ["--truth", "@truth.csv"]
        if draw(st.booleans()):
            argv.append("--renormalize")
    else:
        argv = ["harness", job] + argv
    if draw(st.booleans()):
        fields = draw(st.lists(st.sampled_from(sorted(CONFIG_VALUES)), max_size=3))
        config = {f: draw(st.sampled_from(CONFIG_VALUES[f])) for f in fields}
        files["config.json"] = draw(st.sampled_from([
            json.dumps(config), json.dumps(config), json.dumps(config),
            json.dumps(dict(config, unknown=1)), "[1]", "{",
        ]))
        argv += ["--config", "@config.json"]
        if files["config.json"] != json.dumps(config):
            expected = None
    record = "metrics.json" if job == "label" else "report.json"
    return argv + ["--out-dir", "@out"], files, record, expected


class TestExitCodeProperty:
    @settings(max_examples=150, deadline=None)
    @given(job=cli_jobs())
    # A negative pair count reached numpy, whose ValueError escaped.
    @example(job=(
        ["harness", "density-ratio", "--pairs", "-1", "--out-dir", "@out"], {},
        "report.json", None,
    ))
    # One data row and a config value that is itself out of range.
    @example(job=(
        ["label", "--input", "@d.csv", "--neighbor-count", "-1", "--config",
         "@config.json", "--out-dir", "@out"],
        {"d.csv": "0.5,1\n", "config.json": '{"alpha": 1.0}'},
        "metrics.json", (2, ("no data rows", "1 data row")),
    ))
    def test_every_job_exits_0_to_3_with_an_error_record(self, job):
        """No exception escapes ``main``, which returns 0, 1, 2 or 3, and a
        job that fails leaves the error record of its exit code; a job of
        known failure exits with its code and one of its messages."""
        argv, files, record, expected = job
        with tempfile.TemporaryDirectory() as work:
            for name, text in files.items():
                pathlib.Path(work, name).write_text(text, encoding="utf-8")
            argv = [os.path.join(work, a[1:]) if a[0] == "@" else a for a in argv]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main(argv)
            assert code in (0, 1, 2, 3)
            if expected is not None:
                assert code == expected[0]
            if code and record is not None:
                text = pathlib.Path(work, "out", record).read_text()
                error = json.loads(text)["error"]
                assert error["code"] == {1: "config", 2: "data", 3: "numerical"}[code]
                if expected is not None:
                    assert any(m in error["message"] for m in expected[1])


class TestHarnessJobs:
    # Every harness flag set to a small non-default value, and the params
    # report.json then records; then the params of a run without flags.
    # Compared as JSON text, so 2 and 2.0 differ and each flag's type is
    # pinned as well as its name and default.
    PARAMS = {
        "theorem1": (
            ["--separations", "3,5", "--sigma", "2", "--samples-per-cluster", "25",
             "--pairs", "10", "--tau-quantile", "0.2", "--line-points", "8"],
            {"separations": [3.0, 5.0], "sigma": 2.0, "samples_per_cluster": 25,
             "pairs": 10, "tau_quantile": 0.2, "line_points": 8},
            {"separations": [2.0, 4.0, 8.0, 16.0], "sigma": 1.0,
             "samples_per_cluster": 200, "pairs": 100, "tau_quantile": 0.1,
             "line_points": 50},
        ),
        "compare": (
            ["--dataset", "gaussian-blobs", "--n", "40", "--noise", "0.2",
             "--labeled-per-class", "3", "--trials", "2", "--separation", "4",
             "--sigma", "2", "--per-class", "20"],
            {"dataset": "gaussian_blobs", "n": 40, "noise": 0.2,
             "labeled_per_class": 3, "trials": 2, "separation": 4.0, "sigma": 2.0,
             "per_class": 20},
            {"dataset": "two_moons", "n": 200, "noise": 0.1, "labeled_per_class": 2,
             "trials": 20, "separation": 6.0, "sigma": 1.0, "per_class": 100},
        ),
        "density-ratio": (
            ["--bandwidths", "2,50", "--pairs", "10", "--separation", "5",
             "--sigma", "2", "--samples-per-cluster", "25"],
            {"bandwidths": [2.0, 50.0], "pairs": 10, "separation": 5.0, "sigma": 2.0,
             "samples_per_cluster": 25},
            {"bandwidths": [5.0, 100.0, 1e12], "pairs": 200, "separation": 8.0,
             "sigma": 1.0, "samples_per_cluster": 150},
        ),
    }

    @pytest.mark.parametrize("kind", sorted(PARAMS))
    def test_flags_set_exactly_the_reported_params(self, tmp_path, kind):
        flags, set_params, default_params = self.PARAMS[kind]
        for argv, expected in ((flags, set_params), ([], default_params)):
            out = tmp_path / ("set" if argv else "default")
            assert main(["harness", kind, "--out-dir", str(out)] + argv) == 0
            params = json.loads((out / "report.json").read_text())["params"]
            assert json.dumps(params, sort_keys=True) == json.dumps(
                expected, sort_keys=True
            )

    def test_density_ratio_trend(self, tmp_path):
        out = tmp_path / "dr"
        assert main(["harness", "density-ratio", "--out-dir", str(out)]) == 0
        rows = json.loads((out / "report.json").read_text())["rows"]
        ratios = [row["density_ratio"] for row in rows]
        assert [row["bandwidth_h"] for row in rows] == list(
            DENSITY_RATIO_DEFAULTS["bandwidths"].default
        )
        assert ratios[0] > ratios[1] > ratios[2]
        assert 1.0 <= ratios[2] <= 1.001
        lines = (out / "density_ratio_sweep.csv").read_text().splitlines()
        assert lines[0] == "bandwidth_h,density_ratio"

    def test_theorem1_committed_defaults_trend(self, tmp_path):
        out = tmp_path / "t1"
        assert main(["harness", "theorem1", "--out-dir", str(out)]) == 0
        rows = json.loads((out / "report.json").read_text())["rows"]
        assert [row["separation"] for row in rows] == [2.0, 4.0, 8.0, 16.0]
        crossing = [row["fraction_paths_low_density"] for row in rows]
        assert crossing == sorted(crossing)
        assert crossing[-1] >= 0.95
        lines = (out / "separation_sweep.csv").read_text().splitlines()
        assert lines[0].startswith("separation,tau_density,")

    def test_compare_degenerate_bandwidth_rows_match(self, tmp_path):
        out = tmp_path / "cmp"
        code = main(
            ["harness", "compare", "--out-dir", str(out), "--trials", "2",
             "--n", "80", "--bandwidth-h", "1e12"]
        )
        assert code == 0
        rows = json.loads((out / "report.json").read_text())["rows"]
        by_trial = {}
        for row in rows:
            by_trial.setdefault(row["trial"], {})[row["mode"]] = row
        for pair in by_trial.values():
            for key in ("accuracy", "high_conf_ratio", "correct_high_ratio"):
                assert pair["pmlp"][key] == pair["classical_lpa"][key]

    def test_compare_uses_committed_defaults(self, tmp_path):
        out = tmp_path / "cmp"
        assert main(
            ["harness", "compare", "--out-dir", str(out), "--trials", "1"]
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        committed = COMPARE_DEFAULTS["config"]
        for key, value in committed.items():
            assert manifest["config"][key] == value


class TestFlagContract:
    # Every PmlpConfig field's kebab-case flag, set to a non-default value.
    CONFIG_FLAGS = [
        "--alpha", "0.5", "--eta", "0.3", "--tau", "0.9", "--bandwidth-h", "2.5",
        "--path-points-k", "2", "--kde-support-n", "10", "--neighbor-count", "4",
        "--aggregator", "quantile", "--quantile-t", "0.25",
        "--distance-mode", "cosine_similarity", "--mode", "classical_lpa",
        "--no-clamp-ground-truth", "--seed", "3",
    ]
    CONFIG = {
        "alpha": 0.5, "eta": 0.3, "tau": 0.9, "bandwidth_h": 2.5,
        "path_points_k": 2, "kde_support_n": 10, "neighbor_count": 4,
        "aggregator": "quantile", "quantile_t": 0.25,
        "distance_mode": "cosine_similarity", "mode": "classical_lpa",
        "clamp_ground_truth": False, "seed": 3,
    }

    def test_config_flags_set_exactly_the_manifest_config(self, tmp_path):
        data, _ = generate_blobs(tmp_path)
        out = tmp_path / "out"
        assert main(
            ["label", "--input", str(data), "--out-dir", str(out)] + self.CONFIG_FLAGS
        ) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert json.dumps(config, sort_keys=True) == json.dumps(
            self.CONFIG, sort_keys=True
        )
        assert sorted(self.CONFIG) == sorted(
            f.name for f in dataclasses.fields(PmlpConfig)
        )

    # Every generate flag set; the generator spec records what each kind uses.
    GENERATE_FLAGS = [
        "--means", "1,2;5,6;9,1", "--sigma", "0.5", "--per-class", "20", "--n", "30",
        "--noise", "0.2", "--labeled-per-class", "3", "--seed", "4",
        "--format", "jsonl",
    ]
    SPECS = {
        "two-moons": {
            "kind": "two_moons",
            "params": {"n": 30, "noise": 0.2, "labeled_per_class": 3},
            "seed": 4,
        },
        "gaussian-blobs": {
            "kind": "gaussian_blobs",
            "params": {
                "means": [[1.0, 2.0], [5.0, 6.0], [9.0, 1.0]], "sigma": 0.5,
                "per_class": 20, "labeled_per_class": 3,
            },
            "seed": 4,
        },
    }

    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_generate_flags_set_exactly_the_generator_spec(self, tmp_path, kind):
        data = tmp_path / "d.out"
        truth = tmp_path / "truth.csv"
        assert main(
            ["generate", "--kind", kind, "--out", str(data), "--truth-out", str(truth)]
            + self.GENERATE_FLAGS
        ) == 0
        manifest = json.loads((tmp_path / "d.out.manifest.json").read_text())
        assert manifest.pop("timestamp")
        assert json.dumps(manifest, sort_keys=True) == json.dumps(
            {
                "tool": "pmlp",
                "tool_version": pmlp.__version__,
                "command": "generate",
                "seed": 4,
                "generator_spec": self.SPECS[kind],
                "outputs": {"data": str(data), "truth": str(truth)},
            },
            sort_keys=True,
        )
        assert json.loads(data.read_text().splitlines()[0])["features"]

    CONFIG_OPTIONS = [
        "--aggregator", "--alpha", "--bandwidth-h", "--clamp-ground-truth",
        "--config", "--distance-mode", "--eta", "--kde-support-n", "--mode",
        "--neighbor-count", "--no-clamp-ground-truth", "--path-points-k",
        "--quantile-t", "--seed", "--tau",
    ]
    OPTIONS = {
        "label": [
            "--format", "--input", "--n-classes", "--out-dir", "--renormalize",
            "--truth",
        ] + CONFIG_OPTIONS,
        "generate": [
            "--format", "--kind", "--labeled-per-class", "--means", "--n", "--noise",
            "--out", "--per-class", "--seed", "--sigma", "--truth-out",
        ],
        "harness theorem1": [
            "--line-points", "--out-dir", "--pairs", "--samples-per-cluster",
            "--separations", "--sigma", "--tau-quantile",
        ] + CONFIG_OPTIONS,
        "harness compare": [
            "--dataset", "--labeled-per-class", "--n", "--noise", "--out-dir",
            "--per-class", "--separation", "--sigma", "--trials",
        ] + CONFIG_OPTIONS,
        "harness density-ratio": [
            "--bandwidths", "--out-dir", "--pairs", "--samples-per-cluster",
            "--separation", "--sigma",
        ] + CONFIG_OPTIONS,
    }

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_help_lists_exactly_the_options(self, capsys, command):
        assert main(command.split() + ["--help"]) == 0
        text = capsys.readouterr().out
        options = set(re.findall(r"(?<![\w-])--?[a-z][a-z0-9-]*", text))
        assert sorted(options) == sorted(self.OPTIONS[command] + ["--help", "-h"])


class TestGenerate:
    def test_two_generates_are_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            assert main(
                ["generate", "--kind", "two-moons", "--n", "50", "--noise", "0.1",
                 "--labeled-per-class", "2", "--seed", "9", "--out", str(path)]
            ) == 0
        assert a.read_bytes() == b.read_bytes()
        assert os.path.exists(str(a) + ".manifest.json")

    def test_truth_file_covers_all_rows(self, tmp_path):
        data, truth = generate_blobs(tmp_path)
        lines = truth.read_text().splitlines()
        assert lines[0] == "row_index,true_class"
        assert len(lines) == 61

    def test_jsonl_output(self, tmp_path):
        path = tmp_path / "m.jsonl"
        assert main(
            ["generate", "--kind", "two-moons", "--n", "10", "--noise", "0",
             "--labeled-per-class", "1", "--seed", "2", "--out", str(path)]
        ) == 0
        features, ground_truth, predictions = ingest_features(path)
        assert features.shape[0] == 10
        assert ground_truth.tolist() == [0] + [-1] * 4 + [1] + [-1] * 4
        assert predictions is None
