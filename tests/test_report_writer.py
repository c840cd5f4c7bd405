"""The report writer: what it streams equals json.dump(indent=2, sort_keys=True),
and the dumps it writes equal the line-by-line reference writers.

The writer formats the large arrays itself, so the fixed points here pin it
at scale: the analyze report of 300 levels and a 10 000-trial run report
must each be exactly what the stdlib encoder writes for its own content,
and a 100 000-trial --dump-trials and a 100 000-row --dump-trajectory
exactly what the line-by-line reference writers in tests/support.py write.
"""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ergolab import Spectrum, cli, montecarlo
from ergolab.cli import main

from support import (
    structure_report_reference,
    trajectory_dump_reference,
    trial_dump_reference,
)


def stdlib_text(doc) -> str:
    """The text ``json.dump`` writes for ``doc``, arrays taken as lists."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False,
                      default=np.ndarray.tolist) + "\n"


def run_main(argv) -> tuple[int, str]:
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = main(argv)
    return code, stdout.getvalue()


def write_json(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def run_config(path, **overrides) -> str:
    doc = {
        "spectrum": {"levels": [{"energy": k, "degeneracy": 2} for k in range(4)]},
        "dims": [4, 4],
        "trials": 7,
        "seed": 42,
        "state": "haar-per-trial",
        "params": {"epsilon": 0.8, "delta": 0.5, "delta_prime": 0.5},
        "normality": True,
    }
    doc.update(overrides)
    return write_json(path, doc)


# Rationals, and integers whose rescaled gaps and sums overflow int64.
energies = st.one_of(st.fractions(min_value=-30, max_value=30, max_denominator=12),
                     st.integers(2**62, 2**66).map(F))


class TestAnalyze:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(energies, st.integers(1, 3)), min_size=1, max_size=7,
                    unique_by=lambda level: level[0]))
    @example([(F(5, 3), 2)])  # single level
    @example([(F(0), 3), (F(1), 2), (F(2), 1), (F(3), 4), (F(5), 2)])  # degenerate
    @example([(F(0), 1), (F(1, 2), 1), (F(2, 3), 1), (F(7, 5), 1), (F(-5, 6), 1)])
    @example([(F(0), 1), (F(2**62), 2), (F(1, 3), 1), (F(3 * 2**62), 1)])  # past int64
    def test_report_is_the_reference_as_json(self, tmp_path_factory, levels):
        work = tmp_path_factory.getbasetemp()
        path = write_json(work / "writer-spectrum.json", {"levels": [
            {"energy": str(e), "degeneracy": d} for e, d in levels]})
        want = stdlib_text(structure_report_reference(Spectrum(tuple(levels))))
        assert run_main(["analyze", path]) == (0, want)
        out = work / "writer-report.json"
        assert main(["analyze", path, "--out", str(out)]) == 0
        assert out.read_text() == want

    def test_300_level_report_is_a_stdlib_fixed_point(self, tmp_path):
        # the benchmark's analyze input: 180 000 pairs in 1 198 classes
        path = write_json(tmp_path / "spectrum.json", {"levels": [
            {"energy": k, "degeneracy": 1} for k in range(300)]})
        code, text = run_main(["analyze", path])
        assert code == 0 and len(text) == 8_982_053
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


class TestRun:
    @pytest.mark.parametrize("trials", [1, 7, 2000])
    @settings(max_examples=4, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32), rows=st.sampled_from([1, 3, cli.WRITE_ROWS]))
    def test_report_is_the_report_with_lists(self, tmp_path_factory, trials, seed, rows):
        work = tmp_path_factory.getbasetemp()
        cfg = run_config(work / "writer-config.json", trials=trials, seed=seed)
        with mock.patch.object(cli, "_write_output", wraps=cli._write_output) as spy, \
                mock.patch.object(cli, "WRITE_ROWS", rows):
            code, text = run_main(["run", cfg])
        doc = spy.call_args.args[0]
        assert doc["experiment"]["trial_totals"].shape == (trials, 2)
        assert code == 0 and text == stdlib_text(doc)

    def test_10000_trial_report_is_a_stdlib_fixed_point(self, tmp_path):
        # the README's run config, at 10 000 trials
        cfg = run_config(tmp_path / "config.json", trials=10_000, state="haar-fixed")
        code, text = run_main(["run", cfg])
        assert code == 0 and len(text) == 751_857
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text

    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_nan_total_is_one_error_line(self, tmp_path, capsys, to_file):
        cfg = run_config(tmp_path / "config.json")
        real = montecarlo.run_experiment

        def with_nan(config):
            doc = real(config)
            totals = doc["experiment"]["trial_totals"].copy()  # read-only
            totals[3, 1] = np.nan
            doc["experiment"]["trial_totals"] = totals
            return doc

        out = tmp_path / "report.json"
        with mock.patch.object(montecarlo, "run_experiment", with_nan):
            code = main(["run", cfg] + (["--out", str(out)] if to_file else []))
        assert code == 1 and not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Out of range float values")
        assert captured.err.count("\n") == 1


class TestDumps:
    """``--dump-trials`` and ``--dump-trajectory`` against the reference
    writers of tests/support.py, on the inputs the program passed its own."""

    @staticmethod
    def trial_dump(tmp_path, argv) -> tuple[str, str]:
        dump = tmp_path / "trials.tsv"
        with mock.patch.object(cli, "_trial_chunks", wraps=cli._trial_chunks) as spy:
            assert main(argv + ["--out", str(tmp_path / "report.json"),
                                "--dump-trials", str(dump)]) == 0
        return dump.read_text(), trial_dump_reference(*spy.call_args.args)

    @staticmethod
    def trajectory_dump(tmp_path, argv) -> tuple[str, str]:
        dump = tmp_path / "trajectory.tsv"
        with mock.patch.object(cli, "_trajectory_chunks",
                               wraps=cli._trajectory_chunks) as spy:
            assert main(argv + ["--out", str(tmp_path / "report.json"),
                                "--dump-trajectory", str(dump)]) == 0
        return dump.read_text(), trajectory_dump_reference(*spy.call_args.args)

    def test_100000_trial_dump_matches_the_reference_writer(self, tmp_path):
        # the benchmark's ensemble-small cells, 100 000 trials x 4 cells
        cfg = run_config(tmp_path / "config.json", dims=[2, 2, 2, 2], trials=100_000,
                         state="uniform", normality=False)
        text, want = self.trial_dump(tmp_path, ["run", cfg])
        assert len(text.splitlines()) == 1 + 400_000 and text == want

    def test_100000_row_trajectory_dump_matches_the_reference_writer(self, tmp_path):
        spectrum = write_json(tmp_path / "spectrum.json", {"levels": [
            {"energy": e, "degeneracy": d} for e, d in [(0, 2), ("1/3", 1), ("1/2", 2),
                                                         ("7/4", 1)]]})
        text, want = self.trajectory_dump(tmp_path, [
            "compute-l", spectrum, "--dims", "3,3", "--seed", "7",
            "--grid-points", "100000", "--periods", "3"])
        assert len(text.splitlines()) == 1 + 100_000 and text == want

    @pytest.mark.parametrize("rows", [1, 3, 5, cli.WRITE_ROWS])
    def test_chunk_boundaries_change_no_byte(self, tmp_path, rows):
        cfg = run_config(tmp_path / "config.json", trials=7)
        spectrum = write_json(tmp_path / "spectrum.json", {"levels": [
            {"energy": k, "degeneracy": 1} for k in range(5)]})
        with mock.patch.object(cli, "WRITE_ROWS", rows):
            for text, want in [self.trial_dump(tmp_path, ["run", cfg]),
                               self.trajectory_dump(tmp_path, [
                                   "compute-l", spectrum, "--dims", "2,3",
                                   "--grid-points", "300"])]:
                assert text == want


# Where an array sits in the report: a dict value, a list item, or a value
# of a dict that is itself a list item.
PLACEMENTS = {
    "dict value": lambda array: array,
    "list item": lambda array: [1, array, "x"],
    "dict in list": lambda array: [{"a": array, "b": [array]}],
}


@pytest.mark.parametrize("place", PLACEMENTS.values(), ids=PLACEMENTS.keys())
@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    array=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0,
                                                  max_side=6),
                     elements=st.floats(allow_nan=False, allow_infinity=False)),
    depth=st.integers(0, 3),
    rows=st.integers(1, 5),
    chars=st.sampled_from([1, 50, cli.WRITE_CHARS]),
)
def test_float_arrays_are_written_as_their_lists(tmp_path_factory, place, array, depth,
                                                 rows, chars):
    doc = {"empty": {}, "list": [1, {"b": None}], "text": "a\nb"}
    inner = doc
    for _ in range(depth):
        inner["nested"] = {"x": -0.0}
        inner = inner["nested"]
    inner["array"] = place(array)
    out = tmp_path_factory.getbasetemp() / "writer-arrays.json"
    with mock.patch.object(cli, "WRITE_ROWS", rows), \
            mock.patch.object(cli, "WRITE_CHARS", chars):
        cli._write_output(doc, str(out))
    assert out.read_text() == stdlib_text(doc)


@pytest.mark.parametrize("place", PLACEMENTS.values(), ids=PLACEMENTS.keys())
def test_non_finite_array_anywhere_is_refused_before_writing(tmp_path, place):
    doc = {"finite": np.ones((2, 2)), "nested": {"x": place(np.array([[1.0, np.inf]]))}}
    out = tmp_path / "report.json"
    with pytest.raises(ValueError, match="^Out of range float values"):
        cli._write_output(doc, str(out))
    assert not out.exists()


@pytest.mark.parametrize("value", [np.float32(1.0), np.int64(1), np.arange(3), {1, 2}],
                         ids=["float32", "int64", "1-D array", "set"])
def test_other_values_are_refused_as_json_does(tmp_path, value):
    out = tmp_path / "report.json"
    with pytest.raises(TypeError, match="is not JSON serializable"):
        cli._write_output({"a": [np.zeros((1, 1)), value]}, str(out))
    assert not out.exists()
