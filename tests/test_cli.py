"""Command-line surface: reports, exit codes, determinism."""

import argparse
import io
import json
import math
import os
import subprocess
import sys
import threading
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergolab import (
    cli,
    deviation_exact,
    dynamics,
    montecarlo,
    parse_spectrum,
    prepare_state,
    randomness,
    resonant_term_bound,
    sample_decomposition,
    sample_random_state,
    substream,
    sum_structure,
    typicality,
)
from ergolab.cli import main

from support import cell_weight, evolve, integer_spread, lemma_statistics_reference


def write_spectrum(tmp_path, levels, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(
        {"levels": [{"energy": e, "degeneracy": d} for e, d in levels]}
    ))
    return str(path)


def load(path):
    with open(path) as fh:
        return json.load(fh)


def assert_one_line_error(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    for fragment in fragments:
        assert fragment in err


def flag_refusal(capsys, argv, flag) -> str:
    """The stderr of ``main(argv)``, asserted to be argparse's usage error
    (exit 2) naming ``flag``, without a traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2 and f"error: argument {flag}: " in err, err
    assert "Traceback" not in err
    return err


class TestAnalyze:
    def test_resonant_spectrum(self, tmp_path):
        spec = write_spectrum(tmp_path, [(0, 1), (1, 1), (2, 1)])
        out = tmp_path / "report.json"
        assert main(["analyze", spec, "--out", str(out)]) == 0
        report = load(out)
        assert report["D_F"] == 3
        assert report["non_resonant"] is False

    def test_nonresonant_spectrum(self, tmp_path):
        spec = write_spectrum(tmp_path, [(0, 1), (1, 1), (3, 1)])
        out = tmp_path / "report.json"
        assert main(["analyze", spec, "--out", str(out)]) == 0
        report = load(out)
        assert report["D_G"] == 1 and report["D_F"] == 2
        assert report["non_resonant"] is True

    def test_report_round_trips_through_parser(self, tmp_path):
        spec_path = write_spectrum(tmp_path, [(0, 2), ("5/2", 1)])
        out = tmp_path / "report.json"
        main(["analyze", spec_path, "--out", str(out)])
        report = load(out)
        again = parse_spectrum({"levels": report["levels"]})
        assert again.dim_total == report["D"]

    def test_empty_file_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        assert main(["analyze", str(empty)]) != 0
        assert "error" in capsys.readouterr().err

    def test_missing_file_fails(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.json")]) != 0

    def test_float_snap(self, tmp_path):
        path = tmp_path / "float.json"
        path.write_text(json.dumps(
            {"levels": [{"energy": 0.501, "degeneracy": 1},
                        {"energy": 0, "degeneracy": 1}]}
        ))
        assert main(["analyze", str(path)]) != 0  # floats need a snap denominator
        out = tmp_path / "snapped.json"
        assert main(["analyze", str(path), "--snap-denominator", "2",
                     "--out", str(out)]) == 0
        assert load(out)["approximate"] is True

    @pytest.mark.parametrize("energy", ["1e999999999", "1E-999999999", "-2e+99999999"])
    def test_huge_decimal_exponent_rejected(self, tmp_path, capsys, energy):
        # refused before the power of ten is formed, which took minutes
        spec = write_spectrum(tmp_path, [(energy, 1), (0, 1)])
        assert main(["analyze", spec]) == 1
        assert_one_line_error(capsys, f"error: {spec}: ", repr(energy), "decimal exponent")

    def test_decimal_exponents_below_the_bound(self, tmp_path):
        spec = write_spectrum(tmp_path, [("9e4000", 1), ("25e-1", 1)])
        out = tmp_path / "report.json"
        assert main(["analyze", spec, "--out", str(out)]) == 0
        assert [level["energy"] for level in load(out)["levels"]] == ["5/2", str(9 * 10**4000)]

    @pytest.mark.parametrize("levels, level", [
        ([("5e4299", 1), (0, 1)], 0),  # 2 max|E| L = 10^4300
        ([("9e4299", 1), ("25e-1", 1)], 0),  # a sum of 4301 digits
        ([(0, 1), ("1/" + str(2**7000), 1), ("1/" + str(3**5000), 1)], 2),  # L of 4494 digits
    ])
    def test_gaps_and_sums_beyond_the_digit_limit_rejected(self, tmp_path, capsys,
                                                           levels, level):
        # a gap or sum class value of more than 4300 digits cannot be printed
        spec = write_spectrum(tmp_path, levels)
        out = tmp_path / "report.json"
        assert main(["analyze", spec, "--out", str(out)]) == 1
        assert not out.exists()
        assert_one_line_error(capsys, f"level {level}:", "10^4300")

    def test_largest_sums_within_the_digit_limit(self, tmp_path):
        spec = write_spectrum(tmp_path, [("4e4299", 1), (0, 1)])
        out = tmp_path / "report.json"
        assert main(["analyze", spec, "--out", str(out)]) == 0
        assert load(out)["sums"][-1]["value"] == str(8 * 10**4299)


class TestVerifyLemmas:
    def test_insufficient_samples_skips_gates(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        code = main(["verify-lemmas", "--dim", "20", "--rank", "4",
                     "--samples", "10", "--out", str(out)])
        assert code == 0
        assert "insufficient samples" in capsys.readouterr().err
        report = load(out)
        assert report["gates_evaluated"] is False
        assert report["state_weights"]["mean"]["pass"] is None

    def test_rank_above_dim_rejected(self, tmp_path):
        assert main(["verify-lemmas", "--dim", "4", "--rank", "5",
                     "--samples", "10"]) != 0

    def test_single_sample_rejected(self, tmp_path, capsys):
        # one sample has no standard error: the report would carry NaN
        out = tmp_path / "v.json"
        flag_refusal(capsys, ["verify-lemmas", "--dim", "4", "--rank", "2",
                              "--samples", "1", "--out", str(out)], "--samples")
        assert not out.exists()

    # The flag limits (exit 2) and the limits on products of flags, checked
    # in the command (exit 1); without them a Haar frame of 2^50 rows would
    # not fit any machine's memory, and at full rank a state would draw all
    # 2^50 coordinates.
    @pytest.mark.parametrize("flags, fragments", [
        (["--samples", "1000000000000000"], ["argument --samples: must be at most"]),
        (["--samples", "100000001"], ["argument --samples: must be at most 100000000"]),
        (["--samples", "10", "--ensemble", "1000001"],
         ["argument --ensemble: must be at most 1000000"]),
        (["--samples", "10", "--dim", "2^50"],
         ["--ensemble × --dim² × max(--rank, 10) must be at most", "200 × 1125899906842624²"]),
        (["--samples", "10", "--dim", "2^50", "--rank", "2^50"],
         ["argument --rank: must be at most 4194304"]),
    ])
    def test_sizes_beyond_memory_rejected(self, tmp_path, capsys, flags, fragments):
        out = tmp_path / "v.json"
        argv = ["verify-lemmas", "--dim", "10", "--rank", "2", "--out", str(out)] + flags
        if fragments[0].startswith("argument "):  # a flag's own range
            flag = fragments[0].partition(":")[0].removeprefix("argument ")
            assert fragments[0] in flag_refusal(capsys, argv, flag)
        else:
            assert main(argv) == 1
            assert_one_line_error(capsys, *fragments)
        assert not out.exists()

    @pytest.mark.parametrize("flags, fragment", [
        # 477 states of 2^22 coordinates, and 20 000 001 states of 100
        (["--dim", "2^22", "--rank", "2^22", "--samples", "477"],
         "--samples × min(--dim, max(--rank, 2)) must be at most 2000000000, got 477 × 4194304"),
        (["--dim", "1000", "--rank", "100", "--samples", "20000001"], "got 20000001 × 100"),
        # 200 Grams of 100 001 rows (a row at a time past 32 768 rows)
        (["--dim", "100001"],
         "--ensemble × --dim² × max(--rank, 10) must be at most 100000000000, "
         "got 200 × 100001² × 10"),
        (["--dim", "10000", "--rank", "11", "--ensemble", "91"], "got 91 × 10000² × 11"),
        # numpy refused its frame only after every moment sum was taken
        (["--dim", "2^100"], "got 200 × 1267650600228229401496703205376² × 10"),
        (["--dim", "12", "--rank", "13"], "--rank must be between 1 and --dim 12, got 13"),
    ])
    def test_sizes_beyond_the_time_limits_refused_before_any_draw(self, monkeypatch, capsys,
                                                                  flags, fragment):
        def no_draw(*args):
            raise AssertionError("lemma_statistics was called")

        monkeypatch.setattr(randomness, "lemma_statistics", no_draw)
        argv = ["verify-lemmas", "--dim", "10", "--rank", "2", "--samples", "10"] + flags
        assert main(argv) == 1
        assert_one_line_error(capsys, fragment)

    @pytest.mark.parametrize("flags", [
        ["--dim", "2^22", "--rank", "2^22", "--samples", "476"],
        ["--dim", "1000", "--rank", "100", "--samples", "20000000"],
        ["--dim", "100000", "--ensemble", "1"],
        ["--dim", "10000", "--rank", "11", "--ensemble", "90"],
    ])
    def test_sizes_at_the_time_limits_accepted(self, monkeypatch, capsys, flags):
        def reached(*args):
            raise ValueError("reached the draws")

        monkeypatch.setattr(randomness, "lemma_statistics", reached)
        argv = ["verify-lemmas", "--dim", "10", "--rank", "2", "--samples", "10"] + flags
        assert main(argv) == 1
        assert_one_line_error(capsys, "error: reached the draws")

    @pytest.mark.parametrize("seed", ["1", "2"])
    @pytest.mark.parametrize("dim, rank, samples, ensemble", [
        ("1", "1", "10001", "5"), ("6", "6", "4099", "5"), ("257", "3", "5003", "4"),
        ("8", "2", "20000", "30"), ("100", "10", "9000", "10"),
    ])
    def test_report_equals_the_sequential_reference(
            self, tmp_path, monkeypatch, dim, rank, samples, ensemble, seed):
        argv = ["verify-lemmas", "--dim", dim, "--rank", rank, "--samples", samples,
                "--ensemble", ensemble, "--seed", seed, "--out"]
        concurrent, reference = tmp_path / "concurrent.json", tmp_path / "reference.json"
        code = main(argv + [str(concurrent)])
        monkeypatch.setattr(randomness, "lemma_statistics", lemma_statistics_reference)
        assert main(argv + [str(reference)]) == code
        assert concurrent.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("flags, fragment", [
        (["--rank", "13"], "rank"), (["--ensemble", "0"], "ensemble"),
        # no unitary blocks are drawn at rank = dim, yet the flag is reported
        (["--dim", "4", "--rank", "4", "--ensemble", "-5"], "--ensemble"),
    ])
    def test_bad_sizes_rejected_before_any_thread_starts(self, monkeypatch, capsys,
                                                         flags, fragment):
        def no_thread(*args):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        argv = ["verify-lemmas", "--dim", "12", "--rank", "3", "--samples", "100"] + flags
        if "--ensemble" in flags:  # a flag's own range
            assert "must be at least 1" in flag_refusal(capsys, argv, "--ensemble")
        else:  # --rank above --dim, a rule of two flags
            assert main(argv) == 1
            assert_one_line_error(capsys, "--rank must be between 1 and --dim 12, got 13")

    @pytest.mark.parametrize("rank, threads", [("3", 2), ("12", 1)])
    def test_at_most_two_worker_threads_below_full_rank_and_one_at_it(
            self, tmp_path, monkeypatch, rank, threads):
        # A pool thread that is already idle takes the second task, so
        # below full rank one thread may do both.
        started, start = [], threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        assert main(["verify-lemmas", "--dim", "12", "--rank", rank, "--samples", "20000",
                     "--ensemble", "50", "--out", str(tmp_path / "v.json")]) == 0
        assert 1 <= len(started) <= threads and not any(t.is_alive() for t in started)

    @pytest.mark.parametrize("stream", ["caller's half", "worker's half", "unitary blocks"])
    @pytest.mark.parametrize("error, message", [
        (MemoryError, "error: out of memory: no room"), (ValueError, "error: no room"),
    ])
    def test_failing_stream_is_one_error_line_and_every_thread_joined(
            self, tmp_path, monkeypatch, capsys, stream, error, message):
        caller, moment_sums = threading.current_thread(), randomness._moment_sums

        def fail(*args):
            raise error("no room")

        def moments(*args):
            if stream == ("caller's half" if threading.current_thread() is caller
                          else "worker's half"):
                fail()
            return moment_sums(*args)

        monkeypatch.setattr(randomness, "_moment_sums", moments)
        if stream == "unitary blocks":
            monkeypatch.setattr(randomness, "unitary_block_statistics", fail)
        before = threading.active_count()
        out = tmp_path / "v.json"
        assert main(["verify-lemmas", "--dim", "12", "--rank", "3", "--samples", "20000",
                     "--ensemble", "50", "--out", str(out)]) == 1
        assert threading.active_count() == before
        assert not out.exists()
        assert_one_line_error(capsys, message)

    def test_moderate_run_passes(self, tmp_path):
        out = tmp_path / "v.json"
        code = main(["verify-lemmas", "--dim", "30", "--rank", "6",
                     "--samples", "20000", "--ensemble", "120",
                     "--seed", "5", "--out", str(out)])
        report = load(out)
        assert code == 0 and report["pass"] is True
        assert report["unitary_block_gate"]["applicable"] is True

    def test_block_gate_applies_exactly_past_the_admissible_crossover(
            self, monkeypatch, capsys):
        # D = floor(e^k) and ceil(e^k), where rank = k - 1, k, k + 1 straddle
        # ln D, and every rank below min(D, 14): the gate applies exactly when
        # the mpmath crossover min(d/ln D, D/d) exceeds 1.  Nothing is drawn,
        # and the Gram limit is lifted so that D reaches e^12.
        def no_draw(dim, rank, samples, ensemble, seed):
            record = {"estimate": 0.0, "stderr": 0.0, "threshold": 0.0, "pass": True}
            moments = {"mean": dict(record), "variance": dict(record)}
            return (moments, dict(moments),
                    {"max_offdiag": dict(record), "max_diag_dev": dict(record)})

        monkeypatch.setattr(randomness, "lemma_statistics", no_draw)
        monkeypatch.setattr(cli, "MAX_LEMMA_GRAM", math.inf)
        applied = Counter()
        for k in range(1, 13):
            for dim in sorted({math.floor(math.e**k), math.ceil(math.e**k)}):
                for rank in range(1, min(dim, 14)):
                    assert main(["verify-lemmas", "--dim", str(dim), "--rank", str(rank),
                                 "--samples", "10", "--ensemble", "100"]) == 0
                    gate = json.loads(capsys.readouterr().out)["unitary_block_gate"]
                    crossover = typicality.admissible_constant_crossover(dim, rank)
                    assert gate["applicable"] == (crossover > 1), (dim, rank)
                    applied[gate["applicable"]] += 1
        assert applied[True] > 0 and applied[False] > 0


class TestComputeL:
    def test_nonresonant_resonant_field_zero(self, tmp_path):
        spec = write_spectrum(tmp_path, [(0, 1), (1, 1), (3, 1)])
        out = tmp_path / "l.json"
        assert main(["compute-l", spec, "--dims", "1,2", "--seed", "4",
                     "--out", str(out)]) == 0
        report = load(out)
        for cell in report["cells"]:
            assert cell["resonant_term"] == 0.0
            assert cell["oracle"]["match"] is True

    def test_resonant_integer_oracle_match(self, tmp_path):
        spec = write_spectrum(tmp_path, [(0, 2), (1, 1), (2, 2)])
        out = tmp_path / "l.json"
        assert main(["compute-l", spec, "--dims", "2,3", "--seed", "4",
                     "--out", str(out)]) == 0
        report = load(out)
        assert report["pass"] is True
        for cell in report["cells"]:
            assert cell["oracle"]["residual"] <= 1e-9

    def test_rational_spectrum_notes_rescale(self, tmp_path):
        spec = write_spectrum(tmp_path, [(0, 1), ("1/2", 1), (1, 1), ("3/2", 1)])
        out = tmp_path / "l.json"
        assert main(["compute-l", spec, "--dims", "2,2", "--out", str(out)]) == 0
        assert load(out)["rescaled_to_integer"] == {"multiplier": 2}

    def test_dims_mismatch_rejected(self, tmp_path, capsys):
        spec = write_spectrum(tmp_path, [(0, 1), (1, 1)])
        assert main(["compute-l", spec, "--dims", "2,2"]) != 0
        assert "sum" in capsys.readouterr().err

    def test_state_file_input(self, tmp_path):
        spec = write_spectrum(tmp_path, [(0, 2), (1, 2)])
        amp = sample_random_state(4, substream(1, 0))
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(
            {"amplitudes": [[z.real, z.imag] for z in amp]}
        ))
        out = tmp_path / "l.json"
        assert main(["compute-l", spec, "--dims", "2,2",
                     "--state", str(state_path), "--out", str(out)]) == 0
        assert load(out)["state_source"] == "file"

    def test_malformed_state_file_rejected(self, tmp_path, capsys):
        spec = write_spectrum(tmp_path, [(0, 1), (1, 1)])
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps({"amplitudes": [1, 2]}))
        assert main(["compute-l", spec, "--dims", "1,1",
                     "--state", str(state_path)]) == 1
        assert_one_line_error(capsys, f"error: {state_path}: ", "amplitudes")

    def test_nan_state_rejected(self, tmp_path, capsys):
        spec = write_spectrum(tmp_path, [(0, 1), (1, 1)])
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps({"amplitudes": [[float("nan"), 0], [0, 0]]}))
        out = tmp_path / "l.json"
        assert main(["compute-l", spec, "--dims", "1,1",
                     "--state", str(state_path), "--out", str(out)]) == 1
        assert not out.exists()
        assert_one_line_error(capsys, f"error: {state_path}: ", "norm")

    @pytest.mark.parametrize("amplitudes, fragment", [
        ([[1, 0]] * 3, "state must have length 4, got shape (3,)"),
        ([[2, 0], [0, 0], [0, 0], [0, 0]], "state norm 2.0 is not 1 within 1e-10"),
    ], ids=["short", "norm-2"])
    def test_state_refusal_names_the_file(self, tmp_path, capsys, amplitudes, fragment):
        spec = write_spectrum(tmp_path, [(0, 2), (1, 2)])
        state_path = tmp_path / "st.json"
        state_path.write_text(json.dumps({"amplitudes": amplitudes}))
        assert main(["compute-l", spec, "--dims", "2,2", "--state", str(state_path)]) == 1
        assert_one_line_error(capsys, f"error: {state_path}: {fragment}")

    @pytest.mark.parametrize("doc, fragment", [
        ({"amplitudes": [[1, 0], [0, 0]], "phase": 3},
         "state document has unknown keys ['phase']; allowed: ['amplitudes']"),
        ([[1, 0], [0, 0]], "state document must be a JSON object"),
        ({}, '"amplitudes" must be a list of [re, im] number pairs'),
    ], ids=["unknown-key", "array", "no-amplitudes"])
    def test_state_document_schema_checked(self, tmp_path, capsys, doc, fragment):
        spec = write_spectrum(tmp_path, [(0, 1), (1, 1)])
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps(doc))
        assert main(["compute-l", spec, "--dims", "1,1", "--state", str(state_path)]) == 1
        assert_one_line_error(capsys, f"error: {state_path}: {fragment}")

    def test_amplitude_beyond_the_float_range_rejected(self, tmp_path, capsys):
        spec = write_spectrum(tmp_path, [(0, 1), (1, 1)])
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps({"amplitudes": [[10**400, 0], [0, 0]]}))
        out = tmp_path / "l.json"
        assert main(["compute-l", spec, "--dims", "1,1",
                     "--state", str(state_path), "--out", str(out)]) == 1
        assert not out.exists()
        assert_one_line_error(capsys, '"amplitudes"')

    def test_trajectory_dump(self, tmp_path):
        spec = write_spectrum(tmp_path, [(0, 1), (1, 1), (2, 1)])
        traj = tmp_path / "traj.tsv"
        assert main(["compute-l", spec, "--dims", "1,2",
                     "--grid-points", "16",
                     "--dump-trajectory", str(traj),
                     "--out", str(tmp_path / "l.json")]) == 0
        lines = traj.read_text().strip().splitlines()
        assert lines[0] == "tau\tcell_1\tcell_2"
        assert len(lines) == 17
        weights = [sum(map(float, ln.split("\t")[1:])) for ln in lines[1:]]
        assert all(abs(w - 1) < 1e-9 for w in weights)


OFFSET_LEVELS = (0, 1, 3, 7)


class TestOffsetSpectra:
    """A common energy offset is a global phase: it changes no reported
    number.  The grid phases are exact roots of unity on the exact integer
    energies; float phases lost the oracle at 10^12, the normality route
    at 10^17 and the trajectory dump a radian at 6.3e15."""

    @staticmethod
    def levels(offset):
        return [(str(offset + e), 2) for e in OFFSET_LEVELS]

    @pytest.mark.parametrize("offset", [10**12, 10**15])
    def test_compute_l_oracle_exact(self, tmp_path, offset):
        reports = []
        for shift in (0, offset):
            spec = write_spectrum(tmp_path, self.levels(shift), f"spec-{shift}.json")
            out = tmp_path / f"l-{shift}.json"
            assert main(["compute-l", spec, "--dims", "2,2,4", "--seed", "3",
                         "--out", str(out)]) == 0
            reports.append(load(out))
        plain, shifted = reports
        assert shifted["pass"] is True
        for a, b in zip(plain["cells"], shifted["cells"]):
            assert b["oracle"]["residual"] <= 1e-15
            assert abs(a["oracle"]["value"] - b["oracle"]["value"]) <= 1e-15
            assert {k: v for k, v in a.items() if k != "oracle"} == \
                {k: v for k, v in b.items() if k != "oracle"}

    def test_run_normality_unchanged_at_1e17(self, tmp_path):
        reports = []
        for shift in (0, 10**17):
            config = tmp_path / f"config-{shift}.json"
            config.write_text(json.dumps({
                "spectrum": {"levels": [{"energy": str(e), "degeneracy": d}
                                        for e, d in self.levels(shift)]},
                "dims": [2, 2, 4],
                "trials": 500,
                "seed": 3,
                "state": "haar-per-trial",
                "params": {"epsilon": 0.8, "delta": 0.5, "delta_prime": 0.5},
                "normality": True,
            }))
            out = tmp_path / f"report-{shift}.json"
            assert main(["run", str(config), "--out", str(out)]) == 0
            reports.append(load(out))
        plain, shifted = reports
        assert shifted["normality"] == plain["normality"]
        assert shifted["experiment"]["trial_totals"] == plain["experiment"]["trial_totals"]

    def test_trajectory_dump_unchanged_at_1e12(self, tmp_path):
        # 10^12 is 0 mod 500: every phase of the grid is unchanged
        dumps = []
        for shift in (0, 10**12):
            spec = write_spectrum(tmp_path, self.levels(shift), f"spec-{shift}.json")
            dump = tmp_path / f"traj-{shift}.tsv"
            assert main(["compute-l", spec, "--dims", "2,2,4", "--seed", "3",
                         "--grid-points", "500", "--periods", "2",
                         "--dump-trajectory", str(dump),
                         "--out", str(tmp_path / f"l-{shift}.json")]) == 0
            lines = dump.read_text().splitlines()
            assert lines[0] == "tau\tcell_1\tcell_2\tcell_3" and len(lines) == 501
            dumps.append(dump.read_bytes())
        plain, shifted = dumps
        assert plain == shifted

    def test_dump_reads_energies_mod_the_grid(self, tmp_path):
        # 10^17 + 1 is 1 mod 1000, so the dump is the one of levels {0, 1}
        dumps = []
        for top in (1, 10**17 + 1):
            spec = write_spectrum(tmp_path, [(0, 1), (str(top), 1)], f"spec-{top}.json")
            dump = tmp_path / f"traj-{top}.tsv"
            assert main(["compute-l", spec, "--dims", "1,1", "--grid-points", "1000",
                         "--dump-trajectory", str(dump),
                         "--out", str(tmp_path / f"l-{top}.json")]) == 0
            dumps.append(dump.read_bytes())
        near, far = dumps
        assert near == far and len(far.splitlines()) == 1001


def compute_l_instance(spec_path, dims, seed):
    """The decomposition and prepared state vector compute-l draws for ``seed``."""
    spec = parse_spectrum(load(spec_path))
    decomposition = sample_decomposition([int(d) for d in dims.split(",")],
                                         substream(seed, 0))
    vector = prepare_state(sample_random_state(spec.dim_total, substream(seed, 1)), spec)
    return spec, decomposition, vector


SPECTRA = {
    "integer-resonant": ([(0, 1), (1, 1), (2, 1), (3, 1), (4, 1)], "2,3"),
    "degenerate": ([(0, 3), (1, 2), (3, 1)], "2,2,2"),
    "rational": ([(0, 2), ("1/2", 1), (2, 1), ("7/3", 2)], "3,1,2"),
}


class TestComputeLPath:
    """compute-l on the shared cell kernel and the grid-evaluated oracle."""

    @pytest.mark.parametrize("name", SPECTRA)
    def test_cells_equal_deviation_exact(self, tmp_path, name):
        levels, dims = SPECTRA[name]
        spec_path = write_spectrum(tmp_path, levels)
        out = tmp_path / "l.json"
        assert main(["compute-l", spec_path, "--dims", dims, "--seed", "11",
                     "--out", str(out)]) == 0
        spec, decomposition, vector = compute_l_instance(spec_path, dims, 11)
        d_f = sum_structure(spec).max_sum_degeneracy
        records = load(out)["cells"]
        assert len(records) == len(decomposition)
        for record, cell in zip(records, decomposition):
            b = deviation_exact(spec, vector, cell)
            written = {key: value for key, value in b.items() if key != "time_avg_weight"}
            assert {key: record[key] for key in written} == written
            assert set(record) == set(written) | {
                "cell", "rank", "ergodicity_gap", "resonant_bound", "chain_ok", "oracle"}
            assert record["ergodicity_gap"] == b["diag_dev_sq"]
            assert record["resonant_bound"] == resonant_term_bound(b["time_avg_weight"], d_f)
            assert record["rank"] == cell.shape[1] and record["chain_ok"] is True
        if name == "integer-resonant":
            assert any(record["resonant_term"] != 0.0 for record in records)

    def test_rational_equals_its_integer_copy(self, tmp_path):
        # a rational spectrum and its levels times 12 read the same integer
        # levels from their pair indices: the same cells, oracle values and
        # dump weights; the multiplier and the dump's times tell them apart
        rational = [(0, 2), ("1/3", 1), ("1/2", 3), ("7/4", 1), ("-5/6", 2)]
        integer = [(int(12 * Fraction(e)), d) for e, d in rational]
        reports, weights = [], []
        for name, levels in (("rational", rational), ("integer", integer)):
            spec = write_spectrum(tmp_path, levels, f"{name}.json")
            out, dump = tmp_path / f"{name}-l.json", tmp_path / f"{name}.tsv"
            assert main(["compute-l", spec, "--dims", "3,3,3", "--seed", "6",
                         "--grid-points", "777", "--periods", "2",
                         "--dump-trajectory", str(dump), "--out", str(out)]) == 0
            reports.append(load(out))
            weights.append([row.split("\t", 1)[1] for row in dump.read_text().splitlines()])
        scaled, whole = reports
        assert all(cell["oracle"]["match"] for cell in scaled["cells"])
        assert scaled.pop("rescaled_to_integer") == {"multiplier": 12}
        assert whole.pop("rescaled_to_integer") is None
        assert scaled == whole
        assert len(weights[0]) == 778 and weights[0] == weights[1]

    @pytest.mark.parametrize("name", SPECTRA)
    def test_oracle_matches_the_per_point_average(self, tmp_path, name):
        levels, dims = SPECTRA[name]
        spec_path = write_spectrum(tmp_path, levels)
        out = tmp_path / "l.json"
        assert main(["compute-l", spec_path, "--dims", dims, "--seed", "5",
                     "--out", str(out)]) == 0
        spec, decomposition, vector = compute_l_instance(spec_path, dims, 5)
        # twice the oracle's 2*spread + 1 points of the integer levels:
        # every exact grid gives the same average; their period is 2*pi
        # times the scale of the index in the spectrum's own time
        n = 4 * integer_spread(spec) + 1
        period = 2 * math.pi * spec.pair_index.scale
        for record, cell in zip(load(out)["cells"], decomposition):
            frac = cell.shape[1] / spec.dim_total
            expected = math.fsum(
                (cell_weight(evolve(spec, vector, period * j / n), cell) - frac) ** 2
                for j in range(n)) / n
            assert abs(record["oracle"]["value"] - expected) <= 1e-13

    def test_no_per_point_or_per_cell_calls(self, tmp_path, monkeypatch):
        calls = Counter()
        for module, name in [(typicality, "deviation_exact"),
                             (randomness, "sample_decomposition"),
                             (dynamics, "discrete_time_average"),
                             (dynamics, "prepare_state")]:
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        levels, dims = SPECTRA["rational"]
        spec_path = write_spectrum(tmp_path, levels)
        assert main(["compute-l", spec_path, "--dims", dims,
                     "--out", str(tmp_path / "l.json")]) == 0
        assert calls == {"discrete_time_average": 1, "prepare_state": 1}

    def test_time_grid_kernels_read_one_column_per_level(self, tmp_path, monkeypatch):
        # the oracle and the dump evolve the D_E x D shell coordinates with
        # one phase per level, never a D-wide array; run's normality route
        # reads gap polynomials and evolves no coordinates
        widths = Counter()
        evolved = dynamics.evolved_weights

        def spy(phases, coords, ranks):
            widths[phases.shape[-1], coords.shape[-2]] += 1
            return evolved(phases, coords, ranks)

        monkeypatch.setattr(dynamics, "evolved_weights", spy)
        levels = [(0, 3), (1, 2), ("7/2", 3)]  # D = 8, D_E = 3
        spec_path = write_spectrum(tmp_path, levels)
        assert main(["compute-l", spec_path, "--dims", "4,4", "--grid-points", "300",
                     "--dump-trajectory", str(tmp_path / "traj.tsv"),
                     "--out", str(tmp_path / "l.json")]) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "spectrum": json.loads(Path(spec_path).read_text()), "dims": [4, 4],
            "trials": 3, "state": "haar-per-trial", "normality": True}))
        assert main(["run", str(config), "--out", str(tmp_path / "report.json")]) == 0
        # one oracle slice for all cells (15 grid times) and 3 dump slices
        assert widths == {(3, 3): 1 + 3}

    def test_one_membership_matrix_per_rank_tuple(self, tmp_path):
        # two cells of rank 3: two oracle slices of a 159-point grid and a
        # three-slice dump all read the one matrix for (3, 3)
        spec_path = write_spectrum(tmp_path, [(0, 2), ("1/2", 1), (7, 1), ("79/2", 2)])
        assert dynamics.GRID_SLICE < 159 <= 2 * dynamics.GRID_SLICE
        dynamics._membership.cache_clear()
        assert main(["compute-l", spec_path, "--dims", "3,3", "--grid-points", "300",
                     "--dump-trajectory", str(tmp_path / "traj.tsv"),
                     "--out", str(tmp_path / "l.json")]) == 0
        info = dynamics._membership.cache_info()
        assert (info.misses, info.hits) == (1, 4)
        assert not dynamics._membership((3, 3)).flags.writeable

    def test_slices_of_one_time_change_no_oracle_value(self, tmp_path, monkeypatch):
        # the rescaled spread is 79, so the 159-point grid spans two slices
        spec_path = write_spectrum(tmp_path, [(0, 2), ("1/2", 1), (7, 1), ("79/2", 2)])
        argv = ["compute-l", spec_path, "--dims", "3,3", "--seed", "2"]
        sliced, single = tmp_path / "sliced.json", tmp_path / "single.json"
        assert dynamics.GRID_SLICE < 159
        assert main(argv + ["--out", str(sliced)]) == 0
        monkeypatch.setattr(dynamics, "GRID_SLICE", 1)
        assert main(argv + ["--out", str(single)]) == 0
        a, b = load(sliced), load(single)
        for ca, cb in zip(a["cells"], b["cells"]):
            assert ca["oracle"]["value"] == pytest.approx(cb["oracle"]["value"],
                                                          rel=1e-14, abs=1e-16)
            ca.pop("oracle"), cb.pop("oracle")
        assert a == b

    @staticmethod
    def count_oracle_times(monkeypatch):
        """Grid indices each discrete_time_average call evaluates, in order."""
        counts = []
        average = dynamics.discrete_time_average

        def counted(observable, spec, max_frequency):
            counts.append(0)

            def timed(indices):
                counts[-1] += len(indices)
                return observable(indices)
            return average(timed, spec, max_frequency)

        monkeypatch.setattr(dynamics, "discrete_time_average", counted)
        return counts

    def test_oracle_takes_the_least_exact_grid(self, tmp_path, monkeypatch):
        # the benchmark's oracle input: levels 125k/2 rescale to spread 4875,
        # so (w - d/D)^2 reaches frequency 9750 and 9751 times are exact
        counts = self.count_oracle_times(monkeypatch)
        spec = write_spectrum(tmp_path, [(f"{125 * k}/2", 2) for k in range(40)])
        out = tmp_path / "l.json"
        assert main(["compute-l", spec, "--dims", "20,20,20,20", "--seed", "1",
                     "--out", str(out)]) == 0
        assert counts == [9751]
        assert all(cell["oracle"]["match"] for cell in load(out)["cells"])

    def test_oracle_runs_up_to_a_spread_of_ten_thousand(self, tmp_path, monkeypatch):
        counts = self.count_oracle_times(monkeypatch)
        spec = write_spectrum(tmp_path, [(0, 1), (10_000, 1)])
        out = tmp_path / "l.json"
        assert main(["compute-l", spec, "--dims", "1,1", "--out", str(out)]) == 0
        report = load(out)
        assert report["oracle_note"] is None and counts == [20_001]
        assert all(cell["oracle"]["match"] for cell in report["cells"])

    def test_oracle_averages_at_most_64_cells_at_a_time(self, tmp_path, monkeypatch):
        # 200 rank-1 cells on a 20 001-point grid: four averages of 64, 64,
        # 64 and 8 cells, each of its own consecutive columns
        widths = []
        average = dynamics.discrete_time_average

        def spy(observable, spec, max_frequency):
            widths.append(0)

            def observed(indices):
                values = observable(indices)
                widths[-1] = max(widths[-1], values.shape[1])
                return values
            return average(observed, spec, max_frequency)

        monkeypatch.setattr(dynamics, "discrete_time_average", spy)
        spec = write_spectrum(tmp_path, [(0, 100), (10_000, 100)])
        out = tmp_path / "l.json"
        assert main(["compute-l", spec, "--dims", ",".join(["1"] * 200),
                     "--out", str(out)]) == 0
        cells = load(out)["cells"]
        assert widths == [64, 64, 64, 8]
        assert len(cells) == 200 and all(cell["oracle"]["match"] for cell in cells)

    def test_oracle_skipped_beyond_the_grid_limit(self, tmp_path, monkeypatch):
        counts = self.count_oracle_times(monkeypatch)
        spec = write_spectrum(tmp_path, [(0, 1), (10_001, 1)])
        out = tmp_path / "l.json"
        assert main(["compute-l", spec, "--dims", "1,1", "--out", str(out)]) == 0
        report = load(out)
        assert report["oracle_note"] == ("oracle skipped: rescaled spectral spread 10001 "
                                         "needs a 20003-point grid (limit 20001)")
        assert counts == [] and all("oracle" not in cell for cell in report["cells"])

    @pytest.mark.parametrize("flags, fragment", [
        (["--grid-points", "0"], "--grid-points"),
        (["--grid-points", "-4"], "--grid-points"),
        (["--periods", "0"], "--periods"),
        (["--periods=-1"], "--periods"),
        (["--periods=-" + "9" * 400], "--periods"),
        (["--periods", "1" + "0" * 309], "--periods"),
        (["--periods", "1" + "0" * 400], "--periods"),
        (["--grid-points", "10000001"], "--grid-points"),
        (["--grid-points", "1000000000000000"], "--grid-points"),
        (["--dims", "2,,4"], "--dims"),
        (["--dims", "6,"], "--dims"),
        (["--dims", "1e1"], "--dims"),
    ])
    def test_bad_flags_rejected(self, tmp_path, capsys, flags, fragment):
        spec = write_spectrum(tmp_path, [(0, 1), ("1/2", 1), (2, 1)])
        out, traj = tmp_path / "l.json", tmp_path / "traj.tsv"
        flag_refusal(capsys, ["compute-l", spec, "--dims", "1,2", "--out", str(out),
                              "--dump-trajectory", str(traj)] + flags, fragment)
        assert not out.exists() and not traj.exists()

    @pytest.mark.parametrize("periods", ["1.5", "nan", "inf", "1e308", "-1.5"])
    def test_fractional_periods_rejected(self, tmp_path, capsys, periods):
        # the dump's times are grid times: it spans whole periods
        spec = write_spectrum(tmp_path, [(0, 1), ("1/2", 1), (2, 1)])
        out, traj = tmp_path / "l.json", tmp_path / "traj.tsv"
        with pytest.raises(SystemExit) as exc:
            main(["compute-l", spec, "--dims", "1,2", "--out", str(out),
                  "--dump-trajectory", str(traj), f"--periods={periods}"])
        assert exc.value.code == 2
        assert not out.exists() and not traj.exists()
        err = capsys.readouterr().err
        assert "error: argument --periods: invalid int value" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [["--grid-points", "5"], ["--periods", "2"],
                                       ["--grid-points", "1000", "--periods", "1"]])
    def test_dump_flags_need_the_dump(self, tmp_path, capsys, flags):
        # the two flags shape only the dump; without it they are refused
        spec = write_spectrum(tmp_path, [(0, 1), ("1/2", 1), (2, 1)])
        out = tmp_path / "l.json"
        assert main(["compute-l", spec, "--dims", "1,2", "--out", str(out)] + flags) == 1
        assert not out.exists()
        assert_one_line_error(capsys, flags[0], "--dump-trajectory")

    def test_multiplier_beyond_float_range_rejected(self, tmp_path, capsys):
        spec = write_spectrum(tmp_path, [(0, 1), ("1/1" + "0" * 309, 1)])
        out, traj = tmp_path / "l.json", tmp_path / "traj.tsv"
        assert main(["compute-l", spec, "--dims", "1,1", "--out", str(out),
                     "--dump-trajectory", str(traj)]) == 1
        assert not out.exists() and not traj.exists()
        assert_one_line_error(capsys, "--dump-trajectory", "multiplier (310 digits)")
        # without the dump the multiplier is only reported
        assert main(["compute-l", spec, "--dims", "1,1", "--out", str(out)]) == 0
        assert load(out)["rescaled_to_integer"] == {"multiplier": 10**309}

    # 1e400 is beyond the float range; 1e308 is not, but float phases E*tau
    # are; at 1e17 float phases drifted by up to a radian.  Each is 0 mod
    # 1000, so every phase of the 1000-point grid is 1 and every row of the
    # dump is its first.
    @pytest.mark.parametrize("energy", ["1e400", "1e308", "1e17"])
    def test_energies_past_float_phases_dump(self, tmp_path, energy):
        spec = write_spectrum(tmp_path, [(0, 1), (energy, 1)])
        out, traj = tmp_path / "l.json", tmp_path / "traj.tsv"
        assert main(["compute-l", spec, "--dims", "1,1", "--out", str(out),
                     "--dump-trajectory", str(traj)]) == 0
        lines = traj.read_text().splitlines()
        assert len(lines) == 1001
        rows = np.array([[float(x) for x in ln.split("\t")] for ln in lines[1:]])
        assert np.array_equal(rows[:, 1:], np.broadcast_to(rows[0, 1:], (1000, 2)))

    def test_dump_within_1e_15_of_exact_phases(self, tmp_path):
        # the benchmark's oracle input, over three periods
        levels = [(f"{125 * k}/2", 2) for k in range(40)]
        spec, traj = write_spectrum(tmp_path, levels), tmp_path / "traj.tsv"
        with mock.patch.object(cli, "_trajectory_chunks",
                               wraps=cli._trajectory_chunks) as spy:
            assert main(["compute-l", spec, "--dims", "20,20,20,20", "--seed", "3",
                         "--grid-points", "5000", "--periods", "3",
                         "--dump-trajectory", str(traj),
                         "--out", str(tmp_path / "l.json")]) == 0
        coords = spy.call_args.args[1]
        lines = traj.read_text().splitlines()
        with mpmath.workprec(200):
            x = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in coords])
            for j in [1, 7, 1249, 2500, 3333, 4999]:
                row = [float(v) for v in lines[1 + j].split("\t")[1:]]
                # tau_j = 2 pi * 2 * 3 * j / 5000 in the units of energies 125k/2
                turns = [Fraction(125 * k, 2) * 2 * 3 * j / 5000 for k in range(40)]
                phases = [mpmath.expjpi(-2 * mpmath.mpf(t.numerator) / t.denominator)
                          for t in turns]
                evolved = [mpmath.fsum(phases[a] * x[a, c] for a in range(40))
                           for c in range(80)]
                for k, value in enumerate(row):
                    exact = mpmath.fsum(abs(z) ** 2 for z in evolved[20 * k:20 * k + 20])
                    assert abs(value - exact) <= 1e-15

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
    def test_dump_memory_flat_in_the_grid(self, tmp_path):
        # a table of 10^6 roots is 15.3 MiB and takes about 50 MiB to build;
        # the dump forms its roots a slice at a time instead
        spec = write_spectrum(tmp_path, [(0, 1), ("1/3", 1), (7, 1)])
        script = ("import sys; from ergolab.cli import main; "
                  "assert main(sys.argv[1:]) == 0; "
                  "print([ln for ln in open('/proc/self/status') if ln.startswith('VmHWM')][0])")
        peaks = []
        for points in ("1000", "1000000"):
            done = subprocess.run(
                [sys.executable, "-c", script, "compute-l", spec, "--dims", "1,2",
                 "--grid-points", points, "--dump-trajectory", os.devnull,
                 "--out", str(tmp_path / "l.json")],
                capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
            peaks.append(int(done.stdout.split()[1]))  # kB
        small, large = peaks
        assert large - small < 8 * 1024, peaks

    def test_dump_slices_change_no_byte(self, tmp_path, monkeypatch):
        spec = write_spectrum(tmp_path, [(0, 2), ("1/2", 1), (2, 1)])
        argv = ["compute-l", spec, "--dims", "2,2", "--grid-points", "300",
                "--periods", "2", "--out", str(tmp_path / "l.json")]
        sliced, single = tmp_path / "sliced.tsv", tmp_path / "single.tsv"
        assert dynamics.GRID_SLICE < 300
        assert main(argv + ["--dump-trajectory", str(sliced)]) == 0
        monkeypatch.setattr(dynamics, "GRID_SLICE", 300)
        assert main(argv + ["--dump-trajectory", str(single)]) == 0
        assert sliced.read_bytes() == single.read_bytes()
        assert len(sliced.read_text().splitlines()) == 301


def _mostly(valid, wild, required=False, odds=10):
    """A flag value: ``wild`` once in ``odds``, absent (if optional) once in
    ``odds``, else from ``valid``.  With ten flags at the default odds a
    third of the cases still carry no wild value."""
    return st.integers(1, odds).flatmap(
        lambda k: wild if k == 1 else st.none() if k == 2 and not required else valid)


def run_fuzz_case(argv) -> tuple[int, str, str]:
    """``main(argv)`` with its streams captured, as (exit code, stdout,
    stderr), argparse's exit as code 2.  Asserts what every fuzz case
    shares: JSON with exit 0/1, one ``error:`` line with exit 1, or
    argparse's ``error: argument`` with exit 2; never a traceback."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected a flag
            code = exc.code
    out, err = stdout.getvalue(), stderr.getvalue()
    if code == 2:
        assert "error: argument" in err and "Traceback" not in err, err
    elif out:
        assert code in (0, 1)
        json.loads(out)
    else:
        assert code == 1 and err.startswith("error:") and err.count("\n") == 1, err
    return code, out, err


def _with_flags(argv, flags):
    for flag, value in flags:
        if value is not None:
            argv.append(f"{flag}={value}")  # a value may start with "-"
    return argv


_WILD = st.text(alphabet="0123456789+-.,eix ", max_size=6)


class TestComputeLFuzz:
    # Grid sizes stay small, so that every case runs quickly.
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        dims=st.one_of(
            st.sampled_from(["2,3", "5", "1,1,3", "3,2", "0,5", "6"]),
            st.sampled_from(["2,3", "5", "1,1,3", "3,2"]),
            st.lists(st.integers(-1, 5), min_size=1, max_size=5).map(
                lambda ranks: ",".join(map(str, ranks))),
        ),
        seed=_mostly(st.integers(-1, 2**80).map(str), _WILD, odds=6),
        grid_points=_mostly(st.integers(-3, 40).map(str), _WILD, odds=6),
        periods=_mostly(st.integers(1, 3).map(str),
                        st.one_of(st.integers().map(str), st.floats().map(repr),
                                  st.text(max_size=4)), odds=6),
        state=st.sampled_from([None, None, "good", "good", "nan", "short", "not-pairs",
                               "missing"]),
    )
    def test_flags_end_in_json_or_one_error_line(self, tmp_path_factory, dims, seed,
                                                grid_points, periods, state):
        work = tmp_path_factory.getbasetemp() / "compute-l-fuzz"
        work.mkdir(exist_ok=True)
        spec = write_spectrum(work, [(0, 2), ("1/2", 1), (2, 2)])
        states = {
            "good": [[z.real, z.imag] for z in sample_random_state(5, substream(1, 0))],
            "nan": [[float("nan"), 0]] + [[0, 0]] * 4,
            "short": [[1, 0]],
            "not-pairs": [1, 2, 3, 4, 5],
        }
        argv = _with_flags(
            ["compute-l", spec, f"--dims={dims}",
             "--dump-trajectory", str(work / "traj.tsv")],
            [("--seed", seed), ("--grid-points", grid_points), ("--periods", periods)])
        if state is not None:
            path = work / f"{state}.json"
            if state in states:
                path.write_text(json.dumps({"amplitudes": states[state]}))
            argv += ["--state", str(path)]
        code, out, err = run_fuzz_case(argv)
        if out:
            assert err == "" and json.loads(out)["pass"] is (code == 0)


def _big_int(low, high):
    """A valid integer flag, in decimal or power notation."""
    return st.one_of(st.integers(low, high).map(str),
                     st.integers(1, 64).map(lambda k: f"2^{k}"))


# Wild values; their powers stay cheap to compute.
_BAD_INT = st.one_of(st.sampled_from(["0", "1", "-4", "2^-1", "1e-3", "9^999", "x", ""]),
                     st.text(alphabet="0123456789^e-x ", max_size=6))
_BAD_FLOAT = st.one_of(st.sampled_from(["0", "-0.0", "-1", "nan", "inf", "1e308", "5e-324"]),
                       st.floats().map(repr), st.text(max_size=4))


class TestCheckTheoremFuzz:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        dim=_mostly(_big_int(2, 10**30), _BAD_INT, required=True),
        rank=_mostly(_big_int(1, 10**6), _BAD_INT, required=True),
        cells=_mostly(_big_int(1, 10**6), _BAD_INT, required=True),
        sum_degeneracy=_mostly(_big_int(0, 100), _BAD_INT),
        floats=st.lists(_mostly(st.floats(0.01, 1).map(repr), _BAD_FLOAT),
                        min_size=3, max_size=3),
        constant=_mostly(st.floats(1.01, 1e6).map(repr), _BAD_FLOAT),
        margin=_mostly(st.floats(1e-3, 1e3).map(repr), _BAD_FLOAT),
        precision_bits=_mostly(st.integers(53, 300).map(str),
                               st.sampled_from(["", "x", "52", "-1", "1e3"])),
        log_base=_mostly(st.sampled_from(["e", "10"]), st.just("2")),
    )
    def test_flags_end_in_json_or_one_error_line(self, dim, rank, cells, sum_degeneracy,
                                                floats, constant, margin,
                                                precision_bits, log_base):
        epsilon, delta, delta_prime = floats
        code, out, err = run_fuzz_case(_with_flags(["check-theorem"], [
            ("--dim", dim), ("--rank", rank), ("--cells", cells),
            ("--sum-degeneracy", sum_degeneracy), ("--epsilon", epsilon),
            ("--delta", delta), ("--delta-prime", delta_prime), ("--constant", constant),
            ("--margin", margin), ("--precision-bits", precision_bits),
            ("--log-base", log_base)]))
        if out:  # the report has no pass key: a written report exits 0
            assert code == 0 and err == ""


class TestVerifyLemmasFuzz:
    # Valid sizes stay small, so that every case runs quickly; the large
    # wild values are beyond the limits or beyond any machine's memory.
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        dim=_mostly(st.integers(1, 12).map(str),
                    st.sampled_from(["0", "-2", "x", "2^50", "1e9", "2^-1"]),
                    required=True),
        rank=_mostly(st.integers(1, 6).map(str),
                     st.sampled_from(["0", "-2", "x", "2^50", "13", "2^-1"]), required=True),
        samples=_mostly(st.integers(2, 300).map(str), st.sampled_from(
            ["1", "-2", "x", "1e3", "100000001", "1000000000000000"]), odds=4),
        ensemble=_mostly(st.integers(1, 30).map(str), st.sampled_from(
            ["0", "-2", "x", "2.5", "100000001", "1000000000000000"]), odds=4),
        seed=_mostly(st.integers(0, 2**80).map(str), st.sampled_from(["-1", "x"])),
    )
    def test_flags_end_in_json_or_one_error_line(self, dim, rank, samples, ensemble,
                                                seed):
        code, out, err = run_fuzz_case(_with_flags(["verify-lemmas"], [
            ("--dim", dim), ("--rank", rank), ("--samples", samples),
            ("--ensemble", ensemble), ("--seed", seed)]))
        if out:  # with a report, stderr carries only its warnings
            assert json.loads(out)["pass"] is (code == 0)
            assert all(line.startswith("warning: ") for line in err.splitlines()), err


# Energies of every JSON type: exact values, floats (NaN and infinities
# included, which json.dumps writes as the literals NaN and Infinity) and
# malformed ones.
_ENERGY = st.one_of(
    st.integers(-10, 10),
    st.fractions(min_value=-5, max_value=5, max_denominator=6).map(str),
    st.floats(),
    st.sampled_from(["x", "1/0", "", None, True, [1]]),
)


class TestAnalyzeFuzz:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        levels=st.lists(st.tuples(_ENERGY, _mostly(st.integers(1, 3), st.sampled_from(
            [0, -1, 1.5, True, "2"]), required=True)), max_size=5),
        snap=_mostly(st.integers(1, 1000).map(str),
                     st.sampled_from(["0", "-5", "x", "1.5", "1" + "0" * 400])),
    )
    @example(levels=[(1e308, 1), (0, 1)], snap="10")
    @example(levels=[(math.inf, 1), (0, 1)], snap="10")
    @example(levels=[(0, 1), (1, 1)], snap="-5")
    def test_input_ends_in_json_or_one_error_line(self, tmp_path_factory, levels, snap):
        path = tmp_path_factory.getbasetemp() / "fuzz-spectrum.json"
        path.write_text(json.dumps({"levels": [{"energy": e, "degeneracy": d}
                                               for e, d in levels]}))
        code, out, err = run_fuzz_case(_with_flags(["analyze", str(path)],
                                                   [("--snap-denominator", snap)]))
        if out:
            assert code == 0 and err == ""
            assert snap is None or int(snap) >= 1


# Wild energy and degeneracy values of every JSON type, as JSON text:
# bools, floats, nulls, lists, strings that are no number or whose power of
# ten is too long, integers of 4301 digits, beyond the decoder's limit, and
# of 4300, whose sums or products are beyond the digit rule.
_WILD_LEVEL_VALUE = st.one_of(
    st.one_of(st.booleans(), st.floats(), st.none(), st.lists(st.integers(0, 2), max_size=2),
              st.sampled_from(["1/0", "9e9999", "-1e-9999", "x", "", "1/2", "3"])
              ).map(json.dumps),
    st.sampled_from(["1" + "0" * 4300, "-1" + "0" * 4300, "9" * 4300, "5" + "0" * 4299]),
)


class TestSpectrumDocumentFuzz:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(levels=st.lists(st.tuples(
        _mostly(st.integers(-10, 10).map(str), _WILD_LEVEL_VALUE, required=True, odds=3),
        _mostly(st.integers(1, 3).map(str), _WILD_LEVEL_VALUE, required=True, odds=3)),
        max_size=4))
    @example(levels=[("0", "9" * 4300), ("1", "9" * 4300)])  # D of 4301 digits
    def test_levels_end_in_a_report_or_one_error_line_naming_the_file(
            self, tmp_path_factory, levels):
        path = tmp_path_factory.getbasetemp() / "fuzz-levels.json"
        path.write_text('{"levels": [%s]}' % ", ".join(
            '{"energy": %s, "degeneracy": %s}' % level for level in levels))
        code, out, err = run_fuzz_case(["analyze", str(path)])
        if out:
            assert code == 0 and err == ""
        else:
            assert code == 1 and err.startswith(f"error: {path}: "), err


_FUZZ_SPECTRUM = {"levels": [{"energy": k, "degeneracy": 1} for k in range(4)]}


class TestRunConfigFuzz:
    # Trial counts and grids stay small, so that every case runs quickly.
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(
        spectrum=_mostly(st.just(_FUZZ_SPECTRUM), st.sampled_from([
            {"levels": []}, 3, {"levels": [{"energy": 1e308, "degeneracy": 4}]}]),
            required=True),
        dims=_mostly(st.sampled_from([[2, 2], [1, 3], [4], [1, 1, 1, 1]]),
                     st.lists(st.one_of(st.integers(-1, 4), st.sampled_from([1.0, "2"])),
                              max_size=3), required=True),
        params=st.dictionaries(
            st.sampled_from(["epsilon", "delta", "delta_prime", "constant", "other"]),
            _mostly(st.floats(0.1, 1), st.one_of(st.floats(), st.sampled_from(
                [1e308, -1, 0, "1", True])), required=True),
            max_size=3),
        state=_mostly(st.sampled_from(["uniform", "haar-fixed", "haar-per-trial"]),
                      st.sampled_from(["other", 3, {"amplitudes": [[1, 0]]}, {"other": 1},
                                       {"amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]}])),
        trials=_mostly(st.integers(1, 4), st.sampled_from([0, -1, 2.5, "3", True]),
                       required=True),
        seed=_mostly(st.integers(0, 2**70), st.sampled_from([-1, 1.5, "1"])),
        grid_points=_mostly(st.integers(1, 40), st.sampled_from([0, -3, 2.5]),
                            required=True),
        normality=_mostly(st.booleans(), st.sampled_from(["no", 1])),
        log_base=_mostly(st.sampled_from(["e", "10"]), st.sampled_from([10, "2"])),
    )
    @example(spectrum=_FUZZ_SPECTRUM, dims=[2, 2], params={"epsilon": 1e308},
             state=None, trials=2, seed=None, grid_points=10, normality=None,
             log_base=None)
    def test_config_ends_in_json_or_one_error_line(self, tmp_path_factory, **doc):
        # None stands for an absent key.
        path = tmp_path_factory.getbasetemp() / "fuzz-config.json"
        path.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
        code, out, err = run_fuzz_case(["run", str(path)])
        if out:
            assert err == "" and json.loads(out)["pass"] is (code == 0)


class TestBigIntFlags:
    """Every integer flag is written into the report, where Python writes at
    most 4300 digits of an int; longer values are refused before any power
    is formed."""

    @pytest.mark.parametrize("value", [
        "2^15000", "10^30000000", "2^1" + "0" * 400, "1e4301", "1e" + "9" * 400,
        "1e-30000000", "1/0e3",
    ], ids=["2^15000", "10^30000000", "2^1e400", "1e4301", "1e(400 nines)",
            "1e-30000000", "1/0e3"])
    def test_too_long_rejected_at_parse_time(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["check-theorem", "--dim", value, "--rank", "1", "--cells", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert (f"error: argument --dim: {value!r} is not an integer of at most "
                "4300 digits") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value, digits", [("2^14000", 4215), ("9e4299", 4300)])
    def test_longest_values_still_reported(self, tmp_path, value, digits):
        out = tmp_path / "t.json"
        assert main(["check-theorem", "--dim", value, "--rank", "2^100",
                     "--cells", "2", "--out", str(out)]) == 0
        with open(out) as fh:
            assert len(str(json.load(fh)["D"])) == digits


class TestLongJsonIntegers:
    """An integer of more than 4300 digits in any JSON document the program
    reads ends in one error line with the file's path, its digit count and
    the limit, not in Python's integer-conversion message; a document that
    does not decode ends in one line with the path too."""

    LONG = "-1" + "0" * 4300  # 4301 digits

    def test_energy(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"levels": [{"energy": %s, "degeneracy": 1}]}' % self.LONG)
        assert main(["analyze", str(path)]) == 1
        assert_one_line_error(capsys, str(path), "4301 digits", "limit of 4300")

    def test_run_trials(self, tmp_path, capsys):
        cfg = Path(TestRun.write_config(tmp_path))
        cfg.write_text(cfg.read_text().replace('"trials": 5', '"trials": ' + self.LONG[1:]))
        assert main(["run", str(cfg), "--out", str(tmp_path / "report.json")]) == 1
        assert not (tmp_path / "report.json").exists()
        assert_one_line_error(capsys, str(cfg), "4301 digits", "limit of 4300")

    def test_state_amplitude(self, tmp_path, capsys):
        spec_path = write_spectrum(tmp_path, [(0, 1), (1, 1)])
        state = tmp_path / "state.json"
        state.write_text('{"amplitudes": [[%s, 0], [0, 0]]}' % self.LONG)
        assert main(["compute-l", spec_path, "--dims", "1,1", "--state", str(state)]) == 1
        assert_one_line_error(capsys, str(state), "4301 digits", "limit of 4300")

    def test_truncated_spectrum(self, tmp_path, capsys):
        path = write_spectrum(tmp_path, [(0, 1), (1, 1)])
        Path(path).write_text(Path(path).read_text()[:20])
        assert main(["analyze", path]) == 1
        assert_one_line_error(capsys, path, "line 1 column")

    def test_truncated_run_config(self, tmp_path, capsys):
        cfg = Path(TestRun.write_config(tmp_path))
        cfg.write_text(cfg.read_text()[:13])
        assert main(["run", str(cfg), "--out", str(tmp_path / "report.json")]) == 1
        assert not (tmp_path / "report.json").exists()
        assert_one_line_error(capsys, str(cfg), "line 1 column")

    def test_truncated_state(self, tmp_path, capsys):
        spec_path = write_spectrum(tmp_path, [(0, 1), (1, 1)])
        state = tmp_path / "state.json"
        state.write_text('{"amplitudes": [[1, 0], [0')
        assert main(["compute-l", spec_path, "--dims", "1,1", "--state", str(state)]) == 1
        assert_one_line_error(capsys, str(state), "line 1 column")


class TestParser:
    def test_built_once_and_reused_after_a_usage_error(self, tmp_path):
        cli.build_parser.cache_clear()
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        argv = ["check-theorem", "--dim", "16", "--rank", "8", "--cells", "2"]
        assert main(argv + ["--epsilon", "3", "--out", str(first)]) == 0
        with pytest.raises(SystemExit) as exc:  # parsed --epsilon, then failed
            main(argv + ["--epsilon", "0.5", "--margin", "x"])
        assert exc.value.code == 2
        assert main(argv + ["--out", str(second)]) == 0
        assert cli.build_parser.cache_info().misses == 1
        assert load(first)["epsilon"] == 3.0
        assert load(second)["epsilon"] == 1.0  # the default, not a leftover


    def test_every_numeric_flag_is_range_checked_by_its_type(self):
        # A bare int or float type would let a flag skip cli._flag, whose
        # refusal is the usage error that names the flag.
        commands = next(action.choices for action in cli.build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        assert sorted(commands) == ["analyze", "check-theorem", "compute-l", "run",
                                    "verify-lemmas"]
        bare = [(name, action.dest) for name, command in commands.items()
                for action in command._actions if action.type in (int, float)]
        assert bare == []


class TestCheckTheorem:
    def test_asymptotic_instance(self, tmp_path):
        out = tmp_path / "t.json"
        code = main(["check-theorem", "--dim", "2^100", "--rank", "1e8",
                     "--cells", "1e22", "--epsilon", "1e20",
                     "--delta", "1", "--delta-prime", "1",
                     "--constant", "1e6", "--out", str(out)])
        assert code == 0
        report = load(out)
        assert report["condition"]["holds"] is True
        assert float(report["log_dim_over_dim"]) == pytest.approx(5.468e-29, rel=1e-3)
        assert 1e6 < float(report["admissible_constant_crossover"]) < 1e7
        assert report["resonance_impact"]["small"] is True

    def test_failing_instance(self, tmp_path):
        out = tmp_path / "t.json"
        code = main(["check-theorem", "--dim", "16", "--rank", "8",
                     "--cells", "2", "--constant", "3", "--out", str(out)])
        assert code == 0
        assert load(out)["condition"]["holds"] is False

    def test_log_base_flag(self, tmp_path):
        out_e = tmp_path / "e.json"
        out_10 = tmp_path / "ten.json"
        args = ["check-theorem", "--dim", "1024", "--rank", "32", "--cells", "4",
                "--epsilon", "5", "--delta", "1", "--delta-prime", "1",
                "--constant", "1.5"]
        main(args + ["--out", str(out_e)])
        main(args + ["--log-base", "10", "--out", str(out_10)])
        assert float(load(out_e)["condition"]["lhs"]) > float(
            load(out_10)["condition"]["lhs"]
        )


    @pytest.mark.parametrize("flags, fragment", [
        (["--dim", "1"], "--dim"),
        (["--dim", "16", "--precision-bits", "0"], "--precision-bits"),
        (["--dim", "16", "--precision-bits", "65537"], "--precision-bits"),
        (["--dim", "16", "--margin", "0"], "--margin"),
        (["--dim", "16", "--margin=-1"], "--margin"),
        (["--dim", "16", "--margin", "nan"], "--margin"),
        (["--dim", "16", "--margin", "inf"], "--margin"),
        (["--dim", "1000", "--rank", "5000"], "--rank must be between 1 and --dim 1000"),
        (["--dim", "16", "--sum-degeneracy", "-5"], "--sum-degeneracy"),
        (["--dim", "16", "--sum-degeneracy", "0"], "--sum-degeneracy"),
        (["--dim", "16", "--epsilon", "inf"], "--epsilon must be a finite"),
        (["--dim", "16", "--epsilon", "nan"], "--epsilon"),
        (["--dim", "16", "--delta", "inf"], "--delta must be a finite"),
        (["--dim", "16", "--delta-prime=-inf"], "--delta-prime"),
        (["--dim", "16", "--constant", "inf"], "--constant must be a finite"),
        (["--dim", "16", "--cells", "0"], "--cells must be at least 1, got 0"),
        (["--dim", "16", "--epsilon", "0"], "--epsilon must be positive, got 0.0"),
        (["--dim", "16", "--delta", "2"], "--delta must lie in (0, 1], got 2.0"),
        (["--dim", "16", "--delta-prime", "0"], "--delta-prime must lie in (0, 1], got 0.0"),
        (["--dim", "16", "--constant", "1"], "--constant must exceed 1, got 1.0"),
    ])
    def test_degenerate_arguments_rejected(self, capsys, flags, fragment):
        argv = ["check-theorem", "--rank", "1", "--cells", "2"] + flags
        flag, _, rule = fragment.partition(" ")
        if flag == "--rank":  # --rank above --dim, a rule of two flags
            assert main(argv) == 1
            assert_one_line_error(capsys, fragment)
        else:
            assert rule in flag_refusal(capsys, argv, flag)

    def test_rank_equal_to_dim_and_one_sum_collision_accepted(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["check-theorem", "--dim", "16", "--rank", "16", "--cells", "1",
                     "--sum-degeneracy", "1", "--out", str(out)]) == 0
        assert load(out)["sum_degeneracy"] == 1

    def test_negative_exponent_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check-theorem", "--dim", "2^-1", "--rank", "1", "--cells", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --dim: '2^-1' has a negative exponent" in err
        assert "Traceback" not in err


class TestSeeds:
    @pytest.mark.parametrize("argv", [
        ["verify-lemmas", "--dim", "4", "--rank", "2", "--samples", "10", "--seed", "-1"],
        ["compute-l", "SPEC", "--dims", "1,1", "--seed", "-3"],
        ["run", "CONFIG", "--seed", "-1"],
        ["run", "CONFIG", "--seed", "one"],
    ], ids=["verify-lemmas", "compute-l", "run", "run-not-an-integer"])
    def test_bad_seed_flag_names_the_flag(self, tmp_path, capsys, argv):
        paths = {"SPEC": write_spectrum(tmp_path, [(0, 1), (1, 1)]),
                 "CONFIG": TestRun.write_config(tmp_path)}
        with pytest.raises(SystemExit) as exc:
            main([paths.get(a, a) for a in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --seed:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, flag", [
        (["run", "CONFIG", "--trials", "0"], "--trials"),
        (["run", "CONFIG", "--trials=-2"], "--trials"),
        (["run", "CONFIG", "--trials", "2.5"], "--trials"),
        (["analyze", "SPEC", "--snap-denominator", "0"], "--snap-denominator"),
    ], ids=["trials-0", "trials-negative", "trials-float", "snap-denominator-0"])
    def test_bad_count_flag_names_the_flag_not_the_file(self, tmp_path, capsys, argv, flag):
        # refused by argparse before any file is opened, not by the reader
        # of the file, which would put the file's path on the line
        paths = {"SPEC": write_spectrum(tmp_path, [(0, 1), (1, 1)]),
                 "CONFIG": TestRun.write_config(tmp_path)}
        with pytest.raises(SystemExit) as exc:
            main([paths.get(a, a) for a in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}:" in err
        assert str(tmp_path) not in err and "Traceback" not in err

    @pytest.mark.parametrize("seed", [-1, -(2**70)], ids=["minus-one", "below-int64"])
    def test_negative_config_seed_names_the_key(self, tmp_path, capsys, seed):
        cfg = TestRun.write_config(tmp_path, seed=seed)
        out = tmp_path / "report.json"
        assert main(["run", cfg, "--out", str(out)]) == 1
        assert not out.exists()
        assert_one_line_error(capsys, '"seed" must be a non-negative integer')


class TestRun:
    @staticmethod
    def write_config(tmp_path, **overrides):
        doc = {
            "spectrum": {"levels": [
                {"energy": 0, "degeneracy": 2},
                {"energy": 1, "degeneracy": 2},
                {"energy": 2, "degeneracy": 2},
                {"energy": 3, "degeneracy": 2},
            ]},
            "dims": [4, 4],
            "trials": 5,
            "seed": 17,
            "state": "haar-fixed",
            "params": {"epsilon": 1.0, "delta": 0.5, "delta_prime": 0.5},
        }
        doc.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_smoke_single_trial(self, tmp_path):
        cfg = self.write_config(tmp_path, trials=1)
        out = tmp_path / "report.json"
        assert main(["run", cfg, "--out", str(out)]) == 0
        report = load(out)
        assert report["experiment"]["trials"] == 1
        assert len(report["experiment"]["trial_totals"]) == 1
        assert report["pass"] is True

    def test_rerun_byte_identical(self, tmp_path):
        cfg = self.write_config(tmp_path, normality=True)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["run", cfg, "--out", str(out1)]) == 0
        assert main(["run", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_invalid_config_no_partial_output(self, tmp_path):
        cfg = self.write_config(tmp_path, dims=[4, 5])
        out = tmp_path / "report.json"
        assert main(["run", cfg, "--out", str(out)]) != 0
        assert not out.exists()

    @pytest.mark.parametrize("overrides, fragment", [
        ({"log_base": "2"}, "log_base"),
        ({"grid_points": 0, "normality": True}, "grid_points"),
        ({"grid_points": 3_037_000_500}, "grid_points must be between 1 and 3037000499"),
        ({"trials": None}, "trials"),
        ({"trials": True}, "trials"),
        ({"seed": 1.5}, "seed"),
        ({"grid_points": None}, "grid_points"),
        ({"dims": 5}, "dims"),
        ({"dims": [4, "4"]}, "dims"),
        ({"dims": []}, "dims"),
        ({"params": [1]}, "params"),
        ({"params": {"epsilon": None}}, "epsilon"),
        ({"params": {"epsilon": 1.0, "eps": 1.0}}, "eps"),
        ({"normality": "no"}, "normality"),
        ({"markov_threshold": 0.1}, "unknown keys ['markov_threshold']"),
        ({"spectrum": {"levels": [{"energy": "1e999999999", "degeneracy": 8}]}},
         "decimal exponent"),
        ({"retain_trials": True}, "retain_trials"),
        ({"state": {"amplitudes": [[float("nan"), 0]] + [[0, 0]] * 7}}, "norm"),
        ({"state": {"amplitudes": [[1e200, 0]] + [[0, 0]] * 7}}, "norm"),
        ({"state": {"amplitudes": [[10**400, 0]] + [[0, 0]] * 7}}, '"amplitudes"'),
        ({"state": {"amplitudes": [[1, 0]] + [[0, 0]] * 7, "phase": 0}}, "phase"),
        ({"state": {"amplitudes": [[2, 0]] + [[0, 0]] * 7}}, "state norm 2.0 is not 1"),
        ({"state": {"amplitudes": [[1, 0]] * 3}}, "state must have length 8"),
        ({"state": "explicit"}, "state policy must be one of"),
        ({"log_base": 10}, "log_base"),
        ([{"dims": [4, 4]}], "JSON object"),
        ({"state": 3}, '"state" must be a policy name or an object, got a JSON number'),
        ({"state": True}, '"state" must be a policy name or an object, got a JSON boolean'),
        ({"state": None}, '"state" must be a policy name or an object, got a JSON null'),
        ({"state": [1]}, '"state" must be a policy name or an object, got a JSON array'),
    ])
    def test_bad_config_value_rejected(self, tmp_path, capsys, overrides, fragment):
        if isinstance(overrides, dict):
            cfg = self.write_config(tmp_path, **overrides)
        else:  # the whole document, which is not an object
            cfg = str(tmp_path / "config.json")
            Path(cfg).write_text(json.dumps(overrides))
        out = tmp_path / "report.json"
        assert main(["run", cfg, "--out", str(out)]) == 1
        assert not out.exists()
        assert_one_line_error(capsys, f"error: {cfg}: ", fragment)

    @pytest.mark.parametrize("overrides, fragment", [
        ({"trials": "x", "seed": "y"}, "\"trials\" must be an integer, got 'x'"),
        ({"seed": "y"}, "\"seed\" must be an integer, got 'y'"),
    ], ids=["trials", "seed"])
    def test_document_types_checked_where_flags_replace_them(self, tmp_path, capsys,
                                                            overrides, fragment):
        cfg = self.write_config(tmp_path, **overrides)
        out = tmp_path / "report.json"
        assert main(["run", cfg, "--trials", "2", "--seed", "3", "--out", str(out)]) == 1
        assert not out.exists()
        assert_one_line_error(capsys, f"error: {cfg}: {fragment}")

    def test_config_keys_are_the_config_fields(self):
        assert cli.RUN_CONFIG_KEYS == {f.name for f in fields(montecarlo.ExperimentConfig)}

    @pytest.mark.parametrize("epsilon", [1e-160, 5e-324])
    def test_tiny_epsilon_reported(self, tmp_path, epsilon):
        # the sufficient-condition threshold delta' (epsilon/M)^2 d/D
        # underflows to a subnormal or to 0, and the run still reports
        cfg = self.write_config(tmp_path, params={"epsilon": epsilon, "delta": 0.5,
                                                  "delta_prime": 0.5})
        out = tmp_path / "report.json"
        assert main(["run", cfg, "--out", str(out)]) == 0
        assert load(out)["pass"] is True

    @pytest.mark.parametrize("normality, gates", [
        (False, {"mean_bound_and_chain"}),
        (True, {"mean_bound_and_chain", "normality_implication"}),
    ])
    def test_gates_are_the_chain_and_the_implication(self, tmp_path, normality, gates):
        cfg = self.write_config(tmp_path, normality=normality)
        out = tmp_path / "report.json"
        assert main(["run", cfg, "--out", str(out)]) == 0
        assert set(load(out)["gates"]) == gates

    # Levels {0, 1, 3, 7}: 2*spread + 1 = 15.  At seed 3 with 20 000 trials a
    # grid of 1 point gave 47 implication violations, 2 points gave 3.
    SPREAD_7 = {"levels": [{"energy": e, "degeneracy": 1} for e in (0, 1, 3, 7)]}

    @pytest.mark.parametrize("grid", [1, 2])
    def test_normality_grid_below_twice_the_spread_rejected(self, tmp_path, capsys, grid):
        cfg = self.write_config(tmp_path, spectrum=self.SPREAD_7, dims=[2, 2],
                                grid_points=grid, normality=True)
        out = tmp_path / "report.json"
        assert main(["run", cfg, "--out", str(out)]) == 1
        assert not out.exists()
        assert_one_line_error(capsys, "grid_points must be between 15 and", f"got {grid}")

    @pytest.mark.parametrize("grid", [None, 1000])
    def test_normality_floor_beyond_the_phase_grid_limit_rejected(self, tmp_path, capsys, grid):
        # levels {0, 10^10} need 2*10^10 + 1 points, beyond the 3037000499
        # of a phase grid: the refusal names the floor, not an empty range
        levels = {"levels": [{"energy": 0, "degeneracy": 4}, {"energy": 10**10, "degeneracy": 4}]}
        grid_flag = {} if grid is None else {"grid_points": grid}
        cfg = self.write_config(tmp_path, spectrum=levels, normality=True, **grid_flag)
        out = tmp_path / "report.json"
        assert main(["run", cfg, "--out", str(out)]) == 1
        assert not out.exists()
        assert_one_line_error(capsys, "normality needs a grid of at least 20000000001 points",
                              "beyond the limit 3037000499")

    def test_normality_holds_on_the_least_grid(self, tmp_path):
        # on a grid of 2*spread + 1 points the grid mean of (w - d/D)^2 is
        # the deviation, so "sufficient => direct" is a theorem
        cfg = self.write_config(tmp_path, spectrum=self.SPREAD_7, dims=[2, 2], trials=20_000,
                                seed=3, state="haar-per-trial", grid_points=15,
                                params={"epsilon": 0.8, "delta": 0.5, "delta_prime": 0.5},
                                normality=True)
        out = tmp_path / "report.json"
        assert main(["run", cfg, "--out", str(out)]) == 0
        assert load(out)["normality"]["implication_violations"] == 0

    def test_default_normality_grid_covers_twice_the_spread(self, tmp_path, monkeypatch):
        # spread 700: the default grid is 1401 points, not 1000, and an
        # explicit 1000 is refused
        grids = []
        phases = montecarlo.gap_phases
        monkeypatch.setattr(montecarlo, "gap_phases",
                            lambda index, n: grids.append(n) or phases(index, n))
        spectrum = {"levels": [{"energy": e, "degeneracy": 1} for e in (0, 1, 3, 700)]}
        cfg = self.write_config(tmp_path, spectrum=spectrum, dims=[2, 2], normality=True)
        assert main(["run", cfg, "--out", str(tmp_path / "report.json")]) == 0
        assert grids == [1401]
        cfg = self.write_config(tmp_path, spectrum=spectrum, dims=[2, 2], normality=True,
                                grid_points=1000)
        assert main(["run", cfg, "--out", str(tmp_path / "report.json")]) == 1

    def test_trial_dump_and_overrides(self, tmp_path):
        cfg = self.write_config(tmp_path)
        dump = tmp_path / "trials.tsv"
        out = tmp_path / "report.json"
        assert main(["run", cfg, "--trials", "3", "--seed", "23",
                     "--out", str(out), "--dump-trials", str(dump)]) == 0
        report = load(out)
        assert report["experiment"]["trials"] == 3
        assert report["experiment"]["seed"] == 23
        assert len(dump.read_text().strip().splitlines()) == 1 + 3 * 2


def break_every_chain(monkeypatch):
    """An ergodicity gap 1e-6 above the total in every cell: each breaks
    the inequality chain of run and compute-l, which allows CHAIN_SLACK."""
    kernel = montecarlo.deviation_breakdowns

    def broken(buckets, frac):
        b = kernel(buckets, frac)
        b["diag_dev_sq"] = b["total"] + 1e-6
        return b

    monkeypatch.setattr(montecarlo, "deviation_breakdowns", broken)


def fail_the_state_mean(monkeypatch):
    """verify-lemmas' state-weight mean gate fails, whatever was drawn."""
    lemma_statistics = randomness.lemma_statistics

    def failed(*args):
        state, sphere, blocks = lemma_statistics(*args)
        state["mean"]["pass"] = False
        return state, sphere, blocks

    monkeypatch.setattr(randomness, "lemma_statistics", failed)


class TestExitRule:
    """main's one rule: exit 0 exactly when the report's "pass" is true or
    absent, else 1; a failed gate still writes its report, its dumps and
    its warnings."""

    @pytest.mark.parametrize("argv, inject, dump, warning", [
        (["analyze", "SPEC"], None, None, None),
        (["check-theorem", "--dim", "2^100", "--rank", "2^60", "--cells", "4"], None, None, None),
        (["verify-lemmas", "--dim", "8", "--rank", "2", "--samples", "10", "--ensemble", "5"],
         None, None, "insufficient samples (10 < 10000): gates skipped"),
        (["verify-lemmas", "--dim", "4", "--rank", "4", "--samples", "10000"],
         fail_the_state_mean, None, "rank equals dim: unitary block statistics skipped"),
        (["compute-l", "SPEC", "--dims", "1,1,1"], None, "--dump-trajectory", None),
        (["compute-l", "SPEC", "--dims", "1,1,1"], break_every_chain, "--dump-trajectory", None),
        (["run", "CONFIG"], None, "--dump-trials", None),
        (["run", "CONFIG"], break_every_chain, "--dump-trials", None),
    ], ids=["analyze", "check-theorem", "verify-lemmas", "verify-lemmas-failed",
            "compute-l", "compute-l-failed", "run", "run-failed"])
    def test_exit_status_is_the_report_pass(self, tmp_path, monkeypatch, capsys,
                                            argv, inject, dump, warning):
        paths = {"SPEC": write_spectrum(tmp_path, [(0, 1), (1, 1), (3, 1)]),
                 "CONFIG": TestRun.write_config(tmp_path)}
        argv = [paths.get(a, a) for a in argv]
        if inject is not None:
            inject(monkeypatch)
        dump_path = tmp_path / "dump.tsv"
        if dump is not None:
            argv += [dump, str(dump_path)]
        code = main(argv)
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == (0 if report.get("pass", True) else 1)
        assert code == (inject is not None)  # each injection fails a gate
        if argv[0] in ("analyze", "check-theorem"):
            assert "pass" not in report
        if dump is not None:
            assert dump_path.read_text().count("\n") > 1  # a header and rows
        assert captured.err == ("" if warning is None else f"warning: {warning}\n")
