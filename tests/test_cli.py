"""Command-line surface: reports, exit codes, determinism."""

import json
from pathlib import Path

import pytest

from ergolab import parse_spectrum, sample_random_state, substream
from ergolab.cli import main


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
        again = parse_spectrum(json.dumps({"levels": report["levels"]}))
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
        assert main(["verify-lemmas", "--dim", "4", "--rank", "2",
                     "--samples", "1", "--out", str(out)]) == 1
        assert not out.exists()
        assert_one_line_error(capsys, "--samples")

    def test_moderate_run_passes(self, tmp_path):
        out = tmp_path / "v.json"
        code = main(["verify-lemmas", "--dim", "30", "--rank", "6",
                     "--samples", "20000", "--ensemble", "120",
                     "--seed", "5", "--out", str(out)])
        report = load(out)
        assert code == 0 and report["pass"] is True
        assert report["unitary_block_gate"]["applicable"] is True


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
        assert_one_line_error(capsys, "amplitudes")

    def test_nan_state_rejected(self, tmp_path, capsys):
        spec = write_spectrum(tmp_path, [(0, 1), (1, 1)])
        state_path = tmp_path / "state.json"
        state_path.write_text(json.dumps({"amplitudes": [[float("nan"), 0], [0, 0]]}))
        out = tmp_path / "l.json"
        assert main(["compute-l", spec, "--dims", "1,1",
                     "--state", str(state_path), "--out", str(out)]) == 1
        assert not out.exists()
        assert_one_line_error(capsys, "norm")

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
    ])
    def test_degenerate_arguments_rejected(self, capsys, flags, fragment):
        assert main(["check-theorem", "--rank", "1", "--cells", "2"] + flags) == 1
        assert_one_line_error(capsys, fragment)

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
        ({"trials": None}, "trials"),
        ({"trials": True}, "trials"),
        ({"seed": 1.5}, "seed"),
        ({"grid_points": None}, "grid_points"),
        ({"dims": 5}, "dims"),
        ({"dims": [4, "4"]}, "dims"),
        ({"params": [1]}, "params"),
        ({"params": {"epsilon": None}}, "epsilon"),
        ({"params": {"epsilon": 1.0, "eps": 1.0}}, "eps"),
        ({"normality": "no"}, "normality"),
        ({"markov_threshold": "0.1"}, "markov_threshold"),
        ({"markov_threshold": float("nan")}, "markov_threshold"),
        ({"retain_trials": True}, "retain_trials"),
        ({"state": {"amplitudes": [[float("nan"), 0]] + [[0, 0]] * 7}}, "norm"),
        ({"state": {"amplitudes": [[1e200, 0]] + [[0, 0]] * 7}}, "norm"),
        ({"state": {"amplitudes": [[1, 0]] + [[0, 0]] * 7, "phase": 0}}, "phase"),
        ({"log_base": 10}, "log_base"),
        ([{"dims": [4, 4]}], "JSON object"),
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
        assert_one_line_error(capsys, fragment)

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
