"""Ensemble orchestration: determinism, tail bound audit, normality fractions."""

import json
from fractions import Fraction as F

import numpy as np
import pytest

from ergolab import (
    ExperimentConfig,
    ExperimentReport,
    Spectrum,
    TheoremParams,
    deviation_exact,
    dump_trials,
    gap_structure,
    integer_rescaled,
    markov_check,
    normality_fraction,
    prepare_state,
    run_experiment,
    sum_structure,
    time_fraction_normal,
    wilson_interval,
)
from ergolab import montecarlo, typicality
from ergolab.cli import main
from ergolab.montecarlo import _fixed_state_vector, _trial_inputs


def spec_of(levels):
    return Spectrum(tuple((F(e), d) for e, d in levels))


RES_SPEC = spec_of([(0, 2), (1, 2), (2, 2), (3, 2)])


def make_config(**kw):
    defaults = dict(
        spectrum=RES_SPEC,
        dims=(4, 4),
        params=TheoremParams(1.0, 0.5, 0.5, 2),
        trials=25,
        seed=99,
        state_policy="haar-fixed",
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestConfigValidation:
    def test_dims_must_sum_to_dimension(self):
        with pytest.raises(ValueError, match="sum"):
            make_config(dims=(4, 5), params=TheoremParams(1.0, 0.5, 0.5, 2))

    def test_cell_count_must_match_params(self):
        with pytest.raises(ValueError, match="cells"):
            make_config(dims=(2, 2, 4), params=TheoremParams(1.0, 0.5, 0.5, 2))

    def test_trials_positive(self):
        with pytest.raises(ValueError, match="trial"):
            make_config(trials=0)

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            make_config(state_policy="psychic")

    def test_explicit_needs_amplitudes(self):
        with pytest.raises(ValueError, match="amplitudes"):
            make_config(state_policy="explicit")


class TestRunExperiment:
    def test_single_trial_equals_breakdown(self):
        cfg = make_config(trials=1, state_policy="uniform")
        report = run_experiment(cfg)
        dec, state = _trial_inputs(cfg, 0, _fixed_state_vector(cfg))
        gaps, sums = gap_structure(cfg.spectrum), sum_structure(cfg.spectrum)
        for k, cell in enumerate(dec):
            expected = deviation_exact(state, cell, gaps, sums).total
            assert report.cells[k]["mean"] == expected
            assert report.cells[k]["max"] == expected
            assert report.cells[k]["min"] == expected
            assert report.cells[k]["stderr"] == 0.0

    def test_deterministic_reports(self):
        a = run_experiment(make_config()).to_dict()
        b = run_experiment(make_config()).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_chain_clean_and_bounded(self):
        report = run_experiment(make_config(trials=40, state_policy="haar-per-trial"))
        assert report.chain_violations == 0
        for cell in report.cells:
            assert cell["mean_below_bound"]
            assert cell["min"] <= cell["mean"] <= cell["max"]
            assert 0.0 <= cell["prob_exceed"] <= 1.0

    def test_cell_threshold_is_the_sufficient_condition_boundary(self):
        cfg = make_config(dims=(2, 6), trials=2)
        for cell in run_experiment(cfg).cells:
            threshold, rank = cell["threshold"], cell["rank"]
            assert typicality.sufficient_condition(threshold, cfg.params, rank, cfg.dim_total)
            above = float(np.nextafter(threshold, np.inf))
            assert not typicality.sufficient_condition(above, cfg.params, rank, cfg.dim_total)

    def test_per_trial_dump(self, tmp_path):
        report = run_experiment(make_config(trials=5))
        path = tmp_path / "trials.tsv"
        dump_trials(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split("\t") == ["trial", "cell", "deviation",
                                        "threshold", "sufficient"]
        assert len(lines) == 1 + 5 * 2


class TestMarkovCheck:
    def test_threshold_above_max_trivially_passes(self):
        report = run_experiment(make_config())
        out = markov_check(report, report.overall["max"] * 2)
        assert out["pass"] and out["prob_exceed"] == 0.0

    def test_vacuous_bound_regime(self):
        report = run_experiment(make_config())
        out = markov_check(report, report.overall["mean"] / 2)
        assert out["pass"]
        assert out["markov_bound"] >= 1.0

    def test_nonpositive_threshold_rejected(self):
        report = run_experiment(make_config())
        with pytest.raises(ValueError, match="positive"):
            markov_check(report, 0.0)

    def test_adversarial_inconsistency_detected(self):
        # fabricate a report whose stored mean is far below what its
        # samples imply: the tail bound cannot hold and the audit must fire
        base = run_experiment(make_config(trials=10))
        fake = ExperimentReport(
            config=base.config,
            max_gap_degeneracy=base.max_gap_degeneracy,
            max_sum_degeneracy=base.max_sum_degeneracy,
            cells=base.cells,
            overall={"mean": 0.01, "stderr": 0.0, "max": 2.0, "min": 2.0},
            chain_violations=0,
            samples=np.full((10, 2), 2.0),
        )
        out = markov_check(fake, 1.0)
        assert not out["pass"]


class TestWilson:
    def test_extremes_clamped(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi > 0.0
        lo, hi = wilson_interval(50, 50)
        assert lo < 1.0 and hi == 1.0

    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(30, 100)
        assert lo < 0.3 < hi

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


class TestNormalityFraction:
    def test_huge_epsilon_all_pass(self):
        cfg = make_config(params=TheoremParams(1e6, 0.5, 0.5, 2), trials=10)
        out = normality_fraction(cfg)
        assert out.sufficient_fraction == 1.0
        assert out.direct_fraction == 1.0
        assert out.implication_violations == 0

    def test_tiny_epsilon_sufficient_fails(self):
        cfg = make_config(params=TheoremParams(1e-9, 0.5, 0.5, 2), trials=10)
        out = normality_fraction(cfg)
        assert out.sufficient_fraction == 0.0

    def test_mixed_regime_zero_violations(self):
        cfg = make_config(
            params=TheoremParams(0.8, 0.5, 0.5, 2),
            trials=60,
            state_policy="haar-per-trial",
            seed=20,
        )
        out = normality_fraction(cfg)
        assert 0.0 < out.sufficient_fraction < 1.0
        assert out.implication_violations == 0
        lo, hi = out.sufficient_ci
        assert 0.0 <= lo <= out.sufficient_fraction <= hi <= 1.0

    def test_rational_spectrum_direct_route(self):
        spec = spec_of([(0, 2), (F(1, 2), 2), (1, 2), (F(3, 2), 2)])
        cfg = ExperimentConfig(
            spectrum=spec,
            dims=(4, 4),
            params=TheoremParams(1e6, 0.5, 0.5, 2),
            trials=5,
            seed=3,
        )
        out = normality_fraction(cfg)
        assert out.direct_fraction == 1.0


RATIONAL_SPEC = spec_of([(0, 2), (F(1, 2), 3), (F(3, 2), 1), (2, 2)])


def rational_config(state_policy, **kw):
    amplitudes = None
    if state_policy == "explicit":
        amplitudes = np.zeros(8, dtype=complex)
        amplitudes[:4] = [0.5, 0.5j, 0.5, 0.5j]
    return ExperimentConfig(
        spectrum=RATIONAL_SPEC,
        dims=(3, 5),
        # epsilon 0.5: every policy has trials on both sides of the
        # sufficient threshold, and the explicit state also of the direct one
        params=TheoremParams(0.5, 0.5, 0.5, 2),
        trials=40,
        seed=5,
        state_policy=state_policy,
        amplitudes=amplitudes,
        grid_points=400,
        **kw,
    )


class TestSinglePass:
    def test_cli_run_draws_and_evaluates_each_trial_once(self, tmp_path, monkeypatch):
        calls = {"deviation_exact": 0, "sample_decomposition": 0, "exact_time_avg_weight": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(montecarlo, "deviation_exact")
        counted(montecarlo, "sample_decomposition")
        counted(typicality, "exact_time_avg_weight")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "spectrum": {"levels": [{"energy": e, "degeneracy": 2} for e in range(4)]},
            "dims": [2, 2, 2, 2],
            "trials": 20,
            "seed": 1,
            "state": "haar-per-trial",
            "params": {"epsilon": 0.8, "delta": 0.5, "delta_prime": 0.5},
            "normality": True,
        }))
        assert main(["run", str(config), "--out", str(tmp_path / "report.json")]) == 0
        assert calls == {"deviation_exact": 20 * 4, "sample_decomposition": 20,
                         "exact_time_avg_weight": 0}

    @pytest.mark.parametrize("policy", ["uniform", "haar-fixed", "haar-per-trial", "explicit"])
    def test_normality_counts_match_per_trial_recomputation(self, policy):
        cfg = rational_config(policy, normality=True)
        gaps, sums = gap_structure(cfg.spectrum), sum_structure(cfg.spectrum)
        ispec, _ = integer_rescaled(cfg.spectrum)
        p = cfg.params
        sufficient = direct = violations = 0
        fixed = _fixed_state_vector(cfg)
        for t in range(cfg.trials):
            dec, state = _trial_inputs(cfg, t, fixed)
            ok_sufficient = all(
                deviation_exact(state, cell, gaps, sums).total <= cfg.threshold(cell.rank)
                for cell in dec
            )
            fraction = time_fraction_normal(
                prepare_state(state.vector, ispec), dec, p.epsilon, cfg.grid_points
            )
            ok_direct = fraction >= 1 - p.delta_prime
            sufficient += ok_sufficient
            direct += ok_direct
            violations += ok_sufficient and not ok_direct
        out = run_experiment(cfg).normality
        assert (out.sufficient_count, out.direct_count, out.implication_violations) == (
            sufficient, direct, violations)
        assert out.trials == cfg.trials

    def test_normality_leaves_cell_statistics_unchanged(self):
        off = run_experiment(rational_config("haar-per-trial"))
        on = run_experiment(rational_config("haar-per-trial", normality=True))
        assert off.normality is None and on.normality is not None
        assert json.dumps(off.to_dict(), sort_keys=True) == json.dumps(
            on.to_dict(), sort_keys=True)
        assert np.array_equal(off.samples, on.samples)
