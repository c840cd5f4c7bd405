"""Ensemble orchestration: determinism, normality fractions."""

import json
import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from ergolab import (
    ExperimentConfig,
    Spectrum,
    TheoremParams,
    normality_fraction,
    run_experiment,
    wilson_interval,
)
from ergolab import montecarlo, typicality
from ergolab.cli import main
from ergolab.montecarlo import _block_trials

from support import per_trial_reference


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
        state="haar-fixed",
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestBlockBudget:
    # Beyond BLOCK_BYTES a run holds its (trials, cells) deviations (16 KiB
    # at 500 trials of 4 cells) and numpy's temporary buffers.
    SLACK = 128 << 10

    @pytest.mark.parametrize("grid_points, trials", [(1000, 500), (2_000_000, 2)],
                             ids=["ensemble-small", "long-grid"])
    def test_traced_peak_stays_within_the_block_budget(self, grid_points, trials):
        config = ExperimentConfig(
            spectrum=RES_SPEC, dims=(2, 2, 2, 2), params=TheoremParams(0.8, 0.5, 0.5, 4),
            trials=trials, seed=1, state="haar-per-trial",
            grid_points=grid_points, normality=True)
        run_experiment(replace(config, trials=1, grid_points=1000))  # first-call caches
        tracemalloc.start()
        try:
            run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= montecarlo.BLOCK_BYTES + self.SLACK


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
            make_config(state="psychic")

    @pytest.mark.parametrize("seed", [-1, -(2**70)], ids=["minus-one", "below-int64"])
    def test_negative_seed_names_the_field(self, seed):
        with pytest.raises(ValueError, match='"seed" must be a non-negative integer'):
            make_config(seed=seed)

    def test_explicit_is_not_a_policy_name(self):
        with pytest.raises(ValueError, match="state policy must be one of"):
            make_config(state="explicit")

    @pytest.mark.parametrize("amplitudes, fragment", [
        ([0.5] * 4, "state must have length 8"),
        ([1.0] + [0.0] * 8, "state must have length 8"),
        ([2.0] + [0.0] * 7, "state norm 2.0"),
        ([float("nan")] + [0.0] * 7, "state norm nan"),
    ], ids=["short", "long", "norm-2", "nan"])
    def test_amplitude_state_checked_when_built(self, amplitudes, fragment):
        with pytest.raises(ValueError, match=fragment):
            make_config(state=np.array(amplitudes, dtype=complex))

    def test_replace_prepares_the_callers_amplitudes_again(self):
        # the amplitudes are kept as given (norm 1 within the tolerance, not
        # exactly), so a replace, as normality_fraction makes, runs the same
        # state bit for bit
        amplitudes = np.full(8, (1 + 1e-12) / np.sqrt(8), dtype=complex)
        cfg = make_config(state=amplitudes, trials=5)
        again = replace(cfg, normality=True)
        assert again.state is amplitudes
        first, second = (run_experiment(c)["experiment"] for c in (cfg, again))
        assert first["trial_totals"].tobytes() == second["trial_totals"].tobytes()
        assert second["state_policy"] == "explicit"

    @pytest.mark.parametrize("field, value", [
        ("dims", (4.5, 3.5)), ("dims", (4.0, 4.0)), ("trials", 2.5), ("seed", 3.7),
        ("grid_points", 1000.0),
    ], ids=["dims", "integral-float-dims", "trials", "seed", "grid_points"])
    def test_non_integral_integers_refused(self, field, value):
        # int() would truncate: dims (4.5, 3.5) would run as (4, 3), and
        # seed 3.7 draw from seed 3 while the report said 3.7
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            make_config(**{field: value})

    def test_numpy_integers_become_ints(self):
        cfg = make_config(dims=np.array([4, 4]), trials=np.int64(3), seed=np.uint8(7),
                          grid_points=np.int32(500))
        assert (cfg.dims, cfg.trials, cfg.seed, cfg.grid_points) == ((4, 4), 3, 7, 500)
        assert all(type(v) is int for v in (*cfg.dims, cfg.trials, cfg.seed, cfg.grid_points))

    @pytest.mark.parametrize("log_base", ["2", 10, math.e, ["e"]])
    def test_log_base_is_a_name(self, log_base):
        with pytest.raises(ValueError, match='log_base must be "e" or "10"'):
            make_config(log_base=log_base)


class TestRunExperiment:
    def test_single_trial_equals_breakdown(self):
        cfg = make_config(trials=1, state="uniform")
        cells = run_experiment(cfg)["experiment"]["cells"]
        for k, expected in enumerate(per_trial_reference(cfg).totals[0]):
            assert cells[k]["mean"] == expected
            assert cells[k]["max"] == expected
            assert cells[k]["min"] == expected
            assert cells[k]["stderr"] == 0.0

    def test_deterministic_reports(self):
        a = run_experiment(make_config())
        b = run_experiment(make_config())
        assert json.dumps(a, sort_keys=True, default=np.ndarray.tolist) == json.dumps(
            b, sort_keys=True, default=np.ndarray.tolist)

    def test_experiment_record_is_what_run_writes(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "spectrum": {"levels": [{"energy": e, "degeneracy": 2} for e in range(4)]},
            "dims": [4, 4], "trials": 5, "seed": 7, "state": "haar-per-trial",
            "params": {"epsilon": 0.8, "delta": 0.5, "delta_prime": 0.5},
        }))
        out = tmp_path / "report.json"
        assert main(["run", str(config), "--out", str(out)]) == 0
        # the same run: RES_SPEC, cells (4, 4)
        cfg = make_config(params=TheoremParams(0.8, 0.5, 0.5, 2), trials=5, seed=7,
                          state="haar-per-trial")
        experiment = run_experiment(cfg)["experiment"]
        totals = experiment["trial_totals"]
        assert totals.shape == (5, 2) and not totals.flags.writeable
        with pytest.raises(ValueError):
            totals[0, 0] = 1.0
        written = json.loads(out.read_text())["experiment"]
        assert json.loads(json.dumps(experiment, default=np.ndarray.tolist)) == written

    def test_chain_clean_and_bounded(self):
        cfg = make_config(trials=40, state="haar-per-trial")
        experiment = run_experiment(cfg)["experiment"]
        assert experiment["chain_violations"] == 0
        for cell in experiment["cells"]:
            assert cell["mean_below_bound"]
            assert cell["min"] <= cell["mean"] <= cell["max"]
            assert 0.0 <= cell["prob_exceed"] <= 1.0

    def test_cell_threshold_is_the_sufficient_condition_boundary(self):
        cfg = make_config(dims=(2, 6), trials=2)
        for cell in run_experiment(cfg)["experiment"]["cells"]:
            threshold, rank = cell["threshold"], cell["rank"]
            assert typicality.sufficient_condition(threshold, cfg.params, rank, cfg.dim_total)
            above = float(np.nextafter(threshold, np.inf))
            assert not typicality.sufficient_condition(above, cfg.params, rank, cfg.dim_total)


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
        assert out["sufficient_fraction"] == 1.0
        assert out["direct_fraction"] == 1.0
        assert out["implication_violations"] == 0

    def test_tiny_epsilon_sufficient_fails(self):
        cfg = make_config(params=TheoremParams(1e-9, 0.5, 0.5, 2), trials=10)
        out = normality_fraction(cfg)
        assert out["sufficient_fraction"] == 0.0

    def test_mixed_regime_zero_violations(self):
        cfg = make_config(
            params=TheoremParams(0.8, 0.5, 0.5, 2),
            trials=60,
            state="haar-per-trial",
            seed=20,
        )
        out = normality_fraction(cfg)
        assert 0.0 < out["sufficient_fraction"] < 1.0
        assert out["implication_violations"] == 0
        lo, hi = out["sufficient_ci"]
        assert 0.0 <= lo <= out["sufficient_fraction"] <= hi <= 1.0

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
        assert out["direct_fraction"] == 1.0

    def test_default_grid_is_resolved_again_when_normality_turns_on(self):
        # Levels {0, 600}: the audit needs 2*600 + 1 grid points, more than
        # the default 1000 that a run without it walks.
        cfg = ExperimentConfig(spectrum=spec_of([(0, 2), (600, 2)]), dims=(2, 2),
                               params=TheoremParams(1e6, 0.5, 0.5, 2), trials=3, seed=1)
        assert (cfg.grid_points, cfg.grid) == (None, 1000)
        assert replace(cfg, normality=True).grid == 1201
        assert normality_fraction(cfg)["direct_fraction"] == 1.0


RATIONAL_SPEC = spec_of([(0, 2), (F(1, 2), 3), (F(3, 2), 1), (2, 2)])


EXPLICIT_AMPLITUDES = np.zeros(8, dtype=complex)
EXPLICIT_AMPLITUDES[:4] = [0.5, 0.5j, 0.5, 0.5j]


def ensemble_config(spectrum, policy, trials, normality=True):
    return ExperimentConfig(
        spectrum=spectrum,
        dims=(3, 5),
        # epsilon 0.5: every policy has trials on both sides of the
        # sufficient threshold, and the explicit state also of the direct one
        params=TheoremParams(0.5, 0.5, 0.5, 2),
        seed=5,
        state=EXPLICIT_AMPLITUDES if policy == "explicit" else policy,
        trials=trials,
        grid_points=400,
        normality=normality,
    )


def assert_normality_matches(out, ref):
    """A normality record against the per-trial reference's counts."""
    trials = out["trials"]
    assert (out["sufficient_fraction"], out["direct_fraction"],
            out["implication_violations"]) == (
        ref.sufficient_count / trials, ref.direct_count / trials,
        ref.implication_violations)


def rational_config(policy, normality=False):
    return ensemble_config(RATIONAL_SPEC, policy, trials=40, normality=normality)


# Trial counts around the block size of the engine.
TRIAL_COUNTS = {
    "1": lambda block: 1,
    "block-1": lambda block: block - 1,
    "block": lambda block: block,
    "block+1": lambda block: block + 1,
    "2*block+1": lambda block: 2 * block + 1,
}


class TestSinglePass:
    def test_cli_run_draws_and_evaluates_each_trial_once(self, tmp_path, monkeypatch):
        # The blocked engine draws each trial from its own substream exactly
        # once, evaluates trials x cells overlap matrices in the deviation
        # kernel, builds the time-grid phases once, and never goes back to
        # the per-cell time average.
        draws, calls = Counter(), Counter()
        substream, kernel = montecarlo.substream, montecarlo.deviation_breakdowns
        phases, time_avg = montecarlo.gap_phases, typicality.exact_time_avg_weight

        def counted_substream(seed, *path):
            draws[path] += 1
            return substream(seed, *path)

        def counted_kernel(buckets, frac):
            calls["matrices"] += buckets[0].shape[0]
            return kernel(buckets, frac)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(montecarlo, "substream", counted_substream)
        monkeypatch.setattr(montecarlo, "deviation_breakdowns", counted_kernel)
        monkeypatch.setattr(montecarlo, "gap_phases", counted("gap_phases", phases))
        monkeypatch.setattr(typicality, "exact_time_avg_weight",
                            counted("exact_time_avg_weight", time_avg))
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
        assert draws == {(1, t): 1 for t in range(20)}
        assert calls == {"matrices": 20 * 4, "gap_phases": 1}

    def test_rational_equals_its_integer_copy(self):
        # RATIONAL_SPEC and its levels times 2 read the same integer levels
        # from their pair indices: the same grid, phases and buckets
        integer = spec_of([(2 * e, d) for e, d in RATIONAL_SPEC.levels])
        rational, whole = (
            run_experiment(ensemble_config(spec, "explicit", trials=40))
            for spec in (RATIONAL_SPEC, integer))
        assert rational["normality"] == whole["normality"]
        assert 0 < rational["normality"]["direct_fraction"] < 1
        assert (rational["experiment"]["trial_totals"].tobytes()
                == whole["experiment"]["trial_totals"].tobytes())

    @pytest.mark.parametrize("policy", ["uniform", "haar-fixed", "haar-per-trial", "explicit"])
    def test_normality_counts_match_per_trial_recomputation(self, policy):
        cfg = rational_config(policy, normality=True)
        ref = per_trial_reference(cfg)
        out = run_experiment(cfg)["normality"]
        assert_normality_matches(out, ref)
        assert out["trials"] == cfg.trials

    @pytest.mark.parametrize("policy", ["uniform", "haar-fixed", "haar-per-trial", "explicit"])
    @pytest.mark.parametrize("spectrum", [RES_SPEC, RATIONAL_SPEC], ids=["integer", "rational"])
    @pytest.mark.parametrize("count", TRIAL_COUNTS)
    def test_blocks_match_the_per_trial_reference(self, policy, spectrum, count):
        block = _block_trials(ensemble_config(spectrum, policy, trials=10**6))
        assert block > 2
        cfg = ensemble_config(spectrum, policy, trials=TRIAL_COUNTS[count](block))
        report = run_experiment(cfg)
        ref = per_trial_reference(cfg)
        experiment = report["experiment"]
        assert np.max(np.abs(experiment["trial_totals"] - ref.totals)) <= 1e-14
        assert experiment["chain_violations"] == ref.chain_violations
        assert_normality_matches(report["normality"], ref)

    def test_chain_violations_counted_per_trial_and_cell(self, monkeypatch):
        # a negative slack makes the chain checks fail on some trials and
        # cells but not all, so the count tests the engine's bookkeeping
        monkeypatch.setattr(montecarlo, "CHAIN_SLACK", -0.02)
        cfg = rational_config("haar-per-trial")
        count = run_experiment(cfg)["experiment"]["chain_violations"]
        assert count == per_trial_reference(cfg, chain_slack=-0.02).chain_violations
        assert 0 < count < 2 * cfg.trials * len(cfg.dims)

    def test_gap_roots_are_formed_once_across_blocks(self, monkeypatch):
        # one-trial blocks, as at D above 104: every block reads the run's
        # one gap phases, whose small-step roots are formed once
        seen, fractions = [], montecarlo.normal_time_fractions

        def spy(sums, ranks, epsilon, phases):
            seen.append((phases, "steps" in vars(phases)))
            return fractions(sums, ranks, epsilon, phases)

        monkeypatch.setattr(montecarlo, "BLOCK_BYTES", 1)
        monkeypatch.setattr(montecarlo, "normal_time_fractions", spy)
        cfg = rational_config("haar-per-trial", normality=True)
        assert _block_trials(cfg) == 1
        run_experiment(cfg)
        assert len(seen) == cfg.trials > 1
        assert {id(phases) for phases, _ in seen} == {id(seen[0][0])}
        assert [cached for _, cached in seen] == [False] + [True] * (cfg.trials - 1)

    def test_block_size_changes_no_result(self, monkeypatch):
        cfg = rational_config("haar-per-trial", normality=True)
        blocked = run_experiment(cfg)
        monkeypatch.setattr(montecarlo, "BLOCK_BYTES", 1)
        assert _block_trials(cfg) == 1
        single = run_experiment(cfg)
        assert np.array_equal(blocked["experiment"]["trial_totals"],
                              single["experiment"]["trial_totals"])
        assert blocked["normality"] == single["normality"]

    def test_normality_leaves_cell_statistics_unchanged(self):
        off = run_experiment(rational_config("haar-per-trial"))
        on = run_experiment(rational_config("haar-per-trial", normality=True))
        assert off["normality"] is None and on["normality"] is not None
        assert json.dumps(off["experiment"], sort_keys=True, default=np.ndarray.tolist) == (
            json.dumps(on["experiment"], sort_keys=True, default=np.ndarray.tolist))
